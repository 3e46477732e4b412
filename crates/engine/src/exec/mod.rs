//! Physical query plans and their (materialized) execution.
//!
//! The planner lowers SQL into a small tree of [`Plan`] nodes; execution is
//! bottom-up and fully materialized — each node consumes and produces a
//! [`Chunk`] (schema + row vector). Scans and index lookups account rows and
//! modeled page I/O into [`crate::stats::ExecStats`], which is how the
//! benchmark harness observes the cost behaviour studied in Appendix D.1.

pub mod aggregate;
pub mod explain;
pub mod join;

use std::collections::HashMap;

use crate::cost;
use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::index::IndexKey;
use crate::schema::Schema;
use crate::stats::ExecStats;
use crate::table::Table;
use crate::types::{Row, Value};

pub use aggregate::{AggFunc, Aggregate};
pub use join::JoinStrategy;

/// A materialized intermediate result.
#[derive(Debug, Clone)]
pub struct Chunk {
    pub schema: Schema,
    pub rows: Vec<Row>,
}

impl Chunk {
    pub fn new(schema: Schema, rows: Vec<Row>) -> Chunk {
        Chunk { schema, rows }
    }

    pub fn empty(schema: Schema) -> Chunk {
        Chunk {
            schema,
            rows: Vec::new(),
        }
    }
}

/// One projection item; `unnest` marks a set-returning `unnest(array)`
/// column that expands each input row into one row per array element.
#[derive(Debug, Clone)]
pub struct ProjItem {
    pub expr: Expr,
    pub unnest: bool,
}

/// Sort key: expression plus direction.
#[derive(Debug, Clone)]
pub struct SortKey {
    pub expr: Expr,
    pub desc: bool,
}

/// Physical plan tree.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Full scan of a base table with an optional residual filter.
    SeqScan {
        table: String,
        filter: Option<Expr>,
    },
    /// Point lookup(s) through an index on `cols`, with optional residual.
    IndexLookup {
        table: String,
        cols: Vec<usize>,
        keys: Vec<IndexKey>,
        filter: Option<Expr>,
    },
    /// Inline constant rows.
    Values {
        schema: Schema,
        rows: Vec<Row>,
    },
    Filter {
        input: Box<Plan>,
        predicate: Expr,
    },
    /// Projection; may contain at most one unnest item.
    Project {
        input: Box<Plan>,
        items: Vec<ProjItem>,
        schema: Schema,
    },
    /// Equi-join on positional keys with a selectable algorithm.
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        strategy: JoinStrategy,
    },
    /// Cross join with optional predicate (fallback for non-equi joins).
    NestedLoop {
        left: Box<Plan>,
        right: Box<Plan>,
        predicate: Option<Expr>,
    },
    Aggregate {
        input: Box<Plan>,
        group_by: Vec<Expr>,
        aggregates: Vec<Aggregate>,
        schema: Schema,
    },
    Sort {
        input: Box<Plan>,
        keys: Vec<SortKey>,
    },
    Limit {
        input: Box<Plan>,
        limit: usize,
    },
}

/// Everything execution needs: the table catalog and the stats sink.
pub struct ExecContext<'a> {
    pub tables: &'a HashMap<String, Table>,
    pub stats: &'a ExecStats,
}

impl<'a> ExecContext<'a> {
    pub fn table(&self, name: &str) -> Result<&'a Table> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| EngineError::TableNotFound(name.to_string()))
    }
}

impl Plan {
    /// Output schema of the plan (resolving base tables through `ctx`).
    pub fn output_schema(&self, ctx: &ExecContext) -> Result<Schema> {
        match self {
            Plan::SeqScan { table, .. } | Plan::IndexLookup { table, .. } => {
                Ok(Schema::clone(&ctx.table(table)?.schema))
            }
            Plan::Values { schema, .. } => Ok(schema.clone()),
            Plan::Filter { input, .. } => input.output_schema(ctx),
            Plan::Project { schema, .. } => Ok(schema.clone()),
            Plan::Join { left, right, .. } | Plan::NestedLoop { left, right, .. } => {
                Ok(left.output_schema(ctx)?.join(&right.output_schema(ctx)?))
            }
            Plan::Aggregate { schema, .. } => Ok(schema.clone()),
            Plan::Sort { input, .. } | Plan::Limit { input, .. } => input.output_schema(ctx),
        }
    }
}

/// Execute a plan to a materialized chunk.
pub fn execute(plan: &Plan, ctx: &ExecContext) -> Result<Chunk> {
    match plan {
        Plan::SeqScan { table, filter } => seq_scan(table, filter.as_ref(), ctx),
        Plan::IndexLookup {
            table,
            cols,
            keys,
            filter,
        } => index_lookup(table, cols, keys, filter.as_ref(), ctx),
        Plan::Values { schema, rows } => Ok(Chunk::new(schema.clone(), rows.clone())),
        Plan::Filter { input, predicate } => {
            let mut chunk = execute(input, ctx)?;
            let mut out = Vec::new();
            for row in chunk.rows.drain(..) {
                if predicate.eval_predicate(&row)? {
                    out.push(row);
                }
            }
            Ok(Chunk::new(chunk.schema, out))
        }
        Plan::Project {
            input,
            items,
            schema,
        } => project(input, items, schema, ctx),
        Plan::Join {
            left,
            right,
            left_keys,
            right_keys,
            strategy,
        } => join::execute_join(left, right, left_keys, right_keys, *strategy, ctx),
        Plan::NestedLoop {
            left,
            right,
            predicate,
        } => nested_loop(left, right, predicate.as_ref(), ctx),
        Plan::Aggregate {
            input,
            group_by,
            aggregates,
            schema,
        } => aggregate::execute_aggregate(input, group_by, aggregates, schema, ctx),
        Plan::Sort { input, keys } => sort(input, keys, ctx),
        Plan::Limit { input, limit } => {
            let mut chunk = execute(input, ctx)?;
            chunk.rows.truncate(*limit);
            Ok(chunk)
        }
    }
}

fn seq_scan(table: &str, filter: Option<&Expr>, ctx: &ExecContext) -> Result<Chunk> {
    let t = ctx.table(table)?;
    let n = t.len();
    ctx.stats.add_rows_scanned(n as u64);
    ctx.stats
        .add_seq_pages(cost::pages_for(n, t.avg_row_bytes()), cost::SEQ_PAGE_COST);
    let mut rows = Vec::new();
    match filter {
        None => rows.extend(t.rows().cloned()),
        Some(pred) => {
            for row in t.rows() {
                if pred.eval_predicate(row)? {
                    rows.push(row.clone());
                }
            }
        }
    }
    Ok(Chunk::new(Schema::clone(&t.schema), rows))
}

fn index_lookup(
    table: &str,
    cols: &[usize],
    keys: &[IndexKey],
    filter: Option<&Expr>,
    ctx: &ExecContext,
) -> Result<Chunk> {
    let t = ctx.table(table)?;
    let idx = t
        .index_on(cols)
        .ok_or_else(|| EngineError::IndexNotFound(format!("{table} on columns {cols:?}")))?;
    ctx.stats.add_index_lookups(keys.len() as u64);
    let clustered = t.is_clustered_on(cols);
    let io = cost::index_lookup_cost(keys.len() as u64, t.len(), t.avg_row_bytes(), clustered);
    // Charge the modeled cost as random pages (the cost fn already blends).
    ctx.stats
        .add_random_pages(io / cost::RANDOM_PAGE_COST, cost::RANDOM_PAGE_COST);
    let mut rows = Vec::new();
    for key in keys {
        for &slot in idx.lookup(key) {
            let row = t.row(slot);
            match filter {
                Some(pred) if !pred.eval_predicate(row)? => {}
                _ => rows.push(row.clone()),
            }
        }
    }
    Ok(Chunk::new(Schema::clone(&t.schema), rows))
}

fn project(input: &Plan, items: &[ProjItem], schema: &Schema, ctx: &ExecContext) -> Result<Chunk> {
    let chunk = execute(input, ctx)?;
    let unnest_count = items.iter().filter(|i| i.unnest).count();
    if unnest_count > 1 {
        return Err(EngineError::Plan(
            "at most one unnest(..) per SELECT list is supported".into(),
        ));
    }
    let mut out = Vec::with_capacity(chunk.rows.len());
    for row in &chunk.rows {
        if unnest_count == 0 {
            let mut r = Vec::with_capacity(items.len());
            for it in items {
                r.push(it.expr.eval(row)?);
            }
            out.push(r);
        } else {
            // Evaluate scalar items once, expand the unnest item.
            let scalar: Vec<Option<Value>> = items
                .iter()
                .map(|it| {
                    if it.unnest {
                        Ok(None)
                    } else {
                        it.expr.eval(row).map(Some)
                    }
                })
                .collect::<Result<_>>()?;
            let upos = items.iter().position(|i| i.unnest).unwrap();
            let arr_v = items[upos].expr.eval(row)?;
            if arr_v.is_null() {
                continue; // unnest(NULL) yields no rows, like PostgreSQL.
            }
            let arr = arr_v.as_int_array()?;
            for &elem in arr {
                let mut r = Vec::with_capacity(items.len());
                for (i, s) in scalar.iter().enumerate() {
                    match s {
                        Some(v) => r.push(v.clone()),
                        None => {
                            debug_assert_eq!(i, upos);
                            r.push(Value::Int(elem));
                        }
                    }
                }
                out.push(r);
            }
        }
    }
    Ok(Chunk::new(schema.clone(), out))
}

fn nested_loop(
    left: &Plan,
    right: &Plan,
    predicate: Option<&Expr>,
    ctx: &ExecContext,
) -> Result<Chunk> {
    let l = execute(left, ctx)?;
    let r = execute(right, ctx)?;
    let schema = l.schema.join(&r.schema);
    let mut out = Vec::new();
    for lr in &l.rows {
        for rr in &r.rows {
            let mut row = lr.clone();
            row.extend(rr.iter().cloned());
            match predicate {
                Some(p) if !p.eval_predicate(&row)? => {}
                _ => out.push(row),
            }
        }
    }
    ctx.stats.add_join_rows(out.len() as u64);
    Ok(Chunk::new(schema, out))
}

fn sort(input: &Plan, keys: &[SortKey], ctx: &ExecContext) -> Result<Chunk> {
    let mut chunk = execute(input, ctx)?;
    // Precompute key tuples to avoid re-evaluating expressions in the
    // comparator (and to surface evaluation errors eagerly).
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(chunk.rows.len());
    for row in chunk.rows.drain(..) {
        let mut k = Vec::with_capacity(keys.len());
        for sk in keys {
            k.push(sk.expr.eval(&row)?);
        }
        keyed.push((k, row));
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, sk) in keys.iter().enumerate() {
            let mut ord = ka[i].total_cmp(&kb[i]);
            if sk.desc {
                ord = ord.reverse();
            }
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    chunk.rows = keyed.into_iter().map(|(_, r)| r).collect();
    Ok(chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::schema::Column;
    use crate::types::DataType;

    fn ctx_with_table() -> (HashMap<String, Table>, ExecStats) {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("grp", DataType::Int),
            Column::new("arr", DataType::IntArray),
        ])
        .with_primary_key(&["id"])
        .unwrap();
        let mut t = Table::new("t", schema);
        for i in 0..6i64 {
            t.insert(vec![
                Value::Int(i),
                Value::Int(i % 2),
                Value::IntArray(vec![i, i + 1]),
            ])
            .unwrap();
        }
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), t);
        (tables, ExecStats::default())
    }

    #[test]
    fn seq_scan_counts_rows_and_pages() {
        let (tables, stats) = ctx_with_table();
        let ctx = ExecContext {
            tables: &tables,
            stats: &stats,
        };
        let plan = Plan::SeqScan {
            table: "t".into(),
            filter: None,
        };
        let chunk = execute(&plan, &ctx).unwrap();
        assert_eq!(chunk.rows.len(), 6);
        assert_eq!(stats.rows_scanned(), 6);
        assert!(stats.seq_pages() >= 1.0);
    }

    #[test]
    fn filtered_scan() {
        let (tables, stats) = ctx_with_table();
        let ctx = ExecContext {
            tables: &tables,
            stats: &stats,
        };
        let plan = Plan::SeqScan {
            table: "t".into(),
            filter: Some(Expr::bin(BinOp::Eq, Expr::col(1), Expr::lit(0))),
        };
        let chunk = execute(&plan, &ctx).unwrap();
        assert_eq!(chunk.rows.len(), 3);
    }

    #[test]
    fn index_lookup_uses_pk() {
        let (tables, stats) = ctx_with_table();
        let ctx = ExecContext {
            tables: &tables,
            stats: &stats,
        };
        let plan = Plan::IndexLookup {
            table: "t".into(),
            cols: vec![0],
            keys: vec![vec![Value::Int(3)], vec![Value::Int(5)]],
            filter: None,
        };
        let chunk = execute(&plan, &ctx).unwrap();
        assert_eq!(chunk.rows.len(), 2);
        assert_eq!(stats.index_lookups(), 2);
        assert_eq!(stats.rows_scanned(), 0);
    }

    #[test]
    fn unnest_expands_rows() {
        let (tables, stats) = ctx_with_table();
        let ctx = ExecContext {
            tables: &tables,
            stats: &stats,
        };
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("elem", DataType::Int),
        ]);
        let plan = Plan::Project {
            input: Box::new(Plan::SeqScan {
                table: "t".into(),
                filter: None,
            }),
            items: vec![
                ProjItem {
                    expr: Expr::col(0),
                    unnest: false,
                },
                ProjItem {
                    expr: Expr::col(2),
                    unnest: true,
                },
            ],
            schema,
        };
        let chunk = execute(&plan, &ctx).unwrap();
        // 6 rows × 2 elements each.
        assert_eq!(chunk.rows.len(), 12);
        assert_eq!(chunk.rows[0], vec![Value::Int(0), Value::Int(0)]);
        assert_eq!(chunk.rows[1], vec![Value::Int(0), Value::Int(1)]);
    }

    #[test]
    fn sort_and_limit() {
        let (tables, stats) = ctx_with_table();
        let ctx = ExecContext {
            tables: &tables,
            stats: &stats,
        };
        let plan = Plan::Limit {
            input: Box::new(Plan::Sort {
                input: Box::new(Plan::SeqScan {
                    table: "t".into(),
                    filter: None,
                }),
                keys: vec![SortKey {
                    expr: Expr::col(0),
                    desc: true,
                }],
            }),
            limit: 2,
        };
        let chunk = execute(&plan, &ctx).unwrap();
        assert_eq!(chunk.rows.len(), 2);
        assert_eq!(chunk.rows[0][0], Value::Int(5));
        assert_eq!(chunk.rows[1][0], Value::Int(4));
    }

    #[test]
    fn nested_loop_cross_product_with_predicate() {
        let (tables, stats) = ctx_with_table();
        let ctx = ExecContext {
            tables: &tables,
            stats: &stats,
        };
        let scan = Plan::SeqScan {
            table: "t".into(),
            filter: None,
        };
        // Self-join on id (columns 0 and 3 after concatenation).
        let plan = Plan::NestedLoop {
            left: Box::new(scan.clone()),
            right: Box::new(scan),
            predicate: Some(Expr::bin(BinOp::Eq, Expr::col(0), Expr::col(3))),
        };
        let chunk = execute(&plan, &ctx).unwrap();
        assert_eq!(chunk.rows.len(), 6);
        assert_eq!(chunk.schema.arity(), 6);
    }
}
