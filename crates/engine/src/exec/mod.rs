//! Physical query plans and their execution.
//!
//! The planner lowers SQL into a small tree of [`Plan`] nodes; execution is
//! bottom-up — each node consumes and produces a [`Chunk`] (schema + row
//! vector). A row is a `Cow<[Value]>`: a `&[Value]` slice of a table
//! chunk's cells (see [`crate::table`]) wherever no node had to change
//! it, a built `Row` where one did:
//! * `SeqScan` and `IndexLookup` borrow the rows they select;
//! * `Filter`, `Sort`, `Limit` and an identity `Project` (every item
//!   `Column(i)` in order, as `SELECT *` plans) pass those borrows on;
//! * `Aggregate` reads its input in place and builds one row per group;
//! * joins, any other projection and `unnest` build each row they emit.
//!
//! A borrowed row is copied only where a result leaves the executor:
//! [`Chunk::into_rows`], which the database front-end calls for a query's
//! result, `SELECT … INTO` and `INSERT … SELECT`, and the planner's reads of
//! a subquery's values. Scans and index lookups account rows and modeled
//! page I/O into [`crate::stats::ExecStats`], which is how the benchmark
//! harness observes the cost behaviour studied in Appendix D.1.

pub mod aggregate;
pub mod explain;
pub mod join;

use std::borrow::Cow;
use std::collections::HashMap;

use crate::cost;
use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::index::Probe;
use crate::schema::Schema;
use crate::stats::ExecStats;
use crate::table::Table;
use crate::types::{Row, Value};

pub use aggregate::{AggFunc, Aggregate};
pub use join::JoinStrategy;

/// An intermediate result. Each row is a slice of a table heap's chunk of
/// the [`ExecContext`], or owned by the chunk, when a node built it.
#[derive(Debug, Clone)]
pub struct Chunk<'a> {
    pub schema: Schema,
    pub rows: Vec<Cow<'a, [Value]>>,
}

impl<'a> Chunk<'a> {
    pub fn new(schema: Schema, rows: Vec<Cow<'a, [Value]>>) -> Chunk<'a> {
        Chunk { schema, rows }
    }

    /// A chunk of rows a node built.
    pub fn built(schema: Schema, rows: Vec<Row>) -> Chunk<'a> {
        Chunk::new(schema, rows.into_iter().map(Cow::Owned).collect())
    }

    /// The rows as owned values: a borrowed row is copied here, a built
    /// one is moved.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows.into_iter().map(Cow::into_owned).collect()
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
    /// `keys` holds the keys flattened, `cols.len()` values each, in
    /// ascending order; the matching rows come out in heap order.
    IndexLookup {
        table: String,
        cols: Vec<usize>,
        keys: Vec<Value>,
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

/// Execute a plan to a chunk whose rows borrow from `ctx`'s tables where
/// they can.
pub fn execute<'a>(plan: &Plan, ctx: &ExecContext<'a>) -> Result<Chunk<'a>> {
    match plan {
        Plan::SeqScan { table, filter } => seq_scan(table, filter.as_ref(), ctx),
        Plan::IndexLookup {
            table,
            cols,
            keys,
            filter,
        } => index_lookup(table, cols, keys, filter.as_ref(), ctx),
        Plan::Values { schema, rows } => Ok(Chunk::built(schema.clone(), rows.clone())),
        Plan::Filter { input, predicate } => {
            let chunk = execute(input, ctx)?;
            let mut out = Vec::new();
            for row in chunk.rows {
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

fn seq_scan<'a>(table: &str, filter: Option<&Expr>, ctx: &ExecContext<'a>) -> Result<Chunk<'a>> {
    let t = ctx.table(table)?;
    let n = t.len();
    ctx.stats.add_rows_scanned(n as u64);
    ctx.stats
        .add_seq_pages(cost::pages_for(n, t.avg_row_bytes()), cost::SEQ_PAGE_COST);
    let mut rows = Vec::new();
    match filter {
        None => {
            rows.reserve_exact(n);
            rows.extend(t.rows().map(Cow::Borrowed));
        }
        Some(pred) => {
            for row in t.rows() {
                if pred.eval_predicate(row)? {
                    rows.push(Cow::Borrowed(row));
                }
            }
        }
    }
    Ok(Chunk::new(Schema::clone(&t.schema), rows))
}

fn index_lookup<'a>(
    table: &str,
    cols: &[usize],
    keys: &[Value],
    filter: Option<&Expr>,
    ctx: &ExecContext<'a>,
) -> Result<Chunk<'a>> {
    let t = ctx.table(table)?;
    let idx = t
        .index_on(cols)
        .ok_or_else(|| EngineError::IndexNotFound(format!("{table} on columns {cols:?}")))?;
    let lookups = (keys.len() / cols.len()) as u64;
    ctx.stats.add_index_lookups(lookups);
    let clustered = t.is_clustered_on(cols);
    let io = cost::index_lookup_cost(lookups, t.len(), t.avg_row_bytes(), clustered);
    // Charge the modeled cost as random pages (the cost fn already blends).
    ctx.stats
        .add_random_pages(io / cost::RANDOM_PAGE_COST, cost::RANDOM_PAGE_COST);
    let mut rows = Vec::new();
    let mut emit = |slot: usize| -> Result<()> {
        let row = t.row(slot);
        if filter.map_or(Ok(true), |pred| pred.eval_predicate(row))? {
            rows.push(Cow::Borrowed(row));
        }
        Ok(())
    };
    if keys.len() == cols.len() {
        // One key: its slots are ascending already.
        idx.lookup(keys).iter().try_for_each(|&slot| emit(slot))?;
    } else {
        // Many keys (an `IN` set): one remembered probe walks the sorted
        // keys through the index the way `Table::resolve_int_keys` walks
        // an rlist, and the slots are emitted in heap order, so the rows
        // and their order are those of a scan filtered by the same set.
        let mut slots = Vec::new();
        let mut probe = Probe::default();
        for key in keys.chunks_exact(cols.len()) {
            slots.extend_from_slice(idx.lookup_near(&mut probe, key));
        }
        slots.sort_unstable();
        slots.dedup();
        slots.into_iter().try_for_each(emit)?;
    }
    Ok(Chunk::new(Schema::clone(&t.schema), rows))
}

fn project<'a>(
    input: &Plan,
    items: &[ProjItem],
    schema: &Schema,
    ctx: &ExecContext<'a>,
) -> Result<Chunk<'a>> {
    let chunk = execute(input, ctx)?;
    let unnest_count = items.iter().filter(|i| i.unnest).count();
    if unnest_count > 1 {
        return Err(EngineError::Plan(
            "at most one unnest(..) per SELECT list is supported".into(),
        ));
    }
    // Every input column in order: the input rows are the output rows.
    let identity = items.len() == chunk.schema.arity()
        && items
            .iter()
            .enumerate()
            .all(|(i, it)| !it.unnest && matches!(it.expr, Expr::Column(c) if c == i));
    if identity {
        return Ok(Chunk::new(schema.clone(), chunk.rows));
    }
    let mut out = Vec::with_capacity(chunk.rows.len());
    for row in &chunk.rows {
        if unnest_count == 0 {
            let mut r = Vec::with_capacity(items.len());
            for it in items {
                r.push(it.expr.eval(row)?);
            }
            out.push(Cow::Owned(r));
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
                out.push(Cow::Owned(r));
            }
        }
    }
    Ok(Chunk::new(schema.clone(), out))
}

fn nested_loop<'a>(
    left: &Plan,
    right: &Plan,
    predicate: Option<&Expr>,
    ctx: &ExecContext<'a>,
) -> Result<Chunk<'a>> {
    let l = execute(left, ctx)?;
    let r = execute(right, ctx)?;
    let schema = l.schema.join(&r.schema);
    let mut out = Vec::new();
    for lr in &l.rows {
        for rr in &r.rows {
            let row = join::concat(lr, rr);
            match predicate {
                Some(p) if !p.eval_predicate(&row)? => {}
                _ => out.push(Cow::Owned(row)),
            }
        }
    }
    ctx.stats.add_join_rows(out.len() as u64);
    Ok(Chunk::new(schema, out))
}

fn sort<'a>(input: &Plan, keys: &[SortKey], ctx: &ExecContext<'a>) -> Result<Chunk<'a>> {
    let mut chunk = execute(input, ctx)?;
    // Precompute key tuples to avoid re-evaluating expressions in the
    // comparator (and to surface evaluation errors eagerly).
    let mut keyed = Vec::with_capacity(chunk.rows.len());
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
            keys: vec![Value::Int(3), Value::Int(5)],
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
        assert_eq!(*chunk.rows[0], vec![Value::Int(0), Value::Int(0)]);
        assert_eq!(*chunk.rows[1], vec![Value::Int(0), Value::Int(1)]);
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
