//! Lowers parsed SQL into executable [`Plan`] trees.
//!
//! Responsibilities:
//! * name resolution across comma joins, explicit `JOIN ... ON` and derived
//!   tables, with qualified (`tmp.rid_tmp`) and unqualified references;
//! * predicate pushdown into base-table scans, including promotion of
//!   `col = literal` filters on indexed columns to index point lookups —
//!   this is what gives the split-by-rlist checkout its "primary key index
//!   on vid" access path (Section 3.2);
//! * promotion of a non-negated `col IN (set)` — a literal list or a
//!   materialized subquery — on a bare scan of a table with an index on
//!   exactly `col` to a many-key index lookup (`col = literal` wins when
//!   both apply). Its rows come out in heap order, so they are the rows,
//!   in the order, of the filtered scan it replaces; this is what lets a
//!   versioned query's semi-join on the version's rids read |Rv| rows of
//!   the data table instead of all of them;
//! * equi-join extraction and left-deep join-tree construction with the
//!   session-selected join algorithm;
//! * GROUP BY / HAVING aggregation and the single-`unnest` projection used
//!   by the split-by-rlist checkout;
//! * materialization of uncorrelated subqueries (`IN (SELECT ..)`,
//!   `ARRAY(SELECT ..)`, scalar subqueries) at plan time.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use crate::error::{EngineError, Result};
use crate::exec::{
    self, AggFunc, Aggregate, Chunk, ExecContext, JoinStrategy, Plan, ProjItem, SortKey,
};
use crate::expr::{BinOp, Expr, Func};
use crate::schema::{Column, Schema};
use crate::types::{DataType, Value};

use super::ast::{FromItem, OrderKey, SelectItem, SelectStmt, SqlExpr};

/// A fully planned query: plan tree plus output schema.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    pub plan: Plan,
    pub schema: Schema,
}

/// Plan and immediately execute a SELECT (used for subquery materialization
/// and by the database front-end). The result's rows still borrow from
/// `ctx`'s tables where the plan did not rebuild them.
pub fn run_select<'a>(
    stmt: &SelectStmt,
    ctx: &ExecContext<'a>,
    strategy: JoinStrategy,
) -> Result<Chunk<'a>> {
    let planned = plan_select(stmt, ctx, strategy)?;
    let mut chunk = exec::execute(&planned.plan, ctx)?;
    chunk.schema = planned.schema;
    Ok(chunk)
}

/// Lower an expression with no table context (INSERT ... VALUES).
pub fn lower_standalone_expr(
    e: &SqlExpr,
    ctx: &ExecContext,
    strategy: JoinStrategy,
) -> Result<Expr> {
    let scope = Scope::empty();
    lower_expr(e, &scope, &|i| i, ctx, strategy)
}

/// Lower an expression over a single named table (UPDATE/DELETE).
pub fn lower_table_expr(
    e: &SqlExpr,
    table: &str,
    schema: &Schema,
    ctx: &ExecContext,
    strategy: JoinStrategy,
) -> Result<Expr> {
    let scope = Scope::single(table, schema.clone());
    lower_expr(e, &scope, &|i| i, ctx, strategy)
}

// ---------------------------------------------------------------------------
// Scope: name resolution over the flattened FROM items.
// ---------------------------------------------------------------------------

struct ScopeItem {
    alias: String,
    schema: Schema,
    offset: usize,
}

struct Scope {
    items: Vec<ScopeItem>,
    width: usize,
}

impl Scope {
    fn empty() -> Scope {
        Scope {
            items: Vec::new(),
            width: 0,
        }
    }

    fn single(alias: &str, schema: Schema) -> Scope {
        let width = schema.arity();
        Scope {
            items: vec![ScopeItem {
                alias: alias.to_string(),
                schema,
                offset: 0,
            }],
            width,
        }
    }

    fn push(&mut self, alias: String, schema: Schema) {
        let offset = self.width;
        self.width += schema.arity();
        self.items.push(ScopeItem {
            alias,
            schema,
            offset,
        });
    }

    /// Resolve a column reference to an absolute position and its rel index.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<(usize, usize)> {
        let mut found: Option<(usize, usize)> = None;
        for (rel, item) in self.items.iter().enumerate() {
            if let Some(q) = qualifier {
                if !item.alias.eq_ignore_ascii_case(q) {
                    continue;
                }
            }
            if let Ok(ci) = item.schema.column_index(name) {
                if found.is_some() {
                    return Err(EngineError::AmbiguousColumn(name.to_string()));
                }
                found = Some((item.offset + ci, rel));
            }
        }
        found.ok_or_else(|| {
            EngineError::ColumnNotFound(match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            })
        })
    }

    /// The rel index owning absolute column `abs`.
    fn rel_of(&self, abs: usize) -> usize {
        for (rel, item) in self.items.iter().enumerate().rev() {
            if abs >= item.offset {
                return rel;
            }
        }
        0
    }
}

// ---------------------------------------------------------------------------
// Expression lowering.
// ---------------------------------------------------------------------------

fn lower_expr(
    e: &SqlExpr,
    scope: &Scope,
    map: &dyn Fn(usize) -> usize,
    ctx: &ExecContext,
    strategy: JoinStrategy,
) -> Result<Expr> {
    match e {
        SqlExpr::Literal(v) => Ok(Expr::Literal(v.clone())),
        SqlExpr::Column { qualifier, name } => {
            let (abs, _) = scope.resolve(qualifier.as_deref(), name)?;
            Ok(Expr::Column(map(abs)))
        }
        SqlExpr::BinOp { op, left, right } => Ok(Expr::BinOp {
            op: *op,
            left: Box::new(lower_expr(left, scope, map, ctx, strategy)?),
            right: Box::new(lower_expr(right, scope, map, ctx, strategy)?),
        }),
        SqlExpr::Not(inner) => Ok(Expr::Not(Box::new(lower_expr(
            inner, scope, map, ctx, strategy,
        )?))),
        SqlExpr::Neg(inner) => Ok(Expr::Neg(Box::new(lower_expr(
            inner, scope, map, ctx, strategy,
        )?))),
        SqlExpr::Func {
            name,
            args,
            distinct: _,
            star: _,
        } => {
            if let Some(func) = Func::parse(name) {
                let mut lowered = Vec::with_capacity(args.len());
                for a in args {
                    lowered.push(lower_expr(a, scope, map, ctx, strategy)?);
                }
                Ok(Expr::Func {
                    func,
                    args: lowered,
                })
            } else if AggFunc::parse(name).is_some() {
                Err(EngineError::Plan(format!(
                    "aggregate {name}(..) is not allowed in this context"
                )))
            } else {
                Err(EngineError::Plan(format!("unknown function {name}")))
            }
        }
        SqlExpr::ArrayLit(elems) => {
            let mut lowered = Vec::with_capacity(elems.len());
            for el in elems {
                lowered.push(lower_expr(el, scope, map, ctx, strategy)?);
            }
            Ok(Expr::ArrayLit(lowered))
        }
        SqlExpr::ArraySubquery(q) => {
            let chunk = run_select(q, ctx, strategy)?;
            if chunk.schema.arity() != 1 {
                return Err(EngineError::Plan(
                    "ARRAY(SELECT ..) requires a single output column".into(),
                ));
            }
            let mut arr = Vec::with_capacity(chunk.rows.len());
            for row in &chunk.rows {
                if !row[0].is_null() {
                    arr.push(row[0].as_int()?);
                }
            }
            Ok(Expr::Literal(Value::IntArray(arr)))
        }
        SqlExpr::InList {
            expr,
            list,
            negated,
        } => {
            let mut set = HashSet::with_capacity(list.len());
            for item in list {
                let lowered = lower_expr(item, scope, map, ctx, strategy)?;
                match lowered {
                    Expr::Literal(v) => {
                        set.insert(v);
                    }
                    _ => {
                        return Err(EngineError::Plan(
                            "IN list elements must be constants".into(),
                        ))
                    }
                }
            }
            Ok(Expr::InSet {
                expr: Box::new(lower_expr(expr, scope, map, ctx, strategy)?),
                set: Rc::new(set),
                negated: *negated,
            })
        }
        SqlExpr::InSubquery {
            expr,
            query,
            negated,
        } => {
            let chunk = run_select(query, ctx, strategy)?;
            if chunk.schema.arity() != 1 {
                return Err(EngineError::Plan(
                    "IN (SELECT ..) requires a single output column".into(),
                ));
            }
            let set: HashSet<Value> = chunk.rows.into_iter().map(only_value).collect();
            Ok(Expr::InSet {
                expr: Box::new(lower_expr(expr, scope, map, ctx, strategy)?),
                set: Rc::new(set),
                negated: *negated,
            })
        }
        SqlExpr::ScalarSubquery(q) => {
            let chunk = run_select(q, ctx, strategy)?;
            if chunk.schema.arity() != 1 {
                return Err(EngineError::Plan(
                    "scalar subquery requires a single output column".into(),
                ));
            }
            if chunk.rows.len() > 1 {
                return Err(EngineError::Eval(
                    "scalar subquery returned more than one row".into(),
                ));
            }
            let v = chunk
                .rows
                .into_iter()
                .next()
                .map(only_value)
                .unwrap_or(Value::Null);
            Ok(Expr::Literal(v))
        }
        SqlExpr::AnyEq { left, array } => Ok(Expr::BinOp {
            op: BinOp::AnyEq,
            left: Box::new(lower_expr(left, scope, map, ctx, strategy)?),
            right: Box::new(lower_expr(array, scope, map, ctx, strategy)?),
        }),
        SqlExpr::IsNull { expr, negated } => Ok(Expr::IsNull {
            expr: Box::new(lower_expr(expr, scope, map, ctx, strategy)?),
            negated: *negated,
        }),
    }
}

/// The value of a one-column row: moved out of a row the plan built,
/// copied out of one it borrowed.
fn only_value(row: Cow<[Value]>) -> Value {
    match row {
        Cow::Owned(mut row) => row.swap_remove(0),
        Cow::Borrowed(row) => row[0].clone(),
    }
}

/// Best-effort static type of a lowered expression.
fn infer_type(e: &Expr, input: &Schema) -> DataType {
    match e {
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Int),
        Expr::Column(i) => input
            .columns
            .get(*i)
            .map(|c| c.dtype)
            .unwrap_or(DataType::Int),
        Expr::BinOp { op, left, right } => match op {
            BinOp::Eq
            | BinOp::NotEq
            | BinOp::Lt
            | BinOp::LtEq
            | BinOp::Gt
            | BinOp::GtEq
            | BinOp::And
            | BinOp::Or
            | BinOp::ContainedBy
            | BinOp::Contains
            | BinOp::AnyEq => DataType::Bool,
            BinOp::Concat => {
                if infer_type(left, input) == DataType::IntArray {
                    DataType::IntArray
                } else {
                    DataType::Text
                }
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                let l = infer_type(left, input);
                let r = infer_type(right, input);
                if l == DataType::IntArray {
                    DataType::IntArray
                } else if l == DataType::Double || r == DataType::Double {
                    DataType::Double
                } else {
                    DataType::Int
                }
            }
        },
        Expr::Not(_) | Expr::IsNull { .. } | Expr::InSet { .. } => DataType::Bool,
        Expr::Neg(inner) => infer_type(inner, input),
        Expr::Func { func, args } => match func {
            Func::ArrayAppend | Func::ArrayCat => DataType::IntArray,
            Func::ArrayLength => DataType::Int,
            Func::ArrayContains => DataType::Bool,
            Func::Abs | Func::Coalesce | Func::Least | Func::Greatest => args
                .first()
                .map(|a| infer_type(a, input))
                .unwrap_or(DataType::Int),
        },
        Expr::ArrayLit(_) => DataType::IntArray,
    }
}

// ---------------------------------------------------------------------------
// SELECT planning.
// ---------------------------------------------------------------------------

/// Plan a SELECT statement (ignoring any INTO clause, which the database
/// front-end handles).
pub fn plan_select(
    stmt: &SelectStmt,
    ctx: &ExecContext,
    strategy: JoinStrategy,
) -> Result<PlannedQuery> {
    // 1. Flatten FROM into leaf relations plus join conjuncts.
    let mut rels: Vec<(Plan, String, Schema)> = Vec::new();
    let mut conjuncts: Vec<SqlExpr> = Vec::new();
    for item in &stmt.from {
        flatten_from(item, ctx, strategy, &mut rels, &mut conjuncts)?;
    }
    if let Some(w) = &stmt.filter {
        split_and(w, &mut conjuncts);
    }

    // Build the scope over all rels.
    let mut scope = Scope::empty();
    for (_, alias, schema) in &rels {
        scope.push(alias.clone(), schema.clone());
    }

    // 2. Classify conjuncts: single-rel (pushdown), equi-join, other.
    let mut pushdown: Vec<Vec<SqlExpr>> = vec![Vec::new(); rels.len()];
    let mut equi: Vec<(usize, usize)> = Vec::new(); // absolute column pairs
    let mut residual: Vec<SqlExpr> = Vec::new();
    for c in conjuncts {
        if let Some((a, b)) = as_equi_join(&c, &scope)? {
            equi.push((a, b));
            continue;
        }
        match referenced_rels(&c, &scope)? {
            rels_used if rels_used.len() == 1 => {
                pushdown[*rels_used.iter().next().unwrap()].push(c);
            }
            _ => residual.push(c),
        }
    }

    // 3. Push single-rel filters into scans; promote to index lookups.
    for (rel, filters) in pushdown.into_iter().enumerate() {
        if filters.is_empty() {
            continue;
        }
        let offset = scope.items[rel].offset;
        let local = |abs: usize| abs - offset;
        let mut lowered = Vec::with_capacity(filters.len());
        for f in &filters {
            lowered.push(lower_expr(f, &scope, &local, ctx, strategy)?);
        }
        let (plan, _, _) = &mut rels[rel];
        *plan = apply_filters_to_rel(plan.clone(), filters, lowered, &scope, rel, ctx)?;
    }

    // 4. Join tree.
    let (mut plan, plan_map) = build_join_tree(rels, &scope, equi, strategy)?;

    // 5. Residual filter above the joins.
    let map = |abs: usize| plan_map[abs];
    let residual: Vec<Expr> = residual
        .iter()
        .map(|c| lower_expr(c, &scope, &map, ctx, strategy))
        .collect::<Result<_>>()?;
    if let Some(predicate) = conjoin(residual) {
        plan = Plan::Filter {
            input: Box::new(plan),
            predicate,
        };
    }

    // Schema of the join output in plan order.
    let plan_input_schema = {
        let mut cols = vec![Column::new("?", DataType::Int); scope.width];
        for item in &scope.items {
            for (ci, col) in item.schema.columns.iter().enumerate() {
                cols[plan_map[item.offset + ci]] = col.clone();
            }
        }
        Schema::new(cols)
    };

    // 6. Aggregation or plain projection.
    let has_group_by = !stmt.group_by.is_empty();
    let has_aggs = stmt
        .items
        .iter()
        .any(|it| matches!(it, SelectItem::Expr { expr, .. } if contains_aggregate(expr)))
        || stmt
            .having
            .as_ref()
            .map(contains_aggregate)
            .unwrap_or(false);

    let (mut plan, mut out_schema) = if has_group_by || has_aggs {
        plan_aggregate(
            stmt,
            plan,
            &scope,
            &plan_map,
            &plan_input_schema,
            ctx,
            strategy,
        )?
    } else {
        plan_projection(
            stmt,
            plan,
            &scope,
            &plan_map,
            &plan_input_schema,
            ctx,
            strategy,
        )?
    };

    // 7. ORDER BY over the projected output, falling back to sorting the
    // pre-projection input for keys that only exist there (e.g.
    // `SELECT score FROM t ORDER BY name`).
    if !stmt.order_by.is_empty() {
        let keys = resolve_order_keys(
            &stmt.order_by,
            &out_schema,
            &scope,
            &plan_map,
            ctx,
            strategy,
        )?;
        match keys {
            OrderKeys::OverOutput(keys) => {
                plan = Plan::Sort {
                    input: Box::new(plan),
                    keys,
                };
            }
            OrderKeys::Unresolvable(name) => {
                if has_group_by || has_aggs {
                    return Err(EngineError::ColumnNotFound(format!(
                        "ORDER BY column {name}"
                    )));
                }
                // Sort below the projection, over the join output.
                let map = |abs: usize| plan_map[abs];
                let mut keys = Vec::with_capacity(stmt.order_by.len());
                for k in &stmt.order_by {
                    keys.push(SortKey {
                        expr: lower_expr(&k.expr, &scope, &map, ctx, strategy)?,
                        desc: k.desc,
                    });
                }
                plan = match plan {
                    Plan::Project {
                        input,
                        items,
                        schema,
                    } => Plan::Project {
                        input: Box::new(Plan::Sort { input, keys }),
                        items,
                        schema,
                    },
                    other => Plan::Sort {
                        input: Box::new(other),
                        keys,
                    },
                };
            }
        }
    }

    if let Some(limit) = stmt.limit {
        plan = Plan::Limit {
            input: Box::new(plan),
            limit: limit as usize,
        };
    }

    // Deduplicate output column names is unnecessary; SQL allows duplicates.
    out_schema.primary_key.clear();
    Ok(PlannedQuery {
        plan,
        schema: out_schema,
    })
}

fn flatten_from(
    item: &FromItem,
    ctx: &ExecContext,
    strategy: JoinStrategy,
    rels: &mut Vec<(Plan, String, Schema)>,
    conjuncts: &mut Vec<SqlExpr>,
) -> Result<()> {
    match item {
        FromItem::Table { name, alias } => {
            let t = ctx.table(name)?;
            let binding = alias.clone().unwrap_or_else(|| name.clone());
            rels.push((
                Plan::SeqScan {
                    table: name.to_ascii_lowercase(),
                    filter: None,
                },
                binding,
                Schema::clone(&t.schema),
            ));
            Ok(())
        }
        FromItem::Subquery { query, alias } => {
            let planned = plan_select(query, ctx, strategy)?;
            rels.push((planned.plan, alias.clone(), planned.schema));
            Ok(())
        }
        FromItem::Join { left, right, on } => {
            flatten_from(left, ctx, strategy, rels, conjuncts)?;
            flatten_from(right, ctx, strategy, rels, conjuncts)?;
            split_and(on, conjuncts);
            Ok(())
        }
    }
}

fn split_and(e: &SqlExpr, out: &mut Vec<SqlExpr>) {
    if let SqlExpr::BinOp {
        op: BinOp::And,
        left,
        right,
    } = e
    {
        split_and(left, out);
        split_and(right, out);
    } else {
        out.push(e.clone());
    }
}

/// If the conjunct is `colA = colB` across two different rels, return the
/// absolute positions (left, right).
fn as_equi_join(e: &SqlExpr, scope: &Scope) -> Result<Option<(usize, usize)>> {
    if let SqlExpr::BinOp {
        op: BinOp::Eq,
        left,
        right,
    } = e
    {
        if let (
            SqlExpr::Column {
                qualifier: ql,
                name: nl,
            },
            SqlExpr::Column {
                qualifier: qr,
                name: nr,
            },
        ) = (left.as_ref(), right.as_ref())
        {
            let l = scope.resolve(ql.as_deref(), nl);
            let r = scope.resolve(qr.as_deref(), nr);
            if let (Ok((la, lrel)), Ok((ra, rrel))) = (l, r) {
                if lrel != rrel {
                    return Ok(Some((la, ra)));
                }
            }
        }
    }
    Ok(None)
}

/// Rel indices referenced by the expression (subqueries excluded — only
/// uncorrelated subqueries are supported).
fn referenced_rels(e: &SqlExpr, scope: &Scope) -> Result<HashSet<usize>> {
    let mut out = HashSet::new();
    collect_rels(e, scope, &mut out)?;
    Ok(out)
}

fn collect_rels(e: &SqlExpr, scope: &Scope, out: &mut HashSet<usize>) -> Result<()> {
    match e {
        SqlExpr::Literal(_) | SqlExpr::ArraySubquery(_) | SqlExpr::ScalarSubquery(_) => Ok(()),
        SqlExpr::Column { qualifier, name } => {
            let (abs, _) = scope.resolve(qualifier.as_deref(), name)?;
            out.insert(scope.rel_of(abs));
            Ok(())
        }
        SqlExpr::BinOp { left, right, .. } => {
            collect_rels(left, scope, out)?;
            collect_rels(right, scope, out)
        }
        SqlExpr::Not(i) | SqlExpr::Neg(i) => collect_rels(i, scope, out),
        SqlExpr::Func { args, .. } => {
            for a in args {
                collect_rels(a, scope, out)?;
            }
            Ok(())
        }
        SqlExpr::ArrayLit(es) => {
            for a in es {
                collect_rels(a, scope, out)?;
            }
            Ok(())
        }
        SqlExpr::InList { expr, list, .. } => {
            collect_rels(expr, scope, out)?;
            for a in list {
                collect_rels(a, scope, out)?;
            }
            Ok(())
        }
        SqlExpr::InSubquery { expr, .. } => collect_rels(expr, scope, out),
        SqlExpr::AnyEq { left, array } => {
            collect_rels(left, scope, out)?;
            collect_rels(array, scope, out)
        }
        SqlExpr::IsNull { expr, .. } => collect_rels(expr, scope, out),
    }
}

/// `e1 AND e2 AND …`, or `None` for no conjuncts.
fn conjoin(exprs: impl IntoIterator<Item = Expr>) -> Option<Expr> {
    exprs
        .into_iter()
        .reduce(|all, e| Expr::bin(BinOp::And, all, e))
}

/// Apply pushed-down filters to a leaf relation, promoting equality-on-
/// indexed-columns, or else `col IN (set)` on a column with an index of
/// its own, to an index lookup when possible.
fn apply_filters_to_rel(
    plan: Plan,
    ast_filters: Vec<SqlExpr>,
    mut lowered: Vec<Expr>,
    scope: &Scope,
    rel: usize,
    ctx: &ExecContext,
) -> Result<Plan> {
    // Index promotion only applies to bare table scans.
    if let Plan::SeqScan {
        table,
        filter: None,
    } = &plan
    {
        let t = ctx.table(table)?;
        let offset = scope.items[rel].offset;
        // Gather `col = literal` equalities (local column -> value).
        let mut eq_cols: HashMap<usize, Value> = HashMap::new();
        let mut eq_filter_idx: HashMap<usize, usize> = HashMap::new();
        for (i, f) in ast_filters.iter().enumerate() {
            if let SqlExpr::BinOp {
                op: BinOp::Eq,
                left,
                right,
            } = f
            {
                let (col, lit) = match (left.as_ref(), right.as_ref()) {
                    (SqlExpr::Column { qualifier, name }, SqlExpr::Literal(v)) => {
                        (scope.resolve(qualifier.as_deref(), name).ok(), v)
                    }
                    (SqlExpr::Literal(v), SqlExpr::Column { qualifier, name }) => {
                        (scope.resolve(qualifier.as_deref(), name).ok(), v)
                    }
                    _ => continue,
                };
                if let Some((abs, r)) = col {
                    if r == rel {
                        let local = abs - offset;
                        eq_cols.insert(local, lit.clone());
                        eq_filter_idx.insert(local, i);
                    }
                }
            }
        }
        // Find the index covering the most equality columns completely (an
        // index on no columns, which only a snapshot can carry, covers none).
        let mut best: Option<&crate::index::Index> = None;
        for idx in t.indexes() {
            if !idx.columns.is_empty()
                && idx.columns.iter().all(|c| eq_cols.contains_key(c))
                && best
                    .map(|b| idx.columns.len() > b.columns.len())
                    .unwrap_or(true)
            {
                best = Some(idx);
            }
        }
        if let Some(idx) = best {
            let keys: Vec<Value> = idx.columns.iter().map(|c| eq_cols[c].clone()).collect();
            let used: HashSet<usize> = idx.columns.iter().map(|c| eq_filter_idx[c]).collect();
            let residual = lowered
                .into_iter()
                .enumerate()
                .filter(|(i, _)| !used.contains(i))
                .map(|(_, e)| e);
            return Ok(Plan::IndexLookup {
                table: table.clone(),
                cols: idx.columns.clone(),
                keys,
                filter: conjoin(residual),
            });
        }
        // `col IN (set)` — a list or a materialized subquery — on a column
        // with an index on exactly it: the set's elements, sorted, are the
        // lookup keys, less NULL, which matches nothing. The executor emits
        // the rows in heap order, so this is the scan it replaces, row for
        // row, at the cost of |set| probes instead of |table| rows.
        let in_set = lowered.iter().enumerate().find_map(|(i, e)| match e {
            Expr::InSet {
                expr,
                set,
                negated: false,
            } => match **expr {
                Expr::Column(col) if t.index_on(&[col]).is_some() => Some((i, col, set)),
                _ => None,
            },
            _ => None,
        });
        if let Some((i, col, set)) = in_set {
            let mut keys: Vec<Value> = set.iter().filter(|v| !v.is_null()).cloned().collect();
            keys.sort_unstable();
            lowered.remove(i);
            return Ok(Plan::IndexLookup {
                table: table.clone(),
                cols: vec![col],
                keys,
                filter: conjoin(lowered),
            });
        }
        // No index: fold everything into the scan's filter.
        return Ok(Plan::SeqScan {
            table: table.clone(),
            filter: conjoin(lowered),
        });
    }
    // Derived table or already-filtered scan: wrap in a Filter node.
    Ok(Plan::Filter {
        input: Box::new(plan),
        predicate: conjoin(lowered).expect("filters nonempty"),
    })
}

/// Build a left-deep join tree; returns the plan and a map from scope
/// absolute column positions to plan output positions.
fn build_join_tree(
    rels: Vec<(Plan, String, Schema)>,
    scope: &Scope,
    mut equi: Vec<(usize, usize)>,
    strategy: JoinStrategy,
) -> Result<(Plan, Vec<usize>)> {
    if rels.is_empty() {
        // SELECT without FROM: a single empty row.
        return Ok((
            Plan::Values {
                schema: Schema::new(vec![]),
                rows: vec![vec![]],
            },
            Vec::new(),
        ));
    }

    let n = rels.len();
    let arities: Vec<usize> = rels.iter().map(|(_, _, s)| s.arity()).collect();
    let mut plans: Vec<Option<Plan>> = rels.into_iter().map(|(p, _, _)| Some(p)).collect();

    // plan_offsets[rel] = offset of rel's columns in the current plan output.
    let mut plan_offsets: HashMap<usize, usize> = HashMap::new();
    let mut joined: HashSet<usize> = HashSet::new();
    let mut plan = plans[0].take().expect("rel 0 present");
    plan_offsets.insert(0, 0);
    joined.insert(0);
    let mut width = arities[0];

    while joined.len() < n {
        // Find an unjoined rel connected by at least one equi conjunct.
        let mut target: Option<usize> = None;
        for &(a, b) in &equi {
            let (ra, rb) = (scope.rel_of(a), scope.rel_of(b));
            if joined.contains(&ra) && !joined.contains(&rb) {
                target = Some(rb);
                break;
            }
            if joined.contains(&rb) && !joined.contains(&ra) {
                target = Some(ra);
                break;
            }
        }
        match target {
            Some(rel) => {
                // Collect every equi conjunct connecting `joined` to `rel`.
                let mut left_keys = Vec::new();
                let mut right_keys = Vec::new();
                let rel_scope_offset = scope.items[rel].offset;
                equi.retain(|&(a, b)| {
                    let (ra, rb) = (scope.rel_of(a), scope.rel_of(b));
                    let (joined_abs, new_abs) = if joined.contains(&ra) && rb == rel {
                        (a, b)
                    } else if joined.contains(&rb) && ra == rel {
                        (b, a)
                    } else {
                        return true;
                    };
                    let joined_rel = scope.rel_of(joined_abs);
                    let joined_pos =
                        plan_offsets[&joined_rel] + (joined_abs - scope.items[joined_rel].offset);
                    left_keys.push(joined_pos);
                    right_keys.push(new_abs - rel_scope_offset);
                    false
                });
                plan = Plan::Join {
                    left: Box::new(plan),
                    right: Box::new(plans[rel].take().expect("rel not yet joined")),
                    left_keys,
                    right_keys,
                    strategy,
                };
                plan_offsets.insert(rel, width);
                width += arities[rel];
                joined.insert(rel);
            }
            None => {
                // Cross join with the next unjoined rel.
                let rel = (0..n).find(|r| !joined.contains(r)).expect("rel remains");
                plan = Plan::NestedLoop {
                    left: Box::new(plan),
                    right: Box::new(plans[rel].take().expect("rel not yet joined")),
                    predicate: None,
                };
                plan_offsets.insert(rel, width);
                width += arities[rel];
                joined.insert(rel);
            }
        }
    }

    // Equi conjuncts between two already-joined rels (cycles) become a
    // residual filter here.
    let cycles = equi.into_iter().map(|(a, b)| {
        let (ra, rb) = (scope.rel_of(a), scope.rel_of(b));
        let pa = plan_offsets[&ra] + (a - scope.items[ra].offset);
        let pb = plan_offsets[&rb] + (b - scope.items[rb].offset);
        Expr::bin(BinOp::Eq, Expr::col(pa), Expr::col(pb))
    });
    if let Some(predicate) = conjoin(cycles) {
        plan = Plan::Filter {
            input: Box::new(plan),
            predicate,
        };
    }

    let mut map = vec![0usize; scope.width];
    for (rel, item) in scope.items.iter().enumerate() {
        for ci in 0..item.schema.arity() {
            map[item.offset + ci] = plan_offsets[&rel] + ci;
        }
    }
    Ok((plan, map))
}

// ---------------------------------------------------------------------------
// Projection and aggregation.
// ---------------------------------------------------------------------------

fn contains_aggregate(e: &SqlExpr) -> bool {
    match e {
        SqlExpr::Func { name, .. } => {
            // `count`, `sum` ... but unnest and scalar functions are not
            // aggregates. Scalar functions shadow nothing in AggFunc.
            AggFunc::parse(name).is_some() && Func::parse(name).is_none()
        }
        SqlExpr::BinOp { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        SqlExpr::Not(i) | SqlExpr::Neg(i) => contains_aggregate(i),
        SqlExpr::ArrayLit(es) => es.iter().any(contains_aggregate),
        SqlExpr::InList { expr, .. }
        | SqlExpr::InSubquery { expr, .. }
        | SqlExpr::IsNull { expr, .. } => contains_aggregate(expr),
        SqlExpr::AnyEq { left, array } => contains_aggregate(left) || contains_aggregate(array),
        _ => false,
    }
}

fn output_name(item: &SelectItem, idx: usize) -> String {
    match item {
        SelectItem::Expr { alias: Some(a), .. } => a.clone(),
        SelectItem::Expr {
            expr: SqlExpr::Column { name, .. },
            ..
        } => name.clone(),
        SelectItem::Expr {
            expr: SqlExpr::Func { name, .. },
            ..
        } => name.to_ascii_lowercase(),
        _ => format!("column{idx}"),
    }
}

fn plan_projection(
    stmt: &SelectStmt,
    input: Plan,
    scope: &Scope,
    plan_map: &[usize],
    input_schema: &Schema,
    ctx: &ExecContext,
    strategy: JoinStrategy,
) -> Result<(Plan, Schema)> {
    let map = |abs: usize| plan_map[abs];
    let mut items: Vec<ProjItem> = Vec::new();
    let mut cols: Vec<Column> = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                if scope.items.is_empty() {
                    return Err(EngineError::Plan("SELECT * requires a FROM clause".into()));
                }
                for si in &scope.items {
                    for (ci, col) in si.schema.columns.iter().enumerate() {
                        items.push(ProjItem {
                            expr: Expr::col(map(si.offset + ci)),
                            unnest: false,
                        });
                        cols.push(col.clone());
                    }
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let si = scope
                    .items
                    .iter()
                    .find(|s| s.alias.eq_ignore_ascii_case(q))
                    .ok_or_else(|| EngineError::TableNotFound(q.clone()))?;
                for (ci, col) in si.schema.columns.iter().enumerate() {
                    items.push(ProjItem {
                        expr: Expr::col(map(si.offset + ci)),
                        unnest: false,
                    });
                    cols.push(col.clone());
                }
            }
            SelectItem::Expr { expr, alias: _ } => {
                // unnest(..) is a set-returning projection item.
                if let SqlExpr::Func { name, args, .. } = expr {
                    if name.eq_ignore_ascii_case("unnest") {
                        if args.len() != 1 {
                            return Err(EngineError::Arity("unnest takes one argument".into()));
                        }
                        let lowered = lower_expr(&args[0], scope, &map, ctx, strategy)?;
                        items.push(ProjItem {
                            expr: lowered,
                            unnest: true,
                        });
                        cols.push(Column::new(output_name(item, i), DataType::Int));
                        continue;
                    }
                }
                let lowered = lower_expr(expr, scope, &map, ctx, strategy)?;
                let dtype = infer_type(&lowered, input_schema);
                cols.push(Column::new(output_name(item, i), dtype));
                items.push(ProjItem {
                    expr: lowered,
                    unnest: false,
                });
            }
        }
    }
    let schema = Schema::new(cols);
    Ok((
        Plan::Project {
            input: Box::new(input),
            items,
            schema: schema.clone(),
        },
        schema,
    ))
}

fn plan_aggregate(
    stmt: &SelectStmt,
    input: Plan,
    scope: &Scope,
    plan_map: &[usize],
    input_schema: &Schema,
    ctx: &ExecContext,
    strategy: JoinStrategy,
) -> Result<(Plan, Schema)> {
    let map = |abs: usize| plan_map[abs];

    // Lower the GROUP BY expressions over the join output.
    let mut group_exprs: Vec<Expr> = Vec::new();
    for g in &stmt.group_by {
        group_exprs.push(lower_expr(g, scope, &map, ctx, strategy)?);
    }

    // Collect aggregates from SELECT items and HAVING; build post-agg exprs.
    let mut aggs: Vec<Aggregate> = Vec::new();
    let mut post_items: Vec<(Expr, String, DataType)> = Vec::new();

    struct AggLower<'x> {
        stmt_group_by: &'x [SqlExpr],
        scope: &'x Scope,
        plan_map: &'x [usize],
        ctx: &'x ExecContext<'x>,
        strategy: JoinStrategy,
    }

    impl<'x> AggLower<'x> {
        fn lower(&self, e: &SqlExpr, aggs: &mut Vec<Aggregate>) -> Result<Expr> {
            // A select expression matching a GROUP BY expression verbatim
            // refers to the corresponding group-key output column.
            if let Some(pos) = self.stmt_group_by.iter().position(|g| g == e) {
                return Ok(Expr::col(pos));
            }
            if let SqlExpr::Func {
                name,
                args,
                distinct,
                star,
            } = e
            {
                if let Some(mut func) = AggFunc::parse(name) {
                    if Func::parse(name).is_none() {
                        let arg = if *star {
                            func = AggFunc::CountStar;
                            None
                        } else {
                            if args.len() != 1 {
                                return Err(EngineError::Arity(format!(
                                    "aggregate {name} takes one argument"
                                )));
                            }
                            let m = |abs: usize| self.plan_map[abs];
                            Some(lower_expr(
                                &args[0],
                                self.scope,
                                &m,
                                self.ctx,
                                self.strategy,
                            )?)
                        };
                        aggs.push(Aggregate {
                            func,
                            arg,
                            distinct: *distinct,
                        });
                        return Ok(Expr::col(self.stmt_group_by.len() + aggs.len() - 1));
                    }
                }
            }
            // Recurse structurally over non-aggregate operators.
            match e {
                SqlExpr::Literal(v) => Ok(Expr::Literal(v.clone())),
                SqlExpr::Column { qualifier, name } => Err(EngineError::Plan(format!(
                    "column {}{name} must appear in GROUP BY or inside an aggregate",
                    qualifier
                        .as_ref()
                        .map(|q| format!("{q}."))
                        .unwrap_or_default()
                ))),
                SqlExpr::BinOp { op, left, right } => Ok(Expr::BinOp {
                    op: *op,
                    left: Box::new(self.lower(left, aggs)?),
                    right: Box::new(self.lower(right, aggs)?),
                }),
                SqlExpr::Not(i) => Ok(Expr::Not(Box::new(self.lower(i, aggs)?))),
                SqlExpr::Neg(i) => Ok(Expr::Neg(Box::new(self.lower(i, aggs)?))),
                SqlExpr::Func { name, args, .. } => {
                    let func = Func::parse(name).ok_or_else(|| {
                        EngineError::Plan(format!("unknown function {name} in aggregate query"))
                    })?;
                    let mut lowered = Vec::new();
                    for a in args {
                        lowered.push(self.lower(a, aggs)?);
                    }
                    Ok(Expr::Func {
                        func,
                        args: lowered,
                    })
                }
                other => {
                    if contains_aggregate(other) {
                        return Err(EngineError::Plan(
                            "unsupported aggregate expression shape".into(),
                        ));
                    }
                    Err(EngineError::Plan(
                        "non-grouped expression in aggregate query".into(),
                    ))
                }
            }
        }
    }

    let lowerer = AggLower {
        stmt_group_by: &stmt.group_by,
        scope,
        plan_map,
        ctx,
        strategy,
    };

    for (i, item) in stmt.items.iter().enumerate() {
        match item {
            SelectItem::Expr { expr, .. } => {
                let lowered = lowerer.lower(expr, &mut aggs)?;
                let name = output_name(item, i);
                post_items.push((lowered, name, DataType::Int));
            }
            _ => {
                return Err(EngineError::Plan(
                    "SELECT * cannot be combined with GROUP BY/aggregates".into(),
                ))
            }
        }
    }
    let having = match &stmt.having {
        Some(h) => Some(lowerer.lower(h, &mut aggs)?),
        None => None,
    };

    // Schema of the aggregate node output: group keys then aggregates.
    let mut agg_cols: Vec<Column> = Vec::new();
    for (i, g) in group_exprs.iter().enumerate() {
        let name = match &stmt.group_by[i] {
            SqlExpr::Column { name, .. } => name.clone(),
            _ => format!("group{i}"),
        };
        agg_cols.push(Column::new(name, infer_type(g, input_schema)));
    }
    for (i, a) in aggs.iter().enumerate() {
        let dtype = match a.func {
            AggFunc::CountStar | AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Double,
            AggFunc::ArrayAgg => DataType::IntArray,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => a
                .arg
                .as_ref()
                .map(|e| infer_type(e, input_schema))
                .unwrap_or(DataType::Int),
        };
        agg_cols.push(Column::new(format!("agg{i}"), dtype));
    }
    let agg_schema = Schema::new(agg_cols);

    let mut plan = Plan::Aggregate {
        input: Box::new(input),
        group_by: group_exprs,
        aggregates: aggs,
        schema: agg_schema.clone(),
    };
    if let Some(h) = having {
        plan = Plan::Filter {
            input: Box::new(plan),
            predicate: h,
        };
    }

    // Final projection to the SELECT item order.
    let mut items = Vec::with_capacity(post_items.len());
    let mut cols = Vec::with_capacity(post_items.len());
    for (expr, name, _) in post_items {
        let dtype = infer_type(&expr, &agg_schema);
        cols.push(Column::new(name, dtype));
        items.push(ProjItem {
            expr,
            unnest: false,
        });
    }
    let out_schema = Schema::new(cols);
    Ok((
        Plan::Project {
            input: Box::new(plan),
            items,
            schema: out_schema.clone(),
        },
        out_schema,
    ))
}

enum OrderKeys {
    OverOutput(Vec<SortKey>),
    Unresolvable(String),
}

fn resolve_order_keys(
    order_by: &[OrderKey],
    out_schema: &Schema,
    _scope: &Scope,
    _plan_map: &[usize],
    _ctx: &ExecContext,
    _strategy: JoinStrategy,
) -> Result<OrderKeys> {
    let mut keys = Vec::with_capacity(order_by.len());
    for k in order_by {
        let expr = match &k.expr {
            SqlExpr::Column {
                qualifier: None,
                name,
            } => match out_schema.column_index(name) {
                Ok(i) => Expr::col(i),
                Err(_) => return Ok(OrderKeys::Unresolvable(name.clone())),
            },
            SqlExpr::Literal(Value::Int(n)) => {
                let idx = *n as usize;
                if idx == 0 || idx > out_schema.arity() {
                    return Err(EngineError::Plan(format!(
                        "ORDER BY position {n} out of range"
                    )));
                }
                Expr::col(idx - 1)
            }
            other => return Ok(OrderKeys::Unresolvable(other.to_string())),
        };
        keys.push(SortKey { expr, desc: k.desc });
    }
    Ok(OrderKeys::OverOutput(keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse_statement;
    use crate::sql::Statement;
    use crate::stats::ExecStats;
    use crate::table::Table;
    use std::collections::HashMap as Map;

    fn setup() -> Map<String, Table> {
        let mut tables = Map::new();
        let data_schema = Schema::new(vec![
            Column::new("rid", DataType::Int),
            Column::new("name", DataType::Text),
            Column::new("score", DataType::Int),
        ])
        .with_primary_key(&["rid"])
        .unwrap();
        let mut data = Table::new("datatable", data_schema);
        for i in 0..20i64 {
            data.insert(vec![
                Value::Int(i),
                Value::Text(format!("n{}", i % 4)),
                Value::Int(i * 10),
            ])
            .unwrap();
        }
        tables.insert("datatable".into(), data);

        let v_schema = Schema::new(vec![
            Column::new("vid", DataType::Int),
            Column::new("rlist", DataType::IntArray),
        ])
        .with_primary_key(&["vid"])
        .unwrap();
        let mut vt = Table::new("versioningtable", v_schema);
        vt.insert(vec![Value::Int(1), Value::IntArray(vec![0, 1, 2])])
            .unwrap();
        vt.insert(vec![Value::Int(2), Value::IntArray(vec![1, 2, 3, 4])])
            .unwrap();
        tables.insert("versioningtable".into(), vt);
        tables
    }

    /// Run `sql`: its result, owned, and the counters it accrued.
    fn select(sql: &str, tables: &Map<String, Table>) -> (Chunk<'static>, ExecStats) {
        let stats = ExecStats::default();
        let chunk = {
            let ctx = ExecContext {
                tables,
                stats: &stats,
            };
            let stmt = match parse_statement(sql).unwrap() {
                Statement::Select(s) => s,
                other => panic!("not a select: {other:?}"),
            };
            let chunk = run_select(&stmt, &ctx, JoinStrategy::Auto).unwrap();
            Chunk::built(chunk.schema.clone(), chunk.into_rows())
        };
        (chunk, stats)
    }

    #[test]
    fn plans_split_by_rlist_checkout_with_index_path() {
        let tables = setup();
        let sql = "SELECT * FROM dataTable, \
                   (SELECT unnest(rlist) AS rid_tmp FROM versioningTable WHERE vid = 2) AS tmp \
                   WHERE rid = rid_tmp";
        let (chunk, stats) = select(sql, &tables);
        assert_eq!(chunk.rows.len(), 4);
        // The versioning-table access must be an index lookup on vid, not a
        // scan of the versioning table (only the data table is scanned).
        assert_eq!(stats.index_lookups(), 1);
        assert_eq!(stats.rows_scanned(), 20);
        // Output columns: dataTable.* then tmp.rid_tmp.
        assert_eq!(
            chunk.schema.column_names(),
            vec!["rid", "name", "score", "rid_tmp"]
        );
    }

    #[test]
    fn wildcard_and_qualified_wildcard() {
        let tables = setup();
        let (chunk, _) = select("SELECT d.* FROM dataTable AS d WHERE d.rid < 3", &tables);
        assert_eq!(chunk.rows.len(), 3);
        assert_eq!(chunk.schema.arity(), 3);
    }

    #[test]
    fn group_by_having_order_limit() {
        let tables = setup();
        let (chunk, _) = select(
            "SELECT name, count(*) AS n, sum(score) AS total FROM dataTable \
             GROUP BY name HAVING count(*) > 1 ORDER BY total DESC LIMIT 2",
            &tables,
        );
        assert_eq!(chunk.rows.len(), 2);
        // name n3 has rids 3,7,11,15,19 → total 550.
        assert_eq!(chunk.rows[0][0], Value::Text("n3".into()));
        assert_eq!(chunk.rows[0][1], Value::Int(5));
        assert_eq!(chunk.rows[0][2], Value::Int(550));
    }

    #[test]
    fn in_subquery_materializes() {
        let tables = setup();
        let (chunk, _) = select(
            "SELECT rid FROM dataTable WHERE rid IN (SELECT unnest(rlist) FROM versioningTable WHERE vid = 1)",
            &tables,
        );
        assert_eq!(chunk.rows.len(), 3);
    }

    #[test]
    fn scalar_subquery_and_no_from() {
        let tables = setup();
        let (chunk, _) = select("SELECT 1 + 2 AS three", &tables);
        assert_eq!(chunk.into_rows(), vec![vec![Value::Int(3)]]);
        let (chunk, _) = select("SELECT (SELECT max(rid) FROM dataTable) AS m", &tables);
        assert_eq!(chunk.into_rows(), vec![vec![Value::Int(19)]]);
    }

    #[test]
    fn explicit_join_syntax_with_non_equi_on() {
        let tables = setup();
        // The ON condition is not a column-column equality, so it becomes a
        // residual filter over a cross join.
        let (chunk, _) = select(
            "SELECT v.vid, d.name FROM versioningTable v JOIN dataTable d ON d.rid = array_length(v.rlist) WHERE v.vid = 1",
            &tables,
        );
        // array_length(rlist of v1) = 3 → matches rid=3 ("n3").
        assert_eq!(chunk.rows.len(), 1);
        assert_eq!(chunk.rows[0][1], Value::Text("n3".into()));
    }

    #[test]
    fn explicit_equi_join() {
        let tables = setup();
        let (chunk, stats) = select(
            "SELECT d.rid, d.score FROM dataTable d JOIN dataTable d2 ON d.rid = d2.rid",
            &tables,
        );
        assert_eq!(chunk.rows.len(), 20);
        assert!(stats.join_rows() >= 20);
    }

    #[test]
    fn ambiguous_column_is_rejected() {
        let tables = setup();
        let stats = ExecStats::default();
        let ctx = ExecContext {
            tables: &tables,
            stats: &stats,
        };
        let stmt =
            match parse_statement("SELECT rid FROM dataTable a, dataTable b WHERE a.rid = b.rid")
                .unwrap()
            {
                Statement::Select(s) => s,
                _ => unreachable!(),
            };
        let err = run_select(&stmt, &ctx, JoinStrategy::Auto).unwrap_err();
        assert!(matches!(err, EngineError::AmbiguousColumn(_)));
    }

    #[test]
    fn cross_join_without_predicate() {
        let tables = setup();
        let (chunk, _) = select(
            "SELECT v.vid, v2.vid FROM versioningTable v, versioningTable v2",
            &tables,
        );
        assert_eq!(chunk.rows.len(), 4);
    }

    #[test]
    fn array_subquery_lowering() {
        let tables = setup();
        let (chunk, _) = select(
            "SELECT ARRAY(SELECT rid FROM dataTable WHERE rid < 3) AS arr",
            &tables,
        );
        assert_eq!(chunk.rows[0][0], Value::IntArray(vec![0, 1, 2]));
    }

    /// The plan of `sql`, rendered as `EXPLAIN` prints it.
    fn explained(sql: &str, tables: &Map<String, Table>) -> String {
        let stats = ExecStats::default();
        let ctx = ExecContext {
            tables,
            stats: &stats,
        };
        let Statement::Select(stmt) = parse_statement(sql).unwrap() else {
            panic!("not a select: {sql}");
        };
        let planned = plan_select(&stmt, &ctx, JoinStrategy::Auto).unwrap();
        exec::explain::render(&planned.plan).join("\n")
    }

    /// Run `sql`, whose `IN` the planner turns into an index lookup, and
    /// `scan`, the same filter in a shape it leaves to a scan: they must
    /// return the same rows in the same order. The lookup's rows, stats
    /// and plan.
    fn promoted(
        sql: &str,
        scan: &str,
        tables: &Map<String, Table>,
    ) -> (Chunk<'static>, ExecStats, String) {
        let plan = explained(sql, tables);
        assert!(plan.contains("Index Lookup"), "{sql}: {plan}");
        let scan_plan = explained(scan, tables);
        assert!(scan_plan.contains("Seq Scan"), "{scan}: {scan_plan}");
        let (chunk, stats) = select(sql, tables);
        assert_eq!(chunk.rows, select(scan, tables).0.rows, "{sql}");
        (chunk, stats, plan)
    }

    fn first_column(chunk: &Chunk) -> Vec<Value> {
        chunk.rows.iter().map(|r| r[0].clone()).collect()
    }

    #[test]
    fn in_set_on_an_indexed_column_is_an_index_lookup_in_heap_order() {
        let mut tables = setup();
        // Clustered on name, the heap holds rids 0,4,8,12,16,1,5,…: key
        // order is no longer heap order.
        let data = tables.get_mut("datatable").unwrap();
        data.cluster_by(&["name"]).unwrap();
        let sql = "SELECT rid FROM dataTable WHERE rid IN (19, 4, 1, 0, 5, 99)";
        let scan = "SELECT rid FROM dataTable WHERE coalesce(rid) IN (19, 4, 1, 0, 5, 99)";
        let (chunk, stats, plan) = promoted(sql, scan, &tables);
        assert_eq!(first_column(&chunk), [0, 4, 1, 5, 19].map(Value::Int));
        assert!(
            plan.contains("Index Lookup on datatable (cols [0], 6 keys)"),
            "{plan}"
        );
        // One probe per key, and no row read that is not returned.
        assert_eq!(stats.index_lookups(), 6);
        assert_eq!(stats.rows_scanned(), 0);

        // Deletes compact the heap and rebuild the index: rids 0, 5, 9.
        tables
            .get_mut("datatable")
            .unwrap()
            .delete_slots(vec![0, 6, 7]);
        let (chunk, ..) = promoted(sql, scan, &tables);
        assert_eq!(first_column(&chunk), [4, 1, 19].map(Value::Int));

        // A materialized subquery is a set like any other.
        let (chunk, _, plan) = promoted(
            "SELECT rid FROM dataTable WHERE rid IN \
             (SELECT unnest(rlist) FROM versioningTable WHERE vid = 2)",
            "SELECT rid FROM dataTable WHERE coalesce(rid) IN \
             (SELECT unnest(rlist) FROM versioningTable WHERE vid = 2)",
            &tables,
        );
        assert_eq!(first_column(&chunk), [4, 1, 2, 3].map(Value::Int));
        assert!(plan.contains("(cols [0], 4 keys)"), "{plan}");
    }

    #[test]
    fn in_set_on_a_non_unique_index_interleaves_its_keys_in_heap_order() {
        let mut tables = setup();
        let data = tables.get_mut("datatable").unwrap();
        data.create_index("datatable_name", &["name"], false)
            .unwrap();
        // Move rid 2 onto key n1, after that key's slots 1, 5, … were
        // indexed.
        data.replace_row(2, vec![Value::Int(2), "n1".into(), Value::Int(20)])
            .unwrap();
        let (chunk, _, plan) = promoted(
            "SELECT rid FROM dataTable WHERE name IN ('n3', 'n1')",
            "SELECT rid FROM dataTable WHERE coalesce(name) IN ('n3', 'n1')",
            &tables,
        );
        let rids = [1, 2, 3, 5, 7, 9, 11, 13, 15, 17, 19];
        assert_eq!(first_column(&chunk), rids.map(Value::Int));
        assert!(plan.contains("(cols [1], 2 keys)"), "{plan}");
        // One key: its slots come back ascending too.
        let (chunk, ..) = promoted(
            "SELECT rid FROM dataTable WHERE name IN ('n1')",
            "SELECT rid FROM dataTable WHERE coalesce(name) IN ('n1')",
            &tables,
        );
        assert_eq!(first_column(&chunk), [1, 2, 5, 9, 13, 17].map(Value::Int));
    }

    #[test]
    fn in_set_nulls_match_nothing_and_numbers_match_across_types() {
        let mut tables = setup();
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ]);
        let mut t = Table::new("n", schema);
        for (k, v) in [
            (Some(1), 0),
            (None, 1),
            (Some(2), 2),
            (None, 3),
            (Some(1), 4),
        ] {
            t.insert(vec![k.map_or(Value::Null, Value::Int), Value::Int(v)])
                .unwrap();
        }
        t.create_index("n_k", &["k"], false).unwrap();
        tables.insert("n".into(), t);
        // NULL in the set is no key; NULL in the column is never found.
        let (chunk, stats, plan) = promoted(
            "SELECT v FROM n WHERE k IN (2, NULL, 1)",
            "SELECT v FROM n WHERE coalesce(k) IN (2, NULL, 1)",
            &tables,
        );
        assert_eq!(first_column(&chunk), [0, 2, 4].map(Value::Int));
        assert!(plan.contains("(cols [0], 2 keys)"), "{plan}");
        assert_eq!(stats.index_lookups(), 2);
        let (chunk, _, plan) = promoted(
            "SELECT v FROM n WHERE k IN (NULL)",
            "SELECT v FROM n WHERE coalesce(k) IN (NULL)",
            &tables,
        );
        assert!(chunk.rows.is_empty());
        assert!(plan.contains("(cols [0], 0 keys)"), "{plan}");

        // `1.0` finds the INT 1, as the scan's set membership does; 3.5
        // finds nothing.
        let (chunk, ..) = promoted(
            "SELECT rid FROM dataTable WHERE rid IN (1.0, 2, 3.5)",
            "SELECT rid FROM dataTable WHERE coalesce(rid) IN (1.0, 2, 3.5)",
            &tables,
        );
        assert_eq!(first_column(&chunk), [1, 2].map(Value::Int));
    }

    #[test]
    fn in_set_lookup_applies_the_other_conjuncts() {
        let tables = setup();
        let (chunk, stats, plan) = promoted(
            "SELECT rid FROM dataTable WHERE rid IN (1, 2, 3, 4) AND score > 20 AND name <> 'n4'",
            "SELECT rid FROM dataTable WHERE coalesce(rid) IN (1, 2, 3, 4) AND score > 20 \
             AND name <> 'n4'",
            &tables,
        );
        assert_eq!(first_column(&chunk), [3, 4].map(Value::Int));
        assert!(plan.contains("(cols [0], 4 keys) with filter"), "{plan}");
        assert_eq!(stats.rows_scanned(), 0);
    }

    #[test]
    fn not_in_and_unindexed_columns_keep_the_scan() {
        let tables = setup();
        for sql in [
            "SELECT rid FROM dataTable WHERE rid NOT IN (1, 2)",
            "SELECT rid FROM dataTable WHERE NOT rid IN (1, 2)",
            "SELECT rid FROM dataTable WHERE score IN (10, 20)",
            "SELECT rid FROM dataTable WHERE rid + 0 IN (1, 2)",
        ] {
            let plan = explained(sql, &tables);
            assert!(
                plan.contains("Seq Scan on datatable with filter") && !plan.contains("Index"),
                "{sql}: {plan}"
            );
        }
        // `col = literal` wins when both apply; the IN becomes its filter.
        let plan = explained(
            "SELECT rid FROM dataTable WHERE rid IN (1, 2, 3) AND rid = 2",
            &tables,
        );
        assert!(plan.contains("(cols [0], 1 key) with filter"), "{plan}");

        // An index on no columns (only a snapshot can carry one) serves
        // no equality.
        let mut tables = setup();
        let data = tables.get_mut("datatable").unwrap();
        data.create_index("datatable_none", &[], false).unwrap();
        let sql = "SELECT rid FROM dataTable WHERE score = 20";
        let plan = explained(sql, &tables);
        assert!(plan.contains("Seq Scan on datatable with filter"), "{plan}");
        assert_eq!(
            select(sql, &tables).0.into_rows(),
            vec![vec![Value::Int(2)]]
        );
    }

    #[test]
    fn order_by_output_position() {
        let tables = setup();
        let (chunk, _) = select(
            "SELECT rid, score FROM dataTable WHERE rid < 4 ORDER BY 1 DESC",
            &tables,
        );
        assert_eq!(chunk.rows[0][0], Value::Int(3));
    }
}
