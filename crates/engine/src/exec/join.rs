//! Equi-join algorithms: hash join, sort-merge join, and index-nested-loop
//! join — the three strategies whose cost behaviour the paper validates in
//! Appendix D.1 (Figure 19).
//!
//! Conventions:
//! * the **left** input is the probe/outer side (in checkout plans this is
//!   the `rlist`-derived rid set or the data table, depending on direction);
//! * the **right** input is the build/inner side;
//! * index-nested-loop requires the right side to be a bare table scan with
//!   an index covering the join columns; otherwise it degrades to hash.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::cost;
use crate::error::{EngineError, Result};
use crate::exec::{execute, Chunk, ExecContext, Plan};
use crate::types::{Row, Value};

/// Join algorithm selection. `Auto` lets the engine choose (hash join, the
/// paper's finding of the most efficient strategy for checkout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    #[default]
    Auto,
    Hash,
    Merge,
    IndexNestedLoop,
}

impl JoinStrategy {
    pub fn parse(s: &str) -> Option<JoinStrategy> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Some(JoinStrategy::Auto),
            "hash" => Some(JoinStrategy::Hash),
            "merge" => Some(JoinStrategy::Merge),
            "inl" | "index" | "index_nested_loop" => Some(JoinStrategy::IndexNestedLoop),
            _ => None,
        }
    }
}

/// Dispatch an equi-join on positional keys.
pub fn execute_join<'a>(
    left: &Plan,
    right: &Plan,
    left_keys: &[usize],
    right_keys: &[usize],
    strategy: JoinStrategy,
    ctx: &ExecContext<'a>,
) -> Result<Chunk<'a>> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(EngineError::Plan(format!(
            "join keys malformed: {left_keys:?} vs {right_keys:?}"
        )));
    }
    match strategy {
        JoinStrategy::Auto | JoinStrategy::Hash => {
            hash_join(left, right, left_keys, right_keys, ctx)
        }
        JoinStrategy::Merge => merge_join(left, right, left_keys, right_keys, ctx),
        JoinStrategy::IndexNestedLoop => {
            // The inner side must be a plain table scan with a usable index.
            if let Plan::SeqScan {
                table,
                filter: None,
            } = right
            {
                let t = ctx.table(table)?;
                if t.index_on(right_keys).is_some() {
                    return index_nested_loop_join(left, table, left_keys, right_keys, ctx);
                }
            }
            // If only the left side is an indexed base table, probe it with
            // the right input and rotate the output columns back into
            // (left ++ right) order.
            if let Plan::SeqScan {
                table,
                filter: None,
            } = left
            {
                let t = ctx.table(table)?;
                if t.index_on(left_keys).is_some() {
                    let left_width = t.schema.arity();
                    let mut chunk =
                        index_nested_loop_join(right, table, right_keys, left_keys, ctx)?;
                    let right_width = chunk.schema.arity() - left_width;
                    for row in &mut chunk.rows {
                        row.to_mut().rotate_left(right_width);
                    }
                    let mut cols = chunk.schema.columns.split_off(right_width);
                    cols.append(&mut chunk.schema.columns);
                    chunk.schema = crate::schema::Schema::new(cols);
                    return Ok(chunk);
                }
            }
            hash_join(left, right, left_keys, right_keys, ctx)
        }
    }
}

fn key_of(row: &[Value], cols: &[usize]) -> Vec<Value> {
    cols.iter().map(|&c| row[c].clone()).collect()
}

/// A joined row: `left`'s values, then `right`'s.
pub(crate) fn concat(left: &[Value], right: &[Value]) -> Row {
    let mut row = Vec::with_capacity(left.len() + right.len());
    row.extend_from_slice(left);
    row.extend_from_slice(right);
    row
}

/// Classic build/probe hash join. The build side is the **right** input —
/// matching the paper's plan where "a hash table on rids is first built,
/// followed by a sequential scan on the data table probing each record".
pub fn hash_join<'a>(
    left: &Plan,
    right: &Plan,
    left_keys: &[usize],
    right_keys: &[usize],
    ctx: &ExecContext<'a>,
) -> Result<Chunk<'a>> {
    let l = execute(left, ctx)?;
    let r = execute(right, ctx)?;
    let schema = l.schema.join(&r.schema);

    let mut build: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(r.rows.len());
    for (i, row) in r.rows.iter().enumerate() {
        let k = key_of(row, right_keys);
        if k.iter().any(|v| v.is_null()) {
            continue; // NULL keys never join.
        }
        build.entry(k).or_default().push(i);
    }
    ctx.stats.add_hash_build_rows(r.rows.len() as u64);

    let mut out = Vec::new();
    for lrow in &l.rows {
        let k = key_of(lrow, left_keys);
        if k.iter().any(|v| v.is_null()) {
            continue;
        }
        if let Some(matches) = build.get(&k) {
            for &ri in matches {
                out.push(Cow::Owned(concat(lrow, &r.rows[ri])));
            }
        }
    }
    ctx.stats.add_join_rows(out.len() as u64);
    Ok(Chunk::new(schema, out))
}

/// Sort-merge join: sorts both inputs on the key columns, then merges,
/// producing the cross product of equal-key runs.
pub fn merge_join<'a>(
    left: &Plan,
    right: &Plan,
    left_keys: &[usize],
    right_keys: &[usize],
    ctx: &ExecContext<'a>,
) -> Result<Chunk<'a>> {
    let mut l = execute(left, ctx)?;
    let mut r = execute(right, ctx)?;
    let schema = l.schema.join(&r.schema);

    let cmp_keys = |a: &[Value], ak: &[usize], b: &[Value], bk: &[usize]| -> std::cmp::Ordering {
        for (&ca, &cb) in ak.iter().zip(bk) {
            let ord = a[ca].total_cmp(&b[cb]);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    };

    l.rows.sort_by(|a, b| cmp_keys(a, left_keys, b, left_keys));
    r.rows
        .sort_by(|a, b| cmp_keys(a, right_keys, b, right_keys));
    ctx.stats
        .add_merge_rows((l.rows.len() + r.rows.len()) as u64);

    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < l.rows.len() && j < r.rows.len() {
        let lk = key_of(&l.rows[i], left_keys);
        let rk = key_of(&r.rows[j], right_keys);
        if lk.iter().any(|v| v.is_null()) {
            i += 1;
            continue;
        }
        if rk.iter().any(|v| v.is_null()) {
            j += 1;
            continue;
        }
        match lk.cmp(&rk) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Find the extents of the equal runs on both sides.
                let i_end = run_end(&l.rows, i, left_keys, &lk);
                let j_end = run_end(&r.rows, j, right_keys, &rk);
                for li in i..i_end {
                    for rj in j..j_end {
                        out.push(Cow::Owned(concat(&l.rows[li], &r.rows[rj])));
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    ctx.stats.add_join_rows(out.len() as u64);
    Ok(Chunk::new(schema, out))
}

fn run_end(rows: &[Cow<[Value]>], start: usize, keys: &[usize], key: &[Value]) -> usize {
    let mut end = start + 1;
    while end < rows.len() && key_of(&rows[end], keys) == key {
        end += 1;
    }
    end
}

/// Index-nested-loop join: probe the inner table's index once per outer
/// row. The modeled I/O cost distinguishes clustered vs. unclustered inner
/// heaps, reproducing Figure 19(c) vs. 19(f).
pub fn index_nested_loop_join<'a>(
    left: &Plan,
    right_table: &str,
    left_keys: &[usize],
    right_keys: &[usize],
    ctx: &ExecContext<'a>,
) -> Result<Chunk<'a>> {
    let l = execute(left, ctx)?;
    let t = ctx.table(right_table)?;
    let idx = t
        .index_on(right_keys)
        .ok_or_else(|| EngineError::IndexNotFound(format!("{right_table} on {right_keys:?}")))?;
    let schema = l.schema.join(&t.schema);

    ctx.stats.add_index_lookups(l.rows.len() as u64);
    let clustered = t.is_clustered_on(right_keys);
    let io = cost::index_lookup_cost(l.rows.len() as u64, t.len(), t.page_row_bytes(), clustered);
    ctx.stats
        .add_random_pages(io / cost::RANDOM_PAGE_COST, cost::RANDOM_PAGE_COST);

    let mut out = Vec::new();
    for lrow in &l.rows {
        let k = key_of(lrow, left_keys);
        if k.iter().any(|v| v.is_null()) {
            continue;
        }
        for &slot in idx.lookup(&k) {
            out.push(Cow::Owned(concat(lrow, t.row(slot))));
        }
    }
    ctx.stats.add_join_rows(out.len() as u64);
    Ok(Chunk::new(schema, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::stats::ExecStats;
    use crate::table::Table;
    use crate::types::DataType;
    use std::collections::HashMap as Map;

    fn setup() -> Map<String, Table> {
        let data_schema = Schema::new(vec![
            Column::new("rid", DataType::Int),
            Column::new("val", DataType::Text),
        ])
        .with_primary_key(&["rid"])
        .unwrap();
        let mut data = Table::new("data", data_schema);
        for i in 0..100i64 {
            data.insert(vec![Value::Int(i), Value::Text(format!("v{i}"))])
                .unwrap();
        }

        let rl_schema = Schema::new(vec![Column::new("rid_tmp", DataType::Int)]);
        let mut rlist = Table::new("rlist", rl_schema);
        for i in (0..100i64).step_by(3) {
            rlist.insert(vec![Value::Int(i)]).unwrap();
        }

        let mut tables = Map::new();
        tables.insert("data".to_string(), data);
        tables.insert("rlist".to_string(), rlist);
        tables
    }

    fn scan(t: &str) -> Plan {
        Plan::SeqScan {
            table: t.into(),
            filter: None,
        }
    }

    fn run(strategy: JoinStrategy, tables: &Map<String, Table>) -> (Chunk<'static>, ExecStats) {
        let stats = ExecStats::default();
        let chunk = {
            let ctx = ExecContext {
                tables,
                stats: &stats,
            };
            // data JOIN rlist ON data.rid = rlist.rid_tmp — but for INL we
            // want the indexed table on the right: rlist JOIN data.
            let chunk =
                execute_join(&scan("rlist"), &scan("data"), &[0], &[0], strategy, &ctx).unwrap();
            Chunk::built(chunk.schema.clone(), chunk.into_rows())
        };
        (chunk, stats)
    }

    #[test]
    fn all_strategies_agree() {
        let tables = setup();
        let (h, _) = run(JoinStrategy::Hash, &tables);
        let (m, _) = run(JoinStrategy::Merge, &tables);
        let (i, _) = run(JoinStrategy::IndexNestedLoop, &tables);
        let norm = |c: &Chunk| {
            let mut rows: Vec<String> = c.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        assert_eq!(h.rows.len(), 34);
        assert_eq!(norm(&h), norm(&m));
        assert_eq!(norm(&h), norm(&i));
    }

    #[test]
    fn hash_join_counts_build_rows() {
        let tables = setup();
        let (_, stats) = run(JoinStrategy::Hash, &tables);
        // Build side is the right input (data, 100 rows).
        assert_eq!(stats.hash_build_rows(), 100);
        assert_eq!(stats.join_rows(), 34);
    }

    #[test]
    fn inl_join_uses_index_lookups() {
        let tables = setup();
        let (_, stats) = run(JoinStrategy::IndexNestedLoop, &tables);
        assert_eq!(stats.index_lookups(), 34);
        // Only the outer side is seq-scanned.
        assert_eq!(stats.rows_scanned(), 34);
    }

    #[test]
    fn inl_swaps_sides_when_only_left_is_indexed() {
        let tables = setup();
        let stats = ExecStats::default();
        let ctx = ExecContext {
            tables: &tables,
            stats: &stats,
        };
        // Inner (right) side has no index, but the left is an indexed base
        // table: the executor probes the left and restores column order.
        let chunk = execute_join(
            &scan("data"),
            &scan("rlist"),
            &[0],
            &[0],
            JoinStrategy::IndexNestedLoop,
            &ctx,
        )
        .unwrap();
        assert_eq!(chunk.rows.len(), 34);
        assert!(stats.index_lookups() > 0);
        // Column order is still data ++ rlist.
        assert_eq!(chunk.schema.column_names(), vec!["rid", "val", "rid_tmp"]);
        for row in &chunk.rows {
            assert_eq!(row[0], row[2]);
            assert!(matches!(row[1], Value::Text(_)));
        }
    }

    #[test]
    fn inl_falls_back_to_hash_when_neither_side_indexed() {
        let tables = setup();
        let stats = ExecStats::default();
        let ctx = ExecContext {
            tables: &tables,
            stats: &stats,
        };
        // Self-join of the unindexed rlist table: no index path exists.
        let chunk = execute_join(
            &scan("rlist"),
            &scan("rlist"),
            &[0],
            &[0],
            JoinStrategy::IndexNestedLoop,
            &ctx,
        )
        .unwrap();
        assert_eq!(chunk.rows.len(), 34);
        assert!(stats.hash_build_rows() > 0);
        assert_eq!(stats.index_lookups(), 0);
    }

    #[test]
    fn null_keys_never_match() {
        let mut tables = setup();
        tables
            .get_mut("rlist")
            .unwrap()
            .insert(vec![Value::Null])
            .unwrap();
        let (h, _) = run(JoinStrategy::Hash, &tables);
        let (m, _) = run(JoinStrategy::Merge, &tables);
        assert_eq!(h.rows.len(), 34);
        assert_eq!(m.rows.len(), 34);
    }

    #[test]
    fn merge_join_handles_duplicate_runs() {
        let mut tables = Map::new();
        let s = Schema::new(vec![Column::new("k", DataType::Int)]);
        let mut a = Table::new("a", s.clone());
        let mut b = Table::new("b", s);
        for _ in 0..3 {
            a.insert(vec![Value::Int(1)]).unwrap();
        }
        for _ in 0..2 {
            b.insert(vec![Value::Int(1)]).unwrap();
        }
        tables.insert("a".into(), a);
        tables.insert("b".into(), b);
        let stats = ExecStats::default();
        let ctx = ExecContext {
            tables: &tables,
            stats: &stats,
        };
        let chunk = execute_join(
            &scan("a"),
            &scan("b"),
            &[0],
            &[0],
            JoinStrategy::Merge,
            &ctx,
        )
        .unwrap();
        assert_eq!(chunk.rows.len(), 6);
    }
}
