//! Physical-plan rendering for `EXPLAIN`, in the spirit of PostgreSQL's
//! one-node-per-line, two-space-indented output. The renderer shows what
//! the paper's Appendix D.1 analysis cares about: which access path each
//! relation uses (sequential scan vs index lookup) and which join
//! algorithm connects them.

use super::{Plan, ProjItem};
use crate::exec::join::JoinStrategy;

/// Render a plan as indented lines, roots first.
pub fn render(plan: &Plan) -> Vec<String> {
    let mut lines = Vec::new();
    walk(plan, 0, &mut lines);
    lines
}

fn push(lines: &mut Vec<String>, depth: usize, text: String) {
    if depth == 0 {
        lines.push(text);
    } else {
        lines.push(format!("{}-> {text}", "  ".repeat(depth)));
    }
}

fn strategy_name(s: JoinStrategy) -> &'static str {
    match s {
        JoinStrategy::Auto => "Join (auto)",
        JoinStrategy::Hash => "Hash Join",
        JoinStrategy::Merge => "Merge Join",
        JoinStrategy::IndexNestedLoop => "Index Nested Loop Join",
    }
}

fn filter_suffix(filter: &Option<crate::expr::Expr>) -> &'static str {
    if filter.is_some() {
        " with filter"
    } else {
        ""
    }
}

fn walk(plan: &Plan, depth: usize, lines: &mut Vec<String>) {
    match plan {
        Plan::SeqScan { table, filter } => {
            push(
                lines,
                depth,
                format!("Seq Scan on {table}{}", filter_suffix(filter)),
            );
        }
        Plan::IndexLookup {
            table,
            cols,
            keys,
            filter,
        } => {
            let n = keys.len() / cols.len();
            push(
                lines,
                depth,
                format!(
                    "Index Lookup on {table} (cols {:?}, {n} key{}){}",
                    cols,
                    if n == 1 { "" } else { "s" },
                    filter_suffix(filter)
                ),
            );
        }
        Plan::Values { rows, .. } => {
            push(
                lines,
                depth,
                format!(
                    "Values ({} row{})",
                    rows.len(),
                    if rows.len() == 1 { "" } else { "s" }
                ),
            );
        }
        Plan::Filter { input, .. } => {
            push(lines, depth, "Filter".to_string());
            walk(input, depth + 1, lines);
        }
        Plan::Project { input, items, .. } => {
            let unnests = items.iter().filter(|i| is_unnest(i)).count();
            let label = if unnests > 0 {
                format!("Project ({} columns, {unnests} unnest)", items.len())
            } else {
                format!("Project ({} columns)", items.len())
            };
            push(lines, depth, label);
            walk(input, depth + 1, lines);
        }
        Plan::Join {
            left,
            right,
            left_keys,
            right_keys,
            strategy,
        } => {
            push(
                lines,
                depth,
                format!(
                    "{} (left cols {:?} = right cols {:?})",
                    strategy_name(*strategy),
                    left_keys,
                    right_keys
                ),
            );
            walk(left, depth + 1, lines);
            walk(right, depth + 1, lines);
        }
        Plan::NestedLoop {
            left,
            right,
            predicate,
        } => {
            push(
                lines,
                depth,
                format!(
                    "Nested Loop{}",
                    if predicate.is_some() {
                        " with predicate"
                    } else {
                        " (cross)"
                    }
                ),
            );
            walk(left, depth + 1, lines);
            walk(right, depth + 1, lines);
        }
        Plan::Aggregate {
            input,
            group_by,
            aggregates,
            ..
        } => {
            push(
                lines,
                depth,
                format!(
                    "Aggregate ({} group key{}, {} aggregate{})",
                    group_by.len(),
                    if group_by.len() == 1 { "" } else { "s" },
                    aggregates.len(),
                    if aggregates.len() == 1 { "" } else { "s" }
                ),
            );
            walk(input, depth + 1, lines);
        }
        Plan::Sort { input, keys } => {
            push(
                lines,
                depth,
                format!(
                    "Sort ({} key{})",
                    keys.len(),
                    if keys.len() == 1 { "" } else { "s" }
                ),
            );
            walk(input, depth + 1, lines);
        }
        Plan::Limit { input, limit } => {
            push(lines, depth, format!("Limit {limit}"));
            walk(input, depth + 1, lines);
        }
    }
}

fn is_unnest(item: &ProjItem) -> bool {
    item.unnest
}

#[cfg(test)]
mod tests {
    use crate::Database;

    fn explain_text(db: &mut Database, sql: &str) -> String {
        let r = db.query(&format!("EXPLAIN {sql}")).unwrap();
        assert_eq!(r.schema.columns[0].name, "QUERY PLAN");
        r.rows
            .iter()
            .map(|row| row[0].to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn setup() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE d (rid INT PRIMARY KEY, v INT)")
            .unwrap();
        db.execute("CREATE TABLE r (vid INT PRIMARY KEY, rlist INT[])")
            .unwrap();
        db.execute("INSERT INTO d VALUES (1, 10), (2, 20)").unwrap();
        db.execute("INSERT INTO r VALUES (1, ARRAY[1,2])").unwrap();
        db
    }

    #[test]
    fn renders_scan_and_index_paths() {
        let mut db = setup();
        let t = explain_text(&mut db, "SELECT * FROM d WHERE v = 10");
        assert!(t.contains("Seq Scan on d"), "{t}");
        let t = explain_text(&mut db, "SELECT * FROM d WHERE rid = 1");
        assert!(t.contains("Index Lookup on d"), "{t}");
    }

    #[test]
    fn renders_join_tree_with_strategy_and_indentation() {
        let mut db = setup();
        db.execute("SET join_strategy = 'merge'").unwrap();
        let t = explain_text(
            &mut db,
            "SELECT * FROM d, (SELECT unnest(rlist) AS x FROM r WHERE vid = 1) t \
             WHERE rid = x",
        );
        assert!(t.contains("Merge Join"), "{t}");
        assert!(t.contains("unnest"), "{t}");
        let lines: Vec<&str> = t.lines().collect();
        let join_line = lines.iter().position(|l| l.contains("Merge Join")).unwrap();
        assert!(lines[join_line + 1].starts_with("  "), "{t}");
    }

    #[test]
    fn renders_aggregate_sort_limit_chain() {
        let mut db = setup();
        let t = explain_text(
            &mut db,
            "SELECT v, count(*) FROM d GROUP BY v ORDER BY v LIMIT 5",
        );
        assert!(t.contains("Limit 5"), "{t}");
        assert!(t.contains("Sort (1 key)"), "{t}");
        assert!(t.contains("Aggregate (1 group key, 1 aggregate)"), "{t}");
    }

    #[test]
    fn explain_does_not_execute() {
        let db = setup();
        let before = db.stats.snapshot();
        db.query("EXPLAIN SELECT * FROM d").unwrap();
        // Planning touches no rows; the scan never ran.
        assert_eq!(db.stats.snapshot().rows_scanned, before.rows_scanned);
        // EXPLAIN on a bad query still errors.
        assert!(db.query("EXPLAIN SELECT * FROM nope").is_err());
    }

    #[test]
    fn explain_prints_and_reparses() {
        use crate::sql::parser::parse_statement;
        let stmt = parse_statement("EXPLAIN SELECT v FROM d WHERE rid = 1").unwrap();
        let printed = stmt.to_string();
        assert!(printed.starts_with("EXPLAIN SELECT"), "{printed}");
        let again = parse_statement(&printed).unwrap();
        assert_eq!(printed, again.to_string());
    }
}
