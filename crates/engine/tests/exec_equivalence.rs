//! The executor's observable behaviour, pinned: a fixed corpus of
//! statements runs against a fixed database, and every result's schema and
//! rows (in order, by `Debug`) and every `ExecStats` counter the statement
//! accrued must equal `exec_corpus.txt` exactly. A change to how the
//! executor holds its rows — borrowed or copied — must leave this file
//! untouched.
//!
//! To regenerate the pinned file after a deliberate change in behaviour:
//! `ORPHEUS_BLESS=1 cargo test -p orpheus-engine --test exec_equivalence`.

use std::fmt::Write as _;

use orpheus_engine::Database;

const SETUP: &[&str] = &[
    "CREATE TABLE t (a INT PRIMARY KEY, b TEXT, c DOUBLE, arr INT[])",
    "INSERT INTO t VALUES (1, 'one', 1.5, ARRAY[10, 11]), (2, 'two', NULL, ARRAY[]), \
     (3, 'three', -2.0, NULL), (4, NULL, 4.25, ARRAY[12]), (5, 'five', 0.5, ARRAY[13, 14, 15]), \
     (6, 'six', 9.0, ARRAY[10])",
    "CREATE TABLE u (k INT, v INT)",
    "INSERT INTO u VALUES (1, 7), (3, 2), (3, 2), (5, NULL), (9, 4), (NULL, 1), (1, 3)",
    "CREATE INDEX ON u (k)",
    "CREATE TABLE w (k INT, tag TEXT)",
    "INSERT INTO w VALUES (3, 'x'), (1, 'y'), (7, 'z'), (3, 'q')",
    "CREATE TABLE e (x INT, y DOUBLE)",
];

const CORPUS: &[&str] = &[
    // Projections: identity, aliased, reordered, repeated.
    "SELECT * FROM t",
    "SELECT * FROM t AS x WHERE x.a > 2",
    "SELECT x.* FROM t x WHERE x.c > 1.0",
    "SELECT a AS id, b AS name FROM t",
    "SELECT b, a FROM t",
    "SELECT a, a FROM t WHERE a <= 3",
    "SELECT a + 1, b || '!' FROM t WHERE b IS NOT NULL",
    "SELECT * FROM (SELECT a, b FROM t WHERE a > 1) AS s WHERE s.a < 5",
    "SELECT * FROM (SELECT * FROM u) AS s",
    "SELECT 1 + 2 AS three",
    // Scans and lookups.
    "SELECT * FROM t WHERE a = 2",
    "SELECT * FROM t WHERE a = 2 AND b = 'zwei'",
    "SELECT b FROM t WHERE a IN (5, 1, 99)",
    "SELECT * FROM u WHERE k IN (3, 1)",
    "SELECT * FROM u WHERE k = 3",
    "SELECT * FROM u WHERE v > 2",
    // Joins under every strategy, and the nested loop.
    "SELECT * FROM t, u WHERE t.a = u.k",
    "SELECT t.a, u.v, w.tag FROM t JOIN u ON t.a = u.k JOIN w ON w.k = u.k WHERE u.v > 1",
    "SET join_strategy = 'hash'",
    "SELECT * FROM u, w WHERE u.k = w.k",
    "SELECT * FROM t, u WHERE t.a = u.k",
    "SET join_strategy = 'merge'",
    "SELECT * FROM u, w WHERE u.k = w.k",
    "SELECT * FROM t, u WHERE t.a = u.k",
    "SET join_strategy = 'inl'",
    "SELECT * FROM u, w WHERE u.k = w.k",
    "SELECT * FROM t, u WHERE t.a = u.k",
    "SELECT * FROM u, t WHERE t.a = u.k",
    "SELECT * FROM w, t WHERE t.a = w.k",
    "SET join_strategy = 'auto'",
    "SELECT t.a, w.k FROM t, w WHERE t.a < w.k",
    "SELECT * FROM w, e",
    "SELECT w.tag, t.b FROM w JOIN t ON t.a = w.k + 0",
    // Set-returning projection.
    "SELECT a, unnest(arr) AS elem FROM t",
    "SELECT unnest(arr) FROM t WHERE a = 5",
    // Subqueries.
    "SELECT a FROM t WHERE a IN (SELECT k FROM u)",
    "SELECT b FROM t WHERE a NOT IN (SELECT k FROM u WHERE k IS NOT NULL)",
    "SELECT * FROM u WHERE k IN (SELECT a FROM t WHERE a > 2)",
    "SELECT (SELECT max(v) FROM u) AS m, (SELECT b FROM t WHERE a = 3) AS n",
    "SELECT (SELECT x FROM e) AS none",
    "SELECT ARRAY(SELECT k FROM u WHERE v > 1) AS ks",
    "SELECT count(*), sum(v) FROM (SELECT * FROM u WHERE k IN \
     (SELECT unnest(arr) FROM t WHERE a = 1)) AS x WHERE v < 5",
    "SELECT count(*), sum(v) FROM (SELECT * FROM u WHERE k IN (SELECT a FROM t)) AS x \
     WHERE v < 5",
    // Aggregates.
    "SELECT k, count(*), count(v), sum(v), avg(v), min(v), max(v) FROM u GROUP BY k",
    "SELECT k, count(*) AS n FROM u GROUP BY k HAVING count(*) > 1",
    "SELECT count(DISTINCT v), sum(DISTINCT v), count(v) FROM u",
    "SELECT k, count(DISTINCT v) FROM u GROUP BY k",
    "SELECT count(*), sum(x), min(x), max(y), avg(y), count(y) FROM e",
    "SELECT count(*), sum(v) FROM u WHERE k > 100",
    "SELECT x, count(*) FROM e GROUP BY x",
    "SELECT array_agg(k) FROM u WHERE k IS NOT NULL",
    "SELECT sum(c), min(b), max(b) FROM t",
    "SELECT count(*) + 1, sum(a) * 2 FROM t",
    "SELECT b IS NULL, count(*) FROM t GROUP BY b IS NULL",
    "SELECT count(*) FROM t",
    "SELECT count(*) FROM t, u WHERE t.a = u.k",
    // Ordering and limits.
    "SELECT b FROM t ORDER BY c DESC",
    "SELECT a, b FROM t ORDER BY b, a DESC LIMIT 3",
    "SELECT * FROM t ORDER BY 1 DESC",
    "SELECT * FROM t LIMIT 2",
    "SELECT k, v FROM u ORDER BY v LIMIT 0",
    "SELECT k, count(*) AS n FROM u GROUP BY k ORDER BY n DESC, k LIMIT 2",
    // Statements that materialize a result.
    "SELECT * INTO t2 FROM t WHERE a > 2",
    "SELECT * FROM t2",
    "SELECT b, a INTO t3 FROM t WHERE a < 3",
    "SELECT * FROM t3",
    "INSERT INTO u SELECT * FROM u",
    "SELECT * FROM u",
    "INSERT INTO w (tag, k) SELECT b, a FROM t WHERE a > 4",
    "SELECT * FROM w",
    "EXPLAIN SELECT t.a, count(*) FROM t, u WHERE t.a = u.k AND u.v > 1 GROUP BY t.a",
    // Errors.
    "SELECT (SELECT k FROM u) AS two",
    "SELECT nope FROM t",
    "SELECT * INTO t2 FROM t",
];

/// The corpus's transcript: each statement, then its result or error and
/// the counters it accrued.
fn transcript() -> String {
    let mut db = Database::new();
    for sql in SETUP {
        db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    let mut out = String::new();
    for sql in CORPUS {
        db.stats.reset();
        writeln!(out, "> {sql}").unwrap();
        match db.execute(sql) {
            Ok(r) => {
                writeln!(out, "schema: {:?}", r.schema).unwrap();
                for row in &r.rows {
                    writeln!(out, "  {row:?}").unwrap();
                }
                writeln!(out, "affected: {}", r.affected).unwrap();
            }
            Err(e) => writeln!(out, "error: {e:?}").unwrap(),
        }
        writeln!(out, "stats: {:?}", db.stats.snapshot()).unwrap();
    }
    out
}

#[test]
fn the_executor_answers_the_corpus_as_pinned() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/exec_corpus.txt");
    let got = transcript();
    if std::env::var_os("ORPHEUS_BLESS").is_some() {
        std::fs::write(path, &got).unwrap();
    }
    let want = std::fs::read_to_string(path).unwrap();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "exec_corpus.txt line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
}
