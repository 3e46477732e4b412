//! Keeps `docs/ARCHITECTURE.md` and `docs/CONCURRENCY.md` honest: every
//! repository path referenced in an inline code span must exist — part of
//! tier-1, so a rename that forgets a doc fails locally and in CI's `test`
//! job alike. The README's file pointers are held to the same rule, and it
//! rides along for the other thing that rotted there: pointers to bench
//! bins and result files that no longer exist. Two claims of the docs are
//! checked against the source itself: the middleware lexes SQL in one place,
//! and it renders no DML text.

use std::path::Path;

/// Extract path-like inline code spans: at least one `/`, no spaces, no
/// `::`, built from path characters only. `Executor::batch`, flags like
/// `--async`, and prose never match.
fn referenced_paths(markdown: &str) -> Vec<String> {
    let mut paths = Vec::new();
    for chunk in markdown.split('`').skip(1).step_by(2) {
        let candidate = chunk.trim();
        let path_like = candidate.contains('/')
            && !candidate.contains("::")
            && !candidate.contains(' ')
            && candidate
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '/' | '.' | '_' | '-'))
            && !candidate.starts_with('-');
        if path_like {
            paths.push(candidate.to_string());
        }
    }
    paths.sort();
    paths.dedup();
    paths
}

fn assert_doc_paths_exist(doc_path: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join(doc_path))
        .unwrap_or_else(|_| panic!("{doc_path} exists"));
    let paths = referenced_paths(&doc);
    assert!(
        paths.len() >= 10,
        "{doc_path} should anchor its claims in file pointers; \
         found only {paths:?}"
    );
    let missing: Vec<&String> = paths.iter().filter(|p| !root.join(p).exists()).collect();
    assert!(
        missing.is_empty(),
        "{doc_path} references paths that do not exist: {missing:?} — \
         update the doc in the same PR that moved them"
    );
}

#[test]
fn every_path_referenced_by_the_architecture_doc_exists() {
    assert_doc_paths_exist("docs/ARCHITECTURE.md");
}

#[test]
fn every_path_referenced_by_the_concurrency_doc_exists() {
    assert_doc_paths_exist("docs/CONCURRENCY.md");
}

#[test]
fn every_path_referenced_by_the_readme_exists() {
    assert_doc_paths_exist("README.md");
}

/// The pre-ledger storm bins, their workloads and their committed result
/// files are gone (the gates are `differential`, `storm`, `crash_storm`,
/// `chaos_storm`; perf questions go to `perf_ledger compare`): no doc may
/// send a reader to them, or name a result file as if it were tracked.
#[test]
fn no_doc_points_at_a_deleted_bin_or_a_result_file() {
    let gone = [
        "async_storm",
        "mvcc_storm",
        "wal_storm",
        "net_storm",
        "batch_storm",
        "contention_storm",
        "checkout_commit",
        "--bin concurrency",
        "--bin batching",
        "bench-smoke",
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for doc_path in ["README.md", "docs/ARCHITECTURE.md", "docs/CONCURRENCY.md"] {
        let doc = std::fs::read_to_string(root.join(doc_path))
            .unwrap_or_else(|_| panic!("{doc_path} exists"));
        // Prose wraps, so a name can straddle a line break.
        let flat = doc.split_whitespace().collect::<Vec<_>>().join(" ");
        let found: Vec<&&str> = gone.iter().filter(|g| flat.contains(**g)).collect();
        assert!(found.is_empty(), "{doc_path} still mentions {found:?}");
        // `ORPHEUS_BENCH_OUT` is where artifacts go; a `BENCH_<bin>.json` is one.
        let result_file = flat
            .match_indices("BENCH_")
            .any(|(i, m)| !flat[i + m.len()..].starts_with("OUT"));
        assert!(!result_file, "{doc_path} names a BENCH_ result file");
    }
}

/// `crates/core/src` files with their non-test, non-comment lines: a
/// file's `#[cfg(test)]` module is its tail.
fn core_sources(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("crates/core/src is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            core_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let source = std::fs::read_to_string(&path).expect("source file is readable");
            let code = source
                .split("#[cfg(test)]")
                .next()
                .unwrap_or_default()
                .lines()
                .filter(|line| !line.trim_start().starts_with("//"))
                .collect::<Vec<_>>()
                .join("\n");
            out.push((path.display().to_string(), code));
        }
    }
}

/// What the docs say about a `Run` — lexed once, every layer reads that one
/// token vector — holds only while nothing in the middleware lexes on the
/// side: `lexer::tokenize` has exactly one caller under `crates/core/src`,
/// `query::Lexed::new`. A second one is a scanner coming back.
#[test]
fn the_middleware_lexes_sql_in_exactly_one_place() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    core_sources(&root.join("crates/core/src"), &mut sources);
    let callers: Vec<(&str, usize)> = sources
        .iter()
        .map(|(path, code)| (path.as_str(), code.matches("tokenize(").count()))
        .filter(|(_, calls)| *calls > 0)
        .collect();
    assert!(
        matches!(callers.as_slice(), [(path, 1)] if path.ends_with("query.rs")),
        "expected one `tokenize(` call, in crates/core/src/query.rs; found {callers:?}"
    );
}

/// The versioning layer writes rows as `Value`s through the table API: no
/// DML text is rendered under `crates/core/src` outside tests. DDL, the
/// Table 1 read statements and the query translator stay SQL.
#[test]
fn the_middleware_renders_no_dml_text() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    core_sources(&root.join("crates/core/src"), &mut sources);
    let found: Vec<(&str, &str)> = sources
        .iter()
        .flat_map(|(path, code)| {
            ["\"INSERT INTO", "\"DELETE FROM", "\"UPDATE "]
                .into_iter()
                .filter(|literal| code.contains(literal))
                .map(move |literal| (path.as_str(), literal))
        })
        .collect();
    assert!(found.is_empty(), "DML text rendered in {found:?}");
}

#[test]
fn the_span_extractor_ignores_non_paths() {
    let doc = "`Executor::batch` and `--async` and `cargo test` and \
               `crates/core/src/batch.rs` and `Step::Shard`";
    assert_eq!(referenced_paths(doc), vec!["crates/core/src/batch.rs"]);
}
