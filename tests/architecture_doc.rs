//! Keeps `docs/ARCHITECTURE.md` and `docs/CONCURRENCY.md` honest: every
//! repository path referenced in an inline code span must exist — part of
//! tier-1, so a rename that forgets a doc fails locally and in CI's `test`
//! job alike. The README's file pointers are held to the same rule, and it
//! rides along for the other thing that rotted there: pointers to bench
//! bins and result files that no longer exist. Five claims of the docs are
//! checked against the source itself: the middleware lexes SQL in one place,
//! it renders no DML text, every byte format speaks one vocabulary, the
//! staged-name key is spelled once, and no request is planned.

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
/// files are gone, and so are the two fault bins `fault_storm` replaced and
/// the environment variables that armed their faults (the gates are
/// `differential`, `storm`, `fault_storm`; perf questions go to
/// `perf_ledger compare`): no doc may send a reader to them, or name a
/// result file as if it were tracked.
#[test]
fn no_doc_points_at_a_deleted_bin_or_a_result_file() {
    let gone = [
        "async_storm",
        "mvcc_storm",
        "wal_storm",
        "net_storm",
        "batch_storm",
        "contention_storm",
        "crash_storm",
        "chaos_storm",
        "ORPHEUS_WAL_KILL",
        "ORPHEUS_WAL_FAULT",
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

/// The `.rs` files under `dir` with their non-test, non-comment lines: a
/// file's `#[cfg(test)]` module is its tail.
fn core_sources(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
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

/// Function signatures in `code` — `fn` up to its body — with whitespace
/// collapsed, as `(name, generics, parameters, return type)`.
fn signatures(code: &str) -> Vec<(String, String, String, String)> {
    let bytes = code.as_bytes();
    code.match_indices("fn ")
        .filter(|(i, _)| *i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'))
        .filter_map(|(i, _)| {
            let rest = &code[i + 3..];
            let sig = &rest[..rest.find(['{', ';']).unwrap_or(rest.len())];
            let sig = sig.split_whitespace().collect::<Vec<_>>().join(" ");
            let (name, tail) = sig.split_once('(')?;
            let (params, ret) = tail.rsplit_once(')')?;
            let ret = ret.trim().trim_start_matches("->").trim();
            let (name, generics) = name.split_once('<').unwrap_or((name, ""));
            Some((
                name.trim().to_string(),
                generics.to_string(),
                params.to_string(),
                ret.to_string(),
            ))
        })
        .collect()
}

/// What a signature encodes or decodes of the engine vocabulary, if any.
/// A writer appends to a `Vec<u8>` or to any byte `Sink`.
fn vocabulary_item(generics: &str, params: &str, ret: &str) -> Option<&'static str> {
    let writes = params.contains("Vec<u8>") || generics.contains("Sink");
    let reads = params.contains("Reader") || params.trim_end().ends_with(": u8");
    let returns = |ty: &str| ret.ends_with(&format!("<{ty}>")) || ret == ty;
    if writes && params.contains("&Value") || reads && returns("Value") {
        Some("Value")
    } else if writes && params.contains("&Schema") || reads && returns("Schema") {
        Some("Schema")
    } else if params.contains("DataType") && (writes || ret == "u8") || reads && returns("DataType")
    {
        Some("DataType")
    } else {
        None
    }
}

/// The bytes on the wire, in the log and on disk are one vocabulary: the
/// bounds-checked reader, the string writer and the `Value` / `DataType` /
/// `Schema` encoders are defined in exactly one module under `crates/*/src`.
/// A second encoder is a second dialect coming back.
#[test]
fn the_byte_vocabulary_is_defined_in_exactly_one_module() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            core_sources(&src, &mut sources);
        }
    }
    let mut found: Vec<(String, String)> = Vec::new();
    for (path, code) in &sources {
        for (name, generics, params, ret) in signatures(code) {
            let is_writer = name == "put_str" || name == "put_u32";
            if vocabulary_item(&generics, &params, &ret).is_some() || is_writer {
                found.push((path.clone(), name));
            }
        }
        // A reader is a struct borrowing the bytes it walks.
        for def in code.split("struct ").skip(1) {
            let body = &def[..def.find('}').unwrap_or(def.len())];
            if body.contains("&'a [u8]") {
                found.push((
                    path.clone(),
                    format!("struct {}", body.split('<').next().unwrap_or(body)),
                ));
            }
        }
    }
    let modules: std::collections::BTreeSet<&str> = found.iter().map(|(p, _)| p.as_str()).collect();
    assert!(
        modules.len() == 1
            && modules
                .iter()
                .all(|m| m.ends_with("crates/engine/src/storage.rs")),
        "the byte vocabulary should live in crates/engine/src/storage.rs alone; found {found:?}"
    );
    let names: Vec<&str> = found.iter().map(|(_, n)| n.as_str()).collect();
    for expected in [
        "struct Reader",
        "put_value",
        "read_value",
        "put_schema",
        "read_schema",
    ] {
        assert!(
            names.contains(&expected),
            "{expected} not found in {names:?}"
        );
    }
}

/// The name of the function whose body holds `code[at..]`: the last `fn`
/// item that starts before it.
fn enclosing_fn(code: &str, at: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let (start, _) = code[..at]
        .match_indices("fn ")
        .filter(|(i, _)| *i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'))
        .last()?;
    code[start + 3..].split(['(', '<']).next().map(str::trim)
}

/// `(file, enclosing function)` of every spelling of `needle` in the
/// non-test code of `crates/*/src`, where it is not the tail of a longer
/// identifier (`Step::` is not found in `MigrationStep::`).
fn spellings(needle: &str) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            core_sources(&src, &mut sources);
        }
    }
    let mut found: Vec<(String, String)> = sources
        .iter()
        .flat_map(|(path, code)| {
            let bytes = code.as_bytes();
            code.match_indices(needle)
                .filter(move |(at, _)| {
                    *at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_')
                })
                .map(move |(at, _)| {
                    let file = path.rsplit('/').next().unwrap_or(path).to_string();
                    let function = enclosing_fn(code, at).unwrap_or("<none>").to_string();
                    (file, function)
                })
        })
        .collect();
    found.sort();
    found
}

/// Tables and CSV paths share one staged-name index, keyed `t:<table>` /
/// `f:<path>`; the catalog's index, the checkout reservations and the
/// closing catalog write all key by it. That format is one decision,
/// spelled in one function.
#[test]
fn the_staged_name_key_is_spelled_in_exactly_one_function() {
    let tables = spellings("\"t:{");
    let csvs = spellings("\"f:{");
    let mut functions = [tables.as_slice(), csvs.as_slice()].concat();
    functions.sort();
    functions.dedup();
    assert!(
        !tables.is_empty() && !csvs.is_empty() && functions.len() == 1,
        "expected the staged-name key format in one function; tables keyed in {tables:?}, \
         CSV paths in {csvs:?}"
    );
}

/// A request is routed (`batch::route`), never planned: a `Session`'s
/// batch is the plain `execute` loop, and an async handle runs each
/// submission request by request. No non-test code spells a batch plan
/// or its steps.
#[test]
fn no_request_is_planned() {
    let plans = [spellings("BatchPlan"), spellings("Step::")].concat();
    assert!(
        plans.is_empty(),
        "expected no batch plan in non-test code; found {plans:?}"
    );
}

#[test]
fn the_span_extractor_ignores_non_paths() {
    let doc = "`Executor::batch` and `--async` and `cargo test` and \
               `crates/core/src/batch.rs` and `Step::Shard`";
    assert_eq!(referenced_paths(doc), vec!["crates/core/src/batch.rs"]);
}
