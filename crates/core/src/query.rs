//! The query translator (Section 2.2): rewrites versioned SQL into plain
//! SQL the engine understands.
//!
//! Supported constructs:
//! * `... FROM VERSION n OF CVD x [AS alias] ...` — query one version as a
//!   relation (joins across versions work by listing several).
//! * `... FROM CVD x [AS alias] ...` — the whole CVD as a relation with an
//!   extra `vid` column, enabling aggregates grouped by version and
//!   version-selection predicates (`HAVING count(*) > 50` etc.).
//!
//! Rewrites are model-specific. The delta model cannot express these
//! queries without reconstructing every version — exactly the drawback the
//! paper cites for delta storage — so translation reports an error for it.

use orpheus_engine::sql::lexer::{tokenize, Token};

use crate::cvd::Cvd;
use crate::db::OrpheusDB;
use crate::error::{CoreError, Result};
use crate::ids::Vid;
use crate::model::ModelKind;

/// Whether a statement is a plain `SELECT`. Batching executors use this to
/// decide when a statement can be retried on a read snapshot and when it
/// may invalidate cached version scans (a non-SELECT can write anywhere,
/// including a model's backing tables). Unparsable SQL reports `false` —
/// callers treat it as potentially writing and let execution surface the
/// parse error. `SELECT ... INTO t` materializes a table, so it reports
/// `false` too: serving it from an MVCC snapshot would silently discard
/// the created table.
pub fn is_select(sql: &str) -> bool {
    tokenize(sql)
        .map(|tokens| {
            tokens.first().is_some_and(|t| t.is_kw("select"))
                && !tokens.iter().any(|t| t.is_kw("into"))
        })
        .unwrap_or(false)
}

/// The table a statement would create, lower-cased: the target of a
/// `SELECT … INTO <name>` or a `CREATE TABLE [IF NOT EXISTS] <name>`. The
/// shared executor reserves that name across shards before running the
/// statement. Statements that cannot be either — the first word is
/// neither `CREATE` nor a `SELECT` with an `into` somewhere after it — are
/// told apart without tokenizing, so ordinary reads and writes pay
/// nothing for the question.
pub(crate) fn created_table(sql: &str) -> Option<String> {
    let head = sql.trim_start().as_bytes();
    let starts_with =
        |kw: &[u8]| head.len() >= kw.len() && head[..kw.len()].eq_ignore_ascii_case(kw);
    let select_into =
        starts_with(b"select") && head.windows(4).any(|w| w.eq_ignore_ascii_case(b"into"));
    if !select_into && !starts_with(b"create") {
        return None;
    }
    let tokens = tokenize(sql).ok()?;
    let name_at = if select_into {
        tokens.iter().position(|t| t.is_kw("into"))? + 1
    } else if tokens.get(1)?.is_kw("table") {
        // Past an optional `IF NOT EXISTS`.
        if tokens.get(2)?.is_kw("if") {
            5
        } else {
            2
        }
    } else {
        return None;
    };
    match tokens.get(name_at) {
        Some(Token::Ident(name)) => Some(name.to_ascii_lowercase()),
        _ => None,
    }
}

/// Translate versioned SQL into engine SQL.
pub fn translate(odb: &OrpheusDB, sql: &str) -> Result<String> {
    let tokens = tokenize(sql).map_err(CoreError::from)?;
    let mut out = String::new();
    let mut i = 0;
    let mut fresh = 0usize;
    while i < tokens.len() {
        // Pattern: VERSION <n> OF CVD <name> [AS alias | alias]
        if tokens[i].is_kw("version") {
            if let (Some(Token::Number(n)), Some(of), Some(cvd_kw), Some(Token::Ident(name))) = (
                tokens.get(i + 1),
                tokens.get(i + 2),
                tokens.get(i + 3),
                tokens.get(i + 4),
            ) {
                if of.is_kw("of") && cvd_kw.is_kw("cvd") {
                    let vid = Vid(n.parse::<u64>().map_err(|_| {
                        CoreError::bad_request(
                            crate::request::CommandKind::Run,
                            format!("bad version number {n}"),
                        )
                    })?);
                    let cvd = odb.cvd(name)?;
                    cvd.check_version(vid)?;
                    let (alias, consumed) = parse_alias(&tokens, i + 5, &cvd.name);
                    out.push_str(&version_subquery(cvd, vid, &alias, &mut fresh)?);
                    out.push(' ');
                    i += 5 + consumed;
                    continue;
                }
            }
        }
        // Pattern: CVD <name> [AS alias | alias]
        if tokens[i].is_kw("cvd") {
            if let Some(Token::Ident(name)) = tokens.get(i + 1) {
                let cvd = odb.cvd(name)?;
                let (alias, consumed) = parse_alias(&tokens, i + 2, &cvd.name);
                out.push_str(&whole_cvd_subquery(cvd, &alias, &mut fresh)?);
                out.push(' ');
                i += 2 + consumed;
                continue;
            }
        }
        if tokens[i] == Token::Eof {
            break;
        }
        out.push_str(&token_text(&tokens[i]));
        out.push(' ');
        i += 1;
    }
    Ok(out.trim_end().to_string())
}

/// Parse an optional `[AS] alias` following a versioned relation.
fn parse_alias(tokens: &[Token], start: usize, default: &str) -> (String, usize) {
    if let Some(t) = tokens.get(start) {
        if t.is_kw("as") {
            if let Some(Token::Ident(a)) = tokens.get(start + 1) {
                return (a.clone(), 2);
            }
        }
        if let Token::Ident(a) = t {
            if !is_clause_keyword(a) {
                return (a.clone(), 1);
            }
        }
    }
    (default.to_string(), 0)
}

fn is_clause_keyword(word: &str) -> bool {
    [
        "where", "group", "having", "order", "limit", "join", "inner", "on", "as", "select",
        "from", "union",
    ]
    .iter()
    .any(|k| word.eq_ignore_ascii_case(k))
}

fn attr_list(cvd: &Cvd) -> String {
    cvd.schema
        .columns
        .iter()
        .map(|c| c.name.clone())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Subquery exposing one version's records under `alias`.
fn version_subquery(cvd: &Cvd, vid: Vid, alias: &str, fresh: &mut usize) -> Result<String> {
    *fresh += 1;
    let k = *fresh;
    match cvd.model {
        ModelKind::SplitByRlist => {
            // The pair holding the version: its partition's, once optimized.
            let (data, rlist) = cvd.rlist_pair(vid)?;
            Ok(format!(
                "(SELECT d.* FROM {data} AS d, \
                 (SELECT unnest(rlist) AS __rid{k} FROM {rlist} WHERE vid = {v}) AS __t{k} \
                 WHERE d.rid = __rid{k}) AS {alias}",
                v = vid.0
            ))
        }
        ModelKind::SplitByVlist => Ok(format!(
            "(SELECT d.* FROM {data} AS d, \
             (SELECT rid AS __rid{k} FROM {vt} WHERE ARRAY[{v}] <@ vlist) AS __t{k} \
             WHERE d.rid = __rid{k}) AS {alias}",
            data = cvd.data_table(),
            vt = cvd.vlist_table(),
            v = vid.0
        )),
        ModelKind::CombinedTable => Ok(format!(
            "(SELECT rid, {attrs} FROM {t} WHERE ARRAY[{v}] <@ vlist) AS {alias}",
            attrs = attr_list(cvd),
            t = cvd.combined_table(),
            v = vid.0
        )),
        ModelKind::TablePerVersion => Ok(format!(
            "(SELECT * FROM {t}) AS {alias}",
            t = cvd.version_table(vid)
        )),
        ModelKind::DeltaBased => Err(CoreError::Invalid(
            "the delta-based model cannot answer versioned queries directly; \
             checkout the version first (Section 3.1)"
                .into(),
        )),
    }
}

/// Subquery exposing the whole CVD (all versions) with a `vid` column.
fn whole_cvd_subquery(cvd: &Cvd, alias: &str, fresh: &mut usize) -> Result<String> {
    *fresh += 1;
    let k = *fresh;
    match cvd.model {
        ModelKind::SplitByRlist => Ok(format!(
            "(SELECT d.*, __t{k}.vid FROM {data} AS d, \
             (SELECT vid, unnest(rlist) AS __rid{k} FROM {rlist}) AS __t{k} \
             WHERE d.rid = __t{k}.__rid{k}) AS {alias}",
            data = cvd.data_table(),
            rlist = cvd.rlist_table()
        )),
        ModelKind::SplitByVlist => Ok(format!(
            "(SELECT d.*, __t{k}.vid FROM {data} AS d, \
             (SELECT rid AS __rid{k}, unnest(vlist) AS vid FROM {vt}) AS __t{k} \
             WHERE d.rid = __t{k}.__rid{k}) AS {alias}",
            data = cvd.data_table(),
            vt = cvd.vlist_table()
        )),
        ModelKind::CombinedTable => Ok(format!(
            "(SELECT rid, {attrs}, unnest(vlist) AS vid FROM {t}) AS {alias}",
            attrs = attr_list(cvd),
            t = cvd.combined_table()
        )),
        ModelKind::TablePerVersion => Err(CoreError::Invalid(
            "a-table-per-version requires a UNION across per-version tables \
             for whole-CVD queries; use the split-by-rlist model"
                .into(),
        )),
        ModelKind::DeltaBased => Err(CoreError::Invalid(
            "the delta-based model cannot answer whole-CVD queries directly \
             (Section 3.1)"
                .into(),
        )),
    }
}

fn token_text(t: &Token) -> String {
    match t {
        Token::Ident(s) => s.clone(),
        Token::Number(n) => n.clone(),
        Token::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Token::LParen => "(".into(),
        Token::RParen => ")".into(),
        Token::LBracket => "[".into(),
        Token::RBracket => "]".into(),
        Token::Comma => ",".into(),
        Token::Dot => ".".into(),
        Token::Semicolon => ";".into(),
        Token::Star => "*".into(),
        Token::Plus => "+".into(),
        Token::Minus => "-".into(),
        Token::Slash => "/".into(),
        Token::Percent => "%".into(),
        Token::Eq => "=".into(),
        Token::NotEq => "<>".into(),
        Token::Lt => "<".into(),
        Token::LtEq => "<=".into(),
        Token::Gt => ">".into(),
        Token::GtEq => ">=".into(),
        Token::Concat => "||".into(),
        Token::ContainedBy => "<@".into(),
        Token::Contains => "@>".into(),
        Token::Eof => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orpheus_engine::{Column, DataType, Schema, Value};

    fn setup() -> OrpheusDB {
        let schema = Schema::new(vec![
            Column::new("protein1", DataType::Text),
            Column::new("protein2", DataType::Text),
            Column::new("score", DataType::Int),
        ])
        .with_primary_key(&["protein1", "protein2"])
        .unwrap();
        let rows = vec![
            vec!["a".into(), "b".into(), Value::Int(10)],
            vec!["a".into(), "c".into(), Value::Int(95)],
        ];
        let mut odb = OrpheusDB::new();
        odb.init_cvd("protein", schema, rows, None).unwrap();
        // v2 adds one high-scoring record.
        odb.checkout("protein", &[Vid(1)], "w").unwrap();
        odb.engine
            .execute("INSERT INTO w VALUES (NULL, 'x', 'y', 99)")
            .unwrap();
        odb.commit("w", "v2").unwrap();
        odb
    }

    #[test]
    fn version_of_cvd_queries_one_version() {
        let mut odb = setup();
        let r = odb
            .run("SELECT count(*) FROM VERSION 1 OF CVD protein")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
        let r = odb
            .run("SELECT count(*) FROM VERSION 2 OF CVD protein")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn joins_across_versions_via_aliases() {
        let mut odb = setup();
        let r = odb
            .run(
                "SELECT count(*) FROM VERSION 1 OF CVD protein AS v1, \
                 VERSION 2 OF CVD protein AS v2 \
                 WHERE v1.protein1 = v2.protein1 AND v1.protein2 = v2.protein2",
            )
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn whole_cvd_aggregate_grouped_by_vid() {
        let mut odb = setup();
        // The motivating query of the introduction: per-version aggregate.
        let r = odb
            .run("SELECT vid, count(*) AS n FROM CVD protein GROUP BY vid ORDER BY vid")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0], vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(r.rows[1], vec![Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn version_selection_by_predicate() {
        let mut odb = setup();
        // "versions with at least 3 records".
        let r = odb
            .run("SELECT vid FROM CVD protein GROUP BY vid HAVING count(*) >= 3")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn plain_sql_passes_through() {
        let mut odb = setup();
        odb.engine.execute("CREATE TABLE side (x INT)").unwrap();
        odb.run("INSERT INTO side VALUES (1)").unwrap();
        let r = odb.run("SELECT count(*) FROM side").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn delta_model_reports_unsupported() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let mut odb = OrpheusDB::new();
        odb.init_cvd(
            "d",
            schema,
            vec![vec![Value::Int(1)]],
            Some(ModelKind::DeltaBased),
        )
        .unwrap();
        let err = odb.run("SELECT * FROM VERSION 1 OF CVD d").unwrap_err();
        assert!(matches!(err, CoreError::Invalid(_)));
    }

    #[test]
    fn works_for_all_array_models() {
        for model in [
            ModelKind::CombinedTable,
            ModelKind::SplitByVlist,
            ModelKind::SplitByRlist,
        ] {
            let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
            let mut odb = OrpheusDB::new();
            odb.init_cvd(
                "d",
                schema,
                vec![vec![Value::Int(1)], vec![Value::Int(2)]],
                Some(model),
            )
            .unwrap();
            let r = odb.run("SELECT count(*) FROM VERSION 1 OF CVD d").unwrap();
            assert_eq!(r.scalar(), Some(&Value::Int(2)), "model {}", model.name());
            let r = odb
                .run("SELECT vid, count(*) FROM CVD d GROUP BY vid")
                .unwrap();
            assert_eq!(r.rows.len(), 1, "model {}", model.name());
        }
    }

    #[test]
    fn partitioned_version_query_uses_partition_tables() {
        let mut odb = setup();
        odb.optimize("protein").unwrap();
        let r = odb
            .run("SELECT count(*) FROM VERSION 2 OF CVD protein")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn unknown_cvd_or_version_errors() {
        let mut odb = setup();
        assert!(odb.run("SELECT * FROM VERSION 1 OF CVD nope").is_err());
        assert!(odb.run("SELECT * FROM VERSION 99 OF CVD protein").is_err());
    }

    /// One CVD named `d` under `model`, with a single int column and one
    /// committed version.
    fn odb_with_model(model: ModelKind) -> OrpheusDB {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let mut odb = OrpheusDB::new();
        odb.init_cvd("d", schema, vec![vec![Value::Int(1)]], Some(model))
            .unwrap();
        odb
    }

    /// Table-driven: the exact shape `VERSION 1 OF CVD d` translates to
    /// under every data model.
    #[test]
    fn version_translation_per_model() {
        struct Case {
            model: ModelKind,
            // Substrings the translated SQL must contain, in order.
            expect: &'static [&'static str],
        }
        let cases = [
            Case {
                model: ModelKind::SplitByRlist,
                expect: &[
                    "d__data",
                    "unnest(rlist)",
                    "FROM d__rlist WHERE vid = 1",
                    "AS d",
                ],
            },
            Case {
                model: ModelKind::SplitByVlist,
                expect: &["d__data", "FROM d__vlist", "ARRAY[1] <@ vlist", "AS d"],
            },
            Case {
                model: ModelKind::CombinedTable,
                expect: &[
                    "SELECT rid, x FROM d__combined",
                    "ARRAY[1] <@ vlist",
                    "AS d",
                ],
            },
            Case {
                model: ModelKind::TablePerVersion,
                expect: &["SELECT * FROM d__v1", "AS d"],
            },
        ];
        for case in cases {
            let odb = odb_with_model(case.model);
            let sql = translate(&odb, "SELECT count(*) FROM VERSION 1 OF CVD d").unwrap();
            let mut cursor = 0;
            for needle in case.expect {
                let at = sql[cursor..]
                    .find(needle)
                    .unwrap_or_else(|| panic!("{}: {needle:?} not in {sql:?}", case.model.name()));
                cursor += at + needle.len();
            }
            // The translated SQL actually executes.
            let mut odb = odb_with_model(case.model);
            let r = odb.run("SELECT count(*) FROM VERSION 1 OF CVD d").unwrap();
            assert_eq!(r.scalar(), Some(&Value::Int(1)), "{}", case.model.name());
        }

        // The delta model refuses versioned queries with a structured error.
        let odb = odb_with_model(ModelKind::DeltaBased);
        let err = translate(&odb, "SELECT count(*) FROM VERSION 1 OF CVD d").unwrap_err();
        assert!(matches!(err, CoreError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("delta"), "{err}");
    }

    /// Table-driven: whole-CVD translation (`FROM CVD d`) per model,
    /// including the two models that cannot answer it.
    #[test]
    fn whole_cvd_translation_per_model() {
        for (model, expect) in [
            (ModelKind::SplitByRlist, "FROM d__rlist"),
            (ModelKind::SplitByVlist, "unnest(vlist)"),
            (ModelKind::CombinedTable, "unnest(vlist) AS vid"),
        ] {
            let odb = odb_with_model(model);
            let sql = translate(&odb, "SELECT vid, count(*) FROM CVD d GROUP BY vid").unwrap();
            assert!(sql.contains(expect), "{}: {sql:?}", model.name());
        }
        for model in [ModelKind::TablePerVersion, ModelKind::DeltaBased] {
            let odb = odb_with_model(model);
            let err = translate(&odb, "SELECT vid FROM CVD d GROUP BY vid").unwrap_err();
            assert!(
                matches!(err, CoreError::Invalid(_)),
                "{}: {err}",
                model.name()
            );
        }
    }

    /// Error paths of the translator itself (not the engine): unknown CVD,
    /// unknown version, malformed version number.
    #[test]
    fn translate_error_paths() {
        let odb = odb_with_model(ModelKind::SplitByRlist);
        let err = translate(&odb, "SELECT * FROM VERSION 1 OF CVD nope").unwrap_err();
        assert!(
            matches!(err, CoreError::CvdNotFound(ref n) if n == "nope"),
            "{err}"
        );
        let err = translate(&odb, "SELECT * FROM VERSION 99 OF CVD d").unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::VersionNotFound {
                    version: Vid(99),
                    ..
                }
            ),
            "{err}"
        );
        let err = translate(&odb, "SELECT * FROM CVD nope").unwrap_err();
        assert!(matches!(err, CoreError::CvdNotFound(_)), "{err}");
        // A version number too large for u64 is a bad `run` request.
        let err = translate(
            &odb,
            "SELECT * FROM VERSION 99999999999999999999999 OF CVD d",
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::BadRequest {
                    command: crate::request::CommandKind::Run,
                    ..
                }
            ),
            "{err}"
        );
    }
}
