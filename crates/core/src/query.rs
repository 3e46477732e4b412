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
//!
//! A single version of a split model is a semi-join, `SELECT * FROM data
//! WHERE rid IN (the version's rids)`, which the engine answers through the
//! data table's rid index: a query costs |Rv|, as a checkout does, not |R|.
//! Table 1's join of the data table against the unnested rlist is what the
//! paper writes for *checkout*, and checkout's SQL formulation keeps it
//! verbatim; whole-CVD queries (`FROM CVD x`) read every version and keep
//! the join too.

use std::borrow::Cow;
use std::collections::HashSet;

use orpheus_engine::sql::lexer::{tokenize, Token};
use orpheus_engine::EngineError;

use crate::cvd::Cvd;
use crate::db::OrpheusDB;
use crate::error::{CoreError, Result};
use crate::ids::Vid;
use crate::model::ModelKind;

/// One lexing of a SQL statement — the only place the middleware turns
/// SQL text into tokens. A [`crate::request::Run`] caches one of these, and
/// everything that has to look at the statement before the engine runs it
/// (batch routing, the Section 2.3 access guard, the side-table name
/// check, this module's translator) reads the same token vector, which the
/// engine's parser then consumes as it is.
#[derive(Debug, Clone)]
pub struct Lexed {
    /// What the engine's lexer returned, `Eof` included.
    tokens: Vec<Token>,
}

impl Lexed {
    pub fn new(sql: &str) -> std::result::Result<Lexed, EngineError> {
        tokenize(sql).map(|tokens| Lexed { tokens })
    }

    /// The tokens, ending in `Eof`.
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// The identifiers and keywords of the statement, each spelling once,
    /// in order of first appearance — what the name-by-name checks
    /// (routing, the access guard) walk, so that the 200 `NULL`s of a
    /// 200-row `INSERT` cost them one lookup.
    pub fn idents(&self) -> impl Iterator<Item = &str> {
        let mut seen = HashSet::new();
        self.tokens.iter().filter_map(move |t| match t {
            Token::Ident(name) if seen.insert(name.as_str()) => Some(name.as_str()),
            _ => None,
        })
    }

    fn starts_with(&self, kw: &str) -> bool {
        self.tokens.first().is_some_and(|t| t.is_kw(kw))
    }

    /// Where the `INTO` of a `SELECT … INTO <name>` sits: the one shape of
    /// `SELECT` that writes (it materializes a table).
    fn select_into(&self) -> Option<usize> {
        if !self.starts_with("select") {
            return None;
        }
        self.tokens.iter().position(|t| t.is_kw("into"))
    }

    /// Whether the statement is a plain `SELECT`. Executors use this to
    /// decide when a statement can be served from a read snapshot (a
    /// non-SELECT can write anywhere, including a model's backing
    /// tables). `SELECT … INTO t` reports `false`: serving it from an MVCC
    /// snapshot would silently discard the created table.
    pub fn is_select(&self) -> bool {
        self.starts_with("select") && self.select_into().is_none()
    }

    /// The table the statement would create, lower-cased: the target of a
    /// `SELECT … INTO <name>` or a `CREATE TABLE [IF NOT EXISTS] <name>`.
    /// The shared executor runs such a statement as a shard transaction,
    /// which leaves the table in the auxiliary shard.
    pub fn created_table(&self) -> Option<String> {
        let name_at = if let Some(into) = self.select_into() {
            into + 1
        } else if self.starts_with("create") && self.tokens.get(1)?.is_kw("table") {
            // Past an optional `IF NOT EXISTS`.
            if self.tokens.get(2)?.is_kw("if") {
                5
            } else {
                2
            }
        } else {
            return None;
        };
        match self.tokens.get(name_at) {
            Some(Token::Ident(name)) => Some(name.to_ascii_lowercase()),
            _ => None,
        }
    }
}

/// Translate versioned SQL into engine SQL, token vector to token vector:
/// every `VERSION <n> OF CVD <name> [[AS] alias]` and `CVD <name> [[AS]
/// alias]` is replaced by the tokens of the model's subquery. A statement
/// without either comes back borrowed.
pub fn translate<'t>(odb: &OrpheusDB, tokens: &'t [Token]) -> Result<Cow<'t, [Token]>> {
    let mut out = Cow::Borrowed(tokens);
    let mut fresh = 0usize;
    let mut i = 0;
    while i < out.len() {
        match versioned_relation(odb, &out[i..], &mut fresh)? {
            Some((consumed, subquery)) => {
                let spliced = subquery.len();
                out.to_mut().splice(i..i + consumed, subquery);
                i += spliced;
            }
            None => i += 1,
        }
    }
    Ok(out)
}

/// A versioned relation at the head of `tokens`: how many tokens it spans
/// and the subquery that replaces them.
fn versioned_relation(
    odb: &OrpheusDB,
    tokens: &[Token],
    fresh: &mut usize,
) -> Result<Option<(usize, Vec<Token>)>> {
    let (consumed, subquery) = match tokens {
        // Pattern: VERSION <n> OF CVD <name> [AS alias | alias]
        [version, Token::Number(n), of, cvd_kw, Token::Ident(name), ..]
            if version.is_kw("version") && of.is_kw("of") && cvd_kw.is_kw("cvd") =>
        {
            let vid = Vid(n.parse::<u64>().map_err(|_| {
                CoreError::bad_request(
                    crate::request::CommandKind::Run,
                    format!("bad version number {n}"),
                )
            })?);
            let cvd = odb.cvd(name)?;
            cvd.check_version(vid)?;
            let (alias, aliased) = parse_alias(tokens, 5, &cvd.name);
            (5 + aliased, version_subquery(cvd, vid, &alias)?)
        }
        // Pattern: CVD <name> [AS alias | alias]
        [cvd_kw, Token::Ident(name), ..] if cvd_kw.is_kw("cvd") => {
            let cvd = odb.cvd(name)?;
            let (alias, aliased) = parse_alias(tokens, 2, &cvd.name);
            (2 + aliased, whole_cvd_subquery(cvd, &alias, fresh)?)
        }
        _ => return Ok(None),
    };
    let mut subquery = Lexed::new(&subquery)?.tokens;
    subquery.pop(); // its Eof
    Ok(Some((consumed, subquery)))
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
///
/// The split models read the version as a semi-join, `rid IN (the
/// version's rids)`, not as Table 1's join of the data table against them:
/// the engine turns an `IN` set on the indexed `rid` column into rid-index
/// probes, so a query reads the version's |Rv| records where the join
/// hash-probed a copy of every record of the data table. The rows and
/// their order are the join's (`tests/fastpath_equivalence.rs` pins it);
/// Table 1 stays the specification of checkout (`checkout_sql` and
/// `version_rows_sql` of `model::split_rlist` and `model::split_vlist`).
fn version_subquery(cvd: &Cvd, vid: Vid, alias: &str) -> Result<String> {
    match cvd.model {
        ModelKind::SplitByRlist => {
            // The pair holding the version: its partition's, once optimized.
            let (data, rlist) = cvd.rlist_pair(vid)?;
            Ok(format!(
                "(SELECT * FROM {data} WHERE rid IN \
                 (SELECT unnest(rlist) FROM {rlist} WHERE vid = {v})) AS {alias}",
                v = vid.0
            ))
        }
        ModelKind::SplitByVlist => Ok(format!(
            "(SELECT * FROM {data} WHERE rid IN \
             (SELECT rid FROM {vt} WHERE ARRAY[{v}] <@ vlist)) AS {alias}",
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

    /// `sql` translated against `odb`, for assertions on the rewrite.
    fn translated(odb: &OrpheusDB, sql: &str) -> Result<Vec<Token>> {
        let lexed = Lexed::new(sql).unwrap();
        translate(odb, lexed.tokens()).map(Cow::into_owned)
    }

    /// Where the tokens of `needle` end in `haystack`, searching from
    /// token `from` on.
    fn find_tokens(haystack: &[Token], needle: &str, from: usize) -> Option<usize> {
        let needle = Lexed::new(needle).unwrap();
        let needle = &needle.tokens()[..needle.tokens().len() - 1];
        haystack[from..]
            .windows(needle.len())
            .position(|w| w == needle)
            .map(|at| from + at + needle.len())
    }

    /// Table-driven: what the lexed statement answers about itself.
    #[test]
    fn lexed_statement_classification() {
        // (sql, is_select, created_table)
        let cases: &[(&str, bool, Option<&str>)] = &[
            ("SELECT 1", true, None),
            ("select count(*) from t", true, None),
            ("SELECT * FROM VERSION 1 OF CVD d", true, None),
            ("SELECT * FROM t;", true, None),
            ("-- how many\nSELECT count(*) FROM t", true, None),
            ("  \n\tSELECT 1", true, None),
            ("INSERT INTO t VALUES (1)", false, None),
            ("UPDATE t SET v = 1", false, None),
            ("DELETE FROM t", false, None),
            ("DROP TABLE t", false, None),
            ("EXPLAIN SELECT 1", false, None),
            // `SELECT … INTO` writes: not a read, and it names its table.
            ("SELECT * INTO Side FROM t", false, Some("side")),
            ("select k into s2 from t where v > 1;", false, Some("s2")),
            ("-- copy\nSELECT * INTO c FROM t", false, Some("c")),
            // An `into` that is not the keyword changes nothing.
            ("SELECT 'into' FROM t", true, None),
            ("SELECT * FROM t WHERE note = 'put into x'", true, None),
            ("INSERT INTO t VALUES ('select into')", false, None),
            ("CREATE TABLE Side (k INT)", false, Some("side")),
            ("create table if not exists s3 (k INT);", false, Some("s3")),
            ("-- ddl\nCREATE TABLE s4 (k INT)", false, Some("s4")),
            ("CREATE INDEX i ON t (k)", false, None),
            ("CREATE UNIQUE INDEX i ON t USING BTREE (k)", false, None),
            // Nothing where the name should be.
            ("SELECT * INTO", false, None),
            ("CREATE TABLE", false, None),
            ("CREATE TABLE IF NOT EXISTS", false, None),
            ("", false, None),
        ];
        for (sql, is_select, created) in cases {
            let lexed = Lexed::new(sql).unwrap_or_else(|e| panic!("{sql:?}: {e}"));
            assert_eq!(lexed.is_select(), *is_select, "is_select of {sql:?}");
            assert_eq!(
                lexed.created_table().as_deref(),
                *created,
                "created_table of {sql:?}"
            );
        }
    }

    /// An unlexable statement is a parse error wherever it is asked, and
    /// never a read; equality and `Debug` of a `Run` are its text's,
    /// lexed or not.
    #[test]
    fn a_run_caches_its_lexing_and_stays_its_text() {
        use crate::request::Run;
        let bad = Run::sql("SELECT 'open");
        for _ in 0..2 {
            let err = bad.lexed().unwrap_err();
            assert!(
                matches!(err, CoreError::Engine(EngineError::Parse(_))),
                "{err}"
            );
        }
        assert!(!bad.is_select());

        let run = Run::sql("SELECT * FROM t, t AS u WHERE t.k = u.k");
        let fresh = run.clone();
        assert!(run.is_select());
        assert_eq!(run, fresh);
        assert_eq!(format!("{run:?}"), format!("{fresh:?}"));
        assert_eq!(run.text(), "SELECT * FROM t, t AS u WHERE t.k = u.k");
        // Each spelling once, in order of first appearance.
        let idents: Vec<&str> = run.lexed().unwrap().idents().collect();
        assert_eq!(
            idents,
            ["SELECT", "FROM", "t", "AS", "u", "WHERE", "k"],
            "{run:?}"
        );
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
            // Token runs the translated SQL must contain, in order.
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
            let sql = translated(&odb, "SELECT count(*) FROM VERSION 1 OF CVD d").unwrap();
            let mut cursor = 0;
            for needle in case.expect {
                cursor = find_tokens(&sql, needle, cursor)
                    .unwrap_or_else(|| panic!("{}: {needle:?} not in {sql:?}", case.model.name()));
            }
            // The translated SQL actually executes.
            let mut odb = odb_with_model(case.model);
            let r = odb.run("SELECT count(*) FROM VERSION 1 OF CVD d").unwrap();
            assert_eq!(r.scalar(), Some(&Value::Int(1)), "{}", case.model.name());
        }

        // The delta model refuses versioned queries with a structured error.
        let odb = odb_with_model(ModelKind::DeltaBased);
        let err = translated(&odb, "SELECT count(*) FROM VERSION 1 OF CVD d").unwrap_err();
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
            let sql = translated(&odb, "SELECT vid, count(*) FROM CVD d GROUP BY vid").unwrap();
            assert!(
                find_tokens(&sql, expect, 0).is_some(),
                "{}: {sql:?}",
                model.name()
            );
        }
        for model in [ModelKind::TablePerVersion, ModelKind::DeltaBased] {
            let odb = odb_with_model(model);
            let err = translated(&odb, "SELECT vid FROM CVD d GROUP BY vid").unwrap_err();
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
        let err = translated(&odb, "SELECT * FROM VERSION 1 OF CVD nope").unwrap_err();
        assert!(
            matches!(err, CoreError::CvdNotFound(ref n) if n == "nope"),
            "{err}"
        );
        let err = translated(&odb, "SELECT * FROM VERSION 99 OF CVD d").unwrap_err();
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
        let err = translated(&odb, "SELECT * FROM CVD nope").unwrap_err();
        assert!(matches!(err, CoreError::CvdNotFound(_)), "{err}");
        // A version number too large for u64 is a bad `run` request.
        let err = translated(
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
