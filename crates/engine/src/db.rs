//! The database front-end: catalog of tables, session settings, statement
//! execution. This is the component that plays PostgreSQL's role in the
//! OrpheusDB architecture (Figure 2): the middleware connects here and
//! issues plain SQL, never version-aware operations.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{EngineError, Result};
use crate::exec::{ExecContext, JoinStrategy};
use crate::schema::{Column, Schema};
use crate::sql::ast::{ColumnDef, InsertSource, SqlExpr, Statement};
use crate::sql::parser::{parse_script, parse_statement};
use crate::sql::planner;
use crate::stats::ExecStats;
use crate::table::Table;
use crate::types::{DataType, Row, Value};

/// Session-level settings.
#[derive(Debug, Clone, Default)]
pub struct EngineSettings {
    /// Join algorithm used for planned equi-joins (Appendix D.1 experiments
    /// switch this between hash, merge, and index-nested-loop).
    pub join_strategy: JoinStrategy,
}

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: Schema,
    pub rows: Vec<Row>,
    /// Rows inserted/updated/deleted (or materialized by SELECT INTO).
    pub affected: usize,
}

impl QueryResult {
    fn empty() -> QueryResult {
        QueryResult {
            schema: Schema::new(vec![]),
            rows: Vec::new(),
            affected: 0,
        }
    }

    /// First value of the first row, if any (convenience for scalar queries).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// An in-memory relational database instance.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: HashMap<String, Table>,
    pub settings: EngineSettings,
    pub stats: ExecStats,
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    // -- catalog ------------------------------------------------------------

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| EngineError::TableNotFound(name.to_string()))
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| EngineError::TableNotFound(name.to_string()))
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Register a pre-built table.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        let key = table.name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(EngineError::TableExists(table.name.to_string()));
        }
        self.tables.insert(key, table);
        Ok(())
    }

    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        self.add_table(Table::new(name.to_ascii_lowercase(), schema))
    }

    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.take_table(name).map(|_| ())
    }

    /// Detach a table from the catalog, keeping its contents and indexes.
    /// This is how the middleware moves tables between per-CVD engine
    /// shards without copying row data.
    pub fn take_table(&mut self, name: &str) -> Result<Table> {
        self.tables
            .remove(&name.to_ascii_lowercase())
            .ok_or_else(|| EngineError::TableNotFound(name.to_string()))
    }

    /// Total storage (heap + indexes) across all tables, in bytes.
    pub fn total_storage_bytes(&self) -> usize {
        self.tables.values().map(|t| t.storage_bytes()).sum()
    }

    // -- execution ----------------------------------------------------------

    /// Execute a single SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        self.execute_statement(parse_statement(sql)?)
    }

    /// Execute a semicolon-separated script, returning the last result.
    pub fn execute_script(&mut self, sql: &str) -> Result<QueryResult> {
        let stmts = parse_script(sql)?;
        let mut last = QueryResult::empty();
        for stmt in stmts {
            last = self.execute_statement(stmt)?;
        }
        Ok(last)
    }

    /// Run one statement that cannot write — a `SELECT` without `INTO`,
    /// or `EXPLAIN` — on a shared borrow: the one entry for reads. Any
    /// other statement is refused with [`EngineError::NotAQuery`] and
    /// leaves the database as it was.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.query_statement(parse_statement(sql)?)
    }

    /// [`Database::query`] on a statement that is already parsed;
    /// [`Database::execute_statement`] delegates its reads here.
    pub fn query_statement(&self, stmt: Statement) -> Result<QueryResult> {
        let ctx = ExecContext {
            tables: &self.tables,
            stats: &self.stats,
        };
        match stmt {
            Statement::Select(sel) if sel.into.is_none() => {
                let mut chunk = planner::run_select(&sel, &ctx, self.settings.join_strategy)?;
                Ok(QueryResult {
                    affected: chunk.rows.len(),
                    schema: std::mem::take(&mut chunk.schema),
                    rows: chunk.into_rows(),
                })
            }
            Statement::Explain(sel) => {
                // Plan only — nothing executes, no statistics accrue.
                let planned = planner::plan_select(&sel, &ctx, self.settings.join_strategy)?;
                let lines = crate::exec::explain::render(&planned.plan);
                let schema = Schema::new(vec![Column::new("QUERY PLAN", DataType::Text)]);
                let rows: Vec<Row> = lines.into_iter().map(|l| vec![Value::Text(l)]).collect();
                Ok(QueryResult {
                    affected: rows.len(),
                    schema,
                    rows,
                })
            }
            _ => Err(EngineError::NotAQuery(
                "only a SELECT without INTO and EXPLAIN can run as a query".into(),
            )),
        }
    }

    pub fn execute_statement(&mut self, stmt: Statement) -> Result<QueryResult> {
        match stmt {
            Statement::Select(mut sel) if sel.into.is_some() => {
                // SELECT ... INTO t: materialize the query as a new table.
                // Like PostgreSQL, the result table copies column names
                // and types but no constraints: no primary key, everything
                // nullable.
                let target = sel.into.take().expect("matched on INTO");
                let QueryResult {
                    mut schema, rows, ..
                } = self.query_statement(Statement::Select(sel))?;
                if self.has_table(&target) {
                    return Err(EngineError::TableExists(target));
                }
                schema.primary_key.clear();
                for c in &mut schema.columns {
                    c.nullable = true;
                }
                let mut t = Table::new(target.to_ascii_lowercase(), schema);
                let n = rows.len();
                for row in rows {
                    t.insert(row)?;
                }
                self.add_table(t)?;
                Ok(QueryResult {
                    schema: Schema::new(vec![]),
                    rows: Vec::new(),
                    affected: n,
                })
            }
            read @ (Statement::Select(_) | Statement::Explain(_)) => self.query_statement(read),
            Statement::Insert {
                table,
                columns,
                source,
            } => self.all_or_nothing(&table, |db| db.exec_insert(&table, columns, source)),
            Statement::Update {
                table,
                assignments,
                filter,
            } => self.all_or_nothing(&table, |db| db.exec_update(&table, assignments, filter)),
            Statement::Delete { table, filter } => self.exec_delete(&table, filter),
            Statement::CreateTable {
                name,
                columns,
                primary_key,
                if_not_exists,
            } => {
                if self.has_table(&name) {
                    if if_not_exists {
                        return Ok(QueryResult::empty());
                    }
                    return Err(EngineError::TableExists(name));
                }
                let schema = schema_from_defs(&columns, &primary_key)?;
                self.create_table(&name, schema)?;
                Ok(QueryResult::empty())
            }
            Statement::DropTable { name, if_exists } => match self.drop_table(&name) {
                Ok(()) => Ok(QueryResult::empty()),
                Err(_) if if_exists => Ok(QueryResult::empty()),
                Err(e) => Err(e),
            },
            Statement::Truncate { table } => {
                self.table_mut(&table)?.truncate();
                Ok(QueryResult::empty())
            }
            Statement::AlterAddColumn { table, column } => {
                self.table_mut(&table)?
                    .add_column(Column::new(column.name, column.dtype))?;
                Ok(QueryResult::empty())
            }
            Statement::AlterColumnType {
                table,
                column,
                new_type,
            } => {
                self.table_mut(&table)?
                    .alter_column_type(&column, new_type)?;
                Ok(QueryResult::empty())
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
                // One ordered structure serves `USING BTREE` and `USING
                // HASH` alike.
                btree: _,
            } => {
                let index_name =
                    name.unwrap_or_else(|| format!("{}_{}_idx", table, columns.join("_")));
                let cols: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
                self.table_mut(&table)?
                    .create_index(index_name, &cols, unique)?;
                Ok(QueryResult::empty())
            }
            Statement::Cluster { table, columns } => {
                let cols: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
                self.table_mut(&table)?.cluster_by(&cols)?;
                Ok(QueryResult::empty())
            }
            Statement::Set { name, value } => {
                if name.eq_ignore_ascii_case("join_strategy") {
                    self.settings.join_strategy = JoinStrategy::parse(&value).ok_or_else(|| {
                        EngineError::Invalid(format!("unknown join strategy {value}"))
                    })?;
                    Ok(QueryResult::empty())
                } else {
                    Err(EngineError::Invalid(format!("unknown setting {name}")))
                }
            }
        }
    }

    /// Run a statement that writes `table` row by row, so that it takes
    /// effect whole or not at all: an O(1) clone of the table is kept and
    /// put back if the statement fails partway. Holding the clone makes the
    /// statement's first write copy the table's directories and then each
    /// chunk and index leaf it writes to, not its rows.
    fn all_or_nothing(
        &mut self,
        table: &str,
        run: impl FnOnce(&mut Database) -> Result<QueryResult>,
    ) -> Result<QueryResult> {
        let before = self.table(table).ok().cloned();
        let result = run(self);
        if let (Err(_), Some(before)) = (&result, before) {
            *self.table_mut(table)? = before;
        }
        result
    }

    fn exec_insert(
        &mut self,
        table: &str,
        columns: Option<Vec<String>>,
        source: InsertSource,
    ) -> Result<QueryResult> {
        // Materialize source rows first (immutable borrow), then insert.
        let raw_rows: Vec<Row> = match source {
            InsertSource::Values(value_rows) => {
                let ctx = ExecContext {
                    tables: &self.tables,
                    stats: &self.stats,
                };
                let mut out = Vec::with_capacity(value_rows.len());
                for exprs in value_rows {
                    let mut row = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        // A literal is its value; any other cell is
                        // lowered and evaluated.
                        row.push(match e {
                            SqlExpr::Literal(v) => v,
                            e => planner::lower_standalone_expr(
                                &e,
                                &ctx,
                                self.settings.join_strategy,
                            )?
                            .eval(&[])?,
                        });
                    }
                    out.push(row);
                }
                out
            }
            InsertSource::Select(sel) => {
                let ctx = ExecContext {
                    tables: &self.tables,
                    stats: &self.stats,
                };
                planner::run_select(&sel, &ctx, self.settings.join_strategy)?.into_rows()
            }
        };

        let t = self.table_mut(table)?;
        let rows: Vec<Row> = match columns {
            None => raw_rows,
            Some(cols) => {
                // Re-order the provided values into schema positions,
                // filling unspecified columns with NULL.
                let mut positions = Vec::with_capacity(cols.len());
                for c in &cols {
                    positions.push(t.schema.column_index(c)?);
                }
                raw_rows
                    .into_iter()
                    .map(|r| {
                        let mut full = vec![Value::Null; t.schema.arity()];
                        for (v, &p) in r.into_iter().zip(&positions) {
                            full[p] = v;
                        }
                        full
                    })
                    .collect()
            }
        };
        let mut n = 0;
        for row in rows {
            t.insert(row)?;
            n += 1;
        }
        Ok(QueryResult {
            schema: Schema::new(vec![]),
            rows: Vec::new(),
            affected: n,
        })
    }

    fn exec_update(
        &mut self,
        table: &str,
        assignments: Vec<(String, crate::sql::ast::SqlExpr)>,
        filter: Option<crate::sql::ast::SqlExpr>,
    ) -> Result<QueryResult> {
        // Phase 1 (immutable): lower expressions and compute replacement rows.
        let updates: Vec<(usize, Row)> = {
            let t = self.table(table)?;
            let schema = Arc::clone(&t.schema);
            let ctx = ExecContext {
                tables: &self.tables,
                stats: &self.stats,
            };
            let strategy = self.settings.join_strategy;
            let pred = match &filter {
                Some(f) => Some(planner::lower_table_expr(
                    f, table, &schema, &ctx, strategy,
                )?),
                None => None,
            };
            let mut lowered_assignments = Vec::with_capacity(assignments.len());
            for (col, e) in &assignments {
                let ci = schema.column_index(col)?;
                let lowered = planner::lower_table_expr(e, table, &schema, &ctx, strategy)?;
                lowered_assignments.push((ci, lowered));
            }
            let t = self.table(table)?;
            // An UPDATE reads every row of the table (the paper's expensive
            // combined-table commit is exactly this full-scan append).
            self.stats.add_rows_scanned(t.len() as u64);
            self.stats.add_seq_pages(
                crate::cost::pages_for(t.len(), t.page_row_bytes()),
                crate::cost::SEQ_PAGE_COST,
            );
            let mut out = Vec::new();
            for (slot, row) in t.rows().enumerate() {
                let matched = match &pred {
                    Some(p) => p.eval_predicate(row)?,
                    None => true,
                };
                if !matched {
                    continue;
                }
                let mut new_row = row.to_vec();
                for (ci, e) in &lowered_assignments {
                    new_row[*ci] = e.eval(row)?;
                }
                out.push((slot, new_row));
            }
            out
        };
        // Phase 2 (mutable): apply.
        let n = updates.len();
        let t = self.table_mut(table)?;
        for (slot, new_row) in updates {
            t.replace_row(slot, new_row)?;
        }
        Ok(QueryResult {
            schema: Schema::new(vec![]),
            rows: Vec::new(),
            affected: n,
        })
    }

    fn exec_delete(
        &mut self,
        table: &str,
        filter: Option<crate::sql::ast::SqlExpr>,
    ) -> Result<QueryResult> {
        let slots: Vec<usize> = {
            let t = self.table(table)?;
            let schema = Arc::clone(&t.schema);
            let ctx = ExecContext {
                tables: &self.tables,
                stats: &self.stats,
            };
            let pred = match &filter {
                Some(f) => Some(planner::lower_table_expr(
                    f,
                    table,
                    &schema,
                    &ctx,
                    self.settings.join_strategy,
                )?),
                None => None,
            };
            let t = self.table(table)?;
            self.stats.add_rows_scanned(t.len() as u64);
            let mut out = Vec::new();
            for (slot, row) in t.rows().enumerate() {
                let matched = match &pred {
                    Some(p) => p.eval_predicate(row)?,
                    None => true,
                };
                if matched {
                    out.push(slot);
                }
            }
            out
        };
        let n = self.table_mut(table)?.delete_slots(slots);
        Ok(QueryResult {
            schema: Schema::new(vec![]),
            rows: Vec::new(),
            affected: n,
        })
    }
}

fn schema_from_defs(columns: &[ColumnDef], table_pk: &[String]) -> Result<Schema> {
    let mut cols = Vec::with_capacity(columns.len());
    let mut pk_names: Vec<String> = Vec::new();
    for c in columns {
        let mut col = Column::new(c.name.clone(), c.dtype);
        if c.not_null || c.primary_key {
            col = col.not_null();
        }
        if c.primary_key {
            pk_names.push(c.name.clone());
        }
        cols.push(col);
    }
    if !table_pk.is_empty() {
        if !pk_names.is_empty() {
            return Err(EngineError::Invalid(
                "duplicate PRIMARY KEY specification".into(),
            ));
        }
        pk_names = table_pk.to_vec();
    }
    let schema = Schema::new(cols);
    if pk_names.is_empty() {
        Ok(schema)
    } else {
        let names: Vec<&str> = pk_names.iter().map(|s| s.as_str()).collect();
        schema.with_primary_key(&names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_protein() -> Database {
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE combined (protein1 TEXT, protein2 TEXT, neighborhood INT, \
             cooccurrence INT, coexpression INT, vlist INT[])",
        )
        .unwrap();
        // Figure 1(b) data.
        let rows = [
            ("ENSP273047", "ENSP261890", 0, 53, 0, vec![1]),
            ("ENSP273047", "ENSP261890", 0, 53, 83, vec![3, 4]),
            ("ENSP273047", "ENSP235932", 0, 87, 0, vec![1, 2, 3, 4]),
            ("ENSP300413", "ENSP274242", 426, 0, 164, vec![1, 2, 4]),
            ("ENSP309334", "ENSP346022", 0, 227, 975, vec![2, 4]),
            ("ENSP332973", "ENSP300134", 0, 0, 83, vec![3, 4]),
            ("ENSP472847", "ENSP365773", 225, 0, 73, vec![3, 4]),
        ];
        for (p1, p2, n, co, cx, vl) in rows {
            db.execute(&format!(
                "INSERT INTO combined VALUES ('{p1}', '{p2}', {n}, {co}, {cx}, ARRAY[{}])",
                vl.iter()
                    .map(|v: &i64| v.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
            .unwrap();
        }
        db
    }

    /// `query` runs on a shared borrow: a statement that writes — an
    /// `INSERT`, a `SELECT … INTO` — is refused with `NotAQuery`, and the
    /// database is left as it was.
    #[test]
    fn query_refuses_a_statement_that_writes() {
        let db = db_with_protein();
        let count = || db.query("SELECT count(*) FROM combined").unwrap().rows;
        let before = (db.table_names(), count());
        for sql in [
            "INSERT INTO combined VALUES ('a', 'b', 0, 0, 0, ARRAY[5])",
            "SELECT * INTO t FROM combined",
        ] {
            let err = db.query(sql).unwrap_err();
            assert!(matches!(err, EngineError::NotAQuery(_)), "{sql}: {err}");
        }
        assert_eq!((db.table_names(), count()), before);
        let plan = db.query("EXPLAIN SELECT * FROM combined").unwrap();
        assert!(!plan.rows.is_empty());
    }

    #[test]
    fn table1_combined_table_checkout_and_commit() {
        let mut db = db_with_protein();
        // CHECKOUT v1 (Table 1, combined-table column).
        let r = db
            .execute("SELECT * INTO T2 FROM combined WHERE ARRAY[1] <@ vlist")
            .unwrap();
        assert_eq!(r.affected, 3);
        // COMMIT as v5: append 5 to vlist of each record present in T2.
        // (The paper matches on rid; the combined model here has no rid, so
        // we approximate the subquery with the same containment predicate.)
        let r = db
            .execute("UPDATE combined SET vlist = vlist + 5 WHERE ARRAY[1] <@ vlist")
            .unwrap();
        assert_eq!(r.affected, 3);
        let r = db
            .execute("SELECT count(*) FROM combined WHERE ARRAY[5] <@ vlist")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn select_into_rejects_existing_table() {
        let mut db = db_with_protein();
        db.execute("SELECT * INTO T2 FROM combined").unwrap();
        let err = db.execute("SELECT * INTO T2 FROM combined").unwrap_err();
        assert!(matches!(err, EngineError::TableExists(_)));
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT, b TEXT, c DOUBLE)")
            .unwrap();
        db.execute("INSERT INTO t (c, a) VALUES (1.5, 7)").unwrap();
        let r = db.query("SELECT a, b, c FROM t").unwrap();
        assert_eq!(
            r.rows[0],
            vec![Value::Int(7), Value::Null, Value::Double(1.5)]
        );
    }

    #[test]
    fn insert_from_select() {
        let mut db = db_with_protein();
        db.execute("CREATE TABLE strong (protein1 TEXT, protein2 TEXT)")
            .unwrap();
        let r = db
            .execute(
                "INSERT INTO strong SELECT protein1, protein2 FROM combined WHERE cooccurrence > 50",
            )
            .unwrap();
        assert_eq!(r.affected, 4);
    }

    #[test]
    fn update_with_in_subquery() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (rid INT PRIMARY KEY, vlist INT[])")
            .unwrap();
        db.execute("CREATE TABLE picked (rid INT)").unwrap();
        for i in 0..5 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, ARRAY[1])"))
                .unwrap();
        }
        db.execute("INSERT INTO picked VALUES (1), (3)").unwrap();
        let r = db
            .execute("UPDATE t SET vlist = vlist + 9 WHERE rid IN (SELECT rid FROM picked)")
            .unwrap();
        assert_eq!(r.affected, 2);
        let r = db
            .query("SELECT count(*) FROM t WHERE ARRAY[9] <@ vlist")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn delete_and_truncate() {
        let mut db = db_with_protein();
        let r = db
            .execute("DELETE FROM combined WHERE coexpression = 0")
            .unwrap();
        assert_eq!(r.affected, 2);
        db.execute("TRUNCATE combined").unwrap();
        let r = db.query("SELECT count(*) FROM combined").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn ddl_roundtrip_and_catalog() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
            .unwrap();
        assert!(db.has_table("T")); // case-insensitive
        db.execute("ALTER TABLE t ADD COLUMN c DOUBLE").unwrap();
        db.execute("ALTER TABLE t ALTER COLUMN a TYPE DOUBLE")
            .unwrap();
        db.execute("CREATE INDEX ON t (b)").unwrap();
        db.execute("CLUSTER t USING (a)").unwrap();
        db.execute("DROP TABLE IF EXISTS missing").unwrap();
        assert!(db.execute("DROP TABLE missing").is_err());
        db.execute("DROP TABLE t").unwrap();
        assert!(!db.has_table("t"));
    }

    #[test]
    fn set_join_strategy() {
        let mut db = Database::new();
        db.execute("SET join_strategy = 'merge'").unwrap();
        assert_eq!(db.settings.join_strategy, JoinStrategy::Merge);
        assert!(db.execute("SET join_strategy = 'bogus'").is_err());
        assert!(db.execute("SET nope = '1'").is_err());
    }

    #[test]
    fn stats_accumulate_per_statement() {
        let db = db_with_protein();
        db.stats.reset();
        db.query("SELECT * FROM combined").unwrap();
        assert_eq!(db.stats.rows_scanned(), 7);
    }

    #[test]
    fn execute_script_runs_all() {
        let mut db = Database::new();
        let r = db
            .execute_script(
                "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2); SELECT count(*) FROM t;",
            )
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn storage_accounting_total() {
        let db = db_with_protein();
        assert!(db.total_storage_bytes() > 0);
    }

    /// `t (k INT PRIMARY KEY, v INT)` with rows `(1, 10)`, `(2, 20)` and
    /// an index on `v`, and `src (k INT)` with rows `3`, `1`.
    fn keyed_db() -> Database {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE t (k INT PRIMARY KEY, v INT); \
             INSERT INTO t VALUES (1, 10), (2, 20); \
             CREATE INDEX t_v ON t (v); \
             CREATE TABLE src (k INT); \
             INSERT INTO src VALUES (3), (1);",
        )
        .unwrap();
        db
    }

    /// Every row of `t`, and each found at its slot through every index.
    fn rows_and_lookups(db: &Database) -> Vec<Row> {
        let t = db.table("t").unwrap();
        for (slot, row) in t.rows().enumerate() {
            for idx in t.indexes() {
                assert_eq!(idx.lookup(&idx.key_of(row)), &[slot], "{}", idx.name);
            }
        }
        t.rows().map(<[Value]>::to_vec).collect()
    }

    #[test]
    fn a_failing_insert_or_update_leaves_no_row_behind() {
        for statement in [
            "INSERT INTO t VALUES (3, 30), (4, 40), (3, 50)",
            "INSERT INTO t SELECT 5 - k * 2, v FROM t",
            "INSERT INTO t (k) SELECT k FROM src",
            "UPDATE t SET k = 5",
            "UPDATE t SET v = 99, k = 3",
        ] {
            let mut db = keyed_db();
            let before = rows_and_lookups(&db);
            let storage = db.total_storage_bytes();
            let err = db.execute(statement).unwrap_err();
            assert!(
                matches!(err, EngineError::UniqueViolation(_)),
                "{statement}: {err:?}"
            );
            assert_eq!(rows_and_lookups(&db), before, "{statement}");
            assert_eq!(db.total_storage_bytes(), storage, "{statement}");
            assert!(db
                .query("SELECT * FROM t WHERE v = 99")
                .unwrap()
                .rows
                .is_empty());
        }
        // A statement that succeeds keeps all of its rows.
        let mut db = keyed_db();
        db.execute("INSERT INTO t VALUES (3, 30), (4, 40)").unwrap();
        assert_eq!(rows_and_lookups(&db).len(), 4);
    }

    #[test]
    fn alter_column_type_refuses_to_merge_primary_keys() {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE t (k INT PRIMARY KEY, v INT); \
             INSERT INTO t VALUES (9007199254740993, 1), (9007199254740992, 2);",
        )
        .unwrap();
        let err = db
            .execute("ALTER TABLE t ALTER COLUMN k TYPE DOUBLE")
            .unwrap_err();
        assert!(matches!(err, EngineError::UniqueViolation(_)), "{err:?}");
        let r = db
            .query("SELECT k FROM t WHERE k = 9007199254740993")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(9_007_199_254_740_993)]]);
        assert_eq!(
            db.table("t").unwrap().schema.columns[0].dtype,
            crate::types::DataType::Int
        );
    }

    #[test]
    fn pk_violation_through_sql() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT PRIMARY KEY)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let err = db.execute("INSERT INTO t VALUES (1)").unwrap_err();
        assert!(matches!(err, EngineError::UniqueViolation(_)));
    }
}
