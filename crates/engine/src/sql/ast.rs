//! Abstract syntax tree for the SQL dialect, with a pretty-printer whose
//! output re-parses to the same tree (property-tested).

use std::fmt;

use crate::expr::BinOp;
use crate::types::{DataType, Value};

/// A full SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        source: InsertSource,
    },
    Update {
        table: String,
        assignments: Vec<(String, SqlExpr)>,
        filter: Option<SqlExpr>,
    },
    Delete {
        table: String,
        filter: Option<SqlExpr>,
    },
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
        primary_key: Vec<String>,
        if_not_exists: bool,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    Truncate {
        table: String,
    },
    AlterAddColumn {
        table: String,
        column: ColumnDef,
    },
    AlterColumnType {
        table: String,
        column: String,
        new_type: DataType,
    },
    CreateIndex {
        name: Option<String>,
        table: String,
        columns: Vec<String>,
        unique: bool,
        btree: bool,
    },
    /// `CLUSTER t USING (col, ...)` — physically sort the heap.
    Cluster {
        table: String,
        columns: Vec<String>,
    },
    /// `SET name = value` — engine session settings (join strategy).
    Set {
        name: String,
        value: String,
    },
    /// `EXPLAIN SELECT ...` — render the physical plan without executing.
    Explain(Box<SelectStmt>),
}

impl Statement {
    /// The existing table whose rows or columns the statement changes
    /// (`INSERT`, `UPDATE`, `DELETE`, `TRUNCATE`, `ALTER TABLE`, `DROP
    /// TABLE`). Statements that only read, create a new table, or add an
    /// index or reorder a heap without changing a cell report `None`.
    pub fn altered_table(&self) -> Option<&str> {
        match self {
            Statement::Insert { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. }
            | Statement::Truncate { table }
            | Statement::AlterAddColumn { table, .. }
            | Statement::AlterColumnType { table, .. } => Some(table),
            Statement::DropTable { name, .. } => Some(name),
            Statement::Select(_)
            | Statement::CreateTable { .. }
            | Statement::CreateIndex { .. }
            | Statement::Cluster { .. }
            | Statement::Set { .. }
            | Statement::Explain(_) => None,
        }
    }
}

/// Column definition in CREATE TABLE / ALTER TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub dtype: DataType,
    pub not_null: bool,
    pub primary_key: bool,
}

/// Source of rows for INSERT.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<SqlExpr>>),
    Select(Box<SelectStmt>),
}

/// A SELECT statement (optionally `SELECT ... INTO t ...`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    pub items: Vec<SelectItem>,
    pub into: Option<String>,
    pub from: Vec<FromItem>,
    pub filter: Option<SqlExpr>,
    pub group_by: Vec<SqlExpr>,
    pub having: Option<SqlExpr>,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<u64>,
}

/// ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub expr: SqlExpr,
    pub desc: bool,
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    Expr {
        expr: SqlExpr,
        alias: Option<String>,
    },
}

/// A FROM-clause item. Comma-separated items are kept as a list on
/// [`SelectStmt::from`]; explicit `JOIN ... ON` nests here.
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    Table {
        name: String,
        alias: Option<String>,
    },
    Subquery {
        query: Box<SelectStmt>,
        alias: String,
    },
    Join {
        left: Box<FromItem>,
        right: Box<FromItem>,
        on: SqlExpr,
    },
}

/// Expression syntax.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    Literal(Value),
    Column {
        qualifier: Option<String>,
        name: String,
    },
    BinOp {
        op: BinOp,
        left: Box<SqlExpr>,
        right: Box<SqlExpr>,
    },
    Not(Box<SqlExpr>),
    Neg(Box<SqlExpr>),
    /// Function call — scalar functions, aggregates, and `unnest`.
    Func {
        name: String,
        args: Vec<SqlExpr>,
        distinct: bool,
        /// `count(*)`
        star: bool,
    },
    /// `ARRAY[e1, e2, ...]`
    ArrayLit(Vec<SqlExpr>),
    /// `ARRAY(SELECT ...)` — collects a single int column into an array.
    ArraySubquery(Box<SelectStmt>),
    /// `e IN (v1, v2, ...)` / `e NOT IN (...)`
    InList {
        expr: Box<SqlExpr>,
        list: Vec<SqlExpr>,
        negated: bool,
    },
    /// `e IN (SELECT ...)`
    InSubquery {
        expr: Box<SqlExpr>,
        query: Box<SelectStmt>,
        negated: bool,
    },
    /// `(SELECT ...)` producing a single value.
    ScalarSubquery(Box<SelectStmt>),
    /// `e = ANY(array_expr)`
    AnyEq {
        left: Box<SqlExpr>,
        array: Box<SqlExpr>,
    },
    IsNull {
        expr: Box<SqlExpr>,
        negated: bool,
    },
}

impl SqlExpr {
    pub fn col(name: &str) -> SqlExpr {
        SqlExpr::Column {
            qualifier: None,
            name: name.to_string(),
        }
    }

    pub fn lit(v: impl Into<Value>) -> SqlExpr {
        SqlExpr::Literal(v.into())
    }

    pub fn bin(op: BinOp, l: SqlExpr, r: SqlExpr) -> SqlExpr {
        SqlExpr::BinOp {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }
}

// ---------------------------------------------------------------------------
// Pretty-printing. The printer parenthesizes all nested binary expressions,
// which keeps it trivially unambiguous for the re-parse property test.
// ---------------------------------------------------------------------------

fn fmt_value(v: &Value, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match v {
        Value::Text(s) => write!(f, "'{}'", s.replace('\'', "''")),
        Value::IntArray(a) => {
            write!(f, "ARRAY[")?;
            for (i, x) in a.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{x}")?;
            }
            write!(f, "]")
        }
        Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        Value::Null => write!(f, "NULL"),
        other => write!(f, "{other}"),
    }
}

impl fmt::Display for SqlExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlExpr::Literal(v) => fmt_value(v, f),
            SqlExpr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            SqlExpr::BinOp { op, left, right } => {
                write!(f, "({left} {op_s} {right})", op_s = display_op(*op))
            }
            SqlExpr::Not(e) => write!(f, "(NOT {e})"),
            SqlExpr::Neg(e) => write!(f, "(-{e})"),
            SqlExpr::Func {
                name,
                args,
                distinct,
                star,
            } => {
                write!(f, "{name}(")?;
                if *star {
                    write!(f, "*")?;
                } else {
                    if *distinct {
                        write!(f, "DISTINCT ")?;
                    }
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                }
                write!(f, ")")
            }
            SqlExpr::ArrayLit(es) => {
                write!(f, "ARRAY[")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            SqlExpr::ArraySubquery(q) => write!(f, "ARRAY({q})"),
            SqlExpr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
            SqlExpr::InSubquery {
                expr,
                query,
                negated,
            } => write!(
                f,
                "({expr} {}IN ({query}))",
                if *negated { "NOT " } else { "" }
            ),
            SqlExpr::ScalarSubquery(q) => write!(f, "({q})"),
            SqlExpr::AnyEq { left, array } => write!(f, "({left} = ANY({array}))"),
            SqlExpr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
        }
    }
}

fn display_op(op: BinOp) -> &'static str {
    match op {
        BinOp::Eq => "=",
        BinOp::NotEq => "<>",
        BinOp::Lt => "<",
        BinOp::LtEq => "<=",
        BinOp::Gt => ">",
        BinOp::GtEq => ">=",
        BinOp::And => "AND",
        BinOp::Or => "OR",
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "%",
        BinOp::Concat => "||",
        BinOp::ContainedBy => "<@",
        BinOp::Contains => "@>",
        BinOp::AnyEq => "= ANY",
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::QualifiedWildcard(t) => write!(f, "{t}.*"),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => write!(f, "{expr} AS {a}"),
                None => write!(f, "{expr}"),
            },
        }
    }
}

impl fmt::Display for FromItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FromItem::Table { name, alias } => match alias {
                Some(a) => write!(f, "{name} AS {a}"),
                None => write!(f, "{name}"),
            },
            FromItem::Subquery { query, alias } => write!(f, "({query}) AS {alias}"),
            FromItem::Join { left, right, on } => write!(f, "{left} JOIN {right} ON {on}"),
        }
    }
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, it) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{it}")?;
        }
        if let Some(t) = &self.into {
            write!(f, " INTO {t}")?;
        }
        if !self.from.is_empty() {
            write!(f, " FROM ")?;
            for (i, fi) in self.from.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{fi}")?;
            }
        }
        if let Some(w) = &self.filter {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, k) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}{}", k.expr, if k.desc { " DESC" } else { "" })?;
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Insert {
                table,
                columns,
                source,
            } => {
                write!(f, "INSERT INTO {table}")?;
                if let Some(cols) = columns {
                    write!(f, " ({})", cols.join(", "))?;
                }
                match source {
                    InsertSource::Values(rows) => {
                        write!(f, " VALUES ")?;
                        for (i, row) in rows.iter().enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "(")?;
                            for (j, e) in row.iter().enumerate() {
                                if j > 0 {
                                    write!(f, ", ")?;
                                }
                                write!(f, "{e}")?;
                            }
                            write!(f, ")")?;
                        }
                        Ok(())
                    }
                    InsertSource::Select(s) => write!(f, " {s}"),
                }
            }
            Statement::Update {
                table,
                assignments,
                filter,
            } => {
                write!(f, "UPDATE {table} SET ")?;
                for (i, (c, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c} = {e}")?;
                }
                if let Some(w) = filter {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::Delete { table, filter } => {
                write!(f, "DELETE FROM {table}")?;
                if let Some(w) = filter {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::CreateTable {
                name,
                columns,
                primary_key,
                if_not_exists,
            } => {
                write!(
                    f,
                    "CREATE TABLE {}{name} (",
                    if *if_not_exists { "IF NOT EXISTS " } else { "" }
                )?;
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} {}", c.name, c.dtype.sql_name())?;
                    if c.primary_key {
                        write!(f, " PRIMARY KEY")?;
                    } else if c.not_null {
                        write!(f, " NOT NULL")?;
                    }
                }
                if !primary_key.is_empty() {
                    write!(f, ", PRIMARY KEY ({})", primary_key.join(", "))?;
                }
                write!(f, ")")
            }
            Statement::DropTable { name, if_exists } => write!(
                f,
                "DROP TABLE {}{name}",
                if *if_exists { "IF EXISTS " } else { "" }
            ),
            Statement::Truncate { table } => write!(f, "TRUNCATE {table}"),
            Statement::AlterAddColumn { table, column } => write!(
                f,
                "ALTER TABLE {table} ADD COLUMN {} {}",
                column.name,
                column.dtype.sql_name()
            ),
            Statement::AlterColumnType {
                table,
                column,
                new_type,
            } => write!(
                f,
                "ALTER TABLE {table} ALTER COLUMN {column} TYPE {}",
                new_type.sql_name()
            ),
            Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
                btree,
            } => {
                write!(f, "CREATE {}INDEX", if *unique { "UNIQUE " } else { "" })?;
                if let Some(n) = name {
                    write!(f, " {n}")?;
                }
                write!(f, " ON {table}")?;
                if *btree {
                    write!(f, " USING BTREE")?;
                }
                write!(f, " ({})", columns.join(", "))
            }
            Statement::Cluster { table, columns } => {
                write!(f, "CLUSTER {table} USING ({})", columns.join(", "))
            }
            Statement::Set { name, value } => write!(f, "SET {name} = '{value}'"),
            Statement::Explain(s) => write!(f, "EXPLAIN {s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn altered_table_names_the_table_a_statement_changes() {
        let altered = |sql: &str| {
            crate::sql::parse_statement(sql)
                .unwrap()
                .altered_table()
                .map(str::to_string)
        };
        for (sql, table) in [
            ("INSERT INTO t VALUES (1)", "t"),
            ("UPDATE t SET a = 1", "t"),
            ("DELETE FROM t WHERE a = 1", "t"),
            ("TRUNCATE t", "t"),
            ("ALTER TABLE t ADD COLUMN b INT", "t"),
            ("ALTER TABLE t ALTER COLUMN a TYPE TEXT", "t"),
            ("DROP TABLE IF EXISTS t", "t"),
        ] {
            assert_eq!(altered(sql).as_deref(), Some(table), "{sql}");
        }
        for sql in [
            "SELECT * FROM t",
            "SELECT * INTO u FROM t",
            "CREATE TABLE u (a INT)",
            "CREATE INDEX ON t (a)",
            "CLUSTER t USING (a)",
            "EXPLAIN SELECT * FROM t",
        ] {
            assert_eq!(altered(sql), None, "{sql}");
        }
    }

    #[test]
    fn display_checkout_statement_shapes() {
        // Combined-table checkout from Table 1.
        let e = SqlExpr::bin(
            BinOp::ContainedBy,
            SqlExpr::ArrayLit(vec![SqlExpr::lit(3)]),
            SqlExpr::col("vlist"),
        );
        assert_eq!(e.to_string(), "(ARRAY[3] <@ vlist)");
    }

    #[test]
    fn display_select_into() {
        let s = SelectStmt {
            items: vec![SelectItem::Wildcard],
            into: Some("tprime".into()),
            from: vec![FromItem::Table {
                name: "t".into(),
                alias: None,
            }],
            filter: Some(SqlExpr::bin(
                BinOp::Eq,
                SqlExpr::col("vid"),
                SqlExpr::lit(7),
            )),
            ..Default::default()
        };
        assert_eq!(s.to_string(), "SELECT * INTO tprime FROM t WHERE (vid = 7)");
    }

    #[test]
    fn display_insert_with_array_subquery() {
        // Split-by-rlist commit from Table 1.
        let stmt = Statement::Insert {
            table: "versioningtable".into(),
            columns: None,
            source: InsertSource::Values(vec![vec![
                SqlExpr::lit(9),
                SqlExpr::ArraySubquery(Box::new(SelectStmt {
                    items: vec![SelectItem::Expr {
                        expr: SqlExpr::col("rid"),
                        alias: None,
                    }],
                    from: vec![FromItem::Table {
                        name: "tprime".into(),
                        alias: None,
                    }],
                    ..Default::default()
                })),
            ]]),
        };
        assert_eq!(
            stmt.to_string(),
            "INSERT INTO versioningtable VALUES (9, ARRAY(SELECT rid FROM tprime))"
        );
    }
}
