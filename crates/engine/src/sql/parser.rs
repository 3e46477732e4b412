//! Recursive-descent parser producing [`super::ast`] trees.

use crate::error::{EngineError, Result};
use crate::expr::BinOp;
use crate::types::{DataType, Value};

use super::ast::*;
use super::lexer::{tokenize, Token};

/// Keywords that terminate an expression / cannot be bare aliases.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "having", "order", "limit", "into", "as", "join", "on",
    "inner", "and", "or", "not", "in", "is", "null", "asc", "desc", "values", "set", "union", "by",
    "using", "cross",
];

fn is_reserved(word: &str) -> bool {
    RESERVED.iter().any(|r| word.eq_ignore_ascii_case(r))
}

/// Parse a single SQL statement (a trailing semicolon is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    parse_tokens(&tokenize(sql)?)
}

/// [`parse_statement`] over a statement that is already lexed: `tokens` is
/// what [`tokenize`] returned, `Eof` included. A caller that has to look at
/// a statement before running it lexes once and hands the tokens on.
pub fn parse_tokens(tokens: &[Token]) -> Result<Statement> {
    if tokens.last() != Some(&Token::Eof) {
        return Err(EngineError::Parse(
            "token stream does not end in Eof".into(),
        ));
    }
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat(&Token::Semicolon);
    p.expect(&Token::Eof)?;
    Ok(stmt)
}

/// Parse a script of semicolon-separated statements.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens: &tokens,
        pos: 0,
    };
    let mut stmts = Vec::new();
    loop {
        while p.eat(&Token::Semicolon) {}
        if p.peek() == &Token::Eof {
            break;
        }
        stmts.push(p.statement()?);
        if !p.eat(&Token::Semicolon) {
            break;
        }
    }
    p.expect(&Token::Eof)?;
    Ok(stmts)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek_ahead(&self, n: usize) -> &Token {
        self.tokens.get(self.pos + n).unwrap_or(&Token::Eof)
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        self.advance();
        t
    }

    /// Step past the current token (never past `Eof`) without copying it.
    fn advance(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(EngineError::Parse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(EngineError::Parse(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Token::Ident(s) => Ok(s),
            other => Err(EngineError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    // -- statements ---------------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        let t = self.peek().clone();
        match &t {
            Token::Ident(kw) if kw.eq_ignore_ascii_case("select") => {
                Ok(Statement::Select(self.select()?))
            }
            Token::Ident(kw) if kw.eq_ignore_ascii_case("explain") => {
                self.next();
                Ok(Statement::Explain(Box::new(self.select()?)))
            }
            Token::Ident(kw) if kw.eq_ignore_ascii_case("insert") => self.insert(),
            Token::Ident(kw) if kw.eq_ignore_ascii_case("update") => self.update(),
            Token::Ident(kw) if kw.eq_ignore_ascii_case("delete") => self.delete(),
            Token::Ident(kw) if kw.eq_ignore_ascii_case("create") => self.create(),
            Token::Ident(kw) if kw.eq_ignore_ascii_case("drop") => self.drop_table(),
            Token::Ident(kw) if kw.eq_ignore_ascii_case("truncate") => {
                self.next();
                self.eat_kw("table");
                Ok(Statement::Truncate {
                    table: self.ident()?,
                })
            }
            Token::Ident(kw) if kw.eq_ignore_ascii_case("alter") => self.alter(),
            Token::Ident(kw) if kw.eq_ignore_ascii_case("cluster") => {
                self.next();
                let table = self.ident()?;
                self.expect_kw("using")?;
                self.expect(&Token::LParen)?;
                let columns = self.ident_list()?;
                self.expect(&Token::RParen)?;
                Ok(Statement::Cluster { table, columns })
            }
            Token::Ident(kw) if kw.eq_ignore_ascii_case("set") => {
                self.next();
                let name = self.ident()?;
                self.expect(&Token::Eq)?;
                let value = match self.next() {
                    Token::Ident(s) | Token::Str(s) | Token::Number(s) => s,
                    other => {
                        return Err(EngineError::Parse(format!(
                            "expected setting value, found {other:?}"
                        )))
                    }
                };
                Ok(Statement::Set { name, value })
            }
            other => Err(EngineError::Parse(format!(
                "expected statement, found {other:?}"
            ))),
        }
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("select")?;
        let mut items = vec![self.select_item()?];
        while self.eat(&Token::Comma) {
            items.push(self.select_item()?);
        }
        let into = if self.eat_kw("into") {
            Some(self.ident()?)
        } else {
            None
        };
        let mut from = Vec::new();
        if self.eat_kw("from") {
            from.push(self.parse_from_item()?);
            while self.eat(&Token::Comma) {
                from.push(self.parse_from_item()?);
            }
        }
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.expr()?);
            while self.eat(&Token::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.next() {
                Token::Number(n) => Some(
                    n.parse::<u64>()
                        .map_err(|_| EngineError::Parse(format!("invalid LIMIT value: {n}")))?,
                ),
                other => {
                    return Err(EngineError::Parse(format!(
                        "expected LIMIT count, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            into,
            from,
            filter,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `t.*`
        if let (Token::Ident(t), Token::Dot, Token::Star) = (
            self.peek().clone(),
            self.peek_ahead(1).clone(),
            self.peek_ahead(2).clone(),
        ) {
            self.next();
            self.next();
            self.next();
            return Ok(SelectItem::QualifiedWildcard(t));
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if let Token::Ident(name) = self.peek() {
            if !is_reserved(name) {
                let a = name.clone();
                self.next();
                Some(a)
            } else {
                None
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_from_item(&mut self) -> Result<FromItem> {
        let mut item = self.parse_from_primary()?;
        loop {
            if self.peek().is_kw("join")
                || (self.peek().is_kw("inner") && self.peek_ahead(1).is_kw("join"))
            {
                self.eat_kw("inner");
                self.expect_kw("join")?;
                let right = self.parse_from_primary()?;
                self.expect_kw("on")?;
                let on = self.expr()?;
                item = FromItem::Join {
                    left: Box::new(item),
                    right: Box::new(right),
                    on,
                };
            } else {
                break;
            }
        }
        Ok(item)
    }

    fn parse_from_primary(&mut self) -> Result<FromItem> {
        if self.eat(&Token::LParen) {
            let query = self.select()?;
            self.expect(&Token::RParen)?;
            self.eat_kw("as");
            let alias = self.ident()?;
            return Ok(FromItem::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.ident()?;
        if is_reserved(&name) {
            return Err(EngineError::Parse(format!(
                "unexpected keyword {name} where a table was expected"
            )));
        }
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if let Token::Ident(a) = self.peek() {
            if !is_reserved(a) {
                let a = a.clone();
                self.next();
                Some(a)
            } else {
                None
            }
        } else {
            None
        };
        Ok(FromItem::Table { name, alias })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.ident()?;
        // Optional column list: disambiguate from `INSERT INTO t (SELECT ..)`.
        let mut columns = None;
        if self.peek() == &Token::LParen && !self.peek_ahead(1).is_kw("select") {
            self.expect(&Token::LParen)?;
            columns = Some(self.ident_list()?);
            self.expect(&Token::RParen)?;
        }
        if self.eat_kw("values") {
            let mut rows: Vec<Vec<SqlExpr>> = Vec::new();
            loop {
                self.expect(&Token::LParen)?;
                let mut row = Vec::with_capacity(rows.first().map_or(0, Vec::len));
                if self.peek() != &Token::RParen {
                    row.push(self.value()?);
                    while self.eat(&Token::Comma) {
                        row.push(self.value()?);
                    }
                }
                self.expect(&Token::RParen)?;
                rows.push(row);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            Ok(Statement::Insert {
                table,
                columns,
                source: InsertSource::Values(rows),
            })
        } else {
            let parenthesized = self.eat(&Token::LParen);
            let sel = self.select()?;
            if parenthesized {
                self.expect(&Token::RParen)?;
            }
            Ok(Statement::Insert {
                table,
                columns,
                source: InsertSource::Select(Box::new(sel)),
            })
        }
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_kw("update")?;
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&Token::Eq)?;
            let e = self.expr()?;
            assignments.push((col, e));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            filter,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let table = self.ident()?;
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("create")?;
        let unique = self.eat_kw("unique");
        if self.eat_kw("index") {
            let name = if self.peek().is_kw("on") {
                None
            } else {
                Some(self.ident()?)
            };
            self.expect_kw("on")?;
            let table = self.ident()?;
            let mut btree = false;
            if self.eat_kw("using") {
                let kind = self.ident()?;
                btree = kind.eq_ignore_ascii_case("btree");
            }
            self.expect(&Token::LParen)?;
            let columns = self.ident_list()?;
            self.expect(&Token::RParen)?;
            return Ok(Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
                btree,
            });
        }
        if unique {
            return Err(EngineError::Parse("UNIQUE only applies to INDEX".into()));
        }
        self.expect_kw("table")?;
        let if_not_exists = if self.eat_kw("if") {
            self.expect_kw("not")?;
            self.expect_kw("exists")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.peek().is_kw("primary") {
                self.next();
                self.expect_kw("key")?;
                self.expect(&Token::LParen)?;
                primary_key = self.ident_list()?;
                self.expect(&Token::RParen)?;
            } else {
                let col_name = self.ident()?;
                let dtype = self.type_name()?;
                let mut not_null = false;
                let mut pk = false;
                loop {
                    if self.eat_kw("not") {
                        self.expect_kw("null")?;
                        not_null = true;
                    } else if self.eat_kw("primary") {
                        self.expect_kw("key")?;
                        pk = true;
                        not_null = true;
                    } else {
                        break;
                    }
                }
                columns.push(ColumnDef {
                    name: col_name,
                    dtype,
                    not_null,
                    primary_key: pk,
                });
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateTable {
            name,
            columns,
            primary_key,
            if_not_exists,
        })
    }

    fn drop_table(&mut self) -> Result<Statement> {
        self.expect_kw("drop")?;
        self.expect_kw("table")?;
        let if_exists = if self.eat_kw("if") {
            self.expect_kw("exists")?;
            true
        } else {
            false
        };
        Ok(Statement::DropTable {
            name: self.ident()?,
            if_exists,
        })
    }

    fn alter(&mut self) -> Result<Statement> {
        self.expect_kw("alter")?;
        self.expect_kw("table")?;
        let table = self.ident()?;
        if self.eat_kw("add") {
            self.eat_kw("column");
            let name = self.ident()?;
            let dtype = self.type_name()?;
            return Ok(Statement::AlterAddColumn {
                table,
                column: ColumnDef {
                    name,
                    dtype,
                    not_null: false,
                    primary_key: false,
                },
            });
        }
        if self.eat_kw("alter") {
            self.eat_kw("column");
            let column = self.ident()?;
            self.expect_kw("type")?;
            let new_type = self.type_name()?;
            return Ok(Statement::AlterColumnType {
                table,
                column,
                new_type,
            });
        }
        Err(EngineError::Parse(
            "expected ADD COLUMN or ALTER COLUMN after ALTER TABLE".into(),
        ))
    }

    fn type_name(&mut self) -> Result<DataType> {
        let base = self.ident()?;
        // Ignore length parameters like VARCHAR(255).
        if self.eat(&Token::LParen) {
            self.next(); // the length
            self.expect(&Token::RParen)?;
        }
        if self.eat(&Token::LBracket) {
            self.expect(&Token::RBracket)?;
            return DataType::parse(&format!("{base}[]"));
        }
        DataType::parse(&base)
    }

    fn ident_list(&mut self) -> Result<Vec<String>> {
        let mut out = vec![self.ident()?];
        while self.eat(&Token::Comma) {
            out.push(self.ident()?);
        }
        Ok(out)
    }

    // -- expressions --------------------------------------------------------

    /// A cell of a `VALUES` row. A number, signed or not, or `NULL`, right
    /// before the `,` or `)` that ends the cell — the commonest cell by far
    /// — is read as the literal the expression grammar would fold it to,
    /// without descending the grammar; any other cell is an expression.
    fn value(&mut self) -> Result<SqlExpr> {
        let sign = usize::from(self.peek() == &Token::Minus);
        if matches!(self.peek_ahead(sign + 1), Token::Comma | Token::RParen) {
            let literal = match self.peek_ahead(sign) {
                Token::Number(n) if n.contains('.') => n
                    .parse()
                    .ok()
                    .map(|d: f64| Value::Double(if sign == 1 { -d } else { d })),
                Token::Number(n) => n
                    .parse()
                    .ok()
                    .map(|i: i64| Value::Int(if sign == 1 { -i } else { i })),
                Token::Ident(word) if sign == 0 && word.eq_ignore_ascii_case("null") => {
                    Some(Value::Null)
                }
                _ => None,
            };
            if let Some(literal) = literal {
                (0..=sign).for_each(|_| self.advance());
                return Ok(SqlExpr::Literal(literal));
            }
        }
        self.expr()
    }

    fn expr(&mut self) -> Result<SqlExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SqlExpr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = SqlExpr::bin(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<SqlExpr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = SqlExpr::bin(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<SqlExpr> {
        if self.eat_kw("not") {
            let e = self.not_expr()?;
            return Ok(SqlExpr::Not(Box::new(e)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<SqlExpr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(SqlExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] IN
        let negated_in = if self.peek().is_kw("not") && self.peek_ahead(1).is_kw("in") {
            self.next();
            true
        } else {
            false
        };
        if self.eat_kw("in") {
            self.expect(&Token::LParen)?;
            if self.peek().is_kw("select") {
                let q = self.select()?;
                self.expect(&Token::RParen)?;
                return Ok(SqlExpr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(q),
                    negated: negated_in,
                });
            }
            let mut list = vec![self.expr()?];
            while self.eat(&Token::Comma) {
                list.push(self.expr()?);
            }
            self.expect(&Token::RParen)?;
            return Ok(SqlExpr::InList {
                expr: Box::new(left),
                list,
                negated: negated_in,
            });
        }
        if negated_in {
            return Err(EngineError::Parse("expected IN after NOT".into()));
        }
        let op = match self.peek() {
            Token::Eq => Some(BinOp::Eq),
            Token::NotEq => Some(BinOp::NotEq),
            Token::Lt => Some(BinOp::Lt),
            Token::LtEq => Some(BinOp::LtEq),
            Token::Gt => Some(BinOp::Gt),
            Token::GtEq => Some(BinOp::GtEq),
            Token::ContainedBy => Some(BinOp::ContainedBy),
            Token::Contains => Some(BinOp::Contains),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            // `= ANY(expr)`
            if op == BinOp::Eq && self.peek().is_kw("any") {
                self.next();
                self.expect(&Token::LParen)?;
                let arr = self.expr()?;
                self.expect(&Token::RParen)?;
                return Ok(SqlExpr::AnyEq {
                    left: Box::new(left),
                    array: Box::new(arr),
                });
            }
            let right = self.additive()?;
            return Ok(SqlExpr::bin(op, left, right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<SqlExpr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                Token::Concat => BinOp::Concat,
                _ => break,
            };
            self.next();
            let right = self.multiplicative()?;
            left = SqlExpr::bin(op, left, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<SqlExpr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                Token::Percent => BinOp::Mod,
                _ => break,
            };
            self.next();
            let right = self.unary()?;
            left = SqlExpr::bin(op, left, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<SqlExpr> {
        if self.eat(&Token::Minus) {
            let e = self.unary()?;
            // Fold negation of numeric literals.
            if let SqlExpr::Literal(Value::Int(i)) = e {
                return Ok(SqlExpr::Literal(Value::Int(-i)));
            }
            if let SqlExpr::Literal(Value::Double(d)) = e {
                return Ok(SqlExpr::Literal(Value::Double(-d)));
            }
            return Ok(SqlExpr::Neg(Box::new(e)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<SqlExpr> {
        // A number, the commonest primary, is read in place.
        if let Token::Number(n) = self.peek() {
            let bad = || EngineError::Parse(format!("bad number {n}"));
            let literal = if n.contains('.') {
                Value::Double(n.parse::<f64>().map_err(|_| bad())?)
            } else {
                Value::Int(n.parse::<i64>().map_err(|_| bad())?)
            };
            self.advance();
            return Ok(SqlExpr::Literal(literal));
        }
        match self.peek().clone() {
            Token::Str(s) => {
                self.next();
                Ok(SqlExpr::Literal(Value::Text(s)))
            }
            Token::LParen => {
                self.next();
                if self.peek().is_kw("select") {
                    let q = self.select()?;
                    self.expect(&Token::RParen)?;
                    return Ok(SqlExpr::ScalarSubquery(Box::new(q)));
                }
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(word) => {
                if is_reserved(&word)
                    && !word.eq_ignore_ascii_case("null")
                    && !word.eq_ignore_ascii_case("true")
                    && !word.eq_ignore_ascii_case("false")
                {
                    return Err(EngineError::Parse(format!(
                        "unexpected keyword {word} in expression"
                    )));
                }
                if word.eq_ignore_ascii_case("null") {
                    self.next();
                    return Ok(SqlExpr::Literal(Value::Null));
                }
                if word.eq_ignore_ascii_case("true") {
                    self.next();
                    return Ok(SqlExpr::Literal(Value::Bool(true)));
                }
                if word.eq_ignore_ascii_case("false") {
                    self.next();
                    return Ok(SqlExpr::Literal(Value::Bool(false)));
                }
                if word.eq_ignore_ascii_case("array") {
                    self.next();
                    // ARRAY[...] literal or ARRAY(SELECT ...)
                    if self.eat(&Token::LBracket) {
                        // `ARRAY[SELECT ...]` also appears in the paper's
                        // Table 1; treat it like ARRAY(SELECT ...).
                        if self.peek().is_kw("select") {
                            let q = self.select()?;
                            self.expect(&Token::RBracket)?;
                            return Ok(SqlExpr::ArraySubquery(Box::new(q)));
                        }
                        let mut elems = Vec::new();
                        if self.peek() != &Token::RBracket {
                            elems.push(self.expr()?);
                            while self.eat(&Token::Comma) {
                                elems.push(self.expr()?);
                            }
                        }
                        self.expect(&Token::RBracket)?;
                        return Ok(SqlExpr::ArrayLit(elems));
                    }
                    self.expect(&Token::LParen)?;
                    let q = self.select()?;
                    self.expect(&Token::RParen)?;
                    return Ok(SqlExpr::ArraySubquery(Box::new(q)));
                }
                // Function call?
                if self.peek_ahead(1) == &Token::LParen {
                    let name = self.ident()?;
                    self.expect(&Token::LParen)?;
                    if self.eat(&Token::Star) {
                        self.expect(&Token::RParen)?;
                        return Ok(SqlExpr::Func {
                            name,
                            args: Vec::new(),
                            distinct: false,
                            star: true,
                        });
                    }
                    let distinct = self.eat_kw("distinct");
                    let mut args = Vec::new();
                    if self.peek() != &Token::RParen {
                        args.push(self.expr()?);
                        while self.eat(&Token::Comma) {
                            args.push(self.expr()?);
                        }
                    }
                    self.expect(&Token::RParen)?;
                    return Ok(SqlExpr::Func {
                        name,
                        args,
                        distinct,
                        star: false,
                    });
                }
                // Column reference, possibly qualified.
                let first = self.ident()?;
                if self.peek() == &Token::Dot {
                    self.next();
                    let second = self.ident()?;
                    return Ok(SqlExpr::Column {
                        qualifier: Some(first),
                        name: second,
                    });
                }
                Ok(SqlExpr::Column {
                    qualifier: None,
                    name: first,
                })
            }
            other => Err(EngineError::Parse(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each `VALUES` cell parses to what the expression grammar makes of
    /// it: the literal cells read without descending it, and every other.
    #[test]
    fn values_cells_parse_as_expressions() {
        let cells = [
            "1",
            "-2",
            "3.5",
            "-4.25",
            "-0.0",
            "NULL",
            "null",
            "- 7",
            "-x",
            "1 + 2",
            "-3 * 2",
            "-NULL",
            "'s'",
            "(4)",
            "9223372036854775807",
        ];
        let sql = format!("INSERT INTO t VALUES ({}), (5)", cells.join(", "));
        let Statement::Insert {
            source: InsertSource::Values(rows),
            ..
        } = parse_statement(&sql).unwrap()
        else {
            panic!("an INSERT")
        };
        assert_eq!(rows[0].len(), cells.len());
        for (cell, got) in cells.iter().zip(&rows[0]) {
            let tokens = tokenize(cell).unwrap();
            let want = Parser {
                tokens: &tokens,
                pos: 0,
            }
            .expr()
            .unwrap();
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{cell}");
        }
        assert!(parse_statement("INSERT INTO t VALUES (-9223372036854775808)").is_err());
        assert!(parse_statement("INSERT INTO t VALUES (1,)").is_err());
    }

    fn roundtrip(sql: &str) {
        let stmt = parse_statement(sql).unwrap();
        let printed = stmt.to_string();
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed for {printed:?}: {e}"));
        assert_eq!(stmt, reparsed, "printed: {printed}");
    }

    #[test]
    fn parses_table1_combined_checkout() {
        let stmt = parse_statement("SELECT * INTO T2 FROM T WHERE ARRAY[3] <@ vlist").unwrap();
        match stmt {
            Statement::Select(s) => {
                assert_eq!(s.into.as_deref(), Some("T2"));
                assert!(matches!(
                    s.filter,
                    Some(SqlExpr::BinOp {
                        op: BinOp::ContainedBy,
                        ..
                    })
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_table1_split_by_rlist_checkout() {
        let sql = "SELECT * INTO T2 FROM dataTable, \
                   (SELECT unnest(rlist) AS rid_tmp FROM versioningTable WHERE vid = 3) AS tmp \
                   WHERE rid = rid_tmp";
        let stmt = parse_statement(sql).unwrap();
        match stmt {
            Statement::Select(s) => {
                assert_eq!(s.from.len(), 2);
                assert!(matches!(s.from[1], FromItem::Subquery { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        roundtrip(sql);
    }

    #[test]
    fn parses_table1_commit_statements() {
        roundtrip("UPDATE T SET vlist = (vlist + 9) WHERE (rid IN (SELECT rid FROM T2))");
        roundtrip("INSERT INTO versioningTable VALUES (9, ARRAY(SELECT rid FROM T2))");
        // The paper's bracket spelling also parses:
        let stmt =
            parse_statement("INSERT INTO versioningTable VALUES (9, ARRAY[SELECT rid FROM T2])")
                .unwrap();
        assert!(matches!(
            stmt,
            Statement::Insert {
                source: InsertSource::Values(_),
                ..
            }
        ));
    }

    #[test]
    fn parses_ddl() {
        roundtrip("CREATE TABLE t (rid INT PRIMARY KEY, vlist INT[], name TEXT NOT NULL)");
        roundtrip(
            "CREATE TABLE p (protein1 TEXT, protein2 TEXT, score DOUBLE, PRIMARY KEY (protein1, protein2))",
        );
        roundtrip("DROP TABLE IF EXISTS t");
        roundtrip("ALTER TABLE t ADD COLUMN coexpression INT");
        roundtrip("ALTER TABLE t ALTER COLUMN score TYPE TEXT");
        roundtrip("CLUSTER t USING (rid)");
        roundtrip("CREATE UNIQUE INDEX idx ON t (rid)");
        roundtrip("CREATE INDEX ON t USING BTREE (vlist)");
        roundtrip("TRUNCATE t");
    }

    #[test]
    fn parses_aggregates_and_grouping() {
        roundtrip(
            "SELECT vid, count(*) AS n FROM v GROUP BY vid HAVING (count(*) > 50) ORDER BY n DESC LIMIT 10",
        );
        roundtrip("SELECT count(DISTINCT rid) FROM t");
        roundtrip("SELECT array_agg(rid) FROM t");
    }

    #[test]
    fn parses_any_and_membership() {
        roundtrip("SELECT * FROM t WHERE (3 = ANY(vlist))");
        roundtrip("SELECT * FROM t WHERE (vid NOT IN (1, 2, 3))");
        roundtrip("SELECT * FROM t WHERE (x IS NOT NULL)");
    }

    #[test]
    fn parses_joins() {
        roundtrip("SELECT * FROM a JOIN b ON (a.id = b.id) WHERE (a.x > 1)");
        let s = parse_statement("SELECT a.*, b.y FROM a INNER JOIN b ON a.id = b.id").unwrap();
        match s {
            Statement::Select(sel) => assert!(matches!(sel.from[0], FromItem::Join { .. })),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_expressions_with_precedence() {
        let s = parse_statement("SELECT 1 + 2 * 3").unwrap();
        match s {
            Statement::Select(sel) => {
                let item = &sel.items[0];
                if let SelectItem::Expr { expr, .. } = item {
                    assert_eq!(expr.to_string(), "(1 + (2 * 3))");
                } else {
                    panic!();
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_script() {
        let stmts =
            parse_script("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn negative_numbers_fold() {
        let s = parse_statement("SELECT -5, -2.5").unwrap();
        match s {
            Statement::Select(sel) => {
                assert!(matches!(
                    sel.items[0],
                    SelectItem::Expr {
                        expr: SqlExpr::Literal(Value::Int(-5)),
                        ..
                    }
                ));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_malformed_statements() {
        assert!(parse_statement("SELECT FROM t").is_err());
        assert!(parse_statement("INSERT t VALUES (1)").is_err());
        assert!(parse_statement("UPDATE t WHERE x = 1").is_err());
        assert!(parse_statement("SELECT * FROM t WHERE x NOT 5").is_err());
        assert!(parse_statement("SELECT * FROM t extra garbage ,").is_err());
    }

    #[test]
    fn update_with_array_append() {
        // Paper Table 1: UPDATE T SET vlist=vlist+vj WHERE rid in (...)
        let stmt = parse_statement("UPDATE T SET vlist=vlist+9 WHERE rid in (SELECT rid FROM T2)")
            .unwrap();
        match stmt {
            Statement::Update { assignments, .. } => {
                assert_eq!(assignments.len(), 1);
                assert_eq!(assignments[0].0, "vlist");
            }
            _ => panic!(),
        }
    }
}
