//! Physical (executable) expressions.
//!
//! The SQL layer resolves column names and materializes uncorrelated
//! subqueries, producing these [`Expr`] trees in which column references are
//! positional and `IN (subquery)` has become an in-memory set. Evaluation
//! follows SQL three-valued logic: comparisons involving NULL yield NULL,
//! and a filter keeps a row only when its predicate evaluates to `true`.
//!
//! Array operators mirror the PostgreSQL `intarray` functionality the paper
//! relies on (Section 3.1): containment `<@` / `@>`, append (`vlist + vj`),
//! concatenation (`||`), and `= ANY(array)`.

use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;

use crate::error::{EngineError, Result};
use crate::types::Value;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    /// `||` — string or array concatenation.
    Concat,
    /// `<@` — left array contained in right array.
    ContainedBy,
    /// `@>` — left array contains right array.
    Contains,
    /// `x = ANY(arr)` — membership of a scalar in an int array.
    AnyEq,
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// `array_append(arr, x)`
    ArrayAppend,
    /// `array_cat(a, b)`
    ArrayCat,
    /// `array_length(arr)` / `cardinality(arr)`
    ArrayLength,
    /// `array_contains(arr, x)` → bool
    ArrayContains,
    /// `abs(x)`
    Abs,
    /// `coalesce(a, b, ...)`
    Coalesce,
    /// `least(a, b, ...)` — minimum of its non-null arguments
    Least,
    /// `greatest(a, b, ...)`
    Greatest,
}

impl Func {
    pub fn parse(name: &str) -> Option<Func> {
        match name.to_ascii_lowercase().as_str() {
            "array_append" => Some(Func::ArrayAppend),
            "array_cat" => Some(Func::ArrayCat),
            "array_length" | "cardinality" => Some(Func::ArrayLength),
            "array_contains" => Some(Func::ArrayContains),
            "abs" => Some(Func::Abs),
            "coalesce" => Some(Func::Coalesce),
            "least" => Some(Func::Least),
            "greatest" => Some(Func::Greatest),
            _ => None,
        }
    }
}

/// An executable expression over a row.
#[derive(Debug, Clone)]
pub enum Expr {
    Literal(Value),
    /// Positional reference into the input row.
    Column(usize),
    BinOp {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    Neg(Box<Expr>),
    Func {
        func: Func,
        args: Vec<Expr>,
    },
    /// `ARRAY[e1, e2, ...]` — elements must evaluate to integers.
    ArrayLit(Vec<Expr>),
    /// `expr IN (...)` with a pre-materialized set (from a literal list or an
    /// uncorrelated subquery).
    InSet {
        expr: Box<Expr>,
        set: Rc<HashSet<Value>>,
        negated: bool,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
}

impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::BinOp {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// Evaluate against a row.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column(i) => row.get(*i).cloned().ok_or_else(|| {
                EngineError::Eval(format!("column index {i} out of bounds ({})", row.len()))
            }),
            Expr::BinOp { op, left, right } => eval_binop(*op, left, right, row),
            Expr::Not(e) => match e.eval(row)? {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Bool(!v.as_bool()?)),
            },
            Expr::Neg(e) => match e.eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Double(d) => Ok(Value::Double(-d)),
                v => Err(EngineError::TypeMismatch(format!("cannot negate {v}"))),
            },
            Expr::Func { func, args } => eval_func(*func, args, row),
            Expr::ArrayLit(elems) => {
                let mut out = Vec::with_capacity(elems.len());
                for e in elems {
                    out.push(e.eval(row)?.as_int()?);
                }
                Ok(Value::from(out))
            }
            Expr::InSet { expr, set, negated } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let found = set.contains(&v);
                Ok(Value::Bool(found != *negated))
            }
            Expr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
        }
    }

    /// Evaluate as a filter predicate: true iff the result is `Bool(true)`
    /// (NULL counts as false, per SQL semantics).
    pub fn eval_predicate(&self, row: &[Value]) -> Result<bool> {
        match self.eval(row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            v => Err(EngineError::TypeMismatch(format!(
                "predicate evaluated to non-boolean {v}"
            ))),
        }
    }

    /// Rewrite column indices through a mapping (used when pushing
    /// expressions through projections). `map[i]` is the new index of old
    /// column `i`.
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Column(i) => Expr::Column(map(*i)),
            Expr::BinOp { op, left, right } => Expr::BinOp {
                op: *op,
                left: Box::new(left.remap_columns(map)),
                right: Box::new(right.remap_columns(map)),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.remap_columns(map))),
            Expr::Neg(e) => Expr::Neg(Box::new(e.remap_columns(map))),
            Expr::Func { func, args } => Expr::Func {
                func: *func,
                args: args.iter().map(|a| a.remap_columns(map)).collect(),
            },
            Expr::ArrayLit(es) => Expr::ArrayLit(es.iter().map(|e| e.remap_columns(map)).collect()),
            Expr::InSet { expr, set, negated } => Expr::InSet {
                expr: Box::new(expr.remap_columns(map)),
                set: Rc::clone(set),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.remap_columns(map)),
                negated: *negated,
            },
        }
    }

    /// Collect the column indices this expression reads.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Literal(_) => {}
            Expr::Column(i) => out.push(*i),
            Expr::BinOp { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.referenced_columns(out),
            Expr::Func { args, .. } => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
            Expr::ArrayLit(es) => {
                for e in es {
                    e.referenced_columns(out);
                }
            }
            Expr::InSet { expr, .. } | Expr::IsNull { expr, .. } => expr.referenced_columns(out),
        }
    }
}

fn eval_binop(op: BinOp, left: &Expr, right: &Expr, row: &[Value]) -> Result<Value> {
    // AND/OR need three-valued short-circuit logic.
    if op == BinOp::And || op == BinOp::Or {
        let l = left.eval(row)?;
        let lb = match &l {
            Value::Null => None,
            v => Some(v.as_bool()?),
        };
        match (op, lb) {
            (BinOp::And, Some(false)) => return Ok(Value::Bool(false)),
            (BinOp::Or, Some(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let r = right.eval(row)?;
        let rb = match &r {
            Value::Null => None,
            v => Some(v.as_bool()?),
        };
        return Ok(match (op, lb, rb) {
            (BinOp::And, Some(a), Some(b)) => Value::Bool(a && b),
            (BinOp::And, None, Some(false)) | (BinOp::And, Some(false), None) => Value::Bool(false),
            (BinOp::Or, Some(a), Some(b)) => Value::Bool(a || b),
            (BinOp::Or, None, Some(true)) | (BinOp::Or, Some(true), None) => Value::Bool(true),
            _ => Value::Null,
        });
    }

    let l = left.eval(row)?;
    let r = right.eval(row)?;

    match op {
        BinOp::Eq => Ok(bool3(l.sql_eq(&r))),
        BinOp::NotEq => Ok(bool3(l.sql_eq(&r).map(|b| !b))),
        BinOp::Lt => Ok(bool3(l.sql_cmp(&r).map(|o| o.is_lt()))),
        BinOp::LtEq => Ok(bool3(l.sql_cmp(&r).map(|o| o.is_le()))),
        BinOp::Gt => Ok(bool3(l.sql_cmp(&r).map(|o| o.is_gt()))),
        BinOp::GtEq => Ok(bool3(l.sql_cmp(&r).map(|o| o.is_ge()))),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => eval_arith(op, l, r),
        BinOp::Concat => eval_concat(l, r),
        BinOp::ContainedBy => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let a = l.as_int_array()?;
            let b = r.as_int_array()?;
            Ok(Value::Bool(contained_by(a, b)))
        }
        BinOp::Contains => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let a = l.as_int_array()?;
            let b = r.as_int_array()?;
            Ok(Value::Bool(contained_by(b, a)))
        }
        BinOp::AnyEq => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let x = l.as_int()?;
            let arr = r.as_int_array()?;
            Ok(Value::Bool(arr.contains(&x)))
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

fn bool3(b: Option<bool>) -> Value {
    match b {
        Some(v) => Value::Bool(v),
        None => Value::Null,
    }
}

fn eval_arith(op: BinOp, l: Value, r: Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Array append: `vlist + vj` (paper's commit statement for the
    // combined-table and split-by-vlist models).
    if op == BinOp::Add {
        if let (Value::IntArray(a), Value::Int(x)) = (&l, &r) {
            return Ok(int_array_cat(a, &[*x]));
        }
        if let (Value::IntArray(a), Value::IntArray(b)) = (&l, &r) {
            return Ok(int_array_cat(a, b));
        }
    }
    match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
            Ok(Value::Int(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(EngineError::Eval("division by zero".into()));
                    }
                    a / b
                }
                BinOp::Mod => {
                    if b == 0 {
                        return Err(EngineError::Eval("modulo by zero".into()));
                    }
                    a % b
                }
                _ => unreachable!(),
            }))
        }
        _ => {
            let a = l.as_double()?;
            let b = r.as_double()?;
            Ok(Value::Double(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Err(EngineError::Eval("division by zero".into()));
                    }
                    a / b
                }
                BinOp::Mod => a % b,
                _ => unreachable!(),
            }))
        }
    }
}

fn eval_concat(l: Value, r: Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (&l, &r) {
        (Value::IntArray(a), Value::IntArray(b)) => Ok(int_array_cat(a, b)),
        (Value::IntArray(a), Value::Int(x)) => Ok(int_array_cat(a, &[*x])),
        _ => Ok(Value::Text(format!("{l}{r}"))),
    }
}

/// A fresh array of `a` followed by `b`: the operands' buffers may be
/// shared with table cells, so they are read, never extended.
fn int_array_cat(a: &[i64], b: &[i64]) -> Value {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    Value::from(out)
}

/// True when every element of `a` appears in `b` (multiset semantics are
/// not required: PostgreSQL `<@` treats arrays as sets).
fn contained_by(a: &[i64], b: &[i64]) -> bool {
    if a.len() <= 8 {
        a.iter().all(|x| b.contains(x))
    } else {
        let set: HashSet<&i64> = b.iter().collect();
        a.iter().all(|x| set.contains(x))
    }
}

fn eval_func(func: Func, args: &[Expr], row: &[Value]) -> Result<Value> {
    let need = |n: usize| -> Result<()> {
        if args.len() != n {
            Err(EngineError::Arity(format!(
                "function {func:?} expects {n} args, got {}",
                args.len()
            )))
        } else {
            Ok(())
        }
    };
    match func {
        Func::ArrayAppend => {
            need(2)?;
            let arr = args[0].eval(row)?;
            let x = args[1].eval(row)?;
            if arr.is_null() || x.is_null() {
                return Ok(Value::Null);
            }
            Ok(int_array_cat(arr.as_int_array()?, &[x.as_int()?]))
        }
        Func::ArrayCat => {
            need(2)?;
            let a = args[0].eval(row)?;
            let b = args[1].eval(row)?;
            if a.is_null() || b.is_null() {
                return Ok(Value::Null);
            }
            Ok(int_array_cat(a.as_int_array()?, b.as_int_array()?))
        }
        Func::ArrayLength => {
            need(1)?;
            let a = args[0].eval(row)?;
            if a.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Int(a.as_int_array()?.len() as i64))
        }
        Func::ArrayContains => {
            need(2)?;
            let a = args[0].eval(row)?;
            let x = args[1].eval(row)?;
            if a.is_null() || x.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Bool(a.as_int_array()?.contains(&x.as_int()?)))
        }
        Func::Abs => {
            need(1)?;
            match args[0].eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Double(d) => Ok(Value::Double(d.abs())),
                v => Err(EngineError::TypeMismatch(format!("abs({v})"))),
            }
        }
        Func::Coalesce => {
            for a in args {
                let v = a.eval(row)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        Func::Least | Func::Greatest => {
            let mut best: Option<Value> = None;
            for a in args {
                let v = a.eval(row)?;
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match func {
                            Func::Least => v.total_cmp(&b).is_lt(),
                            _ => v.total_cmp(&b).is_gt(),
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
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
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Row;

    fn row() -> Row {
        vec![
            Value::Int(10),
            Value::Text("hi".into()),
            Value::IntArray(vec![1, 2, 3].into()),
            Value::Null,
        ]
    }

    #[test]
    fn arithmetic_and_numeric_widening() {
        let r = row();
        let e = Expr::bin(BinOp::Add, Expr::col(0), Expr::lit(5));
        assert_eq!(e.eval(&r).unwrap(), Value::Int(15));
        let e = Expr::bin(BinOp::Div, Expr::lit(7.0), Expr::lit(2));
        assert_eq!(e.eval(&r).unwrap(), Value::Double(3.5));
        let e = Expr::bin(BinOp::Div, Expr::lit(1), Expr::lit(0));
        assert!(e.eval(&r).is_err());
    }

    #[test]
    fn array_append_with_plus_matches_paper_commit() {
        // `vlist = vlist + vj` from Table 1.
        let r = row();
        let e = Expr::bin(BinOp::Add, Expr::col(2), Expr::lit(4));
        assert_eq!(
            e.eval(&r).unwrap(),
            Value::IntArray(vec![1, 2, 3, 4].into())
        );
    }

    #[test]
    fn containment_operator() {
        // `ARRAY[vi] <@ vlist` from Table 1.
        let r = row();
        let e = Expr::bin(
            BinOp::ContainedBy,
            Expr::ArrayLit(vec![Expr::lit(2)]),
            Expr::col(2),
        );
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
        let e = Expr::bin(
            BinOp::ContainedBy,
            Expr::ArrayLit(vec![Expr::lit(9)]),
            Expr::col(2),
        );
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(false));
        let e = Expr::bin(
            BinOp::Contains,
            Expr::col(2),
            Expr::ArrayLit(vec![Expr::lit(3)]),
        );
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn any_eq_membership() {
        let r = row();
        let e = Expr::bin(BinOp::AnyEq, Expr::lit(2), Expr::col(2));
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
        let e = Expr::bin(BinOp::AnyEq, Expr::lit(7), Expr::col(2));
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn three_valued_logic() {
        let r = row();
        // NULL = 10 → NULL; predicate treats as false.
        let e = Expr::bin(BinOp::Eq, Expr::col(3), Expr::col(0));
        assert_eq!(e.eval(&r).unwrap(), Value::Null);
        assert!(!e.eval_predicate(&r).unwrap());
        // FALSE AND NULL → FALSE
        let e = Expr::bin(BinOp::And, Expr::lit(false), Expr::Literal(Value::Null));
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(false));
        // TRUE OR NULL → TRUE
        let e = Expr::bin(BinOp::Or, Expr::lit(true), Expr::Literal(Value::Null));
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
        // TRUE AND NULL → NULL
        let e = Expr::bin(BinOp::And, Expr::lit(true), Expr::Literal(Value::Null));
        assert_eq!(e.eval(&r).unwrap(), Value::Null);
    }

    #[test]
    fn is_null_and_in_set() {
        let r = row();
        let e = Expr::IsNull {
            expr: Box::new(Expr::col(3)),
            negated: false,
        };
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
        let set: HashSet<Value> = [Value::Int(10), Value::Int(20)].into_iter().collect();
        let e = Expr::InSet {
            expr: Box::new(Expr::col(0)),
            set: Rc::new(set),
            negated: false,
        };
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn scalar_functions() {
        let r = row();
        let e = Expr::Func {
            func: Func::ArrayLength,
            args: vec![Expr::col(2)],
        };
        assert_eq!(e.eval(&r).unwrap(), Value::Int(3));
        let e = Expr::Func {
            func: Func::Coalesce,
            args: vec![Expr::col(3), Expr::lit(42)],
        };
        assert_eq!(e.eval(&r).unwrap(), Value::Int(42));
        let e = Expr::Func {
            func: Func::Greatest,
            args: vec![Expr::lit(1), Expr::lit(9), Expr::lit(4)],
        };
        assert_eq!(e.eval(&r).unwrap(), Value::Int(9));
    }

    #[test]
    fn text_concat() {
        let r = row();
        let e = Expr::bin(BinOp::Concat, Expr::col(1), Expr::lit("!"));
        assert_eq!(e.eval(&r).unwrap(), Value::Text("hi!".into()));
    }

    #[test]
    fn remap_and_referenced_columns() {
        let e = Expr::bin(BinOp::Add, Expr::col(0), Expr::col(2));
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec![0, 2]);
        let remapped = e.remap_columns(&|i| i + 10);
        let mut cols = Vec::new();
        remapped.referenced_columns(&mut cols);
        assert_eq!(cols, vec![10, 12]);
    }
}
