//! Value and type system.
//!
//! The engine supports the types OrpheusDB needs: 64-bit integers, doubles
//! (the paper's `decimal`), text, booleans, and **integer arrays** — the
//! array type used for the `vlist`/`rlist` versioning attributes in the
//! combined-table and split-by-\* data models (Figure 1 of the paper).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{EngineError, Result};

/// Logical column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (`INT`, `INTEGER`, `BIGINT`).
    Int,
    /// 64-bit float (`DOUBLE`, `DECIMAL`, `FLOAT`).
    Double,
    /// UTF-8 string (`TEXT`, `VARCHAR`, `STRING`).
    Text,
    /// Boolean (`BOOL`, `BOOLEAN`).
    Bool,
    /// Array of 64-bit integers (`INT[]`) — used for `vlist`/`rlist`.
    IntArray,
}

impl DataType {
    /// Parse a SQL type name.
    pub fn parse(name: &str) -> Result<DataType> {
        let up = name.to_ascii_uppercase();
        match up.as_str() {
            "INT" | "INTEGER" | "BIGINT" | "INT4" | "INT8" | "SMALLINT" => Ok(DataType::Int),
            "DOUBLE" | "DECIMAL" | "FLOAT" | "REAL" | "NUMERIC" | "DOUBLE PRECISION" => {
                Ok(DataType::Double)
            }
            "TEXT" | "VARCHAR" | "STRING" | "CHAR" => Ok(DataType::Text),
            "BOOL" | "BOOLEAN" => Ok(DataType::Bool),
            "INT[]" | "INTEGER[]" | "BIGINT[]" | "INTARRAY" => Ok(DataType::IntArray),
            _ => Err(EngineError::Parse(format!("unknown type: {name}"))),
        }
    }

    /// Canonical SQL spelling of the type.
    pub fn sql_name(&self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Double => "DOUBLE",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
            DataType::IntArray => "INT[]",
        }
    }

    /// The "more general" of two types, following the schema-evolution rule
    /// of Section 3.3 (e.g. integer widens to decimal, anything widens to
    /// string). Returns `None` when no generalization exists (arrays only
    /// generalize to themselves).
    pub fn generalize(self, other: DataType) -> Option<DataType> {
        use DataType::*;
        if self == other {
            return Some(self);
        }
        match (self, other) {
            (Int, Double) | (Double, Int) => Some(Double),
            (Int, Text) | (Text, Int) => Some(Text),
            (Double, Text) | (Text, Double) => Some(Text),
            (Bool, Text) | (Text, Bool) => Some(Text),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A runtime value. `Null` inhabits every type.
///
/// An `IntArray` is an immutable, reference-counted buffer: cloning the
/// value bumps a count and copies no element, so a version's rlist can be
/// held by the catalog and by any number of table cells at once. Nothing
/// writes through a shared buffer. Array expressions build a fresh one,
/// and an in-place edit goes through [`Arc::make_mut`], which copies the
/// buffer first unless the cell is its only holder.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Double(f64),
    Text(String),
    Bool(bool),
    IntArray(Arc<Vec<i64>>),
}

// A heap chunk is a flat buffer of cells: a wider `Value` widens every row.
const _: () = assert!(std::mem::size_of::<Value>() <= 32);

/// A tuple of values; the unit of storage and execution.
pub type Row = Vec<Value>;

impl Value {
    /// The value's type, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::IntArray(_) => Some(DataType::IntArray),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an integer, accepting exact doubles.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Double(d) if d.fract() == 0.0 => Ok(*d as i64),
            other => Err(EngineError::TypeMismatch(format!(
                "expected INT, got {other}"
            ))),
        }
    }

    /// Extract a double, widening integers.
    pub fn as_double(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Double(d) => Ok(*d),
            other => Err(EngineError::TypeMismatch(format!(
                "expected DOUBLE, got {other}"
            ))),
        }
    }

    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(EngineError::TypeMismatch(format!(
                "expected BOOL, got {other}"
            ))),
        }
    }

    pub fn as_int_array(&self) -> Result<&[i64]> {
        match self {
            Value::IntArray(a) => Ok(a),
            other => Err(EngineError::TypeMismatch(format!(
                "expected INT[], got {other}"
            ))),
        }
    }

    /// Coerce this value to `target`, applying the widening rules used both
    /// by INSERT and by schema evolution (int → double → text).
    pub fn coerce_to(&self, target: DataType) -> Result<Value> {
        match (self, target) {
            (Value::Null, _) => Ok(Value::Null),
            (v, t) if v.data_type() == Some(t) => Ok(v.clone()),
            (Value::Int(i), DataType::Double) => Ok(Value::Double(*i as f64)),
            (Value::Int(i), DataType::Text) => Ok(Value::Text(i.to_string())),
            (Value::Double(d), DataType::Text) => Ok(Value::Text(format_double(*d))),
            (Value::Double(d), DataType::Int) if d.fract() == 0.0 => Ok(Value::Int(*d as i64)),
            (Value::Bool(b), DataType::Text) => Ok(Value::Text(b.to_string())),
            (v, t) => Err(EngineError::TypeMismatch(format!(
                "cannot coerce {v} to {t}"
            ))),
        }
    }

    /// SQL-style three-valued equality: any comparison with NULL is NULL
    /// (represented as `None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (Value::Int(a), Value::Double(b)) | (Value::Double(b), Value::Int(a)) => {
                Some((*a as f64) == *b)
            }
            (a, b) => Some(a.total_cmp(b) == Ordering::Equal),
        }
    }

    /// SQL-style three-valued ordering comparison.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other))
    }

    /// Total order over all values, used for sorting, BTree index keys and
    /// merge joins. NULL sorts first; numeric types compare numerically;
    /// heterogeneous values order by a fixed type rank.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Double(_) => 2,
                Text(_) => 3,
                IntArray(_) => 4,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Int(a), Double(b)) => (*a as f64).total_cmp(b),
            (Double(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (IntArray(a), IntArray(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Approximate on-disk footprint in bytes, used by the storage accounting
    /// that backs the paper's storage-size experiments (Figures 3a, 12b, 13b).
    pub fn storage_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Double(_) => 8,
            Value::Bool(_) => 1,
            Value::Text(s) => 4 + s.len(),
            Value::IntArray(a) => 8 + 8 * a.len(),
        }
    }
}

/// Format a double the way we print and coerce it to text: integral values
/// render without a trailing `.0` ambiguity (`1` stays `1`).
fn format_double(d: f64) -> String {
    if d.fract() == 0.0 && d.abs() < 1e15 {
        format!("{}", d as i64)
    } else {
        format!("{d}")
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{}", format_double(*d)),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::IntArray(a) => {
                write!(f, "{{")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and exactly-integral doubles must hash identically because
            // they compare equal (1 == 1.0 under total_cmp's numeric rule).
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Double(d) => {
                2u8.hash(state);
                let norm = if *d == 0.0 { 0.0 } else { *d };
                norm.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::IntArray(a) => {
                4u8.hash(state);
                a.hash(state);
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<Vec<i64>> for Value {
    fn from(v: Vec<i64>) -> Self {
        Value::IntArray(Arc::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn type_parsing_roundtrip() {
        for t in [
            DataType::Int,
            DataType::Double,
            DataType::Text,
            DataType::Bool,
            DataType::IntArray,
        ] {
            assert_eq!(DataType::parse(t.sql_name()).unwrap(), t);
        }
        assert!(DataType::parse("blob").is_err());
    }

    #[test]
    fn generalization_follows_single_pool_rule() {
        assert_eq!(
            DataType::Int.generalize(DataType::Double),
            Some(DataType::Double)
        );
        assert_eq!(
            DataType::Double.generalize(DataType::Text),
            Some(DataType::Text)
        );
        assert_eq!(DataType::Int.generalize(DataType::Int), Some(DataType::Int));
        assert_eq!(DataType::IntArray.generalize(DataType::Int), None);
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(3).sql_eq(&Value::Double(3.0)), Some(true));
        assert_eq!(Value::Int(3).sql_eq(&Value::Double(3.5)), Some(false));
        assert_eq!(Value::Null.sql_eq(&Value::Int(3)), None);
    }

    #[test]
    fn equal_values_hash_equal_across_numeric_types() {
        assert_eq!(Value::Int(7), Value::Double(7.0));
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Double(7.0)));
        assert_eq!(hash_of(&Value::Double(0.0)), hash_of(&Value::Double(-0.0)));
    }

    #[test]
    fn total_order_sorts_nulls_first_and_types_by_rank() {
        let mut vs = [
            Value::Text("a".into()),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
            Value::IntArray(vec![1].into()),
        ];
        vs.sort();
        assert!(vs[0].is_null());
        assert_eq!(vs[1], Value::Bool(true));
        assert_eq!(vs[2], Value::Int(1));
        assert_eq!(vs[3], Value::Text("a".into()));
        assert_eq!(vs[4], Value::IntArray(vec![1].into()));
    }

    #[test]
    fn coercion_widens_and_rejects() {
        assert_eq!(
            Value::Int(2).coerce_to(DataType::Double).unwrap(),
            Value::Double(2.0)
        );
        assert_eq!(
            Value::Double(2.5).coerce_to(DataType::Text).unwrap(),
            Value::Text("2.5".into())
        );
        assert_eq!(
            Value::Double(2.0).coerce_to(DataType::Text).unwrap(),
            Value::Text("2".into())
        );
        assert!(Value::Text("x".into()).coerce_to(DataType::Int).is_err());
        assert!(Value::Double(2.5).coerce_to(DataType::Int).is_err());
    }

    #[test]
    fn storage_bytes_accounting() {
        assert_eq!(Value::Int(1).storage_bytes(), 8);
        assert_eq!(Value::Text("abcd".into()).storage_bytes(), 8);
        assert_eq!(
            Value::IntArray(vec![1, 2, 3].into()).storage_bytes(),
            8 + 24
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::IntArray(vec![1, 2].into()).to_string(), "{1,2}");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Double(1.5).to_string(), "1.5");
        assert_eq!(Value::Double(3.0).to_string(), "3");
    }
}
