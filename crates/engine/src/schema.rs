//! Table schemas: named, typed columns plus an optional composite primary
//! key — e.g. the paper's protein table with PK `<protein1, protein2>`.

use std::borrow::Cow;

use crate::error::{EngineError, Result};
use crate::types::{DataType, Value};

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub dtype: DataType,
    pub nullable: bool,
}

impl Column {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Column {
        Column {
            name: name.into(),
            dtype,
            nullable: true,
        }
    }

    pub fn not_null(mut self) -> Column {
        self.nullable = false;
        self
    }
}

/// An ordered list of columns with an optional composite primary key
/// (indices into `columns`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    pub columns: Vec<Column>,
    pub primary_key: Vec<usize>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Schema {
        Schema {
            columns,
            primary_key: Vec::new(),
        }
    }

    /// Set the primary key by column names.
    pub fn with_primary_key(mut self, names: &[&str]) -> Result<Schema> {
        let mut pk = Vec::with_capacity(names.len());
        for n in names {
            pk.push(self.column_index(n)?);
        }
        self.primary_key = pk;
        Ok(self)
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Position of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| EngineError::ColumnNotFound(name.to_string()))
    }

    pub fn has_column(&self, name: &str) -> bool {
        self.column_index(name).is_ok()
    }

    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Names of the primary-key columns in key order.
    pub fn primary_key_names(&self) -> Vec<String> {
        self.primary_key
            .iter()
            .map(|&i| self.columns[i].name.clone())
            .collect()
    }

    /// Extract the primary-key values of a row (empty if no PK).
    pub fn pk_values(&self, row: &[Value]) -> Vec<Value> {
        self.primary_key.iter().map(|&i| row[i].clone()).collect()
    }

    /// Validate a row against the schema, coercing values to declared types
    /// (e.g. INT literals into DOUBLE columns). Returns the coerced row: the
    /// one passed in, with only the cells whose type differs from their
    /// column's replaced, so a row that needs no coercion is not copied. A
    /// borrowed row that needs one is copied once, then coerced.
    pub fn check_row<'r>(&self, mut row: Cow<'r, [Value]>) -> Result<Cow<'r, [Value]>> {
        if row.len() != self.columns.len() {
            return Err(EngineError::Arity(format!(
                "row has {} values, schema {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        for (i, c) in self.columns.iter().enumerate() {
            match row[i].data_type() {
                None if !c.nullable => {
                    return Err(EngineError::Invalid(format!(
                        "null value in non-nullable column {}",
                        c.name
                    )));
                }
                Some(t) if t != c.dtype => {
                    let coerced = row[i].coerce_to(c.dtype)?;
                    row.to_mut()[i] = coerced;
                }
                _ => {}
            }
        }
        Ok(row)
    }

    /// Schema of a projection of this schema.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema::new(indices.iter().map(|&i| self.columns[i].clone()).collect())
    }

    /// Concatenate two schemas (used by joins). Primary keys do not survive.
    pub fn join(&self, other: &Schema) -> Schema {
        let mut cols = self.columns.clone();
        cols.extend(other.columns.iter().cloned());
        Schema::new(cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Row;

    fn protein_schema() -> Schema {
        Schema::new(vec![
            Column::new("protein1", DataType::Text),
            Column::new("protein2", DataType::Text),
            Column::new("neighborhood", DataType::Int),
            Column::new("cooccurrence", DataType::Int),
            Column::new("coexpression", DataType::Int),
        ])
        .with_primary_key(&["protein1", "protein2"])
        .unwrap()
    }

    #[test]
    fn composite_primary_key_lookup() {
        let s = protein_schema();
        assert_eq!(s.primary_key, vec![0, 1]);
        assert_eq!(s.primary_key_names(), vec!["protein1", "protein2"]);
        let row: Row = vec![
            "a".into(),
            "b".into(),
            Value::Int(0),
            Value::Int(53),
            Value::Int(0),
        ];
        assert_eq!(
            s.pk_values(&row),
            vec![Value::Text("a".into()), Value::Text("b".into())]
        );
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let s = protein_schema();
        assert_eq!(s.column_index("Protein1").unwrap(), 0);
        assert!(s.column_index("nope").is_err());
    }

    #[test]
    fn check_row_coerces_and_rejects() {
        let s = Schema::new(vec![
            Column::new("a", DataType::Double),
            Column::new("b", DataType::Text).not_null(),
        ]);
        let ok = s.check_row(vec![Value::Int(1), "x".into()].into()).unwrap();
        assert_eq!(ok[0], Value::Double(1.0));
        assert!(s
            .check_row(vec![Value::Int(1), Value::Null].into())
            .is_err());
        assert!(s.check_row(vec![Value::Int(1)].into()).is_err());
        // A borrowed row is copied only when a cell needs coercing.
        let fine = [Value::Double(1.0), "x".into()];
        assert!(matches!(
            s.check_row(Cow::Borrowed(&fine)),
            Ok(Cow::Borrowed(_))
        ));
        let coerced = [Value::Int(1), "x".into()];
        let ok = s.check_row(Cow::Borrowed(&coerced)).unwrap();
        assert!(matches!(ok, Cow::Owned(_)));
        assert_eq!(ok[0], Value::Double(1.0));
    }

    /// The check as it was before it worked in place: every cell cloned or
    /// coerced into a new row. The reference the in-place check must match.
    fn check_row_copying(schema: &Schema, row: &Row) -> Result<Row> {
        if row.len() != schema.columns.len() {
            return Err(EngineError::Arity(format!(
                "row has {} values, schema {} columns",
                row.len(),
                schema.columns.len()
            )));
        }
        let mut out = Vec::with_capacity(row.len());
        for (v, c) in row.iter().zip(&schema.columns) {
            if v.is_null() {
                if !c.nullable {
                    return Err(EngineError::Invalid(format!(
                        "null value in non-nullable column {}",
                        c.name
                    )));
                }
                out.push(Value::Null);
            } else {
                out.push(v.coerce_to(c.dtype)?);
            }
        }
        Ok(out)
    }

    /// Cells for every path through the check: NULL, each type, values a
    /// coercion treats specially (integral and fractional doubles, `NaN`,
    /// `-0.0`, infinities, the `i64` extremes) and arrays.
    fn cells() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Int(0),
            Value::Int(-7),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Double(2.0),
            Value::Double(1.5),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Double(f64::INFINITY),
            Value::Double(-9.3e18),
            Value::Text(String::new()),
            Value::Text("x".into()),
            Value::Bool(true),
            Value::Bool(false),
            Value::IntArray(vec![]),
            Value::IntArray(vec![i64::MIN, 3]),
        ]
    }

    const TYPES: [DataType; 5] = [
        DataType::Int,
        DataType::Double,
        DataType::Text,
        DataType::Bool,
        DataType::IntArray,
    ];

    /// The named cases, each against the reference and pinned to its
    /// outcome. `Debug` output tells `Int(1)` from `Double(1.0)` and `-0.0`
    /// from `0.0`, which `Value` equality does not.
    #[test]
    fn the_in_place_check_matches_the_copying_one_on_named_cases() {
        let col = |t| Column::new("c", t);
        let cases: Vec<(Schema, Row, &str)> = vec![
            (
                Schema::new(vec![col(DataType::Int).not_null()]),
                vec![Value::Null],
                "Err(Invalid(\"null value in non-nullable column c\"))",
            ),
            (
                Schema::new(vec![col(DataType::Int), col(DataType::Int)]),
                vec![Value::Int(1)],
                "Err(Arity(\"row has 1 values, schema 2 columns\"))",
            ),
            (
                Schema::new(vec![col(DataType::Double)]),
                vec![Value::Int(i64::MIN)],
                "Ok([Double(-9.223372036854776e18)])",
            ),
            (
                Schema::new(vec![col(DataType::Int)]),
                vec![Value::Double(-0.0)],
                "Ok([Int(0)])",
            ),
            (
                Schema::new(vec![col(DataType::Int)]),
                vec![Value::Double(1.5)],
                "Err(TypeMismatch(\"cannot coerce 1.5 to INT\"))",
            ),
            (
                Schema::new(vec![col(DataType::Text), col(DataType::Text)]),
                vec![Value::Bool(true), Value::Double(2.5)],
                "Ok([Text(\"true\"), Text(\"2.5\")])",
            ),
            (
                Schema::new(vec![col(DataType::Double), col(DataType::IntArray)]),
                vec![Value::Double(f64::NAN), Value::IntArray(vec![i64::MIN])],
                "Ok([Double(NaN), IntArray([-9223372036854775808])])",
            ),
            (
                Schema::new(vec![col(DataType::Double)]),
                vec![Value::Double(-0.0)],
                "Ok([Double(-0.0)])",
            ),
            (
                Schema::new(vec![col(DataType::Int)]),
                vec![Value::IntArray(vec![1])],
                "Err(TypeMismatch(\"cannot coerce {1} to INT\"))",
            ),
        ];
        for (schema, row, want) in cases {
            let reference = format!("{:?}", check_row_copying(&schema, &row));
            assert_eq!(reference, want, "reference on {row:?}");
            assert_eq!(
                format!("{:?}", schema.check_row(row.clone().into())),
                want,
                "{row:?}"
            );
            assert_eq!(
                format!("{:?}", schema.check_row(Cow::Borrowed(&row))),
                want,
                "borrowed {row:?}"
            );
        }
    }

    /// Random schemas × random rows, arity right or off by one: the in-place
    /// check returns exactly what the copying one returns, value or error.
    #[test]
    fn the_in_place_check_matches_the_copying_one_on_random_rows() {
        let mut state = 0x5eed_u64;
        let mut next = |n: usize| {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let cells = cells();
        for case in 0..5_000 {
            let columns = (0..1 + next(5))
                .map(|i| {
                    let c = Column::new(format!("c{i}"), TYPES[next(TYPES.len())]);
                    if next(3) == 0 {
                        c.not_null()
                    } else {
                        c
                    }
                })
                .collect::<Vec<_>>();
            let arity = match next(8) {
                0 => columns.len() + 1,
                1 => columns.len() - 1,
                _ => columns.len(),
            };
            let schema = Schema::new(columns);
            let row: Row = (0..arity)
                .map(|_| cells[next(cells.len())].clone())
                .collect();
            let reference = format!("{:?}", check_row_copying(&schema, &row));
            assert_eq!(
                format!("{:?}", schema.check_row(Cow::Borrowed(&row))),
                reference,
                "case {case}, borrowed: {schema:?} × {row:?}"
            );
            assert_eq!(
                format!("{:?}", schema.check_row(row.into())),
                reference,
                "case {case}: {schema:?}"
            );
        }
    }

    #[test]
    fn project_and_join_schemas() {
        let s = protein_schema();
        let p = s.project(&[0, 2]);
        assert_eq!(p.column_names(), vec!["protein1", "neighborhood"]);
        let j = p.join(&p);
        assert_eq!(j.arity(), 4);
        assert!(j.primary_key.is_empty());
    }
}
