//! Minimal CSV support for `checkout -f` / `commit -f` (Section 2.2):
//! export a version to a CSV file for editing in Python/R, and read it
//! back with an explicit schema file (`-s`) describing the column types.
//!
//! Format: RFC-4180-style quoting (fields containing commas, quotes, or
//! newlines are wrapped in `"` with `""` escapes); the first row is the
//! header. The hidden `rid` column round-trips so commit can diff against
//! parents; an empty `rid` field marks a newly inserted row.

use orpheus_engine::{Column, DataType, Schema, Value};

use crate::error::{CoreError, Result};

/// Serialize rows (with header) to CSV text; a short row reads NULL in
/// the columns it lacks.
pub fn to_csv<'v, R>(schema: &Schema, rows: impl IntoIterator<Item = R>) -> String
where
    R: IntoIterator<Item = &'v Value>,
{
    let mut out = String::new();
    let header: Vec<String> = schema.columns.iter().map(|c| escape(&c.name)).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        let mut fields: Vec<String> = row.into_iter().map(value_to_field).collect();
        fields.resize(schema.arity(), String::new());
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

fn value_to_field(v: &Value) -> String {
    match v {
        Value::Null => String::new(),
        Value::Text(s) => escape(s),
        other => escape(&other.to_string()),
    }
}

fn escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Parse CSV text into (header, string rows).
pub fn parse_csv(text: &str) -> Result<(Vec<String>, Vec<Vec<String>>)> {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut field = String::new();
    let mut record: Vec<String> = Vec::new();
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {}
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut record));
                }
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return Err(CoreError::Csv("unterminated quoted field".into()));
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        rows.push(record);
    }
    if rows.is_empty() {
        return Err(CoreError::Csv("empty csv".into()));
    }
    let header = rows.remove(0);
    for (i, r) in rows.iter().enumerate() {
        if r.len() != header.len() {
            return Err(CoreError::Csv(format!(
                "row {} has {} fields, header has {}",
                i + 2,
                r.len(),
                header.len()
            )));
        }
    }
    Ok((header, rows))
}

/// Convert parsed string rows to typed values under a schema. Empty fields
/// become NULL.
pub fn typed_rows(
    schema: &Schema,
    header: &[String],
    rows: &[Vec<String>],
) -> Result<Vec<Vec<Value>>> {
    // Map schema columns to csv columns by name.
    let mut mapping = Vec::with_capacity(schema.arity());
    for col in &schema.columns {
        let idx = header
            .iter()
            .position(|h| h.eq_ignore_ascii_case(&col.name))
            .ok_or_else(|| {
                CoreError::SchemaMismatch(format!("csv is missing column {}", col.name))
            })?;
        mapping.push(idx);
    }
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let mut values = Vec::with_capacity(schema.arity());
        for (ci, col) in schema.columns.iter().enumerate() {
            let field = &row[mapping[ci]];
            values.push(parse_field(field, col.dtype)?);
        }
        out.push(values);
    }
    Ok(out)
}

fn parse_field(field: &str, dtype: DataType) -> Result<Value> {
    if field.is_empty() {
        return Ok(Value::Null);
    }
    match dtype {
        DataType::Int => field
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| CoreError::Csv(format!("invalid INT: {field}"))),
        DataType::Double => field
            .parse::<f64>()
            .map(Value::Double)
            .map_err(|_| CoreError::Csv(format!("invalid DOUBLE: {field}"))),
        DataType::Bool => match field.to_ascii_lowercase().as_str() {
            "true" | "t" | "1" => Ok(Value::Bool(true)),
            "false" | "f" | "0" => Ok(Value::Bool(false)),
            _ => Err(CoreError::Csv(format!("invalid BOOL: {field}"))),
        },
        DataType::Text => Ok(Value::Text(field.to_string())),
        DataType::IntArray => {
            let trimmed = field.trim_start_matches('{').trim_end_matches('}');
            if trimmed.is_empty() {
                return Ok(Value::from(Vec::new()));
            }
            let parts: std::result::Result<Vec<i64>, _> = trimmed
                .split(',')
                .map(|p| p.trim().parse::<i64>())
                .collect();
            parts
                .map(Value::from)
                .map_err(|_| CoreError::Csv(format!("invalid INT[]: {field}")))
        }
    }
}

/// Parse a schema file: one `name:type` per line (or comma-separated), with
/// an optional `!pk` suffix marking primary-key columns, e.g.
/// `protein1:text!pk`.
pub fn parse_schema_file(text: &str) -> Result<Schema> {
    let mut cols = Vec::new();
    let mut pk: Vec<String> = Vec::new();
    for raw in text.split(['\n', ',']) {
        let spec = raw.trim();
        if spec.is_empty() || spec.starts_with('#') {
            continue;
        }
        let (name_part, ty_part) = spec
            .split_once(':')
            .ok_or_else(|| CoreError::Csv(format!("bad schema entry: {spec}")))?;
        let (ty_name, is_pk) = match ty_part.strip_suffix("!pk") {
            Some(t) => (t.trim(), true),
            None => (ty_part.trim(), false),
        };
        let dtype = DataType::parse(ty_name)
            .map_err(|e| CoreError::Csv(format!("bad schema type: {e}")))?;
        let name = name_part.trim().to_string();
        if is_pk {
            pk.push(name.clone());
        }
        cols.push(Column::new(name, dtype));
    }
    if cols.is_empty() {
        return Err(CoreError::Csv("schema file has no columns".into()));
    }
    let schema = Schema::new(cols);
    if pk.is_empty() {
        Ok(schema)
    } else {
        let names: Vec<&str> = pk.iter().map(|s| s.as_str()).collect();
        schema.with_primary_key(&names).map_err(CoreError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("rid", DataType::Int),
            Column::new("name", DataType::Text),
            Column::new("score", DataType::Double),
        ])
    }

    #[test]
    fn roundtrip_with_quoting() {
        let rows = vec![
            vec![
                Value::Int(1),
                Value::Text("plain".into()),
                Value::Double(1.5),
            ],
            vec![
                Value::Int(2),
                Value::Text("has, comma and \"quotes\"".into()),
                Value::Null,
            ],
        ];
        let text = to_csv(&schema(), &rows);
        let (header, parsed) = parse_csv(&text).unwrap();
        assert_eq!(header, vec!["rid", "name", "score"]);
        let typed = typed_rows(&schema(), &header, &parsed).unwrap();
        assert_eq!(typed, rows);
    }

    #[test]
    fn empty_field_is_null_and_new_rows_have_no_rid() {
        let text = "rid,name,score\n,newrow,2.0\n";
        let (h, rows) = parse_csv(text).unwrap();
        let typed = typed_rows(&schema(), &h, &rows).unwrap();
        assert_eq!(typed[0][0], Value::Null);
        assert_eq!(typed[0][1], Value::Text("newrow".into()));
    }

    #[test]
    fn header_reordering_is_tolerated() {
        let text = "score,rid,name\n3.5,7,x\n";
        let (h, rows) = parse_csv(text).unwrap();
        let typed = typed_rows(&schema(), &h, &rows).unwrap();
        assert_eq!(
            typed[0],
            vec![Value::Int(7), Value::Text("x".into()), Value::Double(3.5)]
        );
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(parse_csv("").is_err());
        assert!(parse_csv("a,b\n\"unterminated").is_err());
        assert!(parse_csv("a,b\n1\n").is_err()); // ragged row
        let (h, rows) = parse_csv("rid,name,score\nx,y,z\n").unwrap();
        assert!(typed_rows(&schema(), &h, &rows).is_err()); // bad int
        let text = "other,cols\n1,2\n";
        let (h, rows) = parse_csv(text).unwrap();
        assert!(matches!(
            typed_rows(&schema(), &h, &rows),
            Err(CoreError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn schema_file_parsing() {
        let s = parse_schema_file("protein1:text!pk\nprotein2:text!pk\nscore:int\n").unwrap();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.primary_key, vec![0, 1]);
        assert!(parse_schema_file("").is_err());
        assert!(parse_schema_file("name").is_err());
        assert!(parse_schema_file("name:blob").is_err());
        let s = parse_schema_file("a:int, b:double").unwrap();
        assert_eq!(s.arity(), 2);
    }

    #[test]
    fn int_array_fields() {
        let s = Schema::new(vec![Column::new("arr", DataType::IntArray)]);
        let (h, rows) = parse_csv("arr\n\"{1, 2, 3}\"\n{}\n").unwrap();
        let typed = typed_rows(&s, &h, &rows).unwrap();
        assert_eq!(typed[0][0], Value::IntArray(vec![1, 2, 3].into()));
        assert_eq!(typed[1][0], Value::IntArray(vec![].into()));
    }
}
