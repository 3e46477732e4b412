//! Hash aggregation with GROUP BY.
//!
//! OrpheusDB's versioned analytics — "the aggregate count of protein-protein
//! tuples with confidence > 0.9, for each version" — compile down to GROUP
//! BY queries over the versioning/data tables, so the engine supports the
//! standard aggregate set plus `array_agg` (used to build `rlist` values
//! during commit).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use crate::error::{EngineError, Result};
use crate::exec::{execute, Chunk, ExecContext, Plan};
use crate::expr::Expr;
use crate::schema::Schema;
use crate::types::Value;

/// Aggregate function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
    /// Collect int values into an `INT[]` in input order.
    ArrayAgg,
}

impl AggFunc {
    pub fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "array_agg" => Some(AggFunc::ArrayAgg),
            _ => None,
        }
    }
}

/// One aggregate in the SELECT list.
#[derive(Debug, Clone)]
pub struct Aggregate {
    pub func: AggFunc,
    /// Argument expression; ignored for `CountStar`.
    pub arg: Option<Expr>,
    pub distinct: bool,
}

/// Running accumulator for one aggregate within one group.
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    /// `int` is exact while every value is an INT; `float` sums every value
    /// as a DOUBLE, in input order, for a sum that saw a DOUBLE.
    Sum {
        int: i128,
        float: f64,
        all_int: bool,
        seen: bool,
    },
    Avg {
        total: f64,
        n: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    ArrayAgg(Vec<i64>),
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::CountStar | AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum {
                int: 0,
                float: 0.0,
                all_int: true,
                seen: false,
            },
            AggFunc::Avg => Acc::Avg { total: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::ArrayAgg => Acc::ArrayAgg(Vec::new()),
        }
    }

    /// Fold in one argument value; NULL is skipped by every aggregate.
    fn update(&mut self, val: &Value) -> Result<()> {
        if val.is_null() {
            return Ok(());
        }
        match self {
            Acc::Count(c) => *c += 1,
            Acc::Sum {
                int,
                float,
                all_int,
                seen,
            } => {
                match val {
                    Value::Int(i) => {
                        // An i128 cannot overflow on fewer than 2^64 rows.
                        *int += i128::from(*i);
                        *float += *i as f64;
                    }
                    other => {
                        *float += other.as_double()?;
                        *all_int = false;
                    }
                }
                *seen = true;
            }
            Acc::Avg { total, n } => {
                *total += val.as_double()?;
                *n += 1;
            }
            Acc::Min(best) => {
                let better = match best {
                    None => true,
                    Some(b) => val.total_cmp(b).is_lt(),
                };
                if better {
                    *best = Some(val.clone());
                }
            }
            Acc::Max(best) => {
                let better = match best {
                    None => true,
                    Some(b) => val.total_cmp(b).is_gt(),
                };
                if better {
                    *best = Some(val.clone());
                }
            }
            Acc::ArrayAgg(items) => items.push(val.as_int()?),
        }
        Ok(())
    }

    fn finish(self) -> Result<Value> {
        Ok(match self {
            Acc::Count(c) => Value::Int(c),
            Acc::Sum {
                int,
                float,
                all_int,
                seen,
            } => {
                if !seen {
                    Value::Null
                } else if all_int {
                    Value::Int(i64::try_from(int).map_err(|_| {
                        EngineError::Eval(format!("sum {int} is out of range for INT"))
                    })?)
                } else {
                    Value::Double(float)
                }
            }
            Acc::Avg { total, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Double(total / n as f64)
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
            Acc::ArrayAgg(items) => Value::IntArray(items),
        })
    }
}

/// `e` evaluated over `row`, borrowing the value of a bare column.
fn eval_in_place<'r>(e: &Expr, row: &'r [Value]) -> Result<Cow<'r, Value>> {
    match e {
        Expr::Column(i) if *i < row.len() => Ok(Cow::Borrowed(&row[*i])),
        other => other.eval(row).map(Cow::Owned),
    }
}

/// Execute hash aggregation. Output rows are `group_by values ++ aggregate
/// values`, in first-seen group order (deterministic given input order).
/// Input rows are read where they lie. With no GROUP BY the whole input is
/// one group, folded into one accumulator row with no key and no hashing.
pub fn execute_aggregate<'a>(
    input: &Plan,
    group_by: &[Expr],
    aggregates: &[Aggregate],
    schema: &Schema,
    ctx: &ExecContext<'a>,
) -> Result<Chunk<'a>> {
    let chunk = execute(input, ctx)?;
    let new_accs = || -> Vec<Acc> { aggregates.iter().map(|a| Acc::new(a.func)).collect() };

    // Groups in first-seen order, found through `index` by key.
    let mut groups: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    // Values each DISTINCT aggregate has seen, by (group, aggregate).
    let mut distinct_seen: HashMap<(usize, usize), HashSet<Value>> = HashMap::new();

    // With no GROUP BY the whole input forms a single (possibly empty) group.
    if group_by.is_empty() {
        groups.push((Vec::new(), new_accs()));
    }

    for row in &chunk.rows {
        let g = if group_by.is_empty() {
            0
        } else {
            let key: Vec<Value> = group_by
                .iter()
                .map(|e| e.eval(row))
                .collect::<Result<_>>()?;
            match index.get(&key) {
                Some(&g) => g,
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, new_accs()));
                    groups.len() - 1
                }
            }
        };
        ctx.stats.add_hash_build_rows(1);
        for (i, (agg, acc)) in aggregates.iter().zip(&mut groups[g].1).enumerate() {
            if agg.func == AggFunc::CountStar {
                acc.update(&Value::Bool(true))?;
                continue;
            }
            let arg = agg.arg.as_ref().ok_or_else(|| {
                EngineError::Plan(format!("aggregate {:?} missing argument", agg.func))
            })?;
            let arg = eval_in_place(arg, row)?;
            if agg.distinct
                && !arg.is_null()
                && !distinct_seen
                    .entry((g, i))
                    .or_default()
                    .insert(arg.as_ref().clone())
            {
                continue;
            }
            acc.update(&arg)?;
        }
    }

    let mut rows = Vec::with_capacity(groups.len());
    for (mut row, accs) in groups {
        for acc in accs {
            row.push(acc.finish()?);
        }
        rows.push(Cow::Owned(row));
    }
    Ok(Chunk::new(schema.clone(), rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::stats::ExecStats;
    use crate::table::Table;
    use crate::types::{DataType, Row};
    use std::collections::HashMap as Map;

    fn setup() -> Map<String, Table> {
        let schema = Schema::new(vec![
            Column::new("grp", DataType::Int),
            Column::new("x", DataType::Int),
        ]);
        let mut t = Table::new("t", schema);
        for (g, x) in [(1, 10), (1, 20), (2, 5), (2, 5), (2, 7)] {
            t.insert(vec![Value::Int(g), Value::Int(x)]).unwrap();
        }
        let mut m = Map::new();
        m.insert("t".into(), t);
        m
    }

    fn agg_schema(n: usize) -> Schema {
        Schema::new(
            (0..n)
                .map(|i| Column::new(format!("c{i}"), DataType::Int))
                .collect(),
        )
    }

    fn run(group_by: Vec<Expr>, aggs: Vec<Aggregate>) -> Vec<Row> {
        let tables = setup();
        let stats = ExecStats::default();
        let ctx = ExecContext {
            tables: &tables,
            stats: &stats,
        };
        let width = group_by.len() + aggs.len();
        let plan = Plan::Aggregate {
            input: Box::new(Plan::SeqScan {
                table: "t".into(),
                filter: None,
            }),
            group_by,
            aggregates: aggs,
            schema: agg_schema(width),
        };
        execute(&plan, &ctx).unwrap().into_rows()
    }

    #[test]
    fn group_by_count_sum_avg() {
        let rows = run(
            vec![Expr::col(0)],
            vec![
                Aggregate {
                    func: AggFunc::CountStar,
                    arg: None,
                    distinct: false,
                },
                Aggregate {
                    func: AggFunc::Sum,
                    arg: Some(Expr::col(1)),
                    distinct: false,
                },
                Aggregate {
                    func: AggFunc::Avg,
                    arg: Some(Expr::col(1)),
                    distinct: false,
                },
            ],
        );
        assert_eq!(rows.len(), 2);
        // Groups appear in first-seen order: 1 then 2.
        assert_eq!(rows[0][0], Value::Int(1));
        assert_eq!(rows[0][1], Value::Int(2));
        assert_eq!(rows[0][2], Value::Int(30));
        assert_eq!(rows[0][3], Value::Double(15.0));
        assert_eq!(rows[1][1], Value::Int(3));
        assert_eq!(rows[1][2], Value::Int(17));
    }

    #[test]
    fn min_max_and_distinct_count() {
        let rows = run(
            vec![Expr::col(0)],
            vec![
                Aggregate {
                    func: AggFunc::Min,
                    arg: Some(Expr::col(1)),
                    distinct: false,
                },
                Aggregate {
                    func: AggFunc::Max,
                    arg: Some(Expr::col(1)),
                    distinct: false,
                },
                Aggregate {
                    func: AggFunc::Count,
                    arg: Some(Expr::col(1)),
                    distinct: true,
                },
            ],
        );
        assert_eq!(rows[1][0], Value::Int(2));
        assert_eq!(rows[1][1], Value::Int(5));
        assert_eq!(rows[1][2], Value::Int(7));
        assert_eq!(rows[1][3], Value::Int(2)); // distinct {5, 7}
    }

    #[test]
    fn array_agg_collects_in_order() {
        let rows = run(
            vec![Expr::col(0)],
            vec![Aggregate {
                func: AggFunc::ArrayAgg,
                arg: Some(Expr::col(1)),
                distinct: false,
            }],
        );
        assert_eq!(rows[0][1], Value::IntArray(vec![10, 20]));
        assert_eq!(rows[1][1], Value::IntArray(vec![5, 5, 7]));
    }

    #[test]
    fn global_aggregate_on_empty_group_by() {
        let rows = run(
            vec![],
            vec![Aggregate {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
            }],
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(5));
    }

    /// `sum` of one column holding `values`, one per row.
    fn sum_of(values: &[Value]) -> Result<Value> {
        let tables = Map::new();
        let stats = ExecStats::default();
        let ctx = ExecContext {
            tables: &tables,
            stats: &stats,
        };
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Values {
                schema: agg_schema(1),
                rows: values.iter().map(|v| vec![v.clone()]).collect(),
            }),
            group_by: vec![],
            aggregates: vec![Aggregate {
                func: AggFunc::Sum,
                arg: Some(Expr::col(0)),
                distinct: false,
            }],
            schema: agg_schema(1),
        };
        Ok(execute(&plan, &ctx)?.into_rows().remove(0).remove(0))
    }

    #[test]
    fn an_int_sum_is_exact_past_two_to_the_53() {
        let big = 9_007_199_254_740_993;
        assert_eq!(
            sum_of(&[Value::Int(big), Value::Int(0)]).unwrap(),
            Value::Int(big)
        );
    }

    #[test]
    fn an_int_sum_outside_int_is_an_error_not_a_saturated_value() {
        let max = Value::Int(i64::MAX);
        let err = sum_of(&[max.clone(), max.clone()]).unwrap_err();
        assert!(matches!(err, EngineError::Eval(_)), "{err:?}");
        let min = Value::Int(i64::MIN);
        assert!(matches!(
            sum_of(&[min.clone(), Value::Int(-1)]),
            Err(EngineError::Eval(_))
        ));
        // Only the total must fit: partial sums may leave the range.
        assert_eq!(
            sum_of(&[max.clone(), max, min.clone(), min]).unwrap(),
            Value::Int(-2)
        );
    }

    #[test]
    fn a_sum_that_sees_a_double_is_a_double() {
        let mixed = [
            Value::Int(1),
            Value::Double(0.5),
            Value::Null,
            Value::Int(2),
        ];
        assert_eq!(sum_of(&mixed).unwrap(), Value::Double(3.5));
        assert_eq!(sum_of(&[Value::Double(2.0)]).unwrap(), Value::Double(2.0));
        assert_eq!(sum_of(&[Value::Null]).unwrap(), Value::Null);
        assert_eq!(sum_of(&[]).unwrap(), Value::Null);
    }
}
