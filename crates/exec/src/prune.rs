//! Zone-map pruning: skip row groups a scan's filter cannot match.
//!
//! Every row group keeps a min/max [`Zone`] per Int and Date column
//! ([`rdb_storage::RowGroup::zone`]). A [`ZonePrune`] holds the
//! single-column constraints of a filter's top-level conjuncts (each
//! analyzed on its own by [`analyze_conjunction`]) and reports a group as
//! skippable when some constraint excludes the group's whole value range.
//!
//! Soundness rests on three facts:
//!
//! * a row passes a conjunction only if it passes every conjunct, so one
//!   conjunct that no row of the group can pass rules the group out;
//! * every analyzable conjunct (`col op literal`, `col IN (...)`) is NULL
//!   on a NULL column value, so an all-NULL group passes none of them;
//! * bounds compare with [`Value`]'s order, which for an Int column
//!   against an Int or Float literal (and a Date column against a Date
//!   literal) is exactly the order the selection kernel tests with, and
//!   is monotone in the column value. A literal of any other type
//!   constrains nothing here.
//!
//! Conjuncts are analyzed one at a time, so a conjunct outside the
//! analyzable fragment (an `OR`, a `LIKE`) does not keep the others from
//! pruning.

use rdb_expr::ranges::RangeKey;
use rdb_expr::{analyze_conjunction, Expr, Interval};
use rdb_storage::{RowGroup, Zone};
use rdb_vector::Value;

/// The zone-checkable constraints of one filter predicate, keyed by
/// table column.
#[derive(Debug, Clone)]
pub struct ZonePrune {
    constraints: Vec<(usize, Interval)>,
}

impl ZonePrune {
    /// Constraints of `predicate`, whose column references index the
    /// scan's output columns; `projection[i]` is the table column behind
    /// scan column `i`. `None` when no conjunct constrains a column.
    pub fn new(predicate: &Expr, projection: &[usize]) -> Option<ZonePrune> {
        let mut conjuncts = Vec::new();
        flatten_and(predicate, &mut conjuncts);
        let constraints: Vec<(usize, Interval)> = conjuncts
            .into_iter()
            .filter_map(|c| {
                let analyzed = analyze_conjunction(c)?;
                let mut it = analyzed.into_iter();
                match (it.next(), it.next()) {
                    (Some((RangeKey::Col(i), iv)), None) => Some((*projection.get(i)?, iv)),
                    _ => None,
                }
            })
            .collect();
        (!constraints.is_empty()).then_some(ZonePrune { constraints })
    }

    /// Whether no row of `group` can satisfy the predicate.
    pub fn skips(&self, group: &RowGroup) -> bool {
        self.constraints
            .iter()
            .any(|(col, iv)| match group.zone(*col) {
                None => false,
                Some(Zone::Empty) => true,
                Some(Zone::Range(min, max)) => excludes(iv, min, max),
            })
    }
}

fn flatten_and<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::And(parts) => parts.iter().for_each(|p| flatten_and(p, out)),
        other => out.push(other),
    }
}

/// Whether a literal compares with a zone bound in the kernel's order.
fn comparable(bound: &Value, lit: &Value) -> bool {
    matches!(
        (bound, lit),
        (Value::Int(_), Value::Int(_) | Value::Float(_)) | (Value::Date(_), Value::Date(_))
    )
}

/// Whether no value in `[min, max]` satisfies `iv`.
fn excludes(iv: &Interval, min: &Value, max: &Value) -> bool {
    if let Some((lo, inclusive)) = &iv.lo {
        if comparable(max, lo) && (max < lo || (max == lo && !inclusive)) {
            return true;
        }
    }
    if let Some((hi, inclusive)) = &iv.hi {
        if comparable(min, hi) && (min > hi || (min == hi && !inclusive)) {
            return true;
        }
    }
    // A bare `IN` list (no bounds) matches by value equality, under which
    // only members of the column's own type can ever match.
    match &iv.members {
        Some(members) if iv.lo.is_none() && iv.hi.is_none() => !members.iter().any(|m| {
            std::mem::discriminant(m) == std::mem::discriminant(min) && min <= m && m <= max
        }),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_vector::column::ColumnBuilder;
    use rdb_vector::{Column, DataType};

    fn group() -> RowGroup {
        let mut nulls = ColumnBuilder::new(DataType::Int, 3);
        for _ in 0..3 {
            nulls.push_null();
        }
        RowGroup::new(vec![
            Column::from_ints(vec![10, 20, 30]),
            Column::from_dates(vec![100, 150, 200]),
            nulls.finish(),
            Column::from_floats(vec![1.0, 2.0, 3.0]),
        ])
    }

    fn skips(e: Expr) -> bool {
        ZonePrune::new(&e, &[0, 1, 2, 3]).is_some_and(|p| p.skips(&group()))
    }

    #[test]
    fn bounds_against_int_and_float_literals() {
        assert!(skips(Expr::col(0).gt(Expr::lit(30))));
        assert!(!skips(Expr::col(0).ge(Expr::lit(30))));
        assert!(skips(Expr::col(0).lt(Expr::lit(10))));
        assert!(!skips(Expr::col(0).le(Expr::lit(10))));
        assert!(skips(Expr::col(0).gt(Expr::lit(30.5))));
        assert!(!skips(Expr::col(0).lt(Expr::lit(10.5))));
        assert!(skips(Expr::col(0).eq(Expr::lit(31))));
        assert!(
            !skips(Expr::col(0).eq(Expr::lit(20.0))),
            "int_col = 20.0 holds for 20"
        );
        // Flipped orientation.
        assert!(skips(Expr::lit(5).gt(Expr::col(0))));
    }

    #[test]
    fn dates_and_untracked_columns() {
        assert!(skips(Expr::col(1).gt(Expr::lit(Value::Date(200)))));
        assert!(!skips(Expr::col(1).ge(Expr::lit(Value::Date(200)))));
        // A literal of another type constrains nothing.
        assert!(!skips(Expr::col(1).gt(Expr::lit(500))));
        // Float columns carry no zone.
        assert!(!skips(Expr::col(3).gt(Expr::lit(99.0))));
    }

    #[test]
    fn all_null_groups_match_no_constraint() {
        assert!(skips(Expr::col(2).ne(Expr::lit(1))));
        assert!(skips(Expr::col(2).in_list([Value::Int(1)])));
    }

    #[test]
    fn in_lists_match_by_equality() {
        assert!(skips(Expr::col(0).in_list([Value::Int(5), Value::Int(40)])));
        assert!(!skips(
            Expr::col(0).in_list([Value::Int(5), Value::Int(15)])
        ));
        // `IN` compares by value equality: a float never equals an int.
        assert!(skips(Expr::col(0).in_list([Value::Float(20.0)])));
        // Mixed `=` and `IN` conjuncts are checked separately.
        assert!(!skips(
            Expr::col(0)
                .eq(Expr::lit(20.0))
                .and(Expr::col(0).in_list([Value::Int(20)]))
        ));
    }

    #[test]
    fn one_excluding_conjunct_is_enough() {
        let opaque = Expr::col(0)
            .eq(Expr::lit(1))
            .or(Expr::col(0).eq(Expr::lit(2)));
        assert!(skips(opaque.clone().and(Expr::col(0).gt(Expr::lit(99)))));
        assert!(
            ZonePrune::new(&opaque, &[0]).is_none(),
            "nothing analyzable"
        );
    }
}
