//! Answer checks: results compared as multisets of rows, floats to a
//! relative 1e-9.
//!
//! Both sides are reduced to text cells first (engine values are rendered,
//! wire values arrive as text), so an in-process answer and a pgwire
//! answer compare by the same rule.

use rdb_vector::{format_date, Batch, Value};

const REL_TOL: f64 = 1e-9;

/// One comparable result cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Null,
    Num(f64),
    Text(String),
}

impl Cell {
    pub fn from_text(text: Option<&str>) -> Cell {
        match text {
            None => Cell::Null,
            Some(s) => match s.parse::<f64>() {
                Ok(x) if s.bytes().any(|b| b.is_ascii_digit()) => Cell::Num(x),
                _ => Cell::Text(s.to_string()),
            },
        }
    }

    pub fn from_value(v: &Value) -> Cell {
        match v {
            Value::Null => Cell::Null,
            Value::Bool(b) => Cell::Text(if *b { "t" } else { "f" }.to_string()),
            Value::Int(i) => Cell::Num(*i as f64),
            Value::Float(f) => Cell::Num(*f),
            Value::Str(s) => Cell::from_text(Some(s)),
            Value::Date(d) => Cell::Text(format_date(*d)),
        }
    }

    fn close(&self, other: &Cell) -> bool {
        match (self, other) {
            (Cell::Num(a), Cell::Num(b)) => {
                a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
            }
            (a, b) => a == b,
        }
    }

    fn order(&self, other: &Cell) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (Cell::Null, Cell::Null) => Ordering::Equal,
            (Cell::Null, _) => Ordering::Less,
            (_, Cell::Null) => Ordering::Greater,
            (Cell::Num(a), Cell::Num(b)) => a.total_cmp(b),
            (Cell::Num(_), Cell::Text(_)) => Ordering::Less,
            (Cell::Text(_), Cell::Num(_)) => Ordering::Greater,
            (Cell::Text(a), Cell::Text(b)) => a.cmp(b),
        }
    }
}

pub type Row = Vec<Cell>;

pub fn rows_of_batch(batch: &Batch) -> Vec<Row> {
    batch
        .to_rows()
        .iter()
        .map(|r| r.iter().map(Cell::from_value).collect())
        .collect()
}

pub fn rows_of_text(rows: &[Vec<Option<String>>]) -> Vec<Row> {
    rows.iter()
        .map(|r| r.iter().map(|c| Cell::from_text(c.as_deref())).collect())
        .collect()
}

fn rows_close(a: &Row, b: &Row) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.close(y))
}

fn sort_rows(rows: &mut [Row]) {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.order(y))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| a.len().cmp(&b.len()))
    });
}

/// Whether two results hold the same rows, in any order, with floats
/// equal to a relative 1e-9.
pub fn same_multiset(mut got: Vec<Row>, mut want: Vec<Row>) -> bool {
    if got.len() != want.len() {
        return false;
    }
    sort_rows(&mut got);
    sort_rows(&mut want);
    if got.iter().zip(&want).all(|(a, b)| rows_close(a, b)) {
        return true;
    }
    // Floats that differ in their last digits can sort two near-equal
    // rows the other way round; match greedily before calling it wrong.
    let mut unmatched = want;
    for row in &got {
        match unmatched.iter().position(|w| rows_close(row, w)) {
            Some(i) => {
                unmatched.swap_remove(i);
            }
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cells: &[&str]) -> Row {
        cells.iter().map(|c| Cell::from_text(Some(c))).collect()
    }

    #[test]
    fn order_does_not_matter_and_floats_compare_relatively() {
        let a = vec![
            row(&["1", "x", "0.30000000000000004"]),
            row(&["2", "y", "5"]),
        ];
        let b = vec![row(&["2", "y", "5.0"]), row(&["1", "x", "0.3"])];
        assert!(same_multiset(a, b));
    }

    #[test]
    fn multiplicity_and_text_matter() {
        let a = vec![row(&["1"]), row(&["1"])];
        let b = vec![row(&["1"]), row(&["2"])];
        assert!(!same_multiset(a, b));
        assert!(!same_multiset(vec![row(&["abc"])], vec![row(&["abd"])]));
        assert!(!same_multiset(vec![row(&["1.0"])], vec![row(&["1.00001"])]));
    }

    #[test]
    fn values_and_text_meet() {
        let v = vec![vec![
            Cell::from_value(&Value::Int(7)),
            Cell::from_value(&Value::Date(rdb_vector::date_from_ymd(1995, 3, 5))),
            Cell::from_value(&Value::str("R")),
        ]];
        assert!(same_multiset(v, vec![row(&["7", "1995-03-05", "R"])]));
    }
}
