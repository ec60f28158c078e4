//! Row groups: the morsel-sized unit of storage shared between versions.
//!
//! A [`RowGroups`] list holds rows in groups of exactly
//! [`BATCH_CAPACITY`] rows — every group is full except the last — so
//! group `i` is precisely morsel `i` of the scan grid
//! ([`rdb_vector::morsel_bounds`]). Groups are immutable and `Arc`-shared:
//! a new version built by [`RowGroups::append`] or [`RowGroups::delete`]
//! rebuilds only the groups whose rows move and shares every other group
//! with its predecessor. That makes each commit cost O(delta):
//!
//! * an append rebuilds the last (partial) group and adds new ones;
//! * a delete rebuilds the groups from the first deleted row onward (the
//!   rows behind a hole shift forward to keep every group full);
//! * a fresh load ([`RowGroups::from_columns`]) copies nothing — its
//!   groups are O(1) windows over the loaded columns.
//!
//! Each group also carries a lazily computed [`Zone`] (min/max) per Int
//! and Date column, which scans use to skip groups a predicate cannot
//! match.

use std::sync::{Arc, OnceLock};

use rdb_vector::column::{Column, ColumnBuilder, ColumnSlice};
use rdb_vector::{Batch, DataType, Value, BATCH_CAPACITY};

/// The value range of one column over one row group.
#[derive(Debug, Clone, PartialEq)]
pub enum Zone {
    /// No row holds a value: every row is NULL.
    Empty,
    /// Smallest and largest non-NULL value, both inclusive.
    Range(Value, Value),
}

/// One group of at most [`BATCH_CAPACITY`] rows: a column per field plus
/// the lazily computed zone of each Int and Date column.
#[derive(Debug)]
pub struct RowGroup {
    columns: Vec<Column>,
    rows: usize,
    zones: Box<[OnceLock<Zone>]>,
}

impl RowGroup {
    /// A group over equal-length columns of at most [`BATCH_CAPACITY`]
    /// rows.
    pub fn new(columns: Vec<Column>) -> RowGroup {
        let rows = columns.first().map_or(0, |c| c.len());
        assert!(rows <= BATCH_CAPACITY, "row group of {rows} rows");
        for c in &columns {
            assert_eq!(c.len(), rows, "row group column length mismatch");
        }
        let zones = columns.iter().map(|_| OnceLock::new()).collect();
        RowGroup {
            columns,
            rows,
            zones,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column by position.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// The whole group as a batch (zero-copy: shares the group's columns).
    pub fn batch(&self) -> Batch {
        Batch::new(self.columns.clone())
    }

    /// The columns at positions `projection` as a batch (zero-copy).
    pub fn project(&self, projection: &[usize]) -> Batch {
        Batch::new(
            projection
                .iter()
                .map(|&i| self.columns[i].clone())
                .collect(),
        )
    }

    /// Min/max of column `i`, computed on first use and kept for the
    /// group's lifetime (so every version sharing the group shares it).
    /// `None` for column types without zones (anything but Int and Date).
    pub fn zone(&self, i: usize) -> Option<&Zone> {
        let col = &self.columns[i];
        if !matches!(col.data_type(), DataType::Int | DataType::Date) {
            return None;
        }
        Some(self.zones[i].get_or_init(|| compute_zone(col)))
    }

    /// Approximate in-memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.size_bytes()).sum()
    }
}

fn compute_zone(col: &Column) -> Zone {
    fn min_max<T: Copy + Ord>(vals: &[T], valid: Option<&[bool]>) -> Option<(T, T)> {
        let mut it = vals
            .iter()
            .enumerate()
            .filter(|&(i, _)| valid.is_none_or(|m| m[i]))
            .map(|(_, &v)| v);
        let first = it.next()?;
        Some(it.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v))))
    }
    let range = match col.values() {
        ColumnSlice::Int(v) => {
            min_max(v, col.validity()).map(|(lo, hi)| (Value::Int(lo), Value::Int(hi)))
        }
        ColumnSlice::Date(v) => {
            min_max(v, col.validity()).map(|(lo, hi)| (Value::Date(lo), Value::Date(hi)))
        }
        _ => unreachable!("zones exist only for int and date columns"),
    };
    match range {
        Some((lo, hi)) => Zone::Range(lo, hi),
        None => Zone::Empty,
    }
}

/// An ordered list of shared row groups, every one full except the last.
#[derive(Debug, Clone, Default)]
pub struct RowGroups {
    groups: Vec<Arc<RowGroup>>,
    rows: usize,
}

impl RowGroups {
    /// Group equal-length columns. O(1) per group: each group column is a
    /// window sharing the input column's storage.
    pub fn from_columns(columns: Vec<Column>) -> RowGroups {
        let mut out = RowGroups::default();
        out.push_columns(&columns);
        out
    }

    /// Append `columns` (equal length) as new groups after the current
    /// ones, which must all be full.
    fn push_columns(&mut self, columns: &[Column]) {
        let rows = columns.first().map_or(0, |c| c.len());
        debug_assert!(
            self.rows.is_multiple_of(BATCH_CAPACITY),
            "last group is partial"
        );
        let mut offset = 0;
        while offset < rows {
            let len = BATCH_CAPACITY.min(rows - offset);
            self.groups.push(Arc::new(RowGroup::new(
                columns.iter().map(|c| c.slice(offset, len)).collect(),
            )));
            offset += len;
        }
        self.rows += rows;
    }

    /// Total rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups (and so no rows).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The groups, in row order.
    pub fn groups(&self) -> &[Arc<RowGroup>] {
        &self.groups
    }

    /// Group `i`: rows `[i * BATCH_CAPACITY, ...)`.
    pub fn group(&self, i: usize) -> &Arc<RowGroup> {
        &self.groups[i]
    }

    /// Approximate in-memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.groups.iter().map(|g| g.size_bytes()).sum()
    }

    /// Row `i` as owned values.
    pub fn row(&self, i: usize) -> Vec<Value> {
        let g = &self.groups[i / BATCH_CAPACITY];
        let r = i % BATCH_CAPACITY;
        g.columns.iter().map(|c| c.get(r)).collect()
    }

    /// The successor holding these rows followed by `tail` (equal-length
    /// columns, same types). Every full group is shared; only a partial
    /// last group is rebuilt, together with the new groups after it.
    pub fn append(&self, tail: &[Column]) -> RowGroups {
        let added = tail.first().map_or(0, |c| c.len());
        if added == 0 {
            return self.clone();
        }
        let mut next = self.clone();
        match next.groups.last() {
            Some(last) if last.rows < BATCH_CAPACITY => {
                let last = next.groups.pop().expect("checked non-empty");
                next.rows -= last.rows;
                let merged: Vec<Column> = last
                    .columns
                    .iter()
                    .zip(tail)
                    .map(|(old, new)| Column::concat(&[old, new]))
                    .collect();
                next.push_columns(&merged);
            }
            _ => next.push_columns(tail),
        }
        next
    }

    /// The successor without the rows at `positions` (strictly ascending,
    /// each below [`RowGroups::rows`]). Groups before the one holding the
    /// first deleted row are shared; the remaining rows are rebuilt into
    /// fresh full groups, each kept row copied once.
    pub fn delete(&self, positions: &[u64]) -> RowGroups {
        let Some(&first) = positions.first() else {
            return self.clone();
        };
        assert!(
            positions.windows(2).all(|w| w[0] < w[1])
                && positions.last().is_some_and(|&p| (p as usize) < self.rows),
            "delete positions must be strictly ascending and in range"
        );
        let start = first as usize / BATCH_CAPACITY;
        let base = start * BATCH_CAPACITY;
        let kept = self.rows - base - positions.len();
        let mut builders: Vec<ColumnBuilder> = self.groups[start]
            .columns
            .iter()
            .map(|c| ColumnBuilder::new(c.data_type(), kept))
            .collect();
        // Copy the kept runs between consecutive deleted positions.
        let mut copy_run = |from: usize, to: usize| {
            let mut at = from;
            while at < to {
                let g = &self.groups[at / BATCH_CAPACITY];
                let r = at % BATCH_CAPACITY;
                let len = (g.rows - r).min(to - at);
                for (b, c) in builders.iter_mut().zip(&g.columns) {
                    b.append_column(&c.slice(r, len));
                }
                at += len;
            }
        };
        let mut from = base;
        for &p in positions {
            copy_run(from, p as usize);
            from = p as usize + 1;
        }
        copy_run(from, self.rows);
        let mut next = RowGroups {
            groups: self.groups[..start].to_vec(),
            rows: base,
        };
        let rebuilt: Vec<Column> = builders.into_iter().map(|b| b.finish()).collect();
        next.push_columns(&rebuilt);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(range: std::ops::Range<i64>) -> Vec<Column> {
        vec![Column::from_ints(range.collect())]
    }

    fn values(g: &RowGroups) -> Vec<i64> {
        (0..g.rows())
            .map(|i| g.row(i)[0].as_int().unwrap())
            .collect()
    }

    #[test]
    fn from_columns_windows_without_copying() {
        let cols = ints(0..2500);
        let g = RowGroups::from_columns(cols.clone());
        assert_eq!(g.len(), 3);
        assert_eq!(
            g.groups().iter().map(|x| x.rows()).collect::<Vec<_>>(),
            vec![1024, 1024, 452]
        );
        assert!(g
            .groups()
            .iter()
            .all(|x| x.column(0).shares_storage(&cols[0])));
    }

    #[test]
    fn append_and_delete_rebuild_only_touched_groups() {
        let g = RowGroups::from_columns(ints(0..2100));
        let a = g.append(&ints(2100..2110));
        assert_eq!(values(&a), (0..2110).collect::<Vec<_>>());
        assert!(Arc::ptr_eq(g.group(0), a.group(0)) && Arc::ptr_eq(g.group(1), a.group(1)));
        assert!(
            !Arc::ptr_eq(g.group(2), a.group(2)),
            "partial last group rebuilt"
        );
        let d = a.delete(&[1500, 2000, 2109]);
        assert!(Arc::ptr_eq(a.group(0), d.group(0)));
        let expect: Vec<i64> = (0..2110)
            .filter(|v| ![1500, 2000, 2109].contains(v))
            .collect();
        assert_eq!(values(&d), expect);
        assert_eq!(
            d.groups().iter().map(|x| x.rows()).collect::<Vec<_>>(),
            vec![1024, 1024, 59],
            "every group but the last stays full"
        );
        assert_eq!(d.delete(&(0..2107).collect::<Vec<u64>>()).rows(), 0);
    }

    #[test]
    fn zones_track_min_max_and_nulls() {
        let mut b = ColumnBuilder::new(DataType::Int, 4);
        for v in [Value::Int(5), Value::Null, Value::Int(-2), Value::Int(9)] {
            b.push(v);
        }
        let mut n = ColumnBuilder::new(DataType::Date, 2);
        n.push_null();
        n.push_null();
        let g = RowGroup::new(vec![b.finish(), Column::from_floats(vec![1.0; 4])]);
        assert_eq!(g.zone(0), Some(&Zone::Range(Value::Int(-2), Value::Int(9))));
        assert_eq!(g.zone(1), None, "no zones for floats");
        let all_null = RowGroup::new(vec![n.finish()]);
        assert_eq!(all_null.zone(0), Some(&Zone::Empty));
    }
}
