//! Columnar tables: immutable snapshots and versioned mutable wrappers.

use std::sync::Arc;

use parking_lot::RwLock;
use rdb_vector::column::{Column, ColumnBuilder};
use rdb_vector::{Batch, DataType, Schema, Value, BATCH_CAPACITY};

use crate::group::RowGroups;
use crate::StorageError;

/// An immutable, fully in-memory columnar **snapshot** of a table at one
/// epoch, stored as morsel-sized row groups ([`crate::group`]). In-flight
/// scans hold an `Arc<Table>` and keep reading their version's shared
/// groups however many updates commit concurrently.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    groups: RowGroups,
    epoch: u64,
}

impl Table {
    /// Build a table from full-length columns matching `schema` (epoch 0).
    pub fn new(name: impl Into<String>, schema: Schema, columns: Vec<Column>) -> Self {
        Table::new_at_epoch(name, schema, columns, 0)
    }

    /// Build a table snapshot stamped with an explicit epoch. The row
    /// groups are O(1) windows over `columns`: nothing is copied.
    pub fn new_at_epoch(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
        epoch: u64,
    ) -> Self {
        assert_eq!(schema.len(), columns.len(), "schema/column count mismatch");
        let rows = columns.first().map_or(0, |c| c.len());
        for (f, c) in schema.fields().iter().zip(&columns) {
            assert_eq!(c.len(), rows, "column '{}' length mismatch", f.name);
            assert_eq!(c.data_type(), f.dtype, "column '{}' type mismatch", f.name);
        }
        Table::from_groups(name, schema, RowGroups::from_columns(columns), epoch)
    }

    fn from_groups(name: impl Into<String>, schema: Schema, groups: RowGroups, epoch: u64) -> Self {
        Table {
            name: name.into(),
            schema,
            groups,
            epoch,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The version this snapshot belongs to. Epoch 0 is the freshly loaded
    /// table; every committed append/delete bumps it by one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.groups.rows()
    }

    /// The row groups: group `i` is scan morsel `i`.
    pub fn groups(&self) -> &RowGroups {
        &self.groups
    }

    /// Approximate in-memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.groups.size_bytes()
    }

    /// One scan batch: rows `[offset, offset+len)` of the columns at
    /// positions `projection`, clamped to the end of the row group
    /// holding `offset`. Zero-copy: each batch column is an O(1) slice of
    /// that group's storage.
    pub fn scan_batch(&self, projection: &[usize], offset: usize, len: usize) -> Batch {
        let within = offset % BATCH_CAPACITY;
        match self.groups.groups().get(offset / BATCH_CAPACITY) {
            Some(g) if within < g.rows() => g
                .project(projection)
                .slice(within, len.min(g.rows() - within)),
            _ => Batch::new(
                projection
                    .iter()
                    .map(|&i| ColumnBuilder::new(self.schema.field(i).dtype, 0).finish())
                    .collect(),
            ),
        }
    }

    /// Iterate the whole table as one batch per row group over the given
    /// column positions (test/loader helper; the executor drives its own
    /// scan cursor).
    pub fn batches(&self, projection: &[usize]) -> Vec<Batch> {
        self.groups
            .groups()
            .iter()
            .map(|g| g.project(projection))
            .collect()
    }

    /// One row as owned values (checkpoint/serialization helper; scans go
    /// through the zero-copy [`Table::scan_batch`] path).
    pub fn row_values(&self, i: usize) -> Vec<Value> {
        self.groups.row(i)
    }

    /// All rows as owned values, row-major (checkpoint helper).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.rows()).map(|i| self.row_values(i)).collect()
    }
}

/// The logical change one epoch commit applies, in a replayable,
/// value-level form. This is exactly what a write-ahead log must record
/// to reproduce the commit against the predecessor snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum TableDelta {
    /// Rows appended after the predecessor's last row.
    Append {
        /// Appended rows, schema order.
        rows: Vec<Vec<Value>>,
    },
    /// Row positions (into the predecessor snapshot, ascending) removed.
    Delete {
        /// Deleted row indices.
        deleted: Vec<u64>,
    },
    /// Wholesale replacement of the contents.
    Replace {
        /// The full new contents, schema order.
        rows: Vec<Vec<Value>>,
    },
}

impl TableDelta {
    /// Rows touched (appended, deleted, or installed).
    pub fn rows_affected(&self) -> usize {
        match self {
            TableDelta::Append { rows } | TableDelta::Replace { rows } => rows.len(),
            TableDelta::Delete { deleted } => deleted.len(),
        }
    }
}

/// Everything a durability layer needs to persist one epoch commit: which
/// table, under what schema (so replay can detect drift), the epoch the
/// commit produces, and the delta itself.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitRecord {
    /// Committing table.
    pub table: String,
    /// The table's schema at commit time.
    pub schema: Schema,
    /// Epoch the commit produces (predecessor epoch + 1).
    pub epoch: u64,
    /// The change being committed.
    pub delta: TableDelta,
}

/// Observer invoked for every [`VersionedTable`] commit, **under the
/// table's write lock, after the epoch check and before the pointer
/// swap**. That placement is the whole durability contract: per table,
/// hook invocations happen in exactly epoch order, and a hook error
/// aborts the commit before any reader can observe the new version — a
/// WAL implementing this trait therefore logs every epoch before it
/// becomes visible, with no gaps and no reordering.
///
/// Implementations must be fast or accept that readers of *this* table
/// block behind them for the duration (e.g. an `fsync` under the WAL's
/// `FsyncPolicy::Always`; other tables and all snapshots already taken
/// are unaffected).
pub trait CommitHook: Send + Sync {
    /// Log `record`; an error aborts the commit (nothing is swapped).
    fn before_commit(&self, record: &CommitRecord) -> Result<(), StorageError>;
}

/// Row-oriented builder used by the data generators.
pub struct TableBuilder {
    name: String,
    schema: Schema,
    builders: Vec<ColumnBuilder>,
}

impl TableBuilder {
    /// New builder for `schema`, reserving `capacity` rows per column.
    pub fn new(name: impl Into<String>, schema: Schema, capacity: usize) -> Self {
        let builders = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.dtype, capacity))
            .collect();
        TableBuilder {
            name: name.into(),
            schema,
            builders,
        }
    }

    /// Append one row; `values` must match the schema arity and types.
    pub fn push_row(&mut self, values: Vec<Value>) {
        assert_eq!(values.len(), self.builders.len(), "row arity mismatch");
        for (b, v) in self.builders.iter_mut().zip(values) {
            b.push(v);
        }
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.builders.first().map_or(0, |b| b.len())
    }

    /// Whether no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish into an immutable [`Table`].
    pub fn finish(self) -> Arc<Table> {
        let columns = self.builders.into_iter().map(|b| b.finish()).collect();
        Arc::new(Table::new(self.name, self.schema, columns))
    }
}

/// A mutable table: a sequence of immutable [`Table`] snapshots, one per
/// epoch. Readers take an O(1) [`VersionedTable::snapshot`] (an `Arc`
/// clone under a read lock held for nanoseconds) and are never blocked by
/// or exposed to later writes; writers build the successor's row groups
/// **outside** any lock against the snapshot they started from, then
/// commit with an epoch compare-and-swap — the write lock is held only
/// for the pointer swap, so heavy writers cannot starve readers, and a
/// writer that lost a race rebuilds against the winner's snapshot.
///
/// Cost model: snapshots never copy anything (`Arc` clone). A commit
/// rebuilds only the row groups it touches and shares every other group
/// with its predecessor (see [`crate::group`]): an append costs
/// O(last group + appended rows), a delete O(rows from the first deleted
/// row's group to the end), a replace shares the replacement's groups.
pub struct VersionedTable {
    name: String,
    schema: Schema,
    current: RwLock<Arc<Table>>,
    /// Durability observer; see [`CommitHook`] for the ordering contract.
    hook: RwLock<Option<Arc<dyn CommitHook>>>,
}

impl std::fmt::Debug for VersionedTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedTable")
            .field("name", &self.name)
            .field("schema", &self.schema)
            .field("current", &self.current)
            .field("hooked", &self.hook.read().is_some())
            .finish()
    }
}

/// What a writer's build step produced: the successor's row groups (plus
/// the loggable delta) to commit as the next epoch, or nothing to change
/// (no epoch is spent on no-ops).
enum NextVersion<R> {
    Commit(R, RowGroups, TableDelta),
    Noop(R),
}

impl VersionedTable {
    /// Wrap an initial snapshot (its epoch is preserved).
    pub fn new(initial: Arc<Table>) -> Self {
        VersionedTable {
            name: initial.name().to_string(),
            schema: initial.schema().clone(),
            current: RwLock::new(initial),
            hook: RwLock::new(None),
        }
    }

    /// Install (or swap) the commit hook. Every subsequent commit is
    /// reported to `hook` before its pointer swap; commits already past
    /// their epoch check are unaffected.
    pub fn set_commit_hook(&self, hook: Arc<dyn CommitHook>) {
        *self.hook.write() = Some(hook);
    }

    /// Remove the commit hook, if any.
    pub fn clear_commit_hook(&self) {
        *self.hook.write() = None;
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema (invariant across versions).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The current snapshot: O(1), never blocks writers for longer than the
    /// pointer swap, and stays valid (and immutable) forever.
    pub fn snapshot(&self) -> Arc<Table> {
        self.current.read().clone()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch()
    }

    /// Commit `next(old)` as the successor of the current snapshot, or
    /// keep the current one if the build reports a no-op. The build runs
    /// outside any lock; the commit re-checks the epoch under the write
    /// lock (held only for the swap) and rebuilds on a lost race, so
    /// writers serialize logically without ever blocking readers behind
    /// the build.
    ///
    /// If a [`CommitHook`] is installed it runs under the write lock,
    /// after the epoch check and before the swap: only the CAS winner
    /// reaches the hook, so per-table hook invocations are exactly the
    /// committed epoch sequence. A hook error aborts the commit — the
    /// current snapshot stays in place and the error propagates.
    fn commit<R>(
        &self,
        mut next: impl FnMut(&Table) -> Result<NextVersion<R>, StorageError>,
    ) -> Result<(R, Arc<Table>), StorageError> {
        loop {
            let old = self.snapshot();
            let (out, groups, delta) = match next(&old)? {
                NextVersion::Commit(out, groups, delta) => (out, groups, delta),
                // Nothing changed: no new epoch, no snapshot churn.
                NextVersion::Noop(out) => return Ok((out, old)),
            };
            let candidate = Arc::new(self.version(groups, old.epoch() + 1));
            let mut cur = self.current.write();
            if cur.epoch() == old.epoch() {
                let hook = self.hook.read().clone();
                if let Some(hook) = hook {
                    hook.before_commit(&CommitRecord {
                        table: self.name.clone(),
                        schema: self.schema.clone(),
                        epoch: candidate.epoch(),
                        delta,
                    })?;
                }
                *cur = candidate.clone();
                return Ok((out, candidate));
            }
            // Another writer committed first: rebuild against its result.
        }
    }

    fn version(&self, groups: RowGroups, epoch: u64) -> Table {
        Table::from_groups(self.name.clone(), self.schema.clone(), groups, epoch)
    }

    /// Append `rows` (validated against the schema) and commit a new
    /// snapshot. Returns the new snapshot. The commit rebuilds only the
    /// last row group (O(last group + rows), see the type-level cost
    /// model); existing snapshots keep their own groups untouched. An
    /// empty `rows` is a no-op: the current snapshot is returned and no
    /// epoch is committed.
    pub fn append(&self, rows: &[Vec<Value>]) -> Result<Arc<Table>, StorageError> {
        let tail = self.columns_of(rows)?;
        let ((), next) = self.commit(|old| {
            if rows.is_empty() {
                return Ok(NextVersion::Noop(()));
            }
            Ok(NextVersion::Commit(
                (),
                old.groups().append(&tail),
                TableDelta::Append {
                    rows: rows.to_vec(),
                },
            ))
        })?;
        Ok(next)
    }

    /// Delete the rows at the positions `positions_of` returns (strictly
    /// ascending row indices into the snapshot it is given) and commit a
    /// new snapshot. The positions are always computed against the
    /// snapshot actually being replaced (recomputed if a concurrent
    /// writer commits first), so interleaved deletes compose
    /// linearizably. The deleted rows' full values are captured inside
    /// the commit (in predecessor order), so callers can derive a typed
    /// delta without racing other writers; the logged
    /// [`TableDelta::Delete`] holds the positions only. Returns the
    /// captured rows and the new snapshot. An empty position list is a
    /// no-op: nothing is rebuilt and no epoch is committed.
    pub fn delete_where_capturing(
        &self,
        positions_of: impl Fn(&Table) -> Vec<u64>,
    ) -> Result<(Vec<Vec<Value>>, Arc<Table>), StorageError> {
        self.commit(|old| {
            let positions = positions_of(old);
            self.check_positions(&positions, old.rows(), "delete")?;
            if positions.is_empty() {
                return Ok(NextVersion::Noop(Vec::new()));
            }
            let captured = positions
                .iter()
                .map(|&p| old.row_values(p as usize))
                .collect();
            Ok(NextVersion::Commit(
                captured,
                old.groups().delete(&positions),
                TableDelta::Delete { deleted: positions },
            ))
        })
    }

    /// Replace the contents wholesale with `table` (same schema required),
    /// committing it as the next epoch. The new snapshot shares
    /// `table`'s row groups. Returns the new snapshot.
    pub fn replace(&self, table: &Table) -> Result<Arc<Table>, StorageError> {
        if table.schema() != &self.schema {
            return Err(StorageError(format!(
                "replacement schema for '{}' does not match",
                self.name
            )));
        }
        let ((), next) = self.commit(|_| {
            Ok(NextVersion::Commit(
                (),
                table.groups().clone(),
                TableDelta::Replace {
                    rows: table.to_rows(),
                },
            ))
        })?;
        Ok(next)
    }

    /// Force-install `rows` as the contents at `epoch`, bypassing the
    /// commit hook and the CAS loop. Recovery only: this is how a
    /// checkpoint image is loaded before WAL replay. Not linearizable
    /// against concurrent writers — recovery runs single-threaded before
    /// the engine serves anything.
    pub fn restore(&self, rows: &[Vec<Value>], epoch: u64) -> Result<Arc<Table>, StorageError> {
        let groups = RowGroups::from_columns(self.columns_of(rows)?);
        let table = Arc::new(self.version(groups, epoch));
        *self.current.write() = table.clone();
        Ok(table)
    }

    /// Re-apply a logged delta as epoch `epoch`, bypassing the commit
    /// hook (recovery: WAL replay). `epoch` must be exactly the successor
    /// of the current epoch; records at or below the current epoch are
    /// already reflected (covered by a checkpoint) and report `Ok(false)`.
    /// A gap is an error — the log is missing records. The successor is
    /// built with the same row-group operations as the live commit.
    pub fn apply_logged(&self, delta: &TableDelta, epoch: u64) -> Result<bool, StorageError> {
        let old = self.snapshot();
        if epoch <= old.epoch() {
            return Ok(false);
        }
        if epoch != old.epoch() + 1 {
            return Err(StorageError(format!(
                "replay gap: table '{}' is at epoch {} but the next log record is epoch {}",
                self.name,
                old.epoch(),
                epoch
            )));
        }
        let groups = match delta {
            TableDelta::Append { rows } => old.groups().append(&self.columns_of(rows)?),
            TableDelta::Replace { rows } => RowGroups::from_columns(self.columns_of(rows)?),
            TableDelta::Delete { deleted } => {
                self.check_positions(deleted, old.rows(), "replay delete")?;
                old.groups().delete(deleted)
            }
        };
        *self.current.write() = Arc::new(self.version(groups, epoch));
        Ok(true)
    }

    /// Schema-order columns holding `rows`, each row validated against
    /// the schema first.
    fn columns_of(&self, rows: &[Vec<Value>]) -> Result<Vec<Column>, StorageError> {
        for row in rows {
            self.validate_row(row)?;
        }
        Ok((0..self.schema.len())
            .map(|i| {
                let mut b = ColumnBuilder::new(self.schema.field(i).dtype, rows.len());
                for row in rows {
                    b.push(row[i].clone());
                }
                b.finish()
            })
            .collect())
    }

    /// Delete positions must be strictly ascending row indices below
    /// `rows`.
    fn check_positions(
        &self,
        positions: &[u64],
        rows: usize,
        what: &str,
    ) -> Result<(), StorageError> {
        if let Some(w) = positions.windows(2).find(|w| w[0] >= w[1]) {
            return Err(StorageError(format!(
                "{what} positions for '{}' are not strictly ascending ({} then {})",
                self.name, w[0], w[1]
            )));
        }
        match positions.last() {
            Some(&p) if p as usize >= rows => Err(StorageError(format!(
                "{what} index {p} out of range for {rows} rows of '{}'",
                self.name
            ))),
            _ => Ok(()),
        }
    }

    fn validate_row(&self, row: &[Value]) -> Result<(), StorageError> {
        if row.len() != self.schema.len() {
            return Err(StorageError(format!(
                "row arity {} does not match schema arity {} of '{}'",
                row.len(),
                self.schema.len(),
                self.name
            )));
        }
        for (v, f) in row.iter().zip(self.schema.fields()) {
            // Same coercions as ColumnBuilder::push: NULL anywhere, ints
            // promote to float.
            let ok = match v.data_type() {
                None => true,
                Some(dt) => dt == f.dtype || (dt == DataType::Int && f.dtype == DataType::Float),
            };
            if !ok {
                return Err(StorageError(format!(
                    "value {v} does not match column '{}' type {:?} of '{}'",
                    f.name, f.dtype, self.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_vector::DataType;

    /// Column `i` of every row, in row order.
    fn ints(t: &Table, i: usize) -> Vec<i64> {
        t.to_rows().iter().map(|r| r[i].as_int().unwrap()).collect()
    }

    /// Positions of the rows whose `id` satisfies `pred`.
    fn where_id(t: &Table, pred: impl Fn(i64) -> bool) -> Vec<u64> {
        (0..t.rows() as u64)
            .filter(|&i| pred(t.row_values(i as usize)[0].as_int().unwrap()))
            .collect()
    }

    fn table() -> Arc<Table> {
        let schema = Schema::from_pairs([("id", DataType::Int), ("name", DataType::Str)]);
        let mut b = TableBuilder::new("t", schema, 4);
        for i in 0..4 {
            b.push_row(vec![Value::Int(i), Value::str(format!("r{i}"))]);
        }
        b.finish()
    }

    #[test]
    fn builder_roundtrip() {
        let t = table();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.name(), "t");
        assert_eq!(ints(&t, 0), [0, 1, 2, 3]);
        assert_eq!(t.groups().len(), 1);
    }

    #[test]
    fn scan_batch_projects_and_slices() {
        let t = table();
        let b = t.scan_batch(&[1], 1, 2);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.row(0), vec![Value::str("r1")]);
        // Over-long request clamps to the row group's (here the table's) end.
        let b = t.scan_batch(&[0], 3, 100);
        assert_eq!(b.rows(), 1);
    }

    #[test]
    fn scan_batches_share_table_storage() {
        let t = table();
        let b = t.scan_batch(&[0, 1], 1, 2);
        assert!(b.column(0).shares_storage(t.groups().group(0).column(0)));
        assert!(b.column(1).shares_storage(t.groups().group(0).column(1)));
    }

    #[test]
    fn batches_cover_all_rows() {
        let schema = Schema::from_pairs([("x", DataType::Int)]);
        let mut bld = TableBuilder::new("big", schema, 3000);
        for i in 0..3000 {
            bld.push_row(vec![Value::Int(i)]);
        }
        let t = bld.finish();
        let batches = t.batches(&[0]);
        assert_eq!(batches.len(), 3); // 1024 + 1024 + 952
        let total: usize = batches.iter().map(|b| b.rows()).sum();
        assert_eq!(total, 3000);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn schema_enforced() {
        let schema = Schema::from_pairs([("x", DataType::Int)]);
        Table::new("bad", schema, vec![Column::from_strs(["a"])]);
    }

    fn versioned() -> VersionedTable {
        VersionedTable::new(table())
    }

    #[test]
    fn append_bumps_epoch_and_preserves_snapshots() {
        let vt = versioned();
        let before = vt.snapshot();
        assert_eq!(before.epoch(), 0);
        let after = vt
            .append(&[
                vec![Value::Int(4), Value::str("r4")],
                vec![Value::Int(5), Value::Null],
            ])
            .unwrap();
        assert_eq!(after.epoch(), 1);
        assert_eq!(vt.epoch(), 1);
        assert_eq!(after.rows(), 6);
        assert_eq!(ints(&after, 0), [0, 1, 2, 3, 4, 5]);
        assert_eq!(after.row_values(5)[1], Value::Null);
        // The pinned snapshot is untouched.
        assert_eq!(before.rows(), 4);
        assert_eq!(before.epoch(), 0);
    }

    #[test]
    fn append_validates_rows() {
        let vt = versioned();
        // Arity.
        assert!(vt.append(&[vec![Value::Int(9)]]).is_err());
        // Type.
        assert!(vt
            .append(&[vec![Value::str("oops"), Value::str("r")]])
            .is_err());
        // A failed append commits nothing.
        assert_eq!(vt.epoch(), 0);
        assert_eq!(vt.snapshot().rows(), 4);
    }

    #[test]
    fn delete_where_filters_and_bumps_epoch() {
        let vt = versioned();
        let (deleted, after) = vt
            .delete_where_capturing(|t| where_id(t, |x| x % 2 == 0))
            .unwrap();
        assert_eq!(
            deleted,
            vec![
                vec![Value::Int(0), Value::str("r0")],
                vec![Value::Int(2), Value::str("r2")],
            ]
        );
        assert_eq!(after.epoch(), 1);
        assert_eq!(ints(&after, 0), [1, 3]);
        // Positions are checked against the locked snapshot.
        assert!(vt.delete_where_capturing(|_| vec![2]).is_err());
        assert!(vt.delete_where_capturing(|_| vec![1, 0]).is_err());
        assert_eq!(vt.epoch(), 1, "failed delete commits nothing");
        // No positions: no-op, no epoch.
        let (none, same) = vt.delete_where_capturing(|_| Vec::new()).unwrap();
        assert!(none.is_empty());
        assert_eq!(same.epoch(), 1);
    }

    #[derive(Default)]
    struct RecordingHook {
        records: parking_lot::Mutex<Vec<CommitRecord>>,
        fail: std::sync::atomic::AtomicBool,
    }

    impl CommitHook for RecordingHook {
        fn before_commit(&self, record: &CommitRecord) -> Result<(), StorageError> {
            if self.fail.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(StorageError("injected hook failure".to_string()));
            }
            self.records.lock().push(record.clone());
            Ok(())
        }
    }

    #[test]
    fn commit_hook_sees_every_epoch_in_order() {
        let vt = versioned();
        let hook = Arc::new(RecordingHook::default());
        vt.set_commit_hook(hook.clone());
        vt.append(&[vec![Value::Int(4), Value::str("r4")]]).unwrap();
        vt.delete_where_capturing(|t| where_id(t, |x| x == 0))
            .unwrap();
        // No-ops spend no epoch and reach no hook.
        vt.append(&[]).unwrap();
        let records = hook.records.lock();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].epoch, 1);
        assert!(matches!(&records[0].delta, TableDelta::Append { rows } if rows.len() == 1));
        assert_eq!(records[1].epoch, 2);
        assert_eq!(
            records[1].delta,
            TableDelta::Delete { deleted: vec![0] },
            "delete logs predecessor row positions"
        );
    }

    #[test]
    fn failing_hook_aborts_commit() {
        let vt = versioned();
        let hook = Arc::new(RecordingHook::default());
        hook.fail.store(true, std::sync::atomic::Ordering::Relaxed);
        vt.set_commit_hook(hook);
        let err = vt.append(&[vec![Value::Int(9), Value::Null]]).unwrap_err();
        assert!(err.to_string().contains("injected hook failure"));
        assert_eq!(vt.epoch(), 0, "aborted commit swaps nothing");
        assert_eq!(vt.snapshot().rows(), 4);
    }

    #[test]
    fn apply_logged_replays_deltas_exactly() {
        let source = versioned();
        let hook = Arc::new(RecordingHook::default());
        source.set_commit_hook(hook.clone());
        source
            .append(&[
                vec![Value::Int(4), Value::str("r4")],
                vec![Value::Int(5), Value::Null],
            ])
            .unwrap();
        source
            .delete_where_capturing(|t| where_id(t, |x| x % 2 == 1))
            .unwrap();

        let replica = versioned();
        for record in hook.records.lock().iter() {
            assert!(replica.apply_logged(&record.delta, record.epoch).unwrap());
        }
        let (a, b) = (source.snapshot(), replica.snapshot());
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.to_rows(), b.to_rows());

        // Already-applied records are skipped, gaps are errors.
        let first = hook.records.lock()[0].clone();
        assert!(!replica.apply_logged(&first.delta, first.epoch).unwrap());
        assert!(replica.apply_logged(&first.delta, 99).is_err());
        // Malformed delete positions are errors, not panics.
        let bad = TableDelta::Delete { deleted: vec![9] };
        assert!(replica.apply_logged(&bad, b.epoch() + 1).is_err());
    }

    #[test]
    fn restore_installs_rows_at_epoch() {
        let vt = versioned();
        vt.restore(&[vec![Value::Int(7), Value::str("x")]], 5)
            .unwrap();
        let snap = vt.snapshot();
        assert_eq!(snap.epoch(), 5);
        assert_eq!(snap.rows(), 1);
        assert_eq!(ints(&snap, 0), [7]);
    }

    #[test]
    fn snapshots_are_o1_arc_clones() {
        let vt = versioned();
        let a = vt.snapshot();
        let b = vt.snapshot();
        assert!(Arc::ptr_eq(&a, &b), "snapshot is a pointer clone");
        assert!(Arc::ptr_eq(a.groups().group(0), b.groups().group(0)));
    }
}
