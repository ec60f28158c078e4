//! The table catalog and point-in-time catalog snapshots.

use std::collections::HashMap;
use std::sync::Arc;

use rdb_vector::Schema;

use crate::table::{CommitHook, Table, VersionedTable};
use crate::StorageError;

/// A name → table mapping shared by the planner and the executor.
///
/// Every entry is a [`VersionedTable`]: the catalog's shape (which tables
/// exist, their schemas) is fixed once the catalog is wrapped in an `Arc`,
/// but table *contents* evolve through epoch-stamped append/delete commits.
/// Queries read through a [`CatalogSnapshot`], which pins each table's
/// `Arc<Table>` version so in-flight scans are never affected by later
/// writes.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<VersionedTable>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table under its own name. Errors if the name is already
    /// taken — replacement must be explicit via [`Catalog::replace`].
    pub fn register(&mut self, table: Arc<Table>) -> Result<(), StorageError> {
        let name = table.name().to_string();
        if self.tables.contains_key(&name) {
            return Err(StorageError(format!(
                "table '{name}' is already registered; use Catalog::replace \
                 to overwrite it explicitly"
            )));
        }
        self.tables
            .insert(name, Arc::new(VersionedTable::new(table)));
        Ok(())
    }

    /// Replace an existing table's contents wholesale (committing the new
    /// contents as the next epoch), or register it fresh if the name is
    /// free. Returns the snapshot that was replaced, if any.
    pub fn replace(&mut self, table: Arc<Table>) -> Result<Option<Arc<Table>>, StorageError> {
        match self.tables.get(table.name()) {
            Some(vt) => {
                let old = vt.snapshot();
                vt.replace(&table)?;
                Ok(Some(old))
            }
            None => {
                self.register(table)?;
                Ok(None)
            }
        }
    }

    /// Current snapshot of a table: O(1), pinned to the epoch at the time
    /// of the call.
    pub fn get(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.get(name).map(|t| t.snapshot())
    }

    /// The versioned table itself (the DML surface).
    pub fn versioned(&self, name: &str) -> Option<&Arc<VersionedTable>> {
        self.tables.get(name)
    }

    /// Schema of a table, if present (invariant across epochs).
    pub fn schema_of(&self, name: &str) -> Option<&Schema> {
        self.tables.get(name).map(|t| t.schema())
    }

    /// Current epoch of a table, if present.
    pub fn epoch_of(&self, name: &str) -> Option<u64> {
        self.tables.get(name).map(|t| t.epoch())
    }

    /// Names of all registered tables (unordered).
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Total footprint of all current table versions in bytes.
    pub fn size_bytes(&self) -> usize {
        self.tables
            .values()
            .map(|t| t.snapshot().size_bytes())
            .sum()
    }

    /// Install `hook` as the commit hook of **every** registered table
    /// (see [`CommitHook`] for the per-table ordering contract). Works
    /// through a shared reference because the hook slot is
    /// interior-mutable — the catalog's shape stays frozen.
    pub fn set_commit_hook(&self, hook: Arc<dyn CommitHook>) {
        for vt in self.tables.values() {
            vt.set_commit_hook(hook.clone());
        }
    }

    /// Pin every table at its current version. The snapshot is the unit a
    /// query executes against: all of its scans read the pinned versions,
    /// and its epoch vector keys the recycler's freshness checks.
    pub fn snapshot(&self) -> CatalogSnapshot {
        CatalogSnapshot {
            tables: self
                .tables
                .iter()
                .map(|(n, t)| (n.clone(), t.snapshot()))
                .collect(),
        }
    }
}

/// An immutable point-in-time view of a [`Catalog`]: each table pinned at
/// one epoch. Cheap to clone-by-`Arc` and to hold for the lifetime of a
/// query.
#[derive(Debug, Clone)]
pub struct CatalogSnapshot {
    tables: HashMap<String, Arc<Table>>,
}

impl CatalogSnapshot {
    /// The pinned version of a table.
    pub fn get(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.get(name)
    }

    /// The pinned epoch of a table.
    pub fn epoch_of(&self, name: &str) -> Option<u64> {
        self.tables.get(name).map(|t| t.epoch())
    }

    /// `(table, epoch)` pairs, sorted by name (a stable identity for the
    /// whole snapshot).
    pub fn epochs(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .tables
            .iter()
            .map(|(n, t)| (n.clone(), t.epoch()))
            .collect();
        out.sort();
        out
    }

    /// Rebuild a standalone immutable [`Catalog`] over exactly these table
    /// versions (epochs preserved). Used by baselines that must re-execute
    /// a query against the same data a snapshot-pinned run saw.
    pub fn to_catalog(&self) -> Catalog {
        let mut cat = Catalog::new();
        for t in self.tables.values() {
            cat.register(t.clone())
                .expect("snapshot table names are unique");
        }
        cat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use rdb_vector::{DataType, Value};

    fn one_row_table(name: &str, x: i64) -> Arc<Table> {
        let schema = Schema::from_pairs([("x", DataType::Int)]);
        let mut b = TableBuilder::new(name, schema, 1);
        b.push_row(vec![Value::Int(x)]);
        b.finish()
    }

    #[test]
    fn register_and_lookup() {
        let mut cat = Catalog::new();
        cat.register(one_row_table("t1", 1)).unwrap();
        assert!(cat.get("t1").is_some());
        assert!(cat.get("t2").is_none());
        assert_eq!(cat.schema_of("t1").unwrap().names(), vec!["x"]);
        assert_eq!(cat.table_names(), vec!["t1"]);
        assert_eq!(cat.epoch_of("t1"), Some(0));
        assert!(cat.size_bytes() > 0);
    }

    #[test]
    fn duplicate_register_is_rejected() {
        let mut cat = Catalog::new();
        cat.register(one_row_table("t", 1)).unwrap();
        let err = cat.register(one_row_table("t", 2)).unwrap_err();
        assert!(err.to_string().contains("already registered"), "{err}");
        // The original survives untouched.
        assert_eq!(cat.get("t").unwrap().to_rows(), [[Value::Int(1)]]);
        assert_eq!(cat.epoch_of("t"), Some(0));
    }

    #[test]
    fn replace_is_explicit_and_bumps_epoch() {
        let mut cat = Catalog::new();
        cat.register(one_row_table("t", 1)).unwrap();
        let old = cat.replace(one_row_table("t", 2)).unwrap();
        assert_eq!(old.unwrap().to_rows(), [[Value::Int(1)]]);
        assert_eq!(cat.get("t").unwrap().to_rows(), [[Value::Int(2)]]);
        assert_eq!(cat.epoch_of("t"), Some(1), "replacement is a new epoch");
        // Replace of an unknown name registers fresh.
        assert!(cat.replace(one_row_table("u", 9)).unwrap().is_none());
        assert_eq!(cat.epoch_of("u"), Some(0));
        // Replacement with a different schema is rejected.
        let schema = Schema::from_pairs([("y", DataType::Float)]);
        let mut b = TableBuilder::new("t", schema, 1);
        b.push_row(vec![Value::Float(0.5)]);
        assert!(cat.replace(b.finish()).is_err());
    }

    #[test]
    fn snapshot_pins_versions() {
        let mut cat = Catalog::new();
        cat.register(one_row_table("t", 1)).unwrap();
        let snap = cat.snapshot();
        cat.versioned("t")
            .unwrap()
            .append(&[vec![Value::Int(2)]])
            .unwrap();
        // The snapshot still sees the old version; the catalog the new one.
        assert_eq!(snap.get("t").unwrap().rows(), 1);
        assert_eq!(snap.epoch_of("t"), Some(0));
        assert_eq!(cat.get("t").unwrap().rows(), 2);
        assert_eq!(cat.epoch_of("t"), Some(1));
        assert_eq!(snap.epochs(), vec![("t".to_string(), 0)]);
        // Rebuilding a catalog from the snapshot reads the pinned data.
        let rebuilt = snap.to_catalog();
        assert_eq!(rebuilt.get("t").unwrap().rows(), 1);
        assert_eq!(rebuilt.epoch_of("t"), Some(0), "epoch preserved");
    }
}
