//! In-memory columnar storage: versioned tables and the catalog.
//!
//! Base tables are fully resident columnar row groups (the paper's evaluation
//! uses warm runs with the working set in the buffer pool, so an in-memory
//! store preserves the relevant behaviour). Unlike the paper — which
//! leaves update handling out of scope (§II) apart from noting that cached
//! results must be invalidated when their base tables change (§V) — tables
//! here are **mutable through versioning**:
//!
//! * [`Table`] is one immutable, epoch-stamped snapshot stored as
//!   morsel-sized, `Arc`-shared [`RowGroup`]s ([`group`]), so holding a
//!   snapshot costs nothing and survives any number of later commits;
//! * [`VersionedTable`] is the mutable wrapper: `append` and
//!   `delete_where_capturing` commit a new snapshot with the epoch bumped
//!   by one, while concurrent readers keep their pinned version (O(1)
//!   snapshot reads, no torn scans). A commit rebuilds only the row
//!   groups it touches — the last group on an append, the groups from
//!   the first deleted row onward on a delete — and shares the rest;
//! * every row group carries lazily computed min/max [`Zone`]s for its
//!   Int and Date columns, which scans use to skip groups;
//! * [`Catalog`] maps names to versioned tables and hands out
//!   [`CatalogSnapshot`]s — the per-query unit of consistency whose epoch
//!   vector also keys the recycler's cache-freshness checks;
//! * every commit can be observed through a [`CommitHook`] invoked in
//!   exact epoch order before the version swap — the anchor point for the
//!   `rdb_wal` write-ahead log ([`TableDelta`]/[`CommitRecord`] are the
//!   loggable form of a commit, [`VersionedTable::apply_logged`] and
//!   [`VersionedTable::restore`] the replay entry points).

use std::fmt;

pub mod catalog;
pub mod group;
pub mod table;

pub use catalog::{Catalog, CatalogSnapshot};
pub use group::{RowGroup, RowGroups, Zone};
pub use table::{CommitHook, CommitRecord, Table, TableBuilder, TableDelta, VersionedTable};

/// Errors from catalog registration and table mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageError(pub String);

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "storage error: {}", self.0)
    }
}

impl std::error::Error for StorageError {}
