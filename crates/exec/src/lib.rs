//! Pipelined, vectorized query executor.
//!
//! Operators pull [`rdb_vector::Batch`]es from their children
//! (vector-at-a-time, the Vectorwise paradigm the paper targets). Pipelines
//! only break at blocking operators (hash aggregation, sort, top-N, join
//! build sides) — intermediate results are *not* materialized unless the
//! recycler decides to, which is the entire point of the paper.
//!
//! With `ExecContext::parallelism > 1` those same pipelines execute
//! **morsel-driven parallel** (see [`parallel`] for the model and its
//! determinism guarantees, and [`pool`] for the worker pool): scans split
//! into morsels claimed by workers on demand, pipeline breakers merge
//! per-worker partials, and order-preserving gathers keep every observable
//! byte — including what a [`StoreExec`] tee publishes into the recycler —
//! identical to serial execution at any degree of parallelism.
//!
//! Scan-rooted filter → project → join-probe chains additionally execute
//! **fused** ([`fuse`]): one push-style loop per morsel with selection
//! indices and probe-key hashes kept in reusable buffers, instead of one
//! pull hop per operator per batch. Fusion never crosses pipeline
//! breakers, store tees, or gather points — see [`fuse`] for the
//! boundary rule and why cache entries stay byte-identical.
//!
//! Recycler integration points (paper §II):
//!
//! * [`StoreExec`] — the `store` operator: pass along / buffer
//!   (speculation) / materialize the tuple flow without interrupting it;
//! * [`CachedExec`] — reads a previously materialized result;
//! * [`ResultStore`] — the trait through which store/cached operators talk
//!   to the recycler cache (implemented by `rdb-recycler`);
//! * [`OpMetrics`] / [`MetricsNode`] — per-operator run-time measurements
//!   (inclusive wall time, rows, abstract work units) used to annotate the
//!   recycler graph after each query, and *progress meters* (§III-D) used
//!   by speculative stores to extrapolate cost and size.

pub mod agg;
pub mod build;
pub mod context;
pub mod error;
pub mod filter;
pub mod fuse;
pub mod join;
pub mod metrics;
pub mod op;
pub mod parallel;
pub mod pool;
pub mod prune;
pub mod scan;
pub mod sort;
pub mod store;
pub mod stream;

pub use agg::{retract_count_groups, ResumedAgg};
pub use build::{build, ExecTree};
pub use context::{ExecContext, FnRegistry, TableFunction};
pub use error::{ExecError, FailSlot};
pub use fuse::{fused_span, FusedChain, FusedPipelineExec};
pub use join::{BuildPublish, BuildSide, SharedBuild};
pub use metrics::{MetricsNode, OpMetrics};
pub use op::{collect_all, run_to_batch, Operator};
pub use parallel::{GatherExec, MorselDispenser, ParallelAggExec, ParallelTopNExec};
pub use pool::WorkerPool;
pub use prune::ZonePrune;
pub use store::{
    ArtifactKind, CachedExec, MaterializedResult, OperatorState, ResultStore, SpeculationEstimate,
    StateCost, StoreExec, StoreVerdict,
};
pub use stream::ExecStream;
