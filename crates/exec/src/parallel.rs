//! Morsel-driven intra-query parallelism.
//!
//! A *pipeline* — the stretch of pipelining operators (selection,
//! projection, join probes) between a base-table scan and the next
//! pipeline breaker — is the unit of parallel execution. The scan is split
//! into [`rdb_vector::BATCH_CAPACITY`]-sized **morsels**, one per row group
//! of the pinned table snapshot (zero-copy: a morsel batch shares its
//! group's columns); a [`MorselDispenser`]
//! hands them out to workers on demand, which is the load balancing: fast
//! workers simply take more morsels. Every worker owns a private clone of
//! the pipeline's operator segment fed one morsel at a time through a
//! [`SegmentPipe`], so no operator state is ever shared between threads —
//! only three things are: the dispenser, the per-plan-node [`OpMetrics`]
//! (atomic counters, summed across workers), and a hash join's
//! [`crate::join::SharedBuild`] (built exactly once, by the first worker
//! that needs it).
//!
//! **Determinism.** Parallel execution must be observationally identical
//! to serial execution — the recycler caches results by plan fingerprint
//! and replays them byte-for-byte, so a `store` tee under a parallel
//! pipeline has to publish the same `MaterializedResult` at any DOP:
//!
//! * the morsel grid is a pure function of the table's row count
//!   ([`rdb_vector::morsel_count`]), identical to the serial scan's batch
//!   boundaries; a morsel the zone maps prune ([`crate::prune`]) still
//!   occupies its index and yields no output, exactly what the filter
//!   would have produced for it;
//! * each morsel's trip through the segment is a pure function of the
//!   morsel (operators are deterministic), so worker interleaving can only
//!   permute *whole morsel outputs*;
//! * [`GatherExec`] undoes that permutation: workers tag outputs with
//!   their morsel index and the gather re-sequences them, emitting exactly
//!   the serial batch sequence;
//! * order-insensitive breakers take the other route: parallel aggregation
//!   merges per-worker [`GroupTable`] partials and sorts groups by key
//!   (the serial aggregate emits in the same sorted order), and parallel
//!   top-N merges per-worker heap runs whose ties are broken by global
//!   scan position (the serial top-N uses the same rule).
//!
//! **Failure.** A panicking worker records a structured [`ExecError`] into
//! the query's shared [`FailSlot`] before its channel sender drops; the
//! consumer detects the shortfall (morsels or partials missing), ends the
//! stream cleanly, and the error surfaces through
//! [`crate::stream::ExecStream::error`] — no panic crosses the gather
//! boundary, and a poisoned source can never publish a truncated result.
//! The pool itself survives ([`crate::pool`]).

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;

use parking_lot::Mutex;

use rdb_expr::{AggFunc, Expr};
use rdb_plan::{Plan, SortKeyExpr};
use rdb_storage::Table;
use rdb_vector::{morsel_count, Batch, DataType};

use crate::agg::{emit_groups, GroupTable};
use crate::error::{panic_message, ExecError, FailSlot};
use crate::filter::{FilterExec, ProjectExec};
use crate::fuse::FusedChain;
use crate::join::{HashJoinExec, SharedBuild};
use crate::metrics::{MetricsNode, OpMetrics};
use crate::op::{timed_next, Operator};
use crate::pool::{run_jobs, Job, WorkerPool};
use crate::prune::ZonePrune;
use crate::sort::TopNState;

/// Hands out `(morsel index, batch)` pairs from a pinned table snapshot,
/// one morsel per row group. The atomic cursor *is* the work-stealing:
/// workers pull the next morsel whenever they finish one, so skew
/// balances itself at morsel granularity.
pub struct MorselDispenser {
    table: Arc<Table>,
    projection: Vec<usize>,
    /// Zone-map check of the first stage's filter, if any (see
    /// [`crate::prune`]).
    prune: Option<ZonePrune>,
    next: AtomicUsize,
    total: usize,
    metrics: Arc<OpMetrics>,
    cancel: Option<Arc<AtomicBool>>,
}

impl MorselDispenser {
    /// Dispense the morsels of `table` under `projection`.
    pub fn new(table: Arc<Table>, projection: Vec<usize>, metrics: Arc<OpMetrics>) -> Self {
        let total = morsel_count(table.rows());
        MorselDispenser {
            table,
            projection,
            prune: None,
            next: AtomicUsize::new(0),
            total,
            metrics,
            cancel: None,
        }
    }

    /// Observe a cancellation flag: a set flag stops morsel hand-out, so
    /// every worker winds down at its next morsel boundary — the parallel
    /// analog of the serial scan's batch-boundary cancel check. The flag
    /// is only loaded, never cleared.
    pub fn with_cancel(mut self, cancel: Option<Arc<AtomicBool>>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Skip row groups `prune` rules out (see [`MorselDispenser::next_morsel`]).
    pub fn with_prune(mut self, prune: Option<ZonePrune>) -> Self {
        self.prune = prune;
        self
    }

    /// Whether the query driving this dispenser has been cancelled.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Acquire))
    }

    /// Total number of morsels.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Claim the next morsel, or `None` when the scan is exhausted (or the
    /// query was cancelled). A morsel whose row group the zone maps rule
    /// out comes back as `(idx, None)`: its index still has to be
    /// accounted for (a gather releases output strictly by index), but it
    /// counts a call and no rows, bytes or work — the measured cost is the
    /// work actually done.
    pub fn next_morsel(&self) -> Option<(u64, Option<Batch>)> {
        if self.cancelled() {
            return None;
        }
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx >= self.total {
            return None;
        }
        self.metrics.add_call();
        let group = self.table.groups().group(idx);
        if self.prune.as_ref().is_some_and(|p| p.skips(group)) {
            return Some((idx as u64, None));
        }
        let batch = group.project(&self.projection);
        self.metrics.add_rows(batch.rows() as u64);
        self.metrics.add_bytes(batch.size_bytes() as u64);
        Some((idx as u64, Some(batch)))
    }

    /// Fraction of morsels dispatched so far.
    pub fn progress(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.next.load(Ordering::Relaxed).min(self.total) as f64 / self.total as f64
    }
}

/// The leaf of a worker's segment: yields the one batch the worker loaded,
/// then `None` until the next morsel is loaded.
struct SlotSource {
    slot: Arc<Mutex<Option<Batch>>>,
}

impl Operator for SlotSource {
    fn next_batch(&mut self) -> Option<Batch> {
        self.slot.lock().take()
    }
    fn progress(&self) -> f64 {
        0.0
    }
}

/// One worker's private pipeline segment, driven morsel-at-a-time. Either
/// an operator chain over a slot leaf (load the morsel, drain the chain —
/// the pipelining operators are restartable after `None`, so one segment
/// serves every morsel the worker claims), or a [`FusedChain`] running the
/// whole span as one push-style loop. Both produce identical outputs; the
/// fused form is the default ([`crate::context::ExecContext::fusion`]).
pub enum SegmentPipe {
    /// Unfused: a private operator chain over a morsel slot.
    Ops {
        /// The slot the worker loads each morsel into.
        slot: Arc<Mutex<Option<Batch>>>,
        /// Chain root (pulls from the slot leaf).
        root: Box<dyn Operator>,
    },
    /// Fused: one push-style loop per morsel.
    Fused(FusedChain),
}

impl SegmentPipe {
    /// Push one morsel through, collecting its outputs (usually 0 or 1
    /// batches; joins may expand). A pruned morsel (`None`) produces no
    /// output.
    fn push(&mut self, morsel: Option<Batch>) -> Vec<Batch> {
        let Some(batch) = morsel else {
            if let SegmentPipe::Fused(chain) = self {
                chain.skip();
            }
            return Vec::new();
        };
        match self {
            SegmentPipe::Ops { slot, root } => {
                *slot.lock() = Some(batch);
                let mut outs = Vec::new();
                while let Some(b) = root.next_batch() {
                    outs.push(b);
                }
                outs
            }
            SegmentPipe::Fused(chain) => chain.push(batch).into_iter().collect(),
        }
    }

    /// Publish any deferred per-stage counters. Fused chains accumulate
    /// metrics locally between flushes; the unfused operators update the
    /// shared metrics inline, so this is a no-op for them.
    fn flush(&mut self) {
        if let SegmentPipe::Fused(chain) = self {
            chain.flush();
        }
    }
}

/// A constructed parallel pipeline, ready to be wrapped by a consumer
/// ([`GatherExec`], [`ParallelAggExec`], [`ParallelTopNExec`]).
pub struct ParallelSource {
    /// Shared morsel source (also the progress meter).
    pub dispenser: Arc<MorselDispenser>,
    /// One segment per worker.
    pub segments: Vec<SegmentPipe>,
    /// Metrics tree mirroring the pipeline's plan shape (stages share one
    /// `OpMetrics` per plan node across workers).
    pub metrics: MetricsNode,
    /// Pool to run on (`None`: plain spawned threads).
    pub pool: Option<Arc<WorkerPool>>,
    /// Where workers record failures (shared with the whole execution).
    pub fail: Arc<FailSlot>,
}

/// The callback [`build_source`] uses to construct join build sides — the
/// plan builder's own recursive entry point, so build subtrees (which may
/// contain stores, cached reads, or nested parallel pipelines) are built
/// exactly like serial plans.
pub type BuildChild<'a> =
    dyn FnMut(&Plan) -> Result<(Box<dyn Operator>, MetricsNode), rdb_plan::PlanError> + 'a;

/// Try to construct a parallel pipeline over `plan` with up to `dop`
/// workers. Returns `Ok(None)` when the subtree is not a scan-rooted
/// pipeline (or is too small to be worth splitting); the caller then falls
/// back to the serial build.
pub fn build_source(
    plan: &Plan,
    ctx: &crate::context::ExecContext,
    dop: usize,
    build_child: &mut BuildChild<'_>,
) -> Result<Option<ParallelSource>, rdb_plan::PlanError> {
    if dop < 2 {
        return Ok(None);
    }
    if ctx.fusion {
        // Fused form: build one prototype chain and clone it per worker
        // (clones share the Arc'ed metrics and build sides but own their
        // scratch buffers).
        let Some(fused) = crate::fuse::build_fused_pipeline(plan, ctx, true, build_child)? else {
            return Ok(None);
        };
        let dop = dop.min(fused.dispenser.total());
        let segments = (0..dop)
            .map(|_| SegmentPipe::Fused(fused.chain.clone()))
            .collect();
        return Ok(Some(ParallelSource {
            dispenser: fused.dispenser,
            segments,
            metrics: fused.metrics,
            pool: ctx.pool.clone(),
            fail: ctx.fail.clone(),
        }));
    }
    // Walk the chain: pipelining unary stages and join probes down to a
    // base-table scan.
    let mut stages: Vec<&Plan> = Vec::new();
    let mut cur = plan;
    let (table_name, cols) = loop {
        match cur {
            Plan::Scan { table, cols } => {
                if stages.is_empty() {
                    // A bare scan has no per-morsel work to parallelize.
                    return Ok(None);
                }
                break (table, cols);
            }
            Plan::Select { child, .. } | Plan::Project { child, .. } => {
                stages.push(cur);
                cur = child;
            }
            Plan::Join { left, .. } => {
                stages.push(cur);
                cur = left;
            }
            _ => return Ok(None),
        }
    };
    let Some(table) = ctx.table(table_name) else {
        return Ok(None); // serial build reports the unknown table
    };
    if morsel_count(table.rows()) < 2 {
        return Ok(None); // single morsel: serial is strictly cheaper
    }
    let projection: Vec<usize> = match cols
        .iter()
        .map(|c| table.schema().index_of(c))
        .collect::<Option<Vec<_>>>()
    {
        Some(p) => p,
        None => return Ok(None), // serial build reports the unknown column
    };
    let dop = dop.min(morsel_count(table.rows()));

    // Shared per-plan-node metrics, plus shared build sides for joins.
    let scan_metrics = OpMetrics::shared();
    let mut scan_node = MetricsNode::leaf(scan_metrics.clone());
    enum Stage {
        Filter(Expr, Arc<OpMetrics>),
        Project(Vec<Expr>, Arc<OpMetrics>),
        Probe {
            build: Arc<SharedBuild>,
            kind: rdb_plan::JoinKind,
            left_keys: Vec<Expr>,
            right_types: Vec<DataType>,
            metrics: Arc<OpMetrics>,
        },
    }
    // Bottom-up: reverse the collected top-down chain.
    let mut built_stages: Vec<Stage> = Vec::with_capacity(stages.len());
    for stage in stages.iter().rev() {
        let m = OpMetrics::shared();
        match stage {
            Plan::Select { predicate, .. } => {
                scan_node = MetricsNode::new(m.clone(), vec![scan_node]);
                built_stages.push(Stage::Filter(predicate.clone(), m));
            }
            Plan::Project { exprs, .. } => {
                scan_node = MetricsNode::new(m.clone(), vec![scan_node]);
                built_stages.push(Stage::Project(exprs.clone(), m));
            }
            Plan::Join {
                right,
                kind,
                left_keys,
                right_keys,
                ..
            } => {
                let right_types: Vec<DataType> = right
                    .schema(&ctx.catalog)?
                    .fields()
                    .iter()
                    .map(|f| f.dtype)
                    .collect();
                // Warm-fetch / cold-publish through the operator-state
                // cache, exactly like the serial join arm — same artifact
                // at any DOP.
                let (build, right_metrics) = crate::build::join_build(
                    right,
                    right_keys,
                    &right_types,
                    &m,
                    ctx,
                    build_child,
                )?;
                scan_node = MetricsNode::new(m.clone(), vec![scan_node, right_metrics]);
                built_stages.push(Stage::Probe {
                    build,
                    kind: *kind,
                    left_keys: left_keys.clone(),
                    right_types,
                    metrics: m,
                });
            }
            _ => unreachable!("chain walk admits only Select/Project/Join"),
        }
    }

    let dispenser = Arc::new(
        MorselDispenser::new(table, projection, scan_metrics).with_cancel(ctx.cancel.clone()),
    );
    let segments = (0..dop)
        .map(|_| {
            let slot = Arc::new(Mutex::new(None));
            let mut op: Box<dyn Operator> = Box::new(SlotSource { slot: slot.clone() });
            for stage in &built_stages {
                op = match stage {
                    Stage::Filter(predicate, m) => {
                        Box::new(FilterExec::new(op, predicate.clone(), m.clone()))
                    }
                    Stage::Project(exprs, m) => {
                        Box::new(ProjectExec::new(op, exprs.clone(), m.clone()))
                    }
                    Stage::Probe {
                        build,
                        kind,
                        left_keys,
                        right_types,
                        metrics,
                    } => Box::new(HashJoinExec::with_shared_build(
                        op,
                        build.clone(),
                        *kind,
                        left_keys.clone(),
                        right_types.clone(),
                        metrics.clone(),
                    )),
                };
            }
            SegmentPipe::Ops { slot, root: op }
        })
        .collect();
    Ok(Some(ParallelSource {
        dispenser,
        segments,
        metrics: scan_node,
        pool: ctx.pool.clone(),
        fail: ctx.fail.clone(),
    }))
}

// ---------------------------------------------------------------------------
// Gather: order-preserving parallel pipeline execution
// ---------------------------------------------------------------------------

/// How many morsel results may sit in flight per worker before producers
/// block (backpressure toward a slow consumer).
const GATHER_BACKLOG_PER_WORKER: usize = 4;

struct GatherRun {
    rx: Receiver<(u64, Vec<Batch>)>,
    /// Out-of-order arrivals waiting for their turn.
    pending: BTreeMap<u64, Vec<Batch>>,
    /// In-order batches ready to emit.
    ready: VecDeque<Batch>,
    /// Next morsel index to release.
    next: u64,
    total: u64,
}

enum GatherState {
    Pending(Option<ParallelSource>),
    Running(GatherRun),
    Done,
}

/// Runs a parallel pipeline and re-sequences worker outputs into canonical
/// morsel order, so downstream consumers (stores, breakers, the stream
/// edge) observe exactly the serial batch sequence.
pub struct GatherExec {
    state: GatherState,
    dispenser: Arc<MorselDispenser>,
    fail: Arc<FailSlot>,
}

impl GatherExec {
    /// Wrap a built parallel source.
    pub fn new(source: ParallelSource) -> GatherExec {
        let dispenser = source.dispenser.clone();
        let fail = source.fail.clone();
        GatherExec {
            state: GatherState::Pending(Some(source)),
            dispenser,
            fail,
        }
    }

    fn start(source: ParallelSource) -> GatherRun {
        let ParallelSource {
            dispenser,
            segments,
            pool,
            fail,
            ..
        } = source;
        let workers = segments.len();
        let (tx, rx) = sync_channel(workers * GATHER_BACKLOG_PER_WORKER);
        let total = dispenser.total() as u64;
        let jobs: Vec<Job> = segments
            .into_iter()
            .map(|mut seg| {
                let dispenser = dispenser.clone();
                let tx = tx.clone();
                let fail = fail.clone();
                Box::new(move || {
                    // Record the panic before the sender drops, so the
                    // consumer reads the cause instead of a bare shortfall.
                    let res = catch_unwind(AssertUnwindSafe(move || {
                        // Hold each morsel's output until the next one is
                        // claimed: the deferred metrics flush then happens
                        // before this worker's final send, i.e. strictly
                        // before the consumer can observe stream end.
                        let mut held: Option<(u64, Vec<Batch>)> = None;
                        while let Some((idx, morsel)) = dispenser.next_morsel() {
                            if let Some(prev) = held.take() {
                                if tx.send(prev).is_err() {
                                    return; // consumer dropped the stream
                                }
                            }
                            let outs = seg.push(morsel);
                            held = Some((idx, outs));
                        }
                        seg.flush();
                        if let Some(prev) = held {
                            let _ = tx.send(prev);
                        }
                    }));
                    if let Err(p) = res {
                        fail.set(ExecError::msg(format!(
                            "parallel pipeline worker panicked: {}",
                            panic_message(p.as_ref())
                        )));
                    }
                }) as Job
            })
            .collect();
        drop(tx);
        run_jobs(pool.as_ref(), jobs);
        GatherRun {
            rx,
            pending: BTreeMap::new(),
            ready: VecDeque::new(),
            next: 0,
            total,
        }
    }
}

impl Operator for GatherExec {
    fn next_batch(&mut self) -> Option<Batch> {
        loop {
            match &mut self.state {
                GatherState::Pending(source) => {
                    let Some(source) = source.take() else {
                        self.fail
                            .set(ExecError::msg("parallel gather restarted after teardown"));
                        self.state = GatherState::Done;
                        return None;
                    };
                    self.state = GatherState::Running(Self::start(source));
                }
                GatherState::Running(run) => {
                    if let Some(b) = run.ready.pop_front() {
                        return Some(b);
                    }
                    if run.next == run.total {
                        self.state = GatherState::Done;
                        return None;
                    }
                    if let Some(outs) = run.pending.remove(&run.next) {
                        run.ready.extend(outs);
                        run.next += 1;
                        continue;
                    }
                    match run.rx.recv() {
                        Ok((idx, outs)) => {
                            run.pending.insert(idx, outs);
                        }
                        Err(_) => {
                            if !self.dispenser.cancelled() {
                                // A worker died: its panic is already in
                                // the slot (recorded before the sender
                                // dropped); make sure *something* is, then
                                // end the stream. The session layer reads
                                // the slot and aborts recycler bookkeeping
                                // — a truncated stream never publishes.
                                self.fail.set(ExecError::msg(format!(
                                    "parallel pipeline worker failed before morsel {} of {}",
                                    run.next, run.total
                                )));
                            }
                            // On cancel the missing indices will simply
                            // never arrive; the connection layer reports
                            // the cancel itself.
                            self.state = GatherState::Done;
                            return None;
                        }
                    }
                }
                GatherState::Done => return None,
            }
        }
    }

    fn progress(&self) -> f64 {
        match &self.state {
            GatherState::Done => 1.0,
            // Morsels *dispatched* (the serial scan meter's analog);
            // slightly ahead of what has been emitted, which is what
            // speculative stores want for extrapolation.
            _ => self.dispenser.progress(),
        }
    }
}

// ---------------------------------------------------------------------------
// Partitioned breakers: aggregation and top-N over per-worker partials
// ---------------------------------------------------------------------------

/// Run the pipeline to completion, one `fold` state per worker, and hand
/// the partials back. `fold` receives the morsel index alongside each
/// output batch (top-N derives position tie-breaks from it; aggregation
/// ignores it). A dead worker never sends its partial — the shortfall
/// comes back as the structured error the worker recorded. (Cancellation
/// is not a shortfall: it stops morsel hand-out, so every worker still
/// winds down normally and sends its partial.)
fn run_partials<S: Send + 'static>(
    source: ParallelSource,
    make: impl Fn() -> S,
    fold: impl Fn(&mut S, u64, Batch) + Send + Sync + Clone + 'static,
) -> Result<Vec<S>, ExecError> {
    let ParallelSource {
        dispenser,
        segments,
        pool,
        fail,
        ..
    } = source;
    let workers = segments.len();
    let (tx, rx) = sync_channel(workers);
    let jobs: Vec<Job> = segments
        .into_iter()
        .map(|mut seg| {
            let dispenser = dispenser.clone();
            let tx = tx.clone();
            let fold = fold.clone();
            let fail = fail.clone();
            let mut state = make();
            Box::new(move || {
                let res = catch_unwind(AssertUnwindSafe(move || {
                    while let Some((idx, morsel)) = dispenser.next_morsel() {
                        for out in seg.push(morsel) {
                            fold(&mut state, idx, out);
                        }
                    }
                    // Flush deferred metrics before the partial is sent:
                    // the breaker counts partials to detect completion.
                    seg.flush();
                    let _ = tx.send(state);
                }));
                if let Err(p) = res {
                    fail.set(ExecError::msg(format!(
                        "parallel pipeline worker panicked: {}",
                        panic_message(p.as_ref())
                    )));
                }
            }) as Job
        })
        .collect();
    drop(tx);
    run_jobs(pool.as_ref(), jobs);
    let partials: Vec<S> = rx.into_iter().collect();
    if partials.len() != workers {
        return Err(fail.get().unwrap_or_else(|| {
            ExecError::msg(format!(
                "a parallel breaker worker failed ({} of {workers} partials arrived)",
                partials.len(),
            ))
        }));
    }
    Ok(partials)
}

/// Partitioned hash aggregation: every worker folds its morsels into a
/// private [`GroupTable`]; the partials are merged at the breaker and the
/// merged groups emitted sorted by key — the same order the serial
/// aggregate emits, so the result is independent of the merge order.
pub struct ParallelAggExec {
    source: Option<ParallelSource>,
    group_by: Vec<Expr>,
    aggs: Vec<AggFunc>,
    input_types: Vec<DataType>,
    output_types: Vec<DataType>,
    output: Option<Vec<Batch>>,
    emitted: usize,
    metrics: Arc<OpMetrics>,
    fail: Arc<FailSlot>,
}

impl ParallelAggExec {
    /// See [`crate::agg::HashAggExec::new`] for the parameter contract.
    pub fn new(
        source: ParallelSource,
        group_by: Vec<Expr>,
        aggs: Vec<AggFunc>,
        input_types: Vec<DataType>,
        output_types: Vec<DataType>,
        metrics: Arc<OpMetrics>,
    ) -> Self {
        assert_eq!(group_by.len() + aggs.len(), output_types.len());
        let fail = source.fail.clone();
        ParallelAggExec {
            source: Some(source),
            group_by,
            aggs,
            input_types,
            output_types,
            output: None,
            emitted: 0,
            metrics,
            fail,
        }
    }

    fn build(&mut self) -> Result<Vec<Batch>, ExecError> {
        let Some(source) = self.source.take() else {
            return Err(ExecError::msg(
                "parallel aggregate restarted after teardown",
            ));
        };
        let group_by = self.group_by.clone();
        let aggs = self.aggs.clone();
        let input_types = self.input_types.clone();
        let agg_metrics = self.metrics.clone();
        let partials = run_partials(
            source,
            || GroupTable::new(group_by.clone(), aggs.clone(), input_types.clone()),
            move |table, _idx, batch| {
                agg_metrics.add_work(batch.rows() as u64);
                table.fold(&batch);
            },
        )?;
        let mut merged = GroupTable::new(
            self.group_by.clone(),
            self.aggs.clone(),
            self.input_types.clone(),
        );
        for p in partials {
            merged.merge(p);
        }
        let states = merged.into_sorted_states();
        Ok(emit_groups(
            &states,
            &self.output_types,
            self.group_by.len(),
        ))
    }
}

impl Operator for ParallelAggExec {
    fn next_batch(&mut self) -> Option<Batch> {
        let metrics = self.metrics.clone();
        timed_next(&metrics, || {
            if self.output.is_none() {
                match self.build() {
                    Ok(built) => self.output = Some(built),
                    Err(e) => {
                        // Surface through the fail slot and end the stream.
                        self.fail.set(e);
                        self.output = Some(Vec::new());
                    }
                }
            }
            let out = self.output.as_ref()?;
            if self.emitted < out.len() {
                let b = out[self.emitted].clone();
                self.emitted += 1;
                Some(b)
            } else {
                None
            }
        })
    }

    fn progress(&self) -> f64 {
        match &self.output {
            None => 0.0,
            Some(out) => {
                if out.is_empty() {
                    1.0
                } else {
                    self.emitted as f64 / out.len() as f64
                }
            }
        }
    }
}

/// Partitioned top-N: per-worker heap runs (ties broken by global scan
/// position, exactly like the serial operator) merged at the breaker.
pub struct ParallelTopNExec {
    source: Option<ParallelSource>,
    keys: Vec<SortKeyExpr>,
    n: usize,
    output_types: Vec<DataType>,
    output: Option<Vec<Batch>>,
    emitted: usize,
    metrics: Arc<OpMetrics>,
    fail: Arc<FailSlot>,
}

impl ParallelTopNExec {
    /// Keep the first `n` rows of the pipeline under `keys` order.
    pub fn new(
        source: ParallelSource,
        keys: Vec<SortKeyExpr>,
        n: usize,
        output_types: Vec<DataType>,
        metrics: Arc<OpMetrics>,
    ) -> Self {
        let fail = source.fail.clone();
        ParallelTopNExec {
            source: Some(source),
            keys,
            n,
            output_types,
            output: None,
            emitted: 0,
            metrics,
            fail,
        }
    }

    fn build(&mut self) -> Result<Vec<Batch>, ExecError> {
        let Some(source) = self.source.take() else {
            return Err(ExecError::msg("parallel top-N restarted after teardown"));
        };
        let keys = self.keys.clone();
        let n = self.n;
        let topn_metrics = self.metrics.clone();
        let partials = run_partials(
            source,
            || TopNState::new(keys.clone(), n),
            move |state, idx, batch| {
                topn_metrics.add_work(batch.rows() as u64);
                // The morsel index feeds the global-scan-position
                // tie-break, matching the serial operator's chunk ordinal.
                state.fold(&batch, idx);
            },
        )?;
        let mut merged = TopNState::new(self.keys.clone(), self.n);
        for p in partials {
            merged.merge(p);
        }
        Ok(merged.into_batches(&self.output_types))
    }
}

impl Operator for ParallelTopNExec {
    fn next_batch(&mut self) -> Option<Batch> {
        let metrics = self.metrics.clone();
        timed_next(&metrics, || {
            if self.output.is_none() {
                match self.build() {
                    Ok(built) => self.output = Some(built),
                    Err(e) => {
                        self.fail.set(e);
                        self.output = Some(Vec::new());
                    }
                }
            }
            let out = self.output.as_ref()?;
            if self.emitted < out.len() {
                let b = out[self.emitted].clone();
                self.emitted += 1;
                Some(b)
            } else {
                None
            }
        })
    }

    fn progress(&self) -> f64 {
        match &self.output {
            None => 0.0,
            Some(out) => {
                if out.is_empty() {
                    1.0
                } else {
                    self.emitted as f64 / out.len() as f64
                }
            }
        }
    }
}
