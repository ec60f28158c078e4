//! Fused push-style pipelines: filter → project → join-probe chains
//! collapsed into one loop per morsel.
//!
//! The unfused executor runs a scan-rooted chain as a stack of pull
//! operators; even under morsel-driven parallelism every morsel pays one
//! virtual `next_batch` hop, one selection materialization, and one batch
//! re-wrap *per operator*. A [`FusedChain`] runs the same chain as a
//! single push-style loop over each morsel:
//!
//! * selections are **chain state** — a reusable `Vec<u32>` of surviving
//!   physical row indices, seeded and narrowed in place by the
//!   branch-free kernel ([`rdb_expr::CompiledPredicate`]) with no
//!   per-batch `Vec<bool>` and no literal broadcasts;
//! * probe keys are hashed in bulk ([`rdb_vector::hash_columns`]) into a
//!   reusable buffer, and the probe loop is an array lookup plus a typed
//!   candidate confirmation;
//! * batches are only re-wrapped at the chain edge, not between stages.
//!
//! # Fusion boundary rule
//!
//! Fusion changes the *iteration shape* of a pipeline, never its
//! observable batch sequence. A chain fuses from a base-table scan up
//! through pipelining stages only (`Select`, `Project`, and the probe
//! side of `Join`) and always stops at pipeline breakers (aggregate,
//! sort, top-N, the build side of a join), at `Store`/`StateTee` tees,
//! and at gather points. Those boundaries are where the recycler observes
//! batches — a store tee must publish byte-identical
//! `MaterializedResult`s at any DOP, fused or not — so the fused chain
//! reproduces the serial operator semantics exactly per morsel: the same
//! logical rows in the same order, the same sparse-compaction heuristic
//! ([`crate::filter::COMPACT_FRACTION`]), the same NULL-key and
//! candidate-verification join behavior, and the same per-plan-node
//! rows/work metrics the recycler's cost model consumes.
//!
//! Wall-time metrics are the one approximation: a fused chain cannot
//! time stages individually, so each morsel's fused time is charged to
//! every stage of the span (the span root's inclusive time — what the
//! recycler reads for subtree cost — stays accurate). All counters are
//! accumulated in per-chain [`StageLocal`]s and flushed to the shared
//! atomics every [`FLUSH_EVERY`] morsels and at end-of-stream — per-stage
//! atomic traffic was the dominant fused per-morsel cost before.

use std::sync::Arc;
use std::time::Instant;

use rdb_expr::{eval, CompiledPredicate, Expr};
use rdb_plan::{JoinKind, Plan, PlanError};
use rdb_vector::{hash_columns, morsel_count, Batch, Column, ColumnBuilder, DataType};

use crate::context::ExecContext;
use crate::filter::COMPACT_FRACTION;
use crate::join::{BuildSide, SharedBuild};
use crate::metrics::{MetricsNode, OpMetrics};
use crate::op::Operator;
use crate::parallel::{BuildChild, MorselDispenser};
use crate::prune::ZonePrune;

/// One fused pipeline stage. Mirrors the serial operator it replaces; the
/// recycler-facing metrics contract (rows out, probe work) is identical.
#[derive(Clone)]
pub enum FusedStage {
    /// `Select`: narrow the live selection with a compiled predicate.
    Filter {
        pred: CompiledPredicate,
        metrics: Arc<OpMetrics>,
    },
    /// `Project`: recompute the column set over the physical rows.
    Project {
        exprs: Vec<Expr>,
        metrics: Arc<OpMetrics>,
    },
    /// `Join` probe against a shared (possibly recycled) build side.
    Probe {
        build: Arc<SharedBuild>,
        kind: JoinKind,
        left_keys: Vec<Expr>,
        right_types: Vec<DataType>,
        metrics: Arc<OpMetrics>,
        /// Lazily resolved build side (first morsel through this chain).
        built: Option<Arc<BuildSide>>,
    },
}

impl FusedStage {
    fn metrics(&self) -> &Arc<OpMetrics> {
        match self {
            FusedStage::Filter { metrics, .. }
            | FusedStage::Project { metrics, .. }
            | FusedStage::Probe { metrics, .. } => metrics,
        }
    }
}

/// Per-stage measurement counters accumulated *locally* in the chain and
/// flushed to the shared atomic [`OpMetrics`] in bulk — per-morsel atomic
/// RMWs on every stage are exactly the kind of per-row overhead fusion
/// exists to remove.
#[derive(Clone, Copy, Default)]
struct StageLocal {
    time: u64,
    calls: u64,
    rows: u64,
    bytes: u64,
    work: u64,
}

/// Morsels between metric flushes: keeps the shared counters fresh enough
/// for mid-flight progress estimates while amortizing the atomic traffic.
const FLUSH_EVERY: u32 = 64;

/// A fused operator chain plus its reusable scratch buffers. One instance
/// per worker (clones share the `Arc`ed metrics and build sides but own
/// their scratch), driven morsel-at-a-time via [`FusedChain::push`].
#[derive(Clone)]
pub struct FusedChain {
    stages: Vec<FusedStage>,
    /// Locally accumulated per-stage counters (see [`StageLocal`]).
    locals: Vec<StageLocal>,
    /// Morsels pushed since the last metrics flush.
    since_flush: u32,
    /// Live selection indices (chain state between stages).
    sel_scratch: Vec<u32>,
    /// Second index buffer (semi/anti probe output).
    aux_scratch: Vec<u32>,
    /// Per-row probe-key hashes.
    hash_scratch: Vec<u64>,
}

impl FusedChain {
    /// Chain over `stages`, bottom (nearest the scan) first.
    pub fn new(stages: Vec<FusedStage>) -> FusedChain {
        let locals = vec![StageLocal::default(); stages.len()];
        FusedChain {
            stages,
            locals,
            since_flush: 0,
            sel_scratch: Vec::new(),
            aux_scratch: Vec::new(),
            hash_scratch: Vec::new(),
        }
    }

    /// Number of fused stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the chain has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Push one morsel through the whole chain. Returns the chain's output
    /// batch, or `None` when the morsel's rows were all filtered out /
    /// unmatched (the serial chain emits nothing for such a morsel either).
    pub fn push(&mut self, morsel: Batch) -> Option<Batch> {
        let start = Instant::now();
        let mut sel_buf = std::mem::take(&mut self.sel_scratch);
        let mut aux = std::mem::take(&mut self.aux_scratch);
        let mut hashes = std::mem::take(&mut self.hash_scratch);
        let out = run_chain(
            &mut self.stages,
            &mut self.locals,
            morsel,
            &mut sel_buf,
            &mut aux,
            &mut hashes,
        );
        let elapsed = start.elapsed().as_nanos() as u64;
        for l in &mut self.locals {
            l.time += elapsed;
        }
        self.sel_scratch = sel_buf;
        self.aux_scratch = aux;
        self.hash_scratch = hashes;
        self.since_flush += 1;
        if self.since_flush >= FLUSH_EVERY {
            self.flush();
        }
        out
    }

    /// Account a morsel the scan's zone maps pruned: every stage counts a
    /// call (so none reads as "never ran" to the recycler) and nothing
    /// else — no rows, bytes, work or time were spent on it.
    pub fn skip(&mut self) {
        for l in &mut self.locals {
            l.calls += 1;
        }
    }

    /// Publish the locally accumulated counters into the shared metrics.
    /// Idempotent (locals drain to zero); called periodically, at
    /// end-of-stream by the drivers, and on drop as a safety net for
    /// cancelled / aborted executions.
    pub fn flush(&mut self) {
        self.since_flush = 0;
        for (stage, l) in self.stages.iter().zip(self.locals.iter_mut()) {
            let m = stage.metrics();
            if l.time > 0 {
                m.add_time(l.time);
            }
            if l.calls > 0 {
                m.calls
                    .fetch_add(l.calls, std::sync::atomic::Ordering::Relaxed);
            }
            if l.rows > 0 {
                m.add_rows(l.rows);
            }
            if l.bytes > 0 {
                m.add_bytes(l.bytes);
            }
            if l.work > 0 {
                m.add_work(l.work);
            }
            *l = StageLocal::default();
        }
    }
}

impl Drop for FusedChain {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Logical output bytes for a stage emitting `rows` of `cur` — the same
/// selectivity-scaled estimate [`Batch::size_bytes`] reports for a
/// selected batch, so fused byte metrics match the serial operators'.
/// `span` caches the summed column bytes of `cur` across consecutive
/// stages that leave the columns untouched.
fn out_bytes(cur: &Batch, rows: usize, span: &mut Option<usize>) -> u64 {
    let span =
        *span.get_or_insert_with(|| cur.columns().iter().map(|c| c.size_bytes()).sum::<usize>());
    (span * rows).checked_div(cur.physical_rows()).unwrap_or(0) as u64
}

fn run_chain(
    stages: &mut [FusedStage],
    locals: &mut [StageLocal],
    morsel: Batch,
    sel_buf: &mut Vec<u32>,
    aux: &mut Vec<u32>,
    hashes: &mut Vec<u64>,
) -> Option<Batch> {
    // `cur` never carries a selection inside the chain: the live selection
    // is `sel_buf` when `dense` is false, all physical rows otherwise.
    let mut cur = morsel;
    let mut dense = true;
    let mut killed_at: Option<usize> = None;
    // Summed column bytes of `cur`, invalidated whenever `cur`'s columns
    // change (compaction, projection, probe output).
    let mut span: Option<usize> = None;
    for i in 0..stages.len() {
        let local = &mut locals[i];
        match &mut stages[i] {
            FusedStage::Filter { pred, .. } => {
                if dense {
                    pred.select_physical_into(&cur, sel_buf);
                    dense = sel_buf.len() == cur.physical_rows();
                } else {
                    pred.refine(&cur, sel_buf);
                }
                if !dense {
                    if sel_buf.is_empty() {
                        local.calls += 1;
                        killed_at = Some(i);
                        break;
                    }
                    // The serial filter's sparse-compaction heuristic:
                    // below 1-in-COMPACT_FRACTION survivors, gather now so
                    // later stages stop computing over dead rows.
                    if sel_buf.len() * COMPACT_FRACTION < cur.physical_rows() {
                        cur = cur.take_physical(sel_buf);
                        dense = true;
                        span = None;
                    }
                }
                let rows = if dense {
                    cur.physical_rows()
                } else {
                    sel_buf.len()
                };
                local.calls += 1;
                local.rows += rows as u64;
                local.bytes += out_bytes(&cur, rows, &mut span);
            }
            FusedStage::Project { exprs, .. } => {
                cur = Batch::new(exprs.iter().map(|e| eval(e, &cur)).collect());
                span = None;
                let rows = if dense {
                    cur.physical_rows()
                } else {
                    sel_buf.len()
                };
                local.calls += 1;
                local.rows += rows as u64;
                local.bytes += out_bytes(&cur, rows, &mut span);
            }
            FusedStage::Probe {
                build,
                kind,
                left_keys,
                right_types,
                built,
                ..
            } => {
                let b = match built {
                    Some(b) => b.clone(),
                    None => {
                        let g = build.get();
                        *built = Some(g.clone());
                        g
                    }
                };
                let in_rows = if dense {
                    cur.physical_rows()
                } else {
                    sel_buf.len()
                };
                local.work += in_rows as u64;
                match kind {
                    JoinKind::Single => {
                        assert_eq!(
                            b.rows(),
                            1,
                            "single join build side must have exactly one row"
                        );
                        let n = cur.physical_rows();
                        let idx = vec![0u32; n];
                        let right_part = b.batch().take(&idx);
                        let mut cols: Vec<Column> = cur.columns().to_vec();
                        cols.extend(right_part.into_columns());
                        cur = Batch::new(cols);
                        span = None;
                        let rows = if dense { n } else { sel_buf.len() };
                        local.calls += 1;
                        local.rows += rows as u64;
                        local.bytes += out_bytes(&cur, rows, &mut span);
                    }
                    JoinKind::Inner | JoinKind::LeftOuter => {
                        let key_cols: Vec<Column> =
                            left_keys.iter().map(|e| eval(e, &cur)).collect();
                        let key_refs: Vec<&Column> = key_cols.iter().collect();
                        hash_columns(&key_refs, cur.physical_rows(), hashes);
                        let mut left_idx: Vec<u32> = Vec::new();
                        let mut right_idx: Vec<u32> = Vec::new();
                        let mut unmatched: Vec<u32> = Vec::new();
                        let sel_slice = (!dense).then_some(sel_buf.as_slice());
                        let dense_end = if dense { cur.physical_rows() as u32 } else { 0 };
                        let rows_iter =
                            sel_slice.into_iter().flatten().copied().chain(0..dense_end);
                        b.probe_pairs(
                            &key_refs,
                            hashes,
                            rows_iter,
                            *kind == JoinKind::LeftOuter,
                            &mut left_idx,
                            &mut right_idx,
                            &mut unmatched,
                        );
                        let matched_left = cur.take_physical(&left_idx);
                        let matched_right = b.batch().take_physical(&right_idx);
                        let mut cols = matched_left.into_columns();
                        cols.extend(matched_right.into_columns());
                        let matched = Batch::new(cols);
                        cur = if *kind == JoinKind::LeftOuter && !unmatched.is_empty() {
                            let pad_left = cur.take_physical(&unmatched);
                            let n = pad_left.rows();
                            let mut cols = pad_left.into_columns();
                            for t in right_types.iter() {
                                let mut bld = ColumnBuilder::new(*t, n);
                                for _ in 0..n {
                                    bld.push_null();
                                }
                                cols.push(bld.finish());
                            }
                            Batch::concat(&[matched, Batch::new(cols)])
                        } else {
                            matched
                        };
                        dense = true;
                        span = None;
                        if cur.rows() == 0 {
                            local.calls += 1;
                            killed_at = Some(i);
                            break;
                        }
                        local.calls += 1;
                        local.rows += cur.rows() as u64;
                        local.bytes += cur.size_bytes() as u64;
                    }
                    JoinKind::Semi | JoinKind::Anti => {
                        let key_cols: Vec<Column> =
                            left_keys.iter().map(|e| eval(e, &cur)).collect();
                        let key_refs: Vec<&Column> = key_cols.iter().collect();
                        hash_columns(&key_refs, cur.physical_rows(), hashes);
                        aux.clear();
                        let sel_slice = (!dense).then_some(sel_buf.as_slice());
                        let dense_end = if dense { cur.physical_rows() as u32 } else { 0 };
                        let rows_iter =
                            sel_slice.into_iter().flatten().copied().chain(0..dense_end);
                        b.probe_keep(&key_refs, hashes, rows_iter, *kind == JoinKind::Semi, aux);
                        std::mem::swap(sel_buf, aux);
                        dense = false;
                        if sel_buf.is_empty() {
                            local.calls += 1;
                            killed_at = Some(i);
                            break;
                        }
                        local.calls += 1;
                        local.rows += sel_buf.len() as u64;
                        local.bytes += out_bytes(&cur, sel_buf.len(), &mut span);
                    }
                }
            }
        }
    }
    if let Some(k) = killed_at {
        // Later stages saw the (empty) morsel too: keep their call counts
        // non-zero so the recycler's "never ran" marker stays truthful.
        for l in &mut locals[k + 1..] {
            l.calls += 1;
        }
        return None;
    }
    if dense {
        Some(cur)
    } else {
        Some(cur.with_selection(Arc::new(std::mem::take(sel_buf))))
    }
}

/// The serial fused pipeline operator: drives a [`MorselDispenser`]
/// through one [`FusedChain`] on the caller's thread. Under parallel
/// execution the same chain type runs inside per-worker segments instead
/// (see [`crate::parallel::SegmentPipe`]).
pub struct FusedPipelineExec {
    dispenser: Arc<MorselDispenser>,
    chain: FusedChain,
}

impl FusedPipelineExec {
    /// Wrap a built fused pipeline.
    pub fn new(dispenser: Arc<MorselDispenser>, chain: FusedChain) -> FusedPipelineExec {
        FusedPipelineExec { dispenser, chain }
    }
}

impl Operator for FusedPipelineExec {
    fn next_batch(&mut self) -> Option<Batch> {
        while let Some((_, morsel)) = self.dispenser.next_morsel() {
            let Some(morsel) = morsel else {
                self.chain.skip();
                continue;
            };
            if let Some(out) = self.chain.push(morsel) {
                return Some(out);
            }
        }
        // End of stream: publish the deferred counters before the caller
        // (recycler completion, EXPLAIN ANALYZE) reads the shared metrics.
        self.chain.flush();
        None
    }

    fn progress(&self) -> f64 {
        self.dispenser.progress()
    }
}

/// A fused pipeline ready to run: the shared dispenser, a prototype chain
/// (clone one per worker), and the metrics tree mirroring the plan span.
pub(crate) struct FusedPipeline {
    pub(crate) dispenser: Arc<MorselDispenser>,
    pub(crate) chain: FusedChain,
    pub(crate) metrics: MetricsNode,
}

/// Walk the fusable chain under `plan`: pipelining stages (top-down) over
/// a base-table scan. `None` when `plan` does not head such a chain (or
/// the chain is empty — a bare scan has nothing to fuse).
fn collect_chain(plan: &Plan) -> Option<(Vec<&Plan>, &str, &[String])> {
    let mut stages: Vec<&Plan> = Vec::new();
    let mut cur = plan;
    loop {
        match cur {
            Plan::Scan { table, cols } => {
                if stages.is_empty() {
                    return None;
                }
                return Some((stages, table, cols));
            }
            Plan::Select { child, .. } | Plan::Project { child, .. } => {
                stages.push(cur);
                cur = child;
            }
            Plan::Join { left, .. } => {
                stages.push(cur);
                cur = left;
            }
            _ => return None,
        }
    }
}

/// Number of plan nodes `plan` would fuse into one push-style span (the
/// chain stages, excluding the scan), or `None` when `plan` does not head
/// a fusable chain. EXPLAIN uses this to annotate fused spans.
pub fn fused_span(plan: &Plan) -> Option<usize> {
    collect_chain(plan).map(|(stages, _, _)| stages.len())
}

/// Build the fused pipeline for `plan` if it heads a fusable chain.
/// `require_multi_morsel` gates on the scan being big enough to split
/// (the parallel caller); the serial caller fuses any size. Join build
/// sides route through the operator-state cache exactly like the unfused
/// builder ([`crate::build::join_build`]) — same artifact at any DOP.
pub(crate) fn build_fused_pipeline(
    plan: &Plan,
    ctx: &ExecContext,
    require_multi_morsel: bool,
    build_child: &mut BuildChild<'_>,
) -> Result<Option<FusedPipeline>, PlanError> {
    let Some((stages, table_name, cols)) = collect_chain(plan) else {
        return Ok(None);
    };
    let Some(table) = ctx.table(table_name) else {
        return Ok(None); // serial build reports the unknown table
    };
    if require_multi_morsel && morsel_count(table.rows()) < 2 {
        return Ok(None);
    }
    let projection: Vec<usize> = match cols
        .iter()
        .map(|c| table.schema().index_of(c))
        .collect::<Option<Vec<_>>>()
    {
        Some(p) => p,
        None => return Ok(None), // serial build reports the unknown column
    };
    let scan_metrics = OpMetrics::shared();
    let mut node = MetricsNode::leaf(scan_metrics.clone());
    let mut fused: Vec<FusedStage> = Vec::with_capacity(stages.len());
    // Bottom-up: reverse the collected top-down chain.
    for stage in stages.iter().rev() {
        let m = OpMetrics::shared();
        match stage {
            Plan::Select { predicate, .. } => {
                node = MetricsNode::new(m.clone(), vec![node]);
                fused.push(FusedStage::Filter {
                    pred: CompiledPredicate::compile(predicate),
                    metrics: m,
                });
            }
            Plan::Project { exprs, .. } => {
                node = MetricsNode::new(m.clone(), vec![node]);
                fused.push(FusedStage::Project {
                    exprs: exprs.clone(),
                    metrics: m,
                });
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
                let (build, right_metrics) = crate::build::join_build(
                    right,
                    right_keys,
                    &right_types,
                    &m,
                    ctx,
                    build_child,
                )?;
                node = MetricsNode::new(m.clone(), vec![node, right_metrics]);
                fused.push(FusedStage::Probe {
                    build,
                    kind: *kind,
                    left_keys: left_keys.clone(),
                    right_types,
                    metrics: m,
                    built: None,
                });
            }
            _ => unreachable!("chain walk admits only Select/Project/Join"),
        }
    }
    // Zone maps can rule whole morsels out for the stage next to the scan
    // (its column references are scan columns).
    let prune = match stages.last() {
        Some(Plan::Select { predicate, .. }) => ZonePrune::new(predicate, &projection),
        _ => None,
    };
    let dispenser = Arc::new(
        MorselDispenser::new(table, projection, scan_metrics)
            .with_cancel(ctx.cancel.clone())
            .with_prune(prune),
    );
    Ok(Some(FusedPipeline {
        dispenser,
        chain: FusedChain::new(fused),
        metrics: node,
    }))
}
