//! Statement records and the in-memory span trace.
//!
//! Every statement a client runs leaves one [`Rec`]. In a traced run the
//! record also carries one [`Step`] per call into a layer (compile,
//! prepare, execute, drain, append, delete), timed from outside the
//! program around the public function. Spans stay in memory and are
//! written out once the run ends; per-layer metrics are computed from
//! them. Untraced runs take only the statement's start and end.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use rdb_engine::{Prepared, WriteOutcome};
use rdb_expr::Params;
use rdb_recycler::RecyclerEvent;
use rdb_vector::{Batch, Schema};

use crate::report::{median, ratio, Metrics, MS, US};

/// Statement class, for the read and write latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kind {
    #[default]
    Read,
    Write,
}

/// One timed call into a layer, inside a statement.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Step {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What the benchmark learned about one statement.
#[derive(Debug, Clone, Default)]
pub struct Rec {
    pub id: u64,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
    /// Whether the statement is a read from a small fixed pool of
    /// statement texts, which should mostly hit the cache.
    pub pooled: bool,
    /// Whether the statement executed in-process, so its recycler events
    /// were seen.
    pub saw_events: bool,
    pub reused: bool,
    pub match_ns: u64,
    pub materialized: u32,
    pub admitted: u32,
    pub stalls: u32,
    pub stall_ns: u64,
    pub repaired: u64,
    pub fallbacks: u64,
    pub invalidated: u64,
    pub steps: Vec<Step>,
}

impl Rec {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn step_ns(&self, name: &str) -> Option<u64> {
        let mut found = None;
        for s in self.steps.iter().filter(|s| s.name == name) {
            *found.get_or_insert(0) += s.ns();
        }
        found
    }

    /// Fold a handle's recycler events into the record.
    fn absorb_events(&mut self, events: &[RecyclerEvent]) {
        self.saw_events = true;
        for e in events {
            match e {
                RecyclerEvent::Reused { .. } | RecyclerEvent::SubsumptionReused { .. } => {
                    self.reused = true
                }
                RecyclerEvent::Materialized { admitted, .. } => {
                    self.materialized += 1;
                    self.admitted += u32::from(*admitted);
                }
                RecyclerEvent::Stalled { waited, .. } => {
                    self.stalls += 1;
                    self.stall_ns += waited.as_nanos() as u64;
                }
                _ => {}
            }
        }
    }

    /// Fold a write's repair and invalidation counts into the record.
    pub fn absorb_write(&mut self, out: &WriteOutcome) {
        self.repaired += out.repaired;
        self.fallbacks += out.repair_fallbacks;
        // `WriteOutcome::invalidated` lists the repaired entries too.
        self.invalidated += out
            .invalidated
            .iter()
            .filter(|e| matches!(e, RecyclerEvent::Invalidated { .. }))
            .count() as u64;
    }
}

/// One client thread's recorder. All recorders of a window share one
/// origin, so their spans line up on one time axis.
pub struct Recorder {
    origin: Instant,
    traced: bool,
    next_id: u64,
    pub recs: Vec<Rec>,
}

impl Recorder {
    pub fn new(origin: Instant, traced: bool, client: u64) -> Recorder {
        Recorder {
            origin,
            traced,
            next_id: client << 40,
            recs: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run one statement of class `kind`: its wall clock spans `f`, and
    /// an error or a panic inside `f` makes it a failed statement.
    pub fn statement<T>(
        &mut self,
        kind: Kind,
        f: impl FnOnce(&mut Rec, &Recorder) -> Result<T, String>,
    ) -> Result<T, String> {
        self.next_id += 1;
        let mut rec = Rec {
            id: self.next_id,
            kind,
            start_ns: self.now(),
            ..Rec::default()
        };
        let out = {
            let this = &*self;
            catch_unwind(AssertUnwindSafe(|| f(&mut rec, this)))
                .unwrap_or_else(|_| Err("statement panicked".to_string()))
        };
        rec.end_ns = self.now();
        rec.ok = out.is_ok();
        self.recs.push(rec);
        out
    }

    /// Run `f` as layer step `name` of `rec`. Untraced, this is a plain
    /// call.
    pub fn step<T>(&self, rec: &mut Rec, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let start_ns = self.now();
        let out = f();
        rec.steps.push(Step {
            name,
            start_ns,
            end_ns: self.now(),
        });
        out
    }

    /// Execute `prepared` and drain it, as the `engine.execute` and
    /// `exec.drain` steps of `rec`, folding the match time and recycler
    /// events into the record. Result batches are kept only when `keep`.
    pub fn execute(
        &self,
        rec: &mut Rec,
        prepared: &Prepared,
        params: &Params,
        keep: bool,
    ) -> Result<(Schema, Vec<Batch>), String> {
        let mut handle = self
            .step(rec, "engine.execute", || prepared.execute(params))
            .map_err(|e| e.to_string())?;
        rec.match_ns = handle.match_ns();
        let schema = handle.schema().clone();
        // The drain ends when the handle is gone: dropping the operator
        // tree frees its hash tables, which is executor work too.
        let (batches, error, events) = self.step(rec, "exec.drain", move || {
            let mut batches = Vec::new();
            for b in handle.by_ref() {
                if keep {
                    batches.push(b);
                }
            }
            (batches, handle.error(), handle.events().to_vec())
        });
        if let Some(e) = error {
            return Err(e.to_string());
        }
        rec.absorb_events(&events);
        Ok((schema, batches))
    }
}

/// Statement latencies and counts of one window.
pub struct Latencies {
    pub attempted: u64,
    pub failed: u64,
    pub completed: u64,
    /// Read wall times in ms, ascending.
    pub reads_ms: Vec<f64>,
    /// Write wall times in ms, ascending.
    pub writes_ms: Vec<f64>,
}

pub fn latencies(recs: &[Rec]) -> Latencies {
    let sorted = |kind: Kind| {
        let mut v: Vec<f64> = recs
            .iter()
            .filter(|r| r.ok && r.kind == kind)
            .map(|r| r.wall_ns() as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let failed = recs.iter().filter(|r| !r.ok).count() as u64;
    Latencies {
        attempted: recs.len() as u64,
        failed,
        completed: recs.len() as u64 - failed,
        reads_ms: sorted(Kind::Read),
        writes_ms: sorted(Kind::Write),
    }
}

/// Share of statement wall time that the layer spans cover.
pub fn coverage(recs: &[Rec]) -> f64 {
    let wall: u64 = recs.iter().map(Rec::wall_ns).sum();
    let covered: u64 = recs.iter().flat_map(|r| &r.steps).map(Step::ns).sum();
    ratio(covered as f64, wall as f64)
}

/// Per-layer metrics of a traced window. Layers a workload never calls
/// report 0.
pub fn layer_metrics(recs: &[Rec], m: &mut Metrics) {
    let ok: Vec<&Rec> = recs.iter().filter(|r| r.ok).collect();
    let p50 = |name: &str, unit: f64, filter: &dyn Fn(&Rec) -> bool| {
        let v: Vec<f64> = ok
            .iter()
            .filter(|r| filter(r))
            .filter_map(|r| r.step_ns(name))
            .map(|ns| ns as f64 / 1e9 * unit)
            .collect();
        median(&v)
    };
    let all = |_: &Rec| true;
    m.put("plan.prepare_us_p50", p50("plan.prepare", US, &all), "us");
    m.put("sql.compile_us_p50", p50("sql.compile", US, &all), "us");
    let executions: Vec<&&Rec> = ok
        .iter()
        .filter(|r| r.step_ns("engine.execute").is_some())
        .collect();
    let execute_us: Vec<f64> = executions
        .iter()
        .map(|r| {
            r.step_ns("engine.execute")
                .unwrap_or(0)
                .saturating_sub(r.match_ns) as f64
                / 1e3
        })
        .collect();
    m.put("engine.execute_us_p50", median(&execute_us), "us");
    let match_us: Vec<f64> = executions.iter().map(|r| r.match_ns as f64 / 1e3).collect();
    m.put("recycler.match_us_p50", median(&match_us), "us");
    let wall: u64 = ok.iter().map(|r| r.wall_ns()).sum();
    let match_total: u64 = executions.iter().map(|r| r.match_ns).sum();
    m.put(
        "recycler.match_share",
        ratio(match_total as f64, wall as f64),
        "ratio",
    );
    let hit_ratio = |pooled_only: bool| {
        let runs: Vec<_> = executions
            .iter()
            .filter(|r| r.pooled || !pooled_only)
            .collect();
        let hits = runs.iter().filter(|r| r.reused).count();
        ratio(hits as f64, runs.len() as f64)
    };
    m.put("recycler.hit_ratio", hit_ratio(false), "ratio");
    m.put("recycler.pooled_hit_ratio", hit_ratio(true), "ratio");
    let materialized: u32 = ok.iter().map(|r| r.materialized).sum();
    let admitted: u32 = ok.iter().map(|r| r.admitted).sum();
    m.put(
        "recycler.admit_ratio",
        ratio(admitted as f64, materialized as f64),
        "ratio",
    );
    let stalls: u32 = ok.iter().map(|r| r.stalls).sum();
    let stall_ns: u64 = ok.iter().map(|r| r.stall_ns).sum();
    m.put("recycler.stalls", stalls as f64, "count");
    m.put("recycler.stall_ms", stall_ns as f64 / 1e6, "ms");
    m.put(
        "exec.miss_ms_p50",
        p50("exec.drain", MS, &|r| !r.reused),
        "ms",
    );
    m.put(
        "exec.hit_us_p50",
        p50("exec.drain", US, &|r| r.reused),
        "us",
    );
    let drain: u64 = ok.iter().filter_map(|r| r.step_ns("exec.drain")).sum();
    m.put("exec.share", ratio(drain as f64, wall as f64), "ratio");
    m.put(
        "storage.append_ms_p50",
        p50("storage.append", MS, &all),
        "ms",
    );
    m.put(
        "storage.delete_ms_p50",
        p50("storage.delete", MS, &all),
        "ms",
    );
    let writes: Vec<&&Rec> = ok.iter().filter(|r| r.kind == Kind::Write).collect();
    let n_writes = writes.len() as f64;
    let repaired: u64 = writes.iter().map(|r| r.repaired).sum();
    let fallbacks: u64 = writes.iter().map(|r| r.fallbacks).sum();
    let invalidated: u64 = writes.iter().map(|r| r.invalidated).sum();
    m.put(
        "delta.repaired_per_write",
        ratio(repaired as f64, n_writes),
        "count",
    );
    m.put(
        "delta.fallback_ratio",
        ratio(fallbacks as f64, (repaired + fallbacks) as f64),
        "ratio",
    );
    m.put(
        "delta.invalidated_per_write",
        ratio(invalidated as f64, n_writes),
        "count",
    );
}

/// Write the spans of a traced window as JSON lines: one `statement`
/// span per record, and one child span per layer step.
pub fn write_spans(path: &Path, recs: &[Rec]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in recs {
        let root = r.id << 4;
        writeln!(
            out,
            "{{\"id\": {root}, \"name\": \"statement\", \"stmt\": {}, \"parent\": null, \
             \"start_ns\": {}, \"end_ns\": {}, \"kind\": \"{:?}\", \"ok\": {}}}",
            r.id, r.start_ns, r.end_ns, r.kind, r.ok
        )?;
        for (i, s) in r.steps.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"stmt\": {}, \"parent\": {root}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                root + 1 + i as u64,
                s.name,
                r.id,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}
