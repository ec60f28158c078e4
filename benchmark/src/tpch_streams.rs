//! `tpch_streams`: the paper's Fig. 7 throughput test.
//!
//! TPC-H at SF 0.05; throughput tests of 64 QGEN streams (each a permuted
//! run of all 22 patterns) run back to back from one shared queue by two
//! client threads, one `Session` each, in a closed loop. SPEC mode, DOP 1,
//! and a 64 MiB recycler budget, about a quarter of what the same run
//! admits unbounded, so the benefit metric decides what stays cached.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rdb_engine::{Engine, WorkloadQuery};
use rdb_expr::Params;
use rdb_plan::Plan;
use rdb_recycler::{CostModel, RecyclerConfig, RecyclerMode};
use rdb_storage::Catalog;
use rdb_tpch::{generate, make_streams, StreamOptions, TpchConfig};
use rdb_vector::{Batch, Schema};

use crate::check::{rows_of_batch, same_multiset};
use crate::report::Json;
use crate::trace::Kind;
use crate::{data_seed, run_clients, RunResult, RunSpec, Window};

pub const SCALE: f64 = 0.05;
const STREAMS_PER_TEST: usize = 64;
/// Throughput tests generated per set-up. The queue wraps round if a
/// window outruns them, which no commit so far comes near.
const TESTS: usize = 12;
/// Streams run before the window: one whole throughput test. The window
/// then starts from the same warm cache whatever the host's speed; timed
/// from cold, a faster host also got further into the warm regime, which
/// doubled the run-to-run spread of `qps`.
const WARMUP_STREAMS: usize = STREAMS_PER_TEST;
const CLIENTS: usize = 2;
const DOP: usize = 1;
const BUDGET_BYTES: u64 = 64 << 20;
const MAX_CONCURRENT: usize = 12;
const ADMISSION_QUEUE: usize = 4096;
/// Besides the first two streams (every pattern), one statement in this
/// many is kept for the answer check.
const SAMPLE_EVERY: u64 = 50;

/// Every recycler setting, spelled out so that a changed default in the
/// engine cannot change what this workload measures.
pub fn recycler_config(cache_bytes: u64, spec_min_progress: f64) -> RecyclerConfig {
    RecyclerConfig {
        cache_bytes,
        mode: RecyclerMode::Speculative,
        cost_model: CostModel::Time,
        aging_alpha: 0.995,
        min_refs_to_store: 0.5,
        spec_h: 0.001,
        benefit_floor: 0.0,
        max_result_fraction: 0.5,
        spec_min_progress,
        stall_timeout: Duration::from_secs(10),
        enable_subsumption: true,
        repair: true,
    }
}

const SPEC_MIN_PROGRESS: f64 = 0.05;

fn stream_seed(seed: u64) -> u64 {
    seed.wrapping_mul(1_000_003)
}

struct Env {
    catalog: Arc<Catalog>,
    engine: Arc<Engine>,
    streams: Vec<Vec<WorkloadQuery>>,
}

fn setup(seed: u64) -> Env {
    let catalog = generate(&TpchConfig {
        scale: SCALE,
        seed: data_seed(seed),
    });
    let engine = Engine::builder(catalog.clone())
        .recycler(recycler_config(BUDGET_BYTES, SPEC_MIN_PROGRESS))
        .parallelism(DOP)
        .max_concurrent_queries(MAX_CONCURRENT)
        .admission_queue_limit(ADMISSION_QUEUE)
        .fusion(true)
        .build();
    let streams = make_streams(
        &catalog,
        &StreamOptions {
            streams: STREAMS_PER_TEST * TESTS,
            scale: SCALE,
            seed: stream_seed(seed),
            proactive: false,
            patterns: None,
        },
    );
    Env {
        catalog,
        engine,
        streams,
    }
}

/// A statement kept for the answer check.
struct Kept {
    label: String,
    plan: Plan,
    schema: Schema,
    batches: Vec<Batch>,
}

/// Whether the statement at `index` of stream `stream` is kept for the
/// answer check: every statement of the window's first two streams (all
/// 22 patterns), and a seeded sample of the rest.
fn keep(seed: u64, stream: usize, index: usize) -> bool {
    let h = (seed ^ (stream as u64) << 20 ^ index as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
    stream < WARMUP_STREAMS + 2 || (h >> 33).is_multiple_of(SAMPLE_EVERY)
}

/// Warm the cache with the first throughput test, then measure a window.
/// The warm-up's wall time goes into the window as `warmup_s`.
fn window(env: &Env, spec: &RunSpec, traced: bool) -> (Window, Vec<Kept>) {
    let queue = AtomicUsize::new(0);
    let t = Instant::now();
    drive(env, &queue, spec.seed, None, false);
    let warmup_s = t.elapsed().as_secs_f64();
    // Each warm-up client took one index past the warm-up when it stopped.
    queue.store(WARMUP_STREAMS, Ordering::Relaxed);
    let (mut w, kept) = drive(env, &queue, spec.seed, Some(spec.window), traced);
    w.warmup_s = warmup_s;
    (w, kept)
}

/// Run streams from `queue` with the client threads: for `window` when
/// given, else until the warm-up streams are taken.
fn drive(
    env: &Env,
    queue: &AtomicUsize,
    seed: u64,
    window: Option<Duration>,
    traced: bool,
) -> (Window, Vec<Kept>) {
    let deadline = window.map(|w| Instant::now() + w);
    let (w, kept) = run_clients(0..CLIENTS, traced, |_, recorder| {
        let session = env.engine.session();
        let mut kept = Vec::new();
        'streams: loop {
            let s = queue.fetch_add(1, Ordering::Relaxed);
            if deadline.is_none() && s >= WARMUP_STREAMS {
                break;
            }
            let stream = &env.streams[s % env.streams.len()];
            for (i, q) in stream.iter().enumerate() {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    break 'streams;
                }
                let keep_it = deadline.is_some() && s < env.streams.len() && keep(seed, s, i);
                let out = recorder.statement(Kind::Read, |rec, r| {
                    let prepared = r
                        .step(rec, "plan.prepare", || session.prepare(&q.plan))
                        .map_err(|e| e.to_string())?;
                    r.execute(rec, &prepared, &Params::none(), keep_it)
                });
                match out {
                    Ok((schema, batches)) if keep_it => kept.push(Kept {
                        label: q.label.clone(),
                        plan: q.plan.clone(),
                        schema,
                        batches,
                    }),
                    Ok(_) => {}
                    Err(e) => eprintln!("{} failed: {e}", q.label),
                }
            }
        }
        kept
    });
    (w, kept.into_iter().flatten().collect())
}

/// Re-run the kept statements on a recycling-off engine over the same
/// catalog and compare.
fn check(env: &Env, kept: &[Kept], problems: &mut Vec<String>) {
    let oracle = Engine::builder(env.catalog.clone())
        .no_recycler()
        .parallelism(1)
        .build();
    let session = oracle.session();
    let mut patterns = BTreeSet::new();
    for k in kept {
        patterns.insert(k.label.as_str());
        let want = session
            .prepare(&k.plan)
            .and_then(|p| p.execute(&Params::none()))
            .map(|h| h.collect_batch());
        let want = match want {
            Ok(b) => b,
            Err(e) => {
                problems.push(format!("oracle failed on {}: {e}", k.label));
                continue;
            }
        };
        let got = Batch::concat_or_empty(&k.schema, &k.batches);
        if !same_multiset(rows_of_batch(&got), rows_of_batch(&want)) {
            problems.push(format!(
                "{}: {} rows differ from the recycling-off answer ({} rows)",
                k.label,
                got.rows(),
                want.rows()
            ));
        }
    }
    if patterns.len() < 22 {
        problems.push(format!(
            "answer sample covers {} of 22 patterns",
            patterns.len()
        ));
    }
}

pub fn run(spec: &RunSpec) -> RunResult {
    let mut result = RunResult {
        facts: vec![
            ("scale", Json::Num(SCALE)),
            ("data_seed", Json::Num(data_seed(spec.seed) as f64)),
            ("stream_seed", Json::Num(stream_seed(spec.seed) as f64)),
            ("streams_per_test", Json::Num(STREAMS_PER_TEST as f64)),
            ("tests_generated", Json::Num(TESTS as f64)),
            ("warmup_streams", Json::Num(WARMUP_STREAMS as f64)),
            ("clients", Json::Num(CLIENTS as f64)),
            ("dop", Json::Num(DOP as f64)),
            ("recycler_mode", Json::Str("speculative".into())),
            ("cache_budget_bytes", Json::Num(BUDGET_BYTES as f64)),
            ("spec_min_progress", Json::Num(SPEC_MIN_PROGRESS)),
            ("max_concurrent_queries", Json::Num(MAX_CONCURRENT as f64)),
            ("admission_queue_limit", Json::Num(ADMISSION_QUEUE as f64)),
        ],
        ..RunResult::default()
    };
    let measure = |env: &Env, traced: bool, problems: &mut Vec<String>| {
        let (w, kept) = window(env, spec, traced);
        let cache_bytes = env.engine.recycler().map_or(0, |r| r.cache_used());
        check(env, &kept, problems);
        (w, cache_bytes)
    };
    if spec.traced {
        let (plain, _) = measure(&setup(spec.seed), false, &mut result.problems);
        let (traced, cache_bytes) = measure(&setup(spec.seed), true, &mut result.problems);
        result.per_layer(&plain, traced, cache_bytes, 0.0);
    } else {
        result.untraced(
            || setup(spec.seed),
            |env, problems| measure(env, false, problems),
        );
    }
    result
}
