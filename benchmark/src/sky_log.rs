//! `sky_log`: the paper's Fig. 6 SkyServer log.
//!
//! Cone-search logs over a 400k-object synthetic sky, 100 queries each,
//! 85% on the hot parameter triple. One client executes the two
//! templates, prepared once, through `make_prepared_session` logs with a
//! fresh seed per log; the cache is flushed between logs, like the
//! paper's refresh splits. DOP 2 and an unbounded budget: the working set
//! (about 41 KB) fits, so most statements are warm hits, while the cold
//! cones run the table function on parallel morsel pipelines.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use rdb_engine::{Engine, Prepared};
use rdb_skyserver::{
    functions, generate, make_prepared_session, session_templates, SessionOptions, SessionQuery,
    SessionTemplate, SkyConfig,
};
use rdb_storage::Catalog;
use rdb_vector::Value;

use crate::check::{same_multiset, Cell};
use crate::report::Json;
use crate::tpch_streams::recycler_config;
use crate::trace::Kind;
use crate::{data_seed, run_clients, RunResult, RunSpec, Window};

const OBJECTS: usize = 400_000;
const LOG_QUERIES: usize = 100;
const HOT_FRACTION: f64 = 0.85;
const DOP: usize = 2;
/// "Unbounded": far above the ~41 KB working set.
const BUDGET_BYTES: u64 = u64::MAX / 4;
const SPEC_MIN_PROGRESS: f64 = 0.0;
const MAX_CONCURRENT: usize = 12;
const ADMISSION_QUEUE: usize = 4096;

fn log_seed(seed: u64, log: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(log)
}

struct Env {
    catalog: Arc<Catalog>,
    engine: Arc<Engine>,
    wide: Prepared,
    narrow: Prepared,
}

fn setup(seed: u64) -> Env {
    let catalog = generate(&SkyConfig {
        objects: OBJECTS,
        seed: data_seed(seed),
    });
    let engine = Engine::builder(catalog.clone())
        .functions(functions(&catalog))
        .recycler(recycler_config(BUDGET_BYTES, SPEC_MIN_PROGRESS))
        .parallelism(DOP)
        .max_concurrent_queries(MAX_CONCURRENT)
        .admission_queue_limit(ADMISSION_QUEUE)
        .fusion(true)
        .build();
    let session = engine.session();
    let (wide, narrow) = session_templates();
    let wide = session.prepare(&wide).expect("wide cone template prepares");
    let narrow = session
        .prepare(&narrow)
        .expect("narrow cone template prepares");
    Env {
        catalog,
        engine,
        wide,
        narrow,
    }
}

/// Every distinct answer seen for one binding, for the check.
struct Answers {
    query: SessionQuery,
    distinct: Vec<Vec<Vec<Value>>>,
}

fn binding_key(q: &SessionQuery) -> String {
    let p = |n: &str| q.params.get(n).map(|v| v.to_string()).unwrap_or_default();
    format!("{:?}|{}|{}|{}", q.template, p("ra"), p("dec"), p("radius"))
}

fn prepared(env: &Env, t: SessionTemplate) -> &Prepared {
    match t {
        SessionTemplate::Wide => &env.wide,
        SessionTemplate::Narrow => &env.narrow,
    }
}

fn window(env: &Env, spec: &RunSpec, traced: bool) -> (Window, HashMap<String, Answers>) {
    let deadline = Instant::now() + spec.window;
    let (w, mut answers) = run_clients([()], traced, |(), recorder| {
        let mut answers: HashMap<String, Answers> = HashMap::new();
        'logs: for log in 0.. {
            let queries = make_prepared_session(&SessionOptions {
                queries: LOG_QUERIES,
                hot_fraction: HOT_FRACTION,
                seed: log_seed(spec.seed, log),
            });
            env.engine.flush_cache();
            for q in queries {
                if Instant::now() >= deadline {
                    break 'logs;
                }
                let out = recorder.statement(Kind::Read, |rec, r| {
                    r.execute(rec, prepared(env, q.template), &q.params, true)
                });
                let rows: Vec<Vec<Value>> = match out {
                    Ok((_, batches)) => batches.iter().flat_map(|b| b.to_rows()).collect(),
                    Err(e) => {
                        eprintln!("{} cone search failed: {e}", q.label);
                        continue;
                    }
                };
                let entry = answers.entry(binding_key(&q)).or_insert_with(|| Answers {
                    query: q.clone(),
                    distinct: Vec::new(),
                });
                if !entry.distinct.contains(&rows) {
                    entry.distinct.push(rows);
                }
            }
        }
        answers
    });
    (w, answers.pop().expect("one client"))
}

/// Compare every answer with an oracle computed once per distinct binding
/// on a recycling-off engine over the same catalog.
fn check(env: &Env, answers: &HashMap<String, Answers>, problems: &mut Vec<String>) {
    let oracle = Engine::builder(env.catalog.clone())
        .functions(functions(&env.catalog))
        .no_recycler()
        .parallelism(1)
        .build();
    let session = oracle.session();
    let (wide, narrow) = session_templates();
    let (wide, narrow) = (
        session.prepare(&wide).expect("oracle template prepares"),
        session.prepare(&narrow).expect("oracle template prepares"),
    );
    let to_cells = |rows: &[Vec<Value>]| -> Vec<Vec<Cell>> {
        rows.iter()
            .map(|r| r.iter().map(Cell::from_value).collect())
            .collect()
    };
    for (key, a) in answers {
        let template = match a.query.template {
            SessionTemplate::Wide => &wide,
            SessionTemplate::Narrow => &narrow,
        };
        let want = match template.execute(&a.query.params) {
            Ok(h) => h.collect_batch().to_rows(),
            Err(e) => {
                problems.push(format!("oracle failed on {key}: {e}"));
                continue;
            }
        };
        for got in &a.distinct {
            if !same_multiset(to_cells(got), to_cells(&want)) {
                problems.push(format!(
                    "{key}: answer of {} rows differs from the recycling-off answer ({} rows)",
                    got.len(),
                    want.len()
                ));
            }
        }
    }
}

pub fn run(spec: &RunSpec) -> RunResult {
    let mut result = RunResult {
        facts: vec![
            ("objects", Json::Num(OBJECTS as f64)),
            ("data_seed", Json::Num(data_seed(spec.seed) as f64)),
            ("log_seed_base", Json::Num(log_seed(spec.seed, 0) as f64)),
            ("queries_per_log", Json::Num(LOG_QUERIES as f64)),
            ("hot_fraction", Json::Num(HOT_FRACTION)),
            ("clients", Json::Num(1.0)),
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
        let (w, answers) = window(env, spec, traced);
        let cache_bytes = env.engine.recycler().map_or(0, |r| r.cache_used());
        check(env, &answers, problems);
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
