//! recycler-db benchmark: one command per workload, end to end or per
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <tpch_streams|sky_log|pgwire_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets up the workload several times (reporting the median
//! set-up time), runs one untraced closed-loop window of `--seconds`,
//! checks every answer it promised to check against a recycling-off
//! engine, and prints the end-to-end metrics. `--trace 1` runs an
//! untraced window and then a traced one on a fresh set-up, and prints the
//! per-layer metrics taken from the traced run's spans plus the tracing
//! overhead. The last line of standard output is the JSON result; a copy
//! with host facts and the workload's pinned settings goes to
//! `benchmark/results/`, and a traced run's spans go next to it.

mod check;
#[path = "../../tests/support/pg_client.rs"]
mod pg;
mod pgwire_mixed;
mod report;
mod sky_log;
mod tpch_streams;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::{host_facts, median, metrics_json, percentile, rss_peak_bytes, Json, Metrics};
use trace::{latencies, Rec, Recorder};

/// Environment variables that change engine or bench defaults. The
/// benchmark pins every setting itself and refuses to run with these set.
const FORBIDDEN_ENV: [&str; 5] = [
    "RDB_DEFAULT_DOP",
    "RDB_ALLOW_OVERSUBSCRIBE",
    "RDB_SF",
    "RDB_STREAMS",
    "RDB_SKY_OBJECTS",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 11;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub seed: u64,
    pub window: Duration,
    pub traced: bool,
}

/// The result of one measured window.
pub struct Window {
    pub recs: Vec<Rec>,
    pub elapsed: Duration,
    /// Resident-memory high-water mark when the window closed.
    pub rss_peak: u64,
    /// Wall time of the cache warm-up run before the window, if any.
    pub warmup_s: f64,
}

impl Window {
    pub fn qps(&self) -> f64 {
        latencies(&self.recs).completed as f64 / self.elapsed.as_secs_f64()
    }
}

/// Seed of a workload's generated database.
pub fn data_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9).wrapping_add(42)
}

/// Run one closed-loop client thread per entry of `clients`, all timed
/// from one origin, and merge what they recorded into one window.
/// `client` drives one client with its state and recorder, and returns
/// what it saw besides its statement records.
pub fn run_clients<S: Send, T: Send>(
    clients: impl IntoIterator<Item = S>,
    traced: bool,
    client: impl Fn(S, &mut Recorder) -> T + Sync,
) -> (Window, Vec<T>) {
    let origin = Instant::now();
    let client = &client;
    let per_client: Vec<(Recorder, T, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, state)| {
                scope.spawn(move || {
                    let mut recorder = Recorder::new(origin, traced, c as u64);
                    let seen = client(state, &mut recorder);
                    (recorder, seen, origin.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let rss_peak = rss_peak_bytes();
    let elapsed = per_client
        .iter()
        .map(|(_, _, e)| *e)
        .max()
        .unwrap_or_default();
    let mut recs = Vec::new();
    let mut seen = Vec::new();
    for (r, s, _) in per_client {
        recs.extend(r.recs);
        seen.push(s);
    }
    (
        Window {
            recs,
            elapsed,
            rss_peak,
            warmup_s: 0.0,
        },
        seen,
    )
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct RunResult {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Failed answer checks and other reasons the run is not correct.
    pub problems: Vec<String>,
    /// The workload's pinned settings and seeds.
    pub facts: Vec<(&'static str, Json)>,
    /// Reasons a metric rests on fewer samples than it should.
    pub warnings: Vec<String>,
    /// The traced window's statements, written out as spans.
    pub spans: Vec<Rec>,
}

impl RunResult {
    /// Count a window's statements into the attempted/failed totals.
    fn count(&mut self, window: &Window) {
        let lat = latencies(&window.recs);
        self.attempted += lat.attempted;
        self.failed += lat.failed;
    }

    /// The end-to-end metrics of an untraced window, plus the window's
    /// recycler counts for the result file.
    fn end_to_end(&mut self, setup_s: &[f64], window: &Window, cache_bytes: u64) {
        let lat = latencies(&window.recs);
        // Only in-process executions report recycler events; over the wire
        // the server's recycler is out of the client's sight.
        let executions: Vec<&Rec> = window
            .recs
            .iter()
            .filter(|r| r.ok && r.saw_events)
            .collect();
        let mut counts = vec![
            ("reads", Json::Num(lat.reads_ms.len() as f64)),
            ("writes", Json::Num(lat.writes_ms.len() as f64)),
            ("cache_bytes", Json::Num(cache_bytes as f64)),
            ("warmup_s", Json::Num(window.warmup_s)),
        ];
        if !executions.is_empty() {
            let hits = executions.iter().filter(|r| r.reused).count();
            let stalls: u32 = executions.iter().map(|r| r.stalls).sum();
            counts.push((
                "hit_ratio",
                Json::Num(report::ratio(hits as f64, executions.len() as f64)),
            ));
            counts.push(("stalls", Json::Num(f64::from(stalls))));
        }
        self.facts.push(("window", Json::obj(counts)));
        let m = &mut self.metrics;
        m.put("setup_s", median(setup_s), "s");
        m.put("qps", window.qps(), "1/s");
        m.put("read_p50_ms", percentile(&lat.reads_ms, 0.50), "ms");
        m.put("read_p99_ms", percentile(&lat.reads_ms, 0.99), "ms");
        m.put(
            "rss_peak_mb",
            window.rss_peak as f64 / (1024.0 * 1024.0),
            "MiB",
        );
        if lat.reads_ms.len() < 1000 {
            self.warnings.push(format!(
                "only {} reads: fewer than 10 samples lie beyond p99",
                lat.reads_ms.len()
            ));
        }
    }

    /// Set up, measure one untraced window on that set-up, then set up
    /// `SETUPS - 1` more times for timing only; `setup_s` is the median of
    /// all. The window runs on the process's first set-up, so memory that
    /// a discarded set-up fails to free (a dropped `rdb_server::Server`
    /// keeps its engine, see NOTES.md) never counts towards its peak.
    /// `measure` returns the window and the recycler's cache use when it
    /// closed, and checks the window's answers into the problem list
    /// afterwards.
    pub fn untraced<E>(
        &mut self,
        setup: impl Fn() -> E,
        measure: impl FnOnce(&mut E, &mut Vec<String>) -> (Window, u64),
    ) {
        let t = Instant::now();
        let mut env = setup();
        let mut setup_s = vec![t.elapsed().as_secs_f64()];
        report::reset_rss_peak();
        let (window, cache_bytes) = measure(&mut env, &mut self.problems);
        drop(env);
        for _ in 1..SETUPS {
            let t = Instant::now();
            let env = setup();
            setup_s.push(t.elapsed().as_secs_f64());
            drop(env);
        }
        self.facts.push((
            "setup_s_each",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ));
        self.count(&window);
        self.end_to_end(&setup_s, &window, cache_bytes);
    }

    /// The per-layer metrics of a traced run: layer spans of `traced`,
    /// write latency of the untraced `plain` window, the error rate of
    /// both, and the tracing overhead between them.
    pub fn per_layer(
        &mut self,
        plain: &Window,
        traced: Window,
        cache_bytes: u64,
        server_overhead_us: f64,
    ) {
        self.count(plain);
        self.count(&traced);
        trace::layer_metrics(&traced.recs, &mut self.metrics);
        let m = &mut self.metrics;
        m.put("recycler.cache_bytes", cache_bytes as f64, "bytes");
        m.put("server.overhead_us", server_overhead_us, "us");
        m.put(
            "trace.overhead",
            report::ratio(traced.qps(), plain.qps()),
            "ratio",
        );
        let coverage = trace::coverage(&traced.recs);
        m.put("trace.coverage", coverage, "ratio");
        if coverage < 0.95 {
            self.problems.push(format!(
                "layer spans cover only {:.1}% of statement wall time",
                coverage * 100.0
            ));
        }
        m.put("warmup_s", plain.warmup_s, "s");
        let lat = latencies(&plain.recs);
        m.put("write_p50_ms", percentile(&lat.writes_ms, 0.50), "ms");
        m.put("write_p95_ms", percentile(&lat.writes_ms, 0.95), "ms");
        if !lat.writes_ms.is_empty() && lat.writes_ms.len() < 200 {
            self.warnings.push(format!(
                "only {} writes: fewer than 10 samples lie beyond p95",
                lat.writes_ms.len()
            ));
        }
        m.put(
            "error_rate",
            report::ratio(self.failed as f64, self.attempted as f64),
            "ratio",
        );
        self.spans = traced.recs;
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: rdb-benchmark --workload <tpch_streams|sky_log|pgwire_mixed> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, RunSpec) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| usage())
    };
    let workload = value("--workload");
    let seed = value("--seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = value("--seconds").parse().unwrap_or_else(|_| usage());
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage();
    }
    let traced = match value("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    (
        workload,
        RunSpec {
            seed,
            window: Duration::from_secs_f64(seconds),
            traced,
        },
    )
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn main() {
    let (workload, spec) = parse_args();
    let set: Vec<&str> = FORBIDDEN_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "refusing to run: {} set; the benchmark pins DOP, scale and sizes itself",
            set.join(", ")
        );
        std::process::exit(2);
    }
    let started = Instant::now();
    let result = match workload.as_str() {
        "tpch_streams" => tpch_streams::run(&spec),
        "sky_log" => sky_log::run(&spec),
        "pgwire_mixed" => pgwire_mixed::run(&spec),
        _ => usage(),
    };
    let correct = result.problems.is_empty() && result.failed == 0 && result.attempted > 0;
    for p in &result.problems {
        eprintln!("check failed: {p}");
    }
    for w in &result.warnings {
        eprintln!("warning: {w}");
    }
    let error_rate = report::ratio(result.failed as f64, result.attempted as f64);

    let tag = format!(
        "{workload}-seed{}-trace{}",
        spec.seed,
        u8::from(spec.traced)
    );
    let mut record = vec![
        ("workload", Json::Str(workload.clone())),
        ("seed", Json::Num(spec.seed as f64)),
        ("seconds", Json::Num(spec.window.as_secs_f64())),
        ("traced", Json::Bool(spec.traced)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("error_rate", Json::Num(error_rate)),
        ("run_s", Json::Num(started.elapsed().as_secs_f64())),
        (
            "problems",
            Json::Arr(result.problems.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "warnings",
            Json::Arr(result.warnings.iter().cloned().map(Json::Str).collect()),
        ),
    ];
    record.extend(host_facts());
    record.push(("settings", Json::obj(result.facts.iter().cloned())));
    record.push(("metrics", metrics_json(&result.metrics)));
    let dir = results_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{tag}.json")),
            Json::obj(record).render() + "\n",
        )?;
        if spec.traced {
            trace::write_spans(&dir.join(format!("{tag}-spans.jsonl")), &result.spans)?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("could not write results to {}: {e}", dir.display());
    }

    for m in &result.metrics.0 {
        eprintln!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "{workload}: attempted {} failed {} error_rate {error_rate} correct {correct}",
        result.attempted, result.failed
    );
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(result.attempted.max(1) as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", metrics_json(&result.metrics)),
    ]);
    println!("{}", line.render());
}
