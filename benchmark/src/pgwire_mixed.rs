//! `pgwire_mixed`: dashboard traffic against a real `rdb_server`.
//!
//! TPC-H at SF 0.05 served durably (`FsyncPolicy::Always`) by an
//! `rdb_server`; two connections in a closed loop send literal SQL over
//! the simple-query protocol, so every statement takes the full
//! `rdb_sql` parse, bind and normalize path. Reads are Q1, Q6 and Q14
//! with literals from a small seeded pool (mostly cache hits) and orders
//! point lookups on unique keys (misses). One statement in ten writes:
//! each connection alternates an INSERT of lineitem rows with a DELETE
//! of every row the workload inserted, so the table keeps its size and
//! the recycler repairs or invalidates next to its lookups.
//!
//! The traced run replays the same statement streams in-process, at the
//! same concurrency, through `rdb_sql::compile`, `Session::prepare`,
//! `Prepared::execute` and the drain, or `Session::append` and
//! `Session::delete`, on an engine configured like the server's.

use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rdb_engine::{DurabilityConfig, Engine, EngineBuilder, FsyncPolicy, Session};
use rdb_expr::{Expr, Params};
use rdb_server::{Server, ServerBuilder};
use rdb_sql::{BoundStatement, CatalogWithFunctions};
use rdb_storage::Catalog;
use rdb_tpch::gen::{SHIP_INSTRUCTS, SHIP_MODES};
use rdb_tpch::{generate, sql_template, TpchConfig};
use rdb_vector::{date_from_ymd, format_date, Value};

use crate::check::{rows_of_batch, rows_of_text, same_multiset, Row};
use crate::pg::PgClient;
use crate::report::{percentile, Json};
use crate::tpch_streams::recycler_config;
use crate::trace::{latencies, Kind, Rec, Recorder};
use crate::{data_seed, run_clients, RunResult, RunSpec, Window};

const SCALE: f64 = 0.05;
const CLIENTS: usize = 2;
/// Every tenth statement of a client writes (the 10% of the dashboard
/// traffic); a fixed schedule instead of a coin flip keeps the write
/// count, which dominates client time, equal between runs.
const WRITE_EVERY: u64 = 10;
/// The dashboard's read panels: Q1, Q6 and Q14 with pooled literals, and
/// an orders point lookup. Each read picks one of the four panels with
/// equal chance, so three reads in four are pooled.
const POOLED_PATTERNS: [usize; 3] = [1, 6, 14];
const READ_PANELS: usize = POOLED_PATTERNS.len() + 1;
/// Literal variants per pooled template: the largest pool at which cache
/// hits are still the majority of all reads (measured in NOTES.md), so
/// the pooled reads mostly hit and the typical read is a cached answer.
const BINDINGS_PER_TEMPLATE: usize = 2;
/// Rows per INSERT: one new order's lineitems, at the mean of TPC-H's
/// one to seven lineitems per order.
const ROWS_PER_INSERT: usize = 4;
/// Orderkeys at or above this mark are rows the workload inserted.
const INSERT_MARK: i64 = 100_000_000;
/// Point lookups walk the orderkeys with this stride (a prime that does
/// not divide the order count), so no key repeats within a run.
const LOOKUP_STRIDE: u64 = 7919;
const DOP: usize = 1;
const BUDGET_BYTES: u64 = 256 << 20;
const SPEC_MIN_PROGRESS: f64 = 0.05;
const SERVER_WORKERS: usize = 4;
const MAX_CONCURRENT: usize = 12;
const ADMISSION_QUEUE: usize = 256;
/// Per-statement client read timeout: a dead server worker shows up as
/// failed statements, not as a stuck run.
const STATEMENT_TIMEOUT: Duration = Duration::from_secs(5);

fn durability() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::Always,
        segment_bytes: 8 << 20,
        checkpoint_threshold_bytes: 4 << 20,
        auto_checkpoint: true,
        checkpoint_poll: Duration::from_millis(250),
        warm_top_k: 16,
    }
}

fn client_seed(seed: u64, client: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(client as u64 + 1)
}

/// A SQL literal for a parameter value.
fn literal(v: &Value) -> String {
    match v {
        Value::Date(d) => format!("DATE '{}'", format_date(*d)),
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        other => other.to_string(),
    }
}

/// Substitute `$name` placeholders with literals, longest name first.
fn with_literals(sql: &str, params: &Params) -> String {
    let mut names: Vec<&str> = params.names().collect();
    names.sort_by_key(|n| std::cmp::Reverse(n.len()));
    let mut text = sql.to_string();
    for n in names {
        let v = params.get(n).expect("name from the same params");
        text = text.replace(&format!("${n}"), &literal(v));
    }
    text
}

/// One pooled read: its SQL text and the literals it was made from.
struct Pooled {
    label: String,
    sql: String,
    params: Params,
}

/// The pooled reads: `BINDINGS_PER_TEMPLATE` literal variants of each of
/// Q1, Q6 and Q14, drawn with the templates' QGEN generators.
fn read_pool(seed: u64) -> Vec<Pooled> {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
    let mut pool = Vec::new();
    for n in POOLED_PATTERNS {
        let (sql, gen) = sql_template(n).expect("pooled pattern has a SQL template");
        for _ in 0..BINDINGS_PER_TEMPLATE {
            let params = gen(&mut rng);
            pool.push(Pooled {
                label: format!("Q{n}"),
                sql: with_literals(sql, &params),
                params,
            });
        }
    }
    pool
}

fn delete_sql() -> String {
    format!("DELETE FROM lineitem WHERE l_orderkey >= {INSERT_MARK}")
}

/// One lineitem row as a SQL tuple; the columns a query filters on are
/// given, the rest drawn from `rng`.
fn lineitem_row(
    rng: &mut SmallRng,
    orderkey: i64,
    line: usize,
    partkey: i64,
    qty: f64,
    discount: f64,
    shipdate: i32,
) -> String {
    let price = qty * (900.0 + (partkey % 1000) as f64 / 10.0) / 10.0;
    let values = [
        Value::Int(orderkey),
        Value::Int(partkey),
        Value::Int(1 + partkey % 500),
        Value::Int(line as i64),
        Value::Float(qty),
        Value::Float(price),
        Value::Float(discount),
        Value::Float(rng.gen_range(0..=8) as f64 / 100.0),
        Value::str("N"),
        Value::str("O"),
        Value::Date(shipdate),
        Value::Date(shipdate + 30),
        Value::Date(shipdate + rng.gen_range(1..=30)),
        Value::str(SHIP_INSTRUCTS[rng.gen_range(0..SHIP_INSTRUCTS.len())]),
        Value::str(SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())]),
    ];
    let cells: Vec<String> = values.iter().map(literal).collect();
    format!("({})", cells.join(", "))
}

/// One statement of a client's stream.
enum Stmt {
    Pooled(usize),
    Lookup(i64),
    Insert(String),
    Delete,
}

/// A client's deterministic statement stream; the wire run and the
/// in-process replay draw the same sequence.
struct StmtGen {
    rng: SmallRng,
    client: usize,
    pool_len: usize,
    n_orders: u64,
    n_parts: i64,
    lookups: u64,
    inserts: i64,
    issued: u64,
    writes: u64,
}

impl StmtGen {
    fn new(seed: u64, client: usize, pool_len: usize, catalog: &Catalog) -> StmtGen {
        let rows = |t: &str| catalog.get(t).map_or(1, |t| t.rows() as u64).max(1);
        StmtGen {
            rng: SmallRng::seed_from_u64(client_seed(seed, client)),
            client,
            pool_len,
            n_orders: rows("orders"),
            n_parts: rows("part") as i64,
            lookups: seed.wrapping_mul(97),
            inserts: 0,
            issued: 0,
            writes: 0,
        }
    }

    fn next(&mut self) -> Stmt {
        self.issued += 1;
        if self.issued.is_multiple_of(WRITE_EVERY) {
            self.writes += 1;
            return if self.writes % 2 == 1 {
                Stmt::Insert(self.insert_sql())
            } else {
                Stmt::Delete
            };
        }
        if self.rng.gen_range(0..READ_PANELS) < POOLED_PATTERNS.len() {
            Stmt::Pooled(self.rng.gen_range(0..self.pool_len))
        } else {
            let i = self.lookups * CLIENTS as u64 + self.client as u64;
            self.lookups += 1;
            Stmt::Lookup(1 + (i.wrapping_mul(LOOKUP_STRIDE) % self.n_orders) as i64)
        }
    }

    /// A fresh orderkey above the mark, in this client's own range.
    fn next_orderkey(&mut self) -> i64 {
        self.inserts += 1;
        INSERT_MARK + self.client as i64 * 10_000_000 + self.inserts
    }

    fn insert_sql(&mut self) -> String {
        let orderkey = self.next_orderkey();
        let rows: Vec<String> = (1..=ROWS_PER_INSERT)
            .map(|line| {
                let rng = &mut self.rng;
                let partkey = rng.gen_range(1..=self.n_parts);
                let qty = rng.gen_range(1..=50) as f64;
                let discount = rng.gen_range(0..=10) as f64 / 100.0;
                let shipdate = date_from_ymd(1993, 1, 1) + rng.gen_range(0..1800);
                lineitem_row(rng, orderkey, line, partkey, qty, discount, shipdate)
            })
            .collect();
        format!("INSERT INTO lineitem VALUES {}", rows.join(", "))
    }

    /// An INSERT with one row inside the filter of every pooled read, so
    /// that every pooled answer changes with it.
    fn probe_insert_sql(&mut self, pool: &[Pooled]) -> String {
        let orderkey = self.next_orderkey();
        let date = |p: &Params, name: &str| match p.get(name) {
            Some(Value::Date(d)) => Some(*d),
            _ => None,
        };
        let rows: Vec<String> = pool
            .iter()
            .enumerate()
            .map(|(i, read)| {
                let p = &read.params;
                let shipdate = date(p, "date_lo")
                    .or_else(|| date(p, "shipdate").map(|d| d - 30))
                    .expect("pooled reads filter on a ship date");
                let discount = match p.get("disc_lo") {
                    Some(Value::Float(d)) => *d,
                    _ => 0.05,
                };
                let partkey = self.rng.gen_range(1..=self.n_parts);
                lineitem_row(
                    &mut self.rng,
                    orderkey,
                    i + 1,
                    partkey,
                    1.0,
                    discount,
                    shipdate,
                )
            })
            .collect();
        format!("INSERT INTO lineitem VALUES {}", rows.join(", "))
    }
}

fn lookup_sql(key: i64) -> String {
    format!(
        "SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, \
         o_orderpriority FROM orders WHERE o_orderkey = {key}"
    )
}

/// What a statement returned: rows when asked for, and the row count.
#[derive(Default)]
struct Answer {
    rows: Vec<Row>,
    affected: u64,
}

/// A connection the closed loop drives: a pgwire client, or an
/// in-process session.
trait Conn: Send {
    fn run(
        &mut self,
        sql: &str,
        want_rows: bool,
        rec: &mut Rec,
        recorder: &Recorder,
    ) -> Result<Answer, String>;
}

struct WireConn {
    addr: std::net::SocketAddr,
    client: Option<PgClient>,
}

/// Connect with the statement timeout on every read.
fn connect(addr: std::net::SocketAddr) -> std::io::Result<PgClient> {
    let client = PgClient::connect(addr)?;
    client.set_read_timeout(Some(STATEMENT_TIMEOUT));
    Ok(client)
}

impl WireConn {
    fn connect(addr: std::net::SocketAddr) -> WireConn {
        WireConn {
            addr,
            client: Some(connect(addr).expect("connect to server")),
        }
    }
}

impl Conn for WireConn {
    fn run(
        &mut self,
        sql: &str,
        want_rows: bool,
        _rec: &mut Rec,
        _recorder: &Recorder,
    ) -> Result<Answer, String> {
        let client = match &mut self.client {
            Some(c) => c,
            None => self
                .client
                .insert(connect(self.addr).map_err(|e| format!("reconnect: {e}"))?),
        };
        let reply = match client.query(sql) {
            Ok(r) => r,
            Err(e) => {
                // A timed-out or broken connection is out of step with
                // the server; start the next statement on a fresh one.
                self.client = None;
                return Err(format!("wire: {e}"));
            }
        };
        if let Some(e) = reply.errors().first() {
            return Err(format!("{}: {}", e.sqlstate(), e.error_message()));
        }
        let affected = reply
            .command_tags()
            .last()
            .and_then(|t| t.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or(0);
        Ok(Answer {
            rows: if want_rows {
                rows_of_text(&reply.rows())
            } else {
                Vec::new()
            },
            affected,
        })
    }
}

struct LocalConn {
    session: Session,
}

impl Conn for LocalConn {
    fn run(
        &mut self,
        sql: &str,
        want_rows: bool,
        rec: &mut Rec,
        recorder: &Recorder,
    ) -> Result<Answer, String> {
        let engine = self.session.engine();
        let bound = recorder.step(rec, "sql.compile", || {
            let provider = CatalogWithFunctions {
                catalog: engine.catalog(),
                functions: engine.functions(),
            };
            rdb_sql::compile(sql, &provider)
        });
        match bound.map_err(|e| e.to_string())? {
            BoundStatement::Query(plan) => {
                let prepared = recorder
                    .step(rec, "plan.prepare", || self.session.prepare(&plan))
                    .map_err(|e| e.to_string())?;
                let (schema, batches) =
                    recorder.execute(rec, &prepared, &Params::none(), want_rows)?;
                let rows = if want_rows {
                    rows_of_batch(&rdb_vector::Batch::concat_or_empty(&schema, &batches))
                } else {
                    Vec::new()
                };
                Ok(Answer { rows, affected: 0 })
            }
            BoundStatement::Insert { table, rows } => {
                let values: Vec<Vec<Value>> = rows
                    .iter()
                    .map(|r| {
                        r.iter()
                            .map(|cell| match cell {
                                Expr::Lit(v) => Ok(v.clone()),
                                other => Err(format!("non-literal INSERT cell {other}")),
                            })
                            .collect()
                    })
                    .collect::<Result<_, _>>()?;
                let out = recorder
                    .step(rec, "storage.append", || {
                        self.session.append(&table, &values)
                    })
                    .map_err(|e| e.to_string())?;
                rec.absorb_write(&out);
                Ok(Answer {
                    rows: Vec::new(),
                    affected: out.rows_affected as u64,
                })
            }
            BoundStatement::Delete { table, predicate } => {
                let out = recorder
                    .step(rec, "storage.delete", || {
                        self.session.delete(&table, &predicate)
                    })
                    .map_err(|e| e.to_string())?;
                rec.absorb_write(&out);
                Ok(Answer {
                    rows: Vec::new(),
                    affected: out.rows_affected as u64,
                })
            }
        }
    }
}

/// What one client thread saw, for the checks after the window.
#[derive(Default)]
struct Seen {
    lookups: Vec<(i64, Vec<Row>)>,
    inserted: u64,
    deleted: u64,
}

fn client_loop<C: Conn>(
    conn: &mut C,
    mut gen: StmtGen,
    pool: &[Pooled],
    recorder: &mut Recorder,
    deadline: Instant,
) -> Seen {
    let mut seen = Seen::default();
    while Instant::now() < deadline {
        let stmt = gen.next();
        let (sql, kind): (Cow<str>, Kind) = match &stmt {
            Stmt::Pooled(i) => (Cow::Borrowed(&pool[*i].sql), Kind::Read),
            Stmt::Lookup(k) => (Cow::Owned(lookup_sql(*k)), Kind::Read),
            Stmt::Insert(text) => (Cow::Borrowed(text), Kind::Write),
            Stmt::Delete => (Cow::Owned(delete_sql()), Kind::Write),
        };
        let want_rows = matches!(stmt, Stmt::Lookup(_));
        let out = recorder.statement(kind, |rec, r| {
            rec.pooled = matches!(stmt, Stmt::Pooled(_));
            let answer = conn.run(&sql, want_rows, rec, r)?;
            if matches!(stmt, Stmt::Insert(_)) && answer.affected != ROWS_PER_INSERT as u64 {
                return Err(format!("INSERT affected {} rows", answer.affected));
            }
            Ok(answer)
        });
        match (&stmt, out) {
            (Stmt::Insert(_), Ok(a)) => seen.inserted += a.affected,
            (Stmt::Delete, Ok(a)) => seen.deleted += a.affected,
            (Stmt::Lookup(k), Ok(a)) => seen.lookups.push((*k, a.rows)),
            (Stmt::Pooled(_), Ok(_)) => {}
            (_, Err(e)) => eprintln!("statement failed: {e}"),
        }
    }
    seen
}

/// Run both clients until the deadline.
fn window<C: Conn>(
    conns: &mut [C],
    catalog: &Catalog,
    pool: &[Pooled],
    spec: &RunSpec,
    traced: bool,
) -> (Window, Vec<Seen>) {
    let deadline = Instant::now() + spec.window;
    run_clients(
        conns.iter_mut().enumerate(),
        traced,
        |(c, conn), recorder| {
            let gen = StmtGen::new(spec.seed, c, pool.len(), catalog);
            client_loop(conn, gen, pool, recorder, deadline)
        },
    )
}

/// After the window, through `conn` and compared with a recycling-off
/// engine over the same catalog (whose tables the server writes to):
/// every pooled read as the window left the table; again after an INSERT
/// that changes every pooled answer, so a cached result that missed a
/// write fails; and again after a final DELETE of every row the workload
/// inserted, which must equal the rows it inserted. Then every point
/// lookup answer of the window.
fn check<C: Conn>(
    conn: &mut C,
    catalog: &Arc<Catalog>,
    pool: &[Pooled],
    seed: u64,
    seen: &[Seen],
    problems: &mut Vec<String>,
) {
    let recorder = Recorder::new(Instant::now(), false, 99);
    let run = |conn: &mut C, sql: &str, want_rows| {
        conn.run(sql, want_rows, &mut Rec::default(), &recorder)
    };
    let oracle = Engine::builder(catalog.clone())
        .no_recycler()
        .parallelism(1)
        .build();
    let session = oracle.session();
    let want = |sql: &str| -> Result<Vec<Row>, String> {
        let handle = session
            .sql(sql, &Params::none())
            .map_err(|e| e.to_string())?
            .into_rows()
            .ok_or("not a query")?;
        Ok(rows_of_batch(&handle.collect_batch()))
    };
    let reissue = |conn: &mut C, stage: &str, problems: &mut Vec<String>| {
        for read in pool {
            let got = run(conn, &read.sql, true);
            match (got, want(&read.sql)) {
                (Ok(got), Ok(want)) => {
                    if !same_multiset(got.rows, want) {
                        problems.push(format!(
                            "{} {stage} differs from the recycling-off answer: {}",
                            read.label, read.sql
                        ));
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    problems.push(format!("{} {stage} failed: {e}", read.label))
                }
            }
        }
    };
    let mut inserted: u64 = seen.iter().map(|s| s.inserted).sum();
    let mut deleted: u64 = seen.iter().map(|s| s.deleted).sum();
    reissue(conn, "after the window", problems);
    let mut probe = StmtGen::new(seed, CLIENTS, pool.len(), catalog);
    match run(conn, &probe.probe_insert_sql(pool), false) {
        Ok(a) => inserted += a.affected,
        Err(e) => problems.push(format!("probe insert failed: {e}")),
    }
    reissue(conn, "after the probe insert", problems);
    match run(conn, &delete_sql(), false) {
        Ok(a) => deleted += a.affected,
        Err(e) => problems.push(format!("final delete failed: {e}")),
    }
    if inserted != deleted {
        problems.push(format!("{inserted} rows inserted but {deleted} deleted"));
    }
    reissue(conn, "after the final delete", problems);
    for (key, rows) in seen.iter().flat_map(|s| &s.lookups) {
        match want(&lookup_sql(*key)) {
            Ok(want) => {
                if !same_multiset(rows.clone(), want) {
                    problems.push(format!("lookup of order {key} differs"));
                }
            }
            Err(e) => problems.push(format!("oracle lookup failed: {e}")),
        }
    }
}

/// A fresh data directory inside the benchmark's own tree.
fn data_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data directory");
    dir
}

struct WireEnv {
    catalog: Arc<Catalog>,
    server: Server,
    conns: Vec<WireConn>,
    dir: PathBuf,
}

impl Drop for WireEnv {
    fn drop(&mut self) {
        for c in self.conns.drain(..) {
            if let Some(client) = c.client {
                client.terminate();
            }
        }
        self.server.shutdown(Duration::from_secs(5));
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn setup_wire(seed: u64) -> WireEnv {
    let catalog = generate(&TpchConfig {
        scale: SCALE,
        seed: data_seed(seed),
    });
    let dir = data_dir("wire");
    let server = ServerBuilder::new(catalog.clone())
        .recycler(recycler_config(BUDGET_BYTES, SPEC_MIN_PROGRESS))
        .parallelism(DOP)
        .workers(SERVER_WORKERS)
        .max_concurrent_queries(MAX_CONCURRENT)
        .admission_queue_limit(ADMISSION_QUEUE)
        .data_dir(&dir)
        .durability(durability())
        .serve()
        .expect("start server");
    let conns = (0..CLIENTS)
        .map(|_| WireConn::connect(server.local_addr()))
        .collect();
    WireEnv {
        catalog,
        server,
        conns,
        dir,
    }
}

struct LocalEnv {
    catalog: Arc<Catalog>,
    engine: Arc<Engine>,
    conns: Vec<LocalConn>,
    dir: PathBuf,
}

impl Drop for LocalEnv {
    fn drop(&mut self) {
        self.conns.clear();
        self.engine.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn setup_local(seed: u64) -> LocalEnv {
    let catalog = generate(&TpchConfig {
        scale: SCALE,
        seed: data_seed(seed),
    });
    let dir = data_dir("local");
    let engine = EngineBuilder::new(catalog.clone())
        .recycler(recycler_config(BUDGET_BYTES, SPEC_MIN_PROGRESS))
        .parallelism(DOP)
        .max_concurrent_queries(MAX_CONCURRENT)
        .admission_queue_limit(ADMISSION_QUEUE)
        .fusion(true)
        .data_dir(&dir)
        .durability(durability())
        .try_build()
        .expect("build durable engine");
    let conns = (0..CLIENTS)
        .map(|_| LocalConn {
            session: engine.session(),
        })
        .collect();
    LocalEnv {
        catalog,
        engine,
        conns,
        dir,
    }
}

pub fn run(spec: &RunSpec) -> RunResult {
    let pool = read_pool(spec.seed);
    let mut result = RunResult {
        facts: vec![
            ("scale", Json::Num(SCALE)),
            ("data_seed", Json::Num(data_seed(spec.seed) as f64)),
            (
                "client_seed_base",
                Json::Num(client_seed(spec.seed, 0) as f64),
            ),
            ("clients", Json::Num(CLIENTS as f64)),
            ("protocol", Json::Str("simple query, literal SQL".into())),
            ("write_every", Json::Num(WRITE_EVERY as f64)),
            ("read_panels", Json::Num(READ_PANELS as f64)),
            ("pooled_reads", Json::Num(pool.len() as f64)),
            ("rows_per_insert", Json::Num(ROWS_PER_INSERT as f64)),
            ("dop", Json::Num(DOP as f64)),
            ("recycler_mode", Json::Str("speculative".into())),
            ("cache_budget_bytes", Json::Num(BUDGET_BYTES as f64)),
            ("spec_min_progress", Json::Num(SPEC_MIN_PROGRESS)),
            ("fsync", Json::Str("always".into())),
            ("server_workers", Json::Num(SERVER_WORKERS as f64)),
            ("max_concurrent_queries", Json::Num(MAX_CONCURRENT as f64)),
            ("admission_queue_limit", Json::Num(ADMISSION_QUEUE as f64)),
            (
                "statement_timeout_s",
                Json::Num(STATEMENT_TIMEOUT.as_secs_f64()),
            ),
        ],
        ..RunResult::default()
    };
    let wire_window = |env: &mut WireEnv, problems: &mut Vec<String>| {
        let (w, seen) = window(&mut env.conns, &env.catalog, &pool, spec, false);
        let cache_bytes = env.server.engine().recycler().map_or(0, |r| r.cache_used());
        check(
            &mut env.conns[0],
            &env.catalog,
            &pool,
            spec.seed,
            &seen,
            problems,
        );
        (w, cache_bytes)
    };
    if !spec.traced {
        result.untraced(|| setup_wire(spec.seed), wire_window);
        return result;
    }
    let (plain, _) = wire_window(&mut setup_wire(spec.seed), &mut result.problems);
    let mut env = setup_local(spec.seed);
    let (traced, seen) = window(&mut env.conns, &env.catalog, &pool, spec, true);
    let cache_bytes = env.engine.recycler().map_or(0, |r| r.cache_used());
    check(
        &mut env.conns[0],
        &env.catalog,
        &pool,
        spec.seed,
        &seen,
        &mut result.problems,
    );
    let read_p50_us = |w: &Window| percentile(&latencies(&w.recs).reads_ms, 0.5) * 1e3;
    let server_overhead_us = read_p50_us(&plain) - read_p50_us(&traced);
    result.per_layer(&plain, traced, cache_bytes, server_overhead_us);
    result
}
