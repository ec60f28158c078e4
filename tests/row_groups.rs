//! Row-group storage and zone-map pruning.
//!
//! Tables and cached results are lists of morsel-sized, `Arc`-shared row
//! groups (`rdb_storage::group`). This suite holds that layout to its
//! contract:
//!
//! * a seeded model test drives random appends, deletes (tail, middle,
//!   scattered, all rows, no rows) and replaces against a flat
//!   `Vec<Vec<Value>>` reference, and replays the logged commits through
//!   `apply_logged` into a replica, checking contents, the
//!   full-groups-except-the-last shape and the captured delete rows after
//!   every step;
//! * `Arc::ptr_eq` pins that a tail append or tail delete shares every
//!   group before the one it touches;
//! * zone-map pruning (fused pipelines only) must be invisible: the same
//!   rows in the same order as the unfused, unpruned executor, and
//!   byte-identical cache entries, at DOP 1, 2 and 4 — over sorted keys,
//!   NULL and all-NULL groups, Int columns against Float literals, and
//!   `IN` lists — with no parallel gather ever coming up short.

use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use recycler_db::engine::Engine;
use recycler_db::expr::{AggFunc, Expr};
use recycler_db::plan::{scan, Plan, SortKeyExpr};
use recycler_db::recycler::RecyclerConfig;
use recycler_db::storage::{
    Catalog, CommitHook, CommitRecord, StorageError, Table, TableBuilder, VersionedTable,
};
use recycler_db::vector::{DataType, Schema, Value, BATCH_CAPACITY};

// ---- model test ------------------------------------------------------------

fn model_schema() -> Schema {
    Schema::from_pairs([
        ("id", DataType::Int),
        ("d", DataType::Date),
        ("s", DataType::Str),
        ("f", DataType::Float),
    ])
}

fn random_row(r: &mut SmallRng, id: i64) -> Vec<Value> {
    let d = Value::Date(r.gen_range(8000..9000));
    let s = Value::str(format!("s{}", r.gen_range(0..50)));
    let f = Value::Float(r.gen_range(-1.0..1.0));
    let mut row = vec![Value::Int(id), d, s, f];
    for v in &mut row[1..] {
        if r.gen_bool(0.1) {
            *v = Value::Null;
        }
    }
    row
}

fn table_of(rows: &[Vec<Value>]) -> Arc<Table> {
    let mut b = TableBuilder::new("m", model_schema(), rows.len());
    for row in rows {
        b.push_row(row.clone());
    }
    b.finish()
}

#[derive(Default)]
struct Log(Mutex<Vec<CommitRecord>>);

impl CommitHook for Log {
    fn before_commit(&self, record: &CommitRecord) -> Result<(), StorageError> {
        self.0.lock().unwrap().push(record.clone());
        Ok(())
    }
}

/// Contents equal the model and every group but the last is full.
fn check_shape(t: &Table, model: &[Vec<Value>], what: &str) {
    assert_eq!(
        t.to_rows(),
        model,
        "{what}: contents diverge from the model"
    );
    let groups = t.groups().groups();
    assert_eq!(groups.len(), model.len().div_ceil(BATCH_CAPACITY), "{what}");
    for (i, g) in groups.iter().enumerate() {
        if i + 1 < groups.len() {
            assert_eq!(g.rows(), BATCH_CAPACITY, "{what}: group {i} not full");
        } else {
            assert!(g.rows() > 0, "{what}: empty last group");
        }
    }
}

#[test]
fn random_commits_match_a_flat_model_and_replay_exactly() {
    for seed in 0..4u64 {
        let mut r = SmallRng::seed_from_u64(seed);
        let mut next_id = 0i64;
        // Start empty half the time, so appends to an empty table occur.
        let initial: Vec<Vec<Value>> = (0..if seed % 2 == 0 { 0 } else { 2500 })
            .map(|_| {
                next_id += 1;
                random_row(&mut r, next_id)
            })
            .collect();
        let mut model = initial.clone();
        let vt = VersionedTable::new(table_of(&initial));
        let log = Arc::new(Log::default());
        vt.set_commit_hook(log.clone());
        for step in 0..60 {
            let what = format!("seed {seed} step {step}");
            let n = model.len();
            match r.gen_range(0..10) {
                0..=3 => {
                    let k = *[1, 4, 7, 1024, 1500].get(r.gen_range(0..5)).unwrap();
                    let rows: Vec<Vec<Value>> = (0..k)
                        .map(|_| {
                            next_id += 1;
                            random_row(&mut r, next_id)
                        })
                        .collect();
                    vt.append(&rows).unwrap();
                    model.extend(rows);
                }
                4..=8 => {
                    let positions: Vec<u64> = match r.gen_range(0..5) {
                        // Tail.
                        0 => (n.saturating_sub(r.gen_range(1..10))..n)
                            .map(|p| p as u64)
                            .collect(),
                        // A middle run.
                        1 if n > 0 => {
                            let a = r.gen_range(0..n);
                            let b = (a + r.gen_range(1..1500)).min(n);
                            (a..b).map(|p| p as u64).collect()
                        }
                        // Scattered.
                        2 => (0..n as u64).filter(|_| r.gen_bool(0.01)).collect(),
                        // Everything.
                        3 if r.gen_bool(0.3) => (0..n as u64).collect(),
                        // Nothing.
                        _ => Vec::new(),
                    };
                    let epoch = vt.epoch();
                    let (captured, snap) =
                        vt.delete_where_capturing(|_| positions.clone()).unwrap();
                    let expect: Vec<Vec<Value>> = positions
                        .iter()
                        .map(|&p| model[p as usize].clone())
                        .collect();
                    assert_eq!(captured, expect, "{what}: captured rows");
                    if positions.is_empty() {
                        assert_eq!(snap.epoch(), epoch, "{what}: no-op delete spends no epoch");
                    }
                    for &p in positions.iter().rev() {
                        model.remove(p as usize);
                    }
                }
                _ => {
                    let rows: Vec<Vec<Value>> = (0..r.gen_range(0..3000))
                        .map(|_| {
                            next_id += 1;
                            random_row(&mut r, next_id)
                        })
                        .collect();
                    vt.replace(&table_of(&rows)).unwrap();
                    model = rows;
                }
            }
            check_shape(&vt.snapshot(), &model, &what);
        }
        // Replaying the log from the initial contents rebuilds the same
        // table through the same group operations.
        let replica = VersionedTable::new(table_of(&initial));
        for rec in log.0.lock().unwrap().iter() {
            assert!(replica.apply_logged(&rec.delta, rec.epoch).unwrap());
        }
        assert_eq!(replica.epoch(), vt.epoch());
        check_shape(&replica.snapshot(), &model, &format!("seed {seed} replay"));
    }
}

// ---- O(delta) sharing --------------------------------------------------------

fn ints(n: i64) -> Arc<Table> {
    let mut b = TableBuilder::new("t", Schema::from_pairs([("k", DataType::Int)]), n as usize);
    for i in 0..n {
        b.push_row(vec![Value::Int(i)]);
    }
    b.finish()
}

#[test]
fn tail_commits_share_every_untouched_group() {
    for rows in [3000i64, 2048] {
        let vt = VersionedTable::new(ints(rows));
        let before = vt.snapshot();
        let after = vt.append(&vec![vec![Value::Int(-1)]; 4]).unwrap();
        let kept = before.groups().len() - usize::from(rows % 1024 != 0);
        for i in 0..kept {
            assert!(
                Arc::ptr_eq(before.groups().group(i), after.groups().group(i)),
                "{rows} rows: append rebuilt full group {i}"
            );
        }
        // Tail delete of the four appended rows: only their group moves.
        let n = after.rows() as u64;
        let (_, deleted) = vt.delete_where_capturing(|_| (n - 4..n).collect()).unwrap();
        let first_touched = (n as usize - 4) / BATCH_CAPACITY;
        for i in 0..first_touched {
            assert!(
                Arc::ptr_eq(after.groups().group(i), deleted.groups().group(i)),
                "delete rebuilt group {i}"
            );
        }
        assert_eq!(deleted.to_rows(), before.to_rows());
    }
}

// ---- pruning parity ----------------------------------------------------------

fn allow_oversubscribe() {
    std::env::set_var("RDB_ALLOW_OVERSUBSCRIBE", "1");
}

/// 10 groups: a sorted key, a nullable int with groups 3 and 7 all NULL,
/// a date rising with the key, and an unzoned float.
fn pruning_catalog() -> Arc<Catalog> {
    let schema = Schema::from_pairs([
        ("k", DataType::Int),
        ("n", DataType::Int),
        ("d", DataType::Date),
        ("f", DataType::Float),
    ]);
    let rows = 10 * BATCH_CAPACITY as i64 - 300;
    let mut r = SmallRng::seed_from_u64(17);
    let mut tb = TableBuilder::new("t", schema, rows as usize);
    for i in 0..rows {
        let group = i / BATCH_CAPACITY as i64;
        let n = if group == 3 || group == 7 || r.gen_bool(0.1) {
            Value::Null
        } else {
            Value::Int(i / 7)
        };
        tb.push_row(vec![
            Value::Int(i),
            n,
            Value::Date(9000 + (i / 10) as i32),
            Value::Float(r.gen_range(0.0..100.0)),
        ]);
    }
    let mut cat = Catalog::new();
    cat.register(tb.finish()).unwrap();
    Arc::new(cat)
}

fn predicates() -> Vec<(&'static str, Expr)> {
    let k = || Expr::name("k");
    let n = || Expr::name("n");
    let d = || Expr::name("d");
    vec![
        (
            "range",
            k().ge(Expr::lit(3000)).and(k().lt(Expr::lit(4100))),
        ),
        ("point", k().eq(Expr::lit(5123))),
        (
            "bounds on group edges",
            k().ge(Expr::lit(1023)).and(k().le(Expr::lit(2048))),
        ),
        (
            "strict bounds on group edges",
            k().gt(Expr::lit(1023)).and(k().lt(Expr::lit(3072))),
        ),
        ("int col > float lit", k().gt(Expr::lit(4000.5))),
        ("int col < float lit", k().lt(Expr::lit(2048.0))),
        ("int col = float lit", k().eq(Expr::lit(6000.0))),
        (
            "in list",
            k().in_list([Value::Int(5), Value::Int(9000), Value::Int(9999)]),
        ),
        ("in float list", k().in_list([Value::Float(3.0)])),
        (
            "eq and in",
            k().eq(Expr::lit(20.0)).and(k().in_list([Value::Int(20)])),
        ),
        ("nullable range", n().gt(Expr::lit(500))),
        ("not equal over nulls", n().ne(Expr::lit(3))),
        ("is null", n().is_null()),
        (
            "date window",
            d().ge(Expr::lit(Value::Date(9300)))
                .and(d().lt(Expr::lit(Value::Date(9450)))),
        ),
        (
            "opaque plus range",
            k().lt(Expr::lit(10))
                .or(k().gt(Expr::lit(9500)))
                .and(k().gt(Expr::lit(1000))),
        ),
        ("float only", Expr::name("f").lt(Expr::lit(1.0))),
        ("empty", k().gt(Expr::lit(99_999))),
    ]
}

fn plans(pred: &Expr) -> Vec<(&'static str, Plan)> {
    let base = || scan("t", &["k", "n", "d", "f"]).select(pred.clone());
    vec![
        ("select", base()),
        (
            "project",
            base().project(vec![(Expr::name("k").add(Expr::lit(1)), "k1")]),
        ),
        (
            "aggregate",
            base().aggregate(
                vec![],
                vec![
                    (AggFunc::CountStar, "c"),
                    (AggFunc::Sum(Expr::name("k")), "s"),
                ],
            ),
        ),
        (
            "top-n",
            base().top_n(vec![SortKeyExpr::desc(Expr::name("f"))], 7),
        ),
    ]
}

/// Rows of `plan`, drained through the handle so a gather shortfall (a
/// recorded execution error) fails the test instead of truncating.
fn run(engine: &Arc<Engine>, plan: &Plan, label: &str) -> Vec<Vec<Value>> {
    let mut handle = engine.session().query(plan).unwrap();
    let mut rows = Vec::new();
    for batch in handle.by_ref() {
        rows.extend(batch.to_rows());
    }
    assert!(handle.error().is_none(), "{label}: {:?}", handle.error());
    rows
}

#[test]
fn pruned_scans_match_unpruned_at_every_dop() {
    allow_oversubscribe();
    let cat = pruning_catalog();
    let engine = |dop: usize, fusion: bool| {
        Engine::builder(cat.clone())
            .no_recycler()
            .parallelism(dop)
            .fusion(fusion)
            .build()
    };
    // The unfused executor never consults zone maps: it is the oracle.
    let oracle = engine(1, false);
    let pruned: Vec<(usize, Arc<Engine>)> = [1, 2, 4]
        .into_iter()
        .map(|d| (d, engine(d, true)))
        .collect();
    for (pname, pred) in predicates() {
        for (shape, plan) in plans(&pred) {
            let label = format!("{pname} / {shape}");
            let expect = run(&oracle, &plan, &label);
            for (dop, e) in &pruned {
                assert_eq!(
                    run(e, &plan, &label),
                    expect,
                    "{label}: pruned rows (or their order) diverge at DOP {dop}"
                );
            }
        }
    }
}

#[test]
fn pruned_scans_publish_byte_identical_cache_entries() {
    allow_oversubscribe();
    let cat = pruning_catalog();
    let engine = |dop: usize, fusion: bool| {
        let mut c = RecyclerConfig::deterministic(256 << 20);
        c.spec_min_progress = 0.0;
        Engine::builder(cat.clone())
            .recycler(c)
            .parallelism(dop)
            .fusion(fusion)
            .build()
    };
    for dop in [1, 2, 4] {
        let (pruned, unpruned) = (engine(dop, true), engine(dop, false));
        for (pname, pred) in predicates() {
            let plan = scan("t", &["k", "n", "d", "f"]).select(pred);
            let label = format!("{pname} at DOP {dop}");
            let (sp, su) = (pruned.session(), unpruned.session());
            assert_eq!(
                sp.query(&plan).unwrap().into_outcome().batch.to_rows(),
                su.query(&plan).unwrap().into_outcome().batch.to_rows(),
                "{label}: computed rows diverge"
            );
            let replay_p = sp.query(&plan).unwrap().into_outcome();
            let replay_u = su.query(&plan).unwrap().into_outcome();
            assert!(
                replay_p.reused() && replay_u.reused(),
                "{label}: not cached"
            );
            // Replays are served out of the cache entry, so column equality
            // here is cache-entry byte identity.
            assert_eq!(replay_p.batch.width(), replay_u.batch.width(), "{label}");
            for i in 0..replay_p.batch.width() {
                assert_eq!(
                    replay_p.batch.column(i),
                    replay_u.batch.column(i),
                    "{label}: cached column {i} bytes diverge"
                );
            }
        }
    }
}
