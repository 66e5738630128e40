//! Per-layer measurements taken from outside the crates: counts read
//! from `MetricsRegistry::snapshot()` (recording is on in traced passes
//! only), and direct probes of a layer's public functions on small
//! private worlds. Each probe reports a median of repetitions.

use crate::stats::{median, ns_per_call, Samples};
use crate::trace::{self, Tracer};
use crate::{Outcome, RunCfg};
use open_oodb::Database;
use reach_common::{ClassId, MetricsSnapshot, ObjectId, TxnId};
use reach_core::event::MethodPhase;
use reach_core::{
    CompositionScope, ConsumptionPolicy, CouplingMode, EventExpr, Lifespan, ReachConfig,
    ReachSystem, RuleBuilder,
};
use reach_object::{Value, ValueType};
use reach_storage::{SegmentId, StorageManager};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Counts from the shared registry
// ---------------------------------------------------------------------

/// The registry counters the benchmark reports, as plain numbers that
/// can be subtracted (a traced pass) and added (passes, shards).
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub immediate_runs: u64,
    pub deferred_runs: u64,
    pub detached_runs: u64,
    pub composites_completed: u64,
    pub instances_peak: u64,
    pub lock_acquisitions: u64,
    pub lock_waits: u64,
    pub lock_wait_ns: u64,
    pub versions_published: u64,
    pub versions_reclaimed: u64,
    pub wal_forces: u64,
    pub wal_bytes: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub index_ops: u64,
    pub index_node_writes: u64,
    pub server_bytes: u64,
}

impl Counts {
    pub fn of(s: &MetricsSnapshot) -> Counts {
        Counts {
            immediate_runs: s.immediate_runs,
            deferred_runs: s.deferred_runs,
            detached_runs: s.detached_runs,
            composites_completed: s.composites_completed,
            instances_peak: s.instances_peak,
            lock_acquisitions: s.lock_acquisitions,
            lock_waits: s.lock_waits,
            lock_wait_ns: s.lock_wait_latency.sum_ns,
            versions_published: s.versions_published,
            versions_reclaimed: s.versions_reclaimed,
            wal_forces: s.wal_forces,
            wal_bytes: s.wal_append_bytes,
            pool_hits: s.pool_hits,
            pool_misses: s.pool_misses,
            pool_evictions: s.pool_evictions,
            index_ops: s.index_inserts + s.index_deletes,
            index_node_writes: s.index_node_writes,
            server_bytes: s.server_bytes_read + s.server_bytes_written,
        }
    }

    /// What happened since `before` (a high-water mark stays as it is).
    pub fn since(&self, before: &Counts) -> Counts {
        Counts {
            immediate_runs: self.immediate_runs - before.immediate_runs,
            deferred_runs: self.deferred_runs - before.deferred_runs,
            detached_runs: self.detached_runs - before.detached_runs,
            composites_completed: self.composites_completed - before.composites_completed,
            instances_peak: self.instances_peak,
            lock_acquisitions: self.lock_acquisitions - before.lock_acquisitions,
            lock_waits: self.lock_waits - before.lock_waits,
            lock_wait_ns: self.lock_wait_ns - before.lock_wait_ns,
            versions_published: self.versions_published - before.versions_published,
            versions_reclaimed: self.versions_reclaimed - before.versions_reclaimed,
            wal_forces: self.wal_forces - before.wal_forces,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            pool_hits: self.pool_hits - before.pool_hits,
            pool_misses: self.pool_misses - before.pool_misses,
            pool_evictions: self.pool_evictions - before.pool_evictions,
            index_ops: self.index_ops - before.index_ops,
            index_node_writes: self.index_node_writes - before.index_node_writes,
            server_bytes: self.server_bytes - before.server_bytes,
        }
    }

    pub fn add(&mut self, o: &Counts) {
        self.immediate_runs += o.immediate_runs;
        self.deferred_runs += o.deferred_runs;
        self.detached_runs += o.detached_runs;
        self.composites_completed += o.composites_completed;
        self.instances_peak = self.instances_peak.max(o.instances_peak);
        self.lock_acquisitions += o.lock_acquisitions;
        self.lock_waits += o.lock_waits;
        self.lock_wait_ns += o.lock_wait_ns;
        self.versions_published += o.versions_published;
        self.versions_reclaimed += o.versions_reclaimed;
        self.wal_forces += o.wal_forces;
        self.wal_bytes += o.wal_bytes;
        self.pool_hits += o.pool_hits;
        self.pool_misses += o.pool_misses;
        self.pool_evictions += o.pool_evictions;
        self.index_ops += o.index_ops;
        self.index_node_writes += o.index_node_writes;
        self.server_bytes += o.server_bytes;
    }

    /// The registry-derived per-layer metrics every workload reports,
    /// over `txns` top-level transactions of the workload.
    pub fn report(&self, out: &mut Outcome, txns: u64) {
        let per_txn = |n: u64| n as f64 / txns.max(1) as f64;
        let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        out.set("core.immediate_runs", self.immediate_runs as f64);
        out.set("core.deferred_runs", self.deferred_runs as f64);
        out.set("core.detached_runs", self.detached_runs as f64);
        out.set(
            "core.composites_completed",
            self.composites_completed as f64,
        );
        out.set("core.instances_peak", self.instances_peak as f64);
        out.set(
            "txn.lock_acquisitions_per_txn",
            per_txn(self.lock_acquisitions),
        );
        out.set("txn.lock_waits", self.lock_waits as f64);
        out.set(
            "txn.lock_wait_us",
            ratio(self.lock_wait_ns, self.lock_waits) / 1e3,
        );
        out.set("txn.versions_published", self.versions_published as f64);
        out.set("txn.versions_reclaimed", self.versions_reclaimed as f64);
        out.set("storage.wal_bytes_per_txn", per_txn(self.wal_bytes));
        out.set(
            "storage.pool_hit_ratio",
            ratio(self.pool_hits, self.pool_hits + self.pool_misses),
        );
        out.set("storage.pool_evictions", self.pool_evictions as f64);
        out.set(
            "storage.index_node_writes_per_update",
            ratio(self.index_node_writes, self.index_ops),
        );
    }
}

/// Write the spans and say so; a failure to write is a failed run.
pub fn write_trace(path: &Path, tracers: &[Tracer], out: &mut Outcome) {
    match trace::write_jsonl(path, tracers) {
        Ok(n) => {
            eprintln!("trace: {n} spans -> {}", path.display());
            for (name, count, total, own) in trace::self_times(tracers) {
                eprintln!(
                    "  {name:<24} n={count:<7} total={:>10.1}us self={:>10.1}us",
                    total as f64 / 1e3,
                    own as f64 / 1e3
                );
            }
        }
        Err(e) => out
            .problems
            .push(format!("cannot write {}: {e}", path.display())),
    }
}

// ---------------------------------------------------------------------
// object / oodb sentry / core / rulelang probes
// ---------------------------------------------------------------------

const EVENTS_PER_TXN: usize = 100;

struct ProbeWorld {
    db: Arc<Database>,
    sys: Arc<ReachSystem>,
    class: ClassId,
    oid: ObjectId,
}

/// A one-object world with a `noop` method (probed) and an `other`
/// method (monitored in the "somebody else is monitored" case).
fn probe_world() -> ProbeWorld {
    let db = Database::in_memory().expect("in-memory database");
    let (b, noop) = db
        .define_class("Probe")
        .attr("value", ValueType::Int, Value::Int(0))
        .virtual_method("noop");
    let (b, other) = b.virtual_method("other");
    let class = b.define().expect("class");
    db.methods().register_fn(noop, |_| Ok(Value::Null));
    db.methods().register_fn(other, |_| Ok(Value::Null));
    let sys = ReachSystem::new(Arc::clone(&db), ReachConfig::default());
    let t = db.begin().expect("begin");
    let oid = db.create(t, class).expect("create");
    db.persist(t, oid).expect("persist");
    db.commit(t).expect("commit");
    ProbeWorld {
        db,
        sys,
        class,
        oid,
    }
}

/// Microseconds per event of `begin; 100 × invoke(noop); commit`, the
/// detached work it causes drained outside the timed part.
fn us_per_event(w: &ProbeWorld, txns: usize) -> f64 {
    let mut per = Vec::with_capacity(txns);
    for _ in 0..txns {
        let t0 = Instant::now();
        let t = w.db.begin().expect("begin");
        for _ in 0..EVENTS_PER_TXN {
            w.db.invoke(t, w.oid, "noop", &[]).expect("invoke");
        }
        w.db.commit(t).expect("commit");
        per.push(t0.elapsed().as_nanos() as f64 / 1e3 / EVENTS_PER_TXN as f64);
        w.sys.wait_quiescent();
    }
    median(&mut per)
}

/// The §6.1 WaterLevel rule, as the paper prints it.
const WATER_LEVEL: &str = r#"
    rule WaterLevel {
        prio 5;
        decl River *river, int x, Reactor *reactor named "BlockA";
        event after river->updateWaterLevel(x);
        cond imm x < 37 and river->getWaterTemp() > 24.5
                 and reactor->getHeatOutput() > 1000000;
        action imm reactor->reducePlannedPower(0.05);
    };
"#;

fn power_plant() -> Arc<ReachSystem> {
    let db = Database::in_memory().expect("in-memory database");
    let (b, update) = db
        .define_class("River")
        .attr("waterLevel", ValueType::Int, Value::Int(100))
        .attr("waterTemp", ValueType::Float, Value::Float(18.0))
        .virtual_method("updateWaterLevel");
    let (b, get_temp) = b.virtual_method("getWaterTemp");
    b.define().expect("River");
    db.methods().register_fn(update, |ctx| {
        ctx.set("waterLevel", ctx.arg(0))?;
        Ok(Value::Null)
    });
    db.methods()
        .register_fn(get_temp, |ctx| ctx.get("waterTemp"));
    let (b, get_heat) = db
        .define_class("Reactor")
        .attr("plannedPower", ValueType::Float, Value::Float(1000.0))
        .attr("heatOutput", ValueType::Float, Value::Float(0.0))
        .virtual_method("getHeatOutput");
    let (b, reduce) = b.virtual_method("reducePlannedPower");
    let reactor_cls = b.define().expect("Reactor");
    db.methods()
        .register_fn(get_heat, |ctx| ctx.get("heatOutput"));
    db.methods().register_fn(reduce, |_| Ok(Value::Null));
    let sys = ReachSystem::new(Arc::clone(&db), ReachConfig::default());
    let t = db.begin().expect("begin");
    let reactor = db.create(t, reactor_cls).expect("create");
    db.persist_named(t, "BlockA", reactor).expect("persist");
    db.commit(t).expect("commit");
    sys
}

/// `object.dispatch_ns`, `oodb.sentry_ns`, `core.*_us|ns`,
/// `txn.begin_commit_us` (in-memory) and `rulelang.compile_us`.
/// Every `core` figure is the cost per event *added* to a world whose
/// event type is defined but has no rules.
pub fn core_layers(cfg: &RunCfg, out: &mut Outcome) {
    let monitored = || {
        let w = probe_world();
        let ev = w
            .sys
            .define_method_event("noop", w.class, "noop", MethodPhase::After)
            .expect("event");
        (w, ev)
    };
    let with_rule = |name: &str, coupling: CouplingMode, write: bool| {
        let (w, ev) = monitored();
        let rule = RuleBuilder::new(name)
            .on(ev)
            .coupling(coupling)
            .when(|_| Ok(true));
        let rule = if write {
            rule.then(|ctx| {
                let oid = ctx.receiver().expect("receiver");
                let n = ctx.db.get_attr(ctx.txn, oid, "value")?.as_int()? + 1;
                ctx.db.set_attr(ctx.txn, oid, "value", Value::Int(n))
            })
        } else {
            rule.then(|_| Ok(()))
        };
        w.sys.define_rule(rule).expect("rule");
        w
    };

    let plain = probe_world();
    // Another method is monitored, the probed one is not: what an
    // unmonitored call pays for the sentry being there at all.
    let other = probe_world();
    other
        .sys
        .define_method_event("other", other.class, "other", MethodPhase::After)
        .expect("event");
    let (composed, ev) = monitored();
    composed
        .sys
        .define_composite(
            "triple",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(ev)),
                count: 3,
            },
            CompositionScope::CrossTransaction,
            Lifespan::Interval(Duration::from_secs(3600)),
            ConsumptionPolicy::Cumulative,
        )
        .expect("composite");
    let worlds = [
        plain,
        other,
        monitored().0,
        with_rule("imm", CouplingMode::Immediate, false),
        with_rule("immw", CouplingMode::Immediate, true),
        with_rule("def", CouplingMode::Deferred, false),
        with_rule("det", CouplingMode::Detached, false),
        composed,
    ];
    // Rounds over all worlds, so that a drift of the machine lands on
    // every world alike and cancels in the differences.
    let (rounds, txns) = if cfg.smoke { (3, 5) } else { (15, 20) };
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); worlds.len()];
    for _ in 0..rounds {
        for (w, samples) in worlds.iter().zip(per.iter_mut()) {
            samples.push(us_per_event(w, txns));
        }
    }
    let cost: Vec<f64> = per.iter_mut().map(|v| median(v)).collect();
    let (dispatch, detect) = (cost[0], cost[2]);
    out.set("object.dispatch_ns", dispatch * 1e3);
    out.set("oodb.sentry_ns", (cost[1] - dispatch) * 1e3);
    out.set("core.detect_ns", (detect - dispatch) * 1e3);
    out.set("core.immediate_us", cost[3] - detect);
    out.set("core.immediate_write_us", cost[4] - detect);
    out.set("core.deferred_us", cost[5] - detect);
    out.set("core.detached_spawn_us", cost[6] - detect);
    out.set("core.compose_us", cost[7] - detect);
    out.set(
        "txn.begin_commit_us",
        ns_per_call(7, if cfg.smoke { 200 } else { 3_000 }, || {
            let t = worlds[0].db.begin().expect("begin");
            worlds[0].db.commit(t).expect("commit");
        }) / 1e3,
    );

    let mut compile = Vec::new();
    for _ in 0..if cfg.smoke { 3 } else { 25 } {
        let sys = power_plant();
        let t0 = Instant::now();
        reach_rulelang::compile::load_rule(&sys, WATER_LEVEL).expect("the paper's rule compiles");
        compile.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    out.set("rulelang.compile_us", median(&mut compile));
}

// ---------------------------------------------------------------------
// oodb attribute access, txn, storage WAL and wire codec probes
// ---------------------------------------------------------------------

/// `oodb.get_attr_ns`, `oodb.set_attr_ns`, `txn.snapshot_read_ns` and
/// `txn.begin_commit_us` on the workload's own (file-backed) database.
pub fn oodb_attrs(cfg: &RunCfg, db: &Arc<Database>, oids: &[ObjectId], out: &mut Outcome) {
    let iters = if cfg.smoke { 200 } else { 5_000 };
    // Inside one transaction that already holds the locks, so the
    // figure is the attribute path, not lock acquisition or commit.
    let t = db.begin().expect("begin");
    let held = &oids[..64.min(oids.len())];
    for oid in held {
        let v = db.get_attr(t, *oid, "v").expect("get");
        db.set_attr(t, *oid, "v", v).expect("set");
    }
    let mut i = 0;
    out.set(
        "oodb.get_attr_ns",
        ns_per_call(7, iters, || {
            i += 1;
            std::hint::black_box(db.get_attr(t, held[i % held.len()], "v").expect("get"));
        }),
    );
    let values: Vec<Value> = held
        .iter()
        .map(|oid| db.get_attr(t, *oid, "v").expect("get"))
        .collect();
    out.set(
        "oodb.set_attr_ns",
        ns_per_call(7, iters, || {
            i += 1;
            let k = i % held.len();
            db.set_attr(t, held[k], "v", values[k].clone())
                .expect("set");
        }),
    );
    db.commit(t).expect("commit");

    let r = db.begin_read_only().expect("begin_read_only");
    out.set(
        "txn.snapshot_read_ns",
        ns_per_call(7, iters, || {
            i += 1;
            std::hint::black_box(
                db.get_attr(r, oids[i % oids.len()], "v")
                    .expect("snapshot read"),
            );
        }),
    );
    db.commit(r).expect("commit");
    out.set(
        "txn.begin_commit_us",
        ns_per_call(7, iters, || {
            let t = db.begin().expect("begin");
            db.commit(t).expect("commit");
        }) / 1e3,
    );
}

/// `storage.wal_force_us` / `_p99_us`: a one-record transaction's
/// `StorageManager::commit`, single thread, real `sync_data`.
pub fn wal_force(cfg: &RunCfg, sm: &Arc<StorageManager>, seg: SegmentId, out: &mut Outcome) {
    let mut lat = Samples::default();
    for i in 0..if cfg.smoke { 50u64 } else { 1_500 } {
        let txn = TxnId::new((7 << 40) + i + 1);
        sm.begin(txn).expect("begin");
        sm.insert(txn, seg, &[0u8; 32]).expect("insert");
        let t0 = Instant::now();
        sm.commit(txn).expect("commit");
        lat.push(t0.elapsed());
    }
    out.set("storage.wal_force_us", lat.p50_us());
    out.set("storage.wal_force_p99_us", lat.p99_us());
}

/// `server.wire_codec_ns`: encode + decode of one request and its
/// response, averaged over the OLTP operation mix.
pub fn wire_codec(cfg: &RunCfg, oids: &[ObjectId], out: &mut Outcome) {
    use reach_server::{Request, Response};
    let txn = TxnId::new(4_242);
    let get = Request::Get {
        txn,
        oid: oids[0],
        attr: "v".into(),
    };
    let set = Request::Set {
        txn,
        oid: oids[0],
        attr: "v".into(),
        value: Value::Int(123_456_789),
    };
    let pairs = [
        (Request::Begin, Response::Txn(txn)),
        (get.clone(), Response::Value(Value::Int(123_456_789))),
        (get, Response::Value(Value::Int(1))),
        (set.clone(), Response::Ok),
        (set, Response::Ok),
        (Request::Commit { txn }, Response::Ok),
    ];
    let per_mix = ns_per_call(7, if cfg.smoke { 100 } else { 5_000 }, || {
        for (q, r) in &pairs {
            let bytes = q.encode(9, 2_000);
            std::hint::black_box(Request::decode(&bytes).expect("request decodes"));
            let bytes = r.encode(9);
            std::hint::black_box(Response::decode(&bytes).expect("response decodes"));
        }
    });
    out.set("server.wire_codec_ns", per_mix / pairs.len() as f64);
}

// ---------------------------------------------------------------------
// query / index probes
// ---------------------------------------------------------------------

/// `oodb.query_eq_us`, `oodb.query_range_us` (one thread, no writer)
/// and `oodb.index_update_us`: what a one-`set_attr` transaction on the
/// indexed attribute `g` costs beyond one on the unindexed `n`.
pub fn query_layers(cfg: &RunCfg, db: &Arc<Database>, oids: &[ObjectId], out: &mut Outcome) {
    let n = oids.len();
    let t = db.begin_read_only().expect("begin_read_only");
    let mut eq = Samples::default();
    let mut range = Samples::default();
    for i in 0..if cfg.smoke { 50 } else { 2_000 } {
        let text = format!("select i from Item i where i.k == {}", (i * 7_919) % n);
        let t0 = Instant::now();
        std::hint::black_box(db.query(t, &text).expect("query"));
        eq.push(t0.elapsed());
    }
    for i in 0..if cfg.smoke { 10 } else { 200 } {
        let lo = (i * 7_919) % (n - crate::gen::RANGE_ROWS);
        let text = format!(
            "select i from Item i where i.k >= {lo} and i.k < {}",
            lo + crate::gen::RANGE_ROWS
        );
        let t0 = Instant::now();
        std::hint::black_box(db.query(t, &text).expect("query"));
        range.push(t0.elapsed());
    }
    db.commit(t).expect("commit");
    out.set("oodb.query_eq_us", eq.p50_us());
    out.set("oodb.query_range_us", range.p50_us());

    let groups = n / 10;
    let one_set = |attr: &str| {
        let mut lat = Samples::default();
        for i in 0..if cfg.smoke { 20 } else { 300 } {
            let oid = oids[(i * 104_729) % n];
            let t0 = Instant::now();
            let t = db.begin().expect("begin");
            db.set_attr(t, oid, attr, Value::Int(((i * 31) % groups) as i64))
                .expect("set_attr");
            db.commit(t).expect("commit");
            lat.push(t0.elapsed());
        }
        lat.p50_us()
    };
    let plain = one_set("n");
    let indexed = one_set("g");
    out.set("oodb.index_update_us", indexed - plain);
}

/// `storage.btree_lookup_us` / `storage.btree_insert_us`: direct
/// `index_lookup` / `index_insert` on a private storage manager whose
/// tree is several times its 16-frame pool.
pub fn btree(cfg: &RunCfg, out: &mut Outcome) {
    let dir = crate::TempDir::new(&cfg.out, "btree");
    let sm = StorageManager::open(dir.path(), 16).expect("open");
    let index = sm.create_index("probe").expect("create_index");
    let keys: u64 = if cfg.smoke { 1_000 } else { 10_000 };
    let key = |i: u64| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).to_be_bytes();
    let mut txn = 0u64;
    let mut begin = |sm: &StorageManager| {
        txn += 1;
        let t = TxnId::new(txn);
        sm.begin(t).expect("begin");
        t
    };
    let mut t = begin(&sm);
    for i in 0..keys {
        sm.index_insert(t, index, &key(i), i).expect("index_insert");
        if i % 500 == 499 {
            sm.commit(t).expect("commit");
            t = begin(&sm);
        }
    }
    let mut insert = Samples::default();
    for i in keys..keys + keys / 10 {
        let t0 = Instant::now();
        sm.index_insert(t, index, &key(i), i).expect("index_insert");
        insert.push(t0.elapsed());
    }
    sm.commit(t).expect("commit");
    let mut lookup = Samples::default();
    for i in 0..keys / 2 {
        let k = key((i * 7_919) % keys);
        let t0 = Instant::now();
        let hits = sm.index_lookup(index, &k).expect("index_lookup");
        lookup.push(t0.elapsed());
        assert_eq!(hits.len(), 1, "every inserted key is found once");
    }
    out.set("storage.btree_insert_us", insert.p50_us());
    out.set("storage.btree_lookup_us", lookup.p50_us());
}

// ---------------------------------------------------------------------
// dist probes
// ---------------------------------------------------------------------

/// `dist.route_ns`, `dist.prepare_us`, `dist.decide_us`,
/// `dist.coord_commit_us` and `dist.forces_per_xshard_commit`, on a
/// private 2-shard file-backed deployment.
pub fn dist_layers(cfg: &RunCfg, out: &mut Outcome) {
    let n: usize = if cfg.smoke { 30 } else { 400 };
    let w = crate::dist::build(cfg, 2 * n, crate::dist::Backing::Files);
    let dist = &w.dist;
    let all: Vec<ObjectId> = w.accounts.iter().flatten().copied().collect();
    let mut i = 0;
    out.set(
        "dist.route_ns",
        ns_per_call(7, 20_000, || {
            i += 1;
            std::hint::black_box(dist.owner(all[i % all.len()]));
        }),
    );

    // One participant's two phases, called the way the coordinator does.
    let db = dist.shard(0).db();
    let mut prepare = Samples::default();
    let mut decide = Samples::default();
    for i in 0..n {
        let t = db.begin().expect("begin");
        db.set_attr(
            t,
            w.accounts[0][i % w.accounts[0].len()],
            "bal",
            Value::Int(i as i64),
        )
        .expect("set_attr");
        let t0 = Instant::now();
        db.prepare(t, 1_000_000 + i as u64).expect("prepare");
        let t1 = Instant::now();
        db.decide(t, true).expect("decide");
        prepare.push(t1 - t0);
        decide.push(t1.elapsed());
    }
    out.set("dist.prepare_us", prepare.p50_us());
    out.set("dist.decide_us", decide.p50_us());

    // Cross-shard transfers only: the coordinator round as `commit`
    // sees it, and the device syncs it causes on the shards.
    for sys in dist.systems() {
        sys.metrics().enable();
    }
    let forces = |d: &reach_dist::DistSystem| -> u64 {
        d.systems()
            .iter()
            .map(|s| s.metrics().wal.forces.get())
            .sum()
    };
    let before = forces(dist);
    let mut commit = Samples::default();
    for i in 0..n {
        let args = [Value::Int(1), Value::Int(i as i64)];
        let mut t = dist.begin();
        let (to, from) = (w.credit_shard as usize, 1 - w.credit_shard as usize);
        dist.invoke(&mut t, w.accounts[from][i % 64], "debit", &args)
            .expect("debit");
        dist.invoke(&mut t, w.accounts[to][i % 64], "credit", &args)
            .expect("credit");
        let t0 = Instant::now();
        let gid = dist.commit(t).expect("commit");
        commit.push(t0.elapsed());
        assert!(
            gid.is_some(),
            "a transfer between shards commits in two phases"
        );
    }
    dist.wait_quiescent();
    out.set("dist.coord_commit_us", commit.p50_us());
    out.set(
        "dist.forces_per_xshard_commit",
        (forces(dist) - before) as f64 / n as f64,
    );
}
