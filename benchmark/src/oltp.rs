//! `oltp_wire`: two `reach_server::Client` connections over loopback
//! TCP to an in-process `serve()` on a file-backed database, no rules.
//!
//! 10 000 objects; a transaction is `begin`, 2 × `get`, 2 × `set`,
//! `commit` (20 %: `begin_read_only` + 4 × `get`). Phase A runs back to
//! back (saturation); phase B is paced at a constant rate of about half
//! the saturation rate and times every transaction from its due time;
//! phase C shuts down, drops and reopens the directory.
//!
//! The whole run is confined to one CPU (see [`OneCpu`]): a hand-over
//! between a client and a server thread is then a context switch, not
//! the wake-up of a halted virtual CPU whose cost the sandbox's
//! hypervisor keeps changing.
//!
//! `server` + `txn` + `storage` WAL force dominate; `core`'s engine is
//! idle. The traced run replays the same operation stream at three
//! depths — through `Client`, through `Database`, through
//! `StorageManager` — and the differences are each layer's share.

use crate::gen::{self, OltpTxn, Op, Rng};
use crate::probes::{self, Counts};
use crate::stats::{self, Samples};
use crate::trace::Tracer;
use crate::{timed_setup, OneCpu, Outcome, RunCfg, TempDir};
use open_oodb::{Database, DatabaseConfig};
use reach_common::{ObjectId, Result, TxnId};
use reach_core::{ReachConfig, ReachSystem};
use reach_object::{Value, ValueType};
use reach_server::{serve, Client, ClientConfig, ServerConfig, ServerHandle};
use reach_storage::{RecordId, SegmentId, StorageManager};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;
const PASSES_A: usize = 8;
const WINDOWS_B: usize = 8;
/// Closed-loop transactions per second of phase A at the speed of the
/// commit that added the benchmark (both clients together): fixes the
/// work of phase A.
const RATE_A: f64 = 2_500.0;
/// The constant rate of phase B, both clients together: about half of
/// what two *paced* clients sustain on the 2-core box (a paced
/// transaction takes ~950 µs there, far longer than one of phase A,
/// because every request wakes an idle core). At 1 500/s a slow spell
/// of the disk turned into a backlog that never drained.
const RATE_B: f64 = 1_000.0;

fn objects(cfg: &RunCfg) -> usize {
    if cfg.smoke {
        1_000
    } else {
        10_000
    }
}

// ---------------------------------------------------------------------
// The three depths
// ---------------------------------------------------------------------

/// What an OLTP transaction needs from whatever it is driven through.
pub trait TxnApi {
    /// Span names for begin / get / set / commit at this depth.
    const NAMES: [&'static str; 4];
    fn begin(&mut self, read_only: bool) -> Result<u64>;
    fn get(&mut self, txn: u64, key: usize) -> Result<i64>;
    fn set(&mut self, txn: u64, key: usize, value: i64) -> Result<()>;
    fn commit(&mut self, txn: u64) -> Result<()>;
    fn abort(&mut self, txn: u64);
}

struct Wire {
    client: Client,
    oids: Arc<Vec<ObjectId>>,
}

impl TxnApi for Wire {
    const NAMES: [&'static str; 4] = ["server.begin", "server.get", "server.set", "server.commit"];
    fn begin(&mut self, read_only: bool) -> Result<u64> {
        let t = if read_only {
            self.client.begin_read_only()?
        } else {
            self.client.begin()?
        };
        Ok(t.raw())
    }
    fn get(&mut self, txn: u64, key: usize) -> Result<i64> {
        self.client
            .get(TxnId::new(txn), self.oids[key], "v")?
            .as_int()
    }
    fn set(&mut self, txn: u64, key: usize, value: i64) -> Result<()> {
        self.client
            .set(TxnId::new(txn), self.oids[key], "v", Value::Int(value))
    }
    fn commit(&mut self, txn: u64) -> Result<()> {
        self.client.commit(TxnId::new(txn))
    }
    fn abort(&mut self, txn: u64) {
        let _ = self.client.abort(TxnId::new(txn));
    }
}

struct Embedded {
    db: Arc<Database>,
    oids: Arc<Vec<ObjectId>>,
}

impl TxnApi for Embedded {
    const NAMES: [&'static str; 4] = [
        "oodb.begin",
        "oodb.get_attr",
        "oodb.set_attr",
        "oodb.commit",
    ];
    fn begin(&mut self, read_only: bool) -> Result<u64> {
        let t = if read_only {
            self.db.begin_read_only()?
        } else {
            self.db.begin()?
        };
        Ok(t.raw())
    }
    fn get(&mut self, txn: u64, key: usize) -> Result<i64> {
        self.db
            .get_attr(TxnId::new(txn), self.oids[key], "v")?
            .as_int()
    }
    fn set(&mut self, txn: u64, key: usize, value: i64) -> Result<()> {
        self.db
            .set_attr(TxnId::new(txn), self.oids[key], "v", Value::Int(value))
    }
    fn commit(&mut self, txn: u64) -> Result<()> {
        self.db.commit(TxnId::new(txn))
    }
    fn abort(&mut self, txn: u64) {
        let _ = self.db.abort(TxnId::new(txn));
    }
}

/// Records of a heap segment stand in for objects: the same reads,
/// updates and commit force, with nothing above the storage manager.
struct Storage {
    sm: Arc<StorageManager>,
    seg: SegmentId,
    rids: Arc<Vec<RecordId>>,
    next_txn: u64,
}

const RECORD_BYTES: usize = 32;

fn record(value: i64) -> [u8; RECORD_BYTES] {
    let mut r = [0u8; RECORD_BYTES];
    r[..8].copy_from_slice(&value.to_le_bytes());
    r
}

impl TxnApi for Storage {
    const NAMES: [&'static str; 4] = [
        "storage.begin",
        "storage.get",
        "storage.update",
        "storage.commit",
    ];
    fn begin(&mut self, _read_only: bool) -> Result<u64> {
        self.next_txn += 1;
        self.sm.begin(TxnId::new(self.next_txn))?;
        Ok(self.next_txn)
    }
    fn get(&mut self, _txn: u64, key: usize) -> Result<i64> {
        let bytes = self.sm.get(self.seg, self.rids[key])?;
        let head: [u8; 8] = bytes[..8].try_into().expect("records are 32 bytes");
        Ok(i64::from_le_bytes(head))
    }
    fn set(&mut self, txn: u64, key: usize, value: i64) -> Result<()> {
        self.sm
            .update(TxnId::new(txn), self.seg, self.rids[key], &record(value))
    }
    fn commit(&mut self, txn: u64) -> Result<()> {
        self.sm.commit(TxnId::new(txn))
    }
    fn abort(&mut self, txn: u64) {
        let _ = self.sm.abort(TxnId::new(txn));
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// What one client saw while driving a slice of its stream.
#[derive(Default)]
struct Driven {
    start: Option<Instant>,
    end: Option<Instant>,
    txn_lat: Samples,
    /// Request round trips: begin, get, set, commit.
    req_lat: [Samples; 4],
    committed_rw: u64,
    committed: u64,
    failed: u64,
    late: u64,
    paced: u64,
    problems: Vec<String>,
}

impl Driven {
    fn merge(&mut self, o: Driven) {
        self.start = match (self.start, o.start) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.end = match (self.end, o.end) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.txn_lat.extend(&o.txn_lat);
        for (mine, theirs) in self.req_lat.iter_mut().zip(&o.req_lat) {
            mine.extend(theirs);
        }
        self.committed_rw += o.committed_rw;
        self.committed += o.committed;
        self.failed += o.failed;
        self.late += o.late;
        self.paced += o.paced;
        self.problems.extend(o.problems);
    }

    fn all_requests(&self) -> Samples {
        let mut all = Samples::default();
        for s in &self.req_lat {
            all.extend(s);
        }
        all
    }

    fn elapsed(&self) -> f64 {
        match (self.start, self.end) {
            (Some(s), Some(e)) => (e - s).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// Constant-rate schedule: transaction `i` is due at `start + i × every`.
#[derive(Clone, Copy)]
struct Pace {
    start: Instant,
    every: Duration,
}

/// One client's view of the keys it owns: the last value whose commit
/// was acknowledged. Only this client writes them, so it is exact.
type Model = HashMap<usize, i64>;

/// Drive `txns` through `api`, back to back or on `pace`'s schedule.
/// A transaction is timed from its due time (or its first call when not
/// paced) to the acknowledgement of its commit.
fn drive<A: TxnApi>(
    api: &mut A,
    client: usize,
    txns: &[OltpTxn],
    pace: Option<Pace>,
    model: &mut Model,
    tr: &mut Tracer,
) -> Driven {
    let mut d = Driven {
        start: Some(pace.map_or_else(Instant::now, |p| p.start)),
        ..Driven::default()
    };
    for (i, txn) in txns.iter().enumerate() {
        let t0 = match pace {
            Some(p) => {
                let due = p.start + p.every * i as u32;
                stats::sleep_until(due);
                d.paced += 1;
                if Instant::now() - due > Duration::from_millis(1) {
                    d.late += 1;
                }
                due
            }
            None => Instant::now(),
        };
        let mut run = || -> Result<(u64, Vec<String>)> {
            let mut wrong = Vec::new();
            let q = Instant::now();
            let t = api.begin(txn.read_only)?;
            let mut last = Instant::now();
            d.req_lat[0].0.push((last - q).as_nanos() as u64);
            let span = tr.open("txn", t, t0);
            tr.call(A::NAMES[0], span, t, q, last);
            let mut body = || -> Result<()> {
                for op in &txn.ops {
                    match *op {
                        Op::Get(key) => {
                            let v = api.get(t, key)?;
                            let now = Instant::now();
                            d.req_lat[1].0.push((now - last).as_nanos() as u64);
                            tr.call(A::NAMES[1], span, t, last, now);
                            last = now;
                            if key % CLIENTS == client {
                                let want = model.get(&key).copied().unwrap_or(0);
                                if v != want {
                                    wrong.push(format!(
                                        "key {key} read {v}, last acknowledged {want}"
                                    ));
                                }
                            }
                        }
                        Op::Set(key, value) => {
                            api.set(t, key, value)?;
                            let now = Instant::now();
                            d.req_lat[2].0.push((now - last).as_nanos() as u64);
                            tr.call(A::NAMES[2], span, t, last, now);
                            last = now;
                        }
                    }
                }
                api.commit(t)?;
                let now = Instant::now();
                d.req_lat[3].0.push((now - last).as_nanos() as u64);
                tr.call(A::NAMES[3], span, t, last, now);
                last = now;
                Ok(())
            };
            if let Err(e) = body() {
                api.abort(t);
                return Err(e);
            }
            tr.close(span, last);
            d.txn_lat.push(last - t0);
            Ok((t, wrong))
        };
        match run() {
            Ok((_, wrong)) => {
                d.committed += 1;
                if !txn.read_only {
                    d.committed_rw += 1;
                    for op in &txn.ops {
                        if let Op::Set(key, value) = *op {
                            model.insert(key, value);
                        }
                    }
                }
                if !wrong.is_empty() {
                    d.failed += 1;
                    d.problems.extend(wrong);
                }
            }
            Err(e) => {
                d.failed += 1;
                d.problems.push(format!("client {client} txn {i}: {e}"));
            }
        }
    }
    d.end = Some(Instant::now());
    d
}

/// Run every client's slice concurrently (a barrier lines the starts
/// up) and merge what they saw.
fn drive_all<A: TxnApi + Send>(
    apis: &mut [A],
    slices: &[&[OltpTxn]],
    rate: Option<f64>,
    models: &mut [Model],
    tracers: &mut [Tracer],
) -> Driven {
    let barrier = Barrier::new(apis.len());
    let every = rate.map(|r| Duration::from_secs_f64(apis.len() as f64 / r));
    let start = Instant::now() + Duration::from_millis(2);
    let mut all = Driven::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = apis
            .iter_mut()
            .zip(slices)
            .zip(models.iter_mut().zip(tracers.iter_mut()))
            .enumerate()
            .map(|(c, ((api, slice), (model, tr)))| {
                let barrier = &barrier;
                s.spawn(move || {
                    // Clients are staggered evenly over one interval.
                    let pace = every.map(|every| Pace {
                        start: start + every * c as u32 / CLIENTS as u32,
                        every,
                    });
                    barrier.wait();
                    drive(api, c, slice, pace, model, tr)
                })
            })
            .collect();
        for h in handles {
            all.merge(h.join().expect("client thread"));
        }
    });
    all
}

// ---------------------------------------------------------------------
// The world
// ---------------------------------------------------------------------

fn declare(db: &Arc<Database>) -> reach_common::ClassId {
    db.define_class("Acct")
        .attr("v", ValueType::Int, Value::Int(0))
        .define()
        .expect("class")
}

struct World {
    dir: TempDir,
    sys: Arc<ReachSystem>,
    handle: ServerHandle,
    oids: Arc<Vec<ObjectId>>,
    wires: Vec<Wire>,
}

/// Open the database, create and persist the objects, start the server
/// and connect the clients.
fn build(cfg: &RunCfg) -> World {
    let dir = TempDir::new(&cfg.out, "oltp");
    let db = Database::open(dir.path(), DatabaseConfig::default()).expect("open");
    let class = declare(&db);
    let t = db.begin().expect("begin");
    let oids: Vec<ObjectId> = (0..objects(cfg))
        .map(|_| {
            let oid = db.create(t, class).expect("create");
            db.persist(t, oid).expect("persist");
            oid
        })
        .collect();
    db.commit(t).expect("commit");
    let oids = Arc::new(oids);
    let sys = ReachSystem::new(db, ReachConfig::default());
    let handle = serve(Arc::clone(&sys), ServerConfig::default()).expect("serve");
    let wires = (0..CLIENTS)
        .map(|_| Wire {
            client: Client::connect(&handle.addr(), ClientConfig::default()).expect("connect"),
            oids: Arc::clone(&oids),
        })
        .collect();
    World {
        dir,
        sys,
        handle,
        oids,
        wires,
    }
}

/// The streams of one phase: per client, a pure function of the seed.
fn streams(cfg: &RunCfg, phase: u64, per_client: usize) -> Vec<Vec<OltpTxn>> {
    (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng::stream(cfg.seed, phase * 16 + c as u64);
            // Written values are unique across phases, clients and slots.
            let first = ((phase * 16 + c as u64) << 32) as i64 + 1;
            gen::oltp_txns(&mut rng, c, CLIENTS, objects(cfg), first, per_client)
        })
        .collect()
}

fn slices(streams: &[Vec<OltpTxn>], from: usize, to: usize) -> Vec<&[OltpTxn]> {
    streams.iter().map(|s| &s[from..to]).collect()
}

struct Reopened {
    recovery_s: f64,
    scanned: u64,
    data_bytes: u64,
}

/// Phase C: everything is dropped; reopen the directory and time until
/// the first read succeeds. Then every acknowledged write must be there.
fn reopen_and_verify(
    cfg: &RunCfg,
    dir: &TempDir,
    oids: &[ObjectId],
    models: &[Model],
    out: &mut Outcome,
) -> Reopened {
    let t0 = Instant::now();
    let db = Database::open(dir.path(), DatabaseConfig::default()).expect("reopen");
    declare(&db);
    let t = db.begin().expect("begin");
    let first = db.get_attr(t, oids[0], "v");
    let recovery_s = t0.elapsed().as_secs_f64();
    out.check(first.is_ok(), || {
        format!("first read after reopen: {first:?}")
    });
    for key in 0..objects(cfg) {
        let want = models[key % CLIENTS].get(&key).copied().unwrap_or(0);
        let got = db.get_attr(t, oids[key], "v").and_then(|v| v.as_int());
        out.check(got == Ok(want), || {
            format!("after reopen key {key} holds {got:?}, last acknowledged write {want}")
        });
    }
    db.commit(t).expect("commit");
    let scanned = db.metrics().recovery.records_scanned.get();
    // Pages reach `data.db` at eviction or checkpoint only, so the
    // file's size means something only after a checkpoint.
    let data_bytes = if cfg.trace {
        db.checkpoint().expect("checkpoint");
        std::fs::metadata(dir.path().join("data.db")).map_or(0, |m| m.len())
    } else {
        0
    };
    Reopened {
        recovery_s,
        scanned,
        data_bytes,
    }
}

fn absorb(out: &mut Outcome, d: &mut Driven) {
    out.absorb(d.committed, d.failed, &mut d.problems);
}

pub fn run(cfg: &RunCfg) -> Outcome {
    // Before any thread of the world exists: they inherit the pin.
    let pinned = OneCpu::pin();
    let mut out = if cfg.trace {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    };
    if pinned.is_none() {
        out.problems
            .push("could not pin the run to one CPU".to_string());
    }
    out
}

fn run_untraced(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let per_pass = ((cfg.seconds / 2.0 * RATE_A) as usize / CLIENTS / PASSES_A).max(10);
    let paced = ((cfg.seconds / 2.0 * RATE_B) as usize / CLIENTS / WINDOWS_B).max(10);

    let (mut guard, setup_s) = timed_setup(cfg, || WorldGuard(Some(build(cfg))));
    let mut w = guard.0.take().expect("world");
    let mut models = vec![Model::new(); CLIENTS];
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..CLIENTS)
        .map(|c| Tracer::new(false, epoch, c as u32))
        .collect();

    // Warm-up, then phase A: fixed work, back to back, in passes.
    let a = streams(cfg, 1, per_pass / 4 + 1 + per_pass * PASSES_A);
    let warm = per_pass / 4 + 1;
    let mut d = drive_all(
        &mut w.wires,
        &slices(&a, 0, warm),
        None,
        &mut models,
        &mut tracers,
    );
    absorb(&mut out, &mut d);
    let mut rates = Vec::new();
    for p in 0..PASSES_A {
        let from = warm + p * per_pass;
        let mut d = drive_all(
            &mut w.wires,
            &slices(&a, from, from + per_pass),
            None,
            &mut models,
            &mut tracers,
        );
        rates.push(d.committed as f64 / d.elapsed());
        absorb(&mut out, &mut d);
    }

    // Phase B: constant rate, latency from the due time, in windows.
    // The first window is a warm-up: it still runs on the wake-up costs
    // phase A left behind.
    let b = streams(cfg, 2, paced * (WINDOWS_B + 1));
    let mut requests = Vec::new();
    let mut txn_lat = Vec::new();
    for k in 0..=WINDOWS_B {
        let mut d = drive_all(
            &mut w.wires,
            &slices(&b, k * paced, (k + 1) * paced),
            Some(RATE_B),
            &mut models,
            &mut tracers,
        );
        if k > 0 {
            requests.push(d.all_requests());
            txn_lat.push(d.txn_lat.clone());
        }
        absorb(&mut out, &mut d);
    }

    // Phase C.
    let (dir, oids) = w.shut_down();
    reopen_and_verify(cfg, &dir, &oids, &models, &mut out);

    out.set("setup_s", setup_s);
    out.set("txn_per_s", stats::median(&mut rates));
    out.set("txn_p50_us", stats::over_passes_us(&txn_lat, 0.50));
    out.set("req_p50_us", stats::over_passes_us(&requests, 0.50));
    out.set("peak_rss_mb", stats::peak_rss_mib());
    out
}

impl World {
    /// Disconnect the clients, stop the server and drop the database;
    /// what is left is the directory and the object table.
    fn shut_down(self) -> (TempDir, Arc<Vec<ObjectId>>) {
        drop(self.wires);
        self.handle.shutdown();
        (self.dir, self.oids)
    }
}

/// Stops the server of a world that is dropped unused (set-up is
/// repeated and only the last world is kept).
struct WorldGuard(Option<World>);

impl Drop for WorldGuard {
    fn drop(&mut self) {
        if let Some(w) = self.0.take() {
            w.shut_down();
        }
    }
}

/// The traced run: phase B in four segments (untraced, traced,
/// traced, untraced), the traced segments' stream replayed at the two
/// lower depths, the reopen, and the direct probes.
fn run_traced(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let seg = ((cfg.seconds / 8.0 * RATE_B) as usize / CLIENTS).max(10);

    let (mut guard, _) = timed_setup(cfg, || WorldGuard(Some(build(cfg))));
    let mut w = guard.0.take().expect("world");
    let db = Arc::clone(w.sys.db());
    let mut models = vec![Model::new(); CLIENTS];
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..CLIENTS)
        .map(|c| Tracer::new(false, epoch, c as u32))
        .collect();

    let t0 = Instant::now();
    let b = streams(cfg, 2, seg * 4 + seg / 4 + 1);
    let gen_ns = t0.elapsed().as_nanos() as f64 / (b.len() * b[0].len() * 4) as f64;
    let warm = seg / 4 + 1;
    let mut d = drive_all(
        &mut w.wires,
        &slices(&b, 0, warm),
        None,
        &mut models,
        &mut tracers,
    );
    absorb(&mut out, &mut d);

    let mut plain = Driven::default();
    let mut traced = Driven::default();
    let mut counts = Counts::default();
    for s in 0..4 {
        let on = matches!(s, 1 | 2);
        for t in tracers.iter_mut() {
            t.on = on;
        }
        let before = on.then(|| {
            w.sys.metrics().enable();
            Counts::of(&w.sys.metrics_snapshot())
        });
        let from = warm + s * seg;
        let mut d = drive_all(
            &mut w.wires,
            &slices(&b, from, from + seg),
            Some(RATE_B),
            &mut models,
            &mut tracers,
        );
        if let Some(before) = before {
            counts.add(&Counts::of(&w.sys.metrics_snapshot()).since(&before));
            w.sys.metrics().disable();
        }
        absorb(&mut out, &mut d);
        if on {
            traced.merge(d);
        } else {
            plain.merge(d);
        }
    }
    for t in tracers.iter_mut() {
        t.on = true;
    }
    let wire_us = traced.txn_lat.p50_us();
    out.set(
        "txn_p99_us",
        stats::over_passes_us(&plain.txn_lat.windows(4), 0.99),
    );
    out.set(
        "req_p99_us",
        stats::over_passes_us(&plain.all_requests().windows(4), 0.99),
    );
    out.set(
        "trace.overhead_pct",
        (wire_us / plain.txn_lat.p50_us() - 1.0) * 100.0,
    );
    out.set(
        "load.late_share",
        (plain.late + traced.late) as f64 / (plain.paced + traced.paced).max(1) as f64,
    );
    out.set("load.gen_ns_per_op", gen_ns);
    out.set("server.begin_us", traced.req_lat[0].p50_us());
    out.set("server.get_us", traced.req_lat[1].p50_us());
    out.set("server.set_us", traced.req_lat[2].p50_us());
    out.set("server.commit_us", traced.req_lat[3].p50_us());
    out.set(
        "server.bytes_per_txn",
        counts.server_bytes as f64 / traced.committed.max(1) as f64,
    );
    counts.report(&mut out, traced.committed);
    out.set(
        "storage.forces_per_commit",
        counts.wal_forces as f64 / traced.committed_rw.max(1) as f64,
    );
    // Every read-write transaction takes exactly four locks (2 shared,
    // 2 exclusive); anything beyond that was a snapshot reader's.
    out.set(
        "txn.reader_lock_grants",
        counts.lock_acquisitions as f64 - 4.0 * traced.committed_rw as f64,
    );
    out.check(counts.lock_acquisitions == 4 * traced.committed_rw, || {
        format!(
            "{} lock grants for {} read-write transactions: the read-only share took locks",
            counts.lock_acquisitions, traced.committed_rw
        )
    });
    out.check(
        counts.immediate_runs + counts.deferred_runs + counts.detached_runs == 0,
        || "rules ran on a workload without rules".to_string(),
    );

    // server.ping_rtt_us while the server is still up.
    let mut ping = Samples::default();
    for _ in 0..if cfg.smoke { 50 } else { 2_000 } {
        let q = Instant::now();
        w.wires[0].client.ping().expect("ping");
        ping.push(q.elapsed());
    }
    out.set("server.ping_rtt_us", ping.p50_us());

    // Peel: the traced segments' stream again, one depth down.
    let replay: Vec<Vec<OltpTxn>> = b
        .iter()
        .map(|s| {
            [
                &s[warm + seg..warm + 2 * seg],
                &s[warm + 3 * seg..warm + 4 * seg],
            ]
            .concat()
        })
        .collect();
    let mut embedded: Vec<Embedded> = (0..CLIENTS)
        .map(|_| Embedded {
            db: Arc::clone(&db),
            oids: Arc::clone(&w.oids),
        })
        .collect();
    let mut d = drive_all(
        &mut embedded,
        &slices(&replay, 0, 2 * seg),
        Some(RATE_B),
        &mut models,
        &mut tracers,
    );
    let embedded_us = d.txn_lat.p50_us();
    absorb(&mut out, &mut d);
    probes::oodb_attrs(cfg, &db, &w.oids, &mut out);

    let storage_us = {
        let dir = TempDir::new(&cfg.out, "oltp-sm");
        let sm = Arc::new(
            StorageManager::open(dir.path(), DatabaseConfig::default().pool_frames).expect("open"),
        );
        let seg_id = sm.create_segment("accounts").expect("segment");
        let setup = TxnId::new(1);
        sm.begin(setup).expect("begin");
        let rids: Vec<RecordId> = (0..objects(cfg))
            .map(|_| sm.insert(setup, seg_id, &record(0)).expect("insert"))
            .collect();
        sm.commit(setup).expect("commit");
        let rids = Arc::new(rids);
        let mut apis: Vec<Storage> = (0..CLIENTS)
            .map(|c| Storage {
                sm: Arc::clone(&sm),
                seg: seg_id,
                rids: Arc::clone(&rids),
                next_txn: ((c as u64 + 1) << 40),
            })
            .collect();
        // The storage depth has its own state: fresh models.
        let mut sm_models = vec![Model::new(); CLIENTS];
        let mut d = drive_all(
            &mut apis,
            &slices(&replay, 0, 2 * seg),
            Some(RATE_B),
            &mut sm_models,
            &mut tracers,
        );
        let us = d.txn_lat.p50_us();
        absorb(&mut out, &mut d);
        probes::wal_force(cfg, &sm, seg_id, &mut out);
        us
    };
    out.set("server.peel_us", wire_us - embedded_us);
    out.set("oodb.peel_us", embedded_us - storage_us);
    out.set("storage.peel_us", storage_us);
    eprintln!(
        "peel: wire {wire_us:.1} us = server {:.1} + oodb {:.1} + storage {storage_us:.1}",
        wire_us - embedded_us,
        embedded_us - storage_us
    );

    // Phase C.
    drop(embedded);
    drop(db);
    let (dir, oids) = w.shut_down();
    let r = reopen_and_verify(cfg, &dir, &oids, &models, &mut out);
    out.set("recovery_s", r.recovery_s);
    out.set("storage.recovery_records_scanned", r.scanned as f64);
    out.set(
        "storage.db_bytes_per_object",
        r.data_bytes as f64 / objects(cfg) as f64,
    );

    probes::wire_codec(cfg, &oids, &mut out);
    probes::write_trace(&cfg.out.join("trace_oltp_wire.jsonl"), &tracers, &mut out);
    out
}
