//! `dist_2pc`: a closed loop of transfers over a 2-shard `DistSystem`,
//! alternating single-shard and cross-shard.
//!
//! One driver thread; 64 accounts per shard; a transaction invokes the
//! evented methods `debit` on one account and `credit` on another, on
//! the same shard (local commit) or on the two shards (presumed-abort
//! 2PC). A cross-shard `Sequence(debit, credit)` composite completes
//! once per transfer on its owning shard and fires a detached rule
//! (reaction latency).
//!
//! The timed passes run on in-memory shards. On files a cross-shard
//! transfer is four `sync_data` calls and little else, and the
//! sandbox's disk changes speed by a factor of two for minutes at a
//! time: ten runs of one build spread `txn_p50_us` by a quarter of its
//! median, which is the widest bound the manifest may state. In memory the same calls are made and counted (`forces` in
//! the registry) but cost nothing, so the figures are those of the
//! `dist` router / coordinator / compositor and the shards' commit
//! paths. What the forces cost on this disk is a per-layer figure
//! (`probes::dist_layers`, on a file-backed deployment), and a short
//! untimed file-backed pass ends every run to check durability: no
//! participant is in doubt when the shards' files are reopened.
//!
//! Every credit lands on the shard that does *not* own the composite.
//! The owner feeds its own events to a cross-transaction composite when
//! they are raised, but events of other shards when their transaction
//! commits; a credit raised on the owner would reach the composite
//! before its transaction commits (and before a debit shipped from the
//! other shard). With credits always shipped, each transfer completes
//! the composite exactly once, after its commit, which is what lets the
//! run check the count and time the reaction.

use crate::gen::{self, Rng, Transfer};
use crate::probes::{self, Counts};
use crate::stats::{self, Samples};
use crate::trace::{self, Tracer};
use crate::{timed_setup, Marks, Outcome, RunCfg, TempDir};
use reach_common::ObjectId;
use reach_core::event::MethodPhase;
use reach_core::{
    CompositionScope, ConsumptionPolicy, CouplingMode, EventExpr, Lifespan, RuleBuilder,
};
use reach_dist::DistSystem;
use reach_object::{Value, ValueType};
use reach_storage::{FileDisk, StableStorage, StorageManager, WriteAheadLog};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SHARDS: u32 = 2;
pub const PER_SHARD: usize = 64;
const OPENING_BALANCE: i64 = 1_000_000;
const PASSES: usize = 10;
/// Transfers per second of `--seconds` (half of them cross-shard) at
/// the speed of the commit that added the benchmark, 2-core box.
const TXNS_PER_SECOND: f64 = 18_000.0;
/// Transfers of the untimed file-backed pass that ends a run.
const DURABLE_TXNS: usize = 200;

/// Where a deployment keeps its shards.
#[derive(Clone, Copy, PartialEq)]
pub enum Backing {
    Memory,
    Files,
}

pub struct World {
    /// The shards' directory when file-backed.
    dir: Option<TempDir>,
    pub dist: Arc<DistSystem>,
    /// `accounts[shard][i]`.
    pub accounts: Vec<Vec<ObjectId>>,
    /// The shard all credits go to: the one not owning the composite.
    pub credit_shard: u32,
    marks: Arc<Marks>,
    /// How often the composite's rule fired.
    fired: Arc<AtomicU64>,
}

pub fn build(cfg: &RunCfg, txns: usize, backing: Backing) -> World {
    let dir = (backing == Backing::Files).then(|| TempDir::new(&cfg.out, "dist"));
    let dist = match &dir {
        Some(dir) => DistSystem::open(dir.path(), SHARDS),
        None => DistSystem::in_memory(SHARDS),
    }
    .expect("open deployment");
    let marks = Arc::new(Marks::new(txns));
    let fired = Arc::new(AtomicU64::new(0));
    // Every shard defines the same schema, events and rules in the same
    // order, so identifiers align across the deployment.
    let mut classes = Vec::new();
    let mut owner = 0;
    for sys in dist.systems() {
        let db = sys.db();
        let (b, debit) = db
            .define_class("Acct")
            .attr("bal", ValueType::Int, Value::Int(OPENING_BALANCE))
            .virtual_method("debit");
        let (b, credit) = b.virtual_method("credit");
        let class = b.define().expect("class");
        classes.push(class);
        db.methods().register_fn(debit, |ctx| {
            let bal = ctx.get("bal")?.as_int()? - ctx.arg(0).as_int()?;
            ctx.set("bal", Value::Int(bal))?;
            Ok(Value::Null)
        });
        db.methods().register_fn(credit, |ctx| {
            let bal = ctx.get("bal")?.as_int()? + ctx.arg(0).as_int()?;
            ctx.set("bal", Value::Int(bal))?;
            Ok(Value::Null)
        });
        let debited = sys
            .define_method_event("debited", class, "debit", MethodPhase::After)
            .expect("event");
        let credited = sys
            .define_method_event("credited", class, "credit", MethodPhase::After)
            .expect("event");
        let transfer = sys
            .define_composite(
                "transfer",
                EventExpr::Sequence(vec![
                    EventExpr::Primitive(debited),
                    EventExpr::Primitive(credited),
                ]),
                CompositionScope::CrossTransaction,
                Lifespan::Interval(Duration::from_secs(3600)),
                ConsumptionPolicy::Chronicle,
            )
            .expect("composite");
        // `DistSystem` gates composition on `event_type % N == shard`.
        owner = (transfer.raw() % SHARDS as u64) as u32;
        let (m, f) = (Arc::clone(&marks), Arc::clone(&fired));
        sys.define_rule(
            RuleBuilder::new("transfer-done")
                .on(transfer)
                .coupling(CouplingMode::Detached)
                .then(move |ctx| {
                    f.fetch_add(1, Ordering::Relaxed);
                    // The terminating constituent is the credit; its
                    // second argument is the transfer's sequence number.
                    if let Some(seq) = ctx
                        .event
                        .constituents
                        .last()
                        .and_then(|c| c.data.args.get(1))
                        .and_then(|v| v.as_int().ok())
                    {
                        m.action_started(seq as usize);
                    }
                    Ok(())
                }),
        )
        .expect("rule");
    }
    let mut t = dist.begin();
    let accounts: Vec<Vec<ObjectId>> = (0..SHARDS)
        .map(|s| {
            (0..PER_SHARD)
                .map(|_| {
                    let oid = dist
                        .create_on(&mut t, s, classes[s as usize])
                        .expect("create");
                    dist.persist(&mut t, oid).expect("persist");
                    oid
                })
                .collect()
        })
        .collect();
    dist.commit(t).expect("setup commit");
    World {
        dir,
        dist,
        accounts,
        credit_shard: 1 - owner,
        marks,
        fired,
    }
}

/// The transfers of pass `pass` (0 is the warm-up), numbered from
/// `first`: a pure function of the seed.
pub fn pass_transfers(
    w: &World,
    seed: u64,
    pass: usize,
    first: usize,
    len: usize,
) -> Vec<Transfer> {
    gen::transfers(
        &mut Rng::stream(seed, pass as u64),
        w.credit_shard,
        PER_SHARD,
        first,
        len,
    )
}

#[derive(Default)]
struct Pass {
    elapsed: f64,
    committed: usize,
    cross_lat: Samples,
    local_lat: Samples,
    invoke_lat: Samples,
    failed: u64,
    problems: Vec<String>,
}

fn run_pass(
    w: &World,
    ts: &[Transfer],
    first: usize,
    balances: &mut [Vec<i64>],
    tr: &mut Tracer,
) -> Pass {
    let mut p = Pass::default();
    let start = Instant::now();
    for (i, x) in ts.iter().enumerate() {
        let seq = first + i;
        let from = w.accounts[x.from.0 as usize][x.from.1];
        let to = w.accounts[x.to.0 as usize][x.to.1];
        let args = [Value::Int(x.amount), Value::Int(seq as i64)];
        let t0 = Instant::now();
        let mut t = w.dist.begin();
        let run = (|| {
            w.dist.invoke(&mut t, from, "debit", &args)?;
            let t1 = Instant::now();
            w.dist.invoke(&mut t, to, "credit", &args)?;
            Ok::<_, reach_common::ReachError>((t1, Instant::now()))
        })();
        let (t1, t2) = match run {
            Ok(times) => times,
            Err(e) => {
                let _ = w.dist.abort(t);
                p.failed += 1;
                p.problems.push(format!("transfer {seq}: {e}"));
                continue;
            }
        };
        w.marks.commit_called(seq);
        let id = t.parts().first().map_or(0, |(_, t)| t.raw());
        match w.dist.commit(t) {
            Ok(gid) => {
                let t3 = Instant::now();
                if gid.is_some() != x.cross_shard() {
                    p.failed += 1;
                    p.problems.push(format!(
                        "transfer {seq}: cross-shard {} but gid {gid:?}",
                        x.cross_shard()
                    ));
                    continue;
                }
                p.committed += 1;
                balances[x.from.0 as usize][x.from.1] -= x.amount;
                balances[x.to.0 as usize][x.to.1] += x.amount;
                if x.cross_shard() {
                    &mut p.cross_lat
                } else {
                    &mut p.local_lat
                }
                .push(t3 - t0);
                p.invoke_lat.push(t1 - t0);
                p.invoke_lat.push(t2 - t1);
                if tr.on {
                    let span = tr.open(
                        if x.cross_shard() {
                            "txn.cross"
                        } else {
                            "txn.local"
                        },
                        id,
                        t0,
                    );
                    tr.call("dist.invoke", span, id, t0, t1);
                    tr.call("dist.invoke", span, id, t1, t2);
                    tr.call("dist.commit", span, id, t2, t3);
                    tr.close(span, t3);
                }
            }
            Err(e) => {
                p.failed += 1;
                p.problems.push(format!("transfer {seq} commit: {e}"));
            }
        }
    }
    let t0 = Instant::now();
    w.dist.wait_quiescent();
    let end = Instant::now();
    tr.call("dist.wait_quiescent", trace::NONE, 0, t0, end);
    p.elapsed = (end - start).as_secs_f64();
    p
}

fn snapshot(dist: &DistSystem) -> Counts {
    let mut all = Counts::default();
    for sys in dist.systems() {
        all.add(&Counts::of(&sys.metrics_snapshot()));
    }
    all
}

/// Correctness of a finished world: money is conserved, every account
/// holds what the generated stream says, every transfer completed the
/// composite exactly once and after its commit, nothing is a dead
/// letter. Returns the reaction latencies of the transfers from `warm`.
fn check_world(
    w: &World,
    balances: &[Vec<i64>],
    warm: usize,
    total: usize,
    out: &mut Outcome,
) -> Samples {
    let mut t = w.dist.begin();
    let mut sum = 0i64;
    for (s, shard) in w.accounts.iter().enumerate() {
        for (i, oid) in shard.iter().enumerate() {
            let got = w
                .dist
                .get_attr(&mut t, *oid, "bal")
                .and_then(|v| v.as_int());
            sum += got.clone().unwrap_or(0);
            out.check(got == Ok(balances[s][i]), || {
                format!(
                    "account {s}/{i} holds {got:?}, the stream says {}",
                    balances[s][i]
                )
            });
        }
    }
    w.dist.commit(t).expect("commit");
    let opening = OPENING_BALANCE * (SHARDS as usize * PER_SHARD) as i64;
    out.check(sum == opening, || {
        format!("balances sum to {sum}, opened with {opening}")
    });
    let fired = w.fired.load(Ordering::Relaxed);
    out.check(fired == total as u64, || {
        format!("{fired} transfer composites for {total} transfers")
    });
    let (react, unreacted) = w.marks.reactions(warm..total);
    out.check(unreacted == 0, || {
        format!("{unreacted} transfers whose detached rule did not start after commit")
    });
    out.check(w.dist.dead_letters().is_empty(), || {
        "dead letters".to_string()
    });
    react
}

/// The untimed pass on files: the same checks, and no participant is
/// left in doubt when the shards' files are opened again.
fn check_durable(cfg: &RunCfg, out: &mut Outcome) {
    let n = if cfg.smoke { 20 } else { DURABLE_TXNS };
    let w = build(cfg, n, Backing::Files);
    let ts = pass_transfers(&w, cfg.seed, PASSES + 1, 0, n);
    let mut balances = vec![vec![OPENING_BALANCE; PER_SHARD]; SHARDS as usize];
    let mut tracer = Tracer::new(false, Instant::now(), 0);
    let mut p = run_pass(&w, &ts, 0, &mut balances, &mut tracer);
    out.absorb(p.committed as u64, p.failed, &mut p.problems);
    check_world(&w, &balances, 0, n, out);
    let World { dir, dist, .. } = w;
    drop(dist);
    let dir = dir.expect("file-backed");
    for s in 0..SHARDS {
        let shard = dir.path().join(format!("shard-{s}"));
        let in_doubt = (|| {
            let disk: Arc<dyn StableStorage> = Arc::new(FileDisk::open(&shard.join("data.db"))?);
            let wal = Arc::new(WriteAheadLog::open(&shard.join("wal.log"))?);
            let (_, report) = StorageManager::open_with(disk, wal, 256)?;
            Ok::<_, reach_common::ReachError>(report.in_doubt.len())
        })();
        out.check(in_doubt == Ok(0), || {
            format!("shard {s} reopened with in-doubt transactions: {in_doubt:?}")
        });
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let per_pass = ((cfg.seconds * TXNS_PER_SECOND) as usize / PASSES).max(20);
    let warm = per_pass / 4 + 2;
    let total = warm + per_pass * PASSES;

    let (w, setup_s) = timed_setup(cfg, || build(cfg, total, Backing::Memory));
    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, epoch, 0);
    let mut balances = vec![vec![OPENING_BALANCE; PER_SHARD]; SHARDS as usize];
    let absorb = |out: &mut Outcome, p: &mut Pass| {
        out.absorb(p.committed as u64, p.failed, &mut p.problems);
    };

    let mut p = run_pass(
        &w,
        &pass_transfers(&w, cfg.seed, 0, 0, warm),
        0,
        &mut balances,
        &mut tracer,
    );
    absorb(&mut out, &mut p);

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut cross_lat: Vec<Samples> = Vec::new();
    let mut local_lat: Vec<Samples> = Vec::new();
    let mut invoke_lat: Vec<Samples> = Vec::new();
    let mut counts = Counts::default();
    let mut traced_txns = 0u64;
    let mut gen_ns = Vec::new();
    for pass in 0..PASSES {
        let first = warm + pass * per_pass;
        let t0 = Instant::now();
        let ts = pass_transfers(&w, cfg.seed, pass + 1, first, per_pass);
        gen_ns.push(t0.elapsed().as_nanos() as f64 / ts.len() as f64);
        let on = cfg.trace && matches!(pass % 4, 1 | 2);
        tracer.on = on;
        let before = on.then(|| {
            for sys in w.dist.systems() {
                sys.metrics().enable();
            }
            snapshot(&w.dist)
        });
        let mut p = run_pass(&w, &ts, first, &mut balances, &mut tracer);
        if let Some(before) = before {
            counts.add(&snapshot(&w.dist).since(&before));
            for sys in w.dist.systems() {
                sys.metrics().disable();
            }
            traced_txns += p.committed as u64;
        }
        let rate = p.committed as f64 / p.elapsed;
        if on {
            traced.push(rate);
        } else {
            plain.push(rate);
            cross_lat.push(std::mem::take(&mut p.cross_lat));
            local_lat.push(std::mem::take(&mut p.local_lat));
            invoke_lat.push(std::mem::take(&mut p.invoke_lat));
        }
        absorb(&mut out, &mut p);
    }
    let react = check_world(&w, &balances, warm, total, &mut out);
    drop(w);
    check_durable(cfg, &mut out);

    if !cfg.trace {
        out.set("setup_s", setup_s);
        out.set("txn_per_s", stats::median(&mut plain));
        out.set("txn_p50_us", stats::over_passes_us(&cross_lat, 0.50));
        out.set("req_p50_us", stats::over_passes_us(&invoke_lat, 0.50));
        out.set("peak_rss_mb", stats::peak_rss_mib());
        return out;
    }

    let plain_rate = stats::median(&mut plain);
    let traced_rate = stats::median(&mut traced);
    out.set("events_per_s", plain_rate * 2.0);
    out.set("txn_p99_us", stats::over_passes_us(&cross_lat, 0.99));
    out.set("req_p99_us", stats::over_passes_us(&invoke_lat, 0.99));
    out.set("react_p50_us", react.p50_us());
    out.set("react_p99_us", react.p99_us());
    out.set(
        "trace.overhead_pct",
        (plain_rate / traced_rate - 1.0) * 100.0,
    );
    out.set("load.gen_ns_per_op", stats::median(&mut gen_ns));
    out.set(
        "dist.local_txn_p50_us",
        stats::over_passes_us(&local_lat, 0.50),
    );
    counts.report(&mut out, traced_txns);
    out.set(
        "storage.forces_per_commit",
        counts.wal_forces as f64 / traced_txns.max(1) as f64,
    );
    probes::dist_layers(cfg, &mut out);
    probes::write_trace(&cfg.out.join("trace_dist_2pc.jsonl"), &[tracer], &mut out);
    out
}
