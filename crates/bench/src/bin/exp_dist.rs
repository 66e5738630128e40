//! Experiment E22 — the price of distribution (§7 outlook).
//!
//! For each deployment size (2/4/8 shards) the same update-plus-signal
//! transaction runs in two placements:
//!
//! * **single-shard** — the attribute write and the raised signal land
//!   on one shard, so commit is the ordinary local single-force path;
//! * **cross-shard** — the transaction writes attributes on two
//!   different shards, so commit goes through presumed-abort two-phase
//!   commit (one vote round plus one forced `CoordCommit`).
//!
//! The gap between the two latency columns is the measured cost of the
//! extra WAL forces and the coordinator round; events/s counts signals
//! flowing through the firing pipeline during each phase. Invariants
//! are asserted, not eyeballed: single-shard commits must NOT produce a
//! 2PC gid, cross-shard commits MUST, every raised signal must fire its
//! immediate rule exactly once, and no dead letters may appear.
//!
//! ```sh
//! cargo run --release -p reach-bench --bin exp_dist [--smoke]
//! ```

use reach_bench::percentile;
use reach_common::ObjectId;
use reach_core::{CouplingMode, RuleBuilder};
use reach_dist::{DistSystem, DistTxn};
use reach_object::{Value, ValueType};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct PhaseResult {
    mode: &'static str,
    commits: u64,
    elapsed_s: f64,
    p50_us: f64,
    p99_us: f64,
    signals: u64,
}

impl PhaseResult {
    fn commits_per_s(&self) -> f64 {
        self.commits as f64 / self.elapsed_s
    }
    fn events_per_s(&self) -> f64 {
        self.signals as f64 / self.elapsed_s
    }
}

/// One deployment: `shards` engines, one "Acct" object per shard, a
/// "tick" signal whose immediate rule counts firings.
struct Deployment {
    dist: Arc<DistSystem>,
    objects: Vec<ObjectId>,
    fired: Arc<AtomicU64>,
}

fn build(shards: u32) -> Deployment {
    let dist = DistSystem::in_memory(shards).expect("deployment");
    let fired = Arc::new(AtomicU64::new(0));
    let mut classes = Vec::new();
    for sys in dist.systems() {
        let class = sys
            .db()
            .define_class("Acct")
            .attr("v", ValueType::Int, Value::Int(0))
            .define()
            .expect("class");
        classes.push(class);
        let tick = sys.define_signal("tick").expect("signal");
        let fired = Arc::clone(&fired);
        sys.define_rule(
            RuleBuilder::new("count-tick")
                .on(tick)
                .coupling(CouplingMode::Immediate)
                .then(move |_| {
                    fired.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }),
        )
        .expect("rule");
    }
    let mut t = dist.begin();
    let objects: Vec<ObjectId> = (0..shards)
        .map(|s| {
            let oid = dist
                .create_on(&mut t, s, classes[s as usize])
                .expect("create");
            dist.persist(&mut t, oid).expect("persist");
            oid
        })
        .collect();
    dist.commit(t).expect("setup commit");
    Deployment {
        dist,
        objects,
        fired,
    }
}

/// Run `txns` transactions, each raising `signals_per_txn` ticks on its
/// primary object, writing its attribute, and — when `cross` — also
/// writing the attribute of an object on the *next* shard, forcing a
/// two-phase commit.
fn run_phase(dep: &Deployment, txns: u64, signals_per_txn: u64, cross: bool) -> PhaseResult {
    let dist = &dep.dist;
    let shards = dist.shard_count();
    let mut lat_us = Vec::with_capacity(txns as usize);
    let fired_before = dep.fired.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for i in 0..txns {
        let primary = dep.objects[(i % shards as u64) as usize];
        let t_start = Instant::now();
        let mut t: DistTxn = dist.begin();
        for k in 0..signals_per_txn {
            dist.raise_signal(
                &mut t,
                "tick",
                primary,
                vec![Value::Int((i * 8 + k) as i64)],
            )
            .expect("raise");
        }
        dist.set_attr(&mut t, primary, "v", Value::Int(i as i64))
            .expect("set primary");
        if cross {
            let secondary = dep.objects[((i + 1) % shards as u64) as usize];
            dist.set_attr(&mut t, secondary, "v", Value::Int(i as i64))
                .expect("set secondary");
        }
        let gid = dist.commit(t).expect("commit");
        lat_us.push(t_start.elapsed().as_secs_f64() * 1e6);
        if cross {
            assert!(gid.is_some(), "cross-shard commit skipped 2PC (txn {i})");
        } else {
            assert!(gid.is_none(), "single-shard commit ran 2PC (txn {i})");
        }
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    dist.wait_quiescent();
    let signals = txns * signals_per_txn;
    let fired = dep.fired.load(Ordering::Relaxed) - fired_before;
    assert_eq!(
        fired, signals,
        "immediate rule fired {fired} times for {signals} signals"
    );
    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    PhaseResult {
        mode: if cross { "cross" } else { "single" },
        commits: txns,
        elapsed_s,
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        signals,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (txns, signals_per_txn, shard_counts): (u64, u64, &[u32]) = if smoke {
        (300, 2, &[2, 4])
    } else {
        (2_000, 2, &[2, 4, 8])
    };

    println!("E22: single-shard vs cross-shard (2PC) commit, {txns} txns per phase");
    println!(
        "{:>6} {:>7} {:>11} {:>9} {:>9} {:>10}",
        "shards", "mode", "commits/s", "p50µs", "p99µs", "events/s"
    );

    let mut headline_cross_per_s = 0.0f64;
    let mut headline_events_per_s = 0.0f64;
    for &shards in shard_counts {
        let dep = build(shards);
        let single = run_phase(&dep, txns, signals_per_txn, false);
        let cross = run_phase(&dep, txns, signals_per_txn, true);
        for r in [&single, &cross] {
            println!(
                "{:>6} {:>7} {:>11.0} {:>9.1} {:>9.1} {:>10.0}",
                shards,
                r.mode,
                r.commits_per_s(),
                r.p50_us,
                r.p99_us,
                r.events_per_s()
            );
        }
        let letters = dep.dist.dead_letters();
        assert!(letters.is_empty(), "dead letters: {letters:?}");
        if shards == 2 {
            headline_cross_per_s = cross.commits_per_s();
            headline_events_per_s = cross.events_per_s();
        }
    }

    println!(
        "{} ok: 2-shard cross-shard commits at {:.0}/s ({:.0} events/s) with \
         every invariant holding",
        if smoke { "smoke" } else { "full" },
        headline_cross_per_s,
        headline_events_per_s
    );
}
