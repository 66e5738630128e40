//! Cross-shard differential oracle: the same seeded workload is driven
//! through a 1-shard reference deployment and through 2/4/8-shard
//! deployments, and every observable must agree:
//!
//! * the synchronous firing log (immediate + deferred rules) — exact
//!   order: those couplings run inline in the raising / committing
//!   transaction, so sharding must not move them;
//! * the detached firing log of **cross-shard composite** rules —
//!   compared as sorted multisets of logical payload ids, because the
//!   detached coupling makes no ordering promise (Table 1);
//! * final object attributes, by logical object index (raw oids differ
//!   across configurations — shard `i` strides its allocator);
//! * the deployment-wide global history's primitive payload sequence;
//! * summed engine statistics across shards.
//!
//! Objects are placed round-robin over shards, each transaction raises
//! its signals on **one** logical object (one shard) and writes an
//! attribute on a *different* object — so with N ≥ 2 most transactions
//! are cross-shard and commit through presumed-abort 2PC, while the
//! event feed order at each composite's owning shard stays
//! deterministic. Composite constituents still span shards: the
//! composite pairs occurrences raised in different transactions on
//! different objects, shipped to the owner by the compositor at commit.
//!
//! All four SNOOP consumption policies are swept; the seed honours
//! `REACH_SEED` so the CI stress matrix replays fresh workloads.

use reach_common::sync::Mutex;
use reach_common::{announce_seed, seed_from_env, ObjectId, SplitMix64};
use reach_core::event::EventSpec;
use reach_core::history::GlobalHistory;
use reach_core::{
    CompositionScope, ConsumptionPolicy, CouplingMode, EventExpr, Lifespan, RuleBuilder,
};
use reach_dist::DistSystem;
use reach_object::{Value, ValueType};
use std::sync::Arc;
use std::time::Duration;

const OBJECTS: usize = 8;
const THRESHOLD: i64 = 700;

fn reading(uid: i64) -> i64 {
    uid & 1023
}

/// One workload step: raise `signals` on logical object `target`, and
/// bump a counter attribute on logical object `touch` (usually on a
/// different shard, forcing a two-phase commit).
struct Step {
    target: usize,
    touch: usize,
    signals: Vec<(bool, i64)>, // (is_alert, uid)
}

fn gen_workload(seed: u64, txns: usize, max_signals: usize) -> Vec<Step> {
    let mut rng = SplitMix64::new(seed);
    let mut next = 0i64;
    let mut uid = |value: i64| {
        next += 1;
        next * 1024 + value
    };
    (0..txns)
        .map(|_| {
            let target = rng.below(OBJECTS);
            let touch = (target + 1 + rng.below(OBJECTS - 1)) % OBJECTS;
            let signals = (0..1 + rng.below(max_signals))
                .map(|_| {
                    if rng.chance(1, 4) {
                        (false, uid(0)) // clear
                    } else {
                        (true, uid(rng.below(1000) as i64)) // alert
                    }
                })
                .collect();
            Step {
                target,
                touch,
                signals,
            }
        })
        .collect()
}

struct Run {
    sync_log: Vec<String>,
    detached_log: Vec<String>,
    alarms: Vec<i64>,
    touches: Vec<i64>,
    history_uids: Vec<i64>,
    stats: (u64, u64, u64),
}

fn run_variant(policy: ConsumptionPolicy, workload: &[Step], shards: u32) -> Run {
    let dist = DistSystem::in_memory(shards).unwrap();
    // The deployment-wide history: one window subscribed to every
    // shard's commit-gated feed, merged by the shared `seq` clock.
    let history = Arc::new(GlobalHistory::default());
    for sys in dist.systems() {
        history.attach(sys.router());
    }
    let sync_log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let detached_log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    // Every shard defines the identical schema, event types and rules
    // in the identical order, so ids align across the deployment.
    let mut classes = Vec::new();
    let mut alert_ty = Vec::new();
    for sys in dist.systems() {
        let db = sys.db();
        let class = db
            .define_class("Sensor")
            .attr("alarms", ValueType::Int, Value::Int(0))
            .attr("touched", ValueType::Int, Value::Int(0))
            .define()
            .unwrap();
        classes.push(class);
        let alert = sys.define_signal("alert").unwrap();
        let clear = sys.define_signal("clear").unwrap();
        alert_ty.push(alert);
        // Three alerts — anywhere in the deployment — complete one
        // composite; completion happens on the owner shard only.
        let surge = sys
            .define_composite(
                "surge",
                EventExpr::History {
                    expr: Arc::new(EventExpr::Primitive(alert)),
                    count: 3,
                },
                CompositionScope::CrossTransaction,
                Lifespan::Interval(Duration::from_secs(3600)),
                policy,
            )
            .unwrap();
        // An alert answered by a clear, possibly in another transaction
        // on another shard.
        let answered = sys
            .define_composite(
                "answered",
                EventExpr::Sequence(vec![
                    EventExpr::Primitive(alert),
                    EventExpr::Primitive(clear),
                ]),
                CompositionScope::CrossTransaction,
                Lifespan::Interval(Duration::from_secs(3600)),
                policy,
            )
            .unwrap();

        {
            let log = Arc::clone(&sync_log);
            sys.define_rule(
                RuleBuilder::new("imm-high")
                    .on(alert)
                    .coupling(CouplingMode::Immediate)
                    .when(|ctx| Ok(reading(ctx.arg(0).as_int()?) >= THRESHOLD))
                    .then(move |ctx| {
                        let oid = ctx.receiver().unwrap();
                        let n = ctx.db.get_attr(ctx.txn, oid, "alarms")?.as_int()? + 1;
                        ctx.db.set_attr(ctx.txn, oid, "alarms", Value::Int(n))?;
                        log.lock()
                            .push(format!("imm id={} alarms={n}", ctx.arg(0).as_int()?));
                        Ok(())
                    }),
            )
            .unwrap();
        }
        {
            let log = Arc::clone(&sync_log);
            sys.define_rule(
                RuleBuilder::new("def-high")
                    .on(alert)
                    .coupling(CouplingMode::Deferred)
                    .when(|ctx| Ok(reading(ctx.arg(0).as_int()?) >= THRESHOLD))
                    .then(move |ctx| {
                        log.lock().push(format!("def id={}", ctx.arg(0).as_int()?));
                        Ok(())
                    }),
            )
            .unwrap();
        }
        // Cross-transaction composites only support the detached family
        // (Table 1), whose execution order is asynchronous — the oracle
        // compares these as sorted multisets.
        for (name, ty) in [("surge", surge), ("answered", answered)] {
            let log = Arc::clone(&detached_log);
            sys.define_rule(
                RuleBuilder::new(name)
                    .on(ty)
                    .coupling(CouplingMode::Detached)
                    .then(move |ctx| {
                        let ids: Vec<i64> = ctx
                            .event
                            .constituents
                            .iter()
                            .map(|c| match c.data.args.first() {
                                Some(v) => v.as_int().unwrap_or(-1),
                                None => -1,
                            })
                            .collect();
                        log.lock().push(format!("{name} of {ids:?}"));
                        Ok(())
                    }),
            )
            .unwrap();
        }
    }

    // Logical objects, round-robin over shards.
    let objects: Vec<ObjectId> = {
        let mut t = dist.begin();
        let oids = (0..OBJECTS)
            .map(|i| {
                let shard = (i as u32) % shards;
                let oid = dist
                    .create_on(&mut t, shard, classes[shard as usize])
                    .unwrap();
                dist.persist(&mut t, oid).unwrap();
                oid
            })
            .collect();
        dist.commit(t).unwrap();
        oids
    };

    for step in workload {
        let mut t = dist.begin();
        for &(is_alert, uid) in &step.signals {
            let name = if is_alert { "alert" } else { "clear" };
            dist.raise_signal(&mut t, name, objects[step.target], vec![Value::Int(uid)])
                .unwrap();
        }
        let touched = objects[step.touch];
        let n = dist
            .get_attr(&mut t, touched, "touched")
            .unwrap()
            .as_int()
            .unwrap();
        dist.set_attr(&mut t, touched, "touched", Value::Int(n + 1))
            .unwrap();
        dist.commit(t).unwrap();
        // Drain cross-shard composition + detached work between
        // transactions so every configuration observes the same
        // committed stream prefix when the next transaction runs.
        dist.wait_quiescent();
    }
    dist.wait_quiescent();

    let (alarms, touches) = {
        let mut t = dist.begin();
        let read = |t: &mut _, attr: &str| -> Vec<i64> {
            objects
                .iter()
                .map(|&oid| dist.get_attr(t, oid, attr).unwrap().as_int().unwrap())
                .collect()
        };
        let alarms = read(&mut t, "alarms");
        let touches = read(&mut t, "touched");
        dist.commit(t).unwrap();
        (alarms, touches)
    };

    // The deployment-wide committed history: primitive payloads in
    // absorption (= seq) order. Composites are excluded — they are
    // stamped when they complete, which legitimately differs between
    // configurations (inline on 1 shard, at commit-time shipping on N).
    let history_uids: Vec<i64> = history
        .snapshot()
        .iter()
        .filter(|occ| {
            dist.shard(0)
                .router()
                .manager(occ.event_type)
                .map(|m| matches!(m.spec, EventSpec::Primitive(_)))
                .unwrap_or(false)
        })
        .filter_map(|occ| occ.data.args.first().and_then(|v| v.as_int().ok()))
        .collect();

    let mut detached = Arc::try_unwrap(detached_log)
        .map(Mutex::into_inner)
        .unwrap_or_else(|l| l.lock().clone());
    detached.sort();
    let stats = dist
        .systems()
        .iter()
        .map(|s| s.stats())
        .fold((0, 0, 0), |(i, d, a), s| {
            (
                i + s.immediate_runs,
                d + s.deferred_runs,
                a + s.actions_executed,
            )
        });
    Run {
        sync_log: Arc::try_unwrap(sync_log)
            .map(Mutex::into_inner)
            .unwrap_or_else(|l| l.lock().clone()),
        detached_log: detached,
        alarms,
        touches,
        history_uids,
        stats,
    }
}

#[test]
fn sharded_firing_matches_single_engine_reference() {
    let base = seed_from_env(0xD1FF_5EED);
    for (p, policy) in ConsumptionPolicy::ALL.into_iter().enumerate() {
        let seed = base.wrapping_mul(31).wrapping_add(p as u64);
        announce_seed("dist_differential", seed);
        let workload = gen_workload(seed, 10, 5);
        let reference = run_variant(policy, &workload, 1);
        assert!(
            !reference.sync_log.is_empty() && !reference.detached_log.is_empty(),
            "seed {seed:#x}: degenerate workload fired no rules"
        );
        for shards in [2u32, 4, 8] {
            let sharded = run_variant(policy, &workload, shards);
            assert_eq!(
                reference.sync_log, sharded.sync_log,
                "{policy:?}, seed {seed:#x}, {shards} shards: synchronous firing diverged"
            );
            assert_eq!(
                reference.detached_log, sharded.detached_log,
                "{policy:?}, seed {seed:#x}, {shards} shards: composite firings diverged"
            );
            assert_eq!(
                reference.alarms, sharded.alarms,
                "{policy:?}, seed {seed:#x}, {shards} shards: alarm attributes diverged"
            );
            assert_eq!(
                reference.touches, sharded.touches,
                "{policy:?}, seed {seed:#x}, {shards} shards: 2PC-written attributes diverged"
            );
            assert_eq!(
                reference.history_uids, sharded.history_uids,
                "{policy:?}, seed {seed:#x}, {shards} shards: global history diverged"
            );
            assert_eq!(
                reference.stats, sharded.stats,
                "{policy:?}, seed {seed:#x}, {shards} shards: summed engine stats diverged"
            );
        }
    }
}

/// A detached rule that keeps failing on one shard of a deployment
/// must surface a dead letter stamped with that shard and the
/// originating application transaction — making `DrainDeadLetters`
/// actionable in a fleet.
#[test]
fn dead_letters_carry_shard_and_origin() {
    let dist = DistSystem::in_memory(2).unwrap();
    let mut classes = Vec::new();
    for sys in dist.systems() {
        let class = sys
            .db()
            .define_class("Probe")
            .attr("x", ValueType::Int, Value::Int(0))
            .define()
            .unwrap();
        classes.push(class);
        let boom = sys.define_signal("boom").unwrap();
        sys.set_retry_policy(reach_core::RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        });
        sys.define_rule(
            RuleBuilder::new("always-fails")
                .on(boom)
                .coupling(CouplingMode::Detached)
                .then(|_| Err(reach_common::ReachError::IoTransient("flaky sink".into()))),
        )
        .unwrap();
    }

    // Place the receiver on shard 1 so the failure is remote from the
    // "default" shard 0.
    let mut t = dist.begin();
    let oid = dist.create_on(&mut t, 1, classes[1]).unwrap();
    dist.persist(&mut t, oid).unwrap();
    dist.commit(t).unwrap();

    let mut t = dist.begin();
    dist.raise_signal(&mut t, "boom", oid, vec![]).unwrap();
    let origin = t.txn_on(1).expect("signal enlisted shard 1");
    dist.commit(t).unwrap();
    dist.wait_quiescent();

    let letters = dist.dead_letters();
    assert_eq!(letters.len(), 1, "exactly one exhausted firing expected");
    let dl = &letters[0];
    assert_eq!(dl.rule_name, "always-fails");
    assert_eq!(dl.shard, 1, "dead letter must carry the failing shard");
    assert_eq!(
        dl.origin,
        Some(origin),
        "dead letter must carry the originating application transaction"
    );
    assert!(dl.attempts >= 2);
}
