//! Full-system differential oracle for the batched routing hot path:
//! the same seeded workload is driven once through the per-reading
//! `invoke` loop and once through `invoke_batch`, and the two runs must
//! produce **byte-identical firing sequences** — rule name and logical
//! event identity, in order.
//!
//! This pins the ordering contract the batched path promises: batching
//! moves *when* after-events are raised (once at batch end instead of
//! once per call) but never their relative order, so immediate rules,
//! deferred queues, composite detection state, and consumption-policy
//! bookkeeping all observe the identical event stream. Covered here:
//!
//! - mid-batch composite completions (`History(3)` against chunk sizes
//!   deliberately coprime with 3, so automata complete inside a batch
//!   and fresh instances open mid-batch);
//! - consumption-policy boundaries (all four SNOOP policies: Recent
//!   supersede, Chronicle FIFO pairing, Continuous multi-instance,
//!   Cumulative absorption — each reclaims/reopens instances mid-batch);
//! - window-close firings (a `Sequence[ping, Negation(report)]`
//!   composite that can only fire when the transaction window closes,
//!   with constituents accumulated *across* batch boundaries);
//! - subtransaction side effects (the immediate rule bumps a persistent
//!   counter; final attribute state must agree).
//!
//! Events are identified by a unique per-call payload id, NOT by the
//! router's raw sequence stamp: composite occurrences draw from the
//! same sequence counter as primitives, and a composite that completes
//! mid-batch is stamped after the whole batch's primitives instead of
//! between them — so raw stamps legitimately differ while the firing
//! *order* (the actual contract) is identical. Detached rules are
//! deliberately excluded: their execution order is asynchronous by the
//! coupling-mode contract (Table 1), so they have no byte-identical
//! guarantee to check. The seed honours `REACH_SEED` so the CI stress
//! matrix replays different workloads per leg.
//!
//! Since the per-event entry points became the batch body applied to a
//! one-element slice, the two variants run the same code, and comparing
//! them only shows that chunking does not matter. What the separate
//! per-event pipeline *did* is pinned by [`GOLDEN`] and
//! [`GOLDEN_ASSOCIATIVE`]: digests of its runs, recorded at the last
//! commit that had it.

use open_oodb::Database;
use reach_common::sync::Mutex;
use reach_common::{announce_seed, seed_from_env, ClassId, ObjectId, SplitMix64};
use reach_core::event::MethodPhase;
use reach_core::{
    CompositionScope, ConsumptionPolicy, CouplingMode, EventExpr, Lifespan, ReachConfig,
    ReachSystem, RuleBuilder,
};
use reach_object::{Value, ValueType};
use std::sync::Arc;

const SENSORS: usize = 4;
/// Payload ids are `call_index * 1024 + reading`; the reading (low 10
/// bits) carries the condition-relevant value, the rest makes every
/// call's payload unique so logs can be compared across runs whose raw
/// sequence stamps differ.
const THRESHOLD: i64 = 700;

fn reading(uid: i64) -> i64 {
    uid & 1023
}

/// One method call in the generated workload; `uid` is the unique
/// payload passed as the first argument either way.
#[derive(Clone, Copy)]
enum Call {
    Report { sensor: usize, uid: i64 },
    Ping { sensor: usize, uid: i64 },
}

/// A seeded workload: transactions of mixed report/ping calls. Pings
/// are sparse, but about half the transactions end on one, so the
/// negation composite both fires at window close and gets invalidated
/// by trailing reports across different transactions.
fn gen_workload(seed: u64, txns: usize, calls_per_txn: usize) -> Vec<Vec<Call>> {
    let mut rng = SplitMix64::new(seed);
    let mut next = 0i64;
    let mut uid = |value: i64| {
        next += 1;
        next * 1024 + value
    };
    (0..txns)
        .map(|_| {
            let mut calls: Vec<Call> = (0..calls_per_txn)
                .map(|_| {
                    let sensor = rng.below(SENSORS);
                    if rng.chance(1, 8) {
                        Call::Ping {
                            sensor,
                            uid: uid(0),
                        }
                    } else {
                        let v = rng.below(1000) as i64;
                        Call::Report {
                            sensor,
                            uid: uid(v),
                        }
                    }
                })
                .collect();
            if rng.chance(1, 2) {
                calls.push(Call::Ping {
                    sensor: rng.below(SENSORS),
                    uid: uid(0),
                });
            }
            calls
        })
        .collect()
}

struct Run {
    log: Vec<String>,
    alarms: Vec<i64>,
    stats: (u64, u64, u64, u64),
}

impl Run {
    /// FNV-1a over the rule log bytes, the final `alarms` and the four
    /// engine counters.
    fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for line in &self.log {
            eat(line.as_bytes());
            eat(b"\n");
        }
        for a in &self.alarms {
            eat(&a.to_le_bytes());
        }
        let (immediate, deferred, actions, cond_false) = self.stats;
        for n in [immediate, deferred, actions, cond_false] {
            eat(&n.to_le_bytes());
        }
        h
    }
}

/// Digests of the per-event reference run (`chunks == None`) of
/// `batched_routing_matches_per_event_firing_sequence`, recorded at
/// commit 78f052f — the last one where `invoke` ran its own pipeline
/// (`Dispatcher::invoke` → `MethodSentry::after` →
/// `Router::raise_method` → `Router::deliver` → `Engine::fire_all`)
/// rather than the batch body at n = 1. One row per base seed (the
/// test's default, then the four CI stress seeds), one column per
/// policy in `ConsumptionPolicy::ALL` order. Any other `REACH_SEED`
/// skips the golden check only.
#[rustfmt::skip]
const GOLDEN: [(u64, [u64; 4]); 5] = [
    (0xBA7C11ED, [0xc13188b8f6b3ac65, 0xe5b54dd5a96f0bb9, 0x3b1f9d5b360a6d5b, 0x378dbda6e288ad71]),
    (12648430, [0x752463052b4589dd, 0x2265a5aeadaaf2c9, 0x962172a0089b8be0, 0xb1fd0d90fceb47a8]),
    (3405691582, [0x98f62ebc7353806c, 0xe6517f46376b56f5, 0x5faaea82ee6b15d1, 0xbc37393f82a69dcf]),
    (2882343476, [0x0797f5ecbd6efad4, 0xd1a97537d7bf0b2c, 0xb4416208ceb074ea, 0xf78e9ebfc0d21fe7]),
    (305419896, [0x8fef6ed1f2f3f083, 0x8c93f002e6bfb3d5, 0xfc98b031543b837b, 0xbb95a5fe2a5f7923]),
];

/// The same for `batch_splitting_is_associative`: the per-event run of
/// its Chronicle workload, per base seed.
const GOLDEN_ASSOCIATIVE: [(u64, u64); 5] = [
    (0xA550C, 0xdf30b798f5a32573),
    (12648430, 0x231f9057772f0b17),
    (3405691582, 0xae103dbdfe43f29a),
    (2882343476, 0x436b88512bdb3a1f),
    (305419896, 0x5c52b415edcac542),
];

fn assert_golden(run: &Run, want: Option<u64>, what: &str) {
    if let Some(want) = want {
        assert_eq!(
            run.digest(),
            want,
            "{what}: diverged from the frozen per-event pipeline"
        );
    }
}

/// Build a fresh world, install the rule set, and drive `workload`
/// through it. `chunks` is `None` for the per-event reference loop, or
/// a cycle of batch sizes for the `invoke_batch` variant.
fn run_variant(policy: ConsumptionPolicy, workload: &[Vec<Call>], chunks: Option<&[usize]>) -> Run {
    let db = Database::in_memory().unwrap();
    let (b, report) = db
        .define_class("Sensor")
        .attr("value", ValueType::Int, Value::Int(0))
        .attr("alarms", ValueType::Int, Value::Int(0))
        .virtual_method("report");
    let (b, ping) = b.virtual_method("ping");
    let class: ClassId = b.define().unwrap();
    db.methods().register_fn(report, |ctx| {
        let v = ctx.arg(0);
        ctx.set("value", v.clone())?;
        Ok(v)
    });
    db.methods().register_fn(ping, |_| Ok(Value::Null));
    let sys = ReachSystem::new(db, ReachConfig::default());
    let db = sys.db();

    let ev_report = sys
        .define_method_event("after-report", class, "report", MethodPhase::After)
        .unwrap();
    let ev_ping = sys
        .define_method_event("after-ping", class, "ping", MethodPhase::After)
        .unwrap();
    // Completes every 3 reports — mid-batch for any chunk size coprime
    // with 3, and straddling chunk boundaries for the small sizes.
    let hist3 = sys
        .define_composite(
            "hist3",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(ev_report)),
                count: 3,
            },
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            policy,
        )
        .unwrap();
    // Fires only at window close (commit), and only for windows where
    // some ping was never followed by a report — constituents gathered
    // across batch boundaries.
    let quiet = sys
        .define_composite(
            "quiet",
            EventExpr::Sequence(vec![
                EventExpr::Primitive(ev_ping),
                EventExpr::Negation(Arc::new(EventExpr::Primitive(ev_report))),
            ]),
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            policy,
        )
        .unwrap();

    let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    // Immediate: logs AND bumps a persistent counter in a
    // subtransaction, so final object state is part of the oracle.
    {
        let log = Arc::clone(&log);
        sys.define_rule(
            RuleBuilder::new("imm-high")
                .on(ev_report)
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
        let log = Arc::clone(&log);
        sys.define_rule(
            RuleBuilder::new("def-high")
                .on(ev_report)
                .coupling(CouplingMode::Deferred)
                .when(|ctx| Ok(reading(ctx.arg(0).as_int()?) >= THRESHOLD))
                .then(move |ctx| {
                    log.lock().push(format!("def id={}", ctx.arg(0).as_int()?));
                    Ok(())
                }),
        )
        .unwrap();
    }
    for (name, ty) in [("hist3", hist3), ("quiet", quiet)] {
        let log = Arc::clone(&log);
        sys.define_rule(
            RuleBuilder::new(name)
                .on(ty)
                .coupling(CouplingMode::Deferred)
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

    // Persistent sensors, created before the measured workload.
    let sensors: Vec<ObjectId> = {
        let t = db.begin().unwrap();
        let oids: Vec<ObjectId> = (0..SENSORS)
            .map(|_| {
                let oid = db.create(t, class).unwrap();
                db.persist(t, oid).unwrap();
                oid
            })
            .collect();
        db.commit(t).unwrap();
        oids
    };

    for txn_calls in workload {
        let t = db.begin().unwrap();
        match chunks {
            None => {
                for call in txn_calls {
                    let (oid, method, uid) = match call {
                        Call::Report { sensor, uid } => (sensors[*sensor], "report", *uid),
                        Call::Ping { sensor, uid } => (sensors[*sensor], "ping", *uid),
                    };
                    db.invoke(t, oid, method, &[Value::Int(uid)]).unwrap();
                }
            }
            Some(sizes) => {
                let mut cycle = sizes.iter().cycle();
                let mut rest = &txn_calls[..];
                while !rest.is_empty() {
                    let n = (*cycle.next().unwrap()).min(rest.len());
                    let (chunk, tail) = rest.split_at(n);
                    rest = tail;
                    let args: Vec<[Value; 1]> = chunk
                        .iter()
                        .map(|c| match c {
                            Call::Report { uid, .. } | Call::Ping { uid, .. } => [Value::Int(*uid)],
                        })
                        .collect();
                    let calls: Vec<(ObjectId, &str, &[Value])> = chunk
                        .iter()
                        .zip(&args)
                        .map(|(c, a)| match c {
                            Call::Report { sensor, .. } => (sensors[*sensor], "report", &a[..]),
                            Call::Ping { sensor, .. } => (sensors[*sensor], "ping", &a[..]),
                        })
                        .collect();
                    db.invoke_batch(t, &calls).unwrap();
                }
            }
        }
        db.commit(t).unwrap();
    }
    sys.wait_quiescent();

    let t = db.begin().unwrap();
    let alarms: Vec<i64> = sensors
        .iter()
        .map(|&oid| db.get_attr(t, oid, "alarms").unwrap().as_int().unwrap())
        .collect();
    db.commit(t).unwrap();
    let s = sys.stats();
    Run {
        log: Arc::try_unwrap(log)
            .map(Mutex::into_inner)
            .unwrap_or_else(|l| l.lock().clone()),
        alarms,
        stats: (
            s.immediate_runs,
            s.deferred_runs,
            s.actions_executed,
            s.conditions_false,
        ),
    }
}

/// Chunk-size cycles for the batched variant. 7 and 5 are coprime with
/// the History(3) period (completions land mid-chunk); 1 degenerates to
/// single-call batches; 64 swallows a whole transaction in one batch.
const CHUNKINGS: [&[usize]; 3] = [&[7, 1, 3, 5], &[2, 13], &[64]];

#[test]
fn batched_routing_matches_per_event_firing_sequence() {
    let base = seed_from_env(0xBA7C11ED);
    let golden = GOLDEN.iter().find(|(seed, _)| *seed == base);
    for (p, policy) in ConsumptionPolicy::ALL.into_iter().enumerate() {
        let seed = base.wrapping_mul(31).wrapping_add(p as u64);
        announce_seed("batched_differential", seed);
        let workload = gen_workload(seed, 6, 48);
        let reference = run_variant(policy, &workload, None);
        assert!(
            !reference.log.is_empty(),
            "seed {seed:#x}: degenerate workload fired no rules"
        );
        let want = golden.map(|(_, digests)| digests[p]);
        assert_golden(&reference, want, &format!("{policy:?}, per-event"));
        for sizes in CHUNKINGS {
            let batched = run_variant(policy, &workload, Some(sizes));
            assert_golden(&batched, want, &format!("{policy:?}, chunks {sizes:?}"));
            assert_eq!(
                reference.log, batched.log,
                "{policy:?}, seed {seed:#x}, chunks {sizes:?}: \
                 batched firing sequence diverged from per-event reference"
            );
            assert_eq!(
                reference.alarms, batched.alarms,
                "{policy:?}, seed {seed:#x}, chunks {sizes:?}: final object state diverged"
            );
            assert_eq!(
                reference.stats, batched.stats,
                "{policy:?}, seed {seed:#x}, chunks {sizes:?}: engine stats diverged"
            );
        }
    }
}

/// The batched path must also agree with itself when a transaction's
/// calls arrive as one batch vs many: associativity of batching.
#[test]
fn batch_splitting_is_associative() {
    let base = seed_from_env(0xA550C);
    let seed = base.wrapping_add(1);
    announce_seed("batched_differential::associative", seed);
    let workload = gen_workload(seed, 4, 32);
    let whole = run_variant(ConsumptionPolicy::Chronicle, &workload, Some(&[64]));
    let split = run_variant(ConsumptionPolicy::Chronicle, &workload, Some(&[3]));
    let want = GOLDEN_ASSOCIATIVE
        .iter()
        .find(|(s, _)| *s == base)
        .map(|(_, digest)| *digest);
    assert_golden(&whole, want, "one batch");
    assert_golden(&split, want, "size-3 batches");
    assert_eq!(
        whole.log, split.log,
        "seed {seed:#x}: one-batch vs size-3 batches diverged"
    );
    assert_eq!(whole.alarms, split.alarms);
}
