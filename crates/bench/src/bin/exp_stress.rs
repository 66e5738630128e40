//! Experiment E18 — concurrency correctness stress harness.
//!
//! Four oracles, one binary, all driven by the schedule-perturbing
//! sync layer (`reach_common::sync`, built with the `sched` feature):
//!
//! 1. **Trace determinism** — the same seed must produce the identical
//!    per-thread acquisition trace twice (the replay guarantee the
//!    whole harness rests on);
//! 2. **Serializability sweep** — randomized lock-manager workloads
//!    under perturbed schedules; every committed history must be
//!    conflict-serializable (checked by `reach_txn::serial`);
//! 3. **Differential algebra fuzz** — random event-algebra expressions
//!    and random streams through the real compositor and the naive
//!    reference interpreter (`reach_core::oracle`); detections must be
//!    identical per arrival and at window close, for all four SNOOP
//!    consumption policies;
//! 4. **Causal-dependency oracle** — triggers commit or abort on several
//!    threads while their parallel, sequential and exclusive causally
//!    dependent rules fire; every rule transaction must commit exactly
//!    once when Table 1 says it may (parallel and sequential: the
//!    trigger committed; exclusive: it aborted) and never otherwise.
//!
//! Exits nonzero on the first discrepancy, printing the seed to replay.
//!
//! ```sh
//! cargo run --release -p reach-bench --features sched --bin exp_stress -- \
//!     [--seed N] [--schedules N] [--streams N] [--smoke]
//! ```

use open_oodb::Database;
use reach_common::sync::sched;
use reach_common::{EventTypeId, ObjectId, SplitMix64, TimePoint, Timestamp, TxnId};
use reach_core::compositor::Compositor;
use reach_core::event::{EventData, EventOccurrence, MethodPhase};
use reach_core::oracle::OracleCompositor;
use reach_core::{
    CompositionScope, ConsumptionPolicy, CouplingMode, EventExpr, Lifespan, ReachSystem,
    RuleBuilder,
};
use reach_object::{Value, ValueType};
use reach_txn::serial::{run_lock_workload, WorkloadCfg};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut base_seed: u64 = 0x5EED_0000;
    let mut schedules: usize = 64;
    let mut streams: usize = 200;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                base_seed = args
                    .next()
                    .and_then(|s| parse_u64(&s))
                    .expect("--seed needs a u64 (decimal or 0x-hex)");
            }
            "--schedules" => {
                schedules = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--schedules needs a usize");
            }
            "--streams" => {
                streams = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--streams needs a usize");
            }
            "--smoke" => {
                schedules = 8;
                streams = 32;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    println!(
        "== E18 concurrency stress: seed={base_seed:#x} schedules={schedules} streams={streams}"
    );
    let t0 = Instant::now();
    check_trace_determinism(base_seed);
    let committed = serializability_sweep(base_seed, schedules);
    let firings = differential_fuzz(base_seed, streams);
    let dependents = causal_oracle(base_seed, schedules);
    println!(
        "E18 OK in {:.1?}: {schedules} schedules serializable ({committed} commits), \
         {streams} streams x 4 policies differentially equal ({firings} firings compared), \
         {schedules} schedules of causally dependent rules as Table 1 says \
         ({dependents} rule commits)",
        t0.elapsed()
    );
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// A fixed 4-thread lock-step workload; equal seeds must leave equal
/// per-slot traces (and equal fingerprints) behind.
fn check_trace_determinism(seed: u64) {
    let run = || {
        sched::run_seeded(seed, || {
            let counter = Arc::new(AtomicU64::new(0));
            let lock = Arc::new(reach_common::sync::Mutex::new(0u64));
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let counter = Arc::clone(&counter);
                    let lock = Arc::clone(&lock);
                    std::thread::spawn(move || {
                        sched::register_thread(t);
                        for _ in 0..50 {
                            *lock.lock() += 1;
                            counter.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            counter.load(Ordering::Relaxed)
        })
    };
    let (n1, trace1) = run();
    let (n2, trace2) = run();
    assert_eq!(n1, 200);
    assert_eq!(n2, 200);
    let (by1, by2) = (sched::by_slot(&trace1), sched::by_slot(&trace2));
    if by1 != by2 {
        eprintln!(
            "FAIL: seed {seed:#x} produced different acquisition traces \
             (fingerprints {:#x} vs {:#x})",
            sched::fingerprint(&trace1),
            sched::fingerprint(&trace2)
        );
        std::process::exit(1);
    }
    println!(
        "trace determinism: {} events, fingerprint {:#x}, stable across runs",
        trace1.len(),
        sched::fingerprint(&trace1)
    );
}

fn serializability_sweep(base_seed: u64, schedules: usize) -> u64 {
    let mut committed_total = 0;
    for i in 0..schedules as u64 {
        let seed = base_seed.wrapping_add(i);
        let ((history, stats), _) =
            sched::run_seeded(seed, || run_lock_workload(seed, WorkloadCfg::default()));
        committed_total += stats.committed;
        if let Some(cycle) = history.conflict_cycle() {
            eprintln!(
                "FAIL: non-serializable history, replay with --seed {seed:#x} --schedules 1 \
                 (cycle {cycle:?}, committed={} deadlocks={} timeouts={})",
                stats.committed, stats.deadlocks, stats.timeouts
            );
            std::process::exit(1);
        }
    }
    if committed_total == 0 {
        eprintln!("FAIL: serializability sweep committed nothing; workload broken");
        std::process::exit(1);
    }
    committed_total
}

/// Random expression, depth-bounded; combinators get 2–3 parts.
fn gen_expr(rng: &mut SplitMix64, depth: u32) -> EventExpr {
    let prim =
        |rng: &mut SplitMix64| EventExpr::Primitive(EventTypeId::new(1 + rng.below(4) as u64));
    if depth == 0 || rng.chance(2, 5) {
        return prim(rng);
    }
    let parts = |rng: &mut SplitMix64, depth: u32| {
        let n = 2 + rng.below(2);
        (0..n).map(|_| gen_expr(rng, depth - 1)).collect::<Vec<_>>()
    };
    match rng.below(6) {
        0 => EventExpr::Sequence(parts(rng, depth)),
        1 => EventExpr::Conjunction(parts(rng, depth)),
        2 => EventExpr::Disjunction(parts(rng, depth)),
        3 => EventExpr::Negation(Arc::new(gen_expr(rng, depth - 1))),
        4 => EventExpr::Closure(Arc::new(gen_expr(rng, depth - 1))),
        _ => EventExpr::History {
            expr: Arc::new(gen_expr(rng, depth - 1)),
            count: 1 + rng.below(3) as u32,
        },
    }
}

fn differential_fuzz(base_seed: u64, streams: usize) -> u64 {
    let mut compared = 0u64;
    for i in 0..streams as u64 {
        let seed = base_seed.wrapping_add(0x00D1_FF00).wrapping_add(i);
        let mut rng = SplitMix64::new(seed);
        let expr = gen_expr(&mut rng, 2);
        let len = rng.below(40);
        let stream: Vec<u64> = (0..len).map(|_| 1 + rng.below(4) as u64).collect();
        for policy in ConsumptionPolicy::ALL {
            compared += check_stream(&expr, policy, &stream, seed);
        }
    }
    compared
}

fn check_stream(expr: &EventExpr, policy: ConsumptionPolicy, stream: &[u64], seed: u64) -> u64 {
    let real = Compositor::new(
        expr.clone(),
        CompositionScope::SameTransaction,
        Lifespan::Transaction,
        policy,
    );
    let mut oracle = OracleCompositor::new(expr.clone(), policy);
    let mut fired = 0u64;
    let as_seqs = |cs: &[Arc<EventOccurrence>]| cs.iter().map(|o| o.seq.raw()).collect::<Vec<_>>();
    for (i, ty) in stream.iter().enumerate() {
        let o = Arc::new(EventOccurrence {
            event_type: EventTypeId::new(*ty),
            seq: Timestamp::new(i as u64 + 1),
            at: TimePoint::from_millis(i as u64 + 1),
            txn: Some(TxnId::new(1)),
            top_txn: Some(TxnId::new(1)),
            data: EventData::default(),
            constituents: Vec::new(),
        });
        let r: Vec<Vec<u64>> = real
            .feed(&o)
            .iter()
            .map(|c| as_seqs(&c.constituents))
            .collect();
        let e: Vec<Vec<u64>> = oracle.feed(&o).iter().map(|f| as_seqs(f)).collect();
        fired += r.len() as u64;
        if r != e {
            eprintln!(
                "FAIL: {policy:?} diverged at arrival {i} of stream seed {seed:#x}\n\
                 expr: {expr:?}\n real: {r:?}\n oracle: {e:?}"
            );
            std::process::exit(1);
        }
    }
    let r: Vec<Vec<u64>> = real
        .close_txn(TxnId::new(1))
        .iter()
        .map(|c| as_seqs(&c.constituents))
        .collect();
    let e: Vec<Vec<u64>> = oracle.close().iter().map(|f| as_seqs(f)).collect();
    fired += r.len() as u64;
    if r != e {
        eprintln!(
            "FAIL: {policy:?} diverged at window close of stream seed {seed:#x}\n\
             expr: {expr:?}\n real: {r:?}\n oracle: {e:?}"
        );
        std::process::exit(1);
    }
    fired
}

/// Threads ending triggers concurrently, and triggers per thread, in
/// one causal-oracle schedule.
const CAUSAL_THREADS: usize = 4;
const CAUSAL_TRIGGERS: usize = 8;
/// The causally dependent modes, in ledger-slot order.
const CAUSAL_MODES: [CouplingMode; 3] = [
    CouplingMode::ParallelCausallyDependent,
    CouplingMode::SequentialCausallyDependent,
    CouplingMode::ExclusiveCausallyDependent,
];

/// Oracle 4 over `schedules` perturbed schedules; the number of rule
/// transactions that committed.
fn causal_oracle(base_seed: u64, schedules: usize) -> u64 {
    let mut committed = 0;
    for i in 0..schedules as u64 {
        let replay = base_seed.wrapping_add(i);
        let seed = replay.wrapping_add(0xCA05_0000);
        let (n, _) = sched::run_seeded(seed, || causal_schedule(seed, replay));
        committed += n;
    }
    committed
}

/// One schedule: each trigger pokes its own object, naming its ledger
/// row, and then commits or aborts (a pure function of the seed). Each
/// mode's rule increments the row's counter for that mode in its own
/// transaction, so a counter is the number of times that rule
/// transaction committed.
fn causal_schedule(seed: u64, replay: u64) -> u64 {
    let db = Database::in_memory().expect("database");
    let (b, poke) = db
        .define_class("Trigger")
        .attr("v", ValueType::Int, Value::Int(0))
        .virtual_method("poke");
    let trigger_class = b.define().expect("trigger class");
    db.methods().register_fn(poke, |ctx| {
        ctx.set("v", ctx.arg(0))?;
        Ok(Value::Null)
    });
    let ledger_class = db
        .define_class("Ledger")
        .attr("n", ValueType::Int, Value::Int(0))
        .define()
        .expect("ledger class");
    let rows = CAUSAL_THREADS * CAUSAL_TRIGGERS;
    let t = db.begin().expect("begin");
    let create = |class| {
        let oid = db.create(t, class).expect("create");
        db.persist(t, oid).expect("persist");
        oid
    };
    let triggers: Vec<ObjectId> = (0..rows).map(|_| create(trigger_class)).collect();
    let ledger: Arc<Vec<[ObjectId; 3]>> = Arc::new(
        (0..rows)
            .map(|_| [0; 3].map(|_| create(ledger_class)))
            .collect(),
    );
    db.commit(t).expect("commit set-up");
    let sys = ReachSystem::new(Arc::clone(&db), Default::default());
    let ev = sys
        .define_method_event("poked", trigger_class, "poke", MethodPhase::After)
        .expect("event");
    for (slot, mode) in CAUSAL_MODES.into_iter().enumerate() {
        let ledger = Arc::clone(&ledger);
        sys.define_rule(
            RuleBuilder::new(&format!("{mode:?}"))
                .on(ev)
                .coupling(mode)
                .then(move |ctx| {
                    let oid = ledger[ctx.arg(0).as_int()? as usize][slot];
                    let n = ctx.db.get_attr(ctx.txn, oid, "n")?.as_int()?;
                    ctx.db.set_attr(ctx.txn, oid, "n", Value::Int(n + 1))
                }),
        )
        .expect("rule");
    }
    let mut rng = SplitMix64::new(seed);
    let commits: Vec<bool> = (0..rows).map(|_| rng.chance(1, 2)).collect();
    std::thread::scope(|scope| {
        for thread in 0..CAUSAL_THREADS {
            let (db, triggers, commits) = (&db, &triggers, &commits);
            scope.spawn(move || {
                for row in (thread * CAUSAL_TRIGGERS..).take(CAUSAL_TRIGGERS) {
                    let t = db.begin().expect("begin trigger");
                    db.invoke(t, triggers[row], "poke", &[Value::Int(row as i64)])
                        .expect("poke");
                    if commits[row] {
                        db.commit(t).expect("commit trigger");
                    } else {
                        db.abort(t).expect("abort trigger");
                    }
                }
            });
        }
    });
    sys.wait_quiescent();
    let r = db.begin_read_only().expect("reader");
    let mut committed = 0;
    for (row, slots) in ledger.iter().enumerate() {
        for (slot, mode) in CAUSAL_MODES.into_iter().enumerate() {
            let n = db.get_attr(r, slots[slot], "n").expect("read ledger");
            let may_commit = commits[row] != (mode == CouplingMode::ExclusiveCausallyDependent);
            if n != Value::Int(may_commit as i64) {
                eprintln!(
                    "FAIL: {mode:?} rule committed {n:?} times after its trigger {}, \
                     replay with --seed {replay:#x} --schedules 1",
                    if commits[row] { "committed" } else { "aborted" },
                );
                std::process::exit(1);
            }
            committed += may_commit as u64;
        }
    }
    db.commit(r).expect("end reader");
    let letters = sys.engine().dead_letters();
    if !letters.is_empty() {
        eprintln!(
            "FAIL: causally dependent firings dead-lettered, replay with --seed {replay:#x} \
             --schedules 1: {letters:?}"
        );
        std::process::exit(1);
    }
    committed
}
