//! Nothing finished is retained: under a steady workload the heap does
//! not grow with the number of transactions that have *ended*.
//!
//! E13's rule set (immediate guard with a write, deferred audit,
//! immediate signal bridge, cross-transaction `History(3)` composite
//! with a detached alarm) on an in-memory database; 2 000 batch
//! transactions of 100 readings warm every pool, ring and table up,
//! then 2 000 more must leave the live heap where it was. Before
//! transaction trees were retired, the volatile log truncated and the
//! global history windowed, the second 2 000 added ≈ 100 MiB.
//!
//! The invariant is tested, not the mechanism: live bytes by a counting
//! allocator, plus the bounds an operator could read off the public
//! surface — including that, with a global history subscribed, the
//! commit-gated feed holds nothing of a transaction that has ended.

use open_oodb::Database;
use reach_core::event::MethodPhase;
use reach_core::history::GlobalHistory;
use reach_core::{
    CompositionScope, ConsumptionPolicy, Correlation, CouplingMode, EventExpr, Lifespan,
    ReachSystem, RuleBuilder,
};
use reach_object::{Value, ValueType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// System allocator wrapper that tracks live bytes. Test binaries get
/// exactly one global allocator, so this file holds a single test.
struct LiveAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveAlloc = LiveAlloc;

const SENSORS: usize = 64;
const BATCH: usize = 100;
const TXNS: usize = 2_000;

#[test]
fn finished_transactions_leave_nothing_behind() {
    let db = Database::in_memory().unwrap();
    let (b, report) = db
        .define_class("Sensor")
        .attr("value", ValueType::Int, Value::Int(0))
        .attr("alarms", ValueType::Int, Value::Int(0))
        .virtual_method("report");
    let class = b.define().unwrap();
    db.methods().register_fn(report, |ctx| {
        ctx.set("value", ctx.arg(0))?;
        Ok(Value::Null)
    });
    let sys = ReachSystem::new(Arc::clone(&db), Default::default());
    let history = Arc::new(GlobalHistory::default());
    history.attach(sys.router());
    let t = db.begin().unwrap();
    let sensors: Vec<_> = (0..SENSORS)
        .map(|_| {
            let oid = db.create(t, class).unwrap();
            db.persist(t, oid).unwrap();
            oid
        })
        .collect();
    db.commit(t).unwrap();

    let anomalous = |ctx: &reach_core::RuleCtx<'_>| Ok(ctx.arg(0).as_int()? >= 1_000);
    let ev = sys
        .define_method_event("report", class, "report", MethodPhase::After)
        .unwrap();
    sys.define_rule(
        RuleBuilder::new("guard")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .when(anomalous)
            .then(|ctx| {
                let oid = ctx.receiver().unwrap();
                let n = ctx.db.get_attr(ctx.txn, oid, "alarms")?.as_int()? + 1;
                ctx.db.set_attr(ctx.txn, oid, "alarms", Value::Int(n))
            }),
    )
    .unwrap();
    let audited = Arc::new(AtomicUsize::new(0));
    let a = Arc::clone(&audited);
    sys.define_rule(
        RuleBuilder::new("audit")
            .on(ev)
            .coupling(CouplingMode::Deferred)
            .when(anomalous)
            .then(move |_| {
                a.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }),
    )
    .unwrap();
    let anomaly = sys.define_signal("anomaly").unwrap();
    let weak = Arc::downgrade(&sys);
    sys.define_rule(
        RuleBuilder::new("signal-bridge")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .when(anomalous)
            .then(move |ctx| {
                if let Some(sys) = weak.upgrade() {
                    sys.raise_signal_for(Some(ctx.txn), "anomaly", ctx.receiver(), vec![])?;
                }
                Ok(())
            }),
    )
    .unwrap();
    let storm = sys
        .define_composite_correlated(
            "sensor-storm",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(anomaly)),
                count: 3,
            },
            CompositionScope::CrossTransaction,
            Lifespan::Interval(Duration::from_secs(3600)),
            ConsumptionPolicy::Cumulative,
            Correlation::SameReceiver,
        )
        .unwrap();
    let storms = Arc::new(AtomicUsize::new(0));
    let s = Arc::clone(&storms);
    sys.define_rule(
        RuleBuilder::new("storm-alarm")
            .on(storm)
            .coupling(CouplingMode::Detached)
            .then(move |_| {
                s.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }),
    )
    .unwrap();

    // Every tenth reading is anomalous, spread over the sensors.
    let mut anomalies = 0usize;
    let mut n = 0usize;
    let mut widest_txn = 0u64;
    let mut run = |txns: usize| {
        for _ in 0..txns {
            let args: Vec<[Value; 1]> = (0..BATCH)
                .map(|i| {
                    [Value::Int(if (n + i).is_multiple_of(10) {
                        1_500
                    } else {
                        20
                    })]
                })
                .collect();
            let calls: Vec<_> = args
                .iter()
                .enumerate()
                .map(|(i, a)| (sensors[(n + i) * 7 % SENSORS], "report", &a[..]))
                .collect();
            anomalies += BATCH / 10;
            n += BATCH;
            let before = db.storage().wal().tail();
            let t = db.begin().unwrap();
            db.invoke_batch(t, &calls).unwrap();
            db.commit(t).unwrap();
            widest_txn = widest_txn.max(db.storage().wal().tail() - before);
        }
        sys.wait_quiescent();
    };

    run(TXNS);
    let warm = LIVE.load(Ordering::Relaxed);
    run(TXNS);
    let grown = LIVE.load(Ordering::Relaxed) - warm;

    assert!(
        grown <= 2 << 20,
        "{TXNS} more batch transactions grew the live heap by {grown} bytes"
    );
    assert_eq!(db.txn_manager().live_count(), 0);
    assert_eq!(history.len(), history.capacity());
    // Every ended transaction took its staged occurrences with it.
    assert_eq!(sys.router().feed().staged_txns(), 0);
    // The cross-transaction storms belong to no transaction and reach
    // the window as they complete.
    assert!(history.snapshot().iter().any(|o| o.top_txn.is_none()));
    let wal = db.storage().wal();
    let resident = wal.tail() - wal.base_lsn();
    assert!(
        resident <= reach_storage::sm::IN_MEMORY_CHECKPOINT_BYTES + widest_txn,
        "{resident} log bytes resident, widest transaction {widest_txn}"
    );
    // And it was the real workload that ran.
    assert_eq!(audited.load(Ordering::Relaxed), anomalies);
    assert_eq!(sys.stats().immediate_runs, 2 * (2 * TXNS * BATCH) as u64);
    assert!(storms.load(Ordering::Relaxed) > 0);
    assert!(sys.dead_letters().is_empty());
}
