//! Nothing finished is retained, sharded: the companion of
//! `reach-core`'s `steady_state` test on a 2-shard in-memory
//! deployment.
//!
//! Transfers between accounts, alternately on one shard (local commit)
//! and across the two (presumed-abort 2PC: prepare, decide, and the
//! committed occurrences shipped to the composite's owner), with a
//! cross-shard `Sequence(debit, credit)` composite firing a detached
//! rule per transfer. 4 000 transfers warm the deployment up — a
//! transfer is three occurrences, split over the shards, so it takes
//! that many to fill the deployment's 4096-entry history window — then
//! 2 000 more must leave the live heap where it was. What is deliberately
//! still per-transaction — the coordinator's in-memory decision log, a
//! few dozen bytes per cross-shard commit — fits the budget many times
//! over.

use reach_core::event::MethodPhase;
use reach_core::history::GlobalHistory;
use reach_core::{
    CompositionScope, ConsumptionPolicy, CouplingMode, EventExpr, Lifespan, RuleBuilder,
};
use reach_dist::DistSystem;
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

const SHARDS: u32 = 2;
const PER_SHARD: usize = 16;
const WARM_UP: usize = 4_000;
const TXNS: usize = 2_000;

#[test]
fn finished_distributed_transactions_leave_nothing_behind() {
    let dist = DistSystem::in_memory(SHARDS).unwrap();
    let history = Arc::new(GlobalHistory::default());
    for sys in dist.systems() {
        history.attach(sys.router());
    }
    let fired = Arc::new(AtomicUsize::new(0));
    let mut classes = Vec::new();
    let mut owner = 0;
    for sys in dist.systems() {
        let db = sys.db();
        let (b, debit) = db
            .define_class("Acct")
            .attr("bal", ValueType::Int, Value::Int(1_000_000))
            .virtual_method("debit");
        let (b, credit) = b.virtual_method("credit");
        classes.push(b.define().unwrap());
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
        let class = *classes.last().unwrap();
        let debited = sys
            .define_method_event("debited", class, "debit", MethodPhase::After)
            .unwrap();
        let credited = sys
            .define_method_event("credited", class, "credit", MethodPhase::After)
            .unwrap();
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
            .unwrap();
        owner = (transfer.raw() % SHARDS as u64) as u32;
        let f = Arc::clone(&fired);
        sys.define_rule(
            RuleBuilder::new("transfer-done")
                .on(transfer)
                .coupling(CouplingMode::Detached)
                .then(move |_| {
                    f.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }),
        )
        .unwrap();
    }
    // A transfer logs a few hundred bytes per shard, so 4 000 of them
    // never reach the 8 MiB in-memory checkpoint threshold and the log
    // `Vec` would still be doubling its way there during the measured
    // half. Arm a threshold the warm-up crosses several times: the log
    // is then in its steady state (truncated, capacity settled) before
    // measurement starts, as it is after the first seconds of a real run.
    const LOG_BOUND: u64 = 128 << 10;
    for sys in dist.systems() {
        sys.db().storage().set_checkpoint_threshold(Some(LOG_BOUND));
    }
    let mut t = dist.begin();
    let accounts: Vec<Vec<_>> = (0..SHARDS)
        .map(|s| {
            (0..PER_SHARD)
                .map(|_| {
                    let oid = dist.create_on(&mut t, s, classes[s as usize]).unwrap();
                    dist.persist(&mut t, oid).unwrap();
                    oid
                })
                .collect()
        })
        .collect();
    dist.commit(t).unwrap();

    // Credits always land on the shard that does not own the composite,
    // so each transfer completes it exactly once, after its commit (the
    // `dist_2pc` benchmark's arrangement, for the same reason).
    let credit_shard = (1 - owner) as usize;
    let mut n = 0usize;
    let mut run = |txns: usize| {
        for _ in 0..txns {
            let debit_shard = if n.is_multiple_of(2) {
                credit_shard
            } else {
                owner as usize
            };
            let from = accounts[debit_shard][n % PER_SHARD];
            let to = accounts[credit_shard][(n * 7 + 3) % PER_SHARD];
            let args = [Value::Int(1 + (n % 9) as i64)];
            let mut t = dist.begin();
            dist.invoke(&mut t, from, "debit", &args).unwrap();
            dist.invoke(&mut t, to, "credit", &args).unwrap();
            let gid = dist.commit(t).unwrap();
            assert_eq!(gid.is_some(), debit_shard != credit_shard);
            n += 1;
        }
        dist.wait_quiescent();
    };

    run(WARM_UP);
    let warm = LIVE.load(Ordering::Relaxed);
    run(TXNS);
    let grown = LIVE.load(Ordering::Relaxed) - warm;

    assert!(
        grown <= 2 << 20,
        "{TXNS} more transfers grew the live heap by {grown} bytes"
    );
    for sys in dist.systems() {
        assert_eq!(sys.db().txn_manager().live_count(), 0);
        // The cross-shard stream subscribes to every shard's feed; each
        // ended transaction — a transfer, a 2PC participant or a
        // detached rule — took its staged occurrences with it.
        assert_eq!(sys.router().feed().staged_txns(), 0);
        let wal = sys.db().storage().wal();
        assert!(wal.tail() - wal.base_lsn() <= LOG_BOUND + 4096);
    }
    assert!(history.len() <= history.capacity());
    assert!(
        history.snapshot().iter().any(|o| o.top_txn.is_none()),
        "the transfer composites' completions reach the history"
    );
    assert_eq!(fired.load(Ordering::Relaxed), WARM_UP + TXNS);
    assert!(dist.dead_letters().is_empty());
}
