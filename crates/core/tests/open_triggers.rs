//! Open triggers hold no thread. This file is its own test process, so
//! the process-wide thread count it reads sees no other test's threads.

use open_oodb::Database;
use reach_common::ClassId;
use reach_core::event::MethodPhase;
use reach_core::{CouplingMode, ReachConfig, ReachSystem, RuleBuilder};
use reach_object::{Value, ValueType};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn world() -> (Arc<ReachSystem>, ClassId) {
    let db = Database::in_memory().unwrap();
    let (b, poke) = db
        .define_class("Res")
        .attr("v", ValueType::Int, Value::Int(0))
        .virtual_method("poke");
    let class = b.define().unwrap();
    db.methods().register_fn(poke, |ctx| {
        ctx.set("v", ctx.arg(0))?;
        Ok(Value::Null)
    });
    let sys = ReachSystem::new(db, ReachConfig::default());
    (sys, class)
}

/// Threads of this process, where the platform lists them.
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// A sequential firing waits for its trigger as a continuation, not as a
/// parked thread: 64 open triggers cost at most the detached pool's
/// workers, and ending them runs exactly the committed triggers' rules.
#[test]
fn open_triggers_hold_no_threads() {
    let (sys, class) = world();
    let ev = sys
        .define_method_event("e", class, "poke", MethodPhase::After)
        .unwrap();
    let ran = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&ran);
    sys.define_rule(
        RuleBuilder::new("after-commit")
            .on(ev)
            .coupling(CouplingMode::SequentialCausallyDependent)
            .then(move |_| {
                r.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
    )
    .unwrap();
    let db = sys.db();
    let oids: Vec<_> = (0..64)
        .map(|_| {
            let t = db.begin().unwrap();
            let oid = db.create(t, class).unwrap();
            db.persist(t, oid).unwrap();
            db.commit(t).unwrap();
            oid
        })
        .collect();
    let before = threads();
    let triggers: Vec<_> = oids
        .iter()
        .map(|oid| {
            let t = db.begin().unwrap();
            db.invoke(t, *oid, "poke", &[Value::Int(1)]).unwrap();
            t
        })
        .collect();
    if let (Some(before), Some(during)) = (before, threads()) {
        let pool = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .max(2);
        assert!(
            during <= before + pool,
            "64 open triggers took {} threads (pool size {pool})",
            during as isize - before as isize
        );
    }
    for (i, t) in triggers.into_iter().enumerate() {
        if i % 2 == 0 {
            db.commit(t).unwrap();
        } else {
            db.abort(t).unwrap();
        }
    }
    sys.wait_quiescent();
    assert_eq!(ran.load(Ordering::SeqCst), 32);
    assert_eq!(sys.stats().skipped_dependency, 32);
    assert_eq!(sys.stats().detached_runs, 32);
}
