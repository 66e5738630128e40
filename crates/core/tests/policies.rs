//! Tests of the §6.4 ordering policies, event-algebra operators
//! end-to-end, and edge cases of the active layer.

use open_oodb::Database;
use reach_common::ClassId;
use reach_common::TxnId;
use reach_core::event::MethodPhase;
use reach_core::{
    CompositionScope, ConsumptionPolicy, CouplingMode, EventExpr, Lifespan, ReachConfig,
    ReachSystem, RuleBuilder, TieBreak,
};
use reach_object::{Value, ValueType};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct World {
    sys: Arc<ReachSystem>,
    class: ClassId,
}

fn world() -> World {
    let db = Database::in_memory().unwrap();
    let (b, m) = db
        .define_class("Probe")
        .attr("v", ValueType::Int, Value::Int(0))
        .virtual_method("hit");
    let (b, m2) = b.virtual_method("hit2");
    let class = b.define().unwrap();
    db.methods().register_fn(m, |ctx| {
        ctx.set("v", ctx.arg(0))?;
        Ok(Value::Null)
    });
    db.methods().register_fn(m2, |_| Ok(Value::Null));
    let sys = ReachSystem::new(db, ReachConfig::default());
    World { sys, class }
}

impl World {
    fn obj(&self) -> reach_common::ObjectId {
        let db = self.sys.db();
        let t = db.begin().unwrap();
        let oid = db.create(t, self.class).unwrap();
        db.persist(t, oid).unwrap();
        db.commit(t).unwrap();
        oid
    }

    fn hit(&self, oid: reach_common::ObjectId, v: i64) {
        let db = self.sys.db();
        let t = db.begin().unwrap();
        db.invoke(t, oid, "hit", &[Value::Int(v)]).unwrap();
        db.commit(t).unwrap();
    }
}

fn order_recorder(
    w: &World,
    ev: reach_common::EventTypeId,
    names: &[(&'static str, i32)],
    coupling: CouplingMode,
) -> Arc<reach_common::sync::Mutex<Vec<&'static str>>> {
    let order = Arc::new(reach_common::sync::Mutex::new(Vec::new()));
    for (name, prio) in names {
        let o = Arc::clone(&order);
        let name = *name;
        w.sys
            .define_rule(
                RuleBuilder::new(name)
                    .on(ev)
                    .coupling(coupling)
                    .priority(*prio)
                    .then(move |_| {
                        o.lock().push(name);
                        Ok(())
                    }),
            )
            .unwrap();
    }
    order
}

#[test]
fn tiebreak_oldest_first_is_default() {
    let w = world();
    let ev = w
        .sys
        .define_method_event("e", w.class, "hit", MethodPhase::After)
        .unwrap();
    // Equal priorities: registration (timestamp) order decides.
    let order = order_recorder(
        &w,
        ev,
        &[("first", 5), ("second", 5), ("third", 5)],
        CouplingMode::Immediate,
    );
    let oid = w.obj();
    w.hit(oid, 1);
    assert_eq!(*order.lock(), vec!["first", "second", "third"]);
}

#[test]
fn tiebreak_newest_first_is_optional() {
    let w = world();
    w.sys.set_tiebreak(TieBreak::NewestFirst);
    let ev = w
        .sys
        .define_method_event("e", w.class, "hit", MethodPhase::After)
        .unwrap();
    let order = order_recorder(
        &w,
        ev,
        &[("first", 5), ("second", 5), ("third", 5)],
        CouplingMode::Immediate,
    );
    let oid = w.obj();
    w.hit(oid, 1);
    assert_eq!(*order.lock(), vec!["third", "second", "first"]);
}

#[test]
fn deferred_simple_events_before_composite_policy() {
    let w = world();
    w.sys.set_simple_events_first(true);
    let simple = w
        .sys
        .define_method_event("simple", w.class, "hit", MethodPhase::After)
        .unwrap();
    let composite = w
        .sys
        .define_composite(
            "pair",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(simple)),
                count: 1,
            },
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            ConsumptionPolicy::Chronicle,
        )
        .unwrap();
    let order = Arc::new(reach_common::sync::Mutex::new(Vec::new()));
    // Register the composite-event rule FIRST so without the policy it
    // would drain first (same priority, oldest first).
    {
        let o = Arc::clone(&order);
        w.sys
            .define_rule(
                RuleBuilder::new("composite-rule")
                    .on(composite)
                    .coupling(CouplingMode::Deferred)
                    .then(move |_| {
                        o.lock().push("composite");
                        Ok(())
                    }),
            )
            .unwrap();
    }
    {
        let o = Arc::clone(&order);
        w.sys
            .define_rule(
                RuleBuilder::new("simple-rule")
                    .on(simple)
                    .coupling(CouplingMode::Deferred)
                    .then(move |_| {
                        o.lock().push("simple");
                        Ok(())
                    }),
            )
            .unwrap();
    }
    let oid = w.obj();
    w.hit(oid, 1);
    assert_eq!(
        *order.lock(),
        vec!["simple", "composite"],
        "§6.4: rules with simple events fire ahead of rules with complex events"
    );
}

#[test]
fn disjunction_composite_end_to_end() {
    let w = world();
    let e1 = w
        .sys
        .define_method_event("e1", w.class, "hit", MethodPhase::After)
        .unwrap();
    let e2 = w
        .sys
        .define_method_event("e2", w.class, "hit2", MethodPhase::After)
        .unwrap();
    let either = w
        .sys
        .define_composite(
            "either",
            EventExpr::Disjunction(vec![EventExpr::Primitive(e1), EventExpr::Primitive(e2)]),
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            ConsumptionPolicy::Chronicle,
        )
        .unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&count);
    w.sys
        .define_rule(
            RuleBuilder::new("on-either")
                .on(either)
                .coupling(CouplingMode::Deferred)
                .then(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
        )
        .unwrap();
    let oid = w.obj();
    let db = w.sys.db();
    // hit2 alone completes the disjunction.
    let t = db.begin().unwrap();
    db.invoke(t, oid, "hit2", &[]).unwrap();
    db.commit(t).unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 1);
}

#[test]
fn composite_of_composites() {
    let w = world();
    let e1 = w
        .sys
        .define_method_event("e1", w.class, "hit", MethodPhase::After)
        .unwrap();
    let inner = w
        .sys
        .define_composite(
            "two-hits",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(e1)),
                count: 2,
            },
            CompositionScope::CrossTransaction,
            Lifespan::Interval(Duration::from_secs(3600)),
            ConsumptionPolicy::Chronicle,
        )
        .unwrap();
    let outer = w
        .sys
        .define_composite(
            "two-pairs",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(inner)),
                count: 2,
            },
            CompositionScope::CrossTransaction,
            Lifespan::Interval(Duration::from_secs(3600)),
            ConsumptionPolicy::Chronicle,
        )
        .unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&count);
    w.sys
        .define_rule(
            RuleBuilder::new("on-four")
                .on(outer)
                .coupling(CouplingMode::Detached)
                .then(move |ctx| {
                    // Constituents are the two inner composites.
                    assert_eq!(ctx.event.constituents.len(), 2);
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
        )
        .unwrap();
    let oid = w.obj();
    for i in 0..4 {
        w.hit(oid, i);
    }
    w.sys.wait_quiescent();
    assert_eq!(
        count.load(Ordering::SeqCst),
        1,
        "4 hits = 2 pairs = 1 outer"
    );
}

#[test]
fn negation_composite_same_txn_end_to_end() {
    let w = world();
    let e1 = w
        .sys
        .define_method_event("e1", w.class, "hit", MethodPhase::After)
        .unwrap();
    let e2 = w
        .sys
        .define_method_event("e2", w.class, "hit2", MethodPhase::After)
        .unwrap();
    // "hit without a subsequent hit2 in the same transaction".
    let unacked = w
        .sys
        .define_composite(
            "hit-unacked",
            EventExpr::Sequence(vec![
                EventExpr::Primitive(e1),
                EventExpr::Negation(Arc::new(EventExpr::Primitive(e2))),
            ]),
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            ConsumptionPolicy::Chronicle,
        )
        .unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let f = Arc::clone(&fired);
    w.sys
        .define_rule(
            RuleBuilder::new("nag")
                .on(unacked)
                .coupling(CouplingMode::Deferred)
                .then(move |_| {
                    f.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
        )
        .unwrap();
    let oid = w.obj();
    let db = w.sys.db();
    // Transaction 1: hit acknowledged by hit2 — no firing.
    let t = db.begin().unwrap();
    db.invoke(t, oid, "hit", &[Value::Int(1)]).unwrap();
    db.invoke(t, oid, "hit2", &[]).unwrap();
    db.commit(t).unwrap();
    assert_eq!(fired.load(Ordering::SeqCst), 0);
    // Transaction 2: hit without acknowledgement — fires at window close
    // (pre-commit), deferred into the same transaction.
    let t = db.begin().unwrap();
    db.invoke(t, oid, "hit", &[Value::Int(2)]).unwrap();
    db.commit(t).unwrap();
    assert_eq!(fired.load(Ordering::SeqCst), 1);
}

#[test]
fn closure_composite_collapses_in_transaction() {
    let w = world();
    let e1 = w
        .sys
        .define_method_event("e1", w.class, "hit", MethodPhase::After)
        .unwrap();
    let burst = w
        .sys
        .define_composite(
            "hit-burst",
            EventExpr::Closure(Arc::new(EventExpr::Primitive(e1))),
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            ConsumptionPolicy::Chronicle,
        )
        .unwrap();
    let sizes = Arc::new(reach_common::sync::Mutex::new(Vec::new()));
    let s = Arc::clone(&sizes);
    w.sys
        .define_rule(
            RuleBuilder::new("burst")
                .on(burst)
                .coupling(CouplingMode::Deferred)
                .then(move |ctx| {
                    s.lock().push(ctx.event.constituents.len());
                    Ok(())
                }),
        )
        .unwrap();
    let oid = w.obj();
    let db = w.sys.db();
    let t = db.begin().unwrap();
    for i in 0..5 {
        db.invoke(t, oid, "hit", &[Value::Int(i)]).unwrap();
    }
    db.commit(t).unwrap();
    assert_eq!(*sizes.lock(), vec![5], "one firing absorbing all 5 hits");
}

#[test]
fn aborted_transaction_revokes_its_events_from_cross_tx_composites() {
    // A cross-transaction composite must not fire off events of a
    // transaction that aborted *if they had not yet completed it*...
    // Design decision (documented in compositor.rs): instances keyed by
    // transaction are discarded on abort; cross-transaction instances
    // keep already-absorbed constituents (the occurrence happened, even
    // if its transaction later aborted — compensation is the global
    // history's job). This test pins the same-transaction half.
    let w = world();
    let e1 = w
        .sys
        .define_method_event("e1", w.class, "hit", MethodPhase::After)
        .unwrap();
    let pair = w
        .sys
        .define_composite(
            "pair",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(e1)),
                count: 2,
            },
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            ConsumptionPolicy::Chronicle,
        )
        .unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let f = Arc::clone(&fired);
    w.sys
        .define_rule(
            RuleBuilder::new("p")
                .on(pair)
                .coupling(CouplingMode::Deferred)
                .then(move |_| {
                    f.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
        )
        .unwrap();
    let oid = w.obj();
    let db = w.sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, oid, "hit", &[Value::Int(1)]).unwrap();
    db.abort(t).unwrap();
    assert_eq!(w.sys.router().total_live_instances(), 0, "abort discards");
    assert_eq!(fired.load(Ordering::SeqCst), 0);
}

#[test]
fn signal_without_transaction_is_temporal_like() {
    let w = world();
    let sig = w.sys.define_signal("ping").unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&count);
    w.sys
        .define_rule(
            RuleBuilder::new("on-ping")
                .on(sig)
                .coupling(CouplingMode::Detached)
                .then(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
        )
        .unwrap();
    w.sys.raise_signal(None, "ping", vec![]).unwrap();
    w.sys.wait_quiescent();
    assert_eq!(count.load(Ordering::SeqCst), 1);
}

#[test]
fn rule_action_can_query_the_database() {
    let w = world();
    let ev = w
        .sys
        .define_method_event("e", w.class, "hit", MethodPhase::After)
        .unwrap();
    let found = Arc::new(AtomicUsize::new(0));
    let f = Arc::clone(&found);
    w.sys
        .define_rule(
            RuleBuilder::new("census")
                .on(ev)
                .coupling(CouplingMode::Immediate)
                .then(move |ctx| {
                    let hits = ctx
                        .db
                        .query(ctx.txn, "select p from Probe p where p.v > 0")?;
                    f.store(hits.len(), Ordering::SeqCst);
                    Ok(())
                }),
        )
        .unwrap();
    let oid = w.obj();
    w.hit(oid, 42);
    assert_eq!(found.load(Ordering::SeqCst), 1);
}

#[test]
fn unknown_event_type_in_rule_is_rejected() {
    let w = world();
    let err = w.sys.define_rule(
        RuleBuilder::new("ghost")
            .on(reach_common::EventTypeId::new(9999))
            .then(|_| Ok(())),
    );
    assert!(err.is_err());
}

#[test]
fn same_tx_composite_with_temporal_constituent_is_rejected() {
    let w = world();
    let temporal = w
        .sys
        .define_absolute_event("t", reach_common::TimePoint::from_secs(1))
        .unwrap();
    let e1 = w
        .sys
        .define_method_event("e1", w.class, "hit", MethodPhase::After)
        .unwrap();
    let err = w.sys.define_composite(
        "bad",
        EventExpr::Sequence(vec![
            EventExpr::Primitive(e1),
            EventExpr::Primitive(temporal),
        ]),
        CompositionScope::SameTransaction,
        Lifespan::Transaction,
        ConsumptionPolicy::Chronicle,
    );
    assert!(err.is_err());
    // Cross-transaction with interval: fine.
    assert!(w
        .sys
        .define_composite(
            "good",
            EventExpr::Sequence(vec![
                EventExpr::Primitive(e1),
                EventExpr::Primitive(temporal)
            ]),
            CompositionScope::CrossTransaction,
            Lifespan::Interval(Duration::from_secs(60)),
            ConsumptionPolicy::Chronicle,
        )
        .is_ok());
}

#[test]
fn split_coupling_immediate_condition_detached_action() {
    let w = world();
    let ev = w
        .sys
        .define_method_event("e", w.class, "hit", MethodPhase::After)
        .unwrap();
    let ran = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&ran);
    let sys2 = Arc::downgrade(&w.sys);
    w.sys
        .define_rule(
            RuleBuilder::new("split")
                .on(ev)
                .coupling(CouplingMode::Immediate)
                .action_coupling(CouplingMode::Detached)
                .when(|ctx| Ok(ctx.arg(0).as_int()? > 0))
                .then(move |ctx| {
                    // The action must run in a *detached* (rule) txn.
                    if let Some(sys) = sys2.upgrade() {
                        assert!(sys.engine().is_rule_txn(ctx.txn));
                    }
                    r.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
        )
        .unwrap();
    let oid = w.obj();
    w.hit(oid, 5); // condition true -> detached action
    w.hit(oid, -5); // condition false -> nothing
    w.sys.wait_quiescent();
    assert_eq!(ran.load(Ordering::SeqCst), 1);
    assert_eq!(w.sys.stats().conditions_false, 1);
}

#[test]
fn split_coupling_backwards_pair_is_rejected() {
    let w = world();
    let ev = w
        .sys
        .define_method_event("e", w.class, "hit", MethodPhase::After)
        .unwrap();
    let err = w.sys.define_rule(
        RuleBuilder::new("backwards")
            .on(ev)
            .coupling(CouplingMode::Deferred)
            .action_coupling(CouplingMode::Immediate)
            .then(|_| Ok(())),
    );
    assert!(err.is_err(), "action may not precede its condition");
    // Detached condition with deferred action is likewise backwards.
    let err = w.sys.define_rule(
        RuleBuilder::new("backwards2")
            .on(ev)
            .coupling(CouplingMode::Detached)
            .action_coupling(CouplingMode::Deferred)
            .then(|_| Ok(())),
    );
    assert!(err.is_err());
}

#[test]
fn milestones_are_cleaned_up_at_txn_end() {
    let w = world();
    let ms = w.sys.define_milestone_event("deadline").unwrap();
    let db = w.sys.db();
    let t = db.begin().unwrap();
    w.sys
        .set_milestone(t, ms, reach_common::TimePoint::from_secs(100));
    assert_eq!(w.sys.temporal().milestone_count(), 1);
    db.commit(t).unwrap();
    assert_eq!(w.sys.temporal().milestone_count(), 0);
    let _ = TxnId::NULL;
}

#[test]
fn persist_db_internal_event_fires() {
    use std::sync::atomic::AtomicUsize;
    let w = world();
    let ev = w.sys.define_persist_event("on-persist", w.class).unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&count);
    w.sys
        .define_rule(
            RuleBuilder::new("persist-audit")
                .on(ev)
                .coupling(CouplingMode::Immediate)
                .then(move |ctx| {
                    assert!(ctx.receiver().is_some());
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
        )
        .unwrap();
    let db = w.sys.db();
    let t = db.begin().unwrap();
    let a = db.create(t, w.class).unwrap();
    let b = db.create(t, w.class).unwrap();
    db.persist(t, a).unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 1);
    db.persist(t, b).unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 2);
    // Re-persisting the same object raises the event again (it is the
    // persist *call* that is the DB-internal operation).
    db.persist(t, a).unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 3);
    db.commit(t).unwrap();
}

#[test]
fn same_receiver_correlation_partitions_instances() {
    use reach_core::Correlation;
    let w = world();
    let ev = w
        .sys
        .define_method_event("e", w.class, "hit", MethodPhase::After)
        .unwrap();
    let per_obj = w
        .sys
        .define_composite_correlated(
            "three-hits-same-obj",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(ev)),
                count: 3,
            },
            CompositionScope::CrossTransaction,
            Lifespan::Interval(Duration::from_secs(3600)),
            ConsumptionPolicy::Cumulative,
            Correlation::SameReceiver,
        )
        .unwrap();
    let fired = Arc::new(reach_common::sync::Mutex::new(Vec::new()));
    {
        let f = Arc::clone(&fired);
        w.sys
            .define_rule(
                RuleBuilder::new("per-obj")
                    .on(per_obj)
                    .coupling(CouplingMode::Detached)
                    .then(move |ctx| {
                        // All constituents concern one object.
                        let receivers: Vec<_> = ctx
                            .event
                            .constituents
                            .iter()
                            .filter_map(|c| c.data.receiver)
                            .collect();
                        assert!(receivers.windows(2).all(|w| w[0] == w[1]));
                        f.lock().push(receivers[0]);
                        Ok(())
                    }),
            )
            .unwrap();
    }
    let a = w.obj();
    let b = w.obj();
    // Interleave: a a b a b — only `a` reaches three hits.
    for oid in [a, a, b, a, b] {
        w.hit(oid, 1);
    }
    w.sys.wait_quiescent();
    assert_eq!(
        *fired.lock(),
        vec![a],
        "only object a completed the pattern"
    );
    // One more hit on b completes b's own instance.
    w.hit(b, 2);
    w.sys.wait_quiescent();
    assert_eq!(*fired.lock(), vec![a, b]);
}

#[test]
fn uncorrelated_composite_mixes_receivers() {
    let w = world();
    let ev = w
        .sys
        .define_method_event("e", w.class, "hit", MethodPhase::After)
        .unwrap();
    let any_three = w
        .sys
        .define_composite(
            "three-hits-any",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(ev)),
                count: 3,
            },
            CompositionScope::CrossTransaction,
            Lifespan::Interval(Duration::from_secs(3600)),
            ConsumptionPolicy::Cumulative,
        )
        .unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    {
        let c = Arc::clone(&count);
        w.sys
            .define_rule(
                RuleBuilder::new("any")
                    .on(any_three)
                    .coupling(CouplingMode::Detached)
                    .then(move |_| {
                        c.fetch_add(1, Ordering::SeqCst);
                        Ok(())
                    }),
            )
            .unwrap();
    }
    let a = w.obj();
    let b = w.obj();
    for oid in [a, b, a] {
        w.hit(oid, 1);
    }
    w.sys.wait_quiescent();
    assert_eq!(
        count.load(Ordering::SeqCst),
        1,
        "without correlation, three hits on any objects complete the pattern"
    );
}

/// Window-close completions (closure, negation) are emitted when the
/// same-transaction window closes at pre-commit. In parallel
/// composition mode a compositor worker emits them; commit used to go
/// on without waiting, so the deferred queue was usually drained before
/// they arrived and their rules failed to enqueue (298 of 300).
#[test]
fn window_close_composites_fire_deferred_rules_in_parallel_mode() {
    let db = Database::in_memory().unwrap();
    let (b, m) = db.define_class("Probe").virtual_method("hit");
    let class = b.define().unwrap();
    db.methods().register_fn(m, |_| Ok(Value::Null));
    let config = ReachConfig {
        composition: reach_core::eca::CompositionMode::Parallel,
        ..ReachConfig::default()
    };
    let w = World {
        sys: ReachSystem::new(db, config),
        class,
    };
    let e1 = w
        .sys
        .define_method_event("e1", w.class, "hit", MethodPhase::After)
        .unwrap();
    let e2 = w
        .sys
        .define_method_event("e2", w.class, "hit", MethodPhase::Before)
        .unwrap();
    let burst = EventExpr::Closure(Arc::new(EventExpr::Primitive(e1)));
    // "a hit not followed by another hit's before-phase".
    let last = EventExpr::Sequence(vec![
        EventExpr::Primitive(e1),
        EventExpr::Negation(Arc::new(EventExpr::Primitive(e2))),
    ]);
    let fired = Arc::new(AtomicUsize::new(0));
    for (name, expr) in [("burst", burst), ("last", last)] {
        let ty = w
            .sys
            .define_composite(
                name,
                expr,
                CompositionScope::SameTransaction,
                Lifespan::Transaction,
                ConsumptionPolicy::Chronicle,
            )
            .unwrap();
        let f = Arc::clone(&fired);
        w.sys
            .define_rule(
                RuleBuilder::new(name)
                    .on(ty)
                    .coupling(CouplingMode::Deferred)
                    .then(move |_| {
                        f.fetch_add(1, Ordering::SeqCst);
                        Ok(())
                    }),
            )
            .unwrap();
    }
    let oid = w.obj();
    const TXNS: usize = 150;
    for i in 0..TXNS {
        w.hit(oid, i as i64);
    }
    w.sys.wait_quiescent();
    assert_eq!(w.sys.stats().failures, 0);
    assert_eq!(fired.load(Ordering::SeqCst), 2 * TXNS);
}
