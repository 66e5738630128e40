//! System tests of the assembled REACH active OODBMS: detection →
//! composition → rule firing across coupling modes, consumption
//! policies, lifespans and the transaction model.

use open_oodb::Database;
use reach_common::ClassId;
use reach_common::{TimePoint, TxnId};
use reach_core::eca::CompositionMode;
use reach_core::event::{FlowPoint, MethodPhase};
use reach_core::{
    CompositionScope, ConsumptionPolicy, CouplingMode, EventExpr, ExecutionStrategy, Lifespan,
    ReachConfig, ReachSystem, RuleBuilder,
};
use reach_object::{Value, ValueType};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A world with a `Sensor` class whose `report(v)` method stores the
/// value; the standard fixture for these tests.
struct World {
    sys: Arc<ReachSystem>,
    sensor: ClassId,
}

fn world() -> World {
    world_with(ReachConfig::default())
}

fn world_with(config: ReachConfig) -> World {
    let db = Database::in_memory().unwrap();
    let (b, report) = db
        .define_class("Sensor")
        .attr("value", ValueType::Int, Value::Int(0))
        .attr("alarms", ValueType::Int, Value::Int(0))
        .virtual_method("report");
    let sensor = b.define().unwrap();
    db.methods().register_fn(report, |ctx| {
        let v = ctx.arg(0);
        ctx.set("value", v.clone())?;
        Ok(v)
    });
    let sys = ReachSystem::new(db, config);
    World { sys, sensor }
}

impl World {
    /// Create a persistent sensor in its own committed transaction.
    fn sensor_obj(&self) -> reach_common::ObjectId {
        let db = self.sys.db();
        let t = db.begin().unwrap();
        let oid = db.create(t, self.sensor).unwrap();
        db.persist(t, oid).unwrap();
        db.commit(t).unwrap();
        oid
    }
}

#[test]
fn immediate_rule_fires_synchronously_within_transaction() {
    let w = world();
    let sys = &w.sys;
    let ev = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&count);
    sys.define_rule(
        RuleBuilder::new("count-reports")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .when(|ctx| Ok(ctx.arg(0).as_int()? > 10))
            .then(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
    )
    .unwrap();
    let oid = w.sensor_obj();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, oid, "report", &[Value::Int(5)]).unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 0, "condition filters");
    db.invoke(t, oid, "report", &[Value::Int(50)]).unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 1, "fires inline");
    db.commit(t).unwrap();
    assert_eq!(sys.stats().immediate_runs, 2);
}

#[test]
fn immediate_rule_action_can_update_objects_in_subtransaction() {
    let w = world();
    let sys = &w.sys;
    let ev = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    // Action: bump the alarms counter on the same sensor.
    sys.define_rule(
        RuleBuilder::new("alarm")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .when(|ctx| Ok(ctx.arg(0).as_int()? > 100))
            .then(|ctx| {
                let oid = ctx.receiver().unwrap();
                let n = ctx.db.get_attr(ctx.txn, oid, "alarms")?.as_int()? + 1;
                ctx.db.set_attr(ctx.txn, oid, "alarms", Value::Int(n))
            }),
    )
    .unwrap();
    let oid = w.sensor_obj();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, oid, "report", &[Value::Int(500)]).unwrap();
    assert_eq!(db.get_attr(t, oid, "alarms").unwrap(), Value::Int(1));
    db.commit(t).unwrap();
}

#[test]
fn failing_immediate_rule_aborts_the_triggering_transaction() {
    let w = world();
    let sys = &w.sys;
    let ev = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    sys.define_rule(
        RuleBuilder::new("veto")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .when(|ctx| Ok(ctx.arg(0).as_int()? < 0))
            .then(|_| {
                Err(reach_common::ReachError::RuleEvaluation(
                    "negative readings are forbidden".into(),
                ))
            }),
    )
    .unwrap();
    let oid = w.sensor_obj();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, oid, "report", &[Value::Int(-1)]).unwrap();
    // The rule aborted the whole transaction.
    assert!(!db.txn_manager().is_active(t));
    assert!(db.invoke(t, oid, "report", &[Value::Int(1)]).is_err());
    assert_eq!(sys.stats().triggering_aborts, 1);
    // And the sensor's value write was rolled back.
    let t2 = db.begin().unwrap();
    assert_eq!(db.get_attr(t2, oid, "value").unwrap(), Value::Int(0));
    db.commit(t2).unwrap();
}

#[test]
fn deferred_rules_run_at_pre_commit_in_priority_order() {
    let w = world();
    let sys = &w.sys;
    let ev = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    let order: Arc<reach_common::sync::Mutex<Vec<&'static str>>> =
        Arc::new(reach_common::sync::Mutex::new(Vec::new()));
    for (name, prio) in [("low", 1), ("high", 9), ("mid", 5)] {
        let order = Arc::clone(&order);
        sys.define_rule(
            RuleBuilder::new(name)
                .on(ev)
                .coupling(CouplingMode::Deferred)
                .priority(prio)
                .then(move |_| {
                    order.lock().push(name);
                    Ok(())
                }),
        )
        .unwrap();
    }
    let oid = w.sensor_obj();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, oid, "report", &[Value::Int(1)]).unwrap();
    assert!(order.lock().is_empty(), "nothing fires before commit");
    db.commit(t).unwrap();
    assert_eq!(*order.lock(), vec!["high", "mid", "low"]);
    assert_eq!(sys.stats().deferred_runs, 3);
}

#[test]
fn deferred_rules_do_not_run_on_abort() {
    let w = world();
    let sys = &w.sys;
    let ev = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&count);
    sys.define_rule(
        RuleBuilder::new("deferred")
            .on(ev)
            .coupling(CouplingMode::Deferred)
            .then(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
    )
    .unwrap();
    let oid = w.sensor_obj();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, oid, "report", &[Value::Int(1)]).unwrap();
    db.abort(t).unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 0);
}

#[test]
fn detached_rule_runs_in_independent_transaction() {
    let w = world();
    let sys = &w.sys;
    let ev = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    let seen = Arc::new(AtomicI64::new(-1));
    let s = Arc::clone(&seen);
    sys.define_rule(
        RuleBuilder::new("audit")
            .on(ev)
            .coupling(CouplingMode::Detached)
            .then(move |ctx| {
                s.store(ctx.arg(0).as_int()?, Ordering::SeqCst);
                Ok(())
            }),
    )
    .unwrap();
    let oid = w.sensor_obj();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, oid, "report", &[Value::Int(7)]).unwrap();
    // The detached rule runs even though the trigger later aborts.
    db.abort(t).unwrap();
    sys.wait_quiescent();
    assert_eq!(seen.load(Ordering::SeqCst), 7);
    assert_eq!(sys.stats().detached_runs, 1);
}

#[test]
fn detached_rule_rejects_transient_receiver() {
    let w = world();
    let sys = &w.sys;
    let ev = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    sys.define_rule(
        RuleBuilder::new("audit")
            .on(ev)
            .coupling(CouplingMode::Detached)
            .then(|_| Ok(())),
    )
    .unwrap();
    // Transient (never persisted) sensor.
    let db = sys.db();
    let t = db.begin().unwrap();
    let oid = db.create(t, w.sensor).unwrap();
    db.invoke(t, oid, "report", &[Value::Int(1)]).unwrap();
    db.commit(t).unwrap();
    sys.wait_quiescent();
    assert_eq!(sys.stats().detached_runs, 0);
    assert_eq!(sys.stats().skipped_transient, 1, "§3.2 enforcement");
}

#[test]
fn parallel_causally_dependent_commits_iff_trigger_commits() {
    let run = |abort_trigger: bool| -> u64 {
        let w = world();
        let sys = &w.sys;
        let ev = sys
            .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
            .unwrap();
        let effect = Arc::new(AtomicUsize::new(0));
        let e = Arc::clone(&effect);
        sys.define_rule(
            RuleBuilder::new("par-cd")
                .on(ev)
                .coupling(CouplingMode::ParallelCausallyDependent)
                .then(move |_| {
                    e.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
        )
        .unwrap();
        let oid = w.sensor_obj();
        let db = sys.db();
        let t = db.begin().unwrap();
        db.invoke(t, oid, "report", &[Value::Int(1)]).unwrap();
        if abort_trigger {
            db.abort(t).unwrap();
        } else {
            db.commit(t).unwrap();
        }
        sys.wait_quiescent();
        // The rule ran either way (parallel), but committed only if the
        // trigger did.
        assert_eq!(sys.stats().detached_runs, 1);
        sys.stats().skipped_dependency
    };
    assert_eq!(run(false), 0, "trigger committed -> rule commits");
    assert_eq!(run(true), 1, "trigger aborted -> rule must abort");
}

#[test]
fn sequential_causally_dependent_starts_after_commit_only() {
    let w = world();
    let sys = &w.sys;
    let ev = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    let trigger_active_during_rule = Arc::new(reach_common::sync::Mutex::new(None::<bool>));
    let flag = Arc::clone(&trigger_active_during_rule);
    let sys2: Arc<ReachSystem> = Arc::clone(sys);
    let trigger_holder: Arc<reach_common::sync::Mutex<Option<TxnId>>> =
        Arc::new(reach_common::sync::Mutex::new(None));
    let th = Arc::clone(&trigger_holder);
    sys.define_rule(
        RuleBuilder::new("seq-cd")
            .on(ev)
            .coupling(CouplingMode::SequentialCausallyDependent)
            .then(move |_| {
                let trigger = th.lock().unwrap();
                *flag.lock() = Some(sys2.db().txn_manager().is_active(trigger));
                Ok(())
            }),
    )
    .unwrap();
    let oid = w.sensor_obj();
    let db = sys.db();
    let t = db.begin().unwrap();
    *trigger_holder.lock() = Some(t);
    db.invoke(t, oid, "report", &[Value::Int(1)]).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    db.commit(t).unwrap();
    sys.wait_quiescent();
    assert_eq!(
        *trigger_active_during_rule.lock(),
        Some(false),
        "rule may only start after the trigger finished"
    );
}

#[test]
fn sequential_causally_dependent_skips_on_abort() {
    let w = world();
    let sys = &w.sys;
    let ev = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    let ran = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&ran);
    sys.define_rule(
        RuleBuilder::new("seq-cd")
            .on(ev)
            .coupling(CouplingMode::SequentialCausallyDependent)
            .then(move |_| {
                r.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
    )
    .unwrap();
    let oid = w.sensor_obj();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, oid, "report", &[Value::Int(1)]).unwrap();
    db.abort(t).unwrap();
    sys.wait_quiescent();
    assert_eq!(ran.load(Ordering::SeqCst), 0, "never starts");
    assert_eq!(sys.stats().skipped_dependency, 1);
}

#[test]
fn exclusive_causally_dependent_is_the_contingency_path() {
    let run = |abort_trigger: bool| -> u64 {
        let w = world();
        let sys = &w.sys;
        let ev = sys
            .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
            .unwrap();
        sys.define_rule(
            RuleBuilder::new("contingency")
                .on(ev)
                .coupling(CouplingMode::ExclusiveCausallyDependent)
                .then(|_| Ok(())),
        )
        .unwrap();
        let oid = w.sensor_obj();
        let db = sys.db();
        let t = db.begin().unwrap();
        db.invoke(t, oid, "report", &[Value::Int(1)]).unwrap();
        if abort_trigger {
            db.abort(t).unwrap();
        } else {
            db.commit(t).unwrap();
        }
        sys.wait_quiescent();
        sys.stats().skipped_dependency
    };
    assert_eq!(run(true), 0, "trigger aborted -> contingency commits");
    assert_eq!(run(false), 1, "trigger committed -> contingency aborts");
}

#[test]
fn table1_rejections_at_registration() {
    let w = world();
    let sys = &w.sys;
    let m = sys
        .define_method_event("m", w.sensor, "report", MethodPhase::After)
        .unwrap();
    let temporal = sys
        .define_absolute_event("t", TimePoint::from_secs(60))
        .unwrap();
    let comp1 = sys
        .define_composite(
            "c1",
            EventExpr::Sequence(vec![EventExpr::Primitive(m), EventExpr::Primitive(m)]),
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            ConsumptionPolicy::Chronicle,
        )
        .unwrap();
    let comp_n = sys
        .define_composite(
            "cn",
            EventExpr::Conjunction(vec![EventExpr::Primitive(m), EventExpr::Primitive(m)]),
            CompositionScope::CrossTransaction,
            Lifespan::Interval(Duration::from_secs(60)),
            ConsumptionPolicy::Chronicle,
        )
        .unwrap();
    let try_rule =
        |ev, mode| sys.define_rule(RuleBuilder::new("r").on(ev).coupling(mode).then(|_| Ok(())));
    // Temporal: only detached allowed.
    assert!(try_rule(temporal, CouplingMode::Immediate).is_err());
    assert!(try_rule(temporal, CouplingMode::Deferred).is_err());
    assert!(try_rule(temporal, CouplingMode::ParallelCausallyDependent).is_err());
    assert!(try_rule(temporal, CouplingMode::Detached).is_ok());
    // Composite single-tx: no immediate.
    assert!(try_rule(comp1, CouplingMode::Immediate).is_err());
    assert!(try_rule(comp1, CouplingMode::Deferred).is_ok());
    // Composite multi-tx: no immediate, no deferred.
    assert!(try_rule(comp_n, CouplingMode::Immediate).is_err());
    assert!(try_rule(comp_n, CouplingMode::Deferred).is_err());
    assert!(try_rule(comp_n, CouplingMode::ExclusiveCausallyDependent).is_ok());
}

#[test]
fn composite_sequence_fires_deferred_rule_in_same_transaction() {
    let w = world();
    let sys = &w.sys;
    let ev = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    let twice = sys
        .define_composite(
            "report-twice",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(ev)),
                count: 2,
            },
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            ConsumptionPolicy::Chronicle,
        )
        .unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let f = Arc::clone(&fired);
    sys.define_rule(
        RuleBuilder::new("on-twice")
            .on(twice)
            .coupling(CouplingMode::Deferred)
            .then(move |ctx| {
                assert_eq!(ctx.event.constituents.len(), 2);
                f.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
    )
    .unwrap();
    let oid = w.sensor_obj();
    let db = sys.db();
    // One report only: composite never completes, instance GC'd at EOT.
    let t = db.begin().unwrap();
    db.invoke(t, oid, "report", &[Value::Int(1)]).unwrap();
    db.commit(t).unwrap();
    assert_eq!(fired.load(Ordering::SeqCst), 0);
    assert_eq!(sys.router().total_live_instances(), 0, "§3.3 GC at EOT");
    // Two reports: fires once, deferred, inside the commit.
    let t = db.begin().unwrap();
    db.invoke(t, oid, "report", &[Value::Int(1)]).unwrap();
    db.invoke(t, oid, "report", &[Value::Int(2)]).unwrap();
    assert_eq!(fired.load(Ordering::SeqCst), 0, "deferred until commit");
    db.commit(t).unwrap();
    assert_eq!(fired.load(Ordering::SeqCst), 1);
}

#[test]
fn cross_transaction_composite_with_detached_rule() {
    let w = world();
    let sys = &w.sys;
    let ev = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    let comp = sys
        .define_composite(
            "two-reports-any-tx",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(ev)),
                count: 2,
            },
            CompositionScope::CrossTransaction,
            Lifespan::Interval(Duration::from_secs(3600)),
            ConsumptionPolicy::Chronicle,
        )
        .unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let f = Arc::clone(&fired);
    sys.define_rule(
        RuleBuilder::new("cross")
            .on(comp)
            .coupling(CouplingMode::Detached)
            .then(move |_| {
                f.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
    )
    .unwrap();
    let oid = w.sensor_obj();
    let db = sys.db();
    for i in 0..2 {
        let t = db.begin().unwrap();
        db.invoke(t, oid, "report", &[Value::Int(i)]).unwrap();
        db.commit(t).unwrap();
    }
    sys.wait_quiescent();
    assert_eq!(fired.load(Ordering::SeqCst), 1);
}

#[test]
fn state_change_events_fire_rules() {
    let w = world();
    let sys = &w.sys;
    let ev = sys
        .define_state_event("value-changed", w.sensor, "value")
        .unwrap();
    let seen = Arc::new(reach_common::sync::Mutex::new(Vec::new()));
    let s = Arc::clone(&seen);
    sys.define_rule(
        RuleBuilder::new("watch-value")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .then(move |ctx| {
                s.lock().push((ctx.old_value(), ctx.new_value()));
                Ok(())
            }),
    )
    .unwrap();
    let oid = w.sensor_obj();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.set_attr(t, oid, "value", Value::Int(33)).unwrap();
    db.commit(t).unwrap();
    let seen = seen.lock();
    assert_eq!(*seen, vec![(Value::Int(0), Value::Int(33))]);
}

/// The state sentry skips writes while no state-change event exists;
/// defining one mid-stream must start detection with the very next
/// write, and only for its own attribute.
#[test]
fn state_event_defined_after_writes_began_fires_for_later_writes_only() {
    let w = world();
    let sys = &w.sys;
    let oid = w.sensor_obj();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.set_attr(t, oid, "value", Value::Int(1)).unwrap();
    db.set_attr(t, oid, "value", Value::Int(2)).unwrap();
    let ev = sys
        .define_state_event("value-changed", w.sensor, "value")
        .unwrap();
    let seen = Arc::new(reach_common::sync::Mutex::new(Vec::new()));
    let s = Arc::clone(&seen);
    sys.define_rule(
        RuleBuilder::new("watch-value")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .then(move |ctx| {
                s.lock().push((ctx.old_value(), ctx.new_value()));
                Ok(())
            }),
    )
    .unwrap();
    db.set_attr(t, oid, "alarms", Value::Int(9)).unwrap();
    db.set_attr(t, oid, "value", Value::Int(3)).unwrap();
    db.set_attr(t, oid, "alarms", Value::Int(10)).unwrap();
    db.set_attr(t, oid, "value", Value::Int(4)).unwrap();
    db.commit(t).unwrap();
    assert_eq!(
        *seen.lock(),
        vec![
            (Value::Int(2), Value::Int(3)),
            (Value::Int(3), Value::Int(4))
        ]
    );
}

#[test]
fn lifecycle_destructor_event_fires() {
    let w = world();
    let sys = &w.sys;
    let ev = sys
        .define_lifecycle_event("sensor-deleted", w.sensor, true)
        .unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&count);
    sys.define_rule(
        RuleBuilder::new("on-delete")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .then(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
    )
    .unwrap();
    let oid = w.sensor_obj();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.delete_object(t, oid).unwrap();
    db.commit(t).unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 1);
}

#[test]
fn flow_events_observe_transaction_lifecycle() {
    let w = world();
    let sys = &w.sys;
    let ev = sys
        .define_flow_event("on-commit", FlowPoint::Commit)
        .unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&count);
    sys.define_rule(
        RuleBuilder::new("commit-audit")
            .on(ev)
            .coupling(CouplingMode::Detached)
            .then(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
    )
    .unwrap();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.commit(t).unwrap();
    sys.wait_quiescent();
    assert_eq!(count.load(Ordering::SeqCst), 1);
}

#[test]
fn temporal_events_fire_on_virtual_time() {
    let w = world();
    let sys = &w.sys;
    let at = TimePoint::from_secs(10);
    let ev = sys.define_absolute_event("at-ten", at).unwrap();
    let periodic = sys
        .define_periodic_event(
            "every-five",
            TimePoint::from_secs(5),
            Duration::from_secs(5),
        )
        .unwrap();
    let abs_count = Arc::new(AtomicUsize::new(0));
    let per_count = Arc::new(AtomicUsize::new(0));
    for (ev, count) in [(ev, &abs_count), (periodic, &per_count)] {
        let c = Arc::clone(count);
        sys.define_rule(
            RuleBuilder::new("tick")
                .on(ev)
                .coupling(CouplingMode::Detached)
                .then(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
        )
        .unwrap();
    }
    sys.advance_time(Duration::from_secs(4)); // t=4: nothing
    sys.wait_quiescent();
    assert_eq!(abs_count.load(Ordering::SeqCst), 0);
    assert_eq!(per_count.load(Ordering::SeqCst), 0);
    sys.advance_time(Duration::from_secs(8)); // t=12: abs once, periodic at 5,10
    sys.wait_quiescent();
    assert_eq!(abs_count.load(Ordering::SeqCst), 1);
    assert_eq!(per_count.load(Ordering::SeqCst), 2);
    sys.advance_time(Duration::from_secs(10)); // t=22: abs stays 1, periodic 15,20
    sys.wait_quiescent();
    assert_eq!(abs_count.load(Ordering::SeqCst), 1);
    assert_eq!(per_count.load(Ordering::SeqCst), 4);
}

#[test]
fn relative_temporal_event_fires_after_anchor() {
    let w = world();
    let sys = &w.sys;
    let anchor = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    let rel = sys
        .define_relative_event("5s-after-report", anchor, Duration::from_secs(5))
        .unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&count);
    sys.define_rule(
        RuleBuilder::new("follow-up")
            .on(rel)
            .coupling(CouplingMode::Detached)
            .then(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
    )
    .unwrap();
    let oid = w.sensor_obj();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, oid, "report", &[Value::Int(1)]).unwrap();
    db.commit(t).unwrap();
    sys.advance_time(Duration::from_secs(3));
    sys.wait_quiescent();
    assert_eq!(count.load(Ordering::SeqCst), 0, "too early");
    sys.advance_time(Duration::from_secs(3));
    sys.wait_quiescent();
    assert_eq!(count.load(Ordering::SeqCst), 1);
}

#[test]
fn milestone_contingency_fires_on_missed_deadline() {
    let w = world();
    let sys = &w.sys;
    let ms = sys.define_milestone_event("halfway").unwrap();
    let contingency = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&contingency);
    sys.define_rule(
        RuleBuilder::new("contingency-plan")
            .on(ms)
            .coupling(CouplingMode::Detached)
            .then(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
    )
    .unwrap();
    let db = sys.db();
    // Transaction A reaches its milestone in time: no contingency.
    let ta = db.begin().unwrap();
    sys.set_milestone(ta, ms, TimePoint::from_secs(10));
    sys.advance_time(Duration::from_secs(5));
    sys.reach_milestone(ta, ms);
    sys.advance_time(Duration::from_secs(10));
    sys.wait_quiescent();
    assert_eq!(contingency.load(Ordering::SeqCst), 0);
    db.commit(ta).unwrap();
    // Transaction B misses it: contingency fires.
    let tb = db.begin().unwrap();
    sys.set_milestone(tb, ms, TimePoint::from_secs(20));
    sys.advance_time(Duration::from_secs(30));
    sys.wait_quiescent();
    assert_eq!(contingency.load(Ordering::SeqCst), 1);
    db.commit(tb).unwrap();
}

#[test]
fn user_signals_fire_rules() {
    let w = world();
    let sys = &w.sys;
    let ev = sys.define_signal("operator-alert").unwrap();
    let seen = Arc::new(reach_common::sync::Mutex::new(Vec::new()));
    let s = Arc::clone(&seen);
    sys.define_rule(
        RuleBuilder::new("on-alert")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .then(move |ctx| {
                s.lock().push(ctx.arg(0).clone());
                Ok(())
            }),
    )
    .unwrap();
    let db = sys.db();
    let t = db.begin().unwrap();
    sys.raise_signal(Some(t), "operator-alert", vec![Value::Str("fire".into())])
        .unwrap();
    db.commit(t).unwrap();
    assert_eq!(*seen.lock(), vec![Value::Str("fire".into())]);
}

#[test]
fn rule_cascades_are_detected_like_any_other_event() {
    let w = world();
    let sys = &w.sys;
    let report_ev = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    let alarm_ev = sys
        .define_state_event("alarms-changed", w.sensor, "alarms")
        .unwrap();
    // Rule 1: big reading bumps `alarms` (immediate).
    sys.define_rule(
        RuleBuilder::new("raise-alarm")
            .on(report_ev)
            .coupling(CouplingMode::Immediate)
            .when(|ctx| Ok(ctx.arg(0).as_int()? > 100))
            .then(|ctx| {
                let oid = ctx.receiver().unwrap();
                let n = ctx.db.get_attr(ctx.txn, oid, "alarms")?.as_int()? + 1;
                ctx.db.set_attr(ctx.txn, oid, "alarms", Value::Int(n))
            }),
    )
    .unwrap();
    // Rule 2: alarms-changed (raised *by rule 1*) resets the value.
    let cascaded = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&cascaded);
    sys.define_rule(
        RuleBuilder::new("cascade")
            .on(alarm_ev)
            .coupling(CouplingMode::Immediate)
            .then(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
    )
    .unwrap();
    let oid = w.sensor_obj();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, oid, "report", &[Value::Int(500)]).unwrap();
    db.commit(t).unwrap();
    assert_eq!(
        cascaded.load(Ordering::SeqCst),
        1,
        "rule-raised event detected"
    );
}

#[test]
fn rule_enable_disable_and_drop() {
    let w = world();
    let sys = &w.sys;
    let ev = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&count);
    let rid = sys
        .define_rule(
            RuleBuilder::new("toggle")
                .on(ev)
                .coupling(CouplingMode::Immediate)
                .then(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
        )
        .unwrap();
    let oid = w.sensor_obj();
    let db = sys.db();
    let fire = || {
        let t = db.begin().unwrap();
        db.invoke(t, oid, "report", &[Value::Int(1)]).unwrap();
        db.commit(t).unwrap();
    };
    fire();
    assert_eq!(count.load(Ordering::SeqCst), 1);
    sys.set_rule_enabled(rid, false).unwrap();
    fire();
    assert_eq!(count.load(Ordering::SeqCst), 1);
    sys.set_rule_enabled(rid, true).unwrap();
    fire();
    assert_eq!(count.load(Ordering::SeqCst), 2);
    sys.drop_rule(rid).unwrap();
    fire();
    assert_eq!(count.load(Ordering::SeqCst), 2);
    assert!(sys.drop_rule(rid).is_err());
}

#[test]
fn parallel_composition_mode_reaches_the_same_result() {
    let w = world_with(ReachConfig {
        composition: CompositionMode::Parallel,
        strategy: ExecutionStrategy::Serial,
        ..ReachConfig::default()
    });
    let sys = &w.sys;
    let ev = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    let comp = sys
        .define_composite(
            "three",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(ev)),
                count: 3,
            },
            CompositionScope::CrossTransaction,
            Lifespan::Interval(Duration::from_secs(3600)),
            ConsumptionPolicy::Chronicle,
        )
        .unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let f = Arc::clone(&fired);
    sys.define_rule(
        RuleBuilder::new("on-three")
            .on(comp)
            .coupling(CouplingMode::Detached)
            .then(move |_| {
                f.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
    )
    .unwrap();
    let oid = w.sensor_obj();
    let db = sys.db();
    for round in 0..9 {
        let t = db.begin().unwrap();
        db.invoke(t, oid, "report", &[Value::Int(round)]).unwrap();
        db.commit(t).unwrap();
    }
    sys.wait_quiescent();
    assert_eq!(fired.load(Ordering::SeqCst), 3, "9 reports = 3 triples");
}

#[test]
fn parallel_immediate_strategy_executes_all_sibling_rules() {
    let w = world_with(ReachConfig {
        composition: CompositionMode::Synchronous,
        strategy: ExecutionStrategy::Parallel,
        ..ReachConfig::default()
    });
    let sys = &w.sys;
    let ev = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    for i in 0..6 {
        let c = Arc::clone(&count);
        sys.define_rule(
            RuleBuilder::new(&format!("sib-{i}"))
                .on(ev)
                .coupling(CouplingMode::Immediate)
                .then(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
        )
        .unwrap();
    }
    let oid = w.sensor_obj();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, oid, "report", &[Value::Int(1)]).unwrap();
    db.commit(t).unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 6);
    assert_eq!(sys.stats().immediate_runs, 6);
}

/// The global history is a subscriber of the commit-gated feed: a
/// transaction's occurrences reach it at commit, in `seq` order, and an
/// aborted transaction's never do — including those of its committed
/// subtransactions. Without a subscriber nothing is staged at all.
#[test]
fn the_global_history_sees_committed_occurrences_only() {
    let w = world();
    let sys = &w.sys;
    sys.define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    let oid = w.sensor_obj();
    let db = sys.db();
    let report = |t, v| db.invoke(t, oid, "report", &[Value::Int(v)]).unwrap();
    let t = db.begin().unwrap();
    report(t, 0);
    assert_eq!(
        sys.router().feed().staged_txns(),
        0,
        "no subscriber, no staging"
    );
    db.commit(t).unwrap();

    let history = Arc::new(reach_core::history::GlobalHistory::default());
    history.attach(sys.router());
    let t = db.begin().unwrap();
    report(t, 1);
    report(t, 2);
    assert!(history.is_empty(), "nothing before the commit");
    assert_eq!(sys.router().feed().staged_txns(), 1);
    db.commit(t).unwrap();
    let t = db.begin().unwrap();
    let child = db.begin_nested(t).unwrap();
    report(child, 3);
    db.commit(child).unwrap();
    report(t, 4);
    db.abort(t).unwrap();
    assert_eq!(sys.router().feed().staged_txns(), 0);
    let args: Vec<i64> = history
        .snapshot()
        .iter()
        .map(|o| o.data.args[0].as_int().unwrap())
        .collect();
    assert_eq!(args, vec![1, 2]);
    let seqs: Vec<_> = history.snapshot().iter().map(|o| o.seq).collect();
    assert!(seqs.is_sorted());
}

/// `ReachConfig::checkpoint_bytes: None` leaves the storage manager's
/// threshold alone (it used to disarm whatever the caller had armed);
/// `Some(n)` sets it.
#[test]
fn reach_config_leaves_an_armed_checkpoint_threshold_alone() {
    let taken_after = |armed: Option<u64>, config: ReachConfig| {
        let db = Database::in_memory().unwrap();
        if let Some(bytes) = armed {
            db.storage().set_checkpoint_threshold(Some(bytes));
        }
        let (b, _) = db
            .define_class("Row")
            .attr("v", ValueType::Int, Value::Int(0))
            .virtual_method("noop");
        let class = b.define().unwrap();
        let sys = ReachSystem::new(Arc::clone(&db), config);
        let before = sys.metrics().ckpt.taken.get();
        for i in 0..50 {
            let t = db.begin().unwrap();
            let oid = db.create(t, class).unwrap();
            db.persist(t, oid).unwrap();
            db.set_attr(t, oid, "v", Value::Int(i)).unwrap();
            db.commit(t).unwrap();
        }
        sys.metrics().ckpt.taken.get() - before
    };
    assert!(
        taken_after(Some(1024), ReachConfig::default()) >= 2,
        "the default config disarmed the threshold the caller armed on storage"
    );
    assert!(
        taken_after(
            None,
            ReachConfig {
                checkpoint_bytes: Some(1024),
                ..Default::default()
            }
        ) >= 2,
        "checkpoint_bytes: Some(n) must arm the threshold"
    );
    assert_eq!(
        taken_after(None, ReachConfig::default()),
        0,
        "a few KB of log is far below the in-memory default"
    );
}

#[test]
fn figure2_trace_records_the_message_flow() {
    let w = world();
    let sys = &w.sys;
    let ev = sys
        .define_method_event("after-report", w.sensor, "report", MethodPhase::After)
        .unwrap();
    let _comp = sys
        .define_composite(
            "pair",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(ev)),
                count: 2,
            },
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            ConsumptionPolicy::Chronicle,
        )
        .unwrap();
    sys.define_rule(
        RuleBuilder::new("r")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .then(|_| Ok(())),
    )
    .unwrap();
    sys.router().trace.enable();
    let oid = w.sensor_obj();
    let db = sys.db();
    let t = db.begin().unwrap();
    db.invoke(t, oid, "report", &[Value::Int(1)]).unwrap();
    db.commit(t).unwrap();
    let trace = sys.router().trace.take().join("\n");
    assert!(trace.contains("method-event detected"), "{trace}");
    assert!(trace.contains("creates Event object"), "{trace}");
    assert!(trace.contains("fires 1 rule"), "{trace}");
    assert!(
        trace.contains("propagates -> composite ECA-manager"),
        "{trace}"
    );
}
