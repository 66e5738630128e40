//! Router-level behaviours: multiple event types per detector key,
//! inheritance-aware lookup, registration introspection.

use open_oodb::Database;
use reach_common::EventTypeId;
use reach_core::event::MethodPhase;
use reach_core::{CouplingMode, ReachConfig, ReachSystem, RuleBuilder};
use reach_object::{Value, ValueType};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn animals() -> (
    Arc<ReachSystem>,
    reach_common::ClassId,
    reach_common::ClassId,
) {
    let db = Database::in_memory().unwrap();
    let (b, speak) = db
        .define_class("Animal")
        .attr("sounds", ValueType::Int, Value::Int(0))
        .virtual_method("speak");
    let animal = b.define().unwrap();
    db.methods().register_fn(speak, |ctx| {
        let n = ctx.get("sounds")?.as_int()? + 1;
        ctx.set("sounds", Value::Int(n))?;
        Ok(Value::Null)
    });
    let dog = db.define_class("Dog").base(animal).define().unwrap();
    let sys = ReachSystem::new(db, ReachConfig::default());
    (sys, animal, dog)
}

#[test]
fn two_event_types_on_one_method_both_fire() {
    let (sys, animal, _) = animals();
    let ev1 = sys
        .define_method_event("first", animal, "speak", MethodPhase::After)
        .unwrap();
    let ev2 = sys
        .define_method_event("second", animal, "speak", MethodPhase::After)
        .unwrap();
    assert_ne!(ev1, ev2);
    let hits = Arc::new(AtomicUsize::new(0));
    for ev in [ev1, ev2] {
        let h = Arc::clone(&hits);
        sys.define_rule(
            RuleBuilder::new(&format!("r-{ev}"))
                .on(ev)
                .coupling(CouplingMode::Immediate)
                .then(move |_| {
                    h.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
        )
        .unwrap();
    }
    let db = sys.db();
    let t = db.begin().unwrap();
    let oid = db.create(t, animal).unwrap();
    db.invoke(t, oid, "speak", &[]).unwrap();
    db.commit(t).unwrap();
    assert_eq!(
        hits.load(Ordering::SeqCst),
        2,
        "one invocation delivers to both registered event types"
    );
}

#[test]
fn base_and_subclass_event_types_both_fire_for_subclass_receiver() {
    let (sys, animal, dog) = animals();
    let base_ev = sys
        .define_method_event("animal-speak", animal, "speak", MethodPhase::After)
        .unwrap();
    let dog_ev = sys
        .define_method_event("dog-speak", dog, "speak", MethodPhase::After)
        .unwrap();
    let base_hits = Arc::new(AtomicUsize::new(0));
    let dog_hits = Arc::new(AtomicUsize::new(0));
    for (ev, counter) in [(base_ev, &base_hits), (dog_ev, &dog_hits)] {
        let c = Arc::clone(counter);
        sys.define_rule(
            RuleBuilder::new(&format!("r-{ev}"))
                .on(ev)
                .coupling(CouplingMode::Immediate)
                .then(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
        )
        .unwrap();
    }
    let db = sys.db();
    let t = db.begin().unwrap();
    let rex = db.create(t, dog).unwrap();
    let generic = db.create(t, animal).unwrap();
    // A dog speaking raises both the dog-specific and the inherited
    // base-class event type.
    db.invoke(t, rex, "speak", &[]).unwrap();
    assert_eq!(base_hits.load(Ordering::SeqCst), 1);
    assert_eq!(dog_hits.load(Ordering::SeqCst), 1);
    // A generic animal raises only the base event.
    db.invoke(t, generic, "speak", &[]).unwrap();
    assert_eq!(base_hits.load(Ordering::SeqCst), 2);
    assert_eq!(dog_hits.load(Ordering::SeqCst), 1);
    db.commit(t).unwrap();
}

#[test]
fn event_lookup_by_name_and_manager_introspection() {
    let (sys, animal, _) = animals();
    let ev = sys
        .define_method_event("named-event", animal, "speak", MethodPhase::Before)
        .unwrap();
    assert_eq!(sys.event("named-event").unwrap(), ev);
    assert!(sys.event("ghost").is_err());
    let mgr = sys.manager(ev).unwrap();
    assert_eq!(mgr.name, "named-event");
    assert_eq!(mgr.rule_count(), 0);
    assert!(mgr.subscribers().is_empty());
}

#[test]
fn before_and_after_phases_are_distinct_event_types() {
    let (sys, animal, _) = animals();
    let before = sys
        .define_method_event("b", animal, "speak", MethodPhase::Before)
        .unwrap();
    let after = sys
        .define_method_event("a", animal, "speak", MethodPhase::After)
        .unwrap();
    let order = Arc::new(reach_common::sync::Mutex::new(Vec::new()));
    for (ev, tag) in [(before, "before"), (after, "after")] {
        let o = Arc::clone(&order);
        sys.define_rule(
            RuleBuilder::new(tag)
                .on(ev)
                .coupling(CouplingMode::Immediate)
                .then(move |_| {
                    o.lock().push(tag);
                    Ok(())
                }),
        )
        .unwrap();
    }
    let db = sys.db();
    let t = db.begin().unwrap();
    let oid = db.create(t, animal).unwrap();
    db.invoke(t, oid, "speak", &[]).unwrap();
    db.commit(t).unwrap();
    assert_eq!(*order.lock(), vec!["before", "after"]);
}

#[test]
fn rule_info_reports_split_coupling() {
    let (sys, animal, _) = animals();
    let ev = sys
        .define_method_event("e", animal, "speak", MethodPhase::After)
        .unwrap();
    sys.define_rule(
        RuleBuilder::new("split")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .action_coupling(CouplingMode::Detached)
            .then(|_| Ok(())),
    )
    .unwrap();
    let rules = sys.list_rules();
    assert_eq!(rules.len(), 1);
    assert_eq!(rules[0].name, "split");
    assert_eq!(rules[0].coupling, CouplingMode::Immediate);
    assert_eq!(rules[0].action_coupling, Some(CouplingMode::Detached));
    assert_eq!(rules[0].event_name, "e");
}

/// A detached-origin occurrence of `ty`, as another shard would ship it.
fn occurrence(ty: reach_common::EventTypeId, seq: u64) -> Arc<reach_core::EventOccurrence> {
    Arc::new(reach_core::EventOccurrence {
        event_type: ty,
        seq: reach_common::Timestamp::new(seq),
        at: reach_common::TimePoint::ZERO,
        txn: None,
        top_txn: None,
        data: reach_core::EventData::default(),
        constituents: Vec::new(),
    })
}

/// Subscribe a recorder of `(event type, seq)` to `sys`'s feed.
fn fed(sys: &ReachSystem) -> Arc<reach_common::sync::Mutex<Vec<(EventTypeId, u64)>>> {
    let fed = Arc::new(reach_common::sync::Mutex::new(Vec::new()));
    let f = Arc::clone(&fed);
    sys.router().feed().subscribe(Arc::new(move |occs| {
        f.lock()
            .extend(occs.iter().map(|o| (o.event_type, o.seq.raw())))
    }));
    fed
}

/// `deliver_batch` takes any slice: each run of equal event type goes
/// to that type's own manager (it used to be recorded into, and fired
/// against, the first element's manager).
#[test]
fn mixed_type_slice_reaches_each_types_own_manager() {
    let sys = ReachSystem::in_memory().unwrap();
    let a = sys.define_signal("a").unwrap();
    let b = sys.define_signal("b").unwrap();
    let fired = Arc::new(reach_common::sync::Mutex::new(Vec::new()));
    for (name, ty) in [("on-a", a), ("on-b", b)] {
        let fired = Arc::clone(&fired);
        sys.define_rule(
            RuleBuilder::new(name)
                .on(ty)
                .coupling(CouplingMode::Detached)
                .then(move |ctx| {
                    fired.lock().push((name, ctx.event.seq.raw()));
                    Ok(())
                }),
        )
        .unwrap();
    }
    let fed = fed(&sys);
    sys.router().deliver_batch(vec![
        occurrence(a, 1),
        occurrence(a, 2),
        occurrence(b, 3),
        occurrence(a, 4),
    ]);
    sys.wait_quiescent();
    assert_eq!(*fed.lock(), vec![(a, 1), (a, 2), (b, 3), (a, 4)]);
    let mut fired = fired.lock().clone();
    fired.sort();
    assert_eq!(
        fired,
        vec![("on-a", 1), ("on-a", 2), ("on-a", 4), ("on-b", 3)]
    );
}

/// A remote-origin occurrence only completes compositions: its owning
/// shard already recorded it, showed it to observers and fired its
/// rules.
#[test]
fn remote_origin_feeds_composites_and_nothing_else() {
    let sys = ReachSystem::in_memory().unwrap();
    let prim = sys.define_signal("shipped").unwrap();
    let pair = sys
        .define_composite(
            "pair",
            reach_core::EventExpr::History {
                expr: Arc::new(reach_core::EventExpr::Primitive(prim)),
                count: 2,
            },
            reach_core::CompositionScope::CrossTransaction,
            reach_core::Lifespan::Interval(std::time::Duration::from_secs(3600)),
            reach_core::ConsumptionPolicy::Chronicle,
        )
        .unwrap();
    let rule_hits = Arc::new(AtomicUsize::new(0));
    {
        let hits = Arc::clone(&rule_hits);
        sys.define_rule(
            RuleBuilder::new("on-shipped")
                .on(prim)
                .coupling(CouplingMode::Detached)
                .then(move |_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
        )
        .unwrap();
    }
    let observed = Arc::new(reach_common::sync::Mutex::new(Vec::new()));
    {
        let observed = Arc::clone(&observed);
        sys.router()
            .add_observer(Arc::new(move |occ| observed.lock().push(occ.event_type)));
    }
    let fed = fed(&sys);
    sys.router().deliver_remote(occurrence(prim, 1));
    sys.router().deliver_remote(occurrence(prim, 2));
    sys.wait_quiescent();
    assert_eq!(rule_hits.load(Ordering::SeqCst), 0);
    // The composite completed here, and *its* occurrence is local.
    assert_eq!(fed.lock().len(), 1);
    assert_eq!(fed.lock()[0].0, pair);
    assert_eq!(*observed.lock(), vec![pair]);
}
