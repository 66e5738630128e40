//! Focused tests of the policy managers through the assembled database:
//! Change PM savepoints, Transaction PM facade, query planning details,
//! dictionary persistence, index maintenance under mixed workloads.

use open_oodb::pm::query::{parse_query, Plan};
use open_oodb::{Database, DatabaseConfig, TransactionPm};
use reach_object::{Value, ValueType};
use reach_txn::TxnState;
use std::sync::Arc;

fn db_with_points() -> (Arc<Database>, reach_common::ClassId) {
    let db = Database::in_memory().unwrap();
    let class = db
        .define_class("Point")
        .attr("x", ValueType::Int, Value::Int(0))
        .attr("y", ValueType::Int, Value::Int(0))
        .define()
        .unwrap();
    (db, class)
}

#[test]
fn change_pm_savepoints_nest_arbitrarily_deep() {
    let (db, class) = db_with_points();
    let t0 = db.begin().unwrap();
    let p = db.create(t0, class).unwrap();
    db.set_attr(t0, p, "x", Value::Int(1)).unwrap();
    let t1 = db.begin_nested(t0).unwrap();
    db.set_attr(t1, p, "x", Value::Int(2)).unwrap();
    let t2 = db.begin_nested(t1).unwrap();
    db.set_attr(t2, p, "x", Value::Int(3)).unwrap();
    let t3 = db.begin_nested(t2).unwrap();
    db.set_attr(t3, p, "x", Value::Int(4)).unwrap();
    // Abort the innermost two levels one by one.
    db.abort(t3).unwrap();
    assert_eq!(db.get_attr(t2, p, "x").unwrap(), Value::Int(3));
    db.abort(t2).unwrap();
    assert_eq!(db.get_attr(t1, p, "x").unwrap(), Value::Int(2));
    // Commit the middle, then abort the root: everything unwinds.
    db.commit(t1).unwrap();
    db.abort(t0).unwrap();
    let t = db.begin().unwrap();
    assert!(db.get_attr(t, p, "x").is_err(), "object creation undone");
    db.commit(t).unwrap();
}

#[test]
fn change_pm_pending_counter_reflects_txn_work() {
    let (db, class) = db_with_points();
    let t = db.begin().unwrap();
    assert_eq!(db.change_pm().pending(t), 0);
    let p = db.create(t, class).unwrap();
    assert_eq!(db.change_pm().pending(t), 1); // the create
    db.set_attr(t, p, "x", Value::Int(5)).unwrap();
    db.set_attr(t, p, "y", Value::Int(6)).unwrap();
    assert_eq!(db.change_pm().pending(t), 3);
    db.commit(t).unwrap();
    assert_eq!(db.change_pm().pending(t), 0, "cleared at commit");
}

#[test]
fn transaction_pm_facade() {
    let (db, _class) = db_with_points();
    let pm = TransactionPm::new(Arc::clone(db.txn_manager()));
    let t = pm.begin().unwrap();
    assert_eq!(pm.state(t).unwrap(), TxnState::Active);
    let child = pm.begin_nested(t).unwrap();
    pm.commit(child).unwrap();
    pm.commit(t).unwrap();
    assert_eq!(pm.state(t).unwrap(), TxnState::Committed);
    let a = pm.begin().unwrap();
    pm.abort(a).unwrap();
    assert_eq!(pm.state(a).unwrap(), TxnState::Aborted);
}

#[test]
fn query_planner_uses_residual_predicates() {
    let (db, class) = db_with_points();
    let t = db.begin().unwrap();
    for i in 0..50 {
        db.create_with(t, class, &[("x", Value::Int(i)), ("y", Value::Int(i % 7))])
            .unwrap();
    }
    db.commit(t).unwrap();
    db.create_index(class, "x").unwrap();
    let t = db.begin().unwrap();
    // x is indexed, y is the residual filter.
    let (hits, plan) = db
        .query_with_plan(t, "select p from Point p where p.x < 20 and p.y == 3")
        .unwrap();
    assert!(matches!(plan, Plan::IndexRange { ref attribute } if attribute == "x"));
    // Expected: x in 0..20 with x % 7 == 3 -> {3, 10, 17}.
    assert_eq!(hits.len(), 3);
    db.commit(t).unwrap();
}

#[test]
fn query_planner_handles_flipped_and_equality_predicates() {
    let (db, class) = db_with_points();
    let t = db.begin().unwrap();
    for i in 0..30 {
        db.create_with(t, class, &[("x", Value::Int(i % 10))])
            .unwrap();
    }
    db.commit(t).unwrap();
    db.create_index(class, "x").unwrap();
    let t = db.begin().unwrap();
    let (hits, plan) = db
        .query_with_plan(t, "select p from Point p where 4 == p.x")
        .unwrap();
    assert!(matches!(plan, Plan::IndexEq { .. }));
    assert_eq!(hits.len(), 3);
    // >= with flipped operands becomes <=.
    let (hits, plan) = db
        .query_with_plan(t, "select p from Point p where 2 >= p.x")
        .unwrap();
    assert!(matches!(plan, Plan::IndexRange { .. }));
    assert_eq!(hits.len(), 9); // x in {0,1,2}, three each
    db.commit(t).unwrap();
}

#[test]
fn query_parse_errors_are_reported() {
    assert!(parse_query("select from where").is_err());
    assert!(parse_query("select p from Point p where ((p.x > 1)").is_err());
    let (db, _class) = db_with_points();
    let t = db.begin().unwrap();
    assert!(db.query(t, "select g from Ghost g").is_err());
    db.commit(t).unwrap();
}

#[test]
fn index_maintenance_under_mixed_workload() {
    let (db, class) = db_with_points();
    db.create_index(class, "x").unwrap();
    let t = db.begin().unwrap();
    let a = db.create_with(t, class, &[("x", Value::Int(1))]).unwrap();
    let b = db.create_with(t, class, &[("x", Value::Int(2))]).unwrap();
    let c = db.create_with(t, class, &[("x", Value::Int(3))]).unwrap();
    db.commit(t).unwrap();
    let t = db.begin().unwrap();
    db.set_attr(t, a, "x", Value::Int(10)).unwrap(); // move within index
    db.delete_object(t, b).unwrap(); // remove
    db.commit(t).unwrap();
    let t = db.begin().unwrap();
    let (hits, plan) = db
        .query_with_plan(t, "select p from Point p where p.x >= 3")
        .unwrap();
    assert!(matches!(plan, Plan::IndexRange { .. }));
    assert_eq!(hits, vec![c, a], "index order: x=3 then x=10");
    db.commit(t).unwrap();
}

#[test]
fn drop_index_falls_back_to_scan() {
    let (db, class) = db_with_points();
    db.create_index(class, "x").unwrap();
    assert!(db.indexing_pm().drop_index(class, "x"));
    assert!(!db.indexing_pm().drop_index(class, "x"));
    let t = db.begin().unwrap();
    db.create_with(t, class, &[("x", Value::Int(5))]).unwrap();
    let (hits, plan) = db
        .query_with_plan(t, "select p from Point p where p.x == 5")
        .unwrap();
    assert_eq!(plan, Plan::ExtentScan);
    assert_eq!(hits.len(), 1);
    db.commit(t).unwrap();
}

#[test]
fn duplicate_index_is_rejected_and_unknown_attr_fails() {
    let (db, class) = db_with_points();
    db.create_index(class, "x").unwrap();
    assert!(db.create_index(class, "x").is_err());
    assert!(db.create_index(class, "ghost").is_err());
}

#[test]
fn subclass_instances_answer_base_class_queries_via_base_index() {
    let db = Database::in_memory().unwrap();
    let base = db
        .define_class("Shape")
        .attr("area", ValueType::Int, Value::Int(0))
        .define()
        .unwrap();
    let circle = db.define_class("Circle").base(base).define().unwrap();
    db.create_index(base, "area").unwrap();
    let t = db.begin().unwrap();
    let c = db
        .create_with(t, circle, &[("area", Value::Int(10))])
        .unwrap();
    let s = db
        .create_with(t, base, &[("area", Value::Int(20))])
        .unwrap();
    db.commit(t).unwrap();
    let t = db.begin().unwrap();
    let (hits, plan) = db
        .query_with_plan(t, "select s from Shape s where s.area >= 10")
        .unwrap();
    assert!(matches!(plan, Plan::IndexRange { .. }));
    assert_eq!(hits, vec![c, s]);
    // Subclass extent query sees only circles.
    let hits = db.query(t, "select c from Circle c").unwrap();
    assert_eq!(hits, vec![c]);
    db.commit(t).unwrap();
}

/// A subclass query answered from an ancestor's index returns instances
/// of the subclass only — not its siblings or the ancestor's own — just
/// as the extent scan of the same predicate does.
#[test]
fn subclass_query_via_ancestor_index_excludes_other_classes() {
    let db = Database::in_memory().unwrap();
    let shape = db
        .define_class("Shape")
        .attr("area", ValueType::Int, Value::Int(0))
        .define()
        .unwrap();
    let circle = db.define_class("Circle").base(shape).define().unwrap();
    let square = db.define_class("Square").base(shape).define().unwrap();
    db.create_index(shape, "area").unwrap();
    let t = db.begin().unwrap();
    let area = [("area", Value::Int(10))];
    let c = db.create_with(t, circle, &area).unwrap();
    let q = db.create_with(t, square, &area).unwrap();
    let s = db.create_with(t, shape, &area).unwrap();
    db.commit(t).unwrap();
    let t = db.begin().unwrap();
    for (src, want) in [
        ("select x from Circle x where x.area == 10", vec![c]),
        ("select x from Square x where x.area >= 10", vec![q]),
        ("select x from Shape x where x.area == 10", vec![c, q, s]),
    ] {
        let (hits, plan) = db.query_with_plan(t, src).unwrap();
        assert_ne!(plan, Plan::ExtentScan, "{src}");
        assert_eq!(hits, want, "{src}");
    }
    let scan = db
        .query(t, "select x from Circle x where x.area + 0 == 10")
        .unwrap();
    assert_eq!(scan, vec![c]);
    db.commit(t).unwrap();
}

/// A snapshot reader that meets an object for the first time while a
/// writer holds uncommitted writes to several of its attributes — one
/// of them rolled back with a subtransaction — gets the committed
/// pre-image: the Change PM's reconstruction undoes the writer's log
/// slot by slot. After a restart no version chain exists yet, so the
/// read takes exactly that path.
#[test]
fn first_snapshot_read_under_uncommitted_writes_sees_the_committed_image() {
    let dir = std::env::temp_dir().join(format!("reach-pm-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let declare = |db: &Database| {
        db.define_class("Reading")
            .attr("a", ValueType::Int, Value::Int(1))
            .attr("b", ValueType::Str, Value::Str("one".into()))
            .attr("c", ValueType::Int, Value::Int(3))
            .define()
            .unwrap()
    };
    let oid = {
        let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
        let class = declare(&db);
        let t = db.begin().unwrap();
        let oid = db.create(t, class).unwrap();
        db.persist(t, oid).unwrap();
        db.commit(t).unwrap();
        db.checkpoint().unwrap();
        oid
    };
    let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
    declare(&db);
    let w = db.begin().unwrap();
    db.set_attr(w, oid, "a", Value::Int(10)).unwrap();
    db.set_attr(w, oid, "b", Value::Str("two".into())).unwrap();
    let child = db.begin_nested(w).unwrap();
    db.set_attr(child, oid, "c", Value::Int(30)).unwrap();
    db.set_attr(child, oid, "a", Value::Int(11)).unwrap();
    db.abort(child).unwrap();
    db.set_attr(w, oid, "c", Value::Int(40)).unwrap();
    db.set_attr(w, oid, "a", Value::Int(12)).unwrap();
    assert_eq!(db.snapshot_pm().retained_versions(), 0, "no chain yet");

    let image = |t| ["a", "b", "c"].map(|name| db.get_attr(t, oid, name).unwrap());
    let committed = [Value::Int(1), Value::Str("one".into()), Value::Int(3)];
    let written = [Value::Int(12), Value::Str("two".into()), Value::Int(40)];
    let reader = db.begin_read_only().unwrap();
    assert_eq!(image(reader), committed);
    assert_eq!(image(w), written);
    db.commit(w).unwrap();
    assert_eq!(image(reader), committed, "the reader's stamp predates w");
    db.commit(reader).unwrap();
    let later = db.begin_read_only().unwrap();
    assert_eq!(image(later), written);
    db.commit(later).unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Writes to subclass instances of an indexed and an unindexed attribute
/// — committed, aborted, and rolled back with a subtransaction inside a
/// committed parent — leave the index shadow and the persistent tree in
/// step, and the index answering with the committed values.
/// A snapshot read of an oid no object holds must leave no version
/// behind: vacuum never drops a chain's only version, so a client
/// probing absent oids would otherwise grow the store without bound.
#[test]
fn snapshot_reads_of_absent_objects_retain_no_versions() {
    let (db, _) = db_with_points();
    let reader = db.begin_read_only().unwrap();
    for i in 1..=1000u64 {
        let absent = reach_common::ObjectId::new(1 << 40 | i);
        assert!(db.get_attr(reader, absent, "x").is_err());
    }
    db.commit(reader).unwrap();
    assert_eq!(db.snapshot_pm().retained_versions(), 0);
}

#[test]
fn subclass_writes_keep_the_index_shadow_and_tree_in_step() {
    let db = Database::in_memory().unwrap();
    let shape = db
        .define_class("Shape")
        .attr("area", ValueType::Int, Value::Int(0))
        .attr("label", ValueType::Str, Value::Str(String::new()))
        .define()
        .unwrap();
    let circle = db
        .define_class("Circle")
        .base(shape)
        .attr("radius", ValueType::Int, Value::Int(0))
        .define()
        .unwrap();
    db.create_index(shape, "area").unwrap();
    let verify = || db.indexing_pm().verify_shadow().unwrap();

    let t = db.begin().unwrap();
    let c = db
        .create_with(t, circle, &[("area", Value::Int(1))])
        .unwrap();
    let s = db
        .create_with(t, shape, &[("area", Value::Int(2))])
        .unwrap();
    db.commit(t).unwrap();
    verify();

    let t = db.begin().unwrap();
    db.set_attr(t, c, "area", Value::Int(10)).unwrap();
    db.set_attr(t, c, "label", Value::Str("big".into()))
        .unwrap();
    db.set_attr(t, c, "radius", Value::Int(5)).unwrap();
    db.set_attr(t, s, "label", Value::Str("plain".into()))
        .unwrap();
    db.commit(t).unwrap();
    verify();

    let t = db.begin().unwrap();
    db.set_attr(t, c, "area", Value::Int(20)).unwrap();
    db.set_attr(t, c, "radius", Value::Int(6)).unwrap();
    db.abort(t).unwrap();
    verify();

    let t = db.begin().unwrap();
    db.set_attr(t, c, "label", Value::Str("kept".into()))
        .unwrap();
    let child = db.begin_nested(t).unwrap();
    db.set_attr(child, c, "area", Value::Int(30)).unwrap();
    db.set_attr(child, c, "radius", Value::Int(7)).unwrap();
    db.abort(child).unwrap();
    db.set_attr(t, s, "area", Value::Int(40)).unwrap();
    db.commit(t).unwrap();
    verify();

    let t = db.begin().unwrap();
    for (src, want) in [
        ("select x from Shape x where x.area == 10", vec![c]),
        ("select x from Shape x where x.area == 40", vec![s]),
        (
            "select x from Shape x where x.area >= 20 and x.area < 40",
            vec![],
        ),
        ("select x from Circle x where x.area == 10", vec![c]),
    ] {
        let (hits, plan) = db.query_with_plan(t, src).unwrap();
        assert_ne!(plan, Plan::ExtentScan, "{src}");
        assert_eq!(hits, want, "{src}");
    }
    assert_eq!(db.get_attr(t, c, "radius").unwrap(), Value::Int(5));
    assert_eq!(
        db.get_attr(t, c, "label").unwrap(),
        Value::Str("kept".into())
    );
    db.commit(t).unwrap();
}
