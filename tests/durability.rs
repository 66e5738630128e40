//! Durability and recovery across simulated crashes, at the full
//! database level: commit forces only the WAL; if the process dies
//! before any checkpoint flushes pages, reopening must replay the log
//! (the ARIES redo path) and recover every committed object.

use reach::{Database, DatabaseConfig, Value, ValueType};
use std::sync::Arc;

fn declare(db: &Arc<Database>) -> reach::ClassId {
    let (b, set) = db
        .define_class("Doc")
        .attr("body", ValueType::Str, Value::Str(String::new()))
        .attr("rev", ValueType::Int, Value::Int(0))
        .virtual_method("revise");
    let class = b.define().unwrap();
    db.methods().register_fn(set, |ctx| {
        ctx.set("body", ctx.arg(0))?;
        let r = ctx.get("rev")?.as_int()? + 1;
        ctx.set("rev", Value::Int(r))?;
        Ok(Value::Int(r))
    });
    class
}

#[test]
fn committed_objects_survive_crash_without_checkpoint() {
    let dir = std::env::temp_dir().join(format!("reach-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
        let class = declare(&db);
        let t = db.begin().unwrap();
        let doc = db.create(t, class).unwrap();
        db.invoke(t, doc, "revise", &[Value::Str("v1".into())])
            .unwrap();
        db.persist_named(t, "doc", doc).unwrap();
        db.commit(t).unwrap();
        // CRASH: no checkpoint, the Database is just dropped. Dirty
        // pages were never flushed; only the WAL is durable.
    }
    {
        let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
        declare(&db);
        let t = db.begin().unwrap();
        let doc = db.fetch("doc").unwrap();
        assert_eq!(
            db.get_attr(t, doc, "body").unwrap(),
            Value::Str("v1".into())
        );
        assert_eq!(db.get_attr(t, doc, "rev").unwrap(), Value::Int(1));
        db.commit(t).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn uncommitted_work_vanishes_after_crash() {
    let dir = std::env::temp_dir().join(format!("reach-crash2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
        let class = declare(&db);
        // Committed baseline.
        let t = db.begin().unwrap();
        let doc = db.create(t, class).unwrap();
        db.invoke(t, doc, "revise", &[Value::Str("stable".into())])
            .unwrap();
        db.persist_named(t, "doc", doc).unwrap();
        db.commit(t).unwrap();
        // An open transaction mutates the object, then the process dies
        // mid-flight (the storage write-back happens only at commit, so
        // this mostly exercises the loser-analysis path).
        let t2 = db.begin().unwrap();
        db.invoke(t2, doc, "revise", &[Value::Str("doomed".into())])
            .unwrap();
        // no commit — crash
    }
    {
        let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
        declare(&db);
        let t = db.begin().unwrap();
        let doc = db.fetch("doc").unwrap();
        assert_eq!(
            db.get_attr(t, doc, "body").unwrap(),
            Value::Str("stable".into())
        );
        db.commit(t).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn many_transactions_then_crash_then_more_transactions() {
    let dir = std::env::temp_dir().join(format!("reach-crash3-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let count = 25;
    {
        let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
        let class = declare(&db);
        for i in 0..count {
            let t = db.begin().unwrap();
            let doc = db.create(t, class).unwrap();
            db.invoke(t, doc, "revise", &[Value::Str(format!("doc{i}"))])
                .unwrap();
            db.persist_named(t, &format!("doc{i}"), doc).unwrap();
            db.commit(t).unwrap();
            if i == count / 2 {
                db.checkpoint().unwrap(); // mid-stream fuzzy checkpoint
            }
        }
    }
    {
        let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
        declare(&db);
        let t = db.begin().unwrap();
        for i in 0..count {
            let doc = db.fetch(&format!("doc{i}")).unwrap();
            assert_eq!(
                db.get_attr(t, doc, "body").unwrap(),
                Value::Str(format!("doc{i}")),
                "doc{i} must survive"
            );
        }
        db.commit(t).unwrap();
        // The store remains fully usable: write more and crash again.
        let t = db.begin().unwrap();
        let class = db.schema().class_by_name("Doc").unwrap();
        let extra = db.create(t, class).unwrap();
        db.persist_named(t, "extra", extra).unwrap();
        db.commit(t).unwrap();
    }
    {
        let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
        declare(&db);
        assert!(db.fetch("extra").is_ok());
        assert_eq!(db.persistence_pm().stored_count(), count + 1);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deleted_persistent_objects_stay_deleted_after_crash() {
    let dir = std::env::temp_dir().join(format!("reach-crash4-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
        let class = declare(&db);
        let t = db.begin().unwrap();
        let doc = db.create(t, class).unwrap();
        db.persist_named(t, "victim", doc).unwrap();
        db.commit(t).unwrap();
        let t = db.begin().unwrap();
        db.delete_object(t, doc).unwrap();
        db.dictionary().unbind("victim");
        db.commit(t).unwrap();
    }
    {
        let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
        declare(&db);
        assert!(db.fetch("victim").is_err());
        assert_eq!(db.persistence_pm().stored_count(), 0);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `levels` lists, each holding the next; the innermost is empty.
fn nested_lists(levels: usize) -> Value {
    (1..levels).fold(Value::List(Vec::new()), |inner, _| Value::List(vec![inner]))
}

#[test]
fn the_deepest_writable_list_survives_reopen() {
    // The decoders read a value at most MAX_VALUE_DEPTH levels below
    // the top, so the deepest readable list nests one level more.
    let deepest = nested_lists(reach::object::MAX_VALUE_DEPTH + 1);
    let dir = std::env::temp_dir().join(format!("reach-deep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let declare = |db: &Arc<Database>| {
        db.define_class("Tree")
            .attr("shape", ValueType::Any, Value::Null)
            .define()
            .unwrap()
    };
    {
        let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
        let class = declare(&db);
        let t = db.begin().unwrap();
        let tree = db.create(t, class).unwrap();
        db.set_attr(t, tree, "shape", deepest.clone()).unwrap();
        let deeper = nested_lists(reach::object::MAX_VALUE_DEPTH + 2);
        match db.set_attr(t, tree, "shape", deeper) {
            Err(reach::ReachError::TypeMismatch { .. }) => {}
            other => panic!("a list no decoder can read was written: {other:?}"),
        }
        db.persist_named(t, "tree", tree).unwrap();
        db.commit(t).unwrap();
    }
    {
        let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
        declare(&db);
        let t = db.begin().unwrap();
        let tree = db.fetch("tree").unwrap();
        assert_eq!(db.get_attr(t, tree, "shape").unwrap(), deepest);
        db.commit(t).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
