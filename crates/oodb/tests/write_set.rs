//! The Change PM's log is the one per-transaction write record: the
//! Persistence PM writes it back, the Indexing PM flushes the
//! persistent trees from it, 2PC prepares it. Checked through the
//! assembled database, file-backed wherever durability is the point.

use open_oodb::{Database, DatabaseConfig};
use reach_common::{ClassId, ObjectId};
use reach_object::{Value, ValueType};
use std::collections::BTreeSet;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A database directory, removed when dropped.
struct Dir(PathBuf);

impl Dir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("reach-write-set-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Dir(path)
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn declare(db: &Database) -> ClassId {
    db.define_class("Gauge")
        .attr("a", ValueType::Int, Value::Int(0))
        .define()
        .unwrap()
}

fn open(dir: &Path) -> (Arc<Database>, ClassId) {
    let db = Database::open(dir, DatabaseConfig::default()).unwrap();
    let class = declare(&db);
    (db, class)
}

/// `open` plus the index on `Gauge.a`.
fn open_indexed(dir: &Path) -> (Arc<Database>, ClassId) {
    let (db, class) = open(dir);
    db.create_index(class, "a").unwrap();
    (db, class)
}

/// Every `(key, oid)` pair of the persistent tree behind `Gauge.a`.
fn tree_pairs(db: &Database, class: ClassId) -> BTreeSet<(Vec<u8>, u64)> {
    let sm = db.storage();
    let index = sm.create_index(&format!("idx.{}.a", class.raw())).unwrap();
    sm.index_range(index, Bound::Unbounded, Bound::Unbounded)
        .unwrap()
        .into_iter()
        .collect()
}

/// Every stored object record.
fn stored_records(db: &Database) -> BTreeSet<Vec<u8>> {
    let sm = db.storage();
    let seg = sm.create_segment("sys.objects").unwrap();
    sm.scan(seg).unwrap().into_iter().map(|(_, b)| b).collect()
}

fn pair(a: i64, oid: ObjectId) -> (Vec<u8>, u64) {
    (Value::Int(a).index_key(), oid.raw())
}

/// A stored object with `a` set, committed.
fn stored(db: &Database, class: ClassId, a: i64) -> ObjectId {
    let t = db.begin().unwrap();
    let oid = db.create_with(t, class, &[("a", Value::Int(a))]).unwrap();
    db.persist(t, oid).unwrap();
    db.commit(t).unwrap();
    oid
}

fn read_a(db: &Database, oid: ObjectId) -> Value {
    let t = db.begin().unwrap();
    let v = db.get_attr(t, oid, "a").unwrap();
    db.commit(t).unwrap();
    v
}

/// A delete of a stored object that is rolled back — by a top-level
/// abort or with a subtransaction — leaves the object persistent, so a
/// later committed write is written back and survives a restart.
#[test]
fn an_undone_delete_keeps_the_object_persistent() {
    let dir = Dir::new("undone-delete");
    let (x, y) = {
        let (db, class) = open(&dir.0);
        let x = stored(&db, class, 0);
        let y = stored(&db, class, 0);

        let t = db.begin().unwrap();
        db.delete_object(t, x).unwrap();
        db.abort(t).unwrap();

        let t = db.begin().unwrap();
        let child = db.begin_nested(t).unwrap();
        db.delete_object(child, y).unwrap();
        db.abort(child).unwrap();
        db.commit(t).unwrap();

        for oid in [x, y] {
            assert!(db.space().is_persistent(oid), "{oid} lost its mark");
            let t = db.begin().unwrap();
            db.set_attr(t, oid, "a", Value::Int(5)).unwrap();
            db.commit(t).unwrap();
        }
        (x, y)
    };
    let (db, _) = open(&dir.0);
    assert_eq!(read_a(&db, x), Value::Int(5));
    assert_eq!(read_a(&db, y), Value::Int(5));
}

/// A committed delete of a stored, indexed object removes it from the
/// space, the store and both sides of the index: the flush never
/// faults it back in.
#[test]
fn a_committed_delete_of_a_stored_indexed_object_stays_deleted() {
    let dir = Dir::new("delete-stored");
    let (db, class) = open_indexed(&dir.0);
    let x = stored(&db, class, 4);
    let t = db.begin().unwrap();
    db.delete_object(t, x).unwrap();
    db.commit(t).unwrap();
    db.indexing_pm().verify_shadow().unwrap();
    assert!(!db.space().is_resident(x));
    assert!(db.persistence_pm().stored_ids().is_empty());
    assert!(tree_pairs(&db, class).is_empty());
    let t = db.begin().unwrap();
    assert!(db.get_attr(t, x, "a").is_err());
    assert!(db
        .query(t, "select g from Gauge g where g.a == 4")
        .unwrap()
        .is_empty());
    db.commit(t).unwrap();
}

/// A prepared write of an indexed attribute, then a commit decision:
/// the tree holds exactly the new pair, and the value and the index
/// survive a restart.
#[test]
fn indexes_through_2pc_commit_decision() {
    let dir = Dir::new("2pc-commit");
    let x = {
        let (db, class) = open_indexed(&dir.0);
        let x = stored(&db, class, 1);
        let t = db.begin().unwrap();
        db.set_attr(t, x, "a", Value::Int(2)).unwrap();
        db.prepare(t, 7).unwrap();
        db.decide(t, true).unwrap();
        db.indexing_pm().verify_shadow().unwrap();
        assert_eq!(tree_pairs(&db, class), BTreeSet::from([pair(2, x)]));
        x
    };
    let (db, class) = open_indexed(&dir.0);
    db.indexing_pm().verify_shadow().unwrap();
    assert_eq!(tree_pairs(&db, class), BTreeSet::from([pair(2, x)]));
    assert_eq!(read_a(&db, x), Value::Int(2));
    let t = db.begin().unwrap();
    assert_eq!(
        db.query(t, "select g from Gauge g where g.a == 2").unwrap(),
        vec![x]
    );
    db.commit(t).unwrap();
}

/// A prepared write, create and delete, then an abort decision: the
/// tree, the stored records and `stored_ids()` are back to their state
/// before the transaction.
#[test]
fn indexes_through_2pc_abort_decision() {
    let dir = Dir::new("2pc-abort");
    let (db, class) = open_indexed(&dir.0);
    let x = stored(&db, class, 1);
    let z = stored(&db, class, 3);
    let (tree, records, ids) = (
        tree_pairs(&db, class),
        stored_records(&db),
        db.persistence_pm().stored_ids(),
    );
    assert_eq!(tree, BTreeSet::from([pair(1, x), pair(3, z)]));

    let t = db.begin().unwrap();
    db.set_attr(t, x, "a", Value::Int(2)).unwrap();
    db.delete_object(t, z).unwrap();
    let y = db.create_with(t, class, &[("a", Value::Int(9))]).unwrap();
    db.persist(t, y).unwrap();
    db.prepare(t, 8).unwrap();
    db.decide(t, false).unwrap();

    db.indexing_pm().verify_shadow().unwrap();
    assert_eq!(tree_pairs(&db, class), tree);
    assert_eq!(stored_records(&db), records);
    assert_eq!(db.persistence_pm().stored_ids(), ids);
    assert_eq!(read_a(&db, x), Value::Int(1));
    assert_eq!(read_a(&db, z), Value::Int(3));
}

/// The trees receive a transaction's net change per object and index:
/// a value written 5 → 7 → 5 and an object created and deleted again
/// log no index record at all.
#[test]
fn the_index_flush_logs_the_net_change_only() {
    let db = Database::in_memory().unwrap();
    let class = declare(&db);
    db.create_index(class, "a").unwrap();
    let t = db.begin().unwrap();
    let x = db.create_with(t, class, &[("a", Value::Int(5))]).unwrap();
    db.commit(t).unwrap();

    db.metrics().enable();
    let index = &db.metrics().index;
    let (inserts, deletes) = (index.inserts.get(), index.deletes.get());
    let t = db.begin().unwrap();
    db.set_attr(t, x, "a", Value::Int(7)).unwrap();
    db.set_attr(t, x, "a", Value::Int(5)).unwrap();
    let y = db.create_with(t, class, &[("a", Value::Int(9))]).unwrap();
    db.delete_object(t, y).unwrap();
    db.commit(t).unwrap();
    assert_eq!(index.inserts.get() - inserts, 0);
    assert_eq!(index.deletes.get() - deletes, 0);
    db.indexing_pm().verify_shadow().unwrap();
    assert_eq!(tree_pairs(&db, class), BTreeSet::from([pair(5, x)]));
}
