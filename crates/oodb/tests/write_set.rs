//! The Change PM's log is the one per-transaction write record —
//! writes, creates, deletes, persists and root binds: the Persistence
//! PM writes it back, the Indexing PM flushes the persistent trees from
//! it, 2PC prepares it. Checked through the assembled database,
//! file-backed wherever durability is the point.
//!
//! Replay a failure of the model sweep with `REACH_SEED=<seed> cargo
//! test -p open-oodb --test write_set`.

use open_oodb::{Database, DatabaseConfig};
use reach_common::{announce_seed, seed_from_env, ClassId, ObjectId, SplitMix64, TxnId};
use reach_object::{Value, ValueType};
use std::collections::{BTreeMap, BTreeSet};
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

/// A persist and a root bind made inside a subtransaction belong to the
/// top-level transaction once the child commits: the object is written
/// back with it and the root survives a restart.
#[test]
fn a_persist_inside_a_subtransaction_survives_commit_and_reopen() {
    let dir = Dir::new("nested-persist");
    let oid = {
        let (db, class) = open(&dir.0);
        let t = db.begin().unwrap();
        let child = db.begin_nested(t).unwrap();
        let oid = db
            .create_with(child, class, &[("a", Value::Int(3))])
            .unwrap();
        db.persist_named(child, "doc", oid).unwrap();
        db.commit(child).unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.persistence_pm().stored_ids(), vec![oid]);
        assert_eq!(db.fetch("doc").unwrap(), oid);
        oid
    };
    let (db, _) = open(&dir.0);
    assert_eq!(db.fetch("doc").unwrap(), oid);
    assert_eq!(read_a(&db, oid), Value::Int(3));
}

/// A persist in a subtransaction that rolls back is undone: the object
/// is not written back when the parent commits, and it loses the
/// persistent mark the persist gave it.
#[test]
fn a_persist_in_a_rolled_back_subtransaction_is_undone() {
    let dir = Dir::new("nested-persist-undone");
    let (db, class) = open(&dir.0);
    let t = db.begin().unwrap();
    let oid = db.create(t, class).unwrap();
    let child = db.begin_nested(t).unwrap();
    db.persist_named(child, "doc", oid).unwrap();
    assert!(db.space().is_persistent(oid));
    db.abort(child).unwrap();
    assert!(
        !db.space().is_persistent(oid),
        "the undone persist left its mark"
    );
    db.commit(t).unwrap();
    assert_eq!(db.persistence_pm().stored_count(), 0);
    assert!(db.fetch("doc").is_err());
}

/// A root bound by a transaction that aborts is never bound: not in
/// this process, and not after a later commit rewrites the roots and
/// the database is reopened.
#[test]
fn an_aborted_transaction_binds_no_root() {
    let dir = Dir::new("aborted-bind");
    {
        let (db, class) = open(&dir.0);
        let t = db.begin().unwrap();
        let oid = db.create(t, class).unwrap();
        db.persist_named(t, "doc", oid).unwrap();
        db.abort(t).unwrap();
        assert!(db.fetch("doc").is_err());
        let t = db.begin().unwrap();
        let other = db.create(t, class).unwrap();
        db.persist_named(t, "other", other).unwrap();
        db.commit(t).unwrap();
        assert!(db.fetch("doc").is_err());
    }
    let (db, _) = open(&dir.0);
    assert!(db.fetch("doc").is_err());
    assert!(db.fetch("other").is_ok());
}

/// A root bind locks the roots until its transaction ends, so a second
/// bind waits out a prepared one: the abort decision then puts back a
/// roots record no other commit has written since, and the second
/// bind's root is bound in this process and survives a restart.
#[test]
fn a_bind_waits_for_a_prepared_bind() {
    let dir = Dir::new("abort-decision-bind");
    let b = {
        let (db, class) = open(&dir.0);
        let t1 = db.begin().unwrap();
        let a = db.create(t1, class).unwrap();
        db.persist_named(t1, "a", a).unwrap();
        db.prepare(t1, 1).unwrap();
        assert!(db.fetch("a").is_err(), "an in-doubt bind is visible");
        let t2 = db.begin().unwrap();
        let b = db.create(t2, class).unwrap();
        let soon = std::time::Instant::now() + std::time::Duration::from_millis(20);
        db.txn_manager().locks().set_deadline(t2, Some(soon));
        assert!(db.persist_named(t2, "b", b).is_err(), "two binds ran");
        db.decide(t1, false).unwrap();
        db.txn_manager().locks().set_deadline(t2, None);
        db.persist_named(t2, "b", b).unwrap();
        db.commit(t2).unwrap();
        assert!(db.fetch("a").is_err());
        assert_eq!(db.fetch("b").unwrap(), b);
        b
    };
    let (db, _) = open(&dir.0);
    assert!(db.fetch("a").is_err());
    assert_eq!(db.fetch("b").unwrap(), b);
    assert_eq!(read_a(&db, b), Value::Int(0));
}

/// A persist locks its object, so a second transaction's persist waits
/// for the first's end: the first's rollback cannot take the mark the
/// second's commit stores, and the object stays persistent.
#[test]
fn a_persist_waits_for_another_persist_of_the_object() {
    let dir = Dir::new("persist-lock");
    let (db, class) = open(&dir.0);
    let t = db.begin().unwrap();
    let x = db.create(t, class).unwrap();
    db.commit(t).unwrap();
    let t1 = db.begin().unwrap();
    db.persist(t1, x).unwrap();
    let t2 = db.begin().unwrap();
    let soon = std::time::Instant::now() + std::time::Duration::from_millis(20);
    db.txn_manager().locks().set_deadline(t2, Some(soon));
    assert!(db.persist(t2, x).is_err(), "two persists of one object ran");
    db.abort(t1).unwrap();
    assert!(!db.space().is_persistent(x));
    db.txn_manager().locks().set_deadline(t2, None);
    db.persist(t2, x).unwrap();
    db.commit(t2).unwrap();
    assert!(db.space().is_persistent(x));
    assert!(db.persistence_pm().is_stored(x));
}

/// Rebinding a root inside a subtransaction that rolls back keeps the
/// old binding, in this process and after a restart.
#[test]
fn a_rebinding_in_a_rolled_back_subtransaction_keeps_the_old_binding() {
    let dir = Dir::new("nested-rebind-undone");
    let x = {
        let (db, class) = open(&dir.0);
        let t = db.begin().unwrap();
        let x = db.create(t, class).unwrap();
        db.persist_named(t, "doc", x).unwrap();
        db.commit(t).unwrap();

        let t = db.begin().unwrap();
        let child = db.begin_nested(t).unwrap();
        let y = db.create(child, class).unwrap();
        db.persist_named(child, "doc", y).unwrap();
        db.abort(child).unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.fetch("doc").unwrap(), x);
        x
    };
    let (db, _) = open(&dir.0);
    assert_eq!(db.fetch("doc").unwrap(), x);
}

/// After a reopen, a new object never takes the id of a stored object
/// that has not been faulted in yet.
#[test]
fn a_create_after_a_reopen_takes_a_fresh_id() {
    let dir = Dir::new("fresh-id");
    let x = {
        let (db, class) = open(&dir.0);
        stored(&db, class, 7)
    };
    let (db, class) = open(&dir.0);
    let t = db.begin().unwrap();
    let y = db.create(t, class).unwrap();
    db.commit(t).unwrap();
    assert_ne!(x, y);
    assert_eq!(read_a(&db, x), Value::Int(7));
}

/// After a reopen, a new object never takes the id of a transient
/// object of the last run that the persistent index still names:
/// otherwise the old pair would index the new object under a value it
/// never had.
#[test]
fn a_create_after_a_reopen_takes_no_id_the_index_names() {
    let dir = Dir::new("indexed-id");
    let x = {
        let (db, class) = open_indexed(&dir.0);
        let t = db.begin().unwrap();
        let x = db.create_with(t, class, &[("a", Value::Int(26))]).unwrap();
        db.commit(t).unwrap();
        x
    };
    let (db, class) = open_indexed(&dir.0);
    let t = db.begin().unwrap();
    let y = db.create_with(t, class, &[("a", Value::Int(43))]).unwrap();
    db.commit(t).unwrap();
    assert_ne!(x, y);
    db.indexing_pm().verify_shadow().unwrap();
}

/// After a reopen, a stored object that has not been faulted in yet can
/// be persisted again and deleted.
#[test]
fn a_stored_object_is_persisted_and_deleted_before_it_is_read() {
    let dir = Dir::new("not-resident");
    let (x, y) = {
        let (db, class) = open(&dir.0);
        (stored(&db, class, 1), stored(&db, class, 2))
    };
    let (db, _) = open(&dir.0);
    let t = db.begin().unwrap();
    db.persist(t, x).unwrap();
    db.delete_object(t, y).unwrap();
    db.commit(t).unwrap();
    assert_eq!(db.persistence_pm().stored_ids(), vec![x]);
    assert_eq!(read_a(&db, x), Value::Int(1));
}

/// What the model sweep expects of the database: each live object's
/// `a` and persistent mark, and the roots.
#[derive(Clone, Default)]
struct Model {
    objects: BTreeMap<ObjectId, (i64, bool)>,
    roots: BTreeMap<String, ObjectId>,
}

impl Model {
    /// The objects a commit has written back, with their `a`.
    fn stored(&self) -> BTreeMap<ObjectId, i64> {
        self.objects
            .iter()
            .filter(|(_, (_, persistent))| *persistent)
            .map(|(oid, (a, _))| (*oid, *a))
            .collect()
    }

    fn pick(&self, rng: &mut SplitMix64) -> Option<ObjectId> {
        let n = self.objects.len();
        (n > 0).then(|| *self.objects.keys().nth(rng.below(n)).unwrap())
    }
}

const NAMES: [&str; 3] = ["r0", "r1", "r2"];

/// A class like `Gauge` that no index covers.
fn declare_plain(db: &Database) -> ClassId {
    db.define_class("Plain")
        .attr("a", ValueType::Int, Value::Int(0))
        .define()
        .unwrap()
}

/// The stored objects, their `a` (read by a writer and by a snapshot
/// reader) and the roots are the model's.
fn check(db: &Database, want: &Model, at: &str) {
    let stored = want.stored();
    let ids: Vec<ObjectId> = stored.keys().copied().collect();
    assert_eq!(db.persistence_pm().stored_ids(), ids, "{at}: stored ids");
    for (oid, a) in &stored {
        assert_eq!(read_a(db, *oid), Value::Int(*a), "{at}: {oid}");
    }
    let t = db.begin_read_only().unwrap();
    for (oid, (a, _)) in &want.objects {
        let got = db.get_attr(t, *oid, "a").unwrap();
        assert_eq!(got, Value::Int(*a), "{at}: snapshot of {oid}");
    }
    db.commit(t).unwrap();
    for name in NAMES {
        let got = db.fetch(name).ok();
        assert_eq!(got, want.roots.get(name).copied(), "{at}: root {name}");
    }
    db.indexing_pm().verify_shadow().unwrap();
}

/// End the innermost subtransaction: commit it, or roll it back and
/// restore the state saved at its begin.
fn end_child(db: &Database, frames: &mut Vec<(TxnId, Model)>, cur: &mut Model, commit: bool) {
    let (child, saved) = frames.pop().unwrap();
    if commit {
        db.commit(child).unwrap();
    } else {
        db.abort(child).unwrap();
        *cur = saved;
    }
}

/// A seeded sweep of top-level transactions with nested
/// subtransactions over creates, writes, deletes, persists and root
/// binds; subtransactions roll back, tops abort or go through 2PC.
/// After every top, the database holds what a model that applies
/// exactly the committed operations holds, and a snapshot reader begun
/// before the top still reads the state before it. The database is
/// reopened every 25 tops, so objects meet their first write with no version
/// chain, and at the end.
#[test]
fn the_write_record_matches_a_model_of_nested_transactions() {
    const TOPS: usize = 150;
    let seed = seed_from_env(0x5EED_0041);
    announce_seed(
        "the_write_record_matches_a_model_of_nested_transactions",
        seed,
    );
    let mut rng = SplitMix64::new(seed);
    let dir = Dir::new("model");
    let mut committed = Model::default();
    let mut open_db = None;
    for n in 0..TOPS {
        if n % 25 == 0 {
            drop(open_db.take());
            // Only what was written back survives a reopen.
            committed.objects.retain(|_, (_, persistent)| *persistent);
            // `Gauge.a` is indexed, `Plain.a` is not.
            let (db, gauge) = open_indexed(&dir.0);
            open_db = Some((Arc::clone(&db), [gauge, declare_plain(&db)]));
        }
        let (db, classes) = open_db.as_ref().unwrap();
        let db = db.as_ref();
        let before = db.begin_read_only().unwrap();
        let top = db.begin().unwrap();
        // Per open transaction, the state at its begin.
        let mut frames = vec![(top, committed.clone())];
        let mut cur = committed.clone();
        for _ in 0..1 + rng.below(8) {
            let txn = frames.last().unwrap().0;
            let a = rng.below(50) as i64;
            match rng.below(10) {
                0 if frames.len() < 3 => {
                    frames.push((db.begin_nested(txn).unwrap(), cur.clone()));
                }
                1 if frames.len() > 1 => {
                    let commit = rng.chance(1, 2);
                    end_child(db, &mut frames, &mut cur, commit);
                }
                2 | 3 => {
                    let class = classes[rng.below(2)];
                    let oid = db.create_with(txn, class, &[("a", Value::Int(a))]).unwrap();
                    cur.objects.insert(oid, (a, false));
                }
                4 | 5 => {
                    if let Some(oid) = cur.pick(&mut rng) {
                        db.set_attr(txn, oid, "a", Value::Int(a)).unwrap();
                        cur.objects.get_mut(&oid).unwrap().0 = a;
                    }
                }
                6 => {
                    if let Some(oid) = cur.pick(&mut rng) {
                        db.delete_object(txn, oid).unwrap();
                        cur.objects.remove(&oid);
                    }
                }
                7 => {
                    if let Some(oid) = cur.pick(&mut rng) {
                        db.persist(txn, oid).unwrap();
                        cur.objects.get_mut(&oid).unwrap().1 = true;
                    }
                }
                8 => {
                    if let Some(oid) = cur.pick(&mut rng) {
                        let name = NAMES[rng.below(NAMES.len())];
                        db.persist_named(txn, name, oid).unwrap();
                        cur.objects.get_mut(&oid).unwrap().1 = true;
                        cur.roots.insert(name.to_string(), oid);
                    }
                }
                _ => {}
            }
        }
        while frames.len() > 1 {
            let commit = rng.chance(1, 2);
            end_child(db, &mut frames, &mut cur, commit);
        }
        let commit = match rng.below(8) {
            0 => {
                db.abort(top).unwrap();
                false
            }
            1 | 2 => {
                db.prepare(top, n as u64 + 1).unwrap();
                let commit = rng.chance(1, 2);
                db.decide(top, commit).unwrap();
                commit
            }
            _ => {
                db.commit(top).unwrap();
                true
            }
        };
        let at = format!("seed {seed:#x}, top {n}");
        for (oid, (a, _)) in &committed.objects {
            let got = db.get_attr(before, *oid, "a");
            assert_eq!(
                got,
                Ok(Value::Int(*a)),
                "{at}: the snapshot before of {oid}"
            );
        }
        db.commit(before).unwrap();
        if commit {
            committed = cur;
        }
        for (oid, (_, persistent)) in &committed.objects {
            assert_eq!(db.space().is_persistent(*oid), *persistent, "{at}: {oid}");
        }
        check(db, &committed, &at);
    }
    drop(open_db);
    committed.objects.retain(|_, (_, persistent)| *persistent);
    let (db, _) = open_indexed(&dir.0);
    declare_plain(&db);
    check(&db, &committed, &format!("seed {seed:#x}, reopened"));
}
