//! The Persistence PM: explicit persistence with fault-in, write-back at
//! commit, and persistent named roots.
//!
//! Open OODB extends object dereference to support persistence: a
//! non-resident object is faulted in transparently when touched. Here
//! the [`ObjectSpace`]'s fault handler plays the sentry role, and this
//! PM implements the policy:
//!
//! * [`PersistencePm::persist`] marks an object persistent within a
//!   transaction; at top-level commit its state is externalized and
//!   written through the storage manager (logged, recoverable);
//! * dirty persistent objects are written back at commit;
//! * deletions of persistent objects remove the stored record — giving
//!   REACH the *explicit delete* whose absence under O2's
//!   persistence-by-reachability made deletion rules nearly impossible
//!   (§4);
//! * data-dictionary name bindings are stored in their own segment so
//!   roots survive restarts.
//!
//! The PM keeps no per-transaction record: a persist and a root bind
//! are Change PM log entries, so a subtransaction's persists and binds
//! roll back with it and an abort undoes them with everything else. All
//! of it is one write-back, `write_back_all`, which a one-phase commit
//! and a 2PC prepare both run before their durability point. It seals
//! the Change PM's commit set — each object imaged once — and hands it
//! to the Indexing PM's flush first, so the index records sit in the
//! same WAL window as the objects; the Snapshot PM publishes the same
//! set. A bind is written into the roots record there but reaches the
//! dictionary only once the commit is durable, so no other transaction
//! sees an in-doubt or aborted root.

use crate::dictionary::DataDictionary;
use crate::meta::PolicyManager;
use crate::pm::change::{Change, ChangePm, CommitSet};
use crate::pm::indexing::IndexingPm;
use crate::pm::snapshot::SnapshotPm;
use crate::translation::{externalize, internalize};
use reach_common::codec::{put_str, put_u32, put_u64, Reader};
use reach_common::sync::{Mutex, RwLock};
use reach_common::{FastMap, ObjectId, ReachError, Result, TxnId};
use reach_object::ObjectSpace;
use reach_storage::{RecordId, SegmentId, StorageManager};
use reach_txn::ResourceManager;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const OBJECT_SEGMENT: &str = "sys.objects";
const ROOTS_SEGMENT: &str = "sys.roots";

/// The persistence policy manager.
pub struct PersistencePm {
    sm: Arc<StorageManager>,
    space: Arc<ObjectSpace>,
    change: Arc<ChangePm>,
    indexing: Arc<IndexingPm>,
    snapshot: Arc<SnapshotPm>,
    dictionary: Arc<DataDictionary>,
    objects_seg: SegmentId,
    roots_seg: SegmentId,
    /// Where each persistent object lives on disk.
    locations: Mutex<FastMap<ObjectId, RecordId>>,
    /// Location of the single roots record, once written. Held while a
    /// commit binds its roots and writes the record, so each write
    /// carries every bind made before it.
    roots_record: Mutex<Option<RecordId>>,
    /// Observers of `persist()` calls — the paper's `persist`
    /// DB-internal event (§3.1) is detected here.
    persist_hooks: RwLock<Vec<PersistHook>>,
}

/// Observer of `persist()` calls.
pub type PersistHook = Arc<dyn Fn(TxnId, ObjectId) + Send + Sync>;

impl PersistencePm {
    /// Create the PM, its segments, and install the fault handler;
    /// existing stored objects and roots are loaded automatically.
    pub fn new(
        sm: Arc<StorageManager>,
        space: Arc<ObjectSpace>,
        change: Arc<ChangePm>,
        indexing: Arc<IndexingPm>,
        snapshot: Arc<SnapshotPm>,
        dictionary: Arc<DataDictionary>,
    ) -> Result<Arc<Self>> {
        let objects_seg = sm.create_segment(OBJECT_SEGMENT)?;
        let roots_seg = sm.create_segment(ROOTS_SEGMENT)?;
        let pm = Arc::new(PersistencePm {
            sm,
            space: Arc::clone(&space),
            change,
            indexing,
            snapshot,
            dictionary,
            objects_seg,
            roots_seg,
            locations: Mutex::new(FastMap::default()),
            roots_record: Mutex::new(None),
            persist_hooks: RwLock::new(Vec::new()),
        });
        let weak = Arc::downgrade(&pm);
        space.set_fault_handler(Arc::new(move |oid| match weak.upgrade() {
            Some(pm) => pm.fault(oid),
            None => Ok(None),
        }));
        pm.load_existing(true).map(|_| pm)
    }

    /// Rebuild the location index and find the roots record; at open,
    /// also load the `dictionary` from it. Walks the objects segment in
    /// place (borrowed payloads, nothing is copied) instead of
    /// materializing every stored object into a scan vector.
    fn load_existing(&self, dictionary: bool) -> Result<()> {
        let mut locations = self.locations.lock();
        locations.clear();
        let mut loaded = Ok(());
        self.sm
            .for_each_while(self.objects_seg, |rid, bytes| match internalize(bytes) {
                Ok((oid, _)) => {
                    locations.insert(oid, rid);
                    self.space.mark_persistent(oid);
                    self.space.ids_advance_past(oid);
                    std::ops::ControlFlow::Continue(())
                }
                Err(e) => {
                    loaded = Err(e);
                    std::ops::ControlFlow::Break(())
                }
            })?;
        loaded?;
        // Roots: a single record of `name_len name oid` triples.
        let roots = self.sm.scan_first(self.roots_seg)?;
        if let (true, Some((_, bytes))) = (dictionary, &roots) {
            self.dictionary.load(decode_roots(bytes)?);
        }
        *self.roots_record.lock() = roots.map(|(rid, _)| rid);
        Ok(())
    }

    /// Fault handler: load a persistent object's state from storage.
    fn fault(&self, oid: ObjectId) -> Result<Option<reach_object::ObjectState>> {
        let Some(rid) = self.locations.lock().get(&oid).copied() else {
            return Ok(None);
        };
        let bytes = self.sm.get(self.objects_seg, rid)?;
        let (stored_oid, state) = internalize(&bytes)?;
        debug_assert_eq!(stored_oid, oid);
        Ok(Some(state))
    }

    /// Make `oid` persistent. The object is marked immediately (so
    /// §3.2's transient-reference check passes) and written back when
    /// `txn`'s top level commits; a rollback of `txn` drops the mark.
    /// The caller holds the object's exclusive lock, as
    /// `Database::persist` does, so this is the only persist of it in
    /// flight and the mark it found is the one to put back.
    pub fn persist(&self, txn: TxnId, oid: ObjectId) -> Result<()> {
        let marked = self.space.is_persistent(oid);
        // A stored object need not be resident; a deleted one is unmarked.
        if !marked && !self.space.is_resident(oid) {
            return Err(ReachError::ObjectNotFound(oid));
        }
        self.change.record(txn, Change::Persist { oid, marked });
        self.space.mark_persistent(oid);
        for h in self.persist_hooks.read().clone().iter() {
            h(txn, oid);
        }
        Ok(())
    }

    /// Observe `persist()` calls (the REACH detector for the paper's
    /// `persist` DB-internal event registers here).
    pub fn add_persist_hook(&self, h: PersistHook) {
        self.persist_hooks.write().push(h);
    }

    /// Whether the object is known to live in stable storage.
    pub fn is_stored(&self, oid: ObjectId) -> bool {
        self.locations.lock().contains_key(&oid)
    }

    /// Number of stored objects.
    pub fn stored_count(&self) -> usize {
        self.locations.lock().len()
    }

    /// All persistent object ids (for full scans after restart).
    pub fn stored_ids(&self) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = self.locations.lock().keys().copied().collect();
        v.sort();
        v
    }

    /// Everything `txn` must have in the log before its durability
    /// point, from its commit set: the index flush, then each object —
    /// a deleted one loses its stored record, a persisted or stored one
    /// is written — and, if it binds a root, the roots record.
    fn write_back_all(&self, txn: TxnId) -> Result<Arc<CommitSet>> {
        let set = self.change.seal(txn, |oid, class| {
            self.indexing.covers(class) || !self.snapshot.has_chain(oid)
        })?;
        self.indexing.flush(txn, &set)?;
        for (oid, w) in &set.objects {
            let mut locations = self.locations.lock();
            let (seg, rid) = (self.objects_seg, locations.get(oid).copied());
            match (&w.after, rid) {
                (None, Some(rid)) => {
                    locations.remove(oid);
                    self.sm.delete(txn, seg, rid)?;
                }
                (Some(state), Some(rid)) => {
                    self.sm.update(txn, seg, rid, &externalize(*oid, state))?;
                }
                (Some(state), None) if w.persisted => {
                    let rid = self.sm.insert(txn, seg, &externalize(*oid, state))?;
                    locations.insert(*oid, rid);
                }
                _ => {}
            }
        }
        self.save_roots(txn, &set.binds)?;
        Ok(set)
    }

    /// Rewrite the roots record as the dictionary with `binds` over it,
    /// if there are binds or the dictionary changed since it was last
    /// written: a transaction that binds nothing logs nothing here, so
    /// one that touched nothing commits without a WAL write and the
    /// storage manager's read-only fast path skips the sync.
    fn save_roots(&self, txn: TxnId, binds: &[(String, ObjectId)]) -> Result<()> {
        let mut rec = self.roots_record.lock();
        if !self.dictionary.dirty.swap(false, Ordering::AcqRel) && binds.is_empty() {
            return Ok(());
        }
        let mut names: BTreeMap<_, _> = self.dictionary.bindings().into_iter().collect();
        names.extend(binds.iter().cloned());
        let bytes = encode_roots(&names.into_iter().collect::<Vec<_>>());
        match *rec {
            Some(rid) => self.sm.update(txn, self.roots_seg, rid, &bytes),
            None => {
                *rec = Some(self.sm.insert(txn, self.roots_seg, &bytes)?);
                Ok(())
            }
        }
    }

    /// Bind a committed transaction's roots. The record holds them
    /// unless a commit that stored a changed dictionary wrote it since
    /// this one's write-back; a bind marks the dictionary changed, so
    /// the next commit stores them either way.
    fn bind_committed(&self, set: &CommitSet) {
        for (name, oid) in &set.binds {
            self.dictionary.bind(name, *oid);
        }
    }
}

impl ResourceManager for PersistencePm {
    fn begin_top(&self, txn: TxnId) -> Result<()> {
        self.sm.begin(txn)
    }

    fn savepoint(&self, _top: TxnId) -> Result<u64> {
        // Storage is only written during commit, so mid-transaction
        // rollback has nothing to undo here.
        Ok(0)
    }

    fn rollback_to(&self, _top: TxnId, _savepoint: u64) -> Result<()> {
        Ok(())
    }

    fn commit_top(&self, txn: TxnId) -> Result<()> {
        // A sealed commit set is a 2PC commit decision: the write-back
        // already happened under `prepare_top` and sits below the forced
        // Prepare record; only the Commit record remains.
        if let Some(set) = self.change.sealed(txn) {
            self.sm.decide_commit(txn)?;
            self.bind_committed(&set);
            return Ok(());
        }
        let set = self.write_back_all(txn)?;
        self.sm.commit(txn)?;
        self.bind_committed(&set);
        Ok(())
    }

    fn prepare_top(&self, txn: TxnId, gid: u64) -> Result<()> {
        // The forced Prepare record instead of the Commit: everything
        // the eventual commit decision needs is durable, and everything
        // an abort decision must undo is WAL-covered.
        self.write_back_all(txn)?;
        self.sm.prepare(txn, gid)
    }

    fn abort_top(&self, txn: TxnId) -> Result<()> {
        // This PM runs before the Change PM, whose log still tells
        // whether the write-back ran.
        let written = self.change.sealed(txn).is_some();
        self.sm.abort(txn)?;
        if written {
            // The undone write-back created/removed stored records behind
            // the location index and may have removed the roots record:
            // find both again in the rolled-back segments. The dictionary
            // never held this transaction's binds; the next commit stores
            // it over whatever roots record the undo put back. Rare path:
            // an abort decision after a successful local prepare, or a
            // failed commit.
            self.load_existing(false)?;
            self.dictionary.dirty.store(true, Ordering::Release);
        }
        Ok(())
    }
}

impl PolicyManager for PersistencePm {
    fn dimension(&self) -> &'static str {
        "persistence"
    }
    fn name(&self) -> &'static str {
        "wal-write-back"
    }
}

fn encode_roots(bindings: &[(String, ObjectId)]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, bindings.len() as u32);
    for (name, oid) in bindings {
        put_str(&mut out, name);
        put_u64(&mut out, oid.raw());
    }
    out
}

fn decode_roots(buf: &[u8]) -> Result<Vec<(String, ObjectId)>> {
    let mut r = Reader::new(buf, ReachError::Io);
    // A binding is at least a name length and an oid.
    let n = r.count(12)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((r.str()?, ObjectId::new(r.u64()?)));
    }
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_roots() -> Vec<(String, ObjectId)> {
        vec![
            ("plant".to_string(), ObjectId::new(7)),
            (String::new(), ObjectId::new(u64::MAX)),
        ]
    }

    /// FNV-1a 64 of `bytes`, to pin a format.
    fn digest(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn roots_record_round_trips_and_is_pinned() {
        let enc = encode_roots(&sample_roots());
        assert_eq!(decode_roots(&enc).unwrap(), sample_roots());
        assert_eq!(digest(&enc), 0xfe9abb3422855e28);
    }

    #[test]
    fn a_count_the_record_cannot_hold_is_an_error() {
        let got = decode_roots(&u32::MAX.to_le_bytes());
        assert!(matches!(got, Err(ReachError::Io(_))), "{got:?}");
    }

    #[test]
    fn trailing_bytes_after_the_roots_are_an_error() {
        let buf = [encode_roots(&sample_roots()), b"garbage".to_vec()].concat();
        let got = decode_roots(&buf);
        assert!(matches!(got, Err(ReachError::Io(_))), "{got:?}");
    }

    proptest! {
        #[test]
        fn garbage_roots_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            if let Err(e) = decode_roots(&bytes) {
                prop_assert!(matches!(e, ReachError::Io(_)), "{e:?}");
            }
        }

        #[test]
        fn bit_flipped_roots_never_panic(at in any::<prop::sample::Index>(), bit in 0u8..8) {
            let mut enc = encode_roots(&sample_roots());
            let i = at.index(enc.len());
            enc[i] ^= 1 << bit;
            if let Err(e) = decode_roots(&enc) {
                prop_assert!(matches!(e, ReachError::Io(_)), "{e:?}");
            }
        }
    }
}
