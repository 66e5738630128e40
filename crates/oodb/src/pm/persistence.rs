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
//! * dirty persistent objects (the Change PM's write set) are written
//!   back at commit;
//! * deletions of persistent objects remove the stored record — giving
//!   REACH the *explicit delete* whose absence under O2's
//!   persistence-by-reachability made deletion rules nearly impossible
//!   (§4);
//! * data-dictionary name bindings are stored in their own segment so
//!   roots survive restarts.
//!
//! All of it is one write-back, `write_back_all`, which a one-phase
//! commit and a 2PC prepare both run before their durability point; it
//! starts with the Indexing PM's flush, so the index records sit in the
//! same WAL window as the objects.

use crate::dictionary::DataDictionary;
use crate::meta::PolicyManager;
use crate::pm::change::ChangePm;
use crate::pm::indexing::IndexingPm;
use crate::translation::{externalize, internalize};
use reach_common::codec::{put_str, put_u32, put_u64, Reader};
use reach_common::sync::{Mutex, RwLock};
use reach_common::{FastMap, FastSet, ObjectId, ReachError, Result, TxnId};
use reach_object::ObjectSpace;
use reach_storage::{RecordId, SegmentId, StorageManager};
use reach_txn::ResourceManager;
use std::sync::Arc;

const OBJECT_SEGMENT: &str = "sys.objects";
const ROOTS_SEGMENT: &str = "sys.roots";

/// The persistence policy manager.
pub struct PersistencePm {
    sm: Arc<StorageManager>,
    space: Arc<ObjectSpace>,
    change: Arc<ChangePm>,
    indexing: Arc<IndexingPm>,
    dictionary: Arc<DataDictionary>,
    objects_seg: SegmentId,
    roots_seg: SegmentId,
    /// Where each persistent object lives on disk.
    locations: Mutex<FastMap<ObjectId, RecordId>>,
    /// Objects whose `persist()` happened in a still-running transaction.
    pending: Mutex<FastMap<TxnId, Vec<ObjectId>>>,
    /// Location of the single roots record, once written, plus the
    /// bytes last stored there — unchanged roots are skipped at commit
    /// so read-only transactions log nothing and hit the WAL's
    /// no-force fast path.
    roots_record: Mutex<(Option<RecordId>, Option<Vec<u8>>)>,
    /// Observers of `persist()` calls — the paper's `persist`
    /// DB-internal event (§3.1) is detected here.
    persist_hooks: RwLock<Vec<PersistHook>>,
    /// Transactions whose write-back already ran under `prepare_top`
    /// (2PC): their `commit_top` must only seal the decision, not
    /// repeat the write-back.
    prepared: Mutex<FastSet<TxnId>>,
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
        dictionary: Arc<DataDictionary>,
    ) -> Result<Arc<Self>> {
        let objects_seg = sm.create_segment(OBJECT_SEGMENT)?;
        let roots_seg = sm.create_segment(ROOTS_SEGMENT)?;
        let pm = Arc::new(PersistencePm {
            sm,
            space: Arc::clone(&space),
            change,
            indexing,
            dictionary,
            objects_seg,
            roots_seg,
            locations: Mutex::new(FastMap::default()),
            pending: Mutex::new(FastMap::default()),
            roots_record: Mutex::new((None, None)),
            persist_hooks: RwLock::new(Vec::new()),
            prepared: Mutex::new(FastSet::default()),
        });
        let weak = Arc::downgrade(&pm);
        space.set_fault_handler(Arc::new(move |oid| match weak.upgrade() {
            Some(pm) => pm.fault(oid),
            None => Ok(None),
        }));
        pm.load_existing().map(|_| pm)
    }

    /// Rebuild the location index and name roots from storage. Walks
    /// the objects segment in place (borrowed payloads — only the oid
    /// header is decoded, nothing is copied) instead of materializing
    /// every stored object into a scan vector.
    fn load_existing(&self) -> Result<()> {
        self.load_locations()?;
        // Roots: a single record of `name_len name oid` triples.
        if let Some((rid, bytes)) = self.sm.scan_first(self.roots_seg)? {
            self.dictionary.load(decode_roots(&bytes)?);
            *self.roots_record.lock() = (Some(rid), Some(bytes));
        }
        Ok(())
    }

    /// Rebuild the oid → record-id index from the objects segment.
    fn load_locations(&self) -> Result<()> {
        let mut locations = self.locations.lock();
        locations.clear();
        let mut bad = None;
        self.sm
            .for_each_while(self.objects_seg, |rid, bytes| match internalize(bytes) {
                Ok((oid, _)) => {
                    locations.insert(oid, rid);
                    self.space.mark_persistent(oid);
                    std::ops::ControlFlow::Continue(())
                }
                Err(e) => {
                    bad = Some(e);
                    std::ops::ControlFlow::Break(())
                }
            })?;
        if let Some(e) = bad {
            return Err(e);
        }
        Ok(())
    }

    /// Fault handler: load a persistent object's state from storage.
    fn fault(&self, oid: ObjectId) -> Result<Option<reach_object::ObjectState>> {
        let rid = match self.locations.lock().get(&oid) {
            Some(r) => *r,
            None => return Ok(None),
        };
        let bytes = self.sm.get(self.objects_seg, rid)?;
        let (stored_oid, state) = internalize(&bytes)?;
        debug_assert_eq!(stored_oid, oid);
        Ok(Some(state))
    }

    /// Make `oid` persistent. The object is marked immediately (so
    /// §3.2's transient-reference check passes) and written back when
    /// `txn`'s top level commits.
    pub fn persist(&self, txn: TxnId, oid: ObjectId) -> Result<()> {
        if !self.space.is_resident(oid) {
            return Err(ReachError::ObjectNotFound(oid));
        }
        self.space.mark_persistent(oid);
        self.pending.lock().entry(txn).or_default().push(oid);
        let hooks = self.persist_hooks.read().clone();
        for h in hooks.iter() {
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

    fn write_back(&self, txn: TxnId, oid: ObjectId) -> Result<()> {
        let state = self.space.snapshot(oid)?;
        let bytes = externalize(oid, &state);
        let mut locations = self.locations.lock();
        match locations.get(&oid) {
            Some(rid) => self.sm.update(txn, self.objects_seg, *rid, &bytes)?,
            None => {
                let rid = self.sm.insert(txn, self.objects_seg, &bytes)?;
                locations.insert(oid, rid);
            }
        }
        Ok(())
    }

    fn save_roots(&self, txn: TxnId) -> Result<()> {
        let bytes = encode_roots(&self.dictionary.bindings());
        let mut rec = self.roots_record.lock();
        // Unchanged roots need no logged update: a transaction that
        // touched nothing then commits without a single WAL write, so
        // the storage manager's read-only fast path skips the sync.
        if rec.1.as_deref() == Some(bytes.as_slice()) {
            return Ok(());
        }
        match rec.0 {
            Some(rid) => self.sm.update(txn, self.roots_seg, rid, &bytes)?,
            None => rec.0 = Some(self.sm.insert(txn, self.roots_seg, &bytes)?),
        }
        rec.1 = Some(bytes);
        Ok(())
    }

    /// Everything `txn` must have in the log before its durability
    /// point: the index flush, the newly persisted objects, then the
    /// write set — a deleted object loses its stored record, a dirty
    /// stored one is rewritten — and the name roots.
    fn write_back_all(&self, txn: TxnId) -> Result<()> {
        self.indexing.flush(txn, &self.change)?;
        let pending = self.pending.lock().remove(&txn).unwrap_or_default();
        let mut written = FastSet::default();
        for oid in pending {
            if self.space.is_resident(oid) && written.insert(oid) {
                self.write_back(txn, oid)?;
            }
        }
        for (oid, deleted) in self.change.write_set(txn) {
            if deleted {
                let rid = self.locations.lock().remove(&oid);
                if let Some(rid) = rid {
                    self.sm.delete(txn, self.objects_seg, rid)?;
                }
            } else if !written.contains(&oid) && self.is_stored(oid) {
                self.write_back(txn, oid)?;
            }
        }
        self.save_roots(txn)
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
        // 2PC commit decision: the write-back already happened under
        // `prepare_top` and sits below the forced Prepare record; only
        // the Commit record remains.
        if self.prepared.lock().remove(&txn) {
            return self.sm.decide_commit(txn);
        }
        self.write_back_all(txn)?;
        self.sm.commit(txn)
    }

    fn prepare_top(&self, txn: TxnId, gid: u64) -> Result<()> {
        // The forced Prepare record instead of the Commit: everything
        // the eventual commit decision needs is durable, and everything
        // an abort decision must undo is WAL-covered.
        self.write_back_all(txn)?;
        self.sm.prepare(txn, gid)?;
        self.prepared.lock().insert(txn);
        Ok(())
    }

    fn abort_top(&self, txn: TxnId) -> Result<()> {
        let was_prepared = self.prepared.lock().remove(&txn);
        self.pending.lock().remove(&txn);
        // An abort may have rolled back a roots update this PM already
        // cached; drop the cache so the next commit rewrites them.
        self.roots_record.lock().1 = None;
        self.sm.abort(txn)?;
        if was_prepared {
            // The undone prepare write-back created/removed stored
            // records behind the location index; rebuild it from the
            // (now rolled-back) segment. Rare path: only a coordinator
            // abort decision after a successful local prepare lands here.
            self.load_locations()?;
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
