//! The Change PM: transactional change tracking for the object space,
//! and the one per-transaction write record of the OODB layer.
//!
//! Storage is only touched at commit (the Persistence PM's write-back),
//! so *in-memory* state is what must be rolled back when a transaction
//! or subtransaction aborts. The Change PM keeps, per top-level
//! transaction, an ordered log of `attribute write / create / delete /
//! persist / root bind` entries and implements the [`ResourceManager`]
//! savepoint protocol over it — giving REACH the nested-transaction
//! rollback the commercial systems of §4 could not provide. A
//! subtransaction's entries are its top's, so its persists and binds
//! commit or roll back with it like its writes. It is the space's
//! [`UndoLog`], not a sentry: an entry is appended under the space's
//! write lock, before anyone can see the change it undoes, which is
//! what lets [`ChangePm::committed_base`] serve lock-free readers.
//!
//! Every other policy manager reads the same log at commit instead of
//! keeping its own, and reads it once: the write-back (or a 2PC
//! prepare) calls `ChangePm::seal`, which images each object the log
//! names once into a `CommitSet`. The Indexing PM flushes the
//! persistent trees from it, the Persistence PM writes it back and
//! binds its roots, and the Snapshot PM publishes it as MVCC versions.
//! The set rides in the log record until that publication calls
//! [`ChangePm::finish_publish`] — `commit_top` leaves both in place —
//! or until `abort_top` undoes the log.
//!
//! Undo is performed through the public mutation API with
//! `TxnId::NULL`, so the sentries (notably indexing) observe the
//! compensating operations and stay consistent for free.

use crate::meta::PolicyManager;
use reach_common::sync::Mutex;
use reach_common::{ClassId, FastMap, ObjectId, ReachError, Result, TxnId};
use reach_object::{ObjectSpace, ObjectState, UndoLog, Value};
use reach_txn::manager::ResourceManager;
use reach_txn::TransactionManager;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// One entry of a top-level transaction's log.
#[derive(Debug, Clone)]
pub(crate) enum Change {
    /// `slot` indexes the class's flattened layout: reconstruction
    /// applies it directly, and only a rollback resolves the name.
    Attr {
        oid: ObjectId,
        slot: usize,
        old: Value,
    },
    Create {
        oid: ObjectId,
    },
    /// `persistent`: the object carried the persistent mark, which the
    /// space drops on delete and an undo must give back.
    Delete {
        oid: ObjectId,
        state: ObjectState,
        persistent: bool,
    },
    /// `marked`: the object already carried the persistent mark (it is
    /// stored, or was persisted earlier in the transaction), which an
    /// undo must leave. The persist holds the object's exclusive lock,
    /// so no other transaction's persist can change the mark meanwhile.
    Persist {
        oid: ObjectId,
        marked: bool,
    },
    /// A root bind; it reaches the dictionary when the top commits.
    Bind {
        name: String,
        oid: ObjectId,
    },
}

impl Change {
    fn oid(&self) -> ObjectId {
        match self {
            Change::Attr { oid, .. }
            | Change::Create { oid }
            | Change::Delete { oid, .. }
            | Change::Persist { oid, .. }
            | Change::Bind { oid, .. } => *oid,
        }
    }

    /// Step `state` back over this change. A persist or a bind changes
    /// no image.
    fn undo_onto(&self, state: &mut Option<ObjectState>) {
        match self {
            Change::Attr { slot, old, .. } => {
                if let Some(s) = state.as_mut() {
                    s.attrs[*slot] = old.clone();
                }
            }
            Change::Create { .. } => *state = None,
            Change::Delete { state: saved, .. } => *state = Some(saved.clone()),
            Change::Persist { .. } | Change::Bind { .. } => {}
        }
    }
}

/// What a committing transaction did to one object: wrote, created,
/// deleted or persisted it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Written {
    /// The image after the transaction, `None` once deleted.
    pub after: Option<ObjectState>,
    /// The image before it (`Some(None)`: the object did not exist),
    /// taken only where a consumer needs one (see [`ChangePm::seal`]).
    pub before: Option<Option<ObjectState>>,
    /// Written, created or deleted: a persist alone changes no image.
    pub changed: bool,
    /// Persisted by this transaction.
    pub persisted: bool,
}

/// A committing transaction's write record, imaged once: its objects
/// in first-touch order and its root binds in log order.
#[derive(Debug, Clone, Default)]
pub(crate) struct CommitSet {
    pub objects: Vec<(ObjectId, Written)>,
    pub binds: Vec<(String, ObjectId)>,
}

/// One top-level transaction's record.
#[derive(Default)]
struct TopLog {
    changes: Vec<Change>,
    /// Built by [`ChangePm::seal`], taken by the publication.
    sealed: Option<Arc<CommitSet>>,
}

/// Per-transaction in-memory undo log.
pub struct ChangePm {
    tm: Weak<TransactionManager>,
    /// Weak: the space holds this PM as its undo log, and a strong
    /// reference back would keep a dropped database's space alive. It
    /// upgrades for as long as the database is alive; once it is gone
    /// there is nothing left to undo or read.
    space: Weak<ObjectSpace>,
    log: Mutex<FastMap<TxnId, TopLog>>,
    /// Bumped under the `log` lock each time a rollback drops entries
    /// it has undone, so [`ChangePm::committed_base`] can tell that the
    /// space it read may still hold a change whose entry has gone.
    unwound: AtomicU64,
}

impl ChangePm {
    pub fn new(tm: Weak<TransactionManager>, space: &Arc<ObjectSpace>) -> Arc<Self> {
        let pm = Arc::new(ChangePm {
            tm,
            space: Arc::downgrade(space),
            log: Mutex::new(FastMap::default()),
            unwound: AtomicU64::new(0),
        });
        space.set_undo_log(Arc::clone(&pm) as Arc<dyn UndoLog>);
        pm
    }

    /// Append `change` to the log of `txn`'s top-level transaction.
    /// System writes (`TxnId::NULL`) and unknown transactions are not
    /// tracked.
    pub(crate) fn record(&self, txn: TxnId, change: Change) {
        let top = match self.tm.upgrade() {
            Some(tm) if !txn.is_null() => tm.top_of(txn),
            _ => return,
        };
        if let Ok(top) = top {
            self.log.lock().entry(top).or_default().changes.push(change);
        }
    }

    fn undo(&self, space: &ObjectSpace, change: Change) {
        // Compensations run under TxnId::NULL: not re-tracked, but other
        // sentries (indexing) still observe them.
        match change {
            Change::Attr { oid, slot, old } => {
                // Through the name-addressed write path, so the state
                // sentries see the compensation like any other write.
                let name = space
                    .class_of(oid)
                    .and_then(|class| space.schema().attr_name(class, slot));
                if let Ok(name) = name {
                    let _ = space.set_attr(TxnId::NULL, oid, &name, old);
                }
            }
            Change::Create { oid } => {
                let _ = space.delete(TxnId::NULL, oid);
            }
            Change::Delete {
                oid,
                state,
                persistent,
            } => {
                if persistent {
                    space.mark_persistent(oid);
                }
                space.install_existing(oid, state);
            }
            Change::Persist { oid, marked } => {
                if !marked {
                    space.unmark_persistent(oid);
                }
            }
            Change::Bind { .. } => {}
        }
    }

    /// Undo `top`'s changes past `savepoint`, newest first, and only then
    /// drop them from the log, bumping `unwound` in the same lock: a
    /// reader reconstructing committed state (`committed_base` reads the
    /// space, then the log) that read the space before the undo and the
    /// log after the drop sees the bump and reads again. An entry undone
    /// but still logged is harmless to it: applying `old` to a state
    /// that already holds `old` is a no-op.
    fn unwind(&self, top: TxnId, savepoint: usize) {
        let tail: Vec<Change> = self
            .log
            .lock()
            .get(&top)
            .and_then(|l| l.changes.get(savepoint..))
            .map_or_else(Vec::new, <[Change]>::to_vec);
        if let Some(space) = self.space.upgrade() {
            for change in tail.into_iter().rev() {
                self.undo(&space, change);
            }
        }
        if let Some(l) = self.log.lock().get_mut(&top) {
            if l.changes.len() > savepoint {
                l.changes.truncate(savepoint);
                self.unwound.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of pending change entries for `top` (introspection).
    pub fn pending(&self, top: TxnId) -> usize {
        self.log.lock().get(&top).map_or(0, |l| l.changes.len())
    }

    /// Image `top`'s log once, as the set its commit flushes to the
    /// indexes, writes back and publishes, and keep it in the log
    /// record for the publication. One entry per object, in first-touch
    /// order, with its after-image — one `snapshot` each — and a
    /// before-image where a consumer needs one: a deleted object, or a
    /// changed one whose id and class `wants_before` accepts. That is
    /// the after-image with `top`'s own log undone over it, in one
    /// reverse pass. Strict 2PL makes `top`'s log the only one with
    /// entries for these objects, and a deleted object's images come
    /// from its undo entry, never from the space — no fault-in brings
    /// it back.
    pub(crate) fn seal(
        &self,
        top: TxnId,
        wants_before: impl Fn(ObjectId, ClassId) -> bool,
    ) -> Result<Arc<CommitSet>> {
        let space = self.space.upgrade().ok_or(ReachError::TxnNotActive(top))?;
        let mut set = CommitSet::default();
        let mut at: FastMap<ObjectId, usize> = FastMap::default();
        let log = self.log.lock();
        for c in &log.get(&top).ok_or(ReachError::TxnNotActive(top))?.changes {
            let oid = c.oid();
            if let Change::Bind { name, .. } = c {
                set.binds.push((name.clone(), oid));
                continue;
            }
            let i = *at.entry(oid).or_insert_with(|| {
                set.objects.push((oid, Written::default()));
                set.objects.len() - 1
            });
            let w = &mut set.objects[i].1;
            match c {
                Change::Persist { .. } => w.persisted = true,
                // A deleted object has no after-image: the reverse pass
                // starts from none.
                Change::Delete { .. } => (w.changed, w.before) = (true, Some(None)),
                _ => (w.changed, w.before) = (true, None),
            }
        }
        drop(log);
        // After-images outside the log lock: a snapshot may fault in. A
        // before-image already set marks a deleted object.
        for (oid, w) in &mut set.objects {
            if w.before.is_some() {
                continue;
            }
            let state = space.snapshot(*oid)?;
            if w.changed && wants_before(*oid, state.class) {
                w.before = Some(Some(state.clone()));
            }
            w.after = Some(state);
        }
        let mut log = self.log.lock();
        let l = log.get_mut(&top).ok_or(ReachError::TxnNotActive(top))?;
        if set.objects.iter().any(|(_, w)| w.before.is_some()) {
            for c in l.changes.iter().rev() {
                let i = at.get(&c.oid()).copied();
                if let Some(before) = i.and_then(|i| set.objects[i].1.before.as_mut()) {
                    c.undo_onto(before);
                }
            }
        }
        let set = Arc::new(set);
        l.sealed = Some(Arc::clone(&set));
        Ok(set)
    }

    /// `top`'s commit set, once built: its write-back has run.
    pub(crate) fn sealed(&self, top: TxnId) -> Option<Arc<CommitSet>> {
        self.log.lock().get(&top)?.sealed.clone()
    }

    /// Take `top`'s commit set for its publication. The log stays until
    /// [`ChangePm::finish_publish`].
    pub(crate) fn take_sealed(&self, top: TxnId) -> CommitSet {
        let sealed = self.log.lock().get_mut(&top).and_then(|l| l.sealed.take());
        sealed.map(Arc::unwrap_or_clone).unwrap_or_default()
    }

    /// Drop `top`'s log: its commit has been published as MVCC versions.
    pub fn finish_publish(&self, top: TxnId) {
        self.log.lock().remove(&top);
    }

    /// The newest *committed* state of `oid`, reconstructed by undoing
    /// any in-flight (or committing-but-unpublished) transaction's
    /// changes on top of the in-place object state. `Ok(None)` means
    /// the object does not exist in committed state.
    ///
    /// Strict 2PL makes this well-defined: at most one transaction holds
    /// the exclusive lock, so at most one log has entries for `oid`. The
    /// space is read *before* the log, and every entry is appended
    /// before its change becomes visible, so a forward write is always
    /// covered by the entries read; a writer that mutates between the
    /// two reads re-derives the same pre-image (applying `old` to a
    /// state that still holds `old` is a no-op). A rollback is the
    /// other direction: it undoes and then drops, so a space read
    /// before its undo can meet a log read after its drop — the
    /// rolled-back value with nothing left to undo it. `unwound` moves
    /// whenever that can have happened, and the read is then repeated.
    pub fn committed_base(&self, oid: ObjectId) -> Result<Option<ObjectState>> {
        let space = self
            .space
            .upgrade()
            .ok_or(ReachError::ObjectNotFound(oid))?;
        loop {
            let unwound = self.unwound.load(Ordering::Acquire);
            let mut state = match space.snapshot(oid) {
                Ok(s) => Some(s),
                Err(ReachError::ObjectNotFound(_)) => None,
                Err(e) => return Err(e),
            };
            let log = self.log.lock();
            if self.unwound.load(Ordering::Relaxed) != unwound {
                continue;
            }
            let changes = log.values().flat_map(|l| &l.changes);
            let undo: Vec<&Change> = changes.filter(|c| c.oid() == oid).collect();
            for change in undo.into_iter().rev() {
                change.undo_onto(&mut state);
            }
            return Ok(state);
        }
    }
}

impl UndoLog for ChangePm {
    fn on_write(&self, txn: TxnId, oid: ObjectId, slot: usize, old: &Value) {
        let old = old.clone();
        self.record(txn, Change::Attr { oid, slot, old });
    }

    fn on_create(&self, txn: TxnId, oid: ObjectId) {
        self.record(txn, Change::Create { oid });
    }

    fn on_delete(&self, txn: TxnId, oid: ObjectId, state: &ObjectState, persistent: bool) {
        let state = state.clone();
        self.record(
            txn,
            Change::Delete {
                oid,
                state,
                persistent,
            },
        );
    }
}

impl ResourceManager for ChangePm {
    fn begin_top(&self, txn: TxnId) -> Result<()> {
        self.log.lock().insert(txn, TopLog::default());
        Ok(())
    }

    fn savepoint(&self, top: TxnId) -> Result<u64> {
        Ok(self.pending(top) as u64)
    }

    fn rollback_to(&self, top: TxnId, savepoint: u64) -> Result<()> {
        self.unwind(top, savepoint as usize);
        Ok(())
    }

    fn commit_top(&self, _txn: TxnId) -> Result<()> {
        // The log stays until the Snapshot PM has published it (see
        // `finish_publish`): the version publisher runs after every
        // resource manager, still under the writer's locks.
        Ok(())
    }

    fn abort_top(&self, txn: TxnId) -> Result<()> {
        self.unwind(txn, 0);
        self.log.lock().remove(&txn);
        Ok(())
    }
}

impl PolicyManager for ChangePm {
    fn dimension(&self) -> &'static str {
        "change"
    }
    fn name(&self) -> &'static str {
        "undo-log-change"
    }
}
