//! The Change PM: transactional change tracking for the object space,
//! and the one per-transaction write record of the OODB layer.
//!
//! Storage is only touched at commit (the Persistence PM's write-back),
//! so *in-memory* object state is what must be rolled back when a
//! transaction or subtransaction aborts. The Change PM keeps, per
//! top-level transaction, an ordered log of `attribute write / create /
//! delete` entries and implements the [`ResourceManager`] savepoint
//! protocol over it — giving REACH the nested-transaction rollback the
//! commercial systems of §4 could not provide. It is the space's
//! [`UndoLog`], not a sentry: an entry is appended under the space's
//! write lock, before anyone can see the change it undoes, which is
//! what lets [`ChangePm::committed_base`] serve lock-free readers.
//!
//! Every other policy manager reads the same log at commit instead of
//! keeping its own: the Persistence PM writes back the
//! [`ChangePm::write_set`], the Indexing PM flushes the persistent
//! trees from `ChangePm::images`, and the Snapshot PM publishes the
//! write set as MVCC versions. A log therefore lives from `begin_top`
//! until that publication calls [`ChangePm::finish_publish`] —
//! `commit_top` leaves it in place — or until `abort_top` undoes it.
//!
//! Undo is performed through the public mutation API with
//! `TxnId::NULL`, so the sentries (notably indexing) observe the
//! compensating operations and stay consistent for free.

use crate::meta::PolicyManager;
use reach_common::sync::Mutex;
use reach_common::{ClassId, FastMap, ObjectId, Result, TxnId};
use reach_object::{ObjectSpace, ObjectState, UndoLog, Value};
use reach_txn::manager::ResourceManager;
use reach_txn::TransactionManager;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

#[derive(Debug, Clone)]
enum Change {
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
}

impl Change {
    fn oid(&self) -> ObjectId {
        match self {
            Change::Attr { oid, .. } | Change::Create { oid } | Change::Delete { oid, .. } => *oid,
        }
    }

    /// Step `state` back over this change.
    fn undo_onto(&self, state: &mut Option<ObjectState>) {
        match self {
            Change::Attr { slot, old, .. } => {
                if let Some(s) = state.as_mut() {
                    s.attrs[*slot] = old.clone();
                }
            }
            Change::Create { .. } => *state = None,
            Change::Delete { state: saved, .. } => *state = Some(saved.clone()),
        }
    }
}

/// One object's image before and after a transaction, `None` where it
/// does not exist.
pub(crate) type Images = (ObjectId, Option<ObjectState>, Option<ObjectState>);

/// Per-transaction in-memory undo log.
pub struct ChangePm {
    tm: Weak<TransactionManager>,
    /// Weak: the space holds this PM as its undo log, and a strong
    /// reference back would keep a dropped database's space alive. It
    /// upgrades for as long as the database is alive; once it is gone
    /// there is nothing left to undo or read.
    space: Weak<ObjectSpace>,
    log: Mutex<FastMap<TxnId, Vec<Change>>>,
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
    fn record(&self, txn: TxnId, change: Change) {
        let top = match self.tm.upgrade() {
            Some(tm) if !txn.is_null() => tm.top_of(txn),
            _ => return,
        };
        if let Ok(top) = top {
            self.log.lock().entry(top).or_default().push(change);
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
            .and_then(|changes| changes.get(savepoint..))
            .map_or_else(Vec::new, <[Change]>::to_vec);
        if let Some(space) = self.space.upgrade() {
            for change in tail.into_iter().rev() {
                self.undo(&space, change);
            }
        }
        if let Some(changes) = self.log.lock().get_mut(&top) {
            if changes.len() > savepoint {
                changes.truncate(savepoint);
                self.unwound.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// `top`'s write set: each object it wrote, created or deleted, once,
    /// in first-touch order, with whether its final state is *deleted*.
    pub fn write_set(&self, top: TxnId) -> Vec<(ObjectId, bool)> {
        let log = self.log.lock();
        let mut order = Vec::new();
        let mut deleted: FastMap<ObjectId, bool> = FastMap::default();
        for c in log.get(&top).into_iter().flatten() {
            let oid = c.oid();
            if deleted
                .insert(oid, matches!(c, Change::Delete { .. }))
                .is_none()
            {
                order.push(oid);
            }
        }
        order.into_iter().map(|oid| (oid, deleted[&oid])).collect()
    }

    /// Number of pending change entries for `top` (introspection).
    pub fn pending(&self, top: TxnId) -> usize {
        self.log.lock().get(&top).map_or(0, |v| v.len())
    }

    /// The image before and after `top` of each object in its write set
    /// whose class `keep` accepts, in write-set order (see
    /// [`ChangePm::images_of`]).
    pub(crate) fn images(&self, top: TxnId, keep: impl Fn(ClassId) -> bool) -> Vec<Images> {
        self.images_of(top, &self.write_set(top), keep)
    }

    /// The image before and after `top` of each `(oid, deleted)` entry
    /// of its write set whose class `keep` accepts, in the order given:
    /// the in-place state with `top`'s own log undone over it, in one
    /// reverse pass. Strict 2PL makes `top`'s log the only one with
    /// entries for these objects, and a deleted object's before-image
    /// comes from its undo entry, never from the space — no fault-in
    /// brings it back.
    pub(crate) fn images_of(
        &self,
        top: TxnId,
        entries: &[(ObjectId, bool)],
        keep: impl Fn(ClassId) -> bool,
    ) -> Vec<Images> {
        let Some(space) = self.space.upgrade() else {
            return Vec::new();
        };
        let mut images: Vec<Images> = Vec::new();
        let mut at: FastMap<ObjectId, usize> = FastMap::default();
        // After-images first, outside the log lock.
        for &(oid, deleted) in entries {
            let after = if deleted {
                None
            } else {
                match space.snapshot(oid) {
                    Ok(s) if keep(s.class) => Some(s),
                    _ => continue,
                }
            };
            at.insert(oid, images.len());
            images.push((oid, after.clone(), after));
        }
        if let Some(changes) = self.log.lock().get(&top) {
            for c in changes.iter().rev() {
                if let Some(&i) = at.get(&c.oid()) {
                    c.undo_onto(&mut images[i].1);
                }
            }
        }
        // A deleted object's class is known only now.
        images.retain(|(_, before, after)| {
            before
                .as_ref()
                .or(after.as_ref())
                .is_some_and(|s| keep(s.class))
        });
        images
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
            .ok_or(reach_common::ReachError::ObjectNotFound(oid))?;
        loop {
            let unwound = self.unwound.load(Ordering::Acquire);
            let mut state = match space.snapshot(oid) {
                Ok(s) => Some(s),
                Err(reach_common::ReachError::ObjectNotFound(_)) => None,
                Err(e) => return Err(e),
            };
            let log = self.log.lock();
            if self.unwound.load(Ordering::Relaxed) != unwound {
                continue;
            }
            let undo: Vec<&Change> = log.values().flatten().filter(|c| c.oid() == oid).collect();
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
        self.log.lock().insert(txn, Vec::new());
        Ok(())
    }

    fn savepoint(&self, top: TxnId) -> Result<u64> {
        Ok(self.log.lock().get(&top).map_or(0, |v| v.len()) as u64)
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
