//! The Change PM: transactional change tracking for the object space.
//!
//! Storage is only touched at commit (the Persistence PM's write-back),
//! so *in-memory* object state is what must be rolled back when a
//! transaction or subtransaction aborts. The Change PM keeps, per
//! top-level transaction, an ordered log of `attribute write / create /
//! delete` entries and implements the [`ResourceManager`] savepoint
//! protocol over it — giving REACH the nested-transaction rollback the
//! commercial systems of §4 could not provide.
//!
//! Undo is performed through the public mutation API with
//! `TxnId::NULL`, so other sentries (notably indexing) observe the
//! compensating operations and stay consistent for free.

use crate::meta::PolicyManager;
use reach_common::sync::Mutex;
use reach_common::{ObjectId, Result, TxnId};
use reach_object::{LifecycleSentry, ObjectSpace, ObjectState, StateChange, StateSentry, Value};
use reach_txn::manager::ResourceManager;
use reach_txn::TransactionManager;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
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
    Delete {
        oid: ObjectId,
        state: ObjectState,
    },
}

/// Per-transaction in-memory undo log.
pub struct ChangePm {
    tm: Weak<TransactionManager>,
    space: Arc<ObjectSpace>,
    log: Mutex<HashMap<TxnId, Vec<Change>>>,
    /// Commit-time parking lot for the MVCC bridge: when capture is on,
    /// `commit_top` moves the transaction's log here instead of dropping
    /// it, and the version publisher drains it after publication.
    pending_publish: Mutex<HashMap<TxnId, Vec<Change>>>,
    capture: AtomicBool,
}

impl ChangePm {
    pub fn new(tm: Weak<TransactionManager>, space: Arc<ObjectSpace>) -> Arc<Self> {
        let pm = Arc::new(ChangePm {
            tm,
            space: Arc::clone(&space),
            log: Mutex::new(HashMap::new()),
            pending_publish: Mutex::new(HashMap::new()),
            capture: AtomicBool::new(false),
        });
        space.add_state_sentry(Arc::clone(&pm) as Arc<dyn StateSentry>);
        space.add_lifecycle_sentry(Arc::clone(&pm) as Arc<dyn LifecycleSentry>);
        pm
    }

    /// Retain committed write sets for the MVCC version publisher (which
    /// must call [`ChangePm::finish_publish`] to drain them). Off by
    /// default so a ChangePm used without a publisher never accumulates.
    pub fn enable_publish_capture(&self) {
        self.capture.store(true, Ordering::SeqCst);
    }

    /// Resolve the owning *top-level* transaction of an event, if the
    /// transaction is live and managed. System writes (`TxnId::NULL`) and
    /// unknown transactions are not tracked.
    fn top_of(&self, txn: TxnId) -> Option<TxnId> {
        if txn.is_null() {
            return None;
        }
        let tm = self.tm.upgrade()?;
        tm.top_of(txn).ok()
    }

    fn record(&self, txn: TxnId, change: Change) {
        if let Some(top) = self.top_of(txn) {
            self.log.lock().entry(top).or_default().push(change);
        }
    }

    fn undo(&self, change: Change) {
        // Compensations run under TxnId::NULL: not re-tracked, but other
        // sentries (indexing) still observe them.
        match change {
            Change::Attr { oid, slot, old } => {
                // Through the name-addressed write path, so the state
                // sentries see the compensation like any other write.
                let name = self
                    .space
                    .class_of(oid)
                    .and_then(|class| self.space.schema().attr_name(class, slot));
                if let Ok(name) = name {
                    let _ = self.space.set_attr(TxnId::NULL, oid, &name, old);
                }
            }
            Change::Create { oid } => {
                let _ = self.space.delete(TxnId::NULL, oid);
            }
            Change::Delete { oid, state } => {
                self.space.install_existing(oid, state);
            }
        }
    }

    /// Objects touched (written or created) by `top`, in first-touch
    /// order, deduplicated. The Persistence PM uses this to find dirty
    /// persistent objects at commit.
    pub fn touched(&self, top: TxnId) -> Vec<ObjectId> {
        let log = self.log.lock();
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        if let Some(changes) = log.get(&top) {
            for c in changes {
                let oid = match c {
                    Change::Attr { oid, .. } | Change::Create { oid } => *oid,
                    Change::Delete { .. } => continue,
                };
                if seen.insert(oid) {
                    out.push(oid);
                }
            }
        }
        out
    }

    /// Objects deleted by `top`.
    pub fn deleted(&self, top: TxnId) -> Vec<ObjectId> {
        let log = self.log.lock();
        log.get(&top)
            .map(|changes| {
                changes
                    .iter()
                    .filter_map(|c| match c {
                        Change::Delete { oid, .. } => Some(*oid),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Number of pending change entries for `top` (introspection).
    pub fn pending(&self, top: TxnId) -> usize {
        self.log.lock().get(&top).map_or(0, |v| v.len())
    }

    // ---- MVCC publication support ----

    /// The committed write set parked by `commit_top` for `top`: each
    /// written object with whether its final state is *deleted*. Objects
    /// appear once, in first-touch order.
    pub fn publish_set(&self, top: TxnId) -> Vec<(ObjectId, bool)> {
        let pending = self.pending_publish.lock();
        let mut order = Vec::new();
        let mut alive: HashMap<ObjectId, bool> = HashMap::new();
        if let Some(changes) = pending.get(&top) {
            for c in changes {
                let (oid, is_delete) = match c {
                    Change::Attr { oid, .. } | Change::Create { oid } => (*oid, false),
                    Change::Delete { oid, .. } => (*oid, true),
                };
                if !alive.contains_key(&oid) {
                    order.push(oid);
                }
                alive.insert(oid, !is_delete);
            }
        }
        order.into_iter().map(|oid| (oid, !alive[&oid])).collect()
    }

    /// Drop the parked write set of `top` (publication done).
    pub fn finish_publish(&self, top: TxnId) {
        self.pending_publish.lock().remove(&top);
    }

    /// The newest *committed* state of `oid`, reconstructed by undoing
    /// any in-flight (or committing-but-unpublished) transaction's
    /// changes on top of the in-place object state. `Ok(None)` means
    /// the object does not exist in committed state.
    ///
    /// Strict 2PL makes this well-defined: at most one transaction holds
    /// the exclusive lock, so at most one log (active or parked) has
    /// entries for `oid`. The space is read *before* the logs — if a
    /// writer mutates between the two reads, its freshly recorded undo
    /// entry re-derives the same pre-image (applying `old` to a state
    /// that still holds `old` is a no-op), so the interleaving is
    /// harmless.
    pub fn committed_base(&self, oid: ObjectId) -> Result<Option<ObjectState>> {
        let mut state = match self.space.snapshot(oid) {
            Ok(s) => Some(s),
            Err(reach_common::ReachError::ObjectNotFound(_)) => None,
            Err(e) => return Err(e),
        };
        let undo: Vec<Change> = {
            let log = self.log.lock();
            let pending = self.pending_publish.lock();
            log.values()
                .chain(pending.values())
                .flat_map(|changes| changes.iter())
                .filter(|c| match c {
                    Change::Attr { oid: o, .. }
                    | Change::Create { oid: o }
                    | Change::Delete { oid: o, .. } => *o == oid,
                })
                .cloned()
                .collect()
        };
        for change in undo.into_iter().rev() {
            match change {
                Change::Attr { slot, old, .. } => {
                    if let Some(s) = state.as_mut() {
                        s.attrs[slot] = old;
                    }
                }
                Change::Create { .. } => state = None,
                Change::Delete { state: saved, .. } => state = Some(saved),
            }
        }
        Ok(state)
    }
}

impl StateSentry for ChangePm {
    fn on_change(&self, change: &StateChange<'_>) {
        self.record(
            change.txn,
            Change::Attr {
                oid: change.oid,
                slot: change.slot,
                old: change.old.clone(),
            },
        );
    }
}

impl LifecycleSentry for ChangePm {
    fn on_create(&self, txn: TxnId, oid: ObjectId, _state: &ObjectState) {
        self.record(txn, Change::Create { oid });
    }

    fn on_delete(&self, txn: TxnId, oid: ObjectId, state: &ObjectState) {
        self.record(
            txn,
            Change::Delete {
                oid,
                state: state.clone(),
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
        let tail: Vec<Change> = {
            let mut log = self.log.lock();
            match log.get_mut(&top) {
                Some(changes) if changes.len() > savepoint as usize => {
                    changes.split_off(savepoint as usize)
                }
                _ => Vec::new(),
            }
        };
        for change in tail.into_iter().rev() {
            self.undo(change);
        }
        Ok(())
    }

    fn commit_top(&self, txn: TxnId) -> Result<()> {
        // The write set is final here (locks still held). With MVCC
        // capture on, park it for the version publisher — which runs
        // after every resource manager, still under those locks — rather
        // than dropping it.
        let entry = self.log.lock().remove(&txn);
        if self.capture.load(Ordering::SeqCst) {
            if let Some(changes) = entry {
                if !changes.is_empty() {
                    self.pending_publish.lock().insert(txn, changes);
                }
            }
        }
        Ok(())
    }

    fn abort_top(&self, txn: TxnId) -> Result<()> {
        let changes = self.log.lock().remove(&txn).unwrap_or_default();
        for change in changes.into_iter().rev() {
            self.undo(change);
        }
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
