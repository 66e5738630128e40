//! The Snapshot PM: the bridge between the transaction manager's MVCC
//! machinery and the object space.
//!
//! Writers mutate objects *in place* (the Change PM keeps the undo
//! log), so a lock-free reader can never look at the space directly —
//! it might see uncommitted state. Instead this PM maintains a
//! [`VersionStore`] of committed [`ObjectState`]s:
//!
//! * at writer commit the transaction manager calls
//!   [`VersionPublisher::publish`] — after every resource manager
//!   reported durable, while the writer's exclusive locks are still
//!   held, before the commit clock advances. The PM reads the write set
//!   from the Change PM's log, which outlives `commit_top` for exactly
//!   this, seeds the *pre-commit* committed state as the chain baseline
//!   (reconstructed by undoing that log), publishes the post-commit
//!   state at the new timestamp, and then lets the Change PM drop the
//!   log;
//! * a snapshot read resolves through [`SnapshotPm::read`]: chain hit,
//!   or — for objects never written since start-up — a race-free
//!   baseline seed from [`ChangePm::committed_base`].
//!
//! Because the baseline is seeded *before* the first higher-timestamp
//! version exists, a chain never starts mid-history: any reader whose
//! stamp predates an object's first MVCC-era write finds the ts-0
//! baseline, never a version from its future.

use crate::meta::PolicyManager;
use crate::pm::change::ChangePm;
use reach_common::{ObjectId, Result, TxnId};
use reach_object::{ObjectSpace, ObjectState};
use reach_txn::mvcc::{CommitTs, VersionPublisher, VersionStore};
use std::sync::Arc;

/// Committed-version store over the object space (see module docs).
pub struct SnapshotPm {
    store: VersionStore<ObjectState>,
    change: Arc<ChangePm>,
    space: Arc<ObjectSpace>,
}

impl SnapshotPm {
    /// Build the bridge. It must be registered as a version publisher:
    /// its publication is what ends a committed transaction's change log.
    pub fn new(change: Arc<ChangePm>, space: Arc<ObjectSpace>) -> Arc<Self> {
        Arc::new(SnapshotPm {
            store: VersionStore::new(),
            change,
            space,
        })
    }

    /// The committed state of `oid` visible at snapshot `stamp`, or
    /// `None` if the object does not exist at that stamp. Acquires no
    /// locks; never observes in-place uncommitted state.
    pub fn read(&self, oid: ObjectId, stamp: CommitTs) -> Result<Option<ObjectState>> {
        self.store
            .read_or_seed(oid, stamp, || self.change.committed_base(oid))
    }

    /// Total committed versions currently retained (introspection).
    pub fn retained_versions(&self) -> usize {
        self.store.total_versions()
    }
}

impl VersionPublisher for SnapshotPm {
    fn publish(&self, txn: TxnId, ts: CommitTs) -> usize {
        let write_set = self.change.write_set(txn);
        for (oid, deleted) in &write_set {
            // Seed the pre-commit committed state first: the log is
            // still in place, so `committed_base` undoes this very
            // transaction's changes. No-op if the chain already exists.
            let _ = self
                .store
                .seed_baseline_with(*oid, || self.change.committed_base(*oid));
            let payload = if *deleted {
                None
            } else {
                // Locks are held and all RMs reported durable: the
                // in-place state *is* the committed post-image.
                self.space.snapshot(*oid).ok()
            };
            self.store.publish(*oid, ts, payload);
        }
        self.change.finish_publish(txn);
        write_set.len()
    }

    fn vacuum(&self, watermark: CommitTs) -> usize {
        self.store.vacuum(watermark)
    }

    fn longest_chain(&self) -> usize {
        self.store.longest_chain()
    }
}

impl PolicyManager for SnapshotPm {
    fn dimension(&self) -> &'static str {
        "snapshot"
    }
    fn name(&self) -> &'static str {
        "mvcc-version-store"
    }
}
