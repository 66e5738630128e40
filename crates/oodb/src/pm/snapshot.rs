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
//!   this. For the written objects that have no chain yet it seeds the
//!   *pre-commit* committed state as the chain baseline, reconstructed
//!   in one reverse pass over this transaction's own log (so a commit
//!   costs what it wrote, not what every live log holds); it then
//!   publishes the post-commit state at the new timestamp and lets the
//!   Change PM drop the log;
//! * a snapshot read resolves through [`SnapshotPm::read`]: chain hit,
//!   or — for objects never written since start-up — a race-free
//!   baseline seed from [`ChangePm::committed_base`], the one caller
//!   left of that all-logs reconstruction.
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
        // Seed the pre-commit committed state of the objects with no
        // chain yet: the log is still in place, so undoing it over the
        // in-place state gives that state. A snapshot reader seeding
        // one of them meanwhile derives the same image (the writer's
        // locks are held and its log is in place), and the seed is
        // insert-if-absent either way.
        let unchained = self.store.unchained(&write_set, |(oid, _)| *oid);
        let mut images = Vec::new();
        if !unchained.is_empty() {
            images = self.change.images_of(txn, &unchained, |_| true);
            self.store.seed_baselines(
                images
                    .iter_mut()
                    .map(|(oid, before, _)| (*oid, before.take())),
            );
        }
        let mut images = images.into_iter().peekable();
        for &(oid, deleted) in &write_set {
            // Locks are held and all RMs reported durable: the in-place
            // state *is* the committed post-image, and a just-seeded
            // object's image already holds it.
            let payload = match images.next_if(|(seeded, _, _)| *seeded == oid) {
                Some((_, _, after)) => after,
                None if deleted => None,
                None => self.space.snapshot(oid).ok(),
            };
            self.store.publish(oid, ts, payload);
        }
        self.change.finish_publish(txn);
        write_set.len()
    }

    fn vacuum(&self, watermark: CommitTs) -> usize {
        self.store.vacuum(watermark)
    }

    fn long_chains(&self) -> usize {
        self.store.long_chains()
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
