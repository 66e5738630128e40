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
//!   held, before the commit clock advances. The PM takes the commit
//!   set the write-back sealed into the Change PM's log, which outlives
//!   `commit_top` for exactly this. The set already holds each written
//!   object's post-commit image and, for each object that had no chain
//!   when it was sealed (`SnapshotPm::has_chain`), its *pre-commit*
//!   committed state, reconstructed from this transaction's own log (so
//!   a commit costs what it wrote, not what every live log holds). The
//!   PM seeds those as chain baselines, publishes the post-commit
//!   images at the new timestamp and lets the Change PM drop the log;
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
use reach_object::ObjectState;
use reach_txn::mvcc::{CommitTs, VersionPublisher, VersionStore};
use std::sync::Arc;

/// Committed-version store over the object space (see module docs).
pub struct SnapshotPm {
    store: VersionStore<ObjectState>,
    change: Arc<ChangePm>,
}

impl SnapshotPm {
    /// Build the bridge. It must be registered as a version publisher:
    /// its publication is what ends a committed transaction's change log.
    pub fn new(change: Arc<ChangePm>) -> Arc<Self> {
        Arc::new(SnapshotPm {
            store: VersionStore::new(),
            change,
        })
    }

    /// The committed state of `oid` visible at snapshot `stamp`, or
    /// `None` if the object does not exist at that stamp. Acquires no
    /// locks; never observes in-place uncommitted state.
    pub fn read(&self, oid: ObjectId, stamp: CommitTs) -> Result<Option<ObjectState>> {
        self.store
            .read_or_seed(oid, stamp, || self.change.committed_base(oid))
    }

    /// Whether `oid` has a version chain. Once it has one it keeps one,
    /// so a commit set sealed before the publication may leave out the
    /// baseline of an object that had a chain then.
    pub(crate) fn has_chain(&self, oid: ObjectId) -> bool {
        self.store.versions_of(oid) > 0
    }

    /// Total committed versions currently retained (introspection).
    pub fn retained_versions(&self) -> usize {
        self.store.total_versions()
    }
}

impl VersionPublisher for SnapshotPm {
    fn publish(&self, txn: TxnId, ts: CommitTs) -> usize {
        let mut objects = self.change.take_sealed(txn).objects;
        // A persist alone changes no image.
        objects.retain(|(_, w)| w.changed);
        // Seed the pre-commit committed state of the objects that had no
        // chain. A snapshot reader seeding one of them meanwhile derives
        // the same image (the writer's locks are held and its log is in
        // place), and the seed is insert-if-absent either way; an
        // indexed object's before-image is offered too and changes
        // nothing if it has a chain.
        self.store.seed_baselines(
            objects
                .iter_mut()
                .filter_map(|(oid, w)| Some((*oid, w.before.take()?))),
        );
        // Locks are held and all RMs reported durable: each after-image
        // *is* the committed post-image.
        let published = objects.len();
        for (oid, w) in objects {
            self.store.publish(oid, ts, w.after);
        }
        self.change.finish_publish(txn);
        published
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
