//! Multi-version concurrency control for read-only transactions.
//!
//! The paper's workload is read-dominant by construction: every
//! primitive event can trigger rule-condition evaluation, so a
//! monitoring application issues many condition reads per write. The
//! E16 read-only commit fast path already skips the fsync, but under
//! plain strict 2PL those readers still *acquire shared locks* and can
//! stall behind a writer holding an exclusive lock. This module removes
//! the last obstacle: a read-only transaction captures a **snapshot
//! stamp** at begin and reads the latest committed version at or below
//! that stamp — no lock-manager traffic at all. Writers are untouched:
//! they keep the existing strict-2PL + WAL path.
//!
//! The protocol is *publish-then-advance*:
//!
//! 1. a committing writer, **after** every resource manager reported
//!    durable and **while still holding its 2PL locks**, publishes one
//!    new version per written object under the manager's publish mutex,
//!    tagged with commit timestamp `current + 1`;
//! 2. only then does the commit clock advance to `current + 1`.
//!
//! A snapshot stamp is a plain load of the commit clock, so a reader
//! can never observe a timestamp whose versions are not fully in the
//! store — the clock only moves after publication completes (the
//! version-visibility safety argument in DESIGN.md §4 builds on exactly
//! this ordering).
//!
//! Version chains garbage-collect against the **oldest live snapshot**:
//! versions strictly below the oldest registered stamp are reclaimed,
//! except the newest such version per object (it is the base some
//! present or future snapshot still resolves to). With no live
//! snapshots only the newest version per object survives.

use reach_common::sync::Mutex;
use reach_common::{FastMap, ObjectId, Result, TxnId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A commit timestamp drawn from the transaction manager's commit
/// clock. `0` is the baseline (state that predates every MVCC-era
/// write); real commits stamp `1, 2, 3, …`.
pub type CommitTs = u64;

/// The timestamp of baseline versions: committed state captured before
/// the object's first MVCC-era write.
pub const BASELINE_TS: CommitTs = 0;

/// One entry in an object's version chain. `payload == None` is a
/// tombstone: at this timestamp the object does not exist (deleted, or
/// not yet created).
#[derive(Debug, Clone)]
pub struct Version<T> {
    /// Commit timestamp this version became visible at.
    pub ts: CommitTs,
    /// The committed state, or `None` for a tombstone.
    pub payload: Option<T>,
}

/// A multi-version store: per-object chains of committed versions,
/// ordered by commit timestamp.
///
/// Generic over the payload so `reach-txn` stays independent of the
/// object model: the OODB instantiates it with object state, the
/// oracle workloads with plain integers.
pub struct VersionStore<T> {
    /// Keyed by oids of objects that exist or existed: a read of an
    /// absent object inserts nothing (see [`VersionStore::read_or_seed`]).
    chains: Mutex<FastMap<ObjectId, Vec<Version<T>>>>,
    /// Length of the longest chain, maintained incrementally by
    /// [`VersionStore::publish`] and recomputed by
    /// [`VersionStore::vacuum`]. Lets a committing writer decide in
    /// O(1) whether chains have grown enough to warrant a vacuum —
    /// without this, a write-heavy workload that never opens a
    /// read-only (snapshot) transaction accumulates versions
    /// unboundedly, because vacuum otherwise only runs on
    /// snapshot-stamp release.
    longest: AtomicUsize,
}

impl<T> Default for VersionStore<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> VersionStore<T> {
    /// An empty store.
    pub fn new() -> Self {
        VersionStore {
            chains: Mutex::new(FastMap::default()),
            longest: AtomicUsize::new(0),
        }
    }

    /// Length of the longest version chain (O(1); see the field doc).
    pub fn longest_chain(&self) -> usize {
        self.longest.load(Ordering::Relaxed)
    }
}

impl<T: Clone> VersionStore<T> {
    /// Publish a committed version of `oid` at `ts` (`None` = delete
    /// tombstone). Timestamps arrive monotonically per object because
    /// publication happens under the manager's publish mutex while the
    /// writer still holds its exclusive lock; a same-`ts` republish
    /// replaces the entry (a transaction writing the same object twice
    /// commits one version).
    pub fn publish(&self, oid: ObjectId, ts: CommitTs, payload: Option<T>) {
        let mut chains = self.chains.lock();
        let chain = chains.entry(oid).or_default();
        match chain.last_mut() {
            Some(last) if last.ts == ts => last.payload = payload,
            _ => chain.push(Version { ts, payload }),
        }
        self.longest.fetch_max(chain.len(), Ordering::Relaxed);
    }

    /// Seed the baseline version of `oid` if (and only if) it has no
    /// chain yet. `committed` is evaluated under the store lock, which
    /// is what makes first-write seeding race-free: a writer seeds the
    /// pre-image *before* its first in-place mutation, so any snapshot
    /// reader either finds the chain (and never looks at the mutable
    /// object) or reads state the writer has provably not touched yet.
    /// Returns whether a baseline was inserted.
    pub fn seed_baseline_with(
        &self,
        oid: ObjectId,
        committed: impl FnOnce() -> Result<Option<T>>,
    ) -> Result<bool> {
        let mut chains = self.chains.lock();
        if chains.contains_key(&oid) {
            return Ok(false);
        }
        let payload = committed()?;
        chains.insert(
            oid,
            vec![Version {
                ts: BASELINE_TS,
                payload,
            }],
        );
        Ok(true)
    }

    /// The newest version of `oid` visible at `stamp` (largest
    /// `ts <= stamp`), or `None` if the object has no chain or no
    /// version old enough.
    pub fn read_at(&self, oid: ObjectId, stamp: CommitTs) -> Option<Version<T>> {
        let chains = self.chains.lock();
        let chain = chains.get(&oid)?;
        chain.iter().rev().find(|v| v.ts <= stamp).cloned()
    }

    /// Visible payload at `stamp`, seeding the baseline from
    /// `committed` when the object has no chain yet (same race-free
    /// contract as [`VersionStore::seed_baseline_with`]). Returns
    /// `Ok(None)` when the object does not exist at `stamp` (tombstone
    /// or created later).
    ///
    /// An object with no committed state seeds nothing: vacuum never
    /// drops a chain's only version, so a tombstone baseline per probed
    /// oid would grow the store for every absent oid a client names.
    /// Leaving it out is safe because a writer that later creates the
    /// object seeds its own pre-commit baseline at publish, so a chain
    /// still never starts mid-history.
    pub fn read_or_seed(
        &self,
        oid: ObjectId,
        stamp: CommitTs,
        committed: impl FnOnce() -> Result<Option<T>>,
    ) -> Result<Option<T>> {
        let mut chains = self.chains.lock();
        if let Some(chain) = chains.get(&oid) {
            return Ok(chain
                .iter()
                .rev()
                .find(|v| v.ts <= stamp)
                .and_then(|v| v.payload.clone()));
        }
        let payload = committed()?;
        if let Some(state) = &payload {
            chains.insert(
                oid,
                vec![Version {
                    ts: BASELINE_TS,
                    payload: Some(state.clone()),
                }],
            );
        }
        Ok(payload)
    }

    /// Reclaim versions below `watermark` (the oldest live snapshot
    /// stamp, or one past the commit clock when no snapshot is live),
    /// keeping per object every version at or above the watermark plus
    /// the newest one below it. Returns how many versions were dropped.
    pub fn vacuum(&self, watermark: CommitTs) -> usize {
        let mut chains = self.chains.lock();
        let mut dropped = 0;
        let mut longest = 0;
        for chain in chains.values_mut() {
            // Index of the newest version strictly below the watermark:
            // everything before it is unreachable by any live or future
            // snapshot.
            let keep_from = chain.iter().rposition(|v| v.ts < watermark).unwrap_or(0);
            dropped += keep_from;
            chain.drain(..keep_from);
            longest = longest.max(chain.len());
        }
        self.longest.store(longest, Ordering::Relaxed);
        dropped
    }

    /// Number of objects with a version chain.
    pub fn objects(&self) -> usize {
        self.chains.lock().len()
    }

    /// Total versions across all chains (introspection / GC tests).
    pub fn total_versions(&self) -> usize {
        self.chains.lock().values().map(Vec::len).sum()
    }

    /// Versions currently retained for `oid`.
    pub fn versions_of(&self, oid: ObjectId) -> usize {
        self.chains.lock().get(&oid).map_or(0, Vec::len)
    }
}

/// Registry of live snapshot stamps. The minimum registered stamp pins
/// version-chain garbage collection; releasing the last reader at a
/// stamp moves the watermark forward.
#[derive(Debug, Default)]
pub struct SnapshotRegistry {
    live: Mutex<BTreeMap<CommitTs, u64>>,
}

impl SnapshotRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a live reader at `stamp`.
    pub fn register(&self, stamp: CommitTs) {
        *self.live.lock().entry(stamp).or_insert(0) += 1;
    }

    /// Release one reader at `stamp`.
    pub fn release(&self, stamp: CommitTs) {
        let mut live = self.live.lock();
        if let Some(count) = live.get_mut(&stamp) {
            *count -= 1;
            if *count == 0 {
                live.remove(&stamp);
            }
        }
    }

    /// The oldest live snapshot stamp, if any reader is live.
    pub fn oldest(&self) -> Option<CommitTs> {
        self.live.lock().keys().next().copied()
    }

    /// Number of live readers across all stamps.
    pub fn live_readers(&self) -> u64 {
        self.live.lock().values().sum()
    }
}

/// A component that materializes committed versions when a writer
/// commits, and reclaims them when the snapshot watermark advances.
/// The OODB's change-log bridge implements this against the object
/// space; oracle workloads implement it against a bare
/// [`VersionStore`].
pub trait VersionPublisher: Send + Sync {
    /// Publish `txn`'s committed write set at commit timestamp `ts`.
    /// Called by the transaction manager after every resource manager
    /// reported durable, while the writer's 2PL locks are still held
    /// and **before** the commit clock advances to `ts`. Returns the
    /// number of versions published.
    fn publish(&self, txn: TxnId, ts: CommitTs) -> usize;

    /// Reclaim versions below `watermark`. Returns versions dropped.
    fn vacuum(&self, watermark: CommitTs) -> usize;

    /// Length of the longest version chain this publisher retains.
    /// The transaction manager polls this after each publish to decide
    /// whether to vacuum from the *writer* path — the backstop that
    /// keeps chains bounded when no snapshot reader ever registers
    /// (stamp release being the only other vacuum trigger). The
    /// default `0` opts a publisher out of writer-triggered vacuums.
    fn longest_chain(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(n: u64) -> ObjectId {
        ObjectId::new(n)
    }

    #[test]
    fn visibility_picks_newest_at_or_below_stamp() {
        let store = VersionStore::new();
        store.publish(o(1), 1, Some(10u64));
        store.publish(o(1), 3, Some(30));
        store.publish(o(1), 5, Some(50));
        assert!(store.read_at(o(1), 0).is_none());
        assert_eq!(store.read_at(o(1), 1).unwrap().payload, Some(10));
        assert_eq!(store.read_at(o(1), 2).unwrap().payload, Some(10));
        assert_eq!(store.read_at(o(1), 3).unwrap().payload, Some(30));
        assert_eq!(store.read_at(o(1), 4).unwrap().payload, Some(30));
        assert_eq!(store.read_at(o(1), 9).unwrap().payload, Some(50));
    }

    #[test]
    fn tombstones_hide_the_object() {
        let store = VersionStore::new();
        store.publish(o(1), 1, Some(10u64));
        store.publish(o(1), 2, None);
        store.publish(o(1), 4, Some(40));
        assert_eq!(store.read_at(o(1), 1).unwrap().payload, Some(10));
        assert_eq!(store.read_at(o(1), 3).unwrap().payload, None);
        assert_eq!(store.read_at(o(1), 4).unwrap().payload, Some(40));
    }

    #[test]
    fn same_ts_republish_replaces() {
        let store = VersionStore::new();
        store.publish(o(1), 2, Some(1u64));
        store.publish(o(1), 2, Some(2));
        assert_eq!(store.versions_of(o(1)), 1);
        assert_eq!(store.read_at(o(1), 2).unwrap().payload, Some(2));
    }

    #[test]
    fn seed_baseline_only_once() {
        let store = VersionStore::new();
        assert!(store.seed_baseline_with(o(1), || Ok(Some(7u64))).unwrap());
        assert!(!store
            .seed_baseline_with(o(1), || panic!("chain exists; closure must not run"))
            .unwrap());
        let v = store.read_at(o(1), 0).unwrap();
        assert_eq!((v.ts, v.payload), (BASELINE_TS, Some(7)));
    }

    #[test]
    fn read_or_seed_faults_the_baseline_in() {
        let store = VersionStore::new();
        assert_eq!(
            store.read_or_seed(o(1), 5, || Ok(Some(9u64))).unwrap(),
            Some(9)
        );
        // Second read hits the seeded chain, never the fallback.
        assert_eq!(
            store
                .read_or_seed(o(1), 5, || panic!("must not re-fault"))
                .unwrap(),
            Some(9)
        );
        // Absent committed state seeds nothing.
        assert_eq!(store.read_or_seed(o(2), 5, || Ok(None)).unwrap(), None);
        assert_eq!(store.versions_of(o(2)), 0);
    }

    #[test]
    fn vacuum_keeps_newest_below_watermark() {
        let store = VersionStore::new();
        for ts in 1..=5u64 {
            store.publish(o(1), ts, Some(ts * 10));
        }
        // Watermark 4 (oldest live stamp): ts=4 and ts=5 are at or
        // above it, ts=3 is the newest below it and remains as the base
        // any stamp-4 reader of an object last written at ts=3 needs;
        // ts=1 and ts=2 are unreachable.
        let dropped = store.vacuum(4);
        assert_eq!(dropped, 2, "ts 1 and 2 reclaimed");
        assert_eq!(store.versions_of(o(1)), 3);
        assert_eq!(store.read_at(o(1), 4).unwrap().payload, Some(40));
        assert_eq!(store.read_at(o(1), 3).unwrap().payload, Some(30));
    }

    #[test]
    fn vacuum_with_no_live_snapshot_keeps_only_newest() {
        let store = VersionStore::new();
        for ts in 1..=5u64 {
            store.publish(o(1), ts, Some(ts));
        }
        store.publish(o(2), 2, Some(2));
        let dropped = store.vacuum(6); // one past the clock
        assert_eq!(dropped, 4);
        assert_eq!(store.versions_of(o(1)), 1);
        assert_eq!(store.versions_of(o(2)), 1);
        assert_eq!(store.read_at(o(1), 6).unwrap().payload, Some(5));
    }

    #[test]
    fn registry_watermark_tracks_oldest_live_reader() {
        let reg = SnapshotRegistry::new();
        assert_eq!(reg.oldest(), None);
        reg.register(3);
        reg.register(5);
        reg.register(3);
        assert_eq!(reg.oldest(), Some(3));
        reg.release(3);
        assert_eq!(reg.oldest(), Some(3), "second stamp-3 reader still pins");
        reg.release(3);
        assert_eq!(reg.oldest(), Some(5));
        reg.release(5);
        assert_eq!(reg.oldest(), None);
        assert_eq!(reg.live_readers(), 0);
    }
}
