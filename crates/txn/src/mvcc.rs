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
//! snapshots only the newest version per object survives. A vacuum
//! visits only the chains a superseding version has named since the
//! last one passed, so its cost is what it reclaims, not the store's
//! size.

use reach_common::sync::Mutex;
use reach_common::{FastMap, ObjectId, Result, TxnId};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A commit timestamp drawn from the transaction manager's commit
/// clock. `0` is the baseline (state that predates every MVCC-era
/// write); real commits stamp `1, 2, 3, …`.
pub type CommitTs = u64;

/// The timestamp of baseline versions: committed state captured before
/// the object's first MVCC-era write.
pub const BASELINE_TS: CommitTs = 0;

/// Writer-path vacuum trigger: when any version publisher retains a
/// chain longer than this after a publish, the committing writer runs a
/// vacuum itself instead of waiting for a snapshot-stamp release (which
/// a stamp-free, write-heavy workload never produces). The watermark is
/// still computed against the oldest live snapshot, so a triggered
/// vacuum can never reclaim a version a reader might resolve to.
/// [`VersionStore`] counts the chains past it as they cross.
pub const VACUUM_CHAIN_THRESHOLD: usize = 64;

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

/// The chains and the vacuum's work list, under one mutex.
struct Chains<T> {
    /// Keyed by oids of objects that exist or existed: a read of an
    /// absent object inserts nothing (see [`VersionStore::read_or_seed`]).
    by_oid: FastMap<ObjectId, Vec<Version<T>>>,
    /// `(ts, oid)` of every version pushed onto a non-empty chain, in
    /// publish order — which is `ts` order, because the manager's
    /// publish gate serialises publications. Only such a version can
    /// make an older one reclaimable, and only once its `ts` falls
    /// below the watermark, so [`VersionStore::vacuum`] pops the
    /// entries below the watermark and trims just the chains they
    /// name. Every version but a chain's first has an entry here until
    /// a vacuum passes it, which is what lets the vacuum skip the rest.
    superseded: VecDeque<(CommitTs, ObjectId)>,
}

/// A multi-version store: per-object chains of committed versions,
/// ordered by commit timestamp.
///
/// Generic over the payload so `reach-txn` stays independent of the
/// object model: the OODB instantiates it with object state, the
/// oracle workloads with plain integers.
pub struct VersionStore<T> {
    chains: Mutex<Chains<T>>,
    /// Chains longer than [`VACUUM_CHAIN_THRESHOLD`], changed under the
    /// `chains` lock: [`VersionStore::publish`] counts a chain when it
    /// crosses the threshold, [`VersionStore::vacuum`] uncounts it when
    /// a trim brings it back. Lets a committing writer decide in O(1)
    /// whether to vacuum — without this, a write-heavy workload that
    /// never opens a read-only (snapshot) transaction accumulates
    /// versions unboundedly, because vacuum otherwise only runs on
    /// snapshot-stamp release.
    long_chains: AtomicUsize,
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
            chains: Mutex::new(Chains {
                by_oid: FastMap::default(),
                superseded: VecDeque::new(),
            }),
            long_chains: AtomicUsize::new(0),
        }
    }

    /// Number of chains longer than [`VACUUM_CHAIN_THRESHOLD`] (O(1);
    /// see the field doc).
    pub fn long_chains(&self) -> usize {
        self.long_chains.load(Ordering::Relaxed)
    }

    /// Length of the longest version chain. Walks every chain:
    /// introspection for tests, like [`VersionStore::total_versions`];
    /// the writer-path trigger reads [`VersionStore::long_chains`].
    pub fn longest_chain(&self) -> usize {
        let chains = self.chains.lock();
        chains.by_oid.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Versions a vacuum still has to look at: one per version pushed
    /// onto a non-empty chain and not yet passed by a vacuum.
    #[cfg(test)]
    fn pending_superseded(&self) -> usize {
        self.chains.lock().superseded.len()
    }
}

impl<T: Clone> VersionStore<T> {
    /// Publish a committed version of `oid` at `ts` (`None` = delete
    /// tombstone). Timestamps arrive monotonically — per object and
    /// across objects — because publication happens under the
    /// manager's publish gate while the writer still holds its
    /// exclusive lock; a same-`ts` republish replaces the entry (a
    /// transaction writing the same object twice commits one version).
    pub fn publish(&self, oid: ObjectId, ts: CommitTs, payload: Option<T>) {
        let mut guard = self.chains.lock();
        let chains = &mut *guard;
        let chain = chains.by_oid.entry(oid).or_default();
        match chain.last_mut() {
            Some(last) if last.ts == ts => last.payload = payload,
            _ => {
                if !chain.is_empty() {
                    chains.superseded.push_back((ts, oid));
                }
                chain.push(Version { ts, payload });
                if chain.len() == VACUUM_CHAIN_THRESHOLD + 1 {
                    self.long_chains.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Seed each `(oid, committed)` as that object's baseline version
    /// unless it already has a chain (insert-if-absent), under one
    /// lock. The caller must hold the objects' exclusive locks and
    /// derive `committed` from its own undo log, so a concurrent
    /// [`VersionStore::read_or_seed`] that got there first seeded the
    /// very same state.
    pub fn seed_baselines(&self, seeds: impl IntoIterator<Item = (ObjectId, Option<T>)>) {
        let mut chains = self.chains.lock();
        for (oid, payload) in seeds {
            chains.by_oid.entry(oid).or_insert_with(|| {
                vec![Version {
                    ts: BASELINE_TS,
                    payload,
                }]
            });
        }
    }

    /// The newest version of `oid` visible at `stamp` (largest
    /// `ts <= stamp`), or `None` if the object has no chain or no
    /// version old enough.
    pub fn read_at(&self, oid: ObjectId, stamp: CommitTs) -> Option<Version<T>> {
        let chains = self.chains.lock();
        let chain = chains.by_oid.get(&oid)?;
        chain.iter().rev().find(|v| v.ts <= stamp).cloned()
    }

    /// Visible payload at `stamp`, seeding the baseline from
    /// `committed` when the object has no chain yet. `committed` runs
    /// under the store lock, so the check and the insert are one step
    /// and a concurrent [`VersionStore::seed_baselines`] of the same
    /// committed state cannot be overwritten. Returns `Ok(None)` when
    /// the object does not exist at `stamp` (tombstone or created
    /// later).
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
        if let Some(chain) = chains.by_oid.get(&oid) {
            return Ok(chain
                .iter()
                .rev()
                .find(|v| v.ts <= stamp)
                .and_then(|v| v.payload.clone()));
        }
        let payload = committed()?;
        if let Some(state) = &payload {
            chains.by_oid.insert(
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
    ///
    /// Costs what it reclaims: it visits only the chains named by
    /// superseding versions now below the watermark. A chain with no
    /// such entry has, past its first version, only versions at or
    /// above the watermark (every later version's entry is still
    /// queued, and the queue is in `ts` order), so the rule leaves it
    /// as it is.
    pub fn vacuum(&self, watermark: CommitTs) -> usize {
        let mut guard = self.chains.lock();
        let chains = &mut *guard;
        let mut dropped = 0;
        while let Some(&(ts, oid)) = chains.superseded.front() {
            if ts >= watermark {
                break;
            }
            chains.superseded.pop_front();
            let Some(chain) = chains.by_oid.get_mut(&oid) else {
                continue;
            };
            // Index of the newest version strictly below the watermark:
            // everything before it is unreachable by any live or future
            // snapshot.
            let keep_from = chain.iter().rposition(|v| v.ts < watermark).unwrap_or(0);
            if keep_from == 0 {
                continue;
            }
            let was_long = chain.len() > VACUUM_CHAIN_THRESHOLD;
            chain.drain(..keep_from);
            dropped += keep_from;
            if was_long && chain.len() <= VACUUM_CHAIN_THRESHOLD {
                self.long_chains.fetch_sub(1, Ordering::Relaxed);
            }
        }
        dropped
    }

    /// Number of objects with a version chain.
    pub fn objects(&self) -> usize {
        self.chains.lock().by_oid.len()
    }

    /// Total versions across all chains (introspection / GC tests).
    pub fn total_versions(&self) -> usize {
        self.chains.lock().by_oid.values().map(Vec::len).sum()
    }

    /// Versions currently retained for `oid`.
    pub fn versions_of(&self, oid: ObjectId) -> usize {
        self.chains.lock().by_oid.get(&oid).map_or(0, Vec::len)
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

    /// Number of version chains this publisher retains that are longer
    /// than [`VACUUM_CHAIN_THRESHOLD`]. The transaction manager polls
    /// this after each publish to decide whether to vacuum from the
    /// *writer* path — the backstop that keeps chains bounded when no
    /// snapshot reader ever registers (stamp release being the only
    /// other vacuum trigger). The default `0` opts a publisher out of
    /// writer-triggered vacuums.
    fn long_chains(&self) -> usize {
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
        store.seed_baselines([(o(1), Some(7u64))]);
        assert_eq!(store.versions_of(o(1)), 1);
        // A chain exists: a second seed, and a seed after a publish,
        // leave it as it is.
        store.seed_baselines([(o(1), Some(8)), (o(2), None)]);
        store.publish(o(1), 1, Some(10));
        store.seed_baselines([(o(1), Some(9))]);
        assert_eq!(store.versions_of(o(1)), 2);
        let v = store.read_at(o(1), BASELINE_TS).unwrap();
        assert_eq!((v.ts, v.payload), (BASELINE_TS, Some(7)));
        assert_eq!(store.read_at(o(1), 1).unwrap().payload, Some(10));
        // A tombstone seed is a chain too (a created object's baseline).
        let v = store.read_at(o(2), BASELINE_TS).unwrap();
        assert_eq!((v.ts, v.payload), (BASELINE_TS, None));
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

    #[test]
    fn vacuum_visits_only_superseded_versions() {
        let store = VersionStore::new();
        store.seed_baselines((0..10_000u64).map(|n| (o(n), Some(n))));
        store.publish(o(4_321), 1, Some(1));
        assert_eq!(store.pending_superseded(), 1);
        assert_eq!(store.vacuum(2), 1, "exactly the one superseded version");
        assert_eq!(store.pending_superseded(), 0, "nothing left pending");
        assert_eq!(store.versions_of(o(4_321)), 1);
        assert_eq!(store.total_versions(), 10_000);
        assert_eq!(store.read_at(o(4_321), 1).unwrap().payload, Some(1));
        assert_eq!(store.vacuum(2), 0);
    }

    #[test]
    fn long_chain_count_tracks_the_threshold() {
        let store = VersionStore::new();
        let top = VACUUM_CHAIN_THRESHOLD as u64;
        for ts in 1..=top {
            store.publish(o(1), ts, Some(ts));
            store.publish(o(2), ts, Some(ts));
        }
        assert_eq!(store.long_chains(), 0, "chains of exactly the threshold");
        store.publish(o(1), top + 1, Some(0));
        store.publish(o(1), top + 1, Some(1)); // same-ts replace: no growth
        assert_eq!(store.long_chains(), 1);
        // A pinned watermark trims nothing; the chain stays counted.
        assert_eq!(store.vacuum(1), 0);
        assert_eq!(store.long_chains(), 1);
        assert_eq!(store.vacuum(top + 2), 2 * top as usize - 1);
        assert_eq!(store.long_chains(), 0);
        assert_eq!(store.longest_chain(), 1);
    }

    /// The all-chains vacuum the store had before it kept a superseded
    /// list: every operation on a plain map, the reclaim a walk over
    /// every chain. The differential test holds the store to it.
    #[derive(Default)]
    struct OracleStore {
        chains: std::collections::HashMap<ObjectId, Vec<Version<u64>>>,
    }

    impl OracleStore {
        fn publish(&mut self, oid: ObjectId, ts: CommitTs, payload: Option<u64>) {
            let chain = self.chains.entry(oid).or_default();
            match chain.last_mut() {
                Some(last) if last.ts == ts => last.payload = payload,
                _ => chain.push(Version { ts, payload }),
            }
        }

        fn seed(&mut self, oid: ObjectId, payload: Option<u64>) {
            self.chains.entry(oid).or_insert_with(|| {
                vec![Version {
                    ts: BASELINE_TS,
                    payload,
                }]
            });
        }

        fn read_or_seed(
            &mut self,
            oid: ObjectId,
            stamp: CommitTs,
            committed: Option<u64>,
        ) -> Option<u64> {
            if let Some(chain) = self.chains.get(&oid) {
                return chain
                    .iter()
                    .rev()
                    .find(|v| v.ts <= stamp)
                    .and_then(|v| v.payload);
            }
            if committed.is_some() {
                self.seed(oid, committed);
            }
            committed
        }

        fn read_at(&self, oid: ObjectId, stamp: CommitTs) -> Option<(CommitTs, Option<u64>)> {
            let chain = self.chains.get(&oid)?;
            chain
                .iter()
                .rev()
                .find(|v| v.ts <= stamp)
                .map(|v| (v.ts, v.payload))
        }

        fn vacuum(&mut self, watermark: CommitTs) -> usize {
            let mut dropped = 0;
            for chain in self.chains.values_mut() {
                let keep_from = chain.iter().rposition(|v| v.ts < watermark).unwrap_or(0);
                dropped += keep_from;
                chain.drain(..keep_from);
            }
            dropped
        }

        fn total_versions(&self) -> usize {
            self.chains.values().map(Vec::len).sum()
        }

        fn long_chains(&self) -> usize {
            self.chains
                .values()
                .filter(|c| c.len() > VACUUM_CHAIN_THRESHOLD)
                .count()
        }
    }

    /// Random publish / seed / read-or-seed / snapshot register-release
    /// / vacuum sequences against the store and the oracle, with the
    /// commit clock and the watermark computed the way the transaction
    /// manager computes them. After every vacuum both must answer every
    /// read at every live stamp (and at the clock) the same, and retain
    /// the same number of versions.
    #[test]
    fn vacuum_differential_against_the_all_chains_oracle() {
        use std::collections::BTreeSet;
        let base = reach_common::seed_from_env(0x5EED_7AC0);
        let mut long_seen = 0;
        for round in 0..8u64 {
            let seed = base ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            reach_common::announce_seed("mvcc::vacuum_differential", seed);
            let mut rng = reach_common::SplitMix64::new(seed);
            // Odd rounds pin snapshots for long and write few objects,
            // so chains cross the long-chain threshold.
            let (oids, release) = if round % 2 == 0 { (24, 8) } else { (6, 1) };
            let store = VersionStore::new();
            let mut oracle = OracleStore::default();
            let mut clock: CommitTs = 0;
            let mut live: Vec<CommitTs> = Vec::new();
            let mut vacuums = 0;
            for _ in 0..3_000 {
                let roll = rng.below(100) as u64;
                if roll < 55 {
                    // A writer commit: seed what has no chain, then
                    // publish at the next stamp (some oids twice).
                    let ts = clock + 1;
                    let writes: Vec<ObjectId> = (0..1 + rng.below(4))
                        .map(|_| o(rng.below(oids) as u64))
                        .collect();
                    let seeds: Vec<(ObjectId, Option<u64>)> = writes
                        .iter()
                        .filter(|oid| store.versions_of(**oid) == 0)
                        .map(|&oid| (oid, rng.chance(3, 4).then(|| rng.next_u64() % 1000)))
                        .collect();
                    for &(oid, payload) in &seeds {
                        oracle.seed(oid, payload);
                    }
                    store.seed_baselines(seeds);
                    for oid in writes {
                        let payload = rng.chance(7, 8).then(|| rng.next_u64() % 1000);
                        store.publish(oid, ts, payload);
                        oracle.publish(oid, ts, payload);
                    }
                    clock = ts;
                } else if roll < 60 {
                    let oid = o(rng.below(oids) as u64);
                    let payload = Some(rng.next_u64() % 1000);
                    store.seed_baselines([(oid, payload)]);
                    oracle.seed(oid, payload);
                    let got = store.read_at(oid, BASELINE_TS).map(|v| (v.ts, v.payload));
                    assert_eq!(got, oracle.read_at(oid, BASELINE_TS), "seed {oid:?}");
                    let want = oracle.chains.get(&oid).map_or(0, Vec::len);
                    assert_eq!(store.versions_of(oid), want, "seed {oid:?}");
                } else if roll < 72 {
                    let oid = o(rng.below(oids + 2) as u64);
                    let stamp = live
                        .get(rng.below(live.len() + 1))
                        .copied()
                        .unwrap_or(clock);
                    let committed = rng.chance(1, 2).then(|| rng.next_u64() % 1000);
                    let got = store.read_or_seed(oid, stamp, || Ok(committed)).unwrap();
                    let want = oracle.read_or_seed(oid, stamp, committed);
                    assert_eq!(got, want, "read_or_seed {oid:?}@{stamp}");
                } else if roll < 80 {
                    live.push(clock);
                } else if roll < 80 + release {
                    if !live.is_empty() {
                        live.swap_remove(rng.below(live.len()));
                    }
                } else {
                    let watermark = live.iter().min().copied().unwrap_or(clock + 1);
                    let dropped = store.vacuum(watermark);
                    assert_eq!(dropped, oracle.vacuum(watermark), "dropped at {watermark}");
                    vacuums += 1;
                    let stamps: BTreeSet<CommitTs> = live.iter().copied().chain([clock]).collect();
                    for stamp in stamps {
                        for n in 0..oids as u64 + 2 {
                            let got = store.read_at(o(n), stamp).map(|v| (v.ts, v.payload));
                            assert_eq!(got, oracle.read_at(o(n), stamp), "read_at {n}@{stamp}");
                        }
                    }
                    assert_eq!(store.total_versions(), oracle.total_versions());
                    assert_eq!(store.long_chains(), oracle.long_chains());
                    long_seen = long_seen.max(store.long_chains());
                }
            }
            assert!(vacuums > 0);
        }
        assert!(long_seen > 0, "no round crossed the long-chain threshold");
    }
}
