//! Strict two-phase locking over objects, with nested-transaction lock
//! inheritance and the lock *transfer* needed by the exclusive causally
//! dependent coupling mode (§4: "transfer resources from one transaction
//! to the other once it is determined that the spawning transaction is
//! to be aborted").
//!
//! Lock compatibility is the classic S/X matrix. A child subtransaction
//! may acquire locks its *ancestors* hold (Moss-style nested locking);
//! when a child commits, its locks are inherited by the parent
//! ([`LockManager::transfer`]), and when it aborts they are released.

use crate::deadlock::WaitsFor;
use reach_common::sync::{Condvar, Mutex, MutexGuard};
use reach_common::{FastMap, MetricsRegistry, ObjectId, ReachError, Result, TxnId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// Lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared (read) — compatible with other shared holds.
    Shared,
    /// Exclusive (write) — compatible with nothing.
    Exclusive,
}

impl LockMode {
    fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

#[derive(Debug, Default)]
struct LockState {
    /// Current holders and their strongest mode.
    holders: FastMap<TxnId, LockMode>,
}

/// The lock table. Its oid-keyed maps keep std's default hasher: a
/// wire request locks the oid it names before the object is looked
/// up, so those keys come from outside the program.
#[derive(Default)]
struct Table {
    locks: HashMap<ObjectId, LockState>,
    /// Reverse index: locks held per transaction.
    held: FastMap<TxnId, HashSet<ObjectId>>,
    /// Requests parked in `acquire`. Every transaction end releases
    /// locks, almost none has a waiter, and waking a condvar is a
    /// system call whether or not anyone sleeps on it — so the release
    /// paths notify only when this is non-zero.
    waiters: usize,
}

/// The lock manager: one table under one mutex, as in a textbook 2PL
/// lock manager with deadlock detection.
///
/// The waits-for graph and the per-transaction deadline map sit beside
/// the table. The graph is touched only off the granted fast path (edges
/// are recorded only by blocked requests). Lock order is table → graph
/// and table → deadline map; nothing takes the table while holding
/// either.
pub struct LockManager {
    table: Mutex<Table>,
    changed: Condvar,
    waits: Mutex<WaitsFor>,
    /// Per-transaction absolute lock-wait deadlines. A blocked request
    /// gives up at min(default patience, this deadline) — the hook the
    /// server uses to propagate per-request deadlines into lock waits.
    deadlines: Mutex<FastMap<TxnId, std::time::Instant>>,
    timeout: Duration,
    metrics: Arc<MetricsRegistry>,
}

impl LockManager {
    /// A manager with the default 5 s lock-wait patience.
    pub fn new() -> Self {
        Self::with_timeout(Duration::from_secs(5))
    }

    /// A manager whose blocked requests give up after `timeout`.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_metrics(timeout, MetricsRegistry::new_shared())
    }

    /// A manager recording lock waits and deadlocks into a shared
    /// registry (gated on its enable switch).
    pub fn with_metrics(timeout: Duration, metrics: Arc<MetricsRegistry>) -> Self {
        LockManager {
            table: Mutex::new(Table::default()),
            changed: Condvar::new(),
            waits: Mutex::new(WaitsFor::new()),
            deadlines: Mutex::new(FastMap::default()),
            timeout,
            metrics,
        }
    }

    /// Acquire `mode` on `oid` for `txn`. `ancestors` are transactions
    /// whose locks do not conflict with this request (the requester's
    /// nested-transaction ancestry). Blocks until granted; returns
    /// `Deadlock` if granting would close a waits-for cycle, or
    /// `LockTimeout` after the configured patience.
    pub fn acquire(
        &self,
        txn: TxnId,
        oid: ObjectId,
        mode: LockMode,
        ancestors: &[TxnId],
    ) -> Result<()> {
        let mut table = self.table.lock();
        let mut waited = false;
        let mut wait_started: Option<std::time::Instant> = None;
        // Patience is an absolute deadline, armed at the first blocked
        // pass: re-arming the full timeout on every wakeup would let a
        // waiter starved by a hot release/re-acquire loop wait forever.
        let mut deadline: Option<std::time::Instant> = None;
        let finish_wait = |started: Option<std::time::Instant>| {
            if let Some(t0) = started {
                self.metrics
                    .txn
                    .lock_wait_latency
                    .record(t0.elapsed().as_nanos() as u64);
            }
        };
        loop {
            let conflicts = Self::conflicts(&table, txn, oid, mode, ancestors);
            if conflicts.is_empty() {
                Self::grant(&mut table, txn, oid, mode);
                // The waits-for graph is touched only if this request
                // ever blocked — the granted fast path stays entirely
                // within the table.
                if waited {
                    self.waits.lock().clear(txn);
                }
                if self.metrics.on() {
                    self.metrics.txn.lock_acquisitions.inc();
                }
                finish_wait(wait_started);
                return Ok(());
            }
            // Must wait: record edges and check for a deadlock.
            waited = true;
            if wait_started.is_none() && self.metrics.on() {
                self.metrics.txn.lock_waits.inc();
                wait_started = Some(std::time::Instant::now());
            }
            // `set`, not `add`: each pass replaces the previous pass's
            // edges with exactly the current conflict set. Accumulating
            // instead leaves phantom edges to ex-holders, and only the
            // release paths' inbound scrubbing (`WaitsFor::remove`)
            // keeps those from closing false cycles — a single release
            // path that forgets the scrub turns them into spurious
            // deadlock aborts.
            {
                let mut waits = self.waits.lock();
                waits.set(txn, conflicts.iter().copied());
                if waits.has_cycle_through(txn) {
                    waits.clear(txn);
                    drop(waits);
                    if self.metrics.on() {
                        self.metrics.txn.deadlocks.inc();
                    }
                    finish_wait(wait_started);
                    return Err(ReachError::Deadlock(txn));
                }
            }
            let mut dl = *deadline.get_or_insert_with(|| std::time::Instant::now() + self.timeout);
            // A per-txn deadline can only shorten the wait, never extend
            // it. Re-read each pass so a deadline set after the wait
            // began still applies (set_deadline wakes parked requests).
            if let Some(txn_dl) = self.deadlines.lock().get(&txn) {
                dl = dl.min(*txn_dl);
            }
            table.waiters += 1;
            let timed_out = self.changed.wait_until(&mut table, dl).timed_out();
            table.waiters -= 1;
            if timed_out {
                self.waits.lock().clear(txn);
                finish_wait(wait_started);
                return Err(ReachError::LockTimeout(txn));
            }
        }
    }

    /// Try to acquire without blocking.
    pub fn try_acquire(
        &self,
        txn: TxnId,
        oid: ObjectId,
        mode: LockMode,
        ancestors: &[TxnId],
    ) -> Result<bool> {
        let mut table = self.table.lock();
        if !Self::conflicts(&table, txn, oid, mode, ancestors).is_empty() {
            return Ok(false);
        }
        Self::grant(&mut table, txn, oid, mode);
        if self.metrics.on() {
            self.metrics.txn.lock_acquisitions.inc();
        }
        Ok(true)
    }

    fn grant(table: &mut Table, txn: TxnId, oid: ObjectId, mode: LockMode) {
        let state = table.locks.entry(oid).or_default();
        let entry = state.holders.entry(txn).or_insert(mode);
        if mode == LockMode::Exclusive {
            *entry = LockMode::Exclusive;
        }
        table.held.entry(txn).or_default().insert(oid);
    }

    fn conflicts(
        table: &Table,
        txn: TxnId,
        oid: ObjectId,
        mode: LockMode,
        ancestors: &[TxnId],
    ) -> Vec<TxnId> {
        let Some(state) = table.locks.get(&oid) else {
            return Vec::new();
        };
        state
            .holders
            .iter()
            .filter(|(holder, held_mode)| {
                **holder != txn && !ancestors.contains(holder) && !mode.compatible(**held_mode)
            })
            .map(|(holder, _)| *holder)
            .collect()
    }

    /// Bound (or unbound, with `None`) every lock wait `txn` makes from
    /// now on: a blocked request gives up with `LockTimeout` at
    /// min(default patience, `deadline`). Requests already parked pick
    /// the new deadline up on their next wakeup, which this forces so
    /// a shortened deadline takes effect promptly. Cleared
    /// automatically by [`LockManager::release_all`].
    pub fn set_deadline(&self, txn: TxnId, deadline: Option<std::time::Instant>) {
        {
            let mut deadlines = self.deadlines.lock();
            match deadline {
                Some(d) => {
                    deadlines.insert(txn, d);
                }
                None => {
                    deadlines.remove(&txn);
                }
            }
        }
        // A request reads the deadline map under the table mutex and
        // holds it until it parks, so taking the mutex here orders this
        // call either before its read or after it is counted.
        if self.table.lock().waiters > 0 {
            self.changed.notify_all();
        }
    }

    /// The absolute deadline currently bound to `txn`, if any. Lock
    /// waits consult the deadline map from inside the condvar loop;
    /// lock-*free* snapshot reads have no such loop, so the snapshot
    /// read path checks this accessor at entry instead — an expired
    /// per-request deadline must fail a read that never blocks exactly
    /// as it fails one that does.
    pub fn deadline_of(&self, txn: TxnId) -> Option<std::time::Instant> {
        self.deadlines.lock().get(&txn).copied()
    }

    /// Release every lock held by `txn` (end of transaction).
    pub fn release_all(&self, txn: TxnId) {
        self.deadlines.lock().remove(&txn);
        let mut table = self.table.lock();
        let Some(oids) = table.held.remove(&txn) else {
            return;
        };
        for oid in oids {
            if let Some(state) = table.locks.get_mut(&oid) {
                state.holders.remove(&txn);
                if state.holders.is_empty() {
                    table.locks.remove(&oid);
                }
            }
        }
        self.wake_after_release(table, txn);
    }

    /// Transfer every lock held by `from` to `to`, upgrading `to`'s
    /// existing holds where `from` held stronger. Used when a committed
    /// subtransaction's locks are inherited by its parent, and by the
    /// exclusive causally dependent mode's resource hand-over.
    pub fn transfer(&self, from: TxnId, to: TxnId) {
        let mut table = self.table.lock();
        let Some(oids) = table.held.remove(&from) else {
            return;
        };
        for oid in &oids {
            if let Some(state) = table.locks.get_mut(oid) {
                if let Some(mode) = state.holders.remove(&from) {
                    let entry = state.holders.entry(to).or_insert(mode);
                    if mode == LockMode::Exclusive {
                        *entry = LockMode::Exclusive;
                    }
                }
            }
        }
        table.held.entry(to).or_default().extend(oids);
        self.wake_after_release(table, from);
    }

    /// Wake parked requests after `released` gave its locks up, if
    /// any request is parked. `acquire` changes the count under the
    /// table mutex this guard holds, so no wake-up can be lost. Only a
    /// parked request has waits-for edges (every other exit clears its
    /// own), so with none parked there is also nothing to scrub;
    /// otherwise inbound edges go first, and each woken request
    /// re-records its conflict set against the post-release table.
    fn wake_after_release(&self, table: MutexGuard<'_, Table>, released: TxnId) {
        if table.waiters == 0 {
            return;
        }
        self.waits.lock().remove(released);
        drop(table);
        self.changed.notify_all();
    }

    /// The mode `txn` holds on `oid`, if any.
    pub fn held_mode(&self, txn: TxnId, oid: ObjectId) -> Option<LockMode> {
        self.table
            .lock()
            .locks
            .get(&oid)
            .and_then(|s| s.holders.get(&txn).copied())
    }

    /// Number of objects currently locked (introspection).
    pub fn locked_objects(&self) -> usize {
        self.table.lock().locks.len()
    }

    /// Requests parked in `acquire` right now.
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.table.lock().waiters
    }
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn t(n: u64) -> TxnId {
        TxnId::new(n)
    }
    fn o(n: u64) -> ObjectId {
        ObjectId::new(n)
    }

    /// Spin until `n` requests are parked. Waiting on the count instead
    /// of sleeping means the test proceeds exactly when the request is
    /// parked, and fails, instead of passing on a lucky sleep, if
    /// `acquire` forgets to count a parked request.
    fn await_parked(lm: &LockManager, n: usize) {
        let give_up = std::time::Instant::now() + Duration::from_secs(10);
        while lm.parked() < n {
            assert!(
                std::time::Instant::now() < give_up,
                "request never counted as parked"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn shared_locks_coexist_exclusive_does_not() {
        let lm = LockManager::with_timeout(Duration::from_millis(50));
        lm.acquire(t(1), o(1), LockMode::Shared, &[]).unwrap();
        lm.acquire(t(2), o(1), LockMode::Shared, &[]).unwrap();
        assert!(matches!(
            lm.acquire(t(3), o(1), LockMode::Exclusive, &[]),
            Err(ReachError::LockTimeout(_))
        ));
    }

    #[test]
    fn release_unblocks_waiters() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(t(1), o(1), LockMode::Exclusive, &[]).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = std::thread::spawn(move || lm2.acquire(t(2), o(1), LockMode::Exclusive, &[]));
        await_parked(&lm, 1);
        lm.release_all(t(1));
        h.join().unwrap().unwrap();
        assert_eq!(lm.held_mode(t(2), o(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn reentrant_acquire_and_upgrade() {
        let lm = LockManager::new();
        lm.acquire(t(1), o(1), LockMode::Shared, &[]).unwrap();
        lm.acquire(t(1), o(1), LockMode::Shared, &[]).unwrap();
        // Sole holder may upgrade.
        lm.acquire(t(1), o(1), LockMode::Exclusive, &[]).unwrap();
        assert_eq!(lm.held_mode(t(1), o(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn deadlock_is_detected() {
        let lm = Arc::new(LockManager::with_timeout(Duration::from_secs(10)));
        lm.acquire(t(1), o(1), LockMode::Exclusive, &[]).unwrap();
        lm.acquire(t(2), o(2), LockMode::Exclusive, &[]).unwrap();
        // t1 blocks on o2 in a helper thread...
        let lm2 = Arc::clone(&lm);
        let h = std::thread::spawn(move || lm2.acquire(t(1), o(2), LockMode::Exclusive, &[]));
        await_parked(&lm, 1);
        // ... and t2 requesting o1 closes the cycle: t2 is the victim.
        let err = lm
            .acquire(t(2), o(1), LockMode::Exclusive, &[])
            .unwrap_err();
        assert_eq!(err, ReachError::Deadlock(t(2)));
        // Let t1 through by releasing t2.
        lm.release_all(t(2));
        h.join().unwrap().unwrap();
    }

    /// Guard against phantom deadlocks from stale waits-for edges.
    /// T2 blocks on o1 while BOTH t1 and t3 hold it in shared mode, so
    /// its first pass records edges t2→{t1, t3}. Then t1 releases and a
    /// reincarnated t1 blocks on an object t2 holds. If a stale t2→t1
    /// edge survived t1's release, t1's new wait would "close" a cycle
    /// t1→t2→t1 that never existed and abort t1 with a phantom
    /// deadlock. Two independent mechanisms must both keep that from
    /// happening — `acquire` re-recording edges with `WaitsFor::set`
    /// (see `set_replaces_previous_edges` for the graph-level
    /// regression) and the release paths scrubbing inbound edges — and
    /// this test pins the end-to-end result: the chain t1→t2→t3 times
    /// out, it never deadlocks.
    #[test]
    fn released_holder_leaves_no_phantom_deadlock() {
        let lm = Arc::new(LockManager::with_timeout(Duration::from_millis(400)));
        lm.acquire(t(1), o(1), LockMode::Shared, &[]).unwrap();
        lm.acquire(t(3), o(1), LockMode::Shared, &[]).unwrap();
        lm.acquire(t(2), o(2), LockMode::Exclusive, &[]).unwrap();
        // t2 blocks on o1, recording edges to both holders.
        let lm2 = Arc::clone(&lm);
        let h = std::thread::spawn(move || lm2.acquire(t(2), o(1), LockMode::Exclusive, &[]));
        std::thread::sleep(Duration::from_millis(50));
        // t1 releases; t2 wakes, re-records its (now smaller) conflict
        // set {t3}, and keeps waiting.
        lm.release_all(t(1));
        std::thread::sleep(Duration::from_millis(50));
        // A new incarnation of t1 requests o2, held by t2. There is no
        // cycle: t1→t2→t3 is a chain, so this must time out, not abort
        // as a phantom Deadlock(t1).
        let err = lm
            .acquire(t(1), o(2), LockMode::Exclusive, &[])
            .unwrap_err();
        assert_eq!(
            err,
            ReachError::LockTimeout(t(1)),
            "stale waits-for edge produced a phantom deadlock"
        );
        // Unwind: t3 releases, t2 gets o1.
        lm.release_all(t(3));
        assert!(!matches!(h.join().unwrap(), Err(ReachError::Deadlock(_))));
    }

    /// Regression for lock-wait patience re-arming on every wakeup:
    /// under a hot release/re-acquire loop every `notify_all` used to
    /// restart the full timeout, so a starved waiter never timed out.
    /// With an absolute deadline it gives up on schedule no matter how
    /// often it is woken.
    #[test]
    fn starved_waiter_times_out_under_churn() {
        let lm = Arc::new(LockManager::with_timeout(Duration::from_millis(150)));
        // A permanent shared holder keeps the exclusive request blocked.
        lm.acquire(t(10), o(1), LockMode::Shared, &[]).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut churners = Vec::new();
        for i in 0..2u64 {
            let lm = Arc::clone(&lm);
            let stop = Arc::clone(&stop);
            churners.push(std::thread::spawn(move || {
                let me = t(20 + i);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    lm.acquire(me, o(1), LockMode::Shared, &[]).unwrap();
                    std::thread::sleep(Duration::from_millis(2));
                    lm.release_all(me); // notify_all: wakes the waiter
                    std::thread::sleep(Duration::from_millis(2));
                }
            }));
        }
        let t0 = std::time::Instant::now();
        let err = lm
            .acquire(t(1), o(1), LockMode::Exclusive, &[])
            .unwrap_err();
        let waited = t0.elapsed();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in churners {
            h.join().unwrap();
        }
        assert_eq!(err, ReachError::LockTimeout(t(1)));
        assert!(
            waited < Duration::from_secs(2),
            "patience re-armed under churn: waited {waited:?} for a 150ms timeout"
        );
    }

    /// A per-txn deadline must cut a lock wait short of the manager's
    /// default patience — the propagation path for per-request
    /// deadlines from the network server.
    #[test]
    fn txn_deadline_shortens_lock_wait() {
        let lm = LockManager::with_timeout(Duration::from_secs(30));
        lm.acquire(t(1), o(1), LockMode::Exclusive, &[]).unwrap();
        lm.set_deadline(
            t(2),
            Some(std::time::Instant::now() + Duration::from_millis(80)),
        );
        let t0 = std::time::Instant::now();
        let err = lm.acquire(t(2), o(1), LockMode::Shared, &[]).unwrap_err();
        assert_eq!(err, ReachError::LockTimeout(t(2)));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "deadline did not bound the wait: {:?}",
            t0.elapsed()
        );
    }

    /// Shortening an already-blocked waiter's deadline takes effect:
    /// `set_deadline` notifies, and the waiter re-reads the map.
    #[test]
    fn deadline_set_mid_wait_applies() {
        let lm = Arc::new(LockManager::with_timeout(Duration::from_secs(30)));
        lm.acquire(t(1), o(1), LockMode::Exclusive, &[]).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = std::thread::spawn(move || lm2.acquire(t(2), o(1), LockMode::Exclusive, &[]));
        await_parked(&lm, 1);
        lm.set_deadline(
            t(2),
            Some(std::time::Instant::now() + Duration::from_millis(50)),
        );
        let res = h.join().unwrap();
        assert_eq!(res.unwrap_err(), ReachError::LockTimeout(t(2)));
    }

    /// release_all clears the deadline: a reincarnated txn id waits
    /// with the default patience again.
    #[test]
    fn release_all_clears_deadline() {
        let lm = LockManager::with_timeout(Duration::from_millis(200));
        lm.set_deadline(t(2), Some(std::time::Instant::now()));
        lm.release_all(t(2));
        lm.acquire(t(1), o(1), LockMode::Exclusive, &[]).unwrap();
        let t0 = std::time::Instant::now();
        let err = lm.acquire(t(2), o(1), LockMode::Shared, &[]).unwrap_err();
        assert_eq!(err, ReachError::LockTimeout(t(2)));
        assert!(
            t0.elapsed() >= Duration::from_millis(150),
            "stale deadline survived release_all: gave up after {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn ancestors_do_not_conflict() {
        let lm = LockManager::new();
        lm.acquire(t(1), o(1), LockMode::Exclusive, &[]).unwrap();
        // Child t10 of t1 may lock what its ancestor holds.
        lm.acquire(t(10), o(1), LockMode::Exclusive, &[t(1)])
            .unwrap();
        assert_eq!(lm.held_mode(t(10), o(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn transfer_moves_and_upgrades() {
        let lm = LockManager::with_timeout(Duration::from_millis(50));
        lm.acquire(t(10), o(1), LockMode::Exclusive, &[]).unwrap();
        lm.acquire(t(10), o(2), LockMode::Shared, &[]).unwrap();
        lm.acquire(t(1), o(2), LockMode::Shared, &[]).unwrap();
        lm.transfer(t(10), t(1));
        assert_eq!(lm.held_mode(t(1), o(1)), Some(LockMode::Exclusive));
        assert_eq!(lm.held_mode(t(1), o(2)), Some(LockMode::Shared));
        assert_eq!(lm.held_mode(t(10), o(1)), None);
        // A third party still cannot take o(1).
        assert!(lm.acquire(t(3), o(1), LockMode::Shared, &[]).is_err());
    }

    /// A subtransaction blocked on its sibling's exclusive lock is
    /// granted when the sibling commits and its locks pass to the
    /// common parent: `transfer` must wake the waiter, whose only
    /// remaining conflict is now an ancestor. A lost wake-up fails as a
    /// `LockTimeout`.
    #[test]
    fn transfer_to_parent_wakes_blocked_sibling() {
        let lm = Arc::new(LockManager::with_timeout(Duration::from_secs(5)));
        let (parent, holder, sibling) = (t(1), t(10), t(11));
        lm.acquire(holder, o(1), LockMode::Exclusive, &[parent])
            .unwrap();
        let lm2 = Arc::clone(&lm);
        let h =
            std::thread::spawn(move || lm2.acquire(sibling, o(1), LockMode::Exclusive, &[parent]));
        await_parked(&lm, 1);
        lm.transfer(holder, parent);
        h.join().unwrap().unwrap();
        assert_eq!(lm.held_mode(sibling, o(1)), Some(LockMode::Exclusive));
        assert_eq!(lm.held_mode(parent, o(1)), Some(LockMode::Exclusive));
        assert_eq!(lm.parked(), 0);
    }

    #[test]
    fn try_acquire_never_blocks() {
        let lm = LockManager::new();
        lm.acquire(t(1), o(1), LockMode::Exclusive, &[]).unwrap();
        assert!(!lm.try_acquire(t(2), o(1), LockMode::Shared, &[]).unwrap());
        assert!(lm.try_acquire(t(2), o(2), LockMode::Shared, &[]).unwrap());
    }

    #[test]
    fn concurrent_increments_under_exclusive_locks() {
        let lm = Arc::new(LockManager::new());
        let counter = Arc::new(Mutex::new(0i64));
        let mut handles = Vec::new();
        for i in 0..8 {
            let lm = Arc::clone(&lm);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let me = t(100 + i);
                for _ in 0..50 {
                    lm.acquire(me, o(7), LockMode::Exclusive, &[]).unwrap();
                    *counter.lock() += 1;
                    lm.release_all(me);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 400);
    }
}
