//! Commit/abort dependencies between transactions — the machinery behind
//! the three *causally dependent* detached coupling modes (§3.2):
//!
//! * **parallel causally dependent** — the rule transaction "may begin in
//!   parallel but may not commit unless the triggering transaction
//!   commits": a [`CommitRule::IfCommitted`] dependency;
//! * **sequential causally dependent** — "may initiate only after the
//!   triggering transaction has committed": scheduling is handled by the
//!   rule engine, and the same `IfCommitted` dependency guards against
//!   races;
//! * **exclusive causally dependent** — "may commit only if the
//!   triggering transaction aborts": a [`CommitRule::IfAborted`]
//!   dependency.
//!
//! For composite events whose constituents span *several* transactions,
//! Table 1 requires the dependency on **all** of them ("all commit" /
//! "all abort"), so a dependent transaction carries a set of conditions.
//!
//! **Retention.** A dependency may name a transaction that finished long
//! ago (a composite's lifespan can span hours), so final outcomes are
//! kept *indefinitely* — but only the outcome: two bits per transaction
//! id in a paged bitmap (`OutcomeStore`), which is also what
//! [`crate::TransactionManager::state`] answers from once the manager
//! has retired a finished transaction's record.

use reach_common::sync::{Condvar, Mutex, MutexGuard};
use reach_common::{FastMap, ReachError, Result, TxnId};
use std::time::Duration;

/// Final fate of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The transaction committed.
    Committed,
    /// The transaction aborted.
    Aborted,
}

/// One dependency condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitRule {
    /// The dependent may commit only if `on` committed.
    IfCommitted(TxnId),
    /// The dependent may commit only if `on` aborted.
    IfAborted(TxnId),
}

impl CommitRule {
    fn subject(&self) -> TxnId {
        match self {
            CommitRule::IfCommitted(t) | CommitRule::IfAborted(t) => *t,
        }
    }

    fn satisfied_by(&self, outcome: Outcome) -> bool {
        match self {
            CommitRule::IfCommitted(_) => outcome == Outcome::Committed,
            CommitRule::IfAborted(_) => outcome == Outcome::Aborted,
        }
    }
}

/// Transaction ids covered by one page of the [`OutcomeStore`].
const PAGE_IDS: u64 = 1 << 14;
/// Outcomes per `u64` word (two bits each).
const WORD_IDS: u64 = 32;

/// Final outcomes at two bits per transaction id (0 = not finished,
/// 1 = committed, 2 = aborted).
///
/// The transaction manager issues dense ids, so a bitmap page of 4 KiB
/// covers 16 384 consecutive transactions — a million finished
/// transactions cost 250 KB, against the ~17 MB a `HashMap<TxnId,
/// Outcome>` of them did — and the page being written is the page being
/// read, so lookups stay cache-resident. Pages are keyed by number in a
/// map rather than indexed in a vector: the graph is a public type, and
/// a stray huge id must cost one page, not an allocation proportional
/// to its value.
#[derive(Default)]
struct OutcomeStore {
    pages: FastMap<u64, Box<[u64; (PAGE_IDS / WORD_IDS) as usize]>>,
}

impl OutcomeStore {
    fn slot(txn: TxnId) -> (u64, usize, u32) {
        let id = txn.raw();
        (
            id / PAGE_IDS,
            (id % PAGE_IDS / WORD_IDS) as usize,
            (id % WORD_IDS) as u32 * 2,
        )
    }

    fn get(&self, txn: TxnId) -> Option<Outcome> {
        let (page, word, shift) = Self::slot(txn);
        match self.pages.get(&page)?[word] >> shift & 0b11 {
            1 => Some(Outcome::Committed),
            2 => Some(Outcome::Aborted),
            _ => None,
        }
    }

    fn set(&mut self, txn: TxnId, outcome: Outcome) {
        let (page, word, shift) = Self::slot(txn);
        let bits: u64 = match outcome {
            Outcome::Committed => 1,
            Outcome::Aborted => 2,
        };
        let w = &mut self
            .pages
            .entry(page)
            .or_insert_with(|| Box::new([0; (PAGE_IDS / WORD_IDS) as usize]))[word];
        *w = *w & !(0b11 << shift) | bits << shift;
    }
}

#[derive(Default)]
struct Inner {
    /// Final outcomes of every finished transaction.
    outcomes: OutcomeStore,
    /// Dependencies per dependent transaction.
    deps: FastMap<TxnId, Vec<CommitRule>>,
    /// Threads blocked in `wait`/`wait_for_outcome`. Every finished
    /// transaction records an outcome, almost none has a waiter, and
    /// waking a condvar is a system call whether or not anyone sleeps
    /// on it — so `record_all` only notifies when this is non-zero.
    waiters: usize,
}

/// The dependency graph. Shared between the transaction manager (which
/// records outcomes) and the rule engine (which registers dependencies).
pub struct DependencyGraph {
    inner: Mutex<Inner>,
    changed: Condvar,
}

/// What a dependent transaction is allowed to do right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Permission {
    /// All conditions resolved in favour: commit may proceed.
    Commit,
    /// Some condition resolved against: the dependent must abort.
    MustAbort,
    /// Some condition's subject is still running.
    Wait,
}

impl DependencyGraph {
    /// An empty dependency graph.
    pub fn new() -> Self {
        DependencyGraph {
            inner: Mutex::new(Inner::default()),
            changed: Condvar::new(),
        }
    }

    /// Register a dependency for `dependent`.
    pub fn add(&self, dependent: TxnId, rule: CommitRule) {
        let mut inner = self.inner.lock();
        inner.deps.entry(dependent).or_default().push(rule);
    }

    /// Record a transaction's final outcome and wake waiters.
    pub fn record(&self, txn: TxnId, outcome: Outcome) {
        self.record_all(&[(txn, outcome)]);
    }

    /// Record the final outcomes of a finished transaction tree (the
    /// top-level transaction and its subtransactions) under one lock
    /// pass, then wake waiters — if there are any — once.
    pub fn record_all(&self, outcomes: &[(TxnId, Outcome)]) {
        let mut inner = self.inner.lock();
        for (txn, outcome) in outcomes {
            inner.outcomes.set(*txn, *outcome);
        }
        let waiters = inner.waiters;
        drop(inner);
        if waiters > 0 {
            self.changed.notify_all();
        }
    }

    /// One condvar wait, counted in `waiters` so that `record_all` knows
    /// to notify; `true` if it timed out. The count changes under the
    /// same lock `record_all` reads it under, so no wake-up is missed.
    fn wait_changed(&self, inner: &mut MutexGuard<'_, Inner>, timeout: Duration) -> bool {
        inner.waiters += 1;
        let timed_out = self.changed.wait_for(inner, timeout).timed_out();
        inner.waiters -= 1;
        timed_out
    }

    /// Non-blocking check of `dependent`'s permission to commit.
    pub fn check(&self, dependent: TxnId) -> Permission {
        let inner = self.inner.lock();
        Self::check_locked(&inner, dependent)
    }

    fn check_locked(inner: &Inner, dependent: TxnId) -> Permission {
        let Some(rules) = inner.deps.get(&dependent) else {
            return Permission::Commit;
        };
        let mut all_resolved = true;
        for rule in rules {
            match inner.outcomes.get(rule.subject()) {
                Some(outcome) => {
                    if !rule.satisfied_by(outcome) {
                        return Permission::MustAbort;
                    }
                }
                None => all_resolved = false,
            }
        }
        if all_resolved {
            Permission::Commit
        } else {
            Permission::Wait
        }
    }

    /// Block until `dependent` may commit or must abort. Errors with
    /// `DependencyViolation` on timeout (a subject never finished).
    pub fn wait(&self, dependent: TxnId, timeout: Duration) -> Result<Permission> {
        let mut inner = self.inner.lock();
        loop {
            match Self::check_locked(&inner, dependent) {
                Permission::Wait => {}
                p => return Ok(p),
            }
            if self.wait_changed(&mut inner, timeout) {
                return Err(ReachError::DependencyViolation(format!(
                    "{dependent} timed out waiting for its causal dependencies"
                )));
            }
        }
    }

    /// Wait until `txn`'s outcome is known (used by sequential causally
    /// dependent scheduling: start only after the trigger finishes).
    pub fn wait_for_outcome(&self, txn: TxnId, timeout: Duration) -> Result<Outcome> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(o) = inner.outcomes.get(txn) {
                return Ok(o);
            }
            if self.wait_changed(&mut inner, timeout) {
                return Err(ReachError::DependencyViolation(format!(
                    "timed out waiting for outcome of {txn}"
                )));
            }
        }
    }

    /// The recorded outcome, if final — answered for any transaction
    /// that ever finished, however long ago.
    pub fn outcome(&self, txn: TxnId) -> Option<Outcome> {
        self.inner.lock().outcomes.get(txn)
    }

    /// Drop bookkeeping for a finished dependent.
    pub fn forget_dependent(&self, dependent: TxnId) {
        self.inner.lock().deps.remove(&dependent);
    }
}

impl Default for DependencyGraph {
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

    #[test]
    fn no_dependencies_means_commit() {
        let g = DependencyGraph::new();
        assert_eq!(g.check(t(1)), Permission::Commit);
    }

    #[test]
    fn if_committed_waits_then_allows() {
        let g = DependencyGraph::new();
        g.add(t(2), CommitRule::IfCommitted(t(1)));
        assert_eq!(g.check(t(2)), Permission::Wait);
        g.record(t(1), Outcome::Committed);
        assert_eq!(g.check(t(2)), Permission::Commit);
    }

    #[test]
    fn if_committed_forbids_on_abort() {
        let g = DependencyGraph::new();
        g.add(t(2), CommitRule::IfCommitted(t(1)));
        g.record(t(1), Outcome::Aborted);
        assert_eq!(g.check(t(2)), Permission::MustAbort);
    }

    #[test]
    fn exclusive_mode_commits_only_on_abort() {
        let g = DependencyGraph::new();
        g.add(t(2), CommitRule::IfAborted(t(1)));
        g.record(t(1), Outcome::Committed);
        assert_eq!(g.check(t(2)), Permission::MustAbort);
        // And the other way round:
        g.add(t(3), CommitRule::IfAborted(t(4)));
        g.record(t(4), Outcome::Aborted);
        assert_eq!(g.check(t(3)), Permission::Commit);
    }

    #[test]
    fn multi_transaction_composite_requires_all() {
        // Table 1's "Y (all commit)" cell: dependency on every origin.
        let g = DependencyGraph::new();
        g.add(t(9), CommitRule::IfCommitted(t(1)));
        g.add(t(9), CommitRule::IfCommitted(t(2)));
        g.record(t(1), Outcome::Committed);
        assert_eq!(g.check(t(9)), Permission::Wait);
        g.record(t(2), Outcome::Aborted);
        assert_eq!(g.check(t(9)), Permission::MustAbort);
    }

    #[test]
    fn outcome_store_keeps_neighbours_apart_and_overwrites() {
        let ids = [
            1,
            31,
            32,
            33,
            PAGE_IDS - 1,
            PAGE_IDS,
            7 * PAGE_IDS + 5,
            u64::MAX,
        ];
        let outcome_of = |id: u64| {
            if id.is_multiple_of(2) {
                Outcome::Committed
            } else {
                Outcome::Aborted
            }
        };
        let mut s = OutcomeStore::default();
        for id in ids {
            assert_eq!(s.get(t(id)), None);
            s.set(t(id), outcome_of(id));
        }
        for id in ids {
            assert_eq!(s.get(t(id)), Some(outcome_of(id)), "id {id}");
        }
        assert_eq!(s.get(t(2)), None);
        assert_eq!(s.get(t(PAGE_IDS + 1)), None);
        s.set(t(32), Outcome::Aborted);
        assert_eq!(s.get(t(32)), Some(Outcome::Aborted));
        assert_eq!(s.get(t(31)), Some(Outcome::Aborted));
        assert_eq!(s.get(t(33)), Some(Outcome::Aborted));
        // Sparse ids cost a page each, never an index-sized allocation.
        assert_eq!(s.pages.len(), 4);
    }

    #[test]
    fn wait_blocks_until_resolution() {
        let g = Arc::new(DependencyGraph::new());
        g.add(t(2), CommitRule::IfCommitted(t(1)));
        let g2 = Arc::clone(&g);
        let h = std::thread::spawn(move || g2.wait(t(2), Duration::from_secs(5)).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        g.record(t(1), Outcome::Committed);
        assert_eq!(h.join().unwrap(), Permission::Commit);
    }

    #[test]
    fn wait_times_out() {
        let g = DependencyGraph::new();
        g.add(t(2), CommitRule::IfCommitted(t(1)));
        assert!(g.wait(t(2), Duration::from_millis(30)).is_err());
    }

    #[test]
    fn wait_for_outcome_sees_later_record() {
        let g = Arc::new(DependencyGraph::new());
        let g2 = Arc::clone(&g);
        let h =
            std::thread::spawn(move || g2.wait_for_outcome(t(7), Duration::from_secs(5)).unwrap());
        std::thread::sleep(Duration::from_millis(10));
        g.record(t(7), Outcome::Aborted);
        assert_eq!(h.join().unwrap(), Outcome::Aborted);
    }
}
