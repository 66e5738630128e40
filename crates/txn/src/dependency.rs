//! Commit/abort dependencies between transactions — the machinery behind
//! the three *causally dependent* detached coupling modes (§3.2):
//!
//! * **parallel causally dependent** — the rule transaction "may begin in
//!   parallel but may not commit unless the triggering transaction
//!   commits": a [`CommitRule::IfCommitted`] dependency;
//! * **sequential causally dependent** — "may initiate only after the
//!   triggering transaction has committed": the rule engine starts the
//!   rule transaction from a continuation on `IfCommitted`;
//! * **exclusive causally dependent** — "may commit only if the
//!   triggering transaction aborts": a [`CommitRule::IfAborted`]
//!   dependency.
//!
//! For composite events whose constituents span *several* transactions,
//! Table 1 requires the dependency on **all** of them ("all commit" /
//! "all abort"), so a dependent transaction carries a set of conditions.
//!
//! **Continuations, not waits.** Nothing here blocks: a verdict not yet
//! known is a continuation ([`DependencyGraph::when_resolved`]) that the
//! deciding [`DependencyGraph::record_all`] runs. Both take the one lock,
//! so a continuation racing a record is neither lost nor run twice. A
//! commit only [`DependencyGraph::check`]s, and refuses while a subject
//! still runs.
//!
//! **Retention.** A dependency may name a transaction that finished long
//! ago (a composite's lifespan can span hours), so final outcomes are
//! kept *indefinitely* — but only the outcome: two bits per transaction
//! id in a paged bitmap (`OutcomeStore`), which is also what
//! [`crate::TransactionManager::state`] answers from once the manager
//! has retired a finished transaction's record. A continuation is kept
//! only while parked.

use reach_common::sync::Mutex;
use reach_common::{FastMap, TxnId};

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

/// What runs once a registration's conditions resolve.
type Continuation = Box<dyn FnOnce(Permission) + Send>;

#[derive(Default)]
struct Inner {
    /// Final outcomes of every finished transaction.
    outcomes: OutcomeStore,
    /// Dependencies per dependent transaction.
    deps: FastMap<TxnId, Vec<CommitRule>>,
    /// Parked continuations by registration number, with their owner
    /// and conditions.
    parked: FastMap<u64, (usize, Vec<CommitRule>, Continuation)>,
    /// Registration numbers parked on each unresolved subject. A number
    /// already decided by another subject is skipped, and dropped with
    /// this subject's list when it resolves.
    by_subject: FastMap<TxnId, Vec<u64>>,
    next: u64,
}

impl Inner {
    fn verdict(&self, rules: &[CommitRule]) -> Permission {
        let mut all_resolved = true;
        for rule in rules {
            match self.outcomes.get(rule.subject()) {
                Some(outcome) if !rule.satisfied_by(outcome) => return Permission::MustAbort,
                Some(_) => {}
                None => all_resolved = false,
            }
        }
        if all_resolved {
            Permission::Commit
        } else {
            Permission::Wait
        }
    }
}

/// The dependency graph. Shared between the transaction manager (which
/// records outcomes) and the rule engine (which registers dependencies
/// and continuations).
pub struct DependencyGraph {
    inner: Mutex<Inner>,
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
        }
    }

    /// Register a dependency for `dependent`.
    pub fn add(&self, dependent: TxnId, rule: CommitRule) {
        let mut inner = self.inner.lock();
        inner.deps.entry(dependent).or_default().push(rule);
    }

    /// Record a transaction's final outcome and run the continuations it
    /// made due.
    pub fn record(&self, txn: TxnId, outcome: Outcome) {
        self.record_all(&[(txn, outcome)]);
    }

    /// Record the final outcomes of a finished transaction tree (the
    /// top-level transaction and its subtransactions) under one lock
    /// pass, then run — after dropping the lock — every continuation
    /// they made due.
    pub fn record_all(&self, outcomes: &[(TxnId, Outcome)]) {
        let mut due = Vec::new();
        let mut inner = self.inner.lock();
        for (txn, outcome) in outcomes {
            inner.outcomes.set(*txn, *outcome);
        }
        for (txn, _) in outcomes {
            for id in inner.by_subject.remove(txn).unwrap_or_default() {
                let verdict = match inner.parked.get(&id) {
                    Some((_, rules, _)) => inner.verdict(rules),
                    None => continue,
                };
                if verdict != Permission::Wait {
                    due.push((inner.parked.remove(&id).expect("parked").2, verdict));
                }
            }
        }
        drop(inner);
        for (k, permission) in due {
            k(permission);
        }
    }

    /// Run `k` exactly once, with [`Permission::Commit`] when every rule
    /// holds or [`Permission::MustAbort`] as soon as one cannot: at once
    /// if that is already decided, else on the thread whose
    /// [`Self::record_all`] decides it, outside the graph's lock. `k`
    /// delays the end of that thread's transaction, so it should only
    /// hand work on. `owner` tags a parked `k` for
    /// [`Self::forget_continuations`].
    pub fn when_resolved(
        &self,
        owner: usize,
        rules: &[CommitRule],
        k: impl FnOnce(Permission) + Send + 'static,
    ) {
        let mut inner = self.inner.lock();
        let verdict = inner.verdict(rules);
        if verdict != Permission::Wait {
            drop(inner);
            return k(verdict);
        }
        let id = inner.next;
        inner.next += 1;
        for rule in rules {
            if inner.outcomes.get(rule.subject()).is_none() {
                inner.by_subject.entry(rule.subject()).or_default().push(id);
            }
        }
        inner
            .parked
            .insert(id, (owner, rules.to_vec(), Box::new(k)));
    }

    /// Drop `owner`'s parked continuations unrun, outside the lock.
    pub fn forget_continuations(&self, owner: usize) {
        let mut inner = self.inner.lock();
        let forgotten: Vec<_> = inner.parked.extract_if(|_, k| k.0 == owner).collect();
        drop(inner);
        drop(forgotten);
    }

    /// Non-blocking check of `dependent`'s permission to commit.
    pub fn check(&self, dependent: TxnId) -> Permission {
        let inner = self.inner.lock();
        match inner.deps.get(&dependent) {
            Some(rules) => inner.verdict(rules),
            None => Permission::Commit,
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

    /// A continuation that records each permission it is run with.
    fn recorder() -> (
        Arc<std::sync::Mutex<Vec<Permission>>>,
        impl FnOnce(Permission) + Send + 'static,
    ) {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        (seen, move |p| s.lock().unwrap().push(p))
    }

    #[test]
    fn already_resolved_continuation_runs_at_once() {
        let g = DependencyGraph::new();
        g.record(t(1), Outcome::Committed);
        let (seen, k) = recorder();
        g.when_resolved(0, &[CommitRule::IfCommitted(t(1))], k);
        assert_eq!(*seen.lock().unwrap(), [Permission::Commit]);
        let (seen, k) = recorder();
        g.when_resolved(0, &[], k);
        assert_eq!(*seen.lock().unwrap(), [Permission::Commit]);
    }

    #[test]
    fn continuation_runs_once_on_its_last_subject() {
        let g = DependencyGraph::new();
        let (seen, k) = recorder();
        let rules = [
            CommitRule::IfCommitted(t(1)),
            CommitRule::IfAborted(t(2)),
            CommitRule::IfCommitted(t(3)),
            CommitRule::IfCommitted(t(1)),
        ];
        g.when_resolved(0, &rules, k);
        g.record(t(1), Outcome::Committed);
        g.record_all(&[(t(2), Outcome::Aborted), (t(7), Outcome::Committed)]);
        assert!(seen.lock().unwrap().is_empty());
        g.record(t(3), Outcome::Committed);
        assert_eq!(*seen.lock().unwrap(), [Permission::Commit]);
        g.record(t(3), Outcome::Committed);
        assert_eq!(seen.lock().unwrap().len(), 1);
        assert!(g.inner.lock().parked.is_empty());
        assert!(g.inner.lock().by_subject.is_empty());
    }

    #[test]
    fn contrary_outcome_gives_must_abort_at_once() {
        let g = DependencyGraph::new();
        let (seen, k) = recorder();
        g.when_resolved(
            0,
            &[CommitRule::IfCommitted(t(1)), CommitRule::IfCommitted(t(2))],
            k,
        );
        g.record(t(2), Outcome::Aborted);
        assert_eq!(*seen.lock().unwrap(), [Permission::MustAbort]);
        assert!(g.inner.lock().parked.is_empty());
        // The other subject's stale entry goes when it resolves.
        g.record(t(1), Outcome::Committed);
        assert_eq!(seen.lock().unwrap().len(), 1);
        assert!(g.inner.lock().by_subject.is_empty());
        // Already decided against: at once, without parking.
        let (seen, k) = recorder();
        g.when_resolved(
            0,
            &[CommitRule::IfAborted(t(1)), CommitRule::IfCommitted(t(9))],
            k,
        );
        assert_eq!(*seen.lock().unwrap(), [Permission::MustAbort]);
        assert!(g.inner.lock().parked.is_empty());
    }

    #[test]
    fn forgotten_continuations_never_run() {
        let g = DependencyGraph::new();
        let (gone, k) = recorder();
        g.when_resolved(1, &[CommitRule::IfCommitted(t(1))], k);
        let (kept, k) = recorder();
        g.when_resolved(2, &[CommitRule::IfCommitted(t(1))], k);
        g.forget_continuations(1);
        g.record(t(1), Outcome::Committed);
        assert!(gone.lock().unwrap().is_empty());
        assert_eq!(*kept.lock().unwrap(), [Permission::Commit]);
        assert!(g.inner.lock().by_subject.is_empty());
    }

    #[test]
    fn registration_racing_record_all_is_neither_lost_nor_run_twice() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let g = Arc::new(DependencyGraph::new());
        for i in 0..10_000u64 {
            let (a, b) = (t(2 * i + 1), t(2 * i + 2));
            let ran = Arc::new(AtomicUsize::new(0));
            let outcome = if i % 3 == 0 {
                Outcome::Aborted
            } else {
                Outcome::Committed
            };
            let recorder = {
                let g = Arc::clone(&g);
                std::thread::spawn(move || g.record_all(&[(a, Outcome::Committed), (b, outcome)]))
            };
            let r = Arc::clone(&ran);
            let expect = if outcome == Outcome::Committed {
                Permission::Commit
            } else {
                Permission::MustAbort
            };
            g.when_resolved(
                0,
                &[CommitRule::IfCommitted(a), CommitRule::IfCommitted(b)],
                move |p| {
                    assert_eq!(p, expect);
                    r.fetch_add(1, Ordering::SeqCst);
                },
            );
            recorder.join().unwrap();
            assert_eq!(ran.load(Ordering::SeqCst), 1, "iteration {i}");
        }
        assert!(g.inner.lock().parked.is_empty());
    }
}
