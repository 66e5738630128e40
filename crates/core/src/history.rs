//! Event histories (§6.3), as subscribers of the commit-gated feed.
//!
//! "ECA-managers create an event object and keep local histories of the
//! created event occurrences. The maintenance of a highly distributed
//! history eliminates the bottleneck that would result from centrally
//! logging the occurrence of events. ... a global history is maintained
//! by a background process after a transaction has committed or has been
//! aborted."
//!
//! [`CommitFeed`] is the one place delivered occurrences wait for their
//! transaction's outcome. Every router owns one. While nothing subscribes
//! it is a single atomic load on the event path and at a transaction's
//! end: no occurrence is kept and nothing is collected. Once a
//! subscriber is attached:
//! * an occurrence of a top-level transaction is staged with that
//!   transaction, in a stripe chosen by its id — the paper's "local
//!   history", kept per transaction instead of per ECA-manager, so
//!   concurrent transactions do not serialise on one log;
//! * at the transaction's commit its occurrences go to every subscriber
//!   as one `seq`-ordered slice; at its abort they are dropped (its
//!   events are revoked with it);
//! * an occurrence of no transaction (a cross-transaction composite
//!   completion, a temporal event) goes to the subscribers at once.
//!
//! The subscribers are the consumers of committed history: a
//! [`GlobalHistory`] window attached by whoever wants to read one, and
//! the distribution layer's cross-shard stream. The handoff runs on the
//! ending thread; nothing is done for a history nobody reads.
//!
//! [`GlobalHistory`] is the consolidated **window**: the most recent
//! [`DEFAULT_HISTORY_CAPACITY`] committed occurrences in global sequence
//! order, not an archive. A long audit trail belongs to a firing
//! listener ([`crate::ReachSystem::add_firing_listener`]), a subscriber
//! of its own, or an explicitly sized [`GlobalHistory::new`]. Experiment
//! E12 measures the contention difference between staging per
//! transaction and logging every event centrally.

use crate::eca::Router;
use crate::event::EventOccurrence;
use reach_common::sync::{Mutex, RwLock};
use reach_common::{FastMap, TxnId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Default capacity of the global history window. The size is measured,
/// not a taste (EXPERIMENTS.md E24, `monitor_embedded`): a 1 Mi-entry
/// global log held 330 MiB of occurrences, and at 65 536 the run peaks
/// at 186 MiB against 94 MiB here.
pub const DEFAULT_HISTORY_CAPACITY: usize = 4096;

/// A consumer of committed occurrences. It gets one `seq`-ordered slice
/// per committed transaction, and each top-less delivery as it happens.
pub type Subscriber = Arc<dyn Fn(&[Arc<EventOccurrence>]) + Send + Sync>;

/// Staging stripes. Transactions are spread over them by id, so two
/// concurrent transactions rarely share a lock (E12).
const STRIPES: usize = 16;

type Staged = FastMap<TxnId, Vec<Arc<EventOccurrence>>>;

/// The commit-gated occurrence feed (see the module docs).
pub struct CommitFeed {
    subscribers: RwLock<Arc<Vec<Subscriber>>>,
    /// Set by the first subscription and never cleared. Until then the
    /// feed stages nothing and hands off nothing.
    on: AtomicBool,
    staged: [Mutex<Staged>; STRIPES],
}

impl Default for CommitFeed {
    fn default() -> Self {
        CommitFeed {
            subscribers: RwLock::new(Arc::default()),
            on: AtomicBool::new(false),
            staged: std::array::from_fn(|_| Mutex::new(FastMap::default())),
        }
    }
}

impl CommitFeed {
    /// Attach a subscriber. Attach it before the occurrences it should
    /// see are raised: a transaction already running when the first
    /// subscriber arrives hands off only what it raises afterwards.
    pub fn subscribe(&self, subscriber: Subscriber) {
        Arc::make_mut(&mut self.subscribers.write()).push(subscriber);
        self.on.store(true, Ordering::Release);
    }

    /// Whether anything subscribes — the event path's gate.
    fn is_subscribed(&self) -> bool {
        self.on.load(Ordering::Acquire)
    }

    fn stripe(&self, top: TxnId) -> &Mutex<Staged> {
        &self.staged[top.raw() as usize % STRIPES]
    }

    /// Take delivered occurrences, in delivery order: a transaction's
    /// are staged until it ends, top-less ones go to the subscribers
    /// now. The router calls this for every locally raised occurrence.
    pub fn stage(&self, occs: &[Arc<EventOccurrence>]) {
        if !self.is_subscribed() {
            return;
        }
        for run in occs.chunk_by(|a, b| a.top_txn == b.top_txn) {
            match run[0].top_txn {
                Some(top) => self
                    .stripe(top)
                    .lock()
                    .entry(top)
                    .or_default()
                    .extend(run.iter().cloned()),
                None => self.publish(run),
            }
        }
    }

    /// Top-level transaction `top` ended. On commit its staged
    /// occurrences go to every subscriber in `seq` order; on abort they
    /// are dropped.
    pub fn finish(&self, top: TxnId, committed: bool) {
        if !self.is_subscribed() {
            return;
        }
        let staged = self.stripe(top).lock().remove(&top);
        if let (true, Some(mut occs)) = (committed, staged) {
            occs.sort_by_key(|o| o.seq);
            self.publish(&occs);
        }
    }

    fn publish(&self, occs: &[Arc<EventOccurrence>]) {
        let subscribers = Arc::clone(&self.subscribers.read());
        for subscriber in subscribers.iter() {
            subscriber(occs);
        }
    }

    /// Transactions with occurrences staged: the live ones that raised
    /// something since the first subscription.
    pub fn staged_txns(&self) -> usize {
        self.staged.iter().map(|s| s.lock().len()).sum()
    }
}

/// The consolidated history window of committed occurrences.
pub struct GlobalHistory {
    log: Mutex<VecDeque<Arc<EventOccurrence>>>,
    capacity: usize,
}

impl GlobalHistory {
    pub fn new(capacity: usize) -> Self {
        GlobalHistory {
            log: Mutex::new(VecDeque::new()),
            capacity,
        }
    }

    /// Subscribe this window to `router`'s committed occurrences. One
    /// window may be attached to several routers (the shards of a
    /// deployment share one sequence clock, so it merges into one
    /// order).
    pub fn attach(self: &Arc<Self>, router: &Router) {
        let me = Arc::clone(self);
        router
            .feed()
            .subscribe(Arc::new(move |occs| me.absorb(occs)));
    }

    /// Absorb occurrences, keeping global sequence order.
    ///
    /// Merges by `seq`: transactions end concurrently, so a batch may
    /// carry occurrences older than ones already absorbed — appending
    /// would interleave the log out of order, violating the §6.3
    /// global-sequence invariant. The part of the log newer than the
    /// batch (a few other transactions' worth) is lifted off and merged
    /// back with the batch in one pass.
    pub fn absorb(&self, occurrences: &[Arc<EventOccurrence>]) {
        let mut sorted;
        let batch = if occurrences.is_sorted_by_key(|o| o.seq) {
            occurrences
        } else {
            sorted = occurrences.to_vec();
            sorted.sort_by_key(|o| o.seq);
            &sorted
        };
        let Some(oldest) = batch.first().map(|o| o.seq) else {
            return;
        };
        let mut log = self.log.lock();
        let mut at = log.len();
        while at > 0 && log[at - 1].seq > oldest {
            at -= 1;
        }
        let mut newer = log.drain(at..).collect::<Vec<_>>().into_iter().peekable();
        for occ in batch {
            while let Some(n) = newer.next_if(|n| n.seq < occ.seq) {
                log.push_back(n);
            }
            log.push_back(Arc::clone(occ));
        }
        log.extend(newer);
        while log.len() > self.capacity {
            log.pop_front();
        }
    }

    /// Snapshot (oldest first).
    pub fn snapshot(&self) -> Vec<Arc<EventOccurrence>> {
        self.log.lock().iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.log.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occurrences the window holds at most.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Default for GlobalHistory {
    fn default() -> Self {
        Self::new(DEFAULT_HISTORY_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventData;
    use reach_common::{EventTypeId, TimePoint, Timestamp};

    fn occ(seq: u64, txn: u64) -> Arc<EventOccurrence> {
        Arc::new(EventOccurrence {
            event_type: EventTypeId::new(1),
            seq: Timestamp::new(seq),
            at: TimePoint::ZERO,
            txn: Some(TxnId::new(txn)),
            top_txn: Some(TxnId::new(txn)),
            data: EventData::default(),
            constituents: Vec::new(),
        })
    }

    fn topless(seq: u64) -> Arc<EventOccurrence> {
        let mut o = Arc::unwrap_or_clone(occ(seq, 0));
        o.txn = None;
        o.top_txn = None;
        Arc::new(o)
    }

    fn seqs(occs: &[Arc<EventOccurrence>]) -> Vec<u64> {
        occs.iter().map(|o| o.seq.raw()).collect()
    }

    /// A feed with one subscriber that records each handed-off slice.
    fn recorded() -> (CommitFeed, Arc<Mutex<Vec<Vec<u64>>>>) {
        let feed = CommitFeed::default();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        feed.subscribe(Arc::new(move |occs| g.lock().push(seqs(occs))));
        (feed, got)
    }

    #[test]
    fn ring_caps_capacity() {
        let h = GlobalHistory::new(3);
        for s in 1..=5 {
            h.absorb(&[occ(s, 1)]);
        }
        let snap = h.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].seq, Timestamp::new(3));
    }

    /// Top-less occurrences reach the window when raised, a
    /// transaction's at its commit; the window's one capacity then
    /// evicts the oldest by `seq`, whichever way it arrived.
    #[test]
    fn eviction_is_oldest_by_seq_across_owned_and_topless() {
        let h = Arc::new(GlobalHistory::new(4));
        let feed = CommitFeed::default();
        let me = Arc::clone(&h);
        feed.subscribe(Arc::new(move |occs| me.absorb(occs)));
        feed.stage(&[topless(1), occ(2, 10), occ(3, 10), topless(4)]);
        assert_eq!(seqs(&h.snapshot()), vec![1, 4]);
        feed.stage(&[occ(5, 20)]);
        feed.finish(TxnId::new(10), true);
        assert_eq!(seqs(&h.snapshot()), vec![1, 2, 3, 4]);
        feed.stage(&[topless(6)]); // evicts topless 1
        assert_eq!(seqs(&h.snapshot()), vec![2, 3, 4, 6]);
        feed.finish(TxnId::new(20), true); // 5 merges in, evicts owned 2
        assert_eq!(seqs(&h.snapshot()), vec![3, 4, 5, 6]);
        assert_eq!(h.len(), 4);
    }

    /// Ending one transaction hands over exactly its occurrences, in
    /// `seq` order, and leaves other transactions' staged.
    #[test]
    fn drain_removes_only_that_transaction() {
        let (feed, got) = recorded();
        feed.stage(&[occ(1, 10), occ(3, 20), occ(4, 10)]);
        feed.stage(&[occ(6, 10), occ(2, 10)]);
        assert_eq!(feed.staged_txns(), 2);
        feed.finish(TxnId::new(10), true);
        assert_eq!(*got.lock(), vec![vec![1, 2, 4, 6]]);
        feed.finish(TxnId::new(10), true);
        assert_eq!(got.lock().len(), 1, "nothing is handed over twice");
        feed.finish(TxnId::new(20), true);
        assert_eq!(got.lock()[1], vec![3]);
        assert_eq!(feed.staged_txns(), 0);
    }

    #[test]
    fn an_aborted_transaction_hands_over_nothing() {
        let (feed, got) = recorded();
        feed.stage(&[occ(1, 10), topless(2), occ(3, 10)]);
        feed.finish(TxnId::new(10), false);
        assert_eq!(*got.lock(), vec![vec![2]], "only the top-less one");
        assert_eq!(feed.staged_txns(), 0);
    }

    #[test]
    fn without_a_subscriber_nothing_is_staged() {
        let feed = CommitFeed::default();
        feed.stage(&[occ(1, 10), occ(2, 11)]);
        assert_eq!(feed.staged_txns(), 0);
        assert!(!feed.is_subscribed());
    }

    #[test]
    fn global_history_orders_by_sequence() {
        let g = GlobalHistory::new(100);
        g.absorb(&[occ(2, 1), occ(5, 1)]);
        g.absorb(&[occ(7, 2), occ(9, 2)]);
        assert_eq!(seqs(&g.snapshot()), vec![2, 5, 7, 9]);
    }

    /// Regression: a later batch carrying *older* occurrences (two
    /// transactions ending concurrently, the slower one absorbing
    /// first) used to be appended after sorting only within itself,
    /// interleaving the global log out of `seq` order.
    #[test]
    fn interleaved_absorbs_stay_globally_ordered() {
        let g = GlobalHistory::new(100);
        g.absorb(&[occ(5, 1), occ(2, 1)]);
        g.absorb(&[occ(4, 2), occ(1, 2), occ(9, 2)]);
        assert_eq!(seqs(&g.snapshot()), vec![1, 2, 4, 5, 9]);
        // Capacity still evicts from the *old* end after a merge.
        let small = GlobalHistory::new(3);
        small.absorb(&[occ(10, 1), occ(30, 1)]);
        small.absorb(&[occ(20, 2), occ(40, 2)]);
        assert_eq!(seqs(&small.snapshot()), vec![20, 30, 40]);
    }
}
