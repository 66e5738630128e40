//! Event histories (§6.3).
//!
//! "ECA-managers create an event object and keep local histories of the
//! created event occurrences. The maintenance of a highly distributed
//! history eliminates the bottleneck that would result from centrally
//! logging the occurrence of events. ... a global history is maintained
//! by a background process after a transaction has committed or has been
//! aborted."
//!
//! [`LocalHistory`] is the per-ECA-manager ring buffer. The "background
//! process" is, here, the committing thread itself: at every top-level
//! end `ReachSystem` drains that transaction's occurrences from every
//! local history, which costs the transaction's own occurrences and
//! nothing else — occurrences of no transaction (cross-transaction
//! composites, temporal events) sit in a part of the ring the drain does
//! not visit, and never reach the global history.
//! [`GlobalHistory`] is the post-EOT consolidated **window** the
//! collector drains into: the most recent [`DEFAULT_HISTORY_CAPACITY`]
//! occurrences in global sequence order, not an archive. An occurrence
//! leaves it a few dozen transactions after its EOT, while it is still
//! cache-warm. A long audit trail belongs to a firing listener
//! ([`crate::ReachSystem::add_firing_listener`]) or to an explicitly
//! sized [`GlobalHistory::new`], not to the default. Experiment E12
//! measures the contention difference between the two histories.

use crate::event::EventOccurrence;
use reach_common::sync::Mutex;
use reach_common::TxnId;
use std::collections::VecDeque;
use std::sync::Arc;

/// Default capacity of every event history — each manager's local ring
/// and the global window alike. The size is measured, not a taste
/// (EXPERIMENTS.md E24 and E25, `monitor_embedded`): a 1 Mi-entry
/// global log held 330 MiB of occurrences; at 65 536 the run peaks at
/// 186 MiB against 94 MiB here, and is a few per cent slower. (E24
/// blamed that setting's slowdown on cache-cold frees, but with one
/// constant it also filled a composite's local ring to 65 536 top-less
/// entries that every EOT rescanned — E25 measures that scan as most
/// of it.)
pub const DEFAULT_HISTORY_CAPACITY: usize = 4096;

/// The per-manager event log: one capacity, two parts.
///
/// Occurrences of a top-level transaction (`owned`) leave at that
/// transaction's end, when the collector drains them, so `owned` only
/// ever holds occurrences of live transactions. Occurrences of no
/// transaction (`topless`: cross-transaction composite completions,
/// temporal events) are never collected and leave only by eviction.
/// Keeping them apart is what makes the collector's drain cost the
/// finishing transaction's own occurrences instead of a scan of a
/// ring the top-less ones keep full.
pub struct LocalHistory {
    parts: Mutex<Parts>,
    capacity: usize,
}

#[derive(Default)]
struct Parts {
    owned: VecDeque<Arc<EventOccurrence>>,
    topless: VecDeque<Arc<EventOccurrence>>,
}

impl Parts {
    fn len(&self) -> usize {
        self.owned.len() + self.topless.len()
    }

    /// Drop the oldest occurrence by `seq` across both parts.
    fn evict_oldest(&mut self) {
        let part = match (self.owned.front(), self.topless.front()) {
            (Some(o), Some(t)) if t.seq < o.seq => &mut self.topless,
            (Some(_), _) => &mut self.owned,
            (None, _) => &mut self.topless,
        };
        part.pop_front();
    }
}

impl LocalHistory {
    pub fn new(capacity: usize) -> Self {
        LocalHistory {
            parts: Mutex::new(Parts::default()),
            capacity,
        }
    }

    /// Record occurrences in slice order under one lock acquisition,
    /// evicting the oldest beyond capacity.
    pub fn record(&self, occs: &[Arc<EventOccurrence>]) {
        let mut parts = self.parts.lock();
        for occ in occs {
            if parts.len() == self.capacity {
                parts.evict_oldest();
            }
            let part = if occ.top_txn.is_some() {
                &mut parts.owned
            } else {
                &mut parts.topless
            };
            part.push_back(Arc::clone(occ));
        }
    }

    /// Occurrences belonging to `txn`'s top level, removed from the
    /// local history — the collector calls this after EOT. Visits the
    /// owned part only: live transactions' occurrences, in record order.
    pub fn drain_for_txn(&self, top: TxnId) -> Vec<Arc<EventOccurrence>> {
        let mut parts = self.parts.lock();
        let mut out = Vec::new();
        parts.owned.retain(|occ| {
            if occ.top_txn == Some(top) {
                out.push(Arc::clone(occ));
                false
            } else {
                true
            }
        });
        out
    }

    /// Snapshot of the current history, oldest (`seq`) first.
    pub fn snapshot(&self) -> Vec<Arc<EventOccurrence>> {
        let parts = self.parts.lock();
        let mut out: Vec<_> = parts.owned.iter().chain(&parts.topless).cloned().collect();
        out.sort_by_key(|o| o.seq);
        out
    }

    pub fn len(&self) -> usize {
        self.parts.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for LocalHistory {
    fn default() -> Self {
        Self::new(DEFAULT_HISTORY_CAPACITY)
    }
}

/// The consolidated, post-EOT history window.
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

    /// Absorb drained occurrences, keeping global sequence order.
    ///
    /// Merge-inserts by `seq`: collectors for different transactions
    /// drain and absorb concurrently, so a batch may carry occurrences
    /// older than ones already absorbed — sorting within the batch
    /// alone would interleave the log out of order, violating the §6.3
    /// global-sequence invariant. The log tail is nearly sorted, so
    /// the backward scan is short in practice.
    pub fn absorb(&self, mut occurrences: Vec<Arc<EventOccurrence>>) {
        occurrences.sort_by_key(|o| o.seq);
        let mut log = self.log.lock();
        for occ in occurrences {
            let mut idx = log.len();
            while idx > 0 && log[idx - 1].seq > occ.seq {
                idx -= 1;
            }
            log.insert(idx, occ);
            if log.len() > self.capacity {
                log.pop_front();
            }
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

    #[test]
    fn ring_caps_capacity() {
        let h = LocalHistory::new(3);
        for s in 1..=5 {
            h.record(&[occ(s, 1)]);
        }
        let snap = h.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].seq, Timestamp::new(3));
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

    /// One capacity over both parts: the oldest occurrence by `seq`
    /// goes first, whichever part holds it.
    #[test]
    fn eviction_is_oldest_by_seq_across_owned_and_topless() {
        let h = LocalHistory::new(4);
        h.record(&[topless(1), occ(2, 10), occ(3, 10), topless(4)]);
        h.record(&[occ(5, 20)]); // evicts topless 1
        assert_eq!(seqs(&h.snapshot()), vec![2, 3, 4, 5]);
        h.record(&[topless(6)]); // evicts owned 2
        assert_eq!(seqs(&h.snapshot()), vec![3, 4, 5, 6]);
        h.record(&[topless(7), topless(8)]); // evicts owned 3, topless 4
        assert_eq!(seqs(&h.snapshot()), vec![5, 6, 7, 8]);
        assert_eq!(h.len(), 4);
    }

    /// A drain returns exactly that transaction's occurrences in record
    /// order and leaves other transactions' and top-less ones in place.
    #[test]
    fn drain_removes_only_that_transaction() {
        let h = LocalHistory::new(100);
        h.record(&[occ(1, 10), topless(2), occ(3, 20), occ(4, 10), topless(5)]);
        h.record(&[occ(6, 10)]);
        assert_eq!(seqs(&h.drain_for_txn(TxnId::new(10))), vec![1, 4, 6]);
        assert_eq!(seqs(&h.snapshot()), vec![2, 3, 5]);
        assert!(h.drain_for_txn(TxnId::new(10)).is_empty());
        assert_eq!(seqs(&h.drain_for_txn(TxnId::new(20))), vec![3]);
        assert_eq!(seqs(&h.snapshot()), vec![2, 5]);
    }

    #[test]
    fn global_history_orders_by_sequence() {
        let g = GlobalHistory::new(100);
        g.absorb(vec![occ(5, 1), occ(2, 1)]);
        g.absorb(vec![occ(9, 2), occ(7, 2)]);
        let snap = g.snapshot();
        let seqs: Vec<u64> = snap.iter().map(|o| o.seq.raw()).collect();
        assert_eq!(seqs, vec![2, 5, 7, 9]);
    }

    /// Regression: a later batch carrying *older* occurrences (two
    /// collectors draining concurrently, the slower one absorbing
    /// first) used to be appended after sorting only within itself,
    /// interleaving the global log out of `seq` order.
    #[test]
    fn interleaved_absorbs_stay_globally_ordered() {
        let g = GlobalHistory::new(100);
        g.absorb(vec![occ(5, 1), occ(2, 1)]);
        g.absorb(vec![occ(4, 2), occ(1, 2), occ(9, 2)]);
        let seqs: Vec<u64> = g.snapshot().iter().map(|o| o.seq.raw()).collect();
        assert_eq!(seqs, vec![1, 2, 4, 5, 9]);
        // Capacity still evicts from the *old* end after a merge.
        let small = GlobalHistory::new(3);
        small.absorb(vec![occ(10, 1), occ(30, 1)]);
        small.absorb(vec![occ(20, 2), occ(40, 2)]);
        let seqs: Vec<u64> = small.snapshot().iter().map(|o| o.seq.raw()).collect();
        assert_eq!(seqs, vec![20, 30, 40]);
    }
}
