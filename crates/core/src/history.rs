//! Event histories (§6.3).
//!
//! "ECA-managers create an event object and keep local histories of the
//! created event occurrences. The maintenance of a highly distributed
//! history eliminates the bottleneck that would result from centrally
//! logging the occurrence of events. ... a global history is maintained
//! by a background process after a transaction has committed or has been
//! aborted."
//!
//! [`LocalHistory`] is the per-ECA-manager ring buffer;
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
/// (EXPERIMENTS.md E24, `monitor_embedded`): a 1 Mi-entry global log
/// held 330 MiB of occurrences and made every commit free ones
/// allocated a million events earlier; a 65 536-entry window (a 20 MB
/// ring) gives the memory back but still evicts cache-cold objects on
/// the commit path and ran 8 % *below* the unbounded parent; at 4096
/// the evicted occurrences are a few dozen transactions old and the
/// run is 13 % above it.
pub const DEFAULT_HISTORY_CAPACITY: usize = 4096;

/// The per-manager event log.
pub struct LocalHistory {
    ring: Mutex<VecDeque<Arc<EventOccurrence>>>,
    capacity: usize,
}

impl LocalHistory {
    pub fn new(capacity: usize) -> Self {
        LocalHistory {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
        }
    }

    /// Record occurrences in slice order under one lock acquisition,
    /// evicting the oldest beyond capacity.
    pub fn record(&self, occs: &[Arc<EventOccurrence>]) {
        let mut ring = self.ring.lock();
        for occ in occs {
            if ring.len() == self.capacity {
                ring.pop_front();
            }
            ring.push_back(Arc::clone(occ));
        }
    }

    /// Occurrences belonging to `txn`'s top level, removed from the
    /// local ring — the collector calls this after EOT.
    pub fn drain_for_txn(&self, top: TxnId) -> Vec<Arc<EventOccurrence>> {
        let mut ring = self.ring.lock();
        let mut out = Vec::new();
        ring.retain(|occ| {
            if occ.top_txn == Some(top) {
                out.push(Arc::clone(occ));
                false
            } else {
                true
            }
        });
        out
    }

    /// Snapshot of the current ring (oldest first).
    pub fn snapshot(&self) -> Vec<Arc<EventOccurrence>> {
        self.ring.lock().iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.ring.lock().len()
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

    #[test]
    fn drain_removes_only_that_transaction() {
        let h = LocalHistory::new(100);
        h.record(&[occ(1, 10), occ(2, 20), occ(3, 10)]);
        let drained = h.drain_for_txn(TxnId::new(10));
        assert_eq!(drained.len(), 2);
        assert_eq!(h.len(), 1);
        assert_eq!(h.snapshot()[0].txn, Some(TxnId::new(20)));
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
