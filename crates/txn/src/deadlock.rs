//! Waits-for graph and cycle detection.
//!
//! The lock manager records "T waits for U" edges while a request is
//! queued and checks for a cycle through the requester before blocking.
//! If one exists the requester is the victim (simplest deterministic
//! policy — the newest participant is always the one that closed the
//! cycle).

use reach_common::{FastMap, FastSet, TxnId};

/// A waits-for graph over transactions.
#[derive(Debug, Default)]
pub struct WaitsFor {
    edges: FastMap<TxnId, FastSet<TxnId>>,
}

impl WaitsFor {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `waiter` waits for each of `holders`.
    pub fn add(&mut self, waiter: TxnId, holders: impl IntoIterator<Item = TxnId>) {
        let set = self.edges.entry(waiter).or_default();
        for h in holders {
            if h != waiter {
                set.insert(h);
            }
        }
    }

    /// Replace `waiter`'s outgoing edges with exactly `holders` — the
    /// *current* conflict set. `add` alone accumulates edges across
    /// retry passes, leaving phantom edges to holders that already
    /// released; a later wait by such an ex-holder would then close a
    /// cycle that does not exist.
    pub fn set(&mut self, waiter: TxnId, holders: impl IntoIterator<Item = TxnId>) {
        self.edges.remove(&waiter);
        self.add(waiter, holders);
    }

    /// Remove all edges out of `waiter` (its request was granted or
    /// cancelled).
    pub fn clear(&mut self, waiter: TxnId) {
        self.edges.remove(&waiter);
    }

    /// Remove `txn` entirely (it finished; nobody can wait for it and it
    /// waits for nobody).
    pub fn remove(&mut self, txn: TxnId) {
        self.edges.remove(&txn);
        for set in self.edges.values_mut() {
            set.remove(&txn);
        }
    }

    /// Whether a cycle through `start` exists (depth-first search).
    pub fn has_cycle_through(&self, start: TxnId) -> bool {
        let mut stack: Vec<TxnId> = self
            .edges
            .get(&start)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let mut seen: FastSet<TxnId> = FastSet::default();
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next) = self.edges.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// Number of waiting transactions (introspection).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no transaction is waiting.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TxnId {
        TxnId::new(n)
    }

    #[test]
    fn no_cycle_in_a_chain() {
        let mut g = WaitsFor::new();
        g.add(t(1), [t(2)]);
        g.add(t(2), [t(3)]);
        assert!(!g.has_cycle_through(t(1)));
        assert!(!g.has_cycle_through(t(3)));
    }

    #[test]
    fn two_party_cycle_is_found() {
        let mut g = WaitsFor::new();
        g.add(t(1), [t(2)]);
        g.add(t(2), [t(1)]);
        assert!(g.has_cycle_through(t(1)));
        assert!(g.has_cycle_through(t(2)));
    }

    #[test]
    fn three_party_cycle_is_found() {
        let mut g = WaitsFor::new();
        g.add(t(1), [t(2)]);
        g.add(t(2), [t(3)]);
        g.add(t(3), [t(1)]);
        assert!(g.has_cycle_through(t(1)));
    }

    #[test]
    fn clearing_the_waiter_breaks_the_cycle() {
        let mut g = WaitsFor::new();
        g.add(t(1), [t(2)]);
        g.add(t(2), [t(1)]);
        g.clear(t(2));
        assert!(!g.has_cycle_through(t(1)));
    }

    #[test]
    fn removing_a_txn_removes_inbound_edges() {
        let mut g = WaitsFor::new();
        g.add(t(1), [t(2)]);
        g.add(t(2), [t(1)]);
        g.remove(t(1));
        assert!(!g.has_cycle_through(t(2)));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn set_replaces_previous_edges() {
        let mut g = WaitsFor::new();
        g.add(t(1), [t(2), t(3)]);
        g.set(t(1), [t(3)]);
        // The stale edge to t(2) is gone: t(2) waiting on t(1) is a
        // chain, not a cycle.
        g.add(t(2), [t(1)]);
        assert!(!g.has_cycle_through(t(2)));
        // The kept edge still participates in real cycles.
        g.add(t(3), [t(1)]);
        assert!(g.has_cycle_through(t(3)));
    }

    #[test]
    fn self_edges_are_ignored() {
        let mut g = WaitsFor::new();
        g.add(t(1), [t(1)]);
        assert!(!g.has_cycle_through(t(1)));
    }
}
