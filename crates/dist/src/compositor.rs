//! Cross-shard event composition.
//!
//! Every shard detects its own primitive events (objects are
//! partitioned, so a primitive is always raised on the shard that owns
//! its receiver) and fires its primitive rules locally. Composite
//! events whose constituents span shards are completed on the
//! composite's *owning* shard (`event_type % N` — the routers' ids
//! align because every shard registers every type in the same order,
//! and the `Router` composition gate silences the N−1 non-owners).
//!
//! The compositor bridges the two: it observes each shard's delivered
//! occurrences, buffers them per `(shard, top-level txn)` — transaction
//! identifiers are per-shard, so the shard index is part of the key —
//! and on *commit* of that transaction ships the buffer, in `seq`
//! order, to every other shard via [`Router::deliver_remote`], which
//! feeds only cross-transaction composite subscribers. Occurrences of
//! aborted transactions are dropped: only committed history crosses
//! shard boundaries, matching the paper's rule that detached,
//! causally-dependent work observes committed state. Occurrences
//! outside any transaction (temporal events, cross-transaction
//! composite completions) ship immediately.
//!
//! The same hook maintains the deployment-wide [`GlobalHistory`]: every
//! committed occurrence is absorbed once, by the shard that raised it,
//! and the shared `seq` clock makes the merge a total order.
//!
//! [`Router::deliver_remote`]: reach_core::eca::Router::deliver_remote

use reach_common::sync::Mutex;
use reach_common::TxnId;
use reach_core::event::EventOccurrence;
use reach_core::history::GlobalHistory;
use reach_core::ReachSystem;
use reach_txn::{TxnEvent, TxnEventKind, TxnListener};
use std::collections::HashMap;
use std::sync::Arc;

/// One transaction's staged occurrences awaiting its outcome.
type Staged = Vec<Arc<EventOccurrence>>;

/// Streams committed occurrences between shards (see module docs).
pub struct DistCompositor {
    shards: Vec<Arc<ReachSystem>>,
    history: Arc<GlobalHistory>,
    /// Committed-stream staging, keyed by (shard index, top-level txn).
    buffers: Mutex<HashMap<(u32, TxnId), Staged>>,
}

impl DistCompositor {
    /// Wire a compositor across `shards`, registering a delivery
    /// observer and a transaction listener on each. Must be called
    /// *after* the `ReachSystem`s are constructed so each system's own
    /// flow bridge (which flushes composition queues and closes event
    /// windows at commit) runs before the compositor's listener — by
    /// the time `Committed` reaches us, every occurrence of the
    /// transaction has been delivered and buffered.
    pub fn attach(shards: &[Arc<ReachSystem>], history: &Arc<GlobalHistory>) -> Arc<Self> {
        let this = Arc::new(Self {
            shards: shards.to_vec(),
            history: Arc::clone(history),
            buffers: Mutex::new(HashMap::new()),
        });
        for (i, sys) in shards.iter().enumerate() {
            let shard = i as u32;
            let me = Arc::clone(&this);
            sys.router()
                .add_observer(Arc::new(move |occ| me.observe(shard, occ)));
            let me = Arc::clone(&this);
            sys.db()
                .txn_manager()
                .add_listener(Arc::new(Bridge { shard, comp: me }));
        }
        this
    }

    /// The deployment-wide committed history.
    pub fn history(&self) -> &Arc<GlobalHistory> {
        &self.history
    }

    fn observe(&self, shard: u32, occ: &Arc<EventOccurrence>) {
        let occ = Arc::clone(occ);
        match occ.top_txn {
            Some(top) => self
                .buffers
                .lock()
                .entry((shard, top))
                .or_default()
                .push(occ),
            // No transaction to wait for — ship right away.
            None => self.ship(shard, vec![occ]),
        }
    }

    fn finished(&self, shard: u32, top: TxnId, committed: bool) {
        let drained = self.buffers.lock().remove(&(shard, top));
        if let (true, Some(occs)) = (committed, drained) {
            self.ship(shard, occs);
        }
    }

    fn ship(&self, from: u32, mut occs: Vec<Arc<EventOccurrence>>) {
        occs.sort_by_key(|o| o.seq);
        for (i, sys) in self.shards.iter().enumerate() {
            if i as u32 == from {
                continue;
            }
            for occ in &occs {
                sys.router().deliver_remote(Arc::clone(occ));
            }
        }
        self.history.absorb(occs);
    }
}

struct Bridge {
    shard: u32,
    comp: Arc<DistCompositor>,
}

impl TxnListener for Bridge {
    fn on_txn_event(&self, e: &TxnEvent) {
        if e.parent.is_some() {
            return;
        }
        match e.kind {
            TxnEventKind::Committed => self.comp.finished(self.shard, e.top_level, true),
            TxnEventKind::Aborted => self.comp.finished(self.shard, e.top_level, false),
            TxnEventKind::Begin | TxnEventKind::PreCommit => {}
        }
    }
}
