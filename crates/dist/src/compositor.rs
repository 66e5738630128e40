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
//! [`attach`] bridges the two with one subscriber per shard on that
//! shard's commit-gated feed ([`CommitFeed`]): the feed hands over a
//! transaction's occurrences, in `seq` order, when it commits, and the
//! subscriber ships them to every other shard via
//! [`Router::deliver_remote`], which feeds only cross-transaction
//! composite subscribers. Occurrences of aborted transactions never
//! reach the subscriber: only committed history crosses shard
//! boundaries, matching the paper's rule that detached,
//! causally-dependent work observes committed state. Occurrences
//! outside any transaction (temporal events, cross-transaction
//! composite completions) ship immediately.
//!
//! [`CommitFeed`]: reach_core::history::CommitFeed

use reach_core::eca::Router;
use reach_core::ReachSystem;
use std::sync::{Arc, Weak};

/// Stream each shard's committed occurrences into every other shard's
/// router (see module docs). The subscribers hold the other routers
/// weakly, so the shards do not keep each other alive.
pub fn attach(shards: &[Arc<ReachSystem>]) {
    for (i, sys) in shards.iter().enumerate() {
        let others: Vec<Weak<Router>> = shards
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, other)| Arc::downgrade(other.router()))
            .collect();
        sys.router().feed().subscribe(Arc::new(move |occs| {
            for router in others.iter().filter_map(Weak::upgrade) {
                for occ in occs {
                    router.deliver_remote(Arc::clone(occ));
                }
            }
        }));
    }
}
