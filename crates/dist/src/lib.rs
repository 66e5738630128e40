//! REACH distribution layer (§7 outlook: "REACH will be extended to a
//! distributed active OODBMS").
//!
//! A deployment is N engine instances ("shards") with disjoint storage,
//! glued together by three pieces:
//!
//! * [`ShardRouter`] — a pure hash partition of objects (and therefore
//!   of primitive-event histories, which live with the objects that
//!   raise them) over the shards. Placement is a stable function of the
//!   object identifier, so it survives restarts with no catalog.
//! * [`Coordinator`] — presumed-abort two-phase commit layered on the
//!   participants' existing write-ahead logs. The coordinator forces
//!   only commit decisions; an in-doubt participant that finds no
//!   durable `CoordCommit` for its global transaction presumes abort.
//! * [`compositor`] — a subscriber on each shard's commit-gated
//!   occurrence feed that streams the shard's *committed* occurrences
//!   into every other shard's router, where they complete cross-shard
//!   composite events on the composite's owning shard.
//!
//! [`DistSystem`] wires all three around `open_oodb::Database` +
//! `reach_core::ReachSystem` instances and is the entry point used by
//! the tests and the E22 experiment.

#![warn(missing_docs)]

pub mod compositor;
pub mod coord;
pub mod router;
pub mod system;

pub use coord::{
    resolve_in_doubt, scan_decisions, Boundary, Coordinator, CrashHook, DecisionLog, Participant,
};
pub use router::ShardRouter;
pub use system::{DbParticipant, DistSystem, DistTxn};
