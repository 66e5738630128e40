//! Temporal events and milestones.
//!
//! §3.1: "Temporal events can be either absolute or relative, periodic
//! or aperiodic." and "we defined a special kind of temporal event,
//! milestones, which are used for time-constrained processing and can be
//! applied to tracking the progress of a transaction relative to its
//! deadline. If the transaction does not reach a milestone in time, the
//! probability of missing its deadline is high and a contingency plan
//! can be invoked."
//!
//! The [`TemporalManager`] is driven by [`TemporalManager::tick`]: under
//! the virtual clock the REACH facade calls it whenever time advances
//! (deterministic tests and experiments); under a real clock a
//! background ticker thread does.

use crate::eca::Router;
use crate::event::{EventOccurrence, PrimitiveEvent};
use reach_common::sync::Mutex;
use reach_common::{EventTypeId, FastMap, TimePoint, TxnId};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug)]
enum Kind {
    Absolute {
        at: TimePoint,
        fired: bool,
    },
    Periodic {
        next: TimePoint,
        period: Duration,
    },
    Relative {
        // Kept for introspection/Debug; firing is driven by `pending`.
        #[allow(dead_code)]
        anchor: EventTypeId,
        #[allow(dead_code)]
        delay: Duration,
    },
}

#[derive(Debug)]
struct TemporalSpec {
    ty: EventTypeId,
    kind: Kind,
}

/// A registered milestone watch on a transaction.
#[derive(Debug, Clone)]
pub struct Milestone {
    pub txn: TxnId,
    pub event_type: EventTypeId,
    pub deadline: TimePoint,
    pub reached: bool,
    pub fired: bool,
}

/// Drives temporal event types and milestone deadlines.
pub struct TemporalManager {
    router: Arc<Router>,
    specs: Mutex<Vec<TemporalSpec>>,
    /// Relative events waiting for their delay to elapse.
    pending: Mutex<Vec<(EventTypeId, TimePoint)>>,
    milestones: Mutex<Vec<Milestone>>,
    /// Anchor type -> (relative type, delay), for quick lookup.
    anchors: Mutex<FastMap<EventTypeId, Vec<(EventTypeId, Duration)>>>,
}

impl TemporalManager {
    pub fn new(router: Arc<Router>) -> Arc<Self> {
        Arc::new(TemporalManager {
            router,
            specs: Mutex::new(Vec::new()),
            pending: Mutex::new(Vec::new()),
            milestones: Mutex::new(Vec::new()),
            anchors: Mutex::new(FastMap::default()),
        })
    }

    /// Register a temporal event type already created on the router.
    pub fn track(&self, ty: EventTypeId, spec: &PrimitiveEvent) {
        let kind = match spec {
            PrimitiveEvent::TemporalAbsolute { at } => Kind::Absolute {
                at: *at,
                fired: false,
            },
            PrimitiveEvent::TemporalPeriodic { first, period } => Kind::Periodic {
                next: *first,
                period: *period,
            },
            PrimitiveEvent::TemporalRelative { anchor, delay } => {
                self.anchors
                    .lock()
                    .entry(*anchor)
                    .or_default()
                    .push((ty, *delay));
                Kind::Relative {
                    anchor: *anchor,
                    delay: *delay,
                }
            }
            _ => return,
        };
        self.specs.lock().push(TemporalSpec { ty, kind });
    }

    /// An occurrence was delivered; schedule any relative events
    /// anchored to its type.
    pub fn observe(&self, occ: &EventOccurrence) {
        let anchors = self.anchors.lock();
        if let Some(relatives) = anchors.get(&occ.event_type) {
            let mut pending = self.pending.lock();
            for (ty, delay) in relatives {
                pending.push((*ty, occ.at.plus(*delay)));
            }
        }
    }

    /// Set a milestone: unless [`TemporalManager::reach_milestone`] is
    /// called before `deadline`, the milestone's event type fires (the
    /// contingency rules attached to it run detached, per Table 1).
    pub fn set_milestone(&self, txn: TxnId, event_type: EventTypeId, deadline: TimePoint) {
        self.milestones.lock().push(Milestone {
            txn,
            event_type,
            deadline,
            reached: false,
            fired: false,
        });
    }

    /// The transaction reached its milestone in time.
    pub fn reach_milestone(&self, txn: TxnId, event_type: EventTypeId) {
        let mut ms = self.milestones.lock();
        for m in ms.iter_mut() {
            if m.txn == txn && m.event_type == event_type {
                m.reached = true;
            }
        }
    }

    /// Drop milestone watches of a finished transaction. If it finished
    /// *after* an unreached deadline the event has already fired; if it
    /// finished in time the watch simply ends.
    pub fn txn_finished(&self, txn: TxnId) {
        self.milestones.lock().retain(|m| m.txn != txn);
    }

    /// Fire everything due at `now`. Returns the number of temporal
    /// occurrences raised.
    pub fn tick(&self, now: TimePoint) -> usize {
        let mut due: Vec<EventTypeId> = Vec::new();
        {
            let mut specs = self.specs.lock();
            for spec in specs.iter_mut() {
                match &mut spec.kind {
                    Kind::Absolute { at, fired } => {
                        if !*fired && *at <= now {
                            *fired = true;
                            due.push(spec.ty);
                        }
                    }
                    Kind::Periodic { next, period } => {
                        while *next <= now {
                            due.push(spec.ty);
                            *next = next.plus(*period);
                        }
                    }
                    Kind::Relative { .. } => {} // driven by `pending`
                }
            }
        }
        {
            let mut pending = self.pending.lock();
            pending.retain(|(ty, fire_at)| {
                if *fire_at <= now {
                    due.push(*ty);
                    false
                } else {
                    true
                }
            });
        }
        {
            let mut ms = self.milestones.lock();
            for m in ms.iter_mut() {
                if !m.reached && !m.fired && m.deadline <= now {
                    m.fired = true;
                    due.push(m.event_type);
                }
            }
        }
        let n = due.len();
        for ty in due {
            self.router.raise_temporal(ty, now);
        }
        n
    }

    /// Number of pending relative firings (introspection).
    pub fn pending_count(&self) -> usize {
        self.pending.lock().len()
    }

    /// Active milestone watches (introspection).
    pub fn milestone_count(&self) -> usize {
        self.milestones.lock().len()
    }
}

impl std::fmt::Debug for TemporalManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TemporalManager")
            .field("specs", &self.specs.lock().len())
            .field("pending", &self.pending_count())
            .field("milestones", &self.milestone_count())
            .finish()
    }
}
