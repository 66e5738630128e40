//! The event model: event types (specifications) and occurrences.
//!
//! §3.1: "Primitive events can be either method-invocation events,
//! state-change events, flow-control events (such as transaction-related
//! events), and absolute temporal events. Explicit user signals can be
//! modelled as method-invocation events." REACH's first prototype
//! supports method events, DB-internal events (commit, persist), time
//! events and composite events — all of which exist here, plus the
//! state-change events it deferred to future work (our object space can
//! trap them; the commercial systems of §4 could not).

use crate::algebra::{CompositionScope, Correlation, EventExpr, Lifespan};
use crate::consumption::ConsumptionPolicy;
use crate::coupling::EventCategory;
use reach_common::{ClassId, EventTypeId, MethodId, ObjectId, TimePoint, Timestamp, TxnId};
use reach_object::{Args, Value};
use std::sync::Arc;
use std::time::Duration;

/// Which side of a method invocation an event observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodPhase {
    Before,
    After,
}

/// Transaction flow-control points (§3.2's BOT, EOT, Commit, Abort).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowPoint {
    Begin,
    /// End of the transaction's own work, before commit (EOT).
    PreCommit,
    Commit,
    Abort,
}

/// A primitive event specification.
#[derive(Debug, Clone, PartialEq)]
pub enum PrimitiveEvent {
    /// `before`/`after` an invocation of `method` on instances of
    /// `class` (or its subclasses).
    Method {
        class: ClassId,
        method: MethodId,
        phase: MethodPhase,
    },
    /// A write to `class.attribute`.
    StateChange { class: ClassId, attribute: String },
    /// Constructor/destructor of a class instance.
    Lifecycle { class: ClassId, deletion: bool },
    /// An object of `class` was made persistent — the `persist`
    /// DB-internal event of §3.1.
    Persist { class: ClassId },
    /// A transaction flow-control point.
    Flow { point: FlowPoint },
    /// An absolute point in (virtual) time.
    TemporalAbsolute { at: TimePoint },
    /// Every `period`, starting at `first`.
    TemporalPeriodic { first: TimePoint, period: Duration },
    /// `delay` after each occurrence of another event type.
    TemporalRelative {
        anchor: EventTypeId,
        delay: Duration,
    },
    /// An explicit application signal, by name.
    UserSignal { name: String },
}

impl PrimitiveEvent {
    /// Whether the event occurs independently of any transaction.
    pub fn is_temporal(&self) -> bool {
        matches!(
            self,
            PrimitiveEvent::TemporalAbsolute { .. }
                | PrimitiveEvent::TemporalPeriodic { .. }
                | PrimitiveEvent::TemporalRelative { .. }
        )
    }
}

/// A composite event specification.
#[derive(Debug, Clone)]
pub struct CompositeSpec {
    pub expr: EventExpr,
    pub scope: CompositionScope,
    pub lifespan: Lifespan,
    pub consumption: ConsumptionPolicy,
    pub correlation: Correlation,
}

/// Any registered event type.
#[derive(Debug, Clone)]
pub enum EventSpec {
    Primitive(PrimitiveEvent),
    Composite(CompositeSpec),
}

impl EventSpec {
    /// The Table 1 column this event type belongs to.
    pub fn category(&self) -> EventCategory {
        match self {
            EventSpec::Primitive(p) if p.is_temporal() => EventCategory::PurelyTemporal,
            EventSpec::Primitive(_) => EventCategory::SingleMethod,
            EventSpec::Composite(c) => match c.scope {
                CompositionScope::SameTransaction => EventCategory::CompositeSingleTx,
                CompositionScope::CrossTransaction => EventCategory::CompositeMultiTx,
            },
        }
    }
}

/// The parameters carried by an event occurrence — "OID of the object to
/// be acted upon, transaction-id, timestamp, and other attributes that
/// can be taken from the method invocation message" (§6.3).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventData {
    /// Receiver of a method event / subject of a state or lifecycle event.
    pub receiver: Option<ObjectId>,
    /// Method arguments (method events) or signal payload — shared
    /// with the originating `MethodCall`, so copying an occurrence (or
    /// raising one per registered event type) bumps a refcount instead
    /// of cloning values.
    pub args: Args,
    /// Attribute name (state-change events).
    pub attribute: Option<String>,
    /// Old value (state-change events).
    pub old: Option<Value>,
    /// New value (state-change events).
    pub new: Option<Value>,
    /// Signal name (user signals).
    pub signal: Option<String>,
}

impl EventData {
    pub fn for_receiver(receiver: ObjectId) -> Self {
        EventData {
            receiver: Some(receiver),
            ..Default::default()
        }
    }
}

/// One event occurrence — the "event object" a primitive ECA-manager
/// creates in Figure 2.
#[derive(Debug, Clone)]
pub struct EventOccurrence {
    /// Which registered event type occurred.
    pub event_type: EventTypeId,
    /// Global detection sequence number (total order of detections).
    pub seq: Timestamp,
    /// Clock time of detection.
    pub at: TimePoint,
    /// The transaction the occurrence belongs to (`None` for temporal
    /// events, which "occur independently of transactions").
    pub txn: Option<TxnId>,
    /// The *top-level* transaction of `txn`, used for composition
    /// relative to transaction boundaries (§3.2).
    pub top_txn: Option<TxnId>,
    /// Parameters captured at the detection point.
    pub data: EventData,
    /// For composite occurrences: the constituent occurrences, in
    /// completion order.
    pub constituents: Vec<Arc<EventOccurrence>>,
}

impl EventOccurrence {
    /// All *distinct* top-level transactions that contributed primitives
    /// to this occurrence (itself included). Detached causally dependent
    /// rules depend on every one of them (Table 1's "all commit" /
    /// "all abort").
    pub fn origin_txns(&self) -> Vec<TxnId> {
        let mut out = Vec::new();
        fn walk(e: &EventOccurrence, out: &mut Vec<TxnId>) {
            if let Some(t) = e.top_txn {
                if !out.contains(&t) {
                    out.push(t);
                }
            }
            for c in &e.constituents {
                walk(c, out);
            }
        }
        walk(self, &mut out);
        out
    }

    /// The parameters of the first primitive constituent (or this
    /// occurrence itself if primitive) — convenient binding source for
    /// rule conditions over composite events.
    pub fn first_primitive(&self) -> &EventOccurrence {
        let mut cur = self;
        while let Some(first) = cur.constituents.first() {
            cur = first;
        }
        cur
    }
}

/// Handle into an [`OccSlab`] — a slot index plus the slot's tag at
/// allocation time. Copying a handle is two `u32` moves; no refcount
/// traffic. A handle outliving its slot (tag mismatch after the slot
/// was freed and reused) resolves to `None` instead of aliasing the
/// new tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OccHandle {
    slot: u32,
    tag: u32,
}

struct OccSlot {
    /// Bumped every time the slot is freed, invalidating old handles.
    tag: u32,
    occ: Option<Arc<EventOccurrence>>,
}

/// Generation-indexed slab of event occurrences backing the compositors'
/// constituent storage (§6.3's hot path).
///
/// Semi-composed automaton instances used to hold `Arc<EventOccurrence>`
/// clones directly, and gathering constituents re-cloned every `Arc` at
/// each tree level. With the slab, instances hold [`OccHandle`]s (plain
/// indices), and the occurrences themselves live in slots grouped into
/// *generations* — one generation per composition window (automaton
/// instance). When the window closes (the instance fires, its life-span
/// elapses, its transaction ends, or pressure GC discards it), the
/// whole generation is freed in one sweep and its slots recycle through
/// a free list; steady-state composition allocates no slot storage at
/// all once the slab has reached its working-set size.
///
/// Handles never escape the compositor: completions are resolved back
/// to `Arc<EventOccurrence>` *before* the generation is freed, so the
/// engine-facing API is unchanged and no occurrence can dangle.
pub struct OccSlab {
    slots: Vec<OccSlot>,
    free: Vec<u32>,
    /// Open generation → handles allocated under it.
    gens: reach_common::FastMap<u64, Vec<OccHandle>>,
    next_gen: u64,
    live: usize,
    high_water: usize,
}

impl Default for OccSlab {
    fn default() -> Self {
        Self::new()
    }
}

impl OccSlab {
    pub fn new() -> Self {
        OccSlab {
            slots: Vec::new(),
            free: Vec::new(),
            gens: reach_common::FastMap::default(),
            next_gen: 0,
            live: 0,
            high_water: 0,
        }
    }

    /// Open a new generation (one per composition window).
    pub fn open_gen(&mut self) -> u64 {
        let g = self.next_gen;
        self.next_gen += 1;
        self.gens.insert(g, Vec::new());
        g
    }

    /// Store an occurrence under `gen`, returning its handle.
    pub fn alloc(&mut self, gen: u64, occ: Arc<EventOccurrence>) -> OccHandle {
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize].occ = Some(occ);
                i
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(OccSlot {
                    tag: 0,
                    occ: Some(occ),
                });
                i
            }
        };
        let h = OccHandle {
            slot,
            tag: self.slots[slot as usize].tag,
        };
        self.gens.entry(gen).or_default().push(h);
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        h
    }

    /// Resolve a handle. `None` iff the handle's slot was freed since.
    pub fn get(&self, h: OccHandle) -> Option<&Arc<EventOccurrence>> {
        let slot = self.slots.get(h.slot as usize)?;
        if slot.tag != h.tag {
            return None;
        }
        slot.occ.as_ref()
    }

    /// Free one slot early (a superseded `recent`-context constituent).
    /// The handle stays in its generation's list; the tag check makes
    /// the later generation sweep skip it.
    pub fn free_one(&mut self, h: OccHandle) {
        if let Some(slot) = self.slots.get_mut(h.slot as usize) {
            if slot.tag == h.tag && slot.occ.is_some() {
                slot.occ = None;
                slot.tag = slot.tag.wrapping_add(1);
                self.free.push(h.slot);
                self.live -= 1;
            }
        }
    }

    /// Close a generation: free every slot allocated under it.
    pub fn free_gen(&mut self, gen: u64) {
        let Some(handles) = self.gens.remove(&gen) else {
            return;
        };
        for h in handles {
            self.free_one(h);
        }
    }

    /// Occupied slots right now.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Most slots ever occupied at once (working-set size).
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coupling::EventCategory;

    fn occ(ty: u64, top: Option<u64>, constituents: Vec<Arc<EventOccurrence>>) -> EventOccurrence {
        EventOccurrence {
            event_type: EventTypeId::new(ty),
            seq: Timestamp::new(ty),
            at: TimePoint::ZERO,
            txn: top.map(TxnId::new),
            top_txn: top.map(TxnId::new),
            data: EventData::default(),
            constituents,
        }
    }

    #[test]
    fn categories_follow_the_spec() {
        let method = EventSpec::Primitive(PrimitiveEvent::Method {
            class: ClassId::new(1),
            method: MethodId::new(1),
            phase: MethodPhase::After,
        });
        assert_eq!(method.category(), EventCategory::SingleMethod);
        let state = EventSpec::Primitive(PrimitiveEvent::StateChange {
            class: ClassId::new(1),
            attribute: "x".into(),
        });
        assert_eq!(state.category(), EventCategory::SingleMethod);
        let temporal = EventSpec::Primitive(PrimitiveEvent::TemporalAbsolute {
            at: TimePoint::from_secs(1),
        });
        assert_eq!(temporal.category(), EventCategory::PurelyTemporal);
        let composite1 = EventSpec::Composite(CompositeSpec {
            expr: EventExpr::Primitive(EventTypeId::new(1)),
            scope: CompositionScope::SameTransaction,
            lifespan: Lifespan::Transaction,
            consumption: ConsumptionPolicy::Chronicle,
            correlation: Default::default(),
        });
        assert_eq!(composite1.category(), EventCategory::CompositeSingleTx);
        let composite_n = EventSpec::Composite(CompositeSpec {
            expr: EventExpr::Primitive(EventTypeId::new(1)),
            scope: CompositionScope::CrossTransaction,
            lifespan: Lifespan::Interval(Duration::from_secs(60)),
            consumption: ConsumptionPolicy::Chronicle,
            correlation: Default::default(),
        });
        assert_eq!(composite_n.category(), EventCategory::CompositeMultiTx);
    }

    #[test]
    fn origin_txns_walks_constituents_distinct() {
        let a = Arc::new(occ(1, Some(10), vec![]));
        let b = Arc::new(occ(2, Some(20), vec![]));
        let c = Arc::new(occ(3, Some(10), vec![]));
        let composite = occ(9, None, vec![a, b, c]);
        assert_eq!(
            composite.origin_txns(),
            vec![TxnId::new(10), TxnId::new(20)]
        );
    }

    #[test]
    fn first_primitive_descends() {
        let leaf = Arc::new(occ(1, Some(1), vec![]));
        let mid = Arc::new(occ(2, None, vec![Arc::clone(&leaf)]));
        let root = occ(3, None, vec![mid]);
        assert_eq!(root.first_primitive().event_type, EventTypeId::new(1));
    }

    #[test]
    fn slab_recycles_slots_per_generation() {
        let mut slab = OccSlab::new();
        let g1 = slab.open_gen();
        let h1 = slab.alloc(g1, Arc::new(occ(1, Some(1), vec![])));
        let h2 = slab.alloc(g1, Arc::new(occ(2, Some(1), vec![])));
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.get(h1).unwrap().event_type, EventTypeId::new(1));
        slab.free_gen(g1);
        assert_eq!(slab.live(), 0);
        // Stale handles miss: the tag was bumped on free.
        assert!(slab.get(h1).is_none());
        assert!(slab.get(h2).is_none());
        // A later generation reuses the slots without growing the slab.
        let g2 = slab.open_gen();
        let h3 = slab.alloc(g2, Arc::new(occ(3, Some(2), vec![])));
        let _h4 = slab.alloc(g2, Arc::new(occ(4, Some(2), vec![])));
        assert_eq!(slab.high_water(), 2, "slots recycled, no growth");
        assert_eq!(slab.get(h3).unwrap().event_type, EventTypeId::new(3));
    }

    #[test]
    fn slab_free_one_is_idempotent_under_gen_sweep() {
        let mut slab = OccSlab::new();
        let g = slab.open_gen();
        let h = slab.alloc(g, Arc::new(occ(1, Some(1), vec![])));
        slab.free_one(h); // recent-context supersede
        assert_eq!(slab.live(), 0);
        let h2 = slab.alloc(g, Arc::new(occ(2, Some(1), vec![])));
        assert_eq!(h2.slot, h.slot, "slot recycled within the generation");
        slab.free_gen(g); // must not double-free h / free h2 twice
        assert_eq!(slab.live(), 0);
        assert!(slab.get(h2).is_none());
    }
}
