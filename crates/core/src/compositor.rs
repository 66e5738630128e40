//! The "many small compositors" (§6.3).
//!
//! "The clue for an efficient event management is to keep event
//! composition simple and to execute it in parallel. We believe that
//! large, monolithic event managers that are based on a single graph
//! should be avoided. Instead, many small compositors that can be
//! executed by parallel threads should be supported."
//!
//! A [`Compositor`] serves exactly one composite event type. It holds a
//! set of [`Automaton`] instances — one in-flight composition attempt
//! each — keyed by *scope*: per originating top-level transaction for
//! same-transaction composites, one shared pool for cross-transaction
//! ones. Instance management implements the consumption policies of
//! §3.4; instance teardown implements the life-spans of §3.3 ("when the
//! life-span of a semi-composed event elapses, the whole composition
//! graph instance for that event occurrence is simply removed").

use crate::algebra::{CompositionScope, Correlation, EventExpr, Lifespan};
use crate::consumption::ConsumptionPolicy;
use crate::event::{EventOccurrence, OccHandle, OccSlab};
use reach_common::sync::Mutex;
use reach_common::{FastMap, MetricsRegistry, TimePoint, TxnId};
use std::sync::Arc;

/// Result of feeding one occurrence to an automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// The occurrence did not fit this instance.
    Ignored,
    /// The occurrence was absorbed; composition continues.
    Progress,
    /// The composition completed (non-window path).
    Complete,
}

/// One composition-graph instance. Absorbed occurrences live in the
/// owning compositor's [`OccSlab`]; the instance holds only handles,
/// all allocated under the instance's slab *generation* — freed in one
/// sweep by [`Automaton::retire`] when the composition window closes.
#[derive(Debug)]
pub struct Automaton {
    root: Node,
    policy: ConsumptionPolicy,
    /// Slab generation this instance allocates under (`u64::MAX` for
    /// standalone instances built outside a compositor).
    gen: u64,
    /// Clock time of the first absorbed occurrence (anchors interval
    /// lifespans).
    pub started_at: Option<TimePoint>,
}

#[derive(Debug)]
enum Node {
    Prim {
        ty: reach_common::EventTypeId,
        matched: Vec<OccHandle>,
    },
    Seq {
        parts: Vec<Node>,
        pos: usize,
    },
    Conj {
        parts: Vec<Node>,
    },
    Disj {
        parts: Vec<Node>,
        winner: Option<usize>,
    },
    Neg {
        inner: Box<Node>,
        violated: bool,
    },
    Closure {
        /// Shared handle to the immutable sub-expression — rebuilt from
        /// on every sub-completion, never deep-cloned.
        template: Arc<EventExpr>,
        current: Box<Node>,
        completions: Vec<Vec<OccHandle>>,
    },
    History {
        /// Shared handle, as in [`Node::Closure`].
        template: Arc<EventExpr>,
        current: Box<Node>,
        completions: Vec<Vec<OccHandle>>,
        target: u32,
    },
}

fn build(expr: &EventExpr) -> Node {
    match expr {
        EventExpr::Primitive(id) => Node::Prim {
            ty: *id,
            matched: Vec::new(),
        },
        EventExpr::Sequence(parts) => Node::Seq {
            parts: parts.iter().map(build).collect(),
            pos: 0,
        },
        EventExpr::Conjunction(parts) => Node::Conj {
            parts: parts.iter().map(build).collect(),
        },
        EventExpr::Disjunction(parts) => Node::Disj {
            parts: parts.iter().map(build).collect(),
            winner: None,
        },
        EventExpr::Negation(inner) => Node::Neg {
            inner: Box::new(build(inner)),
            violated: false,
        },
        EventExpr::Closure(inner) => Node::Closure {
            template: Arc::clone(inner),
            current: Box::new(build(inner)),
            completions: Vec::new(),
        },
        EventExpr::History { expr, count } => Node::History {
            template: Arc::clone(expr),
            current: Box::new(build(expr)),
            completions: Vec::new(),
            target: *count,
        },
    }
}

impl Node {
    fn feed(
        &mut self,
        occ: &Arc<EventOccurrence>,
        policy: ConsumptionPolicy,
        slab: &mut OccSlab,
        gen: u64,
    ) -> Feed {
        match self {
            Node::Prim { ty, matched } => {
                if occ.event_type != *ty {
                    return Feed::Ignored;
                }
                match policy {
                    ConsumptionPolicy::Recent => {
                        // Most recent occurrence supersedes; the
                        // superseded slot recycles immediately.
                        for h in matched.drain(..) {
                            slab.free_one(h);
                        }
                        matched.push(slab.alloc(gen, Arc::clone(occ)));
                        Feed::Complete
                    }
                    ConsumptionPolicy::Cumulative => {
                        matched.push(slab.alloc(gen, Arc::clone(occ)));
                        Feed::Complete
                    }
                    // Chronicle / continuous: one occurrence per slot.
                    _ => {
                        if matched.is_empty() {
                            matched.push(slab.alloc(gen, Arc::clone(occ)));
                            Feed::Complete
                        } else {
                            Feed::Ignored
                        }
                    }
                }
            }
            Node::Seq { parts, pos } => {
                // Recent / cumulative may revisit completed prefix parts
                // (a fresher e1 supersedes; a further e1 accumulates).
                if matches!(
                    policy,
                    ConsumptionPolicy::Recent | ConsumptionPolicy::Cumulative
                ) {
                    let upto = (*pos).min(parts.len().saturating_sub(1));
                    for part in parts.iter_mut().take(upto) {
                        if part.feed(occ, policy, slab, gen) != Feed::Ignored {
                            return Feed::Progress;
                        }
                    }
                }
                if *pos >= parts.len() {
                    return Feed::Ignored;
                }
                match parts[*pos].feed(occ, policy, slab, gen) {
                    Feed::Ignored => Feed::Ignored,
                    Feed::Progress => Feed::Progress,
                    Feed::Complete => {
                        if parts[*pos].complete() {
                            *pos += 1;
                        }
                        if *pos == parts.len() {
                            Feed::Complete
                        } else {
                            Feed::Progress
                        }
                    }
                }
            }
            Node::Conj { parts } => {
                let mut any = false;
                for part in parts.iter_mut() {
                    if part.feed(occ, policy, slab, gen) != Feed::Ignored {
                        any = true;
                        // Recent/cumulative keep feeding so every
                        // matching slot sees the occurrence; chronicle
                        // consumes it in the first accepting slot.
                        if !matches!(
                            policy,
                            ConsumptionPolicy::Recent | ConsumptionPolicy::Cumulative
                        ) {
                            break;
                        }
                    }
                }
                if !any {
                    Feed::Ignored
                } else if self.complete() {
                    Feed::Complete
                } else {
                    Feed::Progress
                }
            }
            Node::Disj { parts, winner } => {
                let mut any = false;
                for (i, part) in parts.iter_mut().enumerate() {
                    if part.feed(occ, policy, slab, gen) != Feed::Ignored {
                        any = true;
                        if part.complete() && winner.is_none() {
                            *winner = Some(i);
                        }
                    }
                }
                if !any {
                    Feed::Ignored
                } else if winner.is_some() {
                    Feed::Complete
                } else {
                    Feed::Progress
                }
            }
            Node::Neg { inner, violated } => {
                match inner.feed(occ, policy, slab, gen) {
                    Feed::Ignored => Feed::Ignored,
                    Feed::Progress => Feed::Progress,
                    Feed::Complete => {
                        if inner.complete() {
                            *violated = true;
                        }
                        // Absorbing the forbidden event is progress of
                        // the (doomed) window, never completion.
                        Feed::Progress
                    }
                }
            }
            Node::Closure {
                template,
                current,
                completions,
            } => match current.feed(occ, policy, slab, gen) {
                Feed::Ignored => Feed::Ignored,
                Feed::Progress => Feed::Progress,
                Feed::Complete => {
                    if current.complete() {
                        completions.push(current.collect());
                        **current = build(template);
                    }
                    Feed::Progress // fires only at window close
                }
            },
            Node::History {
                template,
                current,
                completions,
                target,
            } => match current.feed(occ, policy, slab, gen) {
                Feed::Ignored => Feed::Ignored,
                Feed::Progress => Feed::Progress,
                Feed::Complete => {
                    if current.complete() {
                        completions.push(current.collect());
                        **current = build(template);
                    }
                    if completions.len() as u32 >= *target {
                        Feed::Complete
                    } else {
                        Feed::Progress
                    }
                }
            },
        }
    }

    /// Completion on the immediate (feed) path.
    fn complete(&self) -> bool {
        match self {
            Node::Prim { matched, .. } => !matched.is_empty(),
            Node::Seq { parts, pos } => *pos == parts.len(),
            Node::Conj { parts } => parts.iter().all(|p| p.complete()),
            Node::Disj { winner, .. } => winner.is_some(),
            Node::Neg { .. } => false,
            Node::Closure { .. } => false,
            Node::History {
                completions,
                target,
                ..
            } => completions.len() as u32 >= *target,
        }
    }

    /// Completion at window close (negation satisfied by absence,
    /// closure by presence).
    fn complete_at_close(&self) -> bool {
        match self {
            Node::Neg { violated, .. } => !violated,
            Node::Closure { completions, .. } => !completions.is_empty(),
            Node::Prim { matched, .. } => !matched.is_empty(),
            Node::Seq { parts, pos } => {
                // Remaining parts must all be satisfiable-by-absence.
                parts[..*pos]
                    .iter()
                    .all(|p| p.complete() || p.complete_at_close())
                    && parts[*pos..].iter().all(|p| p.complete_at_close())
            }
            Node::Conj { parts } => parts.iter().all(|p| p.complete() || p.complete_at_close()),
            Node::Disj { parts, winner } => {
                winner.is_some() || parts.iter().any(|p| p.complete_at_close())
            }
            Node::History {
                completions,
                target,
                ..
            } => completions.len() as u32 >= *target,
        }
    }

    /// Gather constituent handles in completion order — plain index
    /// copies, no refcount traffic at any tree level.
    fn collect(&self) -> Vec<OccHandle> {
        match self {
            Node::Prim { matched, .. } => matched.clone(),
            Node::Seq { parts, .. } | Node::Conj { parts } => {
                parts.iter().flat_map(|p| p.collect()).collect()
            }
            Node::Disj { parts, winner } => match winner {
                Some(i) => parts[*i].collect(),
                None => parts
                    .iter()
                    .find(|p| p.complete_at_close())
                    .map(|p| p.collect())
                    .unwrap_or_default(),
            },
            Node::Neg { .. } => Vec::new(),
            Node::Closure { completions, .. } | Node::History { completions, .. } => {
                completions.iter().flatten().copied().collect()
            }
        }
    }
}

impl Automaton {
    /// A standalone instance (no slab generation bound) — only useful
    /// for inspecting the built node tree; feeding it still works but
    /// its slots are reclaimed only by an explicit [`Automaton::retire`].
    pub fn new(expr: &EventExpr, policy: ConsumptionPolicy) -> Self {
        Automaton {
            root: build(expr),
            policy,
            gen: u64::MAX,
            started_at: None,
        }
    }

    /// An instance bound to a fresh generation of `slab` — how the
    /// compositor creates every pooled instance.
    pub fn new_in(expr: &EventExpr, policy: ConsumptionPolicy, slab: &mut OccSlab) -> Self {
        let mut a = Self::new(expr, policy);
        a.gen = slab.open_gen();
        a
    }

    /// Feed one occurrence; absorbed occurrences are stored in `slab`
    /// under this instance's generation.
    pub fn feed(&mut self, occ: &Arc<EventOccurrence>, slab: &mut OccSlab) -> Feed {
        let r = self.root.feed(occ, self.policy, slab, self.gen);
        if r != Feed::Ignored && self.started_at.is_none() {
            self.started_at = Some(occ.at);
        }
        if r == Feed::Complete && !self.root.complete() {
            // A sub-node signalled completion that the tree absorbs
            // (e.g. a completed part of a longer sequence).
            return Feed::Progress;
        }
        r
    }

    /// Whether the instance is complete on the feed path.
    pub fn complete(&self) -> bool {
        self.root.complete()
    }

    /// Whether the instance fires when its window closes.
    pub fn complete_at_close(&self) -> bool {
        self.root.complete_at_close()
    }

    /// Resolve the constituents in completion order. Must be called
    /// *before* [`Automaton::retire`] — this is the one place handles
    /// are turned back into `Arc`s, so completions escape the slab by
    /// value and can never dangle.
    pub fn constituents(&self, slab: &OccSlab) -> Vec<Arc<EventOccurrence>> {
        self.root
            .collect()
            .into_iter()
            .filter_map(|h| slab.get(h).cloned())
            .collect()
    }

    /// Close this instance's composition window: free its whole slab
    /// generation in one sweep (§3.3 — "the whole composition graph
    /// instance ... is simply removed"). Consumes the instance so no
    /// handle can be resolved afterwards.
    pub fn retire(self, slab: &mut OccSlab) {
        slab.free_gen(self.gen);
    }
}

/// Key partitioning automaton instances (§3.3 life-spans, plus the
/// receiver dimension when constituents are correlated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScopeKey {
    /// Same-transaction composite: one instance pool per top-level txn.
    Txn(TxnId),
    /// Cross-transaction composite: one global pool.
    Global,
    /// Same-transaction + same-receiver.
    TxnReceiver(TxnId, reach_common::ObjectId),
    /// Cross-transaction + same-receiver.
    Receiver(reach_common::ObjectId),
}

/// Upper bound on in-flight instances per scope pool. Chronicle and
/// continuous contexts open a new instance per unconsumed initiator; a
/// stream of initiators that never complete would otherwise grow the
/// pool (and the per-event scan) without bound. When the cap is hit the
/// *oldest* semi-composed instance is discarded — the same policy §3.3
/// applies when a life-span elapses, triggered by pressure instead of
/// time.
pub const MAX_POOL: usize = 4096;

/// A completed composition ready to become a composite occurrence.
#[derive(Debug)]
pub struct Completion {
    pub constituents: Vec<Arc<EventOccurrence>>,
    /// True if completed by window close rather than by a feed.
    pub at_window_close: bool,
}

/// Instance pools plus the occurrence slab they allocate from — one
/// mutex so a feed touches a single lock.
struct CompState {
    instances: FastMap<ScopeKey, Vec<Automaton>>,
    slab: OccSlab,
}

/// The compositor for one composite event type.
pub struct Compositor {
    expr: EventExpr,
    scope: CompositionScope,
    lifespan: Lifespan,
    policy: ConsumptionPolicy,
    correlation: Correlation,
    has_window_ops: bool,
    state: Mutex<CompState>,
    /// Shared observability registry; instance accounting (§3.3 GC
    /// visibility) is recorded here when observability is enabled.
    metrics: Arc<MetricsRegistry>,
}

impl Compositor {
    pub fn new(
        expr: EventExpr,
        scope: CompositionScope,
        lifespan: Lifespan,
        policy: ConsumptionPolicy,
    ) -> Self {
        Self::with_correlation(expr, scope, lifespan, policy, Correlation::None)
    }

    /// A compositor whose instances are additionally keyed by the
    /// constituents' receiver object.
    pub fn with_correlation(
        expr: EventExpr,
        scope: CompositionScope,
        lifespan: Lifespan,
        policy: ConsumptionPolicy,
        correlation: Correlation,
    ) -> Self {
        let has_window_ops = expr.has_window_operator();
        Compositor {
            expr,
            scope,
            lifespan,
            policy,
            correlation,
            has_window_ops,
            state: Mutex::new(CompState {
                instances: FastMap::default(),
                slab: OccSlab::new(),
            }),
            metrics: MetricsRegistry::new_shared(),
        }
    }

    /// Attach the stack-wide registry (replacing the private default).
    /// Called by the ECA-manager while it still owns the compositor.
    pub fn set_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        self.metrics = metrics;
    }

    pub fn scope(&self) -> CompositionScope {
        self.scope
    }

    pub fn lifespan(&self) -> Lifespan {
        self.lifespan
    }

    fn scope_key(&self, occ: &EventOccurrence) -> Option<ScopeKey> {
        match (self.scope, self.correlation) {
            (CompositionScope::SameTransaction, Correlation::None) => {
                occ.top_txn.map(ScopeKey::Txn)
            }
            (CompositionScope::CrossTransaction, Correlation::None) => Some(ScopeKey::Global),
            (CompositionScope::SameTransaction, Correlation::SameReceiver) => {
                let receiver = occ.first_primitive().data.receiver?;
                occ.top_txn.map(|t| ScopeKey::TxnReceiver(t, receiver))
            }
            (CompositionScope::CrossTransaction, Correlation::SameReceiver) => {
                Some(ScopeKey::Receiver(occ.first_primitive().data.receiver?))
            }
        }
    }

    /// Feed an occurrence; returns completions fired by this feed.
    pub fn feed(&self, occ: &Arc<EventOccurrence>) -> Vec<Completion> {
        let Some(key) = self.scope_key(occ) else {
            // A transaction-less (temporal) occurrence cannot join a
            // same-transaction composite.
            return Vec::new();
        };
        let obs = self.metrics.on();
        let mut state = self.state.lock();
        let CompState { instances, slab } = &mut *state;
        let pool = instances.entry(key).or_default();
        let mut fired = Vec::new();
        match self.policy {
            ConsumptionPolicy::Recent | ConsumptionPolicy::Cumulative => {
                if pool.is_empty() {
                    pool.push(Automaton::new_in(&self.expr, self.policy, slab));
                    if obs {
                        self.metrics.events.instances_created.inc();
                    }
                }
                if pool[0].feed(occ, slab) == Feed::Complete {
                    // Recent/cumulative pools hold exactly one instance.
                    let inst = pool.pop().expect("fed instance present");
                    fired.push(Completion {
                        constituents: inst.constituents(slab),
                        at_window_close: false,
                    });
                    inst.retire(slab);
                }
            }
            ConsumptionPolicy::Chronicle => {
                // Oldest instance that accepts the occurrence wins; if
                // none accepts, a fresh instance gets a chance.
                let mut accepted = false;
                let mut complete_idx = None;
                for (i, inst) in pool.iter_mut().enumerate() {
                    match inst.feed(occ, slab) {
                        Feed::Ignored => continue,
                        Feed::Progress => {
                            accepted = true;
                            break;
                        }
                        Feed::Complete => {
                            accepted = true;
                            complete_idx = Some(i);
                            break;
                        }
                    }
                }
                if let Some(i) = complete_idx {
                    let inst = pool.remove(i);
                    fired.push(Completion {
                        constituents: inst.constituents(slab),
                        at_window_close: false,
                    });
                    inst.retire(slab);
                }
                if !accepted {
                    let mut inst = Automaton::new_in(&self.expr, self.policy, slab);
                    match inst.feed(occ, slab) {
                        Feed::Progress => {
                            pool.push(inst);
                            if obs {
                                self.metrics.events.instances_created.inc();
                            }
                            if pool.len() > MAX_POOL {
                                // Discard oldest (§3.3 pressure GC).
                                pool.remove(0).retire(slab);
                                if obs {
                                    self.metrics.events.instances_discarded.inc();
                                    self.metrics.events.instances_pressure_gcd.inc();
                                }
                            }
                        }
                        Feed::Complete => {
                            fired.push(Completion {
                                constituents: inst.constituents(slab),
                                at_window_close: false,
                            });
                            inst.retire(slab);
                        }
                        Feed::Ignored => inst.retire(slab), // irrelevant occurrence
                    }
                }
            }
            ConsumptionPolicy::Continuous => {
                // Every occurrence reaches every open window, and may
                // open a window of its own.
                let mut survivors = Vec::with_capacity(pool.len() + 1);
                for mut inst in pool.drain(..) {
                    match inst.feed(occ, slab) {
                        Feed::Complete => {
                            fired.push(Completion {
                                constituents: inst.constituents(slab),
                                at_window_close: false,
                            });
                            inst.retire(slab);
                        }
                        _ => survivors.push(inst),
                    }
                }
                let mut fresh = Automaton::new_in(&self.expr, self.policy, slab);
                match fresh.feed(occ, slab) {
                    Feed::Progress => {
                        survivors.push(fresh);
                        if obs {
                            self.metrics.events.instances_created.inc();
                        }
                    }
                    Feed::Complete => {
                        fired.push(Completion {
                            constituents: fresh.constituents(slab),
                            at_window_close: false,
                        });
                        fresh.retire(slab);
                    }
                    Feed::Ignored => fresh.retire(slab),
                }
                if survivors.len() > MAX_POOL {
                    let excess = survivors.len() - MAX_POOL;
                    // Discard oldest windows.
                    for old in survivors.drain(..excess) {
                        old.retire(slab);
                    }
                    if obs {
                        self.metrics.events.instances_discarded.add(excess as u64);
                        self.metrics
                            .events
                            .instances_pressure_gcd
                            .add(excess as u64);
                    }
                }
                *pool = survivors;
            }
        }
        if pool.is_empty() {
            instances.remove(&key);
        }
        if obs {
            let live: usize = instances.values().map(|p| p.len()).sum();
            self.metrics.events.instances_peak.record_max(live as u64);
            self.metrics
                .events
                .occ_slab_peak
                .record_max(slab.high_water() as u64);
        }
        fired
    }

    /// A top-level transaction ended: close its window. Same-transaction
    /// instances are evaluated for window-close firing and then removed
    /// — "once the transaction is either committed or aborted, the event
    /// composition is discarded" (§3.3).
    pub fn close_txn(&self, txn: TxnId) -> Vec<Completion> {
        if self.scope != CompositionScope::SameTransaction {
            return Vec::new();
        }
        let mut fired = Vec::new();
        let mut discarded = 0u64;
        {
            let mut state = self.state.lock();
            let CompState { instances, slab } = &mut *state;
            let keys: Vec<ScopeKey> = instances
                .keys()
                .filter(|k| {
                    matches!(k, ScopeKey::Txn(t) if *t == txn)
                        || matches!(k, ScopeKey::TxnReceiver(t, _) if *t == txn)
                })
                .copied()
                .collect();
            for k in keys {
                let Some(pool) = instances.remove(&k) else {
                    continue;
                };
                for inst in pool {
                    discarded += 1;
                    if self.has_window_ops && inst.complete_at_close() {
                        fired.push(Completion {
                            constituents: inst.constituents(slab),
                            at_window_close: true,
                        });
                    }
                    // Window closed: free the whole generation.
                    inst.retire(slab);
                }
            }
        }
        if discarded > 0 && self.metrics.on() {
            self.metrics.events.instances_discarded.add(discarded);
        }
        fired
    }

    /// Sweep interval lifespans: instances whose validity window has
    /// elapsed fire (if a window operator is satisfied) or are discarded.
    pub fn expire(&self, now: TimePoint) -> Vec<Completion> {
        let Lifespan::Interval(window) = self.lifespan else {
            return Vec::new();
        };
        let mut fired = Vec::new();
        let mut expired = 0u64;
        let mut state = self.state.lock();
        let CompState { instances, slab } = &mut *state;
        for pool in instances.values_mut() {
            let mut i = 0;
            while i < pool.len() {
                let elapsed = match pool[i].started_at {
                    Some(started) => started.plus(window) <= now,
                    None => false,
                };
                if !elapsed {
                    i += 1;
                    continue;
                }
                let inst = pool.remove(i);
                if self.has_window_ops && inst.complete_at_close() {
                    fired.push(Completion {
                        constituents: inst.constituents(slab),
                        at_window_close: true,
                    });
                }
                inst.retire(slab);
                expired += 1;
            }
        }
        instances.retain(|_, pool| !pool.is_empty());
        if expired > 0 && self.metrics.on() {
            self.metrics.events.instances_discarded.add(expired);
        }
        fired
    }

    /// Number of live (semi-composed) instances — what §3.3's GC keeps
    /// bounded.
    pub fn live_instances(&self) -> usize {
        self.state.lock().instances.values().map(|p| p.len()).sum()
    }

    /// Occupied occurrence-slab slots (constituents of semi-composed
    /// instances awaiting their window close).
    pub fn slab_live(&self) -> usize {
        self.state.lock().slab.live()
    }
}

impl std::fmt::Debug for Compositor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compositor")
            .field("scope", &self.scope)
            .field("policy", &self.policy)
            .field("live", &self.live_instances())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventData;
    use reach_common::{EventTypeId, Timestamp};

    fn occ(ty: u64, seq: u64, txn: Option<u64>) -> Arc<EventOccurrence> {
        Arc::new(EventOccurrence {
            event_type: EventTypeId::new(ty),
            seq: Timestamp::new(seq),
            at: TimePoint::from_millis(seq),
            txn: txn.map(TxnId::new),
            top_txn: txn.map(TxnId::new),
            data: EventData::default(),
            constituents: Vec::new(),
        })
    }

    fn e(n: u64) -> EventExpr {
        EventExpr::Primitive(EventTypeId::new(n))
    }

    fn cross(expr: EventExpr, policy: ConsumptionPolicy) -> Compositor {
        Compositor::new(
            expr,
            CompositionScope::CrossTransaction,
            Lifespan::Interval(std::time::Duration::from_secs(3600)),
            policy,
        )
    }

    #[test]
    fn sequence_requires_order() {
        let c = cross(
            EventExpr::Sequence(vec![e(1), e(2)]),
            ConsumptionPolicy::Chronicle,
        );
        // e2 first: ignored entirely.
        assert!(c.feed(&occ(2, 1, Some(1))).is_empty());
        assert_eq!(c.live_instances(), 0);
        // e1 then e2: fires.
        assert!(c.feed(&occ(1, 2, Some(1))).is_empty());
        assert_eq!(c.live_instances(), 1);
        let fired = c.feed(&occ(2, 3, Some(1)));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].constituents.len(), 2);
        assert_eq!(c.live_instances(), 0);
    }

    #[test]
    fn conjunction_any_order() {
        let c = cross(
            EventExpr::Conjunction(vec![e(1), e(2)]),
            ConsumptionPolicy::Chronicle,
        );
        assert!(c.feed(&occ(2, 1, Some(1))).is_empty());
        let fired = c.feed(&occ(1, 2, Some(1)));
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn disjunction_fires_on_first() {
        let c = cross(
            EventExpr::Disjunction(vec![e(1), e(2)]),
            ConsumptionPolicy::Chronicle,
        );
        let fired = c.feed(&occ(2, 1, Some(1)));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].constituents[0].event_type, EventTypeId::new(2));
    }

    #[test]
    fn history_counts_occurrences() {
        let c = cross(
            EventExpr::History {
                expr: Arc::new(e(1)),
                count: 3,
            },
            ConsumptionPolicy::Chronicle,
        );
        assert!(c.feed(&occ(1, 1, Some(1))).is_empty());
        assert!(c.feed(&occ(1, 2, Some(1))).is_empty());
        let fired = c.feed(&occ(1, 3, Some(1)));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].constituents.len(), 3);
    }

    #[test]
    fn snoop_contexts_on_the_papers_example() {
        // E3 = (E1 ; E2), arrivals e1, e1', e2 — §3.4's running example.
        let arrivals = [occ(1, 1, Some(1)), occ(1, 2, Some(1)), occ(2, 3, Some(1))];
        let run = |policy: ConsumptionPolicy| -> Vec<Vec<u64>> {
            let c = cross(EventExpr::Sequence(vec![e(1), e(2)]), policy);
            let mut all = Vec::new();
            for a in &arrivals {
                for f in c.feed(a) {
                    all.push(f.constituents.iter().map(|o| o.seq.raw()).collect());
                }
            }
            all
        };
        // recent: uses the most recent e1 (seq 2).
        assert_eq!(run(ConsumptionPolicy::Recent), vec![vec![2, 3]]);
        // chronicle: uses the chronologically first e1 (seq 1).
        assert_eq!(run(ConsumptionPolicy::Chronicle), vec![vec![1, 3]]);
        // continuous: both open windows complete on e2.
        assert_eq!(
            run(ConsumptionPolicy::Continuous),
            vec![vec![1, 3], vec![2, 3]]
        );
        // cumulative: all occurrences folded in.
        assert_eq!(run(ConsumptionPolicy::Cumulative), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn chronicle_pairs_fifo_across_completions() {
        let c = cross(
            EventExpr::Sequence(vec![e(1), e(2)]),
            ConsumptionPolicy::Chronicle,
        );
        c.feed(&occ(1, 1, Some(1)));
        c.feed(&occ(1, 2, Some(1)));
        assert_eq!(c.live_instances(), 2);
        let f1 = c.feed(&occ(2, 3, Some(1)));
        assert_eq!(f1[0].constituents[0].seq.raw(), 1);
        let f2 = c.feed(&occ(2, 4, Some(1)));
        assert_eq!(f2[0].constituents[0].seq.raw(), 2);
        assert_eq!(c.live_instances(), 0);
    }

    #[test]
    fn same_transaction_scope_partitions_by_txn() {
        let c = Compositor::new(
            EventExpr::Sequence(vec![e(1), e(2)]),
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            ConsumptionPolicy::Chronicle,
        );
        c.feed(&occ(1, 1, Some(10)));
        // e2 in a different transaction must not complete txn 10's window.
        assert!(c.feed(&occ(2, 2, Some(20))).is_empty());
        // e2 in txn 10 completes it.
        assert_eq!(c.feed(&occ(2, 3, Some(10))).len(), 1);
    }

    #[test]
    fn txn_end_discards_semi_composed_instances() {
        let c = Compositor::new(
            EventExpr::Sequence(vec![e(1), e(2)]),
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            ConsumptionPolicy::Chronicle,
        );
        c.feed(&occ(1, 1, Some(10)));
        assert_eq!(c.live_instances(), 1);
        let fired = c.close_txn(TxnId::new(10));
        assert!(fired.is_empty());
        assert_eq!(c.live_instances(), 0);
    }

    #[test]
    fn negation_fires_at_window_close_iff_absent() {
        // Neg(e2) within a transaction window.
        let c = Compositor::new(
            EventExpr::Sequence(vec![e(1), EventExpr::Negation(Arc::new(e(2)))]),
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            ConsumptionPolicy::Chronicle,
        );
        // Window 10: e1 then nothing → fires at close.
        c.feed(&occ(1, 1, Some(10)));
        let fired = c.close_txn(TxnId::new(10));
        assert_eq!(fired.len(), 1);
        assert!(fired[0].at_window_close);
        // Window 20: e1 then the forbidden e2 → no firing at close.
        c.feed(&occ(1, 2, Some(20)));
        c.feed(&occ(2, 3, Some(20)));
        assert!(c.close_txn(TxnId::new(20)).is_empty());
    }

    #[test]
    fn closure_collapses_multiple_occurrences() {
        let c = Compositor::new(
            EventExpr::Closure(Arc::new(e(1))),
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            ConsumptionPolicy::Chronicle,
        );
        for s in 1..=4 {
            assert!(c.feed(&occ(1, s, Some(10))).is_empty());
        }
        let fired = c.close_txn(TxnId::new(10));
        assert_eq!(fired.len(), 1, "closure fires once");
        assert_eq!(fired[0].constituents.len(), 4, "with all occurrences");
        // Empty window: no firing.
        assert!(c.close_txn(TxnId::new(11)).is_empty());
    }

    #[test]
    fn interval_expiry_gcs_instances() {
        let c = Compositor::new(
            EventExpr::Sequence(vec![e(1), e(2)]),
            CompositionScope::CrossTransaction,
            Lifespan::Interval(std::time::Duration::from_millis(100)),
            ConsumptionPolicy::Chronicle,
        );
        c.feed(&occ(1, 1, Some(1))); // at t=1ms
        assert_eq!(c.live_instances(), 1);
        // Not yet expired at t=50ms.
        assert!(c.expire(TimePoint::from_millis(50)).is_empty());
        assert_eq!(c.live_instances(), 1);
        // Expired at t=200ms: discarded silently (no window operator).
        assert!(c.expire(TimePoint::from_millis(200)).is_empty());
        assert_eq!(c.live_instances(), 0);
    }

    #[test]
    fn interval_expiry_fires_negation() {
        let c = Compositor::new(
            EventExpr::Sequence(vec![e(1), EventExpr::Negation(Arc::new(e(2)))]),
            CompositionScope::CrossTransaction,
            Lifespan::Interval(std::time::Duration::from_millis(100)),
            ConsumptionPolicy::Chronicle,
        );
        c.feed(&occ(1, 1, Some(1)));
        let fired = c.expire(TimePoint::from_millis(200));
        assert_eq!(fired.len(), 1);
        assert!(fired[0].at_window_close);
    }

    #[test]
    fn cross_transaction_composite_reports_all_origins() {
        let c = cross(
            EventExpr::Conjunction(vec![e(1), e(2)]),
            ConsumptionPolicy::Chronicle,
        );
        c.feed(&occ(1, 1, Some(10)));
        let fired = c.feed(&occ(2, 2, Some(20)));
        assert_eq!(fired.len(), 1);
        let origins: Vec<_> = fired[0]
            .constituents
            .iter()
            .filter_map(|o| o.top_txn)
            .collect();
        assert_eq!(origins, vec![TxnId::new(10), TxnId::new(20)]);
    }

    #[test]
    fn slab_slots_reclaimed_at_fire_and_window_close() {
        // Fire path: constituents leave the slab with the completion.
        let c = cross(
            EventExpr::Sequence(vec![e(1), e(2)]),
            ConsumptionPolicy::Chronicle,
        );
        c.feed(&occ(1, 1, Some(1)));
        assert_eq!(c.slab_live(), 1);
        let fired = c.feed(&occ(2, 2, Some(1)));
        assert_eq!(fired[0].constituents.len(), 2);
        assert_eq!(c.slab_live(), 0, "generation freed at fire");
        // Ignored occurrences never occupy a slot.
        c.feed(&occ(99, 3, Some(1)));
        assert_eq!(c.slab_live(), 0);

        // Window-close path: closure banks occurrences until EOT, then
        // the whole generation is freed after resolution.
        let w = Compositor::new(
            EventExpr::Closure(Arc::new(e(1))),
            CompositionScope::SameTransaction,
            Lifespan::Transaction,
            ConsumptionPolicy::Chronicle,
        );
        for s in 1..=4 {
            w.feed(&occ(1, s, Some(10)));
        }
        assert_eq!(w.slab_live(), 4);
        let fired = w.close_txn(TxnId::new(10));
        assert_eq!(fired[0].constituents.len(), 4);
        assert_eq!(w.slab_live(), 0, "generation freed at window close");
    }

    #[test]
    fn recent_supersede_recycles_slots_eagerly() {
        let c = cross(
            EventExpr::Sequence(vec![e(1), e(2)]),
            ConsumptionPolicy::Recent,
        );
        for s in 1..=10 {
            c.feed(&occ(1, s, Some(1)));
        }
        // Ten e1 arrivals, but only the most recent occupies a slot.
        assert_eq!(c.slab_live(), 1, "superseded slots recycle eagerly");
        let fired = c.feed(&occ(2, 11, Some(1)));
        assert_eq!(fired[0].constituents.len(), 2);
        assert_eq!(fired[0].constituents[0].seq.raw(), 10);
        assert_eq!(c.slab_live(), 0);
    }

    #[test]
    fn nested_expression() {
        // ( (e1 ; e2) | TIMES(2, e3) )
        let c = cross(
            EventExpr::Disjunction(vec![
                EventExpr::Sequence(vec![e(1), e(2)]),
                EventExpr::History {
                    expr: Arc::new(e(3)),
                    count: 2,
                },
            ]),
            ConsumptionPolicy::Chronicle,
        );
        c.feed(&occ(3, 1, Some(1)));
        c.feed(&occ(1, 2, Some(1)));
        let fired = c.feed(&occ(3, 3, Some(1)));
        assert_eq!(fired.len(), 1, "TIMES(2, e3) branch wins");
        assert_eq!(fired[0].constituents.len(), 2);
    }
}
