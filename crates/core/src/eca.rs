//! ECA-managers and the event router — the architecture of Figure 2.
//!
//! "To provide an efficient and highly selective rule firing mechanism,
//! we use the ECA-managers. ECA-managers are dedicated to a given event
//! type. Therefore, they know which set of rules is fired by an event.
//! ... If a primitive event is part of a composite event, the primitive
//! event is passed along to the corresponding event composer."
//!
//! An [`EcaManager`] holds, per event type: the directly-fired rules,
//! the composite event types subscribed to it, and a [`Compositor`] when
//! the type is itself composite. The [`Router`] owns the manager table,
//! the detector index that maps low-level sentry observations to event
//! types, and the [`CommitFeed`] that hands committed occurrences to
//! whoever keeps a history of them.
//!
//! Composition can run **synchronously** (deterministic, used by most
//! tests) or **in parallel** — one worker thread per composite manager
//! fed over a channel, which is the paper's "event composition process
//! should be executed asynchronously with normal processing". The
//! pre-commit *flush* barrier keeps deferred rules sound: before a
//! transaction commits, all of its in-flight primitives must have been
//! composed (§6.4's constraint is what makes this cheap: only
//! non-immediate rules can hang off composites, so normal processing
//! never waits — only commit does).

use crate::algebra::CompositionScope;
use crate::compositor::{Completion, Compositor};
use crate::event::{
    CompositeSpec, EventData, EventOccurrence, EventSpec, FlowPoint, MethodPhase, PrimitiveEvent,
};
use crate::history::CommitFeed;
use crate::rule::Rule;
use crossbeam::channel::{bounded, Sender, TrySendError};
use reach_common::sync::{Mutex, RwLock};
use reach_common::{
    ClassId, EventTypeId, FastMap, IdGen, MethodId, MetricsRegistry, Stage, TimePoint, Timestamp,
    TxnId,
};
use reach_object::{Schema, StateChange};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// The message-flow trace sink now lives in `reach_common::obs` next to
// the metrics registry; re-exported so `crate::eca::Trace` keeps working.
pub use reach_common::Trace;

/// One ECA-manager.
pub struct EcaManager {
    pub event_type: EventTypeId,
    pub name: String,
    pub spec: EventSpec,
    rules: RwLock<Vec<Arc<Rule>>>,
    /// Composite event types that consume this type.
    subscribers: RwLock<Vec<EventTypeId>>,
    /// Present iff this manager serves a composite type.
    compositor: Option<Compositor>,
    /// Cached channel to this manager's worker thread (parallel mode);
    /// read lock-free-ish on the hot delivery path instead of going
    /// through the router's worker table.
    worker_tx: RwLock<Option<Sender<WorkerMsg>>>,
}

impl EcaManager {
    fn new(
        event_type: EventTypeId,
        name: String,
        spec: EventSpec,
        metrics: &Arc<MetricsRegistry>,
    ) -> Self {
        let compositor = match &spec {
            EventSpec::Composite(c) => {
                let mut comp = Compositor::with_correlation(
                    c.expr.clone(),
                    c.scope,
                    c.lifespan,
                    c.consumption,
                    c.correlation,
                );
                comp.set_metrics(Arc::clone(metrics));
                Some(comp)
            }
            EventSpec::Primitive(_) => None,
        };
        EcaManager {
            event_type,
            name,
            spec,
            rules: RwLock::new(Vec::new()),
            subscribers: RwLock::new(Vec::new()),
            compositor,
            worker_tx: RwLock::new(None),
        }
    }

    /// Attach a rule fired by this event type.
    pub fn add_rule(&self, rule: Arc<Rule>) {
        self.rules.write().push(rule);
    }

    /// Detach a rule; true if present.
    pub fn remove_rule(&self, id: reach_common::RuleId) -> bool {
        let mut rules = self.rules.write();
        let before = rules.len();
        rules.retain(|r| r.id != id);
        rules.len() != before
    }

    /// Snapshot of enabled rules.
    pub fn rules(&self) -> Vec<Arc<Rule>> {
        self.rules
            .read()
            .iter()
            .filter(|r| r.is_enabled())
            .cloned()
            .collect()
    }

    pub fn rule_count(&self) -> usize {
        self.rules.read().len()
    }

    fn subscribe(&self, composite: EventTypeId) {
        self.subscribers.write().push(composite);
    }

    pub fn subscribers(&self) -> Vec<EventTypeId> {
        self.subscribers.read().clone()
    }

    /// Live semi-composed instances (0 for primitive managers).
    pub fn live_instances(&self) -> usize {
        self.compositor.as_ref().map_or(0, |c| c.live_instances())
    }
}

/// Capacity of each compositor worker's inbox. Inboxes used to be
/// unbounded: a raiser faster than a compositor grew the queue (and the
/// process) without limit. Bounded inboxes give natural admission
/// control — a producer that outruns §6.3's "small compositors" blocks
/// at the boundary instead of queueing gigabytes.
pub const INBOX_CAP: usize = 1024;

std::thread_local! {
    /// Whether the current thread is a compositor worker. Workers must
    /// never block on a downstream inbox: a completion cascade (or a
    /// rule raising fresh events) may route back through an upstream
    /// worker, and two workers blocking on each other's full inboxes
    /// would deadlock. Workers instead `try_send` and fall back to
    /// feeding the compositor inline; only application threads take
    /// the blocking backpressure path.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Message protocol for composite-manager worker threads.
enum WorkerMsg {
    Feed(Arc<EventOccurrence>),
    /// Close the window of a finished transaction. `fire` is false for
    /// aborted transactions (their events are revoked).
    CloseTxn(TxnId, bool),
    /// Sweep interval lifespans.
    Expire(TimePoint),
    /// Barrier: reply when all prior messages are processed.
    Flush(Sender<()>),
    Shutdown,
}

/// How composite feeding is dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompositionMode {
    /// Inline in the detecting thread — deterministic.
    Synchronous,
    /// One worker thread per composite manager (§6.3's parallel small
    /// compositors).
    Parallel,
}

/// A passive delivery observer. It gets the shared occurrence, so one
/// that keeps it takes a reference count, not a copy.
pub type Observer = Arc<dyn Fn(&Arc<EventOccurrence>) + Send + Sync>;

/// Composition ownership predicate: may this router's compositor for
/// the given event type be fed? (See `Router::set_composition_gate`.)
pub type CompositionGate = Arc<dyn Fn(EventTypeId) -> bool + Send + Sync>;

/// Channel + join handle of one composite manager's worker thread.
type WorkerHandle = (Sender<WorkerMsg>, std::thread::JoinHandle<()>);

/// Consumer of completed composite occurrences and directly-fired rules.
/// Implemented by the engine (`crate::engine`).
pub trait FireHandler: Send + Sync {
    /// Fire `rules` (already filtered to enabled) for every occurrence
    /// of `occs`, in event order.
    fn fire(&self, rules: &[Arc<Rule>], occs: &[Arc<EventOccurrence>]);
}

/// One observed method invocation, as handed to
/// [`Router::raise_method`].
pub struct MethodObservation<'a> {
    pub txn: TxnId,
    pub top: TxnId,
    pub at: TimePoint,
    pub receiver: reach_common::ObjectId,
    pub class: ClassId,
    pub method: MethodId,
    pub phase: MethodPhase,
    pub args: &'a reach_object::Args,
}

/// Per-category registration counts: the detector sentries' cheap
/// gates. When a category has no registrations anywhere, a raise for it
/// cannot match and is skipped before the txn resolution and index
/// lookup, after one atomic load. Shared apart from the router so that
/// a sentry can read them without holding the router, which the
/// substrate it sits on outlives.
#[derive(Debug, Default)]
pub struct RouterGates {
    /// Registered method events per phase (`[Before, After]`).
    method_phase: [AtomicU64; 2],
    /// Registered flow events — the [`Router::raise_flow`] gate. Every
    /// begin/commit of every (sub)transaction reports a flow point.
    flow: AtomicU64,
    /// Registered state-change events.
    state: AtomicU64,
}

impl RouterGates {
    /// Whether any flow event is registered anywhere (see
    /// [`Router::raise_flow`]).
    pub fn observes_flow(&self) -> bool {
        self.flow.load(Ordering::Acquire) > 0
    }

    /// Whether any state-change event is registered anywhere. The state
    /// sentry consults this before resolving the writing transaction.
    pub fn observes_state_change(&self) -> bool {
        self.state.load(Ordering::Acquire) > 0
    }

    /// Whether any method event of `phase` is registered anywhere (E13's
    /// hot path raises the before phase 50k times against zero
    /// registrations otherwise).
    pub fn observes_method_phase(&self, phase: MethodPhase) -> bool {
        let slot = match phase {
            MethodPhase::Before => 0,
            MethodPhase::After => 1,
        };
        self.method_phase[slot].load(Ordering::Acquire) > 0
    }
}

/// The event router: detector index + manager table + delivery.
pub struct Router {
    schema: Arc<Schema>,
    managers: RwLock<FastMap<EventTypeId, Arc<EcaManager>>>,
    /// The composite managers, in event-type order: what closing a
    /// transaction and sweeping lifespans visit. Copied on write, so an
    /// EOT takes a reference count instead of sorting a snapshot of
    /// the whole table.
    composites: RwLock<Arc<Vec<Arc<EcaManager>>>>,
    by_name: RwLock<HashMap<String, EventTypeId>>,
    // Detector indexes (primitive specs -> event types). A key can have
    // several registered event types (e.g. two rules, each with its own
    // named event on the same class.attribute): every one fires.
    method_index: RwLock<FastMap<(ClassId, MethodId, MethodPhase), Vec<EventTypeId>>>,
    state_index: RwLock<HashMap<(ClassId, String), Vec<EventTypeId>>>,
    lifecycle_index: RwLock<FastMap<(ClassId, bool), Vec<EventTypeId>>>,
    persist_index: RwLock<FastMap<ClassId, Vec<EventTypeId>>>,
    flow_index: RwLock<FastMap<FlowPoint, Vec<EventTypeId>>>,
    signal_index: RwLock<HashMap<String, Vec<EventTypeId>>>,
    ids: IdGen,
    gates: Arc<RouterGates>,
    /// The event sequence clock. Normally private to this router; a
    /// sharded deployment injects one shared clock into every shard's
    /// router so occurrence `seq` values form a single global order and
    /// cross-shard history merges need no translation.
    seq: Arc<AtomicU64>,
    mode: RwLock<CompositionMode>,
    workers: Mutex<FastMap<EventTypeId, WorkerHandle>>,
    handler: RwLock<Option<Arc<dyn FireHandler>>>,
    /// Composition ownership gate. In a sharded deployment every shard
    /// registers every composite type (so event-type ids align across
    /// shards), but only the *owning* shard's compositor may be fed —
    /// otherwise each shard would compose the same global stream and
    /// fire the composite's rules once per shard. `None` (single-node
    /// default) composes everything locally.
    composition_gate: RwLock<Option<CompositionGate>>,
    /// Passive observers of every delivered occurrence (the temporal
    /// manager watches for anchors of relative events here).
    observers: RwLock<Arc<Vec<Observer>>>,
    /// Every locally raised occurrence passes through here on its way to
    /// the history subscribers (one atomic load while there are none).
    feed: CommitFeed,
    pub trace: Arc<Trace>,
    metrics: Arc<MetricsRegistry>,
}

impl Router {
    pub fn new(schema: Arc<Schema>) -> Arc<Self> {
        Self::with_metrics(schema, MetricsRegistry::new_shared())
    }

    /// A router recording into the stack-wide `metrics` registry (the
    /// plain [`Router::new`] gets a private, disabled one).
    pub fn with_metrics(schema: Arc<Schema>, metrics: Arc<MetricsRegistry>) -> Arc<Self> {
        Self::with_seq_clock(schema, metrics, Arc::new(AtomicU64::new(1)))
    }

    /// A router stamping occurrences from an externally owned sequence
    /// clock — the distribution layer hands the same clock to every
    /// shard so `seq` is a total order across the deployment.
    pub fn with_seq_clock(
        schema: Arc<Schema>,
        metrics: Arc<MetricsRegistry>,
        seq: Arc<AtomicU64>,
    ) -> Arc<Self> {
        Arc::new(Router {
            schema,
            managers: RwLock::new(FastMap::default()),
            composites: RwLock::new(Arc::default()),
            by_name: RwLock::new(HashMap::new()),
            method_index: RwLock::new(FastMap::default()),
            state_index: RwLock::new(HashMap::new()),
            lifecycle_index: RwLock::new(FastMap::default()),
            persist_index: RwLock::new(FastMap::default()),
            flow_index: RwLock::new(FastMap::default()),
            signal_index: RwLock::new(HashMap::new()),
            ids: IdGen::new(),
            gates: Arc::default(),
            seq,
            mode: RwLock::new(CompositionMode::Synchronous),
            workers: Mutex::new(FastMap::default()),
            handler: RwLock::new(None),
            composition_gate: RwLock::new(None),
            observers: RwLock::new(Arc::default()),
            feed: CommitFeed::default(),
            trace: Arc::new(Trace::default()),
            metrics,
        })
    }

    /// The observability registry this router records into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Install the rule-firing handler (the engine).
    pub fn set_handler(&self, h: Arc<dyn FireHandler>) {
        *self.handler.write() = Some(h);
    }

    /// Add a passive delivery observer.
    pub fn add_observer(&self, f: Observer) {
        Arc::make_mut(&mut self.observers.write()).push(f);
    }

    /// The commit-gated feed of this router's occurrences: subscribe to
    /// it to keep a history (see [`crate::history`]).
    pub fn feed(&self) -> &CommitFeed {
        &self.feed
    }

    /// Install the composition ownership gate (see the field docs).
    /// The distribution layer passes `|ty| owner(ty) == this_shard`.
    pub fn set_composition_gate(&self, gate: CompositionGate) {
        *self.composition_gate.write() = Some(gate);
    }

    /// Whether this router instance may feed `mgr`'s compositor with an
    /// occurrence of local (`remote == false`) or remote origin.
    ///
    /// Same-transaction-scoped composites always compose locally and
    /// never accept remote constituents: their windows are bound to
    /// *local* transaction boundaries, and transaction identifiers are
    /// per-shard, so a remote occurrence's `txn` cannot be correlated
    /// with any window on this shard. Cross-transaction composites are
    /// fed only on their owning shard (the gate), from both the local
    /// raise path and remote committed streams.
    fn composes(&self, mgr: &EcaManager, remote: bool) -> bool {
        let cross_txn = matches!(
            &mgr.spec,
            EventSpec::Composite(spec) if spec.scope == CompositionScope::CrossTransaction
        );
        if !cross_txn {
            return !remote;
        }
        match &*self.composition_gate.read() {
            Some(gate) => gate(mgr.event_type),
            None => true,
        }
    }

    /// Stamp a new occurrence of `ty` with the next global event
    /// sequence number.
    fn occurrence(
        &self,
        ty: EventTypeId,
        at: TimePoint,
        txn: Option<TxnId>,
        top: Option<TxnId>,
        data: EventData,
        constituents: Vec<Arc<EventOccurrence>>,
    ) -> Arc<EventOccurrence> {
        Arc::new(EventOccurrence {
            event_type: ty,
            seq: Timestamp::new(self.seq.fetch_add(1, Ordering::Relaxed)),
            at,
            txn,
            top_txn: top,
            data,
            constituents,
        })
    }

    /// Event types a detector `index` registers for `class` under
    /// `key(class)`, then for each ancestor: events declared on a base
    /// class catch subclass receivers.
    fn lookup<K: Eq + std::hash::Hash, S: std::hash::BuildHasher>(
        &self,
        index: &RwLock<HashMap<K, Vec<EventTypeId>, S>>,
        class: ClassId,
        key: impl Fn(ClassId) -> K,
    ) -> Vec<EventTypeId> {
        let index = index.read();
        let mut out = Vec::new();
        let mut collect = |c: ClassId| {
            if let Some(tys) = index.get(&key(c)) {
                out.extend_from_slice(tys);
            }
        };
        collect(class);
        if let Ok(lineage) = self.schema.lineage(class) {
            lineage.into_iter().skip(1).for_each(collect);
        }
        out
    }

    /// The sequence clock this router stamps occurrences from.
    pub fn seq_clock(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.seq)
    }

    // ---- registration ----

    /// Register an event type under `name`.
    pub fn register(self: &Arc<Self>, name: &str, spec: EventSpec) -> EventTypeId {
        let id: EventTypeId = self.ids.next();
        match &spec {
            EventSpec::Primitive(p) => match p {
                PrimitiveEvent::Method {
                    class,
                    method,
                    phase,
                } => {
                    self.method_index
                        .write()
                        .entry((*class, *method, *phase))
                        .or_default()
                        .push(id);
                    let slot = match phase {
                        MethodPhase::Before => 0,
                        MethodPhase::After => 1,
                    };
                    self.gates.method_phase[slot].fetch_add(1, Ordering::Release);
                }
                PrimitiveEvent::StateChange { class, attribute } => {
                    self.state_index
                        .write()
                        .entry((*class, attribute.clone()))
                        .or_default()
                        .push(id);
                    self.gates.state.fetch_add(1, Ordering::Release);
                }
                PrimitiveEvent::Lifecycle { class, deletion } => {
                    self.lifecycle_index
                        .write()
                        .entry((*class, *deletion))
                        .or_default()
                        .push(id);
                }
                PrimitiveEvent::Persist { class } => {
                    self.persist_index
                        .write()
                        .entry(*class)
                        .or_default()
                        .push(id);
                }
                PrimitiveEvent::Flow { point } => {
                    self.flow_index.write().entry(*point).or_default().push(id);
                    self.gates.flow.fetch_add(1, Ordering::Release);
                }
                PrimitiveEvent::UserSignal { name } => {
                    self.signal_index
                        .write()
                        .entry(name.clone())
                        .or_default()
                        .push(id);
                }
                // Temporal specs are driven by the temporal manager,
                // which raises them via `raise_temporal`.
                PrimitiveEvent::TemporalAbsolute { .. }
                | PrimitiveEvent::TemporalPeriodic { .. }
                | PrimitiveEvent::TemporalRelative { .. } => {}
            },
            EventSpec::Composite(c) => {
                // Subscribe this composite to each referenced type.
                for dep in c.expr.referenced_types() {
                    if let Some(mgr) = self.manager(dep) {
                        mgr.subscribe(id);
                    }
                }
            }
        }
        let mgr = Arc::new(EcaManager::new(id, name.to_string(), spec, &self.metrics));
        self.managers.write().insert(id, Arc::clone(&mgr));
        if mgr.compositor.is_some() {
            let mut composites = self.composites.write();
            let composites = Arc::make_mut(&mut composites);
            let at = composites.partition_point(|m| m.event_type < id);
            composites.insert(at, Arc::clone(&mgr));
        }
        self.by_name.write().insert(name.to_string(), id);
        // In parallel mode, composite managers get their worker now.
        if mgr.compositor.is_some() && *self.mode.read() == CompositionMode::Parallel {
            self.spawn_worker(&mgr);
        }
        id
    }

    /// The registration gates the sentries consult before a raise.
    pub fn gates(&self) -> &Arc<RouterGates> {
        &self.gates
    }

    /// Look up a manager.
    pub fn manager(&self, id: EventTypeId) -> Option<Arc<EcaManager>> {
        self.managers.read().get(&id).cloned()
    }

    /// Look up an event type by registration name.
    pub fn event_by_name(&self, name: &str) -> Option<EventTypeId> {
        self.by_name.read().get(name).copied()
    }

    /// All managers (introspection / figure regeneration).
    pub fn managers(&self) -> Vec<Arc<EcaManager>> {
        let mut v: Vec<_> = self.managers.read().values().cloned().collect();
        v.sort_by_key(|m| m.event_type);
        v
    }

    /// The composite managers, in event-type order.
    fn composites(&self) -> Arc<Vec<Arc<EcaManager>>> {
        Arc::clone(&self.composites.read())
    }

    // ---- composition mode ----

    /// Switch composition dispatch. Call before raising events.
    pub fn set_mode(self: &Arc<Self>, mode: CompositionMode) {
        let old = *self.mode.read();
        if old == mode {
            return;
        }
        *self.mode.write() = mode;
        match mode {
            CompositionMode::Parallel => {
                for mgr in self.composites().iter() {
                    self.spawn_worker(mgr);
                }
            }
            CompositionMode::Synchronous => {
                for mgr in self.composites().iter() {
                    mgr.worker_tx.write().take();
                }
                let mut workers = self.workers.lock();
                for (_, (tx, handle)) in workers.drain() {
                    let _ = tx.send(WorkerMsg::Shutdown);
                    let _ = handle.join();
                }
            }
        }
    }

    pub fn mode(&self) -> CompositionMode {
        *self.mode.read()
    }

    fn spawn_worker(self: &Arc<Self>, mgr: &Arc<EcaManager>) {
        let mut workers = self.workers.lock();
        if workers.contains_key(&mgr.event_type) {
            return;
        }
        let (tx, rx) = bounded::<WorkerMsg>(INBOX_CAP);
        // Weak: the router's drop joins its workers.
        let router = Arc::downgrade(self);
        let ty = mgr.event_type;
        let outer_mgr = Arc::clone(mgr);
        let mgr = Arc::clone(mgr);
        let handle = std::thread::Builder::new()
            .name(format!("eca-{}", mgr.name))
            .spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                while let Ok(msg) = rx.recv() {
                    let Some(router) = router.upgrade() else {
                        break;
                    };
                    match msg {
                        WorkerMsg::Feed(occ) => router.feed_compositor(&mgr, &occ),
                        WorkerMsg::CloseTxn(txn, fire) => router.close_compositor(&mgr, txn, fire),
                        WorkerMsg::Expire(now) => router.expire_compositor(&mgr, now),
                        WorkerMsg::Flush(ack) => {
                            let _ = ack.send(());
                        }
                        WorkerMsg::Shutdown => break,
                    }
                }
            })
            .expect("spawn eca worker");
        outer_mgr.worker_tx.write().replace(tx.clone());
        workers.insert(ty, (tx, handle));
    }

    // ---- detection entry points ----

    /// Monitored method invocations were observed, in this order. The
    /// detector-index lookup is made once per run of equal
    /// `(class, method, phase)` — the shape a telemetry batch has.
    ///
    /// A run of several observations mapping to a *single* event type
    /// is delivered as one slice (see [`Router::deliver_batch`] for the
    /// ordering contract). Keys with several registered event types
    /// interleave the types per call.
    pub fn raise_method(self: &Arc<Self>, batch: &[MethodObservation<'_>]) {
        let key = |m: &MethodObservation<'_>| (m.class, m.method, m.phase);
        for run in batch.chunk_by(|a, b| key(a) == key(b)) {
            let (class, method, phase) = key(&run[0]);
            let types = self.lookup(&self.method_index, class, |c| (c, method, phase));
            let occ = |m: &MethodObservation<'_>, ty| {
                self.trace.log(|| {
                    format!(
                        "method-event detected (class {class}, {method}, {phase:?}) -> ECA-manager[{ty}]"
                    )
                });
                let data = EventData {
                    receiver: Some(m.receiver),
                    args: m.args.clone(),
                    ..Default::default()
                };
                self.occurrence(ty, m.at, Some(m.txn), Some(m.top), data, Vec::new())
            };
            // (A run of one goes the other way only to skip the Vec.)
            if let ([ty], [_, _, ..]) = (&types[..], run) {
                let occs: Vec<_> = run.iter().map(|m| occ(m, *ty)).collect();
                self.route(&occs, false);
            } else {
                for m in run {
                    for &ty in &types {
                        self.deliver(occ(m, ty));
                    }
                }
            }
        }
    }

    /// A state change was observed in top-level transaction `top`.
    pub fn raise_state_change(
        self: &Arc<Self>,
        change: &StateChange<'_>,
        top: TxnId,
        at: TimePoint,
    ) {
        let StateChange {
            txn,
            oid,
            class,
            attribute,
            ..
        } = *change;
        for ty in self.lookup(&self.state_index, class, |c| (c, attribute.to_string())) {
            let data = EventData {
                receiver: Some(oid),
                attribute: Some(attribute.to_string()),
                old: Some(change.old.clone()),
                new: Some(change.new.clone()),
                ..Default::default()
            };
            self.trace.log(|| {
                format!("state-change detected ({class}.{attribute}) -> ECA-manager[{ty}]")
            });
            self.deliver(self.occurrence(ty, at, Some(txn), Some(top), data, Vec::new()));
        }
    }

    /// A constructor/destructor was observed.
    pub fn raise_lifecycle(
        self: &Arc<Self>,
        txn: TxnId,
        top: TxnId,
        at: TimePoint,
        receiver: reach_common::ObjectId,
        class: ClassId,
        deletion: bool,
    ) {
        for ty in self.lookup(&self.lifecycle_index, class, |c| (c, deletion)) {
            let data = EventData::for_receiver(receiver);
            self.deliver(self.occurrence(ty, at, Some(txn), Some(top), data, Vec::new()));
        }
    }

    /// An object was made persistent.
    pub fn raise_persist(
        self: &Arc<Self>,
        txn: TxnId,
        top: TxnId,
        at: TimePoint,
        receiver: reach_common::ObjectId,
        class: ClassId,
    ) {
        for ty in self.lookup(&self.persist_index, class, |c| c) {
            let data = EventData::for_receiver(receiver);
            self.deliver(self.occurrence(ty, at, Some(txn), Some(top), data, Vec::new()));
        }
    }

    /// A transaction flow point was reached.
    pub fn raise_flow(self: &Arc<Self>, txn: TxnId, top: TxnId, at: TimePoint, point: FlowPoint) {
        if !self.gates.observes_flow() {
            return;
        }
        let types = self
            .flow_index
            .read()
            .get(&point)
            .cloned()
            .unwrap_or_default();
        for ty in types {
            let data = EventData::default();
            self.deliver(self.occurrence(ty, at, Some(txn), Some(top), data, Vec::new()));
        }
    }

    /// An explicit application signal.
    pub fn raise_signal(
        self: &Arc<Self>,
        txn: Option<TxnId>,
        top: Option<TxnId>,
        at: TimePoint,
        name: &str,
        receiver: Option<reach_common::ObjectId>,
        args: Vec<reach_object::Value>,
    ) {
        let args: reach_object::Args = args.into();
        let types = self
            .signal_index
            .read()
            .get(name)
            .cloned()
            .unwrap_or_default();
        for ty in types {
            let data = EventData {
                signal: Some(name.to_string()),
                receiver,
                args: args.clone(),
                ..Default::default()
            };
            self.deliver(self.occurrence(ty, at, txn, top, data, Vec::new()));
        }
    }

    /// A temporal event fired (called by the temporal manager).
    pub fn raise_temporal(self: &Arc<Self>, ty: EventTypeId, at: TimePoint) {
        self.trace
            .log(|| format!("temporal event at {at} -> ECA-manager[{ty}]"));
        self.deliver(self.occurrence(ty, at, None, None, EventData::default(), Vec::new()));
    }

    // ---- delivery (Figure 2) ----

    /// Deliver an occurrence to its ECA-manager: feed, rules,
    /// propagation to composite managers.
    pub fn deliver(self: &Arc<Self>, occ: Arc<EventOccurrence>) {
        self.route(&[occ], false);
    }

    /// Deliver an occurrence that was detected — and whose primitive
    /// rules already fired — on another shard. Only composite
    /// subscribers are fed: the owning shard put the occurrence on its
    /// feed, notified its observers and ran its rules, so here
    /// the occurrence exists solely to complete cross-shard
    /// compositions (whose completions then fire *this* shard's rules
    /// through the ordinary [`Router::deliver`] of the composite).
    pub fn deliver_remote(self: &Arc<Self>, occ: Arc<EventOccurrence>) {
        self.route(&[occ], true);
    }

    /// Deliver occurrences in slice order, each run of equal event type
    /// as one traversal of its ECA-manager, amortizing the per-event
    /// costs: one manager lookup, one feed append, one rules/
    /// subscribers/observers snapshot and one metrics stamp per run.
    ///
    /// Ordering contract, relative to delivering one at a time:
    /// * rule firing sequences are identical — occurrences go through
    ///   the engine in event order, and events raised *by* a fired rule
    ///   are still delivered inline before the next occurrence fires;
    /// * when the type has composite subscribers, the one-at-a-time
    ///   interleaving `[observers, fire, feed]` is kept per occurrence;
    /// * when it has none (nothing to feed), passive observers see the
    ///   whole run before the first rule fires — observers cannot
    ///   veto or fire, so firing sequences are unaffected, and the
    ///   engine can amortize scheduling over the run;
    /// * the run is put on the feed up front, so a subscriber sees a
    ///   top-less run before its first rule fires.
    pub fn deliver_batch(self: &Arc<Self>, occs: Vec<Arc<EventOccurrence>>) {
        for run in occs.chunk_by(|a, b| a.event_type == b.event_type) {
            self.route(run, false);
        }
    }

    /// The delivery traversal of Figure 2, for occurrences of **one
    /// event type** in `seq` order: feed → observers → rules →
    /// composite subscribers. A `remote` occurrence was detected on
    /// another shard, which already did all but the last step; it only
    /// feeds the composites this shard composes for remote origins.
    fn route(self: &Arc<Self>, occs: &[Arc<EventOccurrence>], remote: bool) {
        let Some(mgr) = occs.first().and_then(|occ| self.manager(occ.event_type)) else {
            return;
        };
        let (t0, observers, rules) = if remote {
            (None, None, Vec::new())
        } else {
            let t0 = self.metrics.span_start();
            if t0.is_some() {
                self.metrics.events.detected.add(occs.len() as u64);
            }
            for occ in occs {
                self.trace.log(|| {
                    format!(
                        "ECA-manager[{}] creates Event object (seq {})",
                        mgr.name, occ.seq
                    )
                });
            }
            self.feed.stage(occs);
            let observers = Arc::clone(&self.observers.read());
            (t0, Some(observers), mgr.rules())
        };
        let handler = if rules.is_empty() {
            None
        } else {
            self.handler.read().clone()
        };
        let (no_subscribers, sub_mgrs) = {
            let subscribers = mgr.subscribers.read();
            let sub_mgrs: Vec<_> = subscribers
                .iter()
                .filter_map(|s| self.manager(*s))
                .filter(|m| self.composes(m, remote))
                .collect();
            (subscribers.is_empty(), sub_mgrs)
        };
        // With subscribers each occurrence is fired and fed before the
        // next is looked at; without, the engine gets the whole run.
        let step = if no_subscribers { occs.len() } else { 1 };
        for chunk in occs.chunks(step) {
            for occ in chunk {
                for obs in observers.iter().flat_map(|o| o.iter()) {
                    obs(occ);
                }
            }
            if let Some(h) = &handler {
                self.trace.log(|| {
                    format!(
                        "ECA-manager[{}] fires {} rule(s), then signals go-ahead",
                        mgr.name,
                        rules.len()
                    )
                });
                h.fire(&rules, chunk);
            }
            for occ in chunk {
                for sub_mgr in &sub_mgrs {
                    self.trace.log(|| {
                        format!(
                            "ECA-manager[{}] propagates -> composite ECA-manager[{}]",
                            mgr.name, sub_mgr.name
                        )
                    });
                    // Fast path: the manager's cached worker inbox.
                    if !self.send_feed(sub_mgr, occ) {
                        self.feed_compositor(sub_mgr, occ);
                    }
                }
            }
        }
        if let Some(t0) = t0 {
            self.metrics
                .record_span(Stage::EcaManager, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Try to hand an occurrence to `sub_mgr`'s worker inbox. Returns
    /// false (caller feeds inline) when the manager has no worker
    /// (synchronous mode), the worker is gone, or — for compositor
    /// worker threads only — the bounded inbox is full. Application
    /// threads block on a full inbox instead: that is the admission
    /// control the bound exists for, and it preserves per-compositor
    /// FIFO order. Workers must not block (see [`IN_WORKER`]), so under
    /// overload a cascading completion is composed inline by the
    /// sending worker; the compositor's own lock keeps that safe.
    fn send_feed(&self, sub_mgr: &EcaManager, occ: &Arc<EventOccurrence>) -> bool {
        let tx = sub_mgr.worker_tx.read();
        let Some(tx) = &*tx else {
            return false;
        };
        if IN_WORKER.with(|w| w.get()) {
            match tx.try_send(WorkerMsg::Feed(Arc::clone(occ))) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => false,
            }
        } else {
            tx.send(WorkerMsg::Feed(Arc::clone(occ))).is_ok()
        }
    }

    fn feed_compositor(self: &Arc<Self>, mgr: &Arc<EcaManager>, occ: &Arc<EventOccurrence>) {
        let Some(compositor) = &mgr.compositor else {
            return;
        };
        let t0 = self.metrics.span_start();
        let completions = compositor.feed(occ);
        if let Some(t0) = t0 {
            self.metrics
                .record_span(Stage::Compositor, t0.elapsed().as_nanos() as u64);
        }
        for completion in completions {
            self.emit_completion(mgr, completion);
        }
    }

    fn close_compositor(self: &Arc<Self>, mgr: &Arc<EcaManager>, txn: TxnId, fire: bool) {
        let Some(compositor) = &mgr.compositor else {
            return;
        };
        for completion in compositor.close_txn(txn) {
            if fire {
                self.emit_completion(mgr, completion);
            }
        }
    }

    fn expire_compositor(self: &Arc<Self>, mgr: &Arc<EcaManager>, now: TimePoint) {
        let Some(compositor) = &mgr.compositor else {
            return;
        };
        for completion in compositor.expire(now) {
            self.emit_completion(mgr, completion);
        }
    }

    /// Turn a compositor completion into a composite occurrence and
    /// deliver it (recursively: composites can feed other composites).
    fn emit_completion(self: &Arc<Self>, mgr: &Arc<EcaManager>, completion: Completion) {
        let scope = match &mgr.spec {
            EventSpec::Composite(CompositeSpec { scope, .. }) => *scope,
            EventSpec::Primitive(_) => return,
        };
        // A same-transaction composite inherits its (single) origin
        // transaction; cross-transaction composites belong to none.
        let (txn, top) = match scope {
            crate::algebra::CompositionScope::SameTransaction => {
                let top = completion.constituents.iter().find_map(|c| c.top_txn);
                (top, top)
            }
            crate::algebra::CompositionScope::CrossTransaction => (None, None),
        };
        let at = completion
            .constituents
            .iter()
            .map(|c| c.at)
            .max()
            .unwrap_or(TimePoint::ZERO);
        let occ = self.occurrence(
            mgr.event_type,
            at,
            txn,
            top,
            EventData::default(),
            completion.constituents,
        );
        if self.metrics.on() {
            self.metrics.events.composites_completed.inc();
        }
        self.trace.log(|| {
            format!(
                "composite ECA-manager[{}] completes ({} constituents{})",
                mgr.name,
                occ.constituents.len(),
                if completion.at_window_close {
                    ", at window close"
                } else {
                    ""
                }
            )
        });
        self.deliver(occ);
    }

    // ---- lifecycle hooks from the transaction manager ----

    /// A top-level transaction ended. `fire_windows` is true on commit
    /// (window operators may fire) and false on abort (the transaction's
    /// events are revoked with it).
    pub fn close_txn(self: &Arc<Self>, txn: TxnId, fire_windows: bool) {
        match *self.mode.read() {
            CompositionMode::Synchronous => {
                for mgr in self.composites().iter() {
                    self.close_compositor(mgr, txn, fire_windows);
                }
            }
            CompositionMode::Parallel => {
                let workers = self.workers.lock();
                for (tx, _) in workers.values() {
                    let _ = tx.send(WorkerMsg::CloseTxn(txn, fire_windows));
                }
            }
        }
    }

    /// Sweep validity intervals against `now`.
    pub fn expire(self: &Arc<Self>, now: TimePoint) {
        match *self.mode.read() {
            CompositionMode::Synchronous => {
                for mgr in self.composites().iter() {
                    self.expire_compositor(mgr, now);
                }
            }
            CompositionMode::Parallel => {
                let workers = self.workers.lock();
                for (tx, _) in workers.values() {
                    let _ = tx.send(WorkerMsg::Expire(now));
                }
            }
        }
    }

    /// Barrier: wait until every composite worker has drained its queue.
    /// No-op in synchronous mode.
    pub fn flush(&self) {
        let acks: Vec<_> = {
            let workers = self.workers.lock();
            workers
                .values()
                .filter_map(|(tx, _)| {
                    let (ack_tx, ack_rx) = bounded(1);
                    tx.send(WorkerMsg::Flush(ack_tx)).ok().map(|_| ack_rx)
                })
                .collect()
        };
        for rx in acks {
            let _ = rx.recv();
        }
    }

    /// Total semi-composed instances across all compositors (§3.3 GC
    /// observability).
    pub fn total_live_instances(&self) -> usize {
        self.composites().iter().map(|m| m.live_instances()).sum()
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        // A worker that held the last reference runs this drop itself;
        // it cannot join itself, and exits at its next message.
        let me = std::thread::current().id();
        for (_, (tx, handle)) in self.workers.lock().drain() {
            let _ = tx.try_send(WorkerMsg::Shutdown);
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("managers", &self.managers.read().len())
            .field("mode", &self.mode())
            .finish()
    }
}
