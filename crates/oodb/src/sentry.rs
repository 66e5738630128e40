//! The four sentry mechanisms §6.2 surveys, behind one interface.
//!
//! "Many sentry-like mechanisms exist in a variety of domains" — the
//! paper weighs hardware interrupts, virtual-memory traps, dispatch
//! redefinition, root-class traps, surrogate objects and in-line
//! wrappers, and Open OODB picks the in-line wrapper. We implement the
//! four that are meaningful in a safe-Rust runtime so experiment E4 can
//! *measure* the trade-offs the paper argues qualitatively:
//!
//! | mechanism        | transparent | traps state | per-call cost when idle |
//! |------------------|------------|-------------|---------------------------|
//! | in-line wrapper  | yes        | yes (space) | one atomic load           |
//! | root-class trap  | yes        | no          | hierarchy walk, always    |
//! | surrogate object | yes        | **no**      | identity-map indirection  |
//! | announce         | **no**     | n/a         | zero (app must announce)  |
//!
//! Each mechanism reports observed calls to an [`EventSink`].

use reach_common::sync::RwLock;
use reach_common::{ClassId, FastMap, FastSet, MethodId, MetricsRegistry, ObjectId, Result, TxnId};
use reach_object::{Dispatcher, ObjectSpace, Value};
use std::sync::Arc;

/// Consumer of detected invocation events.
pub trait EventSink: Send + Sync {
    fn on_detected(&self, txn: TxnId, oid: ObjectId, method: &str);
}

/// A way of detecting method invocations.
pub trait SentryMechanism: Send + Sync {
    fn name(&self) -> &'static str;
    /// Invoke a method through this mechanism.
    fn invoke(&self, txn: TxnId, oid: ObjectId, method: &str, args: &[Value]) -> Result<Value>;
    /// Whether direct state access is also trapped (§4: surrogates and
    /// root-class traps miss it, which "would cause the behavioral
    /// extensions to be omitted").
    fn traps_state_access(&self) -> bool;
    /// Whether applications keep their source unchanged (the announce
    /// mechanism "forces applications to announce the events").
    fn transparent(&self) -> bool;
}

/// Shared world the mechanisms operate on.
pub struct SentryWorld {
    pub space: Arc<ObjectSpace>,
    pub dispatcher: Arc<Dispatcher>,
    pub sink: Arc<dyn EventSink>,
    /// Observability registry; each mechanism reports its invocation and
    /// detection counts here (gated — free when observability is off).
    pub metrics: Arc<MetricsRegistry>,
}

// ---------------------------------------------------------------------
// 1. In-line wrapper (the Open OODB / REACH choice)
// ---------------------------------------------------------------------

/// The integrated mechanism: the dispatcher's sentry chain. Monitoring
/// is toggled per (class, method); the unmonitored path costs one atomic
/// load (see `reach_object::dispatch`).
pub struct InlineWrapperSentry {
    world: SentryWorld,
}

impl InlineWrapperSentry {
    /// Wires a dispatcher-level sentry to the sink.
    pub fn new(world: SentryWorld) -> Self {
        struct Bridge(Arc<dyn EventSink>, Arc<MetricsRegistry>);
        impl reach_object::MethodSentry for Bridge {
            fn before(&self, call: &reach_object::MethodCall) -> Result<()> {
                if self.1.on() {
                    self.1.sentry.inline_detections.inc();
                }
                self.0
                    .on_detected(call.txn, call.receiver, &call.method_name);
                Ok(())
            }
            fn after(&self, _calls: &[(reach_object::MethodCall, Result<Value>)]) {}
        }
        world.dispatcher.add_sentry(Arc::new(Bridge(
            Arc::clone(&world.sink),
            Arc::clone(&world.metrics),
        )));
        InlineWrapperSentry { world }
    }

    /// Enable detection for a (class, method).
    pub fn monitor(&self, class: ClassId, method: MethodId) {
        self.world.dispatcher.monitor(class, method);
    }
}

impl SentryMechanism for InlineWrapperSentry {
    fn name(&self) -> &'static str {
        "inline-wrapper"
    }
    fn invoke(&self, txn: TxnId, oid: ObjectId, method: &str, args: &[Value]) -> Result<Value> {
        if self.world.metrics.on() {
            self.world.metrics.sentry.inline_invocations.inc();
        }
        self.world
            .dispatcher
            .invoke(&self.world.space, txn, oid, method, args)
    }
    fn traps_state_access(&self) -> bool {
        true // the object space's state sentries are part of the design
    }
    fn transparent(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// 2. Root-class trap
// ---------------------------------------------------------------------

/// Traps inherited from a conceptual root class. Every invocation — on
/// monitored and unmonitored classes alike — pays the "is my class
/// hierarchy trapped?" walk that inheritance-based traps impose, and
/// state access is invisible to it.
pub struct RootClassTrapSentry {
    world: SentryWorld,
    trapped: RwLock<FastSet<ClassId>>,
}

impl RootClassTrapSentry {
    pub fn new(world: SentryWorld) -> Self {
        RootClassTrapSentry {
            world,
            trapped: RwLock::new(FastSet::default()),
        }
    }

    /// Make `class` (conceptually) inherit the trap-bearing root class.
    pub fn trap_class(&self, class: ClassId) {
        self.trapped.write().insert(class);
    }
}

impl SentryMechanism for RootClassTrapSentry {
    fn name(&self) -> &'static str {
        "root-class-trap"
    }
    fn invoke(&self, txn: TxnId, oid: ObjectId, method: &str, args: &[Value]) -> Result<Value> {
        // The hierarchy walk happens on *every* call — this is the
        // mechanism's structural overhead (multiple-inheritance
        // indirection in the C++ rendering).
        let class = self.world.space.class_of(oid)?;
        let lineage = self.world.space.schema().lineage(class)?;
        let trapped = {
            let set = self.trapped.read();
            lineage.iter().any(|c| set.contains(c))
        };
        if self.world.metrics.on() {
            self.world.metrics.sentry.trap_invocations.inc();
            if trapped {
                self.world.metrics.sentry.trap_detections.inc();
            }
        }
        if trapped {
            self.world.sink.on_detected(txn, oid, method);
        }
        self.world
            .dispatcher
            .invoke(&self.world.space, txn, oid, method, args)
    }
    fn traps_state_access(&self) -> bool {
        false // public state bypasses member functions (§6.2)
    }
    fn transparent(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// 3. Surrogate object
// ---------------------------------------------------------------------

/// A surrogate "stands in for some other object ... intercepts all
/// messages directed at the actual object". Calls go to the surrogate
/// id and are forwarded after detection; touching the real object's
/// state directly bypasses the surrogate entirely — the semantic hole
/// §6.2 calls out.
pub struct SurrogateSentry {
    world: SentryWorld,
    forward: RwLock<FastMap<ObjectId, ObjectId>>,
}

impl SurrogateSentry {
    pub fn new(world: SentryWorld) -> Self {
        SurrogateSentry {
            world,
            forward: RwLock::new(FastMap::default()),
        }
    }

    /// Create a surrogate id for `real`; calls through the surrogate are
    /// detected.
    pub fn wrap(&self, surrogate: ObjectId, real: ObjectId) {
        self.forward.write().insert(surrogate, real);
    }
}

impl SentryMechanism for SurrogateSentry {
    fn name(&self) -> &'static str {
        "surrogate"
    }
    fn invoke(&self, txn: TxnId, oid: ObjectId, method: &str, args: &[Value]) -> Result<Value> {
        // Every call pays the identity-map lookup.
        let target = {
            let map = self.forward.read();
            map.get(&oid).copied()
        };
        if self.world.metrics.on() {
            self.world.metrics.sentry.surrogate_invocations.inc();
            if target.is_some() {
                self.world.metrics.sentry.surrogate_detections.inc();
            }
        }
        let real = match target {
            Some(real) => {
                self.world.sink.on_detected(txn, real, method);
                real
            }
            None => oid,
        };
        self.world
            .dispatcher
            .invoke(&self.world.space, txn, real, method, args)
    }
    fn traps_state_access(&self) -> bool {
        false
    }
    fn transparent(&self) -> bool {
        true // same call syntax, but only via the surrogate handle
    }
}

// ---------------------------------------------------------------------
// 4. Announce (application-signalled events)
// ---------------------------------------------------------------------

/// No detection at all: the application must call
/// [`AnnounceSentry::announce`] at each interesting point. Zero idle
/// overhead, zero transparency — "forces applications to announce the
/// events ... clutters a program" (§6.2).
pub struct AnnounceSentry {
    world: SentryWorld,
}

impl AnnounceSentry {
    pub fn new(world: SentryWorld) -> Self {
        AnnounceSentry { world }
    }

    /// The explicit announcement the application must remember to make.
    pub fn announce(&self, txn: TxnId, oid: ObjectId, method: &str) {
        if self.world.metrics.on() {
            self.world.metrics.sentry.announce_detections.inc();
        }
        self.world.sink.on_detected(txn, oid, method);
    }
}

impl SentryMechanism for AnnounceSentry {
    fn name(&self) -> &'static str {
        "announce"
    }
    fn invoke(&self, txn: TxnId, oid: ObjectId, method: &str, args: &[Value]) -> Result<Value> {
        self.world
            .dispatcher
            .invoke(&self.world.space, txn, oid, method, args)
    }
    fn traps_state_access(&self) -> bool {
        false
    }
    fn transparent(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_common::sync::Mutex;
    use reach_object::{ClassBuilder, MethodRegistry, Schema};

    struct Counter(Mutex<usize>);
    impl EventSink for Counter {
        fn on_detected(&self, _t: TxnId, _o: ObjectId, _m: &str) {
            *self.0.lock() += 1;
        }
    }

    fn world() -> (SentryWorld, Arc<Counter>, ClassId, MethodId, ObjectId) {
        let schema = Arc::new(Schema::new());
        let (b, m) = ClassBuilder::new(&schema, "Thing").virtual_method("touch");
        let class = b.define().unwrap();
        let methods = Arc::new(MethodRegistry::new());
        methods.register_fn(m, |_| Ok(Value::Null));
        let space = Arc::new(ObjectSpace::new(Arc::clone(&schema)));
        let dispatcher = Arc::new(Dispatcher::new(Arc::clone(&schema), methods));
        let oid = space.create(TxnId::NULL, class).unwrap();
        let sink = Arc::new(Counter(Mutex::new(0)));
        (
            SentryWorld {
                space,
                dispatcher,
                sink: Arc::clone(&sink) as Arc<dyn EventSink>,
                metrics: MetricsRegistry::new_shared(),
            },
            sink,
            class,
            m,
            oid,
        )
    }

    #[test]
    fn inline_wrapper_detects_only_monitored() {
        let (w, sink, class, m, oid) = world();
        let s = InlineWrapperSentry::new(w);
        s.invoke(TxnId::NULL, oid, "touch", &[]).unwrap();
        assert_eq!(*sink.0.lock(), 0);
        s.monitor(class, m);
        s.invoke(TxnId::NULL, oid, "touch", &[]).unwrap();
        assert_eq!(*sink.0.lock(), 1);
        assert!(s.traps_state_access() && s.transparent());
    }

    #[test]
    fn root_class_trap_detects_trapped_hierarchy() {
        let (w, sink, class, _m, oid) = world();
        let s = RootClassTrapSentry::new(w);
        s.invoke(TxnId::NULL, oid, "touch", &[]).unwrap();
        assert_eq!(*sink.0.lock(), 0);
        s.trap_class(class);
        s.invoke(TxnId::NULL, oid, "touch", &[]).unwrap();
        assert_eq!(*sink.0.lock(), 1);
        assert!(!s.traps_state_access());
    }

    #[test]
    fn surrogate_detects_through_handle_only() {
        let (w, sink, _class, _m, oid) = world();
        let s = SurrogateSentry::new(w);
        let handle = ObjectId::new(999_999);
        s.wrap(handle, oid);
        // Through the surrogate: detected and forwarded.
        s.invoke(TxnId::NULL, handle, "touch", &[]).unwrap();
        assert_eq!(*sink.0.lock(), 1);
        // Direct call on the real object: silent — the semantic hole.
        s.invoke(TxnId::NULL, oid, "touch", &[]).unwrap();
        assert_eq!(*sink.0.lock(), 1);
    }

    #[test]
    fn mechanisms_report_useful_and_useless_work() {
        let (w, _sink, class, _m, oid) = world();
        let metrics = Arc::clone(&w.metrics);
        metrics.enable();
        let s = RootClassTrapSentry::new(w);
        s.invoke(TxnId::NULL, oid, "touch", &[]).unwrap(); // useless walk
        s.trap_class(class);
        s.invoke(TxnId::NULL, oid, "touch", &[]).unwrap(); // useful
        assert_eq!(metrics.sentry.trap_invocations.get(), 2);
        assert_eq!(metrics.sentry.trap_detections.get(), 1);
        let snap = metrics.snapshot();
        // Mechanism order in the snapshot: inline, trap, surrogate, announce.
        assert_eq!(snap.sentry_useful[1], 1);
        assert_eq!(snap.sentry_useless[1], 1);
    }

    #[test]
    fn announce_detects_nothing_by_itself() {
        let (w, sink, _class, _m, oid) = world();
        let s = AnnounceSentry::new(w);
        s.invoke(TxnId::NULL, oid, "touch", &[]).unwrap();
        assert_eq!(*sink.0.lock(), 0);
        s.announce(TxnId::NULL, oid, "touch");
        assert_eq!(*sink.0.lock(), 1);
        assert!(!s.transparent());
    }
}
