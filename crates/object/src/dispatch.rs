//! The dispatcher — where the sentry lives.
//!
//! Every method invocation — [`Dispatcher::invoke`], the batch of one,
//! and [`Dispatcher::invoke_batch`] — flows through one dispatch body.
//! Per call:
//!
//! 1. resolve the method through the receiver class's vtable (virtual
//!    dispatch);
//! 2. if the (class, method) pair is *monitored*, run the `Before`
//!    sentry chain — this raises the `before m()` primitive event;
//! 3. execute the body;
//!
//! and once the batch has run (or stopped at an error):
//!
//! 4. hand the monitored calls and their results to the `After` chain —
//!    `after m()`.
//!
//! This is the in-line-wrapper design of §6.2 translated to a runtime
//! dispatcher: *unmonitored* invocations pay one relaxed atomic load
//! (the paper's "useless overhead" must be negligible), monitored ones
//! pay the chain. The monitoring set is mutable at runtime, fulfilling
//! §6.1's requirement that "it is not always known in advance which
//! events may be of interest" — types are never declared differently to
//! become monitorable.

use crate::method::{MethodCtx, MethodRegistry};
use crate::schema::Schema;
use crate::space::ObjectSpace;
use crate::value::{Args, Value};
use reach_common::sync::RwLock;
use reach_common::{ClassId, FastSet, MethodId, ObjectId, Result, Timestamp, TxnId};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Which side of the invocation a sentry observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SentryPhase {
    Before,
    After,
}

/// The observed invocation.
#[derive(Debug, Clone)]
pub struct MethodCall {
    pub txn: TxnId,
    pub receiver: ObjectId,
    pub class: ClassId,
    pub method: MethodId,
    pub method_name: Arc<str>,
    /// Shared argument payload — one copy per invocation, refcounted
    /// into every occurrence raised for it.
    pub args: Args,
    /// Monotonic sequence number — the event timestamp source.
    pub seq: Timestamp,
}

/// Observer of method invocations (the method-event detector).
pub trait MethodSentry: Send + Sync {
    /// Called before the body runs. Returning an error vetoes the call —
    /// used by immediate-coupled rules that abort the transaction.
    fn before(&self, call: &MethodCall) -> Result<()>;
    /// Called once per dispatch with every monitored call that ran and
    /// its result, in invocation order: one element for
    /// [`Dispatcher::invoke`], the whole batch for
    /// [`Dispatcher::invoke_batch`].
    fn after(&self, calls: &[(MethodCall, Result<Value>)]);
}

/// What a (class, method name) pair resolved to, cached across a run of
/// equal pairs in a batch.
struct Resolved<'a> {
    class: ClassId,
    name: &'a str,
    method: MethodId,
    body: crate::method::MethodBody,
    /// The name as carried by [`MethodCall`]; `Some` iff monitored.
    shared_name: Option<Arc<str>>,
}

/// Virtual-dispatch engine with the sentry interception point.
pub struct Dispatcher {
    schema: Arc<Schema>,
    methods: Arc<MethodRegistry>,
    sentries: RwLock<Vec<Arc<dyn MethodSentry>>>,
    /// (class, method) pairs currently monitored.
    monitored: RwLock<FastSet<(ClassId, MethodId)>>,
    /// Fast-path gate: number of monitored pairs. When zero, invoke()
    /// costs one relaxed load beyond the plain dispatch.
    monitor_count: AtomicUsize,
    seq: AtomicU64,
}

impl Dispatcher {
    pub fn new(schema: Arc<Schema>, methods: Arc<MethodRegistry>) -> Self {
        Dispatcher {
            schema,
            methods,
            sentries: RwLock::new(Vec::new()),
            monitored: RwLock::new(FastSet::default()),
            monitor_count: AtomicUsize::new(0),
            seq: AtomicU64::new(1),
        }
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub fn methods(&self) -> &Arc<MethodRegistry> {
        &self.methods
    }

    /// Install a sentry (the REACH primitive-event detector registers
    /// itself here).
    pub fn add_sentry(&self, s: Arc<dyn MethodSentry>) {
        self.sentries.write().push(s);
    }

    /// Start monitoring invocations of `method` on `class` (and, through
    /// vtable resolution, on receivers of any subclass that inherits this
    /// implementation).
    pub fn monitor(&self, class: ClassId, method: MethodId) {
        if self.monitored.write().insert((class, method)) {
            self.monitor_count.fetch_add(1, Ordering::Release);
        }
    }

    /// Stop monitoring a pair.
    pub fn unmonitor(&self, class: ClassId, method: MethodId) {
        if self.monitored.write().remove(&(class, method)) {
            self.monitor_count.fetch_sub(1, Ordering::Release);
        }
    }

    /// Whether the pair is monitored right now.
    pub fn is_monitored(&self, class: ClassId, method: MethodId) -> bool {
        self.monitor_count.load(Ordering::Acquire) > 0
            && self.monitored.read().contains(&(class, method))
    }

    /// Invoke `method_name` on `receiver` within `txn`: the batch of one.
    pub fn invoke(
        &self,
        space: &ObjectSpace,
        txn: TxnId,
        receiver: ObjectId,
        method_name: &str,
        args: &[Value],
    ) -> Result<Value> {
        let mut result = None;
        self.dispatch(space, txn, &[(receiver, method_name, args)], |v| {
            result = Some(v)
        })?;
        Ok(result.expect("one call, one result"))
    }

    /// Invoke a batch of calls within `txn`, raising the monitored
    /// after-events **once at the end of the batch** instead of after
    /// each body. Results come back in call order.
    pub fn invoke_batch(
        &self,
        space: &ObjectSpace,
        txn: TxnId,
        calls: &[(ObjectId, &str, &[Value])],
    ) -> Result<Vec<Value>> {
        let mut results = Vec::with_capacity(calls.len());
        self.dispatch(space, txn, calls, |v| results.push(v))?;
        Ok(results)
    }

    /// The one dispatch body: run `calls` in order, handing each
    /// body's value to `emit`.
    ///
    /// Per call, before-sentries run (and can veto) immediately before
    /// the body. The after-event of call *i* is observed only after
    /// every body of the batch has run (or the batch stopped at an
    /// error). The first error ends the batch; after-events of the
    /// calls that already ran — including the failing one, whose
    /// `after` sees the `Err` result — are still raised.
    fn dispatch(
        &self,
        space: &ObjectSpace,
        txn: TxnId,
        calls: &[(ObjectId, &str, &[Value])],
        mut emit: impl FnMut(Value),
    ) -> Result<()> {
        let mut ran: Vec<(MethodCall, Result<Value>)> = Vec::new();
        let mut sentries: Option<Vec<Arc<dyn MethodSentry>>> = None;
        let outcome = (|| -> Result<()> {
            // Resolution cache for a run of calls sharing (class, method
            // name) — the common batch shape is one method over
            // receivers of one class, where vtable resolution, body
            // lookup, the monitor test and the name Arc are all
            // per-call repeats of the same answer. A monitor()/
            // unmonitor() racing the batch may be observed only from
            // the next resolution run, exactly as a racing per-call
            // loop may observe it only from some call onward.
            let mut resolved: Option<Resolved<'_>> = None;
            for &(receiver, method_name, args) in calls {
                let class = space.class_of(receiver)?;
                let r = match &resolved {
                    Some(r) if r.class == class && r.name == method_name => r,
                    _ => {
                        let method = self.schema.resolve_method(class, method_name)?;
                        // Unmonitored calls stop here: no sentry
                        // bookkeeping beyond the one load.
                        let monitored = self.monitor_count.load(Ordering::Acquire) > 0
                            && self.monitor_hit(class, method);
                        resolved.insert(Resolved {
                            class,
                            name: method_name,
                            method,
                            body: self.methods.body(method)?,
                            shared_name: monitored.then(|| Arc::from(method_name)),
                        })
                    }
                };
                let ctx = MethodCtx {
                    space,
                    dispatcher: self,
                    txn,
                    self_oid: receiver,
                    args,
                };
                let Some(name) = &r.shared_name else {
                    emit((r.body)(&ctx)?);
                    continue;
                };
                let call = MethodCall {
                    txn,
                    receiver,
                    class,
                    method: r.method,
                    method_name: Arc::clone(name),
                    args: Args::copy_from(args),
                    seq: Timestamp::new(self.seq.fetch_add(1, Ordering::Relaxed)),
                };
                for s in sentries.get_or_insert_with(|| self.sentries.read().clone()) {
                    s.before(&call)?;
                }
                let result = (r.body)(&ctx);
                let value = result.clone();
                ran.push((call, result));
                emit(value?);
            }
            Ok(())
        })();
        if !ran.is_empty() {
            for s in sentries.iter().flatten() {
                s.after(&ran);
            }
        }
        outcome
    }

    /// Monitoring test that honours inheritance: the pair is monitored if
    /// the *resolved* method is monitored for the receiver class or any
    /// ancestor that declared interest in it.
    fn monitor_hit(&self, class: ClassId, method: MethodId) -> bool {
        let monitored = self.monitored.read();
        if monitored.contains(&(class, method)) {
            return true;
        }
        if let Ok(lineage) = self.schema.lineage(class) {
            for anc in lineage.into_iter().skip(1) {
                if monitored.contains(&(anc, method)) {
                    return true;
                }
            }
        }
        false
    }

    /// Number of monitored pairs (introspection).
    pub fn monitored_count(&self) -> usize {
        self.monitor_count.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("monitored", &self.monitored_count())
            .field("sentries", &self.sentries.read().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ClassBuilder;
    use crate::value::ValueType;
    use reach_common::sync::Mutex;

    struct Recorder {
        calls: Mutex<Vec<(SentryPhase, String)>>,
    }
    impl MethodSentry for Recorder {
        fn before(&self, call: &MethodCall) -> Result<()> {
            self.calls
                .lock()
                .push((SentryPhase::Before, call.method_name.to_string()));
            Ok(())
        }
        fn after(&self, calls: &[(MethodCall, Result<Value>)]) {
            let mut seen = self.calls.lock();
            for (call, _result) in calls {
                seen.push((SentryPhase::After, call.method_name.to_string()));
            }
        }
    }

    /// Vetoes every call of the named method.
    struct Veto(&'static str);
    impl MethodSentry for Veto {
        fn before(&self, call: &MethodCall) -> Result<()> {
            if &*call.method_name == self.0 {
                return Err(reach_common::ReachError::RuleEvaluation("vetoed".into()));
            }
            Ok(())
        }
        fn after(&self, _calls: &[(MethodCall, Result<Value>)]) {}
    }

    fn world() -> (Arc<Schema>, Arc<MethodRegistry>, ObjectSpace, Dispatcher) {
        let schema = Arc::new(Schema::new());
        let methods = Arc::new(MethodRegistry::new());
        let space = ObjectSpace::new(Arc::clone(&schema));
        let dispatcher = Dispatcher::new(Arc::clone(&schema), Arc::clone(&methods));
        (schema, methods, space, dispatcher)
    }

    #[test]
    fn basic_invocation_and_result() {
        let (schema, methods, space, disp) = world();
        let (b, inc) = ClassBuilder::new(&schema, "Counter")
            .attr("n", ValueType::Int, Value::Int(0))
            .virtual_method("inc");
        let class = b.define().unwrap();
        methods.register_fn(inc, |ctx| {
            let n = ctx.get("n")?.as_int()? + ctx.arg(0).as_int().unwrap_or(1);
            ctx.set("n", Value::Int(n))?;
            Ok(Value::Int(n))
        });
        let oid = space.create(TxnId::NULL, class).unwrap();
        let r = disp
            .invoke(&space, TxnId::new(1), oid, "inc", &[Value::Int(5)])
            .unwrap();
        assert_eq!(r, Value::Int(5));
        assert_eq!(space.get_attr(oid, "n").unwrap(), Value::Int(5));
    }

    #[test]
    fn virtual_override_dispatches_most_derived() {
        let (schema, methods, space, disp) = world();
        let (b, speak_base) = ClassBuilder::new(&schema, "Animal").virtual_method("speak");
        let base = b.define().unwrap();
        let (b, speak_dog) = ClassBuilder::new(&schema, "Dog").virtual_method("speak");
        let dog = b.base(base).define().unwrap();
        methods.register_fn(speak_base, |_| Ok(Value::Str("...".into())));
        methods.register_fn(speak_dog, |_| Ok(Value::Str("woof".into())));
        let a = space.create(TxnId::NULL, base).unwrap();
        let d = space.create(TxnId::NULL, dog).unwrap();
        assert_eq!(
            disp.invoke(&space, TxnId::NULL, a, "speak", &[]).unwrap(),
            Value::Str("...".into())
        );
        assert_eq!(
            disp.invoke(&space, TxnId::NULL, d, "speak", &[]).unwrap(),
            Value::Str("woof".into())
        );
    }

    #[test]
    fn inherited_method_runs_on_subclass_instance() {
        let (schema, methods, space, disp) = world();
        let (b, ping) = ClassBuilder::new(&schema, "Base").virtual_method("ping");
        let base = b.define().unwrap();
        let derived = ClassBuilder::new(&schema, "Derived")
            .base(base)
            .define()
            .unwrap();
        methods.register_fn(ping, |_| Ok(Value::Int(1)));
        let d = space.create(TxnId::NULL, derived).unwrap();
        assert_eq!(
            disp.invoke(&space, TxnId::NULL, d, "ping", &[]).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn sentries_fire_only_when_monitored() {
        let (schema, methods, space, disp) = world();
        let (b, m) = ClassBuilder::new(&schema, "Thing").virtual_method("touch");
        let class = b.define().unwrap();
        methods.register_fn(m, |_| Ok(Value::Null));
        let rec = Arc::new(Recorder {
            calls: Mutex::new(Vec::new()),
        });
        disp.add_sentry(Arc::clone(&rec) as Arc<dyn MethodSentry>);
        let oid = space.create(TxnId::NULL, class).unwrap();
        // Unmonitored: silent.
        disp.invoke(&space, TxnId::NULL, oid, "touch", &[]).unwrap();
        assert!(rec.calls.lock().is_empty());
        // Monitored: before + after.
        disp.monitor(class, m);
        disp.invoke(&space, TxnId::NULL, oid, "touch", &[]).unwrap();
        {
            let calls = rec.calls.lock();
            assert_eq!(
                *calls,
                vec![
                    (SentryPhase::Before, "touch".to_string()),
                    (SentryPhase::After, "touch".to_string())
                ]
            );
        }
        // Unmonitor: silent again.
        disp.unmonitor(class, m);
        disp.invoke(&space, TxnId::NULL, oid, "touch", &[]).unwrap();
        assert_eq!(rec.calls.lock().len(), 2);
    }

    #[test]
    fn monitoring_base_class_catches_subclass_receivers() {
        let (schema, methods, space, disp) = world();
        let (b, m) = ClassBuilder::new(&schema, "Base").virtual_method("go");
        let base = b.define().unwrap();
        let derived = ClassBuilder::new(&schema, "Derived")
            .base(base)
            .define()
            .unwrap();
        methods.register_fn(m, |_| Ok(Value::Null));
        let rec = Arc::new(Recorder {
            calls: Mutex::new(Vec::new()),
        });
        disp.add_sentry(Arc::clone(&rec) as Arc<dyn MethodSentry>);
        disp.monitor(base, m);
        let d = space.create(TxnId::NULL, derived).unwrap();
        disp.invoke(&space, TxnId::NULL, d, "go", &[]).unwrap();
        assert_eq!(rec.calls.lock().len(), 2);
    }

    #[test]
    fn sentry_veto_aborts_the_call() {
        let (schema, methods, space, disp) = world();
        let (b, m) = ClassBuilder::new(&schema, "Guarded").virtual_method("op");
        let class = b.define().unwrap();
        let ran = Arc::new(Mutex::new(false));
        let ran2 = Arc::clone(&ran);
        methods.register_fn(m, move |_| {
            *ran2.lock() = true;
            Ok(Value::Null)
        });
        disp.add_sentry(Arc::new(Veto("op")));
        disp.monitor(class, m);
        let oid = space.create(TxnId::NULL, class).unwrap();
        assert!(disp.invoke(&space, TxnId::NULL, oid, "op", &[]).is_err());
        assert!(!*ran.lock(), "vetoed body must not run");
    }

    #[test]
    fn nested_calls_are_dispatched() {
        let (schema, methods, space, disp) = world();
        let (b, outer) = ClassBuilder::new(&schema, "Pair")
            .attr("peer", ValueType::Ref, Value::Null)
            .virtual_method("outer");
        let (b, inner) = b.virtual_method("inner");
        let class = b.define().unwrap();
        methods.register_fn(outer, move |ctx| {
            let peer = ctx.get("peer")?.as_ref_id()?;
            ctx.call(peer, "inner", &[Value::Int(2)])
        });
        methods.register_fn(inner, |ctx| Ok(Value::Int(ctx.arg(0).as_int()? * 10)));
        let b_obj = space.create(TxnId::NULL, class).unwrap();
        let a_obj = space
            .create_with(TxnId::NULL, class, &[("peer", Value::Ref(b_obj))])
            .unwrap();
        assert_eq!(
            disp.invoke(&space, TxnId::NULL, a_obj, "outer", &[])
                .unwrap(),
            Value::Int(20)
        );
    }

    #[test]
    fn unknown_method_name_errors() {
        let (schema, _methods, space, disp) = world();
        let class = ClassBuilder::new(&schema, "Empty").define().unwrap();
        let oid = space.create(TxnId::NULL, class).unwrap();
        assert!(disp.invoke(&space, TxnId::NULL, oid, "ghost", &[]).is_err());
    }

    /// A recorded world with three monitored methods `a`, `b`, `c` on
    /// one object; `b`'s body fails when `b_fails`.
    fn abc(b_fails: bool) -> (ObjectSpace, Dispatcher, Arc<Recorder>, ObjectId) {
        let (schema, methods, space, disp) = world();
        let (builder, a) = ClassBuilder::new(&schema, "Abc").virtual_method("a");
        let (builder, b) = builder.virtual_method("b");
        let (builder, c) = builder.virtual_method("c");
        let class = builder.define().unwrap();
        methods.register_fn(a, |_| Ok(Value::Int(1)));
        methods.register_fn(b, move |_| {
            if b_fails {
                Err(reach_common::ReachError::RuleEvaluation("b failed".into()))
            } else {
                Ok(Value::Int(2))
            }
        });
        methods.register_fn(c, |_| Ok(Value::Int(3)));
        let rec = Arc::new(Recorder {
            calls: Mutex::new(Vec::new()),
        });
        disp.add_sentry(Arc::clone(&rec) as Arc<dyn MethodSentry>);
        for m in [a, b, c] {
            disp.monitor(class, m);
        }
        let oid = space.create(TxnId::NULL, class).unwrap();
        (space, disp, rec, oid)
    }

    fn seen(rec: &Recorder) -> Vec<(SentryPhase, String)> {
        std::mem::take(&mut *rec.calls.lock())
    }

    fn phase(p: SentryPhase, name: &str) -> (SentryPhase, String) {
        (p, name.to_string())
    }

    #[test]
    fn body_error_mid_batch_raises_after_for_every_call_that_ran() {
        let (space, disp, rec, oid) = abc(true);
        let calls: [(ObjectId, &str, &[Value]); 3] =
            [(oid, "a", &[]), (oid, "b", &[]), (oid, "c", &[])];
        assert!(disp.invoke_batch(&space, TxnId::NULL, &calls).is_err());
        use SentryPhase::{After, Before};
        assert_eq!(
            seen(&rec),
            vec![
                phase(Before, "a"),
                phase(Before, "b"),
                phase(After, "a"),
                phase(After, "b"), // the failing call's after sees its Err
            ],
            "nothing of `c`: the batch stopped at `b`"
        );
    }

    #[test]
    fn before_veto_mid_batch_still_raises_earlier_after_events() {
        let (space, disp, rec, oid) = abc(false);
        disp.add_sentry(Arc::new(Veto("b")));
        let calls: [(ObjectId, &str, &[Value]); 3] =
            [(oid, "a", &[]), (oid, "b", &[]), (oid, "c", &[])];
        assert!(disp.invoke_batch(&space, TxnId::NULL, &calls).is_err());
        use SentryPhase::{After, Before};
        assert_eq!(
            seen(&rec),
            vec![phase(Before, "a"), phase(Before, "b"), phase(After, "a")],
            "`b` was vetoed before its body, so it has no after-event"
        );
    }

    #[test]
    fn invoke_is_invoke_batch_of_one() {
        let (space, disp, rec, oid) = abc(false);
        let single = disp.invoke(&space, TxnId::NULL, oid, "b", &[]).unwrap();
        let single_seen = seen(&rec);
        let batch = disp
            .invoke_batch(&space, TxnId::NULL, &[(oid, "b", &[])])
            .unwrap();
        assert_eq!(batch, vec![single]);
        assert_eq!(seen(&rec), single_seen);
        assert_eq!(single_seen.len(), 2, "before + after");
    }
}
