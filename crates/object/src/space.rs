//! The object space: resident object state, creation/deletion, and the
//! *state-change sentry* hook.
//!
//! §4 reports that on the closed commercial systems "changes of state
//! could not be detected as events" because value access bypasses any
//! layer the integrator controls. In the integrated architecture the
//! object space *is* ours, so every `set_attr` runs the registered
//! [`StateSentry`] chain — this is the low-level mechanism behind
//! REACH's planned state-change event class (§3.1).
//!
//! Change tracking cannot ride that chain: sentries run after the
//! write lock is released, and a lock-free snapshot reader that finds a
//! changed object must also find the change's undo entry. So the space
//! has one [`UndoLog`], told of every mutation under the lock.
//!
//! The space also exposes the two hook points the Persistence PM plugs
//! into: a *fault handler* (called when a non-resident object is
//! dereferenced — the moral equivalent of Open OODB's virtual-memory
//! sentry for residency) and persistence marking (§3.2's rule that only
//! references to *persistent* objects may cross into detached rules).

use crate::extent::ExtentRegistry;
use crate::schema::Schema;
use crate::value::Value;
use reach_common::codec::{put_u32, put_u64, Reader};
use reach_common::sync::RwLock;
use reach_common::{ClassId, FastMap, FastSet, IdGen, ObjectId, ReachError, Result, TxnId};
use std::sync::{Arc, OnceLock};

/// The resident state of one object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectState {
    pub class: ClassId,
    pub attrs: Vec<Value>,
}

impl ObjectState {
    /// Append the stored form: class id, attribute count, then each
    /// attribute value ([`Value::encode_into`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.class.raw());
        put_u32(out, self.attrs.len() as u32);
        for v in &self.attrs {
            v.encode_into(out);
        }
    }

    /// Read the form [`ObjectState::encode_into`] writes.
    pub fn read(r: &mut Reader<'_>) -> Result<Self> {
        let class = ClassId::new(r.u64()?);
        // Every value is at least its tag byte.
        let n = r.count(1)?;
        let mut attrs = Vec::with_capacity(n);
        for _ in 0..n {
            attrs.push(Value::read(r)?);
        }
        Ok(ObjectState { class, attrs })
    }
}

/// What a state sentry observes on every attribute write. It borrows
/// from the write itself, so running the chain copies nothing: a
/// sentry that keeps a value (an undo entry, an index key) clones what
/// it keeps.
#[derive(Debug, Clone, Copy)]
pub struct StateChange<'a> {
    pub txn: TxnId,
    pub oid: ObjectId,
    pub class: ClassId,
    /// The attribute's slot in the class's flattened layout.
    pub slot: usize,
    pub attribute: &'a str,
    pub old: &'a Value,
    pub new: &'a Value,
}

/// Observer of attribute writes (the state-change event detector).
pub trait StateSentry: Send + Sync {
    fn on_change(&self, change: &StateChange<'_>);
}

/// Observer of object lifecycle: constructor/destructor events. The
/// paper treats these as method events ("invocation of the destructor
/// methods can be detected by the event detector"); indexing and change
/// tracking subscribe here too.
pub trait LifecycleSentry: Send + Sync {
    /// A new object became resident. `txn` is `TxnId::NULL` for
    /// system-internal installs (fault-in, undo restores).
    fn on_create(&self, txn: TxnId, oid: ObjectId, state: &ObjectState);
    /// An object was deleted (not merely evicted).
    fn on_delete(&self, txn: TxnId, oid: ObjectId, state: &ObjectState);
}

/// Write-ahead change tracking: told of each mutation while the space
/// still holds its write lock, so no reader sees the new state before
/// the undo entry exists. `txn` is `TxnId::NULL` for system-internal
/// mutations (compensations, fault-in).
pub trait UndoLog: Send + Sync {
    /// Slot `slot` of `oid` is about to be overwritten; `old` is its value.
    fn on_write(&self, txn: TxnId, oid: ObjectId, slot: usize, old: &Value);
    /// `oid` is being created.
    fn on_create(&self, txn: TxnId, oid: ObjectId);
    /// `oid` has been deleted; `state` was its state and `persistent`
    /// its persistent mark, both gone from the space now.
    fn on_delete(&self, txn: TxnId, oid: ObjectId, state: &ObjectState, persistent: bool);
}

/// Handler invoked when a dereferenced object is not resident; returns
/// its state if it exists in stable storage (the persistence fault).
pub type FaultHandler = Arc<dyn Fn(ObjectId) -> Result<Option<ObjectState>> + Send + Sync>;

/// The in-memory home of all resident objects.
pub struct ObjectSpace {
    schema: Arc<Schema>,
    extents: Arc<ExtentRegistry>,
    objects: RwLock<FastMap<ObjectId, ObjectState>>,
    persistent: RwLock<FastSet<ObjectId>>,
    /// Sentry lists are registered once and read on every write, so a
    /// reader snapshots the `Arc` and registration swaps in a new Vec
    /// (copy-on-write).
    state_sentries: RwLock<Arc<Vec<Arc<dyn StateSentry>>>>,
    lifecycle_sentries: RwLock<Arc<Vec<Arc<dyn LifecycleSentry>>>>,
    undo_log: OnceLock<Arc<dyn UndoLog>>,
    fault: RwLock<Option<FaultHandler>>,
    ids: IdGen,
    /// `(residue, stride)` of the oid partition this space allocates
    /// from; `(0, 1)` (single-node) makes every oid local.
    partition: RwLock<(u64, u64)>,
}

impl ObjectSpace {
    pub fn new(schema: Arc<Schema>) -> Self {
        ObjectSpace {
            schema,
            extents: Arc::new(ExtentRegistry::new()),
            objects: RwLock::new(FastMap::default()),
            persistent: RwLock::new(FastSet::default()),
            state_sentries: RwLock::new(Arc::default()),
            lifecycle_sentries: RwLock::new(Arc::default()),
            undo_log: OnceLock::new(),
            fault: RwLock::new(None),
            ids: IdGen::new(),
            partition: RwLock::new((0, 1)),
        }
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub fn extents(&self) -> &Arc<ExtentRegistry> {
        &self.extents
    }

    /// Install the persistence fault handler (Persistence PM).
    pub fn set_fault_handler(&self, h: FaultHandler) {
        *self.fault.write() = Some(h);
    }

    /// Restrict oid allocation to the residue class `residue` modulo
    /// `stride`. A sharded deployment calls this with its shard index
    /// and the shard count so `oid % shards` names the owning shard —
    /// the partition function and the allocator agree by construction,
    /// and the assignment is stable across restarts because it depends
    /// only on the oid value.
    pub fn configure_oid_allocation(&self, residue: u64, stride: u64) {
        self.ids.configure_residue(residue, stride);
        *self.partition.write() = (residue, stride.max(1));
    }

    /// Whether `oid` belongs to this space's partition. Always true on
    /// a single node; in a sharded deployment a foreign oid is owned —
    /// and its persistence tracked — by another shard's space.
    pub fn is_local(&self, oid: ObjectId) -> bool {
        let (residue, stride) = *self.partition.read();
        stride <= 1 || oid.raw() % stride == residue
    }

    /// Register a state-change sentry.
    pub fn add_state_sentry(&self, s: Arc<dyn StateSentry>) {
        Arc::make_mut(&mut self.state_sentries.write()).push(s);
    }

    /// Register a lifecycle (constructor/destructor) sentry.
    pub fn add_lifecycle_sentry(&self, s: Arc<dyn LifecycleSentry>) {
        Arc::make_mut(&mut self.lifecycle_sentries.write()).push(s);
    }

    /// Install the undo log (the Change PM). A space has at most one.
    pub fn set_undo_log(&self, log: Arc<dyn UndoLog>) {
        if self.undo_log.set(log).is_err() {
            panic!("the object space already has an undo log");
        }
    }

    // ---- lifecycle ----

    /// Create an object with the class defaults.
    pub fn create(&self, txn: TxnId, class: ClassId) -> Result<ObjectId> {
        let attrs = self.schema.defaults(class)?;
        Ok(self.install(txn, class, attrs))
    }

    /// Create an object overriding named attributes.
    pub fn create_with(
        &self,
        txn: TxnId,
        class: ClassId,
        overrides: &[(&str, Value)],
    ) -> Result<ObjectId> {
        let mut attrs = self.schema.defaults(class)?;
        for (name, value) in overrides {
            let (slot, ty) = self.schema.attr_slot_type(class, name)?;
            value.check_type(ty)?;
            attrs[slot] = value.clone();
        }
        Ok(self.install(txn, class, attrs))
    }

    fn install(&self, txn: TxnId, class: ClassId, attrs: Vec<Value>) -> ObjectId {
        let oid: ObjectId = self.ids.next();
        let state = ObjectState { class, attrs };
        {
            let mut objects = self.objects.write();
            if let Some(log) = self.undo_log.get() {
                log.on_create(txn, oid);
            }
            objects.insert(oid, state.clone());
        }
        self.extents.register(class, oid);
        self.fire_lifecycle(txn, oid, &state, true);
        oid
    }

    /// Install a known object (persistence fault-in, undo of a delete)
    /// unless it is resident by now: two threads can fault the same
    /// object in at once, and the second must not overwrite what the
    /// first has written since. The caller owns id uniqueness.
    /// Lifecycle sentries fire with `TxnId::NULL` so change tracking
    /// ignores the install while indexes stay consistent.
    pub fn install_existing(&self, oid: ObjectId, state: ObjectState) {
        {
            let mut objects = self.objects.write();
            if objects.contains_key(&oid) {
                return;
            }
            objects.insert(oid, state.clone());
        }
        self.ids_advance_past(oid);
        self.extents.register(state.class, oid);
        self.fire_lifecycle(TxnId::NULL, oid, &state, true);
    }

    fn fire_lifecycle(&self, txn: TxnId, oid: ObjectId, state: &ObjectState, create: bool) {
        let sentries = Arc::clone(&self.lifecycle_sentries.read());
        for s in sentries.iter() {
            if create {
                s.on_create(txn, oid, state);
            } else {
                s.on_delete(txn, oid, state);
            }
        }
    }

    /// Never issue `oid` (or a smaller id) again: it names an installed
    /// or a stored object.
    pub fn ids_advance_past(&self, oid: ObjectId) {
        while self.ids.peek() <= oid.raw() {
            self.ids.next_raw();
        }
    }

    /// Delete an object. Returns its last state (destructor arguments).
    pub fn delete(&self, txn: TxnId, oid: ObjectId) -> Result<ObjectState> {
        // A stored object is deleted like a resident one.
        self.ensure_resident(oid)?;
        let state = {
            let mut objects = self.objects.write();
            let state = objects
                .remove(&oid)
                .ok_or(ReachError::ObjectNotFound(oid))?;
            let persistent = self.persistent.write().remove(&oid);
            if let Some(log) = self.undo_log.get() {
                log.on_delete(txn, oid, &state, persistent);
            }
            state
        };
        self.extents.unregister(state.class, oid);
        self.fire_lifecycle(txn, oid, &state, false);
        Ok(state)
    }

    /// Evict a resident object without deleting it (persistence owns the
    /// truth; next dereference faults it back in).
    pub fn evict(&self, oid: ObjectId) -> Result<ObjectState> {
        let state = self
            .objects
            .write()
            .remove(&oid)
            .ok_or(ReachError::ObjectNotFound(oid))?;
        self.extents.unregister(state.class, oid);
        Ok(state)
    }

    /// Whether the object is currently resident (no fault attempted).
    pub fn is_resident(&self, oid: ObjectId) -> bool {
        self.objects.read().contains_key(&oid)
    }

    /// Mark an object persistent (Persistence PM bookkeeping).
    pub fn mark_persistent(&self, oid: ObjectId) {
        self.persistent.write().insert(oid);
    }

    /// Drop an object's persistent mark (an undone persist).
    pub fn unmark_persistent(&self, oid: ObjectId) {
        self.persistent.write().remove(&oid);
    }

    /// §3.2: only persistent objects may be passed by reference into
    /// detached rule executions.
    pub fn is_persistent(&self, oid: ObjectId) -> bool {
        self.persistent.read().contains(&oid)
    }

    /// Ensure the object is resident, running the fault handler if not.
    fn ensure_resident(&self, oid: ObjectId) -> Result<()> {
        if self.objects.read().contains_key(&oid) {
            return Ok(());
        }
        let handler = self.fault.read().clone();
        if let Some(h) = handler {
            if let Some(state) = h(oid)? {
                self.install_existing(oid, state);
                return Ok(());
            }
        }
        Err(ReachError::ObjectNotFound(oid))
    }

    // ---- attribute access ----

    /// The object's class.
    pub fn class_of(&self, oid: ObjectId) -> Result<ClassId> {
        self.ensure_resident(oid)?;
        Ok(self.objects.read()[&oid].class)
    }

    /// Read an attribute by name.
    pub fn get_attr(&self, oid: ObjectId, name: &str) -> Result<Value> {
        self.ensure_resident(oid)?;
        let objects = self.objects.read();
        let state = objects.get(&oid).ok_or(ReachError::ObjectNotFound(oid))?;
        let slot = self.schema.attr_slot(state.class, name)?;
        Ok(state.attrs[slot].clone())
    }

    /// Write an attribute by name, running the state-sentry chain.
    pub fn set_attr(&self, txn: TxnId, oid: ObjectId, name: &str, value: Value) -> Result<()> {
        self.ensure_resident(oid)?;
        let (class, slot, old) = {
            let mut objects = self.objects.write();
            let state = objects
                .get_mut(&oid)
                .ok_or(ReachError::ObjectNotFound(oid))?;
            let (slot, ty) = self.schema.attr_slot_type(state.class, name)?;
            value.check_type(ty)?;
            if let Some(log) = self.undo_log.get() {
                log.on_write(txn, oid, slot, &state.attrs[slot]);
            }
            let old = std::mem::replace(&mut state.attrs[slot], value.clone());
            (state.class, slot, old)
        };
        let change = StateChange {
            txn,
            oid,
            class,
            slot,
            attribute: name,
            old: &old,
            new: &value,
        };
        let sentries = Arc::clone(&self.state_sentries.read());
        for s in sentries.iter() {
            s.on_change(&change);
        }
        Ok(())
    }

    /// Clone the full state (persistence write-out).
    pub fn snapshot(&self, oid: ObjectId) -> Result<ObjectState> {
        self.ensure_resident(oid)?;
        self.objects
            .read()
            .get(&oid)
            .cloned()
            .ok_or(ReachError::ObjectNotFound(oid))
    }

    /// Number of resident objects.
    pub fn resident_count(&self) -> usize {
        self.objects.read().len()
    }
}

impl std::fmt::Debug for ObjectSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectSpace")
            .field("resident", &self.resident_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ClassBuilder;
    use crate::value::ValueType;
    use reach_common::sync::Mutex;
    use std::collections::HashMap;

    fn setup() -> (Arc<Schema>, ObjectSpace, ClassId) {
        let schema = Arc::new(Schema::new());
        let class = ClassBuilder::new(&schema, "Point")
            .attr("x", ValueType::Int, Value::Int(0))
            .attr("y", ValueType::Int, Value::Int(0))
            .define()
            .unwrap();
        let space = ObjectSpace::new(Arc::clone(&schema));
        (schema, space, class)
    }

    #[test]
    fn create_uses_defaults_and_registers_extent() {
        let (_, space, class) = setup();
        let oid = space.create(TxnId::NULL, class).unwrap();
        assert_eq!(space.get_attr(oid, "x").unwrap(), Value::Int(0));
        assert_eq!(space.extents().extent(class), vec![oid]);
        assert!(space.is_resident(oid));
    }

    #[test]
    fn create_with_overrides_typechecks() {
        let (_, space, class) = setup();
        let oid = space
            .create_with(TxnId::NULL, class, &[("x", Value::Int(7))])
            .unwrap();
        assert_eq!(space.get_attr(oid, "x").unwrap(), Value::Int(7));
        assert!(space
            .create_with(TxnId::NULL, class, &[("x", Value::Str("no".into()))])
            .is_err());
    }

    #[test]
    fn set_attr_runs_state_sentries() {
        let (_, space, class) = setup();
        let oid = space.create(TxnId::NULL, class).unwrap();
        type Seen = (TxnId, usize, String, Value, Value);
        let seen: Arc<Mutex<Vec<Seen>>> = Arc::new(Mutex::new(Vec::new()));
        struct Recorder(Arc<Mutex<Vec<Seen>>>);
        impl StateSentry for Recorder {
            fn on_change(&self, c: &StateChange<'_>) {
                self.0.lock().push((
                    c.txn,
                    c.slot,
                    c.attribute.to_string(),
                    c.old.clone(),
                    c.new.clone(),
                ));
            }
        }
        space.add_state_sentry(Arc::new(Recorder(Arc::clone(&seen))));
        space
            .set_attr(TxnId::new(3), oid, "y", Value::Int(12))
            .unwrap();
        assert_eq!(
            *seen.lock(),
            vec![(
                TxnId::new(3),
                1,
                "y".to_string(),
                Value::Int(0),
                Value::Int(12)
            )]
        );
    }

    #[test]
    fn delete_unregisters_and_errors_afterwards() {
        let (_, space, class) = setup();
        let oid = space.create(TxnId::NULL, class).unwrap();
        let state = space.delete(TxnId::NULL, oid).unwrap();
        assert_eq!(state.class, class);
        assert!(space.get_attr(oid, "x").is_err());
        assert!(space.extents().extent(class).is_empty());
    }

    #[test]
    fn fault_handler_revives_evicted_objects() {
        let (_, space, class) = setup();
        let oid = space.create(TxnId::NULL, class).unwrap();
        space
            .set_attr(TxnId::NULL, oid, "x", Value::Int(5))
            .unwrap();
        let stored = Arc::new(Mutex::new(HashMap::<ObjectId, ObjectState>::new()));
        // "Persist", then evict.
        stored.lock().insert(oid, space.snapshot(oid).unwrap());
        space.evict(oid).unwrap();
        assert!(!space.is_resident(oid));
        let backing = Arc::clone(&stored);
        space.set_fault_handler(Arc::new(move |o| Ok(backing.lock().get(&o).cloned())));
        // Dereference faults it back in transparently.
        assert_eq!(space.get_attr(oid, "x").unwrap(), Value::Int(5));
        assert!(space.is_resident(oid));
    }

    #[test]
    fn missing_object_without_handler_errors() {
        let (_, space, _) = setup();
        assert!(matches!(
            space.get_attr(ObjectId::new(404), "x"),
            Err(ReachError::ObjectNotFound(_))
        ));
    }

    #[test]
    fn persistence_marking() {
        let (_, space, class) = setup();
        let oid = space.create(TxnId::NULL, class).unwrap();
        assert!(!space.is_persistent(oid));
        space.mark_persistent(oid);
        assert!(space.is_persistent(oid));
        space.delete(TxnId::NULL, oid).unwrap();
        assert!(!space.is_persistent(oid));
    }

    #[test]
    fn object_state_encoding_round_trips() {
        let st = ObjectState {
            class: ClassId::new(9),
            attrs: vec![Value::Int(1), Value::Str("s".into()), Value::Null],
        };
        let mut enc = Vec::new();
        st.encode_into(&mut enc);
        let mut r = Reader::new(&enc, ReachError::Io);
        assert_eq!(ObjectState::read(&mut r).unwrap(), st);
        r.finish().unwrap();
        let mut r = Reader::new(&enc[..5], ReachError::Io);
        assert!(ObjectState::read(&mut r).is_err());
    }
}
