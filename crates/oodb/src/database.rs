//! The assembled OODBMS: the facade REACH extends.
//!
//! [`Database`] wires together the schema, object space, dispatcher,
//! transaction manager, storage manager and every policy manager, and
//! plugs them all onto the meta-architecture bus. Its public surface is
//! what an Open OODB application sees: define classes, create objects,
//! invoke methods (sentried), run transactions, persist objects to named
//! roots, query extents.
//!
//! Concurrency control is strict 2PL at object granularity: method
//! invocations and attribute writes take exclusive locks, reads take
//! shared locks; all locks are held to end of (top-level) transaction.

use crate::dictionary::DataDictionary;
use crate::meta::{MetaArchitecture, PolicyManager};
use crate::pm::change::{Change, ChangePm};
use crate::pm::indexing::IndexingPm;
use crate::pm::persistence::PersistencePm;
use crate::pm::query::{Plan, QueryPm};
use crate::pm::snapshot::SnapshotPm;
use crate::pm::transaction::TransactionPm;
use reach_common::{ClassId, MetricsRegistry, ObjectId, ReachError, Result, TxnId, VirtualClock};
use reach_object::{ClassBuilder, Dispatcher, MethodRegistry, ObjectSpace, Schema, Value};
use reach_storage::StorageManager;
use reach_txn::{LockMode, ResourceManager, TransactionManager};
use std::path::Path;
use std::sync::Arc;

/// Configuration for a database instance.
#[derive(Debug, Clone)]
pub struct DatabaseConfig {
    /// Buffer pool frames for the storage manager.
    pub pool_frames: usize,
    /// Use the wall clock instead of a controllable virtual clock.
    pub real_time: bool,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            pool_frames: 256,
            real_time: false,
        }
    }
}

/// The full OODBMS.
pub struct Database {
    schema: Arc<Schema>,
    methods: Arc<MethodRegistry>,
    space: Arc<ObjectSpace>,
    dispatcher: Arc<Dispatcher>,
    clock: Arc<VirtualClock>,
    tm: Arc<TransactionManager>,
    sm: Arc<StorageManager>,
    meta: MetaArchitecture,
    dictionary: Arc<DataDictionary>,
    change: Arc<ChangePm>,
    persistence: Arc<PersistencePm>,
    indexing: Arc<IndexingPm>,
    query: Arc<QueryPm>,
    snapshot: Arc<SnapshotPm>,
}

impl Database {
    /// A fully in-memory database (tests, benchmarks, examples).
    pub fn in_memory() -> Result<Arc<Self>> {
        let config = DatabaseConfig::default();
        let sm = Arc::new(StorageManager::new_in_memory(config.pool_frames)?);
        Self::assemble(sm, config)
    }

    /// A database with a real (wall) clock — used when temporal events
    /// must fire from actual elapsed time.
    pub fn in_memory_realtime() -> Result<Arc<Self>> {
        let config = DatabaseConfig {
            real_time: true,
            ..Default::default()
        };
        let sm = Arc::new(StorageManager::new_in_memory(config.pool_frames)?);
        Self::assemble(sm, config)
    }

    /// Open (or create) a persistent database in `dir`. The application
    /// must re-declare its classes (like C++ class definitions, the
    /// schema lives in code) in the same order before touching persisted
    /// objects.
    pub fn open(dir: &Path, config: DatabaseConfig) -> Result<Arc<Self>> {
        let sm = Arc::new(StorageManager::open(dir, config.pool_frames)?);
        Self::assemble(sm, config)
    }

    fn assemble(sm: Arc<StorageManager>, config: DatabaseConfig) -> Result<Arc<Self>> {
        let schema = Arc::new(Schema::new());
        let methods = Arc::new(MethodRegistry::new());
        let space = Arc::new(ObjectSpace::new(Arc::clone(&schema)));
        let dispatcher = Arc::new(Dispatcher::new(Arc::clone(&schema), Arc::clone(&methods)));
        let clock = Arc::new(if config.real_time {
            VirtualClock::new_real()
        } else {
            VirtualClock::new_virtual()
        });
        // One registry for the whole stack: born in the storage manager,
        // shared by the transaction manager and everything above.
        let tm = Arc::new(TransactionManager::with_metrics(
            Arc::clone(&clock),
            Arc::clone(sm.metrics()),
        ));
        let dictionary = Arc::new(DataDictionary::new(Arc::clone(&schema)));
        // The index sentry and the undo log first, so they see every
        // object that follows.
        let indexing = IndexingPm::new(&space, Arc::clone(&sm));
        let change = ChangePm::new(Arc::downgrade(&tm), &space);
        // MVCC bridge: committed write sets become version-chain entries
        // at commit (publish-then-advance); snapshot reads resolve here.
        let snapshot = SnapshotPm::new(Arc::clone(&change));
        let persistence = PersistencePm::new(
            Arc::clone(&sm),
            Arc::clone(&space),
            Arc::clone(&change),
            Arc::clone(&indexing),
            Arc::clone(&snapshot),
            Arc::clone(&dictionary),
        )?;
        // Two resource managers. Persistence seals the Change PM's commit
        // set and writes it back (index flush first) up to the durability
        // point; the Change PM owns the log, which rolls back on abort
        // and outlives commit until the MVCC bridge has published the set.
        tm.add_resource_manager(Arc::clone(&persistence) as Arc<dyn ResourceManager>);
        tm.add_resource_manager(Arc::clone(&change) as Arc<dyn ResourceManager>);
        tm.add_version_publisher(Arc::clone(&snapshot) as Arc<dyn reach_txn::VersionPublisher>);
        let query = Arc::new(QueryPm::new(
            Arc::clone(&space),
            Arc::clone(&dispatcher),
            Arc::clone(&indexing),
        ));
        let meta = MetaArchitecture::new();
        meta.plug(Arc::clone(&persistence) as Arc<dyn PolicyManager>);
        meta.plug(Arc::clone(&change) as Arc<dyn PolicyManager>);
        meta.plug(Arc::clone(&indexing) as Arc<dyn PolicyManager>);
        meta.plug(Arc::clone(&query) as Arc<dyn PolicyManager>);
        meta.plug(Arc::new(TransactionPm::new(Arc::clone(&tm))));
        meta.plug(Arc::clone(&snapshot) as Arc<dyn PolicyManager>);
        meta.add_support(Arc::clone(&dictionary) as Arc<dyn crate::meta::SupportModule>);
        meta.add_support(Arc::new(crate::asm::ActiveMemorySpace::new(Arc::clone(
            &space,
        ))));
        meta.add_support(Arc::new(crate::asm::PassiveStoreSpace::new(
            Arc::clone(&sm),
            "sys.objects",
        )));
        Ok(Arc::new(Database {
            schema,
            methods,
            space,
            dispatcher,
            clock,
            tm,
            sm,
            meta,
            dictionary,
            change,
            persistence,
            indexing,
            query,
            snapshot,
        }))
    }

    // ---- component access (REACH and the benches need the internals) ----

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }
    pub fn methods(&self) -> &Arc<MethodRegistry> {
        &self.methods
    }
    pub fn space(&self) -> &Arc<ObjectSpace> {
        &self.space
    }
    pub fn dispatcher(&self) -> &Arc<Dispatcher> {
        &self.dispatcher
    }
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }
    pub fn txn_manager(&self) -> &Arc<TransactionManager> {
        &self.tm
    }
    pub fn storage(&self) -> &Arc<StorageManager> {
        &self.sm
    }
    /// The stack-wide observability registry (owned by the storage layer).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.sm.metrics()
    }
    pub fn meta(&self) -> &MetaArchitecture {
        &self.meta
    }
    pub fn dictionary(&self) -> &Arc<DataDictionary> {
        &self.dictionary
    }
    pub fn change_pm(&self) -> &Arc<ChangePm> {
        &self.change
    }
    pub fn persistence_pm(&self) -> &Arc<PersistencePm> {
        &self.persistence
    }
    pub fn indexing_pm(&self) -> &Arc<IndexingPm> {
        &self.indexing
    }
    pub fn snapshot_pm(&self) -> &Arc<SnapshotPm> {
        &self.snapshot
    }

    /// Start defining a class.
    pub fn define_class(&self, name: &str) -> ClassBuilder<'_> {
        ClassBuilder::new(&self.schema, name)
    }

    // ---- transactions ----

    pub fn begin(&self) -> Result<TxnId> {
        self.tm.begin()
    }

    /// Begin a read-only snapshot transaction: reads resolve against
    /// the newest committed versions at the transaction's begin stamp
    /// and acquire **no locks** — they never block behind writers. Any
    /// mutation through it fails with [`ReachError::ReadOnlyTxn`].
    pub fn begin_read_only(&self) -> Result<TxnId> {
        self.tm.begin_read_only()
    }

    pub fn begin_nested(&self, parent: TxnId) -> Result<TxnId> {
        self.tm.begin_nested(parent)
    }

    pub fn commit(&self, txn: TxnId) -> Result<()> {
        self.tm.commit(txn)
    }

    pub fn abort(&self, txn: TxnId) -> Result<()> {
        self.tm.abort(txn)
    }

    /// Two-phase commit, phase one: run pre-commit work, write back and
    /// force-log everything needed to commit `txn` under global
    /// transaction `gid`, then park it in-doubt with locks pinned. The
    /// coordinator's [`Self::decide`] finishes it either way.
    pub fn prepare(&self, txn: TxnId, gid: u64) -> Result<()> {
        self.tm.prepare(txn, gid)
    }

    /// Two-phase commit, phase two: apply the coordinator's decision to
    /// a transaction parked by [`Self::prepare`].
    pub fn decide(&self, txn: TxnId, commit: bool) -> Result<()> {
        self.tm.decide(txn, commit)
    }

    fn check_active(&self, txn: TxnId) -> Result<()> {
        if self.tm.is_active(txn) {
            Ok(())
        } else {
            Err(ReachError::TxnNotActive(txn))
        }
    }

    /// Mutations guard: active, and not a read-only snapshot (creation
    /// and persistence bypass the lock manager, so [`TransactionManager::lock`]'s
    /// own read-only check never sees them).
    fn check_writable(&self, txn: TxnId) -> Result<()> {
        self.check_active(txn)?;
        if self.tm.is_read_only(txn) {
            return Err(ReachError::ReadOnlyTxn(txn));
        }
        Ok(())
    }

    // ---- objects ----

    /// Create an object with class defaults.
    pub fn create(&self, txn: TxnId, class: ClassId) -> Result<ObjectId> {
        self.check_writable(txn)?;
        self.space.create(txn, class)
    }

    /// Create an object with attribute overrides.
    pub fn create_with(
        &self,
        txn: TxnId,
        class: ClassId,
        overrides: &[(&str, Value)],
    ) -> Result<ObjectId> {
        self.check_writable(txn)?;
        self.space.create_with(txn, class, overrides)
    }

    /// Delete an object (its destructor event is the lifecycle sentry).
    pub fn delete_object(&self, txn: TxnId, oid: ObjectId) -> Result<()> {
        self.check_active(txn)?;
        self.tm.lock(txn, oid, LockMode::Exclusive)?;
        self.space.delete(txn, oid)?;
        Ok(())
    }

    /// Invoke a (possibly sentried) method under an exclusive lock.
    pub fn invoke(&self, txn: TxnId, oid: ObjectId, method: &str, args: &[Value]) -> Result<Value> {
        self.check_active(txn)?;
        self.tm.lock(txn, oid, LockMode::Exclusive)?;
        self.dispatcher.invoke(&self.space, txn, oid, method, args)
    }

    /// Invoke a batch of (possibly sentried) methods within one
    /// transaction — the hot-path variant of calling [`Database::invoke`]
    /// per entry. Two costs are amortized over the batch: each distinct
    /// receiver is locked once (strict 2PL holds the locks to EOT
    /// anyway, so per-call re-acquisition is pure overhead), and
    /// monitored *after*-events are raised once at the end of the batch
    /// (before-sentries still run per call, preserving the veto).
    /// Results come back in call order; the first error stops the batch
    /// — calls already executed stay executed, exactly as a mid-
    /// transaction error in the unbatched loop would leave them.
    pub fn invoke_batch(
        &self,
        txn: TxnId,
        calls: &[(ObjectId, &str, &[Value])],
    ) -> Result<Vec<Value>> {
        self.check_active(txn)?;
        let mut locked: Vec<ObjectId> = Vec::new();
        for &(oid, _, _) in calls {
            // Batches cycle through a small receiver set; a linear scan
            // beats hashing at that size and allocates nothing extra.
            if !locked.contains(&oid) {
                self.tm.lock(txn, oid, LockMode::Exclusive)?;
                locked.push(oid);
            }
        }
        self.dispatcher.invoke_batch(&self.space, txn, calls)
    }

    /// Read an attribute. Writer transactions take a shared lock and
    /// read the live object; read-only snapshot transactions resolve
    /// the committed version at their begin stamp, lock-free.
    pub fn get_attr(&self, txn: TxnId, oid: ObjectId, attr: &str) -> Result<Value> {
        self.check_active(txn)?;
        if self.tm.is_read_only(txn) {
            // `snapshot_stamp` also enforces an expired per-request
            // deadline: a lock-free read has no wait to interrupt.
            let stamp = self.tm.snapshot_stamp(txn)?;
            let state = self
                .snapshot
                .read(oid, stamp)?
                .ok_or(ReachError::ObjectNotFound(oid))?;
            let slot = self.schema.attr_slot(state.class, attr)?;
            return Ok(state.attrs[slot].clone());
        }
        self.tm.lock(txn, oid, LockMode::Shared)?;
        self.space.get_attr(oid, attr)
    }

    /// Write an attribute under an exclusive lock (state sentries fire).
    pub fn set_attr(&self, txn: TxnId, oid: ObjectId, attr: &str, value: Value) -> Result<()> {
        self.check_active(txn)?;
        self.tm.lock(txn, oid, LockMode::Exclusive)?;
        self.space.set_attr(txn, oid, attr, value)
    }

    // ---- persistence ----

    /// Make an object persistent (written back at commit), under an
    /// exclusive lock: a rollback of the persist then undoes the only
    /// one in flight.
    pub fn persist(&self, txn: TxnId, oid: ObjectId) -> Result<()> {
        self.check_writable(txn)?;
        self.tm.lock(txn, oid, LockMode::Exclusive)?;
        self.persistence.persist(txn, oid)
    }

    /// Persist an object and bind it to a root name — the paper's
    /// `OpenOODB->fetch("Block A")` works via [`Database::fetch`] once
    /// `txn`'s top level commits. The roots are one stored record, which
    /// an undone write-back puts back whole, so a bind locks them all
    /// (`ObjectId::NULL` stands for them) until `txn`'s top level ends.
    pub fn persist_named(&self, txn: TxnId, name: &str, oid: ObjectId) -> Result<()> {
        self.persist(txn, oid)?;
        self.tm.lock(txn, ObjectId::NULL, LockMode::Exclusive)?;
        let name = name.to_string();
        self.change.record(txn, Change::Bind { name, oid });
        Ok(())
    }

    /// Resolve a named root.
    pub fn fetch(&self, name: &str) -> Result<ObjectId> {
        self.dictionary.lookup(name)
    }

    // ---- queries & indexes ----

    /// Run an OQL-flavoured query.
    pub fn query(&self, txn: TxnId, src: &str) -> Result<Vec<ObjectId>> {
        self.check_active(txn)?;
        Ok(self.query.execute(txn, src)?.0)
    }

    /// Run a query and also report the plan chosen.
    pub fn query_with_plan(&self, txn: TxnId, src: &str) -> Result<(Vec<ObjectId>, Plan)> {
        self.check_active(txn)?;
        self.query.execute(txn, src)
    }

    /// Create an index on `class.attribute`.
    pub fn create_index(&self, class: ClassId, attribute: &str) -> Result<()> {
        self.indexing
            .create_index(&self.space, &self.tm, class, attribute)
    }

    /// Take a fuzzy checkpoint: flush, log the dirty-page and
    /// active-writer tables, and truncate the obsolete log prefix. The
    /// storage manager tracks its own writer table, so nothing is
    /// passed down; [`TransactionManager::active_snapshot`] gives the
    /// transaction-layer view of the same moment.
    pub fn checkpoint(&self) -> Result<reach_storage::CheckpointStats> {
        self.sm.checkpoint()
    }

    /// The Figure-1 architecture manifest.
    pub fn manifest(&self) -> Vec<String> {
        self.meta.manifest()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("classes", &self.schema.len())
            .field("resident", &self.space.resident_count())
            .field("stored", &self.persistence.stored_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_object::ValueType;

    fn counter_db() -> (Arc<Database>, ClassId) {
        let db = Database::in_memory().unwrap();
        let (b, inc) = db
            .define_class("Counter")
            .attr("n", ValueType::Int, Value::Int(0))
            .virtual_method("inc");
        let class = b.define().unwrap();
        db.methods().register_fn(inc, |ctx| {
            let n = ctx.get("n")?.as_int()? + 1;
            ctx.set("n", Value::Int(n))?;
            Ok(Value::Int(n))
        });
        (db, class)
    }

    #[test]
    fn end_to_end_transactional_object_life() {
        let (db, class) = counter_db();
        let txn = db.begin().unwrap();
        let oid = db.create(txn, class).unwrap();
        db.invoke(txn, oid, "inc", &[]).unwrap();
        db.invoke(txn, oid, "inc", &[]).unwrap();
        assert_eq!(db.get_attr(txn, oid, "n").unwrap(), Value::Int(2));
        db.commit(txn).unwrap();
        // Committed state survives in a new transaction.
        let txn2 = db.begin().unwrap();
        assert_eq!(db.get_attr(txn2, oid, "n").unwrap(), Value::Int(2));
        db.commit(txn2).unwrap();
    }

    #[test]
    fn abort_rolls_back_object_state() {
        let (db, class) = counter_db();
        let t0 = db.begin().unwrap();
        let oid = db.create(t0, class).unwrap();
        db.commit(t0).unwrap();
        let t1 = db.begin().unwrap();
        db.invoke(t1, oid, "inc", &[]).unwrap();
        db.set_attr(t1, oid, "n", Value::Int(99)).unwrap();
        let phantom = db.create(t1, class).unwrap();
        db.abort(t1).unwrap();
        let t2 = db.begin().unwrap();
        assert_eq!(db.get_attr(t2, oid, "n").unwrap(), Value::Int(0));
        assert!(db.get_attr(t2, phantom, "n").is_err());
        db.commit(t2).unwrap();
    }

    #[test]
    fn subtransaction_abort_keeps_parent_work() {
        let (db, class) = counter_db();
        let parent = db.begin().unwrap();
        let oid = db.create(parent, class).unwrap();
        db.invoke(parent, oid, "inc", &[]).unwrap(); // n = 1
        let child = db.begin_nested(parent).unwrap();
        db.invoke(child, oid, "inc", &[]).unwrap(); // n = 2
        db.invoke(child, oid, "inc", &[]).unwrap(); // n = 3
        db.abort(child).unwrap();
        // Child's increments rolled back, parent's survives.
        assert_eq!(db.get_attr(parent, oid, "n").unwrap(), Value::Int(1));
        db.commit(parent).unwrap();
    }

    #[test]
    fn subtransaction_commit_is_kept_then_parent_abort_undoes_all() {
        let (db, class) = counter_db();
        let parent = db.begin().unwrap();
        let oid = db.create(parent, class).unwrap();
        db.commit(parent).unwrap();
        let parent = db.begin().unwrap();
        let child = db.begin_nested(parent).unwrap();
        db.invoke(child, oid, "inc", &[]).unwrap();
        db.commit(child).unwrap();
        assert_eq!(db.get_attr(parent, oid, "n").unwrap(), Value::Int(1));
        db.abort(parent).unwrap();
        let t = db.begin().unwrap();
        assert_eq!(db.get_attr(t, oid, "n").unwrap(), Value::Int(0));
        db.commit(t).unwrap();
    }

    #[test]
    fn query_uses_index_when_available() {
        let db = Database::in_memory().unwrap();
        let class = db
            .define_class("River")
            .attr("level", ValueType::Int, Value::Int(0))
            .define()
            .unwrap();
        let txn = db.begin().unwrap();
        for i in 0..100 {
            db.create_with(txn, class, &[("level", Value::Int(i))])
                .unwrap();
        }
        db.commit(txn).unwrap();
        db.create_index(class, "level").unwrap();
        let txn = db.begin().unwrap();
        let (hits, plan) = db
            .query_with_plan(txn, "select r from River r where r.level < 10")
            .unwrap();
        assert_eq!(hits.len(), 10);
        assert!(matches!(plan, Plan::IndexRange { .. }));
        // Unindexed predicate falls back to a scan.
        let (hits, plan) = db
            .query_with_plan(txn, "select r from River r where r.level + 1 == 5")
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(plan, Plan::ExtentScan);
        db.commit(txn).unwrap();
    }

    #[test]
    fn index_stays_consistent_across_abort() {
        let db = Database::in_memory().unwrap();
        let class = db
            .define_class("Doc")
            .attr("size", ValueType::Int, Value::Int(1))
            .define()
            .unwrap();
        db.create_index(class, "size").unwrap();
        let t0 = db.begin().unwrap();
        let kept = db
            .create_with(t0, class, &[("size", Value::Int(5))])
            .unwrap();
        db.commit(t0).unwrap();
        let t1 = db.begin().unwrap();
        db.set_attr(t1, kept, "size", Value::Int(50)).unwrap();
        let _phantom = db
            .create_with(t1, class, &[("size", Value::Int(5))])
            .unwrap();
        db.abort(t1).unwrap();
        // After abort the index must answer as before t1.
        let t2 = db.begin().unwrap();
        let (hits, plan) = db
            .query_with_plan(t2, "select d from Doc d where d.size == 5")
            .unwrap();
        assert_eq!(hits, vec![kept]);
        assert!(matches!(plan, Plan::IndexEq { .. }));
        db.commit(t2).unwrap();
    }

    #[test]
    fn index_shadow_matches_persistent_tree_at_every_quiescent_point() {
        // The differential-oracle contract: after every commit and
        // every abort, the in-memory shadow and the WAL-logged B+Tree
        // hold exactly the same (memcomparable key, oid) pairs.
        let db = Database::in_memory().unwrap();
        let class = db
            .define_class("Doc")
            .attr("size", ValueType::Int, Value::Int(0))
            .define()
            .unwrap();
        db.create_index(class, "size").unwrap();
        db.indexing_pm().verify_shadow().unwrap();

        let t0 = db.begin().unwrap();
        let mut oids = Vec::new();
        for i in 0..20 {
            oids.push(
                db.create_with(t0, class, &[("size", Value::Int(i % 7))])
                    .unwrap(),
            );
        }
        db.commit(t0).unwrap();
        db.indexing_pm().verify_shadow().unwrap();

        // Updates, a delete, and a subtransaction rollback in one txn.
        let t1 = db.begin().unwrap();
        db.set_attr(t1, oids[0], "size", Value::Int(100)).unwrap();
        db.delete_object(t1, oids[1]).unwrap();
        let child = db.begin_nested(t1).unwrap();
        db.set_attr(child, oids[2], "size", Value::Int(200))
            .unwrap();
        db.create_with(child, class, &[("size", Value::Int(300))])
            .unwrap();
        db.abort(child).unwrap();
        db.commit(t1).unwrap();
        db.indexing_pm().verify_shadow().unwrap();

        // A full abort leaves both structures at the pre-txn state.
        let t2 = db.begin().unwrap();
        db.set_attr(t2, oids[3], "size", Value::Int(400)).unwrap();
        db.delete_object(t2, oids[4]).unwrap();
        db.create_with(t2, class, &[("size", Value::Int(500))])
            .unwrap();
        db.abort(t2).unwrap();
        db.indexing_pm().verify_shadow().unwrap();

        // And the rolled-back child's values never reached either side.
        let t3 = db.begin().unwrap();
        let (hits, _) = db
            .query_with_plan(t3, "select d from Doc d where d.size == 200")
            .unwrap();
        assert!(hits.is_empty());
        db.commit(t3).unwrap();
    }

    #[test]
    fn index_survives_process_restart_without_faulting_objects() {
        // The restart payoff of persistent indexes: after reopen, the
        // index answers from the recovered B+Tree (adopted into the
        // shadow by decoding stored keys) before any object is resident.
        let dir = std::env::temp_dir().join(format!("reach-idx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let declare = |db: &Database| -> ClassId {
            db.define_class("Doc")
                .attr("size", ValueType::Int, Value::Int(0))
                .define()
                .unwrap()
        };
        let stored;
        {
            let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
            let class = declare(&db);
            db.create_index(class, "size").unwrap();
            let txn = db.begin().unwrap();
            let oid = db
                .create_with(txn, class, &[("size", Value::Int(42))])
                .unwrap();
            for i in 0..10 {
                db.create_with(txn, class, &[("size", Value::Int(i))])
                    .unwrap();
            }
            db.persist_named(txn, "the-doc", oid).unwrap();
            db.commit(txn).unwrap();
            stored = oid;
            db.indexing_pm().verify_shadow().unwrap();
            db.checkpoint().unwrap();
        }
        {
            let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
            let class = declare(&db);
            // Nothing resident yet: create_index must adopt the
            // recovered persistent tree rather than scan the extent.
            db.create_index(class, "size").unwrap();
            db.indexing_pm().verify_shadow().unwrap();
            let hits = db
                .indexing_pm()
                .lookup_eq(class, "size", &Value::Int(42))
                .unwrap();
            assert_eq!(hits, vec![stored]);
            // The index keeps absorbing changes after the restart.
            let txn = db.begin().unwrap();
            let oid = db.fetch("the-doc").unwrap();
            db.set_attr(txn, oid, "size", Value::Int(43)).unwrap();
            db.commit(txn).unwrap();
            db.indexing_pm().verify_shadow().unwrap();
            assert!(db
                .indexing_pm()
                .lookup_eq(class, "size", &Value::Int(42))
                .unwrap()
                .is_empty());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistence_round_trip_within_one_process() {
        let (db, class) = counter_db();
        let txn = db.begin().unwrap();
        let oid = db.create(txn, class).unwrap();
        db.invoke(txn, oid, "inc", &[]).unwrap();
        db.persist_named(txn, "the-counter", oid).unwrap();
        db.commit(txn).unwrap();
        assert!(db.persistence_pm().is_stored(oid));
        // Evict, then fault back in through the dictionary.
        db.space().evict(oid).unwrap();
        assert!(!db.space().is_resident(oid));
        let txn = db.begin().unwrap();
        let fetched = db.fetch("the-counter").unwrap();
        assert_eq!(fetched, oid);
        assert_eq!(db.get_attr(txn, fetched, "n").unwrap(), Value::Int(1));
        db.commit(txn).unwrap();
    }

    #[test]
    fn persistent_database_survives_process_restart() {
        let dir = std::env::temp_dir().join(format!("reach-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let declare = |db: &Database| -> ClassId {
            let (b, inc) = db
                .define_class("Counter")
                .attr("n", ValueType::Int, Value::Int(0))
                .virtual_method("inc");
            let class = b.define().unwrap();
            db.methods().register_fn(inc, |ctx| {
                let n = ctx.get("n")?.as_int()? + 1;
                ctx.set("n", Value::Int(n))?;
                Ok(Value::Int(n))
            });
            class
        };
        {
            let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
            let class = declare(&db);
            let txn = db.begin().unwrap();
            let oid = db.create(txn, class).unwrap();
            db.invoke(txn, oid, "inc", &[]).unwrap();
            db.invoke(txn, oid, "inc", &[]).unwrap();
            db.persist_named(txn, "root", oid).unwrap();
            db.commit(txn).unwrap();
            db.checkpoint().unwrap();
        }
        // "Restart": everything in-memory is gone; classes re-declared.
        {
            let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
            declare(&db);
            let txn = db.begin().unwrap();
            let oid = db.fetch("root").unwrap();
            assert_eq!(db.get_attr(txn, oid, "n").unwrap(), Value::Int(2));
            // And it is still updatable + persistent.
            db.invoke(txn, oid, "inc", &[]).unwrap();
            db.commit(txn).unwrap();
        }
        {
            let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
            declare(&db);
            let txn = db.begin().unwrap();
            let oid = db.fetch("root").unwrap();
            assert_eq!(db.get_attr(txn, oid, "n").unwrap(), Value::Int(3));
            db.commit(txn).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn operations_on_finished_transactions_fail() {
        let (db, class) = counter_db();
        let txn = db.begin().unwrap();
        let oid = db.create(txn, class).unwrap();
        db.commit(txn).unwrap();
        assert!(db.invoke(txn, oid, "inc", &[]).is_err());
        assert!(db.create(txn, class).is_err());
    }

    #[test]
    fn snapshot_read_ignores_later_and_uncommitted_writes() {
        let (db, class) = counter_db();
        let t0 = db.begin().unwrap();
        let oid = db.create(t0, class).unwrap();
        db.set_attr(t0, oid, "n", Value::Int(1)).unwrap();
        db.commit(t0).unwrap();
        let reader = db.begin_read_only().unwrap();
        // A writer mutates in place (uncommitted) — invisible.
        let w1 = db.begin().unwrap();
        db.set_attr(w1, oid, "n", Value::Int(50)).unwrap();
        assert_eq!(db.get_attr(reader, oid, "n").unwrap(), Value::Int(1));
        db.commit(w1).unwrap();
        // Committed after the reader's stamp — still invisible.
        assert_eq!(db.get_attr(reader, oid, "n").unwrap(), Value::Int(1));
        db.commit(reader).unwrap();
        // A fresh snapshot sees the new committed state.
        let reader2 = db.begin_read_only().unwrap();
        assert_eq!(db.get_attr(reader2, oid, "n").unwrap(), Value::Int(50));
        db.commit(reader2).unwrap();
    }

    #[test]
    fn snapshot_read_never_blocks_behind_exclusive_lock() {
        let (db, class) = counter_db();
        db.metrics().enable();
        let t0 = db.begin().unwrap();
        let oid = db.create(t0, class).unwrap();
        db.commit(t0).unwrap();
        // Writer parks on the exclusive lock for the whole read.
        let writer = db.begin().unwrap();
        db.set_attr(writer, oid, "n", Value::Int(7)).unwrap();
        let grants = db.metrics().txn.lock_acquisitions.get();
        let reader = db.begin_read_only().unwrap();
        assert_eq!(db.get_attr(reader, oid, "n").unwrap(), Value::Int(0));
        db.commit(reader).unwrap();
        assert_eq!(
            db.metrics().txn.lock_acquisitions.get(),
            grants,
            "snapshot read touched the lock manager"
        );
        db.abort(writer).unwrap();
    }

    #[test]
    fn snapshot_sees_deletes_and_creates_at_its_stamp() {
        let (db, class) = counter_db();
        let t0 = db.begin().unwrap();
        let doomed = db.create(t0, class).unwrap();
        db.commit(t0).unwrap();
        let reader = db.begin_read_only().unwrap();
        let w = db.begin().unwrap();
        db.delete_object(w, doomed).unwrap();
        let newborn = db.create(w, class).unwrap();
        db.commit(w).unwrap();
        // The snapshot predates both the delete and the create.
        assert_eq!(db.get_attr(reader, doomed, "n").unwrap(), Value::Int(0));
        assert!(db.get_attr(reader, newborn, "n").is_err());
        db.commit(reader).unwrap();
        let reader2 = db.begin_read_only().unwrap();
        assert!(db.get_attr(reader2, doomed, "n").is_err());
        assert_eq!(db.get_attr(reader2, newborn, "n").unwrap(), Value::Int(0));
        db.commit(reader2).unwrap();
    }

    #[test]
    fn read_only_transactions_reject_mutations() {
        let (db, class) = counter_db();
        let t0 = db.begin().unwrap();
        let oid = db.create(t0, class).unwrap();
        db.commit(t0).unwrap();
        let r = db.begin_read_only().unwrap();
        let is_ro_err = |e: ReachError| matches!(e, ReachError::ReadOnlyTxn(_));
        assert!(is_ro_err(db.create(r, class).unwrap_err()));
        assert!(is_ro_err(
            db.set_attr(r, oid, "n", Value::Int(1)).unwrap_err()
        ));
        assert!(is_ro_err(db.invoke(r, oid, "inc", &[]).unwrap_err()));
        assert!(is_ro_err(db.delete_object(r, oid).unwrap_err()));
        assert!(is_ro_err(db.persist(r, oid).unwrap_err()));
        db.commit(r).unwrap();
    }

    #[test]
    fn manifest_names_all_policy_managers() {
        let (db, _) = counter_db();
        let m = db.manifest().join("\n");
        for dim in ["persistence", "transactions", "change", "indexing", "query"] {
            assert!(m.contains(dim), "manifest missing {dim}: {m}");
        }
        assert!(m.contains("data-dictionary"));
    }
}
