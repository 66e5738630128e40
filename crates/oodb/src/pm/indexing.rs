//! The Indexing PM: attribute indexes maintained by sentries, persisted
//! through the storage manager's WAL-logged B+Trees.
//!
//! The paper's future-work section singles out "index maintenance PMs
//! with the active database paradigm" — indexes kept consistent by
//! reacting to events rather than by code woven into every write path.
//! This PM does exactly that: it subscribes to the state-change and
//! lifecycle sentries and updates its indexes from the event stream.
//!
//! Each index exists twice, deliberately:
//!
//! * a **persistent B+Tree** ([`reach_storage::BTree`] behind
//!   [`StorageManager::index_insert`]) keyed by the attribute value's
//!   memcomparable encoding ([`Value::index_key`]) — WAL-logged,
//!   buffer-pool-resident, crash-recovered; this is what makes
//!   rule-condition evaluation fast *after a restart*;
//! * an **in-memory `BTreeMap` shadow** — the differential oracle. The
//!   planner reads the shadow (no I/O on the query path); torture and
//!   stress runs call [`IndexingPm::verify_shadow`] to compare the two
//!   structures pair-for-pair.
//!
//! Transactional protocol: sentry events update the shadow eagerly (the
//! Change PM's undo also goes through the public mutation API, so
//! aborted transactions leave the shadow consistent with no special
//! code) and *buffer* the corresponding persistent operations per
//! top-level transaction. The buffer flushes into the storage manager
//! at `commit_top` — before the Persistence PM's durability point, so
//! the logical IndexInsert/IndexDelete records sit inside the
//! transaction's WAL window and a crash mid-commit undoes them. On
//! abort the buffer is dropped: the persistent tree was never touched.
//! Subtransaction rollback truncates the buffer to the savepoint taken
//! at the child's begin, while the Change PM's compensating events
//! (which run under `TxnId::NULL`) repair the shadow only.

use crate::meta::PolicyManager;
use reach_common::sync::{Mutex, RwLock};
use reach_common::{ClassId, ObjectId, ReachError, Result, TxnId};
use reach_object::{
    LifecycleSentry, ObjectSpace, ObjectState, Schema, StateChange, StateSentry, Value,
};
use reach_storage::StorageManager;
use reach_txn::{ResourceManager, TransactionManager};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::{Arc, Weak};

/// `Value` wrapper ordered by [`Value::compare`] so it can key a B-tree.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexKey(pub Value);

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.compare(&other.0)
    }
}

type Tree = BTreeMap<IndexKey, BTreeSet<ObjectId>>;

struct Index {
    class: ClassId,
    attribute: String,
    /// In-memory shadow — planner's read path and differential oracle.
    tree: Tree,
    /// Persistent B+Tree id in the storage manager's index catalog.
    store_id: u64,
}

/// One buffered persistent-tree operation, keyed to its index.
struct IndexOp {
    store_id: u64,
    key: Vec<u8>,
    oid: u64,
    insert: bool,
}

/// The indexing policy manager.
pub struct IndexingPm {
    schema: Arc<Schema>,
    /// Resolves event transactions to their top level (and runs the
    /// internal bulk-load transaction of `create_index`).
    tm: Weak<TransactionManager>,
    sm: Arc<StorageManager>,
    indexes: RwLock<Vec<Index>>,
    /// Persistent ops buffered per top-level transaction, flushed at
    /// `commit_top`, dropped at `abort_top`, truncated on subtransaction
    /// rollback.
    buffers: Mutex<HashMap<TxnId, Vec<IndexOp>>>,
}

impl IndexingPm {
    /// Create the PM and subscribe it to the space's sentries. The
    /// caller must also register it as the **first** resource manager —
    /// its commit flush has to precede the Persistence PM's
    /// `sm.commit` durability point.
    pub fn new(
        space: &ObjectSpace,
        tm: &Arc<TransactionManager>,
        sm: Arc<StorageManager>,
    ) -> Arc<Self> {
        let pm = Arc::new(IndexingPm {
            schema: Arc::clone(space.schema()),
            tm: Arc::downgrade(tm),
            sm,
            indexes: RwLock::new(Vec::new()),
            buffers: Mutex::new(HashMap::new()),
        });
        space.add_state_sentry(Arc::clone(&pm) as Arc<dyn StateSentry>);
        space.add_lifecycle_sentry(Arc::clone(&pm) as Arc<dyn LifecycleSentry>);
        pm
    }

    /// Build an index on `class.attribute`; future changes are absorbed
    /// from the event stream.
    ///
    /// The persistent tree is named `idx.<class>.<attribute>` (class
    /// ids are stable because the schema lives in code, re-declared in
    /// the same order each run). Two bootstrap paths:
    ///
    /// * live extent empty, persistent tree non-empty — the restart
    ///   path: the shadow is rebuilt by *decoding* the stored
    ///   memcomparable keys, no object needs to be faulted in;
    /// * otherwise the shadow is built from the (deep) extent and the
    ///   persistent tree is reconciled to it under an internal
    ///   transaction (also the drop-then-recreate repair path).
    pub fn create_index(&self, space: &ObjectSpace, class: ClassId, attribute: &str) -> Result<()> {
        // Validate the attribute exists.
        self.schema.attr_slot(class, attribute)?;
        if self
            .indexes
            .read()
            .iter()
            .any(|i| i.class == class && i.attribute == attribute)
        {
            return Err(ReachError::SchemaError(format!(
                "index on {class}.{attribute} already exists"
            )));
        }
        let store_id = self
            .sm
            .create_index(&format!("idx.{}.{}", class.raw(), attribute))?;
        let persisted: BTreeSet<(Vec<u8>, u64)> = self
            .sm
            .index_range(store_id, Bound::Unbounded, Bound::Unbounded)?
            .into_iter()
            .collect();
        let extent = space.extents().extent_deep(&self.schema, class);
        let mut tree: Tree = BTreeMap::new();
        if extent.is_empty() && !persisted.is_empty() {
            for (key, oid) in &persisted {
                let v = Value::decode_index_key(key)?;
                tree.entry(IndexKey(v))
                    .or_default()
                    .insert(ObjectId::new(*oid));
            }
        } else {
            for oid in extent {
                let v = space.get_attr(oid, attribute)?;
                tree.entry(IndexKey(v)).or_default().insert(oid);
            }
            let want = flatten(&tree);
            if want != persisted {
                let tm = self
                    .tm
                    .upgrade()
                    .ok_or_else(|| ReachError::Io("transaction manager gone".into()))?;
                let txn = tm.begin()?;
                for (k, o) in persisted.difference(&want) {
                    self.sm.index_delete(txn, store_id, k, *o)?;
                }
                for (k, o) in want.difference(&persisted) {
                    self.sm.index_insert(txn, store_id, k, *o)?;
                }
                tm.commit(txn)?;
            }
        }
        let mut indexes = self.indexes.write();
        if indexes
            .iter()
            .any(|i| i.class == class && i.attribute == attribute)
        {
            return Err(ReachError::SchemaError(format!(
                "index on {class}.{attribute} already exists"
            )));
        }
        indexes.push(Index {
            class,
            attribute: attribute.to_string(),
            tree,
            store_id,
        });
        Ok(())
    }

    /// Drop an index; true if one existed. Only the in-memory side is
    /// removed — the persistent tree stays in the catalog and is
    /// reconciled (or adopted) if the index is re-created.
    pub fn drop_index(&self, class: ClassId, attribute: &str) -> bool {
        let mut indexes = self.indexes.write();
        let before = indexes.len();
        indexes.retain(|i| !(i.class == class && i.attribute == attribute));
        indexes.len() != before
    }

    /// The class of the index that serves lookups on `class.attribute`,
    /// if any: the class itself or an ancestor. An ancestor's index also
    /// holds the ancestor's other descendants.
    pub fn index_class(&self, class: ClassId, attribute: &str) -> Option<ClassId> {
        let indexes = self.indexes.read();
        indexes
            .iter()
            .find(|i| self.serves(i, class, attribute))
            .map(|i| i.class)
    }

    /// Exact-match lookup (served from the shadow — no I/O).
    pub fn lookup_eq(
        &self,
        class: ClassId,
        attribute: &str,
        value: &Value,
    ) -> Option<Vec<ObjectId>> {
        let indexes = self.indexes.read();
        let idx = indexes.iter().find(|i| self.serves(i, class, attribute))?;
        let m = self.sm.metrics();
        if m.on() {
            m.index.lookups.inc();
        }
        Some(
            idx.tree
                .get(&IndexKey(value.clone()))
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default(),
        )
    }

    /// Range lookup with inclusive/exclusive bounds (shadow-served).
    pub fn lookup_range(
        &self,
        class: ClassId,
        attribute: &str,
        low: Bound<Value>,
        high: Bound<Value>,
    ) -> Option<Vec<ObjectId>> {
        let indexes = self.indexes.read();
        let idx = indexes.iter().find(|i| self.serves(i, class, attribute))?;
        let m = self.sm.metrics();
        if m.on() {
            m.index.range_scans.inc();
        }
        let lo = map_bound(low);
        let hi = map_bound(high);
        let mut out = Vec::new();
        for (_, oids) in idx.tree.range((lo, hi)) {
            out.extend(oids.iter().copied());
        }
        Some(out)
    }

    /// Number of indexes (introspection).
    pub fn index_count(&self) -> usize {
        self.indexes.read().len()
    }

    /// Differential check: every index's persistent B+Tree must hold
    /// exactly the shadow's `(memcomparable key, oid)` pairs. Call at a
    /// quiescent point (between transactions) — mid-transaction the
    /// shadow legitimately runs ahead of the unflushed buffer.
    pub fn verify_shadow(&self) -> Result<()> {
        let indexes = self.indexes.read();
        for idx in indexes.iter() {
            let want = flatten(&idx.tree);
            let got: BTreeSet<(Vec<u8>, u64)> = self
                .sm
                .index_range(idx.store_id, Bound::Unbounded, Bound::Unbounded)?
                .into_iter()
                .collect();
            if got != want {
                return Err(ReachError::Io(format!(
                    "index shadow divergence on {}.{}: persistent tree holds {} pairs, \
                     shadow holds {}",
                    idx.class,
                    idx.attribute,
                    got.len(),
                    want.len()
                )));
            }
        }
        Ok(())
    }

    /// Resolve the owning top-level transaction of an event. `NULL`
    /// (Change PM compensations) and unmanaged transactions buffer
    /// nothing — their shadow effect is the whole story.
    fn top_of(&self, txn: TxnId) -> Option<TxnId> {
        if txn.is_null() {
            return None;
        }
        let tm = self.tm.upgrade()?;
        tm.top_of(txn).ok()
    }

    fn buffer_ops(&self, top: TxnId, ops: Vec<IndexOp>) {
        if !ops.is_empty() {
            self.buffers.lock().entry(top).or_default().extend(ops);
        }
    }

    /// Whether `idx` holds the values of `class.attribute`: an index on
    /// the class itself or on an ancestor.
    fn serves(&self, idx: &Index, class: ClassId, attribute: &str) -> bool {
        idx.attribute == attribute && self.schema.is_subclass(class, idx.class)
    }

    fn index_object(&self, txn: TxnId, oid: ObjectId, state: &ObjectState, insert: bool) {
        let top = self.top_of(txn);
        let mut ops: Vec<IndexOp> = Vec::new();
        let mut indexes = self.indexes.write();
        for idx in indexes.iter_mut() {
            if !self.schema.is_subclass(state.class, idx.class) {
                continue;
            }
            if let Ok(slot) = self.schema.attr_slot(state.class, &idx.attribute) {
                let key = IndexKey(state.attrs[slot].clone());
                if top.is_some() {
                    ops.push(IndexOp {
                        store_id: idx.store_id,
                        key: key.0.index_key(),
                        oid: oid.raw(),
                        insert,
                    });
                }
                if insert {
                    idx.tree.entry(key).or_default().insert(oid);
                } else if let Some(set) = idx.tree.get_mut(&key) {
                    set.remove(&oid);
                    if set.is_empty() {
                        idx.tree.remove(&key);
                    }
                }
            }
        }
        drop(indexes);
        if let Some(top) = top {
            self.buffer_ops(top, ops);
        }
    }
}

/// A shadow tree's pairs in the persistent representation.
fn flatten(tree: &Tree) -> BTreeSet<(Vec<u8>, u64)> {
    tree.iter()
        .flat_map(|(k, oids)| {
            let key = k.0.index_key();
            oids.iter().map(move |o| (key.clone(), o.raw()))
        })
        .collect()
}

impl StateSentry for IndexingPm {
    fn on_change(&self, change: &StateChange<'_>) {
        // Most written attributes carry no index: settle that under the
        // read lock, before resolving the transaction or taking the
        // write lock.
        let serves = |idx: &Index| self.serves(idx, change.class, change.attribute);
        if !self.indexes.read().iter().any(serves) {
            return;
        }
        let top = self.top_of(change.txn);
        let mut ops: Vec<IndexOp> = Vec::new();
        let mut indexes = self.indexes.write();
        for idx in indexes.iter_mut().filter(|idx| serves(idx)) {
            if top.is_some() {
                ops.push(IndexOp {
                    store_id: idx.store_id,
                    key: change.old.index_key(),
                    oid: change.oid.raw(),
                    insert: false,
                });
                ops.push(IndexOp {
                    store_id: idx.store_id,
                    key: change.new.index_key(),
                    oid: change.oid.raw(),
                    insert: true,
                });
            }
            let old_key = IndexKey(change.old.clone());
            if let Some(set) = idx.tree.get_mut(&old_key) {
                set.remove(&change.oid);
                if set.is_empty() {
                    idx.tree.remove(&old_key);
                }
            }
            idx.tree
                .entry(IndexKey(change.new.clone()))
                .or_default()
                .insert(change.oid);
        }
        drop(indexes);
        if let Some(top) = top {
            self.buffer_ops(top, ops);
        }
    }
}

impl LifecycleSentry for IndexingPm {
    fn on_create(&self, txn: TxnId, oid: ObjectId, state: &ObjectState) {
        self.index_object(txn, oid, state, true);
    }

    fn on_delete(&self, txn: TxnId, oid: ObjectId, state: &ObjectState) {
        self.index_object(txn, oid, state, false);
    }
}

impl ResourceManager for IndexingPm {
    fn begin_top(&self, _txn: TxnId) -> Result<()> {
        // Buffers are created lazily on the first buffered op.
        Ok(())
    }

    fn savepoint(&self, top: TxnId) -> Result<u64> {
        Ok(self
            .buffers
            .lock()
            .get(&top)
            .map(|b| b.len() as u64)
            .unwrap_or(0))
    }

    fn rollback_to(&self, top: TxnId, savepoint: u64) -> Result<()> {
        // Drop the child's buffered ops; the Change PM's compensating
        // events (running under NULL) repair the shadow, so after both
        // the two structures agree again.
        if let Some(buf) = self.buffers.lock().get_mut(&top) {
            buf.truncate(savepoint as usize);
        }
        Ok(())
    }

    fn commit_top(&self, txn: TxnId) -> Result<()> {
        // Flush in event order under the committing transaction; the
        // logical WAL records land before the Persistence PM's
        // `sm.commit`, so a crash mid-commit rolls them back through
        // the tree. A compensated pair (insert then delete of the same
        // entry) nets out by sequential application.
        let ops = self.buffers.lock().remove(&txn).unwrap_or_default();
        for op in ops {
            if op.insert {
                self.sm.index_insert(txn, op.store_id, &op.key, op.oid)?;
            } else {
                self.sm.index_delete(txn, op.store_id, &op.key, op.oid)?;
            }
        }
        Ok(())
    }

    fn prepare_top(&self, txn: TxnId, _gid: u64) -> Result<()> {
        // 2PC phase one: flush the buffered tree operations now so they
        // sit below the Prepare record the Persistence PM forces next.
        // The eventual commit decision finds the buffer already drained
        // (`commit_top` then no-ops); an abort decision rolls the
        // logical records back through the tree like any other undo.
        self.commit_top(txn)
    }

    fn abort_top(&self, txn: TxnId) -> Result<()> {
        // Never flushed — the persistent tree was never touched.
        self.buffers.lock().remove(&txn);
        Ok(())
    }
}

impl PolicyManager for IndexingPm {
    fn dimension(&self) -> &'static str {
        "indexing"
    }
    fn name(&self) -> &'static str {
        "sentry-maintained-persistent-btree"
    }
}

fn map_bound(b: Bound<Value>) -> Bound<IndexKey> {
    match b {
        Bound::Included(v) => Bound::Included(IndexKey(v)),
        Bound::Excluded(v) => Bound::Excluded(IndexKey(v)),
        Bound::Unbounded => Bound::Unbounded,
    }
}
