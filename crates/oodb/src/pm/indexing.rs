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
//! Transactional protocol: sentry events update the shadow eagerly and
//! do nothing else (the Change PM's undo also goes through the public
//! mutation API, so aborted transactions and rolled-back
//! subtransactions leave the shadow consistent with no special code).
//! The persistent trees are brought up to date once per top-level
//! transaction by `IndexingPm::flush`, which the Persistence PM calls
//! from its write-back, before its durability point — so the logical
//! IndexInsert/IndexDelete records sit inside the transaction's WAL
//! window and a crash mid-commit undoes them. The flush works from the
//! Change PM's commit set, which carries a before-image for every
//! object of a class `IndexingPm::covers`, so it logs each object's
//! net change per index; an aborted transaction never touched the
//! trees at all.

use crate::meta::PolicyManager;
use crate::pm::change::CommitSet;
use reach_common::sync::RwLock;
use reach_common::{ClassId, ObjectId, ReachError, Result, TxnId};
use reach_object::{
    LifecycleSentry, ObjectSpace, ObjectState, Schema, StateChange, StateSentry, Value,
};
use reach_storage::StorageManager;
use reach_txn::TransactionManager;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

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

/// The indexing policy manager.
pub struct IndexingPm {
    schema: Arc<Schema>,
    sm: Arc<StorageManager>,
    indexes: RwLock<Vec<Index>>,
}

impl IndexingPm {
    /// Create the PM and subscribe it to the space's sentries.
    pub fn new(space: &ObjectSpace, sm: Arc<StorageManager>) -> Arc<Self> {
        let pm = Arc::new(IndexingPm {
            schema: Arc::clone(space.schema()),
            sm,
            indexes: RwLock::new(Vec::new()),
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
    ///   transaction of `tm` (also the drop-then-recreate repair path).
    pub fn create_index(
        &self,
        space: &ObjectSpace,
        tm: &TransactionManager,
        class: ClassId,
        attribute: &str,
    ) -> Result<()> {
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
                let (v, oid) = (Value::decode_index_key(key)?, ObjectId::new(*oid));
                tree.entry(IndexKey(v)).or_default().insert(oid);
                // A pair may name a transient object of the last run: a
                // new object must not take its id and so its pair.
                space.ids_advance_past(oid);
            }
        } else {
            for oid in extent {
                let v = space.get_attr(oid, attribute)?;
                tree.entry(IndexKey(v)).or_default().insert(oid);
            }
            let want = flatten(&tree);
            if want != persisted {
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

    /// Differential check: every index's persistent B+Tree must hold
    /// exactly the shadow's `(memcomparable key, oid)` pairs. Call at a
    /// quiescent point (between transactions) — mid-transaction the
    /// shadow legitimately runs ahead of the trees, which see a
    /// transaction's writes only at its flush.
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

    /// Whether an index holds the values of some attribute of `class`:
    /// the commit set must then carry its objects' before-images.
    pub(crate) fn covers(&self, class: ClassId) -> bool {
        self.indexes
            .read()
            .iter()
            .any(|i| self.schema.is_subclass(class, i.class))
    }

    /// Bring the persistent trees up to `txn`'s net effect; the
    /// Persistence PM calls this from its write-back, inside the
    /// transaction's WAL window. For each object of `set` with a
    /// before-image and each index serving it, the before-image's pair
    /// is deleted and the after-image's inserted when the two keys
    /// differ: a value written 5 → 7 → 5, or an object created and
    /// deleted again, logs nothing.
    pub(crate) fn flush(&self, txn: TxnId, set: &CommitSet) -> Result<()> {
        // Copy the descriptors and drop the lock: a concurrent write of
        // an indexed attribute takes the write lock in its sentry.
        let indexes: Vec<(ClassId, String, u64)> = self
            .indexes
            .read()
            .iter()
            .map(|i| (i.class, i.attribute.clone(), i.store_id))
            .collect();
        for (oid, w) in &set.objects {
            let Some(before) = &w.before else { continue };
            for (base, attribute, store_id) in &indexes {
                let key = |image: &Option<ObjectState>| {
                    let s = image
                        .as_ref()
                        .filter(|s| self.schema.is_subclass(s.class, *base))?;
                    let slot = self.schema.attr_slot(s.class, attribute).ok()?;
                    Some(s.attrs[slot].index_key())
                };
                let (old, new) = (key(before), key(&w.after));
                if old == new {
                    continue;
                }
                if let Some(k) = old {
                    self.sm.index_delete(txn, *store_id, &k, oid.raw())?;
                }
                if let Some(k) = new {
                    self.sm.index_insert(txn, *store_id, &k, oid.raw())?;
                }
            }
        }
        Ok(())
    }

    /// Whether `idx` holds the values of `class.attribute`: an index on
    /// the class itself or on an ancestor.
    fn serves(&self, idx: &Index, class: ClassId, attribute: &str) -> bool {
        idx.attribute == attribute && self.schema.is_subclass(class, idx.class)
    }

    fn index_object(&self, oid: ObjectId, state: &ObjectState, insert: bool) {
        let mut indexes = self.indexes.write();
        for idx in indexes.iter_mut() {
            if !self.schema.is_subclass(state.class, idx.class) {
                continue;
            }
            if let Ok(slot) = self.schema.attr_slot(state.class, &idx.attribute) {
                let key = IndexKey(state.attrs[slot].clone());
                if insert {
                    idx.tree.entry(key).or_default().insert(oid);
                } else {
                    unlink(&mut idx.tree, &key, oid);
                }
            }
        }
    }
}

/// Remove `oid` from under `key`, and the key once no object holds it.
fn unlink(tree: &mut Tree, key: &IndexKey, oid: ObjectId) {
    if let Some(set) = tree.get_mut(key) {
        set.remove(&oid);
        if set.is_empty() {
            tree.remove(key);
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
        // read lock, before taking the write lock.
        let serves = |idx: &Index| self.serves(idx, change.class, change.attribute);
        if !self.indexes.read().iter().any(serves) {
            return;
        }
        let mut indexes = self.indexes.write();
        for idx in indexes.iter_mut().filter(|idx| serves(idx)) {
            unlink(&mut idx.tree, &IndexKey(change.old.clone()), change.oid);
            idx.tree
                .entry(IndexKey(change.new.clone()))
                .or_default()
                .insert(change.oid);
        }
    }
}

impl LifecycleSentry for IndexingPm {
    fn on_create(&self, _txn: TxnId, oid: ObjectId, state: &ObjectState) {
        self.index_object(oid, state, true);
    }

    fn on_delete(&self, _txn: TxnId, oid: ObjectId, state: &ObjectState) {
        self.index_object(oid, state, false);
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
