//! The data dictionary: "a globally known repository of system, object,
//! name, and type information" (§5).
//!
//! Its most visible job in the paper is resolving *named roots* — the
//! rule example fetches the reactor with `OpenOODB->fetch("Block A")`.
//! Type information lives in the schema (shared by reference); this
//! module owns the name space.

use crate::meta::SupportModule;
use reach_common::sync::RwLock;
use reach_common::{ObjectId, ReachError, Result};
use reach_object::Schema;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Name ⇄ object bindings plus access to type information.
pub struct DataDictionary {
    schema: Arc<Schema>,
    names: RwLock<BTreeMap<String, ObjectId>>,
    /// Set after the bindings change, cleared by the commit that stores
    /// them: the next commit is to store them.
    pub(crate) dirty: AtomicBool,
}

impl DataDictionary {
    pub fn new(schema: Arc<Schema>) -> Self {
        DataDictionary {
            schema,
            names: RwLock::new(BTreeMap::new()),
            dirty: AtomicBool::new(false),
        }
    }

    /// The type repository.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Bind `name` to an object (a persistent root) at once; the next
    /// commit stores it. A transaction binds through
    /// `Database::persist_named` instead, which binds when it commits.
    pub fn bind(&self, name: &str, oid: ObjectId) {
        self.names.write().insert(name.to_string(), oid);
        self.dirty.store(true, Ordering::Release);
    }

    /// Remove a binding; returns the old target.
    pub fn unbind(&self, name: &str) -> Option<ObjectId> {
        let old = self.names.write().remove(name);
        self.dirty.store(true, Ordering::Release);
        old
    }

    /// Resolve a name (the `fetch("Block A")` of the paper).
    pub fn lookup(&self, name: &str) -> Result<ObjectId> {
        self.names
            .read()
            .get(name)
            .copied()
            .ok_or_else(|| ReachError::NameNotFound(name.to_string()))
    }

    /// All bindings, name-sorted (persistence write-out, introspection).
    pub fn bindings(&self) -> Vec<(String, ObjectId)> {
        self.names
            .read()
            .iter()
            .map(|(n, o)| (n.clone(), *o))
            .collect()
    }

    /// Replace all bindings (persistence load).
    pub fn load(&self, bindings: Vec<(String, ObjectId)>) {
        let mut names = self.names.write();
        names.clear();
        names.extend(bindings);
    }
}

impl SupportModule for DataDictionary {
    fn name(&self) -> &'static str {
        "data-dictionary"
    }
}

impl std::fmt::Debug for DataDictionary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataDictionary")
            .field("names", &self.names.read().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_lookup_unbind() {
        let d = DataDictionary::new(Arc::new(Schema::new()));
        d.bind("Block A", ObjectId::new(7));
        assert_eq!(d.lookup("Block A").unwrap(), ObjectId::new(7));
        assert_eq!(d.unbind("Block A"), Some(ObjectId::new(7)));
        assert!(d.lookup("Block A").is_err());
    }

    #[test]
    fn load_replaces_bindings() {
        let d = DataDictionary::new(Arc::new(Schema::new()));
        d.bind("old", ObjectId::new(1));
        d.load(vec![("new".into(), ObjectId::new(2))]);
        assert!(d.lookup("old").is_err());
        assert_eq!(d.lookup("new").unwrap(), ObjectId::new(2));
        assert_eq!(d.bindings().len(), 1);
    }
}
