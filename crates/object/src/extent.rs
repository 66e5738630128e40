//! Class extents: the set of live objects per class.
//!
//! The Query PM iterates extents; rules with class-level events consult
//! them too. Extents track *direct* instances; deep extents (including
//! subclass instances) are computed through the schema's lineage.

use crate::schema::Schema;
use reach_common::sync::RwLock;
use reach_common::{ClassId, FastMap, ObjectId};
use std::collections::BTreeSet;

/// Registry of per-class object sets.
pub struct ExtentRegistry {
    extents: RwLock<FastMap<ClassId, BTreeSet<ObjectId>>>,
}

impl ExtentRegistry {
    pub fn new() -> Self {
        ExtentRegistry {
            extents: RwLock::new(FastMap::default()),
        }
    }

    /// Record a new instance of `class`.
    pub fn register(&self, class: ClassId, oid: ObjectId) {
        self.extents.write().entry(class).or_default().insert(oid);
    }

    /// Remove an instance.
    pub fn unregister(&self, class: ClassId, oid: ObjectId) {
        if let Some(set) = self.extents.write().get_mut(&class) {
            set.remove(&oid);
        }
    }

    /// Direct instances of `class`, in id order.
    pub fn extent(&self, class: ClassId) -> Vec<ObjectId> {
        self.extents
            .read()
            .get(&class)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Instances of `class` and every subclass, in id order.
    pub fn extent_deep(&self, schema: &Schema, class: ClassId) -> Vec<ObjectId> {
        let extents = self.extents.read();
        let mut out = BTreeSet::new();
        for (cid, set) in extents.iter() {
            if schema.is_subclass(*cid, class) {
                out.extend(set.iter().copied());
            }
        }
        out.into_iter().collect()
    }

    /// Number of direct instances.
    pub fn count(&self, class: ClassId) -> usize {
        self.extents.read().get(&class).map_or(0, |s| s.len())
    }
}

impl Default for ExtentRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ClassBuilder;

    #[test]
    fn extent_tracks_register_unregister() {
        let r = ExtentRegistry::new();
        let c = ClassId::new(1);
        r.register(c, ObjectId::new(10));
        r.register(c, ObjectId::new(5));
        assert_eq!(r.extent(c), vec![ObjectId::new(5), ObjectId::new(10)]);
        r.unregister(c, ObjectId::new(5));
        assert_eq!(r.extent(c), vec![ObjectId::new(10)]);
        assert_eq!(r.count(c), 1);
    }

    #[test]
    fn deep_extent_includes_subclasses() {
        let s = Schema::new();
        let base = ClassBuilder::new(&s, "Base").define().unwrap();
        let derived = ClassBuilder::new(&s, "Derived")
            .base(base)
            .define()
            .unwrap();
        let other = ClassBuilder::new(&s, "Other").define().unwrap();
        let r = ExtentRegistry::new();
        r.register(base, ObjectId::new(1));
        r.register(derived, ObjectId::new(2));
        r.register(other, ObjectId::new(3));
        assert_eq!(
            r.extent_deep(&s, base),
            vec![ObjectId::new(1), ObjectId::new(2)]
        );
        assert_eq!(r.extent(base), vec![ObjectId::new(1)]);
    }
}
