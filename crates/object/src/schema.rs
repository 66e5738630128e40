//! The schema: classes, inheritance, attribute layout, method tables.
//!
//! §6.1 requires that the sentry mechanism cope with the full C++ type
//! system: "inheritance hierarchy including multiple inheritance", state
//! variables, and virtual / non-virtual member functions. The schema
//! models precisely that subset:
//!
//! * classes with any number of base classes (multiple inheritance);
//! * attributes inherited from all bases, with a *flattened layout*
//!   computed per class (duplicate names across bases are a schema
//!   error — the C++ ambiguity rule);
//! * methods declared `virtual` (overridable; dispatch resolves the most
//!   derived implementation) or non-virtual (resolved statically against
//!   the declaring class).

use crate::value::{Value, ValueType};
use reach_common::sync::RwLock;
use reach_common::{ClassId, FastMap, IdGen, MethodId, ReachError, Result};
use std::collections::{HashMap, HashSet};

/// An attribute declaration.
#[derive(Debug, Clone)]
pub struct AttrDef {
    pub name: String,
    pub ty: ValueType,
    pub default: Value,
}

/// A method declaration (the body lives in the
/// [`MethodRegistry`](crate::method::MethodRegistry)).
#[derive(Debug, Clone)]
pub struct MethodDecl {
    pub id: MethodId,
    pub name: String,
    /// Virtual methods may be overridden in subclasses; dispatch picks
    /// the most derived implementation for the receiver's class.
    pub is_virtual: bool,
}

/// A class definition.
#[derive(Debug, Clone)]
pub struct ClassDef {
    pub id: ClassId,
    pub name: String,
    pub bases: Vec<ClassId>,
    /// Attributes declared directly on this class.
    pub own_attrs: Vec<AttrDef>,
    /// Methods declared directly on this class.
    pub own_methods: Vec<MethodDecl>,
}

/// Resolved, flattened view of a class (computed once at definition).
#[derive(Debug, Clone)]
struct ResolvedClass {
    def: ClassDef,
    /// C3-free linearization: self, then bases depth-first, de-duplicated.
    lineage: Vec<ClassId>,
    /// Flattened attribute layout: slot index by name.
    attr_index: HashMap<String, usize>,
    attrs: Vec<AttrDef>,
    /// Method name -> (declaring class in lineage order, MethodId).
    vtable: HashMap<String, MethodId>,
}

/// The class registry. Thread-safe; classes are immutable once defined.
pub struct Schema {
    classes: RwLock<FastMap<ClassId, ResolvedClass>>,
    by_name: RwLock<HashMap<String, ClassId>>,
    ids: IdGen,
    method_ids: IdGen,
}

impl Schema {
    pub fn new() -> Self {
        Schema {
            classes: RwLock::new(FastMap::default()),
            by_name: RwLock::new(HashMap::new()),
            ids: IdGen::new(),
            method_ids: IdGen::new(),
        }
    }

    /// Issue a method id (used by [`ClassBuilder`](crate::builder::ClassBuilder)).
    pub(crate) fn next_method_id(&self) -> MethodId {
        self.method_ids.next()
    }

    pub(crate) fn next_class_id(&self) -> ClassId {
        self.ids.next()
    }

    /// Register a fully-specified class. Validates bases, detects
    /// duplicate names and attribute ambiguity, and computes the
    /// flattened layout and vtable.
    pub fn define(&self, def: ClassDef) -> Result<ClassId> {
        if self.by_name.read().contains_key(&def.name) {
            return Err(ReachError::SchemaError(format!(
                "class {:?} already defined",
                def.name
            )));
        }
        let classes = self.classes.read();
        for b in &def.bases {
            if !classes.contains_key(b) {
                return Err(ReachError::ClassNotFound(*b));
            }
        }
        // Linearize: self, then each base's lineage depth-first, deduped.
        let mut lineage = vec![def.id];
        let mut seen: HashSet<ClassId> = HashSet::from([def.id]);
        for b in &def.bases {
            for anc in &classes[b].lineage {
                if seen.insert(*anc) {
                    lineage.push(*anc);
                }
            }
        }
        // Flatten attributes: base attributes first (in lineage order,
        // most-derived last so `own_attrs` extend the inherited layout),
        // detecting cross-base ambiguity.
        let mut attrs: Vec<AttrDef> = Vec::new();
        let mut attr_index: HashMap<String, usize> = HashMap::new();
        for cid in lineage.iter().skip(1).rev() {
            let rc = &classes[cid];
            for a in &rc.def.own_attrs {
                if attr_index.contains_key(&a.name) {
                    // Same attribute reachable through two paths of a
                    // diamond is fine (it was deduped by class), but two
                    // *distinct* declarations with one name are ambiguous.
                    continue;
                }
                attr_index.insert(a.name.clone(), attrs.len());
                attrs.push(a.clone());
            }
        }
        for a in &def.own_attrs {
            if attr_index.contains_key(&a.name) {
                return Err(ReachError::SchemaError(format!(
                    "attribute {:?} of class {:?} shadows an inherited attribute",
                    a.name, def.name
                )));
            }
            // A default is stored like any write, so it must be readable.
            if !a.default.conforms_to(ValueType::Any) {
                return Err(ReachError::SchemaError(format!(
                    "default of attribute {:?} of class {:?} nests lists too deep to store",
                    a.name, def.name
                )));
            }
            // ... and typed like one: `set_attr` refuses what this refuses.
            a.default.check_type(a.ty)?;
            attr_index.insert(a.name.clone(), attrs.len());
            attrs.push(a.clone());
        }
        // Ambiguity check across distinct bases: two bases contributing
        // the same attribute name from *different* declaring classes.
        {
            let mut from: HashMap<&str, ClassId> = HashMap::new();
            for cid in lineage.iter().skip(1) {
                let rc = &classes[cid];
                for a in &rc.def.own_attrs {
                    if let Some(prev) = from.insert(a.name.as_str(), *cid) {
                        if prev != *cid {
                            return Err(ReachError::SchemaError(format!(
                                "attribute {:?} inherited ambiguously by {:?} (from {} and {})",
                                a.name, def.name, prev, cid
                            )));
                        }
                    }
                }
            }
        }
        // Vtable: walk lineage most-derived first; the first declaration
        // of a name wins (virtual override), non-virtual methods are also
        // reachable but a subclass redeclaration of a non-virtual name is
        // rejected (C++ would silently hide it; we refuse the footgun).
        let mut vtable: HashMap<String, MethodId> = HashMap::new();
        let mut virtuality: HashMap<String, bool> = HashMap::new();
        for m in &def.own_methods {
            if vtable.contains_key(&m.name) {
                return Err(ReachError::SchemaError(format!(
                    "method {:?} declared twice on {:?}",
                    m.name, def.name
                )));
            }
            vtable.insert(m.name.clone(), m.id);
            virtuality.insert(m.name.clone(), m.is_virtual);
        }
        for cid in lineage.iter().skip(1) {
            let rc = &classes[cid];
            for m in &rc.def.own_methods {
                match virtuality.get(&m.name) {
                    None => {
                        vtable.insert(m.name.clone(), m.id);
                        virtuality.insert(m.name.clone(), m.is_virtual);
                    }
                    Some(_) if !m.is_virtual && vtable[&m.name] != m.id => {
                        // Derived class redefined a non-virtual base method.
                        return Err(ReachError::SchemaError(format!(
                            "non-virtual method {:?} of {} cannot be overridden by {:?}",
                            m.name, cid, def.name
                        )));
                    }
                    Some(_) => {} // virtual override: derived wins
                }
            }
        }
        drop(classes);
        let id = def.id;
        let name = def.name.clone();
        self.classes.write().insert(
            id,
            ResolvedClass {
                def,
                lineage,
                attr_index,
                attrs,
                vtable,
            },
        );
        self.by_name.write().insert(name, id);
        Ok(id)
    }

    /// Look up a class id by name.
    pub fn class_by_name(&self, name: &str) -> Result<ClassId> {
        self.by_name
            .read()
            .get(name)
            .copied()
            .ok_or_else(|| ReachError::ClassNameNotFound(name.to_string()))
    }

    /// The class's name.
    pub fn class_name(&self, id: ClassId) -> Result<String> {
        self.with(id, |rc| rc.def.name.clone())
    }

    /// All defined class names.
    pub fn class_names(&self) -> Vec<String> {
        self.by_name.read().keys().cloned().collect()
    }

    fn with<R>(&self, id: ClassId, f: impl FnOnce(&ResolvedClass) -> R) -> Result<R> {
        self.classes
            .read()
            .get(&id)
            .map(f)
            .ok_or(ReachError::ClassNotFound(id))
    }

    /// Whether `sub` is `sup` or inherits from it (transitively).
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.with(sub, |rc| rc.lineage.contains(&sup))
            .unwrap_or(false)
    }

    /// The full lineage (self first, then ancestors).
    pub fn lineage(&self, id: ClassId) -> Result<Vec<ClassId>> {
        self.with(id, |rc| rc.lineage.clone())
    }

    /// The flattened attribute layout.
    pub fn attributes(&self, id: ClassId) -> Result<Vec<AttrDef>> {
        self.with(id, |rc| rc.attrs.clone())
    }

    /// Slot index of an attribute in the flattened layout.
    pub fn attr_slot(&self, id: ClassId, name: &str) -> Result<usize> {
        Ok(self.attr_slot_type(id, name)?.0)
    }

    /// Slot index and declared type of an attribute, in one lookup —
    /// what every attribute write needs, without copying the layout.
    pub fn attr_slot_type(&self, id: ClassId, name: &str) -> Result<(usize, ValueType)> {
        self.with(id, |rc| {
            rc.attr_index
                .get(name)
                .map(|&slot| (slot, rc.attrs[slot].ty))
        })?
        .ok_or_else(|| ReachError::AttributeNotFound {
            class: self.class_name(id).unwrap_or_else(|_| id.to_string()),
            attribute: name.to_string(),
        })
    }

    /// Declared type of an attribute.
    pub fn attr_type(&self, id: ClassId, name: &str) -> Result<ValueType> {
        Ok(self.attr_slot_type(id, name)?.1)
    }

    /// Name of the attribute at `slot` in the flattened layout.
    pub fn attr_name(&self, id: ClassId, slot: usize) -> Result<String> {
        self.with(id, |rc| rc.attrs.get(slot).map(|a| a.name.clone()))?
            .ok_or_else(|| {
                ReachError::SchemaError(format!("class {id} has no attribute slot {slot}"))
            })
    }

    /// Default values for a fresh instance of the class.
    pub fn defaults(&self, id: ClassId) -> Result<Vec<Value>> {
        self.with(id, |rc| {
            rc.attrs.iter().map(|a| a.default.clone()).collect()
        })
    }

    /// Resolve a method name on a class (virtual dispatch through the
    /// lineage). Returns the most derived implementation's id.
    pub fn resolve_method(&self, id: ClassId, name: &str) -> Result<MethodId> {
        self.with(id, |rc| rc.vtable.get(name).copied())?
            .ok_or_else(|| ReachError::MethodNameNotFound {
                class: self.class_name(id).unwrap_or_else(|_| id.to_string()),
                method: name.to_string(),
            })
    }

    /// All method names reachable on a class.
    pub fn method_names(&self, id: ClassId) -> Result<Vec<String>> {
        self.with(id, |rc| {
            let mut v: Vec<String> = rc.vtable.keys().cloned().collect();
            v.sort();
            v
        })
    }

    /// Number of defined classes.
    pub fn len(&self) -> usize {
        self.classes.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Schema {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Schema")
            .field("classes", &self.class_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ClassBuilder;

    fn schema() -> Schema {
        Schema::new()
    }

    #[test]
    fn single_inheritance_flattens_attributes() {
        let s = schema();
        let base = ClassBuilder::new(&s, "Base")
            .attr("x", ValueType::Int, Value::Int(0))
            .define()
            .unwrap();
        let derived = ClassBuilder::new(&s, "Derived")
            .base(base)
            .attr("y", ValueType::Int, Value::Int(1))
            .define()
            .unwrap();
        assert!(s.is_subclass(derived, base));
        assert!(!s.is_subclass(base, derived));
        assert_eq!(s.attr_slot(derived, "x").unwrap(), 0);
        assert_eq!(s.attr_slot(derived, "y").unwrap(), 1);
        assert_eq!(
            s.defaults(derived).unwrap(),
            vec![Value::Int(0), Value::Int(1)]
        );
    }

    #[test]
    fn diamond_inheritance_dedupes_shared_base() {
        let s = schema();
        let top = ClassBuilder::new(&s, "Top")
            .attr("t", ValueType::Int, Value::Int(9))
            .define()
            .unwrap();
        let left = ClassBuilder::new(&s, "Left").base(top).define().unwrap();
        let right = ClassBuilder::new(&s, "Right").base(top).define().unwrap();
        let bottom = ClassBuilder::new(&s, "Bottom")
            .base(left)
            .base(right)
            .define()
            .unwrap();
        // `t` appears exactly once in the flattened layout.
        assert_eq!(s.attributes(bottom).unwrap().len(), 1);
        assert!(s.is_subclass(bottom, top));
        assert_eq!(s.lineage(bottom).unwrap().len(), 4);
    }

    #[test]
    fn ambiguous_multiple_inheritance_is_rejected() {
        let s = schema();
        let a = ClassBuilder::new(&s, "A")
            .attr("n", ValueType::Int, Value::Int(0))
            .define()
            .unwrap();
        let b = ClassBuilder::new(&s, "B")
            .attr("n", ValueType::Int, Value::Int(0))
            .define()
            .unwrap();
        let err = ClassBuilder::new(&s, "C").base(a).base(b).define();
        assert!(matches!(err, Err(ReachError::SchemaError(_))));
    }

    #[test]
    fn shadowing_inherited_attribute_is_rejected() {
        let s = schema();
        let base = ClassBuilder::new(&s, "Base")
            .attr("x", ValueType::Int, Value::Int(0))
            .define()
            .unwrap();
        let err = ClassBuilder::new(&s, "Derived")
            .base(base)
            .attr("x", ValueType::Int, Value::Int(1))
            .define();
        assert!(matches!(err, Err(ReachError::SchemaError(_))));
    }

    #[test]
    fn an_unreadable_default_is_rejected() {
        let s = schema();
        let deep = (0..=crate::MAX_VALUE_DEPTH + 1)
            .fold(Value::List(Vec::new()), |inner, _| Value::List(vec![inner]));
        let err = ClassBuilder::new(&s, "Deep")
            .attr("tree", ValueType::Any, deep)
            .define();
        assert!(matches!(err, Err(ReachError::SchemaError(_))));
    }

    #[test]
    fn a_default_of_the_wrong_type_is_rejected() {
        let s = schema();
        let err = ClassBuilder::new(&s, "Mistyped")
            .attr("n", ValueType::Int, Value::Str("x".into()))
            .define();
        assert!(
            matches!(err, Err(ReachError::TypeMismatch { .. })),
            "{err:?}"
        );
        // `Null` is the absent value of every type.
        ClassBuilder::new(&s, "Nullable")
            .attr("peer", ValueType::Ref, Value::Null)
            .define()
            .unwrap();
    }

    #[test]
    fn duplicate_class_name_is_rejected() {
        let s = schema();
        ClassBuilder::new(&s, "Dup").define().unwrap();
        assert!(matches!(
            ClassBuilder::new(&s, "Dup").define(),
            Err(ReachError::SchemaError(_))
        ));
    }

    #[test]
    fn unknown_base_is_rejected() {
        let s = schema();
        let err = ClassBuilder::new(&s, "Orphan")
            .base(ClassId::new(404))
            .define();
        assert!(matches!(err, Err(ReachError::ClassNotFound(_))));
    }

    #[test]
    fn unknown_attribute_lookup_errors() {
        let s = schema();
        let c = ClassBuilder::new(&s, "C").define().unwrap();
        assert!(matches!(
            s.attr_slot(c, "ghost"),
            Err(ReachError::AttributeNotFound { .. })
        ));
    }

    #[test]
    fn class_lookup_by_name() {
        let s = schema();
        let c = ClassBuilder::new(&s, "Named").define().unwrap();
        assert_eq!(s.class_by_name("Named").unwrap(), c);
        assert!(s.class_by_name("Ghost").is_err());
        assert_eq!(s.class_name(c).unwrap(), "Named");
    }
}
