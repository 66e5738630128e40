//! Method bodies and their registry.
//!
//! A method body is a Rust closure over a [`MethodCtx`], which gives it
//! the receiver, the arguments, the object space (for state access and
//! creating objects) and the dispatcher (for nested method calls — the
//! equivalent of one C++ member function calling another).

use crate::dispatch::Dispatcher;
use crate::space::ObjectSpace;
use crate::value::Value;
use reach_common::sync::RwLock;
use reach_common::{FastMap, MethodId, ObjectId, ReachError, Result, TxnId};
use std::sync::Arc;

/// Everything a method body can touch.
pub struct MethodCtx<'a> {
    pub space: &'a ObjectSpace,
    pub dispatcher: &'a Dispatcher,
    pub txn: TxnId,
    pub self_oid: ObjectId,
    pub args: &'a [Value],
}

impl MethodCtx<'_> {
    /// Read an attribute of the receiver.
    pub fn get(&self, attr: &str) -> Result<Value> {
        self.space.get_attr(self.self_oid, attr)
    }

    /// Write an attribute of the receiver (state sentries fire).
    pub fn set(&self, attr: &str, value: Value) -> Result<()> {
        self.space.set_attr(self.txn, self.self_oid, attr, value)
    }

    /// Positional argument, or `Null` when absent.
    pub fn arg(&self, idx: usize) -> Value {
        self.args.get(idx).cloned().unwrap_or(Value::Null)
    }

    /// Invoke another method in the same transaction (nested dispatch —
    /// its events are detected like any other).
    pub fn call(&self, receiver: ObjectId, method: &str, args: &[Value]) -> Result<Value> {
        self.dispatcher
            .invoke(self.space, self.txn, receiver, method, args)
    }
}

/// A method implementation.
pub type MethodBody = Arc<dyn Fn(&MethodCtx<'_>) -> Result<Value> + Send + Sync>;

/// Registry mapping method ids to bodies.
pub struct MethodRegistry {
    bodies: RwLock<FastMap<MethodId, MethodBody>>,
}

impl MethodRegistry {
    pub fn new() -> Self {
        MethodRegistry {
            bodies: RwLock::new(FastMap::default()),
        }
    }

    /// Register (or replace) the body for a method id.
    pub fn register(&self, id: MethodId, body: MethodBody) {
        self.bodies.write().insert(id, body);
    }

    /// Convenience: register from a plain closure.
    pub fn register_fn<F>(&self, id: MethodId, f: F)
    where
        F: Fn(&MethodCtx<'_>) -> Result<Value> + Send + Sync + 'static,
    {
        self.register(id, Arc::new(f));
    }

    /// Fetch a body.
    pub fn body(&self, id: MethodId) -> Result<MethodBody> {
        self.bodies
            .read()
            .get(&id)
            .cloned()
            .ok_or(ReachError::MethodNotFound(id))
    }

    pub fn len(&self) -> usize {
        self.bodies.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for MethodRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trip_and_missing() {
        let r = MethodRegistry::new();
        let id = MethodId::new(1);
        assert!(r.body(id).is_err());
        r.register_fn(id, |_| Ok(Value::Int(42)));
        assert!(r.body(id).is_ok());
        assert_eq!(r.len(), 1);
    }
}
