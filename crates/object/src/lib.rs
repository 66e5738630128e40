//! `reach-object` — the reflective object model underneath REACH.
//!
//! The paper's REACH system uses the C++ type system as its data model
//! and a language preprocessor to weave *in-line wrapper sentries* into
//! every extendible class (§6.2). Rust has no preprocessable C++
//! classes, so this crate provides the equivalent capability as a
//! *reflective* model (see DESIGN.md §2): classes are first-class
//! runtime values with single *and multiple* inheritance, attributes,
//! and virtual methods, and every method invocation goes through a
//! [`dispatch::Dispatcher`] whose interception point plays the role of
//! the generated wrapper.
//!
//! The properties §6.1 demands are all honoured here:
//!
//! * *rich types can be sentried* — any class, regardless of shape;
//! * *monitoring is orthogonal to persistence/distribution* — the
//!   [`space::ObjectSpace`] hook points are independent of the sentry
//!   chain;
//! * *member function invocation is trappable* — `before` and `after`
//!   hooks around every dispatch;
//! * *monitored and unmonitored types are declared identically* — the
//!   monitoring bit is flipped at runtime per (class, method), never in
//!   the class definition;
//! * *state access is trappable* — `set_attr` runs the state-change
//!   sentries, which is exactly what the closed commercial systems of §4
//!   could not offer.

pub mod builder;
pub mod dispatch;
pub mod extent;
pub mod method;
pub mod schema;
pub mod space;
pub mod value;

pub use builder::ClassBuilder;
pub use dispatch::{Dispatcher, MethodCall, MethodSentry, SentryPhase};
pub use extent::ExtentRegistry;
pub use method::{MethodBody, MethodCtx, MethodRegistry};
pub use schema::{AttrDef, ClassDef, MethodDecl, Schema};
pub use space::{LifecycleSentry, ObjectSpace, ObjectState, StateChange, StateSentry, UndoLog};
pub use value::{Args, Value, ValueType, MAX_VALUE_DEPTH};
