//! An attribute write pays only for its consumers (§6.2: sentries add
//! no "useless overhead" for what nobody monitors). With REACH attached
//! but no index and no state-change event defined, a write is a slot
//! store plus one undo entry: no copy of the class layout, of the
//! sentry list or of the attribute name, and no index or state-change
//! work. Before that, every write made eight heap allocations.
//!
//! Counted through both entry points: `Database::set_attr` (liveness
//! check and lock re-acquisition included) and `ObjectSpace::set_attr`.

use open_oodb::Database;
use reach_core::ReachSystem;
use reach_object::{Value, ValueType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// System allocator wrapper that counts allocation calls (the default
/// `realloc` goes through `alloc`, so growth is counted too). Test
/// binaries get exactly one global allocator, so this file holds a
/// single test.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WRITES: i64 = 10_000;

/// Allocations per call of `write(i)` over `WRITES` calls.
fn allocations_per_write(mut write: impl FnMut(i64)) -> f64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..WRITES {
        write(i);
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / WRITES as f64
}

#[test]
fn unwatched_unindexed_write_allocates_nothing() {
    let db = Database::in_memory().unwrap();
    let class = db
        .define_class("Sensor")
        .attr("value", ValueType::Int, Value::Int(0))
        .attr("alarms", ValueType::Int, Value::Int(0))
        .define()
        .unwrap();
    let _sys = ReachSystem::new(Arc::clone(&db), Default::default());
    let t = db.begin().unwrap();
    let oid = db.create(t, class).unwrap();
    db.persist(t, oid).unwrap();
    db.commit(t).unwrap();

    // The first write of a transaction takes the lock and starts the
    // undo log; those are per-transaction costs, paid before counting.
    let w = db.begin().unwrap();
    db.set_attr(w, oid, "value", Value::Int(-1)).unwrap();
    let via_db = allocations_per_write(|i| db.set_attr(w, oid, "value", Value::Int(i)).unwrap());
    db.commit(w).unwrap();

    let w = db.begin().unwrap();
    let space = db.space();
    space.set_attr(w, oid, "alarms", Value::Int(-1)).unwrap();
    let via_space =
        allocations_per_write(|i| space.set_attr(w, oid, "alarms", Value::Int(i)).unwrap());
    db.commit(w).unwrap();

    // The undo log itself grows by doubling: ~14 reallocations over
    // 10 000 entries, 0.0014 per write.
    assert!(
        via_db <= 0.01,
        "Database::set_attr: {via_db:.2} allocations per write"
    );
    assert!(
        via_space <= 0.01,
        "ObjectSpace::set_attr: {via_space:.2} allocations per write"
    );
    let r = db.begin().unwrap();
    assert_eq!(
        db.get_attr(r, oid, "value").unwrap(),
        Value::Int(WRITES - 1)
    );
    assert_eq!(
        db.get_attr(r, oid, "alarms").unwrap(),
        Value::Int(WRITES - 1)
    );
    db.commit(r).unwrap();
}
