//! A dropped world frees itself: building and dropping a database with
//! its active layer leaves the heap where the first such cycle left it,
//! and nothing keeps the dropped `Database` or `ReachSystem` alive.
//!
//! Four shapes, each built and dropped several times: an embedded
//! world (immediate, detached, sequential and parallel rules, a
//! snapshot reader, and a trigger left open with its causally dependent
//! firings parked on it), the same world with threaded composition, a
//! file-backed served world with one connected client, and a two-shard
//! in-memory deployment committing locally and across shards. Before
//! the back-edges from the substrate into the active layer were made
//! weak, every cycle leaked its whole world: the detector bridges held
//! the system, the temporal observer and the temporal manager held each
//! other, the change log and the object space held each other, the
//! detached workers held their own pool, a server kept running after
//! its handle was dropped, and a threaded router's composition workers
//! held the router.
//!
//! Live bytes by a counting allocator, as in `reach-core`'s
//! `steady_state` test.

use open_oodb::{Database, DatabaseConfig};
use reach_core::eca::CompositionMode;
use reach_core::event::MethodPhase;
use reach_core::{
    CompositionScope, ConsumptionPolicy, CouplingMode, EventExpr, Lifespan, ReachConfig,
    ReachSystem, RuleBuilder,
};
use reach_dist::DistSystem;
use reach_object::{Value, ValueType};
use reach_server::{serve, Client, ClientConfig, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// System allocator wrapper that tracks live bytes. Test binaries get
/// exactly one global allocator, so this file holds a single test.
struct LiveAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveAlloc = LiveAlloc;

const CYCLES: usize = 5;
const OBJECTS: usize = 2_000;
/// What a later cycle may hold beyond the first one's level: far below
/// one leaked world of `OBJECTS` objects (several hundred KiB).
const SLACK: isize = 128 << 10;

/// The weak ends of one dropped world.
struct Dropped {
    dbs: Vec<Weak<Database>>,
    systems: Vec<Weak<ReachSystem>>,
}

impl Dropped {
    fn alive(&self) -> bool {
        self.dbs.iter().any(|w| w.strong_count() > 0)
            || self.systems.iter().any(|w| w.strong_count() > 0)
    }
}

/// A sensor class whose `report` method stores its argument.
fn sensor_class(db: &Database) -> reach_common::ClassId {
    let (b, report) = db
        .define_class("Sensor")
        .attr("value", ValueType::Int, Value::Int(0))
        .attr("alarms", ValueType::Int, Value::Int(0))
        .virtual_method("report");
    let class = b.define().unwrap();
    db.methods().register_fn(report, |ctx| {
        ctx.set("value", ctx.arg(0))?;
        Ok(Value::Null)
    });
    class
}

/// An immediate guard with a write and a detached counter on `report`.
fn rules(sys: &ReachSystem, class: reach_common::ClassId, fired: &Arc<AtomicUsize>) {
    let ev = sys
        .define_method_event("report", class, "report", MethodPhase::After)
        .unwrap();
    sys.define_rule(
        RuleBuilder::new("guard")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .when(|ctx| Ok(ctx.arg(0).as_int()? >= 100))
            .then(|ctx| {
                let oid = ctx.receiver().unwrap();
                ctx.db.set_attr(ctx.txn, oid, "alarms", Value::Int(1))
            }),
    )
    .unwrap();
    let f = Arc::clone(fired);
    sys.define_rule(
        RuleBuilder::new("count")
            .on(ev)
            .coupling(CouplingMode::Detached)
            .then(move |_| {
                f.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }),
    )
    .unwrap();
}

/// The embedded world. Threaded composition adds a cross-transaction
/// composite (only composites get a composition worker) with a detached
/// rule.
fn embedded(composition: CompositionMode) -> Dropped {
    let db = Database::in_memory().unwrap();
    let class = sensor_class(&db);
    let sys = ReachSystem::new(
        Arc::clone(&db),
        ReachConfig {
            composition,
            ..Default::default()
        },
    );
    let fired = Arc::new(AtomicUsize::new(0));
    rules(&sys, class, &fired);
    let report = sys.router().event_by_name("report").unwrap();
    // The causally dependent rules' actions hold the database: a firing
    // parked on the trigger left open below must not keep the world
    // alive from inside the database's dependency graph.
    let after_commit = Arc::new(AtomicUsize::new(0));
    for (name, mode) in [
        ("after-commit", CouplingMode::SequentialCausallyDependent),
        ("with-commit", CouplingMode::ParallelCausallyDependent),
    ] {
        let (f, held) = (Arc::clone(&after_commit), Arc::clone(&db));
        sys.define_rule(
            RuleBuilder::new(name)
                .on(report)
                .coupling(mode)
                .then(move |ctx| {
                    assert!(Arc::ptr_eq(ctx.db, &held));
                    f.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }),
        )
        .unwrap();
    }
    let composed = Arc::new(AtomicUsize::new(0));
    if composition == CompositionMode::Parallel {
        let pairs = sys
            .define_composite(
                "pair",
                EventExpr::History {
                    expr: Arc::new(EventExpr::Primitive(report)),
                    count: 2,
                },
                CompositionScope::CrossTransaction,
                Lifespan::Interval(Duration::from_secs(3600)),
                ConsumptionPolicy::Chronicle,
            )
            .unwrap();
        let f = Arc::clone(&composed);
        sys.define_rule(
            RuleBuilder::new("on-pair")
                .on(pairs)
                .coupling(CouplingMode::Detached)
                .then(move |_| {
                    f.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }),
        )
        .unwrap();
    }
    let t = db.begin().unwrap();
    let oids: Vec<_> = (0..OBJECTS)
        .map(|_| {
            let oid = db.create(t, class).unwrap();
            db.persist(t, oid).unwrap();
            oid
        })
        .collect();
    db.commit(t).unwrap();
    for round in 0..20i64 {
        let t = db.begin().unwrap();
        for oid in oids.iter().skip(round as usize).step_by(97) {
            db.invoke(t, *oid, "report", &[Value::Int(round * 10)])
                .unwrap();
        }
        db.commit(t).unwrap();
        let r = db.begin_read_only().unwrap();
        db.get_attr(r, oids[round as usize], "value").unwrap();
        db.commit(r).unwrap();
    }
    sys.wait_quiescent();
    assert!(fired.load(Ordering::Relaxed) > 0);
    assert!(after_commit.load(Ordering::Relaxed) > 0);
    assert_eq!(
        composed.load(Ordering::Relaxed) > 0,
        composition == CompositionMode::Parallel
    );
    // A trigger that never ends: its sequential firing stays parked on
    // it when the world is dropped.
    let open = db.begin().unwrap();
    db.invoke(open, oids[0], "report", &[Value::Int(1)])
        .unwrap();
    Dropped {
        dbs: vec![Arc::downgrade(&db)],
        systems: vec![Arc::downgrade(&sys)],
    }
}

fn served(cycle: usize) -> Dropped {
    let dir = std::env::temp_dir().join(format!("reach-teardown-{}-{cycle}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir, DatabaseConfig::default()).unwrap();
    let class = sensor_class(&db);
    let t = db.begin().unwrap();
    let oids: Vec<_> = (0..OBJECTS)
        .map(|_| {
            let oid = db.create(t, class).unwrap();
            db.persist(t, oid).unwrap();
            oid
        })
        .collect();
    db.commit(t).unwrap();
    let sys = ReachSystem::new(Arc::clone(&db), Default::default());
    let handle = serve(Arc::clone(&sys), ServerConfig::default()).unwrap();
    let mut client = Client::connect(&handle.addr(), ClientConfig::default()).unwrap();
    for (i, oid) in oids.iter().take(20).enumerate() {
        let t = client.begin().unwrap();
        client.set(t, *oid, "value", Value::Int(i as i64)).unwrap();
        client.commit(t).unwrap();
        let r = client.begin_read_only().unwrap();
        assert_eq!(client.get(r, *oid, "value").unwrap(), Value::Int(i as i64));
        client.commit(r).unwrap();
    }
    // The client stays connected: dropping the handle must end its
    // session as well as the server's own threads.
    drop(handle);
    drop(client);
    let dropped = Dropped {
        dbs: vec![Arc::downgrade(&db)],
        systems: vec![Arc::downgrade(&sys)],
    };
    drop((sys, db));
    let _ = std::fs::remove_dir_all(&dir);
    dropped
}

fn sharded() -> Dropped {
    let dist = DistSystem::in_memory(2).unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let classes: Vec<_> = dist
        .systems()
        .iter()
        .map(|sys| {
            let class = sensor_class(sys.db());
            rules(sys, class, &fired);
            class
        })
        .collect();
    let mut t = dist.begin();
    let oids: Vec<_> = (0..OBJECTS)
        .map(|i| {
            let shard = (i % 2) as u32;
            let oid = dist.create_on(&mut t, shard, classes[i % 2]).unwrap();
            dist.persist(&mut t, oid).unwrap();
            oid
        })
        .collect();
    dist.commit(t).unwrap();
    for i in 0..20usize {
        // Adjacent oids live on different shards: a two-shard commit.
        let mut t = dist.begin();
        for oid in &oids[2 * i..2 * i + 2] {
            dist.invoke(&mut t, *oid, "report", &[Value::Int(i as i64 * 10)])
                .unwrap();
        }
        dist.commit(t).unwrap();
    }
    dist.wait_quiescent();
    assert!(fired.load(Ordering::Relaxed) > 0);
    Dropped {
        dbs: dist
            .systems()
            .iter()
            .map(|s| Arc::downgrade(s.db()))
            .collect(),
        systems: dist.systems().iter().map(Arc::downgrade).collect(),
    }
}

/// Threads of this process, where the platform lists them.
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// Wait for a dropped world's last threads to let go of it and exit: a
/// server connection thread retires its session just after `shutdown`
/// returns.
fn settle(dropped: &Dropped, threads_before: Option<usize>, what: &str, cycle: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while dropped.alive() || threads() > threads_before {
        assert!(
            Instant::now() < deadline,
            "{what} cycle {cycle}: the dropped world is still alive \
             ({} Database / ReachSystem references, {:?} threads, {threads_before:?} before)",
            dropped.dbs.iter().map(Weak::strong_count).sum::<usize>()
                + dropped
                    .systems
                    .iter()
                    .map(Weak::strong_count)
                    .sum::<usize>(),
            threads(),
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn dropped_worlds_free_themselves() {
    let shapes: [(&str, &dyn Fn(usize) -> Dropped); 4] = [
        ("embedded", &|_| embedded(CompositionMode::Synchronous)),
        ("threaded composition", &|_| {
            embedded(CompositionMode::Parallel)
        }),
        ("served", &served),
        ("sharded", &|_| sharded()),
    ];
    for (what, build) in shapes {
        let mut first = None;
        for cycle in 0..CYCLES {
            let threads_before = threads();
            let dropped = build(cycle);
            settle(&dropped, threads_before, what, cycle);
            let live = LIVE.load(Ordering::Relaxed);
            let first = *first.get_or_insert(live);
            assert!(
                live <= first + SLACK,
                "{what} cycle {cycle}: {} bytes live beyond the first cycle's level",
                live - first
            );
        }
    }
}
