//! Experiment E20 — snapshot reads never block.
//!
//! Writers churn single-attribute update transactions (exclusive locks,
//! WAL commits) over a pool of hot objects while reader threads time
//! every read transaction end to end. The same reader workload runs
//! twice: once as ordinary locking transactions (shared locks — each
//! read queues behind whichever writer holds the object) and once as
//! MVCC snapshot transactions (`begin_read_only` — a stamp and a
//! version-chain walk, zero lock-manager traffic). The paper's §4
//! motivation for an integrated active OODBMS is exactly this tail:
//! condition evaluation must not stall behind update transactions.
//!
//! The zero-lock claim is *asserted*, not eyeballed: writers count
//! their own exclusive grants, and the metrics registry's global
//! `lock_acquisitions` delta over the snapshot phase must equal the
//! writers' count exactly — any excess is a reader touching the lock
//! manager.
//!
//! ```sh
//! cargo run --release -p reach-bench --bin exp_snapshot [--smoke]
//! ```

use open_oodb::Database;
use reach_bench::percentile;
use reach_common::ObjectId;
use reach_object::{Value, ValueType};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct PhaseResult {
    mode: &'static str,
    reads: u64,
    elapsed_s: f64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
    writer_commits: u64,
    reader_lock_grants: u64,
}

impl PhaseResult {
    fn reads_per_s(&self) -> f64 {
        self.reads as f64 / self.elapsed_s
    }
}

/// One measured phase: `readers` threads each timing `reads_each` read
/// transactions against `oids`, while one writer per object commits
/// updates in a loop until the readers finish.
fn run_phase(
    db: &Arc<Database>,
    oids: &Arc<Vec<ObjectId>>,
    readers: usize,
    reads_each: u64,
    snapshot: bool,
) -> PhaseResult {
    let stop = Arc::new(AtomicBool::new(false));
    let writer_commits = Arc::new(AtomicU64::new(0));
    let grants_before = db.metrics().txn.lock_acquisitions.get();

    let t0 = Instant::now();
    let mut writers = Vec::new();
    for (w, &oid) in oids.iter().enumerate() {
        let db = Arc::clone(db);
        let stop = Arc::clone(&stop);
        let commits = Arc::clone(&writer_commits);
        writers.push(std::thread::spawn(move || {
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                let txn = db.begin().expect("writer begin");
                db.set_attr(txn, oid, "v", Value::Int((w as i64) << 32 | i))
                    .expect("writer set");
                db.commit(txn).expect("writer commit");
                commits.fetch_add(1, Ordering::Relaxed);
                i += 1;
            }
        }));
    }

    let mut handles = Vec::new();
    for r in 0..readers {
        let db = Arc::clone(db);
        let oids = Arc::clone(oids);
        handles.push(std::thread::spawn(move || {
            let mut lat_us = Vec::with_capacity(reads_each as usize);
            for i in 0..reads_each {
                let oid = oids[(r as u64 + i) as usize % oids.len()];
                let t = Instant::now();
                let txn = if snapshot {
                    db.begin_read_only().expect("reader begin")
                } else {
                    db.begin().expect("reader begin")
                };
                let v = db.get_attr(txn, oid, "v").expect("reader get");
                db.commit(txn).expect("reader commit");
                lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                assert!(matches!(v, Value::Int(_)), "unexpected value {v:?}");
            }
            lat_us
        }));
    }
    let mut lat_us: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("reader thread"))
        .collect();
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer thread");
    }
    let elapsed_s = t0.elapsed().as_secs_f64();

    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let writer_commits = writer_commits.load(Ordering::Relaxed);
    let grants = db.metrics().txn.lock_acquisitions.get() - grants_before;
    // Every writer transaction takes exactly one exclusive grant; the
    // remainder of the delta is reader lock traffic.
    let reader_lock_grants = grants - writer_commits;

    PhaseResult {
        mode: if snapshot { "snapshot" } else { "locking" },
        reads: lat_us.len() as u64,
        elapsed_s,
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        max_us: lat_us.last().copied().unwrap_or(0.0),
        writer_commits,
        reader_lock_grants,
    }
}

fn print_row(r: &PhaseResult) {
    println!(
        "{:>9} {:>8} {:>11.0} {:>9.1} {:>9.1} {:>10.1} {:>13} {:>12}",
        r.mode,
        r.reads,
        r.reads_per_s(),
        r.p50_us,
        r.p99_us,
        r.max_us,
        r.writer_commits,
        r.reader_lock_grants,
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (writers, readers, reads_each) = if smoke {
        (2usize, 2usize, 200u64)
    } else {
        (4, 4, 2_000)
    };

    let db = Database::in_memory_realtime().expect("db");
    let class = db
        .define_class("Hot")
        .attr("v", ValueType::Int, Value::Int(0))
        .define()
        .expect("class");
    let setup = db.begin().expect("setup txn");
    let oids: Vec<ObjectId> = (0..writers)
        .map(|_| db.create(setup, class).expect("create"))
        .collect();
    db.commit(setup).expect("setup commit");
    let oids = Arc::new(oids);
    db.metrics().enable();

    println!("E20: reader latency while {writers} writers churn (µs per read txn)");
    println!(
        "{:>9} {:>8} {:>11} {:>9} {:>9} {:>10} {:>13} {:>12}",
        "mode", "reads", "reads/s", "p50", "p99", "max", "writer-txns", "reader-locks"
    );

    let locking = run_phase(&db, &oids, readers, reads_each, false);
    print_row(&locking);
    let snapshot = run_phase(&db, &oids, readers, reads_each, true);
    print_row(&snapshot);

    let mut failed = false;
    if snapshot.reader_lock_grants != 0 {
        eprintln!(
            "violation: snapshot readers took {} lock(s); must be zero",
            snapshot.reader_lock_grants
        );
        failed = true;
    }
    if locking.reader_lock_grants != locking.reads {
        eprintln!(
            "violation: locking readers took {} grants for {} reads; metrics accounting broken",
            locking.reader_lock_grants, locking.reads
        );
        failed = true;
    }
    if snapshot.writer_commits == 0 || locking.writer_commits == 0 {
        eprintln!("violation: writers starved; phases are not measuring contention");
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
    println!(
        "{} ok: snapshot readers took 0 locks across {} reads while writers \
         committed {}; locking p99 {:.1}µs vs snapshot p99 {:.1}µs",
        if smoke { "smoke" } else { "full" },
        snapshot.reads,
        snapshot.writer_commits,
        locking.p99_us,
        snapshot.p99_us
    );
}
