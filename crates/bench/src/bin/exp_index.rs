//! Experiment E21 — condition-evaluation cost vs object count.
//!
//! The REACH paper's argument for integrating the active layer *inside*
//! the OODBMS (§3) is that condition evaluation must not degrade as the
//! object population grows — a rule that fires on `temp == x` cannot
//! afford a linear walk over every sensor object. This experiment
//! measures exactly that: equality predicates over an `Int` attribute,
//! once through the sentry-maintained B+Tree index (`Plan::IndexEq`)
//! and once as the same predicate made index-ineligible (`v + 0 == k`,
//! `Plan::ExtentScan`), across populations from 1 k to 100 k objects.
//!
//! The claim asserted: indexed lookup throughput is *flat* — within
//! 2× across the whole size range — while the scan degrades linearly.
//!
//! ```sh
//! cargo run --release -p reach-bench --bin exp_index [--smoke]
//! ```

use open_oodb::pm::query::Plan;
use open_oodb::Database;
use reach_object::{Value, ValueType};
use std::time::Instant;

struct SizeRow {
    objects: usize,
    build_ms: f64,
    lookups: u64,
    lookups_per_s: f64,
    scans: u64,
    scans_per_s: f64,
}

/// Deterministic key sequence — no wall-clock or OS entropy so runs
/// are comparable.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

fn measure(objects: usize, lookups: u64) -> SizeRow {
    let db = Database::in_memory().expect("db");
    let class = db
        .define_class("Item")
        .attr("v", ValueType::Int, Value::Int(0))
        .define()
        .expect("class");
    // Populate in batches so no single transaction's change log is huge.
    let mut created = 0usize;
    while created < objects {
        let txn = db.begin().expect("begin");
        for _ in 0..(objects - created).min(5_000) {
            db.create_with(txn, class, &[("v", Value::Int(created as i64))])
                .expect("create");
            created += 1;
        }
        db.commit(txn).expect("commit");
    }
    db.metrics().enable();

    let t0 = Instant::now();
    db.create_index(class, "v").expect("index");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    db.indexing_pm()
        .verify_shadow()
        .expect("shadow/persistent divergence");

    // Indexed phase: unique attribute values, so every hit set is 0 or 1
    // objects regardless of population — any throughput slope is index
    // descent cost, not result-set size.
    let mut rng = Lcg(0x1D0C5 ^ objects as u64);
    let txn = db.begin().expect("begin");
    let t0 = Instant::now();
    for _ in 0..lookups {
        let k = rng.next(objects as u64);
        let (hits, plan) = db
            .query_with_plan(txn, &format!("select i from Item i where i.v == {k}"))
            .expect("indexed query");
        assert_eq!(hits.len(), 1);
        assert!(matches!(plan, Plan::IndexEq { .. }), "expected IndexEq");
    }
    let lookups_per_s = lookups as f64 / t0.elapsed().as_secs_f64();

    // Scan phase: same predicate, made index-ineligible. Fewer
    // iterations at large populations — the point is the slope, and a
    // 100 k-object walk per query is exactly the cost being measured.
    let scans = (2_000_000 / objects as u64).clamp(10, 500);
    let t0 = Instant::now();
    for _ in 0..scans {
        let k = rng.next(objects as u64);
        let (hits, plan) = db
            .query_with_plan(txn, &format!("select i from Item i where i.v + 0 == {k}"))
            .expect("scan query");
        assert_eq!(hits.len(), 1);
        assert_eq!(plan, Plan::ExtentScan, "expected ExtentScan");
    }
    let scans_per_s = scans as f64 / t0.elapsed().as_secs_f64();
    db.commit(txn).expect("commit");

    let m = db.metrics();
    assert!(
        m.index.lookups.get() >= lookups,
        "index.lookups metric missed the workload"
    );

    SizeRow {
        objects,
        build_ms,
        lookups,
        lookups_per_s,
        scans,
        scans_per_s,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, lookups): (&[usize], u64) = if smoke {
        (&[1_000, 10_000], 2_000)
    } else {
        (&[1_000, 10_000, 100_000], 20_000)
    };

    println!("E21: equality condition evaluation, index vs extent scan");
    println!(
        "{:>9} {:>10} {:>9} {:>12} {:>7} {:>12} {:>9}",
        "objects", "build-ms", "lookups", "lookups/s", "scans", "scans/s", "speedup"
    );
    let rows: Vec<SizeRow> = sizes.iter().map(|&n| measure(n, lookups)).collect();
    for r in &rows {
        println!(
            "{:>9} {:>10.1} {:>9} {:>12.0} {:>7} {:>12.0} {:>8.1}x",
            r.objects,
            r.build_ms,
            r.lookups,
            r.lookups_per_s,
            r.scans,
            r.scans_per_s,
            r.lookups_per_s / r.scans_per_s
        );
    }

    // The asserted claims. Indexed throughput must be flat across the
    // population range (±2×); the scan must be at least 5× slower than
    // the index at the largest population (locally it is >100×).
    let fastest = rows.iter().map(|r| r.lookups_per_s).fold(0.0, f64::max);
    let slowest = rows
        .iter()
        .map(|r| r.lookups_per_s)
        .fold(f64::INFINITY, f64::min);
    assert!(
        fastest / slowest <= 2.0,
        "indexed lookups are not flat: {:.0}..{:.0} lookups/s ({:.2}x) across {:?} objects",
        slowest,
        fastest,
        fastest / slowest,
        sizes
    );
    let last = rows.last().unwrap();
    assert!(
        last.lookups_per_s > 5.0 * last.scans_per_s,
        "index buys <5x over the scan at {} objects ({:.0} vs {:.0}/s)",
        last.objects,
        last.lookups_per_s,
        last.scans_per_s
    );

    println!(
        "{} ok: {:.0} lookups/s at {} objects ({:.2}x spread across sizes), \
         scan at {:.0}/s",
        if smoke { "smoke" } else { "full" },
        last.lookups_per_s,
        last.objects,
        fastest / slowest,
        last.scans_per_s
    );
}
