//! Experiment E12 — per-transaction staging vs a central log (§6.3).
//!
//! "The maintenance of a highly distributed history eliminates the
//! bottleneck that would result from centrally logging the occurrence
//! of events." T threads each run transactions of `TXN_EVENTS` events
//! and every event ends up in one global history window, either
//! * **staged** — the REACH design: each event goes onto the
//!   commit-gated feed, which keeps it with its transaction (in a
//!   stripe chosen by transaction id), and the commit hands the
//!   transaction's events to the subscribed window in one slice; or
//! * **central** — the rejected design: each event is appended to the
//!   one globally locked log as it is raised.
//!
//! ```sh
//! cargo run --release -p reach-bench --bin exp_history
//! ```

use reach_common::{EventTypeId, TimePoint, Timestamp, TxnId};
use reach_core::event::{EventData, EventOccurrence};
use reach_core::history::{CommitFeed, GlobalHistory};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const EVENTS_PER_THREAD: u64 = 100_000;
const TXN_EVENTS: u64 = 10;

fn occ(seq: &AtomicU64, txn: u64) -> Arc<EventOccurrence> {
    Arc::new(EventOccurrence {
        event_type: EventTypeId::new(1),
        seq: Timestamp::new(seq.fetch_add(1, Ordering::Relaxed)),
        at: TimePoint::ZERO,
        txn: Some(TxnId::new(txn)),
        top_txn: Some(TxnId::new(txn)),
        data: EventData::default(),
        constituents: Vec::new(),
    })
}

/// Run `threads` workers, each raising `EVENTS_PER_THREAD` events in
/// transactions of `TXN_EVENTS` through `raise(txn, seq)` and ending
/// each transaction with `commit(txn)`. Returns events per second.
fn run(
    threads: usize,
    raise: impl Fn(u64, &AtomicU64) + Send + Sync + 'static,
    commit: impl Fn(u64) + Send + Sync + 'static,
) -> f64 {
    let seq = Arc::new(AtomicU64::new(1));
    let ops = Arc::new((raise, commit));
    let start = Instant::now();
    let handles: Vec<_> = (0..threads as u64)
        .map(|t| {
            let (seq, ops) = (Arc::clone(&seq), Arc::clone(&ops));
            std::thread::spawn(move || {
                for k in 0..EVENTS_PER_THREAD / TXN_EVENTS {
                    // Distinct transaction ids across threads.
                    let txn = 1 + t + k * threads as u64;
                    for _ in 0..TXN_EVENTS {
                        (ops.0)(txn, &seq);
                    }
                    (ops.1)(txn);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    (threads as u64 * EVENTS_PER_THREAD) as f64 / start.elapsed().as_secs_f64()
}

fn run_staged(threads: usize) -> f64 {
    let feed = Arc::new(CommitFeed::default());
    let global = Arc::new(GlobalHistory::new(1 << 22));
    feed.subscribe(Arc::new(move |occs| global.absorb(occs)));
    let f = Arc::clone(&feed);
    run(
        threads,
        move |txn, seq| f.stage(&[occ(seq, txn)]),
        move |txn| feed.finish(TxnId::new(txn), true),
    )
}

fn run_centralized(threads: usize) -> f64 {
    let global = Arc::new(GlobalHistory::new(1 << 22));
    run(
        threads,
        move |txn, seq| global.absorb(&[occ(seq, txn)]),
        |_| {},
    )
}

fn main() {
    // Warm up the allocator and page cache so neither variant pays the
    // process's cold-start cost (it distorts the first measurement by
    // an order of magnitude).
    for _ in 0..2 {
        run_staged(2);
        run_centralized(2);
    }
    println!("E12: per-transaction staging vs central log");
    println!("({EVENTS_PER_THREAD} events raised per thread, {TXN_EVENTS} per transaction)\n");
    println!(
        "{:>8} {:>20} {:>20} {:>8}",
        "threads", "staged (ev/s)", "centralized (ev/s)", "ratio"
    );
    println!("{}", "-".repeat(62));
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let best =
        |f: &dyn Fn(usize) -> f64, t: usize| -> f64 { (0..5).map(|_| f(t)).fold(0.0f64, f64::max) };
    for &threads in &[1usize, 2, 4, 8] {
        let d = best(&run_staged, threads);
        let c = best(&run_centralized, threads);
        println!("{:>8} {:>20.0} {:>20.0} {:>7.2}x", threads, d, c, d / c);
    }
    println!("(best of 5 runs per cell; {cores} cores on this host)");
    println!(
        "\nshape check (paper): the central log serializes all detectors on\n\
         one lock per event; staging keeps each transaction's events apart\n\
         and takes the global lock once per commit."
    );
}
