//! Experiment E16 — group-commit scaling.
//!
//! Sweeps committer threads over a file-backed storage manager whose
//! WAL forces through the group-commit sequencer: committers share one
//! `sync_data` per batch, and the records appended while one sync runs
//! form the next batch. Each committer runs short write transactions
//! back to back; the interesting numbers are committed-txn/s and
//! forces/commit — the inverse batching factor, read from the same
//! `MetricsRegistry` the rest of the stack reports into. With one
//! thread every commit leads its own force; with many, one sync covers
//! up to one commit per committer.
//!
//! ```sh
//! cargo run --release -p reach-bench --bin exp_commit [--smoke]
//! ```

use reach_common::TxnId;
use reach_storage::StorageManager;
use std::sync::Arc;
use std::time::Instant;

struct CaseResult {
    threads: usize,
    commits: u64,
    elapsed_s: f64,
    forces: u64,
}

impl CaseResult {
    fn commits_per_s(&self) -> f64 {
        self.commits as f64 / self.elapsed_s
    }
    fn forces_per_commit(&self) -> f64 {
        self.forces as f64 / self.commits as f64
    }
}

/// One measured case: `threads` committers, `commits_each` short write
/// transactions per committer.
fn run_case(dir: &std::path::Path, threads: usize, commits_each: u64) -> CaseResult {
    let case_dir = dir.join(format!("t{threads}"));
    std::fs::create_dir_all(&case_dir).expect("case dir");
    let sm = Arc::new(StorageManager::open(&case_dir, 256).expect("open"));
    sm.metrics().enable();
    sm.create_segment("commits").expect("segment");
    let forces_before = sm.metrics().wal.forces.get();

    let t0 = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let sm = Arc::clone(&sm);
        handles.push(std::thread::spawn(move || {
            let seg = sm.segment("commits").expect("segment");
            for i in 0..commits_each {
                // Distinct id spaces per thread; id 0 is reserved.
                let txn = TxnId::new(((t as u64) << 32) | (i + 1));
                sm.begin(txn).expect("begin");
                let payload = format!("committer {t} txn {i} {:>40}", i);
                sm.insert(txn, seg, payload.as_bytes()).expect("insert");
                sm.commit(txn).expect("commit");
            }
        }));
    }
    for h in handles {
        h.join().expect("committer thread");
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let forces = sm.metrics().wal.forces.get() - forces_before;
    let commits = threads as u64 * commits_each;

    // Sanity: every committed insert is readable.
    let seg = sm.segment("commits").expect("segment");
    let visible = sm.scan(seg).expect("scan").len() as u64;
    assert_eq!(visible, commits, "committed inserts missing after the run");

    CaseResult {
        threads,
        commits,
        elapsed_s,
        forces,
    }
}

fn print_row(r: &CaseResult) {
    println!(
        "{:>8} {:>9} {:>12.0} {:>8} {:>14.3} {:>10.1}",
        r.threads,
        r.commits,
        r.commits_per_s(),
        r.forces,
        r.forces_per_commit(),
        1.0 / r.forces_per_commit(),
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let dir = std::env::temp_dir().join(format!("reach-e16-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    println!("E16: group-commit scaling (file-backed WAL, 1 insert/txn)");
    println!(
        "{:>8} {:>9} {:>12} {:>8} {:>14} {:>10}",
        "threads", "commits", "commits/s", "forces", "forces/commit", "batching"
    );

    if smoke {
        // CI gate: correctness + the batching invariant, small enough
        // to finish in seconds. 4 threads must show real batching.
        let mut failed = false;
        for threads in [1usize, 4] {
            let r = run_case(&dir, threads, 24);
            print_row(&r);
            if r.forces == 0 {
                eprintln!("smoke violation: no force recorded at all");
                failed = true;
            }
            if r.threads > 1 && r.forces_per_commit() > 1.0 {
                eprintln!(
                    "smoke violation: group mode at {} threads syncs more than once per commit",
                    r.threads
                );
                failed = true;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        if failed {
            std::process::exit(1);
        }
        println!("smoke ok: group commit batches and loses nothing");
        return;
    }

    let commits_each = 200;
    let rows: Vec<CaseResult> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|threads| run_case(&dir, threads, commits_each))
        .inspect(print_row)
        .collect();
    let _ = std::fs::remove_dir_all(&dir);

    let (solo, at_8) = (&rows[0], &rows[3]);
    println!(
        "at 8 threads: {:.3} forces/commit (batching {:.1}x), \
         {:.2}x the 1-thread committed-txn/s",
        at_8.forces_per_commit(),
        1.0 / at_8.forces_per_commit(),
        at_8.commits_per_s() / solo.commits_per_s()
    );
}
