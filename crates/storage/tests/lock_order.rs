//! Lock-order stress for the storage manager's per-page WAL rule.
//!
//! A logged mutation appends its record while it holds its page's write
//! latch (page latch → WAL sink). An eviction forces the log up to its
//! victim's LSN while it holds the directory lock and the victim's read
//! latch (directory → victim page → WAL group/sink), and a checkpoint
//! flushes the pool the same way. A cycle anywhere in that order wedges
//! the run, so four writer threads — two doing logged heap updates, two
//! doing B-link inserts — share a 4-frame file-backed pool with a
//! checkpoint thread under a wall-clock bound. Afterwards the database
//! is reopened (recovery runs) and must hold exactly what was committed.

use reach_common::{SplitMix64, TxnId};
use reach_storage::StorageManager;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Transactions per writer thread.
const TXNS: u64 = 60;
/// Rows owned by each heap writer; 700-byte rows put ~11 per page, so
/// the two writers' rows alone outgrow the pool.
const ROWS: usize = 24;
const ROW_BYTES: usize = 700;
/// Wall-clock bound for the whole run: far above a healthy run (a few
/// seconds of commits and checkpoints, each forcing a file log).
const BOUND: Duration = Duration::from_secs(300);

fn row(writer: usize, txn: u64, n: usize) -> Vec<u8> {
    let mut v = format!("w{writer}-t{txn}-r{n}-").into_bytes();
    v.resize(ROW_BYTES, b'.');
    v
}

#[test]
fn logged_writers_evictions_and_checkpoints_never_wedge() {
    let seed = reach_common::seed_from_env(0x5EED_10C4);
    reach_common::announce_seed("storage::lock_order", seed);
    let dir =
        std::env::temp_dir().join(format!("reach-lock-order-{}-{seed:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let sm = Arc::new(StorageManager::open(&dir, 4).unwrap());
    let seg = sm.create_segment("rows").unwrap();
    let idx = sm.create_index_with("keys", Some(8)).unwrap();
    let setup = TxnId::new(1);
    sm.begin(setup).unwrap();
    let rids: Vec<Vec<_>> = (0..2)
        .map(|w| {
            (0..ROWS)
                .map(|n| sm.insert(setup, seg, &row(w, 0, n)).unwrap())
                .collect()
        })
        .collect();
    sm.commit(setup).unwrap();

    let (done_tx, done_rx) = mpsc::channel();
    let run = {
        let sm = Arc::clone(&sm);
        let rids = rids.clone();
        std::thread::spawn(move || {
            let stop = AtomicBool::new(false);
            let outcome = std::thread::scope(|s| {
                let ckpt = s.spawn(|| {
                    let mut taken = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        sm.checkpoint().unwrap();
                        taken += 1;
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    taken
                });
                let heap_writers: Vec<_> = (0..2usize)
                    .map(|w| {
                        let (sm, rids) = (&sm, &rids[w]);
                        s.spawn(move || {
                            let mut rng = SplitMix64::new(seed ^ w as u64);
                            let mut last = BTreeMap::new();
                            for i in 1..=TXNS {
                                let t = TxnId::new(1_000 * (w as u64 + 1) + i);
                                sm.begin(t).unwrap();
                                for _ in 0..3 {
                                    let n = rng.below(ROWS);
                                    sm.update(t, seg, rids[n], &row(w, i, n)).unwrap();
                                    last.insert(n, i);
                                }
                                sm.commit(t).unwrap();
                            }
                            last
                        })
                    })
                    .collect();
                let tree_writers: Vec<_> = (2..4usize)
                    .map(|w| {
                        let sm = &sm;
                        s.spawn(move || {
                            for i in 1..=TXNS {
                                let t = TxnId::new(1_000 * (w as u64 + 1) + i);
                                sm.begin(t).unwrap();
                                for j in 0..3u64 {
                                    let key = format!("w{w}-{i:04}-{j}");
                                    assert!(sm.index_insert(t, idx, key.as_bytes(), i).unwrap());
                                }
                                sm.commit(t).unwrap();
                            }
                        })
                    })
                    .collect();
                let last: Vec<_> = heap_writers
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect();
                for h in tree_writers {
                    h.join().unwrap();
                }
                stop.store(true, Ordering::Release);
                (last, ckpt.join().unwrap())
            });
            let _ = done_tx.send(outcome);
        })
    };
    let (last, checkpoints) = done_rx
        .recv_timeout(BOUND)
        .unwrap_or_else(|_| panic!("writers, evictions and checkpoints wedged for {BOUND:?}"));
    run.join().unwrap();
    assert!(checkpoints > 0);
    assert!(
        sm.pool().stats().evictions > 100,
        "the pool was not under pressure: {:?}",
        sm.pool().stats()
    );
    drop(sm);

    // Reopen over the files as left: every committed write is there.
    let sm = StorageManager::open(&dir, 4).unwrap();
    let seg = sm.segment("rows").unwrap();
    for (w, last) in last.iter().enumerate() {
        for (n, rid) in rids[w].iter().enumerate() {
            let txn = last.get(&n).copied().unwrap_or(0);
            assert_eq!(sm.get(seg, *rid).unwrap(), row(w, txn, n), "row {w}/{n}");
        }
    }
    assert_eq!(sm.index_len(idx).unwrap(), 2 * TXNS as usize * 3);
    for w in 2..4 {
        for i in (1..=TXNS).step_by(7) {
            let key = format!("w{w}-{i:04}-1");
            assert_eq!(sm.index_lookup(idx, key.as_bytes()).unwrap(), vec![i]);
        }
    }
    drop(sm);
    std::fs::remove_dir_all(&dir).unwrap();
}
