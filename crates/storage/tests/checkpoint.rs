//! Checkpoint / truncation behavior at the storage-manager surface.

use reach_common::TxnId;
use reach_storage::StorageManager;

/// A read-only transaction straddling a checkpoint neither blocks the
/// checkpointer nor pins log truncation: it has no first-write LSN, so
/// it never enters the active-writer table and the cut is free to land
/// at the checkpoint's own Begin record.
#[test]
fn read_only_txn_does_not_pin_truncation() {
    let sm = StorageManager::new_in_memory(64).unwrap();
    let seg = sm.create_segment("t").unwrap();
    let w = TxnId::new(1);
    sm.begin(w).unwrap();
    for i in 0..32 {
        sm.insert(w, seg, format!("row{i}").as_bytes()).unwrap();
    }
    let rid = sm.insert(w, seg, b"probe").unwrap();
    sm.commit(w).unwrap();

    // Reader begins before the checkpoint and is still open across it.
    let r = TxnId::new(2);
    sm.begin(r).unwrap();
    assert_eq!(sm.get(seg, rid).unwrap(), b"probe");

    let stats = sm.checkpoint().unwrap();
    assert_eq!(
        stats.active_writers, 0,
        "an open reader must not appear in the active-writer table"
    );
    assert_eq!(
        stats.cutoff, stats.begin_lsn,
        "with no writers and a clean pool the cut reaches the checkpoint itself"
    );
    assert!(
        stats.truncated_bytes > 0,
        "the whole pre-checkpoint log prefix should have been dropped"
    );

    // The reader is still fully usable after the truncation it survived.
    assert_eq!(sm.get(seg, rid).unwrap(), b"probe");
    sm.commit(r).unwrap();
    assert_eq!(sm.scan(seg).unwrap().len(), 33);
}

/// Contrast case: an open *writer* pins the cut at its first-write LSN,
/// and releases it once finished.
#[test]
fn open_writer_pins_truncation_until_it_finishes() {
    let sm = StorageManager::new_in_memory(64).unwrap();
    let seg = sm.create_segment("t").unwrap();
    let w = TxnId::new(1);
    sm.begin(w).unwrap();
    sm.insert(w, seg, b"pinning write").unwrap();
    // Plenty of committed traffic after the pin, so there are bytes the
    // cut would otherwise reclaim.
    let w2 = TxnId::new(2);
    sm.begin(w2).unwrap();
    for i in 0..32 {
        sm.insert(w2, seg, format!("bulk{i}").as_bytes()).unwrap();
    }
    sm.commit(w2).unwrap();

    let pinned = sm.checkpoint().unwrap();
    assert_eq!(pinned.active_writers, 1);
    assert!(
        pinned.cutoff < pinned.begin_lsn,
        "an open writer must hold the cut below the checkpoint"
    );

    sm.commit(w).unwrap();
    let released = sm.checkpoint().unwrap();
    assert_eq!(released.active_writers, 0);
    assert!(
        released.cutoff > pinned.cutoff,
        "finishing the writer must advance the cut"
    );
    assert_eq!(sm.scan(seg).unwrap().len(), 33);
}

/// A failed outcome append keeps the writer's truncation pin — with no
/// durable Commit/Abort its write records could still be needed for
/// undo — and a successfully retried commit releases it.
#[test]
fn failed_outcome_append_keeps_pin_until_retried() {
    use reach_common::{FaultInjector, FaultPlan, FaultPoint};
    let sm = StorageManager::new_in_memory(64).unwrap();
    let seg = sm.create_segment("t").unwrap();
    let w = TxnId::new(1);
    sm.begin(w).unwrap();
    sm.insert(w, seg, b"needs undo if orphaned").unwrap();
    // The very next WAL append — the Commit record — fails transiently.
    sm.wal().set_injector(FaultInjector::new(
        FaultPlan::new().fail_at(FaultPoint::WalAppend, 1),
    ));
    assert!(sm.commit(w).is_err());
    let pinned = sm.checkpoint().unwrap();
    assert_eq!(
        pinned.active_writers, 1,
        "a writer whose outcome append failed must stay in the active table"
    );
    assert!(
        pinned.cutoff < pinned.begin_lsn,
        "the stuck writer's first-write LSN must bound the cut"
    );
    // Retrying the outcome releases the pin.
    sm.commit(w).unwrap();
    let released = sm.checkpoint().unwrap();
    assert_eq!(released.active_writers, 0);
    assert!(
        released.cutoff > pinned.cutoff,
        "finishing the writer must advance the cut"
    );
    assert_eq!(sm.scan(seg).unwrap().len(), 1);
}

/// The byte-threshold trigger takes checkpoints on its own as the log
/// grows, and stays quiet when disarmed.
#[test]
fn byte_threshold_arms_automatic_checkpoints() {
    let sm = StorageManager::new_in_memory(64).unwrap();
    let seg = sm.create_segment("t").unwrap();
    let taken_before = sm.metrics().ckpt.taken.get();
    sm.set_checkpoint_threshold(Some(2048));
    for t in 1..=20u64 {
        let txn = TxnId::new(t);
        sm.begin(txn).unwrap();
        sm.insert(txn, seg, &[0xAB; 200]).unwrap();
        sm.commit(txn).unwrap();
    }
    let taken = sm.metrics().ckpt.taken.get() - taken_before;
    assert!(
        taken >= 2,
        "20 commits of ~200-byte records past a 2 KiB threshold took only {taken} checkpoints"
    );
    // Disarm: no further automatic checkpoints.
    sm.set_checkpoint_threshold(None);
    let frozen = sm.metrics().ckpt.taken.get();
    for t in 21..=30u64 {
        let txn = TxnId::new(t);
        sm.begin(txn).unwrap();
        sm.insert(txn, seg, &[0xCD; 200]).unwrap();
        sm.commit(txn).unwrap();
    }
    assert_eq!(sm.metrics().ckpt.taken.get(), frozen);
    assert_eq!(sm.scan(seg).unwrap().len(), 30);
}

/// An in-memory manager is armed by default, so a workload that logs
/// past the threshold gets its volatile log truncated mid-flight — and
/// what is left must still be a valid log: the surviving byte image
/// plus the disk image recover to exactly the committed state, with an
/// open writer rolled back.
#[test]
fn truncated_volatile_log_still_recovers_the_committed_state() {
    use reach_storage::{StableStorage, WriteAheadLog};
    use std::sync::Arc;

    let sm = StorageManager::new_in_memory(64).unwrap();
    let seg = sm.create_segment("t").unwrap();
    let setup = TxnId::new(1);
    sm.begin(setup).unwrap();
    let rids: Vec<_> = (0..40u8)
        .map(|i| sm.insert(setup, seg, &[i; 200]).unwrap())
        .collect();
    sm.commit(setup).unwrap();

    // ~450 B of log per update: 25 000 of them is ≈ 11 MB, so the 8 MiB
    // default threshold is crossed while transactions keep committing.
    let mut expected: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 200]).collect();
    let mut appended = 0u64;
    for n in 0..25_000u64 {
        let txn = TxnId::new(2 + n);
        let row = (n % 40) as usize;
        let payload = vec![(n % 251) as u8; 200];
        sm.begin(txn).unwrap();
        sm.update(txn, seg, rids[row], &payload).unwrap();
        if n % 97 == 0 {
            sm.abort(txn).unwrap();
        } else {
            sm.commit(txn).unwrap();
            expected[row] = payload;
        }
        appended = appended.max(sm.wal().tail());
    }
    assert!(
        sm.metrics().ckpt.taken.get() >= 1,
        "the default in-memory threshold never fired"
    );
    assert!(sm.wal().base_lsn() > 8, "no prefix was truncated");
    let image = sm.wal().image().unwrap();
    assert!(
        (image.len() as u64) < appended / 2,
        "{} of {appended} appended bytes still resident",
        image.len()
    );
    assert!(
        image.len() as u64 <= reach_storage::sm::IN_MEMORY_CHECKPOINT_BYTES + 4096,
        "resident log {} exceeds threshold + one transaction",
        image.len()
    );

    // A writer caught open by the crash.
    let loser = TxnId::new(1_000_000);
    sm.begin(loser).unwrap();
    sm.update(loser, seg, rids[0], &[0xEE; 200]).unwrap();
    sm.wal().force().unwrap();

    let disk = Arc::clone(sm.pool().disk()) as Arc<dyn StableStorage>;
    let wal = Arc::new(WriteAheadLog::in_memory_from(sm.wal().image().unwrap()));
    drop(sm);
    let (sm2, report) = StorageManager::open_with(disk, wal, 64).unwrap();
    assert_eq!(
        report.losers,
        vec![loser],
        "the open writer must be the loser"
    );
    let seg2 = sm2.segment("t").unwrap();
    for (row, rid) in rids.iter().enumerate() {
        assert_eq!(sm2.get(seg2, *rid).unwrap(), expected[row], "row {row}");
    }
}
