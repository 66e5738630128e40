//! Crash-point torture suite.
//!
//! Sweeps a clean crash over EVERY WAL frame of a ≥200-operation mixed
//! workload (insert/update/delete, aborting transactions, checkpoints)
//! and asserts, for each crash point, that after reboot + recovery:
//!
//! * every transaction whose `Commit` record survived is fully there,
//! * nothing of any loser transaction is visible,
//! * a second recovery is a no-op,
//! * a crash *during* recovery still converges on the next reboot.
//!
//! The heap, force-crash and B-link sweeps also check the WAL rule at
//! every crash point, before the reboot: no page image on the device
//! carries an LSN past the durable log's end
//! ([`reach_storage::torture::assert_wal_rule`]).
//!
//! Everything is deterministic given the workload seed, so a failure
//! message like "crash at frame 137" reproduces exactly.

use reach_common::fault::{FaultInjector, FaultPlan, FaultPoint};
use reach_common::TxnId;
use reach_storage::torture::{
    committed_state, index_oracle_frames, index_torture_at, oracle_force_count, oracle_frames,
    oracle_truncate_count, run_workload, torture_at, torture_crash_during_recovery,
    torture_force_crash, torture_truncate_crash, visible_state, WorkloadSpec,
};
use reach_storage::{FaultDisk, FileDisk, MemDisk, StableStorage, StorageManager, WriteAheadLog};
use std::sync::Arc;

fn spec() -> WorkloadSpec {
    let seed = reach_common::seed_from_env(WorkloadSpec::default().seed);
    reach_common::announce_seed("storage::torture", seed);
    WorkloadSpec {
        seed,
        ..WorkloadSpec::default()
    }
}

#[test]
fn crash_sweep_covers_every_wal_frame() {
    let spec = spec();
    let oracle = oracle_frames(&spec).unwrap();
    assert!(
        oracle.len() >= 200,
        "workload too small to be a torture test: only {} frames",
        oracle.len()
    );
    for n in 1..=oracle.len() {
        torture_at(&spec, &oracle, n);
    }
}

#[test]
fn index_crash_sweep_covers_every_wal_frame() {
    // The B+Tree analogue of the sweep above: crash at every WAL frame
    // of a split/abort index workload (fanout 4, so leaf splits,
    // internal splits, and root growth are all in the frame space) and
    // require the recovered tree to equal the committed pair set. The
    // smaller op count keeps the sweep quadratic-but-bounded — each
    // index op logs one logical frame plus several physical node
    // writes, so the frame space is already several times `ops`.
    let spec = WorkloadSpec { ops: 120, ..spec() };
    let oracle = index_oracle_frames(&spec).unwrap();
    assert!(
        oracle.len() >= 200,
        "index workload too small to be a torture test: only {} frames",
        oracle.len()
    );
    for n in 1..=oracle.len() {
        index_torture_at(&spec, &oracle, n);
    }
}

#[test]
fn index_crash_sweep_under_eviction_pressure() {
    // The sweep above on a 4-frame pool: the tree outgrows the pool, so
    // node pages stamped by uncommitted inserts are evicted mid-
    // transaction at nearly every crash point. That is where the WAL
    // rule oracle bites — each write-back must have forced the log up
    // to the victim's own LSN first.
    let spec = WorkloadSpec {
        ops: 120,
        pool_frames: 4,
        ..spec()
    };
    let oracle = index_oracle_frames(&spec).unwrap();
    for n in 1..=oracle.len() {
        index_torture_at(&spec, &oracle, n);
    }
}

#[test]
fn force_crash_sweep_never_loses_an_acked_commit() {
    // Crash at EVERY log sync the workload performs — before the device
    // sync inside the group-commit sequencer — and reboot over only the
    // forced log prefix (a force-crash loses the buffered tail). The
    // acked-commit set must equal the durable winner set at every point:
    // group commit may batch, widen, and skip syncs, but never move the
    // durability point past the acknowledgement.
    let spec = spec();
    let oracle = oracle_frames(&spec).unwrap();
    let total = oracle_force_count(&spec).unwrap();
    assert!(
        total >= 40,
        "workload too small to exercise the sequencer: only {total} forces"
    );
    for k in 1..=total {
        torture_force_crash(&spec, &oracle, k);
    }
}

#[test]
fn truncate_crash_sweep_loses_nothing() {
    // Crash at EVERY log truncation — after the checkpoint's End record
    // is forced, before the prefix it obsoletes is dropped — and verify
    // the full-history committed state survives each one.
    let spec = spec();
    let oracle = oracle_frames(&spec).unwrap();
    let total = oracle_truncate_count(&spec).unwrap();
    assert!(
        total >= 3,
        "workload too small to exercise truncation: only {total} checkpoints"
    );
    for k in 1..=total {
        torture_truncate_crash(&spec, &oracle, k);
    }
}

#[test]
fn crash_during_recovery_converges() {
    let spec = spec();
    let oracle = oracle_frames(&spec).unwrap();
    // Crashing recovery needs crash points that leave losers behind; the
    // sweep above covers plain crashes, so here sample the frame space
    // and crash the recovery run at its first, second and third append.
    for n in (10..=oracle.len()).step_by(29) {
        for m in 1..=3u64 {
            torture_crash_during_recovery(&spec, &oracle, n, m);
        }
    }
}

#[test]
fn torn_wal_tail_is_salvaged_on_recovery() {
    // Run a couple of transactions, then hand-truncate the log image
    // mid-frame — the classic torn tail — and reboot over it.
    let disk = Arc::new(MemDisk::new());
    let wal = Arc::new(WriteAheadLog::in_memory());
    let (sm, _) = StorageManager::open_with(
        Arc::clone(&disk) as Arc<dyn StableStorage>,
        Arc::clone(&wal),
        16,
    )
    .unwrap();
    let seg = sm.create_segment("torture").unwrap();
    let t1 = TxnId::new(1);
    sm.begin(t1).unwrap();
    let keep = sm.insert(t1, seg, b"survives").unwrap();
    sm.commit(t1).unwrap();
    let full_frames = wal.scan().unwrap();
    let t2 = TxnId::new(2);
    sm.begin(t2).unwrap();
    let after_begin = wal.tail();
    sm.insert(t2, seg, b"in the torn frame").unwrap();
    drop(sm);

    // Truncate 7 bytes into t2's Insert frame: its Begin survives whole,
    // the Insert is torn.
    let mut image = wal.image().unwrap();
    assert!(image.len() as u64 > after_begin + 7);
    image.truncate(after_begin as usize + 7);

    let revived = Arc::new(WriteAheadLog::in_memory_from(image));
    // Salvage keeps every complete frame and reports the torn bytes.
    let scan = revived.scan_report().unwrap();
    assert_eq!(scan.records.len(), full_frames.len() + 1); // + t2's Begin
    assert_eq!(scan.salvaged_bytes, 7);

    let (sm2, report) = StorageManager::open_with(
        Arc::clone(&disk) as Arc<dyn StableStorage>,
        Arc::clone(&revived),
        16,
    )
    .unwrap();
    assert_eq!(report.salvaged_bytes, 7);
    assert_eq!(
        report.losers,
        vec![t2],
        "t2's surviving Begin makes it a loser"
    );
    assert_eq!(sm2.get(seg, keep).unwrap(), b"survives");
    assert_eq!(sm2.scan(seg).unwrap().len(), 1);

    // Work committed after the torn-tail restart survives the next
    // crash: recovery cut the torn bytes before appending, so nothing
    // sits behind them where the next salvage scan would stop.
    let t3 = TxnId::new(3);
    sm2.begin(t3).unwrap();
    let later = sm2.insert(t3, seg, b"after the restart").unwrap();
    sm2.commit(t3).unwrap();
    let image = revived.durable_image().unwrap();
    drop(sm2);
    let (sm3, report) = StorageManager::open_with(
        disk as Arc<dyn StableStorage>,
        Arc::new(WriteAheadLog::in_memory_from(image)),
        16,
    )
    .unwrap();
    assert_eq!(report.salvaged_bytes, 0, "a torn tail was left in the log");
    assert_eq!(sm3.get(seg, later).unwrap(), b"after the restart");
    assert_eq!(sm3.get(seg, keep).unwrap(), b"survives");
}

#[test]
fn torn_wal_file_tail_is_cut_before_recovery_appends() {
    // The file-backed twin of the test above: `wal.log` is cut mid-frame
    // on disk, the directory is reopened, a transaction commits, and the
    // directory is reopened again.
    let dir = std::env::temp_dir().join(format!("reach-torn-tail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("wal.log");
    let open = || {
        let disk = FileDisk::open(&dir.join("data.db")).unwrap();
        let wal = WriteAheadLog::open(&log).unwrap();
        StorageManager::open_with(Arc::new(disk), Arc::new(wal), 16).unwrap()
    };
    let (sm, _) = open();
    let seg = sm.create_segment("torture").unwrap();
    let t1 = TxnId::new(1);
    sm.begin(t1).unwrap();
    let keep = sm.insert(t1, seg, b"survives").unwrap();
    sm.commit(t1).unwrap();
    let t2 = TxnId::new(2);
    sm.begin(t2).unwrap();
    // Appends reach the file at once, so its length is t2's Begin end.
    let after_begin = std::fs::metadata(&log).unwrap().len();
    sm.insert(t2, seg, b"in the torn frame").unwrap();
    drop(sm);
    let file = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
    assert!(file.metadata().unwrap().len() > after_begin + 7);
    file.set_len(after_begin + 7).unwrap();
    drop(file);

    let (sm2, report) = open();
    assert_eq!(report.salvaged_bytes, 7);
    assert_eq!(report.losers, vec![t2]);
    let t3 = TxnId::new(3);
    sm2.begin(t3).unwrap();
    let later = sm2.insert(t3, seg, b"after the restart").unwrap();
    sm2.commit(t3).unwrap();
    drop(sm2);

    let (sm3, report) = open();
    assert_eq!(report.salvaged_bytes, 0, "a torn tail was left in wal.log");
    assert_eq!(sm3.get(seg, later).unwrap(), b"after the restart");
    assert_eq!(sm3.get(seg, keep).unwrap(), b"survives");
    drop(sm3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_page_write_failure_is_recoverable() {
    // A FaultDisk that fails one page write mid-run: the operation that
    // hits it errors out, but the WAL still describes every committed
    // change, so a reboot over the same device converges to the oracle.
    let spec = spec();
    let oracle = oracle_frames(&spec).unwrap();
    let mem = Arc::new(MemDisk::new());
    let injector = FaultInjector::new(FaultPlan::new().fail_at(FaultPoint::PageWrite, 3));
    let disk: Arc<dyn StableStorage> = Arc::new(FaultDisk::new(
        Arc::clone(&mem) as Arc<dyn StableStorage>,
        injector,
    ));
    let wal = Arc::new(WriteAheadLog::in_memory());
    // Archive mode: checkpoints truncate the live log, but the oracle
    // comparison below needs the complete frame history.
    wal.set_archive(true);
    let (sm, _) = StorageManager::open_with(disk, Arc::clone(&wal), spec.pool_frames).unwrap();
    // The workload stops at the first injected failure (page writes
    // happen on eviction/checkpoint, so when it fires is workload-
    // dependent but deterministic).
    let _ = run_workload(&sm, &spec);
    drop(sm);

    let survived = wal.scan_all().unwrap();
    let revived = Arc::new(WriteAheadLog::in_memory_from(wal.image().unwrap()));
    let (sm2, _) = StorageManager::open_with(
        Arc::clone(&mem) as Arc<dyn StableStorage>,
        revived,
        spec.pool_frames,
    )
    .unwrap();
    assert_eq!(
        visible_state(&sm2).unwrap(),
        committed_state(&survived),
        "a failed page write must never cost committed data"
    );
    // Sanity: the workload got far enough for the test to mean something.
    assert!(!committed_state(&oracle).is_empty());
}
