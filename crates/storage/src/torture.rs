//! The crash-point torture harness.
//!
//! A deterministic, seeded workload of inserts/updates/deletes grouped
//! into transactions (some of which abort, with occasional checkpoints)
//! is run twice per crash point:
//!
//! 1. an **oracle run** with no faults records the exact WAL frame
//!    sequence the workload produces;
//! 2. for every frame index `N`, a **crash run** over a fresh device
//!    schedules a clean crash at the Nth `wal_append`, reruns the same
//!    workload (identical up to the crash — determinism is the whole
//!    point), then "reboots": the surviving WAL bytes and the surviving
//!    device are reopened, recovery runs, and the visible state must
//!    equal the effects of exactly the transactions whose `Commit`
//!    record survived — nothing of any loser, nothing missing.
//!
//! The expected state for a crash at `N` is computed from the oracle's
//! frame prefix alone ([`committed_state`]), so the harness never trusts
//! the code under test to define correctness.

use crate::disk::{MemDisk, StableStorage};
use crate::heap::RecordId;
use crate::recovery::recover;
use crate::sm::{StorageManager, SYSTEM_TXN};
use crate::wal::{Lsn, WalRecord, WriteAheadLog};
use reach_common::fault::{FaultInjector, FaultPlan, FaultPoint};
use reach_common::{PageId, Result, SplitMix64, TxnId};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Tuning knobs for the deterministic workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// PRNG seed; one seed determines the whole operation stream.
    pub seed: u64,
    /// Minimum number of record operations (insert/update/delete).
    pub ops: usize,
    /// Buffer-pool frames for the machine under test.
    pub pool_frames: usize,
    /// Sprinkle explicit checkpoints through the workload (the crash
    /// sweeps keep this on so checkpoint and truncation frames are
    /// themselves crash points). E17 turns it off to compare pure
    /// threshold-driven checkpointing against none at all — the rng
    /// stream is consumed identically either way, so the operation
    /// sequence does not depend on this flag.
    pub manual_checkpoints: bool,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            seed: 0xC0FFEE,
            ops: 200,
            pool_frames: 16,
            manual_checkpoints: true,
        }
    }
}

/// Record state keyed by stable address: `(page, slot) -> payload`.
pub type State = BTreeMap<(u64, u16), Vec<u8>>;

/// Run the seeded workload against `sm`. Returns `Err` as soon as any
/// operation hits an (injected) I/O failure — the simulated machine has
/// lost power, so the driver stops exactly there, mimicking a real
/// client that never gets to issue another call.
pub fn run_workload(sm: &StorageManager, spec: &WorkloadSpec) -> Result<()> {
    run_workload_inner(sm, spec, &mut Vec::new())
}

/// Like [`run_workload`], additionally returning the transactions whose
/// `commit` call returned `Ok` — the *acknowledged* set. These are the
/// commits a client was told succeeded, so a crash may never lose them;
/// conversely a commit the client never saw acknowledged must not
/// resurface after recovery (the force-crash sweep checks both).
pub fn run_workload_acked(sm: &StorageManager, spec: &WorkloadSpec) -> (Result<()>, Vec<TxnId>) {
    let mut acked = Vec::new();
    let run = run_workload_inner(sm, spec, &mut acked);
    (run, acked)
}

fn run_workload_inner(
    sm: &StorageManager,
    spec: &WorkloadSpec,
    acked: &mut Vec<TxnId>,
) -> Result<()> {
    let mut rng = SplitMix64::new(spec.seed);
    let seg = sm.create_segment("torture")?;
    let mut live: Vec<RecordId> = Vec::new();
    let mut next_txn = 1u64;
    let mut done = 0usize;
    while done < spec.ops {
        let txn = TxnId::new(next_txn);
        next_txn += 1;
        sm.begin(txn)?;
        let n_ops = 2 + rng.below(4); // 2..=5 ops per transaction
        let mut inserted: Vec<RecordId> = Vec::new();
        let mut deleted: Vec<RecordId> = Vec::new();
        for i in 0..n_ops {
            let roll = rng.below(10);
            if live.is_empty() || roll < 5 {
                let payload = format!("t{}-op{}-{:08x}", txn.raw(), i, rng.next_u64() as u32);
                let rid = sm.insert(txn, seg, payload.as_bytes())?;
                live.push(rid);
                inserted.push(rid);
            } else if roll < 8 {
                let rid = live[rng.below(live.len())];
                let payload = format!("t{}-up{}-{:08x}", txn.raw(), i, rng.next_u64() as u32);
                sm.update(txn, seg, rid, payload.as_bytes())?;
            } else {
                let rid = live.swap_remove(rng.below(live.len()));
                sm.delete(txn, seg, rid)?;
                deleted.push(rid);
            }
        }
        done += n_ops;
        if rng.chance(1, 6) {
            sm.abort(txn)?;
            // Roll the driver's bookkeeping back with the transaction:
            // this txn's inserts are gone (even ones it deleted again),
            // records it deleted from older transactions are back.
            live.retain(|r| !inserted.contains(r));
            live.extend(deleted.into_iter().filter(|r| !inserted.contains(r)));
        } else {
            sm.commit(txn)?;
            acked.push(txn);
        }
        // 1-in-4 so every seed actually exercises checkpoint +
        // truncation frames as crash points (1-in-12 never fired for
        // the default seed's draw sequence). The draw is consumed even
        // with checkpoints off, keeping the op stream flag-independent.
        if rng.chance(1, 4) && spec.manual_checkpoints {
            sm.checkpoint()?;
        }
    }
    Ok(())
}

/// Run the workload fault-free over fresh in-memory parts and return the
/// full WAL frame sequence it produces — the oracle for every crash run.
///
/// Checkpoints truncate the log as they go, exactly as in the crash
/// runs; the oracle log runs in archive mode so the truncated prefix is
/// kept aside and the *complete* frame history is returned.
pub fn oracle_frames(spec: &WorkloadSpec) -> Result<Vec<(Lsn, WalRecord)>> {
    let disk: Arc<dyn StableStorage> = Arc::new(MemDisk::new());
    let wal = Arc::new(WriteAheadLog::in_memory());
    wal.set_archive(true);
    let (sm, _) = StorageManager::open_with(disk, Arc::clone(&wal), spec.pool_frames)?;
    run_workload(&sm, spec)?;
    wal.scan_all()
}

/// The record state exactly the committed transactions in `prefix`
/// produced: winners are transactions whose `Commit` frame is inside the
/// prefix; their Insert/Update/Delete records are applied in log order.
/// Losers and system (catalog) records contribute nothing.
pub fn committed_state(prefix: &[(Lsn, WalRecord)]) -> State {
    let winners: HashSet<TxnId> = prefix
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Commit { txn } => Some(*txn),
            _ => None,
        })
        .collect();
    let mut state = State::new();
    for (_, rec) in prefix {
        let Some(txn) = rec.txn() else { continue };
        if txn == SYSTEM_TXN || !winners.contains(&txn) {
            continue;
        }
        match rec {
            WalRecord::Insert {
                page,
                slot,
                payload,
                ..
            } => {
                state.insert((page.raw(), *slot), payload.clone());
            }
            WalRecord::Update {
                page, slot, after, ..
            } => {
                state.insert((page.raw(), *slot), after.clone());
            }
            WalRecord::Delete { page, slot, .. } => {
                state.remove(&(page.raw(), *slot));
            }
            _ => {}
        }
    }
    state
}

/// The record state actually visible through `sm` after recovery.
pub fn visible_state(sm: &StorageManager) -> Result<State> {
    let Ok(seg) = sm.segment("torture") else {
        // The crash predates the (committed) catalog entry: an empty
        // database is the only correct answer.
        return Ok(State::new());
    };
    Ok(sm
        .scan(seg)?
        .into_iter()
        .map(|(rid, bytes)| ((rid.page.raw(), rid.slot), bytes))
        .collect())
}

/// The WAL rule as a crash-time oracle: every page image on the device
/// carries an LSN at or below the durable log's end (the forced LSN).
/// A page stamped past it would hold a change whose record the crash
/// may have lost — nothing could undo it. Panics naming `at`.
pub fn assert_wal_rule(disk: &dyn StableStorage, wal: &WriteAheadLog, at: &str) {
    let durable = wal.forced_lsn();
    for raw in 1..=disk.page_count() {
        let lsn = disk.read(PageId::new(raw)).expect("device page").lsn();
        assert!(
            lsn <= durable,
            "{at}: page {raw} on the device has LSN {lsn}, past the durable log end {durable}"
        );
    }
}

/// Simulate a clean crash at WAL frame `n` (1-based): run the workload
/// until the injected crash stops it, reboot over the surviving bytes,
/// recover, and verify the visible state against the oracle prefix.
/// Panics (with the crash point in the message) on any divergence.
pub fn torture_at(spec: &WorkloadSpec, oracle: &[(Lsn, WalRecord)], n: usize) {
    assert!(n >= 1 && n <= oracle.len());
    let disk = Arc::new(MemDisk::new());
    let wal = Arc::new(WriteAheadLog::in_memory());
    wal.set_injector(FaultInjector::new(
        FaultPlan::new().crash_at(FaultPoint::WalAppend, n as u64),
    ));
    let (sm, _) = StorageManager::open_with(
        Arc::clone(&disk) as Arc<dyn StableStorage>,
        Arc::clone(&wal),
        spec.pool_frames,
    )
    .expect("fresh open cannot fault before the first append");
    let run = run_workload(&sm, spec);
    assert!(
        run.is_err(),
        "crash at frame {n} of {} must stop the workload",
        oracle.len()
    );
    drop(sm); // the buffer pool dies with the machine — no flush
    assert_wal_rule(&*disk, &wal, &format!("crash at frame {n}"));

    // ---- reboot ----
    let image = wal.image().expect("in-memory image");
    let revived = Arc::new(WriteAheadLog::in_memory_from(image));
    let (sm2, _) = StorageManager::open_with(
        Arc::clone(&disk) as Arc<dyn StableStorage>,
        revived,
        spec.pool_frames,
    )
    .unwrap_or_else(|e| panic!("recovery after crash at frame {n} failed: {e}"));

    let expected = committed_state(&oracle[..n - 1]);
    let got = visible_state(&sm2).unwrap();
    assert_eq!(
        got, expected,
        "state divergence after crash at frame {n}: committed data lost or loser effects leaked"
    );

    // Recovery must be idempotent: running it again changes nothing.
    let second = recover(&sm2).unwrap();
    assert!(
        second.losers.is_empty() && second.undone == 0,
        "second recovery after crash at frame {n} was not a no-op: {second:?}"
    );
    assert_eq!(visible_state(&sm2).unwrap(), expected);
}

/// Like [`torture_at`], but the *recovery* run itself is crashed at its
/// `m`-th WAL append (recovery appends CLRs and Aborts while undoing
/// losers), and the machine reboots a second time. The final state must
/// still converge to the oracle prefix. If recovery appends fewer than
/// `m` records no fault fires — that degenerate case is still verified.
pub fn torture_crash_during_recovery(
    spec: &WorkloadSpec,
    oracle: &[(Lsn, WalRecord)],
    n: usize,
    m: u64,
) {
    let disk = Arc::new(MemDisk::new());
    let wal = Arc::new(WriteAheadLog::in_memory());
    wal.set_injector(FaultInjector::new(
        FaultPlan::new().crash_at(FaultPoint::WalAppend, n as u64),
    ));
    let (sm, _) = StorageManager::open_with(
        Arc::clone(&disk) as Arc<dyn StableStorage>,
        Arc::clone(&wal),
        spec.pool_frames,
    )
    .unwrap();
    assert!(run_workload(&sm, spec).is_err());
    drop(sm);

    // First reboot: recovery runs against a log that dies at append m.
    let revived = Arc::new(WriteAheadLog::in_memory_from(wal.image().unwrap()));
    revived.set_injector(FaultInjector::new(
        FaultPlan::new().crash_at(FaultPoint::WalAppend, m),
    ));
    let first_attempt = StorageManager::open_with(
        Arc::clone(&disk) as Arc<dyn StableStorage>,
        Arc::clone(&revived),
        spec.pool_frames,
    );
    drop(first_attempt); // crashed mid-recovery (or finished, if < m appends)

    // Second reboot: no faults. Whatever the first attempt left behind
    // (partial CLRs included), recovery must converge.
    let final_wal = Arc::new(WriteAheadLog::in_memory_from(revived.image().unwrap()));
    let (sm3, _) = StorageManager::open_with(
        Arc::clone(&disk) as Arc<dyn StableStorage>,
        final_wal,
        spec.pool_frames,
    )
    .unwrap_or_else(|e| {
        panic!("re-recovery (crash at frame {n}, recovery append {m}) failed: {e}")
    });
    let expected = committed_state(&oracle[..n - 1]);
    assert_eq!(
        visible_state(&sm3).unwrap(),
        expected,
        "crash-during-recovery (frame {n}, recovery append {m}) did not converge"
    );
}

/// Number of real log syncs the fault-free workload performs — the size
/// of the force-crash sweep's crash-point space. Counted by the same
/// implementation the crash runs go through ([`FaultPoint::WalForce`]
/// fires once per actual sync; fast-path skips don't reach it), so
/// crash point `k` in `1..=count` lines up exactly.
pub fn oracle_force_count(spec: &WorkloadSpec) -> Result<u64> {
    let disk: Arc<dyn StableStorage> = Arc::new(MemDisk::new());
    let wal = Arc::new(WriteAheadLog::in_memory());
    let (sm, _) = StorageManager::open_with(disk, wal, spec.pool_frames)?;
    sm.metrics().enable();
    run_workload(&sm, spec)?;
    Ok(sm.metrics().wal.forces.get())
}

/// Crash the machine at its `k`-th log sync (1-based) — *inside* the
/// group-commit sequencer, after the leader was elected but before the
/// device sync happened — then reboot over only the **forced prefix**
/// of the log ([`WriteAheadLog::durable_image`]): a force-crash loses
/// the whole buffered tail, which is exactly the window group commit
/// widens. After recovery:
///
/// * every *acknowledged* commit (its `commit` call returned `Ok`) is
///   fully visible — the group force covering it completed first;
/// * no unacknowledged commit surfaces — its record was still in the
///   lost tail;
/// * recovery is idempotent.
///
/// Checkpoints may have truncated the log before the crash, so the full
/// frame history is the oracle's truncated prefix (identical by
/// determinism, and forced — the cut never passes the forced LSN)
/// stitched to the surviving durable records.
pub fn torture_force_crash(spec: &WorkloadSpec, oracle: &[(Lsn, WalRecord)], k: u64) {
    let disk = Arc::new(MemDisk::new());
    let wal = Arc::new(WriteAheadLog::in_memory());
    wal.set_injector(FaultInjector::new(
        FaultPlan::new().crash_at(FaultPoint::WalForce, k),
    ));
    let (sm, _) = StorageManager::open_with(
        Arc::clone(&disk) as Arc<dyn StableStorage>,
        Arc::clone(&wal),
        spec.pool_frames,
    )
    .expect("fresh open cannot fault before the first force");
    let (run, acked) = run_workload_acked(&sm, spec);
    assert!(run.is_err(), "crash at force {k} must stop the workload");
    drop(sm); // pool dies with the machine
    assert_wal_rule(&*disk, &wal, &format!("crash at force {k}"));

    // ---- reboot over the forced prefix only ----
    let image = wal.durable_image().expect("in-memory image");
    let durable_wal = WriteAheadLog::in_memory_from(image.clone());
    let base = durable_wal.base_lsn();
    let durable_records = durable_wal.scan().expect("durable prefix scans cleanly");
    let full_history: Vec<(Lsn, WalRecord)> = oracle
        .iter()
        .filter(|(lsn, _)| *lsn < base)
        .cloned()
        .chain(durable_records.iter().cloned())
        .collect();

    // The acked set and the durable winners must be the same set: a
    // commit is acknowledged exactly when the sync covering its record
    // returned, so the crashed force's own commit (if any) is in
    // neither, and every earlier one is in both. Winners come from the
    // full history — a commit whose record fell below a truncation cut
    // was forced (and acked) before that cut was taken.
    let winners: HashSet<TxnId> = full_history
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Commit { txn } => Some(*txn),
            _ => None,
        })
        .collect();
    let acked_set: HashSet<TxnId> = acked.iter().copied().collect();
    let lost: Vec<_> = acked_set.difference(&winners).collect();
    assert!(
        lost.is_empty(),
        "crash at force {k}: acked commits lost from the durable log: {lost:?}"
    );
    let phantom: Vec<_> = winners.difference(&acked_set).collect();
    assert!(
        phantom.is_empty(),
        "crash at force {k}: unacked commits durable: {phantom:?}"
    );

    let revived = Arc::new(WriteAheadLog::in_memory_from(image));
    let (sm2, _) = StorageManager::open_with(
        Arc::clone(&disk) as Arc<dyn StableStorage>,
        revived,
        spec.pool_frames,
    )
    .unwrap_or_else(|e| panic!("recovery after crash at force {k} failed: {e}"));
    let expected = committed_state(&full_history);
    assert_eq!(
        visible_state(&sm2).unwrap(),
        expected,
        "state divergence after crash at force {k}"
    );

    // Idempotence, as in the frame sweep.
    let second = recover(&sm2).unwrap();
    assert!(
        second.losers.is_empty() && second.undone == 0,
        "second recovery after crash at force {k} was not a no-op: {second:?}"
    );
    assert_eq!(visible_state(&sm2).unwrap(), expected);
}

/// Number of log-truncation attempts the fault-free workload performs —
/// one per completed checkpoint, counted by the ungated
/// `ckpt.taken` metric, so crash point `k` in `1..=count` of the
/// truncate-crash sweep lines up exactly with the `k`-th checkpoint.
pub fn oracle_truncate_count(spec: &WorkloadSpec) -> Result<u64> {
    let disk: Arc<dyn StableStorage> = Arc::new(MemDisk::new());
    let wal = Arc::new(WriteAheadLog::in_memory());
    let (sm, _) = StorageManager::open_with(disk, wal, spec.pool_frames)?;
    run_workload(&sm, spec)?;
    Ok(sm.metrics().ckpt.taken.get())
}

/// Crash the machine at its `k`-th log truncation (1-based) — after the
/// checkpoint's `EndCheckpoint` was appended and forced, before any log
/// byte is dropped. This is the riskiest instant of the checkpoint
/// protocol: the new checkpoint is already the one analysis will pick,
/// and the prefix it promises not to need is still present. After
/// reboot the visible state must equal the full-history committed
/// prefix, and recovery must be idempotent.
pub fn torture_truncate_crash(spec: &WorkloadSpec, oracle: &[(Lsn, WalRecord)], k: u64) {
    let disk = Arc::new(MemDisk::new());
    let wal = Arc::new(WriteAheadLog::in_memory());
    wal.set_injector(FaultInjector::new(
        FaultPlan::new().crash_at(FaultPoint::WalTruncate, k),
    ));
    let (sm, _) = StorageManager::open_with(
        Arc::clone(&disk) as Arc<dyn StableStorage>,
        Arc::clone(&wal),
        spec.pool_frames,
    )
    .expect("fresh open cannot fault before the first truncation");
    let run = run_workload(&sm, spec);
    assert!(
        run.is_err(),
        "crash at truncation {k} must stop the workload"
    );
    drop(sm); // pool dies with the machine

    // ---- reboot over the surviving bytes ----
    let image = wal.image().expect("in-memory image");
    let revived = Arc::new(WriteAheadLog::in_memory_from(image));
    let tail = revived.tail();
    // The crash run is the oracle run up to the crash moment, and the
    // k-th truncation dropped nothing, so the full history is simply
    // every oracle frame below the surviving tail (frames below the
    // revived base were dropped by *earlier*, completed truncations).
    let full_history: Vec<(Lsn, WalRecord)> = oracle
        .iter()
        .filter(|(lsn, _)| *lsn < tail)
        .cloned()
        .collect();
    let (sm2, _) = StorageManager::open_with(
        Arc::clone(&disk) as Arc<dyn StableStorage>,
        revived,
        spec.pool_frames,
    )
    .unwrap_or_else(|e| panic!("recovery after crash at truncation {k} failed: {e}"));
    let expected = committed_state(&full_history);
    assert_eq!(
        visible_state(&sm2).unwrap(),
        expected,
        "state divergence after crash at truncation {k}"
    );

    let second = recover(&sm2).unwrap();
    assert!(
        second.losers.is_empty() && second.undone == 0,
        "second recovery after crash at truncation {k} was not a no-op: {second:?}"
    );
    assert_eq!(visible_state(&sm2).unwrap(), expected);
}

// ---- index torture ----
//
// The same oracle discipline, applied to the persistent B+Tree: the
// index workload's correctness is defined by the *logical*
// IndexInsert/IndexDelete records of committed transactions alone, so
// the harness never trusts the tree's physical page writes (splits,
// catalog updates, CLR-driven repairs) to define what "correct" means.

/// Name under which the index torture workload creates its tree.
pub const TORTURE_INDEX: &str = "torture-idx";

/// The exact `(key, oid)` pair set an index should hold.
pub type IndexState = std::collections::BTreeSet<(Vec<u8>, u64)>;

/// Run the seeded index workload against `sm`: transactions of
/// inserts/deletes against one tree built with fanout 4 (so even a
/// small run splits leaves, splits internals, and grows the root),
/// 1-in-6 aborts exercising logical undo through the tree, and
/// checkpoints putting tree pages into the dirty-page table.
pub fn run_index_workload(sm: &StorageManager, spec: &WorkloadSpec) -> Result<()> {
    let mut rng = SplitMix64::new(spec.seed ^ 0x1D0C5);
    let idx = sm.create_index_with(TORTURE_INDEX, Some(4))?;
    let mut live: Vec<(Vec<u8>, u64)> = Vec::new();
    let mut next_oid = 1u64;
    let mut next_txn = 1u64;
    let mut done = 0usize;
    while done < spec.ops {
        let txn = TxnId::new(next_txn);
        next_txn += 1;
        sm.begin(txn)?;
        let n_ops = 2 + rng.below(4); // 2..=5 ops per transaction
        let mut inserted: Vec<(Vec<u8>, u64)> = Vec::new();
        let mut deleted: Vec<(Vec<u8>, u64)> = Vec::new();
        for _ in 0..n_ops {
            let roll = rng.below(10);
            if live.is_empty() || roll < 6 {
                // Fresh oids keep pairs unique; a small key domain keeps
                // duplicate keys (multiple oids per key) common.
                let key = format!("k{:04}", rng.below(300)).into_bytes();
                let oid = next_oid;
                next_oid += 1;
                sm.index_insert(txn, idx, &key, oid)?;
                live.push((key.clone(), oid));
                inserted.push((key, oid));
            } else {
                let (key, oid) = live.swap_remove(rng.below(live.len()));
                sm.index_delete(txn, idx, &key, oid)?;
                deleted.push((key, oid));
            }
        }
        done += n_ops;
        if rng.chance(1, 6) {
            sm.abort(txn)?;
            live.retain(|p| !inserted.contains(p));
            live.extend(deleted.into_iter().filter(|p| !inserted.contains(p)));
        } else {
            sm.commit(txn)?;
        }
        if rng.chance(1, 4) && spec.manual_checkpoints {
            sm.checkpoint()?;
        }
    }
    Ok(())
}

/// Fault-free oracle run of the index workload (archive mode, complete
/// frame history) — see [`oracle_frames`].
pub fn index_oracle_frames(spec: &WorkloadSpec) -> Result<Vec<(Lsn, WalRecord)>> {
    let disk: Arc<dyn StableStorage> = Arc::new(MemDisk::new());
    let wal = Arc::new(WriteAheadLog::in_memory());
    wal.set_archive(true);
    let (sm, _) = StorageManager::open_with(disk, Arc::clone(&wal), spec.pool_frames)?;
    run_index_workload(&sm, spec)?;
    wal.scan_all()
}

/// The pair set exactly the committed transactions in `prefix` built,
/// from their logical records applied in log order. The tree's physical
/// SYSTEM_TXN page writes contribute nothing — they are mechanism, not
/// meaning.
pub fn committed_index_state(prefix: &[(Lsn, WalRecord)]) -> IndexState {
    let winners: HashSet<TxnId> = prefix
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Commit { txn } => Some(*txn),
            _ => None,
        })
        .collect();
    let mut state = IndexState::new();
    for (_, rec) in prefix {
        match rec {
            WalRecord::IndexInsert { txn, key, oid, .. } if winners.contains(txn) => {
                state.insert((key.clone(), *oid));
            }
            WalRecord::IndexDelete { txn, key, oid, .. } if winners.contains(txn) => {
                state.remove(&(key.clone(), *oid));
            }
            _ => {}
        }
    }
    state
}

/// The pair set actually visible through the recovered index (a full
/// ascending range scan). A crash that predates the committed catalog
/// entry means no index exists — the empty set is then the only correct
/// answer.
pub fn visible_index_state(sm: &StorageManager) -> Result<IndexState> {
    let Some((_, id)) = sm
        .index_names()?
        .into_iter()
        .find(|(n, _)| n == TORTURE_INDEX)
    else {
        return Ok(IndexState::new());
    };
    Ok(sm
        .index_range(id, std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)?
        .into_iter()
        .collect())
}

/// Index-workload analogue of [`torture_at`]: crash at WAL frame `n`
/// (1-based), reboot over the surviving bytes, recover, and verify the
/// recovered tree equals the committed pair set — then verify recovery
/// is idempotent. Crash points land inside leaf splits, internal
/// splits, root growth, catalog updates, and restart-undo of loser
/// inserts/deletes; the B-link invariant (right links + exclusive high
/// keys) is what makes every such prefix searchable.
pub fn index_torture_at(spec: &WorkloadSpec, oracle: &[(Lsn, WalRecord)], n: usize) {
    assert!(n >= 1 && n <= oracle.len());
    let disk = Arc::new(MemDisk::new());
    let wal = Arc::new(WriteAheadLog::in_memory());
    wal.set_injector(FaultInjector::new(
        FaultPlan::new().crash_at(FaultPoint::WalAppend, n as u64),
    ));
    let (sm, _) = StorageManager::open_with(
        Arc::clone(&disk) as Arc<dyn StableStorage>,
        Arc::clone(&wal),
        spec.pool_frames,
    )
    .expect("fresh open cannot fault before the first append");
    let run = run_index_workload(&sm, spec);
    assert!(
        run.is_err(),
        "index crash at frame {n} of {} must stop the workload",
        oracle.len()
    );
    drop(sm); // the buffer pool dies with the machine — no flush
    assert_wal_rule(&*disk, &wal, &format!("index crash at frame {n}"));

    // ---- reboot ----
    let image = wal.image().expect("in-memory image");
    let revived = Arc::new(WriteAheadLog::in_memory_from(image));
    let (sm2, _) = StorageManager::open_with(
        Arc::clone(&disk) as Arc<dyn StableStorage>,
        revived,
        spec.pool_frames,
    )
    .unwrap_or_else(|e| panic!("index recovery after crash at frame {n} failed: {e}"));

    let expected = committed_index_state(&oracle[..n - 1]);
    let got = visible_index_state(&sm2).unwrap();
    assert_eq!(
        got, expected,
        "index divergence after crash at frame {n}: committed pairs lost or loser pairs leaked"
    );

    // Recovery must be idempotent: running it again changes nothing.
    let second = recover(&sm2).unwrap();
    assert!(
        second.losers.is_empty() && second.undone == 0,
        "second recovery after index crash at frame {n} was not a no-op: {second:?}"
    );
    assert_eq!(visible_index_state(&sm2).unwrap(), expected);
}
