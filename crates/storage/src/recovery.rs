//! Crash recovery: ARIES-style analysis / redo / undo.
//!
//! * **Analysis** finds the last *complete* `BeginCheckpoint` /
//!   `EndCheckpoint` pair and computes the winner set — every
//!   transaction with a `Commit` record, plus the reserved catalog
//!   transaction [`SYSTEM_TXN`]. The end record's active-writer table
//!   joins the loser candidates; its dirty-page table bounds redo.
//! * **Redo** repeats history from `min(checkpoint begin LSN, min dirty
//!   rec_lsn)` forward — not from the start of the log. Records below
//!   that point have their effects on disk (that is the checkpoint's
//!   truncation invariant, which holds whether or not the prefix was
//!   actually truncated). Every page record (including losers' and
//!   CLRs) is reapplied to a page whose LSN is below the record's end,
//!   and the page is stamped with that end; a page whose LSN already
//!   covers the record holds its change. The guard is what makes a B-link
//!   leaf splice, which is not idempotent, safe to redo.
//! * **Undo** rolls back every loser in reverse log order, writing CLRs,
//!   and finishes each with an `Abort` record — restart after a crash
//!   *during* recovery is therefore also safe. A torn tail the salvage
//!   scan stopped at is cut off first, so these records, and everything
//!   logged after the restart, follow the last whole frame.

use crate::heap::redo_on;
use crate::sm::{StorageManager, SYSTEM_TXN};
use crate::wal::{Lsn, ScanReport, WalRecord};
use reach_common::{FastMap, FastSet, Result, TxnId};

/// Outcome summary, useful for tests and operational logging.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Log records the salvage scan yielded.
    pub records_scanned: usize,
    /// Page records at or past the redo start: each was reapplied, or
    /// found already on its page by the page-LSN guard.
    pub redone: usize,
    /// Transactions found unfinished and rolled back.
    pub losers: Vec<TxnId>,
    /// Operations undone (CLRs written) by the undo pass.
    pub undone: usize,
    /// Torn trailing bytes the WAL salvage scan discarded (a non-zero
    /// value means the crash tore a frame mid-append).
    pub salvaged_bytes: u64,
    /// Bytes of surviving log the analysis pass had to read. With
    /// checkpoint-driven truncation this stays bounded instead of
    /// growing with database uptime.
    pub scanned_bytes: u64,
    /// LSN the redo pass started at (0 = no usable checkpoint, replay
    /// the whole surviving log).
    pub redo_start: Lsn,
    /// Prepared-but-undecided transactions with their global txn ids:
    /// neither winner nor loser until the coordinator log resolves them
    /// (`decide_commit` if it holds a `CoordCommit{gid}`, otherwise
    /// presumed abort → `decide_abort`). Their effects were redone and
    /// their records re-pin log truncation.
    pub in_doubt: Vec<(TxnId, u64)>,
}

/// Run crash recovery against `sm`'s WAL and pages.
pub fn recover(sm: &StorageManager) -> Result<RecoveryReport> {
    let ScanReport {
        records: log,
        salvaged_bytes,
        end: log_end,
    } = sm.wal().scan_report()?;
    let mut report = RecoveryReport {
        records_scanned: log.len(),
        salvaged_bytes,
        scanned_bytes: sm.wal().tail().saturating_sub(sm.wal().base_lsn()),
        ..Default::default()
    };
    // Cut any torn tail before the first append (undo's CLRs and
    // Aborts): a record written after the torn bytes would sit where the
    // next salvage scan stops.
    sm.wal().truncate_tail(log_end)?;

    // ---- analysis ----
    // Last complete checkpoint pair. `pending` pairs each End with the
    // most recent unconsumed Begin; an End whose Begin fell below an
    // even later checkpoint's truncation cut is simply skipped.
    type CheckpointTables = (Lsn, Vec<(reach_common::PageId, Lsn)>, Vec<(TxnId, Lsn)>);
    let mut pending_begin: Option<Lsn> = None;
    let mut checkpoint: Option<CheckpointTables> = None;
    for (lsn, rec) in &log {
        match rec {
            WalRecord::BeginCheckpoint => pending_begin = Some(*lsn),
            WalRecord::EndCheckpoint { dirty, active } => {
                if let Some(begin) = pending_begin.take() {
                    checkpoint = Some((begin, dirty.clone(), active.clone()));
                }
            }
            _ => {}
        }
    }
    let mut winners: FastSet<TxnId> = FastSet::default();
    let mut finished: FastSet<TxnId> = FastSet::default();
    winners.insert(SYSTEM_TXN);
    finished.insert(SYSTEM_TXN);
    let mut seen: FastSet<TxnId> = FastSet::default();
    let mut prepared: FastMap<TxnId, u64> = FastMap::default();
    let mut first_lsn: FastMap<TxnId, Lsn> = FastMap::default();
    for (lsn, rec) in &log {
        match rec {
            WalRecord::Commit { txn } => {
                winners.insert(*txn);
                finished.insert(*txn);
            }
            WalRecord::Abort { txn } => {
                // Undo fully applied and logged before the crash.
                finished.insert(*txn);
            }
            _ => {
                if let Some(t) = rec.txn() {
                    seen.insert(t);
                    first_lsn.entry(t).or_insert(*lsn);
                    if let WalRecord::Prepare { gid, .. } = rec {
                        prepared.insert(t, *gid);
                    }
                }
            }
        }
    }
    // The checkpoint's active-writer table joins the loser candidates.
    // With truncation bounded by every writer's first-write LSN their
    // records survive and are in `seen` already; this keeps analysis
    // correct even for a log truncated by some future, bolder policy.
    if let Some((_, _, active)) = &checkpoint {
        for (txn, _) in active {
            seen.insert(*txn);
        }
    }
    // Prepared-but-undecided transactions are *in doubt*: the forced
    // Prepare promised the coordinator a commit is still possible, so
    // they are excluded from undo and left pinning the log until the
    // coordinator log (or its presumed-abort silence) decides them.
    let mut in_doubt: Vec<(TxnId, u64)> = prepared
        .iter()
        .filter(|(t, _)| !finished.contains(t))
        .map(|(t, g)| (*t, *g))
        .collect();
    in_doubt.sort();
    report.in_doubt = in_doubt.clone();
    let doubt_set: FastSet<TxnId> = in_doubt.iter().map(|(t, _)| *t).collect();
    let mut losers: Vec<TxnId> = seen
        .difference(&finished)
        .filter(|t| !doubt_set.contains(t))
        .copied()
        .collect();
    losers.sort();
    report.losers = losers.clone();

    // ---- redo: repeat history from the checkpoint forward ----
    // Start at min(begin LSN, min dirty-page rec_lsn): pages still dirty
    // at the checkpoint may carry effects of records before its Begin.
    let redo_start = checkpoint
        .as_ref()
        .map(|(begin, dirty, _)| dirty.iter().fold(*begin, |s, (_, r)| s.min(*r)))
        .unwrap_or(0);
    report.redo_start = redo_start;
    // ARIES redo rule: a page holds the change of every record up to
    // its LSN (each change stamps its page with the record's end LSN
    // inside the latch, and the WAL rule keeps a page image from
    // reaching the device ahead of its records). So a record is
    // reapplied only to a page whose LSN is below the record's end, and
    // the page is stamped with that end: a leaf splice lands exactly
    // once, and an old full node image never hides a later splice.
    let ends = log.iter().skip(1).map(|(lsn, _)| *lsn).chain([log_end]);
    for ((lsn, rec), end) in log.iter().zip(ends) {
        let Some(page) = rec.page().filter(|_| *lsn >= redo_start) else {
            continue;
        };
        if sm.pool().with_page(page, |pg| pg.lsn() < end)? {
            sm.pool().with_page_mut(page, |pg| -> Result<()> {
                redo_on(pg, rec)?;
                pg.set_lsn(end);
                Ok(())
            })??;
        }
        report.redone += 1;
    }

    // ---- undo losers (skipping operations already compensated) ----
    let mut clr_count: FastMap<TxnId, usize> = FastMap::default();
    let mut ops: FastMap<TxnId, Vec<(Lsn, WalRecord)>> = FastMap::default();
    for (lsn, rec) in &log {
        match rec {
            WalRecord::Clr { txn, .. } | WalRecord::IndexClr { txn, .. } => {
                *clr_count.entry(*txn).or_default() += 1
            }
            // Logical index records joined the redo pass as no-ops (the
            // tree's physical SYSTEM_TXN writes carried all redo); here
            // they join undo, where `undo_one` re-descends the tree.
            WalRecord::Insert { txn, .. }
            | WalRecord::Update { txn, .. }
            | WalRecord::Delete { txn, .. }
            | WalRecord::IndexInsert { txn, .. }
            | WalRecord::IndexDelete { txn, .. } => {
                ops.entry(*txn).or_default().push((*lsn, rec.clone()));
            }
            _ => {}
        }
    }
    for loser in &losers {
        let my_ops = ops.remove(loser).unwrap_or_default();
        let already = clr_count.get(loser).copied().unwrap_or(0);
        let to_undo = my_ops.len().saturating_sub(already);
        for (lsn, rec) in my_ops.into_iter().take(to_undo).rev() {
            sm.undo_one(*loser, lsn, &rec)?;
            report.undone += 1;
        }
        sm.wal().append(&WalRecord::Abort { txn: *loser })?;
    }
    // In-doubt transactions re-enter the active table with their first
    // surviving LSN so post-recovery checkpoints cannot truncate the
    // records an eventual abort decision still needs.
    for (txn, _) in &in_doubt {
        let pin = first_lsn.get(txn).copied().unwrap_or(report.redo_start);
        sm.restore_prepared(*txn, pin);
    }
    sm.wal().force()?;
    sm.pool().flush_all()?;
    // Publish the figures into the shared registry so exp_observe
    // reports recovery from this single source (ungated: a reboot is
    // rare and the write happens once).
    let m = sm.metrics();
    m.recovery
        .records_scanned
        .set(report.records_scanned as u64);
    m.recovery.scan_bytes.set(report.scanned_bytes);
    m.recovery.redone.set(report.redone as u64);
    m.recovery.losers.set(report.losers.len() as u64);
    m.recovery.undone.set(report.undone as u64);
    m.recovery.salvaged_bytes.set(report.salvaged_bytes);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sm::StorageManager;
    use reach_common::TxnId;

    /// Build an SM, run `work`, then simulate a crash by rebuilding the
    /// pool from the same disk+wal... since MemDisk state lives in the
    /// shared Arc, we emulate crash recovery simply by running `recover`
    /// over the surviving log against the same storage manager whose
    /// buffer pool we flushed selectively. File-based crash tests live in
    /// the integration suite.
    #[test]
    fn loser_transactions_are_rolled_back_on_recovery() {
        let sm = StorageManager::new_in_memory(64).unwrap();
        let seg = sm.create_segment("t").unwrap();
        let t1 = TxnId::new(1);
        sm.begin(t1).unwrap();
        let committed = sm.insert(t1, seg, b"committed").unwrap();
        sm.commit(t1).unwrap();
        // t2 never commits: its effects are visible in the buffer pool
        // (as they would be on disk after a page steal), then we "crash".
        let t2 = TxnId::new(2);
        sm.begin(t2).unwrap();
        let phantom = sm.insert(t2, seg, b"phantom").unwrap();
        sm.update(t2, seg, committed, b"dirty").unwrap();

        let report = recover(&sm).unwrap();
        assert_eq!(report.losers, vec![t2]);
        assert_eq!(report.undone, 2);
        assert!(sm.get(seg, phantom).is_err());
        assert_eq!(sm.get(seg, committed).unwrap(), b"committed");
    }

    #[test]
    fn recovery_is_idempotent() {
        let sm = StorageManager::new_in_memory(64).unwrap();
        let seg = sm.create_segment("t").unwrap();
        let t = TxnId::new(1);
        sm.begin(t).unwrap();
        sm.insert(t, seg, b"x").unwrap();
        // crash before commit
        let r1 = recover(&sm).unwrap();
        assert_eq!(r1.losers, vec![t]);
        // crash again during/after recovery: second run undoes nothing.
        let r2 = recover(&sm).unwrap();
        assert!(r2.losers.is_empty());
        assert_eq!(r2.undone, 0);
        assert_eq!(sm.scan(seg).unwrap().len(), 0);
    }

    #[test]
    fn checkpoint_bounds_redo_work() {
        let sm = StorageManager::new_in_memory(64).unwrap();
        let seg = sm.create_segment("t").unwrap();
        let t1 = TxnId::new(1);
        sm.begin(t1).unwrap();
        for i in 0..20 {
            sm.insert(t1, seg, format!("pre{i}").as_bytes()).unwrap();
        }
        sm.commit(t1).unwrap();
        sm.checkpoint().unwrap();
        let t2 = TxnId::new(2);
        sm.begin(t2).unwrap();
        sm.insert(t2, seg, b"post").unwrap();
        sm.commit(t2).unwrap();
        let report = recover(&sm).unwrap();
        // Only the post-checkpoint insert is redone.
        assert_eq!(report.redone, 1);
        assert!(report.losers.is_empty());
        assert_eq!(sm.scan(seg).unwrap().len(), 21);
    }

    #[test]
    fn prepared_transactions_are_in_doubt_not_losers() {
        let sm = StorageManager::new_in_memory(64).unwrap();
        let seg = sm.create_segment("t").unwrap();
        let t = TxnId::new(7);
        sm.begin(t).unwrap();
        let rid = sm.insert(t, seg, b"doubtful").unwrap();
        sm.prepare(t, 42).unwrap();

        let r1 = recover(&sm).unwrap();
        assert!(r1.losers.is_empty());
        assert_eq!(r1.undone, 0);
        assert_eq!(r1.in_doubt, vec![(t, 42)]);
        // Effects were redone (repeat history), awaiting the decision.
        assert_eq!(sm.get(seg, rid).unwrap(), b"doubtful");
        // Re-recovery before resolution reports the same doubt.
        let r2 = recover(&sm).unwrap();
        assert_eq!(r2.in_doubt, vec![(t, 42)]);

        // Presumed abort: no coordinator decision → roll it back.
        sm.decide_abort(t).unwrap();
        assert!(sm.get(seg, rid).is_err());
        let r3 = recover(&sm).unwrap();
        assert!(r3.in_doubt.is_empty());
        assert!(r3.losers.is_empty());
    }

    #[test]
    fn prepared_transaction_commits_across_reboot() {
        let sm = StorageManager::new_in_memory(64).unwrap();
        let seg = sm.create_segment("t").unwrap();
        let t = TxnId::new(9);
        sm.begin(t).unwrap();
        let rid = sm.insert(t, seg, b"kept").unwrap();
        sm.prepare(t, 43).unwrap();
        let r = recover(&sm).unwrap();
        assert_eq!(r.in_doubt, vec![(t, 43)]);
        sm.decide_commit(t).unwrap();
        assert_eq!(sm.get(seg, rid).unwrap(), b"kept");
        let r2 = recover(&sm).unwrap();
        assert!(r2.in_doubt.is_empty());
        assert_eq!(sm.get(seg, rid).unwrap(), b"kept");
    }

    /// A leaf splice is not idempotent: redo must apply a `LeafInsert`
    /// to its page exactly when the page's LSN is below the record's
    /// end. With the leaf flushed after the insert, the device page
    /// already holds the pair and a second splice would corrupt it;
    /// with the leaf left in the pool, redo must put the pair back.
    #[test]
    fn a_leaf_record_is_redone_exactly_once() {
        use crate::disk::{MemDisk, StableStorage};
        use crate::wal::WriteAheadLog;
        use std::sync::Arc;
        for flush_leaf in [true, false] {
            let disk: Arc<dyn StableStorage> = Arc::new(MemDisk::new());
            let wal = Arc::new(WriteAheadLog::in_memory());
            let (sm, _) =
                StorageManager::open_with(Arc::clone(&disk), Arc::clone(&wal), 16).unwrap();
            let idx = sm.create_index("i").unwrap();
            let t1 = TxnId::new(1);
            sm.begin(t1).unwrap();
            for oid in 0..10 {
                sm.index_insert(t1, idx, b"key", oid).unwrap();
            }
            sm.commit(t1).unwrap();
            // Redo starts here, past the leaf's full image.
            sm.checkpoint().unwrap();
            let t2 = TxnId::new(2);
            sm.begin(t2).unwrap();
            let tail = wal.tail();
            assert!(sm.index_insert(t2, idx, b"new", 7).unwrap());
            sm.commit(t2).unwrap();
            let leaf_records = wal
                .scan_from(tail)
                .unwrap()
                .into_iter()
                .filter(|(_, r)| matches!(r, WalRecord::LeafInsert { .. }))
                .count();
            assert_eq!(leaf_records, 1, "the insert logs one leaf record");
            if flush_leaf {
                sm.pool().flush_all().unwrap();
            }
            drop(sm); // crash: the pool dies, the log and device survive

            let revived = Arc::new(WriteAheadLog::in_memory_from(wal.image().unwrap()));
            let (sm2, report) = StorageManager::open_with(disk, revived, 16)
                .unwrap_or_else(|e| panic!("recovery (leaf flushed: {flush_leaf}) failed: {e}"));
            assert!(report.redone >= 1);
            assert_eq!(sm2.index_lookup(idx, b"new").unwrap(), vec![7]);
            assert_eq!(
                sm2.index_len(idx).unwrap(),
                11,
                "leaf flushed: {flush_leaf}"
            );
            let second = recover(&sm2).unwrap();
            assert_eq!(second.undone, 0);
            assert_eq!(sm2.index_len(idx).unwrap(), 11);
        }
    }

    #[test]
    fn aborted_transactions_are_not_losers() {
        let sm = StorageManager::new_in_memory(64).unwrap();
        let seg = sm.create_segment("t").unwrap();
        let t = TxnId::new(1);
        sm.begin(t).unwrap();
        sm.insert(t, seg, b"gone").unwrap();
        sm.abort(t).unwrap();
        let report = recover(&sm).unwrap();
        assert!(report.losers.is_empty());
        assert_eq!(sm.scan(seg).unwrap().len(), 0);
    }
}
