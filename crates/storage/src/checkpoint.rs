//! Fuzzy checkpointing and log truncation.
//!
//! A checkpoint bounds two things that otherwise grow with uptime: the
//! redo scan of the next recovery and the log itself. The protocol is
//! ARIES-shaped and *fuzzy* — it never quiesces the commit pipeline:
//!
//! 1. Append `BeginCheckpoint` (its LSN anchors everything below).
//! 2. Flush the buffer pool (the integrated background-writer pass:
//!    dirty pages written back and the device synced, commits keep
//!    flowing through the group-commit sequencer the whole time).
//! 3. Capture the **dirty-page table** — pages dirtied during/after the
//!    flush, each with its conservative recovery LSN — and the **active
//!    writer table** — transactions with a first-write LSN and no
//!    Commit/Abort yet. Read-only transactions are never in it, so they
//!    neither block the checkpointer nor pin truncation.
//! 4. Append `EndCheckpoint{dpt, att}` and force through it.
//! 5. Truncate the log below `cut = min(begin_lsn, min rec_lsn, min
//!    first-write LSN)`.
//!
//! **Why the cut is safe.** Take any record with `lsn < cut`. Its page
//! was clean at step 3 (else its rec_lsn bounds the cut), so the page
//! image containing its effect was written back and covered by a device
//! sync before truncation. And its transaction is not an active writer
//! (else its first-write LSN bounds the cut), so it needs no undo:
//! finished transactions never roll back, and a read-only transaction's
//! lost `Begin` frame recovers as an empty no-op loser. Hence the
//! record is needed for neither redo nor undo.
//!
//! Recovery starts redo at `min(begin_lsn, min rec_lsn)` of the last
//! *complete* Begin/End pair; a crash between Begin and End simply
//! falls back to the previous pair (or the log base), which the
//! truncation invariant keeps correct.

use crate::buffer::BufferPool;
use crate::sm::SYSTEM_TXN;
use crate::wal::{Lsn, WalRecord, WriteAheadLog};
use reach_common::sync::Mutex;
use reach_common::{FastMap, Result, TxnId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What one checkpoint did (returned by `StorageManager::checkpoint`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// LSN of the `BeginCheckpoint` record.
    pub begin_lsn: Lsn,
    /// LSN just past the `EndCheckpoint` record (forced through).
    pub end_lsn: Lsn,
    /// Dirty pages carried in the end record (post-flush residue).
    pub dirty_pages: usize,
    /// Active writing transactions carried in the end record.
    pub active_writers: usize,
    /// The truncation cut: every frame below it was dropped.
    pub cutoff: Lsn,
    /// Log bytes the truncation actually dropped.
    pub truncated_bytes: u64,
}

#[derive(Default)]
struct TxnEntry {
    /// Conservative LSN bound of the txn's first logged write (the WAL
    /// tail captured just before the write's record was appended).
    first_write_lsn: Option<Lsn>,
    writes: u64,
}

/// The storage manager's active-transaction table: every live txn with
/// its write count and first-write LSN. Writers pin log truncation at
/// their first-write LSN; read-only transactions never do.
#[derive(Default)]
pub(crate) struct ActiveTxns {
    map: Mutex<FastMap<TxnId, TxnEntry>>,
}

impl ActiveTxns {
    /// Register a freshly begun transaction.
    pub fn begin(&self, txn: TxnId) {
        if txn == SYSTEM_TXN {
            return;
        }
        self.map.lock().entry(txn).or_default();
    }

    /// Record one logged write. Must be called *before* the write's WAL
    /// record is appended: the tail captured here under the table lock
    /// is then ≤ the record's LSN, and a checkpoint snapshot (same
    /// lock) either sees this entry or runs before the append — either
    /// way the cut it derives stays below the record.
    pub fn note_write(&self, txn: TxnId, wal: &WriteAheadLog) {
        if txn == SYSTEM_TXN {
            return;
        }
        let mut map = self.map.lock();
        let e = map.entry(txn).or_default();
        if e.first_write_lsn.is_none() {
            e.first_write_lsn = Some(wal.tail());
        }
        e.writes += 1;
    }

    /// Where `txn`'s undo must start reading the log: `None` if the
    /// table does not know the transaction (crash-restart), `Some(None)`
    /// if it is live but has logged no write, `Some(Some(lsn))` with a
    /// frame boundary at or below its first write record otherwise.
    pub fn first_write_lsn(&self, txn: TxnId) -> Option<Option<Lsn>> {
        self.map.lock().get(&txn).map(|e| e.first_write_lsn)
    }

    /// Append a transaction's outcome record (Commit/Abort) and drop its
    /// table entry as one step under the table lock; returns whether it
    /// had logged writes and the record's end LSN. The atomicity matters
    /// for truncation: a checkpoint snapshot either still sees the
    /// writer (pinning the cut at its first-write LSN) or runs after
    /// this append — and then the outcome record sits below the
    /// checkpoint's `EndCheckpoint`, so the pre-truncation force makes
    /// it durable and the transaction can never come back as a loser
    /// whose undo records were dropped.
    ///
    /// If the outcome append itself fails, the entry is deliberately
    /// **kept**: the transaction's write records are in the log with no
    /// outcome record, so if it ever crashed in this state recovery
    /// would need them for undo — the first-write LSN must keep pinning
    /// truncation. The caller must then re-drive the outcome (retry the
    /// commit, or abort) to release the pin; `sm::commit`/`sm::abort`
    /// surface the error to the client for exactly that reason. A
    /// read-only transaction has no first-write LSN and never pins the
    /// cut, so a stuck entry for one is harmless.
    pub fn finish_logged(
        &self,
        txn: TxnId,
        wal: &WriteAheadLog,
        rec: &WalRecord,
    ) -> Result<(bool, Lsn)> {
        let mut map = self.map.lock();
        let (_, end) = wal.append_bounded(rec)?;
        let wrote = map.remove(&txn).map(|e| e.writes > 0).unwrap_or(false);
        Ok((wrote, end))
    }

    /// Re-register an in-doubt transaction after recovery with the
    /// first-write LSN its surviving records start at. The entry pins
    /// log truncation exactly like a live writer's would, so a
    /// checkpoint taken while the coordinator's decision is outstanding
    /// can never drop the records an eventual abort still needs.
    /// Idempotent: restoring twice (crash during resolution, recover
    /// again) just overwrites the same entry.
    pub fn restore(&self, txn: TxnId, first_write_lsn: Lsn) {
        if txn == SYSTEM_TXN {
            return;
        }
        let mut map = self.map.lock();
        let e = map.entry(txn).or_default();
        e.first_write_lsn = Some(first_write_lsn);
        e.writes = e.writes.max(1);
    }

    /// The active *writer* table for an `EndCheckpoint` record.
    pub fn snapshot(&self) -> Vec<(TxnId, Lsn)> {
        let mut out: Vec<(TxnId, Lsn)> = self
            .map
            .lock()
            .iter()
            .filter_map(|(t, e)| e.first_write_lsn.map(|l| (*t, l)))
            .collect();
        out.sort();
        out
    }
}

/// Runs fuzzy checkpoints over one storage manager's WAL and pool.
pub(crate) struct Checkpointer {
    wal: Arc<WriteAheadLog>,
    pool: Arc<BufferPool>,
    active: Arc<ActiveTxns>,
    /// Serializes checkpoints (Begin/End pairs must not interleave).
    guard: Mutex<()>,
    /// Log bytes between checkpoints that arm the automatic trigger
    /// (0 = explicit checkpoints only).
    threshold: AtomicU64,
    /// WAL tail right after the last checkpoint completed.
    last_ckpt_tail: AtomicU64,
}

impl Checkpointer {
    pub fn new(wal: Arc<WriteAheadLog>, pool: Arc<BufferPool>, active: Arc<ActiveTxns>) -> Self {
        let tail = wal.tail();
        Checkpointer {
            wal,
            pool,
            active,
            guard: Mutex::new(()),
            threshold: AtomicU64::new(0),
            last_ckpt_tail: AtomicU64::new(tail),
        }
    }

    /// Arm (or disarm with `None`) the bytes-since-last-checkpoint
    /// trigger consulted at the end of every commit/abort.
    pub fn set_threshold(&self, bytes: Option<u64>) {
        self.threshold.store(bytes.unwrap_or(0), Ordering::Relaxed);
    }

    /// Take a checkpoint now (blocks if one is already running).
    pub fn checkpoint(&self) -> Result<CheckpointStats> {
        let g = self.guard.lock();
        self.run(g)
    }

    /// Take a checkpoint if the byte threshold is armed and exceeded
    /// and no checkpoint is already running. Called inline after
    /// commit/abort; deliberately cheap when disarmed.
    pub fn maybe_checkpoint(&self) -> Result<Option<CheckpointStats>> {
        let threshold = self.threshold.load(Ordering::Relaxed);
        if threshold == 0 {
            return Ok(None);
        }
        let since = self
            .wal
            .tail()
            .saturating_sub(self.last_ckpt_tail.load(Ordering::Relaxed));
        if since < threshold {
            return Ok(None);
        }
        match self.guard.try_lock() {
            Some(g) => self.run(g).map(Some),
            None => Ok(None),
        }
    }

    fn run(&self, _guard: reach_common::sync::MutexGuard<'_, ()>) -> Result<CheckpointStats> {
        let (begin_lsn, _) = self.wal.append_bounded(&WalRecord::BeginCheckpoint)?;
        // Background-writer pass: most pages come back clean, so the
        // post-flush DPT is small and the cut lands near begin_lsn.
        self.pool.flush_all()?;
        let dirty = self.pool.dirty_page_table();
        let active = self.active.snapshot();
        let (_, end_lsn) = self.wal.append_bounded(&WalRecord::EndCheckpoint {
            dirty: dirty.clone(),
            active: active.clone(),
        })?;
        self.wal.force_up_to(end_lsn)?;
        let mut cut = begin_lsn;
        for (_, rec_lsn) in &dirty {
            cut = cut.min(*rec_lsn);
        }
        for (_, first_lsn) in &active {
            cut = cut.min(*first_lsn);
        }
        // Cover evictions that wrote pages back between flush_all's sync
        // and the DPT capture: one more device sync before any frame
        // below the cut is dropped.
        self.pool.disk().sync()?;
        let truncated_bytes = self.wal.truncate_prefix(cut)?;
        self.last_ckpt_tail
            .store(self.wal.tail(), Ordering::Relaxed);
        let m = self.pool.metrics();
        m.ckpt.taken.inc();
        Ok(CheckpointStats {
            begin_lsn,
            end_lsn,
            dirty_pages: dirty.len(),
            active_writers: active.len(),
            cutoff: cut,
            truncated_bytes,
        })
    }
}
