//! The storage manager facade — the EXODUS stand-in.
//!
//! Everything above this layer (the Persistence PM, extents, indexes)
//! talks to [`StorageManager`]: named *segments* (heap files) holding
//! records, with every mutation logged to the WAL under the mutating
//! transaction's id. Commit forces the log; abort rolls the transaction
//! back from its before-images, writing compensation records.
//!
//! The segment catalog itself lives on page 1 of the device (created on
//! first use) and is logged under the reserved [`SYSTEM_TXN`], which
//! recovery always treats as committed. Slot 1 of the same page holds
//! the persistent-index catalog (name → B+Tree root), maintained the
//! same way.
//!
//! **Known limit**: the catalog is one record on one page, so the sum
//! of all segments' page lists must fit in ~8 KiB — roughly 1 000 heap
//! pages (≈8 MB of data) total. Exceeding it fails loudly with
//! `RecordTooLarge` at the catalog write. Fine for the reproduction's
//! scale; a production system would chain catalog pages.

use crate::btree::BTree;
use crate::buffer::BufferPool;
use crate::checkpoint::{ActiveTxns, CheckpointStats, Checkpointer};
use crate::disk::{FileDisk, MemDisk, StableStorage};
use crate::heap::{put_logged, undo_on, HeapFile, RecordId};
use crate::wal::{WalRecord, WriteAheadLog};
use reach_common::codec::{put_str, put_u32, put_u64, Reader};
use reach_common::sync::Mutex;
use reach_common::{MetricsRegistry, PageId, ReachError, Result, TxnId};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// The transaction id used for system-internal (catalog) writes.
pub const SYSTEM_TXN: TxnId = TxnId(u64::MAX);

/// Log growth that triggers a fuzzy checkpoint on an in-memory storage
/// manager, so the volatile log is truncated below the safe cut the way
/// an operator-configured file log is, instead of growing for as long
/// as the process lives (5.6 KB per `monitor_embedded` batch
/// transaction: 173 MB over the 20 s benchmark run). 8 MiB is one
/// checkpoint per ~1 500 such transactions — under 0.1 % of a run —
/// and was the value the flat-memory change was sized with
/// (EXPERIMENTS.md E24).
pub const IN_MEMORY_CHECKPOINT_BYTES: u64 = 8 << 20;

/// Identity of a segment within one storage manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u64);

struct Segment {
    id: SegmentId,
    name: String,
    heap: Arc<HeapFile>,
}

struct Catalog {
    by_name: HashMap<String, usize>,
    segments: Vec<Segment>,
    next_seg: u64,
}

/// Facade over pool + WAL + segment catalog.
pub struct StorageManager {
    pool: Arc<BufferPool>,
    wal: Arc<WriteAheadLog>,
    catalog: Mutex<Catalog>,
    /// Page holding the serialized catalog (page 1, slot 0).
    catalog_page: PageId,
    /// Serializes index structural operations and index-catalog writes.
    /// The index catalog itself lives on the catalog page, slot 1, and
    /// is read on demand — the page is authoritative, so recovery-time
    /// undo (which runs before any in-memory state is rebuilt) sees
    /// exactly the post-redo tree roots.
    index_lock: Mutex<()>,
    /// Live transactions with write counts and first-write LSNs — feeds
    /// the read-only commit fast path (a txn with zero writes has
    /// nothing to force) and the checkpoint's active-writer table.
    active: Arc<ActiveTxns>,
    /// Fuzzy checkpoint / log-truncation driver.
    ckpt: Checkpointer,
}

impl StorageManager {
    /// A storage manager over in-memory disk and log (tests, benchmarks),
    /// with the byte-threshold checkpoint armed at
    /// [`IN_MEMORY_CHECKPOINT_BYTES`]: nobody else will ever truncate a
    /// log that lives on the heap.
    pub fn new_in_memory(pool_frames: usize) -> Result<Self> {
        let disk: Arc<dyn StableStorage> = Arc::new(MemDisk::new());
        let sm = Self::bootstrap(disk, Arc::new(WriteAheadLog::in_memory()), pool_frames)?;
        sm.set_checkpoint_threshold(Some(IN_MEMORY_CHECKPOINT_BYTES));
        Ok(sm)
    }

    /// Open (or create) a database directory containing `data.db` and
    /// `wal.log`, running recovery if the files already exist.
    pub fn open(dir: &Path, pool_frames: usize) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let disk: Arc<dyn StableStorage> = Arc::new(FileDisk::open(&dir.join("data.db"))?);
        let wal = Arc::new(WriteAheadLog::open(&dir.join("wal.log"))?);
        Ok(Self::open_with(disk, wal, pool_frames)?.0)
    }

    /// Open a storage manager over explicit device and log parts,
    /// running recovery if the device already holds pages. This is the
    /// reopen path of the crash-torture harness: the surviving `MemDisk`
    /// (shared `Arc`) plus a WAL rebuilt from the surviving byte image
    /// stand in for the machine coming back up. It is also how a caller
    /// wires a fault-injecting device or log into a live system.
    pub fn open_with(
        disk: Arc<dyn StableStorage>,
        wal: Arc<WriteAheadLog>,
        pool_frames: usize,
    ) -> Result<(Self, crate::recovery::RecoveryReport)> {
        let existing = disk.page_count() > 0;
        let sm = Self::bootstrap(disk, wal, pool_frames)?;
        let report = if existing {
            // Recovery must replay the log *before* the catalog page is
            // trusted: commit forces only the WAL, so after a crash the
            // on-disk catalog may predate every committed segment.
            let report = crate::recovery::recover(&sm)?;
            sm.reload_catalog()?;
            report
        } else {
            crate::recovery::RecoveryReport::default()
        };
        Ok((sm, report))
    }

    fn bootstrap(
        disk: Arc<dyn StableStorage>,
        wal: Arc<WriteAheadLog>,
        pool_frames: usize,
    ) -> Result<Self> {
        let fresh = disk.page_count() == 0;
        // The registry is born here, at the lowest layer, and threaded
        // *up*: the database and the active layer above clone this same
        // `Arc`, so the whole stack reports into one place.
        let metrics = MetricsRegistry::new_shared();
        wal.set_metrics(Arc::clone(&metrics));
        let pool = Arc::new(BufferPool::with_metrics(disk, pool_frames, metrics));
        // WAL rule, per page: every logged mutation stamps its page
        // with its record's end LSN (`heap::log_applied`), and a dirty
        // write-back (eviction, flush) forces the log up to that stamp
        // only. A victim whose records are already durable costs no
        // force at all (the group-commit fast path). The force never
        // touches pool locks or page latches, so calling it from under
        // the directory lock and a victim's latch is deadlock-free.
        // The unlogged format write of a fresh catalog page below
        // carries LSN 0 and needs no force.
        {
            let wal = Arc::clone(&wal);
            pool.set_flush_barrier(Arc::new(move |lsn| wal.force_up_to(lsn)));
        }
        // Recovery-LSN source: a page dirtied now can only be described
        // by records at or past the current tail, so the tail is a safe
        // conservative rec_lsn for the dirty-page table.
        {
            let wal = Arc::clone(&wal);
            pool.set_lsn_source(Arc::new(move || wal.tail()));
        }
        let catalog_page = if fresh {
            let pid = pool.allocate()?;
            debug_assert_eq!(pid.raw(), 1);
            pool.with_page_mut(pid, |pg| pg.put_at(0, &encode_catalog(&[], 1)))??;
            pid
        } else {
            PageId::new(1)
        };
        let active = Arc::new(ActiveTxns::default());
        let ckpt = Checkpointer::new(Arc::clone(&wal), Arc::clone(&pool), Arc::clone(&active));
        let sm = StorageManager {
            pool,
            wal,
            catalog: Mutex::new(Catalog {
                by_name: HashMap::new(),
                segments: Vec::new(),
                next_seg: 1,
            }),
            catalog_page,
            index_lock: Mutex::new(()),
            active,
            ckpt,
        };
        // For pre-existing databases the catalog is loaded by the caller
        // after recovery ran (see `open`); reading it here would see
        // pre-crash bytes.
        Ok(sm)
    }

    /// The buffer pool (indexes and recovery need direct page access).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The write-ahead log.
    pub fn wal(&self) -> &Arc<WriteAheadLog> {
        &self.wal
    }

    /// The shared observability registry for this storage stack.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.pool.metrics()
    }

    // ---- catalog ----

    fn reload_catalog(&self) -> Result<()> {
        // A database that crashed before its first catalog write has a
        // formatted-but-empty page 1: that is a valid empty catalog.
        let raw = self
            .pool
            .with_page(self.catalog_page, |pg| pg.get(0).map(|b| b.to_vec()).ok())?;
        let (entries, next_seg) = match raw {
            Some(bytes) => decode_catalog(&bytes)?,
            None => (Vec::new(), 1),
        };
        let mut cat = self.catalog.lock();
        cat.segments.clear();
        cat.by_name.clear();
        cat.next_seg = next_seg;
        for (name, id, pages) in entries {
            let heap = Arc::new(HeapFile::with_pages(
                Arc::clone(&self.pool),
                Arc::clone(&self.wal),
                pages,
            ));
            let idx = cat.segments.len();
            cat.by_name.insert(name.clone(), idx);
            cat.segments.push(Segment {
                id: SegmentId(id),
                name,
                heap,
            });
        }
        Ok(())
    }

    /// Persist the catalog (logged under [`SYSTEM_TXN`]).
    fn save_catalog(&self, cat: &Catalog) -> Result<()> {
        let entries: Vec<(String, u64, Vec<PageId>)> = cat
            .segments
            .iter()
            .map(|s| (s.name.clone(), s.id.0, s.heap.pages()))
            .collect();
        // A database that crashed before its first catalog update comes
        // back with a formatted-but-empty page 1 (the bootstrap write
        // was never flushed); the write then logs as an Insert.
        put_logged(
            &self.pool,
            &self.wal,
            SYSTEM_TXN,
            self.catalog_page,
            0,
            encode_catalog(&entries, cat.next_seg),
        )
    }

    /// Create a segment; returns the existing one if the name is taken.
    pub fn create_segment(&self, name: &str) -> Result<SegmentId> {
        let mut cat = self.catalog.lock();
        if let Some(&idx) = cat.by_name.get(name) {
            return Ok(cat.segments[idx].id);
        }
        let id = SegmentId(cat.next_seg);
        cat.next_seg += 1;
        let heap = Arc::new(HeapFile::new(Arc::clone(&self.pool), Arc::clone(&self.wal)));
        let idx = cat.segments.len();
        cat.by_name.insert(name.to_string(), idx);
        cat.segments.push(Segment {
            id,
            name: name.to_string(),
            heap,
        });
        self.save_catalog(&cat)?;
        Ok(id)
    }

    /// Look up a segment by name.
    pub fn segment(&self, name: &str) -> Result<SegmentId> {
        let cat = self.catalog.lock();
        cat.by_name
            .get(name)
            .map(|&idx| cat.segments[idx].id)
            .ok_or_else(|| ReachError::NameNotFound(name.to_string()))
    }

    /// All segment names (for introspection / Figure 1 dumps).
    pub fn segment_names(&self) -> Vec<String> {
        self.catalog
            .lock()
            .segments
            .iter()
            .map(|s| s.name.clone())
            .collect()
    }

    fn heap(&self, seg: SegmentId) -> Result<Arc<HeapFile>> {
        let cat = self.catalog.lock();
        cat.segments
            .iter()
            .find(|s| s.id == seg)
            .map(|s| Arc::clone(&s.heap))
            .ok_or_else(|| ReachError::NameNotFound(format!("segment {}", seg.0)))
    }

    // ---- transactional record operations ----

    /// Log the start of a transaction.
    pub fn begin(&self, txn: TxnId) -> Result<()> {
        self.active.begin(txn);
        self.wal.append(&WalRecord::Begin { txn })?;
        Ok(())
    }

    /// Commit: append the commit record and force the log up to it —
    /// the durability point, routed through the group-commit sequencer
    /// so concurrent committers share one sync. Read-only transactions
    /// skip the force entirely: losing their unforced commit record in
    /// a crash leaves a Begin-only loser that recovery discards as a
    /// no-op. Dirty pages may trickle out later or at checkpoint.
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        let (wrote, end) = self
            .active
            .finish_logged(txn, &self.wal, &WalRecord::Commit { txn })?;
        if wrote {
            self.wal.force_up_to(end)?;
        }
        // Best-effort auto-checkpoint: the commit is already durable and
        // acked, so a checkpoint failure here must not turn it into an
        // error (the torture oracle counts acks as winners, exactly).
        let _ = self.ckpt.maybe_checkpoint();
        Ok(())
    }

    /// Two-phase commit, phase one: force-log a [`WalRecord::Prepare`]
    /// binding `txn` to global transaction `gid`. After this returns,
    /// the participant can commit `txn` regardless of crashes — every
    /// record needed for redo sits below the forced Prepare — and must
    /// not unilaterally abort it: the outcome now belongs to the
    /// coordinator. The active-table entry is deliberately *kept* (the
    /// usual outcome records drop it), so a prepared transaction pins
    /// log truncation at its first write until [`Self::decide_commit`]
    /// or [`Self::decide_abort`] resolves it, possibly after a reboot.
    pub fn prepare(&self, txn: TxnId, gid: u64) -> Result<()> {
        // The Prepare record itself counts as a write: a prepared
        // read-only txn must still survive truncation until decided.
        self.active.note_write(txn, &self.wal);
        let (_, end) = self.wal.append_bounded(&WalRecord::Prepare { txn, gid })?;
        self.wal.force_up_to(end)?;
        Ok(())
    }

    /// Two-phase commit, commit decision: append and force the Commit
    /// record. Unlike [`Self::commit`] the force is unconditional — the
    /// caller may be resolving an in-doubt transaction after a reboot,
    /// where the active table no longer knows whether it wrote.
    pub fn decide_commit(&self, txn: TxnId) -> Result<()> {
        let (_, end) = self
            .active
            .finish_logged(txn, &self.wal, &WalRecord::Commit { txn })?;
        self.wal.force_up_to(end)?;
        let _ = self.ckpt.maybe_checkpoint();
        Ok(())
    }

    /// Two-phase commit, abort decision (also the presumed-abort path
    /// for an in-doubt transaction whose coordinator log has no
    /// decision). Scan-driven like [`Self::abort`], so it works equally
    /// before and after a reboot.
    pub fn decide_abort(&self, txn: TxnId) -> Result<()> {
        self.abort(txn)
    }

    /// Re-register an in-doubt (prepared, undecided) transaction after
    /// recovery so checkpoints keep its log records until a decision
    /// arrives; `first_write_lsn` is the earliest surviving record of
    /// the transaction.
    pub(crate) fn restore_prepared(&self, txn: TxnId, first_write_lsn: u64) {
        self.active.restore(txn, first_write_lsn);
    }

    /// Abort: undo this transaction's logged operations in reverse order,
    /// writing CLRs, then append the abort record. The log is read from
    /// the transaction's first write only — an abort costs what the
    /// transaction and its contemporaries logged, not what the whole
    /// surviving log holds. A crash-restart abort, whose transaction the
    /// active table no longer knows, falls back to the full scan.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        let scanned = match self.active.first_write_lsn(txn) {
            Some(Some(first)) => self.wal.scan_from(first)?,
            Some(None) => Vec::new(),
            None => self.wal.scan()?,
        };
        let mut mine: Vec<(u64, WalRecord)> = scanned
            .into_iter()
            .filter(|(_, r)| r.txn() == Some(txn))
            .collect();
        // Count CLRs already written (crash-restart aborts): skip the
        // operations they already undid.
        let undone: usize = mine
            .iter()
            .filter(|(_, r)| matches!(r, WalRecord::Clr { .. } | WalRecord::IndexClr { .. }))
            .count();
        let ops: Vec<(u64, WalRecord)> = mine
            .drain(..)
            .filter(|(_, r)| {
                matches!(
                    r,
                    WalRecord::Insert { .. }
                        | WalRecord::Update { .. }
                        | WalRecord::Delete { .. }
                        | WalRecord::IndexInsert { .. }
                        | WalRecord::IndexDelete { .. }
                )
            })
            .collect();
        // `ops` is scan-derived so crash-restart aborts (where the
        // active table is empty) still force correctly.
        let wrote = !ops.is_empty();
        let to_undo = ops.len().saturating_sub(undone);
        for (lsn, rec) in ops.into_iter().take(to_undo).rev() {
            self.undo_one(txn, lsn, &rec)?;
        }
        let (_, end) = self
            .active
            .finish_logged(txn, &self.wal, &WalRecord::Abort { txn })?;
        if wrote {
            self.wal.force_up_to(end)?;
        }
        // Same best-effort trigger as commit; see there for why errors
        // are swallowed.
        let _ = self.ckpt.maybe_checkpoint();
        Ok(())
    }

    /// Apply the inverse of one logged operation and write its CLR.
    pub(crate) fn undo_one(&self, txn: TxnId, lsn: u64, rec: &WalRecord) -> Result<()> {
        match rec {
            // Physical undo of a heap record, CLR first and inside the
            // page latch: the compensation only happens once its record
            // is on the log, and the page is stamped with the CLR's end.
            WalRecord::Insert { page, slot, .. }
            | WalRecord::Update { page, slot, .. }
            | WalRecord::Delete { page, slot, .. } => {
                let restore = match rec {
                    WalRecord::Update { before, .. } | WalRecord::Delete { before, .. } => {
                        Some(before.clone())
                    }
                    _ => None,
                };
                let clr = WalRecord::Clr {
                    txn,
                    page: *page,
                    slot: *slot,
                    restore,
                    undo_next: lsn,
                };
                self.pool.with_page_mut(*page, |pg| -> Result<()> {
                    let (_, end) = self.wal.append_bounded(&clr)?;
                    undo_on(pg, rec)?;
                    pg.set_lsn(end);
                    Ok(())
                })??;
            }
            // Logical index undo: re-descend the *current* tree and
            // apply the inverse, then write the compensation record.
            // Mutation-first makes a torn restart-undo idempotent: the
            // repeat just deletes an absent pair / re-inserts a present
            // one, both no-ops under set semantics.
            WalRecord::IndexInsert {
                index, key, oid, ..
            } => {
                self.index_undo(*index, key, *oid, false)?;
                self.wal.append(&WalRecord::IndexClr {
                    txn,
                    undo_next: lsn,
                })?;
            }
            WalRecord::IndexDelete {
                index, key, oid, ..
            } => {
                self.index_undo(*index, key, *oid, true)?;
                self.wal.append(&WalRecord::IndexClr {
                    txn,
                    undo_next: lsn,
                })?;
            }
            _ => {}
        }
        Ok(())
    }

    /// Insert a record into `seg` under transaction `txn`.
    pub fn insert(&self, txn: TxnId, seg: SegmentId, payload: &[u8]) -> Result<RecordId> {
        let heap = self.heap(seg)?;
        // Registered before the append so the checkpoint cut can never
        // pass this record while the transaction is live.
        self.active.note_write(txn, &self.wal);
        let (rid, grew) = heap.insert(txn, payload)?;
        if grew {
            let cat = self.catalog.lock();
            self.save_catalog(&cat)?;
        }
        Ok(rid)
    }

    /// Read a record (no logging).
    pub fn get(&self, seg: SegmentId, rid: RecordId) -> Result<Vec<u8>> {
        self.heap(seg)?.get(rid)
    }

    /// Update a record in place under `txn`.
    pub fn update(&self, txn: TxnId, seg: SegmentId, rid: RecordId, payload: &[u8]) -> Result<()> {
        let heap = self.heap(seg)?;
        self.active.note_write(txn, &self.wal);
        heap.update(txn, rid, payload)
    }

    /// Delete a record under `txn`.
    pub fn delete(&self, txn: TxnId, seg: SegmentId, rid: RecordId) -> Result<()> {
        let heap = self.heap(seg)?;
        self.active.note_write(txn, &self.wal);
        heap.delete(txn, rid)
    }

    /// Scan all live records of a segment.
    pub fn scan(&self, seg: SegmentId) -> Result<Vec<(RecordId, Vec<u8>)>> {
        self.heap(seg)?.scan()
    }

    /// Walk a segment's live records as borrowed slices, stopping when
    /// the visitor breaks — no payload is copied and no `Vec` is built.
    pub fn for_each_while(
        &self,
        seg: SegmentId,
        f: impl FnMut(RecordId, &[u8]) -> std::ops::ControlFlow<()>,
    ) -> Result<()> {
        self.heap(seg)?.for_each_while(f)
    }

    /// Number of live records in a segment without materializing them.
    pub fn scan_count(&self, seg: SegmentId) -> Result<usize> {
        self.heap(seg)?.len()
    }

    /// The segment's first live record, if any — stops at the first hit.
    pub fn scan_first(&self, seg: SegmentId) -> Result<Option<(RecordId, Vec<u8>)>> {
        self.heap(seg)?.first()
    }

    // ---- persistent B+Tree indexes ----
    //
    // The index catalog — (name, id, root page, fanout knob) per index —
    // lives in slot 1 of the catalog page, logged under SYSTEM_TXN like
    // the segment catalog in slot 0. User-level index mutations are
    // additionally logged *logically* (IndexInsert/IndexDelete under the
    // mutating transaction) so abort and restart-undo can reverse them
    // through the tree, while the tree's own page changes (leaf
    // splices, node images) are SYSTEM_TXN records replayed by redo.

    /// Create a persistent index; returns the existing id if the name
    /// is taken (reopen path).
    pub fn create_index(&self, name: &str) -> Result<u64> {
        self.create_index_with(name, None)
    }

    /// [`StorageManager::create_index`] with an explicit max-entries
    /// fanout knob (tests and torture force boundary fanouts with it;
    /// the knob is persisted so reopen splits identically).
    pub fn create_index_with(&self, name: &str, max_node_entries: Option<usize>) -> Result<u64> {
        let _g = self.index_lock.lock();
        let (mut entries, next) = self.load_index_entries()?;
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            return Ok(e.id);
        }
        let tree = BTree::create(
            Arc::clone(&self.pool),
            Arc::clone(&self.wal),
            max_node_entries,
        )?;
        let id = next;
        entries.push(IndexEntry {
            name: name.to_string(),
            id,
            root: tree.root(),
            max_node_entries: max_node_entries.map_or(0, |n| n as u32),
        });
        self.store_index_entries(&entries, next + 1)?;
        Ok(id)
    }

    /// All persistent indexes as `(name, id)` pairs.
    pub fn index_names(&self) -> Result<Vec<(String, u64)>> {
        let _g = self.index_lock.lock();
        let (entries, _) = self.load_index_entries()?;
        Ok(entries.into_iter().map(|e| (e.name, e.id)).collect())
    }

    /// Insert `(key, oid)` into index `index` under `txn`, logging the
    /// operation logically for undo. Returns `false` (and logs nothing)
    /// if the pair is already present.
    pub fn index_insert(&self, txn: TxnId, index: u64, key: &[u8], oid: u64) -> Result<bool> {
        let _g = self.index_lock.lock();
        let (mut entries, next) = self.load_index_entries()?;
        let tree = open_entry_tree(self, &entries, index)?;
        // One descent: the tree finds the pair absent, then the logical
        // record goes first. If the tree mutation's page records are
        // torn away by a crash, the surviving logical record still
        // drives a (no-op) undo; the reverse order could leak a
        // half-applied loser insert with nothing to undo it.
        let inserted = tree.insert_with(key, oid, || {
            self.active.note_write(txn, &self.wal);
            self.wal
                .append(&WalRecord::IndexInsert {
                    txn,
                    index,
                    key: key.to_vec(),
                    oid,
                })
                .map(drop)
        })?;
        if !inserted {
            return Ok(false);
        }
        self.persist_root_if_moved(&mut entries, next, index, &tree)?;
        let m = self.metrics();
        if m.on() {
            m.index.inserts.inc();
        }
        Ok(true)
    }

    /// Delete `(key, oid)` from index `index` under `txn`. Returns
    /// `false` (and logs nothing) if the pair is absent.
    pub fn index_delete(&self, txn: TxnId, index: u64, key: &[u8], oid: u64) -> Result<bool> {
        let _g = self.index_lock.lock();
        let (mut entries, next) = self.load_index_entries()?;
        let tree = open_entry_tree(self, &entries, index)?;
        let deleted = tree.delete_with(key, oid, || {
            self.active.note_write(txn, &self.wal);
            self.wal
                .append(&WalRecord::IndexDelete {
                    txn,
                    index,
                    key: key.to_vec(),
                    oid,
                })
                .map(drop)
        })?;
        if !deleted {
            return Ok(false);
        }
        self.persist_root_if_moved(&mut entries, next, index, &tree)?;
        let m = self.metrics();
        if m.on() {
            m.index.deletes.inc();
        }
        Ok(true)
    }

    /// Point lookup: all oids under exactly `key`, ascending.
    pub fn index_lookup(&self, index: u64, key: &[u8]) -> Result<Vec<u64>> {
        let _g = self.index_lock.lock();
        let (entries, _) = self.load_index_entries()?;
        open_entry_tree(self, &entries, index)?.lookup(key)
    }

    /// Range scan in ascending `(key, oid)` order with planner `Bound`
    /// semantics.
    pub fn index_range(
        &self,
        index: u64,
        low: std::ops::Bound<&[u8]>,
        high: std::ops::Bound<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, u64)>> {
        let _g = self.index_lock.lock();
        let (entries, _) = self.load_index_entries()?;
        open_entry_tree(self, &entries, index)?.range(low, high)
    }

    /// Number of `(key, oid)` pairs in the index.
    pub fn index_len(&self, index: u64) -> Result<usize> {
        let _g = self.index_lock.lock();
        let (entries, _) = self.load_index_entries()?;
        open_entry_tree(self, &entries, index)?.len()
    }

    /// Apply a logical undo step: delete (`insert == false`) or
    /// re-insert (`insert == true`) a pair through the current tree.
    /// Missing indexes are tolerated (idempotence under torn catalogs).
    fn index_undo(&self, index: u64, key: &[u8], oid: u64, insert: bool) -> Result<()> {
        let _g = self.index_lock.lock();
        let (mut entries, next) = self.load_index_entries()?;
        let Ok(tree) = open_entry_tree(self, &entries, index) else {
            return Ok(());
        };
        if insert {
            tree.insert(key, oid)?;
        } else {
            tree.delete(key, oid)?;
        }
        self.persist_root_if_moved(&mut entries, next, index, &tree)?;
        let m = self.metrics();
        if m.on() {
            m.index.undone.inc();
        }
        Ok(())
    }

    fn persist_root_if_moved(
        &self,
        entries: &mut [IndexEntry],
        next: u64,
        index: u64,
        tree: &BTree,
    ) -> Result<()> {
        let entry = entries
            .iter_mut()
            .find(|e| e.id == index)
            .expect("entry existed when the tree was opened");
        if entry.root != tree.root() {
            entry.root = tree.root();
            self.store_index_entries(entries, next)?;
        }
        Ok(())
    }

    fn load_index_entries(&self) -> Result<(Vec<IndexEntry>, u64)> {
        let raw = self
            .pool
            .with_page(self.catalog_page, |pg| pg.get(1).map(|b| b.to_vec()).ok())?;
        match raw {
            Some(bytes) => decode_index_catalog(&bytes),
            None => Ok((Vec::new(), 1)),
        }
    }

    /// Persist the index catalog to slot 1 (logged under
    /// [`SYSTEM_TXN`], same idiom as the segment catalog).
    fn store_index_entries(&self, entries: &[IndexEntry], next_index: u64) -> Result<()> {
        put_logged(
            &self.pool,
            &self.wal,
            SYSTEM_TXN,
            self.catalog_page,
            1,
            encode_index_catalog(entries, next_index),
        )
    }

    /// Take a fuzzy checkpoint now: `BeginCheckpoint`, pool flush,
    /// dirty-page + active-writer capture, `EndCheckpoint`, force, then
    /// truncate the log below the safe cut. See [`crate::checkpoint`]
    /// for the protocol and the truncation-safety argument.
    pub fn checkpoint(&self) -> Result<CheckpointStats> {
        self.ckpt.checkpoint()
    }

    /// Arm (or disarm with `None`) automatic checkpoints every `bytes`
    /// of log growth, checked after each commit/abort.
    pub fn set_checkpoint_threshold(&self, bytes: Option<u64>) {
        self.ckpt.set_threshold(bytes);
    }
}

impl std::fmt::Debug for StorageManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageManager")
            .field("segments", &self.segment_names())
            .field("pages", &self.pool.disk().page_count())
            .finish()
    }
}

// ---- index catalog ----

/// One persistent index in the catalog (slot 1 of the catalog page).
#[derive(Debug, Clone, PartialEq, Eq)]
struct IndexEntry {
    name: String,
    id: u64,
    /// Root page as of the last persisted structure change. May lag a
    /// crash-torn root split — safe, because an old root is the
    /// leftmost node of its level and right links reach everything.
    root: PageId,
    /// Max-entries fanout knob (0 = byte-budget default), persisted so
    /// reopen splits identically.
    max_node_entries: u32,
}

fn open_entry_tree(sm: &StorageManager, entries: &[IndexEntry], index: u64) -> Result<BTree> {
    let e = entries
        .iter()
        .find(|e| e.id == index)
        .ok_or_else(|| ReachError::NameNotFound(format!("index {index}")))?;
    let cap = if e.max_node_entries == 0 {
        None
    } else {
        Some(e.max_node_entries as usize)
    };
    Ok(BTree::open(
        Arc::clone(&sm.pool),
        Arc::clone(&sm.wal),
        e.root,
        cap,
    ))
}

fn encode_index_catalog(entries: &[IndexEntry], next_index: u64) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, next_index);
    put_u32(&mut out, entries.len() as u32);
    for e in entries {
        put_str(&mut out, &e.name);
        put_u64(&mut out, e.id);
        put_u64(&mut out, e.root.raw());
        put_u32(&mut out, e.max_node_entries);
    }
    out
}

fn decode_index_catalog(buf: &[u8]) -> Result<(Vec<IndexEntry>, u64)> {
    let mut r = Reader::new(buf, ReachError::WalCorrupt);
    let next_index = r.u64()?;
    // An entry is at least a name length, id, root and fanout knob.
    let n = r.count(24)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(IndexEntry {
            name: r.str()?,
            id: r.u64()?,
            root: PageId::new(r.u64()?),
            max_node_entries: r.u32()?,
        });
    }
    Ok((entries, next_index))
}

// ---- catalog (de)serialization ----

fn encode_catalog(entries: &[(String, u64, Vec<PageId>)], next_seg: u64) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, next_seg);
    put_u32(&mut out, entries.len() as u32);
    for (name, id, pages) in entries {
        put_str(&mut out, name);
        put_u64(&mut out, *id);
        put_u32(&mut out, pages.len() as u32);
        for p in pages {
            put_u64(&mut out, p.raw());
        }
    }
    out
}

type CatalogEntries = Vec<(String, u64, Vec<PageId>)>;

fn decode_catalog(buf: &[u8]) -> Result<(CatalogEntries, u64)> {
    let mut r = Reader::new(buf, ReachError::WalCorrupt);
    let next_seg = r.u64()?;
    // An entry is at least a name length, id and page count.
    let n = r.count(16)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let id = r.u64()?;
        let n_pages = r.count(8)?;
        let mut pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            pages.push(PageId::new(r.u64()?));
        }
        entries.push((name, id, pages));
    }
    Ok((entries, next_seg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sm() -> StorageManager {
        StorageManager::new_in_memory(64).unwrap()
    }

    #[test]
    fn segments_are_named_and_idempotent() {
        let s = sm();
        let a = s.create_segment("people").unwrap();
        let b = s.create_segment("people").unwrap();
        assert_eq!(a, b);
        assert_eq!(s.segment("people").unwrap(), a);
        assert!(s.segment("nope").is_err());
    }

    #[test]
    fn committed_insert_is_readable() {
        let s = sm();
        let seg = s.create_segment("t").unwrap();
        let txn = TxnId::new(1);
        s.begin(txn).unwrap();
        let rid = s.insert(txn, seg, b"row").unwrap();
        s.commit(txn).unwrap();
        assert_eq!(s.get(seg, rid).unwrap(), b"row");
    }

    #[test]
    fn abort_rolls_back_insert_update_delete() {
        let s = sm();
        let seg = s.create_segment("t").unwrap();
        // Committed baseline row.
        let t0 = TxnId::new(1);
        s.begin(t0).unwrap();
        let keep = s.insert(t0, seg, b"keep-v1").unwrap();
        let dead = s.insert(t0, seg, b"to-die").unwrap();
        s.commit(t0).unwrap();
        // A transaction that does all three kinds of damage, then aborts.
        let t1 = TxnId::new(2);
        s.begin(t1).unwrap();
        let fresh = s.insert(t1, seg, b"phantom").unwrap();
        s.update(t1, seg, keep, b"keep-v2").unwrap();
        s.delete(t1, seg, dead).unwrap();
        s.abort(t1).unwrap();
        // Everything is as before t1.
        assert!(s.get(seg, fresh).is_err(), "inserted row must vanish");
        assert_eq!(s.get(seg, keep).unwrap(), b"keep-v1");
        assert_eq!(s.get(seg, dead).unwrap(), b"to-die");
    }

    /// Abort reads the log from the transaction's first write, not from
    /// the base: behind 5 000 committed transactions, a 3-write abort
    /// decodes only its own frames and writes the CLRs a full scan did.
    #[test]
    fn abort_scans_from_the_first_write_only() {
        use crate::wal::FRAMES_DECODED;
        let sm = sm();
        let seg = sm.create_segment("t").unwrap();
        let setup = TxnId::new(1);
        sm.begin(setup).unwrap();
        let kept = sm.insert(setup, seg, b"kept").unwrap();
        let doomed = sm.insert(setup, seg, b"doomed").unwrap();
        sm.commit(setup).unwrap();
        for n in 0..5_000u64 {
            let t = TxnId::new(2 + n);
            sm.begin(t).unwrap();
            sm.update(t, seg, kept, format!("v{n}").as_bytes()).unwrap();
            sm.commit(t).unwrap();
        }
        let t = TxnId::new(10_000);
        sm.begin(t).unwrap();
        let first_write = sm.wal().tail();
        let ins = sm.insert(t, seg, b"new").unwrap();
        sm.update(t, seg, kept, b"scribble").unwrap();
        sm.delete(t, seg, doomed).unwrap();
        let ops = sm.wal().scan_from(first_write).unwrap();
        assert_eq!(ops.len(), 3);
        let full = sm.wal().scan().unwrap();
        assert_eq!(
            ops,
            full[full.len() - 3..],
            "scan_from yields the same records, at the same LSNs, as the tail of a full scan"
        );

        let decoded_before = FRAMES_DECODED.with(|n| n.get());
        sm.abort(t).unwrap();
        assert_eq!(
            FRAMES_DECODED.with(|n| n.get()) - decoded_before,
            3,
            "abort decoded frames below the transaction's first write"
        );

        // Same CLRs as ever: newest operation first, each pointing at
        // the record it compensates, then the Abort record.
        let tail = sm.wal().scan_from(first_write).unwrap();
        let clr = |page, slot, restore: Option<&[u8]>, undo_next| WalRecord::Clr {
            txn: t,
            page,
            slot,
            restore: restore.map(<[u8]>::to_vec),
            undo_next,
        };
        let written: Vec<WalRecord> = tail[3..].iter().map(|(_, r)| r.clone()).collect();
        assert_eq!(
            written,
            vec![
                clr(doomed.page, doomed.slot, Some(b"doomed"), ops[2].0),
                clr(kept.page, kept.slot, Some(b"v4999"), ops[1].0),
                clr(ins.page, ins.slot, None, ops[0].0),
                WalRecord::Abort { txn: t },
            ]
        );
        assert_eq!(sm.get(seg, kept).unwrap(), b"v4999");
        assert_eq!(sm.get(seg, doomed).unwrap(), b"doomed");
        assert!(sm.get(seg, ins).is_err());

        // A live transaction with no write reads no log at all; one the
        // table does not know (crash-restart) falls back to a full scan.
        let r = TxnId::new(10_001);
        sm.begin(r).unwrap();
        let decoded_before = FRAMES_DECODED.with(|n| n.get());
        sm.abort(r).unwrap();
        assert_eq!(FRAMES_DECODED.with(|n| n.get()), decoded_before);
        sm.abort(TxnId::new(10_002)).unwrap();
        assert!(FRAMES_DECODED.with(|n| n.get()) - decoded_before > 15_000);
    }

    #[test]
    fn scan_reflects_transactional_state() {
        let s = sm();
        let seg = s.create_segment("t").unwrap();
        let txn = TxnId::new(1);
        s.begin(txn).unwrap();
        for i in 0..10 {
            s.insert(txn, seg, format!("row{i}").as_bytes()).unwrap();
        }
        s.commit(txn).unwrap();
        assert_eq!(s.scan(seg).unwrap().len(), 10);
    }

    #[test]
    fn read_only_commit_skips_the_force() {
        let s = sm();
        let seg = s.create_segment("t").unwrap();
        let w = TxnId::new(1);
        s.begin(w).unwrap();
        let rid = s.insert(w, seg, b"row").unwrap();
        s.commit(w).unwrap();
        s.metrics().enable();
        let forces_before = s.metrics().wal.forces.get();
        // Reads only: no bytes worth a sync.
        let r = TxnId::new(2);
        s.begin(r).unwrap();
        assert_eq!(s.get(seg, rid).unwrap(), b"row");
        s.commit(r).unwrap();
        assert_eq!(s.metrics().wal.forces.get(), forces_before);
        // A writer still pays (exactly one, via the sequencer).
        let w2 = TxnId::new(3);
        s.begin(w2).unwrap();
        s.update(w2, seg, rid, b"row2").unwrap();
        s.commit(w2).unwrap();
        assert_eq!(s.metrics().wal.forces.get(), forces_before + 1);
        // An aborted read-only txn is equally free.
        let r2 = TxnId::new(4);
        s.begin(r2).unwrap();
        s.abort(r2).unwrap();
        assert_eq!(s.metrics().wal.forces.get(), forces_before + 1);
    }

    #[test]
    fn catalog_round_trips() {
        let entries = sample_segments();
        let enc = encode_catalog(&entries, 7);
        let (dec, next) = decode_catalog(&enc).unwrap();
        assert_eq!(dec, entries);
        assert_eq!(next, 7);
    }

    #[test]
    fn catalog_decode_rejects_truncation() {
        let entries = vec![("alpha".to_string(), 1, vec![PageId::new(2)])];
        let enc = encode_catalog(&entries, 3);
        assert!(decode_catalog(&enc[..enc.len() - 3]).is_err());
    }

    /// An index insert logs about one entry, not one node: the logical
    /// record, the leaf record and the amortized split images stay
    /// under 512 bytes per insert (whole-node images cost ≈ 6 KB).
    #[test]
    fn an_index_insert_logs_about_one_entry() {
        let s = sm();
        let idx = s.create_index("i").unwrap();
        let t = TxnId::new(1);
        s.begin(t).unwrap();
        let before = s.wal().tail();
        for i in 0..2_000u64 {
            // 9-byte keys in scattered order, so splits land mid-tree.
            let key = format!("k{:08}", i * 7_919 % 2_000);
            assert!(s.index_insert(t, idx, key.as_bytes(), i).unwrap());
        }
        let per_insert = (s.wal().tail() - before) / 2_000;
        s.commit(t).unwrap();
        assert_eq!(s.index_len(idx).unwrap(), 2_000);
        assert!(per_insert <= 512, "{per_insert} B of log per index insert");
    }

    #[test]
    fn persistent_database_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("reach-sm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rid;
        {
            let s = StorageManager::open(&dir, 32).unwrap();
            let seg = s.create_segment("docs").unwrap();
            let txn = TxnId::new(1);
            s.begin(txn).unwrap();
            rid = s.insert(txn, seg, b"durable doc").unwrap();
            s.commit(txn).unwrap();
            s.checkpoint().unwrap();
        }
        let s = StorageManager::open(&dir, 32).unwrap();
        let seg = s.segment("docs").unwrap();
        assert_eq!(s.get(seg, rid).unwrap(), b"durable doc");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_catalog_round_trips() {
        let entries = sample_indexes();
        let enc = encode_index_catalog(&entries, 3);
        let (dec, next) = decode_index_catalog(&enc).unwrap();
        assert_eq!(dec, entries);
        assert_eq!(next, 3);
        assert!(decode_index_catalog(&enc[..enc.len() - 2]).is_err());
    }

    fn sample_segments() -> CatalogEntries {
        vec![
            ("alpha".to_string(), 1, vec![PageId::new(2), PageId::new(3)]),
            ("beta".to_string(), 2, vec![]),
        ]
    }

    fn sample_indexes() -> Vec<IndexEntry> {
        vec![
            IndexEntry {
                name: "idx.person.age".to_string(),
                id: 1,
                root: PageId::new(9),
                max_node_entries: 0,
            },
            IndexEntry {
                name: "idx.doc.title".to_string(),
                id: 2,
                root: PageId::new(12),
                max_node_entries: 4,
            },
        ]
    }

    /// FNV-1a 64 of `bytes`, to pin a format (see the WAL's twin).
    fn digest(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn segment_catalog_format_is_pinned() {
        assert_eq!(
            digest(&encode_catalog(&sample_segments(), 7)),
            0xd0dccd26cd16f55d
        );
    }

    #[test]
    fn index_catalog_format_is_pinned() {
        assert_eq!(
            digest(&encode_index_catalog(&sample_indexes(), 3)),
            0x9dd9e8562f73971d
        );
    }

    #[test]
    fn catalog_counts_the_page_cannot_hold_are_corruption() {
        let buf = [&7u64.to_le_bytes()[..], &u32::MAX.to_le_bytes()].concat();
        let got = decode_catalog(&buf);
        assert!(matches!(got, Err(ReachError::WalCorrupt(_))), "{got:?}");
        let got = decode_index_catalog(&buf);
        assert!(matches!(got, Err(ReachError::WalCorrupt(_))), "{got:?}");
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        /// A decoder may accept garbage, but may fail only as corruption.
        fn ok_or_corrupt<T>(got: Result<T>) -> bool {
            match got {
                Ok(_) => true,
                Err(e) => matches!(e, ReachError::WalCorrupt(_)),
            }
        }

        proptest! {
            #[test]
            fn garbage_catalogs_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
                prop_assert!(ok_or_corrupt(decode_catalog(&bytes)));
                prop_assert!(ok_or_corrupt(decode_index_catalog(&bytes)));
            }

            #[test]
            fn bit_flipped_catalogs_never_panic(
                at in any::<prop::sample::Index>(),
                bit in 0u8..8,
            ) {
                let mut segments = encode_catalog(&sample_segments(), 7);
                let i = at.index(segments.len());
                segments[i] ^= 1 << bit;
                prop_assert!(ok_or_corrupt(decode_catalog(&segments)));
                let mut indexes = encode_index_catalog(&sample_indexes(), 3);
                let i = at.index(indexes.len());
                indexes[i] ^= 1 << bit;
                prop_assert!(ok_or_corrupt(decode_index_catalog(&indexes)));
            }
        }
    }

    #[test]
    fn index_create_is_idempotent_by_name() {
        let s = sm();
        let a = s.create_index("idx.a").unwrap();
        let b = s.create_index("idx.a").unwrap();
        let c = s.create_index("idx.b").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let names = s.index_names().unwrap();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&("idx.a".to_string(), a)));
    }

    #[test]
    fn index_insert_lookup_delete_under_commit() {
        let s = sm();
        let idx = s.create_index("idx").unwrap();
        let txn = TxnId::new(1);
        s.begin(txn).unwrap();
        assert!(s.index_insert(txn, idx, b"alpha", 10).unwrap());
        assert!(s.index_insert(txn, idx, b"alpha", 11).unwrap());
        assert!(!s.index_insert(txn, idx, b"alpha", 10).unwrap());
        assert!(s.index_insert(txn, idx, b"beta", 20).unwrap());
        s.commit(txn).unwrap();
        assert_eq!(s.index_lookup(idx, b"alpha").unwrap(), vec![10, 11]);
        assert_eq!(s.index_len(idx).unwrap(), 3);
        let t2 = TxnId::new(2);
        s.begin(t2).unwrap();
        assert!(s.index_delete(t2, idx, b"alpha", 10).unwrap());
        assert!(!s.index_delete(t2, idx, b"alpha", 10).unwrap());
        s.commit(t2).unwrap();
        assert_eq!(s.index_lookup(idx, b"alpha").unwrap(), vec![11]);
        use std::ops::Bound;
        let all = s
            .index_range(idx, Bound::Unbounded, Bound::Unbounded)
            .unwrap();
        assert_eq!(all, vec![(b"alpha".to_vec(), 11), (b"beta".to_vec(), 20)]);
    }

    #[test]
    fn index_abort_rolls_back_inserts_and_deletes() {
        let s = sm();
        let idx = s.create_index_with("idx", Some(3)).unwrap();
        let t0 = TxnId::new(1);
        s.begin(t0).unwrap();
        for i in 0..20u64 {
            s.index_insert(t0, idx, format!("k{i:03}").as_bytes(), i)
                .unwrap();
        }
        s.commit(t0).unwrap();
        let before = s
            .index_range(idx, std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
            .unwrap();
        // A transaction that inserts (forcing splits at fanout 3) and
        // deletes, then aborts: logical undo must restore the exact set
        // even though the split page writes stay (they're SYSTEM_TXN).
        let t1 = TxnId::new(2);
        s.begin(t1).unwrap();
        for i in 100..140u64 {
            s.index_insert(t1, idx, format!("k{i:03}").as_bytes(), i)
                .unwrap();
        }
        for i in (0..20u64).step_by(2) {
            s.index_delete(t1, idx, format!("k{i:03}").as_bytes(), i)
                .unwrap();
        }
        s.abort(t1).unwrap();
        let after = s
            .index_range(idx, std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
            .unwrap();
        assert_eq!(after, before);
    }

    #[test]
    fn index_survives_crash_reopen() {
        let disk: Arc<dyn StableStorage> = Arc::new(MemDisk::new());
        let wal = Arc::new(WriteAheadLog::in_memory());
        let (s, _) = StorageManager::open_with(Arc::clone(&disk), Arc::clone(&wal), 64).unwrap();
        let idx = s.create_index_with("idx", Some(4)).unwrap();
        let t = TxnId::new(1);
        s.begin(t).unwrap();
        for i in 0..50u64 {
            s.index_insert(t, idx, format!("key{i:04}").as_bytes(), i)
                .unwrap();
        }
        s.commit(t).unwrap();
        // A loser in flight at the crash: must be undone on reopen.
        let loser = TxnId::new(2);
        s.begin(loser).unwrap();
        s.index_insert(loser, idx, b"phantom", 999).unwrap();
        s.index_delete(loser, idx, b"key0007", 7).unwrap();
        // Crash: reopen over the surviving device and log image. Nothing
        // was checkpointed, so redo replays every tree page write.
        let wal2 = Arc::new(WriteAheadLog::in_memory_from(wal.image().unwrap()));
        let (s2, report) = StorageManager::open_with(disk, wal2, 64).unwrap();
        assert_eq!(report.losers, vec![loser]);
        let idx2 = s2
            .index_names()
            .unwrap()
            .into_iter()
            .find(|(n, _)| n == "idx")
            .map(|(_, id)| id)
            .unwrap();
        assert_eq!(idx2, idx);
        assert_eq!(s2.index_len(idx2).unwrap(), 50);
        assert!(s2.index_lookup(idx2, b"phantom").unwrap().is_empty());
        assert_eq!(s2.index_lookup(idx2, b"key0007").unwrap(), vec![7]);
    }

    /// Fault `n` fresh pages through the pool, twice over, so the clock
    /// evicts every unpinned resident frame.
    fn cycle_pool(s: &StorageManager, fresh: &[PageId]) {
        for _ in 0..2 {
            for pid in fresh {
                s.pool().with_page(*pid, |_| ()).unwrap();
            }
        }
    }

    /// A store with one committed row, plus `n` never-written pages to
    /// cycle through its `frames`-frame pool.
    fn one_row(frames: usize, n: usize) -> (StorageManager, SegmentId, RecordId, Vec<PageId>) {
        let s = StorageManager::new_in_memory(frames).unwrap();
        let seg = s.create_segment("t").unwrap();
        let t = TxnId::new(1);
        s.begin(t).unwrap();
        let rid = s.insert(t, seg, b"committed").unwrap();
        s.commit(t).unwrap();
        let fresh = (0..n).map(|_| s.pool().allocate().unwrap()).collect();
        (s, seg, rid, fresh)
    }

    /// A dirty page whose records the log already holds durably is
    /// written back without a force, however far the tail has moved.
    #[test]
    fn evicting_a_page_below_the_forced_lsn_forces_nothing() {
        let (s, _, rid, fresh) = one_row(3, 4);
        s.begin(TxnId::new(2)).unwrap();
        let forced = s.wal().forced_lsn();
        assert!(
            s.wal().tail() > forced,
            "an unforced record sits at the tail"
        );
        let page_lsn = s.pool().with_page(rid.page, |pg| pg.lsn()).unwrap();
        assert!(page_lsn > 0 && page_lsn <= forced);
        s.metrics().enable();
        let (forces, writebacks) = (s.metrics().wal.forces.get(), s.pool().stats().writebacks);
        cycle_pool(&s, &fresh);
        assert!(
            s.pool().stats().writebacks > writebacks,
            "the row's page was written back"
        );
        assert_eq!(s.metrics().wal.forces.get(), forces);
        assert_eq!(s.wal().forced_lsn(), forced);
        let on_disk = s.pool().disk().read(rid.page).unwrap();
        assert_eq!(on_disk.get(rid.slot).unwrap(), b"committed");
    }

    /// A dirty page stamped past the forced LSN costs one force, which
    /// covers the page's LSN — and only stands in for records appended
    /// before it: the next record stays unforced until its own commit.
    #[test]
    fn evicting_a_page_above_the_forced_lsn_forces_up_to_it() {
        let (s, seg, rid, fresh) = one_row(3, 4);
        let t = TxnId::new(2);
        s.begin(t).unwrap();
        s.update(t, seg, rid, b"uncommitted").unwrap();
        let page_lsn = s.pool().with_page(rid.page, |pg| pg.lsn()).unwrap();
        assert_eq!(page_lsn, s.wal().tail(), "stamped with its record's end");
        assert!(s.wal().forced_lsn() < page_lsn);
        s.metrics().enable();
        let forces = s.metrics().wal.forces.get();
        cycle_pool(&s, &fresh);
        assert_eq!(s.metrics().wal.forces.get(), forces + 1);
        assert!(s.wal().forced_lsn() >= page_lsn);
        let durable = WriteAheadLog::in_memory_from(s.wal().durable_image().unwrap());
        assert!(durable
            .scan()
            .unwrap()
            .iter()
            .any(|(_, r)| matches!(r, WalRecord::Update { after, .. } if after == b"uncommitted")));
        s.update(t, seg, rid, b"later").unwrap();
        assert!(s.wal().forced_lsn() < s.wal().tail());
        s.commit(t).unwrap();
        assert_eq!(s.metrics().wal.forces.get(), forces + 2);
        assert_eq!(s.wal().forced_lsn(), s.wal().tail());
    }

    /// Regression: an update once changed its page, released the latch
    /// and only then appended its record. An eviction in that window
    /// forced a log that did not hold the record yet and wrote the new
    /// image — after a crash the change was on disk with no record to
    /// undo it. Here the update's append stalls while another thread
    /// cycles a 3-frame pool; at no point may the device hold the new
    /// image while the durable log lacks its record.
    #[test]
    fn a_stalled_append_cannot_leak_its_page_to_disk() {
        use reach_common::fault::{FaultInjector, FaultPlan, FaultPoint};
        let (s, seg, rid, fresh) = one_row(3, 4);
        let t = TxnId::new(2);
        s.begin(t).unwrap();
        let inj = FaultInjector::new(FaultPlan::new().stall_at(FaultPoint::WalAppend, 1, 300));
        s.wal().set_injector(Arc::clone(&inj));
        let leaked = |s: &StorageManager| {
            let on_disk = s.pool().disk().read(rid.page).unwrap();
            let durable = WriteAheadLog::in_memory_from(s.wal().durable_image().unwrap());
            let logged =
                durable.scan().unwrap().iter().any(
                    |(_, r)| matches!(r, WalRecord::Update { after, .. } if after == b"changed"),
                );
            on_disk.get(rid.slot).ok() == Some(&b"changed"[..]) && !logged
        };
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| s.update(t, seg, rid, b"changed"));
            // The writer is inside its stalled append from here on.
            while inj.hits(FaultPoint::WalAppend) == 0 {
                std::thread::yield_now();
            }
            cycle_pool(&s, &fresh);
            assert!(!leaked(&s), "page image on disk ahead of its log record");
            writer.join().unwrap().unwrap();
        });
        cycle_pool(&s, &fresh);
        assert!(!leaked(&s));
        assert_eq!(s.get(seg, rid).unwrap(), b"changed");
    }
}
