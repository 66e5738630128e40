//! The write-ahead log.
//!
//! Physiological logging: each record names a page and slot plus the
//! before/after payload images, so redo is `put_at(slot, after)` and undo
//! is `put_at(slot, before)` / `delete(slot)` regardless of where the
//! bytes physically sit on the page after compaction. A B-link leaf
//! edit names its page and the one `(key, oid)` pair it spliced in or
//! out ([`WalRecord::LeafInsert`] / [`WalRecord::LeafRemove`]). Redo
//! applies a page record only to a page whose LSN is below the record's
//! end (see [`crate::recovery`]), so a splice is replayed exactly once.
//!
//! Frames on the log are `len(u32) | fnv1a(u32) | payload`, so a torn
//! tail (crash mid-append) is detected and cleanly ignored by replay.
//!
//! Durability is provided by a **group-commit sequencer**: committers
//! publish their record with [`WriteAheadLog::append`], then call
//! [`WriteAheadLog::force_up_to`] with the end offset of that record.
//! One caller becomes the *leader*: it captures the tail and at once
//! issues a single `sync_data` that covers everyone appended so far.
//! The rest are *followers* that sleep on the sequencer's condvar
//! until the forced LSN passes their record. No timer forms a batch:
//! the records appended while one sync runs form the next group, whose
//! first awakened follower leads it. Requests already behind the
//! forced LSN (read-only commits, back-to-back forces) return without
//! syncing at all.
//!
//! **Truncation.** The checkpointer bounds the log by calling
//! [`WriteAheadLog::truncate_prefix`] with a cut LSN below which no
//! record is needed for redo or undo. LSNs are *logical* and never
//! reused: the first 8 bytes of the log store the base LSN (the LSN of
//! the first surviving frame), so a record's physical offset is
//! `lsn - base + 8`. A fresh log has `base == FIRST_LSN` and the header
//! byte-for-byte compatible with the pre-truncation format (whose
//! reserved zero header decodes as `FIRST_LSN`). File-backed logs
//! truncate crash-atomically: the retained tail is written to a temp
//! file, synced, and renamed over the log.

use crate::sm::SYSTEM_TXN;
use reach_common::codec::{put_bytes, put_u16, put_u32, put_u64, Reader};
use reach_common::fault::{FaultInjector, FaultPoint, WriteOutcome};
use reach_common::obs::Stage;
use reach_common::sync::{Condvar, Mutex};
use reach_common::{MetricsRegistry, PageId, ReachError, Result, TxnId};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Log sequence number: byte offset of the record's frame on the log.
/// LSN 0 is reserved as "nil" (pages start with `lsn = 0`), so the first
/// real frame is written at offset [`FIRST_LSN`].
pub type Lsn = u64;

/// Offset of the first frame. Leaving byte 0 unused keeps `Lsn = 0`
/// unambiguous as "never touched by any logged operation".
pub const FIRST_LSN: Lsn = 8;

/// Everything the storage layer ever logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Transaction start.
    Begin {
        /// The starting transaction.
        txn: TxnId,
    },
    /// Transaction successfully committed (log forced first).
    Commit {
        /// The committing transaction.
        txn: TxnId,
    },
    /// Transaction rolled back (all undo already applied).
    Abort {
        /// The aborting transaction.
        txn: TxnId,
    },
    /// A record was inserted at (page, slot).
    Insert {
        /// The inserting transaction.
        txn: TxnId,
        /// Page the record landed on.
        page: PageId,
        /// Slot within the page.
        slot: u16,
        /// The inserted bytes (the redo image; undo deletes the slot).
        payload: Vec<u8>,
    },
    /// A record was updated in place.
    Update {
        /// The updating transaction.
        txn: TxnId,
        /// Page holding the record.
        page: PageId,
        /// Slot within the page.
        slot: u16,
        /// Pre-update bytes (the undo image).
        before: Vec<u8>,
        /// Post-update bytes (the redo image).
        after: Vec<u8>,
    },
    /// A record was deleted; `before` is kept for undo.
    Delete {
        /// The deleting transaction.
        txn: TxnId,
        /// Page the record lived on.
        page: PageId,
        /// Slot within the page.
        slot: u16,
        /// The deleted bytes (the undo image).
        before: Vec<u8>,
    },
    /// Compensation record: the redo image of an undo step. `undo_next`
    /// points at the next record of the same txn still to be undone.
    Clr {
        /// The transaction being rolled back.
        txn: TxnId,
        /// Page the undo step touched.
        page: PageId,
        /// Slot within the page.
        slot: u16,
        /// `Some(image)` restores the image; `None` deletes the slot.
        restore: Option<Vec<u8>>,
        /// LSN of the next record of the same txn still to be undone.
        undo_next: Lsn,
    },
    /// Logical index insertion: `(key, oid)` entered `index` on behalf
    /// of `txn`. Redo is a no-op (the B+Tree's page writes are logged
    /// physically under the system transaction and replayed there);
    /// undo re-descends the *current* tree and deletes the pair, so
    /// structure changes (splits) made on the way in never need
    /// physical undo.
    IndexInsert {
        /// The inserting transaction.
        txn: TxnId,
        /// The index the pair entered (catalog id).
        index: u64,
        /// Memcomparable key bytes.
        key: Vec<u8>,
        /// The indexed object/record id.
        oid: u64,
    },
    /// Logical index deletion: `(key, oid)` left `index` on behalf of
    /// `txn`. Undo re-inserts the pair through the current tree.
    IndexDelete {
        /// The deleting transaction.
        txn: TxnId,
        /// The index the pair left (catalog id).
        index: u64,
        /// Memcomparable key bytes.
        key: Vec<u8>,
        /// The indexed object/record id.
        oid: u64,
    },
    /// Compensation record for one undone logical index operation.
    /// Carries no image: the compensating tree mutation is logged
    /// physically under the system transaction, and re-applying a
    /// logical undo is idempotent (set semantics), so restart-undo
    /// only needs the progress count.
    IndexClr {
        /// The transaction being rolled back.
        txn: TxnId,
        /// LSN of the next record of the same txn still to be undone.
        undo_next: Lsn,
    },
    /// B-link leaf edit: `(key, oid)` was spliced into the leaf node in
    /// slot 0 of `page`. A system page change like the tree's full node
    /// images: redone when the page's LSN shows it missing, undone only
    /// when its own append fails (the transaction's logical
    /// [`WalRecord::IndexInsert`] carries undo).
    LeafInsert {
        /// The leaf's page.
        page: PageId,
        /// Memcomparable key bytes.
        key: Vec<u8>,
        /// The indexed object/record id.
        oid: u64,
    },
    /// B-link leaf edit: `(key, oid)` was spliced out of the leaf node in
    /// slot 0 of `page`. See [`WalRecord::LeafInsert`].
    LeafRemove {
        /// The leaf's page.
        page: PageId,
        /// Memcomparable key bytes.
        key: Vec<u8>,
        /// The indexed object/record id.
        oid: u64,
    },
    /// Start of a fuzzy checkpoint. Appended before the checkpointer
    /// gathers its tables; its LSN anchors the truncation cut so the
    /// Begin/End pair itself always survives truncation.
    BeginCheckpoint,
    /// End of a fuzzy checkpoint: the dirty-page table (page → recovery
    /// LSN: earliest record that may not be reflected on disk) and the
    /// active *writer* table (txn → first-write LSN) captured since the
    /// matching [`WalRecord::BeginCheckpoint`].
    EndCheckpoint {
        /// Dirty pages still in the buffer pool with their rec LSNs.
        dirty: Vec<(PageId, Lsn)>,
        /// Active writing transactions with their first-write LSNs.
        active: Vec<(TxnId, Lsn)>,
    },
    /// Two-phase commit: the participant has force-logged everything it
    /// needs to commit `txn` and is now *in doubt*, bound by the
    /// coordinator's decision for global transaction `gid`. Recovery
    /// treats a prepared-but-undecided txn as neither winner nor loser
    /// until the coordinator log resolves it (presumed abort: no
    /// decision record means abort).
    Prepare {
        /// The prepared local transaction.
        txn: TxnId,
        /// The global transaction id assigned by the coordinator.
        gid: u64,
    },
    /// Coordinator log only: the global transaction committed. Forced
    /// before any participant is told to commit; its absence after a
    /// crash means the global transaction aborted (presumed abort).
    CoordCommit {
        /// The committed global transaction id.
        gid: u64,
        /// Participant shard ids, for audit and resolution.
        participants: Vec<u32>,
    },
    /// Coordinator log only: the global transaction aborted. Written
    /// lazily (presumed abort makes it advisory, not required), but it
    /// lets resolution answer without waiting for doubt to expire.
    CoordAbort {
        /// The aborted global transaction id.
        gid: u64,
    },
}

impl WalRecord {
    /// The transaction a record belongs to (checkpoints belong to none,
    /// leaf edits to the system transaction).
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            WalRecord::LeafInsert { .. } | WalRecord::LeafRemove { .. } => Some(SYSTEM_TXN),
            WalRecord::Begin { txn }
            | WalRecord::Commit { txn }
            | WalRecord::Abort { txn }
            | WalRecord::Insert { txn, .. }
            | WalRecord::Update { txn, .. }
            | WalRecord::Delete { txn, .. }
            | WalRecord::Clr { txn, .. }
            | WalRecord::IndexInsert { txn, .. }
            | WalRecord::IndexDelete { txn, .. }
            | WalRecord::IndexClr { txn, .. }
            | WalRecord::Prepare { txn, .. } => Some(*txn),
            WalRecord::BeginCheckpoint
            | WalRecord::EndCheckpoint { .. }
            | WalRecord::CoordCommit { .. }
            | WalRecord::CoordAbort { .. } => None,
        }
    }

    /// The page a record changes, if it changes one.
    pub fn page(&self) -> Option<PageId> {
        match self {
            WalRecord::Insert { page, .. }
            | WalRecord::Update { page, .. }
            | WalRecord::Delete { page, .. }
            | WalRecord::Clr { page, .. }
            | WalRecord::LeafInsert { page, .. }
            | WalRecord::LeafRemove { page, .. } => Some(*page),
            _ => None,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        // The head every page-image record shares.
        fn put_target(out: &mut Vec<u8>, txn: &TxnId, page: &PageId, slot: u16) {
            put_u64(out, txn.raw());
            put_u64(out, page.raw());
            put_u16(out, slot);
        }
        fn put_leaf(out: &mut Vec<u8>, tag: u8, page: &PageId, key: &[u8], oid: u64) {
            out.push(tag);
            put_u64(out, page.raw());
            put_u64(out, oid);
            put_bytes(out, key);
        }
        match self {
            WalRecord::Begin { txn } => {
                out.push(1);
                put_u64(&mut out, txn.raw());
            }
            WalRecord::Commit { txn } => {
                out.push(2);
                put_u64(&mut out, txn.raw());
            }
            WalRecord::Abort { txn } => {
                out.push(3);
                put_u64(&mut out, txn.raw());
            }
            WalRecord::Insert {
                txn,
                page,
                slot,
                payload,
            } => {
                out.push(4);
                put_target(&mut out, txn, page, *slot);
                put_bytes(&mut out, payload);
            }
            WalRecord::Update {
                txn,
                page,
                slot,
                before,
                after,
            } => {
                out.push(5);
                put_target(&mut out, txn, page, *slot);
                put_bytes(&mut out, before);
                put_bytes(&mut out, after);
            }
            WalRecord::Delete {
                txn,
                page,
                slot,
                before,
            } => {
                out.push(6);
                put_target(&mut out, txn, page, *slot);
                put_bytes(&mut out, before);
            }
            WalRecord::Clr {
                txn,
                page,
                slot,
                restore,
                undo_next,
            } => {
                out.push(7);
                put_target(&mut out, txn, page, *slot);
                put_u64(&mut out, *undo_next);
                match restore {
                    Some(img) => {
                        out.push(1);
                        put_bytes(&mut out, img);
                    }
                    None => out.push(0),
                }
            }
            WalRecord::IndexInsert {
                txn,
                index,
                key,
                oid,
            } => {
                out.push(10);
                put_u64(&mut out, txn.raw());
                put_u64(&mut out, *index);
                put_u64(&mut out, *oid);
                put_bytes(&mut out, key);
            }
            WalRecord::IndexDelete {
                txn,
                index,
                key,
                oid,
            } => {
                out.push(11);
                put_u64(&mut out, txn.raw());
                put_u64(&mut out, *index);
                put_u64(&mut out, *oid);
                put_bytes(&mut out, key);
            }
            WalRecord::LeafInsert { page, key, oid } => put_leaf(&mut out, 16, page, key, *oid),
            WalRecord::LeafRemove { page, key, oid } => put_leaf(&mut out, 17, page, key, *oid),
            WalRecord::IndexClr { txn, undo_next } => {
                out.push(12);
                put_u64(&mut out, txn.raw());
                put_u64(&mut out, *undo_next);
            }
            WalRecord::BeginCheckpoint => {
                out.push(8);
            }
            WalRecord::EndCheckpoint { dirty, active } => {
                out.push(9);
                put_u32(&mut out, dirty.len() as u32);
                for (p, rec_lsn) in dirty {
                    put_u64(&mut out, p.raw());
                    put_u64(&mut out, *rec_lsn);
                }
                put_u32(&mut out, active.len() as u32);
                for (t, first_lsn) in active {
                    put_u64(&mut out, t.raw());
                    put_u64(&mut out, *first_lsn);
                }
            }
            WalRecord::Prepare { txn, gid } => {
                out.push(13);
                put_u64(&mut out, txn.raw());
                put_u64(&mut out, *gid);
            }
            WalRecord::CoordCommit { gid, participants } => {
                out.push(14);
                put_u64(&mut out, *gid);
                put_u32(&mut out, participants.len() as u32);
                for p in participants {
                    put_u32(&mut out, *p);
                }
            }
            WalRecord::CoordAbort { gid } => {
                out.push(15);
                put_u64(&mut out, *gid);
            }
        }
        out
    }

    fn decode(buf: &[u8]) -> Result<Self> {
        let mut c = Reader::new(buf, ReachError::WalCorrupt);
        let kind = c.u8()?;
        let rec = match kind {
            1 => WalRecord::Begin {
                txn: TxnId::new(c.u64()?),
            },
            2 => WalRecord::Commit {
                txn: TxnId::new(c.u64()?),
            },
            3 => WalRecord::Abort {
                txn: TxnId::new(c.u64()?),
            },
            4 => WalRecord::Insert {
                txn: TxnId::new(c.u64()?),
                page: PageId::new(c.u64()?),
                slot: c.u16()?,
                payload: c.bytes()?.to_vec(),
            },
            5 => WalRecord::Update {
                txn: TxnId::new(c.u64()?),
                page: PageId::new(c.u64()?),
                slot: c.u16()?,
                before: c.bytes()?.to_vec(),
                after: c.bytes()?.to_vec(),
            },
            6 => WalRecord::Delete {
                txn: TxnId::new(c.u64()?),
                page: PageId::new(c.u64()?),
                slot: c.u16()?,
                before: c.bytes()?.to_vec(),
            },
            7 => {
                let txn = TxnId::new(c.u64()?);
                let page = PageId::new(c.u64()?);
                let slot = c.u16()?;
                let undo_next = c.u64()?;
                let restore = if c.u8()? == 1 {
                    Some(c.bytes()?.to_vec())
                } else {
                    None
                };
                WalRecord::Clr {
                    txn,
                    page,
                    slot,
                    restore,
                    undo_next,
                }
            }
            10 => WalRecord::IndexInsert {
                txn: TxnId::new(c.u64()?),
                index: c.u64()?,
                oid: c.u64()?,
                key: c.bytes()?.to_vec(),
            },
            11 => WalRecord::IndexDelete {
                txn: TxnId::new(c.u64()?),
                index: c.u64()?,
                oid: c.u64()?,
                key: c.bytes()?.to_vec(),
            },
            12 => WalRecord::IndexClr {
                txn: TxnId::new(c.u64()?),
                undo_next: c.u64()?,
            },
            16 | 17 => {
                let page = PageId::new(c.u64()?);
                let oid = c.u64()?;
                let key = c.bytes()?.to_vec();
                if kind == 16 {
                    WalRecord::LeafInsert { page, key, oid }
                } else {
                    WalRecord::LeafRemove { page, key, oid }
                }
            }
            8 => WalRecord::BeginCheckpoint,
            9 => {
                // Every table entry is two u64s.
                let nd = c.count(16)?;
                let mut dirty = Vec::with_capacity(nd);
                for _ in 0..nd {
                    dirty.push((PageId::new(c.u64()?), c.u64()?));
                }
                let na = c.count(16)?;
                let mut active = Vec::with_capacity(na);
                for _ in 0..na {
                    active.push((TxnId::new(c.u64()?), c.u64()?));
                }
                WalRecord::EndCheckpoint { dirty, active }
            }
            13 => WalRecord::Prepare {
                txn: TxnId::new(c.u64()?),
                gid: c.u64()?,
            },
            14 => {
                let gid = c.u64()?;
                let n = c.count(4)?;
                let mut participants = Vec::with_capacity(n);
                for _ in 0..n {
                    participants.push(c.u32()?);
                }
                WalRecord::CoordCommit { gid, participants }
            }
            15 => WalRecord::CoordAbort { gid: c.u64()? },
            k => return Err(c.error(format!("unknown record kind {k}"))),
        };
        c.finish()?;
        Ok(rec)
    }
}

fn fnv1a(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x01000193);
    }
    h
}

#[cfg(test)]
thread_local! {
    /// Frames decoded by scans on this thread — lets a unit test assert
    /// how much of the log an operation actually read.
    pub(crate) static FRAMES_DECODED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

enum Sink {
    Mem(Vec<u8>),
    /// The file sits behind an `Arc` so a force can sync it outside
    /// the sink lock without duplicating the descriptor.
    File {
        file: Arc<File>,
        len: u64,
        path: PathBuf,
    },
}

/// The sink plus every counter that must move atomically with it.
/// `unforced` lives under the same lock as the bytes themselves so a
/// concurrent force can never sync an append's bytes and then watch the
/// append add them to the counter afterwards.
struct SinkState {
    sink: Sink,
    /// Bytes appended but not yet forced.
    unforced: u64,
    /// LSN of the first surviving frame (== the value persisted in the
    /// 8-byte log header). Physical offset of `lsn` is
    /// `lsn - base + FIRST_LSN`.
    base: Lsn,
    /// When set (oracle runs), bytes dropped by truncation are retained
    /// here so [`WriteAheadLog::scan_all`] can reconstruct the full
    /// append history.
    archive: Option<Vec<u8>>,
}

impl SinkState {
    /// Physical length of the sink in bytes (header included).
    fn phys_len(&self) -> u64 {
        match &self.sink {
            Sink::Mem(buf) => buf.len() as u64,
            Sink::File { len, .. } => *len,
        }
    }

    /// Logical tail LSN (== next LSN to be assigned).
    fn tail(&self) -> Lsn {
        self.base + (self.phys_len() - FIRST_LSN)
    }
}

/// Decode a log header into its base LSN. The pre-truncation format
/// reserved these bytes as zero, which decodes as [`FIRST_LSN`].
fn parse_base(header: &[u8]) -> Lsn {
    let raw = u64::from_le_bytes(header[..8].try_into().unwrap());
    if raw == 0 {
        FIRST_LSN
    } else {
        raw
    }
}

/// Commit-sequencer state, guarded by its own mutex (never held across
/// the sync itself — followers park on the condvar while the leader
/// syncs, holding no lock).
struct GroupState {
    /// Log tail (byte offset) covered by the last successful force:
    /// every byte below this offset is durable.
    forced_lsn: Lsn,
    /// Whether a leader is currently inside its sync.
    forcing: bool,
}

/// What a salvage scan found on the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Every complete, checksum-valid frame, in log order.
    pub records: Vec<(Lsn, WalRecord)>,
    /// Trailing bytes discarded because they did not form a complete,
    /// checksum-valid frame — the torn tail of a mid-append crash.
    pub salvaged_bytes: u64,
    /// The LSN just past the last record: the end of the last frame in
    /// `records`, each earlier record ending where the next begins.
    pub end: Lsn,
}

/// An append-only, crash-consistent log of [`WalRecord`]s.
pub struct WriteAheadLog {
    sink: Mutex<SinkState>,
    /// Commit sequencer (see module docs).
    group: Mutex<GroupState>,
    /// Followers wait here for the leader's sync to cover their record.
    group_cv: Condvar,
    /// Optional fault injector consulted on every append/force.
    injector: Mutex<Option<Arc<FaultInjector>>>,
    /// Optional shared registry; appends and forces record into it
    /// when observability is enabled.
    metrics: Mutex<Option<Arc<MetricsRegistry>>>,
}

impl WriteAheadLog {
    /// A log held entirely in memory (tests, benchmarks).
    pub fn in_memory() -> Self {
        Self::in_memory_from(FIRST_LSN.to_le_bytes().to_vec())
    }

    /// An in-memory log rebuilt from a raw byte image — the torture
    /// harness's "reboot": the image captured at crash time becomes the
    /// surviving log of the restarted system. Surviving bytes are by
    /// definition durable, so the forced LSN starts at the image tail.
    pub fn in_memory_from(mut image: Vec<u8>) -> Self {
        if image.len() < FIRST_LSN as usize {
            image.resize(FIRST_LSN as usize, 0);
        }
        let base = parse_base(&image);
        let forced = base + (image.len() as u64 - FIRST_LSN);
        WriteAheadLog {
            sink: Mutex::new(SinkState {
                sink: Sink::Mem(image),
                unforced: 0,
                base,
                archive: None,
            }),
            group: Mutex::new(GroupState {
                forced_lsn: forced,
                forcing: false,
            }),
            group_cv: Condvar::new(),
            injector: Mutex::new(None),
            metrics: Mutex::new(None),
        }
    }

    /// A log backed by a file, appending after any existing records.
    pub fn open(path: &Path) -> Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut len = file.metadata()?.len();
        if len < FIRST_LSN {
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&FIRST_LSN.to_le_bytes())?;
            len = FIRST_LSN;
        }
        let mut header = [0u8; FIRST_LSN as usize];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut header)?;
        let base = parse_base(&header);
        let forced = base + (len - FIRST_LSN);
        Ok(WriteAheadLog {
            sink: Mutex::new(SinkState {
                sink: Sink::File {
                    file: Arc::new(file),
                    len,
                    path: path.to_path_buf(),
                },
                unforced: 0,
                base,
                archive: None,
            }),
            group: Mutex::new(GroupState {
                forced_lsn: forced,
                forcing: false,
            }),
            group_cv: Condvar::new(),
            injector: Mutex::new(None),
            metrics: Mutex::new(None),
        })
    }

    /// Attach a fault injector: every `append` checks `WalAppend` and
    /// every `force` checks `WalForce` before touching the sink.
    pub fn set_injector(&self, injector: Arc<FaultInjector>) {
        *self.injector.lock() = Some(injector);
    }

    fn injector(&self) -> Option<Arc<FaultInjector>> {
        self.injector.lock().clone()
    }

    /// Attach the shared metrics registry (same pattern as the fault
    /// injector): appends count records/bytes and forces record a
    /// [`Stage::WalForce`] span, all gated on the registry switch.
    pub fn set_metrics(&self, metrics: Arc<MetricsRegistry>) {
        *self.metrics.lock() = Some(metrics);
    }

    fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.metrics.lock().clone()
    }

    /// The raw byte image of the whole log (frames plus any torn tail).
    pub fn image(&self) -> Result<Vec<u8>> {
        match &mut self.sink.lock().sink {
            Sink::Mem(buf) => Ok(buf.clone()),
            Sink::File { file, len, .. } => {
                let mut buf = vec![0u8; *len as usize];
                (&**file).seek(SeekFrom::Start(0))?;
                (&**file).read_exact(&mut buf)?;
                Ok(buf)
            }
        }
    }

    /// The byte image a crash would actually leave behind: the log
    /// truncated at the last successful force. `image()` on a memory
    /// sink keeps unforced bytes (the append-crash sweep models its
    /// own torn tails); this accessor models losing them, which is
    /// what the force-crash torture needs.
    pub fn durable_image(&self) -> Result<Vec<u8>> {
        // Read forced first: it only grows, and the prefix it covered
        // can never be truncated (the cut is always below it).
        let forced = self.forced_lsn();
        let mut image = self.image()?;
        let base = parse_base(&image);
        let durable = (forced.max(base) - base + FIRST_LSN) as usize;
        if image.len() > durable {
            image.truncate(durable);
        }
        Ok(image)
    }

    /// Append a record, returning its LSN. The record is buffered; call
    /// [`WriteAheadLog::force`] (or [`WriteAheadLog::force_up_to`] with
    /// the end offset from [`WriteAheadLog::append_bounded`]) to make
    /// it durable.
    pub fn append(&self, rec: &WalRecord) -> Result<Lsn> {
        self.append_bounded(rec).map(|(lsn, _)| lsn)
    }

    /// Append a record, returning `(lsn, end)`: its start offset and
    /// the offset just past its frame. `end` is the precise
    /// [`WriteAheadLog::force_up_to`] target that makes this record
    /// durable — committers publish, then wait on exactly their own
    /// record instead of whatever the tail has grown to.
    pub fn append_bounded(&self, rec: &WalRecord) -> Result<(Lsn, Lsn)> {
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        // Fault window: a torn append persists a byte-precise prefix of
        // the frame (the crash tore the write); a failed one persists
        // nothing at all.
        if let Some(inj) = self.injector() {
            match inj.check(FaultPoint::WalAppend) {
                WriteOutcome::Proceed => {}
                WriteOutcome::Fail => {
                    return Err(ReachError::Io("injected fault at wal_append".into()))
                }
                WriteOutcome::Torn { keep } => {
                    let keep = keep.min(frame.len().saturating_sub(1));
                    Self::write_raw(&mut self.sink.lock(), &frame[..keep])?;
                    return Err(ReachError::Io(format!(
                        "injected torn wal_append: {keep} of {} bytes persisted",
                        frame.len()
                    )));
                }
                WriteOutcome::Stall { millis } => {
                    std::thread::sleep(std::time::Duration::from_millis(millis));
                }
            }
        }
        let (lsn, end) = {
            let mut st = self.sink.lock();
            let lsn = Self::write_raw(&mut st, &frame)?;
            // Under the sink lock: a force captures the tail and the
            // counter under the same lock, so it either sees these bytes
            // in both (and later subtracts them) or in neither.
            st.unforced += frame.len() as u64;
            (lsn, lsn + frame.len() as u64)
        };
        if let Some(m) = self.metrics() {
            if m.on() {
                m.wal.appends.inc();
                m.wal.append_bytes.add(frame.len() as u64);
            }
        }
        Ok((lsn, end))
    }

    /// Append raw bytes to the sink, returning the LSN they start at.
    fn write_raw(st: &mut SinkState, bytes: &[u8]) -> Result<Lsn> {
        let lsn = st.tail();
        match &mut st.sink {
            Sink::Mem(buf) => {
                buf.extend_from_slice(bytes);
            }
            Sink::File { file, len, .. } => {
                (&**file).seek(SeekFrom::Start(*len))?;
                (&**file).write_all(bytes)?;
                *len += bytes.len() as u64;
            }
        }
        Ok(lsn)
    }

    /// Force all records appended so far to stable storage (WAL rule:
    /// called before a commit is acknowledged and before a dirty page
    /// is written whose changes it describes). Routed through the group
    /// sequencer: if a concurrent force already covered the current
    /// tail this returns without syncing.
    pub fn force(&self) -> Result<()> {
        let target = self.tail();
        self.force_up_to(target)
    }

    /// Make every byte at offset `< target` durable. This is the commit
    /// sequencer: the fast path returns when the forced LSN already
    /// covers `target`; otherwise one caller leads a single sync for
    /// every record appended since the last force while the rest wait
    /// as followers.
    pub fn force_up_to(&self, target: Lsn) -> Result<()> {
        let mut waited = false;
        loop {
            let mut g = self.group.lock();
            if g.forced_lsn >= target {
                if let Some(m) = self.metrics().filter(|m| m.on()) {
                    if waited {
                        m.wal.force_piggybacks.inc();
                    } else {
                        m.wal.force_skips.inc();
                    }
                }
                return Ok(());
            }
            if g.forcing {
                // Follower: a leader is syncing; park until it finishes,
                // then re-check (its sync may predate our record, or it
                // may have failed — in which case we take the lead).
                self.group_cv.wait(&mut g);
                waited = true;
                continue;
            }
            // Become the leader for everything appended so far.
            g.forcing = true;
            drop(g);
            let synced = self.sync_sink();
            let mut g = self.group.lock();
            g.forcing = false;
            if let Ok(tail) = synced {
                if tail > g.forced_lsn {
                    g.forced_lsn = tail;
                }
            }
            drop(g);
            self.group_cv.notify_all();
            // On success the captured tail necessarily covers `target`
            // (it was appended before this call). On failure the error
            // propagates to this committer; awakened followers retry
            // and surface their own errors.
            return synced.map(|_| ());
        }
    }

    /// The one real sync, run only by the sequencer's leader. Captures
    /// the tail under the sink lock and syncs the device *outside* it,
    /// so appends (a logged page change makes its append inside the
    /// page's write latch) never queue behind an `fdatasync`. The sync
    /// goes through a shared handle to the log's file and covers
    /// every byte written before it starts, so everything below the
    /// captured tail. The bytes it covered leave the unforced counter
    /// only once it has succeeded, and before the caller publishes the
    /// new forced LSN.
    fn sync_sink(&self) -> Result<Lsn> {
        if let Some(inj) = self.injector() {
            match inj.check(FaultPoint::WalForce) {
                WriteOutcome::Proceed => {}
                WriteOutcome::Stall { millis } => {
                    std::thread::sleep(std::time::Duration::from_millis(millis));
                }
                _ => return Err(ReachError::Io("injected fault at wal_force".into())),
            }
        }
        let m = self.metrics().filter(|m| m.on());
        let t0 = m.as_deref().and_then(MetricsRegistry::span_start);
        let (file, tail, pending) = {
            let st = self.sink.lock();
            let file = match &st.sink {
                Sink::File { file, .. } => Some(Arc::clone(file)),
                Sink::Mem(_) => None,
            };
            (file, st.tail(), st.unforced)
        };
        if let Some(file) = file {
            file.sync_data()?;
        }
        {
            // Exact: only one leader syncs at a time, `pending` was read
            // under this same lock, and since then only appends have
            // touched the counter, and they only add to it.
            let mut st = self.sink.lock();
            debug_assert!(st.unforced >= pending, "unforced counter underflow");
            st.unforced -= pending;
        }
        if let Some(m) = m {
            m.wal.forces.inc();
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                m.wal.force_latency.record(ns);
                m.record_span(Stage::WalForce, ns);
            }
        }
        Ok(tail)
    }

    /// The next LSN to be assigned (base LSN plus surviving log bytes).
    pub fn tail(&self) -> Lsn {
        self.sink.lock().tail()
    }

    /// LSN of the first surviving frame. Everything below it has been
    /// truncated away by a checkpoint. `FIRST_LSN` on a fresh log.
    pub fn base_lsn(&self) -> Lsn {
        self.sink.lock().base
    }

    /// Log tail covered by the last successful force — every byte below
    /// this offset is durable.
    pub fn forced_lsn(&self) -> Lsn {
        self.group.lock().forced_lsn
    }

    /// Scan the log from the beginning, yielding `(lsn, record)` pairs.
    /// A torn or corrupt tail ends the scan silently (crash semantics);
    /// use [`WriteAheadLog::scan_report`] when the caller needs to know
    /// how many bytes the salvage discarded.
    pub fn scan(&self) -> Result<Vec<(Lsn, WalRecord)>> {
        Ok(self.scan_report()?.records)
    }

    /// Scan the log from `from` — a frame boundary, e.g. a tail captured
    /// before an append — instead of from the base: only the bytes at
    /// or above it are read and decoded. A `from` below the base (the
    /// prefix was truncated) starts at the base.
    pub fn scan_from(&self, from: Lsn) -> Result<Vec<(Lsn, WalRecord)>> {
        let (from, frames) = {
            let mut st = self.sink.lock();
            let from = from.clamp(st.base, st.tail());
            let offset = from - st.base + FIRST_LSN;
            let frames = match &mut st.sink {
                Sink::Mem(buf) => buf[offset as usize..].to_vec(),
                Sink::File { file, len, .. } => {
                    let mut buf = vec![0u8; (*len - offset) as usize];
                    (&**file).seek(SeekFrom::Start(offset))?;
                    (&**file).read_exact(&mut buf)?;
                    buf
                }
            };
            (from, frames)
        };
        Ok(Self::scan_frames(from, &frames)?.records)
    }

    /// Salvage scan: every complete, checksum-valid frame from the
    /// beginning, plus a count of torn trailing bytes discarded. The
    /// scan stops at the first incomplete or checksum-failing frame —
    /// after that point no frame boundary can be trusted.
    pub fn scan_report(&self) -> Result<ScanReport> {
        Self::scan_image(&self.image()?)
    }

    /// Salvage-scan a raw log image (header + frames).
    fn scan_image(image: &[u8]) -> Result<ScanReport> {
        Self::scan_frames(parse_base(image), &image[FIRST_LSN as usize..])
    }

    /// Salvage-scan raw frames, the first of which sits at `first_lsn`.
    fn scan_frames(first_lsn: Lsn, frames: &[u8]) -> Result<ScanReport> {
        let mut records = Vec::new();
        let mut pos = 0;
        while pos + 8 <= frames.len() {
            let len = u32::from_le_bytes(frames[pos..pos + 4].try_into().unwrap()) as usize;
            let sum = u32::from_le_bytes(frames[pos + 4..pos + 8].try_into().unwrap());
            if pos + 8 + len > frames.len() {
                break; // torn tail
            }
            let payload = &frames[pos + 8..pos + 8 + len];
            if fnv1a(payload) != sum {
                break; // torn/corrupt tail
            }
            records.push((first_lsn + pos as u64, WalRecord::decode(payload)?));
            pos += 8 + len;
        }
        #[cfg(test)]
        FRAMES_DECODED.with(|n| n.set(n.get() + records.len() as u64));
        Ok(ScanReport {
            records,
            salvaged_bytes: (frames.len() - pos) as u64,
            end: first_lsn + pos as u64,
        })
    }

    /// Retain truncated prefixes in an in-memory archive so
    /// [`WriteAheadLog::scan_all`] can reconstruct the full append
    /// history. Used by the torture oracle, which must know every frame
    /// ever appended even after checkpoints truncate the live log.
    /// Enable before the first truncation.
    pub fn set_archive(&self, enabled: bool) {
        let mut st = self.sink.lock();
        st.archive = if enabled { Some(Vec::new()) } else { None };
    }

    /// Scan the archived prefix plus the live log: every frame ever
    /// appended, in order, regardless of truncation. Requires
    /// [`WriteAheadLog::set_archive`] from birth; without it this is
    /// just [`WriteAheadLog::scan`].
    pub fn scan_all(&self) -> Result<Vec<(Lsn, WalRecord)>> {
        let mut st = self.sink.lock();
        let archive = st.archive.clone().unwrap_or_default();
        let first_base = st.base - archive.len() as u64;
        let live = match &mut st.sink {
            Sink::Mem(buf) => buf.clone(),
            Sink::File { file, len, .. } => {
                let mut buf = vec![0u8; *len as usize];
                (&**file).seek(SeekFrom::Start(0))?;
                (&**file).read_exact(&mut buf)?;
                buf
            }
        };
        drop(st);
        let mut full = Vec::with_capacity(FIRST_LSN as usize + archive.len() + live.len());
        full.extend_from_slice(&first_base.to_le_bytes());
        full.extend_from_slice(&archive);
        full.extend_from_slice(&live[FIRST_LSN as usize..]);
        Ok(Self::scan_image(&full)?.records)
    }

    /// Drop every frame below `cut` from the log, advancing the base
    /// LSN. Called by the checkpointer once a checkpoint guarantees no
    /// record below `cut` is needed for redo (its page effect is on
    /// stable storage) or undo (no active writer started before it).
    ///
    /// `cut` must be a frame boundary at or below the forced LSN. File
    /// sinks truncate crash-atomically (write temp + sync + rename);
    /// a crash anywhere inside leaves either the old or the new log,
    /// both of which recover correctly. Returns the bytes dropped.
    pub fn truncate_prefix(&self, cut: Lsn) -> Result<u64> {
        if let Some(inj) = self.injector() {
            match inj.check(FaultPoint::WalTruncate) {
                WriteOutcome::Proceed => {}
                WriteOutcome::Stall { millis } => {
                    std::thread::sleep(std::time::Duration::from_millis(millis));
                }
                _ => return Err(ReachError::Io("injected fault at wal_truncate".into())),
            }
        }
        // Forced only grows, so reading it before taking the sink lock
        // can only under-approximate the durable prefix — safe.
        let forced = self.forced_lsn();
        let mut st = self.sink.lock();
        if cut <= st.base {
            return Ok(0);
        }
        if cut > forced {
            return Err(ReachError::WalCorrupt(format!(
                "truncate_prefix({cut}) above forced LSN {forced}"
            )));
        }
        let drop_bytes = cut - st.base;
        let new_base = cut;
        let SinkState { sink, archive, .. } = &mut *st;
        match sink {
            Sink::Mem(buf) => {
                let dropped = FIRST_LSN as usize..(FIRST_LSN + drop_bytes) as usize;
                if let Some(arch) = archive {
                    arch.extend_from_slice(&buf[dropped.clone()]);
                }
                buf.drain(dropped);
                buf[..FIRST_LSN as usize].copy_from_slice(&new_base.to_le_bytes());
            }
            Sink::File { file, len, path } => {
                let keep = (*len - FIRST_LSN - drop_bytes) as usize;
                // Only an archive wants the dropped prefix's bytes;
                // without one, seek past them.
                let mut dropped = Vec::new();
                if archive.is_some() {
                    dropped.resize(drop_bytes as usize, 0);
                    (&**file).seek(SeekFrom::Start(FIRST_LSN))?;
                    (&**file).read_exact(&mut dropped)?;
                } else {
                    (&**file).seek(SeekFrom::Start(FIRST_LSN + drop_bytes))?;
                }
                let mut rest = vec![0u8; keep];
                (&**file).read_exact(&mut rest)?;
                let tmp = path.with_extension("truncating");
                let mut out = File::create(&tmp)?;
                out.write_all(&new_base.to_le_bytes())?;
                out.write_all(&rest)?;
                out.sync_data()?;
                std::fs::rename(&tmp, &*path)?;
                // Make the rename itself durable before any further
                // appends: without syncing the parent directory, a
                // power loss could leave the directory entry pointing
                // at the old inode while later acked commits were
                // forced into the new, now-unreachable file.
                let dir = match path.parent() {
                    Some(p) if !p.as_os_str().is_empty() => p,
                    _ => std::path::Path::new("."),
                };
                File::open(dir)?.sync_all()?;
                *file = Arc::new(OpenOptions::new().read(true).write(true).open(&*path)?);
                *len = FIRST_LSN + keep as u64;
                if let Some(arch) = archive {
                    arch.extend_from_slice(&dropped);
                }
            }
        }
        st.base = new_base;
        drop(st);
        if let Some(m) = self.metrics() {
            // Ungated, like the pool counters: the torture harness and
            // E17 read these without enabling observability.
            m.ckpt.truncations.inc();
            m.ckpt.truncated_bytes.add(drop_bytes);
        }
        Ok(drop_bytes)
    }

    /// Cut the log back to `end`, dropping every byte at or above it.
    /// Recovery calls this with [`ScanReport::end`] before it appends
    /// anything, so a torn tail is cut off rather than left between the
    /// last whole frame and the records appended after the restart,
    /// where the next salvage scan would stop. The forced LSN comes down
    /// to `end` as well: opening a log sets it at the image tail, torn
    /// bytes included, and left there it would let a force of a record
    /// below that old tail return without syncing. Returns the bytes cut.
    pub fn truncate_tail(&self, end: Lsn) -> Result<u64> {
        let mut st = self.sink.lock();
        let tail = st.tail();
        if end >= tail {
            return Ok(0);
        }
        if end < st.base {
            return Err(ReachError::WalCorrupt(format!(
                "truncate_tail({end}) below base LSN {}",
                st.base
            )));
        }
        let keep = end - st.base + FIRST_LSN;
        match &mut st.sink {
            Sink::Mem(buf) => buf.truncate(keep as usize),
            Sink::File { file, len, .. } => {
                file.set_len(keep)?;
                file.sync_data()?;
                *len = keep;
            }
        }
        // Unforced bytes are the newest ones, so the cut takes them first.
        let cut = tail - end;
        st.unforced = st.unforced.saturating_sub(cut);
        drop(st);
        let mut g = self.group.lock();
        g.forced_lsn = g.forced_lsn.min(end);
        Ok(cut)
    }

    /// Bytes appended since the last force (0 means fully durable).
    pub fn unforced_bytes(&self) -> u64 {
        self.sink.lock().unforced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin { txn: TxnId::new(1) },
            WalRecord::Insert {
                txn: TxnId::new(1),
                page: PageId::new(4),
                slot: 2,
                payload: b"abc".to_vec(),
            },
            WalRecord::Update {
                txn: TxnId::new(1),
                page: PageId::new(4),
                slot: 2,
                before: b"abc".to_vec(),
                after: b"abcd".to_vec(),
            },
            WalRecord::Delete {
                txn: TxnId::new(1),
                page: PageId::new(4),
                slot: 2,
                before: b"abcd".to_vec(),
            },
            WalRecord::Clr {
                txn: TxnId::new(1),
                page: PageId::new(4),
                slot: 2,
                restore: Some(b"abcd".to_vec()),
                undo_next: 8,
            },
            WalRecord::Clr {
                txn: TxnId::new(1),
                page: PageId::new(4),
                slot: 2,
                restore: None,
                undo_next: 0,
            },
            WalRecord::IndexInsert {
                txn: TxnId::new(1),
                index: 3,
                key: b"k\x00ey".to_vec(),
                oid: 77,
            },
            WalRecord::IndexDelete {
                txn: TxnId::new(1),
                index: 3,
                key: Vec::new(),
                oid: 78,
            },
            WalRecord::IndexClr {
                txn: TxnId::new(1),
                undo_next: 40,
            },
            WalRecord::BeginCheckpoint,
            WalRecord::EndCheckpoint {
                dirty: vec![(PageId::new(4), 16), (PageId::new(7), 48)],
                active: vec![(TxnId::new(1), 24), (TxnId::new(9), 56)],
            },
            WalRecord::Prepare {
                txn: TxnId::new(1),
                gid: 900,
            },
            WalRecord::CoordCommit {
                gid: 900,
                participants: vec![0, 2, 5],
            },
            WalRecord::CoordCommit {
                gid: 901,
                participants: Vec::new(),
            },
            WalRecord::CoordAbort { gid: 902 },
            WalRecord::Commit { txn: TxnId::new(1) },
            WalRecord::Abort { txn: TxnId::new(2) },
        ]
    }

    /// The B-link leaf records, kept apart from [`sample_records`] so
    /// the older records' pinned digest stays as it was.
    fn leaf_records() -> [WalRecord; 2] {
        [
            WalRecord::LeafInsert {
                page: PageId::new(9),
                key: b"k\x00ey".to_vec(),
                oid: 77,
            },
            WalRecord::LeafRemove {
                page: PageId::new(9),
                key: Vec::new(),
                oid: 78,
            },
        ]
    }

    fn all_records() -> Vec<WalRecord> {
        sample_records().into_iter().chain(leaf_records()).collect()
    }

    #[test]
    fn every_record_round_trips_through_encoding() {
        for rec in all_records() {
            let enc = rec.encode();
            assert_eq!(WalRecord::decode(&enc).unwrap(), rec);
        }
    }

    /// FNV-1a 64 of `bytes`. Pinning an encoding's digest catches the
    /// format changes a round trip cannot see: one made to the encoder
    /// and the decoder alike.
    fn digest(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn record_format_is_pinned() {
        let bytes: Vec<u8> = sample_records()
            .iter()
            .flat_map(WalRecord::encode)
            .collect();
        assert_eq!(digest(&bytes), 0x41a9ba0c1ae12f14);
        let [insert, remove] = leaf_records();
        assert_eq!(digest(&insert.encode()), 0x6d39db0ab77f388e);
        assert_eq!(digest(&remove.encode()), 0xe672ce18f025e64b);
    }

    #[test]
    fn a_count_the_record_cannot_hold_is_corruption() {
        let max = u32::MAX.to_le_bytes();
        let dirty = [&[9][..], &max].concat();
        let active = [&[9][..], &0u32.to_le_bytes(), &max].concat();
        let participants = [&[14][..], &900u64.to_le_bytes(), &max].concat();
        for buf in [dirty, active, participants] {
            let got = WalRecord::decode(&buf);
            assert!(matches!(got, Err(ReachError::WalCorrupt(_))), "{got:?}");
        }
    }

    #[test]
    fn trailing_bytes_after_a_record_are_corruption() {
        for rec in all_records() {
            let buf = [rec.encode(), b"garbage".to_vec()].concat();
            let got = WalRecord::decode(&buf);
            assert!(matches!(got, Err(ReachError::WalCorrupt(_))), "{got:?}");
        }
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn garbage_records_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
                if let Err(e) = WalRecord::decode(&bytes) {
                    prop_assert!(matches!(e, ReachError::WalCorrupt(_)), "{e:?}");
                }
            }

            /// Garbage behind a leaf record's tag, which random bytes
            /// only rarely start with.
            #[test]
            fn garbage_leaf_records_never_panic(
                tag in 16u8..18,
                bytes in prop::collection::vec(any::<u8>(), 0..64),
            ) {
                let buf = [&[tag][..], &bytes].concat();
                if let Err(e) = WalRecord::decode(&buf) {
                    prop_assert!(matches!(e, ReachError::WalCorrupt(_)), "{e:?}");
                }
            }

            #[test]
            fn bit_flipped_records_never_panic(
                which in any::<prop::sample::Index>(),
                at in any::<prop::sample::Index>(),
                bit in 0u8..8,
            ) {
                let recs = all_records();
                let mut enc = recs[which.index(recs.len())].encode();
                let i = at.index(enc.len());
                enc[i] ^= 1 << bit;
                if let Err(e) = WalRecord::decode(&enc) {
                    prop_assert!(matches!(e, ReachError::WalCorrupt(_)), "{e:?}");
                }
            }
        }
    }

    #[test]
    fn memory_log_scans_in_order_with_increasing_lsns() {
        let log = WriteAheadLog::in_memory();
        let recs = sample_records();
        let lsns: Vec<_> = recs.iter().map(|r| log.append(r).unwrap()).collect();
        assert!(lsns.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(lsns[0], FIRST_LSN);
        let scanned = log.scan().unwrap();
        assert_eq!(scanned.len(), recs.len());
        for ((lsn, rec), (want_lsn, want)) in scanned.iter().zip(lsns.iter().zip(recs.iter())) {
            assert_eq!(lsn, want_lsn);
            assert_eq!(rec, want);
        }
    }

    #[test]
    fn file_log_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("reach-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let log = WriteAheadLog::open(&path).unwrap();
            for rec in sample_records() {
                log.append(&rec).unwrap();
            }
            log.force().unwrap();
            assert_eq!(log.unforced_bytes(), 0);
        }
        let log = WriteAheadLog::open(&path).unwrap();
        let scanned = log.scan().unwrap();
        assert_eq!(
            scanned.into_iter().map(|(_, r)| r).collect::<Vec<_>>(),
            sample_records()
        );
        // New appends land after the old tail.
        let lsn = log
            .append(&WalRecord::Begin { txn: TxnId::new(5) })
            .unwrap();
        assert!(lsn > FIRST_LSN);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_ignored() {
        let log = WriteAheadLog::in_memory();
        log.append(&WalRecord::Begin { txn: TxnId::new(1) })
            .unwrap();
        log.append(&WalRecord::Commit { txn: TxnId::new(1) })
            .unwrap();
        // Simulate a crash that tore the last frame: corrupt its checksum.
        {
            let mut st = log.sink.lock();
            if let Sink::Mem(buf) = &mut st.sink {
                let n = buf.len();
                buf[n - 1] ^= 0xff;
            }
        }
        let scanned = log.scan().unwrap();
        assert_eq!(scanned.len(), 1);
        assert!(matches!(scanned[0].1, WalRecord::Begin { .. }));
    }

    #[test]
    fn truncate_tail_cuts_torn_bytes_and_lowers_the_forced_lsn() {
        let log = WriteAheadLog::in_memory();
        log.append(&WalRecord::Begin { txn: TxnId::new(1) })
            .unwrap();
        log.append(&WalRecord::Commit { txn: TxnId::new(1) })
            .unwrap();
        let mut image = log.image().unwrap();
        image.truncate(image.len() - 3);
        // A reboot takes every surviving byte, torn ones included, as forced.
        let log = WriteAheadLog::in_memory_from(image);
        let end = log.scan_report().unwrap().end;
        let torn = log.tail() - end;
        assert!(torn > 0 && log.forced_lsn() == log.tail());
        assert_eq!(log.truncate_tail(end).unwrap(), torn);
        assert_eq!((log.tail(), log.forced_lsn()), (end, end));
        // A record appended at the cut lands below the old tail; forcing
        // it must still sync it.
        let (lsn, rec_end) = log
            .append_bounded(&WalRecord::Abort { txn: TxnId::new(1) })
            .unwrap();
        assert_eq!(lsn, end);
        log.force_up_to(rec_end).unwrap();
        assert_eq!(log.unforced_bytes(), 0);
        let rep = log.scan_report().unwrap();
        assert_eq!((rep.records.len(), rep.salvaged_bytes), (2, 0));
        // Nothing to cut on a clean tail.
        assert_eq!(log.truncate_tail(log.tail()).unwrap(), 0);
    }

    #[test]
    fn scan_report_counts_discarded_torn_bytes() {
        let log = WriteAheadLog::in_memory();
        log.append(&WalRecord::Begin { txn: TxnId::new(1) })
            .unwrap();
        let before = log.tail();
        log.append(&WalRecord::Commit { txn: TxnId::new(1) })
            .unwrap();
        let frame_len = log.tail() - before;
        // Hand-truncate the last frame: keep 3 bytes of it.
        {
            let mut st = log.sink.lock();
            if let Sink::Mem(buf) = &mut st.sink {
                buf.truncate((before + 3) as usize);
            }
        }
        let rep = log.scan_report().unwrap();
        assert_eq!(rep.records.len(), 1);
        assert_eq!(rep.salvaged_bytes, 3);
        assert!(rep.salvaged_bytes < frame_len);
        // A clean log reports zero salvage.
        let clean = WriteAheadLog::in_memory();
        clean
            .append(&WalRecord::Begin { txn: TxnId::new(1) })
            .unwrap();
        assert_eq!(clean.scan_report().unwrap().salvaged_bytes, 0);
    }

    #[test]
    fn image_round_trips_through_in_memory_from() {
        let log = WriteAheadLog::in_memory();
        for rec in sample_records() {
            log.append(&rec).unwrap();
        }
        let revived = WriteAheadLog::in_memory_from(log.image().unwrap());
        assert_eq!(revived.scan().unwrap(), log.scan().unwrap());
        assert_eq!(revived.tail(), log.tail());
        // And the revived log accepts new appends at the right offset.
        let lsn = revived
            .append(&WalRecord::Begin {
                txn: TxnId::new(99),
            })
            .unwrap();
        assert_eq!(lsn, log.tail());
    }

    #[test]
    fn injected_torn_append_persists_exact_prefix() {
        use reach_common::{FaultInjector, FaultPlan, FaultPoint};
        let log = WriteAheadLog::in_memory();
        log.set_injector(FaultInjector::new(FaultPlan::new().torn_at(
            FaultPoint::WalAppend,
            2,
            5,
        )));
        log.append(&WalRecord::Begin { txn: TxnId::new(1) })
            .unwrap();
        let tail_before = log.tail();
        let err = log
            .append(&WalRecord::Commit { txn: TxnId::new(1) })
            .unwrap_err();
        assert!(matches!(err, ReachError::Io(_)));
        // Exactly 5 bytes of the torn frame reached the log.
        assert_eq!(log.tail(), tail_before + 5);
        // Salvage sees one good record and 5 discarded bytes.
        let rep = log.scan_report().unwrap();
        assert_eq!(rep.records.len(), 1);
        assert_eq!(rep.salvaged_bytes, 5);
        // Torn implies crash: later appends and forces are rejected.
        assert!(log
            .append(&WalRecord::Begin { txn: TxnId::new(2) })
            .is_err());
        assert!(log.force().is_err());
    }

    #[test]
    fn injected_append_failure_persists_nothing() {
        use reach_common::{FaultInjector, FaultPlan, FaultPoint};
        let log = WriteAheadLog::in_memory();
        log.set_injector(FaultInjector::new(
            FaultPlan::new().fail_at(FaultPoint::WalAppend, 1),
        ));
        let tail = log.tail();
        assert!(log
            .append(&WalRecord::Begin { txn: TxnId::new(1) })
            .is_err());
        assert_eq!(log.tail(), tail, "failed append must not persist bytes");
        // Transient: the next append goes through.
        log.append(&WalRecord::Begin { txn: TxnId::new(1) })
            .unwrap();
        assert_eq!(log.scan().unwrap().len(), 1);
    }

    #[test]
    fn unforced_bytes_tracks_appends() {
        let log = WriteAheadLog::in_memory();
        assert_eq!(log.unforced_bytes(), 0);
        log.append(&WalRecord::Begin { txn: TxnId::new(1) })
            .unwrap();
        assert!(log.unforced_bytes() > 0);
        log.force().unwrap();
        assert_eq!(log.unforced_bytes(), 0);
    }

    /// Regression: the unforced counter used to be updated *outside*
    /// the sink lock, so a force could sync an append's bytes and then
    /// watch the append add them to the counter — overcounting until
    /// the next reset. The invariant checked here (`unforced <= tail -
    /// forced_lsn`, reads ordered forced-first) holds exactly with the
    /// counter under the sink lock and is violated by the racy version.
    #[test]
    fn unforced_counter_consistent_under_concurrent_force() {
        let log = Arc::new(WriteAheadLog::in_memory());
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let log = Arc::clone(&log);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    log.append(&WalRecord::Begin {
                        txn: TxnId::new(t * 1_000_000 + i),
                    })
                    .unwrap();
                }
            }));
        }
        {
            let log = Arc::clone(&log);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    log.force().unwrap();
                }
            }));
        }
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_millis(200) {
            // Read order matters: forced_lsn can only grow and tail can
            // only grow, so reading forced first and tail last makes the
            // inequality safe against concurrent progress.
            let forced = log.forced_lsn();
            let unforced = log.unforced_bytes();
            let tail = log.tail();
            assert!(
                unforced <= tail - forced.min(tail),
                "unforced counter overcounts: unforced={unforced} tail={tail} forced={forced}"
            );
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        // Quiescent: one final force leaves nothing unaccounted.
        log.force().unwrap();
        assert_eq!(log.unforced_bytes(), 0);
        assert_eq!(log.forced_lsn(), log.tail());
    }

    #[test]
    fn force_up_to_skips_when_already_durable() {
        use reach_common::MetricsRegistry;
        let log = WriteAheadLog::in_memory();
        let m = MetricsRegistry::new_shared();
        m.enable();
        log.set_metrics(Arc::clone(&m));
        let (_, end_a) = log
            .append_bounded(&WalRecord::Begin { txn: TxnId::new(1) })
            .unwrap();
        log.append(&WalRecord::Commit { txn: TxnId::new(1) })
            .unwrap();
        log.force().unwrap();
        assert_eq!(m.wal.forces.get(), 1);
        // Already covered by the force above: fast path, no second sync.
        log.force_up_to(end_a).unwrap();
        log.force().unwrap();
        assert_eq!(m.wal.forces.get(), 1, "covered targets must not sync");
        assert_eq!(m.wal.force_skips.get(), 2);
        // A new append moves the tail past the forced LSN again.
        let (_, end_b) = log
            .append_bounded(&WalRecord::Begin { txn: TxnId::new(2) })
            .unwrap();
        log.force_up_to(end_b).unwrap();
        assert_eq!(m.wal.forces.get(), 2);
    }

    #[test]
    fn durable_image_drops_unforced_tail() {
        let log = WriteAheadLog::in_memory();
        log.append(&WalRecord::Begin { txn: TxnId::new(1) })
            .unwrap();
        log.append(&WalRecord::Commit { txn: TxnId::new(1) })
            .unwrap();
        log.force().unwrap();
        log.append(&WalRecord::Begin { txn: TxnId::new(2) })
            .unwrap();
        // The full image keeps the unforced Begin; the durable image,
        // which is what a real crash leaves behind, does not.
        assert_eq!(log.image().unwrap().len() as u64, log.tail());
        let durable = log.durable_image().unwrap();
        assert_eq!(durable.len() as u64, log.forced_lsn());
        let revived = WriteAheadLog::in_memory_from(durable);
        let recs: Vec<_> = revived
            .scan()
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(
            recs,
            vec![
                WalRecord::Begin { txn: TxnId::new(1) },
                WalRecord::Commit { txn: TxnId::new(1) },
            ]
        );
    }

    #[test]
    fn truncate_prefix_drops_frames_and_preserves_lsns() {
        let log = WriteAheadLog::in_memory();
        let mut starts = Vec::new();
        for rec in sample_records() {
            starts.push(log.append(&rec).unwrap());
        }
        log.force().unwrap();
        let cut = starts[3];
        let dropped = log.truncate_prefix(cut).unwrap();
        assert_eq!(dropped, cut - FIRST_LSN);
        assert_eq!(log.base_lsn(), cut);
        let recs = log.scan().unwrap();
        assert_eq!(recs.len(), sample_records().len() - 3);
        assert_eq!(recs[0].0, cut, "surviving frames keep their LSNs");
        assert_eq!(recs[0].1, sample_records()[3]);
        // Appends continue in the same logical LSN space.
        let tail_before = log.tail();
        let lsn = log
            .append(&WalRecord::Begin {
                txn: TxnId::new(77),
            })
            .unwrap();
        assert_eq!(lsn, tail_before);
        log.force().unwrap();
        // The image carries the base and round-trips through a reboot.
        let revived = WriteAheadLog::in_memory_from(log.image().unwrap());
        assert_eq!(revived.base_lsn(), cut);
        assert_eq!(revived.scan().unwrap(), log.scan().unwrap());
        assert_eq!(revived.tail(), log.tail());
        // Cuts at or below the base are no-ops.
        assert_eq!(log.truncate_prefix(cut).unwrap(), 0);
        assert_eq!(log.truncate_prefix(FIRST_LSN).unwrap(), 0);
    }

    #[test]
    fn truncate_above_forced_lsn_is_rejected() {
        let log = WriteAheadLog::in_memory();
        log.append(&WalRecord::Begin { txn: TxnId::new(1) })
            .unwrap();
        // Nothing forced yet: the unforced tail must not be cuttable.
        assert!(log.truncate_prefix(log.tail()).is_err());
        log.force().unwrap();
        assert!(log.truncate_prefix(log.tail()).is_ok());
    }

    #[test]
    fn file_log_truncation_survives_reopen() {
        // Archive off seeks past the dropped prefix, archive on reads
        // it; the surviving log must be the same either way.
        for archive in [false, true] {
            let dir = std::env::temp_dir()
                .join(format!("reach-wal-trunc-{}-{archive}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("trunc.log");
            let _ = std::fs::remove_file(&path);
            let cut;
            {
                let log = WriteAheadLog::open(&path).unwrap();
                log.set_archive(archive);
                let mut starts = Vec::new();
                for rec in sample_records() {
                    starts.push(log.append(&rec).unwrap());
                }
                log.force().unwrap();
                let before = log.scan().unwrap();
                cut = starts[4];
                log.truncate_prefix(cut).unwrap();
                assert_eq!(log.base_lsn(), cut);
                if archive {
                    assert_eq!(log.scan_all().unwrap(), before, "archive keeps the past");
                }
            }
            let log = WriteAheadLog::open(&path).unwrap();
            assert_eq!(log.base_lsn(), cut);
            let recs = log.scan().unwrap();
            assert_eq!(recs.len(), sample_records().len() - 4);
            assert_eq!(recs[0].0, cut);
            assert_eq!(recs[0].1, sample_records()[4]);
            let lsn = log
                .append(&WalRecord::Begin { txn: TxnId::new(5) })
                .unwrap();
            assert_eq!(lsn, log.scan().unwrap().last().unwrap().0);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn archived_scan_all_reconstructs_full_history() {
        let log = WriteAheadLog::in_memory();
        log.set_archive(true);
        let mut starts = Vec::new();
        for rec in sample_records() {
            starts.push(log.append(&rec).unwrap());
        }
        let before = log.scan().unwrap();
        log.force().unwrap();
        log.truncate_prefix(starts[5]).unwrap();
        assert!(log.scan().unwrap().len() < before.len());
        assert_eq!(log.scan_all().unwrap(), before, "archive keeps the past");
    }

    #[test]
    fn injected_truncate_fault_leaves_the_log_intact() {
        use reach_common::{FaultInjector, FaultPlan, FaultPoint};
        let log = WriteAheadLog::in_memory();
        let mut starts = Vec::new();
        for rec in sample_records() {
            starts.push(log.append(&rec).unwrap());
        }
        log.force().unwrap();
        log.set_injector(FaultInjector::new(
            FaultPlan::new().crash_at(FaultPoint::WalTruncate, 1),
        ));
        let before = log.scan().unwrap();
        assert!(log.truncate_prefix(starts[3]).is_err());
        assert_eq!(
            log.base_lsn(),
            FIRST_LSN,
            "crashed truncation drops nothing"
        );
        assert_eq!(log.scan().unwrap(), before);
        // Crash semantics: the device is dead for mutations afterwards.
        assert!(log
            .append(&WalRecord::Begin { txn: TxnId::new(9) })
            .is_err());
        assert!(log.truncate_prefix(starts[3]).is_err());
    }

    /// Concurrent committers through the sequencer: everyone's record
    /// ends up durable, and with a real (file) sink the records that
    /// arrive during one sync share the next, so far fewer syncs than
    /// commits are issued.
    #[test]
    fn group_commit_batches_concurrent_committers() {
        use reach_common::MetricsRegistry;
        let dir = std::env::temp_dir().join(format!("reach-wal-group-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("group.log");
        let _ = std::fs::remove_file(&path);
        let log = Arc::new(WriteAheadLog::open(&path).unwrap());
        let m = MetricsRegistry::new_shared();
        m.enable();
        log.set_metrics(Arc::clone(&m));
        let threads = 8u64;
        let commits_each = 10u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..commits_each {
                    let txn = TxnId::new(t * 1000 + i + 1);
                    let (_, end) = log.append_bounded(&WalRecord::Commit { txn }).unwrap();
                    log.force_up_to(end).unwrap();
                    assert!(log.forced_lsn() >= end, "ack before durability");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let commits = threads * commits_each;
        assert_eq!(log.scan().unwrap().len() as u64, commits);
        assert_eq!(log.forced_lsn(), log.tail());
        let forces = m.wal.forces.get();
        assert!(
            forces < commits,
            "8 live committers must batch: {forces} syncs for {commits} commits"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// The sequencer's failure hand-off: a leader whose sync fails
    /// returns the error to itself alone; the followers parked on it
    /// wake, retry, and one of them leads a fresh sync that covers
    /// them all. Holding the injector's mutex parks the leader at the
    /// top of its sync (after it has taken the lead), so the other
    /// committers are parked followers when its injected failure fires.
    #[test]
    fn failed_leader_sync_never_acknowledges_a_follower() {
        use reach_common::{FaultInjector, FaultPlan, FaultPoint};
        use std::sync::mpsc;
        let dir = std::env::temp_dir().join(format!("reach-wal-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fail.log");
        let _ = std::fs::remove_file(&path);
        let log = Arc::new(WriteAheadLog::open(&path).unwrap());
        let inj = FaultInjector::new(FaultPlan::new().fail_at(FaultPoint::WalForce, 1));
        log.set_injector(Arc::clone(&inj));
        let ends: Vec<Lsn> = (1..=5u64)
            .map(|t| {
                let txn = TxnId::new(t);
                log.append_bounded(&WalRecord::Commit { txn }).unwrap().1
            })
            .collect();
        let gate = log.injector.lock();
        let (done_tx, done_rx) = mpsc::channel();
        for end in ends {
            let log = Arc::clone(&log);
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                let acked = log.force_up_to(end).is_ok();
                if acked {
                    assert!(
                        log.forced_lsn() >= end,
                        "acknowledged a record the failed sync never covered"
                    );
                }
                done_tx.send(acked).unwrap();
            });
        }
        drop(done_tx);
        std::thread::sleep(Duration::from_millis(100));
        drop(gate);
        let acks = (0..5)
            .map(|_| {
                done_rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("a committer hung or panicked in force_up_to")
            })
            .filter(|&acked| acked)
            .count();
        assert_eq!(inj.injected(), 1);
        assert_eq!(acks, 4, "exactly the failed leader sees the error");
        assert_eq!(inj.hits(FaultPoint::WalForce), 2, "one retry syncs for all");
        log.force().unwrap();
        assert_eq!(log.forced_lsn(), log.tail());
        std::fs::remove_file(&path).unwrap();
    }
}
