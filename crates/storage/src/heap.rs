//! Heap files: unordered collections of variable-length records.
//!
//! A heap file is a list of pages; records are addressed by a stable
//! [`RecordId`] (page + slot). Every mutation is *logged*: it takes the
//! mutating transaction's id, and inside the page's write latch it
//! changes the page, appends the WAL record describing the change and
//! stamps the page with that record's end LSN (`log_applied`). The
//! buffer pool's eviction barrier forces the log only up to a victim's
//! stamp, so a page image can never reach the device ahead of its
//! records — and no eviction can slip in between a change and its
//! record, because the page stays latched (and pinned) across both.

use crate::btree::leaf_edit;
use crate::buffer::BufferPool;
use crate::page::{Page, MAX_RECORD};
use crate::wal::{WalRecord, WriteAheadLog};
use reach_common::sync::Mutex;
use reach_common::{PageId, ReachError, Result, TxnId};
use std::sync::Arc;

/// Durable address of a record: page + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    /// Page the record lives on.
    pub page: PageId,
    /// Slot within the page's directory.
    pub slot: u16,
}

impl RecordId {
    /// Address the record at `(page, slot)`.
    pub fn new(page: PageId, slot: u16) -> Self {
        RecordId { page, slot }
    }
}

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.page, self.slot)
    }
}

/// Append `rec`, which describes a change just applied to `pg` under
/// its write latch, and stamp the page with the record's end LSN — the
/// LSN an eviction must force the log up to before writing the page.
/// Called with the latch still held, so the change and its record
/// become visible to the pool's write-back together. If the append
/// fails the change is taken back off the page (see [`undo_on`]): a
/// page must never carry a change that no record describes.
pub(crate) fn log_applied(pg: &mut Page, wal: &WriteAheadLog, rec: &WalRecord) -> Result<()> {
    match wal.append_bounded(rec) {
        Ok((_, end)) => {
            pg.set_lsn(end);
            Ok(())
        }
        Err(e) => {
            undo_on(pg, rec)?;
            Err(e)
        }
    }
}

/// Apply the physical inverse of a page record to its page: an
/// `Insert` kills the slot (tolerating an already-dead one, so a
/// repeated undo is a no-op), an `Update` or `Delete` puts the
/// before-image back, a leaf edit splices its pair back out or in.
/// Other records touch no page.
pub(crate) fn undo_on(pg: &mut Page, rec: &WalRecord) -> Result<()> {
    match rec {
        WalRecord::Insert { slot, .. } => {
            let _ = pg.delete(*slot);
            Ok(())
        }
        WalRecord::Update { slot, before, .. } | WalRecord::Delete { slot, before, .. } => {
            pg.put_at(*slot, before)
        }
        WalRecord::LeafInsert { key, oid, .. } => leaf_edit(pg, key, *oid, false),
        WalRecord::LeafRemove { key, oid, .. } => leaf_edit(pg, key, *oid, true),
        _ => Ok(()),
    }
}

/// Make a page record's change again on its page — the redo step.
/// Recovery calls it only for a page whose LSN is below the record's
/// end, so the page holds exactly the state the change was first made
/// to: a leaf splice lands once, and a full image never hides a later
/// splice. Other records touch no page.
pub(crate) fn redo_on(pg: &mut Page, rec: &WalRecord) -> Result<()> {
    match rec {
        WalRecord::Insert { slot, payload, .. } => pg.put_at(*slot, payload),
        WalRecord::Update { slot, after, .. }
        | WalRecord::Clr {
            slot,
            restore: Some(after),
            ..
        } => pg.put_at(*slot, after),
        WalRecord::Delete { slot, .. } | WalRecord::Clr { slot, .. } => {
            let _ = pg.delete(*slot);
            Ok(())
        }
        WalRecord::LeafInsert { key, oid, .. } => leaf_edit(pg, key, *oid, true),
        WalRecord::LeafRemove { key, oid, .. } => leaf_edit(pg, key, *oid, false),
        _ => Ok(()),
    }
}

/// Set `slot` of `page` to `after` under `txn`, logged as an `Insert`
/// if the slot was empty and an `Update` (with the old image as
/// before-image) otherwise. The catalog slots and B-link nodes are
/// written this way.
pub(crate) fn put_logged(
    pool: &BufferPool,
    wal: &WriteAheadLog,
    txn: TxnId,
    page: PageId,
    slot: u16,
    after: Vec<u8>,
) -> Result<()> {
    pool.with_page_mut(page, |pg| {
        let before = pg.get(slot).ok().map(<[u8]>::to_vec);
        pg.put_at(slot, &after)?;
        let rec = match before {
            Some(before) => WalRecord::Update {
                txn,
                page,
                slot,
                before,
                after,
            },
            None => WalRecord::Insert {
                txn,
                page,
                slot,
                payload: after,
            },
        };
        log_applied(pg, wal, &rec)
    })?
}

/// An unordered record collection over the buffer pool.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    wal: Arc<WriteAheadLog>,
    pages: Mutex<Vec<PageId>>,
}

impl HeapFile {
    /// An empty heap file logging its mutations to `wal`.
    pub fn new(pool: Arc<BufferPool>, wal: Arc<WriteAheadLog>) -> Self {
        Self::with_pages(pool, wal, Vec::new())
    }

    /// Rebuild a heap file over a known page list (catalog load).
    pub fn with_pages(pool: Arc<BufferPool>, wal: Arc<WriteAheadLog>, pages: Vec<PageId>) -> Self {
        HeapFile {
            pool,
            wal,
            pages: Mutex::new(pages),
        }
    }

    /// The pages belonging to this file, in allocation order.
    pub fn pages(&self) -> Vec<PageId> {
        self.pages.lock().clone()
    }

    /// Insert a record under `txn`. Tries the most recently used pages
    /// first, then grows the file by one page. Returns `(rid, grew)`
    /// where `grew` tells the caller (the storage manager) that the page
    /// list — and hence the catalog — changed.
    pub fn insert(&self, txn: TxnId, payload: &[u8]) -> Result<(RecordId, bool)> {
        if payload.len() > MAX_RECORD {
            return Err(ReachError::RecordTooLarge {
                size: payload.len(),
                max: MAX_RECORD,
            });
        }
        // Probe the last few pages; old pages regain space via deletes
        // but scanning all of them on every insert would be O(n²).
        const PROBE: usize = 4;
        let candidates: Vec<PageId> = {
            let pages = self.pages.lock();
            pages.iter().rev().take(PROBE).copied().collect()
        };
        for pid in candidates {
            if let Some(slot) = self.insert_on(txn, pid, payload)? {
                return Ok((RecordId::new(pid, slot), false));
            }
        }
        // No fit: grow the file.
        let pid = self.pool.allocate()?;
        let slot = self
            .insert_on(txn, pid, payload)?
            .expect("an empty page fits any record up to MAX_RECORD");
        self.pages.lock().push(pid);
        Ok((RecordId::new(pid, slot), true))
    }

    /// Insert `payload` on `pid` if it fits there, logged in the latch.
    fn insert_on(&self, txn: TxnId, pid: PageId, payload: &[u8]) -> Result<Option<u16>> {
        self.pool.with_page_mut(pid, |pg| {
            if !pg.fits(payload.len()) {
                return Ok(None);
            }
            let slot = pg.insert(payload)?;
            let rec = WalRecord::Insert {
                txn,
                page: pid,
                slot,
                payload: payload.to_vec(),
            };
            log_applied(pg, &self.wal, &rec)?;
            Ok(Some(slot))
        })?
    }

    /// Read a record.
    pub fn get(&self, rid: RecordId) -> Result<Vec<u8>> {
        self.pool
            .with_page(rid.page, |pg| pg.get(rid.slot).map(|b| b.to_vec()))?
    }

    /// Update a record in place under `txn`. Fails with
    /// `RecordTooLarge` if the new payload cannot fit on the record's
    /// page (the page is left unchanged and nothing is logged); callers
    /// that allow record movement should delete + re-insert instead.
    pub fn update(&self, txn: TxnId, rid: RecordId, payload: &[u8]) -> Result<()> {
        self.pool.with_page_mut(rid.page, |pg| {
            let before = pg.get(rid.slot)?.to_vec();
            pg.update(rid.slot, payload)?;
            let rec = WalRecord::Update {
                txn,
                page: rid.page,
                slot: rid.slot,
                before,
                after: payload.to_vec(),
            };
            log_applied(pg, &self.wal, &rec)
        })?
    }

    /// Delete a record under `txn`.
    pub fn delete(&self, txn: TxnId, rid: RecordId) -> Result<()> {
        self.pool.with_page_mut(rid.page, |pg| {
            let before = pg.get(rid.slot)?.to_vec();
            pg.delete(rid.slot)?;
            let rec = WalRecord::Delete {
                txn,
                page: rid.page,
                slot: rid.slot,
                before,
            };
            log_applied(pg, &self.wal, &rec)
        })?
    }

    /// Visit live records until the visitor breaks. Payloads are handed
    /// out as borrowed slices — nothing is cloned unless the visitor
    /// copies — and `ControlFlow::Break` stops the walk without pinning
    /// the remaining pages. The callback may not mutate the file.
    pub fn for_each_while(
        &self,
        mut f: impl FnMut(RecordId, &[u8]) -> std::ops::ControlFlow<()>,
    ) -> Result<()> {
        let pages = self.pages();
        for pid in pages {
            let flow = self.pool.with_page(pid, |pg| {
                for slot in pg.live_slots() {
                    let flow = f(RecordId::new(pid, slot), pg.get(slot).expect("live slot"));
                    if flow.is_break() {
                        return flow;
                    }
                }
                std::ops::ControlFlow::Continue(())
            })?;
            if flow.is_break() {
                break;
            }
        }
        Ok(())
    }

    /// Visit every live record. The callback may not mutate the file.
    pub fn for_each(&self, mut f: impl FnMut(RecordId, &[u8])) -> Result<()> {
        self.for_each_while(|rid, data| {
            f(rid, data);
            std::ops::ControlFlow::Continue(())
        })
    }

    /// Materialized scan (convenience over [`HeapFile::for_each`]).
    pub fn scan(&self) -> Result<Vec<(RecordId, Vec<u8>)>> {
        let mut out = Vec::new();
        self.for_each(|rid, data| out.push((rid, data.to_vec())))?;
        Ok(out)
    }

    /// The first live record, if any — stops at the first hit instead
    /// of materializing the whole file.
    pub fn first(&self) -> Result<Option<(RecordId, Vec<u8>)>> {
        let mut out = None;
        self.for_each_while(|rid, data| {
            out = Some((rid, data.to_vec()));
            std::ops::ControlFlow::Break(())
        })?;
        Ok(out)
    }

    /// Number of live records (full walk, but no payload copies).
    pub fn len(&self) -> Result<usize> {
        let mut n = 0;
        self.for_each(|_, _| n += 1)?;
        Ok(n)
    }

    /// Whether the file holds no live records (stops at the first one).
    pub fn is_empty(&self) -> Result<bool> {
        let mut empty = true;
        self.for_each_while(|_, _| {
            empty = false;
            std::ops::ControlFlow::Break(())
        })?;
        Ok(empty)
    }
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("pages", &self.pages.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    const T: TxnId = TxnId(1);

    fn heap() -> HeapFile {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 16));
        HeapFile::new(pool, Arc::new(WriteAheadLog::in_memory()))
    }

    #[test]
    fn insert_get_round_trip() {
        let h = heap();
        let (rid, grew) = h.insert(T, b"first").unwrap();
        assert!(grew, "first insert allocates the first page");
        assert_eq!(h.get(rid).unwrap(), b"first");
    }

    #[test]
    fn file_grows_over_multiple_pages() {
        let h = heap();
        let rec = vec![7u8; 2000];
        let mut rids = Vec::new();
        for _ in 0..20 {
            rids.push(h.insert(T, &rec).unwrap().0);
        }
        assert!(h.pages().len() >= 5, "20 × 2 KiB needs ≥ 5 pages");
        for rid in rids {
            assert_eq!(h.get(rid).unwrap(), rec);
        }
    }

    #[test]
    fn update_and_delete() {
        let h = heap();
        let (rid, _) = h.insert(T, b"original").unwrap();
        h.update(T, rid, b"patched").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"patched");
        h.delete(T, rid).unwrap();
        assert!(h.get(rid).is_err());
    }

    #[test]
    fn scan_sees_only_live_records() {
        let h = heap();
        let (a, _) = h.insert(T, b"a").unwrap();
        let (_b, _) = h.insert(T, b"b").unwrap();
        let (c, _) = h.insert(T, b"c").unwrap();
        h.delete(T, a).unwrap();
        let scan = h.scan().unwrap();
        let values: Vec<_> = scan.iter().map(|(_, v)| v.clone()).collect();
        assert_eq!(values, vec![b"b".to_vec(), b"c".to_vec()]);
        assert_eq!(h.len().unwrap(), 2);
        assert!(scan.iter().any(|(rid, _)| *rid == c));
    }

    #[test]
    fn for_each_while_stops_at_break() {
        let h = heap();
        for i in 0..10u8 {
            h.insert(T, &[i]).unwrap();
        }
        let mut seen = 0;
        h.for_each_while(|_, data| {
            seen += 1;
            if data[0] == 3 {
                std::ops::ControlFlow::Break(())
            } else {
                std::ops::ControlFlow::Continue(())
            }
        })
        .unwrap();
        assert_eq!(seen, 4, "walk must stop at the break, not finish");
        let (rid, bytes) = h.first().unwrap().unwrap();
        assert_eq!(bytes, vec![0]);
        assert!(!h.is_empty().unwrap());
        h.delete(T, rid).unwrap();
        assert_eq!(h.first().unwrap().unwrap().1, vec![1]);
        for (rid, _) in h.scan().unwrap() {
            h.delete(T, rid).unwrap();
        }
        assert!(h.is_empty().unwrap());
        assert!(h.first().unwrap().is_none());
    }

    #[test]
    fn probing_reuses_space_freed_on_last_pages() {
        let h = heap();
        let rec = vec![1u8; 3000];
        let mut rids = Vec::new();
        for _ in 0..8 {
            rids.push(h.insert(T, &rec).unwrap().0);
        }
        let pages_before = h.pages().len();
        // Free two records on the tail pages, re-insert two: no growth.
        h.delete(T, rids[6]).unwrap();
        h.delete(T, rids[7]).unwrap();
        let (_, grew1) = h.insert(T, &rec).unwrap();
        let (_, grew2) = h.insert(T, &rec).unwrap();
        assert!(!grew1 && !grew2);
        assert_eq!(h.pages().len(), pages_before);
    }

    #[test]
    fn with_pages_reattaches_existing_data() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 16));
        let wal = Arc::new(WriteAheadLog::in_memory());
        let h = HeapFile::new(Arc::clone(&pool), Arc::clone(&wal));
        let (rid, _) = h.insert(T, b"survivor").unwrap();
        let pages = h.pages();
        drop(h);
        let h2 = HeapFile::with_pages(pool, wal, pages);
        assert_eq!(h2.get(rid).unwrap(), b"survivor");
    }

    /// Each mutation logs its record and stamps the page with the
    /// record's end LSN; a mutation whose append fails is taken back
    /// off the page and stamps nothing.
    #[test]
    fn mutations_log_and_stamp_their_page() {
        use reach_common::fault::{FaultInjector, FaultPlan, FaultPoint};
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 16));
        let wal = Arc::new(WriteAheadLog::in_memory());
        let h = HeapFile::new(Arc::clone(&pool), Arc::clone(&wal));
        let lsn = |rid: RecordId| pool.with_page(rid.page, |pg| pg.lsn()).unwrap();
        let (rid, _) = h.insert(T, b"v1").unwrap();
        assert_eq!(lsn(rid), wal.tail());
        h.update(T, rid, b"v2-longer").unwrap();
        assert_eq!(lsn(rid), wal.tail());
        let (gone, _) = h.insert(T, b"doomed").unwrap();
        h.delete(T, gone).unwrap();
        assert_eq!(lsn(rid), wal.tail());
        let records: Vec<_> = wal.scan().unwrap().into_iter().map(|(_, r)| r).collect();
        assert_eq!(records.len(), 4);
        assert!(
            matches!(&records[1], WalRecord::Update { before, after, .. }
            if before == b"v1" && after == b"v2-longer")
        );

        // The next append fails: every kind of mutation is taken back.
        let stamped = lsn(rid);
        wal.set_injector(FaultInjector::new(
            FaultPlan::new()
                .fail_at(FaultPoint::WalAppend, 1)
                .fail_at(FaultPoint::WalAppend, 2)
                .fail_at(FaultPoint::WalAppend, 3),
        ));
        assert!(h.update(T, rid, b"v3-much-longer-than-before").is_err());
        assert!(h.delete(T, rid).is_err());
        assert_eq!(h.get(rid).unwrap(), b"v2-longer");
        assert_eq!(lsn(rid), stamped);
        assert!(h.insert(T, b"never").is_err());
        assert_eq!(h.len().unwrap(), 1, "the failed insert left a live record");
        assert_eq!(wal.scan().unwrap().len(), 4);
        // Only the failed insert's slot stays behind, retired and dead.
        let after = pool.with_page(rid.page, |pg| pg.live_count()).unwrap();
        assert_eq!(after, 1);
    }
}
