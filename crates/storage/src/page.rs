//! Slotted pages.
//!
//! Classic layout: a fixed header at offset 0, the slot directory growing
//! *down* from the end of the page, record payloads growing *up* from the
//! header. Slot numbers are stable across record moves (compaction), so a
//! `(PageId, slot)` pair is a durable record address.
//!
//! ```text
//! +--------+----------------- free ---------------+-------+-------+
//! | header | records ...  ->            <- ...    | slot1 | slot0 |
//! +--------+---------------------------------------+-------+------+
//! ```

use reach_common::{PageId, ReachError, Result};

/// Size of every page, in bytes. 8 KiB matches EXODUS's default.
pub const PAGE_SIZE: usize = 8192;

/// Page header: `page_id(8) | lsn(8) | slot_count(2) | free_upper(2)`.
const HEADER_SIZE: usize = 8 + 8 + 2 + 2;
/// Each slot directory entry: `offset(2) | len(2)`.
const SLOT_SIZE: usize = 4;
/// Offset value marking a dead (deleted) slot.
const DEAD: u16 = u16::MAX;

/// Largest record payload a single page can hold.
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

/// An 8 KiB slotted page. The in-memory image is exactly the on-disk
/// image, so pages can be memcpy'd between the buffer pool and the disk.
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A fresh, formatted page.
    pub fn new(id: PageId) -> Self {
        let mut p = Page {
            data: Box::new([0u8; PAGE_SIZE]),
        };
        p.set_id(id);
        p.set_free_upper(HEADER_SIZE as u16);
        p
    }

    /// Reconstruct a page from its raw on-disk image.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() != PAGE_SIZE {
            return Err(ReachError::Io(format!(
                "page image must be {PAGE_SIZE} bytes, got {}",
                bytes.len()
            )));
        }
        let mut data = Box::new([0u8; PAGE_SIZE]);
        data.copy_from_slice(bytes);
        Ok(Page { data })
    }

    /// The raw on-disk image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data[..]
    }

    // ---- header accessors ----

    /// The page's stable identifier, read from the header.
    pub fn id(&self) -> PageId {
        PageId::new(u64::from_le_bytes(self.data[0..8].try_into().unwrap()))
    }

    fn set_id(&mut self, id: PageId) {
        self.data[0..8].copy_from_slice(&id.raw().to_le_bytes());
    }

    /// The end LSN of the last WAL record that changed this page: the
    /// log must be durable up to here before the image may reach disk.
    /// 0 for a page no logged operation has touched.
    pub fn lsn(&self) -> u64 {
        u64::from_le_bytes(self.data[8..16].try_into().unwrap())
    }

    /// Stamp the page with the end LSN of the record that just changed
    /// it.
    pub fn set_lsn(&mut self, lsn: u64) {
        self.data[8..16].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Number of slot directory entries (live and dead).
    pub fn slot_count(&self) -> u16 {
        u16::from_le_bytes(self.data[16..18].try_into().unwrap())
    }

    fn set_slot_count(&mut self, n: u16) {
        self.data[16..18].copy_from_slice(&n.to_le_bytes());
    }

    /// First byte above the record area (records occupy `HEADER..free_upper`).
    fn free_upper(&self) -> u16 {
        u16::from_le_bytes(self.data[18..20].try_into().unwrap())
    }

    fn set_free_upper(&mut self, off: u16) {
        self.data[18..20].copy_from_slice(&off.to_le_bytes());
    }

    // ---- slot directory ----

    fn slot_pos(&self, slot: u16) -> usize {
        PAGE_SIZE - SLOT_SIZE * (slot as usize + 1)
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let pos = self.slot_pos(slot);
        let off = u16::from_le_bytes(self.data[pos..pos + 2].try_into().unwrap());
        let len = u16::from_le_bytes(self.data[pos + 2..pos + 4].try_into().unwrap());
        (off, len)
    }

    fn set_slot_entry(&mut self, slot: u16, off: u16, len: u16) {
        let pos = self.slot_pos(slot);
        self.data[pos..pos + 2].copy_from_slice(&off.to_le_bytes());
        self.data[pos + 2..pos + 4].copy_from_slice(&len.to_le_bytes());
    }

    // ---- free-space accounting ----

    /// Bytes available for a *new* record (payload + one new slot entry).
    pub fn free_space(&self) -> usize {
        let dir_bottom = PAGE_SIZE - SLOT_SIZE * self.slot_count() as usize;
        dir_bottom
            .saturating_sub(self.free_upper() as usize)
            .saturating_sub(SLOT_SIZE)
    }

    /// Whether a record of `len` bytes fits (possibly after compaction).
    ///
    /// Slot numbers are **never reused**: a `(page, slot)` pair names at
    /// most one record for all time. Reusing a slot freed by an
    /// *uncommitted* delete would make physiological undo unsound (the
    /// rollback of the delete would clobber the new occupant), and the
    /// page layer cannot see transaction boundaries — so the directory
    /// only grows (4 bytes per record ever placed on the page; payload
    /// space is still reclaimed by compaction).
    pub fn fits(&self, len: usize) -> bool {
        let live: usize = self.live_bytes();
        let dir = SLOT_SIZE * self.slot_count() as usize;
        PAGE_SIZE - HEADER_SIZE >= live + len + dir + SLOT_SIZE
    }

    fn live_bytes(&self) -> usize {
        (0..self.slot_count())
            .filter_map(|s| {
                let (off, len) = self.slot_entry(s);
                (off != DEAD).then_some(len as usize)
            })
            .sum()
    }

    // ---- record operations ----

    /// Insert a record, returning its slot. Compacts the page first when
    /// fragmentation (from deletes/updates) is what prevents a contiguous
    /// fit.
    pub fn insert(&mut self, payload: &[u8]) -> Result<u16> {
        if payload.len() > MAX_RECORD {
            return Err(ReachError::RecordTooLarge {
                size: payload.len(),
                max: MAX_RECORD,
            });
        }
        if !self.fits(payload.len()) {
            return Err(ReachError::RecordTooLarge {
                size: payload.len(),
                max: self.free_space(),
            });
        }
        let slot = {
            let s = self.slot_count();
            self.set_slot_count(s + 1);
            // Newly claimed directory entry must read as dead until filled.
            self.set_slot_entry(s, DEAD, 0);
            s
        };
        let dir_bottom = PAGE_SIZE - SLOT_SIZE * self.slot_count() as usize;
        if self.free_upper() as usize + payload.len() > dir_bottom {
            self.compact();
        }
        let off = self.free_upper();
        let start = off as usize;
        self.data[start..start + payload.len()].copy_from_slice(payload);
        self.set_free_upper(off + payload.len() as u16);
        self.set_slot_entry(slot, off, payload.len() as u16);
        Ok(slot)
    }

    /// Read the record in `slot`.
    pub fn get(&self, slot: u16) -> Result<&[u8]> {
        if slot >= self.slot_count() {
            return Err(ReachError::SlotNotFound(self.id(), slot));
        }
        let (off, len) = self.slot_entry(slot);
        if off == DEAD {
            return Err(ReachError::SlotNotFound(self.id(), slot));
        }
        Ok(&self.data[off as usize..off as usize + len as usize])
    }

    /// Delete the record in `slot`; the slot number is retired forever.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        self.get(slot)?; // validates
        self.set_slot_entry(slot, DEAD, 0);
        Ok(())
    }

    /// Replace the record in `slot`, keeping the slot number stable.
    pub fn update(&mut self, slot: u16, payload: &[u8]) -> Result<()> {
        if slot >= self.slot_count() || self.slot_entry(slot).0 == DEAD {
            return Err(ReachError::SlotNotFound(self.id(), slot));
        }
        let (off, len) = self.slot_entry(slot);
        if payload.len() <= len as usize {
            // Shrink in place.
            let start = off as usize;
            self.data[start..start + payload.len()].copy_from_slice(payload);
            self.set_slot_entry(slot, off, payload.len() as u16);
            return Ok(());
        }
        // Grow: logically delete then re-place, preserving the slot.
        self.set_slot_entry(slot, DEAD, 0);
        if !self.fits_in_slot(payload.len()) {
            // Roll back the tombstone so the caller sees an unchanged page.
            self.set_slot_entry(slot, off, len);
            return Err(ReachError::RecordTooLarge {
                size: payload.len(),
                max: self.free_space(),
            });
        }
        let dir_bottom = PAGE_SIZE - SLOT_SIZE * self.slot_count() as usize;
        if self.free_upper() as usize + payload.len() > dir_bottom {
            self.compact();
        }
        let new_off = self.free_upper();
        let start = new_off as usize;
        self.data[start..start + payload.len()].copy_from_slice(payload);
        self.set_free_upper(new_off + payload.len() as u16);
        self.set_slot_entry(slot, new_off, payload.len() as u16);
        Ok(())
    }

    /// Force `payload` into a *specific* slot, growing the directory with
    /// dead entries if needed. This is the physiological redo/undo
    /// primitive used by recovery: replaying `Insert{slot}` or undoing
    /// `Delete{slot}` must restore exactly that slot.
    pub fn put_at(&mut self, slot: u16, payload: &[u8]) -> Result<()> {
        if payload.len() > MAX_RECORD {
            return Err(ReachError::RecordTooLarge {
                size: payload.len(),
                max: MAX_RECORD,
            });
        }
        while self.slot_count() <= slot {
            let s = self.slot_count();
            self.set_slot_count(s + 1);
            self.set_slot_entry(s, DEAD, 0);
        }
        if self.slot_entry(slot).0 != DEAD {
            return self.update(slot, payload);
        }
        if !self.fits_in_slot(payload.len()) {
            return Err(ReachError::RecordTooLarge {
                size: payload.len(),
                max: self.free_space(),
            });
        }
        let dir_bottom = PAGE_SIZE - SLOT_SIZE * self.slot_count() as usize;
        if self.free_upper() as usize + payload.len() > dir_bottom {
            self.compact();
        }
        let off = self.free_upper();
        let start = off as usize;
        self.data[start..start + payload.len()].copy_from_slice(payload);
        self.set_free_upper(off + payload.len() as u16);
        self.set_slot_entry(slot, off, payload.len() as u16);
        Ok(())
    }

    /// Replace `cut` bytes at byte `at` of the record in `slot` with
    /// `insert`, keeping the slot — the B-link tree's leaf edit. The
    /// record is edited where it lies when it does not grow, or when it
    /// ends at the top of the record area with room above it; otherwise
    /// it is rebuilt and re-placed like an [`update`](Page::update).
    pub fn splice(&mut self, slot: u16, at: usize, cut: usize, insert: &[u8]) -> Result<()> {
        let len = self.get(slot)?.len();
        if cut > len || at > len - cut {
            return Err(ReachError::Io(format!(
                "splice of {cut} bytes at {at} outside a {len}-byte record"
            )));
        }
        let off = self.slot_entry(slot).0 as usize;
        let new_len = len - cut + insert.len();
        let top = off + len == self.free_upper() as usize;
        let dir_bottom = PAGE_SIZE - SLOT_SIZE * self.slot_count() as usize;
        if new_len > len && !(top && off + new_len <= dir_bottom) {
            let rec = &self.data[off..off + len];
            let image = [&rec[..at], insert, &rec[at + cut..]].concat();
            return self.update(slot, &image);
        }
        self.data
            .copy_within(off + at + cut..off + len, off + at + insert.len());
        self.data[off + at..off + at + insert.len()].copy_from_slice(insert);
        if top {
            self.set_free_upper((off + new_len) as u16);
        }
        self.set_slot_entry(slot, off as u16, new_len as u16);
        Ok(())
    }

    /// Fit check for a record that reuses an existing (dead) slot.
    fn fits_in_slot(&self, len: usize) -> bool {
        let live = self.live_bytes();
        let dir = SLOT_SIZE * self.slot_count() as usize;
        PAGE_SIZE - HEADER_SIZE >= live + len + dir
    }

    /// Live slot numbers in ascending order.
    pub fn live_slots(&self) -> impl Iterator<Item = u16> + '_ {
        (0..self.slot_count()).filter(|&s| self.slot_entry(s).0 != DEAD)
    }

    /// Number of live records.
    pub fn live_count(&self) -> usize {
        self.live_slots().count()
    }

    /// Slide all live records together to reclaim holes left by deletes.
    /// Slot numbers are preserved; only offsets change.
    fn compact(&mut self) {
        let mut records: Vec<(u16, Vec<u8>)> = (0..self.slot_count())
            .filter_map(|s| {
                let (off, len) = self.slot_entry(s);
                (off != DEAD).then(|| (s, self.data[off as usize..(off + len) as usize].to_vec()))
            })
            .collect();
        let mut cursor = HEADER_SIZE;
        for (slot, payload) in records.drain(..) {
            self.data[cursor..cursor + payload.len()].copy_from_slice(&payload);
            self.set_slot_entry(slot, cursor as u16, payload.len() as u16);
            cursor += payload.len();
        }
        self.set_free_upper(cursor as u16);
    }
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page {
            data: self.data.clone(),
        }
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("id", &self.id())
            .field("lsn", &self.lsn())
            .field("slots", &self.slot_count())
            .field("live", &self.live_count())
            .field("free", &self.free_space())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Page {
        Page::new(PageId::new(1))
    }

    #[test]
    fn insert_then_get_round_trips() {
        let mut p = page();
        let s = p.insert(b"hello").unwrap();
        assert_eq!(p.get(s).unwrap(), b"hello");
        assert_eq!(p.live_count(), 1);
    }

    #[test]
    fn multiple_records_get_distinct_slots() {
        let mut p = page();
        let a = p.insert(b"aaa").unwrap();
        let b = p.insert(b"bbbb").unwrap();
        assert_ne!(a, b);
        assert_eq!(p.get(a).unwrap(), b"aaa");
        assert_eq!(p.get(b).unwrap(), b"bbbb");
    }

    #[test]
    fn deleted_slots_are_never_reused() {
        let mut p = page();
        let a = p.insert(b"gone soon").unwrap();
        p.delete(a).unwrap();
        assert!(p.get(a).is_err());
        let b = p.insert(b"replacement").unwrap();
        assert_ne!(a, b, "slot identity is forever (undo soundness)");
        assert_eq!(p.get(b).unwrap(), b"replacement");
        assert!(p.get(a).is_err(), "old slot stays dead");
    }

    #[test]
    fn update_in_place_when_shrinking() {
        let mut p = page();
        let s = p.insert(b"0123456789").unwrap();
        p.update(s, b"xyz").unwrap();
        assert_eq!(p.get(s).unwrap(), b"xyz");
    }

    #[test]
    fn update_grows_with_stable_slot() {
        let mut p = page();
        let s = p.insert(b"tiny").unwrap();
        let other = p.insert(b"other").unwrap();
        let big = vec![7u8; 500];
        p.update(s, &big).unwrap();
        assert_eq!(p.get(s).unwrap(), &big[..]);
        assert_eq!(p.get(other).unwrap(), b"other");
    }

    #[test]
    fn splice_edits_in_place_or_re_places() {
        let mut p = page();
        let s = p.insert(b"abcdef").unwrap();
        // Top record: grows and shrinks where it lies.
        p.splice(s, 3, 0, b"XYZ").unwrap();
        assert_eq!(p.get(s).unwrap(), b"abcXYZdef");
        p.splice(s, 0, 2, b"").unwrap();
        assert_eq!(p.get(s).unwrap(), b"cXYZdef");
        // A record below another must move to grow; its neighbour and
        // its slot stay put.
        let other = p.insert(b"other").unwrap();
        p.splice(s, 7, 0, b"!").unwrap();
        assert_eq!(p.get(s).unwrap(), b"cXYZdef!");
        assert_eq!(p.get(other).unwrap(), b"other");
        p.splice(s, 1, 3, b"xy").unwrap();
        assert_eq!(p.get(s).unwrap(), b"cxydef!");
        assert!(p.splice(s, 6, 2, b"").is_err(), "cut past the record end");
        assert_eq!(p.get(s).unwrap(), b"cxydef!");
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = page();
        let huge = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            p.insert(&huge),
            Err(ReachError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn fills_up_and_reports_full() {
        let mut p = page();
        let rec = vec![1u8; 1000];
        let mut n = 0;
        while p.fits(rec.len()) {
            p.insert(&rec).unwrap();
            n += 1;
        }
        assert!(n >= 7, "8 KiB page should hold at least 7 KiB of records");
        assert!(p.insert(&rec).is_err());
    }

    #[test]
    fn compaction_reclaims_holes() {
        let mut p = page();
        let rec = vec![2u8; 1000];
        let mut slots = Vec::new();
        while p.fits(rec.len()) {
            slots.push(p.insert(&rec).unwrap());
        }
        // Free every other record, then a record of double size must fit
        // again even though the free space is fragmented.
        for (i, s) in slots.iter().enumerate() {
            if i % 2 == 0 {
                p.delete(*s).unwrap();
            }
        }
        let big = vec![3u8; 1800];
        let s = p.insert(&big).unwrap();
        assert_eq!(p.get(s).unwrap(), &big[..]);
        // Survivors intact after compaction.
        for (i, s) in slots.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(p.get(*s).unwrap(), &rec[..]);
            }
        }
    }

    #[test]
    fn update_failure_leaves_record_intact() {
        let mut p = page();
        let filler = vec![1u8; 3000];
        p.insert(&filler).unwrap();
        p.insert(&filler).unwrap();
        let s = p.insert(b"small").unwrap();
        let too_big = vec![9u8; 4000];
        assert!(p.update(s, &too_big).is_err());
        assert_eq!(p.get(s).unwrap(), b"small");
    }

    #[test]
    fn image_round_trips_through_bytes() {
        let mut p = page();
        p.insert(b"persist me").unwrap();
        p.set_lsn(77);
        let q = Page::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(q.id(), p.id());
        assert_eq!(q.lsn(), 77);
        assert_eq!(q.get(0).unwrap(), b"persist me");
    }

    #[test]
    fn from_bytes_rejects_wrong_size() {
        assert!(Page::from_bytes(&[0u8; 16]).is_err());
    }

    #[test]
    fn get_out_of_range_slot_errors() {
        let p = page();
        assert!(matches!(p.get(3), Err(ReachError::SlotNotFound(_, 3))));
    }

    #[test]
    fn put_at_grows_directory_and_restores_slot() {
        let mut p = page();
        p.put_at(3, b"slot three").unwrap();
        assert_eq!(p.get(3).unwrap(), b"slot three");
        assert!(p.get(0).is_err(), "intermediate slots stay dead");
        assert_eq!(p.slot_count(), 4);
        // put_at over a live slot behaves like update.
        p.put_at(3, b"replaced").unwrap();
        assert_eq!(p.get(3).unwrap(), b"replaced");
        // A later insert takes a fresh slot; the dead ones stay dead.
        let s = p.insert(b"fill").unwrap();
        assert_eq!(s, 4);
    }

    #[test]
    fn empty_record_is_legal() {
        let mut p = page();
        let s = p.insert(b"").unwrap();
        assert_eq!(p.get(s).unwrap(), b"");
        p.delete(s).unwrap();
        assert!(p.get(s).is_err());
    }
}
