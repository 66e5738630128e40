//! A WAL-logged, buffer-pool-resident B+Tree — the persistent half of
//! the Indexing PM's sentry-maintained extent indexes.
//!
//! The tree is a *multimap* from memcomparable byte keys to `u64`
//! object ids: entries are `(key, oid)` pairs ordered pairwise
//! (byte-lexicographic key, then oid), so duplicate keys are natural
//! and deletion is exact. Each node occupies slot 0 of one pooled page,
//! so index pages ride the existing buffer-pool machinery for free:
//! they appear in the dirty-page table, fuzzy checkpoints capture their
//! rec-LSNs, eviction honors the WAL flush barrier, and log truncation
//! bounds apply unchanged.
//!
//! Searches read a node in place: inside the page latch, a `View`
//! parses the node's links and count and walks its entries as borrowed
//! bytes, so a descent, a probe or a scan decodes no node and copies
//! only the pairs it returns. Only the structure changes (node
//! creation, splits, root growth, a separator posted to a parent)
//! decode a whole `Node`.
//!
//! # Crash safety: right links instead of physical undo
//!
//! Every tree page change is logged under
//! [`SYSTEM_TXN`](crate::sm::StorageManager) inside the page latch. A
//! leaf insert or delete that stays within its node splices one entry
//! and logs it *physiologically* — a
//! [`LeafInsert`](crate::wal::WalRecord::LeafInsert) /
//! [`LeafRemove`](crate::wal::WalRecord::LeafRemove) naming the page and
//! the pair; node creation and splits log whole node images (an
//! `Insert`/`Update` of slot 0). System records are always redo winners
//! and never undone, and redo applies each only to a page whose LSN is
//! below the record's end, so recovery replays tree structure exactly
//! as it was built — but a crash can still land *between* the page
//! writes of one split. The tree therefore keeps Lehman–Yao style
//! right-sibling links with exclusive high keys and writes splits
//! right-node-first: after any prefix of a split's page writes the tree
//! is searchable (a reader that overshoots a node's high key moves
//! right), at worst leaving an orphan page or a separator the parent
//! has not absorbed yet. That is why *logical* user-level operations
//! ([`IndexInsert`](crate::wal::WalRecord::IndexInsert) /
//! [`IndexDelete`](crate::wal::WalRecord::IndexDelete)) never need
//! physical undo: undoing one simply re-descends the current (always
//! consistent) tree and applies the inverse, generating fresh system
//! page writes.
//!
//! Deletion is lazy, PostgreSQL-style: entries are removed in place and
//! structurally empty nodes stay linked (scans skip them, and a later
//! insert into their key range reuses them). "Merges" therefore cannot
//! tear either — there are no multi-page delete-side structure changes
//! to tear.

use crate::buffer::BufferPool;
use crate::heap::{log_applied, put_logged};
use crate::page::{Page, MAX_RECORD};
use crate::wal::{WalRecord, WriteAheadLog};
use reach_common::codec::{put_bytes, put_u32, put_u64, Reader};
use reach_common::sync::Mutex;
use reach_common::{PageId, ReachError, Result};
use std::ops::{Bound, ControlFlow};
use std::sync::Arc;

/// Largest key the tree accepts. Keeps every node's worst-case
/// transient size (split threshold plus one oversized entry) well under
/// [`MAX_RECORD`], so a node image always fits in slot 0 of a page.
pub const MAX_KEY: usize = 1024;

/// Split a node once its serialized image exceeds this. Half the page
/// budget: even a node one `MAX_KEY` entry past the threshold still
/// fits a page with room to spare.
const SPLIT_BYTES: usize = MAX_RECORD / 2;

/// One `(key, oid)` pair — the unit the multimap stores and orders.
type Entry = (Vec<u8>, u64);

/// Encoded size of one leaf entry: key length, key, oid.
fn entry_len(key: &[u8]) -> usize {
    4 + key.len() + 8
}

fn corrupt(what: &str) -> ReachError {
    ReachError::Io(format!("index node corrupt: {what}"))
}

/// A search position in `(key, oid)` pair order. Mutations descend to
/// an exact pair; range bounds descend to "just before the first entry
/// with `key`" or "just after the last". Encodes `Bound` semantics
/// without inventing sentinel oids.
#[derive(Clone, Copy)]
enum Pos<'a> {
    /// Just before `(key, 0)`.
    Before(&'a [u8]),
    /// Exactly at `(key, oid)`.
    Pair(&'a [u8], u64),
    /// Just after `(key, u64::MAX)`.
    AfterAll(&'a [u8]),
}

impl<'a> Pos<'a> {
    /// Does this position fall strictly before separator pair
    /// `(key, oid)`? A position equal to a separator belongs to the
    /// *right* child: the separator is always the first pair of the
    /// right node.
    fn lt_pair(&self, key: &[u8], oid: u64) -> bool {
        use std::cmp::Ordering::*;
        match self {
            Pos::Before(k) => matches!(k.cmp(&key), Less | Equal),
            Pos::Pair(k, o) => match k.cmp(&key) {
                Less => true,
                Equal => *o < oid,
                Greater => false,
            },
            Pos::AfterAll(k) => matches!(k.cmp(&key), Less),
        }
    }
}

/// A borrowed view of an encoded node: the tag, links and count are
/// read, the entries (leaf) or children and separators (internal) stay
/// bytes that a search walks in place with the same bounded [`Reader`]
/// a full decode uses.
struct View<'a> {
    img: &'a [u8],
    is_leaf: bool,
    right: Option<PageId>,
    high: Option<(&'a [u8], u64)>,
    /// Byte offset of the `u32` count: entries of a leaf, children of
    /// an internal node. The entries or children follow it.
    count_at: usize,
    count: usize,
}

impl<'a> View<'a> {
    fn new(img: &'a [u8]) -> Result<View<'a>> {
        let mut r = Reader::new(img, ReachError::Io);
        let tag = r.u8()?;
        let right = if r.u8()? == 1 {
            Some(PageId::new(r.u64()?))
        } else {
            None
        };
        let high = if r.u8()? == 1 {
            Some((r.bytes()?, r.u64()?))
        } else {
            None
        };
        let count_at = r.offset();
        let count = match tag {
            // An entry is at least a key length and an oid.
            1 => r.count(12)?,
            // Every child is at least its page id.
            0 => match r.count(8)? {
                0 => return Err(r.error("internal index node without children")),
                n => n,
            },
            _ => return Err(r.error(format!("unknown index node tag {tag}"))),
        };
        Ok(View {
            img,
            is_leaf: tag == 1,
            right,
            high,
            count_at,
            count,
        })
    }

    /// A reader at the first entry (leaf) or first child (internal).
    fn body(&self) -> Reader<'a> {
        Reader::new(&self.img[self.count_at + 4..], ReachError::Io)
    }

    fn leaf(&self) -> Result<&Self> {
        match self.is_leaf {
            true => Ok(self),
            false => Err(corrupt("a leaf position holds an internal node")),
        }
    }

    fn right_link(&self) -> Result<PageId> {
        self.right
            .ok_or_else(|| corrupt("a bounded node has no right link"))
    }

    /// Does `pos` lie past this node's range (at or beyond its high
    /// key), so that a search must move right?
    fn overshot(&self, pos: Pos<'_>) -> bool {
        self.high.is_some_and(|(key, oid)| !pos.lt_pair(key, oid))
    }

    /// Walk a leaf's pairs in order, each with the byte offset it
    /// starts at, until `f` breaks. A walk that reaches the end also
    /// checks that no bytes follow the last pair, and returns the
    /// offset just past it.
    fn walk<T>(
        &self,
        mut f: impl FnMut(usize, &'a [u8], u64) -> ControlFlow<T>,
    ) -> Result<ControlFlow<T, usize>> {
        let mut r = self.body();
        let mut at = self.count_at + 4;
        for _ in 0..self.count {
            let key = r.bytes()?;
            let oid = r.u64()?;
            if let ControlFlow::Break(t) = f(at, key, oid) {
                return Ok(ControlFlow::Break(t));
            }
            at += entry_len(key);
        }
        r.finish()?;
        Ok(ControlFlow::Continue(at))
    }

    /// Whether a leaf holds `(key, oid)`, and the byte offset where it
    /// starts or would be spliced in.
    fn locate(&self, key: &[u8], oid: u64) -> Result<(bool, usize)> {
        use std::cmp::Ordering::*;
        Ok(
            match self.walk(|at, k, o| match (k, o).cmp(&(key, oid)) {
                Less => ControlFlow::Continue(()),
                Equal => ControlFlow::Break((true, at)),
                Greater => ControlFlow::Break((false, at)),
            })? {
                ControlFlow::Break(found) => found,
                ControlFlow::Continue(end) => (false, end),
            },
        )
    }

    /// The child of an internal node whose range holds `pos`.
    fn child(&self, pos: Pos<'_>) -> Result<PageId> {
        let mut r = self.body();
        let mut child = r.u64()?;
        for _ in 1..self.count {
            let (key, oid) = (r.bytes()?, r.u64()?);
            if pos.lt_pair(key, oid) {
                break;
            }
            child = r.u64()?;
        }
        Ok(PageId::new(child))
    }
}

/// Splice `(key, oid)` into (`insert`) or out of the leaf node in slot 0
/// of `pg`, and patch its entry count — the one leaf edit behind an
/// insert or delete that stays within its node, the redo of a leaf
/// record and the undo of a failed append. The pair must be absent for
/// an insert and present for a removal: a leaf record that does not
/// match its page is corruption, not a no-op.
pub(crate) fn leaf_edit(pg: &mut Page, key: &[u8], oid: u64, insert: bool) -> Result<()> {
    let (found, at, count_at, count) = {
        let v = View::new(pg.get(0)?)?;
        let (found, at) = v.leaf()?.locate(key, oid)?;
        (found, at, v.count_at, v.count)
    };
    if found == insert {
        return Err(corrupt(if insert {
            "a leaf insert finds its pair present"
        } else {
            "a leaf removal finds its pair absent"
        }));
    }
    let count = if insert {
        let mut entry = Vec::with_capacity(entry_len(key));
        put_bytes(&mut entry, key);
        put_u64(&mut entry, oid);
        pg.splice(0, at, 0, &entry)?;
        count + 1
    } else {
        pg.splice(0, at, entry_len(key), &[])?;
        count - 1
    };
    pg.splice(0, count_at, 4, &(count as u32).to_le_bytes())
}

/// An in-memory node image, (de)serialized to slot 0 of its page.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        /// Right sibling in the leaf chain (range scans follow this).
        right: Option<PageId>,
        /// Exclusive upper bound of this node's key range; `None` on
        /// the rightmost node of the level (+infinity).
        high: Option<Entry>,
        /// Sorted `(key, oid)` pairs.
        entries: Vec<Entry>,
    },
    Internal {
        /// Right sibling at this level (move-right target).
        right: Option<PageId>,
        /// Exclusive upper bound, as for leaves.
        high: Option<Entry>,
        /// `children.len() == seps.len() + 1`; child `i` covers
        /// positions in `[seps[i-1], seps[i])` within the node range.
        children: Vec<PageId>,
        /// Separator pairs between consecutive children.
        seps: Vec<Entry>,
    },
}

impl Node {
    /// Number of entries (leaf) or separators (internal) — the split
    /// knob counts these.
    fn load(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Internal { seps, .. } => seps.len(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        fn put_pair(out: &mut Vec<u8>, e: &Entry) {
            put_bytes(out, &e.0);
            put_u64(out, e.1);
        }
        fn put_links(out: &mut Vec<u8>, right: &Option<PageId>, high: &Option<Entry>) {
            match right {
                Some(p) => {
                    out.push(1);
                    put_u64(out, p.raw());
                }
                None => out.push(0),
            }
            match high {
                Some(e) => {
                    out.push(1);
                    put_pair(out, e);
                }
                None => out.push(0),
            }
        }
        let mut out = Vec::with_capacity(64);
        match self {
            Node::Leaf {
                right,
                high,
                entries,
            } => {
                out.push(1);
                put_links(&mut out, right, high);
                put_u32(&mut out, entries.len() as u32);
                for e in entries {
                    put_pair(&mut out, e);
                }
            }
            Node::Internal {
                right,
                high,
                children,
                seps,
            } => {
                out.push(0);
                put_links(&mut out, right, high);
                put_u32(&mut out, children.len() as u32);
                put_u64(&mut out, children[0].raw());
                for (s, c) in seps.iter().zip(children[1..].iter()) {
                    put_pair(&mut out, s);
                    put_u64(&mut out, c.raw());
                }
            }
        }
        out
    }

    fn decode(buf: &[u8]) -> Result<Node> {
        fn pair(r: &mut Reader<'_>) -> Result<Entry> {
            Ok((r.bytes()?.to_vec(), r.u64()?))
        }
        let v = View::new(buf)?;
        let mut r = v.body();
        let (right, high) = (v.right, v.high.map(|(k, o)| (k.to_vec(), o)));
        let node = if v.is_leaf {
            let mut entries = Vec::with_capacity(v.count);
            for _ in 0..v.count {
                entries.push(pair(&mut r)?);
            }
            Node::Leaf {
                right,
                high,
                entries,
            }
        } else {
            let mut children = Vec::with_capacity(v.count);
            let mut seps = Vec::with_capacity(v.count - 1);
            children.push(PageId::new(r.u64()?));
            for _ in 1..v.count {
                seps.push(pair(&mut r)?);
                children.push(PageId::new(r.u64()?));
            }
            Node::Internal {
                right,
                high,
                children,
                seps,
            }
        };
        r.finish()?;
        Ok(node)
    }
}

/// One step of a descent.
enum Step {
    /// Past the node's high key: move to its right sibling.
    Right(PageId),
    /// Down into this child.
    Down(PageId),
    /// The node is the leaf whose range holds the position.
    Leaf,
}

/// The persistent B+Tree. Stateless apart from the root page id; all
/// node state lives in the buffer pool. Callers must serialize
/// *mutating* operations per tree (the storage manager holds a lock
/// around its index catalog ops); concurrent readers of an otherwise
/// quiescent tree are fine.
pub struct BTree {
    pool: Arc<BufferPool>,
    wal: Arc<WriteAheadLog>,
    root: Mutex<PageId>,
    /// Test knob: split once a node holds this many entries/separators,
    /// regardless of byte size — forces boundary fanouts cheaply.
    max_node_entries: Option<usize>,
}

impl BTree {
    /// Create an empty tree: one leaf root.
    pub fn create(
        pool: Arc<BufferPool>,
        wal: Arc<WriteAheadLog>,
        max_node_entries: Option<usize>,
    ) -> Result<BTree> {
        let root = pool.allocate()?;
        let tree = BTree {
            pool,
            wal,
            root: Mutex::new(root),
            max_node_entries,
        };
        let empty = Node::Leaf {
            right: None,
            high: None,
            entries: Vec::new(),
        };
        tree.write_node(root, empty.encode())?;
        Ok(tree)
    }

    /// Open an existing tree at `root` (as persisted in the index
    /// catalog). A stale root — one superseded by a root split whose
    /// catalog update was lost in a crash — is safe: the old root is
    /// the leftmost node of its level and right links reach everything.
    pub fn open(
        pool: Arc<BufferPool>,
        wal: Arc<WriteAheadLog>,
        root: PageId,
        max_node_entries: Option<usize>,
    ) -> BTree {
        BTree {
            pool,
            wal,
            root: Mutex::new(root),
            max_node_entries,
        }
    }

    /// Current root page id — callers persist this in their catalog
    /// after mutations (root splits move it).
    pub fn root(&self) -> PageId {
        *self.root.lock()
    }

    /// Run `f` on a view of node `id`, inside its page latch.
    fn view<R>(&self, id: PageId, f: impl FnOnce(&View<'_>) -> Result<R>) -> Result<R> {
        self.pool.with_page(id, |pg| f(&View::new(pg.get(0)?)?))?
    }

    fn read_node(&self, id: PageId) -> Result<Node> {
        self.pool.with_page(id, |pg| Node::decode(pg.get(0)?))?
    }

    /// Write a whole node image to slot 0 of its page, logging the
    /// write physically under the system transaction inside the page
    /// latch (the same step as the heap paths: the record is appended
    /// and the page stamped with its end LSN before any eviction can see
    /// the new image).
    fn write_node(&self, id: PageId, image: Vec<u8>) -> Result<()> {
        put_logged(&self.pool, &self.wal, crate::sm::SYSTEM_TXN, id, 0, image)?;
        self.count_node_write();
        Ok(())
    }

    /// Splice `(key, oid)` into (`insert`) or out of leaf `page` and log
    /// it as a `LeafInsert` or `LeafRemove`, in one hold of the page
    /// latch.
    fn edit_leaf(&self, page: PageId, key: &[u8], oid: u64, insert: bool) -> Result<()> {
        let rec = if insert {
            WalRecord::LeafInsert {
                page,
                key: key.to_vec(),
                oid,
            }
        } else {
            WalRecord::LeafRemove {
                page,
                key: key.to_vec(),
                oid,
            }
        };
        self.pool.with_page_mut(page, |pg| {
            leaf_edit(pg, key, oid, insert)?;
            log_applied(pg, &self.wal, &rec)
        })??;
        self.count_node_write();
        Ok(())
    }

    fn count_node_write(&self) {
        let m = self.pool.metrics();
        if m.on() {
            m.index.node_writes.inc();
        }
    }

    /// Would a node of `load` entries (or separators) and `bytes`
    /// encoded bytes have to split?
    fn overflows(&self, load: usize, bytes: usize) -> bool {
        self.max_node_entries.is_some_and(|cap| load > cap) || bytes > SPLIT_BYTES
    }

    /// Descend from the root toward `pos`, moving right past split
    /// siblings, returning the leaf page id and the stack of internal
    /// pages traversed (deepest last).
    fn descend(&self, pos: Pos<'_>) -> Result<(PageId, Vec<PageId>)> {
        let mut path = Vec::new();
        let mut id = self.root();
        loop {
            let step = self.view(id, |v| {
                Ok(if v.overshot(pos) {
                    // A split moved our range to the right sibling
                    // before the parent absorbed the separator.
                    Step::Right(v.right_link()?)
                } else if v.is_leaf {
                    Step::Leaf
                } else {
                    Step::Down(v.child(pos)?)
                })
            })?;
            match step {
                Step::Right(right) => id = right,
                Step::Down(child) => {
                    path.push(id);
                    id = child;
                }
                Step::Leaf => return Ok((id, path)),
            }
        }
    }

    /// Split `id` (already oversized, image in `node`) into itself and
    /// a fresh right sibling; returns the separator pair and the new
    /// sibling id. Writes right node first so every crash prefix is
    /// searchable via right links.
    fn split(&self, id: PageId, node: Node) -> Result<(Entry, PageId)> {
        let new_id = self.pool.allocate()?;
        let (left, right_node, sep) = match node {
            Node::Leaf {
                right,
                high,
                mut entries,
            } => {
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid);
                let sep = right_entries[0].clone();
                (
                    Node::Leaf {
                        right: Some(new_id),
                        high: Some(sep.clone()),
                        entries,
                    },
                    Node::Leaf {
                        right,
                        high,
                        entries: right_entries,
                    },
                    sep,
                )
            }
            Node::Internal {
                right,
                high,
                mut children,
                mut seps,
            } => {
                // Push up the middle separator: left keeps children
                // [..=mid], right takes [mid+1..].
                let mid = seps.len() / 2;
                let right_seps = seps.split_off(mid + 1);
                let sep = seps.pop().expect("internal split needs >= 2 seps");
                let right_children = children.split_off(mid + 1);
                (
                    Node::Internal {
                        right: Some(new_id),
                        high: Some(sep.clone()),
                        children,
                        seps,
                    },
                    Node::Internal {
                        right,
                        high,
                        children: right_children,
                        seps: right_seps,
                    },
                    sep,
                )
            }
        };
        self.write_node(new_id, right_node.encode())?;
        self.write_node(id, left.encode())?;
        let m = self.pool.metrics();
        if m.on() {
            m.index.node_splits.inc();
        }
        Ok((sep, new_id))
    }

    /// Insert separator `sep` (pointing at `child`) into the parent
    /// level, walking right from the remembered `parent` if splits
    /// moved the range, splitting upward as needed. An empty remaining
    /// `path` means the split reached the old root: grow a new one.
    fn insert_sep(&self, mut path: Vec<PageId>, mut sep: Entry, mut child: PageId) -> Result<()> {
        loop {
            let Some(mut id) = path.pop() else {
                // Root split: the old root keeps its page (it is the
                // leftmost node of its level); a fresh page becomes the
                // new root above it.
                let old_root = self.root();
                let new_root = self.pool.allocate()?;
                let root = Node::Internal {
                    right: None,
                    high: None,
                    children: vec![old_root, child],
                    seps: vec![sep],
                };
                self.write_node(new_root, root.encode())?;
                *self.root.lock() = new_root;
                let m = self.pool.metrics();
                if m.on() {
                    m.index.root_splits.inc();
                }
                return Ok(());
            };
            // Move right to the node whose range covers the separator.
            let pos = Pos::Pair(&sep.0, sep.1);
            while let Some(right) = self.view(id, |v| {
                Ok(match v.overshot(pos) {
                    true => Some(v.right_link()?),
                    false => None,
                })
            })? {
                id = right;
            }
            let mut node = self.read_node(id)?;
            let Node::Internal {
                ref mut children,
                ref mut seps,
                ..
            } = node
            else {
                return Err(corrupt("a separator landed on a leaf"));
            };
            let at = seps.binary_search_by(|s| s.cmp(&sep)).unwrap_or_else(|i| i);
            seps.insert(at, sep);
            children.insert(at + 1, child);
            let image = node.encode();
            if !self.overflows(node.load(), image.len()) {
                return self.write_node(id, image);
            }
            let (up_sep, up_child) = self.split(id, node)?;
            sep = up_sep;
            child = up_child;
        }
    }

    /// Insert `(key, oid)`. Returns `false` (and writes nothing) if the
    /// pair is already present.
    pub fn insert(&self, key: &[u8], oid: u64) -> Result<bool> {
        self.insert_with(key, oid, || Ok(()))
    }

    /// [`BTree::insert`] with one descent for the probe and the change:
    /// `first` runs once the pair is known to be absent and before any
    /// page changes (the storage manager appends its logical record
    /// there); its error aborts the insert untouched.
    pub fn insert_with(
        &self,
        key: &[u8],
        oid: u64,
        first: impl FnOnce() -> Result<()>,
    ) -> Result<bool> {
        if key.len() > MAX_KEY {
            return Err(ReachError::RecordTooLarge {
                size: key.len(),
                max: MAX_KEY,
            });
        }
        let (leaf, path) = self.descend(Pos::Pair(key, oid))?;
        let fits = self.view(leaf, |v| {
            let (found, _) = v.leaf()?.locate(key, oid)?;
            Ok((!found).then(|| !self.overflows(v.count + 1, v.img.len() + entry_len(key))))
        })?;
        let Some(fits) = fits else {
            return Ok(false);
        };
        first()?;
        if fits {
            self.edit_leaf(leaf, key, oid, true)?;
            return Ok(true);
        }
        let mut node = self.read_node(leaf)?;
        let Node::Leaf {
            ref mut entries, ..
        } = node
        else {
            return Err(corrupt("a leaf position holds an internal node"));
        };
        let pair = (key.to_vec(), oid);
        let at = entries.binary_search(&pair).unwrap_or_else(|i| i);
        entries.insert(at, pair);
        let (sep, new_right) = self.split(leaf, node)?;
        self.insert_sep(path, sep, new_right)?;
        Ok(true)
    }

    /// Delete `(key, oid)`. Returns `false` if absent. Lazy: the node
    /// keeps its place in the tree even when it empties.
    pub fn delete(&self, key: &[u8], oid: u64) -> Result<bool> {
        self.delete_with(key, oid, || Ok(()))
    }

    /// [`BTree::delete`] with one descent for the probe and the change;
    /// `first` runs as for [`BTree::insert_with`].
    pub fn delete_with(
        &self,
        key: &[u8],
        oid: u64,
        first: impl FnOnce() -> Result<()>,
    ) -> Result<bool> {
        let (leaf, _) = self.descend(Pos::Pair(key, oid))?;
        if !self.view(leaf, |v| Ok(v.leaf()?.locate(key, oid)?.0))? {
            return Ok(false);
        }
        first()?;
        self.edit_leaf(leaf, key, oid, false)?;
        Ok(true)
    }

    /// All oids stored under exactly `key`, ascending.
    pub fn lookup(&self, key: &[u8]) -> Result<Vec<u64>> {
        let m = self.pool.metrics();
        if m.on() {
            m.index.lookups.inc();
        }
        let mut out = Vec::new();
        self.scan(Bound::Included(key), Bound::Included(key), |_, oid| {
            out.push(oid)
        })?;
        Ok(out)
    }

    /// Range scan in ascending `(key, oid)` order, with `Bound`
    /// semantics matching the query planner's (`Excluded` skips every
    /// oid under that key).
    pub fn range(&self, low: Bound<&[u8]>, high: Bound<&[u8]>) -> Result<Vec<Entry>> {
        let m = self.pool.metrics();
        if m.on() {
            m.index.range_scans.inc();
        }
        let mut out = Vec::new();
        self.scan(low, high, |key, oid| out.push((key.to_vec(), oid)))?;
        Ok(out)
    }

    /// Hand every pair within the bounds to `f`, in order, borrowed
    /// from its leaf inside the page latch.
    fn scan(
        &self,
        low: Bound<&[u8]>,
        high: Bound<&[u8]>,
        mut f: impl FnMut(&[u8], u64),
    ) -> Result<()> {
        let mut id = match low {
            Bound::Included(k) => self.descend(Pos::Before(k))?.0,
            Bound::Excluded(k) => self.descend(Pos::AfterAll(k))?.0,
            Bound::Unbounded => self.leftmost_leaf()?,
        };
        loop {
            let next = self.view(id, |v| {
                let end = v.leaf()?.walk(|_, key, oid| {
                    let past_low = match low {
                        Bound::Included(l) => key >= l,
                        Bound::Excluded(l) => key > l,
                        Bound::Unbounded => true,
                    };
                    let within_high = match high {
                        Bound::Included(h) => key <= h,
                        Bound::Excluded(h) => key < h,
                        Bound::Unbounded => true,
                    };
                    if !within_high {
                        return ControlFlow::Break(());
                    }
                    if past_low {
                        f(key, oid);
                    }
                    ControlFlow::Continue(())
                })?;
                Ok(end.is_continue().then_some(v.right).flatten())
            })?;
            match next {
                Some(right) => id = right,
                None => return Ok(()),
            }
        }
    }

    /// Total number of `(key, oid)` pairs (walks the leaf chain).
    pub fn len(&self) -> Result<usize> {
        let mut n = 0usize;
        let mut id = self.leftmost_leaf()?;
        loop {
            let right = self.view(id, |v| {
                n += v.leaf()?.count;
                Ok(v.right)
            })?;
            match right {
                Some(r) => id = r,
                None => return Ok(n),
            }
        }
    }

    /// Whether the tree holds no pairs.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Tree height (levels from root to leaf), for tests and stats.
    pub fn depth(&self) -> Result<usize> {
        self.leftmost().map(|(_, depth)| depth)
    }

    fn leftmost_leaf(&self) -> Result<PageId> {
        self.leftmost().map(|(leaf, _)| leaf)
    }

    /// Follow first children from the root to the leftmost leaf;
    /// returns it with the number of levels passed.
    fn leftmost(&self) -> Result<(PageId, usize)> {
        let mut id = self.root();
        let mut depth = 1usize;
        while let Some(child) = self.view(id, |v| {
            Ok(match v.is_leaf {
                true => None,
                false => Some(PageId::new(v.body().u64()?)),
            })
        })? {
            id = child;
            depth += 1;
        }
        Ok((id, depth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use std::collections::BTreeSet;

    fn fixture() -> (Arc<BufferPool>, Arc<WriteAheadLog>) {
        let disk: Arc<dyn crate::disk::StableStorage> = Arc::new(MemDisk::new());
        let pool = Arc::new(BufferPool::new(disk, 64));
        let wal = Arc::new(WriteAheadLog::in_memory());
        (pool, wal)
    }

    fn key(i: u32) -> Vec<u8> {
        format!("k{i:08}").into_bytes()
    }

    fn sample_nodes() -> [Node; 2] {
        [
            Node::Leaf {
                right: Some(PageId::new(5)),
                high: Some((b"zz".to_vec(), 9)),
                entries: vec![(b"a".to_vec(), 1), (b"b\0".to_vec(), 2)],
            },
            Node::Internal {
                right: None,
                high: None,
                children: vec![PageId::new(3), PageId::new(4), PageId::new(6)],
                seps: vec![(b"m".to_vec(), 10), (b"t".to_vec(), 11)],
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
    fn node_format_is_pinned() {
        let [leaf, internal] = sample_nodes();
        assert_eq!(digest(&leaf.encode()), 0x5bc1328da8a04f2b);
        assert_eq!(digest(&internal.encode()), 0xc7070c4cb8c24403);
    }

    #[test]
    fn a_count_the_node_cannot_hold_is_corruption() {
        // tag (leaf 1, internal 0), no right link, no high key, count.
        for tag in [1u8, 0] {
            let buf = [&[tag, 0, 0][..], &u32::MAX.to_le_bytes()].concat();
            let got = Node::decode(&buf);
            assert!(matches!(got, Err(ReachError::Io(_))), "{got:?}");
        }
    }

    #[test]
    fn trailing_bytes_after_a_node_are_corruption() {
        for node in sample_nodes() {
            let buf = [node.encode(), b"garbage".to_vec()].concat();
            let got = Node::decode(&buf);
            assert!(matches!(got, Err(ReachError::Io(_))), "{got:?}");
        }
    }

    /// A leaf splice leaves exactly the bytes a re-encoded node would
    /// have, and a splice that does not match its page is refused.
    #[test]
    fn leaf_edits_match_a_re_encoded_node() {
        let [leaf, _] = sample_nodes();
        let mut pg = Page::new(PageId::new(5));
        pg.insert(&leaf.encode()).unwrap();
        let mut grown = leaf.clone();
        if let Node::Leaf { entries, .. } = &mut grown {
            entries.insert(1, (b"a\x01".to_vec(), 5));
        }
        leaf_edit(&mut pg, b"a\x01", 5, true).unwrap();
        assert_eq!(pg.get(0).unwrap(), grown.encode());
        assert!(
            leaf_edit(&mut pg, b"a\x01", 5, true).is_err(),
            "pair present"
        );
        leaf_edit(&mut pg, b"a\x01", 5, false).unwrap();
        assert_eq!(pg.get(0).unwrap(), leaf.encode());
        assert!(
            leaf_edit(&mut pg, b"a\x01", 5, false).is_err(),
            "pair absent"
        );
        let [_, internal] = sample_nodes();
        let mut pg = Page::new(PageId::new(6));
        pg.insert(&internal.encode()).unwrap();
        assert!(leaf_edit(&mut pg, b"a", 1, true).is_err(), "not a leaf");
    }

    /// Decode `buf` both ways — whole, and through the in-place view a
    /// search walks — failing only with `Io`.
    fn read_both_ways(buf: &[u8]) -> std::result::Result<(), String> {
        let only_io = |e: ReachError| match e {
            ReachError::Io(_) => Ok(()),
            e => Err(format!("{e:?}")),
        };
        if let Err(e) = Node::decode(buf) {
            only_io(e)?;
        }
        match View::new(buf) {
            Err(e) => only_io(e),
            Ok(v) if v.is_leaf => v.locate(b"m", 3).map(drop).or_else(only_io),
            Ok(v) => v.child(Pos::Pair(b"m", 3)).map(drop).or_else(only_io),
        }
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn garbage_nodes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
                prop_assert_eq!(read_both_ways(&bytes), Ok(()));
            }

            #[test]
            fn bit_flipped_nodes_never_panic(
                which in any::<prop::sample::Index>(),
                at in any::<prop::sample::Index>(),
                bit in 0u8..8,
            ) {
                let mut enc = sample_nodes()[which.index(2)].encode();
                let i = at.index(enc.len());
                enc[i] ^= 1 << bit;
                prop_assert_eq!(read_both_ways(&enc), Ok(()));
            }
        }
    }

    #[test]
    fn insert_lookup_delete_roundtrip() {
        let (pool, wal) = fixture();
        let t = BTree::create(pool, wal, Some(4)).unwrap();
        for i in 0..50u32 {
            assert!(t.insert(&key(i), u64::from(i)).unwrap());
        }
        assert!(t.depth().unwrap() > 1, "fanout 4 must grow the tree");
        for i in 0..50u32 {
            assert_eq!(t.lookup(&key(i)).unwrap(), vec![u64::from(i)]);
        }
        assert!(!t.insert(&key(7), 7).unwrap(), "duplicate pair rejected");
        assert!(t.delete(&key(7), 7).unwrap());
        assert!(!t.delete(&key(7), 7).unwrap());
        assert!(t.lookup(&key(7)).unwrap().is_empty());
        assert_eq!(t.len().unwrap(), 49);
    }

    #[test]
    fn duplicate_keys_collect_all_oids() {
        let (pool, wal) = fixture();
        let t = BTree::create(pool, wal, Some(4)).unwrap();
        for oid in 0..20u64 {
            assert!(t.insert(b"dup", oid).unwrap());
        }
        assert_eq!(t.lookup(b"dup").unwrap(), (0..20).collect::<Vec<_>>());
        assert!(t.delete(b"dup", 11).unwrap());
        let oids = t.lookup(b"dup").unwrap();
        assert_eq!(oids.len(), 19);
        assert!(!oids.contains(&11));
    }

    #[test]
    fn boundary_fanouts_split_correctly() {
        // The smallest legal fanouts stress every split path: a leaf
        // split with 2 entries, an internal split with 2 separators.
        for cap in [2usize, 3, 4, 5] {
            let (pool, wal) = fixture();
            let t = BTree::create(pool, wal, Some(cap)).unwrap();
            let mut expect = BTreeSet::new();
            for i in 0..120u32 {
                // Interleave the key space so splits hit non-rightmost
                // nodes too.
                let k = key(i.wrapping_mul(7919) % 256);
                t.insert(&k, u64::from(i)).unwrap();
                expect.insert((k, u64::from(i)));
            }
            let got: BTreeSet<_> = t
                .range(Bound::Unbounded, Bound::Unbounded)
                .unwrap()
                .into_iter()
                .collect();
            assert_eq!(got, expect, "fanout {cap}");
        }
    }

    #[test]
    fn underflow_mass_delete_then_reuse() {
        let (pool, wal) = fixture();
        let t = BTree::create(pool, wal, Some(3)).unwrap();
        for i in 0..60u32 {
            t.insert(&key(i), 1).unwrap();
        }
        for i in 0..60u32 {
            assert!(t.delete(&key(i), 1).unwrap());
        }
        assert!(t.is_empty().unwrap());
        assert!(t
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .is_empty());
        // Emptied nodes still own their ranges: reinsertion reuses them.
        for i in 0..60u32 {
            assert!(t.insert(&key(i), 2).unwrap());
        }
        assert_eq!(t.len().unwrap(), 60);
        assert_eq!(t.lookup(&key(30)).unwrap(), vec![2]);
    }

    #[test]
    fn range_bounds_match_planner_semantics() {
        let (pool, wal) = fixture();
        let t = BTree::create(pool, wal, Some(4)).unwrap();
        for i in 0..30u32 {
            t.insert(&key(i), u64::from(i)).unwrap();
        }
        let keys = |lo: Bound<&[u8]>, hi: Bound<&[u8]>| -> Vec<u64> {
            t.range(lo, hi)
                .unwrap()
                .into_iter()
                .map(|(_, o)| o)
                .collect()
        };
        let k5 = key(5);
        let k9 = key(9);
        assert_eq!(
            keys(Bound::Included(&k5), Bound::Included(&k9)),
            vec![5, 6, 7, 8, 9]
        );
        assert_eq!(
            keys(Bound::Excluded(&k5), Bound::Excluded(&k9)),
            vec![6, 7, 8]
        );
        assert_eq!(
            keys(Bound::Unbounded, Bound::Excluded(&k5)),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(
            keys(Bound::Included(&key(28)), Bound::Unbounded),
            vec![28, 29]
        );
        // Empty and inverted ranges yield nothing.
        assert!(keys(Bound::Excluded(&k5), Bound::Included(&k5)).is_empty());
        assert!(keys(Bound::Included(&k9), Bound::Excluded(&k5)).is_empty());
        // Reverse iteration of an ascending scan is exact.
        let rev: Vec<u64> = keys(Bound::Included(&k5), Bound::Included(&k9))
            .into_iter()
            .rev()
            .collect();
        assert_eq!(rev, vec![9, 8, 7, 6, 5]);
    }

    #[test]
    fn byte_size_split_without_entry_cap() {
        let (pool, wal) = fixture();
        let t = BTree::create(pool, wal, None).unwrap();
        // ~600-byte keys overflow the byte budget after a handful of
        // inserts, forcing size-driven splits.
        for i in 0..64u32 {
            let mut k = vec![b'x'; 600];
            k.extend_from_slice(&key(i));
            assert!(t.insert(&k, u64::from(i)).unwrap());
        }
        assert!(t.depth().unwrap() > 1);
        assert_eq!(t.len().unwrap(), 64);
        let err = t.insert(&vec![0u8; MAX_KEY + 1], 1).unwrap_err();
        assert!(matches!(err, ReachError::RecordTooLarge { .. }));
    }

    #[test]
    fn stale_root_reopen_still_reaches_everything() {
        let (pool, wal) = fixture();
        let t = BTree::create(Arc::clone(&pool), Arc::clone(&wal), Some(2)).unwrap();
        let stale_root = t.root();
        for i in 0..40u32 {
            t.insert(&key(i), u64::from(i)).unwrap();
        }
        assert_ne!(t.root(), stale_root, "fanout 2 must split the root");
        // Reopen at the pre-split root, as if the catalog update was
        // lost in a crash: right links still reach every entry.
        let reopened = BTree::open(pool, wal, stale_root, Some(2));
        for i in 0..40u32 {
            assert_eq!(reopened.lookup(&key(i)).unwrap(), vec![u64::from(i)]);
        }
        assert!(reopened.insert(&key(99), 99).unwrap());
        assert_eq!(reopened.lookup(&key(99)).unwrap(), vec![99]);
    }
}
