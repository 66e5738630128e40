//! Conflict-serializability oracle.
//!
//! The lock manager promises strict two-phase locking; this module
//! checks the promise from the *outside*. Concurrent workloads record,
//! per transaction, every read and write together with a global
//! operation sequence number stamped **while the lock is held**, plus a
//! commit stamp taken before any lock is released. The checker then
//! builds the classic conflict graph — an edge `Ti → Tj` whenever `Ti`
//! performed an operation on an object before `Tj` did and at least one
//! of the two was a write — and a committed history is
//! conflict-serializable iff that graph is acyclic (the serializability
//! theorem; any cycle names the guilty transactions).
//!
//! Nothing here knows how the locks are implemented, which is the
//! point: if 2PL has a hole (a lock released early, an upgrade that
//! lets a reader slip through, a transfer that leaks), some perturbed
//! schedule produces a cycle, and the test prints the seed plus the
//! cycle instead of silently corrupting data three layers up.

use crate::locks::{LockManager, LockMode};
use crate::mvcc::{CommitTs, VersionStore};
use reach_common::sync::sched;
use reach_common::{ObjectId, ReachError, SplitMix64, TxnId};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

/// Read or write, for conflict classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A shared-mode access.
    Read,
    /// An exclusive-mode access.
    Write,
}

impl AccessKind {
    fn conflicts_with(self, other: AccessKind) -> bool {
        !(self == AccessKind::Read && other == AccessKind::Read)
    }
}

/// One recorded operation: what was touched, how, and *when* in the
/// global operation order (stamped while the protecting lock was held).
#[derive(Debug, Clone, Copy)]
pub struct Access {
    /// The object accessed.
    pub oid: ObjectId,
    /// Read or write.
    pub kind: AccessKind,
    /// Global sequence number of the operation.
    pub seq: u64,
}

/// Everything one committed transaction did.
#[derive(Debug, Clone)]
pub struct TxnRun {
    /// The transaction.
    pub txn: TxnId,
    /// Its accesses, in its own program order.
    pub accesses: Vec<Access>,
    /// Global sequence stamp taken at commit, before lock release.
    pub commit_seq: u64,
}

/// A committed history: the input to the checker. Aborted transactions
/// are excluded by construction — they never reach [`Recorder::commit`].
#[derive(Debug, Default, Clone)]
pub struct History {
    /// Committed transaction runs.
    pub runs: Vec<TxnRun>,
}

impl History {
    /// Build the conflict graph and return a cycle through it if one
    /// exists (as the list of transactions on the cycle), or `None` if
    /// the history is conflict-serializable.
    pub fn conflict_cycle(&self) -> Option<Vec<TxnId>> {
        let edges = self.conflict_edges();
        // Adjacency + iterative DFS with colors.
        let mut adj: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
        for (a, b) in &edges {
            adj.entry(*a).or_default().push(*b);
        }
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: HashMap<TxnId, Color> =
            self.runs.iter().map(|r| (r.txn, Color::White)).collect();
        let mut parent: HashMap<TxnId, TxnId> = HashMap::new();
        for &start in color.keys().cloned().collect::<Vec<_>>().iter() {
            if color[&start] != Color::White {
                continue;
            }
            // Stack of (node, next child index).
            let mut stack = vec![(start, 0usize)];
            color.insert(start, Color::Gray);
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let children = adj.get(&node).map(|v| v.as_slice()).unwrap_or(&[]);
                if *idx < children.len() {
                    let child = children[*idx];
                    *idx += 1;
                    match color.get(&child).copied().unwrap_or(Color::Black) {
                        Color::White => {
                            parent.insert(child, node);
                            color.insert(child, Color::Gray);
                            stack.push((child, 0));
                        }
                        Color::Gray => {
                            // Found a back edge node → child: walk the
                            // parent chain from node back to child.
                            let mut cycle = vec![child, node];
                            let mut cur = node;
                            while cur != child {
                                cur = parent[&cur];
                                if cur != child {
                                    cycle.push(cur);
                                }
                            }
                            cycle.reverse();
                            return Some(cycle);
                        }
                        Color::Black => {}
                    }
                } else {
                    color.insert(node, Color::Black);
                    stack.pop();
                }
            }
        }
        None
    }

    /// The conflict edges `Ti → Tj` (deduplicated): some operation of
    /// `Ti` precedes a conflicting operation of `Tj` on the same object.
    pub fn conflict_edges(&self) -> HashSet<(TxnId, TxnId)> {
        // Group accesses per object across all committed txns.
        let mut per_obj: HashMap<ObjectId, Vec<(TxnId, AccessKind, u64)>> = HashMap::new();
        for run in &self.runs {
            for a in &run.accesses {
                per_obj
                    .entry(a.oid)
                    .or_default()
                    .push((run.txn, a.kind, a.seq));
            }
        }
        let mut edges = HashSet::new();
        for ops in per_obj.values_mut() {
            ops.sort_by_key(|&(_, _, seq)| seq);
            for i in 0..ops.len() {
                for j in (i + 1)..ops.len() {
                    let (ti, ki, _) = ops[i];
                    let (tj, kj, _) = ops[j];
                    if ti != tj && ki.conflicts_with(kj) {
                        edges.insert((ti, tj));
                    }
                }
            }
        }
        edges
    }
}

/// Shared recorder a concurrent workload writes into. The global
/// sequence counter doubles as the stamp source: callers stamp each
/// access **while holding the protecting lock**, so per-object stamp
/// order equals the real serialization order at that object.
#[derive(Debug, Default)]
pub struct Recorder {
    seq: AtomicU64,
    runs: StdMutex<Vec<TxnRun>>,
}

impl Recorder {
    /// New empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draw the next global sequence stamp.
    pub fn stamp(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::SeqCst)
    }

    /// Record a committed transaction. `commit_seq` must have been
    /// stamped before any of the transaction's locks were released.
    pub fn commit(&self, run: TxnRun) {
        self.runs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(run);
    }

    /// Freeze into a checkable history.
    pub fn into_history(self) -> History {
        History {
            runs: self.runs.into_inner().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Snapshot the committed runs so far without consuming the
    /// recorder (for recorders still referenced by a resource manager).
    pub fn snapshot(&self) -> History {
        History {
            runs: self.runs.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        }
    }
}

/// Parameters for [`run_lock_workload`].
#[derive(Debug, Clone, Copy)]
pub struct WorkloadCfg {
    /// Worker thread count.
    pub threads: u64,
    /// Transactions attempted per thread.
    pub txns_per_thread: u64,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Size of the shared object pool (smaller = more contention).
    pub objects: u64,
    /// Probability numerator (out of 100) that an op is a write.
    pub write_pct: u64,
}

impl Default for WorkloadCfg {
    fn default() -> Self {
        WorkloadCfg {
            threads: 4,
            txns_per_thread: 12,
            objects: 6,
            ops_per_txn: 4,
            write_pct: 50,
        }
    }
}

/// Outcome counts of a workload sweep, alongside the history.
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkloadStats {
    /// Transactions that committed.
    pub committed: u64,
    /// Victims of deadlock detection (aborted and discarded).
    pub deadlocks: u64,
    /// Lock-wait timeouts (aborted and discarded).
    pub timeouts: u64,
}

/// Drive a randomized transactional workload straight against a
/// [`LockManager`] under strict 2PL and record the committed history.
///
/// Each simulated transaction acquires the proper lock before each
/// access, stamps the access while the lock is held, stamps its commit
/// before releasing, and on `Deadlock`/`LockTimeout` releases
/// everything and is discarded (an abort). The caller asserts
/// [`History::conflict_cycle`] is `None`.
pub fn run_lock_workload(seed: u64, cfg: WorkloadCfg) -> (History, WorkloadStats) {
    let lm = Arc::new(LockManager::with_timeout(Duration::from_millis(200)));
    let rec = Arc::new(Recorder::new());
    let stats = Arc::new(StdMutex::new(WorkloadStats::default()));
    let mut root = SplitMix64::new(seed);
    let handles: Vec<_> = (0..cfg.threads)
        .map(|t| {
            let lm = Arc::clone(&lm);
            let rec = Arc::clone(&rec);
            let stats = Arc::clone(&stats);
            let mut rng = root.fork(t + 1);
            std::thread::spawn(move || {
                sched::register_thread(t);
                for i in 0..cfg.txns_per_thread {
                    let txn = TxnId::new(1 + t * cfg.txns_per_thread + i);
                    let outcome = run_one_txn(&lm, &rec, &mut rng, txn, &cfg);
                    let mut s = stats.lock().unwrap_or_else(|e| e.into_inner());
                    match outcome {
                        Ok(()) => s.committed += 1,
                        Err(ReachError::Deadlock(_)) => s.deadlocks += 1,
                        Err(ReachError::LockTimeout(_)) => s.timeouts += 1,
                        Err(e) => panic!("unexpected workload error: {e:?}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = *stats.lock().unwrap_or_else(|e| e.into_inner());
    let history = Arc::try_unwrap(rec)
        .expect("workers done; sole owner")
        .into_history();
    (history, stats)
}

fn run_one_txn(
    lm: &LockManager,
    rec: &Recorder,
    rng: &mut SplitMix64,
    txn: TxnId,
    cfg: &WorkloadCfg,
) -> Result<(), ReachError> {
    let mut accesses: Vec<Access> = Vec::with_capacity(cfg.ops_per_txn);
    for _ in 0..cfg.ops_per_txn {
        let oid = ObjectId::new(1 + rng.below(cfg.objects as usize) as u64);
        let write = rng.chance(cfg.write_pct, 100);
        let (mode, kind) = if write {
            (LockMode::Exclusive, AccessKind::Write)
        } else {
            (LockMode::Shared, AccessKind::Read)
        };
        if let Err(e) = lm.acquire(txn, oid, mode, &[]) {
            lm.release_all(txn);
            return Err(e);
        }
        // Stamp while the lock is held: this is what makes per-object
        // stamp order the ground-truth serialization order.
        accesses.push(Access {
            oid,
            kind,
            seq: rec.stamp(),
        });
    }
    // Commit stamp before release (strictness: nothing of ours is
    // visible to others until after this point).
    let commit_seq = rec.stamp();
    rec.commit(TxnRun {
        txn,
        accesses,
        commit_seq,
    });
    lm.release_all(txn);
    Ok(())
}

// ---- MVCC snapshot oracle ----

/// One writer commit as observed by the version publisher: the commit
/// timestamp the publish-then-advance protocol assigned and the values
/// written. The *independent commits log* snapshot consistency is
/// checked against.
#[derive(Debug, Clone)]
pub struct WriterCommit {
    /// The committed writer.
    pub txn: TxnId,
    /// Its commit timestamp.
    pub ts: CommitTs,
    /// `(object, value)` pairs it wrote.
    pub writes: Vec<(ObjectId, u64)>,
}

/// One lock-free snapshot read: the object and the value observed
/// (`None` = the object did not exist at the snapshot).
#[derive(Debug, Clone, Copy)]
pub struct SnapshotRead {
    /// The object read.
    pub oid: ObjectId,
    /// The observed value.
    pub value: Option<u64>,
}

/// Everything one read-only snapshot transaction observed.
#[derive(Debug, Clone)]
pub struct SnapshotRun {
    /// The reader.
    pub txn: TxnId,
    /// Its snapshot stamp.
    pub stamp: CommitTs,
    /// Its reads, in program order.
    pub reads: Vec<SnapshotRead>,
}

/// A recorded MVCC history: the writers' commits (from the publisher,
/// so timestamps are ground truth) and the readers' observations.
#[derive(Debug, Default, Clone)]
pub struct SnapshotHistory {
    /// Committed writers with their publish timestamps.
    pub commits: Vec<WriterCommit>,
    /// Read-only snapshot transactions.
    pub readers: Vec<SnapshotRun>,
}

impl SnapshotHistory {
    /// Check snapshot consistency: every read of every reader must
    /// equal the newest committed write at or below the reader's stamp,
    /// replayed from the independent commits log. Returns a description
    /// of the first violation, or `None` if every reader observed a
    /// consistent committed prefix.
    ///
    /// This is the MVCC analogue of [`History::conflict_cycle`]: it
    /// knows nothing about version chains, publish gates or vacuum — it
    /// recomputes what each stamp *should* see from commit timestamps
    /// alone, so a torn publication, a GC that reclaimed a pinned
    /// version, or a stamp issued mid-publication all surface as a
    /// mismatch.
    pub fn snapshot_violation(&self) -> Option<String> {
        let mut commits = self.commits.clone();
        commits.sort_by_key(|c| c.ts);
        for r in &self.readers {
            let mut state: HashMap<ObjectId, u64> = HashMap::new();
            for c in commits.iter().take_while(|c| c.ts <= r.stamp) {
                for (oid, v) in &c.writes {
                    state.insert(*oid, *v);
                }
            }
            for read in &r.reads {
                let expect = state.get(&read.oid).copied();
                if read.value != expect {
                    return Some(format!(
                        "reader {} (stamp {}) saw {:?} = {:?}, but the committed prefix \
                         at its stamp says {expect:?}",
                        r.txn, r.stamp, read.oid, read.value
                    ));
                }
            }
        }
        None
    }
}

/// An SI transaction for the write-skew detector: snapshot stamp,
/// commit timestamp, read set and write set.
#[derive(Debug, Clone)]
pub struct SiTxn {
    /// The transaction.
    pub txn: TxnId,
    /// Snapshot stamp it read at.
    pub stamp: CommitTs,
    /// Commit timestamp of its writes.
    pub commit_ts: CommitTs,
    /// Objects it read.
    pub reads: Vec<ObjectId>,
    /// Objects it wrote.
    pub writes: Vec<ObjectId>,
}

/// Detect write skew: two *concurrent* SI transactions (each one's
/// snapshot predates the other's commit) with disjoint write sets where
/// each read something the other wrote — the classic dangerous
/// structure (two rw-antidependencies closing a cycle) that snapshot
/// isolation admits and serializability forbids.
///
/// REACH's shipped MVCC cannot produce this by construction — snapshot
/// transactions are read-*only*, so `writes` is empty and no
/// antidependency edge out of a reader exists; writers stay under
/// strict 2PL. The detector documents (and tests guard) exactly that
/// boundary: if snapshot *writers* are ever added without SSI-style
/// certification, histories fail here first.
pub fn write_skew(txns: &[SiTxn]) -> Option<(TxnId, TxnId)> {
    for (i, a) in txns.iter().enumerate() {
        for b in txns.iter().skip(i + 1) {
            let concurrent = a.stamp < b.commit_ts && b.stamp < a.commit_ts;
            if !concurrent {
                continue;
            }
            let disjoint_writes = !a.writes.iter().any(|o| b.writes.contains(o));
            let a_misses_b = a.reads.iter().any(|o| b.writes.contains(o));
            let b_misses_a = b.reads.iter().any(|o| a.writes.contains(o));
            if disjoint_writes && a_misses_b && b_misses_a {
                return Some((a.txn, b.txn));
            }
        }
    }
    None
}

/// Parameters for [`run_mvcc_workload`].
#[derive(Debug, Clone, Copy)]
pub struct MvccWorkloadCfg {
    /// Writer thread count (strict-2PL transactions through the
    /// manager).
    pub writers: u64,
    /// Snapshot-reader thread count.
    pub readers: u64,
    /// Transactions attempted per writer thread.
    pub txns_per_writer: u64,
    /// Writes per writer transaction.
    pub writes_per_txn: usize,
    /// Snapshot transactions per reader thread.
    pub snapshots_per_reader: u64,
    /// Reads per snapshot transaction.
    pub reads_per_snapshot: usize,
    /// Shared object pool size.
    pub objects: u64,
}

impl Default for MvccWorkloadCfg {
    fn default() -> Self {
        MvccWorkloadCfg {
            writers: 3,
            readers: 3,
            txns_per_writer: 10,
            writes_per_txn: 3,
            snapshots_per_reader: 10,
            reads_per_snapshot: 4,
            objects: 6,
        }
    }
}

/// Outcome counts of an MVCC workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct MvccStats {
    /// Writer transactions that committed.
    pub committed_writers: u64,
    /// Writer transactions aborted (deadlock victims).
    pub aborted_writers: u64,
    /// Snapshot transactions completed.
    pub snapshots: u64,
    /// Total snapshot reads performed.
    pub snapshot_reads: u64,
    /// Exclusive-lock grants the writers obtained (ground truth,
    /// counted at each successful `lock`).
    pub writer_lock_grants: u64,
    /// Lock-manager grants the metrics registry recorded across the
    /// whole run. Equal to `writer_lock_grants` iff snapshot readers
    /// acquired **zero** locks.
    pub metered_lock_grants: u64,
}

/// The publisher the MVCC workload registers with the manager: a bare
/// [`VersionStore`] of `u64` values plus the independent commits log
/// the oracle checks against. `publish` runs inside the commit
/// protocol — after durability, locks held, before the clock advances —
/// so the recorded `(txn, ts, writes)` triples are ground truth.
struct WorkloadPublisher {
    store: VersionStore<u64>,
    staged: StdMutex<HashMap<TxnId, Vec<(ObjectId, u64)>>>,
    commits: StdMutex<Vec<WriterCommit>>,
}

impl crate::mvcc::VersionPublisher for WorkloadPublisher {
    fn publish(&self, txn: TxnId, ts: CommitTs) -> usize {
        let writes = self
            .staged
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&txn)
            .unwrap_or_default();
        for (oid, v) in &writes {
            self.store.publish(*oid, ts, Some(*v));
        }
        let n = writes.len();
        self.commits
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(WriterCommit { txn, ts, writes });
        n
    }

    fn vacuum(&self, watermark: CommitTs) -> usize {
        self.store.vacuum(watermark)
    }

    fn long_chains(&self) -> usize {
        self.store.long_chains()
    }
}

/// Drive writers (strict 2PL through a real
/// [`TransactionManager`](crate::manager::TransactionManager))
/// concurrently with lock-free snapshot readers, and record both sides:
/// the writers' publish log and every reader's observations. The caller
/// asserts [`SnapshotHistory::snapshot_violation`] is `None` and that
/// `metered_lock_grants == writer_lock_grants` (readers acquired no
/// locks).
pub fn run_mvcc_workload(seed: u64, cfg: MvccWorkloadCfg) -> (SnapshotHistory, MvccStats) {
    use crate::manager::TransactionManager;
    use reach_common::{MetricsRegistry, VirtualClock};

    let metrics = MetricsRegistry::new_shared();
    metrics.enable();
    let tm = Arc::new(TransactionManager::with_metrics(
        Arc::new(VirtualClock::new_virtual()),
        Arc::clone(&metrics),
    ));
    let publisher = Arc::new(WorkloadPublisher {
        store: VersionStore::new(),
        staged: StdMutex::new(HashMap::new()),
        commits: StdMutex::new(Vec::new()),
    });
    tm.add_version_publisher(Arc::clone(&publisher) as Arc<dyn crate::mvcc::VersionPublisher>);

    let readers_log = Arc::new(StdMutex::new(Vec::<SnapshotRun>::new()));
    let stats = Arc::new(StdMutex::new(MvccStats::default()));
    let mut root = SplitMix64::new(seed);

    let mut handles = Vec::new();
    for w in 0..cfg.writers {
        let tm = Arc::clone(&tm);
        let publisher = Arc::clone(&publisher);
        let stats = Arc::clone(&stats);
        let mut rng = root.fork(w + 1);
        handles.push(std::thread::spawn(move || {
            sched::register_thread(w);
            for i in 0..cfg.txns_per_writer {
                let txn = tm.begin().unwrap();
                let mut grants = 0u64;
                let mut ok = true;
                for op in 0..cfg.writes_per_txn {
                    let oid = ObjectId::new(1 + rng.below(cfg.objects as usize) as u64);
                    match tm.lock(txn, oid, LockMode::Exclusive) {
                        Ok(()) => {
                            grants += 1;
                            // Value encodes (writer, txn attempt, op):
                            // unique per write, so a torn read cannot
                            // alias a legitimate one.
                            let v = ((w + 1) << 24) | (i << 8) | op as u64;
                            publisher
                                .staged
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .entry(txn)
                                .or_default()
                                .push((oid, v));
                        }
                        Err(ReachError::Deadlock(_) | ReachError::LockTimeout(_)) => {
                            publisher
                                .staged
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .remove(&txn);
                            tm.abort(txn).unwrap();
                            ok = false;
                            break;
                        }
                        Err(e) => panic!("unexpected lock error: {e:?}"),
                    }
                }
                let mut s = stats.lock().unwrap_or_else(|e| e.into_inner());
                s.writer_lock_grants += grants;
                if ok {
                    drop(s);
                    tm.commit(txn).unwrap();
                    stats
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .committed_writers += 1;
                } else {
                    s.aborted_writers += 1;
                }
            }
        }));
    }
    for r in 0..cfg.readers {
        let tm = Arc::clone(&tm);
        let publisher = Arc::clone(&publisher);
        let readers_log = Arc::clone(&readers_log);
        let stats = Arc::clone(&stats);
        let mut rng = root.fork(1000 + r);
        handles.push(std::thread::spawn(move || {
            sched::register_thread(cfg.writers + r);
            for _ in 0..cfg.snapshots_per_reader {
                let txn = tm.begin_read_only().unwrap();
                let stamp = tm.snapshot_stamp(txn).unwrap();
                let mut reads = Vec::with_capacity(cfg.reads_per_snapshot);
                for _ in 0..cfg.reads_per_snapshot {
                    let oid = ObjectId::new(1 + rng.below(cfg.objects as usize) as u64);
                    let value = publisher.store.read_at(oid, stamp).and_then(|v| v.payload);
                    reads.push(SnapshotRead { oid, value });
                }
                tm.commit(txn).unwrap();
                let mut s = stats.lock().unwrap_or_else(|e| e.into_inner());
                s.snapshots += 1;
                s.snapshot_reads += reads.len() as u64;
                drop(s);
                readers_log
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(SnapshotRun { txn, stamp, reads });
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut stats = *stats.lock().unwrap_or_else(|e| e.into_inner());
    stats.metered_lock_grants = metrics.txn.lock_acquisitions.get();
    let history = SnapshotHistory {
        commits: publisher
            .commits
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone(),
        readers: readers_log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone(),
    };
    (history, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TxnId {
        TxnId::new(n)
    }
    fn o(n: u64) -> ObjectId {
        ObjectId::new(n)
    }

    fn run(txn: u64, accesses: &[(u64, AccessKind, u64)], commit_seq: u64) -> TxnRun {
        TxnRun {
            txn: t(txn),
            accesses: accesses
                .iter()
                .map(|&(oid, kind, seq)| Access {
                    oid: o(oid),
                    kind,
                    seq,
                })
                .collect(),
            commit_seq,
        }
    }

    /// The classic lost update: T1 reads x, T2 reads x, T2 writes x,
    /// T1 writes x. Edges T1→T2 (r-w) and T2→T1 (w-w): a cycle.
    #[test]
    fn lost_update_cycle_detected() {
        let h = History {
            runs: vec![
                run(1, &[(1, AccessKind::Read, 0), (1, AccessKind::Write, 3)], 4),
                run(2, &[(1, AccessKind::Read, 1), (1, AccessKind::Write, 2)], 5),
            ],
        };
        let cycle = h.conflict_cycle().expect("lost update must be caught");
        assert!(cycle.contains(&t(1)) && cycle.contains(&t(2)), "{cycle:?}");
    }

    /// Serial histories and read-only overlap are acyclic.
    #[test]
    fn serial_and_read_only_histories_pass() {
        let serial = History {
            runs: vec![
                run(
                    1,
                    &[(1, AccessKind::Write, 0), (2, AccessKind::Write, 1)],
                    2,
                ),
                run(
                    2,
                    &[(1, AccessKind::Write, 3), (2, AccessKind::Write, 4)],
                    5,
                ),
            ],
        };
        assert_eq!(serial.conflict_cycle(), None);
        let readers = History {
            runs: vec![
                run(1, &[(1, AccessKind::Read, 0), (1, AccessKind::Read, 2)], 4),
                run(2, &[(1, AccessKind::Read, 1), (1, AccessKind::Read, 3)], 5),
            ],
        };
        assert_eq!(readers.conflict_cycle(), None);
        assert!(readers.conflict_edges().is_empty());
    }

    /// Three-transaction cycle through distinct objects: T1→T2 on x,
    /// T2→T3 on y, T3→T1 on z.
    #[test]
    fn three_way_cycle_detected() {
        let h = History {
            runs: vec![
                run(
                    1,
                    &[(1, AccessKind::Write, 0), (3, AccessKind::Write, 5)],
                    6,
                ),
                run(
                    2,
                    &[(1, AccessKind::Write, 1), (2, AccessKind::Write, 2)],
                    7,
                ),
                run(
                    3,
                    &[(2, AccessKind::Write, 3), (3, AccessKind::Write, 4)],
                    8,
                ),
            ],
        };
        let cycle = h.conflict_cycle().expect("3-cycle must be caught");
        assert_eq!(cycle.len(), 3, "{cycle:?}");
    }

    #[test]
    fn small_workload_is_serializable() {
        let (h, stats) = run_lock_workload(
            42,
            WorkloadCfg {
                threads: 4,
                txns_per_thread: 8,
                ..WorkloadCfg::default()
            },
        );
        assert!(stats.committed > 0, "workload must commit something");
        assert_eq!(h.conflict_cycle(), None);
    }

    #[test]
    fn snapshot_oracle_accepts_consistent_prefix_reads() {
        let h = SnapshotHistory {
            commits: vec![
                WriterCommit {
                    txn: t(1),
                    ts: 1,
                    writes: vec![(o(1), 10), (o(2), 20)],
                },
                WriterCommit {
                    txn: t(2),
                    ts: 2,
                    writes: vec![(o(1), 11)],
                },
            ],
            readers: vec![
                SnapshotRun {
                    txn: t(10),
                    stamp: 1,
                    reads: vec![
                        SnapshotRead {
                            oid: o(1),
                            value: Some(10),
                        },
                        SnapshotRead {
                            oid: o(2),
                            value: Some(20),
                        },
                        SnapshotRead {
                            oid: o(3),
                            value: None,
                        },
                    ],
                },
                SnapshotRun {
                    txn: t(11),
                    stamp: 2,
                    reads: vec![SnapshotRead {
                        oid: o(1),
                        value: Some(11),
                    }],
                },
                // A stamp before any commit sees nothing at all.
                SnapshotRun {
                    txn: t(12),
                    stamp: 0,
                    reads: vec![SnapshotRead {
                        oid: o(1),
                        value: None,
                    }],
                },
            ],
        };
        assert_eq!(h.snapshot_violation(), None);
    }

    #[test]
    fn snapshot_oracle_catches_future_and_torn_reads() {
        // A reader at stamp 1 that observes txn 2's write has read the
        // future — the exact failure a stamp issued mid-publication (or
        // a baseline seeded from post-commit state) would produce.
        let future = SnapshotHistory {
            commits: vec![
                WriterCommit {
                    txn: t(1),
                    ts: 1,
                    writes: vec![(o(1), 10)],
                },
                WriterCommit {
                    txn: t(2),
                    ts: 2,
                    writes: vec![(o(1), 11)],
                },
            ],
            readers: vec![SnapshotRun {
                txn: t(10),
                stamp: 1,
                reads: vec![SnapshotRead {
                    oid: o(1),
                    value: Some(11),
                }],
            }],
        };
        assert!(future.snapshot_violation().is_some());

        // A reader that sees half of txn 1's two-object commit has seen
        // a torn publication.
        let torn = SnapshotHistory {
            commits: vec![WriterCommit {
                txn: t(1),
                ts: 1,
                writes: vec![(o(1), 10), (o(2), 20)],
            }],
            readers: vec![SnapshotRun {
                txn: t(10),
                stamp: 1,
                reads: vec![
                    SnapshotRead {
                        oid: o(1),
                        value: Some(10),
                    },
                    SnapshotRead {
                        oid: o(2),
                        value: None,
                    },
                ],
            }],
        };
        assert!(torn.snapshot_violation().is_some());
    }

    #[test]
    fn write_skew_detector_fires_on_the_dangerous_structure() {
        // The on-call doctors example: both read {1, 2} at the same
        // snapshot, each removes itself — disjoint writes, crossed
        // rw-antidependencies.
        let skew = vec![
            SiTxn {
                txn: t(1),
                stamp: 5,
                commit_ts: 7,
                reads: vec![o(1), o(2)],
                writes: vec![o(1)],
            },
            SiTxn {
                txn: t(2),
                stamp: 5,
                commit_ts: 6,
                reads: vec![o(1), o(2)],
                writes: vec![o(2)],
            },
        ];
        assert_eq!(write_skew(&skew), Some((t(1), t(2))));

        // Serialized (t2 starts after t1 commits): no skew.
        let serialized = vec![
            SiTxn {
                txn: t(1),
                stamp: 5,
                commit_ts: 6,
                reads: vec![o(1), o(2)],
                writes: vec![o(1)],
            },
            SiTxn {
                txn: t(2),
                stamp: 6,
                commit_ts: 7,
                reads: vec![o(1), o(2)],
                writes: vec![o(2)],
            },
        ];
        assert_eq!(write_skew(&serialized), None);

        // Overlapping write sets force a 2PL-style conflict, not skew.
        let ww = vec![
            SiTxn {
                txn: t(1),
                stamp: 5,
                commit_ts: 7,
                reads: vec![o(1), o(2)],
                writes: vec![o(1)],
            },
            SiTxn {
                txn: t(2),
                stamp: 5,
                commit_ts: 6,
                reads: vec![o(1), o(2)],
                writes: vec![o(1), o(2)],
            },
        ];
        assert_eq!(write_skew(&ww), None);
    }

    #[test]
    fn small_mvcc_workload_is_snapshot_consistent() {
        let (h, stats) = run_mvcc_workload(
            7,
            MvccWorkloadCfg {
                writers: 2,
                readers: 2,
                txns_per_writer: 6,
                snapshots_per_reader: 6,
                ..MvccWorkloadCfg::default()
            },
        );
        assert!(stats.committed_writers > 0);
        assert!(stats.snapshot_reads > 0);
        assert_eq!(h.snapshot_violation(), None);
        assert_eq!(
            stats.metered_lock_grants, stats.writer_lock_grants,
            "snapshot readers must not touch the lock manager"
        );
        // Read-only snapshots have empty write sets, so the dangerous
        // structure is unreachable by construction.
        let si: Vec<SiTxn> = h
            .readers
            .iter()
            .map(|r| SiTxn {
                txn: r.txn,
                stamp: r.stamp,
                commit_ts: r.stamp,
                reads: r.reads.iter().map(|x| x.oid).collect(),
                writes: Vec::new(),
            })
            .collect();
        assert_eq!(write_skew(&si), None);
    }
}
