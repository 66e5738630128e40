//! The transaction manager: flat + closed nested transactions, hooks,
//! and the commit protocol that the coupling modes of §3.2 build on.
//!
//! Structure mirrors what the paper found missing in closed systems:
//!
//! * subtransactions ([`TransactionManager::begin_nested`]) whose locks
//!   and effects are inherited by the parent on commit and undone on
//!   abort (via per-resource savepoints);
//! * *pre-commit hooks* — the execution point of deferred-coupled rules
//!   ("after the triggering transaction completes its execution but
//!   before it commits"); a hook may enqueue further hooks (cascading
//!   rules) and may abort the transaction by returning an error;
//! * observable commit/abort signals ([`crate::events::TxnListener`])
//!   and a [`DependencyGraph`] consulted before a dependent transaction
//!   is allowed to commit;
//! * lock transfer for the exclusive causally dependent mode.
//!
//! **Retention.** The manager's table holds *live* transactions only.
//! When a top-level transaction finishes — commit, abort, 2PC decision,
//! read-only end — its whole record tree (itself and every
//! subtransaction) is retired in one lock pass, after listeners and
//! `on_commit`/`on_abort` actions ran. What survives is each id's final
//! state, two bits in the [`DependencyGraph`]'s outcome store, so
//! [`TransactionManager::state`] and the causal-dependency checks keep
//! answering `Committed`/`Aborted` for any finished id indefinitely. An
//! in-doubt `Prepared` transaction is live and is never retired before
//! its decision.

use crate::dependency::{DependencyGraph, Outcome, Permission};
use crate::events::{TxnEvent, TxnEventKind, TxnListener};
use crate::locks::{LockManager, LockMode};
pub use crate::mvcc::VACUUM_CHAIN_THRESHOLD;
use crate::mvcc::{CommitTs, SnapshotRegistry, VersionPublisher};
use reach_common::sync::{Mutex, RwLock};
use reach_common::{
    FastMap, IdGen, MetricsRegistry, ObjectId, ReachError, Result, TxnId, VirtualClock,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Running; operations are accepted.
    Active,
    /// Commit in progress (pre-commit hooks, durability).
    Committing,
    /// Two-phase commit: prepared and in doubt. Every resource manager
    /// has force-logged what it needs to commit; locks stay pinned and
    /// only the coordinator's decision ([`TransactionManager::decide`])
    /// moves the transaction on.
    Prepared,
    /// Durably committed.
    Committed,
    /// Rolled back.
    Aborted,
}

impl TxnState {
    /// Whether a transaction in this state may still operate: active,
    /// committing, or prepared (an in-doubt transaction still holds its
    /// locks).
    pub fn is_live(self) -> bool {
        matches!(
            self,
            TxnState::Active | TxnState::Committing | TxnState::Prepared
        )
    }
}

/// Participant that must make a transaction's effects atomic (the
/// Persistence/Change PMs implement this against the storage manager and
/// object space). Savepoints make *sub*transaction rollback possible.
pub trait ResourceManager: Send + Sync {
    /// A new top-level transaction started.
    fn begin_top(&self, txn: TxnId) -> Result<()>;
    /// A subtransaction started inside `top`; return a savepoint token.
    fn savepoint(&self, top: TxnId) -> Result<u64>;
    /// Undo `top`'s effects performed after the savepoint.
    fn rollback_to(&self, top: TxnId, savepoint: u64) -> Result<()>;
    /// Make `txn`'s effects durable (called once, at top-level commit).
    fn commit_top(&self, txn: TxnId) -> Result<()>;
    /// Undo all of `txn`'s effects (top-level abort).
    fn abort_top(&self, txn: TxnId) -> Result<()>;
    /// Two-phase commit, phase one: force-log everything needed to make
    /// `txn` durable under global transaction `gid`, without releasing
    /// anything. After `Ok`, a later `commit_top` must succeed without
    /// further risk and `abort_top` must still fully undo. The default
    /// suits managers whose `commit_top` carries no durability risk.
    fn prepare_top(&self, _txn: TxnId, _gid: u64) -> Result<()> {
        Ok(())
    }
}

type Hook = Box<dyn FnOnce() -> Result<()> + Send>;
type Action = Box<dyn FnOnce() + Send>;

struct TxnRecord {
    parent: Option<TxnId>,
    top: TxnId,
    state: TxnState,
    children: Vec<TxnId>,
    active_children: usize,
    /// Per-resource-manager savepoint tokens (empty for top-level).
    savepoints: Vec<u64>,
    /// Deferred work run at top-level pre-commit (FIFO).
    pre_commit: Vec<Hook>,
    /// Compensations run on abort (reverse order).
    on_abort: Vec<Action>,
    /// Work run after successful top-level commit (FIFO).
    on_commit: Vec<Action>,
    /// `Some(stamp)` for read-only snapshot transactions: every read
    /// resolves against the committed-version store at this stamp, no
    /// locks are ever acquired, and commit/abort only release the
    /// snapshot registration (resource managers never hear about it).
    snapshot: Option<CommitTs>,
}

/// The transaction manager.
pub struct TransactionManager {
    clock: Arc<VirtualClock>,
    locks: Arc<LockManager>,
    deps: Arc<DependencyGraph>,
    /// Live transactions only (see the module's retention note): small
    /// enough to stay cache-resident however long the system runs.
    txns: Mutex<FastMap<TxnId, TxnRecord>>,
    /// Registries are read-mostly and sit on the begin/commit hot path
    /// of every (sub)transaction, so reads snapshot an `Arc` to the
    /// current Vec instead of cloning the Vec itself; writers swap in
    /// a rebuilt Vec (copy-on-write).
    listeners: RwLock<Arc<Vec<Arc<dyn TxnListener>>>>,
    resources: RwLock<Arc<Vec<Arc<dyn ResourceManager>>>>,
    ids: IdGen,
    metrics: Arc<MetricsRegistry>,
    /// The commit-timestamp authority: the last commit whose versions
    /// are *fully published*. Snapshot stamps are plain loads of this.
    commit_ts: AtomicU64,
    /// Serializes version publication with the commit-clock advance
    /// (publish-then-advance), and snapshot stamping with both.
    publish_gate: Mutex<()>,
    /// Live snapshot stamps; the oldest pins version GC.
    snapshots: SnapshotRegistry,
    /// Version stores fed at writer commit, reclaimed at watermark
    /// advance.
    publishers: RwLock<Arc<Vec<Arc<dyn VersionPublisher>>>>,
}

impl TransactionManager {
    /// A manager with a private (unrecorded) metrics registry.
    pub fn new(clock: Arc<VirtualClock>) -> Self {
        Self::with_metrics(clock, MetricsRegistry::new_shared())
    }

    /// A manager recording begin/commit/abort counts, commit latency,
    /// lock waits and deadlocks into a shared registry.
    pub fn with_metrics(clock: Arc<VirtualClock>, metrics: Arc<MetricsRegistry>) -> Self {
        TransactionManager {
            clock,
            locks: Arc::new(LockManager::with_metrics(
                Duration::from_secs(5),
                Arc::clone(&metrics),
            )),
            deps: Arc::new(DependencyGraph::new()),
            txns: Mutex::new(FastMap::default()),
            listeners: RwLock::new(Arc::new(Vec::new())),
            resources: RwLock::new(Arc::new(Vec::new())),
            ids: IdGen::new(),
            metrics,
            commit_ts: AtomicU64::new(0),
            publish_gate: Mutex::new(()),
            snapshots: SnapshotRegistry::new(),
            publishers: RwLock::new(Arc::new(Vec::new())),
        }
    }

    /// The registry this manager records into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The virtual clock events are stamped with.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The lock manager writers acquire through.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// The commit/abort dependency graph (coupling modes).
    pub fn dependencies(&self) -> &Arc<DependencyGraph> {
        &self.deps
    }

    /// Subscribe to flow-control events.
    pub fn add_listener(&self, l: Arc<dyn TxnListener>) {
        let mut reg = self.listeners.write();
        let mut v = (**reg).clone();
        v.push(l);
        *reg = Arc::new(v);
    }

    /// Register a resource manager (storage, object-space change log).
    pub fn add_resource_manager(&self, rm: Arc<dyn ResourceManager>) {
        let mut reg = self.resources.write();
        let mut v = (**reg).clone();
        v.push(rm);
        *reg = Arc::new(v);
    }

    /// Register a version store to feed at writer commit (publication
    /// happens after durability, before lock release) and reclaim when
    /// the snapshot watermark advances.
    pub fn add_version_publisher(&self, p: Arc<dyn VersionPublisher>) {
        let mut reg = self.publishers.write();
        let mut v = (**reg).clone();
        v.push(p);
        *reg = Arc::new(v);
    }

    /// The current snapshot stamp source: the newest commit timestamp
    /// whose versions are fully published.
    pub fn commit_stamp(&self) -> CommitTs {
        self.commit_ts.load(Ordering::SeqCst)
    }

    /// Read-only snapshot transactions currently live.
    pub fn live_snapshots(&self) -> u64 {
        self.snapshots.live_readers()
    }

    fn emit(&self, kind: TxnEventKind, txn: TxnId, parent: Option<TxnId>, top: TxnId) {
        let listeners = Arc::clone(&self.listeners.read());
        if listeners.is_empty() {
            return;
        }
        let event = TxnEvent {
            kind,
            txn,
            parent,
            top_level: top,
            at: self.clock.now(),
        };
        for l in listeners.iter() {
            l.on_txn_event(&event);
        }
    }

    // ---- lifecycle ----

    /// Begin a top-level transaction.
    pub fn begin(&self) -> Result<TxnId> {
        let id: TxnId = self.ids.next();
        let rms = Arc::clone(&self.resources.read());
        for rm in rms.iter() {
            rm.begin_top(id)?;
        }
        self.txns.lock().insert(
            id,
            TxnRecord {
                parent: None,
                top: id,
                state: TxnState::Active,
                children: Vec::new(),
                active_children: 0,
                savepoints: Vec::new(),
                pre_commit: Vec::new(),
                on_abort: Vec::new(),
                on_commit: Vec::new(),
                snapshot: None,
            },
        );
        if self.metrics.on() {
            self.metrics.txn.begins.inc();
        }
        self.emit(TxnEventKind::Begin, id, None, id);
        Ok(id)
    }

    /// Begin a read-only snapshot transaction.
    ///
    /// The transaction captures the current commit stamp and every read
    /// resolves against the committed-version store at that stamp — it
    /// acquires **no locks**, never blocks behind writers, and is never
    /// announced to resource managers (it has nothing to make durable;
    /// its commit is the E16 read-only fast path taken to its logical
    /// end). Attempting to lock or write through it fails with
    /// [`ReachError::ReadOnlyTxn`].
    ///
    /// The stamp is taken under the publish gate, so it can neither
    /// split a commit's publication in half nor race the garbage
    /// collector: by the time the stamp is visible in the snapshot
    /// registry, every version at or below it is in the store and
    /// pinned.
    pub fn begin_read_only(&self) -> Result<TxnId> {
        let id: TxnId = self.ids.next();
        let stamp = {
            let _gate = self.publish_gate.lock();
            let stamp = self.commit_ts.load(Ordering::SeqCst);
            self.snapshots.register(stamp);
            stamp
        };
        self.txns.lock().insert(
            id,
            TxnRecord {
                parent: None,
                top: id,
                state: TxnState::Active,
                children: Vec::new(),
                active_children: 0,
                savepoints: Vec::new(),
                pre_commit: Vec::new(),
                on_abort: Vec::new(),
                on_commit: Vec::new(),
                snapshot: Some(stamp),
            },
        );
        if self.metrics.on() {
            self.metrics.txn.begins.inc();
            self.metrics.txn.snapshot_begins.inc();
        }
        self.emit(TxnEventKind::Begin, id, None, id);
        Ok(id)
    }

    /// Whether `txn` is a read-only snapshot transaction.
    pub fn is_read_only(&self, txn: TxnId) -> bool {
        self.txns
            .lock()
            .get(&txn)
            .is_some_and(|r| r.snapshot.is_some())
    }

    /// The snapshot stamp of read-only transaction `txn`, checked for
    /// use by one more read: the transaction must still be active, and
    /// an expired per-request deadline fails the read *here* — a
    /// lock-free read has no condvar wait for the deadline to interrupt
    /// (see [`TransactionManager::set_deadline`]), so the entry check
    /// is the only place it can be honoured.
    pub fn snapshot_stamp(&self, txn: TxnId) -> Result<CommitTs> {
        let stamp = {
            let txns = self.txns.lock();
            let rec = txns.get(&txn).ok_or_else(|| self.not_live(txn))?;
            if rec.state != TxnState::Active {
                return Err(ReachError::TxnNotActive(txn));
            }
            rec.snapshot.ok_or_else(|| {
                ReachError::NotSupported(format!("{txn} is not a read-only snapshot transaction"))
            })?
        };
        if let Some(dl) = self.locks.deadline_of(txn) {
            if std::time::Instant::now() >= dl {
                return Err(ReachError::DeadlineExceeded);
            }
        }
        if self.metrics.on() {
            self.metrics.txn.snapshot_reads.inc();
        }
        Ok(stamp)
    }

    /// Begin a closed nested subtransaction of `parent`.
    pub fn begin_nested(&self, parent: TxnId) -> Result<TxnId> {
        let top = {
            let mut txns = self.txns.lock();
            let rec = txns.get_mut(&parent).ok_or_else(|| self.not_live(parent))?;
            if rec.state != TxnState::Active && rec.state != TxnState::Committing {
                return Err(ReachError::TxnNotActive(parent));
            }
            if rec.snapshot.is_some() {
                return Err(ReachError::ReadOnlyTxn(parent));
            }
            rec.active_children += 1;
            rec.top
        };
        let savepoints: Vec<u64> = {
            let rms = Arc::clone(&self.resources.read());
            let mut sps = Vec::with_capacity(rms.len());
            for rm in rms.iter() {
                sps.push(rm.savepoint(top)?);
            }
            sps
        };
        let id: TxnId = self.ids.next();
        {
            let mut txns = self.txns.lock();
            txns.get_mut(&parent).unwrap().children.push(id);
            txns.insert(
                id,
                TxnRecord {
                    parent: Some(parent),
                    top,
                    state: TxnState::Active,
                    children: Vec::new(),
                    active_children: 0,
                    savepoints,
                    pre_commit: Vec::new(),
                    on_abort: Vec::new(),
                    on_commit: Vec::new(),
                    snapshot: None,
                },
            );
        }
        if self.metrics.on() {
            self.metrics.txn.begins.inc();
        }
        self.emit(TxnEventKind::Begin, id, Some(parent), top);
        Ok(id)
    }

    /// The current state of a transaction: from its record while it is
    /// live, from the outcome store once it has been retired (outcomes
    /// are recorded before the record is dropped, so a finished id is
    /// always found in one or the other).
    pub fn state(&self, txn: TxnId) -> Result<TxnState> {
        if let Some(rec) = self.txns.lock().get(&txn) {
            return Ok(rec.state);
        }
        match self.deps.outcome(txn) {
            Some(Outcome::Committed) => Ok(TxnState::Committed),
            Some(Outcome::Aborted) => Ok(TxnState::Aborted),
            None => Err(ReachError::TxnNotFound(txn)),
        }
    }

    /// The error for an operation on an id with no live record:
    /// `TxnNotActive` if it finished (and was retired), `TxnNotFound`
    /// if the manager never issued it.
    fn not_live(&self, txn: TxnId) -> ReachError {
        match self.deps.outcome(txn) {
            Some(_) => ReachError::TxnNotActive(txn),
            None => ReachError::TxnNotFound(txn),
        }
    }

    /// Whether the transaction is active (or committing, or prepared —
    /// an in-doubt transaction still holds locks and is very much live).
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.state(txn).is_ok_and(TxnState::is_live)
    }

    /// The enclosing top-level transaction.
    pub fn top_of(&self, txn: TxnId) -> Result<TxnId> {
        self.txns
            .lock()
            .get(&txn)
            .map(|r| r.top)
            .ok_or(ReachError::TxnNotFound(txn))
    }

    /// The ancestor chain (parent first, top-level last).
    pub fn ancestors(&self, txn: TxnId) -> Vec<TxnId> {
        let txns = self.txns.lock();
        let mut out = Vec::new();
        let mut cur = txns.get(&txn).and_then(|r| r.parent);
        while let Some(p) = cur {
            out.push(p);
            cur = txns.get(&p).and_then(|r| r.parent);
        }
        out
    }

    // ---- hooks ----

    /// Queue work for the *top-level* pre-commit point (deferred rules).
    pub fn defer(&self, txn: TxnId, hook: Hook) -> Result<()> {
        let mut txns = self.txns.lock();
        let top = txns.get(&txn).ok_or_else(|| self.not_live(txn))?.top;
        let rec = txns.get_mut(&top).ok_or_else(|| self.not_live(top))?;
        if rec.state != TxnState::Active && rec.state != TxnState::Committing {
            return Err(ReachError::TxnNotActive(top));
        }
        rec.pre_commit.push(hook);
        Ok(())
    }

    /// Register a compensation to run if `txn` aborts.
    pub fn on_abort(&self, txn: TxnId, action: Action) -> Result<()> {
        let mut txns = self.txns.lock();
        let rec = txns.get_mut(&txn).ok_or_else(|| self.not_live(txn))?;
        rec.on_abort.push(action);
        Ok(())
    }

    /// Register work to run after the top-level transaction commits.
    pub fn on_commit(&self, txn: TxnId, action: Action) -> Result<()> {
        let mut txns = self.txns.lock();
        let rec = txns.get_mut(&txn).ok_or_else(|| self.not_live(txn))?;
        rec.on_commit.push(action);
        Ok(())
    }

    // ---- locking ----

    /// Acquire a lock honouring nested-transaction ancestry. A
    /// transaction that is not live is refused — nothing would ever
    /// release a lock granted to it — and so are read-only snapshot
    /// transactions: their whole point is zero lock-manager traffic,
    /// and silently taking a lock here would let one block behind a
    /// writer after all.
    pub fn lock(&self, txn: TxnId, oid: ObjectId, mode: LockMode) -> Result<()> {
        // One registry pass covers the liveness check, the read-only
        // check and the ancestor chain — this runs on every object
        // access, and paying the registry mutex twice per call
        // dominated the lock-grant stage in the E15 profile.
        let ancestors = {
            let txns = self.txns.lock();
            let rec = txns.get(&txn).ok_or_else(|| self.not_live(txn))?;
            if !rec.state.is_live() {
                return Err(ReachError::TxnNotActive(txn));
            }
            if rec.snapshot.is_some() {
                return Err(ReachError::ReadOnlyTxn(txn));
            }
            let mut out = Vec::new();
            let mut cur = rec.parent;
            while let Some(p) = cur {
                out.push(p);
                cur = txns.get(&p).and_then(|r| r.parent);
            }
            out
        };
        self.locks.acquire(txn, oid, mode, &ancestors)
    }

    /// Bound every lock wait `txn` makes from now on by an absolute
    /// deadline (`None` removes the bound). Used by the network server
    /// to propagate per-request deadlines into lock waits; cleared
    /// automatically when the transaction releases its locks.
    pub fn set_deadline(&self, txn: TxnId, deadline: Option<std::time::Instant>) {
        self.locks.set_deadline(txn, deadline);
    }

    // ---- commit / abort ----

    /// Commit a transaction. For subtransactions this transfers locks and
    /// obligations to the parent; for top-level transactions it runs the
    /// deferred queue, honours causal dependencies, makes effects durable
    /// and fires `Committed`.
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        let (parent, top, read_only) = {
            let txns = self.txns.lock();
            let rec = txns.get(&txn).ok_or_else(|| self.not_live(txn))?;
            if rec.state != TxnState::Active {
                return Err(ReachError::TxnNotActive(txn));
            }
            if rec.active_children > 0 {
                return Err(ReachError::NestedViolation(format!(
                    "{txn} has {} active subtransactions",
                    rec.active_children
                )));
            }
            (rec.parent, rec.top, rec.snapshot.is_some())
        };
        if read_only {
            return self.finish_read_only(txn, true);
        }
        match parent {
            Some(p) => self.commit_child(txn, p, top),
            None => self.commit_top(txn),
        }
    }

    fn commit_child(&self, txn: TxnId, parent: TxnId, top: TxnId) -> Result<()> {
        {
            let mut txns = self.txns.lock();
            // Move obligations to the parent: if the parent later aborts,
            // this child's effects are rolled back with it (closed nested
            // semantics); its deferred/post-commit work runs with the top.
            let rec = txns.get_mut(&txn).unwrap();
            rec.state = TxnState::Committed;
            let on_abort = std::mem::take(&mut rec.on_abort);
            let on_commit = std::mem::take(&mut rec.on_commit);
            let pre_commit = std::mem::take(&mut rec.pre_commit);
            let prec = txns.get_mut(&parent).unwrap();
            prec.on_abort.extend(on_abort);
            prec.on_commit.extend(on_commit);
            prec.pre_commit.extend(pre_commit);
            prec.active_children -= 1;
        }
        self.locks.transfer(txn, parent);
        if self.metrics.on() {
            self.metrics.txn.commits.inc();
        }
        self.emit(TxnEventKind::Committed, txn, Some(parent), top);
        Ok(())
    }

    /// The shared front half of a top-level commit *and* of a 2PC
    /// prepare: state to Committing, pre-commit hooks drained, causal
    /// dependencies honoured. Any failure has already aborted the
    /// transaction when this returns `Err`.
    fn commit_prologue(&self, txn: TxnId) -> Result<()> {
        {
            let mut txns = self.txns.lock();
            txns.get_mut(&txn).unwrap().state = TxnState::Committing;
        }
        self.emit(TxnEventKind::PreCommit, txn, None, txn);
        // Drain the deferred queue a round at a time; hooks may enqueue
        // more (rule cascades), which run after the round that queued
        // them — still FIFO — and a failing hook aborts the transaction.
        loop {
            let round = std::mem::take(
                &mut self
                    .txns
                    .lock()
                    .get_mut(&txn)
                    .expect("a committing transaction is live")
                    .pre_commit,
            );
            if round.is_empty() {
                break;
            }
            for hook in round {
                if let Err(e) = hook() {
                    self.abort(txn)?;
                    return Err(e);
                }
            }
        }
        // Causal dependencies (this transaction may itself be a detached
        // rule execution). Nothing waits for them here: the rule engine
        // commits a dependent only from a continuation on its subjects
        // (`DependencyGraph::when_resolved`), so a subject still running
        // means the caller did not, and the commit is refused.
        let refusal = match self.deps.check(txn) {
            Permission::Commit => return Ok(()),
            Permission::MustAbort => "a causal dependency resolved against it",
            Permission::Wait => "a causal dependency is still unresolved",
        };
        self.abort(txn)?;
        Err(ReachError::DependencyViolation(format!(
            "{txn} aborted: {refusal}"
        )))
    }

    fn commit_top(&self, txn: TxnId) -> Result<()> {
        let commit_t0 = self.metrics.span_start();
        self.commit_prologue(txn)?;
        let rms = Arc::clone(&self.resources.read());
        for (i, rm) in rms.iter().enumerate() {
            if let Err(e) = rm.commit_top(txn) {
                // A resource manager refused durability (e.g. storage
                // failure): abort. RMs before `i` already made the
                // transaction durable on their side; they are asked to
                // abort too, which for the WAL-backed manager rolls the
                // logged effects back with compensation records.
                let _ = i;
                self.abort(txn)?;
                return Err(e);
            }
        }
        self.finish_commit_top(txn, commit_t0)
    }

    /// Two-phase commit, phase one. Runs the full commit prologue
    /// (pre-commit hooks, causal dependencies), then asks every
    /// resource manager to `prepare_top` — for the WAL-backed manager
    /// that write-backs the transaction's effects and force-logs a
    /// Prepare record. On success the transaction parks in
    /// [`TxnState::Prepared`]: its 2PL locks stay held and MVCC
    /// publication has *not* happened, so no reader can observe the
    /// in-doubt effects until [`Self::decide`] commits them. Any
    /// failure aborts the transaction (still unilateral before the
    /// prepare record is durable).
    pub fn prepare(&self, txn: TxnId, gid: u64) -> Result<()> {
        {
            let txns = self.txns.lock();
            let rec = txns.get(&txn).ok_or_else(|| self.not_live(txn))?;
            if rec.state != TxnState::Active {
                return Err(ReachError::TxnNotActive(txn));
            }
            if rec.parent.is_some() {
                return Err(ReachError::NestedViolation(format!(
                    "{txn} is a subtransaction; only top-level transactions prepare"
                )));
            }
            if rec.active_children > 0 {
                return Err(ReachError::NestedViolation(format!(
                    "{txn} has {} active subtransactions",
                    rec.active_children
                )));
            }
            if rec.snapshot.is_some() {
                // Read-only snapshot transactions have nothing to
                // prepare; vote yes by committing locally right away.
                drop(txns);
                return self.finish_read_only(txn, true);
            }
        }
        self.commit_prologue(txn)?;
        let rms = Arc::clone(&self.resources.read());
        for rm in rms.iter() {
            if let Err(e) = rm.prepare_top(txn, gid) {
                self.abort(txn)?;
                return Err(e);
            }
        }
        let mut txns = self.txns.lock();
        txns.get_mut(&txn).unwrap().state = TxnState::Prepared;
        Ok(())
    }

    /// Two-phase commit, phase two: apply the coordinator's decision to
    /// a prepared transaction. A commit decision runs every resource
    /// manager's `commit_top` (which after a successful prepare must
    /// not fail; an error here is surfaced for retry, *not* turned into
    /// an abort — the decision is already durable at the coordinator)
    /// and then the normal commit epilogue: version publication, lock
    /// release, listeners, post-commit work. An abort decision is the
    /// ordinary abort path, which `TxnState::Prepared` deliberately
    /// does not block.
    pub fn decide(&self, txn: TxnId, commit: bool) -> Result<()> {
        {
            let txns = self.txns.lock();
            let rec = txns.get(&txn).ok_or_else(|| self.not_live(txn))?;
            if rec.state != TxnState::Prepared {
                return Err(ReachError::TxnNotActive(txn));
            }
        }
        if !commit {
            return self.abort(txn);
        }
        let commit_t0 = self.metrics.span_start();
        {
            let mut txns = self.txns.lock();
            txns.get_mut(&txn).unwrap().state = TxnState::Committing;
        }
        let rms = Arc::clone(&self.resources.read());
        for rm in rms.iter() {
            if let Err(e) = rm.commit_top(txn) {
                // Re-park as Prepared so the caller can re-drive the
                // decision; aborting would contradict the coordinator.
                let mut txns = self.txns.lock();
                txns.get_mut(&txn).unwrap().state = TxnState::Prepared;
                return Err(e);
            }
        }
        self.finish_commit_top(txn, commit_t0)
    }

    /// The back half of a top-level commit, shared by the one-phase
    /// path and a 2PC commit decision: version publication, state to
    /// Committed, lock release, dependency bookkeeping, listeners,
    /// post-commit actions and, last, retirement of the record tree.
    fn finish_commit_top(&self, txn: TxnId, commit_t0: Option<std::time::Instant>) -> Result<()> {
        // Version publication: every resource manager has reported
        // durable and the 2PL locks are still held, so the write set is
        // stable and crash-proof. Publish the new versions first, then
        // advance the commit clock — a snapshot stamp is a plain load
        // of the clock, so no reader can ever adopt a stamp whose
        // versions are not yet fully in the store (publish-then-advance;
        // the DESIGN.md §4 visibility safety argument).
        {
            let publishers = Arc::clone(&self.publishers.read());
            let _gate = self.publish_gate.lock();
            let ts = self.commit_ts.load(Ordering::SeqCst) + 1;
            let mut published = 0usize;
            for p in publishers.iter() {
                published += p.publish(txn, ts);
            }
            self.commit_ts.store(ts, Ordering::SeqCst);
            if published > 0 && self.metrics.on() {
                self.metrics.txn.versions_published.add(published as u64);
            }
            // Writer-triggered vacuum backstop: snapshot-stamp release
            // is the primary GC trigger, but a write-heavy workload
            // that never begins a read-only transaction would grow
            // chains without bound. When any publisher holds a chain
            // longer than the threshold, vacuum right here (the
            // watermark computation is snapshot-aware, so live readers
            // still pin whatever they need). The O(1) long-chain count
            // keeps the common commit path free of any GC cost.
            if published > 0 && publishers.iter().any(|p| p.long_chains() > 0) {
                drop(_gate);
                self.vacuum_versions();
            }
        }
        let (on_commit, tree) = {
            let mut txns = self.txns.lock();
            let rec = txns.get_mut(&txn).unwrap();
            rec.state = TxnState::Committed;
            rec.on_abort.clear();
            let on_commit = std::mem::take(&mut rec.on_commit);
            (on_commit, Self::finished_tree(&txns, txn))
        };
        // Strict 2PL: locks are released only now, after every resource
        // manager reported durable — with group commit, after the group
        // force covering this transaction's commit record returned.
        // Releasing before that would let a reader see effects that a
        // crash could still roll back.
        self.locks.release_all(txn);
        self.deps.record_all(&tree);
        self.deps.forget_dependent(txn);
        if let Some(t0) = commit_t0 {
            self.metrics.txn.commits.inc();
            self.metrics
                .txn
                .commit_latency
                .record(t0.elapsed().as_nanos() as u64);
        }
        self.emit(TxnEventKind::Committed, txn, None, txn);
        for action in on_commit {
            action();
        }
        self.retire(&tree);
        Ok(())
    }

    /// The final outcomes of finished top-level transaction `top` and
    /// every subtransaction under it. Once `top`'s state is final the
    /// tree is frozen (`begin_nested` refuses a finished parent), so the
    /// list taken here is also exactly what [`Self::retire`] drops.
    fn finished_tree(txns: &FastMap<TxnId, TxnRecord>, top: TxnId) -> Vec<(TxnId, Outcome)> {
        let mut tree = Vec::new();
        let mut stack = vec![top];
        while let Some(id) = stack.pop() {
            let rec = &txns[&id];
            debug_assert!(matches!(rec.state, TxnState::Committed | TxnState::Aborted));
            let outcome = if rec.state == TxnState::Committed {
                Outcome::Committed
            } else {
                Outcome::Aborted
            };
            tree.push((id, outcome));
            stack.extend_from_slice(&rec.children);
        }
        tree
    }

    /// Drop a finished tree's records in one lock pass. Runs last in
    /// every finish path: listeners and post-commit/abort actions have
    /// seen the records, and the outcomes are already in the store.
    fn retire(&self, tree: &[(TxnId, Outcome)]) {
        let mut txns = self.txns.lock();
        for (id, _) in tree {
            txns.remove(id);
        }
    }

    /// Abort a transaction (and, recursively, its active subtransactions).
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        let (parent, top, state, read_only) = {
            let txns = self.txns.lock();
            let rec = txns.get(&txn).ok_or_else(|| self.not_live(txn))?;
            (rec.parent, rec.top, rec.state, rec.snapshot.is_some())
        };
        if state == TxnState::Committed || state == TxnState::Aborted {
            return Err(ReachError::TxnNotActive(txn));
        }
        if read_only {
            return self.finish_read_only(txn, false);
        }
        // Abort active children first, deepest effects undone first.
        let children: Vec<TxnId> = {
            let txns = self.txns.lock();
            txns.get(&txn).unwrap().children.clone()
        };
        for c in children.into_iter().rev() {
            if self.is_active(c) {
                self.abort(c)?;
            }
        }
        let (on_abort, savepoints) = {
            let mut txns = self.txns.lock();
            let rec = txns.get_mut(&txn).unwrap();
            rec.state = TxnState::Aborted;
            rec.pre_commit.clear();
            rec.on_commit.clear();
            (
                std::mem::take(&mut rec.on_abort),
                std::mem::take(&mut rec.savepoints),
            )
        };
        for action in on_abort.into_iter().rev() {
            action();
        }
        let rms = Arc::clone(&self.resources.read());
        // `Some` for a top-level abort: the finished tree to retire.
        let tree = match parent {
            Some(p) => {
                // Subtransaction: roll the shared top-level back to the
                // savepoints taken at this child's begin.
                for (rm, sp) in rms.iter().zip(savepoints.iter()) {
                    rm.rollback_to(top, *sp)?;
                }
                self.locks.release_all(txn);
                let mut txns = self.txns.lock();
                if let Some(prec) = txns.get_mut(&p) {
                    prec.active_children = prec.active_children.saturating_sub(1);
                }
                None
            }
            None => {
                for rm in rms.iter() {
                    rm.abort_top(txn)?;
                }
                self.locks.release_all(txn);
                let tree = Self::finished_tree(&self.txns.lock(), txn);
                self.deps.record_all(&tree);
                self.deps.forget_dependent(txn);
                Some(tree)
            }
        };
        if self.metrics.on() {
            self.metrics.txn.aborts.inc();
        }
        self.emit(TxnEventKind::Aborted, txn, parent, top);
        if let Some(tree) = tree {
            self.retire(&tree);
        }
        Ok(())
    }

    /// End a read-only snapshot transaction. Commit and abort are the
    /// same operation apart from the recorded outcome and which hook
    /// list runs: there is nothing to make durable and no lock to
    /// release — only the snapshot registration to drop, which may
    /// advance the GC watermark and reclaim versions.
    fn finish_read_only(&self, txn: TxnId, commit: bool) -> Result<()> {
        let (stamp, hooks) = {
            let mut txns = self.txns.lock();
            let rec = txns.get_mut(&txn).ok_or_else(|| self.not_live(txn))?;
            if rec.state != TxnState::Active {
                return Err(ReachError::TxnNotActive(txn));
            }
            let stamp = rec.snapshot.expect("caller routed a snapshot txn");
            rec.pre_commit.clear();
            let hooks = if commit {
                rec.state = TxnState::Committed;
                rec.on_abort.clear();
                std::mem::take(&mut rec.on_commit)
            } else {
                rec.state = TxnState::Aborted;
                rec.on_commit.clear();
                let mut a = std::mem::take(&mut rec.on_abort);
                a.reverse();
                a
            };
            (stamp, hooks)
        };
        // Clear any per-request deadline the server bound to this txn
        // (writers get this from release_all, which never runs here).
        self.locks.set_deadline(txn, None);
        self.snapshots.release(stamp);
        self.vacuum_versions();
        // A snapshot transaction has no subtransactions: its tree is
        // itself.
        let outcome = if commit {
            Outcome::Committed
        } else {
            Outcome::Aborted
        };
        self.deps.record(txn, outcome);
        if self.metrics.on() {
            if commit {
                self.metrics.txn.commits.inc();
            } else {
                self.metrics.txn.aborts.inc();
            }
        }
        self.emit(
            if commit {
                TxnEventKind::Committed
            } else {
                TxnEventKind::Aborted
            },
            txn,
            None,
            txn,
        );
        for h in hooks {
            h();
        }
        self.retire(&[(txn, outcome)]);
        Ok(())
    }

    /// Reclaim versions below the oldest live snapshot (or everything
    /// but the newest version per object when no snapshot is live).
    fn vacuum_versions(&self) {
        let publishers = Arc::clone(&self.publishers.read());
        if publishers.is_empty() {
            return;
        }
        // The watermark must be computed atomically with respect to
        // reader registration: `oldest()` and the `commit_ts + 1`
        // fallback read at different instants let a reader register an
        // *older* stamp in the gap (oldest() sees no reader, the clock
        // then advances, and the fallback produces a watermark above
        // the new reader's stamp) — and the vacuum would reclaim the
        // base version that reader resolves to. `begin_read_only`
        // registers stamps and committing writers advance the clock
        // under the publish gate, so holding it here makes the pair
        // (live-snapshot check, clock read) a consistent cut. The
        // reclaim itself can safely run outside the gate: the clock
        // only grows, so any later-registered stamp is >= watermark-1
        // and its base version (newest below the watermark) survives.
        let watermark = {
            let _gate = self.publish_gate.lock();
            self.snapshots
                .oldest()
                .unwrap_or_else(|| self.commit_ts.load(Ordering::SeqCst) + 1)
        };
        let mut reclaimed = 0usize;
        for p in publishers.iter() {
            reclaimed += p.vacuum(watermark);
        }
        if reclaimed > 0 && self.metrics.on() {
            self.metrics.txn.versions_reclaimed.add(reclaimed as u64);
        }
    }

    /// Number of transaction records the manager holds: live top-level
    /// transactions (active, committing, prepared) plus every
    /// subtransaction under them, finished or not. A finished top-level
    /// transaction's tree is dropped when it ends; all that is
    /// remembered of it is each id's final state (see [`Self::state`])
    /// — not its parent, its top, or its hooks.
    pub fn live_count(&self) -> usize {
        self.txns.lock().len()
    }

    /// Every transaction the manager still tracks as live (top-level
    /// and nested), with its lifecycle state — the transaction-layer
    /// view a checkpoint or an operator dump pairs with the storage
    /// layer's active-writer table.
    pub fn active_snapshot(&self) -> Vec<(TxnId, TxnState)> {
        let txns = self.txns.lock();
        let mut out: Vec<(TxnId, TxnState)> = txns
            .iter()
            .filter(|(_, r)| {
                matches!(
                    r.state,
                    TxnState::Active | TxnState::Committing | TxnState::Prepared
                )
            })
            .map(|(id, r)| (*id, r.state))
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Ids of all currently active top-level transactions.
    pub fn active_top_level(&self) -> Vec<TxnId> {
        let txns = self.txns.lock();
        let mut out: Vec<TxnId> = txns
            .iter()
            .filter(|(_, r)| {
                r.parent.is_none()
                    && matches!(
                        r.state,
                        TxnState::Active | TxnState::Committing | TxnState::Prepared
                    )
            })
            .map(|(id, _)| *id)
            .collect();
        out.sort();
        out
    }
}

impl std::fmt::Debug for TransactionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransactionManager")
            .field("live", &self.live_count())
            .field("active", &self.active_top_level())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_common::sync::Mutex as PMutex;
    use std::collections::HashMap;

    fn manager() -> TransactionManager {
        TransactionManager::new(Arc::new(VirtualClock::new_virtual()))
    }

    #[test]
    fn top_level_lifecycle() {
        let tm = manager();
        let t = tm.begin().unwrap();
        assert_eq!(tm.state(t).unwrap(), TxnState::Active);
        tm.commit(t).unwrap();
        assert_eq!(tm.state(t).unwrap(), TxnState::Committed);
        assert!(tm.commit(t).is_err(), "double commit is rejected");
    }

    #[test]
    fn abort_runs_compensations_in_reverse() {
        let tm = manager();
        let order = Arc::new(PMutex::new(Vec::new()));
        let t = tm.begin().unwrap();
        for i in 0..3 {
            let order = Arc::clone(&order);
            tm.on_abort(t, Box::new(move || order.lock().push(i)))
                .unwrap();
        }
        tm.abort(t).unwrap();
        assert_eq!(*order.lock(), vec![2, 1, 0]);
    }

    #[test]
    fn commit_runs_deferred_hooks_and_cascades() {
        let tm = Arc::new(manager());
        let log = Arc::new(PMutex::new(Vec::new()));
        let t = tm.begin().unwrap();
        let log1 = Arc::clone(&log);
        let tm2 = Arc::clone(&tm);
        let log2 = Arc::clone(&log);
        tm.defer(
            t,
            Box::new(move || {
                log1.lock().push("first");
                // Cascade: a deferred hook enqueues another.
                tm2.defer(
                    t,
                    Box::new(move || {
                        log2.lock().push("cascaded");
                        Ok(())
                    }),
                )?;
                Ok(())
            }),
        )
        .unwrap();
        tm.commit(t).unwrap();
        assert_eq!(*log.lock(), vec!["first", "cascaded"]);
    }

    #[test]
    fn failing_deferred_hook_aborts_the_transaction() {
        let tm = manager();
        let t = tm.begin().unwrap();
        tm.defer(
            t,
            Box::new(|| Err(ReachError::RuleEvaluation("constraint violated".into()))),
        )
        .unwrap();
        assert!(tm.commit(t).is_err());
        assert_eq!(tm.state(t).unwrap(), TxnState::Aborted);
    }

    #[test]
    fn nested_commit_transfers_locks_to_parent() {
        let tm = manager();
        let parent = tm.begin().unwrap();
        let child = tm.begin_nested(parent).unwrap();
        tm.lock(child, ObjectId::new(1), LockMode::Exclusive)
            .unwrap();
        tm.commit(child).unwrap();
        assert_eq!(
            tm.locks().held_mode(parent, ObjectId::new(1)),
            Some(LockMode::Exclusive)
        );
        tm.commit(parent).unwrap();
        assert_eq!(tm.locks().held_mode(parent, ObjectId::new(1)), None);
    }

    #[test]
    fn lock_refuses_transactions_that_are_not_live() {
        let tm = manager();
        let oid = ObjectId::new(1);
        let t = tm.begin().unwrap();
        tm.commit(t).unwrap();
        assert!(matches!(
            tm.lock(t, oid, LockMode::Exclusive),
            Err(ReachError::TxnNotActive(id)) if id == t
        ));
        let aborted = tm.begin().unwrap();
        tm.abort(aborted).unwrap();
        assert!(matches!(
            tm.lock(aborted, oid, LockMode::Shared),
            Err(ReachError::TxnNotActive(id)) if id == aborted
        ));
        // A committed subtransaction stays in the registry until its top
        // ends; its state, not its absence, refuses it.
        let parent = tm.begin().unwrap();
        let child = tm.begin_nested(parent).unwrap();
        tm.commit(child).unwrap();
        assert!(matches!(
            tm.lock(child, oid, LockMode::Exclusive),
            Err(ReachError::TxnNotActive(id)) if id == child
        ));
        let never = TxnId::new(9_999);
        assert!(matches!(
            tm.lock(never, oid, LockMode::Exclusive),
            Err(ReachError::TxnNotFound(id)) if id == never
        ));
        // None of the refusals left a lock behind: a live writer gets
        // the object at once instead of timing out.
        tm.lock(parent, oid, LockMode::Exclusive).unwrap();
        tm.commit(parent).unwrap();
        let next = tm.begin().unwrap();
        tm.lock(next, oid, LockMode::Exclusive).unwrap();
        tm.commit(next).unwrap();
    }

    #[test]
    fn child_can_lock_what_parent_holds() {
        let tm = manager();
        let parent = tm.begin().unwrap();
        tm.lock(parent, ObjectId::new(1), LockMode::Exclusive)
            .unwrap();
        let child = tm.begin_nested(parent).unwrap();
        tm.lock(child, ObjectId::new(1), LockMode::Exclusive)
            .unwrap();
        tm.commit(child).unwrap();
        tm.commit(parent).unwrap();
    }

    #[test]
    fn parent_commit_with_active_child_is_a_violation() {
        let tm = manager();
        let parent = tm.begin().unwrap();
        let _child = tm.begin_nested(parent).unwrap();
        assert!(matches!(
            tm.commit(parent),
            Err(ReachError::NestedViolation(_))
        ));
    }

    #[test]
    fn aborting_parent_aborts_active_children() {
        let tm = manager();
        let parent = tm.begin().unwrap();
        let child = tm.begin_nested(parent).unwrap();
        let grandchild = tm.begin_nested(child).unwrap();
        tm.abort(parent).unwrap();
        assert_eq!(tm.state(child).unwrap(), TxnState::Aborted);
        assert_eq!(tm.state(grandchild).unwrap(), TxnState::Aborted);
    }

    #[test]
    fn committed_child_obligations_move_to_parent() {
        let tm = manager();
        let hit = Arc::new(PMutex::new(false));
        let parent = tm.begin().unwrap();
        let child = tm.begin_nested(parent).unwrap();
        let hit2 = Arc::clone(&hit);
        tm.on_abort(child, Box::new(move || *hit2.lock() = true))
            .unwrap();
        tm.commit(child).unwrap();
        // Child committed, but the parent's abort must still undo it.
        tm.abort(parent).unwrap();
        assert!(*hit.lock(), "child compensation must run on parent abort");
    }

    #[test]
    fn dependency_must_abort_propagates() {
        let tm = manager();
        let trigger = tm.begin().unwrap();
        let dependent = tm.begin().unwrap();
        tm.dependencies()
            .add(dependent, crate::dependency::CommitRule::IfAborted(trigger));
        tm.commit(trigger).unwrap();
        // Exclusive mode: trigger committed, so the dependent must abort.
        assert!(tm.commit(dependent).is_err());
        assert_eq!(tm.state(dependent).unwrap(), TxnState::Aborted);
    }

    #[test]
    fn dependency_on_a_running_subject_refuses_at_once() {
        let tm = manager();
        let trigger = tm.begin().unwrap();
        let dependent = tm.begin().unwrap();
        tm.dependencies().add(
            dependent,
            crate::dependency::CommitRule::IfCommitted(trigger),
        );
        let t0 = std::time::Instant::now();
        assert!(matches!(
            tm.commit(dependent),
            Err(ReachError::DependencyViolation(_))
        ));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "no wait for the trigger"
        );
        assert_eq!(tm.state(dependent).unwrap(), TxnState::Aborted);
        tm.commit(trigger).unwrap();
    }

    #[test]
    fn dependency_commit_allows() {
        let tm = manager();
        let trigger = tm.begin().unwrap();
        let dependent = tm.begin().unwrap();
        tm.dependencies().add(
            dependent,
            crate::dependency::CommitRule::IfCommitted(trigger),
        );
        tm.commit(trigger).unwrap();
        tm.commit(dependent).unwrap();
        assert_eq!(tm.state(dependent).unwrap(), TxnState::Committed);
    }

    #[test]
    fn listeners_see_the_full_event_sequence() {
        let tm = manager();
        #[derive(Default)]
        struct Rec(PMutex<Vec<(TxnEventKind, TxnId)>>);
        impl TxnListener for Rec {
            fn on_txn_event(&self, e: &TxnEvent) {
                self.0.lock().push((e.kind, e.txn));
            }
        }
        let rec = Arc::new(Rec::default());
        tm.add_listener(Arc::clone(&rec) as Arc<dyn TxnListener>);
        let t = tm.begin().unwrap();
        tm.commit(t).unwrap();
        let a = tm.begin().unwrap();
        tm.abort(a).unwrap();
        let events = rec.0.lock();
        assert_eq!(
            *events,
            vec![
                (TxnEventKind::Begin, t),
                (TxnEventKind::PreCommit, t),
                (TxnEventKind::Committed, t),
                (TxnEventKind::Begin, a),
                (TxnEventKind::Aborted, a),
            ]
        );
    }

    #[test]
    fn on_commit_actions_run_after_commit_only() {
        let tm = manager();
        let hits = Arc::new(PMutex::new(0));
        let t = tm.begin().unwrap();
        let h = Arc::clone(&hits);
        tm.on_commit(t, Box::new(move || *h.lock() += 1)).unwrap();
        let a = tm.begin().unwrap();
        let h = Arc::clone(&hits);
        tm.on_commit(a, Box::new(move || *h.lock() += 1)).unwrap();
        tm.abort(a).unwrap();
        assert_eq!(*hits.lock(), 0);
        tm.commit(t).unwrap();
        assert_eq!(*hits.lock(), 1);
    }

    #[test]
    fn resource_manager_sees_savepoint_rollback() {
        #[derive(Default)]
        struct Rm {
            log: PMutex<Vec<String>>,
        }
        impl ResourceManager for Rm {
            fn begin_top(&self, t: TxnId) -> Result<()> {
                self.log.lock().push(format!("begin {t}"));
                Ok(())
            }
            fn savepoint(&self, _t: TxnId) -> Result<u64> {
                self.log.lock().push("savepoint".into());
                Ok(42)
            }
            fn rollback_to(&self, _t: TxnId, sp: u64) -> Result<()> {
                self.log.lock().push(format!("rollback {sp}"));
                Ok(())
            }
            fn commit_top(&self, t: TxnId) -> Result<()> {
                self.log.lock().push(format!("commit {t}"));
                Ok(())
            }
            fn abort_top(&self, t: TxnId) -> Result<()> {
                self.log.lock().push(format!("abort {t}"));
                Ok(())
            }
        }
        let tm = manager();
        let rm = Arc::new(Rm::default());
        tm.add_resource_manager(Arc::clone(&rm) as Arc<dyn ResourceManager>);
        let t = tm.begin().unwrap();
        let c = tm.begin_nested(t).unwrap();
        tm.abort(c).unwrap();
        tm.commit(t).unwrap();
        assert_eq!(
            *rm.log.lock(),
            vec![
                format!("begin {t}"),
                "savepoint".to_string(),
                "rollback 42".to_string(),
                format!("commit {t}"),
            ]
        );
    }

    /// Locks must still be held while resource managers make the
    /// transaction durable (with group commit: while the group force is
    /// in flight) — releasing earlier would expose effects a crash
    /// could roll back. The probe RM checks from inside `commit_top`.
    #[test]
    fn locks_are_held_until_durability_returns() {
        struct ProbeRm {
            locks: PMutex<Option<Arc<LockManager>>>,
            oid: ObjectId,
            held_during_commit: PMutex<Option<bool>>,
        }
        impl ResourceManager for ProbeRm {
            fn begin_top(&self, _t: TxnId) -> Result<()> {
                Ok(())
            }
            fn savepoint(&self, _t: TxnId) -> Result<u64> {
                Ok(0)
            }
            fn rollback_to(&self, _t: TxnId, _sp: u64) -> Result<()> {
                Ok(())
            }
            fn commit_top(&self, t: TxnId) -> Result<()> {
                let lm = self.locks.lock().clone().unwrap();
                *self.held_during_commit.lock() = Some(lm.held_mode(t, self.oid).is_some());
                Ok(())
            }
            fn abort_top(&self, _t: TxnId) -> Result<()> {
                Ok(())
            }
        }
        let tm = manager();
        let rm = Arc::new(ProbeRm {
            locks: PMutex::new(Some(Arc::clone(tm.locks()))),
            oid: ObjectId::new(9),
            held_during_commit: PMutex::new(None),
        });
        tm.add_resource_manager(Arc::clone(&rm) as Arc<dyn ResourceManager>);
        let t = tm.begin().unwrap();
        tm.lock(t, ObjectId::new(9), LockMode::Exclusive).unwrap();
        tm.commit(t).unwrap();
        assert_eq!(
            *rm.held_during_commit.lock(),
            Some(true),
            "lock released before the resource manager finished durability"
        );
        // And released afterwards.
        assert_eq!(tm.locks().held_mode(t, ObjectId::new(9)), None);
    }

    /// A prepared transaction pins its locks until the coordinator's
    /// decision and is visible as live to introspection; a commit
    /// decision runs the full epilogue, an abort decision rolls back.
    #[test]
    fn prepared_transactions_pin_locks_until_decided() {
        #[derive(Default)]
        struct Rm {
            log: PMutex<Vec<String>>,
        }
        impl ResourceManager for Rm {
            fn begin_top(&self, _t: TxnId) -> Result<()> {
                Ok(())
            }
            fn savepoint(&self, _t: TxnId) -> Result<u64> {
                Ok(0)
            }
            fn rollback_to(&self, _t: TxnId, _sp: u64) -> Result<()> {
                Ok(())
            }
            fn commit_top(&self, _t: TxnId) -> Result<()> {
                self.log.lock().push("commit".into());
                Ok(())
            }
            fn abort_top(&self, _t: TxnId) -> Result<()> {
                self.log.lock().push("abort".into());
                Ok(())
            }
            fn prepare_top(&self, _t: TxnId, gid: u64) -> Result<()> {
                self.log.lock().push(format!("prepare {gid}"));
                Ok(())
            }
        }
        let tm = manager();
        let rm = Arc::new(Rm::default());
        tm.add_resource_manager(Arc::clone(&rm) as Arc<dyn ResourceManager>);

        let t = tm.begin().unwrap();
        let oid = ObjectId::new(77);
        tm.lock(t, oid, LockMode::Exclusive).unwrap();
        tm.prepare(t, 5).unwrap();
        assert_eq!(tm.state(t).unwrap(), TxnState::Prepared);
        assert!(tm.is_active(t));
        assert!(tm.active_top_level().contains(&t));
        // Locks stay pinned across the in-doubt window.
        assert!(tm.locks().held_mode(t, oid).is_some());
        // A second prepare or a plain commit is refused while in doubt.
        assert!(tm.prepare(t, 5).is_err());
        assert!(tm.commit(t).is_err());
        tm.decide(t, true).unwrap();
        assert_eq!(tm.state(t).unwrap(), TxnState::Committed);
        assert_eq!(tm.locks().held_mode(t, oid), None);
        assert_eq!(*rm.log.lock(), vec!["prepare 5", "commit"]);

        let a = tm.begin().unwrap();
        tm.lock(a, oid, LockMode::Exclusive).unwrap();
        tm.prepare(a, 6).unwrap();
        tm.decide(a, false).unwrap();
        assert_eq!(tm.state(a).unwrap(), TxnState::Aborted);
        assert_eq!(tm.locks().held_mode(a, oid), None);
        assert_eq!(
            *rm.log.lock(),
            vec!["prepare 5", "commit", "prepare 6", "abort"]
        );
    }

    // ---- retirement ----

    #[test]
    fn retired_top_and_children_keep_answering_state() {
        let tm = manager();
        let top = tm.begin().unwrap();
        let kept = tm.begin_nested(top).unwrap();
        let grandchild = tm.begin_nested(kept).unwrap();
        tm.commit(grandchild).unwrap();
        tm.commit(kept).unwrap();
        let undone = tm.begin_nested(top).unwrap();
        tm.abort(undone).unwrap();
        assert_eq!(
            tm.live_count(),
            4,
            "subtransactions live as long as their top"
        );
        tm.commit(top).unwrap();
        assert_eq!(tm.live_count(), 0, "the whole tree is retired with its top");
        assert_eq!(tm.state(top).unwrap(), TxnState::Committed);
        assert_eq!(tm.state(kept).unwrap(), TxnState::Committed);
        assert_eq!(tm.state(grandchild).unwrap(), TxnState::Committed);
        assert_eq!(tm.state(undone).unwrap(), TxnState::Aborted);
        assert!(!tm.is_active(top));

        let doomed = tm.begin().unwrap();
        let child = tm.begin_nested(doomed).unwrap();
        tm.abort(doomed).unwrap();
        assert_eq!(tm.live_count(), 0);
        assert_eq!(tm.state(doomed).unwrap(), TxnState::Aborted);
        assert_eq!(tm.state(child).unwrap(), TxnState::Aborted);
        // An id the manager never issued is still "not found".
        assert!(matches!(
            tm.state(TxnId::new(9_999)),
            Err(ReachError::TxnNotFound(_))
        ));
    }

    #[test]
    fn operations_on_a_retired_id_are_not_active_errors() {
        let tm = manager();
        let t = tm.begin().unwrap();
        let c = tm.begin_nested(t).unwrap();
        tm.commit(c).unwrap();
        tm.commit(t).unwrap();
        let a = tm.begin().unwrap();
        tm.abort(a).unwrap();
        let r = tm.begin_read_only().unwrap();
        tm.commit(r).unwrap();
        assert_eq!(tm.state(r).unwrap(), TxnState::Committed);
        for id in [t, c, a, r] {
            assert!(matches!(tm.commit(id), Err(ReachError::TxnNotActive(x)) if x == id));
            assert!(matches!(tm.abort(id), Err(ReachError::TxnNotActive(x)) if x == id));
            assert!(matches!(tm.begin_nested(id), Err(ReachError::TxnNotActive(x)) if x == id));
            assert!(matches!(tm.prepare(id, 1), Err(ReachError::TxnNotActive(x)) if x == id));
            assert!(matches!(tm.decide(id, true), Err(ReachError::TxnNotActive(x)) if x == id));
            assert!(tm.defer(id, Box::new(|| Ok(()))).is_err());
        }
        assert_eq!(tm.live_count(), 0);
    }

    #[test]
    fn listeners_and_post_commit_actions_run_before_retirement() {
        struct Probe {
            tm: PMutex<Option<Arc<TransactionManager>>>,
            seen: PMutex<Vec<(TxnEventKind, Option<TxnId>)>>,
        }
        impl TxnListener for Probe {
            fn on_txn_event(&self, e: &TxnEvent) {
                let tm = self.tm.lock().clone().unwrap();
                if matches!(e.kind, TxnEventKind::Committed | TxnEventKind::Aborted)
                    && e.parent.is_none()
                {
                    // The record (hence the tree shape) is still there.
                    self.seen.lock().push((e.kind, tm.top_of(e.txn).ok()));
                }
            }
        }
        let tm = Arc::new(manager());
        let probe = Arc::new(Probe {
            tm: PMutex::new(Some(Arc::clone(&tm))),
            seen: PMutex::new(Vec::new()),
        });
        tm.add_listener(Arc::clone(&probe) as Arc<dyn TxnListener>);
        let t = tm.begin().unwrap();
        let tm2 = Arc::clone(&tm);
        let in_action = Arc::new(PMutex::new(None));
        let slot = Arc::clone(&in_action);
        tm.on_commit(t, Box::new(move || *slot.lock() = tm2.top_of(t).ok()))
            .unwrap();
        tm.commit(t).unwrap();
        let a = tm.begin().unwrap();
        tm.abort(a).unwrap();
        assert_eq!(
            *probe.seen.lock(),
            vec![
                (TxnEventKind::Committed, Some(t)),
                (TxnEventKind::Aborted, Some(a))
            ]
        );
        assert_eq!(*in_action.lock(), Some(t));
        assert!(tm.top_of(t).is_err(), "and gone afterwards");
        *probe.tm.lock() = None;
    }

    #[test]
    fn prepared_txn_stays_live_while_others_retire() {
        let tm = manager();
        let t = tm.begin().unwrap();
        tm.prepare(t, 42).unwrap();
        for _ in 0..1_000 {
            let other = tm.begin().unwrap();
            let c = tm.begin_nested(other).unwrap();
            tm.commit(c).unwrap();
            tm.commit(other).unwrap();
        }
        assert_eq!(tm.live_count(), 1, "only the in-doubt transaction remains");
        assert_eq!(tm.state(t).unwrap(), TxnState::Prepared);
        assert_eq!(tm.dependencies().outcome(t), None);
        tm.decide(t, true).unwrap();
        assert_eq!(tm.live_count(), 0);
        assert_eq!(tm.state(t).unwrap(), TxnState::Committed);
    }

    /// Table 1's "all commit" / "all abort" cells with origins that
    /// finished long ago: the outcome outlives the record.
    #[test]
    fn dependencies_resolve_against_transactions_finished_100k_ids_ago() {
        let tm = manager();
        let committed = tm.begin().unwrap();
        tm.commit(committed).unwrap();
        let aborted = tm.begin().unwrap();
        tm.abort(aborted).unwrap();
        for _ in 0..50_000 {
            let t = tm.begin().unwrap();
            let c = tm.begin_nested(t).unwrap();
            tm.commit(c).unwrap();
            tm.commit(t).unwrap();
        }
        assert_eq!(tm.live_count(), 0);
        let deps = tm.dependencies();
        let all_commit = tm.begin().unwrap();
        assert!(all_commit.raw() > committed.raw() + 100_000);
        deps.add(
            all_commit,
            crate::dependency::CommitRule::IfCommitted(committed),
        );
        deps.add(
            all_commit,
            crate::dependency::CommitRule::IfAborted(aborted),
        );
        tm.commit(all_commit).unwrap();
        let refused = tm.begin().unwrap();
        deps.add(
            refused,
            crate::dependency::CommitRule::IfCommitted(committed),
        );
        deps.add(refused, crate::dependency::CommitRule::IfCommitted(aborted));
        assert!(tm.commit(refused).is_err());
        assert_eq!(tm.state(refused).unwrap(), TxnState::Aborted);
        assert_eq!(deps.outcome(aborted), Some(Outcome::Aborted));
    }

    #[test]
    fn active_top_level_lists_only_running_tops() {
        let tm = manager();
        let a = tm.begin().unwrap();
        let b = tm.begin().unwrap();
        let _child = tm.begin_nested(a).unwrap();
        assert_eq!(tm.active_top_level(), vec![a, b]);
        tm.commit(b).unwrap();
        assert_eq!(tm.active_top_level(), vec![a]);
    }

    // ---- MVCC snapshot transactions ----

    use crate::mvcc::{CommitTs, VersionPublisher, VersionStore};

    type StagedWrites = HashMap<TxnId, Vec<(ObjectId, Option<u64>)>>;

    /// A version publisher for tests: writers stage values, publication
    /// at commit moves them into the version store — the same shape the
    /// object layer's bridge has, minus the object space.
    struct TestPublisher {
        store: VersionStore<u64>,
        pending: PMutex<StagedWrites>,
    }

    impl TestPublisher {
        fn new() -> Arc<Self> {
            Arc::new(TestPublisher {
                store: VersionStore::new(),
                pending: PMutex::new(HashMap::new()),
            })
        }
        fn stage(&self, txn: TxnId, oid: ObjectId, val: Option<u64>) {
            self.pending.lock().entry(txn).or_default().push((oid, val));
        }
    }

    impl VersionPublisher for TestPublisher {
        fn publish(&self, txn: TxnId, ts: CommitTs) -> usize {
            let writes = self.pending.lock().remove(&txn).unwrap_or_default();
            let n = writes.len();
            for (oid, val) in writes {
                self.store.publish(oid, ts, val);
            }
            n
        }
        fn vacuum(&self, watermark: CommitTs) -> usize {
            self.store.vacuum(watermark)
        }
        fn long_chains(&self) -> usize {
            self.store.long_chains()
        }
    }

    fn write_and_commit(tm: &TransactionManager, p: &TestPublisher, oid: ObjectId, val: u64) {
        let t = tm.begin().unwrap();
        tm.lock(t, oid, LockMode::Exclusive).unwrap();
        p.stage(t, oid, Some(val));
        tm.commit(t).unwrap();
    }

    #[test]
    fn version_chains_stay_bounded_under_stamp_free_commits() {
        // Regression: vacuum used to run only on snapshot-stamp
        // release, so 10k commits with no read-only transaction ever
        // open grew the chain to 10k versions. The writer-path
        // threshold trigger must keep it bounded.
        let tm = manager();
        let p = TestPublisher::new();
        tm.add_version_publisher(Arc::clone(&p) as Arc<dyn VersionPublisher>);
        let oid = ObjectId::new(3);
        for v in 0..10_000u64 {
            write_and_commit(&tm, &p, oid, v);
        }
        let retained = p.store.versions_of(oid);
        assert!(
            retained <= VACUUM_CHAIN_THRESHOLD + 1,
            "chain must stay bounded without snapshot readers: {retained} versions retained"
        );
        assert!(p.store.longest_chain() <= VACUUM_CHAIN_THRESHOLD + 1);
        // The newest committed state is always preserved.
        assert_eq!(
            p.store
                .read_at(oid, tm.commit_stamp())
                .and_then(|v| v.payload),
            Some(9_999)
        );
        // A live snapshot still pins its base version across the
        // triggered vacuums that further commits produce.
        let reader = tm.begin_read_only().unwrap();
        let stamp = tm.snapshot_stamp(reader).unwrap();
        for v in 0..(2 * VACUUM_CHAIN_THRESHOLD as u64 + 10) {
            write_and_commit(&tm, &p, oid, 100_000 + v);
        }
        assert_eq!(
            p.store.read_at(oid, stamp).and_then(|v| v.payload),
            Some(9_999),
            "writer-triggered vacuum must never reclaim a pinned base"
        );
        tm.commit(reader).unwrap();
    }

    #[test]
    fn snapshot_reads_see_only_the_committed_prefix() {
        let tm = manager();
        let p = TestPublisher::new();
        tm.add_version_publisher(Arc::clone(&p) as Arc<dyn VersionPublisher>);
        let oid = ObjectId::new(1);
        write_and_commit(&tm, &p, oid, 10);
        let reader = tm.begin_read_only().unwrap();
        let stamp = tm.snapshot_stamp(reader).unwrap();
        // A later commit must stay invisible to the open snapshot.
        write_and_commit(&tm, &p, oid, 20);
        assert_eq!(
            p.store.read_at(oid, stamp).and_then(|v| v.payload),
            Some(10)
        );
        assert_eq!(tm.commit_stamp(), 2, "two commits advanced the clock");
        tm.commit(reader).unwrap();
        // A fresh snapshot adopts the newest published state.
        let reader2 = tm.begin_read_only().unwrap();
        let stamp2 = tm.snapshot_stamp(reader2).unwrap();
        assert_eq!(
            p.store.read_at(oid, stamp2).and_then(|v| v.payload),
            Some(20)
        );
        tm.commit(reader2).unwrap();
    }

    #[test]
    fn snapshot_reader_acquires_zero_locks_while_writer_holds_exclusive() {
        let metrics = MetricsRegistry::new_shared();
        metrics.enable();
        let tm = TransactionManager::with_metrics(
            Arc::new(VirtualClock::new_virtual()),
            metrics.clone(),
        );
        let p = TestPublisher::new();
        tm.add_version_publisher(Arc::clone(&p) as Arc<dyn VersionPublisher>);
        let oid = ObjectId::new(7);
        write_and_commit(&tm, &p, oid, 1);
        // A writer parks on an exclusive lock across the whole read.
        let writer = tm.begin().unwrap();
        tm.lock(writer, oid, LockMode::Exclusive).unwrap();
        let grants_before = metrics.txn.lock_acquisitions.get();
        let reader = tm.begin_read_only().unwrap();
        let stamp = tm.snapshot_stamp(reader).unwrap();
        assert_eq!(p.store.read_at(oid, stamp).and_then(|v| v.payload), Some(1));
        tm.commit(reader).unwrap();
        assert_eq!(
            metrics.txn.lock_acquisitions.get(),
            grants_before,
            "snapshot read went through the lock manager"
        );
        assert_eq!(metrics.txn.snapshot_begins.get(), 1);
        assert_eq!(metrics.txn.snapshot_reads.get(), 1);
        tm.abort(writer).unwrap();
    }

    #[test]
    fn expired_deadline_fails_snapshot_read_at_entry() {
        let tm = manager();
        let reader = tm.begin_read_only().unwrap();
        assert!(tm.snapshot_stamp(reader).is_ok());
        tm.set_deadline(
            reader,
            Some(std::time::Instant::now() - Duration::from_millis(1)),
        );
        assert!(
            matches!(tm.snapshot_stamp(reader), Err(ReachError::DeadlineExceeded)),
            "a lock-free read has no wait to interrupt; the entry check must fire"
        );
        // The transaction itself is still alive and can be finished.
        tm.abort(reader).unwrap();
    }

    #[test]
    fn read_only_txn_rejects_locks_and_subtransactions() {
        let tm = manager();
        let reader = tm.begin_read_only().unwrap();
        assert!(matches!(
            tm.lock(reader, ObjectId::new(1), LockMode::Exclusive),
            Err(ReachError::ReadOnlyTxn(t)) if t == reader
        ));
        assert!(matches!(
            tm.begin_nested(reader),
            Err(ReachError::ReadOnlyTxn(t)) if t == reader
        ));
        tm.commit(reader).unwrap();
    }

    #[test]
    fn live_snapshot_pins_versions_and_release_reclaims() {
        let tm = manager();
        let p = TestPublisher::new();
        tm.add_version_publisher(Arc::clone(&p) as Arc<dyn VersionPublisher>);
        let oid = ObjectId::new(3);
        write_and_commit(&tm, &p, oid, 1);
        let reader = tm.begin_read_only().unwrap();
        let stamp = tm.snapshot_stamp(reader).unwrap();
        write_and_commit(&tm, &p, oid, 2);
        write_and_commit(&tm, &p, oid, 3);
        assert_eq!(tm.live_snapshots(), 1);
        assert_eq!(
            p.store.versions_of(oid),
            3,
            "the open snapshot pins superseded versions"
        );
        assert_eq!(p.store.read_at(oid, stamp).and_then(|v| v.payload), Some(1));
        tm.commit(reader).unwrap();
        assert_eq!(tm.live_snapshots(), 0);
        assert_eq!(
            p.store.versions_of(oid),
            1,
            "last reader out triggers the vacuum down to the newest version"
        );
    }

    #[test]
    fn read_only_txns_never_reach_resource_managers() {
        struct CountingRm(PMutex<usize>);
        impl ResourceManager for CountingRm {
            fn begin_top(&self, _t: TxnId) -> Result<()> {
                *self.0.lock() += 1;
                Ok(())
            }
            fn savepoint(&self, _t: TxnId) -> Result<u64> {
                *self.0.lock() += 1;
                Ok(0)
            }
            fn rollback_to(&self, _t: TxnId, _sp: u64) -> Result<()> {
                *self.0.lock() += 1;
                Ok(())
            }
            fn commit_top(&self, _t: TxnId) -> Result<()> {
                *self.0.lock() += 1;
                Ok(())
            }
            fn abort_top(&self, _t: TxnId) -> Result<()> {
                *self.0.lock() += 1;
                Ok(())
            }
        }
        let tm = manager();
        let rm = Arc::new(CountingRm(PMutex::new(0)));
        tm.add_resource_manager(Arc::clone(&rm) as Arc<dyn ResourceManager>);
        let r1 = tm.begin_read_only().unwrap();
        let r2 = tm.begin_read_only().unwrap();
        tm.commit(r1).unwrap();
        tm.abort(r2).unwrap();
        assert_eq!(
            *rm.0.lock(),
            0,
            "snapshot txns have nothing to make durable"
        );
    }

    #[test]
    fn snapshot_commit_runs_on_commit_hooks() {
        let tm = manager();
        let ran = Arc::new(PMutex::new(false));
        let r = tm.begin_read_only().unwrap();
        let flag = Arc::clone(&ran);
        tm.on_commit(r, Box::new(move || *flag.lock() = true))
            .unwrap();
        tm.commit(r).unwrap();
        assert!(*ran.lock());
    }
}
