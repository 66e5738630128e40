//! The rule execution engine (§6.4).
//!
//! Responsibilities:
//!
//! * **ordering** — rules fired by one event run by priority; ties break
//!   oldest-rule-first (default) or newest-rule-first; the deferred
//!   drain can additionally put simple-event rules ahead of
//!   composite-event rules;
//! * **immediate** rules run as subtransactions at the detection point —
//!   either serially (the paper's ring-sequence fallback for the missing
//!   nested-transaction parallelism) or as parallel sibling
//!   subtransactions ([`ExecutionStrategy`]); a failing immediate rule
//!   aborts the triggering transaction (consistency semantics);
//! * **deferred** rules are buffered per top-level transaction and
//!   drained at pre-commit through the Transaction PM, in order;
//! * the four **detached** variants run on a fixed worker pool in fresh
//!   top-level transactions, with commit/abort dependencies on *every*
//!   origin transaction (Table 1's "all commit" / "all abort") awaited
//!   by continuations, never by a worker, their commits on workers of
//!   their own, and lock hand-over for the exclusive mode;
//! * **§3.2 parameter rule** — references to transient objects never
//!   cross into detached executions; such firings are rejected and
//!   counted.

use crate::coupling::CouplingMode;
use crate::eca::FireHandler;
use crate::event::EventOccurrence;
use crate::rule::{Rule, RuleCtx};
use open_oodb::Database;
use reach_common::sync::{Condvar, Mutex, RwLock};
use reach_common::{
    EventTypeId, FastMap, FastSet, MetricsRegistry, ObjectId, ReachError, Result, RuleId, Stage,
    TxnId,
};
use reach_txn::dependency::{CommitRule, Permission};
use std::collections::hash_map::Entry;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send>;

/// Named standing workers on one queue: a thread spawn costs more than
/// most rule actions. No job waits for a job of its own pool (a lock
/// a detached job waits for is released by a commit job, which runs on
/// another pool), so a fixed number of workers drains it. Submission
/// never blocks: a job that cannot be
/// queued (the bounded parallel-immediate queue is full) runs inline,
/// degrading to the serial ring-sequence. The workers share only the
/// receiving end, so dropping the pool drops the one sender; each
/// worker drains the queue and exits, and the drop joins them.
struct WorkerPool {
    tx: crossbeam::channel::Sender<Job>,
    workers: Box<[std::thread::JoinHandle<()>]>,
}

impl WorkerPool {
    /// `available_parallelism` (at least 2) workers named `name-i`; the
    /// queue holds `bound` jobs per worker (`None`: unbounded).
    fn new(name: &str, bound: Option<usize>) -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .max(2);
        let (tx, rx) = match bound {
            Some(per_worker) => crossbeam::channel::bounded::<Job>(n * per_worker),
            None => crossbeam::channel::unbounded::<Job>(),
        };
        let workers = (0..n)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool { tx, workers }
    }

    /// Run `job` on a worker, or inline if it cannot be queued.
    fn run(&self, job: Job) {
        if let Err(
            crossbeam::channel::TrySendError::Full(job)
            | crossbeam::channel::TrySendError::Disconnected(job),
        ) = self.tx.try_send(job)
        {
            job();
        }
    }

    /// Run all jobs (possibly concurrently), returning their AND-ed
    /// results once every job finished.
    fn run_all(&self, jobs: Vec<Box<dyn FnOnce() -> bool + Send>>) -> bool {
        let n = jobs.len();
        let (ack_tx, ack_rx) = crossbeam::channel::bounded::<bool>(n);
        for job in jobs {
            let ack = ack_tx.clone();
            self.run(Box::new(move || {
                let _ = ack.send(job());
            }));
        }
        drop(ack_tx);
        let mut all_ok = true;
        for _ in 0..n {
            all_ok &= ack_rx.recv().unwrap_or(false);
        }
        all_ok
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Swap in a sender nobody receives from: the real one drops and
        // the workers see the disconnect.
        drop(std::mem::replace(
            &mut self.tx,
            crossbeam::channel::unbounded().0,
        ));
        // A job on one of these workers can hold the last reference to
        // the engine, and so run this drop: that worker cannot join
        // itself, and the others exit on their own.
        let me = std::thread::current().id();
        if self.workers.iter().any(|w| w.thread().id() == me) {
            return;
        }
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
    }
}

/// How a set of rules fired by one event executes (E5's comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionStrategy {
    /// Ordered ring-sequence, one subtransaction after another.
    Serial,
    /// Parallel sibling subtransactions on threads.
    Parallel,
}

/// §6.4 tie-break policies for equal priorities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Default: oldest rule first.
    OldestFirst,
    /// Optional: newest rule first.
    NewestFirst,
}

/// Plain-value snapshot of the engine's rule-accounting counters. The
/// counters themselves live in the stack-wide metrics registry
/// (`MetricsRegistry::engine`) so `exp_observe` and
/// `Reach::metrics_snapshot()` read one source of truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub immediate_runs: u64,
    pub deferred_runs: u64,
    pub detached_runs: u64,
    pub actions_executed: u64,
    pub conditions_false: u64,
    pub skipped_transient: u64,
    pub skipped_dependency: u64,
    pub failures: u64,
    pub triggering_aborts: u64,
    pub retries: u64,
    pub gave_up: u64,
}

/// Bounded exponential-backoff policy for detached firings that hit a
/// *transient* error ([`ReachError::is_transient`]): deadlock victims,
/// lock timeouts, buffer-pool pressure. Attempt `k` (1-based) sleeps
/// `base_backoff * 2^(k-1)` before re-running, capped at `max_backoff`.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts including the first (so 1 disables retrying).
    pub max_attempts: u32,
    pub base_backoff: Duration,
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        (self.base_backoff * 2u32.pow(shift)).min(self.max_backoff)
    }
}

/// A rule action that actually ran (condition held, action returned),
/// reported to firing listeners registered with
/// [`Engine::add_firing_listener`]. This is the hook the network server
/// uses to push rule-firing notifications to subscribed clients.
#[derive(Debug, Clone)]
pub struct FiringNotice {
    /// The rule that fired.
    pub rule: RuleId,
    /// Its registered name.
    pub rule_name: String,
    /// The event type of the triggering occurrence.
    pub event_type: EventTypeId,
}

/// Callback invoked after every executed rule action.
pub type FiringListener = Box<dyn Fn(&FiringNotice) + Send + Sync>;

/// A detached rule firing the engine could not complete. Firings are
/// never silently dropped: whatever the engine gives up on lands here,
/// with the final error and the number of attempts made.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    pub rule: RuleId,
    pub rule_name: String,
    pub error: ReachError,
    pub attempts: u32,
    /// The shard this engine runs as (0 in a single-node deployment).
    /// Without it, a multi-shard operator draining dead letters cannot
    /// tell *where* the firing was abandoned.
    pub shard: u32,
    /// The transaction whose event triggered the firing (first origin
    /// of the occurrence; `None` for detached/temporal occurrences with
    /// no transactional origin).
    pub origin: Option<TxnId>,
}

type Pending = (Arc<Rule>, Arc<EventOccurrence>, bool);

/// One detached firing, carried from job to continuation to job until
/// it commits, is refused or is dead-lettered.
struct Firing {
    rule: Arc<Rule>,
    occ: Arc<EventOccurrence>,
    mode: CouplingMode,
    /// The triggering occurrence's origin transactions.
    origins: Vec<TxnId>,
    /// Split C-A coupling: the condition already held.
    action_only: bool,
}

impl Firing {
    /// The commit conditions of the mode's rule transaction: Table 1's
    /// "all commit" (parallel) or "all abort" (exclusive) over the
    /// origins.
    fn commit_rules(&self) -> Vec<CommitRule> {
        let rule = match self.mode {
            CouplingMode::ParallelCausallyDependent => CommitRule::IfCommitted,
            CouplingMode::ExclusiveCausallyDependent => CommitRule::IfAborted,
            _ => return Vec::new(),
        };
        self.origins.iter().map(|o| rule(*o)).collect()
    }
}

/// The engine. Installed as the router's [`FireHandler`].
pub struct Engine {
    db: Arc<Database>,
    strategy: RwLock<ExecutionStrategy>,
    tiebreak: RwLock<TieBreak>,
    /// Deferred-drain policy: simple-event rules before composite-event
    /// rules (§6.4's third policy).
    simple_events_first: RwLock<bool>,
    /// Deferred firings per top-level transaction. A transaction has
    /// an entry exactly while its pre-commit drain hook is installed.
    deferred: Mutex<FastMap<TxnId, Vec<Pending>>>,
    /// Transactions spawned to run detached rules. Their flow-control
    /// points do not raise events — otherwise a rule on the commit event
    /// would re-trigger itself forever (the termination problem §6.4
    /// cites \[AWH92\] for; suppressing rule-transaction flow events is
    /// REACH's pragmatic guard).
    rule_txns: Mutex<FastSet<TxnId>>,
    /// Standing workers for parallel immediate actions (lazy; a short
    /// queue, so a saturated pool runs siblings inline).
    pool: OnceLock<WorkerPool>,
    /// Standing workers for detached firings (lazy; unbounded queue).
    detached_pool: OnceLock<WorkerPool>,
    /// Standing workers for the commits of parallel and exclusive rule
    /// transactions (lazy; unbounded queue). A commit only releases
    /// locks, so it must not queue behind detached jobs that may be
    /// waiting for the very locks it holds.
    commit_pool: OnceLock<WorkerPool>,
    /// Detached jobs queued or running; a firing parked on its trigger
    /// becomes one inside the trigger's commit or abort.
    inflight: Mutex<usize>,
    idle: Condvar,
    /// Stack-wide registry; rule accounting lands in `metrics.engine`
    /// (ungated — these counters pre-date the observability switch).
    metrics: Arc<MetricsRegistry>,
    retry: RwLock<RetryPolicy>,
    dead_letters: Mutex<Vec<DeadLetter>>,
    firing_listeners: RwLock<Vec<FiringListener>>,
    /// Shard label stamped onto dead letters (0 = single node).
    shard_id: std::sync::atomic::AtomicU32,
}

impl Engine {
    pub fn new(db: Arc<Database>) -> Arc<Self> {
        let metrics = Arc::clone(db.metrics());
        Arc::new(Engine {
            db,
            strategy: RwLock::new(ExecutionStrategy::Serial),
            tiebreak: RwLock::new(TieBreak::OldestFirst),
            simple_events_first: RwLock::new(false),
            deferred: Mutex::new(FastMap::default()),
            rule_txns: Mutex::new(FastSet::default()),
            pool: OnceLock::new(),
            detached_pool: OnceLock::new(),
            commit_pool: OnceLock::new(),
            inflight: Mutex::new(0),
            idle: Condvar::new(),
            metrics,
            retry: RwLock::new(RetryPolicy::default()),
            dead_letters: Mutex::new(Vec::new()),
            firing_listeners: RwLock::new(Vec::new()),
            shard_id: std::sync::atomic::AtomicU32::new(0),
        })
    }

    pub fn set_retry_policy(&self, p: RetryPolicy) {
        *self.retry.write() = p;
    }

    pub fn retry_policy(&self) -> RetryPolicy {
        *self.retry.read()
    }

    /// Firings the engine gave up on — the permanent-failure record.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.dead_letters.lock().clone()
    }

    /// Drain the dead-letter record (e.g. after an operator handled it).
    pub fn take_dead_letters(&self) -> Vec<DeadLetter> {
        std::mem::take(&mut *self.dead_letters.lock())
    }

    /// Register a listener called after every executed rule action
    /// (any coupling mode), from the executing thread. Listeners must
    /// be fast and must not call back into the engine.
    pub fn add_firing_listener(&self, listener: FiringListener) {
        self.firing_listeners.write().push(listener);
    }

    /// Tell every registered listener `rule` just ran its action for
    /// `occ`. The empty-listener fast path is one RwLock read.
    fn notify_firing(&self, rule: &Rule, occ: &EventOccurrence) {
        let listeners = self.firing_listeners.read();
        if listeners.is_empty() {
            return;
        }
        let notice = FiringNotice {
            rule: rule.id,
            rule_name: rule.name.clone(),
            event_type: occ.event_type,
        };
        for l in listeners.iter() {
            l(&notice);
        }
    }

    /// Record a firing the engine is abandoning for good. Transient
    /// errors that exhausted their retry budget additionally bump
    /// `gave_up`; nothing is ever dropped without a trace. `origins`
    /// are the triggering occurrence's origin transactions — the first
    /// is recorded so a drained dead letter names the transaction (and
    /// via [`Engine::set_shard_id`] the shard) it came from.
    fn give_up(&self, rule: &Rule, origins: &[TxnId], error: ReachError, attempts: u32) {
        self.metrics.engine.failures.inc();
        if error.is_transient() {
            self.metrics.engine.gave_up.inc();
        }
        self.dead_letters.lock().push(DeadLetter {
            rule: rule.id,
            rule_name: rule.name.clone(),
            error,
            attempts,
            shard: self.shard_id.load(std::sync::atomic::Ordering::Relaxed),
            origin: origins.first().copied(),
        });
    }

    /// Label this engine with its shard index so abandoned firings are
    /// attributable in a multi-shard deployment. Defaults to 0.
    pub fn set_shard_id(&self, shard: u32) {
        self.shard_id
            .store(shard, std::sync::atomic::Ordering::Relaxed);
    }

    pub fn set_strategy(&self, s: ExecutionStrategy) {
        *self.strategy.write() = s;
    }

    pub fn strategy(&self) -> ExecutionStrategy {
        *self.strategy.read()
    }

    pub fn set_tiebreak(&self, t: TieBreak) {
        *self.tiebreak.write() = t;
    }

    pub fn set_simple_events_first(&self, on: bool) {
        *self.simple_events_first.write() = on;
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        let e = &self.metrics.engine;
        StatsSnapshot {
            immediate_runs: e.immediate_runs.get(),
            deferred_runs: e.deferred_runs.get(),
            detached_runs: e.detached_runs.get(),
            actions_executed: e.actions_executed.get(),
            conditions_false: e.conditions_false.get(),
            skipped_transient: e.skipped_transient.get(),
            skipped_dependency: e.skipped_dependency.get(),
            failures: e.failures.get(),
            triggering_aborts: e.triggering_aborts.get(),
            retries: e.retries.get(),
            gave_up: e.gave_up.get(),
        }
    }

    /// Sort rules for firing: priority descending, then the tie-break.
    fn order(&self, rules: &mut [Arc<Rule>]) {
        let tiebreak = *self.tiebreak.read();
        rules.sort_by(|a, b| {
            b.priority.cmp(&a.priority).then_with(|| match tiebreak {
                TieBreak::OldestFirst => a.created.cmp(&b.created),
                TieBreak::NewestFirst => b.created.cmp(&a.created),
            })
        });
    }

    /// Run one rule in `txn`, updating stats. With a split C-A coupling
    /// the condition is evaluated here and the action is *scheduled*
    /// under the rule's action coupling instead of running inline.
    /// `count_failures` is false on the detached retry path, where an
    /// error may be retried and only the *final* give-up counts as a
    /// failure; immediate and deferred executions fail at most once.
    fn run_rule(
        self: &Arc<Self>,
        rule: &Arc<Rule>,
        txn: TxnId,
        occ: &Arc<EventOccurrence>,
        count_failures: bool,
    ) -> Result<bool> {
        let ctx = RuleCtx {
            db: &self.db,
            txn,
            event: occ,
        };
        if let Some(ac) = rule.action_coupling {
            return match rule.eval_condition(&ctx) {
                Ok(true) => {
                    match ac {
                        CouplingMode::Deferred => self.enqueue_deferred(&mut vec![(
                            Arc::clone(rule),
                            Arc::clone(occ),
                            true,
                        )]),
                        mode => self.spawn_detached(Arc::clone(rule), Arc::clone(occ), mode, true),
                    }
                    Ok(true)
                }
                Ok(false) => {
                    self.metrics.engine.conditions_false.inc();
                    Ok(false)
                }
                Err(e) => {
                    if count_failures {
                        self.metrics.engine.failures.inc();
                    }
                    Err(e)
                }
            };
        }
        match rule.execute(&ctx) {
            Ok(true) => {
                self.metrics.engine.actions_executed.inc();
                self.notify_firing(rule, occ);
                Ok(true)
            }
            Ok(false) => {
                self.metrics.engine.conditions_false.inc();
                Ok(false)
            }
            Err(e) => {
                if count_failures {
                    self.metrics.engine.failures.inc();
                }
                Err(e)
            }
        }
    }

    /// Run only the action of a rule whose condition already held.
    /// `count_failures` as in [`Engine::run_rule`].
    fn run_action_only(
        &self,
        rule: &Rule,
        txn: TxnId,
        occ: &EventOccurrence,
        count_failures: bool,
    ) -> Result<()> {
        let ctx = RuleCtx {
            db: &self.db,
            txn,
            event: occ,
        };
        match rule.run_action(&ctx) {
            Ok(()) => {
                self.metrics.engine.actions_executed.inc();
                self.notify_firing(rule, occ);
                Ok(())
            }
            Err(e) => {
                if count_failures {
                    self.metrics.engine.failures.inc();
                }
                Err(e)
            }
        }
    }

    // ---- immediate ----

    /// Evaluate an immediate rule's condition in the *triggering*
    /// transaction (conditions are queries — HiPAC semantics — so they
    /// need no subtransaction of their own; §6.4 asks to "reduce the
    /// levels of indirection" on the firing path and skipping the
    /// subtransaction for false conditions is the biggest lever).
    /// Returns `Some(rule)` if the action must run.
    fn immediate_condition(
        self: &Arc<Self>,
        rule: &Arc<Rule>,
        parent: TxnId,
        occ: &Arc<EventOccurrence>,
    ) -> Result<bool> {
        self.metrics.engine.immediate_runs.inc();
        let ctx = RuleCtx {
            db: &self.db,
            txn: parent,
            event: occ,
        };
        match rule.eval_condition(&ctx) {
            Ok(true) => Ok(true),
            Ok(false) => {
                self.metrics.engine.conditions_false.inc();
                Ok(false)
            }
            Err(e) => {
                self.metrics.engine.failures.inc();
                Err(e)
            }
        }
    }

    /// Run one immediate action in a fresh subtransaction of `parent`.
    fn immediate_action(
        self: &Arc<Self>,
        rule: &Arc<Rule>,
        parent: TxnId,
        occ: &Arc<EventOccurrence>,
    ) -> Result<()> {
        let t0 = self.metrics.span_start();
        let tm = self.db.txn_manager();
        let child = tm.begin_nested(parent)?;
        let out = match self.run_action_only(rule, child, occ, true) {
            Ok(()) => tm.commit(child),
            Err(e) => {
                let _ = tm.abort(child);
                Err(e)
            }
        };
        if let Some(t0) = t0 {
            self.metrics
                .record_span(Stage::Subtransaction, t0.elapsed().as_nanos() as u64);
        }
        out
    }

    fn fire_immediate(self: &Arc<Self>, rules: &[Arc<Rule>], occ: &Arc<EventOccurrence>) {
        let Some(parent) = occ.txn else {
            self.metrics.engine.failures.add(rules.len() as u64);
            return;
        };
        // Phase 1: conditions, in order, in the triggering transaction.
        let mut to_run = Vec::new();
        for rule in rules {
            match self.immediate_condition(rule, parent, occ) {
                Ok(true) => {
                    let rule = Arc::clone(rule);
                    if let Some(ac) = rule.action_coupling {
                        // Split C-A coupling: schedule the action later.
                        match ac {
                            CouplingMode::Deferred => {
                                self.enqueue_deferred(&mut vec![(rule, Arc::clone(occ), true)])
                            }
                            mode => self.spawn_detached(rule, Arc::clone(occ), mode, true),
                        }
                    } else {
                        to_run.push(rule);
                    }
                }
                Ok(false) => {}
                Err(_) => {
                    self.abort_trigger(parent);
                    return;
                }
            }
        }
        if to_run.is_empty() {
            return;
        }
        // Phase 2: actions, as subtransactions — the ring-sequence
        // serially or as parallel siblings.
        match *self.strategy.read() {
            ExecutionStrategy::Serial => {
                for rule in to_run {
                    if self.immediate_action(&rule, parent, occ).is_err() {
                        self.abort_trigger(parent);
                        return;
                    }
                }
            }
            ExecutionStrategy::Parallel => {
                let pool = self
                    .pool
                    .get_or_init(|| WorkerPool::new("reach-action", Some(2)));
                let jobs: Vec<Box<dyn FnOnce() -> bool + Send>> = to_run
                    .into_iter()
                    .map(|rule| {
                        let engine = Arc::clone(self);
                        let occ = Arc::clone(occ);
                        Box::new(move || engine.immediate_action(&rule, parent, &occ).is_ok())
                            as Box<dyn FnOnce() -> bool + Send>
                    })
                    .collect();
                if !pool.run_all(jobs) {
                    self.abort_trigger(parent);
                }
            }
        }
    }

    fn abort_trigger(&self, txn: TxnId) {
        let tm = self.db.txn_manager();
        if let Ok(top) = tm.top_of(txn) {
            if tm.is_active(top) && tm.abort(top).is_ok() {
                self.metrics.engine.triggering_aborts.inc();
            }
        }
    }

    // ---- deferred ----

    /// Enqueue deferred firings — all of one top-level transaction, in
    /// event order — under a single lock pass. The pre-commit drain
    /// sorts by (priority, simple-first, rule age), which orders
    /// entries of *different* rules deterministically regardless of
    /// enqueue order, and the sort is stable, so entries of the same
    /// rule keep their event order. `entries` is left empty.
    fn enqueue_deferred(self: &Arc<Self>, entries: &mut Vec<Pending>) {
        let Some((_, first, _)) = entries.first() else {
            return;
        };
        let failed = entries.len() as u64;
        let Some(top) = first.top_txn else {
            entries.clear();
            self.metrics.engine.failures.add(failed);
            return;
        };
        let first_for_txn = match self.deferred.lock().entry(top) {
            Entry::Vacant(slot) => {
                slot.insert(std::mem::take(entries));
                true
            }
            Entry::Occupied(mut queue) => {
                queue.get_mut().append(entries);
                false
            }
        };
        if first_for_txn {
            let engine = Arc::clone(self);
            let res = self
                .db
                .txn_manager()
                .defer(top, Box::new(move || engine.drain_deferred(top)));
            if res.is_err() {
                self.deferred.lock().remove(&top);
                self.metrics.engine.failures.add(failed);
            }
        }
    }

    /// Drain the deferred batch of `top` at pre-commit, ordered. Rules
    /// scheduled *during* the drain form a later batch (the transaction
    /// manager keeps calling back until the queue is dry).
    fn drain_deferred(self: &Arc<Self>, top: TxnId) -> Result<()> {
        let mut batch = self.deferred.lock().remove(&top).unwrap_or_default();
        let tiebreak = *self.tiebreak.read();
        let simple_first = *self.simple_events_first.read();
        batch.sort_by(|(ra, oa, _), (rb, ob, _)| {
            rb.priority
                .cmp(&ra.priority)
                .then_with(|| {
                    if simple_first {
                        // Simple (no constituents) before composite.
                        oa.constituents
                            .is_empty()
                            .cmp(&ob.constituents.is_empty())
                            .reverse()
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .then_with(|| match tiebreak {
                    TieBreak::OldestFirst => ra.created.cmp(&rb.created),
                    TieBreak::NewestFirst => rb.created.cmp(&ra.created),
                })
        });
        let tm = self.db.txn_manager();
        for (rule, occ, action_only) in batch {
            self.metrics.engine.deferred_runs.inc();
            // Condition first (a query, evaluated in the committing
            // transaction); subtransaction only for a firing action.
            if !action_only {
                let ctx = RuleCtx {
                    db: &self.db,
                    txn: top,
                    event: &occ,
                };
                match rule.eval_condition(&ctx) {
                    Ok(true) => {}
                    Ok(false) => {
                        self.metrics.engine.conditions_false.inc();
                        continue;
                    }
                    Err(e) => {
                        self.metrics.engine.failures.inc();
                        return Err(e);
                    }
                }
            }
            let t0 = self.metrics.span_start();
            let child = tm.begin_nested(top)?;
            let out = match self.run_action_only(&rule, child, &occ, true) {
                Ok(()) => tm.commit(child),
                Err(e) => {
                    let _ = tm.abort(child);
                    // Propagate: a failing deferred rule aborts the
                    // triggering transaction (the manager handles it).
                    Err(e)
                }
            };
            if let Some(t0) = t0 {
                self.metrics
                    .record_span(Stage::Subtransaction, t0.elapsed().as_nanos() as u64);
            }
            out?;
        }
        Ok(())
    }

    // ---- detached ----

    /// §3.2: "References to transient objects are not allowed since
    /// these objects may disappear as soon as the originating
    /// transaction completes."
    ///
    /// An oid outside this space's partition belongs to another shard,
    /// which only ships *committed* (hence persistent) occurrences; a
    /// foreign receiver is therefore never a transient escape here.
    fn transient_refs(&self, occ: &EventOccurrence) -> Option<ObjectId> {
        let space = self.db.space();
        fn walk(e: &EventOccurrence, f: &impl Fn(ObjectId) -> bool) -> Option<ObjectId> {
            if let Some(oid) = e.data.receiver {
                if !f(oid) {
                    return Some(oid);
                }
            }
            for c in &e.constituents {
                if let Some(o) = walk(c, f) {
                    return Some(o);
                }
            }
            None
        }
        walk(occ, &|oid| space.is_persistent(oid) || !space.is_local(oid))
    }

    fn spawn_detached(
        self: &Arc<Self>,
        rule: Arc<Rule>,
        occ: Arc<EventOccurrence>,
        mode: CouplingMode,
        action_only: bool,
    ) {
        if let Some(oid) = self.transient_refs(&occ) {
            self.metrics.engine.skipped_transient.inc();
            let _ = ReachError::TransientReferenceEscape(oid); // documented refusal
            return;
        }
        let firing = Firing {
            origins: occ.origin_txns(),
            rule,
            occ,
            mode,
            action_only,
        };
        let tm = self.db.txn_manager();
        match mode {
            // Exclusive mode: arrange the resource (lock) hand-over
            // *now*, while the trigger is still active — if the trigger
            // aborts, its locks transfer to the contingency transaction
            // before release.
            CouplingMode::ExclusiveCausallyDependent => {
                let txn = match tm.begin() {
                    Ok(txn) => txn,
                    Err(e) => return self.give_up(&firing.rule, &firing.origins, e, 1),
                };
                self.mark_rule_txn(txn);
                for r in firing.commit_rules() {
                    tm.dependencies().add(txn, r);
                }
                for o in &firing.origins {
                    if tm.is_active(*o) {
                        let locks = Arc::clone(tm.locks());
                        let from = *o;
                        let _ = tm.on_abort(*o, Box::new(move || locks.transfer(from, txn)));
                    }
                }
                self.submit(move |e| e.run_detached(firing, Some(txn), 1));
            }
            // Sequential mode starts once every origin committed, from
            // a continuation the last origin's commit runs; an aborted
            // origin skips it.
            CouplingMode::SequentialCausallyDependent => {
                let gate: Vec<_> = firing
                    .origins
                    .iter()
                    .map(|o| CommitRule::IfCommitted(*o))
                    .collect();
                let engine = Arc::downgrade(self);
                let owner = Arc::as_ptr(self) as usize;
                tm.dependencies().when_resolved(owner, &gate, move |p| {
                    let Some(engine) = engine.upgrade() else {
                        return;
                    };
                    if p == Permission::Commit {
                        engine.submit(move |e| e.run_detached(firing, None, 1));
                    } else {
                        engine.metrics.engine.skipped_dependency.inc();
                    }
                });
            }
            _ => self.submit(move |e| e.run_detached(firing, None, 1)),
        }
    }

    /// Queue `job` on a detached worker, counted in `inflight` until it
    /// returns.
    fn submit(self: &Arc<Self>, job: impl FnOnce(&Arc<Engine>) + Send + 'static) {
        self.submit_to(&self.detached_pool, "reach-detached", job);
    }

    fn submit_to(
        self: &Arc<Self>,
        pool: &OnceLock<WorkerPool>,
        name: &str,
        job: impl FnOnce(&Arc<Engine>) + Send + 'static,
    ) {
        *self.inflight.lock() += 1;
        let engine = Arc::clone(self);
        let pool = pool.get_or_init(|| WorkerPool::new(name, None));
        pool.run(Box::new(move || {
            job(&engine);
            let mut n = engine.inflight.lock();
            *n -= 1;
            if *n == 0 {
                engine.idle.notify_all();
            }
        }));
    }

    /// Attempt `attempt` of one detached firing. A parallel or exclusive
    /// attempt ends by parking its commit as a continuation on the
    /// origins, which hands it to the commit workers; a failed attempt
    /// or commit queues its retry as a job of its own.
    fn run_detached(self: &Arc<Self>, f: Firing, pre_created: Option<TxnId>, attempt: u32) {
        if attempt > 1 {
            std::thread::sleep(self.retry_policy().backoff(attempt - 1));
        }
        let tm = self.db.txn_manager();
        // The first exclusive attempt runs in the pre-created
        // contingency transaction (its IfAborted dependencies and the
        // lock hand-over were wired by the spawner); every other attempt
        // gets a fresh transaction with the mode's dependencies
        // re-registered. A retry can no longer inherit the trigger's
        // locks, but the commit condition survives it.
        let txn = match pre_created {
            Some(txn) => txn,
            None => match tm.begin() {
                Ok(txn) => {
                    for r in f.commit_rules() {
                        tm.dependencies().add(txn, r);
                    }
                    self.mark_rule_txn(txn);
                    txn
                }
                Err(e) => return self.give_up(&f.rule, &f.origins, e, attempt),
            },
        };
        if attempt == 1 {
            self.metrics.engine.detached_runs.inc();
        }
        let outcome = if f.action_only {
            self.run_action_only(&f.rule, txn, &f.occ, false)
                .map(|_| true)
        } else {
            self.run_rule(&f.rule, txn, &f.occ, false)
        };
        if let Err(e) = outcome {
            let _ = tm.abort(txn);
            self.unmark_rule_txn(txn);
            return self.retry_or_give_up(f, e, attempt);
        }
        let rules = f.commit_rules();
        if rules.is_empty() {
            if let Some(err) = self.commit_detached(txn, attempt) {
                self.retry_or_give_up(f, err, attempt);
            }
            return;
        }
        let engine = Arc::downgrade(self);
        tm.dependencies()
            .when_resolved(Arc::as_ptr(self) as usize, &rules, move |_| {
                if let Some(engine) = engine.upgrade() {
                    engine.submit_to(&engine.commit_pool, "reach-commit", move |e| {
                        if let Some(err) = e.commit_detached(txn, attempt) {
                            e.retry_or_give_up(f, err, attempt);
                        }
                    });
                }
            });
    }

    /// Commit a detached rule transaction whose dependencies resolved.
    /// Returns the error if the attempt should be retried. A refusal —
    /// an exclusive rule whose trigger committed, a parallel one whose
    /// trigger aborted — is final, not an error to retry.
    fn commit_detached(&self, txn: TxnId, attempt: u32) -> Option<ReachError> {
        let committed = self.db.txn_manager().commit(txn);
        self.unmark_rule_txn(txn);
        match committed {
            Ok(()) => None,
            Err(e) if e.is_transient() && attempt < self.retry_policy().max_attempts => Some(e),
            Err(_) => {
                self.metrics.engine.skipped_dependency.inc();
                None
            }
        }
    }

    /// After failed attempt `attempt`: queue the next attempt, which
    /// first sleeps its backoff, or dead-letter the firing. The retry
    /// is a new job, so no worker loops on one firing while jobs queued
    /// meanwhile wait.
    fn retry_or_give_up(self: &Arc<Self>, f: Firing, err: ReachError, attempt: u32) {
        if err.is_transient() && attempt < self.retry_policy().max_attempts {
            self.metrics.engine.retries.inc();
            self.submit(move |e| e.run_detached(f, None, attempt + 1));
        } else {
            self.give_up(&f.rule, &f.origins, err, attempt);
        }
    }

    /// Whether `txn` is a rule-spawned (detached) transaction.
    pub fn is_rule_txn(&self, txn: TxnId) -> bool {
        self.rule_txns.lock().contains(&txn)
    }

    fn mark_rule_txn(&self, txn: TxnId) {
        self.rule_txns.lock().insert(txn);
    }

    fn unmark_rule_txn(&self, txn: TxnId) {
        self.rule_txns.lock().remove(&txn);
    }

    /// Block until no detached job is queued or running. A firing still
    /// parked on a running trigger is not waited for.
    pub fn wait_idle(&self) {
        let mut n = self.inflight.lock();
        while *n > 0 {
            self.idle.wait(&mut n);
        }
    }

    /// A top-level transaction ended: drop any buffered deferred work
    /// (the manager cleared its hooks; an aborted transaction fires no
    /// deferred rules).
    pub fn on_txn_finished(&self, top: TxnId) {
        self.deferred.lock().remove(&top);
    }
}

impl Drop for Engine {
    /// A dropped engine runs nothing more: its open rule transactions
    /// abort, and its continuations, which own their rules and so what
    /// an action captured (the database, say), leave the graph unrun.
    fn drop(&mut self) {
        let tm = self.db.txn_manager();
        let open: Vec<TxnId> = self.rule_txns.lock().iter().copied().collect();
        for txn in open {
            let _ = tm.abort(txn);
        }
        tm.dependencies()
            .forget_continuations(self as *const Engine as usize);
    }
}

impl Engine {
    /// Dispatch a set of rules fired by each of `occs`, in event order:
    /// the rule set is ordered and partitioned once, then per
    /// occurrence the deferred and detached rules are scheduled in
    /// priority order and the immediate rules run as one batch (serial
    /// ring-sequence or parallel siblings).
    ///
    /// Deferred firings are collected across occurrences and enqueued
    /// in one lock pass, but always *before* the next immediate batch
    /// runs — an immediate rule may abort the transaction or raise
    /// events whose own deferred rules queue behind these — so the
    /// deferred queue is the one occurrence-at-a-time firing builds.
    pub fn fire(self: &Arc<Self>, rules: &[Arc<Rule>], occs: &[Arc<EventOccurrence>]) {
        let t0 = self.metrics.span_start();
        // The sort is stable, so ordering each half is ordering the set.
        let (mut immediate, mut scheduled): (Vec<_>, Vec<_>) = rules
            .iter()
            .cloned()
            .partition(|r| r.coupling == CouplingMode::Immediate);
        self.order(&mut immediate);
        self.order(&mut scheduled);
        let mut deferred: Vec<Pending> = Vec::new();
        for occ in occs {
            for rule in &scheduled {
                let (rule, occ) = (Arc::clone(rule), Arc::clone(occ));
                match rule.coupling {
                    CouplingMode::Deferred => {
                        if matches!(deferred.last(), Some((_, prev, _)) if prev.top_txn != occ.top_txn)
                        {
                            self.enqueue_deferred(&mut deferred);
                        }
                        deferred.push((rule, occ, false));
                    }
                    mode => self.spawn_detached(rule, occ, mode, false),
                }
            }
            if !immediate.is_empty() {
                self.enqueue_deferred(&mut deferred);
                self.fire_immediate(&immediate, occ);
            }
        }
        self.enqueue_deferred(&mut deferred);
        if let Some(t0) = t0 {
            self.metrics
                .record_span(Stage::Engine, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Adapter installing an [`Engine`] as the router's fire handler.
pub struct EngineHandler(pub Arc<Engine>);

impl FireHandler for EngineHandler {
    fn fire(&self, rules: &[Arc<Rule>], occs: &[Arc<EventOccurrence>]) {
        self.0.fire(rules, occs);
    }
}
