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
//! * the four **detached** variants run on worker threads in fresh
//!   top-level transactions, with commit/abort dependencies registered
//!   against *every* origin transaction of the triggering event
//!   (Table 1's "all commit" / "all abort"), sequential start-after-
//!   commit scheduling, and lock hand-over for the exclusive mode;
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
use reach_txn::dependency::{CommitRule, Outcome};
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A small reusable worker pool for parallel immediate actions. Thread
/// spawn costs hundreds of microseconds — more than most rule actions —
/// so parallel sibling subtransactions only ever win if the workers are
/// standing by. Submission never blocks: when all workers are busy the
/// job runs inline on the caller (graceful degradation to the serial
/// ring-sequence, and immune to pool-exhaustion deadlocks from cascaded
/// rule firings).
struct ActionPool {
    tx: crossbeam::channel::Sender<Box<dyn FnOnce() + Send>>,
}

impl ActionPool {
    fn new(workers: usize) -> Self {
        let (tx, rx) = crossbeam::channel::bounded::<Box<dyn FnOnce() + Send>>(workers * 2);
        for i in 0..workers {
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("reach-action-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn action worker");
        }
        ActionPool { tx }
    }

    /// Run all jobs (possibly concurrently), returning their AND-ed
    /// results once every job finished.
    fn run_all(&self, jobs: Vec<Box<dyn FnOnce() -> bool + Send>>) -> bool {
        let n = jobs.len();
        let (ack_tx, ack_rx) = crossbeam::channel::bounded::<bool>(n);
        for job in jobs {
            let ack = ack_tx.clone();
            let wrapped: Box<dyn FnOnce() + Send> = Box::new(move || {
                let _ = ack.send(job());
            });
            if let Err(e) = self.tx.try_send(wrapped) {
                // Pool saturated: run inline.
                match e {
                    crossbeam::channel::TrySendError::Full(job)
                    | crossbeam::channel::TrySendError::Disconnected(job) => job(),
                }
            }
        }
        drop(ack_tx);
        let mut all_ok = true;
        for _ in 0..n {
            all_ok &= ack_rx.recv().unwrap_or(false);
        }
        all_ok
    }
}

/// Standing workers for detached rule firings. A thread spawn per
/// detached firing dominates the detached path under load (E13 fires
/// ~1.6k detached rules per run). The pool parks a few workers and
/// falls back to a fresh thread whenever none is idle, so the blocking
/// dependency waits of the causally-dependent modes never queue behind
/// a busy worker — detached concurrency is preserved exactly, only the
/// spawn cost of the common case is amortized.
///
/// The workers share only the `idle` counter and the receiving end, so
/// dropping the pool drops the one sender: each worker sees the
/// disconnect and exits, and the drop joins them.
struct DetachedPool {
    tx: crossbeam::channel::Sender<Box<dyn FnOnce() + Send>>,
    /// Workers parked in `recv` and not yet reserved by a submission.
    /// Every successful reservation (CAS decrement) pairs with exactly
    /// one queued job, so a job never waits behind a blocked one.
    idle: Arc<AtomicIsize>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl DetachedPool {
    fn new(workers: usize) -> Arc<Self> {
        let (tx, rx) = crossbeam::channel::unbounded::<Box<dyn FnOnce() + Send>>();
        let idle = Arc::new(AtomicIsize::new(workers as isize));
        let workers = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                let idle = Arc::clone(&idle);
                std::thread::Builder::new()
                    .name(format!("reach-detached-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                            idle.fetch_add(1, Ordering::Release);
                        }
                    })
                    .expect("spawn detached worker")
            })
            .collect();
        Arc::new(DetachedPool { tx, idle, workers })
    }

    /// Run `job` on a parked worker, or a fresh thread if none is idle.
    fn run(&self, job: Box<dyn FnOnce() + Send>) {
        let mut idle = self.idle.load(Ordering::Acquire);
        loop {
            if idle <= 0 {
                std::thread::spawn(job);
                return;
            }
            match self.idle.compare_exchange_weak(
                idle,
                idle - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(current) => idle = current,
            }
        }
        if let Err(crossbeam::channel::SendError(job)) = self.tx.send(job) {
            // Workers gone (engine tearing down): degrade to a thread.
            self.idle.fetch_add(1, Ordering::Release);
            std::thread::spawn(job);
        }
    }
}

impl Drop for DetachedPool {
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
        for w in self.workers.drain(..) {
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
    /// Standing workers for parallel immediate actions (lazy).
    pool: Mutex<Option<Arc<ActionPool>>>,
    /// Standing workers for detached firings (lazy).
    detached_pool: Mutex<Option<Arc<DetachedPool>>>,
    inflight: Mutex<usize>,
    idle: Condvar,
    /// Stack-wide registry; rule accounting lands in `metrics.engine`
    /// (ungated — these counters pre-date the observability switch).
    metrics: Arc<MetricsRegistry>,
    dep_timeout: Duration,
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
            pool: Mutex::new(None),
            detached_pool: Mutex::new(None),
            inflight: Mutex::new(0),
            idle: Condvar::new(),
            metrics,
            dep_timeout: Duration::from_secs(10),
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
                let pool = {
                    let mut guard = self.pool.lock();
                    guard
                        .get_or_insert_with(|| {
                            let n = std::thread::available_parallelism()
                                .map(|n| n.get())
                                .unwrap_or(2)
                                .max(2);
                            Arc::new(ActionPool::new(n))
                        })
                        .clone()
                };
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
        let origins = occ.origin_txns();
        // Exclusive mode: arrange the resource (lock) hand-over *now*,
        // while the trigger is still active — if the trigger aborts, its
        // locks transfer to the contingency transaction before release.
        let tm = self.db.txn_manager();
        let rule_txn_for_exclusive = if mode == CouplingMode::ExclusiveCausallyDependent {
            match tm.begin() {
                Ok(txn) => {
                    self.mark_rule_txn(txn);
                    for o in &origins {
                        tm.dependencies().add(txn, CommitRule::IfAborted(*o));
                        if tm.is_active(*o) {
                            let locks = Arc::clone(tm.locks());
                            let from = *o;
                            let _ = tm.on_abort(*o, Box::new(move || locks.transfer(from, txn)));
                        }
                    }
                    Some(txn)
                }
                Err(e) => {
                    self.give_up(&rule, &origins, e, 1);
                    return;
                }
            }
        } else {
            None
        };
        *self.inflight.lock() += 1;
        let engine = Arc::clone(self);
        let job = Box::new(move || {
            engine.run_detached(
                rule,
                occ,
                mode,
                origins,
                rule_txn_for_exclusive,
                action_only,
            );
            let mut n = engine.inflight.lock();
            *n -= 1;
            if *n == 0 {
                engine.idle.notify_all();
            }
        });
        let pool = {
            let mut guard = self.detached_pool.lock();
            Arc::clone(guard.get_or_insert_with(|| {
                let n = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(2)
                    .max(2);
                DetachedPool::new(n)
            }))
        };
        pool.run(job);
    }

    fn run_detached(
        self: &Arc<Self>,
        rule: Arc<Rule>,
        occ: Arc<EventOccurrence>,
        mode: CouplingMode,
        origins: Vec<TxnId>,
        pre_created: Option<TxnId>,
        action_only: bool,
    ) {
        let tm = self.db.txn_manager();
        let deps = tm.dependencies();
        // Sequential mode gates on the origins exactly once — an
        // already-satisfied gate needs no re-check on retry.
        if mode == CouplingMode::SequentialCausallyDependent {
            for o in &origins {
                match deps.wait_for_outcome(*o, self.dep_timeout) {
                    Ok(Outcome::Committed) => {}
                    Ok(Outcome::Aborted) => {
                        self.metrics.engine.skipped_dependency.inc();
                        return;
                    }
                    Err(e) => {
                        self.give_up(&rule, &origins, e, 1);
                        return;
                    }
                }
            }
        }
        let policy = self.retry_policy();
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            // First exclusive attempt runs in the pre-created contingency
            // transaction (its IfAborted dependencies and the lock
            // hand-over were wired by the spawner); every other attempt
            // gets a fresh transaction with the mode's dependencies
            // re-registered.
            let txn = if attempt == 1 && mode == CouplingMode::ExclusiveCausallyDependent {
                pre_created.expect("pre-created txn")
            } else {
                let t = match tm.begin() {
                    Ok(t) => t,
                    Err(e) => {
                        self.give_up(&rule, &origins, e, attempt);
                        return;
                    }
                };
                match mode {
                    CouplingMode::ParallelCausallyDependent => {
                        for o in &origins {
                            deps.add(t, CommitRule::IfCommitted(*o));
                        }
                    }
                    CouplingMode::ExclusiveCausallyDependent => {
                        // A retry can no longer inherit the trigger's
                        // locks (the abort already happened), but the
                        // commit condition must survive the retry.
                        for o in &origins {
                            deps.add(t, CommitRule::IfAborted(*o));
                        }
                    }
                    _ => {}
                }
                t
            };
            self.mark_rule_txn(txn);
            if attempt == 1 {
                self.metrics.engine.detached_runs.inc();
            }
            let outcome = if action_only {
                self.run_action_only(&rule, txn, &occ, false).map(|_| true)
            } else {
                self.run_rule(&rule, txn, &occ, false)
            };
            // On success, commit honours the registered dependencies; an
            // exclusive rule whose trigger committed aborts here — a
            // final refusal, not an error to retry.
            let err = match outcome {
                Ok(_) => match tm.commit(txn) {
                    Ok(()) => {
                        self.unmark_rule_txn(txn);
                        return;
                    }
                    Err(e) => {
                        self.unmark_rule_txn(txn);
                        if e.is_transient() && attempt < policy.max_attempts {
                            e
                        } else {
                            self.metrics.engine.skipped_dependency.inc();
                            return;
                        }
                    }
                },
                Err(e) => {
                    let _ = tm.abort(txn);
                    self.unmark_rule_txn(txn);
                    e
                }
            };
            if err.is_transient() && attempt < policy.max_attempts {
                self.metrics.engine.retries.inc();
                std::thread::sleep(policy.backoff(attempt));
            } else {
                self.give_up(&rule, &origins, err, attempt);
                return;
            }
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

    /// Block until every detached worker has finished.
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
