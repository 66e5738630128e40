//! Presumed-abort two-phase commit.
//!
//! The coordinator keeps its own write-ahead log and forces exactly one
//! record per committed global transaction: `CoordCommit { gid,
//! participants }`. Abort decisions are appended lazily (`CoordAbort`)
//! purely as an optimization for recovery scans — losing one is safe,
//! because the protocol *presumes abort*: an in-doubt participant (one
//! that forced a `Prepare` but finds no decision in its own log) asks
//! the coordinator log, and "no durable `CoordCommit`" means abort.
//!
//! The safety argument, spelled out:
//!
//! 1. A participant acknowledges prepare only after forcing `Prepare`
//!    below every write of the transaction, keeping locks pinned (the
//!    `Prepared` transaction state) so nobody observes or overwrites
//!    its dirty data while in doubt.
//! 2. The coordinator forces `CoordCommit` only after *every*
//!    participant acknowledged prepare. Hence: a durable commit
//!    decision implies every participant can redo its effects from its
//!    own log — commit is always completable.
//! 3. If the coordinator crashes before the decision is durable, no
//!    participant has committed (phase 2 hadn't started), and every
//!    prepared participant resolves to abort — which is exactly what
//!    the surviving participants and the application observe.
//!
//! Crash injection: tests install a [`CrashHook`] that fires at every
//! message [`Boundary`] of the protocol. Returning `true` makes the
//! coordinator return an error *immediately*, with no cleanup appends —
//! simulating a process crash at that point.

use reach_common::sync::RwLock;
use reach_common::{FastSet, ReachError, Result, TxnId};
use reach_storage::{StorageManager, WalRecord, WriteAheadLog};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One participant ("resource manager site") of a global transaction.
pub trait Participant {
    /// The shard this participant runs on (diagnostics + decision log).
    fn shard(&self) -> u32;
    /// Phase 1: force a `Prepare` record, pin locks, enter the
    /// in-doubt state. After `Ok(())` the participant must be able to
    /// commit *or* abort on request, across crashes.
    fn prepare(&self, gid: u64) -> Result<()>;
    /// Phase 2: apply the durable decision.
    fn decide(&self, commit: bool) -> Result<()>;
    /// Local rollback of a participant that was never prepared (phase 1
    /// failed part-way through the participant list).
    fn rollback(&self) -> Result<()>;
}

/// The 2PC message boundaries a [`CrashHook`] can crash at. `u32`
/// payloads name the participant shard the message concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Before sending prepare to (and appending `Prepare` on) a shard.
    BeforePrepare(u32),
    /// After the shard acknowledged prepare (its `Prepare` is durable).
    AfterPrepare(u32),
    /// Before forcing the coordinator's `CoordCommit` decision record.
    BeforeDecision,
    /// After the decision is durable, before any phase-2 message.
    AfterDecision,
    /// Before telling a shard the decision.
    BeforeDecide(u32),
    /// After the shard acknowledged (applied) the decision.
    AfterDecide(u32),
}

/// Crash injector: return `true` to crash the coordinator at `b`.
pub type CrashHook = Arc<dyn Fn(Boundary) -> bool + Send + Sync>;

/// Presumed-abort 2PC coordinator with its own WAL.
pub struct Coordinator {
    wal: Arc<WriteAheadLog>,
    gids: AtomicU64,
    hook: RwLock<Option<CrashHook>>,
}

impl Coordinator {
    /// A coordinator over a fresh in-memory log.
    pub fn in_memory() -> Self {
        Self::from_wal(Arc::new(WriteAheadLog::in_memory()))
    }

    /// A coordinator over an existing log (possibly revived from a
    /// crash image). The next global transaction id resumes above
    /// every gid the log mentions, so ids never repeat across reboots.
    pub fn from_wal(wal: Arc<WriteAheadLog>) -> Self {
        let mut next = 1u64;
        if let Ok(recs) = wal.scan_all() {
            for (_, rec) in recs {
                match rec {
                    WalRecord::CoordCommit { gid, .. } | WalRecord::CoordAbort { gid } => {
                        next = next.max(gid + 1);
                    }
                    _ => {}
                }
            }
        }
        Self {
            wal,
            gids: AtomicU64::new(next),
            hook: RwLock::new(None),
        }
    }

    /// The coordinator's log (tests image it to simulate crashes).
    pub fn wal(&self) -> &Arc<WriteAheadLog> {
        &self.wal
    }

    /// Install a crash injector (tests only).
    pub fn set_crash_hook(&self, hook: CrashHook) {
        *self.hook.write() = Some(hook);
    }

    /// Allocate the next global transaction identifier.
    pub fn next_gid(&self) -> u64 {
        self.gids.fetch_add(1, Ordering::Relaxed)
    }

    fn checkpoint(&self, b: Boundary) -> Result<()> {
        let hook = self.hook.read().clone();
        if let Some(h) = hook {
            if h(b) {
                return Err(ReachError::Io(format!("coordinator crashed at {b:?}")));
            }
        }
        Ok(())
    }

    /// Run the full protocol for one global transaction. Returns the
    /// gid on commit. On a *voted* abort (a participant failed phase 1)
    /// every prepared participant is told to abort, the rest roll back
    /// locally, and the prepare error is returned. On an *injected
    /// crash* the error propagates immediately with no cleanup — the
    /// in-doubt state is deliberately left behind for recovery.
    pub fn commit(&self, parts: &[&dyn Participant]) -> Result<u64> {
        let gid = self.next_gid();
        self.commit_gid(gid, parts)?;
        Ok(gid)
    }

    /// [`Coordinator::commit`] with a caller-chosen gid.
    pub fn commit_gid(&self, gid: u64, parts: &[&dyn Participant]) -> Result<()> {
        // Phase 1: collect votes.
        for (idx, p) in parts.iter().enumerate() {
            self.checkpoint(Boundary::BeforePrepare(p.shard()))?;
            if let Err(e) = p.prepare(gid) {
                // Voted abort. Advisory (unforced) decision record, then
                // resolve every site synchronously: prepared ones get the
                // abort decision, the failed/unreached ones roll back.
                let _ = self.wal.append(&WalRecord::CoordAbort { gid });
                for (jdx, q) in parts.iter().enumerate() {
                    if jdx < idx {
                        let _ = q.decide(false);
                    } else {
                        let _ = q.rollback();
                    }
                }
                return Err(e);
            }
            self.checkpoint(Boundary::AfterPrepare(p.shard()))?;
        }
        // Decision: the only force of the protocol.
        self.checkpoint(Boundary::BeforeDecision)?;
        let participants: Vec<u32> = parts.iter().map(|p| p.shard()).collect();
        let (_, end) = self
            .wal
            .append_bounded(&WalRecord::CoordCommit { gid, participants })?;
        self.wal.force_up_to(end)?;
        self.checkpoint(Boundary::AfterDecision)?;
        // Phase 2: inform. A crash here is safe — the decision is
        // durable and in-doubt participants re-resolve from our log.
        for p in parts {
            self.checkpoint(Boundary::BeforeDecide(p.shard()))?;
            p.decide(true)?;
            self.checkpoint(Boundary::AfterDecide(p.shard()))?;
        }
        Ok(())
    }

    /// Explicitly abort a global transaction that never reached phase 1
    /// (application-requested rollback): local rollback everywhere, no
    /// forced log work.
    pub fn abort(&self, gid: u64, parts: &[&dyn Participant]) -> Result<()> {
        let _ = self.wal.append(&WalRecord::CoordAbort { gid });
        for p in parts {
            p.rollback()?;
        }
        Ok(())
    }
}

/// The durable decisions a coordinator log records.
#[derive(Debug, Default, Clone)]
pub struct DecisionLog {
    /// Gids with a durable `CoordCommit`.
    pub committed: FastSet<u64>,
    /// Gids with an (advisory) `CoordAbort`. Absence from *both* sets
    /// also means abort — that is the presumption.
    pub aborted: FastSet<u64>,
}

impl DecisionLog {
    /// Presumed-abort resolution: committed iff durably so.
    pub fn is_committed(&self, gid: u64) -> bool {
        self.committed.contains(&gid)
    }
}

/// Scan a (possibly revived) coordinator log for decisions.
pub fn scan_decisions(wal: &WriteAheadLog) -> Result<DecisionLog> {
    let mut log = DecisionLog::default();
    for (_, rec) in wal.scan_all()? {
        match rec {
            WalRecord::CoordCommit { gid, .. } => {
                log.committed.insert(gid);
            }
            WalRecord::CoordAbort { gid } => {
                log.aborted.insert(gid);
            }
            _ => {}
        }
    }
    Ok(log)
}

/// Resolve a rebooted participant's in-doubt transactions (the
/// `in_doubt` list of its `RecoveryReport`) against the coordinator's
/// decision log: commit those with a durable decision, presume abort
/// for the rest. Returns `(committed, aborted)` counts. Idempotent in
/// the sense that a re-crash and re-recovery after any prefix of these
/// resolutions reproduces the remaining in-doubt set.
pub fn resolve_in_doubt(
    sm: &StorageManager,
    in_doubt: &[(TxnId, u64)],
    decisions: &DecisionLog,
) -> Result<(usize, usize)> {
    let (mut committed, mut aborted) = (0, 0);
    for (txn, gid) in in_doubt {
        if decisions.is_committed(*gid) {
            sm.decide_commit(*txn)?;
            committed += 1;
        } else {
            sm.decide_abort(*txn)?;
            aborted += 1;
        }
    }
    Ok((committed, aborted))
}
