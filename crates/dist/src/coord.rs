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
//! The log stays bounded. Once every participant has applied a commit
//! decision — `decide(true)` returned, and a participant's decide
//! forces its own `Commit` record — no participant can be in doubt
//! about it again, so its `CoordCommit` is garbage. After every
//! [`LOG_LIMIT`] bytes of decisions the coordinator re-appends the
//! decisions still unacknowledged (and the record with the largest
//! gid, which [`Coordinator::from_wal`] resumes above), forces them,
//! and truncates everything before them. A decision whose phase 2
//! failed, and every decision a revived coordinator inherits, is
//! carried forward like this indefinitely: nothing tells the
//! coordinator that its participants have resolved it.
//!
//! Crash injection: tests install a [`CrashHook`] that fires at every
//! message [`Boundary`] of the protocol. Returning `true` makes the
//! coordinator return an error *immediately*, with no cleanup appends —
//! simulating a process crash at that point.

use reach_common::sync::{Mutex, RwLock};
use reach_common::{FastMap, FastSet, ReachError, Result, TxnId};
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

/// Decision bytes a coordinator appends between two truncations of its
/// log (about 2 200 two-shard commit decisions).
pub const LOG_LIMIT: u64 = 64 << 10;

/// What the coordinator's log must keep. Every decision append takes
/// this lock, so a truncation under it cuts at a frame boundary and
/// sees every decision appended before the cut.
#[derive(Default)]
struct Retention {
    /// Commit decisions some participant has not yet acknowledged, by
    /// gid: a participant may still be in doubt about these.
    open: FastMap<u64, WalRecord>,
    /// The decision record with the largest gid.
    newest: Option<WalRecord>,
    /// Decision bytes appended since the last truncation.
    appended: u64,
}

impl Retention {
    /// Account for a decision record now in the log.
    fn note(&mut self, rec: WalRecord) {
        let gid = decision_gid(&rec);
        if matches!(rec, WalRecord::CoordCommit { .. }) {
            self.open.insert(gid, rec.clone());
        }
        if self.newest.as_ref().is_none_or(|n| decision_gid(n) < gid) {
            self.newest = Some(rec);
        }
    }
}

/// The gid a decision record names.
fn decision_gid(rec: &WalRecord) -> u64 {
    match rec {
        WalRecord::CoordCommit { gid, .. } | WalRecord::CoordAbort { gid } => *gid,
        _ => unreachable!("not a decision record"),
    }
}

/// Presumed-abort 2PC coordinator with its own WAL.
pub struct Coordinator {
    wal: Arc<WriteAheadLog>,
    gids: AtomicU64,
    hook: RwLock<Option<CrashHook>>,
    retention: Mutex<Retention>,
}

impl Coordinator {
    /// A coordinator over a fresh in-memory log.
    pub fn in_memory() -> Self {
        Self::from_wal(Arc::new(WriteAheadLog::in_memory()))
    }

    /// A coordinator over an existing log (possibly revived from a
    /// crash image). The next global transaction id resumes above
    /// every gid the log mentions, so ids never repeat across reboots.
    /// Every commit decision in the log counts as unacknowledged.
    pub fn from_wal(wal: Arc<WriteAheadLog>) -> Self {
        let mut retention = Retention::default();
        if let Ok(recs) = wal.scan_all() {
            for (_, rec) in recs {
                if matches!(
                    rec,
                    WalRecord::CoordCommit { .. } | WalRecord::CoordAbort { .. }
                ) {
                    retention.note(rec);
                }
            }
        }
        let next = retention.newest.as_ref().map_or(1, |n| decision_gid(n) + 1);
        Self {
            wal,
            gids: AtomicU64::new(next),
            hook: RwLock::new(None),
            retention: Mutex::new(retention),
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
                let _ = self.log_decision(WalRecord::CoordAbort { gid });
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
        let end = self.log_decision(WalRecord::CoordCommit { gid, participants })?;
        self.wal.force_up_to(end)?;
        self.checkpoint(Boundary::AfterDecision)?;
        // Phase 2: inform. A crash here is safe — the decision is
        // durable and in-doubt participants re-resolve from our log.
        for p in parts {
            self.checkpoint(Boundary::BeforeDecide(p.shard()))?;
            p.decide(true)?;
            self.checkpoint(Boundary::AfterDecide(p.shard()))?;
        }
        self.acknowledged(gid);
        Ok(())
    }

    /// Explicitly abort a global transaction that never reached phase 1
    /// (application-requested rollback): local rollback everywhere, no
    /// forced log work.
    pub fn abort(&self, gid: u64, parts: &[&dyn Participant]) -> Result<()> {
        let _ = self.log_decision(WalRecord::CoordAbort { gid });
        for p in parts {
            p.rollback()?;
        }
        Ok(())
    }

    /// Append a decision record (unforced) and note what its retention
    /// needs. Returns the record's end LSN.
    fn log_decision(&self, rec: WalRecord) -> Result<u64> {
        let mut r = self.retention.lock();
        let (start, end) = self.wal.append_bounded(&rec)?;
        r.appended += end - start;
        r.note(rec);
        Ok(end)
    }

    /// Every participant applied the commit decision of `gid`: forget
    /// it, and truncate the log once enough decisions have piled up.
    fn acknowledged(&self, gid: u64) {
        let mut r = self.retention.lock();
        r.open.remove(&gid);
        if r.appended >= LOG_LIMIT {
            r.appended = 0;
            // Best effort: a failed truncation leaves the whole log (a
            // carried-forward copy of a decision is only a duplicate),
            // and the next one comes after another `LOG_LIMIT` bytes.
            let _ = self.truncate(&r);
        }
    }

    /// Re-append what must outlive the cut, force it, then drop every
    /// record before it. Called under the retention lock, so the tail
    /// is a frame boundary and no decision lands between the two.
    fn truncate(&self, r: &Retention) -> Result<()> {
        let cut = self.wal.tail();
        let newest = r
            .newest
            .as_ref()
            .filter(|n| !r.open.contains_key(&decision_gid(n)));
        let mut end = cut;
        for rec in r.open.values().chain(newest) {
            end = self.wal.append_bounded(rec)?.1;
        }
        self.wal.force_up_to(end)?;
        self.wal.truncate_prefix(cut)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// A participant that votes yes and applies every decision, unless
    /// told to fail phase 2.
    struct Site {
        shard: u32,
        fail_decide: AtomicBool,
    }

    impl Site {
        fn new(shard: u32) -> Self {
            Self {
                shard,
                fail_decide: AtomicBool::new(false),
            }
        }
    }

    impl Participant for Site {
        fn shard(&self) -> u32 {
            self.shard
        }
        fn prepare(&self, _gid: u64) -> Result<()> {
            Ok(())
        }
        fn decide(&self, _commit: bool) -> Result<()> {
            if self.fail_decide.load(Ordering::SeqCst) {
                return Err(ReachError::Io("site down".into()));
            }
            Ok(())
        }
        fn rollback(&self) -> Result<()> {
            Ok(())
        }
    }

    fn live_bytes(wal: &WriteAheadLog) -> u64 {
        wal.tail() - wal.base_lsn()
    }

    /// Reboot from the coordinator's durable log: the revived
    /// coordinator and the decisions an in-doubt participant would read.
    fn reboot(c: &Coordinator) -> (Coordinator, DecisionLog) {
        let image = c.wal().durable_image().unwrap();
        let wal = Arc::new(WriteAheadLog::in_memory_from(image));
        let decisions = scan_decisions(&wal).unwrap();
        (Coordinator::from_wal(wal), decisions)
    }

    #[test]
    fn the_decision_log_stays_bounded() {
        let c = Coordinator::in_memory();
        let (a, b) = (Site::new(0), Site::new(1));
        let base = c.wal().base_lsn();
        let first = c.commit(&[&a, &b]).unwrap();
        let mut last = first;
        let mut peak = 0;
        for _ in 0..20_000 {
            last = c.commit(&[&a, &b]).unwrap();
            peak = peak.max(live_bytes(c.wal()));
        }
        assert!(c.wal().base_lsn() > base, "the log was never truncated");
        assert!(peak <= LOG_LIMIT + 64, "peak {peak} B past the limit");
        let (revived, decisions) = reboot(&c);
        assert!(!decisions.is_committed(first), "acknowledged: forgotten");
        assert!(decisions.is_committed(last), "the newest decision is kept");
        assert!(revived.next_gid() > last, "gids resume above the newest");
    }

    #[test]
    fn unacknowledged_decisions_outlive_truncation() {
        let c = Coordinator::in_memory();
        let (a, b) = (Site::new(0), Site::new(1));
        // Phase 2 fails at one site: b may be in doubt about `stuck`.
        let stuck = c.next_gid();
        b.fail_decide.store(true, Ordering::SeqCst);
        c.commit_gid(stuck, &[&a, &b]).unwrap_err();
        b.fail_decide.store(false, Ordering::SeqCst);
        // The coordinator "crashes" between its decision and phase 2.
        let crashed = c.next_gid();
        c.set_crash_hook(Arc::new(|at| at == Boundary::AfterDecision));
        c.commit_gid(crashed, &[&a, &b]).unwrap_err();
        c.set_crash_hook(Arc::new(|_| false));
        let acked = c.commit(&[&a, &b]).unwrap();
        let base = c.wal().base_lsn();
        for _ in 0..10_000 {
            c.commit(&[&a, &b]).unwrap();
        }
        assert!(c.wal().base_lsn() > base, "the log was never truncated");
        let (revived, decisions) = reboot(&c);
        assert!(decisions.is_committed(stuck) && decisions.is_committed(crashed));
        assert!(!decisions.is_committed(acked));
        // A revived coordinator cannot tell whether the participants
        // have resolved what it inherits, so it carries it forward too.
        let base = revived.wal().base_lsn();
        for _ in 0..10_000 {
            revived.commit(&[&a, &b]).unwrap();
        }
        assert!(
            revived.wal().base_lsn() > base,
            "the log was never truncated"
        );
        let (_, decisions) = reboot(&revived);
        assert!(decisions.is_committed(stuck) && decisions.is_committed(crashed));
    }
}
