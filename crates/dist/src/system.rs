//! The assembled sharded deployment.
//!
//! [`DistSystem`] owns N `Database` + `ReachSystem` pairs with disjoint
//! storage, one [`ShardRouter`] and one presumed-abort [`Coordinator`],
//! and [`compositor::attach`]es the cross-shard event stream. Per shard
//! it wires:
//!
//! * strided oid allocation (`oid ≡ shard (mod N)`), making routing a
//!   pure function of the identifier;
//! * the shared event-sequence clock, so occurrence `seq` values
//!   totally order events across the deployment;
//! * the composition ownership gate (`event_type % N == shard`), so a
//!   cross-transaction composite completes on exactly one shard;
//! * the shard id on the rule engine, so dead-letter records say where
//!   a detached rule gave up.
//!
//! A [`DistTxn`] lazily opens one local transaction per shard it
//! touches; commit is local when one shard is involved and two-phase
//! when several are.

use crate::compositor;
use crate::coord::{Coordinator, Participant};
use crate::router::ShardRouter;
use open_oodb::{Database, DatabaseConfig};
use reach_common::{ObjectId, ReachError, Result, TxnId};
use reach_core::engine::DeadLetter;
use reach_core::{ReachConfig, ReachSystem};
use reach_object::Value;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// One global (possibly cross-shard) transaction.
#[derive(Debug, Default)]
pub struct DistTxn {
    /// The enlisted local transactions, in enlistment order: the first
    /// shard to be touched votes first.
    parts: Vec<(u32, TxnId)>,
}

impl DistTxn {
    /// The enlisted `(shard, local txn)` pairs, in enlistment order.
    pub fn parts(&self) -> &[(u32, TxnId)] {
        &self.parts
    }

    /// Does commit need two phases?
    pub fn is_cross_shard(&self) -> bool {
        self.parts.len() > 1
    }

    /// The local transaction already open on `shard`, if any.
    pub fn txn_on(&self, shard: u32) -> Option<TxnId> {
        self.parts
            .iter()
            .find(|(s, _)| *s == shard)
            .map(|(_, t)| *t)
    }
}

/// A `Database` acting as one 2PC participant.
pub struct DbParticipant {
    /// The shard the database serves.
    pub shard: u32,
    /// The participant database.
    pub db: Arc<Database>,
    /// Its local transaction.
    pub txn: TxnId,
}

impl Participant for DbParticipant {
    fn shard(&self) -> u32 {
        self.shard
    }

    fn prepare(&self, gid: u64) -> Result<()> {
        self.db.prepare(self.txn, gid)
    }

    fn decide(&self, commit: bool) -> Result<()> {
        self.db.decide(self.txn, commit)
    }

    fn rollback(&self) -> Result<()> {
        self.db.abort(self.txn)
    }
}

/// N engine instances behind one router (see module docs).
pub struct DistSystem {
    shards: Vec<Arc<ReachSystem>>,
    router: ShardRouter,
    coordinator: Coordinator,
}

impl DistSystem {
    /// An all-in-memory deployment of `n` shards.
    pub fn in_memory(n: u32) -> Result<Arc<Self>> {
        Self::build(n, ReachConfig::default(), |_| Database::in_memory())
    }

    /// An in-memory deployment with a caller-tuned engine config (the
    /// `shared_seq` field is overwritten with the deployment clock).
    pub fn in_memory_with(n: u32, config: ReachConfig) -> Result<Arc<Self>> {
        Self::build(n, config, |_| Database::in_memory())
    }

    /// A disk-backed deployment under `base`, one `shard-<i>/`
    /// directory per shard.
    pub fn open(base: &Path, n: u32) -> Result<Arc<Self>> {
        Self::build(n, ReachConfig::default(), |i| {
            let dir = base.join(format!("shard-{i}"));
            std::fs::create_dir_all(&dir).map_err(|e| ReachError::Io(e.to_string()))?;
            Database::open(&dir, DatabaseConfig::default())
        })
    }

    fn build(
        n: u32,
        config: ReachConfig,
        mk: impl Fn(u32) -> Result<Arc<Database>>,
    ) -> Result<Arc<Self>> {
        assert!(n >= 1, "a deployment has at least one shard");
        let clock = Arc::new(AtomicU64::new(1));
        let mut shards = Vec::with_capacity(n as usize);
        for i in 0..n {
            let db = mk(i)?;
            db.space().configure_oid_allocation(i as u64, n as u64);
            let cfg = ReachConfig {
                shared_seq: Some(Arc::clone(&clock)),
                ..config.clone()
            };
            let sys = ReachSystem::new(db, cfg);
            sys.engine().set_shard_id(i);
            let owner_mod = n as u64;
            let me = i as u64;
            sys.router()
                .set_composition_gate(Arc::new(move |ty| ty.raw() % owner_mod == me));
            shards.push(sys);
        }
        compositor::attach(&shards);
        Ok(Arc::new(Self {
            shards,
            router: ShardRouter::new(n),
            coordinator: Coordinator::in_memory(),
        }))
    }

    // ---- topology ----

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The engine instance serving `shard`.
    pub fn shard(&self, shard: u32) -> &Arc<ReachSystem> {
        &self.shards[shard as usize]
    }

    /// All engine instances.
    pub fn systems(&self) -> &[Arc<ReachSystem>] {
        &self.shards
    }

    /// The object partition.
    pub fn shard_router(&self) -> &ShardRouter {
        &self.router
    }

    /// The 2PC coordinator.
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// The shard owning `oid`.
    pub fn owner(&self, oid: ObjectId) -> u32 {
        self.router.shard_of(oid)
    }

    // ---- transactions ----

    /// Start a global transaction. Local transactions open lazily as
    /// shards are touched.
    pub fn begin(&self) -> DistTxn {
        DistTxn::default()
    }

    fn enlist(&self, txn: &mut DistTxn, shard: u32) -> Result<TxnId> {
        if let Some(t) = txn.txn_on(shard) {
            return Ok(t);
        }
        let t = self.shards[shard as usize].db().begin()?;
        txn.parts.push((shard, t));
        Ok(t)
    }

    /// Create an object on an explicit shard (placement is the
    /// application's choice; the returned oid routes there forever).
    pub fn create_on(
        &self,
        txn: &mut DistTxn,
        shard: u32,
        class: reach_common::ClassId,
    ) -> Result<ObjectId> {
        let t = self.enlist(txn, shard)?;
        let oid = self.shards[shard as usize].db().create(t, class)?;
        debug_assert_eq!(self.owner(oid), shard, "strided allocation violated");
        Ok(oid)
    }

    /// Make `oid` persistent on its owning shard.
    pub fn persist(&self, txn: &mut DistTxn, oid: ObjectId) -> Result<()> {
        let shard = self.owner(oid);
        let t = self.enlist(txn, shard)?;
        self.shards[shard as usize].db().persist(t, oid)
    }

    /// Read an attribute from the owning shard.
    pub fn get_attr(&self, txn: &mut DistTxn, oid: ObjectId, attr: &str) -> Result<Value> {
        let shard = self.owner(oid);
        let t = self.enlist(txn, shard)?;
        self.shards[shard as usize].db().get_attr(t, oid, attr)
    }

    /// Write an attribute on the owning shard.
    pub fn set_attr(
        &self,
        txn: &mut DistTxn,
        oid: ObjectId,
        attr: &str,
        value: Value,
    ) -> Result<()> {
        let shard = self.owner(oid);
        let t = self.enlist(txn, shard)?;
        self.shards[shard as usize]
            .db()
            .set_attr(t, oid, attr, value)
    }

    /// Invoke a method on the owning shard, first enlisting every shard
    /// reachable from the receiver and argument references, so the
    /// participant set is fixed before any effect happens.
    pub fn invoke(
        &self,
        txn: &mut DistTxn,
        oid: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value> {
        for shard in self.router.shards_of_call(oid, args) {
            self.enlist(txn, shard)?;
        }
        let shard = self.owner(oid);
        let t = txn.txn_on(shard).expect("receiver shard enlisted");
        self.shards[shard as usize]
            .db()
            .invoke(t, oid, method, args)
    }

    /// Raise a user signal concerning `receiver` on its owning shard.
    pub fn raise_signal(
        &self,
        txn: &mut DistTxn,
        name: &str,
        receiver: ObjectId,
        args: Vec<Value>,
    ) -> Result<()> {
        let shard = self.owner(receiver);
        let t = self.enlist(txn, shard)?;
        self.shards[shard as usize].raise_signal_for(Some(t), name, Some(receiver), args)
    }

    /// Commit: local single-force commit when one shard was touched,
    /// presumed-abort 2PC when several were. Returns the gid of a
    /// two-phase commit, `None` otherwise.
    pub fn commit(&self, txn: DistTxn) -> Result<Option<u64>> {
        match txn.parts.len() {
            0 => Ok(None),
            1 => {
                let (shard, t) = txn.parts[0];
                self.shards[shard as usize].db().commit(t)?;
                Ok(None)
            }
            _ => {
                let parts: Vec<DbParticipant> = txn
                    .parts
                    .iter()
                    .map(|(shard, t)| DbParticipant {
                        shard: *shard,
                        db: Arc::clone(self.shards[*shard as usize].db()),
                        txn: *t,
                    })
                    .collect();
                let refs: Vec<&dyn Participant> =
                    parts.iter().map(|p| p as &dyn Participant).collect();
                let gid = self.coordinator.commit(&refs)?;
                Ok(Some(gid))
            }
        }
    }

    /// Roll back every enlisted local transaction.
    pub fn abort(&self, txn: DistTxn) -> Result<()> {
        for (shard, t) in txn.parts {
            self.shards[shard as usize].db().abort(t)?;
        }
        Ok(())
    }

    /// Wait until every shard's composition queues and detached work
    /// have drained. Two rounds, because a detached rule on one shard
    /// can raise events that ship to another shard on commit.
    pub fn wait_quiescent(&self) {
        for _ in 0..2 {
            for sys in &self.shards {
                sys.wait_quiescent();
            }
        }
    }

    /// Dead letters from every shard (each stamped with its shard id).
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.shards.iter().flat_map(|s| s.dead_letters()).collect()
    }
}
