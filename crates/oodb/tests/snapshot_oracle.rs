//! Snapshot consistency through the real object-layer path: writer
//! threads move amounts between accounts under a constant sum while
//! reader threads sum every account in read-only snapshot transactions
//! and must see that sum every time.
//!
//! The database is reopened before the run, so no account has a
//! version chain: each account's first write publishes the baseline
//! from the Change PM's log (the committing transaction's own log
//! undone over the in-place state), and a reader that meets an account
//! first seeds it lazily (`committed_base`) while writers may hold
//! uncommitted changes to it. Writers
//! also abort whole transfers and roll back subtransactions, whose
//! amounts no reader may ever see.
//!
//! Replay a failure with `REACH_SEED=<seed> cargo test -p open-oodb
//! --test snapshot_oracle`.

use open_oodb::{Database, DatabaseConfig};
use reach_common::{announce_seed, seed_from_env, ClassId, ObjectId, SplitMix64, TxnId};
use reach_object::{Value, ValueType};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const ACCOUNTS: usize = 24;
const OPENING: i64 = 100;
const WRITERS: u64 = 2;
const READERS: u64 = 2;
const TRANSFERS: usize = 120;

fn declare(db: &Database) -> ClassId {
    let (builder, add) = db
        .define_class("Account")
        .attr("balance", ValueType::Int, Value::Int(0))
        .virtual_method("add");
    let class = builder.define().unwrap();
    db.methods().register_fn(add, |ctx| {
        let balance = ctx.get("balance")?.as_int()? + ctx.arg(0).as_int()?;
        ctx.set("balance", Value::Int(balance))?;
        Ok(Value::Int(balance))
    });
    class
}

fn open(dir: &Path) -> (Arc<Database>, ClassId) {
    let db = Database::open(dir, DatabaseConfig::default()).unwrap();
    let class = declare(&db);
    (db, class)
}

/// The sum of all balances as `txn` sees them.
fn total(db: &Database, txn: TxnId, accounts: &[ObjectId]) -> i64 {
    accounts
        .iter()
        .map(|a| db.get_attr(txn, *a, "balance").unwrap().as_int().unwrap())
        .sum()
}

/// Move `amount` from `from` to `to`, locking the lower oid first so
/// writers never deadlock. Every fifth transfer first moves a bogus
/// amount in a subtransaction that rolls back; every seventh aborts.
fn transfer(db: &Database, from: ObjectId, to: ObjectId, amount: i64, n: usize) {
    let t = db.begin().unwrap();
    let mut legs = [(from, -amount), (to, amount)];
    legs.sort_by_key(|(oid, _)| *oid);
    if n.is_multiple_of(5) {
        let child = db.begin_nested(t).unwrap();
        db.invoke(child, legs[0].0, "add", &[Value::Int(1_000)])
            .unwrap();
        db.abort(child).unwrap();
    }
    for (oid, delta) in legs {
        db.invoke(t, oid, "add", &[Value::Int(delta)]).unwrap();
    }
    if n.is_multiple_of(7) {
        db.abort(t).unwrap();
    } else {
        db.commit(t).unwrap();
    }
}

#[test]
fn snapshot_readers_always_see_the_constant_sum() {
    let seed = seed_from_env(0x05A9_5407);
    announce_seed("snapshot_readers_always_see_the_constant_sum", seed);
    let dir = std::env::temp_dir().join(format!("reach-snapshot-oracle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let accounts: Vec<ObjectId> = {
        let (db, class) = open(&dir);
        let t = db.begin().unwrap();
        let accounts = (0..ACCOUNTS)
            .map(|_| {
                let oid = db
                    .create_with(t, class, &[("balance", Value::Int(OPENING))])
                    .unwrap();
                db.persist(t, oid).unwrap();
                oid
            })
            .collect();
        db.commit(t).unwrap();
        db.checkpoint().unwrap();
        accounts
    };
    let want = OPENING * ACCOUNTS as i64;

    let (db, _) = open(&dir);
    assert_eq!(db.snapshot_pm().retained_versions(), 0, "no chain yet");
    let writing = AtomicBool::new(true);
    let reads = AtomicUsize::new(0);
    let mut rng = SplitMix64::new(seed);
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let mut rng = rng.fork(w);
                let (db, accounts) = (&db, &accounts);
                s.spawn(move || {
                    for n in 0..TRANSFERS {
                        let from = rng.below(ACCOUNTS);
                        let to = (from + 1 + rng.below(ACCOUNTS - 1)) % ACCOUNTS;
                        let amount = 1 + rng.below(20) as i64;
                        transfer(db, accounts[from], accounts[to], amount, n);
                    }
                })
            })
            .collect();
        for _ in 0..READERS {
            let (db, accounts, writing, reads) = (&db, &accounts, &writing, &reads);
            s.spawn(move || {
                while writing.load(Ordering::Relaxed) {
                    let t = db.begin_read_only().unwrap();
                    assert_eq!(total(db, t, accounts), want, "seed {seed:#x}");
                    db.commit(t).unwrap();
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for w in writers {
            w.join().unwrap();
        }
        writing.store(false, Ordering::Relaxed);
    });
    assert!(reads.load(Ordering::Relaxed) > 0, "no reader finished");
    let t = db.begin_read_only().unwrap();
    assert_eq!(total(&db, t, &accounts), want);
    db.commit(t).unwrap();
    drop(db);

    let (db, _) = open(&dir);
    let t = db.begin().unwrap();
    assert_eq!(total(&db, t, &accounts), want, "after a restart");
    db.commit(t).unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A snapshot reader that meets an object first seeds its baseline:
/// the in-place state with every live log's entries undone over it. A
/// writer rolling back its change to that object meanwhile undoes the
/// change and then drops the entry. Whatever the interleaving, the
/// seeded baseline is the committed state, never the rolled-back write.
/// Writers chase the object the reader is about to read, so the two
/// meet on every object.
#[test]
fn a_seeding_reader_never_keeps_a_rolled_back_write() {
    const OBJECTS: usize = 3_000;
    let seed = seed_from_env(0x5EED_0B0B);
    announce_seed("a_seeding_reader_never_keeps_a_rolled_back_write", seed);
    let dir = std::env::temp_dir().join(format!("reach-seeding-reader-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let accounts: Vec<ObjectId> = {
        let (db, class) = open(&dir);
        let t = db.begin().unwrap();
        let accounts = (0..OBJECTS)
            .map(|_| {
                let oid = db
                    .create_with(t, class, &[("balance", Value::Int(OPENING))])
                    .unwrap();
                db.persist(t, oid).unwrap();
                oid
            })
            .collect();
        db.commit(t).unwrap();
        db.checkpoint().unwrap();
        accounts
    };
    let (db, _) = open(&dir);
    assert_eq!(db.snapshot_pm().retained_versions(), 0, "no chain yet");
    let next = AtomicUsize::new(0);
    let reading = AtomicBool::new(true);
    let mut rng = SplitMix64::new(seed);
    let wrong = std::thread::scope(|s| {
        for w in 0..WRITERS {
            let mut rng = rng.fork(w);
            let (db, accounts, next, reading) = (&db, &accounts, &next, &reading);
            s.spawn(move || {
                while reading.load(Ordering::Relaxed) {
                    let i = (next.load(Ordering::Relaxed) + rng.below(2)).min(OBJECTS - 1);
                    let t = db.begin().unwrap();
                    // Through a subtransaction that rolls back, or the
                    // whole transaction aborting.
                    let child = rng.chance(1, 2).then(|| db.begin_nested(t).unwrap());
                    let bogus = Value::Int(OPENING + 1_000);
                    let _ = db.set_attr(child.unwrap_or(t), accounts[i], "balance", bogus);
                    if let Some(child) = child {
                        db.abort(child).unwrap();
                    }
                    db.abort(t).unwrap();
                }
            });
        }
        // Reads every object once, and stops the writers however the
        // reads went.
        let mut wrong = Vec::new();
        for (i, oid) in accounts.iter().enumerate() {
            next.store(i, Ordering::Relaxed);
            let t = db.begin_read_only().unwrap();
            let got = db.get_attr(t, *oid, "balance");
            db.commit(t).unwrap();
            if got != Ok(Value::Int(OPENING)) {
                wrong.push((i, got));
            }
        }
        reading.store(false, Ordering::Relaxed);
        wrong
    });
    assert!(wrong.is_empty(), "seed {seed:#x}: snapshot reads {wrong:?}");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
