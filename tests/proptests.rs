//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use reach::common::codec::Reader;
use reach::common::{ObjectId, PageId, ReachError, TxnId};
use reach::object::{Value, ValueType};
use reach::storage::{Page, WalRecord, WriteAheadLog};
use reach::txn::{LockManager, LockMode};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// Slotted pages: model-based testing against a HashMap reference.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum PageOp {
    Insert(Vec<u8>),
    Delete(usize),
    Update(usize, Vec<u8>),
}

fn page_op() -> impl Strategy<Value = PageOp> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..300).prop_map(PageOp::Insert),
        (0usize..16).prop_map(PageOp::Delete),
        ((0usize..16), proptest::collection::vec(any::<u8>(), 0..300))
            .prop_map(|(i, d)| PageOp::Update(i, d)),
    ]
}

proptest! {
    #[test]
    fn page_behaves_like_a_map(ops in proptest::collection::vec(page_op(), 1..60)) {
        let mut page = Page::new(PageId::new(1));
        let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
        let mut live: Vec<u16> = Vec::new();
        for op in ops {
            match op {
                PageOp::Insert(data) => {
                    if let Ok(slot) = page.insert(&data) {
                        model.insert(slot, data);
                        if !live.contains(&slot) {
                            live.push(slot);
                        }
                    }
                }
                PageOp::Delete(i) => {
                    if !live.is_empty() {
                        let slot = live[i % live.len()];
                        if model.remove(&slot).is_some() {
                            page.delete(slot).unwrap();
                            live.retain(|s| *s != slot);
                        }
                    }
                }
                PageOp::Update(i, data) => {
                    if !live.is_empty() {
                        let slot = live[i % live.len()];
                        if model.contains_key(&slot) && page.update(slot, &data).is_ok() {
                            model.insert(slot, data);
                        }
                    }
                }
            }
            // Invariant: every model record readable, byte-identical.
            for (slot, data) in &model {
                prop_assert_eq!(page.get(*slot).unwrap(), &data[..]);
            }
            prop_assert_eq!(page.live_count(), model.len());
        }
        // And the page image round-trips through bytes.
        let reloaded = Page::from_bytes(page.as_bytes()).unwrap();
        for (slot, data) in &model {
            prop_assert_eq!(reloaded.get(*slot).unwrap(), &data[..]);
        }
    }
}

// ---------------------------------------------------------------------
// Value encoding is a total round-trip.
// ---------------------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Totally ordered floats only (no NaN) — NaN compares as Equal
        // by design, but encoding equality tests need Eq semantics.
        (-1e15f64..1e15).prop_map(Value::Float),
        ".{0,24}".prop_map(Value::Str),
        any::<u64>().prop_map(|r| Value::Ref(ObjectId::new(r))),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
    ];
    leaf.prop_recursive(3, 48, 6, |inner| {
        proptest::collection::vec(inner, 0..6).prop_map(Value::List)
    })
}

proptest! {
    #[test]
    fn value_encoding_round_trips(v in value_strategy()) {
        let enc = v.encode();
        let mut r = Reader::new(&enc, ReachError::Io);
        let dec = Value::read(&mut r).unwrap();
        prop_assert_eq!(&dec, &v);
        prop_assert!(r.finish().is_ok(), "the value must consume exactly its encoding");
    }

    #[test]
    fn value_compare_is_a_total_order(
        a in value_strategy(),
        b in value_strategy(),
        c in value_strategy()
    ) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.compare(&b), b.compare(&a).reverse());
        // Reflexivity.
        prop_assert_eq!(a.compare(&a), Ordering::Equal);
        // Transitivity of <=.
        if a.compare(&b) != Ordering::Greater && b.compare(&c) != Ordering::Greater {
            prop_assert_ne!(a.compare(&c), Ordering::Greater);
        }
    }

    #[test]
    fn value_conforms_to_declared_type(v in value_strategy()) {
        prop_assert!(v.conforms_to(ValueType::Any));
        prop_assert!(v.conforms_to(v.value_type()));
    }
}

// ---------------------------------------------------------------------
// WAL: any record sequence scans back identically.
// ---------------------------------------------------------------------

fn wal_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        any::<u64>().prop_map(|t| WalRecord::Begin {
            txn: TxnId::new(t.max(1))
        }),
        any::<u64>().prop_map(|t| WalRecord::Commit {
            txn: TxnId::new(t.max(1))
        }),
        any::<u64>().prop_map(|t| WalRecord::Abort {
            txn: TxnId::new(t.max(1))
        }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..100)
        )
            .prop_map(|(t, p, s, d)| WalRecord::Insert {
                txn: TxnId::new(t.max(1)),
                page: PageId::new(p.max(1)),
                slot: s,
                payload: d,
            }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..50),
            proptest::collection::vec(any::<u8>(), 0..50)
        )
            .prop_map(|(t, p, s, b, a)| WalRecord::Update {
                txn: TxnId::new(t.max(1)),
                page: PageId::new(p.max(1)),
                slot: s,
                before: b,
                after: a,
            }),
    ]
}

proptest! {
    #[test]
    fn wal_scan_reproduces_appends(records in proptest::collection::vec(wal_record(), 0..40)) {
        let log = WriteAheadLog::in_memory();
        for r in &records {
            log.append(r).unwrap();
        }
        let scanned: Vec<WalRecord> = log.scan().unwrap().into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(scanned, records);
    }
}

// ---------------------------------------------------------------------
// Lock manager: mutual exclusion invariant under arbitrary interleaving.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn lock_manager_never_grants_conflicting_holds(
        ops in proptest::collection::vec((1u64..5, 1u64..4, any::<bool>()), 1..40)
    ) {
        let lm = LockManager::new();
        let mut held: HashMap<(TxnId, ObjectId), LockMode> = HashMap::new();
        for (txn_raw, oid_raw, exclusive) in ops {
            let txn = TxnId::new(txn_raw);
            let oid = ObjectId::new(oid_raw);
            let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
            if lm.try_acquire(txn, oid, mode, &[]).unwrap() {
                let e = held.entry((txn, oid)).or_insert(mode);
                if mode == LockMode::Exclusive {
                    *e = LockMode::Exclusive;
                }
            }
            // Invariant: an exclusive hold excludes all other holders.
            for ((t1, o1), m1) in &held {
                for ((t2, o2), m2) in &held {
                    if o1 == o2 && t1 != t2 {
                        prop_assert!(
                            *m1 == LockMode::Shared && *m2 == LockMode::Shared,
                            "conflicting holds on {o1}: {t1}={m1:?} {t2}={m2:?}"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Compositor: the four consumption policies keep their defining
// invariants for arbitrary interleavings of two primitive streams.
// ---------------------------------------------------------------------

use reach::active::algebra::{CompositionScope, EventExpr, Lifespan};
use reach::active::compositor::Compositor;
use reach::active::consumption::ConsumptionPolicy;
use reach::active::event::{EventData, EventOccurrence};
use reach::common::{EventTypeId, TimePoint, Timestamp};
use std::sync::Arc as StdArc;

fn occ(ty: u64, seq: u64) -> StdArc<EventOccurrence> {
    StdArc::new(EventOccurrence {
        event_type: EventTypeId::new(ty),
        seq: Timestamp::new(seq),
        at: TimePoint::from_millis(seq),
        txn: Some(TxnId::new(1)),
        top_txn: Some(TxnId::new(1)),
        data: EventData::default(),
        constituents: Vec::new(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn sequence_composition_invariants(stream in proptest::collection::vec(prop_oneof![Just(1u64), Just(2u64)], 1..40)) {
        for policy in ConsumptionPolicy::ALL {
            let comp = Compositor::new(
                EventExpr::Sequence(vec![
                    EventExpr::Primitive(EventTypeId::new(1)),
                    EventExpr::Primitive(EventTypeId::new(2)),
                ]),
                CompositionScope::CrossTransaction,
                Lifespan::Interval(std::time::Duration::from_secs(3600)),
                policy,
            );
            let mut firings = Vec::new();
            for (i, ty) in stream.iter().enumerate() {
                for f in comp.feed(&occ(*ty, i as u64 + 1)) {
                    firings.push(f);
                }
            }
            for f in &firings {
                // Every firing is e1-then-e2 in sequence order.
                prop_assert!(f.constituents.len() >= 2);
                let first = &f.constituents[0];
                let last = f.constituents.last().unwrap();
                prop_assert_eq!(first.event_type, EventTypeId::new(1));
                prop_assert_eq!(last.event_type, EventTypeId::new(2));
                prop_assert!(first.seq < last.seq, "sequence order respected");
            }
            let e1s = stream.iter().filter(|t| **t == 1).count();
            let e2s = stream.iter().filter(|t| **t == 2).count();
            match policy {
                // Chronicle: at most min(#e1, #e2) firings, each pair disjoint.
                ConsumptionPolicy::Chronicle => {
                    prop_assert!(firings.len() <= e1s.min(e2s));
                }
                // Recent / cumulative: one in-flight instance at a time.
                ConsumptionPolicy::Recent | ConsumptionPolicy::Cumulative => {
                    prop_assert!(firings.len() <= e2s);
                    prop_assert!(comp.live_instances() <= 1);
                }
                // Continuous: each e1 opens a window; a window fires once.
                ConsumptionPolicy::Continuous => {
                    prop_assert!(firings.len() <= e1s);
                }
            }
        }
    }
}
