//! Property tests of the wire codec: every frame type round-trips, and
//! torn / truncated / oversized / garbage input is rejected with a
//! protocol error — never a panic and never an attacker-sized
//! allocation.
//!
//! Failures print a `REACH_SEED` to replay; pin it forever by adding a
//! `cc <seed>` line to `proptest-regressions/<test_name>.txt`.

use proptest::prelude::*;
use reach_common::{ObjectId, ReachError, RuleId, TxnId};
use reach_object::Value;
use reach_server::wire::{Notification, Request, Response, WireDeadLetter, MAX_FRAME};
use reach_server::{TcpTransport, Transport};

fn value_strategy() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        ".{0,12}".prop_map(Value::Str),
        any::<u64>().prop_map(|o| Value::Ref(ObjectId::new(o))),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::Bytes),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(Value::List)
    })
}

fn dead_letter_strategy() -> BoxedStrategy<WireDeadLetter> {
    (
        any::<u64>(),
        ".{0,10}",
        any::<u16>(),
        ".{0,24}",
        any::<u32>(),
        (any::<u32>(), any::<u64>()),
    )
        .prop_map(
            |(rule, rule_name, code, message, attempts, (shard, origin_txn))| WireDeadLetter {
                rule: RuleId::new(rule),
                rule_name,
                code,
                message,
                attempts,
                shard,
                origin_txn,
            },
        )
        .boxed()
}

/// Every request variant, with arbitrary field contents.
fn request_strategy() -> BoxedStrategy<Request> {
    let v = value_strategy();
    prop_oneof![
        any::<u32>().prop_map(|version| Request::Hello { version }),
        Just(Request::Begin),
        any::<u64>().prop_map(|t| Request::Commit { txn: TxnId::new(t) }),
        any::<u64>().prop_map(|t| Request::Abort { txn: TxnId::new(t) }),
        (
            any::<u64>(),
            ".{0,10}",
            proptest::collection::vec((".{0,8}", v.clone()), 0..4)
        )
            .prop_map(|(t, class, overrides)| Request::Create {
                txn: TxnId::new(t),
                class,
                overrides,
            }),
        (any::<u64>(), any::<u64>(), ".{0,10}").prop_map(|(t, o, attr)| Request::Get {
            txn: TxnId::new(t),
            oid: ObjectId::new(o),
            attr,
        }),
        (any::<u64>(), any::<u64>(), ".{0,10}", v.clone()).prop_map(|(t, o, attr, value)| {
            Request::Set {
                txn: TxnId::new(t),
                oid: ObjectId::new(o),
                attr,
                value,
            }
        }),
        (
            any::<u64>(),
            any::<u64>(),
            ".{0,10}",
            proptest::collection::vec(v.clone(), 0..4)
        )
            .prop_map(|(t, o, method, args)| Request::Invoke {
                txn: TxnId::new(t),
                oid: ObjectId::new(o),
                method,
                args,
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(t, o)| Request::Persist {
            txn: TxnId::new(t),
            oid: ObjectId::new(o),
        }),
        (any::<u64>(), ".{0,10}", any::<u64>()).prop_map(|(t, name, o)| Request::PersistNamed {
            txn: TxnId::new(t),
            name,
            oid: ObjectId::new(o),
        }),
        ".{0,10}".prop_map(|name| Request::FetchRoot { name }),
        ".{0,64}".prop_map(|source| Request::DefineRule { source }),
        ".{0,10}".prop_map(|name| Request::DefineSignal { name }),
        (
            any::<bool>(),
            any::<u64>(),
            ".{0,10}",
            proptest::collection::vec(v, 0..4)
        )
            .prop_map(|(has_txn, t, name, args)| Request::RaiseSignal {
                txn: has_txn.then(|| TxnId::new(t)),
                name,
                args,
            }),
        (any::<bool>(), any::<bool>()).prop_map(|(firings, dead_letters)| Request::Subscribe {
            firings,
            dead_letters,
        }),
        Just(Request::DrainDeadLetters),
        Just(Request::Ping),
        Just(Request::BeginReadOnly),
        any::<u64>().prop_map(|o| Request::ShardOf {
            oid: ObjectId::new(o)
        }),
    ]
    .boxed()
}

/// Every response variant, including both notification kinds.
fn response_strategy() -> BoxedStrategy<Response> {
    prop_oneof![
        Just(Response::Ok),
        (any::<u16>(), ".{0,24}").prop_map(|(code, message)| Response::Err { code, message }),
        any::<u64>().prop_map(|t| Response::Txn(TxnId::new(t))),
        any::<u64>().prop_map(|o| Response::Oid(ObjectId::new(o))),
        value_strategy().prop_map(Response::Value),
        any::<u64>().prop_map(|r| Response::Rule(RuleId::new(r))),
        (any::<u64>(), any::<u32>())
            .prop_map(|(session, max_frame)| Response::HelloOk { session, max_frame }),
        Just(Response::Pong),
        proptest::collection::vec(dead_letter_strategy(), 0..4).prop_map(Response::DeadLetters),
        (any::<u64>(), ".{0,10}", any::<u64>()).prop_map(|(rule, rule_name, event_type)| {
            Response::Notification(Notification::RuleFired {
                rule: RuleId::new(rule),
                rule_name,
                event_type,
            })
        }),
        dead_letter_strategy().prop_map(|d| Response::Notification(Notification::DeadLetter(d))),
        (any::<u32>(), any::<u32>()).prop_map(|(shard, shards)| Response::Shard { shard, shards }),
    ]
    .boxed()
}

/// One value of every kind, a nested list among them.
fn sample_value() -> Value {
    Value::List(vec![
        Value::Null,
        Value::Bool(true),
        Value::Int(-42),
        Value::Float(2.5),
        Value::Str("h\u{e9}llo".into()),
        Value::Ref(ObjectId::new(99)),
        Value::Bytes(vec![0, 1, 255]),
        Value::List(vec![Value::List(Vec::new())]),
    ])
}

fn sample_dead_letter() -> WireDeadLetter {
    WireDeadLetter {
        rule: RuleId::new(5),
        rule_name: "audit".into(),
        code: 42,
        message: "gave up".into(),
        attempts: 3,
        shard: 1,
        origin_txn: 77,
    }
}

/// FNV-1a 64 of `bytes`. Pinning a format's digest catches the changes
/// a round trip cannot see: one made to encoder and decoder alike.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn request_frames_are_pinned() {
    let (t, o) = (TxnId::new(11), ObjectId::new(12));
    let requests = [
        Request::Hello { version: 1 },
        Request::Begin,
        Request::BeginReadOnly,
        Request::Commit { txn: t },
        Request::Abort { txn: t },
        Request::Create {
            txn: t,
            class: "Sensor".into(),
            overrides: vec![
                ("level".into(), Value::Int(3)),
                ("tags".into(), sample_value()),
            ],
        },
        Request::Get {
            txn: t,
            oid: o,
            attr: "level".into(),
        },
        Request::Set {
            txn: t,
            oid: o,
            attr: "tags".into(),
            value: sample_value(),
        },
        Request::Invoke {
            txn: t,
            oid: o,
            method: "raise".into(),
            args: vec![Value::Float(-0.5), sample_value()],
        },
        Request::Persist { txn: t, oid: o },
        Request::PersistNamed {
            txn: t,
            name: "root".into(),
            oid: o,
        },
        Request::FetchRoot {
            name: "root".into(),
        },
        Request::DefineRule {
            source: "rule r on e do x".into(),
        },
        Request::DefineSignal {
            name: "alarm".into(),
        },
        Request::RaiseSignal {
            txn: Some(t),
            name: "alarm".into(),
            args: vec![sample_value()],
        },
        Request::RaiseSignal {
            txn: None,
            name: "alarm".into(),
            args: Vec::new(),
        },
        Request::Subscribe {
            firings: true,
            dead_letters: false,
        },
        Request::DrainDeadLetters,
        Request::Ping,
        Request::ShardOf { oid: o },
    ];
    let frames: Vec<u8> = requests
        .iter()
        .zip(1u64..)
        .flat_map(|(r, id)| r.encode(id, 250))
        .collect();
    assert_eq!(digest(&frames), 0xb346d2cadf2fd77d);
}

#[test]
fn response_frames_are_pinned() {
    let responses = [
        Response::Ok,
        Response::Err {
            code: 61,
            message: "bad".into(),
        },
        Response::Txn(TxnId::new(11)),
        Response::Oid(ObjectId::new(12)),
        Response::Value(sample_value()),
        Response::Rule(RuleId::new(5)),
        Response::HelloOk {
            session: 9,
            max_frame: MAX_FRAME as u32,
        },
        Response::Pong,
        Response::DeadLetters(vec![sample_dead_letter()]),
        Response::Notification(Notification::RuleFired {
            rule: RuleId::new(5),
            rule_name: "audit".into(),
            event_type: 8,
        }),
        Response::Notification(Notification::DeadLetter(sample_dead_letter())),
        Response::Shard {
            shard: 1,
            shards: 2,
        },
    ];
    let frames: Vec<u8> = responses
        .iter()
        .zip(1u64..)
        .flat_map(|(r, id)| r.encode(id))
        .collect();
    assert_eq!(digest(&frames), 0x81231840f3c4e229);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_round_trip(req in request_strategy(), id in any::<u64>(), dl in any::<u32>()) {
        let encoded = req.encode(id, dl);
        let (got_id, got_dl, got) = Request::decode(&encoded).expect("decode own encoding");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got_dl, dl);
        prop_assert_eq!(got, req);
    }

    #[test]
    fn response_round_trip(resp in response_strategy(), id in any::<u64>()) {
        let encoded = resp.encode(id);
        let (got_id, got) = Response::decode(&encoded).expect("decode own encoding");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(&got, &resp);
        // The server's whole-frame encoding is the length prefix, then
        // exactly these payload bytes.
        let whole = resp.frame(id);
        prop_assert_eq!(&whole[..4], &(encoded.len() as u32).to_le_bytes()[..]);
        prop_assert_eq!(&whole[4..], &encoded[..]);
    }

    /// A torn frame — any strict prefix of a valid encoding — must fail
    /// with a protocol error, because decode lengths are deterministic:
    /// if a prefix decoded cleanly, the full frame would have had
    /// trailing bytes and failed `finish()`.
    #[test]
    fn torn_request_prefixes_are_protocol_errors(
        req in request_strategy(),
        cut in any::<prop::sample::Index>(),
    ) {
        let encoded = req.encode(7, 0);
        let cut = cut.index(encoded.len().max(1));
        match Request::decode(&encoded[..cut]) {
            Err(ReachError::Protocol(_)) => {}
            other => prop_assert!(false, "prefix of len {cut} gave {other:?}"),
        }
    }

    #[test]
    fn torn_response_prefixes_are_protocol_errors(
        resp in response_strategy(),
        cut in any::<prop::sample::Index>(),
    ) {
        let encoded = resp.encode(7);
        let cut = cut.index(encoded.len().max(1));
        match Response::decode(&encoded[..cut]) {
            Err(ReachError::Protocol(_)) => {}
            other => prop_assert!(false, "prefix of len {cut} gave {other:?}"),
        }
    }

    /// Arbitrary garbage must never panic the decoders; any error they
    /// return must be the protocol kind (mapped to a stable wire code),
    /// and a huge declared length inside the payload must not cause a
    /// matching allocation.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        if let Err(e) = Request::decode(&bytes) {
            prop_assert!(matches!(e, ReachError::Protocol(_)), "non-protocol error {e:?}");
        }
        if let Err(e) = Response::decode(&bytes) {
            prop_assert!(matches!(e, ReachError::Protocol(_)), "non-protocol error {e:?}");
        }
    }

    /// Flipping any single byte of a valid frame must not panic, and
    /// count/length fields inflated by the flip must not over-allocate.
    #[test]
    fn bit_flips_never_panic(
        req in request_strategy(),
        at in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut encoded = req.encode(3, 1000);
        if encoded.is_empty() {
            return;
        }
        let i = at.index(encoded.len());
        encoded[i] ^= 1 << bit;
        let _ = Request::decode(&encoded); // must not panic
    }
}

/// An oversized frame header is rejected before any payload-sized
/// allocation, and the connection surfaces a protocol error.
#[test]
fn oversized_frame_is_rejected_before_allocation() {
    use std::io::Write as _;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let writer = std::thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        // Claim a payload just past the cap; send only the header.
        let len = (MAX_FRAME as u32) + 1;
        s.write_all(&len.to_le_bytes()).unwrap();
        s.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(200));
    });
    let (stream, _) = listener.accept().unwrap();
    let mut t = TcpTransport::new(stream, Some(std::time::Duration::from_millis(25))).unwrap();
    let start = std::time::Instant::now();
    loop {
        match t.read_frame() {
            Err(ReachError::Protocol(m)) => {
                assert!(m.contains("exceeds cap"), "unexpected message: {m}");
                break;
            }
            Err(ReachError::IoTransient(_)) => {
                assert!(
                    start.elapsed() < std::time::Duration::from_secs(5),
                    "timed out"
                );
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
    }
    writer.join().unwrap();
}

/// A peer that sends half a frame and disconnects yields
/// `ConnectionClosed`, not a hang and not a partial-frame delivery.
#[test]
fn truncated_frame_then_close_is_connection_closed() {
    use std::io::Write as _;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let writer = std::thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        let payload = Request::Ping.encode(1, 0);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        // Send all but the last byte, then vanish.
        s.write_all(&frame[..frame.len() - 1]).unwrap();
        s.flush().unwrap();
    });
    let (stream, _) = listener.accept().unwrap();
    let mut t = TcpTransport::new(stream, Some(std::time::Duration::from_millis(25))).unwrap();
    writer.join().unwrap();
    let start = std::time::Instant::now();
    loop {
        match t.read_frame() {
            Err(ReachError::ConnectionClosed(_)) => break,
            Err(ReachError::IoTransient(_)) => {
                assert!(
                    start.elapsed() < std::time::Duration::from_secs(5),
                    "timed out"
                );
            }
            other => panic!("expected ConnectionClosed, got {other:?}"),
        }
    }
}

/// Two frames delivered in one TCP segment are split correctly, and a
/// frame split across many tiny writes is reassembled.
#[test]
fn frame_reassembly_across_partial_writes() {
    use std::io::Write as _;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let writer = std::thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        let a = Request::Ping.encode(1, 0);
        let b = Request::Begin.encode(2, 50);
        let mut bytes = Vec::new();
        for p in [&a, &b] {
            bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
            bytes.extend_from_slice(p);
        }
        // Dribble the two frames one byte at a time.
        for chunk in bytes.chunks(1) {
            s.write_all(chunk).unwrap();
            s.flush().unwrap();
        }
    });
    let (stream, _) = listener.accept().unwrap();
    let mut t = TcpTransport::new(stream, Some(std::time::Duration::from_millis(25))).unwrap();
    let mut got = Vec::new();
    let start = std::time::Instant::now();
    while got.len() < 2 {
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "timed out"
        );
        match t.read_frame() {
            Ok(p) => got.push(Request::decode(&p).unwrap()),
            Err(ReachError::IoTransient(_)) => continue,
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    writer.join().unwrap();
    assert_eq!(got[0], (1, 0, Request::Ping));
    assert_eq!(got[1], (2, 50, Request::Begin));
}
