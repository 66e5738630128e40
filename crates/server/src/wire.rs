//! The length-prefixed binary wire protocol (DESIGN.md §10).
//!
//! A frame is a little-endian `u32` payload length followed by the
//! payload. The length is validated against [`MAX_FRAME`] *before* any
//! allocation, so a hostile or corrupted peer can never make either
//! side over-allocate. Payloads are written and read with the shared
//! byte codec ([`reach_common::codec`]) and values in the one stored
//! value format ([`Value::encode_into`] / [`Value::read`]); every
//! decode path is bounds-checked and returns [`ReachError::Protocol`]
//! on malformed input — never a panic.
//!
//! Request payload: `u64 request_id | u32 deadline_ms | u8 opcode |
//! body`. Response payload: `u64 request_id | u8 tag | body`.
//! `request_id 0` is reserved for server-push notifications; clients
//! start their ids at 1.

use reach_common::codec::{put_str, put_u16, put_u32, put_u64, Reader};
use reach_common::{ObjectId, ReachError, Result, RuleId, TxnId};
use reach_object::Value;
pub use reach_object::MAX_VALUE_DEPTH;

/// Hard cap on one frame's payload (1 MiB). Checked before allocating.
pub const MAX_FRAME: usize = 1 << 20;

/// Protocol revision carried in `Hello`/`HelloOk`.
pub const PROTOCOL_VERSION: u32 = 1;

/// Build one whole frame in one buffer: room for the `u32` length
/// prefix, then the payload `body` appends, then the length patched in
/// place. `capacity` is the expected payload size.
pub fn frame(capacity: usize, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + capacity);
    out.extend_from_slice(&[0; 4]);
    body(&mut out);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake; must be the first request on a connection.
    Hello {
        /// Client's protocol revision ([`PROTOCOL_VERSION`]).
        version: u32,
    },
    /// Begin a top-level transaction owned by this session.
    Begin,
    /// Begin a read-only snapshot transaction owned by this session:
    /// reads resolve at its begin stamp without acquiring locks;
    /// mutations through it fail with `ReadOnlyTxn`.
    BeginReadOnly,
    /// Commit a transaction this session owns.
    Commit {
        /// The transaction to commit.
        txn: TxnId,
    },
    /// Abort a transaction this session owns.
    Abort {
        /// The transaction to abort.
        txn: TxnId,
    },
    /// Create an object of `class`, optionally overriding attributes.
    Create {
        /// Owning transaction.
        txn: TxnId,
        /// Class name (resolved in the server's schema).
        class: String,
        /// Attribute overrides applied at creation.
        overrides: Vec<(String, Value)>,
    },
    /// Read one attribute (takes a shared lock).
    Get {
        /// Owning transaction.
        txn: TxnId,
        /// Target object.
        oid: ObjectId,
        /// Attribute name.
        attr: String,
    },
    /// Write one attribute (takes an exclusive lock).
    Set {
        /// Owning transaction.
        txn: TxnId,
        /// Target object.
        oid: ObjectId,
        /// Attribute name.
        attr: String,
        /// New value.
        value: Value,
    },
    /// Invoke a method (runs sentries and may fire rules).
    Invoke {
        /// Owning transaction.
        txn: TxnId,
        /// Target object.
        oid: ObjectId,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Value>,
    },
    /// Make an object persistent.
    Persist {
        /// Owning transaction.
        txn: TxnId,
        /// Target object.
        oid: ObjectId,
    },
    /// Make an object persistent under a dictionary name.
    PersistNamed {
        /// Owning transaction.
        txn: TxnId,
        /// Dictionary name.
        name: String,
        /// Target object.
        oid: ObjectId,
    },
    /// Resolve a dictionary name to an object id.
    FetchRoot {
        /// Dictionary name.
        name: String,
    },
    /// Parse and install a rule written in the rule language.
    DefineRule {
        /// Rule-language source text.
        source: String,
    },
    /// Define an application signal event type.
    DefineSignal {
        /// Signal name.
        name: String,
    },
    /// Raise a signal, optionally inside one of the session's txns.
    RaiseSignal {
        /// Transaction context (`None` = transaction-independent).
        txn: Option<TxnId>,
        /// Signal name.
        name: String,
        /// Signal arguments.
        args: Vec<Value>,
    },
    /// Choose which server-push notifications this session receives.
    Subscribe {
        /// Push a notification for every executed rule action.
        firings: bool,
        /// Push a notification for every dead-lettered firing.
        dead_letters: bool,
    },
    /// Drain the engine's dead-letter record.
    DrainDeadLetters,
    /// Liveness probe.
    Ping,
    /// Resolve which shard owns an object id (shard-aware routing).
    ShardOf {
        /// Object whose owning shard is wanted.
        oid: ObjectId,
    },
}

/// A dead-letter record as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireDeadLetter {
    /// The rule that gave up.
    pub rule: RuleId,
    /// Its registered name.
    pub rule_name: String,
    /// Stable wire code of the final error.
    pub code: u16,
    /// Rendered final error.
    pub message: String,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// Shard the firing was abandoned on (0 = single node).
    pub shard: u32,
    /// Raw id of the originating transaction (0 = none known).
    pub origin_txn: u64,
}

/// One server response (or, with `request_id 0`, a push notification).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success with no payload.
    Ok,
    /// The request failed; `code` is [`ReachError::wire_code`].
    Err {
        /// Stable wire error code.
        code: u16,
        /// Rendered error message.
        message: String,
    },
    /// A transaction id (Begin).
    Txn(TxnId),
    /// An object id (Create, FetchRoot).
    Oid(ObjectId),
    /// A value (Get, Invoke).
    Value(Value),
    /// A rule id (DefineRule).
    Rule(RuleId),
    /// Handshake accept: the session id and the server's frame cap.
    HelloOk {
        /// Server-assigned session id.
        session: u64,
        /// The server's [`MAX_FRAME`].
        max_frame: u32,
    },
    /// Liveness reply.
    Pong,
    /// Drained dead letters (DrainDeadLetters).
    DeadLetters(Vec<WireDeadLetter>),
    /// Server push: a subscribed event happened (`request_id 0`).
    Notification(Notification),
    /// Shard placement for an object (ShardOf).
    Shard {
        /// Shard that owns the queried oid.
        shard: u32,
        /// Total shard count in the deployment.
        shards: u32,
    },
}

/// Server-push payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Notification {
    /// A rule action executed.
    RuleFired {
        /// The rule that fired.
        rule: RuleId,
        /// Its registered name.
        rule_name: String,
        /// The triggering event type's raw id.
        event_type: u64,
    },
    /// A detached firing was permanently given up on.
    DeadLetter(WireDeadLetter),
}

fn txn(r: &mut Reader<'_>) -> Result<TxnId> {
    Ok(TxnId::new(r.u64()?))
}

fn oid(r: &mut Reader<'_>) -> Result<ObjectId> {
    Ok(ObjectId::new(r.u64()?))
}

/// `u16`-count-prefixed `(name, value)` pairs. The pre-allocation is
/// capped, so a count larger than the payload holds allocates little.
fn pairs(r: &mut Reader<'_>) -> Result<Vec<(String, Value)>> {
    let count = r.u16()? as usize;
    let mut out = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let name = r.str()?;
        let value = Value::read(r)?;
        out.push((name, value));
    }
    Ok(out)
}

fn values(r: &mut Reader<'_>) -> Result<Vec<Value>> {
    let count = r.u16()? as usize;
    let mut out = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        out.push(Value::read(r)?);
    }
    Ok(out)
}

impl Request {
    /// Encode into a frame payload (without the length prefix).
    pub fn encode(&self, request_id: u64, deadline_ms: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        put_u64(&mut out, request_id);
        put_u32(&mut out, deadline_ms);
        match self {
            Request::Hello { version } => {
                out.push(1);
                put_u32(&mut out, *version);
            }
            Request::Begin => out.push(2),
            Request::Commit { txn } => {
                out.push(3);
                put_u64(&mut out, txn.raw());
            }
            Request::Abort { txn } => {
                out.push(4);
                put_u64(&mut out, txn.raw());
            }
            Request::Create {
                txn,
                class,
                overrides,
            } => {
                out.push(5);
                put_u64(&mut out, txn.raw());
                put_str(&mut out, class);
                put_u16(&mut out, overrides.len() as u16);
                for (name, value) in overrides {
                    put_str(&mut out, name);
                    value.encode_into(&mut out);
                }
            }
            Request::Get { txn, oid, attr } => {
                out.push(6);
                put_u64(&mut out, txn.raw());
                put_u64(&mut out, oid.raw());
                put_str(&mut out, attr);
            }
            Request::Set {
                txn,
                oid,
                attr,
                value,
            } => {
                out.push(7);
                put_u64(&mut out, txn.raw());
                put_u64(&mut out, oid.raw());
                put_str(&mut out, attr);
                value.encode_into(&mut out);
            }
            Request::Invoke {
                txn,
                oid,
                method,
                args,
            } => {
                out.push(8);
                put_u64(&mut out, txn.raw());
                put_u64(&mut out, oid.raw());
                put_str(&mut out, method);
                put_u16(&mut out, args.len() as u16);
                for a in args {
                    a.encode_into(&mut out);
                }
            }
            Request::Persist { txn, oid } => {
                out.push(9);
                put_u64(&mut out, txn.raw());
                put_u64(&mut out, oid.raw());
            }
            Request::PersistNamed { txn, name, oid } => {
                out.push(10);
                put_u64(&mut out, txn.raw());
                put_str(&mut out, name);
                put_u64(&mut out, oid.raw());
            }
            Request::FetchRoot { name } => {
                out.push(11);
                put_str(&mut out, name);
            }
            Request::DefineRule { source } => {
                out.push(12);
                put_str(&mut out, source);
            }
            Request::DefineSignal { name } => {
                out.push(13);
                put_str(&mut out, name);
            }
            Request::RaiseSignal { txn, name, args } => {
                out.push(14);
                match txn {
                    Some(t) => {
                        out.push(1);
                        put_u64(&mut out, t.raw());
                    }
                    None => out.push(0),
                }
                put_str(&mut out, name);
                put_u16(&mut out, args.len() as u16);
                for a in args {
                    a.encode_into(&mut out);
                }
            }
            Request::Subscribe {
                firings,
                dead_letters,
            } => {
                out.push(15);
                out.push(u8::from(*firings) | (u8::from(*dead_letters) << 1));
            }
            Request::DrainDeadLetters => out.push(16),
            Request::Ping => out.push(17),
            Request::BeginReadOnly => out.push(18),
            Request::ShardOf { oid } => {
                out.push(19);
                put_u64(&mut out, oid.raw());
            }
        }
        out
    }

    /// Decode a frame payload into `(request_id, deadline_ms, request)`.
    pub fn decode(payload: &[u8]) -> Result<(u64, u32, Request)> {
        let mut r = Reader::new(payload, ReachError::Protocol);
        let request_id = r.u64()?;
        let deadline_ms = r.u32()?;
        let req = match r.u8()? {
            1 => Request::Hello { version: r.u32()? },
            2 => Request::Begin,
            3 => Request::Commit { txn: txn(&mut r)? },
            4 => Request::Abort { txn: txn(&mut r)? },
            5 => Request::Create {
                txn: txn(&mut r)?,
                class: r.str()?,
                overrides: pairs(&mut r)?,
            },
            6 => Request::Get {
                txn: txn(&mut r)?,
                oid: oid(&mut r)?,
                attr: r.str()?,
            },
            7 => Request::Set {
                txn: txn(&mut r)?,
                oid: oid(&mut r)?,
                attr: r.str()?,
                value: Value::read(&mut r)?,
            },
            8 => Request::Invoke {
                txn: txn(&mut r)?,
                oid: oid(&mut r)?,
                method: r.str()?,
                args: values(&mut r)?,
            },
            9 => Request::Persist {
                txn: txn(&mut r)?,
                oid: oid(&mut r)?,
            },
            10 => Request::PersistNamed {
                txn: txn(&mut r)?,
                name: r.str()?,
                oid: oid(&mut r)?,
            },
            11 => Request::FetchRoot { name: r.str()? },
            12 => Request::DefineRule { source: r.str()? },
            13 => Request::DefineSignal { name: r.str()? },
            14 => Request::RaiseSignal {
                txn: match r.u8()? {
                    0 => None,
                    1 => Some(txn(&mut r)?),
                    f => {
                        return Err(ReachError::Protocol(format!("bad txn-presence flag {f}")));
                    }
                },
                name: r.str()?,
                args: values(&mut r)?,
            },
            15 => {
                let flags = r.u8()?;
                if flags > 3 {
                    return Err(ReachError::Protocol(format!(
                        "unknown subscription flags {flags:#04x}"
                    )));
                }
                Request::Subscribe {
                    firings: flags & 1 != 0,
                    dead_letters: flags & 2 != 0,
                }
            }
            16 => Request::DrainDeadLetters,
            17 => Request::Ping,
            18 => Request::BeginReadOnly,
            19 => Request::ShardOf { oid: oid(&mut r)? },
            op => return Err(ReachError::Protocol(format!("unknown opcode {op}"))),
        };
        r.finish()?;
        Ok((request_id, deadline_ms, req))
    }
}

fn put_dead_letter(out: &mut Vec<u8>, d: &WireDeadLetter) {
    put_u64(out, d.rule.raw());
    put_str(out, &d.rule_name);
    put_u16(out, d.code);
    put_str(out, &d.message);
    put_u32(out, d.attempts);
    put_u32(out, d.shard);
    put_u64(out, d.origin_txn);
}

fn dead_letter(r: &mut Reader<'_>) -> Result<WireDeadLetter> {
    Ok(WireDeadLetter {
        rule: RuleId::new(r.u64()?),
        rule_name: r.str()?,
        code: r.u16()?,
        message: r.str()?,
        attempts: r.u32()?,
        shard: r.u32()?,
        origin_txn: r.u64()?,
    })
}

impl Response {
    /// Encode into a frame payload (without the length prefix).
    /// `request_id` must be 0 for (and only for) notifications.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_into(request_id, &mut out);
        out
    }

    /// Encode as a whole frame, length prefix included — the bytes a
    /// server writes to the socket.
    pub fn frame(&self, request_id: u64) -> Vec<u8> {
        frame(16, |out| self.encode_into(request_id, out))
    }

    fn encode_into(&self, request_id: u64, out: &mut Vec<u8>) {
        put_u64(out, request_id);
        match self {
            Response::Ok => out.push(0),
            Response::Err { code, message } => {
                out.push(1);
                put_u16(out, *code);
                put_str(out, message);
            }
            Response::Txn(t) => {
                out.push(2);
                put_u64(out, t.raw());
            }
            Response::Oid(o) => {
                out.push(3);
                put_u64(out, o.raw());
            }
            Response::Value(v) => {
                out.push(4);
                v.encode_into(out);
            }
            Response::Rule(rid) => {
                out.push(5);
                put_u64(out, rid.raw());
            }
            Response::HelloOk { session, max_frame } => {
                out.push(6);
                put_u64(out, *session);
                put_u32(out, *max_frame);
            }
            Response::Pong => out.push(7),
            Response::DeadLetters(list) => {
                out.push(8);
                put_u16(out, list.len() as u16);
                for d in list {
                    put_dead_letter(out, d);
                }
            }
            Response::Notification(n) => {
                out.push(9);
                match n {
                    Notification::RuleFired {
                        rule,
                        rule_name,
                        event_type,
                    } => {
                        out.push(0);
                        put_u64(out, rule.raw());
                        put_str(out, rule_name);
                        put_u64(out, *event_type);
                    }
                    Notification::DeadLetter(d) => {
                        out.push(1);
                        put_dead_letter(out, d);
                    }
                }
            }
            Response::Shard { shard, shards } => {
                out.push(10);
                put_u32(out, *shard);
                put_u32(out, *shards);
            }
        }
    }

    /// Decode a frame payload into `(request_id, response)`.
    pub fn decode(payload: &[u8]) -> Result<(u64, Response)> {
        let mut r = Reader::new(payload, ReachError::Protocol);
        let request_id = r.u64()?;
        let resp = match r.u8()? {
            0 => Response::Ok,
            1 => Response::Err {
                code: r.u16()?,
                message: r.str()?,
            },
            2 => Response::Txn(TxnId::new(r.u64()?)),
            3 => Response::Oid(ObjectId::new(r.u64()?)),
            4 => Response::Value(Value::read(&mut r)?),
            5 => Response::Rule(RuleId::new(r.u64()?)),
            6 => Response::HelloOk {
                session: r.u64()?,
                max_frame: r.u32()?,
            },
            7 => Response::Pong,
            8 => {
                let count = r.u16()? as usize;
                let mut list = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    list.push(dead_letter(&mut r)?);
                }
                Response::DeadLetters(list)
            }
            9 => Response::Notification(match r.u8()? {
                0 => Notification::RuleFired {
                    rule: RuleId::new(r.u64()?),
                    rule_name: r.str()?,
                    event_type: r.u64()?,
                },
                1 => Notification::DeadLetter(dead_letter(&mut r)?),
                k => {
                    return Err(ReachError::Protocol(format!(
                        "unknown notification kind {k}"
                    )));
                }
            }),
            10 => Response::Shard {
                shard: r.u32()?,
                shards: r.u32()?,
            },
            tag => return Err(ReachError::Protocol(format!("unknown response tag {tag}"))),
        };
        r.finish()?;
        Ok((request_id, resp))
    }

    /// The error response carrying `e`.
    pub fn error(e: &ReachError) -> Response {
        Response::Err {
            code: e.wire_code(),
            message: e.to_string(),
        }
    }
}

/// Turn a wire error response back into a [`ReachError`].
pub fn error_from_wire(code: u16, message: String) -> ReachError {
    ReachError::from_wire(code, message)
}
