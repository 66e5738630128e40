//! Runtime values and their wire encoding.
//!
//! REACH objects hold dynamically-typed attribute values. The variants
//! mirror what the paper's C++ model can express in rule parameters:
//! primitives, strings, object references, raw bytes and lists.

use reach_common::codec::{put_bytes, put_str, put_u32, put_u64, Reader};
use reach_common::{ObjectId, ReachError, Result};
use std::fmt;

/// Deepest nesting the decoders read: a value may sit at most this
/// many `List` levels below the top one. It bounds the decoder's
/// recursion, so a crafted record of nested list tags is an error, not
/// a stack overflow.
pub const MAX_VALUE_DEPTH: usize = 32;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    /// Reference to another object (persistent or transient).
    Ref(ObjectId),
    Bytes(Vec<u8>),
    List(Vec<Value>),
}

/// A shared, immutable argument payload.
///
/// A monitored method call's arguments flow from the dispatcher through
/// the sentry chain into every event occurrence raised for it. Behind
/// an `Arc` slice the values are copied out of the caller's slice
/// exactly once; every hop after that — the `MethodCall`, each
/// registered event type's occurrence, composite constituents, history
/// entries — is a refcount bump instead of a fresh `Vec`. The empty
/// payload is one process-wide allocation, so argument-less events
/// allocate nothing.
#[derive(Debug, Clone)]
pub struct Args(std::sync::Arc<[Value]>);

impl Args {
    /// The shared empty payload (no allocation per call).
    pub fn empty() -> Args {
        static EMPTY: std::sync::OnceLock<std::sync::Arc<[Value]>> = std::sync::OnceLock::new();
        Args(std::sync::Arc::clone(
            EMPTY.get_or_init(|| std::sync::Arc::from(Vec::new())),
        ))
    }

    /// Copy a slice into a fresh shared payload (empty slices reuse the
    /// shared empty allocation).
    pub fn copy_from(values: &[Value]) -> Args {
        if values.is_empty() {
            Args::empty()
        } else {
            Args(std::sync::Arc::from(values))
        }
    }
}

impl Default for Args {
    fn default() -> Self {
        Args::empty()
    }
}

impl std::ops::Deref for Args {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        &self.0
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl From<Vec<Value>> for Args {
    fn from(values: Vec<Value>) -> Self {
        if values.is_empty() {
            Args::empty()
        } else {
            Args(std::sync::Arc::from(values))
        }
    }
}

impl<'a> IntoIterator for &'a Args {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The static type of a value (used in attribute declarations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    Null,
    Bool,
    Int,
    Float,
    Str,
    Ref,
    Bytes,
    List,
    /// Accepts any runtime value.
    Any,
}

impl Value {
    /// The runtime type tag.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Null => ValueType::Null,
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
            Value::Ref(_) => ValueType::Ref,
            Value::Bytes(_) => ValueType::Bytes,
            Value::List(_) => ValueType::List,
        }
    }

    /// Whether this value conforms to a declared type. A `List` nested
    /// deeper than the decoders read ([`MAX_VALUE_DEPTH`]) conforms to
    /// nothing, so no write can store a value that cannot be read back.
    pub fn conforms_to(&self, ty: ValueType) -> bool {
        (ty == ValueType::Any || self.value_type() == ty || matches!(self, Value::Null))
            && self.readable_at(0)
    }

    /// [`Value::conforms_to`] as the error a refused write returns.
    pub fn check_type(&self, ty: ValueType) -> Result<()> {
        if self.conforms_to(ty) {
            return Ok(());
        }
        Err(ReachError::TypeMismatch {
            expected: format!("{ty:?}"),
            got: if self.readable_at(0) {
                format!("{:?}", self.value_type())
            } else {
                format!("List nested deeper than {MAX_VALUE_DEPTH}")
            },
        })
    }

    /// Whether [`Value::read`] accepts this value `depth` levels down.
    fn readable_at(&self, depth: usize) -> bool {
        match self {
            Value::List(items) => items
                .iter()
                .all(|v| depth < MAX_VALUE_DEPTH && v.readable_at(depth + 1)),
            _ => true,
        }
    }

    fn mismatch(&self, want: &str) -> ReachError {
        ReachError::TypeMismatch {
            expected: want.to_string(),
            got: format!("{:?}", self.value_type()),
        }
    }

    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            v => Err(v.mismatch("Bool")),
        }
    }

    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            v => Err(v.mismatch("Int")),
        }
    }

    /// Numeric coercion: ints widen to floats.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            v => Err(v.mismatch("Float")),
        }
    }

    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            v => Err(v.mismatch("Str")),
        }
    }

    pub fn as_ref_id(&self) -> Result<ObjectId> {
        match self {
            Value::Ref(o) => Ok(*o),
            v => Err(v.mismatch("Ref")),
        }
    }

    pub fn as_list(&self) -> Result<&[Value]> {
        match self {
            Value::List(l) => Ok(l),
            v => Err(v.mismatch("List")),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Total order used by the query engine's comparison operators.
    /// Cross-type comparisons order by type tag; numerics compare by
    /// value across Int/Float.
    pub fn compare(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Value::Int(a), Value::Float(b)) => {
                (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal)
            }
            (Value::Float(a), Value::Int(b)) => {
                a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal)
            }
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Ref(a), Value::Ref(b)) => a.cmp(b),
            (Value::Bytes(a), Value::Bytes(b)) => a.cmp(b),
            (Value::List(a), Value::List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let o = x.compare(y);
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }

    // ---- the value format, stored and on the wire ----

    /// Append the encoded value to `out`: a tag byte (`Null`=0 …
    /// `List`=7, declaration order), then the little-endian payload;
    /// `Str`/`Bytes` carry a `u32` length and `List` a `u32` count.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => out.extend_from_slice(&[1, u8::from(*b)]),
            Value::Int(i) => {
                out.push(2);
                put_u64(out, *i as u64);
            }
            Value::Float(f) => {
                out.push(3);
                put_u64(out, f.to_bits());
            }
            Value::Str(s) => {
                out.push(4);
                put_str(out, s);
            }
            Value::Ref(o) => {
                out.push(5);
                put_u64(out, o.raw());
            }
            Value::Bytes(b) => {
                out.push(6);
                put_bytes(out, b);
            }
            Value::List(l) => {
                out.push(7);
                put_u32(out, l.len() as u32);
                for v in l {
                    v.encode_into(out);
                }
            }
        }
    }

    /// Read one value written by [`Value::encode_into`], nested at most
    /// [`MAX_VALUE_DEPTH`] levels deep.
    pub fn read(r: &mut Reader<'_>) -> Result<Value> {
        Value::read_at(r, 0)
    }

    fn read_at(r: &mut Reader<'_>, depth: usize) -> Result<Value> {
        if depth > MAX_VALUE_DEPTH {
            return Err(r.error(format!("value nesting exceeds {MAX_VALUE_DEPTH}")));
        }
        Ok(match r.u8()? {
            0 => Value::Null,
            1 => Value::Bool(r.u8()? != 0),
            2 => Value::Int(r.i64()?),
            3 => Value::Float(f64::from_bits(r.u64()?)),
            4 => Value::Str(r.str()?),
            5 => Value::Ref(ObjectId::new(r.u64()?)),
            6 => Value::Bytes(r.bytes()?.to_vec()),
            7 => {
                // Every item is at least its tag byte.
                let n = r.count(1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(Value::read_at(r, depth + 1)?);
                }
                Value::List(items)
            }
            tag => return Err(r.error(format!("unknown value tag {tag}"))),
        })
    }

    /// Encode to a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    // ---- memcomparable index encoding (used by the Indexing PM) ----

    /// Encode into a **memcomparable** key: plain `memcmp` on the
    /// encoded bytes orders exactly like [`Value::compare`] — with one
    /// documented exception: `compare` coerces across `Int`/`Float`
    /// numerically, while index keys order the two by type rank. An
    /// index over a schema-typed attribute never mixes the two, which
    /// is why the Indexing PM may use this encoding at all.
    ///
    /// The encoding is also *decodable* ([`Value::decode_index_key`]):
    /// reopening a persistent index rebuilds its in-memory shadow from
    /// the stored keys alone.
    ///
    /// Layout per value: a rank byte (`Null`=0x01 … `List`=0x08, the
    /// [`Value::compare`] type order), then:
    /// * `Int` — the i64 with its sign bit flipped, big-endian (order-
    ///   preserving across negatives);
    /// * `Float` — IEEE bits; positive values get the sign bit set,
    ///   negative values are wholly inverted (the classic total-order
    ///   trick: negatives descend by magnitude, positives ascend);
    /// * `Str`/`Bytes` — content with `0x00` escaped as `0x00 0xFF`,
    ///   terminated by `0x00 0x00` (a proper prefix sorts first, and no
    ///   content can sort below the terminator);
    /// * `List` — each element's full encoding, then a `0x00`
    ///   terminator byte, which sorts below every rank byte so a prefix
    ///   list sorts first — matching `compare`'s elementwise-then-length
    ///   order.
    pub fn index_key_into(&self, out: &mut Vec<u8>) {
        const SIGN: u64 = 1 << 63;
        match self {
            Value::Null => out.push(0x01),
            Value::Bool(b) => {
                out.push(0x02);
                out.push(*b as u8);
            }
            Value::Int(i) => {
                out.push(0x03);
                out.extend_from_slice(&((*i as u64) ^ SIGN).to_be_bytes());
            }
            Value::Float(f) => {
                out.push(0x04);
                let bits = f.to_bits();
                let ordered = if bits & SIGN == 0 { bits | SIGN } else { !bits };
                out.extend_from_slice(&ordered.to_be_bytes());
            }
            Value::Str(s) => {
                out.push(0x05);
                escape_into(s.as_bytes(), out);
            }
            Value::Ref(o) => {
                out.push(0x06);
                out.extend_from_slice(&o.raw().to_be_bytes());
            }
            Value::Bytes(b) => {
                out.push(0x07);
                escape_into(b, out);
            }
            Value::List(l) => {
                out.push(0x08);
                for v in l {
                    v.index_key_into(out);
                }
                out.push(0x00);
            }
        }
    }

    /// [`Value::index_key_into`] to a fresh buffer.
    pub fn index_key(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.index_key_into(&mut out);
        out
    }

    /// Decode one memcomparable key back into a value (the whole buffer
    /// must be consumed — index keys are stored one per entry).
    pub fn decode_index_key(buf: &[u8]) -> Result<Value> {
        let mut r = Reader::new(buf, ReachError::Io);
        let rank = r.u8()?;
        let v = read_index_key(&mut r, rank, 0)?;
        r.finish()?;
        Ok(v)
    }
}

/// `0x00`-escape `data` into `out` and terminate (see
/// [`Value::index_key_into`]).
fn escape_into(data: &[u8], out: &mut Vec<u8>) {
    for &b in data {
        if b == 0x00 {
            out.extend_from_slice(&[0x00, 0xFF]);
        } else {
            out.push(b);
        }
    }
    out.extend_from_slice(&[0x00, 0x00]);
}

/// Read an escaped run up to its terminator (see [`escape_into`]).
fn unescape(r: &mut Reader<'_>) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        match r.u8()? {
            0x00 => match r.u8()? {
                0x00 => return Ok(out),
                0xFF => out.push(0x00),
                b => return Err(r.error(format!("bad index key escape {b:#04x}"))),
            },
            b => out.push(b),
        }
    }
}

/// Read the rest of a key whose rank byte was `rank`, nested `depth`
/// lists deep (bounded like [`Value::read`]).
fn read_index_key(r: &mut Reader<'_>, rank: u8, depth: usize) -> Result<Value> {
    const SIGN: u64 = 1 << 63;
    if depth > MAX_VALUE_DEPTH {
        return Err(r.error(format!("index key nesting exceeds {MAX_VALUE_DEPTH}")));
    }
    Ok(match rank {
        0x01 => Value::Null,
        0x02 => Value::Bool(r.u8()? != 0),
        0x03 => Value::Int((u64::from_be_bytes(r.array()?) ^ SIGN) as i64),
        0x04 => {
            let ordered = u64::from_be_bytes(r.array()?);
            let bits = if ordered & SIGN != 0 {
                ordered ^ SIGN
            } else {
                !ordered
            };
            Value::Float(f64::from_bits(bits))
        }
        0x05 => Value::Str(
            String::from_utf8(unescape(r)?).map_err(|_| r.error("index key is not UTF-8"))?,
        ),
        0x06 => Value::Ref(ObjectId::new(u64::from_be_bytes(r.array()?))),
        0x07 => Value::Bytes(unescape(r)?),
        0x08 => {
            // Elements until the 0x00 terminator, which no rank byte is.
            let mut l = Vec::new();
            loop {
                match r.u8()? {
                    0x00 => break,
                    rank => l.push(read_index_key(r, rank, depth + 1)?),
                }
            }
            Value::List(l)
        }
        rank => return Err(r.error(format!("unknown index key rank {rank:#04x}"))),
    })
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Str(_) => 4,
        Value::Ref(_) => 5,
        Value::Bytes(_) => 6,
        Value::List(_) => 7,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Ref(o) => write!(f, "{o}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<ObjectId> for Value {
    fn from(o: ObjectId) -> Self {
        Value::Ref(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Str("héllo".into()),
            Value::Ref(ObjectId::new(99)),
            Value::Bytes(vec![0, 1, 2, 255]),
            Value::List(vec![Value::Int(1), Value::Str("two".into()), Value::Null]),
        ]
    }

    fn read_all(buf: &[u8]) -> Result<Vec<Value>> {
        let mut r = Reader::new(buf, ReachError::Io);
        let mut out = Vec::new();
        while r.finish().is_err() {
            out.push(Value::read(&mut r)?);
        }
        Ok(out)
    }

    #[test]
    fn every_value_round_trips() {
        for v in samples() {
            assert_eq!(read_all(&v.encode()).unwrap(), vec![v]);
        }
    }

    #[test]
    fn concatenated_values_decode_in_sequence() {
        let mut buf = Vec::new();
        for v in samples() {
            v.encode_into(&mut buf);
        }
        assert_eq!(read_all(&buf).unwrap(), samples());
    }

    #[test]
    fn truncated_encoding_is_an_error() {
        let enc = Value::Str("hello world".into()).encode();
        let got = read_all(&enc[..enc.len() - 2]);
        assert!(matches!(got, Err(ReachError::Io(_))), "{got:?}");
    }

    /// `levels` lists, each holding the next; the innermost is empty.
    fn nested_lists(levels: usize) -> Value {
        (1..levels).fold(Value::List(Vec::new()), |inner, _| Value::List(vec![inner]))
    }

    #[test]
    fn writes_accept_exactly_the_nesting_reads_accept() {
        for levels in MAX_VALUE_DEPTH - 1..MAX_VALUE_DEPTH + 4 {
            let v = nested_lists(levels);
            let readable = read_all(&v.encode()).is_ok();
            assert_eq!(readable, levels <= MAX_VALUE_DEPTH + 1, "{levels} levels");
            assert_eq!(v.conforms_to(ValueType::Any), readable, "{levels} levels");
            assert_eq!(v.conforms_to(ValueType::List), readable, "{levels} levels");
        }
        let with_item = Value::List(vec![nested_lists(MAX_VALUE_DEPTH)]);
        assert!(with_item.conforms_to(ValueType::Any));
        let too_deep = Value::List(vec![Value::Int(1), nested_lists(MAX_VALUE_DEPTH + 1)]);
        assert!(!too_deep.conforms_to(ValueType::Any));
        assert!(read_all(&too_deep.encode()).is_err());
        match too_deep.check_type(ValueType::List) {
            Err(ReachError::TypeMismatch { got, .. }) => assert!(got.contains("nested"), "{got}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert!(Value::Int(7).as_str().is_err());
        assert!(Value::Str("x".into()).as_int().is_err());
        assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
        assert_eq!(Value::Ref(ObjectId::new(4)).as_ref_id().unwrap().raw(), 4);
    }

    #[test]
    fn null_conforms_to_everything() {
        assert!(Value::Null.conforms_to(ValueType::Int));
        assert!(Value::Null.conforms_to(ValueType::Str));
        assert!(Value::Int(1).conforms_to(ValueType::Any));
        assert!(!Value::Int(1).conforms_to(ValueType::Str));
    }

    #[test]
    fn numeric_comparison_crosses_int_float() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Int(2).compare(&Value::Float(2.5)), Less);
        assert_eq!(Value::Float(3.0).compare(&Value::Int(3)), Equal);
        assert_eq!(
            Value::Str("b".into()).compare(&Value::Str("a".into())),
            Greater
        );
    }

    #[test]
    fn list_comparison_is_lexicographic() {
        use std::cmp::Ordering::*;
        let a = Value::List(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::List(vec![Value::Int(1), Value::Int(3)]);
        let c = Value::List(vec![Value::Int(1)]);
        assert_eq!(a.compare(&b), Less);
        assert_eq!(c.compare(&a), Less);
        assert_eq!(a.compare(&a), Equal);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Bool(false)]).to_string(),
            "[1, false]"
        );
    }

    /// A spread of values per type, each list already in `compare`
    /// order, for the memcomparable ordering checks.
    fn ordered_ladder() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Int(-1_000_000),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(1),
            Value::Int(7_777_777),
            Value::Int(i64::MAX),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-1e300),
            Value::Float(-2.5),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(1e-30),
            Value::Float(2.5),
            Value::Float(1e300),
            Value::Float(f64::INFINITY),
            Value::Str("".into()),
            Value::Str("a".into()),
            Value::Str("a\0".into()),
            Value::Str("a\0b".into()),
            Value::Str("ab".into()),
            Value::Str("b".into()),
            Value::Ref(ObjectId::new(0)),
            Value::Ref(ObjectId::new(1)),
            Value::Ref(ObjectId::new(u64::MAX)),
            Value::Bytes(vec![]),
            Value::Bytes(vec![0x00]),
            Value::Bytes(vec![0x00, 0x00]),
            Value::Bytes(vec![0x00, 0x01]),
            Value::Bytes(vec![0x01]),
            Value::Bytes(vec![0xFF, 0xFF]),
            Value::List(vec![]),
            Value::List(vec![Value::Int(1)]),
            Value::List(vec![Value::Int(1), Value::Int(2)]),
            Value::List(vec![Value::Int(2)]),
            Value::List(vec![Value::Str("a\0".into()), Value::Null]),
        ]
    }

    #[test]
    fn index_keys_order_like_compare() {
        // memcmp on encoded keys must agree with Value::compare for
        // every pair — except Int×Float, where compare coerces
        // numerically and the index orders by type rank (documented;
        // schema-typed attributes never mix the two in one index).
        let ladder = ordered_ladder();
        for a in &ladder {
            for b in &ladder {
                if matches!(
                    (a, b),
                    (Value::Int(_), Value::Float(_)) | (Value::Float(_), Value::Int(_))
                ) {
                    continue;
                }
                // -0.0 and 0.0 compare Equal but encode differently;
                // that refinement of compare's order is harmless (both
                // directions of a range bound still capture both).
                if let (Value::Float(x), Value::Float(y)) = (a, b) {
                    if *x == 0.0 && *y == 0.0 {
                        continue;
                    }
                }
                assert_eq!(
                    a.index_key().cmp(&b.index_key()),
                    a.compare(b),
                    "memcmp order diverges from compare for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn index_keys_round_trip() {
        for v in ordered_ladder().into_iter().chain(samples()) {
            let key = v.index_key();
            let dec = Value::decode_index_key(&key).unwrap();
            // Bit-exact for floats (PartialEq would pass 0.0 == -0.0).
            if let (Value::Float(a), Value::Float(b)) = (&v, &dec) {
                assert_eq!(a.to_bits(), b.to_bits());
            } else {
                assert_eq!(dec, v);
            }
        }
    }

    #[test]
    fn index_key_rejects_corruption() {
        assert!(Value::decode_index_key(&[]).is_err());
        assert!(Value::decode_index_key(&[0x99]).is_err());
        // Truncated string (no terminator).
        assert!(Value::decode_index_key(&[0x05, b'a']).is_err());
        // Invalid escape.
        assert!(Value::decode_index_key(&[0x05, 0x00, 0x07]).is_err());
        // Trailing garbage.
        assert!(Value::decode_index_key(&[0x01, 0x01]).is_err());
        // Unterminated list.
        assert!(Value::decode_index_key(&[0x08, 0x01]).is_err());
        // Lists nested past MAX_VALUE_DEPTH, as a corrupt node could.
        let mut deep = vec![0x08; 200_000];
        deep.extend(vec![0x00; 200_000]);
        assert!(Value::decode_index_key(&deep).is_err());
        let readable = nested_lists(MAX_VALUE_DEPTH + 1).index_key();
        assert!(Value::decode_index_key(&readable).is_ok());
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        /// A decoder may accept garbage, but may fail only as `Io`.
        fn ok_or_io<T>(got: Result<T>) -> bool {
            match got {
                Ok(_) => true,
                Err(e) => matches!(e, ReachError::Io(_)),
            }
        }

        proptest! {
            #[test]
            fn garbage_values_and_keys_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
                prop_assert!(ok_or_io(read_all(&bytes)));
                prop_assert!(ok_or_io(Value::decode_index_key(&bytes)));
            }

            #[test]
            fn bit_flipped_values_and_keys_never_panic(
                which in any::<prop::sample::Index>(),
                at in any::<prop::sample::Index>(),
                bit in 0u8..8,
            ) {
                let v = &samples()[which.index(samples().len())];
                for mut enc in [v.encode(), v.index_key()] {
                    let i = at.index(enc.len());
                    enc[i] ^= 1 << bit;
                    prop_assert!(ok_or_io(read_all(&enc)));
                    prop_assert!(ok_or_io(Value::decode_index_key(&enc)));
                }
            }
        }
    }
}
