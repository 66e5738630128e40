//! Translation: moving objects between address spaces (§5).
//!
//! When an object crosses from the active (in-memory) address space to a
//! passive one (the storage manager) it is translated to a
//! self-describing byte string: `oid | class | attribute values`. The
//! inverse direction rebuilds the resident [`ObjectState`].

use reach_common::codec::{put_u64, Reader};
use reach_common::{ObjectId, ReachError, Result};
use reach_object::ObjectState;

/// Format version tag, bumped on layout changes.
const VERSION: u8 = 1;

/// Serialize `(oid, state)` for a passive address space.
pub fn externalize(oid: ObjectId, state: &ObjectState) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.push(VERSION);
    put_u64(&mut out, oid.raw());
    state.encode_into(&mut out);
    out
}

/// Rebuild `(oid, state)` from a passive representation.
pub fn internalize(buf: &[u8]) -> Result<(ObjectId, ObjectState)> {
    let mut r = Reader::new(buf, ReachError::Io);
    let version = r.u8()?;
    if version != VERSION {
        return Err(r.error(format!("unsupported object format version {version}")));
    }
    let record = (ObjectId::new(r.u64()?), ObjectState::read(&mut r)?);
    r.finish()?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_common::ClassId;
    use reach_object::Value;

    #[test]
    fn round_trip() {
        let state = ObjectState {
            class: ClassId::new(3),
            attrs: vec![Value::Int(1), Value::Str("x".into())],
        };
        let ext = externalize(ObjectId::new(42), &state);
        let (oid, back) = internalize(&ext).unwrap();
        assert_eq!(oid, ObjectId::new(42));
        assert_eq!(back, state);
    }

    #[test]
    fn rejects_bad_version_and_truncation() {
        let state = ObjectState {
            class: ClassId::new(1),
            attrs: vec![],
        };
        let mut ext = externalize(ObjectId::new(1), &state);
        ext[0] = 9;
        assert!(internalize(&ext).is_err());
        assert!(internalize(&[1, 2, 3]).is_err());
    }

    #[test]
    fn trailing_bytes_after_a_record_are_an_error() {
        let ext = externalize(ObjectId::new(42), &sample_state());
        let got = internalize(&[ext, b"garbage".to_vec()].concat());
        assert!(matches!(got, Err(ReachError::Io(_))), "{got:?}");
    }

    /// One attribute of every value kind, a nested list among them.
    fn sample_state() -> ObjectState {
        ObjectState {
            class: ClassId::new(3),
            attrs: vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(-42),
                Value::Float(2.5),
                Value::Str("h\u{e9}llo".into()),
                Value::Ref(ObjectId::new(99)),
                Value::Bytes(vec![0, 1, 255]),
                Value::List(vec![Value::Int(1), Value::List(vec![Value::Null])]),
            ],
        }
    }

    /// FNV-1a 64 of `bytes`, to pin a format.
    fn digest(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn external_format_is_pinned() {
        assert_eq!(
            digest(&externalize(ObjectId::new(42), &sample_state())),
            0x35aa3e32cfe4f991
        );
    }

    #[test]
    fn deeply_nested_lists_are_an_error_not_a_stack_overflow() {
        let state = ObjectState {
            class: ClassId::new(1),
            attrs: vec![],
        };
        let mut ext = externalize(ObjectId::new(1), &state);
        // One attribute: 200 000 list tags, each holding the next.
        ext[17..21].copy_from_slice(&1u32.to_le_bytes());
        for _ in 0..200_000 {
            ext.push(7);
            ext.extend_from_slice(&1u32.to_le_bytes());
        }
        let got = internalize(&ext);
        assert!(matches!(got, Err(ReachError::Io(_))), "{got:?}");
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn garbage_objects_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
                if let Err(e) = internalize(&bytes) {
                    prop_assert!(matches!(e, ReachError::Io(_)), "{e:?}");
                }
            }

            #[test]
            fn bit_flipped_objects_never_panic(
                at in any::<prop::sample::Index>(),
                bit in 0u8..8,
            ) {
                let mut ext = externalize(ObjectId::new(42), &sample_state());
                let i = at.index(ext.len());
                ext[i] ^= 1 << bit;
                if let Err(e) = internalize(&ext) {
                    prop_assert!(matches!(e, ReachError::Io(_)), "{e:?}");
                }
            }
        }
    }
}
