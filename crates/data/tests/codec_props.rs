//! Properties of the shared binary codec: value and tuple sequences
//! round-trip bit for bit, every strict prefix of a valid encoding is a
//! truncation error, one appended byte is a trailing-bytes error, and
//! arbitrary bytes never panic the reader.

use aorta_data::codec::{put_tuple, put_value, put_vec, DecodeError, DecodeErrorKind, Reader};
use aorta_data::{Location, Tuple, Value};
use proptest::prelude::*;

/// Any bit pattern, NaNs and infinities included.
fn arb_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        arb_f64().prop_map(Value::Float),
        ".{0,24}".prop_map(Value::Str),
        (arb_f64(), arb_f64(), arb_f64())
            .prop_map(|(x, y, z)| Value::Location(Location::new(x, y, z))),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (
        proptest::collection::vec(arb_value(), 0..6),
        proptest::collection::vec(any::<u32>(), 0..4),
    )
        .prop_map(|(values, tags)| {
            let mut t = Tuple::new(values);
            for tag in tags {
                t.add_tag(tag);
            }
            t
        })
}

/// Equality with floats compared by their bits, so NaN equals itself.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Location(p), Value::Location(q)) => {
            [p.x, p.y, p.z].map(f64::to_bits) == [q.x, q.y, q.z].map(f64::to_bits)
        }
        _ => a == b,
    }
}

fn same_tuple(a: &Tuple, b: &Tuple) -> bool {
    a.len() == b.len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| same_value(x, y))
        && a.tags() == b.tags()
}

/// Values then tuples, each as a counted sequence.
fn encode(values: &[Value], tuples: &[Tuple]) -> Vec<u8> {
    let mut out = Vec::new();
    put_vec(&mut out, values, put_value);
    put_vec(&mut out, tuples, put_tuple);
    out
}

fn decode(bytes: &[u8]) -> Result<(Vec<Value>, Vec<Tuple>), DecodeError> {
    let mut r = Reader::new(bytes);
    let values = r.vec(Reader::value)?;
    let tuples = r.vec(Reader::tuple)?;
    r.finish()?;
    Ok((values, tuples))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn prop_sequences_round_trip(
        values in proptest::collection::vec(arb_value(), 0..8),
        tuples in proptest::collection::vec(arb_tuple(), 0..4),
    ) {
        let bytes = encode(&values, &tuples);
        let (v, t) = decode(&bytes).map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(v.len(), values.len());
        prop_assert!(v.iter().zip(&values).all(|(a, b)| same_value(a, b)));
        prop_assert_eq!(t.len(), tuples.len());
        prop_assert!(t.iter().zip(&tuples).all(|(a, b)| same_tuple(a, b)));
    }

    #[test]
    fn prop_every_strict_prefix_is_truncated(
        values in proptest::collection::vec(arb_value(), 0..4),
        tuples in proptest::collection::vec(arb_tuple(), 0..3),
    ) {
        let bytes = encode(&values, &tuples);
        for cut in 0..bytes.len() {
            let e = decode(&bytes[..cut]).expect_err("a strict prefix never decodes");
            prop_assert_eq!(&e.what, &DecodeErrorKind::Truncated, "cut at {}: {}", cut, e);
            prop_assert!(e.offset <= cut, "offset {} past the cut {}", e.offset, cut);
        }
    }

    #[test]
    fn prop_one_appended_byte_is_trailing(
        values in proptest::collection::vec(arb_value(), 0..4),
        tuples in proptest::collection::vec(arb_tuple(), 0..3),
        extra in any::<u8>(),
    ) {
        let mut bytes = encode(&values, &tuples);
        let end = bytes.len();
        bytes.push(extra);
        let e = decode(&bytes).expect_err("an appended byte never decodes");
        prop_assert_eq!(e.offset, end);
        prop_assert_eq!(e.what, DecodeErrorKind::TrailingBytes { count: 1 });
    }

    #[test]
    fn prop_arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
        let _ = Reader::new(&bytes).tuple();
        let _ = Reader::new(&bytes).str();
    }
}
