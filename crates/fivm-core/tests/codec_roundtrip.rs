//! Property tests for the durability codec: `decode(encode(x)) == x`
//! for every type that crosses the process boundary, and decoding
//! arbitrary/corrupted bytes **returns an error instead of panicking**.
//!
//! Float handling (documented in `fivm-core/src/codec.rs`): doubles are
//! stored as raw IEEE-754 bits, so NaN payloads and `-0.0`'s sign bit
//! survive the disk round trip bit-exactly. Since `Value`'s own
//! equality treats every NaN as equal-to-itself-by-bits and folds
//! `-0.0 == 0.0`, the properties below compare *bit patterns* for
//! doubles and type-level equality for everything else.

use fivm_core::ring::cofactor::Cofactor;
use fivm_core::ring::degree::DegreeRing;
use fivm_core::ring::relational::RelPayload;
use fivm_core::{Codec, Delta, FxHashMap, Relation, Ring, Schema, Semiring, Tuple, Value};
use proptest::prelude::*;

fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(x: &T) -> Result<(), TestCaseError> {
    let mut buf = Vec::new();
    x.encode(&mut buf);
    let mut cursor = buf.as_slice();
    let back = T::decode(&mut cursor);
    prop_assert!(back.is_ok(), "decode failed: {:?}", back.err());
    prop_assert_eq!(&back.unwrap(), x);
    prop_assert!(cursor.is_empty(), "decode must consume the exact encoding");
    Ok(())
}

/// All three `Value` variants. Doubles come from raw bit patterns so
/// the strategy covers NaNs (quiet/signaling payloads), infinities,
/// subnormals and signed zeros, not just "nice" floats.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (i64::MIN..=i64::MAX).prop_map(Value::Int),
        3 => (0u64..=u64::MAX).prop_map(|bits| Value::Double(f64::from_bits(bits))),
        2 => (0u32..=u32::MAX).prop_map(Value::Sym),
    ]
}

/// Arities spanning the inline (≤ 3) / spilled (> 3) boundary.
fn values(max: usize) -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(value(), 0..=max)
}

/// A relation over distinct schema variables with up to `rows` pairs.
fn relation_i64(rows: usize) -> impl Strategy<Value = Relation<i64>> {
    (0usize..=4).prop_flat_map(move |arity| {
        let schema: Vec<u32> = (0..arity as u32).map(|v| v * 3 + 1).collect();
        proptest::collection::vec(
            (
                proptest::collection::vec(value(), arity),
                i64::MIN..=i64::MAX,
            ),
            0..=rows,
        )
        .prop_map(move |pairs| {
            Relation::from_pairs(
                Schema::new(schema.clone()),
                pairs.into_iter().map(|(vals, m)| (Tuple::new(vals), m)),
            )
        })
    })
}

/// A cofactor built the way the engine builds one: a signed sum of
/// products of lifts. Variable ids span the whole `u32` range (both
/// halves of a packed product key), and some values are exactly zero,
/// which the encoder leaves out.
fn cofactor() -> impl Strategy<Value = Cofactor> {
    let factor = (
        0u32..=u32::MAX,
        prop_oneof![1 => Just(0.0), 4 => -1e6f64..1e6],
    );
    let term = (
        proptest::collection::vec(factor, 0..4),
        prop_oneof![Just(false), Just(true)],
    );
    proptest::collection::vec(term, 0..4).prop_map(|terms| {
        terms
            .into_iter()
            .fold(Cofactor::zero(), |acc, (factors, negate)| {
                let t = factors
                    .into_iter()
                    .fold(Cofactor::one(), |t, (j, x)| t.mul(&Cofactor::lift(j, x)));
                acc.add(&if negate { t.neg() } else { t })
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Values round-trip; doubles additionally round-trip *bit-exactly*
    /// even where `Value` equality is coarser (NaN payloads, -0.0).
    #[test]
    fn value_round_trips(v in value()) {
        round_trip(&v)?;
        if let Value::Double(d) = v {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            match Value::decode(&mut buf.as_slice()).unwrap() {
                Value::Double(back) => prop_assert_eq!(back.to_bits(), d.to_bits()),
                other => prop_assert!(false, "wrong variant {:?}", other),
            }
        }
    }

    /// Tuples round-trip across the inline/spilled boundary, and a
    /// forced-spilled tuple decodes to the same (canonical) value.
    #[test]
    fn tuple_round_trips(vals in values(6)) {
        round_trip(&Tuple::new(vals.clone()))?;
        let spilled = Tuple::spilled(vals.clone());
        let mut buf = Vec::new();
        spilled.encode(&mut buf);
        prop_assert_eq!(Tuple::decode(&mut buf.as_slice()).unwrap(), spilled);
    }

    /// Relations and both delta layouts round-trip. Factored deltas get
    /// disjoint schemas by construction: `relation_i64` uses variables
    /// 1/4/7/10, the second factor 100/101.
    #[test]
    fn relation_and_delta_round_trip(
        r in relation_i64(6),
        flat in prop_oneof![Just(true), Just(false)],
    ) {
        round_trip(&r)?;
        let (d, factors) = if flat {
            (Delta::Flat(r.clone()), vec![r])
        } else {
            let other = Relation::from_pairs(
                Schema::new(vec![100, 101]),
                [(Tuple::new(vec![Value::Int(1), Value::Sym(2)]), 5i64)],
            );
            let fs = vec![r, other];
            (Delta::Factored(fs.clone()), fs)
        };
        let mut buf = Vec::new();
        d.encode(&mut buf);
        match (Delta::<i64>::decode(&mut buf.as_slice()).unwrap(), flat) {
            (Delta::Flat(back), true) => prop_assert_eq!(&back, &factors[0]),
            (Delta::Factored(back), false) => prop_assert_eq!(&back, &factors),
            (other, _) => prop_assert!(false, "wrong delta variant {:?}", other),
        }
    }

    /// Every ring payload the bench suites maintain round-trips:
    /// numeric (i64 / f64), cofactors, relational payloads, degree-ring
    /// tables.
    #[test]
    fn ring_payloads_round_trip(
        count in i64::MIN..=i64::MAX,
        cof in cofactor(),
        degs in proptest::collection::vec(
            ((0u32..=u32::MAX, 0u32..=u32::MAX), -1e9f64..1e9),
            0..6,
        ),
        rel_rows in proptest::collection::vec((values(2), i64::MIN..=i64::MAX), 0..5),
    ) {
        round_trip(&count)?;
        round_trip(&(count as f64 * 0.5))?;
        round_trip(&cof)?;

        let mut aggs = FxHashMap::default();
        for (k, v) in degs {
            aggs.insert(k, v);
        }
        round_trip(&DegreeRing { aggs })?;

        let mut data = FxHashMap::default();
        for (vals, c) in rel_rows {
            if vals.len() == 2 {
                data.insert(Tuple::new(vals), c);
            }
        }
        round_trip(&RelPayload { schema: Schema::new(vec![7, 9]), data })?;
    }

    /// Corruption safety: decoding arbitrary bytes — and every
    /// truncation and single-byte mutation of a *valid* encoding —
    /// returns an error or a value, never panics, and never
    /// over-consumes the cursor.
    #[test]
    fn corrupt_bytes_never_panic(
        garbage in proptest::collection::vec(0u8..=255, 0..120),
        r in relation_i64(3),
        cof in cofactor(),
        cut in 0usize..=usize::MAX,
        flip in 0usize..=usize::MAX,
    ) {
        fn try_all(bytes: &[u8]) {
            let _ = Value::decode(&mut &bytes[..]);
            let _ = Tuple::decode(&mut &bytes[..]);
            let _ = Schema::decode(&mut &bytes[..]);
            let _ = Relation::<i64>::decode(&mut &bytes[..]);
            let _ = Delta::<i64>::decode(&mut &bytes[..]);
            let _ = Delta::<f64>::decode(&mut &bytes[..]);
            let _ = Cofactor::decode(&mut &bytes[..]);
            let _ = RelPayload::decode(&mut &bytes[..]);
            let _ = DegreeRing::decode(&mut &bytes[..]);
        }
        try_all(&garbage);

        let mut delta = Vec::new();
        Delta::Flat(r).encode(&mut delta);
        let mut cofactor = Vec::new();
        cof.encode(&mut cofactor);
        for mut valid in [delta, cofactor] {
            // Truncation at an arbitrary boundary.
            try_all(&valid[..cut % (valid.len() + 1)]);
            // Single corrupted byte.
            if !valid.is_empty() {
                let i = flip % valid.len();
                valid[i] = valid[i].wrapping_add(1 + (i as u8 % 254));
                try_all(&valid);
            }
        }
    }
}
