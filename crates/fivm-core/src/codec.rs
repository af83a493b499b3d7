//! Compact self-describing binary codec for the durability layer.
//!
//! Every type that crosses the process boundary — logged deltas,
//! checkpointed view relations, ring payloads — implements [`Codec`]:
//! `encode` appends a self-describing byte representation to a buffer,
//! `decode` consumes it back off a byte cursor. The format is designed
//! for the write-ahead log in `fivm-durability` (see `docs/wal-format.md`
//! at the repo root), so two properties are non-negotiable:
//!
//! 1. **Round-trip fidelity**: `decode(encode(x)) == x` under the type's
//!    own equality. For [`Value::Double`] the raw IEEE-754 bits are
//!    stored (`f64::to_bits`), so NaN payloads survive bit-exactly and
//!    `-0.0` keeps its sign bit on disk even though [`Value`]'s equality
//!    normalizes `-0.0 == 0.0`; decoding never invents a different bit
//!    pattern than was written.
//! 2. **Corruption safety**: `decode` on arbitrary bytes must return
//!    [`CodecError`] — never panic, never abort. In particular, decoded
//!    lengths are validated against the number of bytes actually
//!    remaining *before* any allocation, so a corrupted length field
//!    cannot trigger a huge `Vec::with_capacity`, and invariants that
//!    constructors assert (duplicate schema variables, factored-delta
//!    schema overlap, tuple/schema arity mismatch) are re-checked and
//!    reported as errors instead of reaching a panicking constructor.
//!
//! All integers are little-endian. Lengths and counts are `u32`. There
//! is no versioning here — the log segment header owns the format
//! version for a whole file.

use crate::hash::FxHashMap;
use crate::relation::Relation;
use crate::ring::cofactor::{block_len, Cofactor};
use crate::ring::degree::DegreeRing;
use crate::ring::relational::RelPayload;
use crate::ring::Semiring;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::update::Delta;
use crate::value::Value;
use std::fmt;

/// Decoding failure. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete (short read).
    Eof,
    /// An enum tag byte had no defined meaning.
    BadTag { what: &'static str, tag: u8 },
    /// A length/count field exceeds what the remaining input could hold.
    BadLength { what: &'static str, len: u64 },
    /// Decoded bytes violate a structural invariant of the target type.
    Invalid { what: &'static str },
    /// A string field was not valid UTF-8.
    Utf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Eof => write!(f, "unexpected end of input"),
            CodecError::BadTag { what, tag } => write!(f, "invalid tag {tag} for {what}"),
            CodecError::BadLength { what, len } => {
                write!(f, "length {len} for {what} exceeds remaining input")
            }
            CodecError::Invalid { what } => write!(f, "decoded {what} violates invariants"),
            CodecError::Utf8 => write!(f, "invalid UTF-8 in string field"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Types with a self-describing binary encoding.
pub trait Codec: Sized {
    /// Append the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Consume the encoding of one value from the front of `input`.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;
}

// ---------------------------------------------------------------------
// Cursor primitives
// ---------------------------------------------------------------------

/// Read `n` raw bytes off the cursor.
pub fn take_bytes<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if input.len() < n {
        return Err(CodecError::Eof);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

/// Read one byte.
pub fn take_u8(input: &mut &[u8]) -> Result<u8, CodecError> {
    Ok(take_bytes(input, 1)?[0])
}

/// Read a little-endian `u32`.
pub fn take_u32(input: &mut &[u8]) -> Result<u32, CodecError> {
    let b = take_bytes(input, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Read a little-endian `u64`.
pub fn take_u64(input: &mut &[u8]) -> Result<u64, CodecError> {
    let b = take_bytes(input, 8)?;
    Ok(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

/// Read a `u32` count and sanity-check it: the remaining input must hold
/// at least `count * min_elem_bytes` bytes, so corrupt counts fail here
/// instead of driving a giant allocation downstream.
pub fn take_count(
    input: &mut &[u8],
    what: &'static str,
    min_elem_bytes: usize,
) -> Result<usize, CodecError> {
    let n = take_u32(input)? as usize;
    if n.checked_mul(min_elem_bytes)
        .is_none_or(|need| need > input.len())
    {
        return Err(CodecError::BadLength {
            what,
            len: n as u64,
        });
    }
    Ok(n)
}

/// Append a `u32` length prefix, erroring at encode time would be too
/// late — in-memory collections are bounded well below `u32::MAX` in
/// this engine, so a plain cast with a debug assert suffices.
#[inline]
pub fn put_count(out: &mut Vec<u8>, n: usize) {
    debug_assert!(n <= u32::MAX as usize, "collection too large for codec");
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

// ---------------------------------------------------------------------
// Scalars
// ---------------------------------------------------------------------

impl Codec for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(take_u64(input)? as i64)
    }
}

impl Codec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        take_u64(input)
    }
}

impl Codec for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        take_u32(input)
    }
}

/// Raw IEEE-754 bits: NaN payloads and signed zeros round-trip exactly.
impl Codec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(f64::from_bits(take_u64(input)?))
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_count(out, self.len());
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let n = take_count(input, "string", 1)?;
        let bytes = take_bytes(input, n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Utf8)
    }
}

// ---------------------------------------------------------------------
// Key space: Value, Tuple, Schema
// ---------------------------------------------------------------------

const VAL_INT: u8 = 0;
const VAL_DOUBLE: u8 = 1;
const VAL_SYM: u8 = 2;

impl Codec for Value {
    // One `extend_from_slice` per value, not one per field: this runs
    // once per tuple value per logged update, and the WAL's logging
    // overhead budget is counted in nanoseconds.
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(i) => {
                let mut b = [VAL_INT; 9];
                b[1..].copy_from_slice(&i.to_le_bytes());
                out.extend_from_slice(&b);
            }
            Value::Double(d) => {
                let mut b = [VAL_DOUBLE; 9];
                b[1..].copy_from_slice(&d.to_bits().to_le_bytes());
                out.extend_from_slice(&b);
            }
            Value::Sym(s) => {
                let mut b = [VAL_SYM; 5];
                b[1..].copy_from_slice(&s.to_le_bytes());
                out.extend_from_slice(&b);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match take_u8(input)? {
            VAL_INT => Ok(Value::Int(i64::decode(input)?)),
            VAL_DOUBLE => Ok(Value::Double(f64::decode(input)?)),
            VAL_SYM => Ok(Value::Sym(u32::decode(input)?)),
            tag => Err(CodecError::BadTag { what: "Value", tag }),
        }
    }
}

/// `[arity: u32][values…]`. The inline/spilled split is an in-memory
/// representation detail — arity alone determines it on decode, so a
/// spilled 2-tuple written by tests decodes to the (canonical) inline
/// form, which is equal under `Tuple`'s value-based equality.
impl Codec for Tuple {
    fn encode(&self, out: &mut Vec<u8>) {
        put_count(out, self.len());
        for v in self.values() {
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        // Smallest Value encoding is 5 bytes (tag + u32 sym id).
        let n = take_count(input, "tuple arity", 5)?;
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(Value::decode(input)?);
        }
        Ok(Tuple::new(vals))
    }
}

impl Codec for Schema {
    fn encode(&self, out: &mut Vec<u8>) {
        put_count(out, self.len());
        for v in self.vars() {
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let n = take_count(input, "schema arity", 4)?;
        let mut vars = Vec::with_capacity(n);
        for _ in 0..n {
            vars.push(u32::decode(input)?);
        }
        // Schema::new panics on duplicate variables; re-check first.
        let mut seen = vars.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != vars.len() {
            return Err(CodecError::Invalid {
                what: "schema (duplicate variables)",
            });
        }
        Ok(Schema::new(vars))
    }
}

// ---------------------------------------------------------------------
// Relations and deltas
// ---------------------------------------------------------------------

/// `[schema][n: u32][(tuple, payload)…]`. Decode re-validates that every
/// tuple matches the schema arity.
impl<R: Semiring + Codec> Codec for Relation<R> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.schema().encode(out);
        put_count(out, self.len());
        for (t, p) in self.iter() {
            t.encode(out);
            p.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let schema = Schema::decode(input)?;
        // Minimum entry: empty tuple (4 bytes) + 1-byte payload floor.
        let n = take_count(input, "relation size", 5)?;
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            let t = Tuple::decode(input)?;
            if t.len() != schema.len() {
                return Err(CodecError::Invalid {
                    what: "relation (tuple/schema arity mismatch)",
                });
            }
            let p = R::decode(input)?;
            pairs.push((t, p));
        }
        Ok(Relation::from_pairs(schema, pairs))
    }
}

const DELTA_FLAT: u8 = 0;
const DELTA_FACTORED: u8 = 1;

impl<R: Semiring + Codec> Codec for Delta<R> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Delta::Flat(r) => {
                out.push(DELTA_FLAT);
                r.encode(out);
            }
            Delta::Factored(fs) => {
                out.push(DELTA_FACTORED);
                put_count(out, fs.len());
                for f in fs {
                    f.encode(out);
                }
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match take_u8(input)? {
            DELTA_FLAT => Ok(Delta::Flat(Relation::decode(input)?)),
            DELTA_FACTORED => {
                // Minimum factor: empty schema (4) + zero count (4).
                let n = take_count(input, "factor count", 8)?;
                if n == 0 {
                    return Err(CodecError::Invalid {
                        what: "factored delta (no factors)",
                    });
                }
                let mut fs: Vec<Relation<R>> = Vec::with_capacity(n);
                for _ in 0..n {
                    fs.push(Relation::decode(input)?);
                }
                // Delta::factored asserts disjointness; re-check here so
                // corrupt bytes surface as an error, not a panic.
                for i in 0..fs.len() {
                    for j in (i + 1)..fs.len() {
                        if !fs[i].schema().disjoint(fs[j].schema()) {
                            return Err(CodecError::Invalid {
                                what: "factored delta (overlapping factor schemas)",
                            });
                        }
                    }
                }
                Ok(Delta::Factored(fs))
            }
            tag => Err(CodecError::BadTag { what: "Delta", tag }),
        }
    }
}

// ---------------------------------------------------------------------
// Ring payloads used by the bench suites
// ---------------------------------------------------------------------

/// A decoded cofactor support of up to this many variables is always
/// accepted (the paper's widest schema has 43). A wider one must have its
/// dense block fit in the bytes the input held, so corrupt product keys
/// naming many distinct variables cannot drive a quadratic allocation.
const COFACTOR_FREE_SUPPORT: usize = 256;

/// Appends `[n: u32][(key, value)…]` for the entries whose value is not
/// exactly zero.
#[inline]
fn put_nonzero<K: Codec>(out: &mut Vec<u8>, entries: impl Iterator<Item = (K, f64)>) {
    let at = out.len();
    put_count(out, 0);
    let mut n = 0;
    for (k, v) in entries {
        if v != 0.0 {
            k.encode(out);
            v.encode(out);
            n += 1;
        }
    }
    out[at..at + 4].copy_from_slice(&(n as u32).to_le_bytes());
}

/// `[count: i64][n: u32][(i: u32, SUM(x_i))…][n: u32][(i << 32 | j: u64,
/// SUM(x_i·x_j))…]`: the entries that are not exactly zero, sums by
/// variable and products (`i ≤ j`) by key, both strictly increasing. The
/// support is not written; decoding takes the variables the entries
/// name, which is equal under `Cofactor`'s semantic equality.
impl Codec for Cofactor {
    fn encode(&self, out: &mut Vec<u8>) {
        self.count.encode(out);
        put_nonzero(out, self.sums());
        put_nonzero(
            out,
            self.prods()
                .map(|(i, j, v)| ((u64::from(i) << 32) | u64::from(j), v)),
        );
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let held = input.len();
        let count = i64::decode(input)?;
        let ns = take_count(input, "cofactor sums", 12)?;
        let mut sums: Vec<(u32, f64)> = Vec::with_capacity(ns);
        for _ in 0..ns {
            let (i, v) = (u32::decode(input)?, f64::decode(input)?);
            if sums.last().is_some_and(|&(prev, _)| prev >= i) {
                return Err(CodecError::Invalid {
                    what: "cofactor (sum ids not strictly increasing)",
                });
            }
            sums.push((i, v));
        }
        let np = take_count(input, "cofactor prods", 16)?;
        let mut prods: Vec<(u32, u32, f64)> = Vec::with_capacity(np);
        for _ in 0..np {
            let (key, v) = (u64::decode(input)?, f64::decode(input)?);
            let (i, j) = ((key >> 32) as u32, key as u32);
            if i > j {
                return Err(CodecError::Invalid {
                    what: "cofactor (product key with i > j)",
                });
            }
            if prods.last().is_some_and(|&(pi, pj, _)| (pi, pj) >= (i, j)) {
                return Err(CodecError::Invalid {
                    what: "cofactor (product keys not strictly increasing)",
                });
            }
            prods.push((i, j, v));
        }
        let mut vars: Vec<u32> = sums
            .iter()
            .map(|e| e.0)
            .chain(prods.iter().flat_map(|e| [e.0, e.1]))
            .collect();
        vars.sort_unstable();
        vars.dedup();
        if vars.len() > COFACTOR_FREE_SUPPORT
            && block_len(vars.len()) * std::mem::size_of::<f64>() > held
        {
            return Err(CodecError::Invalid {
                what: "cofactor (support too large for its input)",
            });
        }
        Ok(Cofactor::from_entries(count, vars.into(), &sums, &prods))
    }
}

impl Codec for RelPayload {
    fn encode(&self, out: &mut Vec<u8>) {
        self.schema.encode(out);
        put_count(out, self.data.len());
        for (t, c) in &self.data {
            t.encode(out);
            c.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let schema = Schema::decode(input)?;
        let n = take_count(input, "relational payload size", 12)?;
        let mut data = FxHashMap::default();
        data.reserve(n);
        for _ in 0..n {
            let t = Tuple::decode(input)?;
            if t.len() != schema.len() {
                return Err(CodecError::Invalid {
                    what: "relational payload (tuple/schema arity mismatch)",
                });
            }
            let c = i64::decode(input)?;
            data.insert(t, c);
        }
        Ok(RelPayload { schema, data })
    }
}

impl Codec for DegreeRing {
    fn encode(&self, out: &mut Vec<u8>) {
        put_count(out, self.aggs.len());
        for ((a, b), v) in &self.aggs {
            a.encode(out);
            b.encode(out);
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let n = take_count(input, "degree-ring size", 16)?;
        let mut aggs = FxHashMap::default();
        aggs.reserve(n);
        for _ in 0..n {
            let a = u32::decode(input)?;
            let b = u32::decode(input)?;
            let v = f64::decode(input)?;
            aggs.insert((a, b), v);
        }
        Ok(DegreeRing { aggs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Ring;
    use crate::tuple;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(x: &T) {
        let mut buf = Vec::new();
        x.encode(&mut buf);
        let mut cursor = buf.as_slice();
        let back = T::decode(&mut cursor).expect("decode");
        assert_eq!(&back, x);
        assert!(cursor.is_empty(), "decode consumed exactly the encoding");
    }

    #[test]
    fn value_round_trips() {
        round_trip(&Value::Int(-42));
        round_trip(&Value::Int(i64::MIN));
        round_trip(&Value::Double(3.25));
        round_trip(&Value::Sym(7));
    }

    #[test]
    fn double_bits_survive() {
        // NaN payload preserved bit-exactly.
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut buf = Vec::new();
        Value::Double(weird).encode(&mut buf);
        let back = Value::decode(&mut buf.as_slice()).unwrap();
        match back {
            Value::Double(d) => assert_eq!(d.to_bits(), weird.to_bits()),
            other => panic!("wrong variant {other:?}"),
        }
        // -0.0 keeps its sign bit on disk even though Value eq folds it.
        let mut buf = Vec::new();
        Value::Double(-0.0).encode(&mut buf);
        let back = Value::decode(&mut buf.as_slice()).unwrap();
        match back {
            Value::Double(d) => assert!(d.is_sign_negative()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn tuples_inline_and_spilled() {
        round_trip(&Tuple::unit());
        round_trip(&tuple![1, 2, 3]);
        round_trip(&Tuple::new(vec![
            Value::Int(1),
            Value::Sym(2),
            Value::Double(0.5),
            Value::Int(4),
            Value::Int(5),
        ]));
        // Spilled low-arity tuple decodes to the equal inline form.
        let spilled = Tuple::spilled(vec![Value::Int(9), Value::Int(8)]);
        let mut buf = Vec::new();
        spilled.encode(&mut buf);
        let back = Tuple::decode(&mut buf.as_slice()).unwrap();
        assert_eq!(back, spilled);
        assert!(back.is_inline());
    }

    #[test]
    fn relation_and_delta_round_trip() {
        let r = Relation::from_pairs(
            Schema::new(vec![0, 1]),
            [(tuple![1, 2], 3i64), (tuple![4, 5], -1i64)],
        );
        round_trip(&r);
        let mut buf = Vec::new();
        let d = Delta::Flat(r.clone());
        d.encode(&mut buf);
        match Delta::<i64>::decode(&mut buf.as_slice()).unwrap() {
            Delta::Flat(back) => assert_eq!(back, r),
            other => panic!("wrong variant {other:?}"),
        }

        let f = Delta::factored(vec![
            Relation::from_pairs(Schema::new(vec![0]), [(tuple![1], 2i64)]),
            Relation::from_pairs(Schema::new(vec![1]), [(tuple![5], 3i64)]),
        ]);
        let mut buf = Vec::new();
        f.encode(&mut buf);
        match Delta::<i64>::decode(&mut buf.as_slice()).unwrap() {
            Delta::Factored(fs) => assert_eq!(fs.len(), 2),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        // Truncated value.
        assert!(Value::decode(&mut &[VAL_INT, 1, 2][..]).is_err());
        // Bad tag.
        assert!(Value::decode(&mut &[9u8, 0, 0, 0, 0][..]).is_err());
        // Insane tuple arity (length guard, no allocation blow-up).
        let mut buf = Vec::new();
        put_count(&mut buf, 0x00ff_ffff);
        assert!(matches!(
            Tuple::decode(&mut buf.as_slice()),
            Err(CodecError::BadLength { .. })
        ));
        // Duplicate schema vars.
        let mut buf = Vec::new();
        Schema::new(vec![0, 1]).encode(&mut buf);
        // Patch second var to duplicate the first.
        let n = buf.len();
        buf.copy_within(4..8, n - 4);
        assert!(matches!(
            Schema::decode(&mut buf.as_slice()),
            Err(CodecError::Invalid { .. })
        ));
        // Overlapping factored schemas.
        let a = Relation::from_pairs(Schema::new(vec![0]), [(tuple![1], 1i64)]);
        let mut buf = vec![DELTA_FACTORED];
        put_count(&mut buf, 2);
        a.encode(&mut buf);
        a.encode(&mut buf);
        assert!(matches!(
            Delta::<i64>::decode(&mut buf.as_slice()),
            Err(CodecError::Invalid { .. })
        ));
    }

    /// Example 6.3's product `(2, s_2..4, Q over {2,3,4})`.
    fn example_6_3() -> Cofactor {
        let vt = Cofactor::lift(3, 1.0).add(&Cofactor::lift(3, 2.0));
        vt.mul(&Cofactor::lift(4, 5.0))
            .mul(&Cofactor::lift(2, 10.0))
    }

    /// The bytes the sparse pair-list encoder wrote for Example 6.3's
    /// product: logs and checkpoints written before the block-dense
    /// layout must stay readable, and new ones must be the same bytes.
    const EXAMPLE_6_3_HEX: &str = "0200000000000000\
        03000000\
        02000000 0000000000003440 03000000 0000000000000840 04000000 0000000000002440\
        06000000\
        0200000002000000 0000000000006940 0300000002000000 0000000000003e40\
        0400000002000000 0000000000005940 0300000003000000 0000000000001440\
        0400000003000000 0000000000002e40 0400000004000000 0000000000004940";

    #[test]
    fn cofactor_golden_bytes() {
        let golden: Vec<u8> = EXAMPLE_6_3_HEX
            .split_whitespace()
            .collect::<String>()
            .as_bytes()
            .chunks(2)
            .map(|h| u8::from_str_radix(std::str::from_utf8(h).unwrap(), 16).unwrap())
            .collect();
        let mut buf = Vec::new();
        example_6_3().encode(&mut buf);
        assert_eq!(buf, golden);
        let mut cursor = golden.as_slice();
        assert_eq!(Cofactor::decode(&mut cursor).unwrap(), example_6_3());
        assert!(cursor.is_empty());
        // Zero values are not written, and decode to the same payload.
        let padded = example_6_3()
            .add(&Cofactor::lift(0, 1.0))
            .sub(&Cofactor::lift(0, 1.0));
        let mut buf = Vec::new();
        padded.encode(&mut buf);
        assert_eq!(buf, golden);
    }

    #[test]
    fn cofactor_rejects_noncanonical_entries() {
        let invalid = |bytes: &[u8]| {
            matches!(
                Cofactor::decode(&mut &bytes[..]),
                Err(CodecError::Invalid { .. })
            )
        };
        let encode = |sums: &[(u32, f64)], prods: &[(u64, f64)]| {
            let mut buf = Vec::new();
            1i64.encode(&mut buf);
            put_count(&mut buf, sums.len());
            for (i, v) in sums {
                i.encode(&mut buf);
                v.encode(&mut buf);
            }
            put_count(&mut buf, prods.len());
            for (k, v) in prods {
                k.encode(&mut buf);
                v.encode(&mut buf);
            }
            buf
        };
        let key = |i: u64, j: u64| (i << 32) | j;
        assert!(!invalid(&encode(
            &[(1, 1.0), (2, 1.0)],
            &[(key(1, 2), 1.0)]
        )));
        assert!(invalid(&encode(&[(2, 1.0), (1, 1.0)], &[])));
        assert!(invalid(&encode(&[(1, 1.0), (1, 1.0)], &[])));
        assert!(invalid(&encode(&[], &[(key(2, 1), 1.0)])));
        assert!(invalid(&encode(&[], &[(key(1, 2), 1.0), (key(1, 1), 1.0)])));
        assert!(invalid(&encode(&[], &[(key(1, 2), 1.0), (key(1, 2), 1.0)])));
        // 150 products over 300 distinct variables: a 45 450-slot block
        // from 2.4 KB of input.
        let wide: Vec<(u64, f64)> = (0..150).map(|i| (key(2 * i, 2 * i + 1), 1.0)).collect();
        assert!(invalid(&encode(&[], &wide)));
        // The same support is accepted when the input could hold it.
        let mut padded = encode(&[], &wide);
        padded.resize(block_len(300) * 8, 0);
        assert!(!invalid(&padded));
    }
}
