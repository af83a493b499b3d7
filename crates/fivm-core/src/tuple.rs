//! Tuples — the keys of F-IVM relations.
//!
//! # Representation
//!
//! Single-tuple delta propagation (paper §4) costs a handful of hash
//! probes and ring operations per view-tree node, so the constant
//! factor of key construction *is* the engine's runtime. `Tuple`
//! therefore uses a small-size-optimized layout:
//!
//! * **Inline**: tuples of arity ≤ [`INLINE_CAP`] (= 3, covering every
//!   view key of the paper's benchmark queries) store their values
//!   directly in the struct — 48 bytes of 16-byte [`Value`]s (string
//!   values are interned symbols, so the whole inline tuple is ≤ 64
//!   bytes; statically asserted). Constructing, cloning and dropping
//!   them never touches the heap.
//! * **Spilled**: wider tuples store their values in a shared
//!   `Arc<[Value]>`; cloning is a reference-count bump.
//!
//! Every tuple also caches the 64-bit Fx hash of its value sequence at
//! construction time. Hashing a tuple into any hash map is a single
//! `write_u64`, re-probing never re-hashes the values, and
//! [`Tuple::concat`] extends the cached hash incrementally (Fx hashing
//! is a left fold over the values, so `hash(a ⧺ b)` resumes from
//! `hash(a)`).
//!
//! The two representations are indistinguishable through `Eq`, `Ord`,
//! `Hash` and every accessor: equality and ordering compare value
//! sequences, never representation. Property tests assert this.
//!
//! For allocation-free *probing* of maps keyed by `Tuple` with keys
//! that are projections or concatenations of existing tuples, see
//! [`crate::key`].

use crate::hash::FxHasher;
use crate::value::Value;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Maximum arity stored inline (no heap allocation).
pub const INLINE_CAP: usize = 3;

/// The inline representation rides on `Value` being 16 bytes (see
/// `value.rs`): 48 bytes of inline values + length + discriminant + the
/// cached hash must fit one cache-line-friendly 64-byte struct. A
/// future `Value` variant that re-inflates the union (e.g. a fat
/// pointer) would push this past 64 and fail here at compile time.
const _: () = assert!(std::mem::size_of::<Tuple>() <= 64);

/// Fx-hash a sequence of values, resuming from a previous hash state.
///
/// The empty sequence hashes to the initial state, so
/// `hash_values(hash_values(0, a), b) == hash_values(0, a ⧺ b)`.
#[inline]
pub(crate) fn hash_values<'a>(state: u64, vals: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut h = FxHasher::from_state(state);
    for v in vals {
        v.hash(&mut h);
    }
    h.finish()
}

#[derive(Clone)]
enum Repr {
    /// `len` live values in `vals[..len]`; the tail is padding
    /// (`Value::Int(0)`) so no `unsafe` is needed.
    Inline { len: u8, vals: [Value; INLINE_CAP] },
    /// Shared storage for arities above [`INLINE_CAP`].
    Spilled(Arc<[Value]>),
}

const PAD: Value = Value::Int(0);

/// An immutable tuple of [`Value`]s over some schema.
///
/// The schema itself (which variable each position belongs to) is carried
/// by the enclosing [`crate::Relation`] or view; a `Tuple` is just the
/// ordered values. The empty tuple `()` is the key of scalar (no group-by)
/// query results (paper §2). See the [module docs](self) for the
/// representation.
#[derive(Clone)]
pub struct Tuple {
    hash: u64,
    repr: Repr,
}

impl Tuple {
    fn from_inline(len: usize, vals: [Value; INLINE_CAP]) -> Self {
        debug_assert!(len <= INLINE_CAP);
        Tuple {
            hash: hash_values(0, &vals[..len]),
            repr: Repr::Inline {
                len: len as u8,
                vals,
            },
        }
    }

    /// The empty tuple `()`.
    pub fn unit() -> Self {
        Tuple::from_inline(0, [PAD, PAD, PAD])
    }

    /// Build a tuple from values.
    pub fn new(vals: Vec<Value>) -> Self {
        if vals.len() <= INLINE_CAP {
            let mut it = vals.into_iter();
            let mut inline = [PAD, PAD, PAD];
            let mut len = 0;
            for slot in &mut inline {
                match it.next() {
                    Some(v) => {
                        *slot = v;
                        len += 1;
                    }
                    None => break,
                }
            }
            Tuple::from_inline(len, inline)
        } else {
            let spilled: Arc<[Value]> = vals.into();
            Tuple {
                hash: hash_values(0, spilled.iter()),
                repr: Repr::Spilled(spilled),
            }
        }
    }

    /// Build a tuple forcing the heap (spilled) representation
    /// regardless of arity. Exists so tests can assert that the two
    /// representations are observably identical; production paths
    /// should use [`Tuple::new`].
    pub fn spilled(vals: Vec<Value>) -> Self {
        let spilled: Arc<[Value]> = vals.into();
        Tuple {
            hash: hash_values(0, spilled.iter()),
            repr: Repr::Spilled(spilled),
        }
    }

    /// True iff this tuple stores its values inline (no heap).
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// Single-value tuple.
    pub fn single(v: impl Into<Value>) -> Self {
        Tuple::from_inline(1, [v.into(), PAD, PAD])
    }

    /// Two-value tuple.
    pub fn pair(a: impl Into<Value>, b: impl Into<Value>) -> Self {
        Tuple::from_inline(2, [a.into(), b.into(), PAD])
    }

    /// The cached Fx hash of the value sequence.
    #[inline]
    pub fn cached_hash(&self) -> u64 {
        self.hash
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Spilled(v) => v.len(),
        }
    }

    /// True iff this is the empty tuple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.values()[i]
    }

    /// All values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        match &self.repr {
            Repr::Inline { len, vals } => &vals[..usize::from(*len)],
            Repr::Spilled(v) => v,
        }
    }

    /// Iterate over the values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.values().iter()
    }

    /// Catalog-aware lexicographic order: like [`Ord`], but each value
    /// compares via [`Value::cmp_resolved`], so symbol columns sort by
    /// their resolved strings (dictionary order) instead of intern-id
    /// order. User-facing sorted readback routes through this; the hot
    /// path keeps the id-based [`Ord`].
    pub fn cmp_resolved(&self, other: &Tuple, catalog: &crate::Catalog) -> std::cmp::Ordering {
        for (a, b) in self.values().iter().zip(other.values()) {
            let ord = a.cmp_resolved(b, catalog);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        self.len().cmp(&other.len())
    }

    /// Lay out `len` values inline or spilled, hash not yet computed.
    #[inline]
    fn assemble(len: usize, mut vals: impl Iterator<Item = Value>) -> Repr {
        if len <= INLINE_CAP {
            let mut inline = [PAD, PAD, PAD];
            for slot in inline.iter_mut().take(len) {
                *slot = vals.next().expect("length lied");
            }
            Repr::Inline {
                len: len as u8,
                vals: inline,
            }
        } else {
            Repr::Spilled(vals.collect())
        }
    }

    /// Build a tuple from an iterator with a known exact length,
    /// staying inline when possible.
    #[inline]
    pub(crate) fn build(len: usize, vals: impl Iterator<Item = Value>) -> Tuple {
        let repr = Tuple::assemble(len, vals);
        let hash = match &repr {
            Repr::Inline { len, vals } => hash_values(0, &vals[..usize::from(*len)]),
            Repr::Spilled(v) => hash_values(0, v.iter()),
        };
        Tuple { hash, repr }
    }

    /// Project onto the given positions (π in the paper §2); positions may
    /// repeat or reorder. Allocation-free for output arity ≤
    /// [`INLINE_CAP`].
    pub fn project(&self, positions: &[usize]) -> Tuple {
        let vals = self.values();
        Tuple::build(positions.len(), positions.iter().map(|&p| vals[p].clone()))
    }

    /// Project the virtual concatenation `self ⧺ other` onto
    /// `positions` (indices `< self.len()` select from `self`, the rest
    /// from `other`) without materializing the concatenation. This is
    /// the factored-delta flatten step: a product of two factors lands
    /// directly in a store's key order. Allocation-free for output
    /// arity ≤ [`INLINE_CAP`], like [`Tuple::project`].
    pub fn concat_project(&self, other: &Tuple, positions: &[usize]) -> Tuple {
        let (lv, rv) = (self.values(), other.values());
        Tuple::build(
            positions.len(),
            positions.iter().map(|&p| {
                if p < lv.len() {
                    lv[p].clone()
                } else {
                    rv[p - lv.len()].clone()
                }
            }),
        )
    }

    /// Concatenate two tuples. The cached hash of `self` is extended
    /// with `other`'s values rather than recomputed from scratch.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        self.concat_projected_values(other.values().iter().cloned(), other.len())
    }

    /// Concatenate, taking only `positions` from `other`.
    pub fn concat_projected(&self, other: &Tuple, positions: &[usize]) -> Tuple {
        let ov = other.values();
        self.concat_projected_values(positions.iter().map(|&p| ov[p].clone()), positions.len())
    }

    #[inline]
    fn concat_projected_values(
        &self,
        extra: impl Iterator<Item = Value>,
        extra_len: usize,
    ) -> Tuple {
        let len = self.len() + extra_len;
        let repr = Tuple::assemble(len, self.values().iter().cloned().chain(extra));
        // Fx hashing folds left-to-right, so the prefix's cached hash
        // is the resume state for hashing just the appended suffix.
        let suffix = match &repr {
            Repr::Inline { len, vals } => &vals[self.len()..usize::from(*len)],
            Repr::Spilled(v) => &v[self.len()..],
        };
        Tuple {
            hash: hash_values(self.hash, suffix),
            repr,
        }
    }

    /// Approximate in-memory footprint in bytes (for memory accounting).
    /// Every [`Value`] is inline (symbols' string storage lives in the
    /// catalog, shared), so only spilled value storage adds heap bytes.
    pub fn approx_bytes(&self) -> usize {
        let heap: usize = match &self.repr {
            Repr::Inline { .. } => 0,
            Repr::Spilled(v) => v.len() * std::mem::size_of::<Value>(),
        };
        std::mem::size_of::<Tuple>() + heap
    }
}

impl PartialEq for Tuple {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // The cached hash rejects almost all non-equal keys in one
        // comparison; representation never matters.
        self.hash == other.hash && self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl Hash for Tuple {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.values().cmp(other.values())
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple::new(iter.into_iter().collect())
    }
}

/// Convenience macro for building tuples in tests and examples:
/// `tuple![1, 2.5]`. String values have no `From<&str>` conversion —
/// intern them through the catalog (`catalog.sym("x")`) and pass the
/// resulting [`Value`] explicitly.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_tuple() {
        let t = Tuple::unit();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.to_string(), "()");
        assert!(t.is_inline());
    }

    #[test]
    fn macro_and_access() {
        let t = Tuple::new(vec![Value::Int(1), Value::Double(2.5), Value::Sym(7)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(0), &Value::Int(1));
        assert_eq!(t.get(1), &Value::Double(2.5));
        assert_eq!(t.get(2), &Value::Sym(7));
        assert_eq!(tuple![1, 2.5].get(0), &Value::Int(1));
    }

    #[test]
    fn inline_boundary() {
        assert!(tuple![1, 2, 3].is_inline());
        assert!(!tuple![1, 2, 3, 4].is_inline());
        assert_eq!(tuple![1, 2, 3, 4].len(), 4);
        assert_eq!(*tuple![1, 2, 3, 4].get(3), Value::Int(4));
    }

    #[test]
    fn project_reorders_and_repeats() {
        let t = tuple![10, 20, 30];
        assert_eq!(t.project(&[2, 0]), tuple![30, 10]);
        assert_eq!(t.project(&[1, 1]), tuple![20, 20]);
        assert_eq!(t.project(&[]), Tuple::unit());
    }

    #[test]
    fn project_from_spilled() {
        let t = tuple![10, 20, 30, 40, 50];
        assert!(!t.is_inline());
        let p = t.project(&[4, 0]);
        assert!(p.is_inline());
        assert_eq!(p, tuple![50, 10]);
        let wide = t.project(&[0, 1, 2, 3]);
        assert!(!wide.is_inline());
        assert_eq!(wide, tuple![10, 20, 30, 40]);
    }

    #[test]
    fn concat() {
        let a = tuple![1, 2];
        let b = tuple![3];
        assert_eq!(a.concat(&b), tuple![1, 2, 3]);
        assert_eq!(b.concat(&a), tuple![3, 1, 2]);
        assert_eq!(a.concat(&Tuple::unit()), a);
    }

    #[test]
    fn concat_crossing_inline_boundary() {
        let a = tuple![1, 2];
        let b = tuple![3, 4, 5];
        let ab = a.concat(&b);
        assert!(!ab.is_inline());
        assert_eq!(ab, tuple![1, 2, 3, 4, 5]);
        assert_eq!(ab.cached_hash(), tuple![1, 2, 3, 4, 5].cached_hash());
    }

    #[test]
    fn concat_projected() {
        let a = tuple![1];
        let b = tuple![7, 8, 9];
        assert_eq!(a.concat_projected(&b, &[2, 0]), tuple![1, 9, 7]);
    }

    #[test]
    fn concat_project_agrees_with_eager_concat_then_project() {
        let a = tuple![1, 2];
        let b = tuple![7, 8, 9];
        for positions in [&[0usize, 2][..], &[4, 0], &[3, 1, 2], &[], &[1, 1, 4, 4, 0]] {
            let eager = a.concat(&b).project(positions);
            let fused = a.concat_project(&b, positions);
            assert_eq!(fused, eager, "{positions:?}");
            assert_eq!(fused.cached_hash(), eager.cached_hash(), "{positions:?}");
        }
        // unit left operand: everything selects from the right
        assert_eq!(Tuple::unit().concat_project(&b, &[2, 0]), tuple![9, 7]);
    }

    #[test]
    fn equality_and_hash_in_map() {
        use crate::hash::FxHashMap;
        let mut m: FxHashMap<Tuple, i64> = FxHashMap::default();
        m.insert(tuple![1, 2], 5);
        assert_eq!(m.get(&tuple![1, 2]), Some(&5));
        assert_eq!(m.get(&tuple![2, 1]), None);
    }

    #[test]
    fn spilled_indistinguishable_from_inline() {
        let inline = tuple![1, 2];
        let spilled = Tuple::spilled(vec![Value::Int(1), Value::Int(2)]);
        assert!(inline.is_inline());
        assert!(!spilled.is_inline());
        assert_eq!(inline, spilled);
        assert_eq!(inline.cached_hash(), spilled.cached_hash());
        assert_eq!(inline.cmp(&spilled), std::cmp::Ordering::Equal);
        use crate::hash::FxHashMap;
        let mut m: FxHashMap<Tuple, i64> = FxHashMap::default();
        m.insert(spilled, 9);
        assert_eq!(m.get(&inline), Some(&9));
    }

    #[test]
    fn cached_hash_matches_fresh_construction() {
        let t = tuple![5, 6, 7];
        let projected = t.project(&[1, 2]);
        assert_eq!(projected.cached_hash(), tuple![6, 7].cached_hash());
        let cat = t.concat(&tuple![8]);
        assert_eq!(cat.cached_hash(), tuple![5, 6, 7, 8].cached_hash());
    }
}
