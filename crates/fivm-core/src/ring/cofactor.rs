//! The degree-*m* matrix ring for regression gradients (Definition 6.2).
//!
//! Elements are triples `(c, s, Q)` where `c ∈ Z` counts tuples, `s` is
//! the vector of per-variable sums and `Q` the (symmetric) matrix of sums
//! of products of variable pairs. The ring product shares computation
//! across the quadratically many aggregates:
//!
//! ```text
//! a + b = (ca + cb,  sa + sb,  Qa + Qb)
//! a * b = (ca·cb,  cb·sa + ca·sb,  cb·Qa + ca·Qb + sa·sbᵀ + sb·saᵀ)
//! ```
//!
//! ## Layout: one dense block over a support
//!
//! A [`Cofactor`] stores its *support* — the sorted variables it covers —
//! and one `f64` block over that support: the `k` sums, then the
//! `k(k+1)/2` upper-triangle products, row by row. Variables outside the
//! support read as `0.0`.
//!
//! This is §6.2's rule "store blocks of matrices with non-zero values and
//! assemble larger matrices towards the root". Every payload of one view
//! covers the same variables — those lifted in the view's subtree — so a
//! view holds blocks of one shape, and the product of two children's
//! payloads assembles the parent's larger block. Hence:
//!
//! * `⊕` on equal supports, the accumulator and store-merge case, is an
//!   element-wise add in place with no allocation. Unequal supports widen
//!   to their union, which keeps the ring total for any operands.
//! * `⊗` merges the two supports and fills the result block directly
//!   through index maps: no sort and, while the two supports total at
//!   most 64 variables, no heap scratch besides the result.
//!
//! Lifting (paper §6.2): for variable index `j` and value `x`,
//! `g_j(x) = (1, s = x·e_j, Q = x²·e_j e_jᵀ)` — see [`Cofactor::lift`].

use super::{Ring, Semiring};
use crate::value::Value;

/// Operand pairs whose supports total at most this many variables build
/// their index maps on the stack; wider ones use the heap.
const INLINE_VARS: usize = 64;

/// Length of the block over a support of `k` variables.
#[inline]
pub(crate) fn block_len(k: usize) -> usize {
    k + k * (k + 1) / 2
}

/// Offset of row `u` of the product triangle in a `k`-variable block:
/// product `(u, v)`, `u ≤ v`, lives at `row(k, u) + v`.
#[inline]
fn row(k: usize, u: usize) -> usize {
    k + u * k - u * (u + 1) / 2
}

/// Support equality as an element loop: `==` on `[u32]` calls `bcmp`,
/// which measured ~120 ns per call even on empty slices, and this runs
/// on every `⊕`.
#[inline]
fn same_support(a: &[u32], b: &[u32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

/// The sorted union of two sorted supports.
fn union(a: &[u32], b: &[u32]) -> Box<[u32]> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out.into_boxed_slice()
}

/// Writes the position in `sup` of each variable of `sub ⊆ sup`.
fn positions(sub: &[u32], sup: &[u32], out: &mut [u32]) {
    let mut u = 0;
    for (o, &v) in out.iter_mut().zip(sub) {
        while sup[u] != v {
            u += 1;
        }
        *o = u as u32;
    }
}

/// Runs `f` with the positions of `a`'s and `b`'s variables in their
/// union `u`.
fn with_maps<T>(a: &[u32], b: &[u32], u: &[u32], f: impl FnOnce(&[u32], &[u32]) -> T) -> T {
    let n = a.len() + b.len();
    let mut inline = [0u32; INLINE_VARS];
    let mut heap = Vec::new();
    let buf = if n <= INLINE_VARS {
        &mut inline[..n]
    } else {
        heap.resize(n, 0);
        &mut heap[..]
    };
    let (ia, ib) = buf.split_at_mut(a.len());
    positions(a, u, ia);
    positions(b, u, ib);
    f(ia, ib)
}

/// Adds `scale ×` the block `src` into `dst`, a block over `k` variables
/// in which `src`'s variable `p` sits at position `map[p]`.
fn scatter(dst: &mut [f64], k: usize, src: &[f64], map: &[u32], scale: f64) {
    let ks = map.len();
    for (&u, &x) in map.iter().zip(src) {
        dst[u as usize] += scale * x;
    }
    for (p, &u) in map.iter().enumerate() {
        let (from, to) = (row(ks, p) + p, row(ks, p) + ks);
        let dst_row = row(k, u as usize);
        for (&v, &x) in map[p..].iter().zip(&src[from..to]) {
            dst[dst_row + v as usize] += scale * x;
        }
    }
}

/// Element of the degree-*m* matrix ring: a dense block over a sorted
/// support (see the module docs).
///
/// Equality is semantic: a variable absent from one support equals
/// `0.0`, so payloads that differ only by zero-padded variables are
/// equal. [`Semiring::is_zero`] holds iff the count and every value are
/// exactly zero, so exact deletions cancel back to zero.
#[derive(Clone, Debug, Default)]
pub struct Cofactor {
    /// Tuple count `c` (the `SUM(1)` aggregate).
    pub count: i64,
    /// The support: variable indices, strictly increasing.
    vars: Box<[u32]>,
    /// [`block_len`]`(vars.len())` values: `SUM(x_i)` per support
    /// variable, then `SUM(x_i · x_j)` for `i ≤ j`, row-major.
    block: Box<[f64]>,
}

impl Cofactor {
    /// The lifting function `g_j(x)` of §6.2: count 1, `s_j = x`,
    /// `Q_(j,j) = x²`.
    pub fn lift(j: u32, x: f64) -> Self {
        Cofactor {
            count: 1,
            vars: Box::new([j]),
            block: Box::new([x, x * x]),
        }
    }

    /// Lifting from a key [`Value`]: ints widen to doubles, interned
    /// symbols enter by their categorical code ([`Value::feature_code`]
    /// — the same integer-code encoding the regression workloads used
    /// before categorical columns became strings).
    pub fn lift_value(j: u32, v: &Value) -> Self {
        Self::lift(j, v.feature_code())
    }

    /// Builds a payload over `vars` (strictly increasing) from sparse
    /// entries — `(i, SUM(x_i))` by `i` and `(i, j, SUM(x_i · x_j))`,
    /// `i ≤ j`, by `(i, j)`, both strictly increasing — whose variables
    /// all lie in `vars`; other entries are 0. Takes `O(k²)` steps.
    pub(crate) fn from_entries(
        count: i64,
        vars: Box<[u32]>,
        sums: &[(u32, f64)],
        prods: &[(u32, u32, f64)],
    ) -> Self {
        let k = vars.len();
        let mut block = vec![0.0; block_len(k)];
        // Entries arrive in order, so each position walk resumes where
        // the last one stopped: sums and rows walk `vars` once, and each
        // row's columns walk it once from the row's own position.
        let mut p = 0;
        for &(i, x) in sums {
            while vars[p] != i {
                p += 1;
            }
            block[p] = x;
        }
        let (mut p, mut q, mut at) = (0, 0, k);
        for &(i, j, x) in prods {
            if vars[p] != i {
                while vars[p] != i {
                    p += 1;
                }
                q = p;
                at = row(k, p);
            }
            while vars[q] != j {
                q += 1;
            }
            block[at + q] = x;
        }
        Cofactor {
            count,
            vars,
            block: block.into_boxed_slice(),
        }
    }

    /// Linear aggregate for variable `i`, or 0.
    pub fn sum(&self, i: u32) -> f64 {
        self.vars.binary_search(&i).map_or(0.0, |p| self.block[p])
    }

    /// Quadratic aggregate for the unordered pair `{i, j}`, or 0.
    pub fn prod(&self, i: u32, j: u32) -> f64 {
        match (
            self.vars.binary_search(&i.min(j)),
            self.vars.binary_search(&i.max(j)),
        ) {
            (Ok(p), Ok(q)) => self.block[row(self.vars.len(), p) + q],
            _ => 0.0,
        }
    }

    /// The linear aggregates `(i, SUM(x_i))` over the support, in
    /// variable order.
    pub(crate) fn sums(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.vars.iter().copied().zip(self.block.iter().copied())
    }

    /// The quadratic aggregates `(i, j, SUM(x_i · x_j))`, `i ≤ j`, over
    /// the support, in `(i, j)` order.
    pub(crate) fn prods(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        // One pass over the product slots, tracking the row `p` and
        // column `q` they hold (a flat_map over rows costs ~2× to encode).
        let vars = &self.vars;
        let (mut p, mut q) = (0, 0);
        self.block[vars.len()..].iter().map(move |&x| {
            let entry = (vars[p], vars[q], x);
            q += 1;
            if q == vars.len() {
                p += 1;
                q = p;
            }
            entry
        })
    }

    /// Assemble the dense `(c, s, Q)` triple of dimension `m`, with `Q`
    /// returned as a full (mirrored) row-major `m × m` matrix — the shape
    /// the regression trainer consumes.
    pub fn to_dense(&self, m: usize) -> (i64, Vec<f64>, Vec<f64>) {
        let mut s = vec![0.0; m];
        for (i, x) in self.sums() {
            s[i as usize] = x;
        }
        let mut q = vec![0.0; m * m];
        for (i, j, x) in self.prods() {
            q[i as usize * m + j as usize] = x;
            q[j as usize * m + i as usize] = x;
        }
        (self.count, s, q)
    }

    /// `self` with every value multiplied by `by` and count `count`.
    fn scaled(&self, count: i64, by: f64) -> Self {
        Cofactor {
            count,
            vars: self.vars.clone(),
            block: self.block.iter().map(|x| x * by).collect(),
        }
    }
}

impl PartialEq for Cofactor {
    fn eq(&self, other: &Self) -> bool {
        if self.count != other.count {
            return false;
        }
        if same_support(&self.vars, &other.vars) {
            return self.block == other.block;
        }
        let vars = union(&self.vars, &other.vars);
        let k = vars.len();
        with_maps(&self.vars, &other.vars, &vars, |ia, ib| {
            let mut a = vec![0.0; block_len(k)];
            let mut b = vec![0.0; block_len(k)];
            scatter(&mut a, k, &self.block, ia, 1.0);
            scatter(&mut b, k, &other.block, ib, 1.0);
            a == b
        })
    }
}

impl Semiring for Cofactor {
    fn zero() -> Self {
        Cofactor::default()
    }

    fn one() -> Self {
        Cofactor {
            count: 1,
            ..Cofactor::default()
        }
    }

    fn add_assign(&mut self, other: &Self) {
        self.count += other.count;
        if same_support(&self.vars, &other.vars) {
            for (a, b) in self.block.iter_mut().zip(other.block.iter()) {
                *a += b;
            }
        } else if self.vars.is_empty() {
            self.vars.clone_from(&other.vars);
            self.block.clone_from(&other.block);
        } else if !other.vars.is_empty() {
            let vars = union(&self.vars, &other.vars);
            let k = vars.len();
            let mut block = vec![0.0; block_len(k)];
            with_maps(&self.vars, &other.vars, &vars, |ia, ib| {
                scatter(&mut block, k, &self.block, ia, 1.0);
                scatter(&mut block, k, &other.block, ib, 1.0);
            });
            self.vars = vars;
            self.block = block.into_boxed_slice();
        }
    }

    fn mul(&self, other: &Self) -> Self {
        let count = self.count * other.count;
        let (ca, cb) = (self.count as f64, other.count as f64);
        if other.vars.is_empty() {
            return self.scaled(count, cb);
        }
        if self.vars.is_empty() {
            return other.scaled(count, ca);
        }
        let vars = union(&self.vars, &other.vars);
        let k = vars.len();
        let mut block = vec![0.0; block_len(k)];
        with_maps(&self.vars, &other.vars, &vars, |ia, ib| {
            scatter(&mut block, k, &self.block, ia, cb);
            scatter(&mut block, k, &other.block, ib, ca);
            // sa·sbᵀ + sb·saᵀ: the pair (u, v) receives sa_u·sb_v at
            // (min, max); a shared variable receives 2·sa_u·sb_u.
            for (&u, &x) in ia.iter().zip(self.block.iter()) {
                for (&v, &y) in ib.iter().zip(other.block.iter()) {
                    let xy = x * y;
                    let at = row(k, u.min(v) as usize) + u.max(v) as usize;
                    block[at] += if u == v { xy + xy } else { xy };
                }
            }
        });
        Cofactor {
            count,
            vars,
            block: block.into_boxed_slice(),
        }
    }

    fn is_zero(&self) -> bool {
        self.count == 0 && self.block.iter().all(|&x| x == 0.0)
    }

    fn heap_bytes(&self) -> usize {
        self.vars.len() * std::mem::size_of::<u32>() + self.block.len() * std::mem::size_of::<f64>()
    }
}

impl Ring for Cofactor {
    fn neg(&self) -> Self {
        self.scaled(-self.count, -1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{check_ring_axioms_approx, Ring, Semiring};
    use super::*;
    use proptest::strategy::{Just, Strategy};

    fn approx(a: &Cofactor, b: &Cofactor) -> bool {
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()));
        let vars = union(&a.vars, &b.vars);
        a.count == b.count
            && vars.iter().all(|&i| {
                close(a.sum(i), b.sum(i)) && vars.iter().all(|&j| close(a.prod(i, j), b.prod(i, j)))
            })
    }

    #[test]
    fn identities() {
        let x = Cofactor::lift(2, 3.5);
        assert_eq!(x.mul(&Cofactor::one()), x);
        assert_eq!(Cofactor::one().mul(&x), x);
        assert!(x.mul(&Cofactor::zero()).is_zero());
        assert_eq!(x.add(&Cofactor::zero()), x);
    }

    #[test]
    fn deletion_cancels_exactly() {
        let x = Cofactor::lift(1, 2.25);
        let mut acc = x.clone();
        acc.add_assign(&x.neg());
        assert!(acc.is_zero());
        // A zero count alone is not zero: the sums still differ.
        assert!(!x.sub(&Cofactor::lift(1, 2.0)).is_zero());
    }

    #[test]
    fn ring_axioms_on_samples() {
        let a = Cofactor::lift(0, 2.0);
        let b = Cofactor::lift(1, -3.0).add(&Cofactor::lift(2, 1.0));
        let c = Cofactor::lift(2, 0.5);
        check_ring_axioms_approx(&a, &b, &c, approx);
    }

    /// Reproduces the paper’s worked product from Example 6.3:
    /// `V@C_ST[a2] = V@D_T[c2] * V@E_S[a2,c2] * g_C(c2)`.
    ///
    /// With 0-based variable order (A,B,C,D,E) = (0..4), c2=10, d2=1,
    /// d3=2, e4=5, the expected payload is
    /// `(2, [.,.,2c2, d2+d3, 2e4], Q33=2c2², Q34=c2(d2+d3), Q35=2c2e4,
    ///  Q44=d2²+d3², Q45=(d2+d3)e4, Q55=2e4²)` (paper’s 1-based indices).
    #[test]
    fn example_6_3_product() {
        let (c2, d2, d3, e4) = (10.0, 1.0, 2.0, 5.0);
        let vt = Cofactor::lift(3, d2).add(&Cofactor::lift(3, d3));
        let vs = Cofactor::lift(4, e4);
        let gc = Cofactor::lift(2, c2);
        let out = vt.mul(&vs).mul(&gc);

        assert_eq!(out.count, 2);
        assert_eq!(out.sum(2), 2.0 * c2);
        assert_eq!(out.sum(3), d2 + d3);
        assert_eq!(out.sum(4), 2.0 * e4);
        assert_eq!(out.prod(2, 2), 2.0 * c2 * c2);
        assert_eq!(out.prod(2, 3), c2 * (d2 + d3));
        assert_eq!(out.prod(2, 4), 2.0 * c2 * e4);
        assert_eq!(out.prod(3, 3), d2 * d2 + d3 * d3);
        assert_eq!(out.prod(3, 4), (d2 + d3) * e4);
        assert_eq!(out.prod(4, 4), 2.0 * e4 * e4);
        // untouched coordinates stay zero
        assert_eq!(out.sum(0), 0.0);
        assert_eq!(out.prod(0, 1), 0.0);
    }

    /// The triangle layout gives every product of a support one slot of
    /// the block, after the sums.
    #[test]
    fn tri_index_layout() {
        for k in 0..6 {
            let slots: Vec<usize> = (0..k)
                .flat_map(|u| (u..k).map(move |v| row(k, u) + v))
                .collect();
            assert_eq!(slots, (k..block_len(k)).collect::<Vec<_>>());
        }
    }

    /// Dimension of the naive reference ring.
    const M: usize = 6;

    /// Definition 6.2 written out over a full `M`-dimensional `(c, s, Q)`
    /// with `Q` a mirrored `M × M` matrix — no supports, no triangle.
    #[derive(Clone, Debug, PartialEq)]
    struct Naive {
        c: i64,
        s: Vec<f64>,
        q: Vec<f64>,
    }

    impl Naive {
        fn zero() -> Self {
            Naive {
                c: 0,
                s: vec![0.0; M],
                q: vec![0.0; M * M],
            }
        }
        fn lift(j: usize, x: f64) -> Self {
            let mut n = Naive::zero();
            n.c = 1;
            n.s[j] = x;
            n.q[j * M + j] = x * x;
            n
        }
        fn add(&self, o: &Self) -> Self {
            Naive {
                c: self.c + o.c,
                s: self.s.iter().zip(&o.s).map(|(a, b)| a + b).collect(),
                q: self.q.iter().zip(&o.q).map(|(a, b)| a + b).collect(),
            }
        }
        fn mul(&self, o: &Self) -> Self {
            let (ca, cb) = (self.c as f64, o.c as f64);
            let mut out = Naive::zero();
            out.c = self.c * o.c;
            for i in 0..M {
                out.s[i] = cb * self.s[i] + ca * o.s[i];
                for j in 0..M {
                    out.q[i * M + j] = cb * self.q[i * M + j]
                        + ca * o.q[i * M + j]
                        + self.s[i] * o.s[j]
                        + o.s[i] * self.s[j];
                }
            }
            out
        }
        fn neg(&self) -> Self {
            Naive {
                c: -self.c,
                s: self.s.iter().map(|x| -x).collect(),
                q: self.q.iter().map(|x| -x).collect(),
            }
        }
        fn dense(&self) -> (i64, Vec<f64>, Vec<f64>) {
            (self.c, self.s.clone(), self.q.clone())
        }
    }

    /// A term is a product of lifts over distinct variables; a payload
    /// is a signed sum of terms. Integer values keep both rings exact.
    type Terms = Vec<(bool, Vec<(usize, i64)>)>;

    fn build(terms: &Terms) -> (Cofactor, Naive) {
        let mut acc = (Cofactor::zero(), Naive::zero());
        for (negate, factors) in terms {
            let mut t = (
                Cofactor::one(),
                Naive {
                    c: 1,
                    ..Naive::zero()
                },
            );
            for &(j, x) in factors {
                t.0 = t.0.mul(&Cofactor::lift(j as u32, x as f64));
                t.1 = t.1.mul(&Naive::lift(j, x as f64));
            }
            if *negate {
                t = (t.0.neg(), t.1.neg());
            }
            acc.0.add_assign(&t.0);
            acc.1 = acc.1.add(&t.1);
        }
        acc
    }

    /// Signed sums of 1–3 terms, each over an order-preserving subset of
    /// the variables `pool`.
    fn terms(pool: &[usize]) -> impl Strategy<Value = Terms> {
        let term =
            proptest::sample::subsequence(pool.to_vec(), 1..=pool.len()).prop_flat_map(|vs| {
                proptest::collection::vec(-4i64..5, vs.len())
                    .prop_map(move |xs| vs.iter().copied().zip(xs).collect::<Vec<_>>())
            });
        proptest::collection::vec(
            (
                proptest::prop_oneof![3 => Just(false), 1 => Just(true)],
                term,
            ),
            1..4,
        )
    }

    /// Operand variable pools: disjoint, interleaved, overlapping and
    /// unconstrained supports.
    const POOLS: [(&[usize], &[usize]); 4] = [
        (&[0, 1, 2], &[3, 4, 5]),
        (&[0, 2, 4], &[1, 3, 5]),
        (&[0, 1, 3], &[1, 3, 4]),
        (&[0, 1, 2, 3, 4, 5], &[0, 1, 2, 3, 4, 5]),
    ];

    #[test]
    fn matches_reference_ring() {
        let (a, na) = build(&vec![(false, vec![(1, 2)]), (false, vec![(3, -1)])]);
        let (b, nb) = build(&vec![(false, vec![(2, 4)])]);
        assert_eq!(a.mul(&b).to_dense(M), na.mul(&nb).dense());
        assert_eq!(a.add(&b).to_dense(M), na.add(&nb).dense());
    }

    #[test]
    fn padded_support_equals_unpadded() {
        let x = Cofactor::lift(0, 2.0).mul(&Cofactor::lift(2, -1.0));
        let y = Cofactor::lift(1, 3.0).mul(&Cofactor::lift(4, 5.0));
        let padded = x.add(&y).add(&y.neg());
        assert_eq!(&*padded.vars, &[0, 1, 2, 4]);
        assert_eq!(padded, x);
        assert_eq!(x, padded);
        assert!(padded.sub(&x).is_zero());
        // The padding is compared, not skipped: Q(1,4) becomes non-zero.
        let mut off = padded.clone();
        off.block[row(4, 1) + 3] = 1.0;
        assert_ne!(off, x);
        assert_ne!(x, off);
    }

    /// Supports wider than the inline index maps (80 variables) take the
    /// heap path of `mul` and of widening `add`, and do not panic.
    #[test]
    fn wide_supports_take_the_heap_path() {
        let wide = |from: u32| {
            (from..from + 40).fold(Cofactor::one(), |acc, j| acc.mul(&Cofactor::lift(j, 1.0)))
        };
        let (a, b) = (wide(0), wide(40));
        let ab = a.mul(&b);
        assert_eq!(ab.vars.len(), 80);
        assert_eq!((ab.sum(79), ab.prod(0, 79), ab.prod(5, 5)), (1.0, 1.0, 1.0));
        assert_eq!(a.add(&b).prod(0, 79), 0.0);
    }

    proptest::proptest! {
        #[test]
        fn axioms_prop(
            xs in proptest::collection::vec((0u32..4, -4i64..5), 1..4),
            ys in proptest::collection::vec((0u32..4, -4i64..5), 1..4),
            zs in proptest::collection::vec((0u32..4, -4i64..5), 1..4),
        ) {
            let build = |v: &Vec<(u32, i64)>| {
                let mut acc = Cofactor::zero();
                for &(j, x) in v {
                    acc.add_assign(&Cofactor::lift(j, x as f64));
                }
                acc
            };
            // integer-valued data keeps float arithmetic exact
            check_ring_axioms_approx(&build(&xs), &build(&ys), &build(&zs), approx);
        }

        /// `add`, `mul`, `neg` and cancellation agree with the naive
        /// dense ring on every support shape.
        #[test]
        fn reference_ring_prop(
            operands in (0..POOLS.len()).prop_flat_map(|s| (terms(POOLS[s].0), terms(POOLS[s].1))),
        ) {
            let ((a, na), (b, nb)) = (build(&operands.0), build(&operands.1));
            proptest::prop_assert_eq!(a.to_dense(M), na.dense());
            proptest::prop_assert_eq!(a.mul(&b).to_dense(M), na.mul(&nb).dense());
            proptest::prop_assert_eq!(b.mul(&a).to_dense(M), nb.mul(&na).dense());
            proptest::prop_assert_eq!(a.add(&b).to_dense(M), na.add(&nb).dense());
            proptest::prop_assert_eq!(a.neg().to_dense(M), na.neg().dense());
            // Insert both operands' products, then delete them in the
            // other order: the sum cancels to exact zero.
            let (ab, ba) = (a.mul(&b), b.mul(&a));
            let mut acc = ab.add(&ba);
            acc.add_assign(&ab.neg());
            proptest::prop_assert_eq!(&acc, &ba);
            acc.add_assign(&ba.neg());
            proptest::prop_assert!(acc.is_zero());
            proptest::prop_assert!(a.add(&a.neg()).is_zero());
        }
    }
}
