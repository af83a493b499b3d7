//! Payload algebras: semirings and rings (paper §2, Appendix A).
//!
//! A relation in F-IVM maps keys to payloads drawn from a ring
//! `(D, +, *, 0, 1)`. The maintenance machinery is identical for every
//! ring; applications differ only in their choice of `D`:
//!
//! * [`i64`] / [`f64`] — SQL `COUNT`/`SUM` aggregates,
//! * [`cofactor`] — the degree-*m* matrix ring `(c, s, Q)` for linear
//!   regression gradients (Definition 6.2), one dense block per payload
//!   over the variables it covers,
//! * [`relational`] — the relational data ring `F[Z]` storing query
//!   results in payloads (Definition 6.4),
//! * [`degree`] — the degree-indexed aggregate map used by the SQL-OPT
//!   baseline in §7,
//! * [`vector`] — element-wise product rings (`R²`, `R³`, …) and generic
//!   pair/triple rings,
//! * [`boolean`] — Boolean and max-product **semirings** (no additive
//!   inverse; usable for evaluation but not for deletions).

pub mod boolean;
pub mod cofactor;
pub mod degree;
pub mod numeric;
pub mod relational;
pub mod vector;

use std::fmt::Debug;

/// A commutative monoid under `+` and a monoid under `*`, with `*`
/// distributing over `+` and `0 * a = a * 0 = 0` (Appendix A).
///
/// `*` need **not** be commutative (e.g. the matrix ring); implementors
/// must preserve operand order.
pub trait Semiring: Clone + Debug + PartialEq + Send + Sync + 'static {
    /// Additive identity.
    fn zero() -> Self;

    /// Multiplicative identity.
    fn one() -> Self;

    /// `self += other`.
    fn add_assign(&mut self, other: &Self);

    /// `self * other` (order preserved for non-commutative payloads).
    fn mul(&self, other: &Self) -> Self;

    /// `self + other`.
    fn add(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.add_assign(other);
        s
    }

    /// True iff this is the additive identity. Relations erase keys whose
    /// payload becomes zero, which is what makes inserts and deletes
    /// uniform (paper §2).
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// Heap bytes owned by this value beyond `size_of::<Self>()`
    /// (for memory accounting).
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// A [`Semiring`] with additive inverses — required for incremental
/// maintenance, where deletions are keys with negated payloads.
pub trait Ring: Semiring {
    /// The additive inverse `-self`.
    fn neg(&self) -> Self;

    /// `self - other`.
    fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }
}

/// Asserts the ring axioms (Appendix A, Definition A.1) on three sample
/// elements. Used by unit and property tests of every ring; exposed so
/// downstream crates can check custom rings too.
pub fn check_ring_axioms<R: Ring>(a: &R, b: &R, c: &R) {
    // (1) commutativity of +
    assert_eq!(a.add(b), b.add(a), "a+b != b+a");
    // (2) associativity of +
    assert_eq!(a.add(b).add(c), a.add(&b.add(c)), "(a+b)+c != a+(b+c)");
    // (3) additive identity
    assert_eq!(a.add(&R::zero()), *a, "a+0 != a");
    assert_eq!(R::zero().add(a), *a, "0+a != a");
    // (4) additive inverse
    assert!(a.add(&a.neg()).is_zero(), "a + (-a) != 0");
    assert!(a.neg().add(a).is_zero(), "(-a) + a != 0");
    // (5) associativity of *
    assert_eq!(a.mul(b).mul(c), a.mul(&b.mul(c)), "(a*b)*c != a*(b*c)");
    // (6) multiplicative identity
    assert_eq!(a.mul(&R::one()), *a, "a*1 != a");
    assert_eq!(R::one().mul(a), *a, "1*a != a");
    // (7) distributivity (both sides; * may be non-commutative)
    assert_eq!(
        a.mul(&b.add(c)),
        a.mul(b).add(&a.mul(c)),
        "a*(b+c) != a*b + a*c"
    );
    assert_eq!(
        a.add(b).mul(c),
        a.mul(c).add(&b.mul(c)),
        "(a+b)*c != a*c + b*c"
    );
    // semiring annihilation
    assert!(a.mul(&R::zero()).is_zero(), "a*0 != 0");
    assert!(R::zero().mul(a).is_zero(), "0*a != 0");
}

/// Approximate-equality variant of [`check_ring_axioms`] for rings over
/// floating point, where associativity/distributivity hold only up to
/// rounding.
pub fn check_ring_axioms_approx<R: Ring>(a: &R, b: &R, c: &R, close: impl Fn(&R, &R) -> bool) {
    assert!(close(&a.add(b), &b.add(a)), "a+b !~ b+a");
    assert!(close(&a.add(b).add(c), &a.add(&b.add(c))), "+ not assoc");
    assert!(close(&a.add(&R::zero()), a), "a+0 !~ a");
    assert!(a.add(&a.neg()).is_zero(), "a + (-a) != 0");
    assert!(close(&a.mul(b).mul(c), &a.mul(&b.mul(c))), "* not assoc");
    assert!(close(&a.mul(&R::one()), a), "a*1 !~ a");
    assert!(close(&R::one().mul(a), a), "1*a !~ a");
    assert!(
        close(&a.mul(&b.add(c)), &a.mul(b).add(&a.mul(c))),
        "left distributivity"
    );
    assert!(
        close(&a.add(b).mul(c), &a.mul(c).add(&b.mul(c))),
        "right distributivity"
    );
}
