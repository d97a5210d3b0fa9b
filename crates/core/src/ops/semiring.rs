//! Semirings (`GrB_Semiring`): an add-monoid on the output domain paired
//! with a multiply operator `A × B → Z` — the algebra that turns `mxm`
//! into BFS, shortest paths, reachability, triangle counting, …

use crate::ops::binary::BinaryOp;
use crate::ops::monoid::Monoid;
use crate::types::{BoundedValue, One, ValueType, Zero};

/// A semiring with multiply `A × B → Z` and additive monoid on `Z`.
#[derive(Clone)]
pub struct Semiring<A, B, Z> {
    add: Monoid<Z>,
    mul: BinaryOp<A, B, Z>,
}

impl<A, B, Z: std::fmt::Debug> std::fmt::Debug for Semiring<A, B, Z> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Semiring({} . {:?})", self.mul.name(), self.add)
    }
}

impl<A: ValueType, B: ValueType, Z: ValueType> Semiring<A, B, Z> {
    /// Creates a semiring (`GrB_Semiring_new`).
    ///
    /// # Examples
    ///
    /// ```
    /// use graphblas_core::{Semiring, Monoid, BinaryOp};
    /// // A saturating-add / min semiring over u32.
    /// let sr = Semiring::new(
    ///     Monoid::new(BinaryOp::<u32, u32, u32>::new("sat", |a, b| a.saturating_add(*b)), 0),
    ///     BinaryOp::min(),
    /// );
    /// assert_eq!(sr.multiply(&7, &3), 3);
    /// assert_eq!(sr.combine(&u32::MAX, &1), u32::MAX);
    /// ```
    pub fn new(add: Monoid<Z>, mul: BinaryOp<A, B, Z>) -> Self {
        Semiring { add, mul }
    }

    /// The additive monoid on the output domain.
    pub fn add(&self) -> &Monoid<Z> {
        &self.add
    }

    /// The multiply operator `A × B → Z`.
    pub fn mul(&self) -> &BinaryOp<A, B, Z> {
        &self.mul
    }

    /// Applies the multiply operator.
    #[inline]
    pub fn multiply(&self, a: &A, b: &B) -> Z {
        self.mul.apply(a, b)
    }

    /// Applies the additive monoid.
    #[inline]
    pub fn combine(&self, x: &Z, y: &Z) -> Z {
        self.add.apply(x, y)
    }
}

impl<T> Semiring<T, T, T>
where
    T: ValueType + Copy + std::ops::Add<Output = T> + std::ops::Mul<Output = T> + Zero,
{
    /// `GrB_PLUS_TIMES_SEMIRING_*`: classical arithmetic.
    pub fn plus_times() -> Self {
        Semiring::new(Monoid::plus(), BinaryOp::times())
    }
}

impl<T> Semiring<T, T, T>
where
    T: ValueType + Copy + std::ops::Add<Output = T> + PartialOrd + BoundedValue + PartialEq,
{
    /// `GrB_MIN_PLUS_SEMIRING_*`: tropical algebra (shortest paths).
    pub fn min_plus() -> Self {
        Semiring::new(Monoid::min(), BinaryOp::plus())
    }

    /// `GrB_MAX_PLUS_SEMIRING_*`: scheduling / critical paths.
    pub fn max_plus() -> Self {
        Semiring::new(Monoid::max(), BinaryOp::plus())
    }
}

impl<T> Semiring<T, T, T>
where
    T: ValueType + Copy + PartialOrd + BoundedValue + PartialEq,
{
    /// `GrB_MAX_MIN_SEMIRING_*`: bottleneck / widest paths.
    pub fn max_min() -> Self {
        Semiring::new(Monoid::max(), BinaryOp::min())
    }

    /// `GrB_MIN_MAX_SEMIRING_*`.
    pub fn min_max() -> Self {
        Semiring::new(Monoid::min(), BinaryOp::max())
    }

    /// `GrB_MIN_FIRST_SEMIRING_*`: label propagation (take source label).
    pub fn min_first() -> Self {
        Semiring::new(Monoid::min(), BinaryOp::first())
    }

    /// `GrB_MIN_SECOND_SEMIRING_*`.
    pub fn min_second() -> Self {
        Semiring::new(Monoid::min(), BinaryOp::second())
    }

    /// `GrB_MAX_FIRST_SEMIRING_*`.
    pub fn max_first() -> Self {
        Semiring::new(Monoid::max(), BinaryOp::first())
    }

    /// `GrB_MAX_SECOND_SEMIRING_*`.
    pub fn max_second() -> Self {
        Semiring::new(Monoid::max(), BinaryOp::second())
    }
}

impl Semiring<bool, bool, bool> {
    /// `GrB_LOR_LAND_SEMIRING_BOOL`: boolean reachability. The LOR
    /// monoid's `true` terminal makes frontier expansion short-circuit.
    pub fn lor_land() -> Self {
        Semiring::new(Monoid::lor(), BinaryOp::land())
    }
}

impl<A, B, Z> Semiring<A, B, Z>
where
    A: ValueType,
    B: ValueType,
    Z: ValueType + Copy + std::ops::Add<Output = Z> + Zero + One,
{
    /// `PLUS_PAIR`: counts structural matches (the triangle-counting
    /// workhorse; multiply ignores both values and yields 1).
    pub fn plus_pair() -> Self {
        Semiring::new(Monoid::plus(), BinaryOp::oneb())
    }
}

impl<A, B, Z> Semiring<A, B, Z>
where
    A: ValueType,
    B: ValueType,
    Z: ValueType + Zero + One,
{
    /// `GxB_ANY_PAIR_SEMIRING`: pure structural reachability — multiply
    /// yields 1 on any match, and the ANY monoid stops at the first
    /// witness. The cheapest possible semiring for masked BFS-style
    /// traversals (every value is terminal).
    pub fn any_pair() -> Self {
        Semiring::new(Monoid::any(), BinaryOp::oneb())
    }
}

impl<A, B> Semiring<A, B, A>
where
    A: ValueType + Copy + std::ops::Add<Output = A> + Zero,
    B: ValueType,
{
    /// `GrB_PLUS_FIRST_SEMIRING_*` over mixed domains: sums the left
    /// operand over matches; the right operand contributes structure only
    /// (`vxm` of a value vector through a `Matrix<bool>`).
    pub fn plus_first() -> Self {
        Semiring::new(Monoid::plus(), BinaryOp::first())
    }
}

impl<A, B> Semiring<A, B, B>
where
    A: ValueType,
    B: ValueType + Copy + std::ops::Add<Output = B> + Zero,
{
    /// `GrB_PLUS_SECOND_SEMIRING_*` over mixed domains: sums the right
    /// operand over matches; the left operand contributes structure only
    /// (`mxv` of a `Matrix<bool>` against a value vector).
    pub fn plus_second() -> Self {
        Semiring::new(Monoid::plus(), BinaryOp::second())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times_behaves() {
        let sr = Semiring::<i64, i64, i64>::plus_times();
        assert_eq!(sr.multiply(&3, &4), 12);
        assert_eq!(sr.combine(&3, &4), 7);
        assert_eq!(*sr.add().identity(), 0);
    }

    #[test]
    fn tropical() {
        let sr = Semiring::<f64, f64, f64>::min_plus();
        assert_eq!(sr.multiply(&2.0, &3.0), 5.0);
        assert_eq!(sr.combine(&2.0, &3.0), 2.0);
        assert_eq!(*sr.add().identity(), f64::MAX);
    }

    #[test]
    fn boolean_reachability() {
        let sr = Semiring::lor_land();
        assert!(sr.multiply(&true, &true));
        assert!(!sr.multiply(&true, &false));
        assert!(sr.combine(&false, &true));
        assert!(sr.add().terminal().unwrap()(&true));
    }

    #[test]
    fn plus_pair_counts() {
        let sr = Semiring::<f32, f32, u64>::plus_pair();
        assert_eq!(sr.multiply(&2.5, &9.0), 1);
        assert_eq!(sr.combine(&3, &4), 7);
    }

    #[test]
    fn plus_first_and_second_are_tagged_over_mixed_domains() {
        use crate::ops::binary::BuiltinOp;
        let first = Semiring::<f64, bool, f64>::plus_first();
        assert_eq!(first.multiply(&2.5, &false), 2.5);
        assert_eq!(first.mul().builtin(), Some(BuiltinOp::First));
        let second = Semiring::<bool, f64, f64>::plus_second();
        assert_eq!(second.multiply(&false, &2.5), 2.5);
        assert_eq!(second.mul().builtin(), Some(BuiltinOp::Second));
        assert_eq!(second.add().builtin(), Some(BuiltinOp::Plus));
    }

    #[test]
    fn bottleneck() {
        let sr = Semiring::<u32, u32, u32>::max_min();
        assert_eq!(sr.multiply(&7, &3), 3);
        assert_eq!(sr.combine(&7, &3), 7);
    }

    #[test]
    fn any_pair_structural() {
        let sr = Semiring::<f64, f64, u64>::any_pair();
        assert_eq!(sr.multiply(&2.5, &9.0), 1);
        assert_eq!(sr.combine(&3, &4), 3); // ANY keeps the first operand
        assert!(sr.add().terminal().unwrap()(&0)); // everything is terminal
        use crate::ops::binary::BuiltinOp;
        assert_eq!(sr.add().builtin(), Some(BuiltinOp::Any));
        assert_eq!(sr.mul().builtin(), Some(BuiltinOp::OneB));
    }

    #[test]
    fn custom_semiring() {
        // Galois-ish: xor-and on u8 bitmasks.
        let sr = Semiring::new(
            Monoid::new(BinaryOp::<u8, u8, u8>::new("xor", |a, b| a ^ b), 0),
            BinaryOp::<u8, u8, u8>::new("and", |a, b| a & b),
        );
        assert_eq!(sr.multiply(&0b1100, &0b1010), 0b1000);
        assert_eq!(sr.combine(&0b1100, &0b1010), 0b0110);
    }
}
