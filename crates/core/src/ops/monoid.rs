//! Monoids (`GrB_Monoid`): an associative binary operator on a single
//! domain together with its identity, and optionally a *terminal*
//! (annihilator) value enabling early-exit reductions.

use std::sync::Arc;

use crate::error::GrbResult;
use crate::ops::binary::{BinaryOp, BuiltinOp};
use crate::scalar::Scalar;
use crate::types::{BoundedValue, One, ValueType, Zero};

/// A commutative monoid over domain `T`.
#[derive(Clone)]
pub struct Monoid<T> {
    op: BinaryOp<T, T, T>,
    identity: T,
    terminal: Option<Arc<dyn Fn(&T) -> bool + Send + Sync>>,
    /// Set only by the canonical builtin constructors (`plus()`, `min()`,
    /// …): the kernel-registry identity of this monoid *as constructed*,
    /// canonical identity and terminal included. Customizing the terminal
    /// (`with_terminal_pred`) clears it, because the registry's static
    /// kernels bake in the canonical terminal semantics.
    builtin: Option<BuiltinOp>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for Monoid<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Monoid({}, identity: {:?}, terminal: {})",
            self.op.name(),
            self.identity,
            self.terminal.is_some()
        )
    }
}

impl<T: ValueType> Monoid<T> {
    /// Creates a monoid from an operator and identity (`GrB_Monoid_new`).
    pub fn new(op: BinaryOp<T, T, T>, identity: T) -> Self {
        Monoid {
            op,
            identity,
            terminal: None,
            builtin: None,
        }
    }

    /// The Table II `GrB_Scalar` variant of `GrB_Monoid_new`: the identity
    /// comes from a GraphBLAS scalar, which must be non-empty
    /// (`GrB_EMPTY_OBJECT` otherwise).
    pub fn new_scalar(op: BinaryOp<T, T, T>, identity: &Scalar<T>) -> GrbResult<Self> {
        Ok(Monoid::new(op, identity.value()?))
    }

    /// Adds a terminal (annihilator) value test: once a reduction's
    /// accumulator satisfies it, the result can no longer change.
    pub fn with_terminal_pred(mut self, pred: impl Fn(&T) -> bool + Send + Sync + 'static) -> Self {
        self.terminal = Some(Arc::new(pred));
        // A custom terminal departs from the canonical builtin shape; the
        // registry must no longer claim this monoid.
        self.builtin = None;
        self
    }

    /// The builtin identity tag (kernel-registry dispatch key): present
    /// only when this monoid is exactly one of the canonical builtins.
    #[inline]
    pub fn builtin(&self) -> Option<BuiltinOp> {
        self.builtin
    }

    /// The underlying binary operator.
    pub fn op(&self) -> &BinaryOp<T, T, T> {
        &self.op
    }

    /// The identity element.
    pub fn identity(&self) -> &T {
        &self.identity
    }

    /// The terminal test, if one is declared.
    pub fn terminal(&self) -> Option<&(dyn Fn(&T) -> bool + Send + Sync)> {
        self.terminal.as_deref()
    }

    /// Applies the monoid operator.
    #[inline]
    pub fn apply(&self, x: &T, y: &T) -> T {
        self.op.apply(x, y)
    }
}

impl<T: ValueType + PartialEq> Monoid<T> {
    /// Declares a terminal *value* (annihilator), e.g. `true` for LOR.
    pub fn with_terminal(self, value: T) -> Self {
        self.with_terminal_pred(move |x| *x == value)
    }
}

impl<T: ValueType + Copy + std::ops::Add<Output = T> + Zero> Monoid<T> {
    /// `GrB_PLUS_MONOID_*`: (+, 0).
    pub fn plus() -> Self {
        let mut m = Monoid::new(BinaryOp::plus(), T::zero());
        m.builtin = Some(BuiltinOp::Plus);
        m
    }
}

impl<T: ValueType + Copy + std::ops::Mul<Output = T> + One> Monoid<T> {
    /// `GrB_TIMES_MONOID_*`: (×, 1). No terminal: integer 0 annihilates,
    /// but float 0 does not (0 × NaN ≠ 0), so we stay conservative.
    pub fn times() -> Self {
        let mut m = Monoid::new(BinaryOp::times(), T::one());
        m.builtin = Some(BuiltinOp::Times);
        m
    }
}

impl<T: ValueType + Copy + PartialOrd + BoundedValue + PartialEq> Monoid<T> {
    /// `GrB_MIN_MONOID_*`: (min, +∞) with terminal −∞.
    pub fn min() -> Self {
        let mut m = Monoid::new(BinaryOp::min(), T::max_value()).with_terminal(T::min_value());
        m.builtin = Some(BuiltinOp::Min);
        m
    }

    /// `GrB_MAX_MONOID_*`: (max, −∞) with terminal +∞.
    pub fn max() -> Self {
        let mut m = Monoid::new(BinaryOp::max(), T::min_value()).with_terminal(T::max_value());
        m.builtin = Some(BuiltinOp::Max);
        m
    }
}

impl<T: ValueType + Zero> Monoid<T> {
    /// `GxB_ANY_MONOID_*`: keeps whichever operand arrives first; every
    /// value is terminal (a reduction may stop at the first hit). The
    /// workhorse add monoid of structural semirings (`any_pair`), where
    /// only *presence* matters and the first witness wins.
    pub fn any() -> Self {
        let mut m = Monoid::new(BinaryOp::any(), T::zero()).with_terminal_pred(|_| true);
        m.builtin = Some(BuiltinOp::Any);
        m
    }
}

impl Monoid<bool> {
    /// `GrB_LOR_MONOID_BOOL`: (∨, false) with terminal true.
    pub fn lor() -> Self {
        let mut m = Monoid::new(BinaryOp::lor(), false).with_terminal(true);
        m.builtin = Some(BuiltinOp::LOr);
        m
    }

    /// `GrB_LAND_MONOID_BOOL`: (∧, true) with terminal false.
    pub fn land() -> Self {
        let mut m = Monoid::new(BinaryOp::land(), true).with_terminal(false);
        m.builtin = Some(BuiltinOp::LAnd);
        m
    }

    /// `GrB_LXOR_MONOID_BOOL`: (⊕, false).
    pub fn lxor() -> Self {
        Monoid::new(BinaryOp::lxor(), false)
    }

    /// `GrB_LXNOR_MONOID_BOOL`: (=, true).
    pub fn lxnor() -> Self {
        Monoid::new(BinaryOp::lxnor(), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predefined_identities() {
        assert_eq!(*Monoid::<i64>::plus().identity(), 0);
        assert_eq!(*Monoid::<f64>::times().identity(), 1.0);
        assert_eq!(*Monoid::<i32>::min().identity(), i32::MAX);
        assert_eq!(*Monoid::<u8>::max().identity(), 0);
        assert!(!*Monoid::lor().identity());
        assert!(*Monoid::land().identity());
    }

    #[test]
    fn terminals() {
        let lor = Monoid::lor();
        assert!(lor.terminal().unwrap()(&true));
        assert!(!lor.terminal().unwrap()(&false));
        let min = Monoid::<i32>::min();
        assert!(min.terminal().unwrap()(&i32::MIN));
        assert!(Monoid::<i64>::plus().terminal().is_none());
    }

    #[test]
    fn identity_laws_spot_check() {
        let m = Monoid::<i32>::plus();
        for x in [-5, 0, 42] {
            assert_eq!(m.apply(m.identity(), &x), x);
            assert_eq!(m.apply(&x, m.identity()), x);
        }
    }

    #[test]
    fn scalar_identity_variant() {
        let s = Scalar::<i64>::new().unwrap();
        // Empty scalar → EmptyObject execution error.
        let err = Monoid::new_scalar(BinaryOp::plus(), &s).unwrap_err();
        assert_eq!(err.code(), -106);
        s.set_element(7).unwrap();
        let m = Monoid::new_scalar(BinaryOp::plus(), &s).unwrap();
        assert_eq!(*m.identity(), 7);
    }

    #[test]
    fn custom_monoid_with_terminal_pred() {
        let sat = Monoid::new(
            BinaryOp::<u32, u32, u32>::new("sat_add", |a, b| a.saturating_add(*b)),
            0,
        )
        .with_terminal_pred(|x| *x == u32::MAX);
        assert_eq!(sat.apply(&u32::MAX, &5), u32::MAX);
        assert!(sat.terminal().unwrap()(&u32::MAX));
    }
}
