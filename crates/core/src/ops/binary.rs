//! Binary operators (`GrB_BinaryOp`): `z = f(x, y)`.

use std::sync::Arc;

use crate::types::{One, ValueType};

/// Identity tag for the predefined operators: which builtin a
/// `BinaryOp`/`Monoid` *is*, independent of the erased closure it holds.
///
/// The monomorphized kernel registry (`crate::ops::registry`) keys its
/// dispatch table on these tags: a semiring whose add monoid and multiply
/// op both carry a registered tag (over a registered scalar type) runs the
/// pre-instantiated static kernel instead of calling through `Arc<dyn Fn>`
/// per scalar (paper §II). User-defined operators (`new`) carry no tag and
/// always take the dynamic path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuiltinOp {
    /// `GrB_FIRST`: z = x.
    First,
    /// `GrB_SECOND`: z = y.
    Second,
    /// `GrB_ONEB` / PAIR: z = 1.
    OneB,
    /// `GrB_PLUS`.
    Plus,
    /// `GrB_MINUS`.
    Minus,
    /// `GrB_TIMES`.
    Times,
    /// `GrB_DIV`.
    Div,
    /// `GrB_MIN`.
    Min,
    /// `GrB_MAX`.
    Max,
    /// `GrB_LOR`.
    LOr,
    /// `GrB_LAND`.
    LAnd,
    /// `GrB_LXOR`.
    LXor,
    /// `GrB_LXNOR`.
    LXnor,
    /// `GrB_EQ`.
    Eq,
    /// `GrB_NE`.
    Ne,
    /// `GrB_LT`.
    Lt,
    /// `GrB_LE`.
    Le,
    /// `GrB_GT`.
    Gt,
    /// `GrB_GE`.
    Ge,
    /// `GxB_ANY`: z = either operand (this implementation keeps x).
    Any,
}

impl BuiltinOp {
    /// The builtin that computes `f(y, x)` where `self` computes `f(x, y)`:
    /// FIRST and SECOND trade places, the exactly commutative operators are
    /// their own flip. `None` where no builtin does it bit for bit (MINUS,
    /// DIV, the orderings; MIN/MAX/ANY keep their *first* operand on a tie).
    /// `vxm` uses this to hand the kernel registry its multiply matrix
    /// element first.
    pub fn flipped(self) -> Option<BuiltinOp> {
        use BuiltinOp::*;
        match self {
            First => Some(Second),
            Second => Some(First),
            OneB | Plus | Times | LOr | LAnd | LXor | LXnor | Eq | Ne => Some(self),
            Minus | Div | Min | Max | Lt | Le | Gt | Ge | Any => None,
        }
    }
}

/// A binary operator over domains `A × B → Z`.
#[derive(Clone)]
pub struct BinaryOp<A, B, Z> {
    name: &'static str,
    builtin: Option<BuiltinOp>,
    f: Arc<dyn Fn(&A, &B) -> Z + Send + Sync>,
}

impl<A, B, Z> std::fmt::Debug for BinaryOp<A, B, Z> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BinaryOp({})", self.name)
    }
}

impl<A: ValueType, B: ValueType, Z: ValueType> BinaryOp<A, B, Z> {
    /// Creates a user-defined operator (`GrB_BinaryOp_new`). User operators
    /// carry no builtin tag, so the kernel registry never claims them.
    pub fn new(name: &'static str, f: impl Fn(&A, &B) -> Z + Send + Sync + 'static) -> Self {
        BinaryOp {
            name,
            builtin: None,
            f: Arc::new(f),
        }
    }

    /// Internal constructor for the predefined operators: same closure
    /// erasure as [`BinaryOp::new`], plus the registry identity tag.
    fn tagged(
        name: &'static str,
        builtin: BuiltinOp,
        f: impl Fn(&A, &B) -> Z + Send + Sync + 'static,
    ) -> Self {
        BinaryOp {
            name,
            builtin: Some(builtin),
            f: Arc::new(f),
        }
    }

    /// Applies the operator to one pair.
    #[inline]
    pub fn apply(&self, x: &A, y: &B) -> Z {
        (self.f)(x, y)
    }
}

impl<A, B, Z> BinaryOp<A, B, Z> {
    /// The operator name (diagnostics only).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The builtin identity tag, if this operator is one of the predefined
    /// ones (the kernel-registry dispatch key). `None` for user operators.
    #[inline]
    pub fn builtin(&self) -> Option<BuiltinOp> {
        self.builtin
    }
}

impl<A: ValueType, B: ValueType> BinaryOp<A, B, A> {
    /// `GrB_FIRST_*`: z = x.
    pub fn first() -> Self {
        BinaryOp::tagged("GrB_FIRST", BuiltinOp::First, |x: &A, _: &B| x.clone())
    }
}

impl<A: ValueType, B: ValueType> BinaryOp<A, B, B> {
    /// `GrB_SECOND_*`: z = y.
    pub fn second() -> Self {
        BinaryOp::tagged("GrB_SECOND", BuiltinOp::Second, |_: &A, y: &B| y.clone())
    }
}

impl<A: ValueType, B: ValueType, Z: ValueType + One> BinaryOp<A, B, Z> {
    /// `GrB_ONEB_*` (a.k.a. PAIR): z = 1 whenever both operands exist.
    pub fn oneb() -> Self {
        BinaryOp::tagged("GrB_ONEB", BuiltinOp::OneB, |_: &A, _: &B| Z::one())
    }
}

impl<T: ValueType> BinaryOp<T, T, T> {
    /// `GxB_ANY_*`: z = either operand; this implementation keeps `x`, so
    /// reductions keep whichever value they saw first.
    pub fn any() -> Self {
        BinaryOp::tagged("GxB_ANY", BuiltinOp::Any, |x: &T, _: &T| x.clone())
    }
}

impl<T: ValueType + Copy + std::ops::Add<Output = T>> BinaryOp<T, T, T> {
    /// `GrB_PLUS_*`.
    pub fn plus() -> Self {
        BinaryOp::tagged("GrB_PLUS", BuiltinOp::Plus, |x: &T, y: &T| *x + *y)
    }
}

impl<T: ValueType + Copy + std::ops::Sub<Output = T>> BinaryOp<T, T, T> {
    /// `GrB_MINUS_*`.
    pub fn minus() -> Self {
        BinaryOp::tagged("GrB_MINUS", BuiltinOp::Minus, |x: &T, y: &T| *x - *y)
    }
}

impl<T: ValueType + Copy + std::ops::Mul<Output = T>> BinaryOp<T, T, T> {
    /// `GrB_TIMES_*`.
    pub fn times() -> Self {
        BinaryOp::tagged("GrB_TIMES", BuiltinOp::Times, |x: &T, y: &T| *x * *y)
    }
}

impl<T: ValueType + Copy + std::ops::Div<Output = T>> BinaryOp<T, T, T> {
    /// `GrB_DIV_*`.
    pub fn div() -> Self {
        BinaryOp::tagged("GrB_DIV", BuiltinOp::Div, |x: &T, y: &T| *x / *y)
    }
}

impl<T: ValueType + Copy + PartialOrd> BinaryOp<T, T, T> {
    /// `GrB_MIN_*`.
    pub fn min() -> Self {
        BinaryOp::tagged(
            "GrB_MIN",
            BuiltinOp::Min,
            |x: &T, y: &T| if y < x { *y } else { *x },
        )
    }

    /// `GrB_MAX_*`.
    pub fn max() -> Self {
        BinaryOp::tagged(
            "GrB_MAX",
            BuiltinOp::Max,
            |x: &T, y: &T| if y > x { *y } else { *x },
        )
    }
}

impl BinaryOp<bool, bool, bool> {
    /// `GrB_LOR`.
    pub fn lor() -> Self {
        BinaryOp::tagged("GrB_LOR", BuiltinOp::LOr, |x: &bool, y: &bool| *x || *y)
    }

    /// `GrB_LAND`.
    pub fn land() -> Self {
        BinaryOp::tagged("GrB_LAND", BuiltinOp::LAnd, |x: &bool, y: &bool| *x && *y)
    }

    /// `GrB_LXOR`.
    pub fn lxor() -> Self {
        BinaryOp::tagged("GrB_LXOR", BuiltinOp::LXor, |x: &bool, y: &bool| *x != *y)
    }

    /// `GrB_LXNOR`.
    pub fn lxnor() -> Self {
        BinaryOp::tagged("GrB_LXNOR", BuiltinOp::LXnor, |x: &bool, y: &bool| *x == *y)
    }
}

impl<T: ValueType + PartialEq> BinaryOp<T, T, bool> {
    /// `GrB_EQ_*`.
    pub fn eq() -> Self {
        BinaryOp::tagged("GrB_EQ", BuiltinOp::Eq, |x: &T, y: &T| x == y)
    }

    /// `GrB_NE_*`.
    pub fn ne() -> Self {
        BinaryOp::tagged("GrB_NE", BuiltinOp::Ne, |x: &T, y: &T| x != y)
    }
}

impl<T: ValueType + PartialOrd> BinaryOp<T, T, bool> {
    /// `GrB_LT_*`.
    pub fn lt() -> Self {
        BinaryOp::tagged("GrB_LT", BuiltinOp::Lt, |x: &T, y: &T| x < y)
    }

    /// `GrB_LE_*`.
    pub fn le() -> Self {
        BinaryOp::tagged("GrB_LE", BuiltinOp::Le, |x: &T, y: &T| x <= y)
    }

    /// `GrB_GT_*`.
    pub fn gt() -> Self {
        BinaryOp::tagged("GrB_GT", BuiltinOp::Gt, |x: &T, y: &T| x > y)
    }

    /// `GrB_GE_*`.
    pub fn ge() -> Self {
        BinaryOp::tagged("GrB_GE", BuiltinOp::Ge, |x: &T, y: &T| x >= y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        assert_eq!(BinaryOp::<i32, i32, i32>::plus().apply(&2, &3), 5);
        assert_eq!(BinaryOp::<i32, i32, i32>::minus().apply(&2, &3), -1);
        assert_eq!(BinaryOp::<f64, f64, f64>::times().apply(&2.0, &3.0), 6.0);
        assert_eq!(BinaryOp::<f64, f64, f64>::div().apply(&3.0, &2.0), 1.5);
        assert_eq!(BinaryOp::<u8, u8, u8>::min().apply(&2, &3), 2);
        assert_eq!(BinaryOp::<u8, u8, u8>::max().apply(&2, &3), 3);
    }

    #[test]
    fn selection_and_pair() {
        assert_eq!(BinaryOp::<i32, f64, i32>::first().apply(&7, &1.5), 7);
        assert_eq!(BinaryOp::<i32, f64, f64>::second().apply(&7, &1.5), 1.5);
        assert_eq!(BinaryOp::<i32, f64, u8>::oneb().apply(&7, &1.5), 1);
    }

    #[test]
    fn logic_and_comparison() {
        assert!(BinaryOp::lor().apply(&true, &false));
        assert!(!BinaryOp::land().apply(&true, &false));
        assert!(BinaryOp::lxor().apply(&true, &false));
        assert!(!BinaryOp::lxnor().apply(&true, &false));
        assert!(BinaryOp::<i32, i32, bool>::eq().apply(&4, &4));
        assert!(BinaryOp::<i32, i32, bool>::lt().apply(&3, &4));
        assert!(BinaryOp::<i32, i32, bool>::ge().apply(&4, &4));
    }

    #[test]
    fn user_defined_mixed_domains() {
        let weigh = BinaryOp::<String, u32, usize>::new("len_times", |s, k| s.len() * *k as usize);
        assert_eq!(weigh.apply(&"abc".to_string(), &3), 9);
    }
}
