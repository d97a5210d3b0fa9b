//! The `GrB_Scalar` object (paper §VI, Table I) — new in GraphBLAS 2.0.
//!
//! An opaque, possibly **empty** container for a single element of a
//! domain. Its two purposes per the paper:
//!
//! 1. collapse the per-type nonpolymorphic method variants (a `Scalar<T>`
//!    carries its domain in its type, so `true`-is-`int` style bugs are
//!    impossible), and
//! 2. make deferral uniform: `extractElement` into a scalar can return an
//!    *empty* scalar instead of a `GrB_NO_VALUE` code, and `reduce` into a
//!    scalar can stay pending in nonblocking mode — so scalars carry a
//!    pending-operation queue exactly like matrices and vectors.

use std::sync::Arc;

use graphblas_exec::Context;

use crate::container::{Container, State, Store};
use crate::error::{Error, ExecErrorKind, GrbResult};
use crate::introspect::{CheckError, ObjectStats};
use crate::pending::{fuse_maps, MapFn, WaitMode};
use crate::types::ValueType;

/// The scalar's store is the possibly-empty value itself: no Table III
/// format to verify and no buffer to charge to the memory ledger.
impl<T: ValueType> Store for Option<T> {
    type Elem = T;
    const KIND: &'static str = "scalar";
    const DRAIN_SITE: &'static str = "scalar.drain";

    fn bytes(&self) -> u64 {
        0
    }

    fn map_run(st: &mut State<Self>, _ctx: &Context, run: &[MapFn<T>]) -> GrbResult<(u64, u64)> {
        let before = u64::from(st.is_some());
        **st = st.take().and_then(|v| fuse_maps(run, &[], &v));
        Ok((before, u64::from(st.is_some())))
    }

    fn check(&self) -> Result<(), CheckError> {
        Ok(())
    }
}

/// An opaque handle to a GraphBLAS scalar. Clones share the underlying
/// object (like copied `GrB_Scalar` handles in C).
#[derive(Clone)]
pub struct Scalar<T: ValueType> {
    pub(crate) core: Arc<Container<Option<T>>>,
}

impl<T: ValueType> crate::introspect::Check for Scalar<T> {
    /// Deep validation (`grb_check`): verifies the §V rule that a poisoned
    /// scalar holds no pending stages, without forcing completion.
    fn grb_check(&self) -> Result<(), CheckError> {
        self.core.lock_raw().check()
    }
}

impl<T: ValueType> std::fmt::Debug for Scalar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scalar<{}>", std::any::type_name::<T>())
    }
}

impl<T: ValueType> Scalar<T> {
    /// `GrB_Scalar_new`: creates an empty scalar in the global context.
    ///
    /// # Examples
    ///
    /// ```
    /// use graphblas_core::Scalar;
    /// let s = Scalar::<i64>::new()?;
    /// assert_eq!(s.nvals()?, 0);          // scalars can be EMPTY (§VI)
    /// s.set_element(42)?;
    /// assert_eq!(s.extract_element()?, Some(42));
    /// # Ok::<(), graphblas_core::Error>(())
    /// ```
    pub fn new() -> GrbResult<Self> {
        Self::new_in(&graphblas_exec::global_context())
    }

    /// Creates an empty scalar bound to `ctx` (§IV context-aware
    /// constructor).
    pub fn new_in(ctx: &Context) -> GrbResult<Self> {
        Ok(Scalar {
            core: Container::new(ctx, None),
        })
    }

    /// `GrB_Scalar_dup`: duplicates into a new scalar (completing first).
    pub fn dup(&self) -> GrbResult<Self> {
        let v = self.extract_element()?;
        let out = Self::new_in(&self.context())?;
        if let Some(v) = v {
            out.set_element(v)?;
        }
        Ok(out)
    }

    /// The context this scalar belongs to.
    pub fn context(&self) -> Context {
        self.core.context()
    }

    /// `GrB_Context_switch` for scalars.
    pub fn switch_context(&self, ctx: &Context) -> GrbResult {
        self.core.switch_context(ctx)
    }

    /// `GrB_Scalar_clear`: empties the scalar (also clears any pending
    /// operations and a sticky error state — the object is rebuilt).
    pub fn clear(&self) -> GrbResult {
        let mut st = self.core.lock_raw();
        st.reset();
        **st = None;
        Ok(())
    }

    /// `GrB_Scalar_nvals`: 0 or 1. Forces completion.
    pub fn nvals(&self) -> GrbResult<usize> {
        Ok(usize::from(self.core.lock_completed()?.is_some()))
    }

    /// `GrB_Scalar_setElement`. Replaces any pending sequence: the store
    /// becomes exactly this value.
    pub fn set_element(&self, v: T) -> GrbResult {
        let mut st = self.core.lock_raw();
        st.poisoned()?;
        // A plain overwrite makes earlier deferred computations on this
        // scalar unobservable; drop them rather than run them for nothing.
        st.reset();
        **st = Some(v);
        Ok(())
    }

    /// `GrB_Scalar_extractElement`: `Ok(None)` plays the role of the C
    /// API's `GrB_NO_VALUE` return. Forces completion.
    pub fn extract_element(&self) -> GrbResult<Option<T>> {
        let st = self.core.lock_completed()?;
        Ok((**st).clone())
    }

    /// `GrB_wait` on a scalar. Both modes drain the pending queue; a
    /// materializing wait additionally guarantees no further errors can be
    /// reported from the drained sequence (trivially true here once the
    /// queue is empty).
    pub fn wait(&self, _mode: WaitMode) -> GrbResult {
        self.core.lock_completed_as("wait").map(drop)
    }

    /// `GrB_error`: implementation-defined description of this object's
    /// error state (empty string when healthy).
    pub fn error_string(&self) -> String {
        self.core.error_string()
    }

    /// Whether this handle and `other` denote the same object.
    pub fn same_object(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }

    /// `GrB_get`-style introspection without forcing completion (see
    /// [`Matrix::stats`](crate::matrix::Matrix::stats)).
    pub fn stats(&self) -> ObjectStats {
        let st = self.core.lock_raw();
        st.stats((1, 1), usize::from(st.is_some()), "scalar")
    }

    /// The value of a scalar passed where Table II requires a non-empty
    /// one: an empty scalar is a `GrB_EMPTY_OBJECT` execution error.
    pub(crate) fn value(&self) -> GrbResult<T> {
        self.extract_element()?.ok_or_else(|| {
            Error::exec(
                ExecErrorKind::EmptyObject,
                "operation requires a non-empty GrB_Scalar argument",
            )
        })
    }

    /// Validates that this scalar shares `ctx` (§IV same-context rule).
    pub(crate) fn check_context(&self, ctx: &Context) -> GrbResult {
        self.core.check_context(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lifecycle() {
        // new → empty
        let s = Scalar::<i64>::new().unwrap();
        assert_eq!(s.nvals().unwrap(), 0);
        assert_eq!(s.extract_element().unwrap(), None);
        // setElement → full
        s.set_element(42).unwrap();
        assert_eq!(s.nvals().unwrap(), 1);
        assert_eq!(s.extract_element().unwrap(), Some(42));
        // dup copies value into a distinct object
        let d = s.dup().unwrap();
        assert!(!d.same_object(&s));
        assert_eq!(d.extract_element().unwrap(), Some(42));
        s.set_element(1).unwrap();
        assert_eq!(d.extract_element().unwrap(), Some(42));
        // clear → empty again
        s.clear().unwrap();
        assert_eq!(s.nvals().unwrap(), 0);
    }

    #[test]
    fn dup_of_empty_is_empty() {
        let s = Scalar::<f32>::new().unwrap();
        let d = s.dup().unwrap();
        assert_eq!(d.nvals().unwrap(), 0);
    }

    #[test]
    fn handles_share_state() {
        let s = Scalar::<u8>::new().unwrap();
        let alias = s.clone();
        s.set_element(9).unwrap();
        assert_eq!(alias.extract_element().unwrap(), Some(9));
        assert!(alias.same_object(&s));
    }

    #[test]
    fn overwrite_replaces_value() {
        let s = Scalar::<String>::new().unwrap();
        s.set_element("a".into()).unwrap();
        s.set_element("b".into()).unwrap();
        assert_eq!(s.extract_element().unwrap().as_deref(), Some("b"));
    }

    #[test]
    fn error_string_empty_when_healthy() {
        let s = Scalar::<i32>::new().unwrap();
        assert_eq!(s.error_string(), "");
    }
}
