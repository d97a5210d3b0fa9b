//! The `GrB_Vector` container — the one-dimensional sibling of
//! [`Matrix`](crate::matrix::Matrix): a typed façade over the same
//! container core (see `container.rs`), holding the vector store and the
//! `GrB_Vector_*` methods.

use std::sync::Arc;

use graphblas_exec::Context;
use graphblas_obs::VecFormat;
use graphblas_sparse::{DenseVec, SparseVec, VecOut, VecView};

use crate::container::{Container, State, Store};
use crate::error::{ApiError, Error, GrbResult};
use crate::introspect::{CheckError, ObjectStats};
use crate::ops::BinaryOp;
use crate::pending::{fuse_maps, MapFn, WaitMode};
use crate::scalar::Scalar;
use crate::types::{Index, ValueType};

/// The lazy internal storage of a vector.
pub(crate) enum VecStore<T: ValueType> {
    /// Possibly unsorted / duplicated (fast `setElement` appends resolve
    /// last-wins at canonicalization).
    Sparse(Arc<SparseVec<T>>),
    /// Table III dense format (`stats().format == "full"`): every position
    /// present, no index array. Every result that stores all `n` positions
    /// lands here (see [`VecStore::pick`]).
    Dense(Arc<DenseVec<T>>),
}

impl<T: ValueType> Clone for VecStore<T> {
    fn clone(&self) -> Self {
        match self {
            VecStore::Sparse(a) => VecStore::Sparse(a.clone()),
            VecStore::Dense(a) => VecStore::Dense(a.clone()),
        }
    }
}

impl<T: ValueType> VecStore<T> {
    /// Allocated buffer bytes of the current store (see the matrix
    /// `Store::bytes` for the shared-storage caveat).
    pub(crate) fn bytes(&self) -> u64 {
        match self {
            VecStore::Sparse(a) => a.bytes(),
            VecStore::Dense(a) => a.bytes(),
        }
    }

    /// The Table III format choice for a result `t`: *full* when it stores
    /// every position (`nnz == n` — no threshold), *sparse* otherwise.
    /// Records the decision (counter + provenance event) when telemetry is
    /// on.
    pub(crate) fn pick(op: &'static str, ctx_id: u64, t: VecOut<T>) -> Self {
        let (nnz, len) = (t.nnz() as u64, t.len() as u64);
        let (store, format) = match t.densest() {
            VecOut::Full(d) => (VecStore::Dense(Arc::new(d)), VecFormat::Full),
            VecOut::Sparse(s) => (VecStore::Sparse(Arc::new(s)), VecFormat::Sparse),
        };
        if graphblas_obs::enabled() {
            graphblas_obs::counters::record_format_pick(format);
            graphblas_obs::events::decision_format(op, ctx_id, format, nnz, len);
        }
        store
    }
}

/// A completed vector operand, as the [`VecView`] kernels read it: full
/// stays full, a sparse store is canonical.
pub(crate) enum VecSnap<T: ValueType> {
    Sparse(Arc<SparseVec<T>>),
    Full(Arc<DenseVec<T>>),
}

impl<T: ValueType> VecSnap<T> {
    pub(crate) fn view(&self) -> VecView<'_, T> {
        match self {
            VecSnap::Sparse(s) => VecView::Sparse(s),
            VecSnap::Full(d) => VecView::Full(d),
        }
    }

    pub(crate) fn nnz(&self) -> usize {
        self.view().nnz()
    }
}

pub(crate) struct VectorState<T: ValueType> {
    pub n: usize,
    pub store: VecStore<T>,
}

impl<T: ValueType> VectorState<T> {
    /// Borrows the sparse store (call `ensure_sparse` first).
    pub(crate) fn sparse(&self) -> &Arc<SparseVec<T>> {
        match &self.store {
            VecStore::Sparse(a) => a,
            _ => unreachable!("ensure_sparse must precede sparse()"),
        }
    }

    /// The store as a kernel operand (call `ensure_view` first).
    pub(crate) fn snap(&self) -> VecSnap<T> {
        match &self.store {
            VecStore::Dense(d) => VecSnap::Full(d.clone()),
            _ => VecSnap::Sparse(self.sparse().clone()),
        }
    }

    /// Takes a full store's values out for an in-place kernel, when this
    /// vector is their only owner (no snapshot still shares them). The
    /// caller stores its result next; until then the store is a hollow
    /// shell. `None`, and nothing taken, otherwise.
    pub(crate) fn take_full(&mut self) -> Option<DenseVec<T>> {
        let VecStore::Dense(d) = &mut self.store else {
            return None;
        };
        let own = Arc::get_mut(d)?;
        Some(std::mem::replace(own, DenseVec::from_values(Vec::new())))
    }
}

impl<T: ValueType> State<VectorState<T>> {
    /// Brings the store to a format the [`VecView`] kernels read: a full
    /// store stays as it is, everything else canonicalizes to sparse.
    pub(crate) fn ensure_view(&mut self) -> GrbResult {
        match self.store {
            VecStore::Dense(_) => Ok(()),
            _ => self.ensure_sparse(),
        }
    }

    /// Canonicalizes to a sorted, duplicate-free sparse store.
    pub(crate) fn ensure_sparse(&mut self) -> GrbResult {
        // Which real work the canonicalization did, for the provenance log.
        let mut src_format: Option<&'static str> = None;
        let sv: Arc<SparseVec<T>> = match &self.store {
            VecStore::Sparse(a) => {
                if a.is_sorted() {
                    a.clone()
                } else {
                    src_format = Some("unsorted");
                    let mut owned = (**a).clone();
                    owned
                        .sort_dedup(Some(&|_: &T, b: &T| b.clone()))
                        .map_err(Error::from)?;
                    Arc::new(owned)
                }
            }
            VecStore::Dense(d) => {
                src_format = Some("dense");
                Arc::new(d.to_sparse())
            }
        };
        if let Some(src) = src_format.filter(|_| graphblas_obs::enabled()) {
            if src != "unsorted" {
                graphblas_obs::counters::record_format_conversion();
            }
            let (ctx, nnz) = (self.ctx_id(), sv.nnz() as u64);
            graphblas_obs::events::decision_convert_sparse("vector", ctx, src, nnz);
        }
        self.store = VecStore::Sparse(sv);
        self.debug_check();
        Ok(())
    }
}

impl<T: ValueType> Store for VectorState<T> {
    type Elem = T;
    const KIND: &'static str = "vector";
    const DRAIN_SITE: &'static str = "vector.drain";

    fn bytes(&self) -> u64 {
        self.store.bytes()
    }

    fn map_run(st: &mut State<Self>, _ctx: &Context, run: &[MapFn<T>]) -> GrbResult<(u64, u64)> {
        st.ensure_sparse()?;
        let out = st
            .sparse()
            .filter_map_with_index(|i, v| fuse_maps(run, &[i], v));
        let counts = (st.sparse().nnz() as u64, out.nnz() as u64);
        st.store = VecStore::Sparse(Arc::new(out));
        Ok(counts)
    }

    /// Table III invariants of the current store and store-vs-logical
    /// length agreement.
    fn check(&self) -> Result<(), CheckError> {
        let len = match &self.store {
            VecStore::Sparse(a) => {
                a.check().map_err(|source| CheckError::Format {
                    format: "sparse",
                    source,
                })?;
                a.len()
            }
            VecStore::Dense(a) => {
                a.check().map_err(|source| CheckError::Format {
                    format: "full",
                    source,
                })?;
                a.len()
            }
        };
        if len != self.n {
            return Err(CheckError::ShapeMismatch {
                logical: (self.n as u64, 1),
                store: (len as u64, 1),
            });
        }
        Ok(())
    }
}

/// An opaque handle to a GraphBLAS vector over domain `T`.
#[derive(Clone)]
pub struct Vector<T: ValueType> {
    pub(crate) core: Arc<Container<VectorState<T>>>,
}

impl<T: ValueType> std::fmt::Debug for Vector<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.core.lock_raw();
        write!(
            f,
            "Vector<{}>({}, pending: {})",
            std::any::type_name::<T>(),
            st.n,
            st.queued()
        )
    }
}

impl<T: ValueType> Vector<T> {
    /// `GrB_Vector_new`: an empty vector of positive length.
    pub fn new(n: Index) -> GrbResult<Self> {
        Self::new_in(&graphblas_exec::global_context(), n)
    }

    /// §IV context-aware constructor.
    pub fn new_in(ctx: &Context, n: Index) -> GrbResult<Self> {
        if n == 0 {
            return Err(ApiError::InvalidValue.into());
        }
        let store = VecStore::Sparse(Arc::new(SparseVec::empty(n)));
        Ok(Self::from_state(ctx, VectorState { n, store }))
    }

    pub(crate) fn from_state(ctx: &Context, state: VectorState<T>) -> Self {
        Vector {
            core: Container::new(ctx, state),
        }
    }

    /// `GrB_Vector_dup`.
    pub fn dup(&self) -> GrbResult<Self> {
        let ctx = self.context();
        let st = self.core.lock_completed()?;
        let state = VectorState {
            n: st.n,
            store: st.store.clone(),
        };
        drop(st);
        Ok(Self::from_state(&ctx, state))
    }

    pub fn context(&self) -> Context {
        self.core.context()
    }

    /// `GrB_Context_switch`.
    pub fn switch_context(&self, ctx: &Context) -> GrbResult {
        self.core.switch_context(ctx)
    }

    /// `GrB_Vector_size`.
    pub fn size(&self) -> Index {
        self.core.lock_raw().n
    }

    /// `GrB_Vector_nvals`. Forces completion but not canonicalization —
    /// a full store reports its count in place.
    pub fn nvals(&self) -> GrbResult<usize> {
        let mut st = self.core.lock_completed()?;
        if let VecStore::Dense(d) = &st.store {
            return Ok(d.len());
        }
        st.ensure_sparse()?;
        Ok(st.sparse().nnz())
    }

    /// `GrB_Vector_clear`: removes all elements, pending stages, and any
    /// sticky error.
    pub fn clear(&self) -> GrbResult {
        let mut st = self.core.lock_raw();
        st.reset();
        st.store = VecStore::Sparse(Arc::new(SparseVec::empty(st.n)));
        Ok(())
    }

    /// `GrB_Vector_resize`.
    pub fn resize(&self, n: Index) -> GrbResult {
        if n == 0 {
            return Err(ApiError::InvalidValue.into());
        }
        let mut st = self.core.lock_completed()?;
        st.ensure_sparse()?;
        let old = st.sparse().clone();
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, v) in old.iter() {
            if i < n {
                indices.push(i);
                values.push(v.clone());
            }
        }
        st.n = n;
        st.store = VecStore::Sparse(Arc::new(
            SparseVec::from_parts(n, indices, values).map_err(Error::from)?,
        ));
        Ok(())
    }

    /// `GrB_Vector_setElement`; scalar-index OOB is an immediate API error.
    pub fn set_element(&self, v: T, i: Index) -> GrbResult {
        let mut st = self.core.lock_completed()?;
        if i >= st.n {
            return Err(ApiError::InvalidIndex.into());
        }
        if !matches!(st.store, VecStore::Sparse(_)) {
            st.ensure_sparse()?;
        }
        if let VecStore::Sparse(sv) = &mut st.store {
            Arc::make_mut(sv).append(i, v).map_err(Error::from)?;
        }
        Ok(())
    }

    /// Table II scalar variant: empty scalar removes the element.
    pub fn set_element_scalar(&self, s: &Scalar<T>, i: Index) -> GrbResult {
        match s.extract_element()? {
            Some(v) => self.set_element(v, i),
            None => self.remove_element(i),
        }
    }

    /// `GrB_Vector_removeElement`.
    pub fn remove_element(&self, i: Index) -> GrbResult {
        let mut st = self.core.lock_completed()?;
        if i >= st.n {
            return Err(ApiError::InvalidIndex.into());
        }
        st.ensure_sparse()?;
        if let VecStore::Sparse(sv) = &mut st.store {
            // A uniquely owned store is edited in place; only a shared
            // (copy-on-write) one is cloned, and only when `i` is stored.
            if sv.get(i).is_some() {
                Arc::make_mut(sv).remove(i);
            }
        }
        Ok(())
    }

    /// `GrB_Vector_extractElement`: `Ok(None)` ≡ `GrB_NO_VALUE`.
    /// A full store is read in place: a point read never rewrites the
    /// store.
    pub fn extract_element(&self, i: Index) -> GrbResult<Option<T>> {
        let mut st = self.core.lock_completed()?;
        if i >= st.n {
            return Err(ApiError::InvalidIndex.into());
        }
        if let VecStore::Dense(d) = &st.store {
            return Ok(d.get(i).cloned());
        }
        st.ensure_sparse()?;
        Ok(st.sparse().get(i).cloned())
    }

    /// Table II scalar variant: missing element → empty scalar (§VI). The
    /// element is read now; in nonblocking mode only the write into the
    /// scalar is deferred into its sequence.
    pub fn extract_element_scalar(&self, s: &Scalar<T>, i: Index) -> GrbResult {
        s.check_context(&self.context())?;
        if i >= self.size() {
            return Err(ApiError::InvalidIndex.into());
        }
        let value = self.extract_element(i)?;
        s.core.apply_write(Box::new(move |slot| {
            **slot = value;
            Ok(())
        }))
    }

    /// `GrB_Vector_build` with optional `dup` (§IX).
    pub fn build(
        &self,
        indices: &[Index],
        values: &[T],
        dup: Option<&BinaryOp<T, T, T>>,
    ) -> GrbResult {
        if indices.len() != values.len() {
            return Err(ApiError::InvalidValue.into());
        }
        if self.nvals()? != 0 {
            return Err(ApiError::OutputNotEmpty.into());
        }
        let indices = indices.to_vec();
        let values = values.to_vec();
        let dup = dup.cloned();
        self.core.apply_write(Box::new(move |st| {
            let mut sv = SparseVec::from_parts(st.n, indices, values).map_err(Error::from)?;
            match &dup {
                Some(op) => sv
                    .sort_dedup(Some(&|a: &T, b: &T| op.apply(a, b)))
                    .map_err(Error::from)?,
                None => sv.sort_dedup(None).map_err(Error::from)?,
            }
            st.store = VecStore::Sparse(Arc::new(sv));
            Ok(())
        }))
    }

    /// `GrB_Vector_extractTuples`, ordered by index. A full store emits
    /// `(0..n, values)` and stays full.
    pub fn extract_tuples(&self) -> GrbResult<(Vec<Index>, Vec<T>)> {
        Ok(match self.snapshot_view()? {
            VecSnap::Sparse(sv) => (sv.indices().to_vec(), sv.values().to_vec()),
            VecSnap::Full(d) => ((0..d.len()).collect(), d.values().to_vec()),
        })
    }

    /// `GrB_wait` (§III, §V): the real barrier on the op DAG — forces the
    /// whole queued subgraph, after which the object can participate in a
    /// cross-thread happens-before edge.
    pub fn wait(&self, mode: WaitMode) -> GrbResult {
        let _sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::Wait, self.context().id());
        let mut st = self.core.lock_completed_as("wait")?;
        // A full store is canonical as it stands; a sparse one
        // materializes as the sorted index list.
        if mode == WaitMode::Materialize {
            st.ensure_view()?;
        }
        Ok(())
    }

    /// `GrB_get`-style introspection without forcing completion (see
    /// [`Matrix::stats`](crate::matrix::Matrix::stats)).
    pub fn stats(&self) -> ObjectStats {
        let st = self.core.lock_raw();
        let (format, nvals) = match &st.store {
            VecStore::Sparse(a) => ("sparse", a.nnz()),
            VecStore::Dense(a) => ("full", a.len()),
        };
        st.stats((st.n, 1), nvals, format)
    }

    /// `GrB_explain`-style decision provenance scoped to this vector's
    /// context subtree (see [`Matrix::explain`](crate::matrix::Matrix::explain)).
    pub fn explain(&self, last_n: usize) -> graphblas_obs::Explain {
        self.context().explain(last_n)
    }

    /// `GrB_error`.
    pub fn error_string(&self) -> String {
        self.core.error_string()
    }

    pub fn same_object(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }

    /// Number of queued stages (observability for tests/benches).
    pub fn pending_len(&self) -> usize {
        self.core.lock_raw().queued()
    }

    // --- crate-internal plumbing ------------------------------------------

    /// Completes and snapshots as a canonical sparse vector.
    pub(crate) fn snapshot_sparse(&self) -> GrbResult<Arc<SparseVec<T>>> {
        let mut st = self.core.lock_completed()?;
        st.ensure_sparse()?;
        Ok(st.sparse().clone())
    }

    /// Completes and snapshots as a [`VecView`] operand: a full store as it
    /// is, a sparse one canonicalized.
    pub(crate) fn snapshot_view(&self) -> GrbResult<VecSnap<T>> {
        let mut st = self.core.lock_completed()?;
        st.ensure_view()?;
        Ok(st.snap())
    }

    /// [`Vector::snapshot_view`] for an `mxv`/`vxm` input frontier. When
    /// this vector's queue is pure map stages the maps are *cloned* (cheap
    /// `Arc` bumps) and returned alongside the base frontier instead of
    /// being materialized — the consumer folds them into its kernel's
    /// operand lookup, so the intermediate traversal and allocation never
    /// happen. The queue is left intact: this vector's own later readers
    /// still see the maps (sequence order fixed the input values at call
    /// time either way). Any non-map stage forces a full drain (fallback:
    /// empty pre run).
    pub(crate) fn snapshot_frontier_fused(&self) -> GrbResult<(VecSnap<T>, Vec<MapFn<T>>)> {
        let ctx = self.context();
        let mut st = self.core.lock_raw();
        st.poisoned()?;
        let pre = match st.queued_maps() {
            Some(pre) => pre,
            None => {
                st.drain_as(&ctx, "self-input")?;
                Vec::new()
            }
        };
        st.ensure_view()?;
        Ok((st.snap(), pre))
    }

    /// Type-erased object identity (see `Container::addr`).
    pub(crate) fn addr(&self) -> usize {
        self.core.addr()
    }

    pub(crate) fn check_context(&self, ctx: &Context) -> GrbResult {
        self.core.check_context(ctx)
    }
}

impl<T: ValueType> crate::introspect::Check for Vector<T> {
    /// Deep validation (`grb_check`): the current store's Table III
    /// invariants, store-vs-logical length agreement, and §V error
    /// bookkeeping — without forcing completion.
    fn grb_check(&self) -> Result<(), CheckError> {
        self.core.lock_raw().check()
    }
}

impl<T: ValueType + std::fmt::Display> Vector<T> {
    /// Renders the vector as a one-line list with `.` for missing elements.
    pub fn to_display_string(&self) -> GrbResult<String> {
        let sv = self.snapshot_sparse()?;
        let table = sv.to_option_table();
        let mut out = String::from("[");
        for (i, slot) in table.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match slot {
                Some(v) => out.push_str(&format!("{v}")),
                None => out.push('.'),
            }
        }
        out.push(']');
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::{global_context, ContextOptions, Mode};

    #[test]
    fn new_validates_length() {
        assert!(Vector::<i32>::new(0).is_err());
        let v = Vector::<i32>::new(5).unwrap();
        assert_eq!(v.size(), 5);
        assert_eq!(v.nvals().unwrap(), 0);
    }

    #[test]
    fn element_lifecycle() {
        let v = Vector::<f64>::new(4).unwrap();
        v.set_element(1.5, 2).unwrap();
        assert_eq!(v.extract_element(2).unwrap(), Some(1.5));
        v.set_element(2.5, 2).unwrap();
        assert_eq!(v.extract_element(2).unwrap(), Some(2.5));
        assert_eq!(v.nvals().unwrap(), 1);
        v.remove_element(2).unwrap();
        assert_eq!(v.extract_element(2).unwrap(), None);
        assert!(v.set_element(0.0, 4).is_err());
        assert!(v.extract_element(4).is_err());
    }

    #[test]
    fn build_with_and_without_dup() {
        let v = Vector::<i64>::new(6).unwrap();
        v.build(&[1, 1, 4], &[10, 20, 40], Some(&BinaryOp::plus()))
            .unwrap();
        assert_eq!(v.extract_element(1).unwrap(), Some(30));
        assert_eq!(v.nvals().unwrap(), 2);
        let w = Vector::<i64>::new(6).unwrap();
        let err = w.build(&[1, 1], &[10, 20], None).unwrap_err();
        assert!(err.is_execution());
        let full = Vector::<i64>::new(6).unwrap();
        full.set_element(1, 0).unwrap();
        assert_eq!(
            full.build(&[1], &[1], None).unwrap_err(),
            Error::Api(ApiError::OutputNotEmpty)
        );
    }

    #[test]
    fn deferred_build_error_in_nonblocking() {
        let ctx = Context::new(
            &global_context(),
            Mode::NonBlocking,
            ContextOptions::default(),
        );
        let v = Vector::<i64>::new_in(&ctx, 3).unwrap();
        v.build(&[9], &[1], None).unwrap(); // deferred; index is data
        assert_eq!(v.pending_len(), 1);
        assert!(v.wait(WaitMode::Materialize).is_err());
        assert!(!v.error_string().is_empty());
        v.clear().unwrap();
        assert!(v.wait(WaitMode::Complete).is_ok());
    }

    #[test]
    fn tuples_and_resize() {
        let v = Vector::<u8>::new(5).unwrap();
        v.build(&[0, 3], &[7, 9], None).unwrap();
        let (idx, vals) = v.extract_tuples().unwrap();
        assert_eq!(idx, vec![0, 3]);
        assert_eq!(vals, vec![7, 9]);
        v.resize(2).unwrap();
        assert_eq!(v.size(), 2);
        assert_eq!(v.nvals().unwrap(), 1);
    }

    #[test]
    fn scalar_variants() {
        let v = Vector::<i32>::new(3).unwrap();
        let s = Scalar::<i32>::new().unwrap();
        s.set_element(5).unwrap();
        v.set_element_scalar(&s, 1).unwrap();
        assert_eq!(v.extract_element(1).unwrap(), Some(5));
        let out = Scalar::<i32>::new().unwrap();
        v.extract_element_scalar(&out, 1).unwrap();
        assert_eq!(out.extract_element().unwrap(), Some(5));
        let missing = Scalar::<i32>::new().unwrap();
        v.extract_element_scalar(&missing, 0).unwrap();
        assert_eq!(missing.nvals().unwrap(), 0);
        let empty = Scalar::<i32>::new().unwrap();
        v.set_element_scalar(&empty, 1).unwrap();
        assert_eq!(v.extract_element(1).unwrap(), None);
    }

    #[test]
    fn dup_independence() {
        let v = Vector::<i32>::new(2).unwrap();
        v.set_element(1, 0).unwrap();
        let d = v.dup().unwrap();
        v.set_element(2, 0).unwrap();
        assert_eq!(d.extract_element(0).unwrap(), Some(1));
    }
}
