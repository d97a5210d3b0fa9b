//! The GraphBLAS operations: `mxm`, `mxv`/`vxm`, element-wise add/mult,
//! `apply` (including the §VIII index-unary variants), `select`, `reduce`,
//! `extract`, `assign`, `transpose`, and `kronecker` — each with the full
//! mask / accumulator / descriptor write semantics and the Table II
//! `GrB_Scalar` variants.
//!
//! Every one of them is "compute `T`" in front of the one shared pipeline,
//! [`Op`].

pub mod apply;
pub mod assign;
pub mod ewise;
pub mod extract;
pub mod kron;
pub mod mxm;
pub mod mxv;
pub mod reduce;
pub mod select;
pub mod transpose;

pub use apply::{
    apply, apply_binop1st, apply_binop1st_scalar, apply_binop1st_v, apply_binop1st_v_scalar,
    apply_binop2nd, apply_binop2nd_scalar, apply_binop2nd_v, apply_binop2nd_v_scalar,
    apply_indexop, apply_indexop_scalar, apply_indexop_v, apply_indexop_v_scalar, apply_v,
};
pub use assign::{
    assign, assign_col, assign_row, assign_scalar, assign_scalar_grb, assign_scalar_v,
    assign_scalar_v_grb, assign_v,
};
pub use ewise::{
    ewise_add, ewise_add_monoid, ewise_add_semiring, ewise_add_v, ewise_mult, ewise_mult_semiring,
    ewise_mult_v,
};
pub use extract::{extract, extract_col, extract_v};
pub use kron::kronecker;
pub use mxm::mxm;
pub use mxv::{force_direction, mxv, vxm, Direction};
pub use reduce::{
    reduce_scalar, reduce_scalar_binop, reduce_scalar_binop_v, reduce_scalar_v, reduce_to_value,
    reduce_to_value_v, reduce_to_vector,
};
pub use select::{select, select_scalar, select_v, select_v_scalar};
pub use transpose::transpose;

use std::sync::Arc;

use graphblas_exec::Context;
use graphblas_sparse::Csr;

use crate::container::{Container, State};
use crate::descriptor::Descriptor;
use crate::error::GrbResult;
use crate::matrix::Matrix;
use crate::ops::BinaryOp;
use crate::pending::{MapFn, NodeKind};
use crate::types::{Index, ValueType};
use crate::write::{MaskSource, Rule, Target};

/// `GrB_ALL`: the selector meaning "every index, in order", whatever the
/// dimension. As in the C API it is a sentinel — `assign` recognises this
/// very slice by address (never a slice that merely looks like it) and
/// neither materialises nor checks an index list; anywhere else it is the
/// one-element list it appears to be.
pub static ALL: &[Index] = &[Index::MAX];

/// The explicit index list `0..n`: what [`ALL`] stands for, spelled out.
pub fn all_indices(n: usize) -> Vec<Index> {
    (0..n).collect()
}

/// Whether `indices` is the [`ALL`] sentinel itself.
pub(crate) fn is_all(indices: &[Index]) -> bool {
    std::ptr::eq(indices, ALL)
}

/// An optional accumulator over the output's domain.
pub(crate) type Accum<'a, T> = Option<&'a BinaryOp<T, T, T>>;

/// One `C⟨M, r⟩ = C ⊙ T` call, from its public entry to its enqueue. Every
/// operation follows the same lifecycle, and this is its one home:
///
/// 1. **API validation** (contexts §IV, shapes) — errors here are
///    deterministic, immediate, and side-effect free (§V). [`Op::begin`]
///    looks up the output's context, opens the entry's one `op.<name>`
///    span and validates the mask; the operation validates its operands
///    against [`Op::ctx`]. A call with several errors reports the first in
///    that order: mask context, mask shape, an empty Table II `GrB_Scalar`
///    argument, then each operand's context and shape in argument order;
/// 2. **input snapshots** — operands are completed and snapshotted *at
///    call time*, fixing their value at this point of the sequence. The
///    operation snapshots its operands, [`Op::run`] the mask (unless the
///    operation asked [`Op::mask`] for it first);
/// 3. **deferred body** — [`Op::run`] queues one node on the output: the
///    operation's closure computes `T`, [`Target::write_back`] lands it.
///    In a blocking context the node runs before `run` returns. (The
///    in-place `apply`/`select` forms queue a fusible `Map` stage through
///    [`Op::run_in_place`] instead.)
pub(crate) struct Op<'a, S: Target> {
    /// The output's context: every operand must share it (§IV) and every
    /// kernel of the operation runs under it.
    pub ctx: Context,
    pub desc: &'a Descriptor,
    name: &'static str,
    out: &'a Arc<Container<S>>,
    mask: Option<&'a dyn MaskSource<S>>,
    /// The mask's snapshot, once [`Op::mask`] or [`Op::run`] has taken it.
    snapshot: Option<S::Mask>,
    pre_fused: usize,
    _span: graphblas_obs::Span,
}

/// What an operation's `T` closure works with when its node runs.
pub(crate) struct Exec<'a, S: Target> {
    /// The output's state — still holding the old `C`, which `GrB_assign`
    /// reads.
    pub st: &'a mut State<S>,
    pub ctx: &'a Context,
    pub mask: Option<&'a S::Mask>,
    /// The node's trailing maps. A kernel that applies them to `T` itself
    /// takes them out; what it leaves runs over the written result.
    pub post: &'a mut Vec<MapFn<S::Elem>>,
    /// Set by an operation whose kernel computed `T` under `mask`: `T`
    /// already lies inside it, so the write rule need not restrict it.
    pub premasked: bool,
}

impl<'a, S: Target> Op<'a, S> {
    /// Step 1 for the output and mask. `name` is the span name,
    /// `"op.<entry>"`.
    pub(crate) fn begin<K: MaskSource<S>>(
        name: &'static str,
        out: &'a Arc<Container<S>>,
        mask: Option<&'a K>,
        desc: &'a Descriptor,
    ) -> GrbResult<Self> {
        let ctx = out.context();
        let _span = graphblas_obs::span_ctx(name, ctx.id());
        let call = Op {
            ctx,
            desc,
            name: &name["op.".len()..],
            out,
            mask: mask.map(|m| m as &dyn MaskSource<S>),
            snapshot: None,
            pre_fused: 0,
            _span,
        };
        if let Some(m) = call.mask {
            // The shape is read into a local first: the mask may be the
            // output itself (`w⟨w⟩ = …`), and no operand is ever locked
            // under the output's lock.
            let shape = call.shape();
            m.check(&call.ctx, &shape)?;
        }
        Ok(call)
    }

    /// The entry's name, as dispatch and decision events carry it.
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// Whether the call has a mask operand.
    pub(crate) fn masked(&self) -> bool {
        self.mask.is_some()
    }

    /// The output's logical shape.
    pub(crate) fn shape(&self) -> S::Shape {
        self.out.lock_raw().shape()
    }

    /// Step 2 for the mask, taken now and handed to [`Op::run`] later: for
    /// an operation that plans its kernel around what the mask admits.
    pub(crate) fn mask(&mut self) -> GrbResult<Option<&S::Mask>> {
        if let (Some(m), None) = (self.mask, &self.snapshot) {
            self.snapshot = Some(m.snapshot(&self.ctx, &self.shape(), self.desc)?);
        }
        Ok(self.snapshot.as_ref())
    }

    /// Whether nothing but an element function stands between the operand
    /// at `input` and the output: they are the same object, unmasked,
    /// unaccumulated, not replaced.
    pub(crate) fn in_place(&self, accum: Accum<'_, S::Elem>, input: usize) -> bool {
        !self.masked() && accum.is_none() && !self.desc.replace && self.out.addr() == input
    }

    /// Declares `n` pending input-side maps that the kernel folds into its
    /// operand lookup, for the fusion accounting.
    pub(crate) fn fusing_input(mut self, n: usize) -> Self {
        self.pre_fused = n;
        self
    }

    /// Queues an [`Op::in_place`] call as a fusible map over the output's
    /// own elements.
    pub(crate) fn run_in_place(self, f: MapFn<S::Elem>) -> GrbResult {
        self.out.apply_map(f)
    }

    /// Steps 2 (mask) and 3. `compute` produces `T` from the operand
    /// snapshots it captured; `accum` is the accumulator the write rule
    /// applies (`None` when `T` already folded it in); `nnz_in` sizes the
    /// input for the fusion accounting.
    pub(crate) fn run<R, K>(
        mut self,
        kind: NodeKind,
        accum: Accum<'_, S::Elem>,
        nnz_in: usize,
        compute: K,
    ) -> GrbResult
    where
        R: Into<S::Result>,
        K: FnOnce(&mut Exec<'_, S>) -> GrbResult<R> + Send + 'static,
    {
        self.mask()?;
        let rule = Rule {
            op: self.name,
            mask: self.snapshot.take(),
            accum: accum.cloned(),
            replace: self.desc.replace,
        };
        let (ctx, pre) = (self.ctx.clone(), self.pre_fused);
        self.out.apply_node(Box::new(move |st, mut post| {
            let trailing = post.len();
            let mut exec = Exec {
                st: &mut *st,
                ctx: &ctx,
                mask: rule.mask.as_ref(),
                post: &mut post,
                premasked: false,
            };
            let t = compute(&mut exec)?.into();
            let premasked = exec.premasked;
            note_dag_fusion(rule.op, ctx.id(), kind, pre, trailing, nnz_in);
            S::write_back(st, &ctx, t, premasked, &rule, &post)
        }))
    }
}

/// Records one op-DAG node execution's fusion outcome: `pre`/`post` are
/// the counts of pending element maps folded into this node's numeric
/// phase (input side / output side). Emits the `dag-fuse` decision event
/// whenever cross-operation fusion actually fired.
fn note_dag_fusion(
    op: &'static str,
    ctx_id: u64,
    kind: NodeKind,
    pre: usize,
    post: usize,
    nnz_in: usize,
) {
    if graphblas_obs::enabled() {
        graphblas_obs::counters::record_dag_fusion(pre as u64, post as u64);
        if pre + post > 0 {
            graphblas_obs::events::decision_dag_fuse(
                op,
                ctx_id,
                kind.name(),
                pre as u64,
                post as u64,
                nnz_in as u64,
            );
        }
    }
}

/// Effective shape of a matrix operand under a descriptor transpose flag.
pub(crate) fn eff_shape<T: ValueType>(m: &Matrix<T>, transposed: bool) -> (Index, Index) {
    let (r, c) = m.shape();
    if transposed {
        (c, r)
    } else {
        (r, c)
    }
}

/// Completes `m` and snapshots it as CSR, materializing the descriptor
/// transpose. Transposed snapshots always come out row-sorted, and are
/// served from the matrix's memoized transpose cache when the store is
/// unchanged since the last transposed use.
pub(crate) fn snapshot_operand<T: ValueType>(
    m: &Matrix<T>,
    transposed: bool,
    sorted: bool,
) -> GrbResult<Arc<Csr<T>>> {
    if transposed {
        m.snapshot_transposed()
    } else {
        m.snapshot_csr(sorted)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::matrix::Matrix;
    use crate::types::{Index, ValueType};
    use crate::vector::Vector;

    pub fn mat<T: ValueType>(shape: (usize, usize), tuples: &[(Index, Index, T)]) -> Matrix<T> {
        let m = Matrix::new(shape.0, shape.1).unwrap();
        let rows: Vec<_> = tuples.iter().map(|t| t.0).collect();
        let cols: Vec<_> = tuples.iter().map(|t| t.1).collect();
        let vals: Vec<_> = tuples.iter().map(|t| t.2.clone()).collect();
        m.build(&rows, &cols, &vals, None).unwrap();
        m
    }

    pub fn vec<T: ValueType>(n: usize, tuples: &[(Index, T)]) -> Vector<T> {
        let v = Vector::new(n).unwrap();
        let idx: Vec<_> = tuples.iter().map(|t| t.0).collect();
        let vals: Vec<_> = tuples.iter().map(|t| t.1.clone()).collect();
        v.build(&idx, &vals, None).unwrap();
        v
    }

    pub fn mat_tuples<T: ValueType>(m: &Matrix<T>) -> Vec<(Index, Index, T)> {
        let (r, c, v) = m.extract_tuples().unwrap();
        r.into_iter()
            .zip(c)
            .zip(v)
            .map(|((i, j), x)| (i, j, x))
            .collect()
    }

    pub fn vec_tuples<T: ValueType>(v: &Vector<T>) -> Vec<(Index, T)> {
        let (i, x) = v.extract_tuples().unwrap();
        i.into_iter().zip(x).collect()
    }
}
