//! The GraphBLAS write semantics: `C⟨M, r⟩ = C ⊙ T`.
//!
//! Every operation hands its computed result `T` to
//! [`Target::write_back`] — the one caller of [`merge_matrix`] /
//! [`merge_vector`] — which implement the spec's four-step output rule:
//!
//! 1. restrict `T` to the (possibly complemented, possibly structural)
//!    mask;
//! 2. inside the mask: `accum(C, T)` when an accumulator is given, else
//!    `T` verbatim (old elements inside the mask but absent from `T` are
//!    deleted);
//! 3. outside the mask: keep `C`'s old contents, unless `replace` clears
//!    them;
//! 4. stitch the two disjoint regions back together.

use std::sync::Arc;

use graphblas_exec::workspace::{BitSet, Reusable};
use graphblas_exec::Context;
use graphblas_sparse::{ewise, Csr, SparseVec, VecOut, VecView};

use crate::container::{State, Store};
use crate::descriptor::Descriptor;
use crate::error::{ApiError, GrbResult};
use crate::matrix::{MatStore, Matrix, MatrixState};
use crate::ops::BinaryOp;
use crate::pending::MapFn;
use crate::types::{Index, MaskValue, ValueType};
use crate::vector::{VecSnap, VecStore, Vector, VectorState};

/// The `⟨M, r⟩` and `⊙` of one call: everything the write rule needs
/// besides `T`.
pub(crate) struct Rule<S: Target> {
    /// The operation, as decision events name it.
    pub op: &'static str,
    pub mask: Option<S::Mask>,
    pub accum: Option<BinaryOp<S::Elem, S::Elem, S::Elem>>,
    pub replace: bool,
}

/// A container an operation can write `C⟨M, r⟩ = C ⊙ T` into: the output
/// side of every operation, implemented by the matrix and vector states.
pub(crate) trait Target: Store {
    /// `T`, as the kernels produce it.
    type Result: Send + 'static;
    /// Logical shape, which a mask operand must share.
    type Shape: PartialEq;
    /// A snapshot of a mask operand.
    type Mask: Send + 'static;

    fn shape(&self) -> Self::Shape;

    /// Lands `t` in the store under `rule`, then applies the node's
    /// trailing maps `post` to the written result as one pass.
    /// `premasked`: `t` already lies inside `rule.mask` (its kernel ran
    /// under it). The matrix rule then skips restricting `t`; the vector
    /// rule restricts regardless.
    fn write_back(
        st: &mut State<Self>,
        ctx: &Context,
        t: Self::Result,
        premasked: bool,
        rule: &Rule<Self>,
        post: &[MapFn<Self::Elem>],
    ) -> GrbResult;
}

/// A mask operand of an operation that writes into an `S`: a matrix over a
/// matrix, a vector over a vector, or (`GrB_Row_assign`/`GrB_Col_assign`)
/// a vector over one line of a matrix.
pub(crate) trait MaskSource<S: Target> {
    /// API validation against an output of `shape` in `ctx`: the §IV
    /// same-context rule, then shape agreement.
    fn check(&self, ctx: &Context, shape: &S::Shape) -> GrbResult;

    /// Completes the operand and snapshots it per the descriptor, as a
    /// mask over an output of `shape`.
    fn snapshot(&self, ctx: &Context, shape: &S::Shape, desc: &Descriptor) -> GrbResult<S::Mask>;
}

impl<T: ValueType, M: MaskValue> MaskSource<MatrixState<T>> for Matrix<M> {
    fn check(&self, ctx: &Context, shape: &(Index, Index)) -> GrbResult {
        self.check_context(ctx)?;
        if self.shape() != *shape {
            return Err(ApiError::DimensionMismatch.into());
        }
        Ok(())
    }

    fn snapshot(&self, _: &Context, _: &(Index, Index), desc: &Descriptor) -> GrbResult<MatMask> {
        Ok(MatMask {
            mask: self.snapshot_mask(desc.mask_structure)?,
            complement: desc.mask_complement,
        })
    }
}

impl<T: ValueType, M: MaskValue> MaskSource<VectorState<T>> for Vector<M> {
    fn check(&self, ctx: &Context, shape: &Index) -> GrbResult {
        self.check_context(ctx)?;
        if self.size() != *shape {
            return Err(ApiError::DimensionMismatch.into());
        }
        Ok(())
    }

    /// Reads the mask out of whichever store holds it — an index list is
    /// scattered, a full vector's values are tested — so a mask operand is
    /// never converted to be consulted.
    fn snapshot(&self, _: &Context, _: &Index, desc: &Descriptor) -> GrbResult<VecMask> {
        let mut st = self.core.lock_completed()?;
        // An index list may still hold unsorted appends whose duplicates
        // resolve last-wins; that settles first, as for any reader.
        st.ensure_view()?;
        let (n, store) = (st.n, st.snap());
        drop(st);
        let structure = desc.mask_structure;
        let mut bits = BitSet::fresh();
        bits.prepare(n);
        let mut truthy = 0;
        // Every store is read in index order, so the admitted positions of
        // one word gather in a register and land as one store.
        let (mut word, mut gathered) = (0, 0u64);
        let mut admit = |bits: &mut BitSet, i: Index, v: &M| {
            if structure || v.is_truthy() {
                if i / 64 != word {
                    bits.insert_word(word, gathered);
                    (word, gathered) = (i / 64, 0);
                }
                gathered |= 1u64 << (i % 64);
                truthy += 1;
            }
        };
        match &store {
            VecSnap::Sparse(s) => s.iter().for_each(|(i, v)| admit(&mut bits, i, v)),
            VecSnap::Full(d) => {
                let values = d.values().iter().enumerate();
                values.for_each(|(i, v)| admit(&mut bits, i, v));
            }
        }
        bits.insert_word(word, gathered);
        Ok(VecMask {
            bits,
            truthy,
            complement: desc.mask_complement,
        })
    }
}

impl<T: ValueType> Target for MatrixState<T> {
    /// Shared, so a result that already exists as a snapshot (`transpose`)
    /// lands without a copy.
    type Result = Arc<Csr<T>>;
    type Shape = (Index, Index);
    type Mask = MatMask;

    fn shape(&self) -> (Index, Index) {
        (self.nrows, self.ncols)
    }

    fn write_back(
        st: &mut State<Self>,
        ctx: &Context,
        t: Arc<Csr<T>>,
        premasked: bool,
        rule: &Rule<Self>,
        post: &[MapFn<T>],
    ) -> GrbResult {
        let (mask, accum) = (rule.mask.as_ref(), rule.accum.as_ref());
        st.store = MatStore(if mask.is_none() && accum.is_none() {
            t
        } else {
            st.ensure_csr(ctx, true)?;
            let t = Arc::unwrap_or_clone(t);
            let old = st.csr();
            Arc::new(merge_matrix(
                ctx,
                old,
                t,
                premasked,
                mask,
                accum,
                rule.replace,
            ))
        });
        st.apply_post_maps(ctx, post)
    }
}

impl<T: ValueType> Target for VectorState<T> {
    /// Sparse or full, as its kernel produced it.
    type Result = VecOut<T>;
    type Shape = Index;
    type Mask = VecMask;

    fn shape(&self) -> Index {
        self.n
    }

    fn write_back(
        st: &mut State<Self>,
        ctx: &Context,
        t: VecOut<T>,
        _premasked: bool,
        rule: &Rule<Self>,
        post: &[MapFn<T>],
    ) -> GrbResult {
        let (mask, accum) = (rule.mask.as_ref(), rule.accum.as_ref());
        // Unmasked `full old ⊙ T` folds `T` into the old values where they
        // lie; everything else that merges is the four-step rule.
        let in_place = match (mask, accum) {
            (None, Some(op)) => st.take_full().map(|old| (op, old)),
            _ => None,
        };
        let t = if let Some((op, mut old)) = in_place {
            ewise::svec_accumulate(ctx, &mut old, t.view(), |x, y| op.apply(x, y));
            VecOut::Full(old)
        } else if mask.is_none() && accum.is_none() {
            t
        } else {
            // Under `replace` with no accumulator every old entry is either
            // overwritten inside the mask or cleared outside it: the old
            // store is not read, so it is not converted to be.
            let old = if mask.is_some() && accum.is_none() && rule.replace {
                VecSnap::Sparse(Arc::new(SparseVec::empty(st.n)))
            } else {
                st.ensure_view()?;
                st.snap()
            };
            merge_vector(ctx, old.view(), t, mask, accum, rule.replace)
        };
        st.store = VecStore::pick(rule.op, ctx.id(), t);
        st.apply_post_maps(ctx, post)
    }
}

/// A snapshot of a mask operand: truthiness is already folded into the
/// boolean values (structure-only masks are all-`true`).
pub(crate) struct MatMask {
    pub mask: Arc<Csr<bool>>,
    pub complement: bool,
}

/// A snapshot of a vector mask operand: its truthy set — under a structure
/// mask, every stored position — as one bitset that the direction estimate,
/// both product kernels, the masked assign and the write rule all read.
pub(crate) struct VecMask {
    pub bits: BitSet,
    /// How many positions `bits` holds.
    pub truthy: usize,
    pub complement: bool,
}

impl VecMask {
    /// How many of the `n` positions the mask admits.
    pub(crate) fn admitted(&self, n: usize) -> usize {
        if self.complement {
            n - self.truthy
        } else {
            self.truthy
        }
    }
}

/// Merges computed result `t` into `old` under mask/accumulator/replace.
/// `old` must have sorted rows; `t` may be unsorted (it is sorted here iff
/// the merge actually needs ordered rows).
///
/// Three cases skip work of the four-step rule: with no mask and no
/// accumulator `t` is the result as it stands; a `premasked` `t` (its
/// kernel ran under the same mask, plain or complemented) is taken as
/// step 1's answer, unrestricted; and under a mask an `old` that holds no
/// entries (the `C = new; mxm(C⟨M⟩, …)` shape of `triangle_count`, `lcc`,
/// `ktruss`) has an empty "outside" region, so the "inside" region is the
/// result and steps 3–4 copy nothing. Every other case runs all four.
pub(crate) fn merge_matrix<C: ValueType>(
    ctx: &Context,
    old: &Csr<C>,
    mut t: Csr<C>,
    premasked: bool,
    mask: Option<&MatMask>,
    accum: Option<&BinaryOp<C, C, C>>,
    replace: bool,
) -> Csr<C> {
    debug_assert!(old.is_rows_sorted());
    match mask {
        None => match accum {
            // Unmasked, no accumulator: T simply becomes C.
            None => t,
            Some(op) => {
                t.sort_rows(ctx);
                ewise::ewise_union(ctx, old, &t, |x, y| op.apply(x, y))
            }
        },
        Some(m) => {
            t.sort_rows(ctx);
            let truthy = |b: &bool| *b;
            // Step 1-2: the masked region receives T (optionally folded
            // with C's old contents through the accumulator).
            let z = if premasked {
                t
            } else {
                ewise::ewise_restrict(ctx, &t, &m.mask, m.complement, truthy)
            };
            let inside = match accum {
                None => z,
                Some(op) => {
                    let old_inside = ewise::ewise_restrict(ctx, old, &m.mask, m.complement, truthy);
                    ewise::ewise_union(ctx, &old_inside, &z, |x, y| op.apply(x, y))
                }
            };
            // Step 3: the unmasked region keeps C (or is cleared, or was
            // never populated).
            if replace || old.nnz() == 0 {
                inside
            } else {
                let outside = ewise::ewise_restrict(ctx, old, &m.mask, !m.complement, truthy);
                // Step 4: regions are position-disjoint, so the union's
                // combiner is never invoked.
                ewise::ewise_union(ctx, &outside, &inside, |x, _| x.clone())
            }
        }
    }
}

/// Vector counterpart of [`merge_matrix`]: `old` and `t` are each sparse
/// (canonical) or full. A full operand is never turned into an index list
/// first — the restrictions gather it at the positions the mask's bits
/// admit and the unions walk its values — and a sparse one is restricted
/// by one bit test per entry, never by walking the mask.
pub(crate) fn merge_vector<C: ValueType>(
    ctx: &Context,
    old: VecView<'_, C>,
    t: VecOut<C>,
    mask: Option<&VecMask>,
    accum: Option<&BinaryOp<C, C, C>>,
    replace: bool,
) -> VecOut<C> {
    match mask {
        None => match accum {
            None => t,
            Some(op) => ewise::svec_union(ctx, old, t.view(), |x, y| op.apply(x, y)),
        },
        Some(m) => {
            let z = ewise::svec_restrict(ctx, t.view(), &m.bits, m.complement);
            let inside = match accum {
                None => VecOut::Sparse(z),
                Some(op) => {
                    let old_inside = ewise::svec_restrict(ctx, old, &m.bits, m.complement);
                    ewise::svec_union(ctx, (&old_inside).into(), (&z).into(), |x, y| {
                        op.apply(x, y)
                    })
                }
            };
            if replace {
                inside
            } else {
                let outside = ewise::svec_restrict(ctx, old, &m.bits, !m.complement);
                ewise::svec_union(ctx, (&outside).into(), inside.view(), |x, _| x.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_exec::global_context;

    fn csr(shape: (usize, usize), t: &[(usize, usize, i64)]) -> Csr<i64> {
        graphblas_sparse::Coo::from_parts(
            shape.0,
            shape.1,
            t.iter().map(|x| x.0).collect(),
            t.iter().map(|x| x.1).collect(),
            t.iter().map(|x| x.2).collect(),
        )
        .unwrap()
        .to_csr(&global_context(), None)
        .unwrap()
    }

    fn bmask(shape: (usize, usize), t: &[(usize, usize)]) -> Arc<Csr<bool>> {
        Arc::new(
            graphblas_sparse::Coo::from_parts(
                shape.0,
                shape.1,
                t.iter().map(|x| x.0).collect(),
                t.iter().map(|x| x.1).collect(),
                vec![true; t.len()],
            )
            .unwrap()
            .to_csr(&global_context(), None)
            .unwrap(),
        )
    }

    #[test]
    fn unmasked_no_accum_replaces() {
        let ctx = global_context();
        let old = csr((2, 2), &[(0, 0, 1)]);
        let t = csr((2, 2), &[(1, 1, 9)]);
        let r = merge_matrix(&ctx, &old, t, false, None, None, false);
        assert_eq!(r.to_sorted_tuples(), vec![(1, 1, 9)]);
    }

    #[test]
    fn unmasked_accum_unions() {
        let ctx = global_context();
        let old = csr((2, 2), &[(0, 0, 1), (1, 1, 2)]);
        let t = csr((2, 2), &[(1, 1, 10), (0, 1, 5)]);
        let r = merge_matrix(&ctx, &old, t, false, None, Some(&BinaryOp::plus()), false);
        assert_eq!(r.to_sorted_tuples(), vec![(0, 0, 1), (0, 1, 5), (1, 1, 12)]);
    }

    #[test]
    fn masked_deletes_inside_keeps_outside() {
        let ctx = global_context();
        // Mask covers (0,0) and (0,1). T only supplies (0,1): the old (0,0)
        // is inside the mask but absent from T → deleted; old (1,1) is
        // outside → kept.
        let old = csr((2, 2), &[(0, 0, 1), (1, 1, 2)]);
        let t = csr((2, 2), &[(0, 1, 9)]);
        let m = MatMask {
            mask: bmask((2, 2), &[(0, 0), (0, 1)]),
            complement: false,
        };
        let r = merge_matrix(&ctx, &old, t, false, Some(&m), None, false);
        assert_eq!(r.to_sorted_tuples(), vec![(0, 1, 9), (1, 1, 2)]);
    }

    #[test]
    fn masked_replace_clears_outside() {
        let ctx = global_context();
        let old = csr((2, 2), &[(0, 0, 1), (1, 1, 2)]);
        let t = csr((2, 2), &[(0, 0, 7)]);
        let m = MatMask {
            mask: bmask((2, 2), &[(0, 0)]),
            complement: false,
        };
        let r = merge_matrix(&ctx, &old, t, false, Some(&m), None, true);
        assert_eq!(r.to_sorted_tuples(), vec![(0, 0, 7)]);
    }

    #[test]
    fn masked_write_into_an_empty_output_is_the_inside_region() {
        let ctx = global_context();
        let old = Csr::<i64>::empty(2, 2);
        let m = MatMask {
            mask: bmask((2, 2), &[(0, 0), (1, 0)]),
            complement: false,
        };
        for replace in [false, true] {
            let t = csr((2, 2), &[(0, 0, 7), (0, 1, 8), (1, 1, 9)]);
            let r = merge_matrix(&ctx, &old, t, false, Some(&m), None, replace);
            assert_eq!(r.to_sorted_tuples(), vec![(0, 0, 7)]);
            let t = csr((2, 2), &[(0, 0, 7), (0, 1, 8)]);
            let r = merge_matrix(
                &ctx,
                &old,
                t,
                false,
                Some(&m),
                Some(&BinaryOp::plus()),
                replace,
            );
            assert_eq!(r.to_sorted_tuples(), vec![(0, 0, 7)]);
        }
    }

    #[test]
    fn complemented_mask() {
        let ctx = global_context();
        let old = csr((1, 3), &[(0, 0, 1), (0, 1, 2), (0, 2, 3)]);
        let t = csr((1, 3), &[(0, 0, 10), (0, 1, 20), (0, 2, 30)]);
        let m = MatMask {
            mask: bmask((1, 3), &[(0, 1)]),
            complement: true,
        };
        // Complement: positions 0 and 2 are writable; position 1 keeps old.
        let r = merge_matrix(&ctx, &old, t, false, Some(&m), None, false);
        assert_eq!(
            r.to_sorted_tuples(),
            vec![(0, 0, 10), (0, 1, 2), (0, 2, 30)]
        );
    }

    #[test]
    fn premasked_result_is_taken_unrestricted() {
        let ctx = global_context();
        let mask = bmask((2, 3), &[(0, 1), (1, 0), (1, 2)]);
        for complement in [false, true] {
            let m = MatMask {
                mask: Arc::clone(&mask),
                complement,
            };
            // A `T` that lies inside the mask merges to the same result
            // whether or not it is flagged as premasked.
            let inside: &[(usize, usize, i64)] = if complement {
                &[(0, 0, 5), (1, 1, 6)]
            } else {
                &[(0, 1, 5), (1, 2, 6)]
            };
            for old in [Csr::empty(2, 3), csr((2, 3), &[(0, 0, 1), (1, 0, 2)])] {
                for replace in [false, true] {
                    let restricted = merge_matrix(
                        &ctx,
                        &old,
                        csr((2, 3), inside),
                        false,
                        Some(&m),
                        None,
                        replace,
                    );
                    let trusted = merge_matrix(
                        &ctx,
                        &old,
                        csr((2, 3), inside),
                        true,
                        Some(&m),
                        None,
                        replace,
                    );
                    assert_eq!(trusted.to_sorted_tuples(), restricted.to_sorted_tuples());
                }
            }
            // Flagged as premasked, `T` is not restricted again: an entry
            // outside the mask survives (which only a kernel that ignored
            // its mask could have produced).
            let outside = if complement { (0, 1, 7) } else { (0, 0, 7) };
            let t = csr((2, 3), &[outside]);
            let r = merge_matrix(&ctx, &Csr::empty(2, 3), t, true, Some(&m), None, true);
            assert_eq!(r.to_sorted_tuples(), vec![outside]);
        }
    }

    #[test]
    fn masked_accum_folds_only_inside() {
        let ctx = global_context();
        let old = csr((1, 2), &[(0, 0, 1), (0, 1, 2)]);
        let t = csr((1, 2), &[(0, 0, 10), (0, 1, 20)]);
        let m = MatMask {
            mask: bmask((1, 2), &[(0, 0)]),
            complement: false,
        };
        let r = merge_matrix(
            &ctx,
            &old,
            t,
            false,
            Some(&m),
            Some(&BinaryOp::plus()),
            false,
        );
        assert_eq!(r.to_sorted_tuples(), vec![(0, 0, 11), (0, 1, 2)]);
    }

    #[test]
    fn vector_merge_matches_matrix_logic() {
        let ctx = global_context();
        let old = SparseVec::from_parts(3, vec![0, 2], vec![1i64, 3]).unwrap();
        let t = SparseVec::from_parts(3, vec![1, 2], vec![20, 30]).unwrap();
        let mut bits = BitSet::fresh();
        bits.prepare(3);
        bits.insert(1);
        let m = VecMask {
            bits,
            truthy: 1,
            complement: false,
        };
        let r = merge_vector(&ctx, (&old).into(), t.into(), Some(&m), None, false);
        assert_eq!(r.to_sorted_tuples(), vec![(0, 1), (1, 20), (2, 3)]);
        // replace clears outside:
        let t2 = SparseVec::from_parts(3, vec![1], vec![20]).unwrap();
        let r2 = merge_vector(&ctx, (&old).into(), t2.into(), Some(&m), None, true);
        assert_eq!(r2.to_sorted_tuples(), vec![(1, 20)]);
    }
}
