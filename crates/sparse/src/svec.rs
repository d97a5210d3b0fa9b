//! Sparse vector storage (`GrB_SPARSE_VECTOR`, Table III) and its kernels.
//!
//! Vectors are the small, latency-sensitive side of GraphBLAS (frontiers,
//! levels, property maps); kernels here are sequential merge walks — the
//! parallel heavy lifting happens in the matrix kernels.
//!
//! A kernel reads its vector operands through [`VecView`] — the index list
//! or the full value array (`GrB_DENSE_VECTOR`) — and hands its result back
//! as a [`VecOut`] in whichever of the two formats it produced. The
//! `apply` / `select` / `reduce` kernels are methods of the view; the
//! two-operand merges live in [`crate::ewise`].

use graphblas_exec::Context;

use crate::dvec::DenseVec;
use crate::error::FormatError;
use crate::spmv::Terminal;
use crate::util;

/// A sparse vector of logical length `n`; `indices` strictly increasing
/// when `sorted`.
#[derive(Debug, Clone)]
pub struct SparseVec<T> {
    n: usize,
    indices: Vec<usize>,
    values: Vec<T>,
    sorted: bool,
}

impl<T> SparseVec<T> {
    /// An empty vector of logical length `n`.
    pub fn empty(n: usize) -> Self {
        SparseVec {
            n,
            indices: Vec::new(),
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Builds from index/value arrays (Table III sparse-vector format).
    /// Indices may be unsorted; duplicates are resolved in [`Self::sort_dedup`].
    pub fn from_parts(n: usize, indices: Vec<usize>, values: Vec<T>) -> Result<Self, FormatError> {
        if indices.len() != values.len() {
            return Err(FormatError::LengthMismatch {
                expected: values.len(),
                actual: indices.len(),
                what: "vector indices",
            });
        }
        if let Some(&bad) = indices.iter().find(|&&i| i >= n) {
            return Err(FormatError::IndexOutOfBounds {
                index: bad,
                bound: n,
                axis: "vector",
            });
        }
        let sorted = util::is_strictly_increasing(&indices);
        Ok(SparseVec {
            n,
            indices,
            values,
            sorted,
        })
    }

    /// Kernel-internal constructor; `sorted` taken on trust (checked in
    /// debug builds).
    pub(crate) fn from_kernel_parts(
        n: usize,
        indices: Vec<usize>,
        values: Vec<T>,
        sorted: bool,
    ) -> Self {
        let v = SparseVec {
            n,
            indices,
            values,
            sorted,
        };
        debug_assert!(
            v.check().is_ok(),
            "kernel produced an invalid sparse vector: {:?}",
            v.check().err()
        );
        v
    }

    /// Logical length (`GrB_Vector_size`).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of stored elements (`GrB_Vector_nvals`).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Allocated buffer bytes of this store (capacity, not length).
    pub fn bytes(&self) -> u64 {
        (self.indices.capacity() * std::mem::size_of::<usize>()
            + self.values.capacity() * std::mem::size_of::<T>()) as u64
    }

    /// Stored element indices (ascending when sorted).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Stored element values, parallel to `indices`.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable access to stored values (structure unchanged).
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Whether every position holds an element (sorted, so no duplicate
    /// inflates the count): the vector is *full*, Table III's dense corner.
    pub fn is_full(&self) -> bool {
        self.sorted && self.values.len() == self.n
    }

    pub fn into_parts(self) -> (Vec<usize>, Vec<T>) {
        (self.indices, self.values)
    }

    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        self.indices.iter().copied().zip(self.values.iter())
    }

    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.n {
            return None;
        }
        if self.sorted {
            self.indices.binary_search(&i).ok().map(|k| &self.values[k])
        } else {
            self.indices
                .iter()
                .position(|&x| x == i)
                .map(|k| &self.values[k])
        }
    }

    /// Removes the element at `i` if present; returns whether it existed.
    pub fn remove(&mut self, i: usize) -> bool {
        let pos = if self.sorted {
            self.indices.binary_search(&i).ok()
        } else {
            self.indices.iter().position(|&x| x == i)
        };
        match pos {
            Some(k) => {
                self.indices.remove(k);
                self.values.remove(k);
                true
            }
            None => false,
        }
    }

    /// Full invariant validation.
    pub fn check(&self) -> Result<(), FormatError> {
        if self.indices.len() != self.values.len() {
            return Err(FormatError::LengthMismatch {
                expected: self.values.len(),
                actual: self.indices.len(),
                what: "vector indices",
            });
        }
        if let Some(&bad) = self.indices.iter().find(|&&i| i >= self.n) {
            return Err(FormatError::IndexOutOfBounds {
                index: bad,
                bound: self.n,
                axis: "vector",
            });
        }
        if self.sorted && !util::is_strictly_increasing(&self.indices) {
            return Err(FormatError::BadPointers {
                expected_len: self.indices.len(),
                detail: "sorted flag set but indices are not strictly increasing",
            });
        }
        Ok(())
    }
}

impl<T: Clone> SparseVec<T> {
    /// Inserts or overwrites element `i` (`setElement`).
    pub fn set(&mut self, i: usize, v: T) -> Result<(), FormatError> {
        if i >= self.n {
            return Err(FormatError::IndexOutOfBounds {
                index: i,
                bound: self.n,
                axis: "vector",
            });
        }
        if self.sorted {
            match self.indices.binary_search(&i) {
                Ok(k) => self.values[k] = v,
                Err(k) => {
                    self.indices.insert(k, i);
                    self.values.insert(k, v);
                }
            }
        } else {
            match self.indices.iter().position(|&x| x == i) {
                Some(k) => self.values[k] = v,
                None => {
                    self.indices.push(i);
                    self.values.push(v);
                }
            }
        }
        Ok(())
    }

    /// Appends an element without position lookup, possibly creating a
    /// duplicate and losing sortedness. The O(1) fast path behind repeated
    /// `setElement`; a later [`Self::sort_dedup`] with a last-wins combiner
    /// restores canonical form (sorting is stable, so arrival order is
    /// preserved among duplicates).
    pub fn append(&mut self, i: usize, v: T) -> Result<(), FormatError> {
        if i >= self.n {
            return Err(FormatError::IndexOutOfBounds {
                index: i,
                bound: self.n,
                axis: "vector",
            });
        }
        self.indices.push(i);
        self.values.push(v);
        self.sorted = false;
        Ok(())
    }

    /// Sorts by index and resolves duplicates with `dup` (or errors when
    /// `dup` is `None`) — `GrB_Vector_build` semantics.
    pub fn sort_dedup(&mut self, dup: Option<&dyn Fn(&T, &T) -> T>) -> Result<(), FormatError> {
        if self.sorted {
            return Ok(());
        }
        util::sort_segment(&mut self.indices, &mut self.values);
        let mut out_idx: Vec<usize> = Vec::with_capacity(self.indices.len());
        let mut out_val: Vec<T> = Vec::with_capacity(self.values.len());
        let mut k = 0usize;
        while k < self.indices.len() {
            let i = self.indices[k];
            let mut acc = self.values[k].clone();
            let mut k2 = k + 1;
            while k2 < self.indices.len() && self.indices[k2] == i {
                match dup {
                    Some(op) => acc = op(&acc, &self.values[k2]),
                    None => return Err(FormatError::Duplicate { row: i, col: 0 }),
                }
                k2 += 1;
            }
            out_idx.push(i);
            out_val.push(acc);
            k = k2;
        }
        self.indices = out_idx;
        self.values = out_val;
        self.sorted = true;
        Ok(())
    }

    /// Densifies into an option table for O(1) random access.
    pub fn to_option_table(&self) -> Vec<Option<T>> {
        let mut out = vec![None; self.n];
        for (i, v) in self.iter() {
            out[i] = Some(v.clone());
        }
        out
    }

    /// Structure-preserving value map with index access (vector `apply`).
    pub fn map_with_index<Z, F>(&self, f: F) -> SparseVec<Z>
    where
        F: Fn(usize, &T) -> Z,
    {
        let values = self.iter().map(|(i, v)| f(i, v)).collect();
        SparseVec::from_kernel_parts(self.n, self.indices.clone(), values, self.sorted)
    }

    /// Combined select + apply (vector `select`, paper §VIII.C).
    pub fn filter_map_with_index<Z, F>(&self, f: F) -> SparseVec<Z>
    where
        F: Fn(usize, &T) -> Option<Z>,
    {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, v) in self.iter() {
            if let Some(z) = f(i, v) {
                indices.push(i);
                values.push(z);
            }
        }
        SparseVec::from_kernel_parts(self.n, indices, values, self.sorted)
    }

    /// Reduction over stored values; `None` when empty. `is_terminal`
    /// enables monoid-annihilator early exit.
    pub fn reduce<Z, M, A, FT>(&self, map: M, add: A, is_terminal: FT) -> Option<Z>
    where
        M: Fn(&T) -> Z,
        A: Fn(Z, Z) -> Z,
        FT: Terminal<Z>,
    {
        reduce_values(&self.values, map, add, is_terminal)
    }

    /// Subvector extraction `u(I)` with arbitrary selectors (vector
    /// `extract`).
    pub fn extract(&self, sel: &[usize]) -> Result<SparseVec<T>, FormatError> {
        for &i in sel {
            if i >= self.n {
                return Err(FormatError::IndexOutOfBounds {
                    index: i,
                    bound: self.n,
                    axis: "vector",
                });
            }
        }
        let table = self.to_option_table();
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (out_i, &src) in sel.iter().enumerate() {
            if let Some(v) = &table[src] {
                indices.push(out_i);
                values.push(v.clone());
            }
        }
        Ok(SparseVec::from_kernel_parts(
            sel.len(),
            indices,
            values,
            true,
        ))
    }

    /// Sorted `(index, value)` pairs — canonical form for comparisons.
    pub fn to_sorted_tuples(&self) -> Vec<(usize, T)> {
        let mut t: Vec<(usize, T)> = self.iter().map(|(i, v)| (i, v.clone())).collect();
        t.sort_by_key(|&(i, _)| i);
        t
    }
}

/// The reduction loop over a value array, whichever container stores it:
/// the first value seeds the sum, so the fold carries a plain `Z`.
pub(crate) fn reduce_values<T, Z, M, A, FT>(
    values: &[T],
    map: M,
    add: A,
    is_terminal: FT,
) -> Option<Z>
where
    M: Fn(&T) -> Z,
    A: Fn(Z, Z) -> Z,
    FT: Terminal<Z>,
{
    let (first, rest) = values.split_first()?;
    let mut acc = map(first);
    if FT::NEVER || !is_terminal.reached(&acc) {
        for v in rest {
            acc = add(acc, map(v));
            if !FT::NEVER && is_terminal.reached(&acc) {
                break;
            }
        }
    }
    Some(acc)
}

/// A vector operand as the kernels read it: the sparse index list, or the
/// full value array in which element `i` sits at position `i` and no index
/// is stored at all. Kernels branch on the format (pair) once, at the top;
/// a full operand then costs a slice loop, not a merge walk.
#[derive(Debug)]
pub enum VecView<'a, T> {
    Sparse(&'a SparseVec<T>),
    Full(&'a DenseVec<T>),
}

impl<T> Clone for VecView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for VecView<'_, T> {}

impl<'a, T> From<&'a SparseVec<T>> for VecView<'a, T> {
    fn from(s: &'a SparseVec<T>) -> Self {
        VecView::Sparse(s)
    }
}

impl<'a, T> From<&'a DenseVec<T>> for VecView<'a, T> {
    fn from(d: &'a DenseVec<T>) -> Self {
        VecView::Full(d)
    }
}

impl<'a, T> VecView<'a, T> {
    /// Logical length.
    pub fn len(self) -> usize {
        match self {
            VecView::Sparse(s) => s.len(),
            VecView::Full(d) => d.len(),
        }
    }

    /// Whether the logical length is zero.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Number of stored elements.
    pub fn nnz(self) -> usize {
        self.values().len()
    }

    /// Stored values, in storage order.
    pub fn values(self) -> &'a [T] {
        match self {
            VecView::Sparse(s) => s.values(),
            VecView::Full(d) => d.values(),
        }
    }

    /// Bytes a kernel reads to walk the operand: the values, plus the
    /// index array a sparse operand carries beside them.
    pub fn bytes(self) -> u64 {
        let index = match self {
            VecView::Sparse(_) => std::mem::size_of::<usize>(),
            VecView::Full(_) => 0,
        };
        (self.nnz() * (std::mem::size_of::<T>() + index)) as u64
    }
}

impl<T: Clone> VecView<'_, T> {
    /// Vector `apply`: the same structure with every value mapped.
    pub fn map_with_index<Z, F>(self, ctx: &Context, f: F) -> VecOut<Z>
    where
        F: Fn(usize, &T) -> Z,
    {
        let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::Apply, ctx.id());
        if sp.active() {
            let nnz = self.nnz() as u64;
            sp.io(nnz, nnz, nnz, self.bytes());
        }
        match self {
            VecView::Sparse(s) => VecOut::Sparse(s.map_with_index(f)),
            VecView::Full(d) => {
                let values = d.values().iter().enumerate().map(|(i, v)| f(i, v));
                VecOut::Full(DenseVec::from_values(values.collect()))
            }
        }
    }

    /// Vector `select` (+ apply): entries `f` maps to `None` are dropped,
    /// so the result is sparse whatever the operand's format.
    pub fn filter_map_with_index<Z, F>(self, ctx: &Context, f: F) -> SparseVec<Z>
    where
        F: Fn(usize, &T) -> Option<Z>,
    {
        let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::Select, ctx.id());
        if sp.active() {
            let nnz = self.nnz() as u64;
            sp.io(nnz, nnz, 0, self.bytes());
        }
        let out = match self {
            VecView::Sparse(s) => s.filter_map_with_index(f),
            VecView::Full(d) => {
                let kept = d.values().iter().enumerate();
                let (indices, values) = kept.filter_map(|(i, v)| Some((i, f(i, v)?))).unzip();
                SparseVec::from_kernel_parts(d.len(), indices, values, true)
            }
        };
        if sp.active() {
            sp.io(0, 0, out.nnz() as u64, 0);
        }
        out
    }

    /// Reduction over the stored values; `None` when there are none.
    /// `is_terminal` enables the monoid-annihilator early exit.
    pub fn reduce<Z, M, A, FT>(self, ctx: &Context, map: M, add: A, is_terminal: FT) -> Option<Z>
    where
        M: Fn(&T) -> Z,
        A: Fn(Z, Z) -> Z,
        FT: Terminal<Z>,
    {
        let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::Reduce, ctx.id());
        if sp.active() {
            let nnz = self.nnz() as u64;
            sp.io(nnz, nnz, 1, nnz * std::mem::size_of::<T>() as u64);
        }
        reduce_values(self.values(), map, add, is_terminal)
    }
}

/// A vector kernel's result, in the format the kernel produced it.
#[derive(Debug, Clone)]
pub enum VecOut<T> {
    Sparse(SparseVec<T>),
    Full(DenseVec<T>),
}

impl<T> From<SparseVec<T>> for VecOut<T> {
    fn from(s: SparseVec<T>) -> Self {
        VecOut::Sparse(s)
    }
}

impl<T> VecOut<T> {
    /// The result as the next kernel's operand.
    pub fn view(&self) -> VecView<'_, T> {
        match self {
            VecOut::Sparse(s) => VecView::Sparse(s),
            VecOut::Full(d) => VecView::Full(d),
        }
    }

    /// Logical length.
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// Whether the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of stored elements.
    pub fn nnz(&self) -> usize {
        self.view().nnz()
    }

    /// The same entries in the densest format that holds them: a sparse
    /// result storing every position gives up its index array and is full.
    /// This is the one definition of *full* — `nnz == n`, no threshold.
    pub fn densest(self) -> Self {
        match self {
            VecOut::Sparse(s) if s.is_full() => VecOut::Full(DenseVec::from_values(s.values)),
            other => other,
        }
    }
}

impl<T: Clone> VecOut<T> {
    /// Sorted `(index, value)` pairs — canonical form for comparisons.
    pub fn to_sorted_tuples(&self) -> Vec<(usize, T)> {
        match self {
            VecOut::Sparse(s) => s.to_sorted_tuples(),
            VecOut::Full(d) => d.values().iter().cloned().enumerate().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v123() -> SparseVec<i64> {
        SparseVec::from_parts(6, vec![1, 3, 5], vec![10, 30, 50]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let v = v123();
        assert_eq!(v.len(), 6);
        assert_eq!(v.nnz(), 3);
        assert_eq!(v.get(3), Some(&30));
        assert_eq!(v.get(0), None);
        assert_eq!(v.get(99), None);
        assert!(v.is_sorted());
        v.check().unwrap();
    }

    #[test]
    fn set_and_remove() {
        let mut v = v123();
        v.set(2, 20).unwrap();
        assert_eq!(v.get(2), Some(&20));
        assert_eq!(v.nnz(), 4);
        v.set(2, 21).unwrap();
        assert_eq!(v.get(2), Some(&21));
        assert_eq!(v.nnz(), 4);
        assert!(v.remove(2));
        assert!(!v.remove(2));
        assert_eq!(v.nnz(), 3);
        assert!(v.set(6, 0).is_err());
    }

    #[test]
    fn unsorted_input_and_dedup() {
        let mut v = SparseVec::from_parts(5, vec![4, 1, 4], vec![1, 2, 3]).unwrap();
        assert!(!v.is_sorted());
        v.sort_dedup(Some(&|a: &i32, b: &i32| a + b)).unwrap();
        assert_eq!(v.to_sorted_tuples(), vec![(1, 2), (4, 4)]);
        let mut w = SparseVec::from_parts(5, vec![4, 4], vec![1, 2]).unwrap();
        assert!(w.sort_dedup(None).is_err());
    }

    #[test]
    fn map_filter_reduce() {
        let v = v123();
        let m = v.map_with_index(|i, x| x + i as i64);
        assert_eq!(m.to_sorted_tuples(), vec![(1, 11), (3, 33), (5, 55)]);
        let f = v.filter_map_with_index(|_, x| (*x > 10).then_some(*x * 2));
        assert_eq!(f.to_sorted_tuples(), vec![(3, 60), (5, 100)]);
        use crate::spmv::Never;
        assert_eq!(v.reduce(|x| *x, |a, b| a + b, Never), Some(90));
        assert_eq!(
            SparseVec::<i64>::empty(3).reduce(|x| *x, |a, b| a + b, Never),
            None
        );
    }

    #[test]
    fn reduce_terminal_early_exit() {
        let v = SparseVec::from_parts(4, vec![0, 1, 2], vec![false, true, false]).unwrap();
        assert_eq!(
            v.reduce(|x| *x, |a, b| a || b, Some(&|z: &bool| *z)),
            Some(true)
        );
    }

    #[test]
    fn extract_with_repeats() {
        let v = v123();
        let e = v.extract(&[5, 5, 0, 3]).unwrap();
        assert_eq!(e.len(), 4);
        assert_eq!(e.to_sorted_tuples(), vec![(0, 50), (1, 50), (3, 30)]);
        assert!(v.extract(&[6]).is_err());
    }

    #[test]
    fn bounds_validated() {
        assert!(SparseVec::from_parts(3, vec![3], vec![1]).is_err());
        assert!(SparseVec::from_parts(3, vec![0, 1], vec![1]).is_err());
    }
}
