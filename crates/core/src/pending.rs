//! Completion and deferred execution (paper §III and §V).
//!
//! In nonblocking mode a GraphBLAS object is defined by its *sequence* of
//! method calls; the implementation may defer, reorder, or **fuse**
//! operations as long as the result is mathematically equivalent. This
//! module defines the stage model; the queue that holds the stages, the
//! drain that runs them and the one enqueue (blocking mode is *enqueue,
//! then force*) live in [`crate::container`]. A queue holds [`Stage`]s:
//!
//! * [`Stage::Map`] — a fusible element-wise transform of the container's
//!   own stored elements (unmasked, unaccumulated `apply`/`select` whose
//!   input is the output). Consecutive `Map` stages execute as **one**
//!   traversal at drain time: the single-pass payoff §III's "fuse
//!   operations" latitude describes. The `ablation_fusion` bench times it
//!   and reads the `graphblas-obs` fusion counters (`fusion_hits`,
//!   `map_traversals`) to verify the fusion actually happened; a run of
//!   `n` consecutive maps reports one traversal and `n − 1` fusion hits.
//! * [`Stage::Opaque`] — an arbitrary deferred write to the owning
//!   container's state that no map can fuse into: `build` and the scalar
//!   writes. `build` and `reduce` into a scalar were given snapshots of
//!   their inputs at enqueue time (sequence order fixes input values at
//!   call time); `extractElement` into a scalar holds the source handle
//!   and reads it when drained — the one stage that locks another
//!   container.
//! * [`Stage::Node`] — a lazy op-DAG node (mxv/vxm/mxm/eWise/assign/…):
//!   like `Opaque`, but fusion-aware. At drain time the engine hands the
//!   node every *trailing* consecutive `Map` stage from the queue; the
//!   node threads them into its numeric kernel (the monomorphized
//!   registry's `*_fused` rows) so the post-transforms run inside the
//!   kernel's output write instead of as a separate traversal. Nodes also
//!   participate in *input* fusion: when an input container's queue is
//!   pure maps, the consumer clones the run and folds it into the
//!   kernel's operand lookup (`snapshot_frontier_fused`), so the
//!   intermediate materialization disappears entirely — §III's
//!   cross-operation "fuse operations" latitude.
//!
//! `wait(Complete)` drains the queue — the object can then participate in
//! a cross-thread happens-before edge. `wait(Materialize)` additionally
//! brings storage to canonical form (CSR, sorted rows, owned exclusively)
//! and guarantees no further errors can be reported from the drained
//! sequence (§V).

use std::sync::Arc;

use crate::error::GrbResult;
use crate::types::Index;

/// The two flavours of `GrB_wait` (§III `GrB_COMPLETE`, §V
/// `GrB_MATERIALIZE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitMode {
    /// Finish the computations in the object's sequence and leave internal
    /// data structures safe to hand to another thread.
    Complete,
    /// `Complete`, plus: no more errors can be reported (and no more time
    /// charged) for the methods in the drained sequence; storage is
    /// canonicalized.
    Materialize,
}

/// A fusible element-wise transform: receives `(indices, value)` — indices
/// of length 2 for matrix elements, 1 for vector elements — and returns the
/// replacement value, or `None` to annihilate the element.
pub type MapFn<T> = Arc<dyn Fn(&[Index], &T) -> Option<T> + Send + Sync>;

/// What kind of operation a lazy [`Stage::Node`] defers — the op-DAG node
/// kinds DESIGN.md §III maps onto the paper's nonblocking semantics, as the
/// `dag-fuse` decision event names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Matrix-vector product (`mxv`).
    MxV,
    /// Vector-matrix product (`vxm`) — the push/BFS direction.
    VxM,
    /// Matrix-matrix product (`mxm`).
    MxM,
    /// Element-wise add/multiply (union/intersection).
    EWise,
    /// Masked or accumulated apply/select (the unmasked in-place forms
    /// stay `Stage::Map`).
    Apply,
    /// Select with mask/accum or distinct output.
    Select,
    /// Assign/subassign (accumulating writes into a sub-pattern).
    Assign,
    /// Extract (sub-container read into this container).
    Extract,
    /// Reduce (matrix → vector row reduction).
    Reduce,
    /// Structural ops: transpose, kron, dup, clear-and-rebuild.
    Structure,
}

impl NodeKind {
    /// Stable kebab-case name (used in decision-event detail strings).
    pub fn name(self) -> &'static str {
        match self {
            NodeKind::MxV => "mxv",
            NodeKind::VxM => "vxm",
            NodeKind::MxM => "mxm",
            NodeKind::EWise => "ewise",
            NodeKind::Apply => "apply",
            NodeKind::Select => "select",
            NodeKind::Assign => "assign",
            NodeKind::Extract => "extract",
            NodeKind::Reduce => "reduce",
            NodeKind::Structure => "structure",
        }
    }
}

/// A deferred stage in a container's sequence. `St` is the container's
/// state type (`container::State` over a matrix, vector or scalar store).
pub enum Stage<St, T> {
    /// Fusible in-place element-wise transform.
    Map(MapFn<T>),
    /// Arbitrary deferred operation over the container state.
    Opaque(Box<dyn FnOnce(&mut St) -> GrbResult + Send>),
    /// A lazy op-DAG node. At drain time the executor receives the run of
    /// `Map` stages that immediately *followed* it in the queue (possibly
    /// empty) and is responsible for folding them into its kernel's
    /// output path — or applying them as one pass over its result.
    Node(Box<dyn FnOnce(&mut St, Vec<MapFn<T>>) -> GrbResult + Send>),
}

/// Composes a run of map stages into a single per-element closure:
/// stages apply in sequence order; the first `None` annihilates.
pub fn fuse_maps<T: Clone>(run: &[MapFn<T>], indices: &[Index], v: &T) -> Option<T> {
    let mut cur = v.clone();
    for f in run {
        match f(indices, &cur) {
            Some(next) => cur = next,
            None => return None,
        }
    }
    Some(cur)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuse_applies_in_order() {
        let double: MapFn<i64> = Arc::new(|_, v| Some(v * 2));
        let add_row: MapFn<i64> = Arc::new(|idx, v| Some(v + idx[0] as i64));
        let run = vec![double, add_row];
        // (5 * 2) + 3 — order matters.
        assert_eq!(fuse_maps(&run, &[3, 0], &5), Some(13));
    }

    #[test]
    fn fuse_short_circuits_on_drop() {
        let hits = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let h = hits.clone();
        let drop_all: MapFn<i64> = Arc::new(|_, _| None);
        let count: MapFn<i64> = Arc::new(move |_, v| {
            h.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Some(*v)
        });
        let run = vec![drop_all, count];
        assert_eq!(fuse_maps(&run, &[0], &1), None);
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn empty_run_is_identity() {
        let run: Vec<MapFn<u8>> = vec![];
        assert_eq!(fuse_maps(&run, &[0, 0], &7), Some(7));
    }
}
