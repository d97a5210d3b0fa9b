//! The four workloads. Each generates its inputs from the seed, hands them
//! to the engine only through `build`, performs one identical script per
//! rep, and is verified against [`crate::reference`].

use graphblas::operations::{apply_v, mxm, mxv, reduce_to_value, reduce_to_value_v, select_v};
use graphblas::{
    algo, io, no_mask, no_mask_v, BinaryOp, Context, Descriptor, GrbResult, IndexUnaryOp, Matrix,
    Mode, Monoid, Semiring, UnaryOp, Vector, WaitMode,
};

use std::collections::HashSet;

use crate::reference::{self, Batch, Bfs as RefBfs, Graph, Tuples, UpdateResult};
use crate::spans::Tracer;

/// The names `--workload` accepts, in reporting order.
pub const NAMES: [&str; 4] = ["pagerank", "bfs", "spgemm", "update"];

/// Relative tolerance for floating-point comparisons against a reference
/// that sums in a different order.
const REL_TOL: f64 = 1e-9;

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL_TOL * want.abs().max(1.0)
}

/// What every timed rep is compared on: an exact count and a sum that does
/// not depend on the order the engine stores or accumulates entries in
/// (beyond rounding, hence the tolerance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checksum {
    pub count: u64,
    pub sum: f64,
}

impl Checksum {
    pub fn matches(&self, expected: &Checksum) -> bool {
        self.count == expected.count && close(self.sum, expected.sum)
    }
}

/// Position-weighted sum, so a permutation of the values changes it.
fn weighted_sum(indices: &[usize], values: impl Iterator<Item = f64>) -> f64 {
    indices
        .iter()
        .zip(values)
        .map(|(&i, v)| v * ((i % 64) + 1) as f64)
        .sum()
}

/// 64-bit LCG (Knuth's MMIX multiplier); the high bits are the output.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 24
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 8) + 1) as f64 / (1u64 << 32) as f64
    }

    /// An edge weight in (0.001, 1].
    pub fn weight(&mut self) -> f64 {
        0.001 + 0.999 * self.unit()
    }
}

pub trait Workload: Sized {
    /// Containers that outlive a rep (built once per set-up).
    type State;
    /// Everything one rep produces.
    type Output;
    /// What the independent reference computed.
    type Reference;

    const NAME: &'static str;
    /// Execution mode of the context the workload runs in.
    const MODE: Mode = Mode::Blocking;

    /// Makes the inputs; `quick` shrinks them for a plumbing smoke test.
    fn generate(seed: u64, quick: bool) -> Self;
    /// Input tuples handed to `build` (before duplicates collapse).
    fn edges(&self) -> u64;
    fn reference(&self) -> Self::Reference;
    /// Work units one rep performs (see the README for each unit).
    fn work_units(r: &Self::Reference) -> f64;
    /// PageRank iterations / BFS levels per rep; 0 where there is no loop.
    fn iterations(r: &Self::Reference) -> f64;
    /// Builds the containers from tuples and materialises them.
    fn setup(&self, ctx: &Context, tr: &mut Tracer) -> GrbResult<Self::State>;
    fn rep(&self, st: &Self::State, tr: &mut Tracer) -> GrbResult<Self::Output>;
    fn checksum(&self, out: &Self::Output) -> GrbResult<Checksum>;
    /// Full comparison of one rep's output against the reference.
    fn verify(&self, r: &Self::Reference, out: &Self::Output) -> Result<(), String>;
    /// Length of the serialised stream a rep produced (`update` only).
    fn serialized_bytes(_: &Self::Output) -> usize {
        0
    }
}

/// Every seed must give inputs of the same *size*: the allocator's
/// behaviour (heap or mmap, trim or keep) flips on array sizes a few
/// hundred bytes apart, which moved `update` rep time by ±5 % and peak RSS
/// by 8 MB steps between seeds. So the harness takes the first `k` distinct
/// edges the generator emits (drawing further batches if one falls short),
/// and a seed changes the structure of the input, never its n or nnz.
/// Self-loops are skipped; `symmetric` counts (u, v) and (v, u) as one edge.
fn first_distinct(
    k: usize,
    symmetric: bool,
    mut batch: impl FnMut(u64) -> io::EdgeList,
) -> Vec<(usize, usize)> {
    let mut seen = HashSet::with_capacity(k);
    let mut edges = Vec::with_capacity(k);
    for round in 0.. {
        let e = batch(round);
        for (&u, &v) in e.src.iter().zip(&e.dst) {
            let key = if symmetric {
                (u.min(v), u.max(v))
            } else {
                (u, v)
            };
            if u != v && seen.insert(key) {
                edges.push(key);
                if edges.len() == k {
                    return edges;
                }
            }
        }
    }
    unreachable!("the round counter does not end")
}

/// Distinct edges per vertex kept from an RMAT stream of edge factor 8
/// (which yields ≈ 7.3 distinct per vertex at these scales).
const RMAT_DEGREE: usize = 7;

fn rmat_edges(scale: u32, seed: u64, symmetric: bool) -> (usize, Vec<(usize, usize)>) {
    let n = 1usize << scale;
    let batch = |round: u64| io::rmat(scale, 8, seed.wrapping_add(round.wrapping_mul(0x9e37_79b9)));
    (n, first_distinct(RMAT_DEGREE * n, symmetric, batch))
}

/// Tuple arrays for `build`: every edge (both directions when `symmetric`),
/// then the first n/16 tuples once more, so the §IX duplicate combiner has
/// the same amount of work on every seed.
fn tuple_arrays(n: usize, edges: &[(usize, usize)], symmetric: bool) -> (Vec<usize>, Vec<usize>) {
    let (mut rows, mut cols): (Vec<usize>, Vec<usize>) = edges.iter().copied().unzip();
    if symmetric {
        rows.extend(edges.iter().map(|e| e.1));
        cols.extend(edges.iter().map(|e| e.0));
    }
    rows.extend_from_within(..n / 16);
    cols.extend_from_within(..n / 16);
    (rows, cols)
}

fn rmat_symmetric(scale: u32, seed: u64) -> (usize, Vec<usize>, Vec<usize>) {
    let (n, edges) = rmat_edges(scale, seed, true);
    let (rows, cols) = tuple_arrays(n, &edges, true);
    (n, rows, cols)
}

/// `build` + `wait(Materialize)` under one `core.build` span: a NonBlocking
/// context defers the build into the wait, so only the pair can be timed
/// from outside.
fn build_bool(
    ctx: &Context,
    n: usize,
    rows: &[usize],
    cols: &[usize],
    tr: &mut Tracer,
) -> GrbResult<Matrix<bool>> {
    let a = Matrix::<bool>::new_in(ctx, n, n)?;
    let vals = vec![true; rows.len()];
    tr.scope("core.build", |_| {
        a.build(rows, cols, &vals, Some(&BinaryOp::lor()))?;
        a.wait(WaitMode::Materialize)
    })?;
    Ok(a)
}

fn build_f64(
    ctx: &Context,
    n: usize,
    (rows, cols, vals): (&[usize], &[usize], &[f64]),
    tr: &mut Tracer,
) -> GrbResult<Matrix<f64>> {
    let a = Matrix::<f64>::new_in(ctx, n, n)?;
    tr.scope("core.build", |_| {
        a.build(rows, cols, vals, Some(&BinaryOp::min()))?;
        a.wait(WaitMode::Materialize)
    })?;
    Ok(a)
}

// ---------------------------------------------------------------- pagerank

/// 20 PageRank iterations on a symmetrised RMAT graph: dense-vector `vxm`
/// over builtin PLUS.TIMES; kernels and memory traffic do nearly all the work.
pub struct PageRank {
    pub n: usize,
    pub rows: Vec<usize>,
    pub cols: Vec<usize>,
}

const PAGERANK_ITERS: usize = 20;
const DAMPING: f64 = 0.85;

impl Workload for PageRank {
    type State = Matrix<bool>;
    type Output = Vector<f64>;
    type Reference = (Graph, Vec<f64>);
    const NAME: &'static str = "pagerank";

    fn generate(seed: u64, quick: bool) -> Self {
        let (n, rows, cols) = rmat_symmetric(if quick { 10 } else { 16 }, seed);
        PageRank { n, rows, cols }
    }

    fn edges(&self) -> u64 {
        self.rows.len() as u64
    }

    fn reference(&self) -> Self::Reference {
        let g = Graph::from_edges(self.n, &self.rows, &self.cols);
        let ranks = reference::pagerank(&g, DAMPING, PAGERANK_ITERS);
        (g, ranks)
    }

    /// Edge visits: every stored edge once per iteration.
    fn work_units((g, _): &Self::Reference) -> f64 {
        (PAGERANK_ITERS * g.nnz()) as f64
    }

    fn iterations(_: &Self::Reference) -> f64 {
        PAGERANK_ITERS as f64
    }

    fn setup(&self, ctx: &Context, tr: &mut Tracer) -> GrbResult<Self::State> {
        build_bool(ctx, self.n, &self.rows, &self.cols, tr)
    }

    fn rep(&self, a: &Self::State, tr: &mut Tracer) -> GrbResult<Self::Output> {
        // tol = 0.0 never converges early: exactly PAGERANK_ITERS iterations.
        tr.scope("algo.pagerank", |_| {
            algo::pagerank(a, DAMPING, 0.0, PAGERANK_ITERS)
        })
    }

    fn checksum(&self, out: &Self::Output) -> GrbResult<Checksum> {
        let (idx, vals) = out.extract_tuples()?;
        Ok(Checksum {
            count: idx.len() as u64,
            sum: weighted_sum(&idx, vals.into_iter()),
        })
    }

    fn verify(&self, (_, want): &Self::Reference, out: &Self::Output) -> Result<(), String> {
        let (idx, vals) = out.extract_tuples().map_err(|e| e.to_string())?;
        if idx.len() != self.n {
            return Err(format!(
                "rank vector has {} of {} entries",
                idx.len(),
                self.n
            ));
        }
        let l1: f64 = idx
            .iter()
            .zip(&vals)
            .map(|(&i, v)| (v - want[i]).abs())
            .sum();
        if l1 > REL_TOL {
            return Err(format!(
                "pagerank L1 distance to reference {l1:e} > {REL_TOL:e}"
            ));
        }
        Ok(())
    }
}

// --------------------------------------------------------------------- bfs

/// Levels and parents from 8 sources: masked, complemented, replace-mode
/// `vxm` whose frontier goes sparse → bitmap → sparse; `bfs_parents` uses a
/// user-built MIN.FIRST semiring and so takes the `dyn` dispatch fallback.
pub struct Bfs {
    pub n: usize,
    pub rows: Vec<usize>,
    pub cols: Vec<usize>,
    pub sources: Vec<usize>,
}

const BFS_SOURCES: usize = 8;

impl Workload for Bfs {
    type State = Matrix<bool>;
    type Output = Vec<(Vector<i64>, Vector<i64>)>;
    type Reference = Vec<RefBfs>;
    const NAME: &'static str = "bfs";

    fn generate(seed: u64, quick: bool) -> Self {
        let (n, rows, cols) = rmat_symmetric(if quick { 10 } else { 16 }, seed);
        let mut degree = vec![0u32; n];
        for &r in &rows {
            degree[r] += 1;
        }
        let mut rng = Lcg::new(seed);
        let mut sources = Vec::new();
        while sources.len() < BFS_SOURCES {
            let s = rng.below(n);
            if degree[s] > 0 && !sources.contains(&s) {
                sources.push(s);
            }
        }
        Bfs {
            n,
            rows,
            cols,
            sources,
        }
    }

    fn edges(&self) -> u64 {
        self.rows.len() as u64
    }

    fn reference(&self) -> Self::Reference {
        let g = Graph::from_edges(self.n, &self.rows, &self.cols);
        self.sources
            .iter()
            .map(|&s| reference::bfs(&g, s))
            .collect()
    }

    /// Traversed edges: out-edges of every reached vertex, over the levels
    /// and the parents traversal of each source.
    fn work_units(r: &Self::Reference) -> f64 {
        2.0 * r.iter().map(|b| b.edges_visited).sum::<u64>() as f64
    }

    /// Levels (depth of the deepest reached vertex + 1) over both traversals.
    fn iterations(r: &Self::Reference) -> f64 {
        let levels = |b: &RefBfs| b.levels.iter().flatten().max().map_or(0, |&l| l + 1);
        2.0 * r.iter().map(levels).sum::<i64>() as f64
    }

    fn setup(&self, ctx: &Context, tr: &mut Tracer) -> GrbResult<Self::State> {
        build_bool(ctx, self.n, &self.rows, &self.cols, tr)
    }

    fn rep(&self, a: &Self::State, tr: &mut Tracer) -> GrbResult<Self::Output> {
        self.sources
            .iter()
            .map(|&s| {
                let levels = tr.scope("algo.bfs_levels", |_| algo::bfs_levels(a, s))?;
                let parents = tr.scope("algo.bfs_parents", |_| algo::bfs_parents(a, s))?;
                Ok((levels, parents))
            })
            .collect()
    }

    fn checksum(&self, out: &Self::Output) -> GrbResult<Checksum> {
        let mut sum = Checksum { count: 0, sum: 0.0 };
        for (levels, parents) in out {
            for v in [levels, parents] {
                let (idx, vals) = v.extract_tuples()?;
                sum.count += idx.len() as u64;
                sum.sum += vals.iter().sum::<i64>() as f64;
            }
        }
        Ok(sum)
    }

    fn verify(&self, r: &Self::Reference, out: &Self::Output) -> Result<(), String> {
        let dense = |v: &Vector<i64>| -> Result<Vec<Option<i64>>, String> {
            let (idx, vals) = v.extract_tuples().map_err(|e| e.to_string())?;
            let mut d = vec![None; self.n];
            for (i, x) in idx.into_iter().zip(vals) {
                d[i] = Some(x);
            }
            Ok(d)
        };
        for ((want, (levels, parents)), s) in r.iter().zip(out).zip(&self.sources) {
            if dense(levels)? != want.levels {
                return Err(format!(
                    "bfs levels from source {s} differ from the queue BFS"
                ));
            }
            // The reference parent is the smallest-id neighbour one level
            // up, so equality proves both validity and the tie-break.
            if dense(parents)? != want.parents {
                return Err(format!(
                    "bfs parents from source {s} differ from the reference"
                ));
            }
        }
        Ok(())
    }
}

// ------------------------------------------------------------------ spgemm

/// Triangle counting (select TRIL → structure-masked PLUS.PAIR `mxm` →
/// reduce) plus an unmasked PLUS.TIMES `mxm` into a fresh output: SpGEMM,
/// workspace reuse and output allocation do the work; SpMV does none.
pub struct SpGemm {
    pub n_a: usize,
    pub a_rows: Vec<usize>,
    pub a_cols: Vec<usize>,
    pub n_b: usize,
    pub b_rows: Vec<usize>,
    pub b_cols: Vec<usize>,
    pub b_vals: Vec<f64>,
}

pub struct SpGemmState {
    pub a: Matrix<bool>,
    pub b: Matrix<f64>,
}

pub struct SpGemmReference {
    triangles: u64,
    wedges: u64,
    product: Tuples,
    products: u64,
}

impl Workload for SpGemm {
    type State = SpGemmState;
    type Output = (u64, Matrix<f64>);
    type Reference = SpGemmReference;
    const NAME: &'static str = "spgemm";

    fn generate(seed: u64, quick: bool) -> Self {
        let (n_a, a_rows, a_cols) = rmat_symmetric(if quick { 9 } else { 15 }, seed);
        let n_b = if quick { 512 } else { 8192 };
        let batch = |round: u64| io::erdos_renyi(n_b, n_b * 16, seed.wrapping_add(1 + round));
        let edges = first_distinct(15 * n_b, false, batch);
        let (b_rows, b_cols) = tuple_arrays(n_b, &edges, false);
        let mut rng = Lcg::new(seed);
        let mut b_vals: Vec<f64> = (0..edges.len()).map(|_| rng.unit()).collect();
        b_vals.extend_from_within(..n_b / 16);
        SpGemm {
            n_a,
            a_rows,
            a_cols,
            n_b,
            b_rows,
            b_cols,
            b_vals,
        }
    }

    fn edges(&self) -> u64 {
        (self.a_rows.len() + self.b_rows.len()) as u64
    }

    fn reference(&self) -> Self::Reference {
        let g = Graph::from_edges(self.n_a, &self.a_rows, &self.a_cols);
        let (triangles, wedges) = reference::triangles(&g);
        let b = reference::dedup_min(&self.b_rows, &self.b_cols, &self.b_vals);
        let (product, products) = reference::spgemm_square(self.n_b, &b);
        SpGemmReference {
            triangles,
            wedges,
            product,
            products,
        }
    }

    /// Multiply-adds: wedges of the masked product + products of the
    /// unmasked one.
    fn work_units(r: &Self::Reference) -> f64 {
        (r.wedges + r.products) as f64
    }

    fn iterations(_: &Self::Reference) -> f64 {
        0.0
    }

    fn setup(&self, ctx: &Context, tr: &mut Tracer) -> GrbResult<Self::State> {
        Ok(SpGemmState {
            a: build_bool(ctx, self.n_a, &self.a_rows, &self.a_cols, tr)?,
            b: build_f64(
                ctx,
                self.n_b,
                (&self.b_rows, &self.b_cols, &self.b_vals),
                tr,
            )?,
        })
    }

    fn rep(&self, st: &Self::State, tr: &mut Tracer) -> GrbResult<Self::Output> {
        let triangles = tr.scope("algo.triangle_count", |_| algo::triangle_count(&st.a))?;
        let c = Matrix::<f64>::new_in(&st.b.context(), self.n_b, self.n_b)?;
        tr.scope("core.mxm", |_| {
            mxm(
                &c,
                no_mask(),
                None,
                &Semiring::<f64, f64, f64>::plus_times(),
                &st.b,
                &st.b,
                &Descriptor::default(),
            )
        })?;
        Ok((triangles, c))
    }

    /// `count` is triangles + stored entries of the product (both exact);
    /// the sum is the engine's own `reduce`, which `verify` checks against
    /// the reference once, so a rep does not copy 2 M tuples out.
    fn checksum(&self, (triangles, c): &Self::Output) -> GrbResult<Checksum> {
        Ok(Checksum {
            count: triangles + c.nvals()? as u64,
            sum: reduce_to_value(&Monoid::plus(), c)?,
        })
    }

    fn verify(&self, r: &Self::Reference, (triangles, c): &Self::Output) -> Result<(), String> {
        if *triangles != r.triangles {
            return Err(format!(
                "{triangles} triangles, reference counts {}",
                r.triangles
            ));
        }
        let (rows, cols, vals) = c.extract_tuples().map_err(|e| e.to_string())?;
        let mut got: Tuples = rows
            .into_iter()
            .zip(cols)
            .zip(vals)
            .map(|((i, j), v)| (i, j, v))
            .collect();
        got.sort_by_key(|t| (t.0, t.1));
        if got.len() != r.product.len() {
            return Err(format!(
                "product has {} entries, reference {}",
                got.len(),
                r.product.len()
            ));
        }
        for (g, w) in got.iter().zip(&r.product) {
            if (g.0, g.1) != (w.0, w.1) || !close(g.2, w.2) {
                return Err(format!("product entry {g:?} differs from reference {w:?}"));
            }
        }
        let sum = reduce_to_value(&Monoid::plus(), c).map_err(|e| e.to_string())?;
        let want: f64 = r.product.iter().map(|t| t.2).sum();
        if !close(sum, want) {
            return Err(format!(
                "reduce of the product {sum} differs from reference {want}"
            ));
        }
        Ok(())
    }
}

// ------------------------------------------------------------------ update

/// Writes beside reads in a NonBlocking context: build, then batches of
/// `set_element`/`remove_element`, `wait`, and lazy op chains, then
/// `extract_tuples`/`serialize`/`deserialize`. Kernels are small, so the
/// pending queue, the op DAG, COO → CSR canonicalisation and serialisation
/// decide the time.
pub struct Update {
    pub n: usize,
    pub rows: Vec<usize>,
    pub cols: Vec<usize>,
    pub vals: Vec<f64>,
    /// The built matrix (duplicates collapsed), which removes draw from.
    pub built: Tuples,
    pub u: Vec<f64>,
    pub script: Vec<Batch>,
}

pub const UPDATE_BATCHES: usize = 8;
pub const UPDATE_SETS: usize = 1024;
pub const UPDATE_REMOVES: usize = 4;
pub const UPDATE_CHAINS: usize = 4;

pub struct UpdateState {
    ctx: Context,
    u: Vector<f64>,
}

pub struct UpdateOutput {
    chain_sums: Vec<f64>,
    tuples: (Vec<usize>, Vec<usize>, Vec<f64>),
    serialized_bytes: usize,
    restored: Matrix<f64>,
}

impl Workload for Update {
    type State = UpdateState;
    type Output = UpdateOutput;
    type Reference = UpdateResult;
    const NAME: &'static str = "update";
    const MODE: Mode = Mode::NonBlocking;

    fn generate(seed: u64, quick: bool) -> Self {
        let (n, edges) = rmat_edges(if quick { 9 } else { 14 }, seed, false);
        let (rows, cols) = tuple_arrays(n, &edges, false);
        let mut rng = Lcg::new(seed);
        let mut vals: Vec<f64> = (0..edges.len()).map(|_| rng.weight()).collect();
        vals.extend_from_within(..n / 16);
        let built = reference::dedup_min(&rows, &cols, &vals);
        // Every remove hits a stored entry no earlier remove took, so each
        // one rebuilds the store and the rep's work does not depend on luck.
        let mut removed = HashSet::new();
        let script = (0..UPDATE_BATCHES)
            .map(|_| Batch {
                sets: (0..UPDATE_SETS)
                    .map(|_| (rng.below(n), rng.below(n), rng.weight()))
                    .collect(),
                removes: (0..UPDATE_REMOVES)
                    .map(|_| loop {
                        let t = built[rng.below(built.len())];
                        if removed.insert((t.0, t.1)) {
                            break (t.0, t.1);
                        }
                    })
                    .collect(),
            })
            .collect();
        Update {
            n,
            u: (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect(),
            rows,
            cols,
            vals,
            built,
            script,
        }
    }

    fn edges(&self) -> u64 {
        self.rows.len() as u64
    }

    fn reference(&self) -> Self::Reference {
        reference::update(self.n, &self.built, &self.u, &self.script, UPDATE_CHAINS)
    }

    fn work_units(_: &Self::Reference) -> f64 {
        UPDATE_BATCHES as f64
    }

    fn iterations(_: &Self::Reference) -> f64 {
        0.0
    }

    fn setup(&self, ctx: &Context, _: &mut Tracer) -> GrbResult<Self::State> {
        let u = Vector::<f64>::new_in(ctx, self.n)?;
        let all: Vec<usize> = (0..self.n).collect();
        u.build(&all, &self.u, None)?;
        u.wait(WaitMode::Materialize)?;
        Ok(UpdateState {
            ctx: ctx.clone(),
            u,
        })
    }

    fn rep(&self, st: &Self::State, tr: &mut Tracer) -> GrbResult<Self::Output> {
        let a = build_f64(&st.ctx, self.n, (&self.rows, &self.cols, &self.vals), tr)?;
        let plus_times = Semiring::<f64, f64, f64>::plus_times();
        let inc = UnaryOp::new("inc", |x: &f64| x + 1.0);
        let halve = UnaryOp::new("halve", |x: &f64| x * 0.5);
        let d = Descriptor::default();
        let mut chain_sums = Vec::with_capacity(UPDATE_BATCHES * UPDATE_CHAINS);
        for batch in &self.script {
            tr.scope("core.set_element", |_| {
                batch
                    .sets
                    .iter()
                    .try_for_each(|&(i, j, v)| a.set_element(v, i, j))
            })?;
            tr.scope("core.remove_element", |_| {
                batch
                    .removes
                    .iter()
                    .try_for_each(|&(i, j)| a.remove_element(i, j))
            })?;
            tr.scope("core.wait", |_| a.wait(WaitMode::Materialize))?;
            let mut x = st.u.clone();
            for _ in 0..UPDATE_CHAINS {
                let y = tr.scope("core.chain", |_| -> GrbResult<Vector<f64>> {
                    let w = Vector::<f64>::new_in(&st.ctx, self.n)?;
                    mxv(&w, no_mask_v(), None, &plus_times, &a, &x, &d)?;
                    apply_v(&w, no_mask_v(), None, &inc, &w, &d)?;
                    select_v(&w, no_mask_v(), None, &IndexUnaryOp::valuegt(), &w, 3.0, &d)?;
                    let y = Vector::<f64>::new_in(&st.ctx, self.n)?;
                    mxv(&y, no_mask_v(), None, &plus_times, &a, &w, &d)?;
                    apply_v(&y, no_mask_v(), None, &halve, &y, &d)?;
                    chain_sums.push(reduce_to_value_v(&Monoid::plus(), &y)?);
                    Ok(y)
                })?;
                x = y;
            }
        }
        let tuples = tr.scope("core.extract_tuples", |_| a.extract_tuples())?;
        let bytes = tr.scope("core.serialize", |_| a.serialize())?;
        let restored = tr.scope("core.deserialize", |_| Matrix::<f64>::deserialize(&bytes))?;
        Ok(UpdateOutput {
            chain_sums,
            tuples,
            serialized_bytes: bytes.len(),
            restored,
        })
    }

    fn checksum(&self, out: &Self::Output) -> GrbResult<Checksum> {
        let (rows, _, vals) = &out.tuples;
        Ok(Checksum {
            count: (rows.len() + out.restored.nvals()?) as u64,
            sum: weighted_sum(rows, vals.iter().copied()) + out.chain_sums.iter().sum::<f64>(),
        })
    }

    fn verify(&self, r: &Self::Reference, out: &Self::Output) -> Result<(), String> {
        let zip = |(rows, cols, vals): &(Vec<usize>, Vec<usize>, Vec<f64>)| -> Tuples {
            let mut t: Tuples = (0..rows.len())
                .map(|k| (rows[k], cols[k], vals[k]))
                .collect();
            t.sort_by_key(|t| (t.0, t.1));
            t
        };
        if zip(&out.tuples) != r.tuples {
            return Err("extracted tuples differ from the BTreeMap replay".to_string());
        }
        let restored = out.restored.extract_tuples().map_err(|e| e.to_string())?;
        if zip(&restored) != r.tuples {
            return Err("deserialised matrix differs from the original".to_string());
        }
        if out.chain_sums.len() != r.chain_sums.len() {
            return Err(format!(
                "{} chain results, reference {}",
                out.chain_sums.len(),
                r.chain_sums.len()
            ));
        }
        for (k, (g, w)) in out.chain_sums.iter().zip(&r.chain_sums).enumerate() {
            if !close(*g, *w) {
                return Err(format!("chain {k} reduced to {g}, reference {w}"));
            }
        }
        Ok(())
    }

    fn serialized_bytes(out: &Self::Output) -> usize {
        out.serialized_bytes
    }
}
