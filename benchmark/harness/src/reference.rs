//! Independent reference implementations over plain `Vec`s and
//! `BTreeMap`s. Nothing here calls the engine: these are what the engine's
//! outputs are verified against, so they favour obviousness over speed.

use std::collections::{BTreeMap, VecDeque};

/// A pattern-only graph in compressed rows with sorted, duplicate-free
/// adjacency lists.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    pub indptr: Vec<usize>,
    pub adj: Vec<u32>,
}

impl Graph {
    /// Builds from directed edges; duplicate edges collapse.
    pub fn from_edges(n: usize, src: &[usize], dst: &[usize]) -> Graph {
        let mut pairs: Vec<(u32, u32)> = src
            .iter()
            .zip(dst)
            .map(|(&s, &d)| (s as u32, d as u32))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut indptr = vec![0usize; n + 1];
        for &(s, _) in &pairs {
            indptr[s as usize + 1] += 1;
        }
        for i in 0..n {
            indptr[i + 1] += indptr[i];
        }
        Graph {
            indptr,
            adj: pairs.into_iter().map(|p| p.1).collect(),
        }
    }

    pub fn n(&self) -> usize {
        self.indptr.len() - 1
    }

    pub fn nnz(&self) -> usize {
        self.adj.len()
    }

    pub fn row(&self, u: usize) -> &[u32] {
        &self.adj[self.indptr[u]..self.indptr[u + 1]]
    }

    pub fn degree(&self, u: usize) -> usize {
        self.indptr[u + 1] - self.indptr[u]
    }
}

/// Power-iteration PageRank, exactly `iters` iterations: every vertex
/// starts at 1/n; the rank of vertices without out-edges is spread evenly.
pub fn pagerank(g: &Graph, damping: f64, iters: usize) -> Vec<f64> {
    let n = g.n();
    let nf = n as f64;
    let mut rank = vec![1.0 / nf; n];
    for _ in 0..iters {
        let dangling: f64 = (0..n).filter(|&u| g.degree(u) == 0).map(|u| rank[u]).sum();
        let mut next = vec![(1.0 - damping) / nf + damping * dangling / nf; n];
        for (u, r) in rank.iter().enumerate() {
            let share = damping * r / g.degree(u) as f64;
            for &v in g.row(u) {
                next[v as usize] += share;
            }
        }
        rank = next;
    }
    rank
}

/// One breadth-first traversal: hop distance per vertex and, for every
/// reached vertex but the source, the smallest-id neighbour one level up.
#[derive(Debug, Clone, PartialEq)]
pub struct Bfs {
    /// `None` = unreached.
    pub levels: Vec<Option<i64>>,
    /// `parents[source] = source`.
    pub parents: Vec<Option<i64>>,
    /// Out-edges of every reached vertex (the traversed-edge count).
    pub edges_visited: u64,
}

/// Queue BFS from `source`.
pub fn bfs(g: &Graph, source: usize) -> Bfs {
    let n = g.n();
    let mut levels: Vec<Option<i64>> = vec![None; n];
    let mut parents: Vec<Option<i64>> = vec![None; n];
    levels[source] = Some(0);
    parents[source] = Some(source as i64);
    let mut queue = VecDeque::from([source]);
    let mut edges_visited = 0u64;
    while let Some(u) = queue.pop_front() {
        let next = levels[u].expect("queued vertices have a level") + 1;
        edges_visited += g.degree(u) as u64;
        for &v in g.row(u) {
            let v = v as usize;
            match levels[v] {
                None => {
                    levels[v] = Some(next);
                    parents[v] = Some(u as i64);
                    queue.push_back(v);
                }
                // Another vertex of the previous level: keep the smaller id.
                Some(l) if l == next => {
                    parents[v] = parents[v].min(Some(u as i64));
                }
                Some(_) => {}
            }
        }
    }
    Bfs {
        levels,
        parents,
        edges_visited,
    }
}

/// The strictly-lower-triangular part of a symmetric graph.
fn lower(g: &Graph, u: usize) -> &[u32] {
    let row = g.row(u);
    &row[..row.partition_point(|&v| (v as usize) < u)]
}

/// Triangles of a symmetric loop-free graph by sorted-adjacency
/// intersection, and the wedge count Σ_{(i,k) ∈ L} |L(k,:)| — the
/// multiply-adds an unmasked L·L performs, the masked product's work unit.
pub fn triangles(g: &Graph) -> (u64, u64) {
    let mut triangles = 0u64;
    let mut wedges = 0u64;
    for i in 0..g.n() {
        let li = lower(g, i);
        for &k in li {
            let lk = lower(g, k as usize);
            wedges += lk.len() as u64;
            let (mut a, mut b) = (0, 0);
            while a < li.len() && b < lk.len() {
                match li[a].cmp(&lk[b]) {
                    std::cmp::Ordering::Less => a += 1,
                    std::cmp::Ordering::Greater => b += 1,
                    std::cmp::Ordering::Equal => {
                        triangles += 1;
                        a += 1;
                        b += 1;
                    }
                }
            }
        }
    }
    (triangles, wedges)
}

/// A weighted matrix as sorted `(row, col) → value` tuples.
pub type Tuples = Vec<(usize, usize, f64)>;

/// Collapses duplicate coordinates keeping the smaller weight, sorted by
/// (row, col).
pub fn dedup_min(rows: &[usize], cols: &[usize], vals: &[f64]) -> Tuples {
    let mut m: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for ((&i, &j), &v) in rows.iter().zip(cols).zip(vals) {
        m.entry((i, j)).and_modify(|x| *x = x.min(v)).or_insert(v);
    }
    m.into_iter().map(|((i, j), v)| (i, j, v)).collect()
}

fn row_ranges(n: usize, t: &Tuples) -> Vec<usize> {
    let mut indptr = vec![0usize; n + 1];
    for &(i, _, _) in t {
        indptr[i + 1] += 1;
    }
    for i in 0..n {
        indptr[i + 1] += indptr[i];
    }
    indptr
}

/// Row-wise dense-accumulator `B · B` over PLUS.TIMES. Returns the product
/// sorted by (row, col) and the number of multiply-adds performed.
pub fn spgemm_square(n: usize, b: &Tuples) -> (Tuples, u64) {
    let indptr = row_ranges(n, b);
    let mut acc = vec![0.0f64; n];
    let mut seen = vec![false; n];
    let mut out = Tuples::new();
    let mut flops = 0u64;
    for i in 0..n {
        let mut touched: Vec<usize> = Vec::new();
        for &(_, k, x) in &b[indptr[i]..indptr[i + 1]] {
            for &(_, j, y) in &b[indptr[k]..indptr[k + 1]] {
                flops += 1;
                if !seen[j] {
                    seen[j] = true;
                    acc[j] = 0.0;
                    touched.push(j);
                }
                acc[j] += x * y;
            }
        }
        touched.sort_unstable();
        for j in touched {
            out.push((i, j, acc[j]));
            seen[j] = false;
        }
    }
    (out, flops)
}

/// One batch of the `update` script.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub sets: Vec<(usize, usize, f64)>,
    pub removes: Vec<(usize, usize)>,
}

/// `y = A · x` over PLUS.TIMES with GraphBLAS sparsity: `y[i]` exists iff
/// row `i` meets at least one present `x[j]`.
fn mxv(n: usize, a: &BTreeMap<(usize, usize), f64>, x: &[Option<f64>]) -> Vec<Option<f64>> {
    let mut y = vec![None; n];
    for (&(i, j), &v) in a {
        if let Some(xj) = x[j] {
            *y[i].get_or_insert(0.0) += v * xj;
        }
    }
    y
}

/// What the `update` script must produce.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateResult {
    /// One reduced value per chain, in script order.
    pub chain_sums: Vec<f64>,
    /// The matrix after the last batch, sorted by (row, col).
    pub tuples: Tuples,
}

/// Replays the `update` script on a `BTreeMap`: build (duplicates keep the
/// smaller weight), then per batch the sets (last wins), the removes, and
/// `chains` chains of `mxv → +1 → keep > 3.0 → mxv → ×0.5 → Σ`, each chain
/// after the first of a batch reading the previous chain's output.
pub fn update(
    n: usize,
    built: &Tuples,
    u: &[f64],
    script: &[Batch],
    chains: usize,
) -> UpdateResult {
    let mut a: BTreeMap<(usize, usize), f64> = built.iter().map(|&(i, j, v)| ((i, j), v)).collect();
    let mut chain_sums = Vec::new();
    for batch in script {
        for &(i, j, v) in &batch.sets {
            a.insert((i, j), v);
        }
        for pos in &batch.removes {
            a.remove(pos);
        }
        let mut x: Vec<Option<f64>> = u.iter().map(|&v| Some(v)).collect();
        for _ in 0..chains {
            let w: Vec<Option<f64>> = mxv(n, &a, &x)
                .into_iter()
                .map(|e| e.map(|v| v + 1.0).filter(|&v| v > 3.0))
                .collect();
            let y: Vec<Option<f64>> = mxv(n, &a, &w)
                .into_iter()
                .map(|e| e.map(|v| v * 0.5))
                .collect();
            chain_sums.push(y.iter().flatten().sum());
            x = y;
        }
    }
    UpdateResult {
        chain_sums,
        tuples: a.into_iter().map(|((i, j), v)| (i, j, v)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 6-vertex hand case: a triangle 0-1-2 with a tail 2-3-4; vertex 5
    /// is isolated. Symmetric, no self-loops.
    fn hand_graph() -> Graph {
        let und = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)];
        let (mut src, mut dst) = (Vec::new(), Vec::new());
        for &(a, b) in &und {
            src.extend([a, b]);
            dst.extend([b, a]);
        }
        // A duplicate edge must collapse.
        src.push(0);
        dst.push(1);
        Graph::from_edges(6, &src, &dst)
    }

    #[test]
    fn graph_rows_are_sorted_and_deduplicated() {
        let g = hand_graph();
        assert_eq!(g.nnz(), 10);
        assert_eq!(g.row(2), &[0, 1, 3]);
        assert_eq!(g.degree(5), 0);
    }

    #[test]
    fn bfs_on_the_hand_case() {
        let r = bfs(&hand_graph(), 0);
        assert_eq!(
            r.levels,
            vec![Some(0), Some(1), Some(1), Some(2), Some(3), None]
        );
        assert_eq!(
            r.parents,
            vec![Some(0), Some(0), Some(0), Some(2), Some(3), None]
        );
        // Degrees of the reached vertices 0..=4: 2 + 2 + 3 + 2 + 1.
        assert_eq!(r.edges_visited, 10);
        // From 4, vertex 2 is discovered by 3 and both 0 and 1 by 2.
        let r = bfs(&hand_graph(), 4);
        assert_eq!(r.parents[0], Some(2));
        assert_eq!(r.parents[1], Some(2));
    }

    #[test]
    fn bfs_parent_ties_break_to_the_smaller_id() {
        // 0 → {1, 2} → 3: both 1 and 2 are one level above 3.
        let g = Graph::from_edges(4, &[0, 0, 2, 1], &[2, 1, 3, 3]);
        assert_eq!(bfs(&g, 0).parents[3], Some(1));
    }

    #[test]
    fn triangles_on_the_hand_case() {
        // L rows: 1:{0} 2:{0,1} 3:{2} 4:{3}. Wedges: (1,0)→0, (2,0)→0,
        // (2,1)→|L(1)|=1, (3,2)→2, (4,3)→1.
        assert_eq!(triangles(&hand_graph()), (1, 4));
        // K4 has four triangles.
        let (mut s, mut d) = (Vec::new(), Vec::new());
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    s.push(a);
                    d.push(b);
                }
            }
        }
        assert_eq!(triangles(&Graph::from_edges(4, &s, &d)).0, 4);
    }

    #[test]
    fn pagerank_on_the_hand_case() {
        let g = hand_graph();
        let r = pagerank(&g, 0.85, 20);
        assert!(
            (r.iter().sum::<f64>() - 1.0).abs() < 1e-12,
            "mass is conserved"
        );
        // Symmetric positions rank equally; the hub 2 ranks highest; the
        // isolated vertex keeps only teleport + its own spread mass.
        assert!((r[0] - r[1]).abs() < 1e-15);
        assert!(r[2] > r[0] && r[2] > r[3] && r[3] > r[4] && r[4] > r[5]);
        // One iteration by hand for vertex 5: (0.15 + 0.85 · 1/6) / 6.
        let one = pagerank(&g, 0.85, 1);
        assert!((one[5] - (0.15 + 0.85 / 6.0) / 6.0).abs() < 1e-15);
        // Vertex 4 hears only from 3 (degree 2): base + 0.85 · (1/6)/2.
        assert!((one[4] - (one[5] + 0.85 / 12.0)).abs() < 1e-15);
    }

    #[test]
    fn spgemm_on_a_hand_case() {
        // B = [[1,2,0],[0,0,3],[4,0,0]] → B² = [[1,2,6],[12,0,0],[4,8,0]].
        let b: Tuples = vec![(0, 0, 1.0), (0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)];
        let (c, flops) = spgemm_square(3, &b);
        assert_eq!(
            c,
            vec![
                (0, 0, 1.0),
                (0, 1, 2.0),
                (0, 2, 6.0),
                (1, 0, 12.0),
                (2, 0, 4.0),
                (2, 1, 8.0)
            ]
        );
        assert_eq!(flops, 6);
        assert_eq!(
            dedup_min(&[1, 0, 1], &[1, 0, 1], &[5.0, 1.0, 2.0]),
            vec![(0, 0, 1.0), (1, 1, 2.0)]
        );
    }

    #[test]
    fn update_replay_on_a_hand_case() {
        // A = diag(2, 2) plus A(0,1) = 1; u = (1, 1).
        let built: Tuples = vec![(0, 0, 2.0), (0, 1, 1.0), (1, 1, 2.0)];
        let script = vec![Batch {
            sets: vec![(1, 0, 9.0), (1, 0, 4.0)], // last wins
            removes: vec![(0, 1), (0, 1)],        // second remove is a no-op
        }];
        let r = update(2, &built, &[1.0, 1.0], &script, 2);
        assert_eq!(r.tuples, vec![(0, 0, 2.0), (1, 0, 4.0), (1, 1, 2.0)]);
        // Chain 1: A·u = (2, 6) → +1 → (3, 7) → keep > 3 → (-, 7)
        //   → A·w = (-, 14) → ×0.5 → (-, 7); Σ = 7.
        // Chain 2 reads (-, 7): A·x = (-, 14) → 15 → A·w = (-, 30) → 15.
        assert_eq!(r.chain_sums, vec![7.0, 15.0]);
    }
}
