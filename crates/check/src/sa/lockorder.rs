//! Lock-order graph extraction and potential-deadlock detection.
//!
//! Nodes are declared locks (`crate/file::Owner.field`); a directed edge
//! `A -> B` means some execution path acquires `B` while holding `A`.
//! Edges come from two sources:
//!
//! 1. **Direct nesting**: an acquisition event whose held-set is
//!    non-empty contributes one edge per held lock.
//! 2. **Interprocedural nesting**: a call made while holding `A` to a
//!    function whose summary (fixpoint over the call graph) may acquire
//!    `B` contributes `A -> B` with the call chain in the witness.
//!
//! A cycle in this graph is a potential ABBA deadlock; each strongly
//! connected component yields one `lock-order-cycle` finding whose
//! witness lists a concrete `file:line` chain, one line per edge. A
//! condvar wait performed while holding any lock *other than* the one
//! whose guard is handed to `wait` yields a `wait-while-holding`
//! finding — the extra lock stays held for the full (unbounded) wait,
//! which is the classic lost-resource shape even when no cycle exists.
//!
//! Call resolution is deliberately conservative (see `model`): a call
//! that cannot be resolved unambiguously contributes nothing. That can
//! miss real edges — this is a bug-finder with a vector-clock dynamic
//! detector (`check::sched`) covering what static ambiguity hides — but
//! it never invents an edge between unrelated locks.

use super::model::{CallSite, Model};
use super::{Finding, Rule};
use std::collections::{HashMap, HashSet};

/// One witnessed edge in the lock-order graph.
#[derive(Debug, Clone)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: usize,
    /// Function whose body witnesses the edge.
    pub in_fn: String,
    /// Call chain for interprocedural edges (`caller -> callee -> …`).
    pub via: Vec<String>,
}

/// The extracted graph, exposed for `grbsa --verbose`.
#[derive(Debug, Default)]
pub struct LockGraph {
    pub edges: Vec<Edge>,
    pub calls_resolved: usize,
    pub calls_skipped: usize,
}

/// Where a function may acquire a lock: (file, line, call chain from this
/// fn to the acquiring fn).
type Witness = (String, usize, Vec<String>);

/// Per-function may-acquire summary: lock id -> first witness.
type Summary = HashMap<String, Witness>;

/// Resolves a call site to a function index, or `None` when ambiguous.
fn resolve_call(
    model: &Model,
    caller: usize,
    site: &CallSite,
    by_name: &HashMap<&str, Vec<usize>>,
    by_qual: &HashMap<(String, String), usize>,
) -> Option<usize> {
    if site.is_self {
        if let Some(t) = &model.fns[caller].impl_type {
            if let Some(&idx) = by_qual.get(&(t.clone(), site.name.clone())) {
                return Some(idx);
            }
        }
    }
    if super::model::method_denylisted(&site.name) {
        return None;
    }
    match by_name.get(site.name.as_str()) {
        Some(c) if c.len() == 1 => Some(c[0]),
        _ => None,
    }
}

/// Builds the lock-order graph from the model.
pub fn build_graph(model: &Model) -> LockGraph {
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut by_qual: HashMap<(String, String), usize> = HashMap::new();
    for (i, f) in model.fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
        if let Some(t) = &f.impl_type {
            by_qual.insert((t.clone(), f.name.clone()), i);
        }
    }

    // Fixpoint over may-acquire summaries.
    let mut summaries: Vec<Summary> = model
        .events
        .iter()
        .map(|ev| {
            let mut s = Summary::new();
            for a in &ev.acquires {
                s.entry(a.lock.clone())
                    .or_insert_with(|| (String::new(), a.line, Vec::new()));
            }
            s
        })
        .collect();
    // Direct witnesses carry their own file.
    for (i, s) in summaries.iter_mut().enumerate() {
        for v in s.values_mut() {
            v.0 = model.fns[i].file.clone();
        }
    }
    let mut resolved_count = 0usize;
    let mut skipped = 0usize;
    // Pre-resolve call targets once.
    let resolved: Vec<Vec<(usize, usize)>> = model
        .events
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            ev.calls
                .iter()
                .filter_map(|c| {
                    match resolve_call(model, i, c, &by_name, &by_qual) {
                        Some(t) => {
                            resolved_count += 1;
                            Some((t, c.line))
                        }
                        None => {
                            skipped += 1;
                            None
                        }
                    }
                })
                .collect()
        })
        .collect();
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds <= model.fns.len() + 1 {
        changed = false;
        rounds += 1;
        for i in 0..model.fns.len() {
            for &(callee, line) in &resolved[i] {
                if callee == i {
                    continue;
                }
                let additions: Vec<(String, Witness)> = summaries[callee]
                    .iter()
                    .filter(|(lock, _)| !summaries[i].contains_key(*lock))
                    .map(|(lock, w)| {
                        let mut via = vec![model.fns[callee].qual.clone()];
                        via.extend(w.2.iter().cloned());
                        (lock.clone(), (model.fns[i].file.clone(), line, via))
                    })
                    .collect();
                if !additions.is_empty() {
                    changed = true;
                    summaries[i].extend(additions);
                }
            }
        }
    }

    // Edges.
    let mut graph = LockGraph {
        calls_resolved: resolved_count,
        calls_skipped: skipped,
        ..Default::default()
    };
    let mut seen: HashSet<(String, String)> = HashSet::new();
    for (i, ev) in model.events.iter().enumerate() {
        for a in &ev.acquires {
            for h in &a.held {
                if seen.insert((h.clone(), a.lock.clone())) {
                    graph.edges.push(Edge {
                        from: h.clone(),
                        to: a.lock.clone(),
                        file: model.fns[i].file.clone(),
                        line: a.line,
                        in_fn: model.fns[i].qual.clone(),
                        via: Vec::new(),
                    });
                }
            }
        }
        for (ci, c) in ev.calls.iter().enumerate() {
            if c.held.is_empty() {
                continue;
            }
            let Some(&(callee, line)) = resolved_for(&resolved[i], ci, c) else {
                continue;
            };
            for (lock, w) in &summaries[callee] {
                for h in &c.held {
                    if h == lock {
                        continue;
                    }
                    if seen.insert((h.clone(), lock.clone())) {
                        let mut via = vec![model.fns[callee].qual.clone()];
                        via.extend(w.2.iter().cloned());
                        graph.edges.push(Edge {
                            from: h.clone(),
                            to: lock.clone(),
                            file: model.fns[i].file.clone(),
                            line,
                            in_fn: model.fns[i].qual.clone(),
                            via,
                        });
                    }
                }
            }
        }
    }
    graph
}

/// Looks up the pre-resolved target for the `ci`-th call of a function.
/// The resolved list is filtered, so match on the recorded line.
fn resolved_for<'a>(
    resolved: &'a [(usize, usize)],
    _ci: usize,
    c: &CallSite,
) -> Option<&'a (usize, usize)> {
    resolved.iter().find(|(_, line)| *line == c.line)
}

/// Runs cycle detection and the wait-while-holding rule, returning
/// findings (unwaived filtering happens in the caller).
pub fn analyze(model: &Model) -> (LockGraph, Vec<Finding>) {
    let graph = build_graph(model);
    let mut findings = Vec::new();

    // Adjacency over lock ids.
    let mut adj: HashMap<&str, Vec<&Edge>> = HashMap::new();
    for e in &graph.edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }

    // SCCs via iterative DFS (Tarjan). Small graphs; recursion depth is
    // bounded anyway, but iterative keeps pathological fixtures safe.
    let nodes: Vec<&str> = {
        let mut set: Vec<&str> = graph
            .edges
            .iter()
            .flat_map(|e| [e.from.as_str(), e.to.as_str()])
            .collect();
        set.sort_unstable();
        set.dedup();
        set
    };
    let sccs = tarjan(&nodes, &adj);

    let mut reported: HashSet<usize> = HashSet::new();
    for (scc_idx, scc) in sccs.iter().enumerate() {
        let in_scc: HashSet<&str> = scc.iter().copied().collect();
        let cyclic = scc.len() > 1
            || adj
                .get(scc[0])
                .map(|es| es.iter().any(|e| e.to == scc[0]))
                .unwrap_or(false);
        if !cyclic || reported.contains(&scc_idx) {
            continue;
        }
        reported.insert(scc_idx);
        // Reconstruct one concrete cycle: walk from the first node
        // through in-SCC edges back to the start.
        let cycle = cycle_path(scc[0], &in_scc, &adj);
        let mut chain: Vec<String> = cycle.iter().map(|e| e.from.clone()).collect();
        chain.push(cycle.last().map(|e| e.to.clone()).unwrap_or_default());
        let witness: Vec<String> = cycle
            .iter()
            .map(|e| {
                let via = if e.via.is_empty() {
                    String::new()
                } else {
                    format!(" via {}", e.via.join(" -> "))
                };
                format!(
                    "{}:{}: {} acquired while holding {} (in {}{})",
                    e.file, e.line, e.to, e.from, e.in_fn, via
                )
            })
            .collect();
        let first = &cycle[0];
        findings.push(Finding {
            rule: Rule::LockOrderCycle,
            file: first.file.clone(),
            line: first.line,
            message: format!("potential deadlock cycle: {}", chain.join(" -> ")),
            witness: witness.join("; "),
            sites: cycle.iter().map(|e| (e.file.clone(), e.line)).collect(),
        });
    }

    for (i, ev) in model.events.iter().enumerate() {
        for w in &ev.waits {
            if w.held_other.is_empty() {
                continue;
            }
            findings.push(Finding {
                rule: Rule::WaitWhileHolding,
                file: model.fns[i].file.clone(),
                line: w.line,
                message: format!(
                    "condvar wait on {} while still holding {} (in {}): the held lock blocks \
                     its other users for the full wait",
                    w.condvar,
                    w.held_other.join(", "),
                    model.fns[i].qual
                ),
                witness: format!("{}:{}", model.fns[i].file, w.line),
                sites: vec![(model.fns[i].file.clone(), w.line)],
            });
        }
    }
    (graph, findings)
}

/// Walks a concrete cycle starting and ending at `start`, restricted to
/// SCC-internal edges. BFS over edges guarantees a shortest witness.
fn cycle_path<'a>(
    start: &str,
    in_scc: &HashSet<&str>,
    adj: &HashMap<&str, Vec<&'a Edge>>,
) -> Vec<&'a Edge> {
    // BFS from start back to start.
    let mut prev: HashMap<&str, &Edge> = HashMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    while let Some(n) = queue.pop_front() {
        for e in adj.get(n).into_iter().flatten() {
            if !in_scc.contains(e.to.as_str()) {
                continue;
            }
            if e.to == start {
                // Found the closing edge; unwind.
                let mut path = vec![*e];
                let mut cur = n;
                while cur != start {
                    let pe = prev[cur];
                    path.push(pe);
                    cur = pe.from.as_str();
                }
                path.reverse();
                return path;
            }
            if !prev.contains_key(e.to.as_str()) && e.to != start {
                prev.insert(e.to.as_str(), e);
                queue.push_back(e.to.as_str());
            }
        }
    }
    Vec::new()
}

/// Iterative Tarjan SCC over string node ids.
fn tarjan<'a>(nodes: &[&'a str], adj: &HashMap<&str, Vec<&Edge>>) -> Vec<Vec<&'a str>> {
    #[derive(Default, Clone)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }
    let idx_of: HashMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let succ: Vec<Vec<usize>> = nodes
        .iter()
        .map(|n| {
            adj.get(*n)
                .into_iter()
                .flatten()
                .filter_map(|e| idx_of.get(e.to.as_str()).copied())
                .collect()
        })
        .collect();
    let mut state = vec![NodeState::default(); nodes.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<&str>> = Vec::new();
    for root in 0..nodes.len() {
        if state[root].index.is_some() {
            continue;
        }
        // Explicit DFS frame: (node, next successor position).
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            if *pos == 0 {
                state[v].index = Some(next_index);
                state[v].lowlink = next_index;
                next_index += 1;
                stack.push(v);
                state[v].on_stack = true;
            }
            if let Some(&w) = succ[v].get(*pos) {
                *pos += 1;
                if state[w].index.is_none() {
                    frames.push((w, 0));
                } else if state[w].on_stack {
                    state[v].lowlink = state[v].lowlink.min(state[w].index.unwrap_or(0));
                }
            } else {
                frames.pop();
                if state[v].lowlink == state[v].index.unwrap_or(0) {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        state[w].on_stack = false;
                        comp.push(nodes[w]);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
                if let Some(&(p, _)) = frames.last() {
                    state[p].lowlink = state[p].lowlink.min(state[v].lowlink);
                }
            }
        }
    }
    sccs
}
