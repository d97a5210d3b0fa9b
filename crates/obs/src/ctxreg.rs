//! Per-`Context` aggregation (paper §IV).
//!
//! Execution contexts form a tree; a context's resource budget clamps all
//! of its descendants. To make that hierarchy inspectable, spans attribute
//! their wall time to the context they ran under, and a snapshot rolls
//! each context's own totals up into every ancestor — so the root context
//! reports the whole program, and an MPI×OpenMP-style nested context
//! reports exactly its subtree.
//!
//! The registry is bounded ([`MAX_CONTEXTS`]) so that benchmark loops
//! creating contexts by the thousand cannot grow it without limit; spans
//! from unregistered contexts still land in the global kernel counters,
//! they just have no per-context row.

use std::collections::HashMap;
use std::sync::Mutex;

/// Upper bound on registered contexts; later registrations are dropped.
pub const MAX_CONTEXTS: usize = 4096;

#[derive(Default, Clone)]
struct Entry {
    parent: u64,
    name: Option<String>,
    spans: u64,
    nanos: u64,
    flops: u64,
    mem_live: u64,
    mem_high: u64,
}

static REGISTRY: Mutex<Option<HashMap<u64, Entry>>> = Mutex::new(None);

fn with_registry<R>(f: impl FnOnce(&mut HashMap<u64, Entry>) -> R) -> R {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(HashMap::new))
}

/// Registers a context (id, parent id — `0` for none — and optional
/// label). Idempotent; a later call may fill in a missing name.
pub fn register_context(id: u64, parent: u64, name: Option<&str>) {
    with_registry(|reg| {
        if let Some(e) = reg.get_mut(&id) {
            if e.name.is_none() {
                e.name = name.map(str::to_owned);
            }
            return;
        }
        if reg.len() >= MAX_CONTEXTS {
            return;
        }
        reg.insert(
            id,
            Entry {
                parent,
                name: name.map(str::to_owned),
                ..Entry::default()
            },
        );
    });
}

/// Attributes one finished span to context `id` (no-op for id 0 or
/// unregistered contexts).
pub(crate) fn add_span(id: u64, nanos: u64, flops: u64) {
    if id == 0 {
        return;
    }
    with_registry(|reg| {
        if let Some(e) = reg.get_mut(&id) {
            e.spans += 1;
            e.nanos += nanos;
            e.flops += flops;
        }
    });
}

/// Moves context `id`'s attributed container footprint from `old` to
/// `new` bytes (no-op for unregistered contexts). Called through
/// [`crate::mem::adjust_container`].
pub(crate) fn adjust_mem(id: u64, old: u64, new: u64) {
    with_registry(|reg| {
        if let Some(e) = reg.get_mut(&id) {
            e.mem_live = e.mem_live.saturating_sub(old).saturating_add(new);
            e.mem_high = e.mem_high.max(e.mem_live);
        }
    });
}

/// The label a context was registered with, if any.
pub fn context_name(id: u64) -> Option<String> {
    with_registry(|reg| reg.get(&id).and_then(|e| e.name.clone()))
}

/// Zeroes every context's totals, keeping registrations (names stay
/// resolvable after a [`crate::reset`]). Live memory reflects real
/// allocations and is kept; its high-water mark re-arms at live.
pub(crate) fn reset_totals() {
    with_registry(|reg| {
        for e in reg.values_mut() {
            e.spans = 0;
            e.nanos = 0;
            e.flops = 0;
            e.mem_high = e.mem_live;
        }
    });
}

/// Aggregated span work and memory attributed to a context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CtxTotals {
    pub spans: u64,
    pub nanos: u64,
    pub flops: u64,
    /// Live container-store bytes attributed to this context.
    pub mem_live: u64,
    /// High-water mark of `mem_live` (for rollups: sum of per-context
    /// marks, an upper bound on the subtree's true simultaneous peak).
    pub mem_high: u64,
}

impl CtxTotals {
    fn add(&mut self, other: &CtxTotals) {
        self.spans += other.spans;
        self.nanos += other.nanos;
        self.flops += other.flops;
        self.mem_live += other.mem_live;
        self.mem_high += other.mem_high;
    }
}

/// One context's statistics: its own spans plus the rollup over its whole
/// subtree (`rolled` includes `own`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextStats {
    pub id: u64,
    pub parent: u64,
    pub name: Option<String>,
    pub own: CtxTotals,
    pub rolled: CtxTotals,
}

/// Snapshot of every registered context with subtree rollups, ordered by
/// id (creation order).
pub fn all_context_stats() -> Vec<ContextStats> {
    with_registry(|reg| {
        let own: HashMap<u64, (u64, Option<String>, CtxTotals)> = reg
            .iter()
            .map(|(&id, e)| {
                (
                    id,
                    (
                        e.parent,
                        e.name.clone(),
                        CtxTotals {
                            spans: e.spans,
                            nanos: e.nanos,
                            flops: e.flops,
                            mem_live: e.mem_live,
                            mem_high: e.mem_high,
                        },
                    ),
                )
            })
            .collect();
        let mut rolled: HashMap<u64, CtxTotals> =
            own.iter().map(|(&id, (_, _, t))| (id, *t)).collect();
        // Push every context's own totals into each ancestor. Parent links
        // can dangle (ancestor beyond MAX_CONTEXTS): the walk just stops.
        for (&id, (parent, _, t)) in &own {
            let mut cur = *parent;
            let mut hops = 0;
            while cur != 0 && cur != id && hops < MAX_CONTEXTS {
                match own.get(&cur) {
                    Some((next, _, _)) => {
                        rolled.entry(cur).and_modify(|r| r.add(t));
                        cur = *next;
                    }
                    None => break,
                }
                hops += 1;
            }
        }
        let mut out: Vec<ContextStats> = own
            .into_iter()
            .map(|(id, (parent, name, t))| ContextStats {
                id,
                parent,
                name,
                own: t,
                rolled: rolled[&id],
            })
            .collect();
        out.sort_by_key(|c| c.id);
        out
    })
}

/// Statistics for a single context id, or `None` if it was never
/// registered (e.g. created while telemetry was disabled).
pub fn context_stats(id: u64) -> Option<ContextStats> {
    all_context_stats().into_iter().find(|c| c.id == id)
}

/// `root` plus every registered context whose ancestor chain reaches it
/// (the subtree the §IV rollups aggregate over). Contains just `root`
/// when nothing else is registered under it — including when `root`
/// itself was never registered. Used by `events::explain_for_subtree` to
/// scope decision history to one context tree.
pub fn subtree_ids(root: u64) -> Vec<u64> {
    with_registry(|reg| {
        let mut out = vec![root];
        for (&id, e) in reg.iter() {
            if id == root {
                continue;
            }
            let mut cur = e.parent;
            let mut hops = 0;
            while cur != 0 && hops < MAX_CONTEXTS {
                if cur == root {
                    out.push(id);
                    break;
                }
                match reg.get(&cur) {
                    Some(p) if p.parent != cur => cur = p.parent,
                    _ => break,
                }
                hops += 1;
            }
        }
        out.sort_unstable();
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollup_sums_descendants() {
        // Use ids far above anything the process allocates organically.
        let base = 1_000_000_000;
        register_context(base + 1, 0, Some("root"));
        register_context(base + 2, base + 1, Some("child"));
        register_context(base + 3, base + 2, None);
        add_span(base + 2, 100, 5);
        add_span(base + 3, 40, 1);
        let stats = all_context_stats();
        let root = stats.iter().find(|c| c.id == base + 1).unwrap();
        assert_eq!(root.own.spans, 0);
        assert_eq!(root.rolled.spans, 2);
        assert_eq!(root.rolled.nanos, 140);
        assert_eq!(root.rolled.flops, 6);
        let child = stats.iter().find(|c| c.id == base + 2).unwrap();
        assert_eq!(child.own.nanos, 100);
        assert_eq!(child.rolled.nanos, 140);
        assert_eq!(child.name.as_deref(), Some("child"));
        let leaf = context_stats(base + 3).unwrap();
        assert_eq!(leaf.rolled.nanos, 40);
        assert_eq!(leaf.parent, base + 2);
    }

    #[test]
    fn subtree_ids_follow_parent_links() {
        let base = 4_000_000_000;
        register_context(base + 1, 0, Some("root"));
        register_context(base + 2, base + 1, None);
        register_context(base + 3, base + 2, None);
        register_context(base + 9, 0, Some("other"));
        let ids = subtree_ids(base + 1);
        assert!(
            ids.contains(&(base + 1)) && ids.contains(&(base + 2)) && ids.contains(&(base + 3))
        );
        assert!(!ids.contains(&(base + 9)));
        // An unregistered root still names itself.
        assert_eq!(subtree_ids(base + 77), vec![base + 77]);
    }

    #[test]
    fn reregistration_fills_name_only() {
        let id = 2_000_000_000;
        register_context(id, 0, None);
        register_context(id, 999, Some("late-name"));
        let s = context_stats(id).unwrap();
        assert_eq!(s.name.as_deref(), Some("late-name"));
        assert_eq!(s.parent, 0, "parent link is fixed at first registration");
    }
}
