//! Memory accounting: live-bytes and high-water gauges for the Table III
//! container stores and the `exec::workspace` scratch cache.
//!
//! Containers report their store footprint at canonicalization boundaries
//! (drain / `ensure_csr` / blocking writes) via
//! [`adjust_container`], which also attributes the delta to the owning
//! context in [`crate::ctxreg`]. The workspace cache reports cached
//! scratch capacity through [`workspace`]. Gauges are relaxed atomics:
//! `live` is a saturating up/down counter, `high` a monotone max — so the
//! figures are statistics, not an allocator ledger. Two sources of
//! (documented) skew: stores shared by cloned handles are counted once
//! per reporting container, and containers resized while telemetry is
//! disabled reconcile at their next enabled boundary.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::ctxreg;

/// A live-bytes gauge with a high-water mark.
pub struct Gauge {
    live: AtomicU64,
    high: AtomicU64,
}

impl Gauge {
    const fn new() -> Gauge {
        Gauge {
            live: AtomicU64::new(0),
            high: AtomicU64::new(0),
        }
    }

    /// Adds `bytes` to the live figure, advancing the high-water mark.
    pub fn add(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let now = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.high.fetch_max(now, Ordering::Relaxed);
    }

    /// Subtracts `bytes`, saturating at zero (a mid-run telemetry toggle
    /// can otherwise release more than was recorded).
    pub fn sub(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let _ = self
            .live
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
    }

    /// Currently-live bytes.
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of the live figure.
    pub fn high(&self) -> u64 {
        self.high.load(Ordering::Relaxed)
    }

    /// Re-arms the high-water mark at the current live figure. Live bytes
    /// track real allocations and survive a [`crate::reset`].
    fn reset_high(&self) {
        // Re-arming the watermark is a single-threaded harness-boundary
        // operation.
        self.high.store(self.live(), Ordering::Relaxed);
    }
}

static CONTAINERS: Gauge = Gauge::new();
static WORKSPACE: Gauge = Gauge::new();

/// The gauge over all container stores (matrices, vectors).
pub fn containers() -> &'static Gauge {
    &CONTAINERS
}

/// The gauge over cached `exec::workspace` scratch capacity.
pub fn workspace() -> &'static Gauge {
    &WORKSPACE
}

/// Moves a container's reported footprint from `old` to `new` bytes,
/// updating the global container gauge and the per-context ledger for
/// `ctx` (`0` = unattributed; global gauge only).
pub fn adjust_container(ctx: u64, old: u64, new: u64) {
    if new == old {
        return;
    }
    if new > old {
        CONTAINERS.add(new - old);
    } else {
        CONTAINERS.sub(old - new);
    }
    if ctx != 0 {
        ctxreg::adjust_mem(ctx, old, new);
    }
}

/// Point-in-time copy of both gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemTotals {
    /// Live bytes across all reporting container stores.
    pub container_live: u64,
    /// High-water mark of `container_live`.
    pub container_high: u64,
    /// Bytes of scratch capacity parked in per-thread workspace caches.
    pub workspace_live: u64,
    /// High-water mark of `workspace_live`.
    pub workspace_high: u64,
}

/// Reads both gauges.
pub fn totals() -> MemTotals {
    MemTotals {
        container_live: CONTAINERS.live(),
        container_high: CONTAINERS.high(),
        workspace_live: WORKSPACE.live(),
        workspace_high: WORKSPACE.high(),
    }
}

/// Re-arms both high-water marks at the current live figures (part of
/// [`crate::reset`]; live bytes are real state and are kept).
pub(crate) fn reset_high_water() {
    CONTAINERS.reset_high();
    WORKSPACE.reset_high();
}

/// Re-arms the high-water marks without touching any other telemetry —
/// for harnesses that bracket a measured phase mid-run, where a full
/// [`crate::reset`] would wipe counters and the threads' rings that earlier
/// phases already contributed.
pub fn rearm_high_water() {
    reset_high_water();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_tracks_live_and_high() {
        let g = Gauge::new();
        g.add(100);
        g.add(50);
        assert_eq!(g.live(), 150);
        assert_eq!(g.high(), 150);
        g.sub(120);
        assert_eq!(g.live(), 30);
        assert_eq!(g.high(), 150, "high-water survives release");
        g.add(10);
        assert_eq!(g.high(), 150);
        g.reset_high();
        assert_eq!(g.high(), 40);
    }

    #[test]
    fn gauge_sub_saturates() {
        let g = Gauge::new();
        g.add(10);
        g.sub(1000);
        assert_eq!(g.live(), 0, "underflow must clamp, not wrap");
    }

    #[test]
    fn adjust_container_feeds_ctx_ledger() {
        let _g = crate::test_guard();
        let id = 3_000_000_000;
        ctxreg::register_context(id, 0, Some("mem-test"));
        let before = totals().container_live;
        adjust_container(id, 0, 4096);
        adjust_container(id, 4096, 1024);
        assert_eq!(totals().container_live - before, 1024);
        let stats = ctxreg::context_stats(id).unwrap();
        assert_eq!(stats.own.mem_live, 1024);
        assert_eq!(stats.own.mem_high, 4096);
        // Release everything so other tests see a clean gauge.
        adjust_container(id, 1024, 0);
    }
}
