//! Lock-free log₂-bucketed latency histograms, one per kernel family.
//!
//! Every RAII kernel span funnels its measured duration through
//! [`record`] (via `counters::record_kernel`), incrementing a single
//! relaxed atomic bucket — so the enabled-path cost is one `fetch_add`
//! beyond the counters, and the disabled path (spans hold no timestamp)
//! never reaches this module at all.
//!
//! Buckets are powers of two of nanoseconds: bucket 0 holds exact-zero
//! durations, bucket `i ≥ 1` holds `[2^(i-1), 2^i)` ns, and the last
//! bucket (index 64) is unbounded above. Percentiles interpolate linearly
//! inside the winning bucket and clamp to the true observed maximum, so
//! `p100 == max` exactly and mid-range estimates are within one bucket
//! width of the truth — plenty for p50/p90/p99 tail reporting.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::counters::{Kernel, KERNEL_COUNT, KERNEL_LIST};

/// Number of histogram buckets: one zero bucket plus one per bit of a
/// `u64` duration.
pub const HIST_BUCKETS: usize = 65;

/// The bucket a duration lands in.
#[inline]
pub fn bucket_index(dur_ns: u64) -> usize {
    if dur_ns == 0 {
        0
    } else {
        64 - dur_ns.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i`'s duration range.
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Exclusive upper bound of bucket `i`'s range (`u64::MAX` for the last
/// bucket, which is closed above by saturation).
pub fn bucket_ceil(i: usize) -> u64 {
    match i {
        0 => 1,
        64 => u64::MAX,
        _ => 1u64 << i,
    }
}

struct AtomicHist {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHist {
    // Seeds the static table only; each slot gets fresh atomics.
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO_BUCKET: AtomicU64 = AtomicU64::new(0);
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicHist = AtomicHist {
        buckets: [Self::ZERO_BUCKET; HIST_BUCKETS],
        count: AtomicU64::new(0),
        sum: AtomicU64::new(0),
        max: AtomicU64::new(0),
    };

    fn record(&self, dur_ns: u64) {
        self.buckets[bucket_index(dur_ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(dur_ns, Ordering::Relaxed);
        self.max.fetch_max(dur_ns, Ordering::Relaxed);
    }

    fn reset(&self) {
        // Test-isolation zeroing: reset points are single-threaded harness
        // boundaries.
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    fn totals(&self) -> HistTotals {
        let mut t = HistTotals::new();
        for (i, b) in self.buckets.iter().enumerate() {
            t.buckets[i] = b.load(Ordering::Relaxed);
        }
        t.count = self.count.load(Ordering::Relaxed);
        t.sum = self.sum.load(Ordering::Relaxed);
        t.max = self.max.load(Ordering::Relaxed);
        t
    }
}

static HISTS: [AtomicHist; KERNEL_COUNT] = [AtomicHist::ZERO; KERNEL_COUNT];

/// Adds one latency sample to kernel `k`'s histogram. Callers must guard
/// on [`crate::enabled`] (span drops already do).
pub fn record(k: Kernel, dur_ns: u64) {
    HISTS[k as usize].record(dur_ns);
}

pub(crate) fn reset() {
    for h in &HISTS {
        h.reset();
    }
}

/// A point-in-time, mergeable copy of one histogram. Also usable as a
/// plain single-threaded accumulator through [`HistTotals::add_sample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistTotals {
    /// Sample count per log₂ bucket (see [`bucket_floor`]/[`bucket_ceil`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of sampled durations (saturating in pathological overflow).
    pub sum: u64,
    /// Largest sampled duration.
    pub max: u64,
}

impl Default for HistTotals {
    fn default() -> Self {
        Self::new()
    }
}

impl HistTotals {
    pub fn new() -> Self {
        HistTotals {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Adds one sample (local accumulation; the global table uses atomics).
    pub fn add_sample(&mut self, dur_ns: u64) {
        self.buckets[bucket_index(dur_ns)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(dur_ns);
        self.max = self.max.max(dur_ns);
    }

    /// Folds another histogram into this one. Merging is commutative and
    /// associative (plain sums and a max), so per-thread histograms merge
    /// to the same result in any order.
    pub fn merge(&mut self, other: &HistTotals) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Mean sampled duration in nanoseconds (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `p`-th percentile (0–100) in nanoseconds, linearly interpolated
    /// inside the winning log₂ bucket and clamped to the observed max.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // 1-based rank of the sample we want, at least the first.
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= rank {
                if i == 0 {
                    // The zero bucket holds exact-zero durations only.
                    return 0;
                }
                let lo = bucket_floor(i);
                let hi = bucket_ceil(i).min(self.max.max(lo));
                let within = (rank - cum) as f64 / n as f64;
                // Saturating: the top bucket's width rounds up to 2^63 as
                // an f64, which would overflow `lo + …` before the clamp.
                let est = lo.saturating_add(((hi - lo) as f64 * within) as u64);
                return est.min(self.max);
            }
            cum += n;
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }
}

/// One kernel family's latency histogram, as captured by a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelHist {
    pub kernel: Kernel,
    pub hist: HistTotals,
}

/// Point-in-time copy of every kernel's histogram, in [`KERNEL_LIST`]
/// order (matching `Snapshot::kernels`).
pub fn kernel_hists() -> Vec<KernelHist> {
    KERNEL_LIST
        .iter()
        .map(|&k| KernelHist {
            kernel: k,
            hist: HISTS[k as usize].totals(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
        // Every bucket's floor maps back into that bucket.
        for i in 0..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i)), i, "floor of bucket {i}");
        }
    }

    #[test]
    fn extreme_durations_round_trip() {
        let mut h = HistTotals::new();
        h.add_sample(0);
        h.add_sample(1);
        h.add_sample(u64::MAX);
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[64], 1);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.percentile(100.0), u64::MAX);
        assert_eq!(h.percentile(0.0), 0, "rank-1 sample is the zero");
    }

    #[test]
    fn percentile_interpolation() {
        // 100 samples spread evenly through bucket [64, 128): the median
        // estimate must land mid-bucket, and p100 must hit the max.
        let mut h = HistTotals::new();
        for _ in 0..100 {
            h.add_sample(100);
        }
        let p50 = h.p50();
        assert!(
            (64..128).contains(&p50),
            "p50 {p50} escaped the only populated bucket"
        );
        assert_eq!(h.percentile(100.0), 100);
        // Two-bucket split: 50 fast samples (bucket [1,2)) and 50 slow
        // ones (bucket [1024, 2048)); p25 must be fast, p75 slow.
        let mut h2 = HistTotals::new();
        for _ in 0..50 {
            h2.add_sample(1);
            h2.add_sample(1500);
        }
        assert!(h2.percentile(25.0) < 2);
        assert!(h2.percentile(75.0) >= 1024);
        assert_eq!(h2.max, 1500);
        assert!(h2.p99() <= 1500);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = HistTotals::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.percentile(100.0), 0);
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let _g = crate::test_guard();
        reset();
        let threads = 4;
        let per_thread = 1000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    for i in 0..per_thread {
                        record(Kernel::Reduce, (t as u64) * 1000 + i);
                    }
                });
            }
        });
        let h = kernel_hists()
            .into_iter()
            .find(|kh| kh.kernel == Kernel::Reduce)
            .unwrap()
            .hist;
        assert_eq!(h.count, threads as u64 * per_thread);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
        assert_eq!(h.max, 3999);
        reset();
    }

    #[test]
    fn merge_is_order_independent() {
        // Three per-thread histograms with distinct shapes merge to the
        // same totals and percentiles in any order.
        let mk = |seed: u64| {
            let mut h = HistTotals::new();
            let mut x = seed;
            for _ in 0..500 {
                // Hand-rolled LCG: deterministic, no external RNG.
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                h.add_sample(x >> 40);
            }
            h
        };
        let parts = [mk(1), mk(2), mk(3)];
        let mut fwd = HistTotals::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = HistTotals::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.count, 1500);
        for p in [1.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(fwd.percentile(p), rev.percentile(p));
        }
    }
}
