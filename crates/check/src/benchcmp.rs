//! Baseline-vs-baseline kernel benchmark comparison (`benchcmp`).
//!
//! Reads two `graphblas-bench/kernels/*` baseline files (old, new) with
//! the zero-dependency JSON parser from [`crate::trace`] and flags
//! regressions:
//!
//! * every shared `median_secs` workload whose new median exceeds the
//!   old by more than the median threshold;
//! * every shared `kernels.<k>.p99_ns` whose new p99 exceeds the old by
//!   more than the p99 threshold.
//!
//! Two profiles:
//!
//! * **strict** (default, the EXPERIMENTS.md regression protocol for
//!   full-scale baselines): 25% on medians, 25% on p99.
//! * **smoke-tolerant** (`--smoke-tolerant`, used by `scripts/check.sh`
//!   against the committed smoke baseline): 100% on medians, 200% on
//!   p99, plus noise floors — medians under 500µs and p99s under 250µs
//!   are skipped outright, because at smoke scale those are scheduler
//!   noise, not kernels. Comparing baselines whose `scale`/`smoke`
//!   fields disagree is skipped with a note (strict mode refuses
//!   instead): the numbers mean different workloads.
//!
//! Workloads or kernels present in only one file are reported as notes,
//! never as failures — a new kernel is not a regression. When the two
//! files carry different schema versions, the per-workload medians are
//! still gated but the per-kernel p99 histograms are skipped with a
//! note: histograms aggregate the whole run, and a schema bump means the
//! run's workload mix changed, making them structurally incomparable.

use std::fmt;

use crate::trace::{self, TraceError, Value};

/// Comparison thresholds and floors. Ratios are fractional increase:
/// `0.25` fails when new > old × 1.25.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Allowed fractional increase of a workload median.
    pub median_ratio: f64,
    /// Allowed fractional increase of a kernel p99.
    pub p99_ratio: f64,
    /// Medians with old value below this (seconds) are skipped as noise.
    pub median_floor_secs: f64,
    /// p99 pairs with old value below this (nanoseconds) are skipped.
    pub p99_floor_ns: f64,
    /// Whether a `scale`/`smoke` mismatch between the files is a skip
    /// (tolerant) or an error (strict).
    pub skip_on_shape_mismatch: bool,
}

impl Profile {
    /// The EXPERIMENTS.md regression gate for full-scale baselines.
    pub fn strict() -> Profile {
        Profile {
            median_ratio: 0.25,
            p99_ratio: 0.25,
            median_floor_secs: 0.0,
            p99_floor_ns: 0.0,
            skip_on_shape_mismatch: false,
        }
    }

    /// The CI gate for smoke-scale baselines: wide thresholds + noise
    /// floors, because a 3-run scale-9 median jitters far more than a
    /// 5-run scale-13 one.
    pub fn smoke_tolerant() -> Profile {
        Profile {
            median_ratio: 1.0,
            p99_ratio: 2.0,
            median_floor_secs: 500e-6,
            p99_floor_ns: 250e3,
            skip_on_shape_mismatch: true,
        }
    }
}

/// The outcome of one comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Regressions that fail the gate.
    pub regressions: Vec<String>,
    /// Informational lines (improvements, skips, key mismatches).
    pub notes: Vec<String>,
    /// Metric pairs actually compared (0 means nothing was gated — e.g.
    /// a tolerated shape mismatch).
    pub compared: usize,
}

impl Comparison {
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Why a comparison could not run at all.
#[derive(Debug, Clone, PartialEq)]
pub enum CmpError {
    Json { which: &'static str, err: String },
    Structure(String),
}

impl fmt::Display for CmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmpError::Json { which, err } => write!(f, "{which} baseline: {err}"),
            CmpError::Structure(s) => write!(f, "{s}"),
        }
    }
}

fn parse(which: &'static str, text: &str) -> Result<Value, CmpError> {
    trace::parse_json(text).map_err(|e: TraceError| CmpError::Json {
        which,
        err: e.to_string(),
    })
}

fn num_at(doc: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = doc;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_num()
}

fn obj_keys<'a>(doc: &'a Value, key: &str) -> Vec<&'a str> {
    match doc.get(key) {
        Some(Value::Obj(members)) => members.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    }
}

fn pct(old: f64, new: f64) -> f64 {
    if old > 0.0 {
        (new / old - 1.0) * 100.0
    } else {
        f64::INFINITY
    }
}

/// Compares two baseline documents under `profile`.
pub fn compare(old_text: &str, new_text: &str, profile: &Profile) -> Result<Comparison, CmpError> {
    let old = parse("old", old_text)?;
    let new = parse("new", new_text)?;
    for (which, doc) in [("old", &old), ("new", &new)] {
        let schema = doc.get("schema").and_then(Value::as_str).unwrap_or("");
        if !schema.starts_with("graphblas-bench/kernels/") {
            return Err(CmpError::Structure(format!(
                "{which} baseline has schema \"{schema}\", expected graphblas-bench/kernels/*"
            )));
        }
    }

    let mut out = Comparison {
        regressions: Vec::new(),
        notes: Vec::new(),
        compared: 0,
    };

    // Workload shape must agree, or the numbers compare different work.
    let shape = |doc: &Value| {
        (
            num_at(doc, &["scale"]).unwrap_or(-1.0) as i64,
            doc.get("smoke").map(|v| v == &Value::Bool(true)),
        )
    };
    if shape(&old) != shape(&new) {
        let msg = format!(
            "baseline shapes differ (old scale {:?}, new scale {:?}): numbers are incomparable",
            num_at(&old, &["scale"]),
            num_at(&new, &["scale"])
        );
        if profile.skip_on_shape_mismatch {
            out.notes.push(format!("skipped: {msg}"));
            return Ok(out);
        }
        return Err(CmpError::Structure(msg));
    }

    // Workload medians.
    for wl in obj_keys(&old, "median_secs") {
        let old_v = num_at(&old, &["median_secs", wl]).unwrap_or(f64::NAN);
        let Some(new_v) = num_at(&new, &["median_secs", wl]) else {
            out.notes
                .push(format!("median {wl}: missing in new baseline"));
            continue;
        };
        if old_v < profile.median_floor_secs {
            out.notes.push(format!(
                "median {wl}: old {:.1}µs under noise floor, skipped",
                old_v * 1e6
            ));
            continue;
        }
        out.compared += 1;
        let delta = pct(old_v, new_v);
        let line = format!(
            "median {wl}: {:.3}ms -> {:.3}ms ({:+.1}%)",
            old_v * 1e3,
            new_v * 1e3,
            delta
        );
        if new_v > old_v * (1.0 + profile.median_ratio) {
            out.regressions.push(line);
        } else {
            out.notes.push(line);
        }
    }
    for wl in obj_keys(&new, "median_secs") {
        if num_at(&old, &["median_secs", wl]).is_none() {
            out.notes
                .push(format!("median {wl}: new workload, no old value"));
        }
    }

    // Per-kernel p99 tails. These aggregate every call of the whole run,
    // so they are only like-for-like when both baselines ran the same
    // workload mix — which is exactly what the schema version encodes
    // (e.g. v3 added in-harness dispatch-ablation phases that feed the
    // same kernel histograms). Across schema versions the medians above
    // remain per-workload and comparable; the histograms do not.
    fn schema_of(doc: &Value) -> &str {
        doc.get("schema").and_then(Value::as_str).unwrap_or("")
    }
    if schema_of(&old) != schema_of(&new) {
        out.notes.push(format!(
            "kernel p99s skipped: workload mix changed ({} -> {})",
            schema_of(&old),
            schema_of(&new)
        ));
        return Ok(out);
    }
    for k in obj_keys(&old, "kernels") {
        let old_v = num_at(&old, &["kernels", k, "p99_ns"]).unwrap_or(f64::NAN);
        let Some(new_v) = num_at(&new, &["kernels", k, "p99_ns"]) else {
            out.notes.push(format!("p99 {k}: missing in new baseline"));
            continue;
        };
        if old_v < profile.p99_floor_ns {
            out.notes.push(format!(
                "p99 {k}: old {:.0}µs under noise floor, skipped",
                old_v / 1e3
            ));
            continue;
        }
        out.compared += 1;
        let delta = pct(old_v, new_v);
        let line = format!(
            "p99 {k}: {:.0}µs -> {:.0}µs ({:+.1}%)",
            old_v / 1e3,
            new_v / 1e3,
            delta
        );
        if new_v > old_v * (1.0 + profile.p99_ratio) {
            out.regressions.push(line);
        } else {
            out.notes.push(line);
        }
    }
    for k in obj_keys(&new, "kernels") {
        if num_at(&old, &["kernels", k, "p99_ns"]).is_none() {
            out.notes.push(format!("p99 {k}: new kernel, no old value"));
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(scale: u64, smoke: bool, pagerank: f64, spmv_p99: u64) -> String {
        format!(
            "{{\"schema\":\"graphblas-bench/kernels/v2\",\"smoke\":{smoke},\
             \"scale\":{scale},\"runs\":3,\
             \"median_secs\":{{\"pagerank\":{pagerank},\"bfs\":0.0001}},\
             \"kernels\":{{\"spmv\":{{\"calls\":10,\"p50_ns\":1000,\
             \"p99_ns\":{spmv_p99}}}}}}}"
        )
    }

    #[test]
    fn flags_median_and_p99_regressions() {
        let old = baseline(13, false, 0.020, 3_000_000);
        let slow = baseline(13, false, 0.030, 8_000_000);
        let cmp = compare(&old, &slow, &Profile::strict()).unwrap();
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions.len(), 2, "{:?}", cmp.regressions);
        assert!(cmp.regressions[0].contains("pagerank"));
        assert!(cmp.regressions[1].contains("spmv"));
    }

    #[test]
    fn passes_within_threshold_and_notes_improvements() {
        let old = baseline(13, false, 0.020, 3_000_000);
        let ok = baseline(13, false, 0.022, 2_000_000);
        let cmp = compare(&old, &ok, &Profile::strict()).unwrap();
        assert!(cmp.passed());
        assert!(cmp.compared >= 3);
        assert!(cmp.notes.iter().any(|n| n.contains("pagerank")));
    }

    #[test]
    fn smoke_profile_floors_and_tolerates() {
        // bfs old median 100µs is under the 500µs floor: skipped, so even
        // a huge jump there cannot fail the tolerant gate.
        let old = baseline(9, true, 0.002, 3_000_000);
        let noisy = baseline(9, true, 0.0039, 8_500_000);
        let tolerant = compare(&old, &noisy, &Profile::smoke_tolerant()).unwrap();
        assert!(tolerant.passed(), "{:?}", tolerant.regressions);
        // The same files fail strict.
        let strict = compare(&old, &noisy, &Profile::strict()).unwrap();
        assert!(!strict.passed());
        // Beyond even the tolerant thresholds: fails.
        let bad = baseline(9, true, 0.0041, 9_100_000);
        let cmp = compare(&old, &bad, &Profile::smoke_tolerant()).unwrap();
        assert_eq!(cmp.regressions.len(), 2, "{:?}", cmp.regressions);
    }

    #[test]
    fn shape_mismatch_skips_or_errors() {
        let full = baseline(13, false, 0.020, 3_000_000);
        let smoke = baseline(9, true, 0.002, 300_000);
        let tolerant = compare(&full, &smoke, &Profile::smoke_tolerant()).unwrap();
        assert!(tolerant.passed());
        assert_eq!(tolerant.compared, 0);
        assert!(tolerant.notes[0].contains("incomparable"));
        assert!(compare(&full, &smoke, &Profile::strict()).is_err());
    }

    #[test]
    fn one_sided_keys_are_notes_not_failures() {
        let old = baseline(13, false, 0.020, 3_000_000);
        let with_extra = old.replace("\"bfs\":0.0001", "\"bfs\":0.0001,\"fused_apply\":0.001");
        let cmp = compare(&old, &with_extra, &Profile::strict()).unwrap();
        assert!(cmp.passed());
        assert!(cmp.notes.iter().any(|n| n.contains("new workload")));
        let cmp2 = compare(&with_extra, &old, &Profile::strict()).unwrap();
        assert!(cmp2.passed());
        assert!(cmp2.notes.iter().any(|n| n.contains("missing in new")));
    }

    #[test]
    fn schema_bump_gates_medians_but_skips_kernel_histograms() {
        let old = baseline(13, false, 0.020, 3_000_000);
        // Same shape, new schema version, huge p99 growth (a new workload
        // feeding the same kernel histogram), medians fine.
        let v3 = baseline(13, false, 0.021, 90_000_000)
            .replace("graphblas-bench/kernels/v2", "graphblas-bench/kernels/v3");
        let cmp = compare(&old, &v3, &Profile::strict()).unwrap();
        assert!(cmp.passed(), "{:?}", cmp.regressions);
        assert!(cmp.notes.iter().any(|n| n.contains("workload mix changed")));
        // A median regression still fails across the schema bump.
        let v3_slow = baseline(13, false, 0.030, 3_000_000)
            .replace("graphblas-bench/kernels/v2", "graphblas-bench/kernels/v3");
        assert!(!compare(&old, &v3_slow, &Profile::strict())
            .unwrap()
            .passed());
    }

    #[test]
    fn rejects_wrong_schema() {
        let old = baseline(13, false, 0.020, 3_000_000);
        let alien = old.replace("graphblas-bench/kernels/v2", "something-else/v1");
        assert!(compare(&old, &alien, &Profile::strict()).is_err());
    }
}
