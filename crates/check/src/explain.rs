//! Independent reader for `GRB_EXPLAIN` decision-provenance exports.
//!
//! `graphblas_obs::events` serializes the reason-coded decision history as
//! `graphblas-obs/explain/v1` JSON. This module is the checking side of
//! that contract, behind the `grbexplain` binary: it re-parses the export
//! with the zero-dependency JSON parser from [`crate::trace`] (sharing no
//! code with the writer), re-checks the structural invariants the
//! exporter promises, renders a per-operation narrative with per-reason
//! aggregates, and evaluates `--assert reason=<code>[,detail=<d>],min=<k>`
//! gates for `scripts/check.sh`.
//!
//! Structural invariants checked by [`parse`]:
//!
//! * the document carries `schema: "graphblas-obs/explain/v1"` and
//!   numeric `total` / `retained`;
//! * `retained` equals the length of the `events` array, and `total` is
//!   at least `retained` (the excess was ring-overwritten);
//! * every event has `seq`, a known `reason` code, `op`, `ctx`, `thread`,
//!   `t_us`; `seq` is strictly increasing across the array (the global
//!   total order the per-thread rings promise to reconstruct);
//! * the `reasons` aggregate block covers every known code and each
//!   count is at least the number of retained events with that code
//!   (lifetime counts survive ring truncation, so ≥, not ==).

use std::collections::BTreeMap;
use std::fmt;

use crate::trace::{self, TraceError, Value};

/// The schema string the v1 exporter writes.
pub const SCHEMA: &str = "graphblas-obs/explain/v1";

/// Every reason code the v1 exporter can emit, mirrored from
/// `graphblas_obs::events::Reason` (kept as literals so the checker
/// cannot inherit a writer-side rename silently).
pub const REASON_CODES: [&str; 18] = [
    "direction-push",
    "direction-pull",
    "workspace-hit",
    "workspace-miss",
    "workspace-trim",
    "fuse-flush",
    "opaque-drain",
    "convert-csr",
    "convert-sparse",
    "transpose-build",
    "transpose-hit",
    "kernel-path",
    "error-raised",
    "error-deferred",
    "dispatch-pick",
    "format-pick",
    "dag-fuse",
    "dag-force",
];

/// Assert-spec aliases: a family name that expands to several codes whose
/// counts are summed. `direction-pick` is "the dispatcher ran at all",
/// regardless of which way it went.
pub const ALIASES: [(&str, &[&str]); 4] = [
    ("direction-pick", &["direction-push", "direction-pull"]),
    ("workspace-checkout", &["workspace-hit", "workspace-miss"]),
    ("fuse", &["fuse-flush"]),
    ("dag", &["dag-fuse", "dag-force"]),
];

/// The codes an assert spec's reason expands to: the alias expansion, or
/// the code itself when it is a known literal code.
pub fn expand_reason(name: &str) -> Option<Vec<&'static str>> {
    for (alias, codes) in ALIASES {
        if alias == name {
            return Some(codes.to_vec());
        }
    }
    REASON_CODES.iter().find(|&&c| c == name).map(|&c| vec![c])
}

/// One decision event as read back from the export.
#[derive(Debug, Clone)]
pub struct EventRec {
    pub seq: u64,
    pub reason: String,
    pub op: String,
    pub ctx: u64,
    pub thread: String,
    pub t_us: u64,
    /// The free-form detail string, when present ("memoized",
    /// "queue-end", a workspace TypeId, …).
    pub detail: Option<String>,
    /// Named numeric payload, in document order (`frontier_nnz`,
    /// `chain_len`, …).
    pub args: Vec<(String, u64)>,
}

/// A parsed, structurally validated explain document.
#[derive(Debug, Clone)]
pub struct ExplainDoc {
    /// Decisions ever recorded process-wide.
    pub total: u64,
    /// Per-reason lifetime aggregates from the `reasons` block.
    pub reasons: Vec<(String, u64)>,
    /// The retained events, oldest first.
    pub events: Vec<EventRec>,
}

impl ExplainDoc {
    /// The aggregate count for one literal reason code.
    pub fn count(&self, code: &str) -> u64 {
        self.reasons
            .iter()
            .find(|(c, _)| c == code)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// The summed aggregate count for a code or alias.
    pub fn count_expanded(&self, name: &str) -> Option<u64> {
        expand_reason(name).map(|codes| codes.iter().map(|c| self.count(c)).sum())
    }
}

/// Why an explain document failed validation or an assert failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ExplainError {
    /// The document is not valid JSON (position from the shared parser).
    Json { pos: usize, what: String },
    /// The document parsed but violates the explain/v1 structure.
    Structure(String),
    /// An `--assert` gate did not hold.
    Assert(String),
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::Json { pos, what } => write!(f, "invalid JSON at byte {pos}: {what}"),
            ExplainError::Structure(s) => write!(f, "not an explain/v1 document: {s}"),
            ExplainError::Assert(s) => write!(f, "assert failed: {s}"),
        }
    }
}

impl From<TraceError> for ExplainError {
    fn from(e: TraceError) -> Self {
        match e {
            TraceError::Json { pos, what } => ExplainError::Json { pos, what },
            other => ExplainError::Structure(other.to_string()),
        }
    }
}

fn get_num(obj: &Value, key: &str, what: &str) -> Result<u64, ExplainError> {
    obj.get(key)
        .and_then(Value::as_num)
        .map(|n| n as u64)
        .ok_or_else(|| ExplainError::Structure(format!("{what}: missing numeric \"{key}\"")))
}

fn get_str<'a>(obj: &'a Value, key: &str, what: &str) -> Result<&'a str, ExplainError> {
    obj.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| ExplainError::Structure(format!("{what}: missing string \"{key}\"")))
}

/// Parses and structurally validates an explain/v1 export.
pub fn parse(text: &str) -> Result<ExplainDoc, ExplainError> {
    let doc = trace::parse_json(text)?;
    let schema = get_str(&doc, "schema", "document")?;
    if schema != SCHEMA {
        return Err(ExplainError::Structure(format!(
            "schema is \"{schema}\", expected \"{SCHEMA}\""
        )));
    }
    let total = get_num(&doc, "total", "document")?;
    let retained = get_num(&doc, "retained", "document")?;

    let Some(Value::Obj(reason_members)) = doc.get("reasons") else {
        return Err(ExplainError::Structure(
            "missing \"reasons\" object".to_string(),
        ));
    };
    let mut reasons = Vec::new();
    for (code, v) in reason_members {
        let n = v.as_num().ok_or_else(|| {
            ExplainError::Structure(format!("reasons[\"{code}\"] is not a number"))
        })?;
        reasons.push((code.clone(), n as u64));
    }
    for code in REASON_CODES {
        if !reasons.iter().any(|(c, _)| c == code) {
            return Err(ExplainError::Structure(format!(
                "reasons block is missing code \"{code}\""
            )));
        }
    }

    let Some(Value::Arr(raw_events)) = doc.get("events") else {
        return Err(ExplainError::Structure(
            "missing \"events\" array".to_string(),
        ));
    };
    if retained != raw_events.len() as u64 {
        return Err(ExplainError::Structure(format!(
            "retained is {retained} but the events array holds {}",
            raw_events.len()
        )));
    }
    if total < retained {
        return Err(ExplainError::Structure(format!(
            "total {total} < retained {retained}"
        )));
    }

    let mut events = Vec::with_capacity(raw_events.len());
    let mut last_seq = 0u64;
    for (i, ev) in raw_events.iter().enumerate() {
        let what = format!("events[{i}]");
        let seq = get_num(ev, "seq", &what)?;
        if seq <= last_seq {
            return Err(ExplainError::Structure(format!(
                "{what}: seq {seq} does not increase over {last_seq}"
            )));
        }
        last_seq = seq;
        let reason = get_str(ev, "reason", &what)?.to_string();
        if !REASON_CODES.contains(&reason.as_str()) {
            return Err(ExplainError::Structure(format!(
                "{what}: unknown reason code \"{reason}\""
            )));
        }
        let op = get_str(ev, "op", &what)?.to_string();
        let ctx = get_num(ev, "ctx", &what)?;
        let thread = get_str(ev, "thread", &what)?.to_string();
        let t_us = get_num(ev, "t_us", &what)?;
        let detail = ev.get("detail").and_then(Value::as_str).map(str::to_owned);
        let mut args = Vec::new();
        if let Value::Obj(members) = ev {
            for (k, v) in members {
                if matches!(
                    k.as_str(),
                    "seq" | "reason" | "op" | "ctx" | "thread" | "t_us" | "detail"
                ) {
                    continue;
                }
                if let Some(n) = v.as_num() {
                    args.push((k.clone(), n as u64));
                }
            }
        }
        events.push(EventRec {
            seq,
            reason,
            op,
            ctx,
            thread,
            t_us,
            detail,
            args,
        });
    }

    // Lifetime aggregates must be able to account for everything retained.
    for code in REASON_CODES {
        let retained_count = events.iter().filter(|e| e.reason == code).count() as u64;
        let claimed = reasons
            .iter()
            .find(|(c, _)| c == code)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        if claimed < retained_count {
            return Err(ExplainError::Structure(format!(
                "reasons[\"{code}\"] claims {claimed} but {retained_count} events are retained"
            )));
        }
    }

    Ok(ExplainDoc {
        total,
        reasons,
        events,
    })
}

/// One `--assert reason=<code>[,detail=<d>],min=<k>` gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Assert {
    /// A reason code or alias (`direction-pick`, `workspace-checkout`,
    /// `fuse`).
    pub reason: String,
    /// When given, only events carrying this detail string count (a
    /// `format-pick` that chose `full`). Details live on events, not in
    /// the lifetime aggregates, so such a gate sees the retained history.
    pub detail: Option<String>,
    pub min: u64,
}

impl Assert {
    /// Parses the `reason=<code>[,detail=<d>],min=<k>` spec syntax.
    pub fn parse(spec: &str) -> Result<Assert, String> {
        let mut reason = None;
        let mut detail = None;
        let mut min = None;
        for part in spec.split(',') {
            match part.split_once('=') {
                Some(("reason", v)) if !v.is_empty() => reason = Some(v.to_string()),
                Some(("detail", v)) if !v.is_empty() => detail = Some(v.to_string()),
                Some(("min", v)) => {
                    min = Some(v.parse::<u64>().map_err(|_| {
                        format!("bad assert spec \"{spec}\": min \"{v}\" is not a number")
                    })?)
                }
                _ => {
                    return Err(format!(
                        "bad assert spec \"{spec}\": unknown part \"{part}\""
                    ))
                }
            }
        }
        let reason =
            reason.ok_or_else(|| format!("bad assert spec \"{spec}\": missing reason="))?;
        if expand_reason(&reason).is_none() {
            return Err(format!(
                "bad assert spec \"{spec}\": unknown reason \"{reason}\" (codes: {}; aliases: {})",
                REASON_CODES.join(", "),
                ALIASES
                    .iter()
                    .map(|(a, _)| *a)
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        Ok(Assert {
            reason,
            detail,
            min: min.unwrap_or(1),
        })
    }

    /// What the gate counts, as its messages name it.
    pub fn subject(&self) -> String {
        match &self.detail {
            None => format!("reason {}", self.reason),
            Some(d) => format!("reason {} with detail {d}", self.reason),
        }
    }

    /// Evaluates the gate against a parsed document.
    pub fn check(&self, doc: &ExplainDoc) -> Result<u64, ExplainError> {
        let codes = expand_reason(&self.reason).expect("Assert::parse validated the reason");
        let got: u64 = match &self.detail {
            None => codes.iter().map(|c| doc.count(c)).sum(),
            Some(d) => {
                let hit = |ev: &&EventRec| {
                    codes.contains(&ev.reason.as_str()) && ev.detail.as_ref() == Some(d)
                };
                doc.events.iter().filter(hit).count() as u64
            }
        };
        if got < self.min {
            Err(ExplainError::Assert(format!(
                "{} has count {got}, need at least {}",
                self.subject(),
                self.min
            )))
        } else {
            Ok(got)
        }
    }
}

/// Renders the per-operation narrative plus per-reason aggregates the
/// `grbexplain` binary prints. `last_n` bounds the narrated events (the
/// newest are kept; aggregates always cover the whole document).
pub fn render(doc: &ExplainDoc, last_n: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "explain: {} decisions recorded, {} retained\n",
        doc.total,
        doc.events.len()
    ));

    out.push_str("\nper-reason aggregates (lifetime):\n");
    for (code, n) in &doc.reasons {
        if *n > 0 {
            out.push_str(&format!("  {code:<18} {n}\n"));
        }
    }

    // Per-operation rollup over the retained history.
    let mut by_op: BTreeMap<&str, BTreeMap<&str, u64>> = BTreeMap::new();
    for ev in &doc.events {
        *by_op
            .entry(ev.op.as_str())
            .or_default()
            .entry(ev.reason.as_str())
            .or_default() += 1;
    }
    if !by_op.is_empty() {
        out.push_str("\nper-operation (retained):\n");
        for (op, reasons) in &by_op {
            let body: Vec<String> = reasons
                .iter()
                .map(|(code, n)| format!("{code}×{n}"))
                .collect();
            out.push_str(&format!("  {op:<16} {}\n", body.join(", ")));
        }
    }

    let start = doc.events.len().saturating_sub(last_n);
    if start > 0 {
        out.push_str(&format!(
            "\nnarrative (last {} of {} events):\n",
            doc.events.len() - start,
            doc.events.len()
        ));
    } else {
        out.push_str("\nnarrative:\n");
    }
    for ev in &doc.events[start..] {
        let mut line = format!("  #{:<5} {:<10} [{}] {}", ev.seq, ev.t_us, ev.op, ev.reason);
        if let Some(d) = &ev.detail {
            line.push_str(&format!(" ({d})"));
        }
        for (k, v) in &ev.args {
            line.push_str(&format!(" {k}={v}"));
        }
        line.push_str(&format!("  on {}", ev.thread));
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let mut reasons: Vec<String> = REASON_CODES.iter().map(|c| format!("\"{c}\":0")).collect();
        reasons[0] = "\"direction-push\":2".to_string();
        reasons[1] = "\"direction-pull\":1".to_string();
        reasons[5] = "\"fuse-flush\":1".to_string();
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"total\":9,\"retained\":3,\"reasons\":{{{}}},\
             \"events\":[\
             {{\"seq\":4,\"reason\":\"direction-push\",\"op\":\"mxv\",\"ctx\":1,\
               \"thread\":\"grb-worker-0\",\"t_us\":10,\"detail\":\"under-row-scan\",\
               \"frontier_nnz\":1,\"frontier_edges\":16,\"admitted_edges\":0}},\
             {{\"seq\":6,\"reason\":\"direction-pull\",\"op\":\"mxv\",\"ctx\":1,\
               \"thread\":\"grb-worker-0\",\"t_us\":20,\"detail\":\"estimate\",\
               \"frontier_nnz\":16,\"frontier_edges\":288,\"admitted_edges\":32}},\
             {{\"seq\":9,\"reason\":\"fuse-flush\",\"op\":\"vector.drain\",\"ctx\":1,\
               \"thread\":\"grb-worker-0\",\"t_us\":30,\"detail\":\"queue-end\",\
               \"chain_len\":5,\"nnz_in\":100}}\
             ]}}",
            reasons.join(",")
        )
    }

    #[test]
    fn parses_and_counts() {
        let doc = parse(&sample()).unwrap();
        assert_eq!(doc.total, 9);
        assert_eq!(doc.events.len(), 3);
        assert_eq!(doc.count("direction-push"), 2);
        assert_eq!(doc.count_expanded("direction-pick"), Some(3));
        assert_eq!(doc.count_expanded("fuse"), Some(1));
        assert_eq!(doc.count_expanded("nope"), None);
        assert_eq!(doc.events[2].detail.as_deref(), Some("queue-end"));
        assert_eq!(
            doc.events[2].args,
            vec![("chain_len".to_string(), 5), ("nnz_in".to_string(), 100)]
        );
    }

    #[test]
    fn rejects_structural_violations() {
        let bad_schema = sample().replace(SCHEMA, "graphblas-obs/explain/v9");
        assert!(matches!(
            parse(&bad_schema),
            Err(ExplainError::Structure(_))
        ));
        // seq must strictly increase.
        let bad_seq = sample().replace("\"seq\":6", "\"seq\":4");
        assert!(matches!(parse(&bad_seq), Err(ExplainError::Structure(_))));
        // retained must match the array length.
        let bad_retained = sample().replace("\"retained\":3", "\"retained\":7");
        assert!(matches!(
            parse(&bad_retained),
            Err(ExplainError::Structure(_))
        ));
        // Aggregates must cover what is retained.
        let bad_counts = sample().replace("\"fuse-flush\":1", "\"fuse-flush\":0");
        assert!(matches!(
            parse(&bad_counts),
            Err(ExplainError::Structure(_))
        ));
        // Unknown reason codes are rejected.
        let bad_code = sample().replace("\"reason\":\"fuse-flush\"", "\"reason\":\"vibes\"");
        assert!(matches!(parse(&bad_code), Err(ExplainError::Structure(_))));
    }

    #[test]
    fn assert_specs() {
        let a = Assert::parse("reason=direction-pick,min=2").unwrap();
        assert_eq!(a.reason, "direction-pick");
        assert_eq!(a.min, 2);
        // min defaults to 1.
        assert_eq!(Assert::parse("reason=fuse-flush").unwrap().min, 1);
        assert!(Assert::parse("reason=unknown-thing").is_err());
        assert!(Assert::parse("min=3").is_err());
        assert!(Assert::parse("reason=fuse,min=abc").is_err());

        let doc = parse(&sample()).unwrap();
        assert_eq!(
            Assert::parse("reason=direction-pick,min=3")
                .unwrap()
                .check(&doc),
            Ok(3)
        );
        assert!(Assert::parse("reason=workspace-checkout,min=1")
            .unwrap()
            .check(&doc)
            .is_err());
        // A detail narrows the gate to the retained events carrying it.
        let queue_end = Assert::parse("reason=fuse,detail=queue-end,min=1").unwrap();
        assert_eq!(queue_end.check(&doc), Ok(1));
        let other = Assert::parse("reason=fuse,detail=node-barrier").unwrap();
        assert!(other.check(&doc).is_err());
        assert!(Assert::parse("reason=fuse,detail=").is_err());
    }

    #[test]
    fn render_includes_narrative_and_aggregates() {
        let doc = parse(&sample()).unwrap();
        let text = render(&doc, usize::MAX);
        assert!(text.contains("9 decisions recorded"));
        assert!(text.contains("direction-push"));
        assert!(text.contains("[vector.drain] fuse-flush (queue-end) chain_len=5"));
        assert!(text.contains(
            "[mxv] direction-pull (estimate) frontier_nnz=16 frontier_edges=288 admitted_edges=32"
        ));
        // last_n trims the narrative but not the aggregates.
        let short = render(&doc, 1);
        assert!(short.contains("last 1 of 3"));
        assert!(!short.contains("frontier_nnz=1 "));
        assert!(short.contains("\"direction-push\"") || short.contains("direction-push"));
    }
}
