//! Prometheus text-exposition checking for `GRB_METRICS` output.
//!
//! `graphblas_obs::export` renders the live metric registry in the
//! Prometheus text exposition format (v0.0.4) — over the scrape endpoint
//! when `GRB_METRICS_ADDR` is set, or as a one-shot file dump with
//! `GRB_METRICS_DUMP`. This module is the independent reader for that
//! format: a line-oriented parser plus a validator that re-checks the
//! invariants the writer promises:
//!
//! * every family is announced with both a `# HELP` and a `# TYPE` line
//!   before its first sample, the kind is `counter` or `gauge`, and no
//!   family is announced twice;
//! * sample lines carry the announced family name, legal metric/label
//!   identifiers, properly escaped label values, and a parseable value
//!   (with `+Inf`/`-Inf`/`NaN` spelled the Prometheus way);
//! * no two samples of a family repeat the same label set, and counter
//!   samples are finite and non-negative.
//!
//! Used by the `metricscheck` binary in `scripts/check.sh` to gate the
//! smoke-bench metrics dump, by `grbtop` to render live frames, and by
//! `tests/metrics_format.rs` against expositions the obs crate actually
//! writes. The parser deliberately shares no code with
//! `graphblas_obs::export` (writer) — a shared bug could not cancel out.

use std::collections::BTreeSet;
use std::fmt;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

/// One parsed sample line: resolved label pairs plus the value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Label pairs in document order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `name`, when present.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One metric family: the `# HELP`/`# TYPE` header plus its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Exposition (mangled) metric name, e.g. `grb_pool_queue_depth`.
    pub name: String,
    /// `counter` or `gauge`.
    pub kind: String,
    /// Help text with exposition escapes resolved.
    pub help: String,
    /// Samples in document order.
    pub samples: Vec<Sample>,
}

/// What a valid exposition contained.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSummary {
    /// Families in document order.
    pub families: Vec<Family>,
}

impl MetricsSummary {
    /// The family named `name`, when present.
    pub fn family(&self, name: &str) -> Option<&Family> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Total sample lines across all families.
    pub fn total_samples(&self) -> usize {
        self.families.iter().map(|f| f.samples.len()).sum()
    }

    /// The single value of an unlabeled family, when present.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        let fam = self.family(name)?;
        match fam.samples.as_slice() {
            [s] if s.labels.is_empty() => Some(s.value),
            _ => None,
        }
    }
}

/// Why an exposition failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricsError {
    /// A line failed to parse (1-based line number).
    Line { line: usize, what: String },
    /// The document parsed but breaks a cross-line invariant.
    Structure(String),
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::Line { line, what } => write!(f, "line {line}: {what}"),
            MetricsError::Structure(s) => write!(f, "not a metrics exposition: {s}"),
        }
    }
}

fn line_err(line: usize, what: impl Into<String>) -> MetricsError {
    MetricsError::Line {
        line,
        what: what.into(),
    }
}

fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit()
}

fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if is_name_start(c)) && chars.all(is_name_char)
}

/// Resolve `\\`, `\n` (and for label values `\"`) escapes.
fn unescape(s: &str, line: usize, in_label: bool) -> Result<String, MetricsError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('"') if in_label => out.push('"'),
            Some(c) => return Err(line_err(line, format!("bad escape \\{c}"))),
            None => return Err(line_err(line, "trailing backslash")),
        }
    }
    Ok(out)
}

fn parse_value(tok: &str, line: usize) -> Result<f64, MetricsError> {
    match tok {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => tok
            .parse::<f64>()
            .map_err(|_| line_err(line, format!("bad value {tok:?}"))),
    }
}

/// Parse one `{label="value",...}` body (without the braces).
fn parse_labels(body: &str, line: usize) -> Result<Vec<(String, String)>, MetricsError> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| line_err(line, "label without ="))?;
        let name = rest[..eq].trim();
        if !valid_name(name) {
            return Err(line_err(line, format!("bad label name {name:?}")));
        }
        rest = rest[eq + 1..].trim_start();
        let Some(tail) = rest.strip_prefix('"') else {
            return Err(line_err(line, "label value not quoted"));
        };
        // Find the closing quote, skipping escaped characters.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in tail.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            }
        }
        let Some(end) = end else {
            return Err(line_err(line, "unterminated label value"));
        };
        let value = unescape(&tail[..end], line, true)?;
        labels.push((name.to_string(), value));
        rest = tail[end + 1..].trim_start();
        if let Some(t) = rest.strip_prefix(',') {
            rest = t.trim_start();
        } else if !rest.is_empty() {
            return Err(line_err(line, "junk after label value"));
        }
    }
    Ok(labels)
}

/// Parse and validate a text exposition.
pub fn validate(text: &str) -> Result<MetricsSummary, MetricsError> {
    let mut summary = MetricsSummary::default();
    // Pending header state: HELP seen for a name, awaiting TYPE.
    let mut pending_help: Option<(String, String)> = None;
    let mut seen_label_sets: BTreeSet<String> = BTreeSet::new();

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("HELP ") {
                let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
                if !valid_name(name) {
                    return Err(line_err(lineno, format!("bad metric name {name:?}")));
                }
                if summary.family(name).is_some() {
                    return Err(MetricsError::Structure(format!(
                        "family {name} announced twice (line {lineno})"
                    )));
                }
                if let Some((prev, _)) = &pending_help {
                    return Err(MetricsError::Structure(format!(
                        "# HELP {prev} has no matching # TYPE (line {lineno})"
                    )));
                }
                pending_help = Some((name.to_string(), unescape(help, lineno, false)?));
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                let Some((name, kind)) = rest.split_once(' ') else {
                    return Err(line_err(lineno, "# TYPE without a kind"));
                };
                let kind = kind.trim();
                if !matches!(kind, "counter" | "gauge") {
                    return Err(line_err(lineno, format!("unsupported kind {kind:?}")));
                }
                let Some((help_name, help)) = pending_help.take() else {
                    return Err(MetricsError::Structure(format!(
                        "# TYPE {name} without a preceding # HELP (line {lineno})"
                    )));
                };
                if help_name != name {
                    return Err(MetricsError::Structure(format!(
                        "# TYPE {name} follows # HELP {help_name} (line {lineno})"
                    )));
                }
                summary.families.push(Family {
                    name: name.to_string(),
                    kind: kind.to_string(),
                    help,
                    samples: Vec::new(),
                });
            }
            // Other comment lines are legal and ignored.
            continue;
        }

        // Sample line: name[{labels}] value [timestamp]
        let name_end = line
            .char_indices()
            .find(|&(_, c)| !is_name_char(c))
            .map(|(i, _)| i)
            .unwrap_or(line.len());
        let name = &line[..name_end];
        if !valid_name(name) {
            return Err(line_err(lineno, format!("bad sample name {name:?}")));
        }
        let mut rest = &line[name_end..];
        let mut labels = Vec::new();
        if let Some(tail) = rest.strip_prefix('{') {
            let Some(close) = tail.rfind('}') else {
                return Err(line_err(lineno, "unterminated label set"));
            };
            labels = parse_labels(&tail[..close], lineno)?;
            rest = &tail[close + 1..];
        }
        let mut toks = rest.split_ascii_whitespace();
        let Some(value_tok) = toks.next() else {
            return Err(line_err(lineno, "sample without a value"));
        };
        let value = parse_value(value_tok, lineno)?;
        if let Some(ts) = toks.next() {
            // Optional millisecond timestamp; our writer never emits one
            // but the format allows it.
            if ts.parse::<i64>().is_err() {
                return Err(line_err(lineno, format!("bad timestamp {ts:?}")));
            }
        }
        if toks.next().is_some() {
            return Err(line_err(lineno, "junk after sample value"));
        }

        let Some(fam) = summary.families.iter_mut().find(|f| f.name == name) else {
            return Err(MetricsError::Structure(format!(
                "sample for unannounced family {name} (line {lineno})"
            )));
        };
        if fam.kind == "counter" && !(value >= 0.0 && value.is_finite()) {
            return Err(MetricsError::Structure(format!(
                "counter {name} has non-monotone-safe value {value} (line {lineno})"
            )));
        }
        let key = {
            let mut sorted: Vec<_> = labels
                .iter()
                .map(|(k, v)| format!("{k}\u{1}{v}"))
                .collect();
            sorted.sort_unstable();
            format!("{name}\u{2}{}", sorted.join("\u{1}"))
        };
        if !seen_label_sets.insert(key) {
            return Err(MetricsError::Structure(format!(
                "duplicate sample for {name} with the same label set (line {lineno})"
            )));
        }
        fam.samples.push(Sample { labels, value });
    }
    if let Some((prev, _)) = pending_help {
        return Err(MetricsError::Structure(format!(
            "# HELP {prev} has no matching # TYPE (end of input)"
        )));
    }
    Ok(summary)
}

// --- scraping --------------------------------------------------------------

/// Fetch `/metrics` from a live `GRB_METRICS_ADDR` endpoint over plain
/// HTTP/1.1 and return the response body. Used by `grbtop` and the bench
/// scrape test; std-only on purpose.
pub fn scrape(addr: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let Some((head, body)) = response.split_once("\r\n\r\n") else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response without header/body separator",
        ));
    };
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("non-200 response: {status}"),
        ));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# HELP grb_kernel_calls Kernel invocations.\n\
# TYPE grb_kernel_calls counter\n\
grb_kernel_calls{op=\"spgemm\"} 12\n\
grb_kernel_calls{op=\"mxv\"} 3\n\
# HELP grb_pool_utilization Fraction of worker time spent running tasks.\n\
# TYPE grb_pool_utilization gauge\n\
grb_pool_utilization 0.5\n";

    #[test]
    fn good_exposition_parses() {
        let s = validate(GOOD).expect("valid");
        assert_eq!(s.families.len(), 2);
        assert_eq!(s.total_samples(), 3);
        let calls = s.family("grb_kernel_calls").expect("family");
        assert_eq!(calls.kind, "counter");
        assert_eq!(calls.samples[0].label("op"), Some("spgemm"));
        assert_eq!(calls.samples[1].value, 3.0);
        assert_eq!(s.scalar("grb_pool_utilization"), Some(0.5));
        assert_eq!(s.scalar("grb_kernel_calls"), None, "labeled family");
    }

    #[test]
    fn label_escapes_round_trip() {
        let text = "# HELP m Help with \\\\ and \\n newline.\n# TYPE m gauge\nm{ctx=\"a\\\"b\\\\c\\nd\"} 1\n";
        let s = validate(text).expect("valid");
        assert_eq!(s.families[0].help, "Help with \\ and \n newline.");
        assert_eq!(s.families[0].samples[0].label("ctx"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn special_values_and_timestamps_parse() {
        let text = "# HELP g G.\n# TYPE g gauge\ng{a=\"1\"} +Inf\ng{a=\"2\"} NaN 1700000000000\ng 2e3\n";
        let s = validate(text).expect("valid");
        assert_eq!(s.families[0].samples[0].value, f64::INFINITY);
        assert!(s.families[0].samples[1].value.is_nan());
        assert_eq!(s.families[0].samples[2].value, 2000.0);
    }

    #[test]
    fn structural_violations_fail() {
        // Sample before any announcement.
        assert!(matches!(
            validate("loose_metric 1\n"),
            Err(MetricsError::Structure(_))
        ));
        // TYPE without HELP.
        assert!(matches!(
            validate("# TYPE m counter\nm 1\n"),
            Err(MetricsError::Structure(_))
        ));
        // HELP without TYPE.
        assert!(matches!(
            validate("# HELP m M.\n"),
            Err(MetricsError::Structure(_))
        ));
        // Family announced twice.
        let twice = "# HELP m M.\n# TYPE m counter\n# HELP m M.\n# TYPE m counter\n";
        assert!(matches!(validate(twice), Err(MetricsError::Structure(_))));
        // Duplicate label set.
        let dup = "# HELP m M.\n# TYPE m counter\nm{a=\"x\"} 1\nm{a=\"x\"} 2\n";
        assert!(matches!(validate(dup), Err(MetricsError::Structure(_))));
        // Negative counter.
        let neg = "# HELP m M.\n# TYPE m counter\nm -1\n";
        assert!(matches!(validate(neg), Err(MetricsError::Structure(_))));
    }

    #[test]
    fn line_violations_fail() {
        for bad in [
            "# HELP m M.\n# TYPE m histogram\nm 1\n",
            "# HELP m M.\n# TYPE m gauge\nm{a=unquoted} 1\n",
            "# HELP m M.\n# TYPE m gauge\nm{a=\"open} 1\n",
            "# HELP m M.\n# TYPE m gauge\nm notanumber\n",
            "# HELP m M.\n# TYPE m gauge\nm 1 2 3\n",
            "# HELP 0bad M.\n# TYPE 0bad gauge\n",
            "# HELP m bad \\q escape.\n# TYPE m gauge\n",
        ] {
            assert!(
                matches!(validate(bad), Err(MetricsError::Line { .. })),
                "expected line error: {bad:?}"
            );
        }
    }

    #[test]
    fn blank_lines_and_other_comments_are_ignored() {
        let text = "\n# produced by graphblas-obs\n# HELP m M.\n# TYPE m gauge\n\nm 1\n# EOF\n";
        let s = validate(text).expect("valid");
        assert_eq!(s.total_samples(), 1);
    }
}
