//! Chrome-trace well-formedness checking for `GRB_TRACE` output.
//!
//! `graphblas_obs::timeline` exports per-thread timelines as Chrome-trace
//! / Perfetto `trace_event` JSON. This module is the independent reader
//! for that format — a minimal zero-dependency JSON parser plus a
//! validator that re-checks the invariants the exporter promises:
//!
//! * the document is valid JSON (full string-escape handling included),
//!   shaped `{"traceEvents": [...]}`;
//! * every event carries `ph`, `pid`, `tid`; duration events (`B`/`E`)
//!   also carry `name` and a numeric `ts`;
//! * per thread, `B`/`E` pairs are balanced and properly nested (an `E`
//!   never closes a region that is not the top of that thread's stack),
//!   with non-negative durations;
//! * `M`etadata `thread_name` records label the tids, and
//!   `thread_sort_index` records (when present) carry a numeric
//!   `args.sort_index` — the exporter's deterministic Perfetto track
//!   order — at most one per tid.
//!
//! Used by the `tracecheck` binary in `scripts/check.sh` to gate the
//! smoke-bench trace, and by `tests/trace_format.rs` against traces the
//! obs crate actually writes. The parser deliberately shares no code with
//! `graphblas_obs::json` (writer) — a shared bug could not cancel out.

use std::collections::BTreeSet;
use std::fmt;

// --- minimal JSON value + parser ------------------------------------------

/// A parsed JSON value (object keys keep document order).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, when it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Why a trace failed validation. `Json` is a syntax-level failure (with
/// a byte offset); the others are structural.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The document is not valid JSON.
    Json { pos: usize, what: String },
    /// The document parsed but is not a Chrome-trace object.
    Structure(String),
    /// A thread's `B`/`E` events do not pair up.
    Unbalanced { tid: u64, detail: String },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Json { pos, what } => write!(f, "invalid JSON at byte {pos}: {what}"),
            TraceError::Structure(s) => write!(f, "not a Chrome trace: {s}"),
            TraceError::Unbalanced { tid, detail } => {
                write!(f, "unbalanced events on tid {tid}: {detail}")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> TraceError {
        TraceError::Json {
            pos: self.pos,
            what: what.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), TraceError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, TraceError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, TraceError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Value, TraceError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, TraceError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, TraceError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-borrow the byte run as UTF-8 (input is &str, so
                    // multi-byte sequences are already valid).
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while let Some(&nb) = self.bytes.get(end) {
                        if nb == b'"' || nb == b'\\' {
                            break;
                        }
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, TraceError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, TraceError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Parses a JSON document (full document: trailing garbage is an error).
pub fn parse_json(text: &str) -> Result<Value, TraceError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

// --- trace validation -----------------------------------------------------

/// What a valid trace contained.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Total duration events (`B` plus `E`).
    pub duration_events: usize,
    /// Completed regions (`B`/`E` pairs).
    pub regions: usize,
    /// Distinct tids that recorded at least one region.
    pub threads: Vec<u64>,
    /// tid → thread name from `M`etadata records.
    pub thread_names: Vec<(u64, String)>,
    /// tid → Perfetto track order from `thread_sort_index` metadata.
    pub thread_sort_indices: Vec<(u64, u64)>,
    /// Distinct region names, sorted.
    pub names: Vec<String>,
    /// Deepest `B` nesting observed on any one thread.
    pub max_depth: usize,
}

impl TraceSummary {
    /// Whether any region name starts with `prefix` (e.g. `"spgemm."`).
    pub fn has_name_prefix(&self, prefix: &str) -> bool {
        self.names.iter().any(|n| n.starts_with(prefix))
    }
}

/// Validates Chrome-trace JSON text: parses it, checks the event-object
/// shape, and replays each thread's `B`/`E` stream against a stack.
pub fn validate(text: &str) -> Result<TraceSummary, TraceError> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or_else(|| TraceError::Structure("missing \"traceEvents\"".into()))?;
    let Value::Arr(events) = events else {
        return Err(TraceError::Structure(
            "\"traceEvents\" is not an array".into(),
        ));
    };

    let mut summary = TraceSummary::default();
    let mut names: BTreeSet<String> = BTreeSet::new();
    let mut threads: BTreeSet<u64> = BTreeSet::new();
    // Per-tid stack of (name, ts).
    let mut stacks: Vec<(u64, Vec<(String, f64)>)> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let at = |what: &str| TraceError::Structure(format!("event {i}: {what}"));
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| at("missing \"ph\""))?;
        let tid = ev
            .get("tid")
            .and_then(Value::as_num)
            .ok_or_else(|| at("missing numeric \"tid\""))? as u64;
        ev.get("pid")
            .and_then(Value::as_num)
            .ok_or_else(|| at("missing numeric \"pid\""))?;
        match ph {
            "M" => match ev.get("name").and_then(Value::as_str) {
                Some("thread_name") => {
                    if let Some(n) = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                    {
                        summary.thread_names.push((tid, n.to_string()));
                    }
                }
                Some("thread_sort_index") => {
                    let idx = ev
                        .get("args")
                        .and_then(|a| a.get("sort_index"))
                        .and_then(Value::as_num)
                        .ok_or_else(|| {
                            at("thread_sort_index metadata missing numeric \"args.sort_index\"")
                        })?;
                    if summary.thread_sort_indices.iter().any(|(t, _)| *t == tid) {
                        return Err(at(&format!("duplicate thread_sort_index for tid {tid}")));
                    }
                    summary.thread_sort_indices.push((tid, idx as u64));
                }
                _ => {}
            },
            "B" | "E" => {
                let name = ev
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| at("duration event missing \"name\""))?;
                let ts = ev
                    .get("ts")
                    .and_then(Value::as_num)
                    .ok_or_else(|| at("duration event missing numeric \"ts\""))?;
                summary.duration_events += 1;
                let stack = match stacks.iter_mut().find(|(t, _)| *t == tid) {
                    Some((_, s)) => s,
                    None => {
                        stacks.push((tid, Vec::new()));
                        &mut stacks.last_mut().expect("just pushed").1
                    }
                };
                if ph == "B" {
                    stack.push((name.to_string(), ts));
                    summary.max_depth = summary.max_depth.max(stack.len());
                    names.insert(name.to_string());
                    threads.insert(tid);
                } else {
                    let Some((open, open_ts)) = stack.pop() else {
                        return Err(TraceError::Unbalanced {
                            tid,
                            detail: format!("E \"{name}\" with no open region"),
                        });
                    };
                    if open != name {
                        return Err(TraceError::Unbalanced {
                            tid,
                            detail: format!("E \"{name}\" closes open region \"{open}\""),
                        });
                    }
                    if ts < open_ts {
                        return Err(TraceError::Unbalanced {
                            tid,
                            detail: format!(
                                "region \"{name}\" ends at {ts} before it begins at {open_ts}"
                            ),
                        });
                    }
                    summary.regions += 1;
                }
            }
            other => {
                return Err(at(&format!("unsupported phase \"{other}\"")));
            }
        }
    }
    for (tid, stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(TraceError::Unbalanced {
                tid: *tid,
                detail: format!("region \"{name}\" never closed"),
            });
        }
    }
    summary.names = names.into_iter().collect();
    summary.threads = threads.into_iter().collect();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ph: &str, name: &str, tid: u64, ts: f64) -> String {
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"grb\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}}}"
        )
    }

    fn trace(events: &[String]) -> String {
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
            events.join(",")
        )
    }

    #[test]
    fn balanced_nested_trace_validates() {
        let t = trace(&[
            ev("B", "outer", 1, 0.0),
            ev("B", "inner", 1, 1.0),
            ev("E", "inner", 1, 2.0),
            ev("E", "outer", 1, 3.0),
            ev("B", "other", 2, 0.5),
            ev("E", "other", 2, 0.75),
        ]);
        let s = validate(&t).unwrap();
        assert_eq!(s.regions, 3);
        assert_eq!(s.threads, vec![1, 2]);
        assert_eq!(s.max_depth, 2);
        assert!(s.has_name_prefix("out"));
    }

    #[test]
    fn unbalanced_and_crossed_traces_fail() {
        let open = trace(&[ev("B", "x", 1, 0.0)]);
        assert!(matches!(
            validate(&open),
            Err(TraceError::Unbalanced { tid: 1, .. })
        ));
        let stray = trace(&[ev("E", "x", 1, 0.0)]);
        assert!(matches!(
            validate(&stray),
            Err(TraceError::Unbalanced { .. })
        ));
        // Overlapping (not nested) close order.
        let crossed = trace(&[
            ev("B", "a", 1, 0.0),
            ev("B", "b", 1, 1.0),
            ev("E", "a", 1, 2.0),
            ev("E", "b", 1, 3.0),
        ]);
        assert!(matches!(
            validate(&crossed),
            Err(TraceError::Unbalanced { .. })
        ));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse_json(r#"{"a":"quote \" slash \\ nl \n uni é pair 😀"}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_str().unwrap(),
            "quote \" slash \\ nl \n uni é pair 😀"
        );
    }

    #[test]
    fn malformed_json_reports_position() {
        let Err(TraceError::Json { pos, .. }) = validate("{\"traceEvents\":[}") else {
            panic!("expected a JSON error");
        };
        assert!(pos > 0);
        assert!(validate("[]").is_err()); // array root: not a trace object
        assert!(matches!(validate("{}"), Err(TraceError::Structure(_))));
    }

    #[test]
    fn metadata_threads_are_collected() {
        let meta = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":7,\
                    \"args\":{\"name\":\"worker \\\"7\\\"\"}}"
            .to_string();
        let t = trace(&[meta, ev("B", "k", 7, 0.0), ev("E", "k", 7, 1.0)]);
        let s = validate(&t).unwrap();
        assert_eq!(s.thread_names, vec![(7, "worker \"7\"".to_string())]);
    }

    fn sort_meta(tid: u64, idx: &str) -> String {
        format!(
            "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"sort_index\":{idx}}}}}"
        )
    }

    #[test]
    fn sort_index_metadata_is_collected() {
        let t = trace(&[
            sort_meta(3, "0"),
            sort_meta(7, "2"),
            ev("B", "k", 7, 0.0),
            ev("E", "k", 7, 1.0),
        ]);
        let s = validate(&t).unwrap();
        assert_eq!(s.thread_sort_indices, vec![(3, 0), (7, 2)]);
    }

    #[test]
    fn bad_sort_index_metadata_fails() {
        // Non-numeric sort_index.
        let bad = trace(&[
            "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{\"sort_index\":\"first\"}}"
                .to_string(),
        ]);
        assert!(matches!(validate(&bad), Err(TraceError::Structure(_))));
        // Missing args entirely.
        let missing = trace(&[
            "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":1}".to_string(),
        ]);
        assert!(matches!(validate(&missing), Err(TraceError::Structure(_))));
        // Two records for one tid.
        let dup = trace(&[sort_meta(5, "1"), sort_meta(5, "2")]);
        assert!(matches!(validate(&dup), Err(TraceError::Structure(_))));
    }
}
