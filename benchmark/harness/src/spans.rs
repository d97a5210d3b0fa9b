//! Harness-side spans: one per call the harness makes into a layer.
//!
//! Spans are kept in memory and written out when the run ends. The gated
//! pass runs with the tracer off, where `scope` is one branch and a call.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` indexes into the same span list; spans
/// of one rep share `rep` (0 = set-up and verification).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    rep: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans recorded from now on carry this rep id.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Runs `f` inside a span named `name`, nested under the span open at
    /// the time of the call. The span closes however `f` returns.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    me.duration_ns() - covered
}

/// Serialises spans as a JSON array; `id` is the array index `parent`
/// refers to.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{}}}",
            s.name, s.start_ns, s.end_ns, s.rep
        );
        out.push_str(if id + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            rep: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps the previous child
            span(60, 70, Some(0)),
            span(62, 65, Some(3)),  // grandchild: not subtracted from 0
            span(90, 120, Some(0)), // runs past the parent: clipped
        ];
        // Covered: [10,50) ∪ [60,70) ∪ [90,100) = 40 + 10 + 10.
        assert_eq!(self_time_ns(&spans, 0), 40);
        assert_eq!(self_time_ns(&spans, 3), 7);
        assert_eq!(self_time_ns(&spans, 1), 20);
    }

    #[test]
    fn scopes_nest_and_share_the_rep_id() {
        let mut tr = Tracer::on();
        tr.set_rep(7);
        let r: Result<u32, ()> = tr.scope("rep", |tr| {
            tr.scope("child", |_| ());
            tr.scope("failing", |_| Err::<(), ()>(())).ok();
            Ok(3)
        });
        assert_eq!(r, Ok(3));
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("rep", None));
        assert_eq!((s[1].name, s[1].parent), ("child", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("failing", Some(0)));
        assert!(s.iter().all(|x| x.rep == 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let json = to_json(s);
        assert!(json.contains("\"name\":\"child\"") && json.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.scope("rep", |tr| tr.scope("x", |_| 5)), 5);
        assert!(tr.spans().is_empty());
    }
}
