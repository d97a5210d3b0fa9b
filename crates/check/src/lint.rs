//! The repo-specific lint pass behind the `grblint` binary.
//!
//! Eight rules, each encoding a convention this workspace actually relies
//! on (a general-purpose linter cannot know them):
//!
//! * `relaxed-ordering` — `Ordering::Relaxed` is forbidden outside
//!   `crates/obs` (whose monotonic counters are the one sanctioned use).
//!   Everywhere else a relaxed access is either a bug (inferring
//!   cross-thread state without a happens-before edge — the §III lost-
//!   wakeup family) or needs a written justification.
//! * `no-unwrap` — `unwrap()`/`expect(` are forbidden in `crates/core` and
//!   `crates/sparse` non-test code: the §V error model requires fallible
//!   paths to flow through `GrB_Info`-mapped errors, not panics.
//!   `debug_assert` lines are exempt (they *are* the sanctioned panic).
//! * `grb-error-type` — every public fallible API in `crates/core` must
//!   return the `GrB_Info`-mapped error type (`GrbResult`); a bare
//!   `Result<_, OtherError>` leaks a non-spec error surface.
//! * `undocumented-unsafe` — every `unsafe` needs a `// SAFETY:` comment
//!   on or immediately above it.
//! * `span-at-kernel-boundary` — public kernel entry points must open an
//!   obs span (or timeline phase) so the telemetry layer sees every
//!   kernel: in `crates/sparse` this covers `pub fn`s taking `&Context`
//!   in the kernel files (`spgemm`, `spmv`, `ewise`, `transpose`,
//!   `convert`, `kron`); in `crates/core` it covers `pub fn`s taking
//!   `&Descriptor` under `operations/`.
//! * `decision-without-event` — a runtime choice point that bumps a
//!   decision counter (`record_direction_pick`, `record_workspace_checkout`,
//!   `record_dispatch_pick`, `record_format_pick`) must also emit a
//!   reason-coded provenance event (`events::decision_*`) in the same
//!   function body, so `GrB_explain` never silently loses a decision the
//!   aggregate counters admit to.
//! * `dyn-semiring-in-hot-kernel` — the hot sparse kernel files must stay
//!   generic over their operator closures (`FM: Fn(...)` type parameters
//!   the registry monomorphizes), never accept a type-erased `dyn Fn`:
//!   a per-scalar indirect call in the inner loop is exactly the §II
//!   overhead the kernel registry exists to remove. Callbacks that run
//!   outside the flop loop (a dedup hook at conversion time) carry a
//!   waiver.
//!
//! Any rule can be waived at a specific site with a comment
//! `// grblint: allow(<rule>)` on the same line or in the comment block
//! immediately preceding the statement; a waiver covers violations through
//! the end of that statement (multi-line method chains included). Waivers
//! are deliberate — each one is a reviewed justification, greppable via
//! `grblint:`.
//!
//! A waiver must say why the site is sound: one whose comment block
//! holds no text besides the `grblint: allow(...)` clause arms nothing and
//! is reported under the rule it names ("waiver gives no reason").
//!
//! Waivers are themselves checked (`stale-waiver`): one that suppresses
//! nothing — because the code it excused was since fixed or removed, or
//! because it names no known rule — is reported, so the waiver inventory
//! never outlives the exceptions it documents. Doc comments (`///`,
//! `//!`) never arm a waiver: prose *about* the waiver syntax is not a
//! waiver.
//!
//! The pass is textual (line-oriented with comment/test stripping), not
//! syntactic: it trades a parser for zero dependencies and for speed, and
//! the rules are chosen so that textual matching has no false negatives on
//! this codebase's idiom. False positives are what waivers are for.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The lint rules. `slug` values are what `grblint: allow(...)` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `Ordering::Relaxed` outside `crates/obs`.
    RelaxedOrdering,
    /// `unwrap()`/`expect(` in core/sparse non-test code.
    NoUnwrap,
    /// Public fallible core API not returning `GrbResult`.
    GrbErrorType,
    /// `unsafe` without a `// SAFETY:` comment.
    UndocumentedUnsafe,
    /// Public kernel entry point with no obs span/phase in its body.
    SpanAtKernelBoundary,
    /// Decision-counter site with no reason-coded event in the same body.
    DecisionWithoutEvent,
    /// Type-erased `dyn Fn` operator in a hot sparse kernel file.
    DynSemiringInHotKernel,
    /// A `grblint: allow(...)` that suppresses nothing (or names no rule).
    StaleWaiver,
}

impl Rule {
    /// The kebab-case name used in waiver comments and reports.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::RelaxedOrdering => "relaxed-ordering",
            Rule::NoUnwrap => "no-unwrap",
            Rule::GrbErrorType => "grb-error-type",
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::SpanAtKernelBoundary => "span-at-kernel-boundary",
            Rule::DecisionWithoutEvent => "decision-without-event",
            Rule::DynSemiringInHotKernel => "dyn-semiring-in-hot-kernel",
            Rule::StaleWaiver => "stale-waiver",
        }
    }

    /// All rules, for `--list-rules`.
    pub fn all() -> [Rule; 8] {
        [
            Rule::RelaxedOrdering,
            Rule::NoUnwrap,
            Rule::GrbErrorType,
            Rule::UndocumentedUnsafe,
            Rule::SpanAtKernelBoundary,
            Rule::DecisionWithoutEvent,
            Rule::DynSemiringInHotKernel,
            Rule::StaleWaiver,
        ]
    }

    /// Whether this rule applies to a file of crate `krate`.
    fn applies_to(self, krate: &str) -> bool {
        match self {
            Rule::RelaxedOrdering => krate != "obs",
            Rule::NoUnwrap => krate == "core" || krate == "sparse",
            Rule::GrbErrorType => krate == "core",
            Rule::UndocumentedUnsafe => true,
            Rule::SpanAtKernelBoundary => krate == "core" || krate == "sparse",
            // obs defines the counters and events themselves; everywhere
            // else a counter bump without an event loses provenance.
            Rule::DecisionWithoutEvent => krate != "obs",
            Rule::DynSemiringInHotKernel => krate == "sparse",
            Rule::StaleWaiver => true,
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path as reported (relative to the scanned root).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: Rule,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.slug(),
            self.snippet
        )
    }
}

/// Splits a line into (code, comment) at the first `//` that is not inside
/// a string literal. Good enough for this codebase's idiom (no `//` inside
/// string literals on lintable lines; raw multiline strings only occur in
/// tests, which are skipped).
fn split_comment(line: &str) -> (&str, &str) {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1, // skip escaped char
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return (&line[..i], &line[i..]);
            }
            _ => {}
        }
        i += 1;
    }
    (line, "")
}

/// Blanks out string-literal contents so patterns don't match inside
/// message text (e.g. a slug string containing a keyword).
fn strip_strings(code: &str) -> String {
    let mut out = String::with_capacity(code.len());
    let mut in_str = false;
    let mut chars = code.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' if in_str => {
                chars.next();
                out.push(' ');
            }
            '"' => {
                in_str = !in_str;
                out.push('"');
            }
            _ if in_str => out.push(' '),
            _ => out.push(c),
        }
    }
    out
}

/// Parses `grblint: allow(rule-a, rule-b)` clauses out of a comment,
/// returning each name with its resolved rule (`None` for names that
/// match no rule — including `stale-waiver`, which is a meta-rule about
/// waivers and cannot itself be waived). Doc comments (`///`, `//!`)
/// never arm a waiver: prose describing the syntax is not a waiver.
fn parse_waivers(comment: &str) -> Vec<(String, Option<Rule>)> {
    let mut out = Vec::new();
    let t = comment.trim_start();
    if t.starts_with("///") || t.starts_with("//!") {
        return out;
    }
    let Some(pos) = comment.find("grblint: allow(") else {
        return out;
    };
    let rest = &comment[pos + "grblint: allow(".len()..];
    let Some(end) = rest.find(')') else {
        return out;
    };
    for name in rest[..end].split(',') {
        let name = name.trim();
        if name.is_empty() {
            continue;
        }
        let rule = Rule::all()
            .into_iter()
            .find(|r| r.slug() == name && *r != Rule::StaleWaiver);
        out.push((name.to_string(), rule));
    }
    out
}

/// Whether the comment block holding the waiver on line `idx` has any
/// text besides the `grblint: allow(...)` clause. The block is that line's
/// comment and the comment-only lines touching it (above it, and below it
/// when the waiver is not a trailing comment).
fn gives_reason(lines: &[&str], idx: usize) -> bool {
    let comment_only = |i: usize| {
        let (code, comment) = split_comment(lines[i]);
        code.trim().is_empty() && !comment.is_empty()
    };
    let mut first = idx;
    while first > 0 && comment_only(first - 1) {
        first -= 1;
    }
    let mut last = idx;
    if comment_only(idx) {
        while last + 1 < lines.len() && comment_only(last + 1) {
            last += 1;
        }
    }
    (first..=last).any(|i| {
        let (_, comment) = split_comment(lines[i]);
        let text = match comment.find("grblint: allow(") {
            Some(pos) => {
                let end = comment[pos..]
                    .find(')')
                    .map_or(comment.len(), |e| pos + e + 1);
                format!("{}{}", &comment[..pos], &comment[end..])
            }
            None => comment.to_string(),
        };
        text.chars().any(char::is_alphanumeric)
    })
}

/// Whether a code line ends the current statement (for waiver scope).
fn ends_statement(code: &str) -> bool {
    let t = code.trim_end();
    t.ends_with(';') || t.ends_with('{') || t.ends_with('}')
}

// The pattern is assembled so this file does not itself contain the
// forbidden token (grblint scans its own crate).
fn relaxed_pattern() -> &'static str {
    concat!("Ordering::", "Relaxed")
}

/// Kernel files in `crates/sparse` whose `&Context`-taking public
/// functions must open a span (`span-at-kernel-boundary`).
const SPARSE_KERNEL_FILES: [&str; 6] = [
    "spgemm.rs",
    "spmv.rs",
    "ewise.rs",
    "transpose.rs",
    "convert.rs",
    "kron.rs",
];

/// Tokens that satisfy `span-at-kernel-boundary`: an obs kernel span, a
/// named context span, a timeline phase, the convert-kernel wrapper, or
/// the operation pipeline's entry (`Op::begin` opens the entry's one
/// `op.<name>` span under the output's context).
const SPAN_TOKENS: [&str; 5] = [
    "kernel_span(",
    "span_ctx(",
    "phase(",
    "with_convert_span(",
    "Op::begin(",
];

/// Finds a waiver for `rule` covering the site at `line` (waiver on that
/// line or in the contiguous comment block immediately above it) and
/// returns the waiver's line index, for used-waiver bookkeeping. Used by
/// the body-scoped passes, whose sites are single statements.
fn site_waiver(lines: &[&str], waives: &[Vec<Rule>], line: usize, rule: Rule) -> Option<usize> {
    if waives[line].contains(&rule) {
        return Some(line);
    }
    let mut j = line;
    while j > 0 {
        j -= 1;
        let (pcode, pcomment) = split_comment(lines[j]);
        if !pcode.trim().is_empty() {
            break;
        }
        if waives[j].contains(&rule) {
            return Some(j);
        }
        if pcomment.is_empty() {
            break;
        }
    }
    None
}

/// The `span-at-kernel-boundary` pass: function-body scoped, so it runs
/// separately from the line-oriented rules. Scope: sparse kernel files'
/// `pub fn`s taking `&Context`; core `operations/` `pub fn`s taking
/// `&Descriptor`.
fn lint_span_boundaries(
    krate: &str,
    file: &str,
    lines: &[&str],
    waives: &[Vec<Rule>],
    test_start: usize,
    used: &mut HashSet<(usize, Rule)>,
    out: &mut Vec<Violation>,
) {
    let norm = file.replace('\\', "/");
    let basename = norm.rsplit('/').next().unwrap_or(&norm);
    let in_sparse = krate == "sparse" && SPARSE_KERNEL_FILES.contains(&basename);
    let in_core = krate == "core" && norm.contains("operations/") && basename != "mod.rs";
    if !in_sparse && !in_core {
        return;
    }
    let marker = if in_sparse {
        ": &Context"
    } else {
        ": &Descriptor"
    };
    let mut i = 0;
    while i < test_start {
        let (code, _) = split_comment(lines[i]);
        if !code.trim_start().starts_with("pub fn") {
            i += 1;
            continue;
        }
        let fn_line = i;
        // Accumulate the signature until the body opens (or a `;` ends a
        // bodyless declaration).
        let mut sig = String::new();
        let mut j = i;
        let mut open = None;
        while j < test_start {
            let (c, _) = split_comment(lines[j]);
            sig.push(' ');
            sig.push_str(c.trim());
            if c.contains('{') {
                open = Some(j);
                break;
            }
            if c.trim_end().ends_with(';') {
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        // Walk the body by brace depth, looking for a span token. On the
        // opening line only the part after `{` is body.
        let mut depth = 0i64;
        let mut has_span = false;
        let mut k = open;
        while k < lines.len() {
            let (c, _) = split_comment(lines[k]);
            let c = strip_strings(c);
            let body_part = if k == open {
                c.split_once('{').map(|x| x.1).unwrap_or("")
            } else {
                c.as_str()
            };
            if SPAN_TOKENS.iter().any(|t| body_part.contains(t)) {
                has_span = true;
            }
            depth += c.matches('{').count() as i64 - c.matches('}').count() as i64;
            if depth <= 0 {
                break;
            }
            k += 1;
        }
        if sig.contains(marker) && !has_span {
            match site_waiver(lines, waives, fn_line, Rule::SpanAtKernelBoundary) {
                Some(w) => {
                    used.insert((w, Rule::SpanAtKernelBoundary));
                }
                None => out.push(Violation {
                    file: file.to_string(),
                    line: fn_line + 1,
                    rule: Rule::SpanAtKernelBoundary,
                    snippet: lines[fn_line].trim().chars().take(120).collect(),
                }),
            }
        }
        i = k.max(open) + 1;
    }
}

/// Counter bumps that mark a runtime choice point; each obliges the
/// enclosing function to emit a reason-coded `events::decision_*` event
/// (`decision-without-event`). Assembled from pieces so grblint does not
/// flag its own pattern table.
fn decision_tokens() -> [String; 4] {
    [
        concat!("record_direction_", "pick(").to_string(),
        concat!("record_workspace_", "checkout(").to_string(),
        concat!("record_dispatch_", "pick(").to_string(),
        concat!("record_format_", "pick(").to_string(),
    ]
}

/// The forbidden type-erased operator pattern for
/// `dyn-semiring-in-hot-kernel`, assembled so grblint does not flag its
/// own pattern table.
fn dyn_fn_pattern() -> &'static str {
    concat!("dyn ", "Fn")
}

/// Token whose presence in a function body satisfies
/// `decision-without-event`.
fn decision_event_token() -> &'static str {
    concat!("events::", "decision")
}

/// The `decision-without-event` pass: function-body scoped, like
/// `lint_span_boundaries`. Any function (public or private) that bumps a
/// decision counter must also emit a provenance event somewhere in the
/// same body.
fn lint_decision_events(
    file: &str,
    lines: &[&str],
    waives: &[Vec<Rule>],
    test_start: usize,
    used: &mut HashSet<(usize, Rule)>,
    out: &mut Vec<Violation>,
) {
    let tokens = decision_tokens();
    let mut i = 0;
    while i < test_start {
        let (code, _) = split_comment(lines[i]);
        let t = code.trim_start();
        let is_fn =
            t.starts_with("pub fn ") || t.starts_with("pub(crate) fn ") || t.starts_with("fn ");
        if !is_fn {
            i += 1;
            continue;
        }
        // Find where the body opens (or skip a bodyless declaration).
        let mut j = i;
        let mut open = None;
        while j < test_start {
            let (c, _) = split_comment(lines[j]);
            if c.contains('{') {
                open = Some(j);
                break;
            }
            if c.trim_end().ends_with(';') {
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        // Walk the body by brace depth, collecting decision-counter sites
        // and looking for a provenance event.
        let mut depth = 0i64;
        let mut has_event = false;
        let mut sites: Vec<usize> = Vec::new();
        let mut k = open;
        while k < lines.len() {
            let (c, _) = split_comment(lines[k]);
            let c = strip_strings(c);
            let body_part = if k == open {
                c.split_once('{').map(|x| x.1).unwrap_or("")
            } else {
                c.as_str()
            };
            if body_part.contains(decision_event_token()) {
                has_event = true;
            }
            if tokens.iter().any(|tok| body_part.contains(tok.as_str())) {
                sites.push(k);
            }
            depth += c.matches('{').count() as i64 - c.matches('}').count() as i64;
            if depth <= 0 {
                break;
            }
            k += 1;
        }
        if !has_event {
            for site in sites {
                match site_waiver(lines, waives, site, Rule::DecisionWithoutEvent) {
                    Some(w) => {
                        used.insert((w, Rule::DecisionWithoutEvent));
                    }
                    None => out.push(Violation {
                        file: file.to_string(),
                        line: site + 1,
                        rule: Rule::DecisionWithoutEvent,
                        snippet: lines[site].trim().chars().take(120).collect(),
                    }),
                }
            }
        }
        i = k.max(open) + 1;
    }
}

/// Lints one file's source text. `krate` is the crate directory name
/// (`"core"`, `"sparse"`, …; `""` for the workspace root crate), `file` is
/// the path used in reports.
pub fn lint_source(krate: &str, file: &str, source: &str) -> Vec<Violation> {
    let lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();
    // Everything from a top-level `#[cfg(test)]` to EOF is test code in
    // this codebase (test modules sit at file bottom).
    let test_start = lines
        .iter()
        .position(|l| l.trim() == "#[cfg(test)]")
        .unwrap_or(lines.len());

    // Waiver bookkeeping: the rules each line's comment waives (a waiver
    // that gives no reason is reported here and waives nothing), every
    // waiver site for stale detection, the subset that actually suppressed
    // a violation, and allow() names resolving to no rule.
    let mut waives: Vec<Vec<Rule>> = vec![Vec::new(); lines.len()];
    let mut waiver_sites: Vec<(usize, Rule)> = Vec::new();
    let mut unknown_names: Vec<(usize, String)> = Vec::new();
    let mut used: HashSet<(usize, Rule)> = HashSet::new();
    for (idx, raw) in lines.iter().enumerate().take(test_start) {
        let (_, comment) = split_comment(raw);
        let parsed = parse_waivers(comment);
        let reasoned = !parsed.is_empty() && gives_reason(&lines, idx);
        for (name, rule) in parsed {
            match rule {
                Some(r) if reasoned => {
                    waives[idx].push(r);
                    waiver_sites.push((idx, r));
                }
                Some(r) => out.push(Violation {
                    file: file.to_string(),
                    line: idx + 1,
                    rule: r,
                    snippet: format!(
                        "waiver gives no reason: `grblint: allow({})` must say why the site is sound",
                        r.slug()
                    ),
                }),
                None => unknown_names.push((idx, name)),
            }
        }
    }

    // Whether this file is one of the hot sparse kernels whose operator
    // parameters must stay generic (`dyn-semiring-in-hot-kernel`).
    let hot_kernel = {
        let norm = file.replace('\\', "/");
        let basename = norm.rsplit('/').next().unwrap_or(&norm).to_string();
        SPARSE_KERNEL_FILES.contains(&basename.as_str())
    };

    // Armed waivers: rule -> line index of the arming comment.
    let mut armed: HashMap<Rule, usize> = HashMap::new();
    // grb-error-type needs multi-line signatures: accumulate from `pub fn`
    // until the body opens.
    let mut sig: Option<(usize, String)> = None;

    for (idx, raw) in lines.iter().enumerate().take(test_start) {
        let lineno = idx + 1;
        let (code, comment) = split_comment(raw);
        for &w in &waives[idx] {
            armed.insert(w, idx);
        }
        let code = strip_strings(code);
        let code = code.as_str();
        let code_trim = code.trim();
        if code_trim.is_empty() {
            continue; // pure comment / blank: waivers stay armed
        }

        let mut report =
            |rule: Rule, armed: &HashMap<Rule, usize>, used: &mut HashSet<(usize, Rule)>| {
                if !rule.applies_to(krate) {
                    return;
                }
                if let Some(&w) = armed.get(&rule) {
                    used.insert((w, rule));
                    return;
                }
                out.push(Violation {
                    file: file.to_string(),
                    line: lineno,
                    rule,
                    snippet: raw.trim().chars().take(120).collect(),
                });
            };

        // relaxed-ordering: flags uses *and* imports.
        if code.contains(relaxed_pattern()) {
            report(Rule::RelaxedOrdering, &armed, &mut used);
        }

        // no-unwrap: debug_assert lines are the sanctioned panic.
        if (code.contains(".unwrap()") || code.contains(".expect("))
            && !code.contains("debug_assert")
        {
            report(Rule::NoUnwrap, &armed, &mut used);
        }

        // dyn-semiring-in-hot-kernel: operator closures in the hot sparse
        // kernel files must be generic type parameters, not type-erased.
        if hot_kernel && code.contains(dyn_fn_pattern()) {
            report(Rule::DynSemiringInHotKernel, &armed, &mut used);
        }

        // undocumented-unsafe: look for a SAFETY comment on this line or in
        // the contiguous comment block above. The keyword is matched on
        // word boundaries, with the pattern split so this file does not
        // match itself.
        let has_unsafe = code
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .any(|tok| tok == concat!("uns", "afe"));
        if has_unsafe {
            let mut documented = comment.contains("SAFETY:");
            let mut j = idx;
            while j > 0 {
                j -= 1;
                let (pcode, pcomment) = split_comment(lines[j]);
                if !pcode.trim().is_empty() {
                    break; // ran into code: end of the comment block
                }
                if pcomment.contains("SAFETY:") {
                    documented = true;
                    break;
                }
                if pcomment.is_empty() {
                    break; // blank line ends the block
                }
            }
            if !documented {
                report(Rule::UndocumentedUnsafe, &armed, &mut used);
            }
        }

        // grb-error-type: collect public fn signatures.
        if sig.is_none() && code_trim.starts_with("pub fn") {
            sig = Some((lineno, String::new()));
        }
        if let Some((start, acc)) = &mut sig {
            acc.push(' ');
            acc.push_str(code_trim);
            let opened = acc.contains('{') || acc.trim_end().ends_with(';');
            if opened {
                let sig_text = acc.replace("GrbResult", "");
                if sig_text.contains("-> Result<")
                    || sig_text.contains("->Result<")
                    || sig_text.contains("-> io::Result<")
                    || sig_text.contains("-> std::io::Result<")
                {
                    let start = *start;
                    if Rule::GrbErrorType.applies_to(krate) {
                        if let Some(&w) = armed.get(&Rule::GrbErrorType) {
                            used.insert((w, Rule::GrbErrorType));
                        } else {
                            out.push(Violation {
                                file: file.to_string(),
                                line: start,
                                rule: Rule::GrbErrorType,
                                snippet: lines[start - 1].trim().chars().take(120).collect(),
                            });
                        }
                    }
                }
                sig = None;
            }
        }

        if ends_statement(code) {
            armed.clear();
        }
    }
    if Rule::SpanAtKernelBoundary.applies_to(krate) {
        lint_span_boundaries(
            krate, file, &lines, &waives, test_start, &mut used, &mut out,
        );
    }
    if Rule::DecisionWithoutEvent.applies_to(krate) {
        lint_decision_events(file, &lines, &waives, test_start, &mut used, &mut out);
    }

    // Stale-waiver sweep: every waiver site that suppressed nothing, and
    // every allow() naming no known rule.
    for (idx, rule) in waiver_sites {
        if !used.contains(&(idx, rule)) {
            out.push(Violation {
                file: file.to_string(),
                line: idx + 1,
                rule: Rule::StaleWaiver,
                snippet: format!(
                    "unused `grblint: allow({})` — it suppresses no finding; remove it",
                    rule.slug()
                ),
            });
        }
    }
    for (idx, name) in unknown_names {
        out.push(Violation {
            file: file.to_string(),
            line: idx + 1,
            rule: Rule::StaleWaiver,
            snippet: format!(
                "`grblint: allow({})` names no grblint rule (known: {})",
                name,
                Rule::all()
                    .iter()
                    .filter(|r| **r != Rule::StaleWaiver)
                    .map(|r| r.slug())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        });
    }
    out.sort_by(|a, b| (a.line, a.rule.slug()).cmp(&(b.line, b.rule.slug())));
    out
}

/// Whether `path` (relative, `/`-separated components) is in scope for
/// linting: `.rs` sources outside `tests/`, `benches/`, `examples/`, and
/// `target/`.
fn in_scope(rel: &Path) -> bool {
    if rel.extension().and_then(|e| e.to_str()) != Some("rs") {
        return false;
    }
    !rel.components().any(|c| {
        matches!(
            c.as_os_str().to_str(),
            Some("tests") | Some("benches") | Some("examples") | Some("target")
        )
    })
}

/// The crate directory name a workspace-relative path belongs to (`""`
/// for the root crate's own sources).
fn crate_of(rel: &Path) -> String {
    let comps: Vec<&str> = rel
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    if comps.len() >= 2 && comps[0] == "crates" {
        comps[1].to_string()
    } else {
        String::new()
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every in-scope source file under `root` (a workspace checkout),
/// in sorted path order.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        if !in_scope(rel) {
            continue;
        }
        let krate = crate_of(rel);
        let source = fs::read_to_string(&path)?;
        out.extend(lint_source(&krate, &rel.to_string_lossy(), &source));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxed_flagged_outside_obs_only() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert_eq!(lint_source("exec", "x.rs", src).len(), 1);
        assert_eq!(lint_source("obs", "x.rs", src).len(), 0);
    }

    #[test]
    fn waiver_on_preceding_line_covers_statement() {
        let src = "\
// grblint: allow(relaxed-ordering) — justified.
counters()
    .wakes
    .fetch_add(1, Ordering::Relaxed);
counters().fetch_add(1, Ordering::Relaxed);
";
        let v = lint_source("exec", "x.rs", src);
        // The waiver covers the first (multi-line) statement only.
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn unwrap_rules_scoped_to_core_and_sparse() {
        let src = "fn f() {\n    x.unwrap();\n    y.expect(\"m\");\n}\n";
        assert_eq!(lint_source("core", "x.rs", src).len(), 2);
        assert_eq!(lint_source("sparse", "x.rs", src).len(), 2);
        assert_eq!(lint_source("exec", "x.rs", src).len(), 0);
        let dbg = "fn f() { debug_assert_eq!(a.last().unwrap(), b); }\n";
        assert_eq!(lint_source("core", "x.rs", dbg).len(), 0);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "\
fn f() {}
#[cfg(test)]
mod tests {
    fn g() { x.unwrap(); let _ = Ordering::Relaxed; }
}
";
        assert_eq!(lint_source("core", "x.rs", src).len(), 0);
    }

    #[test]
    fn grb_error_type_over_multiline_signatures() {
        let good = "pub fn f(&self) -> GrbResult<usize> {\n}\n";
        assert_eq!(lint_source("core", "x.rs", good).len(), 0);
        let bad = "pub fn f(\n    &self,\n) -> Result<usize, OtherError> {\n}\n";
        let v = lint_source("core", "x.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::GrbErrorType);
        assert_eq!(v[0].line, 1);
        // Not a core file: out of scope.
        assert_eq!(lint_source("io", "x.rs", bad).len(), 0);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { unsafe { std::mem::transmute(x) } }\n";
        assert_eq!(lint_source("exec", "x.rs", bad).len(), 1);
        let good = "\
fn f() {
    // SAFETY: lifetimes checked by scope join below.
    unsafe { std::mem::transmute(x) }
}
";
        assert_eq!(lint_source("exec", "x.rs", good).len(), 0);
        let inline = "fn f() { unsafe { t(x) } } // SAFETY: fine\n";
        assert_eq!(lint_source("exec", "x.rs", inline).len(), 0);
    }

    #[test]
    fn span_rule_catches_bare_kernel_entry() {
        let bad = "\
pub fn spgemm<T>(ctx: &Context, a: &Csr<T>) -> Csr<T> {
    let out = multiply(ctx, a);
    out
}
";
        let v = lint_source("sparse", "crates/sparse/src/spgemm.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::SpanAtKernelBoundary);
        assert_eq!(v[0].line, 1);
        // Same file with a span: clean.
        let good = "\
pub fn spgemm<T>(ctx: &Context, a: &Csr<T>) -> Csr<T> {
    let mut sp = graphblas_obs::kernel_span(graphblas_obs::Kernel::SpGEMM, ctx.id());
    multiply(ctx, a)
}
";
        assert_eq!(
            lint_source("sparse", "crates/sparse/src/spgemm.rs", good).len(),
            0
        );
        // A timeline phase also satisfies the rule (delegating wrappers).
        let phased = "\
pub fn spgemm<T>(ctx: &Context, a: &Csr<T>) -> Csr<T> {
    let _ph = graphblas_obs::timeline::phase(\"spgemm\");
    multiply(ctx, a)
}
";
        assert_eq!(
            lint_source("sparse", "crates/sparse/src/spgemm.rs", phased).len(),
            0
        );
    }

    #[test]
    fn span_rule_scoped_to_kernel_files_and_ops() {
        let bare = "pub fn helper<T>(ctx: &Context, a: &Csr<T>) -> usize {\n    a.nnz()\n}\n";
        // util.rs is not a kernel file: out of scope.
        assert_eq!(
            lint_source("sparse", "crates/sparse/src/util.rs", bare).len(),
            0
        );
        // Core: only operations/ files with a &Descriptor parameter.
        let op = "\
pub fn mxm<T>(
    c: &Matrix<T>,
    desc: &Descriptor,
) -> GrbResult {
    body()
}
";
        assert_eq!(
            lint_source("core", "crates/core/src/operations/mxm.rs", op).len(),
            1
        );
        assert_eq!(
            lint_source("core", "crates/core/src/matrix.rs", op).len(),
            0
        );
        // Entering the shared operation pipeline opens the entry's span.
        let piped = op.replace("body()", "run(Op::begin(\"op.mxm\", &c.core, mask, desc)?)");
        assert_eq!(
            lint_source("core", "crates/core/src/operations/mxm.rs", &piped).len(),
            0
        );
        // A pub fn in an operations file without &Descriptor is exempt.
        let knob = "pub fn force_direction(d: Option<Direction>) {\n    set(d);\n}\n";
        assert_eq!(
            lint_source("core", "crates/core/src/operations/mxv.rs", knob).len(),
            0
        );
    }

    #[test]
    fn span_rule_waivable_above_signature() {
        let waived = "\
// grblint: allow(span-at-kernel-boundary) — measured by its caller.
pub fn inner<T>(ctx: &Context, a: &Csr<T>) -> Csr<T> {
    multiply(ctx, a)
}
";
        assert_eq!(
            lint_source("sparse", "crates/sparse/src/spmv.rs", waived).len(),
            0
        );
    }

    #[test]
    fn decision_counter_without_event_is_flagged() {
        let bad = "\
fn choose(nnz: usize, len: usize) -> Direction {
    let d = pick(nnz, len);
    graphblas_obs::counters::record_direction_pick(d == Direction::Pull);
    d
}
";
        let v = lint_source("core", "x.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::DecisionWithoutEvent);
        assert_eq!(v[0].line, 3);
        // Same body with a provenance event: clean.
        let good = "\
fn choose(nnz: usize, len: usize) -> Direction {
    let d = pick(nnz, len);
    graphblas_obs::counters::record_direction_pick(d == Direction::Pull);
    graphblas_obs::events::decision_direction(\"mxv\", 0, d == Direction::Pull, \"estimate\", [1, 2, 8]);
    d
}
";
        assert_eq!(lint_source("core", "x.rs", good).len(), 0);
        // obs itself (counter definitions, self-tests) is exempt.
        assert_eq!(lint_source("obs", "x.rs", bad).len(), 0);
    }

    #[test]
    fn decision_rule_covers_workspace_checkout_and_waivers() {
        let bad = "\
pub fn checkout<T>(n: usize) -> Checkout<T> {
    let hit = try_reuse(n);
    graphblas_obs::counters::record_workspace_checkout(hit, reused);
    make(n)
}
";
        let v = lint_source("exec", "x.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::DecisionWithoutEvent);
        // A waiver in the comment block above the site covers it.
        let waived = "\
pub fn checkout<T>(n: usize) -> Checkout<T> {
    let hit = try_reuse(n);
    // grblint: allow(decision-without-event) — event emitted by caller.
    graphblas_obs::counters::record_workspace_checkout(hit, reused);
    make(n)
}
";
        assert_eq!(lint_source("exec", "x.rs", waived).len(), 0);
    }

    #[test]
    fn dyn_semiring_flagged_in_hot_kernel_files_only() {
        let bad = "pub fn spmv<T>(ctx: &Context, mul: &dyn Fn(&T, &T) -> T) -> T {\n    let _ph = phase(\"x\");\n    go(mul)\n}\n";
        let v = lint_source("sparse", "crates/sparse/src/spmv.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::DynSemiringInHotKernel);
        // Non-kernel sparse files (operator storage) are out of scope.
        assert_eq!(
            lint_source("sparse", "crates/sparse/src/svec.rs", bad).len(),
            0
        );
        // Other crates are out of scope even for kernel-named files.
        assert_eq!(lint_source("core", "crates/core/src/spmv.rs", bad).len(), 0);
        // Generic operator parameters are the sanctioned shape.
        let good = "pub fn spmv<T, FM: Fn(&T, &T) -> T>(ctx: &Context, mul: FM) -> T {\n    let _ph = phase(\"x\");\n    go(mul)\n}\n";
        assert_eq!(
            lint_source("sparse", "crates/sparse/src/spmv.rs", good).len(),
            0
        );
        // A waiver covers an out-of-loop callback.
        let waived = "pub fn to_csr<T>(ctx: &Context, dup: Option<&(dyn Fn(&T, &T) -> T + Sync)>) -> Csr<T> { // grblint: allow(dyn-semiring-in-hot-kernel): runs once per duplicate\n    let _ph = phase(\"x\");\n    go(dup)\n}\n";
        assert_eq!(
            lint_source("sparse", "crates/sparse/src/convert.rs", waived).len(),
            0
        );
    }

    #[test]
    fn dispatch_and_format_picks_require_events() {
        let bad = "\
fn pick(hit: bool) {
    graphblas_obs::counters::record_dispatch_pick(hit);
}
";
        let v = lint_source("core", "x.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::DecisionWithoutEvent);
        let bad_fmt = "\
fn pick(bitmap: bool) {
    graphblas_obs::counters::record_format_pick(bitmap);
}
";
        assert_eq!(lint_source("core", "x.rs", bad_fmt).len(), 1);
        let good = "\
fn pick(hit: bool) {
    graphblas_obs::counters::record_dispatch_pick(hit);
    graphblas_obs::events::decision_dispatch(\"mxv\", 0, hit);
}
";
        assert_eq!(lint_source("core", "x.rs", good).len(), 0);
    }

    #[test]
    fn waiver_parses_multiple_rules() {
        let ws: Vec<Rule> = parse_waivers("// grblint: allow(no-unwrap, relaxed-ordering)")
            .into_iter()
            .filter_map(|(_, r)| r)
            .collect();
        assert!(ws.contains(&Rule::NoUnwrap));
        assert!(ws.contains(&Rule::RelaxedOrdering));
    }

    #[test]
    fn stale_waiver_is_flagged() {
        // The waiver suppresses nothing: the statement below is clean.
        let src = "\
// grblint: allow(relaxed-ordering) — the counter is advisory.
fn f() { g(); }
";
        let v = lint_source("exec", "x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::StaleWaiver);
        assert_eq!(v[0].line, 1);
        assert!(v[0].snippet.contains("relaxed-ordering"));
    }

    #[test]
    fn used_waiver_is_not_stale() {
        let src = "\
// grblint: allow(relaxed-ordering) — the counter is advisory.
fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }
";
        assert_eq!(lint_source("exec", "x.rs", src).len(), 0);
    }

    #[test]
    fn unknown_waiver_name_is_flagged() {
        let src = "// grblint: allow(no-such-rule)\nfn f() {}\n";
        let v = lint_source("exec", "x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::StaleWaiver);
        assert!(v[0].snippet.contains("no-such-rule"));
    }

    #[test]
    fn doc_comments_never_arm_waivers() {
        // Doc prose describing the syntax is neither a waiver nor stale;
        // the violation on the next line is still reported.
        let src = "\
/// Waive with `grblint: allow(relaxed-ordering)` above the site.
fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }
";
        let v = lint_source("exec", "x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::RelaxedOrdering);
    }

    #[test]
    fn a_waiver_without_a_reason_arms_nothing() {
        let bare = "\
// grblint: allow(relaxed-ordering)
fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }
";
        let v = lint_source("exec", "x.rs", bare);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == Rule::RelaxedOrdering));
        assert_eq!((v[0].line, v[1].line), (1, 2));
        assert!(v[0].snippet.starts_with("waiver gives no reason"));
        // Punctuation alone is no reason; a reason on a trailing comment is.
        let dash = bare.replace("ordering)", "ordering) —");
        assert_eq!(lint_source("exec", "x.rs", &dash).len(), 2);
        let trailing = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); } \
                        // grblint: allow(relaxed-ordering): advisory\n";
        assert_eq!(lint_source("exec", "x.rs", trailing).len(), 0);
    }

    #[test]
    fn used_body_pass_waivers_are_not_stale() {
        // A span waiver that fires must not re-surface as stale.
        let waived = "\
// grblint: allow(span-at-kernel-boundary) — measured by its caller.
pub fn inner<T>(ctx: &Context, a: &Csr<T>) -> Csr<T> {
    multiply(ctx, a)
}
";
        assert_eq!(
            lint_source("sparse", "crates/sparse/src/spmv.rs", waived).len(),
            0
        );
        // The same waiver above a function that *has* a span is stale.
        let stale = "\
// grblint: allow(span-at-kernel-boundary) — measured by its caller.
pub fn inner<T>(ctx: &Context, a: &Csr<T>) -> Csr<T> {
    let sp = kernel_span(1);
    multiply(ctx, a)
}
";
        let v = lint_source("sparse", "crates/sparse/src/spmv.rs", stale);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::StaleWaiver);
    }
}
