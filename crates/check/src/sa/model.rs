//! The lightweight semantic model behind `check::sa`.
//!
//! Built on [`super::lexer`], this module turns the workspace source into
//! the small set of facts the analyses need:
//!
//! - **Declarations**: struct fields and statics whose type mentions
//!   `Mutex`/`StdMutex`/`RwLock` (locks), `Condvar`/`StdCondvar`
//!   (condition variables), or an `Atomic*` type. Identity is
//!   `crate/file-stem::Owner.field` (or `crate/file-stem::NAME` for
//!   statics), so `exec/pool::JobQueue.state` and
//!   `core/container::Container.state` stay distinct locks — while every
//!   matrix, vector and scalar shares that one `Container.state`
//!   identity (DESIGN.md §4 item 2 states the rule that keeps it
//!   acyclic).
//! - **Functions**: name, enclosing `impl` type, and body token range,
//!   giving the call graph its nodes.
//! - **Events** per function body: lock acquisitions with the set of
//!   locks already held (guards are tracked through `let` bindings,
//!   released by `drop(guard)` or end of enclosing block; bare
//!   acquisitions are temporaries released at end of statement),
//!   condvar waits with the non-guard locks held across them, atomic
//!   operations with their `Ordering` arguments, and call sites with the
//!   held-lock snapshot for interprocedural propagation.
//! - **Annotations**: `// grbsa: protocol(...)` and `// grbsa: allow(...)`
//!   comments, block-scoped (they cover from their line to the end of
//!   the enclosing block; doc comments never arm an annotation).
//!
//! Known, deliberate imprecision (this is a bug-finder, not a verifier —
//! see DESIGN.md): receivers are resolved by final field/static name
//! (same file first, then unique-across-workspace, else skipped); calls
//! resolve only when unambiguous (`self.f()` within the impl, or a
//! globally unique function name outside a denylist of ubiquitous
//! method names); helper functions that *return* guards (e.g.
//! `lock_completed()`) are summarized for the locks they take but do not
//! register as held in the caller; closure bodies are attributed to the
//! function that syntactically contains them.

use super::lexer::{lex, Tok, Token};
use std::collections::HashMap;
use std::path::Path;

/// Source files whose lock/condvar declarations and function bodies are
/// *primitive definitions* (the `exec::sync` wrappers and their `check`
/// mirrors). Their internal `StdMutex` fields are implementation details
/// of the primitives themselves, so they are excluded from lock-order
/// extraction — a wrapper `Mutex::lock` is treated as a leaf operation
/// at the call site, exactly like `std::sync::Mutex::lock`.
const PRIMITIVE_FILES: &[&str] = &["crates/exec/src/sync.rs", "crates/check/src/sync.rs"];

/// Method names too common to resolve by global uniqueness: resolving
/// `x.wait()` to *the one* `wait` in the workspace would routinely pick
/// an unrelated impl. Self-calls (`self.wait()`) still resolve within
/// their impl; everything here is only skipped for non-self receivers.
const METHOD_DENYLIST: &[&str] = &[
    "new", "default", "clone", "drop", "len", "is_empty", "push", "pop", "insert", "remove",
    "get", "set", "take", "wait", "lock", "read", "write", "drain", "clear", "iter", "next",
    "join", "send", "recv", "load", "store", "swap", "add", "sub", "done", "spawn", "run",
    "notify_one", "notify_all", "fmt", "eq", "cmp", "hash", "from", "into", "as_ref",
    // Combinators: `opt.map(..)` must not resolve to a workspace fn that
    // happens to be the unique `map` — receivers of these are almost
    // always std types.
    "map", "and_then", "or_else", "filter", "fold", "for_each", "any", "all", "find",
    "position", "count", "collect", "extend", "contains", "min", "max", "ok", "err",
];

/// Whether a method name is too ubiquitous for unique-name call
/// resolution (see [`METHOD_DENYLIST`]).
pub(crate) fn method_denylisted(name: &str) -> bool {
    METHOD_DENYLIST.contains(&name)
}

const ATOMIC_OPS: &[&str] = &[
    "load", "store", "swap", "compare_exchange", "compare_exchange_weak", "fetch_add",
    "fetch_sub", "fetch_and", "fetch_or", "fetch_xor", "fetch_max", "fetch_min", "fetch_update",
];

const KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "loop", "else", "move", "in", "as", "let", "mut",
    "ref", "break", "continue", "unsafe", "pub", "fn", "struct", "impl", "enum", "trait",
    "static", "const", "use", "mod", "where", "dyn", "box", "Some", "Ok", "Err", "None",
];

/// Kind of lock a declaration introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Mutex,
    RwLock,
}

/// A declared lock (struct field or static).
#[derive(Debug, Clone)]
pub struct LockDecl {
    pub id: String,
    pub kind: LockKind,
    pub file: String,
    pub line: usize,
}

/// A declared atomic (struct field or static).
#[derive(Debug, Clone)]
pub struct AtomicDecl {
    pub id: String,
    pub file: String,
    pub line: usize,
}

/// A function in the call graph.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Bare name (`lock`), used for unique-name resolution.
    pub name: String,
    /// `Type::name` when inside an `impl Type`, else the bare name.
    pub qual: String,
    /// Enclosing impl type, if any.
    pub impl_type: Option<String>,
    pub file: String,
    pub line: usize,
}

/// A lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acquire {
    pub lock: String,
    /// Lock ids already held when this acquisition executes.
    pub held: Vec<String>,
    pub line: usize,
}

/// A condvar wait inside a function body.
#[derive(Debug, Clone)]
pub struct WaitSite {
    pub condvar: String,
    /// Locks held across the wait *excluding* the guard handed to it.
    pub held_other: Vec<String>,
    pub line: usize,
}

/// A call site with the held-lock snapshot for summary propagation.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    pub is_self: bool,
    pub held: Vec<String>,
    pub line: usize,
}

/// An atomic operation site with its `Ordering` arguments.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// Resolved declaration id, when the receiver matched one.
    pub atomic: Option<String>,
    /// Receiver spelling as written (for diagnostics).
    pub recv: String,
    pub op: String,
    /// All `Ordering::X` names in the argument list (compare_exchange
    /// carries two; the failure ordering rides along with the success
    /// one for protocol classification).
    pub orderings: Vec<String>,
    pub file: String,
    pub krate: String,
    pub line: usize,
}

/// Per-function extracted events.
#[derive(Debug, Default)]
pub struct FnEvents {
    pub acquires: Vec<Acquire>,
    pub waits: Vec<WaitSite>,
    pub calls: Vec<CallSite>,
}

/// What a `// grbsa:` comment declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnKind {
    /// `grbsa: allow(rule, ...)` — waives findings of the named rules.
    Allow,
    /// `grbsa: protocol(name, ...)` — classifies Relaxed sites under the
    /// named protocol(s) from the protocol table.
    Protocol,
}

/// One parsed annotation, block-scoped.
#[derive(Debug, Clone)]
pub struct Annotation {
    pub kind: AnnKind,
    pub names: Vec<String>,
    pub file: String,
    pub line: usize,
    /// Last line the annotation covers (end of the enclosing block at
    /// the point the comment appears; end of file for top-level
    /// annotations).
    pub end_line: usize,
}

impl Annotation {
    /// Whether this annotation covers a site at `file:line`.
    pub fn covers(&self, file: &str, line: usize) -> bool {
        self.file == file && self.line <= line && line <= self.end_line
    }
}

/// Model-level statistics, surfaced by `grbsa --verbose` so the
/// analysis's coverage (and the size of its blind spots) is inspectable.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    pub files: usize,
    pub fns: usize,
    pub locks: usize,
    pub condvars: usize,
    pub atomics: usize,
    pub acquire_events: usize,
    pub atomic_sites: usize,
    pub calls_resolved: usize,
    pub calls_skipped: usize,
}

/// The assembled source model.
#[derive(Debug, Default)]
pub struct Model {
    pub locks: Vec<LockDecl>,
    pub condvars: Vec<LockDecl>,
    pub atomics: Vec<AtomicDecl>,
    pub fns: Vec<FnInfo>,
    /// Indexed parallel to `fns`.
    pub events: Vec<FnEvents>,
    pub atomic_sites: Vec<AtomicSite>,
    pub annotations: Vec<Annotation>,
    pub stats: Stats,
}

/// Declaration lookup tables: final-name -> declaration indices.
#[derive(Default)]
struct DeclIndex {
    locks: HashMap<String, Vec<usize>>,
    condvars: HashMap<String, Vec<usize>>,
    atomics: HashMap<String, Vec<usize>>,
}

/// Builds the model from `(rel_path, source)` pairs. Paths use `/`
/// separators relative to the workspace root; test code (everything from
/// a top-level `#[cfg(test)]` line to end of file, matching `grblint`'s
/// convention) is excluded before lexing.
pub fn build(files: &[(String, String)]) -> Model {
    let mut model = Model::default();
    let mut lexed: Vec<(String, String, bool, Vec<Token>)> = Vec::new();
    for (rel, source) in files {
        let krate = crate_of(rel);
        let truncated = strip_tests(source);
        let tokens = lex(truncated);
        let primitive = PRIMITIVE_FILES.contains(&rel.as_str());
        lexed.push((rel.clone(), krate, primitive, tokens));
    }
    model.stats.files = lexed.len();

    // Pass 1: declarations + function table + annotations, all files.
    let mut names = DeclIndex::default();
    let mut fn_bodies: Vec<(usize, usize, usize)> = Vec::new(); // (file idx, start, end)
    for (fi, (rel, _krate, primitive, tokens)) in lexed.iter().enumerate() {
        scan_items(
            fi,
            rel,
            *primitive,
            tokens,
            &mut model,
            &mut names,
            &mut fn_bodies,
        );
        scan_annotations(rel, tokens, &mut model.annotations);
    }
    model.stats.locks = model.locks.len();
    model.stats.condvars = model.condvars.len();
    model.stats.atomics = model.atomics.len();
    model.stats.fns = model.fns.len();

    // Pass 2: per-function events, now that every declaration is known.
    let mut events = Vec::new();
    let mut atomic_sites = Vec::new();
    for (fi, start, end) in &fn_bodies {
        let (rel, krate, primitive, tokens) = &lexed[*fi];
        let body: Vec<&Token> = tokens[*start..*end]
            .iter()
            .filter(|t| !t.is_comment())
            .collect();
        let (ev, sites) = scan_body(&body, rel, krate, *primitive, &names, &model);
        events.push(ev);
        atomic_sites.extend(sites);
    }
    model.events = events;
    model.atomic_sites = atomic_sites;
    model.stats.acquire_events = model.events.iter().map(|e| e.acquires.len()).sum();
    model.stats.atomic_sites = model.atomic_sites.len();
    model
}

/// Reads the workspace at `root` and builds the model from every
/// in-scope `.rs` file (same scope rules as `grblint`: `tests/`,
/// `benches/`, `examples/`, and `target/` directories are skipped).
pub fn build_root(root: &Path) -> std::io::Result<(Model, Vec<String>)> {
    let mut files = Vec::new();
    crate::lint::collect_sources(root, &mut files)?;
    let mut srcs = Vec::new();
    let mut rels = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&path)?;
        rels.push(rel.clone());
        srcs.push((rel, source));
    }
    Ok((build(&srcs), rels))
}

/// Crate name from a workspace-relative path (`crates/exec/src/pool.rs`
/// -> `exec`); files outside `crates/` report `workspace`.
pub fn crate_of(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.len() >= 2 && parts[0] == "crates" {
        parts[1].to_string()
    } else {
        "workspace".to_string()
    }
}

/// Truncates `source` at the first top-level `#[cfg(test)]` line —
/// the same test-exclusion convention `grblint` uses.
fn strip_tests(source: &str) -> &str {
    let mut offset = 0;
    for line in source.lines() {
        if line.trim() == "#[cfg(test)]" {
            return &source[..offset];
        }
        offset += line.len() + 1;
    }
    source
}

fn file_stem(rel: &str) -> String {
    let base = rel.rsplit('/').next().unwrap_or(rel);
    base.strip_suffix(".rs").unwrap_or(base).to_string()
}

/// Classification of a declared type by the identifiers it mentions.
fn classify_type(idents: &[String]) -> Option<DeclKind> {
    for id in idents {
        if id == "Mutex" || id == "StdMutex" {
            return Some(DeclKind::Lock(LockKind::Mutex));
        }
        if id == "RwLock" || id == "StdRwLock" {
            return Some(DeclKind::Lock(LockKind::RwLock));
        }
        if id == "Condvar" || id == "StdCondvar" {
            return Some(DeclKind::Condvar);
        }
        if id.starts_with("Atomic") && id.len() > "Atomic".len() {
            return Some(DeclKind::Atomic);
        }
    }
    None
}

enum DeclKind {
    Lock(LockKind),
    Condvar,
    Atomic,
}

/// Scope stack entry for the item scanner.
enum ScopeKind {
    Impl(String),
    Fn(usize),
    Other,
}

#[allow(clippy::too_many_arguments)]
fn scan_items(
    _file_idx: usize,
    rel: &str,
    primitive: bool,
    tokens: &[Token],
    model: &mut Model,
    names: &mut DeclIndex,
    fn_bodies: &mut Vec<(usize, usize, usize)>,
) {
    let stem = file_stem(rel);
    let toks: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .collect();
    let mut scopes: Vec<ScopeKind> = Vec::new();
    let mut pending_fn: Option<(String, usize)> = None; // (name, line)
    let mut pending_impl: Option<Vec<(usize, String)>> = None; // idents after `impl`
    let mut impl_saw_for = false;
    // Angle-bracket depth inside an `impl<...>` header: identifiers inside
    // the generics list are parameters and bounds, not the self type.
    let mut impl_angle = 0isize;
    let mut i = 0;
    while i < toks.len() {
        let (raw_idx, t) = toks[i];
        match &t.tok {
            Tok::Ident(w) if w == "struct" && pending_impl.is_none() => {
                // Parse the struct inline and jump past its body so field
                // declarations never masquerade as expressions.
                let name = toks
                    .get(i + 1)
                    .and_then(|(_, t)| t.ident())
                    .unwrap_or("")
                    .to_string();
                let mut j = i + 2;
                // Find `{` (field struct), `;` (unit), or `(` (tuple).
                while j < toks.len() {
                    let tt = toks[j].1;
                    if tt.is_punct('{') {
                        let end = match_brace(&toks, j);
                        if !primitive && !name.is_empty() {
                            parse_struct_fields(
                                &toks[j + 1..end],
                                &stem,
                                &name,
                                rel,
                                model,
                                names,
                            );
                        }
                        // Land on `}`; the loop's advance steps past it.
                        j = end;
                        break;
                    }
                    if tt.is_punct(';') || tt.is_punct('(') {
                        break;
                    }
                    j += 1;
                }
                if j >= toks.len() {
                    break;
                }
                i = j;
            }
            Tok::Ident(w) if w == "impl" => {
                pending_impl = Some(Vec::new());
                impl_saw_for = false;
                impl_angle = 0;
            }
            Tok::Ident(w) if w == "for" && pending_impl.is_some() => {
                impl_saw_for = true;
                if let Some(p) = pending_impl.as_mut() {
                    p.clear();
                }
            }
            Tok::Ident(w) if w == "fn" => {
                let name = toks
                    .get(i + 1)
                    .and_then(|(_, t)| t.ident())
                    .unwrap_or("")
                    .to_string();
                if !name.is_empty() {
                    pending_fn = Some((name, t.line));
                }
            }
            Tok::Ident(w) if w == "static" => {
                // `static [mut] NAME: Type = …` — classify the type.
                let mut j = i + 1;
                if toks.get(j).and_then(|(_, t)| t.ident()) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = toks.get(j).and_then(|(_, t)| t.ident()) {
                    let name = name.to_string();
                    let line = t.line;
                    let mut ty = Vec::new();
                    let mut k = j + 1;
                    while k < toks.len() {
                        let tt = toks[k].1;
                        if tt.is_punct('=') || tt.is_punct(';') {
                            break;
                        }
                        if let Some(id) = tt.ident() {
                            ty.push(id.to_string());
                        }
                        k += 1;
                    }
                    if !primitive {
                        record_decl(
                            classify_type(&ty),
                            format!("{}/{}::{}", crate_of(rel), stem, name),
                            name,
                            rel,
                            line,
                            model,
                            names,
                        );
                    }
                    i = k;
                }
            }
            Tok::Punct('<') if pending_impl.is_some() => impl_angle += 1,
            Tok::Punct('>') if pending_impl.is_some() => {
                // `->` in a bound like `F: FnOnce() -> R` is not a closer.
                let arrow = i > 0 && toks[i - 1].1.is_punct('-');
                if !arrow {
                    impl_angle -= 1;
                }
            }
            Tok::Ident(w) if pending_impl.is_some() && impl_angle == 0 && !is_kw(w) => {
                if let Some(p) = pending_impl.as_mut() {
                    p.push((i, w.clone()));
                }
            }
            Tok::Punct('{') => {
                let kind = if let Some(p) = pending_impl.take() {
                    // Self type: last ident of the (possibly path) run
                    // after `for`, or after the generics otherwise. The
                    // collected idents exclude generic-parameter names
                    // only loosely; taking the last path segment before
                    // `{` — the type constructor — is robust for every
                    // impl in this workspace.
                    let ty = impl_self_type(&toks, &p, impl_saw_for);
                    ScopeKind::Impl(ty)
                } else if let Some((name, line)) = pending_fn.take() {
                    let impl_type = scopes.iter().rev().find_map(|s| match s {
                        ScopeKind::Impl(t) => Some(t.clone()),
                        _ => None,
                    });
                    let qual = match &impl_type {
                        Some(t) => format!("{}::{}", t, name),
                        None => name.clone(),
                    };
                    let fn_idx = model.fns.len();
                    model.fns.push(FnInfo {
                        name,
                        qual,
                        impl_type,
                        file: rel.to_string(),
                        line,
                    });
                    // Body range recorded when the scope pops.
                    fn_bodies.push((_file_idx, raw_idx + 1, raw_idx + 1));
                    ScopeKind::Fn(fn_idx)
                } else {
                    ScopeKind::Other
                };
                scopes.push(kind);
            }
            Tok::Punct('}') => {
                if let Some(ScopeKind::Fn(fn_idx)) = scopes.last() {
                    // Close the innermost open fn body whose index matches.
                    if let Some(entry) = fn_bodies.get_mut(*fn_idx) {
                        entry.2 = raw_idx;
                    }
                }
                scopes.pop();
            }
            Tok::Punct(';') => {
                pending_fn = None; // bodyless trait fn
                pending_impl = None;
            }
            _ => {}
        }
        i += 1;
    }
}

fn is_kw(w: &str) -> bool {
    KEYWORDS.contains(&w) || w == "where" || w == "unsafe" || w == "const" || w == "dyn"
}

/// Extracts the self-type name for an `impl` header from the idents
/// collected between `impl` (or the last `for`) and the opening brace.
fn impl_self_type(
    _toks: &[(usize, &Token)],
    collected: &[(usize, String)],
    _saw_for: bool,
) -> String {
    // After a `for`, the collector was cleared, so `collected` holds the
    // self-type path (plus its generic arguments' idents). The type
    // constructor is the first ident not used as a generic *parameter*;
    // for every impl in this workspace the first collected ident after
    // filtering single-uppercase-letter parameter names is the type.
    for (_, id) in collected {
        let bytes = id.as_bytes();
        let single_upper = bytes.len() == 1 && bytes[0].is_ascii_uppercase();
        if !single_upper && !is_kw(id) {
            return id.clone();
        }
    }
    collected
        .first()
        .map(|(_, s)| s.clone())
        .unwrap_or_else(|| "?".to_string())
}

/// Finds the index (into `toks`) of the `}` matching the `{` at `open`.
fn match_brace(toks: &[(usize, &Token)], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].1.is_punct('{') {
            depth += 1;
        } else if toks[i].1.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len() - 1
}

/// Parses `name: Type` fields from a struct body token slice and records
/// lock/condvar/atomic declarations.
fn parse_struct_fields(
    body: &[(usize, &Token)],
    stem: &str,
    struct_name: &str,
    rel: &str,
    model: &mut Model,
    names: &mut DeclIndex,
) {
    let mut i = 0;
    let mut depth = 0isize; // angle/paren/bracket/brace nesting inside the body
    let mut field: Option<(String, usize)> = None;
    let mut ty: Vec<String> = Vec::new();
    while i < body.len() {
        let t = body[i].1;
        match &t.tok {
            Tok::Punct(c @ ('<' | '(' | '[' | '{')) => {
                // `->`'s `>` is handled below; `<` from comparisons does
                // not occur in type position.
                let _ = c;
                depth += 1;
            }
            Tok::Punct('>') => {
                depth -= 1;
            }
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
            Tok::Punct(',') if depth == 0 => {
                flush_field(&mut field, &mut ty, stem, struct_name, rel, model, names);
            }
            Tok::Punct(':') if depth == 0 && field.is_none() && i > 0 => {
                // The ident just before the colon is the field name.
                if let Some(name) = body[i - 1].1.ident() {
                    field = Some((name.to_string(), body[i - 1].1.line));
                }
            }
            Tok::Ident(w) if field.is_some() => ty.push(w.clone()),
            _ => {}
        }
        i += 1;
    }
    flush_field(&mut field, &mut ty, stem, struct_name, rel, model, names);
}

fn flush_field(
    field: &mut Option<(String, usize)>,
    ty: &mut Vec<String>,
    stem: &str,
    struct_name: &str,
    rel: &str,
    model: &mut Model,
    names: &mut DeclIndex,
) {
    if let Some((name, line)) = field.take() {
        let kind = classify_type(ty);
        record_decl(
            kind,
            format!("{}/{}::{}.{}", crate_of(rel), stem, struct_name, name),
            name,
            rel,
            line,
            model,
            names,
        );
    }
    ty.clear();
}

fn record_decl(
    kind: Option<DeclKind>,
    id: String,
    name: String,
    rel: &str,
    line: usize,
    model: &mut Model,
    names: &mut DeclIndex,
) {
    match kind {
        Some(DeclKind::Lock(k)) => {
            names.locks.entry(name).or_default().push(model.locks.len());
            model.locks.push(LockDecl {
                id,
                kind: k,
                file: rel.to_string(),
                line,
            });
        }
        Some(DeclKind::Condvar) => {
            names
                .condvars
                .entry(name)
                .or_default()
                .push(model.condvars.len());
            model.condvars.push(LockDecl {
                id,
                kind: LockKind::Mutex,
                file: rel.to_string(),
                line,
            });
        }
        Some(DeclKind::Atomic) => {
            names
                .atomics
                .entry(name)
                .or_default()
                .push(model.atomics.len());
            model.atomics.push(AtomicDecl {
                id,
                file: rel.to_string(),
                line,
            });
        }
        None => {}
    }
}

/// Resolves a receiver name to a declaration id: same-file declarations
/// win; otherwise a workspace-unique name resolves; otherwise `None`.
fn resolve<'a>(
    name: &str,
    file: &str,
    by_name: &HashMap<String, Vec<usize>>,
    ids: impl Fn(usize) -> &'a str,
    files: impl Fn(usize) -> &'a str,
) -> Option<String> {
    let cands = by_name.get(name)?;
    for &c in cands {
        if files(c) == file {
            return Some(ids(c).to_string());
        }
    }
    if cands.len() == 1 {
        return Some(ids(cands[0]).to_string());
    }
    None
}

struct Guard {
    name: String,
    lock: String,
    depth: usize,
}

type BodyScan = (FnEvents, Vec<AtomicSite>);

/// Scans one comment-free function body token slice for events.
fn scan_body(
    body: &[&Token],
    rel: &str,
    krate: &str,
    primitive: bool,
    names: &DeclIndex,
    model: &Model,
) -> BodyScan {
    let mut ev = FnEvents::default();
    let mut sites = Vec::new();
    let resolve_lock = |n: &str| {
        resolve(
            n,
            rel,
            &names.locks,
            |i| model.locks[i].id.as_str(),
            |i| model.locks[i].file.as_str(),
        )
    };
    let resolve_cv = |n: &str| {
        resolve(
            n,
            rel,
            &names.condvars,
            |i| model.condvars[i].id.as_str(),
            |i| model.condvars[i].file.as_str(),
        )
    };
    let resolve_atomic = |n: &str| {
        resolve(
            n,
            rel,
            &names.atomics,
            |i| model.atomics[i].id.as_str(),
            |i| model.atomics[i].file.as_str(),
        )
    };

    let mut guards: Vec<Guard> = Vec::new();
    let mut temps: Vec<String> = Vec::new();
    let mut pending_let: Option<String> = None;
    let mut depth = 0usize;
    let mut paren = 0usize;
    let held = |guards: &[Guard], temps: &[String]| -> Vec<String> {
        let mut h: Vec<String> = guards.iter().map(|g| g.lock.clone()).collect();
        h.extend(temps.iter().cloned());
        h.dedup();
        h
    };

    let mut i = 0;
    while i < body.len() {
        let t = body[i];
        match &t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                temps.clear();
                pending_let = None;
            }
            Tok::Punct('(') => paren += 1,
            Tok::Punct(')') => paren = paren.saturating_sub(1),
            Tok::Punct(';') if paren == 0 => {
                temps.clear();
                pending_let = None;
            }
            Tok::Ident(w) if w == "let" => {
                // `let [mut] name = …` — remember the binding name so a
                // terminal lock call binds a guard to it.
                let mut j = i + 1;
                if body.get(j).and_then(|t| t.ident()) == Some("mut") {
                    j += 1;
                }
                if let (Some(name), true) = (
                    body.get(j).and_then(|t| t.ident()),
                    body.get(j + 1).map(|t| t.is_punct('=')).unwrap_or(false),
                ) {
                    pending_let = Some(name.to_string());
                }
            }
            Tok::Ident(w)
                if w == "drop" && body.get(i + 1).map(|t| t.is_punct('(')).unwrap_or(false) =>
            {
                // `drop(guard)` releases the named guard.
                if let Some(name) = body.get(i + 2).and_then(|t| t.ident()) {
                    if body.get(i + 3).map(|t| t.is_punct(')')).unwrap_or(false) {
                        guards.retain(|g| g.name != name);
                    }
                }
            }
            Tok::Punct('.') => {
                let Some(m) = body.get(i + 1).and_then(|t| t.ident()) else {
                    i += 1;
                    continue;
                };
                if !body.get(i + 2).map(|t| t.is_punct('(')).unwrap_or(false) {
                    i += 1;
                    continue;
                }
                let recv = receiver_name(body, i);
                let line = body[i + 1].line;
                let close = match_paren(body, i + 2);

                // Lock acquisition?
                let is_lock_call = matches!(m, "lock" | "read" | "write");
                if is_lock_call && !primitive {
                    if let Some(name) = &recv {
                        if let Some(lock) = resolve_lock(name) {
                            let kind = model
                                .locks
                                .iter()
                                .find(|l| l.id == lock)
                                .map(|l| l.kind)
                                .unwrap_or(LockKind::Mutex);
                            let matches_kind = match kind {
                                LockKind::Mutex => m == "lock",
                                LockKind::RwLock => m == "read" || m == "write",
                            };
                            if matches_kind {
                                ev.acquires.push(Acquire {
                                    lock: lock.clone(),
                                    held: held(&guards, &temps),
                                    line,
                                });
                                // Walk past `.unwrap()` / `.expect(..)` /
                                // `.unwrap_or_else(..)` adapters — a
                                // std-style `x.lock().unwrap();` still
                                // binds the guard.
                                let mut after = close + 1;
                                while body.get(after).map(|t| t.is_punct('.')).unwrap_or(false) {
                                    let adapter = body.get(after + 1).and_then(|t| t.ident());
                                    let opens = body
                                        .get(after + 2)
                                        .map(|t| t.is_punct('('))
                                        .unwrap_or(false);
                                    match (adapter, opens) {
                                        (Some("unwrap" | "expect" | "unwrap_or_else"), true) => {
                                            after = match_paren(body, after + 2) + 1;
                                        }
                                        _ => break,
                                    }
                                }
                                let terminal = body
                                    .get(after)
                                    .map(|t| t.is_punct(';'))
                                    .unwrap_or(false);
                                if terminal && pending_let.is_some() {
                                    let g = pending_let.take().unwrap_or_default();
                                    guards.push(Guard {
                                        name: g,
                                        lock,
                                        depth,
                                    });
                                } else {
                                    temps.push(lock);
                                }
                                i += 2;
                                continue;
                            }
                        }
                    }
                }

                // Condvar wait?
                if matches!(m, "wait" | "wait_while" | "wait_timeout") && !primitive {
                    if let Some(name) = &recv {
                        if let Some(cv) = resolve_cv(name) {
                            let guard_arg = body.get(i + 3).and_then(|t| t.ident());
                            let guard_lock = guard_arg
                                .and_then(|a| guards.iter().find(|g| g.name == a))
                                .map(|g| g.lock.clone());
                            let mut other = held(&guards, &temps);
                            if let Some(gl) = guard_lock {
                                other.retain(|l| *l != gl);
                            }
                            ev.waits.push(WaitSite {
                                condvar: cv,
                                held_other: other,
                                line,
                            });
                            i += 2;
                            continue;
                        }
                    }
                }

                // Atomic operation with an explicit Ordering argument?
                if ATOMIC_OPS.contains(&m) {
                    let orderings = orderings_in(&body[i + 2..=close.min(body.len() - 1)]);
                    if !orderings.is_empty() {
                        let recv_name = recv.clone().unwrap_or_else(|| "?".to_string());
                        sites.push(AtomicSite {
                            atomic: recv.as_deref().and_then(resolve_atomic),
                            recv: recv_name,
                            op: m.to_string(),
                            orderings,
                            file: rel.to_string(),
                            krate: krate.to_string(),
                            line,
                        });
                        i += 2;
                        continue;
                    }
                }

                // Plain method call: record for summary propagation.
                if !KEYWORDS.contains(&m) {
                    let is_self = recv_chain_is_self(body, i);
                    ev.calls.push(CallSite {
                        name: m.to_string(),
                        is_self,
                        held: held(&guards, &temps),
                        line,
                    });
                }
                i += 2;
                continue;
            }
            Tok::Ident(name) => {
                // Free-function call: `name(` not preceded by `.` and not
                // a macro (`name!(`).
                let is_call = body.get(i + 1).map(|t| t.is_punct('(')).unwrap_or(false);
                let prev_dot = i > 0 && body[i - 1].is_punct('.');
                let is_macro = body.get(i + 1).map(|t| t.is_punct('!')).unwrap_or(false);
                if is_call && !prev_dot && !is_macro && !KEYWORDS.contains(&name.as_str()) {
                    ev.calls.push(CallSite {
                        name: name.clone(),
                        is_self: false,
                        held: held(&guards, &temps),
                        line: t.line,
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
    (ev, sites)
}

/// The receiver's final identifier for a method call: the token just
/// before the `.` at `dot`, skipping one balanced `[...]` or `(...)`
/// group (so `RING[i].fetch_add` resolves `RING` and `pending().drains`
/// resolves `drains` via the direct-ident case at the outer dot).
fn receiver_name(body: &[&Token], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let mut i = dot - 1;
    if body[i].is_punct(']') || body[i].is_punct(')') {
        let open = if body[i].is_punct(']') { '[' } else { '(' };
        let close = if open == '[' { ']' } else { ')' };
        let mut depth = 0usize;
        loop {
            if body[i].is_punct(close) {
                depth += 1;
            } else if body[i].is_punct(open) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if i == 0 {
                return None;
            }
            i -= 1;
        }
        if i == 0 {
            return None;
        }
        i -= 1;
        // `pending().x` never lands here (the ident is adjacent to the
        // dot); an index expression lands on the indexed name. A call
        // result like `f().load(...)` yields the fn name — not a
        // declared atomic/lock, so resolution correctly fails.
    }
    body[i].ident().map(|s| s.to_string())
}

/// Whether the dotted receiver chain ending at the `.` at `dot` starts
/// at `self` (walks back over `ident . ident . …`).
fn recv_chain_is_self(body: &[&Token], dot: usize) -> bool {
    let mut i = dot;
    loop {
        if i == 0 {
            return false;
        }
        let prev = body[i - 1];
        if let Some(id) = prev.ident() {
            if id == "self" {
                return true;
            }
            if i >= 2 && body[i - 2].is_punct('.') {
                i -= 2;
                continue;
            }
            return false;
        }
        return false;
    }
}

/// Finds the index of the `)` matching the `(` at `open`.
fn match_paren(body: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < body.len() {
        if body[i].is_punct('(') {
            depth += 1;
        } else if body[i].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    body.len() - 1
}

/// Collects `Ordering::Name` occurrences in an argument token slice.
fn orderings_in(args: &[&Token]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 3 < args.len() {
        if args[i].ident() == Some("Ordering")
            && args[i + 1].is_punct(':')
            && args[i + 2].is_punct(':')
        {
            if let Some(name) = args[i + 3].ident() {
                out.push(name.to_string());
                i += 4;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Scans a file's token stream for `// grbsa:` annotations, computing
/// each one's block scope from brace depth at the comment.
fn scan_annotations(rel: &str, tokens: &[Token], out: &mut Vec<Annotation>) {
    // Pending annotations: (index into out, depth at comment).
    let mut open: Vec<(usize, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut last_line = 1;
    for t in tokens {
        last_line = t.line;
        match &t.tok {
            Tok::Comment { text, doc } if !doc => {
                for (kind, names, line) in parse_grbsa_comment(text, t.line) {
                    open.push((out.len(), depth));
                    out.push(Annotation {
                        kind,
                        names,
                        file: rel.to_string(),
                        line,
                        end_line: usize::MAX,
                    });
                }
            }
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                // Close every annotation whose block just ended.
                open.retain(|(idx, d)| {
                    if depth < *d {
                        out[*idx].end_line = t.line;
                        false
                    } else {
                        true
                    }
                });
            }
            _ => {}
        }
    }
    for (idx, _) in open {
        out[idx].end_line = last_line;
    }
}

/// Parses `grbsa: allow(a, b)` / `grbsa: protocol(x)` clauses out of one
/// comment's text. Multiple clauses per comment are allowed.
fn parse_grbsa_comment(text: &str, line: usize) -> Vec<(AnnKind, Vec<String>, usize)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("grbsa:") {
        rest = &rest[pos + "grbsa:".len()..];
        let trimmed = rest.trim_start();
        let kind = if trimmed.starts_with("allow(") {
            Some((AnnKind::Allow, "allow("))
        } else if trimmed.starts_with("protocol(") {
            Some((AnnKind::Protocol, "protocol("))
        } else {
            None
        };
        if let Some((kind, prefix)) = kind {
            let body = &trimmed[prefix.len()..];
            if let Some(close) = body.find(')') {
                let names: Vec<String> = body[..close]
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if !names.is_empty() {
                    out.push((kind, names, line));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(files: &[(&str, &str)]) -> Model {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(r, s)| (r.to_string(), s.to_string()))
            .collect();
        build(&owned)
    }

    const LOCK_SRC: &str = r#"
use std::sync::{Mutex, Condvar};
struct Q { state: Mutex<usize>, cv: Condvar, n: usize }
impl Q {
    fn push(&self) {
        let mut st = self.state.lock().unwrap();
        *st += 1;
        helper();
        drop(st);
        self.cv.notify_one();
    }
    fn pop(&self) {
        let mut st = self.state.lock().unwrap();
        while *st == 0 {
            st = self.cv.wait(st).unwrap();
        }
    }
}
fn helper() {}
"#;

    #[test]
    fn declarations_and_identities() {
        let m = model_of(&[("crates/exec/src/q.rs", LOCK_SRC)]);
        assert_eq!(m.locks.len(), 1);
        assert_eq!(m.locks[0].id, "exec/q::Q.state");
        assert_eq!(m.condvars.len(), 1);
        assert_eq!(m.condvars[0].id, "exec/q::Q.cv");
        assert_eq!(m.fns.len(), 3);
        assert_eq!(m.fns[0].qual, "Q::push");
        assert_eq!(m.fns[2].qual, "helper");
    }

    #[test]
    fn guard_tracking_and_drop_release() {
        let m = model_of(&[("crates/exec/src/q.rs", LOCK_SRC)]);
        let push = &m.events[0];
        assert_eq!(push.acquires.len(), 1);
        assert!(push.acquires[0].held.is_empty());
        // helper() is called while the guard is held…
        let call = push.calls.iter().find(|c| c.name == "helper").unwrap();
        assert_eq!(call.held, vec!["exec/q::Q.state".to_string()]);
        // …but notify_one comes after drop(st).
        let notify = push.calls.iter().find(|c| c.name == "notify_one").unwrap();
        assert!(notify.held.is_empty());
    }

    #[test]
    fn condvar_wait_excludes_its_guard() {
        let m = model_of(&[("crates/exec/src/q.rs", LOCK_SRC)]);
        let pop = &m.events[1];
        assert_eq!(pop.waits.len(), 1);
        assert!(pop.waits[0].held_other.is_empty());
    }

    #[test]
    fn atomic_sites_resolve_and_carry_orderings() {
        let src = r#"
use std::sync::atomic::{AtomicUsize, Ordering};
struct C { hits: AtomicUsize }
static SEQ: AtomicUsize = AtomicUsize::new(0);
impl C {
    fn bump(&self) -> usize {
        self.hits.fetch_add(1, Ordering::Relaxed);
        SEQ.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed).ok();
        SEQ.load(Ordering::Acquire)
    }
}
"#;
        let m = model_of(&[("crates/obs/src/c.rs", src)]);
        assert_eq!(m.atomics.len(), 2);
        assert_eq!(m.atomic_sites.len(), 3);
        let fa = &m.atomic_sites[0];
        assert_eq!(fa.atomic.as_deref(), Some("obs/c::C.hits"));
        assert_eq!(fa.orderings, vec!["Relaxed"]);
        let cx = &m.atomic_sites[1];
        assert_eq!(cx.atomic.as_deref(), Some("obs/c::SEQ"));
        assert_eq!(cx.orderings, vec!["AcqRel", "Relaxed"]);
    }

    #[test]
    fn cross_file_unique_name_resolution() {
        let a = "use std::sync::Mutex;\npub struct R { registry: Mutex<usize> }\n";
        let b = r#"
fn touch() {
    REG.registry.lock();
}
static REG: usize = 0;
"#;
        // `registry` is unique across the workspace, so the use in b.rs
        // resolves to the declaration in a.rs.
        let m = model_of(&[("crates/obs/src/a.rs", a), ("crates/exec/src/b.rs", b)]);
        assert_eq!(m.events[0].acquires.len(), 1);
        assert_eq!(m.events[0].acquires[0].lock, "obs/a::R.registry");
    }

    #[test]
    fn test_code_is_excluded() {
        let src = "struct S;\n#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    static M: Mutex<u8> = Mutex::new(0);\n}\n";
        let m = model_of(&[("crates/exec/src/s.rs", src)]);
        assert!(m.locks.is_empty());
    }

    #[test]
    fn primitive_files_contribute_no_locks() {
        let m = model_of(&[(
            "crates/exec/src/sync.rs",
            "use std::sync::Mutex as StdMutex;\npub struct Mutex<T> { inner: StdMutex<T> }\n",
        )]);
        assert!(m.locks.is_empty());
    }

    #[test]
    fn annotations_are_block_scoped() {
        let src = r#"
fn f() {
    {
        // grbsa: protocol(counter)
        a();
        b();
    }
    c();
}
"#;
        let m = model_of(&[("crates/exec/src/f.rs", src)]);
        assert_eq!(m.annotations.len(), 1);
        let a = &m.annotations[0];
        assert_eq!(a.kind, AnnKind::Protocol);
        assert_eq!(a.names, vec!["counter"]);
        assert!(a.covers("crates/exec/src/f.rs", 5));
        assert!(a.covers("crates/exec/src/f.rs", 6));
        assert!(!a.covers("crates/exec/src/f.rs", 8), "c() is outside the block");
    }

    #[test]
    fn doc_comments_never_arm_annotations() {
        let src = "/// grbsa: allow(lock-order-cycle)\nfn f() {}\n";
        let m = model_of(&[("crates/exec/src/f.rs", src)]);
        assert!(m.annotations.is_empty());
    }

    #[test]
    fn temp_guard_held_to_end_of_statement() {
        let src = r#"
use std::sync::Mutex;
struct S { a: Mutex<u8>, b: Mutex<u8> }
impl S {
    fn f(&self) {
        g(*self.a.lock().unwrap(), *self.b.lock().unwrap());
        h();
    }
}
fn g(_x: u8, _y: u8) {}
fn h() {}
"#;
        let m = model_of(&[("crates/exec/src/s.rs", src)]);
        let f = &m.events[0];
        assert_eq!(f.acquires.len(), 2);
        // Second acquisition sees the first temp held (same statement)…
        assert_eq!(f.acquires[1].held, vec!["exec/s::S.a".to_string()]);
        // …and h() on the next statement holds nothing.
        let h = f.calls.iter().find(|c| c.name == "h").unwrap();
        assert!(h.held.is_empty());
    }
}
