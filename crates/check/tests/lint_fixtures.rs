//! Negative-test fixtures for `grblint`: seed a synthetic workspace with
//! one violation per rule and assert the lint pass catches each — the
//! acceptance criterion that grblint *fails* on bad input, not just that
//! it passes on a clean tree.

use std::fs;
use std::path::PathBuf;

use graphblas_check::lint::{lint_workspace, Rule};

/// Builds a throwaway workspace under the target tmpdir. Each (path,
/// source) pair is written relative to the root.
fn fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("grblint-fixture-{name}-{}", std::process::id()));
    if root.exists() {
        fs::remove_dir_all(&root).unwrap();
    }
    for (rel, src) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, src).unwrap();
    }
    root
}

#[test]
fn seeded_relaxed_ordering_violation_fails() {
    let forbidden = concat!("Ordering::", "Relaxed");
    let src = format!("pub fn bump(c: &AtomicU64) {{\n    c.fetch_add(1, {forbidden});\n}}\n");
    let root = fixture("relaxed", &[("crates/exec/src/bad.rs", &src)]);
    let v = lint_workspace(&root).unwrap();
    assert_eq!(v.len(), 1, "expected exactly the seeded violation: {v:?}");
    assert_eq!(v[0].rule, Rule::RelaxedOrdering);
    assert_eq!(v[0].line, 2);
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn seeded_relaxed_in_obs_is_sanctioned() {
    let forbidden = concat!("Ordering::", "Relaxed");
    let src = format!("pub fn bump(c: &AtomicU64) {{\n    c.fetch_add(1, {forbidden});\n}}\n");
    let root = fixture("relaxed-obs", &[("crates/obs/src/counters.rs", &src)]);
    let v = lint_workspace(&root).unwrap();
    assert!(v.is_empty(), "obs counters are the sanctioned use: {v:?}");
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn seeded_unwrap_violation_fails_in_core_but_not_exec() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let root = fixture(
        "unwrap",
        &[
            ("crates/core/src/bad.rs", src),
            ("crates/exec/src/fine.rs", src),
        ],
    );
    let v = lint_workspace(&root).unwrap();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::NoUnwrap);
    assert!(v[0].file.contains("core"), "{}", v[0].file);
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn seeded_fallible_api_violation_fails() {
    let src = "\
pub fn open(
    path: &str,
) -> Result<File, std::io::Error> {
    File::open(path)
}
pub fn good(n: u64) -> GrbResult<u64> {
    Ok(n)
}
";
    let root = fixture("errtype", &[("crates/core/src/bad.rs", src)]);
    let v = lint_workspace(&root).unwrap();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::GrbErrorType);
    assert_eq!(v[0].line, 1, "reported at the signature start");
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn seeded_undocumented_unsafe_violation_fails() {
    let kw = concat!("uns", "afe");
    let src = format!(
        "pub fn f(p: *const u8) -> u8 {{\n    {kw} {{ *p }}\n}}\n\
         pub fn g(p: *const u8) -> u8 {{\n    // SAFETY: caller guarantees p is valid.\n    {kw} {{ *p }}\n}}\n"
    );
    let root = fixture("unsafe", &[("crates/exec/src/bad.rs", &src)]);
    let v = lint_workspace(&root).unwrap();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::UndocumentedUnsafe);
    assert_eq!(v[0].line, 2);
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn waived_violation_passes_and_waiver_expires_after_statement() {
    let forbidden = concat!("Ordering::", "Relaxed");
    let src = format!(
        "pub fn f(c: &AtomicU64) {{\n\
         \x20   // grblint: allow(relaxed-ordering) — fixture-sanctioned.\n\
         \x20   c.fetch_add(1, {forbidden});\n\
         \x20   c.fetch_add(1, {forbidden});\n\
         }}\n"
    );
    let root = fixture("waiver", &[("crates/exec/src/waived.rs", &src)]);
    let v = lint_workspace(&root).unwrap();
    assert_eq!(v.len(), 1, "second use is past the waiver's scope: {v:?}");
    assert_eq!(v[0].line, 4);
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn seeded_waiver_without_a_reason_fails() {
    let forbidden = concat!("Ordering::", "Relaxed");
    let src = format!(
        "pub fn f(c: &AtomicU64) {{\n\
         \x20   // grblint: allow(relaxed-ordering)\n\
         \x20   c.fetch_add(1, {forbidden});\n\
         }}\n"
    );
    let root = fixture("bare-waiver", &[("crates/exec/src/bare.rs", &src)]);
    let v = lint_workspace(&root).unwrap();
    assert_eq!(
        v.len(),
        2,
        "the waiver and the site it fails to cover: {v:?}"
    );
    assert!(v.iter().all(|v| v.rule == Rule::RelaxedOrdering), "{v:?}");
    assert_eq!(v[0].line, 2);
    assert!(
        v[0].snippet.starts_with("waiver gives no reason"),
        "{}",
        v[0]
    );
    assert_eq!(v[1].line, 3);
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn seeded_waiver_with_a_reason_on_the_next_line_passes() {
    let forbidden = concat!("Ordering::", "Relaxed");
    let src = format!(
        "pub fn f(c: &AtomicU64) {{\n\
         \x20   // grblint: allow(relaxed-ordering)\n\
         \x20   // a monotonic statistic; nothing is published through it.\n\
         \x20   c.fetch_add(1, {forbidden});\n\
         }}\n"
    );
    let root = fixture("reasoned-waiver", &[("crates/exec/src/reasoned.rs", &src)]);
    let v = lint_workspace(&root).unwrap();
    assert!(v.is_empty(), "{v:?}");
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn test_dirs_and_test_modules_are_out_of_scope() {
    let src = "fn f(x: Option<u32>) { x.unwrap(); }\n";
    let root = fixture(
        "scope",
        &[
            ("crates/core/tests/itest.rs", src),
            ("crates/core/benches/bench.rs", src),
            (
                "crates/core/src/lib.rs",
                "pub fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t(x: Option<u32>) { x.unwrap(); }\n}\n",
            ),
        ],
    );
    let v = lint_workspace(&root).unwrap();
    assert!(v.is_empty(), "{v:?}");
    fs::remove_dir_all(&root).unwrap();
}
