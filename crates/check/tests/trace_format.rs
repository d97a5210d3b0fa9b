//! End-to-end check that the Chrome traces `graphblas_obs::timeline`
//! actually exports satisfy the reader in `graphblas_check::trace`.
//!
//! The unit tests inside `trace` run the validator on hand-written JSON;
//! this test closes the loop against the real writer: record nested
//! phases (including a name that needs JSON escaping) on two threads,
//! export with `to_chrome_trace()`, and validate the result.

use graphblas_check::trace;

#[test]
fn exported_trace_is_balanced_and_escaped() {
    graphblas_obs::set_enabled(true);

    {
        let _outer = graphblas_obs::timeline::phase("fmt.outer");
        // Keep the timestamps strictly ordered so the exporter's
        // tie-breaking cannot flatten the nesting this test asserts on.
        std::thread::sleep(std::time::Duration::from_millis(1));
        let _inner = graphblas_obs::timeline::phase("fmt.\"inner\"\n\ttab\\");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let worker = std::thread::spawn(|| {
        graphblas_obs::timeline::register_thread();
        let _p = graphblas_obs::timeline::phase("fmt.worker");
    });
    worker.join().expect("worker panicked");

    let json = graphblas_obs::timeline::to_chrome_trace();
    graphblas_obs::set_enabled(false);

    let summary = trace::validate(&json)
        .unwrap_or_else(|e| panic!("exported trace failed validation: {e}\n{json}"));
    assert!(summary.regions >= 3, "expected >= 3 regions: {summary:?}");
    assert!(
        summary.threads.len() >= 2,
        "expected >= 2 threads: {summary:?}"
    );
    assert!(summary.max_depth >= 2, "expected nesting: {summary:?}");
    // The escaped name must round-trip through writer + reader intact.
    assert!(
        summary.names.iter().any(|n| n == "fmt.\"inner\"\n\ttab\\"),
        "escaped name mangled: {:?}",
        summary.names
    );
    // Every recording thread gets an M-metadata thread_name record and a
    // matching thread_sort_index record (deterministic Perfetto order).
    for tid in &summary.threads {
        assert!(
            summary.thread_names.iter().any(|(t, _)| t == tid),
            "tid {tid} has no thread_name metadata: {summary:?}"
        );
        assert!(
            summary.thread_sort_indices.iter().any(|(t, _)| t == tid),
            "tid {tid} has no thread_sort_index metadata: {summary:?}"
        );
    }
    // The main test thread sorts ahead of the anonymous helper thread.
    if let Some((main_tid, _)) = summary
        .thread_names
        .iter()
        .find(|(_, n)| n == "main" || n.starts_with("exported_trace"))
    {
        let main_idx = summary
            .thread_sort_indices
            .iter()
            .find(|(t, _)| t == main_tid)
            .map(|(_, s)| *s);
        assert!(main_idx.is_some());
    }
}
