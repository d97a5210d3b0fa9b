//! One measurement pass in one process: generate → set-up ×N → timed reps →
//! process accounting → verify. The gated pass and every phase of the
//! layers pass run this same code with a different [`Plan`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use graphblas::{global_context, Context, ContextOptions};

use crate::procfs;
use crate::spans::Tracer;
use crate::stats::{self, Summary};
use crate::workloads::{Checksum, Workload};

/// How long and how often to measure.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Timed reps continue until this many seconds have passed …
    pub seconds: f64,
    /// … and at least this many reps have run.
    pub min_reps: usize,
    /// Set-up repetitions on fresh containers (the last one is kept).
    pub setups: usize,
    /// Test hook: perturb the expected checksum so every rep mismatches.
    pub force_wrong_answer: bool,
}

/// The context a workload runs in: nested under the global context, in the
/// workload's mode, with a one-thread budget or the default (pool-sized) one.
pub fn context_for<W: Workload>(one_thread: bool) -> Context {
    Context::new(
        &global_context(),
        W::MODE,
        ContextOptions {
            nthreads: one_thread.then_some(1),
            chunk_size: None,
            name: Some(format!("bench-{}", W::NAME)),
        },
    )
}

/// Attempted and failed operations. One rep is one operation; an `Err`, a
/// caught panic or a checksum mismatch fails it.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The process exit code: non-zero as soon as one operation failed.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct())
    }
}

/// Judges one rep's checksum against the verified one.
pub fn judge(got: Result<Checksum, String>, expected: &Checksum) -> Result<(), String> {
    let got = got?;
    if got.matches(expected) {
        Ok(())
    } else {
        Err(format!(
            "checksum mismatch: got {got:?}, verified {expected:?}"
        ))
    }
}

/// Inputs, warm containers and the first warm-up rep's checksum: a pass up
/// to the point where timing starts.
pub struct Prepared<W: Workload> {
    w: W,
    state: W::State,
    /// Checksum of the warm-up rep; [`measure`] verifies it at the end.
    expected: Checksum,
    gen_s: f64,
    setup_s: Vec<f64>,
    tally: Tally,
    peak_rss_bytes: u64,
}

/// Everything one pass measured.
pub struct Pass {
    pub gen_s: f64,
    pub edges: u64,
    pub verify_s: f64,
    /// Build + materialise + one warm-up rep, per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed rep, in order.
    pub rep_s: Vec<f64>,
    /// Wall time of the timed phase, checksums included.
    pub timed_s: f64,
    /// Timed reps and the warm-up reps of the repeated set-ups.
    pub tally: Tally,
    pub work_units: f64,
    pub iterations: f64,
    pub cpu_s_per_rep: f64,
    pub minflt_per_rep: f64,
    /// `VmHWM` after the first set-up and its warm-up rep: what building
    /// the containers and running the script once needs.
    pub peak_rss_bytes: u64,
    /// How much further `VmHWM` rose over the repeated set-ups and the
    /// timed reps (fragmentation or a leak; allocator-state dependent).
    pub rss_growth_bytes: u64,
    pub workers: usize,
    /// Workload-specific extra (`update`: serialised stream length).
    pub serialized_bytes: usize,
}

impl Pass {
    pub fn summary(&self) -> Summary {
        stats::summarize(&self.rep_s)
    }
}

/// Runs one rep under a `rep` span, timing only the engine script; the
/// checksum is computed after the clock stops.
fn attempt<W: Workload>(w: &W, st: &W::State, tr: &mut Tracer) -> (f64, Result<W::Output, String>) {
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| tr.scope("rep", |tr| w.rep(st, tr))));
    let secs = t.elapsed().as_secs_f64();
    let out = match out {
        Ok(r) => r.map_err(|e| format!("rep returned an error: {e}")),
        Err(_) => Err("rep panicked".to_string()),
    };
    (secs, out)
}

fn checksum_of<W: Workload>(w: &W, out: Result<W::Output, String>) -> Result<Checksum, String> {
    w.checksum(&out?)
        .map_err(|e| format!("checksum failed: {e}"))
}

/// What one set-up repetition yields.
struct SetUp<W: Workload> {
    state: W::State,
    secs: f64,
    warm_up: Result<W::Output, String>,
}

/// One set-up repetition: containers from tuples, materialised, plus one
/// untimed warm-up rep so the transpose cache, workspaces and lazy state fill.
fn set_up<W: Workload>(w: &W, ctx: &Context, tr: &mut Tracer) -> Result<SetUp<W>, String> {
    let t = Instant::now();
    let state = tr
        .scope("setup", |tr| w.setup(ctx, tr))
        .map_err(|e| format!("set-up failed: {e}"))?;
    let (_, warm_up) = attempt(w, &state, tr);
    Ok(SetUp {
        state,
        secs: t.elapsed().as_secs_f64(),
        warm_up,
    })
}

/// Generate the inputs, then set up `plan.setups` times on fresh containers.
/// Peak RSS is read after the first set-up and its warm-up rep: the later
/// repetitions raise `VmHWM` further by whatever the allocator happens not to
/// reuse (8 MB steps on `bfs`, different between identical runs), which
/// [`Pass::rss_growth_bytes`] reports apart. `Err` means set-up or the first
/// warm-up rep failed.
pub fn prepare<W: Workload>(
    seed: u64,
    quick: bool,
    ctx: &Context,
    plan: &Plan,
    tr: &mut Tracer,
) -> Result<Prepared<W>, String> {
    let t = Instant::now();
    let w = tr.scope("io.generate", |_| W::generate(seed, quick));
    let gen_s = t.elapsed().as_secs_f64();
    let first = set_up(&w, ctx, tr)?;
    let mut expected = checksum_of(&w, first.warm_up)?;
    if plan.force_wrong_answer {
        expected.count += 1;
    }
    let peak_rss_bytes = procfs::vm_hwm();
    let mut state = first.state;
    let mut setup_s = vec![first.secs];
    let mut tally = Tally::default();
    while setup_s.len() < plan.setups {
        drop(state);
        let next = set_up(&w, ctx, tr)?;
        setup_s.push(next.secs);
        tally.record(judge(checksum_of(&w, next.warm_up), &expected));
        state = next.state;
    }
    Ok(Prepared {
        w,
        state,
        expected,
        gen_s,
        setup_s,
        tally,
        peak_rss_bytes,
    })
}

/// The timed phase, then verification. Reps are identical and run until both
/// `plan.seconds` have passed and `plan.min_reps` have run; each is compared
/// with the first warm-up rep's checksum. One more rep is then verified in
/// full against the independent reference and must carry that same checksum,
/// which verifies every rep that matched it. Verification comes last so that
/// the reference's own memory and allocations cannot disturb the reps.
///
/// `in_rep` is told `true` just before a timed rep's clock starts and
/// `false` just after it stops, so a traced run can keep everything else
/// out of the engine's counters. `Err` means verification failed.
pub fn measure<W: Workload>(
    prep: Prepared<W>,
    ctx: &Context,
    plan: &Plan,
    tr: &mut Tracer,
    in_rep: &mut dyn FnMut(bool),
) -> Result<Pass, String> {
    let Prepared {
        w,
        state,
        expected,
        gen_s,
        setup_s,
        mut tally,
        peak_rss_bytes,
    } = prep;
    let mut rep_s = Vec::new();
    let mut serialized_bytes = 0;
    let before = procfs::stat();
    let clock = Instant::now();
    while clock.elapsed().as_secs_f64() < plan.seconds || rep_s.len() < plan.min_reps {
        tr.set_rep(rep_s.len() as u32 + 1);
        in_rep(true);
        let (secs, out) = attempt(&w, &state, tr);
        in_rep(false);
        rep_s.push(secs);
        if let Ok(o) = &out {
            serialized_bytes = W::serialized_bytes(o);
        }
        tally.record(judge(checksum_of(&w, out), &expected));
    }
    let timed_s = clock.elapsed().as_secs_f64();
    let after = procfs::stat();
    let rss_growth_bytes = procfs::vm_hwm() - peak_rss_bytes;
    tr.set_rep(0);

    let t = Instant::now();
    let (work_units, iterations) = tr.scope("harness.verify", |tr| {
        let reference = w.reference();
        let out = attempt(&w, &state, tr).1?;
        w.verify(&reference, &out)?;
        let verified = w.checksum(&out).map_err(|e| e.to_string())?;
        if !plan.force_wrong_answer {
            judge(Ok(verified), &expected)?;
        }
        Ok::<_, String>((W::work_units(&reference), W::iterations(&reference)))
    })?;
    let verify_s = t.elapsed().as_secs_f64();

    let reps = rep_s.len() as f64;
    Ok(Pass {
        gen_s,
        edges: w.edges(),
        verify_s,
        setup_s,
        rep_s,
        timed_s,
        tally,
        work_units,
        iterations,
        cpu_s_per_rep: (after.cpu_s - before.cpu_s) / reps,
        minflt_per_rep: (after.minflt - before.minflt) as f64 / reps,
        peak_rss_bytes,
        rss_growth_bytes,
        workers: ctx.effective_threads(),
        serialized_bytes,
    })
}

/// [`prepare`] then [`measure`].
pub fn run<W: Workload>(
    seed: u64,
    quick: bool,
    ctx: &Context,
    plan: &Plan,
    tr: &mut Tracer,
) -> Result<Pass, String> {
    let prep = prepare::<W>(seed, quick, ctx, plan, tr)?;
    measure(prep, ctx, plan, tr, &mut |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Bfs, PageRank, SpGemm, Update};

    const SMOKE: Plan = Plan {
        seconds: 0.0,
        min_reps: 3,
        setups: 2,
        force_wrong_answer: false,
    };

    #[test]
    fn a_mismatch_is_a_failed_operation_and_a_nonzero_exit() {
        let verified = Checksum {
            count: 10,
            sum: 2.5,
        };
        let mut tally = Tally::default();
        tally.record(judge(Ok(verified), &verified));
        assert_eq!(
            (tally.attempted, tally.failed, tally.exit_code()),
            (1, 0, 0)
        );
        tally.record(judge(
            Ok(Checksum {
                count: 10,
                sum: 2.5 + 1e-6,
            }),
            &verified,
        ));
        tally.record(judge(
            Ok(Checksum {
                count: 11,
                sum: 2.5,
            }),
            &verified,
        ));
        tally.record(judge(Err("rep panicked".to_string()), &verified));
        assert_eq!((tally.attempted, tally.failed), (4, 3));
        assert!(!tally.correct());
        assert_eq!(tally.exit_code(), 1);
        assert!(tally.first_error.unwrap().contains("checksum mismatch"));
        // Rounding-level differences in the sum are not a mismatch.
        assert!(judge(
            Ok(Checksum {
                count: 10,
                sum: 2.5 + 1e-12
            }),
            &verified
        )
        .is_ok());
        // Nothing attempted is not a pass either.
        assert_eq!(Tally::default().exit_code(), 1);
    }

    #[test]
    fn every_workload_verifies_against_its_reference() {
        fn check<W: Workload>() {
            for one_thread in [true, false] {
                let ctx = context_for::<W>(one_thread);
                let p = run::<W>(2, true, &ctx, &SMOKE, &mut Tracer::off()).unwrap();
                assert_eq!((p.tally.attempted, p.tally.failed), (4, 0), "{}", W::NAME);
                assert!(p.work_units > 0.0 && p.edges > 0);
            }
        }
        check::<PageRank>();
        check::<Bfs>();
        check::<SpGemm>();
        check::<Update>();
    }

    #[test]
    fn a_forced_wrong_answer_fails_every_rep_of_a_real_pass() {
        let ctx = context_for::<PageRank>(true);
        let good = run::<PageRank>(1, true, &ctx, &SMOKE, &mut Tracer::off()).unwrap();
        assert_eq!((good.tally.attempted, good.tally.failed), (4, 0));
        assert_eq!(good.tally.exit_code(), 0);
        assert_eq!((good.rep_s.len(), good.setup_s.len()), (3, 2));

        let plan = Plan {
            force_wrong_answer: true,
            ..SMOKE
        };
        let bad = run::<PageRank>(1, true, &ctx, &plan, &mut Tracer::off()).unwrap();
        assert_eq!(bad.tally.failed, bad.tally.attempted);
        assert_eq!(bad.tally.exit_code(), 1);
    }
}
