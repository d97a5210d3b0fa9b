//! Seeded data-race regression tests for the vector-clock detector.
//!
//! Each test plants a race the detector must find, then replays the
//! reported seed and asserts the failure message is **byte-for-byte**
//! identical — the property that turns a discovered race into a
//! deterministic regression test (ROADMAP: model-checker determinism).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use graphblas_check::sched::{explore, replay, Config, Policy};
use graphblas_check::sync::{thread, AtomicBool, Mutex, RaceCell};

/// Two unsynchronized writes to the same cell: a race in every schedule.
fn unsynchronized_writes() {
    let c = Arc::new(RaceCell::new(0u32, "cell"));
    let c2 = c.clone();
    let h = thread::spawn(move || c2.write(1));
    c.write(2);
    h.join();
}

#[test]
fn unsynchronized_writes_are_flagged_and_replay_byte_exact() {
    let cfg = Config {
        schedules: 10,
        ..Config::default()
    };
    let failure = explore(&cfg, unsynchronized_writes).unwrap_err();
    assert!(
        failure.message.contains("data race on `cell`"),
        "expected a data-race report, got: {}",
        failure.message
    );
    // The reported seed must reproduce the identical report, twice.
    let r1 = replay(
        failure.seed,
        cfg.policy,
        cfg.max_steps,
        unsynchronized_writes,
    )
    .unwrap_err();
    let r2 = replay(
        failure.seed,
        cfg.policy,
        cfg.max_steps,
        unsynchronized_writes,
    )
    .unwrap_err();
    assert_eq!(r1, failure.message, "replay must match the explore report");
    assert_eq!(r1, r2, "replay must be deterministic");
}

/// The unsynchronized-publish bug, as a dynamic protocol: the writer
/// publishes `payload` through a *relaxed* flag store, so a reader that
/// observes the flag still has no happens-before edge to the payload
/// write.
fn relaxed_publish() {
    let data = Arc::new(RaceCell::new(0u32, "payload"));
    let flag = Arc::new(AtomicBool::new(false));
    let (d2, f2) = (data.clone(), flag.clone());
    let h = thread::spawn(move || {
        d2.write(42);
        f2.store(true, Ordering::Relaxed); // BUG: publish without release
    });
    if flag.load(Ordering::Acquire) {
        let _ = data.read(); // unordered with the write above
    }
    h.join();
}

#[test]
fn relaxed_publish_races_and_replays_byte_exact() {
    let cfg = Config {
        schedules: 500,
        ..Config::default()
    };
    let failure = explore(&cfg, relaxed_publish).unwrap_err();
    assert!(
        failure.message.contains("data race on `payload`"),
        "expected a data-race report, got: {}",
        failure.message
    );
    let r1 = replay(failure.seed, cfg.policy, cfg.max_steps, relaxed_publish).unwrap_err();
    assert_eq!(r1, failure.message);
}

#[test]
fn release_publish_fixes_the_race() {
    // Same protocol with the store strengthened to Release: race-free
    // across the same schedule count that finds the relaxed bug.
    let fixed = || {
        let data = Arc::new(RaceCell::new(0u32, "payload"));
        let flag = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (data.clone(), flag.clone());
        let h = thread::spawn(move || {
            d2.write(42);
            f2.store(true, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) {
            assert_eq!(data.read(), 42);
        }
        h.join();
    };
    let cfg = Config {
        schedules: 500,
        ..Config::default()
    };
    explore(&cfg, fixed).unwrap();
}

#[test]
fn lock_protected_counter_is_race_free_under_pct() {
    // The mutex release→acquire edge must order the plain accesses even
    // under PCT's adversarial priority schedules.
    let cfg = Config {
        schedules: 200,
        policy: Policy::Pct { depth: 3 },
        ..Config::default()
    };
    explore(&cfg, || {
        let m = Arc::new(Mutex::new(()));
        let c = Arc::new(RaceCell::new(0u32, "counter"));
        let mut hs = Vec::new();
        for _ in 0..3 {
            let (m2, c2) = (m.clone(), c.clone());
            hs.push(thread::spawn(move || {
                let _g = m2.lock();
                let v = c2.read();
                c2.write(v + 1);
            }));
        }
        for h in hs {
            h.join();
        }
        assert_eq!(c.read(), 3);
    })
    .unwrap();
}

#[test]
fn forgetting_the_lock_on_one_path_is_caught() {
    // Two writers take the lock, one "forgot": the detector must find an
    // interleaving where the unlocked write races a locked one.
    let buggy = || {
        let m = Arc::new(Mutex::new(()));
        let c = Arc::new(RaceCell::new(0u32, "partially-guarded"));
        let (m2, c2) = (m.clone(), c.clone());
        let h = thread::spawn(move || {
            let _g = m2.lock();
            let v = c2.read();
            c2.write(v + 1);
        });
        c.write(10); // BUG: no lock held
        h.join();
    };
    let cfg = Config {
        schedules: 100,
        ..Config::default()
    };
    let failure = explore(&cfg, buggy).unwrap_err();
    assert!(
        failure.message.contains("data race on `partially-guarded`"),
        "got: {}",
        failure.message
    );
    let r = replay(failure.seed, cfg.policy, cfg.max_steps, buggy).unwrap_err();
    assert_eq!(r, failure.message);
}
