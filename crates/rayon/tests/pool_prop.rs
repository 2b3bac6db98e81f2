//! Pool semantics tests: `par_iter` must be indistinguishable from
//! serial iteration for every terminal the workspace uses, at every
//! pool width, and the pool must be created once per process.

use proptest::prelude::*;
use rayon::prelude::*;
use rayon::ThreadPool;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes every test in this binary that creates threads:
/// [`threads_spawned_once_across_repeated_calls`] reads the
/// process-wide spawn counter, which a sibling test building a pool on
/// a parallel test thread would bump mid-measurement.
fn spawn_guard() -> MutexGuard<'static, ()> {
    static SPAWNS: Mutex<()> = Mutex::new(());
    SPAWNS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The pool widths the suite sweeps — the `TRIGON_THREADS=1,2,8`
/// matrix, exercised via explicit pools so one process covers all
/// three (the env var itself is covered by the `env_threads`
/// integration test, which owns its process).
const WIDTHS: [usize; 3] = [1, 2, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `collect` equals serial map at widths 1, 2 and 8.
    #[test]
    fn collect_matches_serial(v in proptest::collection::vec(0u64..1_000_000, 0..300)) {
        let _spawns = spawn_guard();
        let want: Vec<u64> = v.iter().map(|x| x.wrapping_mul(31) ^ 7).collect();
        for w in WIDTHS {
            let pool = ThreadPool::new(w);
            let got: Vec<u64> =
                pool.install(|| v.par_iter().map(|x| x.wrapping_mul(31) ^ 7).collect());
            prop_assert_eq!(&got, &want, "width {}", w);
        }
    }

    /// `sum` equals serial sum — including floats, where input-order
    /// reduction makes the parallel result bit-identical.
    #[test]
    fn sum_matches_serial(v in proptest::collection::vec(0u64..1_000, 0..300)) {
        let _spawns = spawn_guard();
        let want_u: u64 = v.iter().map(|x| x * 3).sum();
        let floats: Vec<f64> = v.iter().map(|&x| x as f64 / 7.0).collect();
        let want_f: f64 = floats.iter().copied().sum();
        for w in WIDTHS {
            let pool = ThreadPool::new(w);
            let got_u: u64 = pool.install(|| v.par_iter().map(|x| x * 3).sum());
            prop_assert_eq!(got_u, want_u, "width {}", w);
            let got_f: f64 = pool.install(|| floats.par_iter().map(|x| *x).sum());
            prop_assert_eq!(got_f.to_bits(), want_f.to_bits(), "width {}", w);
        }
    }

    /// `enumerate().map().collect()` sees the right index for every item.
    #[test]
    fn enumerate_matches_serial(v in proptest::collection::vec(0u32..5_000, 0..300)) {
        let _spawns = spawn_guard();
        let want: Vec<u64> = v
            .iter()
            .enumerate()
            .map(|(i, x)| i as u64 * 10_000 + u64::from(*x))
            .collect();
        for w in WIDTHS {
            let pool = ThreadPool::new(w);
            let got: Vec<u64> = pool.install(|| {
                v.par_iter()
                    .enumerate()
                    .map(|(i, x)| i as u64 * 10_000 + u64::from(*x))
                    .collect()
            });
            prop_assert_eq!(&got, &want, "width {}", w);
        }
    }
}

#[test]
fn empty_and_single_at_every_width() {
    let _spawns = spawn_guard();
    for w in WIDTHS {
        let pool = ThreadPool::new(w);
        pool.install(|| {
            let empty: Vec<u32> = vec![];
            let out: Vec<u32> = empty.par_iter().map(|x| *x).collect();
            assert!(out.is_empty(), "width {w}");
            let sum: u32 = empty.par_iter().map(|x| *x).sum();
            assert_eq!(sum, 0, "width {w}");
            let one = vec![41u32];
            let out: Vec<u32> = one.par_iter().map(|x| x + 1).collect();
            assert_eq!(out, vec![42], "width {w}");
        });
    }
}

/// A panic in the mapped closure must reach the caller (not deadlock
/// the pool), and the pool must remain usable afterwards.
#[test]
fn panic_propagates_and_pool_survives() {
    let _spawns = spawn_guard();
    let pool = ThreadPool::new(4);
    let v: Vec<u64> = (0..500).collect();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.install(|| {
            v.par_iter()
                .map(|&x| {
                    if x == 137 {
                        panic!("boom at {x}");
                    }
                    x
                })
                .collect::<Vec<u64>>()
        })
    }));
    let err = caught.expect_err("panic must propagate");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string payload>".to_string());
    assert!(msg.contains("boom at 137"), "unexpected payload {msg:?}");
    // The same pool still computes correct results.
    let sum: u64 = pool.install(|| v.par_iter().map(|&x| x).sum());
    assert_eq!(sum, (0..500u64).sum::<u64>());
}

/// Pool threads are created once per process: repeated `par_iter` calls
/// (on both the global and an explicit pool) never spawn new threads.
#[test]
fn threads_spawned_once_across_repeated_calls() {
    let _spawns = spawn_guard();
    let v: Vec<u64> = (0..4_000).collect();
    // Warm the global pool and a 4-wide explicit pool.
    let _: u64 = v.par_iter().map(|&x| x).sum();
    let pool = ThreadPool::new(4);
    let _: u64 = pool.install(|| v.par_iter().map(|&x| x).sum());
    let warm = rayon::total_threads_spawned();
    for round in 0..100 {
        let a: Vec<u64> = v.par_iter().map(|&x| x + round).collect();
        let b: u64 = pool.install(|| v.par_iter().map(|&x| x + round).sum());
        assert_eq!(a.len(), v.len());
        assert_eq!(b, v.iter().map(|&x| x + round).sum::<u64>());
    }
    assert_eq!(
        rayon::total_threads_spawned(),
        warm,
        "repeated par_iter calls must not spawn threads"
    );
}
