//! Unit suite for the scoped thread pool: panic propagation, empty
//! input, nested use, determinism under contention, and survival across
//! a panicked batch.

use gbu_par::ThreadPool;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
#[should_panic(expected = "boom at 37")]
fn worker_panic_propagates_to_the_caller() {
    let pool = ThreadPool::new(4);
    let items = vec![0u32; 200];
    let _ = pool.map_indexed(&items, |i, _| {
        if i == 37 {
            panic!("boom at 37");
        }
        i
    });
}

#[test]
fn pool_survives_a_panicked_batch() {
    let pool = ThreadPool::new(4);
    let items = vec![1u64; 100];
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.map_indexed(&items, |i, &x| {
            if i % 10 == 3 {
                panic!("flaky job");
            }
            x
        })
    }));
    assert!(result.is_err(), "the panic must reach the caller");
    // The pool is still functional afterwards.
    let out = pool.map_indexed(&items, |i, &x| x + i as u64);
    assert_eq!(out.len(), 100);
    assert_eq!(out[99], 100);
}

#[test]
fn empty_inputs_touch_nothing() {
    let pool = ThreadPool::new(4);
    assert!(pool.map_indexed(&[] as &[u8], |_, &b| b).is_empty());
    pool.for_each_mut(&mut [] as &mut [u8], |_, _| panic!("no jobs, no calls"));
    let mut scratch = [0u8; 2];
    pool.for_each_mut_with(&mut scratch, &mut [] as &mut [u8], |_, _, _| {
        panic!("no jobs, no calls")
    });
}

#[test]
fn nested_use_runs_inline_and_stays_correct() {
    let pool = ThreadPool::new(4);
    let outer: Vec<u64> = (0..8).collect();
    let sums = pool.map_indexed(&outer, |_, &base| {
        // Re-entering the pool from a worker must not deadlock; the
        // inner region runs inline and produces the same results.
        let inner: Vec<u64> = (0..100).collect();
        pool.map_indexed(&inner, |_, &x| x + base).iter().sum::<u64>()
    });
    for (i, &s) in sums.iter().enumerate() {
        assert_eq!(s, 4950 + 100 * i as u64);
    }
}

#[test]
fn outputs_are_index_stable_across_thread_counts() {
    let items: Vec<u64> = (0..500).map(|i| i * 7 + 1).collect();
    let reference: Vec<u64> = items.iter().enumerate().map(|(i, &x)| x * x + i as u64).collect();
    for threads in [1, 2, 4, 8] {
        let pool = ThreadPool::new(threads);
        let out = pool.map_indexed(&items, |i, &x| x * x + i as u64);
        assert_eq!(out, reference, "threads={threads}");
    }
}

#[test]
fn many_small_batches_are_cheap_and_exact() {
    // Thousands of tiny parallel regions.
    let pool = ThreadPool::new(4);
    let mut jobs = vec![0u64; 4];
    for _ in 0..5_000 {
        pool.for_each_mut(&mut jobs, |_, j| *j += 1);
    }
    assert_eq!(jobs, vec![5_000u64; 4]);
}

#[test]
fn scratch_states_never_shared_within_a_batch() {
    let pool = ThreadPool::new(8);
    let mut scratch = vec![0usize; pool.threads()];
    let mut jobs = vec![(); 10_000];
    pool.for_each_mut_with(&mut scratch, &mut jobs, |s, _, ()| *s += 1);
    // Every job was counted exactly once across the per-worker tallies.
    assert_eq!(scratch.iter().sum::<usize>(), 10_000);
}
