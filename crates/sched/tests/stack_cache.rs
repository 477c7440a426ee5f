//! Coroutine stacks outlive their run: a run takes the stacks earlier
//! runs in the process left before it maps new ones
//! ([`sched::stacks_mapped`] counts the maps).
//!
//! The counter is process-wide, so this binary holds one test: nothing
//! else in it maps stacks while the steps below read the counter.

use sched::{join_task, run_roots, spawn, stacks_mapped};
use simclock::SimTime;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Stacks mapped while `f` ran.
fn maps_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = stacks_mapped();
    let out = f();
    (out, stacks_mapped() - before)
}

/// Root `i` fills 32 KiB of its stack with a pattern of `i` and sums
/// it: a reused stack runs a task like a fresh one.
fn stack_sum(i: usize) -> u64 {
    let mut page = [0u8; 32 << 10];
    for (k, b) in page.iter_mut().enumerate() {
        *b = (i + k) as u8;
    }
    std::hint::black_box(&mut page);
    page.iter().map(|&b| b as u64).sum()
}

fn expected_sum(i: usize) -> u64 {
    (0..32usize << 10).map(|k| (i + k) as u8 as u64).sum()
}

/// `roots` roots, each spawning a child that computes [`stack_sum`] and
/// joining it; root `panicking`, if any, panics once its child runs.
fn run_with_children(roots: usize, panicking: Option<usize>) -> Vec<u64> {
    run_roots(roots, |i| {
        let (tx, rx) = std::sync::mpsc::channel();
        let child = spawn(
            i as u32,
            SimTime::ZERO,
            Box::new(move || tx.send(stack_sum(i)).unwrap()),
        );
        join_task(&child);
        if panicking == Some(i) {
            panic!("root {i} panics");
        }
        rx.recv().unwrap()
    })
    .0
}

#[test]
fn warm_runs_map_only_what_earlier_runs_did_not_leave() {
    let sums = |n: usize| (0..n).map(expected_sum).collect::<Vec<_>>();

    let ((out, _), cold) = maps_during(|| run_roots(64, stack_sum));
    assert_eq!(out, sums(64));
    assert!(cold <= 64, "a 64-task run mapped {cold} stacks");

    let ((out, _), warm) = maps_during(|| run_roots(64, stack_sum));
    assert_eq!(out, sums(64));
    assert_eq!(warm, 0, "a second 64-task run maps nothing");

    let ((out, _), grown) = maps_during(|| run_roots(128, stack_sum));
    assert_eq!(out, sums(128));
    assert_eq!(grown, 64, "a 128-task run maps only the 64 stacks it lacks");

    // A run that a task's panic aborts still hands every stack back.
    let aborted = catch_unwind(AssertUnwindSafe(|| run_with_children(128, Some(77))));
    assert!(aborted.is_err(), "the panic comes out of the run");
    let (out, after_abort) = maps_during(|| run_with_children(128, None));
    assert_eq!(out, sums(128));
    assert_eq!(after_abort, 0, "the run after an aborted one maps nothing");
}
