//! Verifies the zero-allocation claim of the rewritten hot path: once the
//! objective's workspace and the optimiser's driver are warm, neither the
//! symbolic kernel nor the L-BFGS iteration loop touches the heap.
//!
//! A counting global allocator measures allocation *counts* (not bytes).
//! The binary runs **without the libtest harness** (`harness = false`): the
//! harness's own threads (timing, result channels) allocate at
//! unpredictable moments, which polluted the process-global counter and
//! made the zero-allocation window flaky. As a plain `fn main` the process
//! is single-threaded, so the counter observes only the measured code.

use enq_optim::{Lbfgs, LbfgsDriver, Objective};
use enqode::{AnsatzConfig, EntanglerKind, FidelityObjective};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn paper_objective() -> FidelityObjective {
    let config = AnsatzConfig {
        num_qubits: 8,
        num_layers: 8,
        entangler: EntanglerKind::Cy,
    };
    let target: Vec<f64> = (0..config.dimension())
        .map(|i| 0.3 + ((i as f64) * 0.7).sin().abs())
        .collect();
    FidelityObjective::new(&config, &target).unwrap()
}

// One entry point for both measurements: the counter is global, so any
// concurrent thread would pollute the measured windows.
fn main() {
    // --- Objective evaluations -------------------------------------------
    let objective = paper_objective();
    let theta: Vec<f64> = (0..objective.dimension())
        .map(|j| 0.05 * j as f64)
        .collect();
    let mut gradient = vec![0.0; objective.dimension()];
    // Warm the workspace.
    let _ = objective.value_and_gradient_into(&theta, &mut gradient);
    let _ = objective.value(&theta);

    let before = allocations();
    for _ in 0..200 {
        std::hint::black_box(objective.value_and_gradient_into(&theta, &mut gradient));
        std::hint::black_box(objective.value(&theta));
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "value/gradient evaluations allocated {delta} times after warm-up"
    );

    // --- The L-BFGS iteration loop ---------------------------------------
    let start: Vec<f64> = (0..objective.dimension())
        .map(|j| 0.2 * ((j as f64) * 1.3).sin())
        .collect();
    // Warm every buffer (objective workspace + the driver's buffers).
    let mut driver = LbfgsDriver::new(Lbfgs::with_max_iterations(3), &start);
    let _ = driver.run(&objective);

    // A short and a long run must allocate the same, iteration-independent
    // amount (the returned result vector); the loop itself is allocation-free.
    let before_short = allocations();
    driver.restart(Lbfgs::with_max_iterations(5), &start);
    let _ = driver.run(&objective);
    let short_allocs = allocations() - before_short;

    let before_long = allocations();
    driver.restart(Lbfgs::with_max_iterations(150), &start);
    let result = driver.run(&objective);
    let long_allocs = allocations() - before_long;

    assert!(
        result.iterations > 5,
        "long run should iterate more (got {})",
        result.iterations
    );
    assert_eq!(
        short_allocs, long_allocs,
        "allocation count must not depend on iteration count"
    );
    assert!(
        long_allocs <= 2,
        "optimizer run should only allocate the result vector, got {long_allocs}"
    );
    println!("zero-alloc optimizer loop: ok");
}
