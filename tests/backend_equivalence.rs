//! Cross-backend equivalence battery for the symbolic hot loops.
//!
//! The `enq_simd` dispatch layer promises that every backend — forced
//! scalar, runtime-detected SIMD, and the batched multi-lane transform at
//! any lane count — produces **bit-identical** results wherever a summation
//! order is observable, and stays within `1e-12` of the dense naive
//! reference everywhere. These tests pin both promises:
//!
//! * every backend × the naive `overlap_and_gradient_naive` reference at
//!   `1e-12`, on random and on subnormal targets;
//! * forced-scalar vs forced-SIMD, compared bit for bit;
//! * batched lanes (`B ∈ {1, 2, 7, 16}`) vs solo calls, bit for bit, under
//!   both forced backends;
//! * a full L-BFGS fine-tune whose trajectory (every iterate, every
//!   line-search probe) must agree bit for bit across backends — the
//!   property that keeps the golden seeded-determinism pins valid on any
//!   host.

use enq_linalg::C64;
use enq_simd::ComputeBackend;
use enqode::{AnsatzConfig, EntanglerKind, FidelityObjective, SymbolicBatch, SymbolicState};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// `enq_simd::force_backend` is process-global state; tests that touch it
/// hold this lock and restore auto dispatch on drop (panic included), so
/// concurrently running tests never observe a half-forced backend.
fn backend_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct BackendGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl BackendGuard {
    fn new() -> Self {
        Self(backend_lock())
    }
}

impl Drop for BackendGuard {
    fn drop(&mut self) {
        enq_simd::force_backend(None);
    }
}

/// Runs `f` once under the forced scalar backend and once under the
/// runtime-detected one, returning both results. On a host without SIMD
/// support `detect()` is `Scalar` and the comparison is trivially true —
/// the battery still validates the scalar path against the references.
fn under_scalar_and_simd<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let _guard = BackendGuard::new();
    enq_simd::force_backend(Some(ComputeBackend::Scalar));
    let scalar = f();
    enq_simd::force_backend(Some(enq_simd::detect()));
    let simd = f();
    (scalar, simd)
}

fn config(num_qubits: usize, num_layers: usize) -> AnsatzConfig {
    AnsatzConfig {
        num_qubits,
        num_layers,
        entangler: EntanglerKind::Cy,
    }
}

/// Deterministic pseudo-random conjugated target (not normalised — the raw
/// kernels do not require it).
fn target_conj(dim: usize, seed: u64) -> Vec<C64> {
    (0..dim)
        .map(|r| {
            let x = (seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(r as u64)) as f64;
            C64::new((x * 1e-17).sin(), (x * 3e-18).cos() - 0.5)
        })
        .collect()
}

fn eval(state: &SymbolicState, target: &[C64], theta: &[f64]) -> (C64, Vec<C64>) {
    state
        .overlap_and_gradient(target, theta)
        .expect("shapes are valid")
}

fn assert_close(fast: (C64, Vec<C64>), naive: (C64, Vec<C64>), what: &str) {
    assert!(
        (fast.0 - naive.0).abs() < 1e-12,
        "{what}: overlap {:?} vs naive {:?}",
        fast.0,
        naive.0
    );
    for (j, (a, b)) in fast.1.iter().zip(naive.1.iter()).enumerate() {
        assert!(
            (*a - *b).abs() < 1e-12,
            "{what}: gradient[{j}] {a:?} vs naive {b:?}"
        );
    }
}

fn assert_bitwise(a: &(C64, Vec<C64>), b: &(C64, Vec<C64>), what: &str) {
    assert_eq!(a.0.re.to_bits(), b.0.re.to_bits(), "{what}: overlap.re");
    assert_eq!(a.0.im.to_bits(), b.0.im.to_bits(), "{what}: overlap.im");
    for (j, (x, y)) in a.1.iter().zip(b.1.iter()).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: gradient[{j}].re");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: gradient[{j}].im");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_backend_matches_the_naive_reference(
        qubits in 2usize..6,
        layers in 1usize..5,
        seed in 0u64..1024,
        scale in 0.1..2.0f64,
    ) {
        let cfg = config(qubits, layers);
        let state = SymbolicState::from_ansatz(&cfg).unwrap();
        let theta: Vec<f64> = (0..qubits * layers)
            .map(|j| ((seed as f64 + j as f64) * 0.73).sin() * 3.0 * scale)
            .collect();
        let target = target_conj(1 << qubits, seed);
        let naive = state.overlap_and_gradient_naive(&target, &theta).unwrap();
        let (scalar, simd) = under_scalar_and_simd(|| eval(&state, &target, &theta));
        assert_close(scalar, naive.clone(), "forced scalar");
        assert_close(simd, naive, "forced SIMD");
    }

    #[test]
    fn scalar_and_simd_agree_bit_for_bit(
        qubits in 2usize..7,
        layers in 1usize..5,
        seed in 0u64..1024,
    ) {
        let cfg = config(qubits, layers);
        let state = SymbolicState::from_ansatz(&cfg).unwrap();
        let theta: Vec<f64> = (0..qubits * layers)
            .map(|j| ((seed as f64 * 1.31 + j as f64) * 0.41).cos() * 4.0)
            .collect();
        let target = target_conj(1 << qubits, seed.wrapping_mul(31));
        let (scalar, simd) = under_scalar_and_simd(|| eval(&state, &target, &theta));
        assert_bitwise(&scalar, &simd, "scalar vs SIMD");
    }
}

#[test]
fn subnormal_targets_match_the_naive_reference_on_every_backend() {
    let cfg = config(4, 3);
    let state = SymbolicState::from_ansatz(&cfg).unwrap();
    let dim = 1 << 4;
    // NaN-free targets down in the subnormal range: the kernels must not
    // flush, overflow, or diverge from the reference there.
    let target: Vec<C64> = (0..dim)
        .map(|r| {
            let tiny = f64::MIN_POSITIVE * ((r % 7) as f64 + 0.5) / 8.0;
            debug_assert!(tiny != 0.0 && tiny < f64::MIN_POSITIVE);
            C64::new(tiny, if r % 2 == 0 { -tiny } else { tiny * 0.25 })
        })
        .collect();
    let theta: Vec<f64> = (0..12).map(|j| (j as f64 * 0.61).sin()).collect();
    let naive = state.overlap_and_gradient_naive(&target, &theta).unwrap();
    assert!(naive.0.re.is_finite() && naive.0.im.is_finite());
    let (scalar, simd) = under_scalar_and_simd(|| eval(&state, &target, &theta));
    assert_bitwise(&scalar, &simd, "subnormal scalar vs SIMD");
    assert_close(scalar, naive.clone(), "subnormal forced scalar");
    assert_close(simd, naive, "subnormal forced SIMD");
}

#[test]
fn batched_lanes_match_solo_calls_bitwise_on_every_backend() {
    let cfg = config(5, 4);
    let state = SymbolicState::from_ansatz(&cfg).unwrap();
    let p = 20;
    let dim = 1 << 5;
    for lanes in [1usize, 2, 7, 16] {
        let targets: Vec<Vec<C64>> = (0..lanes)
            .map(|b| target_conj(dim, 1000 + b as u64))
            .collect();
        let target_refs: Vec<&[C64]> = targets.iter().map(|t| t.as_slice()).collect();
        let thetas: Vec<f64> = (0..lanes * p)
            .map(|i| ((i as f64) * 0.37).sin() * 2.5)
            .collect();
        let run = || {
            let mut batch = SymbolicBatch::new(&state, &target_refs).unwrap();
            let mut overlaps = vec![C64::ZERO; lanes];
            let mut gradients = vec![C64::ZERO; lanes * p];
            batch
                .overlap_and_gradient(&thetas, &mut overlaps, &mut gradients)
                .unwrap();
            let solo: Vec<(C64, Vec<C64>)> = (0..lanes)
                .map(|b| eval(&state, &targets[b], &thetas[b * p..(b + 1) * p]))
                .collect();
            (overlaps, gradients, solo)
        };
        let (scalar, simd) = under_scalar_and_simd(run);
        for (which, (overlaps, gradients, solo)) in [("scalar", scalar), ("simd", simd)] {
            for b in 0..lanes {
                let lane = (overlaps[b], gradients[b * p..(b + 1) * p].to_vec());
                assert_bitwise(
                    &lane,
                    &solo[b],
                    &format!("{which} B={lanes} lane {b} vs solo"),
                );
            }
        }
    }
}

#[test]
fn fine_tune_trajectories_are_bit_identical_across_backends() {
    // End-to-end: a full L-BFGS fine-tune (line searches included) must
    // walk the exact same trajectory under forced scalar and forced SIMD.
    // This is the property that makes the golden seeded-determinism pins
    // host-independent.
    use enq_optim::Lbfgs;
    let cfg = config(4, 6);
    let target: Vec<f64> = (0..16)
        .map(|r| ((r as f64) * 0.57).sin().abs() + 0.05)
        .collect();
    let objective = FidelityObjective::new(&cfg, &target).unwrap();
    let start: Vec<f64> = (0..24).map(|j| ((j as f64) * 0.23).cos()).collect();
    let run = || Lbfgs::with_max_iterations(40).minimize(&objective, &start);
    let (scalar, simd) = under_scalar_and_simd(run);
    assert_eq!(scalar.iterations, simd.iterations);
    assert_eq!(scalar.evaluations, simd.evaluations);
    assert_eq!(scalar.value.to_bits(), simd.value.to_bits());
    assert_eq!(scalar.gradient_norm.to_bits(), simd.gradient_norm.to_bits());
    for (a, b) in scalar.x.iter().zip(simd.x.iter()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
