//! The fidelity loss optimised during EnQode training.
//!
//! For a real target amplitude vector `x` the full ansatz output is
//! `W·|ψ(θ)⟩` (with `W` the fixed closing rotation), so the training problem
//! is to maximise `|⟨x|W|ψ(θ)⟩|² = |⟨y|ψ(θ)⟩|²` with the back-rotated target
//! `y = W†·x`. The loss is `L(θ) = 1 − |⟨y|ψ(θ)⟩|²`, whose exact gradient
//! follows from the symbolic representation.
//!
//! The objective shares its [`SymbolicState`] through an [`Arc`] (the phase
//! table depends only on the ansatz shape, so training never copies it) and
//! owns a [`SymbolicWorkspace`] that is reused across evaluations: the
//! L-BFGS inner loop runs without heap allocations. The back-rotation
//! `y = W†·x` exploits `W = W₁^{⊗n}` via
//! [`enq_linalg::CMatrix::apply_kron_power`] — `O(n·2^n)` instead of a dense
//! `O(4^n)` matvec.

use crate::ansatz::AnsatzConfig;
use crate::error::EnqodeError;
use crate::symbolic::{SymbolicBatch, SymbolicState, SymbolicWorkspace};
use enq_data::l2_normalize;
use enq_linalg::C64;
use enq_optim::Objective;
use std::cell::RefCell;
use std::sync::Arc;

/// Reusable per-objective evaluation scratch.
#[derive(Debug, Clone, Default)]
struct EvalScratch {
    workspace: SymbolicWorkspace,
    /// Complex overlap gradient `∂S/∂θ_j` before projection onto the loss.
    d_overlap: Vec<C64>,
}

/// The EnQode training objective `L(θ) = 1 − |⟨y|ψ(θ)⟩|²`.
#[derive(Debug, Clone)]
pub struct FidelityObjective {
    symbolic: Arc<SymbolicState>,
    /// Conjugated back-rotated target `conj(y_r)`, pre-computed once.
    target_conj: Vec<C64>,
    scratch: RefCell<EvalScratch>,
}

impl FidelityObjective {
    /// Builds the objective for a real-valued target amplitude vector (which
    /// is normalised internally).
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::DimensionMismatch`] if the target length is not
    /// `2^num_qubits` and [`EnqodeError::Data`] if it has zero norm.
    pub fn new(config: &AnsatzConfig, target: &[f64]) -> Result<Self, EnqodeError> {
        let symbolic = Arc::new(SymbolicState::from_ansatz(config)?);
        Self::with_symbolic(symbolic, config, target)
    }

    /// Builds the objective reusing a shared pre-computed symbolic state (the
    /// phase table only depends on the ansatz shape, so one `Arc` serves all
    /// clusters, samples, and worker threads without copying).
    ///
    /// # Errors
    ///
    /// Same as [`FidelityObjective::new`].
    pub fn with_symbolic(
        symbolic: Arc<SymbolicState>,
        config: &AnsatzConfig,
        target: &[f64],
    ) -> Result<Self, EnqodeError> {
        if target.len() != symbolic.dim() {
            return Err(EnqodeError::DimensionMismatch {
                expected: symbolic.dim(),
                found: target.len(),
            });
        }
        let normalized = l2_normalize(target)?;
        // y = W†·x through the tensor-power structure of W; we store conj(y).
        let w1_adjoint = config.closing_rotation_1q().adjoint();
        let mut y: Vec<C64> = normalized.iter().map(|&v| C64::real(v)).collect();
        w1_adjoint.apply_kron_power(&mut y)?;
        let target_conj: Vec<C64> = y.iter().map(|z| z.conj()).collect();
        let num_parameters = symbolic.num_parameters();
        let scratch = RefCell::new(EvalScratch {
            workspace: SymbolicWorkspace::for_state(&symbolic),
            d_overlap: vec![C64::ZERO; num_parameters],
        });
        Ok(Self {
            symbolic,
            target_conj,
            scratch,
        })
    }

    /// Returns the embedding fidelity `|⟨y|ψ(θ)⟩|²` at the given parameters.
    pub fn fidelity(&self, theta: &[f64]) -> f64 {
        1.0 - self.value(theta)
    }

    /// Returns the shared symbolic state.
    pub fn symbolic(&self) -> &SymbolicState {
        &self.symbolic
    }

    /// Returns a clone of the shared symbolic-state handle.
    pub fn symbolic_arc(&self) -> Arc<SymbolicState> {
        Arc::clone(&self.symbolic)
    }

    /// The conjugated back-rotated target this objective scores against
    /// (shared with the batched evaluator).
    pub(crate) fn target_conj(&self) -> &[C64] {
        &self.target_conj
    }
}

/// `B` fidelity losses evaluated per kernel sweep through a
/// [`SymbolicBatch`].
///
/// Built from per-sample [`FidelityObjective`]s that share one symbolic
/// state; [`BatchedFidelityObjective::eval`] reproduces each lane's solo
/// [`Objective::value_and_gradient_into`] arithmetic exactly, so values and
/// gradients are **bit-identical** to evaluating the objectives one by one —
/// only faster, because the Walsh-table traversals are amortised across the
/// batch.
#[derive(Debug, Clone)]
pub struct BatchedFidelityObjective {
    batch: SymbolicBatch,
    overlaps: Vec<C64>,
    d_overlap: Vec<C64>,
}

impl BatchedFidelityObjective {
    /// Builds the batched loss over `objectives.len()` lanes. All objectives
    /// must share the symbolic state of the first (the model constructs them
    /// from one `Arc`).
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::InvalidConfig`] for an empty batch and
    /// [`EnqodeError::DimensionMismatch`] for shape disagreements.
    pub fn new(objectives: &[&FidelityObjective]) -> Result<Self, EnqodeError> {
        let first = objectives.first().ok_or_else(|| {
            EnqodeError::InvalidConfig("a batched objective needs at least one lane".to_string())
        })?;
        let targets: Vec<&[C64]> = objectives.iter().map(|o| o.target_conj()).collect();
        let batch = SymbolicBatch::new(first.symbolic(), &targets)?;
        let lanes = batch.lanes();
        let p = batch.num_parameters();
        Ok(Self {
            batch,
            overlaps: vec![C64::ZERO; lanes],
            d_overlap: vec![C64::ZERO; lanes * p],
        })
    }

    /// Returns the number of lanes.
    pub fn lanes(&self) -> usize {
        self.batch.lanes()
    }

    /// Returns the number of parameters per lane.
    pub fn num_parameters(&self) -> usize {
        self.batch.num_parameters()
    }

    /// Evaluates every lane's loss value and gradient in one sweep.
    ///
    /// `thetas` and `gradients` are flat lane-major blocks (`b·P + j`);
    /// `values[b]` receives lane `b`'s loss. Performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::DimensionMismatch`] for wrong slice lengths.
    pub fn eval(
        &mut self,
        thetas: &[f64],
        values: &mut [f64],
        gradients: &mut [f64],
    ) -> Result<(), EnqodeError> {
        let lanes = self.batch.lanes();
        let p = self.batch.num_parameters();
        if values.len() != lanes {
            return Err(EnqodeError::DimensionMismatch {
                expected: lanes,
                found: values.len(),
            });
        }
        if gradients.len() != lanes * p {
            return Err(EnqodeError::DimensionMismatch {
                expected: lanes * p,
                found: gradients.len(),
            });
        }
        self.batch
            .overlap_and_gradient(thetas, &mut self.overlaps, &mut self.d_overlap)?;
        for b in 0..lanes {
            let overlap = self.overlaps[b];
            values[b] = 1.0 - overlap.norm_sqr();
            let overlap_conj = overlap.conj();
            let row = &mut gradients[b * p..(b + 1) * p];
            for (g, ds) in row.iter_mut().zip(self.d_overlap[b * p..].iter()) {
                *g = -2.0 * (overlap_conj * *ds).re;
            }
        }
        Ok(())
    }
}

impl Objective for FidelityObjective {
    fn dimension(&self) -> usize {
        self.symbolic.num_parameters()
    }

    fn value(&self, x: &[f64]) -> f64 {
        let mut scratch = self.scratch.borrow_mut();
        let overlap = self
            .symbolic
            .overlap_into(&self.target_conj, x, &mut scratch.workspace)
            .expect("dimensions fixed at construction");
        1.0 - overlap.norm_sqr()
    }

    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        let mut gradient = vec![0.0; self.dimension()];
        self.value_and_gradient_into(x, &mut gradient);
        gradient
    }

    fn value_and_gradient(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let mut gradient = vec![0.0; self.dimension()];
        let value = self.value_and_gradient_into(x, &mut gradient);
        (value, gradient)
    }

    fn value_and_gradient_into(&self, x: &[f64], gradient: &mut [f64]) -> f64 {
        let scratch = &mut *self.scratch.borrow_mut();
        let overlap = self
            .symbolic
            .overlap_and_gradient_into(
                &self.target_conj,
                x,
                &mut scratch.workspace,
                &mut scratch.d_overlap,
            )
            .expect("dimensions fixed at construction");
        let value = 1.0 - overlap.norm_sqr();
        let overlap_conj = overlap.conj();
        for (g, ds) in gradient.iter_mut().zip(scratch.d_overlap.iter()) {
            *g = -2.0 * (overlap_conj * *ds).re;
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::EntanglerKind;
    use enq_optim::Lbfgs;
    use enq_qsim::Statevector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_config() -> AnsatzConfig {
        AnsatzConfig {
            num_qubits: 3,
            num_layers: 4,
            entangler: EntanglerKind::Cy,
        }
    }

    #[test]
    fn loss_is_bounded_in_unit_interval() {
        let config = small_config();
        let target: Vec<f64> = (1..=8).map(f64::from).collect();
        let obj = FidelityObjective::new(&config, &target).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let theta: Vec<f64> = (0..obj.dimension())
                .map(|_| rng.gen_range(-3.0..3.0))
                .collect();
            let v = obj.value(&theta);
            assert!((0.0..=1.0 + 1e-9).contains(&v), "loss {v} out of range");
            assert!((obj.fidelity(&theta) - (1.0 - v)).abs() < 1e-12);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let config = small_config();
        let target: Vec<f64> = vec![0.7, -0.2, 0.1, 0.4, -0.3, 0.2, 0.05, -0.1];
        let obj = FidelityObjective::new(&config, &target).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let theta: Vec<f64> = (0..obj.dimension())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let (_, grad) = obj.value_and_gradient(&theta);
        let eps = 1e-6;
        for j in 0..theta.len() {
            let mut plus = theta.clone();
            plus[j] += eps;
            let mut minus = theta.clone();
            minus[j] -= eps;
            let numerical = (obj.value(&plus) - obj.value(&minus)) / (2.0 * eps);
            assert!(
                (grad[j] - numerical).abs() < 1e-5,
                "component {j}: analytic {} vs numerical {numerical}",
                grad[j]
            );
        }
    }

    #[test]
    fn buffer_writing_path_matches_allocating_path() {
        let config = small_config();
        let target: Vec<f64> = vec![0.3, 0.9, -0.2, 0.15, 0.4, -0.6, 0.05, 0.2];
        let obj = FidelityObjective::new(&config, &target).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let mut buffer = vec![0.0; obj.dimension()];
        for _ in 0..5 {
            let theta: Vec<f64> = (0..obj.dimension())
                .map(|_| rng.gen_range(-2.0..2.0))
                .collect();
            let (v, g) = obj.value_and_gradient(&theta);
            let v_into = obj.value_and_gradient_into(&theta, &mut buffer);
            assert_eq!(v, v_into);
            assert_eq!(g, buffer);
        }
    }

    #[test]
    fn back_rotation_matches_dense_adjoint_matvec() {
        // The O(n·2^n) tensor-power application must agree with the dense
        // W†·x product the seed computed.
        let config = small_config();
        let target: Vec<f64> = vec![0.7, -0.2, 0.1, 0.4, -0.3, 0.2, 0.05, -0.1];
        let normalized = l2_normalize(&target).unwrap();
        let dense_y = config
            .closing_rotation()
            .adjoint()
            .matvec(&enq_linalg::CVector::from_real(&normalized));
        let mut fast_y: Vec<C64> = normalized.iter().map(|&v| C64::real(v)).collect();
        config
            .closing_rotation_1q()
            .adjoint()
            .apply_kron_power(&mut fast_y)
            .unwrap();
        for (a, b) in fast_y.iter().zip(dense_y.iter()) {
            assert!(a.approx_eq(*b, 1e-12), "{a} vs {b}");
        }
    }

    #[test]
    fn optimised_loss_fidelity_matches_circuit_simulation() {
        // Whatever fidelity the symbolic loss reports must equal the fidelity
        // of the actual bound ansatz circuit against the target state.
        let config = small_config();
        let target: Vec<f64> = vec![0.9, 0.1, 0.3, -0.2, 0.4, 0.0, -0.5, 0.2];
        let obj = FidelityObjective::new(&config, &target).unwrap();
        let result = Lbfgs::with_max_iterations(200).minimize(&obj, &vec![0.1; obj.dimension()]);
        let symbolic_fidelity = obj.fidelity(&result.x);

        let circuit = config.build_bound(&result.x).unwrap();
        let output = Statevector::from_circuit(&circuit).unwrap();
        let target_state = Statevector::from_real_normalized(&target).unwrap();
        let circuit_fidelity = output.fidelity(&target_state).unwrap();
        assert!(
            (symbolic_fidelity - circuit_fidelity).abs() < 1e-8,
            "symbolic {symbolic_fidelity} vs circuit {circuit_fidelity}"
        );
    }

    #[test]
    fn optimisation_reaches_high_fidelity_on_small_problems() {
        // With enough layers (parameters ≳ 2·2^n) and a few restarts the
        // optimiser should get close to the phase-only fidelity bound.
        let config = AnsatzConfig {
            num_qubits: 3,
            num_layers: 8,
            entangler: EntanglerKind::Cy,
        };
        let mut rng = StdRng::seed_from_u64(9);
        let target: Vec<f64> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let obj = FidelityObjective::new(&config, &target).unwrap();
        let mut best = 0.0f64;
        for _ in 0..4 {
            let start: Vec<f64> = (0..obj.dimension())
                .map(|_| rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI))
                .collect();
            let result = Lbfgs::with_max_iterations(300).minimize(&obj, &start);
            best = best.max(obj.fidelity(&result.x));
        }
        assert!(best > 0.8, "fidelity only reached {best}");
    }

    #[test]
    fn paper_shape_fine_tune_matches_pinned_golden_bits() {
        // An online fine-tune at the paper's shape (8 qubits, 8 CY layers,
        // the default 40-iteration budget), pinned as `f64::to_bits`. The
        // pins were captured from the loop-owning solo L-BFGS before it was
        // folded into `LbfgsDriver`, so they keep that trajectory checked bit
        // for bit on the symbolic kernel.
        const X: [u64; 64] = [
            0x3f931de008e1fd0e,
            0x3fc8959b7c61bd44,
            0x3f838637b606283f,
            0xbfc5189ccdb4bae8,
            0xbfb98add2929f7db,
            0x3e4eac806dce0e1a,
            0x3fc4f971ca343c92,
            0x3e80bb37b66a729e,
            0xbfc2cd825809cb44,
            0xbfc380bb5ce4c530,
            0xbf83864fdb8ecdc1,
            0x3fc1f770c06acf12,
            0x3fb9351a04212d07,
            0xbfc6dc2bf0b994bb,
            0xbfc412710a2d2a19,
            0x3fc4f69b70206593,
            0x3fca2aafd49d5596,
            0xbf9637a810540e5b,
            0xbfc56d7bfe8e0e1f,
            0xbfc207cac11340a7,
            0x3fc6175bd4316d2b,
            0x3fc61ae95fbff715,
            0xbfc06e8b929c9ec2,
            0xbfc419988fc09c90,
            0xbf98c320e20ab544,
            0x3fc68b5d9b44d6aa,
            0x3fc56d7b8b2ee717,
            0xbfc342896e5edb63,
            0xbfc6175c1a62c26c,
            0x3fb4735e3574c0dc,
            0x3fc06e8af31930a9,
            0x3f5cc029434faf41,
            0xbfbe77aac1e1befe,
            0xbfc6b03f242ed462,
            0x3fbd670565d19024,
            0x3fc3853452add932,
            0xbf9d4f6f6ff991f1,
            0xbfb601495fdec964,
            0xbfb058c362581b9b,
            0xbf916818b1aa1566,
            0x3fcba5b26d399042,
            0x3f95eb20dfdc2991,
            0xbfbd3e7b31fac9fa,
            0xbf9d03ac39faf90f,
            0x3f9dab87f2cfdd54,
            0x3fbd3b3a3d47f2a7,
            0x3fb107abffac486e,
            0xbfc56bd607e84454,
            0xbfb0a69bb91e9d58,
            0x3fc38a4531f944a1,
            0x3fb584f16c731be7,
            0x3f9d03b66ad88051,
            0xbfc323ebf6521dea,
            0xbfbd3b3cbf3dca27,
            0x3fc6edf6070be309,
            0x3fc56bd60ccb7504,
            0xbfb5b14029ebeba8,
            0xbfc8bcd1892fbcc4,
            0xbfb4b92eedf07e3b,
            0x3fc5309c5b458226,
            0x3fc393e718816b31,
            0x3f686a4850cb7642,
            0xbfc64da336788dfe,
            0x3f73b56b48923d32,
        ];
        let config = AnsatzConfig {
            num_qubits: 8,
            num_layers: 8,
            entangler: EntanglerKind::Cy,
        };
        let target: Vec<f64> = (0..config.dimension())
            .map(|i| 0.3 + ((i as f64) * 0.7).sin().abs())
            .collect();
        let obj = FidelityObjective::new(&config, &target).unwrap();
        let start: Vec<f64> = (0..obj.dimension())
            .map(|j| 0.2 * ((j as f64) * 1.3).sin())
            .collect();
        let result = Lbfgs::with_max_iterations(40).minimize(&obj, &start);
        assert_eq!(result.iterations, 12);
        assert_eq!(result.evaluations, 15);
        assert!(result.converged);
        assert_eq!(result.value.to_bits(), 0x3fb91a656a969548);
        assert_eq!(result.gradient_norm.to_bits(), 0x3eacfd12a5bf956f);
        let x: Vec<u64> = result.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(x, X);
    }

    #[test]
    fn invalid_targets_rejected() {
        let config = small_config();
        assert!(FidelityObjective::new(&config, &[1.0, 0.0]).is_err());
        assert!(FidelityObjective::new(&config, &[0.0; 8]).is_err());
    }

    #[test]
    fn batched_loss_is_bit_identical_to_solo_objectives() {
        let config = small_config();
        let symbolic = Arc::new(SymbolicState::from_ansatz(&config).unwrap());
        let mut rng = StdRng::seed_from_u64(17);
        for lanes in [1usize, 2, 7] {
            let objectives: Vec<FidelityObjective> = (0..lanes)
                .map(|_| {
                    let target: Vec<f64> = (0..symbolic.dim())
                        .map(|_| rng.gen_range(-1.0..1.0))
                        .collect();
                    FidelityObjective::with_symbolic(Arc::clone(&symbolic), &config, &target)
                        .unwrap()
                })
                .collect();
            let refs: Vec<&FidelityObjective> = objectives.iter().collect();
            let mut batched = BatchedFidelityObjective::new(&refs).unwrap();
            let p = batched.num_parameters();
            let thetas: Vec<f64> = (0..lanes * p).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let mut values = vec![0.0; lanes];
            let mut gradients = vec![0.0; lanes * p];
            batched.eval(&thetas, &mut values, &mut gradients).unwrap();
            for (b, obj) in objectives.iter().enumerate() {
                let mut solo_grad = vec![0.0; p];
                let solo_value =
                    obj.value_and_gradient_into(&thetas[b * p..(b + 1) * p], &mut solo_grad);
                assert_eq!(values[b].to_bits(), solo_value.to_bits(), "lane {b}");
                for (j, (bg, sg)) in gradients[b * p..(b + 1) * p]
                    .iter()
                    .zip(solo_grad.iter())
                    .enumerate()
                {
                    assert_eq!(bg.to_bits(), sg.to_bits(), "lane {b} component {j}");
                }
            }
        }
    }

    #[test]
    fn batched_loss_rejects_bad_shapes() {
        assert!(BatchedFidelityObjective::new(&[]).is_err());
        let config = small_config();
        let target: Vec<f64> = (1..=8).map(f64::from).collect();
        let obj = FidelityObjective::new(&config, &target).unwrap();
        let mut batched = BatchedFidelityObjective::new(&[&obj]).unwrap();
        let p = batched.num_parameters();
        let mut values = vec![0.0; 1];
        let mut gradients = vec![0.0; p];
        assert!(batched
            .eval(&vec![0.0; p - 1], &mut values, &mut gradients)
            .is_err());
        assert!(batched
            .eval(&vec![0.0; p], &mut [], &mut gradients)
            .is_err());
        assert!(batched
            .eval(&vec![0.0; p], &mut values, &mut gradients[..p - 1])
            .is_err());
    }
}
