//! Ablation studies over EnQode's design choices: entangler gate, layer
//! count, optimiser, and transfer learning vs cold-start online compilation.
//!
//! These are not figures in the paper, but Sec. III motivates each choice
//! (CY entangler, 8 layers, L-BFGS with symbolic gradients, transfer
//! learning); the ablations quantify them on the same synthetic datasets.

use crate::context::DatasetContext;
use crate::experiment::ExperimentConfig;
use crate::report::markdown_table;
use crate::{Adam, GradientDescent, NelderMead};
use enq_optim::{Lbfgs, Objective, OptimizeResult};
use enqode::{
    AnsatzConfig, EnqodeConfig, EnqodeError, EnqodeModel, EntanglerKind, FidelityObjective,
};
use std::fmt;

/// A minimiser the optimiser ablation compares through dynamic dispatch.
pub trait Optimizer {
    /// Minimises `objective` starting from `x0`.
    fn minimize(&self, objective: &dyn Objective, x0: &[f64]) -> OptimizeResult;
}

impl Optimizer for Lbfgs {
    fn minimize(&self, objective: &dyn Objective, x0: &[f64]) -> OptimizeResult {
        Lbfgs::minimize(self, objective, x0)
    }
}

/// Returns the Euclidean norm of a vector.
pub(crate) fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Fidelity achieved for each entangler choice.
#[derive(Debug, Clone)]
pub struct EntanglerAblation {
    /// (entangler name, mean ideal fidelity over evaluated samples).
    pub rows: Vec<(String, f64)>,
}

/// Fidelity as a function of the number of ansatz layers.
#[derive(Debug, Clone)]
pub struct LayerAblation {
    /// (layer count, mean ideal fidelity).
    pub rows: Vec<(usize, f64)>,
}

/// Optimiser comparison on a single cluster mean.
#[derive(Debug, Clone)]
pub struct OptimizerAblation {
    /// (optimiser name, final fidelity, objective evaluations).
    pub rows: Vec<(String, f64, usize)>,
}

/// Transfer learning vs cold-start online compilation.
#[derive(Debug, Clone)]
pub struct TransferAblation {
    /// Mean online iterations with transfer-learning initialisation.
    pub transfer_iterations: f64,
    /// Mean online iterations starting from scratch.
    pub cold_iterations: f64,
    /// Mean fidelity with transfer-learning initialisation.
    pub transfer_fidelity: f64,
    /// Mean fidelity starting from scratch (same iteration budget).
    pub cold_fidelity: f64,
}

/// All ablation results.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Entangler-gate ablation.
    pub entangler: EntanglerAblation,
    /// Layer-count ablation.
    pub layers: LayerAblation,
    /// Optimiser ablation.
    pub optimizer: OptimizerAblation,
    /// Transfer-learning ablation.
    pub transfer: TransferAblation,
}

impl fmt::Display for AblationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Ablation: entangler gate ==")?;
        let rows: Vec<Vec<String>> = self
            .entangler
            .rows
            .iter()
            .map(|(name, fid)| vec![name.clone(), format!("{fid:.4}")])
            .collect();
        writeln!(
            f,
            "{}",
            markdown_table(&["entangler", "mean ideal fidelity"], &rows)
        )?;

        writeln!(f, "== Ablation: ansatz layers ==")?;
        let rows: Vec<Vec<String>> = self
            .layers
            .rows
            .iter()
            .map(|(l, fid)| vec![l.to_string(), format!("{fid:.4}")])
            .collect();
        writeln!(
            f,
            "{}",
            markdown_table(&["layers", "mean ideal fidelity"], &rows)
        )?;

        writeln!(f, "== Ablation: optimiser (single cluster mean) ==")?;
        let rows: Vec<Vec<String>> = self
            .optimizer
            .rows
            .iter()
            .map(|(name, fid, evals)| vec![name.clone(), format!("{fid:.4}"), evals.to_string()])
            .collect();
        writeln!(
            f,
            "{}",
            markdown_table(&["optimiser", "fidelity", "objective evaluations"], &rows)
        )?;

        writeln!(
            f,
            "== Ablation: transfer learning vs cold start (online) =="
        )?;
        writeln!(
            f,
            "{}",
            markdown_table(
                &["strategy", "mean iterations", "mean fidelity"],
                &[
                    vec![
                        "transfer learning".to_string(),
                        format!("{:.1}", self.transfer.transfer_iterations),
                        format!("{:.4}", self.transfer.transfer_fidelity),
                    ],
                    vec![
                        "cold start".to_string(),
                        format!("{:.1}", self.transfer.cold_iterations),
                        format!("{:.4}", self.transfer.cold_fidelity),
                    ],
                ],
            )
        )
    }
}

/// Runs every ablation on the first dataset context.
///
/// # Errors
///
/// Propagates training and embedding errors.
pub fn run(
    contexts: &[DatasetContext],
    config: &ExperimentConfig,
) -> Result<AblationResult, EnqodeError> {
    let ctx = contexts.first().ok_or(EnqodeError::NotTrained)?;
    let label = ctx.features.classes()[0];
    let class_data = ctx.features.class_subset(label)?;
    let eval_limit = config.eval_samples.min(class_data.len()).max(1);
    let eval_samples: Vec<&[f64]> = (0..eval_limit).map(|i| class_data.sample(i)).collect();

    // --- Entangler ablation -------------------------------------------------
    let mut entangler_rows = Vec::new();
    for entangler in [EntanglerKind::Cy, EntanglerKind::Cx, EntanglerKind::Cz] {
        let enq_config = EnqodeConfig {
            ansatz: AnsatzConfig {
                num_qubits: config.num_qubits,
                num_layers: config.num_layers,
                entangler,
            },
            ..config.enqode_config()
        };
        let model = EnqodeModel::fit(class_data.samples(), enq_config)?;
        let mean_fid = mean_fidelity(&model, &eval_samples)?;
        entangler_rows.push((format!("{entangler:?}"), mean_fid));
    }

    // --- Layer ablation ------------------------------------------------------
    let mut layer_rows = Vec::new();
    for layers in [2usize, 4, config.num_layers, config.num_layers + 4] {
        let enq_config = EnqodeConfig {
            ansatz: AnsatzConfig {
                num_qubits: config.num_qubits,
                num_layers: layers,
                entangler: EntanglerKind::Cy,
            },
            ..config.enqode_config()
        };
        let model = EnqodeModel::fit(class_data.samples(), enq_config)?;
        layer_rows.push((layers, mean_fidelity(&model, &eval_samples)?));
    }

    // --- Optimiser ablation --------------------------------------------------
    let base_model = ctx.model_for(label);
    let centroid = base_model.clusters()[0].centroid.clone();
    let ansatz = config.enqode_config().ansatz;
    let objective = FidelityObjective::new(&ansatz, &centroid)?;
    let start = vec![0.1; objective.dimension()];
    let mut optimizer_rows = Vec::new();
    let optimizers: Vec<(&str, Box<dyn Optimizer>)> = vec![
        ("L-BFGS", Box::new(Lbfgs::with_max_iterations(250))),
        (
            "Adam",
            Box::new(Adam {
                max_iterations: 500,
                ..Adam::default()
            }),
        ),
        (
            "Gradient descent",
            Box::new(GradientDescent {
                max_iterations: 500,
                ..GradientDescent::default()
            }),
        ),
        (
            "Nelder-Mead",
            Box::new(NelderMead {
                max_iterations: 2000,
                ..NelderMead::default()
            }),
        ),
    ];
    for (name, optimizer) in optimizers {
        let result = optimizer.minimize(&objective, &start);
        optimizer_rows.push((
            name.to_string(),
            objective.fidelity(&result.x),
            result.evaluations,
        ));
    }

    // --- Transfer learning ablation -------------------------------------------
    let mut transfer_iters = Vec::new();
    let mut transfer_fids = Vec::new();
    let mut cold_iters = Vec::new();
    let mut cold_fids = Vec::new();
    let online_budget = config.enqode_config().online_max_iterations;
    let owned_samples: Vec<Vec<f64>> = eval_samples.iter().map(|s| s.to_vec()).collect();
    for embedding in base_model.embed_batch(&owned_samples)? {
        transfer_iters.push(embedding.iterations as f64);
        transfer_fids.push(embedding.ideal_fidelity);
    }
    for sample in &eval_samples {
        let normalized = enq_data::l2_normalize(sample)?;
        let obj = FidelityObjective::new(&ansatz, &normalized)?;
        let cold =
            Lbfgs::with_max_iterations(online_budget).minimize(&obj, &vec![0.05; obj.dimension()]);
        cold_iters.push(cold.iterations as f64);
        cold_fids.push(obj.fidelity(&cold.x));
    }

    Ok(AblationResult {
        entangler: EntanglerAblation {
            rows: entangler_rows,
        },
        layers: LayerAblation { rows: layer_rows },
        optimizer: OptimizerAblation {
            rows: optimizer_rows,
        },
        transfer: TransferAblation {
            transfer_iterations: mean(&transfer_iters),
            cold_iterations: mean(&cold_iters),
            transfer_fidelity: mean(&transfer_fids),
            cold_fidelity: mean(&cold_fids),
        },
    })
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn mean_fidelity(model: &EnqodeModel, samples: &[&[f64]]) -> Result<f64, EnqodeError> {
    // One parallel sweep over the evaluation set via the batch API.
    let owned: Vec<Vec<f64>> = samples.iter().map(|s| s.to_vec()).collect();
    let embeddings = model.embed_batch(&owned)?;
    let acc: f64 = embeddings.iter().map(|e| e.ideal_fidelity).sum();
    Ok(acc / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::build_contexts;
    use enq_data::DatasetKind;

    #[test]
    fn ablations_run_on_tiny_config() {
        let cfg = ExperimentConfig::tiny();
        let contexts = build_contexts(&[DatasetKind::MnistLike], &cfg).unwrap();
        let result = run(&contexts, &cfg).unwrap();
        assert_eq!(result.entangler.rows.len(), 3);
        assert_eq!(result.layers.rows.len(), 4);
        assert_eq!(result.optimizer.rows.len(), 4);
        // L-BFGS with analytic gradients should not be the worst optimiser.
        let lbfgs_fid = result.optimizer.rows[0].1;
        assert!(lbfgs_fid > 0.5);
        // Fidelity should not decrease when layers increase from 2 to the
        // configured count.
        let first = result.layers.rows[0].1;
        let last = result.layers.rows[2].1;
        assert!(last >= first - 0.05);
        assert!(result.to_string().contains("Ablation"));
    }
}
