//! Derivative-free Nelder-Mead simplex optimiser.
//!
//! Included as an ablation baseline: it shows what EnQode's training would
//! cost without the symbolic Jacobian (every probe is a full objective
//! evaluation and convergence is much slower than L-BFGS).

use crate::ablation::{norm, Optimizer};
use enq_optim::{Objective, OptimizeResult};

/// The Nelder-Mead downhill-simplex method.
#[derive(Debug, Clone)]
pub struct NelderMead {
    /// Maximum number of iterations (simplex updates).
    pub max_iterations: usize,
    /// Convergence threshold on the simplex value spread.
    pub tolerance: f64,
    /// Size of the initial simplex around the starting point.
    pub initial_step: f64,
}

impl Default for NelderMead {
    fn default() -> Self {
        Self {
            max_iterations: 5000,
            tolerance: 1e-10,
            initial_step: 0.5,
        }
    }
}

impl Optimizer for NelderMead {
    fn minimize(&self, objective: &dyn Objective, x0: &[f64]) -> OptimizeResult {
        let n = objective.dimension();
        assert_eq!(x0.len(), n);
        let alpha = 1.0; // reflection
        let gamma = 2.0; // expansion
        let rho = 0.5; // contraction
        let sigma = 0.5; // shrink

        let mut evaluations = 0usize;
        let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        simplex.push(x0.to_vec());
        for i in 0..n {
            let mut p = x0.to_vec();
            p[i] += self.initial_step;
            simplex.push(p);
        }
        let mut values: Vec<f64> = simplex
            .iter()
            .map(|p| {
                evaluations += 1;
                objective.value(p)
            })
            .collect();

        let mut iterations = 0usize;
        let mut converged = false;
        for iter in 0..self.max_iterations {
            iterations = iter + 1;
            // Sort simplex by value.
            let mut order: Vec<usize> = (0..simplex.len()).collect();
            order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite values"));
            simplex = order.iter().map(|&i| simplex[i].clone()).collect();
            values = order.iter().map(|&i| values[i]).collect();

            if (values[n] - values[0]).abs() < self.tolerance {
                converged = true;
                break;
            }

            // Centroid of all but the worst point.
            let mut centroid = vec![0.0; n];
            for p in simplex.iter().take(n) {
                for (c, v) in centroid.iter_mut().zip(p.iter()) {
                    *c += v / n as f64;
                }
            }
            let worst = simplex[n].clone();
            let reflect: Vec<f64> = centroid
                .iter()
                .zip(worst.iter())
                .map(|(c, w)| c + alpha * (c - w))
                .collect();
            let f_reflect = objective.value(&reflect);
            evaluations += 1;

            if f_reflect < values[0] {
                // Try expansion.
                let expand: Vec<f64> = centroid
                    .iter()
                    .zip(worst.iter())
                    .map(|(c, w)| c + gamma * (c - w))
                    .collect();
                let f_expand = objective.value(&expand);
                evaluations += 1;
                if f_expand < f_reflect {
                    simplex[n] = expand;
                    values[n] = f_expand;
                } else {
                    simplex[n] = reflect;
                    values[n] = f_reflect;
                }
            } else if f_reflect < values[n - 1] {
                simplex[n] = reflect;
                values[n] = f_reflect;
            } else {
                // Contraction.
                let contract: Vec<f64> = centroid
                    .iter()
                    .zip(worst.iter())
                    .map(|(c, w)| c + rho * (w - c))
                    .collect();
                let f_contract = objective.value(&contract);
                evaluations += 1;
                if f_contract < values[n] {
                    simplex[n] = contract;
                    values[n] = f_contract;
                } else {
                    // Shrink towards the best point.
                    let best = simplex[0].clone();
                    for i in 1..=n {
                        let shrunk: Vec<f64> = best
                            .iter()
                            .zip(simplex[i].iter())
                            .map(|(b, p)| b + sigma * (p - b))
                            .collect();
                        values[i] = objective.value(&shrunk);
                        evaluations += 1;
                        simplex[i] = shrunk;
                    }
                }
            }
        }

        let mut best_idx = 0;
        for i in 1..values.len() {
            if values[i] < values[best_idx] {
                best_idx = i;
            }
        }
        OptimizeResult {
            gradient_norm: norm(&objective.gradient(&simplex[best_idx])),
            x: simplex[best_idx].clone(),
            value: values[best_idx],
            iterations,
            evaluations,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enq_optim::{FnObjective, Lbfgs};

    fn sphere() -> impl Objective {
        FnObjective::new(
            3,
            |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>(),
            |x: &[f64]| x.iter().map(|v| 2.0 * v).collect(),
        )
    }

    #[test]
    fn converges_on_sphere() {
        let result = NelderMead::default().minimize(&sphere(), &[1.0, -2.0, 0.5]);
        assert!(result.converged);
        assert!(result.value < 1e-8);
    }

    #[test]
    fn uses_more_evaluations_than_lbfgs() {
        let nm = NelderMead::default().minimize(&sphere(), &[1.0, -2.0, 0.5]);
        let lbfgs = Lbfgs::default().minimize(&sphere(), &[1.0, -2.0, 0.5]);
        assert!(
            nm.evaluations > lbfgs.evaluations,
            "nelder-mead {} vs l-bfgs {}",
            nm.evaluations,
            lbfgs.evaluations
        );
    }

    #[test]
    fn respects_iteration_budget() {
        let nm = NelderMead {
            max_iterations: 3,
            ..NelderMead::default()
        };
        let result = nm.minimize(&sphere(), &[5.0, 5.0, 5.0]);
        assert!(result.iterations <= 3);
        assert!(!result.converged);
    }
}
