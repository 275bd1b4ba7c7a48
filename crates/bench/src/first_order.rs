//! First-order optimisers (gradient descent and Adam), used as ablation
//! baselines against L-BFGS.

use crate::ablation::{norm, Optimizer};
use enq_optim::{Objective, OptimizeResult};

/// Plain gradient descent `θ ← θ − η·∇L(θ)` (Eq. 2 of the paper).
#[derive(Debug, Clone)]
pub struct GradientDescent {
    /// Learning rate η.
    pub learning_rate: f64,
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the gradient norm.
    pub gradient_tolerance: f64,
}

impl Default for GradientDescent {
    fn default() -> Self {
        Self {
            learning_rate: 0.1,
            max_iterations: 2000,
            gradient_tolerance: 1e-8,
        }
    }
}

impl Optimizer for GradientDescent {
    fn minimize(&self, objective: &dyn Objective, x0: &[f64]) -> OptimizeResult {
        assert_eq!(x0.len(), objective.dimension());
        let mut x = x0.to_vec();
        let mut evaluations = 0usize;
        let mut converged = false;
        let mut iterations = 0usize;
        let mut value = objective.value(&x);
        let mut gradient = vec![0.0; x.len()];
        evaluations += 1;
        for iter in 0..self.max_iterations {
            iterations = iter + 1;
            let (f, g) = objective.value_and_gradient(&x);
            evaluations += 1;
            value = f;
            gradient = g;
            if norm(&gradient) < self.gradient_tolerance {
                converged = true;
                break;
            }
            for (xi, gi) in x.iter_mut().zip(gradient.iter()) {
                *xi -= self.learning_rate * gi;
            }
        }
        OptimizeResult {
            gradient_norm: norm(&gradient),
            x,
            value,
            iterations,
            evaluations,
            converged,
        }
    }
}

/// The Adam optimiser (adaptive moment estimation).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub learning_rate: f64,
    /// First-moment decay rate.
    pub beta1: f64,
    /// Second-moment decay rate.
    pub beta2: f64,
    /// Numerical stabiliser.
    pub epsilon: f64,
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the gradient norm.
    pub gradient_tolerance: f64,
}

impl Default for Adam {
    fn default() -> Self {
        Self {
            learning_rate: 0.05,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            max_iterations: 2000,
            gradient_tolerance: 1e-8,
        }
    }
}

impl Optimizer for Adam {
    fn minimize(&self, objective: &dyn Objective, x0: &[f64]) -> OptimizeResult {
        assert_eq!(x0.len(), objective.dimension());
        let n = x0.len();
        let mut x = x0.to_vec();
        let mut m = vec![0.0; n];
        let mut v = vec![0.0; n];
        let mut evaluations = 0usize;
        let mut converged = false;
        let mut iterations = 0usize;
        let mut value = objective.value(&x);
        evaluations += 1;
        let mut gradient = vec![0.0; n];
        for iter in 0..self.max_iterations {
            iterations = iter + 1;
            let (f, g) = objective.value_and_gradient(&x);
            evaluations += 1;
            value = f;
            gradient = g;
            if norm(&gradient) < self.gradient_tolerance {
                converged = true;
                break;
            }
            let t = (iter + 1) as f64;
            for i in 0..n {
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * gradient[i];
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * gradient[i] * gradient[i];
                let m_hat = m[i] / (1.0 - self.beta1.powf(t));
                let v_hat = v[i] / (1.0 - self.beta2.powf(t));
                x[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
            }
        }
        OptimizeResult {
            gradient_norm: norm(&gradient),
            x,
            value,
            iterations,
            evaluations,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enq_optim::FnObjective;

    fn quadratic() -> impl Objective {
        FnObjective::new(
            3,
            |x: &[f64]| x.iter().map(|v| (v - 2.0) * (v - 2.0)).sum::<f64>(),
            |x: &[f64]| x.iter().map(|v| 2.0 * (v - 2.0)).collect(),
        )
    }

    #[test]
    fn gradient_descent_converges_on_quadratic() {
        let result = GradientDescent::default().minimize(&quadratic(), &[0.0, 5.0, -3.0]);
        assert!(result.converged);
        for v in &result.x {
            assert!((v - 2.0).abs() < 1e-5);
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let result = Adam::default().minimize(&quadratic(), &[0.0, 5.0, -3.0]);
        assert!(result.value < 1e-6, "value {}", result.value);
    }

    #[test]
    fn gradient_descent_with_tiny_budget_does_not_converge() {
        let gd = GradientDescent {
            max_iterations: 1,
            ..GradientDescent::default()
        };
        let result = gd.minimize(&quadratic(), &[10.0, 10.0, 10.0]);
        assert!(!result.converged);
        assert_eq!(result.iterations, 1);
    }

    #[test]
    fn adam_handles_poorly_scaled_problems() {
        let obj = FnObjective::new(
            2,
            |x: &[f64]| 1000.0 * x[0] * x[0] + 0.01 * x[1] * x[1],
            |x: &[f64]| vec![2000.0 * x[0], 0.02 * x[1]],
        );
        let adam = Adam {
            max_iterations: 8000,
            learning_rate: 0.1,
            ..Adam::default()
        };
        let result = adam.minimize(&obj, &[1.0, 1.0]);
        assert!(result.value < 1e-3, "value {}", result.value);
    }
}
