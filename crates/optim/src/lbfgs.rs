//! Limited-memory BFGS, the optimiser the paper uses for EnQode's symbolic
//! loss.

use crate::driver::LbfgsDriver;
use crate::objective::{Objective, OptimizeResult};

/// Limited-memory BFGS with a strong-Wolfe line search.
///
/// This mirrors the role of `scipy.optimize.minimize(method="L-BFGS-B")` in
/// the paper (without bound constraints, which EnQode does not need: the `Rz`
/// angles are unconstrained and 2π-periodic).
///
/// `Lbfgs` holds the parameters; the algorithm and all its working storage
/// live in [`LbfgsDriver`]. [`Lbfgs::minimize`] runs a fresh driver; reuse
/// one driver through [`LbfgsDriver::restart`] to optimise many problems
/// without allocating. The iteration loop itself performs **zero heap
/// allocations**.
///
/// # Examples
///
/// ```
/// use enq_optim::{FnObjective, Lbfgs};
///
/// // Minimise a shifted quadratic.
/// let obj = FnObjective::new(
///     2,
///     |x| (x[0] - 3.0).powi(2) + 2.0 * (x[1] + 1.0).powi(2),
///     |x| vec![2.0 * (x[0] - 3.0), 4.0 * (x[1] + 1.0)],
/// );
/// let result = Lbfgs::default().minimize(&obj, &[0.0, 0.0]);
/// assert!(result.converged);
/// assert!((result.x[0] - 3.0).abs() < 1e-6);
/// assert!((result.x[1] + 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Lbfgs {
    /// Number of curvature pairs kept for the inverse-Hessian approximation.
    pub memory: usize,
    /// Maximum number of outer iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the gradient norm.
    pub gradient_tolerance: f64,
    /// Convergence threshold on the relative objective decrease.
    pub value_tolerance: f64,
}

impl Default for Lbfgs {
    fn default() -> Self {
        Self {
            memory: 10,
            max_iterations: 200,
            gradient_tolerance: 1e-8,
            value_tolerance: 1e-12,
        }
    }
}

impl Lbfgs {
    /// Creates an optimiser with the given iteration budget, keeping the
    /// other parameters at their defaults.
    pub fn with_max_iterations(max_iterations: usize) -> Self {
        Self {
            max_iterations,
            ..Self::default()
        }
    }

    /// Minimises `objective` from `x0`.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len()` differs from the objective dimension.
    pub fn minimize(&self, objective: &dyn Objective, x0: &[f64]) -> OptimizeResult {
        LbfgsDriver::new(self.clone(), x0).run(objective)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnObjective;

    fn rosenbrock() -> impl Objective {
        FnObjective::new(
            2,
            |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2),
            |x: &[f64]| {
                vec![
                    -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]),
                    200.0 * (x[1] - x[0] * x[0]),
                ]
            },
        )
    }

    #[test]
    fn minimises_rosenbrock() {
        let result = Lbfgs::default().minimize(&rosenbrock(), &[-1.2, 1.0]);
        assert!(result.converged, "did not converge: {result:?}");
        assert!((result.x[0] - 1.0).abs() < 1e-5, "{:?}", result.x);
        assert!((result.x[1] - 1.0).abs() < 1e-5);
        assert!(result.value < 1e-9);
    }

    #[test]
    fn minimises_high_dimensional_quadratic() {
        let n = 50;
        let obj = FnObjective::new(
            n,
            move |x: &[f64]| {
                x.iter()
                    .enumerate()
                    .map(|(i, v)| (i as f64 + 1.0) * (v - 1.0) * (v - 1.0))
                    .sum()
            },
            move |x: &[f64]| {
                x.iter()
                    .enumerate()
                    .map(|(i, v)| 2.0 * (i as f64 + 1.0) * (v - 1.0))
                    .collect()
            },
        );
        let result = Lbfgs::default().minimize(&obj, &vec![0.0; n]);
        assert!(result.converged);
        for v in &result.x {
            assert!((v - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn minimises_trigonometric_objective() {
        // Similar structure to EnQode's fidelity loss: 1 - |Σ cos terms|².
        let obj = FnObjective::new(
            3,
            |x: &[f64]| 3.0 - x.iter().map(|v| v.cos()).sum::<f64>(),
            |x: &[f64]| x.iter().map(|v| v.sin()).collect(),
        );
        let result = Lbfgs::default().minimize(&obj, &[0.5, -0.4, 0.3]);
        assert!(result.converged);
        assert!(result.value < 1e-8);
        for v in &result.x {
            assert!(v.abs() < 1e-4);
        }
    }

    #[test]
    fn starting_at_minimum_converges_immediately() {
        let obj = FnObjective::new(
            2,
            |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>(),
            |x: &[f64]| x.iter().map(|v| 2.0 * v).collect(),
        );
        let result = Lbfgs::default().minimize(&obj, &[0.0, 0.0]);
        assert!(result.converged);
        assert_eq!(result.iterations, 1);
        assert!(result.value < 1e-15);
    }

    #[test]
    fn respects_iteration_budget() {
        let result = Lbfgs {
            max_iterations: 2,
            gradient_tolerance: 1e-20,
            value_tolerance: 0.0,
            memory: 5,
        }
        .minimize(&rosenbrock(), &[-1.2, 1.0]);
        assert!(result.iterations <= 2);
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        // Reusing one driver's buffers across problems of different
        // dimensions must not change any result.
        let optimizer = Lbfgs::default();
        let big = FnObjective::new(
            6,
            |x: &[f64]| x.iter().map(|v| (v - 2.0) * (v - 2.0)).sum::<f64>(),
            |x: &[f64]| x.iter().map(|v| 2.0 * (v - 2.0)).collect(),
        );
        let mut driver = LbfgsDriver::new(optimizer.clone(), &[0.0; 6]);
        let reused_big = driver.run(&big);
        driver.restart(optimizer.clone(), &[-1.2, 1.0]);
        let reused_small = driver.run(&rosenbrock());
        let fresh_big = optimizer.minimize(&big, &[0.0; 6]);
        let fresh_small = optimizer.minimize(&rosenbrock(), &[-1.2, 1.0]);
        assert_eq!(reused_big, fresh_big);
        assert_eq!(reused_small, fresh_small);
    }

    #[test]
    #[should_panic]
    fn wrong_dimension_panics() {
        let obj = FnObjective::new(
            2,
            |x: &[f64]| x.iter().sum(),
            |x: &[f64]| vec![1.0; x.len()],
        );
        let _ = Lbfgs::default().minimize(&obj, &[0.0; 3]);
    }
}
