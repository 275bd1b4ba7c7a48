//! The objective-function abstraction and the optimisation result.

/// A smooth scalar objective with an analytic gradient.
///
/// EnQode's symbolic representation exists precisely to make
/// [`Objective::gradient`] cheap and exact (no finite differences), which is
/// what lets the quasi-Newton optimiser converge in a handful of iterations.
pub trait Objective {
    /// Number of optimisation variables.
    fn dimension(&self) -> usize;

    /// Evaluates the objective at `x`.
    fn value(&self, x: &[f64]) -> f64;

    /// Evaluates the gradient at `x`.
    fn gradient(&self, x: &[f64]) -> Vec<f64>;

    /// Evaluates objective and gradient together. Override when they share
    /// work (the default calls both separately).
    fn value_and_gradient(&self, x: &[f64]) -> (f64, Vec<f64>) {
        (self.value(x), self.gradient(x))
    }

    /// Evaluates objective and gradient, writing the gradient into a
    /// caller-provided buffer of length [`Objective::dimension`].
    ///
    /// Hot-path objectives (EnQode's fidelity loss) override this to avoid
    /// any per-evaluation heap allocation; [`crate::LbfgsDriver::run`] calls
    /// it for every evaluation. The default delegates to
    /// [`Objective::value_and_gradient`].
    ///
    /// # Panics
    ///
    /// Panics if `gradient.len()` differs from the objective dimension.
    fn value_and_gradient_into(&self, x: &[f64], gradient: &mut [f64]) -> f64 {
        let (value, g) = self.value_and_gradient(x);
        gradient.copy_from_slice(&g);
        value
    }
}

/// The result of an optimisation run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeResult {
    /// The best point found.
    pub x: Vec<f64>,
    /// The objective value at [`OptimizeResult::x`].
    pub value: f64,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// Number of objective (value or value+gradient) evaluations.
    pub evaluations: usize,
    /// Euclidean norm of the gradient at the final point (if computed).
    pub gradient_norm: f64,
    /// Whether the optimiser met its convergence criterion (as opposed to
    /// running out of iterations).
    pub converged: bool,
}

/// An [`Objective`] defined by closures, convenient for tests and examples.
///
/// # Examples
///
/// ```
/// use enq_optim::{FnObjective, Objective};
///
/// let sphere = FnObjective::new(
///     2,
///     |x| x.iter().map(|v| v * v).sum(),
///     |x| x.iter().map(|v| 2.0 * v).collect(),
/// );
/// assert_eq!(sphere.value(&[0.0, 0.0]), 0.0);
/// ```
pub struct FnObjective<V, G>
where
    V: Fn(&[f64]) -> f64,
    G: Fn(&[f64]) -> Vec<f64>,
{
    dimension: usize,
    value_fn: V,
    gradient_fn: G,
}

impl<V, G> FnObjective<V, G>
where
    V: Fn(&[f64]) -> f64,
    G: Fn(&[f64]) -> Vec<f64>,
{
    /// Creates an objective from value and gradient closures.
    pub fn new(dimension: usize, value_fn: V, gradient_fn: G) -> Self {
        Self {
            dimension,
            value_fn,
            gradient_fn,
        }
    }
}

impl<V, G> Objective for FnObjective<V, G>
where
    V: Fn(&[f64]) -> f64,
    G: Fn(&[f64]) -> Vec<f64>,
{
    fn dimension(&self) -> usize {
        self.dimension
    }

    fn value(&self, x: &[f64]) -> f64 {
        (self.value_fn)(x)
    }

    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        (self.gradient_fn)(x)
    }
}

/// Returns the Euclidean norm of a vector.
pub(crate) fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Returns the dot product of two equal-length vectors.
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_objective_delegates() {
        let obj = FnObjective::new(
            3,
            |x: &[f64]| x.iter().sum(),
            |x: &[f64]| vec![1.0; x.len()],
        );
        assert_eq!(obj.dimension(), 3);
        assert_eq!(obj.value(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(obj.gradient(&[1.0, 2.0, 3.0]), vec![1.0, 1.0, 1.0]);
        let (v, g) = obj.value_and_gradient(&[1.0, 1.0, 1.0]);
        assert_eq!(v, 3.0);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn helpers() {
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }
}
