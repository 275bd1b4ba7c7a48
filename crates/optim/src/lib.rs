//! # enq-optim
//!
//! The optimiser that trains EnQode's ansatz parameters and fine-tunes every
//! embedded sample: limited-memory BFGS with a strong-Wolfe line search,
//! driven by exact gradients, as in the paper.
//!
//! * [`Lbfgs`] — the optimiser's parameters, with [`Lbfgs::minimize`] for a
//!   one-shot run,
//! * [`LbfgsDriver`] — the implementation: a resumable step machine that
//!   asks for each evaluation instead of calling the objective, so the
//!   batched embedding path can evaluate many optimisations in one kernel
//!   sweep, and whose buffers are reused across runs,
//! * [`Objective`] (with the closure-based [`FnObjective`]) and
//!   [`OptimizeResult`].
//!
//! ## Example
//!
//! ```
//! use enq_optim::{FnObjective, Lbfgs};
//!
//! let objective = FnObjective::new(
//!     1,
//!     |x| (x[0] - 0.5).powi(2),
//!     |x| vec![2.0 * (x[0] - 0.5)],
//! );
//! let result = Lbfgs::default().minimize(&objective, &[5.0]);
//! assert!((result.x[0] - 0.5).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

mod driver;
mod lbfgs;
mod objective;

pub use driver::LbfgsDriver;
pub use lbfgs::Lbfgs;
pub use objective::{FnObjective, Objective, OptimizeResult};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn lbfgs_finds_minimum_of_random_convex_quadratics(
            center in proptest::collection::vec(-3.0..3.0f64, 4),
            scales in proptest::collection::vec(0.5..5.0f64, 4),
            start in proptest::collection::vec(-3.0..3.0f64, 4),
        ) {
            let c = center.clone();
            let s = scales.clone();
            let c2 = center.clone();
            let s2 = scales.clone();
            let obj = FnObjective::new(
                4,
                move |x: &[f64]| {
                    x.iter()
                        .zip(c.iter())
                        .zip(s.iter())
                        .map(|((xi, ci), si)| si * (xi - ci) * (xi - ci))
                        .sum()
                },
                move |x: &[f64]| {
                    x.iter()
                        .zip(c2.iter())
                        .zip(s2.iter())
                        .map(|((xi, ci), si)| 2.0 * si * (xi - ci))
                        .collect()
                },
            );
            let result = Lbfgs::default().minimize(&obj, &start);
            for (xi, ci) in result.x.iter().zip(center.iter()) {
                prop_assert!((xi - ci).abs() < 1e-4);
            }
        }
    }
}
