//! # enq-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! EnQode evaluation:
//!
//! * [`fig67`] — circuit depth, total gates, and physical 1q/2q gate counts
//!   (Fig. 6 and Fig. 7),
//! * [`fig8`] — ideal- and noisy-simulation state fidelity (Fig. 8a/8b),
//! * [`fig9`] — online/offline compilation times (Fig. 9a/9b),
//! * [`ablation`] — entangler, layer-count, optimiser, and transfer-learning
//!   ablations for the design choices of Sec. III, with the baseline
//!   optimisers only the ablation runs: [`GradientDescent`] and [`Adam`]
//!   (first-order) and [`NelderMead`] (derivative-free),
//! * [`serve`] — online-serving throughput and latency through `enq_serve`
//!   (micro-batching, solution cache, hot-path percentiles;
//!   regenerates `BENCH_serve.json`),
//! * [`fit`] — streaming (out-of-core) training vs the full-batch reference
//!   (incremental PCA + mini-batch k-means; regenerates `BENCH_fit.json`),
//! * [`net`] — the `enqd` TCP front door under controlled overload:
//!   goodput, admitted-tail latency, and typed-shed behaviour at 1×/2×/4×
//!   the measured capacity (regenerates `BENCH_net.json`),
//! * [`check`] — the `bench_check` regression gates CI enforces over every
//!   committed `BENCH_*.json` artifact.
//!
//! The `reproduce` binary drives these modules from the command line;
//! `cargo bench` runs criterion timing benchmarks over the same code paths.
//!
//! ```no_run
//! use enq_bench::{context::build_contexts, experiment::ExperimentConfig, fig67};
//! use enq_data::DatasetKind;
//!
//! let config = ExperimentConfig::quick();
//! let contexts = build_contexts(&DatasetKind::all(), &config)?;
//! let result = fig67::run(&contexts, &config)?;
//! println!("{result}");
//! # Ok::<(), enqode::EnqodeError>(())
//! ```

#![warn(missing_docs)]

pub mod ablation;
pub mod alloc_probe;
pub mod check;
pub mod context;
pub mod experiment;
pub mod fig67;
pub mod fig8;
pub mod fig9;
mod first_order;
pub mod fit;
mod nelder_mead;
pub mod net;
pub mod report;
pub mod serve;

pub use first_order::{Adam, GradientDescent};
pub use nelder_mead::NelderMead;

#[cfg(test)]
mod proptests {
    use super::ablation::Optimizer;
    use super::*;
    use enq_optim::{FnObjective, Lbfgs, Objective};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn optimisers_never_increase_the_objective(
            start in proptest::collection::vec(-2.0..2.0f64, 3),
        ) {
            let obj = FnObjective::new(
                3,
                |x: &[f64]| x.iter().map(|v| v.powi(4) + v * v).sum::<f64>(),
                |x: &[f64]| x.iter().map(|v| 4.0 * v.powi(3) + 2.0 * v).collect(),
            );
            let initial = obj.value(&start);
            for result in [
                Lbfgs::default().minimize(&obj, &start),
                GradientDescent::default().minimize(&obj, &start),
                Adam::default().minimize(&obj, &start),
                NelderMead::default().minimize(&obj, &start),
            ] {
                prop_assert!(result.value <= initial + 1e-9);
            }
        }
    }
}
