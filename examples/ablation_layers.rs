//! Ablation over the ansatz depth: embedding fidelity and hardware cost as a
//! function of the number of `Rz`+`CY` layers, justifying the paper's choice
//! of 8 layers for 8 qubits.
//!
//! ```text
//! cargo run --release -p enqode --example ablation_layers
//! ```

use enq_circuit::{Topology, Transpiler};
use enq_optim::{Lbfgs, Objective};
use enqode::{AnsatzConfig, EnqodeError, EntanglerKind, FidelityObjective};

fn main() -> Result<(), EnqodeError> {
    const NUM_QUBITS: usize = 5;
    let dim = 1usize << NUM_QUBITS;
    // A dense PCA-like target vector.
    let target: Vec<f64> = (0..dim)
        .map(|i| 0.5 + 0.45 * ((i as f64) * 0.61).sin() + 0.1 * ((i as f64) * 0.17).cos())
        .collect();

    let transpiler = Transpiler::new(Topology::linear(NUM_QUBITS));
    println!("layers | parameters | ideal fidelity | physical depth | 2q gates | optimiser iters");
    for layers in [1usize, 2, 4, 6, 8, 12, 16] {
        let config = AnsatzConfig {
            num_qubits: NUM_QUBITS,
            num_layers: layers,
            entangler: EntanglerKind::Cy,
        };
        let objective = FidelityObjective::new(&config, &target)?;
        // Two restarts, keep the best.
        let optimizer = Lbfgs::with_max_iterations(300);
        let mut best_fidelity = 0.0;
        let mut best_theta = vec![0.0; objective.dimension()];
        let mut iterations = 0;
        for restart in 0..2 {
            let start: Vec<f64> = (0..objective.dimension())
                .map(|j| 0.1 + 0.37 * (j as f64 + restart as f64 * 7.3).sin())
                .collect();
            let result = optimizer.minimize(&objective, &start);
            let fidelity = objective.fidelity(&result.x);
            if fidelity > best_fidelity {
                best_fidelity = fidelity;
                best_theta = result.x;
                iterations = result.iterations;
            }
        }
        let circuit = config.build_bound(&best_theta)?;
        let metrics = transpiler.transpile(&circuit)?.metrics;
        println!(
            "{layers:>6} | {:>10} | {best_fidelity:>14.4} | {:>14} | {:>8} | {iterations:>15}",
            config.num_parameters(),
            metrics.depth,
            metrics.two_qubit_gates
        );
    }
    println!();
    println!(
        "The fidelity saturates once the parameter count approaches the number of\n\
         amplitudes it must steer, while depth and two-qubit cost keep growing —\n\
         the trade-off behind the paper's 8-layer choice."
    );
    Ok(())
}
