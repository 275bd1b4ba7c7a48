//! Criterion benchmarks for the design-choice ablations: the symbolic
//! representation vs full statevector simulation, and the optimiser choice.

use criterion::{criterion_group, criterion_main, Criterion};
use enq_bench::ablation::Optimizer;
use enq_bench::Adam;
use enq_optim::{Lbfgs, Objective};
use enq_qsim::Statevector;
use enqode::{AnsatzConfig, EntanglerKind, FidelityObjective, SymbolicState};
use std::hint::black_box;
use std::time::Duration;

fn bench_ablations(c: &mut Criterion) {
    let ansatz = AnsatzConfig {
        num_qubits: 6,
        num_layers: 6,
        entangler: EntanglerKind::Cy,
    };
    let symbolic = SymbolicState::from_ansatz(&ansatz).expect("valid ansatz");
    let theta: Vec<f64> = (0..ansatz.num_parameters())
        .map(|j| 0.11 * j as f64 - 1.0)
        .collect();
    let target: Vec<f64> = (0..ansatz.dimension())
        .map(|i| 0.4 + ((i as f64) * 0.37).sin().abs())
        .collect();
    let objective = FidelityObjective::new(&ansatz, &target).expect("valid target");
    let bound_circuit = ansatz.build_bound(&theta).expect("bound circuit");
    let start = vec![0.1; objective.dimension()];

    let mut group = c.benchmark_group("ablations");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    // The symbolic representation replaces repeated statevector simulation:
    // compare one loss+gradient evaluation against one full circuit
    // simulation.
    group.bench_function("symbolic_loss_and_gradient", |b| {
        b.iter(|| black_box(objective.value_and_gradient(black_box(&theta))))
    });
    group.bench_function("statevector_simulation_of_ansatz", |b| {
        b.iter(|| black_box(Statevector::from_circuit(black_box(&bound_circuit)).unwrap()))
    });
    group.bench_function("symbolic_amplitudes_only", |b| {
        b.iter(|| black_box(symbolic.amplitudes(black_box(&theta)).unwrap()))
    });
    // Optimiser choice on the same objective and budgeted iterations.
    group.bench_function("train_cluster_lbfgs_50_iters", |b| {
        b.iter(|| black_box(Lbfgs::with_max_iterations(50).minimize(&objective, &start)))
    });
    group.bench_function("train_cluster_adam_50_iters", |b| {
        b.iter(|| {
            let adam = Adam {
                max_iterations: 50,
                ..Adam::default()
            };
            black_box(adam.minimize(&objective, &start))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
