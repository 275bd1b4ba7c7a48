//! Criterion benchmark behind Figure 9: per-sample compilation time of the
//! Baseline (exact synthesis) vs EnQode (online transfer-learning
//! optimisation), plus the offline training cost per cluster.

use criterion::{criterion_group, criterion_main, Criterion};
use enq_bench::context::DatasetContext;
use enq_bench::experiment::ExperimentConfig;
use enq_data::DatasetKind;
use enq_optim::{Lbfgs, Objective};
use enqode::FidelityObjective;
use std::hint::black_box;
use std::time::Duration;

fn bench_fig9(c: &mut Criterion) {
    let config = ExperimentConfig::tiny();
    let ctx = DatasetContext::build(DatasetKind::MnistLike, &config)
        .expect("dataset preparation succeeds");
    let sample = ctx.features.sample(1).to_vec();
    let label = ctx.features.labels()[1];
    let model = ctx.model_for(label);
    let ansatz = config.enqode_config().ansatz;
    let centroid = model.clusters()[0].centroid.clone();

    let mut group = c.benchmark_group("fig9_compile_time");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("baseline_online_compile", |b| {
        b.iter(|| {
            let circuit = ctx.baseline.embed(black_box(&sample)).unwrap().circuit;
            black_box(ctx.transpiler.transpile(&circuit).unwrap())
        })
    });
    group.bench_function("enqode_online_compile", |b| {
        b.iter(|| {
            let embedding = model.embed(black_box(&sample)).unwrap();
            black_box(ctx.transpiler.transpile(&embedding.circuit).unwrap())
        })
    });
    group.bench_function("enqode_online_no_finetune", |b| {
        b.iter(|| {
            let embedding = model.embed_without_finetuning(black_box(&sample)).unwrap();
            black_box(ctx.transpiler.transpile(&embedding.circuit).unwrap())
        })
    });
    group.bench_function("enqode_offline_single_cluster", |b| {
        b.iter(|| {
            let objective = FidelityObjective::new(&ansatz, black_box(&centroid)).unwrap();
            let start = vec![0.1; objective.dimension()];
            black_box(Lbfgs::with_max_iterations(250).minimize(&objective, &start))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig9);
criterion_main!(benches);
