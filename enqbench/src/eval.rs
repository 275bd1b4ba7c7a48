//! The paper's per-circuit evaluation (Figs. 6–8), split into the calls
//! each layer owns so that every call can be timed on its own: transpile
//! (`enq_circuit`), ideal statevector and noisy density-matrix simulation
//! (`enq_qsim`).

use crate::fail;
use crate::report::Metrics;
use crate::stats::{self, Samples};
use enq_circuit::{CircuitMetrics, Layout, QuantumCircuit, Transpiler};
use enq_linalg::{CVector, C64};
use enq_optim::Objective;
use enq_qsim::{NoisySimulator, Statevector};
use enqode::{EnqodePipeline, FidelityObjective, BASELINE_SYNTHESIS_TOLERANCE};
use std::time::Instant;

/// Kernel evaluations timed for `core.kernel_us`.
const KERNEL_CALLS: usize = 200;

/// Start and end of one timed call.
pub type Interval = (Instant, Instant);

/// One circuit taken to hardware and simulated.
#[derive(Debug, Clone)]
pub struct Leg {
    /// Register size.
    pub num_qubits: usize,
    /// Metrics of the routed, native-basis circuit.
    pub metrics: CircuitMetrics,
    /// Routing SWAPs inserted.
    pub swaps: usize,
    /// Ideal fidelity against the amplitude-embedded target.
    pub ideal: f64,
    /// Noisy fidelity, when a simulator was given.
    pub noisy: Option<f64>,
    /// Instructions the noisy simulation applied (gates of the routed
    /// circuit).
    pub noisy_ops: usize,
    /// `Transpiler::transpile`.
    pub transpile: Interval,
    /// `Statevector::from_circuit`.
    pub ideal_sim: Interval,
    /// `NoisySimulator::run`.
    pub noisy_sim: Option<Interval>,
}

/// Permutes the logical target into the routed circuit's physical qubit
/// order (the final layout of the routing).
fn physical_target(
    features: &[f64],
    layout: &Layout,
    num_qubits: usize,
) -> Result<CVector, String> {
    let target = enqode::target_state(features).map_err(fail("target state"))?;
    let out = (0..1usize << num_qubits)
        .map(|physical| {
            let logical = (0..num_qubits)
                .filter(|p| (physical >> p) & 1 == 1)
                .fold(0usize, |acc, p| acc | 1 << layout.logical(p).unwrap_or(p));
            target[logical]
        })
        .collect::<Vec<C64>>();
    Ok(CVector::new(out))
}

/// Transpiles `circuit`, simulates it ideally (and with noise when `noisy`
/// is given) and scores both against the target state of `features`.
pub fn leg(
    circuit: &QuantumCircuit,
    features: &[f64],
    transpiler: &Transpiler,
    noisy: Option<&NoisySimulator>,
) -> Result<Leg, String> {
    let n = circuit.num_qubits();
    let t0 = Instant::now();
    let routed = transpiler.transpile(circuit).map_err(fail("transpile"))?;
    let t1 = Instant::now();
    let target = physical_target(features, &routed.final_layout, n)?;
    let t2 = Instant::now();
    let state = Statevector::from_circuit(&routed.circuit).map_err(fail("ideal simulation"))?;
    let t3 = Instant::now();
    let ideal = state
        .to_cvector()
        .overlap_fidelity(&target)
        .map_err(fail("ideal fidelity"))?;
    let (noisy, noisy_sim) = match noisy {
        Some(sim) => {
            let t4 = Instant::now();
            let rho = sim.run(&routed.circuit).map_err(fail("noisy simulation"))?;
            let t5 = Instant::now();
            let f = rho
                .fidelity_with_pure(&target)
                .map_err(fail("noisy fidelity"))?;
            (Some(f), Some((t4, t5)))
        }
        None => (None, None),
    };
    Ok(Leg {
        num_qubits: n,
        metrics: routed.metrics,
        swaps: routed.swap_count,
        ideal,
        noisy,
        noisy_ops: routed.circuit.len(),
        transpile: (t0, t1),
        ideal_sim: (t2, t3),
        noisy_sim,
    })
}

/// Bytes a density-matrix simulation of `ops` operations on `num_qubits`
/// qubits moves, computed from array sizes rather than measured: each
/// operation reads and writes the whole `4^n`-entry matrix of 16-byte
/// complex numbers.
pub fn density_bytes(ops: usize, num_qubits: usize) -> f64 {
    ops as f64 * 2.0 * 16.0 * 4f64.powi(num_qubits as i32)
}

/// Whether a fidelity lies in [0, 1], up to 1e-9 of floating-point
/// round-off.
pub fn in_unit_interval(f: f64) -> bool {
    (-1e-9..=1.0 + 1e-9).contains(&f)
}

/// Running totals of the evaluation of baseline/EnQode sample pairs.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Pairs added.
    pub samples: usize,
    depth_base: Vec<f64>,
    depth_enq: Vec<f64>,
    twoq_base: Vec<f64>,
    twoq_enq: Vec<f64>,
    swaps_base: Vec<f64>,
    ideal_enq: Vec<f64>,
    noisy_base: Vec<f64>,
    noisy_enq: Vec<f64>,
    noisy_bytes: Vec<f64>,
    synth: Samples,
    transpile_base: Samples,
    transpile_enq: Samples,
    ideal: Samples,
    noisy_base_t: Samples,
    noisy_enq_t: Samples,
}

fn took((start, end): Interval) -> std::time::Duration {
    end - start
}

impl Tally {
    /// Adds one sample's baseline and EnQode legs and the baseline's
    /// synthesis call. Returns whether the pair passes its output checks:
    /// every fidelity in [0, 1] and the baseline's ideal fidelity within
    /// `BASELINE_SYNTHESIS_TOLERANCE` of 1.
    pub fn add(&mut self, base: &Leg, enq: &Leg, synth: Interval) -> bool {
        self.samples += 1;
        self.depth_base.push(base.metrics.depth as f64);
        self.depth_enq.push(enq.metrics.depth as f64);
        self.twoq_base.push(base.metrics.two_qubit_gates as f64);
        self.twoq_enq.push(enq.metrics.two_qubit_gates as f64);
        self.swaps_base.push(base.swaps as f64);
        self.ideal_enq.push(enq.ideal);
        self.synth.push_us(took(synth));
        self.transpile_base.push_us(took(base.transpile));
        self.transpile_enq.push_us(took(enq.transpile));
        self.ideal.push_us(took(base.ideal_sim));
        self.ideal.push_us(took(enq.ideal_sim));
        let mut fidelities = vec![base.ideal, enq.ideal];
        let n = base.num_qubits;
        if let (Some(fb), Some(fe), Some(tb), Some(te)) =
            (base.noisy, enq.noisy, base.noisy_sim, enq.noisy_sim)
        {
            self.noisy_base.push(fb);
            self.noisy_enq.push(fe);
            self.noisy_base_t.push_us(took(tb));
            self.noisy_enq_t.push_us(took(te));
            self.noisy_bytes
                .push(density_bytes(base.noisy_ops + enq.noisy_ops, n));
            fidelities.extend([fb, fe]);
        }
        fidelities.iter().all(|&f| in_unit_interval(f))
            && (1.0 - base.ideal).abs() <= BASELINE_SYNTHESIS_TOLERANCE
    }

    /// Adds every pair of `other`.
    pub fn merge(&mut self, other: Tally) {
        self.samples += other.samples;
        self.depth_base.extend(other.depth_base);
        self.depth_enq.extend(other.depth_enq);
        self.twoq_base.extend(other.twoq_base);
        self.twoq_enq.extend(other.twoq_enq);
        self.swaps_base.extend(other.swaps_base);
        self.ideal_enq.extend(other.ideal_enq);
        self.noisy_base.extend(other.noisy_base);
        self.noisy_enq.extend(other.noisy_enq);
        self.noisy_bytes.extend(other.noisy_bytes);
        self.synth.extend(other.synth);
        self.transpile_base.extend(other.transpile_base);
        self.transpile_enq.extend(other.transpile_enq);
        self.ideal.extend(other.ideal);
        self.noisy_base_t.extend(other.noisy_base_t);
        self.noisy_enq_t.extend(other.noisy_enq_t);
    }

    /// Whether every EnQode circuit had the same transpiled depth (σ = 0).
    pub fn enqode_depth_fixed(&self) -> bool {
        stats::stddev(&self.depth_enq) == 0.0
    }

    /// Mean baseline depth over mean EnQode depth.
    pub fn depth_reduction(&self) -> f64 {
        stats::mean(&self.depth_base) / stats::mean(&self.depth_enq)
    }

    /// Mean baseline 2q-gate count over mean EnQode 2q-gate count.
    pub fn twoq_reduction(&self) -> f64 {
        stats::mean(&self.twoq_base) / stats::mean(&self.twoq_enq)
    }

    /// Mean ideal fidelity of the EnQode circuits.
    pub fn mean_enqode_fidelity(&self) -> f64 {
        stats::mean(&self.ideal_enq)
    }

    /// Writes the `stateprep`, `circuit` and `qsim` per-layer metrics.
    pub fn write_layers(&self, m: &mut Metrics) {
        m.set("stateprep.synth_us.p50", self.synth.pct(50.0));
        m.set(
            "circuit.transpile_us.p50.baseline",
            self.transpile_base.pct(50.0),
        );
        m.set(
            "circuit.transpile_us.p50.enqode",
            self.transpile_enq.pct(50.0),
        );
        m.set("circuit.depth.baseline", stats::mean(&self.depth_base));
        m.set("circuit.depth.enqode", stats::mean(&self.depth_enq));
        m.set(
            "circuit.depth_stddev.enqode",
            stats::stddev(&self.depth_enq),
        );
        m.set("circuit.swaps.baseline", stats::mean(&self.swaps_base));
        m.set("qsim.ideal_us.p50", self.ideal.pct(50.0));
        if !self.noisy_base.is_empty() {
            let (fb, fe) = (stats::mean(&self.noisy_base), stats::mean(&self.noisy_enq));
            m.set("qsim.noisy_us.p50.baseline", self.noisy_base_t.pct(50.0));
            m.set("qsim.noisy_us.p50.enqode", self.noisy_enq_t.pct(50.0));
            m.set("qsim.noisy_bytes", stats::mean(&self.noisy_bytes));
            m.set("qsim.noisy_fidelity.baseline", fb);
            m.set("qsim.noisy_fidelity.enqode", fe);
            m.set("noisy_fidelity_gain", fe / fb);
        }
    }
}

/// Model-level per-layer metrics: clusters, their trained fidelity and
/// offline iterations, and one kernel value-plus-gradient.
pub fn model_layers(
    pipeline: &EnqodePipeline,
    sample: &[f64],
    m: &mut Metrics,
) -> Result<(), String> {
    let clusters: Vec<_> = pipeline
        .class_models()
        .iter()
        .flat_map(|cm| cm.model.clusters())
        .collect();
    m.set("core.clusters", clusters.len() as f64);
    m.set(
        "core.cluster_fidelity.mean",
        stats::mean(&clusters.iter().map(|c| c.fidelity).collect::<Vec<_>>()),
    );
    m.set(
        "optim.offline_iters.mean",
        stats::mean(
            &clusters
                .iter()
                .map(|c| c.iterations as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.set("core.kernel_us", kernel_us(pipeline, sample)?);
    Ok(())
}

/// Median time of one `FidelityObjective` value plus gradient at a trained
/// cluster's parameters, µs.
pub fn kernel_us(pipeline: &EnqodePipeline, sample: &[f64]) -> Result<f64, String> {
    let model = &pipeline.class_models()[0].model;
    let symbolic = pipeline
        .shared_symbolic()
        .ok_or("the pipeline has no classes")?;
    let features = pipeline
        .extract_features(sample)
        .map_err(fail("features"))?;
    let objective = FidelityObjective::with_symbolic(symbolic, &model.config().ansatz, &features)
        .map_err(fail("objective"))?;
    let theta = &model.clusters()[0].parameters;
    let mut gradient = vec![0.0; theta.len()];
    let mut times = Samples::default();
    for _ in 0..KERNEL_CALLS {
        let t0 = Instant::now();
        std::hint::black_box(
            objective.value_and_gradient_into(std::hint::black_box(theta), &mut gradient),
        );
        times.push_us(t0.elapsed());
    }
    Ok(times.pct(50.0))
}
