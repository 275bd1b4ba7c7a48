//! The wire workloads: an in-process `enqd` server (`EnqdServer` over an
//! `EmbedService`) on loopback, driven by closed-loop `EnqClient`
//! connections, one request in flight each.
//!
//! * `wire_unique` — every request is a held-out sample plus jitter far
//!   above the cache quantum, so every request is computed.
//! * `wire_zipf` — requests draw Zipf-skewed items from a pool four times
//!   the default cache capacity; half repeat an item bit for bit (the
//!   memo tier), half add a sub-quantum jitter (the quantized tier).
//!   Traffic capture is on, as under `enqd --autopilot`.

use crate::env::{Scratch, TRACE_DIR};
use crate::eval::{self, Tally};
use crate::report::{Metrics, Outcome};
use crate::stats::{self, Samples};
use crate::trace::Tracer;
use crate::zipf::Zipf;
use crate::{fail, Args};
use enq_circuit::{Topology, Transpiler};
use enq_data::{generate_synthetic, Dataset, DatasetKind, SyntheticConfig};
use enq_net::{
    decode_frame, EnqClient, EnqdServer, FaultPlan, Frame, NetConfig, NetStats, RetryPolicy,
    ServerHandle, WireEmbedding,
};
use enq_serve::{
    CacheConfig, EmbedService, ServeConfig, SolutionSource, TrafficAccumulator, TrafficConfig,
};
use enqode::{BaselineEmbedder, Embedding, EnqodeConfig, EnqodePipeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which request stream drives the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Never-repeated samples: compute-bound.
    Unique,
    /// Zipf-skewed repeats over a pool larger than the cache.
    Zipf,
}

/// Classes of the MNIST-like corpus.
const CLASSES: usize = 5;
/// Training samples per class of the served model.
const TRAIN_PER_CLASS: usize = 100;
/// Held-out samples per class the request streams are built from.
const HELD_OUT_PER_CLASS: usize = 40;
const MODEL_ID: &str = "default";
const TENANT: &str = "bench";
/// Uniform jitter on raw pixels that makes a sample new: after PCA it moves
/// features by about 1e-2, far above the 1e-6 cache quantum.
const ITEM_JITTER: f64 = 0.02;
/// Items of the Zipf pool: four times the default cache capacity.
const POOL_ITEMS: usize = 4 * 4096;
const ZIPF_EXPONENT: f64 = 1.0;
/// Share of Zipf requests that repeat their item bit for bit.
const EXACT_REPEAT_SHARE: f64 = 0.5;
/// Raw-pixel jitter of the other repeats: far below the cache quantum
/// after PCA, so they land in the item's quantized cell.
const SUB_QUANTUM_JITTER: f64 = 1e-10;
/// Rounds per run. Each round sets up a fresh server, drives it for a
/// third of the window and checks its answers; the metrics are medians
/// over the rounds, so each samples the whole run.
const ROUNDS: usize = 3;
/// Load before the measured window, not timed.
const WARMUP: Duration = Duration::from_secs(1);
/// Zipf requests fed in process before each round's load, so that the
/// caches start full whatever the host's speed: 16 000 draws touch about
/// 4400 items, more than the 4096-entry cache holds.
const PREWARM_REQUESTS: u64 = 16_000;
/// First client id of the pre-warm streams, clear of the measured ones.
const PREWARM_CLIENT: usize = 1 << 20;
/// One request in this many (chosen by seed) has its answer checked.
const CHECK_ONE_IN: u64 = 16;
/// Cap on checked answers per client and round.
const MAX_CHECKS: usize = 128;
/// Checked answers evaluated as circuits (Figs. 6–7 at 8 qubits) per round;
/// the checked answers are cycled when a slow round has fewer.
const EVAL_PER_ROUND: usize = 128;
/// Measured requests replayed through the layers in a traced run.
const REPLAY_MAX: usize = 1500;
/// Largest gap between a wire-reported fidelity and the simulated
/// fidelity of the same parameters.
const FIDELITY_MATCH: f64 = 1e-6;

/// SplitMix64 finaliser over two words: seeds per-request generators.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The served model's training set and the held-out samples requests are
/// built from, split per class from one seeded corpus.
fn corpus(seed: u64) -> Result<(Dataset, Vec<Vec<f64>>), String> {
    let all = generate_synthetic(
        DatasetKind::MnistLike,
        &SyntheticConfig {
            classes: CLASSES,
            samples_per_class: TRAIN_PER_CLASS + HELD_OUT_PER_CLASS,
            seed,
        },
    )
    .map_err(fail("generating the corpus"))?;
    let (mut samples, mut labels, mut held_out) = (Vec::new(), Vec::new(), Vec::new());
    for class in all.classes() {
        for (i, idx) in all.indices_of_class(class).into_iter().enumerate() {
            if i < TRAIN_PER_CLASS {
                samples.push(all.sample(idx).to_vec());
                labels.push(class);
            } else {
                held_out.push(all.sample(idx).to_vec());
            }
        }
    }
    let train = Dataset::new("mnist-like", samples, labels).map_err(fail("training set"))?;
    Ok((train, held_out))
}

/// The paper shape: 8 qubits, 8 layers, CY entanglers, default budgets.
fn model_config(seed: u64) -> EnqodeConfig {
    EnqodeConfig {
        seed,
        ..EnqodeConfig::with_qubits(8)
    }
}

/// Seeded request streams: request `j` of client `c` is a pure function of
/// `(seed, c, j)`, so checks and replays regenerate it instead of storing it.
struct Generator {
    traffic: Traffic,
    seed: u64,
    held_out: Vec<Vec<f64>>,
    zipf: Zipf,
}

impl Generator {
    fn new(traffic: Traffic, seed: u64, held_out: Vec<Vec<f64>>) -> Self {
        Self {
            traffic,
            seed,
            held_out,
            zipf: Zipf::new(POOL_ITEMS, ZIPF_EXPONENT),
        }
    }

    /// Writes the raw sample of request `j` of `client` into `out` and
    /// returns its item (held-out index, or Zipf pool item).
    fn request(&self, client: usize, j: u64, out: &mut Vec<f64>) -> u32 {
        let mut rng = StdRng::seed_from_u64(mix(mix(self.seed, client as u64 + 1), j));
        match self.traffic {
            Traffic::Unique => {
                let base = rng.gen_range(0..self.held_out.len());
                out.clear();
                out.extend(
                    self.held_out[base]
                        .iter()
                        .map(|v| v + rng.gen_range(-ITEM_JITTER..ITEM_JITTER)),
                );
                base as u32
            }
            Traffic::Zipf => {
                let item = self.zipf.sample(&mut rng);
                self.item(item, out);
                if !rng.gen_bool(EXACT_REPEAT_SHARE) {
                    for v in out.iter_mut() {
                        *v += rng.gen_range(-SUB_QUANTUM_JITTER..SUB_QUANTUM_JITTER);
                    }
                }
                item as u32
            }
        }
    }

    /// The raw sample of Zipf pool item `k`.
    fn item(&self, k: usize, out: &mut Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(mix(self.seed ^ 0x17E4, k as u64));
        out.clear();
        out.extend(
            self.held_out[k % self.held_out.len()]
                .iter()
                .map(|v| v + rng.gen_range(-ITEM_JITTER..ITEM_JITTER)),
        );
    }

    /// Whether request `j` of `client` is in the checked subset.
    fn checked(&self, client: usize, j: u64) -> bool {
        mix(self.seed ^ 0xC4EC, ((client as u64) << 48) | j).is_multiple_of(CHECK_ONE_IN)
    }
}

/// Feeds [`PREWARM_REQUESTS`] requests of dedicated streams through
/// `EmbedService::embed_direct` on `threads` threads (the same registry,
/// memo, cache and traffic capture the wire path uses). Counts them in
/// `out` and returns the `(item, fingerprint)` of every computed answer.
fn prewarm(
    service: &EmbedService,
    gen: &Generator,
    round: usize,
    threads: usize,
    out: &mut Outcome,
) -> Vec<(u32, u64)> {
    let per_thread = PREWARM_REQUESTS / threads as u64;
    let results: Vec<(u64, Vec<(u32, u64)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let client = PREWARM_CLIENT + round * threads + t;
                    let (mut raw, mut failed, mut computed) = (Vec::new(), 0, Vec::new());
                    for j in 0..per_thread {
                        let item = gen.request(client, j, &mut raw);
                        match service.embed_direct(MODEL_ID, &raw) {
                            Ok(r) if r.source == SolutionSource::Computed => {
                                let e = r.embedding();
                                let fp =
                                    fingerprint(r.label() as u64, e.ideal_fidelity, &e.parameters);
                                computed.push((item, fp));
                            }
                            Ok(_) => {}
                            Err(_) => failed += 1,
                        }
                    }
                    (failed, computed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pre-warm thread panicked"))
            .collect()
    });
    out.attempted += per_thread * threads as u64;
    results
        .into_iter()
        .flat_map(|(failed, computed)| {
            out.failed += failed;
            computed
        })
        .collect()
}

/// A listening server over a fresh service.
struct Served {
    service: Arc<EmbedService>,
    handle: ServerHandle,
}

impl Served {
    fn start(pipeline: &Arc<EnqodePipeline>, config: &ServeConfig) -> Result<Self, String> {
        let service = Arc::new(EmbedService::new(config.clone()));
        service.register_model(MODEL_ID, Arc::clone(pipeline));
        let handle = EnqdServer::spawn(
            Arc::clone(&service),
            "127.0.0.1:0",
            NetConfig::default(),
            FaultPlan::none(),
        )
        .map_err(fail("binding the server"))?;
        Ok(Self { service, handle })
    }

    /// Drains the server; returns the service and the final net counters.
    fn stop(self) -> (Arc<EmbedService>, NetStats) {
        let stats = self.handle.join();
        (self.service, stats)
    }
}

/// One set-up: the restored model, its server and the set-up's timings.
struct Setup {
    pipeline: Arc<EnqodePipeline>,
    held_out: Vec<Vec<f64>>,
    served: Served,
    total_s: f64,
    fit_s: f64,
    write_ms: f64,
    read_ms: f64,
    bytes: f64,
}

/// Generates the corpus, trains the served model, persists and restores it
/// as an `ENQM` artifact (the `enqd --model-dir` boot path), registers it
/// and listens.
fn setup(seed: u64, config: &ServeConfig, model_dir: &Path) -> Result<Setup, String> {
    let t0 = Instant::now();
    let (train, held_out) = corpus(seed)?;
    let fit_start = Instant::now();
    let built = EnqodePipeline::build(&train, model_config(seed))
        .map_err(fail("training the served model"))?;
    let fit_s = fit_start.elapsed().as_secs_f64();
    let path = model_dir.join(enq_store::artifact_file_name(MODEL_ID));
    let w0 = Instant::now();
    enq_store::write_model_file(&path, MODEL_ID, 1, &built).map_err(fail("persisting"))?;
    let write_ms = w0.elapsed().as_secs_f64() * 1e3;
    let r0 = Instant::now();
    let artifact = enq_store::read_model_file(&path).map_err(fail("restoring"))?;
    let read_ms = r0.elapsed().as_secs_f64() * 1e3;
    let pipeline = Arc::new(artifact.pipeline);
    let served = Served::start(&pipeline, config)?;
    let total_s = t0.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path)
        .map_err(fail("artifact size"))?
        .len() as f64;
    std::fs::remove_file(&path).map_err(fail("removing the artifact"))?;
    Ok(Setup {
        pipeline,
        held_out,
        served,
        total_s,
        fit_s,
        write_ms,
        read_ms,
        bytes,
    })
}

/// A checked answer; the request is regenerated from `(client, j)`.
struct Check {
    client: usize,
    j: u64,
    item: u32,
    answer: WireEmbedding,
}

/// A request of a traced phase, in the order it was sent.
struct Sent {
    client: usize,
    j: u64,
    start: Instant,
    end: Instant,
    measured: bool,
}

/// What one client saw during a phase.
#[derive(Default)]
struct ClientLog {
    /// Completion instant and round trip (µs) of each request in the
    /// measured window.
    latencies: Vec<(Instant, f64)>,
    /// Answers completed in each second of the measured window.
    completed: Vec<u64>,
    attempted: u64,
    failed: u64,
    fidelity_sum: f64,
    /// Answers by source: computed, cache hit, batch dedup.
    sources: [u64; 3],
    /// `(item, fingerprint)` of every computed answer.
    computed: Vec<(u32, u64)>,
    checks: Vec<Check>,
    sent: Vec<Sent>,
}

/// FNV-1a over an answer's label, fidelity and parameter bits.
fn fingerprint(label: u64, fidelity: f64, parameters: &[f64]) -> u64 {
    let bytes: Vec<u8> = [label, fidelity.to_bits()]
        .into_iter()
        .chain(parameters.iter().map(|p| p.to_bits()))
        .flat_map(u64::to_le_bytes)
        .collect();
    enq_store::fnv1a64(&bytes)
}

/// Whether a served answer equals a local embedding bit for bit.
fn same_answer(label: usize, e: &Embedding, a: &WireEmbedding) -> bool {
    label as u64 == a.label
        && e.ideal_fidelity.to_bits() == a.ideal_fidelity.to_bits()
        && e.parameters.len() == a.parameters.len()
        && e.parameters
            .iter()
            .zip(&a.parameters)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn client_loop(
    addr: &str,
    gen: &Generator,
    client: usize,
    window: Instant,
    end: Instant,
    traced: bool,
) -> ClientLog {
    let mut conn = EnqClient::new(
        addr,
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
    );
    let mut log = ClientLog::default();
    let mut raw = Vec::new();
    for j in 0u64.. {
        if Instant::now() >= end {
            break;
        }
        let item = gen.request(client, j, &mut raw);
        let t0 = Instant::now();
        let result = conn.embed(TENANT, MODEL_ID, &raw, 0);
        let t1 = Instant::now();
        log.attempted += 1;
        let measured = t0 >= window;
        let Ok(answer) = result else {
            log.failed += 1;
            continue;
        };
        if measured {
            log.latencies.push((t1, (t1 - t0).as_secs_f64() * 1e6));
            log.fidelity_sum += answer.ideal_fidelity;
            if t1 <= end {
                let second = (t1 - window).as_secs() as usize;
                if log.completed.len() <= second {
                    log.completed.resize(second + 1, 0);
                }
                log.completed[second] += 1;
            }
        }
        log.sources[usize::from(answer.source.min(2))] += 1;
        if answer.source == 0 {
            log.computed.push((
                item,
                fingerprint(answer.label, answer.ideal_fidelity, &answer.parameters),
            ));
        }
        if traced {
            log.sent.push(Sent {
                client,
                j,
                start: t0,
                end: t1,
                measured,
            });
        }
        if log.checks.len() < MAX_CHECKS && gen.checked(client, j) {
            log.checks.push(Check {
                client,
                j,
                item,
                answer,
            });
        }
    }
    log
}

/// One closed-loop phase: one connection per client id in `clients` (each
/// id has its own request stream) for [`WARMUP`] plus `measure`. Returns
/// the client logs and the process CPU time, µs, per request completed in
/// the measured window.
fn drive(
    addr: &str,
    gen: &Generator,
    clients: std::ops::Range<usize>,
    measure: Duration,
    traced: bool,
) -> (Vec<ClientLog>, f64) {
    let window = Instant::now() + WARMUP;
    let end = window + measure;
    let (logs, cpu): (Vec<ClientLog>, f64) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .map(|c| scope.spawn(move || client_loop(addr, gen, c, window, end, traced)))
            .collect();
        std::thread::sleep(window.saturating_duration_since(Instant::now()));
        let cpu0 = crate::env::process_cpu_seconds();
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        let cpu = crate::env::process_cpu_seconds() - cpu0;
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, cpu)
    });
    let completed: u64 = logs.iter().flat_map(|l| &l.completed).sum();
    (logs, cpu * 1e6 / completed.max(1) as f64)
}

/// Latency p50/p99 (µs; medians over blocks of [`stats::BLOCK`] requests in
/// completion order), throughput (median of per-second completions), and
/// diagnostics for the metadata line.
struct PhaseSummary {
    p50: f64,
    p99: f64,
    throughput: f64,
    mean_fidelity: f64,
    /// The highest percentile the whole sample supports.
    tail: String,
    /// Completions in each whole second of each round.
    per_second: String,
    hit_share: f64,
}

/// Reduces the client logs of one or more rounds, each driven for
/// `segment`.
fn summarize(rounds: &[&[ClientLog]], segment: Duration) -> Result<PhaseSummary, String> {
    let (mut p50s, mut p99s, mut per_second, mut all) = (vec![], vec![], vec![], vec![]);
    for logs in rounds {
        let mut completed: Vec<(Instant, f64)> =
            logs.iter().flat_map(|l| l.latencies.clone()).collect();
        completed.sort_by_key(|&(end, _)| end);
        let in_order: Vec<f64> = completed.iter().map(|&(_, us)| us).collect();
        p50s.extend(stats::block_percentiles(&in_order, stats::BLOCK, 50.0));
        p99s.extend(stats::block_percentiles(&in_order, stats::BLOCK, 99.0));
        all.extend(in_order);
        per_second.extend((0..segment.as_secs() as usize).map(|i| {
            logs.iter()
                .map(|l| l.completed.get(i).copied().unwrap_or(0))
                .sum::<u64>() as f64
        }));
    }
    all.sort_by(f64::total_cmp);
    if all.is_empty() || per_second.is_empty() {
        return Err("no request completed in a measured window of at least 1 s".into());
    }
    let logs = rounds.iter().flat_map(|r| r.iter());
    let answered: u64 = logs.clone().flat_map(|l| l.sources).sum();
    let hits: u64 = logs.clone().map(|l| l.sources[1] + l.sources[2]).sum();
    let fidelity: f64 = logs.map(|l| l.fidelity_sum).sum();
    let tail = match stats::tail_percentile(&all) {
        Some((p, v, n)) => {
            format!("{{\"percentile\": {p}, \"value_us\": {v:.1}, \"samples\": {n}}}")
        }
        None => format!("{{\"percentile\": null, \"samples\": {}}}", all.len()),
    };
    Ok(PhaseSummary {
        p50: stats::median(&p50s).expect("non-empty"),
        p99: stats::median(&p99s).expect("non-empty"),
        throughput: stats::median(&per_second).expect("non-empty"),
        mean_fidelity: fidelity / all.len() as f64,
        tail,
        per_second: per_second
            .iter()
            .map(|c| format!("{c}"))
            .collect::<Vec<_>>()
            .join(", "),
        hit_share: hits as f64 / answered.max(1) as f64,
    })
}

/// Checks the seeded subset of answers. A computed answer (every answer of
/// `wire_unique`) must equal `embed_features` on the request's features bit
/// for bit; a cache or dedup answer must equal, bit for bit, an answer the
/// service computed for the same item during the round (over the wire, or
/// in the pre-warm: `prewarmed` holds those `(item, fingerprint)` pairs).
fn verify(
    pipeline: &EnqodePipeline,
    gen: &Generator,
    logs: &[ClientLog],
    prewarmed: &[(u32, u64)],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut computed: HashMap<u32, HashSet<u64>> = HashMap::new();
    let served = logs.iter().flat_map(|l| &l.computed);
    for &(item, fp) in served.chain(prewarmed) {
        computed.entry(item).or_default().insert(fp);
    }
    let mut raw = Vec::new();
    for check in logs.iter().flat_map(|l| &l.checks) {
        gen.request(check.client, check.j, &mut raw);
        let ok = if gen.traffic == Traffic::Unique || check.answer.source == 0 {
            let features = pipeline
                .extract_features(&raw)
                .map_err(fail("reference features"))?;
            let (label, e) = pipeline
                .embed_features(&features)
                .map_err(fail("reference embedding"))?;
            same_answer(label, &e, &check.answer)
        } else {
            computed.get(&check.item).is_some_and(|fps| {
                let a = &check.answer;
                fps.contains(&fingerprint(a.label, a.ideal_fidelity, &a.parameters))
            })
        };
        out.check(ok);
    }
    Ok(())
}

/// Evaluates [`EVAL_PER_ROUND`] checked answers of a round as circuits at
/// the served shape: the served parameters bound into the ansatz, and exact
/// state preparation of the same features, both transpiled to a linear
/// topology and simulated ideally. Adds them to `tally`; returns the samples
/// evaluated and the thread-seconds it took.
///
/// The answers are split over one thread per vCPU, run at once. The host's
/// vCPUs ran at different speeds at the same moment, so on one thread the
/// rate followed the vCPU it landed on; with every vCPU busy, samples per
/// thread-second cover all of them.
fn evaluate(
    pipeline: &EnqodePipeline,
    gen: &Generator,
    logs: &[ClientLog],
    tally: &mut Tally,
    out: &mut Outcome,
) -> Result<(usize, f64), String> {
    let checks: Vec<&Check> = logs.iter().flat_map(|l| &l.checks).collect();
    let picked: Vec<&Check> = checks
        .iter()
        .copied()
        .cycle()
        .take(EVAL_PER_ROUND)
        .collect();
    let lanes = enq_parallel::default_threads().get();
    let parts: Vec<(Tally, Vec<bool>, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = picked
            .chunks(picked.len().div_ceil(lanes).max(1))
            .map(|part| s.spawn(move || evaluate_part(pipeline, gen, part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an evaluation thread panicked"))
            .collect::<Result<_, _>>()
    })?;
    let mut thread_seconds = 0.0;
    for (part, oks, seconds) in parts {
        tally.merge(part);
        for ok in oks {
            out.check(ok);
        }
        thread_seconds += seconds;
    }
    Ok((picked.len(), thread_seconds))
}

/// One thread's share of [`evaluate`]: its tally, the outcome of each
/// output check in order, and its seconds.
fn evaluate_part(
    pipeline: &EnqodePipeline,
    gen: &Generator,
    part: &[&Check],
) -> Result<(Tally, Vec<bool>, f64), String> {
    let num_qubits = pipeline.feature_dimension().trailing_zeros() as usize;
    let transpiler = Transpiler::new(Topology::linear(num_qubits));
    let baseline = BaselineEmbedder::new(num_qubits);
    let (mut tally, mut oks) = (Tally::default(), Vec::new());
    let mut raw = Vec::new();
    let start = Instant::now();
    for check in part {
        gen.request(check.client, check.j, &mut raw);
        let features = pipeline.extract_features(&raw).map_err(fail("features"))?;
        let model = pipeline
            .model_for_class(check.answer.label as usize)
            .ok_or("an answer names a class the model lacks")?;
        let circuit = model
            .circuit(&check.answer.parameters)
            .map_err(fail("binding served parameters"))?;
        let enq = eval::leg(&circuit, &features, &transpiler, None)?;
        let s0 = Instant::now();
        let synth = baseline
            .embed(&features)
            .map_err(fail("baseline synthesis"))?;
        let s1 = Instant::now();
        let base = eval::leg(&synth.circuit, &features, &transpiler, None)?;
        oks.push((enq.ideal - check.answer.ideal_fidelity).abs() <= FIDELITY_MATCH);
        oks.push(tally.add(&base, &enq, (s0, s1)));
    }
    Ok((tally, oks, start.elapsed().as_secs_f64()))
}

/// Service-side counters of a phase, for the per-layer metrics.
fn service_layers(service: &EmbedService, net: NetStats, m: &mut Metrics) {
    let s = service.stats();
    let memo = service.memo_stats();
    let cache = service.cache_stats();
    let pool = service.pool_stats();
    let traffic = service.traffic().stats(MODEL_ID);
    m.set("net.served", net.served as f64);
    m.set("net.shed", net.shed as f64);
    m.set("net.rate_limited", net.rate_limited as f64);
    m.set("net.hostile_closes", net.hostile_closes as f64);
    // Memo answers on the caller's thread never enter the batch queue.
    let queued = s.requests.saturating_sub(memo.hits);
    m.set("serve.batch_mean", queued as f64 / s.batches.max(1) as f64);
    m.set(
        "serve.hit_share",
        (s.cache_hits + s.batch_dedup_hits) as f64 / s.requests.max(1) as f64,
    );
    m.set("serve.memo_hits", memo.hits as f64);
    m.set("serve.cache_hits", cache.hits as f64);
    m.set("serve.dedup_hits", s.batch_dedup_hits as f64);
    m.set("serve.cache_insertions", cache.insertions as f64);
    m.set("serve.cache_evictions", cache.evictions as f64);
    m.set("serve.errors", s.errors as f64);
    m.set("serve.deadline_expired", s.deadline_expired as f64);
    m.set(
        "serve.pool_created",
        (pool.samples.created + pool.slots.created) as f64,
    );
    m.set("traffic.recorded", traffic.recorded as f64);
    m.set("traffic.shards", traffic.shards as f64);
    m.set("traffic.dropped", traffic.dropped as f64);
    m.set("traffic.spill_failures", traffic.spill_failures as f64);
}

/// Per-call timings of the traced replay.
#[derive(Default)]
struct Replay {
    net_self: Samples,
    codec: Samples,
    unattributed: Samples,
    serve_self: Samples,
    hit: Samples,
    pca: Samples,
    nearest: Samples,
    embed: Samples,
    record: Samples,
    online_iters: Samples,
}

/// Replays the traced phase's requests, in send order, through a second
/// `EmbedService` with the same model and config (so its cache state
/// follows the served one), the wire codec, `extract_features`,
/// `closed_form_fidelity` and `embed_features`, recording a span per call.
fn replay(
    gen: &Generator,
    pipeline: &Arc<EnqodePipeline>,
    config: &ServeConfig,
    scratch: &Scratch,
    logs: &[ClientLog],
    out: &mut Outcome,
    spans_file: &Path,
) -> Result<Replay, String> {
    let mut sent: Vec<&Sent> = logs.iter().flat_map(|l| &l.sent).collect();
    sent.sort_by_key(|s| s.start);
    let mut config = config.clone();
    if config.traffic.enabled {
        config.traffic.spill_dir = Some(scratch.dir("replay").map_err(fail("replay dir"))?);
    }
    let service = EmbedService::new(config.clone());
    service.register_model(MODEL_ID, Arc::clone(pipeline));
    let recorder = config.traffic.enabled.then(|| {
        TrafficAccumulator::new(TrafficConfig {
            spill_dir: scratch.dir("record").ok(),
            ..config.traffic.clone()
        })
    });
    // The round trips were recorded before the replay began.
    let mut tracer = Tracer::with_epoch(sent.first().map_or_else(Instant::now, |s| s.start));
    let mut r = Replay::default();
    let mut roots = Vec::new();
    let mut raw = Vec::new();
    for (id, s) in sent.iter().enumerate() {
        if roots.len() >= REPLAY_MAX {
            break;
        }
        let id = id as u64;
        gen.request(s.client, s.j, &mut raw);
        let memo_before = service.memo_stats().hits;
        let s0 = Instant::now();
        let response = service.embed(MODEL_ID, &raw);
        let s1 = Instant::now();
        let Ok(response) = response else {
            out.count(false);
            continue;
        };
        let memo_hit = service.memo_stats().hits > memo_before;
        let p0 = Instant::now();
        let features = pipeline.extract_features(&raw).map_err(fail("features"))?;
        let p1 = Instant::now();
        if let Some(recorder) = &recorder {
            let t0 = Instant::now();
            recorder.record(MODEL_ID, &features, response.label());
            r.record.push_us(t0.elapsed());
        }
        if !s.measured {
            continue;
        }
        let root = tracer.record("net.roundtrip", s.start, s.end, None, id);
        roots.push(root);
        let serve = tracer.record("serve.embed", s0, s1, Some(root), id);
        r.net_self
            .push(((s.end - s.start).as_secs_f64() - (s1 - s0).as_secs_f64()) * 1e6);

        let source = match response.source {
            SolutionSource::Computed => 0,
            SolutionSource::CacheHit => 1,
            SolutionSource::BatchDedup => 2,
        };
        let request = Frame::EmbedRequest {
            id,
            deadline_ms: 0,
            tenant: TENANT.into(),
            model_id: MODEL_ID.into(),
            sample: raw.clone(),
        };
        let reply = Frame::EmbedReply {
            id,
            label: response.label() as u64,
            ideal_fidelity: response.embedding().ideal_fidelity,
            parameters: response.embedding().parameters.clone(),
            source,
        };
        let c0 = Instant::now();
        let request_bytes = request.encode();
        let request_back = decode_frame(&request_bytes);
        let reply_bytes = reply.encode();
        let reply_back = decode_frame(&reply_bytes);
        let c1 = Instant::now();
        tracer.record("net.codec", c0, c1, Some(root), id);
        r.codec.push_us(c1 - c0);
        out.check(
            matches!(request_back, Ok(Some((ref f, n))) if *f == request && n == request_bytes.len())
                && matches!(reply_back, Ok(Some((ref f, n))) if *f == reply && n == reply_bytes.len()),
        );

        let n0 = Instant::now();
        std::hint::black_box(
            pipeline
                .closed_form_fidelity(&features)
                .map_err(fail("nearest cluster"))?,
        );
        let n1 = Instant::now();
        let e0 = Instant::now();
        let (label, e) = pipeline
            .embed_features(&features)
            .map_err(fail("embedding"))?;
        let e1 = Instant::now();
        r.pca.push_us(p1 - p0);
        r.nearest.push_us(n1 - n0);
        r.embed.push_us(e1 - e0);
        r.online_iters.push(e.iterations as f64);
        if !memo_hit {
            tracer.record("data.pca", p0, p1, Some(serve), id);
        }
        if response.source == SolutionSource::Computed {
            let embed = tracer.record("core.embed", e0, e1, Some(serve), id);
            tracer.record("core.nearest", n0, n1, Some(embed), id);
            let served_duration = response.embedding().duration;
            r.serve_self
                .push_us(response.latency.saturating_sub(served_duration));
            out.check(
                label == response.label()
                    && e.ideal_fidelity.to_bits() == response.embedding().ideal_fidelity.to_bits()
                    && e.parameters == response.embedding().parameters,
            );
        } else {
            r.hit.push_us(response.latency);
        }
    }
    let remainders = tracer.remainders();
    for &root in &roots {
        r.unattributed.push(remainders[root] as f64 / 1e3);
    }
    tracer
        .write_tsv(spans_file)
        .map_err(fail("writing the spans"))?;
    Ok(r)
}

/// Runs one wire workload; returns the outcome and extra metadata.
pub fn run(traffic: Traffic, args: &Args, scratch: &Scratch) -> Result<(Outcome, String), String> {
    let mut config = ServeConfig::default();
    if traffic == Traffic::Zipf {
        config.traffic = TrafficConfig {
            enabled: true,
            spill_dir: Some(scratch.dir("traffic").map_err(fail("traffic dir"))?),
            ..TrafficConfig::default()
        };
    }
    let model_dir = scratch.dir("model").map_err(fail("model dir"))?;
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let segment = Duration::from_secs(args.seconds).div_f64(ROUNDS as f64);
    let mut out = Outcome::default();
    let (mut setups, mut fits, mut writes, mut reads) = (vec![], vec![], vec![], vec![]);
    let (mut eval_samples, mut eval_seconds) = (0, 0.0);
    let mut cpu_per_request = vec![];
    let mut bytes = 0.0;
    let mut tally = Tally::default();
    let mut rounds: Vec<Vec<ClientLog>> = Vec::new();
    let mut gen = None;
    for round in 0..ROUNDS {
        let setup = setup(args.seed, &config, &model_dir)?;
        setups.push(setup.total_s);
        fits.push(setup.fit_s);
        writes.push(setup.write_ms);
        reads.push(setup.read_ms);
        bytes = setup.bytes;
        let gen =
            gen.get_or_insert_with(|| Generator::new(traffic, args.seed, setup.held_out.clone()));
        // A traced run traces its last round and compares it with the
        // untraced ones.
        let traced = args.trace && round + 1 == ROUNDS;
        let prewarmed = match traffic {
            Traffic::Zipf => prewarm(&setup.served.service, gen, round, clients, &mut out),
            Traffic::Unique => Vec::new(),
        };
        let addr = setup.served.handle.addr().to_string();
        let (logs, cpu_us) = drive(
            &addr,
            gen,
            round * clients..(round + 1) * clients,
            segment,
            traced,
        );
        cpu_per_request.push(cpu_us);
        let (service, net) = setup.served.stop();
        if traced {
            service_layers(&service, net, &mut out.metrics);
        }
        drop(service);
        for log in &logs {
            out.attempted += log.attempted;
            out.failed += log.failed;
        }
        verify(&setup.pipeline, gen, &logs, &prewarmed, &mut out)?;
        let (samples, seconds) = evaluate(&setup.pipeline, gen, &logs, &mut tally, &mut out)?;
        eval_samples += samples;
        eval_seconds += seconds;
        if traced {
            let untraced: Vec<&[ClientLog]> = rounds.iter().map(Vec::as_slice).collect();
            let base = summarize(&untraced, segment)?.p50;
            let with = summarize(&[&logs], segment)?.p50;
            out.metrics.set("trace.overhead_us", with - base);
            out.metrics
                .set("trace.overhead_share", (with - base) / base);
            std::fs::create_dir_all(TRACE_DIR).map_err(fail("trace dir"))?;
            let spans_file =
                Path::new(TRACE_DIR).join(format!("spans-{}-{}.tsv", args.workload, args.seed));
            let r = replay(
                gen,
                &setup.pipeline,
                &config,
                scratch,
                &logs,
                &mut out,
                &spans_file,
            )?;
            let m = &mut out.metrics;
            m.set("net.self_us.p50", r.net_self.pct(50.0));
            m.set("net.codec_us.p50", r.codec.pct(50.0));
            m.set("unattributed_us.p50", r.unattributed.pct(50.0));
            m.set("serve.self_us.p50", r.serve_self.pct(50.0));
            m.set("serve.self_us.p99", r.serve_self.pct(99.0));
            m.set("serve.hit_us.p50", r.hit.pct(50.0));
            m.set("data.pca_us.p50", r.pca.pct(50.0));
            m.set("core.nearest_us.p50", r.nearest.pct(50.0));
            m.set("core.embed_us.p50", r.embed.pct(50.0));
            m.set("optim.online_iters.mean", r.online_iters.mean());
            m.set("traffic.record_us.p99", r.record.pct(99.0));
            eval::model_layers(&setup.pipeline, &gen.held_out[0], m)?;
        }
        rounds.push(logs);
        drop(setup.pipeline);
        crate::env::release_free_heap();
    }
    out.check(tally.samples > 0 && tally.enqode_depth_fixed());
    let all: Vec<&[ClientLog]> = rounds.iter().map(Vec::as_slice).collect();
    let phase = summarize(&all, segment)?;
    let median = |v: &[f64]| stats::median(v).expect("at least one round");
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    m.set("fit_s", median(&fits));
    m.set("store.write_ms", median(&writes));
    m.set("store.read_ms", median(&reads));
    m.set("store.bytes", bytes);
    m.set("cpu_us_per_request", median(&cpu_per_request));
    m.set("latency_p50_us", phase.p50);
    m.set("latency_p99_us", phase.p99);
    m.set("throughput_rps", phase.throughput);
    m.set("mean_fidelity", phase.mean_fidelity);
    m.set("eval_samples_per_s", eval_samples as f64 / eval_seconds);
    m.set("depth_reduction", tally.depth_reduction());
    m.set("twoq_reduction", tally.twoq_reduction());
    tally.write_layers(m);
    let mut extra = format!(
        ", \"clients\": {clients}, \"rounds\": {ROUNDS}, \"latency_tail\": {}, \
         \"completed_per_second\": [{}], \"client_hit_share\": {:.4}, \"checks\": {}",
        phase.tail, phase.per_second, phase.hit_share, out.checks
    );
    if traffic == Traffic::Zipf {
        let hot = gen
            .expect("at least one round")
            .zipf
            .top_share(CacheConfig::default().capacity);
        extra.push_str(&format!(
            ", \"zipf_share_of_cache_sized_hot_set\": {hot:.4}"
        ));
    }
    Ok((out, extra))
}
