//! Offline cluster training and online transfer-learning embedding.
//!
//! The offline phase is embarrassingly parallel: every `(cluster, restart)`
//! optimisation is independent, so [`EnqodeModel::fit`] fans the flattened
//! job list out across threads (see `enq_parallel`). Each job derives its own
//! RNG seed from `(config.seed, cluster, restart)` — never from scheduling
//! order — so a parallel fit is bit-identical to [`EnqodeModel::fit_sequential`].
//!
//! The online phase shares one [`Arc<SymbolicState>`] across all objectives
//! (the phase table depends only on the ansatz shape); nothing is cloned per
//! embedded sample, and [`EnqodeModel::embed_batch`] embeds whole evaluation
//! sets in parallel.

use crate::ansatz::AnsatzConfig;
use crate::error::EnqodeError;
use crate::loss::{BatchedFidelityObjective, FidelityObjective};
use crate::symbolic::SymbolicState;
use enq_circuit::QuantumCircuit;
use enq_data::{fit_with_fidelity_threshold, l2_normalize};
use enq_optim::{Lbfgs, LbfgsDriver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of an EnQode model.
#[derive(Debug, Clone, PartialEq)]
pub struct EnqodeConfig {
    /// Shape of the hardware-efficient ansatz.
    pub ansatz: AnsatzConfig,
    /// Minimum embedding fidelity between any sample and its nearest cluster
    /// mean; the number of clusters grows until this is met (the paper uses
    /// 0.95).
    pub fidelity_threshold: f64,
    /// Upper bound on the number of clusters.
    pub max_clusters: usize,
    /// L-BFGS iteration budget for the offline (per-cluster) optimisation.
    pub offline_max_iterations: usize,
    /// Number of random restarts for each cluster's offline optimisation (the
    /// best run is kept); the fidelity loss is non-convex, so a few restarts
    /// noticeably improve the trained fidelity at modest offline cost.
    pub offline_restarts: usize,
    /// L-BFGS iteration budget for the online (per-sample) fine-tuning.
    pub online_max_iterations: usize,
    /// Opt-in robustness: when `true`, clusters whose best restart misses
    /// `fidelity_threshold` get one deterministic rescue wave of
    /// `max(2·offline_restarts, 4)` extra restarts. Defaults to `false`,
    /// matching the paper's fixed-restart budget so benchmark columns stay
    /// comparable to the DAC-2025 methodology.
    pub offline_rescue: bool,
    /// Seed for clustering and parameter initialisation.
    pub seed: u64,
}

impl Default for EnqodeConfig {
    fn default() -> Self {
        Self {
            ansatz: AnsatzConfig::default(),
            fidelity_threshold: 0.95,
            max_clusters: 64,
            offline_max_iterations: 250,
            offline_restarts: 4,
            online_max_iterations: 40,
            offline_rescue: false,
            seed: 11,
        }
    }
}

impl EnqodeConfig {
    /// Creates a configuration with the paper's defaults for `num_qubits`.
    pub fn with_qubits(num_qubits: usize) -> Self {
        Self {
            ansatz: AnsatzConfig::with_qubits(num_qubits),
            ..Self::default()
        }
    }
}

/// One trained cluster: its (normalised) mean sample and the optimised ansatz
/// parameters that embed it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedCluster {
    /// The normalised cluster mean `⃗cᵢ`.
    pub centroid: Vec<f64>,
    /// Optimised `Rz` parameters for the cluster mean.
    pub parameters: Vec<f64>,
    /// Ideal (noise-free) embedding fidelity achieved for the cluster mean.
    pub fidelity: f64,
    /// Number of optimiser iterations spent on this cluster.
    pub iterations: usize,
}

/// The result of embedding one sample with a trained model ("online" phase).
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    /// The fine-tuned ansatz parameters for this sample.
    pub parameters: Vec<f64>,
    /// The bound, fixed-shape embedding circuit.
    pub circuit: QuantumCircuit,
    /// Index of the cluster whose parameters initialised the optimisation.
    pub cluster_index: usize,
    /// Ideal (noise-free) fidelity of the embedded state against the sample.
    pub ideal_fidelity: f64,
    /// Wall-clock time of the online compilation.
    pub duration: Duration,
    /// Optimiser iterations used during fine-tuning.
    pub iterations: usize,
}

/// Derives an independent, scheduling-invariant RNG seed for one
/// `(cluster, restart)` optimisation job ([`enq_data::seed::splitmix64`]
/// finaliser).
fn restart_seed(base: u64, cluster: usize, restart: usize) -> u64 {
    enq_data::seed::splitmix64(
        base ^ 0xE17
            ^ ((cluster as u64).wrapping_shl(32))
            ^ (restart as u64).wrapping_mul(enq_data::seed::GOLDEN_GAMMA),
    )
}

/// The outcome of one restart of one cluster's offline optimisation.
#[derive(Clone)]
struct RestartOutcome {
    parameters: Vec<f64>,
    fidelity: f64,
    iterations: usize,
}

/// A trained EnQode model: the clusters of one dataset/class and the shared
/// symbolic machinery needed to embed new samples.
///
/// # Examples
///
/// ```
/// use enqode::{AnsatzConfig, EnqodeConfig, EnqodeModel};
///
/// // Four 8-dimensional feature vectors (3 qubits) in two loose groups.
/// let samples = vec![
///     vec![0.9, 0.1, 0.0, 0.1, 0.0, 0.0, 0.1, 0.0],
///     vec![0.8, 0.2, 0.1, 0.0, 0.0, 0.1, 0.0, 0.0],
///     vec![0.0, 0.1, 0.0, 0.1, 0.9, 0.1, 0.0, 0.1],
///     vec![0.1, 0.0, 0.1, 0.0, 0.8, 0.0, 0.2, 0.0],
/// ];
/// let config = EnqodeConfig {
///     ansatz: AnsatzConfig { num_qubits: 3, num_layers: 8, ..Default::default() },
///     ..Default::default()
/// };
/// let model = EnqodeModel::fit(&samples, config)?;
/// let embedding = model.embed(&samples[0])?;
/// assert!(embedding.ideal_fidelity > 0.9);
/// # Ok::<(), enqode::EnqodeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EnqodeModel {
    config: EnqodeConfig,
    symbolic: Arc<SymbolicState>,
    clusters: Vec<TrainedCluster>,
    offline_duration: Duration,
}

impl EnqodeModel {
    /// Trains the model on a set of feature vectors (the "offline" phase):
    /// k-means clustering followed by per-cluster symbolic optimisation, with
    /// every `(cluster, restart)` job running in parallel.
    ///
    /// Samples must have length `2^num_qubits`; they are normalised
    /// internally.
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::Data`] for empty or malformed sample sets and
    /// configuration errors from the ansatz.
    pub fn fit(samples: &[Vec<f64>], config: EnqodeConfig) -> Result<Self, EnqodeError> {
        Self::fit_with_threads(samples, config, enq_parallel::default_threads())
    }

    /// [`EnqodeModel::fit`] on the calling thread only. Produces bit-identical
    /// results to the parallel path (seeds are derived per job, not from
    /// scheduling order); used by reproducibility checks.
    ///
    /// # Errors
    ///
    /// Same as [`EnqodeModel::fit`].
    pub fn fit_sequential(samples: &[Vec<f64>], config: EnqodeConfig) -> Result<Self, EnqodeError> {
        Self::fit_with_threads(samples, config, NonZeroUsize::MIN)
    }

    /// [`EnqodeModel::fit`] with an explicit worker count.
    ///
    /// # Errors
    ///
    /// Same as [`EnqodeModel::fit`].
    pub fn fit_with_threads(
        samples: &[Vec<f64>],
        config: EnqodeConfig,
        threads: NonZeroUsize,
    ) -> Result<Self, EnqodeError> {
        // from_ansatz validates; fit_with_shared_symbolic re-validates and
        // checks the table shape.
        let symbolic = Arc::new(SymbolicState::from_ansatz(&config.ansatz)?);
        Self::fit_with_shared_symbolic(samples, config, threads, symbolic)
    }

    /// [`EnqodeModel::fit_with_threads`] against a pre-built, shared symbolic
    /// phase table. The table depends only on the ansatz *shape*, so callers
    /// training many models of the same shape (one per class in
    /// [`crate::EnqodePipeline`], one per dataset in a model registry) build
    /// it once and hand every fit the same `Arc` — no per-model table copies,
    /// and every embedding served from any of those models shares the one
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::InvalidConfig`] if `symbolic` was built for a
    /// different ansatz shape, plus everything [`EnqodeModel::fit`] returns.
    pub fn fit_with_shared_symbolic(
        samples: &[Vec<f64>],
        config: EnqodeConfig,
        threads: NonZeroUsize,
        symbolic: Arc<SymbolicState>,
    ) -> Result<Self, EnqodeError> {
        Self::validate_shared(&config, &symbolic)?;
        let dim = config.ansatz.dimension();
        for s in samples {
            if s.len() != dim {
                return Err(EnqodeError::DimensionMismatch {
                    expected: dim,
                    found: s.len(),
                });
            }
        }
        let start = Instant::now();
        let normalized: Result<Vec<Vec<f64>>, _> =
            samples.iter().map(|s| l2_normalize(s)).collect();
        let normalized = normalized?;

        let clustering = fit_with_fidelity_threshold(
            &normalized,
            config.fidelity_threshold,
            config.max_clusters,
            config.seed,
        )?;

        let centroids: Result<Vec<Vec<f64>>, _> = clustering
            .centroids()
            .iter()
            .map(|c| l2_normalize(c))
            .collect();
        let centroids = centroids?;
        Self::train_clusters(centroids, config, threads, symbolic, start)
    }

    /// Trains per-cluster ansatz parameters directly from externally supplied
    /// cluster centroids — the entry point for out-of-core training, where
    /// the centroids come from streaming mini-batch k-means and the raw
    /// samples were never resident. Centroids are L2-normalised internally;
    /// the per-cluster optimisation (restart grid, rescue wave, seeds) is
    /// identical to [`EnqodeModel::fit_with_shared_symbolic`] after its
    /// clustering step, so a streaming fit that reproduces the in-memory
    /// clustering bit-for-bit also reproduces the trained parameters.
    ///
    /// # Errors
    ///
    /// Same contract as [`EnqodeModel::fit_with_shared_symbolic`], with the
    /// clustering-related errors replaced by validation of the supplied
    /// centroids (empty set, wrong dimension, zero vectors).
    pub fn fit_from_centroids(
        centroids: &[Vec<f64>],
        config: EnqodeConfig,
        threads: NonZeroUsize,
        symbolic: Arc<SymbolicState>,
    ) -> Result<Self, EnqodeError> {
        Self::validate_shared(&config, &symbolic)?;
        if centroids.is_empty() {
            return Err(EnqodeError::Data(enq_data::DataError::EmptyDataset));
        }
        let dim = config.ansatz.dimension();
        for c in centroids {
            if c.len() != dim {
                return Err(EnqodeError::DimensionMismatch {
                    expected: dim,
                    found: c.len(),
                });
            }
        }
        let start = Instant::now();
        let normalized: Result<Vec<Vec<f64>>, _> =
            centroids.iter().map(|c| l2_normalize(c)).collect();
        Self::train_clusters(normalized?, config, threads, symbolic, start)
    }

    /// Assembles a model from externally supplied **already-trained** parts
    /// — the decoding half of model persistence (`enq_store`), where the
    /// clusters come from a durable artifact rather than a fit.
    ///
    /// Cluster values are adopted **verbatim**: centroids and parameters
    /// are *not* renormalised, so a trained model round-trips through
    /// serialisation bit-for-bit and embeds identically afterwards. Only
    /// shapes are validated (the artifact's integrity hash guards the
    /// values themselves against corruption).
    ///
    /// The symbolic table is rebuildable from the ansatz shape alone, so
    /// artifacts never store it; callers reconstruct one per shape (see
    /// [`SymbolicState::from_ansatz`]) and share the `Arc` across every
    /// model of that shape, exactly like the training paths.
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::InvalidConfig`] for an invalid ansatz or a
    /// symbolic table built for a different shape,
    /// [`EnqodeError::NotTrained`] for an empty cluster set, and
    /// [`EnqodeError::DimensionMismatch`] when a centroid's length is not
    /// `2^num_qubits` or a parameter vector's length is not
    /// `num_qubits × num_layers`.
    pub fn from_trained_parts(
        config: EnqodeConfig,
        symbolic: Arc<SymbolicState>,
        clusters: Vec<TrainedCluster>,
        offline_duration: Duration,
    ) -> Result<Self, EnqodeError> {
        Self::validate_shared(&config, &symbolic)?;
        if clusters.is_empty() {
            return Err(EnqodeError::NotTrained);
        }
        let dim = config.ansatz.dimension();
        let num_parameters = config.ansatz.num_parameters();
        for cluster in &clusters {
            if cluster.centroid.len() != dim {
                return Err(EnqodeError::DimensionMismatch {
                    expected: dim,
                    found: cluster.centroid.len(),
                });
            }
            if cluster.parameters.len() != num_parameters {
                return Err(EnqodeError::DimensionMismatch {
                    expected: num_parameters,
                    found: cluster.parameters.len(),
                });
            }
        }
        Ok(Self {
            config,
            symbolic,
            clusters,
            offline_duration,
        })
    }

    /// Validates the ansatz and checks that the shared symbolic table was
    /// built for exactly this shape.
    fn validate_shared(
        config: &EnqodeConfig,
        symbolic: &Arc<SymbolicState>,
    ) -> Result<(), EnqodeError> {
        config.ansatz.validate()?;
        // The full shape must match — the entangler permutes phase-table
        // rows, so two tables of identical size are still not
        // interchangeable across entangler kinds (or layer/qubit splits
        // with the same parameter count).
        if *symbolic.ansatz() != config.ansatz {
            return Err(EnqodeError::InvalidConfig(format!(
                "shared symbolic state was built for {:?}, but the config needs {:?}",
                symbolic.ansatz(),
                config.ansatz,
            )));
        }
        Ok(())
    }

    /// Shared training core: optimises every (already normalised) centroid
    /// over the restart grid, applying the rescue wave when configured.
    fn train_clusters(
        centroids: Vec<Vec<f64>>,
        config: EnqodeConfig,
        threads: NonZeroUsize,
        symbolic: Arc<SymbolicState>,
        start: Instant,
    ) -> Result<Self, EnqodeError> {
        // Flatten the (cluster, restart) grid into one parallel job list so
        // uneven convergence never leaves workers idle.
        let restarts = config.offline_restarts.max(1);
        let jobs: Vec<(usize, usize)> = (0..centroids.len())
            .flat_map(|c| (0..restarts).map(move |r| (c, r)))
            .collect();
        let outcomes = enq_parallel::par_map_with_threads(threads, &jobs, |_, &(c, r)| {
            Self::train_restart(&symbolic, &config, &centroids[c], c, r)
        });
        let mut outcomes_ok = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            outcomes_ok.push(outcome?);
        }

        // Reduce restart outcomes per cluster; strict `>` keeps the earliest
        // restart on ties, matching a sequential loop.
        let mut best_per_cluster: Vec<RestartOutcome> = outcomes_ok
            .chunks_exact(restarts)
            .map(|cluster_outcomes| {
                cluster_outcomes
                    .iter()
                    .reduce(|best, next| {
                        if next.fidelity > best.fidelity {
                            next
                        } else {
                            best
                        }
                    })
                    .expect("at least one restart runs")
                    .clone()
            })
            .collect();

        // Rescue wave: clusters whose best restart missed the fidelity
        // threshold get a deterministic second round of restarts (fresh
        // derived seeds), bounding the damage of an unlucky initial draw
        // without inflating the budget of clusters that already converged.
        let needy: Vec<usize> = if config.offline_rescue {
            best_per_cluster
                .iter()
                .enumerate()
                .filter(|(_, o)| o.fidelity < config.fidelity_threshold)
                .map(|(c, _)| c)
                .collect()
        } else {
            Vec::new()
        };
        if !needy.is_empty() {
            let rescue_per_cluster = (2 * restarts).max(4);
            let rescue_jobs: Vec<(usize, usize)> = needy
                .iter()
                .flat_map(|&c| (restarts..restarts + rescue_per_cluster).map(move |r| (c, r)))
                .collect();
            let rescue_outcomes =
                enq_parallel::par_map_with_threads(threads, &rescue_jobs, |_, &(c, r)| {
                    Self::train_restart(&symbolic, &config, &centroids[c], c, r)
                });
            for (&(c, _), outcome) in rescue_jobs.iter().zip(rescue_outcomes) {
                let outcome = outcome?;
                if outcome.fidelity > best_per_cluster[c].fidelity {
                    best_per_cluster[c] = outcome;
                }
            }
        }

        let clusters: Vec<TrainedCluster> = centroids
            .into_iter()
            .zip(best_per_cluster)
            .map(|(centroid, best)| TrainedCluster {
                centroid,
                parameters: best.parameters,
                fidelity: best.fidelity,
                iterations: best.iterations,
            })
            .collect();
        Ok(Self {
            config,
            symbolic,
            clusters,
            offline_duration: start.elapsed(),
        })
    }

    /// Runs one restart of one cluster's offline optimisation.
    fn train_restart(
        symbolic: &Arc<SymbolicState>,
        config: &EnqodeConfig,
        centroid: &[f64],
        cluster: usize,
        restart: usize,
    ) -> Result<RestartOutcome, EnqodeError> {
        let objective =
            FidelityObjective::with_symbolic(Arc::clone(symbolic), &config.ansatz, centroid)?;
        let mut rng = StdRng::seed_from_u64(restart_seed(config.seed, cluster, restart));
        let spread = if restart == 0 {
            0.3
        } else {
            std::f64::consts::PI
        };
        let start_theta: Vec<f64> = (0..config.ansatz.num_parameters())
            .map(|_| rng.gen_range(-spread..spread))
            .collect();
        let optimizer = Lbfgs::with_max_iterations(config.offline_max_iterations);
        let result = optimizer.minimize(&objective, &start_theta);
        let fidelity = objective.fidelity(&result.x);
        Ok(RestartOutcome {
            parameters: result.x,
            fidelity,
            iterations: result.iterations,
        })
    }

    /// Returns the model configuration.
    pub fn config(&self) -> &EnqodeConfig {
        &self.config
    }

    /// Returns the trained clusters.
    pub fn clusters(&self) -> &[TrainedCluster] {
        &self.clusters
    }

    /// Returns the number of clusters selected by the fidelity-threshold
    /// rule.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Returns the wall-clock duration of the offline training phase.
    pub fn offline_duration(&self) -> Duration {
        self.offline_duration
    }

    /// Returns the shared symbolic state of the ansatz.
    pub fn symbolic(&self) -> &SymbolicState {
        &self.symbolic
    }

    /// Returns a handle to the shared symbolic state (no table copy).
    pub fn symbolic_arc(&self) -> Arc<SymbolicState> {
        Arc::clone(&self.symbolic)
    }

    /// Returns the index of the cluster whose centroid is nearest (in
    /// Euclidean distance) to the normalised sample.
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::NotTrained`] if the model has no clusters and
    /// [`EnqodeError::DimensionMismatch`] for bad sample lengths.
    pub fn nearest_cluster(&self, sample: &[f64]) -> Result<usize, EnqodeError> {
        let normalized = self.normalize_checked(sample)?;
        Ok(self.nearest_cluster_of_normalized(&normalized)?.0)
    }

    /// Validates the sample dimension and L2-normalises it.
    pub(crate) fn normalize_checked(&self, sample: &[f64]) -> Result<Vec<f64>, EnqodeError> {
        let dim = self.config.ansatz.dimension();
        if sample.len() != dim {
            return Err(EnqodeError::DimensionMismatch {
                expected: dim,
                found: sample.len(),
            });
        }
        Ok(l2_normalize(sample)?)
    }

    /// Nearest-cluster lookup for an already normalised sample, returning
    /// `(cluster index, squared distance)` so callers comparing across
    /// models (the pipeline's cross-class search) need no second pass.
    pub(crate) fn nearest_cluster_of_normalized(
        &self,
        normalized: &[f64],
    ) -> Result<(usize, f64), EnqodeError> {
        if self.clusters.is_empty() {
            return Err(EnqodeError::NotTrained);
        }
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        for (i, cluster) in self.clusters.iter().enumerate() {
            let dist: f64 = normalized
                .iter()
                .zip(cluster.centroid.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            if dist < best_dist {
                best_dist = dist;
                best = i;
            }
        }
        Ok((best, best_dist))
    }

    /// Builds the bound, fixed-shape embedding circuit for given parameters.
    ///
    /// # Errors
    ///
    /// Returns a circuit error if `parameters` is too short.
    pub fn circuit(&self, parameters: &[f64]) -> Result<QuantumCircuit, EnqodeError> {
        self.config.ansatz.build_bound(parameters)
    }

    /// Embeds a new sample (the "online" phase): nearest-cluster lookup,
    /// transfer-learning initialisation, and a short symbolic fine-tune.
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::NotTrained`] for an untrained model, dimension
    /// errors for bad samples, and data errors for zero vectors.
    pub fn embed(&self, sample: &[f64]) -> Result<Embedding, EnqodeError> {
        let start = Instant::now();
        let normalized = self.normalize_checked(sample)?;
        let (cluster_index, _) = self.nearest_cluster_of_normalized(&normalized)?;
        self.embed_normalized(&normalized, cluster_index, start)
    }

    /// Embedding core shared by [`EnqodeModel::embed`] and the pipeline: the
    /// sample is already normalised and its initialisation cluster chosen, so
    /// no work is repeated.
    pub(crate) fn embed_normalized(
        &self,
        normalized: &[f64],
        cluster_index: usize,
        start: Instant,
    ) -> Result<Embedding, EnqodeError> {
        let objective = FidelityObjective::with_symbolic(
            Arc::clone(&self.symbolic),
            &self.config.ansatz,
            normalized,
        )?;
        let initial = &self.clusters[cluster_index].parameters;
        let result = Lbfgs::with_max_iterations(self.config.online_max_iterations)
            .minimize(&objective, initial);
        let ideal_fidelity = objective.fidelity(&result.x);
        let circuit = self.config.ansatz.build_bound(&result.x)?;
        Ok(Embedding {
            parameters: result.x,
            circuit,
            cluster_index,
            ideal_fidelity,
            duration: start.elapsed(),
            iterations: result.iterations,
        })
    }

    /// Batched core of the embedding path: fine-tunes `jobs.len()` already
    /// normalised samples in **lockstep**, one fused
    /// [`BatchedFidelityObjective`] sweep per optimisation round instead of
    /// one kernel invocation per sample per round.
    ///
    /// Each lane runs an [`LbfgsDriver`] — the same L-BFGS that
    /// [`Lbfgs::minimize`] runs on the solo path — against the batched loss,
    /// whose per-lane arithmetic is bit-identical to the solo objective. Every returned [`Embedding`] is
    /// therefore **bit-identical** to what [`EnqodeModel::embed_normalized`]
    /// produces for the same job (apart from wall-clock `duration`), and the
    /// final `ideal_fidelity` is scored through the same solo objective path.
    ///
    /// Errors are per-job: one failing lane does not poison its batchmates.
    pub(crate) fn embed_normalized_batch(
        &self,
        jobs: &[(Vec<f64>, usize, Instant)],
    ) -> Vec<Result<Embedding, EnqodeError>> {
        let mut out: Vec<Option<Result<Embedding, EnqodeError>>> =
            (0..jobs.len()).map(|_| None).collect();
        // Lanes whose objective constructs successfully join the batch; the
        // rest resolve to their construction error immediately.
        let mut live: Vec<usize> = Vec::new();
        let mut objectives: Vec<FidelityObjective> = Vec::new();
        for (idx, (normalized, _, _)) in jobs.iter().enumerate() {
            match FidelityObjective::with_symbolic(
                Arc::clone(&self.symbolic),
                &self.config.ansatz,
                normalized,
            ) {
                Ok(objective) => {
                    live.push(idx);
                    objectives.push(objective);
                }
                Err(e) => out[idx] = Some(Err(e)),
            }
        }
        if !objectives.is_empty() {
            let refs: Vec<&FidelityObjective> = objectives.iter().collect();
            let mut batched = BatchedFidelityObjective::new(&refs)
                .expect("lanes share the model's symbolic state");
            let lanes = live.len();
            let p = batched.num_parameters();
            let params = Lbfgs::with_max_iterations(self.config.online_max_iterations);
            let mut drivers: Vec<LbfgsDriver> = live
                .iter()
                .map(|&idx| {
                    let cluster_index = jobs[idx].1;
                    LbfgsDriver::new(params.clone(), &self.clusters[cluster_index].parameters)
                })
                .collect();
            // Lockstep rounds: every driver always has exactly one pending
            // evaluation, so each round is one batched kernel sweep. Lanes
            // that finish early keep their last point in the block — the
            // extra evaluations are discarded and cannot affect other lanes
            // (all batched arithmetic is element-wise per lane).
            let mut thetas = vec![0.0; lanes * p];
            for (b, driver) in drivers.iter().enumerate() {
                thetas[b * p..(b + 1) * p]
                    .copy_from_slice(driver.pending().expect("fresh driver is never done"));
            }
            let mut values = vec![0.0; lanes];
            let mut gradients = vec![0.0; lanes * p];
            while drivers.iter().any(|d| !d.is_done()) {
                batched
                    .eval(&thetas, &mut values, &mut gradients)
                    .expect("batch shapes fixed at construction");
                for (b, driver) in drivers.iter_mut().enumerate() {
                    if driver.is_done() {
                        continue;
                    }
                    driver.supply(values[b], &gradients[b * p..(b + 1) * p]);
                    if let Some(point) = driver.pending() {
                        thetas[b * p..(b + 1) * p].copy_from_slice(point);
                    }
                }
            }
            for ((&idx, driver), objective) in
                live.iter().zip(drivers.iter()).zip(objectives.iter())
            {
                let result = driver.result().expect("lockstep loop ran to completion");
                let (_, cluster_index, start) = &jobs[idx];
                let (cluster_index, start) = (*cluster_index, *start);
                // Score through the solo objective so the reported fidelity
                // is bit-identical to the per-request path.
                let ideal_fidelity = objective.fidelity(&result.x);
                out[idx] =
                    Some(
                        self.config
                            .ansatz
                            .build_bound(&result.x)
                            .map(|circuit| Embedding {
                                parameters: result.x.clone(),
                                circuit,
                                cluster_index,
                                ideal_fidelity,
                                duration: start.elapsed(),
                                iterations: result.iterations,
                            }),
                    );
            }
        }
        out.into_iter()
            .map(|r| r.expect("every job resolves exactly once"))
            .collect()
    }

    /// Embeds a batch of samples in parallel. Results are returned in input
    /// order and are identical to calling [`EnqodeModel::embed`] in a loop
    /// (apart from each embedding's wall-clock `duration`).
    ///
    /// # Errors
    ///
    /// Returns an error from a failing sample (remaining samples are
    /// cancelled once a failure is observed).
    pub fn embed_batch(&self, samples: &[Vec<f64>]) -> Result<Vec<Embedding>, EnqodeError> {
        enq_parallel::try_par_map(samples, |_, sample| self.embed(sample))
    }

    /// Embeds a sample without fine-tuning, using the nearest cluster's
    /// parameters directly (the cheapest possible online path; used by the
    /// ablation benchmarks).
    ///
    /// The fidelity score runs through the shared symbolic workspace — one
    /// overlap evaluation with no gradient and no per-call table copies.
    ///
    /// # Errors
    ///
    /// Same as [`EnqodeModel::embed`].
    pub fn embed_without_finetuning(&self, sample: &[f64]) -> Result<Embedding, EnqodeError> {
        let start = Instant::now();
        let normalized = self.normalize_checked(sample)?;
        let (cluster_index, _) = self.nearest_cluster_of_normalized(&normalized)?;
        let objective = FidelityObjective::with_symbolic(
            Arc::clone(&self.symbolic),
            &self.config.ansatz,
            &normalized,
        )?;
        let parameters = self.clusters[cluster_index].parameters.clone();
        let ideal_fidelity = objective.fidelity(&parameters);
        let circuit = self.config.ansatz.build_bound(&parameters)?;
        Ok(Embedding {
            parameters,
            circuit,
            cluster_index,
            ideal_fidelity,
            duration: start.elapsed(),
            iterations: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::EntanglerKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_config() -> EnqodeConfig {
        EnqodeConfig {
            ansatz: AnsatzConfig {
                num_qubits: 3,
                num_layers: 8,
                entangler: EntanglerKind::Cy,
            },
            fidelity_threshold: 0.9,
            max_clusters: 8,
            offline_max_iterations: 150,
            offline_restarts: 3,
            online_max_iterations: 40,
            offline_rescue: false,
            seed: 3,
        }
    }

    /// Two groups of similar 8-dimensional vectors.
    fn grouped_samples(per_group: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        let base_a = [0.9, 0.2, 0.1, 0.05, 0.02, 0.1, 0.05, 0.01];
        let base_b = [0.05, 0.1, 0.02, 0.2, 0.9, 0.05, 0.1, 0.02];
        for _ in 0..per_group {
            out.push(
                base_a
                    .iter()
                    .map(|v| v + rng.gen_range(-0.03..0.03))
                    .collect(),
            );
            out.push(
                base_b
                    .iter()
                    .map(|v| v + rng.gen_range(-0.03..0.03))
                    .collect(),
            );
        }
        out
    }

    #[test]
    fn fit_trains_clusters_with_high_fidelity() {
        let samples = grouped_samples(6, 1);
        let model = EnqodeModel::fit(&samples, small_config()).unwrap();
        assert!(model.num_clusters() >= 1);
        for cluster in model.clusters() {
            assert!(
                cluster.fidelity > 0.9,
                "cluster fidelity {} too low",
                cluster.fidelity
            );
            assert_eq!(cluster.parameters.len(), 24);
        }
        assert!(model.offline_duration() > Duration::ZERO);
    }

    #[test]
    fn embed_reaches_high_fidelity_and_assigns_sensible_cluster() {
        let samples = grouped_samples(6, 2);
        let model = EnqodeModel::fit(&samples, small_config()).unwrap();
        let embedding = model.embed(&samples[0]).unwrap();
        assert!(
            embedding.ideal_fidelity > 0.9,
            "fidelity {}",
            embedding.ideal_fidelity
        );
        assert!(embedding.cluster_index < model.num_clusters());
        assert_eq!(embedding.parameters.len(), 24);
        assert!(!embedding.circuit.is_parameterized());
    }

    #[test]
    fn embedding_circuits_have_identical_shape_across_samples() {
        let samples = grouped_samples(4, 3);
        let model = EnqodeModel::fit(&samples, small_config()).unwrap();
        let a = model.embed(&samples[0]).unwrap();
        let b = model.embed(&samples[1]).unwrap();
        assert_eq!(a.circuit.len(), b.circuit.len());
        assert_eq!(a.circuit.depth(), b.circuit.depth());
    }

    #[test]
    fn transfer_learning_initialisation_is_better_than_cold_start() {
        // Fine-tuning from the cluster parameters should converge in fewer
        // iterations than the offline optimisation needed from scratch.
        let samples = grouped_samples(6, 4);
        let model = EnqodeModel::fit(&samples, small_config()).unwrap();
        let embedding = model.embed(&samples[2]).unwrap();
        let offline_iters = model.clusters()[embedding.cluster_index].iterations;
        assert!(
            embedding.iterations <= offline_iters,
            "online {} vs offline {}",
            embedding.iterations,
            offline_iters
        );
    }

    #[test]
    fn embed_without_finetuning_is_reasonable_for_cluster_members() {
        let samples = grouped_samples(6, 5);
        let model = EnqodeModel::fit(&samples, small_config()).unwrap();
        let quick = model.embed_without_finetuning(&samples[0]).unwrap();
        let tuned = model.embed(&samples[0]).unwrap();
        assert!(quick.ideal_fidelity > 0.8);
        assert!(tuned.ideal_fidelity >= quick.ideal_fidelity - 1e-9);
        assert_eq!(quick.iterations, 0);
    }

    #[test]
    fn embed_batch_matches_sequential_embeds() {
        let samples = grouped_samples(4, 7);
        let model = EnqodeModel::fit(&samples, small_config()).unwrap();
        let batch = model.embed_batch(&samples).unwrap();
        assert_eq!(batch.len(), samples.len());
        for (sample, from_batch) in samples.iter().zip(batch.iter()) {
            let single = model.embed(sample).unwrap();
            assert_eq!(single.parameters, from_batch.parameters);
            assert_eq!(single.cluster_index, from_batch.cluster_index);
            assert_eq!(single.ideal_fidelity, from_batch.ideal_fidelity);
            assert_eq!(single.iterations, from_batch.iterations);
        }
    }

    #[test]
    fn fit_rejects_wrong_dimensions() {
        let samples = vec![vec![1.0, 0.0, 0.0, 0.0]];
        assert!(matches!(
            EnqodeModel::fit(&samples, small_config()),
            Err(EnqodeError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn embed_rejects_bad_samples() {
        let samples = grouped_samples(3, 6);
        let model = EnqodeModel::fit(&samples, small_config()).unwrap();
        assert!(model.embed(&[1.0, 2.0]).is_err());
        assert!(model.embed(&[0.0; 8]).is_err());
        assert!(model
            .embed_batch(&[samples[0].clone(), vec![0.0; 8]])
            .is_err());
    }

    #[test]
    fn fit_with_shared_symbolic_rejects_mismatched_shape() {
        let samples = grouped_samples(3, 9);
        let config = small_config();
        // Same qubit and parameter counts, different entangler: the phase
        // tables differ, so this must be rejected, not silently accepted.
        let mut other = config.clone();
        other.ansatz.entangler = EntanglerKind::Cx;
        let symbolic = Arc::new(SymbolicState::from_ansatz(&other.ansatz).unwrap());
        assert!(matches!(
            EnqodeModel::fit_with_shared_symbolic(&samples, config, NonZeroUsize::MIN, symbolic),
            Err(EnqodeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = EnqodeConfig::default();
        assert_eq!(cfg.ansatz.num_qubits, 8);
        assert_eq!(cfg.ansatz.num_layers, 8);
        assert!((cfg.fidelity_threshold - 0.95).abs() < 1e-12);
    }
}
