//! The staged out-of-core fit driver.
//!
//! [`StreamDriver`] decomposes the monolithic streaming build into four
//! explicit stages — **Features → Clustering → FidelityAudit → Training** —
//! each independently runnable, timed, and observable through a progress
//! hook. [`crate::EnqodePipeline::build_streaming`] is a thin wrapper that
//! runs all four; benchmarks, services, and tests drive individual stages
//! (e.g. auditing cluster quality without paying for ansatz training, or
//! re-clustering under a new configuration against already-fitted features).
//!
//! Two ingestion optimisations live here:
//!
//! * every pass is **prefetched** ([`enq_data::ChunkPrefetcher`]) so reading
//!   or generating chunk `N + 1` overlaps crunching chunk `N`, and
//! * with [`StreamingFitConfig::spill_features`] the PCA-transformed feature
//!   stream is written once to an mmap-backed `ENQB` temp file, so the many
//!   clustering/audit passes re-read tiny feature records instead of
//!   re-rendering and re-projecting raw samples every pass.
//!
//! Both are bit-identical to the synchronous, re-streaming path (features
//! round-trip losslessly through little-endian `f64` records and chunks
//! arrive in source order).
//!
//! # The streaming fidelity-threshold `k` search
//!
//! The paper grows each class's cluster count until every sample's state
//! fidelity against its nearest cluster mean clears a threshold. In-memory,
//! [`enq_data::fit_with_fidelity_threshold`] re-clusters at increasing `k`;
//! out-of-core, a full re-clustering per candidate `k` is unaffordable.
//! The audit stage instead runs **audit-and-split rounds**: one pass scores
//! every cluster's member fidelities (the closed-form `⟨x̂, ĉ⟩²` bound), then
//! each class splits its *worst* offending cluster by planting a new
//! centroid at that cluster's worst-explained member, re-polishes, and
//! re-audits. Splitting only the per-class argmin cluster makes the state
//! sequence independent of the threshold, so the search is **monotone by
//! construction**: a tighter threshold can only stop later in the same
//! sequence, never with fewer clusters.

use crate::error::EnqodeError;
use crate::model::{EnqodeConfig, EnqodeModel};
use crate::pipeline::{ClassModel, EnqodePipeline, StreamingFitConfig};
use crate::symbolic::SymbolicState;
use enq_data::{
    drive_chunks, embedding_fidelity, BinaryDatasetWriter, BinarySource, DataError,
    FeaturePipeline, IncrementalPca, MiniBatchKMeans, MiniBatchKMeansConfig, SampleChunk,
    SampleSource,
};
use enq_parallel::CancelToken;
use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The four stages of a streaming fit, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamStage {
    /// Incremental PCA + label discovery (and the optional feature spill).
    Features,
    /// Per-class mini-batch k-means with streaming-Lloyd polish.
    Clustering,
    /// Fidelity audit (and adaptive cluster splitting when a threshold is
    /// configured).
    FidelityAudit,
    /// Per-centroid ansatz training.
    Training,
}

impl StreamStage {
    /// Stable lower-case stage name for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            StreamStage::Features => "features",
            StreamStage::Clustering => "clustering",
            StreamStage::FidelityAudit => "fidelity-audit",
            StreamStage::Training => "training",
        }
    }
}

/// Timing and progress record of one completed stage.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Which stage completed.
    pub stage: StreamStage,
    /// Wall-clock duration of the stage.
    pub duration: Duration,
    /// Passes over the sample stream (raw or spilled) the stage performed.
    pub passes_over_source: usize,
    /// Human-readable stage summary (cluster counts, audit rounds, …).
    pub detail: String,
}

/// Audit result for one cluster of one class.
#[derive(Debug, Clone)]
pub struct ClusterAudit {
    /// Members assigned to this cluster during the audit pass.
    pub members: u64,
    /// Minimum member fidelity (`⟨x̂, ĉ⟩²`); `f64::INFINITY` for a cluster
    /// that received no members.
    pub min_fidelity: f64,
    /// Mean member fidelity (`0.0` for an empty cluster).
    pub mean_fidelity: f64,
}

/// Audit results for one class.
#[derive(Debug, Clone)]
pub struct ClassAudit {
    /// The class label.
    pub label: usize,
    /// Per-cluster audit results, in centroid order.
    pub clusters: Vec<ClusterAudit>,
    /// Whether the adaptive search stopped at `max_clusters_per_class`
    /// before every cluster cleared the threshold.
    pub capped: bool,
}

/// The final fidelity audit of a streaming fit.
#[derive(Debug, Clone)]
pub struct FidelityAudit {
    /// Per-class audits, in label order.
    pub classes: Vec<ClassAudit>,
    /// The threshold the adaptive search enforced (`None` for a pure
    /// diagnostic audit).
    pub threshold: Option<f64>,
    /// Audit rounds run (1 = no splits were needed).
    pub rounds: usize,
    /// Total clusters added by splitting.
    pub splits: usize,
}

impl FidelityAudit {
    /// Minimum audited fidelity over every non-empty cluster of every class.
    pub fn min_fidelity(&self) -> f64 {
        self.classes
            .iter()
            .flat_map(|c| c.clusters.iter())
            .filter(|c| c.members > 0)
            .map(|c| c.min_fidelity)
            .fold(f64::INFINITY, f64::min)
    }

    /// Total clusters across all classes.
    pub fn total_clusters(&self) -> usize {
        self.classes.iter().map(|c| c.clusters.len()).sum()
    }

    /// Whether the adaptive postcondition holds: every class either has all
    /// its non-empty clusters at or above the threshold, or stopped at the
    /// per-class cap. Always `true` for a diagnostic audit (no threshold).
    pub fn satisfied(&self) -> bool {
        let Some(threshold) = self.threshold else {
            return true;
        };
        self.classes.iter().all(|class| {
            class.capped
                || class
                    .clusters
                    .iter()
                    .filter(|c| c.members > 0)
                    .all(|c| c.min_fidelity >= threshold)
        })
    }
}

/// A stage-completion progress hook (see [`StreamDriver::set_progress`]).
type ProgressHook<'s> = Box<dyn FnMut(&StageReport) + 's>;

/// Distinguishes concurrently live spill files (multiple drivers in one
/// process).
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A temp file holding the spilled feature stream; removed on drop.
#[derive(Debug)]
struct FeatureSpill {
    path: PathBuf,
}

impl FeatureSpill {
    fn fresh_path() -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "enq_stream_spill_{}_{}.enqb",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        path
    }
}

impl Drop for FeatureSpill {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Per-cluster accumulator of one audit pass.
#[derive(Debug, Clone)]
struct ClusterStat {
    members: u64,
    fid_sum: f64,
    min_fidelity: f64,
    /// The member realising `min_fidelity` — the split point for an
    /// offending cluster.
    worst_member: Option<Vec<f64>>,
}

impl ClusterStat {
    fn new() -> Self {
        Self {
            members: 0,
            fid_sum: 0.0,
            min_fidelity: f64::INFINITY,
            worst_member: None,
        }
    }
}

/// The staged out-of-core fit driver: **Features → Clustering →
/// FidelityAudit → Training**, each stage independently runnable, timed,
/// and observable, with prefetched ingestion and the optional mmap feature
/// spill (see the module-level docs in `driver.rs` for the full design and
/// the monotonicity argument of the adaptive search).
///
/// # Examples
///
/// Auditing streaming cluster quality without training a single ansatz:
///
/// ```
/// use enq_data::{generate_synthetic, DatasetKind, InMemorySource, SyntheticConfig};
/// use enqode::{AnsatzConfig, EnqodeConfig, StreamDriver, StreamingFitConfig};
///
/// let data = generate_synthetic(
///     DatasetKind::MnistLike,
///     &SyntheticConfig { classes: 2, samples_per_class: 10, seed: 4 },
/// )?;
/// let mut source = InMemorySource::new(&data);
/// let config = EnqodeConfig {
///     ansatz: AnsatzConfig { num_qubits: 3, num_layers: 4, ..Default::default() },
///     seed: 4,
///     ..Default::default()
/// };
/// let stream = StreamingFitConfig {
///     chunk_size: 8,
///     clusters_per_class: 2,
///     fidelity_threshold: Some(0.5),
///     max_clusters_per_class: 4,
///     ..Default::default()
/// };
/// let mut driver = StreamDriver::new(&mut source, config, stream)?;
/// driver.run_features()?;
/// driver.run_clustering()?;
/// driver.run_fidelity_audit()?;
/// let audit = driver.audit().expect("audit ran");
/// assert!(audit.satisfied());
/// # Ok::<(), enqode::EnqodeError>(())
/// ```
pub struct StreamDriver<'s> {
    source: &'s mut dyn SampleSource,
    config: EnqodeConfig,
    stream: StreamingFitConfig,
    threads: NonZeroUsize,
    progress: Option<ProgressHook<'s>>,
    /// Cooperative cancellation flag, polled between chunks, audit rounds,
    /// and training items (see [`StreamDriver::set_cancel`]).
    cancel: Option<CancelToken>,
    /// An adopted, already-fitted feature pipeline: the source is treated as
    /// yielding **feature-space** records and the feature stage skips the
    /// PCA fit (see [`StreamDriver::preset_features`]).
    preset: Option<FeaturePipeline>,
    features: Option<FeaturePipeline>,
    /// Label set discovered by the feature stage — the clustering stage
    /// (re)creates its accumulators from this, so clustering can rerun
    /// even after training consumed the previous accumulators.
    labels: Vec<usize>,
    spill: Option<FeatureSpill>,
    /// The spilled features, opened (and mmapped) once; passes `reset()` it
    /// instead of re-opening the file.
    spill_reader: Option<BinarySource>,
    accumulators: BTreeMap<usize, MiniBatchKMeans>,
    audit: Option<FidelityAudit>,
    reports: Vec<StageReport>,
}

impl std::fmt::Debug for StreamDriver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamDriver")
            .field("stream", &self.stream)
            .field("features_fitted", &self.features.is_some())
            .field("classes", &self.accumulators.len())
            .field("reports", &self.reports)
            .finish_non_exhaustive()
    }
}

impl<'s> StreamDriver<'s> {
    /// Creates a driver with the default worker count.
    ///
    /// # Errors
    ///
    /// Returns configuration errors from the ansatz and
    /// [`StreamingFitConfig::validate`].
    pub fn new(
        source: &'s mut dyn SampleSource,
        config: EnqodeConfig,
        stream: StreamingFitConfig,
    ) -> Result<Self, EnqodeError> {
        Self::with_threads(source, config, stream, enq_parallel::default_threads())
    }

    /// [`StreamDriver::new`] with an explicit worker count (stage results
    /// are bit-identical for every `threads` value).
    ///
    /// # Errors
    ///
    /// Same as [`StreamDriver::new`].
    pub fn with_threads(
        source: &'s mut dyn SampleSource,
        config: EnqodeConfig,
        stream: StreamingFitConfig,
        threads: NonZeroUsize,
    ) -> Result<Self, EnqodeError> {
        config.ansatz.validate()?;
        stream.validate()?;
        Ok(Self {
            source,
            config,
            stream,
            threads,
            progress: None,
            cancel: None,
            preset: None,
            features: None,
            labels: Vec::new(),
            spill: None,
            spill_reader: None,
            accumulators: BTreeMap::new(),
            audit: None,
            reports: Vec::new(),
        })
    }

    /// Installs a progress hook invoked with each stage's [`StageReport`] as
    /// it completes (services use this to surface fit progress; benchmarks
    /// to attribute wall-clock per stage).
    pub fn set_progress(&mut self, hook: impl FnMut(&StageReport) + 's) {
        self.progress = Some(Box::new(hook));
    }

    /// Installs a cooperative cancellation token. The driver polls it at
    /// every natural yield point — per ingested chunk, per audit round, and
    /// per training item — and winds down with [`EnqodeError::Cancelled`]
    /// when it observes the flag. Cancellation never publishes partial
    /// results: the pipeline is only returned by a fully completed
    /// [`StreamDriver::run_training`], and the feature-spill temp file is
    /// removed when the driver drops.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Adopts an already-fitted feature pipeline and treats the source as
    /// yielding **feature-space** records (post-PCA, L2-normalised — exactly
    /// what [`crate::EnqodePipeline::extract_features`] produces, and what a
    /// serving process's traffic accumulator spills to disk).
    ///
    /// With a preset, the feature stage skips the incremental-PCA fit and
    /// runs a single label-discovery pass (merged with the optional verbatim
    /// feature spill); clustering, auditing, and training consume the source
    /// records directly. This is the traffic-refresh path: the model's PCA
    /// basis stays fixed while centroids and ansatz parameters retrain from
    /// live traffic.
    ///
    /// Must be called before [`StreamDriver::run_features`].
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::InvalidConfig`] when the pipeline's output
    /// dimension disagrees with the ansatz dimension or with the source's
    /// record dimension.
    pub fn preset_features(&mut self, features: FeaturePipeline) -> Result<(), EnqodeError> {
        let want = self.config.ansatz.dimension();
        if features.output_dim() != want {
            return Err(EnqodeError::InvalidConfig(format!(
                "preset feature pipeline produces {} features but the ansatz embeds {want}",
                features.output_dim()
            )));
        }
        if self.source.feature_dim() != want {
            return Err(EnqodeError::InvalidConfig(format!(
                "preset features require a feature-space source: source records have \
                 dimension {} but the feature space is {want}",
                self.source.feature_dim()
            )));
        }
        self.preset = Some(features);
        Ok(())
    }

    /// A chunk-callback cancellation probe bound to this driver's token.
    fn cancel_probe(&self) -> impl Fn() -> Result<(), DataError> + Send {
        let cancel = self.cancel.clone();
        move || {
            if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                Err(DataError::Cancelled)
            } else {
                Ok(())
            }
        }
    }

    /// Stage-boundary cancellation check.
    fn check_cancelled(&self) -> Result<(), EnqodeError> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            Err(EnqodeError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// Reports of every stage completed so far, in completion order.
    pub fn reports(&self) -> &[StageReport] {
        &self.reports
    }

    /// The fitted feature pipeline (after [`StreamDriver::run_features`]).
    pub fn features(&self) -> Option<&FeaturePipeline> {
        self.features.as_ref()
    }

    /// The final fidelity audit (after
    /// [`StreamDriver::run_fidelity_audit`]).
    pub fn audit(&self) -> Option<&FidelityAudit> {
        self.audit.as_ref()
    }

    /// Current clusters per class, in label order (after
    /// [`StreamDriver::run_clustering`]; grows during the audit stage's
    /// adaptive splits).
    pub fn clusters_per_class(&self) -> Vec<(usize, usize)> {
        self.accumulators
            .iter()
            .map(|(&label, acc)| (label, acc.num_clusters()))
            .collect()
    }

    fn finish_stage(&mut self, stage: StreamStage, start: Instant, passes: usize, detail: String) {
        let report = StageReport {
            stage,
            duration: start.elapsed(),
            passes_over_source: passes,
            detail,
        };
        if let Some(hook) = self.progress.as_mut() {
            hook(&report);
        }
        self.reports.push(report);
    }

    /// **Stage 1 — Features.** One pass fits the incremental PCA and
    /// discovers the label set; with [`StreamingFitConfig::spill_features`]
    /// a second pass writes the transformed feature stream to an mmap-backed
    /// temp file that all later stages read instead of the raw source.
    ///
    /// Rerunning replaces the fitted features (and invalidates later-stage
    /// state).
    ///
    /// # Errors
    ///
    /// Propagates source and PCA errors; an empty source yields
    /// [`enq_data::DataError::EmptyDataset`].
    pub fn run_features(&mut self) -> Result<(), EnqodeError> {
        self.check_cancelled()?;
        let start = Instant::now();
        let num_features = self.config.ansatz.dimension();
        let chunk_size = self.stream.chunk_size;
        let ingest = self.stream.ingest;
        self.accumulators.clear();
        self.audit = None;
        self.spill = None;
        self.spill_reader = None;
        self.labels.clear();
        let probe = self.cancel_probe();

        if let Some(preset) = self.preset.clone() {
            // Adopted features: the source already yields feature-space
            // records, so one pass discovers the label set and (optionally)
            // spills the records verbatim — no PCA fit at all.
            let mut label_set = BTreeSet::new();
            let spill = self.stream.spill_features.then(|| FeatureSpill {
                path: FeatureSpill::fresh_path(),
            });
            let mut writer = spill
                .as_ref()
                .map(|s| BinaryDatasetWriter::create(&s.path, num_features, true))
                .transpose()?;
            self.source.reset()?;
            drive_chunks(&mut *self.source, chunk_size, ingest, |chunk| {
                probe()?;
                label_set.extend(chunk.labels().iter().copied());
                if let Some(writer) = writer.as_mut() {
                    for (sample, &label) in chunk.samples().iter().zip(chunk.labels()) {
                        writer.append(sample, label)?;
                    }
                }
                Ok(())
            })
            .map_err(EnqodeError::from)?;
            if label_set.is_empty() {
                return Err(EnqodeError::Data(DataError::EmptyDataset));
            }
            if let Some(writer) = writer {
                writer.finish()?;
                let spill = spill.expect("writer implies spill");
                self.spill_reader = Some(BinarySource::open(&spill.path)?);
                self.spill = Some(spill);
            }
            let detail = format!(
                "{} classes, {} features (preset pipeline, PCA fit skipped){}",
                label_set.len(),
                num_features,
                if self.stream.spill_features {
                    ", features spilled"
                } else {
                    ""
                },
            );
            self.features = Some(preset);
            self.labels = label_set.into_iter().collect();
            self.finish_stage(StreamStage::Features, start, 1, detail);
            return Ok(());
        }

        let mut ipca =
            IncrementalPca::with_threads(self.source.feature_dim(), num_features, self.threads)?;
        let mut label_set = BTreeSet::new();
        self.source.reset()?;
        drive_chunks(&mut *self.source, chunk_size, ingest, |chunk| {
            probe()?;
            ipca.partial_fit(chunk.samples())?;
            label_set.extend(chunk.labels().iter().copied());
            Ok(())
        })
        .map_err(EnqodeError::from)?;
        if label_set.is_empty() {
            return Err(EnqodeError::Data(DataError::EmptyDataset));
        }
        let tail_dropped = ipca.tail_mass_dropped();
        let features = FeaturePipeline::from_pca(ipca.finalize_truncated()?, num_features)?;

        let mut passes = 1usize;
        if self.stream.spill_features {
            let spill = FeatureSpill {
                path: FeatureSpill::fresh_path(),
            };
            let mut writer = BinaryDatasetWriter::create(&spill.path, num_features, true)?;
            self.source.reset()?;
            let features_ref = &features;
            drive_chunks(&mut *self.source, chunk_size, ingest, |chunk| {
                probe()?;
                for (sample, &label) in chunk.samples().iter().zip(chunk.labels()) {
                    writer.append(&features_ref.apply(sample)?, label)?;
                }
                Ok(())
            })
            .map_err(EnqodeError::from)?;
            writer.finish()?;
            // Open (and mmap) the spill exactly once; later passes just
            // `reset()` the reader instead of re-opening the file.
            self.spill_reader = Some(BinarySource::open(&spill.path)?);
            self.spill = Some(spill);
            passes = 2;
        }

        let detail = format!(
            "{} classes, {} features, ipca tail mass {:.3e}{}",
            label_set.len(),
            num_features,
            tail_dropped,
            if self.stream.spill_features {
                ", features spilled"
            } else {
                ""
            },
        );
        self.features = Some(features);
        self.labels = label_set.into_iter().collect();
        self.finish_stage(StreamStage::Features, start, passes, detail);
        Ok(())
    }

    fn new_accumulator(
        &self,
        label: usize,
        num_features: usize,
    ) -> Result<MiniBatchKMeans, EnqodeError> {
        let mb_config = MiniBatchKMeansConfig {
            k: self.stream.clusters_per_class,
            chunk_size: self.stream.chunk_size,
            passes: self.stream.passes,
            polish_passes: self.stream.polish_passes,
            ingest: self.stream.ingest,
            // Independent, label-derived stream per class (golden-gamma
            // salting so nearby labels decorrelate; the accumulator's own
            // mix finalises it).
            seed: self.config.seed ^ (label as u64).wrapping_mul(enq_data::seed::GOLDEN_GAMMA),
            ..MiniBatchKMeansConfig::default()
        };
        Ok(MiniBatchKMeans::new(mb_config, num_features, self.threads)?)
    }

    /// Runs `f` over one pass of the **feature** stream: the spilled temp
    /// file when stage 1 spilled, otherwise the raw source transformed on
    /// the fly. Either way the chunks are identical.
    fn for_each_feature_chunk(
        &mut self,
        mut f: impl FnMut(&SampleChunk) -> Result<(), DataError>,
    ) -> Result<(), EnqodeError> {
        let features = self
            .features
            .as_ref()
            .ok_or_else(|| stage_order_error("features"))?;
        let chunk_size = self.stream.chunk_size;
        let ingest = self.stream.ingest;
        let probe = self.cancel_probe();
        let mut f = move |chunk: &SampleChunk| {
            probe()?;
            f(chunk)
        };
        if let Some(spilled) = &mut self.spill_reader {
            spilled.reset()?;
            drive_chunks(spilled, chunk_size, ingest, &mut f).map_err(EnqodeError::from)
        } else if self.preset.is_some() {
            // Adopted features with no spill: the raw source *is* the
            // feature stream.
            self.source.reset()?;
            drive_chunks(&mut *self.source, chunk_size, ingest, &mut f).map_err(EnqodeError::from)
        } else {
            self.source.reset()?;
            let mut transformed = features.stream_features(&mut *self.source);
            drive_chunks(&mut transformed, chunk_size, ingest, &mut f).map_err(EnqodeError::from)
        }
    }

    /// Feeds one feature chunk into the per-class buckets and hands each
    /// non-empty bucket (with its label) to `feed`.
    fn partition_and_feed(
        accumulators: &mut BTreeMap<usize, MiniBatchKMeans>,
        partitions: &mut BTreeMap<usize, Vec<Vec<f64>>>,
        chunk: &SampleChunk,
        mut feed: impl FnMut(usize, &mut MiniBatchKMeans, &[Vec<f64>]) -> Result<(), DataError>,
    ) -> Result<(), DataError> {
        for bucket in partitions.values_mut() {
            bucket.clear();
        }
        for (sample, &label) in chunk.samples().iter().zip(chunk.labels()) {
            partitions.entry(label).or_default().push(sample.clone());
        }
        for (&label, bucket) in partitions.iter() {
            if !bucket.is_empty() {
                feed(
                    label,
                    accumulators
                        .get_mut(&label)
                        .expect("labels discovered in the feature stage"),
                    bucket,
                )?;
            }
        }
        Ok(())
    }

    /// One set of streaming-Lloyd polish passes over all classes,
    /// early-stopped when total centroid movement converges. Returns the
    /// number of passes run.
    fn polish_all(&mut self, max_passes: usize) -> Result<usize, EnqodeError> {
        let mut partitions: BTreeMap<usize, Vec<Vec<f64>>> = BTreeMap::new();
        let mut run = 0usize;
        for _ in 0..max_passes {
            for acc in self.accumulators.values_mut() {
                acc.begin_polish()?;
            }
            let mut accumulators = std::mem::take(&mut self.accumulators);
            let outcome = self.for_each_feature_chunk(|chunk| {
                Self::partition_and_feed(&mut accumulators, &mut partitions, chunk, |_, acc, b| {
                    acc.feed_polish(b)
                })
            });
            self.accumulators = accumulators;
            outcome?;
            let mut total_movement = 0.0;
            for acc in self.accumulators.values_mut() {
                let (movement, _) = acc.end_polish()?;
                total_movement += movement;
            }
            run += 1;
            if total_movement < 1e-9 {
                break;
            }
        }
        Ok(run)
    }

    /// Streaming-Lloyd polish restricted to `active` classes, each polished
    /// until **its own** movement converges (or `max_passes`). Used by the
    /// adaptive audit rounds: polishing only the classes that just split —
    /// with per-class convergence — keeps every class's state trajectory a
    /// pure function of its *own* split history, which is what makes the
    /// fidelity-threshold search monotone (a class that did not split is
    /// untouched no matter how many rounds other classes drive).
    fn polish_classes(
        &mut self,
        mut active: BTreeSet<usize>,
        max_passes: usize,
    ) -> Result<usize, EnqodeError> {
        let mut partitions: BTreeMap<usize, Vec<Vec<f64>>> = BTreeMap::new();
        let mut run = 0usize;
        for _ in 0..max_passes {
            if active.is_empty() {
                break;
            }
            for (label, acc) in self.accumulators.iter_mut() {
                if active.contains(label) {
                    acc.begin_polish()?;
                }
            }
            let mut accumulators = std::mem::take(&mut self.accumulators);
            let active_ref = &active;
            let outcome = self.for_each_feature_chunk(|chunk| {
                Self::partition_and_feed(
                    &mut accumulators,
                    &mut partitions,
                    chunk,
                    |label, acc, b| {
                        if active_ref.contains(&label) {
                            acc.feed_polish(b)?;
                        }
                        Ok(())
                    },
                )
            });
            self.accumulators = accumulators;
            outcome?;
            let mut converged = Vec::new();
            for (label, acc) in self.accumulators.iter_mut() {
                if active.contains(label) {
                    let (movement, _) = acc.end_polish()?;
                    if movement < 1e-9 {
                        converged.push(*label);
                    }
                }
            }
            for label in converged {
                active.remove(&label);
            }
            run += 1;
        }
        Ok(run)
    }

    /// **Stage 2 — Clustering.** `passes` mini-batch k-means passes over the
    /// per-class feature streams, then up to `polish_passes` exact
    /// streaming-Lloyd refinements (early-stopped on convergence).
    ///
    /// Rerunning re-clusters from scratch against the stage-1 features.
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::InvalidConfig`] if the feature stage has not
    /// run; propagates source and clustering errors.
    pub fn run_clustering(&mut self) -> Result<(), EnqodeError> {
        self.check_cancelled()?;
        if self.features.is_none() {
            return Err(stage_order_error("features"));
        }
        let start = Instant::now();
        let num_features = self.config.ansatz.dimension();
        self.audit = None;
        // Fresh accumulators (from the stage-1 label set) so reruns do not
        // double-feed — and so clustering can rerun after training consumed
        // the previous accumulators.
        self.accumulators.clear();
        for label in self.labels.clone() {
            let acc = self.new_accumulator(label, num_features)?;
            self.accumulators.insert(label, acc);
        }

        let mut partitions: BTreeMap<usize, Vec<Vec<f64>>> = BTreeMap::new();
        for _ in 0..self.stream.passes {
            let mut accumulators = std::mem::take(&mut self.accumulators);
            let outcome = self.for_each_feature_chunk(|chunk| {
                Self::partition_and_feed(&mut accumulators, &mut partitions, chunk, |_, acc, b| {
                    acc.feed(b)
                })
            });
            self.accumulators = accumulators;
            outcome?;
            for acc in self.accumulators.values_mut() {
                acc.end_pass();
            }
        }
        for acc in self.accumulators.values_mut() {
            acc.ensure_initialized()?;
        }
        let polish_run = self.polish_all(self.stream.polish_passes)?;

        let clusters: usize = self
            .accumulators
            .values()
            .map(MiniBatchKMeans::num_clusters)
            .sum();
        self.finish_stage(
            StreamStage::Clustering,
            start,
            self.stream.passes + polish_run,
            format!(
                "{} clusters across {} classes ({} SGD + {polish_run} polish passes)",
                clusters,
                self.accumulators.len(),
                self.stream.passes,
            ),
        );
        Ok(())
    }

    /// One audit pass: per class and cluster, member count, min/mean
    /// fidelity, and the worst-explained member.
    fn audit_pass(&mut self) -> Result<BTreeMap<usize, Vec<ClusterStat>>, EnqodeError> {
        let mut stats: BTreeMap<usize, Vec<ClusterStat>> = self
            .accumulators
            .iter()
            .map(|(&label, acc)| (label, vec![ClusterStat::new(); acc.num_clusters()]))
            .collect();
        let accumulators = std::mem::take(&mut self.accumulators);
        let outcome = self.for_each_feature_chunk(|chunk| {
            for (sample, &label) in chunk.samples().iter().zip(chunk.labels()) {
                let acc = accumulators
                    .get(&label)
                    .expect("labels discovered in the feature stage");
                let centroids = acc.centroids().expect("clustering stage initialised");
                // Same nearest rule as every clustering path: strict `<`,
                // ties keep the lowest index.
                let mut best = 0usize;
                let mut best_dist = f64::INFINITY;
                for (i, c) in centroids.iter().enumerate() {
                    let d: f64 = sample
                        .iter()
                        .zip(c.iter())
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    if d < best_dist {
                        best_dist = d;
                        best = i;
                    }
                }
                let fidelity = embedding_fidelity(sample, &centroids[best]);
                let stat = &mut stats.get_mut(&label).expect("stats pre-sized")[best];
                stat.members += 1;
                stat.fid_sum += fidelity;
                if fidelity < stat.min_fidelity {
                    stat.min_fidelity = fidelity;
                    stat.worst_member = Some(sample.clone());
                }
            }
            Ok(())
        });
        self.accumulators = accumulators;
        outcome?;
        Ok(stats)
    }

    /// **Stage 3 — Fidelity audit.** With a configured
    /// [`StreamingFitConfig::fidelity_threshold`], runs audit-and-split
    /// rounds until every class's non-empty clusters clear the threshold or
    /// hit `max_clusters_per_class` (the adaptive `k` search — splitting
    /// only each class's worst cluster keeps the state sequence
    /// threshold-independent, hence monotone). Without a
    /// threshold, runs a single diagnostic audit pass.
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::InvalidConfig`] if clustering has not run;
    /// propagates source errors.
    pub fn run_fidelity_audit(&mut self) -> Result<(), EnqodeError> {
        self.check_cancelled()?;
        if self.accumulators.is_empty()
            || self
                .accumulators
                .values()
                .any(|acc| acc.centroids().is_none())
        {
            return Err(stage_order_error("clustering"));
        }
        let start = Instant::now();
        let threshold = self.stream.fidelity_threshold;
        let cap = self.stream.max_clusters_per_class;
        let mut rounds = 0usize;
        let mut splits = 0usize;
        let mut passes = 0usize;
        let final_stats = loop {
            self.check_cancelled()?;
            let stats = self.audit_pass()?;
            rounds += 1;
            passes += 1;
            let mut split_labels = BTreeSet::new();
            if let Some(threshold) = threshold {
                for (label, class_stats) in &stats {
                    let acc = self
                        .accumulators
                        .get_mut(label)
                        .expect("stats mirror accumulators");
                    if acc.num_clusters() >= cap {
                        continue;
                    }
                    // The class's worst cluster (lowest min fidelity; ties
                    // keep the lowest index — deterministic and
                    // threshold-independent).
                    let worst = class_stats
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.members > 0)
                        .min_by(|(_, a), (_, b)| {
                            a.min_fidelity
                                .partial_cmp(&b.min_fidelity)
                                .expect("fidelities are finite")
                        });
                    if let Some((_, stat)) = worst {
                        if stat.min_fidelity < threshold {
                            if let Some(member) = stat.worst_member.clone() {
                                acc.add_centroid(member)?;
                                splits += 1;
                                split_labels.insert(*label);
                            }
                        }
                    }
                }
            }
            if split_labels.is_empty() {
                break stats;
            }
            // Re-balance only the classes that just split (each until its
            // own movement converges): classes that did not split are left
            // untouched, so every class's trajectory depends only on its
            // own split history — the monotonicity invariant.
            passes += self.polish_classes(split_labels, self.stream.polish_passes.max(1))?;
        };

        let classes = final_stats
            .into_iter()
            .map(|(label, class_stats)| ClassAudit {
                label,
                capped: self.accumulators[&label].num_clusters() >= cap
                    && threshold.is_some()
                    && class_stats.iter().any(|s| {
                        s.members > 0 && s.min_fidelity < threshold.expect("checked is_some")
                    }),
                clusters: class_stats
                    .into_iter()
                    .map(|s| ClusterAudit {
                        members: s.members,
                        min_fidelity: s.min_fidelity,
                        mean_fidelity: if s.members > 0 {
                            s.fid_sum / s.members as f64
                        } else {
                            0.0
                        },
                    })
                    .collect(),
            })
            .collect();
        let audit = FidelityAudit {
            classes,
            threshold,
            rounds,
            splits,
        };
        let detail = format!(
            "{} rounds, {} splits, min fidelity {:.4}{}",
            audit.rounds,
            audit.splits,
            audit.min_fidelity(),
            match threshold {
                Some(t) => format!(" (threshold {t})"),
                None => " (diagnostic)".to_string(),
            },
        );
        self.audit = Some(audit);
        self.finish_stage(StreamStage::FidelityAudit, start, passes, detail);
        Ok(())
    }

    /// **Stage 4 — Training.** Trains every class's centroids into
    /// [`EnqodeModel`]s (all classes in parallel, one shared symbolic table)
    /// and assembles the [`EnqodePipeline`]. Consumes the clustering state:
    /// rerun [`StreamDriver::run_clustering`] before training again.
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::InvalidConfig`] if clustering has not run;
    /// propagates training errors.
    pub fn run_training(&mut self) -> Result<EnqodePipeline, EnqodeError> {
        self.check_cancelled()?;
        if self.features.is_none()
            || self.accumulators.is_empty()
            || self
                .accumulators
                .values()
                .any(|acc| acc.centroids().is_none())
        {
            return Err(stage_order_error("clustering"));
        }
        let start = Instant::now();
        let accumulators = std::mem::take(&mut self.accumulators);
        let labels: Vec<usize> = accumulators.keys().copied().collect();
        let class_centroids: Vec<Vec<Vec<f64>>> = accumulators
            .into_values()
            .map(MiniBatchKMeans::into_centroids)
            .collect::<Result<_, _>>()?;
        let per_class = NonZeroUsize::new(self.threads.get().div_ceil(labels.len().max(1)))
            .unwrap_or(NonZeroUsize::MIN);
        let symbolic = Arc::new(SymbolicState::from_ansatz(&self.config.ansatz)?);
        let config = &self.config;
        let cancel = self.cancel.clone();
        let class_models = enq_parallel::try_par_map(&class_centroids, |i, centroids| {
            // Training is the longest stage; a cancellation observed here
            // skips the remaining class fits instead of finishing them.
            if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                return Err(EnqodeError::Cancelled);
            }
            let model = EnqodeModel::fit_from_centroids(
                centroids,
                config.clone(),
                per_class,
                Arc::clone(&symbolic),
            )?;
            Ok::<ClassModel, EnqodeError>(ClassModel {
                label: labels[i],
                model,
            })
        })?;
        let total_clusters: usize = class_centroids.iter().map(Vec::len).sum();
        self.finish_stage(
            StreamStage::Training,
            start,
            0,
            format!(
                "{} ansatz models over {} centroids",
                labels.len(),
                total_clusters
            ),
        );
        let features = self.features.clone().expect("checked above");
        Ok(EnqodePipeline::from_parts(features, class_models))
    }

    /// Runs all stages in order (the audit stage only when a fidelity
    /// threshold is configured) and returns the trained pipeline.
    ///
    /// # Errors
    ///
    /// Propagates the first failing stage's error.
    pub fn run(mut self) -> Result<EnqodePipeline, EnqodeError> {
        self.run_features()?;
        self.run_clustering()?;
        if self.stream.fidelity_threshold.is_some() {
            self.run_fidelity_audit()?;
        }
        self.run_training()
    }
}

fn stage_order_error(missing: &str) -> EnqodeError {
    EnqodeError::InvalidConfig(format!("stream driver: the {missing} stage must run first"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::{AnsatzConfig, EntanglerKind};
    use enq_data::{generate_synthetic, DatasetKind, InMemorySource, IngestMode, SyntheticConfig};

    fn tiny_config(seed: u64) -> EnqodeConfig {
        EnqodeConfig {
            ansatz: AnsatzConfig {
                num_qubits: 3,
                num_layers: 4,
                entangler: EntanglerKind::Cy,
            },
            fidelity_threshold: 0.9,
            max_clusters: 4,
            offline_max_iterations: 40,
            offline_restarts: 1,
            online_max_iterations: 20,
            offline_rescue: false,
            seed,
        }
    }

    fn tiny_stream() -> StreamingFitConfig {
        StreamingFitConfig {
            chunk_size: 6,
            clusters_per_class: 2,
            passes: 2,
            polish_passes: 2,
            ..Default::default()
        }
    }

    #[test]
    fn stages_must_run_in_order() {
        let data = generate_synthetic(
            DatasetKind::MnistLike,
            &SyntheticConfig {
                classes: 1,
                samples_per_class: 6,
                seed: 2,
            },
        )
        .unwrap();
        let mut source = InMemorySource::new(&data);
        let mut driver = StreamDriver::new(&mut source, tiny_config(2), tiny_stream()).unwrap();
        assert!(driver.run_clustering().is_err());
        assert!(driver.run_fidelity_audit().is_err());
        assert!(driver.run_training().is_err());
        driver.run_features().unwrap();
        assert!(driver.features().is_some());
        assert!(
            driver.run_fidelity_audit().is_err(),
            "audit needs clustering"
        );
        driver.run_clustering().unwrap();
        driver.run_fidelity_audit().unwrap();
        let audit = driver.audit().unwrap();
        assert_eq!(audit.threshold, None);
        assert_eq!(audit.rounds, 1);
        assert!(audit.satisfied(), "diagnostic audits always pass");
        let pipeline = driver.run_training().unwrap();
        assert_eq!(pipeline.class_models().len(), 1);
        // Training consumed the clustering state; training again without
        // re-clustering is an ordering error, not a panic or a bogus
        // EmptyDataset.
        assert!(matches!(
            driver.run_training(),
            Err(EnqodeError::InvalidConfig(_))
        ));
        // Clustering is rerunnable from the stage-1 label set, after which
        // training works again.
        driver.run_clustering().unwrap();
        let again = driver.run_training().unwrap();
        assert_eq!(again.class_models().len(), 1);
        // One report per completed stage, in completion order (including
        // the rerun pair).
        let stages: Vec<&'static str> = driver.reports().iter().map(|r| r.stage.name()).collect();
        assert_eq!(
            stages,
            vec![
                "features",
                "clustering",
                "fidelity-audit",
                "training",
                "clustering",
                "training"
            ]
        );
    }

    #[test]
    fn progress_hook_sees_every_stage() {
        let data = generate_synthetic(
            DatasetKind::MnistLike,
            &SyntheticConfig {
                classes: 2,
                samples_per_class: 6,
                seed: 9,
            },
        )
        .unwrap();
        let mut source = InMemorySource::new(&data);
        let seen = std::sync::Mutex::new(Vec::new());
        let mut driver = StreamDriver::new(&mut source, tiny_config(9), tiny_stream()).unwrap();
        driver.set_progress(|report| seen.lock().unwrap().push(report.stage.name()));
        driver.run_features().unwrap();
        driver.run_clustering().unwrap();
        driver.run_training().unwrap();
        assert_eq!(
            *seen.lock().unwrap(),
            vec!["features", "clustering", "training"]
        );
    }

    #[test]
    fn spill_and_ingest_modes_are_bit_identical() {
        let data = generate_synthetic(
            DatasetKind::MnistLike,
            &SyntheticConfig {
                classes: 2,
                samples_per_class: 8,
                seed: 5,
            },
        )
        .unwrap();
        let fit = |ingest: IngestMode, spill: bool| {
            let mut source = InMemorySource::new(&data);
            let stream = StreamingFitConfig {
                ingest,
                spill_features: spill,
                ..tiny_stream()
            };
            StreamDriver::new(&mut source, tiny_config(5), stream)
                .unwrap()
                .run()
                .unwrap()
        };
        let reference = fit(IngestMode::Synchronous, false);
        for (ingest, spill) in [
            (IngestMode::Synchronous, true),
            (IngestMode::Prefetched, false),
            (IngestMode::Prefetched, true),
        ] {
            let other = fit(ingest, spill);
            for (a, b) in reference.class_models().iter().zip(other.class_models()) {
                assert_eq!(a.label, b.label);
                for (ka, kb) in a.model.clusters().iter().zip(b.model.clusters()) {
                    assert_eq!(ka.centroid, kb.centroid, "{ingest:?}/{spill} drifted");
                    assert_eq!(ka.parameters, kb.parameters);
                }
            }
        }
    }

    #[test]
    fn preset_features_retrain_clusters_against_a_feature_space_source() {
        let data = generate_synthetic(
            DatasetKind::MnistLike,
            &SyntheticConfig {
                classes: 2,
                samples_per_class: 8,
                seed: 11,
            },
        )
        .unwrap();
        // Fit a reference pipeline, then re-train from its *feature* stream,
        // exactly what the traffic-refresh path does.
        let mut source = InMemorySource::new(&data);
        let reference = StreamDriver::new(&mut source, tiny_config(11), tiny_stream())
            .unwrap()
            .run()
            .unwrap();
        let features: Vec<Vec<f64>> = data
            .samples()
            .iter()
            .map(|s| reference.extract_features(s).unwrap())
            .collect();
        let feature_data =
            enq_data::Dataset::new("features", features, data.labels().to_vec()).unwrap();

        for spill in [false, true] {
            let mut feature_source = InMemorySource::new(&feature_data);
            let stream = StreamingFitConfig {
                spill_features: spill,
                ..tiny_stream()
            };
            let mut driver =
                StreamDriver::new(&mut feature_source, tiny_config(11), stream).unwrap();
            driver
                .preset_features(reference.features().clone())
                .unwrap();
            let refreshed = driver.run().unwrap();
            assert_eq!(refreshed.class_models().len(), 2);
            // The adopted feature pipeline is untouched: both pipelines
            // extract bit-identical features from a raw sample.
            let a = reference.extract_features(data.sample(0)).unwrap();
            let b = refreshed.extract_features(data.sample(0)).unwrap();
            assert_eq!(a, b, "spill={spill}");
            // And the refreshed fit matches the reference fit bit for bit:
            // the feature stream it saw is exactly what the reference
            // clustering stage saw.
            for (ca, cb) in reference
                .class_models()
                .iter()
                .zip(refreshed.class_models())
            {
                assert_eq!(ca.label, cb.label);
                for (ka, kb) in ca.model.clusters().iter().zip(cb.model.clusters()) {
                    assert_eq!(ka.centroid, kb.centroid, "spill={spill}");
                    assert_eq!(ka.parameters, kb.parameters, "spill={spill}");
                }
            }
        }
    }

    #[test]
    fn preset_features_reject_mismatched_dimensions() {
        let data = generate_synthetic(
            DatasetKind::MnistLike,
            &SyntheticConfig {
                classes: 1,
                samples_per_class: 4,
                seed: 3,
            },
        )
        .unwrap();
        let mut source = InMemorySource::new(&data);
        let pipeline = StreamDriver::new(&mut source, tiny_config(3), tiny_stream())
            .unwrap()
            .run()
            .unwrap();
        // A raw 784-dim source is not a feature-space source.
        let mut raw = InMemorySource::new(&data);
        let mut driver = StreamDriver::new(&mut raw, tiny_config(3), tiny_stream()).unwrap();
        assert!(matches!(
            driver.preset_features(pipeline.features().clone()),
            Err(EnqodeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn cancellation_winds_down_between_chunks_without_leaking_spills() {
        let data = generate_synthetic(
            DatasetKind::MnistLike,
            &SyntheticConfig {
                classes: 2,
                samples_per_class: 8,
                seed: 13,
            },
        )
        .unwrap();
        let mut source = InMemorySource::new(&data);
        let token = CancelToken::new();
        // Only this driver's own spill file is checked: sibling tests in
        // the same process create and remove spill files in the same temp
        // dir concurrently.
        let spill_path = {
            let mut driver =
                StreamDriver::new(&mut source, tiny_config(13), tiny_stream()).unwrap();
            driver.set_cancel(token.clone());
            // Features complete, then cancellation lands: the next stage
            // must refuse to run and no pipeline is ever produced.
            driver.run_features().unwrap();
            assert!(driver.spill_reader.is_some(), "spill file exists mid-fit");
            let spill_path = driver
                .spill
                .as_ref()
                .expect("features spilled")
                .path
                .clone();
            assert!(spill_path.exists());
            token.cancel();
            assert!(matches!(
                driver.run_clustering(),
                Err(EnqodeError::Cancelled)
            ));
            assert!(matches!(driver.run_training(), Err(EnqodeError::Cancelled)));
            spill_path
        };
        // Dropping the cancelled driver removed its spill file.
        assert!(!spill_path.exists());

        // A token cancelled before the first chunk stops the feature stage
        // itself.
        let mut source = InMemorySource::new(&data);
        let mut driver = StreamDriver::new(&mut source, tiny_config(13), tiny_stream()).unwrap();
        let token = CancelToken::new();
        token.cancel();
        driver.set_cancel(token);
        assert!(matches!(driver.run_features(), Err(EnqodeError::Cancelled)));
    }

    #[test]
    fn adaptive_audit_splits_until_threshold_or_cap() {
        let data = generate_synthetic(
            DatasetKind::MnistLike,
            &SyntheticConfig {
                classes: 2,
                samples_per_class: 12,
                seed: 31,
            },
        )
        .unwrap();
        let mut source = InMemorySource::new(&data);
        let stream = StreamingFitConfig {
            clusters_per_class: 1,
            fidelity_threshold: Some(0.999),
            max_clusters_per_class: 3,
            ..tiny_stream()
        };
        let mut driver = StreamDriver::new(&mut source, tiny_config(31), stream).unwrap();
        driver.run_features().unwrap();
        driver.run_clustering().unwrap();
        driver.run_fidelity_audit().unwrap();
        let audit = driver.audit().unwrap().clone();
        assert!(audit.satisfied());
        assert!(audit.rounds >= 1);
        // The near-impossible threshold forces every class to its cap.
        for (label, k) in driver.clusters_per_class() {
            assert_eq!(k, 3, "class {label} did not reach the cap");
        }
        assert_eq!(audit.total_clusters(), 6);
    }
}
