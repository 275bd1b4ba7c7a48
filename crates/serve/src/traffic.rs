//! Traffic-fed training data: the accumulator behind the batcher.
//!
//! Every served request already pays for feature extraction (PCA projection
//! followed by L2 normalisation); the [`TrafficAccumulator`] captures those
//! **post-PCA feature vectors** — with the label the pipeline assigned — so
//! a model can later retrain its clusters and ansatz parameters from the
//! traffic it actually served, without a second extraction pass and without
//! retaining raw samples.
//!
//! Memory is bounded: each model buffers at most
//! [`TrafficConfig::buffer_samples`] vectors in RAM; when the budget fills,
//! the buffer is spilled to an `ENQB` shard file
//! ([`enq_data::BinaryDatasetWriter`]) and the shard ring is truncated to
//! [`TrafficConfig::max_shards`] (oldest shards dropped first). Shards are
//! reference-counted: a [`TrafficCorpus`] snapshot keeps its shard files
//! alive for the duration of a rebuild even if the accumulator clears or
//! rotates them concurrently, and a shard's file is deleted from disk when
//! the last reference drops.
//!
//! Recording is **best-effort by design**: a full disk or a dimension
//! mismatch increments a counter and drops the sample — the serving path
//! never fails a request because its training side-channel hiccuped.

use crate::cache::quantize_features;
use crate::error::ServeError;
use enq_data::{
    BinaryDatasetWriter, BinarySource, ChainedSource, DataError, SampleChunk, SampleSource,
    ShardedSource,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shape of the per-model traffic capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficConfig {
    /// Master switch. Disabled (the default), [`TrafficAccumulator::record`]
    /// is a no-op and the serving path pays nothing.
    pub enabled: bool,
    /// Feature vectors buffered in RAM per model before a spill. This is
    /// the whole resident cost of traffic capture: `buffer_samples ×
    /// feature_dim × 8` bytes per model.
    pub buffer_samples: usize,
    /// Maximum spilled shards retained per model; beyond it the **oldest**
    /// shard is dropped (its file is deleted once no corpus references it),
    /// so disk usage is bounded by `max_shards × buffer_samples` records.
    pub max_shards: usize,
    /// Directory for shard files; `None` uses [`std::env::temp_dir`].
    pub spill_dir: Option<PathBuf>,
    /// Size of the per-model **audit ring**: the most recent feature
    /// vectors kept resident (independently of buffer spills) so a
    /// spot-audit can score live traffic against the model without
    /// touching disk (see [`TrafficAccumulator::recent_features`]). `0`
    /// disables the ring. The ring recycles its slots in place, so the
    /// steady-state cost is a bounded `audit_window × feature_dim × 8`
    /// bytes per model and no per-record allocation.
    pub audit_window: usize,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            buffer_samples: 4096,
            max_shards: 64,
            spill_dir: None,
            audit_window: 256,
        }
    }
}

impl TrafficConfig {
    /// An enabled configuration with the default budgets.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// Monotonic counters of one model's traffic capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficStats {
    /// Feature vectors accepted (buffered or spilled).
    pub recorded: u64,
    /// Vectors currently buffered in RAM (not yet spilled).
    pub buffered: u64,
    /// Shards currently on disk.
    pub shards: u64,
    /// Vectors currently represented by on-disk shards.
    pub spilled: u64,
    /// Vectors lost to ring rotation (oldest-shard eviction).
    pub rotated_out: u64,
    /// Vectors dropped because recording failed (I/O error, dimension
    /// mismatch).
    pub dropped: u64,
    /// Spill attempts that failed (each one also dropped its buffered
    /// vectors, counted in `dropped`).
    pub spill_failures: u64,
    /// Shard-ring compactions performed ([`TrafficAccumulator::compact`]).
    pub compactions: u64,
    /// Feature vectors currently resident in the audit ring.
    pub audit_samples: u64,
}

/// One spilled shard file; deleted from disk when the last reference drops.
#[derive(Debug)]
pub struct TrafficShard {
    path: PathBuf,
    samples: u64,
}

impl TrafficShard {
    /// Path of the `ENQB` shard file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records in the shard.
    pub fn len(&self) -> u64 {
        self.samples
    }

    /// Whether the shard holds no records (never true for a spilled shard).
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }
}

impl Drop for TrafficShard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Per-model capture state.
#[derive(Debug, Default)]
struct ModelTraffic {
    /// Feature dimension, fixed by the first recorded vector.
    dim: usize,
    buffer: Vec<(Vec<f64>, usize)>,
    shards: Vec<Arc<TrafficShard>>,
    /// Ring of the most recent feature vectors (plus served labels), capped
    /// at [`TrafficConfig::audit_window`]; slots are overwritten in place
    /// so a full ring never allocates per record.
    recent: Vec<(Vec<f64>, usize)>,
    /// Next write position in `recent` once the ring is full.
    recent_pos: usize,
    recorded: u64,
    spill_errors: u64,
    rotated_out: u64,
    dropped: u64,
    compactions: u64,
}

/// The per-model traffic capture behind the batcher (module docs have the
/// full design).
///
/// # Examples
///
/// ```
/// use enq_serve::{TrafficAccumulator, TrafficConfig};
///
/// let traffic = TrafficAccumulator::new(TrafficConfig {
///     enabled: true,
///     buffer_samples: 2,
///     ..Default::default()
/// });
/// traffic.record("mnist", &[0.6, 0.8], 1);
/// traffic.record("mnist", &[0.8, 0.6], 0);   // budget hit: spills a shard
/// traffic.record("mnist", &[1.0, 0.0], 1);
/// let stats = traffic.stats("mnist");
/// assert_eq!(stats.recorded, 3);
/// assert_eq!(stats.shards, 1);
/// assert_eq!(stats.buffered, 1);
/// ```
#[derive(Debug)]
pub struct TrafficAccumulator {
    config: TrafficConfig,
    /// The outer mutex only guards the id → state map (held for a lookup /
    /// insert, never across I/O); each model's state has its own lock, so a
    /// shard spill — synchronous disk I/O by design, to keep shard order
    /// chronological — stalls only recorders of that model.
    models: Mutex<HashMap<String, Arc<Mutex<ModelTraffic>>>>,
}

/// Numbers every shard file this process creates. Process-wide, not per
/// accumulator: two accumulators recording the same model id into the same
/// spill dir must never pick the same file name.
static SHARD_COUNTER: AtomicU64 = AtomicU64::new(0);

impl TrafficAccumulator {
    /// Creates an accumulator (disabled configs cost one branch per record).
    pub fn new(config: TrafficConfig) -> Self {
        Self {
            config,
            models: Mutex::new(HashMap::new()),
        }
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// The configuration.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// Clones out `model_id`'s state handle, creating it when `insert` is
    /// set. The outer map lock is released before the caller touches the
    /// per-model lock.
    fn model_state(&self, model_id: &str, insert: bool) -> Option<Arc<Mutex<ModelTraffic>>> {
        let mut models = self.models.lock().expect("traffic accumulator poisoned");
        if insert {
            Some(Arc::clone(models.entry(model_id.to_string()).or_default()))
        } else {
            models.get(model_id).cloned()
        }
    }

    fn fresh_shard_path(&self, model_id: &str) -> PathBuf {
        let mut dir = self
            .config
            .spill_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        // Model ids are arbitrary strings; keep only path-safe characters in
        // the file name and rely on the counter for uniqueness.
        let safe: String = model_id
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .take(32)
            .collect();
        dir.push(format!(
            "enq_traffic_{}_{safe}_{}.enqb",
            std::process::id(),
            SHARD_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        dir
    }

    /// Spills `state.buffer` to a fresh shard, rotating the ring. On spill
    /// failure the buffer is dropped (counted) so RAM stays bounded.
    fn spill_locked(&self, model_id: &str, state: &mut ModelTraffic) {
        if state.buffer.is_empty() {
            return;
        }
        let path = self.fresh_shard_path(model_id);
        let outcome = (|| -> Result<u64, DataError> {
            let mut writer = BinaryDatasetWriter::create(&path, state.dim, true)?;
            for (features, label) in &state.buffer {
                writer.append(features, *label)?;
            }
            writer.finish()
        })();
        match outcome {
            Ok(samples) => {
                state.shards.push(Arc::new(TrafficShard { path, samples }));
                while state.shards.len() > self.config.max_shards.max(1) {
                    let oldest = state.shards.remove(0);
                    state.rotated_out += oldest.len();
                }
            }
            Err(_) => {
                let _ = std::fs::remove_file(&path);
                state.spill_errors += 1;
                state.dropped += state.buffer.len() as u64;
            }
        }
        state.buffer.clear();
    }

    /// Records one served feature vector with the label the pipeline
    /// assigned. Best-effort: failures drop the sample and count it, never
    /// propagate.
    pub fn record(&self, model_id: &str, features: &[f64], label: usize) {
        if !self.config.enabled || features.is_empty() {
            return;
        }
        let state = self
            .model_state(model_id, true)
            .expect("insert-mode lookup always yields a state");
        let mut state = state.lock().expect("traffic model poisoned");
        if state.dim == 0 {
            state.dim = features.len();
        }
        if features.len() != state.dim {
            state.dropped += 1;
            return;
        }
        state.buffer.push((features.to_vec(), label));
        state.recorded += 1;
        let window = self.config.audit_window;
        if window > 0 {
            if state.recent.len() < window {
                state.recent.push((features.to_vec(), label));
            } else {
                let pos = state.recent_pos;
                let slot = &mut state.recent[pos];
                slot.0.clear();
                slot.0.extend_from_slice(features);
                slot.1 = label;
                state.recent_pos = (pos + 1) % window;
            }
        }
        if state.buffer.len() >= self.config.buffer_samples.max(1) {
            self.spill_locked(model_id, &mut state);
        }
    }

    /// Spills any buffered vectors of `model_id` to a shard immediately
    /// (normally done lazily by [`TrafficAccumulator::corpus`]).
    pub fn flush(&self, model_id: &str) {
        if let Some(state) = self.model_state(model_id, false) {
            let mut state = state.lock().expect("traffic model poisoned");
            self.spill_locked(model_id, &mut state);
        }
    }

    /// Clones out up to `max` of the most recent feature vectors recorded
    /// for `model_id` (with their served labels), newest-last is **not**
    /// guaranteed — the ring is returned in slot order, which is fine for
    /// the statistical spot-audit it feeds. Empty for unknown ids or a
    /// disabled ring ([`TrafficConfig::audit_window`] of 0).
    pub fn recent_features(&self, model_id: &str, max: usize) -> Vec<(Vec<f64>, usize)> {
        self.model_state(model_id, false)
            .map_or_else(Vec::new, |state| {
                let state = state.lock().expect("traffic model poisoned");
                state.recent.iter().take(max).cloned().collect()
            })
    }

    /// Compacts `model_id`'s shard ring: every on-disk shard is streamed —
    /// chronologically, via [`ChainedSource`] — into **one** fresh shard
    /// file ([`enq_data::compact_to_shard`]), which replaces the ring. The
    /// buffer is flushed first so the compacted shard holds everything
    /// recorded so far. Old shard files are deleted once the last corpus
    /// referencing them drops; corpora snapshotted before the compaction
    /// keep replaying their own shards unchanged.
    ///
    /// A long-lived accumulator calls this periodically (the autopilot
    /// does) so replay cost and file-handle count stay proportional to the
    /// retained window, not to how long the model has been serving. Like a
    /// spill, the I/O runs under the per-model lock: recorders of this one
    /// model stall for the duration, other models are unaffected.
    ///
    /// Returns the number of shards merged (0 or 1 means there was nothing
    /// to compact and the ring is unchanged).
    ///
    /// # Errors
    ///
    /// [`ServeError::NoTraffic`] for unknown ids; [`ServeError::Traffic`]
    /// when a shard cannot be read or the compacted shard cannot be
    /// written (the ring is left unchanged — compaction failure never
    /// loses data).
    pub fn compact(&self, model_id: &str) -> Result<usize, ServeError> {
        let state = self
            .model_state(model_id, false)
            .ok_or_else(|| ServeError::NoTraffic(model_id.to_string()))?;
        let mut state = state.lock().expect("traffic model poisoned");
        self.spill_locked(model_id, &mut state);
        let merged = state.shards.len();
        if merged <= 1 {
            return Ok(merged);
        }
        let sources: Vec<Box<dyn SampleSource>> = state
            .shards
            .iter()
            .map(|s| {
                Ok(
                    Box::new(BinarySource::open(s.path()).map_err(ServeError::Traffic)?)
                        as Box<dyn SampleSource>,
                )
            })
            .collect::<Result<_, ServeError>>()?;
        let mut chained = ChainedSource::new(sources).map_err(ServeError::Traffic)?;
        let path = self.fresh_shard_path(model_id);
        let samples =
            enq_data::compact_to_shard(&mut chained, &path, true).map_err(ServeError::Traffic)?;
        state.shards = vec![Arc::new(TrafficShard { path, samples })];
        state.compactions += 1;
        Ok(merged)
    }

    /// Snapshots `model_id`'s accumulated traffic as a replayable
    /// [`TrafficCorpus`]: the buffer is flushed to a final shard and the
    /// shard list is cloned (reference-counted — the corpus keeps its files
    /// alive even if the accumulator rotates or clears them afterwards).
    /// The accumulator is **not** cleared: the same corpus can be rebuilt
    /// from again, and recording continues during a rebuild.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::NoTraffic`] when nothing has been recorded for
    /// `model_id`.
    pub fn corpus(&self, model_id: &str) -> Result<TrafficCorpus, ServeError> {
        let state = self
            .model_state(model_id, false)
            .ok_or_else(|| ServeError::NoTraffic(model_id.to_string()))?;
        let mut state = state.lock().expect("traffic model poisoned");
        self.spill_locked(model_id, &mut state);
        if state.shards.is_empty() {
            return Err(ServeError::NoTraffic(model_id.to_string()));
        }
        Ok(TrafficCorpus {
            shards: state.shards.clone(),
            dim: state.dim,
        })
    }

    /// Drops `model_id`'s buffer and shard ring (files are deleted once no
    /// corpus references them). Returns how many recorded vectors were
    /// discarded.
    pub fn clear(&self, model_id: &str) -> u64 {
        let removed = self
            .models
            .lock()
            .expect("traffic accumulator poisoned")
            .remove(model_id);
        removed.map_or(0, |state| {
            let state = state.lock().expect("traffic model poisoned");
            state.buffer.len() as u64 + state.shards.iter().map(|s| s.len()).sum::<u64>()
        })
    }

    /// Counter snapshot for one model (zeros for an unknown id).
    pub fn stats(&self, model_id: &str) -> TrafficStats {
        self.model_state(model_id, false)
            .map_or_else(TrafficStats::default, |state| {
                let s = state.lock().expect("traffic model poisoned");
                TrafficStats {
                    recorded: s.recorded,
                    buffered: s.buffer.len() as u64,
                    shards: s.shards.len() as u64,
                    spilled: s.shards.iter().map(|sh| sh.len()).sum(),
                    rotated_out: s.rotated_out,
                    dropped: s.dropped,
                    spill_failures: s.spill_errors,
                    compactions: s.compactions,
                    audit_samples: s.recent.len() as u64,
                }
            })
    }

    /// Ids with recorded traffic, sorted.
    pub fn model_ids(&self) -> Vec<String> {
        let models = self.models.lock().expect("traffic accumulator poisoned");
        let mut ids: Vec<String> = models.keys().cloned().collect();
        ids.sort_unstable();
        ids
    }
}

/// A replayable snapshot of one model's traffic shards.
///
/// The corpus holds reference-counted shard files: they stay on disk for as
/// long as any corpus (or the accumulator's ring) references them, so a
/// background rebuild can stream them while fresh traffic keeps spilling.
#[derive(Debug, Clone)]
pub struct TrafficCorpus {
    shards: Vec<Arc<TrafficShard>>,
    dim: usize,
}

impl TrafficCorpus {
    /// Total records across all shards.
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether the corpus holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Feature dimension of every record.
    pub fn feature_dim(&self) -> usize {
        self.dim
    }

    /// Shard file paths, oldest first (observability and tests).
    pub fn shard_paths(&self) -> Vec<PathBuf> {
        self.shards.iter().map(|s| s.path.clone()).collect()
    }

    fn open_shards(&self) -> Result<Vec<Box<dyn SampleSource>>, ServeError> {
        self.shards
            .iter()
            .map(|s| {
                Ok(
                    Box::new(BinarySource::open(&s.path).map_err(ServeError::Traffic)?)
                        as Box<dyn SampleSource>,
                )
            })
            .collect()
    }

    /// Opens the shards as one **chronological** source (oldest shard
    /// first, chunks straddling shard boundaries). The returned source owns
    /// references to the shard files, so they outlive ring rotation for the
    /// duration of the rebuild.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Traffic`] when a shard file cannot be opened.
    pub fn chronological_source(&self) -> Result<TrafficSource, ServeError> {
        Ok(TrafficSource {
            inner: Box::new(ChainedSource::new(self.open_shards()?).map_err(ServeError::Traffic)?),
            _shards: self.shards.clone(),
        })
    }

    /// Opens the shards weighted per `weighting`:
    ///
    /// - [`CorpusWeighting::Popularity`] replays the corpus as recorded
    ///   (the chronological source) — hot feature cells appear as often as
    ///   traffic hit them, so the refreshed clusters chase the popular
    ///   regions.
    /// - [`CorpusWeighting::Coverage`] deduplicates per quantized feature
    ///   cell: at most `per_cell_cap` records of any one cell survive, so
    ///   a refresh sees the *breadth* of the traffic distribution instead
    ///   of being dominated by a few hot cells.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Traffic`] when a shard file cannot be opened.
    pub fn weighted_source(
        &self,
        weighting: &CorpusWeighting,
    ) -> Result<TrafficSource, ServeError> {
        match *weighting {
            CorpusWeighting::Popularity => self.chronological_source(),
            CorpusWeighting::Coverage {
                per_cell_cap,
                quantum,
            } => {
                let chained =
                    Box::new(ChainedSource::new(self.open_shards()?).map_err(ServeError::Traffic)?);
                Ok(TrafficSource {
                    inner: Box::new(CellCappedSource {
                        inner: chained,
                        quantum,
                        cap: per_cell_cap.max(1),
                        seen: HashMap::new(),
                        scratch: SampleChunk::new(),
                    }),
                    _shards: self.shards.clone(),
                })
            }
        }
    }

    /// Opens the shards as one **interleaved** source: `block`-record runs
    /// round-robin across shards ([`enq_data::ShardedSource`]), so a
    /// multi-pass fit sees every epoch of traffic mixed instead of oldest
    /// traffic first.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Traffic`] for unopenable shards or a zero
    /// `block`.
    pub fn interleaved_source(&self, block: usize) -> Result<TrafficSource, ServeError> {
        Ok(TrafficSource {
            inner: Box::new(
                ShardedSource::new(self.open_shards()?, block).map_err(ServeError::Traffic)?,
            ),
            _shards: self.shards.clone(),
        })
    }
}

/// An owned [`SampleSource`] over a [`TrafficCorpus`]'s shard files. Keeps
/// the shard files alive (reference-counted) while a rebuild streams them.
pub struct TrafficSource {
    inner: Box<dyn SampleSource>,
    _shards: Vec<Arc<TrafficShard>>,
}

impl std::fmt::Debug for TrafficSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrafficSource")
            .field("shards", &self._shards.len())
            .field("feature_dim", &self.inner.feature_dim())
            .finish_non_exhaustive()
    }
}

impl SampleSource for TrafficSource {
    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn reset(&mut self) -> Result<(), DataError> {
        self.inner.reset()
    }

    fn next_chunk(
        &mut self,
        max_samples: usize,
        chunk: &mut SampleChunk,
    ) -> Result<usize, DataError> {
        self.inner.next_chunk(max_samples, chunk)
    }
}

/// How a refresh corpus weights the recorded traffic (see
/// [`TrafficCorpus::weighted_source`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum CorpusWeighting {
    /// Replay traffic as recorded: popular feature cells dominate the
    /// refresh in proportion to how often they were served.
    #[default]
    Popularity,
    /// Deduplicate per quantized feature cell: at most `per_cell_cap`
    /// records of any one cell reach the fit, so rare regions of the
    /// traffic distribution keep their vote.
    Coverage {
        /// Records of one quantized cell that survive (clamped to ≥ 1).
        per_cell_cap: usize,
        /// Cell width passed to [`crate::cache::quantize_features`]; `0.0`
        /// dedups exact bit patterns only.
        quantum: f64,
    },
}

/// Streaming per-cell cap over an inner source: records whose quantized
/// feature cell has already yielded `cap` records are skipped. `reset`
/// clears the seen-cell table, so every pass of a multi-pass fit sees the
/// identical capped stream.
struct CellCappedSource {
    inner: Box<dyn SampleSource>,
    quantum: f64,
    cap: usize,
    seen: HashMap<Vec<i64>, usize>,
    scratch: SampleChunk,
}

impl SampleSource for CellCappedSource {
    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }

    fn len_hint(&self) -> Option<usize> {
        // The cap filters an unknown number of records; claiming the inner
        // hint would over-promise.
        None
    }

    fn reset(&mut self) -> Result<(), DataError> {
        self.seen.clear();
        self.inner.reset()
    }

    fn next_chunk(
        &mut self,
        max_samples: usize,
        chunk: &mut SampleChunk,
    ) -> Result<usize, DataError> {
        chunk.clear();
        while chunk.len() < max_samples {
            // Pull at most the remaining space: surviving records can then
            // always be appended without spilling past `max_samples`.
            let need = max_samples - chunk.len();
            if self.inner.next_chunk(need, &mut self.scratch)? == 0 {
                break;
            }
            for (sample, &label) in self.scratch.samples().iter().zip(self.scratch.labels()) {
                let cell = quantize_features(sample, self.quantum);
                let count = self.seen.entry(cell).or_insert(0);
                if *count < self.cap {
                    *count += 1;
                    chunk.push(sample.clone(), label);
                }
            }
        }
        Ok(chunk.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enq_data::materialize;

    fn tiny_traffic(buffer: usize, max_shards: usize) -> TrafficAccumulator {
        TrafficAccumulator::new(TrafficConfig {
            enabled: true,
            buffer_samples: buffer,
            max_shards,
            spill_dir: None,
            audit_window: 4,
        })
    }

    fn vector(i: usize) -> Vec<f64> {
        vec![i as f64, (i * i) as f64 * 0.25, -(i as f64)]
    }

    #[test]
    fn disabled_accumulator_records_nothing() {
        let traffic = TrafficAccumulator::new(TrafficConfig::default());
        assert!(!traffic.is_enabled());
        traffic.record("m", &[1.0, 2.0], 0);
        assert_eq!(traffic.stats("m"), TrafficStats::default());
        assert!(traffic.model_ids().is_empty());
        assert!(matches!(traffic.corpus("m"), Err(ServeError::NoTraffic(_))));
    }

    #[test]
    fn spills_at_budget_and_replays_in_order() {
        let traffic = tiny_traffic(4, 64);
        for i in 0..10 {
            traffic.record("m", &vector(i), i % 2);
        }
        let stats = traffic.stats("m");
        assert_eq!(stats.recorded, 10);
        assert_eq!(stats.shards, 2, "two full spills of 4");
        assert_eq!(stats.spilled, 8);
        assert_eq!(stats.buffered, 2);

        let corpus = traffic.corpus("m").unwrap();
        assert_eq!(corpus.len(), 10, "corpus flushes the tail");
        assert_eq!(corpus.num_shards(), 3);
        assert_eq!(corpus.feature_dim(), 3);
        let mut source = corpus.chronological_source().unwrap();
        assert_eq!(source.len_hint(), Some(10));
        let replay = materialize(&mut source, "replay").unwrap();
        for (i, (sample, &label)) in replay.samples().iter().zip(replay.labels()).enumerate() {
            assert_eq!(sample, &vector(i), "chronological order is arrival order");
            assert_eq!(label, i % 2);
        }
        // The same corpus replays identically a second time.
        let again = {
            let mut source = corpus.chronological_source().unwrap();
            materialize(&mut source, "again").unwrap()
        };
        assert_eq!(again.samples(), replay.samples());
    }

    #[test]
    fn accumulators_sharing_a_model_id_replay_only_their_own_records() {
        // Both spill into the default dir under the same model id.
        let a = tiny_traffic(2, 64);
        let b = tiny_traffic(2, 64);
        for i in 0..6 {
            a.record("shared", &vector(i), 0);
            b.record("shared", &vector(100 + i), 1);
        }
        for (traffic, first, label) in [(&a, 0, 0), (&b, 100, 1)] {
            let corpus = traffic.corpus("shared").unwrap();
            let mut source = corpus.chronological_source().unwrap();
            let replay = materialize(&mut source, "own").unwrap();
            assert_eq!(replay.len(), 6);
            for (i, (sample, &l)) in replay.samples().iter().zip(replay.labels()).enumerate() {
                assert_eq!(
                    sample,
                    &vector(first + i),
                    "record {i} of accumulator {first}"
                );
                assert_eq!(l, label);
            }
        }
    }

    #[test]
    fn corpus_outlives_clear_and_files_go_with_the_last_reference() {
        let traffic = tiny_traffic(2, 64);
        for i in 0..6 {
            traffic.record("m", &vector(i), 0);
        }
        let corpus = traffic.corpus("m").unwrap();
        let paths = corpus.shard_paths();
        assert_eq!(paths.len(), 3);
        assert!(paths.iter().all(|p| p.exists()));
        assert_eq!(traffic.clear("m"), 6);
        // The corpus still holds the files.
        assert!(paths.iter().all(|p| p.exists()));
        let mut source = corpus.chronological_source().unwrap();
        assert_eq!(materialize(&mut source, "r").unwrap().len(), 6);
        drop(source);
        drop(corpus);
        assert!(
            paths.iter().all(|p| !p.exists()),
            "last reference removes the shard files"
        );
    }

    #[test]
    fn ring_rotation_bounds_disk_and_counts_evictions() {
        let traffic = tiny_traffic(2, 2);
        for i in 0..10 {
            traffic.record("m", &vector(i), 0);
        }
        let stats = traffic.stats("m");
        assert_eq!(stats.shards, 2, "ring capped at max_shards");
        assert_eq!(stats.spilled, 4);
        assert_eq!(stats.rotated_out, 6, "three evicted shards of 2");
        // The corpus sees only the surviving window, oldest first.
        let corpus = traffic.corpus("m").unwrap();
        let mut source = corpus.chronological_source().unwrap();
        let replay = materialize(&mut source, "window").unwrap();
        assert_eq!(replay.samples()[0], vector(6));
        assert_eq!(replay.len(), 4);
    }

    #[test]
    fn interleaved_source_mixes_shards_deterministically() {
        let traffic = tiny_traffic(3, 64);
        for i in 0..9 {
            traffic.record("m", &vector(i), 0);
        }
        let corpus = traffic.corpus("m").unwrap();
        assert_eq!(corpus.num_shards(), 3);
        let mut source = corpus.interleaved_source(1).unwrap();
        let replay = materialize(&mut source, "mixed").unwrap();
        // Round-robin single records across the three 3-record shards.
        let expected: Vec<Vec<f64>> = [0, 3, 6, 1, 4, 7, 2, 5, 8]
            .iter()
            .map(|&i| vector(i))
            .collect();
        assert_eq!(replay.samples(), &expected[..]);
        assert!(matches!(
            corpus.interleaved_source(0),
            Err(ServeError::Traffic(_))
        ));
    }

    #[test]
    fn dimension_mismatches_are_dropped_not_fatal() {
        let traffic = tiny_traffic(8, 64);
        traffic.record("m", &[1.0, 2.0], 0);
        traffic.record("m", &[1.0, 2.0, 3.0], 0); // wrong dim: dropped
        traffic.record("m", &[], 0); // empty: ignored entirely
        let stats = traffic.stats("m");
        assert_eq!(stats.recorded, 1);
        assert_eq!(stats.dropped, 1);
        // Models are isolated: a second id records independently.
        traffic.record("other", &[1.0], 1);
        assert_eq!(traffic.stats("other").recorded, 1);
        assert_eq!(traffic.model_ids(), vec!["m", "other"]);
    }

    #[test]
    fn audit_ring_keeps_the_most_recent_window() {
        let traffic = tiny_traffic(2, 64); // audit_window: 4
        for i in 0..10 {
            traffic.record("m", &vector(i), i);
        }
        let stats = traffic.stats("m");
        assert_eq!(stats.audit_samples, 4);
        let recent = traffic.recent_features("m", 16);
        assert_eq!(recent.len(), 4);
        // The ring holds exactly the last 4 records (slot order, not
        // arrival order).
        let mut labels: Vec<usize> = recent.iter().map(|(_, l)| *l).collect();
        labels.sort_unstable();
        assert_eq!(labels, vec![6, 7, 8, 9]);
        for (features, label) in &recent {
            assert_eq!(features, &vector(*label));
        }
        assert_eq!(traffic.recent_features("m", 2).len(), 2);
        assert!(traffic.recent_features("unknown", 8).is_empty());
    }

    #[test]
    fn compaction_merges_the_ring_and_preserves_replay() {
        let traffic = tiny_traffic(2, 64);
        for i in 0..7 {
            traffic.record("m", &vector(i), i % 2);
        }
        let before = traffic.corpus("m").unwrap();
        assert_eq!(before.num_shards(), 4, "3 spills + the flushed tail");
        let old_paths = before.shard_paths();

        let merged = traffic.compact("m").unwrap();
        assert_eq!(merged, 4);
        let stats = traffic.stats("m");
        assert_eq!(stats.shards, 1, "ring replaced by one shard");
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.spilled, 7, "no records lost");

        // The compacted corpus replays identically to the pre-compaction
        // snapshot, chronologically.
        let after = traffic.corpus("m").unwrap();
        let replay = |corpus: &TrafficCorpus| {
            let mut source = corpus.chronological_source().unwrap();
            materialize(&mut source, "r").unwrap()
        };
        let (old, new) = (replay(&before), replay(&after));
        assert_eq!(old.samples(), new.samples());
        assert_eq!(old.labels(), new.labels());
        // Pre-compaction snapshots keep their own files alive; once both
        // are gone the old shards disappear.
        drop(before);
        assert!(old_paths.iter().all(|p| !p.exists()));

        // Compacting a single-shard ring is a no-op.
        assert_eq!(traffic.compact("m").unwrap(), 1);
        assert_eq!(traffic.stats("m").compactions, 1);
        assert!(matches!(
            traffic.compact("unknown"),
            Err(ServeError::NoTraffic(_))
        ));
    }

    #[test]
    fn coverage_weighting_caps_records_per_cell() {
        let traffic = tiny_traffic(3, 64);
        // 12 records: the same cell 9 times, two rarer cells.
        for _ in 0..9 {
            traffic.record("m", &[1.0, 0.0, 0.0], 0);
        }
        traffic.record("m", &[0.0, 1.0, 0.0], 1);
        traffic.record("m", &[0.0, 1.0, 0.0], 1);
        traffic.record("m", &[0.0, 0.0, 1.0], 2);
        let corpus = traffic.corpus("m").unwrap();

        // Popularity: the full replay.
        let mut source = corpus
            .weighted_source(&CorpusWeighting::Popularity)
            .unwrap();
        assert_eq!(materialize(&mut source, "pop").unwrap().len(), 12);

        // Coverage with a cap of 2: the hot cell is capped, rare cells
        // keep everything.
        let weighting = CorpusWeighting::Coverage {
            per_cell_cap: 2,
            quantum: 1e-6,
        };
        let mut source = corpus.weighted_source(&weighting).unwrap();
        let capped = materialize(&mut source, "cov").unwrap();
        assert_eq!(capped.len(), 5, "2 + 2 + 1 survive");
        let ones = capped.labels().iter().filter(|&&l| l == 0).count();
        assert_eq!(ones, 2, "hot cell capped at 2");
        // A second pass over the same source is identical (reset clears
        // the seen-cell table).
        let mut source = corpus.weighted_source(&weighting).unwrap();
        let again = materialize(&mut source, "cov2").unwrap();
        assert_eq!(again.samples(), capped.samples());
    }
}
