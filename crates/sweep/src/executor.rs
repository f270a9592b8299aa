//! The sharded campaign executor.
//!
//! [`CampaignSession`] takes a [`SweepSpec`] and evaluates every point
//! across all cores: workers claim points from a shared queue (so uneven
//! point costs balance out), each point runs under panic isolation,
//! per-point seeds follow the spec's [`SeedMode`], and —
//! when a cache is attached — outcomes are served from and stored to the
//! content-addressed [`ResultCache`]. While the session runs it emits a
//! typed [`CampaignEvent`] stream to a [`CampaignObserver`] (the `sweep`
//! CLI's progress printing — human or `--progress json` — and the campaign
//! service's replayable session logs both ride this stream); the batch
//! [`run_sweep`] call is a thin unobserved wrapper kept for callers that
//! only want the final [`SweepResults`].
//!
//! Large campaigns run *streaming*: [`CampaignSession::run_with_sink`]
//! pushes every completed [`PointRecord`] into a [`RecordSink`] (a CSV
//! writer, a running aggregator — see [`crate::stream`]) as it completes,
//! and [`CampaignSession::run_streaming`] drops the records entirely so a
//! 10k+-point campaign never materializes its full row set. Attaching a
//! checkpoint journal ([`ExecutorOptions::journal_path`]) makes the session
//! crash-safe: every completed point is journaled, and a rerun with
//! [`ExecutorOptions::resume`] *restores* journaled points from the cache —
//! with their original cache provenance, so resumed reports are
//! byte-identical to an uninterrupted run's — instead of re-evaluating
//! them.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use serde::{Deserialize, Serialize, Value};

use ltrf_core::{run_experiment, BaselineReference, CoreError, ExperimentConfig, RunResult};
use ltrf_workloads::{evaluated_suite, Workload};

use crate::cache::{point_key, PointKey, ResultCache};
use crate::hash::sha256;
use crate::journal::{CampaignJournal, JournalSnapshot};
use crate::pool::{panic_message, parallel_map};
use crate::spec::{SeedMode, SweepPoint, SweepSpec};

/// The data produced by a successfully evaluated point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointData {
    /// The raw run result.
    pub result: RunResult,
    /// IPC relative to the baseline reference (when the spec normalizes).
    pub normalized_ipc: Option<f64>,
    /// Register-file power relative to the baseline reference (when the
    /// spec normalizes).
    pub normalized_power: Option<f64>,
}

/// How a point concluded.
///
/// The success variant carries the full per-run statistics inline; campaigns
/// allocate one of these per point anyway, so boxing would only add pointer
/// chasing to the hot reporting paths.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PointOutcome {
    /// The point ran (or was cached) successfully.
    Ok(PointData),
    /// The runner returned an error (e.g. a compiler failure or an unknown
    /// workload name).
    Error(String),
    /// The point panicked; the shard survived and the payload is recorded.
    Panicked(String),
}

impl PointOutcome {
    /// The point's data, if it succeeded.
    #[must_use]
    pub fn data(&self) -> Option<&PointData> {
        match self {
            PointOutcome::Ok(data) => Some(data),
            _ => None,
        }
    }

    /// Whether the point failed (error or panic).
    #[must_use]
    pub fn is_failure(&self) -> bool {
        !matches!(self, PointOutcome::Ok(_))
    }
}

/// One evaluated point: identity, outcome, and provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointRecord {
    /// The point as specified.
    pub point: SweepPoint,
    /// The content digest the point is cached under.
    pub digest_hex: String,
    /// The seed the point ran with.
    pub seed: u64,
    /// The outcome.
    pub outcome: PointOutcome,
    /// Whether the outcome was served from the cache.
    pub from_cache: bool,
}

/// A completed campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResults {
    /// Campaign name (from the spec).
    pub name: String,
    /// One record per spec point, in spec order.
    pub records: Vec<PointRecord>,
}

impl SweepResults {
    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the campaign had no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of points served from the cache.
    #[must_use]
    pub fn cached_count(&self) -> usize {
        self.records.iter().filter(|r| r.from_cache).count()
    }

    /// Number of points computed in this run.
    #[must_use]
    pub fn computed_count(&self) -> usize {
        self.len() - self.cached_count()
    }

    /// Number of failed points (errors plus panics).
    #[must_use]
    pub fn failure_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome.is_failure())
            .count()
    }

    /// Fraction of points served from the cache, in `[0, 1]`.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.cached_count() as f64 / self.len() as f64
        }
    }

    /// Iterates over successful records with their data.
    pub fn successes(&self) -> impl Iterator<Item = (&PointRecord, &PointData)> {
        self.records
            .iter()
            .filter_map(|r| r.outcome.data().map(|d| (r, d)))
    }
}

/// Mean metrics over a set of successful points — the aggregation behind
/// the GPU-scaling, generated-population, trace and interconnect summary
/// tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointMeans {
    /// Number of points aggregated.
    pub count: usize,
    /// Mean (whole-GPU) IPC.
    pub ipc: f64,
    /// Mean IPC normalized to the baseline reference (points without
    /// normalization contribute zero).
    pub normalized_ipc: f64,
    /// Mean L2 hit rate (the shared L2 for multi-SM points, the private
    /// LLC for single-SM ones).
    pub l2_hit_rate: f64,
    /// Mean DRAM row-buffer hit rate.
    pub dram_row_hit_rate: f64,
    /// Mean cycles requests spent queued behind busy shared-L2 slices
    /// (zero for single-SM points, whose private L2 never queues).
    pub l2_queue_wait: f64,
    /// Mean SM↔L2 network transport latency per routed message (zero under
    /// the `Ideal` topology and for single-SM points).
    pub noc_latency: f64,
}

/// The online fold behind [`PointMeans`]: push successful points one at a
/// time, then [`finish`](PointMeansAcc::finish) into the means. This is what
/// the streaming aggregation path ([`crate::stream::RunningAggregates`])
/// folds `PointFinished` records into, so summary statistics never require
/// the full row set in memory.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PointMeansAcc {
    count: usize,
    ipc: f64,
    normalized_ipc: f64,
    l2_hit_rate: f64,
    dram_row_hit_rate: f64,
    l2_queue_wait: f64,
    noc_latency: f64,
}

impl PointMeansAcc {
    /// Folds one successful point into the running sums.
    pub fn push(&mut self, data: &PointData) {
        self.count += 1;
        self.ipc += data.result.ipc;
        self.normalized_ipc += data.normalized_ipc.unwrap_or(0.0);
        self.l2_hit_rate += data.result.stats.memory.llc.hit_rate();
        self.dram_row_hit_rate += data.result.stats.memory.dram.row_hit_rate();
        self.l2_queue_wait += data.result.stats.memory.l2_queue_wait_cycles as f64;
        self.noc_latency += data.result.stats.memory.noc.mean_latency();
    }

    /// Number of points folded in so far.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The means over everything pushed; `None` when nothing was.
    #[must_use]
    pub fn finish(&self) -> Option<PointMeans> {
        if self.count == 0 {
            return None;
        }
        let n = self.count as f64;
        Some(PointMeans {
            count: self.count,
            ipc: self.ipc / n,
            normalized_ipc: self.normalized_ipc / n,
            l2_hit_rate: self.l2_hit_rate / n,
            dram_row_hit_rate: self.dram_row_hit_rate / n,
            l2_queue_wait: self.l2_queue_wait / n,
            noc_latency: self.noc_latency / n,
        })
    }
}

/// Mean IPC relative to each workload's own 1× point, per latency factor,
/// over the successful points selected by `select` — the canonical
/// aggregation behind the `sweep fig12|fig13|fig14` latency-sweep summary
/// tables.
///
/// A workload contributes only a *complete* curve: if its 1× reference is
/// missing or non-positive, or any factor's point is absent, the whole
/// workload is excluded from the series (not just the missing factors), so
/// every returned mean averages the same workload set. Returns `None` when
/// no workload has a complete curve. `factors` must contain `1.0` for any
/// curve to be complete.
pub fn relative_ipc_series<F>(
    results: &SweepResults,
    factors: &[f64],
    select: F,
) -> Option<Vec<f64>>
where
    F: Fn(&PointRecord) -> bool,
{
    // workload → latency-factor bits → ipc
    let mut curves: std::collections::BTreeMap<&str, std::collections::BTreeMap<u64, f64>> =
        std::collections::BTreeMap::new();
    for (record, data) in results.successes() {
        if !select(record) {
            continue;
        }
        curves
            .entry(record.point.workload.as_str())
            .or_default()
            .insert(
                record.point.config.latency_factor().to_bits(),
                data.result.ipc,
            );
    }
    let mut sums = vec![0.0; factors.len()];
    let mut complete = 0usize;
    for curve in curves.values() {
        let Some(&reference) = curve.get(&1.0f64.to_bits()) else {
            continue;
        };
        if reference <= 0.0 {
            continue;
        }
        let Some(relatives) = factors
            .iter()
            .map(|f| curve.get(&f.to_bits()).map(|ipc| ipc / reference))
            .collect::<Option<Vec<f64>>>()
        else {
            continue;
        };
        for (sum, relative) in sums.iter_mut().zip(relatives) {
            *sum += relative;
        }
        complete += 1;
    }
    if complete == 0 {
        return None;
    }
    Some(sums.into_iter().map(|s| s / complete as f64).collect())
}

/// Execution policy knobs.
#[derive(Debug, Default)]
pub struct ExecutorOptions {
    /// Worker threads; `None` uses every available core.
    pub threads: Option<usize>,
    /// Cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// An already-open cache *instance* to use instead of opening
    /// `cache_dir`. The campaign service shares one instance across every
    /// concurrent session so a point stored by one session is immediately
    /// visible to the others' in-memory index (per-session opens would each
    /// snapshot the packed index at open time and miss each other's
    /// stores). Takes precedence over `cache_dir` when both are set.
    pub shared_cache: Option<Arc<ResultCache>>,
    /// When `true`, ignore cached outcomes (but still store fresh ones).
    pub force_recompute: bool,
    /// Checkpoint journal path; `None` runs unjournaled. When set, every
    /// completed point appends one line (digest, seed, provenance) so a
    /// killed campaign can be resumed.
    pub journal_path: Option<PathBuf>,
    /// When `true` (and a journal path is set), load the journal left by a
    /// previous run and *restore* its completed points from the cache
    /// instead of re-evaluating them. Requires a cache: restored outcomes
    /// are read back through it.
    pub resume: bool,
    /// Cross-session coordination hooks (single-flight dedup of identical
    /// in-flight points plus a shared bounded worker pool) — the campaign
    /// service (`sweep serve`, [`crate::serve`]) installs its
    /// [`SingleFlight`](crate::serve::SingleFlight) here. `None` runs
    /// standalone with no coordination overhead.
    pub coordinator: Option<Arc<dyn PointCoordinator>>,
    /// Cooperative cancellation flag. When it reads `true`, every point not
    /// yet claimed resolves as a `cancelled` failure record (with its
    /// `PointFailed` event) instead of being evaluated, so the campaign
    /// drains quickly but still emits exactly one terminal event per point
    /// and a final `CampaignFinished`.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl ExecutorOptions {
    fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }
}

/// How a coordinated session should resolve a point that missed the cache —
/// what [`PointCoordinator::claim`] returns.
#[derive(Debug, Clone, PartialEq)]
pub enum PointClaim {
    /// This session leads the digest: it evaluates the point, stores the
    /// outcome, and must call [`PointCoordinator::publish`] exactly once so
    /// waiting sessions (and the worker-pool permit) are released.
    Lead,
    /// Another session was already computing the same digest; its finished
    /// outcome is fanned out here without re-evaluating. Successful
    /// coalesced points surface as [`CampaignEvent::PointCoalesced`].
    /// (Boxed: the outcome dwarfs the data-less [`PointClaim::Lead`].)
    Coalesced(Box<PointOutcome>),
}

/// Cross-session execution hooks for the campaign service: single-flight
/// dedup of identical in-flight points (keyed on the content-addressed cache
/// digest) and a shared bounded worker pool.
///
/// The executor calls [`claim`](PointCoordinator::claim) after a cache miss
/// and before evaluation; a [`PointClaim::Lead`] answer obliges it to call
/// [`publish`](PointCoordinator::publish) with the final outcome (it does so
/// on every path, including cache-recheck hits and failures). Because a
/// leader may have blocked in `claim` waiting for a pool permit while some
/// other session finished the same digest, the executor re-checks the
/// (shared) cache once more after winning a claim — that recheck is what
/// makes "each digest evaluated at most once service-wide" hold even across
/// the store/publish race.
pub trait PointCoordinator: std::fmt::Debug + Send + Sync {
    /// Claims `digest` for evaluation. May block — waiting for a worker
    /// pool permit (leaders) or for another session's in-flight computation
    /// of the same digest (followers).
    fn claim(&self, digest: &str) -> PointClaim;

    /// Publishes the leader's final outcome for `digest`: wakes every
    /// session waiting on it and releases the worker-pool permit. Called
    /// exactly once per successful [`PointClaim::Lead`].
    fn publish(&self, digest: &str, outcome: &PointOutcome);
}

/// A consumer of completed [`PointRecord`]s, called from the worker threads
/// as points finish (in completion order, not spec order — the record's
/// `index` is its position in [`SweepSpec::points`]).
///
/// Sinks are how streaming campaigns bound their memory: a
/// [`StreamingCsvWriter`](crate::stream::StreamingCsvWriter) writes each row
/// to disk as it completes and an
/// [`AggregateSink`](crate::stream::AggregateSink) folds each record into
/// running per-config statistics, so neither needs the full row set. Every
/// point reaches the sink exactly once, including failures (panic-isolated
/// fallbacks included).
pub trait RecordSink: Sync {
    /// Called once per completed point.
    fn on_record(&self, index: usize, record: &PointRecord);
}

/// The no-op sink.
impl RecordSink for () {
    fn on_record(&self, _index: usize, _record: &PointRecord) {}
}

/// Broadcasts every record to several sinks in order (CSV writer plus
/// aggregator is the common pair).
#[derive(Clone, Copy)]
pub struct FanoutSink<'a>(
    /// The sinks, each of which sees every record.
    pub &'a [&'a dyn RecordSink],
);

impl RecordSink for FanoutSink<'_> {
    fn on_record(&self, index: usize, record: &PointRecord) {
        for sink in self.0 {
            sink.on_record(index, record);
        }
    }
}

/// How a campaign's points resolved, by provenance — the summary a
/// streaming run reports without retaining its records. The counts
/// partition the campaign:
/// `computed + cached + restored + coalesced == points`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CampaignTotals {
    /// Total points in the campaign.
    pub points: usize,
    /// Points evaluated fresh in this run (including failures).
    pub computed: usize,
    /// Points served live from the result cache.
    pub cached: usize,
    /// Points restored from the checkpoint journal (resume runs).
    pub restored: usize,
    /// Points fanned out from another session's in-flight computation of
    /// the same digest (single-flight dedup under the campaign service;
    /// zero outside `sweep serve`).
    pub coalesced: usize,
    /// Points that failed (errors plus panics).
    pub failed: usize,
    /// Fraction of records carrying cache provenance, in `[0, 1]` — the
    /// same quantity as [`SweepResults::cache_hit_rate`] (restored points
    /// count with their *original* provenance).
    pub hit_rate: f64,
}

// ---------------------------------------------------------------------------
// The event stream — typed progress emitted while a session runs
// ---------------------------------------------------------------------------

/// A typed progress event emitted by a [`CampaignSession`] while it runs.
///
/// Events for different points interleave freely (workers claim points from
/// a shared queue), so every per-point event carries the point's index into
/// [`SweepSpec::points`]. Per campaign, the stream always contains exactly
/// one `CampaignStarted`, then one `PointStarted` and one terminal
/// `PointFinished`, `PointRestored`, `PointCoalesced` *or* `PointFailed`
/// per point, and finally exactly one `CampaignFinished` whose counts match
/// the returned [`SweepResults`].
///
/// [`CampaignEvent::to_json_line`] renders an event as the stable
/// line-delimited JSON schema behind the CLI's `--progress json` mode
/// (documented in `REPRODUCING.md`).
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignEvent {
    /// The session is about to evaluate the campaign's points.
    CampaignStarted {
        /// Campaign name (from the spec).
        campaign: String,
        /// Number of points the campaign will evaluate.
        points: usize,
    },
    /// A worker claimed a point and is about to resolve it.
    PointStarted {
        /// Index into [`SweepSpec::points`].
        index: usize,
        /// The point's workload name.
        workload: String,
        /// The point's register-file organization label.
        organization: &'static str,
    },
    /// A point resolved successfully (computed, or served from the cache).
    PointFinished {
        /// Index into [`SweepSpec::points`].
        index: usize,
        /// Whether the outcome was served from the result cache.
        cache_hit: bool,
    },
    /// A resume run restored a point the checkpoint journal recorded as
    /// completed, instead of re-evaluating it.
    PointRestored {
        /// Index into [`SweepSpec::points`].
        index: usize,
        /// The cache provenance the point originally completed with (what
        /// its record — and CSV row — carries).
        from_cache: bool,
    },
    /// Another session of the campaign service was already computing the
    /// identical point (same content-addressed digest); its outcome was
    /// computed once and fanned out here (single-flight dedup). Terminal,
    /// like `PointFinished`; never emitted outside `sweep serve`. A
    /// coalesced *failure* surfaces as `PointFailed` instead, so failures
    /// are always visible.
    PointCoalesced {
        /// Index into [`SweepSpec::points`].
        index: usize,
        /// The content digest the point was deduplicated on (correlates
        /// coalesced points across concurrent sessions).
        digest: String,
    },
    /// A point failed (runner error or isolated panic); the campaign
    /// continues.
    PointFailed {
        /// Index into [`SweepSpec::points`].
        index: usize,
        /// The point's workload name.
        workload: String,
        /// The point's register-file organization label.
        organization: &'static str,
        /// The point's Table 2 design point (disambiguates multi-config
        /// campaigns in failure reports).
        config_id: u8,
        /// The error or panic payload.
        error: String,
    },
    /// Every point resolved; the campaign's results are final.
    CampaignFinished {
        /// Campaign name (from the spec).
        campaign: String,
        /// Points evaluated fresh in this run.
        computed: usize,
        /// Points served live from the cache.
        cached: usize,
        /// Points restored from the checkpoint journal (zero outside
        /// resume runs).
        restored: usize,
        /// Points fanned out from another session's in-flight computation
        /// (zero outside the campaign service).
        coalesced: usize,
        /// Points that failed.
        failed: usize,
        /// Fraction of points served from the cache, in `[0, 1]` (matches
        /// [`SweepResults::cache_hit_rate`]; restored points count with
        /// their original provenance).
        hit_rate: f64,
    },
}

impl CampaignEvent {
    /// Renders the event as one line of the CLI's `--progress json` stream:
    /// a flat JSON object whose `event` field is the snake_case variant
    /// name, followed by the variant's fields. The schema is documented in
    /// `REPRODUCING.md` and pinned by the registry tests.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let obj = |fields: Vec<(&str, Value)>| {
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
            .to_json()
        };
        match self {
            CampaignEvent::CampaignStarted { campaign, points } => obj(vec![
                ("event", Value::Str("campaign_started".into())),
                ("campaign", Value::Str(campaign.clone())),
                ("points", Value::UInt(*points as u64)),
            ]),
            CampaignEvent::PointStarted {
                index,
                workload,
                organization,
            } => obj(vec![
                ("event", Value::Str("point_started".into())),
                ("index", Value::UInt(*index as u64)),
                ("workload", Value::Str(workload.clone())),
                ("organization", Value::Str((*organization).to_string())),
            ]),
            CampaignEvent::PointFinished { index, cache_hit } => obj(vec![
                ("event", Value::Str("point_finished".into())),
                ("index", Value::UInt(*index as u64)),
                ("cache_hit", Value::Bool(*cache_hit)),
            ]),
            CampaignEvent::PointRestored { index, from_cache } => obj(vec![
                ("event", Value::Str("point_restored".into())),
                ("index", Value::UInt(*index as u64)),
                ("from_cache", Value::Bool(*from_cache)),
            ]),
            CampaignEvent::PointCoalesced { index, digest } => obj(vec![
                ("event", Value::Str("point_coalesced".into())),
                ("index", Value::UInt(*index as u64)),
                ("digest", Value::Str(digest.clone())),
            ]),
            CampaignEvent::PointFailed {
                index,
                workload,
                organization,
                config_id,
                error,
            } => obj(vec![
                ("event", Value::Str("point_failed".into())),
                ("index", Value::UInt(*index as u64)),
                ("workload", Value::Str(workload.clone())),
                ("organization", Value::Str((*organization).to_string())),
                ("config_id", Value::UInt(u64::from(*config_id))),
                ("error", Value::Str(error.clone())),
            ]),
            CampaignEvent::CampaignFinished {
                campaign,
                computed,
                cached,
                restored,
                coalesced,
                failed,
                hit_rate,
            } => obj(vec![
                ("event", Value::Str("campaign_finished".into())),
                ("campaign", Value::Str(campaign.clone())),
                ("computed", Value::UInt(*computed as u64)),
                ("cached", Value::UInt(*cached as u64)),
                ("restored", Value::UInt(*restored as u64)),
                ("coalesced", Value::UInt(*coalesced as u64)),
                ("failed", Value::UInt(*failed as u64)),
                ("hit_rate", Value::Float(*hit_rate)),
            ]),
        }
    }
}

/// A consumer of a session's [`CampaignEvent`] stream.
///
/// Observers are called from the worker threads, so they must be `Sync`;
/// events for different points arrive interleaved. Any `Fn(&CampaignEvent) +
/// Sync` closure is an observer, and two adapters cover the common shapes:
/// [`EventLog`] collects the stream for inspection (tests, summaries) and
/// [`event_channel`] forwards it over an `mpsc` channel to a consumer on
/// another thread.
pub trait CampaignObserver: Sync {
    /// Called once per event, in stream order per point (but interleaved
    /// across points).
    fn on_event(&self, event: &CampaignEvent);
}

impl<F: Fn(&CampaignEvent) + Sync> CampaignObserver for F {
    fn on_event(&self, event: &CampaignEvent) {
        self(event);
    }
}

/// The no-op observer behind the batch [`run_sweep`] wrapper.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unobserved;

impl CampaignObserver for Unobserved {
    fn on_event(&self, _event: &CampaignEvent) {}
}

/// An observer that collects the whole event stream, for inspection after
/// the run (the event-stream regression tests are built on this).
#[derive(Debug, Default)]
pub struct EventLog {
    events: Mutex<Vec<CampaignEvent>>,
}

impl EventLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Drains and returns the events collected so far, in arrival order.
    #[must_use]
    pub fn take(&self) -> Vec<CampaignEvent> {
        std::mem::take(&mut self.events.lock().expect("event log poisoned"))
    }
}

impl CampaignObserver for EventLog {
    fn on_event(&self, event: &CampaignEvent) {
        self.events
            .lock()
            .expect("event log poisoned")
            .push(event.clone());
    }
}

/// A channel-backed observer: events are forwarded to the returned receiver,
/// so a consumer on another thread can stream progress while the session
/// runs. A dropped receiver is tolerated (sends become no-ops).
#[derive(Debug)]
pub struct EventSender {
    sender: Mutex<mpsc::Sender<CampaignEvent>>,
}

/// Creates a connected [`EventSender`]/receiver pair.
#[must_use]
pub fn event_channel() -> (EventSender, mpsc::Receiver<CampaignEvent>) {
    let (sender, receiver) = mpsc::channel();
    (
        EventSender {
            sender: Mutex::new(sender),
        },
        receiver,
    )
}

impl CampaignObserver for EventSender {
    fn on_event(&self, event: &CampaignEvent) {
        let _ = self
            .sender
            .lock()
            .expect("event sender poisoned")
            .send(event.clone());
    }
}

// ---------------------------------------------------------------------------
// The session — observed campaign execution
// ---------------------------------------------------------------------------

/// One observed execution of a campaign: a [`SweepSpec`] bound to its
/// [`ExecutorOptions`], run with [`CampaignSession::run`] under any
/// [`CampaignObserver`].
///
/// This is the engine's primary execution API; the batch [`run_sweep`] call
/// is `CampaignSession::new(spec, options).run(&Unobserved)`.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSession<'a> {
    spec: &'a SweepSpec,
    options: &'a ExecutorOptions,
}

impl<'a> CampaignSession<'a> {
    /// Binds a spec to its execution options.
    #[must_use]
    pub fn new(spec: &'a SweepSpec, options: &'a ExecutorOptions) -> Self {
        CampaignSession { spec, options }
    }

    /// The spec this session runs.
    #[must_use]
    pub fn spec(&self) -> &SweepSpec {
        self.spec
    }

    /// Runs the campaign, streaming [`CampaignEvent`]s to `observer`.
    ///
    /// Never fails as a whole: per-point problems (unknown workloads,
    /// runner errors, panics) become failure records (and `PointFailed`
    /// events), and an unusable cache directory degrades to running
    /// uncached with a note on stderr.
    #[must_use]
    pub fn run(&self, observer: &dyn CampaignObserver) -> SweepResults {
        self.run_with_sink(observer, &()).0
    }

    /// Runs the campaign, additionally pushing every completed record into
    /// `sink` as it completes (in completion order), and returns the
    /// retained [`SweepResults`] alongside the provenance totals.
    ///
    /// This is the full-fidelity streaming entry point: the CLI fans out to
    /// a streaming CSV writer and a running aggregator while still
    /// retaining records for the JSON report. Failure semantics match
    /// [`run`](CampaignSession::run).
    #[must_use]
    pub fn run_with_sink(
        &self,
        observer: &dyn CampaignObserver,
        sink: &dyn RecordSink,
    ) -> (SweepResults, CampaignTotals) {
        let memo = BaselineMemo::for_spec(self.spec);
        let (records, totals) = self.run_inner(observer, sink, true, memo.as_ref());
        (
            SweepResults {
                name: self.spec.name.clone(),
                records,
            },
            totals,
        )
    }

    /// Runs the campaign without retaining records: every completed record
    /// is pushed into `sink` and dropped, so memory stays bounded by the
    /// sinks (not the point count). Returns the provenance totals only.
    ///
    /// This is the 10k+-point entry point — pair it with a
    /// [`StreamingCsvWriter`](crate::stream::StreamingCsvWriter) and/or an
    /// [`AggregateSink`](crate::stream::AggregateSink). Failure semantics
    /// match [`run`](CampaignSession::run).
    pub fn run_streaming(
        &self,
        observer: &dyn CampaignObserver,
        sink: &dyn RecordSink,
    ) -> CampaignTotals {
        let memo = BaselineMemo::for_spec(self.spec);
        self.run_inner(observer, sink, false, memo.as_ref()).1
    }

    /// The session body. `memo` shares baseline references among the
    /// normalized points (see [`BaselineMemo`]); `None` simulates each
    /// point's own.
    fn run_inner(
        &self,
        observer: &dyn CampaignObserver,
        sink: &dyn RecordSink,
        retain: bool,
        memo: Option<&BaselineMemo>,
    ) -> (Vec<PointRecord>, CampaignTotals) {
        let spec = self.spec;
        let options = self.options;
        // A shared instance (the campaign service) wins over a directory:
        // the service's sessions must see each other's stores through one
        // in-memory index, not per-open snapshots.
        let cache: Option<Arc<ResultCache>> = options.shared_cache.clone().or_else(|| {
            options.cache_dir.as_ref().and_then(|dir| {
                ResultCache::open(dir)
                    .map(Arc::new)
                    .map_err(|e| {
                        eprintln!(
                            "sweep: cache at {} unusable ({e}); running uncached",
                            dir.display()
                        )
                    })
                    .ok()
            })
        });
        // The checkpoint journal (when requested). A resume loads the
        // previous run's snapshot; an unusable journal degrades to running
        // unjournaled with a note on stderr, like the cache.
        let (journal, snapshot) = match &options.journal_path {
            Some(path) => {
                let opened = if options.resume {
                    CampaignJournal::resume(path, &spec.name)
                } else {
                    CampaignJournal::create(path, &spec.name)
                        .map(|j| (j, JournalSnapshot::default()))
                };
                match opened {
                    Ok((journal, snapshot)) => (Some(journal), snapshot),
                    Err(e) => {
                        eprintln!(
                            "sweep: journal at {} unusable ({e}); running unjournaled",
                            path.display()
                        );
                        (None, JournalSnapshot::default())
                    }
                }
            }
            None => (None, JournalSnapshot::default()),
        };
        let suite: HashMap<&str, Workload> = evaluated_suite()
            .into_iter()
            .map(|w| (w.name(), w))
            .collect();

        observer.on_event(&CampaignEvent::CampaignStarted {
            campaign: spec.name.clone(),
            points: spec.points.len(),
        });

        let outcomes = parallel_map(&spec.points, options.threads, |index, point| {
            observer.on_event(&CampaignEvent::PointStarted {
                index,
                workload: point.workload.clone(),
                organization: point.config.organization.label(),
            });
            // Every point takes a lease, cache hits included: the memo's
            // eviction rule counts the points that have started.
            let baseline = memo.map(|memo| memo.lease(index));
            let key = point_key(spec, point);

            // Resume path: a point the journal recorded as completed — and
            // whose outcome is still in the cache — is restored with its
            // *original* provenance, so a resumed run's records (and CSV)
            // are byte-identical to an uninterrupted run's.
            let prior = if options.resume && !options.force_recompute {
                snapshot.get(&key.digest_hex)
            } else {
                None
            };
            if let Some(prior) = prior {
                if let Some(outcome) = cache.as_ref().and_then(|c| c.load::<PointOutcome>(&key)) {
                    observer.on_event(&CampaignEvent::PointRestored {
                        index,
                        from_cache: prior.from_cache,
                    });
                    let record = make_record(point, &key, outcome, prior.from_cache);
                    sink.on_record(index, &record);
                    let tally = Tally {
                        cached: false,
                        restored: true,
                        restored_hit: prior.from_cache,
                        coalesced: false,
                        failed: record.outcome.is_failure(),
                    };
                    return (retain.then_some(record), tally);
                }
                // Journaled but no longer in the cache (e.g. killed between
                // the journal append and the cache store): fall through and
                // recompute — restores never invent results.
            }

            // Cancellation drains the remaining points as failures without
            // evaluating them, keeping the one-terminal-event-per-point
            // stream invariant (and the final CampaignFinished) intact.
            if options.cancelled() {
                let error = "cancelled by service request".to_string();
                observer.on_event(&CampaignEvent::PointFailed {
                    index,
                    workload: point.workload.clone(),
                    organization: point.config.organization.label(),
                    config_id: point.config.mrf_config.id.0,
                    error: error.clone(),
                });
                let record = make_record(point, &key, PointOutcome::Error(error), false);
                sink.on_record(index, &record);
                let tally = Tally {
                    cached: false,
                    restored: false,
                    restored_hit: false,
                    coalesced: false,
                    failed: true,
                };
                return (retain.then_some(record), tally);
            }

            let cached = if options.force_recompute {
                None
            } else {
                cache.as_ref().and_then(|c| c.load::<PointOutcome>(&key))
            };
            let mut from_cache = cached.is_some();
            let mut coalesced = false;
            let outcome = match cached {
                Some(outcome) => outcome,
                None => {
                    // Single-flight dedup: claim the digest. A follower gets
                    // the leader's outcome fanned out; a leader (or an
                    // uncoordinated run) evaluates it here.
                    let claim = options
                        .coordinator
                        .as_ref()
                        .map(|coordinator| coordinator.claim(&key.digest_hex));
                    match claim {
                        Some(PointClaim::Coalesced(outcome)) => {
                            coalesced = true;
                            *outcome
                        }
                        lead => {
                            // A leader may have waited in `claim` for a pool
                            // permit while a *different* session finished
                            // this digest and published: re-check the shared
                            // cache once so each digest is evaluated at most
                            // once service-wide.
                            let recheck = if lead.is_some() && !options.force_recompute {
                                cache.as_ref().and_then(|c| c.load::<PointOutcome>(&key))
                            } else {
                                None
                            };
                            let outcome = match recheck {
                                Some(outcome) => {
                                    from_cache = true;
                                    outcome
                                }
                                None => {
                                    let outcome = evaluate_point(
                                        spec,
                                        point,
                                        &suite,
                                        key.seed,
                                        baseline.as_ref(),
                                    );
                                    // Only successes are cached: failures may
                                    // be transient (and must stay visible on
                                    // every run until fixed).
                                    if let PointOutcome::Ok(_) = &outcome {
                                        // Journal *before* the cache store: a
                                        // kill between the two costs one
                                        // recompute on resume; the reverse
                                        // order would let the resume serve
                                        // the point as a live cache hit and
                                        // flip its recorded provenance.
                                        if let Some(journal) = &journal {
                                            if let Err(e) =
                                                journal.record(&key.digest_hex, key.seed, false)
                                            {
                                                eprintln!(
                                                    "sweep: failed to journal {}: {e}",
                                                    key.digest_hex
                                                );
                                            }
                                        }
                                        if let Some(cache) = &cache {
                                            if let Err(e) = cache.store(&key, &outcome) {
                                                eprintln!(
                                                    "sweep: failed to store {}: {e}",
                                                    key.digest_hex
                                                );
                                            }
                                        }
                                    }
                                    outcome
                                }
                            };
                            // Publish *after* the store so followers' later
                            // cache loads (and leaders' rechecks) can hit.
                            if let Some(coordinator) = &options.coordinator {
                                coordinator.publish(&key.digest_hex, &outcome);
                            }
                            outcome
                        }
                    }
                }
            };
            // A coalesced success carries cache provenance in its record:
            // by the time it is fanned out, the leader has stored it.
            let record_hit = from_cache || (coalesced && !outcome.is_failure());
            if record_hit {
                // A live hit (or a coalesced success) is a completed point
                // too: journal it (with its provenance) so a later kill
                // does not lose it.
                if let (Some(journal), PointOutcome::Ok(_)) = (&journal, &outcome) {
                    if snapshot.get(&key.digest_hex).is_none() {
                        if let Err(e) = journal.record(&key.digest_hex, key.seed, true) {
                            eprintln!("sweep: failed to journal {}: {e}", key.digest_hex);
                        }
                    }
                }
            }
            observer.on_event(&match &outcome {
                PointOutcome::Ok(_) if coalesced => CampaignEvent::PointCoalesced {
                    index,
                    digest: key.digest_hex.clone(),
                },
                PointOutcome::Ok(_) => CampaignEvent::PointFinished {
                    index,
                    cache_hit: from_cache,
                },
                PointOutcome::Error(e) | PointOutcome::Panicked(e) => CampaignEvent::PointFailed {
                    index,
                    workload: point.workload.clone(),
                    organization: point.config.organization.label(),
                    config_id: point.config.mrf_config.id.0,
                    error: e.clone(),
                },
            });
            let record = make_record(point, &key, outcome, record_hit);
            sink.on_record(index, &record);
            let tally = Tally {
                cached: from_cache,
                restored: false,
                restored_hit: false,
                coalesced,
                failed: record.outcome.is_failure(),
            };
            (retain.then_some(record), tally)
        });

        let mut totals = CampaignTotals {
            points: spec.points.len(),
            ..CampaignTotals::default()
        };
        let mut hit_records = 0usize;
        let mut records = Vec::with_capacity(if retain { spec.points.len() } else { 0 });
        for (index, (result, point)) in outcomes.into_iter().zip(&spec.points).enumerate() {
            let (record, tally) = result.unwrap_or_else(|panic_msg| {
                // The evaluation itself is already panic-isolated, so this
                // only triggers if record assembly or the cache panicked —
                // emit the failure so the stream (and the sink) still carry
                // one terminal event per point.
                observer.on_event(&CampaignEvent::PointFailed {
                    index,
                    workload: point.workload.clone(),
                    organization: point.config.organization.label(),
                    config_id: point.config.mrf_config.id.0,
                    error: panic_msg.clone(),
                });
                let key = point_key(spec, point);
                let record = make_record(point, &key, PointOutcome::Panicked(panic_msg), false);
                sink.on_record(index, &record);
                let tally = Tally {
                    cached: false,
                    restored: false,
                    restored_hit: false,
                    coalesced: false,
                    failed: true,
                };
                (retain.then_some(record), tally)
            });
            if tally.cached {
                totals.cached += 1;
            } else if tally.restored {
                totals.restored += 1;
            } else if tally.coalesced {
                totals.coalesced += 1;
            } else {
                totals.computed += 1;
            }
            if tally.failed {
                totals.failed += 1;
            }
            if tally.cached || tally.restored_hit || (tally.coalesced && !tally.failed) {
                hit_records += 1;
            }
            if let Some(record) = record {
                records.push(record);
            }
        }
        totals.hit_rate = if totals.points == 0 {
            0.0
        } else {
            hit_records as f64 / totals.points as f64
        };

        observer.on_event(&CampaignEvent::CampaignFinished {
            campaign: spec.name.clone(),
            computed: totals.computed,
            cached: totals.cached,
            restored: totals.restored,
            coalesced: totals.coalesced,
            failed: totals.failed,
            hit_rate: totals.hit_rate,
        });
        (records, totals)
    }
}

/// Per-point provenance bookkeeping carried back from the workers.
#[derive(Debug, Clone, Copy)]
struct Tally {
    cached: bool,
    restored: bool,
    restored_hit: bool,
    coalesced: bool,
    failed: bool,
}

/// Runs a campaign unobserved — the batch wrapper over
/// [`CampaignSession::run`], kept for callers that only want the final
/// [`SweepResults`].
///
/// Never fails as a whole: per-point problems (unknown workloads, runner
/// errors, panics) become failure records, and an unusable cache directory
/// degrades to running uncached with a note on stderr.
#[must_use]
pub fn run_sweep(spec: &SweepSpec, options: &ExecutorOptions) -> SweepResults {
    CampaignSession::new(spec, options).run(&Unobserved)
}

fn make_record(
    point: &SweepPoint,
    key: &PointKey,
    outcome: PointOutcome,
    from_cache: bool,
) -> PointRecord {
    PointRecord {
        point: point.clone(),
        digest_hex: key.digest_hex.clone(),
        seed: key.seed,
        outcome,
        from_cache,
    }
}

/// The baseline references of one session's normalized points, each
/// simulated once and shared by every point that needs it.
///
/// A point's baseline depends only on its workload, memory selection and
/// seed and on [`ExperimentConfig::baseline_config`] (SM count and power
/// calibration), never on its organization or design point. Entries are
/// keyed by the SHA-256 of exactly that identity and hold only the two
/// figures normalization divides by, in a [`OnceLock`]: a second worker
/// that needs a baseline being simulated waits for it, and a panicking
/// simulation leaves the slot empty for the next point to retry.
///
/// Memory is bounded by the work in flight. An entry is dropped once no
/// in-flight point holds it and either every point has started, or a point
/// of a different workload with a higher index has started and so has every
/// point before it (builder specs are workload-major, so the entry's block
/// is over). Hand-built specs that interleave workloads may then simulate a
/// baseline again; results never depend on point order.
#[derive(Debug)]
struct BaselineMemo<'a> {
    points: &'a [SweepPoint],
    seed: u64,
    state: Mutex<MemoState>,
    /// Baseline simulations run through the memo.
    simulated: AtomicUsize,
}

type BaselineSlot = Arc<OnceLock<Result<BaselineReference, CoreError>>>;

#[derive(Debug, Default)]
struct MemoState {
    entries: HashMap<[u8; 32], MemoEntry>,
    /// Points that have taken a lease.
    started: usize,
    /// The highest index of a point that has taken a lease.
    latest: usize,
}

#[derive(Debug)]
struct MemoEntry {
    slot: BaselineSlot,
    /// In-flight points holding a lease on this entry.
    users: usize,
    /// The highest index of a point that leased this entry.
    last: usize,
}

impl<'a> BaselineMemo<'a> {
    /// The memo for `spec`: `None` unless its points are normalized under a
    /// fixed seed (per-point seeds make every baseline distinct).
    fn for_spec(spec: &'a SweepSpec) -> Option<Self> {
        match (spec.normalize, spec.seed_mode) {
            (true, SeedMode::Fixed(seed)) => Some(BaselineMemo {
                points: &spec.points,
                seed,
                state: Mutex::new(MemoState::default()),
                simulated: AtomicUsize::new(0),
            }),
            _ => None,
        }
    }

    /// The digest of the baseline run `points[index]` normalizes against.
    fn key(&self, index: usize) -> [u8; 32] {
        let point = &self.points[index];
        let mut fields = vec![
            ("workload".to_string(), Value::Str(point.workload.clone())),
            ("memory".to_string(), Serialize::to_value(&point.memory)),
            ("seed".to_string(), Value::UInt(self.seed)),
            // The two fields `ExperimentConfig::baseline_config` reads.
            (
                "sm_count".to_string(),
                Value::UInt(point.config.sm_count.max(1) as u64),
            ),
            (
                "power".to_string(),
                Serialize::to_value(&point.config.power),
            ),
        ];
        if let Some(generated) = &point.generated {
            fields.push(("generated".to_string(), Serialize::to_value(generated)));
        }
        if let Some(trace) = &point.trace {
            fields.push(("trace".to_string(), Serialize::to_value(trace)));
        }
        sha256(Value::Object(fields).to_json().as_bytes())
    }

    /// Registers point `index` as a user of its baseline until the lease
    /// drops.
    fn lease(&self, index: usize) -> BaselineLease<'_, 'a> {
        let key = self.key(index);
        let mut state = self.state();
        let opened = !state.entries.contains_key(&key);
        state.started += 1;
        state.latest = state.latest.max(index);
        let entry = state.entries.entry(key).or_insert_with(|| MemoEntry {
            slot: Arc::default(),
            users: 0,
            last: index,
        });
        entry.users += 1;
        entry.last = entry.last.max(index);
        let slot = Arc::clone(&entry.slot);
        self.evict(&mut state);
        BaselineLease {
            memo: self,
            key,
            slot,
            opened,
        }
    }

    /// The memo's state. Nothing panics while holding the lock, but a lease
    /// dropped during an unwind must not turn a poisoned lock into a second
    /// panic.
    fn state(&self) -> MutexGuard<'_, MemoState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drops every entry no in-flight or later point can use. Points are
    /// claimed in index order, so once every point up to the latest has
    /// leased, an idle entry whose last user lies below the latest and
    /// belongs to another workload has no user left to come.
    fn evict(&self, state: &mut MemoState) {
        let settled = state.started == state.latest + 1;
        let all_started = state.started == self.points.len();
        let latest = &self.points[state.latest];
        state.entries.retain(|_, entry| {
            let last = &self.points[entry.last];
            let block_over = settled
                && entry.last < state.latest
                && (last.workload != latest.workload
                    || last.generated != latest.generated
                    || last.trace != latest.trace);
            entry.users > 0 || !(all_started || block_over)
        });
    }

    /// Entries currently held.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.state().entries.len()
    }
}

/// One in-flight point's hold on its memoized baseline.
#[derive(Debug)]
struct BaselineLease<'m, 'a> {
    memo: &'m BaselineMemo<'a>,
    key: [u8; 32],
    slot: BaselineSlot,
    /// Whether this lease created the entry.
    opened: bool,
}

impl BaselineLease<'_, '_> {
    /// The shared baseline, simulated by `simulate` if no point has yet.
    fn get_or_simulate(
        &self,
        simulate: impl FnOnce() -> Result<BaselineReference, CoreError>,
    ) -> Result<BaselineReference, CoreError> {
        self.slot
            .get_or_init(|| {
                self.memo.simulated.fetch_add(1, Ordering::Relaxed);
                simulate()
            })
            .clone()
    }
}

impl Drop for BaselineLease<'_, '_> {
    fn drop(&mut self) {
        let mut state = self.memo.state();
        if let Some(entry) = state.entries.get_mut(&self.key) {
            entry.users -= 1;
        }
        self.memo.evict(&mut state);
    }
}

/// Evaluates one point, converting panics into [`PointOutcome::Panicked`].
///
/// Suite points resolve their workload by name against the evaluated suite;
/// generated points rematerialize theirs from the point's
/// [`GeneratedWorkload`](crate::spec::GeneratedWorkload) identity (an
/// index-stable draw, so the same identity always yields the same kernel);
/// trace points re-read, fingerprint-verify, and lower theirs from the
/// point's [`TraceWorkloadId`](ltrf_trace::TraceWorkloadId) (a missing,
/// edited, or malformed trace file becomes a typed per-point error, not a
/// campaign failure). Everything downstream — the runner, normalization
/// against the baseline at the same SM count, and power reporting — is
/// identical for all three. A normalized point with a `baseline` lease takes
/// its reference from the session's [`BaselineMemo`]; without one it
/// simulates its own, exactly as [`ltrf_core::run_normalized`] does.
fn evaluate_point(
    spec: &SweepSpec,
    point: &SweepPoint,
    suite: &HashMap<&str, Workload>,
    seed: u64,
    baseline: Option<&BaselineLease>,
) -> PointOutcome {
    let traced = match point
        .trace
        .as_ref()
        .map(ltrf_trace::TraceWorkloadId::materialize)
    {
        Some(Ok(workload)) => Some(workload),
        Some(Err(e)) => return PointOutcome::Error(e.to_string()),
        None => None,
    };
    let generated = point.generated.as_ref().map(|g| g.materialize());
    let workload = match (&traced, &generated, suite.get(point.workload.as_str())) {
        (Some(traced), _, _) => traced,
        (None, Some(generated), _) => generated,
        (None, None, Some(suite_workload)) => suite_workload,
        (None, None, None) => {
            return PointOutcome::Error(format!(
                "unknown workload `{}` (not in the evaluated suite)",
                point.workload
            ));
        }
    };
    let memory = point.memory.behavior(workload);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let experiment =
            |config: &ExperimentConfig| run_experiment(&workload.kernel, memory, seed, config);
        if !spec.normalize {
            return experiment(&point.config).map(|r| PointData {
                result: r,
                normalized_ipc: None,
                normalized_power: None,
            });
        }
        let simulate =
            || experiment(&point.config.baseline_config()).map(|b| BaselineReference::of(&b));
        let reference = || match baseline {
            Some(lease) => lease.get_or_simulate(simulate),
            None => simulate(),
        };
        // The point that opened a memo entry simulates the reference first;
        // later points run their own configuration first, so the reference
        // is usually ready when they take it and a second worker seldom
        // idles on one in flight. Either way a reference error takes
        // precedence, as in `run_normalized`.
        let (reference, result) = if baseline.is_none_or(|lease| lease.opened) {
            let reference = reference()?;
            (reference, experiment(&point.config))
        } else {
            let result = experiment(&point.config);
            (reference()?, result)
        };
        result.map(|r| {
            let n = reference.normalize(r);
            PointData {
                result: n.result,
                normalized_ipc: Some(n.normalized_ipc),
                normalized_power: Some(n.normalized_power),
            }
        })
    }));
    match run {
        Ok(Ok(data)) => PointOutcome::Ok(data),
        Ok(Err(core_err)) => PointOutcome::Error(core_err.to_string()),
        Err(payload) => PointOutcome::Panicked(panic_message(payload)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SeedMode;

    /// An empty campaign must report a 0.0 hit rate, not NaN: the vendored
    /// serde stand-in renders floats with `{:?}`, so a NaN flowing into
    /// `CampaignFinished{hit_rate}` would emit a literal `NaN` — invalid
    /// JSON — on the `--progress json` stream.
    #[test]
    fn empty_campaign_hit_rate_is_zero_not_nan() {
        let results = SweepResults {
            name: "empty".to_string(),
            records: Vec::new(),
        };
        let rate = results.cache_hit_rate();
        assert!(rate.is_finite(), "0/0 must not produce NaN");
        assert_eq!(rate, 0.0);

        let event = CampaignEvent::CampaignFinished {
            campaign: "empty".to_string(),
            computed: 0,
            cached: 0,
            restored: 0,
            coalesced: 0,
            failed: 0,
            hit_rate: rate,
        };
        let line = event.to_json_line();
        assert!(
            serde::from_json_str::<Value>(&line).is_ok(),
            "the finished event must stay valid JSON: {line}"
        );
        assert!(!line.contains("NaN"), "no NaN leakage: {line}");
    }

    /// The empty-spec degenerate case end to end: an executed zero-point
    /// campaign yields finite totals. (Built via a struct literal — the
    /// builder rejects empty workload axes by design.)
    #[test]
    fn zero_point_session_reports_finite_totals() {
        let spec = SweepSpec {
            name: "degenerate".to_string(),
            points: Vec::new(),
            seed_mode: SeedMode::Fixed(1),
            normalize: false,
        };
        let options = ExecutorOptions::default();
        let (results, totals) =
            CampaignSession::new(&spec, &options).run_with_sink(&Unobserved, &());
        assert!(results.is_empty());
        assert_eq!(totals.points, 0);
        assert!(totals.hit_rate.is_finite());
        assert_eq!(totals.hit_rate, 0.0);
    }

    /// A 200-member generated population (BL and LTRF per member) streamed
    /// on two threads simulates each member's baseline once, and the memo
    /// holds nothing once the session ends. `run_inner` without retained
    /// records is `run_streaming` with the memo in the test's hands.
    #[test]
    fn baseline_memo_simulates_each_reference_once_and_ends_empty() {
        use crate::campaigns::{gen_campaign_spec, GenCampaignParams};
        use ltrf_workloads::GeneratorConfig;

        let spec = gen_campaign_spec(&GenCampaignParams {
            population: 200,
            config: GeneratorConfig {
                min_regs: 8,
                max_regs: 16,
                max_outer_trips: 1,
                max_inner_trips: 2,
                max_body_alu: 2,
                max_body_loads: 1,
            },
            ..GenCampaignParams::default()
        });
        assert_eq!(spec.points.len(), 400);
        let memo = BaselineMemo::for_spec(&spec).expect("normalized under a fixed seed");
        let options = ExecutorOptions {
            threads: Some(2),
            ..ExecutorOptions::default()
        };
        let (_, totals) =
            CampaignSession::new(&spec, &options).run_inner(&Unobserved, &(), false, Some(&memo));
        assert_eq!(totals.points, 400);
        assert_eq!(totals.failed, 0);
        assert_eq!(memo.simulated.load(Ordering::Relaxed), 200);
        assert_eq!(memo.len(), 0, "no entry outlives the session's points");
    }

    /// Per-point seeds make every baseline distinct, and unnormalized specs
    /// have none: neither gets a memo.
    #[test]
    fn baseline_memo_only_serves_normalized_fixed_seed_specs() {
        let spec = |seed_mode, normalize| SweepSpec {
            name: "memo".to_string(),
            points: Vec::new(),
            seed_mode,
            normalize,
        };
        assert!(BaselineMemo::for_spec(&spec(SeedMode::Fixed(1), true)).is_some());
        assert!(BaselineMemo::for_spec(&spec(SeedMode::PerPoint(1), true)).is_none());
        assert!(BaselineMemo::for_spec(&spec(SeedMode::Fixed(1), false)).is_none());
    }

    /// An empty [`PointMeansAcc`] has no means and counts nothing.
    #[test]
    fn point_means_acc_matches_over_on_empty() {
        assert_eq!(PointMeansAcc::default().finish(), None);
        assert_eq!(PointMeansAcc::default().count(), 0);
    }
}
