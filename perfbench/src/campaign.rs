//! The benchmark's workloads and one cold pass over each.
//!
//! A pass builds the workload's specs through the campaign registry, opens a
//! fresh private cache (prefilled for `population-incremental`), runs every
//! spec and writes its reports as the `sweep` CLI does: a streaming CSV and
//! running aggregates for every spec, plus the JSON report and checkpoint
//! journal for the retained-record workloads. An untraced pass runs the
//! executor itself; a traced pass replays every point through
//! [`LayerReplay`] instead.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ltrf_sim::{GpuStats, SimStats, Topology};
use ltrf_sweep::report::{self, CsvSchema};
use ltrf_sweep::{
    registry, AggregateSink, CampaignEvent, CampaignJournal, CampaignObserver, CampaignParams,
    CampaignSession, ExecutorOptions, FanoutSink, PointRecord, RecordSink, ResultCache, SeedMode,
    StreamingCsvWriter, SweepResults, SweepSpec, Unobserved,
};

use crate::replay::{LayerReplay, SpecContext};

/// Members of the `population-incremental` population (× BL/LTRF points).
const POPULATION: usize = 5_000;
/// Members prefilled into the cache during set-up: a quarter of the
/// population, so hits stay well away from half of the timed points.
const PREFILL: usize = 1_250;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every `repro --quick` spec plus the trace campaign over the
    /// checked-in example traces: single-SM, compile- and simulate-heavy.
    PaperQuick,
    /// The `interconnect --quick` campaign over the ideal, crossbar and
    /// mesh topologies at 1/4/16 SMs: the lock-step multi-SM simulation loop,
    /// shared memory hierarchy and interconnect.
    GpuContention,
    /// A 10k-point generated population, streamed, against a cache
    /// prefilled with its first quarter: per-point overhead, cache reads
    /// interleaved with computes and writes.
    PopulationIncremental,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperQuick,
        Workload::GpuContention,
        Workload::PopulationIncremental,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperQuick => "paper-quick",
            Workload::GpuContention => "gpu-contention",
            Workload::PopulationIncremental => "population-incremental",
        }
    }

    /// The workload named `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the retained-record path the CLI uses
    /// (JSON report and checkpoint journal) rather than the bounded-memory
    /// streaming path.
    fn retains_records(self) -> bool {
        self != Workload::PopulationIncremental
    }
}

/// The specs one pass runs, and the set-up prefill, if any.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    /// The specs, run in order.
    specs: Vec<SweepSpec>,
    /// A spec whose points are stored into the cache before timing starts.
    prefill: Option<SweepSpec>,
}

impl Plan {
    /// Total points over the timed specs.
    #[must_use]
    fn points(&self) -> usize {
        self.specs.iter().map(|s| s.points.len()).sum()
    }
}

/// Resolves registry campaign `name` under `params`.
fn registry_specs(name: &str, params: &CampaignParams) -> Result<Vec<SweepSpec>, String> {
    registry()
        .find(name)
        .ok_or_else(|| format!("campaign `{name}` is not registered"))?
        .specs(params)
}

/// The generated population of `population-incremental` with `members`
/// members, drawn from `seed`, under the tight generator bounds of the
/// streaming slice of `bench_sweep`.
fn population(members: usize, seed: u64) -> Result<Vec<SweepSpec>, String> {
    registry_specs(
        "gen-campaign",
        &CampaignParams {
            population: Some(members),
            population_seed: Some(seed),
            min_regs: Some(8),
            max_regs: Some(16),
            max_outer_trips: Some(1),
            max_inner_trips: Some(2),
            max_body_alu: Some(2),
            max_body_loads: Some(1),
            ..CampaignParams::default()
        },
    )
}

/// Builds the workload's specs with every point seeded from `seed`.
///
/// # Errors
///
/// Returns the registry's complaint (for example an unreadable example
/// trace).
pub(crate) fn plan(workload: Workload, seed: u64) -> Result<Plan, String> {
    let quick = CampaignParams {
        quick: true,
        ..CampaignParams::default()
    };
    let (mut specs, mut prefill) = match workload {
        Workload::PaperQuick => {
            let mut specs = registry_specs("repro", &quick)?;
            specs.extend(registry_specs(
                "trace-campaign",
                &CampaignParams::default(),
            )?);
            (specs, None)
        }
        Workload::GpuContention => {
            let mut specs = registry_specs("interconnect", &quick)?;
            specs.extend(registry_specs(
                "interconnect",
                &CampaignParams {
                    topology: Some(Topology::Mesh2D),
                    ..quick
                },
            )?);
            (specs, None)
        }
        Workload::PopulationIncremental => {
            let prefill = population(PREFILL, seed)?.pop();
            (population(POPULATION, seed)?, prefill)
        }
    };
    for spec in specs.iter_mut().chain(prefill.iter_mut()) {
        spec.seed_mode = SeedMode::Fixed(seed);
    }
    Ok(Plan { specs, prefill })
}

/// What a pass delivered for one point.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivered {
    /// Whether the point succeeded.
    pub ok: bool,
    /// Whether it was served from the cache.
    pub from_cache: bool,
    /// SMs the point simulated.
    pub sm_count: u64,
    /// The point's (whole-GPU aggregate) statistics.
    pub stats: SimStats,
    /// Per-SM and shared-memory statistics of a multi-SM point.
    pub gpu: Option<GpuStats>,
}

impl Delivered {
    fn of(record: &PointRecord) -> Self {
        let data = record.outcome.data();
        Delivered {
            ok: data.is_some(),
            from_cache: record.from_cache,
            sm_count: record.point.config.sm_count.max(1) as u64,
            stats: data.map(|d| d.result.stats).unwrap_or_default(),
            gpu: data.and_then(|d| d.result.gpu.clone()),
        }
    }

    /// Whether the simulation hit the safety cycle cap.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.stats.truncated || self.gpu.as_ref().is_some_and(|g| g.truncated)
    }
}

/// Host-time bookkeeping of one pass's points, indexed over all its specs.
struct PointClock {
    base: Instant,
    first_start_ns: AtomicU64,
    starts: Vec<AtomicU64>,
    durations: Vec<AtomicU64>,
}

impl PointClock {
    fn new(base: Instant, points: usize) -> Self {
        PointClock {
            base,
            first_start_ns: AtomicU64::new(u64::MAX),
            starts: (0..points).map(|_| AtomicU64::new(0)).collect(),
            durations: (0..points).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    // Relaxed: these are statistics, read only after the workers are joined.
    fn start(&self, index: usize) {
        let now = self.now_ns();
        self.first_start_ns.fetch_min(now, Ordering::Relaxed);
        self.starts[index].store(now, Ordering::Relaxed);
    }

    fn finish(&self, index: usize) {
        let elapsed = self.now_ns() - self.starts[index].load(Ordering::Relaxed);
        self.durations[index].store(elapsed, Ordering::Relaxed);
    }
}

/// The executor observer timing one spec's points into the pass clock.
struct SpecClock<'a> {
    clock: &'a PointClock,
    offset: usize,
}

impl CampaignObserver for SpecClock<'_> {
    fn on_event(&self, event: &CampaignEvent) {
        match event {
            CampaignEvent::PointStarted { index, .. } => self.clock.start(self.offset + index),
            CampaignEvent::PointFinished { index, .. }
            | CampaignEvent::PointFailed { index, .. } => {
                self.clock.finish(self.offset + index);
            }
            _ => {}
        }
    }
}

/// Keeps what each point delivered, by index over the pass's specs.
struct Collector<'a> {
    slots: &'a Mutex<Vec<Option<Delivered>>>,
    offset: usize,
}

impl RecordSink for Collector<'_> {
    fn on_record(&self, index: usize, record: &PointRecord) {
        self.slots.lock().expect("collector poisoned")[self.offset + index] =
            Some(Delivered::of(record));
    }
}

/// One cold pass over a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds from the pass's start until its first point started.
    pub setup_s: f64,
    /// Host seconds from the first point's start until the last report was
    /// flushed.
    pub wall_s: f64,
    /// Host milliseconds each point took, start to finish, in plan order.
    pub point_ms: Vec<f64>,
    /// What each point delivered, in plan order.
    pub delivered: Vec<Delivered>,
    /// The CSV report of each spec: (spec name, file).
    pub csv: Vec<(String, PathBuf)>,
    /// Bytes the result cache holds at the end of the pass.
    pub cache_bytes: u64,
}

impl Pass {
    /// Points that failed or were truncated.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.delivered
            .iter()
            .filter(|d| !d.ok || d.truncated())
            .count()
    }

    /// Σ point host time / (wall × threads): how busy the workers were.
    #[must_use]
    pub fn busy_fraction(&self, threads: usize) -> f64 {
        let busy_s: f64 = self.point_ms.iter().sum::<f64>() / 1e3;
        crate::stats::ratio(busy_s, self.wall_s * threads as f64)
    }
}

/// Runs one cold pass of `workload` in the fresh directory `dir` (cache,
/// reports and journals go below it) on `threads` workers. With `replay`,
/// the points are replayed layer by layer with spans; without, the
/// executor runs them untraced.
///
/// # Errors
///
/// Returns a message for an I/O failure writing reports or a spec the
/// registry rejects.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    threads: usize,
    dir: &Path,
    replay: Option<&LayerReplay>,
) -> Result<Pass, String> {
    pass(workload, seed, threads, dir, replay, false)
}

/// Repeats the set-up of an untraced pass alone, in the fresh directory
/// `dir`: the same steps up to the first point's start, after which the
/// executor's cancellation flag drains the first spec's points unevaluated.
/// Returns the set-up time in host seconds.
///
/// # Errors
///
/// As [`run_pass`].
pub fn setup_probe(
    workload: Workload,
    seed: u64,
    threads: usize,
    dir: &Path,
) -> Result<f64, String> {
    pass(workload, seed, threads, dir, None, true).map(|p| p.setup_s)
}

fn pass(
    workload: Workload,
    seed: u64,
    threads: usize,
    dir: &Path,
    replay: Option<&LayerReplay>,
    setup_only: bool,
) -> Result<Pass, String> {
    let start = Instant::now();
    let mut plan = span(replay, "sweep.spec_build", || plan(workload, seed))?;
    if setup_only {
        plan.specs.truncate(1);
    }

    let cache_dir = dir.join("cache");
    let out_dir = dir.join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let threads_opt = Some(threads);
    if let Some(prefill) = &plan.prefill {
        let options = ExecutorOptions {
            threads: threads_opt,
            cache_dir: Some(cache_dir.clone()),
            ..ExecutorOptions::default()
        };
        let totals = CampaignSession::new(prefill, &options).run_streaming(&Unobserved, &());
        if totals.failed > 0 {
            return Err(format!("{} prefill points failed", totals.failed));
        }
    }

    let points = plan.points();
    let clock = PointClock::new(start, points);
    let slots = Mutex::new(vec![None; points]);
    let mut csv_files = Vec::with_capacity(plan.specs.len());
    let mut offset = 0;
    for spec in &plan.specs {
        let csv_path = out_dir.join(format!("{}.csv", spec.name));
        let journal_path = out_dir.join(format!("{}.journal", spec.name));
        let csv = StreamingCsvWriter::create_with_schema(&csv_path, CsvSchema::for_spec(spec))
            .map_err(|e| format!("creating {}: {e}", csv_path.display()))?;
        let agg = AggregateSink::new();
        let sinks: [&dyn RecordSink; 2] = [&csv, &agg];
        let reports = FanoutSink(&sinks);
        let collector = Collector {
            slots: &slots,
            offset,
        };
        let journal_path = workload.retains_records().then_some(journal_path);

        let retained = match replay {
            None => {
                let options = ExecutorOptions {
                    threads: threads_opt,
                    cache_dir: Some(cache_dir.clone()),
                    journal_path: journal_path.clone(),
                    cancel: setup_only.then(|| Arc::new(AtomicBool::new(true))),
                    ..ExecutorOptions::default()
                };
                let session = CampaignSession::new(spec, &options);
                let observer = SpecClock {
                    clock: &clock,
                    offset,
                };
                let both: [&dyn RecordSink; 2] = [&reports, &collector];
                if workload.retains_records() {
                    Some(session.run_with_sink(&observer, &FanoutSink(&both)).0)
                } else {
                    session.run_streaming(&observer, &FanoutSink(&both));
                    None
                }
            }
            Some(replay) => {
                let records = replay_spec(
                    replay,
                    spec,
                    &cache_dir,
                    journal_path.as_deref(),
                    &reports,
                    threads,
                    |index, record| {
                        clock.finish(offset + index);
                        collector.on_record(index, record);
                    },
                    |index| clock.start(offset + index),
                )?;
                workload.retains_records().then(|| SweepResults {
                    name: spec.name.clone(),
                    records,
                })
            }
        };

        span(replay, "sweep.report", || {
            finish_reports(csv, &csv_path, agg, retained.as_ref(), &out_dir)
        })?;
        if let Some(journal_path) = &journal_path {
            // The campaign completed: its checkpoint has served its purpose.
            let _ = std::fs::remove_file(journal_path);
        }
        csv_files.push((spec.name.clone(), csv_path));
        offset += spec.points.len();
    }
    let end_ns = clock.now_ns();
    let first_ns = clock.first_start_ns.load(Ordering::Relaxed).min(end_ns);
    let delivered = slots
        .into_inner()
        .expect("collector poisoned")
        .into_iter()
        .enumerate()
        .map(|(i, d)| d.ok_or_else(|| format!("point {i} delivered no record")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Pass {
        setup_s: first_ns as f64 * 1e-9,
        wall_s: (end_ns - first_ns) as f64 * 1e-9,
        point_ms: clock
            .durations
            .iter()
            .map(|d| d.load(Ordering::Relaxed) as f64 * 1e-6)
            .collect(),
        delivered,
        csv: csv_files,
        cache_bytes: dir_bytes(&cache_dir),
    })
}

/// Runs `f` inside a span of the replay's tracer, or plainly when untraced.
fn span<R>(replay: Option<&LayerReplay>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match replay {
        Some(replay) => replay.tracer().span(name, f),
        None => f(),
    }
}

/// Replays one spec's points on `threads` workers through `replay`, with a
/// cache opened and a suite built per spec as the executor does.
#[allow(clippy::too_many_arguments)]
fn replay_spec(
    replay: &LayerReplay,
    spec: &SweepSpec,
    cache_dir: &Path,
    journal_path: Option<&Path>,
    reports: &dyn RecordSink,
    threads: usize,
    on_done: impl Fn(usize, &PointRecord) + Sync,
    on_start: impl Fn(usize) + Sync,
) -> Result<Vec<PointRecord>, String> {
    let cache = replay.tracer().span("sweep.cache_open", || {
        ResultCache::open(cache_dir).map_err(|e| format!("cache {}: {e}", cache_dir.display()))
    })?;
    let journal = journal_path
        .map(|path| {
            CampaignJournal::create(path, &spec.name)
                .map_err(|e| format!("journal {}: {e}", path.display()))
        })
        .transpose()?;
    let suite = replay.suite();
    let ctx = SpecContext {
        spec,
        suite: &suite,
        cache: &cache,
        journal: journal.as_ref(),
        sink: reports,
    };
    ltrf_sweep::parallel_map(&spec.points, Some(threads), |index, point| {
        on_start(index);
        let record = replay.replay_point(&ctx, index, point);
        on_done(index, &record);
        record
    })
    .into_iter()
    .collect()
}

/// Flushes one spec's reports: the streamed CSV, the aggregates, and the
/// JSON report of a retained-record run.
fn finish_reports(
    csv: StreamingCsvWriter,
    csv_path: &Path,
    agg: AggregateSink,
    retained: Option<&SweepResults>,
    out_dir: &Path,
) -> Result<(), String> {
    csv.finish()
        .map_err(|e| format!("writing {}: {e}", csv_path.display()))?;
    let _aggregates = agg.finish();
    if let Some(results) = retained {
        let json_path = out_dir.join(format!("{}.json", results.name));
        report::write_json(results, &json_path)
            .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    }
    Ok(())
}

/// Total bytes of the regular files below `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&entry.path()),
            Ok(_) => entry.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}
