//! The traced replay: one point at a time through the public function of
//! each layer, with a span around every call.
//!
//! The replay does what `ltrf_sweep`'s executor does for a point — key,
//! cache lookup, workload materialization, the runner (organization build
//! with its compilation, simulation, power evaluation), normalization
//! against the baseline, cache store, journal and report sinks — but calls
//! each layer itself, so the benchmark can time the layers from its own
//! files without spans inside the program. The layers:
//!
//! | span                   | layer            | public call                          |
//! |------------------------|------------------|--------------------------------------|
//! | `workloads.materialize`| `ltrf-workloads` | `evaluated_suite`, `GeneratedWorkload::materialize` |
//! | `trace.materialize`    | `ltrf-trace`     | `TraceWorkloadId::materialize`       |
//! | `compiler.compile`     | `ltrf-compiler`  | `compile`                            |
//! | `core.org_build`       | `ltrf-core`      | register-file model construction     |
//! | `core.run_experiment`, `core.run_normalized` | `ltrf-core` (+ `ltrf-tech`) | the runner itself |
//! | `sim.single`           | `ltrf-sim`       | `simulate_with`                      |
//! | `sim.gpu.<topology>`   | `ltrf-sim`       | `simulate_gpu_with`                  |
//! | `sweep.point`, `sweep.cache_load`, `sweep.cache_store`, `sweep.report` | `ltrf-sweep` | executor, `ResultCache`, sinks |
//!
//! Any drift between this replay and the program shows as a mismatch
//! between the traced and the untraced run's records, which fails the
//! benchmark's correctness check.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use ltrf_compiler::{compile, CompilerOptions, PrefetchSubgraphKind};
use ltrf_core::{
    CoreError, ExperimentConfig, LtrfParams, LtrfRegisterFile, Organization, RfcRegisterFile,
    RunResult, ShrfRegisterFile,
};
use ltrf_isa::Kernel;
use ltrf_sim::{
    simulate_gpu_with, simulate_with, DirectRegisterFile, EngineKind, GpuStats, IdealRegisterFile,
    MemoryBehavior, RegFileTiming, RegisterFileModel, SimStats, SimWorkload, Topology,
};
use ltrf_sweep::{
    point_key, CampaignJournal, PointData, PointOutcome, PointRecord, RecordSink, ResultCache,
    SweepPoint, SweepSpec,
};
use ltrf_tech::{AccessCounts, RegFilePowerModel};
use ltrf_workloads::Workload;

use crate::spans::Tracer;

/// Exact work counts of one replay, summed over every call of each layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCounts {
    /// Suite builds plus generated-member materializations.
    pub workload_materializations: u64,
    /// Trace files read, fingerprinted, parsed and lowered.
    pub trace_materializations: u64,
    /// Compiler invocations.
    pub compiles: u64,
    /// Register intervals (prefetch subgraphs) formed, over all compiles.
    pub intervals: u64,
    /// Organization (model fleet) builds.
    pub org_builds: u64,
    /// Baseline reference simulations run for normalization.
    pub baseline_sims: u64,
    /// Baseline simulations that repeat an earlier (kernel, memory, seed,
    /// SM count, power calibration) tuple of the same replay.
    pub baseline_repeats: u64,
    /// Single-SM simulations.
    pub single_sims: u64,
    /// Multi-SM simulations.
    pub gpu_sims: u64,
    /// Warp-instructions of the single-SM simulations.
    pub single_warp_insts: u64,
    /// Simulated cycles × SM count of the multi-SM simulations.
    pub gpu_sm_cycles: u64,
    /// Warp-instructions over every simulation, baselines included.
    pub warp_insts: u64,
    /// Simulated cycles × SM count over every simulation.
    pub sm_cycles: u64,
    /// Modelled cycles with no issue, over every simulation.
    pub idle_cycles: u64,
    /// Modelled cycles warps stalled on PREFETCH, over every simulation.
    pub prefetch_stall_cycles: u64,
    /// Modelled L2 hits.
    pub l2_hits: u64,
    /// Modelled L2 misses.
    pub l2_misses: u64,
    /// Modelled cycles requests queued behind busy L2 slices.
    pub l2_queue_wait_cycles: u64,
    /// Modelled interconnect messages.
    pub noc_messages: u64,
    /// Modelled interconnect latency summed over messages.
    pub noc_total_latency: u64,
    /// Simulations that hit the safety cycle cap.
    pub truncated_runs: u64,
    /// Result-cache lookups.
    pub cache_loads: u64,
    /// Result-cache lookups that hit.
    pub cache_hits: u64,
    /// Result-cache stores.
    pub cache_stores: u64,
}

/// Calls each layer through its public API inside a span, counting the
/// work each call did.
#[derive(Debug)]
pub struct LayerReplay<'a> {
    tracer: &'a Tracer,
    counts: Mutex<LayerCounts>,
    baselines_seen: Mutex<HashSet<String>>,
}

/// What one spec's replay shares across its points.
pub(crate) struct SpecContext<'a> {
    /// The spec being replayed.
    pub(crate) spec: &'a SweepSpec,
    /// The evaluated suite by name, built once per spec like the executor.
    pub(crate) suite: &'a HashMap<&'static str, Workload>,
    /// The result cache.
    pub(crate) cache: &'a ResultCache,
    /// The checkpoint journal, when the workload keeps one.
    pub(crate) journal: Option<&'a CampaignJournal>,
    /// The report sinks each record is pushed into.
    pub(crate) sink: &'a dyn RecordSink,
}

impl<'a> LayerReplay<'a> {
    /// A replay recording its spans into `tracer`.
    #[must_use]
    pub fn new(tracer: &'a Tracer) -> Self {
        LayerReplay {
            tracer,
            counts: Mutex::new(LayerCounts::default()),
            baselines_seen: Mutex::new(HashSet::new()),
        }
    }

    /// The tracer this replay records into.
    #[must_use]
    pub fn tracer(&self) -> &'a Tracer {
        self.tracer
    }

    /// The work counted so far.
    #[must_use]
    pub fn counts(&self) -> LayerCounts {
        *self.counts.lock().expect("counter lock poisoned")
    }

    fn count(&self, f: impl FnOnce(&mut LayerCounts)) {
        f(&mut self.counts.lock().expect("counter lock poisoned"));
    }

    /// Builds the evaluated suite by name, as the executor does once per
    /// campaign.
    #[must_use]
    pub(crate) fn suite(&self) -> HashMap<&'static str, Workload> {
        self.count(|c| c.workload_materializations += 1);
        self.tracer.span("workloads.materialize", || {
            ltrf_workloads::evaluated_suite()
                .into_iter()
                .map(|w| (w.name(), w))
                .collect()
        })
    }

    /// Resolves one point as the executor would — cache lookup, evaluation
    /// on a miss, cache store, journal — and pushes its record into the
    /// context's sink.
    pub(crate) fn replay_point(
        &self,
        ctx: &SpecContext,
        index: usize,
        point: &SweepPoint,
    ) -> PointRecord {
        self.tracer.span("sweep.point", || {
            let key = point_key(ctx.spec, point);
            self.tracer.tag_point(&key.digest_hex);
            let cached = self
                .tracer
                .span("sweep.cache_load", || ctx.cache.load::<PointOutcome>(&key));
            let from_cache = cached.is_some();
            self.count(|c| {
                c.cache_loads += 1;
                c.cache_hits += u64::from(from_cache);
            });
            let outcome = match cached {
                Some(outcome) => outcome,
                None => {
                    let outcome = self.evaluate_point(ctx, point, key.seed);
                    if let PointOutcome::Ok(_) = &outcome {
                        journal(ctx.journal, &key.digest_hex, key.seed, false);
                        self.count(|c| c.cache_stores += 1);
                        self.tracer.span("sweep.cache_store", || {
                            if let Err(e) = ctx.cache.store(&key, &outcome) {
                                eprintln!("perfbench: failed to store {}: {e}", key.digest_hex);
                            }
                        });
                    }
                    outcome
                }
            };
            if from_cache && !outcome.is_failure() {
                journal(ctx.journal, &key.digest_hex, key.seed, true);
            }
            let record = PointRecord {
                point: point.clone(),
                digest_hex: key.digest_hex,
                seed: key.seed,
                outcome,
                from_cache,
            };
            self.tracer
                .span("sweep.report", || ctx.sink.on_record(index, &record));
            record
        })
    }

    /// Evaluates one point: materializes its workload, then runs it
    /// (normalized against the baseline when the spec asks for it).
    fn evaluate_point(&self, ctx: &SpecContext, point: &SweepPoint, seed: u64) -> PointOutcome {
        let traced = match &point.trace {
            Some(id) => {
                self.count(|c| c.trace_materializations += 1);
                match self.tracer.span("trace.materialize", || id.materialize()) {
                    Ok(workload) => Some(workload),
                    Err(e) => return PointOutcome::Error(e.to_string()),
                }
            }
            None => None,
        };
        let generated = point.generated.as_ref().map(|g| {
            self.count(|c| c.workload_materializations += 1);
            self.tracer
                .span("workloads.materialize", || g.materialize())
        });
        let workload = match (&traced, &generated, ctx.suite.get(point.workload.as_str())) {
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
            if ctx.spec.normalize {
                self.run_normalized(point, &workload.kernel, memory, seed, &point.config)
            } else {
                self.run_experiment(&workload.kernel, memory, seed, &point.config)
                    .map(|result| PointData {
                        result,
                        normalized_ipc: None,
                        normalized_power: None,
                    })
            }
        }));
        match run {
            Ok(Ok(data)) => PointOutcome::Ok(data),
            Ok(Err(e)) => PointOutcome::Error(e.to_string()),
            Err(payload) => PointOutcome::Panicked(panic_message(payload.as_ref())),
        }
    }

    /// `ltrf_core::run_normalized` through the replayed runner: the baseline
    /// reference at the same SM count and power calibration, then the
    /// experiment.
    fn run_normalized(
        &self,
        point: &SweepPoint,
        kernel: &Kernel,
        memory: MemoryBehavior,
        seed: u64,
        config: &ExperimentConfig,
    ) -> Result<PointData, CoreError> {
        let sm_count = config.sm_count.max(1);
        let tuple = format!(
            "{}|{}|{}|{memory:?}|{seed}|{sm_count}|{:?}",
            point.workload,
            serde::to_json_string(&point.generated),
            serde::to_json_string(&point.trace),
            config.power
        );
        let repeat = !self
            .baselines_seen
            .lock()
            .expect("baseline set poisoned")
            .insert(tuple);
        self.count(|c| {
            c.baseline_sims += 1;
            c.baseline_repeats += u64::from(repeat);
        });
        self.tracer.span("core.run_normalized", || {
            let baseline = self.run_experiment(
                kernel,
                memory,
                seed,
                &ExperimentConfig::new(Organization::Baseline)
                    .with_sm_count(sm_count)
                    .with_power_params(config.power),
            )?;
            let result = self.run_experiment(kernel, memory, seed, config)?;
            let normalized_ipc = if baseline.ipc > 0.0 {
                result.ipc / baseline.ipc
            } else {
                0.0
            };
            let normalized_power = if baseline.power.average_power_mw > 0.0 {
                result.power.average_power_mw / baseline.power.average_power_mw
            } else {
                0.0
            };
            Ok(PointData {
                result,
                normalized_ipc: Some(normalized_ipc),
                normalized_power: Some(normalized_power),
            })
        })
    }

    /// `ltrf_core::run_experiment` through the public calls of each layer:
    /// organization build (with its compilation), then the single-SM or the
    /// whole-GPU simulator, then the power model.
    ///
    /// # Errors
    ///
    /// Propagates compiler failures, like the runner.
    pub fn run_experiment(
        &self,
        kernel: &Kernel,
        memory: MemoryBehavior,
        seed: u64,
        config: &ExperimentConfig,
    ) -> Result<RunResult, CoreError> {
        self.tracer.span("core.run_experiment", || {
            let sm = config.sm_config();
            let sm_count = config.sm_count.max(1);
            if sm_count == 1 {
                let (executed, mut models) = self.build_fleet(config, kernel, sm.regfile, 1)?;
                let workload = SimWorkload::new(executed)
                    .with_memory(memory)
                    .with_seed(seed);
                let model = models.first_mut().expect("fleet of one");
                let stats = self.tracer.span("sim.single", || {
                    simulate_with(&workload, &sm, model.as_mut(), EngineKind::default())
                });
                self.count(|c| {
                    c.single_sims += 1;
                    c.single_warp_insts += stats.instructions;
                    add_sim(c, &stats, stats.cycles);
                });
                Ok(finish_run(stats, None, config))
            } else {
                let scaled = kernel.with_grid_scaled(u32::try_from(sm_count).unwrap_or(u32::MAX));
                let scaled_memory = MemoryBehavior {
                    footprint_bytes: memory.footprint_bytes.saturating_mul(sm_count as u64),
                    ..memory
                };
                let (executed, mut models) =
                    self.build_fleet(config, &scaled, sm.regfile, sm_count)?;
                let workload = SimWorkload::new(executed)
                    .with_memory(scaled_memory)
                    .with_seed(seed);
                let gpu = config.gpu_config();
                let span = match config.interconnect.topology {
                    Topology::Ideal => "sim.gpu.ideal",
                    Topology::Crossbar => "sim.gpu.crossbar",
                    Topology::Mesh2D => "sim.gpu.mesh",
                };
                let gpu_stats = self.tracer.span(span, || {
                    simulate_gpu_with(&workload, &gpu, &mut models, EngineKind::default())
                });
                let aggregate = gpu_stats.aggregate();
                self.count(|c| {
                    let sm_cycles = gpu_stats.cycles * sm_count as u64;
                    c.gpu_sims += 1;
                    c.gpu_sm_cycles += sm_cycles;
                    add_sim(c, &aggregate, sm_cycles);
                    c.noc_messages += gpu_stats.noc.messages;
                    c.noc_total_latency += gpu_stats.noc.total_latency;
                });
                Ok(finish_run(aggregate, Some(gpu_stats), config))
            }
        })
    }

    /// `ltrf_core::build_organization_fleet`: one compilation (for the
    /// organizations that need it) and `count` fresh register-file models.
    fn build_fleet(
        &self,
        config: &ExperimentConfig,
        kernel: &Kernel,
        timing: RegFileTiming,
        count: usize,
    ) -> Result<(Kernel, Vec<Box<dyn RegisterFileModel>>), CoreError> {
        self.count(|c| c.org_builds += 1);
        self.tracer.span("core.org_build", || {
            let organization = config.organization;
            let params = LtrfParams {
                registers_per_interval: config.registers_per_interval,
                active_warps: config.active_warps,
                liveness_aware: organization == Organization::LtrfPlus,
            };
            let options = match organization {
                Organization::Shrf | Organization::LtrfStrand => Some(CompilerOptions {
                    max_registers_per_interval: params.registers_per_interval,
                    subgraph_kind: PrefetchSubgraphKind::Strand,
                    reduce_intervals: false,
                    annotate_liveness: true,
                }),
                Organization::Ltrf | Organization::LtrfPlus => Some(
                    CompilerOptions::default().with_max_registers(params.registers_per_interval),
                ),
                Organization::Baseline | Organization::Ideal | Organization::Rfc => None,
            };
            let compiled = match options {
                Some(options) => {
                    let compiled = self
                        .tracer
                        .span("compiler.compile", || compile(kernel, &options))?;
                    self.count(|c| {
                        c.compiles += 1;
                        c.intervals += compiled.stats.interval_count as u64;
                    });
                    Some(compiled)
                }
                None => None,
            };
            let executed = compiled
                .as_ref()
                .map_or_else(|| kernel.clone(), |c| c.kernel.clone());
            let models = (0..count.max(1))
                .map(|_| -> Box<dyn RegisterFileModel> {
                    match organization {
                        Organization::Baseline => Box::new(DirectRegisterFile::new(timing)),
                        Organization::Ideal => Box::new(IdealRegisterFile::new(timing)),
                        Organization::Rfc => {
                            Box::new(RfcRegisterFile::new(timing, config.rfc_entries_per_warp))
                        }
                        Organization::Shrf => Box::new(ShrfRegisterFile::new(
                            compiled.clone().expect("SHRF compiles"),
                            timing,
                        )),
                        Organization::Ltrf | Organization::LtrfPlus => {
                            Box::new(LtrfRegisterFile::new(
                                compiled.clone().expect("LTRF compiles"),
                                timing,
                                params,
                            ))
                        }
                        Organization::LtrfStrand => Box::new(
                            LtrfRegisterFile::new(
                                compiled.clone().expect("strands compile"),
                                timing,
                                LtrfParams {
                                    liveness_aware: false,
                                    ..params
                                },
                            )
                            .with_name("LTRF (strand)"),
                        ),
                    }
                })
                .collect();
            Ok((executed, models))
        })
    }
}

/// A panic payload as text, as the executor records it.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Adds one simulation's modelled-hardware statistics to the counts.
fn add_sim(c: &mut LayerCounts, stats: &SimStats, sm_cycles: u64) {
    c.warp_insts += stats.instructions;
    c.sm_cycles += sm_cycles;
    c.idle_cycles += stats.idle_cycles;
    c.prefetch_stall_cycles += stats.prefetch_stall_cycles;
    c.l2_hits += stats.memory.llc.hits;
    c.l2_misses += stats.memory.llc.misses;
    c.l2_queue_wait_cycles += stats.memory.l2_queue_wait_cycles;
    c.truncated_runs += u64::from(stats.truncated);
}

/// Appends a completed point to the journal, reporting (not failing on)
/// an I/O error, as the executor does.
fn journal(journal: Option<&CampaignJournal>, digest_hex: &str, seed: u64, from_cache: bool) {
    if let Some(journal) = journal {
        if let Err(e) = journal.record(digest_hex, seed, from_cache) {
            eprintln!("perfbench: failed to journal {digest_hex}: {e}");
        }
    }
}

/// The runner's result assembly: IPC, the per-SM power evaluation of the
/// `ltrf-tech` model, and the cache-hit provenance.
fn finish_run(stats: SimStats, gpu: Option<GpuStats>, config: &ExperimentConfig) -> RunResult {
    let sm = config.sm_config();
    let sm_count = config.sm_count.max(1) as u64;
    let rfc_kib = if matches!(
        config.organization,
        Organization::Baseline | Organization::Ideal
    ) {
        0.0
    } else {
        sm.regfile_cache_bytes as f64 / 1024.0
    };
    let model = RegFilePowerModel::for_config_with(
        &config.mrf_config,
        rfc_kib,
        sm.core_clock_mhz,
        &config.power,
    );
    let accesses = &stats.regfile_accesses;
    let power = model.evaluate(&AccessCounts {
        mrf_reads: accesses.mrf_reads / sm_count,
        mrf_writes: accesses.mrf_writes / sm_count,
        rfc_reads: accesses.rfc_reads / sm_count,
        rfc_writes: accesses.rfc_writes / sm_count,
        wcb_accesses: accesses.wcb_accesses / sm_count,
        cycles: accesses.cycles,
    });
    RunResult {
        organization: config.organization,
        ipc: stats.ipc(),
        cache_hit_rate: stats.register_cache_hit_rate,
        stats,
        gpu,
        power,
    }
}
