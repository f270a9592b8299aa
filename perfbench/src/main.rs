//! The benchmark command.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-quick|gpu-contention|population-incremental> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--record-fingerprint]
//! ```
//!
//! Run from the repository root. It repeats cold passes of the workload for
//! `--seconds` host seconds (at least [`MIN_PASSES`]), checks the outputs,
//! and prints a summary followed, as the last line of standard output, by
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced; with
//! `--trace 1` each untraced pass is followed by a traced replay, and the
//! metrics are the per-layer ones. `--record-fingerprint` (with `--trace
//! 1`) stores the run's exact fingerprint in `perfbench/fingerprints.json`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::Value;

use perfbench::campaign::{run_pass, setup_probe, Delivered, Pass, Workload};
use perfbench::check::{self, Fingerprint, DEFAULT_SEED, FINGERPRINTS};
use perfbench::replay::{LayerCounts, LayerReplay};
use perfbench::spans::{self_seconds_by_name, Tracer};
use perfbench::stats::{median, rate, ratio, tail};

/// Untraced passes a run makes however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// After the passes, set-up alone is repeated for this many host seconds
/// (and at most up to [`MAX_SETUP_SAMPLES`] samples), so `setup_s` is the
/// median of many samples even where set-up takes well under a millisecond.
const SETUP_PROBE_SECONDS: f64 = 2.0;
const MAX_SETUP_SAMPLES: usize = 101;
/// Where passes keep their caches and reports, and traced runs their spans.
const SCRATCH: &str = ".perfbench";
/// The committed golden CSVs, relative to the repository root.
const GOLDEN_DIR: &str = "crates/sweep/tests/golden";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut record = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--record-fingerprint" => record = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if record && !trace {
        return Err("--record-fingerprint needs --trace 1 (it records layer counts)".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        record,
    })
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What the timed passes of one run measured, pass by pass.
#[derive(Default)]
struct Timings {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    total_s: Vec<f64>,
    warp_inst_per_s: Vec<f64>,
    sm_cycles_per_s: Vec<f64>,
    busy_frac: Vec<f64>,
    point_p50_ms: Vec<f64>,
    point_tail_ms: Vec<f64>,
    tail_percentile: f64,
    points_per_pass: usize,
}

impl Timings {
    fn push(&mut self, pass: &Pass, threads: usize) {
        let (warp_insts, sm_cycles) = check::delivered_work(&pass.delivered);
        self.setup_s.push(pass.setup_s);
        self.wall_s.push(pass.wall_s);
        self.total_s.push(pass.setup_s + pass.wall_s);
        self.warp_inst_per_s.push(rate(warp_insts, pass.wall_s));
        self.sm_cycles_per_s.push(rate(sm_cycles, pass.wall_s));
        self.busy_frac.push(pass.busy_fraction(threads));
        let (tail_percentile, tail_ms) = tail(&pass.point_ms).unwrap_or_default();
        self.point_p50_ms.push(med(&pass.point_ms));
        self.point_tail_ms.push(tail_ms);
        self.tail_percentile = tail_percentile;
        self.points_per_pass = pass.point_ms.len();
    }
}

fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// The peak resident memory of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The end-to-end metrics of the untraced passes.
fn end_to_end(timings: &Timings, peak_rss_mib: f64) -> (Vec<Metric>, String) {
    let note = format!(
        "point_tail_ms is the median over {} passes of each pass's p{:.2} ({} points per pass)",
        timings.point_tail_ms.len(),
        timings.tail_percentile,
        timings.points_per_pass
    );
    let metrics = vec![
        ("setup_s", med(&timings.setup_s), "s"),
        ("wall_s", med(&timings.wall_s), "s"),
        ("warp_inst_per_s", med(&timings.warp_inst_per_s), "inst/s"),
        ("sm_cycles_per_s", med(&timings.sm_cycles_per_s), "cycles/s"),
        ("point_p50_ms", med(&timings.point_p50_ms), "ms"),
        ("point_tail_ms", med(&timings.point_tail_ms), "ms"),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
    ];
    (metrics, note)
}

/// One traced pass's layer measurements.
struct TracedPass {
    self_s: BTreeMap<&'static str, f64>,
    counts: LayerCounts,
    cache_bytes: u64,
}

/// The per-layer metrics: layer self times are medians over the traced
/// passes; counts are exact (and checked identical across passes).
fn per_layer(traced: &[TracedPass], untraced: &Timings, traced_totals: &[f64]) -> Vec<Metric> {
    let time = |names: &[&str]| {
        let per_pass: Vec<f64> = traced
            .iter()
            .map(|t| {
                names
                    .iter()
                    .filter_map(|n| t.self_s.get(n))
                    .fold(0.0, |a, b| a + b)
            })
            .collect();
        med(&per_pass)
    };
    let c = traced.first().map(|t| t.counts).unwrap_or_default();
    let n = |v: u64| v as f64;
    let gpu_s = time(&["sim.gpu.ideal", "sim.gpu.crossbar", "sim.gpu.mesh"]);
    let single_s = time(&["sim.single"]);
    let bytes: Vec<f64> = traced.iter().map(|t| t.cache_bytes as f64).collect();
    vec![
        (
            "workloads.materialize_s",
            time(&["workloads.materialize"]),
            "s",
        ),
        (
            "workloads.materialize_calls",
            n(c.workload_materializations),
            "count",
        ),
        ("trace.materialize_s", time(&["trace.materialize"]), "s"),
        (
            "trace.materialize_calls",
            n(c.trace_materializations),
            "count",
        ),
        ("compiler.compile_s", time(&["compiler.compile"]), "s"),
        ("compiler.compile_calls", n(c.compiles), "count"),
        ("compiler.intervals", n(c.intervals), "count"),
        ("core.org_build_s", time(&["core.org_build"]), "s"),
        ("core.org_builds", n(c.org_builds), "count"),
        (
            "core.runner_self_s",
            time(&["core.run_experiment", "core.run_normalized"]),
            "s",
        ),
        ("core.baseline_sims", n(c.baseline_sims), "count"),
        (
            "core.baseline_dup_frac",
            ratio(n(c.baseline_repeats), n(c.baseline_sims)),
            "ratio",
        ),
        ("sim.single_s", single_s, "s"),
        ("sim.single_calls", n(c.single_sims), "count"),
        (
            "sim.single_ns_per_warp_inst",
            ratio(single_s * 1e9, n(c.single_warp_insts)),
            "ns/inst",
        ),
        ("sim.gpu_s.ideal", time(&["sim.gpu.ideal"]), "s"),
        ("sim.gpu_s.crossbar", time(&["sim.gpu.crossbar"]), "s"),
        ("sim.gpu_s.mesh", time(&["sim.gpu.mesh"]), "s"),
        ("sim.gpu_calls", n(c.gpu_sims), "count"),
        (
            "sim.gpu_ns_per_sm_cycle",
            ratio(gpu_s * 1e9, n(c.gpu_sm_cycles)),
            "ns/cycle",
        ),
        ("sim.warp_insts", n(c.warp_insts), "count"),
        ("sim.sm_cycles", n(c.sm_cycles), "cycles"),
        ("sim.idle_cycles", n(c.idle_cycles), "cycles"),
        (
            "sim.prefetch_stall_cycles",
            n(c.prefetch_stall_cycles),
            "cycles",
        ),
        (
            "sim.l2_hit_rate",
            ratio(n(c.l2_hits), n(c.l2_hits + c.l2_misses)),
            "ratio",
        ),
        (
            "sim.l2_queue_wait_cycles",
            n(c.l2_queue_wait_cycles),
            "cycles",
        ),
        (
            "sim.noc_mean_latency",
            ratio(n(c.noc_total_latency), n(c.noc_messages)),
            "cycles",
        ),
        ("sim.truncated_runs", n(c.truncated_runs), "count"),
        ("sweep.spec_build_s", time(&["sweep.spec_build"]), "s"),
        ("sweep.point_self_s", time(&["sweep.point"]), "s"),
        ("sweep.cache_load_s", time(&["sweep.cache_load"]), "s"),
        ("sweep.cache_loads", n(c.cache_loads), "count"),
        (
            "sweep.cache_hit_frac",
            ratio(n(c.cache_hits), n(c.cache_loads)),
            "ratio",
        ),
        ("sweep.cache_store_s", time(&["sweep.cache_store"]), "s"),
        ("sweep.cache_stores", n(c.cache_stores), "count"),
        ("sweep.cache_bytes", med(&bytes), "B"),
        ("sweep.worker_busy_frac", med(&untraced.busy_frac), "ratio"),
        ("sweep.report_s", time(&["sweep.report"]), "s"),
        (
            "bench.trace_overhead_frac",
            ratio(med(traced_totals), med(&untraced.total_s)) - 1.0,
            "ratio",
        ),
    ]
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Differences between a traced pass and the untraced pass it replays.
fn replay_mismatches(untraced: &Pass, traced: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    let differing = untraced
        .delivered
        .iter()
        .zip(&traced.delivered)
        .filter(|(u, t)| u != t)
        .count();
    if differing > 0 || untraced.delivered.len() != traced.delivered.len() {
        problems.push(format!(
            "traced replay: {differing} point(s) differ from the untraced run"
        ));
    }
    for ((name, u), (_, t)) in untraced.csv.iter().zip(&traced.csv) {
        if std::fs::read(u).ok() != std::fs::read(t).ok() {
            problems.push(format!(
                "traced replay: {name}.csv differs from the untraced run"
            ));
        }
    }
    problems
}

fn run(args: &Args) -> Result<(), String> {
    let threads = ltrf_sweep::default_threads();
    let scratch = Scratch(Path::new(SCRATCH).join(format!("run-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&scratch.0);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();

    let mut problems = Vec::new();
    let mut reference: Option<Vec<Delivered>> = None;
    let mut timings = Timings::default();
    let mut traced_passes = Vec::new();
    let mut traced_totals = Vec::new();
    let mut last_tracer = None;
    let (mut attempted, mut failed) = (0, 0);
    let mut pass_no = 0;
    let mut first_pass_rss_mib = 0.0;
    while pass_no < MIN_PASSES || started.elapsed() < budget {
        let dir = scratch.0.join(format!("pass{pass_no}"));
        let pass = run_pass(
            args.workload,
            args.seed,
            threads,
            &dir.join("untraced"),
            None,
        )?;
        attempted += pass.delivered.len();
        failed += pass.failures();
        match &reference {
            None => {
                if args.seed == DEFAULT_SEED {
                    problems.extend(check::check_goldens(
                        args.workload,
                        &pass,
                        Path::new(GOLDEN_DIR),
                    )?);
                }
                reference = Some(pass.delivered.clone());
            }
            Some(first) if *first != pass.delivered => {
                problems.push(format!("pass {pass_no} delivered different results"));
            }
            Some(_) => {}
        }
        if pass_no == 0 {
            // The first pass runs in a fresh process, as a user's campaign
            // does; later passes inherit the allocator's retained memory.
            first_pass_rss_mib = peak_rss_mib()?;
        }
        timings.push(&pass, threads);

        if args.trace {
            let tracer = Tracer::new();
            let replay = LayerReplay::new(&tracer);
            let traced = run_pass(
                args.workload,
                args.seed,
                threads,
                &dir.join("traced"),
                Some(&replay),
            )?;
            attempted += traced.delivered.len();
            failed += traced.failures();
            problems.extend(replay_mismatches(&pass, &traced));
            let counts = replay.counts();
            if traced_passes
                .first()
                .is_some_and(|t: &TracedPass| t.counts != counts)
            {
                problems.push(format!("traced pass {pass_no} counted different work"));
            }
            traced_totals.push(traced.setup_s + traced.wall_s);
            traced_passes.push(TracedPass {
                self_s: self_seconds_by_name(&tracer.spans()),
                counts,
                cache_bytes: traced.cache_bytes,
            });
            last_tracer = Some(tracer);
        }
        let _ = std::fs::remove_dir_all(&dir);
        pass_no += 1;
    }

    let probing = Instant::now();
    while !args.trace
        && timings.setup_s.len() < MAX_SETUP_SAMPLES
        && probing.elapsed().as_secs_f64() < SETUP_PROBE_SECONDS
    {
        let dir = scratch.0.join(format!("setup{}", timings.setup_s.len()));
        let setup_s = setup_probe(args.workload, args.seed, threads, &dir)?;
        timings.setup_s.push(setup_s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let reference = reference.expect("at least one pass ran");
    let mut fingerprint = Fingerprint::of(&reference);
    if let Some(first) = traced_passes.first() {
        fingerprint.sim_warp_insts = Some(first.counts.warp_insts);
        fingerprint.sim_sm_cycles = Some(first.counts.sm_cycles);
        fingerprint.compiler_intervals = Some(first.counts.intervals);
    }
    let fingerprints = Path::new(FINGERPRINTS);
    if args.record {
        check::record_fingerprint(fingerprints, args.workload, args.seed, &fingerprint)?;
        println!("recorded the fingerprint in {FINGERPRINTS}");
    }
    match check::recorded_fingerprint(fingerprints, args.workload, args.seed)? {
        Some(recorded) => problems.extend(fingerprint.mismatches(&recorded)),
        None => println!(
            "no fingerprint recorded for {} at seed {}: checked determinism only",
            args.workload.name(),
            args.seed
        ),
    }

    println!(
        "{} at seed {}: {pass_no} cold pass(es) on {threads} thread(s), {} points each",
        args.workload.name(),
        args.seed,
        timings.points_per_pass
    );
    println!("fingerprint: {}", fingerprint.to_value().to_json());
    let walls: Vec<String> = timings.wall_s.iter().map(|w| format!("{w:.3}")).collect();
    println!("untraced pass wall_s: {}", walls.join(" "));
    println!(
        "setup_s is the median of {} set-up samples",
        timings.setup_s.len()
    );
    let metrics = if args.trace {
        if let Some(tracer) = &last_tracer {
            let path = Path::new(SCRATCH).join("spans").join(format!(
                "{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            tracer
                .write_jsonl(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("spans of the last traced pass: {}", path.display());
        }
        per_layer(&traced_passes, &timings, &traced_totals)
    } else {
        let (metrics, note) = end_to_end(&timings, first_pass_rss_mib);
        println!("{note}");
        println!(
            "failed_frac = {} ({failed} failed or truncated of {attempted} attempted)",
            ratio(failed as f64, attempted as f64)
        );
        metrics
    };
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    for problem in &problems {
        println!("INCORRECT: {problem}");
    }

    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(problems.is_empty())),
        ("attempted".into(), Value::UInt(attempted as u64)),
        ("failed".into(), Value::UInt(failed as u64)),
        (
            "metrics".into(),
            Value::Object(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name.to_string(),
                            Value::Object(vec![
                                ("value".into(), Value::Float(value)),
                                ("unit".into(), Value::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.to_json());
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
