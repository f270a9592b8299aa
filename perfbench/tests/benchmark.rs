//! Tests of the benchmark's own code: percentile and tail selection, span
//! self time, the work-normalized rates, and the layer replay's fidelity to
//! the runner.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::sync::Arc;

use ltrf_core::{run_experiment, ExperimentConfig, Organization};
use ltrf_sim::{GpuStats, InterconnectConfig, SimStats, Topology};
use perfbench::campaign::Delivered;
use perfbench::check::Fingerprint;
use perfbench::replay::LayerReplay;
use perfbench::spans::{self_seconds_by_name, self_times, Span, Tracer};
use perfbench::stats::{median, percentile, rate, ratio, tail, TAIL_SAMPLES_BEYOND};

#[test]
fn percentiles_use_the_nearest_rank() {
    let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.0), Some(1.0));
    assert_eq!(percentile(&samples, 50.0), Some(5.0));
    assert_eq!(percentile(&samples, 90.0), Some(9.0));
    assert_eq!(percentile(&samples, 91.0), Some(10.0));
    assert_eq!(percentile(&samples, 100.0), Some(10.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn the_tail_leaves_ten_samples_and_one_percent_beyond_it() {
    // 36 points (gpu-contention): rank 26, so exactly ten samples lie beyond.
    let gpu: Vec<f64> = (0..36).rev().map(f64::from).collect();
    let (pct, value) = tail(&gpu).unwrap();
    assert_eq!(value, 25.0);
    assert!((pct - 100.0 * 26.0 / 36.0).abs() < 1e-12);
    assert_eq!(
        gpu.iter().filter(|&&s| s > value).count(),
        TAIL_SAMPLES_BEYOND
    );

    // 614 points (paper-quick): still ten beyond, the p98.37.
    let paper: Vec<f64> = (0..614).map(f64::from).collect();
    let (paper_pct, paper_value) = tail(&paper).unwrap();
    assert!((paper_pct - 100.0 * 604.0 / 614.0).abs() < 1e-12);
    assert_eq!(paper_value, 603.0);

    // 10,000 points (population-incremental): 1% beyond, the p99.
    let population: Vec<f64> = (0..10_000).map(f64::from).collect();
    let (pop_pct, pop_value) = tail(&population).unwrap();
    assert_eq!((pop_pct, pop_value), (99.0, 9_899.0));
    assert_eq!(population.iter().filter(|&&s| s > pop_value).count(), 100);

    // Too few samples to leave ten beyond: never below the median.
    assert_eq!(tail(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((60.0, 3.0)));
    let twelve: Vec<f64> = (1..=12).map(f64::from).collect();
    assert_eq!(tail(&twelve), Some((50.0, 6.0)));
    assert_eq!(tail(&[]), None);
}

fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "test",
        point: None,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_child_spans() {
    let spans = [
        span(0, None, 0, 100),
        // Two overlapping children cover [10, 50]: 40 ns, not 50.
        span(1, Some(0), 10, 30),
        span(2, Some(0), 20, 50),
        // A grandchild counts against its parent only.
        span(3, Some(1), 12, 18),
        // A child overrunning its parent is clipped to the parent.
        span(4, None, 200, 210),
        span(5, Some(4), 205, 230),
    ];
    let own = self_times(&spans);
    assert_eq!(own[&0], 60);
    assert_eq!(own[&1], 14);
    assert_eq!(own[&2], 30);
    assert_eq!(own[&3], 6);
    assert_eq!(own[&4], 5);
    assert_eq!(own[&5], 25);
}

#[test]
fn the_tracer_nests_spans_and_shares_the_point_id() {
    let tracer = Tracer::new();
    tracer.span("outer", || {
        tracer.tag_point("abc");
        tracer.span("inner", || std::hint::black_box(1 + 1));
    });
    tracer.span("untagged", || ());
    let spans = tracer.spans();
    let by_name = |name: &str| spans.iter().find(|s| s.name == name).unwrap().clone();
    let (outer, inner, untagged) = (by_name("outer"), by_name("inner"), by_name("untagged"));
    assert_eq!(inner.parent, Some(outer.id));
    assert_eq!(outer.parent, None);
    assert_eq!(outer.point, Some(Arc::from("abc")));
    assert_eq!(inner.point, Some(Arc::from("abc")));
    assert_eq!(untagged.point, None);
    assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

    let totals = self_seconds_by_name(&spans);
    let outer_self = totals["outer"];
    assert!(outer_self >= 0.0 && outer_self <= outer.duration_ns() as f64 * 1e-9);
}

fn delivered(instructions: u64, cycles: u64, sm_count: u64, from_cache: bool) -> Delivered {
    Delivered {
        ok: true,
        from_cache,
        sm_count,
        stats: SimStats {
            instructions,
            cycles,
            ..SimStats::default()
        },
        gpu: (sm_count > 1).then(|| GpuStats {
            sm_count: sm_count as usize,
            cycles,
            instructions,
            per_sm: Vec::new(),
            ctas_per_sm: Vec::new(),
            ctas_launched: 0,
            ctas_dispatched: 0,
            l2: Default::default(),
            dram: Default::default(),
            l2_queue_wait_cycles: 0,
            l2_slice_wait_min: 0,
            l2_slice_wait_max: 0,
            noc: Default::default(),
            truncated: false,
        }),
    }
}

#[test]
fn rates_are_normalized_by_delivered_simulated_work() {
    let points = [
        delivered(1_000, 500, 1, false),
        // A 16-SM point delivers cycles on every SM.
        delivered(4_000, 300, 16, false),
        // A cache hit delivers its work too.
        delivered(2_000, 700, 1, true),
    ];
    let fingerprint = Fingerprint::of(&points);
    assert_eq!(fingerprint.delivered_warp_insts, 7_000);
    assert_eq!(fingerprint.delivered_sm_cycles, 500 + 300 * 16 + 700);
    assert_eq!((fingerprint.cache_hits, fingerprint.cache_stores), (1, 2));
    assert_eq!(rate(fingerprint.delivered_warp_insts, 2.0), 3_500.0);
    assert_eq!(rate(fingerprint.delivered_sm_cycles, 0.5), 12_000.0);
    assert_eq!(rate(7_000, 0.0), 0.0);
    assert_eq!(ratio(1.0, 4.0), 0.25);
    assert_eq!(ratio(1.0, 0.0), 0.0);

    // The digest covers the modelled statistics: any change moves it.
    let mut changed = points.clone();
    changed[0].stats.idle_cycles += 1;
    assert_ne!(
        Fingerprint::of(&changed).model_digest,
        fingerprint.model_digest
    );
    assert_eq!(Fingerprint::of(&points), fingerprint);
}

#[test]
fn the_layer_replay_reproduces_the_runner() {
    let workload = ltrf_workloads::by_name("hotspot").expect("hotspot is in the suite");
    let memory = workload.memory();
    let seed = ltrf_sweep::CAMPAIGN_SEED;
    let configs = [
        ExperimentConfig::for_table2(Organization::Ltrf, 6),
        ExperimentConfig::for_table2(Organization::Shrf, 7),
        ExperimentConfig::for_table2(Organization::LtrfStrand, 6),
        ExperimentConfig::new(Organization::Rfc),
        ExperimentConfig::new(Organization::Baseline),
        ExperimentConfig::for_table2(Organization::Ltrf, 6)
            .with_sm_count(4)
            .with_interconnect(InterconnectConfig::with_topology(Topology::Crossbar)),
    ];
    let tracer = Tracer::new();
    let replay = LayerReplay::new(&tracer);
    for config in &configs {
        let want = run_experiment(&workload.kernel, memory, seed, config).unwrap();
        let got = replay
            .run_experiment(&workload.kernel, memory, seed, config)
            .unwrap();
        assert_eq!(got.stats, want.stats, "{:?}", config.organization);
        assert_eq!(got, want, "{:?}", config.organization);
    }

    let counts = replay.counts();
    assert_eq!(counts.org_builds, 6);
    assert_eq!(
        counts.compiles, 4,
        "every organization but RFC and BL compiles"
    );
    assert_eq!((counts.single_sims, counts.gpu_sims), (5, 1));
    let spans = tracer.spans();
    let named = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(named("core.run_experiment"), 6);
    assert_eq!(named("compiler.compile"), 4);
    assert_eq!(named("sim.single"), 5);
    assert_eq!(named("sim.gpu.crossbar"), 1);
}
