//! Differential test layer for the allocation-free, skip-ahead engine.
//!
//! The fast engine ([`ltrf_sim::EngineKind::Fast`], the default) claims
//! bit-identical results to the straightforward reference tick loop
//! ([`ltrf_sim::EngineKind::Reference`]). This suite is the contract behind
//! that claim, extending the PR 3 GPU-vs-single-SM differential pattern:
//! every run is asserted equal under **exact `f64` equality** on every
//! `RunResult`/`GpuStats` field (not tolerance comparison — the engines must
//! perform the same floating-point operations in the same order), swept
//! across
//!
//! * all six register-file organizations,
//! * SM counts {1, 4, 16} (single-SM path, and the lock-step GPU over a
//!   shared L2/DRAM at two scales),
//! * a 32-member generated workload population, plus collector-bound
//!   single-SM runs of the baseline on configuration #6, and
//! * the three checked-in `examples/traces/` workloads.
//!
//! The reference engine polls every cycle a blocked warp waits, and never
//! lets an SM sleep; the fast engine skips those visits and credits them in
//! batches. Equality here therefore pins the batched credit (per-SM
//! `idle_cycles`) to the polling schedule. The lock-step edge cases
//! (MSHR-bound SMs, a straggler SM, a truncated dense stretch) are pinned
//! by the unit test `fast_gpu_matches_reference_gpu_bit_for_bit` in
//! `ltrf-sim`'s `gpu` module.

use ltrf_core::{
    run_experiment_with_engine, EngineKind, ExperimentConfig, Organization, RunResult,
};
use ltrf_trace::TraceWorkloadId;
use ltrf_workloads::{GeneratorConfig, Workload, WorkloadGenerator};

/// Population size: cycles every organization several times over diverse
/// register pressures, loop nests, and memory profiles.
const POPULATION: usize = 32;

/// The SM-count axis: the single-SM fast path plus two lock-step GPU scales.
const SM_COUNTS: [usize; 3] = [1, 4, 16];

/// Bounds trimmed for test wall-clock time while keeping the space diverse
/// (same bounds as the PR 3 differential suite).
fn test_bounds() -> GeneratorConfig {
    GeneratorConfig {
        min_regs: 12,
        max_regs: 96,
        max_outer_trips: 4,
        max_inner_trips: 10,
        max_body_alu: 10,
        max_body_loads: 4,
    }
}

/// Runs one workload under both engines and asserts exact equality of the
/// complete `RunResult` — including the full `GpuStats` provenance when the
/// experiment is multi-SM, so per-SM statistics and the shared L2/DRAM
/// counters are pinned too, not just the aggregate.
fn assert_engines_agree(workload: &Workload, config: &ExperimentConfig, seed: u64, label: &str) {
    let memory = workload.memory();
    let fast = run_experiment_with_engine(&workload.kernel, memory, seed, config, EngineKind::Fast)
        .unwrap_or_else(|e| panic!("{label}: fast engine failed: {e}"));
    let reference = run_experiment_with_engine(
        &workload.kernel,
        memory,
        seed,
        config,
        EngineKind::Reference,
    )
    .unwrap_or_else(|e| panic!("{label}: reference engine failed: {e}"));
    assert!(
        !fast.stats.truncated,
        "{label}: differential coverage requires completed runs"
    );
    assert_eq!(
        fast, reference,
        "{label}: fast engine diverged from the reference oracle"
    );
}

/// The generated-population sweep: organization and SM count both cycle with
/// the member index, so the first 18 members alone cover the full 6×3
/// organization × SM-count grid and the remaining members re-cover it on
/// different kernels.
#[test]
fn fast_engine_is_bit_identical_across_generated_population() {
    let population = WorkloadGenerator::population_with_config(0xD1FF, POPULATION, test_bounds());
    let organizations = Organization::all();
    for (i, workload) in population.iter().enumerate() {
        let org = organizations[i % organizations.len()];
        let sm_count = SM_COUNTS[(i / organizations.len()) % SM_COUNTS.len()];
        let config = ExperimentConfig::for_table2(org, 6).with_sm_count(sm_count);
        let seed = 1000 + i as u64;
        let label = format!("member {i} ({}, {org}, {sm_count} SMs)", workload.name());
        assert_engines_agree(workload, &config, seed, &label);
    }
    // The baseline on configuration #6: its slow main register file keeps
    // every operand collector busy, so ready warps wait on collectors and
    // the fast engine batches the visits the reference engine polls.
    for (i, workload) in population.iter().take(4).enumerate() {
        let config = ExperimentConfig::for_table2(Organization::Baseline, 6);
        let label = format!("collector-bound member {i} (BL #6, 1 SM)");
        assert_engines_agree(workload, &config, 3000 + i as u64, &label);
    }
}

/// The traced-workload sweep: each of the three checked-in example traces
/// runs under every organization, with the SM count cycling so every trace
/// sees every scale.
#[test]
fn fast_engine_is_bit_identical_across_example_traces() {
    let traces = [
        "divergent_loop.trace",
        "high_register_pressure.trace",
        "straight_line.trace",
    ];
    let organizations = Organization::all();
    for (t, name) in traces.iter().enumerate() {
        let path = format!(
            "{}/../../examples/traces/{name}",
            env!("CARGO_MANIFEST_DIR")
        );
        let workload = TraceWorkloadId::from_path(&path)
            .unwrap_or_else(|e| panic!("{name}: cannot read example trace: {e}"))
            .materialize()
            .unwrap_or_else(|e| panic!("{name}: cannot lower example trace: {e}"));
        for (o, &org) in organizations.iter().enumerate() {
            let sm_count = SM_COUNTS[(t + o) % SM_COUNTS.len()];
            let config = ExperimentConfig::for_table2(org, 6).with_sm_count(sm_count);
            let seed = 2000 + (t * organizations.len() + o) as u64;
            let label = format!("trace {name} ({org}, {sm_count} SMs)");
            assert_engines_agree(&workload, &config, seed, &label);
        }
    }
}

/// The default engine is the fast one, and the default-path results equal an
/// explicit `EngineKind::Fast` run — so every cached campaign artifact keeps
/// its meaning (and its content-addressed cache key) across the engine swap.
#[test]
fn default_engine_is_fast_and_reuses_existing_semantics() {
    assert_eq!(EngineKind::default(), EngineKind::Fast);
    let population = WorkloadGenerator::population_with_config(0xD1FF, 2, test_bounds());
    let workload = &population[0];
    let config = ExperimentConfig::for_table2(Organization::Ltrf, 6);
    let via_default =
        ltrf_core::run_experiment(&workload.kernel, workload.memory(), 5, &config).unwrap();
    let via_fast = run_experiment_with_engine(
        &workload.kernel,
        workload.memory(),
        5,
        &config,
        EngineKind::Fast,
    )
    .unwrap();
    assert_eq!(via_default, via_fast);
    // The engine choice is not cache-key material: the serialized config
    // carries no engine field.
    assert!(!config.cache_key_material().contains("engine"));
    let _: RunResult = via_default;
}
