//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names a campaign, fixes its seeding policy, and carries
//! the list of [`SweepPoint`]s to evaluate. Specs are normally produced by
//! [`SweepSpecBuilder`], which enumerates the cross-product of whatever axes
//! the caller varies: register-file organization, workload (named suite
//! benchmarks and/or a generated population), Table 2 design point, latency
//! factor, registers per register-interval, active warps, SM count (full-GPU
//! campaigns with shared-L2/DRAM contention), and memory behaviour.
//!
//! Specs are *data*: the paper-artifact campaigns each have one canonical
//! constructor in [`crate::campaigns`], surfaced to every front-end as a
//! registry entry in [`crate::api`], and execute on a
//! [`CampaignSession`](crate::CampaignSession).

use serde::{Deserialize, Serialize};

use ltrf_core::{ExperimentConfig, Organization};
use ltrf_sim::{InterconnectConfig, MemoryBehavior};
use ltrf_tech::PowerParams;
use ltrf_trace::TraceWorkloadId;
use ltrf_workloads::{GeneratorConfig, Workload, WorkloadGenerator};

/// Memory behaviour selection for a point.
///
/// A sweep axis must be serializable for content addressing, and
/// [`MemoryBehavior`]'s calibrated profiles are reachable from these tokens,
/// so points carry the token rather than the raw behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemorySelection {
    /// The workload's own calibrated memory profile (the default).
    WorkloadDefault,
    /// Force coalesced streaming behaviour.
    Streaming,
    /// Force a cache-resident working set.
    CacheResident,
    /// Force scattered, data-dependent accesses.
    Irregular,
}

impl MemorySelection {
    /// Resolves the selection against a concrete workload.
    #[must_use]
    pub fn behavior(self, workload: &Workload) -> MemoryBehavior {
        match self {
            MemorySelection::WorkloadDefault => workload.memory(),
            MemorySelection::Streaming => MemoryBehavior::streaming(),
            MemorySelection::CacheResident => MemoryBehavior::cache_resident(),
            MemorySelection::Irregular => MemoryBehavior::irregular(),
        }
    }
}

/// How per-point simulation seeds are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedMode {
    /// Every point runs with exactly this seed (the paper artifacts'
    /// default, which compares organizations on identical dynamic traces).
    Fixed(u64),
    /// Each point's seed is derived from the base seed and the point's
    /// content digest, so points are decorrelated but still reproducible.
    PerPoint(u64),
}

impl SeedMode {
    /// The base seed of either mode.
    #[must_use]
    pub fn base_seed(self) -> u64 {
        match self {
            SeedMode::Fixed(seed) | SeedMode::PerPoint(seed) => seed,
        }
    }
}

/// The identity of one member of a generated workload population: the
/// population seed, the member index, and the full generator bounds.
///
/// This triple (plus nothing else) determines the member's kernel — the
/// executor rematerializes it via
/// [`WorkloadGenerator::population_member`], and the cache serializes it
/// into the point's key material exactly as suite points serialize their
/// workload names. Equal identities therefore always hit warm cache entries,
/// and changing the seed or any generator bound misses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneratedWorkload {
    /// Seed of the population the member is drawn from.
    pub population_seed: u64,
    /// Member index within the population (index-stable: independent of the
    /// population size it was enumerated with).
    pub index: u32,
    /// The generator bounds the population was drawn under.
    pub config: GeneratorConfig,
}

impl GeneratedWorkload {
    /// Materializes the member's workload (spec + built kernel).
    #[must_use]
    pub fn materialize(&self) -> Workload {
        WorkloadGenerator::population_member(self.population_seed, self.index, self.config)
    }
}

/// One point of the design space: a workload under an experiment
/// configuration and a memory behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Workload name. For suite points this resolves against the evaluated
    /// suite at run time; for generated points it is the member's stable
    /// display name (the kernel itself comes from `generated`).
    pub workload: String,
    /// The generated-population identity, when this point's workload is a
    /// population member rather than a suite benchmark.
    pub generated: Option<GeneratedWorkload>,
    /// The trace identity (path + content fingerprint + lowering bounds),
    /// when this point's workload is lowered from an execution trace. The
    /// executor rematerializes the kernel from the identity when the point
    /// runs, and the cache serializes the identity into the key material.
    pub trace: Option<TraceWorkloadId>,
    /// Memory behaviour selection.
    pub memory: MemorySelection,
    /// The full experiment configuration (organization, Table 2 design
    /// point, latency override, interval size, active warps, RFC capacity).
    pub config: ExperimentConfig,
}

/// A named campaign: seeding policy, normalization policy, and points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Campaign name (used for report file names).
    pub name: String,
    /// Seeding policy.
    pub seed_mode: SeedMode,
    /// When `true`, every point is normalized against the baseline reference
    /// on the same kernel/memory/seed (the paper's reporting convention).
    pub normalize: bool,
    /// The run matrix.
    pub points: Vec<SweepPoint>,
}

impl SweepSpec {
    /// Starts a builder for a campaign with the given name.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> SweepSpecBuilder {
        SweepSpecBuilder::new(name)
    }
}

/// Enumerates the cross-product of the configured axes.
///
/// Every axis has a sensible default, so a builder with only workloads and
/// organizations set produces the classic "who wins on configuration #6"
/// matrix. Setting an axis replaces its default entirely.
#[derive(Debug, Clone)]
pub struct SweepSpecBuilder {
    name: String,
    seed_mode: SeedMode,
    normalize: bool,
    organizations: Vec<Organization>,
    workloads: Vec<String>,
    generated_population: Option<(u64, usize, GeneratorConfig)>,
    trace_population: Vec<TraceWorkloadId>,
    config_ids: Vec<u8>,
    latency_factors: Vec<Option<f64>>,
    registers_per_interval: Vec<usize>,
    active_warps: Vec<usize>,
    sm_counts: Vec<usize>,
    memory: Vec<MemorySelection>,
    power_params: PowerParams,
    interconnect: InterconnectConfig,
}

impl SweepSpecBuilder {
    /// Creates a builder with single-value defaults on every axis.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        SweepSpecBuilder {
            name: name.into(),
            seed_mode: SeedMode::Fixed(crate::CAMPAIGN_SEED),
            normalize: true,
            organizations: vec![Organization::Ltrf],
            workloads: Vec::new(),
            generated_population: None,
            trace_population: Vec::new(),
            config_ids: vec![6],
            latency_factors: vec![None],
            registers_per_interval: vec![16],
            active_warps: vec![8],
            sm_counts: vec![1],
            memory: vec![MemorySelection::WorkloadDefault],
            power_params: PowerParams::default(),
            interconnect: InterconnectConfig::default(),
        }
    }

    /// Sets the seeding policy.
    #[must_use]
    pub fn seed_mode(mut self, mode: SeedMode) -> Self {
        self.seed_mode = mode;
        self
    }

    /// Sets whether points are normalized against the baseline reference.
    #[must_use]
    pub fn normalize(mut self, normalize: bool) -> Self {
        self.normalize = normalize;
        self
    }

    /// Sets the organization axis.
    #[must_use]
    pub fn organizations(mut self, orgs: impl IntoIterator<Item = Organization>) -> Self {
        self.organizations = orgs.into_iter().collect();
        self
    }

    /// Sets the workload axis by name.
    #[must_use]
    pub fn workloads<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.workloads = names.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the workload axis to the full evaluated suite.
    #[must_use]
    pub fn full_suite(self) -> Self {
        let names: Vec<String> = ltrf_workloads::evaluated_suite()
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        self.workloads(names)
    }

    /// Sets the workload axis to a generated population: the first `count`
    /// members of the population seeded `population_seed`, drawn under
    /// `config`. May be combined with named suite workloads; the population
    /// members are enumerated after them.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`GeneratorConfig::validate`] or `count` is
    /// zero — static campaign-definition bugs, not runtime conditions.
    #[must_use]
    pub fn generated_population(
        mut self,
        population_seed: u64,
        count: usize,
        config: GeneratorConfig,
    ) -> Self {
        if let Err(complaint) = config.validate() {
            panic!(
                "sweep `{}`: invalid generator bounds: {complaint}",
                self.name
            );
        }
        assert!(
            count > 0,
            "sweep `{}` has an empty generated population",
            self.name
        );
        self.generated_population = Some((population_seed, count, config));
        self
    }

    /// Sets the workload axis to a set of trace-driven workloads, identified
    /// by path + content fingerprint + lowering bounds. May be combined with
    /// named suite workloads and a generated population; trace members are
    /// enumerated last. The executor rematerializes each kernel from its
    /// identity when the point runs, so a trace file that changed on disk
    /// (or fails to parse/lower) surfaces as a per-point failure rather than
    /// a stale result.
    #[must_use]
    pub fn trace_population(mut self, traces: impl IntoIterator<Item = TraceWorkloadId>) -> Self {
        self.trace_population = traces.into_iter().collect();
        self
    }

    /// Sets the Table 2 design-point axis (ids in `1..=7`).
    #[must_use]
    pub fn config_ids(mut self, ids: impl IntoIterator<Item = u8>) -> Self {
        self.config_ids = ids.into_iter().collect();
        self
    }

    /// Sets the latency-factor axis. `None` keeps a design point's
    /// calibrated factor; `Some(f)` overrides it (Figures 11–14).
    #[must_use]
    pub fn latency_factors(mut self, factors: impl IntoIterator<Item = Option<f64>>) -> Self {
        self.latency_factors = factors.into_iter().collect();
        self
    }

    /// Sets the registers-per-interval axis (Figure 12).
    #[must_use]
    pub fn registers_per_interval(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.registers_per_interval = sizes.into_iter().collect();
        self
    }

    /// Sets the active-warp axis (Figure 13).
    #[must_use]
    pub fn active_warps(mut self, warps: impl IntoIterator<Item = usize>) -> Self {
        self.active_warps = warps.into_iter().collect();
        self
    }

    /// Sets the SM-count axis (full-GPU scaling campaigns; each point
    /// simulates that many SMs over a shared L2/DRAM, `1` being the
    /// classic single-SM configuration).
    #[must_use]
    pub fn sm_counts(mut self, counts: impl IntoIterator<Item = usize>) -> Self {
        self.sm_counts = counts.into_iter().collect();
        self
    }

    /// Sets the memory-behaviour axis.
    #[must_use]
    pub fn memory(mut self, selections: impl IntoIterator<Item = MemorySelection>) -> Self {
        self.memory = selections.into_iter().collect();
        self
    }

    /// Sets the power-model calibration every point runs under (the `sweep
    /// power` knobs; defaults to [`PowerParams::default`]). This is a
    /// campaign-wide setting rather than a cross-product axis: the
    /// calibration is threaded into every point's [`ExperimentConfig`] and
    /// therefore into its content-addressed cache key.
    ///
    /// # Panics
    ///
    /// Panics if the calibration fails [`PowerParams::validate`] — a static
    /// campaign-definition bug, not a runtime condition (the CLI validates
    /// first and reports a friendly error).
    #[must_use]
    pub fn power_params(mut self, params: PowerParams) -> Self {
        if let Err(complaint) = params.validate() {
            panic!(
                "sweep `{}`: invalid power calibration: {complaint}",
                self.name
            );
        }
        self.power_params = params;
        self
    }

    /// Sets the SM↔L2 interconnect configuration every point runs under
    /// (the `sweep interconnect` knobs; defaults to the `Ideal` topology).
    /// Campaign-wide like [`Self::power_params`]: the configuration threads
    /// into every point's [`ExperimentConfig`], where any non-default field
    /// becomes cache-key material (the default is elided, keeping
    /// pre-interconnect keys stable).
    #[must_use]
    pub fn interconnect(mut self, interconnect: InterconnectConfig) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// Enumerates the cross-product into a spec.
    ///
    /// # Panics
    ///
    /// Panics if the workload axis is empty (no named workloads and no
    /// generated population — there is nothing to run) or a config id is
    /// outside `1..=7` — both are static campaign-definition bugs, not
    /// runtime conditions.
    #[must_use]
    pub fn build(self) -> SweepSpec {
        // The workload axis: named suite benchmarks first, then the
        // generated population's members, then trace-driven workloads
        // (names and identities only — the executor materializes kernels
        // from the identity when the point runs).
        let mut workload_axis: Vec<(String, Option<GeneratedWorkload>, Option<TraceWorkloadId>)> =
            self.workloads
                .iter()
                .map(|name| (name.clone(), None, None))
                .collect();
        if let Some((population_seed, count, config)) = self.generated_population {
            for index in 0..count {
                let index = u32::try_from(index).expect("population fits in u32 indices");
                workload_axis.push((
                    WorkloadGenerator::member_name(index).to_string(),
                    Some(GeneratedWorkload {
                        population_seed,
                        index,
                        config,
                    }),
                    None,
                ));
            }
        }
        for trace in &self.trace_population {
            workload_axis.push((trace.workload_name().to_string(), None, Some(trace.clone())));
        }
        assert!(
            !workload_axis.is_empty(),
            "sweep `{}` has no workloads; call workloads(), full_suite(), generated_population(), \
             or trace_population()",
            self.name
        );
        let axis_len = self.organizations.len()
            * workload_axis.len()
            * self.config_ids.len()
            * self.latency_factors.len()
            * self.registers_per_interval.len()
            * self.active_warps.len()
            * self.sm_counts.len()
            * self.memory.len();
        let mut points = Vec::with_capacity(axis_len);
        for (workload, generated, trace) in &workload_axis {
            for &org in &self.organizations {
                for &config_id in &self.config_ids {
                    for &latency in &self.latency_factors {
                        for &rpi in &self.registers_per_interval {
                            for &warps in &self.active_warps {
                                for &sm_count in &self.sm_counts {
                                    for &memory in &self.memory {
                                        let mut config =
                                            ExperimentConfig::for_table2(org, config_id)
                                                .with_registers_per_interval(rpi)
                                                .with_active_warps(warps)
                                                .with_sm_count(sm_count)
                                                .with_power_params(self.power_params)
                                                .with_interconnect(self.interconnect);
                                        config.latency_factor_override = latency;
                                        points.push(SweepPoint {
                                            workload: workload.clone(),
                                            generated: *generated,
                                            trace: trace.clone(),
                                            memory,
                                            config,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        SweepSpec {
            name: self.name,
            seed_mode: self.seed_mode,
            normalize: self.normalize,
            points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_product_enumerates_every_axis() {
        let spec = SweepSpec::builder("test")
            .workloads(["hotspot", "btree"])
            .organizations([Organization::Baseline, Organization::Ltrf])
            .config_ids([6, 7])
            .latency_factors([None, Some(4.0)])
            .build();
        assert_eq!(spec.points.len(), 2 * 2 * 2 * 2);
        // Every combination is distinct.
        for (i, a) in spec.points.iter().enumerate() {
            for b in &spec.points[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn defaults_are_single_valued() {
        let spec = SweepSpec::builder("one").workloads(["hotspot"]).build();
        assert_eq!(spec.points.len(), 1);
        let p = &spec.points[0];
        assert_eq!(p.config.organization, Organization::Ltrf);
        assert_eq!(p.config.mrf_config.id.0, 6);
        assert_eq!(p.config.sm_count, 1);
        assert_eq!(p.memory, MemorySelection::WorkloadDefault);
    }

    #[test]
    fn sm_count_axis_enumerates_gpu_scales() {
        let spec = SweepSpec::builder("gpu-scale")
            .workloads(["hotspot"])
            .sm_counts([1, 2, 4, 8])
            .build();
        assert_eq!(spec.points.len(), 4);
        let counts: Vec<usize> = spec.points.iter().map(|p| p.config.sm_count).collect();
        assert_eq!(counts, vec![1, 2, 4, 8]);
        // Distinct sm_counts are distinct cache identities.
        assert_ne!(
            spec.points[0].config.cache_key_material(),
            spec.points[1].config.cache_key_material()
        );
    }

    #[test]
    fn power_params_thread_into_every_point() {
        let calibration = PowerParams {
            base_access_pj: 75.0,
            ..PowerParams::default()
        };
        let spec = SweepSpec::builder("power")
            .workloads(["hotspot"])
            .config_ids([6, 7])
            .power_params(calibration)
            .build();
        assert!(spec.points.iter().all(|p| p.config.power == calibration));
        // A recalibrated point has a different cache identity than the
        // default-calibration point.
        let default_spec = SweepSpec::builder("power")
            .workloads(["hotspot"])
            .config_ids([6, 7])
            .build();
        assert_ne!(
            spec.points[0].config.cache_key_material(),
            default_spec.points[0].config.cache_key_material()
        );
    }

    #[test]
    fn interconnect_threads_into_every_point() {
        use ltrf_sim::Topology;
        let icn = InterconnectConfig::with_topology(Topology::Mesh2D);
        let spec = SweepSpec::builder("noc")
            .workloads(["hotspot"])
            .sm_counts([1, 16])
            .interconnect(icn)
            .build();
        assert!(spec.points.iter().all(|p| p.config.interconnect == icn));
        // A non-default topology changes every point's cache identity...
        let default_spec = SweepSpec::builder("noc")
            .workloads(["hotspot"])
            .sm_counts([1, 16])
            .build();
        assert_ne!(
            spec.points[0].config.cache_key_material(),
            default_spec.points[0].config.cache_key_material()
        );
        // ...while the default (Ideal) setting leaves key material exactly
        // as it was before the interconnect axis existed.
        assert!(!default_spec.points[0]
            .config
            .cache_key_material()
            .contains("interconnect"));
    }

    #[test]
    #[should_panic(expected = "invalid power calibration")]
    fn degenerate_power_params_are_rejected() {
        let bad = PowerParams {
            dwm_write_penalty: 0.0,
            ..PowerParams::default()
        };
        let _ = SweepSpec::builder("bad-power").power_params(bad);
    }

    #[test]
    #[should_panic(expected = "no workloads")]
    fn empty_workload_axis_is_rejected() {
        let _ = SweepSpec::builder("empty").build();
    }

    #[test]
    fn generated_population_axis_enumerates_members() {
        let spec = SweepSpec::builder("gen")
            .organizations([Organization::Baseline, Organization::Ltrf])
            .generated_population(7, 3, GeneratorConfig::default())
            .build();
        assert_eq!(spec.points.len(), 3 * 2);
        for point in &spec.points {
            let g = point.generated.expect("population points carry identity");
            assert_eq!(g.population_seed, 7);
            assert!(g.index < 3);
            assert_eq!(point.workload, WorkloadGenerator::member_name(g.index));
        }
        // Identities are index-distinct within an organization.
        let indices: Vec<u32> = spec
            .points
            .iter()
            .filter(|p| p.config.organization == Organization::Ltrf)
            .map(|p| p.generated.unwrap().index)
            .collect();
        assert_eq!(indices, vec![0, 1, 2]);
    }

    #[test]
    fn suite_and_population_axes_combine() {
        let spec = SweepSpec::builder("mixed")
            .workloads(["hotspot"])
            .generated_population(7, 2, GeneratorConfig::default())
            .build();
        assert_eq!(spec.points.len(), 3);
        assert!(spec.points[0].generated.is_none());
        assert!(spec.points[1].generated.is_some());
        assert!(spec.points[2].generated.is_some());
    }

    #[test]
    #[should_panic(expected = "invalid generator bounds")]
    fn degenerate_generator_bounds_are_rejected() {
        let bad = GeneratorConfig {
            min_regs: 2,
            ..GeneratorConfig::default()
        };
        let _ = SweepSpec::builder("bad").generated_population(1, 4, bad);
    }
}
