//! End-to-end checks of the simulation-backed registry campaigns: each is
//! built from its registry entry at quick scale, run through the executor
//! without a cache, and the aggregates its summary table prints are held
//! to the paper's qualitative claims.

#[cfg(test)]
mod tests {
    use ltrf_core::Organization;
    use ltrf_sim::Topology;

    use crate::api::{config_org_mean, registry, CampaignParams};
    use crate::campaigns::GEN_CAMPAIGN_ORGS;
    use crate::{run_sweep, ExecutorOptions, PointMeans, RunningAggregates, SweepResults};

    /// Runs every spec the named registry campaign builds from `params`.
    fn run_campaign(name: &str, params: &CampaignParams) -> Vec<SweepResults> {
        let specs = registry()
            .find(name)
            .expect("registered campaign")
            .specs(params)
            .expect("valid parameters");
        assert!(!specs.is_empty(), "{name} builds specs");
        specs
            .iter()
            .map(|spec| {
                let results = run_sweep(spec, &ExecutorOptions::default());
                assert_eq!(results.failure_count(), 0, "{name}: every point succeeds");
                results
            })
            .collect()
    }

    fn quick() -> CampaignParams {
        CampaignParams {
            quick: true,
            ..CampaignParams::default()
        }
    }

    /// The `(sm_count, organization)` means of one run, in axis order.
    fn means(
        results: &SweepResults,
        sm_counts: &[usize],
        organizations: &[Organization],
    ) -> Vec<(usize, Organization, PointMeans)> {
        RunningAggregates::from_results(results).means(sm_counts, organizations)
    }

    /// The checked-in example traces, made absolute so the test is
    /// independent of the package-relative working directory `cargo test`
    /// runs with.
    fn example_traces() -> Vec<String> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        CampaignParams::DEFAULT_TRACES
            .iter()
            .map(|p| root.join(p).to_string_lossy().into_owned())
            .collect()
    }

    #[test]
    fn trace_campaign_aggregates_both_organizations() {
        let params = CampaignParams {
            trace_paths: example_traces(),
            ..CampaignParams::default()
        };
        let rows = means(
            &run_campaign("trace-campaign", &params)[0],
            &[1],
            &GEN_CAMPAIGN_ORGS,
        );
        assert_eq!(rows.len(), 2, "BL and LTRF rows");
        for (_, org, row) in &rows {
            assert_eq!(
                row.count, 3,
                "{org:?}: one point per example trace: {row:?}"
            );
            assert!(row.ipc > 0.0, "{org:?}: {row:?}");
            assert!(row.normalized_ipc > 0.0, "{org:?}: {row:?}");
        }
        // Lowering is deterministic and the trace bytes are fixed, so the
        // campaign reproduces bit-identically.
        let again = run_campaign("trace-campaign", &params);
        assert_eq!(rows, means(&again[0], &[1], &GEN_CAMPAIGN_ORGS));
    }

    #[test]
    fn gen_campaign_aggregates_both_organizations() {
        let params = CampaignParams {
            population: Some(4),
            population_seed: Some(7),
            ..CampaignParams::default()
        };
        let rows = means(
            &run_campaign("gen-campaign", &params)[0],
            &[1],
            &GEN_CAMPAIGN_ORGS,
        );
        assert_eq!(rows.len(), 2, "BL and LTRF rows");
        for (_, org, row) in &rows {
            assert_eq!(row.count, 4, "{org:?}: {row:?}");
            assert!(row.ipc > 0.0, "{org:?}: {row:?}");
            assert!(row.normalized_ipc > 0.0, "{org:?}: {row:?}");
        }
        // Same campaign parameters, same rows (the engine is deterministic
        // and the population is index-stable).
        let again = run_campaign("gen-campaign", &params);
        assert_eq!(rows, means(&again[0], &[1], &GEN_CAMPAIGN_ORGS));
    }

    #[test]
    fn interconnect_campaign_reports_every_topology_cell() {
        let params = CampaignParams {
            sm_counts: Some(vec![1, 2]),
            ..quick()
        };
        let runs = run_campaign("interconnect", &params);
        let topologies = [Topology::Ideal, Topology::Crossbar];
        assert_eq!(runs.len(), topologies.len(), "one spec per topology");
        let mut cells = 0;
        for (topology, results) in topologies.into_iter().zip(&runs) {
            for (sm_count, _, row) in means(results, &[1, 2], &[Organization::Ltrf]) {
                cells += 1;
                assert!(row.ipc > 0.0, "{topology:?} x{sm_count}: {row:?}");
                assert!(
                    (0.0..=1.0).contains(&row.l2_hit_rate),
                    "{topology:?} x{sm_count}: {row:?}"
                );
                match (topology, sm_count) {
                    // The ideal network is latency-free, and single-SM
                    // points never route through the shared network at all.
                    (Topology::Ideal, _) | (_, 1) => {
                        assert_eq!(row.noc_latency, 0.0, "{topology:?} x{sm_count}: {row:?}");
                    }
                    _ => assert!(row.noc_latency > 0.0, "{topology:?} x{sm_count}: {row:?}"),
                }
            }
        }
        assert_eq!(cells, 4, "2 topologies x 2 SM counts");
    }

    #[test]
    fn gpu_scale_reports_every_cell() {
        let params = CampaignParams {
            sm_counts: Some(vec![1, 2]),
            ..quick()
        };
        let rows = means(
            &run_campaign("gpu-scale", &params)[0],
            &[1, 2],
            &[Organization::Baseline, Organization::Ltrf],
        );
        assert_eq!(rows.len(), 4, "2 SM counts x BL/LTRF");
        for (_, _, row) in &rows {
            assert!(row.ipc > 0.0, "{row:?}");
            assert!(row.normalized_ipc > 0.0, "{row:?}");
            assert!((0.0..=1.0).contains(&row.l2_hit_rate));
            assert!((0.0..=1.0).contains(&row.dram_row_hit_rate));
        }
        let ltrf_ipc = |sm: usize| {
            rows.iter()
                .find(|(sm_count, org, _)| *sm_count == sm && *org == Organization::Ltrf)
                .map(|(_, _, row)| row.ipc)
                .unwrap()
        };
        assert!(
            ltrf_ipc(2) > ltrf_ipc(1),
            "two SMs execute more work per cycle than one: {} vs {}",
            ltrf_ipc(2),
            ltrf_ipc(1)
        );
    }

    #[test]
    fn figure9_rows_cover_the_quick_suite_through_the_registry() {
        let params = quick();
        let results = &run_campaign("fig9", &params)[0];
        let workloads = params.workload_names();
        assert_eq!(workloads.len(), 4);
        for config_id in [6u8, 7] {
            for workload in &workloads {
                let norm = |org: Organization| {
                    results
                        .successes()
                        .find(|(r, _)| {
                            r.point.workload == *workload
                                && r.point.config.organization == org
                                && r.point.config.mrf_config.id.0 == config_id
                        })
                        .and_then(|(_, d)| d.normalized_ipc)
                        .unwrap_or_else(|| panic!("#{config_id} {workload} {org:?} is normalized"))
                };
                let (bl, ideal) = (norm(Organization::Baseline), norm(Organization::Ideal));
                for org in [
                    Organization::Rfc,
                    Organization::Ltrf,
                    Organization::LtrfPlus,
                ] {
                    assert!(norm(org) > 0.0, "#{config_id} {workload} {org:?}");
                }
                assert!(bl > 0.0 && ideal > 0.0, "#{config_id} {workload}");
                // The ideal organization cannot lose to the degraded
                // baseline.
                assert!(
                    ideal >= bl * 0.99,
                    "#{config_id} {workload}: ideal {ideal} < bl {bl}"
                );
            }
        }
    }

    #[test]
    fn table2_sweep_covers_every_design_point() {
        let results = &run_campaign("table2", &quick())[0];
        let mean = |config_id: u8, org: Organization| {
            config_org_mean(results, config_id, org, |d| d.normalized_ipc)
        };
        for config_id in 1..=7u8 {
            for org in [Organization::Baseline, Organization::Ltrf] {
                assert!(mean(config_id, org) > 0.0, "#{config_id} {org:?}");
            }
        }
        // On the paper's headline configuration #6 LTRF beats the
        // latency-degraded baseline.
        let (ltrf, bl) = (mean(6, Organization::Ltrf), mean(6, Organization::Baseline));
        assert!(ltrf > bl, "#6: LTRF {ltrf} <= BL {bl}");
    }
}
