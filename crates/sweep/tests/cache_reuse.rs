//! Cross-entry-point cache reuse: a campaign the `sweep` CLI ran warm-hits
//! when the same registry campaign is driven through the library, and
//! campaigns that share points share cache entries.
//!
//! Every driver builds its campaigns from the same canonical
//! [`ltrf_sweep::campaigns`] constructors with the same fixed campaign
//! seed, so their points have identical content-addressed cache
//! identities.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use ltrf_sweep::campaigns::{fig10_spec, power_sweep_spec};
use ltrf_sweep::{
    registry, run_sweep, CampaignParams, ExecutorOptions, SeedMode, SweepResults, CAMPAIGN_SEED,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltrf-cache-reuse-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_cli_populated_cache_serves_a_library_rerun() {
    let root = temp_dir("cli");
    let out = root.join("out");
    let cache = root.join("cache");

    // The CLI side: a cold `sweep fig3 --quick` populates the cache.
    let status = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg("fig3")
        .arg("--quick")
        .arg("--out")
        .arg(&out)
        .arg("--cache")
        .arg(&cache)
        .stdout(Stdio::null())
        .status()
        .expect("run the sweep binary");
    assert!(status.success(), "sweep fig3 --quick exits 0");
    let report = std::fs::read_to_string(out.join("fig3.json")).expect("fig3.json report");
    let cli: SweepResults = serde::from_json_str(&report).expect("report parses");
    assert_eq!(cli.failure_count(), 0);

    // The library side: the registry's fig3 entry under the same
    // parameters, run against the CLI's cache, recomputes nothing.
    let params = CampaignParams {
        quick: true,
        ..CampaignParams::default()
    };
    let spec = &registry().find("fig3").unwrap().specs(&params).unwrap()[0];
    let options = ExecutorOptions {
        cache_dir: Some(cache.clone()),
        ..ExecutorOptions::default()
    };
    let warm = run_sweep(spec, &options);
    assert_eq!(warm.failure_count(), 0);
    assert_eq!(warm.computed_count(), 0, "library rerun recomputes nothing");
    assert!((warm.cache_hit_rate() - 1.0).abs() < 1e-12);
    assert_eq!(warm.len(), cli.len());
    for (cli_record, warm_record) in cli.records.iter().zip(&warm.records) {
        assert_eq!(cli_record.outcome, warm_record.outcome, "bit-identical");
        assert!(warm_record.from_cache);
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fig10_is_served_from_the_power_sweep_entries() {
    // One register-sensitive workload keeps the campaigns small; what is
    // under test is identity, not coverage.
    let workloads = ["hotspot"];
    let seed_mode = SeedMode::Fixed(CAMPAIGN_SEED);
    let cache_dir = temp_dir("power");
    let options = ExecutorOptions {
        cache_dir: Some(cache_dir.clone()),
        ..ExecutorOptions::default()
    };

    // fig10 is the configuration-#7 slice of the power sweep, so a fig10
    // run over a power-populated cache hits fully (the atlas documents this
    // overlap).
    let power = power_sweep_spec(workloads, 1, seed_mode, ltrf_tech::PowerParams::default());
    let power_results = run_sweep(&power, &options);
    assert_eq!(power_results.failure_count(), 0);
    assert_eq!(power_results.cached_count(), 0, "fresh cache");
    let fig10 = run_sweep(&fig10_spec(workloads, 1, seed_mode), &options);
    assert_eq!(fig10.failure_count(), 0);
    assert_eq!(
        fig10.computed_count(),
        0,
        "fig10 is served entirely from the power sweep's entries"
    );

    let _ = std::fs::remove_dir_all(&cache_dir);
}
