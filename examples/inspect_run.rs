//! Inspect one simulation in detail: cycles, IPC, stall breakdown, cache and
//! DRAM behaviour, and register-file traffic for a chosen workload and
//! organization.
//!
//! Run with `cargo run --release --example inspect_run [workload] [org]`.

use ltrf::core::{run_experiment, ExperimentConfig, Organization};
use ltrf::workloads::by_name;

fn parse_org(name: &str) -> Organization {
    match name.to_ascii_lowercase().as_str() {
        "bl" | "baseline" => Organization::Baseline,
        "rfc" => Organization::Rfc,
        "shrf" => Organization::Shrf,
        "ltrf" => Organization::Ltrf,
        "ltrf+" | "ltrfplus" => Organization::LtrfPlus,
        "strand" | "ltrf-strand" => Organization::LtrfStrand,
        _ => Organization::Ideal,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workload_name = args.get(1).map_or("hotspot", String::as_str);
    let workload = by_name(workload_name).expect("workload must be in the evaluated suite");
    let orgs: Vec<Organization> = if let Some(org) = args.get(2) {
        vec![parse_org(org)]
    } else {
        vec![
            Organization::Baseline,
            Organization::Rfc,
            Organization::Ltrf,
            Organization::LtrfPlus,
            Organization::Ideal,
        ]
    };
    let config_id = 7u8;
    println!(
        "workload {} on Table 2 configuration #{config_id}\n",
        workload.name()
    );
    // Also show the 1x-latency baseline reference everything is normalized to.
    let reference = run_experiment(
        &workload.kernel,
        workload.memory(),
        42,
        &ExperimentConfig::new(Organization::Baseline),
    )
    .expect("reference run");
    print_one("reference (BL @ 1x)", &reference);
    for org in orgs {
        let result = run_experiment(
            &workload.kernel,
            workload.memory(),
            42,
            &ExperimentConfig::for_table2(org, config_id),
        )
        .expect("run succeeds");
        print_one(org.label(), &result);
    }
}

fn print_one(label: &str, result: &ltrf::core::RunResult) {
    let s = &result.stats;
    println!("--- {label} ---");
    println!(
        "  IPC {:.3}  cycles {}  instructions {}  warps {}/{}  truncated {}",
        s.ipc(),
        s.cycles,
        s.instructions,
        s.warps_completed,
        s.warps_resident,
        s.truncated
    );
    println!(
        "  idle visits/cycle {:.2}  prefetch stall cycles {}  warp activations {}",
        s.idle_fraction(),
        s.prefetch_stall_cycles,
        s.warp_activations
    );
    println!(
        "  RF traffic: MRF reads {} writes {}  cache reads {} writes {}  hit rate {}",
        s.regfile_accesses.mrf_reads,
        s.regfile_accesses.mrf_writes,
        s.regfile_accesses.rfc_reads,
        s.regfile_accesses.rfc_writes,
        s.register_cache_hit_rate
            .map_or("-".to_string(), |h| format!("{:.0}%", h * 100.0))
    );
    println!(
        "  memory: L1D hit rate {:.0}%  LLC hit rate {:.0}%  DRAM row hits {:.0}%  global requests {}  power {:.1} mW",
        s.memory.l1d.hit_rate() * 100.0,
        s.memory.llc.hit_rate() * 100.0,
        s.memory.dram.row_hit_rate() * 100.0,
        s.memory.global_requests,
        result.power.average_power_mw
    );
}
