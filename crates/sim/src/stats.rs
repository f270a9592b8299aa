//! Simulation statistics.

use serde::{Deserialize, Serialize};

use ltrf_tech::AccessCounts;

use crate::memory::MemoryStats;
use crate::types::Cycle;

/// Result of simulating one kernel on one SM.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: Cycle,
    /// Dynamic instructions executed across all warps.
    pub instructions: u64,
    /// Number of warps that ran to completion.
    pub warps_completed: usize,
    /// Number of warps that were resident on the SM.
    pub warps_resident: usize,
    /// Idle visits: cycles the skip-ahead schedule visited (in lock-step,
    /// the cycles the whole GPU visited while this SM was unfinished) at
    /// which this SM issued nothing. The schedule visits every cycle while
    /// a ready warp waits on an operand collector or an MSHR, but jumps over
    /// stretches in which every warp waits on a known event, and cycles it
    /// jumps over are not counted. This is therefore not the number of
    /// cycles without an issue, which can be several times larger.
    pub idle_cycles: Cycle,
    /// Cycles warps spent stalled on PREFETCH operations (LTRF designs).
    pub prefetch_stall_cycles: Cycle,
    /// Warp activations performed by the two-level scheduler.
    pub warp_activations: u64,
    /// Register-file access counters (for the power model).
    pub regfile_accesses: AccessCounts,
    /// Register-file-cache hit rate, if the organization has a cache.
    pub register_cache_hit_rate: Option<f64>,
    /// Memory-hierarchy statistics.
    pub memory: MemoryStats,
    /// True if the simulation hit the safety cycle cap before all warps
    /// finished.
    pub truncated: bool,
}

impl SimStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Idle visits per simulated cycle (`idle_cycles / cycles`). Not the
    /// fraction of cycles without an issue; see [`Self::idle_cycles`].
    #[must_use]
    pub fn idle_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.idle_cycles as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_idle_fraction() {
        let s = SimStats {
            cycles: 1000,
            instructions: 1500,
            idle_cycles: 250,
            ..SimStats::default()
        };
        assert!((s.ipc() - 1.5).abs() < 1e-9);
        assert!((s.idle_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn zero_cycles_is_not_a_division_error() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.idle_fraction(), 0.0);
    }
}
