//! Maximum tolerable register-file access latency (§6.3, Figure 11).
//!
//! The paper defines the *maximum tolerable register-file access latency* of
//! a design as the largest main-register-file latency (relative to the
//! baseline) that costs at most a given IPC loss (5% by default, with 1% and
//! 10% variants). This module sweeps the latency factor for an organization
//! and finds that point.

use serde::{Deserialize, Serialize};

use ltrf_isa::Kernel;
use ltrf_sim::MemoryBehavior;

use crate::runner::{run_experiment, ExperimentConfig};
use crate::{CoreError, Organization};

/// One point of a latency sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySweepPoint {
    /// Main-register-file latency relative to the baseline.
    pub latency_factor: f64,
    /// Absolute IPC at this latency.
    pub ipc: f64,
    /// IPC normalized to the same organization at 1× latency.
    pub relative_ipc: f64,
}

/// Result of a latency sweep for one organization on one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySweep {
    /// The organization swept.
    pub organization: Organization,
    /// The sweep points, in increasing latency order.
    pub points: Vec<LatencySweepPoint>,
}

impl LatencySweep {
    /// Assembles a sweep from raw `(latency factor, IPC)` measurements,
    /// normalizing each point against the 1× factor's IPC. This is the one
    /// place that curve-to-tolerance assembly lives; every driver (the
    /// `sweep fig11` summary among them) goes through it.
    ///
    /// Returns `None` when no 1× point is present or its IPC is zero — the
    /// relative curve would be meaningless.
    #[must_use]
    pub fn from_ipc_points(organization: Organization, ipc_points: &[(f64, f64)]) -> Option<Self> {
        let reference = ipc_points
            .iter()
            .find(|(factor, _)| (*factor - 1.0).abs() < 1e-12)
            .map(|&(_, ipc)| ipc)
            .filter(|&ipc| ipc > 0.0)?;
        let mut points: Vec<LatencySweepPoint> = ipc_points
            .iter()
            .map(|&(latency_factor, ipc)| LatencySweepPoint {
                latency_factor,
                ipc,
                relative_ipc: ipc / reference,
            })
            .collect();
        points.sort_by(|a, b| {
            a.latency_factor
                .partial_cmp(&b.latency_factor)
                .expect("finite")
        });
        Some(LatencySweep {
            organization,
            points,
        })
    }

    /// The largest latency factor whose IPC loss does not exceed
    /// `allowed_loss` (e.g. `0.05` for the paper's 5% definition).
    ///
    /// Returns the smallest swept factor if even that already exceeds the
    /// loss budget.
    #[must_use]
    pub fn max_tolerable_latency(&self, allowed_loss: f64) -> f64 {
        let threshold = 1.0 - allowed_loss;
        let mut best = self.points.first().map(|p| p.latency_factor).unwrap_or(1.0);
        for p in &self.points {
            if p.relative_ipc >= threshold {
                best = best.max(p.latency_factor);
            }
        }
        best
    }
}

/// Sweeps the main-register-file latency factor for `organization` and
/// reports IPC at every point.
///
/// # Errors
///
/// Returns [`CoreError::InvalidExperiment`] if `latency_factors` is empty and
/// propagates compiler failures.
pub fn latency_sweep(
    kernel: &Kernel,
    memory: MemoryBehavior,
    seed: u64,
    organization: Organization,
    latency_factors: &[f64],
    base_config: &ExperimentConfig,
) -> Result<LatencySweep, CoreError> {
    if latency_factors.is_empty() {
        return Err(CoreError::InvalidExperiment(
            "latency sweep needs at least one latency factor".to_string(),
        ));
    }
    let measure = |factor: f64| -> Result<f64, CoreError> {
        let config = ExperimentConfig {
            organization,
            ..*base_config
        }
        .with_latency_factor(factor);
        Ok(run_experiment(kernel, memory, seed, &config)?.ipc)
    };
    let mut pairs = Vec::with_capacity(latency_factors.len() + 1);
    for &factor in latency_factors {
        pairs.push((factor, measure(factor)?));
    }
    // The curve is always normalized against the 1x point; measure it
    // separately when the caller's factor list does not include it.
    let had_unity = pairs.iter().any(|(f, _)| (*f - 1.0).abs() < 1e-12);
    if !had_unity {
        pairs.push((1.0, measure(1.0)?));
    }
    let mut sweep = LatencySweep::from_ipc_points(organization, &pairs).unwrap_or_else(|| {
        // Degenerate zero-IPC reference: keep absolute IPCs, report zero
        // relative IPC everywhere.
        let mut points: Vec<LatencySweepPoint> = pairs
            .iter()
            .map(|&(latency_factor, ipc)| LatencySweepPoint {
                latency_factor,
                ipc,
                relative_ipc: 0.0,
            })
            .collect();
        points.sort_by(|a, b| {
            a.latency_factor
                .partial_cmp(&b.latency_factor)
                .expect("finite")
        });
        LatencySweep {
            organization,
            points,
        }
    });
    if !had_unity {
        sweep
            .points
            .retain(|p| (p.latency_factor - 1.0).abs() >= 1e-12);
    }
    Ok(sweep)
}

/// The latency factors swept in the paper's Figures 11–14 (1× through 7×).
#[must_use]
pub fn paper_latency_factors() -> Vec<f64> {
    vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltrf_isa::{ArchReg, KernelBuilder, LaunchConfig, Opcode};

    fn kernel() -> Kernel {
        let mut b = KernelBuilder::new("sweep-test", 24);
        let entry = b.entry_block();
        let body = b.add_block();
        let exit = b.add_block();
        for i in 0..8 {
            b.push(entry, Opcode::Mov, Some(ArchReg::new(i)), &[]);
        }
        b.jump(entry, body);
        b.push(
            body,
            Opcode::LoadGlobal,
            Some(ArchReg::new(10)),
            &[ArchReg::new(0)],
        );
        for i in 0..4 {
            b.push(
                body,
                Opcode::FFma,
                Some(ArchReg::new(11 + i)),
                &[ArchReg::new(10), ArchReg::new(i)],
            );
        }
        b.loop_branch(body, body, exit, 4);
        b.exit(exit);
        b.launch(LaunchConfig::new(8, 1, 0));
        b.build().unwrap()
    }

    #[test]
    fn sweep_is_sorted_and_relative_to_unity() {
        let k = kernel();
        let sweep = latency_sweep(
            &k,
            MemoryBehavior::cache_resident(),
            1,
            Organization::Baseline,
            &[4.0, 1.0, 7.0],
            &ExperimentConfig::new(Organization::Baseline),
        )
        .unwrap();
        assert_eq!(sweep.points.len(), 3);
        assert!((sweep.points[0].latency_factor - 1.0).abs() < 1e-9);
        assert!((sweep.points[0].relative_ipc - 1.0).abs() < 1e-9);
        assert!(sweep.points[2].relative_ipc <= sweep.points[0].relative_ipc);
    }

    #[test]
    fn ltrf_tolerates_more_latency_than_baseline() {
        let k = kernel();
        let factors = [1.0, 2.0, 4.0, 6.0];
        let base = latency_sweep(
            &k,
            MemoryBehavior::cache_resident(),
            2,
            Organization::Baseline,
            &factors,
            &ExperimentConfig::new(Organization::Baseline),
        )
        .unwrap();
        let ltrf = latency_sweep(
            &k,
            MemoryBehavior::cache_resident(),
            2,
            Organization::Ltrf,
            &factors,
            &ExperimentConfig::new(Organization::Ltrf),
        )
        .unwrap();
        let bl_tol = base.max_tolerable_latency(0.05);
        let ltrf_tol = ltrf.max_tolerable_latency(0.05);
        assert!(
            ltrf_tol >= bl_tol,
            "LTRF ({ltrf_tol}) must tolerate at least as much latency as BL ({bl_tol})"
        );
    }

    #[test]
    fn empty_sweep_is_rejected() {
        let k = kernel();
        let err = latency_sweep(
            &k,
            MemoryBehavior::cache_resident(),
            1,
            Organization::Baseline,
            &[],
            &ExperimentConfig::new(Organization::Baseline),
        );
        assert!(matches!(err, Err(CoreError::InvalidExperiment(_))));
    }

    #[test]
    fn tolerance_with_looser_budgets_is_monotone() {
        let sweep = LatencySweep {
            organization: Organization::Ltrf,
            points: vec![
                LatencySweepPoint {
                    latency_factor: 1.0,
                    ipc: 1.0,
                    relative_ipc: 1.0,
                },
                LatencySweepPoint {
                    latency_factor: 3.0,
                    ipc: 0.97,
                    relative_ipc: 0.97,
                },
                LatencySweepPoint {
                    latency_factor: 5.0,
                    ipc: 0.93,
                    relative_ipc: 0.93,
                },
                LatencySweepPoint {
                    latency_factor: 7.0,
                    ipc: 0.85,
                    relative_ipc: 0.85,
                },
            ],
        };
        let strict = sweep.max_tolerable_latency(0.01);
        let default = sweep.max_tolerable_latency(0.05);
        let loose = sweep.max_tolerable_latency(0.10);
        assert!(strict <= default && default <= loose);
        assert!((default - 3.0).abs() < 1e-9);
        assert!((loose - 5.0).abs() < 1e-9);
        assert_eq!(paper_latency_factors().len(), 7);
    }
}
