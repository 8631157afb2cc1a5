//! Experiment harness: every figure and table of Holland & Gibson's
//! *Parity Declustering for Continuous Operation in Redundant Disk Arrays*
//! (ASPLOS 1992), as runnable experiments.
//!
//! | paper artifact | module | what it shows |
//! |---|---|---|
//! | Figure 4-3 | [`fig4`] | scatter of known block designs |
//! | Figures 6-1, 6-2 | [`fig6`] | fault-free & degraded response time vs α |
//! | Figures 8-1 … 8-4 | [`fig8`] | reconstruction time & user response time vs α, four algorithms, 1- and 8-way |
//! | Table 8-1 | [`fig8`] | reconstruction cycle read/write phase times |
//! | Figure 8-6 | [`fig86`] | Muntz & Lui model vs simulation |
//!
//! Every experiment takes an [`ExperimentScale`] so the same code runs at
//! *paper* scale (full IBM 0661 disks; minutes of CPU per point) or *smoke*
//! scale (shrunken disks and shorter steady-state windows; suitable for
//! tests and Criterion benches). Reconstruction time scales roughly
//! linearly with disk capacity, so shapes are preserved.
//!
//! # Examples
//!
//! ```
//! use decluster_experiments::{fig6, ExperimentScale};
//!
//! // One fault-free/degraded point of Figure 6-1 at smoke scale.
//! let scale = ExperimentScale::smoke();
//! let point = fig6::run_point(&scale, 4, 105.0, 1.0)?;
//! assert!(point.fault_free_ms > 0.0);
//! assert!(point.degraded_ms >= point.fault_free_ms * 0.5);
//! # Ok::<(), decluster_core::error::Error>(())
//! ```

#![warn(missing_docs)]

pub mod access_size;
pub mod campaign;
pub mod csv;
pub mod fig4;
pub mod fig6;
pub mod fig8;
pub mod fig86;
pub mod mirror;
pub mod render;
pub mod runner;

pub use runner::{Runner, SweepReport, SweepRun};

use decluster_core::design::appendix;
use decluster_core::error::Error;
use decluster_core::layout::{LayoutSpec, ParityLayout};
use std::sync::Arc;

/// The paper's array size.
pub const PAPER_DISKS: u16 = 21;

/// The paper's parity stripe widths and declustering ratios (Table
/// 5-1 (c)): `G ∈ {3, 4, 5, 6, 10, 18, 21}` → `α ∈ {0.1 … 1.0}`.
pub fn alpha_sweep() -> Vec<(u16, f64)> {
    appendix::PAPER_GROUP_SIZES
        .iter()
        .map(|&g| (g, (g - 1) as f64 / (PAPER_DISKS - 1) as f64))
        .collect()
}

/// Builds the paper's layout for stripe width `g` on 21 disks through the
/// layout registry: `raid5:c21` for `g = 21`, `bibd:c21gN` otherwise (the
/// catalog resolves `v = 21` from the paper's appendix tables, so these
/// are the exact designs the paper simulated).
///
/// # Errors
///
/// Returns an error if `g` is not one of the paper's group sizes.
pub fn paper_layout(g: u16) -> Result<Arc<dyn ParityLayout>, Error> {
    let spec = if g == PAPER_DISKS {
        LayoutSpec::Raid5 { disks: PAPER_DISKS }
    } else {
        // Keep paper fidelity: only the appendix widths are valid here,
        // even though the catalog could satisfy other (21, g) pairs.
        appendix::design_for_group_size(g)?;
        LayoutSpec::Bibd {
            disks: PAPER_DISKS,
            group: g,
        }
    };
    spec.build()
}

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Cylinders per disk (949 = the real IBM 0661).
    pub cylinders: u32,
    /// Steady-state simulated duration for response-time experiments,
    /// seconds.
    pub duration_secs: u64,
    /// Warmup excluded from measurements, seconds.
    pub warmup_secs: u64,
    /// Wall-clock simulated-time cap for reconstruction runs, seconds.
    pub recon_limit_secs: u64,
    /// Workload seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Full paper scale: real disk capacity, 200 s measurement windows.
    pub fn paper() -> ExperimentScale {
        ExperimentScale {
            cylinders: 949,
            duration_secs: 200,
            warmup_secs: 20,
            recon_limit_secs: 100_000,
            seed: 0x1992,
        }
    }

    /// Reduced scale for CI and benches: 1/8 disks, 40 s windows.
    pub fn smoke() -> ExperimentScale {
        ExperimentScale {
            cylinders: 118, // ≈ 949 / 8
            duration_secs: 40,
            warmup_secs: 4,
            recon_limit_secs: 20_000,
            seed: 0x1992,
        }
    }

    /// Tiny scale for unit tests.
    pub fn tiny() -> ExperimentScale {
        ExperimentScale {
            cylinders: 30,
            duration_secs: 12,
            warmup_secs: 2,
            recon_limit_secs: 10_000,
            seed: 0x1992,
        }
    }

    /// The array configuration at this scale.
    pub fn array_config(&self) -> decluster_array::ArrayConfig {
        self.config_builder().build()
    }

    /// A configuration builder pre-loaded with this scale's disk size and
    /// seed, for experiments that layer extra knobs (spares, media
    /// faults, scrubbing) on top.
    pub fn config_builder(&self) -> decluster_array::ArrayConfigBuilder {
        decluster_array::ArrayConfig::builder()
            .cylinders(self.cylinders)
            .seed(self.seed)
    }

    /// Units per disk at this scale.
    pub fn units_per_disk(&self) -> u64 {
        self.array_config().units_per_disk()
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale::smoke()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_paper() {
        let sweep = alpha_sweep();
        assert_eq!(sweep.len(), 7);
        assert_eq!(sweep[0], (3, 0.1));
        assert_eq!(sweep[6], (21, 1.0));
        let alphas: Vec<f64> = sweep.iter().map(|&(_, a)| a).collect();
        for pair in alphas.windows(2) {
            assert!(pair[0] < pair[1], "sweep not increasing: {alphas:?}");
        }
    }

    #[test]
    fn layouts_build_for_every_sweep_point() {
        for (g, alpha) in alpha_sweep() {
            let l = paper_layout(g).unwrap();
            assert_eq!(l.disks(), 21);
            assert_eq!(l.stripe_width(), g);
            assert!((l.alpha() - alpha).abs() < 1e-12);
        }
    }

    #[test]
    fn unsupported_group_size_is_a_typed_error() {
        assert!(paper_layout(7).is_err());
        assert!(paper_layout(0).is_err());
    }

    #[test]
    fn scales_are_ordered() {
        let paper = ExperimentScale::paper();
        let smoke = ExperimentScale::smoke();
        let tiny = ExperimentScale::tiny();
        assert!(paper.units_per_disk() > smoke.units_per_disk());
        assert!(smoke.units_per_disk() > tiny.units_per_disk());
        assert_eq!(paper.units_per_disk(), 79_716);
    }
}
