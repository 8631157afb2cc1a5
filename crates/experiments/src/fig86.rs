//! Figure 8-6: the Muntz & Lui analytic model against simulation.
//!
//! The paper feeds the M&L model the disk-level workload derived from the
//! user workload (Section 8.3's conversions) and a single 46 accesses/s
//! service rate, then overlays its reconstruction-time predictions on the
//! simulated ones. The model lands several times higher than simulation
//! because it prices the replacement disk's sequential writes like random
//! accesses.

use crate::runner::{Runner, SweepRun};
use crate::{alpha_sweep, ExperimentScale, PAPER_DISKS};
use decluster_analytic::MuntzLuiModel;
use decluster_core::error::Error;
use decluster_core::recon::ReconAlgorithm;

/// The paper's single-rate disk model input: ~46 random 4 KB accesses/s.
pub const MU: f64 = 46.0;

/// One α point of Figure 8-6.
#[derive(Debug, Clone)]
pub struct Fig86Point {
    /// Parity stripe width `G`.
    pub group: u16,
    /// Declustering ratio α.
    pub alpha: f64,
    /// User access rate (accesses/s).
    pub rate: f64,
    /// Reconstruction algorithm.
    pub algorithm: ReconAlgorithm,
    /// The M&L model's predicted reconstruction time, seconds (`None` =
    /// the model says reconstruction starves).
    pub model_secs: Option<f64>,
    /// Simulated reconstruction time, seconds, if a simulation was run for
    /// this point.
    pub simulated_secs: Option<f64>,
}

/// Model predictions over the α sweep (no simulation).
pub fn model_sweep(
    scale: &ExperimentScale,
    rate: f64,
    algorithm: ReconAlgorithm,
) -> Vec<Fig86Point> {
    alpha_sweep()
        .into_iter()
        .map(|(g, alpha)| Fig86Point {
            group: g,
            alpha,
            rate,
            algorithm,
            model_secs: model_for(scale, g, rate).reconstruction_time(algorithm),
            simulated_secs: None,
        })
        .collect()
}

/// The M&L model instantiated for one sweep point at this scale.
pub fn model_for(scale: &ExperimentScale, g: u16, rate: f64) -> MuntzLuiModel {
    MuntzLuiModel::new(PAPER_DISKS, g, rate, 0.5, MU, scale.units_per_disk())
}

/// Full Figure 8-6: model predictions paired with simulated times.
///
/// `simulate` maps `(g, rate, algorithm)` to a simulated reconstruction
/// time in seconds; pass `crate::fig8::run_point` output or cached values.
pub fn figure_8_6(
    scale: &ExperimentScale,
    rate: f64,
    algorithm: ReconAlgorithm,
    mut simulate: impl FnMut(u16) -> Option<f64>,
) -> Vec<Fig86Point> {
    let mut points = model_sweep(scale, rate, algorithm);
    for p in &mut points {
        p.simulated_secs = simulate(p.group);
    }
    points
}

/// Full Figure 8-6 with the simulations (8-way reconstruction at each α)
/// fanned across `runner`'s workers; model predictions are computed inline
/// (they are closed-form and effectively free).
pub fn figure_8_6_on(
    runner: &Runner,
    scale: &ExperimentScale,
    rate: f64,
    algorithm: ReconAlgorithm,
    processes: usize,
) -> SweepRun<Result<Fig86Point, Error>> {
    let jobs: Vec<_> = alpha_sweep()
        .into_iter()
        .map(|(g, _)| {
            move || match crate::fig8::run_point_counted(scale, g, rate, algorithm, processes) {
                Ok((p, events)) => (Ok(p.recon_secs), events),
                Err(e) => (Err(e), 0),
            }
        })
        .collect();
    let simulated = runner.run(jobs);
    let values = model_sweep(scale, rate, algorithm)
        .into_iter()
        .zip(simulated.values)
        .map(|(mut p, secs)| {
            secs.map(|s| {
                p.simulated_secs = s;
                p
            })
        })
        .collect();
    SweepRun {
        values,
        stats: simulated.stats,
        threads: simulated.threads,
        wall_secs: simulated.wall_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig8;

    #[test]
    fn model_is_pessimistic_versus_simulation() {
        // The crux of Figure 8-6 at reduced scale: the model's prediction
        // exceeds the simulated time because real reconstruction writes
        // are sequential. The model assumes reconstruction consumes all
        // spare capacity, so the comparable simulation is the parallel
        // one (the paper's fastest reconstructions are 8-way).
        let scale = ExperimentScale::tiny();
        let g = 4;
        let sim = fig8::run_point(&scale, g, 105.0, ReconAlgorithm::Redirect, 8).unwrap();
        let model = model_for(&scale, g, 105.0)
            .reconstruction_time(ReconAlgorithm::Redirect)
            .unwrap();
        let simulated = sim.recon_secs.unwrap();
        assert!(
            model > simulated,
            "model {model}s should exceed simulation {simulated}s"
        );
    }

    #[test]
    fn sweep_covers_all_alphas() {
        let scale = ExperimentScale::tiny();
        let points = model_sweep(&scale, 105.0, ReconAlgorithm::Redirect);
        assert_eq!(points.len(), 7);
        assert!(points.iter().all(|p| p.simulated_secs.is_none()));
        // Predictions increase with α under light load.
        let times: Vec<f64> = points.iter().filter_map(|p| p.model_secs).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1] + 1e-6), "{times:?}");
    }

    #[test]
    fn figure_pairs_model_and_simulation() {
        let scale = ExperimentScale::tiny();
        let points = figure_8_6(&scale, 105.0, ReconAlgorithm::Baseline, |g| {
            Some(g as f64 * 10.0) // stand-in simulation results
        });
        assert!(points.iter().all(|p| p.simulated_secs.is_some()));
    }
}
