//! Figures 8-1 through 8-4 and Table 8-1: reconstruction experiments.
//!
//! The paper's Section 8 setup: 21 disks, 50 % reads / 50 % writes of
//! 4 KB at 105 or 210 user accesses/s, one failed disk replaced at time
//! zero, reconstruction by one (Figures 8-1/8-2) or eight (Figures
//! 8-3/8-4) processes under each of the four algorithms. Reported per
//! point: reconstruction time and mean user response time during
//! reconstruction; Table 8-1 additionally reports read-phase/write-phase
//! durations of the final 300 reconstruction cycles at 210 accesses/s.

use crate::runner::{Runner, SweepRun};
use crate::{alpha_sweep, paper_layout, ExperimentScale};
use decluster_array::{ArraySim, ReconAlgorithm, ReconOptions, ReconReport};
use decluster_core::error::Error;
use decluster_sim::{Observations, Recorder, SimTime};
use decluster_workload::WorkloadSpec;

/// One point of Figures 8-1 … 8-4.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Parity stripe width `G`.
    pub group: u16,
    /// Declustering ratio α.
    pub alpha: f64,
    /// User access rate (accesses/s).
    pub rate: f64,
    /// Reconstruction algorithm.
    pub algorithm: ReconAlgorithm,
    /// Parallel reconstruction processes.
    pub processes: usize,
    /// Reconstruction time in seconds (`None` = hit the simulation limit).
    pub recon_secs: Option<f64>,
    /// Mean user response time during reconstruction, ms.
    pub user_ms: f64,
    /// 90th-percentile user response time during reconstruction, ms.
    pub user_p90_ms: f64,
    /// Median user response time during reconstruction, ms.
    pub user_p50_ms: f64,
    /// 95th-percentile user response time during reconstruction, ms.
    pub user_p95_ms: f64,
    /// 99th-percentile user response time during reconstruction, ms.
    pub user_p99_ms: f64,
    /// Units rebuilt by user activity rather than the sweep.
    pub units_by_users: u64,
    /// Mean read-phase / write-phase times over the last 300 cycles, ms.
    pub last_read_ms: f64,
    /// See `last_read_ms`.
    pub last_write_ms: f64,
    /// Standard deviations for the last-cycles phases, ms.
    pub last_read_std_ms: f64,
    /// See `last_read_std_ms`.
    pub last_write_std_ms: f64,
}

/// Runs one reconstruction scenario.
///
/// # Errors
///
/// Returns an error if `g` is not a paper group size, the layout cannot
/// map the scaled disks, or `processes` is zero.
pub fn run_point(
    scale: &ExperimentScale,
    g: u16,
    rate: f64,
    algorithm: ReconAlgorithm,
    processes: usize,
) -> Result<Fig8Point, Error> {
    run_point_counted(scale, g, rate, algorithm, processes).map(|(p, _)| p)
}

/// [`run_point`], also returning the simulator events processed (the
/// throughput denominator for [`Runner`] accounting).
///
/// # Errors
///
/// See [`run_point`].
pub fn run_point_counted(
    scale: &ExperimentScale,
    g: u16,
    rate: f64,
    algorithm: ReconAlgorithm,
    processes: usize,
) -> Result<(Fig8Point, u64), Error> {
    let spec = WorkloadSpec::half_and_half(rate);
    let mut sim = ArraySim::new(paper_layout(g)?, scale.array_config(), spec, 1)?;
    sim.fail_disk(0)?;
    sim.start_reconstruction(ReconOptions::new(algorithm).processes(processes))?;
    let report = sim.run_until_reconstructed(SimTime::from_secs(scale.recon_limit_secs));
    Ok((
        from_report(g, rate, algorithm, processes, &report),
        report.events_processed,
    ))
}

fn from_report(
    g: u16,
    rate: f64,
    algorithm: ReconAlgorithm,
    processes: usize,
    report: &ReconReport,
) -> Fig8Point {
    Fig8Point {
        group: g,
        alpha: (g - 1) as f64 / 20.0,
        rate,
        algorithm,
        processes,
        recon_secs: report.reconstruction_secs(),
        user_ms: report.ops.all.mean_ms(),
        user_p90_ms: report.ops.all.percentile_ms(0.9),
        user_p50_ms: report.ops.p50_ms(),
        user_p95_ms: report.ops.p95_ms(),
        user_p99_ms: report.ops.p99_ms(),
        units_by_users: report.units_by_users,
        last_read_ms: report.last_cycles.read_ms.mean(),
        last_write_ms: report.last_cycles.write_ms.mean(),
        last_read_std_ms: report.last_cycles.read_ms.std_dev(),
        last_write_std_ms: report.last_cycles.write_ms.std_dev(),
    }
}

/// Re-runs one reconstruction scenario with a [`Recorder`] probe and
/// returns its [`Observations`]: per-class latency histograms (user,
/// reconstruction read/write), per-disk utilization timelines covering
/// survivors and the replacement, and the rebuild-progress samples. Used
/// by the figure binaries to export a representative timeline.
///
/// # Errors
///
/// Returns an error if `g` is not a paper group size, the layout cannot
/// map the scaled disks, or `processes` is zero.
pub fn observe_point(
    scale: &ExperimentScale,
    g: u16,
    rate: f64,
    algorithm: ReconAlgorithm,
    processes: usize,
) -> Result<Observations, Error> {
    observe_point_with(scale, g, rate, algorithm, processes, Recorder::new())
}

/// [`observe_point`] with a caller-configured [`Recorder`] (e.g. one with
/// the JSONL trace enabled).
///
/// # Errors
///
/// See [`observe_point`].
pub fn observe_point_with(
    scale: &ExperimentScale,
    g: u16,
    rate: f64,
    algorithm: ReconAlgorithm,
    processes: usize,
    recorder: Recorder,
) -> Result<Observations, Error> {
    let spec = WorkloadSpec::half_and_half(rate);
    let mut sim = ArraySim::new_probed(paper_layout(g)?, scale.array_config(), spec, 1, recorder)?;
    sim.fail_disk(0)?;
    sim.start_reconstruction(ReconOptions::new(algorithm).processes(processes))?;
    let report = sim.run_until_reconstructed(SimTime::from_secs(scale.recon_limit_secs));
    Ok(report
        .observations
        .expect("a Recorder probe always reports"))
}

/// The paper's Section 8 rates.
pub const RATES: [f64; 2] = [105.0, 210.0];

/// Figures 8-1/8-2 (single-thread) or 8-3/8-4 (`processes = 8`): the full
/// sweep over α, algorithm, and rate.
///
/// # Errors
///
/// Returns the first failed point, in sweep order.
pub fn figure_8_sweep(
    scale: &ExperimentScale,
    processes: usize,
    rates: &[f64],
) -> Result<Vec<Fig8Point>, Error> {
    Ok(
        figure_8_sweep_on(&Runner::sequential(), scale, processes, rates)
            .transpose()?
            .into_values(),
    )
}

/// [`figure_8_sweep`] fanned across `runner`'s workers.
pub fn figure_8_sweep_on(
    runner: &Runner,
    scale: &ExperimentScale,
    processes: usize,
    rates: &[f64],
) -> SweepRun<Result<Fig8Point, Error>> {
    let mut jobs = Vec::new();
    for &rate in rates {
        for algorithm in ReconAlgorithm::ALL {
            for (g, _) in alpha_sweep() {
                jobs.push(
                    move || match run_point_counted(scale, g, rate, algorithm, processes) {
                        Ok((p, events)) => (Ok(p), events),
                        Err(e) => (Err(e), 0),
                    },
                );
            }
        }
    }
    runner.run(jobs)
}

/// Table 8-1: reconstruction cycle phase times at 210 accesses/s for
/// α ∈ {0.15, 0.45, 1.0}, all four algorithms, at the given parallelism.
///
/// # Errors
///
/// Returns the first failed point, in sweep order.
pub fn table_8_1(scale: &ExperimentScale, processes: usize) -> Result<Vec<Fig8Point>, Error> {
    Ok(table_8_1_on(&Runner::sequential(), scale, processes)
        .transpose()?
        .into_values())
}

/// [`table_8_1`] fanned across `runner`'s workers.
pub fn table_8_1_on(
    runner: &Runner,
    scale: &ExperimentScale,
    processes: usize,
) -> SweepRun<Result<Fig8Point, Error>> {
    let mut jobs = Vec::new();
    for algorithm in ReconAlgorithm::ALL {
        for g in [4u16, 10, 21] {
            jobs.push(
                move || match run_point_counted(scale, g, 210.0, algorithm, processes) {
                    Ok((p, events)) => (Ok(p), events),
                    Err(e) => (Err(e), 0),
                },
            );
        }
    }
    runner.run(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declustering_speeds_reconstruction_and_lowers_response() {
        // The headline of Figures 8-1/8-2: at α = 0.15 reconstruction is
        // much faster than RAID 5 and user response time is lower.
        let scale = ExperimentScale::tiny();
        let low = run_point(&scale, 4, 105.0, ReconAlgorithm::Baseline, 1).unwrap();
        let high = run_point(&scale, 21, 105.0, ReconAlgorithm::Baseline, 1).unwrap();
        let (t_low, t_high) = (low.recon_secs.unwrap(), high.recon_secs.unwrap());
        assert!(
            t_low < t_high * 0.75,
            "α=0.15 recon {t_low}s should clearly beat RAID 5 {t_high}s"
        );
        assert!(
            low.user_ms < high.user_ms,
            "α=0.15 response {} should beat RAID 5 {}",
            low.user_ms,
            high.user_ms
        );
    }

    #[test]
    fn parallel_reconstruction_trades_response_for_speed() {
        // Figures 8-3/8-4: 8-way reconstruction is several times faster
        // but user response time suffers.
        let scale = ExperimentScale::tiny();
        let single = run_point(&scale, 4, 105.0, ReconAlgorithm::Baseline, 1).unwrap();
        let eight = run_point(&scale, 4, 105.0, ReconAlgorithm::Baseline, 8).unwrap();
        assert!(
            eight.recon_secs.unwrap() < single.recon_secs.unwrap() / 2.0,
            "8-way {:?} vs single {:?}",
            eight.recon_secs,
            single.recon_secs
        );
        assert!(
            eight.user_ms > single.user_ms,
            "8-way response {} should exceed single {}",
            eight.user_ms,
            single.user_ms
        );
    }

    #[test]
    fn read_phase_grows_with_alpha() {
        // Table 8-1: the read phase (max of G−1 reads on loaded disks)
        // grows with stripe width.
        let scale = ExperimentScale::tiny();
        let low = run_point(&scale, 4, 210.0, ReconAlgorithm::Baseline, 1).unwrap();
        let high = run_point(&scale, 21, 210.0, ReconAlgorithm::Baseline, 1).unwrap();
        assert!(
            high.last_read_ms > low.last_read_ms,
            "read phase α=1.0 {} vs α=0.15 {}",
            high.last_read_ms,
            low.last_read_ms
        );
    }

    #[test]
    fn table_has_twelve_rows() {
        // Only checks shape (the runs themselves are exercised above).
        let scale = ExperimentScale::tiny();
        let rows = table_8_1(&scale, 1).unwrap();
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().all(|r| r.rate == 210.0));
        for r in &rows {
            assert!(r.user_p50_ms > 0.0);
            assert!(r.user_p50_ms <= r.user_p95_ms && r.user_p95_ms <= r.user_p99_ms);
        }
    }

    #[test]
    fn observe_point_covers_recon_classes() {
        let scale = ExperimentScale::tiny();
        let obs = observe_point(&scale, 4, 105.0, ReconAlgorithm::Baseline, 1).unwrap();
        assert_eq!(obs.timelines.len(), 21);
        assert!(obs
            .class(decluster_sim::OpClass::ReconRead)
            .is_some_and(|h| h.count() > 0));
        assert!(!obs.recon_progress.is_empty());
    }
}
