//! Figures 6-1 and 6-2: fault-free and degraded-mode average response time
//! as a function of the declustering ratio α.
//!
//! The paper's setup (Sections 6–7): 21 disks, 4 KB uniform accesses;
//! Figure 6-1 is 100 % reads at 105/210/378 accesses/s, Figure 6-2 is
//! 100 % writes at 105/210 accesses/s (378 writes/s would saturate the
//! four-access RMW). For each α both the fault-free array and an array
//! with one failed, unreplaced disk are measured.

use crate::runner::{Runner, SweepRun};
use crate::{alpha_sweep, paper_layout, ExperimentScale};
use decluster_array::ArraySim;
use decluster_core::error::Error;
use decluster_sim::{Observations, Recorder, SimTime};
use decluster_workload::WorkloadSpec;

/// One point of Figure 6-1/6-2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Point {
    /// Parity stripe width `G`.
    pub group: u16,
    /// Declustering ratio α.
    pub alpha: f64,
    /// User access rate (accesses/s).
    pub rate: f64,
    /// Read fraction of the workload (1.0 for Fig 6-1, 0.0 for Fig 6-2).
    pub read_fraction: f64,
    /// Fault-free mean response time, ms.
    pub fault_free_ms: f64,
    /// Degraded-mode (one failed, unreplaced disk) mean response time, ms.
    pub degraded_ms: f64,
    /// Fault-free 90th-percentile response time, ms.
    pub fault_free_p90_ms: f64,
    /// Degraded 90th-percentile response time, ms.
    pub degraded_p90_ms: f64,
    /// Fault-free median response time, ms.
    pub fault_free_p50_ms: f64,
    /// Fault-free 95th-percentile response time, ms.
    pub fault_free_p95_ms: f64,
    /// Fault-free 99th-percentile response time, ms.
    pub fault_free_p99_ms: f64,
    /// Degraded median response time, ms.
    pub degraded_p50_ms: f64,
    /// Degraded 95th-percentile response time, ms.
    pub degraded_p95_ms: f64,
    /// Degraded 99th-percentile response time, ms.
    pub degraded_p99_ms: f64,
}

/// Runs one (G, rate, mix) point: a fault-free run and a degraded run.
///
/// # Errors
///
/// Returns an error if `g` is not a paper group size or the layout cannot
/// map the scaled disks.
pub fn run_point(
    scale: &ExperimentScale,
    g: u16,
    rate: f64,
    read_fraction: f64,
) -> Result<Fig6Point, Error> {
    run_point_counted(scale, g, rate, read_fraction).map(|(p, _)| p)
}

/// [`run_point`], also returning the simulator events both runs processed
/// (the throughput denominator for [`Runner`] accounting).
///
/// # Errors
///
/// See [`run_point`].
pub fn run_point_counted(
    scale: &ExperimentScale,
    g: u16,
    rate: f64,
    read_fraction: f64,
) -> Result<(Fig6Point, u64), Error> {
    let spec = WorkloadSpec::new(rate, read_fraction);
    let duration = SimTime::from_secs(scale.duration_secs);
    let warmup = SimTime::from_secs(scale.warmup_secs);

    let fault_free =
        ArraySim::new(paper_layout(g)?, scale.array_config(), spec, 1)?.run_for(duration, warmup);

    let mut degraded_sim = ArraySim::new(paper_layout(g)?, scale.array_config(), spec, 1)?;
    degraded_sim.fail_disk(0)?;
    let degraded = degraded_sim.run_for(duration, warmup);

    let point = Fig6Point {
        group: g,
        alpha: (g - 1) as f64 / 20.0,
        rate,
        read_fraction,
        fault_free_ms: fault_free.ops.all.mean_ms(),
        degraded_ms: degraded.ops.all.mean_ms(),
        fault_free_p90_ms: fault_free.ops.all.percentile_ms(0.9),
        degraded_p90_ms: degraded.ops.all.percentile_ms(0.9),
        fault_free_p50_ms: fault_free.ops.p50_ms(),
        fault_free_p95_ms: fault_free.ops.p95_ms(),
        fault_free_p99_ms: fault_free.ops.p99_ms(),
        degraded_p50_ms: degraded.ops.p50_ms(),
        degraded_p95_ms: degraded.ops.p95_ms(),
        degraded_p99_ms: degraded.ops.p99_ms(),
    };
    Ok((
        point,
        fault_free.events_processed + degraded.events_processed,
    ))
}

/// Figure 6-1: 100 % reads over the α sweep at each rate.
///
/// # Errors
///
/// Returns the first failed point, in sweep order.
pub fn figure_6_1(scale: &ExperimentScale, rates: &[f64]) -> Result<Vec<Fig6Point>, Error> {
    Ok(figure_6_1_on(&Runner::sequential(), scale, rates)
        .transpose()?
        .into_values())
}

/// Figure 6-2: 100 % writes over the α sweep at each rate.
///
/// # Errors
///
/// Returns the first failed point, in sweep order.
pub fn figure_6_2(scale: &ExperimentScale, rates: &[f64]) -> Result<Vec<Fig6Point>, Error> {
    Ok(figure_6_2_on(&Runner::sequential(), scale, rates)
        .transpose()?
        .into_values())
}

/// [`figure_6_1`] fanned across `runner`'s workers.
pub fn figure_6_1_on(
    runner: &Runner,
    scale: &ExperimentScale,
    rates: &[f64],
) -> SweepRun<Result<Fig6Point, Error>> {
    sweep_on(runner, scale, rates, 1.0)
}

/// [`figure_6_2`] fanned across `runner`'s workers.
pub fn figure_6_2_on(
    runner: &Runner,
    scale: &ExperimentScale,
    rates: &[f64],
) -> SweepRun<Result<Fig6Point, Error>> {
    sweep_on(runner, scale, rates, 0.0)
}

fn sweep_on(
    runner: &Runner,
    scale: &ExperimentScale,
    rates: &[f64],
    read_fraction: f64,
) -> SweepRun<Result<Fig6Point, Error>> {
    let mut jobs = Vec::new();
    for &rate in rates {
        for (g, _) in alpha_sweep() {
            jobs.push(
                move || match run_point_counted(scale, g, rate, read_fraction) {
                    Ok((p, events)) => (Ok(p), events),
                    Err(e) => (Err(e), 0),
                },
            );
        }
    }
    runner.run(jobs)
}

/// Re-runs one (G, rate, mix) point with a [`Recorder`] probe attached
/// and returns its [`Observations`]: per-class latency histograms and
/// per-disk utilization timelines for the fault-free (or, with
/// `degraded`, the one-failed-disk) scenario. Used by the figure binaries
/// to export a representative timeline next to the sweep data.
///
/// # Errors
///
/// Returns an error if `g` is not a paper group size or the layout cannot
/// map the scaled disks.
pub fn observe_point(
    scale: &ExperimentScale,
    g: u16,
    rate: f64,
    read_fraction: f64,
    degraded: bool,
) -> Result<Observations, Error> {
    observe_point_with(scale, g, rate, read_fraction, degraded, Recorder::new())
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
    read_fraction: f64,
    degraded: bool,
    recorder: Recorder,
) -> Result<Observations, Error> {
    let spec = WorkloadSpec::new(rate, read_fraction);
    let mut sim = ArraySim::new_probed(paper_layout(g)?, scale.array_config(), spec, 1, recorder)?;
    if degraded {
        sim.fail_disk(0)?;
    }
    let report = sim.run_for(
        SimTime::from_secs(scale.duration_secs),
        SimTime::from_secs(scale.warmup_secs),
    );
    Ok(report
        .observations
        .expect("a Recorder probe always reports"))
}

/// The paper's rates for Figure 6-1.
pub const READ_RATES: [f64; 3] = [105.0, 210.0, 378.0];
/// The paper's rates for Figure 6-2 (378 writes/s is unsustainable).
pub const WRITE_RATES: [f64; 2] = [105.0, 210.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_reads_degrade_more_at_high_alpha() {
        // The headline of Figure 6-1: degraded-mode response suffers less
        // at low α. Compare G=4 (α=0.15) against RAID 5 (α=1.0).
        let scale = ExperimentScale::tiny();
        let low = run_point(&scale, 4, 105.0, 1.0).unwrap();
        let high = run_point(&scale, 21, 105.0, 1.0).unwrap();
        let low_penalty = low.degraded_ms / low.fault_free_ms;
        let high_penalty = high.degraded_ms / high.fault_free_ms;
        assert!(
            low_penalty < high_penalty,
            "α=0.15 penalty {low_penalty:.2} should beat α=1.0 penalty {high_penalty:.2}"
        );
    }

    #[test]
    fn fault_free_reads_insensitive_to_alpha() {
        // Fault-free performance is essentially independent of declustering
        // (Figure 6-1): reads are a single access wherever the data lives.
        let scale = ExperimentScale::tiny();
        let a = run_point(&scale, 4, 105.0, 1.0).unwrap();
        let b = run_point(&scale, 21, 105.0, 1.0).unwrap();
        let ratio = a.fault_free_ms / b.fault_free_ms;
        assert!(
            (0.8..1.25).contains(&ratio),
            "fault-free read response varies with alpha: {ratio}"
        );
    }

    #[test]
    fn degraded_writes_can_beat_fault_free_at_low_alpha() {
        // Section 7's surprise: lost-parity writes cost one access instead
        // of four, so degraded writes at low α can be *faster* on average.
        let scale = ExperimentScale::tiny();
        let p = run_point(&scale, 4, 105.0, 0.0).unwrap();
        assert!(
            p.degraded_ms < p.fault_free_ms * 1.15,
            "degraded writes {} should be near or below fault-free {}",
            p.degraded_ms,
            p.fault_free_ms
        );
    }

    #[test]
    fn sweep_produces_every_point() {
        let scale = ExperimentScale::tiny();
        let points = figure_6_1(&scale, &[105.0]).unwrap();
        assert_eq!(points.len(), 7);
        assert!(points.iter().all(|p| p.fault_free_ms > 0.0));
        assert!(points.iter().all(|p| p.read_fraction == 1.0));
        // The histogram-derived quantiles are ordered and populated.
        for p in &points {
            assert!(p.fault_free_p50_ms > 0.0);
            assert!(p.fault_free_p50_ms <= p.fault_free_p95_ms);
            assert!(p.fault_free_p95_ms <= p.fault_free_p99_ms);
            assert!(p.degraded_p50_ms <= p.degraded_p95_ms);
            assert!(p.degraded_p95_ms <= p.degraded_p99_ms);
        }
    }

    #[test]
    fn observe_point_yields_timelines() {
        let scale = ExperimentScale::tiny();
        let obs = observe_point(&scale, 4, 105.0, 1.0, false).unwrap();
        assert_eq!(obs.timelines.len(), 21, "one timeline per disk");
        assert!(obs
            .class(decluster_sim::OpClass::UserRead)
            .is_some_and(|h| h.count() > 0));
    }
}
