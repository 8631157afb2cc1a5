//! Extension experiment: response time versus user access size.
//!
//! The paper's Section 6 closes with an open question: declustered parity
//! exploits the large-write optimization at *smaller* access sizes than
//! RAID 5 (its stripes are narrower), but its simple data mapping lacks
//! maximal parallelism for large reads — "overall performance will be
//! dictated by the balancing of these two effects, and will depend on the
//! access size distribution." This experiment measures that balance: mean
//! response time as a function of access size (in stripe units) for the
//! declustered array against RAID 5, at equal byte bandwidth.

use crate::runner::{Runner, SweepRun};
use crate::{paper_layout, ExperimentScale};
use decluster_array::ArraySim;
use decluster_core::error::Error;
use decluster_sim::SimTime;
use decluster_workload::WorkloadSpec;

/// One measured point: a (layout, access size) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessSizePoint {
    /// Parity stripe width of the layout.
    pub group: u16,
    /// Access size in stripe units.
    pub access_units: u64,
    /// Read fraction of the workload.
    pub read_fraction: f64,
    /// Mean response time, ms.
    pub response_ms: f64,
    /// Mean utilization across disks (the cost side of the trade).
    pub utilization: f64,
    /// Criterion-5 hits are implied by utilization: at equal byte
    /// bandwidth, fewer accesses per byte → lower utilization.
    pub requests_measured: u64,
}

/// Measures one point: `units`-unit accesses at a fixed *byte* bandwidth
/// of `unit_rate` single-unit-equivalents per second.
///
/// # Errors
///
/// Returns an error if `g` is not a paper group size or the layout cannot
/// map the scaled disks.
pub fn run_point(
    scale: &ExperimentScale,
    g: u16,
    units: u64,
    unit_rate: f64,
    read_fraction: f64,
) -> Result<AccessSizePoint, Error> {
    run_point_counted(scale, g, units, unit_rate, read_fraction).map(|(p, _)| p)
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
    units: u64,
    unit_rate: f64,
    read_fraction: f64,
) -> Result<(AccessSizePoint, u64), Error> {
    let spec = WorkloadSpec::new(unit_rate / units as f64, read_fraction).with_access_units(units);
    let report = ArraySim::new(paper_layout(g)?, scale.array_config(), spec, 1)?.run_for(
        SimTime::from_secs(scale.duration_secs),
        SimTime::from_secs(scale.warmup_secs),
    );
    let point = AccessSizePoint {
        group: g,
        access_units: units,
        read_fraction,
        response_ms: report.ops.all.mean_ms(),
        utilization: report.mean_disk_utilization,
        requests_measured: report.requests_measured,
    };
    Ok((point, report.events_processed))
}

/// The sweep: sizes 1..=max_units for the declustered G and for RAID 5.
///
/// # Errors
///
/// Returns the first failed point, in sweep order.
pub fn sweep(
    scale: &ExperimentScale,
    g: u16,
    max_units: u64,
    unit_rate: f64,
    read_fraction: f64,
) -> Result<Vec<AccessSizePoint>, Error> {
    Ok(sweep_on(
        &Runner::sequential(),
        scale,
        g,
        max_units,
        unit_rate,
        read_fraction,
    )
    .transpose()?
    .into_values())
}

/// [`sweep`] fanned across `runner`'s workers.
pub fn sweep_on(
    runner: &Runner,
    scale: &ExperimentScale,
    g: u16,
    max_units: u64,
    unit_rate: f64,
    read_fraction: f64,
) -> SweepRun<Result<AccessSizePoint, Error>> {
    let mut jobs = Vec::new();
    for units in 1..=max_units {
        for group in [g, 21] {
            jobs.push(move || {
                match run_point_counted(scale, group, units, unit_rate, read_fraction) {
                    Ok((p, events)) => (Ok(p), events),
                    Err(e) => (Err(e), 0),
                }
            });
        }
    }
    runner.run(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_sized_writes_cut_declustered_utilization() {
        // A G=4 layout turns aligned 3-unit writes into criterion-5 full
        // stripes: utilization per byte collapses versus single-unit RMWs.
        let scale = ExperimentScale::tiny();
        let small = run_point(&scale, 4, 1, 60.0, 0.0).unwrap();
        let full = run_point(&scale, 4, 3, 60.0, 0.0).unwrap();
        assert!(
            full.utilization < small.utilization * 0.75,
            "full-stripe writes {} vs unit writes {}",
            full.utilization,
            small.utilization
        );
    }

    #[test]
    fn declustered_beats_raid5_at_its_stripe_size() {
        // At access size = G−1 = 3 units, the declustered array writes
        // full stripes while RAID 5 (G−1 = 20) still does RMWs.
        let scale = ExperimentScale::tiny();
        let decl = run_point(&scale, 4, 3, 60.0, 0.0).unwrap();
        let raid5 = run_point(&scale, 21, 3, 60.0, 0.0).unwrap();
        assert!(
            decl.utilization < raid5.utilization,
            "declustered {} vs RAID 5 {}",
            decl.utilization,
            raid5.utilization
        );
    }

    #[test]
    fn sweep_covers_both_layouts() {
        let scale = ExperimentScale::tiny();
        let points = sweep(&scale, 4, 2, 40.0, 0.5).unwrap();
        assert_eq!(points.len(), 4);
        assert!(points.iter().any(|p| p.group == 4));
        assert!(points.iter().any(|p| p.group == 21));
    }
}
