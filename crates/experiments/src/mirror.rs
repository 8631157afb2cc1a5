//! Extension experiment: mirrored declustering against parity
//! declustering.
//!
//! The paper's introduction frames the choice: mirrored systems can
//! deliver higher throughput (a write is two writes, not a four-access
//! read-modify-write; reconstruction copies rather than XORs) but consume
//! 50 % of capacity, against parity declustering's `1/G`. Section 3
//! credits interleaved declustering (Copeland & Keller) with the original
//! load-spreading idea and notes chained declustering's (Hsiao & DeWitt)
//! reliability trade. Running all three organizations on the same
//! simulator makes the cost/performance comparison concrete.

use crate::runner::{Runner, SweepRun};
use crate::{paper_layout, ExperimentScale};
use decluster_array::{ArraySim, ReconAlgorithm, ReconOptions};
use decluster_core::error::Error;
use decluster_core::layout::{LayoutSpec, ParityLayout};
use decluster_sim::SimTime;
use decluster_workload::WorkloadSpec;
use std::sync::Arc;

/// The organizations compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Organization {
    /// Block-design parity declustering with stripe width `G`.
    ParityDeclustered {
        /// Stripe width.
        g: u16,
    },
    /// Interleaved mirrored declustering.
    InterleavedMirror,
    /// Chained mirrored declustering.
    ChainedMirror,
}

impl Organization {
    /// Human-readable name.
    pub fn name(&self) -> String {
        match self {
            Organization::ParityDeclustered { g } => format!("parity G={g}"),
            Organization::InterleavedMirror => "interleaved mirror".into(),
            Organization::ChainedMirror => "chained mirror".into(),
        }
    }

    /// Builds the 21-disk layout.
    ///
    /// # Errors
    ///
    /// Returns an error for an unsupported parity group size.
    pub fn layout(&self) -> Result<Arc<dyn ParityLayout>, Error> {
        match self {
            Organization::ParityDeclustered { g } => paper_layout(*g),
            Organization::InterleavedMirror => LayoutSpec::Mirror { disks: 21 }.build(),
            Organization::ChainedMirror => LayoutSpec::Chained { disks: 21 }.build(),
        }
    }
}

/// One measured comparison row.
#[derive(Debug, Clone)]
pub struct MirrorPoint {
    /// The organization measured.
    pub organization: Organization,
    /// Capacity overhead of redundancy (1/G; 0.5 for mirrors).
    pub overhead: f64,
    /// Fault-free mean response time, ms.
    pub fault_free_ms: f64,
    /// Degraded-mode mean response time, ms.
    pub degraded_ms: f64,
    /// Max/median survivor utilization in degraded mode — 1.0 means the
    /// recovery load is perfectly spread (criterion 2); chained mirroring
    /// concentrates it on the failed disk's ring neighbours.
    pub degraded_imbalance: f64,
    /// Reconstruction time (8-way redirect), seconds.
    pub recon_secs: Option<f64>,
    /// Mean user response during reconstruction, ms.
    pub recon_user_ms: f64,
}

/// Measures one organization under the paper's Section 8 workload shape.
///
/// # Errors
///
/// Returns an error if the organization's layout cannot be built or does
/// not map the scaled disks.
pub fn run_point(
    scale: &ExperimentScale,
    org: Organization,
    rate: f64,
) -> Result<MirrorPoint, Error> {
    run_point_counted(scale, org, rate).map(|(p, _)| p)
}

/// [`run_point`], also returning the simulator events all three runs
/// processed (the throughput denominator for [`Runner`] accounting).
///
/// # Errors
///
/// See [`run_point`].
pub fn run_point_counted(
    scale: &ExperimentScale,
    org: Organization,
    rate: f64,
) -> Result<(MirrorPoint, u64), Error> {
    let spec = WorkloadSpec::half_and_half(rate);
    let duration = SimTime::from_secs(scale.duration_secs);
    let warmup = SimTime::from_secs(scale.warmup_secs);
    let cfg = scale.array_config();

    let fault_free = ArraySim::new(org.layout()?, cfg, spec, 1)?.run_for(duration, warmup);
    let mut deg = ArraySim::new(org.layout()?, cfg, spec, 1)?;
    deg.fail_disk(0)?;
    let degraded = deg.run_for(duration, warmup);
    let mut survivors: Vec<f64> = degraded
        .per_disk_utilization
        .iter()
        .enumerate()
        .filter(|&(d, _)| d != 0)
        .map(|(_, &u)| u)
        .collect();
    survivors.sort_by(f64::total_cmp);
    let median = survivors[survivors.len() / 2];
    let max = survivors[survivors.len() - 1]; // layouts have ≥ 2 disks
    let degraded_imbalance = if median > 0.0 { max / median } else { 1.0 };
    let mut rec = ArraySim::new(org.layout()?, cfg, spec, 1)?;
    rec.fail_disk(0)?;
    rec.start_reconstruction(ReconOptions::new(ReconAlgorithm::Redirect).processes(8))?;
    let recon = rec.run_until_reconstructed(SimTime::from_secs(scale.recon_limit_secs));

    let point = MirrorPoint {
        organization: org,
        overhead: org.layout()?.parity_overhead(),
        fault_free_ms: fault_free.ops.all.mean_ms(),
        degraded_ms: degraded.ops.all.mean_ms(),
        degraded_imbalance,
        recon_secs: recon.reconstruction_secs(),
        recon_user_ms: recon.ops.all.mean_ms(),
    };
    let events = fault_free.events_processed + degraded.events_processed + recon.events_processed;
    Ok((point, events))
}

/// The standard comparison: G ∈ {4, 10}, RAID 5, and both mirrors.
///
/// # Errors
///
/// Returns the first failed point, in sweep order.
pub fn comparison(scale: &ExperimentScale, rate: f64) -> Result<Vec<MirrorPoint>, Error> {
    Ok(comparison_on(&Runner::sequential(), scale, rate)
        .transpose()?
        .into_values())
}

/// [`comparison`] fanned across `runner`'s workers.
pub fn comparison_on(
    runner: &Runner,
    scale: &ExperimentScale,
    rate: f64,
) -> SweepRun<Result<MirrorPoint, Error>> {
    let jobs: Vec<_> = [
        Organization::ParityDeclustered { g: 4 },
        Organization::ParityDeclustered { g: 10 },
        Organization::ParityDeclustered { g: 21 },
        Organization::InterleavedMirror,
        Organization::ChainedMirror,
    ]
    .into_iter()
    .map(|org| {
        move || match run_point_counted(scale, org, rate) {
            Ok((p, events)) => (Ok(p), events),
            Err(e) => (Err(e), 0),
        }
    })
    .collect();
    runner.run(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrors_write_faster_but_cost_more() {
        let scale = ExperimentScale::tiny();
        let mirror = run_point(&scale, Organization::InterleavedMirror, 105.0).unwrap();
        let parity = run_point(&scale, Organization::ParityDeclustered { g: 4 }, 105.0).unwrap();
        // Two writes beat a four-access RMW at 50% writes.
        assert!(
            mirror.fault_free_ms < parity.fault_free_ms,
            "mirror {} vs parity {}",
            mirror.fault_free_ms,
            parity.fault_free_ms
        );
        // But redundancy overhead doubles.
        assert_eq!(mirror.overhead, 0.5);
        assert_eq!(parity.overhead, 0.25);
    }

    #[test]
    fn interleaved_reconstructs_and_chained_reconstructs() {
        let scale = ExperimentScale::tiny();
        for org in [Organization::InterleavedMirror, Organization::ChainedMirror] {
            let p = run_point(&scale, org, 105.0).unwrap();
            assert!(p.recon_secs.is_some(), "{}: {p:?}", org.name());
        }
    }

    #[test]
    fn chained_concentrates_degraded_load_interleaved_spreads_it() {
        // The structural difference Section 3 describes: in degraded mode
        // chained declustering overloads the failed disk's ring neighbour
        // while interleaved declustering keeps survivors level. (The mean
        // response hides this until the hot disk saturates; the per-disk
        // utilization spread shows it at any load.)
        // In a chained layout only the redirected reads of the failed
        // disk's data land on its successor (+1/C of the read stream), so
        // the successor runs ~1.2-1.3x hotter; interleaving spreads the
        // same reads over everyone.
        let scale = ExperimentScale::tiny();
        let chained = run_point(&scale, Organization::ChainedMirror, 210.0).unwrap();
        let interleaved = run_point(&scale, Organization::InterleavedMirror, 210.0).unwrap();
        assert!(
            chained.degraded_imbalance > 1.1,
            "chained imbalance {} should be visible",
            chained.degraded_imbalance
        );
        assert!(
            interleaved.degraded_imbalance < 1.08,
            "interleaved imbalance {} should be flat",
            interleaved.degraded_imbalance
        );
        assert!(chained.degraded_imbalance > interleaved.degraded_imbalance);
    }
}
