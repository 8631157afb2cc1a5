//! Monte Carlo data-loss campaigns: second failures injected into
//! rebuilds, measuring when redundancy actually runs out.
//!
//! The paper's reliability argument (chapter 3) is analytic: a second
//! whole-disk failure during repair loses data, so MTTDL is
//! `m² / (C·(C−1)·r)` and everything hinges on shrinking the repair time
//! `r`. The simulator can interrogate the step that model takes on faith —
//! *does* a second failure during repair lose data? Under parity
//! declustering a second fault only loses the stripes that actually
//! straddle both dead disks, and a rebuild that has already passed a
//! stripe has moved it out of harm's way, so the answer is a probability,
//! not a certainty.
//!
//! A campaign measures that probability by brute force. For each layout
//! under test it first runs a clean rebuild to calibrate the repair time
//! `T`, then runs `trials` independent simulations, each injecting a
//! second whole-disk failure at a stratified time across
//! `[0, horizon_factor · T)` (the tail past `T` lands after the rebuild
//! completes and must lose nothing). Every trial is a closed deterministic
//! simulation keyed by the campaign seed and its trial index, so any
//! recorded outcome can be reproduced bit-for-bit from the report alone —
//! see [`replay_trial`] and the `campaign` binary's `--replay` flag.
//!
//! Outputs per layout: `P(loss | second fault)`, the conditional
//! `P(loss | second fault during rebuild)` the analytic model assumes to
//! be 1, the window of vulnerability in seconds, mean lost stripes, and an
//! empirically corrected MTTDL (the analytic figure divided by the
//! observed loss probability). Trials fan across cores with [`Runner`];
//! results serialize to `results/campaign.json` with a stable field
//! order.
//!
//! Two optional arms extend the whole-disk campaign:
//!
//! * **Scrub arms** ([`CampaignSpec::scrub_trials`] > 0) seed every disk
//!   with latent sector errors at [`CampaignSpec::latent_rate`] and run
//!   each trial twice — patrol scrubbing off, then on with
//!   [`CampaignSpec::scrub`]. The array serves user traffic fault-free
//!   for one calibrated rebuild time `T` (the patrol window), disk 0
//!   fails at `T`, and a second whole-disk fault lands stratified across
//!   the degraded window `[T, 2T)`. Each off/on pair shares its workload
//!   stream, fault disk, and fault times, so the arm isolates exactly one
//!   variable: how many latent defects are still exposed on the surviving
//!   disks when redundancy runs out
//!   ([`ScrubTrialOutcome::exposed_defects`]).
//! * **Crash trials** ([`CampaignSpec::crash_trials`] > 0) cut power at a
//!   stratified time during the rebuild, tearing in-flight read-modify-
//!   write parity updates, then run restart recovery under *both*
//!   policies — [`RecoveryPolicy::FullResync`] and
//!   [`RecoveryPolicy::DirtyRegionLog`] — recording the repair counts,
//!   units moved, and recovery wall time of each
//!   ([`CrashTrialOutcome`]).
//!
//! Both arms are replayable bit-for-bit ([`replay_scrub_trial`],
//! [`replay_crash_trial`]) and render into the same stable-order JSON
//! report, so a campaign is byte-identical at any thread count whether or
//! not the arms run.

use crate::runner::Runner;
use crate::{paper_layout, ExperimentScale, PAPER_DISKS};
use decluster_analytic::reliability;
use decluster_array::{
    recover, ArrayConfig, ArrayConfigBuilder, ArraySim, ConsistencyReport, CrashPlan, FaultPlan,
    ReconAlgorithm, ReconOptions, ReconReport, RecoveryPolicy, ScrubConfig,
};
use decluster_core::error::Error;
use decluster_core::layout::{LayoutSpec, ParityLayout};
use decluster_disk::MediaFaultConfig;
use decluster_sim::{json, DiskTimeline, NoProbe, Probe, Recorder, SimRng, SimTime};
use decluster_workload::WorkloadSpec;
use std::sync::Arc;

/// A repair organization under campaign test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignLayout {
    /// Parity declustering with stripe width `g`, rebuilt onto a
    /// dedicated replacement disk.
    Declustered {
        /// Parity stripe width (units per stripe, parity included).
        g: u16,
    },
    /// Left-symmetric RAID 5 across all 21 disks (`α = 1`), rebuilt onto
    /// a dedicated replacement.
    Raid5,
    /// Parity declustering with stripe width `g`, rebuilt into
    /// distributed spare slots (the failed disk stays dead).
    DistributedSparing {
        /// Parity stripe width (units per stripe, parity included).
        g: u16,
    },
    /// P+Q double-fault-tolerant declustering with stripe width `g`
    /// (two parity units per stripe), rebuilt onto a dedicated
    /// replacement. At `g = 8` the overhead (2/8) matches the
    /// single-parity `g = 4` arm (1/4), isolating what the second
    /// parity unit buys at equal capacity cost.
    Pq {
        /// Parity stripe width (units per stripe, both parities
        /// included).
        g: u16,
    },
}

impl CampaignLayout {
    /// Stable name used in reports and by the replay CLI.
    pub fn name(&self) -> String {
        match self {
            CampaignLayout::Declustered { g } => format!("declustered-g{g}"),
            CampaignLayout::Raid5 => "raid5".to_string(),
            CampaignLayout::DistributedSparing { g } => format!("distributed-sparing-g{g}"),
            CampaignLayout::Pq { g } => format!("pq-g{g}"),
        }
    }

    /// Parity stripe width.
    pub fn group(&self) -> u16 {
        match self {
            CampaignLayout::Declustered { g }
            | CampaignLayout::DistributedSparing { g }
            | CampaignLayout::Pq { g } => *g,
            CampaignLayout::Raid5 => PAPER_DISKS,
        }
    }

    /// Parity units per stripe: 2 for the P+Q arm, 1 elsewhere.
    pub fn parity_units(&self) -> u16 {
        match self {
            CampaignLayout::Pq { .. } => 2,
            _ => 1,
        }
    }

    /// Declustering ratio `α = (G−1)/(C−1)`.
    pub fn alpha(&self) -> f64 {
        (self.group() - 1) as f64 / (PAPER_DISKS - 1) as f64
    }

    fn is_distributed(&self) -> bool {
        matches!(self, CampaignLayout::DistributedSparing { .. })
    }

    /// Parses a [`CampaignLayout::name`] back into the layout.
    pub fn from_name(name: &str) -> Option<CampaignLayout> {
        if name == "raid5" {
            return Some(CampaignLayout::Raid5);
        }
        if let Some(g) = name.strip_prefix("declustered-g") {
            return g.parse().ok().map(|g| CampaignLayout::Declustered { g });
        }
        if let Some(g) = name.strip_prefix("distributed-sparing-g") {
            return g
                .parse()
                .ok()
                .map(|g| CampaignLayout::DistributedSparing { g });
        }
        if let Some(g) = name.strip_prefix("pq-g") {
            return g.parse().ok().map(|g| CampaignLayout::Pq { g });
        }
        None
    }

    /// Builds the layout this arm simulates on the paper's 21 disks: the
    /// appendix designs (or left-symmetric RAID 5) for the single-parity
    /// arms, the registry's `pq:c21gN` construction for P+Q.
    pub fn build(&self) -> Result<Arc<dyn ParityLayout>, Error> {
        match *self {
            CampaignLayout::Pq { g } => LayoutSpec::Pq {
                disks: PAPER_DISKS,
                group: g,
            }
            .build(),
            _ => paper_layout(self.group()),
        }
    }
}

/// What to run: scale, trial count, and the failure/repair parameters
/// shared by every layout.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Disk size, seeds, and simulated-time caps.
    pub scale: ExperimentScale,
    /// Layouts under test.
    pub layouts: Vec<CampaignLayout>,
    /// Monte Carlo trials per layout.
    pub trials: usize,
    /// User accesses per second (half reads, half writes) during rebuild.
    pub rate: f64,
    /// Parallel reconstruction processes.
    pub processes: usize,
    /// Per-disk MTBF in hours, for the MTTDL projection.
    pub mtbf_hours: f64,
    /// Second-fault times span `[0, horizon_factor · T)` where `T` is the
    /// layout's calibrated rebuild time; the fraction past `1.0` lands
    /// after the rebuild completes and checks that nothing is lost.
    pub horizon_factor: f64,
    /// Paired scrub-off/scrub-on trials per layout (`0` disables the
    /// scrub arm).
    pub scrub_trials: usize,
    /// Crash/recovery trials per layout (`0` disables the crash arm).
    pub crash_trials: usize,
    /// Per-sector latent defect probability seeded into every disk for
    /// the scrub arm.
    pub latent_rate: f64,
    /// Patrol-read policy for the scrub-on arm (the off arm always runs
    /// [`ScrubConfig::off`]).
    pub scrub: ScrubConfig,
}

impl CampaignSpec {
    /// The default layout set: two declustered widths, the RAID 5
    /// baseline, distributed sparing at the narrow width, and the P+Q
    /// arm at the same 25 % parity overhead as `g = 4`.
    pub fn default_layouts() -> Vec<CampaignLayout> {
        vec![
            CampaignLayout::Declustered { g: 4 },
            CampaignLayout::Declustered { g: 10 },
            CampaignLayout::Raid5,
            CampaignLayout::DistributedSparing { g: 4 },
            CampaignLayout::Pq { g: 8 },
        ]
    }

    /// Paper-scale campaign: full disks, 40 trials per layout.
    pub fn paper() -> CampaignSpec {
        CampaignSpec {
            scale: ExperimentScale::paper(),
            layouts: Self::default_layouts(),
            trials: 40,
            rate: 105.0,
            processes: 8,
            mtbf_hours: 150_000.0,
            horizon_factor: 1.25,
            scrub_trials: 20,
            crash_trials: 10,
            latent_rate: 2e-4,
            scrub: ScrubConfig::on().with_interval_us(200),
        }
    }

    /// Reduced-scale campaign for CI and the check-script smoke run.
    pub fn smoke() -> CampaignSpec {
        CampaignSpec {
            scale: ExperimentScale::smoke(),
            layouts: Self::default_layouts(),
            trials: 8,
            rate: 50.0,
            processes: 8,
            mtbf_hours: 150_000.0,
            horizon_factor: 1.25,
            scrub_trials: 4,
            crash_trials: 2,
            latent_rate: 2e-4,
            scrub: ScrubConfig::on().with_interval_us(200),
        }
    }

    /// Tiny campaign for unit tests: two layouts, a handful of trials.
    pub fn tiny() -> CampaignSpec {
        CampaignSpec {
            scale: ExperimentScale::tiny(),
            layouts: vec![CampaignLayout::Declustered { g: 4 }, CampaignLayout::Raid5],
            trials: 4,
            rate: 50.0,
            processes: 8,
            mtbf_hours: 150_000.0,
            horizon_factor: 1.25,
            scrub_trials: 3,
            crash_trials: 2,
            latent_rate: 1e-3,
            scrub: ScrubConfig::on().with_interval_us(200),
        }
    }

    /// Spare units reserved per disk for distributed-sparing layouts:
    /// an eighth of the disk, ≈ 2.5× what absorbing one failed disk
    /// across 20 survivors strictly needs.
    pub fn spare_units(&self) -> u64 {
        (self.scale.units_per_disk() / 8).max(1)
    }
}

/// One Monte Carlo trial: a second whole-disk failure injected into a
/// rebuild, and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Trial index within the layout (also the stratification slot).
    pub trial: usize,
    /// Workload stream fed to [`ArraySim::new`] — replaying with this
    /// stream and the same spec reproduces the trial bit-for-bit.
    pub seed_stream: u64,
    /// The disk that failed second (never disk 0, the first failure).
    pub second_disk: u16,
    /// When the second failure landed, in simulated seconds.
    pub second_at_secs: f64,
    /// Fraction of the first disk rebuilt when the second fault hit
    /// (`1.0` when the rebuild had already completed).
    pub rebuilt_fraction: f64,
    /// Median user response time during the trial, ms (`0` when the
    /// second fault killed the run before any request completed).
    pub user_p50_ms: f64,
    /// 95th-percentile user response time during the trial, ms.
    pub user_p95_ms: f64,
    /// 99th-percentile user response time during the trial, ms.
    pub user_p99_ms: f64,
    /// Parity stripes that lost data.
    pub lost_stripes: u64,
    /// Data units unrecoverable across those stripes.
    pub lost_data_units: u64,
    /// Parity units unrecoverable across those stripes.
    pub lost_parity_units: u64,
    /// Whether the rebuild finished before the second fault landed.
    pub recon_completed: bool,
}

impl TrialOutcome {
    /// Renders the trial as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.int("trial", self.trial)
                .int("seed_stream", self.seed_stream)
                .int("second_disk", self.second_disk)
                .float("second_at_secs", self.second_at_secs)
                .float("rebuilt_fraction", self.rebuilt_fraction)
                .float("user_p50_ms", self.user_p50_ms)
                .float("user_p95_ms", self.user_p95_ms)
                .float("user_p99_ms", self.user_p99_ms)
                .int("lost_stripes", self.lost_stripes)
                .int("lost_data_units", self.lost_data_units)
                .int("lost_parity_units", self.lost_parity_units)
                .bool("recon_completed", self.recon_completed);
        })
    }
}

/// One scrub-arm trial: latent defects seeded, a second whole-disk fault
/// injected mid-rebuild, and how many defects were still exposed on the
/// surviving disks when it hit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrubTrialOutcome {
    /// Trial index within the arm (also the stratification slot).
    pub trial: usize,
    /// Workload stream fed to [`ArraySim::new`] (disjoint from the
    /// whole-disk trial streams).
    pub seed_stream: u64,
    /// The disk that failed second (never disk 0, the first failure).
    pub second_disk: u16,
    /// When the second failure landed, in simulated seconds (stratified
    /// across `[0, T)`, always inside the rebuild window).
    pub second_at_secs: f64,
    /// Latent defective sectors still present on the surviving disks at
    /// the end of the run — the dual-failure exposure the patrol exists
    /// to shrink.
    pub exposed_defects: u64,
    /// Latent errors the patrol discovered (always `0` with scrub off).
    pub errors_found: u64,
    /// Discovered errors repaired from redundancy.
    pub errors_repaired: u64,
    /// Parity stripes that lost data in this trial.
    pub lost_stripes: u64,
}

impl ScrubTrialOutcome {
    /// Renders the trial as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.int("trial", self.trial)
                .int("seed_stream", self.seed_stream)
                .int("second_disk", self.second_disk)
                .float("second_at_secs", self.second_at_secs)
                .int("exposed_defects", self.exposed_defects)
                .int("errors_found", self.errors_found)
                .int("errors_repaired", self.errors_repaired)
                .int("lost_stripes", self.lost_stripes);
        })
    }
}

/// One side of the scrub arm (patrol off or on), folded over its trials.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrubArmSummary {
    /// Whether the patrol scrubber ran in this arm.
    pub scrub_enabled: bool,
    /// Mean latent defects exposed at second-fault time, over the arm's
    /// trials.
    pub mean_exposed_defects: f64,
    /// Total latent errors the patrol found across the arm.
    pub errors_found: u64,
    /// Total latent errors the patrol repaired across the arm.
    pub errors_repaired: u64,
    /// Fraction of the arm's trials that lost data.
    pub p_loss: f64,
    /// Every trial, in stratification order.
    pub trials: Vec<ScrubTrialOutcome>,
}

impl ScrubArmSummary {
    /// Renders the arm as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.bool("scrub_enabled", self.scrub_enabled)
                .float("mean_exposed_defects", self.mean_exposed_defects)
                .int("errors_found", self.errors_found)
                .int("errors_repaired", self.errors_repaired)
                .float("p_loss", self.p_loss)
                .array("trials", self.trials.iter().map(ScrubTrialOutcome::to_json));
        })
    }
}

/// One restart-recovery pass of a crash trial, distilled from the
/// simulator's [`ConsistencyReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// Recovery wall time, seconds.
    pub recovery_secs: f64,
    /// Stripes read and verified by the pass.
    pub stripes_checked: u64,
    /// Torn stripes the pass encountered.
    pub torn_found: u64,
    /// Torn stripes repaired (or moot on the failed disk).
    pub torn_repaired: u64,
    /// Stripe units read by the pass.
    pub units_read: u64,
    /// Stripe units written by repairs.
    pub units_written: u64,
}

impl RecoveryOutcome {
    fn from_report(r: &ConsistencyReport) -> RecoveryOutcome {
        RecoveryOutcome {
            recovery_secs: r.recovery_secs,
            stripes_checked: r.stripes_checked,
            torn_found: r.torn_found,
            torn_repaired: r.torn_repaired,
            units_read: r.resync_units_read,
            units_written: r.resync_units_written,
        }
    }

    /// Renders the pass as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.float("recovery_secs", self.recovery_secs)
                .int("stripes_checked", self.stripes_checked)
                .int("torn_found", self.torn_found)
                .int("torn_repaired", self.torn_repaired)
                .int("units_read", self.units_read)
                .int("units_written", self.units_written);
        })
    }
}

/// One crash trial: power cut mid-rebuild, then restart recovery run
/// under both policies against the same crash state.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashTrialOutcome {
    /// Trial index within the arm (also the stratification slot).
    pub trial: usize,
    /// Workload stream fed to [`ArraySim::new`] (disjoint from the other
    /// arms' streams).
    pub seed_stream: u64,
    /// When the power cut landed, in simulated seconds.
    pub crash_at_secs: f64,
    /// Stripes whose parity update was half-applied at the cut (the
    /// write hole).
    pub torn_stripes: u64,
    /// Stripes the dirty-region log named (any write in flight).
    pub dirty_stripes: u64,
    /// The full-resync recovery pass.
    pub full: RecoveryOutcome,
    /// The dirty-region-log recovery pass.
    pub drl: RecoveryOutcome,
}

impl CrashTrialOutcome {
    /// Renders the trial as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.int("trial", self.trial)
                .int("seed_stream", self.seed_stream)
                .float("crash_at_secs", self.crash_at_secs)
                .int("torn_stripes", self.torn_stripes)
                .int("dirty_stripes", self.dirty_stripes)
                .raw("full", &self.full.to_json())
                .raw("drl", &self.drl.to_json());
        })
    }
}

/// One layout's campaign outcome: the calibrated rebuild time, every
/// trial, and the loss statistics over them.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutSummary {
    /// Layout name (see [`CampaignLayout::name`]).
    pub name: String,
    /// Parity stripe width.
    pub group: u16,
    /// Declustering ratio.
    pub alpha: f64,
    /// Clean rebuild time `T` in simulated seconds (the trial horizon is
    /// `horizon_factor · T`).
    pub baseline_recon_secs: f64,
    /// Fraction of all trials that lost data.
    pub p_loss: f64,
    /// Fraction of the trials whose fault landed *during* the rebuild
    /// that lost data — the probability the analytic MTTDL model takes
    /// to be 1.
    pub p_loss_during_rebuild: f64,
    /// Mean lost stripes per trial (over all trials, zeros included).
    pub mean_lost_stripes: f64,
    /// Window of vulnerability: the span of second-fault times that lose
    /// data, `p_loss · horizon` seconds.
    pub window_secs: f64,
    /// Analytic MTTDL corrected by the measured loss probability:
    /// `m² / (C·(C−1)·r) / p_loss_during_rebuild`. A loss-free P+Q arm
    /// instead reports the two-fault Markov figure
    /// `m³ / (C·(C−1)·(C−2)·r²)` — its exposure is the three-failure
    /// chain the campaign cannot reach. `None` when a single-parity
    /// layout lost nothing (the campaign measured the MTTDL as
    /// unbounded).
    pub mttdl_hours: Option<f64>,
    /// Per-disk utilization/queue-depth timelines recorded during the
    /// calibration rebuild (bounded samples; disk 0 is the replacement).
    pub baseline_utilization: Vec<DiskTimeline>,
    /// Every trial, in stratification order.
    pub trials: Vec<TrialOutcome>,
    /// The scrub arm's off/on summaries (empty when the arm is disabled;
    /// off first, then on).
    pub scrub_arms: Vec<ScrubArmSummary>,
    /// Every crash trial, in stratification order (empty when the arm is
    /// disabled).
    pub crash_trials: Vec<CrashTrialOutcome>,
}

impl LayoutSummary {
    /// Renders the summary as a JSON object (stable key order), laid
    /// out over lines at the indent of an entry of the report's array.
    pub fn to_json(&self) -> String {
        const INDENT: &str = "      ";
        json::object(|o| {
            o.newline(INDENT)
                .str("name", &self.name)
                .int("group", self.group)
                .float("alpha", self.alpha)
                .newline(INDENT)
                .float("baseline_recon_secs", self.baseline_recon_secs)
                .float("p_loss", self.p_loss)
                .float("p_loss_during_rebuild", self.p_loss_during_rebuild)
                .newline(INDENT)
                .float("mean_lost_stripes", self.mean_lost_stripes)
                .float("window_secs", self.window_secs);
            match self.mttdl_hours {
                Some(hours) => o.float("mttdl_hours", hours),
                None => o.raw("mttdl_hours", "null"),
            };
            o.newline(INDENT);
            let utilization = self.baseline_utilization.iter();
            o.array(
                "baseline_utilization",
                utilization.map(DiskTimeline::to_json),
            );
            o.newline(INDENT);
            let trials = self.trials.iter().map(TrialOutcome::to_json);
            json::entries(o.key("trials"), trials, INDENT, INDENT);
            o.newline(INDENT);
            let arms = self.scrub_arms.iter().map(ScrubArmSummary::to_json);
            json::entries(o.key("scrub_arms"), arms, INDENT, INDENT);
            o.newline(INDENT);
            let crashes = self.crash_trials.iter().map(CrashTrialOutcome::to_json);
            json::entries(o.key("crash_trials"), crashes, INDENT, INDENT);
            o.newline("    ");
        })
    }
}

/// A whole campaign: the spec's shared parameters plus every layout's
/// summary, as written to `results/campaign.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Monte Carlo trials per layout.
    pub trials_per_layout: usize,
    /// Paired scrub-arm trials per layout (`0` when the arm was off).
    pub scrub_trials_per_layout: usize,
    /// Crash trials per layout (`0` when the arm was off).
    pub crash_trials_per_layout: usize,
    /// Per-sector latent defect probability seeded for the scrub arm.
    pub latent_rate: f64,
    /// Second-fault horizon as a multiple of each layout's rebuild time.
    pub horizon_factor: f64,
    /// Per-disk MTBF used for the MTTDL projection.
    pub mtbf_hours: f64,
    /// Campaign seed (trials are keyed off it; see [`replay_trial`]).
    pub seed: u64,
    /// Per-layout outcomes, in spec order.
    pub layouts: Vec<LayoutSummary>,
}

impl CampaignReport {
    /// Renders the report as a JSON document (stable key order; identical
    /// bytes for identical specs, whatever the thread count).
    pub fn to_json(&self) -> String {
        let mut doc = json::object(|o| {
            o.newline("  ")
                .int("trials_per_layout", self.trials_per_layout)
                .int("scrub_trials_per_layout", self.scrub_trials_per_layout)
                .int("crash_trials_per_layout", self.crash_trials_per_layout)
                .float("latent_rate", self.latent_rate)
                .float("horizon_factor", self.horizon_factor)
                .float("mtbf_hours", self.mtbf_hours)
                .int("seed", self.seed)
                .newline("  ");
            let layouts = self.layouts.iter().map(LayoutSummary::to_json);
            json::entries(o.key("layouts"), layouts, "    ", "  ");
            o.newline("");
        });
        doc.push('\n');
        doc
    }

    /// The summary for `name`, if the campaign ran that layout.
    pub fn layout(&self, name: &str) -> Option<&LayoutSummary> {
        self.layouts.iter().find(|l| l.name == name)
    }
}

/// The array configuration builder shared by every run of `layout` in
/// this campaign (arms layer media faults and scrubbing on top of it).
fn campaign_config(spec: &CampaignSpec, layout: CampaignLayout) -> ArrayConfigBuilder {
    let builder = spec.scale.config_builder();
    if layout.is_distributed() {
        builder.distributed_spares(spec.spare_units())
    } else {
        builder
    }
}

/// Builds the simulator for one campaign run of `layout` under an
/// explicit configuration and probe: disk 0 failed, rebuild started.
fn build_sim_probed<P: Probe>(
    spec: &CampaignSpec,
    layout: CampaignLayout,
    cfg: ArrayConfig,
    seed_stream: u64,
    probe: P,
) -> Result<ArraySim<P>, Error> {
    let workload = WorkloadSpec::half_and_half(spec.rate);
    let mut sim = ArraySim::new_probed(layout.build()?, cfg, workload, seed_stream, probe)?;
    sim.fail_disk(0)?;
    let mut opts = ReconOptions::new(ReconAlgorithm::Baseline).processes(spec.processes);
    if layout.is_distributed() {
        opts = opts.distributed();
    }
    sim.start_reconstruction(opts)?;
    Ok(sim)
}

/// Builds the simulator for one campaign run of `layout` under an
/// explicit configuration: disk 0 failed, rebuild started.
fn build_sim_with(
    spec: &CampaignSpec,
    layout: CampaignLayout,
    cfg: ArrayConfig,
    seed_stream: u64,
) -> Result<ArraySim, Error> {
    build_sim_probed(spec, layout, cfg, seed_stream, NoProbe)
}

/// Builds the simulator for one whole-disk run (baseline or trial) of
/// `layout` with the given workload stream.
fn build_sim(
    spec: &CampaignSpec,
    layout: CampaignLayout,
    seed_stream: u64,
) -> Result<ArraySim, Error> {
    build_sim_with(
        spec,
        layout,
        campaign_config(spec, layout).build(),
        seed_stream,
    )
}

/// Workload stream for trial `trial` (stream 0 is the baseline run).
fn trial_stream(trial: usize) -> u64 {
    trial as u64 + 1
}

/// Workload stream for scrub-arm trial `trial`: a block disjoint from
/// [`trial_stream`] so the arms never share a workload realization. The
/// off and on sides of a pair share the stream deliberately.
fn scrub_stream(trial: usize) -> u64 {
    (1 << 16) + trial as u64
}

/// Workload stream for crash trial `trial`: disjoint from both other
/// arms.
fn crash_stream(trial: usize) -> u64 {
    (1 << 17) + trial as u64
}

/// The second-failed disk for a trial: drawn from the campaign seed, the
/// layout, and the trial index; never disk 0 (the first failure).
fn second_disk(spec: &CampaignSpec, layout: CampaignLayout, trial: usize) -> u16 {
    let tag = (layout.group() as u64) << 40 | (layout.is_distributed() as u64) << 56 | trial as u64;
    let mut rng = SimRng::new(spec.scale.seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    1 + rng.below((PAPER_DISKS - 1) as u64) as u16
}

/// The stratified second-fault time for a trial: the midpoint of slot
/// `trial` across `[0, horizon_factor · baseline)`.
fn second_at_secs(spec: &CampaignSpec, baseline_secs: f64, trial: usize) -> f64 {
    let horizon = spec.horizon_factor * baseline_secs;
    (trial as f64 + 0.5) / spec.trials as f64 * horizon
}

/// Runs the clean rebuild that calibrates a layout's repair time, with a
/// [`Recorder`] probe attached so the report carries the rebuild's
/// per-disk utilization timelines.
///
/// Returns the rebuild time in seconds (the scale's reconstruction cap if
/// the rebuild did not finish under it), the bounded utilization
/// timelines, and the events processed.
fn run_baseline(
    spec: &CampaignSpec,
    layout: CampaignLayout,
) -> Result<(f64, Vec<DiskTimeline>, u64), Error> {
    let probe = Recorder::new().with_max_samples(64);
    let sim = build_sim_probed(
        spec,
        layout,
        campaign_config(spec, layout).build(),
        0,
        probe,
    )?;
    let limit = SimTime::from_secs(spec.scale.recon_limit_secs);
    let report = sim.run_until_reconstructed(limit);
    let secs = report
        .reconstruction_secs()
        .unwrap_or(spec.scale.recon_limit_secs as f64);
    let timelines = report.observations.map(|o| o.timelines).unwrap_or_default();
    Ok((secs, timelines, report.events_processed))
}

/// Runs one Monte Carlo trial against a calibrated baseline.
fn run_trial(
    spec: &CampaignSpec,
    layout: CampaignLayout,
    trial: usize,
    baseline_secs: f64,
) -> Result<(TrialOutcome, u64), Error> {
    let seed_stream = trial_stream(trial);
    let disk = second_disk(spec, layout, trial);
    let at_secs = second_at_secs(spec, baseline_secs, trial);

    let mut sim = build_sim(spec, layout, seed_stream)?;
    sim.inject_faults(&FaultPlan::new().fail_at(disk, SimTime::from_secs_f64(at_secs)))?;
    let limit = SimTime::from_secs(spec.scale.recon_limit_secs);
    let report: ReconReport = sim.run_until_reconstructed(limit);

    let loss = &report.data_loss;
    let outcome = TrialOutcome {
        trial,
        seed_stream,
        second_disk: disk,
        second_at_secs: at_secs,
        rebuilt_fraction: loss.rebuilt_fraction_before_loss().unwrap_or(1.0),
        user_p50_ms: report.ops.p50_ms(),
        user_p95_ms: report.ops.p95_ms(),
        user_p99_ms: report.ops.p99_ms(),
        lost_stripes: loss.stripes.len() as u64,
        lost_data_units: loss.lost_data_units(),
        lost_parity_units: loss.lost_parity_units(),
        recon_completed: report.reconstruction_time.is_some(),
    };
    Ok((outcome, report.events_processed))
}

/// The stratified fault/crash time for an arm trial: the midpoint of
/// slot `trial` across `[0, baseline)`, so every slot lands inside the
/// rebuild window.
fn arm_at_secs(baseline_secs: f64, trials: usize, trial: usize) -> f64 {
    (trial as f64 + 0.5) / trials.max(1) as f64 * baseline_secs
}

/// Runs one scrub-arm trial: latent defects seeded everywhere, patrol
/// off or on, then a double whole-disk failure.
///
/// The timeline has three windows, all sized by the layout's calibrated
/// rebuild time `T`: the array serves user traffic fault-free for `T`
/// (the patrol's chance to sweep — a throttled scrubber yields to busy
/// disks, so a rebuilding array is exactly where it cannot catch up),
/// disk 0 fails at `T`, and the second fault lands stratified across the
/// degraded window `[T, 2T)`. The defects still latent on the surviving
/// disks at that instant are the trial's exposure.
fn run_scrub_trial(
    spec: &CampaignSpec,
    layout: CampaignLayout,
    trial: usize,
    baseline_secs: f64,
    scrub_enabled: bool,
) -> Result<(ScrubTrialOutcome, u64), Error> {
    let seed_stream = scrub_stream(trial);
    let disk = second_disk(spec, layout, trial);
    let first_at_secs = baseline_secs.max(1.0);
    let at_secs = first_at_secs + arm_at_secs(first_at_secs, spec.scrub_trials, trial);
    let scrub = if scrub_enabled {
        spec.scrub
    } else {
        ScrubConfig::off()
    };
    let cfg = campaign_config(spec, layout)
        .media_faults(MediaFaultConfig::none().with_latent_rate(spec.latent_rate))
        .scrub(scrub)
        .build();

    let workload = WorkloadSpec::half_and_half(spec.rate);
    let mut sim = ArraySim::new(layout.build()?, cfg, workload, seed_stream)?;
    sim.inject_faults(
        &FaultPlan::new()
            .fail_at(0, SimTime::from_secs_f64(first_at_secs))
            .fail_at(disk, SimTime::from_secs_f64(at_secs)),
    )?;
    // The second fault is fatal and ends the run; the duration only has
    // to reach past it.
    let duration = SimTime::from_secs_f64(2.5 * first_at_secs);
    let report = sim.run_for(duration, SimTime::ZERO);

    let (found, repaired) = report
        .scrub
        .as_ref()
        .map_or((0, 0), |s| (s.errors_found, s.errors_repaired));
    let outcome = ScrubTrialOutcome {
        trial,
        seed_stream,
        second_disk: disk,
        second_at_secs: at_secs,
        exposed_defects: report.exposed_defects.unwrap_or(0),
        errors_found: found,
        errors_repaired: repaired,
        lost_stripes: report.data_loss.stripes.len() as u64,
    };
    Ok((outcome, report.events_processed))
}

/// Runs one crash trial: power cut at a stratified time during the
/// rebuild, then restart recovery under both policies against the
/// recorded crash state.
fn run_crash_trial(
    spec: &CampaignSpec,
    layout: CampaignLayout,
    trial: usize,
    baseline_secs: f64,
) -> Result<(CrashTrialOutcome, u64), Error> {
    let seed_stream = crash_stream(trial);
    let at_secs = arm_at_secs(baseline_secs, spec.crash_trials, trial);
    let cfg = campaign_config(spec, layout).build();

    let mut sim = build_sim_with(spec, layout, cfg, seed_stream)?;
    sim.inject_crash(&CrashPlan::at(SimTime::from_secs_f64(at_secs)))?;
    let limit = SimTime::from_secs(spec.scale.recon_limit_secs);
    let report: ReconReport = sim.run_until_reconstructed(limit);
    let crash = report.crash.as_ref().ok_or_else(|| Error::InvalidState {
        reason: format!("crash planned at {at_secs} s never fired"),
    })?;

    let full = recover(layout.build()?, &cfg, crash, RecoveryPolicy::FullResync)?;
    let drl = recover(layout.build()?, &cfg, crash, RecoveryPolicy::DirtyRegionLog)?;
    let outcome = CrashTrialOutcome {
        trial,
        seed_stream,
        crash_at_secs: at_secs,
        torn_stripes: crash.torn_stripes.len() as u64,
        dirty_stripes: crash.dirty_stripes.len() as u64,
        full: RecoveryOutcome::from_report(&full),
        drl: RecoveryOutcome::from_report(&drl),
    };
    Ok((outcome, report.events_processed))
}

/// Folds one side of the scrub arm into its summary.
fn summarize_scrub_arm(scrub_enabled: bool, trials: Vec<ScrubTrialOutcome>) -> ScrubArmSummary {
    let n = trials.len().max(1) as f64;
    let mean_exposed_defects = trials.iter().map(|t| t.exposed_defects as f64).sum::<f64>() / n;
    let p_loss = trials.iter().filter(|t| t.lost_stripes > 0).count() as f64 / n;
    ScrubArmSummary {
        scrub_enabled,
        mean_exposed_defects,
        errors_found: trials.iter().map(|t| t.errors_found).sum(),
        errors_repaired: trials.iter().map(|t| t.errors_repaired).sum(),
        p_loss,
        trials,
    }
}

/// Folds a layout's trials into its summary statistics.
fn summarize(
    spec: &CampaignSpec,
    layout: CampaignLayout,
    baseline_secs: f64,
    baseline_utilization: Vec<DiskTimeline>,
    trials: Vec<TrialOutcome>,
    scrub_arms: Vec<ScrubArmSummary>,
    crash_trials: Vec<CrashTrialOutcome>,
) -> LayoutSummary {
    let n = trials.len().max(1) as f64;
    let losses = trials.iter().filter(|t| t.lost_stripes > 0).count() as f64;
    let during = trials.iter().filter(|t| !t.recon_completed).count() as f64;
    let p_loss = losses / n;
    let p_loss_during_rebuild = if during > 0.0 { losses / during } else { 0.0 };
    let mean_lost_stripes = trials.iter().map(|t| t.lost_stripes as f64).sum::<f64>() / n;
    let horizon = spec.horizon_factor * baseline_secs;
    let repair_hours = baseline_secs / 3600.0;
    let mttdl_hours = if layout.parity_units() >= 2 && p_loss_during_rebuild == 0.0 {
        // A P+Q arm absorbs the second fault entirely, so its exposure is
        // the three-failure chain: the two-fault Markov figure applies.
        // (Were any trial to lose data, the single-fault correction below
        // would report what the measurements actually say.)
        Some(reliability::mttdl_two_fault_hours(
            PAPER_DISKS,
            spec.mtbf_hours,
            repair_hours,
        ))
    } else if p_loss_during_rebuild > 0.0 {
        let analytic = reliability::mttdl_hours(PAPER_DISKS, spec.mtbf_hours, repair_hours);
        Some(analytic / p_loss_during_rebuild)
    } else {
        None
    };
    LayoutSummary {
        name: layout.name(),
        group: layout.group(),
        alpha: layout.alpha(),
        baseline_recon_secs: baseline_secs,
        p_loss,
        p_loss_during_rebuild,
        mean_lost_stripes,
        window_secs: p_loss * horizon,
        mttdl_hours,
        baseline_utilization,
        trials,
        scrub_arms,
        crash_trials,
    }
}

/// Runs the whole campaign: one calibration rebuild per layout, then
/// `spec.trials` Monte Carlo trials per layout, all fanned across
/// `runner`'s workers.
///
/// The result is deterministic — identical at any thread count — because
/// every run is a closed simulation keyed by the spec and [`Runner`]
/// returns values in submission order.
///
/// # Errors
///
/// Returns an error if a layout cannot be built at the spec's scale (e.g.
/// spare reservation too small for the disk size).
pub fn run_campaign(spec: &CampaignSpec, runner: &Runner) -> Result<CampaignReport, Error> {
    // Phase 1: calibrate every layout's rebuild time in parallel.
    let baseline_jobs: Vec<_> = spec
        .layouts
        .iter()
        .map(|&layout| move || (run_baseline(spec, layout), 0u64))
        .collect();
    let baselines = runner.run(baseline_jobs).into_values();
    let mut calibrated = Vec::with_capacity(spec.layouts.len());
    let mut baseline_timelines = Vec::with_capacity(spec.layouts.len());
    for (&layout, outcome) in spec.layouts.iter().zip(baselines) {
        let (secs, timelines, _events) = outcome?;
        calibrated.push((layout, secs));
        baseline_timelines.push(timelines);
    }

    // Phase 2: every trial of every layout is one independent job.
    let trial_jobs: Vec<_> = calibrated
        .iter()
        .flat_map(|&(layout, secs)| {
            (0..spec.trials).map(move |trial| {
                move || match run_trial(spec, layout, trial, secs) {
                    Ok((outcome, events)) => (Ok(outcome), events),
                    Err(e) => (Err(e), 0),
                }
            })
        })
        .collect();
    let results = runner.run(trial_jobs).into_values();

    // Phase 3: the scrub arm — every layout's paired off/on trials.
    let scrub_results = if spec.scrub_trials > 0 {
        let jobs: Vec<_> = calibrated
            .iter()
            .flat_map(|&(layout, secs)| {
                [false, true].into_iter().flat_map(move |enabled| {
                    (0..spec.scrub_trials).map(move |trial| {
                        move || match run_scrub_trial(spec, layout, trial, secs, enabled) {
                            Ok((outcome, events)) => (Ok(outcome), events),
                            Err(e) => (Err(e), 0),
                        }
                    })
                })
            })
            .collect();
        runner.run(jobs).into_values()
    } else {
        Vec::new()
    };

    // Phase 4: the crash arm.
    let crash_results = if spec.crash_trials > 0 {
        let jobs: Vec<_> = calibrated
            .iter()
            .flat_map(|&(layout, secs)| {
                (0..spec.crash_trials).map(move |trial| {
                    move || match run_crash_trial(spec, layout, trial, secs) {
                        Ok((outcome, events)) => (Ok(outcome), events),
                        Err(e) => (Err(e), 0),
                    }
                })
            })
            .collect();
        runner.run(jobs).into_values()
    } else {
        Vec::new()
    };

    let mut layouts = Vec::with_capacity(calibrated.len());
    let mut results = results.into_iter();
    let mut scrub_results = scrub_results.into_iter();
    let mut crash_results = crash_results.into_iter();
    for (&(layout, secs), timelines) in calibrated.iter().zip(baseline_timelines) {
        let trials = results
            .by_ref()
            .take(spec.trials)
            .collect::<Result<Vec<_>, _>>()?;
        let mut scrub_arms = Vec::new();
        if spec.scrub_trials > 0 {
            for enabled in [false, true] {
                let arm = scrub_results
                    .by_ref()
                    .take(spec.scrub_trials)
                    .collect::<Result<Vec<_>, _>>()?;
                scrub_arms.push(summarize_scrub_arm(enabled, arm));
            }
        }
        let crash_trials = crash_results
            .by_ref()
            .take(spec.crash_trials)
            .collect::<Result<Vec<_>, _>>()?;
        layouts.push(summarize(
            spec,
            layout,
            secs,
            timelines,
            trials,
            scrub_arms,
            crash_trials,
        ));
    }
    Ok(CampaignReport {
        trials_per_layout: spec.trials,
        scrub_trials_per_layout: spec.scrub_trials,
        crash_trials_per_layout: spec.crash_trials,
        latent_rate: spec.latent_rate,
        horizon_factor: spec.horizon_factor,
        mtbf_hours: spec.mtbf_hours,
        seed: spec.scale.seed,
        layouts,
    })
}

/// Reproduces one recorded trial bit-for-bit from the spec alone: reruns
/// the layout's calibration rebuild, then the trial simulation with the
/// same derived seed, fault time, and fault disk.
///
/// # Errors
///
/// Returns an error if `trial` is out of range or the layout cannot be
/// built at the spec's scale.
pub fn replay_trial(
    spec: &CampaignSpec,
    layout: CampaignLayout,
    trial: usize,
) -> Result<TrialOutcome, Error> {
    if trial >= spec.trials {
        return Err(Error::BadParameters {
            reason: format!("trial {trial} out of range (campaign has {})", spec.trials),
        });
    }
    let (baseline_secs, _, _) = run_baseline(spec, layout)?;
    let (outcome, _) = run_trial(spec, layout, trial, baseline_secs)?;
    Ok(outcome)
}

/// Reproduces one recorded scrub-arm trial bit-for-bit from the spec
/// alone (see [`replay_trial`]).
///
/// # Errors
///
/// Returns an error if `trial` is out of range or the layout cannot be
/// built at the spec's scale.
pub fn replay_scrub_trial(
    spec: &CampaignSpec,
    layout: CampaignLayout,
    trial: usize,
    scrub_enabled: bool,
) -> Result<ScrubTrialOutcome, Error> {
    if trial >= spec.scrub_trials {
        return Err(Error::BadParameters {
            reason: format!(
                "scrub trial {trial} out of range (campaign has {})",
                spec.scrub_trials
            ),
        });
    }
    let (baseline_secs, _, _) = run_baseline(spec, layout)?;
    let (outcome, _) = run_scrub_trial(spec, layout, trial, baseline_secs, scrub_enabled)?;
    Ok(outcome)
}

/// Reproduces one recorded crash trial bit-for-bit from the spec alone:
/// the same power cut, the same torn state, and the same
/// [`ConsistencyReport`] figures under both recovery policies.
///
/// # Errors
///
/// Returns an error if `trial` is out of range or the layout cannot be
/// built at the spec's scale.
pub fn replay_crash_trial(
    spec: &CampaignSpec,
    layout: CampaignLayout,
    trial: usize,
) -> Result<CrashTrialOutcome, Error> {
    if trial >= spec.crash_trials {
        return Err(Error::BadParameters {
            reason: format!(
                "crash trial {trial} out of range (campaign has {})",
                spec.crash_trials
            ),
        });
    }
    let (baseline_secs, _, _) = run_baseline(spec, layout)?;
    let (outcome, _) = run_crash_trial(spec, layout, trial, baseline_secs)?;
    Ok(outcome)
}

/// Writes a campaign report as JSON, creating parent directories.
///
/// # Errors
///
/// Returns any underlying filesystem error.
pub fn write_campaign(
    path: impl AsRef<std::path::Path>,
    report: &CampaignReport,
) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, report.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::tiny();
        spec.layouts = vec![CampaignLayout::Declustered { g: 4 }];
        spec.trials = 4;
        spec
    }

    #[test]
    fn layout_names_round_trip() {
        for layout in CampaignSpec::default_layouts() {
            assert_eq!(CampaignLayout::from_name(&layout.name()), Some(layout));
        }
        assert_eq!(CampaignLayout::from_name("nonsense"), None);
    }

    #[test]
    fn second_disk_never_hits_the_first_failure() {
        let spec = CampaignSpec::tiny();
        for layout in CampaignSpec::default_layouts() {
            for trial in 0..64 {
                let d = second_disk(&spec, layout, trial);
                assert!((1..PAPER_DISKS).contains(&d), "trial {trial}: disk {d}");
            }
        }
    }

    #[test]
    fn fault_times_are_stratified_across_the_horizon() {
        let spec = test_spec();
        let times: Vec<f64> = (0..spec.trials)
            .map(|t| second_at_secs(&spec, 100.0, t))
            .collect();
        let horizon = spec.horizon_factor * 100.0;
        for pair in times.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert!(times[0] > 0.0 && times[spec.trials - 1] < horizon);
        // Stratification covers the post-completion tail.
        assert!(times[spec.trials - 1] > 100.0);
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let spec = test_spec();
        let seq = run_campaign(&spec, &Runner::sequential()).unwrap();
        let par = run_campaign(&spec, &Runner::new(4)).unwrap();
        assert_eq!(seq.to_json(), par.to_json());
    }

    #[test]
    fn trials_behave_physically() {
        let spec = test_spec();
        let report = run_campaign(&spec, &Runner::new(0)).unwrap();
        let layout = &report.layouts[0];
        assert!(layout.baseline_recon_secs > 0.0);
        assert!((0.0..=1.0).contains(&layout.p_loss));
        assert!((0.0..=1.0).contains(&layout.p_loss_during_rebuild));
        // The calibration rebuild was probed: every disk has a bounded
        // utilization timeline with sane values.
        assert_eq!(layout.baseline_utilization.len(), PAPER_DISKS as usize);
        for t in &layout.baseline_utilization {
            assert!(!t.samples.is_empty());
            assert!(t.samples.len() <= 65);
            assert!(t
                .samples
                .iter()
                .all(|s| (0.0..=1.0).contains(&s.utilization)));
        }
        for t in &layout.trials {
            // The latency quantiles are ordered (zeros when the second
            // fault killed the run before a request completed).
            assert!(t.user_p50_ms <= t.user_p95_ms && t.user_p95_ms <= t.user_p99_ms);
            // A fault after the rebuild completed must lose nothing.
            if t.recon_completed {
                assert_eq!(t.lost_stripes, 0, "trial {}: loss after rebuild", t.trial);
            }
            // Loss only happens with the rebuild still in flight.
            if t.lost_stripes > 0 {
                assert!(!t.recon_completed);
                assert!(t.rebuilt_fraction < 1.0);
            }
            assert_eq!(
                t.lost_data_units > 0 || t.lost_parity_units > 0,
                t.lost_stripes > 0
            );
        }
        // The stratified horizon puts the last trial past completion.
        assert!(layout.trials.last().unwrap().recon_completed);
        // And the first trial lands early in the rebuild, where the two
        // dead disks still share live stripes: data is lost.
        assert!(layout.trials[0].lost_stripes > 0);
    }

    #[test]
    fn scrub_arm_shrinks_exposure_and_repairs_errors() {
        let spec = test_spec();
        let report = run_campaign(&spec, &Runner::new(0)).unwrap();
        let layout = &report.layouts[0];
        assert_eq!(layout.scrub_arms.len(), 2, "an off arm and an on arm");
        let (off, on) = (&layout.scrub_arms[0], &layout.scrub_arms[1]);
        assert!(!off.scrub_enabled && on.scrub_enabled);
        assert_eq!(off.errors_found, 0, "no patrol, no discoveries");
        assert!(on.errors_found > 0, "the patrol must find latent errors");
        assert!(on.errors_repaired > 0, "and repair them from redundancy");
        assert!(
            on.mean_exposed_defects < off.mean_exposed_defects,
            "scrubbing must shrink the defects exposed at second-fault \
             time: on {} vs off {}",
            on.mean_exposed_defects,
            off.mean_exposed_defects
        );
        // The pairing holds: both sides saw the same fault schedule.
        for (a, b) in off.trials.iter().zip(&on.trials) {
            assert_eq!(a.seed_stream, b.seed_stream);
            assert_eq!(a.second_disk, b.second_disk);
            assert_eq!(a.second_at_secs, b.second_at_secs);
        }
    }

    #[test]
    fn pq_arm_survives_every_second_fault() {
        let mut spec = CampaignSpec::tiny();
        spec.layouts = vec![CampaignLayout::Pq { g: 8 }];
        spec.trials = 4;
        spec.scrub_trials = 0;
        spec.crash_trials = 0;
        let report = run_campaign(&spec, &Runner::new(0)).unwrap();
        let layout = &report.layouts[0];
        assert_eq!(layout.p_loss, 0.0, "P+Q must absorb any second fault");
        assert_eq!(layout.mean_lost_stripes, 0.0);
        for t in &layout.trials {
            assert_eq!(t.lost_stripes, 0, "trial {}: P+Q lost data", t.trial);
        }
        // The reported MTTDL is the two-fault Markov figure, which dwarfs
        // any single-parity correction at the same repair time.
        let mttdl = layout.mttdl_hours.expect("P+Q reports the two-fault MTTDL");
        let single = reliability::mttdl_hours(
            PAPER_DISKS,
            spec.mtbf_hours,
            layout.baseline_recon_secs / 3600.0,
        );
        assert!(mttdl > 1000.0 * single, "{mttdl} vs single-fault {single}");
    }

    #[test]
    fn crash_trials_recover_under_both_policies() {
        let spec = test_spec();
        let report = run_campaign(&spec, &Runner::new(0)).unwrap();
        let layout = &report.layouts[0];
        assert_eq!(layout.crash_trials.len(), spec.crash_trials);
        for c in &layout.crash_trials {
            // Both policies see and repair every torn stripe.
            assert_eq!(c.full.torn_found, c.torn_stripes);
            assert_eq!(c.full.torn_repaired, c.full.torn_found);
            assert_eq!(c.drl.torn_found, c.torn_stripes);
            assert_eq!(c.drl.torn_repaired, c.drl.torn_found);
            // The log names exactly the stripes the DRL pass verifies,
            // a strict subset of the full scan's read set.
            assert_eq!(c.drl.stripes_checked, c.dirty_stripes);
            assert!(c.full.stripes_checked > c.drl.stripes_checked);
            assert!(
                c.drl.units_read < c.full.units_read,
                "trial {}: the dirty-region log must bound the resync reads",
                c.trial
            );
            assert!(c.full.recovery_secs > 0.0);
            assert!(c.drl.recovery_secs <= c.full.recovery_secs);
        }
    }

    #[test]
    fn replay_reproduces_scrub_and_crash_trials_bit_for_bit() {
        let spec = test_spec();
        let layout = CampaignLayout::Declustered { g: 4 };
        let report = run_campaign(&spec, &Runner::new(0)).unwrap();
        let recorded = &report.layouts[0].scrub_arms[1].trials[1];
        let replayed = replay_scrub_trial(&spec, layout, 1, true).unwrap();
        assert_eq!(recorded.to_json(), replayed.to_json());
        assert_eq!(*recorded, replayed);
        let recorded = &report.layouts[0].crash_trials[0];
        let replayed = replay_crash_trial(&spec, layout, 0).unwrap();
        assert_eq!(recorded.to_json(), replayed.to_json());
        assert_eq!(*recorded, replayed);
        assert!(replay_scrub_trial(&spec, layout, 99, true).is_err());
        assert!(replay_crash_trial(&spec, layout, 99).is_err());
    }

    #[test]
    fn replay_reproduces_a_trial_bit_for_bit() {
        let spec = test_spec();
        let report = run_campaign(&spec, &Runner::new(0)).unwrap();
        let recorded = &report.layouts[0].trials[1];
        let replayed = replay_trial(&spec, CampaignLayout::Declustered { g: 4 }, 1).unwrap();
        assert_eq!(recorded.to_json(), replayed.to_json());
        assert_eq!(*recorded, replayed);
    }

    #[test]
    fn replay_rejects_out_of_range_trials() {
        let spec = test_spec();
        assert!(replay_trial(&spec, CampaignLayout::Declustered { g: 4 }, 99).is_err());
    }

    #[test]
    fn report_json_is_well_formed() {
        let spec = test_spec();
        let report = run_campaign(&spec, &Runner::new(0)).unwrap();
        let json = report.to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert!(json.contains("\"trials_per_layout\":4"));
        assert!(json.contains("\"scrub_trials_per_layout\":3"));
        assert!(json.contains("\"crash_trials_per_layout\":2"));
        assert!(json.contains("\"name\":\"declustered-g4\""));
        assert!(json.contains("\"mttdl_hours\":"));
        assert!(json.contains("\"user_p50_ms\":") && json.contains("\"user_p99_ms\":"));
        assert!(json.contains("\"baseline_utilization\":[{\"disk\":0,"));
        assert!(json.contains("\"scrub_enabled\":true"));
        assert!(json.contains("\"full\":{") && json.contains("\"drl\":{"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }
}
