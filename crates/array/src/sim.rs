//! The event-driven array simulator.

use crate::config::ArrayConfig;
use crate::loss::assess_second_failure;
use crate::plan::{plan_rebuild_unit_into, plan_user_access_into, FaultView, OpPlan, PlannedIo};
use crate::report::{
    CrashReport, CycleStats, DataLossReport, LossCause, LostStripe, OpStats, ReconReport,
    RunReport, ScrubReport,
};
use crate::slab::Slab;
use crate::spare::SpareMap;
use decluster_core::error::Error;
use decluster_core::layout::{ArrayMapping, ParityLayout, UnitAddr};
use decluster_core::recon::ReconAlgorithm;
use decluster_disk::{AccessOutcome, Disk, DiskRequest, IoKind, MediaFaultModel, Priority};
use decluster_sim::probe::{DiskSample, NoProbe, OpClass, Probe};
use decluster_sim::{EventQueue, SimTime};
use decluster_workload::{trace::Trace, AccessKind, UserRequest, Workload, WorkloadSpec};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Cycles kept for the "final cycles" statistics; the paper's Table 8-1
/// averages the reconstruction of the last 300 stripe units.
const LAST_CYCLE_WINDOW: usize = 300;

/// Low half of an io id: the issuing op's slot in the ops slab.
fn op_of_io(io_id: u64) -> u32 {
    (io_id & u32::MAX as u64) as u32
}

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// The pending user request arrives.
    Arrival,
    /// The access in service at a disk completes.
    DiskDone(u16),
    /// A throttled reconstruction process wakes for its next cycle.
    ReconKick(usize),
    /// A disk fails mid-run (scheduled failure injection).
    DiskFail(u16),
    /// The patrol-read scrubber wakes to (maybe) verify the next stripe.
    ScrubKick,
    /// Power is cut ([`CrashPlan`]): in-flight writes tear and the run
    /// ends with a [`CrashReport`].
    Crash,
}

/// One in-flight operation (user access, reconstruction cycle, or
/// background piggyback write).
#[derive(Debug, Default)]
struct Op {
    /// `Some` for user accesses: kind and arrival time.
    user: Option<(AccessKind, SimTime)>,
    /// Disk accesses still in flight in the current phase.
    outstanding: u32,
    /// Accesses to issue when the current phase drains.
    phase2: Vec<PlannedIo>,
    /// Replacement-disk offset marked rebuilt when the op completes.
    mark_rebuilt: Option<u64>,
    /// Replacement-disk offset to piggyback-write after completion.
    piggyback: Option<u64>,
    /// Reconstruction-cycle bookkeeping.
    recon: Option<ReconCycle>,
    /// Issue this op's accesses at background priority.
    background: bool,
    /// For sub-plans of a multi-unit user access: the parent request's
    /// slot in the parents slab.
    parent: Option<u32>,
    /// The logical span this op covers, for retry after a mid-run disk
    /// failure aborts it.
    span: Option<(u64, u64)>,
    /// Set when a disk failure dropped one of this op's accesses: the op
    /// drains its surviving accesses and is then retried.
    aborted: bool,
    /// Set when a reconstruction cycle's survivor read hit an unreadable
    /// sector: the stripe is unrecoverable, so the cycle skips its write
    /// and resolves the offset as lost instead of rebuilt.
    lost_cycle: bool,
    /// `Some((stripe, started))` for a patrol-read verify cycle of that
    /// stripe, stamped with the cycle's start time so its duration can be
    /// observed.
    scrub: Option<(u64, SimTime)>,
    /// Whether the phase currently in flight issues writes (phases are
    /// homogeneous: reads then writes). With `phase_size` this classifies
    /// the op at a crash: a write phase with some-but-not-all accesses
    /// landed is *torn*.
    writing: bool,
    /// Accesses the current phase started with (`outstanding` counts how
    /// many have not yet landed).
    phase_size: u32,
}

/// A schedule of whole-disk failures to inject into a run, built before
/// the simulation starts and installed with [`ArraySim::inject_faults`].
///
/// A plan with more than one failure (or one failure on top of an array
/// already degraded or rebuilding) drives the array beyond its
/// single-failure tolerance: the run ends at the fatal failure and the
/// report's [`DataLossReport`] enumerates the stripes that became
/// unrecoverable.
///
/// # Examples
///
/// ```
/// use decluster_array::FaultPlan;
/// use decluster_sim::SimTime;
///
/// let plan = FaultPlan::new()
///     .fail_at(3, SimTime::from_secs(10))
///     .fail_at(7, SimTime::from_secs(25));
/// assert_eq!(plan.failures().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    failures: Vec<(u16, SimTime)>,
}

impl FaultPlan {
    /// An empty plan (no failures).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a whole-disk failure of `disk` at simulated time `at`.
    pub fn fail_at(mut self, disk: u16, at: SimTime) -> FaultPlan {
        self.failures.push((disk, at));
        self
    }

    /// The scheduled failures, in insertion order.
    pub fn failures(&self) -> &[(u16, SimTime)] {
        &self.failures
    }
}

/// A scheduled power loss: at the planned instant the array stops dead —
/// every disk access still in flight is abandoned where it stood, so a
/// read-modify-write whose writes had partially landed leaves its stripe's
/// parity inconsistent with its data (the RAID-5 *write hole*).
///
/// The run ends at the cut; the report's [`CrashReport`] records exactly
/// which stripes were torn and which a dirty-region log would have named,
/// and [`crate::recovery::recover`] replays restart recovery from it.
///
/// # Examples
///
/// ```
/// use decluster_array::CrashPlan;
/// use decluster_sim::SimTime;
///
/// let plan = CrashPlan::at(SimTime::from_secs(5));
/// assert_eq!(plan.when(), SimTime::from_secs(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    at: SimTime,
}

impl CrashPlan {
    /// Cuts power at simulated time `at`.
    pub fn at(at: SimTime) -> CrashPlan {
        CrashPlan { at }
    }

    /// The planned instant of the cut.
    pub fn when(&self) -> SimTime {
        self.at
    }
}

/// Patrol-read scrubber state (present only when
/// [`crate::ScrubConfig::enabled`]).
#[derive(Debug)]
struct Scrub {
    /// Next stripe (by mapping sequence index) to verify.
    cursor: u64,
    /// Verify cycles currently in flight.
    active: u32,
    /// Accumulated statistics, moved into the run report at the end.
    report: ScrubReport,
}

/// How a rebuilt offset got resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RebuildCredit {
    /// The background sweep reconstructed it.
    Sweep,
    /// User activity reconstructed it (direct write or piggyback).
    User,
    /// Its stripe proved unrecoverable; the offset is resolved so the
    /// sweep can terminate, and counted as lost.
    Lost,
}

/// Accumulated data-loss state (second failures, unreadable sectors).
#[derive(Debug, Default)]
struct LossLog {
    stripes: Vec<LostStripe>,
    /// Stripe ids already recorded, so a media error and a later second
    /// failure never double-count a stripe.
    seen: HashSet<u64>,
    second_failure: Option<(u16, SimTime)>,
    rebuilt_before_loss: Option<(u64, u64)>,
}

impl LossLog {
    fn record(&mut self, stripe: LostStripe) {
        if self.seen.insert(stripe.stripe) {
            self.stripes.push(stripe);
        }
    }

    fn into_report(self) -> DataLossReport {
        DataLossReport {
            stripes: self.stripes,
            second_failure: self.second_failure,
            rebuilt_before_loss: self.rebuilt_before_loss,
        }
    }
}

#[derive(Debug)]
struct ReconCycle {
    process: usize,
    started: SimTime,
    read_done: Option<SimTime>,
}

/// Reconstruction state.
#[derive(Debug)]
struct Rebuild {
    failed: u16,
    algorithm: ReconAlgorithm,
    rebuilt: Vec<bool>,
    rebuilt_count: u64,
    target: u64,
    cursor: u64,
    processes: usize,
    finished: Option<SimTime>,
    cycles: CycleStats,
    recent: VecDeque<(f64, f64)>,
    swept: u64,
    by_users: u64,
    units_lost: u64,
    spares: Option<SpareMap>,
    progress: Vec<(f64, f64)>,
}

/// Where user requests come from.
#[derive(Debug)]
enum RequestSource {
    /// The synthetic generator (the paper's workload).
    Synthetic(Workload),
    /// Replay of a recorded trace; arrivals stop when it runs out.
    Trace(std::vec::IntoIter<UserRequest>),
}

impl RequestSource {
    fn next_request(&mut self) -> Option<UserRequest> {
        match self {
            RequestSource::Synthetic(w) => Some(w.next_request()),
            RequestSource::Trace(iter) => iter.next(),
        }
    }
}

/// Fault state of the array.
#[derive(Debug)]
enum Fault {
    None,
    Degraded { failed: u16 },
    Rebuilding(Box<Rebuild>),
}

/// A complete simulated array: disks, striping driver, workload, and (when
/// active) reconstruction.
///
/// A simulator instance runs exactly one scenario: configure it
/// (optionally [`ArraySim::fail_disk`] and
/// [`ArraySim::start_reconstruction`]), then consume it with
/// [`ArraySim::run_for`] or [`ArraySim::run_until_reconstructed`].
///
/// See the crate docs for an end-to-end example.
///
/// The `P` type parameter is the instrumentation [`Probe`]. It defaults
/// to [`NoProbe`], whose hooks are empty and compile away entirely, so
/// uninstrumented simulations pay nothing. Pass a
/// [`Recorder`](decluster_sim::Recorder) via [`ArraySim::new_probed`] to
/// capture latency histograms, per-disk utilization timelines, and an
/// optional event trace in the report's
/// [`observations`](RunReport::observations).
#[derive(Debug)]
pub struct ArraySim<P: Probe = NoProbe> {
    cfg: ArrayConfig,
    mapping: ArrayMapping,
    disks: Vec<Disk>,
    queue: EventQueue<Event>,
    source: RequestSource,
    pending_arrival: Option<UserRequest>,
    arrival_cutoff: SimTime,
    /// In-flight operations. A disk io's id encodes its op's slot in its
    /// low 32 bits (see [`ArraySim::issue`]), so completions find their op
    /// with one indexed load — no id→op map at all.
    ops: Slab<Op>,
    /// Multi-unit user requests awaiting their sub-plans:
    /// `(kind, arrival, outstanding sub-plans)`.
    parents: Slab<(AccessKind, SimTime, u32)>,
    /// Distinguishes ios of successive ops reusing the same slot (upper 32
    /// bits of each io id).
    io_seq: u32,
    fault: Fault,
    scheduled_failures: Vec<(u16, SimTime)>,
    loss: LossLog,
    /// Set when a failure beyond the single-failure tolerance ends the
    /// run: the time the fatal failure landed.
    terminal_at: Option<SimTime>,
    /// Patrol-read scrubber, when enabled by the configuration.
    scrub: Option<Scrub>,
    /// User requests in flight (arrived, not yet fully responded): the
    /// scrubber's idle detector.
    user_inflight: u32,
    /// Scheduled power loss, consumed when its event fires.
    crash_plan: Option<SimTime>,
    /// The write-hole state captured when the crash fired.
    crash: Option<CrashReport>,
    /// Scratch for stripe unit addresses, reused across events.
    scratch_units: Vec<UnitAddr>,
    /// Scratch plan for single-unit accesses and reconstruction cycles,
    /// reused across events.
    scratch_plan: OpPlan,
    /// Scratch for scrub-cycle reads, reused across events.
    scratch_ios: Vec<PlannedIo>,
    events_processed: u64,
    // Measurement.
    measure_from: SimTime,
    stats: OpStats,
    requests_issued: u64,
    requests_measured: u64,
    started: bool,
    /// Instrumentation hooks; [`NoProbe`] by default, in which case every
    /// call below is guarded by `P::ACTIVE` and compiles to nothing.
    probe: P,
}

/// Options for [`ArraySim::start_reconstruction`]: which algorithm runs,
/// how many parallel sweep processes it uses, and whether rebuilt units
/// land on distributed spare space instead of a replacement disk.
///
/// # Examples
///
/// ```
/// use decluster_array::ReconOptions;
/// use decluster_core::recon::ReconAlgorithm;
///
/// let opts = ReconOptions::new(ReconAlgorithm::Redirect)
///     .processes(4)
///     .distributed();
/// assert_eq!(opts.process_count(), 4);
/// assert!(opts.is_distributed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconOptions {
    algorithm: ReconAlgorithm,
    processes: usize,
    distributed: bool,
}

impl ReconOptions {
    /// Rebuild with `algorithm`, one sweep process, onto a replacement
    /// disk.
    pub fn new(algorithm: ReconAlgorithm) -> ReconOptions {
        ReconOptions {
            algorithm,
            processes: 1,
            distributed: false,
        }
    }

    /// Sets the number of parallel reconstruction processes.
    #[must_use]
    pub fn processes(mut self, processes: usize) -> ReconOptions {
        self.processes = processes;
        self
    }

    /// Rebuilds onto the array's reserved distributed spare space instead
    /// of a replacement disk (requires
    /// [`spare reservation`](crate::ArrayConfigBuilder::distributed_spares)).
    #[must_use]
    pub fn distributed(mut self) -> ReconOptions {
        self.distributed = true;
        self
    }

    /// The reconstruction algorithm.
    pub fn algorithm(&self) -> ReconAlgorithm {
        self.algorithm
    }

    /// Parallel sweep processes.
    pub fn process_count(&self) -> usize {
        self.processes
    }

    /// Whether rebuilt units land on distributed spare space.
    pub fn is_distributed(&self) -> bool {
        self.distributed
    }
}

impl ArraySim {
    /// Builds a simulator for `layout` with the paper's disk model.
    ///
    /// `seed_stream` distinguishes replicated runs of the same
    /// configuration (it is folded into the workload seed).
    ///
    /// # Errors
    ///
    /// Returns an error if the layout cannot map the configured disk size
    /// (see [`ArrayMapping::new`]).
    pub fn new(
        layout: Arc<dyn ParityLayout>,
        cfg: ArrayConfig,
        spec: WorkloadSpec,
        seed_stream: u64,
    ) -> Result<ArraySim, Error> {
        ArraySim::new_probed(layout, cfg, spec, seed_stream, NoProbe)
    }

    /// Builds a simulator that replays a recorded [`Trace`] instead of the
    /// synthetic generator. Arrivals stop when the trace is exhausted.
    ///
    /// # Errors
    ///
    /// Returns an error if the layout cannot map the configured disk size
    /// or a trace request addresses units beyond the array's capacity.
    pub fn with_trace(
        layout: Arc<dyn ParityLayout>,
        cfg: ArrayConfig,
        trace: Trace,
    ) -> Result<ArraySim, Error> {
        ArraySim::with_trace_probed(layout, cfg, trace, NoProbe)
    }
}

impl<P: Probe> ArraySim<P> {
    /// [`ArraySim::new`] with an instrumentation `probe` attached; the
    /// probe's findings come back in the report's `observations`.
    ///
    /// # Errors
    ///
    /// Returns an error if the layout cannot map the configured disk size
    /// (see [`ArrayMapping::new`]).
    pub fn new_probed(
        layout: Arc<dyn ParityLayout>,
        cfg: ArrayConfig,
        spec: WorkloadSpec,
        seed_stream: u64,
        probe: P,
    ) -> Result<ArraySim<P>, Error> {
        let mapping = ArrayMapping::new(layout, cfg.data_units_per_disk())?;
        let disks = (0..mapping.disks())
            .map(|d| Self::make_disk(&cfg, d as usize))
            .collect();
        let workload = Workload::new(
            spec,
            mapping.data_units(),
            cfg.seed ^ seed_stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        Ok(Self::with_source(
            cfg,
            mapping,
            disks,
            RequestSource::Synthetic(workload),
            probe,
        ))
    }

    /// [`ArraySim::with_trace`] with an instrumentation `probe` attached.
    ///
    /// # Errors
    ///
    /// Returns an error if the layout cannot map the configured disk size
    /// or a trace request addresses units beyond the array's capacity.
    pub fn with_trace_probed(
        layout: Arc<dyn ParityLayout>,
        cfg: ArrayConfig,
        trace: Trace,
        probe: P,
    ) -> Result<ArraySim<P>, Error> {
        let mapping = ArrayMapping::new(layout, cfg.data_units_per_disk())?;
        for r in trace.iter() {
            if r.logical_unit + r.units > mapping.data_units() {
                return Err(Error::BadParameters {
                    reason: format!(
                        "trace request [{}, +{}) beyond array capacity {}",
                        r.logical_unit,
                        r.units,
                        mapping.data_units()
                    ),
                });
            }
        }
        let disks = (0..mapping.disks())
            .map(|d| Self::make_disk(&cfg, d as usize))
            .collect();
        let source = RequestSource::Trace(trace.requests().to_vec().into_iter());
        Ok(Self::with_source(cfg, mapping, disks, source, probe))
    }

    fn with_source(
        cfg: ArrayConfig,
        mapping: ArrayMapping,
        disks: Vec<Disk>,
        source: RequestSource,
        probe: P,
    ) -> ArraySim<P> {
        // In-flight events are bounded by the disk count (one completion
        // per disk in service) plus arrivals, recon kicks, failure
        // injections, and the scrubber's self-rescheduling kick; a couple
        // of events per disk plus slack covers the working set without
        // ever regrowing the heap. `prepare_run` reserves for the
        // run-specific sources (failure plan, crash, recon kicks) once the
        // scenario is known.
        let queue = EventQueue::with_capacity(disks.len() * 2 + 64);
        ArraySim {
            cfg,
            mapping,
            disks,
            queue,
            source,
            pending_arrival: None,
            arrival_cutoff: SimTime::MAX,
            ops: Slab::new(),
            parents: Slab::new(),
            io_seq: 0,
            fault: Fault::None,
            scheduled_failures: Vec::new(),
            loss: LossLog::default(),
            terminal_at: None,
            scrub: cfg.scrub.enabled.then(|| Scrub {
                cursor: 0,
                active: 0,
                report: ScrubReport::default(),
            }),
            user_inflight: 0,
            crash_plan: None,
            crash: None,
            scratch_units: Vec::new(),
            scratch_plan: OpPlan::default(),
            scratch_ios: Vec::new(),
            events_processed: 0,
            measure_from: SimTime::ZERO,
            stats: OpStats::default(),
            requests_issued: 0,
            requests_measured: 0,
            started: false,
            probe,
        }
    }

    /// The array mapping in use.
    pub fn mapping(&self) -> &ArrayMapping {
        &self.mapping
    }

    fn make_disk(cfg: &ArrayConfig, label: usize) -> Disk {
        let mut disk = if cfg.recon_priority {
            Disk::with_priority_scheduling(cfg.geometry, label, cfg.sched)
        } else {
            Disk::with_policy(cfg.geometry, label, cfg.sched)
        };
        if cfg.media_faults.is_active() {
            disk.set_fault_model(MediaFaultModel::new(cfg.media_faults, label));
        }
        disk
    }

    fn invalid<T>(reason: impl Into<String>) -> Result<T, Error> {
        Err(Error::InvalidState {
            reason: reason.into(),
        })
    }

    /// Marks `disk` failed (degraded mode, no replacement yet).
    ///
    /// # Errors
    ///
    /// Returns an error if called after a run started, if the disk is out
    /// of range, if a disk already failed (at most one failure may exist
    /// before the run — further failures are *scheduled* with
    /// [`ArraySim::inject_faults`]), or if `disk` is already scheduled to
    /// fail.
    pub fn fail_disk(&mut self, disk: u16) -> Result<(), Error> {
        if self.started {
            return Self::invalid("fail_disk must precede the run");
        }
        if disk >= self.mapping.disks() {
            return Self::invalid(format!("disk {disk} out of range"));
        }
        if !matches!(self.fault, Fault::None) {
            return Self::invalid("a disk already failed before the run");
        }
        if self.scheduled_failures.iter().any(|&(d, _)| d == disk) {
            return Self::invalid(format!("disk {disk} is already scheduled to fail"));
        }
        self.fault = Fault::Degraded { failed: disk };
        Ok(())
    }

    /// Schedules `disk` to fail at `at`, mid-run: accesses in flight on it
    /// are lost and the operations that issued them retry under the
    /// degraded state — the continuous-operation transition the paper's
    /// steady-state experiments bracket from both sides.
    ///
    /// If the failure lands while the array is already degraded or
    /// rebuilding, it exceeds the single-failure tolerance: the run ends
    /// there and the report's [`DataLossReport`] lists the stripes lost.
    ///
    /// # Errors
    ///
    /// Returns an error if a run started, `disk` is out of range, `disk`
    /// already failed, or `disk` is already scheduled to fail.
    pub fn fail_disk_at(&mut self, disk: u16, at: SimTime) -> Result<(), Error> {
        self.schedule_failure(disk, at)
    }

    /// Installs a whole [`FaultPlan`]: every failure in the plan is
    /// scheduled for injection when the run starts.
    ///
    /// # Errors
    ///
    /// Returns an error if a run started, or if any planned failure is
    /// out of range, duplicates an already-failed disk, or duplicates
    /// another scheduled failure. Failures before the error were already
    /// installed; discard the simulator on error.
    pub fn inject_faults(&mut self, plan: &FaultPlan) -> Result<(), Error> {
        for &(disk, at) in plan.failures() {
            self.schedule_failure(disk, at)?;
        }
        Ok(())
    }

    /// Installs a [`CrashPlan`]: power is cut at the planned time, tearing
    /// in-flight parity updates, and the run ends there with a
    /// [`CrashReport`] in the run's report.
    ///
    /// # Errors
    ///
    /// Returns an error if a run started or a crash is already planned.
    pub fn inject_crash(&mut self, plan: &CrashPlan) -> Result<(), Error> {
        if self.started {
            return Self::invalid("crash injection must precede the run");
        }
        if self.crash_plan.is_some() {
            return Self::invalid("a crash is already planned");
        }
        self.crash_plan = Some(plan.when());
        Ok(())
    }

    fn schedule_failure(&mut self, disk: u16, at: SimTime) -> Result<(), Error> {
        if self.started {
            return Self::invalid("fault injection must precede the run");
        }
        if disk >= self.mapping.disks() {
            return Self::invalid(format!("disk {disk} out of range"));
        }
        let already_failed = match &self.fault {
            Fault::None => None,
            Fault::Degraded { failed } => Some(*failed),
            Fault::Rebuilding(r) => Some(r.failed),
        };
        // Note: under a dedicated replacement the failed disk's slot holds
        // a fresh drive once reconstruction is armed; re-failing that slot
        // is still rejected to keep failure identities unambiguous.
        if already_failed == Some(disk) {
            return Self::invalid(format!("disk {disk} already failed"));
        }
        if self.scheduled_failures.iter().any(|&(d, _)| d == disk) {
            return Self::invalid(format!("disk {disk} is already scheduled to fail"));
        }
        self.scheduled_failures.push((disk, at));
        Ok(())
    }

    /// Arms reconstruction of the failed disk per `opts`.
    ///
    /// Under the default (dedicated-replacement) options a fresh drive is
    /// swapped into the failed slot and `opts.process_count()` processes
    /// rebuild it running `opts.algorithm()`. With
    /// [`ReconOptions::distributed`] the failed disk stays dead and every
    /// lost unit is rebuilt into a reserved spare slot on a surviving disk
    /// (see [`crate::spare::SpareMap`]).
    ///
    /// # Errors
    ///
    /// Returns an error if no disk has failed, a run has already started,
    /// or `opts.process_count()` is zero. Distributed sparing additionally
    /// requires reserved spare space
    /// ([`ArrayConfigBuilder::distributed_spares`](crate::ArrayConfigBuilder::distributed_spares))
    /// that can absorb the failed disk (the [`SpareMap::build`] error is
    /// propagated).
    pub fn start_reconstruction(&mut self, opts: ReconOptions) -> Result<(), Error> {
        if opts.distributed && self.cfg.spare_units_per_disk == 0 {
            return Self::invalid("distributed sparing requires reserved spare space");
        }
        let failed = self.check_rebuild_preconditions(opts.processes)?;
        let spares = if opts.distributed {
            Some(SpareMap::build(
                &self.mapping,
                failed,
                self.cfg.spare_units_per_disk,
            )?)
        } else {
            // Physically swap in a new drive.
            self.disks[failed as usize] = Self::make_disk(&self.cfg, failed as usize);
            None
        };
        self.arm_rebuild(failed, opts.algorithm, opts.processes, spares);
        Ok(())
    }

    fn check_rebuild_preconditions(&self, processes: usize) -> Result<u16, Error> {
        if self.started {
            return Self::invalid("start_reconstruction must precede the run");
        }
        if processes == 0 {
            return Self::invalid("need at least one reconstruction process");
        }
        match self.fault {
            Fault::Degraded { failed } => Ok(failed),
            _ => Self::invalid("start_reconstruction requires a failed disk"),
        }
    }

    fn arm_rebuild(
        &mut self,
        failed: u16,
        algorithm: ReconAlgorithm,
        processes: usize,
        spares: Option<SpareMap>,
    ) {
        let units = self.mapping.units_per_disk();
        let target = (0..units)
            .filter(|&o| self.mapping.role_at(failed, o) != decluster_core::UnitRole::Unmapped)
            .count() as u64;
        self.fault = Fault::Rebuilding(Box::new(Rebuild {
            failed,
            algorithm,
            rebuilt: vec![false; units as usize],
            rebuilt_count: 0,
            target,
            cursor: 0,
            processes,
            finished: None,
            cycles: CycleStats::default(),
            recent: VecDeque::with_capacity(LAST_CYCLE_WINDOW + 1),
            swept: 0,
            by_users: 0,
            units_lost: 0,
            spares,
            progress: Vec::with_capacity(101),
        }));
    }

    /// Marks the run started and schedules every pre-planned event source
    /// (failure injections, the crash, the scrubber's first kick, the
    /// first arrival), reserving queue head-room for all of them up front
    /// so the event heap never regrows mid-run — the scrubber's backoff
    /// re-arm used to push past the initial capacity.
    fn prepare_run(&mut self) {
        self.started = true;
        let recon_processes = match &self.fault {
            Fault::Rebuilding(r) => r.processes,
            _ => 0,
        };
        self.queue.reserve(
            self.scheduled_failures.len()
                + usize::from(self.crash_plan.is_some())
                + if self.scrub.is_some() { 2 } else { 0 }
                + recon_processes
                + 1,
        );
        for &(disk, at) in &self.scheduled_failures {
            self.queue.schedule(at, Event::DiskFail(disk));
        }
        if let Some(at) = self.crash_plan {
            self.queue.schedule(at, Event::Crash);
        }
        self.schedule_first_scrub_kick();
        self.schedule_next_arrival();
    }

    /// One probe sampling pass over the disks, run after each dispatched
    /// event when the probe is active and its sampling interval elapsed.
    fn probe_disks(&mut self, now: SimTime) {
        if !self.probe.sample_due(now) {
            return;
        }
        for d in &self.disks {
            self.probe.disk_sample(
                now,
                DiskSample {
                    disk: d.label() as u16,
                    busy_us: d.stats().busy_us,
                    queue_depth: d.queue_len() as u32 + u32::from(d.is_busy()),
                },
            );
        }
    }

    /// Runs a steady-state scenario (fault-free or degraded): user requests
    /// arrive until `duration`, responses of requests arriving after
    /// `warmup` are measured, and the run drains before reporting.
    ///
    /// A scheduled failure beyond the single-failure tolerance ends the
    /// run early: `elapsed` is truncated to the fatal failure's time and
    /// the report's [`RunReport::data_loss`] lists the stripes lost.
    ///
    /// # Panics
    ///
    /// Panics if reconstruction was armed (use
    /// [`ArraySim::run_until_reconstructed`]) or `warmup >= duration`.
    pub fn run_for(mut self, duration: SimTime, warmup: SimTime) -> RunReport {
        assert!(
            !matches!(self.fault, Fault::Rebuilding(_)),
            "run_for is for steady-state scenarios"
        );
        assert!(warmup < duration, "warmup must precede duration");
        self.measure_from = warmup;
        self.arrival_cutoff = duration;
        self.prepare_run();

        while let Some((now, event)) = self.queue.pop() {
            self.dispatch(now, event);
            if P::ACTIVE {
                self.probe_disks(now);
            }
            if self.terminal_at.is_some() {
                break;
            }
        }

        let elapsed = self.terminal_at.unwrap_or(duration);
        let first_failed = match self.fault {
            Fault::Degraded { failed } => Some(failed),
            _ => None,
        };
        let healthy: Vec<&Disk> = self
            .disks
            .iter()
            .filter(|d| Some(d.label() as u16) != first_failed && !d.is_failed())
            .collect();
        let mean_util = healthy
            .iter()
            .map(|d| d.stats().utilization(elapsed))
            .sum::<f64>()
            / healthy.len() as f64;
        let per_disk = self
            .disks
            .iter()
            .map(|d| d.stats().utilization(elapsed))
            .collect();
        let exposed = self.exposed_defects(first_failed);
        let observations = if P::ACTIVE {
            self.probe.collect(elapsed)
        } else {
            None
        };
        RunReport {
            ops: self.stats,
            elapsed,
            requests_issued: self.requests_issued,
            requests_measured: self.requests_measured,
            mean_disk_utilization: mean_util,
            per_disk_utilization: per_disk,
            events_processed: self.events_processed,
            data_loss: self.loss.into_report(),
            scrub: self.scrub.map(|s| s.report),
            crash: self.crash,
            exposed_defects: exposed,
            observations,
        }
    }

    /// Runs the reconstruction scenario: user requests flow continuously
    /// while the armed processes rebuild the replacement disk. Stops when
    /// the last unit is rebuilt, or at `limit`.
    ///
    /// Scheduled failures ([`ArraySim::inject_faults`]) fire mid-rebuild:
    /// a second whole-disk failure ends the run at its injection time with
    /// the stripes lost recorded in [`ReconReport::data_loss`]. When the
    /// rebuild completes before any pending failure fires, the run keeps
    /// serving user requests until the failure lands, so a post-completion
    /// failure verifies the restored redundancy (zero loss under a
    /// dedicated replacement).
    ///
    /// # Panics
    ///
    /// Panics if reconstruction was not armed.
    pub fn run_until_reconstructed(mut self, limit: SimTime) -> ReconReport {
        let processes = match &self.fault {
            Fault::Rebuilding(r) => r.processes,
            _ => panic!("run_until_reconstructed requires start_reconstruction"),
        };
        self.measure_from = SimTime::ZERO;
        // Disruptions the run must wait for even after the rebuild
        // finishes: scheduled failures and the planned crash.
        let mut pending_disruptions =
            self.scheduled_failures.len() + usize::from(self.crash_plan.is_some());
        self.prepare_run();
        for p in 0..processes {
            self.start_recon_cycle(p, SimTime::ZERO);
        }

        let mut finish = None;
        while let Some((now, event)) = self.queue.pop() {
            if now > limit {
                break;
            }
            if matches!(event, Event::DiskFail(_) | Event::Crash) {
                pending_disruptions -= 1;
            }
            self.dispatch(now, event);
            if P::ACTIVE {
                self.probe_disks(now);
            }
            if self.terminal_at.is_some() {
                break;
            }
            if let Fault::Rebuilding(r) = &self.fault {
                if let Some(t) = r.finished {
                    finish = Some(t);
                    if pending_disruptions == 0 {
                        break;
                    }
                }
            }
        }

        let end = self.terminal_at.or(finish).unwrap_or(limit);
        let exposed = match &self.fault {
            Fault::Rebuilding(r) => self.exposed_defects(Some(r.failed)),
            _ => None,
        };
        let r = match self.fault {
            Fault::Rebuilding(r) => r,
            _ => unreachable!(),
        };
        let distributed = r.spares.is_some();
        let survivors: Vec<&Disk> = self
            .disks
            .iter()
            .filter(|d| d.label() as u16 != r.failed && !d.is_failed())
            .collect();
        let survivor_util = survivors
            .iter()
            .map(|d| d.stats().utilization(end))
            .sum::<f64>()
            / survivors.len() as f64;
        let mut last_cycles = CycleStats::default();
        for &(read, write) in &r.recent {
            last_cycles.read_ms.push(read);
            last_cycles.write_ms.push(write);
        }
        let observations = if P::ACTIVE {
            self.probe.collect(end)
        } else {
            None
        };
        ReconReport {
            reconstruction_time: finish,
            ops: self.stats,
            cycles: r.cycles,
            last_cycles,
            units_swept: r.swept,
            units_by_users: r.by_users,
            units_lost: r.units_lost,
            units_total: r.target,
            progress: r.progress,
            survivor_utilization: survivor_util,
            replacement_utilization: if distributed || self.disks[r.failed as usize].is_failed() {
                0.0 // no (live) replacement disk exists
            } else {
                self.disks[r.failed as usize].stats().utilization(end)
            },
            events_processed: self.events_processed,
            data_loss: self.loss.into_report(),
            scrub: self.scrub.map(|s| s.report),
            crash: self.crash,
            exposed_defects: exposed,
            observations,
        }
    }

    // --- Event handling --------------------------------------------------

    fn dispatch(&mut self, now: SimTime, event: Event) {
        self.events_processed += 1;
        match event {
            Event::Arrival => self.on_arrival(now),
            Event::DiskDone(disk) => self.on_disk_done(disk, now),
            Event::ReconKick(process) => self.start_recon_cycle(process, now),
            Event::DiskFail(disk) => self.on_disk_fail(disk, now),
            Event::ScrubKick => self.on_scrub_kick(now),
            Event::Crash => self.on_crash(now),
        }
    }

    fn on_disk_fail(&mut self, disk: u16, now: SimTime) {
        if !matches!(self.fault, Fault::None) {
            self.on_fatal_failure(disk, now);
            return;
        }
        self.fault = Fault::Degraded { failed: disk };
        for io_id in self.disks[disk as usize].fail() {
            let op_id = op_of_io(io_id);
            let op = self.ops.get_mut(op_id).expect("lost io belongs to no op");
            debug_assert!(op.recon.is_none(), "no reconstruction during steady state");
            op.aborted = true;
            op.outstanding -= 1;
            if op.outstanding == 0 {
                self.retry_op(op_id, now);
            }
        }
        // An op whose in-flight ios all live on surviving disks is not in
        // the lost-io list above, yet its queued phase-2 writes may still
        // name the dead disk (the plan predates the failure; a completed
        // phase-1 read on the dying disk leaves no in-flight trace).
        // Abort those too, so they drain and replan under the degraded
        // view instead of submitting to a failed disk.
        let stale: Vec<u32> = self
            .ops
            .iter()
            .filter(|(_, op)| !op.aborted && op.phase2.iter().any(|io| io.disk == disk))
            .map(|(id, _)| id)
            .collect();
        for op_id in stale {
            let op = self.ops.get_mut(op_id).expect("stale op vanished");
            debug_assert!(op.outstanding > 0, "live op with no in-flight io");
            op.aborted = true;
        }
    }

    /// A whole-disk failure landed while the array was already degraded
    /// or rebuilding: assess which stripes are now unrecoverable, record
    /// the loss, and end the run (the caller's event loop observes
    /// `terminal_at`).
    fn on_fatal_failure(&mut self, disk: u16, now: SimTime) {
        let (first, rebuilt, spares, progress) = match &self.fault {
            Fault::Degraded { failed } => (Some(*failed), None, None, None),
            Fault::Rebuilding(r) => (
                Some(r.failed),
                Some(r.rebuilt.as_slice()),
                r.spares.as_ref(),
                Some((r.rebuilt_count, r.target)),
            ),
            Fault::None => unreachable!("fatal failure requires a prior fault"),
        };
        let lost = assess_second_failure(&self.mapping, first, disk, rebuilt, spares);
        for stripe in lost {
            self.loss.record(stripe);
        }
        self.loss.second_failure = Some((disk, now));
        self.loss.rebuilt_before_loss = progress;
        // The run is over: in-flight ios on the dead disk are dropped
        // without retry.
        self.disks[disk as usize].fail();
        self.terminal_at = Some(now);
    }

    /// Retries an aborted user operation under the current fault view; the
    /// original arrival time is preserved so the retry's latency counts.
    fn retry_op(&mut self, op_id: u32, now: SimTime) {
        let op = self.ops.remove(op_id).expect("retrying unknown op");
        let Some((start, count)) = op.span else {
            // Background work: a piggyback write is simply dropped, but a
            // scrub cycle must release its in-flight slot or the patrol
            // stalls at its outstanding cap.
            if op.scrub.is_some() {
                self.finish_scrub_cycle();
            }
            return;
        };
        if count == 1 {
            let kind = op
                .user
                .map(|(k, _)| k)
                .or_else(|| {
                    op.parent
                        .map(|p| self.parents.get(p).expect("parent alive").0)
                })
                .expect("user spans carry a kind");
            self.launch_unit(kind, start, op.user, op.parent, now);
        } else {
            let parent_id = op.parent.expect("multi-unit spans have parents");
            let kind = self.parents.get(parent_id).expect("parent alive").0;
            let extent = crate::extent::plan_extent(&self.mapping, kind, start, count, self.view());
            // The aborted sub-plan is replaced by possibly several plans.
            self.parents.get_mut(parent_id).expect("parent alive").2 +=
                extent.plans.len() as u32 - 1;
            for (mut plan, span) in extent.plans.into_iter().zip(extent.spans) {
                self.launch_plan(&mut plan, None, Some(parent_id), span, now);
            }
        }
    }

    /// Plans one single-unit user access into the reusable scratch plan
    /// (taken out for the call because the planner also borrows the fault
    /// state) and launches it.
    fn launch_unit(
        &mut self,
        kind: AccessKind,
        logical: u64,
        user: Option<(AccessKind, SimTime)>,
        parent: Option<u32>,
        now: SimTime,
    ) {
        let mut plan = std::mem::take(&mut self.scratch_plan);
        plan_user_access_into(&self.mapping, kind.into(), logical, self.view(), &mut plan);
        self.launch_plan(&mut plan, user, parent, (logical, 1), now);
        self.scratch_plan = plan;
    }

    /// Launches a user (sub-)plan covering `span` as an op: phase 1 goes
    /// to the disks now, phase 2 moves into the op until phase 1 drains.
    fn launch_plan(
        &mut self,
        plan: &mut OpPlan,
        user: Option<(AccessKind, SimTime)>,
        parent: Option<u32>,
        span: (u64, u64),
        now: SimTime,
    ) {
        let op = Op {
            user,
            phase2: std::mem::take(&mut plan.phase2),
            mark_rebuilt: plan.mark_rebuilt.map(|a| a.offset),
            piggyback: plan.piggyback.map(|a| a.offset),
            parent,
            span: Some(span),
            ..Op::default()
        };
        let op_id = self.insert_op(op);
        self.issue(op_id, &plan.phase1, now);
    }

    fn schedule_next_arrival(&mut self) {
        let Some(req) = self.source.next_request() else {
            return; // trace exhausted
        };
        if req.arrival >= self.arrival_cutoff {
            return;
        }
        self.queue.schedule(req.arrival, Event::Arrival);
        self.pending_arrival = Some(req);
    }

    fn on_arrival(&mut self, now: SimTime) {
        let req = self
            .pending_arrival
            .take()
            .expect("Arrival event without a pending request");
        debug_assert_eq!(req.arrival, now);
        self.requests_issued += 1;
        self.user_inflight += 1;
        if req.units == 1 {
            self.launch_unit(req.kind, req.logical_unit, Some((req.kind, now)), None, now);
        } else {
            // Multi-unit access: the extent planner may merge fully covered
            // stripes into single large writes (criterion 5); the request
            // completes when every sub-plan does.
            let extent = crate::extent::plan_extent(
                &self.mapping,
                req.kind,
                req.logical_unit,
                req.units,
                self.view(),
            );
            let parent_id = self
                .parents
                .insert((req.kind, now, extent.plans.len() as u32));
            for (mut plan, span) in extent.plans.into_iter().zip(extent.spans) {
                self.launch_plan(&mut plan, None, Some(parent_id), span, now);
            }
        }
        self.schedule_next_arrival();
    }

    fn on_disk_done(&mut self, disk: u16, now: SimTime) {
        if self.disks[disk as usize].is_failed() {
            return; // stale completion event from before the failure
        }
        let (done, next) = self.disks[disk as usize].complete(now);
        if let Some(c) = next {
            self.queue.schedule(c.at, Event::DiskDone(disk));
        }
        let op_id = op_of_io(done.id);
        if let AccessOutcome::MediaError { .. } = done.outcome {
            self.on_media_error(op_id, disk, done.start_sector);
        }
        self.advance_op(op_id, now);
    }

    /// A read exhausted its retries on an unreadable sector. The sector is
    /// remapped (healed) so follow-up accesses succeed; whether data was
    /// *lost* depends on the stripe: with full redundancy the unit is
    /// recoverable from the surviving units and the issuing op simply
    /// retries, but if the stripe was already missing a unit (failed disk,
    /// not yet rebuilt) the error makes it unrecoverable.
    fn on_media_error(&mut self, op_id: u32, disk: u16, start_sector: u64) {
        self.disks[disk as usize].heal(start_sector, self.cfg.unit_sectors);
        let offset = start_sector / self.cfg.unit_sectors as u64;
        // Assess the stripe first: is it unrecoverable (this unit plus a
        // missing one elsewhere)? `None` for spare-region accesses (the
        // stripe is accounted via its home unit) and unmapped holes.
        let loss_info = if offset >= self.mapping.units_per_disk() {
            None
        } else {
            self.assess_media_error(disk, offset)
        };
        let unrecoverable = matches!(loss_info, Some((_, d, p)) if d + p >= 2);
        let op = self.ops.get_mut(op_id).expect("media error on unknown op");
        let is_scrub = op.scrub.is_some();
        let mut repaired = false;
        if is_scrub {
            // The patrol found a latent error. With full redundancy the
            // unit is recoverable from the units this cycle is already
            // reading: rewrite it (the heal above reallocated the
            // sector; the write models the repair I/O). On a stripe
            // already missing a unit there is nothing to rebuild from —
            // the loss is recorded below.
            if !unrecoverable {
                op.phase2
                    .push(PlannedIo::write(UnitAddr::new(disk, offset)));
                repaired = true;
            }
        } else if op.recon.is_some() {
            // A reconstruction cycle lost a survivor: the stripe under
            // rebuild is gone. The cycle resolves its offset as lost when
            // its remaining reads drain.
            op.lost_cycle = true;
        } else {
            // User (or piggyback) work: drain and retry — the healed
            // sector reads clean, modelling recovery from redundancy
            // (or fabricated data if the stripe was already degraded;
            // the loss is recorded below either way).
            op.aborted = true;
        }
        if is_scrub {
            let scrub = self.scrub.as_mut().expect("scrub op without scrubber");
            scrub.report.errors_found += 1;
            if repaired {
                scrub.report.errors_repaired += 1;
            }
        }
        if let Some((stripe, data, parity)) = loss_info {
            if data + parity > self.mapping.parity_units_per_stripe() {
                self.loss.record(LostStripe {
                    stripe,
                    data_units: data,
                    parity_units: parity,
                    cause: LossCause::MediaError { disk },
                });
            }
        }
    }

    /// Counts how many of the stripe's units are unavailable given a media
    /// error at `(disk, offset)`: the erroring unit itself plus anything
    /// on the failed, not-yet-rebuilt disk. Returns
    /// `(stripe, data unavailable, parity unavailable)`, or `None` off the
    /// mapped space.
    fn assess_media_error(&mut self, disk: u16, offset: u64) -> Option<(u64, u16, u16)> {
        let stripe = self.mapping.role_at(disk, offset).stripe()?;
        let mut units = std::mem::take(&mut self.scratch_units);
        units.clear();
        self.mapping.stripe_units_into(stripe, &mut units);
        // Parity units are ordered last; a stripe survives as long as
        // its unavailable units stay within that parity count.
        let first_parity = units.len() - self.mapping.parity_units_per_stripe() as usize;
        let view = self.view();
        let mut data = 0u16;
        let mut parity = 0u16;
        for (i, &u) in units.iter().enumerate() {
            if u == UnitAddr::new(disk, offset) || view.is_lost(u) {
                if i >= first_parity {
                    parity += 1;
                } else {
                    data += 1;
                }
            }
        }
        self.scratch_units = units;
        Some((stripe, data, parity))
    }

    fn advance_op(&mut self, op_id: u32, now: SimTime) {
        let op = self.ops.get_mut(op_id).expect("op vanished mid-flight");
        op.outstanding -= 1;
        if op.outstanding > 0 {
            return;
        }
        if op.aborted {
            self.retry_op(op_id, now);
            return;
        }
        if op.lost_cycle {
            // The cycle's stripe is unrecoverable: skip the rebuild write,
            // resolve the offset as lost so the sweep still terminates.
            let op = self.ops.remove(op_id).expect("op vanished at loss");
            if let Some(offset) = op.mark_rebuilt {
                self.mark_rebuilt(offset, now, RebuildCredit::Lost);
            }
            if let Some(rc) = op.recon {
                self.finish_recon_cycle(rc, now);
            }
            return;
        }
        if !op.phase2.is_empty() {
            // Phase 1 drained: note the read-phase boundary for cycles and
            // launch the writes.
            if let Some(rc) = &mut op.recon {
                rc.read_done = Some(now);
            }
            let mut ios = std::mem::take(&mut op.phase2);
            self.issue(op_id, &ios, now);
            // Hand the emptied buffer back to the scratch plan, whose own
            // phase 2 moved into an op: planning stays allocation-free.
            if self.scratch_plan.phase2.capacity() == 0 {
                ios.clear();
                self.scratch_plan.phase2 = ios;
            }
            return;
        }
        // Fully complete.
        let op = self.ops.remove(op_id).expect("op vanished at completion");
        if let Some((kind, arrival)) = op.user {
            self.user_inflight -= 1;
            if arrival >= self.measure_from {
                self.record_user_response(kind, now - arrival, now);
            }
        }
        if let Some(offset) = op.mark_rebuilt {
            let credit = if op.recon.is_none() {
                RebuildCredit::User
            } else {
                RebuildCredit::Sweep
            };
            self.mark_rebuilt(offset, now, credit);
        }
        if let Some(offset) = op.piggyback {
            self.spawn_piggyback_write(offset, now);
        }
        if let Some(parent_id) = op.parent {
            let done = {
                let entry = self
                    .parents
                    .get_mut(parent_id)
                    .expect("sub-plan without a parent");
                entry.2 -= 1;
                entry.2 == 0
            };
            if done {
                let (kind, arrival, _) = self.parents.remove(parent_id).expect("parent vanished");
                self.user_inflight -= 1;
                if arrival >= self.measure_from {
                    self.record_user_response(kind, now - arrival, now);
                }
            }
        }
        if let Some(rc) = op.recon {
            self.finish_recon_cycle(rc, now);
        }
        if let Some((_, started)) = op.scrub {
            self.finish_scrub_cycle();
            if P::ACTIVE {
                self.probe.latency(now, OpClass::Scrub, now - started);
            }
        }
    }

    /// Records one measured user response into the always-on [`OpStats`]
    /// and, when instrumentation is active, into the probe's per-class
    /// histograms.
    fn record_user_response(&mut self, kind: AccessKind, response: SimTime, now: SimTime) {
        match kind {
            AccessKind::Read => {
                self.stats.record_read(response);
                if P::ACTIVE {
                    self.probe.latency(now, OpClass::UserRead, response);
                }
            }
            AccessKind::Write => {
                self.stats.record_write(response);
                if P::ACTIVE {
                    self.probe.latency(now, OpClass::UserWrite, response);
                }
            }
        }
        self.requests_measured += 1;
    }

    fn insert_op(&mut self, op: Op) -> u32 {
        self.ops.insert(op)
    }

    fn issue(&mut self, op_id: u32, ios: &[PlannedIo], now: SimTime) {
        assert!(!ios.is_empty(), "op {op_id} issued an empty phase");
        let background = {
            let op = self.ops.get_mut(op_id).expect("issuing for unknown op");
            op.outstanding = ios.len() as u32;
            op.phase_size = ios.len() as u32;
            op.writing = ios.iter().any(|io| io.kind == IoKind::Write);
            op.background
        };
        let priority = if background {
            Priority::Background
        } else {
            Priority::User
        };
        for io in ios {
            if let Fault::Rebuilding(r) = &self.fault {
                debug_assert!(
                    r.spares.is_none() || io.disk != r.failed,
                    "distributed sparing issued io to the dead disk {}",
                    r.failed
                );
            }
            // An io id carries its op's slot in the low half and a
            // sequence number in the high half: completions decode the op
            // directly, and concurrent ios of slot-reusing ops still get
            // distinct disk-request ids.
            let io_id = ((self.io_seq as u64) << 32) | op_id as u64;
            self.io_seq = self.io_seq.wrapping_add(1);
            let request = DiskRequest::new(
                io_id,
                io.offset * self.cfg.unit_sectors as u64,
                self.cfg.unit_sectors,
                io.kind,
            )
            .with_priority(priority);
            if let Some(c) = self.disks[io.disk as usize].submit(now, request) {
                self.queue.schedule(c.at, Event::DiskDone(io.disk));
            }
        }
    }

    fn view(&self) -> FaultView<'_> {
        match &self.fault {
            Fault::None => FaultView::FAULT_FREE,
            Fault::Degraded { failed } => FaultView::degraded(*failed),
            Fault::Rebuilding(r) => {
                FaultView::rebuilding(r.failed, r.algorithm, &r.rebuilt, r.spares.as_ref())
            }
        }
    }

    /// Resolves a replacement-disk offset: rebuilt (by the sweep or by
    /// user activity) or lost (its stripe proved unrecoverable). Either
    /// way it counts toward termination, so the sweep always finishes.
    fn mark_rebuilt(&mut self, offset: u64, now: SimTime, credit: RebuildCredit) {
        if let Fault::Rebuilding(r) = &mut self.fault {
            if !r.rebuilt[offset as usize] {
                r.rebuilt[offset as usize] = true;
                r.rebuilt_count += 1;
                match credit {
                    RebuildCredit::User => r.by_users += 1,
                    RebuildCredit::Sweep => r.swept += 1,
                    RebuildCredit::Lost => r.units_lost += 1,
                }
                // Sample the trajectory at each whole percent.
                let fraction = r.rebuilt_count as f64 / r.target as f64;
                let percent_now = (fraction * 100.0) as u32;
                let percent_prev = (r.progress.last().map_or(0.0, |&(_, f)| f) * 100.0) as u32;
                if r.progress.is_empty() || percent_now > percent_prev {
                    r.progress.push((now.as_secs_f64(), fraction));
                    if P::ACTIVE {
                        self.probe.recon_progress(now, r.rebuilt_count, r.target);
                    }
                }
                if r.rebuilt_count == r.target && r.finished.is_none() {
                    r.finished = Some(now);
                }
            }
        }
    }

    fn spawn_piggyback_write(&mut self, offset: u64, now: SimTime) {
        let target = match &self.fault {
            Fault::Rebuilding(r) if !r.rebuilt[offset as usize] => {
                self.view().repair_location(UnitAddr::new(r.failed, offset))
            }
            _ => return, // already rebuilt meanwhile — skip the write
        };
        let io = PlannedIo::write(target);
        let op = Op {
            mark_rebuilt: Some(offset),
            background: true,
            ..Op::default()
        };
        let op_id = self.insert_op(op);
        self.issue(op_id, &[io], now);
    }

    /// Claims the next unreconstructed offset and launches its cycle; the
    /// process goes idle when the sweep cursor reaches the end of the disk.
    fn start_recon_cycle(&mut self, process: usize, now: SimTime) {
        let (failed, offset) = {
            let r = match &mut self.fault {
                Fault::Rebuilding(r) => r,
                _ => return,
            };
            let units = r.rebuilt.len() as u64;
            let mut claimed = None;
            while r.cursor < units {
                let offset = r.cursor;
                r.cursor += 1;
                if r.rebuilt[offset as usize] {
                    continue;
                }
                if self.mapping.role_at(r.failed, offset).stripe().is_some() {
                    claimed = Some((r.failed, offset));
                    break;
                }
                // Otherwise an unmapped hole.
            }
            match claimed {
                Some(c) => c,
                None => return, // sweep finished; stragglers arrive via user marks
            }
        };
        let mut plan = std::mem::take(&mut self.scratch_plan);
        let planned = plan_rebuild_unit_into(
            &self.mapping,
            UnitAddr::new(failed, offset),
            self.view(),
            &mut plan,
        );
        debug_assert!(planned, "claimed offset {offset} has no rebuild plan");
        let op = Op {
            phase2: std::mem::take(&mut plan.phase2),
            mark_rebuilt: Some(offset),
            recon: Some(ReconCycle {
                process,
                started: now,
                read_done: None,
            }),
            background: true,
            ..Op::default()
        };
        let op_id = self.insert_op(op);
        self.issue(op_id, &plan.phase1, now);
        self.scratch_plan = plan;
    }

    fn finish_recon_cycle(&mut self, rc: ReconCycle, now: SimTime) {
        let throttle = SimTime::from_us(self.cfg.recon_throttle_us);
        if P::ACTIVE {
            let read_done = rc.read_done.unwrap_or(now);
            self.probe
                .latency(now, OpClass::ReconRead, read_done - rc.started);
            self.probe
                .latency(now, OpClass::ReconWrite, now - read_done);
        }
        if let Fault::Rebuilding(r) = &mut self.fault {
            let read_done = rc.read_done.unwrap_or(now);
            let read_ms = (read_done - rc.started).as_ms_f64();
            let write_ms = (now - read_done).as_ms_f64();
            r.cycles.read_ms.push(read_ms);
            r.cycles.write_ms.push(write_ms);
            r.recent.push_back((read_ms, write_ms));
            if r.recent.len() > LAST_CYCLE_WINDOW {
                r.recent.pop_front();
            }
        }
        if throttle == SimTime::ZERO {
            self.start_recon_cycle(rc.process, now);
        } else {
            self.queue
                .schedule(now + throttle, Event::ReconKick(rc.process));
        }
    }

    // --- Patrol-read scrubbing -------------------------------------------

    /// Arms the scrub kick chain at run start (one self-perpetuating
    /// event; each kick schedules the next).
    fn schedule_first_scrub_kick(&mut self) {
        if self.scrub.is_some() {
            self.queue.schedule(
                SimTime::from_us(self.cfg.scrub.interval_us),
                Event::ScrubKick,
            );
        }
    }

    /// One tick of the patrol: back off if users are in flight, otherwise
    /// claim the next stripe for verification (bounded by the in-flight
    /// cycle cap), and schedule the next tick.
    fn on_scrub_kick(&mut self, now: SimTime) {
        if now >= self.arrival_cutoff {
            return; // run is draining: stop the kick chain so it can end
        }
        let Some(scrub) = &mut self.scrub else {
            return;
        };
        if self.user_inflight > 0 {
            // Not an idle window: yield to user traffic (the throttle that
            // bounds response-time degradation).
            scrub.report.backoffs += 1;
            self.queue.schedule(
                now + SimTime::from_us(self.cfg.scrub.backoff_us),
                Event::ScrubKick,
            );
            return;
        }
        let interval = SimTime::from_us(self.cfg.scrub.interval_us);
        self.queue.schedule(now + interval, Event::ScrubKick);
        if scrub.active >= self.cfg.scrub.max_outstanding {
            return; // at the outstanding-I/O cap: try again next tick
        }
        let stripes = self.mapping.stripes();
        if stripes == 0 {
            return;
        }
        let seq = scrub.cursor;
        scrub.cursor += 1;
        if scrub.cursor == stripes {
            scrub.cursor = 0;
            scrub.report.passes += 1;
        }
        let stripe = self.mapping.stripe_by_seq(seq);
        self.start_scrub_cycle(stripe, now);
    }

    /// Launches one verify cycle: background-priority reads of every
    /// available unit of `stripe`. Latent errors surface as media errors
    /// and are repaired in [`ArraySim::on_media_error`].
    fn start_scrub_cycle(&mut self, stripe: u64, now: SimTime) {
        let skip = match &self.fault {
            Fault::None => None,
            // The failed slot is unreadable (degraded / distributed
            // sparing) or partially garbage (replacement mid-rebuild):
            // the patrol verifies survivors only.
            Fault::Degraded { failed } => Some(*failed),
            Fault::Rebuilding(r) => Some(r.failed),
        };
        let mut units = std::mem::take(&mut self.scratch_units);
        let mut phase1 = std::mem::take(&mut self.scratch_ios);
        units.clear();
        phase1.clear();
        self.mapping.stripe_units_into(stripe, &mut units);
        phase1.extend(
            units
                .iter()
                .filter(|u| Some(u.disk) != skip)
                .map(|&u| PlannedIo::read(u)),
        );
        if !phase1.is_empty() {
            let scrub = self.scrub.as_mut().expect("scrub cycle without scrubber");
            scrub.active += 1;
            scrub.report.units_read += phase1.len() as u64;
            let op = Op {
                background: true,
                scrub: Some((stripe, now)),
                ..Op::default()
            };
            let op_id = self.insert_op(op);
            self.issue(op_id, &phase1, now);
        }
        units.clear();
        phase1.clear();
        self.scratch_units = units;
        self.scratch_ios = phase1;
    }

    /// A verify cycle resolved (all reads landed, or the op was dropped by
    /// a mid-run disk failure): release its in-flight slot.
    fn finish_scrub_cycle(&mut self) {
        if let Some(scrub) = &mut self.scrub {
            scrub.active -= 1;
            scrub.report.stripes_scanned += 1;
        }
    }

    /// Unhealed latent defects over the mapped sectors of every live disk
    /// except the (first) failed slot — `None` when media faults are off.
    /// Under a dedicated replacement the failed slot is excluded too: the
    /// swapped-in drive re-derives the same defect pattern from its label,
    /// which would double-count the dead disk's defects.
    fn exposed_defects(&self, first_failed: Option<u16>) -> Option<u64> {
        if !self.cfg.media_faults.is_active() {
            return None;
        }
        let mapped_sectors = self.mapping.units_per_disk() * self.cfg.unit_sectors as u64;
        Some(
            self.disks
                .iter()
                .filter(|d| Some(d.label() as u16) != first_failed && !d.is_failed())
                .map(|d| d.count_defective(mapped_sectors))
                .sum(),
        )
    }

    // --- Crash (write-hole) injection ------------------------------------

    /// Power is cut: classify every in-flight operation, record the torn
    /// and dirty stripe sets, and end the run.
    fn on_crash(&mut self, now: SimTime) {
        let failed_disk = match &self.fault {
            Fault::None => None,
            Fault::Degraded { failed } => Some(*failed),
            Fault::Rebuilding(r) => Some(r.failed),
        };
        let mut torn: Vec<u64> = Vec::new();
        let mut dirty: Vec<u64> = Vec::new();
        for (_, op) in self.ops.iter() {
            // An op is *going to* write if a write phase is in flight now
            // or queued behind the current read phase; reconstruction and
            // piggyback ops write the rebuilt unit they carry.
            let writes = op.writing
                || op.phase2.iter().any(|io| io.kind == IoKind::Write)
                || op.mark_rebuilt.is_some();
            if !writes {
                continue;
            }
            // Torn: a write phase with some accesses landed and some not —
            // the stripe's parity update was half-applied. (An access
            // still in service at the cut did not land.)
            let landed = op.phase_size - op.outstanding;
            let is_torn = op.writing && landed > 0 && op.outstanding > 0;
            let mark = |list: &mut Vec<u64>| match (op.scrub, op.mark_rebuilt, op.span) {
                (Some((stripe, _)), _, _) => list.push(stripe),
                (None, Some(offset), _) => {
                    let failed = failed_disk.expect("rebuild writes imply a failed disk");
                    if let Some(stripe) = self.mapping.role_at(failed, offset).stripe() {
                        list.push(stripe);
                    }
                }
                (None, None, Some((start, count))) => {
                    for logical in start..start + count {
                        list.push(self.mapping.logical_to_stripe(logical).0);
                    }
                }
                (None, None, None) => {}
            };
            mark(&mut dirty);
            if is_torn {
                mark(&mut torn);
            }
        }
        torn.sort_unstable();
        torn.dedup();
        dirty.sort_unstable();
        dirty.dedup();
        self.crash = Some(CrashReport {
            at: now,
            torn_stripes: torn,
            dirty_stripes: dirty,
            failed_disk,
        });
        // Power is gone: every queued or in-service access is abandoned
        // where it stood. The run ends here.
        self.terminal_at = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScrubConfig;
    use decluster_core::design::BlockDesign;
    use decluster_core::layout::{DeclusteredLayout, Raid5Layout};

    fn small_layout(g: u16) -> Arc<dyn ParityLayout> {
        Arc::new(DeclusteredLayout::new(BlockDesign::complete(5, g).unwrap()).unwrap())
    }

    fn tiny_cfg() -> ArrayConfig {
        ArrayConfig::scaled(40)
    }

    /// A builder pre-scaled like [`tiny_cfg`], for tests that tweak knobs.
    fn tiny_builder() -> crate::config::ArrayConfigBuilder {
        ArrayConfig::builder().cylinders(40)
    }

    fn sim(g: u16, spec: WorkloadSpec) -> ArraySim {
        ArraySim::new(small_layout(g), tiny_cfg(), spec, 1).unwrap()
    }

    #[test]
    fn fault_free_light_reads_have_low_response() {
        let s = sim(4, WorkloadSpec::all_reads(10.0));
        let report = s.run_for(SimTime::from_secs(60), SimTime::from_secs(5));
        assert!(report.requests_measured > 400, "{report:?}");
        // A lightly-loaded single random read averages ~22 ms service and
        // little queueing.
        assert!(
            report.ops.all.mean_ms() > 5.0 && report.ops.all.mean_ms() < 40.0,
            "mean {}",
            report.ops.all.mean_ms()
        );
        assert_eq!(
            report.ops.reads.count() + report.ops.writes.count(),
            report.ops.all.count()
        );
        assert_eq!(report.ops.writes.count(), 0);
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let read_report = sim(4, WorkloadSpec::all_reads(10.0))
            .run_for(SimTime::from_secs(60), SimTime::from_secs(5));
        let write_report = sim(4, WorkloadSpec::all_writes(10.0))
            .run_for(SimTime::from_secs(60), SimTime::from_secs(5));
        assert!(
            write_report.ops.all.mean_ms() > read_report.ops.all.mean_ms() * 1.5,
            "writes {} vs reads {}",
            write_report.ops.all.mean_ms(),
            read_report.ops.all.mean_ms()
        );
    }

    #[test]
    fn degraded_reads_slower_than_fault_free() {
        let ff = sim(4, WorkloadSpec::all_reads(20.0))
            .run_for(SimTime::from_secs(60), SimTime::from_secs(5));
        let mut s = sim(4, WorkloadSpec::all_reads(20.0));
        s.fail_disk(0).unwrap();
        let deg = s.run_for(SimTime::from_secs(60), SimTime::from_secs(5));
        assert!(
            deg.ops.all.mean_ms() > ff.ops.all.mean_ms(),
            "degraded {} vs fault-free {}",
            deg.ops.all.mean_ms(),
            ff.ops.all.mean_ms()
        );
    }

    #[test]
    fn reconstruction_completes_and_accounts_every_unit() {
        let mut s = sim(4, WorkloadSpec::half_and_half(10.0));
        s.fail_disk(2).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline))
            .unwrap();
        let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
        assert!(report.reconstruction_time.is_some(), "{report:?}");
        assert_eq!(
            report.units_swept + report.units_by_users,
            report.units_total
        );
        // Baseline sends no user work to the replacement.
        assert_eq!(report.units_by_users, 0);
        assert!(report.cycles.read_ms.count() > 0);
        assert!(report.survivor_utilization > 0.0);
        assert!(report.replacement_utilization > 0.0);
    }

    #[test]
    fn user_writes_rebuild_some_units() {
        let mut s = sim(4, WorkloadSpec::all_writes(30.0));
        s.fail_disk(2).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::UserWrites))
            .unwrap();
        let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
        assert!(report.reconstruction_time.is_some());
        assert!(
            report.units_by_users > 0,
            "direct writes should pre-rebuild units: {report:?}"
        );
        assert_eq!(
            report.units_swept + report.units_by_users,
            report.units_total
        );
    }

    #[test]
    fn parallel_reconstruction_is_faster() {
        let recon_time = |processes| {
            let mut s = sim(4, WorkloadSpec::half_and_half(10.0));
            s.fail_disk(1).unwrap();
            s.start_reconstruction(
                ReconOptions::new(ReconAlgorithm::Baseline).processes(processes),
            )
            .unwrap();
            s.run_until_reconstructed(SimTime::from_secs(100_000))
                .reconstruction_secs()
                .unwrap()
        };
        let single = recon_time(1);
        let eight = recon_time(8);
        assert!(
            eight < single * 0.5,
            "8-way {eight} not much faster than single {single}"
        );
    }

    #[test]
    fn throttled_reconstruction_is_slower_but_gentler() {
        let run = |throttle_us| {
            let cfg = tiny_builder().recon_throttle_us(throttle_us).build();
            let mut s =
                ArraySim::new(small_layout(4), cfg, WorkloadSpec::half_and_half(30.0), 1).unwrap();
            s.fail_disk(1).unwrap();
            s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline))
                .unwrap();
            s.run_until_reconstructed(SimTime::from_secs(200_000))
        };
        let fast = run(0);
        let slow = run(100_000); // 100 ms between cycles
        let (t_fast, t_slow) = (
            fast.reconstruction_secs().unwrap(),
            slow.reconstruction_secs().unwrap(),
        );
        assert!(
            t_slow > t_fast * 1.5,
            "throttle had no effect: {t_fast} vs {t_slow}"
        );
        assert!(
            slow.ops.all.mean_ms() < fast.ops.all.mean_ms(),
            "throttling should lower user response time: {} vs {}",
            slow.ops.all.mean_ms(),
            fast.ops.all.mean_ms()
        );
    }

    #[test]
    fn recon_limit_reports_incomplete() {
        let mut s = sim(4, WorkloadSpec::half_and_half(10.0));
        s.fail_disk(0).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline))
            .unwrap();
        let report = s.run_until_reconstructed(SimTime::from_ms(200));
        assert_eq!(report.reconstruction_time, None);
    }

    #[test]
    fn raid5_reconstruction_works() {
        let layout = Arc::new(Raid5Layout::new(5).unwrap());
        let mut s =
            ArraySim::new(layout, tiny_cfg(), WorkloadSpec::half_and_half(10.0), 1).unwrap();
        s.fail_disk(4).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Redirect))
            .unwrap();
        let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
        assert!(report.reconstruction_time.is_some());
        assert_eq!(
            report.units_swept + report.units_by_users,
            report.units_total
        );
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let run = || {
            let mut s = sim(4, WorkloadSpec::half_and_half(15.0));
            s.fail_disk(3).unwrap();
            s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Redirect).processes(2))
                .unwrap();
            s.run_until_reconstructed(SimTime::from_secs(100_000))
        };
        let a = run();
        let b = run();
        assert_eq!(a.reconstruction_time, b.reconstruction_time);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.units_swept, b.units_swept);
    }

    #[test]
    fn recon_without_failure_is_rejected() {
        let err = sim(4, WorkloadSpec::all_reads(1.0))
            .start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline))
            .unwrap_err();
        assert!(err.to_string().contains("requires a failed disk"), "{err}");
    }

    #[test]
    fn double_immediate_failure_is_rejected() {
        // At most one disk may be failed *before* the run; further
        // failures are scheduled so their loss impact can be assessed.
        let mut s = sim(4, WorkloadSpec::all_reads(1.0));
        s.fail_disk(0).unwrap();
        let err = s.fail_disk(1).unwrap_err();
        assert!(err.to_string().contains("already failed"), "{err}");
        assert!(s.fail_disk(9).is_err(), "out-of-range disk accepted");
    }

    #[test]
    fn duplicate_scheduled_failure_is_rejected() {
        let mut s = sim(4, WorkloadSpec::all_reads(1.0));
        s.fail_disk_at(2, SimTime::from_secs(1)).unwrap();
        assert!(s.fail_disk_at(2, SimTime::from_secs(5)).is_err());
        assert!(s.fail_disk(2).is_err(), "disk 2 is already doomed");
        // A different disk is fine: that is the double-failure scenario.
        s.fail_disk(0).unwrap();
        assert!(s.fail_disk_at(0, SimTime::from_secs(9)).is_err());
    }

    #[test]
    fn second_failure_in_degraded_mode_ends_run_with_loss() {
        let mut s = sim(4, WorkloadSpec::all_reads(10.0));
        s.fail_disk(0).unwrap();
        let plan = FaultPlan::new().fail_at(1, SimTime::from_secs(20));
        s.inject_faults(&plan).unwrap();
        let mapping_stripes: Vec<u64> = {
            let m = s.mapping();
            (0..m.stripes())
                .filter(|&st| {
                    m.is_mapped(st) && {
                        let units = m.stripe_units(st);
                        units.iter().any(|u| u.disk == 0) && units.iter().any(|u| u.disk == 1)
                    }
                })
                .collect()
        };
        let report = s.run_for(SimTime::from_secs(60), SimTime::from_secs(5));
        assert_eq!(
            report.elapsed,
            SimTime::from_secs(20),
            "run ends at the loss"
        );
        assert_eq!(
            report.data_loss.second_failure,
            Some((1, SimTime::from_secs(20)))
        );
        let ids: Vec<u64> = report.data_loss.stripes.iter().map(|l| l.stripe).collect();
        assert_eq!(ids, mapping_stripes, "exact lost-stripe set");
        assert_eq!(report.data_loss.rebuilt_before_loss, None);
    }

    #[test]
    fn second_failure_mid_rebuild_truncates_loss_by_progress() {
        let mut s = sim(4, WorkloadSpec::all_reads(5.0));
        s.fail_disk(0).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(4))
            .unwrap();
        // First find how long an unmolested rebuild takes.
        let clean = {
            let mut c = sim(4, WorkloadSpec::all_reads(5.0));
            c.fail_disk(0).unwrap();
            c.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(4))
                .unwrap();
            c.run_until_reconstructed(SimTime::from_secs(100_000))
        };
        let t = clean.reconstruction_secs().unwrap();
        let mid = SimTime::from_secs_f64(t * 0.5);
        s.inject_faults(&FaultPlan::new().fail_at(2, mid)).unwrap();
        let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
        assert_eq!(report.reconstruction_time, None, "rebuild was cut short");
        let loss = &report.data_loss;
        assert_eq!(loss.second_failure, Some((2, mid)));
        let frac = loss.rebuilt_fraction_before_loss().unwrap();
        assert!(frac > 0.1 && frac < 0.9, "half-way failure, got {frac}");
        assert!(
            !loss.is_empty(),
            "mid-rebuild double failure must lose data"
        );
        // Fewer stripes lost than a no-rebuild double failure would lose.
        let worst = assess_second_failure(s_mapping(), Some(0), 2, None, None).len();
        assert!(
            loss.stripes.len() < worst,
            "{} !< {worst}",
            loss.stripes.len()
        );
    }

    /// Mapping of the standard `small_layout(4)` + `tiny_cfg()` sim, for
    /// assertions that need it after the sim was consumed.
    fn s_mapping() -> &'static ArrayMapping {
        use std::sync::OnceLock;
        static MAPPING: OnceLock<ArrayMapping> = OnceLock::new();
        MAPPING.get_or_init(|| {
            ArraySim::new(small_layout(4), tiny_cfg(), WorkloadSpec::all_reads(1.0), 1)
                .unwrap()
                .mapping
        })
    }

    #[test]
    fn second_failure_after_completion_loses_nothing() {
        // Acceptance criterion: once the replacement is fully rebuilt the
        // array tolerates a fresh failure with zero data loss.
        let clean = {
            let mut c = sim(4, WorkloadSpec::all_reads(5.0));
            c.fail_disk(0).unwrap();
            c.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(4))
                .unwrap();
            c.run_until_reconstructed(SimTime::from_secs(100_000))
        };
        let t = clean.reconstruction_secs().unwrap();
        let mut s = sim(4, WorkloadSpec::all_reads(5.0));
        s.fail_disk(0).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(4))
            .unwrap();
        let late = SimTime::from_secs_f64(t * 1.5);
        s.inject_faults(&FaultPlan::new().fail_at(3, late)).unwrap();
        let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
        assert!(
            report.reconstruction_time.is_some(),
            "rebuild completed first"
        );
        assert!(report.data_loss.is_empty(), "{:?}", report.data_loss);
        assert_eq!(report.data_loss.second_failure, Some((3, late)));
        assert_eq!(
            report.data_loss.rebuilt_before_loss,
            Some((report.units_total, report.units_total))
        );
    }

    #[test]
    fn second_failure_is_deterministic() {
        let run = || {
            let mut s = sim(4, WorkloadSpec::half_and_half(15.0));
            s.fail_disk(0).unwrap();
            s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Redirect).processes(2))
                .unwrap();
            s.inject_faults(&FaultPlan::new().fail_at(1, SimTime::from_secs(30)))
                .unwrap();
            s.run_until_reconstructed(SimTime::from_secs(100_000))
        };
        let a = run();
        let b = run();
        assert_eq!(a.data_loss, b.data_loss);
        assert_eq!(a.units_swept, b.units_swept);
    }

    #[test]
    fn latent_media_errors_during_rebuild_are_accounted() {
        // A high latent-error rate guarantees some reconstruction cycles
        // hit unreadable survivors: those stripes are lost, the offsets
        // resolve as lost, and the accounting identity still holds.
        let cfg = tiny_builder()
            .media_faults(decluster_disk::MediaFaultConfig::none().with_latent_rate(2e-4))
            .build();
        let mut s =
            ArraySim::new(small_layout(4), cfg, WorkloadSpec::half_and_half(10.0), 1).unwrap();
        s.fail_disk(2).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(2))
            .unwrap();
        let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
        assert!(report.reconstruction_time.is_some(), "sweep must terminate");
        assert_eq!(
            report.units_swept + report.units_by_users + report.units_lost,
            report.units_total
        );
        assert!(report.units_lost > 0, "2e-4 latent rate should lose units");
        assert!(!report.data_loss.is_empty());
        assert!(report
            .data_loss
            .stripes
            .iter()
            .all(|l| matches!(l.cause, LossCause::MediaError { .. })));
    }

    #[test]
    fn transient_errors_only_slow_the_array_down() {
        // Pure transient faults (no latent errors) retry and succeed:
        // nothing is lost, but response time goes up.
        let faulty_cfg = tiny_builder()
            .media_faults(decluster_disk::MediaFaultConfig::none().with_transient_rate(0.05))
            .build();
        let clean = sim(4, WorkloadSpec::all_reads(15.0))
            .run_for(SimTime::from_secs(40), SimTime::from_secs(4));
        let faulty = ArraySim::new(
            small_layout(4),
            faulty_cfg,
            WorkloadSpec::all_reads(15.0),
            1,
        )
        .unwrap()
        .run_for(SimTime::from_secs(40), SimTime::from_secs(4));
        assert!(faulty.data_loss.is_empty());
        assert_eq!(clean.requests_measured, faulty.requests_measured);
        assert!(
            faulty.ops.all.mean_ms() > clean.ops.all.mean_ms(),
            "retries should cost latency: {} vs {}",
            faulty.ops.all.mean_ms(),
            clean.ops.all.mean_ms()
        );
    }

    #[test]
    fn multi_unit_accesses_complete_and_measure_once() {
        let spec = WorkloadSpec::half_and_half(10.0).with_access_units(3);
        let s = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1).unwrap();
        let report = s.run_for(SimTime::from_secs(30), SimTime::from_secs(3));
        assert!(report.requests_measured > 100);
        // One response per request, even though each request spans units.
        assert_eq!(
            report.ops.reads.count() + report.ops.writes.count(),
            report.ops.all.count()
        );
    }

    #[test]
    fn full_stripe_writes_beat_unit_writes_per_byte() {
        // At equal *byte* throughput, stripe-aligned 3-unit writes on a
        // G=4 layout cost G accesses per stripe instead of 12, so the
        // array sustains them with lower disk utilization.
        let unit_spec = WorkloadSpec::all_writes(30.0);
        let stripe_spec = WorkloadSpec::all_writes(10.0).with_access_units(3);
        let unit_run = ArraySim::new(small_layout(4), tiny_cfg(), unit_spec, 1)
            .unwrap()
            .run_for(SimTime::from_secs(30), SimTime::from_secs(3));
        let stripe_run = ArraySim::new(small_layout(4), tiny_cfg(), stripe_spec, 1)
            .unwrap()
            .run_for(SimTime::from_secs(30), SimTime::from_secs(3));
        assert!(
            stripe_run.mean_disk_utilization < unit_run.mean_disk_utilization * 0.7,
            "large writes should use far less disk time: {} vs {}",
            stripe_run.mean_disk_utilization,
            unit_run.mean_disk_utilization
        );
    }

    #[test]
    fn multi_unit_degraded_reconstruction_still_completes() {
        let spec = WorkloadSpec::half_and_half(10.0).with_access_units(3);
        let mut s = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1).unwrap();
        s.fail_disk(2).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::UserWrites).processes(2))
            .unwrap();
        let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
        assert!(report.reconstruction_time.is_some());
        assert_eq!(
            report.units_swept + report.units_by_users,
            report.units_total
        );
    }

    #[test]
    fn distributed_sparing_completes_without_a_replacement() {
        let cfg = tiny_builder().distributed_spares(900).build();
        let mut s =
            ArraySim::new(small_layout(4), cfg, WorkloadSpec::half_and_half(10.0), 1).unwrap();
        s.fail_disk(2).unwrap();
        s.start_reconstruction(
            ReconOptions::new(ReconAlgorithm::Redirect)
                .processes(4)
                .distributed(),
        )
        .unwrap();
        let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
        assert!(report.reconstruction_time.is_some(), "{report:?}");
        assert_eq!(
            report.units_swept + report.units_by_users,
            report.units_total
        );
        // No replacement disk exists.
        assert_eq!(report.replacement_utilization, 0.0);
    }

    #[test]
    fn distributed_sparing_crossover_with_parallelism() {
        // The repair-organization trade-off: a dedicated replacement
        // absorbs reconstruction writes for free while its (sequential)
        // write stream keeps up, but it is a *single* disk — with enough
        // parallel processes it saturates while distributed sparing keeps
        // scaling by spreading writes over all survivors. On a wide
        // low-alpha array (21 disks, G = 4) the crossover sits between
        // 8- and 32-way.
        let recon = |distributed: bool, processes: usize| {
            let layout = decluster_core::layout::DeclusteredLayout::new(
                decluster_core::design::appendix::design_for_group_size(4).unwrap(),
            )
            .unwrap();
            let layout: Arc<dyn ParityLayout> = Arc::new(layout);
            let cfg = if distributed {
                tiny_builder().distributed_spares(200).build()
            } else {
                ArrayConfig::scaled(40)
            };
            let mut s = ArraySim::new(layout, cfg, WorkloadSpec::half_and_half(105.0), 1).unwrap();
            s.fail_disk(0).unwrap();
            if distributed {
                s.start_reconstruction(
                    ReconOptions::new(ReconAlgorithm::Baseline)
                        .processes(processes)
                        .distributed(),
                )
                .unwrap();
            } else {
                s.start_reconstruction(
                    ReconOptions::new(ReconAlgorithm::Baseline).processes(processes),
                )
                .unwrap();
            }
            s.run_until_reconstructed(SimTime::from_secs(100_000))
                .reconstruction_secs()
                .unwrap()
        };
        // Low parallelism: dedicated wins (its writes are free sequential
        // bandwidth; spare writes burden the survivors).
        assert!(recon(false, 8) < recon(true, 8));
        // High parallelism: the replacement saturates; distributed wins.
        assert!(recon(true, 32) < recon(false, 32));
    }

    #[test]
    fn distributed_sparing_serves_redirected_reads_from_spares() {
        // After rebuild completes mid-run, redirected reads hit spare
        // slots; correctness here is "the run completes and measures
        // responses" — address-level checks live in the planner tests.
        let cfg = tiny_builder().distributed_spares(900).build();
        let mut s = ArraySim::new(small_layout(4), cfg, WorkloadSpec::all_reads(20.0), 1).unwrap();
        s.fail_disk(0).unwrap();
        s.start_reconstruction(
            ReconOptions::new(ReconAlgorithm::RedirectPiggyback)
                .processes(8)
                .distributed(),
        )
        .unwrap();
        let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
        assert!(report.reconstruction_time.is_some());
        assert!(report.ops.all.count() > 0);
    }

    #[test]
    fn distributed_sparing_needs_reservation() {
        let mut s =
            ArraySim::new(small_layout(4), tiny_cfg(), WorkloadSpec::all_reads(1.0), 1).unwrap();
        s.fail_disk(0).unwrap();
        let err = s
            .start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).distributed())
            .unwrap_err();
        assert!(
            err.to_string().contains("requires reserved spare space"),
            "{err}"
        );
    }

    #[test]
    fn mid_run_failure_transitions_to_degraded() {
        // Fail disk 1 at t = 15 s of a 40 s run: every request completes
        // (retried if its accesses were lost) and the response-time mean
        // lands between the pure fault-free and pure degraded values.
        let spec = WorkloadSpec::all_reads(30.0);
        let fault_free = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1)
            .unwrap()
            .run_for(SimTime::from_secs(40), SimTime::from_secs(4));
        let mut deg_sim = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1).unwrap();
        deg_sim.fail_disk(1).unwrap();
        let degraded = deg_sim.run_for(SimTime::from_secs(40), SimTime::from_secs(4));
        let mut mid_sim = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1).unwrap();
        mid_sim.fail_disk_at(1, SimTime::from_secs(15)).unwrap();
        let mid = mid_sim.run_for(SimTime::from_secs(40), SimTime::from_secs(4));
        // Same arrival stream in all three runs: every measured request
        // completed despite the transition.
        assert_eq!(mid.requests_measured, fault_free.requests_measured);
        assert!(
            mid.ops.all.mean_ms() >= fault_free.ops.all.mean_ms() * 0.95,
            "mid {} vs fault-free {}",
            mid.ops.all.mean_ms(),
            fault_free.ops.all.mean_ms()
        );
        assert!(
            mid.ops.all.mean_ms() <= degraded.ops.all.mean_ms() * 1.15,
            "mid {} vs degraded {}",
            mid.ops.all.mean_ms(),
            degraded.ops.all.mean_ms()
        );
    }

    #[test]
    fn mid_run_failure_with_multi_unit_requests() {
        let spec = WorkloadSpec::half_and_half(20.0).with_access_units(3);
        let mut s = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1).unwrap();
        s.fail_disk_at(0, SimTime::from_secs(10)).unwrap();
        let report = s.run_for(SimTime::from_secs(30), SimTime::from_secs(2));
        assert!(report.requests_measured > 100);
        assert_eq!(
            report.ops.reads.count() + report.ops.writes.count(),
            report.ops.all.count()
        );
    }

    #[test]
    fn mid_run_failure_is_deterministic() {
        let run = || {
            let mut s = ArraySim::new(
                small_layout(4),
                tiny_cfg(),
                WorkloadSpec::half_and_half(25.0),
                3,
            )
            .unwrap();
            s.fail_disk_at(2, SimTime::from_secs(12)).unwrap();
            s.run_for(SimTime::from_secs(30), SimTime::from_secs(2))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_injection_is_rejected_after_run_start() {
        let mut s = sim(4, WorkloadSpec::all_reads(1.0));
        s.fail_disk(0).unwrap();
        let report = {
            let mut probe = sim(4, WorkloadSpec::all_reads(1.0));
            probe.started = true;
            assert!(probe.fail_disk(0).is_err());
            assert!(probe.fail_disk_at(1, SimTime::from_secs(1)).is_err());
            assert!(probe
                .inject_faults(&FaultPlan::new().fail_at(1, SimTime::from_secs(1)))
                .is_err());
            s.run_for(SimTime::from_secs(5), SimTime::from_secs(1))
        };
        assert!(report.data_loss.is_empty());
    }

    #[test]
    fn trace_replay_matches_synthetic_run() {
        // Recording the synthetic stream and replaying it must produce a
        // bit-identical simulation.
        use decluster_workload::trace::Trace;
        let spec = WorkloadSpec::half_and_half(20.0);
        let synthetic = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1)
            .unwrap()
            .run_for(SimTime::from_secs(20), SimTime::from_secs(2));

        let mapping_units = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1)
            .unwrap()
            .mapping()
            .data_units();
        let mut gen = decluster_workload::Workload::new(
            spec,
            mapping_units,
            tiny_cfg().seed ^ 1u64.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let trace = Trace::record(&mut gen, SimTime::from_secs(20));
        let replayed = ArraySim::with_trace(small_layout(4), tiny_cfg(), trace)
            .unwrap()
            .run_for(SimTime::from_secs(20), SimTime::from_secs(2));
        assert_eq!(synthetic.ops, replayed.ops);
        assert_eq!(synthetic.requests_measured, replayed.requests_measured);
    }

    #[test]
    fn trace_beyond_capacity_is_rejected() {
        use decluster_workload::trace::Trace;
        let trace: Trace = "0 R 999999999 1".parse().unwrap();
        let err = ArraySim::with_trace(small_layout(4), tiny_cfg(), trace);
        assert!(err.is_err());
    }

    #[test]
    fn hot_spot_workload_runs() {
        use decluster_workload::Locality;
        let spec = WorkloadSpec::half_and_half(20.0).with_locality(Locality::eighty_twenty());
        let report = ArraySim::new(small_layout(4), tiny_cfg(), spec, 1)
            .unwrap()
            .run_for(SimTime::from_secs(20), SimTime::from_secs(2));
        assert!(report.requests_measured > 200);
    }

    #[test]
    fn progress_trajectory_is_monotone_and_complete() {
        let mut s = sim(4, WorkloadSpec::half_and_half(10.0));
        s.fail_disk(1).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(2))
            .unwrap();
        let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
        let progress = &report.progress;
        assert!(progress.len() >= 100, "only {} samples", progress.len());
        for pair in progress.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "time went backwards");
            assert!(pair[0].1 < pair[1].1, "fraction not increasing");
        }
        assert!((progress.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!((progress.last().unwrap().0 - report.reconstruction_secs().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn recon_priority_protects_user_response() {
        let run = |priority| {
            let cfg = tiny_builder().recon_priority(priority).build();
            let mut s =
                ArraySim::new(small_layout(4), cfg, WorkloadSpec::half_and_half(40.0), 1).unwrap();
            s.fail_disk(1).unwrap();
            s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(8))
                .unwrap();
            s.run_until_reconstructed(SimTime::from_secs(200_000))
        };
        let plain = run(false);
        let prioritized = run(true);
        assert!(
            prioritized.ops.all.mean_ms() < plain.ops.all.mean_ms(),
            "priority scheduling should lower user response: {} vs {}",
            prioritized.ops.all.mean_ms(),
            plain.ops.all.mean_ms()
        );
        assert!(
            prioritized.reconstruction_secs().unwrap() >= plain.reconstruction_secs().unwrap(),
            "priority scheduling cannot speed reconstruction up"
        );
    }

    #[test]
    #[should_panic(expected = "steady-state")]
    fn run_for_rejects_reconstruction() {
        let mut s = sim(4, WorkloadSpec::all_reads(1.0));
        s.fail_disk(0).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline))
            .unwrap();
        s.run_for(SimTime::from_secs(1), SimTime::ZERO);
    }

    fn latent_cfg(scrub: ScrubConfig) -> ArrayConfig {
        tiny_builder()
            .media_faults(decluster_disk::MediaFaultConfig::none().with_latent_rate(2e-4))
            .scrub(scrub)
            .build()
    }

    #[test]
    fn scrubber_heals_latent_defects() {
        let run = |scrub| {
            ArraySim::new(
                small_layout(4),
                latent_cfg(scrub),
                WorkloadSpec::all_reads(2.0),
                1,
            )
            .unwrap()
            .run_for(SimTime::from_secs(60), SimTime::from_secs(5))
        };
        let unscrubbed = run(ScrubConfig::off());
        assert!(unscrubbed.scrub.is_none(), "scrub off reports no scrub");
        let baseline = unscrubbed.exposed_defects.expect("faults are active");
        assert!(baseline > 0, "2e-4 latent rate should seed defects");

        let scrubbed = run(ScrubConfig::on().with_interval_us(500));
        let report = scrubbed.scrub.expect("scrub on reports the patrol");
        assert!(report.stripes_scanned > 0, "{report:?}");
        assert!(report.units_read >= report.stripes_scanned * 3);
        assert!(report.errors_found > 0, "patrol must hit latent defects");
        assert_eq!(
            report.errors_found, report.errors_repaired,
            "fault-free stripes always repair from parity"
        );
        let exposed = scrubbed.exposed_defects.expect("faults are active");
        assert!(
            exposed < baseline,
            "patrol should shrink exposure: {exposed} vs {baseline}"
        );
    }

    #[test]
    fn scrubber_backs_off_under_load_and_is_bounded() {
        let cfg = tiny_builder().scrub(ScrubConfig::on()).build();
        let report = ArraySim::new(small_layout(4), cfg, WorkloadSpec::half_and_half(60.0), 1)
            .unwrap()
            .run_for(SimTime::from_secs(30), SimTime::from_secs(3));
        let scrub = report.scrub.expect("scrub on");
        assert!(
            scrub.backoffs > 0,
            "a busy array must force backoffs: {scrub:?}"
        );
    }

    #[test]
    fn scrub_accounting_identity_holds_during_rebuild() {
        let cfg = latent_cfg(ScrubConfig::on().with_interval_us(500));
        let mut s =
            ArraySim::new(small_layout(4), cfg, WorkloadSpec::half_and_half(10.0), 1).unwrap();
        s.fail_disk(2).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(2))
            .unwrap();
        let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
        assert!(report.reconstruction_time.is_some(), "sweep must terminate");
        assert_eq!(
            report.units_swept + report.units_by_users + report.units_lost,
            report.units_total,
            "scrub traffic must not leak into sweep accounting"
        );
        let scrub = report.scrub.expect("scrub on");
        assert!(scrub.stripes_scanned > 0);
    }

    #[test]
    fn crash_mid_run_classifies_torn_and_dirty_stripes() {
        // Near-saturating write load: the disk queues are never empty, so
        // the cut is guaranteed to land amid half-applied parity updates.
        let mut s = sim(4, WorkloadSpec::all_writes(55.0));
        s.inject_crash(&CrashPlan::at(SimTime::from_secs(5)))
            .unwrap();
        let report = s.run_for(SimTime::from_secs(60), SimTime::ZERO);
        let crash = report.crash.expect("planned crash must fire");
        assert_eq!(crash.at, SimTime::from_secs(5));
        assert_eq!(crash.failed_disk, None);
        assert!(
            !crash.dirty_stripes.is_empty(),
            "a saturating write load always has writes in flight"
        );
        for torn in &crash.torn_stripes {
            assert!(
                crash.dirty_stripes.contains(torn),
                "torn stripe {torn} missing from dirty set"
            );
        }
        // The cut ends the run: nothing arrives after it.
        assert!(report.elapsed <= SimTime::from_secs(5));
    }

    #[test]
    fn crash_during_rebuild_ends_the_run_with_a_report() {
        let mut s = sim(4, WorkloadSpec::half_and_half(10.0));
        s.fail_disk(1).unwrap();
        s.inject_crash(&CrashPlan::at(SimTime::from_secs(10)))
            .unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Baseline).processes(2))
            .unwrap();
        let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
        let crash = report.crash.as_ref().expect("planned crash must fire");
        assert_eq!(crash.failed_disk, Some(1));
        assert!(
            report.reconstruction_time.is_none(),
            "power cut mid-rebuild leaves the sweep unfinished"
        );
        assert!(
            !crash.dirty_stripes.is_empty(),
            "rebuild writes were in flight"
        );
    }

    #[test]
    fn crash_injection_is_rejected_after_start_or_twice() {
        let mut s = sim(4, WorkloadSpec::all_reads(5.0));
        s.inject_crash(&CrashPlan::at(SimTime::from_secs(2)))
            .unwrap();
        assert!(
            s.inject_crash(&CrashPlan::at(SimTime::from_secs(3)))
                .is_err(),
            "double crash plan accepted"
        );
    }

    #[test]
    fn crash_report_feeds_recovery_end_to_end() {
        let mut s = sim(4, WorkloadSpec::all_writes(55.0));
        s.inject_crash(&CrashPlan::at(SimTime::from_secs(5)))
            .unwrap();
        let report = s.run_for(SimTime::from_secs(60), SimTime::ZERO);
        let crash = report.crash.expect("planned crash must fire");
        assert!(
            !crash.torn_stripes.is_empty(),
            "a saturated cut tears writes"
        );
        let full = crate::recovery::recover(
            small_layout(4),
            &tiny_cfg(),
            &crash,
            crate::report::RecoveryPolicy::FullResync,
        )
        .unwrap();
        let drl = crate::recovery::recover(
            small_layout(4),
            &tiny_cfg(),
            &crash,
            crate::report::RecoveryPolicy::DirtyRegionLog,
        )
        .unwrap();
        assert_eq!(full.torn_found, crash.torn_stripes.len() as u64);
        assert_eq!(drl.torn_found, full.torn_found);
        assert_eq!(drl.torn_repaired, drl.torn_found);
        assert!(drl.resync_units_read < full.resync_units_read);
    }

    #[test]
    fn scrub_off_is_byte_identical_to_no_scrub_config() {
        // The master switch must cost nothing: a disabled scrubber cannot
        // perturb the event sequence.
        let a = sim(4, WorkloadSpec::half_and_half(20.0))
            .run_for(SimTime::from_secs(20), SimTime::from_secs(2));
        let b = ArraySim::new(
            small_layout(4),
            tiny_builder()
                .scrub(ScrubConfig::off().with_interval_us(1))
                .build(),
            WorkloadSpec::half_and_half(20.0),
            1,
        )
        .unwrap()
        .run_for(SimTime::from_secs(20), SimTime::from_secs(2));
        assert_eq!(a.ops.all.mean_ms(), b.ops.all.mean_ms());
        assert_eq!(a.requests_measured, b.requests_measured);
    }

    #[test]
    fn recorder_probe_observes_without_perturbing() {
        use decluster_sim::Recorder;
        let spec = WorkloadSpec::half_and_half(20.0);
        let plain = sim(4, spec).run_for(SimTime::from_secs(30), SimTime::from_secs(3));
        let probed = ArraySim::new_probed(small_layout(4), tiny_cfg(), spec, 1, Recorder::new())
            .unwrap()
            .run_for(SimTime::from_secs(30), SimTime::from_secs(3));
        // Instrumentation is read-only: every simulated quantity matches.
        assert_eq!(plain.ops, probed.ops);
        assert_eq!(plain.events_processed, probed.events_processed);
        assert!(plain.observations.is_none());
        let obs = probed.observations.expect("recorder must report");
        let reads = obs.class(OpClass::UserRead).expect("all classes present");
        assert_eq!(reads.count(), probed.ops.reads.count());
        assert!((reads.mean_ms() - probed.ops.reads.mean_ms()).abs() < 1e-9);
        // One utilization timeline per disk, with samples in [0, 1].
        assert_eq!(obs.timelines.len(), 5);
        for tl in &obs.timelines {
            assert!(!tl.samples.is_empty(), "disk {} never sampled", tl.disk);
            for s in &tl.samples {
                assert!((0.0..=1.0).contains(&s.utilization));
            }
        }
    }

    #[test]
    fn recorder_probe_sees_recon_scrub_and_progress() {
        use decluster_sim::Recorder;
        let mut s = ArraySim::new_probed(
            small_layout(4),
            latent_cfg(ScrubConfig::on().with_interval_us(50_000)),
            WorkloadSpec::half_and_half(10.0),
            1,
            Recorder::new(),
        )
        .unwrap();
        s.fail_disk(1).unwrap();
        s.start_reconstruction(ReconOptions::new(ReconAlgorithm::Redirect).processes(2))
            .unwrap();
        let report = s.run_until_reconstructed(SimTime::from_secs(100_000));
        assert!(report.reconstruction_time.is_some());
        let obs = report.observations.expect("recorder must report");
        assert!(obs.class(OpClass::ReconRead).unwrap().count() > 0);
        assert!(obs.class(OpClass::ReconWrite).unwrap().count() > 0);
        assert!(obs.class(OpClass::Scrub).unwrap().count() > 0);
        assert_eq!(obs.recon_total, report.units_total);
        assert!(!obs.recon_progress.is_empty());
        for pair in obs.recon_progress.windows(2) {
            assert!(pair[0].t_us <= pair[1].t_us);
            assert!(pair[0].rebuilt < pair[1].rebuilt);
        }
        assert_eq!(
            obs.recon_progress.last().unwrap().rebuilt,
            report.units_total
        );
    }

    #[test]
    fn event_queue_never_regrows_mid_run() {
        // The scrubber's backoff re-arm (and injected faults, crashes,
        // recon kicks) must all fit in the capacity reserved before the
        // first event pops; regrowth mid-run would mean the reservation
        // undercounts an event source.
        let mut s = ArraySim::new(
            small_layout(4),
            latent_cfg(ScrubConfig::on().with_interval_us(20_000)),
            WorkloadSpec::half_and_half(30.0),
            1,
        )
        .unwrap();
        s.fail_disk_at(2, SimTime::from_secs(4)).unwrap();
        s.measure_from = SimTime::from_secs(1);
        s.arrival_cutoff = SimTime::from_secs(20);
        s.prepare_run();
        let reserved = s.queue.capacity();
        while let Some((now, event)) = s.queue.pop() {
            s.dispatch(now, event);
            if s.terminal_at.is_some() {
                break;
            }
        }
        assert!(s.events_processed > 1_000, "run was non-trivial");
        assert_eq!(
            s.queue.capacity(),
            reserved,
            "event heap regrew past its up-front reservation"
        );
    }
}
