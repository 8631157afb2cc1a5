//! Zero-cost-when-disabled simulation instrumentation.
//!
//! The simulator is generic over a [`Probe`]. Instrumentation calls are
//! gated on the associated `const ACTIVE`, so with the default
//! [`NoProbe`] every hook monomorphizes to nothing and the hot path is
//! exactly as fast as an uninstrumented build. [`Recorder`] is the
//! batteries-included probe: per-op-class latency histograms, per-disk
//! utilization and queue-depth timelines sampled on event boundaries,
//! reconstruction progress, and an optional bounded JSONL event trace
//! that replays bit-for-bit on a deterministic re-run.

use crate::histogram::LatencyHistogram;
use crate::json;
use crate::time::SimTime;

/// The instrumented operation classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// A user read request, arrival to completion.
    UserRead,
    /// A user write request, arrival to completion.
    UserWrite,
    /// The read phase of one reconstruction cycle.
    ReconRead,
    /// The write phase of one reconstruction cycle.
    ReconWrite,
    /// One scrub cycle, issue to verification.
    Scrub,
}

impl OpClass {
    /// Every class, in canonical report order.
    pub const ALL: [OpClass; 5] = [
        OpClass::UserRead,
        OpClass::UserWrite,
        OpClass::ReconRead,
        OpClass::ReconWrite,
        OpClass::Scrub,
    ];

    /// Stable snake-case name used in JSON reports and trace lines.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpClass::UserRead => "user_read",
            OpClass::UserWrite => "user_write",
            OpClass::ReconRead => "recon_read",
            OpClass::ReconWrite => "recon_write",
            OpClass::Scrub => "scrub",
        }
    }

    fn index(self) -> usize {
        match self {
            OpClass::UserRead => 0,
            OpClass::UserWrite => 1,
            OpClass::ReconRead => 2,
            OpClass::ReconWrite => 3,
            OpClass::Scrub => 4,
        }
    }
}

/// One disk's state at an event-boundary sample point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskSample {
    /// Array slot of the disk.
    pub disk: u16,
    /// Cumulative busy time of the mechanism since the run began, µs.
    pub busy_us: u64,
    /// Requests held at the disk (queued plus in service).
    pub queue_depth: u32,
}

/// Simulation instrumentation hooks.
///
/// All hooks default to no-ops. Implementors observing the simulation
/// set [`ACTIVE`](Probe::ACTIVE) to `true`; the simulator wraps every
/// call site in `if P::ACTIVE`, so a probe with `ACTIVE = false`
/// ([`NoProbe`]) costs nothing after monomorphization.
pub trait Probe {
    /// Whether the simulator should invoke the hooks at all.
    const ACTIVE: bool;

    /// One completed operation of `class` with the given latency.
    fn latency(&mut self, now: SimTime, class: OpClass, latency: SimTime) {
        let _ = (now, class, latency);
    }

    /// Asks whether a disk sample round is due at `now`. A `true`
    /// return is followed by one [`disk_sample`](Probe::disk_sample)
    /// call per disk. Called once per processed event.
    fn sample_due(&mut self, now: SimTime) -> bool {
        let _ = now;
        false
    }

    /// One disk's state during a sample round.
    fn disk_sample(&mut self, now: SimTime, sample: DiskSample) {
        let _ = (now, sample);
    }

    /// Reconstruction progress: `rebuilt` of `total` units done.
    fn recon_progress(&mut self, now: SimTime, rebuilt: u64, total: u64) {
        let _ = (now, rebuilt, total);
    }

    /// Drains everything observed so far into an [`Observations`]
    /// report; `None` for passive probes.
    fn collect(&mut self, now: SimTime) -> Option<Observations> {
        let _ = now;
        None
    }
}

/// The default probe: compiles to nothing in the simulator hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ACTIVE: bool = false;
}

/// One point of a per-disk timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineSample {
    /// Sample time, µs since the run began.
    pub t_us: u64,
    /// Fraction of the window since the previous sample the disk
    /// mechanism was busy, clamped to `[0, 1]`.
    pub utilization: f64,
    /// Requests held at the disk when sampled.
    pub queue_depth: u32,
}

/// Utilization and queue-depth timeline for one disk.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskTimeline {
    /// Array slot of the disk.
    pub disk: u16,
    /// Samples in time order.
    pub samples: Vec<TimelineSample>,
}

impl DiskTimeline {
    /// Deterministic JSON object: `{"disk":N,"samples":[[t_us,util,q],…]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(|o| {
            let samples = self.samples.iter().map(|s| {
                let utilization = json::Float(s.utilization, None);
                format!("[{},{utilization},{}]", s.t_us, s.queue_depth)
            });
            o.int("disk", self.disk).array("samples", samples);
        })
    }
}

/// One reconstruction-progress observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconSample {
    /// Sample time, µs since the run began.
    pub t_us: u64,
    /// Units rebuilt so far.
    pub rebuilt: u64,
}

/// Everything a [`Recorder`] observed during a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Observations {
    /// Latency histogram per op class, in [`OpClass::ALL`] order.
    pub classes: Vec<(OpClass, LatencyHistogram)>,
    /// Per-disk utilization/queue-depth timelines.
    pub timelines: Vec<DiskTimeline>,
    /// Reconstruction progress samples (empty in fault-free runs).
    pub recon_progress: Vec<ReconSample>,
    /// Total units the reconstruction tracked (0 in fault-free runs).
    pub recon_total: u64,
    /// JSONL trace lines, if tracing was enabled.
    pub trace: Vec<String>,
    /// Trace lines dropped after the bound was hit.
    pub trace_dropped: u64,
}

impl Observations {
    /// Histogram for one op class (all classes are always present).
    #[must_use]
    pub fn class(&self, class: OpClass) -> Option<&LatencyHistogram> {
        self.classes
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, h)| h)
    }

    /// Deterministic JSON object (trace lines included only by count;
    /// the trace itself is written separately as JSONL).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.object("classes", |c| {
                for (class, h) in &self.classes {
                    c.raw(class.name(), &h.to_json());
                }
            });
            let recon = self.recon_progress.iter();
            o.array(
                "timelines",
                self.timelines.iter().map(DiskTimeline::to_json),
            )
            .array(
                "recon_progress",
                recon.map(|s| format!("[{},{}]", s.t_us, s.rebuilt)),
            )
            .int("recon_total", self.recon_total)
            .int("trace_lines", self.trace.len())
            .int("trace_dropped", self.trace_dropped);
        })
    }
}

/// Per-disk bookkeeping between timeline samples.
#[derive(Debug, Clone, Copy, Default)]
struct DiskCursor {
    last_t_us: u64,
    last_busy_us: u64,
}

/// The recording probe: histograms, timelines, reconstruction
/// progress, and an optional bounded JSONL trace.
///
/// Timelines are sampled on event boundaries no more often than the
/// configured interval. When a disk's timeline outgrows the per-disk
/// bound, every other sample is dropped and the interval doubles, so
/// memory stays bounded for arbitrarily long runs while remaining a
/// deterministic function of the event stream.
#[derive(Debug, Clone)]
pub struct Recorder {
    hists: [LatencyHistogram; 5],
    timelines: Vec<Vec<TimelineSample>>,
    cursors: Vec<DiskCursor>,
    sample_every_us: u64,
    next_sample_us: u64,
    max_samples: usize,
    recon_progress: Vec<ReconSample>,
    recon_total: u64,
    trace: Option<Vec<String>>,
    trace_cap: usize,
    trace_dropped: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Default timeline sample interval (100 ms of simulated time).
    pub const DEFAULT_SAMPLE_INTERVAL_US: u64 = 100_000;
    /// Default per-disk timeline bound before downsampling.
    pub const DEFAULT_MAX_SAMPLES: usize = 512;
    /// Default trace-line bound.
    pub const DEFAULT_TRACE_CAP: usize = 200_000;

    /// A recorder with default bounds and tracing disabled.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder {
            hists: Default::default(),
            timelines: Vec::new(),
            cursors: Vec::new(),
            sample_every_us: Recorder::DEFAULT_SAMPLE_INTERVAL_US,
            next_sample_us: 0,
            max_samples: Recorder::DEFAULT_MAX_SAMPLES,
            recon_progress: Vec::new(),
            recon_total: 0,
            trace: None,
            trace_cap: Recorder::DEFAULT_TRACE_CAP,
            trace_dropped: 0,
        }
    }

    /// Sets the initial timeline sample interval.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn with_sample_interval(mut self, interval: SimTime) -> Recorder {
        assert!(
            interval.as_us() > 0,
            "a zero sample interval would sample every event"
        );
        self.sample_every_us = interval.as_us();
        self
    }

    /// Sets the per-disk timeline bound (minimum 8).
    #[must_use]
    pub fn with_max_samples(mut self, max: usize) -> Recorder {
        self.max_samples = max.max(8);
        self
    }

    /// Enables the JSONL event trace, bounded to `cap` lines.
    #[must_use]
    pub fn with_trace(mut self, cap: usize) -> Recorder {
        self.trace = Some(Vec::new());
        self.trace_cap = cap.max(1);
        self
    }

    fn trace_line(&mut self, line: String) {
        if let Some(trace) = &mut self.trace {
            if trace.len() < self.trace_cap {
                trace.push(line);
            } else {
                self.trace_dropped += 1;
            }
        }
    }
}

impl Probe for Recorder {
    const ACTIVE: bool = true;

    fn latency(&mut self, now: SimTime, class: OpClass, latency: SimTime) {
        self.hists[class.index()].record(latency);
        if self.trace.is_some() {
            self.trace_line(json::object(|o| {
                o.str("e", "lat")
                    .int("t", now.as_us())
                    .str("c", class.name())
                    .int("us", latency.as_us());
            }));
        }
    }

    fn sample_due(&mut self, now: SimTime) -> bool {
        now.as_us() >= self.next_sample_us
    }

    fn disk_sample(&mut self, now: SimTime, sample: DiskSample) {
        let slot = sample.disk as usize;
        if self.timelines.len() <= slot {
            self.timelines.resize_with(slot + 1, Vec::new);
            self.cursors.resize_with(slot + 1, DiskCursor::default);
        }
        let t_us = now.as_us();
        let cursor = &mut self.cursors[slot];
        let window = t_us.saturating_sub(cursor.last_t_us);
        let busy = sample.busy_us.saturating_sub(cursor.last_busy_us);
        let utilization = if window == 0 {
            0.0
        } else {
            (busy as f64 / window as f64).clamp(0.0, 1.0)
        };
        cursor.last_t_us = t_us;
        cursor.last_busy_us = sample.busy_us;
        self.timelines[slot].push(TimelineSample {
            t_us,
            utilization,
            queue_depth: sample.queue_depth,
        });
        if self.trace.is_some() {
            self.trace_line(json::object(|o| {
                o.str("e", "disk")
                    .int("t", t_us)
                    .int("d", sample.disk)
                    .int("busy", sample.busy_us)
                    .int("q", sample.queue_depth);
            }));
        }
        // Advance the cadence once per round (after the last disk we
        // have seen so far; subsequent disks in this round share `now`
        // and still pass the `>=` check below via next_sample_us).
        self.next_sample_us = t_us + self.sample_every_us;
        // Bound memory: halve the resolution once a disk overflows.
        if self.timelines[slot].len() > self.max_samples {
            for line in &mut self.timelines {
                let mut keep = 0;
                line.retain(|_| {
                    keep += 1;
                    keep % 2 == 0
                });
            }
            self.sample_every_us = self.sample_every_us.saturating_mul(2);
        }
    }

    fn recon_progress(&mut self, now: SimTime, rebuilt: u64, total: u64) {
        self.recon_total = total;
        self.recon_progress.push(ReconSample {
            t_us: now.as_us(),
            rebuilt,
        });
        if self.trace.is_some() {
            self.trace_line(json::object(|o| {
                o.str("e", "recon")
                    .int("t", now.as_us())
                    .int("done", rebuilt)
                    .int("total", total);
            }));
        }
    }

    fn collect(&mut self, _now: SimTime) -> Option<Observations> {
        let mut trace = self.trace.take().unwrap_or_default();
        if self.trace_dropped > 0 {
            trace.push(json::object(|o| {
                o.str("e", "dropped").int("n", self.trace_dropped);
            }));
        }
        Some(Observations {
            classes: OpClass::ALL
                .iter()
                .map(|&c| (c, std::mem::take(&mut self.hists[c.index()])))
                .collect(),
            timelines: self
                .timelines
                .drain(..)
                .enumerate()
                .map(|(i, samples)| DiskTimeline {
                    disk: u16::try_from(i).unwrap_or(u16::MAX),
                    samples,
                })
                .collect(),
            recon_progress: std::mem::take(&mut self.recon_progress),
            recon_total: self.recon_total,
            trace,
            trace_dropped: self.trace_dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noprobe_is_inert() {
        let mut p = NoProbe;
        const { assert!(!NoProbe::ACTIVE) };
        assert!(!p.sample_due(SimTime::from_secs(1)));
        p.latency(SimTime::ZERO, OpClass::UserRead, SimTime::from_ms(1));
        assert!(p.collect(SimTime::ZERO).is_none());
    }

    #[test]
    fn recorder_collects_all_classes() {
        let mut r = Recorder::new();
        r.latency(SimTime::from_ms(5), OpClass::UserRead, SimTime::from_ms(5));
        r.latency(SimTime::from_ms(9), OpClass::Scrub, SimTime::from_ms(4));
        let obs = r.collect(SimTime::from_ms(9)).unwrap();
        assert_eq!(obs.classes.len(), 5);
        assert_eq!(obs.class(OpClass::UserRead).unwrap().count(), 1);
        assert_eq!(obs.class(OpClass::Scrub).unwrap().count(), 1);
        assert_eq!(obs.class(OpClass::ReconWrite).unwrap().count(), 0);
    }

    #[test]
    fn timeline_utilization_is_windowed() {
        let mut r = Recorder::new().with_sample_interval(SimTime::from_ms(10));
        assert!(r.sample_due(SimTime::ZERO));
        r.disk_sample(
            SimTime::ZERO,
            DiskSample {
                disk: 0,
                busy_us: 0,
                queue_depth: 0,
            },
        );
        assert!(!r.sample_due(SimTime::from_ms(5)));
        assert!(r.sample_due(SimTime::from_ms(10)));
        r.disk_sample(
            SimTime::from_ms(10),
            DiskSample {
                disk: 0,
                busy_us: 5_000,
                queue_depth: 2,
            },
        );
        let obs = r.collect(SimTime::from_ms(10)).unwrap();
        let samples = &obs.timelines[0].samples;
        assert_eq!(samples.len(), 2);
        assert!((samples[1].utilization - 0.5).abs() < 1e-9);
        assert_eq!(samples[1].queue_depth, 2);
    }

    #[test]
    fn timeline_memory_is_bounded() {
        let mut r = Recorder::new()
            .with_sample_interval(SimTime::from_us(1))
            .with_max_samples(16);
        for i in 0..10_000u64 {
            let t = SimTime::from_us(i * 2);
            if r.sample_due(t) {
                r.disk_sample(
                    t,
                    DiskSample {
                        disk: 0,
                        busy_us: i,
                        queue_depth: 0,
                    },
                );
            }
        }
        let obs = r.collect(SimTime::from_secs(1)).unwrap();
        assert!(obs.timelines[0].samples.len() <= 17);
        assert!(obs.timelines[0].samples.len() >= 8);
    }

    #[test]
    fn trace_is_bounded_and_reports_drops() {
        let mut r = Recorder::new().with_trace(3);
        for i in 0..10 {
            r.latency(SimTime::from_ms(i), OpClass::UserWrite, SimTime::from_ms(1));
        }
        let obs = r.collect(SimTime::from_ms(10)).unwrap();
        assert_eq!(obs.trace_dropped, 7);
        // 3 kept lines plus the trailing drop marker.
        assert_eq!(obs.trace.len(), 4);
        assert!(obs.trace[3].contains("\"e\":\"dropped\""));
    }

    #[test]
    fn observations_json_is_stable() {
        let mut r = Recorder::new();
        r.latency(SimTime::from_ms(1), OpClass::UserRead, SimTime::from_ms(1));
        let a = r.collect(SimTime::from_ms(1)).unwrap().to_json();
        let mut r2 = Recorder::new();
        r2.latency(SimTime::from_ms(1), OpClass::UserRead, SimTime::from_ms(1));
        let b = r2.collect(SimTime::from_ms(1)).unwrap().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"classes\":{\"user_read\":"));
    }
}
