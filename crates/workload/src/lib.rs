//! Synthetic workload generation for the `decluster` array simulator.
//!
//! Reproduces the top layer of `raidSim` as configured in the paper's
//! Table 5-1 (a): an open arrival process of fixed-size, aligned accesses
//! drawn uniformly over the array's data, with a configurable read
//! fraction and aggregate arrival rate (a Poisson process — independent
//! exponential interarrival times — as is standard for OLTP-style request
//! streams).
//!
//! # Examples
//!
//! ```
//! use decluster_workload::{AccessKind, Workload, WorkloadSpec};
//!
//! // The paper's Section 8 workload: 105 accesses/s, half reads.
//! let spec = WorkloadSpec::new(105.0, 0.5);
//! let mut gen = Workload::new(spec, 10_000, 42);
//! let first = gen.next_request();
//! assert!(first.logical_unit < 10_000);
//! assert!(matches!(first.kind, AccessKind::Read | AccessKind::Write));
//! ```

#![warn(missing_docs)]

pub mod locality;
pub mod trace;

use decluster_sim::{SimRng, SimTime};

pub use locality::Locality;

/// Whether a user access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A user read.
    Read,
    /// A user write.
    Write,
}

/// One user request: an access of `units` stripe units at its arrival
/// time.
///
/// The paper's workload is fixed at one stripe unit (4 KB) per access,
/// 4 KB-aligned; multi-unit requests (an extension exercising the paper's
/// large-write-optimization discussion) are aligned to their own size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserRequest {
    /// Arrival time.
    pub arrival: SimTime,
    /// Read or write.
    pub kind: AccessKind,
    /// First logical data unit addressed.
    pub logical_unit: u64,
    /// Number of contiguous units accessed.
    pub units: u64,
}

/// The statistical shape of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Aggregate arrival rate, user accesses per second.
    pub rate_per_sec: f64,
    /// Fraction of accesses that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Stripe units per access (the paper fixes this at 1 = 4 KB);
    /// accesses are aligned to their own size.
    pub access_units: u64,
    /// How targets are spread over the address space (the paper uses
    /// [`Locality::Uniform`]).
    pub locality: Locality,
}

impl WorkloadSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite, or the read fraction
    /// is outside `[0, 1]`.
    pub fn new(rate_per_sec: f64, read_fraction: f64) -> WorkloadSpec {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "rate must be positive and finite, got {rate_per_sec}"
        );
        assert!(
            (0.0..=1.0).contains(&read_fraction),
            "read fraction {read_fraction} outside [0, 1]"
        );
        WorkloadSpec {
            rate_per_sec,
            read_fraction,
            access_units: 1,
            locality: Locality::Uniform,
        }
    }

    /// Returns a copy issuing `units`-unit accesses (aligned to `units`).
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    pub fn with_access_units(mut self, units: u64) -> WorkloadSpec {
        assert!(units > 0, "accesses need at least one unit");
        self.access_units = units;
        self
    }

    /// Returns a copy with the given access-locality model.
    ///
    /// # Panics
    ///
    /// Panics if the locality parameters are invalid.
    pub fn with_locality(mut self, locality: Locality) -> WorkloadSpec {
        locality.validate();
        self.locality = locality;
        self
    }

    /// The paper's 100 %-read workload at `rate` accesses/s (Section 6).
    pub fn all_reads(rate: f64) -> WorkloadSpec {
        WorkloadSpec::new(rate, 1.0)
    }

    /// The paper's 100 %-write workload at `rate` accesses/s (Section 6).
    pub fn all_writes(rate: f64) -> WorkloadSpec {
        WorkloadSpec::new(rate, 0.0)
    }

    /// The paper's Section 8 workload: 50 % reads at `rate` accesses/s.
    pub fn half_and_half(rate: f64) -> WorkloadSpec {
        WorkloadSpec::new(rate, 0.5)
    }
}

/// A deterministic stream of [`UserRequest`]s.
///
/// Poisson arrivals at the spec's rate; each request independently a read
/// with probability `read_fraction`, targeting a unit drawn uniformly from
/// `0..data_units`.
#[derive(Debug, Clone)]
pub struct Workload {
    spec: WorkloadSpec,
    data_units: u64,
    rng: SimRng,
    clock: SimTime,
}

impl Workload {
    /// Creates a stream over `data_units` logical units, seeded for
    /// reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `data_units` is zero.
    pub fn new(spec: WorkloadSpec, data_units: u64, seed: u64) -> Workload {
        assert!(data_units > 0, "workload needs a nonempty address space");
        assert!(
            spec.access_units <= data_units,
            "access size {} exceeds address space {data_units}",
            spec.access_units
        );
        Workload {
            spec,
            data_units,
            rng: SimRng::new(seed ^ 0x6465_636c_7573_7465), // distinct stream per purpose
            clock: SimTime::ZERO,
        }
    }

    /// The spec this stream was built from.
    pub fn spec(&self) -> WorkloadSpec {
        self.spec
    }

    /// Generates the next request (Poisson interarrivals at the aggregate
    /// rate, so arrival times are nondecreasing).
    pub fn next_request(&mut self) -> UserRequest {
        let gap = self.rng.exp(self.spec.rate_per_sec);
        self.clock += SimTime::from_secs_f64(gap);
        let kind = if self.rng.chance(self.spec.read_fraction) {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        let slots = self.data_units / self.spec.access_units;
        UserRequest {
            arrival: self.clock,
            kind,
            logical_unit: self.spec.locality.draw(&mut self.rng, slots) * self.spec.access_units,
            units: self.spec.access_units,
        }
    }

    /// Generates all requests arriving strictly before `end`.
    pub fn requests_until(&mut self, end: SimTime) -> Vec<UserRequest> {
        let mut out = Vec::new();
        loop {
            let req = self.next_request();
            if req.arrival >= end {
                // The overshooting request is dropped; memoryless arrivals
                // make this statistically harmless, and each stream is
                // consumed once per simulation.
                break;
            }
            out.push(req);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_rate_matches_spec() {
        let mut w = Workload::new(WorkloadSpec::new(210.0, 0.5), 1000, 1);
        let reqs = w.requests_until(SimTime::from_secs(100));
        let rate = reqs.len() as f64 / 100.0;
        assert!((rate - 210.0).abs() < 10.0, "observed rate {rate}");
    }

    #[test]
    fn read_fraction_matches_spec() {
        let mut w = Workload::new(WorkloadSpec::new(100.0, 0.3), 1000, 2);
        let reqs = w.requests_until(SimTime::from_secs(200));
        let reads = reqs.iter().filter(|r| r.kind == AccessKind::Read).count();
        let frac = reads as f64 / reqs.len() as f64;
        assert!((frac - 0.3).abs() < 0.03, "observed read fraction {frac}");
    }

    #[test]
    fn targets_are_uniform() {
        let units = 10u64;
        let mut w = Workload::new(WorkloadSpec::all_reads(500.0), units, 3);
        let reqs = w.requests_until(SimTime::from_secs(100));
        let mut counts = vec![0u64; units as usize];
        for r in &reqs {
            assert!(r.logical_unit < units);
            counts[r.logical_unit as usize] += 1;
        }
        let expected = reqs.len() as f64 / units as f64;
        for (u, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < expected * 0.15,
                "unit {u}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn arrivals_are_monotone() {
        let mut w = Workload::new(WorkloadSpec::half_and_half(105.0), 100, 4);
        let mut prev = SimTime::ZERO;
        for _ in 0..1000 {
            let r = w.next_request();
            assert!(r.arrival >= prev);
            prev = r.arrival;
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Workload::new(WorkloadSpec::half_and_half(105.0), 100, 9);
        let mut b = Workload::new(WorkloadSpec::half_and_half(105.0), 100, 9);
        for _ in 0..100 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    fn interarrival_distribution_is_exponential() {
        // Coefficient of variation of exponential interarrivals is 1.
        let mut w = Workload::new(WorkloadSpec::all_reads(100.0), 100, 5);
        let mut prev = SimTime::ZERO;
        let mut stats = decluster_sim::OnlineStats::new();
        for _ in 0..50_000 {
            let r = w.next_request();
            stats.push((r.arrival - prev).as_secs_f64());
            prev = r.arrival;
        }
        let cv = stats.std_dev() / stats.mean();
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn all_reads_and_all_writes_presets() {
        let mut r = Workload::new(WorkloadSpec::all_reads(50.0), 10, 6);
        let mut wr = Workload::new(WorkloadSpec::all_writes(50.0), 10, 6);
        for _ in 0..100 {
            assert_eq!(r.next_request().kind, AccessKind::Read);
            assert_eq!(wr.next_request().kind, AccessKind::Write);
        }
    }

    #[test]
    fn multi_unit_requests_are_aligned_and_in_range() {
        let spec = WorkloadSpec::half_and_half(50.0).with_access_units(4);
        let mut w = Workload::new(spec, 103, 7); // 103 units -> 25 aligned slots
        for _ in 0..2000 {
            let r = w.next_request();
            assert_eq!(r.units, 4);
            assert_eq!(r.logical_unit % 4, 0);
            assert!(r.logical_unit + r.units <= 103);
        }
    }

    #[test]
    fn hot_spot_workload_skews_targets() {
        let spec = WorkloadSpec::all_reads(200.0).with_locality(Locality::eighty_twenty());
        let mut w = Workload::new(spec, 1000, 13);
        let reqs = w.requests_until(SimTime::from_secs(200));
        let hot = reqs.iter().filter(|r| r.logical_unit < 200).count();
        let frac = hot as f64 / reqs.len() as f64;
        assert!((frac - 0.8).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn single_unit_is_the_default() {
        let mut w = Workload::new(WorkloadSpec::all_reads(10.0), 50, 1);
        assert_eq!(w.next_request().units, 1);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_access_units_panics() {
        WorkloadSpec::all_reads(1.0).with_access_units(0);
    }

    #[test]
    #[should_panic(expected = "nonempty address space")]
    fn zero_units_panics() {
        Workload::new(WorkloadSpec::all_reads(1.0), 0, 0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_read_fraction_panics() {
        WorkloadSpec::new(1.0, 1.5);
    }
}
