//! Media fault injection: latent sector errors and transient access
//! failures.
//!
//! The paper's reliability argument (Section 3) is about the *window of
//! vulnerability*: the interval during which a second fault — a whole-disk
//! failure or an unreadable sector discovered mid-rebuild — defeats a
//! single-failure-correcting array. This module supplies the sector-level
//! half of that threat model:
//!
//! * **Latent sector errors** — a deterministic pseudo-random subset of
//!   sectors carry media defects. A read covering a defective sector
//!   surfaces [`AccessOutcome::MediaError`] after the drive's internal
//!   retries; a write covering one succeeds and *remaps* it (heals it),
//!   the way real drives reallocate on write. The defective set is a pure
//!   function of `(seed, disk, sector)`, so it is independent of access
//!   order and identical across replayed runs.
//! * **Transient access failures** — each service attempt independently
//!   fails with a small probability (vibration, thermal recalibration,
//!   positioning error). The drive retries with exponential backoff up to
//!   [`MediaFaultConfig::max_retries`] times; retries surface only as
//!   added service latency and [`AccessOutcome::Ok::retries`], while an
//!   access that exhausts its retries escalates to a hard
//!   [`AccessOutcome::MediaError`].
//!
//! All randomness comes from one [`SimRng`] stream per disk, forked from
//! the configured seed, so runs remain bit-reproducible.

use decluster_sim::SimRng;
use std::collections::HashSet;

/// How an access finished, surfaced from [`crate::Disk::complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The transfer succeeded (possibly after transient retries that
    /// lengthened its service time).
    Ok {
        /// Transient failures retried before success.
        retries: u8,
    },
    /// The access failed hard: an uncorrectable media error on a read, or
    /// an access that exhausted its transient retries. The sector named is
    /// the first defective (or attempted) sector.
    MediaError {
        /// First failing sector of the transfer.
        sector: u64,
    },
}

impl AccessOutcome {
    /// Whether the access failed hard.
    pub fn is_error(&self) -> bool {
        matches!(self, AccessOutcome::MediaError { .. })
    }
}

/// Error-process parameters for one array's disks.
///
/// The default ([`MediaFaultConfig::none`]) injects nothing and adds zero
/// overhead, so fault-free experiments are byte-identical with or without
/// this subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediaFaultConfig {
    /// Probability that any given sector carries a latent media defect.
    /// Real drives quote unrecoverable-read-error rates around 1e-8 per
    /// sector; campaigns use larger values to make errors observable at
    /// simulation scale.
    pub latent_rate: f64,
    /// Probability that one service attempt fails transiently and must be
    /// retried.
    pub transient_rate: f64,
    /// Retries before a transiently-failing access escalates to a hard
    /// error.
    pub max_retries: u8,
    /// Base backoff before the first retry, µs; retry `k` waits
    /// `backoff_us << (k-1)` on top of the repeated attempt.
    pub backoff_us: u64,
    /// Seed for the per-disk fault streams (independent of the workload
    /// seed so fault patterns can vary while arrivals stay fixed).
    pub seed: u64,
}

impl MediaFaultConfig {
    /// No injected faults (the default).
    pub fn none() -> MediaFaultConfig {
        MediaFaultConfig {
            latent_rate: 0.0,
            transient_rate: 0.0,
            max_retries: 3,
            backoff_us: 1_000,
            seed: 0x5EC7_0A5E,
        }
    }

    /// Whether any error process is enabled.
    pub fn is_active(&self) -> bool {
        self.latent_rate > 0.0 || self.transient_rate > 0.0
    }

    /// Returns a copy with the given latent-defect probability per sector.
    pub fn with_latent_rate(mut self, rate: f64) -> MediaFaultConfig {
        self.latent_rate = rate;
        self
    }

    /// Returns a copy with the given transient failure probability per
    /// service attempt.
    pub fn with_transient_rate(mut self, rate: f64) -> MediaFaultConfig {
        self.transient_rate = rate;
        self
    }

    /// Returns a copy with a different fault seed.
    pub fn with_seed(mut self, seed: u64) -> MediaFaultConfig {
        self.seed = seed;
        self
    }
}

impl Default for MediaFaultConfig {
    fn default() -> Self {
        MediaFaultConfig::none()
    }
}

/// SplitMix64-style finalizer: decorrelates the packed (seed, disk,
/// sector) key into a uniform 64-bit hash.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The per-disk fault process: owns this disk's RNG stream and the set of
/// defective sectors healed (remapped) so far.
#[derive(Debug)]
pub struct MediaFaultModel {
    cfg: MediaFaultConfig,
    rng: SimRng,
    disk_key: u64,
    /// `latent_rate` as a 64-bit threshold, so the per-sector test is one
    /// hash and one compare.
    latent_threshold: u64,
    healed: HashSet<u64>,
}

impl MediaFaultModel {
    /// Builds the fault process for disk `label` under `cfg`.
    pub fn new(cfg: MediaFaultConfig, label: usize) -> MediaFaultModel {
        let disk_key = cfg
            .seed
            .wrapping_add((label as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        MediaFaultModel {
            rng: SimRng::new(mix(disk_key)),
            disk_key,
            latent_threshold: (cfg.latent_rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64,
            healed: HashSet::new(),
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MediaFaultConfig {
        &self.cfg
    }

    /// Whether `sector` currently carries a latent defect (deterministic
    /// in `(seed, disk, sector)`, minus anything healed since).
    pub fn latent_bad(&self, sector: u64) -> bool {
        self.latent_threshold > 0
            && mix(self.disk_key ^ sector.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                < self.latent_threshold
            && !self.healed.contains(&sector)
    }

    /// First defective sector in `[start, start + sectors)`, if any.
    pub fn first_bad_sector(&self, start: u64, sectors: u32) -> Option<u64> {
        if self.latent_threshold == 0 {
            return None;
        }
        (start..start + sectors as u64).find(|&s| self.latent_bad(s))
    }

    /// Remaps every defective sector in the range (a write reallocates bad
    /// sectors; the array's scrub-on-error recovery uses this too).
    pub fn heal(&mut self, start: u64, sectors: u32) {
        if self.latent_threshold == 0 {
            return;
        }
        for s in start..start + sectors as u64 {
            // Only store sectors that were actually defective: the healed
            // set stays tiny even over long runs.
            if mix(self.disk_key ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15)) < self.latent_threshold {
                self.healed.insert(s);
            }
        }
    }

    /// Draws the transient-failure sequence for one access: `(retries,
    /// exhausted)`. `exhausted` means the access failed `max_retries + 1`
    /// times and escalates to a hard error.
    pub fn draw_attempts(&mut self) -> (u8, bool) {
        if self.cfg.transient_rate <= 0.0 {
            return (0, false);
        }
        let mut retries = 0u8;
        while self.rng.chance(self.cfg.transient_rate) {
            if retries >= self.cfg.max_retries {
                return (retries, true);
            }
            retries += 1;
        }
        (retries, false)
    }

    /// Number of sectors in `[0, sectors)` currently carrying an unhealed
    /// latent defect — the disk's *exposed* defects. A second fault turns
    /// each of these into an unrecoverable stripe, so this count at
    /// second-fault time is the quantity patrol scrubbing exists to drive
    /// down.
    pub fn count_defective(&self, sectors: u64) -> u64 {
        if self.latent_threshold == 0 {
            return 0;
        }
        (0..sectors).filter(|&s| self.latent_bad(s)).count() as u64
    }

    /// Total backoff paid for `retries` retries, µs: `backoff_us * (2^retries - 1)`.
    pub fn backoff_us(&self, retries: u8) -> f64 {
        if retries == 0 {
            0.0
        } else {
            self.cfg.backoff_us as f64 * ((1u64 << retries) - 1) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_config_draws_nothing() {
        let mut m = MediaFaultModel::new(MediaFaultConfig::none(), 0);
        assert!(!MediaFaultConfig::none().is_active());
        assert_eq!(m.draw_attempts(), (0, false));
        assert_eq!(m.first_bad_sector(0, 1_000_000), None);
        assert!(!m.latent_bad(42));
    }

    #[test]
    fn latent_defects_are_deterministic_and_rate_scaled() {
        let cfg = MediaFaultConfig::none().with_latent_rate(0.01);
        let a = MediaFaultModel::new(cfg, 3);
        let b = MediaFaultModel::new(cfg, 3);
        let n = 100_000u64;
        let bad_a: Vec<u64> = (0..n).filter(|&s| a.latent_bad(s)).collect();
        let bad_b: Vec<u64> = (0..n).filter(|&s| b.latent_bad(s)).collect();
        assert_eq!(bad_a, bad_b, "defect set must be a pure function of seed");
        let rate = bad_a.len() as f64 / n as f64;
        assert!((rate - 0.01).abs() < 0.002, "observed defect rate {rate}");
    }

    #[test]
    fn different_disks_have_different_defects() {
        let cfg = MediaFaultConfig::none().with_latent_rate(0.01);
        let a = MediaFaultModel::new(cfg, 0);
        let b = MediaFaultModel::new(cfg, 1);
        let n = 100_000u64;
        let bad_a: Vec<u64> = (0..n).filter(|&s| a.latent_bad(s)).collect();
        let bad_b: Vec<u64> = (0..n).filter(|&s| b.latent_bad(s)).collect();
        assert_ne!(bad_a, bad_b);
    }

    #[test]
    fn healing_clears_a_defect() {
        let cfg = MediaFaultConfig::none().with_latent_rate(0.05);
        let mut m = MediaFaultModel::new(cfg, 0);
        let bad = (0..100_000)
            .find(|&s| m.latent_bad(s))
            .expect("some defect");
        m.heal(bad, 1);
        assert!(!m.latent_bad(bad));
        assert_eq!(m.first_bad_sector(bad, 1), None);
    }

    #[test]
    fn retries_eventually_exhaust() {
        // With transient_rate = 1.0 every attempt fails: the access runs
        // out of retries and escalates.
        let cfg = MediaFaultConfig::none().with_transient_rate(1.0);
        let mut m = MediaFaultModel::new(cfg, 0);
        assert_eq!(m.draw_attempts(), (cfg.max_retries, true));
    }

    #[test]
    fn backoff_doubles_per_retry() {
        let m = MediaFaultModel::new(MediaFaultConfig::none(), 0);
        assert_eq!(m.backoff_us(0), 0.0);
        assert_eq!(m.backoff_us(1), 1_000.0);
        assert_eq!(m.backoff_us(3), 7_000.0);
    }
}
