//! The Muntz & Lui analytic reconstruction-time model.
//!
//! Muntz & Lui (*Performance Analysis of Disk Arrays Under Failure*, VLDB
//! 1990) modelled reconstruction of a declustered array analytically. The
//! Holland & Gibson paper (Section 8.3, Figure 8-6) compares that model
//! against simulation and attributes the disagreement to one central
//! simplification: **every disk access costs the same**, a single service
//! rate `μ` (~46 random 4 KB accesses/s for the IBM 0661), regardless of
//! head position — so sequential reconstruction writes are priced like
//! random accesses and redirecting user work to the replacement disk looks
//! free.
//!
//! This crate implements that style of model as a fluid approximation so
//! the comparison can be regenerated:
//!
//! * the reconstructed fraction `x(t)` of the failed disk evolves as
//!   `dx/dt = (R(x) + F(x)) / U`, where `U` is units per disk;
//! * `R(x)`, the background reconstruction rate, is the bottleneck of the
//!   survivors' spare capacity (each reconstructed unit costs `G−1` reads
//!   spread over `C−1` survivors) and the replacement's spare capacity
//!   (1 write per unit) — Muntz & Lui's "either the survivors or the
//!   replacement runs at 100 % utilization";
//! * `F(x)` is "free" reconstruction by user activity (writes sent
//!   directly to the replacement; piggybacked reads);
//! * user work is accounted access-by-access using the paper's
//!   conversions: each user write is four disk accesses, so the disk-level
//!   arrival rate is `(4−3R)` times the user rate and the disk-level read
//!   fraction is `(2−R)/(4−3R)`.
//!
//! # Examples
//!
//! ```
//! use decluster_analytic::{MuntzLuiModel, ReconAlgorithm};
//!
//! // The paper's array: 21 disks, G = 4 (α = 0.15), 105 user accesses/s,
//! // half reads, μ = 46/s, IBM 0661 capacity.
//! let model = MuntzLuiModel::new(21, 4, 105.0, 0.5, 46.0, 79_716);
//! let t = model.reconstruction_time(ReconAlgorithm::Redirect).unwrap();
//! assert!(t > 1_000.0, "M&L-style predictions are pessimistic: {t}");
//! ```

#![warn(missing_docs)]

pub mod queueing;
pub mod reliability;

pub use decluster_core::recon::ReconAlgorithm;

/// Per-disk access rates at a given reconstruction state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadBreakdown {
    /// User accesses per second landing on each surviving disk.
    pub survivor_rate: f64,
    /// User accesses per second landing on the replacement disk.
    pub replacement_rate: f64,
    /// Units per second reconstructed "for free" by user activity.
    pub free_rebuild_rate: f64,
}

/// The Muntz & Lui-style fluid model of a declustered array under
/// reconstruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MuntzLuiModel {
    /// Number of disks `C`.
    pub disks: u16,
    /// Parity stripe width `G`.
    pub group: u16,
    /// Aggregate user access rate (accesses/s).
    pub user_rate: f64,
    /// Fraction of user accesses that are reads.
    pub user_read_fraction: f64,
    /// The single disk service rate `μ` (accesses/s) — the model's central
    /// simplification.
    pub mu: f64,
    /// Units per disk to reconstruct.
    pub units_per_disk: u64,
}

impl MuntzLuiModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if `group` is not in `2..=disks`, rates are not positive and
    /// finite, or the read fraction is outside `[0, 1]`.
    pub fn new(
        disks: u16,
        group: u16,
        user_rate: f64,
        user_read_fraction: f64,
        mu: f64,
        units_per_disk: u64,
    ) -> MuntzLuiModel {
        assert!(
            disks >= 2 && group >= 2 && group <= disks,
            "need 2 <= G <= C"
        );
        assert!(user_rate.is_finite() && user_rate > 0.0, "bad user rate");
        assert!(mu.is_finite() && mu > 0.0, "bad service rate");
        assert!(
            (0.0..=1.0).contains(&user_read_fraction),
            "read fraction outside [0, 1]"
        );
        MuntzLuiModel {
            disks,
            group,
            user_rate,
            user_read_fraction,
            mu,
            units_per_disk,
        }
    }

    /// The declustering ratio `α = (G−1)/(C−1)`.
    pub fn alpha(&self) -> f64 {
        (self.group - 1) as f64 / (self.disks - 1) as f64
    }

    /// Disk-level access rate induced by the user workload: `(4−3R)` disk
    /// accesses per user access (paper, Section 8.3).
    pub fn disk_access_rate(&self) -> f64 {
        self.user_rate * (4.0 - 3.0 * self.user_read_fraction)
    }

    /// Disk-level read fraction, `(2−R)/(4−3R)` (paper, Section 8.3).
    pub fn disk_read_fraction(&self) -> f64 {
        (2.0 - self.user_read_fraction) / (4.0 - 3.0 * self.user_read_fraction)
    }

    /// Fault-free per-disk utilization, `λ_disk / (C·μ)`.
    pub fn fault_free_utilization(&self) -> f64 {
        self.disk_access_rate() / (self.disks as f64 * self.mu)
    }

    /// User load on the survivors and the replacement when a fraction `x`
    /// of the failed disk has been rebuilt.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `[0, 1]`.
    pub fn load_at(&self, algorithm: ReconAlgorithm, x: f64) -> LoadBreakdown {
        assert!((0.0..=1.0).contains(&x), "fraction {x} outside [0, 1]");
        let c = self.disks as f64;
        let g = self.group as f64;
        let rate = self.user_rate;
        let reads = rate * self.user_read_fraction;
        let writes = rate * (1.0 - self.user_read_fraction);

        let mut survivors = 0.0; // aggregate accesses/s over all C−1 survivors
        let mut replacement = 0.0;
        let mut free = 0.0;

        // --- User reads -------------------------------------------------
        // Data on a survivor: one access there.
        survivors += reads * (c - 1.0) / c;
        // Data on the failed disk (probability 1/C):
        let failed_reads = reads / c;
        let redirected = if algorithm.redirects_reads() { x } else { 0.0 };
        // Redirected reads hit the replacement once...
        replacement += failed_reads * redirected;
        // ...the rest reconstruct on the fly: G−1 survivor accesses.
        let otf_reads = failed_reads * (1.0 - redirected);
        survivors += otf_reads * (g - 1.0);
        if algorithm.piggybacks_writes() {
            // On-the-fly reads of still-lost units also rebuild them.
            let piggy = failed_reads * (1.0 - x);
            replacement += piggy; // the piggybacked write
            free += piggy;
        }

        // --- User writes ------------------------------------------------
        // Case a: data and parity both on survivors — the standard
        // four-access read-modify-write.
        survivors += writes * (c - 2.0) / c * 4.0;
        // Case b: parity on the failed disk (probability 1/C).
        let parity_failed = writes / c;
        // Rebuilt parity (fraction x): full RMW with the parity half on the
        // replacement. Not rebuilt: the data write alone (updating lost
        // parity has no value).
        survivors += parity_failed * (x * 2.0 + (1.0 - x) * 1.0);
        replacement += parity_failed * x * 2.0;
        // Case c: data on the failed disk (probability 1/C).
        let data_failed = writes / c;
        // Rebuilt data (fraction x): full RMW with the data half on the
        // replacement.
        survivors += data_failed * x * 2.0;
        replacement += data_failed * x * 2.0;
        // Not rebuilt: the new parity is computed from the stripe's other
        // data units — G−2 reads plus the parity write on survivors.
        let lost_writes = data_failed * (1.0 - x);
        survivors += lost_writes * (g - 1.0);
        if algorithm.writes_to_replacement() {
            // The new data also goes straight to the replacement, rebuilding
            // that unit for free.
            replacement += lost_writes;
            free += lost_writes;
        }

        LoadBreakdown {
            survivor_rate: survivors / (c - 1.0),
            replacement_rate: replacement,
            free_rebuild_rate: free,
        }
    }

    /// The background reconstruction rate (units/s) at state `x`: the
    /// bottleneck of survivor spare capacity (each unit costs `G−1` reads
    /// over `C−1` survivors) and the replacement's write rate `μ`.
    ///
    /// Faithful to the flaw the paper identifies (Section 8.3): in the
    /// Muntz & Lui model, *redirecting user work to the replacement disk
    /// does not increase that disk's average access time*, so user accesses
    /// landing on the replacement are **not** charged against its
    /// reconstruction capacity here. (The simulation shows this is false on
    /// a real disk, where random interlopers destroy the write stream's
    /// sequentiality — that is the headline disagreement of Figure 8-6.)
    pub fn rebuild_rate_at(&self, algorithm: ReconAlgorithm, x: f64) -> f64 {
        let load = self.load_at(algorithm, x);
        let survivor_spare = (self.mu - load.survivor_rate).max(0.0);
        let by_survivors = survivor_spare * (self.disks as f64 - 1.0) / (self.group as f64 - 1.0);
        by_survivors.min(self.mu)
    }

    /// Predicted reconstruction time in seconds, or `None` if the model
    /// says reconstruction starves (no spare capacity and no free rebuild).
    pub fn reconstruction_time(&self, algorithm: ReconAlgorithm) -> Option<f64> {
        let u = self.units_per_disk as f64;
        let steps = 10_000;
        let dx = 1.0 / steps as f64;
        let mut t = 0.0;
        for i in 0..steps {
            let x = (i as f64 + 0.5) * dx;
            let load = self.load_at(algorithm, x);
            let rate = self.rebuild_rate_at(algorithm, x) + load.free_rebuild_rate;
            if rate <= 1e-12 {
                return None;
            }
            t += u * dx / rate;
        }
        Some(t)
    }

    /// The minimum possible reconstruction time under the model: no user
    /// load at all, every disk at full tilt.
    pub fn offline_reconstruction_time(&self) -> f64 {
        let u = self.units_per_disk as f64;
        let by_survivors = self.mu * (self.disks as f64 - 1.0) / (self.group as f64 - 1.0);
        u / by_survivors.min(self.mu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNITS: u64 = 79_716;

    fn model(g: u16, rate: f64) -> MuntzLuiModel {
        MuntzLuiModel::new(21, g, rate, 0.5, 46.0, UNITS)
    }

    #[test]
    fn conversions_match_paper_formulas() {
        let m = model(4, 105.0);
        // R = 0.5: 4 − 3·0.5 = 2.5 disk accesses per user access.
        assert!((m.disk_access_rate() - 262.5).abs() < 1e-9);
        // (2 − 0.5) / 2.5 = 0.6 disk-level read fraction.
        assert!((m.disk_read_fraction() - 0.6).abs() < 1e-9);
        assert!((m.alpha() - 0.15).abs() < 1e-9);
    }

    #[test]
    fn offline_time_matches_single_disk_write_bound() {
        // With G−1 ≤ C−1 survivors feeding one replacement, the replacement
        // write rate μ is the bottleneck: 79716 / 46 ≈ 1733 s — the paper's
        // "over 1700 seconds" observation for random-access rates.
        let m = model(4, 105.0);
        let t = m.offline_reconstruction_time();
        assert!((t - UNITS as f64 / 46.0).abs() < 1.0, "t = {t}");
        assert!(t > 1700.0);
    }

    #[test]
    fn predictions_are_pessimistic_relative_to_simulation() {
        // Background reconstruction can never beat the offline bound
        // (~1733 s); free rebuilding by user writes shaves only a little at
        // these rates. Every prediction stays far above the paper's
        // simulated reconstructions (~600–2400 s single-threaded, faster
        // parallel), i.e. the model is pessimistic.
        for g in [4u16, 10, 21] {
            for alg in ReconAlgorithm::ALL {
                let m = model(g, 105.0);
                if let Some(t) = m.reconstruction_time(alg) {
                    assert!(t > 1_500.0, "G={g} {alg}: {t}");
                }
            }
        }
    }

    #[test]
    fn lower_alpha_never_slower_under_light_load() {
        let t_low = model(4, 105.0)
            .reconstruction_time(ReconAlgorithm::Redirect)
            .unwrap();
        let t_high = model(21, 105.0)
            .reconstruction_time(ReconAlgorithm::Redirect)
            .unwrap();
        assert!(
            t_low <= t_high,
            "alpha 0.15 took {t_low}, RAID 5 took {t_high}"
        );
    }

    #[test]
    fn user_writes_predicted_worse_than_redirect() {
        // The paper: "their predictions for the user-writes algorithm are
        // more pessimistic than for their other algorithms" because the
        // model never charges the replacement for seek disruption but does
        // charge survivors for un-redirected reads.
        let m = model(10, 210.0);
        let uw = m.reconstruction_time(ReconAlgorithm::UserWrites).unwrap();
        let rd = m.reconstruction_time(ReconAlgorithm::Redirect).unwrap();
        assert!(rd <= uw, "redirect {rd} vs user-writes {uw}");
    }

    #[test]
    fn piggyback_never_slower_than_redirect_in_model() {
        let m = model(10, 210.0);
        let rd = m.reconstruction_time(ReconAlgorithm::Redirect).unwrap();
        let pb = m
            .reconstruction_time(ReconAlgorithm::RedirectPiggyback)
            .unwrap();
        assert!(pb <= rd + 1e-6, "piggyback {pb} vs redirect {rd}");
    }

    #[test]
    fn starvation_is_reported() {
        // Saturating read-only load leaves no spare capacity, and a
        // reads-only baseline has no free rebuilding either.
        let m = MuntzLuiModel::new(21, 21, 21.0 * 46.0, 1.0, 46.0, UNITS);
        assert_eq!(m.reconstruction_time(ReconAlgorithm::Baseline), None);
    }

    #[test]
    fn free_rebuild_vanishes_when_complete() {
        let m = model(4, 105.0);
        for alg in ReconAlgorithm::ALL {
            assert_eq!(m.load_at(alg, 1.0).free_rebuild_rate, 0.0, "{alg}");
            assert!(m.load_at(alg, 0.0).survivor_rate > 0.0);
        }
    }

    #[test]
    fn fault_free_utilization_sane() {
        let m = model(4, 210.0);
        let rho = m.fault_free_utilization();
        // 210 · 2.5 / 21 = 25 accesses/s/disk of μ = 46.
        assert!((rho - 25.0 / 46.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "2 <= G <= C")]
    fn bad_group_panics() {
        MuntzLuiModel::new(5, 6, 1.0, 0.5, 46.0, 100);
    }
}
