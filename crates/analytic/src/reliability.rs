//! Data-reliability model: mean time to data loss as a function of array
//! size and repair time.
//!
//! The paper's Section 2 frames the configuration trade-off: `C` sets how
//! many disks can fail (hurting reliability), `G` sets parity overhead,
//! and `α = (G−1)/(C−1)` sets reconstruction time — and "the mean time
//! until data loss is inversely proportional to mean repair time"
//! (citing Patterson, Gibson & Katz). This module provides that standard
//! Markov estimate for a single-failure-correcting array so the
//! reconstruction times produced by the simulator or the Muntz & Lui
//! model can be turned into reliability numbers.
//!
//! For independent exponential disk lifetimes (MTBF `m`) and repair time
//! `r ≪ m`:
//!
//! ```text
//! MTTDL ≈ m² / (C · (C−1) · r)
//! ```
//!
//! — the expected time until a second disk of the same array fails while
//! the first is still being repaired.

/// Mean time to data loss, in hours, for a `disks`-wide
/// single-failure-correcting array.
///
/// # Panics
///
/// Panics unless `disks >= 2` and both times are positive and finite.
///
/// # Examples
///
/// ```
/// use decluster_analytic::reliability::mttdl_hours;
///
/// // 21 disks of 150,000 h MTBF, repaired in 1 h.
/// let mttdl = mttdl_hours(21, 150_000.0, 1.0);
/// assert!(mttdl > 50_000_000.0); // thousands of years
/// // Ten times slower repair: ten times less reliable.
/// assert!((mttdl / mttdl_hours(21, 150_000.0, 10.0) - 10.0).abs() < 1e-9);
/// ```
pub fn mttdl_hours(disks: u16, mtbf_hours: f64, repair_hours: f64) -> f64 {
    assert!(disks >= 2, "an array needs at least 2 disks");
    assert!(
        mtbf_hours.is_finite() && mtbf_hours > 0.0,
        "MTBF must be positive and finite"
    );
    assert!(
        repair_hours.is_finite() && repair_hours > 0.0,
        "repair time must be positive and finite"
    );
    mtbf_hours * mtbf_hours / (disks as f64 * (disks as f64 - 1.0) * repair_hours)
}

/// Mean time to data loss, in hours, for a `disks`-wide
/// double-failure-correcting (P+Q) array.
///
/// With two redundant units per stripe, data loss needs **three**
/// overlapping failures: a third disk must die while the first two are
/// still under repair. Extending the Markov estimate one state deeper
/// (for `r ≪ m`):
///
/// ```text
/// MTTDL ≈ m³ / (C · (C−1) · (C−2) · r²)
/// ```
///
/// — one more factor of `m/r` than the single-fault figure, which is why
/// the paper's MTTDL-versus-overhead trade-off changes shape entirely
/// when a stripe carries a second parity unit.
///
/// # Panics
///
/// Panics unless `disks >= 3` and both times are positive and finite.
///
/// # Examples
///
/// ```
/// use decluster_analytic::reliability::{mttdl_hours, mttdl_two_fault_hours};
///
/// // The second parity buys a factor of m/((C−2)·r) ≈ 7900 here.
/// let single = mttdl_hours(21, 150_000.0, 1.0);
/// let double = mttdl_two_fault_hours(21, 150_000.0, 1.0);
/// assert!(double / single > 1000.0);
/// ```
pub fn mttdl_two_fault_hours(disks: u16, mtbf_hours: f64, repair_hours: f64) -> f64 {
    assert!(disks >= 3, "a P+Q array needs at least 3 disks");
    assert!(
        mtbf_hours.is_finite() && mtbf_hours > 0.0,
        "MTBF must be positive and finite"
    );
    assert!(
        repair_hours.is_finite() && repair_hours > 0.0,
        "repair time must be positive and finite"
    );
    let c = disks as f64;
    mtbf_hours * mtbf_hours * mtbf_hours / (c * (c - 1.0) * (c - 2.0) * repair_hours * repair_hours)
}

/// Mean time to data loss when only some disk pairs are fatal.
///
/// The standard `C·(C−1)` factor in [`mttdl_hours`] counts every ordered
/// pair of (first failure, second failure) as fatal. Layouts differ:
/// chained mirroring loses data only when ring neighbours fail together
/// (`C` unordered fatal pairs), while any parity-declustered layout
/// satisfying criterion 2 is vulnerable to every pair. Pass the unordered
/// fatal-pair count from
/// `decluster_core::layout::vulnerability::analyze`.
///
/// # Panics
///
/// Panics unless `fatal_pairs` is positive and the times are positive and
/// finite.
pub fn mttdl_hours_fatal(fatal_pairs: u64, mtbf_hours: f64, repair_hours: f64) -> f64 {
    assert!(
        fatal_pairs > 0,
        "a layout with no fatal pairs never loses data"
    );
    assert!(
        mtbf_hours.is_finite() && mtbf_hours > 0.0,
        "MTBF must be positive and finite"
    );
    assert!(
        repair_hours.is_finite() && repair_hours > 0.0,
        "repair time must be positive and finite"
    );
    // 2 × unordered pairs = ordered (first, second) fatal combinations.
    mtbf_hours * mtbf_hours / (2.0 * fatal_pairs as f64 * repair_hours)
}

/// Probability of losing data within `horizon_hours`, assuming
/// exponentially distributed time to data loss.
///
/// # Panics
///
/// Panics unless both arguments are positive and finite.
pub fn data_loss_probability(mttdl_hours: f64, horizon_hours: f64) -> f64 {
    assert!(mttdl_hours.is_finite() && mttdl_hours > 0.0, "bad MTTDL");
    assert!(
        horizon_hours.is_finite() && horizon_hours > 0.0,
        "bad horizon"
    );
    1.0 - (-horizon_hours / mttdl_hours).exp()
}

/// One row of the configuration trade-off: what a stripe width `G` buys
/// and costs on a `C`-disk array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// Parity stripe width.
    pub group: u16,
    /// Declustering ratio α.
    pub alpha: f64,
    /// Fraction of capacity spent on parity, `1/G`.
    pub parity_overhead: f64,
    /// Repair (reconstruction) time used, hours.
    pub repair_hours: f64,
    /// Resulting mean time to data loss, hours.
    pub mttdl_hours: f64,
    /// Probability of data loss within ten years.
    pub ten_year_loss: f64,
}

/// Builds the trade-off table from measured or modelled reconstruction
/// times: `repair(g)` returns the repair time in hours for stripe width
/// `g`.
///
/// # Panics
///
/// Panics on the same conditions as [`mttdl_hours`].
pub fn tradeoff_table(
    disks: u16,
    mtbf_hours: f64,
    groups: &[u16],
    mut repair: impl FnMut(u16) -> f64,
) -> Vec<TradeoffPoint> {
    const TEN_YEARS_HOURS: f64 = 10.0 * 365.25 * 24.0;
    groups
        .iter()
        .map(|&g| {
            let repair_hours = repair(g);
            let mttdl = mttdl_hours(disks, mtbf_hours, repair_hours);
            TradeoffPoint {
                group: g,
                alpha: (g - 1) as f64 / (disks - 1) as f64,
                parity_overhead: 1.0 / g as f64,
                repair_hours,
                mttdl_hours: mttdl,
                ten_year_loss: data_loss_probability(mttdl, TEN_YEARS_HOURS),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mttdl_inverse_in_repair_time() {
        // The proportionality the paper cites.
        let fast = mttdl_hours(21, 100_000.0, 0.5);
        let slow = mttdl_hours(21, 100_000.0, 2.0);
        assert!((fast / slow - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mttdl_quadratic_in_mtbf() {
        let a = mttdl_hours(21, 100_000.0, 1.0);
        let b = mttdl_hours(21, 200_000.0, 1.0);
        assert!((b / a - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bigger_arrays_are_less_reliable() {
        let small = mttdl_hours(11, 100_000.0, 1.0);
        let big = mttdl_hours(41, 100_000.0, 1.0);
        assert!(small > big);
        // C(C−1) scaling exactly.
        assert!((small / big - (41.0 * 40.0) / (11.0 * 10.0)).abs() < 1e-9);
    }

    #[test]
    fn two_fault_mttdl_scales_as_the_markov_chain_predicts() {
        // Cubic in MTBF, inverse-quadratic in repair time.
        let a = mttdl_two_fault_hours(21, 100_000.0, 1.0);
        let b = mttdl_two_fault_hours(21, 200_000.0, 1.0);
        assert!((b / a - 8.0).abs() < 1e-9);
        let fast = mttdl_two_fault_hours(21, 100_000.0, 0.5);
        assert!((fast / a - 4.0).abs() < 1e-9);
        // And always beats the single-fault figure in the r ≪ m regime.
        assert!(a > mttdl_hours(21, 100_000.0, 1.0));
    }

    #[test]
    fn loss_probability_behaves() {
        let mttdl = 1_000_000.0;
        let p1 = data_loss_probability(mttdl, 8_766.0); // one year
        let p10 = data_loss_probability(mttdl, 87_660.0);
        assert!(p1 > 0.0 && p1 < p10 && p10 < 1.0);
        // Small-probability regime: p ≈ t / mttdl.
        assert!((p1 - 8_766.0 / mttdl).abs() / p1 < 0.01);
    }

    #[test]
    fn tradeoff_orders_as_the_paper_argues() {
        // Faster repair at low α (declustering) must dominate MTTDL when
        // MTBF and C are fixed.
        let table = tradeoff_table(21, 150_000.0, &[4, 10, 21], |g| match g {
            4 => 0.5,
            10 => 1.0,
            _ => 2.0,
        });
        assert_eq!(table.len(), 3);
        assert!(table[0].mttdl_hours > table[1].mttdl_hours);
        assert!(table[1].mttdl_hours > table[2].mttdl_hours);
        assert!(table[0].ten_year_loss < table[2].ten_year_loss);
        assert!((table[0].parity_overhead - 0.25).abs() < 1e-12);
        assert!((table[2].parity_overhead - 1.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn fatal_pairs_formula_reduces_to_standard() {
        // With every pair fatal, the refined formula equals the classic one.
        let c = 21u64;
        let all_pairs = c * (c - 1) / 2;
        let classic = mttdl_hours(21, 150_000.0, 1.0);
        let refined = mttdl_hours_fatal(all_pairs, 150_000.0, 1.0);
        assert!((classic - refined).abs() / classic < 1e-12);
    }

    #[test]
    fn chained_mirrors_gain_reliability_from_few_fatal_pairs() {
        // Chained declustering over C disks has only C fatal pairs: its
        // MTTDL beats an everything-fatal layout by (C−1)/2 at equal
        // repair time — Hsiao & DeWitt's argument quantified.
        let c = 21u64;
        let chained = mttdl_hours_fatal(c, 150_000.0, 1.0);
        let all = mttdl_hours_fatal(c * (c - 1) / 2, 150_000.0, 1.0);
        assert!((chained / all - (c as f64 - 1.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "never loses data")]
    fn zero_fatal_pairs_panics() {
        mttdl_hours_fatal(0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 disks")]
    fn single_disk_panics() {
        mttdl_hours(1, 1.0, 1.0);
    }
}
