//! Figure 4-3: the scatter of known block designs.
//!
//! The paper plots Hall's table of balanced incomplete block designs as
//! points in the (number of objects `v`, tuple size `k`) plane, to show
//! which array-size/stripe-width combinations admit a good layout. Our
//! version plots every design the `decluster-core` catalog can construct.

use decluster_core::design::catalog;
use decluster_core::design::DesignParams;

/// One point of the Figure 4-3 scatter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Point {
    /// Objects (disks), the x-axis.
    pub v: u16,
    /// Tuple size (stripe width), the y-axis.
    pub k: u16,
    /// Tuples in the design (the table-size cost of using it).
    pub b: u64,
    /// Pair balance λ.
    pub lambda: u64,
    /// The declustering ratio this point provides.
    pub alpha: f64,
}

impl From<DesignParams> for Fig4Point {
    fn from(p: DesignParams) -> Fig4Point {
        Fig4Point {
            v: p.v,
            k: p.k,
            b: p.b,
            lambda: p.lambda,
            alpha: p.alpha(),
        }
    }
}

/// All constructible designs with `v ≤ max_v` and tables of at most
/// `max_table` tuples.
pub fn figure_4_3(max_v: u16, max_table: u64) -> Vec<Fig4Point> {
    catalog::known_points(max_v, max_table)
        .into_iter()
        .map(Fig4Point::from)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_contains_the_paper_designs() {
        let points = figure_4_3(25, 10_000);
        for (k, b) in [
            (3u16, 70u64),
            (4, 105),
            (5, 21),
            (6, 42),
            (10, 42),
            (18, 1330),
        ] {
            assert!(
                points.iter().any(|p| p.v == 21 && p.k == k && p.b == b),
                "missing appendix design k={k}"
            );
        }
    }

    #[test]
    fn alpha_is_consistent() {
        for p in figure_4_3(15, 10_000) {
            assert!((p.alpha - (p.k - 1) as f64 / (p.v - 1) as f64).abs() < 1e-12);
        }
    }
}
