//! Seek-time model: a three-parameter curve fit to drive specifications.

use crate::geometry::Geometry;

/// Seek time as a function of seek distance.
///
/// Uses the standard three-parameter form (Lee's model, as used by the
/// Berkeley RAID work the paper builds on):
///
/// ```text
/// seek(d) = a·√(d−1) + b·(d−1) + c       for d ≥ 1,   seek(0) = 0
/// ```
///
/// The square-root term captures the arm's acceleration-dominated short
/// seeks; the linear term its constant-velocity long seeks; `c` the fixed
/// settle overhead. [`SeekModel::fit`] solves for `(a, b, c)` so that the
/// curve reproduces a drive's specified minimum (single-cylinder), average
/// (over uniformly random request pairs), and maximum (full-stroke) seek
/// times exactly.
///
/// # Examples
///
/// ```
/// use decluster_disk::{Geometry, SeekModel};
///
/// let m = SeekModel::fit(&Geometry::ibm0661());
/// assert_eq!(m.seek_us(0), 0.0);
/// assert!((m.seek_us(1) - 2_000.0).abs() < 1.0);      // min spec
/// assert!((m.seek_us(948) - 25_000.0).abs() < 1.0);   // max spec
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeekModel {
    a_us: f64,
    b_us: f64,
    c_us: f64,
    max_distance: u32,
}

impl SeekModel {
    /// Fits the curve to a drive's (min, avg, max) seek specification.
    ///
    /// `c` is pinned by the single-cylinder seek; `a` and `b` solve the
    /// 2×2 linear system given by the full-stroke seek and the average seek
    /// over the exact discrete distribution of distances between two
    /// independent uniformly random cylinders (conditioned on actually
    /// moving): `P(d) ∝ (C − d)` for `1 ≤ d ≤ C−1`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has fewer than three cylinders or its seek
    /// specification is not increasing (min < avg < max).
    pub fn fit(geometry: &Geometry) -> SeekModel {
        let cyls = geometry.cylinders;
        assert!(cyls >= 3, "seek fit needs at least 3 cylinders, got {cyls}");
        let (min, avg, max) = (
            geometry.seek_min_ms * 1_000.0,
            geometry.seek_avg_ms * 1_000.0,
            geometry.seek_max_ms * 1_000.0,
        );
        assert!(
            min < avg && avg < max,
            "seek spec must satisfy min < avg < max, got {min}/{avg}/{max} us"
        );
        let d_max = (cyls - 1) as f64;

        // Moments of √(d−1) and (d−1) under P(d) ∝ (C − d), d = 1..C−1.
        let mut weight_sum = 0.0;
        let mut m_sqrt = 0.0;
        let mut m_lin = 0.0;
        for d in 1..cyls {
            let w = (cyls - d) as f64;
            weight_sum += w;
            m_sqrt += w * ((d - 1) as f64).sqrt();
            m_lin += w * (d - 1) as f64;
        }
        m_sqrt /= weight_sum;
        m_lin /= weight_sum;

        // Solve:  a·m_sqrt + b·m_lin       = avg − min
        //         a·√(D−1) + b·(D−1)       = max − min
        let r1 = avg - min;
        let r2 = max - min;
        let (s, l) = ((d_max - 1.0).sqrt(), d_max - 1.0);
        let det = m_sqrt * l - m_lin * s;
        let (a, b) = if det.abs() > 1e-9 {
            ((r1 * l - r2 * m_lin) / det, (m_sqrt * r2 - s * r1) / det)
        } else {
            // Three cylinders leave only two distinct distances, where the
            // √ and linear terms are indistinguishable: fall back to the
            // pure linear fit through (min, max); the average is then
            // whatever the line gives.
            (0.0, r2 / l)
        };

        SeekModel {
            a_us: a,
            b_us: b,
            c_us: min,
            max_distance: cyls - 1,
        }
    }

    /// Seek time in microseconds for a move of `distance` cylinders.
    ///
    /// # Panics
    ///
    /// Panics if `distance` exceeds the fitted stroke.
    pub fn seek_us(&self, distance: u32) -> f64 {
        assert!(
            distance <= self.max_distance,
            "seek distance {distance} exceeds stroke {}",
            self.max_distance
        );
        if distance == 0 {
            return 0.0;
        }
        let d = (distance - 1) as f64;
        self.a_us * d.sqrt() + self.b_us * d + self.c_us
    }

    /// The fitted coefficients `(a, b, c)` in microseconds.
    pub fn coefficients_us(&self) -> (f64, f64, f64) {
        (self.a_us, self.b_us, self.c_us)
    }

    /// First and second moments of the seek time (µs, µs²) under the
    /// distribution of distances between two independent uniformly random
    /// cylinders — including the no-move case (`d = 0`, seek 0).
    pub fn random_seek_moments_us(&self, cylinders: u32) -> (f64, f64) {
        let c = cylinders as f64;
        let mut m1 = 0.0;
        let mut m2 = 0.0;
        // P(d=0) = 1/C contributes nothing; P(d) = 2(C−d)/C² for d ≥ 1.
        for d in 1..cylinders {
            let p = 2.0 * (c - d as f64) / (c * c);
            let t = self.seek_us(d);
            m1 += p * t;
            m2 += p * t * t;
        }
        (m1, m2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decluster_sim::SimRng;

    fn ibm() -> SeekModel {
        SeekModel::fit(&Geometry::ibm0661())
    }

    #[test]
    fn hits_spec_endpoints() {
        let m = ibm();
        assert_eq!(m.seek_us(0), 0.0);
        assert!((m.seek_us(1) - 2_000.0).abs() < 1e-6);
        assert!((m.seek_us(948) - 25_000.0).abs() < 1e-6);
    }

    #[test]
    fn reproduces_average_seek_under_random_load() {
        // Monte-Carlo check: the average of seek(|x−y|) for uniformly random
        // distinct cylinders should be the 12.5 ms spec.
        let g = Geometry::ibm0661();
        let m = ibm();
        let mut rng = SimRng::new(42);
        let n = 400_000;
        let mut total = 0.0;
        let mut moved = 0u64;
        for _ in 0..n {
            let x = rng.below(g.cylinders as u64) as i64;
            let y = rng.below(g.cylinders as u64) as i64;
            let d = (x - y).unsigned_abs() as u32;
            if d > 0 {
                total += m.seek_us(d);
                moved += 1;
            }
        }
        let avg_ms = total / moved as f64 / 1_000.0;
        assert!((avg_ms - 12.5).abs() < 0.05, "avg seek {avg_ms} ms");
    }

    #[test]
    fn monotone_nondecreasing() {
        let m = ibm();
        let mut prev = 0.0;
        for d in 0..=948 {
            let t = m.seek_us(d);
            assert!(
                t >= prev - 1e-9,
                "seek curve decreased at distance {d}: {t} < {prev}"
            );
            prev = t;
        }
    }

    #[test]
    fn coefficients_positive_for_ibm0661() {
        // Both the √ and linear terms should contribute positively; a
        // negative coefficient would mean the fit is extrapolating weirdly.
        let (a, b, c) = ibm().coefficients_us();
        assert!(a > 0.0 && b > 0.0 && c > 0.0, "a={a} b={b} c={c}");
    }

    #[test]
    fn fit_works_for_scaled_disks() {
        for cyls in [50, 100, 200, 474] {
            let m = SeekModel::fit(&Geometry::ibm0661_scaled(cyls));
            assert!((m.seek_us(1) - 2_000.0).abs() < 1e-6);
            assert!((m.seek_us(cyls - 1) - 25_000.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds stroke")]
    fn seek_past_stroke_panics() {
        ibm().seek_us(949);
    }

    #[test]
    #[should_panic(expected = "min < avg < max")]
    fn bad_spec_panics() {
        let mut g = Geometry::ibm0661();
        g.seek_avg_ms = 30.0;
        SeekModel::fit(&g);
    }
}
