//! Access-locality models beyond the paper's uniform distribution.
//!
//! The paper's evaluation draws targets uniformly over the data (Table
//! 5-1 (a)) and lists "different user workload characteristics" as future
//! work. This module supplies the standard skewed alternative: a
//! hot-spot model where a fraction of the address space receives a
//! (larger) fraction of the accesses — e.g. the classic 80/20 rule — so
//! declustering can be studied under realistic OLTP skew.

use decluster_sim::SimRng;

/// How access targets are distributed over the logical address space.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Locality {
    /// Every unit equally likely (the paper's model).
    #[default]
    Uniform,
    /// `access_fraction` of accesses land uniformly within the first
    /// `space_fraction` of the address space; the rest land uniformly in
    /// the remainder. `HotSpot { space_fraction: 0.2, access_fraction:
    /// 0.8 }` is the 80/20 rule.
    HotSpot {
        /// Fraction of the address space that is hot, in `(0, 1)`.
        space_fraction: f64,
        /// Fraction of accesses that hit the hot region, in `(0, 1)`.
        access_fraction: f64,
    },
}

impl Locality {
    /// The 80/20 rule: 80 % of accesses to 20 % of the data.
    pub fn eighty_twenty() -> Locality {
        Locality::HotSpot {
            space_fraction: 0.2,
            access_fraction: 0.8,
        }
    }

    /// Validates parameters.
    ///
    /// # Panics
    ///
    /// Panics if a hot-spot fraction is outside `(0, 1)`.
    pub fn validate(&self) {
        if let Locality::HotSpot {
            space_fraction,
            access_fraction,
        } = self
        {
            assert!(
                (0.0..1.0).contains(space_fraction) && *space_fraction > 0.0,
                "space fraction {space_fraction} outside (0, 1)"
            );
            assert!(
                (0.0..1.0).contains(access_fraction) && *access_fraction > 0.0,
                "access fraction {access_fraction} outside (0, 1)"
            );
        }
    }

    /// Draws a target slot in `0..slots`.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn draw(&self, rng: &mut SimRng, slots: u64) -> u64 {
        assert!(slots > 0, "empty address space");
        match *self {
            Locality::Uniform => rng.below(slots),
            Locality::HotSpot {
                space_fraction,
                access_fraction,
            } => {
                // At least one slot in each region so both are drawable.
                let hot = ((slots as f64 * space_fraction) as u64).clamp(1, slots - 1);
                if rng.chance(access_fraction) {
                    rng.below(hot)
                } else {
                    hot + rng.below(slots - hot)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_space() {
        let mut rng = SimRng::new(1);
        let mut seen = [false; 16];
        for _ in 0..2000 {
            seen[Locality::Uniform.draw(&mut rng, 16) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn eighty_twenty_concentrates_accesses() {
        let mut rng = SimRng::new(2);
        let slots = 1000u64;
        let hot_boundary = 200u64;
        let n = 100_000;
        let hot_hits = (0..n)
            .filter(|_| Locality::eighty_twenty().draw(&mut rng, slots) < hot_boundary)
            .count();
        let frac = hot_hits as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.01, "hot fraction {frac}");
    }

    #[test]
    fn hotspot_stays_in_range_even_for_tiny_spaces() {
        let mut rng = SimRng::new(3);
        for slots in [2u64, 3, 5] {
            for _ in 0..500 {
                let v = Locality::eighty_twenty().draw(&mut rng, slots);
                assert!(v < slots);
            }
        }
    }

    #[test]
    fn both_regions_are_reachable() {
        let mut rng = SimRng::new(4);
        let l = Locality::HotSpot {
            space_fraction: 0.5,
            access_fraction: 0.5,
        };
        let (mut lo, mut hi) = (false, false);
        for _ in 0..1000 {
            if l.draw(&mut rng, 10) < 5 {
                lo = true;
            } else {
                hi = true;
            }
        }
        assert!(lo && hi);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1)")]
    fn bad_fraction_panics() {
        Locality::HotSpot {
            space_fraction: 1.5,
            access_fraction: 0.5,
        }
        .validate();
    }
}
