//! Parity layouts: where each data and parity unit of every parity stripe
//! lives on the array.
//!
//! A layout is *periodic*: it defines one table of `table_height()` unit
//! offsets per disk mapping `stripes_per_table()` parity stripes, and the
//! whole disk is covered by repeating the table ([`ParityLayout`] handles
//! the modular arithmetic). Implementations:
//!
//! * [`Raid5Layout`] — Lee & Katz's left-symmetric RAID 5 (`G = C`,
//!   `α = 1`), the paper's baseline (Figure 2-1);
//! * [`DeclusteredLayout`] — the paper's contribution: block-design-based
//!   placement with `G ≤ C` (Figures 2-3 and 4-2);
//! * [`ReddyLayout`] — Reddy & Banerjee's two-group organization
//!   (Section 3 related work, `G = C/2`);
//! * [`InterleavedMirrorLayout`] / [`ChainedMirrorLayout`] — the mirrored
//!   declustering schemes the idea originated with (Section 3);
//! * [`TabularLayout`] — any layout loaded from the portable
//!   `decluster-layout v1` text format ([`tabular`]).
//!
//! [`criteria`] provides validators for the paper's layout-goodness
//! criteria 1–4, [`vulnerability`] quantifies double-failure exposure, and
//! [`mapping::ArrayMapping`] binds a layout to a concrete disk size,
//! handling the final partial table.

pub mod criteria;
pub mod declustered;
pub mod mapping;
pub mod mirrored;
pub mod pq;
pub mod raid5;
pub mod reddy;
pub mod spec;
pub mod tabular;
pub mod vulnerability;

pub use declustered::DeclusteredLayout;
pub use mapping::ArrayMapping;
pub use mirrored::{ChainedMirrorLayout, InterleavedMirrorLayout};
pub use pq::PqLayout;
pub use raid5::Raid5Layout;
pub use reddy::ReddyLayout;
pub use spec::LayoutSpec;
pub use tabular::TabularLayout;

use std::fmt;

/// A physical unit location: disk index and unit offset within that disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitAddr {
    /// Disk index, `0..C`.
    pub disk: u16,
    /// Unit offset within the disk (multiply by the unit size in sectors
    /// for a sector address).
    pub offset: u64,
}

impl UnitAddr {
    /// Creates an address.
    pub fn new(disk: u16, offset: u64) -> UnitAddr {
        UnitAddr { disk, offset }
    }
}

impl fmt::Display for UnitAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "disk {} offset {}", self.disk, self.offset)
    }
}

/// What a physical unit holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitRole {
    /// The `index`-th data unit of parity stripe `stripe`.
    Data {
        /// Parity stripe id.
        stripe: u64,
        /// Position among the stripe's `G−1` data units.
        index: u16,
    },
    /// The `index`-th parity unit of parity stripe `stripe` (`0` = P;
    /// `1` = the Reed–Solomon Q unit of a double-fault-tolerant stripe).
    Parity {
        /// Parity stripe id.
        stripe: u64,
        /// Position among the stripe's `m` parity units.
        index: u16,
    },
    /// Not mapped to any stripe (only occurs in a truncated final table;
    /// see [`mapping::ArrayMapping`]).
    Unmapped,
}

impl UnitRole {
    /// The stripe this unit belongs to, if mapped.
    pub fn stripe(&self) -> Option<u64> {
        match *self {
            UnitRole::Data { stripe, .. } | UnitRole::Parity { stripe, .. } => Some(stripe),
            UnitRole::Unmapped => None,
        }
    }

    /// Whether this is a parity unit.
    pub fn is_parity(&self) -> bool {
        matches!(self, UnitRole::Parity { .. })
    }
}

/// A periodic assignment of parity stripes to disk units.
///
/// Implementors define the layout *within one table*; the provided methods
/// extend it over the whole disk by periodicity. Parity stripes are
/// numbered globally: stripe `s` lives in table `s / stripes_per_table()`.
///
/// # Examples
///
/// ```
/// use decluster_core::layout::{ParityLayout, Raid5Layout, UnitRole};
///
/// let l = Raid5Layout::new(5)?;
/// // Figure 2-1: P0 lives on disk 4 at offset 0.
/// assert_eq!(l.role_at(4, 0), UnitRole::Parity { stripe: 0, index: 0 });
/// // The second table repeats the pattern five stripes later.
/// assert_eq!(l.role_at(4, 5), UnitRole::Parity { stripe: 5, index: 0 });
/// # Ok::<(), decluster_core::Error>(())
/// ```
pub trait ParityLayout: fmt::Debug + Send + Sync {
    /// Number of disks, `C`.
    fn disks(&self) -> u16;

    /// Parity stripe width `G`: data units plus parity units.
    fn stripe_width(&self) -> u16;

    /// Parity units per stripe, `m`: `1` for single-parity layouts, `2`
    /// for P+Q double-fault-tolerant stripes. A stripe survives any `m`
    /// simultaneous unit losses.
    fn parity_units_per_stripe(&self) -> u16 {
        1
    }

    /// Unit offsets per disk covered by one table.
    fn table_height(&self) -> u64;

    /// Parity stripes mapped by one table.
    fn stripes_per_table(&self) -> u64;

    /// The role of the unit at (`disk`, `offset`) for `offset <
    /// table_height()`, with stripe ids local to the table.
    fn role_in_table(&self, disk: u16, offset: u64) -> UnitRole;

    /// Location of data unit `index` of table-local stripe `stripe`.
    fn data_unit_in_table(&self, stripe: u64, index: u16) -> UnitAddr;

    /// Location of parity unit `index` (`0` = P, `1` = Q, …) of
    /// table-local stripe `stripe`.
    fn parity_unit_in_table(&self, stripe: u64, index: u16) -> UnitAddr;

    /// Data units per stripe, `G − m`.
    fn data_units_per_stripe(&self) -> u16 {
        self.stripe_width() - self.parity_units_per_stripe()
    }

    /// The declustering ratio `α = (G−1)/(C−1)`: the fraction of each
    /// surviving disk read to reconstruct a failed disk.
    fn alpha(&self) -> f64 {
        (self.stripe_width() - 1) as f64 / (self.disks() - 1) as f64
    }

    /// Fraction of array capacity consumed by parity, `m/G`.
    fn parity_overhead(&self) -> f64 {
        self.parity_units_per_stripe() as f64 / self.stripe_width() as f64
    }

    /// The role of any unit on the disk, extending the table periodically.
    fn role_at(&self, disk: u16, offset: u64) -> UnitRole {
        let table = offset / self.table_height();
        let local = offset % self.table_height();
        match self.role_in_table(disk, local) {
            UnitRole::Data { stripe, index } => UnitRole::Data {
                stripe: table * self.stripes_per_table() + stripe,
                index,
            },
            UnitRole::Parity { stripe, index } => UnitRole::Parity {
                stripe: table * self.stripes_per_table() + stripe,
                index,
            },
            UnitRole::Unmapped => UnitRole::Unmapped,
        }
    }

    /// Location of data unit `index` of global stripe `stripe`.
    fn data_location(&self, stripe: u64, index: u16) -> UnitAddr {
        let table = stripe / self.stripes_per_table();
        let local = stripe % self.stripes_per_table();
        let mut addr = self.data_unit_in_table(local, index);
        addr.offset += table * self.table_height();
        addr
    }

    /// Location of parity unit `index` of global stripe `stripe`.
    fn parity_location(&self, stripe: u64, index: u16) -> UnitAddr {
        let table = stripe / self.stripes_per_table();
        let local = stripe % self.stripes_per_table();
        let mut addr = self.parity_unit_in_table(local, index);
        addr.offset += table * self.table_height();
        addr
    }

    /// All unit locations of global stripe `stripe`: the `G−m` data units
    /// in index order, then the `m` parity units in index order (P before
    /// Q), so parity always sits at the tail of the slice.
    fn stripe_units(&self, stripe: u64) -> Vec<UnitAddr> {
        let mut units = Vec::with_capacity(self.stripe_width() as usize);
        self.stripe_units_into(stripe, &mut units);
        units
    }

    /// Appends the unit locations of global stripe `stripe` to `out` in the
    /// same order as [`ParityLayout::stripe_units`]: the `G−m` data units in
    /// index order, then the `m` parity units in index order.
    ///
    /// This is the allocation-free form for hot paths that map stripes per
    /// simulated event: callers keep a scratch buffer, clear it, and refill
    /// it here. Table-backed layouts override this to copy straight out of
    /// their precomputed tables.
    fn stripe_units_into(&self, stripe: u64, out: &mut Vec<UnitAddr>) {
        out.reserve(self.stripe_width() as usize);
        for index in 0..self.data_units_per_stripe() {
            out.push(self.data_location(stripe, index));
        }
        for index in 0..self.parity_units_per_stripe() {
            out.push(self.parity_location(stripe, index));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_role_accessors() {
        let d = UnitRole::Data {
            stripe: 3,
            index: 1,
        };
        let p = UnitRole::Parity {
            stripe: 3,
            index: 0,
        };
        assert_eq!(d.stripe(), Some(3));
        assert_eq!(p.stripe(), Some(3));
        assert_eq!(UnitRole::Unmapped.stripe(), None);
        assert!(p.is_parity());
        assert!(!d.is_parity());
    }

    #[test]
    fn unit_addr_display_and_order() {
        let a = UnitAddr::new(2, 7);
        assert_eq!(a.to_string(), "disk 2 offset 7");
        assert!(UnitAddr::new(1, 9) < UnitAddr::new(2, 0));
    }
}
