//! Multi-unit (extent) accesses and the large-write optimization.
//!
//! The paper's layout criterion 5: because contiguous user data is
//! allocated to stripe units in parity-stripe order, a write covering the
//! *entire data portion* of a parity stripe (aligned to a stripe boundary)
//! needs no pre-reads — the new parity depends only on the new data, so
//! the whole stripe goes out as `G` parallel writes instead of `4·(G−1)`
//! read-modify-write accesses. Declustered layouts enjoy this with
//! *smaller* writes than RAID 5 because their stripes are narrower
//! (Section 6).
//!
//! [`plan_extent`] decomposes an arbitrary `[start, start+count)` extent
//! into plans: full-stripe segments use the optimization; ragged head and
//! tail units fall back to the single-unit planner, which also handles
//! every degraded/rebuilding case.

use crate::plan::{plan_user_access, FaultView, OpPlan, PlannedIo};
use decluster_core::layout::ArrayMapping;
use decluster_workload::AccessKind;

/// The decomposition of an extent access.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExtentPlan {
    /// Independently executable plans, in address order.
    pub plans: Vec<OpPlan>,
    /// The `(first logical unit, unit count)` each plan covers, aligned
    /// with `plans`.
    pub spans: Vec<(u64, u64)>,
    /// How many plans were full-stripe writes (criterion-5 hits).
    pub full_stripe_writes: usize,
}

impl ExtentPlan {
    /// Total disk accesses across all plans.
    pub fn accesses(&self) -> usize {
        self.plans.iter().map(OpPlan::accesses).sum()
    }
}

/// Plans a `count`-unit access starting at logical unit `start`.
///
/// Reads decompose into per-unit plans (one access each fault-free;
/// on-the-fly fan-out when degraded). Writes use the large-write
/// optimization for every fully covered, stripe-aligned stripe while the
/// array is fault-free and the stripe is untouched by the failure;
/// everything else decomposes to single-unit plans.
///
/// # Panics
///
/// Panics if the extent is empty or runs past the mapping's capacity.
pub fn plan_extent(
    mapping: &ArrayMapping,
    kind: AccessKind,
    start: u64,
    count: u64,
    fault: FaultView<'_>,
) -> ExtentPlan {
    assert!(count > 0, "empty extent");
    assert!(
        start + count <= mapping.data_units(),
        "extent [{start}, +{count}) beyond capacity {}",
        mapping.data_units()
    );
    let d = mapping.layout().data_units_per_stripe() as u64;
    let mut plan = ExtentPlan::default();
    let mut logical = start;
    let end = start + count;
    while logical < end {
        let within = logical % d;
        let stripe_fully_covered = kind == AccessKind::Write && within == 0 && end - logical >= d;
        if stripe_fully_covered {
            let (stripe, _) = mapping.logical_to_stripe(logical);
            let mut full = OpPlan::default();
            if plan_full_stripe_write_into(mapping, stripe, fault, &mut full) {
                plan.plans.push(full);
                plan.spans.push((logical, d));
                plan.full_stripe_writes += 1;
                logical += d;
                continue;
            }
        }
        plan.plans
            .push(plan_user_access(mapping, kind, logical, fault));
        plan.spans.push((logical, 1));
        logical += 1;
    }
    plan
}

/// The criterion-5 plan into a caller-owned plan: `G` parallel writes in
/// layout order, no pre-reads. Only valid while every unit of the stripe
/// is on a healthy (or rebuilt) disk; returns `false` otherwise so the
/// caller falls back to per-unit plans.
pub fn plan_full_stripe_write_into(
    mapping: &ArrayMapping,
    stripe: u64,
    fault: FaultView<'_>,
    plan: &mut OpPlan,
) -> bool {
    plan.reset(mapping, stripe, 0);
    if plan.units.iter().any(|&u| fault.is_lost(u)) {
        return false;
    }
    plan.phase1.extend(
        plan.units
            .iter()
            .map(|&u| PlannedIo::write(fault.live_location(u))),
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use decluster_core::design::BlockDesign;
    use decluster_core::layout::{DeclusteredLayout, ParityLayout, Raid5Layout};
    use decluster_disk::IoKind;
    use std::sync::Arc;

    fn mapping(g: u16) -> ArrayMapping {
        let layout: Arc<dyn ParityLayout> =
            Arc::new(DeclusteredLayout::new(BlockDesign::complete(5, g).unwrap()).unwrap());
        ArrayMapping::new(layout, 200).unwrap()
    }

    #[test]
    fn aligned_full_stripe_write_needs_no_prereads() {
        let m = mapping(4); // 3 data units per stripe
        let p = plan_extent(&m, AccessKind::Write, 0, 3, FaultView::FAULT_FREE);
        assert_eq!(p.full_stripe_writes, 1);
        assert_eq!(p.plans.len(), 1);
        // G = 4 parallel writes, zero reads.
        assert_eq!(p.accesses(), 4);
        assert!(p.plans[0].phase1.iter().all(|io| io.kind == IoKind::Write));
        assert!(p.plans[0].phase2.is_empty());
    }

    #[test]
    fn optimization_beats_rmw_by_the_papers_factor() {
        // Full-stripe write: G accesses. Same units via RMW: 4·(G−1).
        let m = mapping(4);
        let optimized = plan_extent(&m, AccessKind::Write, 0, 3, FaultView::FAULT_FREE);
        let unit_by_unit: usize = (0..3)
            .map(|l| plan_user_access(&m, AccessKind::Write, l, FaultView::FAULT_FREE).accesses())
            .sum();
        assert_eq!(optimized.accesses(), 4);
        assert_eq!(unit_by_unit, 12);
    }

    #[test]
    fn unaligned_extent_splits_head_and_tail() {
        let m = mapping(4);
        // Units 1..7: head 1,2 (partial), full stripe 3..6, tail 6.
        let p = plan_extent(&m, AccessKind::Write, 1, 6, FaultView::FAULT_FREE);
        assert_eq!(p.full_stripe_writes, 1);
        // 2 head RMWs + 1 full stripe + 1 tail RMW.
        assert_eq!(p.plans.len(), 4);
    }

    #[test]
    fn extent_shorter_than_stripe_is_all_rmw() {
        let m = mapping(4);
        let p = plan_extent(&m, AccessKind::Write, 0, 2, FaultView::FAULT_FREE);
        assert_eq!(p.full_stripe_writes, 0);
        assert_eq!(p.plans.len(), 2);
    }

    #[test]
    fn reads_decompose_per_unit() {
        let m = mapping(4);
        let p = plan_extent(&m, AccessKind::Read, 0, 6, FaultView::FAULT_FREE);
        assert_eq!(p.full_stripe_writes, 0);
        assert_eq!(p.plans.len(), 6);
        assert_eq!(p.accesses(), 6);
    }

    #[test]
    fn degraded_stripe_falls_back_to_folding() {
        let m = mapping(4);
        // Find a stripe with a unit on disk 0 — its full-stripe write must
        // not use the optimization while disk 0 is down.
        let (stripe, _) = m.logical_to_stripe(0);
        let has_disk0 = m.stripe_units(stripe).iter().any(|u| u.disk == 0);
        assert!(has_disk0, "stripe 0 of the complete design touches disk 0");
        let p = plan_extent(&m, AccessKind::Write, 0, 3, FaultView::degraded(0));
        assert_eq!(p.full_stripe_writes, 0);
        assert_eq!(p.plans.len(), 3);
        // And no plan touches the dead disk.
        assert!(p
            .plans
            .iter()
            .flat_map(|pl| pl.phase1.iter().chain(&pl.phase2))
            .all(|io| io.disk != 0));
    }

    #[test]
    fn degraded_stripe_off_the_failed_disk_still_optimizes() {
        let m = mapping(4);
        // Locate a stripe avoiding disk 0 (C=5 > G=4, so one exists).
        let mut aligned = None;
        for seq in 0.. {
            if seq >= m.stripes() {
                break;
            }
            let stripe = m.stripe_by_seq(seq);
            if m.stripe_units(stripe).iter().all(|u| u.disk != 0) {
                aligned = m.stripe_to_logical(stripe, 0);
                break;
            }
        }
        let start = aligned.expect("some stripe avoids disk 0");
        let p = plan_extent(&m, AccessKind::Write, start, 3, FaultView::degraded(0));
        assert_eq!(p.full_stripe_writes, 1);
        assert_eq!(p.accesses(), 4);
    }

    #[test]
    fn raid5_needs_full_width_for_the_optimization() {
        // The paper's point: declustered stripes are narrower, so the
        // optimization kicks in with smaller writes than RAID 5 needs.
        let raid5 = ArrayMapping::new(Arc::new(Raid5Layout::new(5).unwrap()), 200).unwrap();
        let m4 = mapping(4);
        // A 3-unit aligned write: full stripe for G=4, partial for RAID 5.
        let decl = plan_extent(&m4, AccessKind::Write, 0, 3, FaultView::FAULT_FREE);
        let r5 = plan_extent(&raid5, AccessKind::Write, 0, 3, FaultView::FAULT_FREE);
        assert_eq!(decl.full_stripe_writes, 1);
        assert_eq!(r5.full_stripe_writes, 0);
        assert!(decl.accesses() < r5.accesses());
        // RAID 5 needs 4 aligned units.
        let r5_full = plan_extent(&raid5, AccessKind::Write, 0, 4, FaultView::FAULT_FREE);
        assert_eq!(r5_full.full_stripe_writes, 1);
        assert_eq!(r5_full.accesses(), 5);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn overrun_panics() {
        let m = mapping(4);
        plan_extent(
            &m,
            AccessKind::Read,
            m.data_units() - 1,
            2,
            FaultView::FAULT_FREE,
        );
    }

    #[test]
    #[should_panic(expected = "empty extent")]
    fn empty_extent_panics() {
        let m = mapping(4);
        plan_extent(&m, AccessKind::Read, 0, 0, FaultView::FAULT_FREE);
    }
}
