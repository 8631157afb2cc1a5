//! The striping driver's decision table: how a user access decomposes into
//! disk accesses under each operating mode. It is the one table both
//! planes execute: the simulator ([`crate::sim`]) times the plans, and the
//! file-backed block store (`decluster-store`) carries them out over real
//! files, keeping only the byte work (checksummed reads, XOR/GF(256), the
//! P/Q decode, coalesced writes).
//!
//! Kept pure (no simulator state, no timing) so every case in the paper's
//! Sections 6–8 can be unit-tested directly: the four-access write, the
//! `G = 3` three-access optimization, mirrored pairs, on-the-fly
//! reconstruction, parity folding, lost-parity writes, redirection, direct
//! writes to the replacement, piggybacking, and the rebuild of one unit.
//!
//! Every plan reads the least the decoder needs: the stripe's live data
//! units other than those being recovered, plus one surviving parity per
//! recovered data unit (P before Q). Plans are built into an [`OpPlan`]
//! the caller owns and reuses, so steady-state planning allocates nothing.

use crate::spare::SpareMap;
use decluster_core::layout::{ArrayMapping, UnitAddr};
use decluster_core::recon::ReconAlgorithm;
use decluster_disk::IoKind;
use decluster_workload::AccessKind;

/// One planned disk access in stripe-unit terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedIo {
    /// Target disk.
    pub disk: u16,
    /// Target unit offset on that disk.
    pub offset: u64,
    /// Read or write.
    pub kind: IoKind,
}

impl PlannedIo {
    /// A read of the unit at `addr`.
    pub(crate) fn read(addr: UnitAddr) -> PlannedIo {
        PlannedIo {
            disk: addr.disk,
            offset: addr.offset,
            kind: IoKind::Read,
        }
    }

    /// A write of the unit at `addr`.
    pub(crate) fn write(addr: UnitAddr) -> PlannedIo {
        PlannedIo {
            disk: addr.disk,
            offset: addr.offset,
            kind: IoKind::Write,
        }
    }
}

/// What a single-unit user access does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read the whole unit.
    Read,
    /// Overwrite the whole unit.
    Write,
    /// Overwrite part of the unit: the rest of its old image must be read
    /// (or decoded) first, so the mirrored-pair and `G = 3` shortcuts and
    /// the parity-only fold of a lost unit do not apply.
    PartialWrite,
}

impl From<AccessKind> for Access {
    fn from(kind: AccessKind) -> Access {
        match kind {
            AccessKind::Read => Access::Read,
            AccessKind::Write => Access::Write,
        }
    }
}

/// A two-phase access plan: `phase1` runs concurrently; when all of it
/// completes, `phase2` runs concurrently; the access completes when both
/// are done. (Pre-reads before writes in a read-modify-write.)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpPlan {
    /// The stripe's unit addresses in layout order: data units, then
    /// parity.
    pub units: Vec<UnitAddr>,
    /// Position in `units` of the unit accessed or rebuilt.
    pub target: usize,
    /// First wave of disk accesses.
    pub phase1: Vec<PlannedIo>,
    /// Second wave, gated on the first.
    pub phase2: Vec<PlannedIo>,
    /// A failed-slot unit to mark rebuilt when the plan completes (direct
    /// user writes to the replacement, or a rebuild).
    pub mark_rebuilt: Option<UnitAddr>,
    /// A failed-slot unit to piggyback: after the plan completes the
    /// driver issues a background write of the reconstructed unit to its
    /// repair location.
    pub piggyback: Option<UnitAddr>,
}

impl OpPlan {
    /// Total disk accesses in the plan (excluding any piggybacked write).
    pub fn accesses(&self) -> usize {
        self.phase1.len() + self.phase2.len()
    }

    /// Every planned read, in issue order.
    pub fn reads(&self) -> impl Iterator<Item = &PlannedIo> {
        self.ios().filter(|io| io.kind == IoKind::Read)
    }

    /// Every planned write, in issue order.
    pub fn writes(&self) -> impl Iterator<Item = &PlannedIo> {
        self.ios().filter(|io| io.kind == IoKind::Write)
    }

    fn ios(&self) -> impl Iterator<Item = &PlannedIo> {
        self.phase1.iter().chain(&self.phase2)
    }

    /// Clears the plan and loads `stripe`'s unit addresses, keeping every
    /// buffer's capacity.
    pub(crate) fn reset(&mut self, mapping: &ArrayMapping, stripe: u64, target: usize) {
        self.units.clear();
        mapping.stripe_units_into(stripe, &mut self.units);
        self.target = target;
        self.phase1.clear();
        self.phase2.clear();
        self.mark_rebuilt = None;
        self.piggyback = None;
    }

    /// Moves `phase2` up if `phase1` is empty (a plan with no pre-reads
    /// starts writing immediately).
    fn normalize(&mut self) {
        if self.phase1.is_empty() {
            std::mem::swap(&mut self.phase1, &mut self.phase2);
        }
    }

    /// Appends the reads that let the decoder recover the data units
    /// being reconstructed — every failed data unit, and the target too
    /// when `decode_target` — to phase 1: every other live data unit,
    /// then one surviving parity per recovered unit (P before Q). A
    /// parity target is never read. Returns `false` when too few
    /// parities survive.
    fn push_decode_reads(&mut self, d: usize, decode_target: bool, fault: FaultView<'_>) -> bool {
        let t = self.target;
        let mut parities = 0;
        for (i, &u) in self.units[..d].iter().enumerate() {
            if (i == t && decode_target) || (i != t && fault.is_lost(u)) {
                parities += 1;
            } else if i != t {
                self.phase1.push(PlannedIo::read(fault.live_location(u)));
            }
        }
        for (i, &u) in self.units.iter().enumerate().skip(d) {
            if parities > 0 && i != t && !fault.is_lost(u) {
                self.phase1.push(PlannedIo::read(fault.live_location(u)));
                parities -= 1;
            }
        }
        parities == 0
    }
}

/// Most failed slots a [`FaultView`] holds: the P+Q tolerance.
pub const MAX_FAILED: usize = 2;

/// One failed slot as the planner sees it.
#[derive(Debug, Clone, Copy)]
struct FailedSlot<'a> {
    disk: u16,
    /// Per-offset rebuilt flags once reconstruction has a target for the
    /// slot (a replacement disk or distributed spare slots); `None` while
    /// merely degraded.
    rebuilt: Option<&'a [bool]>,
}

/// The array's fault state as the planner sees it: up to [`MAX_FAILED`]
/// failed slots, each with its own rebuilt map, the reconstruction
/// algorithm in force, and the spare map when rebuilding into distributed
/// spares.
#[derive(Debug, Clone, Copy)]
pub struct FaultView<'a> {
    slots: [Option<FailedSlot<'a>>; MAX_FAILED],
    algorithm: ReconAlgorithm,
    spares: Option<&'a SpareMap>,
}

impl<'a> FaultView<'a> {
    /// All disks healthy.
    pub const FAULT_FREE: FaultView<'static> = FaultView {
        slots: [None; MAX_FAILED],
        algorithm: ReconAlgorithm::Baseline,
        spares: None,
    };

    /// `failed` has failed; no replacement is present.
    pub fn degraded(failed: u16) -> FaultView<'a> {
        FaultView::FAULT_FREE.with_failed(failed, None)
    }

    /// `failed` is being reconstructed under `algorithm` — onto a
    /// dedicated replacement (`spares: None`) or into distributed spare
    /// slots (`spares: Some`) — with `rebuilt` flagging the offsets done.
    pub fn rebuilding(
        failed: u16,
        algorithm: ReconAlgorithm,
        rebuilt: &'a [bool],
        spares: Option<&'a SpareMap>,
    ) -> FaultView<'a> {
        FaultView {
            spares,
            ..FaultView::FAULT_FREE
                .with_algorithm(algorithm)
                .with_failed(failed, Some(rebuilt))
        }
    }

    /// Adds a failed slot.
    ///
    /// # Panics
    ///
    /// Panics if the view already holds [`MAX_FAILED`] slots.
    pub fn with_failed(mut self, disk: u16, rebuilt: Option<&'a [bool]>) -> FaultView<'a> {
        let free = self
            .slots
            .iter_mut()
            .find(|s| s.is_none())
            .expect("a fault view holds at most MAX_FAILED slots");
        *free = Some(FailedSlot { disk, rebuilt });
        self
    }

    /// Sets the reconstruction algorithm governing slots with a rebuilt
    /// map.
    pub fn with_algorithm(mut self, algorithm: ReconAlgorithm) -> FaultView<'a> {
        self.algorithm = algorithm;
        self
    }

    fn slot(&self, disk: u16) -> Option<&FailedSlot<'a>> {
        self.slots.iter().flatten().find(|s| s.disk == disk)
    }

    /// Whether `addr` is on a failed slot and has a rebuilt copy.
    fn is_rebuilt(&self, addr: UnitAddr) -> bool {
        self.slot(addr.disk)
            .and_then(|s| s.rebuilt)
            .is_some_and(|r| r[addr.offset as usize])
    }

    /// Whether `addr` is unavailable: on a failed slot and not rebuilt.
    pub fn is_lost(&self, addr: UnitAddr) -> bool {
        self.slot(addr.disk).is_some() && !self.is_rebuilt(addr)
    }

    /// Whether reconstruction has a target for `disk`'s contents under an
    /// algorithm with `capability`.
    fn reconstructing(&self, disk: u16, capability: fn(ReconAlgorithm) -> bool) -> bool {
        self.slot(disk).is_some_and(|s| s.rebuilt.is_some()) && capability(self.algorithm)
    }

    /// Where a (rebuilt) unit of a failed slot now lives: its spare slot
    /// under distributed sparing, or the same address on the replacement.
    pub fn repair_location(&self, addr: UnitAddr) -> UnitAddr {
        match self.spares {
            Some(spares) if self.slot(addr.disk).is_some() => spares
                .spare_of(addr.offset)
                .expect("mapped unit has a spare slot"),
            _ => addr,
        }
    }

    /// The live address of a unit: `repair_location` if the unit has been
    /// rebuilt, the original address otherwise.
    pub fn live_location(&self, addr: UnitAddr) -> UnitAddr {
        if self.is_rebuilt(addr) {
            self.repair_location(addr)
        } else {
            addr
        }
    }
}

/// Plans the disk accesses for one user access to `logical`.
///
/// # Panics
///
/// Panics if `logical` is beyond the mapping's capacity.
pub fn plan_user_access(
    mapping: &ArrayMapping,
    kind: AccessKind,
    logical: u64,
    fault: FaultView<'_>,
) -> OpPlan {
    let mut plan = OpPlan::default();
    plan_user_access_into(mapping, kind.into(), logical, fault, &mut plan);
    plan
}

/// [`plan_user_access`] into a caller-owned plan, which is cleared and
/// refilled: per-access planning allocates nothing once its buffers have
/// grown to the stripe width.
///
/// # Panics
///
/// Panics if `logical` is beyond the mapping's capacity.
pub fn plan_user_access_into(
    mapping: &ArrayMapping,
    access: Access,
    logical: u64,
    fault: FaultView<'_>,
    plan: &mut OpPlan,
) {
    let (stripe, index) = mapping.logical_to_stripe(logical);
    plan.reset(mapping, stripe, index as usize);
    let m = mapping.parity_units_per_stripe() as usize;
    match access {
        Access::Read => plan_read(plan, m, fault),
        Access::Write => plan_write(plan, m, false, fault),
        Access::PartialWrite => plan_write(plan, m, true, fault),
    }
    plan.normalize();
}

/// Plans the reconstruction of the unit at `addr` into `plan`: phase 1
/// reads the least the decoder needs to recover it — treating `addr` as
/// erased whatever its disk's state — and phase 2 writes it to its repair
/// location, together with every other lost unit of the stripe that has
/// a rebuild target (the same reads recover those). Every phase-2 write
/// rebuilds the unit it writes. The simulator's rebuild sweep and the
/// store's rebuild, read repair and hedged reads all use this plan.
/// Returns `false` (the plan's contents unspecified) when `addr` is
/// unmapped or its stripe has lost more units than its parity recovers.
pub fn plan_rebuild_unit_into(
    mapping: &ArrayMapping,
    addr: UnitAddr,
    fault: FaultView<'_>,
    plan: &mut OpPlan,
) -> bool {
    let Some(stripe) = mapping.role_at(addr.disk, addr.offset).stripe() else {
        return false;
    };
    plan.reset(mapping, stripe, 0);
    let Some(target) = plan.units.iter().position(|&u| u == addr) else {
        return false;
    };
    plan.target = target;
    let d = plan.units.len() - mapping.parity_units_per_stripe() as usize;
    // A data target is decoded itself; a parity target needs every data
    // image, so only the failed data units are decoded.
    if !plan.push_decode_reads(d, true, fault) {
        return false;
    }
    for (i, &u) in plan.units.iter().enumerate() {
        if i == target || (fault.is_lost(u) && fault.reconstructing(u.disk, |_| true)) {
            plan.phase2.push(PlannedIo::write(fault.repair_location(u)));
        }
    }
    plan.mark_rebuilt = Some(addr);
    true
}

/// The fraction of each surviving disk a full rebuild reads: every rebuilt
/// unit's plan reads `G − m` survivors, spread evenly over the `C − 1`
/// surviving disks — the paper's declustering ratio α = (G−1)/(C−1) for
/// single parity, (G−2)/(C−1) for P+Q.
pub fn rebuild_read_fraction(mapping: &ArrayMapping) -> f64 {
    let reads = mapping.stripe_width() - mapping.parity_units_per_stripe();
    reads as f64 / (mapping.disks() - 1) as f64
}

fn plan_read(plan: &mut OpPlan, m: usize, fault: FaultView<'_>) {
    let data = plan.units[plan.target];
    if fault.slot(data.disk).is_none() {
        // The common case: one read from a healthy disk.
        plan.phase1.push(PlannedIo::read(data));
        return;
    }
    let rebuilt = fault.is_rebuilt(data);
    if rebuilt && fault.reconstructing(data.disk, ReconAlgorithm::redirects_reads) {
        // Redirection of reads: the rebuilt copy (replacement disk or
        // spare slot) already holds it.
        plan.phase1.push(PlannedIo::read(fault.live_location(data)));
        return;
    }
    // On-the-fly reconstruction from the stripe's other data units and
    // one surviving parity per erased data unit: every survivor with
    // single parity, one parity fewer for a P+Q stripe's single erasure.
    let d = plan.units.len() - m;
    let decodable = plan.push_decode_reads(d, true, fault);
    debug_assert!(decodable, "read of an unrecoverable stripe: {plan:?}");
    if !rebuilt && fault.reconstructing(data.disk, ReconAlgorithm::piggybacks_writes) {
        plan.piggyback = Some(data);
    }
}

fn plan_write(plan: &mut OpPlan, m: usize, partial: bool, fault: FaultView<'_>) {
    let g = plan.units.len();
    let d = g - m;
    let t = plan.target;
    let data = plan.units[t];
    let live_parities = plan.units[d..]
        .iter()
        .filter(|&&p| !fault.is_lost(p))
        .count();

    if !fault.is_lost(data) {
        let data_live = fault.live_location(data);
        if !partial {
            if live_parities == 0 {
                // There is no value in updating lost parity (Section 7):
                // the write becomes a single data access. Reconstruction
                // will regenerate the parity from the data units,
                // including this new value.
                plan.phase2.push(PlannedIo::write(data_live));
                return;
            }
            if g == 2 && m == 1 {
                // Mirrored pair: parity is a copy of the single data unit
                // — write both, no pre-reads.
                let parity = fault.live_location(plan.units[1]);
                plan.phase2
                    .extend([PlannedIo::write(data_live), PlannedIo::write(parity)]);
                return;
            }
            if g == 3 && m == 1 && live_parities == 1 {
                // The G = 3 optimization pre-reads the *sibling* data
                // unit, which may itself be lost — fall back to the
                // generic RMW in that case.
                let sibling = plan.units[1 - t];
                if !fault.is_lost(sibling) {
                    let parity = fault.live_location(plan.units[2]);
                    plan.phase1
                        .push(PlannedIo::read(fault.live_location(sibling)));
                    plan.phase2
                        .extend([PlannedIo::write(data_live), PlannedIo::write(parity)]);
                    return;
                }
            }
        }
        // The general read-modify-write: pre-read the data unit and every
        // reachable parity, then overwrite them — 4 accesses for single
        // parity, 6 for P+Q.
        plan.phase1.push(PlannedIo::read(data_live));
        plan.phase2.push(PlannedIo::write(data_live));
        for i in d..g {
            let p = plan.units[i];
            if !fault.is_lost(p) {
                let live = fault.live_location(p);
                plan.phase1.push(PlannedIo::read(live));
                plan.phase2.push(PlannedIo::write(live));
            }
        }
        return;
    }
    // Data is lost: every live parity is recomputed from the stripe's data
    // with the new value in place. The other data units are read; the old
    // image of the target is decoded too when a partial write needs it or
    // when another data unit is also lost (the old image then sits in the
    // parity equations that recover the other unit).
    let others_lost = (0..d).any(|i| i != t && fault.is_lost(plan.units[i]));
    let decodable = plan.push_decode_reads(d, partial || others_lost, fault);
    debug_assert!(decodable, "write to an unrecoverable stripe: {plan:?}");
    for i in d..g {
        let p = plan.units[i];
        if !fault.is_lost(p) {
            plan.phase2.push(PlannedIo::write(fault.live_location(p)));
        }
    }
    if fault.reconstructing(data.disk, ReconAlgorithm::writes_to_replacement) {
        // Send the new data straight to its repair location (replacement
        // disk or spare slot), rebuilding that unit as a side effect.
        plan.phase2
            .push(PlannedIo::write(fault.repair_location(data)));
        plan.mark_rebuilt = Some(data);
    }
    // Otherwise: fold into parity only — the data unit is regenerated
    // later by the reconstruction sweep.
}

#[cfg(test)]
mod tests {
    use super::*;
    use decluster_core::design::BlockDesign;
    use decluster_core::layout::{DeclusteredLayout, ParityLayout, PqLayout, Raid5Layout};
    use std::sync::Arc;

    fn mapping(g: u16) -> ArrayMapping {
        let layout: Arc<dyn ParityLayout> =
            Arc::new(DeclusteredLayout::new(BlockDesign::complete(5, g).unwrap()).unwrap());
        ArrayMapping::new(layout, 200).unwrap()
    }

    fn raid5_mapping(c: u16) -> ArrayMapping {
        ArrayMapping::new(Arc::new(Raid5Layout::new(c).unwrap()), 200).unwrap()
    }

    #[test]
    fn fault_free_read_is_one_access() {
        let m = mapping(4);
        let p = plan_user_access(&m, AccessKind::Read, 17, FaultView::FAULT_FREE);
        assert_eq!(p.accesses(), 1);
        assert_eq!(p.phase1.len(), 1);
        assert_eq!(p.phase1[0].kind, IoKind::Read);
        assert!(p.phase2.is_empty());
    }

    #[test]
    fn fault_free_write_is_four_accesses() {
        let m = mapping(4);
        let p = plan_user_access(&m, AccessKind::Write, 17, FaultView::FAULT_FREE);
        assert_eq!(p.accesses(), 4);
        assert_eq!(p.phase1.len(), 2);
        assert!(p.phase1.iter().all(|io| io.kind == IoKind::Read));
        assert_eq!(p.phase2.len(), 2);
        assert!(p.phase2.iter().all(|io| io.kind == IoKind::Write));
        // Pre-reads and writes hit the same two units.
        let mut pre: Vec<(u16, u64)> = p.phase1.iter().map(|io| (io.disk, io.offset)).collect();
        let mut wr: Vec<(u16, u64)> = p.phase2.iter().map(|io| (io.disk, io.offset)).collect();
        pre.sort_unstable();
        wr.sort_unstable();
        assert_eq!(pre, wr);
    }

    #[test]
    fn g3_write_is_three_accesses() {
        let m = mapping(3);
        let p = plan_user_access(&m, AccessKind::Write, 5, FaultView::FAULT_FREE);
        assert_eq!(p.accesses(), 3, "{p:?}");
        assert_eq!(p.phase1.len(), 1);
        assert_eq!(p.phase1[0].kind, IoKind::Read);
        assert_eq!(p.phase2.len(), 2);
        // The pre-read targets the *other* data unit, not the written one.
        let written: Vec<(u16, u64)> = p.phase2.iter().map(|io| (io.disk, io.offset)).collect();
        assert!(!written.contains(&(p.phase1[0].disk, p.phase1[0].offset)));
    }

    #[test]
    fn g3_write_with_lost_sibling_falls_back_to_rmw() {
        // Regression: the G=3 optimization pre-reads the *other* data
        // unit; if that sibling is on the failed disk the plan must fall
        // back to the generic read-modify-write and never touch the dead
        // disk.
        let m = mapping(3);
        // Find a logical unit whose own data and parity are healthy but
        // whose sibling sits on the failed disk.
        let failed = 0u16;
        let logical = (0..m.data_units())
            .find(|&l| {
                let (stripe, index) = m.logical_to_stripe(l);
                let units = m.stripe_units(stripe);
                let data = units[index as usize];
                let parity = units[2];
                let sibling = units[if index == 0 { 1 } else { 0 }];
                data.disk != failed && parity.disk != failed && sibling.disk == failed
            })
            .expect("some stripe has exactly its sibling on disk 0");
        let p = plan_user_access(&m, AccessKind::Write, logical, FaultView::degraded(failed));
        assert_eq!(p.accesses(), 4, "{p:?}");
        assert!(
            p.phase1.iter().chain(&p.phase2).all(|io| io.disk != failed),
            "plan touches the dead disk: {p:?}"
        );
        // Sanity: with a healthy sibling the 3-access optimization remains.
        let healthy = plan_user_access(&m, AccessKind::Write, logical, FaultView::FAULT_FREE);
        assert_eq!(healthy.accesses(), 3);
    }

    #[test]
    fn mirror_write_is_two_parallel_writes() {
        let m = mapping(2);
        let p = plan_user_access(&m, AccessKind::Write, 3, FaultView::FAULT_FREE);
        assert_eq!(p.accesses(), 2);
        // Normalization: with no pre-reads the writes go out immediately.
        assert_eq!(p.phase1.len(), 2);
        assert!(p.phase2.is_empty());
    }

    /// Finds a logical unit whose data lives on `disk`.
    fn logical_on_disk(m: &ArrayMapping, disk: u16) -> u64 {
        (0..m.data_units())
            .find(|&l| m.logical_to_addr(l).disk == disk)
            .expect("some unit lives on every disk")
    }

    /// Finds a logical unit with data off `disk` but parity on `disk`.
    fn logical_with_parity_on(m: &ArrayMapping, disk: u16) -> u64 {
        (0..m.data_units())
            .find(|&l| {
                let (stripe, _) = m.logical_to_stripe(l);
                let units = m.stripe_units(stripe);
                m.logical_to_addr(l).disk != disk && units.last().unwrap().disk == disk
            })
            .expect("some stripe has parity on every disk")
    }

    #[test]
    fn degraded_read_fans_out_to_survivors() {
        let m = mapping(4);
        let l = logical_on_disk(&m, 2);
        let p = plan_user_access(&m, AccessKind::Read, l, FaultView::degraded(2));
        // G−1 = 3 survivor reads, no phase 2.
        assert_eq!(p.phase1.len(), 3);
        assert!(p
            .phase1
            .iter()
            .all(|io| io.kind == IoKind::Read && io.disk != 2));
        assert!(p.phase2.is_empty());
        assert_eq!(p.piggyback, None);
    }

    #[test]
    fn degraded_read_of_healthy_unit_is_normal() {
        let m = mapping(4);
        let l = logical_on_disk(&m, 1);
        let p = plan_user_access(&m, AccessKind::Read, l, FaultView::degraded(2));
        assert_eq!(p.accesses(), 1);
    }

    #[test]
    fn degraded_write_with_lost_parity_is_single_access() {
        let m = mapping(4);
        let l = logical_with_parity_on(&m, 3);
        let p = plan_user_access(&m, AccessKind::Write, l, FaultView::degraded(3));
        assert_eq!(p.accesses(), 1, "{p:?}");
        assert_eq!(p.phase1[0].kind, IoKind::Write);
        assert_ne!(p.phase1[0].disk, 3);
    }

    #[test]
    fn degraded_write_of_lost_data_folds_into_parity() {
        let m = mapping(4);
        let l = logical_on_disk(&m, 0);
        let p = plan_user_access(&m, AccessKind::Write, l, FaultView::degraded(0));
        // G−2 = 2 sibling reads, then the parity write. No access to disk 0.
        assert_eq!(p.phase1.len(), 2);
        assert!(p.phase1.iter().all(|io| io.kind == IoKind::Read));
        assert_eq!(p.phase2.len(), 1);
        assert_eq!(p.phase2[0].kind, IoKind::Write);
        assert!(p.phase1.iter().chain(&p.phase2).all(|io| io.disk != 0));
        assert_eq!(p.mark_rebuilt, None);
    }

    #[test]
    fn rebuilding_baseline_matches_degraded_behaviour() {
        let m = mapping(4);
        let rebuilt = vec![false; 200];
        let l = logical_on_disk(&m, 0);
        let degraded = plan_user_access(&m, AccessKind::Write, l, FaultView::degraded(0));
        let baseline = plan_user_access(
            &m,
            AccessKind::Write,
            l,
            FaultView::rebuilding(0, ReconAlgorithm::Baseline, &rebuilt, None),
        );
        assert_eq!(degraded, baseline);
    }

    #[test]
    fn user_writes_sends_data_to_replacement_and_marks() {
        let m = mapping(4);
        let rebuilt = vec![false; 200];
        let l = logical_on_disk(&m, 0);
        let addr = m.logical_to_addr(l);
        let p = plan_user_access(
            &m,
            AccessKind::Write,
            l,
            FaultView::rebuilding(0, ReconAlgorithm::UserWrites, &rebuilt, None),
        );
        // Sibling reads, then parity write + replacement data write.
        assert_eq!(p.phase1.len(), 2);
        assert_eq!(p.phase2.len(), 2);
        assert!(p
            .phase2
            .iter()
            .any(|io| io.disk == 0 && io.offset == addr.offset));
        assert_eq!(p.mark_rebuilt, Some(addr));
    }

    #[test]
    fn redirect_reads_rebuilt_unit_from_replacement() {
        let m = mapping(4);
        let l = logical_on_disk(&m, 0);
        let addr = m.logical_to_addr(l);
        let mut rebuilt = vec![false; 200];
        rebuilt[addr.offset as usize] = true;
        let redirected = plan_user_access(
            &m,
            AccessKind::Read,
            l,
            FaultView::rebuilding(0, ReconAlgorithm::Redirect, &rebuilt, None),
        );
        assert_eq!(redirected.accesses(), 1);
        assert_eq!(redirected.phase1[0].disk, 0);
        // user-writes (no redirection) still reconstructs on the fly.
        let not_redirected = plan_user_access(
            &m,
            AccessKind::Read,
            l,
            FaultView::rebuilding(0, ReconAlgorithm::UserWrites, &rebuilt, None),
        );
        assert_eq!(not_redirected.phase1.len(), 3);
    }

    #[test]
    fn piggyback_requests_background_write() {
        let m = mapping(4);
        let l = logical_on_disk(&m, 0);
        let addr = m.logical_to_addr(l);
        let rebuilt = vec![false; 200];
        let p = plan_user_access(
            &m,
            AccessKind::Read,
            l,
            FaultView::rebuilding(0, ReconAlgorithm::RedirectPiggyback, &rebuilt, None),
        );
        assert_eq!(p.phase1.len(), 3);
        assert_eq!(p.piggyback, Some(addr));
    }

    #[test]
    fn rebuilt_unit_write_is_normal_rmw_on_replacement() {
        let m = mapping(4);
        let l = logical_on_disk(&m, 0);
        let addr = m.logical_to_addr(l);
        let mut rebuilt = vec![false; 200];
        rebuilt[addr.offset as usize] = true;
        let p = plan_user_access(
            &m,
            AccessKind::Write,
            l,
            FaultView::rebuilding(0, ReconAlgorithm::UserWrites, &rebuilt, None),
        );
        assert_eq!(p.accesses(), 4);
        // Data half of the RMW addresses the replacement (disk 0).
        assert!(p.phase1.iter().any(|io| io.disk == 0));
        assert!(p.phase2.iter().any(|io| io.disk == 0));
        assert_eq!(p.mark_rebuilt, None);
    }

    #[test]
    fn rebuilt_parity_write_is_normal_rmw() {
        let m = mapping(4);
        let l = logical_with_parity_on(&m, 3);
        let (stripe, _) = m.logical_to_stripe(l);
        let parity = *m.stripe_units(stripe).last().unwrap();
        let mut rebuilt = vec![false; 200];
        rebuilt[parity.offset as usize] = true;
        let p = plan_user_access(
            &m,
            AccessKind::Write,
            l,
            FaultView::rebuilding(3, ReconAlgorithm::Redirect, &rebuilt, None),
        );
        assert_eq!(p.accesses(), 4);
    }

    fn pq_mapping() -> ArrayMapping {
        let layout = PqLayout::new(BlockDesign::complete(6, 5).unwrap()).unwrap();
        ArrayMapping::new(Arc::new(layout), 200).unwrap()
    }

    #[test]
    fn partial_write_keeps_the_old_image() {
        // A lost unit: the partial write also reads a parity to decode
        // the bytes it keeps; the full write reads only the G − 2
        // siblings. Both write the same parity.
        let m = mapping(4);
        let l = logical_on_disk(&m, 0);
        let full = plan_user_access(&m, AccessKind::Write, l, FaultView::degraded(0));
        let mut partial = OpPlan::default();
        plan_user_access_into(
            &m,
            Access::PartialWrite,
            l,
            FaultView::degraded(0),
            &mut partial,
        );
        assert_eq!(full.phase1.len(), 2, "{full:?}");
        assert_eq!(partial.phase1.len(), 3, "{partial:?}");
        assert_eq!(partial.phase2, full.phase2);
        // The G = 3 shortcut skips the old image, so a partial write is
        // the full read-modify-write.
        plan_user_access_into(
            &mapping(3),
            Access::PartialWrite,
            5,
            FaultView::FAULT_FREE,
            &mut partial,
        );
        assert_eq!(partial.accesses(), 4);
    }

    #[test]
    fn pq_double_erasure_read_uses_both_parities() {
        let m = pq_mapping();
        let l = 7;
        let (stripe, index) = m.logical_to_stripe(l);
        let units = m.stripe_units(stripe);
        let (a, b) = (
            units[index as usize].disk,
            units[(index as usize + 1) % 3].disk,
        );
        let p = plan_user_access(
            &m,
            AccessKind::Read,
            l,
            FaultView::degraded(a).with_failed(b, None),
        );
        // The one live data unit, P and Q: never a failed disk.
        let mut read: Vec<UnitAddr> = p
            .reads()
            .map(|io| UnitAddr::new(io.disk, io.offset))
            .collect();
        read.sort_unstable_by_key(|u| u.disk);
        let mut expect: Vec<UnitAddr> = units
            .iter()
            .copied()
            .filter(|u| u.disk != a && u.disk != b)
            .collect();
        expect.sort_unstable_by_key(|u| u.disk);
        assert_eq!(read, expect);
    }

    #[test]
    fn pq_rebuild_reads_g_minus_two_and_installs_every_lost_unit() {
        let m = pq_mapping();
        let rebuilt = vec![false; 200];
        let both = FaultView::FAULT_FREE
            .with_algorithm(ReconAlgorithm::Redirect)
            .with_failed(0, Some(&rebuilt))
            .with_failed(1, Some(&rebuilt));
        let mut plan = OpPlan::default();
        let mut shared = 0;
        for offset in 0..m.units_per_disk() {
            let addr = UnitAddr::new(0, offset);
            let Some(stripe) = m.role_at(0, offset).stripe() else {
                continue;
            };
            // One failure: G − m = 3 survivor reads, one write.
            assert!(plan_rebuild_unit_into(
                &m,
                addr,
                FaultView::degraded(0),
                &mut plan
            ));
            assert_eq!(plan.reads().count(), 3, "{plan:?}");
            assert!(plan.reads().all(|io| io.disk != 0));
            assert_eq!(plan.phase2, vec![PlannedIo::write(addr)]);
            // Two failures sharing the stripe: the same read count
            // recovers both, and both are written.
            if m.stripe_units(stripe).iter().any(|u| u.disk == 1) {
                shared += 1;
                assert!(plan_rebuild_unit_into(&m, addr, both, &mut plan));
                assert_eq!(plan.reads().count(), 3, "{plan:?}");
                let written: Vec<u16> = plan.writes().map(|io| io.disk).collect();
                assert_eq!(written.len(), 2);
                assert!(written.contains(&0) && written.contains(&1));
            }
        }
        assert!(shared > 0);
    }

    #[test]
    fn raid5_degraded_read_uses_all_survivors() {
        let m = raid5_mapping(5);
        let l = logical_on_disk(&m, 4);
        let p = plan_user_access(&m, AccessKind::Read, l, FaultView::degraded(4));
        // α = 1: every surviving disk participates.
        assert_eq!(p.phase1.len(), 4);
        let disks: std::collections::HashSet<u16> = p.phase1.iter().map(|io| io.disk).collect();
        assert_eq!(disks.len(), 4);
    }
}
