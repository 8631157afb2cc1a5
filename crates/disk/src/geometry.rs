//! Disk geometry: cylinders, tracks, sectors, skew, and rotation.

/// The physical shape and spin of a disk.
///
/// Logical sectors are numbered cylinder-major: all sectors of cylinder 0
/// (track by track), then cylinder 1, and so on — the conventional mapping
/// that makes logically sequential transfers physically sequential.
///
/// # Examples
///
/// ```
/// use decluster_disk::Geometry;
///
/// let g = Geometry::ibm0661();
/// assert_eq!(g.total_sectors(), 949 * 14 * 48);
/// let (cyl, track, sector) = g.locate(48 * 14 + 5);
/// assert_eq!((cyl, track, sector), (1, 0, 5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    /// Number of cylinders (seek positions).
    pub cylinders: u32,
    /// Tracks (heads/surfaces) per cylinder.
    pub tracks_per_cylinder: u32,
    /// Sectors per track.
    pub sectors_per_track: u32,
    /// Bytes per sector.
    pub bytes_per_sector: u32,
    /// One full revolution, in microseconds.
    pub revolution_us: u32,
    /// Track skew in sectors: consecutive tracks are rotationally offset by
    /// this much so a head/cylinder switch lands just ahead of the next
    /// logical sector.
    pub track_skew_sectors: u32,
    /// Minimum (single-cylinder) seek time, ms.
    pub seek_min_ms: f64,
    /// Average random seek time, ms.
    pub seek_avg_ms: f64,
    /// Full-stroke seek time, ms.
    pub seek_max_ms: f64,
}

impl Geometry {
    /// The IBM 0661 Model 370 ("Lightning") drive simulated in the paper:
    /// 949 cylinders × 14 tracks × 48 sectors × 512 bytes, 13.9 ms
    /// revolution, 4-sector track skew, 2/12.5/25 ms seeks (Table 5-1 (b)).
    pub fn ibm0661() -> Geometry {
        Geometry {
            cylinders: 949,
            tracks_per_cylinder: 14,
            sectors_per_track: 48,
            bytes_per_sector: 512,
            revolution_us: 13_900,
            track_skew_sectors: 4,
            seek_min_ms: 2.0,
            seek_avg_ms: 12.5,
            seek_max_ms: 25.0,
        }
    }

    /// A proportionally shrunken drive with `cylinders` cylinders and the
    /// IBM 0661's per-track characteristics. Used to run full-reconstruction
    /// experiments quickly while preserving seek/rotate behaviour; the seek
    /// curve is re-fit so min/avg/max stay at the 0661's values.
    ///
    /// # Panics
    ///
    /// Panics if `cylinders` is zero.
    pub fn ibm0661_scaled(cylinders: u32) -> Geometry {
        assert!(cylinders > 0, "a disk needs at least one cylinder");
        Geometry {
            cylinders,
            ..Geometry::ibm0661()
        }
    }

    /// Sectors on the whole disk.
    pub fn total_sectors(&self) -> u64 {
        self.cylinders as u64 * self.sectors_per_cylinder()
    }

    /// Sectors in one cylinder.
    pub fn sectors_per_cylinder(&self) -> u64 {
        self.tracks_per_cylinder as u64 * self.sectors_per_track as u64
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_sectors() * self.bytes_per_sector as u64
    }

    /// Time for one sector to pass under the head, in microseconds.
    pub fn sector_time_us(&self) -> f64 {
        self.revolution_us as f64 / self.sectors_per_track as f64
    }

    /// Decomposes a logical sector into `(cylinder, track, sector)`.
    ///
    /// # Panics
    ///
    /// Panics if `logical` is past the end of the disk.
    pub fn locate(&self, logical: u64) -> (u32, u32, u32) {
        assert!(
            logical < self.total_sectors(),
            "sector {logical} beyond disk end {}",
            self.total_sectors()
        );
        let spt = self.sectors_per_track as u64;
        let cyl = logical / self.sectors_per_cylinder();
        let rem = logical % self.sectors_per_cylinder();
        (cyl as u32, (rem / spt) as u32, (rem % spt) as u32)
    }

    /// The global track index (0-based across the whole disk) containing a
    /// logical sector.
    pub fn track_of(&self, logical: u64) -> u64 {
        logical / self.sectors_per_track as u64
    }

    /// The rotational slot (physical angular position, in sector units) at
    /// which `sector` of global track `track` begins. Track skew offsets
    /// each successive track.
    pub fn physical_slot(&self, track: u64, sector: u32) -> f64 {
        let spt = self.sectors_per_track as u64;
        ((sector as u64 + track * self.track_skew_sectors as u64) % spt) as f64
    }

    /// The fractional rotational slot passing under the heads at absolute
    /// time `t_us` (all platters rotate in lockstep from time zero).
    pub fn slot_at_time(&self, t_us: f64) -> f64 {
        let rev = self.revolution_us as f64;
        let frac = (t_us / rev).fract();
        frac * self.sectors_per_track as f64
    }

    /// First and second moments (µs, µs²) of the service time of one
    /// random `sectors`-sector access: seek (fitted curve over random
    /// cylinder pairs) + rotational latency (uniform over a revolution) +
    /// transfer. Seek, rotation, and transfer are independent, so the
    /// moments compose exactly. Feeds the M/G/1 response-time model in
    /// `decluster-analytic`.
    pub fn random_service_moments_us(&self, sectors: u32) -> (f64, f64) {
        let seek = crate::seek::SeekModel::fit(self);
        let (seek_m1, seek_m2) = seek.random_seek_moments_us(self.cylinders);
        let rev = self.revolution_us as f64;
        let (rot_m1, rot_m2) = (rev / 2.0, rev * rev / 3.0);
        let xfer = sectors as f64 * self.sector_time_us();
        let m1 = seek_m1 + rot_m1 + xfer;
        // E[(A+B+c)²] = E[A²]+E[B²]+c² + 2(E[A]E[B]+cE[A]+cE[B]).
        let m2 = seek_m2
            + rot_m2
            + xfer * xfer
            + 2.0 * (seek_m1 * rot_m1 + xfer * seek_m1 + xfer * rot_m1);
        (m1, m2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ibm0661_capacity_matches_spec() {
        let g = Geometry::ibm0661();
        assert_eq!(g.total_sectors(), 637_728);
        // ~311 MB formatted, in the right ballpark for the drive.
        assert_eq!(g.capacity_bytes(), 637_728 * 512);
    }

    #[test]
    fn locate_walks_cylinder_major() {
        let g = Geometry::ibm0661();
        assert_eq!(g.locate(0), (0, 0, 0));
        assert_eq!(g.locate(47), (0, 0, 47));
        assert_eq!(g.locate(48), (0, 1, 0));
        assert_eq!(g.locate(48 * 14 - 1), (0, 13, 47));
        assert_eq!(g.locate(48 * 14), (1, 0, 0));
        let last = g.total_sectors() - 1;
        assert_eq!(g.locate(last), (948, 13, 47));
    }

    #[test]
    #[should_panic(expected = "beyond disk end")]
    fn locate_past_end_panics() {
        let g = Geometry::ibm0661();
        g.locate(g.total_sectors());
    }

    #[test]
    fn sector_time() {
        let g = Geometry::ibm0661();
        assert!((g.sector_time_us() - 13_900.0 / 48.0).abs() < 1e-9);
    }

    #[test]
    fn physical_slot_applies_skew() {
        let g = Geometry::ibm0661();
        assert_eq!(g.physical_slot(0, 0), 0.0);
        assert_eq!(g.physical_slot(1, 0), 4.0);
        assert_eq!(g.physical_slot(12, 0), 0.0); // 12 * 4 = 48 ≡ 0
        assert_eq!(g.physical_slot(1, 47), (47 + 4) as f64 % 48.0);
    }

    #[test]
    fn skew_makes_track_crossing_seamless() {
        // Last sector of track T ends at slot (48 + T*4) mod 48; the first
        // sector of track T+1 starts 4 slots later — exactly the skew.
        let g = Geometry::ibm0661();
        let end_of_t0 = (g.physical_slot(0, 47) + 1.0) % 48.0;
        let start_of_t1 = g.physical_slot(1, 0);
        let gap = (start_of_t1 - end_of_t0).rem_euclid(48.0);
        assert_eq!(gap, g.track_skew_sectors as f64);
    }

    #[test]
    fn slot_at_time_wraps_with_revolution() {
        let g = Geometry::ibm0661();
        assert_eq!(g.slot_at_time(0.0), 0.0);
        let one_sector = g.sector_time_us();
        assert!((g.slot_at_time(one_sector) - 1.0).abs() < 1e-9);
        assert!((g.slot_at_time(13_900.0) - 0.0).abs() < 1e-9);
        assert!((g.slot_at_time(13_900.0 * 2.5) - 24.0).abs() < 1e-9);
    }

    #[test]
    fn random_service_moments_match_monte_carlo() {
        use crate::model::{Disk, DiskRequest, IoKind};
        use decluster_sim::{SimRng, SimTime};
        let g = Geometry::ibm0661();
        let (m1, m2) = g.random_service_moments_us(8);
        // Monte-Carlo: one-at-a-time random reads.
        let units = g.total_sectors() / 8;
        let mut rng = SimRng::new(21);
        let mut disk = Disk::new(g, 0);
        let mut now = SimTime::ZERO;
        let mut s1 = 0.0;
        let mut s2 = 0.0;
        let n = 4_000;
        for i in 0..n {
            let c = disk
                .submit(
                    now,
                    DiskRequest::new(i, rng.below(units) * 8, 8, IoKind::Read),
                )
                .unwrap();
            let service = (c.at - now).as_us() as f64;
            s1 += service;
            s2 += service * service;
            now = c.at;
            disk.complete(now);
        }
        s1 /= n as f64;
        s2 /= n as f64;
        assert!((s1 - m1).abs() / m1 < 0.03, "mean {s1} vs model {m1}");
        assert!((s2 - m2).abs() / m2 < 0.06, "m2 {s2} vs model {m2}");
    }

    #[test]
    fn scaled_geometry_keeps_track_shape() {
        let g = Geometry::ibm0661_scaled(100);
        assert_eq!(g.cylinders, 100);
        assert_eq!(g.sectors_per_track, 48);
        assert_eq!(g.total_sectors(), 100 * 14 * 48);
    }
}
