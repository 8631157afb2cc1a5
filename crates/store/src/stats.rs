//! Machine-readable health snapshot of a live store.
//!
//! [`StoreStats`] is the one structure behind every "how is the array
//! doing" question: the `store stats` CLI subcommand prints it, the
//! network server's STATS RPC ships it to clients, and tests assert on
//! it. It is assembled from relaxed atomic counters while I/O is in
//! flight, so the numbers are a consistent-enough snapshot, not a
//! barrier: totals may trail per-disk counters by a few in-flight ops.
//!
//! The JSON encoding (written through `decluster_sim::json`) is compact,
//! so shell pipelines can grep a `"key":value` pair without a JSON
//! parser.

use crate::health::FaultCounters;
use crate::store::BlockStore;
use decluster_sim::json;

/// Point-in-time view of one backing disk.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskStats {
    /// Disk index in the array.
    pub disk: u16,
    /// Units read since open.
    pub reads: u64,
    /// Units written since open.
    pub writes: u64,
    /// Faults charged against this disk's error budget since the last
    /// rebuild reset.
    pub faults: u64,
    /// EWMA read-latency estimate in microseconds (0 until the disk
    /// has served a read).
    pub ewma_read_us: f64,
    /// Whether the limping detector currently flags this disk.
    pub limping: bool,
    /// Whether this disk is currently failed (any of them, for a P+Q
    /// store that has lost two).
    pub failed: bool,
}

/// Point-in-time view of the whole array.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreStats {
    /// Layout construction name (e.g. `declustered`).
    pub layout: String,
    /// Array width C.
    pub disks: u16,
    /// Stripe width G.
    pub group: u16,
    /// The fraction of each surviving disk a rebuild reads,
    /// (G−m)/(C−1): the declustering ratio α = (G−1)/(C−1) for single
    /// parity.
    pub alpha: f64,
    /// Bytes per stripe unit.
    pub unit_bytes: u64,
    /// Addressable logical data units.
    pub data_units: u64,
    /// Addressable logical blocks.
    pub block_count: u64,
    /// Whether a disk is currently failed and not fully rebuilt.
    pub degraded: bool,
    /// The first failed disk, if any (every failed disk is flagged in
    /// `per_disk`).
    pub failed_disk: Option<u16>,
    /// Whether the store was opened read-only (v1 format).
    pub read_only: bool,
    /// Array-wide fault-handling counters (detections, retries,
    /// checksum repairs, escalations, hedges, demotions).
    pub faults: FaultCounters,
    /// One entry per backing disk, in index order.
    pub per_disk: Vec<DiskStats>,
}

impl StoreStats {
    /// Collects a snapshot from a live store. Cheap: atomic loads and
    /// one short state-lock acquisition, no I/O.
    pub fn collect(store: &BlockStore) -> StoreStats {
        let failed = store.failed_disks();
        let io = store.io_counters();
        let per_disk = (0..store.spec().disks())
            .map(|d| DiskStats {
                disk: d,
                reads: io[d as usize].reads,
                writes: io[d as usize].writes,
                faults: store.disk_faults(d),
                ewma_read_us: store.disk_read_ewma_us(d),
                limping: store.disk_limping(d),
                failed: failed.contains(&d),
            })
            .collect();
        StoreStats {
            layout: store.spec().to_string(),
            disks: store.spec().disks(),
            group: store.spec().group(),
            alpha: decluster_array::plan::rebuild_read_fraction(store.mapping()),
            unit_bytes: store.unit_bytes() as u64,
            data_units: store.data_units(),
            block_count: store.block_count(),
            degraded: !failed.is_empty(),
            failed_disk: failed.first().copied(),
            read_only: store.read_only(),
            faults: store.fault_counters(),
            per_disk,
        }
    }

    /// Renders the snapshot as a single JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("layout", &self.layout)
                .int("disks", self.disks)
                .int("group", self.group)
                .fixed("alpha", self.alpha, 3)
                .int("unit_bytes", self.unit_bytes)
                .int("data_units", self.data_units)
                .int("block_count", self.block_count)
                .bool("degraded", self.degraded);
            match self.failed_disk {
                Some(d) => o.int("failed_disk", d),
                None => o.raw("failed_disk", "null"),
            };
            let f = &self.faults;
            o.bool("read_only", self.read_only).object("faults", |o| {
                o.int("media_errors", f.media_errors)
                    .int("checksum_errors", f.checksum_errors)
                    .int("retries", f.retries)
                    .int("retry_successes", f.retry_successes)
                    .int("repaired", f.repaired)
                    .int("repair_units_read", f.repair_units_read)
                    .int("repair_units_written", f.repair_units_written)
                    .int("escalated", f.escalated)
                    .int("hedged_reads", f.hedged_reads)
                    .int("hedge_wins", f.hedge_wins)
                    .int("demotions", f.demotions);
            });
            o.array(
                "per_disk",
                self.per_disk.iter().map(|d| {
                    json::object(|o| {
                        o.int("disk", d.disk)
                            .int("reads", d.reads)
                            .int("writes", d.writes)
                            .int("faults", d.faults)
                            .fixed("ewma_read_us", d.ewma_read_us, 3)
                            .bool("limping", d.limping)
                            .bool("failed", d.failed);
                    })
                }),
            );
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let stats = StoreStats {
            layout: "declustered".to_string(),
            disks: 10,
            group: 4,
            alpha: 1.0 / 3.0,
            unit_bytes: 4096,
            data_units: 360,
            block_count: 2880,
            degraded: true,
            failed_disk: Some(7),
            read_only: false,
            faults: FaultCounters {
                checksum_errors: 2,
                repaired: 2,
                ..FaultCounters::default()
            },
            per_disk: vec![DiskStats {
                disk: 0,
                reads: 11,
                writes: 22,
                faults: 1,
                ewma_read_us: 812.5,
                limping: false,
                failed: false,
            }],
        };
        let json = stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"layout\":\"declustered\""));
        assert!(json.contains("\"alpha\":0.333"));
        assert!(json.contains("\"failed_disk\":7"));
        assert!(json.contains("\"checksum_errors\":2"));
        assert!(json.contains("\"per_disk\":[{\"disk\":0,\"reads\":11"));
        assert!(json.contains("\"ewma_read_us\":812.500"));
        assert!(!json.contains(",}") && !json.contains(",]"), "{json}");
    }

    #[test]
    fn collect_flags_every_failed_disk_of_a_pq_store() {
        let dir = std::env::temp_dir()
            .join("decluster-store-stats")
            .join(format!("pq-two-failed-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        let spec = crate::LayoutSpec::Pq {
            disks: 10,
            group: 5,
        };
        let store = BlockStore::create(&dir, spec, 36, 512, 5).unwrap();
        store.fail_disk(2).unwrap();
        store.fail_disk(7).unwrap();
        let stats = StoreStats::collect(&store);
        let failed: Vec<u16> = stats
            .per_disk
            .iter()
            .filter(|d| d.failed)
            .map(|d| d.disk)
            .collect();
        assert_eq!(failed, vec![2, 7]);
        assert!(stats.degraded);
        assert_eq!(stats.failed_disk, Some(2));
        // A rebuild reads G − m = 3 survivors per unit over C − 1 = 9.
        assert!((stats.alpha - 1.0 / 3.0).abs() < 1e-12);
        let json = stats.to_json();
        assert_eq!(json.matches("\"failed\":true").count(), 2, "{json}");
        store.close().unwrap();
    }

    #[test]
    fn null_failed_disk_renders_as_null() {
        let stats = StoreStats {
            layout: "raid5".to_string(),
            disks: 5,
            group: 5,
            alpha: 1.0,
            unit_bytes: 4096,
            data_units: 16,
            block_count: 128,
            degraded: false,
            failed_disk: None,
            read_only: false,
            faults: FaultCounters::default(),
            per_disk: Vec::new(),
        };
        let json = stats.to_json();
        assert!(json.contains("\"failed_disk\":null"));
        assert!(json.contains("\"per_disk\":[]"));
    }
}
