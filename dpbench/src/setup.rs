//! Store geometry, set-up (mkfs + fill, timed several times), and the
//! whole-store correctness checks run after every workload.

use crate::gen::{read_ok, Payloads};
use crate::trace;
use decluster_store::{BlockStore, LayoutSpec, BLOCK_BYTES};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const SPEC: &str = "bibd:c10g4";
pub const UNIT_BYTES: usize = 4096;
pub const UNITS_PER_DISK: u64 = 16_800;
/// 16,800 units on each of 10 disks, 3 of every 4 holding data.
pub const DATA_UNITS: u64 = 126_000;
/// G − 1: survivors read to rebuild one unit, and the extra reads of
/// one hedged read.
pub const SURVIVORS: u64 = 3;
pub const BLOCKS_PER_UNIT: u64 = (UNIT_BYTES / BLOCK_BYTES as usize) as u64;
/// Units per fill and verify extent: a multiple of the 3 data units of
/// a stripe, so the fill takes the full-stripe path.
const EXTENT_UNITS: u64 = 96;

/// Formats and fills a store: every data unit holds its version-0
/// payload. `traced` installs the span-recording backend.
pub fn mkfs_fill(
    dir: &Path,
    seed: u64,
    payloads: &Payloads,
    traced: bool,
) -> Result<BlockStore, String> {
    let spec: LayoutSpec = SPEC.parse().map_err(|e| format!("layout {SPEC}: {e}"))?;
    let store = if traced {
        BlockStore::create_with_backend(
            dir,
            spec,
            UNITS_PER_DISK,
            UNIT_BYTES as u32,
            seed,
            &trace::traced_backend,
        )
    } else {
        BlockStore::create(dir, spec, UNITS_PER_DISK, UNIT_BYTES as u32, seed)
    }
    .map_err(|e| format!("mkfs: {e}"))?;
    if store.data_units() != DATA_UNITS {
        return Err(format!(
            "geometry: {} data units, expected {DATA_UNITS}",
            store.data_units()
        ));
    }
    let mut buf = vec![0u8; EXTENT_UNITS as usize * UNIT_BYTES];
    for first in (0..DATA_UNITS).step_by(EXTENT_UNITS as usize) {
        let n = EXTENT_UNITS.min(DATA_UNITS - first);
        for (i, unit) in buf
            .chunks_exact_mut(UNIT_BYTES)
            .take(n as usize)
            .enumerate()
        {
            payloads.fill(first + i as u64, 0, unit);
        }
        store
            .write_blocks(first * BLOCKS_PER_UNIT, &buf[..n as usize * UNIT_BYTES])
            .map_err(|e| format!("fill: {e}"))?;
    }
    Ok(store)
}

/// Runs `make` `reps` times in fresh directories under `root`, timing
/// each; every result but the last is torn down and its directory
/// removed. Returns the last result, its directory, and the median
/// set-up time in seconds.
pub fn repeated<T>(
    root: &Path,
    reps: usize,
    mut make: impl FnMut(&Path) -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, PathBuf, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps.max(1) {
        let dir = root.join(format!("store-{rep}"));
        let start = Instant::now();
        let made = make(&dir)?;
        times.push(start.elapsed().as_secs_f64());
        if let Some((prev, prev_dir)) = last.replace((made, dir)) {
            teardown(prev)?;
            remove_dir(&prev_dir)?;
        }
    }
    times.sort_by(f64::total_cmp);
    let (made, dir) = last.expect("at least one set-up ran");
    Ok((made, dir, times[times.len() / 2]))
}

pub fn remove_dir(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))
}

/// Reads every data unit back and checks it against `ledger`; returns
/// the number of units that differ.
pub fn verify_contents(
    store: &BlockStore,
    payloads: &Payloads,
    ledger: &[u32],
) -> Result<u64, String> {
    let mut buf = vec![0u8; EXTENT_UNITS as usize * UNIT_BYTES];
    let mut bad = 0;
    for first in (0..DATA_UNITS).step_by(EXTENT_UNITS as usize) {
        let n = EXTENT_UNITS.min(DATA_UNITS - first) as usize;
        store
            .read_blocks(first * BLOCKS_PER_UNIT, &mut buf[..n * UNIT_BYTES])
            .map_err(|e| format!("verify read: {e}"))?;
        for (i, unit) in buf.chunks_exact(UNIT_BYTES).take(n).enumerate() {
            let u = first + i as u64;
            if !read_ok(payloads, u, ledger[u as usize], unit) {
                bad += 1;
            }
        }
    }
    Ok(bad)
}

/// The end-of-workload gates: parity consistent, every byte as the
/// ledger says, and a clean close.
pub fn final_checks(
    store: BlockStore,
    payloads: &Payloads,
    ledger: &[u32],
    violations: &mut Vec<String>,
) -> Result<(), String> {
    if let Err(e) = store.verify_parity() {
        violations.push(format!("final verify_parity: {e}"));
    }
    let bad = verify_contents(&store, payloads, ledger)?;
    if bad > 0 {
        violations.push(format!(
            "final content verify: {bad} units differ from the ledger"
        ));
    }
    store.close().map_err(|e| format!("close: {e}"))
}
