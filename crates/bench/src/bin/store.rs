//! Operate a file-backed declustered store (`decluster-store`) from the
//! command line: format, fill, benchmark, fail, rebuild, verify.
//!
//! ```text
//! store mkfs DIR [--disks C] [--group G] [--units N] [--unit-bytes B]
//!               [--layout SPEC] [--array-id ID]
//! store fill DIR [--seed S]
//! store bench DIR [--requests N] [--threads T] [--read-fraction F]
//!                [--rate R] [--seed S] [--access-units U]
//!                [--max-regress F] [--out PATH]
//! store fail DIR DISK
//! store rebuild DIR [--threads T]
//! store verify DIR [--seed S] [--skip-content]
//! store scrub DIR
//! store stats DIR
//! ```
//!
//! `mkfs --layout` takes a full layout spec (`bibd:c10g4`, `prime:c11g4`,
//! `raid5:c10`, `pq:c12g6`, …) or a bare family name (`bibd`, `prime`,
//! `pq`, plus the legacy alias `declustered`) combined with
//! `--disks`/`--group`. `store mkfs --layout help` lists every family.
//!
//! `fill` writes a deterministic per-unit pattern derived from `--seed`;
//! `verify` first scrubs every unit's media and per-unit checksum
//! (report-only, printing the disk and offset of each failure), then
//! regenerates the pattern and checks every logical unit (through the
//! degraded read path when a disk is down), then scans parity when the
//! store is fault-free. `scrub` runs the repairing pass: every faulty
//! unit is corrected in place from parity, uncorrectable ones are
//! listed. `rebuild` installs a blank replacement, rebuilds
//! it online, and prints each surviving disk's read fraction next to the
//! layout's α = (G−1)/(C−1). `bench` replays a generated workload over a
//! worker pool, reports p50/p95/p99 per-request latency, and **appends**
//! a run entry (git rev, config, units/s, latency, fault counters) to a
//! JSON trajectory (default `results/store_bench.json`);
//! `--max-regress 0.30` exits nonzero if units/s dropped more than 30%
//! against the last entry with the same configuration — the CI
//! regression gate.

use decluster_bench::trajectory::{append_entry, git_rev, last_match, unix_time};
use decluster_sim::{json, LatencyHistogram};
use decluster_store::{BlockStore, LayoutSpec, StoreError, StorePool, BLOCK_BYTES};
use decluster_workload::{AccessKind, Workload, WorkloadSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: store mkfs DIR [--disks C] [--group G] [--units N] [--unit-bytes B] \
         [--layout SPEC] [--array-id ID]   (SPEC like bibd:c10g4, prime:c11g4, \
         raid5:c10, pq:c12g6; `--layout help` lists families)\n\
         \x20      store fill DIR [--seed S]\n\
         \x20      store bench DIR [--requests N] [--threads T] [--read-fraction F] \
         [--rate R] [--seed S] [--access-units U] [--max-regress F] [--out PATH]\n\
         \x20      store fail DIR DISK\n\
         \x20      store rebuild DIR [--threads T]\n\
         \x20      store verify DIR [--seed S] [--skip-content]\n\
         \x20      store scrub DIR\n\
         \x20      store stats DIR"
    );
    std::process::exit(if problem.is_empty() { 0 } else { 2 });
}

fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn fail(err: StoreError) -> ! {
    eprintln!("error: {err}");
    std::process::exit(1);
}

fn open(dir: &Path) -> BlockStore {
    match BlockStore::open(dir) {
        Ok((store, report)) => {
            if let Some(r) = report {
                println!(
                    "recovery ({}): {} stripes checked, {} torn, {} repaired",
                    r.policy.name(),
                    r.stripes_checked,
                    r.torn_found,
                    r.torn_repaired
                );
            }
            store
        }
        Err(e) => fail(e),
    }
}

fn describe(store: &BlockStore) {
    let spec = store.spec();
    println!(
        "{} C={} G={} α={:.4}  {} units/disk × {} B  {} data units ({} blocks)",
        spec,
        spec.disks(),
        spec.group(),
        spec.alpha(),
        store.mapping().units_per_disk(),
        store.unit_bytes(),
        store.data_units(),
        store.block_count()
    );
}

/// The deterministic fill pattern: an xorshift stream keyed by
/// `(seed, logical)`, so `verify` can regenerate any unit on its own.
fn pattern(seed: u64, logical: u64, unit_bytes: usize) -> Vec<u8> {
    let mut x = seed ^ logical.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0123_4567_89AB_CDEF;
    (0..unit_bytes)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// Resolves `--layout` into a [`LayoutSpec`]: a full spec string
/// (`bibd:c10g4`) stands alone, a bare family name (`bibd`, `prime`,
/// `pq`, legacy alias `declustered`) combines with `--disks`/`--group`,
/// and `help` prints the registry and exits.
fn resolve_layout(layout: &str, disks: u16, group: u16) -> LayoutSpec {
    if layout == "help" || layout == "list" {
        eprintln!("layout families (spec grammar `family:cN[gM]`):");
        for fam in decluster_core::layout::spec::registry() {
            eprintln!(
                "  {:<10} {}  (e.g. {})",
                fam.name,
                fam.summary,
                fam.examples.join(", ")
            );
        }
        std::process::exit(0);
    }
    let text = if layout.contains(':') {
        layout.to_string()
    } else {
        let family = if layout == "declustered" {
            "bibd"
        } else {
            layout
        };
        let takes_group = decluster_core::layout::spec::registry()
            .iter()
            .find(|f| f.name == family)
            .is_none_or(|f| f.takes_group);
        if takes_group {
            format!("{family}:c{disks}g{group}")
        } else {
            format!("{family}:c{disks}")
        }
    };
    text.parse()
        .unwrap_or_else(|e| usage(&format!("bad --layout {layout}: {e}")))
}

fn mkfs(dir: &Path, mut args: impl Iterator<Item = String>) {
    let mut disks: u16 = 10;
    let mut group: u16 = 4;
    let mut units: u64 = 336;
    let mut unit_bytes: u32 = 4096;
    let mut layout = "declustered".to_string();
    let mut array_id: u64 = 0xDEC1;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--disks" => disks = parse(&mut args, "--disks"),
            "--group" => group = parse(&mut args, "--group"),
            "--units" => units = parse(&mut args, "--units"),
            "--unit-bytes" => unit_bytes = parse(&mut args, "--unit-bytes"),
            "--layout" => layout = parse(&mut args, "--layout"),
            "--array-id" => array_id = parse(&mut args, "--array-id"),
            other => usage(&format!("unknown mkfs flag {other}")),
        }
    }
    let spec = resolve_layout(&layout, disks, group);
    let store =
        BlockStore::create(dir, spec, units, unit_bytes, array_id).unwrap_or_else(|e| fail(e));
    describe(&store);
    store.close().unwrap_or_else(|e| fail(e));
    println!("formatted {}", dir.display());
}

fn fill(dir: &Path, mut args: impl Iterator<Item = String>) {
    let mut seed: u64 = 1;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = parse(&mut args, "--seed"),
            other => usage(&format!("unknown fill flag {other}")),
        }
    }
    let store = open(dir);
    describe(&store);
    let start = Instant::now();
    // Stripe-multiple extents keep the fill on the full-stripe fast
    // path: parity from the data, no reads.
    let dpu = (store.mapping().stripe_width() - 1) as u64;
    let bpu = store.unit_bytes() as u64 / u64::from(BLOCK_BYTES);
    let chunk_units = (96 / dpu).max(1) * dpu;
    let mut data = Vec::with_capacity((chunk_units as usize) * store.unit_bytes());
    let mut logical = 0;
    while logical < store.data_units() {
        let n = chunk_units.min(store.data_units() - logical);
        data.clear();
        for l in logical..logical + n {
            data.extend_from_slice(&pattern(seed, l, store.unit_bytes()));
        }
        store
            .write_blocks(logical * bpu, &data)
            .unwrap_or_else(|e| fail(e));
        logical += n;
    }
    println!(
        "filled {} units in {:.2}s (seed {seed})",
        store.data_units(),
        start.elapsed().as_secs_f64()
    );
    store.close().unwrap_or_else(|e| fail(e));
}

fn fail_disk(dir: &Path, disk: u16) {
    let store = open(dir);
    store.fail_disk(disk).unwrap_or_else(|e| fail(e));
    println!("disk {disk} failed; store is degraded");
    store.close().unwrap_or_else(|e| fail(e));
}

fn rebuild(dir: &Path, mut args: impl Iterator<Item = String>) {
    let mut threads: usize = 0;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => threads = parse(&mut args, "--threads"),
            other => usage(&format!("unknown rebuild flag {other}")),
        }
    }
    let store = open(dir);
    describe(&store);
    store.replace_disk().unwrap_or_else(|e| fail(e));
    let report = store.rebuild(threads).unwrap_or_else(|e| fail(e));
    let failed = report
        .failed_disks
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "rebuilt disk(s) {} in {:.2}s: {} units reconstructed, {} already valid, {} holes",
        failed,
        report.wall_secs,
        report.units_rebuilt,
        report.units_already_valid,
        report.units_unmapped
    );
    println!("per-disk rebuild reads (α = {:.4}):", report.alpha);
    for disk in 0..report.disk_reads.len() as u16 {
        if report.failed_disks.contains(&disk) {
            println!(
                "  disk {disk:3}: replacement, {} writes",
                report.disk_writes[disk as usize]
            );
        } else {
            println!(
                "  disk {disk:3}: {:5} reads / {:5} mapped units = {:.4}",
                report.disk_reads[disk as usize],
                report.mapped_units_per_disk[disk as usize],
                report.read_fraction(disk)
            );
        }
    }
    store.close().unwrap_or_else(|e| fail(e));
}

fn verify(dir: &Path, mut args: impl Iterator<Item = String>) {
    let mut seed: u64 = 1;
    let mut check_content = true;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = parse(&mut args, "--seed"),
            "--skip-content" => check_content = false,
            other => usage(&format!("unknown verify flag {other}")),
        }
    }
    let store = open(dir);
    describe(&store);
    let down = store.failed_disks();
    if !down.is_empty() {
        println!("store is degraded (disk(s) {down:?} down): reads go through reconstruction");
    }
    // Media/checksum scrub first (report-only): a verify must name
    // exactly where a sick disk lied before the content pass trips
    // over it.
    let report = store.scrub(false).unwrap_or_else(|e| fail(e));
    if report.faults() == 0 {
        println!(
            "checksums ok: {} units scanned, no media or checksum faults",
            report.units_scanned
        );
    } else {
        eprintln!(
            "checksum scrub: {} media errors, {} checksum mismatches in {} units:",
            report.media_errors, report.checksum_errors, report.units_scanned
        );
        for (disk, offset) in &report.failures {
            eprintln!("  disk {disk} unit {offset}");
        }
        eprintln!("run `store scrub {}` to repair from parity", dir.display());
        std::process::exit(1);
    }
    if check_content {
        let mut buf = vec![0u8; store.unit_bytes()];
        for logical in 0..store.data_units() {
            store
                .read_unit(logical, &mut buf)
                .unwrap_or_else(|e| fail(e));
            if buf != pattern(seed, logical, store.unit_bytes()) {
                fail(StoreError::VerifyFailed { logical });
            }
        }
        println!(
            "content ok: {} units match the fill pattern",
            store.data_units()
        );
    }
    if store.failed_disks().is_empty() {
        store.verify_parity().unwrap_or_else(|e| fail(e));
        println!("parity ok: every mapped stripe is consistent");
    }
    store.close().unwrap_or_else(|e| fail(e));
}

/// The repairing scrub: read-repair over the whole array.
fn scrub(dir: &Path) {
    let store = open(dir);
    describe(&store);
    let report = store.scrub(true).unwrap_or_else(|e| fail(e));
    println!(
        "scrubbed {} units: {} media errors, {} checksum mismatches, \
         {} repaired from parity, {} escalated",
        report.units_scanned,
        report.media_errors,
        report.checksum_errors,
        report.repaired,
        report.escalated
    );
    if !report.failures.is_empty() {
        eprintln!("uncorrectable units:");
        for (disk, offset) in &report.failures {
            eprintln!("  disk {disk} unit {offset}");
        }
    }
    store.close().unwrap_or_else(|e| fail(e));
    if report.escalated > 0 {
        std::process::exit(1);
    }
}

/// Health snapshot as JSON on stdout (recovery notes go to stderr so
/// the output stays pipeable into a JSON consumer).
fn stats(dir: &Path) {
    let store = match BlockStore::open(dir) {
        Ok((store, report)) => {
            if let Some(r) = report {
                eprintln!(
                    "recovery ({}): {} stripes checked, {} torn, {} repaired",
                    r.policy.name(),
                    r.stripes_checked,
                    r.torn_found,
                    r.torn_repaired
                );
            }
            store
        }
        Err(e) => fail(e),
    };
    println!("{}", store.stats_snapshot().to_json());
    store.close().unwrap_or_else(|e| fail(e));
}

/// One worker's share of the benchmark stream.
struct WorkerTally {
    reads: u64,
    writes: u64,
    latency: LatencyHistogram,
}

#[allow(clippy::too_many_lines)]
fn bench(dir: &Path, mut args: impl Iterator<Item = String>) {
    let mut requests: usize = 2000;
    let mut threads: usize = 0;
    let mut read_fraction: f64 = 0.5;
    let mut rate: f64 = 500.0;
    let mut seed: u64 = 7;
    let mut access_units: u64 = 1;
    let mut max_regress: Option<f64> = None;
    let mut out = "results/store_bench.json".to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--requests" => requests = parse(&mut args, "--requests"),
            "--threads" => threads = parse(&mut args, "--threads"),
            "--read-fraction" => read_fraction = parse(&mut args, "--read-fraction"),
            "--rate" => rate = parse(&mut args, "--rate"),
            "--seed" => seed = parse(&mut args, "--seed"),
            "--access-units" => access_units = parse(&mut args, "--access-units"),
            "--max-regress" => max_regress = Some(parse(&mut args, "--max-regress")),
            "--out" => out = parse(&mut args, "--out"),
            other => usage(&format!("unknown bench flag {other}")),
        }
    }
    let store = open(dir);
    describe(&store);
    let mut workload = Workload::new(
        WorkloadSpec::new(rate, read_fraction).with_access_units(access_units),
        store.data_units(),
        seed,
    );
    let stream: Vec<_> = (0..requests).map(|_| workload.next_request()).collect();
    let pool = StorePool::new(threads);
    let per_worker = requests.div_ceil(pool.threads());
    let bpu = store.unit_bytes() as u64 / u64::from(BLOCK_BYTES);
    let before = store.io_counters();
    let start = Instant::now();
    let results = pool.run(
        stream
            .chunks(per_worker.max(1))
            .enumerate()
            .map(|(w, chunk)| {
                let store = &store;
                move || -> Result<WorkerTally, StoreError> {
                    let mut buf = vec![0u8; access_units as usize * store.unit_bytes()];
                    let mut data = Vec::with_capacity(buf.len());
                    let mut tally = WorkerTally {
                        reads: 0,
                        writes: 0,
                        latency: LatencyHistogram::new(),
                    };
                    for (i, req) in chunk.iter().enumerate() {
                        let span = req.units as usize * store.unit_bytes();
                        let began = Instant::now();
                        match req.kind {
                            AccessKind::Read => {
                                store.read_blocks(req.logical_unit * bpu, &mut buf[..span])?;
                                tally.reads += req.units;
                            }
                            AccessKind::Write => {
                                let gen = (w * per_worker + i) as u64;
                                data.clear();
                                for u in 0..req.units {
                                    data.extend_from_slice(&pattern(
                                        seed ^ gen,
                                        req.logical_unit + u,
                                        store.unit_bytes(),
                                    ));
                                }
                                store.write_blocks(req.logical_unit * bpu, &data)?;
                                tally.writes += req.units;
                            }
                        }
                        tally
                            .latency
                            .record_us(began.elapsed().as_micros().min(u128::from(u64::MAX))
                                as u64);
                    }
                    Ok(tally)
                }
            })
            .collect(),
    );
    let wall = start.elapsed().as_secs_f64();
    let (mut reads, mut writes) = (0u64, 0u64);
    let mut latency = LatencyHistogram::new();
    for r in results {
        let tally = r.unwrap_or_else(|e| fail(e));
        reads += tally.reads;
        writes += tally.writes;
        latency.merge(&tally.latency);
    }
    let after = store.io_counters();
    let user_units = reads + writes;
    let iops = user_units as f64 / wall;
    let mb_s = user_units as f64 * store.unit_bytes() as f64 / (wall * 1024.0 * 1024.0);
    let (p50, p95, p99) = (
        latency.quantile_us(0.50),
        latency.quantile_us(0.95),
        latency.quantile_us(0.99),
    );
    println!(
        "{user_units} unit accesses ({reads} reads, {writes} writes) in {wall:.3}s: \
         {iops:.0} units/s, {mb_s:.1} MB/s over {} workers",
        pool.threads()
    );
    println!(
        "per-request latency: p50 {p50}µs  p95 {p95}µs  p99 {p99}µs  \
         mean {:.3}ms  max {}µs ({} requests)",
        latency.mean_ms(),
        latency.max_us(),
        latency.count()
    );
    if store.failed_disks().is_empty() {
        store.verify_parity().unwrap_or_else(|e| fail(e));
        println!("parity ok after benchmark");
    }

    let spec = store.spec();
    let faults = store.fault_counters();
    let hedge_win_rate = if faults.hedged_reads == 0 {
        0.0
    } else {
        faults.hedge_wins as f64 / faults.hedged_reads as f64
    };
    let entry = json::object(|o| {
        o.str("git_rev", &git_rev())
            .int("unix_time", unix_time())
            .str("layout", &spec.to_string())
            .int("disks", spec.disks())
            .int("group", spec.group())
            .fixed("alpha", spec.alpha(), 6)
            .int("unit_bytes", store.unit_bytes())
            .int("data_units", store.data_units())
            .int("requests", requests)
            .int("access_units", access_units)
            .float("read_fraction", read_fraction)
            .int("seed", seed)
            .int("threads", pool.threads())
            .int("user_reads", reads)
            .int("user_writes", writes)
            .fixed("wall_secs", wall, 6)
            .fixed("units_per_sec", iops, 3)
            .fixed("throughput_mb_s", mb_s, 3)
            .object("latency_us", |o| {
                o.int("p50", p50)
                    .int("p95", p95)
                    .int("p99", p99)
                    .fixed("mean_ms", latency.mean_ms(), 4)
                    .int("max", latency.max_us());
            })
            .object("faults", |o| {
                o.int("media_errors", faults.media_errors)
                    .int("checksum_errors", faults.checksum_errors)
                    .int("retry_successes", faults.retry_successes)
                    .int("repaired", faults.repaired)
                    .int("escalated", faults.escalated)
                    .int("hedged_reads", faults.hedged_reads)
                    .int("hedge_wins", faults.hedge_wins)
                    .fixed("hedge_win_rate", hedge_win_rate, 4)
                    .int("demotions", faults.demotions);
            });
        let per_disk = after.iter().zip(&before).enumerate().map(|(i, (a, b))| {
            json::object(|o| {
                o.int("disk", i)
                    .int("reads", a.reads - b.reads)
                    .int("writes", a.writes - b.writes);
            })
        });
        o.array("per_disk", per_disk);
    });

    // The gate's baseline: the last run whose configuration matches.
    let config = [
        ("layout", format!("\"{spec}\"")),
        ("disks", spec.disks().to_string()),
        ("group", spec.group().to_string()),
        ("unit_bytes", store.unit_bytes().to_string()),
        ("requests", requests.to_string()),
        ("threads", pool.threads().to_string()),
        ("access_units", access_units.to_string()),
    ];
    let previous: Option<f64> = std::fs::read_to_string(&out)
        .ok()
        .and_then(|doc| json::parse(last_match(&doc, &config)?, "units_per_sec"));
    match append_entry(&out, &entry) {
        Ok(runs) => println!("appended trajectory entry to {out} ({runs} runs)"),
        Err(e) => fail(StoreError::io("write benchmark trajectory", &out, e)),
    }
    store.close().unwrap_or_else(|e| fail(e));

    if let (Some(limit), Some(prev)) = (max_regress, previous) {
        let floor = prev * (1.0 - limit);
        if iops < floor {
            eprintln!(
                "regression: {iops:.0} units/s is below {floor:.0} \
                 ({prev:.0} from the previous matching run, −{:.0}%)",
                limit * 100.0
            );
            std::process::exit(1);
        }
        println!("regression gate ok: {iops:.0} units/s vs {prev:.0} previous (floor {floor:.0})");
    } else if max_regress.is_some() {
        println!("regression gate: no previous matching run to compare against");
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        usage("missing subcommand");
    };
    if command == "--help" || command == "-h" {
        usage("");
    }
    let dir = PathBuf::from(
        args.next()
            .unwrap_or_else(|| usage("missing store directory")),
    );
    match command.as_str() {
        "mkfs" => mkfs(&dir, args),
        "fill" => fill(&dir, args),
        "bench" => bench(&dir, args),
        "fail" => fail_disk(&dir, parse(&mut args, "fail DISK")),
        "rebuild" => rebuild(&dir, args),
        "verify" => verify(&dir, args),
        "scrub" => scrub(&dir),
        "stats" => stats(&dir),
        other => usage(&format!("unknown subcommand {other}")),
    }
}
