//! The decluster data-plane benchmark.
//!
//! ```text
//! cargo run --release --manifest-path dpbench/Cargo.toml -- \
//!     --workload store-oltp|store-recon --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a context line (host, geometry, server config, flush policy),
//! a detail line (sample counts, tails, per-rung and per-cycle figures)
//! and, last, one JSON result: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`; `store-oltp`'s traced run
//! also serves the store over loopback for the server's per-layer
//! figures (see [`served`]). Exits 1 after printing if any
//! correctness gate failed, 2 without printing on an error. See
//! `dpbench/README.md` for the workloads and metrics.

mod gen;
mod lat;
mod oltp;
mod recon;
mod served;
mod setup;
mod trace;

use crate::lat::{Hist, Slice, Slices};
use crate::oltp::Tally;
use decluster_store::{checksum, parity, FaultCounters};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Untimed warm-up before every measured window, seconds.
pub const WARM_S: f64 = 1.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Stated with every run.
const FLUSH_POLICY: &str =
    "no FLUSH and no fdatasync from the benchmark inside a measured window; \
     the store syncs its intent bitmap on a region's first write (all set by the fill) \
     and every backing file in fail_disk and at the end of rebuild";
/// Slices of a closed-loop window; a figure is the median over slices.
pub const SLICES: usize = 20;

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("recon_s", "s"),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 41] = [
    ("fail_frac", "ratio"),
    ("served.ops_per_s", "1/s"),
    ("served.read_p50_us", "us"),
    ("served.read_p99_us", "us"),
    ("served.write_p50_us", "us"),
    ("served.write_p99_us", "us"),
    ("p50_us.lo", "us"),
    ("p99_us.lo", "us"),
    ("p50_us.hi", "us"),
    ("p99_us.hi", "us"),
    ("max_rate_ok", "1/s"),
    ("dev.read_calls_per_op", "count"),
    ("dev.write_calls_per_op", "count"),
    ("dev.sync_calls", "count"),
    ("dev.read_us_per_call", "us"),
    ("dev.write_us_per_call", "us"),
    ("dev.write_bytes_per_user_byte", "ratio"),
    ("dev.busy_frac", "ratio"),
    ("store.read_self_us", "us"),
    ("store.write_self_us", "us"),
    ("store.unit_accesses_per_read", "count"),
    ("store.unit_accesses_per_write", "count"),
    ("recon.self_s", "s"),
    ("recon.dev_busy_s", "s"),
    ("recon.survivor_reads_per_rebuilt_unit", "count"),
    ("recon.units_already_valid", "count"),
    ("parity.xor_ns_per_unit", "ns"),
    ("checksum.ns_per_unit", "ns"),
    ("health.hedged_reads", "count"),
    ("health.repairs", "count"),
    ("health.demotions", "count"),
    ("server.self_us_per_op", "us"),
    ("server.refused", "count"),
    ("server.reconnects", "count"),
    ("gen.late_p99_us", "us"),
    ("gen.inflight_max", "count"),
    ("proto.us_per_frame", "us"),
    ("trace.accounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.overhead_read_p50_frac", "ratio"),
    ("trace.overhead_write_p50_frac", "ratio"),
];

/// Per-layer metrics of the served pass, kept under their own names.
const SERVED_LAYER: [&str; 11] = [
    "p50_us.lo",
    "p99_us.lo",
    "p50_us.hi",
    "p99_us.hi",
    "max_rate_ok",
    "server.self_us_per_op",
    "server.refused",
    "server.reconnects",
    "gen.late_p99_us",
    "gen.inflight_max",
    "proto.us_per_frame",
];

/// The served pass's closed-loop figures, kept as `served.<name>`.
const SERVED_END_TO_END: [&str; 5] = [
    "ops_per_s",
    "read_p50_us",
    "read_p99_us",
    "write_p50_us",
    "write_p99_us",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    StoreOltp,
    StoreRecon,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "store-oltp" => Workload::StoreOltp,
            "store-recon" => Workload::StoreRecon,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::StoreOltp => "store-oltp",
            Workload::StoreRecon => "store-recon",
        }
    }
}

/// One pass of a workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Directory the pass's stores live in.
    pub root: PathBuf,
    pub setups: usize,
}

/// What a pass measured and found wrong.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// `"key":value` JSON members for the detail line.
    pub info: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    /// Sets the `p50` and `p99` metrics from the median over slices
    /// of each slice's quantiles of `pick`; a p99 without ten samples
    /// beyond it in every slice is a failed gate, not a number. The
    /// detail line gets the sample count and the highest supported
    /// percentile of the whole window.
    pub fn set_quantiles(
        &mut self,
        what: &str,
        slices: &Slices,
        pick: impl Fn(&Slice) -> &Hist,
        p50: &str,
        p99: &str,
    ) {
        let q50 = lat::sliced_quantile(slices, 0.5, &pick);
        let q99 = lat::sliced_quantile(slices, 0.99, &pick);
        if q99.is_none() {
            self.violations
                .push(format!("{what}: some slice does not support a p99"));
        }
        self.set(p50, q50.unwrap_or(0.0) / 1e3);
        self.set(p99, q99.unwrap_or(0.0) / 1e3);
        let all = slices.total();
        let all = pick(&all);
        let tail = all.tail().map_or("null".to_string(), |(q, v)| {
            format!("{{\"q\":{q},\"us\":{:.3}}}", v / 1e3)
        });
        self.info.push(format!(
            "\"{what}\":{{\"n\":{},\"slices\":{},\"p50_us\":{:.3},\"p99_us\":{:.3},\"tail\":{tail}}}",
            all.n(),
            slices.0.len(),
            q50.unwrap_or(0.0) / 1e3,
            q99.unwrap_or(0.0) / 1e3
        ));
    }

    pub fn latencies(&mut self, slices: &Slices) {
        self.set_quantiles("reads", slices, |s| &s.reads, "read_p50_us", "read_p99_us");
        self.set_quantiles(
            "writes",
            slices,
            |s| &s.writes,
            "write_p50_us",
            "write_p99_us",
        );
    }

    /// Attempts, failures and wrong bytes of a closed-loop tally.
    pub fn tally(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        if t.mismatches > 0 {
            self.violations
                .push(format!("{} reads returned wrong bytes", t.mismatches));
        }
        if let Some(p) = &t.first_problem {
            self.info.push(format!("\"first_problem\":{:?}", p));
        }
        self.set(
            "fail_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
    }

    pub fn health(&mut self, before: &FaultCounters, after: &FaultCounters) {
        self.set(
            "health.hedged_reads",
            (after.hedged_reads - before.hedged_reads) as f64,
        );
        self.set("health.repairs", (after.repaired - before.repaired) as f64);
        self.set(
            "health.demotions",
            (after.demotions - before.demotions) as f64,
        );
    }

    /// The device layer over a window of `ops` user requests, `writes` of
    /// them writes of one unit.
    pub fn device(&mut self, dev: &trace::DevCounts, ops: u64, writes: u64, window_s: f64) {
        use trace::Dev;
        let [rc, _, rns] = dev.all(Dev::Read);
        let [wc, wb, wns] = dev.all(Dev::Write);
        let ops = ops.max(1) as f64;
        self.set("dev.read_calls_per_op", rc as f64 / ops);
        self.set("dev.write_calls_per_op", wc as f64 / ops);
        self.set("dev.sync_calls", dev.all(Dev::Sync)[0] as f64);
        self.set("dev.read_us_per_call", rns as f64 / rc.max(1) as f64 / 1e3);
        self.set("dev.write_us_per_call", wns as f64 / wc.max(1) as f64 / 1e3);
        self.set(
            "dev.write_bytes_per_user_byte",
            wb as f64 / (writes.max(1) * setup::UNIT_BYTES as u64) as f64,
        );
        self.set(
            "dev.busy_frac",
            dev.busy_ns() as f64 / (window_s * 1e9 * nproc() as f64),
        );
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where a thread runs, set with [`pin`]. The rebuilds run on CPU 1, and
/// `store-recon`'s user and all of the served pass on CPU 0: on the 2-vCPU
/// reference host, left to migrate, `store-recon`'s write p99 spread
/// 26 % from run to run, pinned 4 %. `store-oltp`'s one worker is left
/// free: pinned, its figures spread 9–16 % instead of 5–9 %.
#[derive(Debug, Clone, Copy)]
pub enum Cpus {
    /// CPU `n` (modulo the CPUs present).
    One(usize),
    All,
}

/// Restricts the calling thread, and every thread it spawns from now
/// on, to `cpus`.
pub fn pin(cpus: Cpus) -> Result<(), String> {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let n = nproc().min(64);
    let mask: u64 = match cpus {
        Cpus::One(cpu) => 1 << (cpu % n),
        Cpus::All if n == 64 => u64::MAX,
        Cpus::All => (1 << n) - 1,
    };
    // SAFETY: pid 0 names the calling thread, and `mask` points to an
    // 8-byte CPU set that outlives the call.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) } == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity({mask:#x}): {}",
            std::io::Error::last_os_error()
        ))
    }
}

fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    format!(
        "{{\"cpu\":{cpu:?},\"nproc\":{},\"kernel\":{kernel:?}}}",
        nproc()
    )
}

/// Peak resident set of the process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds per call of `f`: the median of five ~20 ms batches.
fn calibrate(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if start.elapsed().as_secs_f64() > 0.02 {
            break;
        }
        iters *= 2;
    }
    let mut per: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per.sort_by(f64::total_cmp);
    per[2]
}

/// The parity and checksum kernels at the unit size, in isolation.
fn kernels(out: &mut Outcome) {
    let src = vec![0xA5u8; setup::UNIT_BYTES];
    let mut acc = vec![0x5Au8; setup::UNIT_BYTES];
    out.set(
        "parity.xor_ns_per_unit",
        calibrate(|| parity::xor_into(black_box(&mut acc), black_box(&src))),
    );
    out.set(
        "checksum.ns_per_unit",
        calibrate(|| {
            black_box(checksum::fingerprint64(black_box(&src)));
        }),
    );
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value} (store-oltp, store-recon)"
                ))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One pass of `run`, in the directory `name` under `root`.
fn pass(
    args: &Args,
    root: &std::path::Path,
    name: &str,
    traced: bool,
    run: fn(&Ctx) -> Result<Outcome, String>,
) -> Result<Outcome, String> {
    trace::set_on(traced);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced,
        root: root.join(name),
        setups: if args.trace { 1 } else { SETUPS },
    };
    std::fs::create_dir_all(&ctx.root)
        .map_err(|e| format!("create {}: {e}", ctx.root.display()))?;
    let out = run(&ctx);
    trace::set_on(false);
    setup::remove_dir(&ctx.root)?;
    let mut out = out?;
    if !traced {
        out.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(out)
}

/// Removes the run's data directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too unless a span trace is kept in it.
        let _ = self.0.parent().map(std::fs::remove_dir);
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    lat::self_test()?;
    let scratch = Scratch(PathBuf::from(".dpbench").join(format!("run-{}", std::process::id())));
    let w = args.workload;
    let workload: fn(&Ctx) -> Result<Outcome, String> = match w {
        Workload::StoreOltp => oltp::run,
        Workload::StoreRecon => recon::run,
    };
    let serves = args.trace && w == Workload::StoreOltp;
    println!(
        "{{\"context\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\
         \"geometry\":{{\"layout\":\"{}\",\"unit_bytes\":{},\"units_per_disk\":{},\"data_units\":{},\"alpha\":{}}},\
         \"server_config\":{},\"flush_policy\":\"{FLUSH_POLICY}\"}}}}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace,
        host_json(),
        setup::SPEC,
        setup::UNIT_BYTES,
        setup::UNITS_PER_DISK,
        setup::DATA_UNITS,
        1.0 / 3.0,
        if serves {
            served::server_config_json()
        } else {
            "null".into()
        },
    );

    let (out, metrics): (Outcome, &[(&str, &str)]) = if args.trace {
        let plain = pass(&args, &scratch.0, "plain", false, workload)?;
        let mut traced = pass(&args, &scratch.0, "traced", true, workload)?;
        std::fs::create_dir_all(".dpbench").map_err(|e| format!("create .dpbench: {e}"))?;
        let path = PathBuf::from(".dpbench").join(format!("spans-{}.jsonl", w.name()));
        let kept =
            trace::write_spans(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        traced.info.push(format!("\"spans_written\":{kept}"));
        kernels(&mut traced);
        // Tracing overhead: the traced pass against the plain one.
        let ratio = |name: &str| {
            traced.get(name).unwrap_or(0.0) / plain.get(name).unwrap_or(0.0).max(f64::MIN_POSITIVE)
                - 1.0
        };
        let (r, wr) = (ratio("read_p50_us"), ratio("write_p50_us"));
        traced.set("trace.overhead_read_p50_frac", r);
        traced.set("trace.overhead_write_p50_frac", wr);
        traced.set("trace.overhead_frac", (r + wr) / 2.0);
        let e2e = |o: &Outcome| {
            END_TO_END
                .iter()
                .map(|(n, _)| format!("\"{n}\":{}", o.get(n).unwrap_or(0.0)))
                .collect::<Vec<_>>()
                .join(",")
        };
        traced.info.push(format!(
            "\"untraced_end_to_end\":{{{}}},\"traced_end_to_end\":{{{}}}",
            e2e(&plain),
            e2e(&traced)
        ));
        traced.attempted += plain.attempted;
        traced.failed += plain.failed;
        traced.violations.extend(plain.violations);
        if serves {
            // After the spans are written: the served pass resets them.
            let served = pass(&args, &scratch.0, "served", true, served::run)?;
            for name in SERVED_LAYER {
                traced.set(name, served.get(name).unwrap_or(0.0));
            }
            for name in SERVED_END_TO_END {
                traced.set(&format!("served.{name}"), served.get(name).unwrap_or(0.0));
            }
            traced
                .info
                .push(format!("\"served\":{{{}}}", served.info.join(",")));
            traced.attempted += served.attempted;
            traced.failed += served.failed;
            traced.violations.extend(served.violations);
        }
        let fail_frac = traced.failed as f64 / traced.attempted.max(1) as f64;
        traced.set("fail_frac", fail_frac);
        (traced, &PER_LAYER)
    } else {
        (
            pass(&args, &scratch.0, "plain", false, workload)?,
            &END_TO_END,
        )
    };
    drop(scratch);

    println!(
        "{{\"detail\":{{{},\"violations\":{:?}}}}}",
        out.info.join(","),
        out.violations
    );
    let mut correct = out.violations.is_empty() && out.attempted > 0;
    let mut members = Vec::new();
    for (name, unit) in metrics {
        let v = match out.get(name) {
            Some(v) if v.is_finite() => v,
            Some(_) => {
                correct = false;
                0.0
            }
            // A per-layer metric the workload does not exercise is 0;
            // a missing end-to-end metric is a bug.
            None if !args.trace => {
                correct = false;
                0.0
            }
            None => 0.0,
        };
        members.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    for v in &out.violations {
        eprintln!("dpbench: gate failed: {v}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        members.join(",")
    );
    Ok(correct)
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("dpbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
