//! `store-recon`: the paper's reconstruction mode. One closed-loop user
//! runs the same 50/50 mix while the driver repeats fail → replace →
//! rebuild(1) with a rotating victim; only the time inside `rebuild` is
//! measured. Degraded reads fan out to the G − 1 survivors and the
//! rebuild reads α of every survivor, so the parity kernel and the
//! rebuild path do the work here.

use crate::gen::Payloads;
use crate::lat;
use crate::oltp::{Tally, User};
use crate::setup::{self, DATA_UNITS, UNITS_PER_DISK, UNIT_BYTES};
use crate::trace::{self, Aggs, Dev, DevCounts, Kind};
use crate::{Cpus, Ctx, Outcome, WARM_S};
use decluster_server::Client;
use decluster_store::BlockStore;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Disks in the layout; the victim rotates over them.
const DISKS: u64 = 10;
/// Rebuild cycles of `store-oltp`'s no-load reconstruction time; with 7
/// their median spread 13 % between runs, with 15 6 %.
const IDLE_CYCLES: u64 = 15;
/// store-recon runs at least this many cycles whatever `--seconds` says.
const MIN_CYCLES: u64 = 3;

/// The admin path a cycle drives: the store in-process or the server.
pub trait Admin {
    fn fail_disk(&mut self, disk: u16) -> Result<(), String>;
    fn replace_disk(&mut self) -> Result<(), String>;
    /// Rebuilds with one worker; returns units rebuilt, already valid
    /// and unmapped.
    fn rebuild(&mut self) -> Result<[u64; 3], String>;
}

pub struct InProcess<'a>(pub &'a BlockStore);

impl Admin for InProcess<'_> {
    fn fail_disk(&mut self, disk: u16) -> Result<(), String> {
        trace::span(Kind::Admin, 0, || self.0.fail_disk(disk))
            .map_err(|e| format!("fail_disk: {e}"))
    }

    fn replace_disk(&mut self) -> Result<(), String> {
        trace::span(Kind::Admin, 0, || self.0.replace_disk())
            .map_err(|e| format!("replace_disk: {e}"))
    }

    fn rebuild(&mut self) -> Result<[u64; 3], String> {
        let r = trace::span(Kind::Rebuild, 0, || self.0.rebuild(1))
            .map_err(|e| format!("rebuild: {e}"))?;
        Ok([r.units_rebuilt, r.units_already_valid, r.units_unmapped])
    }
}

/// Over the service's admin RPCs.
impl Admin for Client {
    fn fail_disk(&mut self, disk: u16) -> Result<(), String> {
        Client::fail_disk(self, disk).map_err(|e| format!("FAIL_DISK: {e}"))
    }

    fn replace_disk(&mut self) -> Result<(), String> {
        Client::replace_disk(self).map_err(|e| format!("REPLACE_DISK: {e}"))
    }

    fn rebuild(&mut self) -> Result<[u64; 3], String> {
        let json = Client::rebuild(self, 1).map_err(|e| format!("START_REBUILD: {e}"))?;
        let field = |name: &str| -> Result<u64, String> {
            let key = format!("\"{name}\":");
            let at = json
                .find(&key)
                .ok_or_else(|| format!("rebuild report lacks {name}: {json}"))?;
            let digits: String = json[at + key.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits
                .parse()
                .map_err(|_| format!("rebuild report {name}: {json}"))
        };
        Ok([
            field("units_rebuilt")?,
            field("units_already_valid")?,
            field("units_unmapped")?,
        ])
    }
}

/// One fail → replace → rebuild cycle.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    pub wall_s: f64,
    /// Device time of the rebuild itself: calls under its span and calls
    /// on threads with no span (its worker pool, the server's executors).
    pub dev_s: f64,
    pub survivor_reads: u64,
    pub rebuilt: u64,
    pub already_valid: u64,
    /// Every device call during the rebuild, user requests' included.
    pub dev: DevCounts,
}

/// Runs one cycle; `measuring`, if given, holds `k + 1` for exactly the
/// rebuild of cycle `k`. After the rebuild the per-cycle identity and
/// the parity are checked.
pub fn cycle(
    admin: &mut impl Admin,
    store: &BlockStore,
    victim: u16,
    measuring: Option<(&AtomicUsize, usize)>,
    violations: &mut Vec<String>,
) -> Result<Cycle, String> {
    admin.fail_disk(victim)?;
    admin.replace_disk()?;
    let before = trace::dev_snapshot();
    let start = Instant::now();
    if let Some((m, k)) = measuring {
        m.store(k + 1, Ordering::SeqCst);
    }
    let counts = admin.rebuild();
    if let Some((m, _)) = measuring {
        m.store(0, Ordering::SeqCst);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let [rebuilt, already_valid, unmapped] = counts?;
    let dev = trace::dev_snapshot().since(&before);
    if rebuilt + already_valid + unmapped != UNITS_PER_DISK {
        violations.push(format!(
            "rebuild of disk {victim}: {rebuilt} rebuilt + {already_valid} already valid + \
             {unmapped} unmapped != {UNITS_PER_DISK} units per disk"
        ));
    }
    if let Err(e) = store.verify_parity() {
        violations.push(format!("verify_parity after rebuilding disk {victim}: {e}"));
    }
    let rebuild_dev = |d: Dev| {
        let (a, b) = (dev.roots(d), dev.under(d, Kind::Rebuild));
        [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
    };
    Ok(Cycle {
        wall_s,
        dev_s: [Dev::Read, Dev::Write, Dev::Sync]
            .iter()
            .map(|&d| rebuild_dev(d)[2])
            .sum::<u64>() as f64
            / 1e9,
        survivor_reads: rebuild_dev(Dev::Read)[1] / UNIT_BYTES as u64,
        rebuilt,
        already_valid,
        dev,
    })
}

fn victim(seed: u64, k: u64) -> u16 {
    ((seed + k) % DISKS) as u16
}

/// Reconstruction with no user load, [`IDLE_CYCLES`] times.
pub fn idle_cycles(
    admin: &mut impl Admin,
    store: &BlockStore,
    seed: u64,
    violations: &mut Vec<String>,
) -> Result<Vec<Cycle>, String> {
    (0..IDLE_CYCLES)
        .map(|k| cycle(admin, store, victim(seed, k), None, violations))
        .collect()
}

fn median(v: Vec<f64>) -> f64 {
    lat::median(v).unwrap_or(0.0)
}

/// `recon_s` and the `recon.*` layer metrics.
pub fn summarize(cycles: &[Cycle], out: &mut Outcome) {
    out.set("recon_s", median(cycles.iter().map(|c| c.wall_s).collect()));
    out.set(
        "recon.dev_busy_s",
        median(cycles.iter().map(|c| c.dev_s).collect()),
    );
    out.set(
        "recon.self_s",
        median(cycles.iter().map(|c| c.wall_s - c.dev_s).collect()),
    );
    let rebuilt: u64 = cycles.iter().map(|c| c.rebuilt).sum();
    let reads: u64 = cycles.iter().map(|c| c.survivor_reads).sum();
    out.set(
        "recon.survivor_reads_per_rebuilt_unit",
        reads as f64 / rebuilt.max(1) as f64,
    );
    out.set(
        "recon.units_already_valid",
        cycles.iter().map(|c| c.already_valid).sum::<u64>() as f64 / cycles.len().max(1) as f64,
    );
    out.info.push(format!(
        "\"recon_cycles\":[{}]",
        cycles
            .iter()
            .map(|c| format!("{:.6}", c.wall_s))
            .collect::<Vec<_>>()
            .join(",")
    ));
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let payloads = Payloads::new(ctx.seed, UNIT_BYTES);
    let (store, _dir, setup_s) = setup::repeated(
        &ctx.root,
        ctx.setups,
        |dir| setup::mkfs_fill(dir, ctx.seed, &payloads, ctx.traced),
        |s| s.close().map_err(|e| format!("close: {e}")),
    )?;
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);
    let mut ledger = vec![0u32; DATA_UNITS as usize];
    let measuring = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let faults_before = store.fault_counters();
    let mut violations = Vec::new();

    // The user runs on CPU 0 and the rebuild on CPU 1.
    crate::pin(Cpus::One(0))?;
    let (cycles, tally, aggs) = std::thread::scope(|s| {
        let user = s.spawn(|| {
            let mut user = User::new(&store, &payloads, &mut ledger, 0, ctx.seed);
            let mut t = Tally::default();
            let mut kept = Aggs::default();
            let mut was = 0;
            while !stop.load(Ordering::SeqCst) {
                let now = measuring.load(Ordering::SeqCst);
                // Keep only the spans of requests issued during rebuilds.
                if now != was {
                    let spans = trace::take_thread();
                    if was > 0 {
                        for (k, a) in kept.iter_mut().zip(spans) {
                            k.add(a);
                        }
                    }
                    was = now;
                }
                let done = user.step(&mut t);
                if now > 0 {
                    t.record(now - 1, &done);
                }
            }
            (t, kept)
        });
        let mut result = crate::pin(Cpus::One(1));
        std::thread::sleep(Duration::from_secs_f64(WARM_S));
        trace::reset_spans();
        let phase = Instant::now();
        let mut cycles = Vec::new();
        for k in 0.. {
            if result.is_err() {
                break;
            }
            match cycle(
                &mut InProcess(&store),
                &store,
                victim(ctx.seed, k),
                Some((&measuring, k as usize)),
                &mut violations,
            ) {
                Ok(c) => cycles.push(c),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
            if k + 1 >= MIN_CYCLES && phase.elapsed().as_secs_f64() >= ctx.seconds {
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);
        let (t, aggs) = user.join().expect("recon user thread panicked");
        result.map(|()| (cycles, t, aggs))
    })?;
    crate::pin(Cpus::All)?;
    out.violations.extend(violations);

    let window_s: f64 = cycles.iter().map(|c| c.wall_s).sum();
    let total = tally.slices.total();
    let ops = total.ops();
    out.set(
        "ops_per_s",
        lat::median(
            cycles
                .iter()
                .enumerate()
                .map(|(k, c)| tally.slices.0.get(k).map_or(0, |s| s.ops()) as f64 / c.wall_s)
                .collect(),
        )
        .unwrap_or(0.0),
    );
    let dev = cycles
        .iter()
        .fold(DevCounts::default(), |d, c| d.plus(&c.dev));
    out.device(&dev, ops, total.writes.n(), window_s);
    out.latencies(&tally.slices);
    out.tally(&tally);
    out.health(&faults_before, &store.fault_counters());
    let per = |k: Kind| {
        let a = aggs[k as usize];
        a.self_ns as f64 / a.n.max(1) as f64 / 1e3
    };
    out.set("store.read_self_us", per(Kind::Read));
    out.set("store.write_self_us", per(Kind::Write));
    summarize(&cycles, &mut out);
    setup::final_checks(store, &payloads, &ledger, &mut out.violations)?;
    Ok(out)
}
