//! `store-oltp`: the fault-free store in-process, driven closed-loop by
//! [`WORKERS`] workers over disjoint shares of the address space. Every write
//! is the paper's 4-access read-modify-write and every read one
//! checksummed `pread`; the server does no work. The closed-loop
//! driver here also runs the served pass's closed-loop phase, with a
//! `Client` per worker in place of the in-process store.

use crate::gen::{read_ok, Mix, Op, Payloads, UNKNOWN};
use crate::lat::{self, Slices};
use crate::recon::{self, InProcess};
use crate::setup::{self, BLOCKS_PER_UNIT, DATA_UNITS, SURVIVORS, UNIT_BYTES};
use crate::trace::{self, Agg, Aggs, Dev, DevCounts, Kind};
use crate::{Cpus, Ctx, Outcome, SLICES, WARM_S};
use decluster_server::Client;
use decluster_store::{BlockStore, DiskCounters, FaultCounters};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Closed-loop workers. One: on the 2-vCPU reference host the
/// hypervisor takes about 14 % of each vCPU, in stalls of up to 12 ms,
/// while both are busy, and about 1.4 % while one is, so a second worker
/// made every figure move with the host's load.
pub const WORKERS: usize = 1;

/// Where a closed-loop user's requests go.
pub trait Target {
    fn read(&mut self, block: u64, buf: &mut [u8]) -> Result<(), String>;
    fn write(&mut self, block: u64, data: &[u8]) -> Result<(), String>;
}

impl Target for &BlockStore {
    fn read(&mut self, block: u64, buf: &mut [u8]) -> Result<(), String> {
        trace::span(Kind::Read, 0, || self.read_blocks(block, buf)).map_err(|e| e.to_string())
    }

    fn write(&mut self, block: u64, data: &[u8]) -> Result<(), String> {
        trace::span(Kind::Write, 0, || self.write_blocks(block, data)).map_err(|e| e.to_string())
    }
}

impl Target for Client {
    fn read(&mut self, block: u64, buf: &mut [u8]) -> Result<(), String> {
        let len = buf.len() as u32;
        let data = trace::span(Kind::Read, 0, || self.read_blocks(block, len))
            .map_err(|e| e.to_string())?;
        if data.len() != buf.len() {
            return Err(format!(
                "read returned {} bytes, asked {}",
                data.len(),
                buf.len()
            ));
        }
        buf.copy_from_slice(&data);
        Ok(())
    }

    fn write(&mut self, block: u64, data: &[u8]) -> Result<(), String> {
        trace::span(Kind::Write, 0, || self.write_blocks(block, data)).map_err(|e| e.to_string())
    }
}

/// What one closed-loop thread saw in the measured window.
#[derive(Debug, Default)]
pub struct Tally {
    pub slices: Slices,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub first_problem: Option<String>,
}

impl Tally {
    fn problem(&mut self, what: String) {
        self.first_problem.get_or_insert(what);
    }

    /// Counts a finished request into slice `slice`; only successful
    /// ones have a latency.
    pub fn record(&mut self, slice: usize, done: &Done) {
        self.attempted += 1;
        if done.ok {
            self.slices.at(slice).record(done.op, done.ns);
        } else {
            self.failed += 1;
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.slices.absorb(&other.slices);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        if let Some(p) = other.first_problem {
            self.problem(p);
        }
    }
}

/// One finished request.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub op: Op,
    pub start: Instant,
    pub ns: u64,
    pub ok: bool,
}

/// One closed-loop user: the request mix over the units it owns, with
/// the ledger of their versions.
pub struct User<'a, T> {
    target: T,
    payloads: &'a Payloads,
    ledger: &'a mut [u32],
    first_unit: u64,
    mix: Mix,
    version: u32,
    buf: Vec<u8>,
}

impl<'a, T: Target> User<'a, T> {
    /// A user owning `ledger`, the versions of units from `first_unit`.
    pub fn new(
        target: T,
        payloads: &'a Payloads,
        ledger: &'a mut [u32],
        first_unit: u64,
        seed: u64,
    ) -> User<'a, T> {
        let units = ledger.len() as u64;
        User {
            target,
            payloads,
            ledger,
            first_unit,
            mix: Mix::new(seed ^ first_unit, first_unit, first_unit + units),
            version: 0,
            buf: vec![0u8; UNIT_BYTES],
        }
    }

    /// Issues one request. The payload is built before the clock starts
    /// and a read is checked after it stops; a wrong byte or an error is
    /// noted in `t` whether or not the request is recorded.
    pub fn step(&mut self, t: &mut Tally) -> Done {
        let (op, unit) = self.mix.next();
        let slot = (unit - self.first_unit) as usize;
        let block = unit * BLOCKS_PER_UNIT;
        if op == Op::Write {
            self.version += 1;
            self.payloads.fill(unit, self.version, &mut self.buf);
        }
        let start = Instant::now();
        let res = match op {
            Op::Read => self.target.read(block, &mut self.buf),
            Op::Write => self.target.write(block, &self.buf),
        };
        let ns = start.elapsed().as_nanos() as u64;
        match (&res, op) {
            (Ok(()), Op::Read) => {
                if !read_ok(self.payloads, unit, self.ledger[slot], &self.buf) {
                    t.mismatches += 1;
                    t.problem(format!(
                        "read of unit {unit} does not match its ledger version"
                    ));
                }
            }
            (Ok(()), Op::Write) => self.ledger[slot] = self.version,
            (Err(e), _) => {
                if op == Op::Write {
                    self.ledger[slot] = UNKNOWN;
                }
                t.problem(format!("{op:?} of unit {unit}: {e}"));
            }
        }
        Done {
            op,
            start,
            ns,
            ok: res.is_ok(),
        }
    }
}

/// Reads + writes per disk summed over the array.
pub fn io_totals(io: &[DiskCounters]) -> (u64, u64) {
    io.iter()
        .fold((0, 0), |(r, w), d| (r + d.reads, w + d.writes))
}

/// Counters at a quiescent point of a closed-loop phase.
pub struct Snap {
    pub io: Vec<DiskCounters>,
    pub faults: FaultCounters,
    pub dev: DevCounts,
    pub at: Instant,
}

impl Snap {
    pub fn take(store: &BlockStore) -> Snap {
        Snap {
            io: store.io_counters(),
            faults: store.fault_counters(),
            dev: trace::dev_snapshot(),
            at: Instant::now(),
        }
    }
}

/// A closed-loop phase's results, with its targets handed back.
pub struct Phase<T> {
    pub tally: Tally,
    pub aggs: Aggs,
    pub before: Snap,
    pub after: Snap,
    pub targets: Vec<T>,
}

/// Runs one closed-loop user per target over equal shares of `ledger`:
/// an untimed warm-up, then `seconds` measured in [`SLICES`] slices.
/// Counters are snapshotted while every user waits at a barrier.
pub fn drive<T: Target + Send>(
    targets: Vec<T>,
    store: &BlockStore,
    payloads: &Payloads,
    ledger: &mut [u32],
    seed: u64,
    seconds: f64,
) -> Phase<T> {
    let share = ledger.len().div_ceil(targets.len());
    let barrier = Barrier::new(targets.len() + 1);
    let window: OnceLock<(Instant, Instant)> = OnceLock::new();
    let (results, before) = std::thread::scope(|s| {
        let handles: Vec<_> = ledger
            .chunks_mut(share)
            .zip(targets)
            .enumerate()
            .map(|(w, (units, target))| {
                let (barrier, window) = (&barrier, &window);
                s.spawn(move || {
                    let mut user = User::new(target, payloads, units, (w * share) as u64, seed);
                    let mut t = Tally::default();
                    let warm_end = Instant::now() + Duration::from_secs_f64(WARM_S);
                    while Instant::now() < warm_end {
                        user.step(&mut t);
                    }
                    barrier.wait();
                    let _ = trace::take_thread();
                    barrier.wait();
                    let (start, end) = *window.get().expect("window set before the second barrier");
                    let slice = (end - start) / SLICES as u32;
                    while Instant::now() < end {
                        let done = user.step(&mut t);
                        let i = (done.start - start).as_nanos() / slice.as_nanos();
                        t.record((i as usize).min(SLICES - 1), &done);
                    }
                    (t, trace::take_thread(), user.target)
                })
            })
            .collect();
        barrier.wait();
        trace::reset_spans();
        let before = Snap::take(store);
        window
            .set((before.at, before.at + Duration::from_secs_f64(seconds)))
            .expect("window set once");
        barrier.wait();
        let results: Vec<(Tally, Aggs, T)> = handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop worker panicked"))
            .collect();
        (results, before)
    });
    let after = Snap::take(store);
    let mut tally = Tally::default();
    let mut aggs = Aggs::default();
    let mut targets = Vec::new();
    for (t, a, target) in results {
        tally.absorb(t);
        for (x, y) in aggs.iter_mut().zip(a) {
            x.add(y);
        }
        targets.push(target);
    }
    Phase {
        tally,
        aggs,
        before,
        after,
        targets,
    }
}

/// The paper's cost model, exactly: a read is one access, a small write
/// four (old data, old parity, new data, new parity), and a hedged read
/// adds the G − 1 reads of its reconstruction.
pub fn check_cost_model(
    what: &str,
    reads: u64,
    writes: u64,
    before: &Snap,
    after: &Snap,
    violations: &mut Vec<String>,
) {
    let hedged = after.faults.hedged_reads - before.faults.hedged_reads;
    let (r0, w0) = io_totals(&before.io);
    let (r1, w1) = io_totals(&after.io);
    let (disk_reads, disk_writes) = (r1 - r0, w1 - w0);
    let (want_reads, want_writes) = (reads + 2 * writes + SURVIVORS * hedged, 2 * writes);
    if disk_reads != want_reads || disk_writes != want_writes {
        violations.push(format!(
            "cost model, {what}: {disk_reads} disk reads / {disk_writes} disk writes for {reads} reads, \
             {writes} writes, {hedged} hedged reads (want {want_reads} / {want_writes})"
        ));
    }
}

/// The end-to-end figures of a closed-loop phase: throughput and
/// latency quantiles as medians over slices, and its failures.
pub fn report<T>(phase: &Phase<T>, seconds: f64, out: &mut Outcome) {
    let slice_s = seconds / SLICES as f64;
    let per_slice = phase
        .tally
        .slices
        .0
        .iter()
        .map(|s| s.ops() as f64 / slice_s)
        .collect();
    out.set("ops_per_s", lat::median(per_slice).unwrap_or(0.0));
    out.latencies(&phase.tally.slices);
    out.tally(&phase.tally);
    out.health(&phase.before.faults, &phase.after.faults);
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
    let phase = drive(
        vec![&store; WORKERS],
        &store,
        &payloads,
        &mut ledger,
        ctx.seed,
        ctx.seconds,
    );
    let Phase {
        tally,
        aggs,
        before,
        after,
        ..
    } = &phase;

    let total = tally.slices.total();
    let (reads, writes) = (total.reads.n(), total.writes.n());
    check_cost_model(
        "store-oltp",
        reads,
        writes,
        before,
        after,
        &mut out.violations,
    );
    if let Err(e) = store.verify_parity() {
        out.violations
            .push(format!("verify_parity after the window: {e}"));
    }

    report(&phase, ctx.seconds, &mut out);
    let dev = after.dev.since(&before.dev);
    out.device(&dev, reads + writes, writes, ctx.seconds);
    let per = |agg: Agg| agg.self_ns as f64 / agg.n.max(1) as f64 / 1e3;
    out.set("store.read_self_us", per(aggs[Kind::Read as usize]));
    out.set("store.write_self_us", per(aggs[Kind::Write as usize]));
    let accesses = |parent: Kind| {
        (dev.under(Dev::Read, parent)[1] + dev.under(Dev::Write, parent)[1]) as f64
            / UNIT_BYTES as f64
    };
    out.set(
        "store.unit_accesses_per_read",
        accesses(Kind::Read) / reads.max(1) as f64,
    );
    out.set(
        "store.unit_accesses_per_write",
        accesses(Kind::Write) / writes.max(1) as f64,
    );
    let span_ns = aggs[Kind::Read as usize].dur_ns + aggs[Kind::Write as usize].dur_ns;
    let observed_ns = total.reads.sum_ns() + total.writes.sum_ns();
    out.set(
        "trace.accounted_frac",
        span_ns as f64 / observed_ns.max(1) as f64,
    );

    // Reconstruction with no user load, on the CPU store-recon's
    // rebuilds use: the floor its loaded rebuilds are compared against.
    crate::pin(Cpus::One(1))?;
    let cycles = recon::idle_cycles(
        &mut InProcess(&store),
        &store,
        ctx.seed,
        &mut out.violations,
    )?;
    recon::summarize(&cycles, &mut out);
    crate::pin(Cpus::All)?;

    setup::final_checks(store, &payloads, &ledger, &mut out.violations)?;
    Ok(out)
}
