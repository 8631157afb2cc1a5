//! The served pass of `store-oltp`'s traced run: the fault-free store
//! behind `Server::spawn` on loopback with the same 50/50 mix as
//! `store-oltp`, in two phases:
//!
//! * closed loop: one `Client` per worker thread, exactly as
//!   `store-oltp` drives the store in-process, so the difference between
//!   its figures (`served.*`) and `store-oltp`'s end-to-end figures is the
//!   server's cost: frame decode, admission, and the reader → executor →
//!   writer handoffs;
//! * open loop: Poisson arrivals at a fixed ladder of offered rates over
//!   one pipelined connection, a sender thread and a receiver thread
//!   speaking the public `protocol` frames; requests are timed from
//!   their scheduled send time.
//!
//! Everything runs on CPU 0, client and server alike. A request crosses
//! four threads; spread over two vCPUs, each handoff is a cross-vCPU
//! wakeup whose latency follows the hypervisor's load, and the closed
//! loop's p99 spread 20–130 % from run to run on the reference host. On
//! one vCPU a round trip is the stages' CPU work plus context switches,
//! on the same single core of work as `store-oltp`'s one worker.
//!
//! All of it is reported per layer, not gated. The open loop charges
//! every hypervisor stall (1–12 ms, 1–10 % of the time) to every request
//! due in it. The closed loop's round trip is mostly kernel work (socket
//! calls and context switches; the store's part is 3–10 µs of 20–40),
//! and on the reference host its speed flips between two levels about
//! a third apart that each last seconds to minutes, so its throughput
//! and p50 spread up to 26 % between runs, past the 25 % bound a gated
//! end-to-end metric may have.

use crate::gen::{mix, Mix, Op, Payloads, UNKNOWN};
use crate::lat::{Arrivals, Hist, Slices};
use crate::oltp::{self, io_totals, Phase, WORKERS};
use crate::recon;
use crate::setup::{self, BLOCKS_PER_UNIT, DATA_UNITS, SURVIVORS, UNIT_BYTES};
use crate::trace::{self, Aggs, DevCounts, Kind};
use crate::{Cpus, Ctx, Outcome, WARM_S};
use decluster_server::protocol::{
    encode_request, read_frame, Opcode, RequestHeader, ResponseHeader,
};
use decluster_server::{Client, ClientConfig, Server, ServerConfig, Status};
use decluster_store::{BlockStore, DiskCounters, FaultCounters};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered rates, requests per second. A closed-loop 2-client
/// `load_gen` sustains about 53k/s on the reference host (2 cores);
/// `lo` is about a quarter of that and `hi` about two thirds.
const LADDER: [f64; 6] = [13_000.0, 35_000.0, 50_000.0, 65_000.0, 80_000.0, 100_000.0];
const LO: usize = 0;
const HI: usize = 1;
/// Shares of the open-loop phase per rung; `lo` gets the most samples.
const SHARES: [f64; 6] = [3.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Slices of a rung, by due time.
const RUNG_SLICES: usize = 10;
/// Share of `--seconds` spent in the closed-loop phase, which carries
/// the `served.*` figures.
const CLOSED_SHARE: f64 = 0.7;
/// A rung passes if its p99, timed from the scheduled send, is within
/// this, nothing failed, and the sender kept up (no growing backlog).
const LIMIT_US: f64 = 1_000.0;
/// A rung whose sender falls this share of the rung behind is cut off:
/// the backlog is growing.
const CUTOFF: f64 = 0.25;
/// The server's per-session in-flight cap.
const SESSION_INFLIGHT: usize = 64;
/// The sender's cap, below the server's: the server drops a request's
/// admission ticket just after queueing its reply, so a reply can
/// arrive before its slot is free. Overload shows as lateness and
/// latency, never as refusals.
const SEND_INFLIGHT: usize = SESSION_INFLIGHT * 3 / 4;
const SESSION_ID: u64 = 0xDA7A;
const ADMIN_SESSION_ID: u64 = 0xAD31;
/// Session ids of the closed-loop clients: this and the next.
const CLOSED_SESSION_ID: u64 = 0xC10;

pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        global_inflight: 4 * SESSION_INFLIGHT,
        session_inflight: SESSION_INFLIGHT,
        queue_high: 8 * SESSION_INFLIGHT,
        replay_cap: 1024,
    }
}

pub fn server_config_json() -> String {
    let c = server_config();
    format!(
        "{{\"workers\":{},\"global_inflight\":{},\"session_inflight\":{},\"queue_high\":{},\
         \"replay_cap\":{},\"sender_inflight\":{SEND_INFLIGHT},\"deadline_us\":0}}",
        c.workers, c.global_inflight, c.session_inflight, c.queue_high, c.replay_cap
    )
}

struct Pending {
    due: Instant,
    sent: Instant,
    unit: u64,
    op: Op,
    /// Write: the version sent. Read: the last version acknowledged
    /// when the read was sent, the lowest it may return.
    version: u32,
    rung: usize,
    slice: usize,
}

/// State shared by the sender and the receiver.
struct Shared {
    pending: Mutex<HashMap<u64, Pending>>,
    inflight: AtomicUsize,
    /// Last version sent per unit.
    issued: Vec<AtomicU32>,
    /// Last version acknowledged per unit; [`UNKNOWN`] after a write
    /// whose outcome is unknown.
    acked: Vec<AtomicU32>,
    /// A write to the unit is in flight: the sender holds a second one
    /// back, so the ledger stays exact whatever order the server runs
    /// them in.
    writing: Vec<AtomicBool>,
    /// Request id of the final HELLO, once sent.
    last_id: AtomicU64,
}

/// What the receiver saw in one rung.
#[derive(Debug, Default)]
struct Rung {
    slices: Slices,
    late: Hist,
    /// Sum of receive − actual send, nanoseconds.
    observed_ns: u64,
    ok_reads: u64,
    ok_writes: u64,
    failed: u64,
    refused: u64,
    mismatches: u64,
    last: Option<Instant>,
}

/// What the sender did in one rung, with counters at its quiescent ends.
struct Sent {
    start: Instant,
    attempted: u64,
    cut_off: bool,
    inflight_max: usize,
    dev: DevCounts,
    io: (Vec<DiskCounters>, Vec<DiskCounters>),
    faults: (FaultCounters, FaultCounters),
}

fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let ahead = t - now;
        if ahead > Duration::from_micros(200) {
            std::thread::sleep(ahead - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

fn wait_idle(sh: &Shared) {
    while sh.inflight.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// Rungs run by the sender as `(rate, seconds)`: an untimed warm-up at
/// the `lo` rate, then the ladder.
fn schedule(seconds: f64) -> Vec<(f64, f64)> {
    let share = seconds / SHARES.iter().sum::<f64>();
    std::iter::once((LADDER[LO], WARM_S))
        .chain(LADDER.iter().zip(SHARES).map(|(&r, s)| (r, s * share)))
        .collect()
}

fn request(req_id: u64, opcode: Opcode, a: u64, b: u32) -> RequestHeader {
    RequestHeader {
        req_id,
        opcode,
        flags: 0,
        deadline_us: 0,
        a,
        b,
    }
}

fn sender(
    mut conn: TcpStream,
    sh: &Shared,
    store: &BlockStore,
    payloads: &Payloads,
    seed: u64,
    rungs: &[(f64, f64)],
) -> Result<(Vec<Sent>, Aggs), String> {
    let mut mix_ = Mix::new(seed ^ 0x5E4D, 0, DATA_UNITS);
    let mut body = vec![0u8; UNIT_BYTES];
    let mut req_id = 1u64;
    let mut out = Vec::with_capacity(rungs.len());
    for (r, &(rate, secs)) in rungs.iter().enumerate() {
        wait_idle(sh);
        if r == 1 {
            // Rung 0 was the warm-up.
            let _ = trace::take_thread();
        }
        let io0 = store.io_counters();
        let f0 = store.fault_counters();
        let dev0 = trace::dev_snapshot();
        let mut arrivals = Arrivals::new(mix(seed ^ ((r as u64 + 1) << 32)), rate);
        let start = Instant::now() + Duration::from_millis(1);
        let end = start + Duration::from_secs_f64(secs);
        let cutoff = end + Duration::from_secs_f64(secs * CUTOFF);
        let slice_ns = (secs * 1e9 / RUNG_SLICES as f64) as u64;
        let (mut attempted, mut cut_off, mut inflight_max) = (0, false, 0);
        loop {
            let due_ns = arrivals.next_due();
            let due = start + Duration::from_nanos(due_ns);
            if due >= end {
                break;
            }
            wait_until(due);
            while sh.inflight.load(Ordering::SeqCst) >= SEND_INFLIGHT {
                std::thread::yield_now();
            }
            let (op, unit) = mix_.next();
            let u = unit as usize;
            if op == Op::Write {
                while sh.writing[u].load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
            if Instant::now() > cutoff {
                cut_off = true;
                break;
            }
            let (opcode, b, version) = match op {
                Op::Read => (
                    Opcode::Read,
                    UNIT_BYTES as u32,
                    sh.acked[u].load(Ordering::SeqCst),
                ),
                Op::Write => {
                    let v = sh.issued[u].load(Ordering::SeqCst) + 1;
                    sh.issued[u].store(v, Ordering::SeqCst);
                    sh.writing[u].store(true, Ordering::SeqCst);
                    payloads.fill(unit, v, &mut body);
                    (Opcode::Write, 0, v)
                }
            };
            req_id += 1;
            let header = request(req_id, opcode, unit * BLOCKS_PER_UNIT, b);
            let pending = Pending {
                due,
                sent: Instant::now(),
                unit,
                op,
                version,
                rung: r,
                slice: ((due_ns / slice_ns.max(1)) as usize).min(RUNG_SLICES - 1),
            };
            sh.pending
                .lock()
                .expect("pending map lock poisoned")
                .insert(req_id, pending);
            inflight_max = inflight_max.max(sh.inflight.fetch_add(1, Ordering::SeqCst) + 1);
            attempted += 1;
            trace::span(Kind::FrameOut, 0, || {
                let frame = encode_request(&header, if op == Op::Write { &body } else { &[] });
                conn.write_all(&frame)
            })
            .map_err(|e| format!("send request: {e}"))?;
        }
        wait_idle(sh);
        out.push(Sent {
            start,
            attempted,
            cut_off,
            inflight_max,
            dev: trace::dev_snapshot().since(&dev0),
            io: (io0, store.io_counters()),
            faults: (f0, store.fault_counters()),
        });
    }
    // A HELLO is answered by the connection's reader directly: once its
    // reply arrives (after every data reply, as nothing is in flight),
    // the receiver stops.
    req_id += 1;
    sh.last_id.store(req_id, Ordering::SeqCst);
    conn.write_all(&encode_request(
        &request(req_id, Opcode::Hello, SESSION_ID, 0),
        &[],
    ))
    .map_err(|e| format!("send final HELLO: {e}"))?;
    Ok((out, trace::take_thread()))
}

/// What the receiver returns: per-rung tallies, wrong-byte reports, the
/// first failed request, and its span totals.
type Received = (Vec<Rung>, Vec<String>, Option<String>, Aggs);

fn receiver(
    conn: TcpStream,
    sh: &Shared,
    payloads: &Payloads,
    rungs: usize,
) -> Result<Received, String> {
    let mut rd = BufReader::new(conn);
    let mut out: Vec<Rung> = (0..rungs).map(|_| Rung::default()).collect();
    let mut problems = Vec::new();
    let mut first_failure = None;
    loop {
        let frame = read_frame(&mut rd)
            .map_err(|e| format!("read response: {e}"))?
            .ok_or("server closed the connection")?;
        let now = Instant::now();
        let (header, body) = trace::span(Kind::FrameIn, 0, || ResponseHeader::decode(&frame))
            .ok_or("undecodable response")?;
        let found = sh
            .pending
            .lock()
            .expect("pending map lock poisoned")
            .remove(&header.req_id);
        let Some(p) = found else {
            if header.req_id == sh.last_id.load(Ordering::SeqCst) {
                return Ok((out, problems, first_failure, trace::take_thread()));
            }
            return Err(format!("response to unknown request {}", header.req_id));
        };
        if p.rung == 1 && out[1].last.is_none() {
            // The first reply of the ladder: drop the warm-up's spans.
            let _ = trace::take_thread();
        }
        let r = &mut out[p.rung];
        let u = p.unit as usize;
        let ok = header.status == Status::Ok;
        match (header.status, p.op) {
            (Status::Ok, Op::Read) => {
                let hi = sh.issued[u].load(Ordering::SeqCst);
                let intact = payloads
                    .version_of(p.unit, body)
                    .is_some_and(|v| p.version == UNKNOWN || (p.version..=hi).contains(&v));
                if !intact {
                    r.mismatches += 1;
                    problems.push(format!(
                        "read of unit {} returned no version in [{}, {hi}]",
                        p.unit, p.version
                    ));
                }
                r.ok_reads += 1;
            }
            (Status::Ok, Op::Write) => {
                sh.acked[u].store(p.version, Ordering::SeqCst);
                r.ok_writes += 1;
            }
            (status, op) => {
                r.failed += 1;
                let refused = matches!(status, Status::Overloaded | Status::ShuttingDown);
                if refused || status == Status::Deadline {
                    r.refused += 1;
                }
                // Refused before execution leaves the unit as it was;
                // anything else may or may not have landed.
                if op == Op::Write && !refused {
                    sh.acked[u].store(UNKNOWN, Ordering::SeqCst);
                }
                first_failure
                    .get_or_insert_with(|| format!("{op:?} of unit {}: status {status:?}", p.unit));
            }
        }
        if p.op == Op::Write {
            sh.writing[u].store(false, Ordering::SeqCst);
        }
        if ok {
            r.slices
                .at(p.slice)
                .record(p.op, now.duration_since(p.due).as_nanos() as u64);
        }
        r.late
            .record(p.sent.duration_since(p.due).as_nanos() as u64);
        r.observed_ns += now.duration_since(p.sent).as_nanos() as u64;
        r.last = Some(now);
        sh.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

fn us(ns: Option<f64>) -> f64 {
    ns.unwrap_or(0.0) / 1e3
}

/// Runs the workload on CPU 0: set-up, the `Server`'s threads and the
/// generator's inherit the pin.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    crate::pin(Cpus::One(0))?;
    let out = measure(ctx);
    crate::pin(Cpus::All)?;
    out
}

fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let payloads = Payloads::new(ctx.seed, UNIT_BYTES);
    let ((store, server), _dir, setup_s) = setup::repeated(
        &ctx.root,
        ctx.setups,
        |dir| {
            let store = Arc::new(setup::mkfs_fill(dir, ctx.seed, &payloads, ctx.traced)?);
            let server = Server::spawn(Arc::clone(&store), server_config())
                .map_err(|e| format!("spawn server: {e}"))?;
            Ok((store, server))
        },
        |(store, server): (Arc<BlockStore>, Server)| {
            server.stop().map_err(|e| format!("stop server: {e}"))?;
            Arc::try_unwrap(store)
                .map_err(|_| "store still shared after server stop".to_string())?
                .close()
                .map_err(|e| format!("close: {e}"))
        },
    )?;
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);
    let addr = server.addr();
    let client = |session_id: u64| {
        Client::connect(
            &addr.to_string(),
            ClientConfig {
                session_id,
                seed: ctx.seed,
                // A refusal is a failure to count, not to hide.
                max_overload_retries: 0,
                ..ClientConfig::default()
            },
        )
        .map_err(|e| format!("connect session {session_id:#x}: {e}"))
    };

    // Closed loop: the end-to-end figures.
    let mut ledger = vec![0u32; DATA_UNITS as usize];
    let clients = (0..WORKERS as u64)
        .map(|w| client(CLOSED_SESSION_ID + w))
        .collect::<Result<Vec<_>, _>>()?;
    let closed_s = ctx.seconds * CLOSED_SHARE;
    let phase = oltp::drive(clients, &store, &payloads, &mut ledger, ctx.seed, closed_s);
    let Phase {
        tally,
        before,
        after,
        ..
    } = &phase;
    let total = tally.slices.total();
    oltp::check_cost_model(
        "served pass closed loop",
        total.reads.n(),
        total.writes.n(),
        before,
        after,
        &mut out.violations,
    );
    oltp::report(&phase, closed_s, &mut out);
    let dev = after.dev.since(&before.dev);
    out.device(&dev, total.ops(), total.writes.n(), closed_s);
    let closed_failed = out.failed;
    let reconnects: u64 = phase.targets.iter().map(Client::reconnects).sum();

    // Handshake on the data connection, then split it.
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    conn.write_all(&encode_request(
        &request(1, Opcode::Hello, SESSION_ID, 0),
        &[],
    ))
    .map_err(|e| format!("HELLO: {e}"))?;
    match read_frame(&mut conn).map_err(|e| format!("HELLO reply: {e}"))? {
        Some(f) if ResponseHeader::decode(&f).is_some_and(|(h, _)| h.status == Status::Ok) => {}
        _ => return Err("HELLO refused".into()),
    }
    let read_half = conn.try_clone().map_err(|e| format!("clone socket: {e}"))?;
    let write_half = conn.try_clone().map_err(|e| format!("clone socket: {e}"))?;

    // The open loop continues the closed loop's ledger. A unit whose
    // last closed-loop write failed restarts at a version the closed
    // loop cannot have reached.
    let sh = Shared {
        pending: Mutex::new(HashMap::new()),
        inflight: AtomicUsize::new(0),
        issued: ledger
            .iter()
            .map(|&v| AtomicU32::new(if v == UNKNOWN { 1 << 31 } else { v }))
            .collect(),
        acked: ledger.iter().map(|&v| AtomicU32::new(v)).collect(),
        writing: (0..DATA_UNITS).map(|_| AtomicBool::new(false)).collect(),
        last_id: AtomicU64::new(0),
    };
    let rungs = schedule(ctx.seconds - closed_s);
    let ((sent, tx_spans), (got, problems, first_failure, rx_spans)) = std::thread::scope(|s| {
        let rx = s.spawn(|| receiver(read_half, &sh, &payloads, rungs.len()));
        let tx = sender(write_half, &sh, &store, &payloads, ctx.seed, &rungs);
        if tx.is_err() {
            // Unblock the receiver: the run is failing anyway.
            let _ = conn.shutdown(Shutdown::Both);
        }
        let rx = rx.join().expect("receiver panicked");
        Ok::<_, String>((tx?, rx?))
    })?;
    let _ = conn.shutdown(Shutdown::Both);
    out.violations.extend(problems.into_iter().take(5));
    if let Some(f) = first_failure {
        out.info.push(format!("\"first_problem\":{f:?}"));
    }

    // Rung verdicts; rung 0 of `got` and `sent` is the warm-up.
    let (mut max_rate_ok, mut inflight_max, mut refused) = (0.0, 0, 0);
    let mut table = Vec::new();
    let mut ops = 0;
    for (i, &rate) in LADDER.iter().enumerate() {
        let (g, s) = (&got[i + 1], &sent[i + 1]);
        let all = g.slices.total();
        let mut lat = all.reads.clone();
        lat.merge(&all.writes);
        let p99 = us(lat.quantile(0.99));
        let late_p99 = us(g.late.quantile(0.99));
        let ok = g.failed == 0 && !s.cut_off && p99 <= LIMIT_US && late_p99 <= LIMIT_US;
        if ok {
            max_rate_ok = rate;
        }
        let wall = g
            .last
            .map_or(0.0, |l| l.duration_since(s.start).as_secs_f64());
        let done = g.ok_reads + g.ok_writes;
        table.push(format!(
            "{{\"rate\":{rate},\"n\":{},\"p50_us\":{:.3},\"p99_us\":{p99:.3},\"late_p99_us\":{late_p99:.3},\
             \"throughput\":{:.1},\"cut_off\":{},\"ok\":{ok}}}",
            lat.n(),
            us(lat.quantile(0.5)),
            done as f64 / wall,
            s.cut_off
        ));
        out.attempted += s.attempted;
        out.failed += g.failed;
        refused += g.refused;
        inflight_max = inflight_max.max(s.inflight_max);
        ops += done;
        if g.mismatches > 0 {
            out.violations
                .push(format!("rung {rate}/s: {} reads mismatched", g.mismatches));
        }
        // The cost model holds through the server too.
        let (r0, w0) = io_totals(&s.io.0);
        let (r1, w1) = io_totals(&s.io.1);
        let hedged = s.faults.1.hedged_reads - s.faults.0.hedged_reads;
        if g.failed == 0
            && (r1 - r0 != g.ok_reads + 2 * g.ok_writes + SURVIVORS * hedged
                || w1 - w0 != 2 * g.ok_writes)
        {
            out.violations.push(format!(
                "cost model at {rate}/s: {} disk reads / {} disk writes for {} reads, {} writes",
                r1 - r0,
                w1 - w0,
                g.ok_reads,
                g.ok_writes
            ));
        }
    }
    out.info.push(format!("\"ladder\":[{}]", table.join(",")));
    out.set("max_rate_ok", max_rate_ok);
    out.set("server.refused", refused as f64);
    out.set("gen.inflight_max", inflight_max as f64);
    out.set("fail_frac", out.failed as f64 / out.attempted.max(1) as f64);
    out.info
        .push(format!("\"closed_loop_failed\":{closed_failed}"));
    out.health(&phase.before.faults, &sent[sent.len() - 1].faults.1);

    let (lo, hi) = (&got[LO + 1], &got[HI + 1]);
    for (g, tag) in [(lo, "lo"), (hi, "hi")] {
        let mut both = Slices::default();
        for (k, s) in g.slices.0.iter().enumerate() {
            let slot = both.at(k);
            slot.reads.merge(&s.reads);
            slot.reads.merge(&s.writes);
        }
        out.set_quantiles(
            &format!("all_{tag}"),
            &both,
            |s| &s.reads,
            &format!("p50_us.{tag}"),
            &format!("p99_us.{tag}"),
        );
    }
    out.set("gen.late_p99_us", us(lo.late.quantile(0.99)));
    // The server's cost per request at `lo`: what the client observed
    // minus the device time spent on it.
    let lo_ops = (lo.ok_reads + lo.ok_writes).max(1) as f64;
    out.set(
        "server.self_us_per_op",
        (lo.observed_ns as f64 - sent[LO + 1].dev.busy_ns() as f64) / lo_ops / 1e3,
    );
    let frames = tx_spans[Kind::FrameOut as usize].dur_ns + rx_spans[Kind::FrameIn as usize].dur_ns;
    out.set(
        "proto.us_per_frame",
        frames as f64 / ops.max(1) as f64 / 1e3,
    );

    // Reconstruction with no user load, over the admin RPCs.
    let mut admin = client(ADMIN_SESSION_ID)?;
    let cycles = recon::idle_cycles(&mut admin, &store, ctx.seed, &mut out.violations)?;
    recon::summarize(&cycles, &mut out);
    out.set(
        "server.reconnects",
        (reconnects + admin.reconnects()) as f64,
    );
    drop(admin);

    server.stop().map_err(|e| format!("stop server: {e}"))?;
    let store =
        Arc::try_unwrap(store).map_err(|_| "store still shared after server stop".to_string())?;
    let ledger: Vec<u32> = sh.acked.iter().map(|a| a.load(Ordering::SeqCst)).collect();
    setup::final_checks(store, &payloads, &ledger, &mut out.violations)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spends_the_seconds() {
        let s = schedule(10.0);
        assert_eq!(s.len(), LADDER.len() + 1);
        assert_eq!(s[0], (LADDER[LO], WARM_S));
        let total: f64 = s[1..].iter().map(|r| r.1).sum();
        assert!((total - 10.0).abs() < 1e-9);
        assert!(s[1 + LO].1 > s[1 + HI].1);
    }
}
