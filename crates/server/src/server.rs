//! The TCP block server.
//!
//! Thread shape: one accept thread, one reader + one writer thread per
//! connection, and a fixed pool of executor workers shared by every
//! connection. Readers do no I/O against the store — they parse,
//! admission-check, and enqueue; workers execute against the shared
//! [`BlockStore`] and hand the encoded response to the owning
//! connection's writer channel. A connection dying at any point leaves
//! nothing stuck: its jobs still run, their tickets release on drop,
//! and their responses fail harmlessly into the closed channel.
//!
//! Degradation guarantees (the reason this crate exists):
//!
//! * **Deadlines** — a request carrying a `deadline_us` budget is
//!   answered with [`Status::Deadline`] if the budget expires while it
//!   is queued *or* while it is executing. The reply is immediate at
//!   the next check point; the server never goes silent on a request.
//! * **Admission** — past the global or per-session in-flight cap, or
//!   past the executor queue's high watermark, requests are refused
//!   with [`Status::Overloaded`] before any store work happens. The
//!   accept loop never stalls on a slow store.
//! * **Drain** — shutdown (RPC or [`Server::stop`]) flips the server
//!   into draining: new requests get [`Status::ShuttingDown`], admitted
//!   ones complete and their responses flush before sockets close.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use decluster_sim::json;
use decluster_store::{BlockStore, RebuildReport, ScrubReport, StoreError, BLOCK_BYTES};

use crate::protocol::{
    encode_response, read_frame, Opcode, RequestHeader, ResponseHeader, Status, MAX_FRAME,
    RESPONSE_HEADER_BYTES,
};
use crate::session::{lock, Admission, Session, SessionTable, Ticket};

/// Tunables for [`Server::spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; the default asks the OS for a free port on
    /// loopback ([`Server::addr`] reports what it got).
    pub addr: String,
    /// Executor worker threads shared by all connections.
    pub workers: usize,
    /// Global in-flight request cap across every session.
    pub global_inflight: usize,
    /// Per-session in-flight cap — the pipelining bound one client can
    /// reach regardless of how idle the rest of the server is.
    pub session_inflight: usize,
    /// Executor queue depth past which admitted-but-unqueued requests
    /// are shed with `Overloaded` even below the in-flight caps.
    pub queue_high: usize,
    /// Non-idempotent outcomes remembered per session for replay.
    pub replay_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            global_inflight: 256,
            session_inflight: 32,
            queue_high: 512,
            replay_cap: 1024,
        }
    }
}

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// One admitted request travelling from a reader to a worker.
struct Job {
    session: Arc<Session>,
    ticket: Ticket,
    header: RequestHeader,
    body: Vec<u8>,
    received: Instant,
    reply: Sender<Vec<u8>>,
}

struct Shared {
    store: Arc<BlockStore>,
    cfg: ServerConfig,
    addr: SocketAddr,
    sessions: SessionTable,
    admission: Arc<Admission>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    state: AtomicU8,
    /// Socket clones of live connections, for shutdown and
    /// [`Server::disconnect_all`].
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    handler_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    /// Flips running → draining (idempotent) and pokes the accept loop
    /// awake with a throwaway connection so it can observe the flip.
    fn begin_drain(&self) {
        if self
            .state
            .compare_exchange(RUNNING, DRAINING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let _ = TcpStream::connect(self.addr);
        }
    }

    fn queue_len(&self) -> usize {
        lock(&self.queue).len()
    }
}

/// A running block server. Dropping the handle abandons the threads;
/// call [`Server::stop`] for an orderly drain and store close.
pub struct Server {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and worker pool, and returns.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind.
    pub fn spawn(store: Arc<BlockStore>, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            sessions: SessionTable::new(cfg.replay_cap),
            admission: Arc::new(Admission::new(cfg.global_inflight, cfg.session_inflight)),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            state: AtomicU8::new(RUNNING),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            handler_threads: Mutex::new(Vec::new()),
            store,
            addr,
            cfg,
        });
        let worker_threads = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(&accept_shared, &listener));
        Ok(Server {
            shared,
            accept_thread: Some(accept_thread),
            worker_threads,
        })
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Whether a shutdown has begun (RPC or [`Server::begin_shutdown`]).
    pub fn draining(&self) -> bool {
        self.shared.state() != RUNNING
    }

    /// Starts a graceful shutdown without waiting for it.
    pub fn begin_shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Blocks until a shutdown has begun (e.g. via the RPC).
    pub fn wait_for_shutdown(&self) {
        while !self.draining() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Requests admitted and not yet answered, across all sessions.
    pub fn in_flight(&self) -> usize {
        self.shared.admission.in_flight()
    }

    /// Distinct sessions ever opened.
    pub fn sessions(&self) -> usize {
        self.shared.sessions.len()
    }

    /// Severs every live connection at the socket (sessions survive;
    /// clients are expected to reconnect and resume). Exists for
    /// fault-tolerance tests and for operators chasing a stuck peer.
    pub fn disconnect_all(&self) {
        for stream in lock(&self.shared.conns).values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Drains and stops the server: in-flight requests complete and
    /// their responses flush, then sockets close, threads join, and —
    /// if this handle holds the last reference — the store is closed
    /// cleanly (flushed otherwise).
    ///
    /// # Errors
    ///
    /// Returns the store's close/flush error, if any. Server threads
    /// are torn down regardless.
    pub fn stop(mut self) -> decluster_store::Result<()> {
        self.shared.begin_drain();
        // Drain: admitted work finishes. Generously bounded so a
        // wedged disk cannot hang an operator's shutdown forever.
        let drain_deadline = Instant::now() + Duration::from_secs(60);
        while (self.shared.admission.in_flight() > 0 || self.shared.queue_len() > 0)
            && Instant::now() < drain_deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.shared.state.store(STOPPED, Ordering::Release);
        self.queue_cv_notify_all();
        for worker in self.worker_threads.drain(..) {
            let _ = worker.join();
        }
        // Close sockets to kick idle readers, then join the handlers;
        // their writers have already flushed every drained response.
        self.disconnect_all();
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        // Again, now that the accept loop can no longer register a
        // connection behind our back.
        self.disconnect_all();
        let handlers: Vec<JoinHandle<()>> = lock(&self.shared.handler_threads).drain(..).collect();
        for handler in handlers {
            let _ = handler.join();
        }
        let shared = Arc::clone(&self.shared);
        drop(self);
        match Arc::try_unwrap(shared) {
            Ok(shared) => match Arc::try_unwrap(shared.store) {
                Ok(store) => store.close(),
                Err(store) => store.flush(),
            },
            Err(shared) => shared.store.flush(),
        }
    }

    fn queue_cv_notify_all(&self) {
        let _guard = lock(&self.shared.queue);
        self.shared.queue_cv.notify_all();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.state() != RUNNING {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock(&shared.conns).insert(conn_id, clone);
        }
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            handle_connection(&conn_shared, stream, conn_id);
            lock(&conn_shared.conns).remove(&conn_id);
        });
        lock(&shared.handler_threads).push(handle);
    }
}

/// Sends `status`/`body` for `req_id` down the connection's writer
/// channel; a dead connection is not an error.
fn send(reply: &Sender<Vec<u8>>, req_id: u64, status: Status, body: &[u8]) {
    let frame = encode_response(&ResponseHeader { req_id, status }, body);
    let _ = reply.send(frame);
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream, _conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let (tx, rx) = channel::<Vec<u8>>();
    let writer = std::thread::spawn(move || {
        let mut out = BufWriter::new(write_half);
        while let Ok(frame) = rx.recv() {
            if out.write_all(&frame).is_err() {
                break;
            }
            // Greedily coalesce whatever else is already queued into
            // one flush.
            let mut dead = false;
            while let Ok(next) = rx.try_recv() {
                if out.write_all(&next).is_err() {
                    dead = true;
                    break;
                }
            }
            if dead || out.flush().is_err() {
                break;
            }
        }
        // Drain and drop late responses so senders never block.
        while rx.recv().is_ok() {}
    });

    let session = run_reader(shared, &mut reader, &tx);
    drop(session);
    drop(tx);
    let _ = writer.join();
}

/// The per-connection read loop: HELLO handshake, then parse → check →
/// admit → enqueue until EOF or a fatal protocol error.
fn run_reader(
    shared: &Arc<Shared>,
    reader: &mut impl io::Read,
    tx: &Sender<Vec<u8>>,
) -> Option<Arc<Session>> {
    // The handshake: first frame must be HELLO naming the session.
    let first = match read_frame(reader) {
        Ok(Some(frame)) => frame,
        _ => return None,
    };
    let Some((header, _)) = RequestHeader::decode(&first) else {
        send(tx, 0, Status::Malformed, b"unparseable first frame");
        return None;
    };
    if header.opcode != Opcode::Hello {
        send(
            tx,
            header.req_id,
            Status::Malformed,
            b"first request must be HELLO",
        );
        return None;
    }
    let session = shared.sessions.resume(header.a);
    send(
        tx,
        header.req_id,
        Status::Ok,
        &session.epoch().to_le_bytes(),
    );

    loop {
        let frame = match read_frame(reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(_) => break,
        };
        let received = Instant::now();
        let Some((header, body)) = RequestHeader::decode(&frame) else {
            // The length prefix kept us frame-aligned, so one bad
            // request does not poison the stream: answer and continue.
            let req_id = frame
                .get(0..8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap_or_default()))
                .unwrap_or(0);
            send(tx, req_id, Status::Malformed, b"unparseable request header");
            continue;
        };
        if header.opcode == Opcode::Hello {
            // A repeated HELLO is a cheap liveness probe.
            send(
                tx,
                header.req_id,
                Status::Ok,
                &session.epoch().to_le_bytes(),
            );
            continue;
        }
        if shared.state() != RUNNING {
            send(
                tx,
                header.req_id,
                Status::ShuttingDown,
                b"server is draining",
            );
            continue;
        }
        if !header.opcode.idempotent() {
            if let Some(recorded) = session.recorded_outcome(header.req_id) {
                send(tx, header.req_id, recorded.status, &recorded.body);
                continue;
            }
        }
        let Some(ticket) = shared.admission.try_admit(&session) else {
            send(
                tx,
                header.req_id,
                Status::Overloaded,
                b"in-flight cap reached",
            );
            continue;
        };
        {
            let mut queue = lock(&shared.queue);
            if queue.len() >= shared.cfg.queue_high {
                drop(queue);
                drop(ticket);
                send(
                    tx,
                    header.req_id,
                    Status::Overloaded,
                    b"executor queue full",
                );
                continue;
            }
            queue.push_back(Job {
                session: Arc::clone(&session),
                ticket,
                header,
                body: body.to_vec(),
                received,
                reply: tx.clone(),
            });
        }
        shared.queue_cv.notify_one();
    }
    Some(session)
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.state() == STOPPED {
                    return;
                }
                queue = match shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                {
                    Ok((guard, _)) => guard,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        };
        run_job(shared, job);
    }
}

fn run_job(shared: &Arc<Shared>, job: Job) {
    let Job {
        session,
        ticket,
        header,
        body,
        received,
        reply,
    } = job;
    let due = (header.deadline_us > 0)
        .then(|| received + Duration::from_micros(header.deadline_us as u64));
    if due.is_some_and(|due| Instant::now() > due) {
        send(
            &reply,
            header.req_id,
            Status::Deadline,
            b"deadline expired while queued; not executed",
        );
        drop(ticket);
        return;
    }
    let (status, out) = if header.opcode == Opcode::Shutdown {
        shared.begin_drain();
        (Status::Ok, b"draining".to_vec())
    } else {
        execute(&shared.store, &header, &body)
    };
    // Record *before* the late-reply decision: if the deadline expired
    // mid-execution the op still ran, and a client retry must replay
    // this outcome rather than execute again.
    if !header.opcode.idempotent() {
        session.record_outcome(header.req_id, status, &out);
    }
    if due.is_some_and(|due| Instant::now() > due) {
        send(
            &reply,
            header.req_id,
            Status::Deadline,
            b"deadline expired during execution; outcome recorded for replay",
        );
    } else {
        send(&reply, header.req_id, status, &out);
    }
    drop(ticket);
}

/// Executes one data/admin request against the store.
fn execute(store: &BlockStore, header: &RequestHeader, body: &[u8]) -> (Status, Vec<u8>) {
    let block_bytes = BLOCK_BYTES as usize;
    match header.opcode {
        Opcode::Read => {
            let len = header.b as usize;
            if len == 0 || !len.is_multiple_of(block_bytes) {
                return invalid("read length must be a positive multiple of the block size");
            }
            if len + RESPONSE_HEADER_BYTES > MAX_FRAME {
                return invalid("read length exceeds the frame cap");
            }
            let blocks = (len / block_bytes) as u64;
            if header.a + blocks > store.block_count() {
                return invalid("read range past end of device");
            }
            let mut buf = vec![0u8; len];
            match store.read_blocks(header.a, &mut buf) {
                Ok(()) => (Status::Ok, buf),
                Err(e) => store_error(&e),
            }
        }
        Opcode::Write => {
            if body.is_empty() || !body.len().is_multiple_of(block_bytes) {
                return invalid("write body must be a positive multiple of the block size");
            }
            let blocks = (body.len() / block_bytes) as u64;
            if header.a + blocks > store.block_count() {
                return invalid("write range past end of device");
            }
            match store.write_blocks(header.a, body) {
                Ok(()) => (Status::Ok, Vec::new()),
                Err(e) => store_error(&e),
            }
        }
        Opcode::Flush => match store.flush() {
            Ok(()) => (Status::Ok, Vec::new()),
            Err(e) => store_error(&e),
        },
        Opcode::FailDisk => match store.fail_disk(header.a as u16) {
            Ok(()) => (Status::Ok, Vec::new()),
            Err(e) => store_error(&e),
        },
        Opcode::ReplaceDisk => match store.replace_disk() {
            Ok(()) => (Status::Ok, Vec::new()),
            Err(e) => store_error(&e),
        },
        Opcode::StartRebuild => match store.rebuild(header.a as usize) {
            Ok(report) => (Status::Ok, rebuild_json(&report).into_bytes()),
            Err(e) => store_error(&e),
        },
        Opcode::Scrub => match store.scrub(header.a != 0) {
            Ok(report) => (Status::Ok, scrub_json(&report).into_bytes()),
            Err(e) => store_error(&e),
        },
        Opcode::Stats => (Status::Ok, store.stats_snapshot().to_json().into_bytes()),
        // Hello and Shutdown are handled before execute().
        Opcode::Hello | Opcode::Shutdown => invalid("unexpected opcode"),
    }
}

fn invalid(reason: &str) -> (Status, Vec<u8>) {
    (Status::Invalid, reason.as_bytes().to_vec())
}

/// Maps a store error onto the wire: storage-layer failures (I/O,
/// exhausted redundancy) are `Media`; preconditions and bad arguments
/// are `Invalid`. The body is the error's display text either way.
fn store_error(error: &StoreError) -> (Status, Vec<u8>) {
    let status = match error {
        StoreError::Media { .. } | StoreError::Io { .. } => Status::Media,
        _ => Status::Invalid,
    };
    (status, error.to_string().into_bytes())
}

fn rebuild_json(report: &RebuildReport) -> String {
    json::object(|o| {
        o.int(
            "failed_disk",
            report.failed_disks.first().map_or(-1, |d| i64::from(*d)),
        );
        o.array("failed_disks", &report.failed_disks)
            .int("units_rebuilt", report.units_rebuilt)
            .int("units_already_valid", report.units_already_valid)
            .int("units_unmapped", report.units_unmapped)
            .fixed("alpha", report.alpha, 6)
            .fixed("wall_secs", report.wall_secs, 6)
            .array("disk_reads", &report.disk_reads)
            .array("disk_writes", &report.disk_writes)
            .array("mapped_units_per_disk", &report.mapped_units_per_disk);
    })
}

fn scrub_json(report: &ScrubReport) -> String {
    json::object(|o| {
        o.int("units_scanned", report.units_scanned)
            .int("media_errors", report.media_errors)
            .int("checksum_errors", report.checksum_errors)
            .int("repaired", report.repaired)
            .int("escalated", report.escalated);
    })
}
