//! Spans recorded from the benchmark's own files, around each call into
//! a layer: `BlockStore` calls and protocol frames from the generator
//! threads, and every backend call through [`Traced`], the `DiskBackend`
//! the traced run installs under the store.
//!
//! A span's parent is the span open on the same thread when it started,
//! so a backend call made inside `read_blocks` is that request's child;
//! one made on a thread with no open span (the rebuild pool, the
//! server's executors) is a root. Self time is a span's duration minus
//! the time its children cover. Aggregates are exact over every span;
//! the first [`KEEP`] raw spans after [`reset_spans`] are kept in memory
//! and written out by [`write_spans`] at the end.

use decluster_store::{DiskBackend, FileBackend};
use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Raw spans kept for the written trace.
const KEEP: usize = 100_000;

/// What a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
    Rebuild,
    Admin,
    FrameOut,
    FrameIn,
    DevRead,
    DevWrite,
    DevSync,
}

/// Span kinds opened by the generator threads (the rest are device calls).
pub const REQUEST_KINDS: usize = 6;
/// Parent slots of the device counters: none, then each request kind.
const PARENTS: usize = REQUEST_KINDS + 1;

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Read => "store.read_blocks",
            Kind::Write => "store.write_blocks",
            Kind::Rebuild => "store.rebuild",
            Kind::Admin => "store.admin",
            Kind::FrameOut => "protocol.send_frame",
            Kind::FrameIn => "protocol.decode_frame",
            Kind::DevRead => "backend.read_at",
            Kind::DevWrite => "backend.write_at",
            Kind::DevSync => "backend.sync",
        }
    }

    fn device(self) -> Option<usize> {
        match self {
            Kind::DevRead => Some(0),
            Kind::DevWrite => Some(1),
            Kind::DevSync => Some(2),
            _ => None,
        }
    }
}

/// Device call kinds, as indexed in [`DevCounts`].
#[derive(Debug, Clone, Copy)]
pub enum Dev {
    Read = 0,
    Write = 1,
    Sync = 2,
}

/// Per-kind totals of the spans one thread closed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub n: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn add(&mut self, other: Agg) {
        self.n += other.n;
        self.dur_ns += other.dur_ns;
        self.self_ns += other.self_ns;
    }
}

pub type Aggs = [Agg; REQUEST_KINDS];

#[derive(Debug, Clone, Copy)]
struct Open {
    id: u64,
    kind: Kind,
    child_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Rec {
    id: u64,
    parent: u64,
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
/// `[parent][device kind][calls, bytes, ns]`, flattened.
static DEV: [AtomicU64; PARENTS * 9] = [const { AtomicU64::new(0) }; PARENTS * 9];
static KEPT: AtomicUsize = AtomicUsize::new(0);
static SPANS: Mutex<Vec<Rec>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: Cell<Option<Open>> = const { Cell::new(None) };
    static AGG: RefCell<Aggs> = const { RefCell::new([Agg { n: 0, dur_ns: 0, self_ns: 0 }; REQUEST_KINDS]) };
    static IDS: Cell<u64> = Cell::new(NEXT_THREAD.fetch_add(1, Relaxed) << 40);
}

pub fn set_on(on: bool) {
    ON.store(on, Relaxed);
}

fn on() -> bool {
    ON.load(Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span of `kind`; `bytes` is the payload size of a
/// device call. Free (one relaxed load) when tracing is off.
pub fn span<T>(kind: Kind, bytes: u64, f: impl FnOnce() -> T) -> T {
    if !on() {
        return f();
    }
    let id = IDS.with(|c| {
        let id = c.get() + 1;
        c.set(id);
        id
    });
    let parent = OPEN.with(|o| {
        o.replace(Some(Open {
            id,
            kind,
            child_ns: 0,
        }))
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    let dur = end_ns - start_ns;
    let me = OPEN.with(|o| {
        o.replace(parent.map(|p| Open {
            child_ns: p.child_ns + dur,
            ..p
        }))
    });
    let child_ns = me.map_or(0, |m| m.child_ns).min(dur);
    match kind.device() {
        Some(d) => {
            let slot = parent.map_or(0, |p| p.kind as usize + 1);
            let base = (slot * 3 + d) * 3;
            DEV[base].fetch_add(1, Relaxed);
            DEV[base + 1].fetch_add(bytes, Relaxed);
            DEV[base + 2].fetch_add(dur, Relaxed);
        }
        None => AGG.with(|a| {
            a.borrow_mut()[kind as usize].add(Agg {
                n: 1,
                dur_ns: dur,
                self_ns: dur - child_ns,
            })
        }),
    }
    if KEPT.load(Relaxed) < KEEP && KEPT.fetch_add(1, Relaxed) < KEEP {
        let rec = Rec {
            id,
            parent: parent.map_or(0, |p| p.id),
            kind,
            start_ns,
            end_ns,
        };
        SPANS.lock().expect("span buffer lock poisoned").push(rec);
    }
    out
}

/// Returns and clears this thread's request-span totals.
pub fn take_thread() -> Aggs {
    AGG.with(|a| std::mem::take(&mut *a.borrow_mut()))
}

/// Drops the raw spans kept so far (the warm-up's).
pub fn reset_spans() {
    SPANS.lock().expect("span buffer lock poisoned").clear();
    KEPT.store(0, Relaxed);
}

/// Writes the kept spans as JSON lines; returns how many.
pub fn write_spans(path: &Path) -> io::Result<usize> {
    let spans = SPANS.lock().expect("span buffer lock poisoned");
    let mut out = io::BufWriter::new(File::create(path)?);
    for s in spans.iter() {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            s.kind.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()?;
    Ok(spans.len())
}

/// A snapshot of the device counters; subtract two for a window.
#[derive(Debug, Clone, Copy)]
pub struct DevCounts([u64; PARENTS * 9]);

impl Default for DevCounts {
    fn default() -> DevCounts {
        DevCounts([0; PARENTS * 9])
    }
}

pub fn dev_snapshot() -> DevCounts {
    DevCounts(std::array::from_fn(|i| DEV[i].load(Relaxed)))
}

impl DevCounts {
    pub fn since(&self, earlier: &DevCounts) -> DevCounts {
        DevCounts(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }

    pub fn plus(&self, other: &DevCounts) -> DevCounts {
        DevCounts(std::array::from_fn(|i| self.0[i] + other.0[i]))
    }

    /// `[calls, bytes, ns]` of `dev` calls under parents `slots`.
    fn sum(&self, dev: Dev, slots: impl Iterator<Item = usize>) -> [u64; 3] {
        let mut t = [0; 3];
        for slot in slots {
            let base = (slot * 3 + dev as usize) * 3;
            for (k, v) in t.iter_mut().enumerate() {
                *v += self.0[base + k];
            }
        }
        t
    }

    /// All `dev` calls: `[calls, bytes, ns]`.
    pub fn all(&self, dev: Dev) -> [u64; 3] {
        self.sum(dev, 0..PARENTS)
    }

    /// `dev` calls made inside a span of `parent`.
    pub fn under(&self, dev: Dev, parent: Kind) -> [u64; 3] {
        self.sum(dev, std::iter::once(parent as usize + 1))
    }

    /// `dev` calls made on threads with no open span.
    pub fn roots(&self, dev: Dev) -> [u64; 3] {
        self.sum(dev, std::iter::once(0))
    }

    /// Busy time of every device call, nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        [Dev::Read, Dev::Write, Dev::Sync]
            .iter()
            .map(|&d| self.all(d)[2])
            .sum()
    }
}

/// The traced run's backend: [`FileBackend`] with every call in a span.
#[derive(Debug)]
pub struct Traced(FileBackend);

impl DiskBackend for Traced {
    fn read_at(&self, buf: &mut [u8], pos: u64) -> io::Result<()> {
        span(Kind::DevRead, buf.len() as u64, || self.0.read_at(buf, pos))
    }

    fn write_at(&self, data: &[u8], pos: u64) -> io::Result<()> {
        span(Kind::DevWrite, data.len() as u64, || {
            self.0.write_at(data, pos)
        })
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        span(Kind::DevSync, 0, || self.0.sync())
    }
}

/// A [`decluster_store::BackendFactory`] installing [`Traced`].
pub fn traced_backend(_disk: u16, file: File) -> Box<dyn DiskBackend> {
    Box::new(Traced(FileBackend::new(file)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_subtracted_from_self_time() {
        set_on(true);
        let before = dev_snapshot();
        let _ = take_thread();
        span(Kind::Read, 0, || {
            span(Kind::DevRead, 4096, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let aggs = take_thread();
        let dev = dev_snapshot().since(&before);
        let read = aggs[Kind::Read as usize];
        let [calls, bytes, ns] = dev.under(Dev::Read, Kind::Read);
        assert_eq!((read.n, calls, bytes), (1, 1, 4096));
        assert!(ns >= 5_000_000);
        assert_eq!(read.self_ns + ns, read.dur_ns);
        set_on(false);
    }
}
