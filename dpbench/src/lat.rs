//! Latency at sub-microsecond resolution, the quantile rule, the
//! windows a measurement is sliced into, and the open-loop arrival
//! schedule.
//!
//! Quantile rule: report the median and the highest percentile that
//! has at least [`MIN_BEYOND`] samples beyond it, with the sample count.
//! A measured window is cut into slices and a figure is the median of
//! its per-slice values, so one stalled slice does not move it.

use crate::gen::{Op, Rng};

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// Percentiles tried, highest first, by [`Hist::tail`].
const TAILS: [f64; 5] = [0.9999, 0.999, 0.99, 0.95, 0.9];

/// Sub-buckets per power of two: buckets are at most 1/128 (0.8 %) wide,
/// and exact below 128 ns.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets up to 2^40 ns (18 minutes).
const BUCKETS: usize = ((40 - SUB_BITS + 1) as usize + 1) << SUB_BITS;

/// A log-linear latency histogram in nanoseconds. Fixed size, so the
/// benchmark's own memory does not grow with the request count.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum_ns: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum_ns: 0,
        }
    }
}

fn bucket(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    (((u64::from(shift) + 1) << SUB_BITS) + ((ns >> shift) & (SUB - 1))) as usize
}

/// `[low, high)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, (i + 1) as f64);
    }
    let shift = (i >> SUB_BITS) - 1;
    let low = (SUB + (i & (SUB - 1))) << shift;
    (low as f64, (low + (1 << shift)) as f64)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns).min(BUCKETS - 1)] += 1;
        self.n += 1;
        self.sum_ns += ns;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    pub fn n(&self) -> u64 {
        self.n
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// The nearest-rank `q` quantile in nanoseconds, interpolated within
    /// its bucket; `None` unless at least [`MIN_BEYOND`] samples lie
    /// beyond it (the median needs one sample).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        if q != 0.5 && self.n - rank < MIN_BEYOND {
            return None;
        }
        let mut below = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                let (lo, hi) = bounds(i);
                return Some(lo + (hi - lo) * ((rank - below) as f64 - 0.5) / c as f64);
            }
            below += c;
        }
        None
    }

    /// The highest supported percentile: `(q, ns)`.
    pub fn tail(&self) -> Option<(f64, f64)> {
        TAILS.iter().find_map(|&q| self.quantile(q).map(|v| (q, v)))
    }
}

/// Reads and writes of one slice of a measured window.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    pub reads: Hist,
    pub writes: Hist,
}

impl Slice {
    pub fn record(&mut self, op: Op, ns: u64) {
        match op {
            Op::Read => self.reads.record(ns),
            Op::Write => self.writes.record(ns),
        }
    }

    pub fn ops(&self) -> u64 {
        self.reads.n() + self.writes.n()
    }
}

/// A measured window cut into slices.
#[derive(Debug, Clone, Default)]
pub struct Slices(pub Vec<Slice>);

impl Slices {
    pub fn at(&mut self, i: usize) -> &mut Slice {
        if self.0.len() <= i {
            self.0.resize_with(i + 1, Slice::default);
        }
        &mut self.0[i]
    }

    pub fn absorb(&mut self, other: &Slices) {
        for (i, s) in other.0.iter().enumerate() {
            let me = self.at(i);
            me.reads.merge(&s.reads);
            me.writes.merge(&s.writes);
        }
    }

    /// Every slice merged.
    pub fn total(&self) -> Slice {
        let mut t = Slice::default();
        for s in &self.0 {
            t.reads.merge(&s.reads);
            t.writes.merge(&s.writes);
        }
        t
    }
}

/// The median of `values` (the upper one of an even count).
pub fn median(mut values: Vec<f64>) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 2).copied()
}

/// The median over slices of each slice's `q` quantile of `pick`;
/// `None` if a slice cannot support it.
pub fn sliced_quantile(slices: &Slices, q: f64, pick: impl Fn(&Slice) -> &Hist) -> Option<f64> {
    let per: Option<Vec<f64>> = slices.0.iter().map(|s| pick(s).quantile(q)).collect();
    median(per?)
}

/// Poisson arrivals at `rate` per second: due times in nanoseconds from
/// the schedule's start. An open-loop request is timed from its due
/// time, so a stalled sender charges the stall to every request it
/// delayed.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: Rng,
    mean_gap_ns: f64,
    next_ns: f64,
}

impl Arrivals {
    pub fn new(seed: u64, rate: f64) -> Arrivals {
        let mut a = Arrivals {
            rng: Rng::new(seed),
            mean_gap_ns: 1e9 / rate,
            next_ns: 0.0,
        };
        a.next_ns = a.gap();
        a
    }

    fn gap(&mut self) -> f64 {
        -self.rng.unit_open().ln() * self.mean_gap_ns
    }

    pub fn next_due(&mut self) -> u64 {
        let due = self.next_ns as u64;
        self.next_ns += self.gap();
        due
    }
}

/// The quantile code and the open-loop timing rule, checked on inputs
/// with known answers. Run at start-up so a broken build cannot report.
pub fn self_test() -> Result<(), String> {
    // Buckets tile the line: every value falls inside its bucket.
    for ns in (0..5_000).chain([1 << 20, (1 << 30) + 12_345, 1 << 39]) {
        let (lo, hi) = bounds(bucket(ns));
        if !(lo <= ns as f64 && (ns as f64) < hi && hi - lo <= (lo / SUB as f64).max(1.0)) {
            return Err(format!(
                "histogram self-test: {ns} ns outside its bucket [{lo}, {hi})"
            ));
        }
    }
    let mut h = Hist::default();
    for ns in (1..=1000).rev() {
        h.record(ns);
    }
    let near =
        |got: Option<f64>, want: f64| got.is_some_and(|g| (g - want).abs() <= want / SUB as f64);
    if !near(h.quantile(0.5), 500.0) || !near(h.quantile(0.99), 990.0) {
        return Err(format!(
            "quantile self-test: p50 {:?}, p99 {:?} of 1..=1000",
            h.quantile(0.5),
            h.quantile(0.99)
        ));
    }
    // 1000 − 999 = 1 sample beyond p99.9: unsupported.
    if h.quantile(0.999).is_some() || h.tail().map(|t| t.0) != Some(0.99) {
        return Err("quantile self-test: p99.9 of 1000 samples must be unsupported".into());
    }
    let mut flat = Hist::default();
    (0..100).for_each(|_| flat.record(7));
    if flat.tail().map(|t| t.0) != Some(0.9) {
        return Err("quantile self-test: 100 samples support p90 only".into());
    }

    // Arrivals: count and mean gap near the rate.
    let mut a = Arrivals::new(3, 20_000.0);
    let dues: Vec<u64> = (0..20_000).map(|_| a.next_due()).collect();
    let span_s = *dues.last().unwrap_or(&0) as f64 / 1e9;
    if !(0.95..1.05).contains(&span_s) || dues.windows(2).any(|w| w[1] < w[0]) {
        return Err(format!(
            "arrival self-test: 20k arrivals at 20k/s span {span_s:.3}s"
        ));
    }
    // Timing from the due time: a sender stalled for 5 ms sends every
    // request due in the stall at its end. Timed from due, the stall
    // shows in the tail; timed from send (coordinated omission) every
    // request would read as the bare service time.
    let service = 10_000u64;
    let (stall_from, stall_to) = (200_000_000u64, 205_000_000u64);
    let mut from_due = Hist::default();
    for &due in &dues {
        let sent = if (stall_from..stall_to).contains(&due) {
            stall_to
        } else {
            due
        };
        from_due.record(sent + service - due);
    }
    let tail = from_due.quantile(0.999).unwrap_or(0.0);
    if tail < 2e6 {
        return Err(format!(
            "open-loop self-test: a 5 ms stall gave p99.9 {tail} ns from due"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        self_test().unwrap();
    }

    #[test]
    fn slices_report_the_median_slice() {
        let mut s = Slices::default();
        for (i, ns) in [100u64, 5_000, 110].into_iter().enumerate() {
            for _ in 0..1000 {
                s.at(i).record(Op::Read, ns);
            }
        }
        let p50 = sliced_quantile(&s, 0.5, |s| &s.reads).unwrap();
        assert!((110.0..111.0).contains(&p50));
        assert_eq!(s.total().reads.n(), 3000);
    }
}
