//! Microbench for the store's wide XOR kernels
//! (`decluster_store::parity`): self-checks the kernels against a
//! byte-at-a-time reference (exits nonzero on any mismatch), then
//! reports GB/s per kernel and buffer size into
//! `results/xor_bench.json`.
//!
//! ```text
//! parity_xor [--out PATH]
//! ```
//!
//! Throughput is counted as slice bytes per kernel call (one stripe
//! unit's worth of parity work), so the numbers compare directly with
//! the store bench's MB/s. The `speedup_vs_reference` field is the
//! wide-kernel GB/s over the scalar reference at the same size.

use decluster_sim::json;
use decluster_store::parity::{xor_delta, xor_into};
use std::hint::black_box;
use std::time::Instant;

const SIZES: [usize; 3] = [4096, 64 * 1024, 1024 * 1024];

fn pattern(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

fn reference_xor(acc: &mut [u8], src: &[u8]) {
    for (a, s) in acc.iter_mut().zip(src) {
        *a ^= s;
    }
}

/// The kernels must agree with the reference at every length and
/// misalignment before their speed means anything.
fn self_check() -> bool {
    let mut ok = true;
    for len in [
        0usize, 1, 7, 8, 9, 31, 32, 33, 63, 64, 511, 4096, 4097, 65536,
    ] {
        let src = pattern(3 + len as u64, len);
        let old = pattern(5 + len as u64, len);
        let mut wide = pattern(17 + len as u64, len);
        let mut scalar = wide.clone();
        xor_into(&mut wide, &src);
        reference_xor(&mut scalar, &src);
        if wide != scalar {
            eprintln!("self-check FAILED: xor_into diverges at len {len}");
            ok = false;
        }
        let mut wide_d = pattern(23 + len as u64, len);
        let mut scalar_d = wide_d.clone();
        xor_delta(&mut wide_d, &old, &src);
        for i in 0..len {
            scalar_d[i] ^= old[i] ^ src[i];
        }
        if wide_d != scalar_d {
            eprintln!("self-check FAILED: xor_delta diverges at len {len}");
            ok = false;
        }
    }
    ok
}

/// Self-calibrating GB/s measurement: warm up ~20 ms to size the run,
/// then measure ~100 ms.
fn gb_per_s(len: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut warm: u64 = 0;
    while start.elapsed().as_millis() < 20 {
        f();
        warm += 1;
    }
    let per_iter = start.elapsed().as_secs_f64() / warm as f64;
    let iters = ((0.1 / per_iter).ceil() as u64).clamp(1, 100_000_000);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let secs = start.elapsed().as_secs_f64();
    (len as f64 * iters as f64) / (secs * 1e9)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out = "results/xor_bench.json".to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(v) => out = v,
                None => {
                    eprintln!("--out needs a value");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: parity_xor [--out PATH]");
                return;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if !self_check() {
        std::process::exit(1);
    }
    println!("# parity XOR kernels (slice bytes per call, single-sample wall clock)");
    let mut rows = Vec::new();
    for len in SIZES {
        let src = pattern(11, len);
        let old = pattern(13, len);
        let mut acc = pattern(19, len);
        let wide = gb_per_s(len, || xor_into(black_box(&mut acc), black_box(&src)));
        let delta = gb_per_s(len, || {
            xor_delta(black_box(&mut acc), black_box(&old), black_box(&src))
        });
        let scalar = gb_per_s(len, || reference_xor(black_box(&mut acc), black_box(&src)));
        println!(
            "bench xor_into/{len:<8} {wide:>8.2} GB/s   xor_delta/{len:<8} {delta:>8.2} GB/s   \
             reference/{len:<8} {scalar:>8.2} GB/s   ({:.1}x)",
            wide / scalar
        );
        rows.push((len, wide, delta, scalar));
    }
    let kernels = rows.iter().map(|&(len, wide, delta, scalar)| {
        json::object(|o| {
            o.int("bytes", len)
                .fixed("xor_into_gb_s", wide, 3)
                .fixed("xor_delta_gb_s", delta, 3)
                .fixed("reference_gb_s", scalar, 3)
                .fixed("speedup_vs_reference", wide / scalar, 3);
        })
    });
    let mut report = json::object(|o| json::entries(o.key("kernels"), kernels, "  ", ""));
    report.push('\n');
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    match std::fs::write(&out, report) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
}
