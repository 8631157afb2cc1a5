//! An M/G/1 response-time model for the fault-free and degraded array.
//!
//! The paper evaluates response times by simulation only; this module
//! supplies the corresponding textbook analysis so the two can be
//! compared (and so the simulator has an independent cross-check). Each
//! disk is modelled as an M/G/1 queue with Poisson arrivals at the
//! per-disk access rate and the service-time moments of a random access
//! (obtainable from `decluster_disk::Geometry::random_service_moments_us`);
//! waiting time follows Pollaczek–Khinchine:
//!
//! ```text
//! W = λ·E[S²] / (2·(1 − ρ)),   ρ = λ·E[S]
//! ```
//!
//! Known approximations, stated so disagreements with simulation are
//! interpretable:
//!
//! * the simulator's CVSCAN queue beats FCFS under load, so the model
//!   overestimates waiting at high utilization;
//! * a fan-out stage (parallel accesses; completion = the slowest) is
//!   approximated with a normal order statistic on the per-access
//!   response distribution;
//! * a write's two stages (pre-reads, then writes) are treated as
//!   independent fan-out stages.

use decluster_core::recon::ReconAlgorithm;

/// Service-time moments of one random disk access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceMoments {
    /// `E[S]`, milliseconds.
    pub mean_ms: f64,
    /// `E[S²]`, milliseconds².
    pub second_moment_ms2: f64,
}

impl ServiceMoments {
    /// Creates the moments, validating basic sanity (`E[S²] ≥ E[S]²`).
    ///
    /// # Panics
    ///
    /// Panics on non-positive or inconsistent moments.
    pub fn new(mean_ms: f64, second_moment_ms2: f64) -> ServiceMoments {
        assert!(mean_ms > 0.0 && mean_ms.is_finite(), "bad mean");
        assert!(
            second_moment_ms2 >= mean_ms * mean_ms,
            "E[S^2] {second_moment_ms2} below E[S]^2 {}",
            mean_ms * mean_ms
        );
        ServiceMoments {
            mean_ms,
            second_moment_ms2,
        }
    }

    /// Converts from the `(µs, µs²)` pair produced by
    /// `Geometry::random_service_moments_us`.
    pub fn from_us(m1_us: f64, m2_us2: f64) -> ServiceMoments {
        ServiceMoments::new(m1_us / 1_000.0, m2_us2 / 1_000_000.0)
    }

    /// Service-time variance, ms².
    pub fn variance_ms2(&self) -> f64 {
        self.second_moment_ms2 - self.mean_ms * self.mean_ms
    }
}

/// The M/G/1 view of one disk at a given arrival rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskQueue {
    /// Arrival rate, accesses per second.
    pub lambda_per_sec: f64,
    /// Service moments.
    pub service: ServiceMoments,
}

impl DiskQueue {
    /// Utilization `ρ = λ·E[S]`.
    pub fn utilization(&self) -> f64 {
        self.lambda_per_sec / 1_000.0 * self.service.mean_ms
    }

    /// Mean waiting time (Pollaczek–Khinchine), ms; `None` if the queue is
    /// unstable (`ρ ≥ 1`).
    pub fn wait_ms(&self) -> Option<f64> {
        let rho = self.utilization();
        if rho >= 1.0 {
            return None;
        }
        let lambda_per_ms = self.lambda_per_sec / 1_000.0;
        Some(lambda_per_ms * self.service.second_moment_ms2 / (2.0 * (1.0 - rho)))
    }

    /// Mean response of one access (wait + service), ms.
    pub fn response_ms(&self) -> Option<f64> {
        Some(self.wait_ms()? + self.service.mean_ms)
    }

    /// Response variance estimate, ms² (service variance plus an
    /// exponential-wait approximation `Var[W] ≈ W²`).
    fn response_variance_ms2(&self) -> Option<f64> {
        let w = self.wait_ms()?;
        Some(self.service.variance_ms2() + w * w)
    }

    /// Mean of the maximum of `k` independent accesses (a fan-out stage),
    /// via the expected largest of `k` normal order statistics.
    pub fn fanout_response_ms(&self, k: u16) -> Option<f64> {
        let r = self.response_ms()?;
        if k <= 1 {
            return Some(r);
        }
        let sigma = self.response_variance_ms2()?.sqrt();
        Some(r + sigma * normal_max_deviation(k))
    }
}

/// `E[max of k standard normals]`, via Blom's approximation
/// `Φ⁻¹((k − 0.375) / (k + 0.25))`.
fn normal_max_deviation(k: u16) -> f64 {
    inverse_normal_cdf((k as f64 - 0.375) / (k as f64 + 0.25))
}

/// Acklam's rational approximation to the standard normal quantile.
fn inverse_normal_cdf(p: f64) -> f64 {
    assert!((0.0..1.0).contains(&p) && p > 0.0, "p {p} outside (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

/// Predicted mean response times for the array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponsePrediction {
    /// Mean user read response, ms (`None` = a queue is unstable).
    pub read_ms: Option<f64>,
    /// Mean user write response, ms.
    pub write_ms: Option<f64>,
    /// Per-disk utilization used.
    pub utilization: f64,
}

/// Predicts fault-free response times for a `C`-disk array with stripe
/// width `G` under `rate` user accesses/s with the given read fraction.
///
/// # Panics
///
/// Panics on invalid rates or fractions.
pub fn fault_free(
    disks: u16,
    group: u16,
    rate: f64,
    read_fraction: f64,
    service: ServiceMoments,
) -> ResponsePrediction {
    assert!(rate > 0.0 && rate.is_finite(), "bad rate");
    assert!((0.0..=1.0).contains(&read_fraction), "bad read fraction");
    let c = disks as f64;
    // Each read = 1 access; each write = 4 accesses (3 for G = 3; 2 for
    // G = 2).
    let write_accesses = match group {
        2 => 2.0,
        3 => 3.0,
        _ => 4.0,
    };
    let lambda = rate * (read_fraction + (1.0 - read_fraction) * write_accesses) / c;
    let q = DiskQueue {
        lambda_per_sec: lambda,
        service,
    };
    let read_ms = q.response_ms();
    let write_ms = match group {
        // Mirror: one parallel stage of 2 writes.
        2 => q.fanout_response_ms(2),
        // G = 3 optimization: 1 pre-read stage + a 2-write stage.
        3 => (|| Some(q.response_ms()? + q.fanout_response_ms(2)?))(),
        // RMW: a 2-read stage then a 2-write stage.
        _ => (|| Some(q.fanout_response_ms(2)? * 2.0))(),
    };
    ResponsePrediction {
        read_ms,
        write_ms,
        utilization: q.utilization(),
    }
}

/// Predicts degraded-mode (one dead disk, no replacement) response times.
///
/// Survivor arrival rates are taken from the access accounting shared
/// with the Muntz & Lui model at rebuild fraction zero under the baseline
/// algorithm.
pub fn degraded(
    disks: u16,
    group: u16,
    rate: f64,
    read_fraction: f64,
    service: ServiceMoments,
) -> ResponsePrediction {
    let ml = crate::MuntzLuiModel::new(disks, group, rate, read_fraction, 1.0, 1);
    let load = ml.load_at(ReconAlgorithm::Baseline, 0.0);
    let q = DiskQueue {
        lambda_per_sec: load.survivor_rate,
        service,
    };
    let c = disks as f64;
    let g = group as f64;
    // Reads: healthy fraction is one access; 1/C of reads fan out to G−1
    // survivors.
    let read_ms = (|| {
        let normal = q.response_ms()?;
        let fanned = q.fanout_response_ms(group - 1)?;
        Some(((c - 1.0) * normal + fanned) / c)
    })();
    // Writes: (C−2)/C normal RMW; 1/C lost parity (single access); 1/C
    // lost data (G−2-read stage + parity write; ≈ a (G−2) fan-out plus one
    // access).
    let write_ms = (|| {
        let rmw = q.fanout_response_ms(2)? * 2.0;
        let lost_parity = q.response_ms()?;
        let lost_data = if group > 2 {
            q.fanout_response_ms(group - 2)? + q.response_ms()?
        } else {
            q.response_ms()?
        };
        Some(((c - 2.0) * rmw + lost_parity + lost_data) / c)
    })();
    let _ = g;
    ResponsePrediction {
        read_ms,
        write_ms,
        utilization: q.utilization(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The IBM 0661's 4 KB random-access moments (from
    /// `Geometry::random_service_moments_us`, hard-coded here to keep the
    /// crate dependency-light; the disk crate cross-checks the values by
    /// Monte-Carlo).
    fn ibm_moments() -> ServiceMoments {
        ServiceMoments::new(21.67, 516.0)
    }

    #[test]
    fn pollaczek_khinchine_basics() {
        let q = DiskQueue {
            lambda_per_sec: 5.0,
            service: ibm_moments(),
        };
        let rho = q.utilization();
        assert!((rho - 0.10835).abs() < 1e-4);
        let w = q.wait_ms().unwrap();
        // W = λE[S²]/(2(1−ρ)) = 0.005·516/(2·0.8917) ≈ 1.45 ms.
        assert!((w - 1.447).abs() < 0.01, "W = {w}");
        let r = q.response_ms().unwrap();
        assert!((r - 23.1).abs() < 0.1);
    }

    #[test]
    fn unstable_queue_returns_none() {
        let q = DiskQueue {
            lambda_per_sec: 60.0, // ρ = 1.3
            service: ibm_moments(),
        };
        assert_eq!(q.wait_ms(), None);
        assert_eq!(q.response_ms(), None);
        assert_eq!(q.fanout_response_ms(3), None);
    }

    #[test]
    fn fanout_grows_with_k_and_matches_k1() {
        let q = DiskQueue {
            lambda_per_sec: 10.0,
            service: ibm_moments(),
        };
        let r1 = q.fanout_response_ms(1).unwrap();
        assert_eq!(r1, q.response_ms().unwrap());
        let mut prev = r1;
        for k in 2..=20 {
            let rk = q.fanout_response_ms(k).unwrap();
            assert!(rk > prev, "fan-out not increasing at k={k}");
            prev = rk;
        }
    }

    #[test]
    fn inverse_normal_cdf_known_values() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.999) - 3.090232).abs() < 1e-3);
    }

    #[test]
    fn fault_free_predictions_are_ordered() {
        let m = ibm_moments();
        let p = fault_free(21, 4, 105.0, 0.5, m);
        let read = p.read_ms.unwrap();
        let write = p.write_ms.unwrap();
        assert!(read > m.mean_ms);
        assert!(write > read * 1.5, "write {write} vs read {read}");
        // Heavier load → slower.
        let p2 = fault_free(21, 4, 210.0, 0.5, m);
        assert!(p2.read_ms.unwrap() > read);
        assert!(p2.utilization > p.utilization);
    }

    #[test]
    fn degraded_reads_worse_at_higher_alpha() {
        let m = ibm_moments();
        let low = degraded(21, 4, 105.0, 1.0, m).read_ms.unwrap();
        let high = degraded(21, 21, 105.0, 1.0, m).read_ms.unwrap();
        assert!(
            high > low,
            "degraded reads: RAID 5 {high} should exceed α=0.15 {low}"
        );
    }

    #[test]
    fn g3_writes_predicted_cheaper_than_g4() {
        let m = ibm_moments();
        let g3 = fault_free(21, 3, 105.0, 0.0, m).write_ms.unwrap();
        let g4 = fault_free(21, 4, 105.0, 0.0, m).write_ms.unwrap();
        assert!(g3 < g4, "G=3 {g3} vs G=4 {g4}");
    }

    #[test]
    #[should_panic(expected = "below E[S]^2")]
    fn inconsistent_moments_panic() {
        ServiceMoments::new(10.0, 50.0);
    }
}
