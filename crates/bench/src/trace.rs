//! Replayable JSONL event traces for the figure binaries.
//!
//! A trace file is one JSON object per line. The first line is a
//! *header* naming the scenario that produced the trace — experiment,
//! scale, and every parameter the run needs — and the remaining lines
//! are the [`decluster_sim::Recorder`] event stream (`lat`, `disk`,
//! `recon`, and a final `dropped` marker if the bound was hit). Because
//! every simulation is a closed deterministic function of its
//! parameters, the header alone reproduces the event stream bit for
//! bit: `trace replay <file>` re-runs the scenario and verifies every
//! line matches.
//!
//! Lines are written and read through [`decluster_sim::json`].

use decluster_core::recon::ReconAlgorithm;
use decluster_experiments::{fig6, fig8, ExperimentScale};
use decluster_sim::{json, Observations, Recorder};
use std::path::Path;

/// Which figure experiment a trace records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceScenario {
    /// One [`fig6::observe_point`] run.
    Fig6 {
        /// Parity stripe width `G`.
        g: u16,
        /// User access rate (accesses/s).
        rate: f64,
        /// Read fraction of the workload.
        read_fraction: f64,
        /// Whether disk 0 was failed (degraded mode).
        degraded: bool,
    },
    /// One [`fig8::observe_point`] run.
    Fig8 {
        /// Parity stripe width `G`.
        g: u16,
        /// User access rate (accesses/s).
        rate: f64,
        /// Reconstruction algorithm.
        algorithm: ReconAlgorithm,
        /// Parallel reconstruction processes.
        processes: usize,
    },
}

/// Everything needed to reproduce a trace: the scenario, its scale, and
/// the trace-line bound it ran under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceHeader {
    /// Disk size, seeds, and simulated-time caps of the recorded run.
    pub scale: ExperimentScale,
    /// The recorded experiment and its parameters.
    pub scenario: TraceScenario,
    /// The [`Recorder`] trace-line bound the run used.
    pub trace_cap: usize,
}

impl TraceHeader {
    /// Renders the header line (stable key order).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("e", "header")
                .int("cylinders", self.scale.cylinders)
                .int("duration_secs", self.scale.duration_secs)
                .int("warmup_secs", self.scale.warmup_secs)
                .int("recon_limit_secs", self.scale.recon_limit_secs)
                .int("seed", self.scale.seed)
                .int("trace_cap", self.trace_cap);
            match self.scenario {
                TraceScenario::Fig6 {
                    g,
                    rate,
                    read_fraction,
                    degraded,
                } => o
                    .str("experiment", "fig6")
                    .int("g", g)
                    .float("rate", rate)
                    .float("read_fraction", read_fraction)
                    .bool("degraded", degraded),
                TraceScenario::Fig8 {
                    g,
                    rate,
                    algorithm,
                    processes,
                } => o
                    .str("experiment", "fig8")
                    .int("g", g)
                    .float("rate", rate)
                    .str("algorithm", algorithm.name())
                    .int("processes", processes),
            };
        })
    }

    /// Parses a header line written by [`TraceHeader::to_json`].
    pub fn from_json(line: &str) -> Result<TraceHeader, String> {
        fn get<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, String> {
            json::parse(line, key)
                .ok_or_else(|| format!("header field {key:?} is missing or malformed"))
        }
        if json::string_field(line, "e").as_deref() != Some("header") {
            return Err("first trace line is not a header".to_string());
        }
        let scale = ExperimentScale {
            cylinders: get(line, "cylinders")?,
            duration_secs: get(line, "duration_secs")?,
            warmup_secs: get(line, "warmup_secs")?,
            recon_limit_secs: get(line, "recon_limit_secs")?,
            seed: get(line, "seed")?,
        };
        let trace_cap = get(line, "trace_cap")?;
        let scenario = match json::string_field(line, "experiment").as_deref() {
            Some("fig6") => TraceScenario::Fig6 {
                g: get(line, "g")?,
                rate: get(line, "rate")?,
                read_fraction: get(line, "read_fraction")?,
                degraded: get(line, "degraded")?,
            },
            Some("fig8") => {
                let name = json::string_field(line, "algorithm")
                    .ok_or("header field \"algorithm\" is missing")?;
                let algorithm = ReconAlgorithm::ALL
                    .into_iter()
                    .find(|a| a.name() == name)
                    .ok_or_else(|| format!("unknown algorithm {name:?}"))?;
                TraceScenario::Fig8 {
                    g: get(line, "g")?,
                    rate: get(line, "rate")?,
                    algorithm,
                    processes: get(line, "processes")?,
                }
            }
            other => return Err(format!("unknown experiment {other:?}")),
        };
        Ok(TraceHeader {
            scale,
            scenario,
            trace_cap,
        })
    }
}

/// Runs the header's scenario with the trace enabled and returns the
/// observations (whose `trace` holds the JSONL lines).
///
/// # Errors
///
/// Returns an error if the scenario's parameters are invalid (unknown
/// group size, zero processes).
pub fn record(header: &TraceHeader) -> Result<Observations, decluster_core::error::Error> {
    let recorder = Recorder::new().with_trace(header.trace_cap);
    match header.scenario {
        TraceScenario::Fig6 {
            g,
            rate,
            read_fraction,
            degraded,
        } => fig6::observe_point_with(&header.scale, g, rate, read_fraction, degraded, recorder),
        TraceScenario::Fig8 {
            g,
            rate,
            algorithm,
            processes,
        } => fig8::observe_point_with(&header.scale, g, rate, algorithm, processes, recorder),
    }
}

/// Renders a trace document: the header line followed by the recorded
/// event lines, one JSON object per line, trailing newline.
pub fn render(header: &TraceHeader, obs: &Observations) -> String {
    let mut out = header.to_json();
    out.push('\n');
    for line in &obs.trace {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Records the header's scenario and writes the trace file, creating
/// parent directories.
///
/// # Errors
///
/// Returns an error string for invalid scenarios or filesystem failures.
pub fn write(path: impl AsRef<Path>, header: &TraceHeader) -> Result<usize, String> {
    let obs = record(header).map_err(|e| e.to_string())?;
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, render(header, &obs)).map_err(|e| e.to_string())?;
    Ok(obs.trace.len())
}

/// Re-runs a trace file's scenario and verifies the recorded event lines
/// match the fresh run bit for bit.
///
/// Returns the number of verified event lines.
///
/// # Errors
///
/// Returns a description of the first divergence (or a parse/run error).
pub fn verify(contents: &str) -> Result<usize, String> {
    let mut lines = contents.lines();
    let header_line = lines.next().ok_or("trace file is empty")?;
    let header = TraceHeader::from_json(header_line)?;
    let fresh = record(&header).map_err(|e| e.to_string())?;
    let mut n = 0usize;
    let mut fresh_lines = fresh.trace.iter();
    loop {
        match (lines.next(), fresh_lines.next()) {
            (None, None) => return Ok(n),
            (Some(rec), Some(new)) => {
                if rec != new {
                    return Err(format!(
                        "divergence at event line {}:\n  recorded: {rec}\n  replayed: {new}",
                        n + 1
                    ));
                }
                n += 1;
            }
            (Some(rec), None) => {
                return Err(format!("recorded trace has extra line {}: {rec}", n + 1))
            }
            (None, Some(new)) => {
                return Err(format!("replay produced extra line {}: {new}", n + 1))
            }
        }
    }
}

/// Reads a trace file and verifies it (see [`verify`]).
///
/// # Errors
///
/// Returns a description of the first divergence or I/O failure.
pub fn verify_file(path: impl AsRef<Path>) -> Result<usize, String> {
    let contents = std::fs::read_to_string(path.as_ref())
        .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
    verify(&contents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decluster_sim::json::field;

    fn tiny_fig6_header() -> TraceHeader {
        TraceHeader {
            scale: ExperimentScale::tiny(),
            scenario: TraceScenario::Fig6 {
                g: 4,
                rate: 105.0,
                read_fraction: 1.0,
                degraded: false,
            },
            trace_cap: 50_000,
        }
    }

    #[test]
    fn header_round_trips_fig6() {
        let h = tiny_fig6_header();
        assert_eq!(TraceHeader::from_json(&h.to_json()), Ok(h));
    }

    #[test]
    fn header_round_trips_fig8() {
        let h = TraceHeader {
            scale: ExperimentScale::tiny(),
            scenario: TraceScenario::Fig8 {
                g: 10,
                rate: 210.0,
                algorithm: ReconAlgorithm::Redirect,
                processes: 8,
            },
            trace_cap: 1_000,
        };
        assert_eq!(TraceHeader::from_json(&h.to_json()), Ok(h));
    }

    #[test]
    fn field_scanner_handles_strings_and_numbers() {
        let line = "{\"e\":\"header\",\"g\":4,\"rate\":105.5,\"degraded\":false}";
        assert_eq!(field(line, "e"), Some("\"header\""));
        assert_eq!(field(line, "g"), Some("4"));
        assert_eq!(field(line, "rate"), Some("105.5"));
        assert_eq!(field(line, "degraded"), Some("false"));
        assert_eq!(field(line, "missing"), None);
    }

    #[test]
    fn rejects_garbage_headers() {
        assert!(TraceHeader::from_json("{\"e\":\"lat\"}").is_err());
        assert!(TraceHeader::from_json("not json at all").is_err());
        assert!(verify("").is_err());
    }

    #[test]
    fn trace_replays_bit_for_bit() {
        let h = tiny_fig6_header();
        let obs = record(&h).unwrap();
        assert!(!obs.trace.is_empty(), "a tiny run still emits events");
        let doc = render(&h, &obs);
        assert_eq!(verify(&doc), Ok(obs.trace.len()));
    }

    #[test]
    fn tampered_trace_is_rejected() {
        let h = tiny_fig6_header();
        let obs = record(&h).unwrap();
        let mut doc = render(&h, &obs);
        // Flip one digit of the last event line.
        let flip = doc.rfind('1').or_else(|| doc.rfind('2')).unwrap();
        doc.replace_range(flip..=flip, "9");
        assert!(verify(&doc).is_err());
    }
}
