//! Append-only JSON result trajectories.
//!
//! Several binaries (`store bench`, `load_gen`) track performance over
//! time by appending one JSON object per run to a `results/*.json`
//! array, then gating on the previous matching run. Entries are written
//! and read through [`decluster_sim::json`], the workspace's one JSON
//! path; its reader also reads the entries older versions wrote with
//! other whitespace, and the single object a legacy file holds.

use decluster_sim::json;

/// Short git revision of the working tree, or `"unknown"`.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Seconds since the Unix epoch (0 if the clock is broken).
pub fn unix_time() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The last entry of the trajectory `doc` whose members equal `config`,
/// given as `(key, raw JSON value)` pairs.
pub fn last_match<'a>(doc: &'a str, config: &[(&str, String)]) -> Option<&'a str> {
    json::split_entries(doc)
        .into_iter()
        .rev()
        .find(|e| config.iter().all(|(k, v)| json::field(e, k) == Some(v)))
}

/// Appends `entry` to the trajectory array at `out` (creating parent
/// directories and converting a legacy single-object file into the
/// first entry) and returns the new run count.
///
/// # Errors
///
/// Propagates the filesystem write error.
pub fn append_entry(out: &str, entry: &str) -> std::io::Result<usize> {
    let existing = std::fs::read_to_string(out).unwrap_or_default();
    let mut entries = json::split_entries(&existing);
    entries.push(entry);
    let mut doc = String::new();
    json::entries(&mut doc, &entries, "  ", "");
    doc.push('\n');
    if let Some(parent) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(out, doc)?;
    Ok(entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use decluster_sim::json::{field, split_entries};

    #[test]
    fn split_handles_arrays_legacy_objects_and_strings() {
        assert!(split_entries("").is_empty());
        let legacy = "{\"a\": 1}\n";
        assert_eq!(split_entries(legacy).len(), 1);
        let tricky = r#"[
  {"s": "br{ace \" quote", "n": {"x": [1, 2]}},
  {"t": 2}
]"#;
        let entries = split_entries(tricky);
        assert_eq!(entries.len(), 2);
        assert!(entries[0].contains("br{ace"));
    }

    #[test]
    fn field_extracts_numbers_strings_and_nested() {
        let e = r#"{"layout": "complete_5_4", "n": 12, "obj": {"p50": 3, "arr": [1]}, "last": 9}"#;
        assert_eq!(field(e, "layout"), Some("\"complete_5_4\""));
        assert_eq!(field(e, "n"), Some("12"));
        assert_eq!(field(e, "obj"), Some(r#"{"p50": 3, "arr": [1]}"#));
        assert_eq!(field(e, "last"), Some("9"));
        assert_eq!(field(e, "missing"), None);
    }

    fn committed(name: &str) -> String {
        let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn committed_trajectories_stay_readable() {
        // (file, runs recorded when the writer changed, throughput path)
        let cases = [
            ("store_bench.json", 6, &["units_per_sec"][..]),
            (
                "server_bench.json",
                3,
                &["phases", "healthy", "units_per_sec"][..],
            ),
        ];
        for (name, runs, path) in cases {
            let doc = committed(name);
            let entries = split_entries(&doc);
            assert!(entries.len() >= runs, "{name}");
            for (i, e) in entries.iter().enumerate() {
                // The first store entry is the single-object snapshot
                // that predates the trajectory and its git_rev.
                if (name, i) != ("store_bench.json", 0) {
                    let rev = json::string_field(e, "git_rev").unwrap();
                    assert!(rev.len() >= 7, "{name} entry {i}: {rev}");
                }
                let (last, outer) = path.split_last().unwrap();
                let object = outer.iter().try_fold(*e, |o, k| field(o, k)).unwrap();
                assert!(json::parse::<f64>(object, last).unwrap() > 0.0, "{e}");
            }
        }
    }

    #[test]
    fn gate_finds_the_last_match_across_old_and_new_entries() {
        let config = |layout: &str| {
            [
                ("layout", format!("\"{layout}\"")),
                ("disks", "10".to_string()),
                ("group", "4".to_string()),
                ("unit_bytes", "4096".to_string()),
                ("requests", "800".to_string()),
                ("threads", "4".to_string()),
                ("access_units", "1".to_string()),
            ]
        };
        let store = committed("store_bench.json");
        let old = last_match(&store, &config("bibd:c10g4")).unwrap();
        assert!(json::parse::<f64>(old, "units_per_sec").is_some());
        assert!(last_match(&store, &config("raid5:c10")).is_none());

        let dir = std::env::temp_dir().join(format!("decluster-trajectory-{}", std::process::id()));
        let out = dir.join("store_bench.json");
        let out = out.to_str().unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(out, &store).unwrap();
        let entry = json::object(|o| {
            o.str("git_rev", "0000000").str("layout", "bibd:c10g4");
            for (k, v) in &config("bibd:c10g4")[1..] {
                o.raw(k, v);
            }
            o.fixed("units_per_sec", 1234.5, 3);
        });
        let runs = split_entries(&store).len();
        assert_eq!(append_entry(out, &entry).unwrap(), runs + 1);
        let mixed = std::fs::read_to_string(out).unwrap();
        let new = last_match(&mixed, &config("bibd:c10g4")).unwrap();
        assert_eq!(new, entry);
        assert_eq!(json::parse::<f64>(new, "units_per_sec"), Some(1234.5));
        // The old entries survive the rewrite byte for byte.
        assert_eq!(split_entries(&mixed)[..runs], split_entries(&store)[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
