//! `golden.json`: what the workloads must reproduce at the default seed.
//!
//! The stream checks are analytic at every seed (the consumer's folded
//! digest against the same sum computed from the generator); the golden
//! file pins, on top of that, the inputs themselves at the default seed —
//! a changed generator, slice size or simulator result shows as a failed
//! operation, not as a silently different benchmark.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use crate::workloads::{LaunchArgs, DEFAULT_SEED};

pub struct Golden {
    values: BTreeMap<String, u64>,
    /// Keys already reported as mismatched (each is said once).
    reported: Mutex<BTreeSet<String>>,
}

/// Parse a flat JSON object of string keys and unsigned integer values —
/// all this file ever holds. (No JSON crate resolves offline.)
fn parse_flat(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let mut values = BTreeMap::new();
    for entry in body.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let (key, value) = entry.split_once(':').ok_or_else(|| format!("no ':' in {entry:?}"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted key in {entry:?}"))?;
        let value: u64 =
            value.trim().parse().map_err(|e| format!("value of {key:?} is not a u64: {e}"))?;
        if values.insert(key.to_string(), value).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
    }
    Ok(values)
}

impl Golden {
    /// Load `golden.json` from the benchmark directory. A missing or
    /// malformed file is fatal: without it nothing can be called correct.
    pub fn load() -> Golden {
        let path = crate::bench_dir().join("golden.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        match parse_flat(&text) {
            Ok(values) => Golden { values, reported: Mutex::default() },
            Err(e) => panic!("{}: {e}", path.display()),
        }
    }

    /// Whether `got` equals the golden value under `key`; a mismatch says
    /// both on stderr, which is also how the file is (re)made.
    fn matches(&self, key: &str, got: u64) -> bool {
        let want = self.values.get(key).copied();
        let mut reported = self.reported.lock().expect("a rank thread panicked");
        if want != Some(got) && reported.insert(key.to_string()) {
            eprintln!("golden mismatch: {key} is {want:?} in golden.json, this run computed {got}");
        }
        want == Some(got)
    }

    /// The folded checksum of timed slice 1 at the default seed. Other
    /// slices and seeds have no golden value (their analytic check is
    /// made by the caller) and pass.
    pub fn slice_checksum_ok(&self, a: &LaunchArgs, slice: u32, sum: u64) -> bool {
        if a.seed != DEFAULT_SEED || slice != 1 {
            return true;
        }
        self.matches(&format!("{}.slice1_checksum", a.workload.name()), sum)
    }

    /// The 32-rank Fig. 5 world's exact figures at the default seed.
    pub fn sim_facts_ok(&self, makespan_ns: u64, events: u64, msgs: u64, histogram: u64) -> bool {
        // `&`, not `&&`: report every mismatch, not just the first.
        self.matches("sim_fig5.virtual_makespan_ns", makespan_ns)
            & self.matches("sim_fig5.events_fired", events)
            & self.matches("sim_fig5.msgs_sent", msgs)
            & self.matches("sim_fig5.histogram_checksum", histogram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_objects_parse_and_junk_is_refused() {
        let m = parse_flat("{\n \"a.b\": 12,\n \"c\": 18446744073709551615\n}\n").unwrap();
        assert_eq!(m["a.b"], 12);
        assert_eq!(m["c"], u64::MAX);
        assert!(parse_flat("[1]").is_err());
        assert!(parse_flat("{\"a\": -1}").is_err());
        assert!(parse_flat("{\"a\": 1, \"a\": 2}").is_err());
        assert!(parse_flat("{a: 1}").is_err());
    }

    #[test]
    fn a_corrupted_value_is_a_mismatch() {
        let values = parse_flat("{\"sim_fig5.msgs_sent\": 13043}").unwrap();
        let g = Golden { values, reported: Mutex::default() };
        assert!(g.matches("sim_fig5.msgs_sent", 13043));
        assert!(!g.matches("sim_fig5.msgs_sent", 13044));
        assert!(!g.matches("sim_fig5.absent", 0));
    }
}
