//! JSON serialization of observability [`Report`]s: the phase-report object
//! the smoke counter probe (`carve-bench`'s `smoke` module) emits per
//! workload:
//!
//! ```json
//! {
//!   "ranks": 2,
//!   "phases": {
//!     "matvec/leaf": {
//!       "calls": 96,
//!       "ranks": 2,
//!       "secs": { "min": 0.001, "mean": 0.002, "max": 0.003 },
//!       "counters": { "leaves": 96 }
//!     }
//!   }
//! }
//! ```
//!
//! Phases and counters are `BTreeMap`-ordered on the Rust side and written
//! in that order, so the output is deterministic modulo the `secs` values.

use crate::json::Json;
use carve_obs::Report;

fn num(x: u64) -> Json {
    // u64 counters in this workspace stay far below 2^53, where f64 is exact.
    Json::Num(x as f64)
}

/// Encodes a [`Report`] as a phase-report object.
pub fn report_to_json(report: &Report) -> Json {
    let phases = report
        .phases
        .iter()
        .map(|(path, p)| {
            let secs = Json::Obj(vec![
                ("min".into(), Json::Num(p.secs.min)),
                ("mean".into(), Json::Num(p.secs.mean)),
                ("max".into(), Json::Num(p.secs.max)),
            ]);
            let counters = Json::Obj(
                p.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), num(*v)))
                    .collect(),
            );
            let obj = Json::Obj(vec![
                ("calls".into(), num(p.calls)),
                ("ranks".into(), num(p.ranks)),
                ("secs".into(), secs),
                ("counters".into(), counters),
            ]);
            (path.clone(), obj)
        })
        .collect();
    Json::Obj(vec![
        ("ranks".into(), num(report.ranks)),
        ("phases".into(), Json::Obj(phases)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use carve_obs::{aggregate, PhaseStats, Snapshot};
    use std::collections::BTreeMap;

    fn sample_report() -> Report {
        let mk = |secs: f64, calls: u64, bytes: u64| {
            let mut s = Snapshot::default();
            s.phases.insert(
                "matvec".into(),
                PhaseStats {
                    calls,
                    secs: secs * 3.0,
                    counters: BTreeMap::new(),
                },
            );
            s.phases.insert(
                "matvec/leaf".into(),
                PhaseStats {
                    calls: calls * 8,
                    secs,
                    counters: BTreeMap::from([("leaves".to_string(), calls * 8)]),
                },
            );
            s.phases.insert(
                "ghost_read".into(),
                PhaseStats {
                    calls,
                    secs: secs / 2.0,
                    counters: BTreeMap::from([("bytes_sent".to_string(), bytes)]),
                },
            );
            s
        };
        aggregate(&[mk(0.25, 3, 1024), mk(0.5, 4, 2048)])
    }

    #[test]
    fn report_encodes_every_phase_and_counter() {
        let report = sample_report();
        let text = report_to_json(&report).to_string_pretty();
        let j = Json::parse(&text).expect("valid JSON");
        assert_eq!(j.get("ranks").and_then(Json::as_f64), Some(2.0));
        for (path, p) in &report.phases {
            let pj = j.get("phases").and_then(|ps| ps.get(path)).expect(path);
            assert_eq!(pj.get("calls").and_then(Json::as_f64), Some(p.calls as f64));
            let mean = pj.get("secs").and_then(|s| s.get("mean"));
            assert_eq!(mean.and_then(Json::as_f64), Some(p.secs.mean));
            for (k, v) in &p.counters {
                let c = pj.get("counters").and_then(|cs| cs.get(k));
                assert_eq!(c.and_then(Json::as_f64), Some(*v as f64));
            }
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        let report = sample_report();
        assert_eq!(
            report_to_json(&report).to_string_pretty(),
            report_to_json(&report).to_string_pretty()
        );
    }
}
