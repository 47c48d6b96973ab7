//! JSON (de)serialization of transient adapt traces — the artifact the CI
//! adapt-determinism stage diffs bitwise across thread counts and chaos
//! schedules.
//!
//! Schema:
//!
//! ```json
//! {
//!   "schema": "carve-adapt-trace-v1",
//!   "ranks": 3,
//!   "cycles": [
//!     {
//!       "step": 4, "elems_before": 620, "elems_after": 688,
//!       "refined": 24, "coarsened": 8, "migrated": false,
//!       "dofs": 812,
//!       "leaf_hash": "f1d2d2f924e986ac",
//!       "field_hash": "86f7e437faa5a7fc"
//!     }
//!   ]
//! }
//! ```
//!
//! The two hashes fold the global leaf set and the solution field
//! (including every `f64` bit pattern) in rank order, so a single flipped
//! bit anywhere in the run changes the serialized trace. Hashes travel as
//! zero-padded hex *strings*: JSON numbers are f64 and cannot carry 64 bits
//! losslessly.

use crate::json::Json;

/// Schema tag stamped into every serialized adapt trace.
pub const ADAPT_TRACE_SCHEMA: &str = "carve-adapt-trace-v1";

/// One adapt cycle of a transient run, as recorded by the time stepper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdaptCycleRecord {
    /// Time step index at which the adapt fired.
    pub step: u64,
    /// Global element count entering / leaving the cycle.
    pub elems_before: u64,
    pub elems_after: u64,
    /// Globally summed split / merge counts.
    pub refined: u64,
    pub coarsened: u64,
    /// Whether this cycle migrated elements before its rebuild.
    pub migrated: bool,
    /// Global DOF count after the cycle.
    pub dofs: u64,
    /// Order-fixed FNV fold of the global leaf set (anchors + levels).
    pub leaf_hash: u64,
    /// Order-fixed FNV fold of node coords + solution bit patterns.
    pub field_hash: u64,
}

/// A whole transient run's adapt history.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct AdaptTrace {
    pub ranks: u64,
    pub cycles: Vec<AdaptCycleRecord>,
}

fn hex64(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

/// Encodes a trace as a self-describing JSON object.
pub fn adapt_trace_to_json(trace: &AdaptTrace) -> Json {
    let cycles = trace
        .cycles
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("step".into(), num(c.step)),
                ("elems_before".into(), num(c.elems_before)),
                ("elems_after".into(), num(c.elems_after)),
                ("refined".into(), num(c.refined)),
                ("coarsened".into(), num(c.coarsened)),
                ("migrated".into(), Json::Bool(c.migrated)),
                ("dofs".into(), num(c.dofs)),
                ("leaf_hash".into(), hex64(c.leaf_hash)),
                ("field_hash".into(), hex64(c.field_hash)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str(ADAPT_TRACE_SCHEMA.into())),
        ("ranks".into(), num(trace.ranks)),
        ("cycles".into(), Json::Arr(cycles)),
    ])
}

fn get_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite() && *v >= 0.0)
        .map(|v| v as u64)
        .ok_or_else(|| format!("adapt trace: missing number field {key:?}"))
}

fn get_hex64(j: &Json, key: &str) -> Result<u64, String> {
    let s = j
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("adapt trace: missing string field {key:?}"))?;
    u64::from_str_radix(s, 16).map_err(|e| format!("adapt trace: bad hash {key:?}: {e}"))
}

/// Decodes a trace written by [`adapt_trace_to_json`], validating the
/// schema tag.
pub fn adapt_trace_from_json(j: &Json) -> Result<AdaptTrace, String> {
    match j.get("schema").and_then(Json::as_str) {
        Some(ADAPT_TRACE_SCHEMA) => {}
        Some(other) => return Err(format!("adapt trace: unknown schema {other:?}")),
        None => return Err("adapt trace: missing string field \"schema\"".into()),
    }
    let ranks = get_u64(j, "ranks")?;
    let cycles = match j.get("cycles") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|c| {
                Ok(AdaptCycleRecord {
                    step: get_u64(c, "step")?,
                    elems_before: get_u64(c, "elems_before")?,
                    elems_after: get_u64(c, "elems_after")?,
                    refined: get_u64(c, "refined")?,
                    coarsened: get_u64(c, "coarsened")?,
                    migrated: c
                        .get("migrated")
                        .and_then(Json::as_bool)
                        .ok_or("adapt trace: missing bool field \"migrated\"")?,
                    dofs: get_u64(c, "dofs")?,
                    leaf_hash: get_hex64(c, "leaf_hash")?,
                    field_hash: get_hex64(c, "field_hash")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("adapt trace: missing array field \"cycles\"".into()),
    };
    Ok(AdaptTrace { ranks, cycles })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AdaptTrace {
        AdaptTrace {
            ranks: 3,
            cycles: vec![
                AdaptCycleRecord {
                    step: 2,
                    elems_before: 620,
                    elems_after: 688,
                    refined: 24,
                    coarsened: 8,
                    migrated: false,
                    dofs: 812,
                    leaf_hash: 0xf1d2_d2f9_24e9_86ac,
                    field_hash: 0x0000_0000_0000_0001, // leading zeros must survive
                },
                AdaptCycleRecord {
                    step: 4,
                    elems_before: 688,
                    elems_after: 652,
                    refined: 4,
                    coarsened: 40,
                    migrated: true,
                    dofs: 771,
                    leaf_hash: u64::MAX,
                    field_hash: 0x86f7_e437_faa5_a7fc,
                },
            ],
        }
    }

    #[test]
    fn adapt_trace_roundtrips_exactly() {
        let trace = sample();
        let text = adapt_trace_to_json(&trace).to_string_pretty();
        let parsed = Json::parse(&text).expect("valid json");
        let back = adapt_trace_from_json(&parsed).expect("valid trace");
        assert_eq!(back, trace);
        // And the serialization itself is stable (the CI stage diffs text).
        assert_eq!(adapt_trace_to_json(&back).to_string_pretty(), text);
    }

    #[test]
    fn adapt_trace_rejects_malformed_input() {
        let mut j = adapt_trace_to_json(&sample());
        if let Json::Obj(fields) = &mut j {
            fields[0].1 = Json::Str("bogus-v9".into());
        }
        assert!(adapt_trace_from_json(&j).is_err());
        assert!(adapt_trace_from_json(&Json::Num(4.0)).is_err());
        // A corrupted hash string must fail loudly, not decode to 0.
        let mut j = adapt_trace_to_json(&sample());
        if let Json::Obj(fields) = &mut j {
            if let Json::Arr(cycles) = &mut fields[2].1 {
                if let Json::Obj(c) = &mut cycles[0] {
                    c[7].1 = Json::Str("not-hex".into());
                }
            }
        }
        assert!(adapt_trace_from_json(&j).is_err());
    }
}
