//! Execution profiles: the serialized form of what `om-sim`'s
//! `ProfileObserver` measures, and what the profile-guided layout pass
//! ([`crate::pgo`]) consumes.
//!
//! The paper's OM applies its layout heuristics blindly — every
//! backward-branch target is quadword-aligned, procedures stay in input
//! order. BOLT-style post-link optimizers showed the same machinery pays off
//! more when driven by an execution profile. A [`Profile`] carries exactly
//! the counts that layer needs:
//!
//! * per-procedure entry counts (call frequency → hot/cold ordering),
//! * per-procedure retired-instruction counts (observability),
//! * execution counts of each backward-branch target, *by rank* — the
//!   target's index among the procedure's distinct backward-branch targets
//!   in code order. Ranks survive relinking: OM's scheduling is
//!   deterministic and alignment padding never adds or reorders targets, so
//!   rank `k` in the profiled image is rank `k` in the rebuild.
//! * call edges (caller → callee counts), for diagnostics and tooling.
//!
//! The on-disk format is line-oriented JSON, written by hand and read with
//! the workspace's one JSON reader, [`om_obs::json`] (the build is offline;
//! no serde). Serialization is deterministic: procedures sort by name, edges
//! by (caller, callee).

use om_obs::json::quote;
use om_obs::JsonValue;
use std::fmt;

/// Per-procedure execution counts. The `name` is the procedure's linked-image
/// symbol: the plain name for exported procedures, `"name.module"` for
/// locals — the same qualification the linker's symbol table uses, so
/// image-side attribution and symbolic-side lookup agree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcProfile {
    pub name: String,
    /// Times the procedure was entered by a call (BSR/JSR).
    pub calls: u64,
    /// Instructions retired inside the procedure.
    pub insts: u64,
    /// Execution count of each distinct backward-branch target, indexed by
    /// rank (code order). Length = number of targets the procedure *has*,
    /// not just those that ran; unexecuted targets count 0.
    pub back_targets: Vec<u64>,
}

/// One call edge: `caller` transferred to `callee` `count` times.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallEdge {
    pub caller: String,
    pub callee: String,
    pub count: u64,
}

/// A whole-program execution profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Total instructions retired by the profiled run.
    pub total_insts: u64,
    /// Per-procedure counts, sorted by name (see [`Profile::normalize`]).
    pub procs: Vec<ProcProfile>,
    /// Call edges, sorted by (caller, callee).
    pub edges: Vec<CallEdge>,
}

/// Errors from [`Profile::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileError(pub String);

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "profile: {}", self.0)
    }
}

impl std::error::Error for ProfileError {}

impl Profile {
    /// Sorts procedures by name and edges by (caller, callee), making the
    /// serialized form canonical. Lookup ([`Profile::proc`]) requires it.
    pub fn normalize(&mut self) {
        self.procs.sort_by(|a, b| a.name.cmp(&b.name));
        self.edges
            .sort_by(|a, b| (&a.caller, &a.callee).cmp(&(&b.caller, &b.callee)));
    }

    /// Looks up a procedure by its linked-image symbol name (binary search;
    /// the profile must be normalized, which both the observer and the
    /// parser guarantee).
    pub fn proc(&self, name: &str) -> Option<&ProcProfile> {
        self.procs
            .binary_search_by(|p| p.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.procs[i])
    }

    /// Serializes to the line-oriented JSON format.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"om-profile/v1\",\n");
        out.push_str(&format!("  \"total_insts\": {},\n", self.total_insts));
        out.push_str("  \"procs\": [\n");
        for (i, p) in self.procs.iter().enumerate() {
            let counts: Vec<String> = p.back_targets.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "    {{\"name\":{},\"calls\":{},\"insts\":{},\"back_targets\":[{}]}}{}\n",
                quote(&p.name),
                p.calls,
                p.insts,
                counts.join(","),
                if i + 1 < self.procs.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"edges\": [\n");
        for (i, e) in self.edges.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"caller\":{},\"callee\":{},\"count\":{}}}{}\n",
                quote(&e.caller),
                quote(&e.callee),
                e.count,
                if i + 1 < self.edges.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the JSON format (key order does not matter; unknown keys are
    /// ignored for forward compatibility).
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] on malformed JSON, a wrong schema tag, or
    /// missing required keys.
    pub fn from_json(s: &str) -> Result<Profile, ProfileError> {
        let top = om_obs::parse_json(s).map_err(ProfileError)?;
        match top.get("schema").and_then(JsonValue::as_str) {
            Some("om-profile/v1") => {}
            Some(tag) => return Err(ProfileError(format!("unsupported schema {tag:?}"))),
            None => return Err(ProfileError("missing schema tag".into())),
        }
        let mut profile = Profile {
            total_insts: req_num(&top, "total_insts")?,
            procs: Vec::new(),
            edges: Vec::new(),
        };
        for o in req_arr(&top, "procs")? {
            profile.procs.push(ProcProfile {
                name: req_str(o, "name")?,
                calls: req_num(o, "calls")?,
                insts: req_num(o, "insts")?,
                back_targets: req_arr(o, "back_targets")?
                    .iter()
                    .map(|c| num(c, "back_targets element"))
                    .collect::<Result<_, _>>()?,
            });
        }
        for o in req_arr(&top, "edges")? {
            profile.edges.push(CallEdge {
                caller: req_str(o, "caller")?,
                callee: req_str(o, "callee")?,
                count: req_num(o, "count")?,
            });
        }
        profile.normalize();
        Ok(profile)
    }
}

fn req<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a JsonValue, ProfileError> {
    obj.get(key).ok_or_else(|| ProfileError(format!("missing key {key:?}")))
}

/// A count: an exact non-negative integer up to `u64::MAX`.
fn num(v: &JsonValue, what: &str) -> Result<u64, ProfileError> {
    v.as_u64()
        .ok_or_else(|| ProfileError(format!("{what}: expected a count in 0..=u64::MAX")))
}

fn req_num(obj: &JsonValue, key: &str) -> Result<u64, ProfileError> {
    num(req(obj, key)?, key)
}

fn req_str(obj: &JsonValue, key: &str) -> Result<String, ProfileError> {
    req(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ProfileError(format!("{key}: expected a string")))
}

fn req_arr<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], ProfileError> {
    req(obj, key)?
        .as_arr()
        .ok_or_else(|| ProfileError(format!("{key}: expected an array")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        let mut p = Profile {
            total_insts: 1234,
            procs: vec![
                ProcProfile {
                    name: "main".into(),
                    calls: 1,
                    insts: 500,
                    back_targets: vec![12, 0, u64::MAX],
                },
                ProcProfile {
                    name: "helper.mod_a".into(),
                    calls: 40,
                    insts: 734,
                    back_targets: vec![],
                },
            ],
            edges: vec![CallEdge { caller: "main".into(), callee: "helper.mod_a".into(), count: 40 }],
        };
        p.normalize();
        p
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let p = sample();
        let q = Profile::from_json(&p.to_json()).expect("roundtrip");
        assert_eq!(p, q);
    }

    #[test]
    fn lookup_finds_procs_by_name() {
        let p = sample();
        assert_eq!(p.proc("main").unwrap().insts, 500);
        assert_eq!(p.proc("helper.mod_a").unwrap().calls, 40);
        assert!(p.proc("absent").is_none());
    }

    #[test]
    fn parser_ignores_key_order_and_unknown_keys() {
        let s = r#"{"total_insts": 7, "schema": "om-profile/v1", "future": [1,2],
                    "edges": [], "procs": [{"back_targets":[1],"insts":7,"calls":2,"name":"f","x":0}]}"#;
        let p = Profile::from_json(s).expect("parse");
        assert_eq!(p.total_insts, 7);
        assert_eq!(p.procs[0].name, "f");
        assert_eq!(p.procs[0].back_targets, vec![1]);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Profile::from_json("").is_err());
        assert!(Profile::from_json("{}").is_err());
        assert!(Profile::from_json("{\"schema\":\"om-profile/v2\"}").is_err());
        // Overflow past u64::MAX is an error, not a wrap.
        let s = "{\"schema\":\"om-profile/v1\",\"total_insts\":99999999999999999999,\"procs\":[],\"edges\":[]}";
        assert!(Profile::from_json(s).is_err());
        // Truncated input.
        let good = sample().to_json();
        assert!(Profile::from_json(&good[..good.len() / 2]).is_err());
    }

    #[test]
    fn escaped_names_roundtrip() {
        let mut p = Profile::default();
        p.procs.push(ProcProfile {
            name: "we\"ird\\name\n.mod".into(),
            calls: 3,
            insts: 9,
            back_targets: vec![0],
        });
        p.normalize();
        let q = Profile::from_json(&p.to_json()).expect("roundtrip");
        assert_eq!(p, q);
    }
}
