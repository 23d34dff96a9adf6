//! Machine-readable output for `reproduce --json PATH` (hand-rolled; the
//! registry is offline, so no serde), and the gate that holds a run to the
//! committed baseline (`reproduce check BASELINE CURRENT`).
//!
//! Every figure row is one JSON object on its own line, carrying a `"fig"`
//! key (its kind) and a `"bench"` key. [`KINDS`] is the one table of rules
//! per kind and [`check`] enforces it. Timings (`fig7`, `simsec`, `fleet`
//! and `scaletime` rows, `wall_seconds`, `phase_seconds`) are wall-clock
//! and never compared; every other row is bit-deterministic.

use crate::figures::BenchRows;
use om_obs::json::{parse, JsonValue};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The gate's rules for one row kind (the row's `"fig"` value).
pub struct Kind {
    pub fig: &'static str,
    /// Rows must match the baseline's field for field. Report-only kinds
    /// carry wall-clock measurements and are never compared.
    pub gated: bool,
    /// Fields every row of the kind must carry.
    pub required: &'static [&'static str],
    /// Fields every row of the kind must carry with exactly this value,
    /// spelled as compact JSON text.
    pub fixed: &'static [(&'static str, &'static str)],
}

/// Every row kind a full `reproduce --json` run emits, in emission order.
pub const KINDS: [Kind; 12] = [
    Kind { fig: "fig3", gated: true, required: &[], fixed: &[] },
    Kind { fig: "fig4", gated: true, required: &[], fixed: &[] },
    Kind { fig: "fig5", gated: true, required: &[], fixed: &[] },
    Kind { fig: "fig6", gated: true, required: &[], fixed: &[] },
    Kind { fig: "fig7", gated: false, required: &[], fixed: &[] },
    Kind { fig: "gat", gated: true, required: &[], fixed: &[] },
    Kind { fig: "pgo", gated: true, required: &["pgo_cycles_each"], fixed: &[] },
    // Per-pass deltas must reconcile with the pipeline's `OmStats`.
    Kind { fig: "passes", gated: true, required: &[], fixed: &[("reconciled", "true")] },
    // Every cached relink must serve the one-shot pipeline's exact image.
    Kind { fig: "fleet", gated: false, required: &[], fixed: &[("byte_identical", "true")] },
    // The harness panics rather than record a point that fails an oracle;
    // the recorded markers are re-checked so a harness regression cannot
    // slip an unverified point into the baseline.
    Kind {
        fig: "scale",
        gated: true,
        required: &[],
        fixed: &[
            ("verified_variants", "8"),
            ("sampled_exact", "true"),
            ("shared_identical", "true"),
            ("edit_module_misses", "1"),
        ],
    },
    Kind { fig: "scaletime", gated: false, required: &[], fixed: &[] },
    Kind { fig: "simsec", gated: false, required: &["engine"], fixed: &[] },
];

/// A gated row: its `(fig, bench)` key and its fields.
type GatedRow<'a> = ((&'a str, &'a str), &'a BTreeMap<String, JsonValue>);

/// Checks a `reproduce --json` run (`current`) against `baseline` under
/// [`KINDS`] and returns every failure, each naming its kind, benchmark and
/// field; an empty list means the run passes. In both files every kind must
/// have a row, no unknown kind or repeated `(fig, bench)` may appear, and
/// every row must carry its kind's required fields and fixed values. The
/// gated rows must then come in the same `(fig, bench)` sequence with the
/// same fields and values; numbers compare as their source literal, so
/// exactly. Field order within a row is not compared.
pub fn check(baseline: &str, current: &str) -> Vec<String> {
    let (base, cur) = match (parse(baseline), parse(current)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            let b = b.err().map(|e| format!("baseline: {e}"));
            let c = c.err().map(|e| format!("current: {e}"));
            return b.into_iter().chain(c).collect();
        }
    };
    let mut fails = Vec::new();
    let base = gated_rows("baseline", &base, &mut fails);
    let cur = gated_rows("current", &cur, &mut fails);

    let base_by_key: BTreeMap<_, _> = base.iter().copied().collect();
    let cur_by_key: BTreeMap<_, _> = cur.iter().copied().collect();
    for (&(fig, bench), b) in &base_by_key {
        let Some(c) = cur_by_key.get(&(fig, bench)) else {
            fails.push(format!("{fig} {bench}: gated row missing from current"));
            continue;
        };
        for (field, bv) in b.iter() {
            match c.get(field) {
                None => fails.push(format!("{fig} {bench}: `{field}` dropped (baseline {bv})")),
                Some(cv) if cv != bv => fails.push(format!(
                    "{fig} {bench}: `{field}` drifted: baseline {bv}, current {cv}"
                )),
                Some(_) => {}
            }
        }
        for (field, cv) in c.iter().filter(|(field, _)| !b.contains_key(*field)) {
            fails.push(format!("{fig} {bench}: `{field}` added (current {cv})"));
        }
    }
    for &(fig, bench) in cur_by_key.keys().filter(|k| !base_by_key.contains_key(*k)) {
        fails.push(format!("{fig} {bench}: gated row not in baseline"));
    }
    // The rows both files share must also come in the same order.
    let b_order = base.iter().map(|r| r.0).filter(|k| cur_by_key.contains_key(k));
    let c_order = cur.iter().map(|r| r.0).filter(|k| base_by_key.contains_key(k));
    if let Some((b, c)) = b_order.zip(c_order).find(|(b, c)| b != c) {
        fails.push(format!(
            "{} {}: gated rows out of order: baseline has it where current has {} {}",
            b.0, b.1, c.0, c.1
        ));
    }
    fails
}

/// Holds every row of one parsed file to its kind's rules, pushing a
/// failure for each violation, and returns the gated rows in file order.
fn gated_rows<'a>(file: &str, doc: &'a JsonValue, fails: &mut Vec<String>) -> Vec<GatedRow<'a>> {
    let Some(rows) = doc.get("rows").and_then(JsonValue::as_arr) else {
        fails.push(format!("{file}: no `rows` array"));
        return Vec::new();
    };
    let mut seen = [0usize; KINDS.len()];
    let mut keys = BTreeSet::new();
    let mut gated = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let str_field = |k| row.get(k).and_then(JsonValue::as_str);
        let (JsonValue::Obj(fields), Some(fig), Some(bench)) =
            (row, str_field("fig"), str_field("bench"))
        else {
            fails.push(format!("{file}: row {i} lacks a string `fig` or `bench`"));
            continue;
        };
        let at = format!("{file} {fig} {bench}");
        let Some(k) = KINDS.iter().position(|k| k.fig == fig) else {
            fails.push(format!("{at}: unknown row kind `{fig}`"));
            continue;
        };
        if !keys.insert((fig, bench)) {
            fails.push(format!("{at}: repeated row"));
        }
        seen[k] += 1;
        for field in KINDS[k].required.iter().filter(|f| !fields.contains_key(**f)) {
            fails.push(format!("{at}: missing required field `{field}`"));
        }
        for &(field, want) in KINDS[k].fixed {
            match fields.get(field) {
                Some(v) if v.to_string() == want => {}
                Some(v) => fails.push(format!("{at}: `{field}` is {v}, must be {want}")),
                None => fails.push(format!("{at}: missing `{field}` (must be {want})")),
            }
        }
        if KINDS[k].gated {
            gated.push(((fig, bench), fields));
        }
    }
    for (kind, n) in KINDS.iter().zip(seen) {
        if n == 0 {
            fails.push(format!("{file} {}: no rows of this kind", kind.fig));
        }
    }
    gated
}

fn f(v: f64) -> String {
    // Shortest representation that round-trips; always valid JSON for the
    // finite values the figures produce.
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// One figure row as a single JSON-object line.
fn push_row(out: &mut String, fig: &str, bench: &str, fields: &[(impl AsRef<str>, String)]) {
    let _ = write!(out, "    {{\"fig\":\"{fig}\",\"bench\":\"{bench}\"");
    for (k, v) in fields {
        let _ = write!(out, ",\"{}\":{v}", k.as_ref());
    }
    out.push('}');
}

fn rows_for(out: &mut String, r: &BenchRows) -> usize {
    let mut n = 0;
    let mut sep = |out: &mut String| {
        if n > 0 {
            out.push_str(",\n");
        }
        n += 1;
    };
    if let Some(x) = r.fig3 {
        sep(out);
        push_row(
            out,
            "fig3",
            &r.name,
            &[
                ("each_simple_cv", f(x.each_simple.0)),
                ("each_simple_nu", f(x.each_simple.1)),
                ("each_full_cv", f(x.each_full.0)),
                ("each_full_nu", f(x.each_full.1)),
                ("all_simple_cv", f(x.all_simple.0)),
                ("all_simple_nu", f(x.all_simple.1)),
                ("all_full_cv", f(x.all_full.0)),
                ("all_full_nu", f(x.all_full.1)),
            ],
        );
    }
    if let Some(x) = r.fig4 {
        sep(out);
        let mut fields = Vec::new();
        for (mi, m) in ["each", "all"].iter().enumerate() {
            for (li, l) in ["noom", "simple", "full"].iter().enumerate() {
                fields.push((format!("pv_{m}_{l}"), f(x.pv[mi][li])));
                fields.push((format!("gp_{m}_{l}"), f(x.gp_reset[mi][li])));
            }
        }
        push_row(out, "fig4", &r.name, &fields);
    }
    if let Some(x) = r.fig5 {
        sep(out);
        push_row(
            out,
            "fig5",
            &r.name,
            &[
                ("each_simple", f(x.each_simple)),
                ("each_full", f(x.each_full)),
                ("all_simple", f(x.all_simple)),
                ("all_full", f(x.all_full)),
            ],
        );
    }
    if let Some(x) = r.fig6 {
        sep(out);
        let mut fields = Vec::new();
        for (mi, m) in ["each", "all"].iter().enumerate() {
            for (li, l) in ["simple", "full", "sched"].iter().enumerate() {
                fields.push((format!("imp_{m}_{l}"), f(x.improvement[mi][li])));
            }
            fields.push((format!("base_cycles_{m}"), x.base_cycles[mi].to_string()));
        }
        push_row(out, "fig6", &r.name, &fields);
    }
    if let Some(x) = r.fig7 {
        sep(out);
        push_row(
            out,
            "fig7",
            &r.name,
            &[
                ("standard_link", f(x.standard_link)),
                ("interproc_build", f(x.interproc_build)),
                ("om_none", f(x.om_none)),
                ("om_simple", f(x.om_simple)),
                ("om_full", f(x.om_full)),
                ("om_full_sched", f(x.om_full_sched)),
            ],
        );
    }
    if let Some(x) = r.gat {
        sep(out);
        push_row(
            out,
            "gat",
            &r.name,
            &[
                ("each_before", x.each_before.to_string()),
                ("each_after", x.each_after.to_string()),
                ("all_before", x.all_before.to_string()),
                ("all_after", x.all_after.to_string()),
            ],
        );
    }
    if let Some(x) = r.pgo {
        sep(out);
        let mut fields = Vec::new();
        for (mi, m) in ["each", "all"].iter().enumerate() {
            fields.push((format!("sched_cycles_{m}"), x.sched_cycles[mi].to_string()));
            fields.push((format!("pgo_cycles_{m}"), x.pgo_cycles[mi].to_string()));
            fields.push((format!("imp_{m}"), f(x.improvement[mi])));
            fields.push((format!("procs_moved_{m}"), x.procs_moved[mi].to_string()));
            fields.push((format!("hot_{m}"), x.targets[mi].0.to_string()));
            fields.push((format!("cold_{m}"), x.targets[mi].1.to_string()));
        }
        push_row(out, "pgo", &r.name, &fields);
    }
    if let Some(x) = r.passes {
        sep(out);
        // Deterministic (no wall time): gated against the baseline like
        // fig3–fig5. Only nonzero deltas are emitted, so the key set itself
        // is part of the gated content.
        let mut fields = vec![("full_rounds".to_string(), x.full_rounds.to_string())];
        for (pi, pass) in crate::figures::PASS_NAMES.iter().enumerate() {
            for (fi, (field, _)) in om_core::obs::DELTA_FIELDS.iter().enumerate() {
                let d = x.deltas[pi][fi];
                if d != 0 {
                    fields.push((format!("{pass}_{field}"), d.to_string()));
                }
            }
        }
        fields.push(("reconciled".to_string(), x.reconciled.to_string()));
        push_row(out, "passes", &r.name, &fields);
    }
    if let Some(x) = r.fleet {
        sep(out);
        // Latency and throughput are wall-clock, so the whole fleet row is
        // report-only in `KINDS` (like fig7 and simsec).
        push_row(
            out,
            "fleet",
            &r.name,
            &[
                ("requests", x.requests.to_string()),
                ("threads", x.threads.to_string()),
                ("modules", x.modules.to_string()),
                ("module_hits", x.module_hits.to_string()),
                ("module_misses", x.module_misses.to_string()),
                ("link_hits", x.link_hits.to_string()),
                ("link_misses", x.link_misses.to_string()),
                ("hit_rate", f(x.hit_rate)),
                ("p50_us", x.p50_us.to_string()),
                ("p99_us", x.p99_us.to_string()),
                ("rps", f(x.rps)),
                ("byte_identical", x.byte_identical.to_string()),
            ],
        );
    }
    if let Some(x) = r.scale {
        sep(out);
        // Deterministic scale-point fields: GAT geometry, checksums,
        // scenario-pack outcomes, cache-invalidation counts. Gated against
        // the baseline like fig3–fig5.
        push_row(
            out,
            "scale",
            &r.name,
            &[
                ("n", x.n.to_string()),
                ("procs", x.procs.to_string()),
                ("objects_each", x.objects_each.to_string()),
                ("objects_all", x.objects_all.to_string()),
                ("gat_entries_input", x.gat_entries_input.to_string()),
                ("gat_slots", x.gat_slots.to_string()),
                ("gp_groups_each", x.gp_groups_each.to_string()),
                ("gp_groups_all", x.gp_groups_all.to_string()),
                ("gat_slots_after_full", x.gat_slots_after_full.to_string()),
                ("gp_resets_after_full", x.gp_resets_after_full.to_string()),
                ("checksum", x.checksum.to_string()),
                ("insts", x.insts.to_string()),
                ("verified_variants", x.verified_variants.to_string()),
                ("shared_gp_resets_kept", x.shared_gp_resets_kept.to_string()),
                ("shared_identical", x.shared_identical.to_string()),
                ("archive_members_live", x.archive_members_live.to_string()),
                ("archive_members_total", x.archive_members_total.to_string()),
                ("archive_chain_depth", x.archive_chain_depth.to_string()),
                ("archive_checksum", x.archive_checksum.to_string()),
                ("edit_module_misses", x.edit_module_misses.to_string()),
                ("edit_hit_rate", f(x.edit_hit_rate)),
                ("sampled_exact", x.sampled_exact.to_string()),
            ],
        );
    }
    if let Some(x) = r.scaletime {
        sep(out);
        // Wall-clock scaling curve (fig7 extended): report-only, like
        // fig7, simsec, and fleet.
        push_row(
            out,
            "scaletime",
            &r.name,
            &[
                ("standard_link", f(x.standard_link)),
                ("om_full_sched", f(x.om_full_sched)),
                ("relink_cold", f(x.relink_cold)),
                ("relink_edit", f(x.relink_edit)),
            ],
        );
    }
    if r.sim_seconds > 0.0 {
        sep(out);
        // Wall-clock, like fig7: report-only.
        push_row(
            out,
            "simsec",
            &r.name,
            &[
                ("seconds", f(r.sim_seconds)),
                ("engine", format!("\"{}\"", crate::figures::SIM_ENGINE)),
            ],
        );
    }
    n
}

/// Renders the whole report. `wall_seconds` is the harness's elapsed time;
/// `phase_seconds` comes from [`crate::figures::phase::totals`].
pub fn report(
    rows: &[BenchRows],
    quick: bool,
    jobs: usize,
    wall_seconds: f64,
    phase_seconds: (f64, f64, f64),
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"om-reproduce/v1\",");
    let _ = writeln!(out, "  \"engine\": \"{}\",", crate::figures::SIM_ENGINE);
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"jobs\": {jobs},");
    let _ = writeln!(out, "  \"benchmarks\": {},", rows.len());
    let _ = writeln!(out, "  \"wall_seconds\": {},", f(wall_seconds));
    let (b, o, s) = phase_seconds;
    let _ = writeln!(
        out,
        "  \"phase_seconds\": {{\"build\": {}, \"om\": {}, \"sim\": {}}},",
        f(b),
        f(o),
        f(s)
    );
    out.push_str("  \"rows\": [\n");
    let mut first = true;
    for r in rows {
        let mut chunk = String::new();
        if rows_for(&mut chunk, r) > 0 {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&chunk);
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{Fig5Row, GatRow, PassesRow, PgoRow, PASS_NAMES};

    #[test]
    fn rows_are_single_grepable_lines() {
        let rows = vec![BenchRows {
            name: "compress".into(),
            fig3: None,
            fig4: None,
            fig5: Some(Fig5Row {
                each_simple: 0.0625,
                each_full: 0.125,
                all_simple: 0.05,
                all_full: 0.1,
            }),
            fig6: None,
            fig7: None,
            gat: Some(GatRow { each_before: 40, each_after: 5, all_before: 38, all_after: 4 }),
            pgo: Some(PgoRow {
                sched_cycles: [1000, 2000],
                pgo_cycles: [950, 1900],
                improvement: [5.26, 5.26],
                procs_moved: [2, 3],
                targets: [(4, 1), (5, 0)],
            }),
            fleet: Some(crate::fleet::FleetRow {
                requests: 12,
                threads: 4,
                modules: 5,
                module_hits: 16,
                module_misses: 4,
                link_hits: 8,
                link_misses: 4,
                hit_rate: 0.9333333333333333,
                p50_us: 120,
                p99_us: 900,
                rps: 250.0,
                byte_identical: true,
            }),
            passes: Some({
                let mut p = PassesRow {
                    deltas: [[0; om_core::obs::DELTA_FIELDS.len()]; PASS_NAMES.len()],
                    full_rounds: 2,
                    reconciled: true,
                };
                // nullify reclassifies: insts_nullified −4, insts_deleted +4.
                let nullify = PASS_NAMES.iter().position(|x| *x == "nullify").unwrap();
                p.deltas[nullify][0] = -4;
                p.deltas[nullify][1] = 4;
                p
            }),
            scale: Some(crate::scale::ScaleRow {
                n: 16,
                procs: 1600,
                objects_each: 17,
                objects_all: 2,
                gat_entries_input: 9000,
                gat_slots: 8600,
                gp_groups_each: 2,
                gp_groups_all: 2,
                gat_slots_after_full: 700,
                gp_resets_after_full: 3,
                checksum: -42,
                insts: 123456,
                verified_variants: 8,
                shared_gp_resets_kept: 5,
                shared_identical: true,
                archive_members_live: 16,
                archive_members_total: 24,
                archive_chain_depth: 16,
                archive_checksum: 77,
                edit_module_misses: 1,
                edit_hit_rate: 0.9375,
                sampled_exact: true,
            }),
            scaletime: Some(crate::scale::ScaleTimeRow {
                standard_link: 0.01,
                om_full_sched: 0.05,
                relink_cold: 0.04,
                relink_edit: 0.002,
            }),
            sim_seconds: 0.375,
        }];
        let s = report(&rows, true, 4, 1.5, (0.5, 0.25, 0.75));
        let bench_lines: Vec<&str> = s.lines().filter(|l| l.contains("\"bench\"")).collect();
        assert_eq!(bench_lines.len(), 8, "{s}");
        assert!(bench_lines[0].contains("\"fig\":\"fig5\""), "{s}");
        assert!(bench_lines[1].contains("\"each_before\":40"), "{s}");
        assert!(bench_lines[2].contains("\"fig\":\"pgo\""), "{s}");
        assert!(bench_lines[2].contains("\"pgo_cycles_each\":950"), "{s}");
        assert!(bench_lines[3].contains("\"fig\":\"passes\""), "{s}");
        assert!(bench_lines[3].contains("\"nullify_insts_nullified\":-4"), "{s}");
        assert!(bench_lines[3].contains("\"nullify_insts_deleted\":4"), "{s}");
        assert!(bench_lines[3].contains("\"full_rounds\":2"), "{s}");
        assert!(bench_lines[3].contains("\"reconciled\":true"), "{s}");
        assert!(bench_lines[4].contains("\"fig\":\"fleet\""), "{s}");
        assert!(bench_lines[4].contains("\"byte_identical\":true"), "{s}");
        assert!(bench_lines[5].contains("\"fig\":\"scale\""), "{s}");
        assert!(bench_lines[5].contains("\"verified_variants\":8"), "{s}");
        assert!(bench_lines[5].contains("\"edit_module_misses\":1"), "{s}");
        assert!(bench_lines[5].contains("\"sampled_exact\":true"), "{s}");
        assert!(bench_lines[6].contains("\"fig\":\"scaletime\""), "{s}");
        assert!(bench_lines[6].contains("\"relink_edit\":0.002"), "{s}");
        assert!(bench_lines[7].contains("\"fig\":\"simsec\""), "{s}");
        assert!(bench_lines[7].contains("\"engine\":\"block\""), "{s}");
        assert!(s.contains("\"engine\": \"block\""), "{s}");
        assert!(s.contains("\"phase_seconds\""), "{s}");
        // Valid-enough JSON: balanced braces/brackets on the skeleton.
        assert_eq!(s.matches('{').count(), s.matches('}').count(), "{s}");
        assert_eq!(s.matches('[').count(), s.matches(']').count(), "{s}");
    }
}
