//! The figure-baseline gate (`reproduce check`, rules in
//! `om_bench::json::KINDS`) run on doctored copies of the committed
//! `BENCH_baseline.json`: every guard has a case that trips it, and the
//! wall-clock rows and fields it must ignore trip nothing.

use om_bench::json::{check, KINDS};

const BASELINE: &str = include_str!("../../../BENCH_baseline.json");

/// The baseline with its row lines (trailing commas stripped) edited by `f`.
fn edit_rows(f: impl FnOnce(&mut Vec<String>)) -> String {
    let (head, rest) = BASELINE.split_once("  \"rows\": [\n").expect("rows array");
    let (rows, tail) = rest.split_once("\n  ]").expect("rows array end");
    let mut rows: Vec<String> = rows.lines().map(|l| l.trim_end_matches(',').to_string()).collect();
    f(&mut rows);
    format!("{head}  \"rows\": [\n{}\n  ]{tail}", rows.join(",\n"))
}

fn row_of(rows: &[String], fig: &str, bench: &str) -> usize {
    let key = format!("{{\"fig\":\"{fig}\",\"bench\":\"{bench}\"");
    rows.iter().position(|l| l.contains(&key)).unwrap_or_else(|| panic!("no {fig} {bench} row"))
}

/// The last row of a kind: every kind has at least two, so never the first.
fn last_of(rows: &[String], fig: &str) -> usize {
    let key = format!("\"fig\":\"{fig}\"");
    rows.iter().rposition(|l| l.contains(&key)).unwrap_or_else(|| panic!("no {fig} rows"))
}

/// `row` with `field`'s value replaced by `value`, or the field dropped.
fn set_field(row: &str, field: &str, value: Option<&str>) -> String {
    let key = format!(",\"{field}\":");
    let start = row.find(&key).unwrap_or_else(|| panic!("no {field} in {row}"));
    let end = start + key.len() + row[start + key.len()..].find([',', '}']).expect("value end");
    match value {
        Some(v) => format!("{}{v}{}", &row[..start + key.len()], &row[end..]),
        None => format!("{}{}", &row[..start], &row[end..]),
    }
}

fn edit_field(fig: &str, bench: &str, field: &str, value: Option<&str>) -> String {
    edit_rows(|rows| {
        let i = row_of(rows, fig, bench);
        rows[i] = set_field(&rows[i], field, value);
    })
}

/// Asserts that checking `current` against `baseline` fails, with some
/// failure containing every one of `needles`.
#[track_caller]
fn assert_trips(baseline: &str, current: &str, needles: &[&str]) {
    let fails = check(baseline, current);
    assert!(
        fails.iter().any(|f| needles.iter().all(|n| f.contains(n))),
        "expected a failure mentioning {needles:?}, got {fails:#?}"
    );
}

#[test]
fn baseline_passes_against_itself() {
    assert_eq!(edit_rows(|_| {}), BASELINE, "the row editor must round-trip");
    assert_eq!(check(BASELINE, BASELINE), Vec::<String>::new());
}

#[test]
fn every_kind_must_have_rows_in_both_files() {
    for kind in &KINDS {
        let key = format!("\"fig\":\"{}\"", kind.fig);
        let doc = edit_rows(|rows| rows.retain(|l| !l.contains(&key)));
        let missing = format!("{}: no rows of this kind", kind.fig);
        assert_trips(BASELINE, &doc, &["current", &missing]);
        assert_trips(&doc, BASELINE, &["baseline", &missing]);
    }
}

#[test]
fn unknown_kinds_and_repeated_rows_trip() {
    let doc = edit_rows(|rows| rows.push("    {\"fig\":\"fig8\",\"bench\":\"li\",\"x\":1}".into()));
    assert_trips(BASELINE, &doc, &["current fig8 li", "unknown row kind"]);
    // A repeated report-only row (invisible to the gated comparison) ...
    let doc = edit_rows(|rows| {
        let i = row_of(rows, "simsec", "li");
        rows.insert(i, rows[i].clone());
    });
    assert_trips(BASELINE, &doc, &["current simsec li", "repeated row"]);
    // ... and a repeated gated one.
    let doc = edit_rows(|rows| {
        let i = row_of(rows, "gat", "li");
        rows.insert(i, rows[i].clone());
    });
    assert_trips(BASELINE, &doc, &["current gat li", "repeated row"]);
}

#[test]
fn required_fields_hold_on_every_row_of_both_files() {
    for kind in &KINDS {
        for field in kind.required {
            let doc = edit_rows(|rows| {
                let i = last_of(rows, kind.fig);
                rows[i] = set_field(&rows[i], field, None);
            });
            let needle = format!("missing required field `{field}`");
            assert_trips(BASELINE, &doc, &["current", kind.fig, &needle]);
            assert_trips(&doc, &doc, &["baseline", kind.fig, &needle]);
        }
    }
}

#[test]
fn fixed_values_hold_on_every_row_of_both_files() {
    let mut cases = 0;
    for kind in &KINDS {
        for &(field, want) in kind.fixed {
            // "8" -> "80", "1" -> "10": a substring match would miss these.
            let bad = if want == "true" { "false".to_string() } else { format!("{want}0") };
            for value in [Some(bad.as_str()), None] {
                let doc = edit_rows(|rows| {
                    let i = last_of(rows, kind.fig);
                    rows[i] = set_field(&rows[i], field, value);
                });
                let needle = format!("`{field}`");
                let must = format!("must be {want}");
                assert_trips(BASELINE, &doc, &["current", kind.fig, &needle, &must]);
                assert_trips(&doc, &doc, &["baseline", kind.fig, &needle, &must]);
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 2 * 6, "reconciled, byte_identical and the four scale markers");
}

#[test]
fn gated_value_changes_trip() {
    for (fig, bench, field, value) in [
        ("fig5", "compress", "each_full", "0.11850802644003778"),
        ("fig6", "compress", "base_cycles_each", "587632"),
        // Same number, different literal: still drift.
        ("fig4", "compress", "gp_each_simple", "0"),
        // Same digits, different type.
        ("gat", "compress", "each_before", "\"64\""),
        ("passes", "ear", "full_rounds", "3"),
        ("scale", "scale64", "checksum", "2399251981"),
    ] {
        let doc = edit_field(fig, bench, field, Some(value));
        let needle = format!("`{field}` drifted");
        assert_trips(BASELINE, &doc, &[fig, bench, &needle, value]);
    }
}

#[test]
fn gated_field_set_changes_trip() {
    let added = edit_rows(|rows| {
        let i = row_of(rows, "fig3", "ear");
        rows[i] = rows[i].replacen("\"bench\":\"ear\"", "\"bench\":\"ear\",\"extra\":1", 1);
    });
    assert_trips(BASELINE, &added, &["fig3 ear", "`extra` added"]);
    let dropped = edit_field("fig5", "ear", "each_full", None);
    assert_trips(BASELINE, &dropped, &["fig5 ear", "`each_full` dropped"]);
    let renamed = edit_rows(|rows| {
        let i = row_of(rows, "gat", "ear");
        rows[i] = rows[i].replacen("\"all_after\"", "\"all_afterwards\"", 1);
    });
    assert_trips(BASELINE, &renamed, &["gat ear", "`all_after` dropped"]);
    assert_trips(BASELINE, &renamed, &["gat ear", "`all_afterwards` added"]);
}

#[test]
fn gated_rows_dropped_added_or_reordered_trip() {
    let dropped = edit_rows(|rows| {
        let i = row_of(rows, "fig3", "compress");
        rows.remove(i);
    });
    assert_trips(BASELINE, &dropped, &["fig3 compress", "missing from current"]);
    assert_trips(&dropped, BASELINE, &["fig3 compress", "not in baseline"]);
    // Two rows of one benchmark swapped.
    let swapped = edit_rows(|rows| {
        let (a, b) = (row_of(rows, "fig3", "li"), row_of(rows, "fig4", "li"));
        rows.swap(a, b);
    });
    assert_trips(BASELINE, &swapped, &["out of order"]);
    // Whole benchmarks reordered: alvinn's rows moved after compress's.
    let moved = edit_rows(|rows| {
        let alvinn: Vec<String> = rows.drain(..10).collect();
        let after_compress = row_of(rows, "simsec", "compress") + 1;
        rows.splice(after_compress..after_compress, alvinn);
    });
    assert_trips(BASELINE, &moved, &["out of order"]);
    // The scale points swapped.
    let scale = edit_rows(|rows| {
        let (a, b) = (row_of(rows, "scale", "scale16"), row_of(rows, "scale", "scale64"));
        rows.swap(a, b);
    });
    assert_trips(BASELINE, &scale, &["out of order"]);
}

#[test]
fn duplicate_keys_trip() {
    let doc = edit_rows(|rows| {
        let i = row_of(rows, "fig5", "li");
        let value = rows[i].split("\"each_full\":").nth(1).unwrap().split(',').next().unwrap();
        let dup = format!(",\"each_full\":{value}}}");
        rows[i] = rows[i].replacen('}', &dup, 1);
    });
    assert_trips(BASELINE, &doc, &["current", "duplicate key `each_full`"]);
    assert_trips(&doc, BASELINE, &["baseline", "duplicate key `each_full`"]);
}

#[test]
fn wall_clock_changes_trip_nothing() {
    let mut doc = edit_rows(|rows| {
        for row in rows.iter_mut() {
            let edits: &[(&str, &str)] = if row.contains("\"fig\":\"fig7\"") {
                &[("standard_link", "9.5"), ("om_full", "0.25"), ("om_full_sched", "1.0")]
            } else if row.contains("\"fig\":\"fleet\"") {
                &[("p50_us", "1"), ("p99_us", "99999"), ("rps", "12.5")]
            } else if row.contains("\"fig\":\"simsec\"") {
                &[("seconds", "3.75")]
            } else if row.contains("\"fig\":\"scaletime\"") {
                &[("standard_link", "0.5"), ("relink_cold", "2.0"), ("relink_edit", "0.001")]
            } else {
                &[]
            };
            for &(field, value) in edits {
                *row = set_field(row, field, Some(value));
            }
        }
    });
    let phases = "{\"build\": 1.0, \"om\": 2.0, \"sim\": 3.0}";
    for (field, value) in [("wall_seconds", "99.5"), ("phase_seconds", phases)] {
        let key = format!("\"{field}\"");
        let line = doc.lines().find(|l| l.contains(&key)).unwrap().to_string();
        doc = doc.replacen(&line, &format!("  {key}: {value},"), 1);
    }
    assert_ne!(doc, BASELINE);
    assert_eq!(check(BASELINE, &doc), Vec::<String>::new());
}

#[test]
fn cli_exits_one_listing_every_failure() {
    let dir = std::env::temp_dir().join(format!("om-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (base, bad) = (dir.join("base.json"), dir.join("bad.json"));
    std::fs::write(&base, BASELINE).unwrap();
    let doc = edit_rows(|rows| {
        let i = row_of(rows, "pgo", "li");
        rows[i] = set_field(&rows[i], "pgo_cycles_each", None);
        let j = row_of(rows, "fig5", "li");
        rows[j] = set_field(&rows[j], "each_full", Some("0.5"));
    });
    std::fs::write(&bad, doc).unwrap();
    let run = |current: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .arg("check")
            .args([&base, current])
            .output()
            .unwrap()
    };
    let ok = run(&base);
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");
    let out = run(&bad);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let fail_lines = stderr.lines().filter(|l| l.starts_with("FAIL: ")).count();
    // The missing field is both a table violation and a gated-field drop.
    assert_eq!(fail_lines, 3, "{stderr}");
    assert!(stderr.contains("pgo li: missing required field `pgo_cycles_each`"), "{stderr}");
    assert!(stderr.contains("fig5 li: `each_full` drifted"), "{stderr}");
}
