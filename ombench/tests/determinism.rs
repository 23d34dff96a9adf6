//! The benchmark's self-checks at test size: two traced runs with the same
//! seed give identical work counts and output ratios, every output check
//! passes, and every metric the benchmark documents is emitted.

use ombench::{run, Config, Outcome, Size, END_TO_END, PER_LAYER};

fn traced(workload: &str, seed: u64) -> Outcome {
    let cfg = Config {
        workload: workload.to_string(),
        seed,
        seconds: 0.01,
        trace: true,
        size: Size::small(),
    };
    run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn value(o: &Outcome, name: &str) -> Option<f64> {
    o.report
        .iter()
        .chain(&o.per_layer)
        .find(|m| m.name == name)
        .map(|m| m.value)
}

/// Runs `workload` twice with one seed and checks determinism, correctness
/// and metric coverage, including the workload's own `report` names.
fn check(workload: &str, own: &[&str], deterministic: &[&str]) {
    let (a, b) = (traced(workload, 5), traced(workload, 5));
    for o in [&a, &b] {
        assert!(o.attempted > 0, "{workload}: nothing attempted");
        assert_eq!(
            o.failed, 0,
            "{workload}: {} of {} checks failed",
            o.failed, o.attempted
        );
        assert_eq!(value(o, "error_ratio"), Some(0.0), "{workload}");
    }
    assert!(
        a.counts.is_some(),
        "{workload}: a traced run reports counts"
    );
    assert_eq!(
        a.counts, b.counts,
        "{workload}: counts differ between identical runs"
    );
    for name in deterministic {
        assert!(value(&a, name).is_some(), "{workload}: {name} missing");
        assert_eq!(
            value(&a, name),
            value(&b, name),
            "{workload}: {name} differs"
        );
    }
    for name in END_TO_END {
        assert!(
            a.end_to_end.iter().any(|m| m.name == name),
            "{workload}: end-to-end {name} missing"
        );
    }
    for name in PER_LAYER {
        let m = a.per_layer.iter().find(|m| m.name == name);
        assert!(
            m.is_some_and(|m| m.value.is_finite()),
            "{workload}: per-layer {name} missing"
        );
    }
    for name in own {
        assert!(value(&a, name).is_some(), "{workload}: {name} missing");
    }
}

#[test]
fn spec92_is_deterministic_and_complete() {
    check(
        "spec92",
        &["sweep_s", "sim_minst_per_s"],
        &["cycles_ratio_full_sched", "text_ratio_full", "out_ratio"],
    );
}

#[test]
fn scale_link_is_deterministic_and_complete() {
    check(
        "scale-link",
        &["link_s_p50"],
        &["text_ratio_full", "out_ratio"],
    );
}

#[test]
fn edit_relink_is_deterministic_and_complete() {
    check(
        "edit-relink",
        &[
            "relink_edit_ms_p50",
            "relink_edit_ms_p90",
            "relink_hit_ms_p50",
            "relink_hit_ms_p90",
            "relink_rps",
            "omd.server_ms_p50",
            "omd.server_edit_ms_p50",
            "omd.server_hit_ms_p50",
            "omd.wire_edit_ms_p50",
            "omd.wire_hit_ms_p50",
            "omd.bytes_in_per_req",
            "omd.bytes_out_per_req",
            "core.cache.module_hit_ratio",
            "core.cache.link_hit_ratio",
            "core.cache.module_misses_per_edit",
            "core.cache.coalesced",
        ],
        &[
            "out_ratio",
            "core.cache.module_misses_per_edit",
            "core.cache.link_hit_ratio",
        ],
    );
}

#[test]
fn unknown_workloads_are_refused() {
    let cfg = Config {
        workload: "nope".to_string(),
        seed: 0,
        seconds: 1.0,
        trace: false,
        size: Size::small(),
    };
    assert!(run(&cfg).is_err());
}
