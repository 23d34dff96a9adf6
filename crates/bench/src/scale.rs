//! The `"fig":"scale"` figure: oracle-gated scaling curves over the
//! `--scale N` workload axis ([`om_workloads::scale`]).
//!
//! Every scale point is pushed through all three oracles before any number
//! is recorded — `om --verify`'s structural verifier (every mode × level
//! variant links with [`OmOptions::verify`] on), the checksum diff (every
//! variant's simulated result must equal the standard link's and the mini-C
//! interpreter's), and the interpreter differential itself — plus a fourth
//! at scale: the sampled simulator's functional results must be *exact*
//! against the full run, so sampling is a sound oracle at sizes where full
//! timing runs are impractical.
//!
//! The measured fields split into two row kinds so `reproduce check` can
//! gate one and not the other:
//!
//! * [`ScaleRow`] (`"fig":"scale"`) — bit-deterministic: GAT geometry,
//!   checksums, scenario-pack outcomes, cache-invalidation counts. Diffed
//!   against `BENCH_baseline.json` like fig3–fig5.
//! * [`ScaleTimeRow`] (`"fig":"scaletime"`) — wall-clock link and relink
//!   times (fig7 extended to the scaling curve). Report-only, like fig7.

use crate::figures::{phase, SIM_LIMIT};
use om_core::{
    optimize_and_link, optimize_and_link_cached, OmCaches, OmLevel, OmOptions, OmOutput,
};
use om_linker::{link_modules, LayoutOpts};
use om_sim::{run_sampled, run_timed_fast};
use om_workloads::build::{BuiltBenchmark, CompileMode};
use om_workloads::scale::{
    archive_pack, build_scale, interp_reference_scale, preemptible_entries, scale_spec,
    total_procs,
};
use std::sync::Arc;
use std::time::Instant;

/// Interpreter step budget for a scale point's reference run.
pub const INTERP_STEPS: u64 = 4_000_000_000;

/// Sampled-simulation interval (instructions per interval).
pub const SAMPLE_INTERVAL: u64 = 100_000;

/// The per-module hit-rate floor the scale fleet storm enforces: a single-
/// module edit at 1000 modules must invalidate O(1 module), i.e. reuse
/// ≥ 99% of translations.
pub const SCALE_HIT_RATE_FLOOR: f64 = 0.99;

/// The scale points `reproduce` measures.
pub fn points(quick: bool) -> Vec<usize> {
    if quick {
        vec![16, 64]
    } else {
        vec![16, 64, 256, 1000]
    }
}

/// Deterministic fields of one scale point (drift-gated).
#[derive(Debug, Clone, Copy)]
pub struct ScaleRow {
    /// User modules.
    pub n: usize,
    /// User procedures.
    pub procs: usize,
    /// Link inputs per mode (crt0 + user objects; compile-all is
    /// partitioned, so more than one merged unit).
    pub objects_each: usize,
    pub objects_all: usize,
    /// GAT geometry of the compile-each standard link.
    pub gat_entries_input: usize,
    pub gat_slots: usize,
    /// GP groups per mode — ≥ 2 at every point (the multi-GAT split).
    pub gp_groups_each: usize,
    pub gp_groups_all: usize,
    /// GAT slots surviving OM-full's reduction (compile-each).
    pub gat_slots_after_full: usize,
    /// GP resets surviving OM-full (compile-each): nonzero while the live
    /// pool still spans several groups.
    pub gp_resets_after_full: usize,
    /// The program checksum every oracle agreed on.
    pub checksum: i64,
    /// Instructions retired by the compile-each OM-full-sched run.
    pub insts: u64,
    /// (mode × level) variants that linked with verification on and matched
    /// the checksum (8 = 2 modes × 4 levels).
    pub verified_variants: usize,
    /// Shared-library pack: GP resets the preemptible image must keep.
    pub shared_gp_resets_kept: usize,
    /// Shared-library pack: the dynamic image computed the same checksum.
    pub shared_identical: bool,
    /// Archive pack: members the resolver pulled / total members offered.
    pub archive_members_live: usize,
    pub archive_members_total: usize,
    /// Archive pack: depth of the library-to-library call chain.
    pub archive_chain_depth: usize,
    /// Archive pack checksum (verified against its interpreter run).
    pub archive_checksum: i64,
    /// Relink cache: module translations recomputed after a single-module
    /// edit (must be exactly 1).
    pub edit_module_misses: u64,
    /// Relink cache: fraction of the edited relink served from cache.
    pub edit_hit_rate: f64,
    /// Sampled simulation returned bit-exact functional results.
    pub sampled_exact: bool,
}

/// Wall-clock fields of one scale point (report-only, like fig7).
#[derive(Debug, Clone, Copy)]
pub struct ScaleTimeRow {
    /// Standard (non-optimizing) link of the compile-each objects.
    pub standard_link: f64,
    /// Fresh OM-full-sched pipeline run.
    pub om_full_sched: f64,
    /// First (cold) relink through a fresh cache.
    pub relink_cold: f64,
    /// Relink after a single-module edit (warm cache).
    pub relink_edit: f64,
}

fn run_checksum(out: &OmOutput, what: &str) -> (i64, u64) {
    let t0 = Instant::now();
    let (r, _) = run_timed_fast(&out.image, SIM_LIMIT).unwrap_or_else(|e| panic!("{what}: {e}"));
    phase::add_sim(t0.elapsed());
    (r.result, r.insts)
}

/// Measures one scale point, running every oracle along the way.
///
/// # Panics
///
/// Panics if any oracle disagrees — a scale point that cannot be verified
/// must fail the harness, never record a row.
pub fn measure_scale(n: usize) -> (ScaleRow, ScaleTimeRow) {
    let spec = scale_spec(n);
    let expected = interp_reference_scale(&spec, INTERP_STEPS)
        .unwrap_or_else(|e| panic!("scale{n} interpreter reference: {e}"));

    let t0 = Instant::now();
    let each = build_scale(&spec, CompileMode::Each).expect("scale compile-each");
    let all = build_scale(&spec, CompileMode::All).expect("scale compile-all");
    phase::add_build(t0.elapsed());

    // Standard link, timed, and the checksum diff against the interpreter.
    let t0 = Instant::now();
    let (std_image, std_stats) =
        link_modules(&each.objects, &each.libs, &LayoutOpts::default())
            .unwrap_or_else(|e| panic!("scale{n} standard link: {e}"));
    let standard_link = t0.elapsed().as_secs_f64();
    let std_result = {
        let t0 = Instant::now();
        let (r, _) = run_timed_fast(&std_image, SIM_LIMIT)
            .unwrap_or_else(|e| panic!("scale{n} standard run: {e}"));
        phase::add_sim(t0.elapsed());
        r.result
    };
    assert_eq!(std_result, expected, "scale{n}: standard link vs interpreter");
    let all_gp_groups = link_modules(&all.objects, &all.libs, &LayoutOpts::default())
        .unwrap_or_else(|e| panic!("scale{n} compile-all standard link: {e}"))
        .1
        .gp_groups;

    // Every (mode × level) variant with om --verify's machinery on, each
    // checksum-diffed against the interpreter.
    let verify_opts = OmOptions { verify: true, ..OmOptions::default() };
    let mut verified_variants = 0;
    let mut full_each: Option<Arc<OmOutput>> = None;
    let mut sched_each: Option<Arc<OmOutput>> = None;
    let mut insts = 0;
    let mut om_full_sched = 0.0;
    for (b, mode) in [(&each, CompileMode::Each), (&all, CompileMode::All)] {
        for level in OmLevel::ALL {
            let t0 = Instant::now();
            let out = om_core::optimize_and_link_with(&b.objects, &b.libs, level, &verify_opts)
                .unwrap_or_else(|e| panic!("scale{n} {} {}: {e}", mode.name(), level.name()));
            let dt = t0.elapsed().as_secs_f64();
            phase::add_om(t0.elapsed());
            assert!(out.verify.is_some(), "scale{n}: verification report missing");
            let (r, i) = run_checksum(&out, &format!("scale{n} {} {}", mode.name(), level.name()));
            assert_eq!(r, expected, "scale{n} {} {} checksum", mode.name(), level.name());
            verified_variants += 1;
            if mode == CompileMode::Each {
                match level {
                    OmLevel::Full => full_each = Some(Arc::new(out)),
                    OmLevel::FullSched => {
                        insts = i;
                        om_full_sched = dt;
                        sched_each = Some(Arc::new(out));
                    }
                    _ => {}
                }
            }
        }
    }
    let full_each = full_each.expect("OmLevel::ALL covers Full");
    let sched_each = sched_each.expect("OmLevel::ALL covers FullSched");

    // Sampled-simulation oracle: functional fields must be exact.
    let sampled_exact = {
        let t0 = Instant::now();
        let (full_run, _) = run_timed_fast(&sched_each.image, SIM_LIMIT)
            .unwrap_or_else(|e| panic!("scale{n} full run: {e}"));
        let (sampled, report) = run_sampled(&sched_each.image, SIM_LIMIT, SAMPLE_INTERVAL)
            .unwrap_or_else(|e| panic!("scale{n} sampled run: {e}"));
        phase::add_sim(t0.elapsed());
        assert!(report.intervals >= 1);
        let exact = sampled.result == full_run.result
            && sampled.insts == full_run.insts
            && sampled.output == full_run.output;
        assert!(exact, "scale{n}: sampled functional results must be exact");
        exact
    };

    // Shared-library pack: the same program as a dynamic image, every
    // sixteenth entry preemptible. Conservative conventions must survive
    // for those entries and the checksum must not move.
    let shared = {
        let opts = OmOptions {
            preemptible: preemptible_entries(&spec),
            verify: true,
            ..OmOptions::default()
        };
        let t0 = Instant::now();
        let out = om_core::optimize_and_link_with(&each.objects, &each.libs, OmLevel::Full, &opts)
            .unwrap_or_else(|e| panic!("scale{n} shared-library pack: {e}"));
        phase::add_om(t0.elapsed());
        let (r, _) = run_checksum(&out, &format!("scale{n} shared-library pack"));
        assert_eq!(r, expected, "scale{n}: dynamic image checksum");
        assert!(
            out.stats.calls_gp_reset_after >= full_each.stats.calls_gp_reset_after,
            "scale{n}: preemptible entries must not lose conservative call code"
        );
        (out.stats.calls_gp_reset_after, r == expected)
    };

    // Archive pack: deep library-to-library chains, demand-driven selection.
    let archive = {
        let members_per = (n / 16).clamp(4, 14);
        let pack = archive_pack(4, members_per, 3).expect("archive pack build");
        let expected = pack
            .expected(INTERP_STEPS)
            .unwrap_or_else(|e| panic!("scale{n} archive-pack interpreter: {e}"));
        let t0 = Instant::now();
        let out =
            om_core::optimize_and_link_with(&pack.objects, &pack.libs, OmLevel::Full, &verify_opts)
                .unwrap_or_else(|e| panic!("scale{n} archive pack: {e}"));
        phase::add_om(t0.elapsed());
        let live = out.link.modules - pack.objects.len();
        assert_eq!(live, pack.live_members, "scale{n}: archive selection must be demand-driven");
        let (r, _) = run_checksum(&out, &format!("scale{n} archive pack"));
        assert_eq!(r, expected, "scale{n}: archive-pack checksum");
        (live, pack.total_members, pack.chain_depth, r)
    };

    // Relink cache at scale: cold fill, then a single-module edit. The
    // cache is fresh and private so the counters are deterministic.
    let caches = OmCaches::new(2 * std_stats.modules + 64, 8);
    let t0 = Instant::now();
    let (cold, _) = optimize_and_link_cached(
        &each.objects,
        &each.libs,
        OmLevel::FullSched,
        &verify_opts,
        &caches,
    )
    .unwrap_or_else(|e| panic!("scale{n} cold relink: {e}"));
    let relink_cold = t0.elapsed().as_secs_f64();
    phase::add_om(t0.elapsed());
    let m0 = caches.modules.stats();
    let mut edited = each.objects.clone();
    let idx = edited.len() / 2;
    edited[idx].data.extend_from_slice(&[7; 8]);
    let t0 = Instant::now();
    let (warm, _) = optimize_and_link_cached(
        &edited,
        &each.libs,
        OmLevel::FullSched,
        &verify_opts,
        &caches,
    )
    .unwrap_or_else(|e| panic!("scale{n} edited relink: {e}"));
    let relink_edit = t0.elapsed().as_secs_f64();
    phase::add_om(t0.elapsed());
    let m1 = caches.modules.stats();
    let edit_module_misses = m1.misses - m0.misses;
    let edit_hits = m1.hits - m0.hits;
    assert_eq!(edit_module_misses, 1, "scale{n}: one edit must recompute one module");
    let edit_hit_rate = edit_hits as f64 / (edit_hits + edit_module_misses).max(1) as f64;
    assert!(
        cold.image.to_bytes() != warm.image.to_bytes(),
        "scale{n}: the edited relink must serve the edited image, not the cached one"
    );

    let row = ScaleRow {
        n,
        procs: total_procs(&spec),
        objects_each: each.objects.len(),
        objects_all: all.objects.len(),
        gat_entries_input: std_stats.gat_entries_input,
        gat_slots: std_stats.gat_slots,
        gp_groups_each: std_stats.gp_groups,
        gp_groups_all: all_gp_groups,
        gat_slots_after_full: full_each.stats.gat_slots_after,
        gp_resets_after_full: full_each.stats.calls_gp_reset_after,
        checksum: expected,
        insts,
        verified_variants,
        shared_gp_resets_kept: shared.0,
        shared_identical: shared.1,
        archive_members_live: archive.0,
        archive_members_total: archive.1,
        archive_chain_depth: archive.2,
        archive_checksum: archive.3,
        edit_module_misses,
        edit_hit_rate,
        sampled_exact,
    };
    assert!(row.gp_groups_each >= 2, "scale{n}: compile-each must split GAT groups");
    assert!(row.gp_groups_all >= 2, "scale{n}: compile-all must split GAT groups");
    let times = ScaleTimeRow { standard_link, om_full_sched, relink_cold, relink_edit };
    (row, times)
}

/// A [`crate::figures::BenchRows`] carrying only this scale point (the 19
/// paper benchmarks leave both scale fields `None`).
pub fn bench_rows(n: usize) -> crate::figures::BenchRows {
    let (row, times) = measure_scale(n);
    crate::figures::BenchRows {
        name: format!("scale{n}"),
        fig3: None,
        fig4: None,
        fig5: None,
        fig6: None,
        fig7: None,
        gat: None,
        pgo: None,
        fleet: None,
        passes: None,
        scale: Some(row),
        scaletime: Some(times),
        sim_seconds: 0.0,
    }
}

/// Helper for `omfleet --scale`: the compile-each build of a scale point.
pub fn built_each(n: usize) -> BuiltBenchmark {
    build_scale(&scale_spec(n), CompileMode::Each).expect("scale compile-each")
}

/// Sanity used by `omfleet --scale`: relinks a scale build through a
/// deliberately tiny cache and checks the eviction bound — the cache never
/// holds more than its capacity, evicts under pressure, and still serves a
/// byte-identical image.
///
/// # Panics
///
/// Panics if the bound or byte-identity is violated.
pub fn eviction_smoke(b: &BuiltBenchmark, module_cap: usize) {
    let caches = OmCaches::new(module_cap, 2);
    let opts = OmOptions { verify: true, ..OmOptions::default() };
    let (out, _) =
        optimize_and_link_cached(&b.objects, &b.libs, OmLevel::Full, &opts, &caches)
            .expect("eviction smoke relink");
    let stats = caches.modules.stats();
    assert!(
        caches.modules.len() <= module_cap,
        "module cache exceeded its bound: {} > {module_cap}",
        caches.modules.len()
    );
    assert!(stats.evictions > 0, "a scale build must overflow a {module_cap}-entry cache");
    let fresh = optimize_and_link(&b.objects, &b.libs, OmLevel::Full)
        .expect("eviction smoke one-shot");
    assert_eq!(
        out.image.to_bytes(),
        fresh.image.to_bytes(),
        "evictions must never change the served image"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_points_are_bounded() {
        assert_eq!(points(true), vec![16, 64]);
        assert!(points(false).contains(&1000));
    }
}
