//! Tier-1 verifier sweep: every workload, both compile modes, all four OM
//! levels must link with `OmOptions::verify` and report zero violations, and
//! each must count the same pre-OM GAT as the standard link. OM-simple must
//! also delete and insert nothing.
//! This is the whole-program analogue of the per-invariant unit tests in
//! `om_core::verify` — it proves the invariants hold on real compiler
//! output, not just hand-built modules.
//!
//! The profile-guided sweep goes one step further: it runs each scheduled
//! image, collects an execution profile, relinks with the profile (verify
//! still on), and re-diffs the checksum — profile-guided layout must never
//! change program meaning.

use om_core::{optimize_and_link_with, OmLevel, OmOptions};
use om_linker::{link_modules, LayoutOpts};
use om_sim::{run_image, run_profiled};
use om_workloads::{build::build, spec, CompileMode};

/// Simulator instruction budget per run (quick-spec workloads are small).
const SIM_STEPS: u64 = 200_000_000;

#[test]
fn verifier_passes_on_every_workload_mode_and_level() {
    let options = OmOptions { verify: true, ..OmOptions::default() };
    for s in spec::all() {
        let quick = spec::quick(&s);
        for mode in CompileMode::ALL {
            let b = build(&quick, mode).expect("build");
            let (_, std_link) = link_modules(&b.objects, &b.libs, &LayoutOpts::default())
                .unwrap_or_else(|e| panic!("{} [{}] standard link: {e}", s.name, mode.name()));
            for level in OmLevel::ALL {
                let out = optimize_and_link_with(&b.objects, &b.libs, level, &options)
                    .unwrap_or_else(|e| {
                        panic!("{} [{}] {}: {e}", s.name, mode.name(), level.name())
                    });
                assert_eq!(
                    out.stats.gat_slots_before,
                    std_link.gat_slots,
                    "{} [{}] {}: GAT before OM differs from the standard link's",
                    s.name,
                    mode.name(),
                    level.name()
                );
                let report = out.verify.expect("verify requested");
                assert!(
                    report.checks > 0,
                    "{} [{}] {}: no checks ran",
                    s.name,
                    mode.name(),
                    level.name()
                );
                // OM-simple never moves code: it turns instructions into
                // no-ops in place and inserts none.
                if level == OmLevel::Simple {
                    assert_eq!(
                        out.stats.insts_deleted, 0,
                        "{} [{}] OM-simple deleted instructions",
                        s.name,
                        mode.name()
                    );
                    assert_eq!(
                        out.stats.unops_inserted, 0,
                        "{} [{}] OM-simple inserted no-ops",
                        s.name,
                        mode.name()
                    );
                }
            }
        }
    }
}

#[test]
fn pgo_relink_verifies_and_preserves_checksums_on_every_workload() {
    let options = OmOptions { verify: true, ..OmOptions::default() };
    for s in spec::all() {
        let quick = spec::quick(&s);
        for mode in CompileMode::ALL {
            let b = build(&quick, mode).expect("build");
            let sched =
                optimize_and_link_with(&b.objects, &b.libs, OmLevel::FullSched, &options)
                    .unwrap_or_else(|e| panic!("{} [{}] sched: {e}", s.name, mode.name()));
            let (reference, profile) = run_profiled(&sched.image, SIM_STEPS)
                .unwrap_or_else(|e| panic!("{} [{}] profile run: {e}", s.name, mode.name()));
            let popts = OmOptions { profile: Some(profile), ..options.clone() };
            let pgo = optimize_and_link_with(&b.objects, &b.libs, OmLevel::FullSched, &popts)
                .unwrap_or_else(|e| panic!("{} [{}] pgo: {e}", s.name, mode.name()));
            assert!(pgo.verify.expect("verify requested").checks > 0);
            let r = run_image(&pgo.image, SIM_STEPS)
                .unwrap_or_else(|e| panic!("{} [{}] pgo run: {e}", s.name, mode.name()));
            assert_eq!(
                r.result,
                reference.result,
                "{} [{}]: pgo relink changed the checksum",
                s.name,
                mode.name()
            );
        }
    }
}
