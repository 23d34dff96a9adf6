//! Proof that `Prepared` memoization works: overlapping figures share one
//! pipeline run per `(mode, level)`, and the cached results are identical
//! to fresh uncached runs.
//!
//! Runs are counted by the `pipeline.runs` counter of a trace installed on
//! the test's own thread: `Prepared` runs its pipelines on the calling
//! thread, so pipelines other tests run on their threads do not count.

use om_bench::figures::{self, Prepared};
use om_core::{optimize_and_link, OmLevel};
use om_obs::Trace;
use om_workloads::build::{build, CompileMode};
use om_workloads::spec;

#[test]
fn overlapping_figures_share_pipeline_runs_and_match_fresh_results() {
    let trace = Trace::new();
    let _g = trace.install();
    let pipeline_runs = || trace.counters().get("pipeline.runs").copied().unwrap_or(0);
    let s = spec::quick(&spec::by_name("compress").unwrap());
    let p = Prepared::new(&s);
    assert_eq!(pipeline_runs(), 0, "building must not run the OM pipeline");

    // fig3 needs (2 modes) x {Simple, Full}; fig4 adds {None}; fig5 and the
    // GAT table re-use fig3/fig4's runs entirely.
    let _ = figures::fig3(&p);
    assert_eq!(pipeline_runs(), 4);
    let _ = figures::fig4(&p);
    assert_eq!(pipeline_runs(), 6);
    let _ = figures::fig5(&p);
    let _ = figures::gat(&p);
    assert_eq!(
        pipeline_runs(),
        6,
        "fig5/gat must be served entirely from the memoized grid"
    );

    // Touch the whole 2x4 grid, then again: the second sweep is free.
    for &mode in &CompileMode::ALL {
        for &level in &OmLevel::ALL {
            let _ = p.om_stats(mode, level);
        }
    }
    let full_grid = pipeline_runs();
    assert_eq!(full_grid, (CompileMode::ALL.len() * OmLevel::ALL.len()) as u64);
    for &mode in &CompileMode::ALL {
        for &level in &OmLevel::ALL {
            let _ = p.om_stats(mode, level);
        }
    }
    assert_eq!(pipeline_runs(), full_grid, "every cell must be cached");

    // The memoized stats equal a fresh, uncached pipeline run for every
    // (mode, level) cell.
    for &mode in &CompileMode::ALL {
        let built = build(&s, mode).unwrap();
        for &level in &OmLevel::ALL {
            let fresh = optimize_and_link(&built.objects, &built.libs, level).unwrap();
            assert_eq!(
                p.om_stats(mode, level),
                fresh.stats,
                "{} {}",
                mode.name(),
                level.name()
            );
        }
    }
}
