//! `ombench`: the end-to-end and per-layer benchmark of the OM reproduction.
//!
//! Three workloads, each stressing a different layer (see `README.md`):
//!
//! * `spec92` — the 19 SPEC92-shaped programs in both compile modes, linked
//!   standard and at every OM level, every image simulated with timing
//!   (the simulator dominates);
//! * `scale-link` — repeated cold OM-full w/sched links of a 256-module
//!   program (the OM pipeline and the linker dominate);
//! * `edit-relink` — two closed-loop clients relinking single-module
//!   editions of a 64-module program through an `omd` server, each edition
//!   once as a cache miss and once as a hit (the caches and the server).
//!
//! A run sets up [`Size::setup_reps`] times (the median is `setup_s`),
//! measures for the given number of seconds with tracing off, and checks
//! every output against the interpreter reference outside the timed
//! region. Set-up and measurement time the [`host`] reference kernel
//! around and between operations, and every time in the JSON is reported
//! at reference host speed. A traced run additionally repeats set-up and measurement under
//! an [`om_obs::Trace`] and reports per-layer metrics and the tracing
//! overhead.

pub mod edit_relink;
pub mod host;
pub mod layers;
pub mod probes;
pub mod scale_link;
pub mod setup;
pub mod spec92;
pub mod stats;

use layers::{Counts, Spans};
use om_obs::Trace;
use stats::{median, peak_rss_mb, release_free_heap, reset_peak_rss};
use std::time::Instant;

/// The workload names, in the order `README.md` documents them.
pub const WORKLOADS: [&str; 3] = ["spec92", "scale-link", "edit-relink"];

/// The end-to-end metrics every workload reports with tracing off (what
/// each means per workload is tabled in `README.md`). `op_p50` and
/// `aux_p50` are at reference host speed (see [`host`]).
pub const END_TO_END: [&str; 5] = ["setup_s", "peak_rss_mb", "op_p50", "aux_p50", "out_ratio"];

/// The per-layer metrics every workload reports in a traced run.
pub const PER_LAYER: [&str; 41] = [
    "core.pipeline_ms",
    "core.translate_ms",
    "core.resolve_ms",
    "core.calls_ms",
    "core.convert_ms",
    "core.nullify_ms",
    "core.resched_ms",
    "core.emit_ms",
    "core.untraced_ms",
    "core.untraced_share",
    "core.snapshot_ms",
    "core.verify_ms",
    "core.hash_ms",
    "core.full_rounds",
    "core.insts_deleted",
    "core.gat_slots_after",
    "linker.select_ms",
    "linker.layout_ms",
    "linker.image_ms",
    "linker.std_link_ms",
    "linker.gp_groups",
    "linker.gat_slots",
    "linker.text_bytes",
    "sim.run_ms",
    "sim.decode_ms",
    "sim.dispatch_ms",
    "sim.insts",
    "sim.cycles",
    "sim.dual_issued",
    "sim.icache_misses",
    "sim.dcache_misses",
    "sim.blocks_decoded",
    "objfile.codec_ms",
    "workloads.gen_ms",
    "codegen.compile_ms",
    "minic.interp_ms",
    "overhead.setup_s",
    "overhead.peak_rss_mb",
    "overhead.op_p50",
    "overhead.aux_p50",
    "overhead.out_ratio",
];

/// Workload sizes. [`Size::full`] is what the benchmark measures;
/// [`Size::small`] keeps the same shapes at test size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// How many of the 19 SPEC92-shaped programs (in suite order).
    pub spec_programs: usize,
    /// Cut the SPEC92-shaped programs to their quick iteration counts.
    pub spec_quick: bool,
    /// Modules of the `scale-link` program.
    pub scale_link_modules: usize,
    /// Modules of the `edit-relink` program.
    pub edit_modules: usize,
    /// Editions prepared per client per measured phase.
    pub editions: usize,
    /// Set-ups per run (`setup_s` is their median).
    pub setup_reps: usize,
    /// Reference-kernel runs before and after each measured phase.
    pub host_probes: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Size {
        Size {
            spec_programs: 19,
            spec_quick: false,
            scale_link_modules: 256,
            edit_modules: 64,
            editions: 96,
            setup_reps: 3,
            host_probes: 12,
        }
    }

    /// Test sizes: seconds in a debug build.
    pub fn small() -> Size {
        Size {
            spec_programs: 3,
            spec_quick: true,
            scale_link_modules: 8,
            edit_modules: 8,
            editions: 4,
            setup_reps: 1,
            host_probes: 1,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Which measured phase of the run this is (see [`Workload::measure`]).
    pub phase: usize,
    /// Durations of the workload's unit operation, ms.
    pub op_ms: Vec<f64>,
    /// Durations of its secondary operation, ms.
    pub aux_ms: Vec<f64>,
    /// `op_ms` and `aux_ms` at reference host speed, each part of an
    /// operation by the mean of the reference kernel's times just before
    /// and just after it, when the phase runs the kernel between
    /// operations ([`Measured::probe_host`]); empty when it does not, and
    /// then the phase's median kernel time is used.
    pub op_ref: Vec<f64>,
    pub aux_ref: Vec<f64>,
    /// Parts of operations timed since the latest kernel run, waiting for
    /// the next one to be brought to reference speed.
    pending: Vec<(Part, f64)>,
    /// Unit operations completed.
    pub ops: u64,
    /// Wall time of the phase, seconds, including [`Measured::probe_host`].
    pub wall_s: f64,
    /// Times of the [`host`] reference kernel in this phase's run, ms.
    pub host_ms: Vec<f64>,
    /// Time spent in [`Measured::probe_host`] within the phase, seconds.
    pub probe_s: f64,
    /// The latest [`Measured::probe_host`] time, ms.
    last_probe_ms: Option<f64>,
    /// Peak resident memory during the phase (None where unsupported).
    pub peak_rss_mb: Option<f64>,
    /// The workload's output-quality ratio (set by measure or check).
    pub out_ratio: Option<f64>,
    /// Operations and output checks attempted, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// The workload's own named metrics, for the report.
    pub report: Vec<Metric>,
}

impl Measured {
    /// Records one attempted operation or check; prints the reason of a
    /// failure to stderr.
    pub fn tally(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            eprintln!("ombench: FAILED: {e}");
        }
    }

    /// Times the [`host`] reference kernel once, between two operations
    /// of a single-threaded phase.
    pub fn probe_host(&mut self) {
        let ms = host::probe_ms();
        self.probe_s += ms / 1e3;
        self.settle(ms);
    }

    /// Records a kernel time and brings the parts timed since the previous
    /// one to reference speed by the mean of the two.
    fn settle(&mut self, probe_ms: f64) {
        let around = match self.last_probe_ms {
            Some(last) => (last + probe_ms) / 2.0,
            None => probe_ms,
        };
        for (part, ms) in self.pending.drain(..) {
            let ref_ms = ms * host::REF_MS / around;
            match part {
                Part::Op(i) => self.op_ref[i] += ref_ms,
                Part::Aux(i) => self.aux_ref[i] = ref_ms,
            }
        }
        self.host_ms.push(probe_ms);
        self.last_probe_ms = Some(probe_ms);
    }

    /// Starts a unit operation made of parts timed one by one
    /// ([`Measured::op_part`]), with kernel runs between them.
    pub fn begin_op(&mut self) {
        self.op_ms.push(0.0);
        self.op_ref.push(0.0);
    }

    /// Adds a part of `ms` to the current unit operation.
    pub fn op_part(&mut self, ms: f64) {
        let i = self.op_ms.len() - 1;
        self.op_ms[i] += ms;
        self.pending.push((Part::Op(i), ms));
    }

    /// Records one unit operation of `ms`.
    pub fn op(&mut self, ms: f64) {
        self.begin_op();
        self.op_part(ms);
    }

    /// Records one secondary operation of `ms`.
    pub fn aux(&mut self, ms: f64) {
        self.pending.push((Part::Aux(self.aux_ms.len()), ms));
        self.aux_ms.push(ms);
        self.aux_ref.push(0.0);
    }
}

/// What a timed part belongs to: the index of a unit or secondary
/// operation.
#[derive(Debug, Clone, Copy)]
enum Part {
    Op(usize),
    Aux(usize),
}

/// A workload: set-up, a timed phase, output checks, and the layer probes
/// timed from outside.
pub trait Workload: Sized {
    /// One complete set-up.
    fn setup(cfg: &Config) -> Result<Self, String>;

    /// The timed phase. `phase` numbers the measured phases of one run (0
    /// untraced, 1 traced). Adds the deterministic slice of its work to
    /// `counts`.
    fn measure(
        &mut self,
        seconds: f64,
        phase: usize,
        trace: Option<&Trace>,
        counts: &mut Counts,
    ) -> Result<Measured, String>;

    /// Checks every output of `m` (outside any timed region), adding the
    /// deterministic slice of the checking work to `counts`.
    fn check(&mut self, m: &mut Measured, trace: Option<&Trace>, counts: &mut Counts);

    /// Per-layer probes timed from outside (hashing, codec, snapshot,
    /// verify); verification failures count against `m`.
    fn probes(&self, m: &mut Measured) -> Result<Vec<Metric>, String>;

    /// Layer metrics only this workload has (printed in the report).
    fn layer_report(_spans: &Spans, _m: &Measured) -> Vec<Metric> {
        Vec::new()
    }
}

/// The result of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// [`END_TO_END`], measured with tracing off.
    pub end_to_end: Vec<Metric>,
    /// [`PER_LAYER`] (traced runs only).
    pub per_layer: Vec<Metric>,
    /// The workload's own metrics and report-only layer metrics.
    pub report: Vec<Metric>,
    /// The deterministic counts of the traced phase (traced runs only).
    pub counts: Option<Counts>,
}

/// Runs one configured benchmark invocation.
///
/// # Errors
///
/// Unknown workloads and set-up failures (output mismatches are counted in
/// the outcome instead).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = match cfg.workload.as_str() {
        "spec92" => run_workload::<spec92::Spec92>(cfg),
        "scale-link" => run_workload::<scale_link::ScaleLink>(cfg),
        "edit-relink" => run_workload::<edit_relink::EditRelink>(cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }?;
    let error_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.report.push(metric("error_ratio", error_ratio, "ratio"));
    Ok(out)
}

/// The median set-up time of a run: as measured, and at reference host
/// speed (`setup_s`).
#[derive(Debug, Clone, Copy)]
struct SetupTime {
    wall_s: f64,
    ref_s: f64,
}

/// Sets up `reps` times, each under `trace` when given, keeping the last.
/// The host reference kernel runs before each set-up and after the last.
fn setups<W: Workload>(cfg: &Config, trace: Option<&Trace>) -> Result<(W, SetupTime), String> {
    let mut times = Vec::new();
    let mut probes = Vec::new();
    let mut last = None;
    for _ in 0..cfg.size.setup_reps.max(1) {
        drop(last.take());
        probes.push(host::probe_ms());
        let _g = trace.map(Trace::install);
        let t = Instant::now();
        last = Some(W::setup(cfg)?);
        times.push(t.elapsed().as_secs_f64());
    }
    probes.push(host::probe_ms());
    let wall_s = median(&times).expect("at least one set-up");
    let ref_s = wall_s * host::speed_factor(&probes).expect("at least one probe");
    Ok((
        last.expect("at least one set-up"),
        SetupTime { wall_s, ref_s },
    ))
}

/// One measured phase, with the peak-RSS mark reset at its start (after
/// the allocator has returned what set-up freed).
fn measure<W: Workload>(
    w: &mut W,
    cfg: &Config,
    phase: usize,
    trace: Option<&Trace>,
    counts: &mut Counts,
) -> Result<Measured, String> {
    release_free_heap();
    let before = host::probes(cfg.size.host_probes);
    let rss = reset_peak_rss();
    let mut m = {
        let _g = trace.map(Trace::install);
        w.measure(cfg.seconds, phase, trace, counts)?
    };
    m.peak_rss_mb = if rss { peak_rss_mb() } else { None };
    for ms in host::probes(cfg.size.host_probes) {
        m.settle(ms);
    }
    m.host_ms.extend(before);
    Ok(m)
}

/// [`END_TO_END`] from a set-up median and a checked phase. A metric that
/// could not be measured (peak RSS on a kernel without `clear_refs`) is
/// left out, never reported as 0.
fn end_to_end(setup_s: f64, m: &Measured) -> Vec<Metric> {
    let mut out = vec![metric("setup_s", setup_s, "s")];
    if let Some(v) = m.peak_rss_mb {
        out.push(metric("peak_rss_mb", v, "MB"));
    }
    let (op, aux) = at_ref(m);
    if let Some(v) = median(&op) {
        out.push(metric("op_p50", v, "ref_ms"));
    }
    if let Some(v) = median(&aux) {
        out.push(metric("aux_p50", v, "ref_ms"));
    }
    if let Some(v) = m.out_ratio {
        out.push(metric("out_ratio", v, "ratio"));
    }
    out
}

/// The phase's operation and secondary-operation times at reference host
/// speed: as the phase recorded them, or by its median kernel time.
fn at_ref(m: &Measured) -> (Vec<f64>, Vec<f64>) {
    let f = host::speed_factor(&m.host_ms).unwrap_or(1.0);
    let adjust = |raw: &[f64], adjusted: &[f64]| {
        if adjusted.len() == raw.len() {
            adjusted.to_vec()
        } else {
            raw.iter().map(|v| v * f).collect()
        }
    };
    (adjust(&m.op_ms, &m.op_ref), adjust(&m.aux_ms, &m.aux_ref))
}

/// Operations per second of the phase, the reference-kernel runs between
/// operations not counted.
fn ops_per_s(m: &Measured) -> f64 {
    m.ops as f64 / (m.wall_s - m.probe_s).max(1e-9)
}

/// The measured (not speed-adjusted) times behind `setup_s`, `op_p50` and
/// `aux_p50`, the phase's rate, and the reference kernel's median time in
/// the phase, for the report.
fn raw_times(setup: SetupTime, m: &Measured) -> Vec<Metric> {
    let mut out = vec![metric("setup_wall_s", setup.wall_s, "s")];
    if let Some(v) = median(&m.op_ms) {
        out.push(metric("op_ms_p50", v, "ms"));
    }
    if let Some(v) = median(&m.aux_ms) {
        out.push(metric("aux_ms_p50", v, "ms"));
    }
    out.push(metric("ops_per_s", ops_per_s(m), "1/s"));
    if let Some(v) = median(&m.host_ms) {
        out.push(metric("host_probe_ms", v, "ms"));
    }
    out
}

fn run_workload<W: Workload>(cfg: &Config) -> Result<Outcome, String> {
    if !cfg.trace {
        let (mut w, setup) = setups::<W>(cfg, None)?;
        let mut counts = Counts::default();
        let mut m = measure(&mut w, cfg, 0, None, &mut counts)?;
        w.check(&mut m, None, &mut counts);
        let end_to_end = end_to_end(setup.ref_s, &m);
        let mut report = raw_times(setup, &m);
        report.append(&mut m.report);
        report.extend(end_to_end.iter().cloned());
        return Ok(Outcome {
            attempted: m.attempted,
            failed: m.failed,
            end_to_end,
            report,
            ..Outcome::default()
        });
    }

    let trace = Trace::new();
    let (traced_w, traced_setup) = setups::<W>(cfg, Some(&trace))?;
    drop(traced_w);
    let setup_spans = Spans::new(trace.take_sink());
    let (mut w, setup) = setups::<W>(cfg, None)?;

    let mut scratch = Counts::default();
    let mut m0 = measure(&mut w, cfg, 0, None, &mut scratch)?;
    let mut counts = Counts::default();
    let mut m1 = measure(&mut w, cfg, 1, Some(&trace), &mut counts)?;
    let mspans = Spans::new(trace.take_sink());
    w.check(&mut m0, None, &mut scratch);
    {
        let _g = trace.install();
        w.check(&mut m1, Some(&trace), &mut counts);
    }
    let cspans = Spans::new(trace.take_sink());
    let probes = w.probes(&mut m1)?;

    let untraced = end_to_end(setup.ref_s, &m0);
    let traced = end_to_end(traced_setup.ref_s, &m1);
    let overhead: Vec<Metric> = untraced
        .iter()
        .filter_map(|u| {
            let t = traced.iter().find(|t| t.name == u.name)?;
            Some(metric(
                format!("overhead.{}", u.name),
                t.value - u.value,
                u.unit,
            ))
        })
        .collect();

    let mut per_layer = core_linker_sim(&mspans, &cspans);
    per_layer.extend(probes);
    per_layer.extend(
        counts
            .metrics()
            .into_iter()
            .map(|(n, v)| metric(n, v as f64, "count")),
    );
    let reps = cfg.size.setup_reps.max(1) as f64;
    for (name, span) in [
        ("workloads.gen_ms", "bench.gen"),
        ("codegen.compile_ms", "bench.compile"),
        ("minic.interp_ms", "bench.interp"),
    ] {
        per_layer.push(metric(
            name,
            layers::ms(setup_spans.get(span).total_ns) / reps,
            "ms",
        ));
    }
    per_layer.extend(overhead);

    let mut report = raw_times(setup, &m0);
    report.append(&mut m0.report);
    report.extend(untraced.iter().cloned());
    report.extend(W::layer_report(&mspans, &m1));
    Ok(Outcome {
        attempted: m0.attempted + m1.attempted,
        failed: m0.failed + m1.failed,
        end_to_end: untraced,
        per_layer,
        report,
        counts: Some(counts),
    })
}

/// The span-derived `core`, `linker` and `sim` time metrics. Pipeline
/// metrics are per pipeline run of the traced measured phase; the
/// simulator and standard-link metrics are per call, taken from the
/// measured phase when the workload makes that call there and from its
/// checks otherwise.
fn core_linker_sim(m: &Spans, c: &Spans) -> Vec<Metric> {
    let runs = m.get("pipeline").count.max(1) as f64;
    let per_run = |name: &str| layers::ms(m.get(name).self_ns) / runs;
    let pipeline = m.get("pipeline");
    let mut out = vec![metric(
        "core.pipeline_ms",
        layers::ms(pipeline.total_ns) / runs,
        "ms",
    )];
    for (name, span) in [
        ("core.translate_ms", "pass.translate"),
        ("core.resolve_ms", "pass.resolve"),
        ("core.calls_ms", "pass.calls"),
        ("core.convert_ms", "pass.convert"),
        ("core.nullify_ms", "pass.nullify"),
        ("core.resched_ms", "pass.resched"),
        ("core.emit_ms", "emit"),
        ("core.untraced_ms", "pipeline"),
        ("linker.select_ms", "select"),
    ] {
        out.push(metric(name, per_run(span), "ms"));
    }
    out.push(metric(
        "core.untraced_share",
        pipeline.self_ns as f64 / pipeline.total_ns.max(1) as f64,
        "ratio",
    ));
    out.push(metric("linker.layout_ms", m.mean_ms("link.layout"), "ms"));
    out.push(metric("linker.image_ms", m.mean_ms("link.image"), "ms"));
    let from = |name: &str| if m.has(name) { m } else { c };
    out.push(metric(
        "linker.std_link_ms",
        from("bench.std_link").mean_ms("bench.std_link"),
        "ms",
    ));
    let sims = from("bench.sim");
    let n = sims.get("bench.sim").count.max(1) as f64;
    out.push(metric("sim.run_ms", sims.mean_ms("bench.sim"), "ms"));
    for (name, timer) in [
        ("sim.decode_ms", "sim.decode"),
        ("sim.dispatch_ms", "sim.dispatch"),
    ] {
        let ns = sims.timers_ns.get(timer).copied().unwrap_or(0);
        out.push(metric(name, layers::ms(ns) / n, "ms"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_are_brought_to_reference_speed_by_the_kernel_runs_around_them() {
        let r = host::REF_MS;
        let mut m = Measured::default();
        m.settle(r);
        m.begin_op();
        m.op_part(10.0);
        m.aux(4.0);
        m.settle(3.0 * r); // the host slowed: parts since the last run at 2x
        m.op_part(6.0);
        m.settle(3.0 * r);
        m.op(9.0);
        m.settle(r); // back to 2x
        assert_eq!(m.op_ms, vec![16.0, 9.0]);
        assert_eq!(m.op_ref, vec![10.0 / 2.0 + 6.0 / 3.0, 9.0 / 2.0]);
        assert_eq!(m.aux_ref, vec![2.0]);
        assert_eq!(at_ref(&m), (m.op_ref.clone(), m.aux_ref.clone()));
    }

    #[test]
    fn phases_without_kernel_runs_between_operations_use_the_median() {
        let m = Measured {
            op_ms: vec![10.0, 30.0],
            aux_ms: vec![5.0],
            host_ms: vec![2.0 * host::REF_MS, 2.0 * host::REF_MS, 9.0],
            ..Measured::default()
        };
        assert_eq!(at_ref(&m), (vec![5.0, 15.0], vec![2.5]));
    }
}
