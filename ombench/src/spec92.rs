//! `spec92`: the paper's own evaluation shape. The 19 SPEC92-shaped
//! programs in both compile modes (38 programs), each linked standard and
//! by OM at all four levels (190 images), every image simulated with timing
//! on the block engine, sequentially on one thread.
//!
//! The unit operation is one sweep over the 38 programs, each program's
//! five links and five timed simulations. The auxiliary operation is one
//! timed simulation. The host reference kernel runs once before each
//! program, and each program's time is brought to reference speed by the
//! kernel runs around it before the sweep's are summed: a sum over the
//! whole suite, unlike a median over programs of very different sizes,
//! does not jump between programs as the host's speed shifts. The seed
//! permutes the link order of each program's user objects (run time shifts
//! with layout).

use crate::layers::{counters, Counts};
use crate::probes::{layer_probes, Inputs};
use crate::setup::{
    compile_all, compile_each, reorder_user_objects, spanned, stdlib, INTERP_STEPS, SIM_LIMIT,
};
use crate::stats::{geomean, permutation};
use crate::{metric, Config, Measured, Metric, Workload};
use om_core::{optimize_and_link_with, OmLevel, OmOptions};
use om_linker::{link_modules, LayoutOpts};
use om_objfile::{Archive, Module};
use om_obs::Trace;
use om_sim::run_timed_fast;
use om_workloads::build::{interp_reference, sources};
use om_workloads::spec;
use std::time::Instant;

/// One program of the suite, ready to link.
struct Program {
    name: String,
    objects: Vec<Module>,
    reference: i64,
}

/// The `spec92` workload state.
pub struct Spec92 {
    programs: Vec<Program>,
    libs: Vec<Archive>,
}

/// Images per program: the standard link plus one per OM level.
const IMAGES: usize = 1 + OmLevel::ALL.len();

impl Workload for Spec92 {
    fn setup(cfg: &Config) -> Result<Spec92, String> {
        let libs = stdlib()?;
        let mut programs = Vec::new();
        for (si, s) in spec::all()
            .into_iter()
            .take(cfg.size.spec_programs)
            .enumerate()
        {
            let s = if cfg.size.spec_quick {
                spec::quick(&s)
            } else {
                s
            };
            let srcs = spanned("bench.gen", || sources(&s));
            let each = compile_each(&srcs)?;
            let order = permutation(each.len() - 1, cfg.seed, si as u64);
            let each = reorder_user_objects(each, &order);
            let all = compile_all(&format!("{}_all", s.name), &srcs)?;
            let reference = spanned("bench.interp", || interp_reference(&s, INTERP_STEPS))
                .map_err(|e| format!("{}: interpreter: {e}", s.name))?;
            programs.push(Program {
                name: format!("{}/each", s.name),
                objects: each,
                reference,
            });
            programs.push(Program {
                name: format!("{}/all", s.name),
                objects: all,
                reference,
            });
        }
        Ok(Spec92 { programs, libs })
    }

    fn measure(
        &mut self,
        seconds: f64,
        _phase: usize,
        trace: Option<&Trace>,
        counts: &mut Counts,
    ) -> Result<Measured, String> {
        let mut m = Measured::default();
        let (mut sim_s, mut sim_insts, mut sweeps) = (0.0, 0u64, 0u32);
        let (mut cycle_ratios, mut text_ratios) = (Vec::new(), Vec::new());
        let start = Instant::now();
        loop {
            let sweep_start = Instant::now();
            let before = counters(trace);
            let mut sweep_counts = Counts::default();
            m.begin_op();
            for p in &self.programs {
                m.probe_host();
                let t0 = Instant::now();
                let mut images = Vec::with_capacity(IMAGES);
                let std = spanned("bench.std_link", || {
                    link_modules(&p.objects, &self.libs, &LayoutOpts::default())
                });
                images.push(std.map_err(|e| e.to_string()));
                let mut om_text = [0u64; OmLevel::ALL.len()];
                for level in OmLevel::ALL {
                    let out = spanned("bench.om_link", || {
                        optimize_and_link_with(&p.objects, &self.libs, level, &OmOptions::default())
                    });
                    images.push(out.map_err(|e| e.to_string()).map(|out| {
                        om_text[level.index()] = out.link.text_bytes;
                        sweep_counts.add_om(&out);
                        (out.image, out.link)
                    }));
                }
                let mut cycles = [0u64; IMAGES];
                let mut results = Vec::with_capacity(IMAGES);
                for (i, img) in images.iter().enumerate() {
                    let r = match img {
                        Ok((image, _)) => {
                            let t = Instant::now();
                            let run = spanned("bench.sim", || run_timed_fast(image, SIM_LIMIT));
                            let dt = t.elapsed().as_secs_f64();
                            m.aux(dt * 1e3);
                            sim_s += dt;
                            run.map(|(r, ts)| {
                                sim_insts += ts.insts;
                                cycles[i] = ts.cycles;
                                sweep_counts.add_sim(&ts);
                                r.result
                            })
                            .map_err(|e| e.to_string())
                        }
                        Err(e) => Err(e.clone()),
                    };
                    results.push(r);
                }
                m.op_part(t0.elapsed().as_secs_f64() * 1e3);
                m.ops += 1;
                // The oracle: every image computes the interpreter's result.
                for (i, r) in results.into_iter().enumerate() {
                    m.tally(match r {
                        Ok(v) if v == p.reference => Ok(()),
                        Ok(v) => Err(format!(
                            "{} image {i}: result {v}, want {}",
                            p.name, p.reference
                        )),
                        Err(e) => Err(format!("{} image {i}: {e}", p.name)),
                    });
                }
                if sweeps == 0 {
                    if let Ok((_, std_link)) = &images[0] {
                        sweep_counts.add_link(std_link);
                        let full_sched = 1 + OmLevel::FullSched.index();
                        if cycles[0] > 0 && cycles[full_sched] > 0 {
                            cycle_ratios.push(cycles[full_sched] as f64 / cycles[0] as f64);
                        }
                        let full = om_text[OmLevel::Full.index()];
                        if full > 0 {
                            text_ratios.push(full as f64 / std_link.text_bytes as f64);
                        }
                    }
                }
            }
            if sweeps == 0 {
                sweep_counts.add_counters(&before, &counters(trace));
                *counts = sweep_counts;
            }
            sweeps += 1;
            let sweep_s = sweep_start.elapsed().as_secs_f64();
            if start.elapsed().as_secs_f64() + sweep_s > seconds {
                break;
            }
        }
        m.wall_s = start.elapsed().as_secs_f64();
        let cycles_ratio = geomean(&cycle_ratios);
        m.out_ratio = cycles_ratio;
        m.report = vec![
            metric("sweeps", f64::from(sweeps), "count"),
            metric("sweep_s", (m.wall_s - m.probe_s) / f64::from(sweeps), "s"),
            metric(
                "sim_minst_per_s",
                sim_insts as f64 / sim_s.max(1e-9) / 1e6,
                "Minst/s",
            ),
        ];
        if let Some(r) = cycles_ratio {
            m.report.push(metric("cycles_ratio_full_sched", r, "ratio"));
        }
        if let Some(r) = geomean(&text_ratios) {
            m.report.push(metric("text_ratio_full", r, "ratio"));
        }
        Ok(m)
    }

    fn check(&mut self, m: &mut Measured, _trace: Option<&Trace>, _counts: &mut Counts) {
        // Images are checked as they are simulated; what is left is that
        // the Fig. 6 ratio exists at all.
        if m.out_ratio.is_none() {
            m.tally(Err(
                "no cycles ratio: every standard or OM-full w/sched image failed".into(),
            ));
        }
    }

    fn probes(&self, m: &mut Measured) -> Result<Vec<Metric>, String> {
        let inputs: Vec<Inputs<'_>> = self
            .programs
            .iter()
            .map(|p| (p.objects.as_slice(), self.libs.as_slice()))
            .collect();
        layer_probes(&inputs, m)
    }
}
