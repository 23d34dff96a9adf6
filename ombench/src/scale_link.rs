//! `scale-link`: cold OM-full w/sched links of the compile-each scale
//! program (256 modules, 25,600 procedures), one after another on one
//! thread, with verification off as the `om` command defaults. Each
//! iteration also makes the standard link of the same objects (the Fig. 7
//! baseline). The OM pipeline and the linker do the work; the simulator
//! only runs in the checks.
//!
//! The unit operation is one OM link; the auxiliary operation is one
//! standard link, made [`STD_LINKS`] times per iteration. The host
//! reference kernel runs once per iteration. The seed permutes the link
//! order of the user objects.

use crate::layers::{counters, Counts};
use crate::probes::layer_probes;
use crate::setup::{compile_each, reorder_user_objects, spanned, stdlib, INTERP_STEPS, SIM_LIMIT};
use crate::stats::permutation;
use crate::{metric, Config, Measured, Metric, Workload};
use om_core::hash::blake2s;
use om_core::{optimize_and_link_with, OmLevel, OmOptions};
use om_linker::{link_modules, Image, LayoutOpts, LinkStats};
use om_objfile::{Archive, Module};
use om_obs::Trace;
use om_sim::run_timed_fast;
use om_workloads::scale::{interp_reference_scale, scale_spec, sources};
use std::time::Instant;

/// Standard links per iteration: a standard link takes about a twentieth
/// of an OM link, so one per OM link would leave its median resting on a
/// dozen samples a run.
pub const STD_LINKS: usize = 3;

/// The `scale-link` workload state.
pub struct ScaleLink {
    objects: Vec<Module>,
    libs: Vec<Archive>,
    reference: i64,
    /// Per measured phase: the first OM and standard images, simulated by
    /// `check` (every later OM image is compared with the first by digest).
    phases: Vec<Option<(Image, (Image, LinkStats))>>,
}

impl Workload for ScaleLink {
    fn setup(cfg: &Config) -> Result<ScaleLink, String> {
        let spec = scale_spec(cfg.size.scale_link_modules);
        let libs = stdlib()?;
        let srcs = spanned("bench.gen", || sources(&spec));
        let objects = compile_each(&srcs)?;
        let order = permutation(objects.len() - 1, cfg.seed, 0);
        let objects = reorder_user_objects(objects, &order);
        let reference = spanned("bench.interp", || {
            interp_reference_scale(&spec, INTERP_STEPS)
        })
        .map_err(|e| format!("{}: interpreter: {e}", spec.name))?;
        Ok(ScaleLink {
            objects,
            libs,
            reference,
            phases: Vec::new(),
        })
    }

    fn measure(
        &mut self,
        seconds: f64,
        phase: usize,
        trace: Option<&Trace>,
        counts: &mut Counts,
    ) -> Result<Measured, String> {
        let mut m = Measured {
            phase,
            ..Measured::default()
        };
        let mut first: Option<(Image, [u8; 32])> = None;
        let mut first_std = None;
        let start = Instant::now();
        while m.ops == 0 || start.elapsed().as_secs_f64() < seconds {
            m.probe_host();
            let before = counters(trace);
            let t0 = Instant::now();
            let out = spanned("bench.om_link", || {
                optimize_and_link_with(
                    &self.objects,
                    &self.libs,
                    OmLevel::FullSched,
                    &OmOptions::default(),
                )
            });
            m.op(t0.elapsed().as_secs_f64() * 1e3);
            let mut std = None;
            for _ in 0..STD_LINKS {
                drop(std.take());
                let t1 = Instant::now();
                std = Some(spanned("bench.std_link", || {
                    link_modules(&self.objects, &self.libs, &LayoutOpts::default())
                }));
                m.aux(t1.elapsed().as_secs_f64() * 1e3);
            }
            let std = std.expect("STD_LINKS > 0");
            m.ops += 1;
            let (out, std) = match (out, std) {
                (Ok(out), Ok(std)) => (out, std),
                (out, std) => {
                    let err = out
                        .err()
                        .map(|e| e.to_string())
                        .or(std.err().map(|e| e.to_string()));
                    m.tally(Err(format!("link: {}", err.unwrap_or_default())));
                    continue;
                }
            };
            let digest = blake2s(&out.image.to_bytes());
            match &first {
                None => {
                    counts.add_om(&out);
                    counts.add_link(&std.1);
                    counts.add_counters(&before, &counters(trace));
                    first = Some((out.image, digest));
                    first_std = Some(std);
                    m.tally(Ok(()));
                }
                Some((_, d)) => m.tally(if *d == digest {
                    Ok(())
                } else {
                    Err(format!(
                        "link {}: image differs from the first link's",
                        m.ops
                    ))
                }),
            }
        }
        m.wall_s = start.elapsed().as_secs_f64();
        m.report = vec![
            metric("links", m.ops as f64, "count"),
            metric(
                "link_s_p50",
                crate::stats::median(&m.op_ms).unwrap_or(0.0) / 1e3,
                "s",
            ),
        ];
        if self.phases.len() <= phase {
            self.phases.resize_with(phase + 1, || None);
        }
        self.phases[phase] = first.zip(first_std).map(|((om, _), std)| (om, std));
        Ok(m)
    }

    fn check(&mut self, m: &mut Measured, trace: Option<&Trace>, counts: &mut Counts) {
        let Some((om, (std, std_link))) = self.phases.get_mut(m.phase).and_then(Option::take)
        else {
            return m.tally(Err("no link succeeded".to_string()));
        };
        let before = counters(trace);
        for (what, image) in [("OM-full w/sched", &om), ("standard", &std)] {
            let run = spanned("bench.sim", || run_timed_fast(image, SIM_LIMIT));
            m.tally(match run {
                Ok((r, ts)) => {
                    counts.add_sim(&ts);
                    if r.result == self.reference {
                        Ok(())
                    } else {
                        Err(format!(
                            "{what} image: result {}, want {}",
                            r.result, self.reference
                        ))
                    }
                }
                Err(e) => Err(format!("{what} image: {e}")),
            });
        }
        counts.add_counters(&before, &counters(trace));
        // Fig. 5's text ratio needs an OM-full (unscheduled) link.
        let full = spanned("bench.om_link", || {
            optimize_and_link_with(
                &self.objects,
                &self.libs,
                OmLevel::Full,
                &OmOptions::default(),
            )
        });
        match full {
            Ok(full) => {
                let ratio = full.link.text_bytes as f64 / std_link.text_bytes as f64;
                m.out_ratio = Some(ratio);
                m.report.push(metric("text_ratio_full", ratio, "ratio"));
            }
            Err(e) => m.tally(Err(format!("OM-full link: {e}"))),
        }
    }

    fn probes(&self, m: &mut Measured) -> Result<Vec<Metric>, String> {
        layer_probes(&[(&self.objects, &self.libs)], m)
    }
}
