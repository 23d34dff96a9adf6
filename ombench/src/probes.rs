//! Layer probes timed from outside the program: content hashing, the object
//! codec, one address snapshot, and the verifier, each over a workload's
//! link inputs. Hashing, the codec and the snapshot are repeated [`REPS`]
//! times and reported as their median; the verifier runs once per input.

use crate::stats::median;
use crate::{metric, Measured, Metric};
use om_core::analysis::Snapshot;
use om_core::sym::{resolve_symbolic, translate_module, SymProgram};
use om_core::verify::{verify_linked, verify_stats, verify_sym};
use om_core::{module_hash, optimize_and_link_artifacts, OmLevel, OmOptions};
use om_linker::{build_symbol_table, select_modules};
use om_objfile::binary::{read_module, write_module};
use om_objfile::{Archive, Module};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each probe.
pub const REPS: usize = 3;

/// One link's inputs.
pub type Inputs<'a> = (&'a [Module], &'a [Archive]);

/// Median over [`REPS`] of the summed time of `f` over every input, ms.
fn timed<'a>(
    inputs: &[Inputs<'a>],
    mut f: impl FnMut(&Inputs<'a>) -> Result<(), String>,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        for i in inputs {
            f(i)?;
        }
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&times).expect("REPS > 0"))
}

/// The translated, resolved input program of one link (what OM's first
/// snapshot sees).
fn translate(objects: &[Module], libs: &[Archive]) -> Result<SymProgram, String> {
    let modules = select_modules(objects, libs).map_err(|e| e.to_string())?;
    let symtab = build_symbol_table(&modules).map_err(|e| e.to_string())?;
    let locals = modules
        .iter()
        .map(translate_module)
        .collect::<Result<Vec<_>, _>>();
    Ok(resolve_symbolic(
        &locals.map_err(|e| e.to_string())?,
        &symtab,
    ))
}

/// `core.hash_ms`, `objfile.codec_ms`, `core.snapshot_ms` and
/// `core.verify_ms` over `inputs`. The verifier runs on the artifacts of an
/// OM-full w/sched link; its symbolic checks take the emitted modules
/// translated back, the closest the public interface offers to the
/// pipeline's own transformed program. A failed verification counts
/// against `m`.
pub fn layer_probes(inputs: &[Inputs<'_>], m: &mut Measured) -> Result<Vec<Metric>, String> {
    let hash = timed(inputs, |(objs, _)| {
        objs.iter().for_each(|o| {
            black_box(module_hash(o));
        });
        Ok(())
    })?;
    let codec = timed(inputs, |(objs, _)| {
        for o in *objs {
            read_module(&write_module(o)).map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;

    let programs = inputs
        .iter()
        .map(|(o, l)| translate(o, l))
        .collect::<Result<Vec<_>, _>>()?;
    let mut snapshot_times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        for p in &programs {
            black_box(Snapshot::capture_with(p, true).map_err(|e| e.to_string())?);
        }
        snapshot_times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(programs);

    let mut verify_ms = 0.0;
    for (objs, libs) in inputs {
        let opts = OmOptions::default();
        let (out, em) = optimize_and_link_artifacts(objs, libs, OmLevel::FullSched, &opts)
            .map_err(|e| e.to_string())?;
        let locals = em
            .modules
            .iter()
            .map(translate_module)
            .collect::<Result<Vec<_>, _>>();
        let program = resolve_symbolic(&locals.map_err(|e| e.to_string())?, &em.symtab);
        let t = Instant::now();
        let mut report = verify_sym(&program);
        report.merge(verify_stats(&program, &out.stats));
        report.merge(verify_linked(
            &em.modules,
            &em.symtab,
            &em.layout,
            &out.image,
        ));
        verify_ms += t.elapsed().as_secs_f64() * 1e3;
        report.violations.truncate(3);
        m.tally(if report.is_ok() {
            Ok(())
        } else {
            Err(format!("verify: {report}"))
        });
    }

    Ok(vec![
        metric("core.hash_ms", hash, "ms"),
        metric("objfile.codec_ms", codec, "ms"),
        metric(
            "core.snapshot_ms",
            median(&snapshot_times).expect("REPS > 0"),
            "ms",
        ),
        metric("core.verify_ms", verify_ms, "ms"),
    ])
}
