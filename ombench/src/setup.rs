//! Set-up shared by the workloads: source generation, compilation and the
//! interpreter references, each call wrapped in a benchmark span
//! (`bench.gen`, `bench.compile`, `bench.interp`) so a traced set-up splits
//! into the generator, code generator and interpreter layers.

use om_codegen::{compile_all_sources, compile_source, crt0, CompileOpts};
use om_objfile::{Archive, Module};
use om_workloads::stdlib::STDLIB_SOURCES;

/// Step budget of the interpreter references (far above any workload's).
pub const INTERP_STEPS: u64 = 4_000_000_000;

/// Instruction budget of every simulation.
pub const SIM_LIMIT: u64 = 2_000_000_000;

/// Runs `f` inside a span named `name` on the installed trace (inert when
/// none is installed).
pub fn spanned<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _s = om_obs::span(name);
    f()
}

/// The pre-compiled standard library, compiled afresh so every set-up pays
/// for it (the workloads crate memoizes its own copy per process).
pub fn stdlib() -> Result<Vec<Archive>, String> {
    spanned("bench.compile", || {
        let mut ar = Archive::new("libstd");
        for (name, src) in STDLIB_SOURCES {
            let m = compile_source(name, src, &CompileOpts::o2()).map_err(|e| e.to_string())?;
            ar.add(m).map_err(|e| e.to_string())?;
        }
        Ok(vec![ar])
    })
}

/// Compiles one source file at `-O2`.
pub fn compile_one(name: &str, src: &str) -> Result<Module, String> {
    spanned("bench.compile", || {
        compile_source(name, src, &CompileOpts::o2()).map_err(|e| format!("{name}: {e}"))
    })
}

/// crt0 followed by every source compiled separately (compile-each).
pub fn compile_each(srcs: &[(String, String)]) -> Result<Vec<Module>, String> {
    let mut objects = vec![crt0::module().map_err(|e| e.to_string())?];
    for (name, src) in srcs {
        objects.push(compile_one(name, src)?);
    }
    Ok(objects)
}

/// crt0 followed by all sources compiled as one unit (compile-all).
pub fn compile_all(name: &str, srcs: &[(String, String)]) -> Result<Vec<Module>, String> {
    let refs: Vec<(&str, &str)> = srcs.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    let unit = spanned("bench.compile", || {
        compile_all_sources(name, &refs, &CompileOpts::o2()).map_err(|e| format!("{name}: {e}"))
    })?;
    Ok(vec![crt0::module().map_err(|e| e.to_string())?, unit])
}

/// Reorders the user objects (everything after crt0) by `order`, a
/// permutation of `0..objects.len() - 1`.
pub fn reorder_user_objects(objects: Vec<Module>, order: &[usize]) -> Vec<Module> {
    let mut it = objects.into_iter();
    let crt0 = it.next().expect("every program starts with crt0");
    let user: Vec<Module> = it.collect();
    std::iter::once(crt0)
        .chain(order.iter().map(|&i| user[i].clone()))
        .collect()
}
