//! Exactness of the size-only address model: in every program state OM's
//! fixpoint rounds see, `Snapshot::capture_with` must give the same
//! addresses, GP values and GAT groups as emitting the program and laying
//! the object code out with the standard linker.

use om_codegen::{compile_source, crt0, CompileOpts};
use om_core::analysis::Snapshot;
use om_core::sym::{emit_all, translate, GlobalRef, SMark, SymProgram};
use om_core::{full, simple, CallBook, OmOptions, OmStats};
use om_linker::{build_symbol_table, layout, select_modules, sym_addr, LayoutOpts};
use om_objfile::{Archive, Module};
use om_workloads::scale::{overflow_slots_per_module, pad_gat};
use om_workloads::{build::build, spec, CompileMode};

/// Asserts that the model of `p` equals the layout of its emitted modules.
/// Returns how many `Literal` targets it compared.
fn assert_model_exact(p: &SymProgram, sort_commons: bool, what: &str) -> usize {
    let snap = Snapshot::capture_with(p, sort_commons).unwrap();
    let modules = emit_all(p).unwrap();
    let symtab = build_symbol_table(&modules).unwrap();
    let want = layout(&modules, &symtab, &LayoutOpts { sort_commons }).unwrap();

    let fields = |l: &om_linker::ProgramLayout| {
        format!(
            "{:?}",
            (
                &l.bases,
                &l.group_of_module,
                &l.gp_values,
                &l.lita_addr,
                &l.slots,
                &l.info,
                l.gat_entries_input,
                l.gat_slots,
            )
        )
    };
    assert_eq!(fields(&snap.layout), fields(&want), "{what}: layout");
    assert_eq!(snap.layout.common_addr, want.common_addr, "{what}: commons");
    assert_eq!(snap.single_group(), want.gp_values.len() == 1, "{what}");
    for mi in 0..modules.len() {
        let group = want.group_of_module[mi];
        assert_eq!(snap.group(mi), group, "{what}: group of module {mi}");
        assert_eq!(snap.gp(mi), want.gp_values[group as usize], "{what}: gp of module {mi}");
    }

    let resolved = |r: &GlobalRef| match r {
        GlobalRef::Def { module, sym } => {
            sym_addr(&modules, &symtab, &want, *module, *sym).unwrap()
        }
        GlobalRef::Common { name } => want.common_addr[name],
    };
    let mut literals = 0;
    for (mi, m) in p.modules.iter().enumerate() {
        for proc in &m.procs {
            assert_eq!(
                snap.inst_addr(mi, proc.sym, 0),
                sym_addr(&modules, &symtab, &want, mi, proc.sym).unwrap(),
                "{what}: start of {}",
                proc.name
            );
            for i in &proc.insts {
                if let SMark::Literal { target, .. } = &i.mark {
                    assert_eq!(snap.addr(target), resolved(target), "{what}: {target:?}");
                    literals += 1;
                }
            }
        }
    }
    literals
}

/// Every state of one program: the translated input (OM-simple's view with
/// its GAT preserved, OM-full's without, and with commons in input order),
/// OM-simple's result, and OM-full after 0–3 fixpoint rounds.
fn check_states(objects: &[Module], libs: &[Archive], name: &str) {
    let modules = select_modules(objects, libs).unwrap();
    let symtab = build_symbol_table(&modules).unwrap();
    let input = translate(&modules, &symtab).unwrap();
    assert!(input.preserve_gat);
    assert!(assert_model_exact(&input, true, &format!("{name} input")) > 0);
    assert_model_exact(&input, false, &format!("{name} input, commons unsorted"));
    let mut reduced = input.clone();
    reduced.preserve_gat = false;
    assert_model_exact(&reduced, true, &format!("{name} input, GAT not preserved"));

    let mut simple_out = input.clone();
    let (mut stats, mut book) = (OmStats::default(), CallBook::new());
    simple::run_with(&mut simple_out, &mut stats, &mut book, &OmOptions::default()).unwrap();
    assert_model_exact(&simple_out, true, &format!("{name} OM-simple"));

    for max_rounds in 0..=3 {
        let mut p = input.clone();
        let options = OmOptions { max_rounds, ..OmOptions::default() };
        let (mut stats, mut book) = (OmStats::default(), CallBook::new());
        full::run_with(&mut p, &mut stats, &mut book, &options).unwrap();
        assert_model_exact(&p, true, &format!("{name} OM-full after {max_rounds} rounds"));
    }
}

#[test]
fn model_matches_the_emitted_layout_on_every_workload() {
    for s in spec::all() {
        let quick = spec::quick(&s);
        for mode in CompileMode::ALL {
            let b = build(&quick, mode).expect("build");
            check_states(&b.objects, &b.libs, &format!("{} [{}]", s.name, mode.name()));
        }
    }
}

#[test]
fn model_matches_the_emitted_layout_across_gat_groups() {
    let opts = CompileOpts::o2();
    let mut main_obj = compile_source(
        "model_main",
        "extern int far_mix(int);
         int near_g;
         int main() { int i = 0;
           for (i = 0; i < 8; i = i + 1) { near_g = near_g + far_mix(near_g + i); }
           return near_g; }",
        &opts,
    )
    .unwrap();
    let mut far_obj = compile_source(
        "model_far",
        "int far_g = 7;
         int far_mix(int x) { far_g = far_g * 3 + 1; return (x ^ far_g) & 0xFFFF; }",
        &opts,
    )
    .unwrap();
    let per = overflow_slots_per_module(2);
    pad_gat(&mut main_obj, per, "a");
    pad_gat(&mut far_obj, per, "b");
    let objects = vec![crt0::module().unwrap(), main_obj, far_obj];

    // The padded input needs two GP groups; the model must agree.
    let modules = select_modules(&objects, &[]).unwrap();
    let symtab = build_symbol_table(&modules).unwrap();
    let input = translate(&modules, &symtab).unwrap();
    assert!(!Snapshot::capture_with(&input, true).unwrap().single_group());
    check_states(&objects, &[], "multigat");
}
