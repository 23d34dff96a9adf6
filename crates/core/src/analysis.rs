//! Whole-program analysis over the symbolic form: layout snapshots, call-site
//! recognition, address-load use indexing, and the address-taken set.
//!
//! This is the "rather deeper understanding of the program control flow than
//! has hitherto been typical for linkers" (§3) — easy here because the loader
//! format hands OM procedure boundaries, GP ownership, and LITUSE links.

use crate::sym::{
    resolve_ref, GlobalRef, InstId, LitaPool, LocalNames, OmError, SAnchor, SInst, SMark, SymProc,
    SymProgram,
};
use om_alpha::{Effects, Inst, JmpOp, Reg};
use om_linker::{common_order, layout_shapes, LayoutOpts, ModuleShape, ProgramLayout};
use om_objfile::{RelocKind, SecId, SymId, SymbolDef};
use std::collections::{HashMap, HashSet};

/// A provisional whole-program layout used for reachability decisions.
///
/// Distances only shrink as OM deletes instructions and GAT slots, so any
/// "fits in 16/21 bits" decision made against a snapshot remains valid for
/// the final layout.
///
/// It is a size-only address model: the layout of the program
/// [`crate::sym::emit_all`] would produce, computed without encoding an
/// instruction or building a symbol table. It reads each procedure's
/// instruction count, each module's `Literal` GAT keys (interned exactly as
/// emit interns `.lita`) and source section sizes, and the program's
/// commons, and places them with the linker's own layout core
/// ([`om_linker::layout_shapes`]).
pub struct Snapshot {
    pub layout: ProgramLayout,
    /// Per module, per symbol id: where the symbol's definition lands.
    placed: Vec<Vec<Placed>>,
}

/// The address model's entry for one symbol: where in its module's
/// sections it lands.
#[derive(Debug, Clone, Copy)]
enum Placed {
    /// Procedure `index` of its module, `offset` bytes into the module's text.
    Proc { index: u32, offset: u64 },
    Data { sec: SecId, offset: u64 },
    /// Commons and externs: reached through [`GlobalRef::Common`] or the
    /// defining module's symbol instead.
    Elsewhere,
}

impl Snapshot {
    /// Lays out the current symbolic program with OM's layout policy:
    /// commons sorted by size near the GAT when `sort_commons` is set (the
    /// ablation harness clears it). Each call adds one to the
    /// `snapshot.captures` trace counter.
    ///
    /// # Errors
    ///
    /// Propagates layout failures, and the [`OmError::Internal`] emit would
    /// raise for a cross-module reference to a local symbol.
    pub fn capture_with(program: &SymProgram, sort_commons: bool) -> Result<Snapshot, OmError> {
        let _s = om_obs::span("snapshot");
        om_obs::count("snapshot.captures", 1);
        let mut shapes = Vec::with_capacity(program.modules.len());
        let mut placed = Vec::with_capacity(program.modules.len());
        for (mi, sm) in program.modules.iter().enumerate() {
            let src = &sm.source;
            let mut names = LocalNames::new(program, mi);
            let mut pool = LitaPool::default();
            let mut syms: Vec<Placed> = src
                .symbols
                .iter()
                .map(|s| match s.def {
                    SymbolDef::Data { sec, offset, .. } => Placed::Data { sec, offset },
                    _ => Placed::Elsewhere,
                })
                .collect();
            let mut text = 0;
            for (index, p) in sm.procs.iter().enumerate() {
                syms[p.sym.0 as usize] = Placed::Proc { index: index as u32, offset: text };
                text += 4 * p.insts.len() as u64;
                for i in &p.insts {
                    if let SMark::Literal { target, addend, .. } = &i.mark {
                        pool.intern(names.id(target)?, *addend);
                    }
                }
            }
            if program.preserve_gat {
                pool.preserve(&src.lita);
            }
            shapes.push(ModuleShape {
                name: &src.name,
                text,
                gat: pool.entries.iter().map(|e| names.gat_key(e)).collect(),
                sdata: src.sdata.len() as u64,
                sbss: src.sbss_size,
                data: src.data.len() as u64,
                bss: src.bss_size,
            });
            placed.push(syms);
        }
        let commons = common_order(
            &program.symtab,
            program.modules.iter().map(|m| m.source.symbols.as_slice()),
            &LayoutOpts { sort_commons },
        );
        let layout = layout_shapes(&shapes, &commons)?;
        Ok(Snapshot { layout, placed })
    }

    /// Address of a resolved reference.
    ///
    /// # Panics
    ///
    /// Panics on a reference to neither a procedure, a data object nor a
    /// common (translation never produces one).
    pub fn addr(&self, r: &GlobalRef) -> u64 {
        match r {
            GlobalRef::Def { module, sym } => {
                let b = &self.layout.bases[*module];
                match self.placed[*module][sym.0 as usize] {
                    Placed::Proc { offset, .. } => b.text + offset,
                    Placed::Data { sec, offset } => b.section(sec) + offset,
                    Placed::Elsewhere => panic!("unresolved reference to symbol {}", sym.0),
                }
            }
            GlobalRef::Common { name } => self.layout.common_addr[name],
        }
    }

    /// The `(module, procedure index)` a reference names, if it names a
    /// procedure.
    pub fn proc_of(&self, r: &GlobalRef) -> Option<(usize, usize)> {
        let GlobalRef::Def { module, sym } = r else { return None };
        match self.placed[*module][sym.0 as usize] {
            Placed::Proc { index, .. } => Some((*module, index as usize)),
            _ => None,
        }
    }

    /// GP value used by module `mi`.
    pub fn gp(&self, mi: usize) -> u64 {
        self.layout.gp_values[self.layout.group_of_module[mi] as usize]
    }

    /// GAT group of module `mi`.
    pub fn group(&self, mi: usize) -> u32 {
        self.layout.group_of_module[mi]
    }

    /// True when the whole program shares one GP value — the common case the
    /// paper highlights ("most often one is enough"), which lets OM drop
    /// GP-resets even after calls through procedure variables.
    pub fn single_group(&self) -> bool {
        self.layout.gp_values.len() == 1
    }

    /// Text address of instruction `idx` of the procedure whose symbol is
    /// `proc` in module `mi`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is not a procedure symbol.
    pub fn inst_addr(&self, mi: usize, proc: SymId, idx: usize) -> u64 {
        let Placed::Proc { offset, .. } = self.placed[mi][proc.0 as usize] else {
            panic!("inst_addr: symbol {} is not a procedure", proc.0)
        };
        self.layout.bases[mi].text + offset + 4 * idx as u64
    }
}

/// True when a call from module `mi` provably returns with the caller's GP
/// intact, so its after-call GP reset can go: the callee shares the caller's
/// GAT group, or the whole program has one group. A preemptible callee might
/// be replaced at dynamic-link time by code in another group, so nothing
/// about it can be assumed.
pub fn same_gp_target(
    program: &SymProgram,
    snap: &Snapshot,
    mi: usize,
    kind: &CallKind,
    preempt: &HashSet<&str>,
) -> bool {
    match kind {
        CallKind::DirectJsr { target, .. } | CallKind::Bsr { target, .. } => {
            !preempt.contains(ref_name(program, target))
                && match target {
                    GlobalRef::Def { module, .. } => snap.group(mi) == snap.group(*module),
                    GlobalRef::Common { .. } => snap.single_group(),
                }
        }
        CallKind::Indirect => snap.single_group(),
    }
}

/// How a call site transfers control.
#[derive(Debug, Clone, PartialEq)]
pub enum CallKind {
    /// `ldq pv, lit(gp); jsr` — the conservative sequence.
    DirectJsr { load: InstId, target: GlobalRef },
    /// A BSR the compiler already emitted (intra-unit static call) or that a
    /// previous OM pass produced (`addend` = 8 when it skips the prologue).
    Bsr { target: GlobalRef, addend: i64 },
    /// JSR through a procedure variable: target unknowable.
    Indirect,
}

/// One recognized call site in a procedure.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the JSR/BSR instruction.
    pub at: usize,
    pub kind: CallKind,
    /// Ids of the after-call GP-reset pair `(hi, lo)`, if present.
    pub gp_reset: Option<(InstId, InstId)>,
}

/// Finds the call sites of `proc`.
pub fn call_sites(proc: &SymProc) -> Vec<CallSite> {
    // Map jsr id → gp-reset pair ids.
    let mut resets: HashMap<InstId, (InstId, InstId)> = HashMap::new();
    for i in &proc.insts {
        if let SMark::GpdispHi { lo, anchor: SAnchor::AfterCall(jsr) } = i.mark {
            resets.insert(jsr, (i.id, lo));
        }
    }
    let mut out = Vec::new();
    for (k, i) in proc.insts.iter().enumerate() {
        match (&i.inst, &i.mark) {
            (Inst::Jmp { op: JmpOp::Jsr, .. }, SMark::LituseJsr { load }) => {
                let target = proc
                    .insts
                    .iter()
                    .find(|l| l.id == *load)
                    .and_then(|l| match &l.mark {
                        SMark::Literal { target, .. } => Some(target.clone()),
                        _ => None,
                    });
                let kind = match target {
                    Some(t) => CallKind::DirectJsr { load: *load, target: t },
                    None => CallKind::Indirect, // load already transformed
                };
                out.push(CallSite { at: k, kind, gp_reset: resets.get(&i.id).copied() });
            }
            (Inst::Jmp { op: JmpOp::Jsr, .. }, SMark::None) => {
                out.push(CallSite {
                    at: k,
                    kind: CallKind::Indirect,
                    gp_reset: resets.get(&i.id).copied(),
                });
            }
            (Inst::Br { op: om_alpha::BrOp::Bsr, .. }, SMark::BrSym { target, addend }) => {
                out.push(CallSite {
                    at: k,
                    kind: CallKind::Bsr { target: target.clone(), addend: *addend },
                    gp_reset: resets.get(&i.id).copied(),
                });
            }
            _ => {}
        }
    }
    out
}

/// Index of LITUSE consumers per address load: `load id → (use index, kind)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UseKind {
    Base,
    Jsr,
    Addr,
}

/// Builds the use index of a procedure.
pub fn use_index(proc: &SymProc) -> HashMap<InstId, Vec<(usize, UseKind)>> {
    let mut map: HashMap<InstId, Vec<(usize, UseKind)>> = HashMap::new();
    for (k, i) in proc.insts.iter().enumerate() {
        let (load, kind) = match i.mark {
            SMark::LituseBase { load } => (load, UseKind::Base),
            SMark::LituseJsr { load } => (load, UseKind::Jsr),
            SMark::LituseAddr { load } => (load, UseKind::Addr),
            _ => continue,
        };
        map.entry(load).or_default().push((k, kind));
    }
    map
}

/// Computes the set of procedures whose address escapes: referenced by an
/// escaping GAT load anywhere, stored in initialized data (`RefQuad`), or
/// the program entry. OM-full must keep these procedures' prologues.
pub fn address_taken(program: &SymProgram) -> HashSet<GlobalRef> {
    let mut taken = HashSet::new();
    for (mi, m) in program.modules.iter().enumerate() {
        for p in &m.procs {
            // Loads whose value feeds address arithmetic count as escapes
            // too (conservative: the computed address could be anything).
            let uses = use_index(p);
            for i in &p.insts {
                if let SMark::Literal { target, escaping, .. } = &i.mark {
                    let has_addr_use = uses
                        .get(&i.id)
                        .is_some_and(|us| us.iter().any(|&(_, k)| k == UseKind::Addr));
                    if *escaping || has_addr_use {
                        taken.insert(target.clone());
                    }
                }
            }
        }
        // Data-section pointers to procedures (initialized fnptr globals).
        for r in &m.source.relocs {
            if r.sec == om_objfile::SecId::Text {
                continue;
            }
            if let RelocKind::RefQuad { sym, .. } = r.kind {
                taken.insert(resolve_ref(&m.source, &program.symtab, mi, sym));
            }
        }
        // The entry procedure.
        for p in &m.procs {
            if p.name == "__start" {
                taken.insert(GlobalRef::Def { module: mi, sym: p.sym });
            }
        }
    }
    taken
}

/// True if the procedure's first two instructions are its entry GPDISP pair.
pub fn prologue_pair_at_entry(proc: &SymProc) -> Option<(InstId, InstId)> {
    let first = proc.insts.first()?;
    if let SMark::GpdispHi { lo, anchor: SAnchor::Entry } = first.mark {
        let second = proc.insts.get(1)?;
        if second.id == lo {
            return Some((first.id, lo));
        }
    }
    None
}

/// Finds the entry GPDISP pair anywhere in the procedure.
pub fn find_entry_pair(proc: &SymProc) -> Option<(usize, usize)> {
    let hi = proc.insts.iter().position(
        |i| matches!(i.mark, SMark::GpdispHi { anchor: SAnchor::Entry, .. }),
    )?;
    let SMark::GpdispHi { lo, .. } = proc.insts[hi].mark else { unreachable!() };
    let lo_idx = proc.insts.iter().position(|i| i.id == lo)?;
    Some((hi, lo_idx))
}

/// True if any instruction outside `exclude` reads the *incoming* PV value —
/// a conservative veto on removing PV setup for this procedure.
///
/// PV reads at JSR instructions don't count: every call site establishes its
/// own PV immediately beforehand (the compiler's calling convention), so a
/// recursive procedure's internal calls never depend on the PV its callers
/// passed in.
pub fn reads_pv_outside(proc: &SymProc, exclude: &[InstId]) -> bool {
    proc.insts.iter().any(|i| {
        !exclude.contains(&i.id)
            && !matches!(i.inst, Inst::Jmp { op: JmpOp::Jsr, .. })
            && Effects::of(&i.inst).reads_int(Reg::PV)
    })
}

/// All instructions of a procedure as `(index, &SInst)` that are address
/// loads still in GAT form.
pub fn literal_loads(proc: &SymProc) -> Vec<usize> {
    proc.insts
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i.mark, SMark::Literal { .. }))
        .map(|(k, _)| k)
        .collect()
}

/// The link name a [`GlobalRef`] resolves to.
pub fn ref_name<'a>(program: &'a SymProgram, r: &'a GlobalRef) -> &'a str {
    match r {
        GlobalRef::Def { module, sym } => &program.modules[*module].source.symbol(*sym).name,
        GlobalRef::Common { name } => name,
    }
}

/// The destination register of an address load (`ra` of the LDQ).
pub fn load_dest(i: &SInst) -> Reg {
    match i.inst {
        Inst::Mem { ra, .. } => ra,
        _ => panic!("address load is not a memory instruction"),
    }
}
