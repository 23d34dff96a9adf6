//! OM's symbolic program form.
//!
//! "The key idea behind OM is the translation into symbolic form and back"
//! (§4). [`translate`] lifts every module of the program into [`SymProgram`]:
//! procedures become instruction lists whose positional information —
//! branch displacements, GAT slot indices, GPDISP pair offsets, LITUSE
//! links — is replaced by symbolic references that survive deletion and
//! reordering. [`emit_module`] lowers a transformed module back to ordinary
//! object code, recomputing every offset. This is what makes OM-full's code
//! motion safe by construction.

use om_alpha::{decode, Inst};
use om_linker::SymbolTable;
use om_objfile::{
    LitaEntry, Module, Reloc, RelocKind, SecId, SymId, Symbol, SymbolDef, Visibility,
};
use std::collections::HashMap;
use std::fmt;

/// Errors while translating object code to symbolic form.
#[derive(Debug, Clone, PartialEq)]
pub enum OmError {
    /// A text word outside any procedure or undecodable.
    BadText { module: String, offset: u64, what: String },
    /// A relocation that contradicts the code it annotates.
    BadReloc { module: String, what: String },
    Link(om_linker::LinkError),
    /// Post-link verification found invariant violations (see
    /// [`crate::verify`]).
    Verify { checks: usize, violations: Vec<String> },
    /// An internal pipeline invariant was violated (a dangling symbolic
    /// reference at emit time, or a panic caught at a link-server request
    /// boundary). Surfaced as an error so one bad module or transformation
    /// bug fails its request instead of aborting the process.
    Internal { context: String, what: String },
}

impl fmt::Display for OmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmError::BadText { module, offset, what } => {
                write!(f, "bad text in `{module}` at +{offset:#x}: {what}")
            }
            OmError::BadReloc { module, what } => write!(f, "bad relocation in `{module}`: {what}"),
            OmError::Link(e) => write!(f, "{e}"),
            OmError::Internal { context, what } => {
                write!(f, "internal invariant violated in `{context}`: {what}")
            }
            OmError::Verify { checks, violations } => {
                write!(f, "verification failed: {} of {checks} checks", violations.len())?;
                for v in violations.iter().take(8) {
                    write!(f, "\n  {v}")?;
                }
                if violations.len() > 8 {
                    write!(f, "\n  … and {} more", violations.len() - 8)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for OmError {}

impl From<om_linker::LinkError> for OmError {
    fn from(e: om_linker::LinkError) -> Self {
        OmError::Link(e)
    }
}

/// Identifier of an instruction within its procedure; stable across
/// transformation.
pub type InstId = u32;

/// A resolved reference to a program object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GlobalRef {
    /// Defined symbol: `(module index, symbol id)`.
    Def { module: usize, sym: SymId },
    /// A merged common symbol.
    Common { name: String },
}

/// What code address a GPDISP pair's base register holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SAnchor {
    /// PV = this procedure's entry.
    Entry,
    /// RA = the return point of the call instruction with this id.
    AfterCall(InstId),
}

/// Symbolic annotation of one instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum SMark {
    None,
    /// GAT address load of `target + addend`; `escaping` if its value leaks
    /// into unrewritable dataflow.
    Literal { target: GlobalRef, addend: i64, escaping: bool },
    LituseBase { load: InstId },
    LituseJsr { load: InstId },
    LituseAddr { load: InstId },
    GpdispHi { lo: InstId, anchor: SAnchor },
    GpdispLo { hi: InstId },
    /// Branch to another procedure (`addend` lets OM-full skip prologues).
    BrSym { target: GlobalRef, addend: i64 },
    /// Intra-procedure branch to the instruction with this id.
    BrLocal { target: InstId },
    /// 16-bit GP-relative reference (an OM conversion product).
    Gprel { target: GlobalRef, addend: i64 },
    /// High half of a 32-bit GP-relative reference.
    GprelHi { target: GlobalRef, addend: i64 },
    /// Low half, paired with a `GprelHi` computed with `hi_addend`.
    GprelLo { target: GlobalRef, addend: i64, hi_addend: i64 },
}

/// One symbolic instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct SInst {
    pub id: InstId,
    pub inst: Inst,
    pub mark: SMark,
}

/// A procedure in symbolic form.
#[derive(Debug, Clone, PartialEq)]
pub struct SymProc {
    /// Symbol-table id of the procedure in its module.
    pub sym: SymId,
    pub name: String,
    pub vis: Visibility,
    pub insts: Vec<SInst>,
    next_id: InstId,
}

impl SymProc {
    /// Allocates a fresh instruction id (for insertions).
    pub fn fresh_id(&mut self) -> InstId {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Index of the instruction with `id`, if it exists.
    pub fn try_index_of(&self, id: InstId) -> Option<usize> {
        self.insts.iter().position(|i| i.id == id)
    }

    /// Index of the instruction with `id`.
    ///
    /// # Panics
    ///
    /// Panics if no instruction has that id (a dangling symbolic reference).
    /// This is only reachable from optimizer-internal bugs, never from
    /// malformed input: every id that [`translate_module`] derives from
    /// relocations is bounds-checked into a typed [`OmError`], and the emit
    /// path reports dangling ids as [`OmError::Internal`] instead of
    /// panicking. Passes that call this mid-transform own the ids they pass.
    pub fn index_of(&self, id: InstId) -> usize {
        self.try_index_of(id)
            .unwrap_or_else(|| panic!("dangling instruction id {id} in {}", self.name))
    }

    /// Deletes the instructions whose ids are in `doomed`, retargeting any
    /// local branch that pointed at a deleted instruction to the next
    /// surviving one.
    ///
    /// # Panics
    ///
    /// Panics if a branch targets a deleted instruction with no survivor
    /// after it (cannot happen: terminators are never deleted).
    pub fn delete(&mut self, doomed: &std::collections::HashSet<InstId>) {
        if doomed.is_empty() {
            return;
        }
        // Map each deleted id to the id of the next surviving instruction.
        let mut forward: HashMap<InstId, InstId> = HashMap::new();
        let mut next_survivor: Option<InstId> = None;
        for i in self.insts.iter().rev() {
            if doomed.contains(&i.id) {
                let n = next_survivor.expect("deleted trailing instruction had a branch target");
                forward.insert(i.id, n);
            } else {
                next_survivor = Some(i.id);
            }
        }
        self.insts.retain(|i| !doomed.contains(&i.id));
        for i in &mut self.insts {
            if let SMark::BrLocal { target } = &mut i.mark {
                while let Some(&n) = forward.get(target) {
                    *target = n;
                }
            }
        }
    }
}

/// A module in symbolic form: the original module (for its data sections and
/// symbol table) plus symbolic procedures replacing its text.
#[derive(Debug, Clone, PartialEq)]
pub struct SymModule {
    pub source: Module,
    pub procs: Vec<SymProc>,
}

/// The whole program in symbolic form.
#[derive(Debug, Clone)]
pub struct SymProgram {
    pub modules: Vec<SymModule>,
    pub symtab: SymbolTable,
    /// When set (OM-simple), emitted modules retain every original GAT slot
    /// even if no surviving instruction references it: a traditional linker
    /// that only rewrites instructions in place does not reduce the GAT.
    /// OM-full clears this, enabling GAT reduction.
    pub preserve_gat: bool,
}

impl SymProgram {
    /// Total instruction count across the program.
    pub fn inst_count(&self) -> usize {
        self.modules
            .iter()
            .flat_map(|m| m.procs.iter())
            .map(|p| p.insts.len())
            .sum()
    }

    /// Finds a procedure by target reference, if the reference names one.
    pub fn proc_of(&self, r: &GlobalRef) -> Option<(usize, usize)> {
        let GlobalRef::Def { module, sym } = r else { return None };
        let m = &self.modules[*module];
        m.procs
            .iter()
            .position(|p| p.sym == *sym)
            .map(|pi| (*module, pi))
    }
}

/// A symbolic annotation whose symbol references are still *module-local*
/// ([`SymId`]s into the module's own table). This is the program-independent
/// half of [`SMark`]: everything about it is a pure function of one module's
/// bytes, so [`translate_module`] results can be cached by content hash and
/// shared across link requests. [`resolve_symbolic`] turns it into an
/// [`SMark`] once the program-wide symbol table is known.
#[derive(Debug, Clone, PartialEq)]
pub enum LMark {
    None,
    /// GAT address load of `sym + addend` (the module's `.lita` entry).
    Literal { sym: SymId, addend: i64, escaping: bool },
    LituseBase { load: InstId },
    LituseJsr { load: InstId },
    LituseAddr { load: InstId },
    GpdispHi { lo: InstId, anchor: SAnchor },
    GpdispLo { hi: InstId },
    BrSym { sym: SymId, addend: i64 },
    BrLocal { target: InstId },
    Gprel { sym: SymId, addend: i64 },
    GprelHi { sym: SymId, addend: i64 },
    GprelLo { sym: SymId, addend: i64, hi_addend: i64 },
}

/// One instruction of a module-local symbolic procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct LInst {
    pub id: InstId,
    pub inst: Inst,
    pub mark: LMark,
}

/// A procedure in module-local symbolic form.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSymProc {
    pub sym: SymId,
    pub name: String,
    pub vis: Visibility,
    pub insts: Vec<LInst>,
}

/// One module's translation artifact: the decoded, mark-annotated symbolic
/// procedures plus the source module itself. Independent of every other
/// module in the program — the unit of OM's per-module analysis cache.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSymModule {
    pub source: Module,
    pub procs: Vec<LocalSymProc>,
}

/// Resolves a module-local symbol reference to a [`GlobalRef`].
pub(crate) fn resolve_ref(
    source: &Module,
    symtab: &SymbolTable,
    mi: usize,
    sym: SymId,
) -> GlobalRef {
    let s = source.symbol(sym);
    if s.is_defined() && !matches!(s.def, SymbolDef::Common { .. }) {
        return GlobalRef::Def { module: mi, sym };
    }
    if let Some(&(dm, did)) = symtab.globals.get(&s.name) {
        return GlobalRef::Def { module: dm, sym: did };
    }
    GlobalRef::Common { name: s.name.clone() }
}

/// Translates one module into module-local symbolic form — the whole
/// decode/tiling/mark analysis, with no reference to the rest of the
/// program. The result depends only on the module's bytes, which is what
/// makes it cacheable by content hash.
///
/// # Errors
///
/// Returns [`OmError`] if text does not decode, procedures do not tile the
/// text, or relocations are inconsistent — the conservative checks the paper
/// says OM can afford because "it can use the loader symbol table and the
/// relocation tables to clarify the code".
pub fn translate_module(m: &Module) -> Result<LocalSymModule, OmError> {
    let mut procs: Vec<LocalSymProc> = Vec::new();
    let proc_list = m.procedures();
    let reloc_index = m.text_reloc_index();

    // Check tiling.
    let mut expected = 0;
    for (_, s) in &proc_list {
        let SymbolDef::Proc { offset, size, .. } = s.def else { unreachable!() };
        if offset != expected {
            return Err(OmError::BadText {
                module: m.name.clone(),
                offset: expected,
                what: "text not tiled by procedures".into(),
            });
        }
        expected = offset + size;
    }
    if expected != m.text.len() as u64 {
        return Err(OmError::BadText {
            module: m.name.clone(),
            offset: expected,
            what: "trailing text outside any procedure".into(),
        });
    }

    for (sym_id, s) in &proc_list {
        let SymbolDef::Proc { offset, size, .. } = s.def else { unreachable!() };
        let n = (size / 4) as usize;
        let id_of_offset =
            |o: u64| -> Option<InstId> { o.checked_sub(offset).map(|d| (d / 4) as u32) };

        // Pass 1: find escaping loads. Only the *self-referential*
        // LituseAddr marks a load as escaping-with-unknown-uses; a
        // LituseAddr on a different instruction is a known (but
        // unrewritable) use and keeps its own mark.
        let mut escaping: Vec<u64> = Vec::new();
        for k in 0..n {
            let off = offset + 4 * k as u64;
            for r in reloc_index.get(&off).into_iter().flatten() {
                if let RelocKind::LituseAddr { load_offset } = r.kind {
                    if load_offset == off {
                        escaping.push(load_offset);
                    }
                }
            }
        }

        let mut insts = Vec::with_capacity(n);
        for k in 0..n {
            let off = offset + 4 * k as u64;
            let bytes: [u8; 4] =
                m.text[off as usize..off as usize + 4].try_into().unwrap();
            let word = u32::from_le_bytes(bytes);
            let inst = decode(word).map_err(|e| OmError::BadText {
                module: m.name.clone(),
                offset: off,
                what: e.to_string(),
            })?;
            let id = k as InstId;

            let mut mark = LMark::None;
            for r in reloc_index.get(&off).into_iter().flatten() {
                let bad = |what: String| OmError::BadReloc { module: m.name.clone(), what };
                let linked = |load_offset: u64| -> Result<InstId, OmError> {
                    id_of_offset(load_offset)
                        .filter(|&i| (i as usize) < n)
                        .ok_or_else(|| bad(format!("lituse crosses procedures at {off:#x}")))
                };
                match &r.kind {
                    RelocKind::Literal { lita } => {
                        let e: &LitaEntry = &m.lita[*lita as usize];
                        mark = LMark::Literal {
                            sym: e.sym,
                            addend: e.addend,
                            escaping: escaping.contains(&off),
                        };
                    }
                    RelocKind::LituseBase { load_offset } => {
                        mark = LMark::LituseBase { load: linked(*load_offset)? };
                    }
                    RelocKind::LituseJsr { load_offset } => {
                        mark = LMark::LituseJsr { load: linked(*load_offset)? };
                    }
                    RelocKind::LituseAddr { load_offset } => {
                        if *load_offset != off {
                            mark = LMark::LituseAddr { load: linked(*load_offset)? };
                        }
                    }
                    RelocKind::Gpdisp { pair_offset, anchor, .. } => {
                        let lo = id_of_offset((off as i64 + pair_offset) as u64)
                            .filter(|&i| (i as usize) < n)
                            .ok_or_else(|| bad("gpdisp pair crosses procedures".into()))?;
                        let a = if *anchor == offset {
                            SAnchor::Entry
                        } else {
                            let jsr = id_of_offset(anchor - 4)
                                .filter(|&i| (i as usize) < n)
                                .ok_or_else(|| bad("gpdisp anchor outside procedure".into()))?;
                            SAnchor::AfterCall(jsr)
                        };
                        mark = LMark::GpdispHi { lo, anchor: a };
                    }
                    RelocKind::BrAddr { sym, addend } => {
                        mark = LMark::BrSym { sym: *sym, addend: *addend };
                    }
                    RelocKind::Gprel16 { sym, addend, .. } => {
                        mark = LMark::Gprel { sym: *sym, addend: *addend };
                    }
                    RelocKind::GprelHigh { sym, addend, .. } => {
                        mark = LMark::GprelHi { sym: *sym, addend: *addend };
                    }
                    RelocKind::GprelLow { sym, addend, hi_addend, .. } => {
                        mark = LMark::GprelLo {
                            sym: *sym,
                            addend: *addend,
                            hi_addend: *hi_addend,
                        };
                    }
                    RelocKind::RefQuad { .. } => {
                        return Err(bad("refquad in text".into()));
                    }
                }
            }

            // Mark the GPDISP low halves (they carry no relocation).
            insts.push(LInst { id, inst, mark });
        }

        // Second pass over the collected instructions: GpdispLo partners
        // and local branch targets.
        let his: Vec<(usize, InstId)> = insts
            .iter()
            .enumerate()
            .filter_map(|(k, i)| match i.mark {
                LMark::GpdispHi { lo, .. } => Some((k, lo)),
                _ => None,
            })
            .collect();
        for (k, lo) in his {
            let hi_id = insts[k].id;
            let lo_idx = lo as usize;
            if lo_idx >= insts.len() || !matches!(insts[lo_idx].mark, LMark::None) {
                return Err(OmError::BadReloc {
                    module: m.name.clone(),
                    what: format!("gpdisp low half missing in {}", s.name),
                });
            }
            insts[lo_idx].mark = LMark::GpdispLo { hi: hi_id };
        }
        for k in 0..insts.len() {
            if let (Inst::Br { disp, .. }, LMark::None) = (&insts[k].inst, &insts[k].mark) {
                let target = k as i64 + 1 + *disp as i64;
                if target < 0 || target as usize > insts.len() {
                    return Err(OmError::BadText {
                        module: m.name.clone(),
                        offset: offset + 4 * k as u64,
                        what: "branch leaves its procedure".into(),
                    });
                }
                // A branch to the very end would be malformed; our
                // compilers never emit one.
                if target as usize == insts.len() {
                    return Err(OmError::BadText {
                        module: m.name.clone(),
                        offset: offset + 4 * k as u64,
                        what: "branch to procedure end".into(),
                    });
                }
                insts[k].mark = LMark::BrLocal { target: target as InstId };
            }
        }

        procs.push(LocalSymProc {
            sym: *sym_id,
            name: s.name.clone(),
            vis: s.vis,
            insts,
        });
    }
    Ok(LocalSymModule { source: m.clone(), procs })
}

/// Binds per-module translation artifacts into a whole program: every
/// module-local symbol reference is resolved through the program-wide
/// symbol table ([`LMark`] → [`SMark`]). This is the cheap half of
/// [`translate`] — no decoding, just reference resolution — so relinking a
/// program whose modules are all cached costs only this pass.
pub fn resolve_symbolic<M: std::borrow::Borrow<LocalSymModule>>(
    locals: &[M],
    symtab: &SymbolTable,
) -> SymProgram {
    let mut out = Vec::with_capacity(locals.len());
    for (mi, lm) in locals.iter().enumerate() {
        let lm = lm.borrow();
        let src = &lm.source;
        let procs = lm
            .procs
            .iter()
            .map(|p| {
                let insts = p
                    .insts
                    .iter()
                    .map(|i| {
                        let mark = match &i.mark {
                            LMark::None => SMark::None,
                            LMark::Literal { sym, addend, escaping } => SMark::Literal {
                                target: resolve_ref(src, symtab, mi, *sym),
                                addend: *addend,
                                escaping: *escaping,
                            },
                            LMark::LituseBase { load } => SMark::LituseBase { load: *load },
                            LMark::LituseJsr { load } => SMark::LituseJsr { load: *load },
                            LMark::LituseAddr { load } => SMark::LituseAddr { load: *load },
                            LMark::GpdispHi { lo, anchor } => {
                                SMark::GpdispHi { lo: *lo, anchor: *anchor }
                            }
                            LMark::GpdispLo { hi } => SMark::GpdispLo { hi: *hi },
                            LMark::BrSym { sym, addend } => SMark::BrSym {
                                target: resolve_ref(src, symtab, mi, *sym),
                                addend: *addend,
                            },
                            LMark::BrLocal { target } => SMark::BrLocal { target: *target },
                            LMark::Gprel { sym, addend } => SMark::Gprel {
                                target: resolve_ref(src, symtab, mi, *sym),
                                addend: *addend,
                            },
                            LMark::GprelHi { sym, addend } => SMark::GprelHi {
                                target: resolve_ref(src, symtab, mi, *sym),
                                addend: *addend,
                            },
                            LMark::GprelLo { sym, addend, hi_addend } => SMark::GprelLo {
                                target: resolve_ref(src, symtab, mi, *sym),
                                addend: *addend,
                                hi_addend: *hi_addend,
                            },
                        };
                        SInst { id: i.id, inst: i.inst, mark }
                    })
                    .collect::<Vec<_>>();
                SymProc {
                    sym: p.sym,
                    name: p.name.clone(),
                    vis: p.vis,
                    next_id: insts.len() as InstId,
                    insts,
                }
            })
            .collect();
        out.push(SymModule { source: src.clone(), procs });
    }
    SymProgram { modules: out, symtab: symtab.clone(), preserve_gat: true }
}

/// Translates the whole program into symbolic form: [`translate_module`]
/// per module, bound together by [`resolve_symbolic`].
///
/// # Errors
///
/// Returns [`OmError`] if any module fails translation (see
/// [`translate_module`]).
pub fn translate(modules: &[Module], symtab: &SymbolTable) -> Result<SymProgram, OmError> {
    let locals = modules
        .iter()
        .map(translate_module)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(resolve_symbolic(&locals, symtab))
}

/// The symbol ids module `mi` gives program objects when it is emitted: its
/// own symbols keep their ids, and any other object is named by an extern
/// appended to the module's symbol table on first reference.
pub(crate) struct LocalNames<'p> {
    program: &'p SymProgram,
    mi: usize,
    by_name: HashMap<&'p str, SymId>,
    /// Names of the appended externs, in id order after the source symbols.
    pub appended: Vec<&'p str>,
}

impl<'p> LocalNames<'p> {
    pub fn new(program: &'p SymProgram, mi: usize) -> LocalNames<'p> {
        let by_name = program.modules[mi]
            .source
            .symbols
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.as_str(), SymId(i as u32)))
            .collect();
        LocalNames { program, mi, by_name, appended: Vec::new() }
    }

    /// The id naming `r` in this module.
    ///
    /// # Errors
    ///
    /// [`OmError::Internal`] for a cross-module reference to a local symbol.
    pub fn id(&mut self, r: &'p GlobalRef) -> Result<SymId, OmError> {
        let name = match r {
            GlobalRef::Def { module, sym } if *module == self.mi => return Ok(*sym),
            GlobalRef::Def { module, sym } => {
                let target = self.program.modules[*module].source.symbol(*sym);
                if target.vis != Visibility::Exported {
                    return Err(OmError::Internal {
                        context: "emit".into(),
                        what: format!("cross-module reference to local symbol {}", target.name),
                    });
                }
                target.name.as_str()
            }
            GlobalRef::Common { name } => name.as_str(),
        };
        let base = self.program.modules[self.mi].source.symbols.len();
        Ok(*self.by_name.entry(name).or_insert_with(|| {
            self.appended.push(name);
            SymId((base + self.appended.len() - 1) as u32)
        }))
    }

    /// The GAT identity of `.lita` entry `e` of this module (see
    /// [`om_linker::GatKey`]); appended externs are always global.
    pub fn gat_key(&self, e: &LitaEntry) -> om_linker::GatKey<'p> {
        let source = &self.program.modules[self.mi].source;
        match source.symbols.get(e.sym.0 as usize) {
            Some(s) => om_linker::GatKey::of(self.mi, e.sym, s, e.addend),
            None => om_linker::GatKey::Global(
                self.appended[e.sym.0 as usize - source.symbols.len()],
                e.addend,
            ),
        }
    }
}

/// A module's `.lita` as emit builds it: one entry per distinct `(symbol,
/// addend)`, in first-reference order.
#[derive(Default)]
pub(crate) struct LitaPool {
    interned: HashMap<(SymId, i64), u32>,
    pub entries: Vec<LitaEntry>,
}

impl LitaPool {
    /// The index of the entry for `sym + addend`, added if new.
    pub fn intern(&mut self, sym: SymId, addend: i64) -> u32 {
        *self.interned.entry((sym, addend)).or_insert_with(|| {
            self.entries.push(LitaEntry { sym, addend });
            self.entries.len() as u32 - 1
        })
    }

    /// OM-simple never shrinks the GAT: re-adds the source entries that no
    /// longer have a referencing instruction.
    pub fn preserve(&mut self, source: &[LitaEntry]) {
        for e in source {
            self.intern(e.sym, e.addend);
        }
    }
}

/// Lowers one symbolic module back to object code.
///
/// The returned module preserves the source's symbol-table order (so
/// `GlobalRef::Def` indices remain valid across emit/translate rounds),
/// appending externs for any newly cross-module references, and rebuilds the
/// text, `.lita`, and text relocations from the symbolic procedures.
///
/// # Errors
///
/// Returns [`OmError::Internal`] on dangling symbolic references — these
/// indicate a transformation bug, but a link server must report them to the
/// offending request rather than abort the process.
pub fn emit_module(program: &SymProgram, mi: usize) -> Result<Module, OmError> {
    let sm = &program.modules[mi];
    let src = &sm.source;
    let mut m = Module::new(src.name.clone());
    m.data = src.data.clone();
    m.sdata = src.sdata.clone();
    m.sbss_size = src.sbss_size;
    m.bss_size = src.bss_size;
    m.symbols = src.symbols.clone();
    // Keep non-text relocations (data RefQuads).
    m.relocs = src
        .relocs
        .iter()
        .filter(|r| r.sec != SecId::Text)
        .cloned()
        .collect();

    let mut names = LocalNames::new(program, mi);
    let mut pool = LitaPool::default();
    for p in &sm.procs {
        let start = m.text.len() as u64;
        // Offsets by id.
        let mut off_of: HashMap<InstId, u64> = HashMap::new();
        for (k, i) in p.insts.iter().enumerate() {
            off_of.insert(i.id, start + 4 * k as u64);
        }
        // A mark naming an instruction id absent from the procedure is a
        // transformation bug (the former `index_of` panic class); surface it
        // as a typed error so one bad request cannot take down a server.
        let off = |id: &InstId| -> Result<u64, OmError> {
            off_of.get(id).copied().ok_or_else(|| OmError::Internal {
                context: "emit".into(),
                what: format!("dangling instruction id {id} in {}", p.name),
            })
        };
        for (k, si) in p.insts.iter().enumerate() {
            let here = start + 4 * k as u64;
            let mut inst = si.inst;
            match &si.mark {
                SMark::None => {}
                SMark::Literal { target, addend, escaping } => {
                    let sym = names.id(target)?;
                    let slot = pool.intern(sym, *addend);
                    m.relocs.push(Reloc::text(here, RelocKind::Literal { lita: slot }));
                    if *escaping {
                        m.relocs
                            .push(Reloc::text(here, RelocKind::LituseAddr { load_offset: here }));
                    }
                }
                SMark::LituseBase { load } => {
                    m.relocs.push(Reloc::text(
                        here,
                        RelocKind::LituseBase { load_offset: off(load)? },
                    ));
                }
                SMark::LituseJsr { load } => {
                    m.relocs.push(Reloc::text(
                        here,
                        RelocKind::LituseJsr { load_offset: off(load)? },
                    ));
                }
                SMark::LituseAddr { load } => {
                    m.relocs.push(Reloc::text(
                        here,
                        RelocKind::LituseAddr { load_offset: off(load)? },
                    ));
                }
                SMark::GpdispHi { lo, anchor } => {
                    let anchor_off = match anchor {
                        SAnchor::Entry => start,
                        SAnchor::AfterCall(jsr) => off(jsr)? + 4,
                    };
                    m.relocs.push(Reloc::text(
                        here,
                        RelocKind::Gpdisp {
                            pair_offset: off(lo)? as i64 - here as i64,
                            anchor: anchor_off,
                            gp_group: 0,
                        },
                    ));
                }
                SMark::GpdispLo { .. } => {}
                SMark::BrSym { target, addend } => {
                    let sym = names.id(target)?;
                    m.relocs
                        .push(Reloc::text(here, RelocKind::BrAddr { sym, addend: *addend }));
                }
                SMark::BrLocal { target } => {
                    let toff = off(target)?;
                    let disp = (toff as i64 - (here as i64 + 4)) / 4;
                    if let Inst::Br { op, ra, .. } = inst {
                        inst = Inst::Br { op, ra, disp: disp as i32 };
                    } else {
                        return Err(OmError::Internal {
                            context: "emit".into(),
                            what: format!("BrLocal on non-branch in {}", p.name),
                        });
                    }
                }
                SMark::Gprel { target, addend } => {
                    let sym = names.id(target)?;
                    m.relocs.push(Reloc::text(
                        here,
                        RelocKind::Gprel16 { sym, addend: *addend, gp_group: 0 },
                    ));
                }
                SMark::GprelHi { target, addend } => {
                    let sym = names.id(target)?;
                    m.relocs.push(Reloc::text(
                        here,
                        RelocKind::GprelHigh { sym, addend: *addend, gp_group: 0 },
                    ));
                }
                SMark::GprelLo { target, addend, hi_addend } => {
                    let sym = names.id(target)?;
                    m.relocs.push(Reloc::text(
                        here,
                        RelocKind::GprelLow {
                            sym,
                            addend: *addend,
                            hi_addend: *hi_addend,
                            gp_group: 0,
                        },
                    ));
                }
            }
            m.text.extend_from_slice(&om_alpha::encode(inst).to_le_bytes());
        }
        // Update the procedure symbol in place.
        let size = m.text.len() as u64 - start;
        let entry = m.symbols.get_mut(p.sym.0 as usize).ok_or_else(|| OmError::Internal {
            context: "emit".into(),
            what: format!("procedure symbol id {} out of range in {}", p.sym.0, p.name),
        })?;
        if let SymbolDef::Proc { offset, size: sz, .. } = &mut entry.def {
            *offset = start;
            *sz = size;
        } else {
            return Err(OmError::Internal {
                context: "emit".into(),
                what: format!("procedure symbol {} is not a proc", p.name),
            });
        }
    }

    if program.preserve_gat {
        pool.preserve(&src.lita);
    }
    m.lita = pool.entries;
    m.symbols.extend(names.appended.iter().map(|&n| Symbol::external(n)));

    m.relocs.sort_by_key(|r| {
        let rank = match r.kind {
            RelocKind::Gpdisp { .. } => 0,
            RelocKind::Literal { .. } => 1,
            _ => 2,
        };
        (r.sec, r.offset, rank)
    });
    om_obs::count("emit.insts", m.text.len() as u64 / 4);
    Ok(m)
}

/// Emits every module of the program.
///
/// # Errors
///
/// Returns [`OmError::Internal`] if any module has dangling symbolic
/// references (see [`emit_module`]).
pub fn emit_all(program: &SymProgram) -> Result<Vec<Module>, OmError> {
    (0..program.modules.len())
        .map(|mi| emit_module(program, mi))
        .collect()
}
