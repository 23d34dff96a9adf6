//! Unit tests of the rescheduler: block-set preservation, pinning rules,
//! and quadword alignment placement.

use om_alpha::{Inst, Reg};
use om_codegen::{compile_source, crt0, CompileOpts};
use om_core::resched::schedule_proc;
use om_core::sym::{translate, SAnchor, SInst, SMark};
use om_linker::{build_symbol_table, select_modules};
use std::collections::HashSet;

fn main_proc(src: &str) -> om_core::sym::SymProc {
    let objects = vec![
        crt0::module().unwrap(),
        compile_source("m", src, &CompileOpts::o2()).unwrap(),
    ];
    let modules = select_modules(&objects, &[]).unwrap();
    let symtab = build_symbol_table(&modules).unwrap();
    let program = translate(&modules, &symtab).unwrap();
    program.modules[1]
        .procs
        .iter()
        .find(|p| p.name == "main")
        .unwrap()
        .clone()
}

#[test]
fn scheduling_permutes_within_blocks_only() {
    let mut p = main_proc(
        "int a; int b;
         int main() {
           int i = 0;
           int s = 0;
           for (i = 0; i < 8; i = i + 1) { s = s + a * 3 + b * 5 + i; }
           a = s;
           return s;
         }",
    );
    let before = p.insts.clone();

    // Compute the block partition of the original order.
    let mut leaders: HashSet<usize> = HashSet::new();
    leaders.insert(0);
    for (k, i) in before.iter().enumerate() {
        if i.inst.is_control() {
            leaders.insert(k + 1);
        }
        if let SMark::BrLocal { target } = i.mark {
            let pos = before.iter().position(|x| x.id == target).unwrap();
            leaders.insert(pos);
        }
    }
    let mut starts: Vec<usize> = leaders.into_iter().filter(|&k| k < before.len()).collect();
    starts.sort_unstable();

    schedule_proc(&mut p.insts);
    assert_eq!(p.insts.len(), before.len(), "scheduling neither adds nor removes");

    // Each original block's id-set must map to the same positions.
    for (bi, &s) in starts.iter().enumerate() {
        let e = starts.get(bi + 1).copied().unwrap_or(before.len());
        let orig: HashSet<u32> = before[s..e].iter().map(|i| i.id).collect();
        let now: HashSet<u32> = p.insts[s..e].iter().map(|i| i.id).collect();
        assert_eq!(orig, now, "block {bi} must keep its instruction set");
    }
}

#[test]
fn branch_targets_keep_their_position_at_block_heads() {
    let mut p = main_proc(
        "int g;
         int main() {
           int i = 0;
           while (i < 5) { g = g + i; i = i + 1; }
           return g;
         }",
    );
    schedule_proc(&mut p.insts);
    // Every branch target must still be the first instruction of its block:
    // i.e., the instruction before a target must be a control transfer or
    // the target must be pinned at a block head (no non-control instruction
    // was hoisted above it within its block).
    let targets: Vec<u32> = p
        .insts
        .iter()
        .filter_map(|i| match i.mark {
            SMark::BrLocal { target } => Some(target),
            _ => None,
        })
        .collect();
    for t in targets {
        let pos = p.insts.iter().position(|i| i.id == t).unwrap();
        if pos == 0 {
            continue;
        }
        let prev = &p.insts[pos - 1];
        assert!(
            prev.inst.is_control() || prev.id < t,
            "instruction {} (originally after target {t}) may not precede it",
            prev.id
        );
    }
}

#[test]
fn entry_gpdisp_pair_stays_pinned_at_the_entry() {
    // The frame setup has more dependents than the GP pair, so an unpinned
    // block schedules the sp-adjust first (as the compile-time scheduler
    // does); with the pair anchored at the entry it must stay at 0-1.
    let block = |hi_mark: SMark| -> Vec<SInst> {
        [
            (Inst::ldah(Reg::GP, 0, Reg::PV), hi_mark),
            (Inst::lda(Reg::GP, 0, Reg::GP), SMark::GpdispLo { hi: 0 }),
            (Inst::lda(Reg::SP, -32, Reg::SP), SMark::None),
            (Inst::stq(Reg::RA, 16, Reg::SP), SMark::None),
            (Inst::stq(Reg::new(9), 24, Reg::SP), SMark::None),
        ]
        .into_iter()
        .enumerate()
        .map(|(k, (inst, mark))| SInst { id: k as u32, inst, mark })
        .collect()
    };

    let mut pinned = block(SMark::GpdispHi { lo: 1, anchor: SAnchor::Entry });
    schedule_proc(&mut pinned);
    let ids: Vec<u32> = pinned.iter().map(|i| i.id).collect();
    assert_eq!(ids[..2], [0, 1], "entry GPDISP pair must stay at positions 0-1: {ids:?}");

    let mut free = block(SMark::GpdispHi { lo: 1, anchor: SAnchor::AfterCall(7) });
    schedule_proc(&mut free);
    assert_eq!(free[0].id, 2, "an unanchored pair is free to sink below the frame setup");
}

#[test]
fn alignment_pads_backward_targets_to_quadwords() {
    use om_core::{optimize_and_link, OmLevel};
    let objects = vec![
        crt0::module().unwrap(),
        compile_source(
            "m",
            "int g;
             int main() {
               int i = 0;
               for (i = 0; i < 100; i = i + 1) { g = g + i * 3; }
               return g;
             }",
            &CompileOpts::o2(),
        )
        .unwrap(),
    ];
    let out = optimize_and_link(&objects, &[], OmLevel::FullSched).unwrap();
    // Find every backward branch in the final image and check its target is
    // 8-byte aligned.
    let text = &out.image.segments[0];
    let mut checked = 0;
    for (k, w) in text.bytes.chunks_exact(4).enumerate() {
        let word = u32::from_le_bytes(w.try_into().unwrap());
        let Ok(Inst::Br { op, disp, .. }) = om_alpha::decode(word) else { continue };
        if matches!(op, om_alpha::BrOp::Bsr) {
            continue; // calls target procedure entries (16-aligned anyway)
        }
        if disp < 0 {
            let pc = text.base + 4 * k as u64;
            let target = (pc as i64 + 4 + disp as i64 * 4) as u64;
            assert_eq!(target % 8, 0, "backward target {target:#x} must be aligned");
            checked += 1;
        }
    }
    assert!(checked > 0, "the loop must produce a backward conditional branch");
    let _ = Reg::ZERO;
}
