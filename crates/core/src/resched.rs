//! Final rescheduling: per-basic-block list scheduling after all the
//! address-calculation optimizations, plus quadword alignment of
//! backward-branch targets (§4: "Rescheduling includes quadword-aligning
//! instructions that are the targets of backward branches, which is intended
//! to improve the behavior of the AXP's dual-issue and cache").
//!
//! The input was scheduled at compile time "in the presence of a large number
//! of address loads that OM later removed"; rescheduling lets the freed
//! latency slots be reused. The paper found the payoff small — our harness
//! measures the same experiment.

use crate::fault::{FaultKind, FaultPlan};
use crate::stats::OmStats;
use crate::sym::{InstId, SAnchor, SInst, SMark, SymProc, SymProgram};
use om_alpha::sched::schedule;
use om_alpha::{Effects, Inst};
use std::collections::HashMap;

/// Reschedules every procedure and aligns backward-branch targets.
pub fn run(program: &mut SymProgram, stats: &mut OmStats) {
    run_with(program, stats, true, None);
}

/// [`run`] with the alignment pass optional (the ablation the paper itself
/// performed on `ear`: "when we scheduled it without alignment the
/// performance was improved") and an optional mutation-testing fault plan.
pub fn run_with(
    program: &mut SymProgram,
    stats: &mut OmStats,
    align: bool,
    fault: Option<&FaultPlan>,
) {
    for m in &mut program.modules {
        for p in &mut m.procs {
            let is_target = branch_target_mask(&p.insts);
            schedule_blocks(&mut p.insts, &is_target);
            // Fault point: procedures with an adjacent truly-dependent pair
            // are the candidate sites for a dependence-violating swap.
            if fault.is_some() {
                if let Some(k) = dependent_adjacent_pair(&p.insts, &is_target) {
                    if crate::fault::armed(fault, FaultKind::SchedSwap) {
                        p.insts.swap(k, k + 1);
                    }
                }
            }
        }
    }
    if align {
        align_backward_targets(program, stats);
    }
}

/// First position `k` where instruction `k+1` truly depends on `k` (reads
/// an integer register `k` writes), neither is a control transfer, and
/// neither is a branch target — the site the [`FaultKind::SchedSwap`]
/// mutation inverts.
fn dependent_adjacent_pair(insts: &[SInst], is_target: &[bool]) -> Option<usize> {
    insts.windows(2).enumerate().position(|(k, w)| {
        let (a, b) = (Effects::of(&w[0].inst), Effects::of(&w[1].inst));
        !a.control
            && !b.control
            && a.int_defs & b.int_uses != 0
            && !is_target[k]
            && !is_target[k + 1]
    })
}

/// Marks the positions of `insts` that some local branch targets.
/// Scheduling pins targets at their block heads, so the mask stays valid
/// for the scheduled order.
fn branch_target_mask(insts: &[SInst]) -> Vec<bool> {
    let span = insts.iter().map(|i| i.id as usize + 1).max().unwrap_or(0);
    let mut pos_of = vec![usize::MAX; span];
    for (k, i) in insts.iter().enumerate() {
        pos_of[i.id as usize] = k;
    }
    let mut is_target = vec![false; insts.len()];
    for i in insts {
        if let SMark::BrLocal { target } = i.mark {
            is_target[pos_of[target as usize]] = true;
        }
    }
    is_target
}

/// Splits `insts` into basic blocks and list-schedules each block in place.
pub fn schedule_proc(insts: &mut [SInst]) {
    let is_target = branch_target_mask(insts);
    schedule_blocks(insts, &is_target);
}

/// [`schedule_proc`] over a precomputed [`branch_target_mask`].
fn schedule_blocks(insts: &mut [SInst], is_target: &[bool]) {
    // The entry GPDISP pair is pinned: OM-full restored it to the procedure
    // entry precisely so call sites can skip it (BSR to entry+8), and some
    // already do — rescheduling must not sink it again.
    let pinned = match insts {
        [first, second, ..] => match first.mark {
            SMark::GpdispHi { lo, anchor: SAnchor::Entry } if second.id == lo => 2,
            _ => 0,
        },
        _ => 0,
    };

    // Block leaders: position 0, branch targets, and instructions after a
    // control transfer.
    let n = insts.len();
    let mut s = 0;
    while s < n {
        let mut e = s + 1;
        while e < n && !insts[e - 1].inst.is_control() && !is_target[e] {
            e += 1;
        }
        // Branch-target instructions must stay at their block heads: a
        // branch jumps to a specific instruction id, and anything the
        // scheduler hoisted above it would be skipped on the branch path.
        let mut head = s.max(pinned);
        while head < e && is_target[head] {
            head += 1;
        }
        if head < e {
            schedule(&mut insts[head..e], |i| &i.inst);
        }
        s = e;
    }
}

/// The distinct backward-branch targets of `p` (target position ≤ branch
/// position), in target code order. The index of a target in this list is
/// its *rank* — the key the profile format uses to match targets across
/// relinks (scheduling is deterministic and padding never adds targets, so
/// ranks are stable where instruction ids and addresses are not).
pub fn backward_target_ids(p: &SymProc) -> Vec<InstId> {
    let pos_of: HashMap<InstId, usize> =
        p.insts.iter().enumerate().map(|(k, i)| (i.id, k)).collect();
    let mut positions: Vec<usize> = p
        .insts
        .iter()
        .enumerate()
        .filter_map(|(k, i)| match i.mark {
            SMark::BrLocal { target } if pos_of[&target] <= k => Some(pos_of[&target]),
            _ => None,
        })
        .collect();
    positions.sort_unstable();
    positions.dedup();
    positions.into_iter().map(|k| p.insts[k].id).collect()
}

/// Inserts UNOPs so that every backward-branch target lands on an 8-byte
/// boundary in the final image (procedure start offsets are 16-aligned at
/// layout time, so intra-module offsets determine alignment).
fn align_backward_targets(program: &mut SymProgram, stats: &mut OmStats) {
    align_backward_targets_where(program, stats, |_, _, _| true);
}

/// [`align_backward_targets`] restricted to the targets `keep` selects by
/// `(module index, proc index, target rank)` — the profile-guided layout
/// pass aligns only *hot* targets through this hook.
pub fn align_backward_targets_where(
    program: &mut SymProgram,
    stats: &mut OmStats,
    mut keep: impl FnMut(usize, usize, usize) -> bool,
) {
    for (mi, m) in program.modules.iter_mut().enumerate() {
        // Offset of each proc start within the module, updated as UNOPs are
        // inserted (procedures are laid out back to back).
        let mut base = 0u64;
        for (pi, p) in m.procs.iter_mut().enumerate() {
            let rank_of: HashMap<InstId, usize> = backward_target_ids(p)
                .into_iter()
                .enumerate()
                .map(|(rank, id)| (id, rank))
                .collect();

            // Walk front to back, padding before each selected target until
            // its offset is quadword-aligned. Padding shifts later targets,
            // so process in position order.
            let mut k = 0;
            while k < p.insts.len() {
                let id = p.insts[k].id;
                let wanted = rank_of.get(&id).is_some_and(|&rank| keep(mi, pi, rank));
                if wanted && !(base + 4 * k as u64).is_multiple_of(8) {
                    let fresh = p.fresh_id();
                    p.insts.insert(k, SInst { id: fresh, inst: Inst::unop(), mark: SMark::None });
                    stats.unops_inserted += 1;
                    k += 1; // the target moved one slot later and is now aligned
                }
                k += 1;
            }
            base += 4 * p.insts.len() as u64;
        }
    }
}
