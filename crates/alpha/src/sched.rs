//! Latency-driven list scheduling of one basic block — the single
//! scheduler behind both compile-time scheduling (`om-codegen`) and OM's
//! final rescheduling (`om-core`'s `resched`).
//!
//! The scheduler never reorders across a dependence
//! ([`Effects::depends_on`]: register hazards, memory conflicts, control),
//! so a scheduled block is behaviorally identical to its input. Callers own
//! the block split and any pinning; this module only permutes the slice it
//! is given.

use crate::effects::Effects;
use crate::inst::Inst;
use crate::timing::{can_dual_issue, latency};

/// List-schedules `items` in place; `inst` views each item's instruction.
///
/// Priority is the critical-path length to the end of the block, then the
/// number of dependent successors, then whether the item dual-issues with
/// the previous pick, then source order.
pub fn schedule<T>(items: &mut [T], inst: impl Fn(&T) -> &Inst) {
    let n = items.len();
    if n < 2 {
        return;
    }
    let effects: Vec<Effects> = items.iter().map(|t| Effects::of(inst(t))).collect();

    // Dependence edges: succs[i] lists j > i that must follow i.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut npreds: Vec<usize> = vec![0; n];
    for j in 0..n {
        for i in 0..j {
            if effects[j].depends_on(&effects[i]) {
                succs[i].push(j);
                npreds[j] += 1;
            }
        }
    }

    // Critical-path priority and fan-out.
    let mut prio: Vec<u32> = vec![0; n];
    for i in (0..n).rev() {
        let tail = succs[i].iter().map(|&j| prio[j]).max().unwrap_or(0);
        prio[i] = latency(inst(&items[i])) + tail;
    }
    let fanout: Vec<usize> = succs.iter().map(Vec::len).collect();

    // Greedy pick: highest critical path, then fan-out, then source order;
    // prefer an instruction that dual-issues with the previous pick on ties.
    let mut ready: Vec<usize> = (0..n).filter(|&i| npreds[i] == 0).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut remaining_preds = npreds;
    while let Some(&first) = ready.first() {
        let mut best = first;
        for &c in &ready {
            let key = |i: usize| {
                let pairs = order
                    .last()
                    .map(|&p| can_dual_issue(inst(&items[p]), inst(&items[i])))
                    .unwrap_or(false);
                (prio[i], fanout[i], pairs as u32, std::cmp::Reverse(i))
            };
            if key(c) > key(best) {
                best = c;
            }
        }
        ready.retain(|&i| i != best);
        order.push(best);
        for &j in &succs[best] {
            remaining_preds[j] -= 1;
            if remaining_preds[j] == 0 {
                ready.push(j);
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    permute(items, order);
}

/// Rearranges `items` so that position `k` holds the item that was at
/// `order[k]`, by swapping along each cycle of the permutation.
fn permute<T>(items: &mut [T], mut order: Vec<usize>) {
    for start in 0..order.len() {
        let mut k = start;
        while order[k] != start {
            let from = std::mem::replace(&mut order[k], k);
            items.swap(k, from);
            k = from;
        }
        order[k] = k;
    }
}
