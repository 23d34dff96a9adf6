//! Property test of the list scheduler: on random blocks it returns a
//! permutation, keeps every dependent pair in order, and leaves a trailing
//! control transfer last.
//!
//! Seeded loops over `om_prng` (the workspace builds offline, so no
//! proptest). Registers are drawn from a small pool so that blocks are dense
//! with register and memory hazards.

use om_alpha::inst::{BrOp, FOprOp, Inst, MemOp, Operand, OprOp};
use om_alpha::reg::Reg;
use om_alpha::sched::schedule;
use om_alpha::Effects;
use om_prng::StdRng;

fn int_reg(rng: &mut StdRng) -> Reg {
    Reg::new(rng.gen_range(1u8..7))
}

fn fp_reg(rng: &mut StdRng) -> Reg {
    Reg::new(rng.gen_range(1u8..5))
}

/// One straight-line instruction from the menu: loads, stores, LDA/LDAH,
/// integer operates, `mulq`, and FP operates.
fn straight_line(rng: &mut StdRng) -> Inst {
    let disp = 8 * rng.gen_range(0i16..4);
    match rng.gen_range(0u32..9) {
        0 => Inst::ldq(int_reg(rng), disp, int_reg(rng)),
        1 => Inst::stq(int_reg(rng), disp, int_reg(rng)),
        2 => Inst::Mem { op: MemOp::Ldt, ra: fp_reg(rng), rb: int_reg(rng), disp },
        3 => Inst::Mem { op: MemOp::Stt, ra: fp_reg(rng), rb: int_reg(rng), disp },
        4 => Inst::lda(int_reg(rng), disp, int_reg(rng)),
        5 => Inst::ldah(int_reg(rng), 1, int_reg(rng)),
        6 => {
            let op = [OprOp::Addq, OprOp::Subq, OprOp::And, OprOp::Cmovne][rng.gen_range(0..4)];
            Inst::Opr { op, ra: int_reg(rng), rb: Operand::Reg(int_reg(rng)), rc: int_reg(rng) }
        }
        7 => Inst::Opr {
            op: OprOp::Mulq,
            ra: int_reg(rng),
            rb: Operand::Lit(rng.gen_range(0u8..8)),
            rc: int_reg(rng),
        },
        _ => {
            let op = [FOprOp::Addt, FOprOp::Mult, FOprOp::Divt][rng.gen_range(0..3)];
            Inst::FOpr { op, fa: fp_reg(rng), fb: fp_reg(rng), fc: fp_reg(rng) }
        }
    }
}

/// A random block of 2–63 instructions, half of them ending in a branch.
fn block(rng: &mut StdRng) -> Vec<Inst> {
    let n = rng.gen_range(2usize..64);
    let mut b: Vec<Inst> = (0..n).map(|_| straight_line(rng)).collect();
    if rng.gen_bool(0.5) {
        let op = [BrOp::Bne, BrOp::Beq, BrOp::Br][rng.gen_range(0..3)];
        b[n - 1] = Inst::Br { op, ra: int_reg(rng), disp: -3 };
    }
    b
}

#[test]
fn schedule_is_a_dependence_preserving_permutation() {
    let mut rng = StdRng::seed_from_u64(0x5c4e_d01e);
    for case in 0..400 {
        let insts = block(&mut rng);
        let n = insts.len();
        let mut items: Vec<(usize, Inst)> = insts.iter().copied().enumerate().collect();
        schedule(&mut items, |(_, i)| i);

        // A permutation of the input, each instruction still with its index.
        let mut pos = vec![usize::MAX; n];
        for (k, &(orig, inst)) in items.iter().enumerate() {
            assert_eq!(inst, insts[orig], "case {case}: item {orig} changed");
            assert_eq!(pos[orig], usize::MAX, "case {case}: item {orig} appears twice");
            pos[orig] = k;
        }

        let effects: Vec<Effects> = insts.iter().map(Effects::of).collect();
        for j in 0..n {
            for i in 0..j {
                if effects[j].depends_on(&effects[i]) {
                    assert!(
                        pos[i] < pos[j],
                        "case {case}: `{}` (at {i}) must stay before `{}` (at {j})",
                        insts[i],
                        insts[j]
                    );
                }
            }
        }
        if insts[n - 1].is_control() {
            assert_eq!(pos[n - 1], n - 1, "case {case}: the branch must stay last");
        }
    }
}
