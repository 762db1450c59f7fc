//! Property tests for the execution engine.
//!
//! 1. *Semantic equivalence*: running a random straight-line program through
//!    translate → IR-interpret must leave the CPU in the same state as a
//!    direct reference evaluation of the guest instructions.
//!    It must hold for both instantiations of the block executor: the
//!    fully-clean one (nothing tainted) and the shadow one (taint seeded on
//!    a register the program never reads).
//! 2. *Knob and quantum inertness*: the generated body wrapped in a counted
//!    loop — hot enough for chaining and superblock fusion to engage — ends
//!    in the same registers, flags and icount under every [`ExecTuning`]
//!    combination and under a quantum of 1 vs 1 000 000.
//! 3. *Taint soundness*: with no injected fault the whole system stays
//!    taint-free; with an injected tainted register, the precise policy's
//!    final taint is a subset of the conservative policy's.

use chaser_isa::{Asm, Cond, CpuState, FReg, Flags, Instruction, Reg};
use chaser_taint::{TaintMask, TaintPolicy};
use chaser_tcg::SB_HOT_THRESHOLD;
use chaser_vm::{ExecTuning, ExitStatus, Node, SliceExit};
use proptest::prelude::*;

/// Registers the generator uses (avoids SP so the stack stays sane, and R1
/// because `exit_with` clobbers it).
const REGS: [Reg; 6] = [Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6, Reg::R7];
const FREGS: [FReg; 4] = [FReg::F0, FReg::F1, FReg::F2, FReg::F3];
/// Never read by generated code: seeding taint here forces the shadow
/// executor without changing any value the program computes.
const TAINT_SEED_REG: Reg = Reg::R8;
/// Loop counter of the counted-loop case, outside `REGS`.
const COUNTER: Reg = Reg::R9;
/// Loop trips: well past the superblock hotness threshold, so the loop's
/// back edge gets chained and then fused.
const LOOP_ITERS: i64 = 2 * SB_HOT_THRESHOLD as i64;

fn arb_reg() -> impl Strategy<Value = Reg> {
    proptest::sample::select(&REGS[..])
}

fn arb_freg() -> impl Strategy<Value = FReg> {
    proptest::sample::select(&FREGS[..])
}

/// Straight-line, memory-free, trap-free instructions.
fn arb_insn() -> impl Strategy<Value = Instruction> {
    use Instruction as I;
    prop_oneof![
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::MovRR { dst, src }),
        (arb_reg(), -1000i64..1000).prop_map(|(dst, imm)| I::MovRI { dst, imm }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Add { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Sub { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Mul { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::And { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Or { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Xor { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Shl { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Shr { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Sar { dst, src }),
        (arb_reg(), 0i64..64).prop_map(|(dst, imm)| I::ShlI { dst, imm }),
        (arb_reg(), 0i64..64).prop_map(|(dst, imm)| I::ShrI { dst, imm }),
        (arb_reg(), 0i64..64).prop_map(|(dst, imm)| I::SarI { dst, imm }),
        (arb_reg(), -1000i64..1000).prop_map(|(dst, imm)| I::AddI { dst, imm }),
        (arb_reg(), -1000i64..1000).prop_map(|(dst, imm)| I::XorI { dst, imm }),
        arb_reg().prop_map(|dst| I::Neg { dst }),
        arb_reg().prop_map(|dst| I::Not { dst }),
        (arb_reg(), arb_reg()).prop_map(|(a, b)| I::Cmp { a, b }),
        (arb_freg(), arb_freg()).prop_map(|(dst, src)| I::FMov { dst, src }),
        (arb_freg(), -100i32..100).prop_map(|(dst, v)| I::FMovI {
            dst,
            imm: v as f64 / 4.0
        }),
        (arb_freg(), arb_freg()).prop_map(|(dst, src)| I::Fadd { dst, src }),
        (arb_freg(), arb_freg()).prop_map(|(dst, src)| I::Fsub { dst, src }),
        (arb_freg(), arb_freg()).prop_map(|(dst, src)| I::Fmul { dst, src }),
        (arb_freg(), arb_freg()).prop_map(|(dst, src)| I::Fdiv { dst, src }),
        arb_freg().prop_map(|dst| I::Fabs { dst }),
        arb_freg().prop_map(|dst| I::Fneg { dst }),
        (arb_freg(), arb_reg()).prop_map(|(dst, src)| I::CvtIF { dst, src }),
        (arb_reg(), arb_freg()).prop_map(|(dst, src)| I::MovFR { dst, src }),
        (arb_freg(), arb_reg()).prop_map(|(dst, src)| I::MovRF { dst, src }),
        (arb_freg(), arb_freg()).prop_map(|(a, b)| I::Fcmp { a, b }),
    ]
}

/// Direct reference semantics for the generated subset.
fn reference_step(cpu: &mut CpuState, insn: &Instruction) {
    use Instruction as I;
    match *insn {
        I::MovRR { dst, src } => cpu.set_reg(dst, cpu.reg(src)),
        I::MovRI { dst, imm } => cpu.set_reg(dst, imm as u64),
        I::Add { dst, src } => cpu.set_reg(dst, cpu.reg(dst).wrapping_add(cpu.reg(src))),
        I::Sub { dst, src } => cpu.set_reg(dst, cpu.reg(dst).wrapping_sub(cpu.reg(src))),
        I::Mul { dst, src } => cpu.set_reg(dst, cpu.reg(dst).wrapping_mul(cpu.reg(src))),
        I::And { dst, src } => cpu.set_reg(dst, cpu.reg(dst) & cpu.reg(src)),
        I::Or { dst, src } => cpu.set_reg(dst, cpu.reg(dst) | cpu.reg(src)),
        I::Xor { dst, src } => cpu.set_reg(dst, cpu.reg(dst) ^ cpu.reg(src)),
        I::Shl { dst, src } => cpu.set_reg(dst, cpu.reg(dst) << (cpu.reg(src) & 63)),
        I::Shr { dst, src } => cpu.set_reg(dst, cpu.reg(dst) >> (cpu.reg(src) & 63)),
        I::Sar { dst, src } => {
            cpu.set_reg(dst, ((cpu.reg(dst) as i64) >> (cpu.reg(src) & 63)) as u64)
        }
        I::ShlI { dst, imm } => cpu.set_reg(dst, cpu.reg(dst) << (imm as u64 & 63)),
        I::ShrI { dst, imm } => cpu.set_reg(dst, cpu.reg(dst) >> (imm as u64 & 63)),
        I::SarI { dst, imm } => {
            cpu.set_reg(dst, ((cpu.reg(dst) as i64) >> (imm as u64 & 63)) as u64)
        }
        I::AddI { dst, imm } => cpu.set_reg(dst, cpu.reg(dst).wrapping_add(imm as u64)),
        I::XorI { dst, imm } => cpu.set_reg(dst, cpu.reg(dst) ^ imm as u64),
        I::Neg { dst } => cpu.set_reg(dst, (cpu.reg(dst) as i64).wrapping_neg() as u64),
        I::Not { dst } => cpu.set_reg(dst, !cpu.reg(dst)),
        I::Cmp { a, b } => cpu.flags = Flags::from_int_cmp(cpu.reg(a), cpu.reg(b)),
        I::FMov { dst, src } => cpu.set_freg_bits(dst, cpu.freg_bits(src)),
        I::FMovI { dst, imm } => cpu.set_freg(dst, imm),
        I::Fadd { dst, src } => cpu.set_freg(dst, cpu.freg(dst) + cpu.freg(src)),
        I::Fsub { dst, src } => cpu.set_freg(dst, cpu.freg(dst) - cpu.freg(src)),
        I::Fmul { dst, src } => cpu.set_freg(dst, cpu.freg(dst) * cpu.freg(src)),
        I::Fdiv { dst, src } => cpu.set_freg(dst, cpu.freg(dst) / cpu.freg(src)),
        I::Fabs { dst } => cpu.set_freg(dst, cpu.freg(dst).abs()),
        I::Fneg { dst } => cpu.set_freg(dst, -cpu.freg(dst)),
        I::CvtIF { dst, src } => cpu.set_freg(dst, (cpu.reg(src) as i64) as f64),
        I::MovFR { dst, src } => cpu.set_reg(dst, cpu.freg_bits(src)),
        I::MovRF { dst, src } => cpu.set_freg_bits(dst, cpu.reg(src)),
        I::Fcmp { a, b } => cpu.flags = Flags::from_fp_cmp(cpu.freg(a), cpu.freg(b)),
        ref other => panic!("generator produced unsupported insn {other:?}"),
    }
}

fn build_program(insns: &[Instruction]) -> chaser_isa::Program {
    let mut a = Asm::new("prop");
    for insn in insns {
        a.insn(*insn);
    }
    a.exit(0);
    a.assemble().expect("assemble")
}

/// `body` repeated `LOOP_ITERS` times by a counted loop on `COUNTER`.
fn build_loop_program(body: &[Instruction]) -> chaser_isa::Program {
    let mut a = Asm::new("prop-loop");
    a.movi(COUNTER, 0);
    a.label("loop");
    for insn in body {
        a.insn(*insn);
    }
    a.addi(COUNTER, 1);
    a.cmpi(COUNTER, LOOP_ITERS);
    a.jcc(Cond::Lt, "loop");
    a.exit(0);
    a.assemble().expect("assemble")
}

fn run_program(node: &mut Node, prog: &chaser_isa::Program) -> u64 {
    run_program_with(node, prog, 1_000_000, false)
}

/// Spawns and runs `prog` to a clean exit in slices of `quantum`, with one
/// bit of `TAINT_SEED_REG` tainted first when `seed_taint` is set.
fn run_program_with(
    node: &mut Node,
    prog: &chaser_isa::Program,
    quantum: u64,
    seed_taint: bool,
) -> u64 {
    let pid = node.spawn(prog).expect("spawn");
    if seed_taint {
        node.taint_mut().set_reg(TAINT_SEED_REG, TaintMask::bit(0));
        assert!(!node.taint().fully_idle());
    }
    loop {
        match node.run_slice(pid, quantum) {
            SliceExit::Exited(status) => {
                assert_eq!(status, ExitStatus::Exited(0));
                return pid;
            }
            SliceExit::QuantumExpired => continue,
            other => panic!("unexpected: {other:?}"),
        }
    }
}

/// The architectural state a run must reproduce: generated registers,
/// FP registers, flags and retired-instruction count.
fn final_state(node: &Node, pid: u64) -> (Vec<u64>, Vec<u64>, Flags, u64) {
    let proc = node.process(pid).expect("proc");
    (
        REGS.iter().map(|&r| proc.cpu.reg(r)).collect(),
        FREGS.iter().map(|&f| proc.cpu.freg_bits(f)).collect(),
        proc.cpu.flags,
        proc.icount,
    )
}

/// Every `ExecTuning` combination.
fn all_tunings() -> impl Iterator<Item = ExecTuning> {
    (0..8u8).map(|bits| ExecTuning {
        tb_chaining: bits & 1 != 0,
        taint_fast_path: bits & 2 != 0,
        superblocks: bits & 4 != 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_matches_reference_semantics(insns in proptest::collection::vec(arb_insn(), 1..60)) {
        let prog = build_program(&insns);
        let mut reference = CpuState::new(prog.entry());
        for insn in &insns {
            reference_step(&mut reference, insn);
        }
        // Clean executor, then the shadow executor.
        for seed_taint in [false, true] {
            let mut node = Node::new(0);
            let pid = run_program_with(&mut node, &prog, 1_000_000, seed_taint);
            let engine_cpu = &node.process(pid).expect("proc").cpu;
            for r in REGS {
                prop_assert_eq!(engine_cpu.reg(r), reference.reg(r), "mismatch in {}", r);
            }
            for f in FREGS {
                prop_assert_eq!(
                    engine_cpu.freg_bits(f),
                    reference.freg_bits(f),
                    "mismatch in {}", f
                );
            }
            prop_assert_eq!(node.taint().fully_idle(), !seed_taint);
        }
    }

    #[test]
    fn hot_loop_agrees_across_tunings_and_quanta(
        body in proptest::collection::vec(arb_insn(), 1..40),
    ) {
        let prog = build_loop_program(&body);
        let mut reference = CpuState::new(prog.entry());
        for _ in 0..LOOP_ITERS {
            for insn in &body {
                reference_step(&mut reference, insn);
            }
        }
        // Registers are checked against the reference; flags and icount
        // against the first run.
        let mut expected = None;
        for seed_taint in [false, true] {
            for tuning in all_tunings() {
                for quantum in [1, 1_000_000] {
                    let mut node = Node::new(0);
                    node.set_exec_tuning(tuning);
                    let pid = run_program_with(&mut node, &prog, quantum, seed_taint);
                    let state = final_state(&node, pid);
                    for (i, r) in REGS.iter().enumerate() {
                        prop_assert_eq!(state.0[i], reference.reg(*r), "mismatch in {}", r);
                    }
                    for (i, f) in FREGS.iter().enumerate() {
                        prop_assert_eq!(state.1[i], reference.freg_bits(*f), "mismatch in {}", f);
                    }
                    if tuning == ExecTuning::default() && quantum > 1 {
                        // Chaining and fusion really engaged.
                        let stats = node.engine_stats();
                        prop_assert!(stats.tb_chain_hits > 0);
                        prop_assert!(stats.superblocks_formed > 0);
                    }
                    match &expected {
                        None => expected = Some(state),
                        Some(first) => prop_assert_eq!(
                            &state, first,
                            "tuning {:?}, quantum {}, seeded {}", tuning, quantum, seed_taint
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn no_fault_means_no_taint(insns in proptest::collection::vec(arb_insn(), 1..60)) {
        let prog = build_program(&insns);
        let mut node = Node::new(0);
        run_program(&mut node, &prog);
        prop_assert!(node.taint().is_fully_clean());
    }

    #[test]
    fn precise_taint_is_subset_of_conservative(
        insns in proptest::collection::vec(arb_insn(), 1..60),
        seed_bit in 0u32..64,
    ) {
        let prog = build_program(&insns);
        let mut masks = Vec::new();
        for policy in [TaintPolicy::Precise, TaintPolicy::Conservative] {
            let mut node = Node::with_config(0, 16 << 20, policy);
            let pid = node.spawn(&prog).expect("spawn");
            // Seed taint: one bit of R2 is "faulty" from the start.
            node.taint_mut().set_reg(Reg::R2, TaintMask::bit(seed_bit));
            loop {
                match node.run_slice(pid, 1_000_000) {
                    SliceExit::Exited(_) => break,
                    SliceExit::QuantumExpired => continue,
                    other => panic!("unexpected: {other:?}"),
                }
            }
            let mut per_reg = Vec::new();
            for r in REGS {
                per_reg.push(node.taint().reg(r));
            }
            for f in FREGS {
                per_reg.push(node.taint().freg(f));
            }
            masks.push(per_reg);
        }
        for (p, c) in masks[0].iter().zip(&masks[1]) {
            prop_assert_eq!(p.0 & !c.0, 0, "precise {} ⊄ conservative {}", p, c);
        }
    }
}
