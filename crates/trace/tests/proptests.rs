//! Property-based tests for the trace crate: codec round-trips over
//! arbitrary well-formed traces, generator validity over arbitrary
//! configurations, and statistics consistency.

use std::collections::HashSet;

use fdip_trace::gen::{GeneratorConfig, Profile};
use fdip_trace::{
    read_binary, read_text, write_binary, write_text, Trace, TraceBuilder, TraceStats,
};
use fdip_types::{Addr, BranchClass, BranchRecord, TraceInstr};
use proptest::prelude::*;

/// One abstract builder operation; a sequence of these describes a
/// well-formed trace by construction.
#[derive(Clone, Debug)]
enum Op {
    Plain(u32),
    CondTaken(u64),
    CondNotTaken(u64),
    Jump(u64),
    Call(u64),
    ICall(u64),
    Ret,
    IJump(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let target = 0u64..1 << 20;
    prop_oneof![
        (1u32..20).prop_map(Op::Plain),
        target.clone().prop_map(Op::CondTaken),
        target.clone().prop_map(Op::CondNotTaken),
        target.clone().prop_map(Op::Jump),
        target.clone().prop_map(Op::Call),
        target.clone().prop_map(Op::ICall),
        Just(Op::Ret),
        target.prop_map(Op::IJump),
    ]
}

fn build(ops: &[Op], start: u64) -> Trace {
    let mut b = TraceBuilder::new("prop", Addr::from_inst_index(start));
    for op in ops {
        match *op {
            Op::Plain(n) => {
                b.plain(n);
            }
            Op::CondTaken(t) => {
                b.cond(true, Addr::from_inst_index(t));
            }
            Op::CondNotTaken(t) => {
                b.cond(false, Addr::from_inst_index(t));
            }
            Op::Jump(t) => {
                b.jump(Addr::from_inst_index(t));
            }
            Op::Call(t) => {
                b.call(Addr::from_inst_index(t));
            }
            Op::ICall(t) => {
                b.icall(Addr::from_inst_index(t));
            }
            Op::Ret => {
                if b.call_depth() > 0 {
                    b.ret();
                }
            }
            Op::IJump(t) => {
                b.ijump(Addr::from_inst_index(t));
            }
        }
    }
    b.finish()
}

/// Bases of the small PC windows the raw-instruction strategy draws from:
/// few enough that 64-byte blocks are left and revisited, and the last one
/// ends at the top of the address space.
const PC_WINDOWS: [u64; 4] = [0, 0x1000, 0xdead_0000, u64::MAX - 255];

/// One raw instruction at an arbitrary (not necessarily word-aligned) PC in
/// one of [`PC_WINDOWS`]: a plain record, a not-taken branch or a taken one.
fn raw_instr_strategy() -> impl Strategy<Value = TraceInstr> {
    (
        0..PC_WINDOWS.len(),
        0u64..256,
        0u8..3,
        0..BranchClass::ALL.len(),
        0u64..256,
    )
        .prop_map(|(window, offset, kind, class, target)| {
            let pc = Addr::new(PC_WINDOWS[window] + offset);
            let target = Addr::new(PC_WINDOWS[window] + target);
            match kind {
                0 => TraceInstr::plain(pc),
                1 => TraceInstr::branch(
                    pc,
                    BranchRecord::new(BranchClass::CondDirect, false, target),
                ),
                _ => {
                    TraceInstr::branch(pc, BranchRecord::new(BranchClass::ALL[class], true, target))
                }
            }
        })
}

/// `(footprint_bytes, footprint_blocks_64b, static_branches,
/// static_taken_branches)` counted naively, one set per field.
fn naive_footprint(instrs: &[TraceInstr]) -> (u64, u64, u64, u64) {
    let pcs: HashSet<u64> = instrs.iter().map(|i| i.pc.raw()).collect();
    let blocks: HashSet<u64> = pcs.iter().map(|pc| pc / 64).collect();
    let branches: HashSet<u64> = instrs
        .iter()
        .filter(|i| i.branch.is_some())
        .map(|i| i.pc.raw())
        .collect();
    let taken: HashSet<u64> = instrs
        .iter()
        .filter(|i| i.branch.is_some_and(|b| b.taken))
        .map(|i| i.pc.raw())
        .collect();
    (
        pcs.len() as u64 * 4,
        blocks.len() as u64,
        branches.len() as u64,
        taken.len() as u64,
    )
}

proptest! {
    #[test]
    fn builder_traces_are_always_valid(
        ops in prop::collection::vec(op_strategy(), 0..60),
        start in 0u64..1 << 20,
    ) {
        let t = build(&ops, start);
        prop_assert!(t.validate().is_ok());
    }

    #[test]
    fn binary_roundtrip(
        ops in prop::collection::vec(op_strategy(), 0..60),
        start in 0u64..1 << 20,
    ) {
        let t = build(&ops, start);
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        prop_assert_eq!(t, back);
    }

    #[test]
    fn text_roundtrip(
        ops in prop::collection::vec(op_strategy(), 0..40),
        start in 0u64..1 << 20,
    ) {
        let t = build(&ops, start);
        let mut buf = Vec::new();
        write_text(&mut buf, &t).unwrap();
        let back = read_text(&buf[..]).unwrap();
        prop_assert_eq!(t, back);
    }

    #[test]
    fn truncated_binary_never_panics(
        ops in prop::collection::vec(op_strategy(), 1..30),
        cut_fraction in 0.0f64..1.0,
    ) {
        let t = build(&ops, 0x100);
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        let cut = ((buf.len() as f64) * cut_fraction) as usize;
        // Either it decodes a prefix-consistent trace or it errors; it must
        // never panic.
        let _ = read_binary(&buf[..cut]);
    }

    #[test]
    fn generator_output_is_valid_under_arbitrary_shapes(
        seed in 0u64..1_000,
        funcs in 2usize..40,
        levels in 1usize..6,
        modules in 1usize..4,
    ) {
        let t = GeneratorConfig::profile(Profile::Client)
            .seed(seed)
            .num_funcs(funcs)
            .call_levels(levels)
            .modules(modules)
            .target_len(1_500)
            .generate();
        prop_assert!(t.len() >= 1_500);
        prop_assert!(t.validate().is_ok());
    }

    #[test]
    fn stats_are_internally_consistent(
        seed in 0u64..200,
    ) {
        let t = GeneratorConfig::profile(Profile::MicroLoop)
            .seed(seed)
            .target_len(2_000)
            .generate();
        let s = TraceStats::measure(&t);
        prop_assert_eq!(s.len, t.len() as u64);
        // Footprint cannot exceed 4 bytes per dynamic instruction.
        prop_assert!(s.footprint_bytes <= 4 * s.len);
        // Every 64B block covers at least one unique instruction.
        prop_assert!(s.footprint_blocks_64b <= s.footprint_bytes / 4);
        // Taken branches are a subset of branches.
        prop_assert!(s.mix.total_taken() <= s.mix.total());
        // The offset histogram records exactly the dynamic taken branches.
        prop_assert_eq!(s.offsets.total(), s.mix.total_taken());
        prop_assert!(s.static_taken_branches <= s.static_branches);
    }

    #[test]
    fn footprint_matches_a_naive_count(
        instrs in prop::collection::vec(raw_instr_strategy(), 0..300),
    ) {
        let s = TraceStats::measure_instrs(&instrs);
        prop_assert_eq!(s.len, instrs.len() as u64);
        prop_assert_eq!(
            (s.footprint_bytes, s.footprint_blocks_64b, s.static_branches, s.static_taken_branches),
            naive_footprint(&instrs)
        );
    }
}
