//! Component replay (traced runs only): the `server` kernel trace's
//! instruction stream fed straight into the BTBs, direction predictors and
//! the L1-I, outside the simulator, so each component's cost per operation
//! is measured on the same stream the kernel simulates.

use std::hint::black_box;
use std::time::Instant;

use fdip_bpred::{DirectionPredictor, Gshare, Hybrid, Tage};
use fdip_btb::{
    BasicBlockBtb, Btb, BtbConfig, ConventionalBtb, PartitionConfig, PartitionedBtb, TagScheme,
    MAX_BLOCK_LEN,
};
use fdip_mem::{Cache, CacheGeometry, FillFlags, ReplacementPolicy};
use fdip_trace::Trace;
use fdip_types::Addr;

use crate::kernel::Inputs;
use crate::spans::SpanId;
use crate::{Ctx, Recorder};

/// BTB organizations: the baseline conventional BTB, the basic-block BTB
/// and the partitioned FDIP-X BTB, each at the kernel configs' 2K budget.
pub const BTBS: [&str; 3] = ["conventional", "bb", "fdipx"];

/// Direction predictors at the sizes the simulator configures them.
pub const PREDICTORS: [&str; 3] = ["gshare", "hybrid", "tage"];

/// L1-I line size of the default hierarchy.
const LINE_BYTES: u64 = 64;

fn per_op_ns(started: Instant, ops: usize) -> f64 {
    started.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64
}

/// Lookup, then install on a taken branch, for every branch.
fn replay_instr_btb(btb: &mut dyn Btb, trace: &Trace) -> usize {
    let mut ops = 0;
    for instr in trace.iter() {
        if let Some(b) = instr.branch {
            ops += 1;
            black_box(btb.lookup(instr.pc));
            if b.taken {
                btb.install(instr.pc, b.class, b.target);
            }
        }
    }
    ops
}

/// Lookup and install per basic block (entry at the block start). A run
/// of [`MAX_BLOCK_LEN`] instructions without a branch ends a block without
/// an entry, as the size field allows no longer one.
fn replay_block_btb(btb: &mut BasicBlockBtb, trace: &Trace) -> usize {
    let mut ops = 0;
    let mut start: Option<(Addr, u32)> = None;
    for instr in trace.iter() {
        let (block, len) = start.get_or_insert((instr.pc, 0));
        *len += 1;
        if let Some(b) = instr.branch {
            ops += 1;
            black_box(btb.lookup(*block));
            btb.install(*block, *len, b.class, b.target);
            start = None;
        } else if *len == MAX_BLOCK_LEN {
            start = None;
        }
    }
    ops
}

fn replay_predictor(p: &mut dyn DirectionPredictor, trace: &Trace) -> usize {
    let mut ops = 0;
    for instr in trace.iter() {
        if let Some(b) = instr.branch.filter(|b| b.class.is_conditional()) {
            ops += 1;
            let guess = p.predict(instr.pc);
            p.spec_update(instr.pc, guess);
            p.commit(instr.pc, b.taken);
        }
    }
    ops
}

fn replay_l1i(trace: &Trace) -> usize {
    let mut cache = Cache::new(
        CacheGeometry::from_capacity(16 * 1024, 2, LINE_BYTES),
        ReplacementPolicy::Lru,
    );
    let mut ops = 0;
    let mut last = None;
    for instr in trace.iter() {
        let line = instr.pc.block_base(LINE_BYTES);
        if last == Some(line) {
            continue;
        }
        last = Some(line);
        ops += 1;
        if cache.access(line).is_none() {
            cache.fill(line, FillFlags::default());
        }
    }
    black_box(&cache);
    ops
}

pub fn replay(ctx: &Ctx, inputs: &Inputs, rec: &mut Recorder, parent: SpanId) {
    let Some((_, trace, _)) = inputs.traces.iter().find(|(t, _, _)| *t == "server") else {
        return;
    };
    for name in BTBS {
        let _span = ctx.tracer.span(format!("btb.replay.{name}"), parent);
        let started = Instant::now();
        let ops = match name {
            "conventional" => replay_instr_btb(
                &mut ConventionalBtb::new(BtbConfig::new(256, 8, TagScheme::Full)),
                trace,
            ),
            "fdipx" => replay_instr_btb(
                &mut PartitionedBtb::new(PartitionConfig::from_bb_entries(2048)),
                trace,
            ),
            _ => replay_block_btb(
                &mut BasicBlockBtb::new(BtbConfig::new(256, 8, TagScheme::Full)),
                trace,
            ),
        };
        rec.sample(format!("btb.lookup_ns.{name}"), per_op_ns(started, ops));
    }
    for name in PREDICTORS {
        let mut p: Box<dyn DirectionPredictor> = match name {
            "gshare" => Box::new(Gshare::new(15, 12)),
            "hybrid" => Box::new(Hybrid::new(15, 15, 12, 15)),
            _ => Box::new(Tage::new(14, 12, 5)),
        };
        let _span = ctx.tracer.span(format!("bpred.replay.{name}"), parent);
        let started = Instant::now();
        let ops = replay_predictor(p.as_mut(), trace);
        rec.sample(
            format!("bpred.predict_update_ns.{name}"),
            per_op_ns(started, ops),
        );
    }
    let _span = ctx.tracer.span("mem.replay.l1i", parent);
    let started = Instant::now();
    let ops = replay_l1i(trace);
    rec.sample("mem.l1i_access_ns", per_op_ns(started, ops));
}
