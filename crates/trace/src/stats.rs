//! Trace characterization: branch mix, instruction footprint, and the
//! branch-target offset distribution (the data behind extension experiment
//! X1 / "Revisited" Figure 3).

use std::collections::HashMap;
use std::fmt;

use fdip_types::{offset_bits, offset_insts, BranchClass, TraceInstr};

use crate::Trace;

/// Per-class dynamic branch counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BranchMix {
    counts: [u64; 6],
    taken: [u64; 6],
}

impl BranchMix {
    /// Dynamic count of branches of `class`.
    pub fn count(&self, class: BranchClass) -> u64 {
        self.counts[class.code() as usize]
    }

    /// Dynamic count of *taken* branches of `class`.
    pub fn taken(&self, class: BranchClass) -> u64 {
        self.taken[class.code() as usize]
    }

    /// Total dynamic branches.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total dynamic taken branches.
    pub fn total_taken(&self) -> u64 {
        self.taken.iter().sum()
    }

    /// Fraction of conditional branches that were taken, or 0 if none.
    pub fn cond_taken_ratio(&self) -> f64 {
        let conds = self.count(BranchClass::CondDirect);
        if conds == 0 {
            0.0
        } else {
            self.taken(BranchClass::CondDirect) as f64 / conds as f64
        }
    }

    fn record(&mut self, class: BranchClass, taken: bool) {
        self.counts[class.code() as usize] += 1;
        if taken {
            self.taken[class.code() as usize] += 1;
        }
    }
}

/// Histogram of branch-target offset widths (magnitude bits, 0..=64) over
/// dynamic taken-branch instances.
///
/// This regenerates the "Revisited" paper's Figure 3: the fraction of
/// dynamic branches whose target offset needs `n` bits to encode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OffsetHistogram {
    bins: Vec<u64>,
}

impl Default for OffsetHistogram {
    fn default() -> Self {
        OffsetHistogram { bins: vec![0; 65] }
    }
}

impl OffsetHistogram {
    /// Count of dynamic branches needing exactly `bits` magnitude bits.
    pub fn count(&self, bits: u32) -> u64 {
        self.bins.get(bits as usize).copied().unwrap_or(0)
    }

    /// Total dynamic branches recorded.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Fraction of dynamic branches needing exactly `bits` bits.
    pub fn fraction(&self, bits: u32) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(bits) as f64 / total as f64
        }
    }

    /// Fraction of dynamic branches whose offset fits in at most `bits` bits.
    pub fn cumulative_fraction(&self, bits: u32) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let upto: u64 = self.bins.iter().take(bits as usize + 1).sum();
        upto as f64 / total as f64
    }

    /// The largest offset width observed, if any branch was recorded.
    pub fn max_bits(&self) -> Option<u32> {
        self.bins.iter().rposition(|&c| c > 0).map(|idx| idx as u32)
    }

    fn record(&mut self, bits: u32) {
        self.bins[bits as usize] += 1;
    }
}

impl fmt::Display for OffsetHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "bits  fraction")?;
        let max = self.max_bits().unwrap_or(0);
        for bits in 0..=max {
            writeln!(f, "{:>4}  {:.4}", bits, self.fraction(bits))?;
        }
        Ok(())
    }
}

/// Histogram of dynamic basic-block sizes: the lengths of maximal runs of
/// records ending at a control-flow record (or at the end of the trace).
///
/// Sizes above 64 instructions are clamped into the top bin; the exact
/// instruction total is kept separately so [`mean`](Self::mean) is exact.
/// This is the distribution the fetch-directed front end actually sees —
/// one block per FTQ-enqueued fetch region — and the axis along which
/// synthetic and real-program traces are calibrated against each other.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockSizeHistogram {
    /// `bins[s]` counts blocks of exactly `s` instructions (`s` in
    /// 1..=[`Self::MAX_SIZE`]); larger blocks clamp into the top bin.
    bins: Vec<u64>,
    /// Exact total instructions across all recorded blocks.
    instrs: u64,
}

impl Default for BlockSizeHistogram {
    fn default() -> Self {
        BlockSizeHistogram {
            bins: vec![0; Self::MAX_SIZE as usize + 1],
            instrs: 0,
        }
    }
}

impl BlockSizeHistogram {
    /// Largest distinguishable block size; longer blocks clamp here.
    pub const MAX_SIZE: u32 = 64;

    /// Count of blocks of exactly `size` instructions (`MAX_SIZE` bin
    /// also holds everything larger).
    pub fn count(&self, size: u32) -> u64 {
        self.bins.get(size as usize).copied().unwrap_or(0)
    }

    /// Total blocks recorded.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Exact mean block size in instructions, or 0 if no blocks.
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.instrs as f64 / total as f64
        }
    }

    /// Fraction of blocks of exactly `size` instructions.
    pub fn fraction(&self, size: u32) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(size) as f64 / total as f64
        }
    }

    /// Smallest size `s` such that at least `p` (0..=1) of blocks have
    /// size ≤ `s`, or `None` if no blocks were recorded.
    pub fn percentile(&self, p: f64) -> Option<u32> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let need = (p.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0;
        for (size, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= need.max(1) {
                return Some(size as u32);
            }
        }
        Some(Self::MAX_SIZE)
    }

    /// The largest (clamped) block size observed, if any.
    pub fn max_size(&self) -> Option<u32> {
        self.bins.iter().rposition(|&c| c > 0).map(|idx| idx as u32)
    }

    fn record(&mut self, size: u64) {
        debug_assert!(size > 0, "basic blocks are non-empty");
        self.instrs += size;
        self.bins[(size.min(Self::MAX_SIZE as u64)) as usize] += 1;
    }
}

impl fmt::Display for BlockSizeHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "size  fraction")?;
        let max = self.max_size().unwrap_or(0);
        for size in 1..=max {
            writeln!(f, "{:>4}  {:.4}", size, self.fraction(size))?;
        }
        writeln!(f, "mean  {:.2}", self.mean())
    }
}

/// Static-footprint bitmasks of one 64-byte block: bit `i` stands for the
/// instruction at byte offset `i` of the block.
#[derive(Clone, Copy, Debug, Default)]
struct BlockMasks {
    /// PCs executed.
    pcs: u64,
    /// PCs seen as a branch record.
    branches: u64,
    /// PCs seen as a taken branch.
    taken: u64,
}

impl BlockMasks {
    fn merge(&mut self, other: BlockMasks) {
        self.pcs |= other.pcs;
        self.branches |= other.branches;
        self.taken |= other.taken;
    }
}

/// Aggregate characterization of a trace.
///
/// # Examples
///
/// ```
/// use fdip_trace::{TraceBuilder, TraceStats};
/// use fdip_types::Addr;
///
/// let mut b = TraceBuilder::new("t", Addr::new(0x1000));
/// b.plain(10);
/// b.jump(Addr::new(0x1000));
/// b.plain(1);
/// let stats = TraceStats::measure(&b.finish());
/// assert_eq!(stats.len, 12);
/// assert_eq!(stats.footprint_bytes, 11 * 4); // the loop re-executes pcs
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceStats {
    /// Dynamic instruction count.
    pub len: u64,
    /// Unique static instructions times 4 bytes.
    pub footprint_bytes: u64,
    /// Unique 64-byte cache blocks touched.
    pub footprint_blocks_64b: u64,
    /// Unique static branch PCs.
    pub static_branches: u64,
    /// Unique static branch PCs observed taken at least once — the BTB
    /// working set under taken-allocate policies.
    pub static_taken_branches: u64,
    /// Dynamic branch mix.
    pub mix: BranchMix,
    /// Offset-width histogram over dynamic taken branches.
    pub offsets: OffsetHistogram,
    /// Dynamic basic-block-size histogram (runs ending at a branch record).
    pub blocks: BlockSizeHistogram,
}

impl TraceStats {
    /// Measures `trace` in one pass.
    pub fn measure(trace: &Trace) -> TraceStats {
        Self::measure_instrs(trace.instrs())
    }

    /// Measures a raw instruction slice.
    ///
    /// The static footprint is kept per 64-byte block as three bitmasks in
    /// which bit `pc & 63` of block `pc >> 6` stands for the instruction at
    /// `pc`: `pcs` marks every PC executed, `branches` every PC seen as a
    /// branch record and `taken` every PC seen taken at least once. A PC
    /// owns exactly one (block, bit) pair whatever its alignment, so the
    /// popcounts are exact unique-PC counts. The masks of the block being
    /// executed accumulate in locals and fold into the per-block map
    /// only when execution leaves the block: one hash operation per block
    /// run rather than up to four per instruction.
    pub fn measure_instrs(instrs: &[TraceInstr]) -> TraceStats {
        let mut footprint: HashMap<u64, BlockMasks> = HashMap::new();
        let mut block: Option<u64> = None;
        let mut masks = BlockMasks::default();
        let mut stats = TraceStats {
            len: instrs.len() as u64,
            ..TraceStats::default()
        };
        let mut run_len = 0u64;
        for instr in instrs {
            let pc = instr.pc.raw();
            if block != Some(pc >> 6) {
                if let Some(prev) = block {
                    footprint.entry(prev).or_default().merge(masks);
                }
                block = Some(pc >> 6);
                masks = BlockMasks::default();
            }
            let bit = 1u64 << (pc & 63);
            masks.pcs |= bit;
            run_len += 1;
            if let Some(b) = instr.branch {
                stats.mix.record(b.class, b.taken);
                masks.branches |= bit;
                if b.taken {
                    masks.taken |= bit;
                    stats
                        .offsets
                        .record(offset_bits(offset_insts(instr.pc, b.target)));
                }
                stats.blocks.record(run_len);
                run_len = 0;
            }
        }
        if run_len > 0 {
            stats.blocks.record(run_len);
        }
        if let Some(prev) = block {
            footprint.entry(prev).or_default().merge(masks);
        }
        stats.footprint_blocks_64b = footprint.len() as u64;
        for m in footprint.values() {
            stats.footprint_bytes += 4 * u64::from(m.pcs.count_ones());
            stats.static_branches += u64::from(m.branches.count_ones());
            stats.static_taken_branches += u64::from(m.taken.count_ones());
        }
        stats
    }

    /// Dynamic branches per kilo-instruction.
    pub fn branch_pki(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.mix.total() as f64 * 1000.0 / self.len as f64
        }
    }
}

impl fdip_types::ToJson for BranchMix {
    fn to_json(&self) -> fdip_types::Json {
        fdip_types::Json::obj(BranchClass::ALL.into_iter().map(|class| {
            (
                format!("{class}"),
                fdip_types::Json::obj([
                    ("count", fdip_types::Json::uint(self.count(class))),
                    ("taken", fdip_types::Json::uint(self.taken(class))),
                ]),
            )
        }))
    }
}

impl fdip_types::ToJson for OffsetHistogram {
    fn to_json(&self) -> fdip_types::Json {
        // Trailing empty bins carry no information; emit up to max_bits.
        let upto = self.max_bits().map_or(0, |b| b as usize + 1);
        fdip_types::Json::arr(self.bins[..upto].iter().map(|&c| fdip_types::Json::uint(c)))
    }
}

impl fdip_types::ToJson for BlockSizeHistogram {
    fn to_json(&self) -> fdip_types::Json {
        // `bins[size]` for size 0..=max_size (bin 0 is structurally zero);
        // trailing empty bins carry no information.
        let upto = self.max_size().map_or(0, |s| s as usize + 1);
        fdip_types::Json::obj([
            ("mean", fdip_types::Json::num(self.mean())),
            (
                "bins",
                fdip_types::Json::arr(self.bins[..upto].iter().map(|&c| fdip_types::Json::uint(c))),
            ),
        ])
    }
}

impl fdip_types::ToJson for TraceStats {
    fn to_json(&self) -> fdip_types::Json {
        fdip_types::json_fields!(
            self,
            len,
            footprint_bytes,
            footprint_blocks_64b,
            static_branches,
            static_taken_branches,
            mix,
            offsets,
            blocks,
        )
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use fdip_types::{Addr, BranchRecord};

    use super::*;
    use crate::gen::{GeneratorConfig, Profile};
    use crate::TraceBuilder;

    /// The per-instruction reference: one `HashSet` per footprint count.
    /// `TraceStats::measure_instrs` must agree with it field for field.
    fn oracle(instrs: &[TraceInstr]) -> TraceStats {
        let mut unique_pcs: HashSet<Addr> = HashSet::new();
        let mut unique_blocks: HashSet<u64> = HashSet::new();
        let mut branch_pcs: HashSet<Addr> = HashSet::new();
        let mut taken_pcs: HashSet<Addr> = HashSet::new();
        let mut stats = TraceStats {
            len: instrs.len() as u64,
            ..TraceStats::default()
        };
        let mut run_len = 0u64;
        for instr in instrs {
            unique_pcs.insert(instr.pc);
            unique_blocks.insert(instr.pc.block_index(64));
            run_len += 1;
            if let Some(b) = instr.branch {
                stats.mix.record(b.class, b.taken);
                branch_pcs.insert(instr.pc);
                if b.taken {
                    taken_pcs.insert(instr.pc);
                    stats
                        .offsets
                        .record(offset_bits(offset_insts(instr.pc, b.target)));
                }
                stats.blocks.record(run_len);
                run_len = 0;
            }
        }
        if run_len > 0 {
            stats.blocks.record(run_len);
        }
        stats.footprint_bytes = unique_pcs.len() as u64 * 4;
        stats.footprint_blocks_64b = unique_blocks.len() as u64;
        stats.static_branches = branch_pcs.len() as u64;
        stats.static_taken_branches = taken_pcs.len() as u64;
        stats
    }

    fn measured(instrs: &[TraceInstr]) -> TraceStats {
        let stats = TraceStats::measure_instrs(instrs);
        assert_eq!(stats, oracle(instrs));
        stats
    }

    fn plain(pc: u64) -> TraceInstr {
        TraceInstr::plain(Addr::new(pc))
    }

    fn cond(pc: u64, taken: bool, target: u64) -> TraceInstr {
        TraceInstr::branch(
            Addr::new(pc),
            BranchRecord::new(BranchClass::CondDirect, taken, Addr::new(target)),
        )
    }

    fn looped_trace() -> Trace {
        let mut b = TraceBuilder::new("loop", Addr::new(0x1000));
        for _ in 0..3 {
            b.plain(4);
            b.cond(true, Addr::new(0x1000)); // back-edge, offset -4 insts
        }
        b.plain(4);
        b.cond(false, Addr::new(0x1000));
        b.plain(1);
        b.finish()
    }

    #[test]
    fn counts_and_footprint() {
        let t = looped_trace();
        let s = TraceStats::measure(&t);
        assert_eq!(s.len, t.len() as u64);
        // Static code: 0x1000..0x1014 (5 instrs) + 0x1014 (1) = 6 instrs.
        assert_eq!(s.footprint_bytes, 6 * 4);
        assert_eq!(s.static_branches, 1);
        assert_eq!(s.static_taken_branches, 1);
        assert_eq!(s.mix.count(BranchClass::CondDirect), 4);
        assert_eq!(s.mix.taken(BranchClass::CondDirect), 3);
        assert!((s.mix.cond_taken_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn offsets_histogram_counts_taken_only() {
        let t = looped_trace();
        let s = TraceStats::measure(&t);
        // 3 taken back-edges of -4 instructions each → 3 bits.
        assert_eq!(s.offsets.total(), 3);
        assert_eq!(s.offsets.count(3), 3);
        assert_eq!(s.offsets.max_bits(), Some(3));
        assert!((s.offsets.fraction(3) - 1.0).abs() < 1e-12);
        assert!((s.offsets.cumulative_fraction(2) - 0.0).abs() < 1e-12);
        assert!((s.offsets.cumulative_fraction(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn branch_pki() {
        let t = looped_trace();
        let s = TraceStats::measure(&t);
        let expect = 4.0 * 1000.0 / t.len() as f64;
        assert!((s.branch_pki() - expect).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_all_zeroes() {
        let s = TraceStats::measure(&Trace::default());
        assert_eq!(s.len, 0);
        assert_eq!(s.footprint_bytes, 0);
        assert_eq!(s.offsets.total(), 0);
        assert_eq!(s.offsets.max_bits(), None);
        assert_eq!(s.branch_pki(), 0.0);
    }

    #[test]
    fn block_sizes_split_at_branch_records() {
        let t = looped_trace();
        let s = TraceStats::measure(&t);
        // Blocks: 3× (4 plain + taken cond) = 5, 1× (4 plain + not-taken
        // cond) = 5, trailing 1 plain = 1.
        assert_eq!(s.blocks.total(), 5);
        assert_eq!(s.blocks.count(5), 4);
        assert_eq!(s.blocks.count(1), 1);
        assert_eq!(s.blocks.max_size(), Some(5));
        assert!((s.blocks.mean() - 21.0 / 5.0).abs() < 1e-12);
        assert!((s.blocks.fraction(5) - 0.8).abs() < 1e-12);
        assert_eq!(s.blocks.percentile(0.5), Some(5));
        assert_eq!(s.blocks.percentile(0.1), Some(1));
    }

    #[test]
    fn oversize_blocks_clamp_but_mean_stays_exact() {
        let mut b = TraceBuilder::new("big", Addr::new(0x1000));
        b.plain(199);
        b.jump(Addr::new(0x1000));
        b.plain(1);
        let s = TraceStats::measure(&b.finish());
        assert_eq!(s.blocks.count(BlockSizeHistogram::MAX_SIZE), 1);
        assert_eq!(s.blocks.count(1), 1);
        assert_eq!(s.blocks.total(), 2);
        assert!((s.blocks.mean() - 201.0 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_block_histogram() {
        let s = TraceStats::measure(&Trace::default());
        assert_eq!(s.blocks.total(), 0);
        assert_eq!(s.blocks.mean(), 0.0);
        assert_eq!(s.blocks.percentile(0.5), None);
        assert_eq!(s.blocks.max_size(), None);
    }

    #[test]
    fn far_jump_lands_in_wide_bin() {
        let mut b = TraceBuilder::new("far", Addr::new(0x1000));
        b.jump(Addr::new(0x1000 + (1 << 30)));
        b.plain(1);
        let s = TraceStats::measure(&b.finish());
        // (1 << 30) bytes = 1 << 28 instructions → 29 bits? No: 2^28 exactly
        // needs 29 bits by our convention (magnitude 2^28 has bit 28 set).
        assert_eq!(s.offsets.max_bits(), Some(29));
    }

    #[test]
    fn empty_and_single_instruction_match_the_oracle() {
        assert_eq!(measured(&[]), TraceStats::default());
        let s = measured(&[plain(0x1000)]);
        assert_eq!((s.footprint_bytes, s.footprint_blocks_64b), (4, 1));
        let s = measured(&[cond(0x1000, true, 0x1000)]);
        assert_eq!((s.static_branches, s.static_taken_branches), (1, 1));
    }

    #[test]
    fn unaligned_pcs_count_once_each() {
        let pcs = [
            0x1001, 0x1002, 0x1003, 0x1005, 0x1002, 0x103f, 0x1040, 0x1001,
        ];
        let instrs: Vec<_> = pcs.iter().map(|&pc| plain(pc)).collect();
        let s = measured(&instrs);
        assert_eq!(s.footprint_bytes, 6 * 4);
        assert_eq!(s.footprint_blocks_64b, 2);
    }

    #[test]
    fn a_block_left_and_revisited_merges_its_masks() {
        // A → B → A: the second run in A adds new PCs and repeats old
        // ones, and a branch not taken in the first run is taken in it.
        let instrs = [
            plain(0x1000),
            cond(0x1004, false, 0x2000),
            plain(0x1008),
            cond(0x100c, true, 0x2000),
            plain(0x2000),
            cond(0x2004, false, 0x1000),
            cond(0x2008, true, 0x1010),
            plain(0x1010),
            cond(0x1004, true, 0x2000),
            plain(0x2000),
        ];
        let s = measured(&instrs);
        assert_eq!(s.footprint_bytes, 8 * 4);
        assert_eq!(s.footprint_blocks_64b, 2);
        assert_eq!(s.static_branches, 4);
        assert_eq!(s.static_taken_branches, 3);
    }

    #[test]
    fn a_branch_seen_not_taken_then_taken_counts_once() {
        let instrs = [
            cond(0x1000, false, 0x800),
            plain(0x1004),
            cond(0x1000, true, 0x800),
        ];
        let s = measured(&instrs);
        assert_eq!((s.static_branches, s.static_taken_branches), (1, 1));
    }

    #[test]
    fn the_top_of_the_address_space_is_an_ordinary_block() {
        let top = u64::MAX - 3;
        assert_eq!(Addr::new(top).block_index(64), (1 << 58) - 1);
        // Block 0 first, then the top block, then both again: neither
        // index may be mistaken for "no block yet".
        let instrs = [
            plain(0),
            plain(top - 60),
            cond(top, true, top - 60),
            plain(top - 60),
            plain(0),
            cond(4, false, top),
            plain(u64::MAX),
        ];
        let s = measured(&instrs);
        assert_eq!(s.footprint_bytes, 5 * 4);
        assert_eq!(s.footprint_blocks_64b, 2);
        assert_eq!(s.static_branches, 2);
        assert_eq!(s.static_taken_branches, 1);
    }

    #[test]
    fn generated_profiles_match_the_oracle() {
        for profile in Profile::ALL {
            for seed in [0, 1, 7] {
                for len in [1, 100, 5_000, 20_000] {
                    let t = GeneratorConfig::profile(profile)
                        .seed(seed)
                        .target_len(len)
                        .generate();
                    measured(t.instrs());
                }
            }
        }
    }

    #[test]
    fn program_and_scenario_suites_match_the_oracle() {
        for name in fdip_isa::library::names() {
            let t = fdip_isa::library::trace(name, name, 20_000).expect("library program");
            measured(t.instrs());
        }
        for name in fdip_isa::scenario::names() {
            for seed in [0, 3] {
                let t = fdip_isa::scenario::trace(name, seed, name, 20_000).expect("scenario");
                measured(t.instrs());
            }
        }
    }
}
