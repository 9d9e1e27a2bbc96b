//! Reference outputs kept with the benchmark (`references.txt`).
//!
//! Lines, whitespace-separated:
//!
//! ```text
//! catalogue <trace_len> <experiment id> <digest of ExperimentResult::to_json>
//! counters <trace_len> <traces_generated> <cells_simulated> <cells_batched> <cell_hits> <cells_failed>
//! kernel <trace_len> <trace> <config> <digest of SimStats::to_json>
//! ```
//!
//! Digests are 64-bit FNV-1a in hex. Regenerate with
//! `perfbench --print-references` only after an intended change of
//! simulated output.

use std::collections::BTreeMap;

use crate::Workload;

const COMMITTED: &str = include_str!("../references.txt");

/// Harness counter deltas of one catalogue pass, in
/// [`crate::catalogue::COUNTERS`] order.
pub type Counters = [u64; 5];

pub struct Refs {
    catalogue: BTreeMap<(usize, String), u64>,
    counters: BTreeMap<usize, Counters>,
    kernel: BTreeMap<(usize, String, String), u64>,
}

impl Refs {
    /// The committed references; `corrupt` flips every digest and counter
    /// so a run can prove that a mismatch is reported as a failure.
    pub fn committed(corrupt: bool) -> Refs {
        Refs::parse(COMMITTED, corrupt).unwrap_or_else(|e| panic!("references.txt: {e}"))
    }

    fn parse(text: &str, corrupt: bool) -> Result<Refs, String> {
        let flip = |v: u64| if corrupt { v ^ 1 } else { v };
        let mut refs = Refs {
            catalogue: BTreeMap::new(),
            counters: BTreeMap::new(),
            kernel: BTreeMap::new(),
        };
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("line {}: malformed {line:?}", n + 1);
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
            match f.as_slice() {
                ["catalogue", len, id, d] => {
                    refs.catalogue
                        .insert((num(len)? as usize, id.to_string()), flip(hex(d)?));
                }
                ["counters", len, a, b, c, d, e] => {
                    let values = [num(a)?, num(b)?, num(c)?, num(d)?, num(e)?];
                    refs.counters.insert(num(len)? as usize, values.map(flip));
                }
                ["kernel", len, trace, config, d] => {
                    let key = (num(len)? as usize, trace.to_string(), config.to_string());
                    refs.kernel.insert(key, flip(hex(d)?));
                }
                _ => return Err(bad()),
            }
        }
        Ok(refs)
    }

    pub fn catalogue(&self, trace_len: usize, id: &str) -> Option<u64> {
        self.catalogue.get(&(trace_len, id.to_string())).copied()
    }

    pub fn counters(&self, trace_len: usize) -> Option<Counters> {
        self.counters.get(&trace_len).copied()
    }

    pub fn kernel(&self, trace_len: usize, trace: &str, config: &str) -> Option<u64> {
        self.kernel
            .get(&(trace_len, trace.to_string(), config.to_string()))
            .copied()
    }
}

/// Compares an output digest with its reference.
pub fn check(what: &str, actual: u64, reference: Option<u64>) -> Result<(), String> {
    match reference {
        Some(r) if r == actual => Ok(()),
        Some(r) => Err(format!(
            "{what}: digest {actual:016x} != reference {r:016x}"
        )),
        None => Err(format!("{what}: no reference digest")),
    }
}

/// Prints a fresh `references.txt` for every workload's sizes.
pub fn print_references() {
    println!("# perfbench reference outputs; see src/refs.rs for the format.");
    for workload in Workload::ALL {
        let sizes = workload.sizes();
        let scale = sizes.catalogue;
        let (digests, counters) = crate::catalogue::reference(scale);
        for (id, d) in digests {
            println!("catalogue {} {id} {d:016x}", scale.trace_len);
        }
        let c = counters.map(|v| v.to_string()).join(" ");
        println!("counters {} {c}", scale.trace_len);
        for (trace, config, d) in crate::kernel::reference(sizes.kernel_len) {
            println!("kernel {} {trace} {config} {d:016x}", sizes.kernel_len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_corrupts() {
        let text =
            "# c\ncatalogue 100 e01 00ff\ncounters 100 1 2 3 4 0\nkernel 50 server fdip ab\n";
        let good = Refs::parse(text, false).unwrap();
        assert_eq!(good.catalogue(100, "e01"), Some(0xff));
        assert_eq!(good.counters(100), Some([1, 2, 3, 4, 0]));
        assert_eq!(good.kernel(50, "server", "fdip"), Some(0xab));
        assert_eq!(good.kernel(60, "server", "fdip"), None);
        let bad = Refs::parse(text, true).unwrap();
        assert_eq!(bad.catalogue(100, "e01"), Some(0xfe));
        assert_eq!(bad.counters(100), Some([0, 3, 2, 5, 1]));
        assert!(Refs::parse("kernel 1 2\n", false).is_err());
    }

    #[test]
    fn a_mismatch_or_a_missing_reference_fails() {
        assert!(check("x", 5, Some(5)).is_ok());
        assert!(check("x", 5, Some(4)).is_err());
        assert!(check("x", 5, None).is_err());
    }

    #[test]
    fn the_committed_file_covers_every_workload() {
        let refs = Refs::committed(false);
        for workload in Workload::ALL {
            let sizes = workload.sizes();
            assert!(refs.counters(sizes.catalogue.trace_len).is_some());
            for exp in fdip_sim::experiments::all() {
                assert!(refs
                    .catalogue(sizes.catalogue.trace_len, exp.id())
                    .is_some());
            }
            for (trace, _, _, _) in crate::kernel::TRACES {
                for (config, _) in crate::kernel::configs() {
                    assert!(
                        refs.kernel(sizes.kernel_len, trace, config).is_some(),
                        "{} {trace} {config}",
                        sizes.kernel_len
                    );
                }
            }
        }
    }
}
