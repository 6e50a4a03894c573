//! Candidate combination: grouping isomorphic subgraphs into CFU
//! candidates.
//!
//! "After discovery, it is a straightforward process to group identical
//! candidate subgraphs together into candidate CFUs. A simple test which
//! checks graph equivalence, while taking into account commutativity,
//! accomplishes this" (§3.3). Grouping is done with a commutativity-aware
//! structural fingerprint; fingerprint collisions are verified by exact
//! VF2 isomorphism, so grouping is sound regardless of hash behaviour.
//!
//! The combined profile weights of a group's occurrences give the CFU's
//! estimated cycle savings, which drives [selection](crate::greedy).

use isax_explore::Candidate;
use isax_graph::{canon, vf2, BitSet, DiGraph, Fingerprint};
use isax_hwlib::HwLibrary;
use isax_ir::{Dfg, DfgLabel};

/// One placement of a CFU candidate in the application.
#[derive(Debug, Clone, PartialEq)]
pub struct Occurrence {
    /// Index of the DFG (block) the subgraph lives in.
    pub dfg: usize,
    /// The instruction indices forming the subgraph.
    pub nodes: BitSet,
    /// Profile weight of the containing block.
    pub weight: u64,
    /// Cycles saved by one hardware execution of this occurrence
    /// (software cycles − CFU cycles, never negative).
    pub savings_per_exec: u64,
}

impl Occurrence {
    /// Estimated total cycles saved by mapping this occurrence.
    pub fn value(&self) -> u64 {
        self.weight * self.savings_per_exec
    }
}

/// A candidate custom function unit: one hardware pattern plus every place
/// in the application it (exactly) occurs.
#[derive(Debug, Clone, PartialEq)]
pub struct CfuCandidate {
    /// The hardware pattern (data edges, opcode + immediate labels).
    pub pattern: DiGraph<DfgLabel>,
    /// Commutativity-aware structural fingerprint of the pattern.
    pub fingerprint: Fingerprint,
    /// Critical-path delay, in cycle fractions.
    pub delay: f64,
    /// Area in adders.
    pub area: f64,
    /// Register input ports (maximum over occurrences).
    pub inputs: usize,
    /// Register output ports (maximum over occurrences).
    pub outputs: usize,
    /// Execution cycles of the pipelined unit.
    pub hw_cycles: u32,
    /// Every exact occurrence in the application.
    pub occurrences: Vec<Occurrence>,
    /// Indices (into the combined candidate list) of CFU candidates this
    /// one subsumes via identity contraction. Filled by
    /// [`crate::subsume::mark_subsumptions`].
    pub subsumes: Vec<usize>,
    /// Indices of candidates identical to this one except at a single
    /// node ("wildcards"). Filled by
    /// [`crate::wildcard::find_wildcard_partners`].
    pub wildcard_partners: Vec<usize>,
}

impl CfuCandidate {
    /// Estimated value with every occurrence live (initial selection
    /// metric).
    pub fn estimated_value(&self) -> u64 {
        self.occurrences.iter().map(Occurrence::value).sum()
    }

    /// Number of primitive operations in the pattern.
    pub fn size(&self) -> usize {
        self.pattern.node_count()
    }

    /// Short mnemonic description, e.g. `"xor-shl-or"`.
    pub fn describe(&self) -> String {
        let mut names: Vec<&str> = self
            .pattern
            .node_ids()
            .map(|n| self.pattern[n].opcode.mnemonic())
            .collect();
        names.sort_unstable();
        names.join("-")
    }
}

/// Computes the commutativity-aware fingerprint of a pattern with exact
/// labels.
pub fn pattern_fingerprint(pattern: &DiGraph<DfgLabel>) -> Fingerprint {
    canon::fingerprint(
        pattern,
        DfgLabel::key,
        |l| l.opcode.is_commutative(),
        &canon::CanonConfig::default(),
    )
}

/// Tests exact pattern equivalence (commutativity-aware isomorphism).
pub fn patterns_equivalent(a: &DiGraph<DfgLabel>, b: &DiGraph<DfgLabel>) -> bool {
    vf2::are_isomorphic(a, b, DfgLabel::matches_exact, |l| l.opcode.is_commutative())
}

/// Groups discovered candidates into CFU candidates.
///
/// `dfgs` must be the same slice exploration ran over (occurrence indices
/// refer into it).
///
/// # Example
///
/// ```
/// use isax_explore::{explore_app, ExploreConfig};
/// use isax_hwlib::HwLibrary;
/// use isax_ir::{function_dfgs, FunctionBuilder};
/// use isax_select::combine;
///
/// // The same and→add shape appears twice.
/// let mut fb = FunctionBuilder::new("f", 3);
/// let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
/// let t1 = fb.and(a, b);
/// let u1 = fb.add(t1, c);
/// let t2 = fb.and(u1, c);
/// let u2 = fb.add(t2, a);
/// fb.ret(&[u2.into()]);
/// let dfgs = function_dfgs(&fb.finish());
///
/// let hw = HwLibrary::micron_018();
/// let found = explore_app(&dfgs, &hw, &ExploreConfig::default());
/// let cfus = combine(&dfgs, &found.candidates, &hw);
/// let and_add = cfus.iter().find(|c| c.describe() == "add-and").unwrap();
/// assert_eq!(and_add.occurrences.len(), 2);
/// ```
pub fn combine(dfgs: &[Dfg], candidates: &[Candidate], hw: &HwLibrary) -> Vec<CfuCandidate> {
    let mut groups: Vec<CfuCandidate> = Vec::new();
    let mut by_fp: std::collections::HashMap<Fingerprint, Vec<usize>, canon::PremixedState> =
        std::collections::HashMap::default();
    // One refinement scratch for the whole batch; `fingerprint_keys` is
    // bit-identical to `pattern_fingerprint` but allocation-free per call.
    let mut scratch = canon::CanonScratch::default();
    let cfg = canon::CanonConfig::default();
    for cand in candidates {
        let dfg = &dfgs[cand.dfg];
        let pattern = cand.pattern(dfg);
        scratch
            .base
            .extend(pattern.node_ids().map(|v| canon::mix(pattern[v].key())));
        scratch.comm.extend(
            pattern
                .node_ids()
                .map(|v| pattern[v].opcode.is_commutative()),
        );
        let fp = canon::fingerprint_keys(&pattern, &cfg, &mut scratch);
        let hw_cycles = hw.cfu_cycles(cand.delay);
        let sw = cand.sw_cycles(dfg, hw) as u64;
        let savings = (sw).saturating_sub(hw_cycles as u64);
        let occ = Occurrence {
            dfg: cand.dfg,
            nodes: cand.nodes.clone(),
            weight: dfg.weight(),
            savings_per_exec: savings,
        };
        let bucket = by_fp.entry(fp).or_default();
        let mut placed = false;
        for &gi in bucket.iter() {
            if patterns_equivalent(&groups[gi].pattern, &pattern) {
                let g = &mut groups[gi];
                g.inputs = g.inputs.max(cand.inputs);
                g.outputs = g.outputs.max(cand.outputs);
                // Width-aware costing can price isomorphic embeddings
                // differently (each carries its own inferred widths); one
                // unit must serve every occurrence, so it is built for
                // the widest — the group keeps the maximum delay/area.
                // In default mode every member prices identically and
                // this never fires, keeping outputs byte-identical.
                if hw.width_aware {
                    g.delay = g.delay.max(cand.delay);
                    g.area = g.area.max(cand.area);
                }
                g.occurrences.push(occ.clone());
                placed = true;
                break;
            }
        }
        if !placed {
            bucket.push(groups.len());
            groups.push(CfuCandidate {
                pattern,
                fingerprint: fp,
                delay: cand.delay,
                area: cand.area,
                inputs: cand.inputs,
                outputs: cand.outputs,
                hw_cycles,
                occurrences: vec![occ],
                subsumes: Vec::new(),
                wildcard_partners: Vec::new(),
            });
        }
    }
    if hw.width_aware {
        // The group delay settled only after every member arrived:
        // refresh the cycle count and re-derive each occurrence's
        // savings from the group-level (widest-member) unit.
        for g in &mut groups {
            g.hw_cycles = hw.cfu_cycles(g.delay);
            for occ in &mut g.occurrences {
                let sw: u64 = occ
                    .nodes
                    .iter()
                    .map(|v| {
                        let inst = dfgs[occ.dfg].inst(v);
                        if inst.opcode.is_load() {
                            0
                        } else {
                            hw.sw_latency_of(inst) as u64
                        }
                    })
                    .sum();
                occ.savings_per_exec = sw.saturating_sub(g.hw_cycles as u64);
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use isax_explore::{explore_app, ExploreConfig};
    use isax_ir::{function_dfgs, FunctionBuilder};

    fn hw() -> HwLibrary {
        HwLibrary::micron_018()
    }

    /// Two blocks containing the same shl-and-add shape (the paper's
    /// 7-10-13-16 / 8-11-14-17 example), with different weights.
    fn twin_program_dfgs() -> Vec<Dfg> {
        let mut fb = FunctionBuilder::new("f", 3);
        let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
        let heavy = fb.new_block(1000);
        let exit = fb.new_block(1);
        let t = fb.shl(a, 2i64);
        let u = fb.and(t, b);
        let v = fb.add(u, c);
        fb.jump(heavy);
        fb.switch_to(heavy);
        let t2 = fb.shl(v, 2i64);
        let u2 = fb.and(t2, a);
        let v2 = fb.add(u2, b);
        fb.jump(exit);
        fb.switch_to(exit);
        fb.ret(&[v2.into()]);
        function_dfgs(&fb.finish())
    }

    #[test]
    fn twin_subgraphs_are_grouped_with_summed_value() {
        let dfgs = twin_program_dfgs();
        let found = explore_app(&dfgs, &hw(), &ExploreConfig::default());
        let cfus = combine(&dfgs, &found.candidates, &hw());
        let full = cfus
            .iter()
            .find(|c| c.describe() == "add-and-shl")
            .expect("shl-and-add CFU exists");
        assert_eq!(full.occurrences.len(), 2);
        // Weight 1 (entry) + weight 1000 (heavy); savings per exec:
        // sw = 3 cycles, hw = 1 cycle -> 2.
        assert_eq!(full.occurrences[0].savings_per_exec, 2);
        assert_eq!(full.estimated_value(), 2 * 1001);
    }

    #[test]
    fn commutative_twins_group_despite_port_swap() {
        let mut fb = FunctionBuilder::new("g", 4);
        let (a, b, c, d) = (fb.param(0), fb.param(1), fb.param(2), fb.param(3));
        // xor feeds port 0 of the and here ...
        let x1 = fb.xor(a, b);
        let y1 = fb.and(x1, c);
        // ... and port 1 there (and is commutative).
        let x2 = fb.xor(c, d);
        let y2 = fb.and(a, x2);
        let z = fb.or(y1, y2);
        fb.ret(&[z.into()]);
        let dfgs = function_dfgs(&fb.finish());
        let found = explore_app(&dfgs, &hw(), &ExploreConfig::default());
        let cfus = combine(&dfgs, &found.candidates, &hw());
        let xa = cfus.iter().filter(|c| c.describe() == "and-xor").count();
        assert_eq!(xa, 1, "both orientations group into one CFU");
        let g = cfus.iter().find(|c| c.describe() == "and-xor").unwrap();
        assert_eq!(g.occurrences.len(), 2);
    }

    #[test]
    fn noncommutative_port_swap_stays_separate() {
        let mut fb = FunctionBuilder::new("h", 4);
        let (a, b, c, d) = (fb.param(0), fb.param(1), fb.param(2), fb.param(3));
        let x1 = fb.xor(a, b);
        let y1 = fb.sub(x1, c); // xor on minuend side
        let x2 = fb.xor(c, d);
        let y2 = fb.sub(a, x2); // xor on subtrahend side
        let z = fb.or(y1, y2);
        fb.ret(&[z.into()]);
        let dfgs = function_dfgs(&fb.finish());
        let found = explore_app(&dfgs, &hw(), &ExploreConfig::default());
        let cfus = combine(&dfgs, &found.candidates, &hw());
        let subs: Vec<_> = cfus.iter().filter(|c| c.describe() == "sub-xor").collect();
        assert_eq!(subs.len(), 2, "sub is not commutative: two distinct CFUs");
    }

    #[test]
    fn different_immediates_do_not_group() {
        let mut fb = FunctionBuilder::new("imm", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        let t1 = fb.shl(a, 2i64);
        let u1 = fb.add(t1, b);
        let t2 = fb.shl(u1, 7i64);
        let u2 = fb.add(t2, a);
        fb.ret(&[u2.into()]);
        let dfgs = function_dfgs(&fb.finish());
        let found = explore_app(&dfgs, &hw(), &ExploreConfig::default());
        let cfus = combine(&dfgs, &found.candidates, &hw());
        // Of the three two-node chains two are shl->add (with amounts 2
        // and 7) and one is add->shl; the hardwired immediates keep the
        // shl->add pair apart.
        let shl_feeds_add: Vec<_> = cfus
            .iter()
            .filter(|c| {
                c.size() == 2
                    && c.describe() == "add-shl"
                    && c.pattern
                        .edges()
                        .all(|e| c.pattern[e.src].opcode == isax_ir::Opcode::Shl)
            })
            .collect();
        assert_eq!(shl_feeds_add.len(), 2, "shift amounts are hardwired");
    }

    #[test]
    fn savings_never_negative() {
        // A lone multiply: sw 3 cycles, hw 2 cycles -> saves 1; a lone add
        // saves 0; never underflows.
        let mut fb = FunctionBuilder::new("m", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        let m = fb.mul(a, b);
        let s = fb.add(m, b);
        fb.ret(&[s.into()]);
        let dfgs = function_dfgs(&fb.finish());
        let found = explore_app(&dfgs, &hw(), &ExploreConfig::default());
        let cfus = combine(&dfgs, &found.candidates, &hw());
        for c in &cfus {
            for o in &c.occurrences {
                if c.size() == 1 && c.pattern[isax_graph::NodeId(0)].opcode == isax_ir::Opcode::Add
                {
                    assert_eq!(o.savings_per_exec, 0);
                }
            }
        }
        let mul_only = cfus
            .iter()
            .find(|c| c.size() == 1 && c.describe() == "mul")
            .unwrap();
        assert_eq!(mul_only.occurrences[0].savings_per_exec, 1);
    }
}
