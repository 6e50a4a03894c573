//! Selection invariants on random candidate pools.

use isax_graph::{BitSet, DiGraph};
use isax_ir::{DfgLabel, Opcode};
use isax_select::subsume::contract_once;
use isax_select::{
    contraction_closure, mark_subsumptions, patterns_equivalent, select_greedy, select_knapsack,
    select_multifunction, CfuCandidate, Occurrence, SelectConfig,
};
use proptest::prelude::*;

fn mk_candidate(seedling: &(u8, f64, Vec<(u8, u8, u16)>)) -> CfuCandidate {
    let (shape, area, occs) = seedling;
    let ops = [
        Opcode::Add,
        Opcode::Xor,
        Opcode::Shl,
        Opcode::And,
        Opcode::Sub,
    ];
    let mut pattern = DiGraph::new();
    let mut prev = None;
    for k in 0..(*shape % 3 + 1) {
        let n = pattern.add_node(DfgLabel {
            opcode: ops[(*shape as usize + k as usize) % ops.len()],
            imms: vec![],
        });
        if let Some(p) = prev {
            pattern.add_edge(p, n, 0);
        }
        prev = Some(n);
    }
    let fingerprint = isax_select::pattern_fingerprint(&pattern);
    CfuCandidate {
        pattern,
        fingerprint,
        delay: 0.4,
        area: *area,
        inputs: 2,
        outputs: 1,
        hw_cycles: 1,
        occurrences: occs
            .iter()
            .map(|&(dfg, start, weight)| Occurrence {
                dfg: dfg as usize % 4,
                nodes: (start as usize..start as usize + 2).collect::<BitSet>(),
                weight: weight as u64 + 1,
                savings_per_exec: 1 + (start % 3) as u64,
            })
            .collect(),
        subsumes: vec![],
        wildcard_partners: vec![],
    }
}

fn pool() -> impl Strategy<Value = Vec<CfuCandidate>> {
    proptest::collection::vec(
        (
            any::<u8>(),
            0.05f64..6.0,
            proptest::collection::vec((any::<u8>(), 0u8..40, any::<u16>()), 1..4),
        ),
        1..12,
    )
    .prop_map(|seeds| seeds.iter().map(mk_candidate).collect())
}

/// Recomputes the true (non-overlapping) value of a selection by claiming
/// operations in priority order, independent of the selector's own
/// bookkeeping.
fn recount(cands: &[CfuCandidate], chosen: &[isax_select::SelectedCfu]) -> u64 {
    let mut claimed = std::collections::HashSet::new();
    let mut total = 0;
    for sc in chosen {
        for o in &cands[sc.candidate].occurrences {
            if o.nodes.iter().all(|n| !claimed.contains(&(o.dfg, n))) {
                total += o.value();
                for n in o.nodes.iter() {
                    claimed.insert((o.dfg, n));
                }
            }
        }
    }
    total
}

/// Reconstruction of the recorded regression
/// (`proptest_select.proptest-regressions`, case 32c45c00): a single
/// one-node `Add` candidate whose two occurrences overlap on node 10
/// (`{10, 11}` worth 2 and `{9, 10}` worth 1). A selector that sums
/// occurrence values without simulating the claim double-counts the
/// shared node and reports 3 where only 2 is realizable. Kept as a
/// deterministic unit test because the vendored proptest cannot replay
/// upstream seeds.
#[test]
fn recorded_regression_overlapping_occurrences() {
    let mut pattern = DiGraph::new();
    pattern.add_node(DfgLabel {
        opcode: Opcode::Add,
        imms: vec![],
    });
    let fingerprint = isax_select::pattern_fingerprint(&pattern);
    let cands = vec![CfuCandidate {
        pattern,
        fingerprint,
        delay: 0.4,
        area: 0.05,
        inputs: 2,
        outputs: 1,
        hw_cycles: 1,
        occurrences: vec![
            Occurrence {
                dfg: 0,
                nodes: [10usize, 11].into_iter().collect::<BitSet>(),
                weight: 1,
                savings_per_exec: 2,
            },
            Occurrence {
                dfg: 0,
                nodes: [9usize, 10].into_iter().collect::<BitSet>(),
                weight: 1,
                savings_per_exec: 1,
            },
        ],
        subsumes: vec![],
        wildcard_partners: vec![],
    }];
    let cfg = SelectConfig::with_budget(12.737170404614092);
    for (name, sel) in [
        ("greedy", select_greedy(&cands, &cfg)),
        ("dp", select_knapsack(&cands, &cfg)),
        ("multi", select_multifunction(&cands, &cfg)),
    ] {
        let recounted = recount(&cands, &sel.chosen);
        assert_eq!(sel.total_value, recounted, "{name} value claim");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(192))]

    /// All three selectors respect the budget, never select duplicates,
    /// and report values that an independent recount confirms.
    #[test]
    fn selectors_are_honest(cands in pool(), budget in 0.0f64..20.0) {
        let cfg = SelectConfig::with_budget(budget);
        for (name, sel) in [
            ("greedy", select_greedy(&cands, &cfg)),
            ("dp", select_knapsack(&cands, &cfg)),
            ("multi", select_multifunction(&cands, &cfg)),
        ] {
            prop_assert!(sel.total_area <= budget + 1e-9, "{name} overspent");
            let mut seen = std::collections::HashSet::new();
            for sc in &sel.chosen {
                prop_assert!(seen.insert(sc.candidate), "{name} picked twice");
                prop_assert!(sc.candidate < cands.len());
            }
            let recounted = recount(&cands, &sel.chosen);
            prop_assert_eq!(sel.total_value, recounted, "{} value claim", name);
        }
    }

    /// A bigger budget never yields less greedy value.
    #[test]
    fn greedy_value_is_monotone_in_budget(cands in pool(), b in 0.5f64..10.0) {
        let lo = select_greedy(&cands, &SelectConfig::with_budget(b));
        let hi = select_greedy(&cands, &SelectConfig::with_budget(b * 2.0));
        prop_assert!(hi.total_value >= lo.total_value);
    }
}

/// Decodes a random pattern: node `i` gets an opcode (commutative,
/// non-commutative, or without identity), optionally a hardwired
/// immediate that is or is not the opcode's identity, and producers from
/// earlier nodes on its free ports (the first free port always, so the
/// pattern is connected; both ports may share a producer).
fn random_pattern(spec: &[(u8, u8, u8, u8)]) -> DiGraph<DfgLabel> {
    const OPS: [Opcode; 10] = [
        Opcode::Add,
        Opcode::Xor,
        Opcode::And,
        Opcode::Or,
        Opcode::Mul,
        Opcode::Sub,
        Opcode::Shl,
        Opcode::Shr,
        Opcode::AndN,
        Opcode::Ne,
    ];
    let mut g = DiGraph::new();
    for (i, &(op, p0, p1, imm)) in spec.iter().enumerate() {
        let opcode = OPS[op as usize % OPS.len()];
        let ident = match opcode.identity() {
            Some((_, id)) => id as i32 as i64,
            None => 0,
        };
        let imms = match imm % 4 {
            1 => vec![(1u8, ident)],
            2 => vec![(1u8, 5)],
            3 => vec![(0u8, ident)],
            _ => vec![],
        };
        let free: Vec<u8> = [0u8, 1]
            .into_iter()
            .filter(|p| imms.iter().all(|&(q, _)| q != *p))
            .collect();
        let n = g.add_node(DfgLabel { opcode, imms });
        if i == 0 {
            continue;
        }
        g.add_edge(isax_graph::NodeId((p0 as usize % i) as u32), n, free[0]);
        if free.len() > 1 && p1 % 3 != 0 {
            g.add_edge(isax_graph::NodeId((p1 as usize % i) as u32), n, free[1]);
        }
    }
    g
}

/// The closure walk as plain repeated contraction: a LIFO stack of
/// members, each member's nodes tried in order, [`contract_once`]'s
/// result kept unless VF2-equivalent to a kept one, stopping at `cap`.
fn reference_closure(root: &DiGraph<DfgLabel>, cap: usize) -> Vec<DiGraph<DfgLabel>> {
    let mut out: Vec<DiGraph<DfgLabel>> = Vec::new();
    let mut stack: Vec<Option<usize>> = vec![None];
    while let Some(gi) = stack.pop() {
        if out.len() >= cap {
            break;
        }
        let g = gi.map_or_else(|| root.clone(), |i| out[i].clone());
        if g.node_count() <= 1 {
            continue;
        }
        for v in g.node_ids() {
            let Some(c) = contract_once(&g, v) else {
                continue;
            };
            if out.iter().any(|o| patterns_equivalent(o, &c)) {
                continue;
            }
            out.push(c);
            if out.len() >= cap {
                return out;
            }
            stack.push(Some(out.len() - 1));
        }
    }
    out
}

fn triples(g: &DiGraph<DfgLabel>) -> Vec<(u32, u32, u8)> {
    g.edges().map(|e| (e.src.0, e.dst.0, e.port)).collect()
}

/// `g` with its node order reversed: isomorphic, never positionally
/// identical (for more than one node with distinct labels).
fn reversed(g: &DiGraph<DfgLabel>) -> DiGraph<DfgLabel> {
    let n = g.node_count() as u32;
    let mut r = DiGraph::new();
    for v in (0..n).rev() {
        r.add_node(g[isax_graph::NodeId(v)].clone());
    }
    for (s, d, p) in triples(g) {
        r.add_edge(
            isax_graph::NodeId(n - 1 - s),
            isax_graph::NodeId(n - 1 - d),
            p,
        );
    }
    r
}

fn bare_candidate(pattern: DiGraph<DfgLabel>) -> CfuCandidate {
    CfuCandidate {
        fingerprint: isax_select::pattern_fingerprint(&pattern),
        pattern,
        delay: 0.4,
        area: 1.0,
        inputs: 2,
        outputs: 1,
        hw_cycles: 1,
        occurrences: vec![],
        subsumes: vec![],
        wildcard_partners: vec![],
    }
}

fn pattern_spec() -> impl Strategy<Value = Vec<(u8, u8, u8, u8)>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(128))]

    /// The compact closure walk keeps exactly the reference walk's
    /// members, in the same order, with the same node order and with
    /// edges in sorted triple order — at every cap.
    #[test]
    fn closure_matches_reference_walk(spec in pattern_spec()) {
        let root = random_pattern(&spec);
        for cap in [1, 4, 64] {
            let got = contraction_closure(&root, cap);
            let want = reference_closure(&root, cap);
            prop_assert_eq!(got.len(), want.len(), "cap {} closure size", cap);
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                let labels = |x: &DiGraph<DfgLabel>| {
                    x.node_ids().map(|v| x[v].clone()).collect::<Vec<_>>()
                };
                prop_assert_eq!(labels(g), labels(w), "cap {} member {} labels", cap, k);
                let mut sorted = triples(w);
                sorted.sort_unstable();
                prop_assert_eq!(triples(g), sorted, "cap {} member {} edges", cap, k);
            }
        }
    }

    /// `mark_subsumptions` finds exactly the candidates a reference scan
    /// (VF2 of every candidate against every reference closure member)
    /// finds, on pools holding random patterns plus reordered copies of
    /// their closure members, so both the positional and the VF2 paths
    /// are taken.
    #[test]
    fn subsumption_lists_match_reference(
        specs in proptest::collection::vec(pattern_spec(), 1..5),
        cap in 1usize..12,
    ) {
        let mut patterns: Vec<DiGraph<DfgLabel>> = specs.iter().map(|s| random_pattern(s)).collect();
        for k in 0..patterns.len() {
            for (m, member) in reference_closure(&patterns[k], 64).into_iter().enumerate() {
                patterns.push(if m % 2 == 0 { member.clone() } else { reversed(&member) });
            }
        }
        let mut cands: Vec<CfuCandidate> = patterns.into_iter().map(bare_candidate).collect();
        mark_subsumptions(&mut cands, cap);
        for (i, c) in cands.iter().enumerate() {
            let mut want: Vec<usize> = Vec::new();
            if c.pattern.node_count() >= 2 {
                for member in reference_closure(&c.pattern, cap) {
                    for (j, d) in cands.iter().enumerate() {
                        if j != i && patterns_equivalent(&d.pattern, &member) {
                            want.push(j);
                        }
                    }
                }
            }
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(&c.subsumes, &want, "candidate {}", i);
        }
    }
}
