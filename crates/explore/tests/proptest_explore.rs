//! Exploration invariants on random dataflow graphs.

use isax_explore::{explore_dfg, explore_dfg_naive, metrics_of, ExploreConfig, SubgraphEval};
use isax_graph::BitSet;
use isax_hwlib::HwLibrary;
use isax_ir::{function_dfgs, Dfg, FunctionBuilder, VReg};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Decodes a random single-block DFG. `which` 0..8 picks a value-producing
/// operation (the explorer suites use only these); 8 is a store (memory
/// ordering edges), 9 redefines an existing register (anti and output
/// dependence edges) and 10 squares a value (one producer on two ports).
fn random_dfg(ops: &[(usize, usize, i64)]) -> Dfg {
    let mut fb = FunctionBuilder::new("r", 4);
    let mut pool: Vec<VReg> = (0..4).map(|i| fb.param(i)).collect();
    for &(which, pick, imm) in ops {
        let a = pool[pick % pool.len()];
        let b = pool[(pick + 1) % pool.len()];
        let d = match which % 11 {
            0 => fb.add(a, b),
            1 => fb.xor(a, b),
            2 => fb.shl(a, (imm & 31).abs()),
            3 => fb.and(a, imm),
            4 => fb.sub(a, b),
            5 => fb.or(a, b),
            6 => fb.ldw(a),
            7 => fb.mul(a, b),
            8 => {
                fb.stw(a, b);
                continue;
            }
            9 => {
                fb.copy_to(a, b);
                continue;
            }
            _ => fb.mul(a, a),
        };
        pool.push(d);
    }
    let last = *pool.last().unwrap();
    fb.ret(&[last.into()]);
    function_dfgs(&fb.finish()).remove(0)
}

/// The whole-DFG convexity scan [`Dfg::is_convex`] replaced: mark every
/// non-member reachable from the set, in program order, then reject if
/// a member has a marked predecessor.
fn is_convex_full_scan(dfg: &Dfg, nodes: &BitSet) -> bool {
    let preds = |v: usize| -> Vec<usize> {
        let mut p: Vec<usize> = dfg.data_preds(v).iter().map(|&(u, _)| u).collect();
        p.extend_from_slice(dfg.order_preds(v));
        p.extend_from_slice(dfg.anti_preds(v));
        p
    };
    let mut reaches = vec![false; dfg.len()];
    for v in 0..dfg.len() {
        if !nodes.contains(v) {
            reaches[v] = preds(v)
                .into_iter()
                .any(|u| nodes.contains(u) || reaches[u]);
        }
    }
    nodes.iter().all(|v| {
        preds(v)
            .into_iter()
            .all(|u| nodes.contains(u) || !reaches[u])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(64))]

    /// The guided search never invents candidates: its recorded set is a
    /// subset of the exhaustive oracle's, and everything it records obeys
    /// the structural constraints.
    #[test]
    fn guided_is_a_sound_subset(
        ops in proptest::collection::vec((0usize..8, 0usize..6, -64i64..64), 2..22),
    ) {
        let dfg = random_dfg(&ops);
        let hw = HwLibrary::micron_018();
        let cfg = ExploreConfig::default();
        let guided = explore_dfg(&dfg, &hw, &cfg);
        let naive = explore_dfg_naive(&dfg, &hw, &cfg, Some(500_000));
        prop_assume!(!naive.stats.truncated);
        let nset: BTreeSet<Vec<usize>> = naive
            .candidates
            .iter()
            .map(|c| c.nodes.iter().collect())
            .collect();
        for c in &guided.candidates {
            let key: Vec<usize> = c.nodes.iter().collect();
            prop_assert!(nset.contains(&key), "guided-only candidate {key:?}");
            prop_assert!(c.inputs <= cfg.max_inputs);
            prop_assert!(c.outputs >= 1 && c.outputs <= cfg.max_outputs);
            prop_assert!(dfg.is_convex(&c.nodes), "non-convex candidate recorded");
            prop_assert!(c.delay >= 0.0 && c.area >= 0.0);
            // Connected: the pattern must be one piece.
            prop_assert!(c.pattern(&dfg).is_weakly_connected());
        }
        prop_assert!(guided.stats.examined <= naive.stats.examined);
    }

    /// Tapered exploration stays a subset of untapered exploration.
    #[test]
    fn taper_only_removes_candidates(
        ops in proptest::collection::vec((0usize..8, 0usize..6, -64i64..64), 2..22),
    ) {
        let dfg = random_dfg(&ops);
        let hw = HwLibrary::micron_018();
        let full = explore_dfg(&dfg, &hw, &ExploreConfig::default());
        let tapered_cfg = ExploreConfig {
            taper_size: Some(3),
            taper_fanout: 1,
            ..ExploreConfig::default()
        };
        let tapered = explore_dfg(&dfg, &hw, &tapered_cfg);
        let fset: BTreeSet<Vec<usize>> = full
            .candidates
            .iter()
            .map(|c| c.nodes.iter().collect())
            .collect();
        for c in &tapered.candidates {
            let key: Vec<usize> = c.nodes.iter().collect();
            prop_assert!(fset.contains(&key));
        }
        prop_assert!(tapered.stats.examined <= full.stats.examined);
    }

    /// The incremental evaluator agrees with the from-scratch reference
    /// bit for bit on **every prefix of every growth sequence**: starting
    /// from each node, grow one data-neighbour at a time and compare
    /// [`SubgraphEval::metrics`] against [`metrics_of`] at every step.
    /// (`Option::None` — some member unimplementable — must agree too.)
    #[test]
    fn incremental_metrics_match_reference_on_growth_prefixes(
        ops in proptest::collection::vec((0usize..11, 0usize..6, -64i64..64), 2..22),
    ) {
        let dfg = random_dfg(&ops);
        let hw = HwLibrary::micron_018();
        let mut eval = SubgraphEval::new(&dfg, &hw);
        for seed in 0..dfg.len() {
            let mut nodes: BitSet = [seed].into_iter().collect();
            loop {
                let fast = eval.metrics(&nodes);
                let slow = metrics_of(&dfg, &nodes, &hw);
                prop_assert_eq!(
                    fast, slow,
                    "divergence on {:?}", nodes.iter().collect::<Vec<_>>()
                );
                if let (Some(f), Some(s)) = (fast, slow) {
                    // Bit-level equality of the floats, not just PartialEq.
                    prop_assert_eq!(f.delay.to_bits(), s.delay.to_bits());
                    prop_assert_eq!(f.area.to_bits(), s.area.to_bits());
                }
                // Grow along the first unused data neighbour.
                let next = dfg.neighbours(&nodes).into_iter().next();
                match next {
                    Some(d) if nodes.len() < 12 => { nodes.insert(d); }
                    _ => break,
                }
            }
        }
    }

    /// An infinite beam examines exactly the candidate set of the default
    /// depth-first walk — same candidates (as a set), same examined /
    /// recorded / pruned / per-size statistics.
    #[test]
    fn infinite_beam_is_equivalent_to_depth_first(
        ops in proptest::collection::vec((0usize..8, 0usize..6, -64i64..64), 2..22),
    ) {
        let dfg = random_dfg(&ops);
        let hw = HwLibrary::micron_018();
        let dfs = explore_dfg(&dfg, &hw, &ExploreConfig::default());
        let beam_cfg = ExploreConfig {
            beam_width: Some(usize::MAX),
            ..ExploreConfig::default()
        };
        let beam = explore_dfg(&dfg, &hw, &beam_cfg);
        let key = |r: &isax_explore::ExploreResult| -> Vec<(Vec<usize>, u64, u64, usize, usize)> {
            let mut v: Vec<_> = r
                .candidates
                .iter()
                .map(|c| {
                    (
                        c.nodes.iter().collect::<Vec<_>>(),
                        c.delay.to_bits(),
                        c.area.to_bits(),
                        c.inputs,
                        c.outputs,
                    )
                })
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(key(&dfs), key(&beam));
        prop_assert_eq!(dfs.stats.examined, beam.stats.examined);
        prop_assert_eq!(dfs.stats.recorded, beam.stats.recorded);
        prop_assert_eq!(dfs.stats.directions_pruned, beam.stats.directions_pruned);
        prop_assert_eq!(&dfs.stats.examined_by_size, &beam.stats.examined_by_size);
        prop_assert!(!beam.stats.truncated);
    }

    /// A finite beam's candidates are always a subset of the exhaustive
    /// walk's, and narrower beams examine no more than wider ones.
    #[test]
    fn beam_candidates_are_a_sound_subset(
        ops in proptest::collection::vec((0usize..8, 0usize..6, -64i64..64), 2..22),
        width in 1usize..6,
    ) {
        let dfg = random_dfg(&ops);
        let hw = HwLibrary::micron_018();
        let full = explore_dfg(&dfg, &hw, &ExploreConfig::default());
        let narrow = explore_dfg(&dfg, &hw, &ExploreConfig {
            beam_width: Some(width),
            ..ExploreConfig::default()
        });
        let fset: BTreeSet<Vec<usize>> = full
            .candidates
            .iter()
            .map(|c| c.nodes.iter().collect())
            .collect();
        for c in &narrow.candidates {
            let key: Vec<usize> = c.nodes.iter().collect();
            prop_assert!(fset.contains(&key), "beam invented candidate {key:?}");
        }
        prop_assert!(narrow.stats.examined <= full.stats.examined);
    }

    /// Span-limited convexity agrees with the whole-DFG scan on random
    /// DFGs with loads, stores and register redefinitions, for random
    /// node sets (including empty and single-node ones).
    #[test]
    fn span_limited_convexity_matches_full_scan(
        ops in proptest::collection::vec((0usize..11, 0usize..6, -64i64..64), 2..24),
        masks in proptest::collection::vec(any::<u32>(), 1..8),
    ) {
        let dfg = random_dfg(&ops);
        for &mask in &masks {
            let nodes: BitSet = (0..dfg.len()).filter(|&v| mask >> (v % 32) & 1 == 1).collect();
            prop_assert_eq!(dfg.is_convex(&nodes), is_convex_full_scan(&dfg, &nodes), "{:?}", nodes);
        }
    }
}
