//! Subsumed subgraphs via identity contraction.
//!
//! "Subsumed subgraphs take advantage of the fact that most atomic
//! operations have an associated identity input, allowing values to pass
//! through a node without changing" (§3.3). If hardware implements
//! `AND → ADD → SHL`, it can also execute `AND → SHL` by feeding the ADD a
//! zero: the ADD is *bypassed*.
//!
//! A **contraction step** removes one bypassable node from a pattern and
//! rewires the value that passes through it. The **contraction closure**
//! of a CFU pattern is every smaller pattern reachable by such steps; a
//! CFU *subsumes* every candidate whose pattern appears in its closure.
//! The compiler matches closure patterns in applications and maps them
//! onto the subsuming hardware — the mechanism behind the black bar
//! segments of Figures 8 and 9.

use crate::combine::{patterns_equivalent, CfuCandidate};
use isax_graph::{canon, par, DiGraph, NodeId};
use isax_ir::DfgLabel;
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};

/// Maximum closure size used when none is specified.
pub const DEFAULT_CLOSURE_CAP: usize = 64;

/// An internal data edge `(src, dst, port)` by node position.
type Triple = (u32, u32, u8);

/// True if a node labelled `label` can be bypassed, returning the internal
/// pass-through producer if there is one (`None` means the passed value is
/// an external input). `internal_in(port)` names the pattern node feeding
/// `port`, if any.
///
/// Conditions: the opcode has an identity element; the identity port has
/// no internal producer and no conflicting hardwired constant; the pass
/// port carries a real value (not a hardwired constant).
fn bypass_source(
    label: &DfgLabel,
    internal_in: impl Fn(u8) -> Option<u32>,
) -> Option<Option<(u32, u8)>> {
    let (pass_canon, ident) = label.opcode.identity()?;
    debug_assert_eq!(pass_canon, 0);
    // Candidate (pass, identity) port assignments.
    const BOTH: [(u8, u8); 2] = [(0, 1), (1, 0)];
    let options = if label.opcode.is_commutative() {
        &BOTH[..]
    } else {
        &BOTH[..1]
    };
    let imm_at = |port: u8| {
        label
            .imms
            .iter()
            .find(|&&(p, _)| p == port)
            .map(|&(_, v)| v)
    };
    for &(pass, idp) in options {
        if internal_in(idp).is_some() {
            continue; // identity port is fed by the pattern: cannot constant it
        }
        match imm_at(idp) {
            Some(c) if c as u32 != ident => continue, // wrong hardwired constant
            _ => {}
        }
        if imm_at(pass).is_some() {
            continue; // the passed value must be a live value, not a constant
        }
        return Some(internal_in(pass).map(|u| (u, pass)));
    }
    None
}

/// Performs one contraction: removes `v` and rewires its consumers to the
/// pass-through source (or makes them external inputs). Returns `None`
/// when `v` is not bypassable or the result would be empty/disconnected.
pub fn contract_once(pattern: &DiGraph<DfgLabel>, v: NodeId) -> Option<DiGraph<DfgLabel>> {
    if pattern.node_count() <= 1 {
        return None;
    }
    let pass = bypass_source(&pattern[v], |port| {
        pattern.preds(v).find(|e| e.port == port).map(|e| e.src.0)
    })?;
    // Build the graph without v.
    let mut g = DiGraph::with_capacity(pattern.node_count() - 1);
    let mut remap = vec![None; pattern.node_count()];
    for n in pattern.node_ids() {
        if n != v {
            remap[n.index()] = Some(g.add_node(pattern[n].clone()));
        }
    }
    for e in pattern.edges() {
        if e.src == v || e.dst == v {
            continue;
        }
        g.add_edge(
            remap[e.src.index()].unwrap(),
            remap[e.dst.index()].unwrap(),
            e.port,
        );
    }
    if let Some((u, _)) = pass {
        // The pass-through producer now feeds v's consumers directly.
        for e in pattern.succs(v) {
            if e.dst == v {
                continue; // self-loop cannot occur in a DFG, but stay safe
            }
            g.add_edge(
                remap[u as usize].unwrap(),
                remap[e.dst.index()].unwrap(),
                e.port,
            );
        }
    }
    // Pass source external: v's consumers simply read an external input,
    // i.e. the edges disappear.
    if !g.is_weakly_connected() {
        return None;
    }
    Some(g)
}

/// Computes the contraction closure of a pattern: every distinct smaller
/// pattern obtainable by repeatedly bypassing identity nodes, capped at
/// `cap` members. The original pattern is **not** included.
///
/// # Example
///
/// ```
/// use isax_graph::DiGraph;
/// use isax_ir::{DfgLabel, Opcode};
/// use isax_select::subsume::contraction_closure;
///
/// // and -> add -> shl#2 : the add can be bypassed with +0, the and with
/// // &~0, so the closure holds and->shl, add->shl, shl, and-add, ...
/// let lab = |op| DfgLabel { opcode: op, imms: vec![] };
/// let mut p = DiGraph::new();
/// let a = p.add_node(lab(Opcode::And));
/// let b = p.add_node(lab(Opcode::Add));
/// let c = p.add_node(DfgLabel { opcode: Opcode::Shl, imms: vec![(1, 2)] });
/// p.add_edge(a, b, 0);
/// p.add_edge(b, c, 0);
///
/// let closure = contraction_closure(&p, 64);
/// assert!(closure.iter().any(|g| g.node_count() == 2));
/// assert!(closure.iter().any(|g| g.node_count() == 1));
/// ```
pub fn contraction_closure(pattern: &DiGraph<DfgLabel>, cap: usize) -> Vec<DiGraph<DfgLabel>> {
    closure_members(pattern, cap)
        .into_iter()
        .skip(1)
        .map(|m| {
            m.graph
                .into_inner()
                .unwrap_or_else(|| build_graph(pattern, &m.survivors, &m.edges))
        })
        .collect()
}

/// Replaces `out` with the sorted `(src, dst, port)` triples of `g`.
fn sorted_triples(g: &DiGraph<DfgLabel>, out: &mut Vec<Triple>) {
    out.clear();
    out.extend(g.edges().map(|e| (e.src.0, e.dst.0, e.port)));
    out.sort_unstable();
}

/// The graph of a compact member: node `p` carries the root's label at
/// `survivors[p]`, edges are added in triple order.
fn build_graph(root: &DiGraph<DfgLabel>, survivors: &[u32], edges: &[Triple]) -> DiGraph<DfgLabel> {
    let mut g = DiGraph::with_capacity(survivors.len());
    for &r in survivors {
        g.add_node(root[NodeId(r)].clone());
    }
    for &(s, d, p) in edges {
        g.add_edge(NodeId(s), NodeId(d), p);
    }
    g
}

/// True if the `n` nodes of `edges` form one weakly connected component
/// (union-find over the triples; `parent` is scratch).
fn triples_connected(n: usize, edges: &[Triple], parent: &mut Vec<u32>) -> bool {
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    parent.clear();
    parent.extend(0..n as u32);
    let mut components = n;
    for &(s, d, _) in edges {
        let (a, b) = (find(parent, s), find(parent, d));
        if a != b {
            parent[a as usize] = b;
            components -= 1;
        }
    }
    components <= 1
}

/// A closure member in compact form. Member position `p` is root node
/// `survivors[p]` (ascending, so contraction preserves relative node
/// order), labels are borrowed from the root, and `edges` are the
/// member's sorted triples. The `DiGraph` form is built only when VF2
/// must confirm a same-key match, and then kept.
struct Member {
    survivors: Vec<u32>,
    edges: Vec<Triple>,
    /// [`canon::refined_key`] of the member.
    key: u64,
    graph: OnceCell<DiGraph<DfgLabel>>,
}

impl Member {
    /// The member's `DiGraph`, built on first use.
    fn graph(&self, root: &DiGraph<DfgLabel>) -> &DiGraph<DfgLabel> {
        self.graph
            .get_or_init(|| build_graph(root, &self.survivors, &self.edges))
    }
}

/// The contraction closure of `root` in compact form: `[0]` is the root
/// itself, the closure proper is `[1..]` in discovery order.
///
/// Walks exactly as repeated [`contract_once`] would: a LIFO stack of
/// members, each member's nodes tried in position order, a new shape kept
/// unless it is disconnected or equivalent to a kept one, and the walk
/// stopped once `cap` members are kept.
///
/// An attempt whose set of removed root nodes (equivalently, of
/// surviving ones) was already tried is skipped: the contracted graph
/// depends only on that set (a port that became external stays external
/// as more nodes are removed, so every removal order resolves each
/// surviving port to the same producer), and the earlier attempt already
/// kept or rejected it. Duplicates are found by [`canon::refined_key`]
/// bucket plus an exact positional compare (same root labels, same
/// triples); only a same-key shape that is not positionally identical
/// pays for VF2.
fn closure_members(root: &DiGraph<DfgLabel>, cap: usize) -> Vec<Member> {
    let n = root.node_count();
    let keys: Vec<u64> = root.node_ids().map(|v| root[v].key()).collect();
    let comm: Vec<bool> = root
        .node_ids()
        .map(|v| root[v].opcode.is_commutative())
        .collect();
    // Label class per root node: equal labels share the lowest index,
    // so positional label compares are integer compares.
    let class: Vec<u32> = (0..n)
        .map(|v| {
            (0..v)
                .find(|&u| root[NodeId(u as u32)] == root[NodeId(v as u32)])
                .unwrap_or(v) as u32
        })
        .collect();
    let mut members = vec![Member {
        survivors: (0..n as u32).collect(),
        edges: Vec::new(),
        key: 0,
        graph: OnceCell::new(),
    }];
    sorted_triples(root, &mut members[0].edges);
    let mut buckets: HashMap<u64, Vec<usize>, canon::PremixedState> = HashMap::default();
    // Survivor sets already attempted (each names its removed set).
    let mut tried: HashSet<Vec<u32>> = HashSet::new();
    let mut surv: Vec<u32> = Vec::new();
    let mut edges: Vec<Triple> = Vec::new();
    let mut key_scratch = canon::CanonScratch::default();
    let mut parent = Vec::new();
    let mut stack = vec![0usize];
    // `members[0]` is the root, so the closure so far is
    // `members.len() - 1` and `members.len() > cap` means it is full.
    while let Some(gi) = stack.pop() {
        if members.len() > cap {
            break;
        }
        let m = members[gi].survivors.len();
        if m <= 1 {
            continue; // nothing left to contract
        }
        for vi in 0..m as u32 {
            let p = &members[gi];
            let Some(pass) = bypass_source(&root[NodeId(p.survivors[vi as usize])], |port| {
                p.edges
                    .iter()
                    .find(|&&(_, d, q)| d == vi && q == port)
                    .map(|&(s, _, _)| s)
            }) else {
                continue;
            };
            // The contraction: survivors minus position `vi`, edges not
            // touching `vi` renumbered, and `vi`'s consumers fed by the
            // pass-through producer when it is internal.
            surv.clear();
            surv.extend(
                p.survivors
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != vi as usize)
                    .map(|(_, &r)| r),
            );
            if tried.contains(surv.as_slice()) {
                continue;
            }
            tried.insert(surv.clone());
            let remap = |x: u32| x - u32::from(x > vi);
            edges.clear();
            for &(s, d, port) in &p.edges {
                if s != vi && d != vi {
                    edges.push((remap(s), remap(d), port));
                } else if s == vi && d != vi {
                    if let Some((u, _)) = pass {
                        edges.push((remap(u), remap(d), port));
                    }
                }
            }
            edges.sort_unstable();
            let key = canon::refined_key(
                m - 1,
                |i| keys[surv[i] as usize],
                |i| comm[surv[i] as usize],
                &edges,
                &mut key_scratch,
            );
            let bucket = buckets.get(&key);
            let identical = |o: &Member| {
                o.edges == edges
                    && o.survivors.len() == surv.len()
                    && o.survivors
                        .iter()
                        .zip(&surv)
                        .all(|(&a, &b)| class[a as usize] == class[b as usize])
            };
            if bucket.is_some_and(|b| b.iter().any(|&i| identical(&members[i]))) {
                continue;
            }
            if !triples_connected(m - 1, &edges, &mut parent) {
                continue;
            }
            let graph = OnceCell::new();
            if let Some(b) = bucket {
                // A same-key cousin: VF2 decides.
                let c = build_graph(root, &surv, &edges);
                if b.iter()
                    .any(|&i| patterns_equivalent(members[i].graph(root), &c))
                {
                    continue;
                }
                let _ = graph.set(c);
            }
            buckets.entry(key).or_default().push(members.len());
            members.push(Member {
                survivors: surv.clone(),
                edges: edges.clone(),
                key,
                graph,
            });
            if members.len() > cap {
                return members;
            }
            stack.push(members.len() - 1);
        }
    }
    members
}

/// Fills in [`CfuCandidate::subsumes`] for every candidate: `i` subsumes
/// `j` when `j`'s pattern appears in `i`'s contraction closure.
///
/// Each candidate's closure is independent of every other's, so the
/// closures are computed in parallel against a read-only view of the
/// slice and written back afterwards; the result is identical to the
/// serial loop for any thread count.
pub fn mark_subsumptions(cands: &mut [CfuCandidate], cap: usize) {
    // Index candidates by the closure walk's key for O(1) lookups. The
    // key is sound for commutativity-aware isomorphism, so a closure
    // member's true matches are always in its bucket; equality inside a
    // bucket is confirmed exactly below.
    let mut key_scratch = canon::CanonScratch::default();
    let mut triples = Vec::new();
    let mut by_key: HashMap<u64, Vec<usize>, canon::PremixedState> = HashMap::default();
    for (i, c) in cands.iter().enumerate() {
        let g = &c.pattern;
        sorted_triples(g, &mut triples);
        let key = canon::refined_key(
            g.node_count(),
            |v| g[NodeId(v as u32)].key(),
            |v| g[NodeId(v as u32)].opcode.is_commutative(),
            &triples,
            &mut key_scratch,
        );
        by_key.entry(key).or_default().push(i);
    }
    let view: &[CfuCandidate] = cands;
    let subsumed_lists = par::par_map_indexed(view.len(), |i| {
        if view[i].pattern.node_count() < 2 {
            return Vec::new();
        }
        let root = &view[i].pattern;
        let closure = closure_members(root, cap);
        let mut subsumed: Vec<usize> = Vec::new();
        let mut triples = Vec::new();
        for m in &closure[1..] {
            let Some(matches) = by_key.get(&m.key) else {
                continue;
            };
            for &j in matches {
                if j == i {
                    continue;
                }
                let pj = &view[j].pattern;
                // Positionally identical (same labels in order, same
                // triples) is equivalent without a search; VF2 otherwise.
                let identical = pj.node_count() == m.survivors.len()
                    && pj.edge_count() == m.edges.len()
                    && m.survivors
                        .iter()
                        .enumerate()
                        .all(|(p, &r)| pj[NodeId(p as u32)] == root[NodeId(r)])
                    && {
                        sorted_triples(pj, &mut triples);
                        triples == m.edges
                    };
                if identical || patterns_equivalent(pj, m.graph(root)) {
                    subsumed.push(j);
                }
            }
        }
        subsumed.sort_unstable();
        subsumed.dedup();
        subsumed
    });
    for (c, s) in cands.iter_mut().zip(subsumed_lists) {
        c.subsumes = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isax_ir::Opcode;

    fn lab(op: Opcode) -> DfgLabel {
        DfgLabel {
            opcode: op,
            imms: vec![],
        }
    }

    /// and -> add -> shl (variable shift) chain.
    fn chain() -> DiGraph<DfgLabel> {
        let mut p = DiGraph::new();
        let a = p.add_node(lab(Opcode::And));
        let b = p.add_node(lab(Opcode::Add));
        let c = p.add_node(lab(Opcode::Shl));
        p.add_edge(a, b, 0);
        p.add_edge(b, c, 0);
        p
    }

    #[test]
    fn paper_example_and_add_shl() {
        // "if CFU 'AND-ADD->>' was discovered, CFU 'AND->>' can be executed
        //  on the same hardware ... CFUs 'AND-ADD' and 'ADD->>' would also
        //  be recorded as being subsumed"
        let closure = contraction_closure(&chain(), 64);
        let descs: std::collections::BTreeSet<String> = closure
            .iter()
            .map(|g| {
                let mut names: Vec<&str> = g.node_ids().map(|n| g[n].opcode.mnemonic()).collect();
                names.sort_unstable();
                names.join("-")
            })
            .collect();
        assert!(descs.contains("and-shl"), "descs: {descs:?}");
        assert!(descs.contains("add-shl"), "AND bypassed with all-ones");
        assert!(descs.contains("add-and"), "SHL bypassed with shift 0");
        assert!(descs.contains("and"));
        assert!(descs.contains("add"));
        assert!(descs.contains("shl"));
    }

    #[test]
    fn sub_subtrahend_side_cannot_pass() {
        // x - y: only the minuend (port 0) passes through with y = 0. A
        // producer feeding port 1 of the sub cannot be wired through.
        let mut p = DiGraph::new();
        let x = p.add_node(lab(Opcode::Xor));
        let s = p.add_node(lab(Opcode::Sub));
        p.add_edge(x, s, 1); // xor feeds the subtrahend
        let closure = contraction_closure(&p, 16);
        // Bypassing the sub is impossible (its pass port 0 is external but
        // the *identity port* 1 is fed internally); bypassing the xor
        // (identity 0 on either port, commutative) gives a single sub.
        assert!(closure
            .iter()
            .all(|g| !(g.node_count() == 1 && g[NodeId(0)].opcode == Opcode::Xor)));
        assert!(closure
            .iter()
            .any(|g| g.node_count() == 1 && g[NodeId(0)].opcode == Opcode::Sub));
    }

    #[test]
    fn hardwired_nonidentity_constant_blocks_bypass() {
        // add #5 cannot be bypassed: its free port has constant 5, not 0.
        let mut p = DiGraph::new();
        let a = p.add_node(lab(Opcode::And));
        let b = p.add_node(DfgLabel {
            opcode: Opcode::Add,
            imms: vec![(1, 5)],
        });
        p.add_edge(a, b, 0);
        let closure = contraction_closure(&p, 16);
        assert!(
            closure
                .iter()
                .all(|g| !(g.node_count() == 1 && g[NodeId(0)].opcode == Opcode::And)),
            "the add+5 must not vanish"
        );
    }

    #[test]
    fn select_has_no_identity() {
        let mut p = DiGraph::new();
        let a = p.add_node(lab(Opcode::And));
        let s = p.add_node(lab(Opcode::Select));
        p.add_edge(a, s, 1);
        let closure = contraction_closure(&p, 16);
        assert!(closure
            .iter()
            .all(|g| !(g.node_count() == 1 && g[NodeId(0)].opcode == Opcode::And)));
    }

    #[test]
    fn diamond_contraction_preserves_connectivity() {
        // xor -> {shl#3, shr#29} -> or. Bypassing shl#3 (shift 0 identity
        // ... wait, its amount is hardwired to 3) is blocked; bypassing the
        // or would disconnect nothing since both inputs are internal — the
        // or's identity port is fed internally, so it is not bypassable.
        let mut p = DiGraph::new();
        let x = p.add_node(lab(Opcode::Xor));
        let l = p.add_node(DfgLabel {
            opcode: Opcode::Shl,
            imms: vec![(1, 3)],
        });
        let r = p.add_node(DfgLabel {
            opcode: Opcode::Shr,
            imms: vec![(1, 29)],
        });
        let o = p.add_node(lab(Opcode::Or));
        p.add_edge(x, l, 0);
        p.add_edge(x, r, 0);
        p.add_edge(l, o, 0);
        p.add_edge(r, o, 1);
        let closure = contraction_closure(&p, 64);
        // Only the xor is bypassable (commutative, both inputs external):
        // closure = { shl+shr+or }.
        assert_eq!(closure.len(), 1);
        assert_eq!(closure[0].node_count(), 3);
    }

    #[test]
    fn closure_cap_is_respected() {
        // A long add chain has an exponential closure; the cap bounds it.
        let mut p = DiGraph::new();
        let mut prev = p.add_node(lab(Opcode::Add));
        for _ in 0..8 {
            let n = p.add_node(lab(Opcode::Add));
            p.add_edge(prev, n, 0);
            prev = n;
        }
        let closure = contraction_closure(&p, 10);
        assert!(closure.len() <= 10);
    }

    #[test]
    fn mark_subsumptions_links_candidates() {
        use crate::combine::combine;
        use isax_explore::{explore_app, ExploreConfig};
        use isax_hwlib::HwLibrary;
        use isax_ir::{function_dfgs, FunctionBuilder};

        let mut fb = FunctionBuilder::new("f", 3);
        let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
        // and -> add -> xor chain; its sub-chains are discovered too.
        let t = fb.and(a, b);
        let u = fb.add(t, c);
        let v = fb.xor(u, a);
        fb.ret(&[v.into()]);
        let dfgs = function_dfgs(&fb.finish());
        let hw = HwLibrary::micron_018();
        let found = explore_app(&dfgs, &hw, &ExploreConfig::default());
        let mut cfus = combine(&dfgs, &found.candidates, &hw);
        mark_subsumptions(&mut cfus, DEFAULT_CLOSURE_CAP);

        let full = cfus.iter().position(|c| c.size() == 3).unwrap();
        let and_only = cfus
            .iter()
            .position(|c| c.size() == 1 && c.describe() == "and")
            .unwrap();
        let and_add = cfus.iter().position(|c| c.describe() == "add-and").unwrap();
        assert!(cfus[full].subsumes.contains(&and_only));
        assert!(cfus[full].subsumes.contains(&and_add));
        assert!(cfus[and_only].subsumes.is_empty());
    }
}
