//! The pipeline rebuilt from each layer's public functions, with a span
//! around every call. It mirrors `Customizer::{analyze, select,
//! evaluate}` step for step (provenance and the checker off, as in the
//! timed runs); the traced runs assert that it produces the same MDES
//! bytes and cycle counts, so the per-layer numbers measure the program
//! the untraced runs time.

use crate::trace::{count, span};
use isax::{Customizer, Mdes};
use isax_compiler::{
    allocate_registers, apply_matches, baseline_cycles, find_matches_guarded_with_stats,
    function_cycles, function_cycles_metered, prioritize, CompiledProgram, CustomInfo,
    CustomOpInfo, MatchOptions, MatchStats,
};
use isax_explore::explore_app_guarded;
use isax_guard::Stage;
use isax_ir::{analyze_function, function_dfgs, Program};
use isax_select::{
    combine, find_wildcard_partners, mark_subsumptions, select_greedy, select_greedy_metered,
    CfuCandidate, SelectConfig,
};

/// `Customizer::analyze` up to the annotated CFU candidates.
pub fn analyze(cz: &Customizer, program: &Program) -> Vec<CfuCandidate> {
    let mut dfgs = Vec::new();
    for f in &program.functions {
        let f_dfgs = span("ir.dfgs", || function_dfgs(f));
        count("ir.dfgs.calls", 1);
        count("ir.dfgs.nodes", f_dfgs.iter().map(|d| d.len() as u64).sum());
        dfgs.extend(f_dfgs);
    }
    let mut offset = 0;
    for f in &program.functions {
        let stats = span("ir.dataflow", || {
            let facts = analyze_function(f);
            // Lint findings ride in `Analysis`; the untraced stage pays
            // for them inside the same dataflow step.
            std::hint::black_box(isax_check::lint_function(f, &facts));
            if cz.hw.width_aware {
                for (bi, w) in isax_ir::effective_widths_from(f, &facts).iter().enumerate() {
                    dfgs[offset + bi].set_widths(w);
                }
            }
            facts.stats()
        });
        count("ir.dataflow.iterations", stats.iterations);
        count("ir.dataflow.widenings", stats.widenings);
        offset += f.blocks.len();
    }
    let (result, degradations) = span("explore", || {
        explore_app_guarded(&dfgs, &cz.hw, &cz.explore, &cz.guard)
    });
    count("explore.examined", result.stats.examined);
    count("explore.recorded", result.stats.recorded);
    count("explore.degradations", degradations.len() as u64);
    let mut cfus = span("select.combine", || {
        combine(&dfgs, &result.candidates, &cz.hw)
    });
    count("select.combine.cfu_candidates", cfus.len() as u64);
    span("select.subsume", || {
        mark_subsumptions(&mut cfus, cz.closure_cap)
    });
    count(
        "select.subsume.edges",
        cfus.iter().map(|c| c.subsumes.len() as u64).sum(),
    );
    span("select.wildcards", || find_wildcard_partners(&mut cfus));
    count(
        "select.wildcards.edges",
        cfus.iter().map(|c| c.wildcard_partners.len() as u64).sum(),
    );
    cfus
}

/// `Customizer::select`: the greedy scan (metered when the customizer's
/// guard is active) and the MDES it emits.
pub fn select(cz: &Customizer, app: &str, cfus: &[CfuCandidate], budget: f64) -> Mdes {
    let mdes = span("select.greedy", || {
        let cfg = SelectConfig::with_budget(budget);
        let sel = if cz.guard.is_active() {
            let mut meter = cz.guard.meter(Stage::Select, 0);
            select_greedy_metered(cfus, &cfg, &mut meter)
        } else {
            select_greedy(cfus, &cfg)
        };
        Mdes::from_selection(app, cfus, &sel, &cz.hw, cz.closure_cap)
    });
    count("select.greedy.cfus_selected", mdes.cfus.len() as u64);
    mdes
}

/// `Customizer::evaluate`: baseline cycles, then the compiler driver's
/// match → prioritize → replace per function and schedule + register
/// allocation per customized function.
pub fn evaluate(
    cz: &Customizer,
    program: &Program,
    mdes: &Mdes,
    matching: MatchOptions,
) -> (u64, CompiledProgram) {
    let base = span("compiler.baseline", || {
        baseline_cycles(program, &cz.hw, &cz.model)
    });
    count("compiler.baseline.calls", 1);

    let mut out = Program::new(Vec::with_capacity(program.functions.len()));
    let mut custom_info = CustomInfo::new();
    let mut applied = Vec::new();
    let mut degradations = Vec::new();
    let mut match_stats = MatchStats::default();
    let mut sem_base: u16 = 0;
    for f in &program.functions {
        let dfgs = span("ir.dfgs", || function_dfgs(f));
        count("ir.dfgs.calls", 1);
        count("ir.dfgs.nodes", dfgs.iter().map(|d| d.len() as u64).sum());
        let (matches, stats, degr) = span("compiler.match", || {
            find_matches_guarded_with_stats(&dfgs, mdes, &cz.hw, &matching, &cz.guard)
        });
        match_stats.merge(&stats);
        degradations.extend(degr);
        count("compiler.match.vf2_calls", stats.vf2_calls);
        count("compiler.match.prefilter_skips", stats.prefilter_skips);
        count("compiler.match.found", stats.matches_found);
        let found = matches.len() as u64;
        let accepted = span("compiler.prioritize", || prioritize(matches, mdes, &dfgs));
        count("compiler.prioritize.considered", found);
        count("compiler.prioritize.accepted", accepted.len() as u64);
        let mut cf = span("compiler.replace", || {
            apply_matches(f, &dfgs, &accepted, mdes, sem_base)
        });
        count("compiler.replace.applied", cf.applied.len() as u64);
        sem_base = sem_base.max(cf.semantics.keys().next_back().map_or(sem_base, |&k| k + 1));
        for (&id, sem) in &cf.semantics {
            custom_info.insert(
                id,
                CustomOpInfo {
                    latency: cf.sem_latency.get(&id).copied().unwrap_or(1),
                    mem_reads: sem.load_count(),
                },
            );
        }
        out.cfu_semantics.append(&mut cf.semantics);
        applied.extend(cf.applied);
        out.functions.push(cf.function);
    }

    let mut cycles = 0;
    let mut block_cycles = Vec::new();
    let mut spills = 0;
    for (fi, f) in out.functions.iter().enumerate() {
        let (c, per_block, spilled) = span("compiler.schedule", || {
            let (c, per_block) = if cz.guard.is_active() {
                let mut meter = cz.guard.meter(Stage::Schedule, fi as u64);
                let (c, per_block, _) =
                    function_cycles_metered(f, &cz.hw, &custom_info, &cz.model, &mut meter);
                (c, per_block)
            } else {
                function_cycles(f, &cz.hw, &custom_info, &cz.model)
            };
            (c, per_block, allocate_registers(f).spilled.len())
        });
        count("compiler.schedule.functions", 1);
        count("compiler.schedule.spills", spilled as u64);
        cycles += c;
        block_cycles.push(per_block);
        spills += spilled;
    }
    let compiled = CompiledProgram {
        program: out,
        cycles,
        block_cycles,
        custom_info,
        applied,
        spills,
        match_stats,
        degradations,
        prov: isax_prov::ProvLog::default(),
    };
    (base, compiled)
}
