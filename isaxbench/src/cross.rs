//! `compile-cross`: compile each of the 25 non-stress kernels against
//! every one's MDES under exact and generalized matching, in seeded
//! order — the Figs. 8/9 path. Set-up builds the 25 MDES; the timed
//! phase only compiles.
//!
//! The four stress kernels are not targets here: compiled against 25
//! MDES they took 85% of a pass (one of them, 53%), which made a pass
//! 9 s long — too long to time each compile more than twice in a run,
//! and twice did not keep the run-to-run spread of `wall_s` under 0.35
//! on a host whose speed drifts. They are compiled in every
//! customize-corpus pass.

use crate::{
    checks, interleaved, layers, timed_loop, trace, Digest, Opts, Report, Rng, Timed, Timings,
    Traced, Wall,
};
use isax::{Customizer, MatchOptions, Mdes};
use isax_bench::{extended_corpus, BenchKernel, HEADLINE_BUDGET};
use isax_compiler::CompiledProgram;

/// Seconds one pass over the matrix takes on a 2-CPU x86-64 host.
const NOMINAL_ROUND_S: f64 = 1.6;

/// One compile in this many, drawn by seed, gets the output checks.
const CHECK_EVERY: usize = 4;

/// The layers this workload must leave idle in its timed phase.
const IDLE: &[&str] = &[
    "ir.dataflow",
    "explore",
    "select.combine",
    "select.subsume",
    "select.wildcards",
    "select.greedy",
];

struct Setup {
    kernels: Vec<(BenchKernel, Customizer)>,
    /// The MDES of each kernel, in the same order.
    mdes: Vec<Mdes>,
}

fn setup() -> Setup {
    let kernels: Vec<(BenchKernel, Customizer)> = extended_corpus()
        .into_iter()
        .filter(|k| k.domain != "stress")
        .map(|k| {
            let cz = k.customizer();
            (k, cz)
        })
        .collect();
    let mdes = kernels
        .iter()
        .map(|(k, cz)| cz.customize(&k.name, &k.program, HEADLINE_BUDGET).0)
        .collect();
    Setup { kernels, mdes }
}

/// One compile: target kernel, MDES index, generalized matching?
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Draw {
    target: usize,
    mdes: usize,
    generalized: bool,
}

/// Pass `round`'s draws: the whole cross matrix — every target against
/// every MDES under both matchings — in seeded order. A target's
/// compiles differ up to tenfold in cost with the MDES, so a sample of
/// the matrix would make the tail a property of the sample; the whole
/// matrix makes every seed do the same work.
fn draws(s: &Setup, seed: u64, round: usize) -> Vec<Draw> {
    let mut v: Vec<Draw> = (0..s.kernels.len())
        .flat_map(|target| (0..s.mdes.len()).map(move |mdes| (target, mdes)))
        .flat_map(|(target, mdes)| {
            [false, true].map(|generalized| Draw {
                target,
                mdes,
                generalized,
            })
        })
        .collect();
    Rng::new(seed, 0xC055 + round as u64).shuffle(&mut v);
    v
}

/// `Customizer::evaluate`, or with `traced` the same steps through the
/// layers' public calls under spans.
fn compile(s: &Setup, d: Draw, traced: bool) -> (u64, CompiledProgram) {
    let (k, cz) = &s.kernels[d.target];
    let mdes = &s.mdes[d.mdes];
    let matching = if d.generalized {
        MatchOptions::generalized()
    } else {
        MatchOptions::exact()
    };
    if traced {
        return layers::evaluate(cz, &k.program, mdes, matching);
    }
    let ev = cz.evaluate(&k.program, mdes, matching);
    (ev.baseline_cycles, ev.compiled)
}

/// What a compile must reproduce: cycles and a digest of its assembly.
type Outcome = (Draw, u64, u64, String);

/// One pass over `draws`: its timings with the per-compile milliseconds
/// in matrix order, and the outcomes in matrix order. A seeded one in
/// [`CHECK_EVERY`] compiles is checked, outside the clock.
fn pass(
    s: &Setup,
    draws: &[Draw],
    traced: bool,
    seed: u64,
    report: &mut Report,
) -> (Timings, Vec<Outcome>) {
    let mut rng = Rng::new(seed, 0xC4EC);
    let mut outcomes = Vec::with_capacity(draws.len());
    let mut timings = timed_loop(
        draws,
        |&&d| compile(s, d, traced),
        |&&d, (baseline, compiled)| {
            report.attempted += 1;
            let (k, cz) = &s.kernels[d.target];
            if rng.below(CHECK_EVERY) == 0 {
                if let Err(e) = checks::compiled(k, cz, &s.mdes[d.mdes], &compiled, seed) {
                    let src = &s.kernels[d.mdes].0.name;
                    report.fail(format!("{} on {src}'s MDES: {e}", k.name));
                }
            }
            let mut asm = Digest::default();
            asm.add(crate::assembly(&compiled.program).as_bytes());
            outcomes.push((d, baseline, compiled.cycles, asm.hex()));
        },
    );
    let mut ms: Vec<(Draw, f64)> = draws.iter().copied().zip(timings.ms).collect();
    ms.sort_by_key(|&(d, _)| d);
    outcomes.sort();
    timings.ms = ms.into_iter().map(|(_, ms)| ms).collect();
    (timings, outcomes)
}

fn digest(s: &Setup, outcomes: &[Outcome]) -> String {
    let mut d = Digest::default();
    for m in &s.mdes {
        d.add(m.to_json().expect("MDES serializes").as_bytes());
    }
    for (_, baseline, custom, asm) in outcomes {
        d.add(&baseline.to_le_bytes());
        d.add(&custom.to_le_bytes());
        d.add(asm.as_bytes());
    }
    d.hex()
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    if opts.trace {
        let s = setup();
        let draws = draws(&s, opts.seed, 0);
        let (untraced_t, untraced) = pass(&s, &draws, false, opts.seed, &mut report);
        let mut ledgers = Vec::new();
        let mut walls = Vec::new();
        for _ in 0..2 {
            trace::start();
            let (t, traced) = pass(&s, &draws, true, opts.seed, &mut report);
            ledgers.push(trace::finish());
            // Raw, like the span self times they are set against.
            walls.push(t.raw_s);
            for (u, t) in untraced.iter().zip(&traced) {
                if u != t {
                    report.fail(format!(
                        "{}: the traced layer calls compiled differently",
                        s.kernels[u.0.target].0.name
                    ));
                }
            }
        }
        Traced {
            ledgers: ledgers.try_into().expect("two traced passes"),
            traced_wall_s: [walls[0], walls[1]],
            untraced_wall_s: untraced_t.raw_s,
            idle_layers: IDLE,
            dominant: Some((&["compiler"], 0.8)),
            extra: Vec::new(),
        }
        .per_layer(&mut report);
        report
            .record
            .push(("output_digest", digest(&s, &untraced).into()));
        return report;
    }
    let mut op_ms: Vec<Vec<f64>> = Vec::new();
    let mut raw_s = 0.0;
    let mut speedups = Vec::new();
    let mut digests = Vec::new();
    let setup_s = interleaved(opts.rounds(NOMINAL_ROUND_S, 2), setup, |s, round| {
        let draws = draws(s, opts.seed, round);
        let (t, outcomes) = pass(s, &draws, false, opts.seed ^ round as u64, &mut report);
        op_ms.resize(t.ms.len(), Vec::new());
        for (all, ms) in op_ms.iter_mut().zip(t.ms) {
            all.push(ms);
        }
        raw_s += t.raw_s;
        speedups = outcomes
            .iter()
            .map(|(_, baseline, custom, _)| *baseline as f64 / (*custom).max(1) as f64)
            .collect();
        digests.push(digest(s, &outcomes));
    });
    if digests.windows(2).any(|w| w[0] != w[1]) {
        report.fail(format!("rounds produced different outputs: {digests:?}"));
    }
    let corrected_s = op_ms.iter().flatten().sum::<f64>() / 1e3;
    Timed {
        setup_s,
        op_ms,
        wall: Wall::SumOfTypical,
        speedups,
        slowdown: Some(raw_s / corrected_s),
        peak_rss_mb: crate::peak_rss_mb(),
    }
    .end_to_end(&mut report);
    report
        .record
        .push(("output_digest", digests[0].clone().into()));
    report
}
