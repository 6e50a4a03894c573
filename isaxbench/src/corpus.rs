//! `customize-corpus`: analyze, select at 15 adders, and evaluate with
//! subsumed matching, for every kernel of the 29-kernel extended corpus,
//! with the pipeline on one thread.

use crate::{
    checks, interleaved, layers, timed_loop, trace, Digest, Opts, Report, Timed, Timings, Traced,
    Wall,
};
use isax::{Customizer, MatchOptions, Mdes};
use isax_bench::{extended_corpus, BenchKernel, HEADLINE_BUDGET};
use isax_compiler::CompiledProgram;

/// Seconds one pass over the corpus takes on a 2-CPU x86-64 host.
const NOMINAL_ROUND_S: f64 = 13.0;

type Corpus = Vec<(BenchKernel, Customizer)>;

fn setup() -> Corpus {
    extended_corpus()
        .into_iter()
        .map(|k| {
            let cz = k.customizer();
            (k, cz)
        })
        .collect()
}

/// One kernel's result.
struct Done {
    mdes: Mdes,
    baseline: u64,
    compiled: CompiledProgram,
}

/// The bytes and cycles the untraced and traced paths must agree on.
#[derive(Debug, PartialEq)]
struct Artifacts {
    mdes_json: String,
    assembly: String,
    baseline: u64,
    custom: u64,
}

/// `Customizer::{analyze, select, evaluate}`, or with `traced` the same
/// steps through the layers' public calls under spans.
fn customize(k: &BenchKernel, cz: &Customizer, traced: bool) -> Done {
    let matching = MatchOptions::with_subsumed();
    if traced {
        let cfus = layers::analyze(cz, &k.program);
        let mdes = layers::select(cz, &k.name, &cfus, HEADLINE_BUDGET);
        let (baseline, compiled) = layers::evaluate(cz, &k.program, &mdes, matching);
        return Done {
            mdes,
            baseline,
            compiled,
        };
    }
    let analysis = cz.analyze(&k.program);
    let (mdes, _) = cz.select(&k.name, &analysis, HEADLINE_BUDGET);
    let ev = cz.evaluate(&k.program, &mdes, matching);
    Done {
        mdes,
        baseline: ev.baseline_cycles,
        compiled: ev.compiled,
    }
}

/// One pass over the corpus: its timings (one per kernel, in corpus
/// order) and every kernel's artifacts, each checked outside the clock.
fn pass(
    corpus: &Corpus,
    traced: bool,
    seed: u64,
    report: &mut Report,
) -> (Timings, Vec<Artifacts>) {
    let mut arts = Vec::with_capacity(corpus.len());
    let timings = timed_loop(
        corpus,
        |(k, cz)| customize(k, cz, traced),
        |(k, cz), d| {
            report.attempted += 1;
            if let Err(e) = checks::compiled(k, cz, &d.mdes, &d.compiled, seed) {
                report.fail(format!("{}: {e}", k.name));
            } else if d.compiled.cycles > d.baseline {
                report.fail(format!(
                    "{}: customization cost cycles ({} > {})",
                    k.name, d.compiled.cycles, d.baseline
                ));
            }
            arts.push(Artifacts {
                mdes_json: d.mdes.to_json().expect("MDES serializes"),
                assembly: crate::assembly(&d.compiled.program),
                baseline: d.baseline,
                custom: d.compiled.cycles,
            });
        },
    );
    (timings, arts)
}

fn digest(arts: &[Artifacts]) -> String {
    let mut d = Digest::default();
    for a in arts {
        d.add(a.mdes_json.as_bytes());
        d.add(a.assembly.as_bytes());
    }
    d.hex()
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    if opts.trace {
        let corpus = setup();
        let (untraced_t, untraced) = pass(&corpus, false, opts.seed, &mut report);
        let mut ledgers = Vec::new();
        let mut walls = Vec::new();
        for _ in 0..2 {
            trace::start();
            let (t, traced) = pass(&corpus, true, opts.seed, &mut report);
            ledgers.push(trace::finish());
            // Raw, like the span self times they are set against.
            walls.push(t.raw_s);
            for ((k, _), (u, t)) in corpus.iter().zip(untraced.iter().zip(&traced)) {
                if u != t {
                    report.fail(format!(
                        "{}: the traced layer calls gave other MDES, assembly or cycles",
                        k.name
                    ));
                }
            }
        }
        Traced {
            ledgers: ledgers.try_into().expect("two traced passes"),
            traced_wall_s: [walls[0], walls[1]],
            untraced_wall_s: untraced_t.raw_s,
            idle_layers: &[],
            dominant: Some((&["explore", "select.subsume"], 0.8)),
            extra: Vec::new(),
        }
        .per_layer(&mut report);
        report
            .record
            .push(("output_digest", digest(&untraced).into()));
        return report;
    }
    // The operation here is one pass over the corpus, the batch a build
    // would submit: p50_ms and tail_ms are pass latencies. Per-kernel
    // latencies are too short to be steady: the median kernel takes
    // about 20 ms, and its run-to-run spread stayed between 0.05 and
    // 0.11 (inter-quartile range over median, host-speed corrected)
    // with three passes per run on a shared 2-CPU virtual host, and the
    // 19th of 29 kernels, the tail rank, between 0.03 and 0.14.
    let mut walls = Vec::new();
    let mut raw_s = 0.0;
    let mut speedups = Vec::new();
    let mut digests = Vec::new();
    let setup_s = interleaved(opts.rounds(NOMINAL_ROUND_S, 3), setup, |corpus, _| {
        let (t, arts) = pass(corpus, false, opts.seed, &mut report);
        walls.push(t.wall_s);
        raw_s += t.raw_s;
        speedups = arts
            .iter()
            .map(|a| a.baseline as f64 / a.custom.max(1) as f64)
            .collect();
        digests.push(digest(&arts));
    });
    if digests.windows(2).any(|w| w[0] != w[1]) {
        report.fail(format!("passes produced different outputs: {digests:?}"));
    }
    Timed {
        setup_s,
        op_ms: walls.iter().map(|s| vec![s * 1e3]).collect(),
        slowdown: Some(raw_s / walls.iter().sum::<f64>()),
        peak_rss_mb: crate::peak_rss_mb(),
        wall: Wall::MedianRound(walls),
        speedups,
    }
    .end_to_end(&mut report);
    report
        .record
        .push(("output_digest", digests[0].clone().into()));
    report
}
