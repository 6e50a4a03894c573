//! CI performance smoke: a three-kernel slice of the timing corpus with
//! a committed baseline.
//!
//! Runs the full pipeline over `djpeg` (paper suite), `crc_brev`
//! (curated, explore-heavy) and `deep_chain` (stress corpus) — taken
//! from `extended_corpus()`, so each kernel runs under the same
//! customizer as in `timing`, stress work budget included — serially
//! and at four threads, and enforces, in order:
//!
//! 1. **identity**: both runs produce bit-identical customized cycle
//!    counts, per-kernel candidate counts, subsumption edge counts,
//!    degradation records, and provenance logs (the `isax_graph::par`
//!    contract, in miniature);
//! 2. **exact counts**: every kernel's candidates-examined count and the
//!    total number of subsumption edges (`CfuCandidate::subsumes`
//!    entries) equal the blessed baseline in
//!    `results/bench_smoke_baseline.json` — any move means exploration
//!    or subsumption behaviour changed;
//! 3. **no silent slowdown**: the serial analyze time, in units of a
//!    fixed reference task timed in the same process just before and
//!    just after each run ([`reference_ms`]), has a median over three
//!    runs within [`TOLERANCE`] of the blessed figure. Dividing by the
//!    reference cancels most of the speed difference between the
//!    machine that blessed the baseline and the one running the gate.
//!
//! Re-bless an intentional change with `ISAX_BLESS=1 bench_smoke` and
//! commit the new baseline. Exit status is the CI gate.

#![forbid(unsafe_code)]

use isax::{Analysis, MatchOptions};
use isax_bench::{extended_corpus, BenchKernel, HEADLINE_BUDGET};
use isax_graph::par::{par_map, set_thread_override};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

const KERNELS: [&str; 3] = ["djpeg", "crc_brev", "deep_chain"];
const BASELINE: &str = "results/bench_smoke_baseline.json";
/// Serial analyze runs; the gate reads their median.
const TIMED_RUNS: usize = 3;
/// Allowed relative regression of the analyze time, in reference units,
/// over the blessed figure. On a shared 2-CPU x86-64 virtual host the
/// median of one build moved by up to 0.2 between invocations, while
/// its raw wall clock moved by up to 0.7.
const TOLERANCE: f64 = 0.25;
/// Timings of the reference task per sample; a sample is their median.
const REF_TIMINGS: usize = 41;

struct SmokeRun {
    per_kernel: BTreeMap<String, (u64, u64)>,
    subsume_edges: u64,
    cycles: BTreeMap<String, u64>,
    degradations: Vec<String>,
    prov: isax_prov::ProvLog,
}

/// The host-speed reference: ordered- and hash-map updates, small vector
/// allocations and a sort over a fixed pseudo-random input — the mix of
/// work the analyze stage does, but none of the program's code, so a
/// change to the program cannot move it. About a millisecond. Returns
/// its seconds.
fn reference_once_s() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut ordered = BTreeMap::new();
    let mut hashed = HashMap::new();
    let mut lists: Vec<Vec<u64>> = Vec::new();
    for i in 0..4000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 8192;
        *ordered.entry(k).or_insert(0u64) += i;
        *hashed.entry(k ^ 0x55).or_insert(0u64) ^= i;
        if i % 8 == 0 {
            lists.push((0..k % 64).map(|v| v * i).collect());
        }
    }
    let mut flat: Vec<u64> = lists.into_iter().flatten().collect();
    flat.sort_unstable();
    black_box(
        ordered.values().sum::<u64>() ^ hashed.values().sum::<u64>() ^ flat.iter().sum::<u64>(),
    );
    t0.elapsed().as_secs_f64()
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One reference sample: the median of [`REF_TIMINGS`] timings, in
/// milliseconds.
fn reference_ms() -> f64 {
    let mut timings: Vec<f64> = (0..REF_TIMINGS).map(|_| reference_once_s()).collect();
    median(&mut timings) * 1e3
}

/// Analyzes the slice at the current thread setting; returns the
/// analyses and the wall clock of the whole stage.
fn analyze(corpus: &[BenchKernel]) -> (Vec<Analysis>, f64) {
    let t0 = Instant::now();
    let analyses = par_map(corpus, |k| k.customizer().analyze(&k.program));
    (analyses, t0.elapsed().as_secs_f64())
}

/// Selects and evaluates every analyzed kernel, collecting what the
/// identity and count gates compare.
fn finish(corpus: &[BenchKernel], analyses: &[Analysis]) -> SmokeRun {
    let mut run = SmokeRun {
        per_kernel: BTreeMap::new(),
        subsume_edges: 0,
        cycles: BTreeMap::new(),
        degradations: Vec::new(),
        prov: isax_prov::ProvLog::default(),
    };
    for (k, analysis) in corpus.iter().zip(analyses) {
        let s = &analysis.stats;
        run.per_kernel
            .insert(k.name.clone(), (s.examined, s.recorded));
        run.subsume_edges += analysis
            .cfus
            .iter()
            .map(|c| c.subsumes.len() as u64)
            .sum::<u64>();
        run.degradations
            .extend(analysis.degradations.iter().map(|d| d.to_string()));
        run.prov.merge(analysis.prov.clone());

        let cz = k.customizer();
        let (mdes, sel) = cz.select(&k.name, analysis, HEADLINE_BUDGET);
        run.degradations
            .extend(sel.degradations.iter().map(|d| d.to_string()));
        run.prov.merge(sel.prov.clone());
        let ev = cz.evaluate(&k.program, &mdes, MatchOptions::with_subsumed());
        run.degradations
            .extend(ev.compiled.degradations.iter().map(|d| d.to_string()));
        run.prov.merge(ev.compiled.prov.clone());
        run.cycles.insert(k.name.clone(), ev.custom_cycles);
    }
    run
}

fn main() {
    let _prov = isax_prov::enable();
    let corpus: Vec<BenchKernel> = extended_corpus()
        .into_iter()
        .filter(|k| KERNELS.contains(&k.name.as_str()))
        .collect();
    assert_eq!(
        corpus.len(),
        KERNELS.len(),
        "smoke kernels missing from the corpus"
    );

    set_thread_override(Some(1));
    let mut times = Vec::with_capacity(TIMED_RUNS);
    let mut units = Vec::with_capacity(TIMED_RUNS);
    let mut refs = vec![reference_ms()];
    let mut analyses = Vec::new();
    for _ in 0..TIMED_RUNS {
        let (a, seconds) = analyze(&corpus);
        refs.push(reference_ms());
        let around = (refs[refs.len() - 2] + refs[refs.len() - 1]) / 2.0;
        times.push(seconds);
        units.push(seconds * 1e3 / around);
        analyses = a;
    }
    let analyze_s = median(&mut times);
    let reference_ms = median(&mut refs);
    let analyze_refs = median(&mut units);
    let serial = finish(&corpus, &analyses);
    set_thread_override(Some(4));
    let parallel = finish(&corpus, &analyze(&corpus).0);
    set_thread_override(None);

    // Gate 1: serial-vs-parallel identity.
    assert_eq!(
        serial.cycles, parallel.cycles,
        "customized cycle counts diverged between 1 and 4 threads"
    );
    assert_eq!(
        serial.per_kernel, parallel.per_kernel,
        "per-kernel candidate counts diverged between 1 and 4 threads"
    );
    assert_eq!(
        serial.subsume_edges, parallel.subsume_edges,
        "subsumption edge counts diverged between 1 and 4 threads"
    );
    assert_eq!(
        serial.degradations, parallel.degradations,
        "degradation records diverged between 1 and 4 threads"
    );
    assert_eq!(
        serial.prov, parallel.prov,
        "provenance logs diverged between 1 and 4 threads"
    );

    let examined = isax_json::object(
        serial
            .per_kernel
            .iter()
            .map(|(name, &(examined, _))| (name.as_str(), examined.into())),
    );
    let doc = isax_json::object([
        (
            "kernels",
            isax_json::array(KERNELS.map(isax_json::Value::from)),
        ),
        ("budget", HEADLINE_BUDGET.into()),
        ("outputs_identical", true.into()),
        ("candidates_examined", examined),
        ("subsume_edges", serial.subsume_edges.into()),
        ("analyze_s", analyze_s.into()),
        ("reference_ms", reference_ms.into()),
        ("analyze_refs", analyze_refs.into()),
    ]);
    let rendered = {
        let mut s = doc.to_string_pretty();
        s.push('\n');
        s
    };
    println!("{rendered}");

    if std::env::var("ISAX_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(BASELINE, &rendered).expect("write baseline");
        eprintln!("blessed {BASELINE}");
        return;
    }
    let text = std::fs::read_to_string(BASELINE).unwrap_or_else(|e| {
        panic!("{BASELINE}: {e}\nrun with ISAX_BLESS=1 to generate the baseline")
    });
    let base = isax_json::parse(&text).expect("baseline parses");

    // Gate 2: exact deterministic counts.
    for (name, &(examined, _)) in &serial.per_kernel {
        let blessed = base
            .get("candidates_examined")
            .and_then(|m| m.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("baseline has no candidates_examined for {name}"));
        assert_eq!(
            examined, blessed,
            "{name}: candidates examined changed — exploration behaviour changed; \
             re-bless with ISAX_BLESS=1 if intentional"
        );
    }
    let blessed_edges = base
        .get("subsume_edges")
        .and_then(|v| v.as_u64())
        .expect("baseline subsume_edges");
    assert_eq!(
        serial.subsume_edges, blessed_edges,
        "subsumption edges changed — subsumption behaviour changed; \
         re-bless with ISAX_BLESS=1 if intentional"
    );

    // Gate 3: serial analyze time in reference units.
    let base_refs = base
        .get("analyze_refs")
        .and_then(|v| v.as_f64())
        .expect("baseline analyze_refs");
    let cap = base_refs * (1.0 + TOLERANCE);
    assert!(
        analyze_refs <= cap,
        "serial analyze regressed: median {analyze_refs:.0} reference times \
         vs blessed {base_refs:.0} (cap {cap:.0}; raw median {analyze_s:.3}s, \
         reference {reference_ms:.3}ms) — re-bless with ISAX_BLESS=1 if intentional",
    );
    eprintln!(
        "bench smoke OK: counts exact ({} subsumption edges), analyze median \
         {analyze_refs:.0} reference times (blessed {base_refs:.0}; raw median \
         {analyze_s:.3}s, reference {reference_ms:.3}ms)",
        serial.subsume_edges,
    );
}
