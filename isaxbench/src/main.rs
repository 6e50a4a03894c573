//! `isaxbench`: the isax benchmark.
//!
//! ```text
//! cargo run --release --manifest-path isaxbench/Cargo.toml -- \
//!     --workload <customize-corpus|compile-cross|serve-mixed|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path isaxbench/Cargo.toml -- --manifest > BENCHMARK.json
//! cargo run --release --manifest-path isaxbench/Cargo.toml -- --compare first.jsonl second.jsonl
//! ```
//!
//! With `--trace 0` a run measures the workload's end-to-end metrics
//! with tracing off, its CPU-bound times corrected to the host's quiet
//! speed (`speed.rs`); with `--trace 1` it reports the per-layer metrics
//! from the benchmark's own spans, and which end-to-end metric each one
//! should move. Either way it checks every output, prints a readable
//! report, a `record` line (host, seed, sample counts, output digest),
//! and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. It exits non-zero when an output check fails.
//!
//! `--compare` takes two files of such last lines (runs of one workload
//! at different seeds) and judges each end-to-end metric against its
//! bound: the spread of each set, and how much worse the second median
//! is than the first.

#![forbid(unsafe_code)]

mod checks;
mod corpus;
mod cross;
mod layers;
mod manifest;
mod serve;
mod speed;
mod stats;
mod trace;

use isax_json::{object, Value};
use std::process::ExitCode;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: u64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
}

impl Opts {
    /// Rounds of a workload whose round takes about `nominal_s` on a
    /// 2-CPU x86-64 host, and at least `min`: the count is fixed by
    /// `--seconds` alone, so every run of one setting does the same work
    /// and takes the same samples.
    pub fn rounds(&self, nominal_s: f64, min: usize) -> usize {
        ((self.seconds as f64 / nominal_s).round() as usize).max(min)
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (kernels, compiles or requests).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// `(name, value)` of every metric the run reports.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra record fields (sample counts, tail percentiles, digest).
    pub record: Vec<(&'static str, Value)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a failed output check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {what}"));
    }
}

/// How a workload's `wall_s` follows from its timings.
pub enum Wall {
    /// Operations run one after another: the sum of their typical times.
    SumOfTypical,
    /// Operations overlap (concurrent clients): the median round's wall
    /// clock, one entry per round.
    MedianRound(Vec<f64>),
}

/// Samples of one timed workload, turned into the end-to-end metrics.
///
/// Each operation counts at its typical time, the median of its timings
/// in the run, each timing corrected to the host's quiet speed where the
/// workload is CPU-bound ([`speed`]). On a shared virtual host one
/// operation's raw timings scatter by a third around that typical level;
/// the median of a few corrected timings spread over the run repeats
/// across runs, where the best timing and a single one did not.
pub struct Timed {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Every timing of each operation, in milliseconds.
    pub op_ms: Vec<Vec<f64>>,
    /// How `wall_s` is taken.
    pub wall: Wall,
    /// Baseline/custom cycle ratio of each (kernel, MDES) pair.
    pub speedups: Vec<f64>,
    /// The host's mean slowdown over the timed operations, raw over
    /// corrected seconds; `None` where they are raw wall clock.
    pub slowdown: Option<f64>,
    /// Peak resident memory while the workload ran, in MB.
    pub peak_rss_mb: f64,
}

impl Timed {
    /// Fills `report` with every end-to-end metric.
    pub fn end_to_end(&self, report: &mut Report) {
        // An operation that never completed has no timing; it counts in
        // `failed`.
        let typical: Vec<f64> = self
            .op_ms
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stats::median(v))
            .collect();
        let wall_s = match &self.wall {
            Wall::SumOfTypical => typical.iter().sum::<f64>() / 1e3,
            Wall::MedianRound(walls) => stats::median(walls),
        };
        let tail = stats::tail(&typical);
        // Sorted, so the geometric mean's rounding does not depend on
        // the seeded order the pairs ran in.
        let mut speedups = self.speedups.clone();
        speedups.sort_by(f64::total_cmp);
        // Reported as the share that succeeded, 1 - failed_share, so the
        // metric is never 0 and a bound relative to its median works.
        let failed_share = if report.attempted == 0 {
            1.0
        } else {
            report.failed as f64 / report.attempted as f64
        };
        let ok_share = 1.0 - failed_share;
        report.metrics.extend([
            ("setup_s", stats::median(&self.setup_s)),
            ("wall_s", wall_s),
            ("p50_ms", stats::median(&typical)),
            ("tail_ms", tail.value),
            ("peak_rss_mb", self.peak_rss_mb),
            ("geomean_speedup", isax_bench::geomean(&speedups)),
            ("ok_share", ok_share),
        ]);
        report.record.extend([
            ("failed_share", Value::Float(failed_share)),
            ("setup_samples", Value::from(self.setup_s.len() as u64)),
            (
                "timings",
                Value::from(self.op_ms.iter().map(|v| v.len() as u64).sum::<u64>()),
            ),
            ("latency_samples", Value::from(tail.samples as u64)),
            ("tail_percentile", Value::Float(tail.percentile)),
            ("tail_beyond", Value::from(tail.beyond as u64)),
            ("speedup_pairs", Value::from(self.speedups.len() as u64)),
            (
                "host_slowdown",
                self.slowdown.map_or(Value::Null, Value::Float),
            ),
        ]);
    }
}

/// Two traced passes of one workload, turned into the per-layer metrics.
pub struct Traced {
    /// The ledgers of the two traced passes.
    pub ledgers: [trace::Ledger; 2],
    /// Wall seconds of the two traced passes.
    pub traced_wall_s: [f64; 2],
    /// Wall seconds of the untraced pass run alongside them.
    pub untraced_wall_s: f64,
    /// Layers the workload design says do no work in the timed phase.
    pub idle_layers: &'static [&'static str],
    /// Layers (each with its sub-layers: `compiler` covers
    /// `compiler.match`) the design says take at least the given share
    /// of the attributed self time.
    pub dominant: Option<(&'static [&'static str], f64)>,
    /// Per-layer metrics measured outside the spans (serve-mixed).
    pub extra: Vec<(&'static str, f64)>,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Traced {
    /// Fills `report` with every per-layer metric, and fails it when
    /// the two passes counted different work.
    pub fn per_layer(&self, report: &mut Report) {
        let [a, b] = &self.ledgers;
        if a.counts != b.counts {
            report.fail(format!(
                "per-layer counts differ between traced passes: {:?} vs {:?}",
                a.counts, b.counts
            ));
        }
        let layer_s = |layer: &str| {
            let get = |l: &trace::Ledger| l.self_s.get(layer).copied().unwrap_or(0.0);
            (get(a) + get(b)) / 2.0
        };
        let n = |name: &str| a.counts.get(name).copied().unwrap_or(0);
        let wall = (self.traced_wall_s[0] + self.traced_wall_s[1]) / 2.0;
        let mut attributed = 0.0;
        for m in &manifest::PER_LAYER {
            let value = if let Some(layer) = m.name.strip_suffix(".self_s") {
                if layer == "other" {
                    wall - attributed
                } else {
                    attributed += layer_s(layer);
                    layer_s(layer)
                }
            } else if let Some(&(_, v)) = self.extra.iter().find(|(k, _)| *k == m.name) {
                v
            } else {
                match m.name {
                    "explore.yield" => ratio(n("explore.recorded"), n("explore.examined")),
                    "compiler.match.yield" => {
                        ratio(n("compiler.match.found"), n("compiler.match.vf2_calls"))
                    }
                    "compiler.prioritize.accept_rate" => ratio(
                        n("compiler.prioritize.accepted"),
                        n("compiler.prioritize.considered"),
                    ),
                    "trace.overhead" => wall / self.untraced_wall_s,
                    name => n(name) as f64,
                }
            };
            report.metrics.push((m.name, value));
        }
        report.notes.push(format!(
            "attributed self time {attributed:.3} s of {wall:.3} s traced wall"
        ));
        let mut shares: Vec<(&str, f64)> = manifest::PER_LAYER
            .iter()
            .filter_map(|m| m.name.strip_suffix(".self_s"))
            .filter(|l| *l != "other")
            .map(|l| (l, layer_s(l)))
            .collect();
        shares.sort_by(|x, y| y.1.total_cmp(&x.1));
        for (l, s) in shares.iter().filter(|(_, s)| *s > 0.0) {
            let share = if attributed > 0.0 {
                s / attributed
            } else {
                0.0
            };
            report
                .notes
                .push(format!("  {l:<22} {s:>10.4} s  {:>5.1}%", 100.0 * share));
        }
        if !self.idle_layers.is_empty() {
            let busy: Vec<&str> = self
                .idle_layers
                .iter()
                .copied()
                .filter(|l| layer_s(l) > 0.0)
                .collect();
            report.notes.push(if busy.is_empty() {
                format!(
                    "prediction held: no work in the timed phase for {}",
                    self.idle_layers.join(", ")
                )
            } else {
                format!("prediction NOT held: {} did work", busy.join(", "))
            });
            report
                .record
                .push(("idle_prediction_held", Value::Bool(busy.is_empty())));
        }
        if let Some((prefixes, predicted)) = self.dominant {
            let share = shares
                .iter()
                .filter(|(l, _)| {
                    prefixes.iter().any(|p| {
                        l.strip_prefix(p)
                            .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
                    })
                })
                .map(|(_, s)| s)
                .sum::<f64>()
                / attributed.max(f64::MIN_POSITIVE);
            let held = share >= predicted;
            report.notes.push(format!(
                "prediction {}: {} take {:.1}% of the attributed self time (predicted >= {:.0}%)",
                if held { "held" } else { "NOT held" },
                prefixes.join(" + "),
                100.0 * share,
                100.0 * predicted
            ));
            report.record.push(("dominant_share", Value::Float(share)));
        }
    }
}

/// What [`timed_loop`] measured.
pub struct Timings {
    /// Each step's milliseconds at the host's quiet speed ([`speed`]).
    pub ms: Vec<f64>,
    /// Their sum in seconds: the measured phase's wall clock at the
    /// quiet speed.
    pub wall_s: f64,
    /// The steps' raw wall-clock seconds.
    pub raw_s: f64,
}

/// Times `step` on each item; `after` receives each result outside the
/// clock (output checks, digests), so the checks neither count in the
/// timings nor keep every result alive.
pub fn timed_loop<I, T>(
    items: impl IntoIterator<Item = I>,
    mut step: impl FnMut(&I) -> T,
    mut after: impl FnMut(&I, T),
) -> Timings {
    let mut gauge = speed::Gauge::default();
    for item in items {
        let t = std::time::Instant::now();
        let out = step(&item);
        gauge.push(t.elapsed().as_secs_f64());
        after(&item, out);
    }
    let (secs, raw_s) = gauge.finish();
    Timings {
        ms: secs.iter().map(|s| s * 1e3).collect(),
        wall_s: secs.iter().sum(),
        raw_s,
    }
}

/// Set-ups per run; `setup_s` reports their median.
pub const SETUPS: usize = 3;

/// Runs [`SETUPS`] set-ups interleaved with `rounds` timed rounds, the
/// first set-up before the first round, so the rounds spread over the
/// run instead of sharing one stretch of host speed. Each round gets the
/// latest set-up and its index. Returns each set-up's seconds at the
/// host's quiet speed ([`speed`]).
pub fn interleaved<S>(
    rounds: usize,
    mut setup: impl FnMut() -> S,
    mut round: impl FnMut(&S, usize),
) -> Vec<f64> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut state = None;
    for r in 0..rounds {
        while secs.len() < ((r + 1) * SETUPS).div_ceil(rounds) {
            let (s, corrected) = speed::timed(&mut setup);
            state = Some(s);
            secs.push(corrected);
        }
        round(state.as_ref().expect("a set-up precedes every round"), r);
    }
    secs
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the seeded stream behind every draw.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over a sequence of byte strings (each length-prefixed): the
/// output digest of a run.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Absorbs one artifact.
    pub fn add(&mut self, bytes: &[u8]) {
        for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hex rendering.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The textual assembly of a compiled program (the CLI's `--emit` form).
pub fn assembly(p: &isax_ir::Program) -> String {
    p.functions
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

/// The repository root this benchmark was built in.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// The checked-out commit, read from `.git` without running git (the
/// benchmark also runs from plain source trees, which have none).
fn commit() -> String {
    let git = std::path::Path::new(ROOT).join(".git");
    let read = |p: &std::path::Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "none (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&git.join(reference))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// FNV-1a digest of every file under `crates/` (paths and contents, in
/// sorted order): identifies the program's source where no commit does.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let root = std::path::Path::new(ROOT);
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut d = Digest::default();
    for f in files {
        d.add(
            f.strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        d.add(&std::fs::read(&f).unwrap_or_default());
    }
    d.hex()
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Host and run record: what a reader needs to judge the numbers.
fn host_record(opts: &Opts) -> Vec<(&'static str, Value)> {
    vec![
        ("workload", Value::from(opts.workload.as_str())),
        ("seed", Value::from(opts.seed)),
        ("seconds", Value::from(opts.seconds)),
        ("trace", Value::Bool(opts.trace)),
        ("nproc", Value::from(isax_bench::host_cpus() as u64)),
        ("rustc", Value::from(command_line("rustc", &["-V"]))),
        (
            "profile",
            Value::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("pipeline_threads", Value::from(1u64)),
        ("server_workers", Value::from(serve::WORKERS as u64)),
        ("commit", Value::from(commit())),
        ("source_digest", Value::from(source_digest())),
    ]
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: manifest::RUN_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

/// Runs the other workloads as child processes, one after another, and
/// succeeds only if each does.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    for w in &manifest::WORKLOADS {
        println!("== {} ==", w.name);
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The values of end-to-end metric `name` in a file of result lines.
fn metric_values(text: &str, name: &str) -> Result<Vec<f64>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let v = isax_json::parse(l).map_err(|e| format!("bad result line: {e}"))?;
            v.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("a result line lacks {name}"))
        })
        .collect()
}

/// `--compare FIRST SECOND`: two files of result lines (one run each,
/// one workload, `--trace 0`), judged metric by metric against the
/// bounds: each set's spread, and how much worse the second median is.
fn compare_files(first: &str, second: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (a, b) = (read(first)?, read(second)?);
    let mut all_ok = true;
    println!(
        "{:<16} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "metric", "median 1", "median 2", "spread 1", "spread 2", "worse by", "bound"
    );
    for m in &manifest::END_TO_END {
        let (x, y) = (metric_values(&a, m.name)?, metric_values(&b, m.name)?);
        if x.len() < 2 || y.len() < 2 {
            return Err("each set needs at least two runs".into());
        }
        let c = stats::compare(&x, &y, m.bound, m.better, m.name != "setup_s");
        all_ok &= c.ok;
        println!(
            "{:<16} {:>12.5} {:>12.5} {:>8.4} {:>8.4} {:>8.4} {:>6}  {}",
            m.name,
            stats::median(&x),
            stats::median(&y),
            c.spread_first,
            c.spread_second,
            c.worse_by,
            m.bound,
            if c.ok { "ok" } else { "FAIL" }
        );
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--manifest"] => {
            println!("{}", manifest::manifest().to_string_pretty());
            return ExitCode::SUCCESS;
        }
        ["--compare", first, second] => {
            return match compare_files(first, second) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("isaxbench: {e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("isaxbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every workload runs its pipeline on one thread: the numbers then
    // do not depend on how many CPUs the host has free.
    isax_graph::par::set_thread_override(Some(1));
    let mut report = match opts.workload.as_str() {
        "all" => return run_all(&opts),
        "customize-corpus" => corpus::run(&opts),
        "compile-cross" => cross::run(&opts),
        "serve-mixed" => serve::run(&opts),
        other => {
            eprintln!("isaxbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    print_report(&opts, &mut report)
}

fn print_report(opts: &Opts, report: &mut Report) -> ExitCode {
    for n in &report.notes {
        println!("{n}");
    }
    let unit = |name: &str| {
        if opts.trace {
            manifest::layer_unit(name)
        } else {
            manifest::end_to_end_unit(name)
        }
    };
    for (name, value) in &report.metrics {
        let moves = manifest::PER_LAYER
            .iter()
            .find(|m| opts.trace && m.name == *name)
            .map_or(String::new(), |m| format!("  -> {}", m.moves));
        println!("{name:<34} {value:>16.6} {:<6}{moves}", unit(name));
    }
    let mut record = host_record(opts);
    record.append(&mut report.record);
    println!("record {}", object(record).to_string_compact());
    let correct = report.failed == 0;
    let metrics = object(report.metrics.iter().map(|(name, value)| {
        (
            *name,
            object([
                ("value", Value::Float(*value)),
                ("unit", Value::from(unit(name))),
            ]),
        )
    }));
    println!(
        "{}",
        object([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::from(report.attempted)),
            ("failed", Value::from(report.failed)),
            ("metrics", metrics),
        ])
        .to_string_compact()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The set-ups a run of `rounds` rounds does before each round.
    fn schedule(rounds: usize) -> Vec<usize> {
        let mut setups = 0;
        let mut seen = Vec::new();
        let secs = interleaved(
            rounds,
            || {
                setups += 1;
                setups
            },
            |&n, _| seen.push(n),
        );
        assert_eq!(secs.len(), SETUPS);
        seen
    }

    #[test]
    fn setups_spread_over_the_rounds() {
        assert_eq!(schedule(1), [3]);
        assert_eq!(schedule(2), [2, 3]);
        assert_eq!(schedule(6), [1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn typical_times_and_their_sum() {
        let mut report = Report {
            attempted: 4,
            failed: 1,
            ..Report::default()
        };
        Timed {
            setup_s: vec![2.0, 1.0, 3.0],
            op_ms: vec![vec![30.0, 10.0], vec![5.0, 7.0], vec![1000.0]],
            wall: Wall::SumOfTypical,
            speedups: vec![2.0, 0.5],
            slowdown: None,
            peak_rss_mb: 40.0,
        }
        .end_to_end(&mut report);
        let get = |n: &str| report.metrics.iter().find(|(m, _)| *m == n).unwrap().1;
        assert_eq!(get("setup_s"), 2.0);
        assert_eq!(get("peak_rss_mb"), 40.0);
        assert!((get("wall_s") - 1.026).abs() < 1e-12);
        assert_eq!(get("p50_ms"), 20.0);
        assert_eq!(get("tail_ms"), 1000.0);
        assert!((get("geomean_speedup") - 1.0).abs() < 1e-12);
        assert_eq!(get("ok_share"), 0.75);
    }

    #[test]
    fn seeded_streams_repeat_and_differ() {
        let draw = |seed, stream| {
            let mut v: Vec<usize> = (0..50).collect();
            Rng::new(seed, stream).shuffle(&mut v);
            v
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        let mut sorted = draw(7, 3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
