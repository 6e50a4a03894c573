//! The benchmark's definition: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics with the end-to-end metric each one
//! should move. `BENCHMARK.json` at the repository root is rendered from
//! these tables (`isaxbench --manifest`), and a test keeps the two in
//! step.

use crate::stats::Better;
use isax_json::{array, object, Value};

/// Seconds one run measures; also sets each workload's round count.
pub const RUN_SECONDS: u64 = 10;

/// A workload and why it was chosen.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it is in the benchmark (one line).
    pub why: &'static str,
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "customize-corpus",
        why: "Analyze, select and evaluate all 29 corpus kernels at 1 thread: explore and subsume do ~90% of the work, so hardware-compiler gains show here and back-end gains should not",
    },
    WorkloadDef {
        name: "compile-cross",
        why: "Every non-stress kernel compiled against every one's MDES, exact and generalized, in seeded order (Figs. 8/9): only the compiler layers work when timed, so back-end gains show here",
    },
    WorkloadDef {
        name: "serve-mixed",
        why: "Closed loop, 2 clients, fresh 2-worker server: seeded order of customize+compile keys, each misses once then hits 4 times, so p50_ms times the socket+cache path and tail_ms the pipeline",
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, reported on every workload (measured with
/// tracing off). The times carry the largest bound allowed, 0.25: on a
/// 2-CPU x86-64 virtual host the same code ran up to 1.5 times slower
/// for stretches from seconds to minutes, so runs of one code spread by
/// up to 0.27 (inter-quartile range over median) in raw wall time.
/// customize-corpus and compile-cross times are corrected to the host's
/// quiet speed (`speed.rs`), which brings that to about 0.03; set-up
/// times are corrected on every workload; serve-mixed's request times
/// stay raw, since they mostly wait on the wire's timers. Memory and the
/// output metrics repeat closely and carry tight bounds.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("p50_ms", "ms", Better::Lower, 0.25),
    e2e("tail_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
    e2e("geomean_speedup", "x", Better::Higher, 0.02),
    e2e("ok_share", "ratio", Better::Higher, 0.01),
];

/// A per-layer metric (traced runs only) and the end-to-end metric it
/// should move, on which workload.
pub struct LayerMetric {
    /// `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metric and workload a change here should move.
    pub moves: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const IR_CC: &str = "wall_s on customize-corpus (<1%)";
const EXPLORE: &str =
    "wall_s on customize-corpus (~46%); tail_ms on serve-mixed; only setup_s on compile-cross";
const SUBSUME: &str =
    "wall_s on customize-corpus (~44%, mostly wide_fanout); tail_ms on serve-mixed";
const SELECT_CC: &str = "wall_s on customize-corpus";
const MATCH: &str = "wall_s, tail_ms on compile-cross";
const CROSS_P50: &str = "wall_s, p50_ms on compile-cross";
const CROSS: &str = "wall_s on compile-cross";
const SERVE_P50: &str = "p50_ms on serve-mixed";
const SERVE_TAIL: &str = "tail_ms on serve-mixed";

/// The per-layer metrics. Layers a workload does not run in its timed
/// phase read 0 there; that is the workload design's prediction, and
/// the traced run reports whether it held.
pub const PER_LAYER: [LayerMetric; 50] = [
    lm("ir.dfgs.self_s", "s", Lower, IR_CC),
    lm("ir.dfgs.calls", "count", Lower, IR_CC),
    lm("ir.dfgs.nodes", "count", Lower, IR_CC),
    lm("ir.dataflow.self_s", "s", Lower, IR_CC),
    lm("ir.dataflow.iterations", "count", Lower, IR_CC),
    lm("ir.dataflow.widenings", "count", Lower, IR_CC),
    lm("explore.self_s", "s", Lower, EXPLORE),
    lm("explore.examined", "count", Lower, EXPLORE),
    lm("explore.recorded", "count", Lower, EXPLORE),
    lm("explore.yield", "ratio", Higher, EXPLORE),
    lm("explore.degradations", "count", Lower, EXPLORE),
    lm(
        "select.combine.self_s",
        "s",
        Lower,
        "wall_s, peak_rss_mb on customize-corpus",
    ),
    lm(
        "select.combine.cfu_candidates",
        "count",
        Lower,
        "wall_s, peak_rss_mb on customize-corpus",
    ),
    lm("select.subsume.self_s", "s", Lower, SUBSUME),
    lm("select.subsume.edges", "count", Lower, SUBSUME),
    lm("select.wildcards.self_s", "s", Lower, SELECT_CC),
    lm("select.wildcards.edges", "count", Lower, SELECT_CC),
    lm(
        "select.greedy.self_s",
        "s",
        Lower,
        "wall_s on customize-corpus (~3%)",
    ),
    lm(
        "select.greedy.cfus_selected",
        "count",
        Higher,
        "wall_s on customize-corpus (~3%)",
    ),
    lm("compiler.baseline.self_s", "s", Lower, CROSS_P50),
    lm("compiler.baseline.calls", "count", Lower, CROSS_P50),
    lm("compiler.match.self_s", "s", Lower, MATCH),
    lm("compiler.match.vf2_calls", "count", Lower, MATCH),
    lm("compiler.match.prefilter_skips", "count", Higher, MATCH),
    lm("compiler.match.found", "count", Higher, MATCH),
    lm("compiler.match.yield", "ratio", Higher, MATCH),
    lm("compiler.prioritize.self_s", "s", Lower, CROSS),
    lm("compiler.prioritize.accepted", "count", Higher, CROSS),
    lm("compiler.prioritize.accept_rate", "ratio", Higher, CROSS),
    lm("compiler.replace.self_s", "s", Lower, CROSS),
    lm("compiler.replace.applied", "count", Higher, CROSS),
    lm("compiler.schedule.self_s", "s", Lower, CROSS_P50),
    lm("compiler.schedule.functions", "count", Lower, CROSS_P50),
    lm("compiler.schedule.spills", "count", Lower, CROSS_P50),
    lm("serve.wire.hit_p50_ms", "ms", Lower, SERVE_P50),
    lm("serve.wire.hit_tail_ms", "ms", Lower, SERVE_P50),
    lm("serve.wire.bytes_out", "bytes", Lower, SERVE_P50),
    lm("serve.queue.wait_p50_ms", "ms", Lower, SERVE_TAIL),
    lm("serve.queue.wait_tail_ms", "ms", Lower, SERVE_TAIL),
    lm("serve.stages.parse_s", "s", Lower, SERVE_P50),
    lm("serve.stages.analyze_s", "s", Lower, SERVE_TAIL),
    lm("serve.stages.select_s", "s", Lower, SERVE_TAIL),
    lm("serve.stages.evaluate_s", "s", Lower, SERVE_TAIL),
    lm("serve.cache.hits", "count", Higher, "wall_s on serve-mixed"),
    lm(
        "serve.cache.misses",
        "count",
        Lower,
        "wall_s on serve-mixed",
    ),
    lm(
        "serve.cache.hit_rate",
        "ratio",
        Higher,
        "wall_s on serve-mixed",
    ),
    lm("serve.miss.miss_p50_ms", "ms", Lower, SERVE_TAIL),
    lm("serve.miss.miss_tail_ms", "ms", Lower, SERVE_TAIL),
    lm(
        "other.self_s",
        "s",
        Lower,
        "wall_s on every workload (time no layer span covers)",
    ),
    lm(
        "trace.overhead",
        "ratio",
        Lower,
        "none: traced wall_s over untraced wall_s",
    ),
];

/// Unit of a per-layer metric.
pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or_else(|| panic!("unknown per-layer metric {name}"), |m| m.unit)
}

/// Unit of an end-to-end metric.
pub fn end_to_end_unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map_or_else(|| panic!("unknown end-to-end metric {name}"), |m| m.unit)
}

/// The `BENCHMARK.json` document.
pub fn manifest() -> Value {
    let s = |x: &str| Value::from(x);
    object([
        (
            "command",
            array(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "isaxbench/Cargo.toml",
                    "--",
                ]
                .map(s),
            ),
        ),
        ("paths", array([s("isaxbench")])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            array(
                WORKLOADS
                    .iter()
                    .map(|w| object([("name", s(w.name)), ("why", s(w.why))])),
            ),
        ),
        (
            "end_to_end",
            array(END_TO_END.iter().map(|m| {
                object([
                    ("name", s(m.name)),
                    ("unit", s(m.unit)),
                    ("better", s(m.better.as_str())),
                    ("bound", Value::Float(m.bound)),
                ])
            })),
        ),
        (
            "per_layer",
            array(PER_LAYER.iter().map(|m| {
                object([
                    ("name", s(m.name)),
                    ("unit", s(m.unit)),
                    ("better", s(m.better.as_str())),
                ])
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric or workload name");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_manifest_is_rendered_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert_eq!(
            committed.trim_end(),
            manifest().to_string_pretty(),
            "regenerate BENCHMARK.json with `isaxbench --manifest`"
        );
    }
}
