//! Serve-layer load generator: N concurrent clients against an
//! in-process `isax serve` instance over the extended corpus.
//!
//! Each client replays the corpus `ISAX_LOADGEN_ROUNDS` times (so every
//! round after a kernel's first service is a content-addressed cache
//! hit), measuring client-side latency per request. Writes
//! `BENCH_serve.json` with throughput, histogram-derived
//! p50/p90/p99/p999 latency, p50/p99 of cache hits and of misses apart
//! (so the hit rate cannot hide pipeline cost), the full client-latency
//! and server queue-wait histograms, the cache hit rate, and the same
//! `oversubscribed` flag `BENCH_pipeline.json` carries — on a host
//! where workers outnumber CPUs the throughput numbers demonstrate
//! determinism and caching, not parallel scaling, and the report says
//! so. Percentiles come from the mergeable log-bucketed
//! [`isax_trace::Hist`]; the exact sorted samples are kept only to
//! assert the histogram's documented error bound on every run.
//!
//! Knobs (all optional):
//!
//! * `ISAX_LOADGEN_CLIENTS` — concurrent clients (default 4);
//! * `ISAX_LOADGEN_ROUNDS` — corpus replays per client (default 2);
//! * `ISAX_LOADGEN_KERNELS` — corpus prefix length (default: all).
//!
//! Sanity gates (exit status is the CI signal): zero request errors,
//! zero uncounted requests (`received == completed + Σ per-code
//! errors`), the histogram quantile bound against exact-sort, and a
//! cache hit rate within tolerance of the blessed baseline in
//! `results/loadgen_baseline.json`. Re-bless an intentional change with
//! `ISAX_BLESS=1 loadgen` and commit the new baseline.

#![forbid(unsafe_code)]

use isax_bench::{extended_corpus, host_cpus, oversubscribed, HEADLINE_BUDGET};
use isax_graph::par::thread_count;
use isax_serve::{Client, EnvMode, Request, ServeConfig, Server};
use isax_trace::hist::{ABS_ERR_SLACK, REL_ERR_BOUND_E9};
use isax_trace::Hist;
use std::time::Instant;

const BASELINE: &str = "results/loadgen_baseline.json";
/// Allowed hit-rate drift before the gate trips. The hit rate is almost
/// deterministic — `(requests - kernels) / requests` — but concurrent
/// cold misses on one key can each count as a miss, so the gate keeps
/// a small margin.
const HIT_RATE_TOLERANCE: f64 = 0.05;

fn env_usize(key: &str, default: usize) -> usize {
    match std::env::var(key) {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{key} must be a positive integer, got `{v}`")),
        Err(_) => default,
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Renders a histogram as JSON: exact aggregates plus the non-empty
/// buckets as `{lo, hi, count}` (hi is the exclusive upper boundary).
fn hist_json(h: &Hist) -> isax_json::Value {
    let buckets: Vec<isax_json::Value> = h
        .nonzero_buckets()
        .map(|(idx, count)| {
            isax_json::object([
                (
                    "lo",
                    isax_json::Value::from(isax_trace::hist::bucket_lower(idx)),
                ),
                ("hi", isax_trace::hist::bucket_upper(idx).into()),
                ("count", count.into()),
            ])
        })
        .collect();
    isax_json::object([
        ("count", isax_json::Value::from(h.count())),
        ("sum", h.sum().into()),
        ("min", h.min().into()),
        ("max", h.max().into()),
        ("buckets", isax_json::Value::Array(buckets)),
    ])
}

/// Asserts the histogram estimate for quantile `q` agrees with the
/// exact sorted value to within the documented bound — the same pure
/// integer inequality `tests/hist.rs` proves by property testing.
fn assert_quantile_bound(h: &Hist, sorted_us: &[u64], q: f64) {
    let rank = isax_trace::hist::quantile_rank(q, sorted_us.len() as u64) as usize;
    let exact = sorted_us[rank - 1];
    let est = h.quantile(q);
    assert!(
        est <= exact,
        "hist q{q}: estimate {est} exceeds exact {exact}"
    );
    let gap = u128::from(exact - est) * 1_000_000_000;
    let allowed = u128::from(est) * REL_ERR_BOUND_E9 + ABS_ERR_SLACK * 1_000_000_000;
    assert!(
        gap <= allowed,
        "hist q{q}: exact={exact} est={est} violates the relative-error bound"
    );
}

fn main() {
    let clients = env_usize("ISAX_LOADGEN_CLIENTS", 4);
    let rounds = env_usize("ISAX_LOADGEN_ROUNDS", 2);
    let corpus = extended_corpus();
    let kernels = env_usize("ISAX_LOADGEN_KERNELS", corpus.len()).min(corpus.len());
    assert!(clients > 0 && rounds > 0 && kernels > 0);

    // Pre-render each kernel once: (name, text, work budget).
    let requests: Vec<(String, String, Option<u64>)> = corpus[..kernels]
        .iter()
        .map(|k| {
            let text = k
                .program
                .functions
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n");
            (k.name.clone(), text, k.work_budget)
        })
        .collect();

    let workers = thread_count();
    let server = Server::spawn(ServeConfig {
        workers,
        stats: EnvMode::Off,
        ..ServeConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr();
    eprintln!(
        "loadgen: {clients} client(s) x {rounds} round(s) x {kernels} kernel(s), \
         {workers} worker(s)"
    );

    let t0 = Instant::now();
    // Per client, per request: latency in µs, and whether the reply
    // was a cache hit (`None` when the request failed).
    let per_client: Vec<Vec<(u64, Option<bool>)>> = std::thread::scope(|scope| {
        let requests = &requests;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let mut latencies_us = Vec::with_capacity(rounds * requests.len());
                    for _ in 0..rounds {
                        // Offset each client's walk so cold misses spread
                        // across the corpus instead of piling on one key.
                        for i in 0..requests.len() {
                            let (name, text, work) = &requests[(i + c) % requests.len()];
                            let t = Instant::now();
                            let outcome = client.artifacts(Request::Customize {
                                kernel: text.clone(),
                                name: name.clone(),
                                budget: HEADLINE_BUDGET,
                                multifunction: false,
                                work_budget: *work,
                            });
                            let us = t.elapsed().as_micros() as u64;
                            match outcome {
                                Ok((cached, art)) => {
                                    assert!(art.mdes.is_some());
                                    latencies_us.push((us, Some(cached)));
                                }
                                Err(e) => {
                                    eprintln!("loadgen: {name}: {e}");
                                    latencies_us.push((us, None));
                                }
                            }
                        }
                    }
                    latencies_us
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = per_client
        .iter()
        .flat_map(|l| l.iter().map(|&(us, _)| us))
        .collect();
    let errors = per_client
        .iter()
        .flatten()
        .filter(|(_, c)| c.is_none())
        .count() as u64;
    latencies.sort_unstable();
    let total_requests = latencies.len() as u64;

    // Merge per-client histograms exactly as a sharded collector would;
    // the merge algebra makes this equal to one big histogram.
    let latency_hist = {
        let mut h = Hist::new();
        for client_lat in &per_client {
            let mut shard = Hist::new();
            for &(us, _) in client_lat {
                shard.record(us);
            }
            h.merge(&shard);
        }
        h
    };
    // Hits and misses apart: a miss runs the pipeline, a hit only the
    // wire and the cache.
    let split_hist = |want: bool| {
        let mut h = Hist::new();
        for &(us, cached) in per_client.iter().flatten() {
            if cached == Some(want) {
                h.record(us);
            }
        }
        h
    };
    let (hit_hist, miss_hist) = (split_hist(true), split_hist(false));

    let stats = server.stats_value();
    let server_hists = server.hists();
    server.shutdown();
    let cache = stats.get("cache").expect("stats.cache");
    let hit_rate = cache
        .get("hit_rate")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    let hits = cache.get("hits").and_then(|v| v.as_u64()).unwrap_or(0);
    let misses = cache.get("misses").and_then(|v| v.as_u64()).unwrap_or(0);
    let entries = cache.get("entries").and_then(|v| v.as_u64()).unwrap_or(0);

    let cpus = host_cpus();
    let oversub = oversubscribed(workers.max(clients), cpus);
    let doc = isax_json::object([
        ("clients", isax_json::Value::from(clients as u64)),
        ("rounds", (rounds as u64).into()),
        ("kernels", (kernels as u64).into()),
        ("workers", (workers as u64).into()),
        ("budget", HEADLINE_BUDGET.into()),
        ("host_cpus", (cpus as u64).into()),
        // Same contract as BENCH_pipeline.json: when set, throughput
        // demonstrates determinism and caching, not parallel scaling.
        ("oversubscribed", oversub.into()),
        ("requests", total_requests.into()),
        ("errors", errors.into()),
        ("wall_s", wall_s.into()),
        (
            "throughput_rps",
            (total_requests as f64 / wall_s.max(1e-9)).into(),
        ),
        ("p50_us", latency_hist.quantile(0.50).into()),
        ("p90_us", latency_hist.quantile(0.90).into()),
        ("p99_us", latency_hist.quantile(0.99).into()),
        ("p999_us", latency_hist.quantile(0.999).into()),
        ("hit_p50_us", hit_hist.quantile(0.50).into()),
        ("hit_p99_us", hit_hist.quantile(0.99).into()),
        ("miss_p50_us", miss_hist.quantile(0.50).into()),
        ("miss_p99_us", miss_hist.quantile(0.99).into()),
        ("latency_hist", hist_json(&latency_hist)),
        ("queue_wait_hist", hist_json(&server_hists.queue_wait_us)),
        (
            "cache",
            isax_json::object([
                ("entries", isax_json::Value::from(entries)),
                ("hits", hits.into()),
                ("misses", misses.into()),
                ("hit_rate", hit_rate.into()),
            ]),
        ),
    ]);
    let rendered = {
        let mut s = doc.to_string_pretty();
        s.push('\n');
        s
    };
    std::fs::write("BENCH_serve.json", &rendered).expect("write BENCH_serve.json");
    println!("{rendered}");

    if oversub {
        eprintln!(
            "loadgen: {total_requests} requests in {wall_s:.2}s with {workers} worker(s) on \
             {cpus} CPU(s) — oversubscribed, so throughput demonstrates determinism and \
             caching, not parallel scaling"
        );
    } else {
        eprintln!(
            "loadgen: {total_requests} requests in {wall_s:.2}s \
             ({:.1} req/s, p50 {}us, p99 {}us)",
            total_requests as f64 / wall_s.max(1e-9),
            percentile(&latencies, 0.50),
            percentile(&latencies, 0.99),
        );
    }

    // Gate 1: every request must succeed.
    assert_eq!(errors, 0, "loadgen saw {errors} request error(s)");
    // Gate 1b: zero uncounted requests — everything the server received
    // is either completed or attributed to exactly one error code.
    let req = stats.get("requests").expect("stats.requests");
    let received = req.get("received").and_then(|v| v.as_u64()).unwrap_or(0);
    let completed = req.get("completed").and_then(|v| v.as_u64()).unwrap_or(0);
    let by_code_sum: u64 = match req.get("by_code") {
        Some(isax_json::Value::Object(pairs)) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
        _ => panic!("stats.requests.by_code missing"),
    };
    assert_eq!(
        received,
        completed + by_code_sum,
        "uncounted requests: received {received} != completed {completed} + errors {by_code_sum}"
    );
    // Gate 1c: histogram percentiles agree with exact-sort to within
    // the documented bucket error bound.
    for q in [0.50, 0.90, 0.99, 0.999] {
        assert_quantile_bound(&latency_hist, &latencies, q);
    }
    // Gate 2: the cache must actually serve repeats.
    let expected_hit_rate =
        (total_requests.saturating_sub(entries)) as f64 / (total_requests as f64).max(1.0);
    assert!(
        hit_rate > 0.0,
        "no cache hits across {rounds} round(s) — content addressing is broken"
    );

    // Gate 3: the blessed baseline (hit rate within tolerance, at the
    // blessed knob configuration).
    let baseline_doc = isax_json::object([
        ("clients", isax_json::Value::from(clients as u64)),
        ("rounds", (rounds as u64).into()),
        ("kernels", (kernels as u64).into()),
        ("hit_rate", hit_rate.into()),
    ]);
    if std::env::var("ISAX_BLESS").is_ok_and(|v| v == "1") {
        let mut s = baseline_doc.to_string_pretty();
        s.push('\n');
        std::fs::write(BASELINE, &s).expect("write baseline");
        eprintln!("blessed {BASELINE}");
        return;
    }
    let text = std::fs::read_to_string(BASELINE).unwrap_or_else(|e| {
        panic!("{BASELINE}: {e}\nrun with ISAX_BLESS=1 to generate the baseline")
    });
    let base = isax_json::parse(&text).expect("baseline parses");
    let knobs_match = ["clients", "rounds", "kernels"].iter().all(|k| {
        base.get(k).and_then(|v| v.as_u64()) == baseline_doc.get(k).and_then(|v| v.as_u64())
    });
    if !knobs_match {
        eprintln!(
            "loadgen: knob configuration differs from the blessed baseline — \
             skipping the hit-rate gate (hit rate {hit_rate:.3}, expected ~{expected_hit_rate:.3})"
        );
        return;
    }
    let base_hit_rate = base
        .get("hit_rate")
        .and_then(|v| v.as_f64())
        .expect("baseline hit_rate");
    assert!(
        hit_rate >= base_hit_rate - HIT_RATE_TOLERANCE,
        "cache hit rate regressed: {hit_rate:.3} vs blessed {base_hit_rate:.3} — \
         re-bless with ISAX_BLESS=1 if intentional"
    );
    eprintln!("loadgen OK: hit rate {hit_rate:.3} (blessed {base_hit_rate:.3})");
}
