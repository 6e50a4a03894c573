//! `serve-mixed`: a closed loop of two client connections against a
//! fresh in-process `isax serve` server with two workers.
//!
//! Each round asks for 50 keys: a customize request for every
//! non-stress kernel, and a compile request for each against its own
//! MDES. Every key is sent once, in seeded order, and only after all of
//! those finish is each key repeated four times, in seeded order: the
//! first request of a key misses the cache and runs the pipeline, the
//! repeats hit it, and the hit count is the same on every run.

use crate::{interleaved, stats, trace, Digest, Opts, Report, Rng, Timed, Traced, Wall};
use isax::{Customizer, MatchMode, MatchOptions};
use isax_bench::{extended_corpus, HEADLINE_BUDGET};
use isax_serve::{
    encode_response, Artifacts, Client, EnvMode, Reply, Request, Response, ServeConfig, Server,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Server worker threads.
pub const WORKERS: usize = 2;

/// Client connections (one thread each, one request in flight each).
const CLIENTS: usize = 2;

/// Requests per key and round: one miss, then hits.
const SENDS_PER_KEY: usize = 5;

/// Seconds one round takes on a 2-CPU x86-64 host.
const NOMINAL_ROUND_S: f64 = 12.5;

/// A kernel the requests name: its source text and its MDES.
struct Kernel {
    name: String,
    text: String,
    /// The customize reply the library path gives (MDES + prov report).
    customized: Artifacts,
}

/// Builds the request texts and, through the library with provenance
/// on (as the server runs), every kernel's MDES and customize artifacts.
fn setup() -> Vec<Kernel> {
    let _prov = isax_prov::enable();
    extended_corpus()
        .into_iter()
        .filter(|k| k.domain != "stress")
        .map(|k| {
            let text = crate::assembly(&k.program);
            let program = isax_ir::parse_program(&text).expect("printed kernels parse");
            let cz = Customizer::new();
            let analysis = cz.analyze(&program);
            let (mdes, sel) = cz.select(&k.name, &analysis, HEADLINE_BUDGET);
            let mut log = analysis.prov.clone();
            log.merge(sel.prov.clone());
            let mut prov = isax::build_report(&k.name, &log).to_string_pretty();
            prov.push('\n');
            Kernel {
                name: k.name,
                text,
                customized: Artifacts {
                    mdes: Some(mdes.to_json().expect("MDES serializes")),
                    prov: Some(prov),
                    ..Artifacts::default()
                },
            }
        })
        .collect()
}

/// One cache key.
#[derive(Debug, Clone, Copy)]
enum Key {
    Customize(usize),
    Compile {
        target: usize,
        mdes: usize,
        generalized: bool,
    },
}

/// The keys: each kernel is customized, and compiled with generalized
/// matching against its own MDES — the customize-then-compile flow of a
/// build tool. The seed orders the requests (see [`round`]); the key set
/// is fixed, so every seed does the same pipeline work.
fn keys(kernels: &[Kernel]) -> Vec<Key> {
    (0..kernels.len())
        .map(Key::Customize)
        .chain((0..kernels.len()).map(|target| Key::Compile {
            target,
            mdes: target,
            generalized: true,
        }))
        .collect()
}

fn request(kernels: &[Kernel], key: Key) -> Request {
    match key {
        Key::Customize(i) => Request::Customize {
            kernel: kernels[i].text.clone(),
            name: kernels[i].name.clone(),
            budget: HEADLINE_BUDGET,
            multifunction: false,
            work_budget: None,
        },
        Key::Compile {
            target,
            mdes,
            generalized,
        } => Request::Compile {
            kernel: kernels[target].text.clone(),
            name: kernels[target].name.clone(),
            mdes: kernels[mdes]
                .customized
                .mdes
                .clone()
                .expect("customize emits an MDES"),
            subsumed: generalized,
            wildcard: generalized,
            work_budget: None,
        },
    }
}

/// The compile artifacts the library path gives for `key`.
fn compiled(kernels: &[Kernel], target: usize, mdes: usize, generalized: bool) -> Artifacts {
    let program = isax_ir::parse_program(&kernels[target].text).expect("printed kernels parse");
    let mdes = isax::Mdes::from_json(kernels[mdes].customized.mdes.as_deref().unwrap_or(""))
        .expect("MDES parses");
    let matching = MatchOptions {
        mode: if generalized {
            MatchMode::Wildcard
        } else {
            MatchMode::Exact
        },
        allow_subsumed: generalized,
    };
    let ev = Customizer::new().evaluate(&program, &mdes, matching);
    let mut prov = isax::build_report(&kernels[target].name, &ev.compiled.prov).to_string_pretty();
    prov.push('\n');
    Artifacts {
        assembly: Some(crate::assembly(&ev.compiled.program)),
        prov: Some(prov),
        baseline_cycles: Some(ev.baseline_cycles),
        custom_cycles: Some(ev.custom_cycles),
        ..Artifacts::default()
    }
}

/// The library path's artifacts for every key (provenance on).
fn references(kernels: &[Kernel], keys: &[Key]) -> Vec<Artifacts> {
    let _prov = isax_prov::enable();
    keys.iter()
        .map(|&k| match k {
            Key::Customize(i) => kernels[i].customized.clone(),
            Key::Compile {
                target,
                mdes,
                generalized,
            } => compiled(kernels, target, mdes, generalized),
        })
        .collect()
}

/// One reply as the client saw it.
struct Sample {
    key: usize,
    /// `key * SENDS_PER_KEY + n` for the key's `n`-th request: the same
    /// request in every round.
    slot: usize,
    ms: f64,
    cached: bool,
}

/// What one round measured.
struct Round {
    wall_s: f64,
    samples: Vec<Sample>,
    /// The first reply of each key (compared with the library path).
    first: Vec<Option<Artifacts>>,
    failures: Vec<String>,
    hists: isax_serve::HistSet,
    stats: isax_json::Value,
}

/// Sends `order` (`(key, slot)` pairs) over the clients, closed loop.
fn phase(
    clients: &mut [Client],
    kernels: &[Kernel],
    keys: &[Key],
    order: &[(usize, usize)],
    first: &Mutex<Vec<Option<Artifacts>>>,
) -> (Vec<Sample>, Vec<String>) {
    let cursor = AtomicUsize::new(0);
    let out = Mutex::new((Vec::new(), Vec::new()));
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (cursor, out) = (&cursor, &out);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(key, slot)) = order.get(i) else {
                    break;
                };
                let req = request(kernels, keys[key]);
                let t = Instant::now();
                let reply = client.artifacts(req);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let mut out = out.lock().expect("sample lock");
                match reply {
                    Err(e) => out.1.push(format!("key {key}: wire error {e:?}")),
                    Ok((cached, artifacts)) => {
                        out.0.push(Sample {
                            key,
                            slot,
                            ms,
                            cached,
                        });
                        let mut first = first.lock().expect("first-reply lock");
                        match &first[key] {
                            None => first[key] = Some(artifacts),
                            Some(a) if *a != artifacts => {
                                out.1.push(format!(
                                    "key {key}: a repeat differs from the first reply"
                                ));
                            }
                            Some(_) => {}
                        }
                    }
                }
            });
        }
    });
    out.into_inner().expect("sample lock")
}

fn round(kernels: &[Kernel], keys: &[Key], seed: u64, r: usize) -> Round {
    let server = Server::spawn(ServeConfig {
        workers: WORKERS,
        stats: EnvMode::Off,
        access_log: EnvMode::Off,
        ..ServeConfig::default()
    })
    .expect("bind a loopback port");
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).expect("connect to the server"))
        .collect();
    let mut rng = Rng::new(seed, 0x0DE5 + r as u64);
    let mut cold: Vec<(usize, usize)> = (0..keys.len()).map(|k| (k, k * SENDS_PER_KEY)).collect();
    rng.shuffle(&mut cold);
    let mut warm: Vec<usize> = (0..keys.len())
        .flat_map(|k| std::iter::repeat_n(k, SENDS_PER_KEY - 1))
        .collect();
    rng.shuffle(&mut warm);
    let mut sends = vec![0; keys.len()];
    let warm: Vec<(usize, usize)> = warm
        .into_iter()
        .map(|k| {
            sends[k] += 1;
            (k, k * SENDS_PER_KEY + sends[k])
        })
        .collect();

    let first = Mutex::new(vec![None; keys.len()]);
    let t0 = Instant::now();
    let (mut samples, mut failures) = phase(&mut clients, kernels, keys, &cold, &first);
    let (s2, f2) = phase(&mut clients, kernels, keys, &warm, &first);
    let wall_s = t0.elapsed().as_secs_f64();
    samples.extend(s2);
    failures.extend(f2);
    drop(clients);
    let hists = server.hists();
    let stats = server.stats_value();
    server.shutdown();
    Round {
        wall_s,
        samples,
        first: first.into_inner().expect("first-reply lock"),
        failures,
        hists,
        stats,
    }
}

fn stat(v: &isax_json::Value, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(isax_json::Value::as_u64)
        .unwrap_or(0)
}

/// Checks a round's replies and counters; returns its output digest.
fn check(round: &Round, refs: &[Artifacts], report: &mut Report) -> Digest {
    report.attempted += (round.first.len() * SENDS_PER_KEY) as u64;
    for f in &round.failures {
        report.fail(f.clone());
    }
    let mut digest = Digest::default();
    for (key, (got, want)) in round.first.iter().zip(refs).enumerate() {
        match got {
            Some(a) if a == want => {}
            Some(_) => report.fail(format!(
                "key {key}: served artifacts differ from the library path"
            )),
            None => report.fail(format!("key {key}: never answered")),
        }
        if let Some(a) = got {
            for field in [&a.mdes, &a.assembly, &a.prov].into_iter().flatten() {
                digest.add(field.as_bytes());
            }
        }
    }
    let s = &round.stats;
    let received = stat(s, &["requests", "received"]);
    let completed = stat(s, &["requests", "completed"]);
    let errors: u64 = s
        .get("requests")
        .and_then(|r| r.get("by_code"))
        .and_then(isax_json::Value::as_object)
        .map_or(0, |codes| {
            codes.iter().filter_map(|(_, n)| n.as_u64()).sum()
        });
    if received != completed + errors {
        report.fail(format!(
            "received {received} != completed {completed} + errors {errors}"
        ));
    }
    digest
}

fn speedups(refs: &[Artifacts]) -> Vec<f64> {
    refs.iter()
        .filter_map(|a| Some(a.baseline_cycles? as f64 / a.custom_cycles?.max(1) as f64))
        .collect()
}

/// Reply bytes the clients read, less the ids' digits (which client
/// sends a request, and so its id, varies).
fn bytes_out(round: &Round) -> u64 {
    round
        .samples
        .iter()
        .filter_map(|s| {
            let artifacts = round.first[s.key].clone()?;
            let reply = Reply::Artifacts {
                cached: s.cached,
                artifacts,
            };
            Some(encode_response(&Response { id: 0, reply }).len() as u64 + 1)
        })
        .sum()
}

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

/// The per-layer serve metrics of two traced rounds (times averaged;
/// counts go to the ledgers, which must agree).
fn serve_layers(rounds: &[Round]) -> Vec<(&'static str, f64)> {
    let mut e2e = isax_trace::Hist::new();
    let mut queue = isax_trace::Hist::new();
    let mut stage_us = std::collections::BTreeMap::new();
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    for r in rounds {
        e2e.merge(&r.hists.e2e_us);
        queue.merge(&r.hists.queue_wait_us);
        for (k, h) in &r.hists.stages {
            *stage_us.entry(*k).or_insert(0u64) += h.sum();
        }
        for s in &r.samples {
            if s.cached { &mut hit_ms } else { &mut miss_ms }.push(s.ms);
        }
    }
    let n = rounds.len() as f64;
    let server_p50 = ms(e2e.quantile(0.5));
    // Just under the tail rank, so the histogram's ceil(q * n) lands on it.
    let n_queued = queue.count().max(1) as usize;
    let queue_tail = (stats::tail_rank(n_queued) as f64 - 0.5) / n_queued as f64;
    let stage_s = |k: &str| stage_us.get(k).copied().unwrap_or(0) as f64 / 1e6 / n;
    vec![
        ("serve.wire.hit_p50_ms", stats::median(&hit_ms) - server_p50),
        (
            "serve.wire.hit_tail_ms",
            stats::tail(&hit_ms).value - server_p50,
        ),
        ("serve.queue.wait_p50_ms", ms(queue.quantile(0.5))),
        ("serve.queue.wait_tail_ms", ms(queue.quantile(queue_tail))),
        ("serve.stages.parse_s", stage_s("parse")),
        ("serve.stages.analyze_s", stage_s("analyze")),
        ("serve.stages.select_s", stage_s("select")),
        ("serve.stages.evaluate_s", stage_s("evaluate")),
        (
            "serve.cache.hit_rate",
            hit_ms.len() as f64 / (hit_ms.len() + miss_ms.len()) as f64,
        ),
        ("serve.miss.miss_p50_ms", stats::median(&miss_ms)),
        ("serve.miss.miss_tail_ms", stats::tail(&miss_ms).value),
    ]
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut digest = Digest::default();
    let mut n_keys = 0;
    if opts.trace {
        let kernels = setup();
        let keys = keys(&kernels);
        n_keys = keys.len();
        let refs = references(&kernels, &keys);
        let untraced = round(&kernels, &keys, opts.seed, 0);
        let mut traced = Vec::new();
        let mut ledgers = Vec::new();
        for r in 1..=2 {
            trace::start();
            let t = round(&kernels, &keys, opts.seed, r);
            trace::count("serve.cache.hits", stat(&t.stats, &["cache", "hits"]));
            trace::count("serve.cache.misses", stat(&t.stats, &["cache", "misses"]));
            trace::count("serve.wire.bytes_out", bytes_out(&t));
            ledgers.push(trace::finish());
            traced.push(t);
        }
        for r in std::iter::once(&untraced).chain(&traced) {
            digest = check(r, &refs, &mut report);
        }
        let [l1, l2]: [trace::Ledger; 2] = ledgers.try_into().expect("two traced rounds");
        Traced {
            ledgers: [l1, l2],
            traced_wall_s: [traced[0].wall_s, traced[1].wall_s],
            untraced_wall_s: untraced.wall_s,
            idle_layers: &[],
            dominant: None,
            extra: serve_layers(&traced),
        }
        .per_layer(&mut report);
        report.notes.push(
            "the ir, explore, select and compiler layers run inside the server here; \
             serve.stages reports their time"
                .into(),
        );
        let value = |name| {
            report
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        };
        let requests = (keys.len() * SENDS_PER_KEY) as f64;
        report.notes.push(format!(
            "a cache hit spends {:.3} ms on the wire and socket path; the server parses a \
             request in {:.3} ms on average",
            value("serve.wire.hit_p50_ms"),
            1e3 * value("serve.stages.parse_s") / requests
        ));
    } else {
        let mut walls = Vec::new();
        let mut op_ms: Vec<Vec<f64>> = Vec::new();
        let mut pairs = Vec::new();
        let mut peak_rss_mb = 0.0;
        // At least three rounds, each in its own seeded order: a miss's
        // latency depends on which misses it overlaps, and with one
        // round tail_ms spread by 0.17 over five seeds, with three
        // (each request at its median) by 0.02 to 0.03.
        let setup_s = interleaved(opts.rounds(NOMINAL_ROUND_S, 3), setup, |kernels, r| {
            let keys = keys(kernels);
            n_keys = keys.len();
            let refs = references(kernels, &keys);
            let round = round(kernels, &keys, opts.seed, r);
            walls.push(round.wall_s);
            op_ms.resize(keys.len() * SENDS_PER_KEY, Vec::new());
            // A failed request has no timing; it counts in `failed`.
            for s in &round.samples {
                op_ms[s.slot].push(s.ms);
            }
            pairs = speedups(&refs);
            digest = check(&round, &refs, &mut report);
            // The memory mark of the first set-up and round: each later
            // round starts a fresh server in this process, where the
            // arenas the earlier servers' threads freed but the
            // allocator kept add 20 to 90 MB, differently in every run
            // (after three rounds six seeds spread by 0.19, after the
            // first by 0.04).
            if r == 0 {
                peak_rss_mb = crate::peak_rss_mb();
            }
        });
        Timed {
            setup_s,
            op_ms,
            wall: Wall::MedianRound(walls),
            speedups: pairs,
            // Mostly waits on the wire's timers, which a slow host does
            // not stretch: the round and request times stay raw.
            slowdown: None,
            peak_rss_mb,
        }
        .end_to_end(&mut report);
    }
    report.record.extend([
        ("keys", (n_keys as u64).into()),
        ("clients", (CLIENTS as u64).into()),
        ("output_digest", digest.hex().into()),
    ]);
    report
}
