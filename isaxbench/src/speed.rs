//! Host-speed correction of the benchmark's CPU-bound timings.
//!
//! On a shared 2-CPU x86-64 virtual host the same code runs up to 1.5
//! times slower, in bursts up to 2.8 times, for stretches from a second
//! to several minutes while other guests load the machine: ten runs of
//! one customize-corpus build spread by 0.27 (inter-quartile range over
//! median) in plain wall time, more than any bound allows. So the
//! benchmark times a fixed reference task — its own code, none of the
//! program's — between operations, and reports each operation at the
//! host's quiet speed: its wall time divided by the host's slowdown
//! there, [`REF_EXPONENT`] powers of the reference's — the mean of the
//! reference samples just before and just after the operation over
//! [`REF_QUIET_MS`]. A change to the program moves the corrected time in
//! full, since the reference does not run the program; a slow stretch of
//! the host slows both and largely cancels. Each run records the host's
//! mean slowdown, raw over corrected seconds, beside the corrected
//! figures.

use crate::Rng;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Milliseconds the reference task takes on a quiet 2-CPU x86-64
/// virtual host (about its 5th percentile over 2000 timings there; the
/// median was 0.4). Only the scale of the corrected figures depends on
/// it.
pub const REF_QUIET_MS: f64 = 0.3;

/// How many powers of the reference's slowdown the pipeline's is. The
/// pipeline feels a loaded host more than the small reference does:
/// over 200 s of six corpus kernels alternating with reference samples
/// on a loaded 2-CPU x86-64 virtual host, the log of the kernels' time
/// rose 1.39 times as fast as the log of the reference's, in 10-second
/// windows (correlation 0.95). Slightly less is used, so that a load the
/// pipeline feels less than that is not over-corrected. Over ten runs
/// each, customize-corpus wall_s spread by 0.41 raw, by 0.12 corrected
/// with 1 (it still rose with the load) and by 0.03 with 1.3.
pub const REF_EXPONENT: f64 = 1.3;

/// Operation seconds between two reference samples: the host's speed
/// moves within tenths of a second, so short operations are corrected
/// from samples close around them, at a cost of up to a tenth of the
/// timed phase where operations take a millisecond.
const SAMPLE_EVERY_S: f64 = 0.02;

/// Share of the operation time since the last sample that the next
/// sample spends on reference timings, within [`SAMPLE_TIMINGS`]. A
/// single timing scatters by a fifth around its neighbours; the median
/// of many estimates the host's speed around a long operation far
/// better than a few, and costs little beside it.
const SAMPLE_SHARE: f64 = 0.02;

/// Fewest and most reference timings in one sample.
const SAMPLE_TIMINGS: (usize, usize) = (5, 101);

/// The reference task: ordered-map and hash-map updates, small vector
/// allocations and a sort — the mix of work the pipeline does — over a
/// fixed seeded input. Returns its milliseconds.
pub fn reference_ms() -> f64 {
    let t = Instant::now();
    let mut rng = Rng::new(7, 7);
    let mut ordered = BTreeMap::new();
    let mut hashed = HashMap::new();
    let mut lists: Vec<Vec<u64>> = Vec::new();
    for i in 0..1500u64 {
        let k = rng.next_u64() % 4096;
        *ordered.entry(k).or_insert(0u64) += i;
        *hashed.entry(k ^ 0x55).or_insert(0u64) ^= i;
        if i % 8 == 0 {
            lists.push((0..k % 64).map(|x| x * i).collect());
        }
    }
    let mut flat: Vec<u64> = lists.into_iter().flatten().collect();
    flat.sort_unstable();
    std::hint::black_box(
        ordered.values().sum::<u64>() ^ hashed.values().sum::<u64>() ^ flat.iter().sum::<u64>(),
    );
    t.elapsed().as_secs_f64() * 1e3
}

/// One reference sample after `after_s` seconds of operations: the
/// median of its timings, in milliseconds.
fn sample_ms(after_s: f64) -> f64 {
    let n = (SAMPLE_SHARE * after_s * 1e3 / REF_QUIET_MS) as usize;
    let n = n.clamp(SAMPLE_TIMINGS.0, SAMPLE_TIMINGS.1);
    let timings: Vec<f64> = (0..n).map(|_| reference_ms()).collect();
    crate::stats::median(&timings)
}

/// Operations timed one after another, corrected to the quiet speed.
pub struct Gauge {
    /// The latest reference sample, in milliseconds.
    last_ref_ms: f64,
    /// Raw seconds of the operations since that sample.
    open: Vec<f64>,
    /// Corrected seconds of the operations before it, in order.
    done: Vec<f64>,
    /// Raw seconds of every operation.
    raw_s: f64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            last_ref_ms: sample_ms(0.0),
            open: Vec::new(),
            done: Vec::new(),
            raw_s: 0.0,
        }
    }
}

impl Gauge {
    /// Records one operation's raw seconds; samples the reference when
    /// enough operation time has gathered since the last sample.
    pub fn push(&mut self, raw_s: f64) {
        self.open.push(raw_s);
        self.raw_s += raw_s;
        if self.open.iter().sum::<f64>() >= SAMPLE_EVERY_S {
            self.close();
        }
    }

    fn close(&mut self) {
        let ref_ms = sample_ms(self.open.iter().sum());
        let slowdown = (self.last_ref_ms + ref_ms) / (2.0 * REF_QUIET_MS);
        let factor = slowdown.powf(-REF_EXPONENT);
        self.done.extend(self.open.drain(..).map(|s| s * factor));
        self.last_ref_ms = ref_ms;
    }

    /// Each operation's corrected seconds, in order, and the raw
    /// seconds of all of them.
    pub fn finish(mut self) -> (Vec<f64>, f64) {
        if !self.open.is_empty() {
            self.close();
        }
        (self.done, self.raw_s)
    }
}

/// Runs `f` once between two reference samples; returns its result and
/// its corrected seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let mut gauge = Gauge::default();
    let t = Instant::now();
    let out = f();
    gauge.push(t.elapsed().as_secs_f64());
    (out, gauge.finish().0[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_operation_is_corrected_once_and_in_order() {
        let mut g = Gauge::default();
        let raw = [0.001, 0.03, 0.002, 0.004, 0.05];
        for s in raw {
            g.push(s);
        }
        let (corrected, raw_s) = g.finish();
        assert_eq!(corrected.len(), raw.len());
        assert!((raw_s - raw.iter().sum::<f64>()).abs() < 1e-12);
        // Operations between the same two reference samples share one
        // factor, so their ratios survive.
        assert!((corrected[1] / corrected[0] - 30.0).abs() < 1e-9);
        assert!(corrected.iter().all(|&c| c > 0.0));
    }
}
