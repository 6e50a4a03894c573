//! The content-addressed artifact cache.
//!
//! Artifacts are keyed by **canonical kernel fingerprint** plus
//! **config hash**. The kernel fingerprint hashes the *parsed-then-
//! re-printed* IR text, not the request bytes, so two requests that
//! differ only in whitespace or comments address the same entry. The
//! config hash folds in every request knob that can change the output
//! bytes (request kind, app name, area budget, matching flags, the MDES
//! text for compiles, and the admitted work budget). The server's
//! shared context is fixed for its lifetime, so it needs no key bits.
//!
//! Concurrent misses on one key **coalesce**: the first [`lookup`]
//! claims the key and computes it; later lookups of that key wait for
//! the claim to be filled and count as hits. A claim dropped unfilled
//! (an error on the miss path) frees the key, and one waiter claims it
//! in turn. So every key runs the pipeline once however requests race,
//! and the hit count depends only on the request script.
//!
//! [`lookup`]: ArtifactCache::lookup

use crate::protocol::Artifacts;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// 64-bit FNV-1a over a byte string: tiny, dependency-free, and stable
/// across platforms — exactly what a cache key (not a security
/// boundary) needs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A cache key: (canonical kernel fingerprint, config hash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Fingerprint of the canonicalized kernel text.
    pub kernel: u64,
    /// Hash of every output-affecting request knob.
    pub config: u64,
}

/// Fingerprints a parsed program by its canonical printed form (each
/// function's `Display`, joined by `\n` — the same text the assembly
/// emitter writes), so lexical noise in the request never splits cache
/// entries.
pub fn kernel_fingerprint(program: &isax_ir::Program) -> u64 {
    let canonical: String = program
        .functions
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    fnv64(canonical.as_bytes())
}

/// Incrementally hashes the config half of a [`CacheKey`].
#[derive(Debug, Clone)]
pub struct ConfigHasher(u64);

impl ConfigHasher {
    /// Starts a hash with a request-kind discriminator.
    pub fn new(kind: &str) -> ConfigHasher {
        ConfigHasher(fnv64(kind.as_bytes()))
    }

    /// Folds in a labeled byte string.
    pub fn field(mut self, label: &str, bytes: &[u8]) -> ConfigHasher {
        // Labels and lengths are folded in so field boundaries cannot
        // alias ("ab"+"c" vs "a"+"bc").
        self.0 = self.0.wrapping_mul(0x100_0000_01b3) ^ fnv64(label.as_bytes());
        self.0 = self.0.wrapping_mul(0x100_0000_01b3) ^ (bytes.len() as u64);
        self.0 = self.0.wrapping_mul(0x100_0000_01b3) ^ fnv64(bytes);
        self
    }

    /// Folds in a `u64`.
    pub fn u64(self, label: &str, v: u64) -> ConfigHasher {
        self.field(label, &v.to_le_bytes())
    }

    /// Folds in an `f64` by its bit pattern (so `-0.0` and `0.0` are
    /// distinct keys, matching the pipeline's bit-exact determinism).
    pub fn f64(self, label: &str, v: f64) -> ConfigHasher {
        self.u64(label, v.to_bits())
    }

    /// Folds in a bool.
    pub fn bool(self, label: &str, v: bool) -> ConfigHasher {
        self.u64(label, u64::from(v))
    }

    /// The finished hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One key's state: claimed by the request computing it, or filled.
#[derive(Debug)]
enum Slot {
    Pending,
    Ready(Arc<Artifacts>),
}

/// What [`ArtifactCache::lookup`] found.
#[derive(Debug)]
pub enum Lookup<'a> {
    /// The key's artifacts, filled earlier or while this lookup waited.
    Hit(Arc<Artifacts>),
    /// The key is this caller's to compute and [`Claim::fill`].
    Miss(Claim<'a>),
}

/// The right to fill one key. Dropping it unfilled frees the key.
#[derive(Debug)]
pub struct Claim<'a> {
    cache: &'a ArtifactCache,
    key: CacheKey,
}

impl Claim<'_> {
    /// Publishes the key's artifacts and wakes the lookups waiting for
    /// them.
    pub fn fill(self, artifacts: Artifacts) -> Arc<Artifacts> {
        let filled = Arc::new(artifacts);
        self.cache
            .lock()
            .insert(self.key, Slot::Ready(filled.clone()));
        filled
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut map = self.cache.lock();
        if matches!(map.get(&self.key), Some(Slot::Pending)) {
            map.remove(&self.key);
        }
        drop(map);
        self.cache.filled.notify_all();
    }
}

/// A concurrent artifact cache that computes each key once.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    map: Mutex<HashMap<CacheKey, Slot>>,
    filled: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<CacheKey, Slot>> {
        self.map.lock().expect("cache lock")
    }

    /// Looks up `key`: a hit when it is filled, or once the request
    /// computing it fills it; otherwise claims it and counts a miss.
    pub fn lookup(&self, key: CacheKey) -> Lookup<'_> {
        let mut map = self.lock();
        loop {
            match map.get(&key) {
                Some(Slot::Ready(a)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Hit(a.clone());
                }
                Some(Slot::Pending) => {
                    map = self.filled.wait(map).expect("cache lock");
                }
                None => {
                    map.insert(key, Slot::Pending);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Miss(Claim { cache: self, key });
                }
            }
        }
    }

    /// Number of filled entries.
    pub fn len(&self) -> usize {
        self.lock()
            .values()
            .filter(|slot| matches!(slot, Slot::Ready(_)))
            .count()
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry, or waited for one.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that claimed a key to compute it.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0.0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}
