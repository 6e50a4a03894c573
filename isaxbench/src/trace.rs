//! The benchmark's own spans and counters, placed around its calls into
//! each layer's public functions (nothing inside the program is
//! instrumented).
//!
//! A span's self time is its duration minus the time its child spans
//! cover. Spans nest through a thread-local stack; the traced paths run
//! on one thread (the pipeline is pinned to one worker), so one ledger
//! sees every span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Self times (seconds) and counts gathered while tracing was on.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ledger {
    /// Layer name → busy seconds not covered by a child span.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Counter name → total.
    pub counts: BTreeMap<&'static str, u64>,
}

struct State {
    on: bool,
    ledger: Ledger,
    /// Child time covered so far, one entry per open span.
    open: Vec<f64>,
}

thread_local! {
    static STATE: RefCell<State> = const {
        RefCell::new(State { on: false, ledger: Ledger { self_s: BTreeMap::new(), counts: BTreeMap::new() }, open: Vec::new() })
    };
}

/// Starts a fresh ledger and turns recording on.
pub fn start() {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.on = true;
        s.ledger = Ledger::default();
        s.open.clear();
    });
}

/// Turns recording off and returns what was recorded.
pub fn finish() -> Ledger {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.on = false;
        std::mem::take(&mut s.ledger)
    })
}

fn on() -> bool {
    STATE.with(|s| s.borrow().on)
}

/// Runs `f` inside a span named `layer`. With recording off this is a
/// plain call.
pub fn span<T>(layer: &'static str, f: impl FnOnce() -> T) -> T {
    if !on() {
        return f();
    }
    STATE.with(|s| s.borrow_mut().open.push(0.0));
    let t = Instant::now();
    let out = f();
    let dur = t.elapsed().as_secs_f64();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let children = s.open.pop().expect("span stack underflow");
        *s.ledger.self_s.entry(layer).or_default() += dur - children;
        if let Some(parent) = s.open.last_mut() {
            *parent += dur;
        }
    });
    out
}

/// Adds `n` to counter `name` (no-op with recording off).
pub fn count(name: &'static str, n: u64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.on {
            *s.ledger.counts.entry(name).or_default() += n;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn self_time_excludes_children_and_counts_add_up() {
        start();
        span("outer", || {
            busy(10);
            span("inner", || busy(40));
        });
        count("calls", 2);
        count("calls", 3);
        let l = finish();
        let (outer, inner) = (l.self_s["outer"], l.self_s["inner"]);
        assert!(inner >= 0.040, "inner {inner}");
        assert!((0.010..0.040).contains(&outer), "outer {outer}");
        assert_eq!(l.counts["calls"], 5);
    }

    #[test]
    fn nothing_is_recorded_while_off() {
        finish();
        assert_eq!(span("x", || 7), 7);
        count("y", 1);
        start();
        assert_eq!(finish(), Ledger::default());
    }
}
