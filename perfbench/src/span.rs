//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! A span is a named host-time interval; spans nest through a thread-local
//! stack, so a span's *self* time is its duration minus the time its
//! child spans cover (a `core.compute` span excludes the `kernels.heat`
//! spans its closure runs inside). Spans are aggregated per name in
//! memory as they close and read out when the workload ends.
//!
//! Recording is off by default: [`time`] then calls its closure directly,
//! which is how the end-to-end metrics are measured.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Totals of every closed span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    stack: Vec<Frame>,
    totals: BTreeMap<&'static str, Totals>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turn recording on or off and drop everything recorded so far.
pub fn set_enabled(on: bool) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "recording toggled inside a span");
        r.on = on;
        r.totals.clear();
    });
}

pub fn enabled() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Run `f` inside a span called `name` (a plain call when recording is off).
#[inline]
pub fn time<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    REC.with(|r| {
        r.borrow_mut().stack.push(Frame {
            name,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let frame = r.stack.pop().expect("span stack underflow");
        debug_assert_eq!(frame.name, name);
        let dur = frame.start.elapsed().as_nanos() as u64;
        if let Some(parent) = r.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = r.totals.entry(name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(frame.child_ns);
    });
    out
}

/// Totals recorded under `name` since recording was last enabled.
pub fn totals(name: &str) -> Totals {
    REC.with(|r| r.borrow().totals.get(name).copied().unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_enabled(true);
        time("outer", || {
            time("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let outer = totals("outer");
        let inner = totals("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        set_enabled(false);
        assert_eq!(totals("outer").count, 0);
        time("outer", || ());
        assert_eq!(totals("outer").count, 0, "nothing is recorded while off");
    }
}
