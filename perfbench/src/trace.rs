//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`layer.call`), start and end in nanoseconds since
//! the recorder started, the span that was open when it began, the
//! measured iteration it belongs to, and — for `Front` calls — the
//! request's per-tenant sequence number. Spans are kept in memory and
//! written out once, when the benchmark ends. Recording is off unless
//! the run is traced; a disabled span costs one thread-local read.
//!
//! Only the benchmark's own code opens spans: the program under test is
//! timed from outside, call by call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the written trace; beyond this only the
/// per-name totals are updated, so a long run cannot exhaust memory.
const MAX_KEPT_SPANS: usize = 200_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    iteration: Option<u32>,
    seq: Option<u64>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    total_ns: u64,
    child_ns: u64,
}

#[derive(Debug)]
struct Recorder {
    on: bool,
    epoch: Instant,
    iteration: Option<u32>,
    /// Open spans: index into `spans` (or `usize::MAX` once past the
    /// cap), name, start and time covered by finished children.
    open: Vec<(usize, &'static str, u64, u64)>,
    spans: Vec<Span>,
    dropped: u64,
    /// `(iteration, name)` → totals; iteration `None` is set-up.
    totals: BTreeMap<(Option<u32>, &'static str), Totals>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        iteration: None,
        open: Vec::new(),
        spans: Vec::new(),
        dropped: 0,
        totals: BTreeMap::new(),
    });
}

/// Turns span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().on = on);
}

/// Tags the spans that follow with a measured iteration (`None` for
/// set-up work).
pub fn set_iteration(iteration: Option<u32>) {
    RECORDER.with(|r| r.borrow_mut().iteration = iteration);
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when the guard is dropped"]
pub struct Guard {
    live: bool,
    seq: Option<u64>,
}

/// Opens a span named `name` (`layer.call`).
pub fn span(name: &'static str) -> Guard {
    let live = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return false;
        }
        let start = r.epoch.elapsed().as_nanos() as u64;
        let slot = if r.spans.len() < MAX_KEPT_SPANS {
            let parent = r.open.last().map(|o| o.0).filter(|&p| p != usize::MAX);
            let iteration = r.iteration;
            r.spans.push(Span {
                name,
                start_ns: start,
                end_ns: start,
                parent,
                iteration,
                seq: None,
            });
            r.spans.len() - 1
        } else {
            r.dropped += 1;
            usize::MAX
        };
        r.open.push((slot, name, start, 0));
        true
    });
    Guard { live, seq: None }
}

impl Guard {
    /// Tags the span with a request sequence number.
    pub fn set_seq(&mut self, seq: u64) {
        self.seq = Some(seq);
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.epoch.elapsed().as_nanos() as u64;
            let Some((slot, name, start, child_ns)) = r.open.pop() else {
                return;
            };
            let dur = end.saturating_sub(start);
            if let Some(span) = r.spans.get_mut(slot) {
                span.end_ns = end;
                span.seq = self.seq;
            }
            if let Some(parent) = r.open.last_mut() {
                parent.3 += dur;
            }
            let key = (r.iteration, name);
            let t = r.totals.entry(key).or_default();
            t.total_ns += dur;
            t.child_ns += child_ns;
        });
    }
}

/// Seconds spent inside spans named `name`, per measured iteration, in
/// iteration order (iterations without such a span are skipped).
pub fn per_iteration_s(name: &str) -> Vec<f64> {
    RECORDER.with(|r| {
        r.borrow()
            .totals
            .iter()
            .filter(|((it, n), _)| it.is_some() && *n == name)
            .map(|(_, t)| t.total_ns as f64 * 1e-9)
            .collect()
    })
}

/// Seconds spent inside set-up spans named `name`, summed.
pub fn setup_s(name: &str) -> f64 {
    RECORDER.with(|r| {
        r.borrow()
            .totals
            .get(&(None, name))
            .map_or(0.0, |t| t.total_ns as f64 * 1e-9)
    })
}

/// Self time per layer (the name before the first `.`), in seconds,
/// summed over the whole run: each span's duration minus the part its
/// child spans cover.
pub fn self_time_by_layer() -> BTreeMap<String, f64> {
    RECORDER.with(|r| {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for ((_, name), t) in &r.borrow().totals {
            let layer = name.split('.').next().unwrap_or(name).to_string();
            *out.entry(layer).or_default() += t.total_ns.saturating_sub(t.child_ns) as f64 * 1e-9;
        }
        out
    })
}

/// The kept spans and the per-layer self times as one JSON document.
pub fn to_json(workload: &str, seed: u64) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"self_s_by_layer\": {{"
    );
    for (i, (layer, s)) in self_time_by_layer().iter().enumerate() {
        let comma = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{comma}\"{layer}\": {s}");
    }
    RECORDER.with(|r| {
        let r = r.borrow();
        let _ = writeln!(out, "}}, \"dropped_spans\": {}, \"spans\": [", r.dropped);
        for (i, s) in r.spans.iter().enumerate() {
            let comma = if i + 1 < r.spans.len() { "," } else { "" };
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"iteration\": {}, \"seq\": {}}}{comma}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.iteration.map(u64::from)),
                opt(s.seq),
            );
        }
    });
    out.push_str("]}\n");
    out
}
