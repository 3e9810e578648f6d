//! Outside-in span recording.
//!
//! The benchmark wraps every call it makes into a layer of the simulator
//! in a [`span`]. Recording is off by default, and then a span costs one
//! thread-local flag read. While recording (the traced run), each span
//! keeps its layer, name, tag, start, end, parent and iteration id in
//! memory; [`Profile`] turns them into per-layer self times and the
//! Chrome trace-event JSON written at exit.
//!
//! The recorder is thread-local: the workloads run under
//! `Runner::new(1)`, which executes every cell on the calling thread.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use xcontainers::prelude::{json_array, json_object, Json};

/// One recorded span. Times are nanoseconds since recording started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer the call went into (`cluster`, `http`, `verify`, …).
    pub layer: &'static str,
    /// The call, e.g. `run_cluster_range`.
    pub name: &'static str,
    /// Free-form qualifier: platform label, fault rate, cache hit/miss.
    pub tag: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration the span belongs to.
    pub iter: u32,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: u32,
}

impl Recorder {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

thread_local! {
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding anything recorded before.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
        });
    });
    RECORDING.with(|on| on.set(true));
}

/// Pauses (`false`) or resumes (`true`) a recording started with
/// [`start`], keeping the spans recorded so far.
pub fn set_recording(on: bool) {
    RECORDING.with(|r| r.set(on));
}

/// Sets the iteration id stamped on spans opened from now on.
pub fn set_iteration(iter: u32) {
    RECORDER.with(|r| {
        if let Some(r) = r.borrow_mut().as_mut() {
            r.iter = iter;
        }
    });
}

/// Stops recording and returns the spans in opening order.
pub fn stop() -> Vec<Span> {
    RECORDING.with(|on| on.set(false));
    RECORDER.with(|r| r.borrow_mut().take().map(|r| r.spans).unwrap_or_default())
}

/// An open span; dropping it closes the span, so a panic inside the
/// traced call still leaves a well-nested record.
struct Open {
    index: usize,
    tag: &'static str,
}

impl Open {
    fn enter(layer: &'static str, name: &'static str) -> Option<Open> {
        if !RECORDING.with(Cell::get) {
            return None;
        }
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let r = r.as_mut()?;
            let index = r.spans.len();
            let now = r.now();
            r.spans.push(Span {
                layer,
                name,
                tag: "",
                start_ns: now,
                end_ns: now,
                parent: r.open.last().copied(),
                iter: r.iter,
            });
            r.open.push(index);
            Some(Open { index, tag: "" })
        })
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        RECORDER.with(|r| {
            if let Some(r) = r.borrow_mut().as_mut() {
                let now = r.now();
                let span = &mut r.spans[self.index];
                span.end_ns = now;
                span.tag = self.tag;
                r.open.pop();
            }
        });
    }
}

/// Runs `f` inside a span of `layer`/`name`.
pub fn span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    span_by(layer, name, f, |_| "")
}

/// Runs `f` inside a span tagged `tag`.
pub fn span_tagged<T>(
    layer: &'static str,
    name: &'static str,
    tag: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    span_by(layer, name, f, |_| tag)
}

/// Runs `f` inside a span whose tag is computed from the result (a cache
/// lookup learns whether it hit only after it returns).
pub fn span_by<T>(
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
    tag: impl FnOnce(&T) -> &'static str,
) -> T {
    let open = Open::enter(layer, name);
    let out = f();
    if let Some(mut open) = open {
        open.tag = tag(&out);
    }
    out
}

/// Recorded spans with their self times: a span's duration minus the
/// part its child spans cover.
#[derive(Debug, Clone)]
pub struct Profile {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
    iterations: u32,
}

/// One row of the layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Layer name.
    pub layer: &'static str,
    /// Self time summed over all iterations.
    pub self_ns: u64,
    /// Spans summed over all iterations.
    pub spans: u64,
}

impl Profile {
    /// Builds the profile of `iterations` traced iterations.
    pub fn new(spans: Vec<Span>, iterations: u32) -> Self {
        let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
        for s in &spans {
            if let Some(p) = s.parent {
                self_ns[p] = self_ns[p].saturating_sub(s.duration_ns());
            }
        }
        Profile {
            spans,
            self_ns,
            iterations: iterations.max(1),
        }
    }

    /// Iterations the profile covers.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Wall time of the root spans (the traced iterations).
    pub fn wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    /// Self time of the spans matching `pred`.
    pub fn self_ns_where(&self, pred: impl Fn(&Span) -> bool) -> u64 {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| pred(s))
            .map(|(_, &ns)| ns)
            .sum()
    }

    /// Number of spans matching `pred`.
    pub fn count_where(&self, pred: impl Fn(&Span) -> bool) -> u64 {
        self.spans.iter().filter(|s| pred(s)).count() as u64
    }

    /// Self time and span count per layer, largest self time first. The
    /// self times sum to [`Profile::wall_ns`].
    pub fn layers(&self) -> Vec<LayerRow> {
        let mut by_layer: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, &ns) in self.spans.iter().zip(&self.self_ns) {
            let e = by_layer.entry(s.layer).or_default();
            e.0 += ns;
            e.1 += 1;
        }
        let mut rows: Vec<LayerRow> = by_layer
            .into_iter()
            .map(|(layer, (self_ns, spans))| LayerRow {
                layer,
                self_ns,
                spans,
            })
            .collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.layer.cmp(b.layer)));
        rows
    }

    /// The layer table: self ms per iteration, spans per iteration and
    /// share of the traced wall time, with a total row.
    pub fn render_layers(&self, title: &str) -> String {
        let iters = f64::from(self.iterations);
        let wall = self.wall_ns();
        let mut out = String::new();
        let _ = writeln!(out, "== {title} ==");
        let _ = writeln!(
            out,
            "{:<8} | {:>12} | {:>10} | {:>7}",
            "layer", "self ms/iter", "spans/iter", "share"
        );
        let _ = writeln!(out, "{}", "-".repeat(46));
        let mut sum = 0u64;
        for row in self.layers() {
            sum += row.self_ns;
            let _ = writeln!(
                out,
                "{:<8} | {:>12.3} | {:>10.1} | {:>6.2}%",
                row.layer,
                row.self_ns as f64 / 1e6 / iters,
                row.spans as f64 / iters,
                share(row.self_ns, wall)
            );
        }
        let _ = writeln!(
            out,
            "{:<8} | {:>12.3} | {:>10} | {:>6.2}%  (traced iteration wall {:.3} ms)",
            "sum",
            sum as f64 / 1e6 / iters,
            "",
            share(sum, wall),
            wall as f64 / 1e6 / iters
        );
        out
    }

    /// The spans as Chrome trace-event JSON (complete `X` events,
    /// microsecond timestamps), loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> Json {
        let events = self.spans.iter().enumerate().map(|(i, s)| {
            json_object([
                ("name", Json::from(s.name)),
                ("cat", Json::from(s.layer)),
                ("ph", Json::from("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    json_object([
                        ("id", Json::Num(i as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("iter", Json::Num(f64::from(s.iter))),
                        ("tag", Json::from(s.tag)),
                        ("self_us", Json::Num(self.self_ns[i] as f64 / 1e3)),
                    ]),
                ),
            ])
        });
        json_object([
            ("traceEvents", json_array(events)),
            ("displayTimeUnit", Json::from("ms")),
        ])
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_wall_time() {
        start();
        set_iteration(3);
        let v = span("bench", "iteration", || {
            let a = span("cluster", "run", || std::hint::black_box(1 + 1));
            let b = span_by(
                "http",
                "get_or_run",
                || a * 2,
                |&v| if v == 4 { "miss" } else { "hit" },
            );
            span("report", "render", || b + 1)
        });
        assert_eq!(v, 5);
        let spans = stop();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.iter == 3));
        assert_eq!(spans[2].tag, "miss");
        assert_eq!(spans[1].parent, Some(0));
        let profile = Profile::new(spans, 1);
        let sum: u64 = profile.layers().iter().map(|r| r.self_ns).sum();
        assert_eq!(sum, profile.wall_ns());
        assert_eq!(profile.count_where(|s| s.layer == "http"), 1);
        let json = profile.chrome_json().to_string_compact();
        assert!(json.starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn untraced_spans_record_nothing() {
        assert_eq!(span("cluster", "run", || 7), 7);
        assert!(stop().is_empty());
    }

    #[test]
    fn a_panicking_call_still_closes_its_span() {
        start();
        let caught = std::panic::catch_unwind(|| {
            span("bench", "iteration", || {
                span("chaos", "run", || panic!("boom"))
            })
        });
        assert!(caught.is_err());
        span("bench", "after", || ());
        let spans = stop();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, None, "the open-span stack unwound");
    }
}
