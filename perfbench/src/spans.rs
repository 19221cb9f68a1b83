//! In-memory tracing for the traced pass: spans recorded around the
//! calls into each layer's public functions, plus accumulated timers for
//! calls too frequent to record one span each (scheduler events, cache
//! accesses, footprint scans).
//!
//! A span carries the timer deltas that accrued while it was open, so a
//! layer's self time is its duration minus its child spans minus the
//! accumulated calls made inside it.

use active_threads::{SchedulePoint, Scheduler, ThreadId};
use locality_core::{SanitizedInterval, SharingGraph};
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// Accumulated host time and call count of one kind of call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    /// Total nanoseconds spent in the calls.
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
}

impl Acc {
    /// Adds one call that started at `start`.
    #[inline]
    pub fn add_since(&mut self, start: Instant) {
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    /// Adds another accumulator's calls.
    pub fn add(&mut self, other: Acc) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Seconds spent.
    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }

    fn minus(self, earlier: Acc) -> Acc {
        Acc { ns: self.ns - earlier.ns, calls: self.calls - earlier.calls }
    }
}

/// Accumulated timers of one worker thread. The top-level categories
/// (`sched`, `hook`, `access`, `fp_lines`, `perset`) are disjoint; the
/// others split one of them further.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timers {
    /// Every engine-to-scheduler event call (threads layer).
    pub sched: Acc,
    /// `Scheduler::on_interval_end`, a part of `sched`.
    pub sched_interval_end: Acc,
    /// `Scheduler::pick`, a part of `sched`.
    pub sched_pick: Acc,
    /// The monitoring hook's body (repro layer).
    pub hook: Acc,
    /// `Machine::l2_footprints_into`, a part of `hook` (sim layer).
    pub fp_query: Acc,
    /// `Machine::access` (sim layer).
    pub access: Acc,
    /// `Machine::l2_footprint_lines` (sim layer).
    pub fp_lines: Acc,
    /// `perset::predict_after` (core layer).
    pub perset: Acc,
}

impl Timers {
    /// Adds every accumulator of `other`.
    pub fn add(&mut self, other: &Timers) {
        self.sched.add(other.sched);
        self.sched_interval_end.add(other.sched_interval_end);
        self.sched_pick.add(other.sched_pick);
        self.hook.add(other.hook);
        self.fp_query.add(other.fp_query);
        self.access.add(other.access);
        self.fp_lines.add(other.fp_lines);
        self.perset.add(other.perset);
    }

    fn minus(&self, earlier: &Timers) -> Timers {
        Timers {
            sched: self.sched.minus(earlier.sched),
            sched_interval_end: self.sched_interval_end.minus(earlier.sched_interval_end),
            sched_pick: self.sched_pick.minus(earlier.sched_pick),
            hook: self.hook.minus(earlier.hook),
            fp_query: self.fp_query.minus(earlier.fp_query),
            access: self.access.minus(earlier.access),
            fp_lines: self.fp_lines.minus(earlier.fp_lines),
            perset: self.perset.minus(earlier.perset),
        }
    }

    /// The disjoint top-level categories with the layer each belongs to.
    /// The monitoring hook's footprint scans are split out of `hook`.
    pub fn by_layer(&self) -> [(&'static str, Acc); 6] {
        [
            ("threads", self.sched),
            ("repro", self.hook.minus(self.fp_query)),
            ("sim", self.fp_query),
            ("sim", self.access),
            ("sim", self.fp_lines),
            ("core", self.perset),
        ]
    }

    /// Nanoseconds of all top-level categories.
    pub fn total_ns(&self) -> u64 {
        self.sched.ns + self.hook.ns + self.access.ns + self.fp_lines.ns + self.perset.ns
    }
}

/// Shared handle to a worker's timers (one engine run never leaves its
/// thread, so `Rc` suffices).
pub type TimersRef = Rc<RefCell<Timers>>;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, `<layer>.<what>`.
    pub name: &'static str,
    /// Extra key: the app of a spawn, the geometry of a walk, the label
    /// of a descriptor.
    pub label: String,
    /// Index of the descriptor the span belongs to.
    pub desc: usize,
    /// Worker thread that recorded it.
    pub worker: usize,
    /// Index (in the merged span list) of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the pass began.
    pub start_ns: u64,
    /// End, nanoseconds since the pass began.
    pub end_ns: u64,
    /// Timer deltas accrued while the span was open.
    pub inner: Timers,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer a span's self time belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or("unattributed")
    }
}

/// One worker's span recorder.
pub struct Tracer {
    epoch: Instant,
    worker: usize,
    desc: usize,
    timers: TimersRef,
    spans: Vec<Span>,
    open: Vec<(usize, Timers)>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, worker: usize) -> Self {
        Tracer {
            epoch,
            worker,
            desc: 0,
            timers: Rc::default(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The timers that scheduler wrappers and hooks add to.
    pub fn timers(&self) -> TimersRef {
        Rc::clone(&self.timers)
    }

    /// Sets the descriptor index later spans belong to.
    pub fn set_desc(&mut self, desc: usize) {
        self.desc = desc;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, label: impl Into<String>) {
        let parent = self.open.last().map(|&(i, _)| i);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            label: label.into(),
            desc: self.desc,
            worker: self.worker,
            parent,
            start_ns,
            end_ns: start_ns,
            inner: Timers::default(),
        });
        self.open.push((self.spans.len() - 1, *self.timers.borrow()));
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some((i, at_start)) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
            self.spans[i].inner = self.timers.borrow().minus(&at_start);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        label: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.begin(name, label);
        let out = f();
        self.end();
        out
    }

    /// The recorded spans, with parent indices relative to this tracer.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-worker span lists, rebasing parent indices.
pub fn merge(per_worker: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for spans in per_worker {
        let base = all.len();
        all.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus its child spans minus
/// the accumulated calls inside it that are not already inside a child.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children_ns = vec![0u64; spans.len()];
    let mut children_inner = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children_ns[p] += s.end_ns - s.start_ns;
            children_inner[p] += s.inner.total_ns();
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let own_inner = s.inner.total_ns().saturating_sub(children_inner[i]);
            (s.end_ns - s.start_ns).saturating_sub(children_ns[i] + own_inner)
        })
        .collect()
}

/// Writes the spans of every traced batch as JSON lines.
///
/// # Errors
///
/// Returns the I/O error of creating or writing the file.
pub fn write_jsonl(path: &std::path::Path, batches: &[Vec<Span>]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (batch, spans) in batches.iter().enumerate() {
        write_batch(&mut w, batch, spans)?;
    }
    w.flush()
}

fn write_batch(w: &mut impl Write, batch: usize, spans: &[Span]) -> std::io::Result<()> {
    for (s, self_ns) in spans.iter().zip(self_ns(spans)) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let mut inner = String::new();
        for (name, acc) in [
            ("sched", s.inner.sched),
            ("sched_interval_end", s.inner.sched_interval_end),
            ("sched_pick", s.inner.sched_pick),
            ("hook", s.inner.hook),
            ("fp_query", s.inner.fp_query),
            ("access", s.inner.access),
            ("fp_lines", s.inner.fp_lines),
            ("perset", s.inner.perset),
        ] {
            if acc.calls > 0 {
                if !inner.is_empty() {
                    inner.push(',');
                }
                inner.push_str(&format!("\"{name}\":[{},{}]", acc.ns, acc.calls));
            }
        }
        writeln!(
            w,
            "{{\"batch\":{batch},\"name\":\"{}\",\"label\":\"{}\",\"desc\":{},\"worker\":{},\
             \"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\
             \"inner\":{{{inner}}}}}",
            s.name,
            s.label.replace('\\', "\\\\").replace('"', "\\\""),
            s.desc,
            s.worker,
            s.start_ns,
            s.end_ns,
        )?;
    }
    Ok(())
}

/// A scheduler wrapper timing every event call the engine makes into
/// the wrapped policy. Getters are forwarded untimed.
pub struct TimingScheduler {
    inner: Box<dyn Scheduler>,
    timers: TimersRef,
}

impl TimingScheduler {
    /// Wraps `inner`, adding its call times to `timers`.
    pub fn new(inner: Box<dyn Scheduler>, timers: TimersRef) -> Self {
        TimingScheduler { inner, timers }
    }

    #[inline]
    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn Scheduler) -> T) -> T {
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        self.timers.borrow_mut().sched.add_since(start);
        out
    }
}

impl Scheduler for TimingScheduler {
    fn on_spawn(&mut self, tid: ThreadId) {
        self.timed(|s| s.on_spawn(tid));
    }

    fn on_ready(&mut self, tid: ThreadId) {
        self.timed(|s| s.on_ready(tid));
    }

    fn on_dispatch(&mut self, cpu: usize, tid: ThreadId) {
        self.timed(|s| s.on_dispatch(cpu, tid));
    }

    fn on_interval_end(
        &mut self,
        cpu: usize,
        tid: ThreadId,
        interval: SanitizedInterval,
        graph: &SharingGraph,
    ) {
        let start = Instant::now();
        self.inner.on_interval_end(cpu, tid, interval, graph);
        let mut t = self.timers.borrow_mut();
        t.sched.add_since(start);
        t.sched_interval_end.add_since(start);
    }

    fn pick(&mut self, cpu: usize) -> Option<ThreadId> {
        let start = Instant::now();
        let out = self.inner.pick(cpu);
        let mut t = self.timers.borrow_mut();
        t.sched.add_since(start);
        t.sched_pick.add_since(start);
        out
    }

    fn on_exit(&mut self, tid: ThreadId) {
        self.timed(|s| s.on_exit(tid));
    }

    fn on_schedule_point(&mut self, point: &SchedulePoint) {
        self.timed(|s| s.on_schedule_point(point));
    }

    fn on_abort(&mut self, tid: ThreadId) {
        self.timed(|s| s.on_abort(tid));
    }

    fn expected_footprint(&self, cpu: usize, tid: ThreadId) -> Option<f64> {
        self.inner.expected_footprint(cpu, tid)
    }

    fn ready_count(&self) -> usize {
        self.inner.ready_count()
    }

    fn steals(&self) -> u64 {
        self.inner.steals()
    }

    fn priority_flops(&self) -> (u64, u64) {
        self.inner.priority_flops()
    }

    fn degraded_intervals(&self) -> u64 {
        self.inner.degraded_intervals()
    }

    fn is_degraded(&self) -> bool {
        self.inner.is_degraded()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Nanoseconds one `Instant::now()` pair costs on this host: every
/// timed call above includes it once.
pub fn timer_overhead_ns() -> f64 {
    const N: u32 = 200_000;
    let mut acc = Acc::default();
    for _ in 0..N {
        let start = Instant::now();
        acc.add_since(std::hint::black_box(start));
    }
    acc.ns as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_inner_calls() {
        let inner = |ns| Timers { access: Acc { ns, calls: 1 }, ..Timers::default() };
        let spans = vec![
            Span {
                name: "repro.descriptor",
                label: String::new(),
                desc: 0,
                worker: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100,
                inner: inner(30),
            },
            Span {
                name: "repro.walk",
                label: String::new(),
                desc: 0,
                worker: 0,
                parent: Some(0),
                start_ns: 10,
                end_ns: 60,
                inner: inner(20),
            },
        ];
        // The child's 20 ns of accesses are counted once, inside it.
        assert_eq!(self_ns(&spans), vec![100 - 50 - 10, 50 - 20]);
    }

    #[test]
    fn merge_rebases_parents() {
        let mut a = Tracer::new(Instant::now(), 0);
        a.span("x.a", "", || ());
        let mut b = Tracer::new(Instant::now(), 1);
        b.begin("x.outer", "");
        b.span("x.inner", "", || ());
        b.end();
        let all = merge(vec![a.into_spans(), b.into_spans()]);
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(all[1].parent, None);
    }
}
