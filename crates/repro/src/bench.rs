//! Offline hot-path microbenchmarks (`repro bench`, `cargo bench -p
//! locality-repro`).
//!
//! The repository's one microbenchmark harness, self-contained so the
//! build works offline. It runs four bench groups — `machine_access`,
//! `priority_update`, `prio_heap`/`engine_run`, `model` — plus a
//! scheduler dispatch-cycle bench, with plain `std::time::Instant`
//! timing: calibrate a batch size, then report the **median ns/op**
//! over several timed batches. Medians go to `BENCH_hotpath.json` at
//! the repo root so hot-path PRs carry before/after numbers.
//!
//! Timing numbers are machine-dependent and deliberately *not* part of
//! CI pass/fail; CI only compiles this harness (`cargo bench --no-run`).

use active_threads::heap::PrioHeap;
use active_threads::sched::{FcfsScheduler, LocalityConfig, LocalityScheduler, Scheduler};
use active_threads::{Engine, EngineConfig};
use locality_core::markov::DependentChain;
use locality_core::{
    FootprintEntry, FootprintModel, ModelParams, PolicyKind, PrioritySchemes, SanitizedInterval,
    SharingGraph, ThreadId, ThreadSlots,
};
use locality_sim::{AccessKind, Machine, MachineConfig};
use locality_workloads::tasks::{spawn_parallel, TasksParams};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs benches and collects `name -> median ns/op`.
#[derive(Debug)]
pub struct Harness {
    /// Quick mode: shorter batches, fewer samples (the default; the
    /// `--full` flag turns it off).
    pub quick: bool,
    /// Only run benches whose name contains this substring.
    pub filter: Option<String>,
    /// Print each result as it lands.
    pub verbose: bool,
    results: BTreeMap<String, f64>,
}

impl Harness {
    /// Creates a harness.
    pub fn new(quick: bool, filter: Option<String>) -> Self {
        Harness { quick, filter, verbose: false, results: BTreeMap::new() }
    }

    /// The collected `name -> median ns/op` map (deterministic order).
    pub fn results(&self) -> &BTreeMap<String, f64> {
        &self.results
    }

    fn wants(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Times `op`: calibrates a batch that takes roughly `target`, then
    /// records the median per-op nanoseconds over several batches.
    pub fn bench<F: FnMut()>(&mut self, name: &str, mut op: F) {
        if !self.wants(name) {
            return;
        }
        let target = Duration::from_millis(if self.quick { 4 } else { 40 });
        let mut n: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..n {
                op();
            }
            let dt = t.elapsed();
            if dt >= target || n >= 1 << 28 {
                break;
            }
            let scale = if dt.is_zero() {
                16
            } else {
                (target.as_nanos() / dt.as_nanos().max(1)).clamp(2, 16) as u64
            };
            n = n.saturating_mul(scale);
        }
        let samples = if self.quick { 7 } else { 13 };
        let mut per_op: Vec<f64> = (0..samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..n {
                    op();
                }
                t.elapsed().as_nanos() as f64 / n as f64
            })
            .collect();
        per_op.sort_by(f64::total_cmp);
        let median = per_op[per_op.len() / 2];
        if self.verbose {
            eprintln!("{name:<40} {median:>12.1} ns/op  (batch {n})");
        }
        self.results.insert(name.to_string(), median);
    }
}

/// Registers every bench group on the harness.
pub fn run_all(h: &mut Harness) {
    machine_access(h);
    priority_update(h);
    prio_heap(h);
    sched_dispatch(h);
    engine_run(h);
    model(h);
}

/// `machine_access`: substrate cost per access on the L1-hit, L2-hit,
/// and L2-miss paths, coherent writes, and the footprint queries.
fn machine_access(h: &mut Harness) {
    {
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        let a = m.alloc(64, 64);
        m.access(0, a, AccessKind::Read);
        h.bench("machine_access/l1_hit", || {
            black_box(m.access(0, a, AccessKind::Read));
        });
    }
    {
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        let a = m.alloc(64 * 1024, 64);
        // 16 KiB apart: same L1-D index (16 KiB direct), different L2 index.
        let (x, y) = (a, a.offset(16 * 1024));
        m.access(0, x, AccessKind::Read);
        m.access(0, y, AccessKind::Read);
        let mut flip = false;
        h.bench("machine_access/l2_hit", || {
            flip = !flip;
            black_box(m.access(0, if flip { x } else { y }, AccessKind::Read));
        });
    }
    {
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        let lines = 8192u64 * 4;
        let a = m.alloc(lines * 64, 64);
        let mut i = 0u64;
        h.bench("machine_access/l2_miss_stream", || {
            i = (i + 1) % lines;
            black_box(m.access(0, a.offset(i * 64), AccessKind::Read));
        });
    }
    {
        let mut m = Machine::try_new(MachineConfig::enterprise5000(2)).unwrap();
        let a = m.alloc(64, 64);
        h.bench("machine_access/coherent_write", || {
            m.access(0, a, AccessKind::Read);
            black_box(m.access(1, a, AccessKind::Write));
        });
    }
    {
        let mut m = Machine::try_new(MachineConfig::ultra1()).unwrap();
        let t = ThreadId(1);
        let a = m.alloc(8192 * 64, 64);
        m.register_region(t, a, 8192 * 64);
        for i in 0..8192u64 {
            m.access(0, a.offset(i * 64), AccessKind::Read);
        }
        h.bench("machine_access/l2_footprint_query", || {
            black_box(m.l2_footprint_lines(0, t));
        });
    }
}

/// `priority_update`: Table 3 companion — cost of one priority update
/// per thread class.
fn priority_update(h: &mut Harness) {
    for policy in [PolicyKind::Lff, PolicyKind::Crt] {
        let schemes = PrioritySchemes::new(policy, ModelParams::new(8192).unwrap());
        let mut entry = FootprintEntry::cold();
        schemes.on_dispatch(&mut entry, 0);
        schemes.on_block_self(&mut entry, 100, 100);

        let mut m = 200u64;
        h.bench(&format!("priority_update/{}/blocking", policy.name()), || {
            let p = schemes.on_block_self(black_box(&mut entry), 13, m);
            m += 13;
            black_box(p);
        });
        let mut m = 200u64;
        h.bench(&format!("priority_update/{}/dependent", policy.name()), || {
            let p = schemes.on_dependent(black_box(&mut entry), 0.5, 13, m);
            m += 13;
            black_box(p);
        });
        h.bench(&format!("priority_update/{}/independent", policy.name()), || {
            schemes.on_independent();
        });
    }
}

/// `prio_heap`: raw run-queue operation costs.
fn prio_heap(h: &mut Harness) {
    let mut slots = ThreadSlots::new();
    let handles: Vec<_> = (0..1024u64).map(|i| slots.bind(ThreadId(i))).collect();
    h.bench("prio_heap/push_pop_1024", || {
        let mut heap = PrioHeap::new();
        for i in 0..1024u64 {
            heap.push(ThreadId(i), handles[i as usize], ((i * 2654435761) % 10_000) as f64);
        }
        while let Some(x) = heap.pop_max() {
            black_box(x);
        }
    });
    {
        let mut heap = PrioHeap::new();
        for i in 0..1024u64 {
            heap.push(ThreadId(i), handles[i as usize], ((i * 2654435761) % 10_000) as f64);
        }
        let mut i = 0u64;
        h.bench("prio_heap/update_key", || {
            i = (i * 16807 + 7) % 1024;
            heap.update(handles[i as usize], ((i * 31) % 5000) as f64);
            black_box(heap.peek_max());
        });
    }
}

/// `sched_dispatch`: one full scheduler dispatch cycle (pick →
/// dispatch → interval end with annotation dependents → re-ready) with
/// a large cold population in the global queue — the per-switch path
/// the paper prices at "only several instructions".
fn sched_dispatch(h: &mut Harness) {
    let mut s = LocalityScheduler::new(LocalityConfig::new(PolicyKind::Lff), 8192, 1).unwrap();
    let mut graph = SharingGraph::new();
    // t1 shares state with eight dependents.
    for d in 2..10u64 {
        graph.set(ThreadId(1), ThreadId(d), 0.5).unwrap();
    }
    // 256 ready threads; most stay cold in the global queue.
    for i in 1..=256u64 {
        s.on_spawn(ThreadId(i));
    }
    let interval =
        SanitizedInterval { refs: 400, hits: 100, misses: 300, confidence: 1.0, corrected: false };
    h.bench("sched_dispatch/cycle_256_ready", || {
        let tid = s.pick(0).expect("a ready thread");
        s.on_dispatch(0, tid);
        s.on_interval_end(0, tid, interval, &graph);
        s.on_ready(tid);
        black_box(tid);
    });
}

/// `engine_run`: end-to-end scheduler overhead on a yield-heavy
/// workload under FCFS and the locality policies, on engines
/// monomorphized over the concrete scheduler type (the fast path; the
/// boxed `Engine::new` form is the CLI's `--policy` boundary).
fn engine_run(h: &mut Harness) {
    let params = TasksParams { tasks: 64, footprint_lines: 40, periods: 6, overlap: 0.0 };
    h.bench("engine_run/tasks_small/fcfs", || {
        let mut e = Engine::with_scheduler(
            MachineConfig::ultra1(),
            FcfsScheduler::new(),
            EngineConfig::default(),
        )
        .unwrap();
        spawn_parallel(&mut e, &params);
        black_box(e.run().unwrap());
    });
    for policy in [PolicyKind::Lff, PolicyKind::Crt] {
        h.bench(&format!("engine_run/tasks_small/{}", policy.name()), || {
            let machine = MachineConfig::ultra1();
            let sched = LocalityScheduler::new(
                LocalityConfig::new(policy),
                machine.l2_lines(),
                machine.cpus,
            )
            .unwrap();
            let mut e = Engine::with_scheduler(machine, sched, EngineConfig::default()).unwrap();
            spawn_parallel(&mut e, &params);
            black_box(e.run().unwrap());
        });
    }
}

/// `model`: closed forms vs the (memoized) exact Markov chain.
fn model(h: &mut Harness) {
    let params = ModelParams::new(1024).unwrap();
    let model = FootprintModel::new(params);
    let chain = DependentChain::new(params, 0.5).unwrap();
    let mut n = 1u64;
    h.bench("model/closed_form_dependent", || {
        n = n % 10_000 + 1;
        black_box(model.expected_dependent(0.5, 100.0, n));
    });
    // The transient table is built once outside the timed region — the
    // memoized query path is what schedulers would actually hit.
    let table = chain.tabulate(16_384);
    let mut m = 1u64;
    h.bench("model/markov_chain_n100", || {
        m = m % 200 + 1;
        black_box(table.expected_after(100.0, black_box(m)));
    });
}

/// Serializes results as a flat, sorted JSON object.
pub fn to_json(results: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n");
    let mut first = true;
    for (name, ns) in results {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("  \"{name}\": {ns:.2}"));
    }
    out.push_str("\n}\n");
    out
}

/// Parses the flat `{"name": number}` JSON objects this harness emits.
///
/// # Errors
///
/// Returns a description of the first malformed entry.
pub fn parse_flat_json(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or_else(|| "expected a JSON object".to_string())?;
    let mut out = BTreeMap::new();
    for entry in body.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) =
            entry.split_once(':').ok_or_else(|| format!("malformed entry: {entry}"))?;
        let key = key.trim().trim_matches('"').to_string();
        let value: f64 = value.trim().parse().map_err(|e| format!("bad number for {key}: {e}"))?;
        out.insert(key, value);
    }
    Ok(out)
}

/// Medians below this are indistinguishable from zero at the merged
/// document's two-decimal ns resolution: the bench's operation is
/// cheaper than the timer can resolve (e.g. the free independent-thread
/// priority updates), so a before/after ratio is meaningless.
pub const DEGENERATE_NS: f64 = 0.005;

/// A bench whose baseline or after median is below [`DEGENERATE_NS`].
/// Its "speedup" carries no information, so the merge omits the field
/// and the gate reports the bench instead of failing on it.
#[derive(Debug, Clone, PartialEq)]
pub struct DegenerateBaseline {
    /// Bench name (`group/name`).
    pub name: String,
    /// Median before, ns/op.
    pub before_ns: f64,
    /// Median after, ns/op.
    pub after_ns: f64,
}

impl std::fmt::Display for DegenerateBaseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} has a ~0 ns median (before {:.2}, after {:.2}); \
             speedup is meaningless and excluded from gating",
            self.name, self.before_ns, self.after_ns
        )
    }
}

/// Speedups that participate in `--fail-under` gating, plus the benches
/// excluded because their medians are below the timer's resolution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpeedupSet {
    /// `(name, before ÷ after)` pairs, in name order.
    pub gated: Vec<(String, f64)>,
    /// Benches with a [`DegenerateBaseline`], in name order.
    pub degenerate: Vec<DegenerateBaseline>,
}

fn classify(name: &str, before_ns: f64, after_ns: f64, set: &mut SpeedupSet) {
    if before_ns < DEGENERATE_NS || after_ns < DEGENERATE_NS {
        set.degenerate.push(DegenerateBaseline { name: name.to_string(), before_ns, after_ns });
    } else {
        set.gated.push((name.to_string(), before_ns / after_ns));
    }
}

/// Merges before/after runs into the `BENCH_hotpath.json` document:
/// per-bench `before_ns`, `after_ns`, and `speedup` (before ÷ after).
/// Benches with a [`DegenerateBaseline`] get no `speedup` field, so
/// downstream `--check` gating never sees a spurious `0.00` ratio.
pub fn merge_report(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n  \"unit\": \"median ns/op\",\n  \"benches\": {\n");
    let names: Vec<&String> = before.keys().chain(after.keys()).collect();
    let mut names: Vec<&String> = {
        let mut v = names;
        v.sort();
        v.dedup();
        v
    };
    let last = names.pop();
    for name in names.iter().chain(last.iter()) {
        let b = before.get(*name);
        let a = after.get(*name);
        out.push_str(&format!("    \"{name}\": {{"));
        if let Some(b) = b {
            out.push_str(&format!("\"before_ns\": {b:.2}"));
        }
        if let Some(a) = a {
            if b.is_some() {
                out.push_str(", ");
            }
            out.push_str(&format!("\"after_ns\": {a:.2}"));
        }
        if let (Some(b), Some(a)) = (b, a) {
            if *b >= DEGENERATE_NS && *a >= DEGENERATE_NS {
                out.push_str(&format!(", \"speedup\": {:.2}", b / a));
            }
        }
        out.push('}');
        if Some(*name) != last {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  }\n}\n");
    out
}

/// Speedups (`before ÷ after`) for every bench present in both maps,
/// in name order, split into gated ratios and degenerate exclusions.
/// The merge path uses this to warn about regressions instead of
/// silently recording them.
pub fn speedups(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> SpeedupSet {
    let mut set = SpeedupSet::default();
    for (name, &b) in before {
        if let Some(&a) = after.get(name) {
            classify(name, b, a, &mut set);
        }
    }
    set
}

/// Extracts one numeric field (e.g. `"speedup":`) from a merged-report
/// bench line, `Ok(None)` if the field is absent.
fn merged_field(line: &str, name: &str, key: &str) -> Result<Option<f64>, String> {
    let Some((_, tail)) = line.split_once(&format!("\"{key}\":")) else { return Ok(None) };
    let num = tail.trim_start().split([',', '}']).next().unwrap_or("").trim();
    num.parse().map(Some).map_err(|e| format!("bad {key} for {name}: {e}"))
}

/// Extracts gating inputs from a merged report document (the
/// `BENCH_hotpath.json` format [`merge_report`] emits), so CI can gate
/// on the committed numbers without re-timing anything. Bench entries
/// without a `speedup` field but with a [`DegenerateBaseline`] pair of
/// medians come back in `degenerate`, so the gate can surface them as
/// typed warnings.
///
/// # Errors
///
/// Returns a description of the first malformed numeric field.
pub fn parse_merged_speedups(text: &str) -> Result<SpeedupSet, String> {
    let mut set = SpeedupSet::default();
    for line in text.lines() {
        if !line.contains("\"before_ns\":") && !line.contains("\"speedup\":") {
            continue;
        }
        let name = line
            .trim_start()
            .strip_prefix('"')
            .and_then(|h| h.split_once('"'))
            .map(|(n, _)| n.to_string())
            .ok_or_else(|| format!("bench entry without a name: {line}"))?;
        if let Some(speedup) = merged_field(line, &name, "speedup")? {
            set.gated.push((name, speedup));
        } else if let (Some(before_ns), Some(after_ns)) =
            (merged_field(line, &name, "before_ns")?, merged_field(line, &name, "after_ns")?)
        {
            if before_ns < DEGENERATE_NS || after_ns < DEGENERATE_NS {
                set.degenerate.push(DegenerateBaseline { name, before_ns, after_ns });
            }
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("a/b".to_string(), 12.5);
        m.insert("c".to_string(), 3.0);
        let parsed = parse_flat_json(&to_json(&m)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert!((parsed["a/b"] - 12.5).abs() < 1e-9);
    }

    #[test]
    fn merge_contains_speedup() {
        let mut b = BTreeMap::new();
        b.insert("x".to_string(), 100.0);
        let mut a = BTreeMap::new();
        a.insert("x".to_string(), 50.0);
        let doc = merge_report(&b, &a);
        assert!(doc.contains("\"speedup\": 2.00"), "{doc}");
    }

    #[test]
    fn speedups_cover_shared_benches_only() {
        let mut b = BTreeMap::new();
        b.insert("x".to_string(), 100.0);
        b.insert("gone".to_string(), 10.0);
        let mut a = BTreeMap::new();
        a.insert("x".to_string(), 200.0);
        a.insert("new".to_string(), 5.0);
        let s = speedups(&b, &a);
        assert_eq!(s.gated, vec![("x".to_string(), 0.5)]);
        assert!(s.degenerate.is_empty());
    }

    #[test]
    fn degenerate_baselines_are_excluded_not_zero() {
        let mut b = BTreeMap::new();
        b.insert("free".to_string(), 0.0);
        b.insert("real".to_string(), 100.0);
        let mut a = BTreeMap::new();
        a.insert("free".to_string(), 0.004);
        a.insert("real".to_string(), 50.0);
        let s = speedups(&b, &a);
        assert_eq!(s.gated, vec![("real".to_string(), 2.0)]);
        assert_eq!(s.degenerate.len(), 1);
        assert_eq!(s.degenerate[0].name, "free");
        assert!(s.degenerate[0].to_string().contains("excluded from gating"));

        // The merged document carries the medians but no speedup field,
        // so a later `--check` never sees a spurious 0.00 ratio.
        let doc = merge_report(&b, &a);
        assert!(doc.contains("\"free\": {\"before_ns\": 0.00, \"after_ns\": 0.00}"), "{doc}");
        let parsed = parse_merged_speedups(&doc).unwrap();
        assert_eq!(parsed.gated, vec![("real".to_string(), 2.0)]);
        assert_eq!(parsed.degenerate.len(), 1);
        assert_eq!(parsed.degenerate[0].name, "free");
    }

    #[test]
    fn merged_speedups_parse_back() {
        let mut b = BTreeMap::new();
        b.insert("fast".to_string(), 100.0);
        b.insert("slow".to_string(), 10.0);
        let mut a = BTreeMap::new();
        a.insert("fast".to_string(), 25.0);
        a.insert("slow".to_string(), 20.0);
        let doc = merge_report(&b, &a);
        let parsed = parse_merged_speedups(&doc).unwrap();
        assert_eq!(parsed.gated.len(), 2);
        assert!(parsed.gated.contains(&("fast".to_string(), 4.0)));
        assert!(parsed.gated.contains(&("slow".to_string(), 0.5)));
        assert!(parsed.degenerate.is_empty());
        assert!(parse_merged_speedups("{}\n").unwrap().gated.is_empty());
    }

    #[test]
    fn committed_report_round_trips_with_degenerates() {
        // The real BENCH_hotpath.json has two free-update benches whose
        // medians round to 0.00; they must come back as typed warnings,
        // not gate failures.
        let doc = "{\n  \"benches\": {\n    \
                   \"priority_update/lff/independent\": {\"before_ns\": 0.00, \"after_ns\": 0.00},\n    \
                   \"machine_access/l1_hit\": {\"before_ns\": 24.08, \"after_ns\": 12.95, \"speedup\": 1.86}\n  }\n}\n";
        let parsed = parse_merged_speedups(doc).unwrap();
        assert_eq!(parsed.gated, vec![("machine_access/l1_hit".to_string(), 1.86)]);
        assert_eq!(parsed.degenerate.len(), 1);
        assert_eq!(parsed.degenerate[0].name, "priority_update/lff/independent");
    }

    #[test]
    fn harness_runs_a_filtered_bench() {
        let mut h = Harness::new(true, Some("model/closed_form".to_string()));
        run_all(&mut h);
        assert_eq!(h.results().len(), 1);
        assert!(h.results()["model/closed_form_dependent"] > 0.0);
    }
}
