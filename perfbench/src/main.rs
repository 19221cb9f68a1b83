//! `perfbench --workload suite|policy|walk --seed N --seconds S --trace 0|1`
//!
//! Runs one workload's descriptor batch repeatedly for `S` seconds and
//! prints, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with no instrumentation;
//! with `--trace 1` they are the per-layer ones from the traced pass,
//! whose spans are written to `.bench_out/spans-<workload>.jsonl`.

use active_threads::{Engine, EngineConfig, RunReport, SchedPolicy};
use locality_perfbench::instrumented::{
    geometry_machine, monitor_machine, policy_machine, run_traced, walk_machine, Traced,
};
use locality_perfbench::spans::{self, Span, Timers, Tracer};
use locality_perfbench::{
    committed_digests, descriptors, golden_mismatches, output_digest, repo_root, sim_misses,
    small_args, unit_of, Desc, Workload, COMMITTED_SEED, EXACT, LAYER_METRICS,
};
use locality_repro::geometry::mean_abs_error;
use locality_repro::microbench::Monitored;
use locality_repro::runner::{
    self, GuardPolicy, Placement, PolicyId, RunKind, RunOutput, RunRequest, Runner, RunnerConfig,
};
use locality_repro::suite::{run_figures, Figure};
use locality_sim::{CpuStats, Machine};
use locality_workloads::App;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload suite|policy|walk [--seed N] [--seconds S] [--trace 0|1]";

/// Fewest measured batches per run, whatever `--seconds` says.
const MIN_BATCHES: usize = 3;
/// Set-up repetitions run after each measured batch: at least one, and
/// more until set-up has taken this share of the measured time so far…
const SETUP_SHARE: f64 = 0.05;
/// …but never more than this many in a run.
const MAX_SETUP_REPS: usize = 20_000;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = COMMITTED_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Opts { workload, seed, seconds, trace })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The system allocator, counting the bytes the process has allocated
/// and not yet freed, and their high-water mark. The process's resident
/// high-water mark would also count the executable's pages, which vary
/// with what the host's page cache holds.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is passed on to `System` unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// The heap high-water mark so far, in MiB.
fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Descriptor outcomes across the run, and why any failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// A check failure that is not one descriptor's (counted as a
    /// problem, never as an attempted descriptor).
    fn problem(&mut self, what: String) {
        self.problems.push(what);
    }
}

/// What each descriptor's output must hash to, once known.
struct Expected {
    digests: Vec<Option<String>>,
    /// Whether `digests` came from the committed file.
    committed: bool,
}

impl Expected {
    fn new(workload: Workload, descs: &[Desc], seed: u64) -> Result<Self, String> {
        let base = descriptors(workload, COMMITTED_SEED).map_err(|e| e.to_string())?;
        let same =
            base.len() == descs.len() && base.iter().zip(descs).all(|(a, b)| a.kind == b.kind);
        if seed != COMMITTED_SEED && !same {
            return Ok(Expected { digests: vec![None; descs.len()], committed: false });
        }
        let committed = committed_digests(workload)?;
        let digests = descs
            .iter()
            .map(|d| {
                committed
                    .get(&d.label)
                    .cloned()
                    .ok_or_else(|| format!("no committed digest for {}", d.label))
                    .map(Some)
            })
            .collect::<Result<_, _>>()?;
        Ok(Expected { digests, committed: true })
    }

    /// Checks one descriptor's output, adopting it as the reference if
    /// none is known yet. Returns what is wrong with it.
    fn mismatch(&mut self, i: usize, desc: &Desc, out: &RunOutput, pass: &str) -> Option<String> {
        let got = output_digest(out);
        match &self.digests[i] {
            Some(want) if *want != got => {
                Some(format!("{pass}: {} output {got} != expected {want}", desc.label))
            }
            Some(_) => None,
            None => {
                self.digests[i] = Some(got);
                None
            }
        }
    }

    /// Checks every output of one pass, counting each descriptor as one
    /// attempt.
    fn check_pass<'a>(
        &mut self,
        descs: &[Desc],
        outs: impl IntoIterator<Item = Result<&'a RunOutput, &'a String>>,
        pass: &str,
        extra: impl Fn(&Desc, &RunOutput) -> Option<String>,
        tally: &mut Tally,
    ) {
        for (i, (d, out)) in descs.iter().zip(outs).enumerate() {
            tally.attempted += 1;
            let problem = match out {
                Ok(out) => self.mismatch(i, d, out, pass).or_else(|| extra(d, out)),
                Err(e) => Some(format!("{pass}: {}: {e}", d.label)),
            };
            if let Some(p) = problem {
                tally.fail(p);
            }
        }
    }
}

/// A property the walk outputs must have under any seed: on every
/// associative geometry the per-set estimator beats the paper's closed
/// form for the walker and the independent sleeper.
fn walk_property(desc: &Desc, out: &RunOutput) -> Option<String> {
    match (&desc.kind, out) {
        (RunKind::Geometry(exp), RunOutput::GeometryPoints(points))
            if exp.ways > 1
                && matches!(
                    exp.monitored,
                    Monitored::Walker { .. } | Monitored::Independent { .. }
                ) =>
        {
            let per_set = mean_abs_error(points, |p| p.per_set);
            let closed = mean_abs_error(points, |p| p.closed_form);
            (per_set >= closed).then(|| {
                format!("{}: per-set error {per_set:.1} >= closed form {closed:.1}", desc.label)
            })
        }
        _ => None,
    }
}

/// Times building the engine or machine and spawning the threads of
/// every descriptor that has them; the rest are skipped. What was built
/// is dropped outside the timed part.
fn setup_once(descs: &[Desc]) -> Result<f64, String> {
    let engine = |machine| Engine::new(machine, SchedPolicy::Lff, EngineConfig::default());
    let mut secs = 0.0;
    for d in descs {
        let start = Instant::now();
        let built: Box<dyn std::any::Any> = match d.kind {
            RunKind::Policy { app, policy, cpus, scale } => {
                let mut engine =
                    Engine::new(policy_machine(cpus), policy.to_sched(), EngineConfig::default())
                        .map_err(|e| e.to_string())?;
                app.spawn(&mut engine, scale);
                Box::new(engine)
            }
            RunKind::Monitor { app, placement, seed } => {
                let mut engine = engine(monitor_machine(placement)).map_err(|e| e.to_string())?;
                app.spawn_single_seeded(&mut engine, seed);
                Box::new(engine)
            }
            RunKind::Walk(exp) => {
                Box::new(Machine::try_new(walk_machine(&exp)).map_err(|e| e.to_string())?)
            }
            RunKind::Geometry(exp) => {
                Box::new(Machine::try_new(geometry_machine(&exp)).map_err(|e| e.to_string())?)
            }
            _ => continue,
        };
        secs += start.elapsed().as_secs_f64();
        drop(built);
    }
    Ok(secs)
}

/// Set-up repetitions spread over the measured loop, so that they see
/// the same host conditions as the batches.
#[derive(Default)]
struct SetupReps {
    reps: Vec<f64>,
    spent: f64,
}

impl SetupReps {
    /// Repeats set-up until it has taken [`SETUP_SHARE`] of `measured`
    /// seconds, at least once per call until [`MAX_SETUP_REPS`].
    fn top_up(&mut self, descs: &[Desc], measured: f64) -> Result<(), String> {
        while self.reps.len() < MAX_SETUP_REPS {
            let start = Instant::now();
            self.reps.push(setup_once(descs)?);
            self.spent += start.elapsed().as_secs_f64();
            if self.spent >= SETUP_SHARE * measured {
                break;
            }
        }
        Ok(())
    }
}

/// One untraced batch of a serial workload through `runner::execute`:
/// each descriptor's wall time and output.
fn execute_batch(descs: &[Desc]) -> Vec<(f64, Result<RunOutput, String>)> {
    descs
        .iter()
        .map(|d| {
            let start = Instant::now();
            let out = runner::execute(&d.kind).map_err(|e| e.to_string());
            (start.elapsed().as_secs_f64(), out)
        })
        .collect()
}

/// One untraced `repro-all --scale small --jobs <jobs>` batch into a
/// fresh directory, with its artifacts checked against
/// `results/golden_small.sha256`. Returns the wall time.
fn suite_batch(descs: &[Desc], dir: &Path, jobs: usize, tally: &mut Tally) -> Result<f64, String> {
    // A leftover directory would serve cached results; start cold.
    let _ = std::fs::remove_dir_all(dir);
    let args = small_args(dir.to_path_buf(), jobs);
    let start = Instant::now();
    let res = run_figures(&args, &Figure::ALL);
    let wall = start.elapsed().as_secs_f64();
    tally.attempted += descs.len() as u64;
    let problem = match res {
        Err(e) => Some(format!("suite batch failed: {e}")),
        Ok(_) => {
            let bad = golden_mismatches(dir)?;
            (!bad.is_empty()).then(|| format!("artifacts differ from golden_small.sha256: {bad:?}"))
        }
    };
    if let Some(p) = problem {
        tally.failed += descs.len() as u64;
        tally.problem(p);
    }
    Ok(wall)
}

/// Each descriptor's output of a finished suite batch, read back through
/// the runner's own result cache in `dir`.
fn read_back_suite(descs: &[Desc], dir: &Path) -> Result<Vec<RunOutput>, String> {
    let runner = Runner::new(RunnerConfig {
        jobs: 1,
        cache_dir: Some(dir.join(".cache")),
        guard: GuardPolicy::default(),
    });
    let reqs: Vec<RunRequest> =
        descs.iter().map(|d| RunRequest::new(d.label.clone(), d.kind)).collect();
    let outs = runner.run_all(&reqs).map_err(|e| e.to_string())?;
    if runner.fresh_runs() > 0 {
        return Err(format!("{} suite results were missing from the cache", runner.fresh_runs()));
    }
    Ok(outs)
}

/// One traced batch: the descriptors spread over `jobs` workers the way
/// `Runner::run_all` spreads them (a shared next-index counter), each
/// inside a `repro.descriptor` span.
fn traced_batch(descs: &[Desc], jobs: usize) -> (f64, Vec<Result<Traced, String>>, Vec<Span>) {
    let epoch = Instant::now();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<Traced, String>>>> =
        descs.iter().map(|_| Mutex::new(None)).collect();
    let per_worker: Vec<Vec<Span>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs.min(descs.len()).max(1))
            .map(|worker| {
                let (next, slots) = (&next, &slots);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(epoch, worker);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(d) = descs.get(i) else { break };
                        tracer.set_desc(i);
                        tracer.begin("repro.descriptor", d.label.clone());
                        let res = run_traced(&d.kind, &mut tracer).map_err(|e| e.to_string());
                        tracer.end();
                        *slots[i].lock().expect("no worker panics while holding a slot") =
                            Some(res);
                    }
                    tracer.into_spans()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("traced worker panicked")).collect()
    });
    let wall = epoch.elapsed().as_secs_f64();
    let outs = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no worker panics while holding a slot")
                .unwrap_or_else(|| Err("descriptor never ran".to_string()))
        })
        .collect();
    (wall, outs, spans::merge(per_worker))
}

/// Exact counters of a set of runs.
fn exact_counts<'a>(
    reports: impl Iterator<Item = &'a RunReport>,
    cpus: impl Iterator<Item = &'a CpuStats>,
) -> BTreeMap<&'static str, u64> {
    let mut m = BTreeMap::new();
    let mut add = |k: &'static str, v: u64| *m.entry(k).or_insert(0) += v;
    for c in cpus {
        add("sim.l1d_refs", c.l1d_refs);
        add("sim.l1d_misses", c.l1d_misses);
        add("sim.l2_refs", c.l2_refs);
        add("sim.l2_hits", c.l2_hits);
        add("sim.l2_misses", c.l2_misses);
        add("sim.l2_misses_remote", c.l2_misses_remote);
        add("sim.invalidations", c.invalidations);
        add("sim.tlb_misses", c.tlb_misses);
        add("sim.tlb_walk_cycles", c.tlb_walk_cycles);
    }
    for r in reports {
        add("core.prio_flops", r.priority_flops.0);
        add("core.prio_lookups", r.priority_flops.1);
        add("core.corrected_intervals", r.corrected_intervals);
        add("core.degraded_intervals", r.degraded_intervals);
        add("threads.switches", r.context_switches);
        add("threads.steals", r.steals);
    }
    m
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The reproduced result: LFF/CRT speedup and miss cut over FCFS on the
/// Figure 8/9 cells, Figure 5's model error, and the per-set estimator's
/// error on associative geometries.
fn result_metrics(descs: &[Desc], outs: &[&RunOutput], m: &mut BTreeMap<String, f64>) {
    let mut fcfs = BTreeMap::new();
    for (d, out) in descs.iter().zip(outs) {
        if let (RunKind::Policy { app, policy: PolicyId::Fcfs, cpus, .. }, RunOutput::Report(r)) =
            (&d.kind, out)
        {
            fcfs.insert((app.name(), *cpus), r);
        }
    }
    for (policy, name) in [(PolicyId::Lff, "lff"), (PolicyId::Crt, "crt")] {
        let (mut log_speedup, mut cut, mut n) = (0.0, 0.0, 0.0);
        for (d, out) in descs.iter().zip(outs) {
            let (RunKind::Policy { app, policy: p, cpus, .. }, RunOutput::Report(r)) =
                (&d.kind, out)
            else {
                continue;
            };
            let Some(base) = fcfs.get(&(app.name(), *cpus)) else { continue };
            if *p == policy && (d.figure == "fig8" || d.figure == "fig9") {
                log_speedup += r.speedup_over(base).ln();
                cut += r.misses_eliminated_vs(base);
                n += 1.0;
            }
        }
        if n > 0.0 {
            m.insert(format!("result.{name}_speedup"), (log_speedup / n).exp());
            m.insert(format!("result.{name}_miss_cut"), cut / n);
        }
    }
    let errs: Vec<f64> = descs
        .iter()
        .zip(outs)
        .filter_map(|(d, out)| match (&d.kind, out) {
            (
                RunKind::Monitor { app, placement: Placement::BinHopping, .. },
                RunOutput::Trace(t),
            ) if App::FIG5.contains(app) => Some(t.mean_rel_error().abs()),
            _ => None,
        })
        .collect();
    if !errs.is_empty() {
        m.insert("result.model_rel_err".into(), errs.iter().sum::<f64>() / errs.len() as f64);
    }
    let maes: Vec<f64> = descs
        .iter()
        .zip(outs)
        .filter_map(|(d, out)| match (&d.kind, out) {
            (RunKind::Geometry(exp), RunOutput::GeometryPoints(p)) if exp.ways > 1 => {
                Some(mean_abs_error(p, |q| q.per_set))
            }
            _ => None,
        })
        .collect();
    if !maes.is_empty() {
        m.insert("result.perset_mae_lines".into(), maes.iter().sum::<f64>() / maes.len() as f64);
    }
}

/// Per-layer metrics of one traced batch.
fn layer_metrics(
    descs: &[Desc],
    traced: &[Traced],
    spans: &[Span],
    wall: f64,
    jobs: usize,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let sum = |name: &str, label: Option<&str>| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name && label.is_none_or(|l| s.label == l))
            .map(Span::secs)
            .sum()
    };

    let desc_spans: Vec<&Span> = spans.iter().filter(|s| s.name == "repro.descriptor").collect();
    let desc_total: f64 = desc_spans.iter().map(|s| s.secs()).sum();
    m.insert("runner.descriptors".into(), descs.len() as f64);
    m.insert(
        "runner.critical_path_s".into(),
        desc_spans.iter().map(|s| s.secs()).fold(0.0, f64::max),
    );
    m.insert("runner.parallel_eff".into(), ratio(desc_total, jobs as f64 * wall));
    for s in &desc_spans {
        *m.entry(format!("runner.figure_s.{}", descs[s.desc].figure)).or_default() += s.secs();
    }

    for (k, v) in exact_counts(
        traced.iter().filter_map(|t| t.report.as_ref()),
        traced.iter().flat_map(|t| t.cpu.iter()),
    ) {
        m.insert(k.to_string(), v as f64);
    }
    let l2_hits = m.get("sim.l2_hits").copied().unwrap_or(0.0);
    let l2_refs = m.get("sim.l2_refs").copied().unwrap_or(0.0);
    m.insert("sim.l2_hit_ratio".into(), ratio(l2_hits, l2_refs));

    // Every accumulated call happens inside some top-level span.
    let mut total = Timers::default();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        total.add(&s.inner);
    }
    let runs: Vec<&Span> = spans.iter().filter(|s| s.name == "threads.run").collect();
    let monitored_run_s: f64 =
        runs.iter().filter(|s| s.inner.fp_query.calls > 0).map(|s| s.secs()).sum();
    m.insert("sim.fp_queries".into(), total.fp_query.calls as f64);
    m.insert("sim.fp_query_s".into(), total.fp_query.secs());
    m.insert(
        "sim.fp_query_us".into(),
        ratio(total.fp_query.secs() * 1e6, total.fp_query.calls as f64),
    );
    m.insert("sim.fp_query_share".into(), ratio(total.fp_query.secs(), monitored_run_s));
    m.insert("sim.accesses".into(), total.access.calls as f64);
    for geometry in ["8192x1", "4096x2", "2048x4", "1024x8", "1x8192"] {
        let (ns, calls) = spans
            .iter()
            .filter(|s| s.name == "repro.walk" && s.label == geometry)
            .fold((0u64, 0u64), |(ns, calls), s| {
                (ns + s.inner.access.ns, calls + s.inner.access.calls)
            });
        m.insert(format!("sim.access_ns.{geometry}"), ratio(ns as f64, calls as f64));
    }
    m.insert("sim.fp_lines_s".into(), total.fp_lines.secs());
    m.insert("sim.machine_new_s".into(), sum("sim.machine_new", None));
    m.insert("core.perset_predict_s".into(), total.perset.secs());

    let run_s: f64 = runs.iter().map(|s| s.secs()).sum();
    let in_runs = |f: fn(&Timers) -> spans::Acc| -> (f64, u64) {
        runs.iter().fold((0.0, 0), |(secs, calls), s| {
            let a = f(&s.inner);
            (secs + a.secs(), calls + a.calls)
        })
    };
    let (sched_s, sched_calls) = in_runs(|t| t.sched);
    let (hook_s, _) = in_runs(|t| t.hook);
    m.insert("threads.engine_new_s".into(), sum("threads.engine_new", None));
    m.insert("threads.run_s".into(), run_s);
    m.insert("threads.sched_s".into(), sched_s);
    m.insert("threads.sched_share".into(), ratio(sched_s, run_s));
    m.insert("threads.sched_calls".into(), sched_calls as f64);
    m.insert("threads.sched.interval_end_s".into(), in_runs(|t| t.sched_interval_end).0);
    m.insert("threads.sched.pick_s".into(), in_runs(|t| t.sched_pick).0);
    m.insert("threads.residual_s".into(), run_s - sched_s - hook_s);
    m.insert("repro.hook_s".into(), hook_s);
    for app in
        ["tasks", "merge", "photo", "tsp", "barnes", "fmm", "ocean", "typechecker", "raytrace"]
    {
        m.insert(format!("workloads.spawn_s.{app}"), sum("workloads.spawn", Some(app)));
    }

    let mut selfs: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(spans::self_ns(spans)) {
        *selfs.entry(s.layer()).or_default() += own as f64 * 1e-9;
    }
    for (layer, acc) in total.by_layer() {
        *selfs.entry(layer).or_default() += acc.secs();
    }
    for (layer, secs) in selfs {
        m.insert(format!("self_s.{layer}"), secs);
    }

    let outs: Vec<&RunOutput> = traced.iter().map(|t| &t.out).collect();
    result_metrics(descs, &outs, &mut m);
    m.insert("bench.spans".into(), spans.len() as f64);
    m
}

/// The result line. Every metric is a ratio guarded against a zero
/// base, so values are finite and `{v}` is a JSON number.
fn result_line(correct: bool, tally: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn run(opts: &Opts) -> Result<String, String> {
    let workload = opts.workload;
    let descs = descriptors(workload, opts.seed).map_err(|e| e.to_string())?;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let jobs = if workload == Workload::Suite { nproc } else { 1 };
    let out_dir: PathBuf = repo_root().join(".bench_out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    eprintln!(
        "perfbench: workload {} seed {} ({} descriptors, {jobs} of {nproc} cpus, trace {})",
        workload.name(),
        opts.seed,
        descs.len(),
        u8::from(opts.trace)
    );

    let mut tally = Tally::default();
    let mut expected = Expected::new(workload, &descs, opts.seed)?;
    type Check = fn(&Desc, &RunOutput) -> Option<String>;
    let extra: Check = if workload == Workload::Walk { walk_property } else { |_, _| None };
    let mut untraced_counts: Option<BTreeMap<&'static str, u64>> = None;
    let mut batch_misses = 0u64;

    let mut setup = SetupReps::default();
    let mut heap_mb = 0.0;
    // Each serial descriptor's fastest execution in the run.
    let mut fastest = vec![f64::INFINITY; descs.len()];

    // The measured loop: batches until their summed wall time reaches
    // `--seconds`. A traced run alternates untraced and traced batches
    // so both see the same host conditions.
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced_metrics: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut traced_counts: Option<BTreeMap<&'static str, u64>> = None;
    let mut all_spans: Vec<Vec<Span>> = Vec::new();
    let min_batches = if opts.trace { 1 } else { MIN_BATCHES };
    let measured = |u: &[f64], t: &[f64]| u.iter().chain(t).sum::<f64>();
    while untraced_walls.len() < min_batches
        || measured(&untraced_walls, &traced_walls) < opts.seconds
    {
        let wall = if workload == Workload::Suite {
            let dir = out_dir.join(format!("suite-{}", std::process::id()));
            let read_back = untraced_walls.is_empty();
            let wall = suite_batch(&descs, &dir, jobs, &mut tally)?;
            if read_back {
                let outs = read_back_suite(&descs, &dir)?;
                batch_misses = outs.iter().map(sim_misses).sum();
                let mut read = Tally::default();
                expected.check_pass(&descs, outs.iter().map(Ok), "suite", extra, &mut read);
                tally.failed += read.failed;
                tally.problems.extend(read.problems);
            }
            let _ = std::fs::remove_dir_all(&dir);
            wall
        } else {
            let (times, outs): (Vec<f64>, Vec<_>) = execute_batch(&descs).into_iter().unzip();
            for (best, t) in fastest.iter_mut().zip(&times) {
                *best = best.min(*t);
            }
            expected.check_pass(
                &descs,
                outs.iter().map(Result::as_ref),
                "untraced",
                extra,
                &mut tally,
            );
            let ok: Vec<&RunOutput> = outs.iter().filter_map(|o| o.as_ref().ok()).collect();
            batch_misses = ok.iter().map(|o| sim_misses(o)).sum();
            if workload == Workload::Policy {
                let reports: Vec<&RunReport> = ok
                    .iter()
                    .filter_map(|o| if let RunOutput::Report(r) = o { Some(r) } else { None })
                    .collect();
                let counts = exact_counts(
                    reports.iter().copied(),
                    reports.iter().flat_map(|r| r.per_cpu.iter()),
                );
                match &untraced_counts {
                    Some(prev) if *prev != counts => {
                        tally.problem("exact counts changed between untraced batches".into());
                    }
                    _ => untraced_counts = Some(counts),
                }
            }
            times.iter().sum()
        };
        untraced_walls.push(wall);
        if untraced_walls.len() == 1 {
            // The high-water mark of one whole batch; later batches repeat
            // it (on `suite`, with peaks that vary with how the workers
            // interleave).
            heap_mb = peak_heap_mb();
        }
        if !opts.trace {
            // Set-up is first timed after the first batch, so one-time
            // lazy initialization is not charged to it.
            setup.top_up(&descs, measured(&untraced_walls, &traced_walls))?;
        }

        if opts.trace {
            let (wall, outs, spans) = traced_batch(&descs, jobs);
            expected.check_pass(
                &descs,
                outs.iter().map(|o| o.as_ref().map(|t| &t.out)),
                "traced",
                extra,
                &mut tally,
            );
            let traced: Vec<Traced> = outs.into_iter().filter_map(Result::ok).collect();
            if traced.len() == descs.len() {
                let metrics = layer_metrics(&descs, &traced, &spans, wall, jobs);
                let counts: BTreeMap<&'static str, u64> = EXACT
                    .iter()
                    .map(|&k| (k, metrics.get(k).copied().unwrap_or(0.0) as u64))
                    .collect();
                match &traced_counts {
                    Some(prev) if *prev != counts => {
                        tally.problem("exact counts changed between traced batches".into());
                    }
                    _ => traced_counts = Some(counts),
                }
                traced_metrics.push(metrics);
            }
            traced_walls.push(wall);
            all_spans.push(spans);
        }
    }

    // Outputs under a seed no digest covers: the instrumented runs must
    // agree with the shipped path.
    if !expected.committed && !opts.trace {
        let (_, outs, _) = traced_batch(&descs, jobs);
        expected.check_pass(
            &descs,
            outs.iter().map(|o| o.as_ref().map(|t| &t.out)),
            "traced",
            extra,
            &mut tally,
        );
    }
    if let (Some(untraced), Some(traced)) = (&untraced_counts, &traced_counts) {
        for (k, v) in untraced {
            if traced.get(k) != Some(v) {
                tally.problem(format!("{k}: untraced {v} != traced {:?}", traced.get(k)));
            }
        }
    }
    if opts.trace {
        let path = out_dir.join(format!("spans-{}.jsonl", workload.name()));
        spans::write_jsonl(&path, &all_spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }

    for p in &tally.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    tally.failed = tally.failed.min(tally.attempted);
    let correct = tally.failed == 0 && tally.problems.is_empty();
    // A suite batch runs its descriptors two or more at a time inside the
    // runner, so only the whole batch can be timed from outside: its
    // median. A serial batch is the sum of its descriptors, each timed at
    // its fastest in the run: a shared host has phases, up to minutes
    // long, in which it runs everything slower, and this reads the
    // program's cost as long as part of the run fell outside them (see
    // README.md).
    let batch_median = median(&untraced_walls);
    let wall_s = if workload == Workload::Suite { batch_median } else { fastest.iter().sum() };
    eprintln!(
        "perfbench: {} untraced batches, wall s {:?}, {} set-up repetitions",
        untraced_walls.len(),
        untraced_walls.iter().map(|w| (w * 1e3).round() / 1e3).collect::<Vec<_>>(),
        setup.reps.len()
    );
    if !opts.trace {
        let metrics = [
            ("wall_s", wall_s, "s"),
            ("setup_s", median(&setup.reps), "s"),
            ("sim_misses_per_s", ratio(batch_misses as f64, wall_s), "1/s"),
            ("peak_heap_mb", heap_mb, "MB"),
        ];
        return Ok(result_line(correct, &tally, &metrics));
    }

    let mut layer: BTreeMap<String, f64> = BTreeMap::new();
    for name in LAYER_METRICS {
        let values: Vec<f64> =
            traced_metrics.iter().map(|m| m.get(*name).copied().unwrap_or(0.0)).collect();
        layer.insert(name.to_string(), median(&values));
    }
    layer.insert("bench.trace_overhead".into(), ratio(median(&traced_walls), batch_median) - 1.0);
    layer.insert("bench.failed_frac".into(), ratio(tally.failed as f64, tally.attempted as f64));
    layer.insert("bench.timer_ns".into(), spans::timer_overhead_ns());
    let metrics: Vec<(&str, f64, &str)> =
        LAYER_METRICS.iter().map(|&name| (name, layer[name], unit_of(name))).collect();
    Ok(result_line(correct, &tally, &metrics))
}

/// Prints the `digests.txt` lines of a workload's committed-seed
/// outputs, for regenerating the file after a deliberate change of
/// results.
fn print_digests(workload: Workload) -> Result<(), String> {
    for d in descriptors(workload, COMMITTED_SEED).map_err(|e| e.to_string())? {
        let out = runner::execute(&d.kind).map_err(|e| format!("{}: {e}", d.label))?;
        println!("{} {} {}", workload.name(), output_digest(&out), d.label);
    }
    Ok(())
}

fn main() {
    let mut args = std::env::args().skip(1);
    if let (Some(flag), Some(name), None) = (args.next(), args.next(), args.next()) {
        if flag == "--print-digests" {
            let res = Workload::parse(&name)
                .ok_or(format!("unknown workload '{name}'"))
                .and_then(print_digests);
            if let Err(msg) = res {
                eprintln!("perfbench: {msg}");
                std::process::exit(1);
            }
            return;
        }
    }
    let opts = match parse_opts() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(line) => println!("{line}"),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(1);
        }
    }
}
