//! Instrumented copies of the library functions `runner::execute` calls,
//! for the traced pass. Each makes the same public calls in the same
//! order as the function it mirrors, with spans and timers around the
//! calls into each layer. The equivalence tests (`tests/equivalence.rs`)
//! hold every copy's output identical to `runner::execute`, so the
//! per-layer numbers describe the shipped code path.

use crate::spans::{Acc, Timers, TimersRef, TimingScheduler, Tracer};
use active_threads::events::EngineView;
use active_threads::sched::{FcfsScheduler, LocalityConfig, LocalityScheduler};
use active_threads::{
    Engine, EngineConfig, EngineHook, RunReport, SchedPolicy, Scheduler, SwitchEvent, ThreadId,
};
use locality_core::perset::{predict_after, PerSetCase};
use locality_core::{FootprintModel, ModelParams, PolicyKind};
use locality_repro::geometry::{GeometryExperiment, GeometryPoint};
use locality_repro::microbench::{Monitored, WalkExperiment, WalkPoint};
use locality_repro::monitor::{MonitorTrace, Sample};
use locality_repro::perf::PerfApp;
use locality_repro::runner::{self, Placement, PolicyId, RunKind, RunOutput};
use locality_repro::{ReproError, Scale};
use locality_sim::{
    AccessKind, CacheGeometry, CpuStats, FootprintScratch, Machine, MachineConfig, VAddr,
};
use locality_workloads::App;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

const LINE: u64 = 64;
const WALKER_LINES: u64 = 8192 * 64;

/// A traced descriptor's output plus the exact counters behind it.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The output, as `runner::execute` returns it.
    pub out: RunOutput,
    /// The engine report of a descriptor that ran an engine.
    pub report: Option<RunReport>,
    /// Per-processor simulator counters of the run.
    pub cpu: Vec<CpuStats>,
}

/// Runs one descriptor under `tracer`: the kinds with an instrumented
/// copy are split into layer spans, the others run through
/// `runner::execute` inside one opaque span.
///
/// # Errors
///
/// Propagates the run's error.
pub fn run_traced(kind: &RunKind, tracer: &mut Tracer) -> Result<Traced, ReproError> {
    match *kind {
        RunKind::Policy { app, policy, cpus, scale } => {
            let report = policy_cell(app, policy, cpus, scale, tracer)?;
            Ok(Traced {
                cpu: report.per_cpu.clone(),
                report: Some(report.clone()),
                out: RunOutput::Report(report),
            })
        }
        RunKind::Monitor { app, placement, seed } => {
            let (trace, report) = monitor(app, placement, seed, tracer)?;
            Ok(Traced {
                cpu: report.per_cpu.clone(),
                report: Some(report),
                out: RunOutput::Trace(trace),
            })
        }
        RunKind::Walk(exp) => {
            let (points, stats) = walk(&exp, tracer);
            Ok(Traced { out: RunOutput::Points(points), report: None, cpu: vec![stats] })
        }
        RunKind::Geometry(exp) => {
            let (points, stats) = geometry(&exp, tracer);
            Ok(Traced { out: RunOutput::GeometryPoints(points), report: None, cpu: vec![stats] })
        }
        _ => {
            let out = tracer.span("unattributed.execute", "", || runner::execute(kind))?;
            let report = match &out {
                RunOutput::Report(r) => Some(r.clone()),
                RunOutput::FaultCell(c) => Some(c.report.clone()),
                RunOutput::ChaosCell(c) => Some(c.report.clone()),
                _ => None,
            };
            let cpu = report.as_ref().map(|r| r.per_cpu.clone()).unwrap_or_default();
            Ok(Traced { out, report, cpu })
        }
    }
}

/// The scheduler `Engine::new` builds for `policy`, wrapped in a timer.
fn timed_scheduler(
    policy: SchedPolicy,
    machine: &MachineConfig,
    timers: TimersRef,
) -> Result<Box<dyn Scheduler>, ReproError> {
    let (l2_lines, cpus) = (machine.l2_lines(), machine.cpus);
    let locality = |config: LocalityConfig| -> Result<Box<dyn Scheduler>, ReproError> {
        Ok(Box::new(LocalityScheduler::new(config, l2_lines, cpus)?))
    };
    let inner: Box<dyn Scheduler> = match policy {
        SchedPolicy::Fcfs => Box::new(FcfsScheduler::new()),
        SchedPolicy::Lff => locality(LocalityConfig::new(PolicyKind::Lff))?,
        SchedPolicy::Crt => locality(LocalityConfig::new(PolicyKind::Crt))?,
        SchedPolicy::LffNoAnnotations => locality(LocalityConfig {
            use_annotations: false,
            ..LocalityConfig::new(PolicyKind::Lff)
        })?,
        SchedPolicy::CrtNoAnnotations => locality(LocalityConfig {
            use_annotations: false,
            ..LocalityConfig::new(PolicyKind::Crt)
        })?,
        SchedPolicy::Custom(config) => locality(config)?,
    };
    Ok(Box::new(TimingScheduler::new(inner, timers)))
}

/// `Engine::new` with the scheduler wrapped in a timer, inside a
/// `threads.engine_new` span.
fn timed_engine(
    machine: MachineConfig,
    policy: SchedPolicy,
    tracer: &mut Tracer,
) -> Result<Engine, ReproError> {
    let timers = tracer.timers();
    tracer.span("threads.engine_new", "", || {
        let config = EngineConfig::default();
        let machine = config.apply_overrides(machine);
        let sched = timed_scheduler(policy, &machine, timers)?;
        Ok(Engine::with_scheduler(machine, sched, config)?)
    })
}

/// The machine of a policy cell (as `perf::run_cell` builds it).
pub fn policy_machine(cpus: usize) -> MachineConfig {
    if cpus == 1 {
        MachineConfig::ultra1()
    } else {
        MachineConfig::enterprise5000(cpus)
    }
}

/// The machine of a monitored run (as `monitor::monitor_app_seeded`
/// builds it).
pub fn monitor_machine(placement: Placement) -> MachineConfig {
    MachineConfig::ultra1().with_placement(placement.to_sim())
}

/// The machine of a Figure 4 walk (as `microbench::run` builds it).
pub fn walk_machine(exp: &WalkExperiment) -> MachineConfig {
    let mut config = MachineConfig::ultra1();
    let ways = exp.associativity.max(1);
    let l2_lines = config.hierarchy.l2.lines();
    config.hierarchy.l2 =
        CacheGeometry { sets: l2_lines / ways, ways, line: config.hierarchy.l2.line };
    config
}

/// The machine of a geometry cell (as `geometry::run` builds it).
pub fn geometry_machine(exp: &GeometryExperiment) -> MachineConfig {
    MachineConfig::ultra1().with_l2_geometry(exp.geometry()).with_page_size(exp.page_bytes)
}

/// Mirrors `perf::run_cell`.
fn policy_cell(
    app: PerfApp,
    policy: PolicyId,
    cpus: usize,
    scale: Scale,
    tracer: &mut Tracer,
) -> Result<RunReport, ReproError> {
    let mut engine = timed_engine(policy_machine(cpus), policy.to_sched(), tracer)?;
    tracer.span("workloads.spawn", app.name(), || app.spawn(&mut engine, scale));
    Ok(tracer.span("threads.run", "", || engine.run())?)
}

/// The monitoring hook of `monitor::monitor_app_seeded`, timed.
struct TimedMonitorHook {
    tid: ThreadId,
    out: Rc<RefCell<Vec<Sample>>>,
    cum_misses: u64,
    scratch: FootprintScratch,
    timers: TimersRef,
}

impl EngineHook for TimedMonitorHook {
    fn on_context_switch(&mut self, ev: &SwitchEvent, view: &EngineView<'_>) {
        let start = Instant::now();
        if ev.tid != self.tid {
            self.timers.borrow_mut().hook.add_since(start);
            return;
        }
        self.cum_misses += ev.delta.misses;
        let scan = Instant::now();
        view.machine.l2_footprints_into(ev.cpu, &mut self.scratch);
        let mut scanned = Acc::default();
        scanned.add_since(scan);
        let observed = self.scratch.lines(self.tid) as f64;
        let predicted = view.sched.expected_footprint(ev.cpu, self.tid).unwrap_or(0.0);
        let instructions = view.machine.cpu_stats(ev.cpu).instructions;
        self.out.borrow_mut().push(Sample {
            misses: self.cum_misses,
            instructions,
            observed,
            predicted,
        });
        let mut t = self.timers.borrow_mut();
        t.fp_query.add(scanned);
        t.hook.add_since(start);
    }
}

/// Mirrors `monitor::monitor_app_seeded`.
fn monitor(
    app: App,
    placement: Placement,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(MonitorTrace, RunReport), ReproError> {
    let mut engine = timed_engine(monitor_machine(placement), SchedPolicy::Lff, tracer)?;
    let tid =
        tracer.span("workloads.spawn", app.name(), || app.spawn_single_seeded(&mut engine, seed));
    let out = Rc::new(RefCell::new(Vec::new()));
    engine.add_hook(Box::new(TimedMonitorHook {
        tid,
        out: Rc::clone(&out),
        cum_misses: 0,
        scratch: FootprintScratch::default(),
        timers: tracer.timers(),
    }));
    let report = tracer.span("threads.run", "", || engine.run())?;
    let samples = out.borrow().clone();
    Ok((MonitorTrace { app: app.name(), samples }, report))
}

/// A machine driven directly by a walk, with its calls timed.
struct TimedMachine {
    machine: Machine,
    timers: Timers,
}

impl TimedMachine {
    /// Builds the machine inside a `sim.machine_new` span; also returns
    /// its L2 geometry label.
    fn new(config: MachineConfig, tracer: &mut Tracer) -> (Self, String) {
        let geometry = format!("{}x{}", config.hierarchy.l2.sets, config.hierarchy.l2.ways);
        // The same unwrap as the mirrored functions: every shipped
        // descriptor's geometry is a valid power of two.
        #[allow(clippy::unwrap_used)]
        let machine =
            tracer.span("sim.machine_new", geometry.clone(), || Machine::try_new(config).unwrap());
        (TimedMachine { machine, timers: Timers::default() }, geometry)
    }

    #[inline]
    fn access(&mut self, va: VAddr) {
        let start = Instant::now();
        self.machine.access(0, va, AccessKind::Read);
        self.timers.access.add_since(start);
    }

    fn footprint(&mut self, tid: ThreadId) -> f64 {
        let start = Instant::now();
        let lines = self.machine.l2_footprint_lines(0, tid);
        self.timers.fp_lines.add_since(start);
        lines as f64
    }

    fn prefill(&mut self, region: VAddr, lines: u64) {
        self.machine.set_running(0, Some(ThreadId(0)));
        for l in 0..lines {
            self.access(region.offset(l * LINE));
        }
    }

    /// Adds this walk's timers to the worker's, so the enclosing span
    /// sees them.
    fn flush(&mut self, timers: &TimersRef) {
        timers.borrow_mut().add(&std::mem::take(&mut self.timers));
    }
}

/// Mirrors `microbench::run`.
fn walk(exp: &WalkExperiment, tracer: &mut Tracer) -> (Vec<WalkPoint>, CpuStats) {
    let (mut m, geometry) = TimedMachine::new(walk_machine(exp), tracer);
    let timers = tracer.timers();
    tracer.begin("repro.walk", geometry);
    #[allow(clippy::unwrap_used)]
    let model = FootprintModel::new(ModelParams::new(m.machine.l2_lines()).unwrap());
    let n = model.params().n();
    let walker = ThreadId(1);
    let sleeper = ThreadId(2);
    let walker_region = m.machine.alloc(WALKER_LINES * LINE, LINE);
    m.machine.register_region(walker, walker_region, WALKER_LINES * LINE);
    let (monitored_tid, predict): (ThreadId, Box<dyn Fn(f64, u64) -> f64>) = match exp.monitored {
        Monitored::Walker { s0 } => {
            m.prefill(walker_region, s0 as u64);
            (walker, Box::new(move |s, k| model.expected_blocking(s, k)))
        }
        Monitored::Independent { s0 } => {
            let bytes = (s0 as u64).max(1) * LINE;
            let region = m.machine.alloc(bytes, LINE);
            m.machine.register_region(sleeper, region, bytes);
            m.prefill(region, s0 as u64);
            (sleeper, Box::new(move |s, k| model.expected_independent(s, k)))
        }
        Monitored::Dependent { q, s0 } => {
            let bytes = ((WALKER_LINES as f64 * q) as u64) * LINE;
            m.machine.register_region(sleeper, walker_region, bytes);
            m.prefill(walker_region, s0 as u64);
            (sleeper, Box::new(move |s, k| model.expected_dependent(q, s, k)))
        }
    };
    m.machine.set_running(0, Some(walker));
    #[allow(clippy::expect_used)]
    m.machine.pic_take_interval(0).expect("clean machine read");
    let pic_base = m.machine.pic(0).misses();
    let s0_observed = m.footprint(monitored_tid);
    let mut rng = StdRng::seed_from_u64(exp.seed);
    let mut points = vec![WalkPoint { misses: 0, observed: s0_observed, predicted: s0_observed }];
    let mut misses: u64 = 0;
    let mut next_sample = exp.sample_every;
    while misses < exp.total_misses {
        let line = rng.gen_range(0..WALKER_LINES);
        m.access(walker_region.offset(line * LINE));
        misses = m.machine.pic(0).misses().wrapping_sub(pic_base);
        if misses >= next_sample {
            let observed = m.footprint(monitored_tid);
            points.push(WalkPoint {
                misses,
                observed,
                predicted: predict(s0_observed, misses).clamp(0.0, n),
            });
            next_sample += exp.sample_every;
        }
    }
    m.flush(&timers);
    tracer.end();
    (points, m.machine.cpu_stats(0))
}

/// Mirrors `geometry::run`.
fn geometry(exp: &GeometryExperiment, tracer: &mut Tracer) -> (Vec<GeometryPoint>, CpuStats) {
    let (mut m, geometry) = TimedMachine::new(geometry_machine(exp), tracer);
    let timers = tracer.timers();
    tracer.begin("repro.walk", geometry);
    let lines = m.machine.l2_lines();
    #[allow(clippy::unwrap_used)]
    let model = FootprintModel::new(ModelParams::new(lines).unwrap());
    let n = model.params().n();
    let ways = exp.ways as f64;
    let walker = ThreadId(1);
    let sleeper = ThreadId(2);
    let total0 = match exp.monitored {
        Monitored::Walker { s0 }
        | Monitored::Independent { s0 }
        | Monitored::Dependent { s0, .. } => s0.min(lines as f64),
    };
    let walker_region = m.machine.alloc(WALKER_LINES * LINE, LINE);
    m.machine.register_region(walker, walker_region, WALKER_LINES * LINE);
    type Predictor = Box<dyn Fn(f64, u64) -> f64>;
    let (monitored_tid, closed, case): (ThreadId, Predictor, PerSetCase) = match exp.monitored {
        Monitored::Walker { s0 } => {
            m.prefill(walker_region, s0 as u64);
            (walker, Box::new(move |s, k| model.expected_blocking(s, k)), PerSetCase::Blocking)
        }
        Monitored::Independent { s0 } => {
            let bytes = (s0 as u64).max(1) * LINE;
            let region = m.machine.alloc(bytes, LINE);
            m.machine.register_region(sleeper, region, bytes);
            m.prefill(region, s0 as u64);
            (
                sleeper,
                Box::new(move |s, k| model.expected_independent(s, k)),
                PerSetCase::Independent,
            )
        }
        Monitored::Dependent { q, s0 } => {
            let bytes = ((WALKER_LINES as f64 * q) as u64) * LINE;
            m.machine.register_region(sleeper, walker_region, bytes);
            m.prefill(walker_region, s0 as u64);
            (
                sleeper,
                Box::new(move |s, k| model.expected_dependent(q, s, k)),
                PerSetCase::Dependent(q),
            )
        }
    };
    m.machine.set_running(0, Some(walker));
    #[allow(clippy::expect_used)]
    m.machine.pic_take_interval(0).expect("clean machine read");
    let pic_base = m.machine.pic(0).misses();
    let s0_observed = m.footprint(monitored_tid);
    let mut rng = StdRng::seed_from_u64(exp.seed);
    let mut points = vec![GeometryPoint {
        misses: 0,
        observed: s0_observed,
        closed_form: s0_observed,
        per_set: s0_observed,
    }];
    let mut misses: u64 = 0;
    let mut next_sample = exp.sample_every;
    while misses < exp.total_misses {
        let line = rng.gen_range(0..WALKER_LINES);
        m.access(walker_region.offset(line * LINE));
        misses = m.machine.pic(0).misses().wrapping_sub(pic_base);
        if misses >= next_sample {
            let observed = m.footprint(monitored_tid);
            let start = Instant::now();
            let per_set = predict_after(case, s0_observed, total0, misses, n, ways).0;
            m.timers.perset.add_since(start);
            points.push(GeometryPoint {
                misses,
                observed,
                closed_form: closed(s0_observed, misses).clamp(0.0, n),
                per_set,
            });
            next_sample += exp.sample_every;
        }
    }
    m.flush(&timers);
    tracer.end();
    (points, m.machine.cpu_stats(0))
}
