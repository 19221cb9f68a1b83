//! The repository benchmark: three closed-batch workloads built from the
//! same run descriptors the figures use, run through the program's own
//! entry points (`suite::run_figures`, `runner::execute`), with every
//! output checked. A separate traced pass times the calls into each
//! layer from outside the program (see `instrumented` and `spans`).
//!
//! See `README.md` next to this file for the workloads, the metrics and
//! what each per-layer metric is expected to move.

pub mod instrumented;
pub mod spans;

use locality_repro::runner::{cache_key, RunKind, RunOutput, RunRequest};
use locality_repro::suite::Figure;
use locality_repro::{Args, ReproError, Scale};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every `repro-all --scale small` descriptor through
    /// `suite::run_figures`, `nproc` jobs, cold cache.
    Suite,
    /// The Figure 8/9 policy cells, serially through `runner::execute`.
    Policy,
    /// The Figure 4 and geometry-validation walks, serially through
    /// `runner::execute`.
    Walk,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Suite, Workload::Policy, Workload::Walk];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::Policy => "policy",
            Workload::Walk => "walk",
        }
    }

    /// The figures whose descriptors make up the workload.
    pub fn figures(self) -> &'static [Figure] {
        match self {
            Workload::Suite => &Figure::ALL,
            Workload::Policy => &[Figure::Fig8, Figure::Fig9],
            Workload::Walk => &[Figure::Fig4, Figure::Geometry],
        }
    }
}

/// The benchmark's descriptor seed selecting the committed seeds.
pub const COMMITTED_SEED: u64 = 0;

/// One unique descriptor of a workload.
#[derive(Debug, Clone)]
pub struct Desc {
    /// The label of its first request.
    pub label: String,
    /// The descriptor.
    pub kind: RunKind,
    /// The first figure that requests it, lowercase (`fig4`, `table3`,
    /// …): the runner executes a shared descriptor once, for its first
    /// request.
    pub figure: String,
}

/// The arguments `repro-all --scale small --jobs <jobs> --out <out>`
/// parses to.
pub fn small_args(out: PathBuf, jobs: usize) -> Args {
    Args { scale: Scale::Small, out, jobs, ..Args::default() }
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `kind` with its seed field (if any) re-derived from the benchmark
/// seed. [`COMMITTED_SEED`] keeps the committed seed.
pub fn reseed(kind: RunKind, seed: u64) -> RunKind {
    if seed == COMMITTED_SEED {
        return kind;
    }
    let derive = |committed: u64| mix(committed ^ mix(seed));
    match kind {
        RunKind::Walk(mut exp) => {
            exp.seed = derive(exp.seed);
            RunKind::Walk(exp)
        }
        RunKind::Geometry(mut exp) => {
            exp.seed = derive(exp.seed);
            RunKind::Geometry(exp)
        }
        RunKind::Monitor { app, placement, seed: committed } => {
            RunKind::Monitor { app, placement, seed: derive(committed) }
        }
        other => other,
    }
}

/// The workload's unique descriptors in request order. `suite` always
/// uses the committed seeds; the others are re-seeded by `seed`.
///
/// # Errors
///
/// Returns a figure's request error.
pub fn descriptors(workload: Workload, seed: u64) -> Result<Vec<Desc>, ReproError> {
    let args = small_args(PathBuf::from("unused"), 1);
    let seed = if workload == Workload::Suite { COMMITTED_SEED } else { seed };
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for &figure in workload.figures() {
        for RunRequest { label, kind } in figure.requests(&args)? {
            let kind = reseed(kind, seed);
            if seen.insert(cache_key(&kind)) {
                out.push(Desc { label, kind, figure: format!("{figure:?}").to_lowercase() });
            }
        }
    }
    Ok(out)
}

/// Simulated E-cache misses of a run, as the runner's stats count them.
pub fn sim_misses(out: &RunOutput) -> u64 {
    match out {
        RunOutput::Points(points) => points.last().map_or(0, |p| p.misses),
        RunOutput::GeometryPoints(points) => points.last().map_or(0, |p| p.misses),
        RunOutput::Trace(trace) => trace.samples.last().map_or(0, |s| s.misses),
        RunOutput::Report(report) => report.total_l2_misses,
        RunOutput::FaultCell(cell) => cell.report.total_l2_misses,
        RunOutput::ChaosCell(cell) => cell.report.total_l2_misses,
        RunOutput::Invalidation { .. }
        | RunOutput::UpdateCost { .. }
        | RunOutput::TraceSummary(_)
        | RunOutput::ModelCheck(_) => 0,
    }
}

fn f(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn canon_report(s: &mut String, r: &active_threads::RunReport) {
    s.push_str(&format!(
        "report {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
        r.policy,
        r.cpus,
        r.total_cycles,
        r.total_l2_misses,
        r.total_l2_refs,
        r.total_instructions,
        r.context_switches,
        r.threads_completed,
        r.threads_aborted,
        r.steals,
        r.priority_flops.0,
        r.priority_flops.1,
        r.degraded_intervals,
        r.corrected_intervals
    ));
}

/// The deterministic content of a run's output as text: every field a
/// figure reads, floats as bit patterns. Wall-clock fields and the
/// per-processor breakdown (which the result cache drops) are left out.
pub fn canon(out: &RunOutput) -> String {
    let mut s = String::new();
    match out {
        RunOutput::Points(points) => {
            for p in points {
                s.push_str(&format!("{} {} {}\n", p.misses, f(p.observed), f(p.predicted)));
            }
        }
        RunOutput::GeometryPoints(points) => {
            for p in points {
                s.push_str(&format!(
                    "{} {} {} {}\n",
                    p.misses,
                    f(p.observed),
                    f(p.closed_form),
                    f(p.per_set)
                ));
            }
        }
        RunOutput::Trace(trace) => {
            s.push_str(trace.app);
            s.push('\n');
            for p in &trace.samples {
                s.push_str(&format!(
                    "{} {} {} {}\n",
                    p.misses,
                    p.instructions,
                    f(p.observed),
                    f(p.predicted)
                ));
            }
        }
        RunOutput::Report(r) => canon_report(&mut s, r),
        RunOutput::FaultCell(c) => {
            canon_report(&mut s, &c.report);
            s.push_str(&format!(
                "{} {} {} {}\n",
                f(c.probe.sum_abs_err),
                f(c.probe.sum_observed),
                c.probe.samples,
                c.recovered
            ));
        }
        RunOutput::ChaosCell(c) => {
            canon_report(&mut s, &c.report);
            s.push_str(&format!(
                "{} {} {} {}\n",
                f(c.probe.sum_abs_err),
                f(c.probe.sum_observed),
                c.probe.samples,
                c.poisoned
            ));
        }
        RunOutput::Invalidation { observed, predicted } => {
            s.push_str(&format!("{observed} {predicted}\n"));
        }
        RunOutput::UpdateCost { flops, lookups, .. } => {
            s.push_str(&format!("{flops} {lookups}\n"));
        }
        // No workload runs these; their debug form is deterministic.
        other @ (RunOutput::TraceSummary(_) | RunOutput::ModelCheck(_)) => {
            s.push_str(&format!("{other:?}"));
        }
    }
    s
}

/// SHA-256 of a run's canonical output.
pub fn output_digest(out: &RunOutput) -> String {
    locality_repro::digest::hex(canon(out).as_bytes())
}

/// The benchmark package's directory.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The repository checkout the benchmark was built from.
pub fn repo_root() -> PathBuf {
    bench_dir().parent().map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// The committed per-descriptor output digests of one workload at the
/// committed seeds, keyed by descriptor label.
///
/// # Errors
///
/// Returns a message if the digest file cannot be read or is malformed.
pub fn committed_digests(workload: Workload) -> Result<BTreeMap<String, String>, String> {
    let path = bench_dir().join("digests.txt");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#')) {
        let mut it = line.splitn(3, ' ');
        match (it.next(), it.next(), it.next()) {
            (Some(w), Some(hex), Some(label)) if hex.len() == 64 => {
                if w == workload.name() {
                    out.insert(label.to_string(), hex.to_string());
                }
            }
            _ => return Err(format!("malformed digest line: {line}")),
        }
    }
    Ok(out)
}

/// Checks a suite output directory against `results/golden_small.sha256`
/// and returns the artifacts that are missing or differ.
///
/// # Errors
///
/// Returns a message if the golden file cannot be read or lists nothing.
pub fn golden_mismatches(dir: &Path) -> Result<Vec<String>, String> {
    let path = repo_root().join("results").join("golden_small.sha256");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut bad = Vec::new();
    let mut listed = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let (hex, name) =
            line.split_once("  ").ok_or_else(|| format!("malformed golden line: {line}"))?;
        listed += 1;
        match std::fs::read(dir.join(name)) {
            Ok(bytes) if locality_repro::digest::hex(&bytes) == hex => {}
            _ => bad.push(name.to_string()),
        }
    }
    if listed == 0 {
        return Err(format!("{} lists no artifacts", path.display()));
    }
    Ok(bad)
}

/// Every per-layer metric, in report order (`BENCHMARK.json` lists the
/// same names). A layer a workload does not exercise reports 0.
pub const LAYER_METRICS: &[&str] = &[
    "runner.descriptors",
    "runner.critical_path_s",
    "runner.parallel_eff",
    "runner.figure_s.fig4",
    "runner.figure_s.fig5",
    "runner.figure_s.fig6",
    "runner.figure_s.fig7",
    "runner.figure_s.fig8",
    "runner.figure_s.fig9",
    "runner.figure_s.table3",
    "runner.figure_s.table5",
    "runner.figure_s.ablation",
    "runner.figure_s.geometry",
    "sim.l1d_refs",
    "sim.l1d_misses",
    "sim.l2_refs",
    "sim.l2_hits",
    "sim.l2_misses",
    "sim.l2_misses_remote",
    "sim.invalidations",
    "sim.tlb_misses",
    "sim.tlb_walk_cycles",
    "sim.l2_hit_ratio",
    "sim.fp_queries",
    "sim.fp_query_s",
    "sim.fp_query_us",
    "sim.fp_query_share",
    "sim.accesses",
    "sim.access_ns.8192x1",
    "sim.access_ns.4096x2",
    "sim.access_ns.2048x4",
    "sim.access_ns.1024x8",
    "sim.access_ns.1x8192",
    "sim.fp_lines_s",
    "sim.machine_new_s",
    "core.prio_flops",
    "core.prio_lookups",
    "core.perset_predict_s",
    "core.corrected_intervals",
    "core.degraded_intervals",
    "threads.switches",
    "threads.steals",
    "threads.engine_new_s",
    "threads.run_s",
    "threads.sched_s",
    "threads.sched_share",
    "threads.sched_calls",
    "threads.sched.interval_end_s",
    "threads.sched.pick_s",
    "threads.residual_s",
    "repro.hook_s",
    "workloads.spawn_s.tasks",
    "workloads.spawn_s.merge",
    "workloads.spawn_s.photo",
    "workloads.spawn_s.tsp",
    "workloads.spawn_s.barnes",
    "workloads.spawn_s.fmm",
    "workloads.spawn_s.ocean",
    "workloads.spawn_s.typechecker",
    "workloads.spawn_s.raytrace",
    "self_s.repro",
    "self_s.sim",
    "self_s.core",
    "self_s.threads",
    "self_s.workloads",
    "self_s.unattributed",
    "result.lff_speedup",
    "result.crt_speedup",
    "result.lff_miss_cut",
    "result.crt_miss_cut",
    "result.model_rel_err",
    "result.perset_mae_lines",
    "bench.trace_overhead",
    "bench.failed_frac",
    "bench.timer_ns",
    "bench.spans",
];

/// Exact counters that must repeat identically between passes.
pub const EXACT: &[&str] = &[
    "sim.l1d_refs",
    "sim.l1d_misses",
    "sim.l2_refs",
    "sim.l2_hits",
    "sim.l2_misses",
    "sim.l2_misses_remote",
    "sim.invalidations",
    "sim.tlb_misses",
    "sim.tlb_walk_cycles",
    "sim.fp_queries",
    "sim.accesses",
    "core.prio_flops",
    "core.prio_lookups",
    "core.corrected_intervals",
    "core.degraded_intervals",
    "threads.switches",
    "threads.steals",
];

/// The unit a per-layer metric is reported in.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_share")
        || name.ends_with("_ratio")
        || name.ends_with("_eff")
        || name.ends_with("_frac")
        || name.ends_with("_overhead")
        || name.ends_with("_cut")
        || name.ends_with("_err")
    {
        "ratio"
    } else if name.ends_with("_s") || name.contains("_s.") {
        "s"
    } else if name.ends_with("_us") {
        "us"
    } else if name.contains("_ns") {
        "ns"
    } else if name.ends_with("_speedup") {
        "x"
    } else if name.ends_with("_lines") {
        "lines"
    } else if name.ends_with("_cycles") {
        "cycles"
    } else {
        "count"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn committed_seed_keeps_descriptors_and_others_reseed_only_seeded_kinds() {
        let kinds = |w, seed| -> Vec<RunKind> {
            descriptors(w, seed).unwrap().into_iter().map(|d| d.kind).collect()
        };
        let walk = kinds(Workload::Walk, COMMITTED_SEED);
        let other = kinds(Workload::Walk, 7);
        assert_eq!(walk.len(), other.len());
        assert!(walk.iter().zip(&other).all(|(a, b)| a != b), "every walk has a seed");
        assert_eq!(kinds(Workload::Walk, 7), other, "same seed, same inputs");
        assert_eq!(kinds(Workload::Policy, 7), kinds(Workload::Policy, COMMITTED_SEED));
        let suite = kinds(Workload::Suite, 7);
        assert_eq!(suite.len(), 85, "repro-all --scale small runs 85 unique descriptors");
        assert_eq!(suite, kinds(Workload::Suite, COMMITTED_SEED), "suite keeps committed seeds");
        let monitor = suite.iter().find(|k| matches!(k, RunKind::Monitor { .. })).unwrap();
        assert_ne!(reseed(*monitor, 7), *monitor);
    }
}
