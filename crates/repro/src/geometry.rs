//! The geometry-validation experiment (`repro geometry`): the random
//! memory walk of Figure 4 replayed across cache geometries, comparing
//! the simulator's observed footprints against **two** predictors —
//! the paper's direct-mapped closed forms and the per-set occupancy
//! generalization ([`locality_core::perset`]).
//!
//! Each cell runs one workload (blocking walker, independent sleeper,
//! or dependent sleeper) on one L2 geometry of equal capacity (512 KiB,
//! 64 B lines): the paper's direct-mapped 8192×1, a modern 8-way
//! 1024×8, and the fully associative 1×8192 limit. On the direct-mapped
//! geometry the two predictors agree (the per-set drifts reduce to the
//! closed forms at `W = 1`); on associative geometries the closed forms
//! drift and the per-set drifts must track LRU behaviour.

use crate::microbench::Monitored;
use crate::ReproError;
use active_threads::RuntimeError;
use locality_core::perset::{predict_after, PerSetCase};
use locality_core::{FootprintModel, ModelParams, ThreadId};
use locality_sim::{AccessKind, CacheGeometry, Machine, MachineConfig, VAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The E-cache line size of every cell, in bytes.
pub(crate) const LINE: u64 = 64;

#[inline]
fn n_of(lines: usize) -> f64 {
    lines as f64
}
/// The walker's region: 64× the cache (see [`crate::microbench`]).
const WALKER_LINES: u64 = 8192 * 64;

/// One point of a geometry-validation curve: the observation and both
/// predictions at a miss count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometryPoint {
    /// Walker E-cache misses so far.
    pub misses: u64,
    /// Observed footprint of the monitored thread (lines).
    pub observed: f64,
    /// The paper's direct-mapped closed-form prediction (lines).
    pub closed_form: f64,
    /// The per-set occupancy prediction (lines).
    pub per_set: f64,
}

/// One geometry-validation cell, fully describing its run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometryExperiment {
    /// The monitored workload case.
    pub monitored: Monitored,
    /// L2 sets.
    pub sets: u64,
    /// L2 ways per set.
    pub ways: u64,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Total walker misses to accumulate.
    pub total_misses: u64,
    /// Sampling interval in misses.
    pub sample_every: u64,
    /// RNG seed.
    pub seed: u64,
}

impl GeometryExperiment {
    /// The geometry as a `CacheGeometry` (64-byte lines, like the
    /// UltraSPARC-1 E-cache).
    pub fn geometry(&self) -> CacheGeometry {
        CacheGeometry { sets: self.sets, ways: self.ways, line: LINE }
    }

    /// `SxW` display label (e.g. `8192x1`).
    pub fn geometry_label(&self) -> String {
        format!("{}x{}", self.sets, self.ways)
    }
}

/// Runs one cell: the machine is a single-processor UltraSPARC-1 with
/// the cell's L2 geometry and page size substituted in.
///
/// # Errors
///
/// Returns [`ReproError::Runtime`] if the simulator rejects the cell's
/// machine, and [`ReproError::Model`] if its cache has fewer than two
/// lines.
pub fn run(exp: &GeometryExperiment) -> Result<Vec<GeometryPoint>, ReproError> {
    let config =
        MachineConfig::ultra1().with_l2_geometry(exp.geometry()).with_page_size(exp.page_bytes);
    let mut machine = Machine::try_new(config)
        .map_err(|e| RuntimeError::InvalidMachine { what: e.to_string() })?;
    let lines = machine.l2_lines();
    let model = FootprintModel::new(ModelParams::new(lines)?);
    let n = model.params().n();
    let ways = exp.ways as f64;
    let walker = ThreadId(1);
    let sleeper = ThreadId(2);
    // Lines resident when the measured walk starts: exactly the prefill
    // (the machine is fresh and a ≤ 512 KiB sequential prefix has no
    // self-conflicts), feeding the per-set model's occupancy state.
    let total0 = match exp.monitored {
        Monitored::Walker { s0 }
        | Monitored::Independent { s0 }
        | Monitored::Dependent { s0, .. } => s0.min(n_of(lines)),
    };

    let walker_region = machine.alloc(WALKER_LINES * LINE, LINE);
    machine.register_region(walker, walker_region, WALKER_LINES * LINE);

    type Predictor = Box<dyn Fn(f64, u64) -> f64>;
    let (monitored_tid, closed, case): (ThreadId, Predictor, PerSetCase) = match exp.monitored {
        Monitored::Walker { s0 } => {
            prefill(&mut machine, walker_region, s0 as u64);
            (walker, Box::new(move |s, m| model.expected_blocking(s, m)), PerSetCase::Blocking)
        }
        Monitored::Independent { s0 } => {
            let bytes = (s0 as u64).max(1) * LINE;
            let region = machine.alloc(bytes, LINE);
            machine.register_region(sleeper, region, bytes);
            prefill(&mut machine, region, s0 as u64);
            (
                sleeper,
                Box::new(move |s, m| model.expected_independent(s, m)),
                PerSetCase::Independent,
            )
        }
        Monitored::Dependent { q, s0 } => {
            let bytes = ((WALKER_LINES as f64 * q) as u64) * LINE;
            machine.register_region(sleeper, walker_region, bytes);
            prefill(&mut machine, walker_region, s0 as u64);
            (
                sleeper,
                Box::new(move |s, m| model.expected_dependent(q, s, m)),
                PerSetCase::Dependent(q),
            )
        }
    };

    machine.set_running(0, Some(walker));
    // Infallible: cpu 0 exists and the PIC was never poisoned.
    #[allow(clippy::expect_used)]
    machine.pic_take_interval(0).expect("clean machine read");
    let pic_base = machine.pic(0).misses();
    let s0_observed = machine.l2_footprint_lines(0, monitored_tid) as f64;

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
        machine.access(0, walker_region.offset(line * LINE), AccessKind::Read);
        misses = machine.pic(0).misses().wrapping_sub(pic_base);
        if misses >= next_sample {
            points.push(GeometryPoint {
                misses,
                observed: machine.l2_footprint_lines(0, monitored_tid) as f64,
                closed_form: closed(s0_observed, misses).clamp(0.0, n),
                per_set: predict_after(case, s0_observed, total0, misses, n, ways).0,
            });
            next_sample += exp.sample_every;
        }
    }
    Ok(points)
}

fn prefill(machine: &mut Machine, region: VAddr, lines: u64) {
    machine.set_running(0, Some(ThreadId(0)));
    for l in 0..lines {
        machine.access(0, region.offset(l * LINE), AccessKind::Read);
    }
}

/// Mean absolute prediction error in lines over the curve's sampled
/// points (the miss-0 anchor point is excluded — both predictors start
/// at the observation by construction).
pub fn mean_abs_error(points: &[GeometryPoint], predictor: fn(&GeometryPoint) -> f64) -> f64 {
    let sampled: Vec<&GeometryPoint> = points.iter().filter(|p| p.misses > 0).collect();
    if sampled.is_empty() {
        return 0.0;
    }
    sampled.iter().map(|p| (predictor(p) - p.observed).abs()).sum::<f64>() / sampled.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(monitored: Monitored, sets: u64, ways: u64, seed: u64) -> GeometryExperiment {
        GeometryExperiment {
            monitored,
            sets,
            ways,
            page_bytes: 8 * 1024,
            total_misses: 12_000,
            sample_every: 2_000,
            seed,
        }
    }

    #[test]
    fn predictors_agree_on_direct_mapped() {
        let pts = run(&cell(Monitored::Walker { s0: 0.0 }, 8192, 1, 21)).unwrap();
        for p in &pts {
            assert!(
                (p.closed_form - p.per_set).abs() < 1.0,
                "at W=1 the per-set drift is the closed form: {p:?}"
            );
        }
    }

    #[test]
    fn per_set_beats_closed_form_on_associative_walker() {
        for &(sets, ways) in &[(1024u64, 8u64), (1, 8192)] {
            let pts = run(&cell(Monitored::Walker { s0: 0.0 }, sets, ways, 22)).unwrap();
            let closed = mean_abs_error(&pts, |p| p.closed_form);
            let per_set = mean_abs_error(&pts, |p| p.per_set);
            assert!(
                per_set < closed,
                "{sets}x{ways} walker: per-set {per_set:.1} must beat closed {closed:.1}"
            );
        }
    }

    #[test]
    fn per_set_beats_closed_form_on_associative_sleeper() {
        for &(sets, ways) in &[(1024u64, 8u64), (1, 8192)] {
            let pts = run(&cell(Monitored::Independent { s0: 4096.0 }, sets, ways, 23)).unwrap();
            let closed = mean_abs_error(&pts, |p| p.closed_form);
            let per_set = mean_abs_error(&pts, |p| p.per_set);
            assert!(
                per_set < closed,
                "{sets}x{ways} sleeper: per-set {per_set:.1} must beat closed {closed:.1}"
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let exp = cell(Monitored::Dependent { q: 0.5, s0: 0.0 }, 1024, 8, 24);
        assert_eq!(run(&exp).unwrap(), run(&exp).unwrap());
    }

    #[test]
    fn invalid_cells_are_typed_errors() {
        let mut small_page = cell(Monitored::Walker { s0: 0.0 }, 8192, 1, 1);
        small_page.page_bytes = 32;
        assert!(matches!(run(&small_page), Err(ReproError::Runtime(_))));
        let overflow = cell(Monitored::Walker { s0: 0.0 }, 1 << 32, 1 << 32, 1);
        assert!(matches!(run(&overflow), Err(ReproError::Runtime(_))));
    }
}
