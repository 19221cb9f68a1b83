//! The traced pass's instrumented runs must return exactly what the
//! shipped path (`runner::execute`) returns, for every descriptor kind
//! they mirror; otherwise the per-layer numbers would describe a copy
//! that has drifted from the code the figures run.

use locality_perfbench::instrumented::run_traced;
use locality_perfbench::spans::Tracer;
use locality_perfbench::{
    canon, committed_digests, descriptors, repo_root, reseed, unit_of, Desc, Workload,
    COMMITTED_SEED, LAYER_METRICS,
};
use locality_repro::runner::{self, PolicyId, RunKind, RunOutput};
use std::time::Instant;

fn find(workload: Workload, seed: u64, pick: impl Fn(&Desc) -> bool) -> RunKind {
    descriptors(workload, seed)
        .unwrap()
        .into_iter()
        .find(|d| pick(d))
        .expect("the workload has such a descriptor")
        .kind
}

/// Runs `kind` both ways and compares everything either path reports.
fn assert_equivalent(kind: RunKind) {
    let shipped = runner::execute(&kind).unwrap();
    let mut tracer = Tracer::new(Instant::now(), 0);
    let traced = run_traced(&kind, &mut tracer).unwrap();
    assert_eq!(canon(&traced.out), canon(&shipped), "{kind:?}");
    if let (RunOutput::Report(a), RunOutput::Report(b)) = (&traced.out, &shipped) {
        assert_eq!(a.per_cpu, b.per_cpu, "per-processor counters of {kind:?}");
    }
    let spans = tracer.into_spans();
    assert!(spans.iter().any(|s| s.name != "unattributed.execute"), "{kind:?} was not split");
}

#[test]
fn policy_run_matches_runner() {
    // 8 CPUs: coherence invalidations, work stealing, and the LFF
    // estimator behind the timing scheduler wrapper.
    assert_equivalent(find(Workload::Policy, COMMITTED_SEED, |d| {
        matches!(d.kind, RunKind::Policy { policy: PolicyId::Lff, cpus: 8, .. })
    }));
    assert_equivalent(find(Workload::Policy, COMMITTED_SEED, |d| {
        matches!(d.kind, RunKind::Policy { policy: PolicyId::Fcfs, cpus: 1, .. })
    }));
}

#[test]
fn monitor_run_matches_runner() {
    // The cheapest monitored app, re-seeded so the check also covers
    // the seed argument's descriptors.
    let kind = find(Workload::Suite, COMMITTED_SEED, |d| d.label == "fig6:typechecker");
    assert_equivalent(kind);
    assert_equivalent(reseed(kind, 3));
}

#[test]
fn walk_run_matches_runner() {
    assert_equivalent(find(Workload::Walk, 5, |d| matches!(d.kind, RunKind::Walk(_))));
    assert_equivalent(find(
        Workload::Walk,
        COMMITTED_SEED,
        |d| matches!(d.kind, RunKind::Walk(exp) if exp.associativity == 4),
    ));
}

#[test]
fn geometry_run_matches_runner() {
    assert_equivalent(find(
        Workload::Walk,
        COMMITTED_SEED,
        |d| matches!(d.kind, RunKind::Geometry(exp) if exp.ways == 8),
    ));
}

#[test]
fn every_committed_descriptor_has_a_digest() {
    for w in Workload::ALL {
        let digests = committed_digests(w).unwrap();
        let descs = descriptors(w, COMMITTED_SEED).unwrap();
        assert_eq!(digests.len(), descs.len(), "{}", w.name());
        assert!(descs.iter().all(|d| digests.contains_key(&d.label)), "{}", w.name());
    }
}

/// The `"name"`/`"unit"` pairs of one section of `BENCHMARK.json`.
fn section(text: &str, key: &str) -> Vec<(String, String)> {
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |obj: &str, name: &str| -> String {
        let at = obj.find(&format!("\"{name}\": \"")).expect("field present") + name.len() + 5;
        obj[at..at + obj[at..].find('"').expect("string ends")].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let listed = section(&text, "per_layer");
    let reported: Vec<(String, String)> =
        LAYER_METRICS.iter().map(|n| (n.to_string(), unit_of(n).to_string())).collect();
    assert_eq!(listed, reported);
    let e2e: Vec<String> = section(&text, "end_to_end").into_iter().map(|(n, _)| n).collect();
    assert_eq!(e2e, ["wall_s", "setup_s", "sim_misses_per_s", "peak_heap_mb"]);
}
