//! One root LP per decide: the slot's root relaxation is presolved and
//! solved once, inside `problem.guide_lp`, and branch and bound starts from
//! it instead of solving it again.
//!
//! Checked on a short small-scale BIRP run captured at trace level:
//! every decide that builds a guided problem (all paths but `skip`) holds
//! exactly one `solver.root_lp` span, `skip` decides hold none, and every
//! `problem.guide_lp` span has exactly the `solver.presolve_ms` and
//! `solver.root_lp` children. A build-level check then counts the LPs
//! themselves: a guided build solves exactly one, a lean build none.
//!
//! This lives in its own integration-test binary because the telemetry
//! facade is process-global.

use std::collections::HashMap;
use std::sync::Arc;

use birp_core::experiments::{ComparisonConfig, SchedulerKind};
use birp_core::{
    run_scheduler, DemandMatrix, ExecutionMode, ProblemConfig, SlotProblem, TemporalReuse,
    TirMatrix,
};
use birp_telemetry as telemetry;
use telemetry::{Event, Level, MemorySink};

fn field<'a>(ev: &'a Event, key: &str) -> &'a telemetry::Value {
    &ev.fields
        .iter()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("{} event missing field {key}", ev.name))
        .1
}

/// A closed span: (name, id, parent).
fn span_of(ev: &Event) -> Option<(String, u64, u64)> {
    (ev.name == "span").then(|| {
        (
            field(ev, "span").as_str().unwrap().to_string(),
            field(ev, "id").as_u64().unwrap(),
            field(ev, "parent").as_u64().unwrap(),
        )
    })
}

fn lp_solves() -> u64 {
    telemetry::counter_value("solver.lp_cold").unwrap_or(0)
        + telemetry::counter_value("solver.lp_warm").unwrap_or(0)
}

#[test]
fn each_decide_solves_its_root_lp_once() {
    let _guard = telemetry_guard();
    let cfg = ComparisonConfig::small_scale(42, 24);
    let trace = cfg.trace.generate();
    let mut birp = SchedulerKind::Birp.build_with_reuse(
        &cfg.catalog,
        cfg.mab,
        cfg.seed,
        &cfg.solver,
        &TemporalReuse::default(),
    );

    let sink = Arc::new(MemorySink::new());
    telemetry::init(sink.clone(), Level::Trace);
    run_scheduler(&cfg.catalog, &trace, birp.as_mut(), &cfg.run);
    telemetry::shutdown();
    let events = sink.drain();
    telemetry::reset();

    // Spans close child-first and the provenance record is emitted inside
    // its decide, so the event stream splits into decides at each
    // `runner.decide` close.
    let mut decides: Vec<(String, usize)> = Vec::new();
    let (mut path, mut roots) = (None::<String>, 0usize);
    let mut spans = Vec::new();
    for ev in &events {
        if ev.name == "birp.provenance" {
            path = Some(field(ev, "path").as_str().unwrap().to_string());
        }
        let Some(span) = span_of(ev) else { continue };
        match span.0.as_str() {
            "solver.root_lp" => roots += 1,
            "runner.decide" => {
                let path = path.take().expect("decide without a provenance record");
                decides.push((path, roots));
                roots = 0;
            }
            _ => {}
        }
        spans.push(span);
    }
    assert_eq!(decides.len(), 24, "one decide per slot");
    for (t, (path, roots)) in decides.iter().enumerate() {
        let want = usize::from(path != "skip");
        assert_eq!(*roots, want, "slot {t} ({path}): {roots} root LPs");
    }
    assert!(
        decides.iter().any(|(p, _)| p == "skip") && decides.iter().any(|(p, _)| p != "skip"),
        "the run must exercise both skip and solving decides: {decides:?}"
    );

    let mut children: HashMap<u64, Vec<&str>> = HashMap::new();
    for (name, _, parent) in &spans {
        children.entry(*parent).or_default().push(name);
    }
    let guides: Vec<u64> = spans
        .iter()
        .filter(|(name, _, _)| name == "problem.guide_lp")
        .map(|&(_, id, _)| id)
        .collect();
    assert_eq!(
        guides.len(),
        decides.iter().filter(|(p, _)| p != "skip").count()
    );
    for id in guides {
        let mut kids = children.get(&id).cloned().unwrap_or_default();
        kids.sort_unstable();
        assert_eq!(
            kids,
            ["solver.presolve_ms", "solver.root_lp"],
            "guide span {id}"
        );
    }
    for (name, id, _) in &spans {
        if name == "solver.presolve_ms" || name == "solver.root_lp" {
            assert!(!children.contains_key(id), "{name} span {id} has children");
        }
    }
}

#[test]
fn a_guided_build_solves_one_lp_and_a_lean_build_none() {
    let cfg = ComparisonConfig::small_scale(7, 6);
    let trace = cfg.trace.generate();
    let tir = TirMatrix::initial(&cfg.catalog);
    let pcfg = ProblemConfig {
        mode: ExecutionMode::Batched,
        ..ProblemConfig::default()
    };

    let _guard = telemetry_guard();
    let sink = Arc::new(MemorySink::new());
    telemetry::init(sink, Level::Debug);
    for t in 0..6 {
        let demand = DemandMatrix::from_trace(&trace, t);
        let before = lp_solves();
        let guided =
            SlotProblem::build_with_reuse(&cfg.catalog, t, &demand, &tir, None, &pcfg, None);
        assert_eq!(lp_solves() - before, 1, "slot {t}: guided build");
        assert!(guided.root_bound().is_some());

        let before = lp_solves();
        let lean = SlotProblem::build_reuse_lean(&cfg.catalog, t, &demand, &tir, None, &pcfg, None);
        assert_eq!(lp_solves() - before, 0, "slot {t}: lean build");
        assert!(lean.root_bound().is_none());
    }
    telemetry::shutdown();
    telemetry::reset();
}

/// The two tests share the process-global facade: serialise them.
fn telemetry_guard() -> parking_lot::MutexGuard<'static, ()> {
    static GUARD: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    GUARD.lock()
}
