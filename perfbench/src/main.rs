//! One process of the BIRP benchmark; `run.py` drives it and aggregates.
//!
//! ```text
//! perfbench setup --workload W --seed N
//! perfbench pass  --workload W --seed N --scratch DIR [--record] [--trace]
//! ```
//!
//! `setup` builds the workload (catalog, trace, scheduler, first-slot model
//! lowering) in timed batches for about `SETUP_MS` and prints the per-setup
//! time of each batch. `pass` builds the workload once, runs the whole
//! horizon through the runner and prints raw figures: quality metrics with
//! their bit patterns, every `decide` wall time, run-loop wall time and the
//! health/checkpoint counts, plus the host's speed over the pass, read by a
//! fixed kernel before, during and after the run. `--record` keeps each slot's decision and
//! replays `validate` + `execute_slot` on it afterwards to time the sim
//! layer; `--trace` captures the run through the telemetry facade at trace
//! level and adds counters and per-layer self times, keyed by the per-layer
//! metric names.
//!
//! Every process prints one JSON object as its last stdout line.

mod spans;

use std::hint::black_box;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use birp_core::experiments::{ComparisonConfig, SchedulerKind};
use birp_core::{
    checkpoint, run_scheduler, run_scheduler_resumable, CheckpointPolicy, DemandMatrix,
    ExecutionMode, HealthConfig, ProblemConfig, RunConfig, RunOutcome, RunResult, Scheduler,
    SlotProblem, TemporalReuse, TirMatrix,
};
use birp_mab::MabConfig;
use birp_models::{Catalog, EdgeId};
use birp_sim::{validate, EdgeSim, FaultPlan, Schedule, SimConfig, SlotOutcome};
use birp_solver::SolverConfig;
use birp_telemetry as telemetry;
use birp_workload::{Trace, TraceConfig};
use telemetry::{Level, MemorySink, Value};

use spans::SpanRecord;

/// Seed of every workload's catalog. The catalog is the edge cluster under
/// test, fixed across runs; `--seed` draws the requests (and faults) it
/// serves, so seeds vary the input and not the system.
const CATALOG_SEED: u64 = 42;
/// Slots per pass of the paper-scale workloads: three 96-slot days.
const PAPER_SLOTS: usize = 288;
/// Edges in the fleet workload.
const FLEET_EDGES: usize = 200;
/// Slots per pass of the fleet workload: half a 96-slot day. A 200-edge
/// full solve takes ~250 ms, so short passes are what let a run average
/// over many inputs (fault plans) rather than a few.
const FLEET_SLOTS: usize = 48;
/// Faults of each kind (outage, slowed edge, degraded link, flaky edge) in
/// a fleet pass: enough for quarantines and releases in every pass, few
/// enough that the reuse skip path still serves most slots (every mask
/// change forces a full solve).
const FAULTS_PER_KIND: usize = 1;
/// Periodic checkpoint cadence of the fleet workload, in slots.
const CHECKPOINT_EVERY: usize = 16;

/// Spans that mark a layer boundary in the program (the spans it opens at
/// the default `debug` level). Trace-level spans (`solver.wave`,
/// `solver.node_lp`) fold into the layer that contains them.
const LAYERS: &[&str] = &[
    "runner.decide",
    "runner.execute",
    "birp.reuse_probe",
    "problem.build",
    "problem.refresh",
    "problem.guide_lp",
    "solver.solve",
    "solver.presolve_ms",
    "solver.root_lp",
    "solver.root_dive",
];

/// Everything one pass runs: built fresh from the seed by [`setup`].
struct Workload {
    catalog: Catalog,
    trace: Trace,
    run: RunConfig,
    scheduler: Box<dyn Scheduler + Send>,
    /// Checkpoint cadence; `Some` runs under `run_scheduler_resumable`.
    checkpoint_every: Option<usize>,
}

/// Build workload `name` for `seed`: catalog, trace and scheduler, plus the
/// first slot's full slot-model lowering (the one-off cost a run pays before
/// its delta refreshes start).
fn setup(name: &str, seed: u64) -> Result<Workload, String> {
    let reuse = TemporalReuse::default();
    let (catalog, trace, run, solver, checkpoint_every) = match name {
        "fig6_small" | "fig7_large" => {
            let cfg = if name == "fig6_small" {
                ComparisonConfig::small_scale(CATALOG_SEED, PAPER_SLOTS)
            } else {
                ComparisonConfig::large_scale(CATALOG_SEED, PAPER_SLOTS)
            };
            let trace = TraceConfig { seed, ..cfg.trace }.generate();
            (cfg.catalog, trace, cfg.run, cfg.solver, None)
        }
        "fleet_faults" => {
            let catalog = Catalog::fleet_scale(CATALOG_SEED, FLEET_EDGES);
            let trace = TraceConfig {
                num_slots: FLEET_SLOTS,
                num_edges: FLEET_EDGES,
                ..TraceConfig::small_scale(seed)
            }
            .generate();
            let run = RunConfig {
                sim: SimConfig {
                    faults: fault_plan(seed, FLEET_EDGES, FLEET_SLOTS),
                    ..SimConfig::default()
                },
                resilience: Some(HealthConfig::default()),
                ..RunConfig::default()
            };
            let solver = SolverConfig::scheduling();
            (catalog, trace, run, solver, Some(CHECKPOINT_EVERY))
        }
        _ => return Err(format!("unknown workload {name:?}")),
    };
    let scheduler = SchedulerKind::Birp.build_with_reuse(
        &catalog,
        MabConfig::paper_preset(),
        seed,
        &solver,
        &reuse,
    );
    let first = SlotProblem::build_with_reuse(
        &catalog,
        0,
        &DemandMatrix::from_trace(&trace, 0),
        &TirMatrix::initial(&catalog),
        None,
        &ProblemConfig {
            mode: ExecutionMode::Batched,
            ..ProblemConfig::default()
        },
        None,
    );
    black_box(first);
    Ok(Workload {
        catalog,
        trace,
        run,
        scheduler,
        checkpoint_every,
    })
}

/// SplitMix64: the fault plan's own seeded generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

/// Seed-generated faults over a pass of `slots` slots: hard outages, slowed
/// edges, degraded links and flaky (intermittent) edges, so the health
/// monitor quarantines and releases edges in every pass.
fn fault_plan(seed: u64, edges: usize, slots: usize) -> FaultPlan {
    let mut rng = SplitMix(seed ^ 0xFA01_7F1A_4E5B_0001);
    let mut window = |count: usize, min_len: usize, max_len: usize| -> Vec<(usize, usize, usize)> {
        (0..count)
            .map(|_| {
                let from = rng.range(0, slots - max_len);
                (
                    rng.range(0, edges),
                    from,
                    from + rng.range(min_len, max_len),
                )
            })
            .collect()
    };
    let outages = window(FAULTS_PER_KIND, 4, 12);
    let slowed = window(FAULTS_PER_KIND, 6, 16);
    let flaky = window(FAULTS_PER_KIND, 12, 24);
    let links: Vec<(usize, usize, usize, usize)> = window(FAULTS_PER_KIND, 6, 16)
        .into_iter()
        .map(|(a, from, to)| (a, (a + 1 + from * 7 % (edges - 1)) % edges, from, to))
        .collect();
    let mut plan = FaultPlan::none();
    for &(e, from, to) in &outages {
        plan = plan.with_outage(EdgeId(e), from, to);
    }
    for &(e, from, to) in &slowed {
        plan = plan.with_degradation(EdgeId(e), from, to, 3.0);
    }
    for &(a, b, from, to) in &links {
        plan = plan.with_link_fault(EdgeId(a), EdgeId(b), from, to, 0.2);
    }
    for &(e, from, to) in &flaky {
        plan = plan.with_flaky(EdgeId(e), from, to, 4, 2);
    }
    plan
}

/// About the time (ms) the host-speed kernel takes on the 2-vCPU VM the
/// benchmark's bounds were measured on: `host_ms() / HOST_NOMINAL_MS` is how
/// many times slower than that the host runs right now.
const HOST_NOMINAL_MS: f64 = 10.0;
/// A pass reads the host's speed inside the run loop (at the next
/// `observe`) once this long has passed since its last reading.
const HOST_EVERY_MS: f64 = 500.0;

/// Wall time (ms) of a fixed kernel that shares no code with the program
/// but loads the CPU the way its solves do: row operations on a small dense
/// f64 tableau (like the dense simplex) and churn of small heap vectors
/// (like problem refresh and bookkeeping). On a shared host the program's
/// speed swings by tens of percent over seconds to minutes with what the
/// neighbours do, and this kernel swings with it, while a pure-ALU loop or
/// an L1-resident table walk barely moves. Every timing is divided by the
/// factor it gives (README.md, "Host speed").
fn host_ms() -> f64 {
    const ROWS: usize = 64;
    const COLS: usize = 128;
    let mut tableau: Vec<f64> = (0..ROWS * COLS)
        .map(|i| (i * 7919 % 1000) as f64 / 1000.0 + 0.5)
        .collect();
    let start = Instant::now();
    for it in 0..200 {
        let (pr, pc) = (it % ROWS, it * 31 % COLS);
        let inv = 1.0 / tableau[pr * COLS + pc];
        for j in 0..COLS {
            tableau[pr * COLS + j] *= inv;
        }
        for r in (0..ROWS).filter(|&r| r != pr) {
            let f = tableau[r * COLS + pc];
            for j in 0..COLS {
                tableau[r * COLS + j] -= f * tableau[pr * COLS + j];
            }
        }
        // Keep every entry in a range where the arithmetic stays normal.
        for v in tableau.iter_mut() {
            if !(1e-6..1e6).contains(&v.abs()) {
                *v = 0.75;
            }
        }
    }
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(257);
    for i in 0..40_000usize {
        live.push(vec![i as u64; 16 + i * 37 % 512]);
        if live.len() > 256 {
            live.swap_remove(i * 13 % 256);
        }
    }
    black_box((&tableau, &live));
    start.elapsed().as_secs_f64() * 1e3
}

/// How many times slower than nominal the host ran, from the kernel's time
/// before and after a stretch of work: `(before + after) / 2` over
/// `HOST_NOMINAL_MS`.
fn host_factor(before_ms: f64, after_ms: f64) -> f64 {
    (before_ms + after_ms) / 2.0 / HOST_NOMINAL_MS
}

/// One recorded slot decision, replayed through the sim layer after the run.
struct Decision {
    demand: DemandMatrix,
    prev: Option<Schedule>,
    schedule: Schedule,
}

/// Times every `decide` and `observe` call, delegating everything else
/// unchanged.
struct Timed<'a> {
    inner: &'a mut (dyn Scheduler + Send),
    decide_ms: Vec<f64>,
    observe_ms: f64,
    /// `decide` calls that panicked (the runner isolates them).
    panics: u64,
    record: Option<Vec<Decision>>,
    /// Time spent copying decisions into `record` (inside the run loop).
    record_ms: f64,
    /// Host-speed kernel readings (ms), one at least every `HOST_EVERY_MS`.
    host_readings: Vec<f64>,
    last_reading: Instant,
    /// Time spent on the readings taken inside the run loop.
    host_loop_ms: f64,
}

impl Scheduler for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, t: usize, demand: &DemandMatrix, prev: Option<&Schedule>) -> Schedule {
        let start = Instant::now();
        let decided = catch_unwind(AssertUnwindSafe(|| self.inner.decide(t, demand, prev)));
        self.decide_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let schedule = match decided {
            Ok(s) => s,
            Err(payload) => {
                self.panics += 1;
                resume_unwind(payload)
            }
        };
        if let Some(record) = &mut self.record {
            let start = Instant::now();
            record.push(Decision {
                demand: demand.clone(),
                prev: prev.cloned(),
                schedule: schedule.clone(),
            });
            self.record_ms += start.elapsed().as_secs_f64() * 1e3;
        }
        schedule
    }

    fn observe(&mut self, outcome: &SlotOutcome) {
        let start = Instant::now();
        self.inner.observe(outcome);
        self.observe_ms += start.elapsed().as_secs_f64() * 1e3;
        // Outside every layer span of the runner, so a traced pass does not
        // count the kernel in any layer's self time.
        if self.last_reading.elapsed().as_secs_f64() * 1e3 >= HOST_EVERY_MS {
            let start = Instant::now();
            self.host_readings.push(host_ms());
            self.host_loop_ms += start.elapsed().as_secs_f64() * 1e3;
            self.last_reading = Instant::now();
        }
    }

    fn set_edge_mask(&mut self, mask: Option<&[bool]>) {
        self.inner.set_edge_mask(mask);
    }

    fn export_state(&self) -> Value {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &Value) -> Result<(), serde::DeError> {
        self.inner.import_state(state)
    }
}

/// A JSON object from `(key, value)` pairs, keys in the given order.
fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn floats(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| x.into()).collect())
}

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    arg(args, flag).ok_or_else(|| format!("missing {flag}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(record) => println!(
            "{}",
            serde_json::to_string(&record).expect("a Value always serializes")
        ),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run(args: &[String]) -> Result<Value, String> {
    let workload = required(args, "--workload")?;
    let seed: u64 = required(args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    match args.first().map(String::as_str) {
        Some("setup") => setup_batches(workload, seed),
        Some("pass") => {
            let scratch = PathBuf::from(required(args, "--scratch")?);
            let flag = |f: &str| args.iter().any(|a| a == f);
            pass(workload, seed, &scratch, flag("--record"), flag("--trace"))
        }
        _ => Err("usage: perfbench setup|pass --workload W --seed N ...".to_string()),
    }
}

/// Time setups in batches of at least `BATCH_MS` each, for about
/// `SETUP_MS` in total (at least three batches); one per-setup time per
/// batch, with the host factor read around that batch. Batching keeps a
/// millisecond-scale setup well above timer noise; `run.py` spreads several
/// such processes over a run, so that the samples meet the same host phases
/// as the passes do.
/// Every setup builds another input (`seed`, `seed + 1`, ...): the
/// first-slot lowering solves a guide LP whose cost depends on the slot's
/// demand, so each batch averages over many demands rather than one.
fn setup_batches(workload: &str, seed: u64) -> Result<Value, String> {
    const BATCH_MS: f64 = 50.0;
    const SETUP_MS: f64 = 250.0;
    black_box(setup(workload, seed)?);
    // As in `pass`: the first reading pays the heap growth.
    black_box(host_ms());
    let begin = Instant::now();
    let mut per_setup_s = Vec::new();
    let mut factors = Vec::new();
    let mut input = seed;
    let mut before = host_ms();
    while per_setup_s.len() < 3 || begin.elapsed().as_secs_f64() * 1e3 < SETUP_MS {
        let start = Instant::now();
        let mut n = 0u32;
        while n == 0 || start.elapsed().as_secs_f64() * 1e3 < BATCH_MS {
            black_box(setup(workload, input)?);
            input += 1;
            n += 1;
        }
        per_setup_s.push(start.elapsed().as_secs_f64() / n as f64);
        let after = host_ms();
        factors.push(host_factor(before, after));
        before = after;
    }
    Ok(object(vec![
        ("setup_s", floats(&per_setup_s)),
        ("host_factor", floats(&factors)),
    ]))
}

fn pass(
    workload: &str,
    seed: u64,
    scratch: &Path,
    record: bool,
    trace: bool,
) -> Result<Value, String> {
    // One run first whose reading is dropped: a fresh process pays its first
    // heap growth there.
    let warm_up_ms = host_ms();
    let host_before = host_ms();
    let mut w = setup(workload, seed)?;
    let slots = w.trace.num_slots();
    let mut timed = Timed {
        inner: w.scheduler.as_mut(),
        decide_ms: Vec::with_capacity(slots),
        observe_ms: 0.0,
        panics: 0,
        record: record.then(Vec::new),
        record_ms: 0.0,
        host_readings: vec![host_before],
        last_reading: Instant::now(),
        host_loop_ms: 0.0,
    };
    let policy = w.checkpoint_every.map(|every| CheckpointPolicy {
        path: scratch.join(format!("ckpt-{}.bin", std::process::id())),
        every,
        spec: Value::Null,
    });
    if let Some(p) = &policy {
        std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        let _ = std::fs::remove_file(&p.path);
    }

    let sink = Arc::new(MemorySink::new());
    if trace {
        telemetry::init(sink.clone(), Level::Trace);
    }
    let start = Instant::now();
    let result: RunResult = match &policy {
        None => run_scheduler(&w.catalog, &w.trace, &mut timed, &w.run),
        Some(p) => match run_scheduler_resumable(
            &w.catalog,
            &w.trace,
            &mut timed,
            &w.run,
            Some(p),
            None,
            None,
        ) {
            Ok(RunOutcome::Complete(r)) => *r,
            Ok(RunOutcome::Interrupted { next_slot }) => {
                return Err(format!("run interrupted at slot {next_slot}"))
            }
            Err(e) => return Err(format!("checkpointed run failed: {e}")),
        },
    };
    // Run-loop wall time, less the host-speed readings taken inside it.
    let wall_s = start.elapsed().as_secs_f64() - timed.host_loop_ms / 1e3;
    timed.host_readings.push(host_ms());
    let readings = std::mem::take(&mut timed.host_readings);
    let captured = trace.then(|| {
        let summary = telemetry::summary();
        telemetry::shutdown();
        (summary, sink.drain())
    });

    let m = &result.metrics;
    let mut out = vec![
        ("workers", rayon::current_num_threads().into()),
        ("slots", slots.into()),
        ("offered", result.offered.into()),
        ("served", m.served.into()),
        ("dropped", m.dropped.into()),
        ("slo_failures", m.slo_failures.into()),
        ("total_loss", m.total_loss.into()),
        ("total_loss_bits", m.total_loss.to_bits().into()),
        ("panics", timed.panics.into()),
        ("wall_s", wall_s.into()),
        (
            "host_factor",
            (readings.iter().sum::<f64>() / readings.len() as f64 / HOST_NOMINAL_MS).into(),
        ),
        // CPU time of the process that is the kernel's, not the program's.
        ("host_kernel_ms", (warm_up_ms + readings.iter().sum::<f64>()).into()),
        ("record_ms", timed.record_ms.into()),
        ("observe_ms", timed.observe_ms.into()),
        ("decide_ms", floats(&timed.decide_ms)),
    ];
    if let Some(h) = &result.health {
        out.push(("quarantines", h.events.len().into()));
        out.push(("probes", h.probes.into()));
        out.push(("rerouted", h.rerouted.into()));
    }
    if let Some(p) = &policy {
        out.push(("checkpoint", checkpoint_io(&p.path, slots, p.every)?));
    }
    if let Some(decisions) = timed.record.take() {
        out.push(("replay", replay(&w.catalog, &w.run.sim, &decisions)));
    }
    if let Some((summary, events)) = captured {
        let counters = summary
            .counters
            .iter()
            .map(|(name, v)| (name.clone(), Value::from(*v)))
            .collect();
        out.push(("counters", Value::Object(counters)));
        let waves = summary.histogram("solver.wave_size").map_or(0, |h| h.count);
        out.push(("waves", waves.into()));
        let spans = span_records(&events);
        let by_layer = spans::self_time_by_layer(&spans, LAYERS);
        // Metric `self.<layer>_ms` per layer span (`solver.presolve_ms`
        // already ends in `_ms`).
        let self_ms = LAYERS
            .iter()
            .map(|l| {
                (
                    format!("self.{}_ms", l.trim_end_matches("_ms")),
                    by_layer.get(*l).copied().unwrap_or(0.0).into(),
                )
            })
            .collect();
        out.push(("self_ms", Value::Object(self_ms)));
    }
    Ok(object(out))
}

/// Check the run's last periodic checkpoint and time the checkpoint layer
/// on it: a load of the file, then a save of the loaded state.
fn checkpoint_io(path: &Path, slots: usize, every: usize) -> Result<Value, String> {
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("no checkpoint at {}: {e}", path.display()))?
        .len();
    let start = Instant::now();
    let ck = checkpoint::load(path).map_err(|e| format!("checkpoint load: {e}"))?;
    let load_ms = start.elapsed().as_secs_f64() * 1e3;
    let expected = (slots - 1) / every * every;
    if ck.runner.next_slot != expected {
        return Err(format!(
            "checkpoint holds slot {}, expected {expected}",
            ck.runner.next_slot
        ));
    }
    let copy = path.with_extension("copy");
    let start = Instant::now();
    checkpoint::save(&copy, &ck).map_err(|e| format!("checkpoint save: {e}"))?;
    let save_ms = start.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&copy);
    let _ = std::fs::remove_file(path);
    Ok(object(vec![
        ("bytes", bytes.into()),
        ("load_ms", load_ms.into()),
        ("save_ms", save_ms.into()),
    ]))
}

/// Replay the recorded decisions through `validate` and a fresh simulator's
/// `execute_slot`, timing each layer. (The runner already validated each
/// decision strictly; an invalid one would have failed the pass.)
fn replay(catalog: &Catalog, sim: &SimConfig, decisions: &[Decision]) -> Value {
    let edge_sim = EdgeSim::new(catalog.clone(), sim.clone());
    let (mut validate_ms, mut execute_ms) = (0.0, 0.0);
    for d in decisions {
        let demand = |a, e| d.demand.get(a, e);
        let start = Instant::now();
        black_box(validate(catalog, &demand, &d.schedule, d.prev.as_ref()).is_ok());
        validate_ms += start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        black_box(edge_sim.execute_slot(&d.schedule, d.prev.as_ref()));
        execute_ms += start.elapsed().as_secs_f64() * 1e3;
    }
    object(vec![
        ("validate_ms", validate_ms.into()),
        ("execute_ms", execute_ms.into()),
    ])
}

/// The `span` events of a trace-level capture, as intervals. An event is
/// stamped when its span closes, so the start is the stamp minus the
/// duration.
fn span_records(events: &[telemetry::Event]) -> Vec<SpanRecord> {
    events
        .iter()
        .filter(|e| e.name == "span")
        .filter_map(|e| {
            let field = |k: &str| e.fields.iter().find(|(n, _)| *n == k).map(|(_, v)| v);
            let ms = field("ms")?.as_f64()?;
            Some(SpanRecord {
                name: field("span")?.as_str()?.to_string(),
                id: field("id")?.as_u64()?,
                parent: field("parent")?.as_u64()?,
                start_ms: e.t_ms - ms,
                end_ms: e.t_ms,
            })
        })
        .collect()
}
