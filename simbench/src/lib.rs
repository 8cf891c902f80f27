//! Host-time benchmark of the off-path SmartNIC simulator.
//!
//! One process drives the simulator through its public entry points as
//! a closed loop: one client, each workload iteration starting when the
//! previous one ends, every iteration's simulated output checked. The
//! untraced run reports the end-to-end metrics; the traced run reports
//! the per-layer ones. See `README.md` for the workloads and the
//! layer→metric map.

pub mod guard;
pub mod host;
pub mod probe;
pub mod trace;
pub mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use guard::{Guard, Outcome};
use host::{median, peak_rss_mb, process_cpu_s, tail};
use simnet::metrics::Hop;
use trace::{allocs, count_allocs, Trace};
use workload::{harness_sweep, Horizon, Workload};

/// The end-to-end metrics of an untraced run, as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics every workload's traced run reports, with units,
/// besides the per-call harness timings and per-hop model means.
const LAYER_METRICS: [(&str, &str); 33] = [
    ("alloc.per_event", "allocs/event"),
    ("alloc.setup", "allocs"),
    ("host.ns_per_event", "ns/event"),
    ("host.cpu_per_wall", "ratio"),
    ("runtime.epochs", "count"),
    ("runtime.events_per_epoch", "events/epoch"),
    ("shard.max_event_share", "ratio"),
    ("switch.msgs_routed", "count"),
    ("switch.msgs_dropped", "count"),
    ("switch.route_ns", "ns/op"),
    ("engine.op_ns", "ns/op"),
    ("sim.events", "count"),
    ("kv.ops", "count"),
    ("kv.probe_trips", "count"),
    ("kv.decisions", "count"),
    ("kv.design_changes", "count"),
    ("kv.dpa_gets", "count"),
    ("kvstore.get_ns", "ns/op"),
    ("fm.accesses", "count"),
    ("fm.promotes", "count"),
    ("fm.demotions", "count"),
    ("fm.cache_hit_ratio", "ratio"),
    ("farmem.cache_get_ns", "ns/op"),
    ("dpa.served", "count"),
    ("dpa.spill_ratio", "ratio"),
    ("openloop.generated", "count"),
    ("openloop.inflight", "count"),
    ("openloop.excess_ns", "ns"),
    ("faults.msgs_dropped", "count"),
    ("faults.path3_retries", "count"),
    ("sim.completions", "count"),
    ("sim.p99_ns", "ns"),
    ("sim.output_fnv32", "hash"),
];

/// Every per-layer metric of a traced run, as `(name, unit)`, in the
/// order they are reported.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    v.extend(
        harness_sweep(0)
            .into_iter()
            .map(|c| (format!("harness.{}.s", c.name), "s")),
    );
    v.extend(
        Hop::ALL
            .iter()
            .map(|h| (format!("model.hop.{}_ns", h.label()), "ns")),
    );
    v.push(("trace.overhead_frac".to_string(), "ratio"));
    v
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Seed of every simulated input.
    pub seed: u64,
    /// Host seconds of measured iterations, after one warm-up and at
    /// least [`MIN_ITERS`] of them.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// Fewest measured iterations: enough for a tail figure.
pub const MIN_ITERS: usize = host::TAIL_BEYOND + 1;

/// Wall-clock limit of any one guarded simulator call.
const GUARD: Duration = Duration::from_secs(60);

/// The outcome of a run.
#[derive(Debug)]
pub struct Report {
    /// Guarded simulator calls made: iterations, set-up calls and the
    /// traced run's probes.
    pub attempted: u64,
    /// Calls that panicked, overran the guard or failed their check.
    pub failed: u64,
    /// Why each failed call failed.
    pub failures: Vec<String>,
    /// Measured iterations behind the timings.
    pub iterations: usize,
    /// The untraced run's tail iteration time: the highest whole
    /// percentile with at least ten iterations beyond it, and its seconds.
    pub tail: Option<(u32, f64)>,
    /// The reference simulated-output digest (first iteration's).
    pub digest: Option<String>,
    /// `(name, value, unit)`, end-to-end or per-layer.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The traced run's spans (empty when untraced).
    pub trace: Trace,
}

impl Report {
    /// Every call succeeded and passed its check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// What one guarded iteration hands back.
struct Iteration {
    /// Host seconds of the `run` phase (the `run_cluster` call).
    wall: f64,
    /// Process CPU seconds over the same phase.
    cpu: f64,
    digest: String,
    verdict: Result<(), String>,
    events: u64,
    /// Traced only: per-layer counts, allocations, spans.
    counts: Vec<(&'static str, f64)>,
    allocs_run: u64,
    allocs_setup: u64,
    trace: Trace,
}

fn iterate(w: Workload, seed: u64, traced: bool) -> Iteration {
    let mut tr = Trace::new(traced);
    let iter = tr.open("iter", None);
    let (plan, setup_plan) = tr.span("build", iter, |_, _| {
        let setup = traced.then(|| w.plan(seed, Horizon::Setup));
        (w.plan(seed, Horizon::Full), setup)
    });
    let mut allocs_setup = 0;
    if let Some(sp) = setup_plan {
        let a = allocs();
        count_allocs(true);
        tr.span("setup", iter, |tr, id| sp.execute(tr, id));
        count_allocs(false);
        allocs_setup = allocs() - a;
    }
    let a = allocs();
    count_allocs(traced);
    let run = tr.open("run", iter);
    let (c0, t0) = (process_cpu_s(), Instant::now());
    let out = plan.execute(&mut tr, run);
    let (wall, cpu) = (t0.elapsed().as_secs_f64(), process_cpu_s() - c0);
    tr.close(run);
    count_allocs(false);
    let allocs_run = allocs() - a;
    let (digest, verdict, counts) = tr.span("check", iter, |_, _| {
        let counts = if traced { out.counts() } else { Vec::new() };
        (out.digest(), out.check(), counts)
    });
    tr.close(iter);
    Iteration {
        wall,
        cpu,
        digest,
        verdict,
        events: out.result.events,
        counts,
        allocs_run,
        allocs_setup,
        trace: tr,
    }
}

/// The layer probes, each in its own `probe.<layer>` span, as per-layer
/// metric values. Inputs come from the workload's plan; the harness and
/// model probes run the single-machine Fig-4 sweep, which no workload
/// iteration touches.
fn probes(w: Workload, seed: u64) -> (Vec<(String, f64)>, Trace) {
    let mut tr = Trace::new(true);
    let plan = w.plan(seed, Horizon::Full);
    let (scenario, streams) = (&plan.scenario, &plan.streams);
    let depth = probe::pending_depth(&plan);
    let mut v: Vec<(String, f64)> = vec![
        (
            "engine.op_ns".into(),
            tr.span("probe.engine", None, |_, _| {
                probe::engine_op_ns(depth, seed)
            }),
        ),
        (
            "switch.route_ns".into(),
            tr.span("probe.switch", None, |_, _| {
                probe::switch_route_ns(scenario, streams)
            }),
        ),
    ];
    if let Some(kv) = streams.iter().find_map(|s| s.kv) {
        let servers = scenario.cluster.servers.len();
        let ns = tr.span("probe.kvstore", None, |_, _| {
            probe::kvstore_get_ns(&kv, servers, seed)
        });
        v.push(("kvstore.get_ns".into(), ns));
    }
    if let Some(fm) = streams.iter().find_map(|s| s.farmem) {
        let ns = tr.span("probe.farmem", None, |_, _| {
            probe::farmem_cache_get_ns(&fm, seed)
        });
        v.push(("farmem.cache_get_ns".into(), ns));
    }
    let calls = tr.span("probe.harness", None, |tr, id| {
        probe::harness_secs(seed, tr, id)
    });
    v.extend(
        calls
            .into_iter()
            .map(|(c, s)| (format!("harness.{c}.s"), s)),
    );
    let hops = tr.span("probe.model", None, |_, _| probe::model_hops(seed));
    v.extend(
        hops.into_iter()
            .map(|(h, ns)| (format!("model.hop.{}_ns", h.label()), ns)),
    );
    (v, tr)
}

fn describe<T>(o: &Outcome<T>) -> String {
    match o {
        Outcome::Done(_) => "done".into(),
        Outcome::Panicked(m) => format!("panicked: {m}"),
        Outcome::Hung => "hung: overran the wall-clock guard".into(),
    }
}

impl Report {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// Runs one benchmark run: the untraced run's end-to-end metrics, or the
/// traced run's per-layer metrics.
pub fn run(cfg: &Config) -> Report {
    let (w, seed) = (cfg.workload, cfg.seed);
    let mut guard = Guard::new(GUARD);
    let mut report = Report {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        iterations: 0,
        tail: None,
        digest: None,
        metrics: Vec::new(),
        trace: Trace::new(cfg.trace),
    };

    // Iteration 0 warms up and fixes the reference digest. The untraced
    // run follows every measured iteration with one set-up call, so both
    // sample the same stretch of host time; the traced run alternates
    // traced and untraced iterations.
    let mut setup = Vec::new();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut traced_iters: Vec<Iteration> = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut start = Instant::now();
    let mut n = 0usize;
    while !guard.is_hung() {
        let measured = walls.len() + untraced_walls.len() + traced_iters.len();
        if n > 0 && measured >= MIN_ITERS && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        let traced = cfg.trace && n % 2 == 1;
        report.attempted += 1;
        let outcome = guard.run(move || iterate(w, seed, traced));
        let it = match outcome {
            Outcome::Done(it) => it,
            other => {
                report.fail(format!("{} iteration {n}: {}", w.name(), describe(&other)));
                n += 1;
                continue;
            }
        };
        let reference = report.digest.get_or_insert_with(|| it.digest.clone());
        let verdict = it
            .verdict
            .clone()
            .and_then(|()| workload::check_digest(reference, &it.digest));
        if let Err(e) = verdict {
            report.fail(format!("{} iteration {n}: {e}", w.name()));
        } else if n == 0 {
            start = Instant::now();
        } else if traced {
            traced_iters.push(it);
        } else if cfg.trace {
            untraced_walls.push(it.wall);
        } else {
            walls.push(it.wall);
            cpus.push(it.cpu);
            report.attempted += 1;
            let outcome = guard.run(move || {
                let plan = w.plan(seed, Horizon::Setup);
                let t = Instant::now();
                let _out = plan.execute(&mut Trace::new(false), None);
                t.elapsed().as_secs_f64()
            });
            match outcome {
                Outcome::Done(secs) => setup.push(secs),
                other => report.fail(format!("{} set-up call: {}", w.name(), describe(&other))),
            }
        }
        n += 1;
    }
    report.iterations = walls.len() + untraced_walls.len() + traced_iters.len();

    let med = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
    if !cfg.trace {
        report.tail = (!walls.is_empty()).then(|| tail(&walls));
        let ok = (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64;
        let values = [
            med(&walls),
            med(&cpus),
            med(&setup),
            peak_rss_mb().unwrap_or(0.0),
            ok,
        ];
        report.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect();
        return report;
    }

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    if !guard.is_hung() {
        report.attempted += 1;
        match guard.run(move || probes(w, seed)) {
            Outcome::Done((v, tr)) => {
                values.extend(v);
                report.trace.adopt(tr);
            }
            other => report.fail(format!("{} probes: {}", w.name(), describe(&other))),
        }
    }
    if let Some(first) = traced_iters.first() {
        values.extend(first.counts.iter().map(|&(k, v)| (k.to_string(), v)));
        let per = |f: &dyn Fn(&Iteration) -> f64| -> f64 {
            med(&traced_iters.iter().map(f).collect::<Vec<_>>())
        };
        let ev = |it: &Iteration| it.events.max(1) as f64;
        values.insert(
            "alloc.per_event".into(),
            per(&|it| it.allocs_run as f64 / ev(it)),
        );
        values.insert("alloc.setup".into(), per(&|it| it.allocs_setup as f64));
        values.insert(
            "host.ns_per_event".into(),
            per(&|it| it.wall * 1e9 / ev(it)),
        );
        values.insert("host.cpu_per_wall".into(), per(&|it| it.cpu / it.wall));
        let traced_wall = per(&|it| it.wall);
        if !untraced_walls.is_empty() {
            values.insert(
                "trace.overhead_frac".into(),
                traced_wall / med(&untraced_walls) - 1.0,
            );
        }
    }
    for it in traced_iters {
        report.trace.adopt(it.trace);
    }
    report.metrics = per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect();
    report
}
