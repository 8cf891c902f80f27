//! The two workloads, how one iteration of each runs, and what its
//! simulated output must satisfy; plus the single-machine harness sweep
//! the traced run times as a layer probe.
//!
//! Everything here goes through the simulator's public entry points,
//! `snic_cluster::run_cluster` and `snic_core::harness::run_scenario`.

use nicsim::{PathKind, Verb};
use simnet::arrivals::OpenLoopSpec;
use simnet::faults::FaultSpec;
use simnet::metrics::Registry;
use simnet::time::Nanos;
use snic_cluster::{
    advisor_policy, run_cluster, ClusterResult, ClusterScenario, ClusterStream, KvPlacement,
    KvStreamSpec,
};
use snic_core::harness::{Scenario, ServerKind, StreamSpec};
use snic_farmem::{FmPlacement, FmStreamSpec};
use snic_kvstore::{KeyDist, Mix};
use topology::MachineSpec;

use crate::trace::{SpanId, Trace};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop raw verbs on paths 1 and 2 across the Table-2 rack.
    RackVerbs,
    /// Open-loop KV and far-memory services on a BF-3 DPA rack with
    /// faults.
    RackServices,
}

/// How far an iteration simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Horizon {
    /// The workload's measured horizon.
    Full,
    /// A 1 ns horizon with no warmup: the same call doing (almost) only
    /// its construction work.
    Setup,
}

/// The `run_cluster` call one iteration makes.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Rack, horizon, faults and seed.
    pub scenario: ClusterScenario,
    /// The load.
    pub streams: Vec<ClusterStream>,
}

/// What one iteration's `run_cluster` call returned.
#[derive(Debug)]
pub struct Output {
    /// The result.
    pub result: ClusterResult,
    /// Streams whose conservation is `generated == completed + inflight`.
    pub fm_streams: Vec<usize>,
}

/// One `run_scenario` call of the harness sweep.
#[derive(Debug, Clone)]
pub struct HarnessCall {
    /// `<path>_<verb>_<bytes>`, e.g. `snic1_read_64`.
    pub name: String,
    /// The machine and horizon.
    pub scenario: Scenario,
    /// The single closed-loop stream.
    pub stream: StreamSpec,
}

/// Stable lowercase identifier of a path.
fn path_id(path: PathKind) -> &'static str {
    match path {
        PathKind::Rnic1 => "rnic1",
        PathKind::Snic1 => "snic1",
        PathKind::Snic2 => "snic2",
        PathKind::Snic3S2H => "snic3s2h",
        PathKind::Snic3H2S => "snic3h2s",
    }
}

/// The single-machine harness regenerating Fig 4: every path × {READ,
/// WRITE} × {64 B, 4 KB}, closed loop, 11 requesters on remote paths,
/// 600 µs horizon with 100 µs warmup.
pub fn harness_sweep(seed: u64) -> Vec<HarnessCall> {
    let mut calls = Vec::new();
    for path in PathKind::ALL {
        for verb in [Verb::Read, Verb::Write] {
            for payload in [64u64, 4096] {
                let scenario = Scenario {
                    server: if path == PathKind::Rnic1 {
                        ServerKind::Rnic
                    } else {
                        ServerKind::Bluefield
                    },
                    warmup: Nanos::from_micros(100),
                    duration: Nanos::from_micros(600),
                    seed,
                    ..Scenario::default()
                };
                let requesters = if path.is_remote() { 11 } else { 1 };
                calls.push(HarnessCall {
                    name: format!(
                        "{}_{}_{payload}",
                        path_id(path),
                        verb.label().to_lowercase()
                    ),
                    scenario,
                    stream: StreamSpec::new(path, verb, payload, requesters),
                });
            }
        }
    }
    calls
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::RackVerbs, Workload::RackServices];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RackVerbs => "rack_verbs",
            Workload::RackServices => "rack_services",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `run_cluster` call of one iteration at `seed`. The worker
    /// count stays at the scenario default.
    pub fn plan(self, seed: u64, h: Horizon) -> Plan {
        let mut scenario = ClusterScenario::paper_testbed().with_seed(seed);
        let streams = match self {
            Workload::RackVerbs => vec![
                ClusterStream::new(PathKind::Snic1, Verb::Read, 4096, (0..8).collect()),
                ClusterStream::new(PathKind::Snic1, Verb::Write, 4096, (8..16).collect()),
                ClusterStream::new(PathKind::Snic2, Verb::Read, 64, (16..20).collect()),
            ],
            Workload::RackServices => {
                scenario = scenario.with_faults(
                    FaultSpec::none()
                        .with_seed(seed ^ 0x5eed_fa17)
                        .with_wire_loss(0.002)
                        .with_pcie_corrupt(0.01),
                );
                let n = scenario.cluster.servers.len();
                scenario.cluster.servers = vec![MachineSpec::srv_with_bluefield3_dpa(); n];
                let kv = KvStreamSpec::new(
                    Mix::A,
                    KeyDist::Zipf(0.99),
                    KvPlacement::Online(advisor_policy),
                );
                vec![
                    ClusterStream::kv_service(kv, (0..12).collect())
                        .open_loop(OpenLoopSpec::poisson(10.0e6)),
                    ClusterStream::fm_service(
                        FmStreamSpec::new(FmPlacement::RemoteSoc),
                        (12..20).collect(),
                    )
                    .open_loop(OpenLoopSpec::poisson(2.0e6)),
                ]
            }
        };
        (scenario.warmup, scenario.duration) = match h {
            Horizon::Full => (Nanos::from_micros(100), Nanos::from_millis(2)),
            Horizon::Setup => (Nanos::ZERO, Nanos::new(1)),
        };
        Plan { scenario, streams }
    }
}

impl Plan {
    /// Runs the plan's `run_cluster` call in a span under `parent`.
    pub fn execute(&self, trace: &mut Trace, parent: Option<SpanId>) -> Output {
        let result = trace.span("run_cluster", parent, |_, _| {
            run_cluster(&self.scenario, &self.streams)
        });
        let fm_streams = self
            .streams
            .iter()
            .enumerate()
            .filter(|(_, s)| s.farmem.is_some())
            .map(|(i, _)| i)
            .collect();
        Output { result, fm_streams }
    }
}

fn counter(reg: &Registry, name: &str) -> u64 {
    reg.counter_value(name).unwrap_or(0)
}

/// 32-bit FNV-1a.
pub fn fnv32(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5u32, |h, &b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    })
}

/// Checks an iteration's digest against the run's reference: the same
/// seed must simulate byte-identically on every iteration.
pub fn check_digest(reference: &str, digest: &str) -> Result<(), String> {
    if reference == digest {
        Ok(())
    } else {
        Err(format!(
            "digest {:08x} differs from the run's first {:08x}",
            fnv32(digest.as_bytes()),
            fnv32(reference.as_bytes())
        ))
    }
}

impl Output {
    /// Every simulated quantity of the iteration as text
    /// (`ClusterResult::to_csv` plus every registry counter): two
    /// byte-identical digests mean two identical simulations.
    pub fn digest(&self) -> String {
        let mut d = self.result.to_csv();
        d.push_str("counter,value\n");
        for (name, v) in self.result.metrics.counters() {
            d.push_str(&format!("{name},{v}\n"));
        }
        d
    }

    /// Checks the output's conservation identities and that every stream
    /// completed work.
    pub fn check(&self) -> Result<(), String> {
        let reg = &self.result.metrics;
        for s in &self.result.streams {
            if s.completions == 0 {
                return Err(format!("stream '{}' completed no ops", s.label));
            }
        }
        let (g, c, d, i) = (
            counter(reg, "openloop_generated"),
            counter(reg, "openloop_completed"),
            counter(reg, "openloop_dropped"),
            counter(reg, "openloop_inflight"),
        );
        if g != c + d + i {
            return Err(format!(
                "open-loop conservation: generated {g} != completed {c} + dropped {d} + inflight {i}"
            ));
        }
        if let Some(served) = reg.counter_value("dpa_served") {
            let (hits, spills) = (counter(reg, "dpa_scratch_hits"), counter(reg, "dpa_spills"));
            if served != hits + spills {
                return Err(format!(
                    "DPA conservation: served {served} != scratch hits {hits} + spills {spills}"
                ));
            }
        }
        for &si in &self.fm_streams {
            let s = &self.result.streams[si];
            if s.dropped != 0 || s.generated != s.completed_total + s.inflight {
                return Err(format!(
                    "far-memory conservation on '{}': generated {} != completed {} + inflight {} (dropped {})",
                    s.label, s.generated, s.completed_total, s.inflight, s.dropped
                ));
            }
        }
        Ok(())
    }

    /// The per-layer counts read from the result, as `(metric, value)`;
    /// layers the workload does not run read 0. Every value is a pure
    /// function of the simulation.
    pub fn counts(&self) -> Vec<(&'static str, f64)> {
        let (result, reg) = (&self.result, &self.result.metrics);
        let events = result.events as f64;
        let c = |n: &str| counter(reg, n) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let max_shard = reg
            .counters()
            .filter(|(n, _)| n.starts_with("shard") && n.ends_with("_events"))
            .map(|(_, x)| x)
            .max()
            .unwrap_or(0) as f64;
        let completions: u64 = result.streams.iter().map(|s| s.completions).sum();
        let p99 = result
            .streams
            .iter()
            .map(|s| s.latency.p99.as_nanos())
            .max();
        vec![
            ("sim.events", events),
            ("sim.completions", completions as f64),
            ("sim.p99_ns", p99.unwrap_or(0) as f64),
            (
                "sim.output_fnv32",
                f64::from(fnv32(self.digest().as_bytes())),
            ),
            ("runtime.epochs", result.epochs as f64),
            (
                "runtime.events_per_epoch",
                ratio(events, result.epochs as f64),
            ),
            ("shard.max_event_share", ratio(max_shard, events)),
            ("switch.msgs_routed", c("msgs_routed")),
            ("switch.msgs_dropped", c("msgs_dropped")),
            ("kv.ops", c("kv_gets") + c("kv_puts")),
            ("kv.probe_trips", c("kv_probe_trips")),
            ("kv.decisions", c("kv_decisions")),
            ("kv.design_changes", c("kv_design_changes")),
            ("kv.dpa_gets", c("kv_dpa_gets")),
            ("fm.accesses", c("fm_accesses")),
            ("fm.promotes", c("fm_promotes")),
            ("fm.demotions", c("fm_demotions")),
            (
                "fm.cache_hit_ratio",
                ratio(c("fm_cache_hits"), c("fm_pool_gets")),
            ),
            ("dpa.served", c("dpa_served")),
            ("dpa.spill_ratio", ratio(c("dpa_spills"), c("dpa_served"))),
            ("openloop.generated", c("openloop_generated")),
            ("openloop.inflight", c("openloop_inflight")),
            ("openloop.excess_ns", c("openloop_excess_ns")),
            ("faults.msgs_dropped", c("msgs_dropped")),
            (
                "faults.path3_retries",
                c("kv_path3_retries") + c("fm_path3_retries"),
            ),
        ]
    }
}
