//! `perf` — macro benchmarks tracking simulator events/sec.
//!
//! Runs the perf-trajectory suite (single-machine Fig-4 sweep, the
//! cluster Fig-5 combination, the incast fan-in, a faulty cluster
//! run, an open-loop arrival-driven run, the KV
//! service under the online advisor, the far-memory tier over the
//! remote SoC pool, and the KV service on a BF-3 rack serving from
//! the DPA plane), printing
//! events/sec per scenario and emitting a
//! machine-readable `BENCH_<date>.json` snapshot in the current
//! directory. Committed snapshots in the repo root form the trajectory
//! that regression-gates hot-path changes.
//!
//! ```text
//! cargo run --release -p snic-bench --bin perf            # full suite + snapshot
//! cargo run --release -p snic-bench --bin perf -- --only fig5
//! cargo run --release -p snic-bench --bin perf -- --out /tmp/bench.json
//! cargo run --release -p snic-bench --bin perf -- --check BENCH_2026-08-07.json
//! BENCH_SAMPLES=3 cargo run --release -p snic-bench --bin perf   # CI smoke
//! ```
//!
//! `--check <file>` parses an existing snapshot and verifies every
//! expected bench key is present with sane throughput fields (nonzero
//! exit otherwise) — the CI smoke uses it to make a broken emitter a
//! tier-1 failure. `--only <prefix>` runs a subset (the emitted partial
//! snapshot then deliberately fails `--check`).

use nicsim::{PathKind, Verb};
use simnet::arrivals::{DropPolicy, OpenLoopSpec};
use simnet::faults::{DegradedWindow, FaultSpec};
use simnet::time::Nanos;
use snic_bench::report::{validate_snapshot, Snapshot, EXPECTED_BENCHES};
use snic_bench::timing::{Bench, Measurement};
use snic_cluster::{
    advisor_policy, run_cluster, ClusterScenario, ClusterStream, KvPlacement, KvStreamSpec,
};
use snic_core::harness::{run_scenario, Scenario, ServerKind, StreamSpec};
use snic_farmem::{FmPlacement, FmStreamSpec};
use snic_kvstore::{KeyDist, Mix};
use topology::MachineSpec;

/// Default timed iterations per macro bench (override: `BENCH_SAMPLES`).
const DEFAULT_SAMPLES: usize = 5;

/// Single-machine Fig-4-style sweep: every path × {READ, WRITE} at a
/// small and a large payload. Returns total events delivered.
fn fig4_sweep() -> u64 {
    let sc = Scenario {
        warmup: Nanos::from_micros(100),
        duration: Nanos::from_micros(600),
        seed: 7,
        ..Scenario::default()
    };
    let mut events = 0u64;
    for verb in [Verb::Read, Verb::Write] {
        for payload in [64u64, 4096] {
            for path in PathKind::ALL {
                let s = Scenario {
                    server: if path == PathKind::Rnic1 {
                        ServerKind::Rnic
                    } else {
                        ServerKind::Bluefield
                    },
                    ..sc.clone()
                };
                let n = if path.is_remote() { 11 } else { 1 };
                let r = run_scenario(&s, &[StreamSpec::new(path, verb, payload, n)]);
                events += r.events;
            }
        }
    }
    events
}

/// Cluster scenario shared by the fig5/incast/faults macro benches: the
/// quick horizon with six client machines (the cluster goldens'
/// configuration, so the benched path is exactly the gated one).
fn bench_cluster() -> ClusterScenario {
    let mut sc = ClusterScenario::quick().with_seed(17);
    sc.cluster.clients.truncate(6);
    sc
}

/// Fig-5 flow combination (READ+WRITE on path 1, 4 KB). Returns events
/// delivered across all shards.
fn fig5_cluster() -> u64 {
    let sc = bench_cluster();
    let a = ClusterStream::new(PathKind::Snic1, Verb::Read, 4 << 10, vec![0, 1, 2])
        .with_window(16)
        .with_threads(12);
    let b = ClusterStream::new(PathKind::Snic1, Verb::Write, 4 << 10, vec![3, 4, 5])
        .with_window(16)
        .with_threads(12);
    run_cluster(&sc, &[a, b]).events
}

/// Incast fan-in: six clients write 4 KB to one responder.
fn incast() -> u64 {
    let sc = bench_cluster();
    let stream = ClusterStream::new(PathKind::Snic1, Verb::Write, 4 << 10, (0..6).collect());
    run_cluster(&sc, &[stream]).events
}

/// The active-fault cluster run (wire loss + PCIe corruption + a
/// degradation window), exercising retransmission machinery.
fn faults() -> u64 {
    let fault_spec = FaultSpec::none()
        .with_seed(99)
        .with_wire_loss(0.005)
        .with_pcie_corrupt(0.01)
        .with_pcie_window(DegradedWindow {
            from: Nanos::from_micros(200),
            to: Nanos::from_micros(400),
            slowdown: 4.0,
            extra_latency: Nanos::new(200),
        });
    let sc = bench_cluster().with_faults(fault_spec);
    let streams = vec![
        ClusterStream::new(PathKind::Snic1, Verb::Write, 4096, vec![0, 1, 2]),
        ClusterStream::new(PathKind::Snic2, Verb::Read, 256, vec![3, 4, 5]),
        ClusterStream::new(PathKind::Snic3H2S, Verb::Write, 1024, vec![]),
    ];
    run_cluster(&sc, &streams).events
}

/// Open-loop cluster run: two arrival-driven streams (one drop-tail,
/// one drop-deadline) on the shared bench cluster, exercising the
/// arrival chains, admission queues and NACK machinery.
fn openloop() -> u64 {
    let sc = bench_cluster();
    let a = ClusterStream::new(PathKind::Snic1, Verb::Write, 512, vec![0, 1, 2])
        .open_loop(OpenLoopSpec::poisson(6.0e6));
    let b = ClusterStream::new(PathKind::Snic2, Verb::Read, 256, vec![3, 4, 5]).open_loop(
        OpenLoopSpec::poisson(2.0e6).with_policy(DropPolicy::DropDeadline(Nanos::from_micros(20))),
    );
    run_cluster(&sc, &[a, b]).events
}

/// The KV service under the online advisor: YCSB-B over an open-loop
/// Poisson stream hot enough that the advisor re-places the index,
/// exercising the KV request routing, probe chains, the per-window
/// observation plumbing and the epoch decision chain.
fn kv_cluster() -> u64 {
    let sc = bench_cluster();
    let spec = KvStreamSpec::new(
        Mix::B,
        KeyDist::Zipf(0.99),
        KvPlacement::Online(advisor_policy),
    );
    let stream =
        ClusterStream::kv_service(spec, (0..6).collect()).open_loop(OpenLoopSpec::poisson(10.0e6));
    run_cluster(&sc, &[stream]).events
}

/// The far-memory tier over the remote pool: an open-loop page-access
/// stream whose misses promote pages over path ② and whose demotions
/// write back in the background, exercising the residency table, the
/// SoC page caches and the FmGet/FmPut/FmResp plumbing.
fn farmem() -> u64 {
    let sc = bench_cluster();
    let stream =
        ClusterStream::fm_service(FmStreamSpec::new(FmPlacement::RemoteSoc), (0..6).collect())
            .open_loop(OpenLoopSpec::poisson(2.0e6));
    run_cluster(&sc, &[stream]).events
}

/// The BF-3 DPA plane: the KV service on a rack whose servers carry
/// the DPA, driven hard enough that the online advisor moves a
/// scratch-resident index onto the NIC cores — exercising the
/// kick/serve/spill machinery and the dpa_* conservation counters.
fn dpa() -> u64 {
    let mut sc = bench_cluster();
    let n = sc.cluster.servers.len();
    sc.cluster.servers = vec![MachineSpec::srv_with_bluefield3_dpa(); n];
    let spec = KvStreamSpec::new(
        Mix::C,
        KeyDist::Uniform,
        KvPlacement::Online(advisor_policy),
    )
    .with_keys(500)
    .with_value_size(64);
    let stream =
        ClusterStream::kv_service(spec, (0..6).collect()).open_loop(OpenLoopSpec::poisson(12.0e6));
    run_cluster(&sc, &[stream]).events
}

fn usage() -> ! {
    eprintln!(
        "perf: macro benchmarks tracking simulator events/sec\n\
         options: --only <prefix> (run a subset)  --out <file> (snapshot path)\n\
         \x20        --check <file> (validate an existing snapshot and exit)\n\
         env: BENCH_SAMPLES (default {DEFAULT_SAMPLES}), BENCH_WARMUP (default 3)"
    );
    std::process::exit(2);
}

fn main() {
    let mut only: Option<String> = None;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--only" => only = Some(it.next().unwrap_or_else(|| usage())),
            "--out" => out = Some(it.next().unwrap_or_else(|| usage())),
            "--check" => check = Some(it.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    if let Some(path) = check {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("perf --check: cannot read {path}: {e}");
            std::process::exit(1);
        });
        match validate_snapshot(&text, EXPECTED_BENCHES) {
            Ok(names) => {
                println!("{path}: valid snapshot with {} benches", names.len());
                return;
            }
            Err(e) => {
                eprintln!("perf --check: {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    type BenchFn = fn() -> u64;
    let bench = Bench::from_env(DEFAULT_SAMPLES);
    let suite: &[(&str, BenchFn)] = &[
        ("fig4_sweep", fig4_sweep),
        ("fig5_cluster", fig5_cluster),
        ("incast", incast),
        ("faults", faults),
        ("openloop", openloop),
        ("kv_cluster", kv_cluster),
        ("farmem", farmem),
        ("dpa", dpa),
    ];

    let mut measurements: Vec<Measurement> = Vec::new();
    for (name, f) in suite {
        if let Some(p) = &only {
            if !name.starts_with(p.as_str()) {
                continue;
            }
        }
        let m = bench.measure(name, f);
        println!("{}", m.summary_line());
        measurements.push(m);
    }
    if measurements.is_empty() {
        eprintln!("perf: no bench matches --only filter");
        std::process::exit(1);
    }

    let snap = Snapshot::new(&measurements).unwrap_or_else(|e| {
        eprintln!("perf: refusing to emit snapshot: {e}");
        std::process::exit(1);
    });
    let path = out.unwrap_or_else(|| snap.file_name());
    std::fs::write(&path, snap.to_json()).unwrap_or_else(|e| {
        eprintln!("perf: cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {path} (git {})", snap.git_rev);
}
