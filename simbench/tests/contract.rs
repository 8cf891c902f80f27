//! The benchmark's own contract: the metric names it emits are the ones
//! `BENCHMARK.json` declares, its correctness check rejects broken
//! results, its counts repeat exactly at a fixed seed, a held-out seed
//! runs clean, and the guard ends a real simulator hang.
//!
//! These run whole workload iterations; use `cargo test --release`.

use std::time::Duration;

use nicsim::{PathKind, Verb};
use simbench::guard::{Guard, Outcome};
use simbench::workload::{check_digest, Horizon, Output, Workload};
use simbench::{per_layer_metrics, run, trace::Trace, Config, Report, END_TO_END};
use snic_cluster::{run_cluster, ClusterScenario, ClusterStream};

/// A run of `w` with the fewest iterations the loop allows.
fn short(workload: Workload, seed: u64, trace: bool) -> Report {
    run(&Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
    })
}

/// `(name, unit)` of every entry in one array section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..start + text[start..].find(']').expect("closing bracket")];
    let field = |obj: &str, key: &str| -> String {
        let k = format!("\"{key}\": \"");
        obj.find(&k).map_or(String::new(), |i| {
            let rest = &obj[i + k.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn emitted(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.to_string()))
        .collect()
}

#[test]
fn emitted_metric_names_match_benchmark_json() {
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);

    let e2e = declared("end_to_end");
    let want: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(e2e, want);
    let untraced = short(Workload::RackVerbs, 3, false);
    assert!(untraced.correct(), "{:?}", untraced.failures);
    assert_eq!(emitted(&untraced), e2e);

    let layers = declared("per_layer");
    let want: Vec<(String, String)> = per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(layers, want);
    let traced = short(Workload::RackVerbs, 3, true);
    assert!(traced.correct(), "{:?}", traced.failures);
    assert_eq!(emitted(&traced), layers);
    let spans = traced.trace.spans();
    for name in [
        "iter",
        "build",
        "setup",
        "run",
        "run_cluster",
        "check",
        "probe.harness",
    ] {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span");
    }
    for m in [
        "harness.snic1_read_64.s",
        "model.hop.wire_ns",
        "switch.route_ns",
        "runtime.epochs",
    ] {
        assert!(traced.metric(m).unwrap() > 0.0, "{m} is zero");
    }
}

fn full(w: Workload, seed: u64) -> Output {
    w.plan(seed, Horizon::Full)
        .execute(&mut Trace::new(false), None)
}

#[test]
fn check_rejects_broken_conservation() {
    let mut out = full(Workload::RackServices, 5);
    out.check().expect("the seed output conserves");
    let bump = |r: &mut snic_cluster::ClusterResult, name: &str| {
        let id = r.metrics.counter(name);
        r.metrics.add(id, 1);
    };

    bump(&mut out.result, "openloop_generated");
    let e = out.check().unwrap_err();
    assert!(e.contains("open-loop conservation"), "{e}");

    let mut out = full(Workload::RackServices, 5);
    bump(&mut out.result, "dpa_served");
    let e = out.check().unwrap_err();
    assert!(e.contains("DPA conservation"), "{e}");

    let mut out = full(Workload::RackServices, 5);
    assert_eq!(out.fm_streams, vec![1]);
    out.result.streams[1].inflight += 1;
    let e = out.check().unwrap_err();
    assert!(e.contains("far-memory conservation"), "{e}");
}

#[test]
fn check_rejects_digest_mismatch() {
    // Seeds shape the open-loop arrivals, so two seeds simulate apart.
    let a = full(Workload::RackServices, 1).digest();
    let b = full(Workload::RackServices, 1).digest();
    let c = full(Workload::RackServices, 2).digest();
    check_digest(&a, &b).expect("same seed, same bytes");
    let e = check_digest(&a, &c).unwrap_err();
    assert!(e.contains("differs"), "{e}");
}

/// Per-layer metrics read from the simulator's results, not host time.
fn is_count(name: &str) -> bool {
    [
        "sim.",
        "runtime.",
        "shard.",
        "switch.msgs_",
        "kv.",
        "fm.",
        "dpa.",
        "openloop.",
        "faults.",
        "model.",
    ]
    .iter()
    .any(|p| name.starts_with(p))
}

#[test]
fn same_seed_gives_identical_counts() {
    let a = short(Workload::RackServices, 9, true);
    let b = short(Workload::RackServices, 9, true);
    assert!(
        a.correct() && b.correct(),
        "{:?} {:?}",
        a.failures,
        b.failures
    );
    let counts = |r: &Report| -> Vec<(String, f64)> {
        r.metrics
            .iter()
            .filter(|(n, _, _)| is_count(n))
            .map(|(n, v, _)| (n.clone(), *v))
            .collect()
    };
    assert_eq!(counts(&a), counts(&b));
    assert_eq!(a.digest, b.digest);
    // The services workload runs every serving arm it names.
    for m in [
        "kv.ops",
        "kv.dpa_gets",
        "fm.promotes",
        "dpa.served",
        "faults.msgs_dropped",
    ] {
        assert!(a.metric(m).unwrap() > 0.0, "{m} is zero");
    }
}

#[test]
fn held_out_seed_runs_clean() {
    // Not one of the seeds the benchmark was tuned on.
    const HELD_OUT: u64 = 0x00c0_ffee_d00d;
    for w in Workload::ALL {
        let r = short(w, HELD_OUT, false);
        assert!(r.correct(), "{}: {:?}", w.name(), r.failures);
        assert_eq!(r.failed_frac(), 0.0);
        for (name, v, _) in &r.metrics {
            assert!(*v > 0.0, "{}: {name} reads {v}", w.name());
        }
    }
}

#[test]
fn guard_ends_a_real_simulator_failure() {
    // A DPA-resident stream on a rack without the DPA plane panics
    // inside a shard; with two workers the runtime's coordinating thread
    // then waits at its barrier forever. Either way the guard must hand
    // back a failure rather than stall.
    let mut sc = ClusterScenario::quick().with_workers(2);
    sc.cluster.clients.truncate(3);
    let stream = ClusterStream::new(PathKind::Snic2, Verb::Read, 64, vec![0, 1, 2]).with_dpa();
    let mut guard = Guard::new(Duration::from_secs(10));
    match guard.run(move || run_cluster(&sc, &[stream]).events) {
        Outcome::Done(events) => panic!("the broken configuration ran ({events} events)"),
        Outcome::Panicked(_) | Outcome::Hung => {}
    }
}
