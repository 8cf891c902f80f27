//! Whole-stack determinism: identical seeds produce bit-identical
//! results across the harness, the KV store, the figure pipelines and
//! the cluster runtime (the latter pinned to byte goldens).

use offpath_smartnic::cluster::{run_cluster, ClusterResult, ClusterScenario, ClusterStream};
use offpath_smartnic::nicsim::{PathKind, Verb};
use offpath_smartnic::simnet::rng::SimRng;
use offpath_smartnic::simnet::time::Nanos;
use offpath_smartnic::study::harness::{run_scenario, Scenario, ScenarioResult, StreamSpec};
use offpath_smartnic::study::report::Table;

fn quick(seed: u64) -> Scenario {
    Scenario {
        warmup: Nanos::from_micros(100),
        duration: Nanos::from_micros(600),
        seed,
        ..Scenario::default()
    }
}

#[test]
fn scenario_bit_identical_across_runs() {
    let spec = || {
        vec![
            StreamSpec::new(PathKind::Snic1, Verb::Read, 256, 5),
            StreamSpec::new(PathKind::Snic3H2S, Verb::Write, 1024, 1),
        ]
    };
    let a = run_scenario(&quick(7), &spec());
    let b = run_scenario(&quick(7), &spec());
    for (x, y) in a.streams.iter().zip(b.streams.iter()) {
        assert_eq!(x.ops.as_per_sec(), y.ops.as_per_sec());
        assert_eq!(x.latency.p50, y.latency.p50);
        assert_eq!(x.latency.p99, y.latency.p99);
        assert_eq!(x.goodput.as_bytes_per_sec(), y.goodput.as_bytes_per_sec());
    }
    assert_eq!(a.counters.total_tlps(), b.counters.total_tlps());
}

/// Renders a scenario result exactly as `run_all` does (a
/// [`Table`] serialized to CSV), down to every formatted digit.
fn result_csv(r: &ScenarioResult) -> String {
    let mut t = Table::new(
        "determinism probe",
        &["stream", "mops", "p50_ns", "p99_ns", "goodput_bps", "tlps"],
    );
    for s in &r.streams {
        t.push(vec![
            s.label.clone(),
            format!("{}", s.ops.as_per_sec()),
            format!("{}", s.latency.p50.as_nanos()),
            format!("{}", s.latency.p99.as_nanos()),
            format!("{}", s.goodput.as_bytes_per_sec()),
            format!("{}", r.counters.total_tlps()),
        ]);
    }
    t.to_csv()
}

#[test]
fn scenario_csv_byte_identical_across_runs() {
    // Same seed => the *serialized artifact* (not just summary floats)
    // is byte-for-byte identical across two full pipeline invocations.
    let spec = || {
        vec![
            StreamSpec::new(PathKind::Snic1, Verb::Read, 256, 5),
            StreamSpec::new(PathKind::Snic2, Verb::Write, 64, 5).with_range(1 << 16),
        ]
    };
    let a = result_csv(&run_scenario(&quick(21), &spec()));
    let b = result_csv(&run_scenario(&quick(21), &spec()));
    assert!(!a.is_empty() && a.lines().count() >= 4);
    assert_eq!(
        a.as_bytes(),
        b.as_bytes(),
        "CSV output diverged:\n{a}\nvs\n{b}"
    );
}

#[test]
fn trace_dump_byte_identical_and_ring_wraps() {
    // A deliberately tiny ring: the run records two events per request
    // (post + completion), so the ring wraps many times over — and the
    // retained tail must still be byte-identical across same-seed runs.
    let cap = 64;
    let spec = || {
        vec![
            StreamSpec::new(PathKind::Snic1, Verb::Read, 256, 5),
            StreamSpec::new(PathKind::Snic3H2S, Verb::Write, 1024, 1),
        ]
    };
    let run = || {
        let scenario = quick(13).with_trace_cap(cap);
        run_scenario(&scenario, &spec())
    };
    let a = run();
    let b = run();

    // Wraparound actually happened and eviction kept exactly `cap`.
    assert!(
        a.trace.recorded() > cap as u64,
        "ring never wrapped: {} events",
        a.trace.recorded()
    );
    assert_eq!(a.trace.iter().count(), cap);

    // Same seed => byte-identical dumps, wraparound and all.
    assert_eq!(a.trace.recorded(), b.trace.recorded());
    let da = a.trace.dump();
    let db = b.trace.dump();
    assert!(!da.is_empty());
    assert_eq!(
        da.as_bytes(),
        db.as_bytes(),
        "trace dumps diverged:\n{da}\nvs\n{db}"
    );
}

#[test]
fn trace_disabled_by_default() {
    let spec = vec![StreamSpec::new(PathKind::Snic1, Verb::Read, 256, 2)];
    let r = run_scenario(&quick(13), &spec);
    assert!(!r.trace.is_enabled());
    assert_eq!(r.trace.recorded(), 0);
}

#[test]
fn measured_breakdown_deterministic() {
    let run = || {
        let scenario = quick(29).with_metrics();
        let spec = vec![StreamSpec::new(PathKind::Snic2, Verb::Write, 512, 3)];
        run_scenario(&scenario, &spec)
    };
    let a = run();
    let b = run();
    assert_eq!(a.breakdown[0].count, b.breakdown[0].count);
    assert_eq!(a.breakdown[0].residency, b.breakdown[0].residency);
    assert_eq!(a.breakdown[0].e2e_total, b.breakdown[0].e2e_total);
    for (ca, cb) in a.metrics.counters().zip(b.metrics.counters()) {
        assert_eq!(ca, cb, "counter diverged");
    }
}

#[test]
fn fork_children_independent_of_parent() {
    // A forked child owns private state re-expanded from its derived
    // seed: however much the parent keeps drawing, the child's stream
    // is unchanged (and vice versa). This is what makes per-thread RNGs
    // in the harness insensitive to stream-creation order.
    let mut p1 = SimRng::seed(4242);
    let mut c1 = p1.fork(7);
    let undisturbed: Vec<u64> = (0..128).map(|_| c1.uniform_u64(1 << 40)).collect();

    let mut p2 = SimRng::seed(4242);
    let mut c2 = p2.fork(7);
    let mut interleaved = Vec::new();
    let mut parent_draws = Vec::new();
    for _ in 0..128 {
        parent_draws.push(p2.uniform_u64(1 << 40)); // parent races ahead
        interleaved.push(c2.uniform_u64(1 << 40));
    }
    assert_eq!(undisturbed, interleaved, "parent draws perturbed the child");
    assert_ne!(
        undisturbed, parent_draws,
        "child stream must not mirror the parent's"
    );

    // Distinct salts at the same fork point give distinct streams.
    let mut root = SimRng::seed(4242);
    let mut k1 = root.fork(1);
    let mut k2 = root.fork(2);
    let s1: Vec<u64> = (0..64).map(|_| k1.uniform_u64(1 << 40)).collect();
    let s2: Vec<u64> = (0..64).map(|_| k2.uniform_u64(1 << 40)).collect();
    assert_ne!(s1, s2, "sibling forks must be decorrelated");
}

#[test]
fn different_seeds_differ() {
    let spec = || vec![StreamSpec::new(PathKind::Snic2, Verb::Write, 64, 5).with_range(1 << 16)];
    let a = run_scenario(&quick(1), &spec());
    let b = run_scenario(&quick(2), &spec());
    // Same physics, different address streams: rates close but latencies
    // (orderings) generally not bit-identical.
    let ra = a.streams[0].ops.as_mops();
    let rb = b.streams[0].ops.as_mops();
    assert!(
        (ra - rb).abs() / ra < 0.1,
        "seeds changed physics: {ra} vs {rb}"
    );
}

#[test]
fn figure_pipeline_deterministic() {
    let a = offpath_smartnic::study::experiments::fig7_skew::run(true);
    let b = offpath_smartnic::study::experiments::fig7_skew::run(true);
    for (ta, tb) in a.iter().zip(b.iter()) {
        assert_eq!(ta.rows, tb.rows, "{}", ta.title);
    }
}

#[test]
fn inert_fault_spec_is_byte_identical_to_no_faults() {
    // The zero-cost guarantee: a scenario carrying an explicitly inert
    // FaultSpec must produce byte-identical CSV and metrics to the
    // default scenario that never mentions faults — the inert spec
    // installs no fault plane, so not a single verdict is rolled.
    use offpath_smartnic::simnet::faults::FaultSpec;

    let spec = || {
        vec![
            StreamSpec::new(PathKind::Snic1, Verb::Read, 256, 5),
            StreamSpec::new(PathKind::Snic3H2S, Verb::Write, 1024, 1),
        ]
    };
    let base = quick(33).with_metrics();
    let a = run_scenario(&base.clone(), &spec());
    let b = run_scenario(&base.with_faults(FaultSpec::none()), &spec());
    assert_eq!(
        result_csv(&a).as_bytes(),
        result_csv(&b).as_bytes(),
        "inert faults changed the serialized artifact"
    );
    let ca: Vec<(&str, u64)> = a.metrics.counters().collect();
    let cb: Vec<(&str, u64)> = b.metrics.counters().collect();
    assert_eq!(ca, cb, "inert faults changed the metrics registry");
    assert_eq!(a.streams[0].retransmits, 0);
    assert_eq!(a.streams[0].retry_exhausted, 0);
}

#[test]
fn cluster_inert_fault_spec_is_byte_identical() {
    use offpath_smartnic::simnet::faults::FaultSpec;

    let run = |sc: ClusterScenario| {
        let mut sc = sc.with_seed(5);
        sc.cluster.clients.truncate(3);
        let streams = vec![ClusterStream::new(
            PathKind::Snic1,
            Verb::Write,
            512,
            vec![0, 1, 2],
        )];
        run_cluster(&sc, &streams)
    };
    let a = run(ClusterScenario::quick());
    let b = run(ClusterScenario::quick().with_faults(FaultSpec::none()));
    assert_eq!(a.to_csv().as_bytes(), b.to_csv().as_bytes());
    let ca: Vec<(&str, u64)> = a.metrics.counters().collect();
    let cb: Vec<(&str, u64)> = b.metrics.counters().collect();
    assert_eq!(ca, cb, "inert faults changed the cluster registry");
}

#[test]
fn kvstore_deterministic() {
    use offpath_smartnic::kvstore::{run_gets, Design, KeyDist, KvConfig};
    let cfg = KvConfig {
        n_keys: 2000,
        index_buckets: 1024,
        value_size: 128,
        n_clients: 2,
    };
    let a = run_gets(Design::SocIndex, cfg, 200, KeyDist::Zipf(0.9), 11);
    let b = run_gets(Design::SocIndex, cfg, 200, KeyDist::Zipf(0.9), 11);
    assert_eq!(a.mean_latency, b.mean_latency);
    assert_eq!(a.p99_latency, b.p99_latency);
    assert_eq!(a.gets_per_sec, b.gets_per_sec);
}

// ---------------------------------------------------------------------
// Cluster goldens: six rack scenarios, each pinned byte for byte to a
// file under `tests/golden/`. A golden holds `ClusterResult::to_csv()`
// followed by every registry counter (epochs and routed messages
// included), so any change to the epoch schedule, the switch's routing
// order or a shard's delivery order shows up as a diff. The files are
// never rewritten by the tests; a change that is meant to move
// simulated output must replace them by hand and say why.
// ---------------------------------------------------------------------

/// The golden's byte form: the CSV, then one `name value` line per
/// registry counter in registration order.
fn cluster_dump(r: &ClusterResult) -> String {
    let mut out = r.to_csv();
    for (name, v) in r.metrics.counters() {
        out.push_str(&format!("{name} {v}\n"));
    }
    out
}

/// Compares a run against `tests/golden/<name>.txt`.
fn assert_golden(r: &ClusterResult, name: &str) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let got = cluster_dump(r);
    assert!(
        got == golden,
        "cluster golden {name} diverged:\n--- golden\n{golden}\n--- run\n{got}"
    );
}

fn count(r: &ClusterResult, name: &str) -> u64 {
    r.metrics.counter_value(name).unwrap_or(0)
}

/// Six clients of the paper testbed at the quick duration.
fn six_clients(seed: u64) -> ClusterScenario {
    let mut sc = ClusterScenario::quick().with_seed(seed);
    sc.cluster.clients.truncate(6);
    sc
}

#[test]
fn cluster_golden_mixed_paths() {
    // Remote streams (cross-shard traffic through the switch) and a
    // path-3 stream (server-shard-local) exercise both codepaths.
    let streams = [
        ClusterStream::new(PathKind::Snic1, Verb::Write, 4096, vec![0, 1, 2]),
        ClusterStream::new(PathKind::Snic2, Verb::Read, 256, vec![3, 4, 5]),
        ClusterStream::new(PathKind::Snic3H2S, Verb::Write, 1024, vec![]),
    ];
    let r = run_cluster(&six_clients(17), &streams);
    assert!(
        r.streams.iter().all(|s| s.completions > 100),
        "scenario too idle to prove anything"
    );
    assert!(r.messages > 1000, "too little cross-shard traffic");
    assert_golden(&r, "cluster_mixed_paths");
}

#[test]
fn cluster_golden_with_faults() {
    // An *active* fault plane: wire loss drops frames at the switch,
    // requester timeouts retransmit, and a PCIe degradation window
    // derates the responder. Every verdict is a pure function of
    // (seed, src, seq), so the bytes are as fixed as the fault-free run's.
    use offpath_smartnic::simnet::faults::{DegradedWindow, FaultSpec};

    let faults = FaultSpec::none()
        .with_seed(99)
        .with_wire_loss(0.005)
        .with_pcie_corrupt(0.01)
        .with_pcie_window(DegradedWindow {
            from: Nanos::from_micros(200),
            to: Nanos::from_micros(400),
            slowdown: 4.0,
            extra_latency: Nanos::new(200),
        });
    let streams = [
        ClusterStream::new(PathKind::Snic1, Verb::Write, 4096, vec![0, 1, 2]),
        ClusterStream::new(PathKind::Snic2, Verb::Read, 256, vec![3, 4, 5]),
        ClusterStream::new(PathKind::Snic3H2S, Verb::Write, 1024, vec![]),
    ];
    let r = run_cluster(&six_clients(17).with_faults(faults), &streams);
    assert!(
        count(&r, "rc_retransmits") > 0,
        "fault plane never fired; the test proves nothing"
    );
    assert!(count(&r, "msgs_dropped") > 0, "no frames were dropped");
    assert_golden(&r, "cluster_with_faults");
}

#[test]
fn cluster_golden_openloop() {
    // Open-loop arrival chains, admission verdicts and drop NACKs. One
    // stream is overloaded so drops demonstrably fire.
    use offpath_smartnic::simnet::arrivals::{DropPolicy, OpenLoopSpec};

    let streams = [
        ClusterStream::new(PathKind::Snic1, Verb::Write, 512, vec![0, 1, 2])
            .open_loop(OpenLoopSpec::poisson(60.0e6).with_queue_cap(16)),
        ClusterStream::new(PathKind::Snic2, Verb::Read, 256, vec![3, 4, 5]).open_loop(
            OpenLoopSpec::poisson(2.0e6)
                .with_policy(DropPolicy::DropDeadline(Nanos::from_micros(20))),
        ),
        ClusterStream::new(PathKind::Snic3H2S, Verb::Write, 1024, vec![])
            .open_loop(OpenLoopSpec::poisson(2.0e6)),
    ];
    let r = run_cluster(&six_clients(17), &streams);
    assert!(r.streams.iter().all(|s| s.generated > 100));
    assert!(r.streams[0].dropped > 0, "overload never dropped");
    assert_eq!(
        count(&r, "openloop_generated"),
        count(&r, "openloop_completed")
            + count(&r, "openloop_dropped")
            + count(&r, "openloop_inflight")
    );
    assert_golden(&r, "cluster_openloop");
}

#[test]
fn cluster_golden_kv() {
    // The KV service with the online advisor live: skewed load heavy
    // enough that the advisor re-places the index at least once.
    use offpath_smartnic::cluster::{advisor_policy, KvPlacement, KvStreamSpec};
    use offpath_smartnic::kvstore::{KeyDist, Mix};
    use offpath_smartnic::simnet::arrivals::OpenLoopSpec;

    let spec = KvStreamSpec::new(
        Mix::B,
        KeyDist::Zipf(0.99),
        KvPlacement::Online(advisor_policy),
    );
    let stream =
        ClusterStream::kv_service(spec, (0..6).collect()).open_loop(OpenLoopSpec::poisson(16.0e6));
    let r = run_cluster(&six_clients(17), &[stream]);
    assert!(count(&r, "kv_gets") > 1000, "{}", count(&r, "kv_gets"));
    assert!(count(&r, "kv_puts") > 0);
    assert!(count(&r, "kv_decisions") > 0);
    assert!(
        count(&r, "kv_design_changes") > 0,
        "load never forced a re-placement; the test proves nothing"
    );
    assert_golden(&r, "cluster_kv");
}

#[test]
fn cluster_golden_farmem() {
    // The far-memory tier's whole lifecycle: promotions over the
    // message plane, age-based demotions and background write-backs.
    use offpath_smartnic::farmem::{FmPlacement, FmStreamSpec};
    use offpath_smartnic::simnet::arrivals::OpenLoopSpec;

    let stream =
        ClusterStream::fm_service(FmStreamSpec::new(FmPlacement::RemoteSoc), (0..6).collect())
            .open_loop(OpenLoopSpec::poisson(2.0e6));
    let r = run_cluster(&six_clients(29), &[stream]);
    assert!(
        count(&r, "fm_accesses") > 500,
        "{}",
        count(&r, "fm_accesses")
    );
    assert!(count(&r, "fm_promotes") > 0, "no promotion ever completed");
    assert!(count(&r, "fm_demotions") > 0, "no page ever aged out");
    let s = &r.streams[0];
    assert_eq!(s.dropped, 0, "far-memory streams have no admission queue");
    assert_eq!(
        s.generated,
        s.completed_total + s.inflight,
        "conservation: generated == completed + inflight"
    );
    assert_golden(&r, "cluster_farmem");
}

#[test]
fn cluster_golden_dpa() {
    // The BF-3 DPA plane: a scratch-resident table under 2x load makes
    // the online advisor move the index onto the plane.
    use offpath_smartnic::cluster::{advisor_policy, KvPlacement, KvStreamSpec};
    use offpath_smartnic::kvstore::{KeyDist, Mix};
    use offpath_smartnic::simnet::arrivals::OpenLoopSpec;
    use offpath_smartnic::topology::MachineSpec;

    let mut sc = six_clients(23);
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
        ClusterStream::kv_service(spec, (0..6).collect()).open_loop(OpenLoopSpec::poisson(16.0e6));
    let r = run_cluster(&sc, &[stream]);
    assert!(count(&r, "kv_gets") > 1000, "{}", count(&r, "kv_gets"));
    assert!(
        count(&r, "kv_dpa_gets") > 0,
        "load never moved the index onto the DPA; the test proves nothing"
    );
    assert_eq!(
        count(&r, "dpa_served"),
        count(&r, "dpa_scratch_hits") + count(&r, "dpa_spills"),
        "DPA conservation: served == scratch hits + spills"
    );
    assert_eq!(count(&r, "kv_dpa_gets"), count(&r, "dpa_served"));
    assert_golden(&r, "cluster_dpa");
}

#[test]
fn cluster_golden_closed_services() {
    // The closed-loop serving arms: KV gets answered one-sidedly (the
    // client drives the probe chain with its own READs), remote
    // far-memory promotions and write-backs, a generic SEND stream
    // terminating on the DPA plane, and a plain two-sided SEND stream.
    use offpath_smartnic::cluster::{KvPlacement, KvStreamSpec};
    use offpath_smartnic::farmem::{FmPlacement, FmStreamSpec};
    use offpath_smartnic::kvstore::{Design, KeyDist, Mix};
    use offpath_smartnic::topology::MachineSpec;

    let mut sc = six_clients(31);
    let n = sc.cluster.servers.len();
    sc.cluster.servers = vec![MachineSpec::srv_with_bluefield3_dpa(); n];
    let kv = KvStreamSpec::new(
        Mix::B,
        KeyDist::Zipf(0.99),
        KvPlacement::Static(Design::OneSidedSnic),
    );
    let streams = [
        ClusterStream::kv_service(kv, vec![0, 1]),
        ClusterStream::fm_service(FmStreamSpec::new(FmPlacement::RemoteSoc), vec![2, 3]),
        ClusterStream::new(PathKind::Snic1, Verb::Send, 256, vec![4])
            .with_dpa()
            .with_range(1 << 16),
        ClusterStream::new(PathKind::Snic2, Verb::Send, 512, vec![5]),
    ];
    let r = run_cluster(&sc, &streams);
    assert!(count(&r, "kv_probe_trips") > 0, "no one-sided trip ran");
    assert!(count(&r, "fm_put_acks") > 0, "no write-back was acked");
    assert!(count(&r, "dpa_served") > 0, "the DPA plane served nothing");
    assert!(
        r.streams.iter().all(|s| s.completions > 0),
        "a stream never completed"
    );
    assert_golden(&r, "cluster_closed_services");
}

#[test]
fn cluster_golden_path3_faults() {
    // Every path-3 retry loop under stochastic PCIe corruption: KV gets
    // served by the SoC index, local far-memory promotions, a closed
    // raw path-3 stream, and an open raw path-3 stream beside them.
    use offpath_smartnic::cluster::{KvPlacement, KvStreamSpec};
    use offpath_smartnic::farmem::{FmPlacement, FmStreamSpec};
    use offpath_smartnic::kvstore::{Design, KeyDist, Mix};
    use offpath_smartnic::simnet::arrivals::OpenLoopSpec;
    use offpath_smartnic::simnet::faults::FaultSpec;

    let faults = FaultSpec::none().with_seed(5).with_pcie_corrupt(0.02);
    let kv = KvStreamSpec::new(
        Mix::B,
        KeyDist::Uniform,
        KvPlacement::Static(Design::SocIndex),
    );
    let streams = [
        ClusterStream::kv_service(kv, vec![0, 1, 2]),
        ClusterStream::fm_service(FmStreamSpec::new(FmPlacement::LocalSoc), vec![]),
        ClusterStream::new(PathKind::Snic3S2H, Verb::Write, 2048, vec![]),
        ClusterStream::new(PathKind::Snic3H2S, Verb::Read, 1024, vec![])
            .open_loop(OpenLoopSpec::poisson(2.0e6)),
    ];
    let r = run_cluster(&six_clients(37).with_faults(faults), &streams);
    assert!(count(&r, "kv_path3_retries") > 0, "no KV path-3 retry");
    assert!(
        count(&r, "fm_path3_retries") > 0,
        "no far-memory path-3 retry"
    );
    assert!(count(&r, "rc_retransmits") > 0, "no raw path-3 retry");
    assert_eq!(
        count(&r, "openloop_generated"),
        count(&r, "openloop_completed")
            + count(&r, "openloop_dropped")
            + count(&r, "openloop_inflight")
    );
    assert_golden(&r, "cluster_path3_faults");
}
