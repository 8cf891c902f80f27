//! Layer probes for the traced run: time one layer's public hot call in
//! isolation, on inputs shaped from the workload's own configuration.
//!
//! Each probe reports host nanoseconds per operation as the median of
//! [`REPEATS`] timed passes after one untimed pass.

use std::hint::black_box;
use std::time::Instant;

use simnet::engine::Engine;
use simnet::metrics::Hop;
use simnet::rng::{SimRng, Zipf};
use simnet::time::{Bandwidth, Nanos};
use snic_cluster::kv::KV_REQ_BYTES;
use snic_cluster::{
    kv_home_server, ClusterScenario, ClusterStream, KvOp, KvStreamSpec, MsgKind, NetMsg,
    SwitchFabric,
};
use snic_core::harness::{run_scenario, Scenario, StreamSpec};
use snic_farmem::{FmStreamSpec, PageAccessGen, SocPageCache, FM_REQ_BYTES};
use snic_kvstore::{HashIndex, KeyDist};

use crate::host::median;
use crate::trace::{SpanId, Trace};
use crate::workload::{harness_sweep, Plan};

/// Timed passes per probe.
const REPEATS: usize = 5;

fn ns_per_op(ops: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Events each engine holds pending under the plan: the closed-loop
/// streams' outstanding requests (machines × threads × window) spread
/// over the engines that run them, one per machine.
pub fn pending_depth(plan: &Plan) -> usize {
    let outstanding: usize = plan
        .streams
        .iter()
        .map(|s| s.clients.len().max(1) * s.threads_per_client * s.window)
        .sum();
    let cluster = &plan.scenario.cluster;
    (outstanding / (cluster.clients.len() + cluster.servers.len())).max(1)
}

/// `simnet::Engine::{pop, schedule}`: one pop plus one reschedule per
/// op, holding `depth` events pending at delays up to 4 µs.
pub fn engine_op_ns(depth: usize, seed: u64) -> f64 {
    const OPS: usize = 200_000;
    let mut rng = SimRng::seed(seed);
    let delays: Vec<Nanos> = (0..4096)
        .map(|_| Nanos::new(1 + rng.uniform_u64(4096)))
        .collect();
    let mut engine: Engine<u64> = Engine::new();
    for i in 0..depth {
        engine
            .schedule(delays[i % delays.len()], i as u64)
            .expect("future instant");
    }
    ns_per_op(OPS, || {
        for i in 0..OPS {
            let (now, ev) = engine.pop().expect("the engine never drains");
            engine
                .schedule(now + delays[i % delays.len()], black_box(ev))
                .expect("future instant");
        }
    })
}

/// The client→server requests of a cluster plan as `(src, dst, bytes,
/// kind)` templates: READs carry no payload outbound, WRITEs their
/// payload, KV and far-memory requests their fixed request size, spread
/// over the servers the services hash keys onto.
fn request_templates(scenario: &ClusterScenario, streams: &[ClusterStream]) -> Vec<NetMsg> {
    let n_clients = scenario.cluster.clients.len();
    let n_servers = scenario.cluster.servers.len();
    let mut out = Vec::new();
    for (si, s) in streams.iter().enumerate() {
        for (k, &c) in s.clients.iter().enumerate() {
            let (bytes, dst) = if s.kv.is_some() {
                (
                    KV_REQ_BYTES,
                    n_clients + kv_home_server(k as u64, n_servers),
                )
            } else if s.farmem.is_some() {
                (
                    FM_REQ_BYTES,
                    n_clients + kv_home_server(k as u64, n_servers),
                )
            } else {
                let out_bytes = match s.verb {
                    nicsim::Verb::Read => 0,
                    nicsim::Verb::Write | nicsim::Verb::Send => s.payload,
                };
                (out_bytes, n_clients + scenario.server)
            };
            out.push(NetMsg {
                src: c,
                dst,
                seq: 0,
                depart: Nanos::ZERO,
                bytes,
                kind: MsgKind::KvReq {
                    op: KvOp::Get,
                    key: k as u64,
                    stream: si as u16,
                    thread: 0,
                    posted: Nanos::ZERO,
                    xid: 0,
                },
            });
        }
    }
    out
}

/// `SwitchFabric::route` on the plan's client→server requests, through
/// the plan's rack and fault plane, departing 20 ns apart.
pub fn switch_route_ns(scenario: &ClusterScenario, streams: &[ClusterStream]) -> f64 {
    const OPS: usize = 200_000;
    let templates = request_templates(scenario, streams);
    let nic_bws: Vec<Bandwidth> = scenario
        .cluster
        .clients
        .iter()
        .chain(scenario.cluster.servers.iter())
        .map(|m| m.nic.nic().network_bw)
        .collect();
    let mut switch = SwitchFabric::new(&scenario.cluster.wire, &nic_bws);
    switch.set_faults(scenario.faults.clone());
    let mut seq = 0u64;
    ns_per_op(OPS, || {
        for i in 0..OPS {
            let mut m = templates[i % templates.len()];
            seq += 1;
            m.seq = seq;
            m.depart = Nanos::new(seq * 20);
            black_box(switch.route(&m));
        }
    })
}

/// `HashIndex::lookup` against the service's per-server indexes,
/// preloaded like the KV servers, with keys drawn from its distribution.
pub fn kvstore_get_ns(spec: &KvStreamSpec, n_servers: usize, seed: u64) -> f64 {
    const OPS: usize = 200_000;
    let mut indexes: Vec<HashIndex> = (0..n_servers)
        .map(|_| HashIndex::new(spec.index_buckets, 0))
        .collect();
    for k in 0..spec.n_keys {
        let home = kv_home_server(k, n_servers);
        indexes[home]
            .insert(k, k * u64::from(spec.value_size), spec.value_size)
            .expect("preload fits the configured index");
    }
    let mut rng = SimRng::seed(seed);
    let keys: Vec<(usize, u64)> = match spec.dist {
        KeyDist::Uniform => (0..4096)
            .map(|_| rng.uniform_u64(spec.n_keys))
            .collect::<Vec<_>>(),
        KeyDist::Zipf(theta) => {
            let zipf = Zipf::new(spec.n_keys as usize, theta);
            (0..4096).map(|_| zipf.sample(&mut rng) as u64).collect()
        }
    }
    .into_iter()
    .map(|k| (kv_home_server(k, n_servers), k))
    .collect();
    ns_per_op(OPS, || {
        for i in 0..OPS {
            let (home, key) = keys[i % keys.len()];
            black_box(indexes[home].lookup(black_box(key)).expect("preloaded key"));
        }
    })
}

/// `SocPageCache::serve_get` on the tier's page-access pattern from
/// `PageAccessGen`, one get every 100 simulated ns.
pub fn farmem_cache_get_ns(spec: &FmStreamSpec, seed: u64) -> f64 {
    const OPS: usize = 50_000;
    let mut gen = PageAccessGen::new(
        SimRng::seed(seed),
        spec.n_pages,
        spec.working_set,
        spec.reuse,
        spec.theta,
        spec.write_fraction,
    );
    let pages: Vec<u64> = (0..8192).map(|_| gen.next_access().page).collect();
    let mut cache = SocPageCache::new(spec.soc_cache_pages, spec.page_bytes);
    let mut now = Nanos::ZERO;
    ns_per_op(OPS, || {
        for i in 0..OPS {
            now += Nanos::new(100);
            black_box(cache.serve_get(now, pages[i % pages.len()]));
        }
    })
}

/// `run_scenario` on each call of the Fig-4 harness sweep, each in a
/// `run_scenario.<call>` span under `parent`: host seconds per call, the
/// median of [`REPEATS`] sweeps after one untimed sweep.
pub fn harness_secs(seed: u64, trace: &mut Trace, parent: Option<SpanId>) -> Vec<(String, f64)> {
    let calls = harness_sweep(seed);
    let mut secs = vec![Vec::new(); calls.len()];
    for pass in 0..=REPEATS {
        for (c, samples) in calls.iter().zip(&mut secs) {
            let s = trace.span(&format!("run_scenario.{}", c.name), parent, |_, _| {
                let t = Instant::now();
                black_box(run_scenario(&c.scenario, std::slice::from_ref(&c.stream)));
                t.elapsed().as_secs_f64()
            });
            if pass > 0 {
                samples.push(s);
            }
        }
    }
    calls
        .iter()
        .zip(secs)
        .map(|(c, s)| (c.name.clone(), median(&s)))
        .collect()
}

/// The Fig-3 per-hop mean residency (ns) of SNIC① READ 64 B under the
/// paper's latency method (one requester thread, window 1), measured
/// with the harness's attribution switched on.
pub fn model_hops(seed: u64) -> Vec<(Hop, f64)> {
    let scenario = Scenario {
        seed,
        ..Scenario::latency().with_metrics()
    };
    let stream = StreamSpec {
        threads_per_client: 1,
        window: 1,
        ..StreamSpec::new(nicsim::PathKind::Snic1, nicsim::Verb::Read, 64, 1)
    };
    let b = run_scenario(&scenario, &[stream]).breakdown.remove(0);
    Hop::ALL
        .iter()
        .map(|&h| (h, b.mean(h).as_nanos() as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Horizon, Workload};

    #[test]
    fn probes_run_on_workload_shapes() {
        let plan = Workload::RackServices.plan(1, Horizon::Full);
        let (scenario, streams) = (&plan.scenario, &plan.streams);
        assert!(pending_depth(&plan) >= 1);
        assert!(switch_route_ns(scenario, streams) > 0.0);
        let kv = streams.iter().find_map(|s| s.kv).expect("kv stream");
        assert!(kvstore_get_ns(&kv, scenario.cluster.servers.len(), 1) > 0.0);
        let fm = streams.iter().find_map(|s| s.farmem).expect("fm stream");
        assert!(farmem_cache_get_ns(&fm, 1) > 0.0);
        assert!(engine_op_ns(64, 1) > 0.0);
        let hops = model_hops(1);
        assert_eq!(hops.len(), Hop::ALL.len());
        assert!(hops.iter().any(|&(_, ns)| ns > 0.0));
    }
}
