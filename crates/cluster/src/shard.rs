//! Shards: one machine per shard, each with a private event engine.
//!
//! A client shard owns a `nicsim::ClientMachine` plus the closed-loop
//! requester threads of every stream that lists it; a server shard owns
//! a full `nicsim::Fabric` (with zero embedded clients — real clients
//! live in their own shards) and answers inbound requests, plus hosts
//! path-3 streams that never leave the machine. Shards communicate only
//! through [`NetMsg`]s collected at epoch boundaries, which is what lets
//! the runtime run each shard's epoch on its own.

use std::collections::HashMap;
use std::rc::Rc;

use memsys::MemOp;
use nicsim::client::{wire_bytes, wire_frames};
use nicsim::server::pipeline_out;
use nicsim::{
    ClientMachine, DpaStats, Endpoint, Fabric, PathKind, RequestDesc, ServerMachine, Verb,
};
use rdma_sim::transport::{RecvQueue, SendFlags, SignalTracker};
use simnet::arrivals::{user_home_addr, Admission, AdmissionQueue, ArrivalGen, OpenLoopSpec};
use simnet::engine::{Engine, Step};
use simnet::faults::{drive_attempts, fault_key, FaultSpec};
use simnet::resource::{Dir, MultiServer};
use simnet::rng::{SimRng, Zipf};
use simnet::stats::Histogram;
use simnet::time::Nanos;
use snic_farmem::{FmStreamSpec, FM_HOST_HIT, FM_REQ_BYTES};
use snic_kvstore::{Design, BUCKET_BYTES};

use crate::fm::{fm_global_page, fm_local_page, FmHost, FmServer};
use crate::kv::{
    kv_home_server, KvPending, KvServer, KvStreamSpec, KV_HOST_PROBE, KV_INDEX_BASE, KV_PUT_EXTRA,
    KV_REQ_BYTES, KV_SOC_PROBE, KV_VALUES_BASE, SOC_BANKS, SOC_BANK_HOLD,
};
use crate::msg::{FmRespKind, KvOp, KvRespKind, MsgKind, NetMsg, ShardId};
use crate::scenario::ClusterStream;

/// Receive-queue depth used by the responder's echo loop (the paper's
/// framework pre-stocks and auto-replenishes receives, §2.4).
const SERVER_RQ_DEPTH: usize = 512;

/// Address alignment of generated accesses (one cache line).
const ADDR_ALIGN: u64 = 64;

/// A shard-local event.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// A requester thread (re)fills one slot of its window.
    Post {
        /// Global stream index.
        stream: u16,
        /// Thread index within this shard's stream.
        thread: u16,
    },
    /// A message delivered by the switch.
    Arrive {
        /// Message payload.
        kind: MsgKind,
        /// Wire payload bytes.
        bytes: u64,
        /// Emitting shard (responses are routed back to it).
        from: ShardId,
        /// When the full transfer has drained through the destination
        /// port (completions cannot precede this).
        drained: Nanos,
    },
    /// A requester-side ack timeout: fires `rc_timeout` after an
    /// attempt departed. Acts only if the operation is still
    /// outstanding *at the same attempt number* (a response or a later
    /// retransmission makes it a no-op).
    Timeout {
        /// Transaction id of the guarded operation.
        xid: u64,
        /// Attempt number this timeout was armed for.
        attempt: u32,
    },
    /// A KV epoch boundary on a server shard: the online advisor closes
    /// its observation window and re-decides the index placement. Fires
    /// at fixed simulated instants from shard-local state only, so
    /// re-decisions never depend on other shards.
    KvEpoch,
}

/// Per-stream measurement aggregate on one shard.
///
/// The open-loop fields (`generated` and below) stay zero for
/// closed-loop streams; they cover the *whole* run (not just the
/// measurement window) so the ops-conservation invariant
/// `generated == total_completed + dropped + outstanding` holds exactly
/// at the horizon.
pub(crate) struct StreamAgg {
    pub hist: Histogram,
    pub ops: u64,
    pub bytes: u64,
    /// Open-loop arrivals generated on this shard.
    pub generated: u64,
    /// Open-loop ops rejected by the responder's admission queue
    /// (counted at the requester when the NACK arrives, so in-flight
    /// NACKs stay in `outstanding`).
    pub dropped: u64,
    /// Open-loop completions at any instant inside the run.
    pub total_completed: u64,
    /// Open-loop ops issued but not yet completed or dropped.
    pub outstanding: u64,
    /// Summed issue slip past the intended arrival (CPU-side excess
    /// delay, the part coordinated omission would have hidden).
    pub excess_ns: u64,
}

/// Shard-local counters, merged into the result registry in shard order.
#[derive(Default)]
pub(crate) struct ShardCounters {
    pub posted: u64,
    pub completed: u64,
    pub deferred: u64,
    pub rnr: u64,
    pub forced_signals: u64,
    pub retransmits: u64,
    pub retry_exhausted: u64,
    pub dup_responses: u64,
}

struct LocalThread {
    cpu_free: Nanos,
    rng: SimRng,
    signal: SignalTracker,
    posts: u64,
}

/// One operation awaiting its response, keyed by xid. Enough state to
/// retransmit the exact same request (same address, same original post
/// instant) when its timeout fires.
struct Outstanding {
    stream: u16,
    thread: u16,
    addr: u64,
    posted: Nanos,
    attempt: u32,
}

/// Open-loop state of a stream's shard-local slice: the arrival chain
/// plus the posting-core pool that turns intended arrivals into issues
/// (its backlog is the *excess delay* a closed loop would hide).
struct OpenLocal {
    gen: ArrivalGen,
    posters: MultiServer,
    /// Logical user of the arrival event currently scheduled (drawn
    /// together with its instant; events only carry u16 indices).
    next_user: u64,
}

/// Client-side slice of the KV service stream: the op generator. The
/// client only picks keys and routes them — which CPU (if any) serves
/// a get is the *server's* current placement decision, invisible here
/// until the reply's shape (value vs. probe chain) comes back.
struct KvClient {
    read_fraction: f64,
    /// The stream's key sampler, shared by all its client slices.
    zipf: Option<Rc<Zipf>>,
    n_keys: u64,
    value_size: u32,
    n_clients: usize,
    n_servers: usize,
}

/// A stream's shard-local slice: config + its requester threads
/// (closed loop) or arrival generator (open loop).
struct LocalStream {
    verb: Verb,
    path: PathKind,
    payload: u64,
    addr_base: u64,
    addr_range: u64,
    cpu_cost: Nanos,
    threads: Vec<LocalThread>,
    open: Option<OpenLocal>,
    kv: Option<KvClient>,
    fm: Option<FmHost>,
    dpa: bool,
}

enum Model {
    Client {
        machine: Box<ClientMachine>,
        server_shard: ShardId,
    },
    Server {
        fabric: Box<Fabric>,
        recvq: RecvQueue,
    },
}

/// One machine of the cluster with its private engine and resources.
pub(crate) struct Shard {
    id: ShardId,
    engine: Engine<Ev>,
    model: Model,
    streams: Vec<Option<LocalStream>>,
    /// Server shards only: per-stream admission queues for open-loop
    /// streams (None = closed loop, no admission control).
    admission: Vec<Option<AdmissionQueue>>,
    aggs: Vec<StreamAgg>,
    counters: ShardCounters,
    outbox: Vec<NetMsg>,
    out_seq: u64,
    measure_from: Nanos,
    measure_to: Nanos,
    /// `(ack timeout, retry budget)` when transport recovery is armed
    /// (stochastic faults active); `None` keeps the fault-free event
    /// schedule byte-identical to a build without fault injection.
    retry: Option<(Nanos, u32)>,
    outstanding: HashMap<u64, Outstanding>,
    next_xid: u64,
    /// Server shards only: KV serving state (index + placement).
    kv_server: Option<KvServer>,
    /// Client shards only: in-flight KV gets, keyed by xid (the key is
    /// needed when a one-sided chain reply asks for follow-up probes).
    kv_pending: HashMap<u64, KvPending>,
    /// Server shards only: far-memory pool state (SoC page cache +
    /// serving cores).
    fm_server: Option<FmServer>,
}

impl Shard {
    fn new(
        id: ShardId,
        model: Model,
        n_streams: usize,
        measure_from: Nanos,
        measure_to: Nanos,
    ) -> Self {
        Shard {
            id,
            engine: Engine::new(),
            model,
            streams: (0..n_streams).map(|_| None).collect(),
            admission: (0..n_streams).map(|_| None).collect(),
            aggs: (0..n_streams)
                .map(|_| StreamAgg {
                    hist: Histogram::new(),
                    ops: 0,
                    bytes: 0,
                    generated: 0,
                    dropped: 0,
                    total_completed: 0,
                    outstanding: 0,
                    excess_ns: 0,
                })
                .collect(),
            counters: ShardCounters::default(),
            outbox: Vec::new(),
            out_seq: 0,
            measure_from,
            measure_to,
            retry: None,
            outstanding: HashMap::new(),
            next_xid: 0,
            kv_server: None,
            kv_pending: HashMap::new(),
            fm_server: None,
        }
    }

    /// Arms transport recovery: an ack timeout and retry budget for
    /// this shard's requester threads (clients: timeout/retransmit over
    /// the wire; servers: synchronous path-3 retries).
    pub(crate) fn set_retry(&mut self, timeout: Nanos, retry_cnt: u32) {
        self.retry = Some((timeout, retry_cnt));
    }

    /// Installs the fault schedule on a server shard's fabric (PCIe
    /// degradation windows, SoC stalls and per-crossing TLP verdicts).
    /// No-op for client shards.
    pub(crate) fn set_faults(&mut self, spec: FaultSpec) {
        if let Model::Server { fabric, .. } = &mut self.model {
            fabric.set_faults(spec);
        }
    }

    /// A requester machine shard.
    pub(crate) fn new_client(
        id: ShardId,
        machine: ClientMachine,
        server_shard: ShardId,
        n_streams: usize,
        measure_from: Nanos,
        measure_to: Nanos,
    ) -> Self {
        Shard::new(
            id,
            Model::Client {
                machine: Box::new(machine),
                server_shard,
            },
            n_streams,
            measure_from,
            measure_to,
        )
    }

    /// A responder machine shard.
    pub(crate) fn new_server(
        id: ShardId,
        fabric: Fabric,
        n_streams: usize,
        measure_from: Nanos,
        measure_to: Nanos,
    ) -> Self {
        Shard::new(
            id,
            Model::Server {
                fabric: Box::new(fabric),
                recvq: RecvQueue::echo_server(SERVER_RQ_DEPTH),
            },
            n_streams,
            measure_from,
            measure_to,
        )
    }

    /// Installs a stream's shard-local slice and seeds its initial
    /// events. Closed loop (`open == None`): `n_threads` requester
    /// threads, each with `stream.window` outstanding slots, seeded
    /// with jittered posts so same-instant FIFO ordering does not
    /// favour stream 0. Open loop: an arrival generator (the spec must
    /// already carry this shard's *share* of the offered load) whose
    /// chain of intended-arrival events replaces the window; the
    /// `n_threads` posting cores bound the issue rate, and any slip
    /// past the intended arrival is recorded as excess delay.
    ///
    /// # Panics
    ///
    /// Panics if the stream was already installed on this shard (a
    /// duplicate client index in `ClusterStream::clients`).
    pub(crate) fn install_stream(
        &mut self,
        idx: usize,
        stream: &ClusterStream,
        cpu_cost: Nanos,
        n_threads: usize,
        rng: &mut SimRng,
        open: Option<OpenLoopSpec>,
    ) {
        assert!(
            self.streams[idx].is_none(),
            "stream {idx} installed twice on shard {} (duplicate client index?)",
            self.id
        );
        let mut open_rng = rng.fork(((idx as u64) << 32) | 0xA11);
        let threads = (0..n_threads)
            .map(|t| LocalThread {
                cpu_free: Nanos::ZERO,
                rng: rng.fork(((idx as u64) << 32) | t as u64),
                signal: SignalTracker::new(),
                posts: 0,
            })
            .collect();
        // Open loop: seed the arrival chain with one pending intended
        // arrival; each delivery schedules its successor.
        let open = open.map(|spec| {
            let mut gen = ArrivalGen::new(spec.process.clone(), spec.users, open_rng.fork(1));
            let first = gen.next_arrival();
            self.engine
                .schedule(
                    first.at,
                    Ev::Post {
                        stream: idx as u16,
                        thread: 0,
                    },
                )
                .expect("first arrival is not in the past");
            OpenLocal {
                gen,
                posters: MultiServer::new(n_threads.max(1)),
                next_user: first.user,
            }
        });
        if open.is_none() {
            for t in 0..n_threads {
                for w in 0..stream.window {
                    let jitter = Nanos::new((idx + t * 7 + w * 13) as u64 % 97);
                    self.engine
                        .schedule(
                            jitter,
                            Ev::Post {
                                stream: idx as u16,
                                thread: t as u16,
                            },
                        )
                        .expect("seeding events at t~0");
                }
            }
        }
        self.streams[idx] = Some(LocalStream {
            verb: stream.verb,
            path: stream.path,
            payload: stream.payload,
            addr_base: stream.addr_base,
            addr_range: stream.addr_range,
            cpu_cost,
            threads,
            open,
            kv: None,
            fm: None,
            dpa: stream.dpa,
        });
    }

    /// Marks an installed stream as the KV service's client slice: its
    /// posts become KV ops routed to each key's home server instead of
    /// raw verbs towards the scenario's responder.
    ///
    /// # Panics
    ///
    /// Panics if the stream is not installed on this shard.
    pub(crate) fn install_kv_client(
        &mut self,
        idx: usize,
        spec: &KvStreamSpec,
        zipf: Option<Rc<Zipf>>,
        n_clients: usize,
        n_servers: usize,
    ) {
        let st = self.streams[idx]
            .as_mut()
            .expect("KV client slice requires the stream to be installed first");
        st.kv = Some(KvClient {
            read_fraction: spec.mix.read_fraction(),
            zipf,
            n_keys: spec.n_keys,
            value_size: spec.value_size,
            n_clients,
            n_servers,
        });
    }

    /// Marks an installed stream as a far-memory host slice: its posts
    /// become page accesses against this host's residency table; misses
    /// promote from (and demotions write back to) the SoC DRAM pool.
    ///
    /// # Panics
    ///
    /// Panics if the stream is not installed on this shard.
    pub(crate) fn install_fm_client(
        &mut self,
        idx: usize,
        spec: &FmStreamSpec,
        n_clients: usize,
        n_servers: usize,
        rng: &mut SimRng,
    ) {
        let st = self.streams[idx]
            .as_mut()
            .expect("far-memory host slice requires the stream to be installed first");
        st.fm = Some(FmHost::new(
            *spec,
            rng.fork(((idx as u64) << 32) | 0xFA12),
            n_clients,
            n_servers,
        ));
    }

    /// Installs the far-memory pool state on this (server) shard.
    pub(crate) fn install_fm_server(&mut self, fm: FmServer) {
        self.fm_server = Some(fm);
    }

    /// The shard's far-memory pool state, if any.
    pub(crate) fn fm(&self) -> Option<&FmServer> {
        self.fm_server.as_ref()
    }

    /// Every far-memory host slice installed on this shard.
    pub(crate) fn fm_clients(&self) -> impl Iterator<Item = &FmHost> + '_ {
        self.streams
            .iter()
            .filter_map(|s| s.as_ref().and_then(|st| st.fm.as_ref()))
    }

    /// Installs the KV serving state on this (server) shard and, for
    /// online placements, seeds the epoch chain.
    pub(crate) fn install_kv_server(&mut self, kv: KvServer) {
        if kv.policy.is_some() {
            self.engine
                .schedule(kv.decision_every, Ev::KvEpoch)
                .expect("first KV epoch is in the future");
        }
        self.kv_server = Some(kv);
    }

    /// The shard's KV serving state, if any.
    pub(crate) fn kv(&self) -> Option<&KvServer> {
        self.kv_server.as_ref()
    }

    /// Whether this (server) shard's SmartNIC carries a DPA plane.
    pub(crate) fn has_dpa(&self) -> bool {
        match &self.model {
            Model::Server { fabric, .. } => fabric.server.has_dpa(),
            Model::Client { .. } => false,
        }
    }

    /// The DPA plane's serving counters, when the plane exists.
    pub(crate) fn dpa_stats(&self) -> Option<DpaStats> {
        match &self.model {
            Model::Server { fabric, .. } => fabric.server.dpa_stats(),
            Model::Client { .. } => None,
        }
    }

    /// Installs an admission queue guarding `idx` on this (server)
    /// shard: every inbound open-loop request of the stream passes
    /// through it before reserving responder resources.
    pub(crate) fn install_admission(&mut self, idx: usize, queue: AdmissionQueue) {
        self.admission[idx] = Some(queue);
    }

    /// The admission queue guarding stream `idx`, if one is installed.
    pub(crate) fn admission(&self, idx: usize) -> Option<&AdmissionQueue> {
        self.admission[idx].as_ref()
    }

    /// The delivery time of the shard's next pending event, if any.
    pub(crate) fn peek_time(&self) -> Option<Nanos> {
        self.engine.peek_time()
    }

    /// Events delivered by this shard's engine so far.
    pub(crate) fn events_delivered(&self) -> u64 {
        self.engine.delivered()
    }

    /// Drains the messages emitted since the last epoch, in emission
    /// order. The outbox keeps its allocation, so it stops churning the
    /// allocator once the cluster reaches steady state.
    pub(crate) fn drain_outbox(&mut self) -> std::vec::Drain<'_, NetMsg> {
        self.outbox.drain(..)
    }

    /// Schedules a switch-delivered message into the shard's engine.
    /// `arrive` is always at least one lookahead past the emitting
    /// event, so it can never land in this shard's past.
    pub(crate) fn deliver(&mut self, arrive: Nanos, m: &NetMsg, drained: Nanos) {
        self.engine
            .schedule(
                arrive,
                Ev::Arrive {
                    kind: m.kind,
                    bytes: m.bytes,
                    from: m.src,
                    drained,
                },
            )
            .expect("lookahead guarantees delivery is in the future");
    }

    /// Per-stream aggregate.
    pub(crate) fn agg(&self, idx: usize) -> &StreamAgg {
        &self.aggs[idx]
    }

    /// Shard-local counters.
    pub(crate) fn counters(&self) -> &ShardCounters {
        &self.counters
    }

    /// Runs all shard-local events with `time <= deadline` (one epoch).
    pub(crate) fn run_until(&mut self, deadline: Nanos) {
        let Shard {
            id,
            engine,
            model,
            streams,
            admission,
            aggs,
            counters,
            outbox,
            out_seq,
            measure_from,
            measure_to,
            retry,
            outstanding,
            next_xid,
            kv_server,
            kv_pending,
            fm_server,
        } = self;
        let in_window = |t: Nanos| t > *measure_from && t <= *measure_to;
        engine.run_until(deadline, |eng, now, ev| {
            match ev {
                Ev::Post { stream, thread } => {
                    let si = stream as usize;
                    let st = streams[si]
                        .as_mut()
                        .expect("post event for a stream not installed on this shard");
                    if st.kv.is_some() {
                        // KV service stream: this post becomes one YCSB
                        // op routed to the key's home server. The key is
                        // drawn *here*, so routing fans the stream out
                        // across all server shards.
                        let (issue_start, is_open) = if let Some(open) = st.open.as_mut() {
                            let next = open.gen.next_arrival();
                            open.next_user = next.user;
                            eng.schedule(next.at, Ev::Post { stream, thread: 0 })
                                .expect("arrival chain advances strictly");
                            let issue = open.posters.reserve(now, st.cpu_cost);
                            (issue.start, true)
                        } else {
                            let th = &mut st.threads[thread as usize];
                            if th.cpu_free > now {
                                counters.deferred += 1;
                                eng.schedule(th.cpu_free, ev)
                                    .expect("deferred post is in the future");
                                return Step::Continue;
                            }
                            th.cpu_free = now + st.cpu_cost;
                            if th.signal.on_post(SendFlags::unsignaled()) {
                                counters.forced_signals += 1;
                            }
                            (now, false)
                        };
                        let LocalStream { kv, threads, .. } = st;
                        let kvc = kv.as_ref().expect("checked above");
                        let th = &mut threads[if is_open { 0 } else { thread as usize }];
                        let key = match &kvc.zipf {
                            Some(z) => z.sample(&mut th.rng) as u64,
                            None => th.rng.uniform_u64(kvc.n_keys),
                        };
                        let is_read = th.rng.chance(kvc.read_fraction);
                        let (op, outbound) = if is_read {
                            (KvOp::Get, KV_REQ_BYTES)
                        } else {
                            (KvOp::Put, KV_REQ_BYTES + kvc.value_size as u64)
                        };
                        let dst = kvc.n_clients + kv_home_server(key, kvc.n_servers);
                        counters.posted += 1;
                        let Model::Client { machine, .. } = &mut *model else {
                            unreachable!("the KV stream's slices live on client shards")
                        };
                        let nic_seen = issue_start + machine.mmio_transit();
                        let depart = machine.issue_with_wire(nic_seen, outbound, outbound);
                        let xid = *next_xid;
                        *next_xid += 1;
                        if is_read {
                            // Gets may come back as a one-sided probe
                            // chain; remember the key so follow-up READs
                            // can be addressed.
                            kv_pending.insert(
                                xid,
                                KvPending {
                                    server: dst,
                                    key,
                                    probes: 0,
                                    next_hop: 0,
                                    value_addr: 0,
                                    value_len: 0,
                                },
                            );
                        }
                        let agg = &mut aggs[si];
                        if is_open {
                            agg.generated += 1;
                            agg.excess_ns += issue_start.saturating_sub(now).as_nanos();
                            agg.outstanding += 1;
                        }
                        outbox.push(NetMsg {
                            src: *id,
                            dst,
                            seq: *out_seq,
                            depart,
                            bytes: outbound,
                            kind: MsgKind::KvReq {
                                op,
                                key,
                                stream,
                                thread,
                                // Intended arrival (open) / post instant
                                // (closed), echoed across every trip of
                                // the op so latency spans the whole op.
                                posted: now,
                                xid,
                            },
                        });
                        *out_seq += 1;
                        return Step::Continue;
                    }
                    if st.fm.is_some() {
                        // Far-memory stream: this post is one page
                        // access. The residency check happens here;
                        // hits retire synchronously at host-DRAM cost,
                        // misses promote the page from the SoC pool,
                        // and idle resident pages age out (dirty ones
                        // write back).
                        let (issue_start, is_open) = if let Some(open) = st.open.as_mut() {
                            let next = open.gen.next_arrival();
                            open.next_user = next.user;
                            eng.schedule(next.at, Ev::Post { stream, thread: 0 })
                                .expect("arrival chain advances strictly");
                            let issue = open.posters.reserve(now, st.cpu_cost);
                            (issue.start, true)
                        } else {
                            let th = &mut st.threads[thread as usize];
                            if th.cpu_free > now {
                                counters.deferred += 1;
                                eng.schedule(th.cpu_free, ev)
                                    .expect("deferred post is in the future");
                                return Step::Continue;
                            }
                            th.cpu_free = now + st.cpu_cost;
                            if th.signal.on_post(SendFlags::unsignaled()) {
                                counters.forced_signals += 1;
                            }
                            (now, false)
                        };
                        let payload = st.payload;
                        let LocalStream { fm, .. } = st;
                        let fmc = fm.as_mut().expect("checked above");
                        let access = fmc.gen.next_access();
                        let hit = fmc.table.touch(issue_start, access.page, access.write);
                        let page_bytes = fmc.spec.page_bytes;
                        counters.posted += 1;
                        let agg = &mut aggs[si];
                        if is_open {
                            agg.generated += 1;
                            agg.excess_ns += issue_start.saturating_sub(now).as_nanos();
                        }
                        match &mut *model {
                            Model::Client { machine, .. } => {
                                // Remote placement (path ②): misses
                                // travel the wire to the page's pool
                                // server; the completion arrives as an
                                // FmResp.
                                if hit {
                                    let completed = issue_start + FM_HOST_HIT;
                                    if is_open {
                                        agg.total_completed += 1;
                                    }
                                    if in_window(completed) {
                                        agg.hist.record(completed.saturating_sub(now));
                                        agg.ops += 1;
                                        agg.bytes += payload;
                                        counters.completed += 1;
                                    }
                                    if !is_open {
                                        eng.schedule(completed.max(now), ev)
                                            .expect("completion is in the future");
                                    }
                                } else {
                                    let gpage = fm_global_page(*id, access.page);
                                    let dst = fmc.n_clients + kv_home_server(gpage, fmc.n_servers);
                                    let nic_seen = issue_start + machine.mmio_transit();
                                    let depart = machine.issue_with_wire(
                                        nic_seen,
                                        FM_REQ_BYTES,
                                        FM_REQ_BYTES,
                                    );
                                    let xid = *next_xid;
                                    *next_xid += 1;
                                    if is_open {
                                        agg.outstanding += 1;
                                    }
                                    outbox.push(NetMsg {
                                        src: *id,
                                        dst,
                                        seq: *out_seq,
                                        depart,
                                        bytes: FM_REQ_BYTES,
                                        kind: MsgKind::FmGet {
                                            page: gpage,
                                            write: access.write,
                                            stream,
                                            thread,
                                            posted: now,
                                            xid,
                                        },
                                    });
                                    *out_seq += 1;
                                    // Closed loop: the thread blocks
                                    // until the page lands (the FmResp
                                    // reposts this slot).
                                }
                                // Age-based demotion sweep; dirty
                                // victims write back to the pool.
                                let mut demos = std::mem::take(&mut fmc.demote_buf);
                                demos.clear();
                                fmc.table.demote_aged(now, &mut demos);
                                for d in &demos {
                                    if d.dirty {
                                        send_fm_put(
                                            machine, fmc, outbox, out_seq, next_xid, *id, stream,
                                            thread, now, d.page,
                                        );
                                    }
                                }
                                fmc.demote_buf = demos;
                            }
                            Model::Server { fabric, .. } => {
                                // Local placement (path ③): the whole
                                // promotion stays on this machine —
                                // SoC pool serves the page, then the
                                // DMA engine pulls it into host memory
                                // across PCIe1 twice. Under stochastic
                                // PCIe faults every attempt rolls both
                                // crossings (the double-exposure
                                // mechanism), and a failure burns a
                                // full timeout.
                                let fms = fm_server
                                    .as_mut()
                                    .expect("local far memory needs the pool on this shard");
                                let completed = if hit {
                                    issue_start + FM_HOST_HIT
                                } else {
                                    fabric.apply_fault_windows(issue_start);
                                    let gpage = fm_global_page(*id, access.page);
                                    let res = fms.pool.reserve(issue_start, fms.svc);
                                    let g = fms.cache.serve_get(res.finish, gpage);
                                    let slot = g.slot_addr;
                                    let host_addr = access.page.wrapping_mul(page_bytes);
                                    let stochastic = fabric
                                        .faults()
                                        .map(|p| p.has_stochastic_faults())
                                        .unwrap_or(false);
                                    let fetch = |srv: &mut ServerMachine, t: Nanos| -> Nanos {
                                        srv.intra_dma(
                                            t,
                                            Endpoint::Host,
                                            Endpoint::Soc,
                                            Endpoint::Host,
                                            slot,
                                            host_addr,
                                            page_bytes,
                                        )
                                        .data_ready
                                    };
                                    let done = if stochastic {
                                        let (timeout, retry_cnt) = retry
                                            .expect("server retry armed with stochastic faults");
                                        let xid = *next_xid;
                                        *next_xid += 1;
                                        let o = drive_attempts(
                                            g.ready,
                                            timeout,
                                            retry_cnt,
                                            |t, attempt| {
                                                let d = fetch(&mut fabric.server, t);
                                                let failed = fabric
                                                    .faults()
                                                    .map(|p| {
                                                        p.attempt_fails(
                                                            fault_key(&[
                                                                *id as u64,
                                                                stream as u64,
                                                                thread as u64,
                                                                xid,
                                                                u64::from(attempt),
                                                            ]),
                                                            0,
                                                            2,
                                                        )
                                                    })
                                                    .unwrap_or(false);
                                                (d, failed)
                                            },
                                        );
                                        // Served anyway on exhaustion —
                                        // the host must get its page.
                                        fmc.path3_retries +=
                                            u64::from(o.retries) + u64::from(o.exhausted);
                                        counters.retransmits += u64::from(o.retries);
                                        if o.exhausted {
                                            counters.retry_exhausted += 1;
                                        }
                                        o.result
                                    } else {
                                        fetch(&mut fabric.server, g.ready)
                                    };
                                    fmc.promotes += 1;
                                    done
                                };
                                // Promotion install plus the aged sweep
                                // share one demotion pass; dirty
                                // victims are pushed back over PCIe1
                                // (posted writes — they occupy the DMA
                                // engine and SoC DRAM but do not delay
                                // this access).
                                let mut demos = std::mem::take(&mut fmc.demote_buf);
                                demos.clear();
                                if !hit {
                                    fmc.table.promote(
                                        completed,
                                        access.page,
                                        access.write,
                                        &mut demos,
                                    );
                                }
                                fmc.table.demote_aged(now, &mut demos);
                                for d in &demos {
                                    if d.dirty {
                                        let gp = fm_global_page(*id, d.page);
                                        let stamp = fmc.next_stamp;
                                        fmc.next_stamp += 1;
                                        let leg = fabric.server.intra_dma(
                                            completed.max(now),
                                            Endpoint::Host,
                                            Endpoint::Host,
                                            Endpoint::Soc,
                                            d.page.wrapping_mul(page_bytes),
                                            gp.wrapping_mul(page_bytes),
                                            page_bytes,
                                        );
                                        fms.cache.serve_put(leg.data_ready, gp, stamp);
                                        fmc.put_acked += 1;
                                    }
                                }
                                fmc.demote_buf = demos;
                                if is_open {
                                    agg.total_completed += 1;
                                }
                                if in_window(completed) {
                                    agg.hist.record(completed.saturating_sub(now));
                                    agg.ops += 1;
                                    agg.bytes += payload;
                                    counters.completed += 1;
                                }
                                if !is_open {
                                    eng.schedule(completed.max(now), ev)
                                        .expect("completion is in the future");
                                }
                            }
                        }
                        return Step::Continue;
                    }
                    if let Some(open) = st.open.as_mut() {
                        // Open loop: this event is an *intended arrival*.
                        // Latency is measured from `now` no matter how
                        // late the posting cores get to it — that gap is
                        // what coordinated omission would have hidden.
                        let user = open.next_user;
                        let next = open.gen.next_arrival();
                        open.next_user = next.user;
                        eng.schedule(next.at, Ev::Post { stream, thread: 0 })
                            .expect("arrival chain advances strictly");
                        let issue = open.posters.reserve(now, st.cpu_cost);
                        let agg = &mut aggs[si];
                        agg.generated += 1;
                        agg.excess_ns += issue.start.saturating_sub(now).as_nanos();
                        let addr = if st.addr_range >= ADDR_ALIGN {
                            user_home_addr(user, st.addr_base, st.addr_range, ADDR_ALIGN)
                        } else {
                            st.addr_base
                        };
                        counters.posted += 1;
                        match model {
                            Model::Client {
                                machine,
                                server_shard,
                            } => {
                                let outbound = match st.verb {
                                    Verb::Read => 0,
                                    Verb::Write | Verb::Send => st.payload,
                                };
                                let nic_seen = issue.start + machine.mmio_transit();
                                let depart = machine.issue_with_wire(nic_seen, outbound, outbound);
                                let xid = *next_xid;
                                *next_xid += 1;
                                agg.outstanding += 1;
                                outbox.push(NetMsg {
                                    src: *id,
                                    dst: *server_shard,
                                    seq: *out_seq,
                                    depart,
                                    bytes: outbound,
                                    kind: MsgKind::Request {
                                        verb: st.verb,
                                        payload: st.payload,
                                        addr,
                                        endpoint: st.path.responder(),
                                        stream,
                                        thread,
                                        // Intended arrival, echoed back:
                                        // CO-free latency falls out.
                                        posted: now,
                                        xid,
                                        dpa_resident: st.dpa.then_some(st.addr_range),
                                    },
                                });
                                *out_seq += 1;
                                // Open-loop ops are never retransmitted:
                                // rejection is an explicit NACK, not a
                                // timeout, so no recovery state is armed.
                            }
                            Model::Server { fabric, .. } => {
                                // Open path-3 stream: admission and the
                                // whole round trip stay on this machine,
                                // so a rejection is synchronous.
                                let q = admission[si]
                                    .as_mut()
                                    .expect("open path-3 stream has an admission queue");
                                match q.offer(issue.start) {
                                    Admission::Admit => {
                                        fabric.apply_fault_windows(issue.start);
                                        let req =
                                            RequestDesc::new(st.verb, st.path, st.payload, addr, 0);
                                        let c = fabric.execute(issue.start, req);
                                        q.commit(c.nic_start);
                                        agg.total_completed += 1;
                                        if in_window(c.completed) {
                                            agg.hist.record(c.completed.saturating_sub(now));
                                            agg.ops += 1;
                                            agg.bytes += st.payload;
                                            counters.completed += 1;
                                        }
                                    }
                                    _ => agg.dropped += 1,
                                }
                            }
                        }
                        return Step::Continue;
                    }
                    let th = &mut st.threads[thread as usize];
                    // CPU pacing: defer instead of reserving ahead, so
                    // FIFO resources stay available to earlier posts.
                    if th.cpu_free > now {
                        counters.deferred += 1;
                        eng.schedule(th.cpu_free, ev)
                            .expect("deferred post is in the future");
                        return Step::Continue;
                    }
                    th.cpu_free = now + st.cpu_cost;
                    if th.signal.on_post(SendFlags::unsignaled()) {
                        counters.forced_signals += 1;
                    }
                    let addr = if st.addr_range >= ADDR_ALIGN {
                        th.rng
                            .addr_in_range(st.addr_base, st.addr_range, ADDR_ALIGN)
                    } else {
                        st.addr_base
                    };
                    counters.posted += 1;
                    match model {
                        Model::Client {
                            machine,
                            server_shard,
                        } => {
                            let outbound = match st.verb {
                                Verb::Read => 0,
                                Verb::Write | Verb::Send => st.payload,
                            };
                            let nic_seen = now + machine.mmio_transit();
                            let depart = machine.issue_with_wire(nic_seen, outbound, outbound);
                            let xid = *next_xid;
                            *next_xid += 1;
                            outbox.push(NetMsg {
                                src: *id,
                                dst: *server_shard,
                                seq: *out_seq,
                                depart,
                                bytes: outbound,
                                kind: MsgKind::Request {
                                    verb: st.verb,
                                    payload: st.payload,
                                    addr,
                                    endpoint: st.path.responder(),
                                    stream,
                                    thread,
                                    posted: now,
                                    xid,
                                    dpa_resident: st.dpa.then_some(st.addr_range),
                                },
                            });
                            *out_seq += 1;
                            if let Some((timeout, _)) = *retry {
                                outstanding.insert(
                                    xid,
                                    Outstanding {
                                        stream,
                                        thread,
                                        addr,
                                        posted: now,
                                        attempt: 0,
                                    },
                                );
                                eng.schedule(depart + timeout, Ev::Timeout { xid, attempt: 0 })
                                    .expect("timeout is in the future");
                            }
                        }
                        Model::Server { fabric, .. } => {
                            // Path-3 stream: the whole round trip stays
                            // on the responder machine. Under stochastic
                            // faults every attempt rolls one TLP verdict
                            // per PCIe1 crossing — the mechanistic root
                            // of path 3's double exposure (both DMA legs
                            // cross PCIe1).
                            fabric.apply_fault_windows(now);
                            let req = RequestDesc::new(st.verb, st.path, st.payload, addr, 0);
                            let stochastic = fabric
                                .faults()
                                .map(|p| p.has_stochastic_faults())
                                .unwrap_or(false);
                            let c = if stochastic {
                                let (timeout, retry_cnt) =
                                    retry.expect("server retry armed with stochastic faults");
                                let post_idx = th.posts;
                                th.posts += 1;
                                let o = drive_attempts(now, timeout, retry_cnt, |t, attempt| {
                                    fabric.apply_fault_windows(t);
                                    let c = fabric.execute(t, req);
                                    let failed = fabric
                                        .faults()
                                        .map(|p| {
                                            p.attempt_fails(
                                                fault_key(&[
                                                    *id as u64,
                                                    stream as u64,
                                                    thread as u64,
                                                    post_idx,
                                                    u64::from(attempt),
                                                ]),
                                                st.path.wire_crossings(),
                                                st.path.pcie1_crossings(),
                                            )
                                        })
                                        .unwrap_or(false);
                                    (c, failed)
                                });
                                counters.retransmits += u64::from(o.retries);
                                if o.exhausted {
                                    counters.retry_exhausted += 1;
                                    None
                                } else {
                                    Some(o.result)
                                }
                            } else {
                                Some(fabric.execute(now, req))
                            };
                            match c {
                                Some(c) => {
                                    if in_window(c.completed) {
                                        let a = &mut aggs[si];
                                        a.hist.record(c.completed.saturating_sub(now));
                                        a.ops += 1;
                                        a.bytes += st.payload;
                                        counters.completed += 1;
                                    }
                                    eng.schedule(c.completed.max(now), ev)
                                        .expect("completion is in the future");
                                }
                                None => {
                                    // Abandoned after the retry budget:
                                    // no completion; repost to keep the
                                    // closed loop at its window.
                                    let (timeout, retry_cnt) = retry.expect("checked above");
                                    let burned = now
                                        + Nanos::new(timeout.as_nanos() * u64::from(retry_cnt + 1));
                                    eng.schedule(burned, ev)
                                        .expect("repost after retry exhaustion");
                                }
                            }
                        }
                    }
                }
                Ev::Arrive {
                    kind,
                    bytes,
                    from,
                    drained,
                } => match (&mut *model, kind) {
                    (
                        Model::Server { fabric, recvq },
                        MsgKind::Request {
                            verb,
                            payload,
                            addr,
                            endpoint,
                            stream,
                            thread,
                            posted,
                            xid,
                            dpa_resident,
                        },
                    ) => {
                        // Responder side of `Fabric::execute_remote`,
                        // driven by a real arrival event.
                        fabric.apply_fault_windows(now);
                        let server = &mut fabric.server;
                        let win = server.wire.reserve(
                            Dir::Fwd,
                            now,
                            wire_bytes(bytes),
                            wire_frames(bytes),
                        );
                        if let Some(q) = admission[stream as usize].as_mut() {
                            // Open-loop stream: the request passes the
                            // bounded admission queue before touching any
                            // responder resource past the RX wire. A
                            // rejection answers with a header-only NACK.
                            if !matches!(q.offer(now), Admission::Admit) {
                                let wout = server.wire.reserve(
                                    Dir::Rev,
                                    win.finish.max(drained),
                                    wire_bytes(0),
                                    wire_frames(0),
                                );
                                outbox.push(NetMsg {
                                    src: *id,
                                    dst: from,
                                    seq: *out_seq,
                                    depart: wout.start,
                                    bytes: 0,
                                    kind: MsgKind::Drop {
                                        stream,
                                        thread,
                                        posted,
                                        xid,
                                    },
                                });
                                *out_seq += 1;
                                return Step::Continue;
                            }
                        }
                        let pu = server.reserve_pu(win.start, endpoint);
                        if let Some(q) = admission[stream as usize].as_mut() {
                            q.commit(pu.start);
                        }
                        let resp_ready = if let Some(resident) = dpa_resident {
                            // DPA serving arm: the NIC parser kicks a
                            // DPA core and the request terminates on
                            // the NIC-resident plane — no DMA leg, no
                            // PCIe1 crossing, no host/SoC recv queue.
                            // Past scratch, the handler pays the
                            // SoC-DRAM spill on the payload it touches.
                            assert_eq!(verb, Verb::Send, "DPA streams are two-sided SENDs");
                            let serve = server.dpa_serve(pipeline_out(&pu), resident, payload);
                            serve.done.max(win.finish).max(drained)
                        } else {
                            let (op, dma_bytes) = match verb {
                                Verb::Read => (MemOp::Read, payload),
                                Verb::Write | Verb::Send => (MemOp::Write, payload),
                            };
                            let leg =
                                server.dma(pipeline_out(&pu), endpoint, op, addr, dma_bytes, true);
                            let mut r = leg.data_ready.max(win.finish).max(drained);
                            if verb == Verb::Send {
                                if !recvq.consume() {
                                    counters.rnr += 1;
                                }
                                r = server.handle_message(r, endpoint);
                            }
                            r
                        };
                        let inbound = match verb {
                            Verb::Read => payload,
                            Verb::Write | Verb::Send => 0,
                        };
                        let wout = server.wire.reserve(
                            Dir::Rev,
                            resp_ready,
                            wire_bytes(inbound),
                            wire_frames(inbound),
                        );
                        outbox.push(NetMsg {
                            src: *id,
                            dst: from,
                            seq: *out_seq,
                            depart: wout.start,
                            bytes: inbound,
                            kind: MsgKind::Response {
                                stream,
                                thread,
                                posted,
                                xid,
                            },
                        });
                        *out_seq += 1;
                    }
                    (
                        Model::Server { fabric, .. },
                        MsgKind::KvReq {
                            op,
                            key,
                            stream,
                            thread,
                            posted,
                            xid,
                        },
                    ) => {
                        let kv = kv_server
                            .as_mut()
                            .expect("KV request at a server without KV serving state");
                        fabric.apply_fault_windows(now);
                        let stochastic = fabric
                            .faults()
                            .map(|p| p.has_stochastic_faults())
                            .unwrap_or(false);
                        let win = fabric.server.wire.reserve(
                            Dir::Fwd,
                            now,
                            wire_bytes(bytes),
                            wire_frames(bytes),
                        );
                        let ready = win.finish.max(drained);
                        let n = kv.index.n_buckets();
                        let (resp_ready, resp_kind, resp_bytes) = match op {
                            KvOp::Probe { hop } => {
                                // One-sided probe READ: NIC pipeline +
                                // host-memory DMA, no CPU anywhere.
                                kv.probe_trips += 1;
                                let pu = fabric.server.reserve_pu(win.start, Endpoint::Host);
                                let home = kv.index.home_bucket(key);
                                let addr = KV_INDEX_BASE
                                    + (((home + hop as usize) % n) as u64) * BUCKET_BYTES;
                                let leg = fabric.server.dma(
                                    pipeline_out(&pu),
                                    Endpoint::Host,
                                    MemOp::Read,
                                    addr,
                                    BUCKET_BYTES,
                                    true,
                                );
                                (leg.data_ready.max(ready), KvRespKind::Bucket, BUCKET_BYTES)
                            }
                            KvOp::ValueRead { addr, len } => {
                                kv.probe_trips += 1;
                                let pu = fabric.server.reserve_pu(win.start, Endpoint::Host);
                                let leg = fabric.server.dma(
                                    pipeline_out(&pu),
                                    Endpoint::Host,
                                    MemOp::Read,
                                    addr,
                                    len as u64,
                                    true,
                                );
                                (
                                    leg.data_ready.max(ready),
                                    KvRespKind::Value { len },
                                    len as u64,
                                )
                            }
                            KvOp::Get => {
                                let l = kv
                                    .index
                                    .lookup(key)
                                    .expect("clients only ask a key's home shard");
                                kv.gets += 1;
                                kv.observe(key, true, l.probes);
                                match kv.design {
                                    Design::OneSidedRnic | Design::OneSidedSnic => {
                                        // Reply with the home bucket; the
                                        // client drives the rest of the
                                        // chain with its own READs.
                                        kv.probe_trips += 1;
                                        let pu =
                                            fabric.server.reserve_pu(win.start, Endpoint::Host);
                                        let addr = KV_INDEX_BASE
                                            + (kv.index.home_bucket(key) as u64) * BUCKET_BYTES;
                                        let leg = fabric.server.dma(
                                            pipeline_out(&pu),
                                            Endpoint::Host,
                                            MemOp::Read,
                                            addr,
                                            BUCKET_BYTES,
                                            true,
                                        );
                                        (
                                            leg.data_ready.max(ready),
                                            KvRespKind::Chain {
                                                probes: l.probes,
                                                value_addr: l.entry.value_addr,
                                                value_len: l.entry.value_len,
                                            },
                                            BUCKET_BYTES,
                                        )
                                    }
                                    Design::SocIndex => {
                                        // SoC cores walk the index; the
                                        // lookup serializes on the home
                                        // bucket's (weak) SoC DRAM bank,
                                        // then path 3 pulls the value out
                                        // of host memory.
                                        let pu = fabric.server.reserve_pu(win.start, Endpoint::Soc);
                                        let bank = kv.index.home_bucket(key) % SOC_BANKS;
                                        let arrival =
                                            pipeline_out(&pu).max(ready).max(kv.bank_free[bank]);
                                        let svc = kv.soc_svc + KV_SOC_PROBE * u64::from(l.probes);
                                        let res = kv.soc_pool.reserve(arrival, svc);
                                        kv.bank_free[bank] = res.start + SOC_BANK_HOLD;
                                        let len = l.entry.value_len;
                                        let fetch = |srv: &mut ServerMachine, t: Nanos| -> Nanos {
                                            srv.intra_dma(
                                                t,
                                                Endpoint::Soc,
                                                Endpoint::Host,
                                                Endpoint::Soc,
                                                l.entry.value_addr,
                                                l.entry.value_addr,
                                                len as u64,
                                            )
                                            .data_ready
                                        };
                                        let done = if stochastic {
                                            // Path 3 crosses PCIe1 twice;
                                            // under PCIe TLP corruption
                                            // every attempt rolls both
                                            // crossings and a failure
                                            // burns a full timeout — the
                                            // double-exposure mechanism.
                                            let (timeout, retry_cnt) =
                                                retry.expect("retry armed with stochastic faults");
                                            let o = drive_attempts(
                                                res.finish,
                                                timeout,
                                                retry_cnt,
                                                |t, attempt| {
                                                    let d = fetch(&mut fabric.server, t);
                                                    let failed = fabric
                                                        .faults()
                                                        .map(|p| {
                                                            p.attempt_fails(
                                                                fault_key(&[
                                                                    *id as u64,
                                                                    from as u64,
                                                                    xid,
                                                                    u64::from(attempt),
                                                                ]),
                                                                0,
                                                                2,
                                                            )
                                                        })
                                                        .unwrap_or(false);
                                                    (d, failed)
                                                },
                                            );
                                            // Every failed attempt counts
                                            // as a path-3 retry; on budget
                                            // exhaustion the last leg is
                                            // served anyway (the client
                                            // has no KV timeout).
                                            let fails =
                                                u64::from(o.retries) + u64::from(o.exhausted);
                                            kv.path3_retries += fails;
                                            kv.win_path3_retries += fails;
                                            counters.retransmits += u64::from(o.retries);
                                            if o.exhausted {
                                                counters.retry_exhausted += 1;
                                            }
                                            o.result
                                        } else {
                                            fetch(&mut fabric.server, res.finish)
                                        };
                                        (done.max(ready), KvRespKind::Value { len }, len as u64)
                                    }
                                    Design::HostRpc => {
                                        let pu =
                                            fabric.server.reserve_pu(win.start, Endpoint::Host);
                                        let arrival = pipeline_out(&pu).max(ready);
                                        let svc = kv.host_svc + KV_HOST_PROBE * u64::from(l.probes);
                                        let res = kv.host_pool.reserve(arrival, svc);
                                        let len = l.entry.value_len;
                                        let leg = fabric.server.dma(
                                            res.finish,
                                            Endpoint::Host,
                                            MemOp::Read,
                                            l.entry.value_addr,
                                            len as u64,
                                            true,
                                        );
                                        (
                                            leg.data_ready.max(ready),
                                            KvRespKind::Value { len },
                                            len as u64,
                                        )
                                    }
                                    Design::DpaHandler => {
                                        // The NIC parser kicks a DPA core:
                                        // the get terminates on the
                                        // NIC-resident plane without
                                        // crossing PCIe1, paying the
                                        // SoC-DRAM spill penalty while the
                                        // shard's state overflows scratch.
                                        let pu =
                                            fabric.server.reserve_pu(win.start, Endpoint::Host);
                                        let len = l.entry.value_len;
                                        let touched =
                                            BUCKET_BYTES * u64::from(l.probes) + len as u64;
                                        let serve = fabric.server.dpa_serve(
                                            pipeline_out(&pu).max(ready),
                                            kv.resident_bytes(),
                                            touched,
                                        );
                                        kv.dpa_gets += 1;
                                        (
                                            serve.done.max(ready),
                                            KvRespKind::Value { len },
                                            len as u64,
                                        )
                                    }
                                }
                            }
                            KvOp::Put => {
                                // Puts always land on the host: the index
                                // master and the value region live in host
                                // memory under every placement.
                                kv.puts += 1;
                                kv.observe(key, false, 0);
                                let pu = fabric.server.reserve_pu(win.start, Endpoint::Host);
                                let arrival = pipeline_out(&pu).max(ready);
                                let res = kv.host_pool.reserve(arrival, kv.host_svc + KV_PUT_EXTRA);
                                // Overwrites reuse the existing slot; only
                                // a fresh key advances the allocator.
                                let existing =
                                    kv.index.lookup(key).ok().map(|l| l.entry.value_addr);
                                let addr = existing.unwrap_or(KV_VALUES_BASE + kv.next_value);
                                kv.index
                                    .insert(key, addr, kv.value_size)
                                    .expect("put fits the configured index");
                                if existing.is_none() {
                                    kv.next_value += kv.value_size as u64;
                                }
                                let leg = fabric.server.dma(
                                    res.finish,
                                    Endpoint::Host,
                                    MemOp::Write,
                                    addr,
                                    kv.value_size as u64,
                                    true,
                                );
                                (leg.data_ready.max(ready), KvRespKind::PutAck, 0)
                            }
                        };
                        let wout = fabric.server.wire.reserve(
                            Dir::Rev,
                            resp_ready,
                            wire_bytes(resp_bytes),
                            wire_frames(resp_bytes),
                        );
                        outbox.push(NetMsg {
                            src: *id,
                            dst: from,
                            seq: *out_seq,
                            depart: wout.start,
                            bytes: resp_bytes,
                            kind: MsgKind::KvResp {
                                kind: resp_kind,
                                stream,
                                thread,
                                posted,
                                xid,
                            },
                        });
                        *out_seq += 1;
                    }
                    (
                        Model::Server { fabric, .. },
                        MsgKind::FmGet {
                            page,
                            write,
                            stream,
                            thread,
                            posted,
                            xid,
                        },
                    ) => {
                        // Pool side of a remote promotion: path ② ends
                        // at the SoC, so nothing here crosses PCIe1 —
                        // the cost is the wire, the NIC pipeline, a
                        // doorbell-batched SoC core, and the SoC DRAM
                        // banks moving the page.
                        let fm = fm_server
                            .as_mut()
                            .expect("far-memory request at a server without a pool");
                        fabric.apply_fault_windows(now);
                        let win = fabric.server.wire.reserve(
                            Dir::Fwd,
                            now,
                            wire_bytes(bytes),
                            wire_frames(bytes),
                        );
                        let ready = win.finish.max(drained);
                        let pu = fabric.server.reserve_pu(win.start, Endpoint::Soc);
                        let res = fm.pool.reserve(pipeline_out(&pu).max(ready), fm.svc);
                        let g = fm.cache.serve_get(res.finish, page);
                        let done = fm.cache.read_page(g.ready, g.slot_addr);
                        let resp_bytes = FM_REQ_BYTES + fm.page_bytes;
                        let wout = fabric.server.wire.reserve(
                            Dir::Rev,
                            done.max(ready),
                            wire_bytes(resp_bytes),
                            wire_frames(resp_bytes),
                        );
                        outbox.push(NetMsg {
                            src: *id,
                            dst: from,
                            seq: *out_seq,
                            depart: wout.start,
                            bytes: resp_bytes,
                            kind: MsgKind::FmResp {
                                kind: FmRespKind::Page { page, write },
                                stream,
                                thread,
                                posted,
                                xid,
                            },
                        });
                        *out_seq += 1;
                    }
                    (
                        Model::Server { fabric, .. },
                        MsgKind::FmPut {
                            page,
                            stamp,
                            stream,
                            thread,
                            posted,
                            xid,
                        },
                    ) => {
                        // A demoted dirty page lands in the pool's hot
                        // cache (inclusive install; eviction write-back
                        // to the backing region happens inside the
                        // cache, on the same SoC DRAM banks).
                        let fm = fm_server
                            .as_mut()
                            .expect("far-memory demotion at a server without a pool");
                        fabric.apply_fault_windows(now);
                        let win = fabric.server.wire.reserve(
                            Dir::Fwd,
                            now,
                            wire_bytes(bytes),
                            wire_frames(bytes),
                        );
                        let ready = win.finish.max(drained);
                        let pu = fabric.server.reserve_pu(win.start, Endpoint::Soc);
                        let res = fm.pool.reserve(pipeline_out(&pu).max(ready), fm.svc);
                        let done = fm.cache.serve_put(res.finish, page, stamp);
                        let wout = fabric.server.wire.reserve(
                            Dir::Rev,
                            done.max(ready),
                            wire_bytes(FM_REQ_BYTES),
                            wire_frames(FM_REQ_BYTES),
                        );
                        outbox.push(NetMsg {
                            src: *id,
                            dst: from,
                            seq: *out_seq,
                            depart: wout.start,
                            bytes: FM_REQ_BYTES,
                            kind: MsgKind::FmResp {
                                kind: FmRespKind::PutAck,
                                stream,
                                thread,
                                posted,
                                xid,
                            },
                        });
                        *out_seq += 1;
                    }
                    (
                        Model::Client { machine, .. },
                        MsgKind::FmResp {
                            kind,
                            stream,
                            thread,
                            posted,
                            xid: _,
                        },
                    ) => {
                        let si = stream as usize;
                        let st = streams[si]
                            .as_mut()
                            .expect("far-memory response for a stream not installed here");
                        let payload = st.payload;
                        let is_open = st.open.is_some();
                        let fmc = st
                            .fm
                            .as_mut()
                            .expect("far-memory response without a host slice");
                        match kind {
                            FmRespKind::Page { page, write } => {
                                // Promotion completes: account the
                                // access latency from its intended
                                // arrival, install the page, and write
                                // back any capacity victim it evicts.
                                let completed = machine.complete(now, bytes).max(drained);
                                let a = &mut aggs[si];
                                if is_open {
                                    a.total_completed += 1;
                                    a.outstanding -= 1;
                                }
                                if in_window(completed) {
                                    a.hist.record(completed.saturating_sub(posted));
                                    a.ops += 1;
                                    a.bytes += payload;
                                    counters.completed += 1;
                                }
                                fmc.promotes += 1;
                                let local = fm_local_page(page);
                                let mut demos = std::mem::take(&mut fmc.demote_buf);
                                demos.clear();
                                fmc.table.promote(completed, local, write, &mut demos);
                                for d in &demos {
                                    if d.dirty {
                                        send_fm_put(
                                            machine, fmc, outbox, out_seq, next_xid, *id, stream,
                                            thread, now, d.page,
                                        );
                                    }
                                }
                                fmc.demote_buf = demos;
                                if !is_open {
                                    eng.schedule(completed.max(now), Ev::Post { stream, thread })
                                        .expect("completion is in the future");
                                }
                            }
                            FmRespKind::PutAck => {
                                // Write-back acknowledged: drain the
                                // header through the NIC, no latency
                                // sample (demotions are background
                                // traffic, not ops).
                                let _ = machine.complete(now, bytes).max(drained);
                                fmc.put_acked += 1;
                            }
                        }
                    }
                    (
                        Model::Client { machine, .. },
                        MsgKind::KvResp {
                            kind,
                            stream,
                            thread,
                            posted,
                            xid,
                        },
                    ) => {
                        let si = stream as usize;
                        let st = streams[si]
                            .as_ref()
                            .expect("KV response for a stream not installed on this shard");
                        match kind {
                            KvRespKind::Value { .. } | KvRespKind::PutAck => {
                                // Final trip of the op: complete and
                                // account against the original post.
                                kv_pending.remove(&xid);
                                let completed = machine.complete(now, bytes).max(drained);
                                let a = &mut aggs[si];
                                if st.open.is_some() {
                                    a.total_completed += 1;
                                    a.outstanding -= 1;
                                }
                                if in_window(completed) {
                                    a.hist.record(completed.saturating_sub(posted));
                                    a.ops += 1;
                                    a.bytes += st.payload;
                                    counters.completed += 1;
                                }
                                if st.open.is_none() {
                                    eng.schedule(completed.max(now), Ev::Post { stream, thread })
                                        .expect("completion is in the future");
                                }
                            }
                            KvRespKind::Chain {
                                probes,
                                value_addr,
                                value_len,
                            } => {
                                // The server answered one-sidedly: the op
                                // continues as client-driven READs — the
                                // remaining probe hops, then the value.
                                let p = kv_pending
                                    .get_mut(&xid)
                                    .expect("chain reply for an unknown get");
                                p.probes = probes;
                                p.value_addr = value_addr;
                                p.value_len = value_len;
                                let op = if probes <= 1 {
                                    KvOp::ValueRead {
                                        addr: value_addr,
                                        len: value_len,
                                    }
                                } else {
                                    p.next_hop = 1;
                                    KvOp::Probe { hop: 1 }
                                };
                                let (server, pkey) = (p.server, p.key);
                                let done = machine.complete(now, bytes).max(drained);
                                let nic_seen = done + machine.mmio_transit();
                                let depart =
                                    machine.issue_with_wire(nic_seen, KV_REQ_BYTES, KV_REQ_BYTES);
                                outbox.push(NetMsg {
                                    src: *id,
                                    dst: server,
                                    seq: *out_seq,
                                    depart,
                                    bytes: KV_REQ_BYTES,
                                    kind: MsgKind::KvReq {
                                        op,
                                        key: pkey,
                                        stream,
                                        thread,
                                        posted,
                                        xid,
                                    },
                                });
                                *out_seq += 1;
                            }
                            KvRespKind::Bucket => {
                                let p = kv_pending
                                    .get_mut(&xid)
                                    .expect("bucket reply for an unknown chain");
                                p.next_hop += 1;
                                let op = if p.next_hop < p.probes {
                                    KvOp::Probe { hop: p.next_hop }
                                } else {
                                    KvOp::ValueRead {
                                        addr: p.value_addr,
                                        len: p.value_len,
                                    }
                                };
                                let (server, pkey) = (p.server, p.key);
                                let done = machine.complete(now, bytes).max(drained);
                                let nic_seen = done + machine.mmio_transit();
                                let depart =
                                    machine.issue_with_wire(nic_seen, KV_REQ_BYTES, KV_REQ_BYTES);
                                outbox.push(NetMsg {
                                    src: *id,
                                    dst: server,
                                    seq: *out_seq,
                                    depart,
                                    bytes: KV_REQ_BYTES,
                                    kind: MsgKind::KvReq {
                                        op,
                                        key: pkey,
                                        stream,
                                        thread,
                                        posted,
                                        xid,
                                    },
                                });
                                *out_seq += 1;
                            }
                        }
                    }
                    (
                        Model::Client { machine, .. },
                        MsgKind::Response {
                            stream,
                            thread,
                            posted,
                            xid,
                        },
                    ) => {
                        let si = stream as usize;
                        let st = streams[si]
                            .as_ref()
                            .expect("response for a stream not installed on this shard");
                        if st.open.is_some() {
                            // Open loop: record the CO-free latency
                            // (response instant minus *intended* arrival)
                            // and retire the op. No repost — the arrival
                            // chain, not completions, drives the load.
                            let completed = machine.complete(now, bytes).max(drained);
                            let a = &mut aggs[si];
                            a.total_completed += 1;
                            a.outstanding -= 1;
                            if in_window(completed) {
                                a.hist.record(completed.saturating_sub(posted));
                                a.ops += 1;
                                a.bytes += st.payload;
                                counters.completed += 1;
                            }
                            return Step::Continue;
                        }
                        // With recovery armed, only the first response
                        // for an xid completes the operation; duplicates
                        // (a late original racing its retransmission)
                        // are dropped without touching the window.
                        if retry.is_some() && outstanding.remove(&xid).is_none() {
                            counters.dup_responses += 1;
                            return Step::Continue;
                        }
                        let completed = machine.complete(now, bytes).max(drained);
                        if in_window(completed) {
                            let a = &mut aggs[si];
                            a.hist.record(completed.saturating_sub(posted));
                            a.ops += 1;
                            a.bytes += st.payload;
                            counters.completed += 1;
                        }
                        // Refill this window slot.
                        eng.schedule(completed.max(now), Ev::Post { stream, thread })
                            .expect("completion is in the future");
                    }
                    (Model::Client { machine, .. }, MsgKind::Drop { stream, .. }) => {
                        // Admission NACK: the header still drains through
                        // the client NIC's completion path, then the op is
                        // accounted as dropped (it left `outstanding` only
                        // now, so in-flight NACKs keep the conservation
                        // invariant exact at any horizon).
                        let _ = machine.complete(now, bytes).max(drained);
                        let a = &mut aggs[stream as usize];
                        a.dropped += 1;
                        a.outstanding -= 1;
                    }
                    _ => unreachable!("message kind does not match the shard's role"),
                },
                Ev::Timeout { xid, attempt } => {
                    let (timeout, retry_cnt) =
                        retry.expect("timeout events only exist with recovery armed");
                    // Stale guard: the operation completed, or a later
                    // attempt re-armed its own timeout.
                    let current = match outstanding.get(&xid) {
                        Some(o) if o.attempt == attempt => o,
                        _ => return Step::Continue,
                    };
                    let (stream, thread) = (current.stream, current.thread);
                    if attempt >= retry_cnt {
                        outstanding.remove(&xid);
                        counters.retry_exhausted += 1;
                        // Abandon the operation; repost to keep the
                        // closed loop at its window.
                        eng.schedule(now, Ev::Post { stream, thread })
                            .expect("repost is not in the past");
                        return Step::Continue;
                    }
                    let Model::Client {
                        machine,
                        server_shard,
                    } = &mut *model
                    else {
                        unreachable!("timeouts only arm on client shards")
                    };
                    let st = streams[stream as usize]
                        .as_ref()
                        .expect("timeout for a stream not installed on this shard");
                    counters.retransmits += 1;
                    let outbound = match st.verb {
                        Verb::Read => 0,
                        Verb::Write | Verb::Send => st.payload,
                    };
                    let nic_seen = now + machine.mmio_transit();
                    let depart = machine.issue_with_wire(nic_seen, outbound, outbound);
                    let o = outstanding.get_mut(&xid).expect("checked above");
                    o.attempt += 1;
                    outbox.push(NetMsg {
                        src: *id,
                        dst: *server_shard,
                        seq: *out_seq,
                        depart,
                        bytes: outbound,
                        kind: MsgKind::Request {
                            verb: st.verb,
                            payload: st.payload,
                            addr: o.addr,
                            endpoint: st.path.responder(),
                            stream,
                            thread,
                            posted: o.posted,
                            xid,
                            dpa_resident: st.dpa.then_some(st.addr_range),
                        },
                    });
                    *out_seq += 1;
                    eng.schedule(
                        depart + timeout,
                        Ev::Timeout {
                            xid,
                            attempt: attempt + 1,
                        },
                    )
                    .expect("timeout is in the future");
                }
                Ev::KvEpoch => {
                    // Online advisor: close the observation window,
                    // re-decide the placement, arm the next epoch. This
                    // reads and writes only shard-local state at a fixed
                    // simulated instant, so re-decisions never depend
                    // on other shards.
                    let kv = kv_server
                        .as_mut()
                        .expect("KV epochs only fire on KV server shards");
                    let Model::Server { fabric, .. } = &mut *model else {
                        unreachable!("KV epochs only arm on server shards")
                    };
                    let pcie_faulty = fabric
                        .faults()
                        .map(|p| {
                            let (slowdown, extra) = p.pcie_degradation(now);
                            p.has_stochastic_faults() || slowdown > 1.0 || extra > Nanos::ZERO
                        })
                        .unwrap_or(false);
                    let obs = kv.take_window(now, pcie_faulty);
                    let policy = kv.policy.expect("epoch chain armed without a policy");
                    let next = policy(&obs);
                    kv.decisions += 1;
                    if next != kv.design {
                        kv.design_changes += 1;
                        kv.design = next;
                    }
                    eng.schedule(now + kv.decision_every, Ev::KvEpoch)
                        .expect("next epoch is in the future");
                }
            }
            Step::Continue
        });
    }
}

/// Post a fire-and-forget demotion write-back onto the wire: the page
/// payload rides an [`MsgKind::FmPut`] to its home pool server. Never
/// counted against the stream's open-loop conservation — demotions are
/// background traffic the access stream does not wait on.
#[allow(clippy::too_many_arguments)]
fn send_fm_put(
    machine: &mut ClientMachine,
    fmc: &mut FmHost,
    outbox: &mut Vec<NetMsg>,
    out_seq: &mut u64,
    next_xid: &mut u64,
    id: ShardId,
    stream: u16,
    thread: u16,
    now: Nanos,
    page: u64,
) {
    let gpage = fm_global_page(id, page);
    let dst = fmc.n_clients + kv_home_server(gpage, fmc.n_servers);
    let stamp = fmc.next_stamp;
    fmc.next_stamp += 1;
    let bytes = FM_REQ_BYTES + fmc.spec.page_bytes;
    let nic_seen = now + machine.mmio_transit();
    let depart = machine.issue_with_wire(nic_seen, bytes, bytes);
    let xid = *next_xid;
    *next_xid += 1;
    outbox.push(NetMsg {
        src: id,
        dst,
        seq: *out_seq,
        depart,
        bytes,
        kind: MsgKind::FmPut {
            page: gpage,
            stamp,
            stream,
            thread,
            posted: now,
            xid,
        },
    });
    *out_seq += 1;
}
