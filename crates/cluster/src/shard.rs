//! Shards: one machine per shard, each with a private event engine.
//!
//! A client shard owns a `nicsim::ClientMachine` plus the closed-loop
//! requester threads of every stream that lists it; a server shard owns
//! a full `nicsim::Fabric` (with zero embedded clients — real clients
//! live in their own shards) and answers inbound requests, plus hosts
//! path-3 streams that never leave the machine. Shards communicate only
//! through [`NetMsg`]s collected at epoch boundaries, which is what lets
//! the runtime run each shard's epoch on its own.
//!
//! A shard is its engine plus its [`ShardState`]; the state handles one
//! event at a time, with one method per event or message kind.

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
use simnet::faults::{drive_attempts, fault_key, FaultSpec, RetryOutcome};
use simnet::resource::{Dir, MultiServer, Reservation};
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

/// A delivered message's envelope, as its handler sees it.
#[derive(Clone, Copy)]
struct Arrival {
    now: Nanos,
    bytes: u64,
    from: ShardId,
    drained: Nanos,
}

/// The measurement window `(from, to]`: completions inside it are
/// sampled.
type Window = (Nanos, Nanos);

/// Per-stream measurement aggregate on one shard.
///
/// The open-loop fields (`generated` and below) stay zero for
/// closed-loop streams; they cover the *whole* run (not just the
/// measurement window) so the ops-conservation invariant
/// `generated == total_completed + dropped + outstanding` holds exactly
/// at the horizon.
#[derive(Default)]
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
    /// Open-loop ops issued but not yet completed or dropped (every
    /// open-loop op enters at the post gate, synchronous ones too).
    pub outstanding: u64,
    /// Summed issue slip past the intended arrival (CPU-side excess
    /// delay, the part coordinated omission would have hidden).
    pub excess_ns: u64,
}

impl StreamAgg {
    /// Retires one op that finished at `completed`: an open-loop op
    /// leaves `outstanding` whenever it finishes, and the latency sample
    /// (measured from `from`) counts only inside the window.
    fn complete(
        &mut self,
        completed: Nanos,
        from: Nanos,
        payload: u64,
        window: Window,
        open: bool,
    ) {
        if open {
            self.total_completed += 1;
            self.outstanding -= 1;
        }
        if completed > window.0 && completed <= window.1 {
            self.hist.record(completed.saturating_sub(from));
            self.ops += 1;
            self.bytes += payload;
        }
    }

    /// Retires an open-loop op the admission queue rejected.
    fn reject(&mut self) {
        self.dropped += 1;
        self.outstanding -= 1;
    }
}

/// Shard-local counters, merged into the result registry in shard order.
#[derive(Default)]
pub(crate) struct ShardCounters {
    pub posted: u64,
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

impl LocalStream {
    /// The stream's raw verb request for `addr`, with its outbound wire
    /// bytes (a READ carries no payload towards the responder).
    fn request(
        &self,
        addr: u64,
        stream: u16,
        thread: u16,
        posted: Nanos,
        xid: u64,
    ) -> (u64, MsgKind) {
        let outbound = match self.verb {
            Verb::Read => 0,
            Verb::Write | Verb::Send => self.payload,
        };
        let kind = MsgKind::Request {
            verb: self.verb,
            payload: self.payload,
            addr,
            endpoint: self.path.responder(),
            stream,
            thread,
            posted,
            xid,
            dpa_resident: self.dpa.then_some(self.addr_range),
        };
        (outbound, kind)
    }
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

impl Model {
    fn client(&mut self) -> &mut ClientMachine {
        match self {
            Model::Client { machine, .. } => machine,
            Model::Server { .. } => unreachable!("message kind does not match the shard's role"),
        }
    }

    fn server(&mut self) -> &mut Fabric {
        match self {
            Model::Server { fabric, .. } => fabric,
            Model::Client { .. } => unreachable!("message kind does not match the shard's role"),
        }
    }
}

/// Messages emitted since the last epoch, in emission order: `seq`
/// numbers them per source for the switch's `(depart, src, seq)` merge.
struct Outbox {
    id: ShardId,
    seq: u64,
    msgs: Vec<NetMsg>,
}

impl Outbox {
    fn send(&mut self, dst: ShardId, depart: Nanos, bytes: u64, kind: MsgKind) {
        self.msgs.push(NetMsg {
            src: self.id,
            dst,
            seq: self.seq,
            depart,
            bytes,
            kind,
        });
        self.seq += 1;
    }
}

/// One machine of the cluster with its private engine and resources.
pub(crate) struct Shard {
    engine: Engine<Ev>,
    state: ShardState,
}

/// Everything of a shard but its engine.
struct ShardState {
    model: Model,
    streams: Vec<Option<LocalStream>>,
    /// Server shards only: per-stream admission queues for open-loop
    /// streams (None = closed loop, no admission control).
    admission: Vec<Option<AdmissionQueue>>,
    aggs: Vec<StreamAgg>,
    counters: ShardCounters,
    out: Outbox,
    window: Window,
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
            engine: Engine::new(),
            state: ShardState {
                model,
                streams: (0..n_streams).map(|_| None).collect(),
                admission: (0..n_streams).map(|_| None).collect(),
                aggs: (0..n_streams).map(|_| StreamAgg::default()).collect(),
                counters: ShardCounters::default(),
                out: Outbox {
                    id,
                    seq: 0,
                    msgs: Vec::new(),
                },
                window: (measure_from, measure_to),
                retry: None,
                outstanding: HashMap::new(),
                next_xid: 0,
                kv_server: None,
                kv_pending: HashMap::new(),
                fm_server: None,
            },
        }
    }

    /// Arms transport recovery: an ack timeout and retry budget for
    /// this shard's requester threads (clients: timeout/retransmit over
    /// the wire; servers: synchronous path-3 retries).
    pub(crate) fn set_retry(&mut self, timeout: Nanos, retry_cnt: u32) {
        self.state.retry = Some((timeout, retry_cnt));
    }

    /// Installs the fault schedule on a server shard's fabric (PCIe
    /// degradation windows, SoC stalls and per-crossing TLP verdicts).
    /// No-op for client shards.
    pub(crate) fn set_faults(&mut self, spec: FaultSpec) {
        if let Model::Server { fabric, .. } = &mut self.state.model {
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
            self.state.streams[idx].is_none(),
            "stream {idx} installed twice on shard {} (duplicate client index?)",
            self.state.out.id
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
        self.state.streams[idx] = Some(LocalStream {
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
        let st = self.state.streams[idx]
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
        let st = self.state.streams[idx]
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
        self.state.fm_server = Some(fm);
    }

    /// The shard's far-memory pool state, if any.
    pub(crate) fn fm(&self) -> Option<&FmServer> {
        self.state.fm_server.as_ref()
    }

    /// Every far-memory host slice installed on this shard.
    pub(crate) fn fm_clients(&self) -> impl Iterator<Item = &FmHost> + '_ {
        self.state
            .streams
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
        self.state.kv_server = Some(kv);
    }

    /// The shard's KV serving state, if any.
    pub(crate) fn kv(&self) -> Option<&KvServer> {
        self.state.kv_server.as_ref()
    }

    /// Whether this (server) shard's SmartNIC carries a DPA plane.
    pub(crate) fn has_dpa(&self) -> bool {
        self.dpa_stats().is_some()
    }

    /// The DPA plane's serving counters, when the plane exists.
    pub(crate) fn dpa_stats(&self) -> Option<DpaStats> {
        match &self.state.model {
            Model::Server { fabric, .. } => fabric.server.dpa_stats(),
            Model::Client { .. } => None,
        }
    }

    /// Installs an admission queue guarding `idx` on this (server)
    /// shard: every inbound open-loop request of the stream passes
    /// through it before reserving responder resources.
    pub(crate) fn install_admission(&mut self, idx: usize, queue: AdmissionQueue) {
        self.state.admission[idx] = Some(queue);
    }

    /// The admission queue guarding stream `idx`, if one is installed.
    pub(crate) fn admission(&self, idx: usize) -> Option<&AdmissionQueue> {
        self.state.admission[idx].as_ref()
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
        self.state.out.msgs.drain(..)
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
        &self.state.aggs[idx]
    }

    /// Shard-local counters.
    pub(crate) fn counters(&self) -> &ShardCounters {
        &self.state.counters
    }

    /// Runs all shard-local events with `time <= deadline` (one epoch).
    pub(crate) fn run_until(&mut self, deadline: Nanos) {
        let Shard { engine, state } = self;
        engine.run_until(deadline, |eng, now, ev| {
            state.on_event(eng, now, ev);
            Step::Continue
        });
    }
}

impl ShardState {
    /// Dispatches one event to its handler.
    fn on_event(&mut self, eng: &mut Engine<Ev>, now: Nanos, ev: Ev) {
        match ev {
            Ev::Post { stream, thread } => self.on_post(eng, now, stream, thread),
            Ev::Timeout { xid, attempt } => self.on_timeout(eng, now, xid, attempt),
            Ev::KvEpoch => self.on_kv_epoch(eng, now),
            Ev::Arrive {
                kind,
                bytes,
                from,
                drained,
            } => {
                let a = Arrival {
                    now,
                    bytes,
                    from,
                    drained,
                };
                match kind {
                    MsgKind::Request { .. } => self.serve_request(a, kind),
                    MsgKind::KvReq { .. } => self.serve_kv(a, kind),
                    MsgKind::FmGet { .. } => self.serve_fm_get(a, kind),
                    MsgKind::FmPut { .. } => self.serve_fm_put(a, kind),
                    MsgKind::Response { .. } => self.on_response(eng, a, kind),
                    MsgKind::KvResp { .. } => self.on_kv_resp(eng, a, kind),
                    MsgKind::FmResp { .. } => self.on_fm_resp(eng, a, kind),
                    MsgKind::Drop { stream, .. } => self.on_drop(a, stream),
                }
            }
        }
    }

    /// The post gate, shared by every kind of stream. Open loop: this
    /// event is an *intended arrival* — advance the arrival chain and
    /// reserve a posting core; latency is measured from `now` however
    /// late the core gets to it (the gap coordinated omission would
    /// hide). Closed loop: pace the thread's CPU, deferring the post
    /// instead of reserving ahead so FIFO resources stay available to
    /// earlier posts. Returns `None` when deferred, else the issue
    /// instant and, in open loop, the arrival's logical user.
    fn gate(
        &mut self,
        eng: &mut Engine<Ev>,
        now: Nanos,
        stream: u16,
        thread: u16,
    ) -> Option<(Nanos, Option<u64>)> {
        let st = self.streams[stream as usize]
            .as_mut()
            .expect("post event for a stream not installed on this shard");
        let issued = if let Some(open) = st.open.as_mut() {
            let user = open.next_user;
            let next = open.gen.next_arrival();
            open.next_user = next.user;
            eng.schedule(next.at, Ev::Post { stream, thread: 0 })
                .expect("arrival chain advances strictly");
            let start = open.posters.reserve(now, st.cpu_cost).start;
            let agg = &mut self.aggs[stream as usize];
            agg.generated += 1;
            agg.excess_ns += start.saturating_sub(now).as_nanos();
            agg.outstanding += 1;
            (start, Some(user))
        } else {
            let th = &mut st.threads[thread as usize];
            if th.cpu_free > now {
                self.counters.deferred += 1;
                eng.schedule(th.cpu_free, Ev::Post { stream, thread })
                    .expect("deferred post is in the future");
                return None;
            }
            th.cpu_free = now + st.cpu_cost;
            if th.signal.on_post(SendFlags::unsignaled()) {
                self.counters.forced_signals += 1;
            }
            (now, None)
        };
        self.counters.posted += 1;
        Some(issued)
    }

    fn on_post(&mut self, eng: &mut Engine<Ev>, now: Nanos, stream: u16, thread: u16) {
        let Some((issued, user)) = self.gate(eng, now, stream, thread) else {
            return;
        };
        let st = self.streams[stream as usize].as_ref().expect("gated");
        if st.kv.is_some() {
            self.post_kv(now, issued, stream, thread);
        } else if st.fm.is_some() {
            self.post_fm(eng, now, issued, stream, thread);
        } else {
            self.post_raw(eng, now, issued, user, stream, thread);
        }
    }

    /// A KV service post becomes one YCSB op routed to the key's home
    /// server. The key is drawn *here*, so routing fans the stream out
    /// across all server shards. Open-loop arrivals all carry thread 0,
    /// so an open stream draws its keys from thread 0's RNG.
    fn post_kv(&mut self, now: Nanos, issued: Nanos, stream: u16, thread: u16) {
        let st = self.streams[stream as usize].as_mut().expect("gated");
        let kvc = st.kv.as_ref().expect("KV stream");
        let rng = &mut st.threads[thread as usize].rng;
        let key = match &kvc.zipf {
            Some(z) => z.sample(rng) as u64,
            None => rng.uniform_u64(kvc.n_keys),
        };
        let is_read = rng.chance(kvc.read_fraction);
        let (op, bytes) = if is_read {
            (KvOp::Get, KV_REQ_BYTES)
        } else {
            (KvOp::Put, KV_REQ_BYTES + kvc.value_size as u64)
        };
        let server = kvc.n_clients + kv_home_server(key, kvc.n_servers);
        let depart = issue(self.model.client(), issued, bytes);
        let xid = self.next_xid;
        self.next_xid += 1;
        if is_read {
            // Gets may come back as a one-sided probe chain; remember
            // the key so follow-up READs can be addressed.
            let p = KvPending {
                server,
                key,
                probes: 0,
                next_hop: 0,
                value_addr: 0,
                value_len: 0,
            };
            self.kv_pending.insert(xid, p);
        }
        // `posted` is the intended arrival (open) or the post instant
        // (closed), echoed across every trip so latency spans the op.
        let kind = MsgKind::KvReq {
            op,
            key,
            stream,
            thread,
            posted: now,
            xid,
        };
        self.out.send(server, depart, bytes, kind);
    }

    /// A far-memory post is one page access. The residency check
    /// happens here: hits retire synchronously at host-DRAM cost,
    /// misses promote the page from the SoC pool, and idle resident
    /// pages age out (dirty ones write back).
    fn post_fm(
        &mut self,
        eng: &mut Engine<Ev>,
        now: Nanos,
        issued: Nanos,
        stream: u16,
        thread: u16,
    ) {
        let id = self.out.id;
        let st = self.streams[stream as usize].as_mut().expect("gated");
        let (open, payload) = (st.open.is_some(), st.payload);
        let fmc = st.fm.as_mut().expect("far-memory stream");
        let access = fmc.gen.next_access();
        let hit = fmc.table.touch(issued, access.page, access.write);
        let page_bytes = fmc.spec.page_bytes;
        fmc.demote_buf.clear();
        let completed = match &mut self.model {
            Model::Client { machine, .. } => {
                // Remote placement (path ②): a miss travels the wire to
                // the page's pool server and completes as an FmResp (a
                // closed-loop thread blocks until the page lands).
                let done = if hit {
                    Some(issued + FM_HOST_HIT)
                } else {
                    let page = fm_global_page(id, access.page);
                    let dst = fmc.n_clients + kv_home_server(page, fmc.n_servers);
                    let depart = issue(machine, issued, FM_REQ_BYTES);
                    let kind = MsgKind::FmGet {
                        page,
                        write: access.write,
                        stream,
                        thread,
                        posted: now,
                        xid: self.next_xid,
                    };
                    self.next_xid += 1;
                    self.out.send(dst, depart, FM_REQ_BYTES, kind);
                    None
                };
                fmc.table.demote_aged(now, &mut fmc.demote_buf);
                write_back(
                    machine,
                    fmc,
                    &mut self.out,
                    &mut self.next_xid,
                    stream,
                    thread,
                    now,
                );
                done
            }
            Model::Server { fabric, .. } => {
                // Local placement (path ③): the whole promotion stays on
                // this machine — the SoC pool serves the page, then the
                // DMA engine pulls it into host memory across PCIe1
                // twice.
                let fms = self
                    .fm_server
                    .as_mut()
                    .expect("local far memory needs the pool on this shard");
                let completed = if hit {
                    issued + FM_HOST_HIT
                } else {
                    fabric.apply_fault_windows(issued);
                    let gpage = fm_global_page(id, access.page);
                    let res = fms.pool.reserve(issued, fms.svc);
                    let g = fms.cache.serve_get(res.finish, gpage);
                    let host_addr = access.page.wrapping_mul(page_bytes);
                    let key = [id as u64, stream as u64, thread as u64, self.next_xid];
                    self.next_xid += 1;
                    let o = path3_retry(
                        fabric,
                        self.retry,
                        &mut self.counters,
                        g.ready,
                        &key,
                        (0, 2),
                        |f, t| {
                            let (h, s) = (Endpoint::Host, Endpoint::Soc);
                            let leg =
                                f.server
                                    .intra_dma(t, h, s, h, g.slot_addr, host_addr, page_bytes);
                            leg.data_ready
                        },
                    );
                    // Served anyway on exhaustion — the host must get
                    // its page.
                    fmc.path3_retries += u64::from(o.retries) + u64::from(o.exhausted);
                    fmc.promotes += 1;
                    fmc.table
                        .promote(o.result, access.page, access.write, &mut fmc.demote_buf);
                    o.result
                };
                // Promotion install plus the aged sweep share one
                // demotion pass; dirty victims are pushed back over
                // PCIe1 (posted writes — they occupy the DMA engine and
                // SoC DRAM but do not delay this access).
                fmc.table.demote_aged(now, &mut fmc.demote_buf);
                for d in fmc.demote_buf.iter().filter(|d| d.dirty) {
                    let gp = fm_global_page(id, d.page);
                    let (h, s) = (Endpoint::Host, Endpoint::Soc);
                    let leg = fabric.server.intra_dma(
                        completed.max(now),
                        h,
                        h,
                        s,
                        d.page.wrapping_mul(page_bytes),
                        gp.wrapping_mul(page_bytes),
                        page_bytes,
                    );
                    fms.cache.serve_put(leg.data_ready, gp, fmc.next_stamp);
                    fmc.next_stamp += 1;
                    fmc.put_acked += 1;
                }
                Some(completed)
            }
        };
        if let Some(c) = completed {
            self.aggs[stream as usize].complete(c, now, payload, self.window, open);
            if !open {
                eng.schedule(c.max(now), Ev::Post { stream, thread })
                    .expect("completion is in the future");
            }
        }
    }

    /// A raw verb. Open-loop ops address their logical user's home
    /// region; closed-loop ops draw a random address.
    fn post_raw(
        &mut self,
        eng: &mut Engine<Ev>,
        now: Nanos,
        issued: Nanos,
        user: Option<u64>,
        stream: u16,
        thread: u16,
    ) {
        let si = stream as usize;
        let st = self.streams[si].as_mut().expect("gated");
        let (base, range) = (st.addr_base, st.addr_range);
        let addr = match user {
            _ if range < ADDR_ALIGN => base,
            Some(u) => user_home_addr(u, base, range, ADDR_ALIGN),
            None => st.threads[thread as usize]
                .rng
                .addr_in_range(base, range, ADDR_ALIGN),
        };
        let fabric = match &mut self.model {
            Model::Client {
                machine,
                server_shard,
            } => {
                let xid = self.next_xid;
                self.next_xid += 1;
                let (bytes, kind) = st.request(addr, stream, thread, now, xid);
                let depart = issue(machine, issued, bytes);
                self.out.send(*server_shard, depart, bytes, kind);
                // Open-loop ops are never retransmitted: rejection is
                // an explicit NACK, not a timeout.
                if let (None, Some((timeout, _))) = (user, self.retry) {
                    let o = Outstanding {
                        stream,
                        thread,
                        addr,
                        posted: now,
                        attempt: 0,
                    };
                    self.outstanding.insert(xid, o);
                    eng.schedule(depart + timeout, Ev::Timeout { xid, attempt: 0 })
                        .expect("timeout is in the future");
                }
                return;
            }
            Model::Server { fabric, .. } => fabric,
        };
        let req = RequestDesc::new(st.verb, st.path, st.payload, addr, 0);
        let agg = &mut self.aggs[si];
        if user.is_some() {
            // Open path-3 stream: admission and the whole round trip
            // stay on this machine, so a rejection is synchronous. No
            // fault verdicts are rolled.
            let q = self.admission[si]
                .as_mut()
                .expect("open path-3 stream has an admission queue");
            if !matches!(q.offer(issued), Admission::Admit) {
                agg.reject();
                return;
            }
            fabric.apply_fault_windows(issued);
            let c = fabric.execute(issued, req);
            q.commit(c.nic_start);
            agg.complete(c.completed, now, st.payload, self.window, true);
            return;
        }
        // Closed path-3 stream: every attempt re-applies the fault
        // windows and rolls one verdict per crossing of the path.
        let th = &mut st.threads[thread as usize];
        let key = [self.out.id as u64, stream as u64, thread as u64, th.posts];
        th.posts += 1;
        let crossings = (st.path.wire_crossings(), st.path.pcie1_crossings());
        let o = path3_retry(
            fabric,
            self.retry,
            &mut self.counters,
            now,
            &key,
            crossings,
            |f, t| {
                f.apply_fault_windows(t);
                f.execute(t, req)
            },
        );
        let repost = if o.exhausted {
            // Abandoned after the retry budget: no completion; repost
            // once the burned timeouts pass to keep the window full.
            let (timeout, retry_cnt) = self.retry.expect("exhaustion implies recovery");
            now + Nanos::new(timeout.as_nanos() * u64::from(retry_cnt + 1))
        } else {
            agg.complete(o.result.completed, now, st.payload, self.window, false);
            o.result.completed.max(now)
        };
        eng.schedule(repost, Ev::Post { stream, thread })
            .expect("repost is in the future");
    }

    /// Responder side of `Fabric::execute_remote`, driven by a real
    /// arrival event.
    fn serve_request(&mut self, a: Arrival, kind: MsgKind) {
        let MsgKind::Request {
            verb,
            payload,
            addr,
            endpoint,
            stream,
            thread,
            posted,
            xid,
            dpa_resident,
        } = kind
        else {
            unreachable!()
        };
        let Model::Server { fabric, recvq } = &mut self.model else {
            unreachable!("message kind does not match the shard's role")
        };
        let (win, ready) = rx(fabric, a);
        let mut q = self.admission[stream as usize].as_mut();
        if let Some(q) = q.as_mut() {
            // Open-loop stream: the request passes the bounded
            // admission queue before touching any responder resource
            // past the RX wire. A rejection answers with a header-only
            // NACK.
            if !matches!(q.offer(a.now), Admission::Admit) {
                let nack = MsgKind::Drop {
                    stream,
                    thread,
                    posted,
                    xid,
                };
                return reply(fabric, &mut self.out, a.from, ready, 0, nack);
            }
        }
        let server = &mut fabric.server;
        let pu = server.reserve_pu(win.start, endpoint);
        if let Some(q) = q {
            q.commit(pu.start);
        }
        let resp_ready = if let Some(resident) = dpa_resident {
            // DPA serving arm: the NIC parser kicks a DPA core and the
            // request terminates on the NIC-resident plane — no DMA
            // leg, no PCIe1 crossing, no host/SoC recv queue. Past
            // scratch, the handler pays the SoC-DRAM spill on the
            // payload it touches.
            assert_eq!(verb, Verb::Send, "DPA streams are two-sided SENDs");
            server
                .dpa_serve(pipeline_out(&pu), resident, payload)
                .done
                .max(ready)
        } else {
            let op = match verb {
                Verb::Read => MemOp::Read,
                Verb::Write | Verb::Send => MemOp::Write,
            };
            let leg = server.dma(pipeline_out(&pu), endpoint, op, addr, payload, true);
            let r = leg.data_ready.max(ready);
            if verb != Verb::Send {
                r
            } else {
                if !recvq.consume() {
                    self.counters.rnr += 1;
                }
                server.handle_message(r, endpoint)
            }
        };
        let inbound = match verb {
            Verb::Read => payload,
            Verb::Write | Verb::Send => 0,
        };
        let resp = MsgKind::Response {
            stream,
            thread,
            posted,
            xid,
        };
        reply(fabric, &mut self.out, a.from, resp_ready, inbound, resp);
    }

    /// A KV op at its key's home server, served under the current
    /// index placement.
    fn serve_kv(&mut self, a: Arrival, kind: MsgKind) {
        let MsgKind::KvReq {
            op,
            key,
            stream,
            thread,
            posted,
            xid,
        } = kind
        else {
            unreachable!()
        };
        let kv = self
            .kv_server
            .as_mut()
            .expect("KV request at a server without KV serving state");
        let fabric = self.model.server();
        let (win, ready) = rx(fabric, a);
        let (resp_ready, resp_kind, resp_bytes) = match op {
            KvOp::Probe { hop } => {
                let addr = bucket_addr(kv, key, hop);
                let done = nic_read(kv, &mut fabric.server, win.start, addr, BUCKET_BYTES);
                (done, KvRespKind::Bucket, BUCKET_BYTES)
            }
            KvOp::ValueRead { addr, len } => {
                let done = nic_read(kv, &mut fabric.server, win.start, addr, len as u64);
                (done, KvRespKind::Value { len }, len as u64)
            }
            KvOp::Get => self.serve_kv_get(a.from, key, xid, win, ready),
            KvOp::Put => {
                // Puts always land on the host: the index master and
                // the value region live in host memory under every
                // placement.
                kv.puts += 1;
                kv.observe(key, false, 0);
                let pu = fabric.server.reserve_pu(win.start, Endpoint::Host);
                let arrival = pipeline_out(&pu).max(ready);
                let res = kv.host_pool.reserve(arrival, kv.host_svc + KV_PUT_EXTRA);
                // Overwrites reuse the existing slot; only a fresh key
                // advances the allocator.
                let existing = kv.index.lookup(key).ok().map(|l| l.entry.value_addr);
                let addr = existing.unwrap_or(KV_VALUES_BASE + kv.next_value);
                kv.index
                    .insert(key, addr, kv.value_size)
                    .expect("put fits the configured index");
                if existing.is_none() {
                    kv.next_value += kv.value_size as u64;
                }
                let (h, len) = (Endpoint::Host, kv.value_size as u64);
                let leg = fabric
                    .server
                    .dma(res.finish, h, MemOp::Write, addr, len, true);
                (leg.data_ready, KvRespKind::PutAck, 0)
            }
        };
        let resp = MsgKind::KvResp {
            kind: resp_kind,
            stream,
            thread,
            posted,
            xid,
        };
        let (fabric, done) = (self.model.server(), resp_ready.max(ready));
        reply(fabric, &mut self.out, a.from, done, resp_bytes, resp);
    }

    /// A get, served under the current index placement.
    fn serve_kv_get(
        &mut self,
        from: ShardId,
        key: u64,
        xid: u64,
        win: Reservation,
        ready: Nanos,
    ) -> (Nanos, KvRespKind, u64) {
        let kv = self
            .kv_server
            .as_mut()
            .expect("KV request at a server without KV serving state");
        let fabric = self.model.server();
        let l = kv
            .index
            .lookup(key)
            .expect("clients only ask a key's home shard");
        kv.gets += 1;
        kv.observe(key, true, l.probes);
        let (addr, len) = (l.entry.value_addr, l.entry.value_len);
        let value = KvRespKind::Value { len };
        match kv.design {
            Design::OneSidedRnic | Design::OneSidedSnic => {
                // Reply with the home bucket; the client drives the
                // rest of the chain with its own READs.
                let home = bucket_addr(kv, key, 0);
                let done = nic_read(kv, &mut fabric.server, win.start, home, BUCKET_BYTES);
                let chain = KvRespKind::Chain {
                    probes: l.probes,
                    value_addr: addr,
                    value_len: len,
                };
                (done, chain, BUCKET_BYTES)
            }
            Design::SocIndex => {
                // SoC cores walk the index; the lookup serializes on
                // the home bucket's (weak) SoC DRAM bank, then path 3
                // pulls the value out of host memory.
                let pu = fabric.server.reserve_pu(win.start, Endpoint::Soc);
                let bank = kv.index.home_bucket(key) % SOC_BANKS;
                let arrival = pipeline_out(&pu).max(ready).max(kv.bank_free[bank]);
                let svc = kv.soc_svc + KV_SOC_PROBE * u64::from(l.probes);
                let res = kv.soc_pool.reserve(arrival, svc);
                kv.bank_free[bank] = res.start + SOC_BANK_HOLD;
                let key = [self.out.id as u64, from as u64, xid];
                let o = path3_retry(
                    fabric,
                    self.retry,
                    &mut self.counters,
                    res.finish,
                    &key,
                    (0, 2),
                    |f, t| {
                        let (h, s) = (Endpoint::Host, Endpoint::Soc);
                        f.server
                            .intra_dma(t, s, h, s, addr, addr, len as u64)
                            .data_ready
                    },
                );
                // Every failed attempt counts as a path-3 retry; on
                // exhaustion the last leg is served anyway (the client
                // has no KV timeout).
                let fails = u64::from(o.retries) + u64::from(o.exhausted);
                kv.path3_retries += fails;
                kv.win_path3_retries += fails;
                (o.result, value, len as u64)
            }
            Design::HostRpc => {
                let pu = fabric.server.reserve_pu(win.start, Endpoint::Host);
                let svc = kv.host_svc + KV_HOST_PROBE * u64::from(l.probes);
                let res = kv.host_pool.reserve(pipeline_out(&pu).max(ready), svc);
                let leg = fabric.server.dma(
                    res.finish,
                    Endpoint::Host,
                    MemOp::Read,
                    addr,
                    len as u64,
                    true,
                );
                (leg.data_ready, value, len as u64)
            }
            Design::DpaHandler => {
                // The NIC parser kicks a DPA core: the get terminates
                // on the NIC-resident plane without crossing PCIe1,
                // paying the SoC-DRAM spill penalty while the shard's
                // state overflows scratch.
                let pu = fabric.server.reserve_pu(win.start, Endpoint::Host);
                let touched = BUCKET_BYTES * u64::from(l.probes) + len as u64;
                let at = pipeline_out(&pu).max(ready);
                let serve = fabric.server.dpa_serve(at, kv.resident_bytes(), touched);
                kv.dpa_gets += 1;
                (serve.done, value, len as u64)
            }
        }
    }

    /// Pool side of a remote promotion: path ② ends at the SoC, so
    /// nothing here crosses PCIe1 — the cost is the wire, the NIC
    /// pipeline, a doorbell-batched SoC core, and the SoC DRAM banks
    /// moving the page.
    fn serve_fm_get(&mut self, a: Arrival, kind: MsgKind) {
        let MsgKind::FmGet {
            page,
            write,
            stream,
            thread,
            posted,
            xid,
        } = kind
        else {
            unreachable!()
        };
        let fm = self
            .fm_server
            .as_mut()
            .expect("far-memory request at a server without a pool");
        let fabric = self.model.server();
        let (win, ready) = rx(fabric, a);
        let pu = fabric.server.reserve_pu(win.start, Endpoint::Soc);
        let res = fm.pool.reserve(pipeline_out(&pu).max(ready), fm.svc);
        let g = fm.cache.serve_get(res.finish, page);
        let done = fm.cache.read_page(g.ready, g.slot_addr);
        let resp = MsgKind::FmResp {
            kind: FmRespKind::Page { page, write },
            stream,
            thread,
            posted,
            xid,
        };
        let bytes = FM_REQ_BYTES + fm.page_bytes;
        reply(fabric, &mut self.out, a.from, done.max(ready), bytes, resp);
    }

    /// A demoted dirty page lands in the pool's hot cache (inclusive
    /// install; eviction write-back to the backing region happens
    /// inside the cache, on the same SoC DRAM banks).
    fn serve_fm_put(&mut self, a: Arrival, kind: MsgKind) {
        let MsgKind::FmPut {
            page,
            stamp,
            stream,
            thread,
            posted,
            xid,
        } = kind
        else {
            unreachable!()
        };
        let fm = self
            .fm_server
            .as_mut()
            .expect("far-memory demotion at a server without a pool");
        let fabric = self.model.server();
        let (win, ready) = rx(fabric, a);
        let pu = fabric.server.reserve_pu(win.start, Endpoint::Soc);
        let res = fm.pool.reserve(pipeline_out(&pu).max(ready), fm.svc);
        let done = fm.cache.serve_put(res.finish, page, stamp);
        let ack = MsgKind::FmResp {
            kind: FmRespKind::PutAck,
            stream,
            thread,
            posted,
            xid,
        };
        reply(
            fabric,
            &mut self.out,
            a.from,
            done.max(ready),
            FM_REQ_BYTES,
            ack,
        );
    }

    /// Completes a remote op at its client: the response drains through
    /// the NIC, the latency runs from the op's `posted` instant (the
    /// intended arrival in open loop, so it is CO-free), and a closed
    /// loop refills the window slot. Open-loop ops are not reposted:
    /// the arrival chain, not completions, drives the load.
    fn retire(
        &mut self,
        eng: &mut Engine<Ev>,
        a: Arrival,
        stream: u16,
        thread: u16,
        posted: Nanos,
    ) -> Nanos {
        let completed = self.model.client().complete(a.now, a.bytes).max(a.drained);
        let st = self.streams[stream as usize]
            .as_ref()
            .expect("response for a stream not installed on this shard");
        let open = st.open.is_some();
        self.aggs[stream as usize].complete(completed, posted, st.payload, self.window, open);
        if !open {
            eng.schedule(completed.max(a.now), Ev::Post { stream, thread })
                .expect("completion is in the future");
        }
        completed
    }

    fn on_response(&mut self, eng: &mut Engine<Ev>, a: Arrival, kind: MsgKind) {
        let MsgKind::Response {
            stream,
            thread,
            posted,
            xid,
        } = kind
        else {
            unreachable!()
        };
        let st = self.streams[stream as usize]
            .as_ref()
            .expect("response for a stream not installed on this shard");
        // With recovery armed, only the first response for a closed-loop
        // xid completes the operation; duplicates (a late original
        // racing its retransmission) are dropped without touching the
        // window.
        if st.open.is_none() && self.retry.is_some() && self.outstanding.remove(&xid).is_none() {
            self.counters.dup_responses += 1;
            return;
        }
        self.retire(eng, a, stream, thread, posted);
    }

    fn on_kv_resp(&mut self, eng: &mut Engine<Ev>, a: Arrival, kind: MsgKind) {
        let MsgKind::KvResp {
            kind,
            stream,
            thread,
            posted,
            xid,
        } = kind
        else {
            unreachable!()
        };
        let p = match kind {
            KvRespKind::Value { .. } | KvRespKind::PutAck => {
                // Final trip of the op: complete and account against
                // the original post.
                self.kv_pending.remove(&xid);
                self.retire(eng, a, stream, thread, posted);
                return;
            }
            // The server answered one-sidedly: the op continues as
            // client-driven READs — the remaining probe hops, then the
            // value.
            KvRespKind::Chain {
                probes,
                value_addr,
                value_len,
            } => {
                let p = self
                    .kv_pending
                    .get_mut(&xid)
                    .expect("chain reply for an unknown get");
                *p = KvPending {
                    probes,
                    next_hop: 0,
                    value_addr,
                    value_len,
                    ..*p
                };
                p
            }
            KvRespKind::Bucket => self
                .kv_pending
                .get_mut(&xid)
                .expect("bucket reply for an unknown chain"),
        };
        p.next_hop += 1;
        let op = if p.next_hop < p.probes {
            KvOp::Probe { hop: p.next_hop }
        } else {
            KvOp::ValueRead {
                addr: p.value_addr,
                len: p.value_len,
            }
        };
        let machine = self.model.client();
        let done = machine.complete(a.now, a.bytes).max(a.drained);
        let depart = issue(machine, done, KV_REQ_BYTES);
        let next = MsgKind::KvReq {
            op,
            key: p.key,
            stream,
            thread,
            posted,
            xid,
        };
        self.out.send(p.server, depart, KV_REQ_BYTES, next);
    }

    fn on_fm_resp(&mut self, eng: &mut Engine<Ev>, a: Arrival, kind: MsgKind) {
        let MsgKind::FmResp {
            kind,
            stream,
            thread,
            posted,
            ..
        } = kind
        else {
            unreachable!()
        };
        let completed = match kind {
            // Promotion completes: account the access latency from its
            // intended arrival, then install the page below.
            FmRespKind::Page { .. } => self.retire(eng, a, stream, thread, posted),
            // Write-back acknowledged: drain the header through the
            // NIC, no latency sample (demotions are background
            // traffic, not ops).
            FmRespKind::PutAck => self.model.client().complete(a.now, a.bytes),
        };
        let fmc = self.streams[stream as usize]
            .as_mut()
            .and_then(|st| st.fm.as_mut())
            .expect("far-memory response without a host slice");
        let FmRespKind::Page { page, write } = kind else {
            fmc.put_acked += 1;
            return;
        };
        // Install the page and write back any capacity victim it evicts.
        fmc.promotes += 1;
        fmc.demote_buf.clear();
        fmc.table
            .promote(completed, fm_local_page(page), write, &mut fmc.demote_buf);
        let machine = self.model.client();
        write_back(
            machine,
            fmc,
            &mut self.out,
            &mut self.next_xid,
            stream,
            thread,
            a.now,
        );
    }

    /// Admission NACK: the header still drains through the client NIC's
    /// completion path, then the op is accounted as dropped (it leaves
    /// `outstanding` only now, so in-flight NACKs keep the conservation
    /// invariant exact at any horizon).
    fn on_drop(&mut self, a: Arrival, stream: u16) {
        self.model.client().complete(a.now, a.bytes);
        self.aggs[stream as usize].reject();
    }

    fn on_timeout(&mut self, eng: &mut Engine<Ev>, now: Nanos, xid: u64, attempt: u32) {
        let (timeout, retry_cnt) = self
            .retry
            .expect("timeout events only exist with recovery armed");
        // Stale guard: the operation completed, or a later attempt
        // re-armed its own timeout.
        let o = match self.outstanding.get_mut(&xid) {
            Some(o) if o.attempt == attempt => o,
            _ => return,
        };
        let (stream, thread) = (o.stream, o.thread);
        if attempt >= retry_cnt {
            self.outstanding.remove(&xid);
            self.counters.retry_exhausted += 1;
            // Abandon the operation; repost to keep the closed loop at
            // its window.
            eng.schedule(now, Ev::Post { stream, thread })
                .expect("repost is not in the past");
            return;
        }
        let Model::Client {
            machine,
            server_shard,
        } = &mut self.model
        else {
            unreachable!("timeouts only arm on client shards")
        };
        let st = self.streams[stream as usize]
            .as_ref()
            .expect("timeout for a stream not installed on this shard");
        self.counters.retransmits += 1;
        o.attempt += 1;
        let (bytes, kind) = st.request(o.addr, stream, thread, o.posted, xid);
        let depart = issue(machine, now, bytes);
        self.out.send(*server_shard, depart, bytes, kind);
        let next = Ev::Timeout {
            xid,
            attempt: attempt + 1,
        };
        eng.schedule(depart + timeout, next)
            .expect("timeout is in the future");
    }

    /// Online advisor: close the observation window, re-decide the
    /// placement, arm the next epoch. This reads and writes only
    /// shard-local state at a fixed simulated instant, so re-decisions
    /// never depend on other shards.
    fn on_kv_epoch(&mut self, eng: &mut Engine<Ev>, now: Nanos) {
        let kv = self
            .kv_server
            .as_mut()
            .expect("KV epochs only fire on KV server shards");
        let pcie_faulty = self.model.server().faults().is_some_and(|p| {
            let (slowdown, extra) = p.pcie_degradation(now);
            p.has_stochastic_faults() || slowdown > 1.0 || extra > Nanos::ZERO
        });
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

/// Hands `bytes` to the client NIC at `t` (after the MMIO doorbell
/// crossing) and returns when they depart onto the wire.
fn issue(machine: &mut ClientMachine, t: Nanos, bytes: u64) -> Nanos {
    machine.issue_with_wire(t + machine.mmio_transit(), bytes, bytes)
}

/// Takes an inbound message off a server's wire: applies the fault
/// windows at its arrival, then drains it through the RX port. Returns
/// the port reservation and the instant the whole message is in.
fn rx(fabric: &mut Fabric, a: Arrival) -> (Reservation, Nanos) {
    fabric.apply_fault_windows(a.now);
    let win =
        fabric
            .server
            .wire
            .reserve(Dir::Fwd, a.now, wire_bytes(a.bytes), wire_frames(a.bytes));
    let ready = win.finish.max(a.drained);
    (win, ready)
}

/// Sends a server's answer to `dst` once it is ready, departing when the
/// TX port takes it.
fn reply(
    fabric: &mut Fabric,
    out: &mut Outbox,
    dst: ShardId,
    ready: Nanos,
    bytes: u64,
    kind: MsgKind,
) {
    let wout = fabric
        .server
        .wire
        .reserve(Dir::Rev, ready, wire_bytes(bytes), wire_frames(bytes));
    out.send(dst, wout.start, bytes, kind);
}

/// Address of the bucket `hop` steps past `key`'s home bucket.
fn bucket_addr(kv: &KvServer, key: u64, hop: u32) -> u64 {
    let bucket = (kv.index.home_bucket(key) + hop as usize) % kv.index.n_buckets();
    KV_INDEX_BASE + bucket as u64 * BUCKET_BYTES
}

/// A one-sided READ of host memory: NIC pipeline plus DMA, no CPU
/// anywhere. Counts as one probe trip.
fn nic_read(
    kv: &mut KvServer,
    server: &mut ServerMachine,
    at: Nanos,
    addr: u64,
    len: u64,
) -> Nanos {
    kv.probe_trips += 1;
    let pu = server.reserve_pu(at, Endpoint::Host);
    server
        .dma(
            pipeline_out(&pu),
            Endpoint::Host,
            MemOp::Read,
            addr,
            len,
            true,
        )
        .data_ready
}

/// One path-③ transfer starting at `start`. Without stochastic faults it
/// is a single `attempt`. With them every attempt rolls one verdict per
/// `(wire, pcie1)` crossing, keyed by `key` plus the attempt number, and
/// a failure burns a full timeout before the next try — the
/// double-exposure mechanism, since path ③ crosses PCIe1 twice.
/// Retransmissions and exhaustion are counted here; what an exhausted
/// transfer means is up to the caller.
fn path3_retry<T>(
    fabric: &mut Fabric,
    retry: Option<(Nanos, u32)>,
    counters: &mut ShardCounters,
    start: Nanos,
    key: &[u64],
    (wire, pcie1): (u64, u64),
    mut attempt: impl FnMut(&mut Fabric, Nanos) -> T,
) -> RetryOutcome<T> {
    if !fabric.faults().is_some_and(|p| p.has_stochastic_faults()) {
        let result = attempt(fabric, start);
        return RetryOutcome {
            result,
            retries: 0,
            exhausted: false,
            last_start: start,
        };
    }
    let (timeout, budget) = retry.expect("server retry armed with stochastic faults");
    let o = drive_attempts(start, timeout, budget, |t, n| {
        let result = attempt(fabric, t);
        let mut parts = [0; 5];
        parts[..key.len()].copy_from_slice(key);
        parts[key.len()] = u64::from(n);
        let verdict_key = fault_key(&parts[..=key.len()]);
        let failed = fabric
            .faults()
            .is_some_and(|p| p.attempt_fails(verdict_key, wire, pcie1));
        (result, failed)
    });
    counters.retransmits += u64::from(o.retries);
    counters.retry_exhausted += u64::from(o.exhausted);
    o
}

/// Posts a fire-and-forget write-back of every dirty page in the
/// host's demotion buffer: each page rides an [`MsgKind::FmPut`] to its
/// home pool server. Never counted against the stream's open-loop
/// conservation — demotions are background traffic the access stream
/// does not wait on.
fn write_back(
    machine: &mut ClientMachine,
    fmc: &mut FmHost,
    out: &mut Outbox,
    next_xid: &mut u64,
    stream: u16,
    thread: u16,
    now: Nanos,
) {
    let bytes = FM_REQ_BYTES + fmc.spec.page_bytes;
    for d in fmc.demote_buf.iter().filter(|d| d.dirty) {
        let page = fm_global_page(out.id, d.page);
        let dst = fmc.n_clients + kv_home_server(page, fmc.n_servers);
        let depart = issue(machine, now, bytes);
        let kind = MsgKind::FmPut {
            page,
            stamp: fmc.next_stamp,
            stream,
            thread,
            posted: now,
            xid: *next_xid,
        };
        fmc.next_stamp += 1;
        *next_xid += 1;
        out.send(dst, depart, bytes, kind);
    }
}
