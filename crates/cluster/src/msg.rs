//! Cross-shard message types.
//!
//! Every interaction between machines is a [`NetMsg`] travelling through
//! the switch. Messages are the *only* channel between shards, and the
//! wire's one-way latency is the runtime's conservative lookahead: a
//! message emitted during epoch `k` can never be delivered before epoch
//! `k + 1`, so shards simulated one after another within one epoch
//! cannot influence each other.

use nicsim::{Endpoint, Verb};
use simnet::time::Nanos;

/// Index of a shard (one shard per machine: clients first, then servers).
pub type ShardId = usize;

/// What a message carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// A verb issued by a requester thread towards a responder machine.
    Request {
        /// The verb.
        verb: Verb,
        /// Application payload bytes.
        payload: u64,
        /// Target address in the responder's memory.
        addr: u64,
        /// Responder endpoint (host memory for path 1, SoC for path 2).
        endpoint: Endpoint,
        /// Global stream index (for stats + closed-loop matching).
        stream: u16,
        /// Thread index within the issuing shard's stream.
        thread: u16,
        /// When the requester thread posted (echoed back for latency).
        posted: Nanos,
        /// Requester-side transaction id: identical across
        /// retransmissions of the same operation, echoed back so the
        /// requester can match responses to its outstanding table.
        xid: u64,
        /// `Some(resident)` routes this SEND to the responder's DPA
        /// plane, whose handler holds `resident` bytes of working
        /// state: no PCIe1 crossing, spill penalty past the DPA
        /// scratch. `None` serves the verb through memory as usual.
        dpa_resident: Option<u64>,
    },
    /// The responder's admission queue rejected an open-loop request: a
    /// header-only NACK so the requester can account the drop and
    /// release the operation (closed-loop streams never receive one).
    Drop {
        /// Global stream index.
        stream: u16,
        /// Thread index within the destination shard's stream.
        thread: u16,
        /// Original intended-arrival instant, echoed back.
        posted: Nanos,
        /// Transaction id echoed from the request.
        xid: u64,
    },
    /// The responder's answer (READ data or a header-only ack).
    Response {
        /// Global stream index.
        stream: u16,
        /// Thread index within the destination shard's stream.
        thread: u16,
        /// Original post instant, echoed back.
        posted: Nanos,
        /// Transaction id echoed from the request.
        xid: u64,
    },
    /// A KV-service operation from a client towards a key's home server.
    KvReq {
        /// The operation.
        op: KvOp,
        /// Key being operated on (servers route it to their index).
        key: u64,
        /// Global stream index of the KV stream.
        stream: u16,
        /// Thread index within the issuing shard's stream.
        thread: u16,
        /// When the *operation* was posted — echoed across every trip of
        /// a multi-trip one-sided chain so latency covers the whole op.
        posted: Nanos,
        /// Client-side transaction id (stable across chain trips).
        xid: u64,
    },
    /// A KV-service reply from a server.
    KvResp {
        /// What came back.
        kind: KvRespKind,
        /// Global stream index of the KV stream.
        stream: u16,
        /// Thread index within the destination shard's stream.
        thread: u16,
        /// Original op post instant, echoed back.
        posted: Nanos,
        /// Transaction id echoed from the request.
        xid: u64,
    },
    /// A far-memory page fetch: a host missed on `page` and asks the
    /// pool server holding it to stream the page back (path ②).
    FmGet {
        /// Global page id (owner shard in the high bits).
        page: u64,
        /// Whether the triggering access was a store — echoed back so
        /// the host installs the promoted page already dirty.
        write: bool,
        /// Global stream index of the far-memory stream.
        stream: u16,
        /// Thread index within the issuing shard's stream.
        thread: u16,
        /// Intended arrival (open) / post instant (closed) of the
        /// access, echoed back so latency spans the whole promotion.
        posted: Nanos,
        /// Client-side transaction id (fault-verdict salt).
        xid: u64,
    },
    /// A far-memory demotion: the page payload travels to the pool
    /// server's SoC cache (write-back of a dirty resident page).
    FmPut {
        /// Global page id.
        page: u64,
        /// Version stamp the pool must observe on later gets.
        stamp: u64,
        /// Global stream index of the far-memory stream.
        stream: u16,
        /// Thread index within the issuing shard's stream.
        thread: u16,
        /// Demotion instant (no latency is recorded against it).
        posted: Nanos,
        /// Client-side transaction id.
        xid: u64,
    },
    /// A far-memory reply from a pool server.
    FmResp {
        /// What came back.
        kind: FmRespKind,
        /// Global stream index of the far-memory stream.
        stream: u16,
        /// Thread index within the destination shard's stream.
        thread: u16,
        /// Original access post instant, echoed back.
        posted: Nanos,
        /// Transaction id echoed from the request.
        xid: u64,
    },
}

/// A KV request's operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Look the key up and return its value (server CPU path; the
    /// server's current placement decides which CPU).
    Get,
    /// Install/overwrite the value (always host-served: the index and
    /// value region live in host memory and puts mutate both).
    Put,
    /// One-sided probe READ of the `hop`-th bucket on the key's chain
    /// (hop 0 is answered by `Get` under the one-sided placement).
    Probe {
        /// 0-based probe-chain hop to read.
        hop: u32,
    },
    /// One-sided READ of the value region.
    ValueRead {
        /// Value address learned from the chain reply.
        addr: u64,
        /// Bytes to read.
        len: u32,
    },
}

/// A KV response's payload description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvRespKind {
    /// The value, served by a server CPU (op complete).
    Value {
        /// Value bytes on the wire.
        len: u32,
    },
    /// Header-only put acknowledgement (op complete).
    PutAck,
    /// First one-sided reply: the home bucket plus what the chain
    /// holds, so the client can drive the remaining READs itself.
    Chain {
        /// Total probes the lookup needs (1 = home bucket sufficed).
        probes: u32,
        /// Address of the value in the server's value region.
        value_addr: u64,
        /// Value length.
        value_len: u32,
    },
    /// A follow-up probe READ's bucket data.
    Bucket,
}

/// A far-memory response's payload description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FmRespKind {
    /// The page payload answering a get (promotion completes; the
    /// requester installs it into its residency table).
    Page {
        /// Global page id, echoed so no client-side pending map is
        /// needed to match the promotion.
        page: u64,
        /// Write intent of the triggering access, echoed back.
        write: bool,
    },
    /// Header-only demotion acknowledgement.
    PutAck,
}

/// One message in flight between two shards.
#[derive(Debug, Clone, Copy)]
pub struct NetMsg {
    /// Emitting shard.
    pub src: ShardId,
    /// Destination shard.
    pub dst: ShardId,
    /// Per-source emission sequence number (merge tie-breaker).
    pub seq: u64,
    /// When the message starts onto the source NIC's wire.
    pub depart: Nanos,
    /// Wire payload bytes (protocol headers added by the port model).
    pub bytes: u64,
    /// Payload.
    pub kind: MsgKind,
}

impl NetMsg {
    /// The deterministic global merge key: messages are arbitrated at
    /// the switch in `(depart, src shard, seq)` order regardless of the
    /// order in which shards emitted them.
    pub fn key(&self) -> (u64, ShardId, u64) {
        (self.depart.as_nanos(), self.src, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_key_orders_by_time_then_shard_then_seq() {
        let m = |depart: u64, src: usize, seq: u64| NetMsg {
            src,
            dst: 0,
            seq,
            depart: Nanos::new(depart),
            bytes: 0,
            kind: MsgKind::Response {
                stream: 0,
                thread: 0,
                posted: Nanos::ZERO,
                xid: 0,
            },
        };
        let mut v = [m(5, 1, 0), m(5, 0, 2), m(4, 9, 9), m(5, 0, 1)];
        v.sort_by_key(NetMsg::key);
        let keys: Vec<_> = v.iter().map(NetMsg::key).collect();
        assert_eq!(keys, vec![(4, 9, 9), (5, 0, 1), (5, 0, 2), (5, 1, 0)]);
    }
}
