//! Rack-scale cluster runtime: a conservative-lookahead discrete-event
//! simulation of the paper's full testbed (Table 2 — 20 ConnectX-4
//! client machines and 3 SmartNIC-carrying servers on one SB7890
//! switch).
//!
//! Each machine is a *shard* with its own `simnet` engine. Shards only
//! interact through switch messages, and the wire's one-way latency
//! (450 ns) bounds how soon a message can be seen — the classic
//! conservative lookahead. The runtime executes epochs of that length
//! one shard at a time and merges cross-shard traffic at each epoch end
//! in a fixed global order, so results are **byte identical run to
//! run** (see `runtime` and DESIGN.md §9).
//!
//! The entry point is [`run_cluster`] with a [`ClusterScenario`] and a
//! set of [`ClusterStream`]s, mirroring `snic-core`'s single-machine
//! `Scenario`/`StreamSpec` API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fm;
pub mod kv;
pub mod msg;
mod runtime;
pub mod scenario;
mod shard;
pub mod switch;

pub use kv::{advisor_policy, kv_home_server, KvPlacement, KvPolicy, KvStreamSpec, KvWindowObs};
pub use msg::{FmRespKind, KvOp, KvRespKind, MsgKind, NetMsg, ShardId};
pub use scenario::{
    run_cluster, ClusterResult, ClusterScenario, ClusterStream, ClusterStreamResult,
};
pub use switch::{Delivery, SwitchFabric};
