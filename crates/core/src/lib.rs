//! `snic-core` — the off-path SmartNIC characterization harness.
//!
//! This crate is the reproduction of the paper's primary contribution:
//! the systematic characterization of the communication paths of an
//! off-path SmartNIC, and the offloading guidelines it yields.
//!
//! * [`harness`] — closed-loop measurement methodology (§2.4): scenarios,
//!   streams, warmup, latency/throughput/counter collection;
//! * [`experiments`] — one module per paper figure/table, regenerating
//!   its series on the simulator;
//! * [`model`] — the analytic models (Table 3 packet counts, bandwidth
//!   bottlenecks and the P-N budget, hop-sum latency), cross-validated
//!   against the simulator;
//! * [`advisor`] — Advice #1-#4 as a queryable API for system designers;
//! * [`report`] — table/CSV rendering for `run_all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod experiments;
pub mod harness;
pub mod model;
pub mod report;

pub use advisor::{Finding, OffloadAdvisor, OnlineAdvisor, Severity, WorkloadDesc};
pub use harness::{
    measure_breakdown, measure_latency, measure_throughput, run_open_loop, run_scenario,
    MeasuredBreakdown, OpenLoopResult, OpenStreamResult, OpenStreamSpec, Scenario, ScenarioResult,
    ServerKind, StreamResult, StreamSpec,
};
pub use model::{BottleneckModel, LatencyModel, PacketModel};
pub use report::Table;
// The shared reliable-transport retry engine (one cost model for the
// per-crossing wire/PCIe1 fault exposure of paths ①/②/③). It lives in
// `simnet::faults` because both this crate's harness and the cluster
// runtime drive it; re-exported here as the study-facing name.
pub use simnet::faults::{drive_attempts, RetryOutcome};
