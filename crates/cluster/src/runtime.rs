//! Conservative-lookahead epoch loop.
//!
//! Time is diced into epochs of length `L = SwitchFabric::lookahead()`
//! (the wire's one-way latency). Within epoch `k` — the half-open
//! interval `[kL, (k+1)L)` — shards cannot interact: any message emitted
//! by an event at time `t` departs at `depart >= t` and arrives no
//! earlier than `depart + L >= (k+1)L`, i.e. in a later epoch. So each
//! shard runs the epoch on its own, then the driver arbitrates every
//! message departing inside the epoch at the switch in global
//! `(depart, src, seq)` order and schedules the arrivals.
//!
//! The loop is sequential. A threaded executor ran the shards of an
//! epoch on a worker pool behind two barrier waits, but an epoch holds
//! only ~22 events, far too little to pay for the barriers: on a 2-CPU
//! host it ran the 23-machine rack 2–3× slower than one thread
//! (DESIGN.md §9).
//!
//! Empty epochs are skipped: the driver jumps straight to the next
//! pending instant (minimum over shard engines and undelivered
//! messages), so wall-clock cost scales with events, not with horizon /
//! lookahead. A per-shard cache of the next event time keeps that
//! minimum, and the choice of which shards to run, free of engine
//! peeks; an idle shard's `run_until` would be a no-op, so skipping it
//! is invisible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use simnet::time::Nanos;

use crate::msg::NetMsg;
use crate::shard::Shard;
use crate::switch::SwitchFabric;

/// Cache value for a shard with no pending events. A real event at
/// `u64::MAX` ns would alias, but horizons are bounded far below that.
const IDLE: u64 = u64::MAX;

/// A message in the pending heap. The order is `NetMsg::key()`
/// *reversed*, turning std's max-heap into a min-heap on the merge key.
/// Keys are unique (`seq` counts per source), so the order is total.
struct Queued(NetMsg);

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

/// Undelivered messages, kept across epochs and popped in global
/// `(depart, src, seq)` order.
#[derive(Default)]
struct Pending(BinaryHeap<Queued>);

impl Pending {
    fn push(&mut self, m: NetMsg) {
        self.0.push(Queued(m));
    }

    /// The earliest departure still waiting for the switch.
    fn next_depart(&self) -> Option<u64> {
        self.0.peek().map(|q| q.0.depart.as_nanos())
    }

    /// Pops the next message in key order if it departs strictly before
    /// `end`. Later departures stay pending: their switch-port
    /// reservations must wait until all earlier traffic is known.
    fn pop_before(&mut self, end: u64) -> Option<NetMsg> {
        if self.next_depart()? >= end {
            return None;
        }
        self.0.pop().map(|q| q.0)
    }
}

fn next_event(shard: &Shard) -> u64 {
    shard.peek_time().map_or(IDLE, |t| t.as_nanos())
}

/// Runs the cluster until no shard has an event at or before `horizon`.
/// Returns the number of non-empty epochs executed.
pub(crate) fn drive(shards: &mut [Shard], switch: &mut SwitchFabric, horizon: Nanos) -> u64 {
    let lookahead = switch.lookahead().as_nanos().max(1);
    let mut next: Vec<u64> = shards.iter().map(next_event).collect();
    let mut pending = Pending::default();
    let mut epochs = 0u64;

    loop {
        // Departures must take part in the minimum, otherwise the driver
        // could skip past the epoch in which a message was due to arrive.
        let t = next
            .iter()
            .copied()
            .min()
            .unwrap_or(IDLE)
            .min(pending.next_depart().unwrap_or(IDLE));
        if t == IDLE || t > horizon.as_nanos() {
            break;
        }
        let end = (t / lookahead + 1) * lookahead;
        for (shard, next) in shards.iter_mut().zip(next.iter_mut()) {
            if *next < end {
                shard.run_until(Nanos::new(end - 1));
                *next = next_event(shard);
                for m in shard.drain_outbox() {
                    pending.push(m);
                }
            }
        }
        // Routing is stateful (port arbitration), so it follows the
        // global key order; each destination therefore also sees its
        // arrivals in that order.
        while let Some(m) = pending.pop_before(end) {
            // `None` means the fault plane lost the frame on the wire:
            // the uplink reservation is burned but nothing arrives —
            // recovery is the requester's timeout, never the switch's.
            if let Some(d) = switch.route(&m) {
                shards[m.dst].deliver(d.arrive, &m, d.drained);
                next[m.dst] = next[m.dst].min(d.arrive.as_nanos());
            }
        }
        epochs += 1;
    }
    epochs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgKind;

    fn msg(src: usize, seq: u64, depart: u64) -> NetMsg {
        NetMsg {
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
        }
    }

    #[test]
    fn merge_routes_in_key_order_and_holds_later_departures() {
        // Three shards' outboxes, each in its own emission (seq) order,
        // pushed shard by shard as the driver drains them: the global
        // order interleaves them by departure, then source, then seq.
        let mut pending = Pending::default();
        for m in [msg(2, 0, 450), msg(2, 1, 120), msg(2, 2, 900)] {
            pending.push(m);
        }
        for m in [msg(0, 5, 300), msg(0, 6, 120), msg(0, 7, 449)] {
            pending.push(m);
        }
        for m in [msg(1, 3, 120), msg(1, 4, 0)] {
            pending.push(m);
        }
        let end = 450;
        let mut routed = Vec::new();
        while let Some(m) = pending.pop_before(end) {
            routed.push(m.key());
        }
        assert_eq!(
            routed,
            vec![
                (0, 1, 4),
                (120, 0, 6),
                (120, 1, 3),
                (120, 2, 1),
                (300, 0, 5),
                (449, 0, 7),
            ]
        );
        // Departing at the epoch end belongs to the next epoch.
        assert_eq!(pending.next_depart(), Some(450));
        // Traffic from the next epoch's run joins what was held back and
        // is ordered with it.
        pending.push(msg(1, 5, 450));
        pending.push(msg(0, 8, 500));
        let mut routed = Vec::new();
        while let Some(m) = pending.pop_before(900) {
            routed.push(m.key());
        }
        assert_eq!(routed, vec![(450, 1, 5), (450, 2, 0), (500, 0, 8)]);
        assert_eq!(pending.next_depart(), Some(900));
        assert!(pending.pop_before(900).is_none());
    }
}
