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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use simnet::time::Nanos;

use crate::msg::{NetMsg, ShardId};
use crate::shard::Shard;
use crate::switch::SwitchFabric;

/// Cache value for a shard with no pending events. A real event at
/// `u64::MAX` ns would alias, but horizons are bounded far below that.
const IDLE: u64 = u64::MAX;

/// A pending message's merge key and slab slot: `(depart, src, seq,
/// slot)`. Keys are unique (`seq` counts per source), so the slot never
/// decides the order.
type Key = (u64, ShardId, u64, usize);

/// Undelivered messages, kept across epochs and popped in global
/// `(depart, src, seq)` order.
///
/// The heap orders 32-byte keys; the messages themselves sit still in a
/// slab whose slots are recycled once popped.
#[derive(Default)]
struct Pending {
    /// Min-heap on the merge key.
    heap: BinaryHeap<Reverse<Key>>,
    slab: Vec<NetMsg>,
    /// Slab slots whose message has been popped.
    free: Vec<usize>,
}

impl Pending {
    fn push(&mut self, m: NetMsg) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = m;
                slot
            }
            None => {
                self.slab.push(m);
                self.slab.len() - 1
            }
        };
        let (depart, src, seq) = m.key();
        self.heap.push(Reverse((depart, src, seq, slot)));
    }

    /// The earliest departure still waiting for the switch.
    fn next_depart(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(k)| k.0)
    }

    /// Pops the next message in key order if it departs strictly before
    /// `end`. Later departures stay pending: their switch-port
    /// reservations must wait until all earlier traffic is known.
    fn pop_before(&mut self, end: u64) -> Option<NetMsg> {
        if self.next_depart()? >= end {
            return None;
        }
        let Reverse((.., slot)) = self.heap.pop()?;
        self.free.push(slot);
        Some(self.slab[slot])
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
    use simnet::prop::{check, Gen};
    use simnet::{prop_assert, prop_assert_eq};

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

    /// Pushes and pops over many epochs, as `drive` does, so popped
    /// slots are refilled while older messages still wait. Every pop
    /// must match a reference sorted by `NetMsg::key()` in key and in
    /// payload, and the slab must never outgrow the peak backlog.
    #[test]
    fn slab_recycles_slots_and_keeps_messages_intact() {
        check(
            "runtime_pending_slab_matches_sorted_reference",
            |g: &mut Gen| {
                let shards = g.usize(1..6);
                let mut seq = vec![0u64; shards];
                let mut pending = Pending::default();
                let mut reference: Vec<NetMsg> = Vec::new();
                let (mut popped, mut peak) = (0, 0);
                for epoch in 0..g.u64(1..60) {
                    let start = epoch * 450;
                    for _ in 0..g.usize(0..12) {
                        let src = g.usize(0..shards);
                        let mut m = msg(src, seq[src], start + g.u64(0..1_500));
                        seq[src] += 1;
                        m.dst = g.usize(0..shards);
                        m.bytes = g.u64(0..9_000);
                        m.kind = MsgKind::Drop {
                            stream: g.u32(0..8) as u16,
                            thread: g.u32(0..64) as u16,
                            posted: Nanos::new(g.u64(0..start + 1)),
                            xid: g.any_u64(),
                        };
                        pending.push(m);
                        reference.push(m);
                    }
                    peak = peak.max(reference.len());
                    reference.sort_by_key(|m| Reverse(m.key()));
                    let end = start + 450;
                    while let Some(got) = pending.pop_before(end) {
                        let want = reference.pop().expect("reference ran dry first");
                        prop_assert_eq!(got.key(), want.key());
                        prop_assert!(got.key().0 < end);
                        prop_assert_eq!(
                            (got.dst, got.bytes, got.kind),
                            (want.dst, want.bytes, want.kind)
                        );
                        popped += 1;
                    }
                    prop_assert!(reference.iter().all(|m| m.key().0 >= end));
                    prop_assert_eq!(pending.next_depart(), reference.last().map(|m| m.key().0));
                }
                prop_assert!(
                    pending.slab.len() <= peak,
                    "{} slots for a backlog of {peak}",
                    pending.slab.len()
                );
                prop_assert_eq!(pending.free.len() + reference.len(), pending.slab.len());
                prop_assert_eq!(popped + reference.len(), seq.iter().sum::<u64>() as usize);
                Ok(())
            },
        );
    }
}
