//! A minimal, deterministic discrete-event engine.
//!
//! The engine is generic over the event payload type `E`. Events scheduled
//! for the same instant are delivered in FIFO order of scheduling (a
//! monotonically increasing sequence number breaks ties), which makes every
//! simulation run reproducible regardless of scheduler internals.
//!
//! # Scheduler data structure
//!
//! [`Engine`] keeps pending events in one `BinaryHeap` ordered by
//! `(at, seq)`. A rack simulation runs one engine per machine and visits
//! each for about three events per epoch, so whichever engine runs next
//! is cold in cache: a heap touches a few lines of one array per
//! operation, where a timing wheel scans per-level bitmaps and cascades
//! slot vectors. DESIGN.md §4.2 has the measurements behind the choice.

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// Error returned when an event cannot be scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// The requested delivery time is before the engine clock; delivering
    /// it would violate causality.
    Past {
        /// The engine clock at the time of the attempt.
        now: Nanos,
        /// The (earlier) requested delivery time.
        at: Nanos,
    },
    /// `now + delay` does not fit in the simulated-time domain
    /// ([`Nanos::MAX`]); there is no representable delivery instant.
    Overflow {
        /// The engine clock at the time of the attempt.
        now: Nanos,
        /// The requested relative delay.
        delay: Nanos,
    },
}

impl core::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScheduleError::Past { now, at } => {
                write!(f, "event scheduled at {at} which is before now ({now})")
            }
            ScheduleError::Overflow { now, delay } => write!(
                f,
                "event delay {delay} from now ({now}) overflows simulated time"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

struct Scheduled<E> {
    at: Nanos,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    // Reverse ordering: BinaryHeap is a max-heap, we want earliest-first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event scheduler: a binary min-heap ordered by
/// `(at, seq)`.
///
/// # Examples
///
/// ```
/// use simnet::engine::Engine;
/// use simnet::time::Nanos;
///
/// let mut eng: Engine<&'static str> = Engine::new();
/// eng.schedule_in(Nanos::new(10), "b").unwrap();
/// eng.schedule_in(Nanos::new(5), "a").unwrap();
/// assert_eq!(eng.pop(), Some((Nanos::new(5), "a")));
/// assert_eq!(eng.pop(), Some((Nanos::new(10), "b")));
/// assert_eq!(eng.pop(), None);
/// ```
pub struct Engine<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: Nanos,
    seq: u64,
    delivered: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine with the clock at zero.
    pub fn new() -> Self {
        Engine {
            heap: BinaryHeap::new(),
            now: Nanos::ZERO,
            seq: 0,
            delivered: 0,
        }
    }

    /// The current simulated time (the delivery time of the last popped
    /// event, or zero before any event fires).
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of events delivered so far.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `event` for delivery at absolute time `at`.
    ///
    /// Scheduling *at* the current instant is allowed (the event runs after
    /// already-queued events for that instant); scheduling before it is an
    /// error, since causality would be violated.
    pub fn schedule(&mut self, at: Nanos, event: E) -> Result<(), ScheduleError> {
        if at < self.now {
            return Err(ScheduleError::Past { now: self.now, at });
        }
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
        Ok(())
    }

    /// Schedules `event` for delivery `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Nanos, event: E) -> Result<(), ScheduleError> {
        let at = self.now.checked_add(delay).ok_or(ScheduleError::Overflow {
            now: self.now,
            delay,
        })?;
        self.schedule(at, event)
    }

    /// Removes and returns the next event, advancing the clock to its
    /// delivery time. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.at >= self.now, "heap produced an out-of-order event");
        self.now = s.at;
        self.delivered += 1;
        Some((s.at, s.event))
    }

    /// The delivery time of the next event, if any, without popping it.
    ///
    /// Read-only: a caller that peeks past a deadline and walks away may
    /// still schedule events before the peeked time.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|s| s.at)
    }

    /// Drains all events, calling `handler` on each, until the queue is
    /// empty or `handler` returns [`Step::Halt`].
    ///
    /// The handler receives the engine itself so it can schedule follow-up
    /// events; this is the main driving loop of every simulation in this
    /// workspace.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Engine<E>, Nanos, E) -> Step,
    {
        while let Some((t, ev)) = self.pop() {
            if handler(self, t, ev) == Step::Halt {
                break;
            }
        }
    }

    /// Like [`Engine::run`] but stops (without delivering) once the next
    /// event would fire after `deadline`.
    pub fn run_until<F>(&mut self, deadline: Nanos, mut handler: F)
    where
        F: FnMut(&mut Engine<E>, Nanos, E) -> Step,
    {
        while let Some(t) = self.peek_time() {
            if t > deadline {
                break;
            }
            let (t, ev) = self.pop().expect("peeked event vanished");
            if handler(self, t, ev) == Step::Halt {
                break;
            }
        }
    }
}

/// Control-flow result of an event handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Keep delivering events.
    Continue,
    /// Stop the run loop immediately.
    Halt,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_same_instant() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..100 {
            eng.schedule(Nanos::new(7), i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(eng.pop(), Some((Nanos::new(7), i)));
        }
    }

    #[test]
    fn time_order_across_instants() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Nanos::new(30), 3).unwrap();
        eng.schedule(Nanos::new(10), 1).unwrap();
        eng.schedule(Nanos::new(20), 2).unwrap();
        let order: Vec<u32> = std::iter::from_fn(|| eng.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn rejects_past_events() {
        let mut eng: Engine<()> = Engine::new();
        eng.schedule(Nanos::new(10), ()).unwrap();
        eng.pop();
        assert_eq!(eng.now(), Nanos::new(10));
        let err = eng.schedule(Nanos::new(9), ()).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::Past {
                now: Nanos::new(10),
                at: Nanos::new(9)
            }
        );
    }

    #[test]
    fn schedule_in_overflow_is_an_error_not_a_wrap() {
        // Regression: `now + delay` past `Nanos::MAX` used to wrap around
        // and deliver the event in the distant past (or panic in debug).
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Nanos::new(100), 0).unwrap();
        eng.pop();
        let err = eng.schedule_in(Nanos::MAX, 1).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::Overflow {
                now: Nanos::new(100),
                delay: Nanos::MAX
            }
        );
        // The exact boundary still schedules.
        eng.schedule_in(Nanos::new(Nanos::MAX.as_nanos() - 100), 2)
            .unwrap();
        assert_eq!(eng.pop(), Some((Nanos::MAX, 2)));
    }

    #[test]
    fn run_drains_and_reschedules() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Nanos::new(1), 0).unwrap();
        let mut seen = Vec::new();
        eng.run(|eng, t, ev| {
            seen.push(ev);
            if ev < 4 {
                eng.schedule(t + Nanos::new(1), ev + 1).unwrap();
            }
            Step::Continue
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(eng.now(), Nanos::new(5));
        assert_eq!(eng.delivered(), 5);
    }

    #[test]
    fn run_halt_stops_early() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..10 {
            eng.schedule(Nanos::new(i as u64), i).unwrap();
        }
        let mut count = 0;
        eng.run(|_, _, _| {
            count += 1;
            if count == 3 {
                Step::Halt
            } else {
                Step::Continue
            }
        });
        assert_eq!(count, 3);
        assert_eq!(eng.pending(), 7);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 1..=10u64 {
            eng.schedule(Nanos::new(i * 10), i as u32).unwrap();
        }
        let mut seen = Vec::new();
        eng.run_until(Nanos::new(35), |_, _, ev| {
            seen.push(ev);
            Step::Continue
        });
        assert_eq!(seen, vec![1, 2, 3]);
        // The 40 ns event remains queued.
        assert_eq!(eng.peek_time(), Some(Nanos::new(40)));
    }

    #[test]
    fn peek_past_deadline_leaves_engine_schedulable_before_peeked_time() {
        // The cluster runtime peeks across epochs and then delivers switch
        // traffic at times *before* the peeked event; a peek must never
        // advance internal state in a way that rejects those schedules.
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Nanos::new(10_000), 1).unwrap();
        eng.run_until(Nanos::new(500), |_, _, _| Step::Continue);
        assert_eq!(eng.peek_time(), Some(Nanos::new(10_000)));
        // Arrives between the deadline and the pending event.
        eng.schedule(Nanos::new(600), 0).unwrap();
        assert_eq!(eng.pop(), Some((Nanos::new(600), 0)));
        assert_eq!(eng.pop(), Some((Nanos::new(10_000), 1)));
    }

    #[test]
    fn schedule_at_now_is_allowed() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Nanos::new(5), 1).unwrap();
        eng.pop();
        eng.schedule(Nanos::new(5), 2).unwrap();
        assert_eq!(eng.pop(), Some((Nanos::new(5), 2)));
    }

    #[test]
    fn same_instant_fifo_spans_schedule_at_now() {
        // FIFO order among same-instant events must hold even when a
        // handler schedules *at* the current instant: everything already
        // queued for `now` runs first (it was scheduled earlier), then
        // the newly added events, in their own scheduling order. The
        // cluster runtime's barrier delivery leans on this.
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Nanos::new(10), 1).unwrap();
        eng.schedule(Nanos::new(10), 2).unwrap();
        let mut seen = Vec::new();
        eng.run_until(Nanos::new(10), |eng, now, ev| {
            seen.push(ev);
            if ev == 1 {
                // Scheduled mid-delivery at exactly `now`.
                eng.schedule(now, 3).unwrap();
                eng.schedule(now, 4).unwrap();
            }
            Step::Continue
        });
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }
}
