//! The discrete-event queue.
//!
//! Events are ordered by `(time, class, sequence)`. The *class* encodes
//! the deterministic priority the historical preloaded-heap design gave
//! each event source at equal timestamps — workload arrivals (by
//! arrival index) before scripted churn (by plan index) before
//! dynamically scheduled events (by insertion order). Deriving the
//! tie-break from the event itself, rather than from global insertion
//! order, is what lets the platform push arrivals one at a time from a
//! lazy [`ArrivalStream`](esg_workload::ArrivalStream) and still
//! replay the materialised runs bit for bit.
//!
//! The queue is a `std` binary min-heap of packed 24-byte entries: three
//! `u64`s holding the due time, the tie-break rank and the event's
//! payload. The rank carries the class in its top two bits; arrivals and
//! churn store their index below them, and dynamic events store
//! `sequence << 3 | tag`, where the tag names the [`Event`] variant.
//! Every `(time, rank)` key is unique, so the heap pops exactly the
//! `(time, class, sequence)` order and the payload never breaks a tie.

use esg_model::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A simulation event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Event {
    /// An application invocation arrives (index into the workload).
    Arrival(usize),
    /// The controller performs its next scheduling step.
    ControllerStep,
    /// A task finished its pre-execution phase (cold start + input
    /// transfer) and wants to attach resources and run (task id).
    ExecReady(u64),
    /// A data-plane transfer's planned finish fires (task id, plan
    /// generation). Stale generations — the flow was re-planned after
    /// this event was scheduled — are skipped on pop; a current one
    /// completes the transfer and runs the task's exec-ready path. Both
    /// fields must fit in a `u32` (asserted at push).
    TransferDue(u64, u64),
    /// A running task completes (task id).
    TaskComplete(u64),
    /// A pre-warm timer fires for `(node, function)`.
    Prewarm(u32, u32),
    /// A scripted cluster-membership change fires (index into the run's
    /// `ChurnPlan`).
    Churn(usize),
}

/// Bits of the rank below the two class bits.
const CLASS_SHIFT: u32 = 62;
/// Largest arrival or churn index the rank admits.
const MAX_INDEX: u64 = (1 << CLASS_SHIFT) - 1;
/// Bits of a dynamic event's rank that hold its variant tag.
const TAG_BITS: u32 = 3;
/// Largest insertion sequence number a dynamic event's rank admits.
const MAX_SEQ: u64 = MAX_INDEX >> TAG_BITS;

const ARRIVAL: u64 = 0;
const CHURN: u64 = 1;
const DYNAMIC: u64 = 2;

const TAG_CONTROLLER_STEP: u64 = 0;
const TAG_EXEC_READY: u64 = 1;
const TAG_TRANSFER_DUE: u64 = 2;
const TAG_TASK_COMPLETE: u64 = 3;
const TAG_PREWARM: u64 = 4;

/// One pending event: due time, tie-break rank, variant payload. The
/// derived order compares `at`, then `rank`; since those two are unique
/// per queue, `payload` never decides it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: u64,
    rank: u64,
    payload: u64,
}

/// Two `u32` fields in one payload word, `hi` in the upper half.
fn halves(hi: u32, lo: u32) -> u64 {
    (hi as u64) << 32 | lo as u64
}

fn split(payload: u64) -> (u32, u32) {
    ((payload >> 32) as u32, payload as u32)
}

fn half(v: u64, what: &str) -> u32 {
    u32::try_from(v).unwrap_or_else(|_| panic!("TransferDue {what} {v} exceeds u32::MAX"))
}

fn index_rank(class: u64, index: usize) -> u64 {
    let i = index as u64;
    assert!(
        i <= MAX_INDEX,
        "event index {i} exceeds the rank's {MAX_INDEX}"
    );
    class << CLASS_SHIFT | i
}

impl Entry {
    /// Packs `event` due at `at`; `seq` is the insertion sequence number
    /// a dynamic event would take (ignored by arrivals and churn).
    fn pack(at: SimTime, event: Event, seq: u64) -> Entry {
        let dynamic = |tag: u64, payload: u64| {
            assert!(
                seq <= MAX_SEQ,
                "event sequence {seq} exceeds the rank's {MAX_SEQ}"
            );
            (DYNAMIC << CLASS_SHIFT | seq << TAG_BITS | tag, payload)
        };
        let (rank, payload) = match event {
            Event::Arrival(i) => (index_rank(ARRIVAL, i), 0),
            Event::Churn(i) => (index_rank(CHURN, i), 0),
            Event::ControllerStep => dynamic(TAG_CONTROLLER_STEP, 0),
            Event::ExecReady(id) => dynamic(TAG_EXEC_READY, id),
            Event::TransferDue(id, gen) => dynamic(
                TAG_TRANSFER_DUE,
                halves(half(id, "task id"), half(gen, "generation")),
            ),
            Event::TaskComplete(id) => dynamic(TAG_TASK_COMPLETE, id),
            Event::Prewarm(node, f) => dynamic(TAG_PREWARM, halves(node, f)),
        };
        Entry {
            at: at.0,
            rank,
            payload,
        }
    }

    fn unpack(self) -> (SimTime, Event) {
        let index = || (self.rank & MAX_INDEX) as usize;
        let event = match self.rank >> CLASS_SHIFT {
            ARRIVAL => Event::Arrival(index()),
            CHURN => Event::Churn(index()),
            _ => match self.rank & ((1 << TAG_BITS) - 1) {
                TAG_CONTROLLER_STEP => Event::ControllerStep,
                TAG_EXEC_READY => Event::ExecReady(self.payload),
                TAG_TRANSFER_DUE => {
                    let (id, gen) = split(self.payload);
                    Event::TransferDue(id as u64, gen as u64)
                }
                TAG_TASK_COMPLETE => Event::TaskComplete(self.payload),
                TAG_PREWARM => {
                    let (node, f) = split(self.payload);
                    Event::Prewarm(node, f)
                }
                tag => unreachable!("no event variant has tag {tag}"),
            },
        };
        (SimTime(self.at), event)
    }
}

/// A time-ordered event queue with deterministic tie-breaking.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
    peak_len: usize,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at `at`.
    ///
    /// # Panics
    ///
    /// If a `TransferDue` field exceeds `u32::MAX`, an arrival or churn
    /// index exceeds 2^62 − 1, or the dynamic-event sequence exceeds
    /// 2^59 − 1 — the entry would otherwise be truncated.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let entry = Entry::pack(at, event, self.next_seq);
        if entry.rank >> CLASS_SHIFT == DYNAMIC {
            self.next_seq += 1;
        }
        self.heap.push(Reverse(entry));
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Pops the earliest event, ties broken by `(class, sequence)`.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|Reverse(e)| e.unpack())
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// High-water mark of pending events over the queue's lifetime.
    #[inline]
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| SimTime(e.at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(5.0), Event::ControllerStep);
        q.push(SimTime::from_ms(1.0), Event::Arrival(0));
        q.push(SimTime::from_ms(3.0), Event::TaskComplete(7));
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(1.0)));
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec![
                Event::Arrival(0),
                Event::TaskComplete(7),
                Event::ControllerStep
            ]
        );
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 3);
    }

    #[test]
    fn ties_break_by_class_then_index() {
        // At equal times: arrivals pop by arrival index (the order the
        // historical preloaded heap gave them), churn next, dynamic
        // events last in insertion order — regardless of push order.
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(2.0);
        q.push(t, Event::ControllerStep);
        q.push(t, Event::Arrival(3));
        q.push(t, Event::Churn(0));
        q.push(t, Event::Arrival(1));
        q.push(t, Event::Arrival(2));
        q.push(t, Event::Prewarm(9, 9));
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec![
                Event::Arrival(1),
                Event::Arrival(2),
                Event::Arrival(3),
                Event::Churn(0),
                Event::ControllerStep,
                Event::Prewarm(9, 9),
            ]
        );
    }

    #[test]
    fn empty_queue() {
        let mut q = EventQueue::new();
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(10.0), Event::ControllerStep);
        q.push(SimTime::from_ms(1.0), Event::Arrival(0));
        assert_eq!(q.pop().map(|(_, e)| e), Some(Event::Arrival(0)));
        q.push(SimTime::from_ms(4.0), Event::Prewarm(1, 2));
        assert_eq!(q.pop().map(|(_, e)| e), Some(Event::Prewarm(1, 2)));
        assert_eq!(q.pop().map(|(_, e)| e), Some(Event::ControllerStep));
        assert!(q.pop().is_none());
    }

    #[test]
    fn entry_is_three_words() {
        assert_eq!(std::mem::size_of::<Reverse<Entry>>(), 24);
    }

    #[test]
    fn every_variant_round_trips_at_boundary_payloads() {
        let max = u32::MAX as u64;
        let events = [
            Event::Arrival(0),
            Event::Arrival(MAX_INDEX as usize),
            Event::Churn(0),
            Event::Churn(MAX_INDEX as usize),
            Event::ControllerStep,
            Event::ExecReady(0),
            Event::ExecReady(u64::MAX),
            Event::TransferDue(0, 0),
            Event::TransferDue(max, 0),
            Event::TransferDue(0, max),
            Event::TransferDue(max, max),
            Event::TaskComplete(0),
            Event::TaskComplete(u64::MAX),
            Event::Prewarm(0, 0),
            Event::Prewarm(u32::MAX, 0),
            Event::Prewarm(0, u32::MAX),
            Event::Prewarm(u32::MAX, u32::MAX),
        ];
        for (i, &ev) in events.iter().enumerate() {
            for at in [SimTime::ZERO, SimTime(u64::MAX)] {
                for seq in [0, i as u64, MAX_SEQ] {
                    assert_eq!(Entry::pack(at, ev, seq).unpack(), (at, ev), "seq {seq}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn oversized_transfer_due_is_refused_not_truncated() {
        EventQueue::new().push(SimTime::ZERO, Event::TransferDue(1, u32::MAX as u64 + 1));
    }

    #[test]
    #[should_panic(expected = "exceeds the rank")]
    fn oversized_arrival_index_is_refused_not_truncated() {
        EventQueue::new().push(SimTime::ZERO, Event::Arrival(MAX_INDEX as usize + 1));
    }

    /// An entry of the pre-packing queue: `(time, (class, sequence), event)`.
    type TupleEntry = Reverse<(SimTime, (u8, u64), Event)>;

    /// The pre-packing queue, kept here only as the ordering oracle.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<TupleEntry>,
        next_seq: u64,
    }

    impl Reference {
        fn push(&mut self, at: SimTime, event: Event) {
            let rank = match event {
                Event::Arrival(i) => (0, i as u64),
                Event::Churn(i) => (1, i as u64),
                _ => {
                    self.next_seq += 1;
                    (2, self.next_seq - 1)
                }
            };
            self.heap.push(Reverse((at, rank, event)));
        }

        fn pop(&mut self) -> Option<(SimTime, Event)> {
            self.heap.pop().map(|Reverse((at, _, ev))| (at, ev))
        }
    }

    #[test]
    fn backends_agree_on_a_random_schedule() {
        // The packed heap against the tuple-heap reference.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let (mut q, mut reference) = (EventQueue::new(), Reference::default());
        let (mut arrivals, mut churn) = (0usize, 0usize);
        for step in 0..40_000u32 {
            // Pushes outnumber pops early, then pops drain the queue.
            if rng.random_range(0..100) < if step < 30_000 { 60 } else { 20 } {
                // Few distinct times, so class and sequence decide most ties.
                let at = SimTime(rng.random_range(0..64u64) * 1_000);
                let word = |rng: &mut StdRng| match rng.random_range(0..3) {
                    0 => 0,
                    1 => u32::MAX as u64,
                    _ => rng.random_range(0..=u32::MAX as u64),
                };
                let ev = match rng.random_range(0..7) {
                    0 => {
                        arrivals += 1;
                        Event::Arrival(arrivals - 1)
                    }
                    1 => {
                        churn += 1;
                        Event::Churn(churn - 1)
                    }
                    2 => Event::ControllerStep,
                    3 => Event::ExecReady(rng.random()),
                    4 => Event::TransferDue(word(&mut rng), word(&mut rng)),
                    5 => Event::TaskComplete(rng.random()),
                    _ => Event::Prewarm(word(&mut rng) as u32, word(&mut rng) as u32),
                };
                q.push(at, ev);
                reference.push(at, ev);
            } else {
                assert_eq!(q.peek_time(), reference.heap.peek().map(|r| r.0 .0));
                assert_eq!(q.pop(), reference.pop(), "step {step}");
            }
            assert_eq!(q.len(), reference.heap.len());
        }
        while let Some(x) = reference.pop() {
            assert_eq!(q.pop(), Some(x));
        }
        assert!(q.is_empty());
    }
}
