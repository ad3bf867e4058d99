//! Position-indexed event queue — the scheduling core of the simulator.
//!
//! A gate-level event simulator schedules transitions from a bounded set of
//! *sources*: every gate output and every externally driven net. A global
//! `BinaryHeap` over raw events (the pre-PR 7 scheduler) loses that structure:
//! membership is unanswerable without a scan, a superseded transition can only
//! be cancelled by leaving a stale tombstone to be skipped at pop time, and
//! the heap grows with the number of *events* instead of the number of
//! *active sources*.
//!
//! [`IndexedEventQueue`] keeps one short FIFO of pending events per source and
//! a binary heap over the **sources**, ordered by each source's earliest
//! pending event, with a position array mapping every source to its heap slot
//! (the `FiniteHeapedMap` shape). That gives:
//!
//! * **O(1) membership** — `contains(source)` is an array read, which is how
//!   the inertial delay mode knows whether a gate has an outstanding
//!   transition without auxiliary sequence-number bookkeeping;
//! * **in-place reprioritization** — scheduling an earlier event for an
//!   already-queued source sifts its existing heap entry, and cancelling a
//!   superseded transition removes it outright, so no stale events are ever
//!   popped;
//! * **a small heap** — the heap holds at most one entry per source, so sift
//!   depth tracks the number of simultaneously active gates, not the total
//!   backlog of scheduled transitions.
//!
//! Events from one source are almost always scheduled in nondecreasing time
//! order (a gate's output events are `now + delay` with `now` monotone), so
//! the per-source insertion is amortized O(1); the global pop order is the
//! exact `(time, seq)` order a global heap would produce, which is what lets
//! the parity suite pin this queue event-for-event against the old scheduler.

use std::collections::VecDeque;

use crate::NetId;

/// A scheduled value change, ordered by `(time, seq)`.
///
/// `seq` is a globally unique, monotonically increasing issue number assigned
/// by the simulator; it breaks ties between events scheduled for the same
/// instant so that delivery order equals scheduling order (FIFO at equal
/// times), exactly as the old global-heap scheduler behaved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent {
    /// Absolute simulation time at which the change is delivered.
    pub time: u64,
    /// Global issue number (unique; ties at equal `time` resolve FIFO).
    pub seq: u64,
    /// The net that changes.
    pub net: NetId,
    /// The value the net changes to.
    pub value: bool,
}

impl ScheduledEvent {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

const NULL_POS: u32 = u32::MAX;

/// Position-indexed heap of per-source event FIFOs (see the module docs).
///
/// The source id space is fixed at construction; the simulator uses
/// `gate_index` for gate-originated events and `num_gates + net` for
/// externally driven nets (primary inputs, flip-flop outputs).
#[derive(Debug, Clone)]
pub struct IndexedEventQueue {
    /// Heap of source ids, ordered by the head event of each source's FIFO.
    heap: Vec<u32>,
    /// `pos[source]` is the heap slot of `source`, or `NULL_POS` if the
    /// source has no pending events.
    pos: Vec<u32>,
    /// Per-source pending events, sorted by `(time, seq)`.
    fifos: Vec<VecDeque<ScheduledEvent>>,
    /// Total number of pending events across all sources.
    len: usize,
}

impl IndexedEventQueue {
    /// An empty queue over `num_sources` event sources.
    pub fn new(num_sources: usize) -> Self {
        IndexedEventQueue {
            heap: Vec::with_capacity(num_sources.min(64)),
            pos: vec![NULL_POS; num_sources],
            fifos: vec![VecDeque::new(); num_sources],
            len: 0,
        }
    }

    /// Total number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if `source` has at least one pending event — O(1).
    #[inline]
    pub fn contains(&self, source: usize) -> bool {
        self.pos[source] != NULL_POS
    }

    /// Number of pending events of a single source.
    pub fn source_len(&self, source: usize) -> usize {
        self.fifos[source].len()
    }

    /// The `(time, seq)` key of a source's earliest pending event.
    #[inline]
    fn head_key(&self, source: u32) -> (u64, u64) {
        self.fifos[source as usize]
            .front()
            .expect("queued source has a head event")
            .key()
    }

    /// Schedule `event` for `source`.
    ///
    /// Events of one source are kept sorted by `(time, seq)`; the common case
    /// (nondecreasing times) appends in O(1), and only an event that becomes
    /// the source's new head touches the heap (an in-place decrease-key).
    pub fn schedule(&mut self, source: usize, event: ScheduledEvent) {
        let fifo = &mut self.fifos[source];
        let key = event.key();
        let mut idx = fifo.len();
        while idx > 0 && fifo[idx - 1].key() > key {
            idx -= 1;
        }
        fifo.insert(idx, event);
        self.len += 1;
        let p = self.pos[source];
        if p == NULL_POS {
            let slot = self.heap.len();
            self.heap.push(source as u32);
            self.pos[source] = slot as u32;
            self.sift_up(slot);
        } else if idx == 0 {
            // The source's head got earlier: restore the heap in place.
            self.sift_up(p as usize);
        }
    }

    /// Remove and return the globally earliest pending event (by
    /// `(time, seq)`), together with its source id.
    pub fn pop(&mut self) -> Option<(usize, ScheduledEvent)> {
        let &root = self.heap.first()?;
        let source = root as usize;
        let event = self.fifos[source].pop_front().expect("root has a head");
        self.len -= 1;
        if self.fifos[source].is_empty() {
            self.remove_heap_slot(0);
        } else {
            // The head key only grew; sift the root down.
            self.sift_down(0);
        }
        Some((source, event))
    }

    /// Drop every pending event of `source` (the inertial mode's supersede:
    /// the cancelled transition is removed *now* instead of being popped and
    /// skipped later). Returns the number of events removed.
    pub fn cancel(&mut self, source: usize) -> usize {
        let p = self.pos[source];
        if p == NULL_POS {
            return 0;
        }
        let dropped = self.fifos[source].len();
        self.fifos[source].clear();
        self.len -= dropped;
        self.remove_heap_slot(p as usize);
        dropped
    }

    /// Drop every pending event of every source.
    pub fn clear(&mut self) {
        for &s in &self.heap {
            self.fifos[s as usize].clear();
            self.pos[s as usize] = NULL_POS;
        }
        self.heap.clear();
        self.len = 0;
    }

    /// Remove the heap entry at `slot`, restoring the heap property around
    /// the element swapped into its place.
    fn remove_heap_slot(&mut self, slot: usize) {
        let source = self.heap.swap_remove(slot);
        self.pos[source as usize] = NULL_POS;
        if slot < self.heap.len() {
            self.pos[self.heap[slot] as usize] = slot as u32;
            // The swapped-in element may violate either direction.
            self.sift_up(slot);
            self.sift_down(self.pos_slot_of(slot));
        }
    }

    /// After a sift_up from `slot`, the element that must sift down is the
    /// one now occupying `slot` (sift_up may have moved a different source
    /// there).
    fn pos_slot_of(&self, slot: usize) -> usize {
        slot
    }

    fn sift_up(&mut self, mut slot: usize) {
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if self.head_key(self.heap[slot]) < self.head_key(self.heap[parent]) {
                self.heap.swap(slot, parent);
                self.pos[self.heap[slot] as usize] = slot as u32;
                self.pos[self.heap[parent] as usize] = parent as u32;
                slot = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut slot: usize) {
        let n = self.heap.len();
        loop {
            let left = 2 * slot + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let mut best = left;
            if right < n && self.head_key(self.heap[right]) < self.head_key(self.heap[left]) {
                best = right;
            }
            if self.head_key(self.heap[best]) < self.head_key(self.heap[slot]) {
                self.heap.swap(slot, best);
                self.pos[self.heap[slot] as usize] = slot as u32;
                self.pos[self.heap[best] as usize] = best as u32;
                slot = best;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn ev(time: u64, seq: u64, net: usize, value: bool) -> ScheduledEvent {
        ScheduledEvent {
            time,
            seq,
            net: NetId(net),
            value,
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = IndexedEventQueue::new(4);
        q.schedule(0, ev(10, 0, 0, true));
        q.schedule(1, ev(5, 1, 1, true));
        q.schedule(2, ev(10, 2, 2, false));
        q.schedule(3, ev(5, 3, 3, false));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| (e.time, e.seq))
            .collect();
        assert_eq!(order, vec![(5, 1), (5, 3), (10, 0), (10, 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn membership_and_cancel() {
        let mut q = IndexedEventQueue::new(3);
        assert!(!q.contains(1));
        q.schedule(1, ev(7, 0, 1, true));
        q.schedule(1, ev(9, 1, 1, false));
        assert!(q.contains(1));
        assert_eq!(q.source_len(1), 2);
        assert_eq!(q.cancel(1), 2);
        assert!(!q.contains(1));
        assert!(q.is_empty());
        assert_eq!(q.cancel(1), 0);
    }

    #[test]
    fn earlier_event_reprioritizes_in_place() {
        let mut q = IndexedEventQueue::new(2);
        q.schedule(0, ev(50, 0, 0, true));
        // Out-of-order (earlier) event for the same source becomes its head.
        q.schedule(0, ev(20, 1, 0, false));
        q.schedule(1, ev(30, 2, 1, true));
        let (_, first) = q.pop().unwrap();
        assert_eq!((first.time, first.seq), (20, 1));
        let (_, second) = q.pop().unwrap();
        assert_eq!((second.time, second.seq), (30, 2));
        let (_, third) = q.pop().unwrap();
        assert_eq!((third.time, third.seq), (50, 0));
    }

    #[test]
    fn differential_against_global_binary_heap() {
        // Random schedules (per-source nondecreasing times, plus occasional
        // out-of-order external events) must pop in exactly the order a
        // global (time, seq) heap produces — interleaved with random cancels
        // mirrored on both sides.
        let mut rng = StdRng::seed_from_u64(0xDEAD_BEEF);
        for round in 0..50 {
            let sources = 1 + (rng.next_u64() % 12) as usize;
            let mut q = IndexedEventQueue::new(sources);
            let mut reference: BinaryHeap<Reverse<(u64, u64, usize, bool)>> = BinaryHeap::new();
            let mut last_time = vec![0u64; sources];
            let mut seq = 0u64;
            let mut popped = Vec::new();
            let mut expected = Vec::new();
            for _ in 0..200 {
                match rng.next_u64() % 10 {
                    0..=6 => {
                        let s = (rng.next_u64() % sources as u64) as usize;
                        // Mostly nondecreasing per source; sometimes earlier.
                        let t = if rng.next_u64() % 8 == 0 {
                            rng.next_u64() % 100
                        } else {
                            last_time[s] + rng.next_u64() % 10
                        };
                        last_time[s] = last_time[s].max(t);
                        let v = rng.next_u64() % 2 == 0;
                        q.schedule(s, ev(t, seq, s, v));
                        reference.push(Reverse((t, seq, s, v)));
                        seq += 1;
                    }
                    7 => {
                        let s = (rng.next_u64() % sources as u64) as usize;
                        q.cancel(s);
                        let keep: Vec<_> = reference
                            .drain()
                            .filter(|Reverse((_, _, src, _))| *src != s)
                            .collect();
                        reference = keep.into_iter().collect();
                    }
                    _ => {
                        let got = q.pop().map(|(_, e)| (e.time, e.seq, e.net.0, e.value));
                        let want = reference.pop().map(|Reverse(x)| x);
                        popped.push(got);
                        expected.push(want);
                    }
                }
            }
            while let Some((_, e)) = q.pop() {
                popped.push(Some((e.time, e.seq, e.net.0, e.value)));
            }
            while let Some(Reverse(x)) = reference.pop() {
                expected.push(Some(x));
            }
            assert_eq!(popped, expected, "round {round}");
            assert!(q.is_empty());
        }
    }
}
