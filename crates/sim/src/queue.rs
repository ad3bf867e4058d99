//! Timing-wheel event queue — the scheduling core of the simulator.
//!
//! Gate delays are small integers, so the queue is a timing wheel (Varghese
//! and Lauck, "Hashed and hierarchical timing wheels", SOSP 1987): a
//! power-of-two ring of FIFOs, one per time unit, spanning the longest delay
//! the simulator schedules. Scheduling an event appends it to the slot of its
//! time, popping reads the current slot, and an occupancy bitmap finds the
//! next non-empty slot a word at a time. Slots keep their capacity across
//! revolutions, so a steady-state run does not allocate.
//!
//! Events are delivered in `(time, schedule order)` order, the order of the
//! retired global-heap scheduler that the parity suite pins:
//!
//! * a slot is appended in schedule order, and every entry in it is due at
//!   the one time of the window `[now, now + slots)` that maps to it;
//! * an event due past the window (only a long external delay reaches there)
//!   waits in a small heap ordered by `(time, schedule order)` and moves into
//!   its slot as soon as the window reaches its time, before any later
//!   schedule can land in that slot.
//!
//! Every event belongs to a *source*: a gate, or an externally driven net.
//! [`EventWheel::cancel`] drops a source's pending events (the inertial
//! mode's supersede) by bumping the source's epoch and zeroing its live
//! count; an entry from an older epoch is skipped, uncounted, when its slot
//! drains. Membership and the length read the live counts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::NetId;

/// A value change: at `time`, `net` takes `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScheduledEvent {
    /// Absolute simulation time at which the change is delivered.
    pub time: u64,
    /// The net that changes.
    pub net: NetId,
    /// The value the net changes to.
    pub value: bool,
}

/// A queued event without its time, which its slot (or the far heap's key)
/// holds: 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    source: u32,
    /// The source's epoch when the event was scheduled.
    epoch: u32,
    net: u32,
    value: bool,
}

/// Per source: the epoch its live events carry and how many there are.
#[derive(Debug, Clone, Copy, Default)]
struct Source {
    epoch: u32,
    live: u32,
}

/// The most slots a wheel gets; events past a longer span take the far heap,
/// so no delay can size the ring beyond memory.
const MAX_SLOTS: u64 = 1 << 16;

/// Timing wheel over a fixed set of event sources (see the module docs).
#[derive(Debug)]
pub(crate) struct EventWheel {
    /// `slots[t & mask]` holds the entries due at `t`, for `t` in the window
    /// `[now, now + slots.len())`, in schedule order.
    slots: Vec<Vec<Entry>>,
    mask: usize,
    /// Bit `s` is set while `slots[s]` is not empty.
    occupied: Vec<u64>,
    /// Entries of the current slot already popped.
    head: usize,
    /// Time of the last popped event: the start of the window.
    now: u64,
    /// Events due past the window, by `(time, schedule order)`.
    far: BinaryHeap<Reverse<(u64, u64, Entry)>>,
    /// The next far event's rank in schedule order.
    far_next: u64,
    sources: Vec<Source>,
    /// Live events over all sources.
    len: usize,
}

impl EventWheel {
    /// An empty wheel over `num_sources` sources whose window spans every
    /// delay up to `span` (up to [`MAX_SLOTS`]).
    pub(crate) fn new(num_sources: usize, span: u64) -> Self {
        let size = span.saturating_add(1).min(MAX_SLOTS).next_power_of_two() as usize;
        EventWheel {
            slots: vec![Vec::new(); size],
            mask: size - 1,
            occupied: vec![0; size.div_ceil(64)],
            head: 0,
            now: 0,
            far: BinaryHeap::new(),
            far_next: 0,
            sources: vec![Source::default(); num_sources],
            len: 0,
        }
    }

    /// Number of live pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Live pending events per source.
    #[cfg(test)]
    pub(crate) fn live_counts(&self) -> Vec<u32> {
        self.sources.iter().map(|s| s.live).collect()
    }

    /// `true` if `source` has a live pending event.
    #[inline]
    pub(crate) fn contains(&self, source: usize) -> bool {
        self.sources[source].live > 0
    }

    /// Schedule `event` for `source`, after every pending event due at the
    /// same time.
    ///
    /// # Panics
    ///
    /// Panics if `event` is due before the last popped event.
    pub(crate) fn schedule(&mut self, source: usize, event: ScheduledEvent) {
        assert!(event.time >= self.now, "event scheduled in the past");
        let state = &mut self.sources[source];
        state.live += 1;
        self.len += 1;
        let entry = Entry {
            source: source as u32,
            epoch: state.epoch,
            net: event.net.0 as u32,
            value: event.value,
        };
        if event.time - self.now < self.slots.len() as u64 {
            self.push_slot(event.time, entry);
        } else {
            self.far.push(Reverse((event.time, self.far_next, entry)));
            self.far_next += 1;
        }
    }

    fn push_slot(&mut self, time: u64, entry: Entry) {
        let slot = time as usize & self.mask;
        self.slots[slot].push(entry);
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// Remove and return the earliest live event, by `(time, schedule
    /// order)`, with its source.
    pub(crate) fn pop(&mut self) -> Option<(usize, ScheduledEvent)> {
        while self.len > 0 {
            let slot = self.now as usize & self.mask;
            let Some(&entry) = self.slots[slot].get(self.head) else {
                self.slots[slot].clear();
                self.head = 0;
                self.occupied[slot / 64] &= !(1 << (slot % 64));
                self.advance();
                continue;
            };
            self.head += 1;
            let source = entry.source as usize;
            let state = &mut self.sources[source];
            if entry.epoch == state.epoch {
                state.live -= 1;
                self.len -= 1;
                let event = ScheduledEvent {
                    time: self.now,
                    net: NetId(entry.net as usize),
                    value: entry.value,
                };
                return Some((source, event));
            }
        }
        None
    }

    /// Move the window to the next occupied slot or the earliest far event,
    /// whichever is due first, and move every far event it now reaches into
    /// its slot.
    fn advance(&mut self) {
        self.now = match self.next_occupied() {
            Some(distance) => self.now + distance,
            None => self.far.peek().expect("a live event is pending").0 .0,
        };
        let end = self.now + self.slots.len() as u64;
        while let Some(&Reverse((time, _, entry))) = self.far.peek() {
            if time >= end {
                break;
            }
            self.far.pop();
            self.push_slot(time, entry);
        }
    }

    /// Distance from `now` to the first occupied slot, scanning the bitmap
    /// a word at a time around the ring: the current word from the current
    /// slot on, the other words, then the current word below the slot.
    fn next_occupied(&self) -> Option<u64> {
        let start = self.now as usize & self.mask;
        let (first, bit) = (start / 64, start % 64);
        let words = self.occupied.len();
        (0..=words).find_map(|k| {
            let w = (first + k) % words;
            let bits = match k {
                0 => self.occupied[w] & (!0 << bit),
                _ if k == words => self.occupied[w] & !(!0 << bit),
                _ => self.occupied[w],
            };
            (bits != 0).then(|| {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                (slot.wrapping_sub(start) & self.mask) as u64
            })
        })
    }

    /// Drop every pending event of `source` (the inertial mode's supersede).
    pub(crate) fn cancel(&mut self, source: usize) {
        let state = &mut self.sources[source];
        if state.live > 0 {
            self.len -= state.live as usize;
            state.live = 0;
            // Wrapping back onto a still-queued entry would take 2^32
            // schedule-and-cancel rounds of this source before the window
            // reaches that entry.
            state.epoch = state.epoch.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ev(time: u64, net: usize, value: bool) -> ScheduledEvent {
        ScheduledEvent {
            time,
            net: NetId(net),
            value,
        }
    }

    fn drain(q: &mut EventWheel) -> Vec<(u64, usize)> {
        std::iter::from_fn(|| q.pop())
            .map(|(s, e)| (e.time, s))
            .collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        // Ties at one time pop in schedule order, on the wheel and through
        // the far heap alike.
        for span in [0, 3, 15] {
            let mut q = EventWheel::new(4, span);
            q.schedule(0, ev(10, 0, true));
            q.schedule(1, ev(5, 1, true));
            q.schedule(2, ev(10, 2, false));
            q.schedule(3, ev(5, 3, false));
            assert_eq!(drain(&mut q), [(5, 1), (5, 3), (10, 0), (10, 2)]);
            assert_eq!(q.len(), 0);
        }
    }

    #[test]
    fn membership_and_cancel() {
        let mut q = EventWheel::new(3, 7);
        assert!(!q.contains(1));
        q.schedule(1, ev(7, 1, true));
        q.schedule(1, ev(90, 1, false));
        q.schedule(2, ev(8, 2, true));
        assert!(q.contains(1));
        assert_eq!(q.len(), 3);
        q.cancel(1);
        assert!(!q.contains(1));
        assert_eq!(q.len(), 1);
        q.cancel(1);
        assert_eq!(q.len(), 1);
        // The cancelled entries are skipped, uncounted, as their times pass.
        q.schedule(1, ev(95, 1, true));
        assert_eq!(drain(&mut q), [(8, 2), (95, 1)]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn earlier_event_reprioritizes_in_place() {
        // A source's later-scheduled but earlier-due event pops first.
        let mut q = EventWheel::new(2, 15);
        q.schedule(0, ev(50, 0, true));
        q.schedule(0, ev(20, 0, false));
        q.schedule(1, ev(30, 1, true));
        q.schedule(0, ev(3, 0, true));
        assert_eq!(drain(&mut q), [(3, 0), (20, 0), (30, 1), (50, 0)]);
    }

    #[test]
    fn far_and_direct_events_due_together_pop_in_schedule_order() {
        let mut q = EventWheel::new(3, 7);
        q.schedule(0, ev(20, 0, true)); // far: past the 8-slot window
        q.schedule(1, ev(6, 1, true));
        assert_eq!(q.pop().map(|(s, e)| (e.time, s)), Some((6, 1)));
        q.schedule(1, ev(13, 1, false));
        assert_eq!(q.pop().map(|(s, e)| (e.time, s)), Some((13, 1)));
        // The window now reaches 20, so this one lands in the slot directly.
        q.schedule(2, ev(20, 2, true));
        assert_eq!(drain(&mut q), [(20, 0), (20, 2)]);
    }

    #[test]
    fn slot_entries_are_16_bytes() {
        // No time and no sequence number: the slot holds the one, the
        // schedule order the other.
        assert_eq!(std::mem::size_of::<Entry>(), 16);
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventWheel::new(2, 7);
        q.schedule(0, ev(5, 0, true));
        q.pop();
        q.schedule(1, ev(4, 1, true));
    }

    /// The reference: a global heap keyed by `(time, schedule counter)`.
    type Reference = BinaryHeap<Reverse<(u64, u64, usize, usize, bool)>>;

    #[test]
    fn differential_against_global_binary_heap() {
        // Random schedules, pops and cancels on wheels of 1 to 512 slots,
        // mirrored on a global heap. Times follow the simulator's contract:
        // never before the last popped time. Per source they mostly grow,
        // sometimes fall back towards that time (still earlier than the
        // source's own pending events), and sometimes jump several windows
        // ahead into the far heap. Each pop's (time, source, net, value),
        // the length and every source's membership must agree after every
        // operation.
        let mut rng = StdRng::seed_from_u64(0xDEAD_BEEF);
        const SIZES: [u64; 7] = [1, 2, 16, 32, 64, 128, 512];
        let (mut far, mut far_cancels, mut revolutions) = (0, 0, [0; 7]);
        for round in 0..140 {
            let size = SIZES[round % 7];
            let sources = 1 + (rng.next_u64() % 12) as usize;
            let mut q = EventWheel::new(sources, size - 1);
            let mut reference = Reference::new();
            let mut last_time = vec![0u64; sources];
            let (mut now, mut scheduled) = (0u64, 0u64);
            for op in 0..2_000 {
                let s = (rng.next_u64() % sources as u64) as usize;
                match rng.next_u64() % 10 {
                    0..=5 => {
                        let base = last_time[s].max(now);
                        let t = match rng.next_u64() % 16 {
                            0 | 1 => now + rng.next_u64() % (base - now + 1),
                            2 => base + size * (1 + rng.next_u64() % 4) + rng.next_u64() % 3,
                            _ => base + rng.next_u64() % size.min(10),
                        };
                        far += u32::from(t - now >= size);
                        last_time[s] = last_time[s].max(t);
                        let (net, v) = (s + sources * (scheduled % 3) as usize, t % 3 == 0);
                        q.schedule(s, ev(t, net, v));
                        reference.push(Reverse((t, scheduled, s, net, v)));
                        scheduled += 1;
                    }
                    6 => {
                        let queued_far = reference
                            .iter()
                            .any(|Reverse((t, _, src, ..))| *src == s && t - now >= size);
                        far_cancels += u32::from(queued_far);
                        q.cancel(s);
                        reference.retain(|Reverse((_, _, src, ..))| *src != s);
                    }
                    _ => {
                        let got = q.pop().map(|(src, e)| (e.time, src, e.net.0, e.value));
                        let want = reference.pop().map(|Reverse((t, _, s, n, v))| (t, s, n, v));
                        assert_eq!(got, want, "round {round} op {op}: pop");
                        if let Some((t, ..)) = got {
                            revolutions[round % 7] += t / size - now / size;
                            now = t;
                        }
                    }
                }
                assert_eq!(q.len(), reference.len(), "round {round} op {op}: len");
                let mut queued = vec![false; sources];
                for Reverse((_, _, src, ..)) in reference.iter() {
                    queued[*src] = true;
                }
                for (src, &queued) in queued.iter().enumerate() {
                    assert_eq!(q.contains(src), queued, "round {round} op {op}: {src}");
                }
            }
            while let Some(Reverse((t, _, s, n, v))) = reference.pop() {
                let got = q.pop().map(|(src, e)| (e.time, src, e.net.0, e.value));
                assert_eq!(got, Some((t, s, n, v)), "round {round}: drain");
            }
            assert_eq!(q.pop(), None);
        }
        // The histories reach the far heap, cancel it and wrap every wheel.
        assert!(
            far > 5_000 && far_cancels > 500 && revolutions.iter().all(|&r| r > 1_000),
            "{far} {far_cancels} {revolutions:?}"
        );
    }
}
