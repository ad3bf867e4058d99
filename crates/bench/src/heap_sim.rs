//! The retired `BinaryHeap<Reverse<Event>>` event-driven simulator, kept
//! verbatim as a reference implementation.
//!
//! `fantom_sim`'s scheduler now runs on a timing wheel with one slot per time
//! unit (a private module of the simulator); this module preserves the
//! global-heap scheduler it descends from, so that `tests/sim_parity.rs` can
//! pin the simulator's waveforms (and, in transport mode, its exact event
//! ordering) against it on the benchmark corpus.
//!
//! The code is the pre-rewrite `crates/sim/src/sim.rs` with imports pointed
//! at `fantom_sim` and the types prefixed `Heap*`; behaviour is untouched.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use fantom_boolean::collections::HashMap;
use fantom_sim::{DelayModel, NetId, Netlist, Waveform};

/// Errors reported by the reference simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapSimError {
    /// The circuit did not reach quiescence within the event budget.
    Oscillation {
        /// Number of events processed before giving up.
        events_processed: usize,
    },
}

impl fmt::Display for HeapSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapSimError::Oscillation { events_processed } => {
                write!(
                    f,
                    "circuit did not settle after {events_processed} events (oscillation)"
                )
            }
        }
    }
}

impl std::error::Error for HeapSimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: u64,
    seq: u64,
    net: NetId,
    value: bool,
    /// Index of the gate that scheduled this event, if any (used by the
    /// inertial delay mode to supersede stale transitions).
    origin: Option<usize>,
}

/// Delay-style selector mirroring `fantom_sim::DelayStyle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeapDelayStyle {
    /// Every scheduled transition is delivered.
    #[default]
    Transport,
    /// At most one outstanding transition per gate; rescinded changes drop.
    Inertial,
}

/// The retired global-heap transport/inertial simulator.
#[derive(Debug)]
pub struct HeapSimulator<'a> {
    netlist: &'a Netlist,
    gate_delays: Vec<u64>,
    dff_delay: u64,
    style: HeapDelayStyle,
    values: Vec<bool>,
    pending: Vec<bool>,
    active_event: Vec<Option<u64>>,
    queue: BinaryHeap<Reverse<Event>>,
    fanout_offsets: Vec<u32>,
    fanout_data: Vec<u32>,
    fanout_dff_clocks: Vec<Vec<usize>>,
    time: u64,
    seq: u64,
    events_processed: u64,
    monitored: HashMap<usize, Waveform>,
}

impl<'a> HeapSimulator<'a> {
    /// Create a reference simulator with transport-delay semantics.
    pub fn new(netlist: &'a Netlist, delay_model: &DelayModel) -> Self {
        Self::with_style(netlist, delay_model, HeapDelayStyle::Transport)
    }

    /// Create a reference simulator with an explicit delay style.
    pub fn with_style(
        netlist: &'a Netlist,
        delay_model: &DelayModel,
        style: HeapDelayStyle,
    ) -> Self {
        let gate_delays = delay_model.delays_for(netlist.num_gates());
        let gate_inputs: Vec<Vec<usize>> = netlist
            .gates()
            .iter()
            .map(|gate| {
                let mut nets: Vec<usize> = gate.inputs.iter().map(|n| n.0).collect();
                nets.sort_unstable();
                nets.dedup();
                nets
            })
            .collect();
        let mut counts = vec![0u32; netlist.num_nets() + 1];
        for nets in &gate_inputs {
            for &n in nets {
                counts[n + 1] += 1;
            }
        }
        let mut fanout_offsets = counts;
        for i in 1..fanout_offsets.len() {
            fanout_offsets[i] += fanout_offsets[i - 1];
        }
        let mut fanout_data = vec![0u32; *fanout_offsets.last().expect("offsets") as usize];
        let mut cursor: Vec<u32> = fanout_offsets[..fanout_offsets.len() - 1].to_vec();
        for (gi, nets) in gate_inputs.iter().enumerate() {
            for &n in nets {
                fanout_data[cursor[n] as usize] = gi as u32;
                cursor[n] += 1;
            }
        }
        let mut fanout_dff_clocks = vec![Vec::new(); netlist.num_nets()];
        for (di, dff) in netlist.dffs().iter().enumerate() {
            fanout_dff_clocks[dff.clock.0].push(di);
        }
        HeapSimulator {
            netlist,
            gate_delays,
            dff_delay: delay_model.max_delay(),
            style,
            values: vec![false; netlist.num_nets()],
            pending: vec![false; netlist.num_gates()],
            active_event: vec![None; netlist.num_gates()],
            queue: BinaryHeap::with_capacity(netlist.num_gates() + netlist.num_nets()),
            fanout_offsets,
            fanout_data,
            fanout_dff_clocks,
            time: 0,
            seq: 0,
            events_processed: 0,
            monitored: HashMap::default(),
        }
    }

    /// Current simulation time.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Cumulative number of popped events (stale inertial tombstones
    /// included, which the simulator's queue skips uncounted).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Current values of every net, indexed by `NetId`.
    pub fn net_values(&self) -> &[bool] {
        &self.values
    }

    /// Override the propagation delay of a single gate.
    pub fn set_gate_delay(&mut self, gate_index: usize, delay: u64) {
        assert!(delay > 0, "gate delay must be positive");
        self.gate_delays[gate_index] = delay;
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.0]
    }

    /// Begin recording a waveform for `net`.
    pub fn monitor(&mut self, net: NetId) {
        self.monitored
            .entry(net.0)
            .or_insert_with(|| vec![(self.time, self.values[net.0])]);
    }

    /// The recorded waveform of a monitored net, if it was monitored.
    pub fn waveform(&self, net: NetId) -> Option<&Waveform> {
        self.monitored.get(&net.0)
    }

    /// Force a net to a value *now*.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        self.schedule_input(net, value, 0);
    }

    /// Schedule a primary-input change `delta` time units from now.
    pub fn schedule_input(&mut self, net: NetId, value: bool, delta: u64) {
        let event = Event {
            time: self.time + delta,
            seq: self.seq,
            net,
            value,
            origin: None,
        };
        self.seq += 1;
        self.queue.push(Reverse(event));
    }

    /// Delay-free fixpoint initialisation (see `fantom_sim`'s version).
    pub fn initialize_consistent(&mut self, fixed: &[(NetId, bool)]) {
        let fixed_idx: Vec<usize> = fixed.iter().map(|(n, _)| n.0).collect();
        for &(net, value) in fixed {
            self.values[net.0] = value;
        }
        for _ in 0..=self.netlist.num_gates() {
            let mut changed = false;
            for gate in self.netlist.gates() {
                if fixed_idx.contains(&gate.output.0) {
                    continue;
                }
                let new_val = gate
                    .kind
                    .eval_iter(gate.inputs.iter().map(|n| self.values[n.0]));
                if self.values[gate.output.0] != new_val {
                    self.values[gate.output.0] = new_val;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (gi, gate) in self.netlist.gates().iter().enumerate() {
            self.pending[gi] = self.values[gate.output.0];
            self.active_event[gi] = None;
        }
        for (net, wave) in self.monitored.iter_mut() {
            wave.push((self.time, self.values[*net]));
        }
    }

    /// Process events until the queue drains or `max_events` have been
    /// handled.
    ///
    /// # Errors
    ///
    /// Returns [`HeapSimError::Oscillation`] when the budget is exhausted.
    pub fn run_until_quiet(&mut self, max_events: usize) -> Result<u64, HeapSimError> {
        let mut processed = 0;
        while let Some(Reverse(event)) = self.queue.pop() {
            processed += 1;
            self.events_processed += 1;
            if processed > max_events {
                return Err(HeapSimError::Oscillation {
                    events_processed: processed,
                });
            }
            self.time = self.time.max(event.time);
            self.apply(event);
        }
        Ok(self.time)
    }

    fn apply(&mut self, event: Event) {
        if self.style == HeapDelayStyle::Inertial {
            if let Some(gi) = event.origin {
                if self.active_event[gi] != Some(event.seq) {
                    return;
                }
                self.active_event[gi] = None;
            }
        }
        let net = event.net.0;
        let old = self.values[net];
        if old == event.value {
            return;
        }
        self.values[net] = event.value;
        if let Some(wave) = self.monitored.get_mut(&net) {
            wave.push((event.time, event.value));
        }

        if event.value && !old {
            for &di in &self.fanout_dff_clocks[net] {
                let dff = &self.netlist.dffs()[di];
                let sampled = self.values[dff.data.0];
                let ev = Event {
                    time: event.time + self.dff_delay,
                    seq: self.seq,
                    net: dff.q,
                    value: sampled,
                    origin: None,
                };
                self.seq += 1;
                self.queue.push(Reverse(ev));
            }
        }

        let netlist = self.netlist;
        let (start, end) = (
            self.fanout_offsets[net] as usize,
            self.fanout_offsets[net + 1] as usize,
        );
        for k in start..end {
            let gi = self.fanout_data[k] as usize;
            let gate = &netlist.gates()[gi];
            let new_val = gate
                .kind
                .eval_iter(gate.inputs.iter().map(|n| self.values[n.0]));
            match self.style {
                HeapDelayStyle::Transport => {
                    if new_val != self.pending[gi] {
                        self.pending[gi] = new_val;
                        self.schedule_gate_event(gi, event.time, new_val);
                    }
                }
                HeapDelayStyle::Inertial => {
                    if new_val == self.values[gate.output.0] {
                        self.active_event[gi] = None;
                        self.pending[gi] = new_val;
                    } else if new_val != self.pending[gi] || self.active_event[gi].is_none() {
                        self.pending[gi] = new_val;
                        self.schedule_gate_event(gi, event.time, new_val);
                    }
                }
            }
        }
    }

    fn schedule_gate_event(&mut self, gate_index: usize, now: u64, value: bool) {
        let gate = &self.netlist.gates()[gate_index];
        let ev = Event {
            time: now + self.gate_delays[gate_index],
            seq: self.seq,
            net: gate.output,
            value,
            origin: Some(gate_index),
        };
        self.active_event[gate_index] = Some(ev.seq);
        self.seq += 1;
        self.queue.push(Reverse(ev));
    }

    /// Evaluate every gate once and schedule updates.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapSimError::Oscillation`].
    pub fn settle(&mut self, max_events: usize) -> Result<u64, HeapSimError> {
        let netlist = self.netlist;
        for (gi, gate) in netlist.gates().iter().enumerate() {
            let new_val = gate
                .kind
                .eval_iter(gate.inputs.iter().map(|n| self.values[n.0]));
            self.pending[gi] = new_val;
            if new_val != self.values[gate.output.0] {
                let now = self.time;
                self.schedule_gate_event(gi, now, new_val);
            }
        }
        self.run_until_quiet(max_events)
    }

    /// Set a net's value directly without scheduling.
    pub fn preset(&mut self, net: NetId, value: bool) {
        self.values[net.0] = value;
        if let Some(wave) = self.monitored.get_mut(&net.0) {
            wave.push((self.time, value));
        }
    }
}
