use std::fmt;
use std::sync::OnceLock;

use fantom_boolean::Expr;

/// Identifier of a net (wire) in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub usize);

impl NetId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The logic function computed by a [`Gate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Identity (used to model line/loop delays).
    Buf,
    /// Inverter.
    Not,
    /// N-ary AND.
    And,
    /// N-ary OR.
    Or,
    /// N-ary NAND.
    Nand,
    /// N-ary NOR.
    Nor,
    /// N-ary XOR (parity).
    Xor,
    /// N-ary XNOR (complement of parity).
    Xnor,
}

impl GateKind {
    /// Evaluate the gate function on the given input values.
    pub fn eval(self, inputs: &[bool]) -> bool {
        self.eval_iter(inputs.iter().copied())
    }

    /// Evaluate the gate over an iterator of input values without
    /// materializing a slice — the allocation-free path the event loop uses.
    pub fn eval_iter(self, mut inputs: impl Iterator<Item = bool>) -> bool {
        match self {
            GateKind::Buf => inputs.next().expect("gate input"),
            GateKind::Not => !inputs.next().expect("gate input"),
            GateKind::And => inputs.all(|b| b),
            GateKind::Or => inputs.any(|b| b),
            GateKind::Nand => !inputs.all(|b| b),
            GateKind::Nor => !inputs.any(|b| b),
            GateKind::Xor => inputs.filter(|&b| b).count() % 2 == 1,
            GateKind::Xnor => inputs.filter(|&b| b).count() % 2 == 0,
        }
    }
}

/// A combinational gate instance.
///
/// The engines do not evaluate a `Gate` itself: the netlist's [`Fanout`]
/// compiles each gate into a packed record of its output net and a rule on
/// its true-input count, which is all they read per evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Logic function.
    pub kind: GateKind,
    /// Input nets (order matters only for documentation; all functions are
    /// symmetric except `Buf`/`Not`, which use the first input).
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
}

/// A rising-edge-triggered D flip-flop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dff {
    /// Clock net; the flip-flop samples on a 0→1 transition of this net.
    pub clock: NetId,
    /// Data input net.
    pub data: NetId,
    /// Output net.
    pub q: NetId,
}

/// A flat gate-level netlist.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    net_names: Vec<String>,
    gates: Vec<Gate>,
    dffs: Vec<Dff>,
    primary_inputs: Vec<NetId>,
    /// The fanout, driver and flip-flop indexes, built on first use and
    /// shared by every simulator and oracle over this netlist; each edit
    /// drops them.
    fanout: OnceLock<Fanout>,
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Add a named internal net and return its id.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        self.fanout.take();
        self.net_names.push(name.into());
        NetId(self.net_names.len() - 1)
    }

    /// Add a primary input net.
    pub fn add_primary_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.primary_inputs.push(id);
        id
    }

    /// Add a gate driving `output` from `inputs` and return its index.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or any referenced net does not exist.
    pub fn add_gate(&mut self, kind: GateKind, inputs: Vec<NetId>, output: NetId) -> usize {
        assert!(!inputs.is_empty(), "gate must have at least one input");
        for n in inputs.iter().chain(std::iter::once(&output)) {
            assert!(n.0 < self.net_names.len(), "net {n} does not exist");
        }
        self.fanout.take();
        self.gates.push(Gate {
            kind,
            inputs,
            output,
        });
        self.gates.len() - 1
    }

    /// Add a rising-edge D flip-flop.
    ///
    /// # Panics
    ///
    /// Panics if any referenced net does not exist.
    pub fn add_dff(&mut self, clock: NetId, data: NetId, q: NetId) -> usize {
        for n in [clock, data, q] {
            assert!(n.0 < self.net_names.len(), "net {n} does not exist");
        }
        self.fanout.take();
        self.dffs.push(Dff { clock, data, q });
        self.dffs.len() - 1
    }

    /// Instantiate gates computing `expr` over the nets `var_nets`
    /// (variable `i` of the expression reads `var_nets[i]`), returning the
    /// output net. Constant sub-expressions become `Buf`/`Not` gates fed from
    /// a dedicated constant-zero net named `const0`.
    ///
    /// # Panics
    ///
    /// Panics if the expression references a variable index outside `var_nets`.
    pub fn add_expr(&mut self, expr: &Expr, var_nets: &[NetId], name_hint: &str) -> NetId {
        match expr {
            Expr::Var(i) => var_nets[*i],
            Expr::Const(value) => {
                let zero = self.const_zero();
                if *value {
                    let out = self.add_net(format!("{name_hint}_const1"));
                    self.add_gate(GateKind::Not, vec![zero], out);
                    out
                } else {
                    zero
                }
            }
            Expr::Not(inner) => {
                let input = self.add_expr(inner, var_nets, name_hint);
                let out = self.add_net(format!("{name_hint}_not"));
                self.add_gate(GateKind::Not, vec![input], out);
                out
            }
            Expr::And(ops) | Expr::Or(ops) | Expr::Nor(ops) | Expr::Nand(ops) => {
                let kind = match expr {
                    Expr::And(_) => GateKind::And,
                    Expr::Or(_) => GateKind::Or,
                    Expr::Nor(_) => GateKind::Nor,
                    _ => GateKind::Nand,
                };
                let inputs: Vec<NetId> = ops
                    .iter()
                    .map(|op| self.add_expr(op, var_nets, name_hint))
                    .collect();
                let out = self.add_net(format!("{name_hint}_{kind:?}").to_lowercase());
                self.add_gate(kind, inputs, out);
                out
            }
        }
    }

    fn const_zero(&mut self) -> NetId {
        if let Some(pos) = self.net_names.iter().position(|n| n == "const0") {
            NetId(pos)
        } else {
            self.add_net("const0")
        }
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The gates of the netlist.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The flip-flops of the netlist.
    pub fn dffs(&self) -> &[Dff] {
        &self.dffs
    }

    /// The declared primary inputs.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// The name of a net.
    ///
    /// # Panics
    ///
    /// Panics if the net does not exist.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.0]
    }

    /// Find a net by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_names.iter().position(|n| n == name).map(NetId)
    }

    /// The netlist's indexes, built once per netlist: campaigns build a
    /// simulator (and an oracle) per delay assignment over one netlist.
    pub(crate) fn fanout(&self) -> &Fanout {
        self.fanout.get_or_init(|| Fanout::build(self))
    }
}

/// The per-net and per-gate indexes of a [`Netlist`] that the simulator and
/// the zero-delay oracle walk: the gates reading each net (its fanout), the
/// gates driving it and the flip-flops it clocks, each in compressed sparse
/// row form, which nets are flip-flop outputs, each net's two event-loop
/// flags and each gate's evaluation record. They depend only on the
/// netlist, which builds them once and shares them with every engine over it.
///
/// Row `n` of the fanout lists the distinct gates reading net `n`, in
/// ascending gate order, each paired with the *multiplicity* of the
/// connection (a gate reading the same net twice — legal for parity gates —
/// appears once with multiplicity 2). The flat layout lets the event loop and
/// the zero-delay oracle walk a net's fanout with no per-event clone or
/// allocation, and the multiplicities are what make counter-based
/// incremental gate evaluation exact for `Xor`/`Xnor`.
///
/// Every engine keeps, per gate, its *true-input count*: its input
/// connections that are true, with multiplicity. A gate's record holds its
/// output net and a rule giving its value from that count,
/// `((count & mask) == target) != invert`:
///
/// | gate | `mask` | `target` | `invert` |
/// |---|---|---|---|
/// | `And` / `Nand` | all bits | fan-in | no / yes |
/// | `Nor`, and `Not` of one input | all bits | 0 | no |
/// | `Or`, and `Buf` of one input | all bits | 0 | yes |
/// | `Xor` / `Xnor` | 1 | 1 | no / yes |
///
/// A `Buf` or `Not` of several inputs reads its first input only, so its
/// record names that net, and its rule reads that input alone as the count.
/// An evaluation reads one record, never the [`Gate`] and its input list.
///
/// Per net, the event loop also reads the net's sole driver, if it has
/// exactly one (an event from that driver then skips the driver row), and
/// whether it clocks a flip-flop (a rising edge of a net that clocks none
/// then skips the clock row).
#[derive(Debug, Clone, Default)]
pub struct Fanout {
    offsets: Vec<u32>,
    /// Per connection, in row order: `(gate, multiplicity)`.
    readers: Vec<(u32, u32)>,
    /// Net `n`'s drivers are `drivers[driver_offsets[n]..driver_offsets[n + 1]]`.
    driver_offsets: Vec<u32>,
    drivers: Vec<u32>,
    /// Net `n` clocks the flip-flops `clocked[clock_offsets[n]..clock_offsets[n + 1]]`.
    clock_offsets: Vec<u32>,
    clocked: Vec<u32>,
    /// Per net: `true` for flip-flop outputs.
    dff_q: Vec<bool>,
    /// Per net: its event-loop flags.
    flags: Vec<NetFlags>,
    /// Per gate: its evaluation record.
    records: Vec<GateRecord>,
}

/// No net or gate: a [`GateRecord`] of a gate that evaluates by its count,
/// or a [`NetFlags`] of a net without exactly one driver.
const NONE: u32 = u32::MAX;

/// A gate's evaluation record (see [`Fanout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GateRecord {
    /// The output net.
    pub(crate) output: u32,
    /// The net a `Buf` or `Not` of several inputs copies, or [`NONE`].
    first: u32,
    mask: u32,
    target: u32,
    invert: bool,
}

impl GateRecord {
    fn new(gate: &Gate) -> Self {
        let fanin = u32::try_from(gate.inputs.len()).expect("fan-in fits a u32");
        let (mask, target, invert) = match gate.kind {
            GateKind::And => (!0, fanin, false),
            GateKind::Nand => (!0, fanin, true),
            GateKind::Nor | GateKind::Not => (!0, 0, false),
            GateKind::Or | GateKind::Buf => (!0, 0, true),
            GateKind::Xor => (1, 1, false),
            GateKind::Xnor => (1, 1, true),
        };
        let first = match gate.kind {
            GateKind::Buf | GateKind::Not if fanin > 1 => net_u32(gate.inputs[0]),
            _ => NONE,
        };
        GateRecord {
            output: net_u32(gate.output),
            first,
            mask,
            target,
            invert,
        }
    }

    /// The gate's value when `count` of its input connections are true and
    /// the nets hold `values`. A gate that copies its first input counts
    /// that input alone, so the rule of a one-input `Buf` or `Not` holds.
    #[inline]
    pub(crate) fn value(self, count: u32, values: &[bool]) -> bool {
        let count = if self.first == NONE {
            count
        } else {
            u32::from(values[self.first as usize])
        };
        (count & self.mask == self.target) != self.invert
    }
}

/// A net's event-loop flags (see [`Fanout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NetFlags {
    /// The net's only driver, or [`NONE`] when it has none or several.
    pub(crate) sole_driver: u32,
    /// Whether the net clocks a flip-flop.
    pub(crate) clocks: bool,
}

fn net_u32(net: NetId) -> u32 {
    u32::try_from(net.0).expect("net ids fit a u32")
}

impl Fanout {
    /// Build the indexes of `netlist`.
    pub fn build(netlist: &Netlist) -> Self {
        let nets = netlist.num_nets();
        // `(net, (gate, multiplicity))` per distinct connection, in gate
        // order, which leaves every fanout row sorted by gate id: that is
        // what makes the fanout walk order (and therefore event sequence
        // numbering) deterministic.
        let mut readers: Vec<(usize, (u32, u32))> = Vec::new();
        for (gi, gate) in netlist.gates().iter().enumerate() {
            let gi = gi as u32;
            let mut inputs: Vec<usize> = gate.inputs.iter().map(|n| n.0).collect();
            inputs.sort_unstable();
            for net in inputs {
                match readers.last_mut() {
                    Some((n, (g, mult))) if (*n, *g) == (net, gi) => *mult += 1,
                    _ => readers.push((net, (gi, 1))),
                }
            }
        }
        let (offsets, readers) = csr(nets, readers.iter().copied());
        let outputs = netlist.gates().iter().map(|gate| gate.output.0);
        let (driver_offsets, drivers) = csr(nets, outputs.zip(0..));
        let clocks = netlist.dffs().iter().map(|dff| dff.clock.0);
        let (clock_offsets, clocked) = csr(nets, clocks.zip(0..));
        let mut dff_q = vec![false; nets];
        for dff in netlist.dffs() {
            dff_q[dff.q.0] = true;
        }
        let flags = (0..nets)
            .map(|n| NetFlags {
                sole_driver: match row(&driver_offsets, &drivers, n) {
                    &[gi] => gi,
                    _ => NONE,
                },
                clocks: !row(&clock_offsets, &clocked, n).is_empty(),
            })
            .collect();
        Fanout {
            offsets,
            readers,
            driver_offsets,
            drivers,
            clock_offsets,
            clocked,
            dff_q,
            flags,
            records: netlist.gates().iter().map(GateRecord::new).collect(),
        }
    }

    /// Index bounds of net `n`'s row (for index-based walks that must not
    /// borrow the whole structure).
    #[inline]
    pub fn row_bounds(&self, net: usize) -> (usize, usize) {
        (self.offsets[net] as usize, self.offsets[net + 1] as usize)
    }

    /// The gate at flat index `k` of the CSR.
    #[inline]
    pub fn gate_at(&self, k: usize) -> usize {
        self.readers[k].0 as usize
    }

    /// The connection multiplicity at flat index `k` of the CSR.
    #[inline]
    pub fn mult_at(&self, k: usize) -> u32 {
        self.readers[k].1
    }

    /// Iterator over `(gate_index, multiplicity)` for the gates reading `net`.
    pub fn readers(&self, net: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        (self.reader_row(net).iter()).map(|&(gi, mult)| (gi as usize, mult))
    }

    /// The `(gate, multiplicity)` pairs of the gates reading `net`.
    #[inline]
    pub(crate) fn reader_row(&self, net: usize) -> &[(u32, u32)] {
        row(&self.offsets, &self.readers, net)
    }

    /// The gates driving `net`, in ascending order.
    pub(crate) fn drivers(&self, net: usize) -> &[u32] {
        row(&self.driver_offsets, &self.drivers, net)
    }

    /// The flip-flops clocked by `net`, in ascending order.
    pub(crate) fn clocked_dffs(&self, net: usize) -> &[u32] {
        row(&self.clock_offsets, &self.clocked, net)
    }

    /// Per net: `true` for flip-flop outputs.
    pub(crate) fn dff_q(&self) -> &[bool] {
        &self.dff_q
    }

    /// Net `net`'s event-loop flags.
    #[inline]
    pub(crate) fn flags(&self, net: usize) -> NetFlags {
        self.flags[net]
    }

    /// Gate `gi`'s evaluation record.
    #[inline]
    pub(crate) fn record(&self, gi: usize) -> GateRecord {
        self.records[gi]
    }
}

/// Compressed sparse rows over `rows` rows from `(row, item)` pairs: the row
/// offsets, and each row's items in the order the pairs list them.
fn csr<T: Copy + Default>(
    rows: usize,
    pairs: impl Iterator<Item = (usize, T)> + Clone,
) -> (Vec<u32>, Vec<T>) {
    let mut offsets = vec![0u32; rows + 1];
    for (row, _) in pairs.clone() {
        offsets[row + 1] += 1;
    }
    for r in 0..rows {
        offsets[r + 1] += offsets[r];
    }
    let mut cursor = offsets.clone();
    let mut items = vec![T::default(); offsets[rows] as usize];
    for (row, item) in pairs {
        items[cursor[row] as usize] = item;
        cursor[row] += 1;
    }
    (offsets, items)
}

/// Row `n` of a compressed sparse row index.
#[inline]
fn row<'s, T>(offsets: &[u32], items: &'s [T], n: usize) -> &'s [T] {
    &items[offsets[n] as usize..offsets[n + 1] as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_functions() {
        assert!(GateKind::And.eval(&[true, true]));
        assert!(!GateKind::And.eval(&[true, false]));
        assert!(GateKind::Or.eval(&[false, true]));
        assert!(GateKind::Nor.eval(&[false, false]));
        assert!(!GateKind::Nand.eval(&[true, true]));
        assert!(GateKind::Xor.eval(&[true, false, false]));
        assert!(GateKind::Xnor.eval(&[true, true, false]));
        assert!(GateKind::Not.eval(&[false]));
        assert!(GateKind::Buf.eval(&[true]));
    }

    #[test]
    fn build_and_lookup_nets() {
        let mut nl = Netlist::new();
        let a = nl.add_primary_input("a");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Not, vec![a], y);
        assert_eq!(nl.num_nets(), 2);
        assert_eq!(nl.num_gates(), 1);
        assert_eq!(nl.net_by_name("y"), Some(y));
        assert_eq!(nl.net_name(a), "a");
        assert_eq!(nl.primary_inputs(), &[a]);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn empty_gate_inputs_panic() {
        let mut nl = Netlist::new();
        let y = nl.add_net("y");
        nl.add_gate(GateKind::And, vec![], y);
    }

    #[test]
    fn expr_instantiation_matches_expr_eval() {
        use fantom_boolean::Cover;
        let cover = Cover::parse(3, "1-0 011").unwrap();
        let expr = Expr::first_level_gates(&cover);

        let mut nl = Netlist::new();
        let vars: Vec<NetId> = (0..3)
            .map(|i| nl.add_primary_input(format!("x{i}")))
            .collect();
        let out = nl.add_expr(&expr, &vars, "f");
        assert!(nl.num_gates() > 0);
        assert!(nl.net_name(out).starts_with("f_"));
    }

    #[test]
    fn fanout_rows_are_sorted_with_multiplicity() {
        let mut nl = Netlist::new();
        let a = nl.add_primary_input("a");
        let b = nl.add_primary_input("b");
        let y0 = nl.add_net("y0");
        let y1 = nl.add_net("y1");
        nl.add_gate(GateKind::Xor, vec![a, a, b], y0); // a read twice
        nl.add_gate(GateKind::And, vec![a, b], y1);
        let fanout = Fanout::build(&nl);
        let a_readers: Vec<(usize, u32)> = fanout.readers(a.0).collect();
        assert_eq!(a_readers, vec![(0, 2), (1, 1)]);
        let b_readers: Vec<(usize, u32)> = fanout.readers(b.0).collect();
        assert_eq!(b_readers, vec![(0, 1), (1, 1)]);
        assert_eq!(fanout.readers(y0.0).count(), 0);
    }

    #[test]
    fn cached_fanout_follows_every_edit() {
        let flags = |sole_driver, clocks| NetFlags {
            sole_driver,
            clocks,
        };
        let mut nl = Netlist::new();
        let a = nl.add_primary_input("a");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Not, vec![a], y);
        assert!(std::ptr::eq(nl.fanout(), nl.fanout()), "built once");
        assert_eq!(nl.fanout().readers(a.0).collect::<Vec<_>>(), [(0, 1)]);
        assert_eq!(nl.fanout().flags(y.0), flags(0, false));
        let z = nl.add_net("z");
        assert_eq!(nl.fanout().readers(z.0).count(), 0, "a new net has a row");
        assert_eq!(nl.fanout().flags(z.0), flags(NONE, false), "and flags");
        nl.add_gate(GateKind::And, vec![a, y], z);
        let readers: Vec<(usize, u32)> = nl.fanout().readers(a.0).collect();
        assert_eq!(readers, [(0, 1), (1, 1)]);
        assert_eq!(nl.fanout().record(1), GateRecord::new(&nl.gates()[1]));
        assert_eq!(nl.fanout().flags(z.0), flags(1, false), "a new sole driver");
        // A second driver of `z`, a multi-input `Buf` reading `y` first.
        nl.add_gate(GateKind::Buf, vec![y, a], z);
        assert_eq!(nl.fanout().flags(z.0), flags(NONE, false), "two drivers");
        let values = [true, false, false];
        assert!(!nl.fanout().record(2).value(1, &values), "copies y");
        let q = nl.add_net("q");
        nl.add_dff(a, z, q);
        assert_eq!(nl.fanout().flags(a.0), flags(NONE, true), "a clocks q");
        assert_eq!(nl.fanout().flags(q.0), flags(NONE, false));
        let clone = nl.clone();
        let rebuilt = Fanout::build(&nl);
        for net in 0..nl.num_nets() {
            let row: Vec<(usize, u32)> = rebuilt.readers(net).collect();
            assert_eq!(clone.fanout().readers(net).collect::<Vec<_>>(), row);
            assert_eq!(clone.fanout().flags(net), rebuilt.flags(net));
        }
        for gi in 0..nl.num_gates() {
            assert_eq!(clone.fanout().record(gi), rebuilt.record(gi));
            assert_eq!(rebuilt.record(gi), GateRecord::new(&nl.gates()[gi]));
        }
    }

    /// Every input list of 1–5 connections over five nets, up to renaming
    /// the nets (each list names its nets in order of first use), with no
    /// net read more than three times.
    fn input_lists() -> Vec<Vec<usize>> {
        let mut lists = Vec::new();
        let mut open = vec![vec![0]];
        while let Some(list) = open.pop() {
            let fresh = list.iter().max().unwrap() + 1;
            if list.len() < 5 {
                for net in 0..=fresh {
                    let mut longer = list.clone();
                    longer.push(net);
                    open.push(longer);
                }
            }
            if (0..fresh).all(|n| list.iter().filter(|&&m| m == n).count() <= 3) {
                lists.push(list);
            }
        }
        lists
    }

    #[test]
    fn records_evaluate_every_gate_as_its_kind_does() {
        const KINDS: [GateKind; 8] = [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        let lists = input_lists();
        assert_eq!(lists.len(), 68, "75 lists, 7 reading a net 4 or 5 times");
        assert!(lists
            .iter()
            .any(|l| l.iter().filter(|&&n| n == 0).count() == 3));
        for kind in KINDS {
            for list in &lists {
                let mut nl = Netlist::new();
                let nets: Vec<NetId> = (0..5).map(|i| nl.add_net(format!("i{i}"))).collect();
                let out = nl.add_net("out");
                nl.add_gate(kind, list.iter().map(|&i| nets[i]).collect(), out);
                let record = nl.fanout().record(0);
                assert_eq!(record.output, out.0 as u32);
                for assignment in 0u32..32 {
                    let mut values: Vec<bool> = (0..5).map(|i| assignment >> i & 1 == 1).collect();
                    values.push(false);
                    let inputs: Vec<bool> = list.iter().map(|&i| values[i]).collect();
                    let count = inputs.iter().filter(|&&v| v).count() as u32;
                    let value = record.value(count, &values);
                    let at = format!("{kind:?} over {list:?} at {inputs:?}");
                    assert_eq!(value, kind.eval(&inputs), "{at}");
                    match kind {
                        GateKind::Buf => assert_eq!(value, inputs[0], "{at}"),
                        GateKind::Not => assert_eq!(value, !inputs[0], "{at}"),
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn indexes_list_drivers_clocks_and_flip_flop_outputs() {
        let mut nl = Netlist::new();
        let clk = nl.add_primary_input("clk");
        let a = nl.add_primary_input("a");
        let y = nl.add_net("y");
        let q = nl.add_net("q");
        nl.add_gate(GateKind::Not, vec![a], y);
        nl.add_gate(GateKind::Buf, vec![clk], y); // a second driver of `y`
        assert_eq!(nl.fanout().drivers(y.0), [0, 1]);
        assert!(nl.fanout().drivers(a.0).is_empty());
        assert!(nl.fanout().clocked_dffs(clk.0).is_empty());
        assert_eq!(nl.fanout().dff_q(), [false; 4]);
        // Each flip-flop drops the cached indexes.
        nl.add_dff(clk, y, q);
        nl.add_dff(clk, a, y);
        assert_eq!(nl.fanout().clocked_dffs(clk.0), [0, 1]);
        assert!(nl.fanout().clocked_dffs(y.0).is_empty());
        assert_eq!(nl.fanout().dff_q(), [false, false, true, true]);
        assert!(nl.fanout().drivers(q.0).is_empty());
    }

    #[test]
    fn dff_registration() {
        let mut nl = Netlist::new();
        let clk = nl.add_primary_input("clk");
        let d = nl.add_primary_input("d");
        let q = nl.add_net("q");
        nl.add_dff(clk, d, q);
        assert_eq!(nl.dffs().len(), 1);
    }
}
