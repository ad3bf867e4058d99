use std::fmt;

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
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Add a named internal net and return its id.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
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
}

/// Net→gate fanout of a [`Netlist`] in compressed sparse row form.
///
/// Row `n` lists the distinct gates reading net `n`, in ascending gate order,
/// each with the *multiplicity* of the connection (a gate reading the same net
/// twice — legal for parity gates — appears once with multiplicity 2). The
/// flat layout lets the event loop and the zero-delay oracle walk a net's
/// fanout by index with no per-event clone or allocation, and the
/// multiplicities are what make counter-based incremental gate evaluation
/// exact for `Xor`/`Xnor`.
#[derive(Debug, Clone, Default)]
pub struct Fanout {
    offsets: Vec<u32>,
    gates: Vec<u32>,
    mults: Vec<u32>,
}

impl Fanout {
    /// Build the fanout CSR for `netlist`.
    pub fn build(netlist: &Netlist) -> Self {
        // Per-gate sorted, multiplicity-counted input lists.
        let gate_inputs: Vec<Vec<(usize, u32)>> = netlist
            .gates()
            .iter()
            .map(|gate| {
                let mut nets: Vec<usize> = gate.inputs.iter().map(|n| n.0).collect();
                nets.sort_unstable();
                let mut runs: Vec<(usize, u32)> = Vec::with_capacity(nets.len());
                for n in nets {
                    match runs.last_mut() {
                        Some((last, m)) if *last == n => *m += 1,
                        _ => runs.push((n, 1)),
                    }
                }
                runs
            })
            .collect();
        let mut counts = vec![0u32; netlist.num_nets() + 1];
        for runs in &gate_inputs {
            for &(n, _) in runs {
                counts[n + 1] += 1;
            }
        }
        let mut offsets = counts;
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let total = *offsets.last().expect("offsets") as usize;
        let mut gates = vec![0u32; total];
        let mut mults = vec![0u32; total];
        let mut cursor: Vec<u32> = offsets[..offsets.len() - 1].to_vec();
        // Filling in ascending gate order leaves every row sorted by gate id,
        // which is what makes the fanout walk order (and therefore event
        // sequence numbering) deterministic and equal to the old scheduler's.
        for (gi, runs) in gate_inputs.iter().enumerate() {
            for &(n, m) in runs {
                gates[cursor[n] as usize] = gi as u32;
                mults[cursor[n] as usize] = m;
                cursor[n] += 1;
            }
        }
        Fanout {
            offsets,
            gates,
            mults,
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
        self.gates[k] as usize
    }

    /// The connection multiplicity at flat index `k` of the CSR.
    #[inline]
    pub fn mult_at(&self, k: usize) -> u32 {
        self.mults[k]
    }

    /// Iterator over `(gate_index, multiplicity)` for the gates reading `net`.
    pub fn readers(&self, net: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        let (start, end) = self.row_bounds(net);
        (start..end).map(move |k| (self.gate_at(k), self.mult_at(k)))
    }
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
    fn dff_registration() {
        let mut nl = Netlist::new();
        let clk = nl.add_primary_input("clk");
        let d = nl.add_primary_input("d");
        let q = nl.add_net("q");
        nl.add_dff(clk, d, q);
        assert_eq!(nl.dffs().len(), 1);
    }
}
