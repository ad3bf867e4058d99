//! Gate-level emission of the full FANTOM machine (Figure 1 of the paper).
//!
//! The synthesized equations are instantiated as a `fantom_sim::Netlist`:
//!
//! * the next-state logic `Y` (a function of `x`, `y` and `fsv`),
//! * the fantom state variable `fsv` and the stable-state detector `SSD`
//!   (functions of `x` and `y`),
//! * the output logic `Z`,
//! * the feedback loop closing `Y → y` through a chain of buffers that models
//!   the loop-delay assumption (the maximum line delay must be smaller than
//!   the minimum loop delay),
//! * the output capture stage: a `capture = SSD ∧ ¬fsv` gate standing in for
//!   the `VOM` condition, clocking rising-edge flip-flops that latch `Z`
//!   (`FFZ` in the paper's block diagram).
//!
//! External handshake signals (`G`, `VI`, `VOM` chaining between stages) are
//! environment-level and are exercised by the validation harness rather than
//! instantiated as gates.

use fantom_boolean::{Cover, Expr};
use fantom_flow::FlowTable;
use fantom_sim::{GateKind, NetId, Netlist};

use crate::factoring::FactoredEquations;
use crate::spec::SpecifiedTable;
use crate::SparseSynthesisResult;

/// Borrowed view of the pieces of a synthesis result the emitter (and the
/// campaign driver) needs.
#[derive(Debug, Clone, Copy)]
pub struct MachineParts<'a> {
    /// Machine name.
    pub name: &'a str,
    /// The flow table that was synthesized (post-reduction).
    pub table: &'a FlowTable,
    /// The table paired with its USTT assignment.
    pub spec: &'a SpecifiedTable,
    /// Factored, hazard-free `fsv` / next-state equations (Step 7).
    pub factored: &'a FactoredEquations,
    /// Output expressions `Z₁ … Z_k` (Step 4).
    pub z_exprs: &'a [Expr],
    /// Stable-state-detector expression (Step 4).
    pub ssd_expr: &'a Expr,
    /// Covers behind `z_exprs`, for analytical hazard verdicts.
    pub z_covers: &'a [Cover],
    /// Cover behind `ssd_expr`, for analytical hazard verdicts.
    pub ssd_cover: &'a Cover,
    /// Total combinational depth (sizes the loop-delay assumption).
    pub total_depth: usize,
}

impl<'a> From<&'a SparseSynthesisResult> for MachineParts<'a> {
    fn from(result: &'a SparseSynthesisResult) -> Self {
        MachineParts {
            name: &result.name,
            table: &result.reduced_table,
            spec: &result.spec,
            factored: &result.factored,
            z_exprs: &result.outputs.z_exprs,
            ssd_expr: &result.outputs.ssd_expr,
            z_covers: &result.outputs.z_covers,
            ssd_cover: &result.outputs.ssd_cover,
            total_depth: result.depth.total_depth,
        }
    }
}

/// The emitted FANTOM machine with its port map.
#[derive(Debug, Clone)]
pub struct FantomNetlist {
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// External/internal input nets `x₁ … x_j` (primary inputs).
    pub x: Vec<NetId>,
    /// Present-state nets `y₁ … y_n` (outputs of the feedback buffers).
    pub y: Vec<NetId>,
    /// Combinational next-state nets `Y₁ … Y_n` (before the feedback buffers).
    pub y_next: Vec<NetId>,
    /// Combinational output nets `Z₁ … Z_k`.
    pub z: Vec<NetId>,
    /// Latched output nets (captured when the machine signals stability).
    pub z_latched: Vec<NetId>,
    /// The fantom state variable net.
    pub fsv: NetId,
    /// The stable-state detector net.
    pub ssd: NetId,
    /// The output-capture condition net (`SSD ∧ ¬fsv`).
    pub capture: NetId,
    /// Number of buffer stages in each feedback loop.
    pub loop_stages: usize,
    /// Gate indices of the feedback buffers, one vector per state variable.
    /// Simulation harnesses use these to enforce the loop-delay assumption
    /// (the feedback must be slower than any combinational settling path).
    pub loop_gates: Vec<Vec<usize>>,
}

/// Default number of feedback buffer stages; large enough that the loop delay
/// exceeds any single combinational path under the randomized delay models
/// used by the validation harness.
pub const DEFAULT_LOOP_STAGES: usize = 6;

/// Instantiate the FANTOM machine from a [`MachineParts`] view (build one
/// from a synthesis result with `MachineParts::from(&result)`).
///
/// `loop_stages` buffers are inserted in every `Y → y` feedback path; pass
/// [`DEFAULT_LOOP_STAGES`] unless an experiment needs to vary the loop delay.
pub fn emit_parts(result: &MachineParts<'_>, loop_stages: usize) -> FantomNetlist {
    let spec = result.spec;
    let j = spec.num_inputs();
    let n = spec.num_state_vars();
    let k = spec.num_outputs();
    let stages = loop_stages.max(1);

    let mut netlist = Netlist::new();
    let x: Vec<NetId> = (1..=j)
        .map(|i| netlist.add_primary_input(format!("x{i}")))
        .collect();
    let y: Vec<NetId> = (1..=n).map(|i| netlist.add_net(format!("y{i}"))).collect();

    // Variable ordering (x, y) for fsv / SSD / Z.
    let mut xy: Vec<NetId> = x.clone();
    xy.extend(y.iter().copied());

    let fsv = netlist.add_net("fsv");
    let fsv_out = netlist.add_expr(&result.factored.fsv_expr, &xy, "fsv");
    netlist.add_gate(GateKind::Buf, vec![fsv_out], fsv);

    let ssd = netlist.add_net("ssd");
    let ssd_out = netlist.add_expr(result.ssd_expr, &xy, "ssd");
    netlist.add_gate(GateKind::Buf, vec![ssd_out], ssd);

    // Variable ordering (x, y, fsv) for the next-state logic.
    let mut xyf = xy.clone();
    xyf.push(fsv);

    let mut y_next = Vec::with_capacity(n);
    for (i, expr) in result.factored.y_exprs.iter().enumerate() {
        let out = netlist.add_net(format!("Y{}", i + 1));
        let logic = netlist.add_expr(expr, &xyf, &format!("Y{}", i + 1));
        netlist.add_gate(GateKind::Buf, vec![logic], out);
        y_next.push(out);
    }

    // Feedback loops: Y_i -> (buffer chain) -> y_i.
    let mut loop_gates: Vec<Vec<usize>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut gates = Vec::with_capacity(stages);
        let mut prev = y_next[i];
        for stage in 0..stages - 1 {
            let mid = netlist.add_net(format!("loop{}_{stage}", i + 1));
            gates.push(netlist.add_gate(GateKind::Buf, vec![prev], mid));
            prev = mid;
        }
        gates.push(netlist.add_gate(GateKind::Buf, vec![prev], y[i]));
        loop_gates.push(gates);
    }

    // Output logic and capture stage.
    let mut z = Vec::with_capacity(k);
    for (i, expr) in result.z_exprs.iter().enumerate() {
        let out = netlist.add_net(format!("z{}", i + 1));
        let logic = netlist.add_expr(expr, &xy, &format!("z{}", i + 1));
        netlist.add_gate(GateKind::Buf, vec![logic], out);
        z.push(out);
    }

    let not_fsv = netlist.add_net("fsv_n");
    netlist.add_gate(GateKind::Not, vec![fsv], not_fsv);
    let capture = netlist.add_net("capture");
    netlist.add_gate(GateKind::And, vec![ssd, not_fsv], capture);

    let mut z_latched = Vec::with_capacity(k);
    for (i, &zi) in z.iter().enumerate() {
        let q = netlist.add_net(format!("zl{}", i + 1));
        netlist.add_dff(capture, zi, q);
        z_latched.push(q);
    }

    FantomNetlist {
        netlist,
        x,
        y,
        y_next,
        z,
        z_latched,
        fsv,
        ssd,
        capture,
        loop_stages: stages,
        loop_gates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize_sparse, SynthesisOptions};
    use fantom_flow::benchmarks;

    fn netlist_of(result: &SparseSynthesisResult, loop_stages: usize) -> FantomNetlist {
        emit_parts(&MachineParts::from(result), loop_stages)
    }

    #[test]
    fn emitted_netlist_has_expected_ports() {
        let result = synthesize_sparse(&benchmarks::lion(), &SynthesisOptions::default()).unwrap();
        let machine = netlist_of(&result, DEFAULT_LOOP_STAGES);
        assert_eq!(machine.x.len(), 2);
        assert_eq!(machine.y.len(), result.spec.num_state_vars());
        assert_eq!(machine.z.len(), 1);
        assert_eq!(machine.z_latched.len(), 1);
        assert!(machine.netlist.num_gates() > 10);
        assert_eq!(machine.netlist.dffs().len(), 1);
        assert_eq!(machine.netlist.primary_inputs().len(), 2);
    }

    #[test]
    fn loop_stage_count_is_respected() {
        let result = synthesize_sparse(&benchmarks::lion(), &SynthesisOptions::default()).unwrap();
        let small = netlist_of(&result, 1);
        let large = netlist_of(&result, 8);
        assert!(large.netlist.num_gates() > small.netlist.num_gates());
        assert_eq!(large.loop_stages, 8);
        // Requesting zero stages is clamped to one buffer.
        assert_eq!(netlist_of(&result, 0).loop_stages, 1);
    }

    #[test]
    fn every_benchmark_emits_a_netlist() {
        for table in benchmarks::paper_suite() {
            let result = synthesize_sparse(&table, &SynthesisOptions::default()).unwrap();
            let machine = netlist_of(&result, DEFAULT_LOOP_STAGES);
            assert!(machine.netlist.num_gates() > 0, "{}", table.name());
            assert!(machine.netlist.net_by_name("fsv").is_some());
            assert!(machine.netlist.net_by_name("capture").is_some());
        }
    }
}
