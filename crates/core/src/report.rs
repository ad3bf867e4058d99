//! Table-1-style reporting.

use std::fmt;

use crate::SparseSynthesisResult;

/// One row of the paper's Table 1: the benchmark name and the depth metrics of
/// the synthesized FANTOM machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Depth of the `fsv` equation.
    pub fsv_depth: usize,
    /// Depth of the deepest next-state equation.
    pub y_depth: usize,
    /// Worst-case depth to `VOM` assertion.
    pub total_depth: usize,
    /// Number of state variables used by the assignment.
    pub state_vars: usize,
    /// Number of hazardous total states found (size of `FL`).
    pub hazard_states: usize,
}

impl Table1Row {
    /// Header line matching [`Table1Row`]'s `Display` format.
    pub fn header() -> String {
        format!(
            "{:<14} {:>9} {:>8} {:>11} {:>10} {:>13}",
            "Benchmark", "fsv Depth", "Y Depth", "Total Depth", "State Vars", "Hazard States"
        )
    }
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>9} {:>8} {:>11} {:>10} {:>13}",
            self.benchmark,
            self.fsv_depth,
            self.y_depth,
            self.total_depth,
            self.state_vars,
            self.hazard_states
        )
    }
}

/// Extract the Table-1 row of a synthesis result.
pub fn table1_row(result: &SparseSynthesisResult) -> Table1Row {
    Table1Row {
        benchmark: result.name.clone(),
        fsv_depth: result.depth.fsv_depth,
        y_depth: result.depth.y_depth,
        total_depth: result.depth.total_depth,
        state_vars: result.spec.num_state_vars(),
        hazard_states: result.hazards.hazard_state_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize_sparse, SynthesisOptions};
    use fantom_flow::benchmarks;

    #[test]
    fn row_reflects_result_and_formats() {
        let table = benchmarks::lion();
        let result = synthesize_sparse(&table, &SynthesisOptions::default()).unwrap();
        let row = table1_row(&result);
        assert_eq!(row.benchmark, "lion");
        assert_eq!(row.total_depth, result.depth.total_depth);
        let text = format!("{}\n{row}", Table1Row::header());
        assert!(text.contains("lion"));
        assert!(text.contains("Total Depth"));
    }
}
