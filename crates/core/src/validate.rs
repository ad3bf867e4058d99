//! Static validation of synthesized FANTOM machines.
//!
//! The checks ([`verify_hold_property`], [`verify_fsv_marks_hazards`],
//! [`verify_equations_implement_table`]) evaluate the factored equations at
//! every specified total state and establish the paper's structural claims:
//! hazardous minterms are held while `fsv = 0`, `fsv` marks exactly the
//! hazard states, and the machine still implements the flow table. They walk
//! the specified points of the cover functions, never the whole `2^n` space.
//!
//! Delay-accurate validation of the emitted netlist — every stable
//! transition under sampled gate delays and skewed input edges — is the
//! job of the Monte-Carlo campaigns in [`crate::campaign`].

use fantom_boolean::Cover;

use crate::SparseSynthesisResult;

/// The variable values of `minterm` over `vars` variables, most significant
/// variable first.
fn minterm_bits(minterm: u64, vars: usize) -> Vec<bool> {
    (0..vars)
        .map(|i| (minterm >> (vars - 1 - i)) & 1 == 1)
        .collect()
}

/// Every minterm of the on- and off-covers: the specified points of a cover
/// function (overlapping cubes repeat their shared points).
fn specified_minterms<'a>(on: &'a Cover, off: &'a Cover) -> impl Iterator<Item = u64> + 'a {
    on.iter().chain(off.iter()).flat_map(|c| c.minterms_iter())
}

/// Static check: at every hazard-list minterm, the factored next-state
/// expression with `fsv = 0` holds the variable at its present value.
///
/// # Errors
///
/// Returns a description of the first violated minterm.
pub fn verify_hold_property(result: &SparseSynthesisResult) -> Result<(), String> {
    let spec = &result.spec;
    let vars = spec.num_vars();
    for (var, hl) in result.hazards.hl.iter().enumerate() {
        for &m in hl {
            let (_, code) = spec.decompose(m);
            let mut bits = minterm_bits(m, vars);
            bits.push(false); // fsv = 0
            let value = result.factored.y_exprs[var].eval(&bits);
            if value != code.bit(var) {
                return Err(format!(
                    "Y{} does not hold its present value at hazard minterm {m} while fsv = 0",
                    var + 1
                ));
            }
        }
    }
    Ok(())
}

/// Static check: the factored `fsv` expression is 1 on every hazard-list state
/// and 0 on every other occupied total state (the specified points of the
/// `fsv` cover function; everything else is a don't-care).
///
/// # Errors
///
/// Returns a description of the first violated minterm.
pub fn verify_fsv_marks_hazards(result: &SparseSynthesisResult) -> Result<(), String> {
    let vars = result.spec.num_vars();
    let fsv = &result.equations.fsv;
    for m in specified_minterms(fsv.on_cover(), fsv.off_cover()) {
        let value = result.factored.fsv_expr.eval(&minterm_bits(m, vars));
        let expected = result.hazards.fl.contains(&m);
        if value != expected {
            return Err(format!(
                "fsv is {value} at minterm {m}, expected {expected}"
            ));
        }
    }
    Ok(())
}

/// Static check: with `fsv` driven by its own equation, the factored
/// next-state expressions reproduce the specified flow-table behaviour at
/// every specified total state.
///
/// # Errors
///
/// Returns a description of the first violated minterm.
pub fn verify_equations_implement_table(result: &SparseSynthesisResult) -> Result<(), String> {
    let spec = &result.spec;
    let vars = spec.num_vars();
    let base = spec
        .next_state_cover_functions()
        .map_err(|e| format!("could not rebuild next-state functions: {e}"))?;
    for (var, base_fn) in base.iter().enumerate() {
        for m in specified_minterms(base_fn.on_cover(), base_fn.off_cover()) {
            let mut bits = minterm_bits(m, vars);
            let fsv_value = result.factored.fsv_expr.eval(&bits);
            bits.push(fsv_value);
            let value = result.factored.y_exprs[var].eval(&bits);
            let expected = base_fn.is_on(m);
            // At a hazard minterm for this variable the fsv=0 half holds the
            // present value; with fsv asserted the table value applies.
            let held = result.hazards.is_hazardous_for(var, m) && !fsv_value;
            if !held && value != expected {
                return Err(format!(
                    "Y{} computes {value} at minterm {m} (fsv = {fsv_value}), expected {expected}",
                    var + 1
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_campaign_sparse, synthesize_sparse, CampaignOptions, SynthesisOptions};
    use fantom_flow::benchmarks;

    #[test]
    fn static_properties_hold_for_every_benchmark() {
        for table in benchmarks::all() {
            let result = synthesize_sparse(&table, &SynthesisOptions::default()).unwrap();
            verify_hold_property(&result).unwrap_or_else(|e| panic!("{}: {e}", table.name()));
            verify_fsv_marks_hazards(&result).unwrap_or_else(|e| panic!("{}: {e}", table.name()));
            verify_equations_implement_table(&result)
                .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
        }
    }

    fn lion_campaign(seed: u64) -> crate::CampaignReport {
        let options = SynthesisOptions {
            minimize_states: false,
            ..SynthesisOptions::default()
        };
        let result = synthesize_sparse(&benchmarks::lion(), &options).unwrap();
        run_campaign_sparse(
            &result,
            &CampaignOptions {
                assignments: 8,
                seed,
                workers: 1,
                ..CampaignOptions::default()
            },
        )
    }

    #[test]
    fn lion_transitions_settle_to_the_correct_state() {
        let r = lion_campaign(1);
        assert!(r.unprotected_steps > 0, "{}", r.render());
        let failures = [
            r.init_failures,
            r.protected.settle_failures,
            r.unprotected.settle_failures,
            r.protected.wrong_final_state,
            r.unprotected.wrong_final_state,
            r.protected.wrong_final_output,
            r.unprotected.wrong_final_output,
        ];
        assert_eq!(failures, [0; 7], "{}", r.render());
    }

    #[test]
    fn invariant_state_variables_do_not_glitch_on_lion() {
        let r = lion_campaign(7);
        let glitches = [
            r.protected.invariant_glitches,
            r.unprotected.invariant_glitches,
        ];
        assert_eq!(glitches, [0, 0], "{}", r.render());
    }
}
