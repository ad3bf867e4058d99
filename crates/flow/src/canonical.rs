//! Canonical forms of flow tables up to relabeling.
//!
//! Two flow tables are *isomorphic* when one can be turned into the other by
//! renaming states (permuting rows), permuting input bits (which permutes the
//! input columns accordingly) and permuting output bits. Isomorphic tables
//! synthesize to the same machine up to the very same renaming, so a synthesis
//! service that recognizes isomorphism can answer a resubmitted controller
//! from a cache instead of the engine (see `seance::service`).
//!
//! [`canonicalize`] computes a **canonical signature**: a byte string that is
//! identical for isomorphic tables and (collision aside) distinct otherwise,
//! together with the relabeling that maps the submitted table onto its
//! canonical form. The algorithm is classical partition refinement with
//! bounded individualization:
//!
//! 1. input-bit and output-bit permutations are enumerated outright (their
//!    count is `num_inputs!·num_outputs!`, tiny for realistic controllers);
//! 2. for each such labeling, states are ordered by iterated color
//!    refinement — a state's color hashes its row behaviour and the colors of
//!    its successors — and remaining ties are broken by individualizing each
//!    member of the first tied class and recursing;
//! 3. the lexicographically smallest serialized table over all explored
//!    labelings is the canonical form.
//!
//! Every step explores an isomorphism-invariant candidate set, so the minimum
//! is well defined on isomorphism classes. When the enumeration or the
//! individualization search would exceed the [`CanonicalOptions`] budgets the
//! table falls back to **exact-form** hashing (identity relabeling, a marker
//! byte that never collides with canonical signatures): only structurally
//! identical submissions then match, which is always sound — the cache merely
//! loses hit opportunities, never correctness.

use crate::{Bits, FlowTable, StateId};

/// Budgets for [`canonicalize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanonicalOptions {
    /// Cap on the number of enumerated input/output-bit labelings
    /// (`num_inputs!·num_outputs!`). Above the cap the table is hashed in
    /// exact form.
    pub max_labelings: usize,
    /// Cap on the total number of refinement runs spent breaking state-color
    /// ties (search-tree nodes across all labelings). Exhausting it falls
    /// back to exact form.
    pub max_refinements: usize,
}

impl Default for CanonicalOptions {
    fn default() -> Self {
        CanonicalOptions {
            max_labelings: 1024,
            max_refinements: 4096,
        }
    }
}

/// The result of [`canonicalize`]: the canonical signature plus the
/// relabeling that carries the submitted table onto its canonical form.
///
/// All maps go **original → canonical**: state `i` of the submitted table is
/// row `state_map[i]` of the canonical table, input bit `i` is canonical input
/// bit `input_map[i]`, output bit `b` is canonical output bit `output_map[b]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canonicalization {
    /// Canonical byte signature — equal for isomorphic tables.
    pub signature: Vec<u8>,
    /// `true` if a budget was exceeded and the signature is the exact
    /// (identity-relabeling) form: only structurally identical tables match.
    pub exact: bool,
    /// Original state index → canonical row index.
    pub state_map: Vec<usize>,
    /// Original input bit position → canonical input bit position.
    pub input_map: Vec<usize>,
    /// Original output bit position → canonical output bit position.
    pub output_map: Vec<usize>,
}

/// Compute the canonical form of `table` under the given budgets.
pub fn canonicalize(table: &FlowTable, options: &CanonicalOptions) -> Canonicalization {
    let ni = table.num_inputs();
    let no = table.num_outputs();
    let labelings = factorial(ni).saturating_mul(factorial(no.max(1)));
    if labelings > options.max_labelings {
        return exact_form(table);
    }

    // (signature, state order, input perm, output perm) of the best labeling.
    type Best = (Vec<u8>, Vec<usize>, Vec<usize>, Vec<usize>);
    let mut budget = options.max_refinements;
    let mut best: Option<Best> = None;
    for input_perm in permutations(ni) {
        let col_map = column_map(ni, &input_perm);
        for output_perm in permutations(no) {
            let Some((sig, order)) = best_signature(table, &col_map, &output_perm, &mut budget)
            else {
                return exact_form(table); // refinement budget exhausted
            };
            let better = best.as_ref().map_or(true, |(b, _, _, _)| sig < *b);
            if better {
                best = Some((sig, order, input_perm.clone(), output_perm));
            }
        }
    }

    let (signature, order, input_map, output_map) = best.expect("at least one labeling explored");
    // `order` lists original states in canonical row order; invert it.
    let mut state_map = vec![0usize; order.len()];
    for (row, &orig) in order.iter().enumerate() {
        state_map[orig] = row;
    }
    Canonicalization {
        signature,
        exact: false,
        state_map,
        input_map,
        output_map,
    }
}

/// Apply a relabeling to a table: state `i` becomes row `state_map[i]` (its
/// name travels with it), input bit `i` moves to position `input_map[i]`
/// (permuting the input columns accordingly), output bit `b` moves to
/// position `output_map[b]`. All three maps must be permutations of the
/// respective dimension.
///
/// Relabeling is invertible: applying [`inverse_permutation`]s of the same
/// maps restores the original table.
///
/// # Panics
///
/// Panics if a map's length does not match its dimension or is not a
/// permutation.
pub fn relabel(
    table: &FlowTable,
    state_map: &[usize],
    input_map: &[usize],
    output_map: &[usize],
    name: &str,
) -> FlowTable {
    let names = permuted_names(table, state_map);
    relabel_with_names(table, state_map, input_map, output_map, name, names)
}

/// The canonical table of a [`Canonicalization`]: `table` relabeled by the
/// canonical maps, with rows renamed `s0, s1, …` and the table renamed
/// `"canonical"` so that any two isomorphic submissions produce **equal**
/// canonical tables (state names are not part of the isomorphism).
pub fn canonical_table(table: &FlowTable, c: &Canonicalization) -> FlowTable {
    let names = (0..table.num_states()).map(|i| format!("s{i}")).collect();
    relabel_with_names(
        table,
        &c.state_map,
        &c.input_map,
        &c.output_map,
        "canonical",
        names,
    )
}

/// Whether `canonical` equals [`canonical_table`]`(table, c)`, decided in
/// place: each entry of `table` is carried through the three maps of `c` and
/// compared with its image, so nothing is allocated. This is the cache-hit
/// test of `seance::service`.
///
/// # Panics
///
/// Panics where [`canonical_table`] does: if a map's length does not match
/// its dimension of `table`.
pub fn canonical_table_eq(table: &FlowTable, c: &Canonicalization, canonical: &FlowTable) -> bool {
    let (ni, no, ns) = (table.num_inputs(), table.num_outputs(), table.num_states());
    assert_eq!(c.state_map.len(), ns);
    assert_eq!(c.input_map.len(), ni);
    assert_eq!(c.output_map.len(), no);
    if canonical.name() != "canonical"
        || canonical.num_inputs() != ni
        || canonical.num_outputs() != no
        || canonical.num_states() != ns
        || !canonical
            .states()
            .all(|s| is_row_label(canonical.state_name(s), s.index()))
    {
        return false;
    }
    table.states().all(|s| {
        let row = StateId(c.state_map[s.index()]);
        (0..table.num_columns()).all(|col| {
            let entry = table.entry(s, col);
            let image = canonical.entry(row, permuted_column(col, &c.input_map));
            image.next == entry.next.map(|t| StateId(c.state_map[t.index()]))
                && match (&entry.output, &image.output) {
                    (None, None) => true,
                    (Some(o), Some(p)) => (c.output_map.iter().enumerate())
                        .all(|(b, &target)| p.bit(target) == o.bit(b)),
                    _ => false,
                }
        })
    })
}

/// Whether `name` is exactly the canonical label `s{row}` of row `row`.
fn is_row_label(name: &str, row: usize) -> bool {
    name.strip_prefix('s').is_some_and(|digits| {
        digits.bytes().all(|b| b.is_ascii_digit())
            && (digits == "0" || !digits.starts_with('0'))
            && digits.parse() == Ok(row)
    })
}

/// The column whose input bit `input_map[i]` is bit `i` of `column` (bit 0
/// the most significant, as in [`Bits::index`]).
fn permuted_column(column: usize, input_map: &[usize]) -> usize {
    let ni = input_map.len();
    (input_map.iter().enumerate()).fold(0, |acc, (i, &target)| {
        acc | ((column >> (ni - 1 - i)) & 1) << (ni - 1 - target)
    })
}

/// The inverse of a permutation given as an `original → new` map.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..perm.len()`.
pub fn inverse_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![usize::MAX; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        assert!(p < perm.len() && inv[p] == usize::MAX, "not a permutation");
        inv[p] = i;
    }
    inv
}

fn permuted_names(table: &FlowTable, state_map: &[usize]) -> Vec<String> {
    assert_eq!(state_map.len(), table.num_states());
    let mut names = vec![String::new(); table.num_states()];
    for s in table.states() {
        names[state_map[s.index()]] = table.state_name(s).to_string();
    }
    names
}

fn relabel_with_names(
    table: &FlowTable,
    state_map: &[usize],
    input_map: &[usize],
    output_map: &[usize],
    name: &str,
    names: Vec<String>,
) -> FlowTable {
    let ni = table.num_inputs();
    let no = table.num_outputs();
    assert_eq!(input_map.len(), ni);
    assert_eq!(output_map.len(), no);
    let mut out = FlowTable::new(name, ni, no, names).expect("valid relabeled table");
    for s in table.states() {
        for c in 0..table.num_columns() {
            let entry = table.entry(s, c);
            if entry.is_unspecified() {
                continue;
            }
            let bits = Bits::from_index(ni, c);
            let mut new_bits = Bits::zeros(ni);
            for (i, &target) in input_map.iter().enumerate() {
                new_bits.set_bit(target, bits.bit(i));
            }
            let next = entry.next.map(|t| crate::StateId(state_map[t.index()]));
            let output = entry.output.as_ref().map(|o| {
                let mut p = Bits::zeros(no);
                for (b, &target) in output_map.iter().enumerate() {
                    p.set_bit(target, o.bit(b));
                }
                p
            });
            out.set_entry(
                crate::StateId(state_map[s.index()]),
                new_bits.index(),
                next,
                output,
            )
            .expect("relabeled coordinates in range");
        }
    }
    out
}

/// Exact-form fallback: identity relabeling, signature prefixed by a marker
/// byte disjoint from canonical signatures.
fn exact_form(table: &FlowTable) -> Canonicalization {
    let ns = table.num_states();
    let ni = table.num_inputs();
    let no = table.num_outputs();
    let identity_states: Vec<usize> = (0..ns).collect();
    let col_map: Vec<usize> = (0..table.num_columns()).collect();
    let out_perm: Vec<usize> = (0..no).collect();
    let mut signature = vec![1u8];
    serialize_into(table, &identity_states, &col_map, &out_perm, &mut signature);
    Canonicalization {
        signature,
        exact: true,
        state_map: identity_states,
        input_map: (0..ni).collect(),
        output_map: out_perm,
    }
}

/// The lexicographically smallest signature of `table` for a fixed input/
/// output labeling, over all state orders generated by refinement and
/// individualization, plus the state order that produced it (canonical row →
/// original state). `None` when the refinement budget runs out.
fn best_signature(
    table: &FlowTable,
    col_map: &[usize],
    output_perm: &[usize],
    budget: &mut usize,
) -> Option<(Vec<u8>, Vec<usize>)> {
    let colors = initial_colors(table, col_map, output_perm);
    let mut best: Option<(Vec<u8>, Vec<usize>)> = None;
    search(table, col_map, output_perm, colors, budget, &mut best)?;
    best
}

/// Refine `colors`, then either serialize (discrete partition) or branch on
/// the first tied class. Returns `None` exactly when the budget ran out (a
/// signal distinct from "no better signature found").
fn search(
    table: &FlowTable,
    col_map: &[usize],
    output_perm: &[usize],
    mut colors: Vec<u64>,
    budget: &mut usize,
    best: &mut Option<(Vec<u8>, Vec<usize>)>,
) -> Option<()> {
    if *budget == 0 {
        return None;
    }
    *budget -= 1;
    refine(table, col_map, &mut colors);

    // Order states by color; ties (equal colors) form the classes.
    let n = colors.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&s| (colors[s], s));

    // First class with more than one member, in color order.
    let tied = order.windows(2).position(|w| colors[w[0]] == colors[w[1]]);
    match tied {
        None => {
            let mut sig = vec![0u8];
            serialize_into(table, &order, col_map, output_perm, &mut sig);
            if best.as_ref().map_or(true, |(b, _)| sig < *b) {
                *best = Some((sig, order));
            }
        }
        Some(i) => {
            let class_color = colors[order[i]];
            let members: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&s| colors[s] == class_color)
                .collect();
            for m in members {
                let mut branched = colors.clone();
                // Individualize `m` with a color no refinement hash produces
                // deterministically relative to the class (mixing a constant
                // keeps the branch set isomorphism-invariant).
                branched[m] = mix(branched[m], 0x9e37_79b9_7f4a_7c15);
                search(table, col_map, output_perm, branched, budget, best)?;
            }
        }
    }
    Some(())
}

/// Initial state colors: a hash of each row's per-column local behaviour
/// (next specified, stability, output presence and permuted output value),
/// independent of state identity.
fn initial_colors(table: &FlowTable, col_map: &[usize], output_perm: &[usize]) -> Vec<u64> {
    table
        .states()
        .map(|s| {
            let mut h = 0x243f_6a88_85a3_08d3u64;
            for &c in col_map {
                let entry = table.entry(s, c);
                h = mix(h, u64::from(entry.next.is_some()));
                h = mix(h, u64::from(entry.next == Some(s)));
                match &entry.output {
                    None => h = mix(h, u64::MAX),
                    Some(o) => {
                        for chunk in permuted_output_chunks(o, output_perm) {
                            h = mix(h, chunk);
                        }
                    }
                }
            }
            h
        })
        .collect()
}

/// Iterate color refinement to a fixpoint: a state's new color hashes its old
/// color and the old colors of its successors in canonical column order.
fn refine(table: &FlowTable, col_map: &[usize], colors: &mut Vec<u64>) {
    let n = colors.len();
    let mut next = vec![0u64; n];
    loop {
        let before = distinct_count(colors);
        if before == n {
            return;
        }
        for s in table.states() {
            let mut h = colors[s.index()];
            for &c in col_map {
                match table.next_state(s, c) {
                    None => h = mix(h, u64::MAX - 1),
                    Some(t) => h = mix(h, colors[t.index()]),
                }
            }
            next[s.index()] = h;
        }
        std::mem::swap(colors, &mut next);
        if distinct_count(colors) == before {
            return;
        }
    }
}

fn distinct_count(colors: &[u64]) -> usize {
    let mut sorted: Vec<u64> = colors.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// Serialize the table under a complete labeling: states in `order`
/// (canonical row → original state), columns in `col_map` order, outputs
/// permuted by `output_perm`.
fn serialize_into(
    table: &FlowTable,
    order: &[usize],
    col_map: &[usize],
    output_perm: &[usize],
    out: &mut Vec<u8>,
) {
    let mut pos = vec![0usize; order.len()];
    for (row, &orig) in order.iter().enumerate() {
        pos[orig] = row;
    }
    push_u32(out, table.num_inputs() as u32);
    push_u32(out, table.num_outputs() as u32);
    push_u32(out, table.num_states() as u32);
    for &orig in order {
        let s = crate::StateId(orig);
        for &c in col_map {
            let entry = table.entry(s, c);
            match entry.next {
                None => push_u32(out, 0),
                Some(t) => push_u32(out, pos[t.index()] as u32 + 1),
            }
            match &entry.output {
                None => out.push(0),
                Some(o) => {
                    out.push(1);
                    for chunk in permuted_output_chunks(o, output_perm) {
                        push_u64(out, chunk);
                    }
                }
            }
        }
    }
}

/// The unsigned value of an output vector after moving bit `b` to position
/// `output_perm[b]` (position 0 the most significant), in 64-bit chunks from
/// the most significant one. A vector of at most 64 bits is one chunk, its
/// plain value; a wider one keeps every bit instead of folding bit 64 onto
/// bit 0.
fn permuted_output_chunks<'a>(
    bits: &'a Bits,
    output_perm: &'a [usize],
) -> impl Iterator<Item = u64> + 'a {
    let w = bits.width();
    (0..w.div_ceil(64).max(1)).rev().map(move |chunk| {
        let mut v = 0u64;
        for (b, &target) in output_perm.iter().enumerate() {
            // The value bit of position `target`.
            let i = w - 1 - target;
            if bits.bit(b) && i / 64 == chunk {
                v |= 1u64 << (i % 64);
            }
        }
        v
    })
}

/// Canonical column → original column for an input-bit permutation: the
/// canonical column's bit at position `input_perm[i]` is the original
/// column's bit `i`.
fn column_map(num_inputs: usize, input_perm: &[usize]) -> Vec<usize> {
    let columns = 1usize << num_inputs;
    (0..columns)
        .map(|cc| {
            let bits = Bits::from_index(num_inputs, cc);
            let mut orig = Bits::zeros(num_inputs);
            for (i, &source) in input_perm.iter().enumerate() {
                orig.set_bit(i, bits.bit(source));
            }
            orig.index()
        })
        .collect()
}

/// All permutations of `0..n` (lexicographic order); `n = 0` yields the empty
/// permutation.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    fn rec(n: usize, cur: &mut Vec<usize>, used: &mut [bool], out: &mut Vec<Vec<usize>>) {
        if cur.len() == n {
            out.push(cur.clone());
            return;
        }
        for i in 0..n {
            if !used[i] {
                used[i] = true;
                cur.push(i);
                rec(n, cur, used, out);
                cur.pop();
                used[i] = false;
            }
        }
    }
    rec(n, &mut cur, &mut used, &mut out);
    out
}

fn factorial(n: usize) -> usize {
    (2..=n).fold(1usize, |acc, k| acc.saturating_mul(k))
}

fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn canonical_table_is_invariant_under_relabeling() {
        let t = benchmarks::lion();
        let opts = CanonicalOptions::default();
        let c = canonicalize(&t, &opts);
        assert!(!c.exact);

        // A hand-picked relabeling of lion (2 inputs, 1 output, 4 states).
        let relabeled = relabel(&t, &[2, 0, 3, 1], &[1, 0], &[0], "lion-r");
        let c2 = canonicalize(&relabeled, &opts);
        assert_eq!(c.signature, c2.signature);
        assert_eq!(canonical_table(&t, &c), canonical_table(&relabeled, &c2));
    }

    #[test]
    fn in_place_comparison_reads_row_labels_exactly() {
        let t = benchmarks::lion();
        let c = canonicalize(&t, &CanonicalOptions::default());
        let built = canonical_table(&t, &c);
        assert!(canonical_table_eq(&t, &c, &built));
        let identity = |n: usize| (0..n).collect::<Vec<_>>();
        for label in ["s01", "s+1", "s", "1", "t1"] {
            let mut names: Vec<String> = (0..t.num_states()).map(|i| format!("s{i}")).collect();
            names[1] = label.to_string();
            let misnamed = relabel_with_names(
                &built,
                &identity(t.num_states()),
                &identity(t.num_inputs()),
                &identity(t.num_outputs()),
                "canonical",
                names,
            );
            assert!(!canonical_table_eq(&t, &c, &misnamed), "{label}");
        }
    }

    #[test]
    fn output_chunks_keep_narrow_values_and_every_wide_bit() {
        let narrow = Bits::parse("110").unwrap();
        let chunks: Vec<u64> = permuted_output_chunks(&narrow, &[2, 0, 1]).collect();
        assert_eq!(chunks, vec![0b101]);
        assert_eq!(permuted_output_chunks(&Bits::zeros(0), &[]).count(), 1);

        let identity: Vec<usize> = (0..65).collect();
        let mut first = Bits::zeros(65);
        first.set_bit(0, true);
        let mut last = Bits::zeros(65);
        last.set_bit(64, true);
        let chunks = |b: &Bits| permuted_output_chunks(b, &identity).collect::<Vec<_>>();
        assert_eq!(chunks(&first), vec![1, 0]);
        assert_eq!(chunks(&last), vec![0, 1]);
    }

    #[test]
    fn relabel_round_trips_through_inverse() {
        let t = benchmarks::traffic();
        let sm = [1, 0, 3, 2];
        let im = [1, 0];
        let om: Vec<usize> = (0..t.num_outputs()).collect();
        let r = relabel(&t, &sm, &im, &om, t.name());
        let back = relabel(
            &r,
            &inverse_permutation(&sm),
            &inverse_permutation(&im),
            &inverse_permutation(&om),
            t.name(),
        );
        assert_eq!(t, back);
    }

    #[test]
    fn distinct_corpus_machines_have_distinct_signatures() {
        let opts = CanonicalOptions::default();
        let sigs: Vec<Vec<u8>> = benchmarks::all()
            .iter()
            .map(|t| canonicalize(t, &opts).signature)
            .collect();
        for i in 0..sigs.len() {
            for j in i + 1..sigs.len() {
                assert_ne!(sigs[i], sigs[j], "machines {i} and {j}");
            }
        }
    }

    #[test]
    fn budget_exhaustion_falls_back_to_exact_form() {
        let t = benchmarks::lion();
        let c = canonicalize(
            &t,
            &CanonicalOptions {
                max_labelings: 0,
                max_refinements: 0,
            },
        );
        assert!(c.exact);
        assert_eq!(c.signature[0], 1);
        assert_eq!(c.state_map, (0..t.num_states()).collect::<Vec<_>>());
    }
}
