//! Synthesis as a service: batched [`synthesize_many`] with a worker pool,
//! per-worker reusable [`Workspace`]s and a canonical-form result cache.
//!
//! A synthesis server sees *batches* of flow tables, and most of the traffic
//! is not new: controllers are resubmitted with renamed states, reordered
//! input bits or shuffled output bits. This module turns those observations
//! into throughput:
//!
//! * **Sharding.** [`SynthesisService::synthesize_many`] spreads the
//!   machines of a batch across a pool of `std::thread::scope` workers that
//!   claim work from a shared atomic counter — a self-balancing queue, so a
//!   worker that drew a large machine does not stall the rest of the batch.
//!   Results are merged back in submission order, making the output
//!   **deterministic**: the outcome vector is byte-for-byte identical for
//!   any worker count (see `tests/service.rs`).
//! * **Workspace reuse.** Each worker owns a [`Workspace`] threaded through
//!   [`synthesize_sparse_with`] into the Step 7
//!   consensus engines, so a hot worker stops allocating in the pipeline's
//!   hottest loops after the first few machines.
//! * **Canonical-form caching.** Each submission is canonicalized up to
//!   state/input-bit/output-bit relabeling
//!   ([`fantom_flow::canonical`]); the canonical table is synthesized **once**
//!   and the cached canonical result is *relabeled* onto every isomorphic
//!   submission. Both the machine that populated an entry and every later
//!   hit therefore return exactly the same (relabeled) equations, which is
//!   what keeps the batch deterministic even when isomorphic machines race.
//!
//! ## Cache semantics
//!
//! With [`ServiceOptions::cache`] enabled, every cacheable submission is
//! answered *through* its canonical form: state names in the returned
//! [`ServiceResult::reduced_table`] are the canonical row labels (`s0, s1,
//! …`, possibly merged by Step 2), while input/output bit order is mapped
//! back to the submission's. A submission whose canonicalization exceeds the
//! [`CanonicalOptions`] budgets is hashed in exact form — it still caches,
//! but only structurally identical resubmissions hit. Synthesis *errors* are
//! never cached; a cached entry is only served after its stored canonical
//! table is compared against the submission's (hash collisions degrade to a
//! direct synthesis, never to a wrong answer).
//!
//! A hit is a lookup: the submission is canonicalized, its signature is
//! looked up without inserting, the stored canonical table is compared with
//! the submission carried through its canonical maps, entry by entry and in
//! place ([`canonical::canonical_table_eq`]), and the cached covers are
//! relabeled word by word. A submission that finds the entry filled while it
//! waits for the entry's lock is compared the same way: only a miss builds
//! the canonical table, which the cache stores. A hit is not validated:
//! validity is invariant under relabeling, and an entry exists only for a
//! table that passed validation. Every submission that misses is validated
//! (with [`SynthesisOptions::validate_input`]) before the cache is touched,
//! so an invalid table never creates or evicts an entry, and its error names
//! the submitted table. With the cache disabled every table goes straight to
//! [`synthesize_sparse_with`] under its original labeling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use fantom_assign::StateAssignment;
use fantom_boolean::collections::HashMap;
use fantom_boolean::Expr;
use fantom_flow::canonical::{self, CanonicalOptions, Canonicalization};
use fantom_flow::FlowTable;

use crate::depth::DepthReport;
use crate::factoring::FactoredEquations;
use crate::outputs::CoverOutputEquations;
use crate::pipeline::{
    check_acceptable, render_equations, synthesize_sparse_with, SparseSynthesisResult,
    SynthesisOptions,
};
use crate::workspace::Workspace;
use crate::SynthesisError;

/// Options for the batch synthesis service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceOptions {
    /// Pipeline options applied to every machine of a batch. Defaults to
    /// [`SynthesisOptions::for_service`] — the standard pipeline with the
    /// inner per-bit factoring fan-out disabled, since the pool already
    /// saturates the cores with whole machines.
    pub synthesis: SynthesisOptions,
    /// Number of pool workers; `0` uses the host's available parallelism.
    pub parallelism: usize,
    /// Answer isomorphic submissions from the canonical-form result cache.
    pub cache: bool,
    /// Budgets for the canonicalization (see [`CanonicalOptions`]).
    pub canonical: CanonicalOptions,
    /// Upper bound on cached canonical results; `0` (the default) keeps the
    /// cache unbounded. When an insertion would exceed the bound, the
    /// least-recently-touched entry is evicted. Eviction only affects hit
    /// rate, never results: hits and misses return byte-identical equations
    /// for the same submission (see `tests/service.rs`).
    pub max_cache_entries: usize,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            synthesis: SynthesisOptions::for_service(),
            parallelism: 0,
            cache: true,
            canonical: CanonicalOptions::default(),
            max_cache_entries: 0,
        }
    }
}

/// How a request was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Synthesized through the engine and stored in the cache.
    Miss,
    /// Answered by relabeling a cached canonical result.
    Hit,
    /// Answered by the engine without touching the cache (cache disabled, or
    /// a signature collision forced a direct run).
    Uncached,
}

/// Everything the service returns for one machine.
///
/// This is the transport-friendly subset of
/// [`SparseSynthesisResult`]: the relabelable
/// equations and metrics, without the intermediate spec/hazard structures.
#[derive(Debug, Clone)]
pub struct ServiceResult {
    /// The submitted machine's name.
    pub name: String,
    /// State count of the submitted table (before Step 2 reduction).
    pub states_before: usize,
    /// The table actually synthesized, with input columns and output bits
    /// mapped back to the submission's labeling. State names are canonical
    /// row labels when the result went through the cache.
    pub reduced_table: FlowTable,
    /// The USTT state assignment of Step 3.
    pub assignment: StateAssignment,
    /// Output-stage equations of Step 4, in the submission's labeling.
    pub outputs: CoverOutputEquations,
    /// Factored, hazard-free equations of Step 7, in the submission's
    /// labeling.
    pub factored: FactoredEquations,
    /// Depth metrics (relabeling-invariant).
    pub depth: DepthReport,
    /// Number of distinct hazardous total states found by Step 5
    /// (relabeling-invariant).
    pub hazard_state_count: usize,
    /// How this result was produced.
    pub cache: CacheStatus,
}

impl ServiceResult {
    /// Total literal count of the factored next-state expressions.
    pub fn y_literals(&self) -> usize {
        self.factored.y_literals()
    }

    /// Human-readable rendering of every synthesized equation, in the same
    /// format as [`SparseSynthesisResult::render_equations`].
    pub fn render_equations(&self) -> String {
        render_equations(
            &self.name,
            self.reduced_table.num_inputs(),
            self.assignment.num_vars(),
            &self.factored,
            &self.outputs,
        )
    }

    /// One-line summary in the service's report format. Deliberately
    /// excludes the cache status so reports are byte-identical across worker
    /// counts and cache temperatures.
    pub fn report_line(&self) -> String {
        format!(
            "report {} status=ok states={}->{} state_vars={} depth={} fsv_depth={} y_depth={} y_literals={} z_literals={} hazard_states={}",
            self.name,
            self.states_before,
            self.reduced_table.num_states(),
            self.assignment.num_vars(),
            self.depth.total_depth,
            self.depth.fsv_depth,
            self.depth.y_depth,
            self.y_literals(),
            self.outputs.z_literals(),
            self.hazard_state_count,
        )
    }
}

/// The outcome of one machine of a batch: the machine's name plus either its
/// [`ServiceResult`] or the synthesis error.
#[derive(Debug)]
pub struct SynthesisOutcome {
    /// The submitted machine's name.
    pub name: String,
    /// The synthesis result or the error that stopped it.
    pub result: Result<ServiceResult, SynthesisError>,
}

impl SynthesisOutcome {
    /// One-line summary in the service's report format.
    pub fn report_line(&self) -> String {
        match &self.result {
            Ok(r) => r.report_line(),
            Err(e) => format!(
                "report {} status=error message={:?}",
                self.name,
                e.to_string()
            ),
        }
    }
}

/// Cache counters of a [`SynthesisService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests answered by relabeling a cached canonical result.
    pub hits: usize,
    /// Requests that synthesized a canonical form and stored it.
    pub misses: usize,
    /// Number of cached canonical results.
    pub entries: usize,
}

/// A canonical result stored in the cache: the canonical table it was
/// synthesized from, and the result in canonical-space labeling.
struct CanonicalResult {
    canonical_table: FlowTable,
    result: ServiceResult,
}

/// One cache slot: racing isomorphic submissions serialize on the slot lock
/// (the loser of the race finds the entry filled and hits), while unrelated
/// signatures never contend beyond the brief map-level get-or-insert.
#[derive(Default)]
struct CacheSlot {
    entry: Mutex<Option<Arc<CanonicalResult>>>,
    /// Recency stamp for LRU eviction, updated on every map-level touch.
    last_used: AtomicUsize,
}

/// A long-lived synthesis service: a batch entry point plus a canonical-form
/// result cache that persists across batches.
pub struct SynthesisService {
    options: ServiceOptions,
    cache: Mutex<HashMap<Vec<u8>, Arc<CacheSlot>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    stamp: AtomicUsize,
}

impl SynthesisService {
    /// Create a service with an empty cache.
    pub fn new(options: ServiceOptions) -> Self {
        SynthesisService {
            options,
            cache: Mutex::new(HashMap::default()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            stamp: AtomicUsize::new(0),
        }
    }

    /// The options the service runs with.
    pub fn options(&self) -> &ServiceOptions {
        &self.options
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let entries = self
            .cache
            .lock()
            .expect("cache lock")
            .values()
            .filter(|slot| slot.entry.lock().expect("slot lock").is_some())
            .count();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Synthesize a batch of machines, sharded across the worker pool.
    ///
    /// The returned vector is in submission order and is deterministic: it
    /// does not depend on the worker count or on which worker populated a
    /// cache entry first.
    pub fn synthesize_many(&self, tables: &[FlowTable]) -> Vec<SynthesisOutcome> {
        claim_pool(
            self.options.parallelism,
            tables.len(),
            Workspace::new,
            |ws, i| self.process(&tables[i], ws),
        )
    }

    /// Process one machine on the calling worker.
    fn process(&self, table: &FlowTable, ws: &mut Workspace) -> SynthesisOutcome {
        SynthesisOutcome {
            name: table.name().to_string(),
            result: self.process_inner(table, ws),
        }
    }

    fn process_inner(
        &self,
        table: &FlowTable,
        ws: &mut Workspace,
    ) -> Result<ServiceResult, SynthesisError> {
        let states_before = table.num_states();
        if !self.options.cache {
            let r = synthesize_sparse_with(table, &self.options.synthesis, ws)?;
            return Ok(from_sparse(r, states_before, CacheStatus::Uncached));
        }

        let canon = canonical::canonicalize(table, &self.options.canonical);
        if let Some(core) = self.cached(table, &canon) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(relabel_result(
                &core.result,
                &canon,
                table.name(),
                CacheStatus::Hit,
            ));
        }

        // Not a hit: validate before the cache is touched, so an invalid
        // submission neither creates nor evicts an entry and its error names
        // the submitted table.
        if self.options.synthesis.validate_input {
            check_acceptable(table)?;
        }
        let slot = {
            let mut map = self.cache.lock().expect("cache lock");
            let slot = map
                .entry(canon.signature.clone())
                .or_insert_with(|| Arc::new(CacheSlot::default()))
                .clone();
            self.touch(&slot);
            let max = self.options.max_cache_entries;
            if max > 0 && map.len() > max {
                // Evict the least-recently-touched other signature. Workers
                // already holding an `Arc` to the victim slot finish their
                // lookup unharmed; the map merely forgets the entry.
                let victim = map
                    .iter()
                    .filter(|(sig, _)| sig.as_slice() != canon.signature.as_slice())
                    .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                    .map(|(sig, _)| sig.clone());
                if let Some(victim) = victim {
                    map.remove(&victim);
                }
            }
            slot
        };

        let mut entry = slot.entry.lock().expect("slot lock");
        let (core, status) = match entry.as_ref() {
            // Another worker filled the slot since the lookup above.
            Some(cached)
                if canonical::canonical_table_eq(table, &canon, &cached.canonical_table) =>
            {
                (Arc::clone(cached), CacheStatus::Hit)
            }
            Some(_) => {
                // Signature collision between non-isomorphic tables: fall
                // back to a direct, uncached run under the original labels.
                drop(entry);
                let r = synthesize_sparse_with(table, &self.options.synthesis, ws)?;
                return Ok(from_sparse(r, states_before, CacheStatus::Uncached));
            }
            None => {
                // Errors are returned, not cached: the slot stays empty and
                // a later isomorphic submission re-derives the same error.
                let ctable = canonical::canonical_table(table, &canon);
                let r = synthesize_sparse_with(&ctable, &self.options.synthesis, ws)?;
                let core = Arc::new(CanonicalResult {
                    canonical_table: ctable,
                    result: from_sparse(r, states_before, CacheStatus::Miss),
                });
                *entry = Some(Arc::clone(&core));
                (core, CacheStatus::Miss)
            }
        };
        drop(entry);

        match status {
            CacheStatus::Hit => {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            CacheStatus::Miss => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            CacheStatus::Uncached => {}
        }
        Ok(relabel_result(&core.result, &canon, table.name(), status))
    }

    /// The cached result for `canon`'s signature when its canonical table
    /// equals `table`'s under `canon`: the hit path. It compares in place
    /// (no canonical table is built), inserts nothing, and touches the
    /// entry's recency stamp only on a match.
    fn cached(&self, table: &FlowTable, canon: &Canonicalization) -> Option<Arc<CanonicalResult>> {
        let slot = self
            .cache
            .lock()
            .expect("cache lock")
            .get(&canon.signature)
            .cloned()?;
        let core = slot
            .entry
            .lock()
            .expect("slot lock")
            .as_ref()
            .filter(|cached| canonical::canonical_table_eq(table, canon, &cached.canonical_table))
            .map(Arc::clone)?;
        self.touch(&slot);
        Some(core)
    }

    /// Stamp `slot` as the most recently used entry (LRU eviction order).
    fn touch(&self, slot: &CacheSlot) {
        slot.last_used.store(
            self.stamp.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
    }
}

/// Synthesize a batch with a one-shot service (the cache still deduplicates
/// isomorphic machines *within* the batch). Keep a [`SynthesisService`] for
/// a cache that persists across batches.
pub fn synthesize_many(tables: &[FlowTable], options: &ServiceOptions) -> Vec<SynthesisOutcome> {
    SynthesisService::new(*options).synthesize_many(tables)
}

/// `requested` workers, or the host's available parallelism for `0`.
pub(crate) fn effective_parallelism(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// `job(state, i)` for every `i` in `0..n`, on up to `requested` scoped
/// worker threads (see [`effective_parallelism`]), each with its own
/// `init()` state; the results come back in index order.
///
/// Workers claim indices from a shared atomic counter — a self-balancing
/// queue, so a worker that drew a slow job does not stall the rest — and
/// each result lands in its own slot, so the output does not depend on the
/// worker count or the scheduling. With one worker the jobs run on the
/// calling thread.
pub(crate) fn claim_pool<S, T: Send>(
    requested: usize,
    n: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let workers = effective_parallelism(requested).min(n);
    if workers <= 1 {
        let mut state = init();
        return (0..n).map(|i| job(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = job(&mut state, i);
                    *slots[i].lock().expect("slot lock") = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("every slot filled")
        })
        .collect()
}

/// Package a sparse run as a service result.
fn from_sparse(
    r: SparseSynthesisResult,
    states_before: usize,
    cache: CacheStatus,
) -> ServiceResult {
    ServiceResult {
        name: r.name,
        states_before,
        reduced_table: r.reduced_table,
        assignment: r.assignment,
        outputs: r.outputs,
        factored: r.factored,
        depth: r.depth,
        hazard_state_count: r.hazards.hazard_state_count(),
        cache,
    }
}

/// Map a canonical result back onto a submission's labeling: input variable
/// positions and output bit order are carried through every cover and
/// expression by the inverse canonical maps; state variables (and `fsv`)
/// keep their positions, so the assignment and the y-ordering are unchanged.
/// Covers move their packed fields word by word
/// ([`fantom_boolean::CoverFunction::permute_vars`]): a permutation keeps
/// on/off covers disjoint, so nothing is rebuilt or re-checked.
fn relabel_result(
    core: &ServiceResult,
    canon: &Canonicalization,
    name: &str,
    status: CacheStatus,
) -> ServiceResult {
    let ni = canon.input_map.len();
    let inv_in = canonical::inverse_permutation(&canon.input_map);
    let inv_out = canonical::inverse_permutation(&canon.output_map);
    let identity: Vec<usize> = (0..core.reduced_table.num_states()).collect();
    let reduced_table = canonical::relabel(&core.reduced_table, &identity, &inv_in, &inv_out, name);

    // Request output bit `b` is canonical output bit `output_map[b]`.
    let outputs = CoverOutputEquations {
        z: (canon.output_map.iter())
            .map(|&cb| core.outputs.z[cb].permute_vars(&inv_in))
            .collect(),
        z_covers: (canon.output_map.iter())
            .map(|&cb| core.outputs.z_covers[cb].permute_vars(&inv_in))
            .collect(),
        z_exprs: (canon.output_map.iter())
            .map(|&cb| permute_expr(&core.outputs.z_exprs[cb], &inv_in, ni))
            .collect(),
        ssd: core.outputs.ssd.permute_vars(&inv_in),
        ssd_cover: core.outputs.ssd_cover.permute_vars(&inv_in),
        ssd_expr: permute_expr(&core.outputs.ssd_expr, &inv_in, ni),
    };
    let factored = FactoredEquations {
        fsv_cover: core.factored.fsv_cover.permute_vars(&inv_in),
        fsv_expr: permute_expr(&core.factored.fsv_expr, &inv_in, ni),
        y_covers: core
            .factored
            .y_covers
            .iter()
            .map(|c| c.permute_vars(&inv_in))
            .collect(),
        y_exprs: core
            .factored
            .y_exprs
            .iter()
            .map(|e| permute_expr(e, &inv_in, ni))
            .collect(),
    };

    ServiceResult {
        name: name.to_string(),
        states_before: core.states_before,
        reduced_table,
        assignment: core.assignment.clone(),
        outputs,
        factored,
        depth: core.depth,
        hazard_state_count: core.hazard_state_count,
        cache: status,
    }
}

fn permute_expr(expr: &Expr, inv_in: &[usize], ni: usize) -> Expr {
    match expr {
        Expr::Var(i) => Expr::Var(if *i < ni { inv_in[*i] } else { *i }),
        Expr::Not(inner) => Expr::Not(Box::new(permute_expr(inner, inv_in, ni))),
        Expr::And(ops) => Expr::And(ops.iter().map(|e| permute_expr(e, inv_in, ni)).collect()),
        Expr::Or(ops) => Expr::Or(ops.iter().map(|e| permute_expr(e, inv_in, ni)).collect()),
        Expr::Nor(ops) => Expr::Nor(ops.iter().map(|e| permute_expr(e, inv_in, ni)).collect()),
        Expr::Nand(ops) => Expr::Nand(ops.iter().map(|e| permute_expr(e, inv_in, ni)).collect()),
        Expr::Const(c) => Expr::Const(*c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fantom_flow::benchmarks;

    #[test]
    fn batch_matches_sequential_sparse_reports() {
        // Cache off, one worker: the service is a plain sequential loop.
        let tables = benchmarks::all();
        let options = ServiceOptions {
            parallelism: 1,
            cache: false,
            ..ServiceOptions::default()
        };
        let outcomes = synthesize_many(&tables, &options);
        assert_eq!(outcomes.len(), tables.len());
        for (t, o) in tables.iter().zip(&outcomes) {
            assert_eq!(t.name(), o.name);
            let r = o.result.as_ref().expect("corpus machines synthesize");
            let direct =
                crate::synthesize_sparse(t, &options.synthesis).expect("direct run succeeds");
            assert_eq!(r.render_equations(), direct.render_equations());
            assert_eq!(r.cache, CacheStatus::Uncached);
        }
    }

    #[test]
    fn within_batch_isomorphic_machines_hit_the_cache() {
        let lion = benchmarks::lion();
        let relabeled =
            fantom_flow::canonical::relabel(&lion, &[1, 0, 3, 2], &[1, 0], &[0], "lion2");
        let service = SynthesisService::new(ServiceOptions {
            parallelism: 1,
            ..ServiceOptions::default()
        });
        let outcomes = service.synthesize_many(&[lion, relabeled]);
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn bounded_cache_evicts_down_to_the_configured_size() {
        let service = SynthesisService::new(ServiceOptions {
            parallelism: 1,
            max_cache_entries: 2,
            ..ServiceOptions::default()
        });
        let batch = benchmarks::all();
        assert!(batch.len() > 2);
        let outcomes = service.synthesize_many(&batch);
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        let stats = service.cache_stats();
        assert!(stats.entries <= 2, "entries = {}", stats.entries);
        assert_eq!(stats.misses, batch.len());

        // The most recently used entry survives: resubmitting the last
        // machine hits without a new miss.
        let again = service.synthesize_many(&batch[batch.len() - 1..]);
        assert!(again[0].result.is_ok());
        assert_eq!(service.cache_stats().hits, 1);
    }

    #[test]
    fn invalid_tables_report_errors_without_poisoning_the_batch() {
        use fantom_flow::FlowTableBuilder;
        let mut b = FlowTableBuilder::new("bad", 1, 1);
        b.state("A").state("B");
        // A is never stable and the machine is not strongly connected.
        b.transition("A", "0", "B").unwrap();
        b.stable("B", "0", "1").unwrap();
        let bad = b.build().unwrap();

        let batch = vec![benchmarks::lion(), bad, benchmarks::traffic()];
        let outcomes = synthesize_many(&batch, &ServiceOptions::default());
        assert!(outcomes[0].result.is_ok());
        assert!(outcomes[1].result.is_err());
        assert!(outcomes[1].report_line().contains("status=error"));
        assert!(outcomes[1].report_line().contains("bad"));
        assert!(outcomes[2].result.is_ok());
    }
}
