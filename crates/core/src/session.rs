//! The shared attack pipeline state.
//!
//! Every attack needs the same loop machinery: the clean graph, a
//! mutable working copy, incrementally-maintained egonet features, the
//! surrogate forward pass, and the pair-gradient backward pass.
//! [`AttackSession`] owns that state once — a [`DeltaOverlay`] over the
//! frozen [`CsrGraph`] substrate plus an [`IncrementalEgonet`] — so
//! `BinarizedAttack`, `GradMaxSearch`, and the non-gradient baselines
//! share one forward/score/flip implementation instead of each cloning
//! the graph and re-deriving features. Resetting to the clean graph
//! (done once per λ sweep and once per extraction walk) drops the
//! overlay's dirty rows and restores cached base features: `O(edits)`,
//! not `O(n + m)`.
//!
//! ## Search memoization
//!
//! The session optionally carries a [`SearchMemo`]: a Zobrist state
//! hash ([`AttackSession::state_hash`] = edge-set hash ⊕ target-set
//! hash, maintained in O(1) per [`AttackSession::toggle`]) keying a
//! small cache hierarchy —
//!
//! * an LRU of recent whole-assembly outputs (state + mask ⇒ memcpy),
//!   which absorbs the PGD tail where the re-binarised graph cycles
//!   through a handful of states;
//! * an LRU of recent [`NodeGrads`] forward passes;
//! * a bounded per-candidate [`TransTable`] of pair-gradient and loss
//!   evaluations, the second chance for states whose full vector has
//!   aged out of the LRU (λ restarts from the clean graph, long-period
//!   revisits).
//!
//! The memo is *transparent*: every cached value was produced by the
//! exact code path that would otherwise run, so cached and uncached
//! sessions are bit-identical — pinned by the golden suite in
//! `tests/search_memo.rs` — and it is off by default
//! ([`AttackSession::with_memo`] opts in).

use crate::attack::{validate_targets, AttackError, AttackOutcome};
use crate::grad::{
    assemble_pair_grads_with_scratch, node_grads, pair_grads_for_indices, NodeGrads,
};
use crate::loss::surrogate_loss_from_features;
use crate::pair::Candidates;
use crate::tt::{TransTable, TtStats};
use ba_graph::egonet::{EgonetFeatures, IncrementalEgonet};
use ba_graph::zobrist::splitmix64;
use ba_graph::{CsrGraph, DeltaOverlay, EdgeOp, GraphView, NodeId};

/// Seed for the target-set fold in [`target_set_hash`]. Fixed — part of
/// the determinism contract, like [`ba_graph::zobrist::EDGE_KEY_SEED`].
const TARGET_HASH_SEED: u64 = 0x51_7cc1_b727_2209;

/// Reserved slot code for state-level *loss* entries in the
/// transposition table, disjoint from candidate indices (which are
/// bounded by the pair-space size, far below `u64::MAX`).
const LOSS_CODE: u64 = u64::MAX;

/// Hash of a target list: a sequential SplitMix64 fold, so it is
/// sensitive to order and multiplicity — deliberately, because the
/// loss sums target residuals in list order and floating-point
/// addition is not commutative in the bits. Two sessions hash equal
/// only if their losses are guaranteed bit-equal.
pub fn target_set_hash(targets: &[NodeId]) -> u64 {
    let mut h = TARGET_HASH_SEED;
    for &t in targets {
        h = splitmix64(h ^ (t as u64 + 1));
    }
    h
}

/// Maximum [`NodeGrads`] LRU depth (each entry is a few `O(n)` arrays).
const NG_SLOTS: usize = 24;

/// Memory budget for the whole-assembly LRU; the slot count adapts to
/// the candidate-space size so big graphs don't blow up the session.
const GRADS_CACHE_BYTES: usize = 12 << 20;

/// Maximum whole-assembly LRU depth (small graphs would otherwise get
/// hundreds of slots out of the byte budget; past the PGD oscillation
/// period extra depth stops paying).
const GRADS_SLOTS_MAX: usize = 24;

/// Probes sampled from the transposition table before committing to the
/// per-candidate walk: a state whose full vector aged out of the LRU
/// answers nearly every sample, a never-seen state answers none — in
/// which case the walk (and its per-probe overhead) is skipped in
/// favour of the bulk assembly.
const TT_SAMPLE: usize = 128;

/// Entry capacity of the dedicated state-level loss table. Loss keys
/// are spread by hash, so this comfortably outlives the distinct states
/// the extraction walks of one run visit.
const LOSS_TABLE_ENTRIES: usize = 1 << 12;

/// Maximum whole-run outcome LRU depth. Outcomes are small (per-budget
/// op lists and loss curves), so this comfortably covers the distinct
/// (attack, target set, budget) cells a suite revisits.
const OUTCOME_SLOTS: usize = 32;

/// Counter snapshot of a session's [`SearchMemo`] (see
/// [`AttackSession::memo_stats`]); surfaced as `BENCH_search.json`
/// metrics so cache effectiveness is tracked per commit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoStats {
    /// Pair-gradient transposition-table counters.
    pub table: TtStats,
    /// State-level loss memo hits ([`AttackSession::loss`]).
    pub loss_hits: u64,
    /// State-level loss memo misses (computed fresh).
    pub loss_misses: u64,
    /// State-level [`NodeGrads`] cache hits.
    pub ng_hits: u64,
    /// State-level [`NodeGrads`] cache misses (computed fresh).
    pub ng_misses: u64,
    /// Whole-assembly short-circuits: a recent
    /// [`AttackSession::pair_gradients_into`] call had the identical
    /// state and mask, so its output was copied wholesale.
    pub grads_hits: u64,
    /// Assemblies that missed the whole-assembly LRU and went to the
    /// transposition table or the cold path.
    pub grads_misses: u64,
    /// Whole-run replays: an attack re-ran a (clean state, target set,
    /// hyper-parameter) cell this session had already searched, and the
    /// stored outcome was returned without re-searching.
    pub outcome_hits: u64,
    /// Whole-run searches actually performed.
    pub outcome_misses: u64,
}

/// One resident whole-assembly output: the exact `(state, mask)` query
/// and the vector it produced, plus how often it was replayed while
/// resident (recurrent states earn a transposition-table afterlife on
/// eviction).
#[derive(Debug, Clone)]
struct GradsSlot {
    state: u64,
    hits: u32,
    mask: Vec<bool>,
    out: Vec<f64>,
}

/// Session-attached memoization state: the bounded [`TransTable`] plus
/// the state-level LRU caches in front of it. Constructed via
/// [`AttackSession::with_memo`].
///
/// All reuse is keyed by the full session state hash (edge set and
/// target set), so one memo safely spans budget steps, λ sweeps, and
/// [`AttackSession::retarget`] within a session — entries from other
/// states or target sets can collide into the same bucket but never
/// match keys.
#[derive(Debug, Clone)]
pub struct SearchMemo {
    table: TransTable,
    /// State-level loss entries, kept apart from the candidate-indexed
    /// table so dense per-candidate store sweeps can never flood them
    /// out of their buckets.
    loss_table: TransTable,
    /// [`NodeGrads`] LRU, most recent first.
    ng_slots: Vec<(u64, NodeGrads)>,
    ng_hits: u64,
    ng_misses: u64,
    /// Whole-assembly LRU, most recent first. Exact state *and* mask
    /// match required — no hashing, no collision risk.
    grads_slots: Vec<GradsSlot>,
    grads_hits: u64,
    grads_misses: u64,
    /// Whole-run outcome LRU, most recent first: `(cell key, outcome)`.
    /// The deepest memo tier — a suite that revisits an identical
    /// search cell replays the stored result instead of re-searching
    /// (the transposition-table idea applied to whole subtrees).
    outcomes: Vec<(u64, AttackOutcome)>,
    outcome_hits: u64,
    outcome_misses: u64,
    /// Per-candidate `splitmix64(idx)` half of [`TransTable::full_key`],
    /// precomputed once per candidate-space size.
    idx_keys: Vec<u64>,
    /// Scratch: miss indices (ascending) and their computed values.
    miss_idx: Vec<u32>,
    miss_vals: Vec<f64>,
}

impl SearchMemo {
    /// A memo whose table holds at most `entries` cached evaluations.
    pub fn new(entries: usize) -> Self {
        Self {
            table: TransTable::new(entries),
            loss_table: TransTable::new(LOSS_TABLE_ENTRIES),
            ng_slots: Vec::new(),
            ng_hits: 0,
            ng_misses: 0,
            grads_slots: Vec::new(),
            grads_hits: 0,
            grads_misses: 0,
            outcomes: Vec::new(),
            outcome_hits: 0,
            outcome_misses: 0,
            idx_keys: Vec::new(),
            miss_idx: Vec::new(),
            miss_vals: Vec::new(),
        }
    }

    /// Default capacity heuristic: room for two full candidate sets of
    /// an `n`-node graph (so the clean state and one search frontier
    /// stay resident together), clamped to [2¹⁰, 2²¹] entries (16 KiB
    /// to 32 MiB of table).
    pub fn for_nodes(num_nodes: usize) -> Self {
        let pairs = num_nodes.saturating_mul(num_nodes.saturating_sub(1)) / 2;
        Self::new((2 * pairs).clamp(1 << 10, 1 << 21))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MemoStats {
        let loss = self.loss_table.stats();
        MemoStats {
            table: self.table.stats(),
            loss_hits: loss.hits,
            loss_misses: loss.misses,
            ng_hits: self.ng_hits,
            ng_misses: self.ng_misses,
            grads_hits: self.grads_hits,
            grads_misses: self.grads_misses,
            outcome_hits: self.outcome_hits,
            outcome_misses: self.outcome_misses,
        }
    }

    /// Whole-assembly LRU depth for a candidate space of `len` pairs:
    /// as many slots as fit the byte budget, at least two (the minimum
    /// that holds a period-2 PGD oscillation), at most
    /// [`GRADS_SLOTS_MAX`].
    fn grads_capacity(len: usize) -> usize {
        let per_slot = len * (size_of::<f64>() + size_of::<bool>()) + size_of::<GradsSlot>();
        (GRADS_CACHE_BYTES / per_slot.max(1)).clamp(2, GRADS_SLOTS_MAX)
    }

    /// Ensures `idx_keys[i] == splitmix64(i)` for the whole candidate
    /// space (grown once; candidate spaces only change on retarget,
    /// and shrinking would discard nothing reusable).
    fn ensure_idx_keys(&mut self, len: usize) {
        let from = self.idx_keys.len();
        if from < len {
            self.idx_keys
                .extend((from..len).map(|i| splitmix64(i as u64)));
        }
    }
}

/// Mutable attack state over a frozen CSR substrate: the poisoned graph
/// as a delta overlay, live egonet features, and the target set.
#[derive(Debug, Clone)]
pub struct AttackSession<'g> {
    overlay: DeltaOverlay<'g>,
    inc: IncrementalEgonet,
    base_feats: EgonetFeatures,
    targets: Vec<NodeId>,
    /// Zobrist fold of `targets` — combined with the overlay's edge-set
    /// hash this keys all memoized evaluations.
    target_hash: u64,
    threads: usize,
    /// Reusable correction buffer for the backward pass (one assembly
    /// per optimiser iteration; candidate-sized).
    grad_scratch: Vec<(f64, f64)>,
    /// Optional search memoization (off by default; boxed because the
    /// memo dwarfs the rest of the session).
    memo: Option<Box<SearchMemo>>,
}

impl<'g> AttackSession<'g> {
    /// Opens a session on a clean graph. Validates the target set and
    /// extracts the base features once.
    pub fn new(base: &'g CsrGraph, targets: &[NodeId]) -> Result<Self, AttackError> {
        validate_targets(base, targets)?;
        let inc = IncrementalEgonet::new(base);
        let base_feats = inc.features().clone();
        Ok(Self {
            overlay: DeltaOverlay::new(base),
            inc,
            base_feats,
            targets: targets.to_vec(),
            target_hash: target_set_hash(targets),
            threads: 0,
            grad_scratch: Vec::new(),
            memo: None,
        })
    }

    /// Overrides the worker-thread count for gradient assembly
    /// (`0` = autodetect).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a [`SearchMemo`] with the default capacity heuristic
    /// ([`SearchMemo::for_nodes`]). Memoized sessions return
    /// bit-identical results to unmemoized ones — the memo trades
    /// memory for wall-clock, nothing else.
    pub fn with_memo(mut self) -> Self {
        let n = self.overlay.base().num_nodes();
        self.memo = Some(Box::new(SearchMemo::for_nodes(n)));
        self
    }

    /// Detaches and discards the memo, returning the session to the
    /// plain recompute-everything behaviour.
    pub fn without_memo(mut self) -> Self {
        self.memo = None;
        self
    }

    /// `true` when a [`SearchMemo`] is attached.
    pub fn memo_enabled(&self) -> bool {
        self.memo.is_some()
    }

    /// Counter snapshot of the attached memo, `None` when memoization
    /// is off.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        self.memo.as_deref().map(SearchMemo::stats)
    }

    /// The Zobrist hash of the session state every memoized evaluation
    /// is keyed by: current edge set ⊕ target set. Maintained
    /// incrementally — O(1) per toggle, restored exactly by
    /// [`AttackSession::reset`] / [`AttackSession::retarget`] — and
    /// always equal to hashing the materialised edge set from scratch
    /// (pinned by proptest in `tests/search_memo.rs`).
    #[inline]
    pub fn state_hash(&self) -> u64 {
        self.overlay.edge_set_hash() ^ self.target_hash
    }

    /// The target node set.
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// The clean-graph substrate the session was opened on.
    pub fn base(&self) -> &'g CsrGraph {
        self.overlay.base()
    }

    /// The current (possibly poisoned) graph view.
    pub fn graph(&self) -> &DeltaOverlay<'g> {
        &self.overlay
    }

    /// Current egonet features (kept incrementally; never recomputed).
    pub fn features(&self) -> &EgonetFeatures {
        self.inc.features()
    }

    /// Drops all edits, returning to the clean graph in `O(dirty rows)`.
    pub fn reset(&mut self) {
        self.overlay.reset();
        self.inc = IncrementalEgonet::from_features(self.base_feats.clone());
    }

    /// Re-points the session at a new target set and drops all edits.
    ///
    /// This is the cheap path for running many attacks over one frozen
    /// substrate: the cached base features survive, so swapping targets
    /// costs `O(dirty rows)` instead of the `O(n + m)` feature pass a
    /// fresh [`AttackSession::new`] performs. Equivalence with a fresh
    /// session is pinned by a proptest in `tests/session_equivalence.rs`.
    /// An attached memo survives too — its entries are keyed by the
    /// target hash, so evaluations for previously-seen target sets stay
    /// reusable and other target sets' entries can never be confused
    /// for this one's.
    pub fn retarget(&mut self, targets: &[NodeId]) -> Result<(), AttackError> {
        validate_targets(self.overlay.base(), targets)?;
        self.targets.clear();
        self.targets.extend_from_slice(targets);
        self.target_hash = target_set_hash(targets);
        self.reset();
        Ok(())
    }

    /// Toggles the pair `{i, j}` on the working graph, patching features
    /// incrementally. Returns the op performed (`None` for self-loops).
    pub fn toggle(&mut self, i: NodeId, j: NodeId) -> Option<EdgeOp> {
        self.inc.toggle(&mut self.overlay, i, j)
    }

    /// Forward pass: surrogate loss and the per-node total derivatives at
    /// the current features. Memoized per state when a [`SearchMemo`] is
    /// attached (errors are never cached).
    pub fn node_grads(&mut self) -> Result<NodeGrads, AttackError> {
        let state = self.state_hash();
        if let Some(memo) = self.memo.as_deref_mut() {
            if let Some(pos) = memo.ng_slots.iter().position(|slot| slot.0 == state) {
                memo.ng_hits += 1;
                memo.ng_slots[..=pos].rotate_right(1);
                return Ok(memo.ng_slots[0].1.clone());
            }
            memo.ng_misses += 1;
        }
        let feats = self.inc.features();
        let ng = node_grads(&feats.n, &feats.e, &self.targets)?;
        if let Some(memo) = self.memo.as_deref_mut() {
            memo.ng_slots.truncate(NG_SLOTS - 1);
            memo.ng_slots.insert(0, (state, ng.clone()));
        }
        Ok(ng)
    }

    /// Surrogate loss at the current features (cheaper than a full
    /// [`AttackSession::node_grads`] when only the value is needed).
    /// Memoized per state when a [`SearchMemo`] is attached.
    pub fn loss(&mut self) -> Result<f64, AttackError> {
        let state = self.state_hash();
        let key = TransTable::full_key(state, LOSS_CODE);
        if let Some(memo) = self.memo.as_deref_mut() {
            // The key doubles as the slot code so loss entries spread
            // across their table instead of piling into one bucket.
            if let Some(v) = memo.loss_table.probe(key, key) {
                return Ok(v);
            }
        }
        let feats = self.inc.features();
        let loss = surrogate_loss_from_features(&feats.n, &feats.e, &self.targets)?;
        if let Some(memo) = self.memo.as_deref_mut() {
            memo.loss_table.store(key, key, loss);
        }
        Ok(loss)
    }

    /// Backward pass: assembles `G_ij` for every masked candidate pair
    /// into `out` via parallel sorted-merge common-neighbour scans over
    /// the current graph view. No dense matrix is allocated.
    ///
    /// With a [`SearchMemo`] attached the assembly is memoized at two
    /// levels. First the whole-assembly LRU: a recent call with the
    /// identical state and mask replays by memcpy (the PGD tail, where
    /// the re-binarised graph cycles through a handful of states).
    /// Otherwise the per-candidate transposition table, probed in
    /// ascending index order (consecutive buckets — the sequential scan
    /// the table's layout is built for): only the *miss list* is
    /// computed — contiguously, via [`pair_grads_for_indices`] — and
    /// stored back. A sampled pre-probe detects never-seen states and
    /// sends them straight to the regular cost-model assembly instead
    /// of paying a full walk of guaranteed misses. Every cached value
    /// equals the one the uncached path computes, so results are
    /// bit-identical either way.
    pub fn pair_gradients_into(
        &mut self,
        ng: &NodeGrads,
        candidates: &Candidates,
        mask: &[bool],
        out: &mut [f64],
    ) {
        let Some(memo) = self.memo.as_deref_mut() else {
            assemble_pair_grads_with_scratch(
                &self.overlay,
                ng,
                candidates,
                mask,
                self.threads,
                out,
                &mut self.grad_scratch,
            );
            return;
        };
        let len = candidates.len();
        assert_eq!(mask.len(), len, "mask length mismatch");
        assert_eq!(out.len(), len, "output length mismatch");
        let state = self.overlay.edge_set_hash() ^ self.target_hash;

        // Whole-assembly LRU: an exact (state, mask) repeat replays by
        // memcpy. Mask equality is checked verbatim (cheap: a state
        // match already filters to near-certain hits).
        if let Some(pos) = memo
            .grads_slots
            .iter()
            .position(|s| s.state == state && s.mask == mask)
        {
            memo.grads_slots[..=pos].rotate_right(1);
            let slot = &mut memo.grads_slots[0];
            slot.hits += 1;
            out.copy_from_slice(&slot.out);
            memo.grads_hits += 1;
            return;
        }
        memo.grads_misses += 1;
        memo.ensure_idx_keys(len);

        // Sampled pre-probe: states the table has never seen (the PGD
        // transient, fresh GradMax frontiers) would miss every one of
        // the per-candidate probes below — detect that from a handful
        // of samples and skip straight to the bulk assembly. Counters
        // are untouched here; the sample is a routing decision, not a
        // lookup (a false "cold" call only costs wall-clock, never
        // correctness).
        let mut sample_hits = 0u32;
        let mut sampled = 0u32;
        for (idx, &m) in mask.iter().enumerate() {
            if !m {
                continue;
            }
            sampled += 1;
            let key = TransTable::full_key_premixed(state, memo.idx_keys[idx]);
            if memo.table.peek(idx as u64, key) {
                sample_hits += 1;
            }
            if sampled as usize >= TT_SAMPLE {
                break;
            }
        }

        if sample_hits > 0 {
            // Warm state: per-candidate probes, ascending index; misses
            // pack into a contiguous work list and are computed as a
            // dense span of per-pair merges.
            memo.miss_idx.clear();
            for (idx, (&m, o)) in mask.iter().zip(out.iter_mut()).enumerate() {
                if !m {
                    *o = 0.0;
                    continue;
                }
                let key = TransTable::full_key_premixed(state, memo.idx_keys[idx]);
                match memo.table.probe(idx as u64, key) {
                    Some(v) => *o = v,
                    None => memo.miss_idx.push(idx as u32),
                }
            }
            if !memo.miss_idx.is_empty() {
                memo.miss_vals.clear();
                memo.miss_vals.resize(memo.miss_idx.len(), 0.0);
                pair_grads_for_indices(
                    &self.overlay,
                    ng,
                    candidates,
                    &memo.miss_idx,
                    self.threads,
                    &mut memo.miss_vals,
                );
                for (&idx, &v) in memo.miss_idx.iter().zip(memo.miss_vals.iter()) {
                    out[idx as usize] = v;
                    let key = TransTable::full_key_premixed(state, memo.idx_keys[idx as usize]);
                    memo.table.store(idx as u64, key, v);
                }
            }
        } else {
            // Cold state: the regular assembly (the cost model may pick
            // the wedge-scatter strategy, which beats per-pair merges on
            // dense candidate sets). The table is deliberately *not*
            // written here — most cold states never recur, and a full
            // per-candidate store sweep per PGD transient iteration
            // costs more than the occasional re-assembly it would save.
            // Recurrent states reach the table on LRU eviction below.
            assemble_pair_grads_with_scratch(
                &self.overlay,
                ng,
                candidates,
                mask,
                self.threads,
                out,
                &mut self.grad_scratch,
            );
        }

        // Install into the whole-assembly LRU. The eviction victim's
        // buffers are reused; if it was ever replayed while resident it
        // has proven itself recurrent, so its values are scattered into
        // the transposition table first — the second-chance tier that
        // outlives the LRU (λ restarts to the clean graph, long-period
        // revisits).
        let cap = SearchMemo::grads_capacity(len);
        let mut slot = if memo.grads_slots.len() >= cap {
            memo.grads_slots.truncate(cap);
            // ba-lint: allow(panic-path) -- grads_capacity() is >= 2 and the branch guard just proved len >= cap, so the pop always succeeds; restructuring would bury that invariant
            let victim = memo.grads_slots.pop().expect("cap >= 2");
            if victim.hits > 0 {
                for (idx, &m) in victim.mask.iter().enumerate() {
                    if !m {
                        continue;
                    }
                    let key = TransTable::full_key_premixed(victim.state, memo.idx_keys[idx]);
                    memo.table.store(idx as u64, key, victim.out[idx]);
                }
            }
            victim
        } else {
            GradsSlot {
                state: 0,
                hits: 0,
                mask: Vec::new(),
                out: Vec::new(),
            }
        };
        slot.state = state;
        slot.hits = 0;
        slot.mask.clear();
        slot.mask.extend_from_slice(mask);
        slot.out.clear();
        slot.out.extend_from_slice(out);
        memo.grads_slots.insert(0, slot);
    }

    /// Memo key for a whole search run: the current state hash (edge
    /// set ⊕ target set — the graph and targets the search will read)
    /// folded with an attack tag and its hyper-parameter bits. Two runs
    /// share a key only if every input the search depends on matches.
    pub(crate) fn run_key(&self, parts: &[u64]) -> u64 {
        let mut h = splitmix64(self.state_hash());
        for &p in parts {
            h = splitmix64(h ^ p);
        }
        h
    }

    /// Looks up a memoized whole-run outcome for `key`. A hit replays
    /// the stored result and resets the working graph to the clean
    /// state (attacks leave the session's edits unspecified; callers
    /// reset or retarget before reuse either way).
    pub(crate) fn memo_run_probe(&mut self, key: u64) -> Option<AttackOutcome> {
        let memo = self.memo.as_deref_mut()?;
        match memo.outcomes.iter().position(|(k, _)| *k == key) {
            Some(pos) => {
                memo.outcomes[..=pos].rotate_right(1);
                memo.outcome_hits += 1;
                let outcome = memo.outcomes[0].1.clone();
                self.reset();
                Some(outcome)
            }
            None => {
                memo.outcome_misses += 1;
                None
            }
        }
    }

    /// Records a completed search run's outcome under `key` (no-op
    /// without an attached memo).
    pub(crate) fn memo_run_store(&mut self, key: u64, outcome: &AttackOutcome) {
        if let Some(memo) = self.memo.as_deref_mut() {
            memo.outcomes.truncate(OUTCOME_SLOTS - 1);
            memo.outcomes.insert(0, (key, outcome.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::CandidateScope;
    use ba_graph::egonet::egonet_features;
    use ba_graph::generators;

    #[test]
    fn session_tracks_features_and_resets() {
        let g = generators::erdos_renyi(50, 0.1, 3);
        let csr = CsrGraph::from(&g);
        let mut s = AttackSession::new(&csr, &[0, 1]).unwrap();
        let clean_loss = s.loss().unwrap();
        let clean_hash = s.state_hash();

        let op = s.toggle(0, 1).unwrap();
        assert_eq!(op.u, 0);
        assert_ne!(s.state_hash(), clean_hash);
        assert_eq!(s.features(), &egonet_features(s.graph()));
        s.toggle(2, 3);
        assert_eq!(s.features(), &egonet_features(s.graph()));

        s.reset();
        assert_eq!(s.graph().dirty_rows(), 0);
        assert_eq!(s.state_hash(), clean_hash);
        assert_eq!(s.loss().unwrap(), clean_loss);
        assert_eq!(s.features(), &egonet_features(&csr));
    }

    #[test]
    fn session_rejects_bad_targets() {
        let g = generators::erdos_renyi(10, 0.2, 1);
        let csr = CsrGraph::from(&g);
        assert!(matches!(
            AttackSession::new(&csr, &[]),
            Err(AttackError::NoTargets)
        ));
        assert!(matches!(
            AttackSession::new(&csr, &[99]),
            Err(AttackError::TargetOutOfRange(99))
        ));
    }

    #[test]
    fn session_gradients_match_standalone_assembly() {
        let g = generators::barabasi_albert(60, 3, 8);
        let csr = CsrGraph::from(&g);
        let targets = [2u32, 5];
        let mut s = AttackSession::new(&csr, &targets).unwrap();
        s.toggle(0, 7);
        let ng = s.node_grads().unwrap();
        let candidates = Candidates::build(CandidateScope::Full, &g, &targets);
        let mask = vec![true; candidates.len()];
        let mut out = vec![0.0; candidates.len()];
        s.pair_gradients_into(&ng, &candidates, &mask, &mut out);
        let reference = crate::grad::assemble_pair_grads(s.graph(), &ng, &candidates, &mask, 1);
        assert_eq!(out, reference);
    }

    #[test]
    fn memoized_session_is_bit_identical_and_actually_hits() {
        let g = generators::barabasi_albert(60, 3, 8);
        let csr = CsrGraph::from(&g);
        let targets = [2u32, 5];
        let mut plain = AttackSession::new(&csr, &targets).unwrap();
        let mut memo = AttackSession::new(&csr, &targets).unwrap().with_memo();
        assert!(memo.memo_enabled() && !plain.memo_enabled());

        let candidates = Candidates::build(CandidateScope::Full, &g, &targets);
        let mut mask = vec![true; candidates.len()];
        mask[1] = false;
        let mut out_p = vec![0.0; candidates.len()];
        let mut out_m = vec![0.0; candidates.len()];

        // Same script on both sessions, revisiting states: clean →
        // toggle → back to clean → same toggle again.
        for (i, j) in [(0u32, 7u32), (0, 7), (3, 9), (3, 9)] {
            for s in [&mut plain, &mut memo] {
                s.toggle(i, j);
            }
            assert_eq!(plain.loss().unwrap(), memo.loss().unwrap());
            let ng_p = plain.node_grads().unwrap();
            let ng_m = memo.node_grads().unwrap();
            assert_eq!(ng_p.loss, ng_m.loss);
            assert_eq!(ng_p.g_e, ng_m.g_e);
            plain.pair_gradients_into(&ng_p, &candidates, &mask, &mut out_p);
            memo.pair_gradients_into(&ng_m, &candidates, &mask, &mut out_m);
            assert_eq!(out_p, out_m);
            // Repeat at the same state: exercises the whole-assembly LRU.
            memo.pair_gradients_into(&ng_m, &candidates, &mask, &mut out_m);
            assert_eq!(out_p, out_m);
        }
        let stats = memo.memo_stats().unwrap();
        assert!(stats.loss_hits > 0, "revisited states must hit: {stats:?}");
        assert!(stats.ng_hits > 0);
        assert!(stats.grads_hits > 0);
        assert_eq!(plain.memo_stats(), None);
    }

    #[test]
    fn recurrent_state_survives_lru_eviction_via_table() {
        let g = generators::barabasi_albert(60, 3, 8);
        let csr = CsrGraph::from(&g);
        let targets = [2u32, 5];
        let mut plain = AttackSession::new(&csr, &targets).unwrap();
        let mut memo = AttackSession::new(&csr, &targets).unwrap().with_memo();
        let candidates = Candidates::build(CandidateScope::Full, &g, &targets);
        let mask = vec![true; candidates.len()];
        let mut out_p = vec![0.0; candidates.len()];
        let mut out_m = vec![0.0; candidates.len()];
        let assemble = |p: &mut AttackSession<'_>,
                        m: &mut AttackSession<'_>,
                        out_p: &mut [f64],
                        out_m: &mut [f64]| {
            let ng_p = p.node_grads().unwrap();
            let ng_m = m.node_grads().unwrap();
            p.pair_gradients_into(&ng_p, &candidates, &mask, out_p);
            m.pair_gradients_into(&ng_m, &candidates, &mask, out_m);
            assert_eq!(out_p, out_m);
        };

        // Make the clean state recurrent (one LRU replay), then flood
        // the LRU with more distinct states than it can hold so the
        // clean slot is evicted — and, being recurrent, scattered into
        // the transposition table.
        assemble(&mut plain, &mut memo, &mut out_p, &mut out_m);
        assemble(&mut plain, &mut memo, &mut out_p, &mut out_m);
        for k in 1..40u32 {
            for s in [&mut plain, &mut memo] {
                s.toggle(0, k).unwrap();
            }
            assemble(&mut plain, &mut memo, &mut out_p, &mut out_m);
        }
        // Coming home to the clean state must answer from the table
        // (the LRU lost it long ago) — and still be bit-identical.
        plain.reset();
        memo.reset();
        let tt_hits_before = memo.memo_stats().unwrap().table.hits;
        assemble(&mut plain, &mut memo, &mut out_p, &mut out_m);
        let stats = memo.memo_stats().unwrap();
        assert!(
            stats.table.hits > tt_hits_before,
            "evicted recurrent state must hit the table: {stats:?}"
        );
    }

    #[test]
    fn memo_survives_retarget_without_cross_talk() {
        let g = generators::erdos_renyi(40, 0.15, 9);
        let csr = CsrGraph::from(&g);
        let mut s = AttackSession::new(&csr, &[0, 1]).unwrap().with_memo();
        let h01 = s.state_hash();
        let loss01 = s.loss().unwrap();
        s.retarget(&[2, 3]).unwrap();
        assert_ne!(s.state_hash(), h01, "target set must feed the hash");
        let loss23 = s.loss().unwrap();
        assert_ne!(loss01, loss23);
        // Coming back to the original targets reproduces the original
        // state hash and the memoized loss.
        s.retarget(&[0, 1]).unwrap();
        assert_eq!(s.state_hash(), h01);
        assert_eq!(s.loss().unwrap(), loss01);
        // Target order matters (the loss sums residuals in list order).
        s.retarget(&[1, 0]).unwrap();
        assert_ne!(s.state_hash(), h01);
    }
}
