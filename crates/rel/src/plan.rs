//! The **plan** and **prune** stages of the relation-scan pipeline.
//!
//! Every relation scan runs in three explicit stages:
//!
//! 1. **plan** ([`plan_scan`]) — inspect the scan's [`IndexPolicy`]
//!    and whatever index the relation carries, and choose an access
//!    path: a full scan, or a pruned scan over index candidates.
//! 2. **prune** ([`Plan::Pruned`]) — consult the R-tree for the
//!    candidate tuple set of the query's probe volume, merge in the
//!    tuples the index cannot speak for, and produce a membership mask.
//! 3. **execute** (in [`crate::scan`]) — run the operator's kernel over
//!    candidates only, in input-tuple order.
//!
//! The planner is *policy*: it may only ever trade work for work. A
//! damaged, missing or mismatched index degrades to a full scan — a
//! recorded event (`index.fallbacks`), never a wrong answer.

use crate::relation::Relation;
use crate::scan::IndexPolicy;
use mob_base::Instant;
use mob_core::Candidates;
use mob_spatial::{Cube, Rect};

/// The probe volume of one scan: what part of (x, y, t) space the query
/// actually touches. Built by the scan operators, consumed by the prune
/// stage.
#[derive(Clone, Copy, Debug)]
pub enum Probe {
    /// A time slice (`snapshot_at`): everything alive at the instant.
    At(Instant),
    /// A spatial window over all time (`filter_inside`).
    Window(Rect),
    /// A space × time window (`passes`).
    Volume(Cube),
}

/// Which attribute the scan needs the index to cover.
#[derive(Clone, Copy, Debug)]
pub enum AttrNeed {
    /// The scan probes one specific attribute (by schema position).
    Exactly(usize),
    /// The scan probes *every* `mpoint` attribute (`snapshot_at`) — an
    /// index is only usable when the indexed attribute is the sole one.
    AllMPoints,
}

/// The access path chosen by the planner.
#[derive(Debug)]
pub enum Plan {
    /// Touch every tuple. `fallback` is set when the scan wanted an
    /// index but had to degrade to this full scan.
    Full {
        /// Did the planner fall back from an index it wanted?
        fallback: bool,
    },
    /// Touch index candidates only.
    Pruned {
        /// `mask[i]` — is tuple `i` a candidate?
        mask: Vec<bool>,
        /// Number of candidate tuples (`mask.iter().filter(|c| **c)`).
        candidates: usize,
    },
}

/// Stage 1 + 2: choose the access path for a scan of `rel` probing
/// `probe` through `need`, then prune.
///
/// Whether an attached index covers the relation at all was decided
/// when it was attached ([`Relation::build_index`],
/// [`Relation::attach_stored_index`]); the planner trusts it. Fallback
/// rules (each recorded in the `index.fallbacks` metric and as
/// `Plan::Full { fallback: true }`):
///
/// * the relation is marked index-damaged (a stored index failed to
///   load) and the policy still wants an index;
/// * an index is attached but indexes another attribute than the scan
///   probes;
/// * [`IndexPolicy::Force`] with no index at all.
///
/// [`IndexPolicy::Auto`] with no index (and no damage) is a plain full
/// scan, not a fallback — there was nothing to fall back *from*.
pub fn plan_scan(rel: &Relation, probe: &Probe, need: AttrNeed, policy: IndexPolicy) -> Plan {
    let _span = mob_obs::span("scan.plan");
    if policy == IndexPolicy::Off {
        return Plan::Full { fallback: false };
    }
    let fallback = || {
        mob_obs::metric!("index.fallbacks").add(1);
        Plan::Full { fallback: true }
    };
    let Some(ix) = rel.index() else {
        if rel.index_damaged() || policy == IndexPolicy::Force {
            return fallback();
        }
        return Plan::Full { fallback: false };
    };
    // The `<=` bound guards the `mask[t]` writes below; attach already
    // refused any tree covering more tuples than the relation holds.
    let usable = ix.tree.num_tuples() <= rel.len()
        && match need {
            AttrNeed::Exactly(attr) => ix.attr == attr,
            AttrNeed::AllMPoints => {
                use crate::value::AttrType;
                rel.schema()
                    .attrs()
                    .iter()
                    .enumerate()
                    .all(|(i, (_, ty))| *ty != AttrType::MPoint || i == ix.attr)
            }
        };
    if !usable {
        return fallback();
    }

    // Stage 2: prune.
    let _span = mob_obs::span("scan.prune");
    let found: Candidates = match probe {
        Probe::At(t) => ix.tree.query_instant(*t),
        Probe::Window(rect) => ix.tree.query_rect(rect),
        Probe::Volume(cube) => ix.tree.query(cube),
    };
    let mut mask = vec![false; rel.len()];
    for &t in found.tuples.iter().chain(ix.always.iter()) {
        mask[t as usize] = true;
    }
    let candidates = mask.iter().filter(|c| **c).count();
    mob_obs::metric!("index.nodes_visited").add(found.nodes_visited);
    mob_obs::metric!("index.candidates").add(candidates as u64);
    Plan::Pruned { mask, candidates }
}

impl Plan {
    /// Is tuple `i` a candidate under this plan?
    pub fn is_candidate(&self, i: usize) -> bool {
        match self {
            Plan::Full { .. } => true,
            Plan::Pruned { mask, .. } => mask.get(i).copied().unwrap_or(true),
        }
    }

    /// Candidate tuples after pruning; `None` on the full path.
    pub fn candidates(&self) -> Option<usize> {
        match self {
            Plan::Full { .. } => None,
            Plan::Pruned { candidates, .. } => Some(*candidates),
        }
    }

    /// 1 when the planner fell back from an index it wanted, else 0.
    pub fn fallbacks(&self) -> u64 {
        u64::from(matches!(self, Plan::Full { fallback: true }))
    }
}
