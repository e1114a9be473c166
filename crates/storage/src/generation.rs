//! Immutable generations: the MVCC read side of the durable store.
//!
//! A [`Generation`] is a frozen, shareable snapshot of one committed
//! store state: a page store behind an `Arc`, the root catalog, and the
//! bookkeeping the query layer needs (which roots changed since the
//! last full snapshot, which blobs are quarantined). Readers pin a
//! generation with [`crate::DurableStore::snapshot`] and keep querying
//! it — bit-for-bit unchanged — while a writer commits deltas and
//! compactions that produce *new* generations.
//!
//! The write side never mutates a generation. [`Generation::apply_appends`]
//! builds the successor: it forks the page store (O(#blobs) pointer
//! copies, blob data is shared behind `Arc`s — see [`PageStore::fork`]),
//! and for each touched mapping re-splices only the last two stored
//! units with the appended ones. The new unit array shares every full
//! page of the old one ([`PageStore::extend_blob`]) and writes only its
//! last page and the appended records. Commit cost is therefore
//! proportional to the delta, not to the store or to the touched
//! mappings' history.
//!
//! The tail window is sound only for a stored array whose structure is
//! known good, so each append first opens the stored mapping with
//! [`Verify::Full`]. That is `O(1)` on a blob carrying the verification
//! memo ([`PageStore::is_verified`]); an array decoded from disk and
//! not yet opened or appended to is scanned once, which sets the memo,
//! and every array an append writes carries the memo from then on.
//!
//! Everything here sits on the untrusted-decode path (delta replay runs
//! it on whatever survived a crash), so all validation returns
//! [`DecodeError`]s: no indexing, no unwraps, no panicking interval
//! constructors.

use crate::dbarray::{extend_array, save_array, Placement, SavedArray};
use crate::index_store::StoredIndex;
use crate::line_store::{StoredLine, StoredPoints};
use crate::mapping_store::{
    StoredMLine, StoredMPoints, StoredMRegion, StoredMapping, UPointRecord,
};
use crate::page::PageStore;
use crate::range_store::StoredPeriods;
use crate::record::FixedRecord;
use crate::region_store::StoredRegion;
use crate::store_file::{RootRecord, StoreFile};
use crate::view::{self, MappingView, Verify};
use mob_base::{DecodeError, DecodeResult, TimeInterval};
use std::cmp::Ordering;
use std::sync::Arc;

/// One committed, immutable store state (see the module docs).
#[derive(Clone)]
pub struct Generation {
    number: u64,
    store: Arc<PageStore>,
    entries: Vec<(String, RootRecord)>,
    /// Root names whose mappings changed after the last full snapshot
    /// (sorted, deduplicated). Any stored index predates these changes,
    /// so the planner must route stale roots through the exhaustive
    /// `always` list instead of trusting index pruning.
    stale: Vec<String>,
    /// Blob indices quarantined when the snapshot was decoded degraded.
    quarantined: Vec<usize>,
}

impl Generation {
    /// An empty generation (no roots, no pages).
    #[must_use]
    pub fn empty(number: u64) -> Generation {
        Generation {
            number,
            store: Arc::new(PageStore::new()),
            entries: Vec::new(),
            stale: Vec::new(),
            quarantined: Vec::new(),
        }
    }

    /// Freeze a decoded snapshot file as a generation. A full snapshot
    /// has no stale roots by construction — every index in it was
    /// written against the same catalog.
    #[must_use]
    pub fn from_store_file(number: u64, file: StoreFile, quarantined: Vec<usize>) -> Generation {
        let (store, entries) = file.into_parts();
        Generation {
            number,
            store: Arc::new(store),
            entries,
            stale: Vec::new(),
            quarantined,
        }
    }

    /// The generation number (monotonic across commits).
    #[must_use]
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The frozen page store.
    #[must_use]
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// Owning handle to the frozen page store, for relation scan
    /// workers that outlive a borrow.
    #[must_use]
    pub fn store_arc(&self) -> Arc<PageStore> {
        Arc::clone(&self.store)
    }

    /// The root catalog, in insertion order.
    #[must_use]
    pub fn entries(&self) -> &[(String, RootRecord)] {
        &self.entries
    }

    /// Look up a root record by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&RootRecord> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, r)| r)
    }

    /// Root names modified since the last full snapshot (sorted).
    #[must_use]
    pub fn stale(&self) -> &[String] {
        &self.stale
    }

    /// Whether `name` changed since the last full snapshot (and must
    /// bypass any stored index).
    #[must_use]
    pub fn is_stale(&self, name: &str) -> bool {
        self.stale
            .binary_search_by(|s| s.as_str().cmp(name))
            .is_ok()
    }

    /// Blob indices quarantined at decode time (degraded opens).
    #[must_use]
    pub fn quarantined(&self) -> &[usize] {
        &self.quarantined
    }

    /// Open a lazy view over the `moving(point)` root `name`.
    ///
    /// Missing names and kind mismatches surface as
    /// [`DecodeError::BadStructure`]s, and [`Verify`] chooses between
    /// the full `O(n)` structural scan and the `O(1)` fast path for a
    /// generation that was already verified (see [`view::open_mpoint`]).
    pub fn open_mpoint(
        &self,
        name: &str,
        verify: Verify,
    ) -> DecodeResult<MappingView<'_, UPointRecord>> {
        match self.get(name) {
            Some(RootRecord::MPoint(stored)) => view::open_mpoint(stored, &self.store, verify),
            Some(other) => Err(DecodeError::BadStructure {
                what: "generation catalog",
                detail: format!("entry {name:?} is a {}, not an mpoint", other.kind_name()),
            }),
            None => Err(DecodeError::BadStructure {
                what: "generation catalog",
                detail: format!("no entry named {name:?}"),
            }),
        }
    }

    /// Re-materialize this generation as a serializable [`StoreFile`]
    /// (pages forked, catalog cloned). Cheap: blob pages are shared.
    #[must_use]
    pub fn to_store_file(&self) -> StoreFile {
        StoreFile::from_parts(self.store.fork(), self.entries.clone())
    }

    /// Rewrite every live root into a fresh page store — the compaction
    /// rewrite. Blobs superseded by appends are dropped (only blobs the
    /// current catalog references are copied), so a long append history
    /// folds back down to the size of the live data. Quarantined blobs
    /// cannot be copied and fail the rewrite: a degraded store must be
    /// repaired (roots dropped or restored) before compaction.
    pub fn rebuild_store_file(&self) -> DecodeResult<StoreFile> {
        let mut dst = PageStore::with_page_size(self.store.page_size())?;
        let mut entries = Vec::with_capacity(self.entries.len());
        for (name, root) in &self.entries {
            // A stored index built before this generation's appends no
            // longer covers every unit, and the compacted snapshot
            // starts with an empty stale list — carrying the old index
            // over would let later opens attach it as fully trusted and
            // silently prune appended data. Drop it; the index step of
            // `DurableStore::compact_with` builds a fresh one into the
            // same snapshot.
            if matches!(root, RootRecord::Index(_)) && !self.stale.is_empty() {
                continue;
            }
            entries.push((name.clone(), rewrite_root(&self.store, &mut dst, root)?));
        }
        Ok(StoreFile::from_parts(dst, entries))
    }

    /// Build the successor generation by appending units to `moving(point)`
    /// roots. `appends` holds per-root unit batches in commit order; an
    /// unknown root name creates a new mapping, a known one must be an
    /// mpoint and the batch must continue it (see [`splice_units`] and
    /// the seam rules below). Cost is proportional to the appended
    /// units: untouched roots share their blobs with `self` via
    /// [`PageStore::fork`], and a touched root re-splices only its last
    /// two stored units and shares the rest of its pages (see the
    /// module docs). For canonical stored mappings the resulting unit
    /// arrays are byte-identical to a full load → [`splice_units`] →
    /// save of each touched mapping; a non-canonical stored prefix (only
    /// hand-crafted bytes hold one) is kept as it is rather than merged.
    ///
    /// Seam between the stored tail and the first appended unit (the
    /// ingestion anchor makes consecutive batches share a boundary
    /// instant): a stored point-interval tail is *replaced* by the
    /// continuation that starts there; a stored right-closed tail is
    /// trimmed to right-open when the continuation is left-closed at its
    /// end. A gap (batch starts after the stored end) is honest missing
    /// data and concatenates as-is.
    pub fn apply_appends(
        &self,
        number: u64,
        appends: &[(String, Vec<UPointRecord>)],
    ) -> DecodeResult<Generation> {
        let mut store = self.store.fork();
        let mut entries = self.entries.clone();
        let mut stale = self.stale.clone();
        for (name, records) in appends {
            if records.is_empty() {
                continue;
            }
            let slot = entries.iter().position(|(n, _)| n == name);
            let base = match slot.and_then(|i| entries.get(i)).map(|(_, r)| r) {
                Some(RootRecord::MPoint(sm)) => Some(sm),
                Some(other) => {
                    return Err(DecodeError::BadStructure {
                        what: "delta apply",
                        detail: format!(
                            "append target {name:?} is a {}, not an mpoint",
                            other.kind_name()
                        ),
                    })
                }
                None => None,
            };
            let (keep, mut window) = match base {
                Some(sm) => tail_window(sm, &self.store)?,
                None => (0, Vec::new()),
            };
            resolve_seam(&mut window, records, name)?;
            window.extend_from_slice(records);
            mob_obs::metric!("durable.units_respliced").add(window.len() as u64);
            let spliced = splice_units(window)?;
            let num_units = keep
                .checked_add(spliced.len())
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| DecodeError::BadStructure {
                    what: "delta apply",
                    detail: format!("mapping {name:?} exceeds u32 units"),
                })?;
            let units = match base {
                Some(base) => extend_array(&base.units, keep, &spliced, &mut store)?,
                None => save_array(&spliced, &mut store),
            };
            // Every record of the new array passed the checks the
            // structural scan runs: the kept prefix through the base's
            // `Full` open, the window and the batch through
            // `splice_units`.
            if let Placement::External(id) = units.placement {
                store.mark_verified(id, UPointRecord::WHAT);
            }
            let sm = StoredMapping { num_units, units };
            match slot.and_then(|i| entries.get_mut(i)) {
                Some(e) => e.1 = RootRecord::MPoint(sm),
                None => entries.push((name.clone(), RootRecord::MPoint(sm))),
            }
            if let Err(pos) = stale.binary_search(name) {
                stale.insert(pos, name.clone());
            }
        }
        Ok(Generation {
            number,
            store: Arc::new(store),
            entries,
            stale,
            quarantined: self.quarantined.clone(),
        })
    }
}

/// Stored units an append re-splices: the seam may drop the last one (a
/// point tail) and the splice may then merge into the one before it, so
/// nothing earlier can change.
const TAIL_WINDOW: usize = 2;

/// Split a stored `moving(point)` mapping for an append: the number of
/// leading unit records kept verbatim, and the last [`TAIL_WINDOW`]
/// records decoded.
///
/// The mapping is opened with [`Verify::Full`] first, so the kept
/// prefix is structurally checked (once per blob, see
/// [`view::open_mpoint`]) whatever the memo state, and the window is
/// read through the view's checked record reads.
fn tail_window(sm: &StoredMapping, store: &PageStore) -> DecodeResult<(usize, Vec<UPointRecord>)> {
    let v = view::open_mpoint(sm, store, Verify::Full)?;
    let keep = sm.units.count.saturating_sub(TAIL_WINDOW);
    let window = (keep..sm.units.count)
        .map(|i| v.try_record(i))
        .collect::<DecodeResult<_>>()?;
    Ok((keep, window))
}

/// Seam resolution between a stored mapping tail and the first appended
/// unit (see [`Generation::apply_appends`]). Mutates `existing` in
/// place; overlaps beyond the shared boundary instant are left for the
/// splice pass to reject.
fn resolve_seam(
    existing: &mut Vec<UPointRecord>,
    appended: &[UPointRecord],
    name: &str,
) -> DecodeResult<()> {
    let Some(fu) = appended.first() else {
        return Ok(());
    };
    let Some(lu) = existing.last() else {
        return Ok(());
    };
    let boundary = *fu.interval.start() == *lu.interval.end() && fu.interval.left_closed();
    if !boundary {
        return Ok(());
    }
    if lu.interval.is_point() {
        // The stored tail is the anchor sample frozen as a point unit;
        // the continuation that starts there replaces it.
        existing.pop();
        return Ok(());
    }
    if lu.interval.right_closed() {
        // Trim the stored tail to right-open so the continuation owns
        // the boundary instant (the paper's half-open slicing).
        let trimmed = TimeInterval::try_new(
            *lu.interval.start(),
            *lu.interval.end(),
            lu.interval.left_closed(),
            false,
        )
        .map_err(|e| DecodeError::BadStructure {
            what: "delta apply",
            detail: format!("cannot trim tail of {name:?}: {e}"),
        })?;
        if let Some(last) = existing.last_mut() {
            last.interval = trimmed;
        }
    }
    Ok(())
}

/// Validate and canonicalize a unit sequence: intervals must be sorted
/// by start and pairwise disjoint, and adjacent units with the *same*
/// motion are merged — the paper's ι endpoint cleanup, applied exactly
/// as `Mapping::from_units` would for a pre-sorted input. The result
/// satisfies the `Mapping::try_new` invariants (sorted, disjoint,
/// adjacent ⇒ distinct values).
///
/// Runs on untrusted replay input: every failure is a [`DecodeError`].
pub fn splice_units(units: Vec<UPointRecord>) -> DecodeResult<Vec<UPointRecord>> {
    let mut out: Vec<UPointRecord> = Vec::with_capacity(units.len());
    for u in units {
        let Some(prev) = out.last_mut() else {
            out.push(u);
            continue;
        };
        if prev.interval.cmp_start(&u.interval) != Ordering::Less {
            return Err(DecodeError::BadStructure {
                what: "unit splice",
                detail: "units not sorted by interval start".into(),
            });
        }
        if !prev.interval.disjoint(&u.interval) {
            return Err(DecodeError::BadStructure {
                what: "unit splice",
                detail: "unit intervals overlap".into(),
            });
        }
        if prev.interval.adjacent(&u.interval) && prev.motion == u.motion {
            let merged = TimeInterval::try_new(
                *prev.interval.start(),
                *u.interval.end(),
                prev.interval.left_closed(),
                u.interval.right_closed(),
            )
            .map_err(|e| DecodeError::BadStructure {
                what: "unit splice",
                detail: format!("merge produced an invalid interval: {e}"),
            })?;
            prev.interval = merged;
            continue;
        }
        out.push(u);
    }
    Ok(out)
}

/// Copy a saved array into `dst`, preserving its placement (inline
/// stays inline, external blobs are re-written into `dst` with their
/// verification memo, see [`PageStore::copy_blob_from`]).
fn rewrite_saved(src: &PageStore, dst: &mut PageStore, a: &SavedArray) -> DecodeResult<SavedArray> {
    let placement = match &a.placement {
        Placement::Inline(b) => Placement::Inline(b.clone()),
        Placement::External(id) => Placement::External(dst.copy_blob_from(src, *id)?),
    };
    Ok(SavedArray {
        count: a.count,
        placement,
    })
}

/// Copy one root record's arrays from `src` into `dst` (compaction).
fn rewrite_root(
    src: &PageStore,
    dst: &mut PageStore,
    root: &RootRecord,
) -> DecodeResult<RootRecord> {
    Ok(match root {
        RootRecord::MBool(m) => RootRecord::MBool(StoredMapping {
            num_units: m.num_units,
            units: rewrite_saved(src, dst, &m.units)?,
        }),
        RootRecord::MReal(m) => RootRecord::MReal(StoredMapping {
            num_units: m.num_units,
            units: rewrite_saved(src, dst, &m.units)?,
        }),
        RootRecord::MPoint(m) => RootRecord::MPoint(StoredMapping {
            num_units: m.num_units,
            units: rewrite_saved(src, dst, &m.units)?,
        }),
        RootRecord::MPoints(m) => RootRecord::MPoints(StoredMPoints {
            num_units: m.num_units,
            units: rewrite_saved(src, dst, &m.units)?,
            motions: rewrite_saved(src, dst, &m.motions)?,
        }),
        RootRecord::MLine(m) => RootRecord::MLine(StoredMLine {
            num_units: m.num_units,
            units: rewrite_saved(src, dst, &m.units)?,
            msegments: rewrite_saved(src, dst, &m.msegments)?,
        }),
        RootRecord::MRegion(m) => RootRecord::MRegion(StoredMRegion {
            num_units: m.num_units,
            units: rewrite_saved(src, dst, &m.units)?,
            msegments: rewrite_saved(src, dst, &m.msegments)?,
            mcycles: rewrite_saved(src, dst, &m.mcycles)?,
            mfaces: rewrite_saved(src, dst, &m.mfaces)?,
        }),
        RootRecord::Line(l) => RootRecord::Line(StoredLine {
            num_segments: l.num_segments,
            length: l.length,
            bbox: l.bbox,
            halfsegs: rewrite_saved(src, dst, &l.halfsegs)?,
        }),
        RootRecord::Points(p) => RootRecord::Points(StoredPoints {
            count: p.count,
            points: rewrite_saved(src, dst, &p.points)?,
        }),
        RootRecord::Region(r) => RootRecord::Region(StoredRegion {
            num_faces: r.num_faces,
            num_cycles: r.num_cycles,
            num_segments: r.num_segments,
            area: r.area,
            perimeter: r.perimeter,
            bbox: r.bbox,
            halfsegments: rewrite_saved(src, dst, &r.halfsegments)?,
            cycles: rewrite_saved(src, dst, &r.cycles)?,
            faces: rewrite_saved(src, dst, &r.faces)?,
        }),
        RootRecord::Periods(p) => RootRecord::Periods(StoredPeriods {
            count: p.count,
            intervals: rewrite_saved(src, dst, &p.intervals)?,
        }),
        RootRecord::Index(i) => RootRecord::Index(StoredIndex {
            num_tuples: i.num_tuples,
            fanout: i.fanout,
            entries: rewrite_saved(src, dst, &i.entries)?,
            nodes: rewrite_saved(src, dst, &i.nodes)?,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbarray::load_array;
    use crate::mapping_store::save_mpoint;
    use mob_base::t;
    use mob_core::{Mapping, MovingPoint, TailBuilder, Unit};
    use mob_spatial::pt;

    fn to_records(units: &[mob_core::UPoint]) -> Vec<UPointRecord> {
        units
            .iter()
            .map(|u| UPointRecord {
                interval: *u.interval(),
                motion: *u.motion(),
            })
            .collect()
    }

    fn gen_with_mpoint(name: &str, m: &MovingPoint) -> Generation {
        let mut file = StoreFile::new();
        let sm = save_mpoint(m, file.store_mut());
        file.put(name, RootRecord::MPoint(sm));
        Generation::from_store_file(1, file, Vec::new())
    }

    fn load_units(g: &Generation, name: &str) -> Vec<UPointRecord> {
        match g.get(name) {
            Some(RootRecord::MPoint(sm)) => load_array(&sm.units, g.store()).unwrap(),
            other => panic!("{name}: {other:?}"),
        }
    }

    /// Batched ingestion through apply_appends must equal one
    /// from_samples call over the full sample list.
    #[test]
    fn batched_appends_equal_whole_from_samples() {
        let samples: Vec<_> = (0..10)
            .map(|i| (t(f64::from(i)), pt(f64::from(i % 3), f64::from(i))))
            .collect();
        let mut tail = TailBuilder::new();
        let mut g = Generation::empty(0);
        for chunk in samples.chunks(3) {
            for &(ti, pi) in chunk {
                tail.push(ti, pi).unwrap();
            }
            let batch = to_records(&tail.seal());
            g = g
                .apply_appends(g.number() + 1, &[("car".to_string(), batch)])
                .unwrap();
        }
        let whole = MovingPoint::from_samples(&samples);
        assert_eq!(load_units(&g, "car"), to_records(whole.units()));
        assert!(g.is_stale("car"));
        assert_eq!(g.number(), 4);
    }

    #[test]
    fn apply_appends_shares_untouched_roots_and_freezes_the_base() {
        let road = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(5.0), pt(5.0, 0.0))]);
        let base = gen_with_mpoint("road", &road);
        let before = load_units(&base, "road");
        let batch = to_records(
            MovingPoint::from_samples(&[(t(0.0), pt(9.0, 9.0)), (t(1.0), pt(8.0, 8.0))]).units(),
        );
        let next = base
            .apply_appends(2, &[("car".to_string(), batch.clone())])
            .unwrap();
        // The base generation is bit-identical after the commit.
        assert_eq!(load_units(&base, "road"), before);
        assert!(base.get("car").is_none());
        // The successor sees both, and only the new root is stale.
        assert_eq!(load_units(&next, "road"), before);
        assert_eq!(load_units(&next, "car"), batch);
        assert!(next.is_stale("car") && !next.is_stale("road"));
    }

    #[test]
    fn seam_replaces_point_tail_and_trims_closed_tail() {
        // Point tail: a single-sample mapping continued by a batch.
        let single = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0))]);
        let g = gen_with_mpoint("car", &single);
        let cont = to_records(
            MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(1.0), pt(1.0, 0.0))]).units(),
        );
        let g2 = g.apply_appends(2, &[("car".to_string(), cont)]).unwrap();
        let whole = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(1.0), pt(1.0, 0.0))]);
        assert_eq!(load_units(&g2, "car"), to_records(whole.units()));

        // Closed tail: from_samples leaves the last window right-closed;
        // a left-closed continuation forces the trim path.
        let two = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(1.0), pt(1.0, 0.0))]);
        let g = gen_with_mpoint("car", &two);
        let cont = to_records(
            MovingPoint::from_samples(&[(t(1.0), pt(1.0, 0.0)), (t(2.0), pt(1.0, 5.0))]).units(),
        );
        let g2 = g.apply_appends(2, &[("car".to_string(), cont)]).unwrap();
        let whole = MovingPoint::from_samples(&[
            (t(0.0), pt(0.0, 0.0)),
            (t(1.0), pt(1.0, 0.0)),
            (t(2.0), pt(1.0, 5.0)),
        ]);
        assert_eq!(load_units(&g2, "car"), to_records(whole.units()));
        // And the collinear continuation merges into one unit.
        let g = gen_with_mpoint("car", &two);
        let cont = to_records(
            MovingPoint::from_samples(&[(t(1.0), pt(1.0, 0.0)), (t(2.0), pt(2.0, 0.0))]).units(),
        );
        let g2 = g.apply_appends(2, &[("car".to_string(), cont)]).unwrap();
        let whole = MovingPoint::from_samples(&[
            (t(0.0), pt(0.0, 0.0)),
            (t(1.0), pt(1.0, 0.0)),
            (t(2.0), pt(2.0, 0.0)),
        ]);
        assert_eq!(load_units(&g2, "car"), to_records(whole.units()));
    }

    #[test]
    fn gaps_concat_and_overlaps_fail() {
        let two = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(1.0), pt(1.0, 0.0))]);
        let g = gen_with_mpoint("car", &two);
        // Gap: batch starts after the stored end — concatenates.
        let later = to_records(
            MovingPoint::from_samples(&[(t(5.0), pt(0.0, 0.0)), (t(6.0), pt(1.0, 0.0))]).units(),
        );
        let g2 = g.apply_appends(2, &[("car".to_string(), later)]).unwrap();
        assert_eq!(load_units(&g2, "car").len(), 2);
        // The result is still a valid mapping.
        let v = g2.open_mpoint("car", Verify::Full).unwrap();
        assert_eq!(v.materialize_validated().unwrap().num_units(), 2);
        // Overlap: batch starts strictly inside the stored tail — error.
        let overlap = to_records(
            MovingPoint::from_samples(&[(t(0.5), pt(0.0, 0.0)), (t(2.0), pt(1.0, 0.0))]).units(),
        );
        assert!(g.apply_appends(2, &[("car".to_string(), overlap)]).is_err());
        // Kind mismatch: appending to a non-mpoint root is an error.
        let mut file = StoreFile::new();
        let p = crate::line_store::save_points(&mob_spatial::Points::empty(), file.store_mut());
        file.put("pts", RootRecord::Points(p));
        let g = Generation::from_store_file(1, file, Vec::new());
        let batch = to_records(MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0))]).units());
        assert!(g.apply_appends(2, &[("pts".to_string(), batch)]).is_err());
    }

    #[test]
    fn verified_appends_rewrite_only_the_last_page() {
        let samples: Vec<_> = (0..400)
            .map(|i| (t(f64::from(i)), pt(f64::from(i), f64::from(i % 2) * 3.0)))
            .collect();
        let m = MovingPoint::from_samples(&samples);
        // Decoded from bytes: no memo, so the first append scans the
        // array once; every append then writes only the last page.
        let bytes = gen_with_mpoint("car", &m)
            .to_store_file()
            .to_bytes()
            .unwrap();
        let mut g = Generation::from_store_file(1, StoreFile::from_bytes(&bytes).unwrap(), vec![]);
        let pages = match g.get("car") {
            Some(RootRecord::MPoint(sm)) => g.store().blob_pages(match sm.units.placement {
                Placement::External(id) => id,
                Placement::Inline(_) => unreachable!("400 units are external"),
            }),
            other => panic!("{other:?}"),
        };
        assert!(pages >= 4, "{pages}");
        let mut written = Vec::new();
        for k in 0..4 {
            let t0 = 400.0 + 2.0 * f64::from(k);
            let batch = to_records(
                MovingPoint::from_samples(&[(t(t0), pt(0.0, 0.0)), (t(t0 + 1.0), pt(1.0, 0.0))])
                    .units(),
            );
            g = g
                .apply_appends(g.number() + 1, &[("car".to_string(), batch)])
                .unwrap();
            written.push(g.store().pages_written());
        }
        assert!(written.iter().all(|&w| w <= 2), "{written:?}");
        let v = g.open_mpoint("car", Verify::Full).unwrap();
        assert_eq!(mob_core::UnitSeq::len(&v), m.num_units() + 4);
    }

    /// A non-canonical stored prefix (hand-crafted: two adjacent units
    /// with equal motion) appends the same way whether or not a reader
    /// has already verified its blob, so a live writer and delta replay
    /// (which starts without memos) agree.
    #[test]
    fn appends_do_not_depend_on_the_memo_state() {
        use crate::dbarray::save_array;
        use mob_base::Interval;
        use mob_core::PointMotion;
        let unit = |a: f64, x: f64| UPointRecord {
            interval: Interval::closed_open(t(a), t(a + 1.0)),
            motion: PointMotion::stationary(pt(x, 0.0)),
        };
        let mut units = vec![unit(0.0, 0.0), unit(1.0, 0.0)];
        units.extend((2..8).map(|i| unit(f64::from(i), f64::from(i))));
        let mut file = StoreFile::new();
        let saved = save_array(&units, file.store_mut());
        let Placement::External(id) = saved.placement else {
            panic!("8 units are external");
        };
        file.put(
            "m",
            RootRecord::MPoint(StoredMapping {
                num_units: 8,
                units: saved,
            }),
        );
        let bytes = file.to_bytes().unwrap();
        let decode =
            || Generation::from_store_file(1, StoreFile::from_bytes(&bytes).unwrap(), vec![]);
        let (cold, warm) = (decode(), decode());
        // The structural scan passes (canonicity is a debug-only check),
        // so any Full open leaves the memo set.
        let _ = warm.open_mpoint("m", Verify::Full);
        assert!(warm.store().is_verified(id, UPointRecord::WHAT));
        assert!(!cold.store().is_verified(id, UPointRecord::WHAT));
        let batch = vec![UPointRecord {
            interval: Interval::closed(t(8.0), t(9.0)),
            motion: PointMotion::stationary(pt(9.0, 9.0)),
        }];
        let append = |g: &Generation| {
            g.apply_appends(2, &[("m".to_string(), batch.clone())])
                .map(|next| next.to_store_file().to_bytes().unwrap())
        };
        assert_eq!(append(&warm), append(&cold));
    }

    #[test]
    fn splice_matches_mapping_invariants() {
        // A spliced sequence always passes Mapping::try_new.
        let units = MovingPoint::from_samples(&[
            (t(0.0), pt(0.0, 0.0)),
            (t(1.0), pt(1.0, 0.0)),
            (t(2.0), pt(1.0, 4.0)),
        ]);
        let recs = to_records(units.units());
        let spliced = splice_units(recs.clone()).unwrap();
        assert_eq!(spliced, recs); // canonical input is a fixed point
        let back: Vec<mob_core::UPoint> = spliced
            .iter()
            .map(|r| mob_core::UPoint::new(r.interval, r.motion))
            .collect();
        assert!(Mapping::try_new(back).is_ok());
        // Unsorted input is rejected.
        let mut rev = recs.clone();
        rev.reverse();
        assert!(splice_units(rev).is_err());
    }

    #[test]
    fn rebuild_drops_superseded_blobs() {
        // Force external placement with a long trajectory, then append
        // repeatedly: the forked stores accumulate superseded unit
        // arrays, and the rebuild folds them away.
        let samples: Vec<_> = (0..200)
            .map(|i| (t(f64::from(i)), pt(f64::from(i), f64::from(i % 7))))
            .collect();
        let m = MovingPoint::from_samples(&samples);
        let mut g = gen_with_mpoint("car", &m);
        for k in 0..5 {
            let t0 = 200.0 + 10.0 * f64::from(k);
            let batch = to_records(
                MovingPoint::from_samples(&[(t(t0), pt(0.0, 0.0)), (t(t0 + 1.0), pt(1.0, 0.0))])
                    .units(),
            );
            g = g
                .apply_appends(g.number() + 1, &[("car".to_string(), batch)])
                .unwrap();
        }
        let grown = g.store().num_blobs();
        let rebuilt = g.rebuild_store_file().unwrap();
        assert!(rebuilt.store().num_blobs() < grown);
        // Round-trip through bytes and compare the mapping.
        let bytes = rebuilt.to_bytes().unwrap();
        let reopened = StoreFile::from_bytes(&bytes).unwrap();
        let fresh = Generation::from_store_file(g.number(), reopened, Vec::new());
        assert_eq!(load_units(&fresh, "car"), load_units(&g, "car"));
    }
}
