//! Property: **the filter-and-refine Q2 join never changes answers.**
//!
//! `close_encounters` prunes pairs with unit bounding cubes before the
//! exact closest-approach test. Its result must equal the nested loop
//! it replaced — `join(..).project(..)` over [`closest_approach_seq`]
//! on every pair — as a whole `Relation`: schema, tuples and tuple
//! order. Covered: seeded plane fleets of several sizes, thresholds at
//! and around the edge cases, pairs exactly at the threshold, flights
//! that only touch at an instant, flights that jump at a unit boundary,
//! flights without data, and the storage backend against memory.

use mob_base::{t, Interval, Real, Val};
use mob_core::{Mapping, MovingPoint, UPoint};
use mob_gen::plane_fleet;
use mob_rel::queries::planes_relation;
use mob_rel::{
    close_encounters, closest_approach_seq, load_relation, save_relation, AttrType, AttrValue,
    OnError, Relation, Tuple,
};
use mob_spatial::pt;
use mob_storage::PageStore;
use proptest::prelude::*;
use std::sync::Arc;

/// The nested-loop Q2: every ordered pair through the lifted
/// `distance` → `atmin` → `initial` chain.
fn reference(planes: &Relation, threshold: f64) -> Relation {
    let id = planes.attr("id");
    let f = planes.attr("flight");
    let thr = Real::new(threshold);
    planes
        .join(planes, |p, q| {
            if p.at(id).as_str() >= q.at(id).as_str() {
                return false;
            }
            let (Some(fp), Some(fq)) = (p.at(f).as_mpoint_seq(), q.at(f).as_mpoint_seq()) else {
                return false;
            };
            match closest_approach_seq(&fp, &fq) {
                Val::Def(d) => d < thr,
                Val::Undef => false,
            }
        })
        .project(&["left.airline", "left.id", "right.airline", "right.id"])
        .unwrap()
}

/// Assert the join equals the nested loop; returns the answer.
fn assert_same(planes: &Relation, threshold: f64) -> Relation {
    let got = close_encounters(planes, threshold);
    assert_eq!(got, reference(planes, threshold), "threshold {threshold}");
    got
}

fn fleet(seed: u64, n: usize) -> Relation {
    planes_relation(
        plane_fleet(seed, n, 12)
            .into_iter()
            .map(|p| (p.airline, p.id, p.flight))
            .collect(),
    )
}

/// The flight ids of an answer, as `(left, right)` pairs.
fn ids(answer: &Relation) -> Vec<(String, String)> {
    answer
        .tuples()
        .iter()
        .map(|t| {
            let s = |k: usize| t.at(k).as_str().unwrap().to_string();
            (s(1), s(3))
        })
        .collect()
}

fn rel(rows: Vec<(&str, MovingPoint)>) -> Relation {
    planes_relation(
        rows.into_iter()
            .map(|(id, m)| ("X".to_string(), id.to_string(), m))
            .collect(),
    )
}

fn units(us: Vec<UPoint>) -> MovingPoint {
    Mapping::try_new(us).unwrap()
}

#[test]
fn plane_fleets_match_the_nested_loop() {
    for seed in [401u64, 0xF1EE7] {
        for n in [0usize, 1, 2, 48, 128] {
            let planes = fleet(seed, n);
            for threshold in [-1.0, 0.0, 1e-9, 25.0, 1e6] {
                let got = assert_same(&planes, threshold);
                if n == 128 && threshold == 25.0 {
                    // Premise: the threshold prunes, yet matches exist.
                    assert!(!got.is_empty() && got.len() < n * (n - 1) / 2);
                }
                if threshold == 1e6 {
                    // Every pair overlaps in time in a plane fleet.
                    assert_eq!(got.len(), n * n.saturating_sub(1) / 2);
                }
            }
        }
    }
}

#[test]
fn pairs_exactly_at_the_threshold() {
    // Parallel flights 3 apart in x: the closest approach is exactly 3,
    // and their grown boxes touch exactly at the threshold.
    let a = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(4.0), pt(0.0, 8.0))]);
    let b = MovingPoint::from_samples(&[(t(0.0), pt(3.0, 0.0)), (t(4.0), pt(3.0, 8.0))]);
    let planes = rel(vec![("A", a), ("B", b)]);
    let seq = |k: usize| planes.tuples()[k].at(2).as_mpoint_seq().unwrap();
    assert_eq!(
        closest_approach_seq(&seq(0), &seq(1)),
        Val::Def(Real::new(3.0))
    );
    assert!(assert_same(&planes, 3.0).is_empty());
    assert!(assert_same(&planes, 3.0f64.next_down()).is_empty());
    assert_eq!(assert_same(&planes, 3.0f64.next_up()).len(), 1);
}

#[test]
fn lifetimes_that_touch_or_miss() {
    // A ends at (0, 0) at t = 1; B starts 0.5 north of it at t = 1.
    let end = |closed: bool| {
        units(vec![UPoint::between(
            Interval::new(t(0.0), t(1.0), true, closed),
            pt(-5.0, 0.0),
            pt(0.0, 0.0),
        )])
    };
    let start = |closed: bool| {
        units(vec![UPoint::between(
            Interval::new(t(1.0), t(2.0), closed, true),
            pt(0.0, 0.5),
            pt(0.0, 9.0),
        )])
    };
    for (a_closed, b_closed) in [(true, true), (true, false), (false, true), (false, false)] {
        let planes = rel(vec![("A", end(a_closed)), ("B", start(b_closed))]);
        let got = assert_same(&planes, 1.0);
        // Only a shared closed instant gives them a common time.
        assert_eq!(
            got.len(),
            usize::from(a_closed && b_closed),
            "{a_closed}/{b_closed}"
        );
    }
    // Disjoint lifetimes at the same place: never a pair.
    let later = MovingPoint::from_samples(&[(t(2.0), pt(-5.0, 0.0)), (t(3.0), pt(0.0, 0.0))]);
    let planes = rel(vec![("A", end(true)), ("C", later)]);
    assert!(assert_same(&planes, 1e6).is_empty());
}

#[test]
fn jumps_at_a_unit_boundary() {
    // A sits far east on [0, 1), then jumps to the origin on [1, 2].
    // B's single unit [0, 1] reaches (0, 0.5) at t = 1, touching A's
    // second unit at its first instant: the closest approach is 0.5,
    // although the units that end together at t = 1 are 40 apart.
    let a = units(vec![
        UPoint::between(
            Interval::closed_open(t(0.0), t(1.0)),
            pt(50.0, 0.0),
            pt(50.0, 0.0),
        ),
        UPoint::between(
            Interval::closed(t(1.0), t(2.0)),
            pt(0.0, 0.0),
            pt(0.0, -9.0),
        ),
    ]);
    let b = units(vec![
        UPoint::between(
            Interval::closed(t(0.0), t(1.0)),
            pt(10.0, 10.0),
            pt(0.0, 0.5),
        ),
        UPoint::between(
            Interval::open_closed(t(1.0), t(2.0)),
            pt(-90.0, 0.0),
            pt(-99.0, 0.0),
        ),
    ]);
    let planes = rel(vec![("A", a.clone()), ("B", b.clone())]);
    assert_eq!(
        ids(&assert_same(&planes, 1.0)),
        vec![("A".into(), "B".into())]
    );
    assert!(assert_same(&planes, 0.5).is_empty());
    // The mirror image: B jumps, A touches.
    let planes = rel(vec![("A", b), ("B", a)]);
    assert_eq!(assert_same(&planes, 1.0).len(), 1);
}

#[test]
fn flights_without_data() {
    let mut planes = fleet(401, 12);
    planes
        .insert(Tuple::new(vec![
            AttrValue::str("X"),
            AttrValue::str("EMPTY"),
            AttrValue::MPoint(MovingPoint::empty()),
        ]))
        .unwrap();
    planes
        .insert(Tuple::new(vec![
            AttrValue::str("X"),
            AttrValue::str("LOST"),
            AttrValue::Quarantined {
                ty: AttrType::MPoint,
                detail: "blob quarantined (test)".into(),
            },
        ]))
        .unwrap();
    // A duplicate id pairs with nobody of that id, either way round.
    let dup = planes.tuples()[3].clone();
    planes.insert(dup).unwrap();
    for threshold in [25.0, 1e6] {
        let got = assert_same(&planes, threshold);
        assert!(ids(&got)
            .iter()
            .all(|(p, q)| p != "EMPTY" && q != "LOST" && p != q));
    }
}

#[test]
fn stored_fleets_match_memory() {
    let mem = fleet(0x5702, 48);
    let mut store = PageStore::new();
    let stored = save_relation(&mem, &mut store).unwrap();
    let eager = load_relation(&stored, &store).unwrap();
    let lazy = Relation::from_stored(&stored, Arc::new(store), OnError::Fail).unwrap();
    assert!(lazy.tuples()[0].at(2).as_mpoint_ref().is_some());
    for threshold in [25.0, 200.0] {
        let want = assert_same(&mem, threshold);
        assert!(!want.is_empty());
        assert_eq!(close_encounters(&eager, threshold), want);
        assert_eq!(close_encounters(&lazy, threshold), want);
        assert_eq!(reference(&lazy, threshold), want);
    }
}

/// One random unit: start gap after the previous unit (0 = touching),
/// duration (0 = an instant), closed ends, and both endpoints.
type UnitSpec = (u8, u8, bool, bool, (f64, f64), (f64, f64));

/// A discontinuous flight from unit specs; `None` if the specs break
/// the mapping invariants (overlap at a shared closed instant).
fn flight(start: u8, specs: &[UnitSpec]) -> Option<MovingPoint> {
    let mut at = f64::from(start);
    let mut us = Vec::new();
    for &(gap, dur, lc, rc, p, q) in specs {
        let a = at + f64::from(gap) * 0.5;
        let b = a + f64::from(dur) * 0.5;
        let iv = if dur == 0 {
            Interval::closed(t(a), t(a))
        } else {
            Interval::new(t(a), t(b), lc, rc)
        };
        us.push(UPoint::between(iv, pt(p.0, p.1), pt(q.0, q.1)));
        at = b;
    }
    Mapping::try_new(us).ok()
}

fn unit_spec() -> impl Strategy<Value = UnitSpec> {
    (
        0u8..2,
        0u8..4,
        any::<bool>(),
        any::<bool>(),
        (0.0f64..30.0, 0.0f64..30.0),
        (0.0f64..30.0, 0.0f64..30.0),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_discontinuous_flights(
        specs in proptest::collection::vec(
            (0u8..6, proptest::collection::vec(unit_spec(), 1..6)),
            2..10,
        ),
        threshold in 0.0f64..12.0,
    ) {
        let rows: Vec<_> = specs
            .iter()
            .enumerate()
            .filter_map(|(k, (start, us))| {
                Some(("X".to_string(), format!("F{k}"), flight(*start, us)?))
            })
            .collect();
        let planes = planes_relation(rows);
        assert_same(&planes, threshold);
    }
}
