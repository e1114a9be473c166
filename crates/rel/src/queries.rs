//! The two example queries of Section 2, verbatim.
//!
//! ```sql
//! SELECT airline, id FROM planes
//! WHERE airline = "Lufthansa" AND length(trajectory(flight)) > 5000
//!
//! SELECT p.airline, p.id, q.airline, q.id FROM planes p, planes q
//! WHERE val(initial(atmin(distance(p.flight, q.flight)))) < 0.5
//! ```

use crate::relation::{Relation, Tuple};
use crate::schema::Schema;
use crate::value::{AttrType, AttrValue, MPointSeq};
use mob_base::{Real, Val};
use mob_core::index::{IndexEntry, RTree};
use mob_core::{distance_seq, trajectory_seq, MovingPoint, UPoint, UnitSeq};
use mob_spatial::Cube;

/// The `planes(airline: string, id: string, flight: mpoint)` schema.
pub fn planes_schema() -> Schema {
    Schema::new(&[
        ("airline", AttrType::Str),
        ("id", AttrType::Str),
        ("flight", AttrType::MPoint),
    ])
    .expect("static schema is valid")
}

/// Build the `planes` relation from `(airline, id, flight)` rows.
pub fn planes_relation(rows: Vec<(String, String, MovingPoint)>) -> Relation {
    let mut rel = Relation::new(planes_schema());
    for (airline, id, flight) in rows {
        rel.insert(Tuple::new(vec![
            AttrValue::str(&airline),
            AttrValue::str(&id),
            AttrValue::MPoint(flight),
        ]))
        .expect("rows match the planes schema");
    }
    rel
}

/// Query 1: "Give me all flights of `airline` longer than `min_length`"
/// — `length(trajectory(flight)) > min_length`, a pure projection into
/// space.
///
/// Backend-agnostic: `flight` may be an in-memory
/// [`AttrValue::MPoint`] or a storage-backed
/// [`AttrValue::MPointRef`](crate::value::MPointRef); the
/// [`trajectory_seq`] operation runs over either through
/// [`AttrValue::as_mpoint_seq`].
pub fn long_flights(planes: &Relation, airline: &str, min_length: f64) -> Relation {
    let a = planes.attr("airline");
    let f = planes.attr("flight");
    let min = Real::new(min_length);
    planes
        .select(|t| {
            t.at(a).as_str() == Some(airline)
                && t.at(f)
                    .as_mpoint_seq()
                    .map(|m| trajectory_seq(&m).length() > min)
                    .unwrap_or(false)
        })
        .project(&["airline", "id"])
        .expect("projection attributes exist")
}

/// The scalar distance of closest approach between two flights, generic
/// over both access paths:
/// `val(initial(atmin(distance(p, q))))`, ⊥ when the flights never
/// coexist in time.
pub fn closest_approach_seq<SA, SB>(p: &SA, q: &SB) -> Val<Real>
where
    SA: UnitSeq<Unit = UPoint>,
    SB: UnitSeq<Unit = UPoint>,
{
    distance_seq(p, q).atmin().initial().map(|it| it.val())
}

/// [`closest_approach_seq`] specialized to in-memory moving points.
pub fn closest_approach(p: &MovingPoint, q: &MovingPoint) -> Val<Real> {
    closest_approach_seq(p, q)
}

/// Query 2: "Find all pairs of planes that during their flight came
/// closer to each other than `threshold`" — the spatio-temporal join.
/// Pairs are reported once (`p.id < q.id`), excluding self-pairs.
///
/// The answer, its schema and its tuple order are those of the nested
/// loop `join(..).project(["left.airline", "left.id", "right.airline",
/// "right.id"])` that tests every pair with [`closest_approach_seq`];
/// it is evaluated as a filter-and-refine join over the Sec-4.2 unit
/// bounding cubes:
///
/// - **Filter.** Each flight's unit cubes are decoded once and their
///   union is bulk-loaded into a transient [`RTree`], one entry per
///   tuple. Each outer flight probes it with its union grown by
///   `threshold`; a candidate survives only if one of its units meets
///   an outer unit in closed time and, grown, in space.
/// - **Refine.** [`closest_approach_seq`] runs on the survivors only;
///   their count is added to `rel.close_encounters.pairs_refined`.
///
/// The filter is conservative: a skipped pair is more than `threshold`
/// apart in x or y on every common instant, or has none, so its true
/// distance is at least `threshold`. The cubes grow by a relative and
/// absolute 1e-9 more than `threshold`, a margin for rounding in the
/// refinement.
pub fn close_encounters(planes: &Relation, threshold: f64) -> Relation {
    let airline = planes.attr("airline");
    let id = planes.attr("id");
    let f = planes.attr("flight");
    let thr = Real::new(threshold);
    let reach = Real::new(threshold * (1.0 + 1e-9) + 1e-9);
    let tuples = planes.tuples();
    let flights: Vec<Flight<'_>> = tuples
        .iter()
        .enumerate()
        .filter_map(|(k, t)| Flight::of(k, t.at(f)))
        .collect();
    let pairs = candidate_pairs(&flights, reach, |p, q| {
        tuples[p.tuple].at(id).as_str() < tuples[q.tuple].at(id).as_str()
    });
    mob_obs::metric!("rel.close_encounters.pairs_refined").add(pairs.len() as u64);
    let out = pairs
        .into_iter()
        .filter(|(p, q)| matches!(closest_approach_seq(&p.seq, &q.seq), Val::Def(d) if d < thr))
        .map(|(p, q)| {
            let (p, q) = (&tuples[p.tuple], &tuples[q.tuple]);
            Tuple::new(vec![
                p.at(airline).clone(),
                p.at(id).clone(),
                q.at(airline).clone(),
                q.at(id).clone(),
            ])
        })
        .collect();
    let schema = planes
        .schema()
        .concat(planes.schema())
        .project(&["left.airline", "left.id", "right.airline", "right.id"])
        .expect("projection attributes exist");
    Relation::from_parts(schema, out)
}

/// One flight decoded for the Q2 filter: its tuple id, its unit cubes
/// in time order and their union.
struct Flight<'a> {
    tuple: usize,
    seq: MPointSeq<'a>,
    cubes: Vec<Cube>,
    hull: Cube,
}

impl<'a> Flight<'a> {
    /// `None` when the value holds no moving point or no unit: such a
    /// flight has no closest approach, so it is in no answer pair.
    fn of(tuple: usize, v: &'a AttrValue) -> Option<Flight<'a>> {
        let seq = v.as_mpoint_seq()?;
        let cubes: Vec<Cube> = (0..seq.len())
            .map(|i| seq.unit(i).bounding_cube())
            .collect();
        let (first, rest) = cubes.split_first()?;
        let hull = rest.iter().fold(*first, |acc, c| acc.union(c));
        Some(Flight {
            tuple,
            seq,
            cubes,
            hull,
        })
    }
}

/// The Q2 filter: every pair `(p, q)` with `keep(p, q)` whose flights
/// have a unit pair meeting in closed time and, grown by `reach`, in
/// space — in the order of `flights` for `p`, then for `q`, which is
/// the nested loop's order.
fn candidate_pairs<'f, 'a>(
    flights: &'f [Flight<'a>],
    reach: Real,
    keep: impl Fn(&Flight<'a>, &Flight<'a>) -> bool,
) -> Vec<(&'f Flight<'a>, &'f Flight<'a>)> {
    let entries = flights
        .iter()
        .enumerate()
        .filter_map(|(k, fl)| {
            Some(IndexEntry {
                tuple: u32::try_from(k).ok()?,
                unit: 0,
                cube: fl.hull,
            })
        })
        .collect();
    let tree = RTree::bulk(flights.len(), entries);
    let mut pairs = Vec::new();
    for p in flights {
        let grown: Vec<Cube> = p.cubes.iter().map(|c| c.expand(reach)).collect();
        for k in tree.query(&p.hull.expand(reach)).tuples {
            let q = &flights[k as usize];
            if keep(p, q) && units_meet(&grown, &q.cubes) {
                pairs.push((p, q));
            }
        }
    }
    pairs
}

/// `true` if some cube of `a` meets some cube of `b` (closed semantics).
/// Both lists are a mapping's unit cubes in time order, so their start
/// and end instants never decrease. Every pair whose closed time spans
/// overlap is tested, endpoint touches included: a mapping may jump at
/// a unit boundary, so both units that share the boundary instant count.
fn units_meet(a: &[Cube], b: &[Cube]) -> bool {
    let mut lo = 0;
    for ca in a {
        // Units of `b` that end before `ca` starts end before every
        // later unit of `a` starts too.
        while b.get(lo).is_some_and(|cb| cb.t_max < ca.t_min) {
            lo += 1;
        }
        for cb in &b[lo..] {
            if cb.t_min > ca.t_max {
                break;
            }
            if ca.intersects(cb) {
                return true;
            }
        }
    }
    false
}

/// Query 3 (extension): "Which planes fly through the storm, and for how
/// long?" — a lifted `inside` between an `mpoint` attribute and a
/// `moving(region)`, projected to exposure durations. Returns
/// `(airline, id, exposure)` rows for exposed planes, longest first.
pub fn storm_exposure(planes: &Relation, storm: &mob_core::MovingRegion) -> Relation {
    let f = planes.attr("flight");
    planes
        .extend("exposure", AttrType::Real, |t| {
            let dur = t
                .at(f)
                .as_mpoint_seq()
                .map(|m| storm.contains_moving_point(&m).when_true().total_duration())
                .unwrap_or(Real::ZERO);
            AttrValue::Real(Val::Def(dur))
        })
        .expect("fresh attribute name")
        .select(|t| {
            t.values()
                .last()
                .and_then(|v| v.as_real())
                .unwrap_or(Real::ZERO)
                > Real::ZERO
        })
        .order_by(|t| {
            // Longest exposure first; Real is totally ordered.
            std::cmp::Reverse(
                t.values()
                    .last()
                    .and_then(|v| v.as_real())
                    .unwrap_or(Real::ZERO),
            )
        })
        .project(&["airline", "id", "exposure"])
        .expect("projection attributes exist")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mob_base::t;
    use mob_spatial::pt;

    fn fleet() -> Relation {
        // LH1: a long straight flight (length 8).
        let lh1 = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(4.0), pt(8.0, 0.0))]);
        // LH2: a short hop (length 1).
        let lh2 = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 5.0)), (t(1.0), pt(1.0, 5.0))]);
        // BA1: crosses LH1's path at (4, 0) at t = 2 — a near miss.
        let ba1 = MovingPoint::from_samples(&[(t(0.0), pt(4.0, -4.0)), (t(4.0), pt(4.0, 4.0))]);
        // AF1: far away the whole time.
        let af1 =
            MovingPoint::from_samples(&[(t(0.0), pt(100.0, 100.0)), (t(4.0), pt(101.0, 100.0))]);
        planes_relation(vec![
            ("Lufthansa".into(), "LH1".into(), lh1),
            ("Lufthansa".into(), "LH2".into(), lh2),
            ("British Airways".into(), "BA1".into(), ba1),
            ("Air France".into(), "AF1".into(), af1),
        ])
    }

    #[test]
    fn query1_long_flights() {
        let planes = fleet();
        let result = long_flights(&planes, "Lufthansa", 5.0);
        assert_eq!(result.len(), 1);
        assert_eq!(result.tuples()[0].at(1).as_str(), Some("LH1"));
        // Threshold above all lengths: empty.
        assert!(long_flights(&planes, "Lufthansa", 100.0).is_empty());
        // Other airline's flights (AF1 has length 1) are not reported.
        assert!(long_flights(&planes, "Air France", 2.0).is_empty());
    }

    #[test]
    fn query2_close_encounters() {
        let planes = fleet();
        // LH1 and BA1 actually collide at (4,0) at t=2: distance 0.
        let result = close_encounters(&planes, 0.5);
        assert_eq!(result.len(), 1);
        let t0 = &result.tuples()[0];
        assert_eq!(t0.at(1).as_str(), Some("BA1"));
        assert_eq!(t0.at(3).as_str(), Some("LH1"));
        // With a huge threshold every temporally overlapping pair counts
        // (AF1 overlaps in time with everyone; LH2 only until t=1).
        let all = close_encounters(&planes, 1e6);
        assert_eq!(all.len(), 6);
    }

    /// A flight that jumps at every unit boundary: unit `k` lives on
    /// `[k, k+1)`, `[k, k+1]` or `(k, k+1)` in turn, `dx` further east
    /// each time.
    fn jumpy(x0: f64, y0: f64, dx: f64) -> MovingPoint {
        use mob_base::Interval;
        let units = (0..5)
            .map(|k| {
                let (a, b) = (t(f64::from(k)), t(f64::from(k + 1)));
                let iv = match k % 3 {
                    0 => Interval::closed_open(a, b),
                    1 => Interval::closed(a, b),
                    _ => Interval::open(a, b),
                };
                let x = x0 + dx * f64::from(k);
                UPoint::between(iv, pt(x, y0), pt(x + 1.0, y0 + f64::from(k % 2)))
            })
            .collect();
        mob_core::Mapping::try_new(units).unwrap()
    }

    #[test]
    fn candidate_pairs_match_brute_force() {
        let mut rows: Vec<_> = mob_gen::plane_fleet(7, 40, 6)
            .into_iter()
            .map(|p| (p.airline, p.id, p.flight))
            .collect();
        for k in 0..6 {
            let k = f64::from(k);
            rows.push((
                "J".into(),
                format!("J{k}"),
                jumpy(3.0 * k, k, 40.0 - 15.0 * k),
            ));
        }
        rows.push(("E".into(), "E0".into(), MovingPoint::empty()));
        let planes = planes_relation(rows);
        let f = planes.attr("flight");
        let flights: Vec<_> = planes
            .tuples()
            .iter()
            .enumerate()
            .filter_map(|(k, t)| Flight::of(k, t.at(f)))
            .collect();
        for reach in [-5.0, 0.0, 1e-9, 2.0, 25.0, 300.0, 1e6] {
            let reach = Real::new(reach);
            let mut want = Vec::new();
            for p in &flights {
                for q in &flights {
                    let meet = p
                        .cubes
                        .iter()
                        .any(|a| q.cubes.iter().any(|b| a.expand(reach).intersects(b)));
                    if p.tuple != q.tuple && meet {
                        want.push((p.tuple, q.tuple));
                    }
                }
            }
            if reach > Real::ONE && reach < Real::new(1e3) {
                let all = flights.len();
                assert!(
                    !want.is_empty() && want.len() < all * (all - 1),
                    "reach {reach}"
                );
            }
            let got: Vec<_> = candidate_pairs(&flights, reach, |p, q| p.tuple != q.tuple)
                .into_iter()
                .map(|(p, q)| (p.tuple, q.tuple))
                .collect();
            assert_eq!(got, want, "reach {reach}");
        }
    }

    #[test]
    fn query3_storm_exposure() {
        use mob_base::Interval;
        use mob_core::{Mapping, URegion};
        use mob_spatial::rect_ring;
        // A stationary 10×10 "storm" over [0, 4].
        let storm: mob_core::MovingRegion = Mapping::single(
            URegion::interpolate(
                Interval::closed(t(0.0), t(4.0)),
                &rect_ring(0.0, 0.0, 10.0, 10.0),
                &rect_ring(0.0, 0.0, 10.0, 10.0),
            )
            .unwrap(),
        );
        // P1 crosses it for half its flight; P2 stays outside.
        let p1 = MovingPoint::from_samples(&[(t(0.0), pt(-10.0, 5.0)), (t(4.0), pt(10.0, 5.0))]);
        let p2 = MovingPoint::from_samples(&[(t(0.0), pt(50.0, 50.0)), (t(4.0), pt(60.0, 50.0))]);
        let planes = planes_relation(vec![
            ("X".into(), "P1".into(), p1),
            ("X".into(), "P2".into(), p2),
        ]);
        let result = storm_exposure(&planes, &storm);
        assert_eq!(result.len(), 1);
        let row = &result.tuples()[0];
        assert_eq!(row.at(1).as_str(), Some("P1"));
        // Inside for x ∈ [0,10] ⇒ t ∈ [2,4]: exposure 2.
        assert!(row.at(2).as_real().unwrap().approx_eq(Real::new(2.0), 1e-9));
    }

    #[test]
    fn closest_approach_values() {
        let a = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(2.0), pt(2.0, 0.0))]);
        let b = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 3.0)), (t(2.0), pt(2.0, 3.0))]);
        assert_eq!(closest_approach(&a, &b), Val::Def(Real::new(3.0)));
        // Disjoint lifetimes: undefined.
        let c = MovingPoint::from_samples(&[(t(10.0), pt(0.0, 0.0)), (t(11.0), pt(1.0, 0.0))]);
        assert!(closest_approach(&a, &c).is_undef());
    }
}
