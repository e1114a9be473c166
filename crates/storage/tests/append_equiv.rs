//! Equivalence of the O(delta) append path with the whole-array path.
//!
//! `Generation::apply_appends` verifies a stored unit array once, then
//! re-splices only its last units and shares the rest of its pages. The
//! oracle below is the path it replaced, kept here as a test-local
//! copy: load every stored unit, resolve the seam, splice, and save the
//! result as a fresh array. For every batch the two must agree on the successor's
//! blob bytes (the whole serialized store), its `SavedArray`s and its
//! errors, and a freshly decoded copy of every successor (no
//! verification memo) must pass a cold `Verify::Full` open.
//!
//! Seeded random ingestion covers the seam cases: a point tail
//! replaced, a closed tail trimmed, collinear merges across the seam,
//! gaps, overlaps, appends to a root of the wrong kind, and unit arrays
//! growing from inline placement across `INLINE_THRESHOLD` into pages.

use mob_base::{t, DecodeError, DecodeResult, Interval, TimeInterval};
use mob_core::{MovingPoint, PointMotion, TailBuilder, UPoint, Unit};
use mob_spatial::{pt, Point};
use mob_storage::mapping_store::{save_mpoint, StoredMapping, UPointRecord};
use mob_storage::{
    load_array, save_array, splice_units, FixedRecord, Generation, Placement, RootRecord,
    StoreFile, Verify, INLINE_THRESHOLD,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Appends = Vec<(String, Vec<UPointRecord>)>;

fn records(units: &[UPoint]) -> Vec<UPointRecord> {
    units
        .iter()
        .map(|u| UPointRecord {
            interval: *u.interval(),
            motion: *u.motion(),
        })
        .collect()
}

/// The seam rule of the whole-array path, copied verbatim.
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
        existing.pop();
        return Ok(());
    }
    if lu.interval.right_closed() {
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

/// The whole-array oracle: load → seam → splice → save for every touched
/// mapping, on a fork of `base`'s store.
fn oracle(base: &Generation, appends: &Appends) -> DecodeResult<StoreFile> {
    let (mut store, mut entries) = base.to_store_file().into_parts();
    for (name, batch) in appends {
        if batch.is_empty() {
            continue;
        }
        let slot = entries.iter().position(|(n, _)| n == name);
        let mut combined = match slot.and_then(|i| entries.get(i)).map(|(_, r)| r) {
            Some(RootRecord::MPoint(sm)) => load_array::<UPointRecord>(&sm.units, &store)?,
            Some(other) => {
                return Err(DecodeError::BadStructure {
                    what: "delta apply",
                    detail: format!(
                        "append target {name:?} is a {}, not an mpoint",
                        other.kind_name()
                    ),
                })
            }
            None => Vec::new(),
        };
        resolve_seam(&mut combined, batch, name)?;
        combined.extend_from_slice(batch);
        let spliced = splice_units(combined)?;
        let sm = StoredMapping {
            num_units: u32::try_from(spliced.len()).expect("test mappings are small"),
            units: save_array(&spliced, &mut store),
        };
        match slot.and_then(|i| entries.get_mut(i)) {
            Some(e) => e.1 = RootRecord::MPoint(sm),
            None => entries.push((name.clone(), RootRecord::MPoint(sm))),
        }
    }
    Ok(StoreFile::from_parts(store, entries))
}

/// Serialize and decode `g` again: the copy has no verification memo.
fn cold_copy(g: &Generation) -> Generation {
    let bytes = g.to_store_file().to_bytes().expect("generation serializes");
    let file = StoreFile::from_bytes(&bytes).expect("serialized generation decodes");
    Generation::from_store_file(g.number(), file, Vec::new())
}

/// How the base generation's touched unit arrays were placed.
#[derive(Default, Debug)]
struct Coverage {
    verified: usize,
    unverified: usize,
    inline: usize,
    crossed: usize,
    errors: usize,
}

/// Apply `appends` to `base` both ways and compare. Returns the
/// successor on success.
fn check_step(base: &Generation, appends: &Appends, cov: &mut Coverage) -> Option<Generation> {
    for (name, _) in appends {
        if let Some(RootRecord::MPoint(sm)) = base.get(name) {
            match sm.units.placement {
                Placement::External(id) if base.store().is_verified(id, UPointRecord::WHAT) => {
                    cov.verified += 1;
                }
                Placement::External(_) => cov.unverified += 1,
                Placement::Inline(_) => cov.inline += 1,
            }
        }
    }
    let real = base.apply_appends(base.number() + 1, appends);
    let expected = oracle(base, appends);
    match (real, expected) {
        (Ok(next), Ok(file)) => {
            assert_eq!(next.entries(), file.entries(), "SavedArrays diverge");
            assert_eq!(
                next.to_store_file()
                    .to_bytes()
                    .expect("successor serializes"),
                file.to_bytes().expect("oracle serializes"),
                "blob bytes diverge"
            );
            for (name, _) in appends {
                let before = base.get(name).and_then(|r| match r {
                    RootRecord::MPoint(sm) => Some(sm.units.is_inline()),
                    _ => None,
                });
                let after = next.get(name).and_then(|r| match r {
                    RootRecord::MPoint(sm) => Some(sm.units.is_inline()),
                    _ => None,
                });
                if before == Some(true) && after == Some(false) {
                    cov.crossed += 1;
                }
            }
            let cold = cold_copy(&next);
            for (name, root) in cold.entries() {
                let RootRecord::MPoint(sm) = root else {
                    continue;
                };
                if let Placement::External(id) = sm.units.placement {
                    assert!(!cold.store().is_verified(id, UPointRecord::WHAT));
                }
                let view = cold
                    .open_mpoint(name, Verify::Full)
                    .unwrap_or_else(|e| panic!("cold Full open of {name:?} failed: {e}"));
                view.materialize_validated()
                    .unwrap_or_else(|e| panic!("{name:?} is not a valid mapping: {e}"));
            }
            Some(next)
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "errors diverge");
            cov.errors += 1;
            None
        }
        (real, expected) => panic!(
            "outcomes diverge: real {:?}, oracle {:?}",
            real.map(|g| g.number()),
            expected.map(|f| f.entries().len())
        ),
    }
}

/// One simulated object: integer positions and instants keep collinear
/// motion exact, so a constant velocity across a seam merges.
struct Object {
    name: String,
    tail: TailBuilder,
    now: i64,
    at: (i64, i64),
    vel: (i64, i64),
}

impl Object {
    fn sample(&mut self, rng: &mut StdRng) -> (mob_base::Instant, Point) {
        if rng.gen_bool(0.3) {
            self.vel = (rng.gen_range(-2..=2i64), rng.gen_range(-2..=2i64));
        }
        let dt: i64 = rng.gen_range(1..=2);
        self.now += dt;
        self.at = (self.at.0 + self.vel.0 * dt, self.at.1 + self.vel.1 * dt);
        (t(self.now as f64), pt(self.at.0 as f64, self.at.1 as f64))
    }
}

/// A base generation decoded from bytes: a few objects, plus a static
/// `points` root that appends must refuse.
fn base_generation() -> Generation {
    let mut file = StoreFile::new();
    let pts = mob_storage::line_store::save_points(&mob_spatial::Points::empty(), file.store_mut());
    file.put("static/pts", RootRecord::Points(pts));
    let bytes = file.to_bytes().expect("base serializes");
    Generation::from_store_file(
        0,
        StoreFile::from_bytes(&bytes).expect("decodes"),
        Vec::new(),
    )
}

/// A batch that starts strictly inside the stored tail of `name`.
fn overlapping_batch(g: &Generation, name: &str) -> Option<Vec<UPointRecord>> {
    let Some(RootRecord::MPoint(sm)) = g.get(name) else {
        return None;
    };
    let units = load_array::<UPointRecord>(&sm.units, g.store()).ok()?;
    let last = units.last()?;
    if last.interval.is_point() {
        return None;
    }
    let inside = (last.interval.start().as_f64() + last.interval.end().as_f64()) / 2.0;
    Some(records(
        MovingPoint::from_samples(&[
            (t(inside), pt(0.0, 0.0)),
            (t(last.interval.end().as_f64() + 5.0), pt(1.0, 1.0)),
        ])
        .units(),
    ))
}

fn run_seed(seed: u64, cov: &mut Coverage) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut objects: Vec<Object> = (0..5)
        .map(|k| Object {
            name: format!("obj/{k}"),
            tail: TailBuilder::new(),
            now: 0,
            at: (k * 10, 0),
            vel: (1, 0),
        })
        .collect();
    let mut g = base_generation();
    for step in 0..80 {
        let mut appends: Appends = Vec::new();
        for obj in &mut objects {
            if !rng.gen_bool(0.7) {
                continue;
            }
            if rng.gen_bool(0.08) {
                // Gap: a fresh tail after a silence. Its first seal is a
                // point unit when it holds one sample, so the next seal
                // replaces a point tail.
                obj.tail = TailBuilder::new();
                obj.now += rng.gen_range(3..=6i64);
            }
            for _ in 0..rng.gen_range(1..=4) {
                let (when, at) = obj.sample(&mut rng);
                obj.tail.push(when, at).expect("instants increase");
            }
            appends.push((obj.name.clone(), records(&obj.tail.seal())));
        }
        if appends.is_empty() {
            continue;
        }
        // Error cases ride on copies of the batch list; the state only
        // advances on the clean one.
        if step % 9 == 4 {
            let mut bad = appends.clone();
            bad.push(("static/pts".to_string(), appends[0].1.clone()));
            assert!(check_step(&g, &bad, cov).is_none(), "wrong kind must fail");
        }
        if step % 7 == 3 {
            if let Some(batch) = overlapping_batch(&g, &objects[0].name) {
                let bad = vec![(objects[0].name.clone(), batch)];
                assert!(check_step(&g, &bad, cov).is_none(), "overlap must fail");
            }
        }
        g = check_step(&g, &appends, cov).expect("clean ingestion applies");
        if step % 13 == 12 {
            // Drop every memo: the next append scans the whole array.
            g = cold_copy(&g);
        }
    }
}

#[test]
fn tail_window_appends_equal_the_whole_array_path() {
    let mut cov = Coverage::default();
    for seed in 0..12u64 {
        run_seed(0xA11E_0000 + seed, &mut cov);
    }
    // Every path was exercised, not just the easy one.
    assert!(cov.verified > 100, "{cov:?}");
    assert!(cov.unverified > 10, "{cov:?}");
    assert!(cov.inline > 10, "{cov:?}");
    assert!(cov.crossed > 10, "{cov:?}");
    assert!(cov.errors > 10, "{cov:?}");
}

#[test]
fn seam_cases_equal_the_whole_array_path() {
    let mut cov = Coverage::default();
    let long: Vec<_> = (0..40)
        .map(|i| (t(f64::from(i)), pt(f64::from(i), f64::from(i % 3))))
        .collect();
    let mut file = StoreFile::new();
    let sm = save_mpoint(&MovingPoint::from_samples(&long), file.store_mut());
    file.put("long", RootRecord::MPoint(sm));
    let single = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0))]);
    let sm = save_mpoint(&single, file.store_mut());
    file.put("single", RootRecord::MPoint(sm));
    let base = Generation::from_store_file(1, file, Vec::new());
    // The same cases on an unverified base and on a verified one. An
    // append verifies its base, so each case gets a fresh cold copy.
    let warm = cold_copy(&base);
    warm.open_mpoint("long", Verify::Full).expect("long opens");
    let batch = |samples: &[(f64, f64, f64)]| {
        let s: Vec<_> = samples.iter().map(|&(w, x, y)| (t(w), pt(x, y))).collect();
        records(MovingPoint::from_samples(&s).units())
    };
    let cases: Vec<Appends> = vec![
        // Closed tail trimmed.
        vec![("long".into(), batch(&[(39.0, 39.0, 0.0), (40.0, 0.0, 0.0)]))],
        // Collinear merge across the seam (39 % 3 == 0, 40 % 3 == 1).
        vec![(
            "long".into(),
            batch(&[(39.0, 39.0, 0.0), (40.0, 40.0, 1.0)]),
        )],
        // Point tail replaced.
        vec![("single".into(), batch(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]))],
        // Gap.
        vec![("long".into(), batch(&[(50.0, 0.0, 0.0), (51.0, 1.0, 0.0)]))],
        // Overlap.
        vec![("long".into(), batch(&[(38.5, 0.0, 0.0), (45.0, 1.0, 0.0)]))],
        // A new mapping.
        vec![("new".into(), batch(&[(0.0, 0.0, 0.0), (1.0, 2.0, 0.0)]))],
    ];
    for appends in &cases {
        check_step(&cold_copy(&base), appends, &mut cov);
        check_step(&warm, appends, &mut cov);
    }
    assert!(cov.verified >= 4 && cov.unverified >= 4, "{cov:?}");
}

/// A verified external array that an append shrinks back to inline
/// placement: the point tail is dropped and the continuation merges into
/// the unit before it, leaving 5 records (250 bytes).
#[test]
fn external_array_shrinking_to_inline_equals_the_whole_array_path() {
    let motion = PointMotion::stationary(pt(0.0, 0.0));
    let mut units: Vec<UPointRecord> = (0..4)
        .map(|i| UPointRecord {
            interval: Interval::closed_open(t(f64::from(i)), t(f64::from(i) + 0.5)),
            motion: PointMotion::stationary(pt(f64::from(i), 0.0)),
        })
        .collect();
    units.push(UPointRecord {
        interval: Interval::closed_open(t(4.0), t(5.0)),
        motion,
    });
    units.push(UPointRecord {
        interval: Interval::closed(t(5.0), t(5.0)),
        motion: PointMotion::stationary(pt(9.0, 9.0)),
    });
    assert!(units.len() * UPointRecord::SIZE > INLINE_THRESHOLD);
    let mut file = StoreFile::new();
    let saved = save_array(&units, file.store_mut());
    assert!(!saved.is_inline());
    file.put(
        "shrinks",
        RootRecord::MPoint(StoredMapping {
            num_units: 6,
            units: saved,
        }),
    );
    let g = Generation::from_store_file(1, file, Vec::new());
    g.open_mpoint("shrinks", Verify::Full)
        .expect("valid mapping");
    let cont = vec![UPointRecord {
        interval: Interval::closed(t(5.0), t(6.0)),
        motion,
    }];
    let mut cov = Coverage::default();
    let next = check_step(&g, &vec![("shrinks".to_string(), cont)], &mut cov)
        .expect("continuation applies");
    assert_eq!(cov.verified, 1);
    match next.get("shrinks") {
        Some(RootRecord::MPoint(sm)) => {
            assert!(sm.units.is_inline(), "{sm:?}");
            assert_eq!(sm.units.count, 5);
        }
        other => panic!("{other:?}"),
    }
}
