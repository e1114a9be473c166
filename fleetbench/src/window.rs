//! The read path: window queries over a pinned, indexed plane fleet.
//!
//! Set-up generates `plane_fleet(seed, n, 12)`, commits it as
//! `moving(point)` roots, builds the index with `rebuild_index_root`,
//! commits that, and opens the pinned generation in place with
//! `Relation::open(.., OpenRelOpts::new().index(..))`. One closed-loop
//! client then runs `snapshot_at`, `filter_inside`, `passes` and the
//! Section-2 Q2 join round-robin. Timed scans run on one thread
//! ([`SCAN_THREADS`]); two threads are timed only for `par.speedup_2t`.

use crate::stats::{median, ms, now};
use crate::trace::Tracer;
use crate::write::{Filler, INDEX_ROOT};
use crate::{Checks, ScanAcct};
use mob_base::{t, Instant, Interval, Val};
use mob_core::MovingPoint;
use mob_gen::plane_fleet;
use mob_obs::Snapshot;
use mob_rel::{
    close_encounters, closest_approach, planes_relation, rebuild_index_root, AttrValue,
    IndexPolicy, OpenRelOpts, Relation, ScanOpts,
};
use mob_spatial::{rect_ring, Region};
use mob_storage::mapping_store::save_mpoint;
use mob_storage::{DurableStore, MemIo, RootRecord, StoreFile};
use std::time::Duration;

/// Legs per generated flight.
pub const UNITS_PER_FLIGHT: usize = 12;
/// `snapshot_at` rotates through this many instants of `[5, 95)`. Its
/// cost rises and falls with the flights aloft, so the instants are
/// dense enough that its median does not jump between a few of them.
pub const INSTANTS: usize = 128;
/// `filter_inside` and `passes` rotate through this many zones, so each
/// median is the median of many probes of the fleet rather than of one.
pub const ZONES: usize = 32;
/// Side of every `filter_inside` and `passes` zone (E10's probe).
const ZONE_SIDE: f64 = 120.0;
/// The `passes` window, where the index prunes to a few percent.
const WINDOW: (f64, f64) = (40.0, 55.0);
/// Q2's distance threshold.
const Q2_THRESHOLD: f64 = 25.0;
/// `snapshot_at` calls per thread count for `par.speedup_2t`.
const SPEEDUP_CALLS: usize = 11;
/// Q2 rotates over up to this many disjoint relations of `q2_planes`
/// flights each, so its median is the median of many draws of the
/// fleet rather than of a few.
pub const Q2_RELATIONS: usize = 64;
/// Pool threads of every timed scan. On a two-core host a second
/// thread mostly measures the scheduler (spawn, wake-up, a stolen
/// core), so timed scans run inline; `par.speedup_2t` times both.
pub const SCAN_THREADS: usize = 1;

/// Shape of a window workload.
#[derive(Clone, Debug)]
pub struct WindowParams {
    /// Flights in the pinned relation.
    pub planes: usize,
    /// Flights in each of Q2's in-memory relations.
    pub q2_planes: usize,
    /// Least calls of each operation.
    pub min_calls: usize,
}

/// Everything the read path measured.
#[derive(Debug, Default)]
pub struct WindowStats {
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Latency per operation (`snapshot_at`, `filter_inside`, `passes`,
    /// `close_encounters`), ms.
    pub latency_ms: [Vec<f64>; 4],
    /// Scan accounting of the first [`ZONES`] calls of each scan
    /// (traced runs).
    pub scans: [ScanAcct; 3],
    /// Q2 pairs evaluated by one call on each relation.
    pub q2_pairs: u64,
    /// Q2 pairs returned by those calls.
    pub q2_matches: u64,
    /// Refinement parts of those calls (registry, traced runs).
    pub q2_refinement_parts: u64,
    /// `closest_approach` time per pair, µs (traced runs).
    pub closest_approach_us: f64,
    /// `snapshot_at` median at one thread over the median at two
    /// (traced runs).
    pub speedup_2t: f64,
    /// Mean time per request of the untraced half of a traced run.
    pub baseline_request_ms: f64,
}

impl WindowStats {
    /// Mean time per operation call.
    pub fn request_ms(&self) -> f64 {
        let all: Vec<f64> = self.latency_ms.iter().flatten().copied().collect();
        crate::stats::mean(&all)
    }
}

struct Rig {
    rel: Relation,
    q2: Vec<Relation>,
    flights: Vec<MovingPoint>,
}

struct Refs {
    snap: Vec<Relation>,
    filter: Vec<Relation>,
    passes: Vec<Relation>,
    /// Each Q2 relation's first answer, which every later call on it
    /// must repeat.
    q2: Vec<Option<Relation>>,
}

/// The `i`th zone: E10's 120×120 probe, its centre moved over an 8×4
/// grid 100 apart around the origin, where the fleet's traffic is
/// nearly even.
fn zone(i: usize) -> Region {
    let j = (i * 13) % ZONES;
    let cx = 100.0 * ((j % 8) as f64 - 3.5);
    let cy = 100.0 * ((j / 8) as f64 - 1.5);
    let h = ZONE_SIDE / 2.0;
    Region::from_ring(rect_ring(cx - h, cy - h, cx + h, cy + h))
}

fn window() -> mob_base::TimeInterval {
    Interval::closed(t(WINDOW.0), t(WINDOW.1))
}

/// The `i`th `snapshot_at` instant.
fn instant(i: usize) -> Instant {
    t(5.0 + 90.0 * ((i * 7) % INSTANTS) as f64 / INSTANTS as f64)
}

fn setup(p: &WindowParams, seed: u64) -> Result<Rig, String> {
    let planes = plane_fleet(seed, p.planes, UNITS_PER_FLIGHT);
    let mut file = StoreFile::new();
    for plane in &planes {
        let stored = save_mpoint(&plane.flight, file.store_mut());
        file.put(plane.id.clone(), RootRecord::MPoint(stored));
    }
    let mut store = DurableStore::options()
        .open(MemIo::new())
        .map_err(|e| e.to_string())?;
    let mut txn = store.begin();
    txn.put_store_file(&file).map_err(|e| e.to_string())?;
    txn.commit().map_err(|e| e.to_string())?;
    let snap = store.snapshot().map_err(|e| e.to_string())?;
    let indexed = rebuild_index_root(&snap, &OpenRelOpts::new(), INDEX_ROOT)
        .map_err(|e| e.to_string())?
        .ok_or("the fleet left nothing to index")?;
    let mut txn = store.begin();
    txn.put_store_file(&indexed).map_err(|e| e.to_string())?;
    txn.commit().map_err(|e| e.to_string())?;
    let pinned = store.snapshot().map_err(|e| e.to_string())?;
    let rel = Relation::open(&pinned, &OpenRelOpts::new().index(INDEX_ROOT))
        .map_err(|e| e.to_string())?;
    let relations = Q2_RELATIONS.min(p.planes / p.q2_planes.max(1)).max(1);
    let flights = planes
        .iter()
        .take(p.q2_planes)
        .map(|p| p.flight.clone())
        .collect();
    let q2 = planes
        .chunks(p.q2_planes.max(1))
        .take(relations)
        .map(|chunk| {
            planes_relation(
                chunk
                    .iter()
                    .map(|p| (p.airline.clone(), p.id.clone(), p.flight.clone()))
                    .collect(),
            )
        })
        .collect();
    Ok(Rig { rel, q2, flights })
}

/// The `IndexPolicy::Off` answers every timed answer must equal.
fn references(rig: &Rig, checks: &mut Checks) -> Option<Refs> {
    let off = ScanOpts::new().threads(2).index(IndexPolicy::Off);
    let (mut snap, mut filter, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..INSTANTS {
        let got = rig.rel.snapshot_at(instant(i), &off);
        snap.push(checks.op("reference snapshot_at", got)?.0);
    }
    for i in 0..ZONES {
        let got = rig.rel.filter_inside("trip", &zone(i), &off);
        filter.push(checks.op("reference filter_inside", got)?.0);
        let got = rig.rel.passes("trip", &zone(i), &window(), &off);
        passes.push(checks.op("reference passes", got)?.0);
    }
    Some(Refs {
        snap,
        filter,
        passes,
        q2: vec![None; rig.q2.len()],
    })
}

/// One request: a `query` span around the layer call `name`.
fn query<R>(tracer: &Tracer, name: &str, f: impl FnOnce() -> R) -> (R, Duration, Snapshot) {
    tracer.request();
    tracer.enter("query");
    let start = now();
    let (out, delta) = tracer.explained(name, f);
    let took = now().saturating_sub(start);
    tracer.exit();
    (out, took, delta)
}

/// Tuples of a snapshot that hold a defined point.
fn defined(rel: &Relation) -> usize {
    rel.tuples()
        .iter()
        .filter(|tup| {
            tup.values()
                .iter()
                .any(|v| matches!(v, AttrValue::Point(Val::Def(_))))
        })
        .count()
}

/// A pinned, indexed fleet with its reference answers, ready for
/// query cycles.
pub struct Pinned {
    rig: Rig,
    refs: Refs,
    opts: [ScanOpts; 2],
    next: usize,
}

impl Pinned {
    /// Set up `setups` times (keeping the last; each set-up time goes
    /// to `st.setup_s`), then compute the reference answers.
    pub fn start(
        p: &WindowParams,
        seed: u64,
        setups: usize,
        checks: &mut Checks,
        st: &mut WindowStats,
    ) -> Option<Pinned> {
        let mut rig = None;
        for _ in 0..setups.max(1) {
            let start = now();
            if let Some(r) = checks.op("window set-up", setup(p, seed)) {
                st.setup_s.push(now().saturating_sub(start).as_secs_f64());
                rig = Some(r);
            }
        }
        let rig = rig?;
        let refs = references(&rig, checks)?;
        Some(Pinned {
            rig,
            refs,
            opts: [
                ScanOpts::new().threads(SCAN_THREADS),
                ScanOpts::new().threads(SCAN_THREADS).stats(true),
            ],
            next: 0,
        })
    }

    /// One closed-loop round-robin cycle of the four operations, each
    /// answer checked against its reference outside the timing. A
    /// traced cycle collects stats; the first [`ZONES`] traced
    /// cycles are accounted (they cover every zone once).
    pub fn cycle(&mut self, tracer: &Tracer, checks: &mut Checks, st: &mut WindowStats) {
        let (rig, refs, i) = (&self.rig, &mut self.refs, self.next);
        self.next += 1;
        let opts = &self.opts[usize::from(tracer.is_on())];
        let acct = tracer.is_on() && st.latency_ms[3].len() < ZONES;
        let (zone, window) = (zone(i), window());
        let tuples = rig.rel.len();

        let (res, took, _) = query(tracer, "scan.snapshot_at", || {
            rig.rel.snapshot_at(instant(i), opts)
        });
        if let Some((got, stats)) = checks.op("snapshot_at", res) {
            st.latency_ms[0].push(ms(took));
            if let (true, Some(s)) = (acct, &stats) {
                st.scans[0].record(tuples, defined(&got), s);
            }
            checks.expect(got == refs.snap[i % INSTANTS], || {
                format!("snapshot_at call {i} differs from the full scan")
            });
        }

        let (res, took, _) = query(tracer, "scan.filter_inside", || {
            rig.rel.filter_inside("trip", &zone, opts)
        });
        if let Some((got, stats)) = checks.op("filter_inside", res) {
            st.latency_ms[1].push(ms(took));
            if let (true, Some(s)) = (acct, &stats) {
                st.scans[1].record(tuples, got.len(), s);
            }
            checks.expect(got == refs.filter[i % ZONES], || {
                format!("filter_inside call {i} differs from the full scan")
            });
        }

        let (res, took, _) = query(tracer, "scan.passes", || {
            rig.rel.passes("trip", &zone, &window, opts)
        });
        if let Some((got, stats)) = checks.op("passes", res) {
            st.latency_ms[2].push(ms(took));
            if let (true, Some(s)) = (acct, &stats) {
                st.scans[2].record(tuples, got.len(), s);
            }
            checks.expect(got == refs.passes[i % ZONES], || {
                format!("passes call {i} differs from the full scan")
            });
        }

        let r = i % rig.q2.len();
        let planes = &rig.q2[r];
        let (got, took, delta) = query(tracer, "core.close_encounters", || {
            close_encounters(planes, Q2_THRESHOLD)
        });
        checks.op::<_, String>("close_encounters", Ok(()));
        if tracer.is_on() && st.latency_ms[3].len() < rig.q2.len() {
            let n = planes.len() as u64;
            st.q2_pairs += n * n.saturating_sub(1) / 2;
            st.q2_matches += got.len() as u64;
            st.q2_refinement_parts += delta.get("core.refinement.parts");
        }
        st.latency_ms[3].push(ms(took));
        let want = refs.q2[r].get_or_insert_with(|| got.clone());
        checks.expect(got == *want, || {
            format!("close_encounters call {i} returned a different pair set")
        });
    }

    /// Traced-run extras: `par.speedup_2t` and the per-pair cost of
    /// `closest_approach`.
    fn extras(&self, checks: &mut Checks, st: &mut WindowStats) {
        let rel = &self.rig.rel;
        let (one, two) = (ScanOpts::new().threads(1), ScanOpts::new().threads(2));
        let (mut t1, mut t2) = (Vec::new(), Vec::new());
        for j in 0..SPEEDUP_CALLS {
            for (opts, out) in [(&one, &mut t1), (&two, &mut t2)] {
                let start = now();
                let res = rel.snapshot_at(instant(j), opts);
                out.push(ms(now().saturating_sub(start)));
                checks.op("snapshot_at", res);
            }
        }
        st.speedup_2t = median(&t1) / median(&t2).max(f64::MIN_POSITIVE);

        let flights = &self.rig.flights;
        let start = now();
        let mut pairs = 0u64;
        for (a, fa) in flights.iter().enumerate() {
            for fb in &flights[a + 1..] {
                std::hint::black_box(closest_approach(fa, fb));
                pairs += 1;
            }
        }
        st.closest_approach_us =
            now().saturating_sub(start).as_secs_f64() * 1e6 / pairs.max(1) as f64;
    }
}

/// Set up, then run query cycles until at least `p.min_calls` ran and
/// `budget` (if any) is spent, calling `filler` after every cycle. A
/// traced run spends the first half of `budget` untraced, as the
/// baseline of `obs.trace_overhead`.
pub fn run(
    p: &WindowParams,
    seed: u64,
    budget: Option<Duration>,
    min_setups: usize,
    tracer: &Tracer,
    checks: &mut Checks,
    filler: Filler<'_>,
) -> WindowStats {
    let mut st = WindowStats::default();
    let Some(mut pinned) = Pinned::start(p, seed, min_setups, checks, &mut st) else {
        return st;
    };
    let mut cycles = |min: usize,
                      budget: Option<Duration>,
                      tracer: &Tracer,
                      checks: &mut Checks,
                      st: &mut WindowStats| {
        let start = now();
        let mut n = 0;
        while n < min || budget.is_some_and(|b| now().saturating_sub(start) < b) {
            pinned.cycle(tracer, checks, st);
            filler(checks);
            n += 1;
        }
    };
    if !tracer.is_on() {
        cycles(p.min_calls, budget, tracer, checks, &mut st);
        return st;
    }
    let (half, per_half) = (budget.map(|b| b / 2), p.min_calls.div_ceil(2));
    let mut baseline = WindowStats::default();
    cycles(per_half, half, &Tracer::off(), checks, &mut baseline);
    st.baseline_request_ms = baseline.request_ms();
    cycles(per_half, half, tracer, checks, &mut st);
    pinned.extras(checks, &mut st);
    st
}
