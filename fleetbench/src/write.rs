//! The write path: `Ingestor::append` → `Ingestor::seal_into` →
//! `Txn::commit` (a WAL delta) → `Supervisor::run_once` inline, one
//! writer tick after another; optionally a fresh indexed read of every
//! new generation; then repeated reopens of the final directory.
//!
//! The supervisor runs inline on a `VirtualClock` with the shipped
//! `SupervisorConfig::default()`: there is no background thread, so
//! every count repeats exactly and maintenance shows as a foreground
//! stall in the tick that triggered it.

use crate::io::{IoMeter, IoTotals, TimedIo};
use crate::stats::{mean, ms, now, Rng};
use crate::trace::Tracer;
use crate::window::SCAN_THREADS;
use crate::{Checks, ScanAcct};
use mob_base::{t, Interval};
use mob_core::UnitSeq;
use mob_gen::trajectory::{random_waypoint_mpoint, TrajectoryConfig};
use mob_rel::{index_rebuilder, rebuild_index_root, IndexPolicy, OpenRelOpts, Relation, ScanOpts};
use mob_spatial::{rect_ring, Point, Region};
use mob_storage::{
    DurableStore, FsIo, Generation, Ingestor, MaintTick, MemIo, Rebuilder, StoreIo, Supervisor,
    SupervisorConfig, Verify, VirtualClock,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Root name of the stored R-tree.
pub const INDEX_ROOT: &str = "fleet/index";
/// Ticks committed without maintenance at the end of a round, so the
/// reopen always replays a non-empty delta chain.
pub const EXTRA_TICKS: usize = 4;
/// One sample's share of a unit record: three `f64`s (t, x, y).
const SAMPLE_BYTES: f64 = 24.0;
/// Every this many ticks a fresh answer is compared with the full scan.
const FRESH_CHECK_EVERY: usize = 10;
/// A fresh query looks back this many ticks ...
const FRESH_WINDOW_TICKS: usize = 8;
/// ... inside a square zone this wide.
const FRESH_ZONE: f64 = 200.0;
/// Ticks per parking block: an object parked for a block reports its
/// last position exactly, so those samples merge into one unit.
const PARK_BLOCK: usize = 16;
/// GPS noise added to a moving object's position.
const JITTER: f64 = 0.5;

/// Which `StoreIo` the store sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `FsIo` in a directory of the run's scratch space; every commit
    /// is fsynced (the store's own policy, no batching).
    Fs,
    /// `MemIo`: no device.
    Mem,
}

/// Shape of a write workload.
#[derive(Clone, Debug)]
pub struct WriteParams {
    /// Storage backend.
    pub backend: Backend,
    /// Objects in the fleet.
    pub objects: usize,
    /// Measured writer ticks per round.
    pub ticks: usize,
    /// Object `o` reports at tick `k` when `(k + o) % report_every == 0`.
    pub report_every: usize,
    /// Ticks of history committed (and compacted and indexed) in set-up.
    pub preload_ticks: usize,
    /// Run a fresh indexed query after every tick.
    pub fresh: bool,
    /// Reopens of the final directory per round.
    pub reopens: usize,
}

/// Everything the write path measured, summed over rounds.
#[derive(Debug, Default)]
pub struct WriteStats {
    /// Completed rounds.
    pub rounds: u64,
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Writer tick times (append + seal + commit + `run_once`), ms.
    pub tick_ms: Vec<f64>,
    /// Sum of the tick times.
    pub tick_time: Duration,
    /// Samples appended in measured ticks.
    pub samples: u64,
    /// Units sealed in measured ticks.
    pub units: u64,
    /// Time in `Ingestor::append`.
    pub append_time: Duration,
    /// Time in `Ingestor::seal_into`.
    pub seal_time: Duration,
    /// Writer commit times, ms.
    pub commit_ms: Vec<f64>,
    /// Writer commit times minus the I/O inside them, ms.
    pub commit_self_ms: Vec<f64>,
    /// I/O inside writer commits.
    pub commit_io: IoTotals,
    /// I/O inside `run_once`.
    pub maint_io: IoTotals,
    /// Per round: mean commit time of the last tenth of ticks over the
    /// first tenth.
    pub growth: Vec<f64>,
    /// `run_once` calls.
    pub runs: u64,
    /// `run_once` times of calls that compacted, ms.
    pub run_work_ms: Vec<f64>,
    /// Those times minus the index rebuild inside them, ms.
    pub compact_ms: Vec<f64>,
    /// Index rebuild (the `Rebuilder` closure) times, ms.
    pub rebuild_ms: Vec<f64>,
    /// Supervisor retries and give-ups.
    pub retries: u64,
    /// Supervisor give-ups.
    pub gave_up: u64,
    /// Reopen times, ms.
    pub recover_ms: Vec<f64>,
    /// Reopen times minus the I/O inside them, ms.
    pub open_self_ms: Vec<f64>,
    /// Bytes read per reopen.
    pub open_read_bytes: Vec<f64>,
    /// Deltas replayed per reopen (registry, traced runs).
    pub open_replays: Vec<f64>,
    /// Fresh query times (pin + open + passes), ms.
    pub fresh_ms: Vec<f64>,
    /// Sum of the fresh query times.
    pub fresh_time: Duration,
    /// `Relation::open` times inside fresh queries, ms.
    pub catalog_open_ms: Vec<f64>,
    /// Tuples opened by fresh queries.
    pub fresh_tuples: u64,
    /// Scan accounting of the fresh queries (traced runs).
    pub fresh_scan: ScanAcct,
    /// Mean time per request of the untraced half of a traced run.
    pub baseline_request_ms: f64,
}

impl WriteStats {
    /// Mean time per measured tick, fresh query included.
    pub fn request_ms(&self) -> f64 {
        ms(self.tick_time + self.fresh_time) / self.tick_ms.len().max(1) as f64
    }

    /// Bytes passed to the store's I/O per byte of sample data.
    pub fn write_amp(&self) -> f64 {
        let written = (self.commit_io.bytes_written + self.maint_io.bytes_written) as f64;
        written / (self.samples as f64 * SAMPLE_BYTES).max(1.0)
    }
}

/// The fleet's reports: per object, its position at every tick.
struct Fleet {
    names: Vec<String>,
    tracks: Vec<Vec<Point>>,
    report_every: usize,
}

impl Fleet {
    /// Seeded mob-gen random-waypoint paths, advanced one leg per tick
    /// while the object moves, plus small GPS jitter. One block in
    /// eight an object is parked: it repeats its last report exactly.
    fn new(seed: u64, objects: usize, ticks: usize, report_every: usize) -> Fleet {
        let cfg = TrajectoryConfig {
            extent: 1000.0,
            units: ticks + 1,
            leg_duration: 1.0,
            max_step: 20.0,
            start: 0.0,
        };
        let tracks = (0..objects)
            .map(|o| {
                let salt = o as u64 + 1;
                let path = random_waypoint_mpoint(seed ^ salt.wrapping_mul(0xA24B_AED4), &cfg);
                let mut rng = Rng::new(seed, salt);
                let mut leg = 0.0;
                let mut last: Option<Point> = None;
                (0..ticks)
                    .map(|k| {
                        let p = match last {
                            Some(p) if is_parked(seed, o, k) => p,
                            _ => {
                                leg += 1.0;
                                let at = path
                                    .at_instant(t(leg))
                                    .into_option()
                                    .expect("the path covers every moving tick");
                                Point::from_f64(
                                    at.x.get() + rng.range(-JITTER, JITTER),
                                    at.y.get() + rng.range(-JITTER, JITTER),
                                )
                            }
                        };
                        last = Some(p);
                        p
                    })
                    .collect()
            })
            .collect();
        Fleet {
            names: (0..objects).map(|o| format!("obj/{o:04}")).collect(),
            tracks,
            report_every,
        }
    }

    fn reports(&self, o: usize, k: usize) -> bool {
        (k + o).is_multiple_of(self.report_every)
    }
}

/// Whether object `o` is parked during tick `k`'s block.
fn is_parked(seed: u64, o: usize, k: usize) -> bool {
    let block = (o * 1_000_003 + k / PARK_BLOCK) as u64;
    Rng::new(seed ^ 0x5EED_0F0A_D0C5, block)
        .next_u64()
        .is_multiple_of(8)
}

type Store<I> = Arc<Mutex<DurableStore<TimedIo<I>>>>;

/// A store ready for writer ticks.
struct Rig<I: StoreIo> {
    store: Store<I>,
    sup: Supervisor<TimedIo<I>>,
    ingest: Ingestor,
    meter: IoMeter,
    rebuilds: Arc<Mutex<Vec<Duration>>>,
}

/// What one writer tick did.
struct Tick {
    samples: u64,
    units: u64,
    append: Duration,
    seal: Duration,
    commit: Duration,
    commit_io: IoTotals,
    run: Option<(Duration, MaintTick, IoTotals, Duration)>,
    total: Duration,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark thread panicked holding a lock")
}

/// Set-up: generate the fleet, open the store, commit the preloaded
/// history (compacted and indexed) and attach the supervisor.
fn setup<I: StoreIo>(
    p: &WriteParams,
    seed: u64,
    io: I,
    tracer: &Tracer,
) -> Result<(Rig<I>, Fleet), String> {
    let fleet = Fleet::new(
        seed,
        p.objects,
        p.preload_ticks + p.ticks + EXTRA_TICKS,
        p.report_every,
    );
    let meter = IoMeter::default();
    let mut store = DurableStore::options()
        .open(TimedIo::new(io, &meter, tracer))
        .map_err(|e| e.to_string())?;
    let mut ingest = Ingestor::new();
    if p.preload_ticks > 0 {
        for k in 0..p.preload_ticks {
            for (o, name) in fleet.names.iter().enumerate() {
                if fleet.reports(o, k) {
                    ingest
                        .append(name, t(k as f64), fleet.tracks[o][k])
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        let mut txn = store.begin();
        ingest.seal_into(&mut txn);
        txn.commit().map_err(|e| e.to_string())?;
        store.compact().map_err(|e| e.to_string())?;
        let snap = store.snapshot().map_err(|e| e.to_string())?;
        let indexed = rebuild_index_root(&snap, &OpenRelOpts::new(), INDEX_ROOT)
            .map_err(|e| e.to_string())?
            .ok_or("preload left nothing to index")?;
        let mut txn = store.begin();
        txn.put_store_file(&indexed).map_err(|e| e.to_string())?;
        txn.commit().map_err(|e| e.to_string())?;
    }
    let store = Arc::new(Mutex::new(store));
    let rebuilds: Arc<Mutex<Vec<Duration>>> = Arc::default();
    let rebuilder: Rebuilder = {
        let inner = index_rebuilder(OpenRelOpts::new(), INDEX_ROOT.to_string());
        let (log, tracer) = (Arc::clone(&rebuilds), tracer.clone());
        Arc::new(move |g: &Generation| {
            tracer.enter("catalog.rebuild");
            let start = now();
            let out = inner(g);
            let took = now().saturating_sub(start);
            tracer.exit();
            lock(&log).push(took);
            out
        })
    };
    let sup = Supervisor::new(
        Arc::clone(&store),
        SupervisorConfig::default(),
        Arc::new(VirtualClock::new()),
    )
    .with_rebuilder(rebuilder);
    Ok((
        Rig {
            store,
            sup,
            ingest,
            meter,
            rebuilds,
        },
        fleet,
    ))
}

/// One writer tick at instant `k`: every reporting object appends its
/// sample, the tails are sealed into one delta commit, and (when
/// `maintain`) the supervisor runs once. `None` when an operation
/// failed; the failure is counted in `checks`.
fn tick<I: StoreIo>(
    rig: &mut Rig<I>,
    fleet: &Fleet,
    k: usize,
    maintain: bool,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Option<Tick> {
    tracer.request();
    tracer.enter("tick");
    let start = now();
    tracer.enter("ingest.append");
    let mut samples = 0u64;
    let mut appended = true;
    for (o, name) in fleet.names.iter().enumerate() {
        if fleet.reports(o, k) {
            samples += 1;
            let r = rig.ingest.append(name, t(k as f64), fleet.tracks[o][k]);
            appended &= checks.op("ingest append", r).is_some();
        }
    }
    tracer.exit();
    let appended_at = now();
    let (units, sealed_at, committed, commit_io, committed_at) = {
        let mut store = lock(&rig.store);
        let mut txn = store.begin();
        let units = tracer.span("ingest.seal", || rig.ingest.seal_into(&mut txn));
        let sealed_at = now();
        let io0 = rig.meter.totals();
        let committed = tracer.span("durable.commit", || txn.commit());
        let committed_at = now();
        (
            units,
            sealed_at,
            committed,
            rig.meter.totals() - io0,
            committed_at,
        )
    };
    let committed = checks.op("delta commit", committed).is_some();
    let mut run = None;
    if maintain && committed {
        let io0 = rig.meter.totals();
        let rebuilt0 = lock(&rig.rebuilds).len();
        let outcome = tracer.span("supervisor.run_once", || rig.sup.run_once());
        let took = now().saturating_sub(committed_at);
        let rebuild = lock(&rig.rebuilds)[rebuilt0..].iter().sum();
        let result = match &outcome {
            MaintTick::GaveUp { error, .. } => Err(error.clone()),
            _ => Ok(()),
        };
        checks.op("supervised maintenance", result);
        run = Some((took, outcome, rig.meter.totals() - io0, rebuild));
    }
    let total = now().saturating_sub(start);
    tracer.exit();
    (appended && committed).then_some(Tick {
        samples,
        units: units as u64,
        append: appended_at.saturating_sub(start),
        seal: sealed_at.saturating_sub(appended_at),
        commit: committed_at.saturating_sub(sealed_at),
        commit_io,
        run,
        total,
    })
}

impl WriteStats {
    fn record(&mut self, tick: &Tick) {
        self.tick_ms.push(ms(tick.total));
        self.tick_time += tick.total;
        self.samples += tick.samples;
        self.units += tick.units;
        self.append_time += tick.append;
        self.seal_time += tick.seal;
        self.commit_ms.push(ms(tick.commit));
        self.commit_self_ms
            .push(ms(tick.commit.saturating_sub(tick.commit_io.busy)));
        self.commit_io = self.commit_io + tick.commit_io;
        if let Some((took, outcome, io, rebuild)) = &tick.run {
            self.runs += 1;
            self.maint_io = self.maint_io + *io;
            if matches!(outcome, MaintTick::Compacted { .. }) {
                self.run_work_ms.push(ms(*took));
                self.compact_ms.push(ms(took.saturating_sub(*rebuild)));
            }
        }
    }
}

/// A fresh query at tick `k`: pin the newest generation, open it with
/// its stored (possibly stale) index, and ask which objects passed the
/// zone during the last ticks. Every [`FRESH_CHECK_EVERY`]th answer is
/// compared with the `IndexPolicy::Off` answer on the same generation.
fn fresh<I: StoreIo>(
    rig: &Rig<I>,
    k: usize,
    zone: &Region,
    tracer: &Tracer,
    checks: &mut Checks,
    st: &mut WriteStats,
) {
    let window = Interval::closed(t(k.saturating_sub(FRESH_WINDOW_TICKS) as f64), t(k as f64));
    let opts = ScanOpts::new().threads(SCAN_THREADS).stats(tracer.is_on());
    tracer.request();
    tracer.enter("fresh");
    let start = now();
    let pin = tracer.span("durable.snapshot", || lock(&rig.store).snapshot());
    let opened_at = now();
    let rel = pin.and_then(|pin| {
        tracer.span("catalog.open", || {
            Relation::open(&pin, &OpenRelOpts::new().index(INDEX_ROOT))
        })
    });
    let scanned_at = now();
    let answer = rel
        .as_ref()
        .ok()
        .map(|rel| tracer.explained("scan.passes", || rel.passes("trip", zone, &window, &opts)));
    let took = now().saturating_sub(start);
    tracer.exit();
    let Some(rel) = checks.op("fresh open", rel) else {
        return;
    };
    let (answer, _) = answer.expect("opened relations are scanned");
    let Some((got, stats)) = checks.op("fresh passes", answer) else {
        return;
    };
    st.fresh_ms.push(ms(took));
    st.fresh_time += took;
    st.catalog_open_ms
        .push(ms(scanned_at.saturating_sub(opened_at)));
    st.fresh_tuples += rel.len() as u64;
    if let Some(stats) = &stats {
        st.fresh_scan.record(rel.len(), got.len(), stats);
    }
    if k.is_multiple_of(FRESH_CHECK_EVERY) {
        let off = ScanOpts::new().threads(2).index(IndexPolicy::Off);
        if let Some((want, _)) =
            checks.op("reference passes", rel.passes("trip", zone, &window, &off))
        {
            checks.expect(got == want, || {
                format!("fresh passes at tick {k} differs from the full scan")
            });
        }
    }
}

/// Every acknowledged sample must read back at its instant.
fn verify_acked(gen: &Generation, fleet: &Fleet, acked_ticks: usize, checks: &mut Checks) {
    let mut wrong = 0usize;
    let mut seen = 0usize;
    for (o, name) in fleet.names.iter().enumerate() {
        let view = match gen.open_mpoint(name, Verify::Full) {
            Ok(v) => v,
            Err(e) => {
                checks.expect(false, || format!("reopened {name} does not open: {e}"));
                continue;
            }
        };
        for k in (0..acked_ticks).filter(|&k| fleet.reports(o, k)) {
            seen += 1;
            let want = fleet.tracks[o][k];
            let ok = view
                .at_instant(t(k as f64))
                .into_option()
                .is_some_and(|got| {
                    (got.x.get() - want.x.get()).abs() <= 1e-6
                        && (got.y.get() - want.y.get()).abs() <= 1e-6
                });
            wrong += usize::from(!ok);
        }
    }
    checks.expect(wrong == 0 && seen > 0, || {
        format!("{wrong} of {seen} acknowledged samples read back wrong after reopen")
    });
}

/// Makes the store's `StoreIo`, once for set-up and once per reopen.
pub type MakeIo<I> = Box<dyn Fn() -> mob_base::DecodeResult<I>>;

/// One round of the write path: set up, run the measured ticks (with
/// fresh queries when asked), commit [`EXTRA_TICKS`] more without
/// maintenance, then reopen the directory `p.reopens` times and check
/// every acknowledged sample.
pub struct Round<I: StoreIo> {
    p: WriteParams,
    make_io: MakeIo<I>,
    rig: Rig<I>,
    fleet: Fleet,
    zone: Region,
    next: usize,
    acked: usize,
    commit_ms: Vec<f64>,
    broken: bool,
}

impl<I: StoreIo> Round<I> {
    /// Set up a round; the set-up time goes to `st.setup_s`.
    pub fn start(
        p: &WriteParams,
        seed: u64,
        make_io: MakeIo<I>,
        tracer: &Tracer,
        checks: &mut Checks,
        st: &mut WriteStats,
    ) -> Option<Round<I>> {
        tracer.request();
        tracer.enter("setup");
        let start = now();
        let io = checks.op("open store directory", make_io());
        let ready = io.and_then(|io| checks.op("write set-up", setup(p, seed, io, tracer)));
        let took = now().saturating_sub(start);
        tracer.exit();
        let (rig, fleet) = ready?;
        st.setup_s.push(took.as_secs_f64());
        let mut rng = Rng::new(seed, 0x20E);
        let (cx, cy) = (rng.range(-600.0, 600.0), rng.range(-600.0, 600.0));
        let half = FRESH_ZONE / 2.0;
        Some(Round {
            p: p.clone(),
            make_io,
            rig,
            fleet,
            zone: Region::from_ring(rect_ring(cx - half, cy - half, cx + half, cy + half)),
            next: p.preload_ticks,
            acked: p.preload_ticks,
            commit_ms: Vec::with_capacity(p.ticks),
            broken: false,
        })
    }

    /// An untimed fresh query on the newest generation, to warm caches.
    pub fn warm(&self, checks: &mut Checks) {
        if self.p.fresh {
            let k = self.next.saturating_sub(1);
            let mut scratch = WriteStats::default();
            fresh(
                &self.rig,
                k,
                &self.zone,
                &Tracer::off(),
                checks,
                &mut scratch,
            );
        }
    }

    /// Run the next measured tick (and fresh query); `false` once every
    /// tick ran or an operation failed.
    pub fn step(&mut self, tracer: &Tracer, checks: &mut Checks, st: &mut WriteStats) -> bool {
        let k = self.next;
        if self.broken || k >= self.p.preload_ticks + self.p.ticks {
            return false;
        }
        let Some(done) = tick(&mut self.rig, &self.fleet, k, true, tracer, checks) else {
            self.broken = true;
            return false;
        };
        st.record(&done);
        self.commit_ms.push(ms(done.commit));
        self.acked = k + 1;
        self.next = k + 1;
        if self.p.fresh {
            fresh(&self.rig, k, &self.zone, tracer, checks, st);
        }
        true
    }

    /// Close the round: commit growth, supervisor counters, the extra
    /// ticks, the reopens and the read-back check.
    pub fn finish(mut self, tracer: &Tracer, checks: &mut Checks, st: &mut WriteStats) {
        let c = &self.commit_ms;
        let tenth = (c.len() / 10).max(1);
        if c.len() >= 2 * tenth {
            let early = mean(&c[..tenth]);
            let late = mean(&c[c.len() - tenth..]);
            st.growth.push(late / early.max(f64::MIN_POSITIVE));
        }
        let status = self.rig.sup.status();
        st.retries += status.retries;
        st.gave_up += status.gave_up;
        st.rebuild_ms
            .extend(lock(&self.rig.rebuilds).iter().map(|d| ms(*d)));

        if !self.broken {
            for k in self.acked..self.acked + EXTRA_TICKS {
                if tick(&mut self.rig, &self.fleet, k, false, tracer, checks).is_none() {
                    break;
                }
                self.acked = k + 1;
            }
        }
        let pending = lock(&self.rig.store).pending_deltas();
        checks.expect(pending > 0, || "the final delta chain is empty".to_string());
        let Round {
            p,
            make_io,
            rig,
            fleet,
            acked,
            ..
        } = self;
        drop(rig);

        // One untimed reopen first: the timed ones then all start from
        // the same (warm) page and CPU caches.
        let warm = make_io().and_then(|io| DurableStore::options().open(io));
        checks.op("reopen", warm);
        let mut last = None;
        for _ in 0..p.reopens.max(1) {
            let Some(io) = checks.op("reopen directory", make_io()) else {
                continue;
            };
            let meter = IoMeter::default();
            let replays0 = mob_obs::Registry::global().snapshot();
            tracer.request();
            tracer.enter("recover");
            let start = now();
            let reopened = tracer.span("durable.open", || {
                DurableStore::options().open(TimedIo::new(io, &meter, tracer))
            });
            let took = now().saturating_sub(start);
            tracer.exit();
            let replays = mob_obs::Registry::global()
                .snapshot()
                .delta(&replays0)
                .get("durable.delta_replays");
            if let Some(store) = checks.op("reopen", reopened) {
                let io = meter.totals();
                st.recover_ms.push(ms(took));
                st.open_self_ms.push(ms(took.saturating_sub(io.busy)));
                st.open_read_bytes.push(io.bytes_read as f64);
                st.open_replays.push(replays as f64);
                last = Some(store);
            }
        }
        if let Some(store) = last {
            if let Some(gen) = checks.op("snapshot after reopen", store.snapshot()) {
                verify_acked(&gen, &fleet, acked, checks);
            }
        }
        st.rounds += 1;
    }
}

/// Work to do between two focus operations, outside their timing.
pub type Filler<'a> = &'a mut dyn FnMut(&mut Checks);

/// Run rounds of the write path until `budget` is spent, give or take
/// half a round (at least one round), calling `filler` after every
/// tick, then extra set-ups until there are `min_setups` set-up
/// samples. A traced run spends the first half
/// of `budget` untraced, as the baseline of `obs.trace_overhead`. File
/// stores live in numbered directories under `scratch`, removed after
/// each round.
#[allow(clippy::too_many_arguments)]
pub fn run(
    p: &WriteParams,
    seed: u64,
    budget: Option<Duration>,
    min_setups: usize,
    scratch: &Path,
    tracer: &Tracer,
    checks: &mut Checks,
    filler: Filler<'_>,
) -> WriteStats {
    let go = |budget, setups, tracer: &Tracer, checks: &mut Checks, filler: Filler<'_>| match p
        .backend
    {
        Backend::Fs => {
            let dir = |n: usize| scratch.join(format!("store-{n}"));
            let io = |n: usize| -> (MakeIo<FsIo>, Option<PathBuf>) {
                let d = dir(n);
                let _ = std::fs::remove_dir_all(&d);
                let make = d.clone();
                (Box::new(move || FsIo::open(&make)), Some(d))
            };
            rounds(p, seed, budget, setups, &io, tracer, checks, filler)
        }
        Backend::Mem => {
            let io = |_: usize| -> (MakeIo<MemIo>, Option<PathBuf>) {
                let mem = MemIo::new();
                (Box::new(move || Ok(mem.clone())), None)
            };
            rounds(p, seed, budget, setups, &io, tracer, checks, filler)
        }
    };
    if !tracer.is_on() {
        return go(budget, min_setups, tracer, checks, filler);
    }
    let half = budget.map(|b| b / 2);
    let baseline = go(half, 0, &Tracer::off(), checks, filler);
    let mut st = go(half, min_setups, tracer, checks, filler);
    st.baseline_request_ms = baseline.request_ms();
    st
}

#[allow(clippy::too_many_arguments)]
fn rounds<I: StoreIo>(
    p: &WriteParams,
    seed: u64,
    budget: Option<Duration>,
    min_setups: usize,
    new_io: &dyn Fn(usize) -> (MakeIo<I>, Option<PathBuf>),
    tracer: &Tracer,
    checks: &mut Checks,
    filler: Filler<'_>,
) -> WriteStats {
    let mut st = WriteStats::default();
    let start = now();
    let mut n = 0usize;
    loop {
        n += 1;
        let (make_io, dir) = new_io(n);
        let started = Round::start(p, seed, make_io, tracer, checks, &mut st);
        if let Some(mut round) = started {
            while round.step(tracer, checks, &mut st) {
                filler(checks);
            }
            round.finish(tracer, checks, &mut st);
        }
        if let Some(d) = dir {
            let _ = std::fs::remove_dir_all(d);
        }
        // Stop when another round would end nearer to the budget's end
        // if not run: the run then lasts the budget give or take half
        // a round.
        let spent = now().saturating_sub(start);
        let per_round = spent / n as u32;
        if st.rounds < n as u64 || budget.is_none_or(|b| spent + per_round / 2 >= b) {
            break;
        }
    }
    while st.setup_s.len() < min_setups {
        n += 1;
        let before = st.setup_s.len();
        let (make_io, dir) = new_io(n);
        drop(Round::start(
            p,
            seed,
            make_io,
            &Tracer::off(),
            checks,
            &mut st,
        ));
        if let Some(d) = dir {
            let _ = std::fs::remove_dir_all(d);
        }
        if st.setup_s.len() == before {
            break;
        }
    }
    st
}
