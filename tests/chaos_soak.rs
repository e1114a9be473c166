//! Chaos soak for the fault-tolerant maintenance supervisor — the
//! capstone of DESIGN.md §14.
//!
//! Each iteration stages a committed delta chain, reopens it through a
//! fault-injecting I/O layer (rotating clean / transient / storage-full
//! modes), and then interleaves a writer with supervised maintenance
//! ticks (compaction + index rebuild under the retry policy, on a
//! virtual clock). The invariants, per iteration:
//!
//! * **old-or-new**: the recovered store holds exactly the units of the
//!   acknowledged commits — a failed commit or failed maintenance
//!   attempt never leaves a hybrid;
//! * **pinned reads are immutable**: a snapshot pinned before the chaos
//!   answers byte-identically after it;
//! * **clean audits**: after the recovery sweep, `mob-check`'s chain
//!   audit passes with no damaged or shadowed files;
//! * **bounded degradation**: storage-full faults degrade to manual
//!   mode (never panic), and `resume()` re-arms the supervisor;
//! * **deadline-bounded scans**: an expired [`ScanOpts::deadline`]
//!   returns the typed [`ScanError::Deadline`] with honest progress,
//!   and a roomy deadline changes nothing.
//!
//! Campaign-level, the soak must see both recovery paths actually taken:
//! at least one retried-then-successful maintenance cycle and at least
//! one give-up. The fixed-seed campaign runs 300 iterations; a
//! randomized campaign on top prints its seed (`MOB_FAULT_SEED`) so any
//! failure replays exactly.

use mob::base::t;
use mob::core::MovingPoint;
use mob::rel::{index_rebuilder, OnError, OpenRelOpts, Relation, ScanError, ScanOpts};
use mob::spatial::pt;
use mob::storage::mapping_store::UPointRecord;
use mob::storage::supervisor::{MaintTick, RetryPolicy, Supervisor, SupervisorConfig};
use mob::storage::{
    load_array, Clock, DurableStore, FaultMask, FaultyIo, Generation, MemIo, RootRecord,
    VirtualClock, STORAGE_FULL_MARKER,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const INDEX_ROOT: &str = "fleet/index";

/// Which fault injector an iteration runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// No faults: the supervisor's happy path (and the deadline-scan
    /// assertions, which want a quiet store).
    Clean,
    /// Every mutating `(file, op)` fails once before succeeding: every
    /// maintenance step must retry through backoff and come through.
    Transient,
    /// The disk fills up mid-campaign: maintenance must give up to
    /// manual mode without corrupting the chain.
    StorageFull,
}

/// Campaign-wide tallies the soak asserts on at the end.
#[derive(Debug, Default)]
struct Totals {
    iterations: u64,
    compactions: u64,
    rebuilds: u64,
    retried_ticks: u64,
    gave_up: u64,
    writer_retries: u64,
}

/// One writer commit: a fresh object with a deterministic 3-sample
/// track derived from (iteration, commit index).
fn commit_batch(iter: u64, k: u64) -> (String, Vec<mob::core::UPoint>) {
    let t0 = (iter % 97) as f64 * 10.0 + k as f64 * 3.0;
    let samples: Vec<_> = (0..3)
        .map(|i| {
            let s = t0 + i as f64;
            (t(s), pt(s * 0.5 - k as f64, s - iter as f64 * 0.25))
        })
        .collect();
    (
        format!("obj/{iter}/{k}"),
        MovingPoint::from_samples(&samples).units().to_vec(),
    )
}

/// Every `moving(point)` object's stored units, in catalog order. The
/// index rebuild adds a [`RootRecord::Index`] entry, so comparisons
/// look only at the mpoint roots — maintenance must never change what
/// the data says.
fn mpoint_units(snap: &Generation) -> Vec<(String, Vec<UPointRecord>)> {
    snap.entries()
        .iter()
        .filter_map(|(name, root)| match root {
            RootRecord::MPoint(m) => Some((
                name.clone(),
                load_array::<UPointRecord>(&m.units, snap.store()).expect("units decode"),
            )),
            _ => None,
        })
        .collect()
}

/// The ground truth for old-or-new: replay exactly the acknowledged
/// commits on a clean store and snapshot the result. Unit content is
/// path-independent (splice at the seams, compaction folds without
/// rewriting), so this must equal the recovered faulty store.
fn replay_expected(acked: &[(String, Vec<mob::core::UPoint>)]) -> Vec<(String, Vec<UPointRecord>)> {
    let mut store = DurableStore::options()
        .open(MemIo::new())
        .expect("replay open");
    for (name, units) in acked {
        let mut txn = store.begin();
        txn.append_units(name, units);
        txn.commit().expect("replay commit");
    }
    mpoint_units(&store.snapshot().expect("replay snapshot"))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Deadline-bounded scans over the live store (clean iterations only):
/// an already-expired budget fails typed with zero progress, a roomy
/// one answers like an undeadlined scan, and the registry counter moves
/// when observability is on.
fn assert_deadline_scans(store: &Mutex<DurableStore<FaultyIo>>) {
    let snap = lock(store).snapshot().expect("snapshot for scans");
    let rel = Relation::open(&snap, &OpenRelOpts::new().on_error(OnError::SkipAndRecord))
        .expect("relation opens");
    let probe = t(5.0);

    let before = mob::obs::Registry::global()
        .snapshot()
        .get("scan.deadline_exceeded");
    let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
    let expired = ScanOpts::new().deadline(Arc::clone(&clock), Duration::ZERO);
    match rel.snapshot_at(probe, &expired) {
        Err(ScanError::Deadline { items_done, .. }) => {
            assert_eq!(items_done, 0, "expired before any work");
        }
        other => panic!("expired deadline must fail typed, got {other:?}"),
    }
    if mob::obs::enabled() {
        let after = mob::obs::Registry::global()
            .snapshot()
            .get("scan.deadline_exceeded");
        assert!(after > before, "scan.deadline_exceeded must advance");
    }

    // A roomy deadline is invisible: same answer as no deadline at all.
    let roomy = ScanOpts::new().deadline(clock, Duration::from_secs(3600));
    let (with, _) = rel.snapshot_at(probe, &roomy).expect("roomy deadline");
    let (without, _) = rel
        .snapshot_at(probe, &ScanOpts::new())
        .expect("plain scan");
    assert_eq!(with.len(), without.len(), "deadline changed the answer");
}

/// One soak iteration: stage, injure, supervise, recover, audit.
fn soak_iteration(iter: u64, campaign_seed: u64, totals: &mut Totals) {
    let mode = match iter % 3 {
        0 => Mode::Transient,
        1 => Mode::StorageFull,
        _ => Mode::Clean,
    };
    let seed = campaign_seed ^ (iter.wrapping_mul(0x9E37_79B9_7F4A_7C15));

    // Stage three delta commits on the clean disk (through a unit
    // counter, so the storage-full budget can be sized to the actual
    // workload instead of a magic number).
    let disk = MemIo::new();
    let mut acked: Vec<(String, Vec<mob::core::UPoint>)> = Vec::new();
    let staged_units = {
        let probe = FaultyIo::new(disk.clone(), u64::MAX, FaultMask::KeepUnsynced, 0);
        let mut store = DurableStore::options().open(probe).expect("stage open");
        for k in 0..3 {
            let (name, units) = commit_batch(iter, k);
            let mut txn = store.begin();
            txn.append_units(&name, &units);
            txn.commit().expect("staged delta");
            acked.push((name, units));
        }
        store.io().write_units()
    };

    // Reopen the staged chain through this iteration's injector.
    let io = match mode {
        Mode::Clean => FaultyIo::new(disk, u64::MAX, FaultMask::KeepUnsynced, 0),
        Mode::Transient => FaultyIo::transient(disk, 1, seed),
        // Budget ≈ 1.5 staged commits: the first writer commit fits,
        // compaction's full snapshot cannot.
        Mode::StorageFull => FaultyIo::storage_full(disk, staged_units / 2, seed),
    };
    let store = Arc::new(Mutex::new(
        DurableStore::options().open(io).expect("faulty reopen"),
    ));

    // Pin a snapshot before the chaos; it must answer byte-identically
    // after it, whatever maintenance does.
    let (pinned, pinned_bytes) = {
        let s = lock(&store);
        let snap = s.snapshot().expect("pin");
        let bytes = snap.to_store_file().to_bytes().expect("pinned bytes");
        (snap, bytes)
    };
    let pinned_units = mpoint_units(&pinned);

    let clock = Arc::new(VirtualClock::new());
    let config = SupervisorConfig {
        delta_threshold: 2,
        delta_bytes_threshold: u64::MAX,
        policy: RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(5),
            cap: Duration::from_millis(40),
            seed,
        },
        poll_interval: Duration::from_millis(1),
    };
    let sup =
        Supervisor::new(Arc::clone(&store), config, clock.clone()).with_rebuilder(index_rebuilder(
            OpenRelOpts::new().on_error(OnError::SkipAndRecord),
            INDEX_ROOT.to_string(),
        ));

    // Interleave a writer with maintenance ticks. The writer retries a
    // failed commit twice (transient faults heal); a commit is
    // acknowledged — and counted into the ground truth — only on `Ok`.
    for k in 3..8 {
        let (name, units) = commit_batch(iter, k);
        let mut landed = false;
        for _attempt in 0..3 {
            let mut s = lock(&store);
            let mut txn = s.begin();
            txn.append_units(&name, &units);
            match txn.commit() {
                Ok(_) => {
                    landed = true;
                    break;
                }
                Err(_) => totals.writer_retries += 1,
            }
        }
        if landed {
            acked.push((name, units));
        }

        match sup.run_once() {
            MaintTick::Idle => {}
            MaintTick::Compacted {
                retries, indexed, ..
            } => {
                totals.compactions += 1;
                if retries > 0 {
                    totals.retried_ticks += 1;
                }
                if indexed {
                    totals.rebuilds += 1;
                }
            }
            MaintTick::GaveUp { error, .. } => {
                totals.gave_up += 1;
                assert!(
                    mode != Mode::Clean,
                    "iteration {iter}: clean mode gave up: {error}"
                );
                if mode == Mode::StorageFull {
                    assert!(
                        error.contains(STORAGE_FULL_MARKER),
                        "iteration {iter}: wrong give-up cause: {error}"
                    );
                }
                let st = sup.status();
                assert!(st.manual, "give-up must enter manual mode");
                assert!(st.last_error.is_some());
                sup.resume();
                assert!(!sup.status().manual, "resume must re-arm");
            }
        }
    }

    // Backoffs ran in virtual time only: the soak never really sleeps.
    if mode == Mode::Clean {
        assert!(clock.slept().is_empty(), "clean mode must not back off");
        assert_deadline_scans(&store);
    }

    // The pinned snapshot is still byte-identical.
    assert_eq!(
        pinned.to_store_file().to_bytes().expect("pinned re-render"),
        pinned_bytes,
        "iteration {iter}: maintenance moved a pinned snapshot"
    );
    assert_eq!(mpoint_units(&pinned), pinned_units);

    // Tear down, recover the surviving disk, and hold it to old-or-new:
    // exactly the acknowledged commits, nothing else.
    drop(sup);
    let store = Arc::try_unwrap(store).unwrap_or_else(|_| panic!("supervisor kept a store handle"));
    let survivor = match store.into_inner() {
        Ok(s) => s,
        Err(p) => p.into_inner(),
    }
    .into_io()
    .into_survivor();

    // The chain audit, run before recovery touches the directory,
    // predicts the generation recovery reaches.
    let predicted = mob_check::audit_chain(&survivor).expect("audit runs");
    let recovered = DurableStore::options()
        .open(survivor.clone())
        .expect("recovery never errors");
    assert_eq!(
        predicted.head.unwrap_or(0),
        recovered.generation(),
        "iteration {iter} ({mode:?}): chain audit mispredicts recovery:\n{}",
        predicted.render()
    );
    assert_eq!(
        mpoint_units(&recovered.snapshot().expect("recovered snapshot")),
        replay_expected(&acked),
        "iteration {iter} ({mode:?}): recovered state is not old-or-new"
    );
    drop(recovered);

    // The recovery sweep also healed the directory: the chain audit is
    // clean, including after mid-compaction failures.
    let report = mob_check::audit_chain(&survivor).expect("audit runs");
    assert!(
        report.all_ok(),
        "iteration {iter} ({mode:?}): dirty chain audit:\n{}",
        report.render()
    );

    totals.iterations += 1;
}

/// Run a whole campaign and assert both recovery paths were exercised.
fn soak(campaign_seed: u64, iterations: u64) {
    let mut totals = Totals::default();
    for iter in 0..iterations {
        soak_iteration(iter, campaign_seed, &mut totals);
    }
    println!("soak totals: {totals:?}");
    assert_eq!(totals.iterations, iterations);
    assert!(
        totals.retried_ticks >= 1,
        "campaign never saw a retry-then-success: {totals:?}"
    );
    assert!(
        totals.gave_up >= 1,
        "campaign never saw a give-up: {totals:?}"
    );
    assert!(
        totals.rebuilds >= 1,
        "campaign never committed an index rebuild: {totals:?}"
    );
    assert!(totals.compactions >= iterations / 3, "{totals:?}");
}

#[test]
fn chaos_soak_fixed_seed() {
    soak(0x50A1_C0DE, 300);
}

#[test]
fn chaos_soak_randomized_with_printed_seed() {
    let campaign_seed = match std::env::var("MOB_FAULT_SEED") {
        Ok(s) => s.parse::<u64>().unwrap_or(0xCAFE),
        Err(_) => {
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0xCAFE);
            now ^ 0x9E37_79B9_7F4A_7C15
        }
    };
    println!("MOB_FAULT_SEED={campaign_seed} (set this env var to reproduce)");
    soak(campaign_seed, 60);
}

/// The spawned supervisor thread compacts on its own: stage a chain
/// past the threshold, spawn, and wait for the counter to move. On a
/// virtual clock the poll sleeps return instantly, so the thread spins
/// through its ticks without real time passing.
#[test]
fn spawned_supervisor_compacts_in_the_background() {
    let disk = MemIo::new();
    let io = FaultyIo::new(disk, u64::MAX, FaultMask::KeepUnsynced, 0);
    let mut store = DurableStore::options().open(io).expect("open");
    for k in 0..3 {
        let (name, units) = commit_batch(0, k);
        let mut txn = store.begin();
        txn.append_units(&name, &units);
        txn.commit().expect("delta");
    }
    let store = Arc::new(Mutex::new(store));

    let config = SupervisorConfig {
        delta_threshold: 2,
        delta_bytes_threshold: u64::MAX,
        policy: RetryPolicy::default(),
        poll_interval: Duration::from_millis(1),
    };
    let sup = Supervisor::new(Arc::clone(&store), config, Arc::new(VirtualClock::new()))
        .with_rebuilder(index_rebuilder(
            OpenRelOpts::new().on_error(OnError::SkipAndRecord),
            INDEX_ROOT.to_string(),
        ));
    let handle = sup.spawn();

    // Bounded wait without real sleeps: yield until the background
    // thread reports a compaction (it has nothing else to do).
    let mut ok = false;
    for _ in 0..5_000_000 {
        let st = handle.status();
        if st.compactions >= 1 && st.rebuilds >= 1 {
            ok = true;
            break;
        }
        std::thread::yield_now();
    }
    handle.stop();
    assert!(ok, "background supervisor never compacted");

    let s = lock(&store);
    let snap = s.snapshot().expect("snapshot");
    assert!(
        snap.get(INDEX_ROOT).is_some(),
        "background rebuild left no index root"
    );
    assert_eq!(s.pending_deltas(), 0, "chain folded in the background");
}
