//! `fleetbench` — the standing end-to-end benchmark of `mob`.
//!
//! It drives the library the way a fleet-tracking service does: the
//! write path (`Ingestor` → `Txn::commit` → `Supervisor::run_once`),
//! the read path (`Relation::open` → `snapshot_at`, `filter_inside`,
//! `passes`, Q2), and both at once. Each layer is measured from
//! outside: by timing calls into its public functions, through a
//! pass-through `StoreIo` wrapper and a wrapping `Rebuilder` closure,
//! and by reading `mob-obs` registry deltas. See `README.md` for the
//! workloads and why each exists.

pub mod io;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod window;
pub mod write;

use metrics::{emit, Metric, Values, END_TO_END, PER_LAYER};
use mob_obs::Snapshot;
use mob_rel::QueryStats;
use mob_storage::MemIo;
use stats::{blocked, mean, median, ms, quantile, ratio};
use std::fmt::Display;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;
use trace::{Tracer, COVERAGE_MIN};
use window::{WindowParams, WindowStats};
use write::{Backend, WriteParams, WriteStats};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Write only: a fleet reporting every tick into a file store.
    FleetIngest,
    /// Read only: window queries over a pinned, indexed fleet.
    WindowQueries,
    /// Writes beside reads: each new generation is queried at once.
    LiveMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetIngest,
        Workload::WindowQueries,
        Workload::LiveMixed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetIngest => "fleet_ingest",
            Workload::WindowQueries => "window_queries",
            Workload::LiveMixed => "live_mixed",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of every phase.
#[derive(Clone, Debug)]
pub struct Scale {
    /// `fleet_ingest`'s focus.
    pub ingest: WriteParams,
    /// `live_mixed`'s focus.
    pub live: WriteParams,
    /// `window_queries`' focus.
    pub window: WindowParams,
    /// The small write-plus-fresh-read phase that supplies the
    /// end-to-end metrics outside a workload's focus.
    pub mini_live: WriteParams,
    /// Rounds of the mini live phase per run, spread over the run so
    /// its reopens are not all timed in one stretch.
    pub mini_live_rounds: usize,
    /// The small window phase that does the same for query metrics.
    pub mini_window: WindowParams,
    /// Least set-ups per run (`setup_s` is their median).
    pub setups: usize,
}

impl Scale {
    /// The sizes `BENCHMARK.json` runs.
    pub fn full() -> Scale {
        Scale {
            ingest: WriteParams {
                backend: Backend::Fs,
                objects: 64,
                ticks: 1000,
                report_every: 1,
                preload_ticks: 0,
                fresh: false,
                reopens: 21,
            },
            live: WriteParams {
                backend: Backend::Mem,
                objects: 256,
                ticks: 500,
                report_every: 4,
                preload_ticks: 256,
                fresh: true,
                reopens: 21,
            },
            window: WindowParams {
                planes: 10_000,
                q2_planes: 128,
                min_calls: 100,
            },
            mini_live: WriteParams {
                backend: Backend::Mem,
                objects: 32,
                ticks: 1000,
                report_every: 4,
                preload_ticks: 64,
                fresh: true,
                reopens: 21,
            },
            mini_live_rounds: 6,
            mini_window: WindowParams {
                planes: 3000,
                q2_planes: 48,
                min_calls: 400,
            },
            setups: 3,
        }
    }

    /// Smoke-test sizes.
    pub fn tiny() -> Scale {
        let s = Scale::full();
        Scale {
            ingest: WriteParams {
                objects: 6,
                ticks: 40,
                reopens: 2,
                ..s.ingest
            },
            live: WriteParams {
                objects: 12,
                ticks: 40,
                preload_ticks: 8,
                reopens: 2,
                ..s.live
            },
            window: WindowParams {
                planes: 300,
                q2_planes: 8,
                min_calls: 4,
            },
            mini_live: WriteParams {
                objects: 4,
                ticks: 24,
                preload_ticks: 8,
                reopens: 2,
                ..s.mini_live
            },
            mini_window: WindowParams {
                planes: 100,
                q2_planes: 6,
                min_calls: 4,
            },
            mini_live_rounds: 2,
            setups: 2,
        }
    }
}

/// One invocation.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measuring time of the focus phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
    /// Directory for file stores and the span dump.
    pub scratch: PathBuf,
}

/// What a run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Failed checks and operations, for the log.
    pub problems: Vec<String>,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// The traced-run report (empty when untraced).
    pub report: String,
}

/// Operation and output-check accounting for one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Output mismatches (and failed operations), capped.
    pub problems: Vec<String>,
    mismatches: u64,
}

const MAX_PROBLEMS: usize = 20;

impl Checks {
    /// Count one operation; on error, count a failure.
    pub fn op<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.note(format!("{what} failed: {e}"));
                None
            }
        }
    }

    /// An output check: `ok` or a mismatch described by `what`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches += 1;
            self.note(what());
        }
    }

    fn note(&mut self, s: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(s);
        }
    }

    /// No output check failed.
    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }
}

/// Per-query accounting of one kind of scan (traced runs).
#[derive(Clone, Debug, Default)]
pub struct ScanAcct {
    /// Queries recorded.
    pub queries: u64,
    /// Per query: candidates over tuples.
    pub candidate_ratio: Vec<f64>,
    /// Result rows summed.
    pub rows: u64,
    /// Candidates summed.
    pub candidates: u64,
    /// Planner fallbacks summed.
    pub fallbacks: u64,
    /// Registry deltas summed.
    pub registry: Snapshot,
}

impl ScanAcct {
    /// Record one scan of `tuples` tuples that returned `rows` rows.
    pub fn record(&mut self, tuples: usize, rows: usize, stats: &QueryStats) {
        let candidates = stats.candidates.unwrap_or(tuples);
        self.queries += 1;
        self.candidate_ratio
            .push(ratio(candidates as f64, tuples as f64));
        self.rows += rows as u64;
        self.candidates += candidates as u64;
        self.fallbacks += stats.index_fallbacks;
        self.registry.add(&stats.metrics);
    }

    /// Sum `other` into `self`.
    pub fn merge(&mut self, other: &ScanAcct) {
        self.queries += other.queries;
        self.candidate_ratio
            .extend_from_slice(&other.candidate_ratio);
        self.rows += other.rows;
        self.candidates += other.candidates;
        self.fallbacks += other.fallbacks;
        self.registry.add(&other.registry);
    }

    /// Registry counter `name` per query.
    pub fn per_query(&self, name: &str) -> f64 {
        ratio(self.registry.get(name) as f64, self.queries as f64)
    }

    /// Result rows per candidate tuple.
    pub fn rows_per_candidate(&self) -> f64 {
        ratio(self.rows as f64, self.candidates as f64)
    }
}

/// Run one invocation.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut checks = Checks::default();
    let tracer = if cfg.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let scratch = cfg.scratch.join(format!("run-{}", std::process::id()));
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let s = &cfg.scale;
    let mut e2e = Values::default();
    let mut layer = Values::default();
    let mut complement = (!cfg.trace).then(|| Complement::new(cfg, budget, &mut checks));
    let mut filler = |checks: &mut Checks| {
        if let Some(c) = complement.as_mut() {
            c.pace(checks);
        }
    };
    let (baseline_ms, traced_ms) = match cfg.workload {
        Workload::FleetIngest | Workload::LiveMixed => {
            let p = if cfg.workload == Workload::FleetIngest {
                &s.ingest
            } else {
                &s.live
            };
            let st = write::run(
                p,
                cfg.seed,
                Some(budget),
                s.setups,
                &scratch,
                &tracer,
                &mut checks,
                &mut filler,
            );
            clean_supervisor(&st, &mut checks);
            e2e.set("setup_s", median(&st.setup_s));
            write_e2e(&st, &mut e2e);
            write_layers(&st, &mut layer);
            (st.baseline_request_ms, st.request_ms())
        }
        Workload::WindowQueries => {
            let st = window::run(
                &s.window,
                cfg.seed,
                Some(budget),
                s.setups,
                &tracer,
                &mut checks,
                &mut filler,
            );
            e2e.set("setup_s", median(&st.setup_s));
            window_e2e(&st, &mut e2e);
            window_layers(&st, &mut layer);
            (st.baseline_request_ms, st.request_ms())
        }
    };
    if let Some(c) = complement {
        e2e.fill_from(&c.finish(&mut checks));
    }

    let mut metrics = if cfg.trace {
        let summary = tracer.summary();
        for (name, stage) in [
            ("scan.plan_ms", "scan.plan"),
            ("scan.prune_ms", "scan.prune"),
            ("scan.execute_ms", "scan.execute"),
        ] {
            let queries: u64 = ["scan.snapshot_at", "scan.filter_inside", "scan.passes"]
                .iter()
                .map(|q| summary.get(q).count)
                .sum();
            layer.set(
                name,
                ratio(ms(summary.get(stage).self_time), queries as f64),
            );
        }
        layer.set("obs.trace_overhead", ratio(traced_ms, baseline_ms));
        layer.set("obs.span_coverage", summary.coverage);
        let _ = std::fs::create_dir_all(&cfg.scratch);
        let dump = format!("spans-{}-seed{}.jsonl", cfg.workload.name(), cfg.seed);
        let dumped = tracer.write_jsonl(&cfg.scratch, &dump);
        checks.op("span dump", dumped);
        emit(PER_LAYER, &layer)
    } else {
        emit(END_TO_END, &e2e)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    for m in &mut metrics {
        if !m.value.is_finite() {
            checks.expect(false, || format!("metric {} is not finite", m.name));
            m.value = 0.0;
        }
    }
    let report = if cfg.trace {
        report(cfg, &tracer, &metrics)
    } else {
        String::new()
    };
    Outcome {
        correct: checks.correct(),
        attempted: checks.attempted,
        failed: checks.failed,
        problems: checks.problems,
        metrics,
        report,
    }
}

/// Batches a complement phase is split into over the run.
const COMPLEMENT_BATCHES: usize = 10;

/// The two small phases that supply the end-to-end metrics outside a
/// workload's focus: a window phase (for `fleet_ingest` and
/// `live_mixed`) and a write-plus-fresh-read phase (for `fleet_ingest`
/// and `window_queries`). Their steps are interleaved with the focus,
/// between its timed operations and paced over the run's budget, so
/// their samples spread over the whole run instead of one stretch.
struct Complement {
    window: Option<(window::Pinned, WindowStats, usize)>,
    live: Option<MiniLive>,
    start: Duration,
    budget: Duration,
}

/// The mini live phase: rounds of the write path on `MemIo`, one after
/// another.
struct MiniLive {
    p: write::WriteParams,
    seed: u64,
    round: Option<write::Round<MemIo>>,
    rounds_left: usize,
    st: WriteStats,
}

impl MiniLive {
    fn start(p: &write::WriteParams, seed: u64, rounds: usize, checks: &mut Checks) -> MiniLive {
        let mut live = MiniLive {
            p: p.clone(),
            seed,
            round: None,
            rounds_left: rounds,
            st: WriteStats::default(),
        };
        live.next_round(checks);
        live
    }

    /// Start the next round, if any is left.
    fn next_round(&mut self, checks: &mut Checks) {
        if self.rounds_left == 0 {
            return;
        }
        self.rounds_left -= 1;
        let mem = MemIo::new();
        let make: write::MakeIo<MemIo> = Box::new(move || Ok(mem.clone()));
        self.round = write::Round::start(
            &self.p,
            self.seed,
            make,
            &Tracer::off(),
            checks,
            &mut self.st,
        );
    }

    /// Measured ticks over every round.
    fn total_ticks(&self) -> usize {
        self.p.ticks * (self.rounds_left + usize::from(self.round.is_some()))
            + self.st.tick_ms.len()
    }

    /// Run ticks until `due` were measured or every round ended.
    fn run_to(&mut self, due: usize, checks: &mut Checks) {
        let off = Tracer::off();
        if let Some(round) = self.round.as_ref().filter(|_| self.st.tick_ms.len() < due) {
            round.warm(checks);
        }
        while self.st.tick_ms.len() < due {
            let Some(round) = self.round.as_mut() else {
                return;
            };
            if !round.step(&off, checks, &mut self.st) {
                if let Some(done) = self.round.take() {
                    done.finish(&off, checks, &mut self.st);
                }
                self.next_round(checks);
            }
        }
    }
}

impl Complement {
    fn new(cfg: &RunConfig, budget: Duration, checks: &mut Checks) -> Complement {
        let s = &cfg.scale;
        let window = (cfg.workload != Workload::WindowQueries)
            .then(|| {
                let mut st = WindowStats::default();
                window::Pinned::start(&s.mini_window, cfg.seed, 1, checks, &mut st)
                    .map(|pinned| (pinned, st, s.mini_window.min_calls))
            })
            .flatten();
        let live = (cfg.workload != Workload::LiveMixed)
            .then(|| MiniLive::start(&s.mini_live, cfg.seed, s.mini_live_rounds, checks));
        Complement {
            window,
            live,
            start: stats::now(),
            budget,
        }
    }

    /// Catch up with the share of the budget spent so far.
    fn pace(&mut self, checks: &mut Checks) {
        let spent = stats::now().saturating_sub(self.start).as_secs_f64();
        let share = if self.budget.is_zero() {
            1.0
        } else {
            (spent / self.budget.as_secs_f64()).min(1.0)
        };
        self.step(share, checks);
    }

    /// Run the steps due at `share` of the budget, in batches of
    /// [`COMPLEMENT_BATCHES`]ths of the total. Each batch starts with an
    /// untimed warm-up operation, so the timed ones do not pay for the
    /// caches the focus just evicted.
    fn step(&mut self, share: f64, checks: &mut Checks) {
        let off = Tracer::off();
        let due = |total: usize| {
            let batch = total.div_ceil(COMPLEMENT_BATCHES).max(1);
            (((total as f64 * share) / batch as f64).ceil() as usize * batch).min(total)
        };
        if let Some((pinned, st, target)) = self.window.as_mut() {
            let due = due(*target);
            if st.latency_ms[3].len() < due {
                pinned.cycle(&off, checks, &mut WindowStats::default());
            }
            while st.latency_ms[3].len() < due {
                pinned.cycle(&off, checks, st);
            }
        }
        if let Some(live) = self.live.as_mut() {
            live.run_to(due(live.total_ticks()), checks);
        }
    }

    /// Run what is left and report the end-to-end values.
    fn finish(mut self, checks: &mut Checks) -> Values {
        self.step(1.0, checks);
        let mut v = Values::default();
        if let Some((_, st, _)) = &self.window {
            window_e2e(st, &mut v);
        }
        if let Some(mut live) = self.live {
            if let Some(round) = live.round.take() {
                round.finish(&Tracer::off(), checks, &mut live.st);
            }
            clean_supervisor(&live.st, checks);
            write_e2e(&live.st, &mut v);
        }
        v
    }
}

/// On clean I/O the supervisor must neither retry nor give up.
fn clean_supervisor(st: &WriteStats, checks: &mut Checks) {
    checks.expect(st.retries == 0 && st.gave_up == 0, || {
        format!(
            "supervisor retried {} and gave up {} times on clean I/O",
            st.retries, st.gave_up
        )
    });
}

fn write_e2e(st: &WriteStats, v: &mut Values) {
    v.set(
        "ingest_samples_per_s",
        ratio(st.samples as f64, st.tick_time.as_secs_f64()),
    );
    v.set("tick_p50_ms", blocked(&st.tick_ms, 0.5));
    v.set("tick_p99_ms", blocked(&st.tick_ms, 0.99));
    v.set("write_amp", st.write_amp());
    v.set("recover_ms", blocked(&st.recover_ms, 0.5));
    if !st.fresh_ms.is_empty() {
        v.set("fresh_query_p50_ms", blocked(&st.fresh_ms, 0.5));
        v.set("fresh_query_p90_ms", blocked(&st.fresh_ms, 0.9));
    }
}

fn window_e2e(st: &WindowStats, v: &mut Values) {
    let names = [
        ("snapshot_at_p50_ms", "snapshot_at_p90_ms"),
        ("filter_inside_p50_ms", "filter_inside_p90_ms"),
        ("passes_p50_ms", "passes_p90_ms"),
        ("close_encounters_p50_ms", "close_encounters_p90_ms"),
    ];
    for (lat, (p50, p90)) in st.latency_ms.iter().zip(names) {
        v.set(p50, blocked(lat, 0.5));
        v.set(p90, blocked(lat, 0.9));
    }
}

fn scan_layers(acct: &ScanAcct, v: &mut Values) {
    let decoded = acct.per_query("view.units_decoded");
    let hits = acct.per_query("view.cache_hits");
    v.set("view.units_decoded", decoded);
    v.set("view.headers_read", acct.per_query("view.headers_read"));
    v.set("view.cache_hit_ratio", ratio(hits, hits + decoded));
    v.set("store.pages_read", acct.per_query("store.pages_read"));
    v.set("scan.index_fallbacks", acct.fallbacks as f64);
}

fn write_layers(st: &WriteStats, v: &mut Values) {
    let commits = st.commit_ms.len() as f64;
    let ticks = st.tick_ms.len() as f64;
    let io = st.commit_io;
    v.set("io.sync_ms", ratio(ms(io.sync_time), commits));
    v.set("io.syncs_per_commit", ratio(io.syncs as f64, commits));
    v.set(
        "io.bytes_written",
        ratio((io.bytes_written + st.maint_io.bytes_written) as f64, ticks),
    );
    v.set("io.bytes_read_on_open", median(&st.open_read_bytes));
    v.set(
        "ingest.append_us",
        ratio(st.append_time.as_secs_f64() * 1e6, st.samples as f64),
    );
    v.set(
        "ingest.seal_us",
        ratio(st.seal_time.as_secs_f64() * 1e6, st.units as f64),
    );
    v.set(
        "ingest.units_per_sample",
        ratio(st.units as f64, st.samples as f64),
    );
    v.set("durable.commit_ms_p50", quantile(&st.commit_ms, 0.5));
    v.set("durable.commit_ms_p99", quantile(&st.commit_ms, 0.99));
    v.set("durable.commit_self_ms", mean(&st.commit_self_ms));
    v.set("durable.commit_growth", median(&st.growth));
    v.set(
        "durable.delta_bytes_per_unit",
        ratio(io.bytes_written as f64, st.units as f64),
    );
    v.set(
        "durable.compaction_bytes_share",
        ratio(
            st.maint_io.bytes_written as f64,
            (io.bytes_written + st.maint_io.bytes_written) as f64,
        ),
    );
    v.set("durable.open_ms", median(&st.open_self_ms));
    v.set("durable.delta_replays", median(&st.open_replays));
    v.set("supervisor.run_ms_p50", quantile(&st.run_work_ms, 0.5));
    v.set("supervisor.run_ms_p99", quantile(&st.run_work_ms, 0.99));
    v.set("supervisor.compact_ms", mean(&st.compact_ms));
    v.set(
        "supervisor.useful_ratio",
        ratio(st.run_work_ms.len() as f64, st.runs as f64),
    );
    v.set("supervisor.retries", st.retries as f64);
    v.set("supervisor.gave_up", st.gave_up as f64);
    v.set("catalog.rebuild_ms", mean(&st.rebuild_ms));
    if !st.fresh_ms.is_empty() {
        let open = mean(&st.catalog_open_ms);
        v.set("catalog.open_ms", open);
        v.set(
            "catalog.open_us_per_tuple",
            ratio(
                open * 1e3 * st.catalog_open_ms.len() as f64,
                st.fresh_tuples as f64,
            ),
        );
        let f = &st.fresh_scan;
        v.set("scan.fresh.candidate_ratio", median(&f.candidate_ratio));
        v.set(
            "scan.index_nodes_visited",
            f.per_query("index.nodes_visited"),
        );
        scan_layers(f, v);
    }
}

fn window_layers(st: &WindowStats, v: &mut Values) {
    let names = [
        (
            "scan.snapshot_at.candidate_ratio",
            "scan.snapshot_at.rows_per_candidate",
        ),
        (
            "scan.filter_inside.candidate_ratio",
            "scan.filter_inside.rows_per_candidate",
        ),
        (
            "scan.passes.candidate_ratio",
            "scan.passes.rows_per_candidate",
        ),
    ];
    let mut all = ScanAcct::default();
    for (acct, (cand, rows)) in st.scans.iter().zip(names) {
        v.set(cand, mean(&acct.candidate_ratio));
        v.set(rows, acct.rows_per_candidate());
        all.merge(acct);
    }
    scan_layers(&all, v);
    v.set(
        "scan.index_nodes_visited",
        st.scans[2].per_query("index.nodes_visited"),
    );
    v.set(
        "core.pairs_per_match",
        st.q2_pairs as f64 / st.q2_matches.max(1) as f64,
    );
    v.set(
        "core.refinement_parts",
        ratio(st.q2_refinement_parts as f64, st.q2_pairs as f64),
    );
    v.set("core.closest_approach_us", st.closest_approach_us);
    v.set("par.speedup_2t", st.speedup_2t);
    v.set("par.chunks", st.scans[0].per_query("par.chunks"));
    v.set("par.items", st.scans[0].per_query("par.items"));
}

/// The traced-run report: self time per layer and per span, request
/// coverage, tracing overhead, and every per-layer metric with the
/// end-to-end metric it should move.
fn report(cfg: &RunConfig, tracer: &Tracer, metrics: &[Metric]) -> String {
    let summary = tracer.summary();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "fleetbench traced run: workload {} seed {} ({} s focus; threads 2; cores {})",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let total: Duration = summary.layers().iter().map(|l| l.1).sum();
    let _ = writeln!(s, "\nself time per layer:");
    for (layer, d) in summary.layers() {
        let _ = writeln!(
            s,
            "  {layer:<12} {:>12.3} ms  {:>5.1}%",
            ms(d),
            100.0 * ratio(d.as_secs_f64(), total.as_secs_f64())
        );
    }
    let _ = writeln!(s, "\nspans (count, total ms, self ms):");
    for n in &summary.names {
        let _ = writeln!(
            s,
            "  {:<28} {:>9} {:>12.3} {:>12.3}",
            n.name,
            n.count,
            ms(n.total),
            ms(n.self_time)
        );
    }
    let _ = writeln!(
        s,
        "\nrequest coverage by child spans (stated minimum {:.0}%):",
        COVERAGE_MIN * 100.0
    );
    for (name, count, total, covered) in &summary.roots {
        let _ = writeln!(
            s,
            "  {name:<10} {count:>7} requests  {:>6.2}% covered",
            100.0 * ratio(covered.as_secs_f64(), total.as_secs_f64())
        );
    }
    let verdict = if summary.coverage >= COVERAGE_MIN {
        "ok"
    } else {
        "BELOW the stated minimum: some request time is in no span"
    };
    let _ = writeln!(
        s,
        "  overall    {:.2}% — {verdict}",
        100.0 * summary.coverage
    );
    let _ = writeln!(s, "\nper-layer metrics (value, unit, should move):");
    for (m, d) in metrics.iter().zip(PER_LAYER) {
        let _ = writeln!(
            s,
            "  {:<38} {:>14.6} {:<7} -> {}",
            m.name, m.value, m.unit, d.moves
        );
    }
    s
}
