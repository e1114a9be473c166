//! Tiny-size runs of every workload: every metric is emitted with its
//! unit, every output check passes, and the deterministic counts repeat
//! exactly for one seed and move with another.

use fleetbench::metrics::{Metric, END_TO_END, PER_LAYER};
use fleetbench::{run, Outcome, RunConfig, Scale, Workload};
use std::path::PathBuf;
use std::sync::Mutex;

/// Traced runs read process-wide registry deltas, so runs must not
/// overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let out = run(&RunConfig {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::tiny(),
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fleetbench-smoke"),
    });
    assert!(
        out.correct && out.failed == 0 && out.attempted > 0,
        "{} seed {seed} trace {trace}: {:?}",
        workload.name(),
        out.problems
    );
    out
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let out = tiny(w, 7, trace);
            let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let want: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(got, want, "{} trace {trace}", w.name());
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                let zero: Vec<&str> = out
                    .metrics
                    .iter()
                    .filter(|m| m.value <= 0.0)
                    .map(|m| m.name)
                    .collect();
                assert!(zero.is_empty(), "{}: zero metrics {zero:?}", w.name());
            } else {
                assert!(out.report.contains("request coverage"));
                assert!(out.report.contains("obs.trace_overhead"));
            }
        }
    }
}

/// The counts the program makes deterministically for one workload.
fn counts(w: Workload, seed: u64) -> Vec<(&'static str, f64)> {
    let untraced = tiny(w, seed, false).metrics;
    let traced = tiny(w, seed, true).metrics;
    let mut out = vec![("write_amp", value(&untraced, "write_amp"))];
    for name in [
        "ingest.units_per_sample",
        "scan.snapshot_at.candidate_ratio",
        "scan.filter_inside.candidate_ratio",
        "scan.passes.candidate_ratio",
        "scan.fresh.candidate_ratio",
        "view.units_decoded",
        "core.pairs_per_match",
    ] {
        out.push((name, value(&traced, name)));
    }
    out
}

#[test]
fn deterministic_counts_repeat_for_a_seed_and_move_with_it() {
    for w in Workload::ALL {
        let a = counts(w, 21);
        assert_eq!(a, counts(w, 21), "{} repeats", w.name());
        assert_ne!(a, counts(w, 22), "{} follows the seed", w.name());
    }
}
