//! Metric definitions and the result line.
//!
//! The two tables below must match `BENCHMARK.json`: every untraced
//! run prints every [`END_TO_END`] metric, every traced run every
//! [`PER_LAYER`] metric, each with its unit. Each per-layer entry names
//! the end-to-end metric, and the workload, that it should move.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// What it should move (per-layer), or where it is measured
    /// (end-to-end).
    pub moves: &'static str,
}

const fn def(name: &'static str, unit: &'static str, moves: &'static str) -> Def {
    Def { name, unit, moves }
}

const WRITE: &str = "fleet_ingest, live_mixed";
const WINDOW: &str = "window_queries";

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "all"),
    def("ingest_samples_per_s", "samples/s", WRITE),
    def("tick_p50_ms", "ms", WRITE),
    def("tick_p99_ms", "ms", WRITE),
    def("write_amp", "ratio", WRITE),
    def("recover_ms", "ms", "fleet_ingest"),
    def("snapshot_at_p50_ms", "ms", WINDOW),
    def("snapshot_at_p90_ms", "ms", WINDOW),
    def("filter_inside_p50_ms", "ms", WINDOW),
    def("filter_inside_p90_ms", "ms", WINDOW),
    def("passes_p50_ms", "ms", WINDOW),
    def("passes_p90_ms", "ms", WINDOW),
    def("close_encounters_p50_ms", "ms", WINDOW),
    def("close_encounters_p90_ms", "ms", WINDOW),
    def("fresh_query_p50_ms", "ms", "live_mixed"),
    def("fresh_query_p90_ms", "ms", "live_mixed"),
];

const TICK_FI: &str = "tick_p50_ms on fleet_ingest";
const TICK_BOTH: &str = "tick_p50_ms on fleet_ingest and live_mixed";
const TAIL_BOTH: &str = "tick_p99_ms on fleet_ingest and live_mixed";
const AMP: &str = "write_amp on fleet_ingest and live_mixed";
const RECOVER: &str = "recover_ms on fleet_ingest";
const FRESH: &str = "fresh_query_p50_ms on live_mixed";
const VIEW: &str = "snapshot_at_p50_ms and filter_inside_p50_ms on window_queries; \
                    fresh_query_p50_ms on live_mixed";
const STAGES: &str = "<op>_p50_ms on window_queries; fresh_query_p50_ms on live_mixed";
const Q2: &str = "close_encounters_p50_ms on window_queries";
const SNAP: &str = "snapshot_at_p50_ms on window_queries";

/// Per-layer metrics, measured in the traced run. A layer the
/// workload's focus phase does not exercise reads 0.
pub const PER_LAYER: &[Def] = &[
    def("io.sync_ms", "ms", TICK_FI),
    def("io.syncs_per_commit", "count", TICK_FI),
    def("io.bytes_written", "B/tick", AMP),
    def("io.bytes_read_on_open", "B", RECOVER),
    def(
        "ingest.append_us",
        "us",
        "ingest_samples_per_s on fleet_ingest",
    ),
    def("ingest.seal_us", "us", TICK_BOTH),
    def("ingest.units_per_sample", "ratio", AMP),
    def("durable.commit_ms_p50", "ms", TICK_BOTH),
    def("durable.commit_ms_p99", "ms", TICK_BOTH),
    def("durable.commit_self_ms", "ms", TICK_BOTH),
    def(
        "durable.commit_growth",
        "ratio",
        "ingest_samples_per_s on fleet_ingest (near 1 means O(appended units))",
    ),
    def("durable.delta_bytes_per_unit", "B/unit", AMP),
    def("durable.compaction_bytes_share", "ratio", AMP),
    def("durable.open_ms", "ms", RECOVER),
    def("durable.delta_replays", "count", RECOVER),
    def("supervisor.run_ms_p50", "ms", TAIL_BOTH),
    def("supervisor.run_ms_p99", "ms", TAIL_BOTH),
    def("supervisor.compact_ms", "ms", TAIL_BOTH),
    def("supervisor.useful_ratio", "ratio", TAIL_BOTH),
    def(
        "supervisor.retries",
        "count",
        "none: must be 0 on clean I/O",
    ),
    def(
        "supervisor.gave_up",
        "count",
        "none: must be 0 on clean I/O",
    ),
    def("catalog.rebuild_ms", "ms", TAIL_BOTH),
    def("catalog.open_ms", "ms", FRESH),
    def("catalog.open_us_per_tuple", "us", FRESH),
    def("scan.snapshot_at.candidate_ratio", "ratio", SNAP),
    def(
        "scan.filter_inside.candidate_ratio",
        "ratio",
        "filter_inside_p50_ms on window_queries",
    ),
    def(
        "scan.passes.candidate_ratio",
        "ratio",
        "passes_p50_ms on window_queries",
    ),
    def("scan.fresh.candidate_ratio", "ratio", FRESH),
    def("scan.snapshot_at.rows_per_candidate", "ratio", SNAP),
    def(
        "scan.filter_inside.rows_per_candidate",
        "ratio",
        "filter_inside_p50_ms on window_queries",
    ),
    def(
        "scan.passes.rows_per_candidate",
        "ratio",
        "passes_p50_ms on window_queries",
    ),
    def(
        "scan.index_nodes_visited",
        "count",
        "passes_p50_ms on window_queries; fresh_query_p50_ms on live_mixed",
    ),
    def(
        "scan.index_fallbacks",
        "count",
        "none: must be 0 on window_queries",
    ),
    def("scan.plan_ms", "ms", STAGES),
    def("scan.prune_ms", "ms", STAGES),
    def("scan.execute_ms", "ms", STAGES),
    def("view.units_decoded", "count", VIEW),
    def("view.headers_read", "count", VIEW),
    def("view.cache_hit_ratio", "ratio", VIEW),
    def("store.pages_read", "count", VIEW),
    def("core.closest_approach_us", "us", Q2),
    def("core.pairs_per_match", "ratio", Q2),
    def("core.refinement_parts", "count", Q2),
    def("par.speedup_2t", "ratio", SNAP),
    def("par.chunks", "count", SNAP),
    def("par.items", "count", SNAP),
    def(
        "obs.trace_overhead",
        "ratio",
        "none: traced over untraced time per request of this workload",
    ),
    def(
        "obs.span_coverage",
        "ratio",
        "none: share of request time that child spans cover",
    ),
];

/// Metric values by name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set `name` (which must be defined in one of the tables).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undefined metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Copy every value of `other` that `self` lacks.
    pub fn fill_from(&mut self, other: &Values) {
        for (k, v) in &other.0 {
            self.0.entry(k).or_insert(*v);
        }
    }
}

/// One emitted metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Emit every metric of `defs`, in table order; unset ones read 0.
pub fn emit(defs: &[Def], values: &Values) -> Vec<Metric> {
    defs.iter()
        .map(|d| Metric {
            name: d.name,
            unit: d.unit,
            value: values.get(d.name).unwrap_or(0.0),
        })
        .collect()
}

/// The one-line JSON result.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_legal() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        assert_eq!(END_TO_END.len(), 16);
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(all[..i].iter().all(|e| e.name != d.name), "{}", d.name);
        }
    }

    #[test]
    fn result_line_shape() {
        let m = [Metric {
            name: "setup_s",
            unit: "s",
            value: 0.5,
        }];
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
