//! Experiments Q1/Q2 (Sec 2): the two example queries end to end — the
//! spatial projection query and the spatio-temporal join.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mob_gen::plane_fleet;
use mob_rel::{close_encounters, long_flights, planes_relation, Relation};
use std::hint::black_box;

fn fleet_relation(n: usize, units: usize) -> Relation {
    planes_relation(
        plane_fleet(0xF1EE7, n, units)
            .into_iter()
            .map(|p| (p.airline, p.id, p.flight))
            .collect(),
    )
}

fn q1_sweep_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("queries/q1-long-flights");
    for n in [16usize, 64, 256] {
        let planes = fleet_relation(n, 12);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(long_flights(&planes, "Lufthansa", 1500.0).len()));
        });
    }
    group.finish();
}

fn q2_sweep_fleet(c: &mut Criterion) {
    // Filter-and-refine join: an R-tree over flight cubes, then the
    // exact closest-approach test on the surviving pairs only.
    let mut group = c.benchmark_group("queries/q2-close-encounters");
    group.sample_size(10);
    for n in [8usize, 16, 32, 64] {
        let planes = fleet_relation(n, 12);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(close_encounters(&planes, 25.0).len()));
        });
    }
    group.finish();
}

fn q2_sweep_units(c: &mut Criterion) {
    // Join cost also scales with the per-flight unit count.
    let mut group = c.benchmark_group("queries/q2-sweep-units-per-flight");
    group.sample_size(10);
    for units in [4usize, 16, 64] {
        let planes = fleet_relation(16, units);
        group.bench_with_input(BenchmarkId::from_parameter(units), &units, |b, _| {
            b.iter(|| black_box(close_encounters(&planes, 25.0).len()));
        });
    }
    group.finish();
}

fn fast_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(900))
}

criterion_group! {
    name = benches;
    config = fast_config();
    targets = q1_sweep_fleet, q2_sweep_fleet, q2_sweep_units
}
criterion_main!(benches);
