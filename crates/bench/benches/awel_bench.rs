//! Experiment E3: AWEL scheduling overhead — batch vs async execution
//! across DAG widths and depths, plus DSL parse cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use serde_json::json;

use dbgpt_awel::{ops, Dag, DagBuilder, ExecutionMode, OperatorRegistry, Scheduler};
use dbgpt_obs::Span;

/// A fan-out/fan-in DAG of the given width.
fn wide_dag(width: usize) -> Dag {
    let mut b = DagBuilder::new("wide")
        .node("src", ops::identity())
        .node("sink", ops::map_all(|vs| json!(vs.len())));
    for i in 0..width {
        let name = format!("w{i}");
        b = b
            .node(name.clone(), ops::map(|v| json!(v.as_i64().unwrap_or(0) + 1)))
            .edge("src", name.clone())
            .edge(name, "sink");
    }
    b.build().expect("valid dag")
}

/// A linear chain DAG of the given depth.
fn deep_dag(depth: usize) -> Dag {
    let mut b = DagBuilder::new("deep");
    for i in 0..depth {
        b = b.node(format!("n{i}"), ops::map(|v| json!(v.as_i64().unwrap_or(0) + 1)));
        if i > 0 {
            b = b.edge(format!("n{}", i - 1), format!("n{i}"));
        }
    }
    b.build().expect("valid dag")
}

fn bench_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("awel_modes");
    let scheduler = Scheduler::new();
    for width in [4usize, 16, 64] {
        let dag = wide_dag(width);
        for mode in [ExecutionMode::Batch, ExecutionMode::Async] {
            let label = match mode {
                ExecutionMode::Batch => "batch",
                ExecutionMode::Async => "async",
            };
            group.bench_with_input(BenchmarkId::new(label, width), &mode, |b, &m| {
                b.iter(|| scheduler.run(&dag, json!(1), m, &Span::noop()).unwrap())
            });
        }
    }
    group.finish();
}

fn bench_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("awel_depth");
    let scheduler = Scheduler::new();
    for depth in [8usize, 64, 256] {
        let dag = deep_dag(depth);
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| scheduler.run_batch(&dag, json!(0)).unwrap())
        });
    }
    group.finish();
}

fn bench_stream(c: &mut Criterion) {
    let scheduler = Scheduler::new();
    let dag = deep_dag(8);
    c.bench_function("awel_stream_100_events", |b| {
        b.iter(|| {
            scheduler
                .run_stream(&dag, (0..100).map(|i| json!(i)), &Span::noop())
                .unwrap()
        })
    });
}

fn bench_dsl_parse(c: &mut Criterion) {
    let mut registry = OperatorRegistry::with_builtins();
    registry.register("plan", ops::identity());
    registry.register("chart", ops::identity());
    let dsl = "dag sales {\n\
        node c1 = chart; node c2 = chart; node c3 = chart;\n\
        plan >> [c1, c2, c3] >> join;\n\
    }";
    c.bench_function("awel_dsl_parse", |b| {
        b.iter(|| dbgpt_awel::parse_dsl(std::hint::black_box(dsl), &registry).unwrap())
    });
}

criterion_group!(benches, bench_modes, bench_depth, bench_stream, bench_dsl_parse);
criterion_main!(benches);
