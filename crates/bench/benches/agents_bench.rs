//! Experiment E6: multi-agent overhead — end-to-end goal execution across
//! plan sizes, and the cost of history archiving.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use serde_json::json;

use dbgpt_agents::{
    AgentMessage, HistoryArchive, LlmClient, MessageKind, Orchestrator,
};
use dbgpt_llm::builtin_model;
use dbgpt_obs::Span;

fn goal_with_steps(n: usize) -> String {
    let clauses: Vec<String> = (0..n).map(|i| format!("do thing number {i}")).collect();
    clauses.join(", ")
}

fn bench_goal_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("agents_goal");
    group.sample_size(20);
    for steps in [1usize, 4, 8] {
        let goal = goal_with_steps(steps);
        group.bench_with_input(BenchmarkId::from_parameter(steps), &steps, |b, _| {
            let mut orch =
                Orchestrator::new(LlmClient::direct(builtin_model("sim-qwen").unwrap()));
            b.iter(|| orch.execute_goal(std::hint::black_box(&goal), &Span::noop()).unwrap())
        });
    }
    group.finish();
}

fn bench_archive(c: &mut Criterion) {
    use criterion::BatchSize;

    let mut group = c.benchmark_group("agents_archive");
    // An unbounded archive degrades as it grows (Vec + file append), so
    // each sample appends a fixed batch of 100 messages to a FRESH
    // archive — the measurement stays stationary.
    group.sample_size(30);
    let msg = AgentMessage {
        seq: 0,
        conversation: "bench".into(),
        from: "planner".into(),
        to: "worker".into(),
        kind: MessageKind::Task,
        content: json!({"description": "benchmark task payload", "id": 7}),
    };
    let record_100 = |archive: HistoryArchive, msg: &AgentMessage| {
        for _ in 0..100 {
            archive.record(msg.clone()).unwrap();
        }
        archive
    };
    group.bench_function("record_100_in_memory", |b| {
        b.iter_batched(
            HistoryArchive::in_memory,
            |archive| record_100(archive, &msg),
            BatchSize::SmallInput,
        )
    });
    let path = std::env::temp_dir().join("dbgpt-bench-archive.jsonl");
    group.bench_function("record_100_durable", |b| {
        b.iter_batched(
            || {
                let _ = std::fs::remove_file(&path);
                HistoryArchive::at_path(&path).unwrap()
            },
            |archive| record_100(archive, &msg),
            BatchSize::SmallInput,
        )
    });
    let _ = std::fs::remove_file(&path);
    group.finish();
}

criterion_group!(benches, bench_goal_execution, bench_archive);
criterion_main!(benches);
