//! Experiment E2 (criterion half): SMMF dispatch cost per routing policy
//! and replica count, and failover overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dbgpt_llm::{builtin_model, GenerationParams};
use dbgpt_obs::Span;
use dbgpt_smmf::{ApiServer, DeploymentMode, Locality, ModelWorker, RoutingPolicy};

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("smmf_routing");
    let params = GenerationParams::default();
    for &policy in RoutingPolicy::ALL {
        for replicas in [1usize, 4] {
            let mut server = ApiServer::with_policy(DeploymentMode::Local, policy, 7);
            server.deploy_builtin("sim-qwen", replicas).unwrap();
            group.bench_with_input(
                BenchmarkId::new(policy.name(), replicas),
                &replicas,
                |b, _| {
                    b.iter(|| {
                        server
                            .chat(
                                "sim-qwen",
                                std::hint::black_box("ping request"),
                                &params,
                                &Span::noop(),
                            )
                            .unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_failover(c: &mut Criterion) {
    let mut group = c.benchmark_group("smmf_failover");
    let params = GenerationParams::default();
    for (label, fault) in [("healthy", 0.0), ("flaky_half", 0.5)] {
        let mut server = ApiServer::with_policy(DeploymentMode::Local, RoutingPolicy::RoundRobin, 7);
        for i in 0..4 {
            let w = ModelWorker::with_faults(
                format!("w{i}"),
                builtin_model("sim-qwen").unwrap(),
                Locality::Local,
                fault,
                i,
            );
            server.register_worker(w).unwrap();
        }
        group.bench_function(label, |b| {
            b.iter(|| {
                // Under faults some requests exhaust retries; both outcomes
                // count as completed dispatch work.
                let _ = server.chat(
                    "sim-qwen",
                    std::hint::black_box("ping"),
                    &params,
                    &Span::noop(),
                );
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_routing, bench_failover);
criterion_main!(benches);
