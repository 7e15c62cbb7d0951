//! Experiment E5: RAG micro-benchmarks — embedding, index construction,
//! and query cost per strategy across corpus sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dbgpt_bench::{corpus_kb, synthetic_corpus};
use dbgpt_rag::{Embedder, HashEmbedder, RetrievalConfig, RetrievalStrategy, VectorStore};

fn bench_embedding(c: &mut Criterion) {
    let embedder = HashEmbedder::new();
    let text = "the optimizer estimates cardinality for every join predicate \
                before choosing a physical plan for the scan";
    c.bench_function("rag_embed_one", |b| {
        b.iter(|| embedder.embed(std::hint::black_box(text)))
    });
}

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("rag_index_build");
    group.sample_size(10);
    for size in [100usize, 500] {
        let docs = synthetic_corpus(size, 5);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| corpus_kb(std::hint::black_box(&docs)))
        });
    }
    group.finish();
}

fn bench_retrieval_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("rag_query");
    for size in [200usize, 1000] {
        let docs = synthetic_corpus(size, 5);
        let kb = corpus_kb(&docs);
        let query = "how does the embedding index affect recall and ranking?";
        for &strategy in RetrievalStrategy::ALL {
            group.bench_with_input(
                BenchmarkId::new(strategy.name(), size),
                &strategy,
                |b, &s| b.iter(|| kb.retrieve(std::hint::black_box(query), 5, s)),
            );
        }
    }
    group.finish();
}

fn bench_rerank(c: &mut Criterion) {
    let docs = synthetic_corpus(500, 5);
    let kb = corpus_kb(&docs);
    let query = "incident review concerning checkpoint compaction";
    let mut group = c.benchmark_group("rag_rerank");
    group.bench_function("retrieve_k5", |b| {
        b.iter(|| kb.retrieve(std::hint::black_box(query), 5, RetrievalStrategy::Hybrid))
    });
    group.bench_function("retrieve_reranked_k5", |b| {
        b.iter(|| {
            kb.retrieve_reranked(
                std::hint::black_box(query),
                5,
                RetrievalStrategy::Hybrid,
                &dbgpt_obs::Span::noop(),
            )
        })
    });
    group.finish();
}

fn bench_parallel_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("rag_parallel_scan");
    group.sample_size(10);
    let docs = synthetic_corpus(5000, 5);
    let embedder = HashEmbedder::new();
    let mut store = VectorStore::new();
    for d in &docs {
        store.add(embedder.embed(&d.text));
    }
    let query = embedder.embed("how does the embedding index affect recall and ranking?");
    for threads in [1usize, 2, 4, 8] {
        let cfg = RetrievalConfig {
            threads,
            topk_crossover: 0,
            ..RetrievalConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("threads", threads), &cfg, |b, cfg| {
            b.iter(|| store.search_flat_with(std::hint::black_box(&query), 10, cfg))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_embedding,
    bench_index_build,
    bench_retrieval_strategies,
    bench_rerank,
    bench_parallel_scan
);
criterion_main!(benches);
