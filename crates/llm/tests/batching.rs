//! Property tests for the continuous-batching engine: scheduling must never
//! change *what* is generated (completions are byte-identical to the
//! sequential path) or *how much* is billed (Usage totals are conserved,
//! prefix-cache hits included) — only simulated time.

use proptest::prelude::*;
use std::sync::Arc;

use dbgpt_llm::engine::{BatchEngine, EngineConfig};
use dbgpt_llm::latency::LatencyModel;
use dbgpt_llm::{
    GenerationParams, PrefixCache, SharedModel, SimLlm, SimModelSpec, Tokenizer, Vocab,
};
use dbgpt_obs::Span;

fn timed_model() -> SharedModel {
    let mut spec = SimModelSpec::for_tests("prop-batch");
    spec.latency = LatencyModel {
        base_us: 1_000,
        prefill_us_per_token: 10,
        decode_us_per_token: 1_000,
    };
    Arc::new(SimLlm::with_default_skills(spec))
}

/// Prompts with a shared system prefix and a unique suffix — the shape a
/// serving deployment actually sees, and what the prefix cache exploits.
fn prompts_strategy() -> impl Strategy<Value = Vec<String>> {
    (
        proptest::collection::vec("[a-z]{2,8}", 4..12),
        proptest::collection::vec(proptest::collection::vec("[a-z]{2,8}", 1..8), 1..10),
    )
        .prop_map(|(prefix, suffixes)| {
            let system = format!("### Task: chat\n{}", prefix.join(" "));
            suffixes
                .into_iter()
                .map(|s| format!("{system} {}", s.join(" ")))
                .collect()
        })
}

fn engine_config_strategy() -> impl Strategy<Value = EngineConfig> {
    (1usize..6, 64usize..4096, prop_oneof![Just(0usize), Just(1usize << 16)]).prop_map(
        |(batch, budget, cache)| {
            EngineConfig::full()
                .with_batch_requests(batch)
                .with_batch_tokens(budget)
                .with_prefix_cache(cache)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under any batch size, token budget, and cache setting, every
    /// completion is byte-identical to sequential generation, Usage is
    /// conserved in the run totals, and the batched makespan never exceeds
    /// the sequential cost.
    #[test]
    fn any_schedule_matches_sequential(
        prompts in prompts_strategy(),
        cfg in engine_config_strategy(),
        seed in 0u64..1000,
    ) {
        let model = timed_model();
        let params = GenerationParams::default().with_seed(seed);
        let mut eng = BatchEngine::for_model(model.clone(), cfg);
        for p in &prompts {
            eng.submit(p.clone(), params.clone());
        }
        let (outs, run) = eng.run(&Span::noop());
        prop_assert_eq!(outs.len(), prompts.len());
        let mut prompt_tokens = 0u64;
        let mut completion_tokens = 0u64;
        let mut sequential_us = 0u64;
        let mut cached = 0u64;
        for (i, (p, s)) in prompts.iter().zip(&outs).enumerate() {
            prop_assert_eq!(s.id, i, "results must come back in submit order");
            let direct = model.generate(p, &params).unwrap();
            let got = s.result.as_ref().unwrap();
            prop_assert_eq!(got, &direct, "batched completion diverged for {:?}", p);
            prompt_tokens += direct.usage.prompt_tokens as u64;
            completion_tokens += direct.usage.completion_tokens as u64;
            sequential_us += direct.simulated_latency_us;
            cached += s.cached_prefix_tokens as u64;
            prop_assert!(s.cached_prefix_tokens <= direct.usage.prompt_tokens,
                "cache can never cover more than the prompt");
            prop_assert!(s.admitted_us <= s.first_token_us);
            prop_assert!(s.first_token_us <= s.finished_us);
            prop_assert_eq!(s.batched_latency_us, s.finished_us - s.admitted_us);
        }
        // Usage conservation: batching and prefix-cache hits change time,
        // never billing.
        prop_assert_eq!(run.prompt_tokens, prompt_tokens);
        prop_assert_eq!(run.completion_tokens, completion_tokens);
        prop_assert_eq!(run.sequential_us, sequential_us);
        prop_assert_eq!(run.cached_prompt_tokens, cached);
        prop_assert!(run.cached_prompt_tokens <= run.prompt_tokens);
        if cfg.prefix_cache_tokens == 0 {
            prop_assert_eq!(run.cached_prompt_tokens, 0);
        }
        prop_assert_eq!(run.succeeded, prompts.len() as u64);
        prop_assert!(run.makespan_us <= run.sequential_us,
            "batching may never be slower than sequential: {} vs {}",
            run.makespan_us, run.sequential_us);
        prop_assert!(run.max_inflight <= cfg.max_batch_requests);
    }

    /// Splitting the same submissions across several `run()` drains at an
    /// arbitrary cut point yields the same completion contents as one big
    /// drain — interleaving only moves simulated time around.
    #[test]
    fn interleaved_runs_match_single_run(
        prompts in prompts_strategy(),
        cfg in engine_config_strategy(),
        cut in 0usize..10,
    ) {
        let model = timed_model();
        let params = GenerationParams::default();
        let mut one = BatchEngine::for_model(model.clone(), cfg);
        for p in &prompts {
            one.submit(p.clone(), params.clone());
        }
        let (single, _) = one.run(&Span::noop());

        let mut two = BatchEngine::for_model(model, cfg);
        let cut = cut.min(prompts.len());
        for p in &prompts[..cut] {
            two.submit(p.clone(), params.clone());
        }
        let (mut split, _) = two.run(&Span::noop());
        for p in &prompts[cut..] {
            two.submit(p.clone(), params.clone());
        }
        let (tail, _) = two.run(&Span::noop());
        split.extend(tail);
        prop_assert_eq!(single.len(), split.len());
        for (a, b) in single.iter().zip(&split) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(&a.result, &b.result,
                "interleaving changed a completion's content");
        }
    }

    /// The token-ID layer is lossless: decode(encode(text)) == text, and
    /// re-encoding is stable (interning is deterministic per vocab).
    #[test]
    fn token_ids_roundtrip(text in "[ a-zA-Z0-9,.!?]{0,80}") {
        let tok = Tokenizer::new();
        let vocab = Vocab::new();
        let ids = tok.encode_ids(&text, &vocab);
        prop_assert_eq!(tok.decode_ids(&ids, &vocab), text.clone());
        prop_assert_eq!(tok.encode_ids(&text, &vocab), ids);
    }

    /// Radix-cache invariant: after `admit(ids)`, the whole sequence is a
    /// cached prefix; accounting never counts more hit tokens than were
    /// looked up.
    #[test]
    fn prefix_cache_admit_then_full_hit(
        seqs in proptest::collection::vec(
            proptest::collection::vec(0u32..32, 1..40), 1..20),
    ) {
        let mut cache = PrefixCache::new(1 << 16);
        for ids in &seqs {
            cache.admit(ids);
            prop_assert_eq!(cache.longest_prefix(ids), ids.len(),
                "an admitted sequence must be fully cached");
        }
        let st = cache.stats();
        prop_assert!(st.hit_tokens <= st.lookup_tokens);
        prop_assert!(cache.cached_tokens() <= 1 << 16);
    }
}
