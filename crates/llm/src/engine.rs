//! [`BatchEngine`] — a continuous-batching scheduler for the simulated
//! serving path.
//!
//! Real inference servers (vLLM, TGI, DB-GPT's vLLM backend) do not serve
//! requests one at a time: they keep an *in-flight batch* that new requests
//! join at decode-step boundaries and finished requests leave immediately,
//! so the expensive decode loop is amortised over every concurrent request.
//! This module reproduces that scheduling discipline on the repository's
//! simulated µs clock:
//!
//! 1. queued requests are **admitted** into the in-flight batch in FIFO
//!    order, under a request cap and a token budget;
//! 2. at admission the prompt is encoded to interned token ids **once**
//!    ([`crate::intern`]) and checked against the radix **prefix cache**
//!    ([`crate::prefix`]); cached prefix tokens are discounted from the
//!    simulated prefill time while `Usage` still bills them;
//! 3. the engine then **steps**: each decode step advances the clock by one
//!    token-time and emits one token for every request whose prefill has
//!    completed; requests join and leave only at step boundaries.
//!
//! The *content* of every completion is produced by the underlying
//! [`LanguageModel`](crate::model::LanguageModel) with the caller's exact
//! `(prompt, params)` — so per-request outputs are byte-identical to the
//! sequential path by construction, and the engine's whole effect is on
//! simulated *time* (property-tested in `tests/batching.rs`).

use std::collections::VecDeque;

use dbgpt_obs::metrics::{COUNT_BUCKETS, LATENCY_BUCKETS_US};
use dbgpt_obs::{Obs, Span};

use crate::error::LlmError;
use crate::intern::Vocab;
use crate::latency::LatencyModel;
use crate::model::SharedModel;
use crate::prefix::{PrefixCache, PrefixCacheStats};
use crate::tokenizer::Tokenizer;
use crate::types::{Completion, GenerationParams};

/// Configuration for the batching engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Master switch. When `false`, callers that own a sequential path
    /// (e.g. `dbgpt-smmf`'s `ApiServer`) bypass the engine entirely, and a
    /// directly-driven engine degenerates to one-at-a-time scheduling with
    /// the prefix cache off — reproducing sequential timing exactly.
    pub enabled: bool,
    /// Maximum requests decoding concurrently.
    pub max_batch_requests: usize,
    /// Token budget for the in-flight batch: the sum of each admitted
    /// request's uncached prompt tokens plus completion tokens. A request
    /// that would overflow the budget waits (FIFO head-of-line), except
    /// that an empty batch always admits one request.
    pub max_batch_tokens: usize,
    /// Prefix-cache capacity in tokens (`0` disables the cache).
    pub prefix_cache_tokens: usize,
}

impl EngineConfig {
    /// Batching and prefix caching off: scheduling is one request at a
    /// time and timing matches the sequential path exactly.
    pub fn disabled() -> Self {
        EngineConfig {
            enabled: false,
            max_batch_requests: 1,
            max_batch_tokens: 1 << 30,
            prefix_cache_tokens: 0,
        }
    }

    /// A production-shaped default: 8-way batching, a 4k-token budget, a
    /// 64k-token prefix cache.
    pub fn full() -> Self {
        EngineConfig {
            enabled: true,
            max_batch_requests: 8,
            max_batch_tokens: 4096,
            prefix_cache_tokens: 1 << 16,
        }
    }

    /// Builder-style batch-size setter.
    pub fn with_batch_requests(mut self, n: usize) -> Self {
        self.max_batch_requests = n;
        self
    }

    /// Builder-style token-budget setter.
    pub fn with_batch_tokens(mut self, n: usize) -> Self {
        self.max_batch_tokens = n;
        self
    }

    /// Builder-style prefix-cache capacity setter (`0` = off).
    pub fn with_prefix_cache(mut self, tokens: usize) -> Self {
        self.prefix_cache_tokens = tokens;
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::full()
    }
}

/// One request's scheduling outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledCompletion {
    /// Id returned by [`BatchEngine::submit`], in submit order.
    pub id: usize,
    /// The completion (byte-identical to sequential generation) or the
    /// model's error.
    pub result: Result<Completion, LlmError>,
    /// Simulated time the request joined the in-flight batch, µs.
    pub admitted_us: u64,
    /// Simulated time of the first decoded token (prefill end for
    /// zero-token completions; `admitted_us` for errors), µs.
    pub first_token_us: u64,
    /// Simulated completion time, µs.
    pub finished_us: u64,
    /// Prompt tokens satisfied by the prefix cache (billed but not
    /// re-prefilled).
    pub cached_prefix_tokens: usize,
    /// `finished_us - admitted_us`: the request's simulated latency under
    /// batching (the sequential latency stays in `result`'s
    /// `simulated_latency_us`, untouched).
    pub batched_latency_us: u64,
}

/// Summary of one [`BatchEngine::run`] drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineRun {
    /// Engine clock when the drain started, µs.
    pub started_us: u64,
    /// Engine clock when the last request finished, µs.
    pub finished_us: u64,
    /// `finished_us - started_us`: simulated wall time for the whole batch.
    pub makespan_us: u64,
    /// Decode steps executed.
    pub steps: u64,
    /// Largest concurrent in-flight batch observed.
    pub max_inflight: usize,
    /// Requests that completed successfully.
    pub succeeded: u64,
    /// Requests rejected by the model (errors pass through unscheduled).
    pub failed: u64,
    /// Billable prompt tokens across successful requests.
    pub prompt_tokens: u64,
    /// Completion tokens across successful requests.
    pub completion_tokens: u64,
    /// Prompt tokens served from the prefix cache (still billed).
    pub cached_prompt_tokens: u64,
    /// What the same requests would cost served one at a time (sum of each
    /// completion's sequential `simulated_latency_us`) — the baseline the
    /// batched makespan is measured against.
    pub sequential_us: u64,
}

impl EngineRun {
    /// Simulated throughput gain of batching: sequential cost over batched
    /// makespan (`1.0` when nothing ran).
    pub fn speedup(&self) -> f64 {
        if self.makespan_us == 0 {
            return 1.0;
        }
        self.sequential_us as f64 / self.makespan_us as f64
    }
}

/// A submitted-but-not-admitted request.
struct Pending {
    id: usize,
    prompt: String,
    params: GenerationParams,
    /// Set once the admission loop has generated (or the caller supplied)
    /// the completion; kept here so a budget-deferred head-of-line request
    /// is never generated twice.
    result: Option<Result<Completion, LlmError>>,
}

/// A request inside the in-flight batch.
struct InFlight {
    id: usize,
    completion: Completion,
    admitted_us: u64,
    /// Simulated time prefill (base + uncached prompt tokens) completes.
    prefill_done_us: u64,
    first_token_us: Option<u64>,
    /// Completion tokens still to decode.
    remaining: usize,
    /// Tokens this request holds against the batch token budget.
    footprint: usize,
    cached_prefix_tokens: usize,
}

/// The continuous-batching engine (see module docs).
pub struct BatchEngine {
    model: SharedModel,
    latency: LatencyModel,
    config: EngineConfig,
    tokenizer: Tokenizer,
    vocab: Vocab,
    cache: PrefixCache,
    clock_us: u64,
    queue: VecDeque<Pending>,
    next_id: usize,
    obs: Obs,
}

impl BatchEngine {
    /// Build an engine over `model` with an explicit latency model.
    pub fn new(model: SharedModel, latency: LatencyModel, config: EngineConfig) -> Self {
        let effective = if config.enabled {
            config
        } else {
            // A disabled engine driven directly degenerates to sequential
            // scheduling: batch of one, no prefix cache.
            EngineConfig {
                enabled: false,
                max_batch_requests: 1,
                max_batch_tokens: config.max_batch_tokens,
                prefix_cache_tokens: 0,
            }
        };
        BatchEngine {
            latency,
            tokenizer: Tokenizer::new(),
            vocab: Vocab::new(),
            cache: PrefixCache::new(effective.prefix_cache_tokens),
            clock_us: 0,
            queue: VecDeque::new(),
            next_id: 0,
            obs: Obs::disabled(),
            config: effective,
            model,
        }
    }

    /// Attach an observability handle; drains then record spans and
    /// metrics. The default handle is disabled and records nothing.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The engine's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Build an engine using the model's own latency self-description.
    pub fn for_model(model: SharedModel, config: EngineConfig) -> Self {
        let latency = model.latency_model();
        Self::new(model, latency, config)
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Current simulated engine time, µs.
    pub fn clock_us(&self) -> u64 {
        self.clock_us
    }

    /// Advance the engine clock (models inter-batch idle gaps).
    pub fn advance_clock(&mut self, us: u64) {
        self.clock_us += us;
    }

    /// Prefix-cache counters (lookups, hit tokens, evictions).
    pub fn cache_stats(&self) -> PrefixCacheStats {
        self.cache.stats()
    }

    /// Distinct chunks interned by the token-ID layer so far.
    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }

    /// Queue a request; the completion is generated at admission with
    /// exactly these `(prompt, params)`, so its content matches sequential
    /// generation byte for byte. Returns the request id.
    pub fn submit(&mut self, prompt: impl Into<String>, params: GenerationParams) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(Pending {
            id,
            prompt: prompt.into(),
            params,
            result: None,
        });
        id
    }

    /// Queue a request whose completion was already produced elsewhere
    /// (e.g. by an SMMF worker with fault injection); the engine only
    /// schedules its timing. Returns the request id.
    pub fn submit_completed(
        &mut self,
        prompt: impl Into<String>,
        result: Result<Completion, LlmError>,
    ) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(Pending {
            id,
            prompt: prompt.into(),
            params: GenerationParams::default(),
            result: Some(result),
        });
        id
    }

    /// Drain the queue through the continuous-batching schedule, returning
    /// per-request outcomes (in submit order) plus the run summary. The
    /// engine clock ends at the batch's finish time, and the prefix cache
    /// persists across runs (so later batches hit prefixes warmed by
    /// earlier ones). The drain is recorded as a child of `parent` when
    /// that span is live; otherwise it becomes its own trace if this
    /// engine's [`Obs`] is enabled, or records nothing.
    pub fn run(&mut self, parent: &Span) -> (Vec<ScheduledCompletion>, EngineRun) {
        let max_requests = self.config.max_batch_requests.max(1);
        let started = self.clock_us;
        let span = parent.child_or_root(&self.obs, "llm.engine.run", Some(started));
        let cache_before = self.cache.stats();
        let mut now = self.clock_us;
        let mut inflight: Vec<InFlight> = Vec::new();
        let mut inflight_tokens = 0usize;
        let mut out: Vec<ScheduledCompletion> = Vec::new();
        let mut run = EngineRun {
            started_us: started,
            ..EngineRun::default()
        };

        loop {
            // ---- admission, at the current step boundary ----------------
            while inflight.len() < max_requests {
                let Some(front) = self.queue.front_mut() else { break };
                let result = match front.result.take() {
                    Some(r) => r,
                    None => self.model.generate(&front.prompt, &front.params),
                };
                let completion = match result {
                    Err(e) => {
                        // Rejected before scheduling: zero simulated cost,
                        // exactly like the sequential path's validation.
                        let p = self.queue.pop_front().expect("front exists");
                        run.failed += 1;
                        out.push(ScheduledCompletion {
                            id: p.id,
                            result: Err(e),
                            admitted_us: now,
                            first_token_us: now,
                            finished_us: now,
                            cached_prefix_tokens: 0,
                            batched_latency_us: 0,
                        });
                        continue;
                    }
                    Ok(c) => c,
                };
                let footprint = completion.usage.total();
                if !inflight.is_empty() && inflight_tokens + footprint > self.config.max_batch_tokens
                {
                    // Head-of-line request doesn't fit the token budget;
                    // it (and FIFO order) waits for departures.
                    front.result = Some(Ok(completion));
                    break;
                }
                let p = self.queue.pop_front().expect("front exists");
                let prompt_tokens = completion.usage.prompt_tokens;
                // Token-ID layer: walk the prompt string once, then work
                // in ids. The cached-prefix discount is capped to billable
                // prompt tokens (ids may carry one trailing-space chunk).
                let ids = self.tokenizer.encode_ids(&p.prompt, &self.vocab);
                let cached = self.cache.admit(&ids).min(prompt_tokens);
                let prefill_done = now + self.latency.prefill_us(prompt_tokens, cached);
                run.prompt_tokens += prompt_tokens as u64;
                run.completion_tokens += completion.usage.completion_tokens as u64;
                run.cached_prompt_tokens += cached as u64;
                run.sequential_us += completion.simulated_latency_us;
                inflight_tokens += footprint;
                if span.is_recording() {
                    span.event(
                        now,
                        format!("admit id={} cached={cached} footprint={footprint}", p.id),
                    );
                }
                inflight.push(InFlight {
                    id: p.id,
                    remaining: completion.usage.completion_tokens,
                    completion,
                    admitted_us: now,
                    prefill_done_us: prefill_done,
                    first_token_us: None,
                    footprint,
                    cached_prefix_tokens: cached,
                });
                run.max_inflight = run.max_inflight.max(inflight.len());
            }

            // ---- retire zero-decode requests whose prefill is done ------
            let mut i = 0;
            while i < inflight.len() {
                if inflight[i].remaining == 0 && inflight[i].prefill_done_us <= now {
                    let r = inflight.swap_remove(i);
                    inflight_tokens -= r.footprint;
                    run.succeeded += 1;
                    out.push(ScheduledCompletion {
                        id: r.id,
                        admitted_us: r.admitted_us,
                        first_token_us: r.prefill_done_us,
                        finished_us: r.prefill_done_us,
                        cached_prefix_tokens: r.cached_prefix_tokens,
                        batched_latency_us: r.prefill_done_us - r.admitted_us,
                        result: Ok(r.completion),
                    });
                } else {
                    i += 1;
                }
            }

            if inflight.is_empty() {
                if self.queue.is_empty() {
                    break;
                }
                continue; // an empty batch always admits the next request
            }

            // ---- advance to the next prefill completion if nobody is
            //      ready to decode ---------------------------------------
            let step_start = now;
            if !inflight.iter().any(|r| r.prefill_done_us <= step_start) {
                now = inflight
                    .iter()
                    .map(|r| r.prefill_done_us)
                    .min()
                    .expect("inflight non-empty");
                continue;
            }

            // ---- one decode step: every prefilled request emits a token -
            run.steps += 1;
            now += self.latency.decode_us_per_token;
            let mut decoding = 0u64;
            let mut i = 0;
            while i < inflight.len() {
                if inflight[i].prefill_done_us > step_start {
                    i += 1;
                    continue;
                }
                decoding += 1;
                if inflight[i].first_token_us.is_none() {
                    inflight[i].first_token_us = Some(now);
                }
                inflight[i].remaining -= 1;
                if inflight[i].remaining == 0 {
                    let r = inflight.swap_remove(i);
                    inflight_tokens -= r.footprint;
                    run.succeeded += 1;
                    // Exemplar: the latency bucket remembers the trace of
                    // the run that produced its slowest request, so a p99
                    // bucket in obs_exemplars links back to a trace tree.
                    match span.trace_id() {
                        Some(t) => self.obs.observe_exemplar(
                            "llm.engine.batched_latency_us",
                            LATENCY_BUCKETS_US,
                            now - r.admitted_us,
                            t,
                        ),
                        None => self
                            .obs
                            .observe("llm.engine.batched_latency_us", now - r.admitted_us),
                    }
                    out.push(ScheduledCompletion {
                        id: r.id,
                        admitted_us: r.admitted_us,
                        first_token_us: r.first_token_us.expect("just decoded"),
                        finished_us: now,
                        cached_prefix_tokens: r.cached_prefix_tokens,
                        batched_latency_us: now - r.admitted_us,
                        result: Ok(r.completion),
                    });
                } else {
                    i += 1;
                }
            }
            self.obs
                .observe_with("llm.engine.batch_occupancy", COUNT_BUCKETS, decoding);
        }

        self.clock_us = now;
        run.finished_us = now;
        run.makespan_us = now - started;
        out.sort_by_key(|c| c.id);

        self.obs.counter("llm.engine.runs", 1);
        self.obs.counter("llm.engine.steps", run.steps);
        self.obs.counter("llm.engine.succeeded", run.succeeded);
        self.obs.counter("llm.engine.failed", run.failed);
        self.obs.counter("llm.engine.prompt_tokens", run.prompt_tokens);
        self.obs
            .counter("llm.engine.completion_tokens", run.completion_tokens);
        self.obs
            .counter("llm.engine.cached_prompt_tokens", run.cached_prompt_tokens);
        self.obs.observe("llm.engine.makespan_us", run.makespan_us);
        let cache_after = self.cache.stats();
        self.obs.counter(
            "llm.prefix_cache.lookups",
            cache_after.lookups - cache_before.lookups,
        );
        self.obs.counter(
            "llm.prefix_cache.lookup_tokens",
            cache_after.lookup_tokens - cache_before.lookup_tokens,
        );
        self.obs.counter(
            "llm.prefix_cache.hit_tokens",
            cache_after.hit_tokens - cache_before.hit_tokens,
        );
        self.obs.counter(
            "llm.prefix_cache.inserted_tokens",
            cache_after.inserted_tokens - cache_before.inserted_tokens,
        );
        self.obs.counter(
            "llm.prefix_cache.evicted_tokens",
            cache_after.evicted_tokens - cache_before.evicted_tokens,
        );
        if span.is_recording() {
            span.attr("steps", run.steps);
            span.attr("max_inflight", run.max_inflight);
            span.attr("succeeded", run.succeeded);
            span.attr("failed", run.failed);
            span.attr("cached_prompt_tokens", run.cached_prompt_tokens);
        }
        span.end(now);
        (out, run)
    }
}

impl std::fmt::Debug for BatchEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchEngine")
            .field("model", &self.model.id().to_string())
            .field("config", &self.config)
            .field("clock_us", &self.clock_us)
            .field("queued", &self.queue.len())
            .field("vocab", &self.vocab.len())
            .field("cache", &self.cache.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimLlm, SimModelSpec};
    use std::sync::Arc;

    fn timed_model(name: &str) -> SharedModel {
        let mut spec = SimModelSpec::for_tests(name);
        spec.latency = LatencyModel {
            base_us: 1_000,
            prefill_us_per_token: 10,
            decode_us_per_token: 1_000,
        };
        Arc::new(SimLlm::with_default_skills(spec))
    }

    fn prompts() -> Vec<String> {
        let system = "### Task: chat\nYou are DB-GPT, a data analysis copilot. \
                      Answer with precision and cite the schema when relevant.";
        (0..6)
            .map(|i| format!("{system}\nUser question number {i}: explain indexes please"))
            .collect()
    }

    #[test]
    fn disabled_engine_reproduces_sequential_timing() {
        let model = timed_model("seq");
        let mut eng = BatchEngine::for_model(model.clone(), EngineConfig::disabled());
        let params = GenerationParams::default();
        for p in prompts() {
            eng.submit(p, params.clone());
        }
        let (outs, run) = eng.run(&Span::noop());
        let mut expected_total = 0u64;
        for (p, s) in prompts().iter().zip(&outs) {
            let direct = model.generate(p, &params).unwrap();
            let sc = s.result.as_ref().unwrap();
            assert_eq!(sc, &direct, "disabled engine must not change completions");
            assert_eq!(
                s.batched_latency_us, direct.simulated_latency_us,
                "batch-of-one timing must equal the sequential latency"
            );
            assert_eq!(s.cached_prefix_tokens, 0, "cache must be off");
            expected_total += direct.simulated_latency_us;
        }
        assert_eq!(run.makespan_us, expected_total);
        assert_eq!(run.sequential_us, expected_total);
        assert!((run.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batching_preserves_completions_and_compresses_time() {
        let model = timed_model("batched");
        let params = GenerationParams::default();
        let cfg = EngineConfig::full().with_batch_requests(6);
        let mut eng = BatchEngine::for_model(model.clone(), cfg);
        for p in prompts() {
            eng.submit(p, params.clone());
        }
        let (outs, run) = eng.run(&Span::noop());
        for (p, s) in prompts().iter().zip(&outs) {
            assert_eq!(
                s.result.as_ref().unwrap(),
                &model.generate(p, &params).unwrap(),
                "batched completions must be byte-identical to sequential"
            );
        }
        assert_eq!(run.max_inflight, 6);
        assert!(
            run.makespan_us < run.sequential_us,
            "6-way batching must beat sequential: {} vs {}",
            run.makespan_us,
            run.sequential_us
        );
        assert!(run.speedup() > 2.0, "speedup {:.2}", run.speedup());
    }

    #[test]
    fn prefix_cache_discounts_repeated_prefill() {
        let model = timed_model("cached");
        let params = GenerationParams::default();
        // Batch of one isolates the prefill effect.
        let cfg = EngineConfig::full().with_batch_requests(1);
        let mut warm = BatchEngine::for_model(model.clone(), cfg);
        let mut cold =
            BatchEngine::for_model(model.clone(), cfg.with_prefix_cache(0));
        for p in prompts() {
            warm.submit(p.clone(), params.clone());
            cold.submit(p, params.clone());
        }
        let (warm_outs, warm_run) = warm.run(&Span::noop());
        let (cold_outs, cold_run) = cold.run(&Span::noop());
        // Same completions either way; Usage still bills cached tokens.
        for (w, c) in warm_outs.iter().zip(&cold_outs) {
            assert_eq!(w.result, c.result);
        }
        assert!(warm_run.cached_prompt_tokens > 0, "shared prefixes must hit");
        assert_eq!(cold_run.cached_prompt_tokens, 0);
        assert!(
            warm_run.makespan_us < cold_run.makespan_us,
            "cache must save prefill time: {} vs {}",
            warm_run.makespan_us,
            cold_run.makespan_us
        );
        assert!(warm.cache_stats().hit_tokens > 0);
    }

    #[test]
    fn errors_pass_through_unscheduled() {
        let model = timed_model("err");
        let mut eng = BatchEngine::for_model(model, EngineConfig::full());
        eng.submit("   ", GenerationParams::default()); // empty prompt
        eng.submit("valid question about joins", GenerationParams::default());
        let (outs, run) = eng.run(&Span::noop());
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].result, Err(LlmError::EmptyPrompt));
        assert_eq!(outs[0].batched_latency_us, 0);
        assert!(outs[1].result.is_ok());
        assert_eq!(run.failed, 1);
        assert_eq!(run.succeeded, 1);
    }

    #[test]
    fn token_budget_defers_admission() {
        let model = timed_model("budget");
        let params = GenerationParams::default();
        // Budget so small only one request fits at a time.
        let cfg = EngineConfig::full()
            .with_batch_requests(8)
            .with_batch_tokens(1)
            .with_prefix_cache(0);
        let mut eng = BatchEngine::for_model(model.clone(), cfg);
        for p in prompts() {
            eng.submit(p, params.clone());
        }
        let (outs, run) = eng.run(&Span::noop());
        assert_eq!(run.max_inflight, 1, "budget must serialize the batch");
        let total: u64 = outs
            .iter()
            .map(|s| s.result.as_ref().unwrap().simulated_latency_us)
            .sum();
        assert_eq!(run.makespan_us, total);
    }

    #[test]
    fn clock_and_cache_persist_across_runs() {
        let model = timed_model("persist");
        let params = GenerationParams::default();
        let mut eng =
            BatchEngine::for_model(model, EngineConfig::full().with_batch_requests(2));
        let p = prompts();
        eng.submit(p[0].clone(), params.clone());
        let (_, first) = eng.run(&Span::noop());
        assert_eq!(eng.clock_us(), first.finished_us);
        assert_eq!(first.cached_prompt_tokens, 0);
        // The second run shares the first run's prompt prefix.
        eng.submit(p[1].clone(), params.clone());
        let (_, second) = eng.run(&Span::noop());
        assert!(second.started_us >= first.finished_us);
        assert!(
            second.cached_prompt_tokens > 0,
            "cache must persist across runs"
        );
    }

    #[test]
    fn obs_off_is_identical_and_on_is_deterministic() {
        use dbgpt_obs::ObsConfig;
        let go = |cfg: ObsConfig| {
            let model = timed_model("obs");
            let mut eng =
                BatchEngine::for_model(model, EngineConfig::full().with_batch_requests(3));
            let obs = Obs::new(cfg);
            eng.set_obs(obs.clone());
            for p in prompts() {
                eng.submit(p, GenerationParams::default());
            }
            let (outs, run) = eng.run(&Span::noop());
            let shape: Vec<_> = outs
                .iter()
                .map(|s| (s.id, s.result.clone(), s.admitted_us, s.finished_us))
                .collect();
            (shape, run, obs)
        };
        let (off, off_run, off_obs) = go(ObsConfig::disabled());
        let (on, on_run, on_obs) = go(ObsConfig::enabled(7));
        assert_eq!(off, on, "tracing must not change scheduling");
        assert_eq!(off_run, on_run);
        assert_eq!(off_obs.span_count(), 0);
        assert_eq!(off_obs.metrics_json(), Obs::disabled().metrics_json());
        assert!(on_obs.span_count() >= 1, "drain span recorded");
        assert!(on_obs.counter_value("llm.engine.steps") > 0);
        assert!(on_obs.counter_value("llm.prefix_cache.lookup_tokens") > 0);
        // Two identical traced runs dump byte-identical artifacts.
        let (_, _, again) = go(ObsConfig::enabled(7));
        assert_eq!(on_obs.trace_json(), again.trace_json());
        assert_eq!(on_obs.metrics_json(), again.metrics_json());
    }

    #[test]
    fn deterministic_replay() {
        let go = || {
            let model = timed_model("replay");
            let mut eng = BatchEngine::for_model(
                model,
                EngineConfig::full().with_batch_requests(3),
            );
            for p in prompts() {
                eng.submit(p, GenerationParams::default().with_seed(9));
            }
            let (outs, run) = eng.run(&Span::noop());
            (
                outs.iter()
                    .map(|s| {
                        (
                            s.id,
                            s.result.clone(),
                            s.admitted_us,
                            s.first_token_us,
                            s.finished_us,
                            s.cached_prefix_tokens,
                        )
                    })
                    .collect::<Vec<_>>(),
                run,
            )
        };
        assert_eq!(go(), go(), "same submissions must replay identically");
    }
}
