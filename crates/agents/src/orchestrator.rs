//! The orchestrator: goal → plan → role dispatch → aggregated report.
//!
//! Implements the Fig. 3 control flow. Every hop — the incoming goal, the
//! plan, each task assignment, each result, the final report — is recorded
//! in the [`HistoryArchive`] before execution proceeds, so a crash or a
//! bad generation leaves a complete audit trail (the paper's reliability
//! argument for local history storage).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde_json::{json, Value};

use dbgpt_llm::skills::planner::PlanStep;
use dbgpt_obs::{Obs, Span};

use crate::agent::{AgentContext, AgentReply, SharedAgent, TaskRequest};
use crate::client::LlmClient;
use crate::error::AgentError;
use crate::memory::HistoryArchive;
use crate::message::{AgentMessage, MessageKind};
use crate::roles::{AggregatorAgent, PlannerAgent, WorkerAgent};

/// The outcome of one `execute_goal` call.
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// Conversation id (for archive lookups).
    pub conversation: String,
    /// The plan that was executed.
    pub plan: Vec<PlanStep>,
    /// Each non-aggregator step's result, in plan order.
    pub step_results: Vec<AgentReply>,
    /// The aggregator's final output.
    pub final_report: AgentReply,
}

/// The multi-agent orchestrator (see module docs).
pub struct Orchestrator {
    llm: LlmClient,
    archive: Arc<HistoryArchive>,
    /// role → agent. Custom agents override/extend the built-ins.
    agents: HashMap<String, SharedAgent>,
    planner: PlannerAgent,
    conversation_counter: AtomicU64,
    seed: u64,
    obs: Obs,
}

impl Orchestrator {
    /// Orchestrator with an in-memory archive and the built-in roles
    /// (`worker`, `aggregator`).
    pub fn new(llm: LlmClient) -> Self {
        Self::with_archive(llm, Arc::new(HistoryArchive::in_memory()))
    }

    /// Orchestrator using a caller-supplied (possibly durable) archive.
    pub fn with_archive(llm: LlmClient, archive: Arc<HistoryArchive>) -> Self {
        let mut agents: HashMap<String, SharedAgent> = HashMap::new();
        agents.insert("worker".into(), Arc::new(WorkerAgent::new()));
        agents.insert("aggregator".into(), Arc::new(AggregatorAgent::new()));
        Orchestrator {
            llm,
            archive,
            agents,
            planner: PlannerAgent::new(),
            conversation_counter: AtomicU64::new(0),
            seed: 42,
            obs: Obs::disabled(),
        }
    }

    /// Override the deterministic seed used for model calls.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Record `agents.goal` / `agents.plan` / `agents.step` /
    /// `agents.aggregate` spans and an `agents.messages` counter on `obs`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Register a custom agent under its role (replaces any existing
    /// holder of that role).
    pub fn register_agent(&mut self, agent: SharedAgent) {
        self.agents.insert(agent.role().to_string(), agent);
    }

    /// Registered roles, sorted.
    pub fn roles(&self) -> Vec<String> {
        let mut r: Vec<String> = self.agents.keys().cloned().collect();
        r.sort();
        r
    }

    /// The archive (inspect communication history).
    pub fn archive(&self) -> &Arc<HistoryArchive> {
        &self.archive
    }

    /// Execute a goal end to end, joining the `agents.goal` span to
    /// `parent` when it is recording (else rooting it on this
    /// orchestrator's own handle).
    pub fn execute_goal(&mut self, goal: &str, parent: &Span) -> Result<TaskReport, AgentError> {
        let span = parent.child_or_root(&self.obs, "agents.goal", None);
        let res = self.execute_goal_inner(goal, &span);
        match &res {
            Ok(r) => {
                span.attr("outcome", "ok");
                span.attr("steps", r.step_results.len());
            }
            Err(_) => span.attr("outcome", "error"),
        }
        span.end(span.tick());
        res
    }

    fn execute_goal_inner(&mut self, goal: &str, span: &Span) -> Result<TaskReport, AgentError> {
        let conv = format!(
            "conv-{}",
            self.conversation_counter.fetch_add(1, Ordering::Relaxed)
        );
        span.attr("conversation", &conv);
        let obs = span.handle();
        obs.counter("agents.goals", 1);
        let mut seq = 0u64;
        let record_obs = obs.clone();
        let mut record = |from: &str, to: &str, kind: MessageKind, content: Value| {
            record_obs.counter("agents.messages", 1);
            let msg = AgentMessage {
                seq,
                conversation: conv.clone(),
                from: from.into(),
                to: to.into(),
                kind,
                content,
            };
            seq += 1;
            self.archive.record(msg)
        };

        let ctx = AgentContext {
            llm: self.llm.clone(),
            archive: self.archive.clone(),
            seed: self.seed,
        };

        // 1. Goal in.
        record("user", "planner", MessageKind::Goal, json!(goal))?;

        // 2. Plan.
        let plan_span = span.child("agents.plan", span.tick());
        let plan = match self.planner.plan(goal, &ctx) {
            Ok(plan) => {
                plan_span.attr("steps", plan.len());
                plan_span.end(span.tick());
                plan
            }
            Err(e) => {
                plan_span.attr("outcome", "error");
                plan_span.end(span.tick());
                return Err(e);
            }
        };
        record(
            "planner",
            "orchestrator",
            MessageKind::Plan,
            serde_json::to_value(&plan).expect("plan serializes"),
        )?;

        // 3. Execute non-aggregator steps in order, feeding prior results.
        let mut step_results: Vec<AgentReply> = Vec::new();
        let mut prior: Vec<Value> = Vec::new();
        let mut aggregator_step: Option<PlanStep> = None;
        for step in &plan {
            if step.agent == "aggregator" {
                aggregator_step = Some(step.clone());
                continue;
            }
            let agent = self
                .agents
                .get(&step.agent)
                .or_else(|| self.agents.get("worker"))
                .cloned()
                .ok_or_else(|| AgentError::NoAgentForRole(step.agent.clone()))?;
            let task = TaskRequest {
                conversation: conv.clone(),
                goal: goal.to_string(),
                step: step.clone(),
                prior_results: prior.clone(),
            };
            let step_span = span.child("agents.step", span.tick());
            step_span.attr("step", step.id);
            step_span.attr("role", &step.agent);
            step_span.attr("agent", agent.name());
            record(
                "orchestrator",
                agent.name(),
                MessageKind::Task,
                serde_json::to_value(&task.step).expect("step serializes"),
            )?;
            // One retry with a bumped seed: transient failures (worker
            // faults, sampling mishaps) get a second chance; deterministic
            // failures surface after the retry.
            let reply = match agent.handle(&task, &ctx) {
                Ok(r) => r,
                Err(first) => {
                    step_span.event(span.tick(), format!("attempt 1 failed: {first}"));
                    record(
                        agent.name(),
                        "orchestrator",
                        MessageKind::Error,
                        json!(format!("attempt 1 failed: {first}")),
                    )?;
                    let retry_ctx = AgentContext {
                        llm: self.llm.clone(),
                        archive: self.archive.clone(),
                        seed: self.seed.wrapping_add(1),
                    };
                    match agent.handle(&task, &retry_ctx) {
                        Ok(r) => r,
                        Err(e) => {
                            let _ = record(
                                agent.name(),
                                "orchestrator",
                                MessageKind::Error,
                                json!(e.to_string()),
                            );
                            step_span.attr("outcome", "error");
                            step_span.end(span.tick());
                            return Err(AgentError::StepFailed {
                                step: step.id,
                                role: step.agent.clone(),
                                cause: e.to_string(),
                            });
                        }
                    }
                }
            };
            record(
                agent.name(),
                "orchestrator",
                MessageKind::Result,
                json!({"summary": reply.summary, "content": reply.content}),
            )?;
            step_span.attr("outcome", "ok");
            step_span.end(span.tick());
            prior.push(json!({"summary": reply.summary, "content": reply.content}));
            step_results.push(reply);
        }

        // 4. Aggregate (synthesizing a final step if the plan lacked one).
        let agg_step = aggregator_step.unwrap_or(PlanStep {
            id: plan.len() + 1,
            description: "Aggregate results".into(),
            agent: "aggregator".into(),
            chart: None,
            dimension: None,
        });
        let aggregator = self
            .agents
            .get("aggregator")
            .cloned()
            .ok_or_else(|| AgentError::NoAgentForRole("aggregator".into()))?;
        let task = TaskRequest {
            conversation: conv.clone(),
            goal: goal.to_string(),
            step: agg_step,
            prior_results: prior,
        };
        let agg_span = span.child("agents.aggregate", span.tick());
        agg_span.attr("inputs", task.prior_results.len());
        let final_report = match aggregator.handle(&task, &ctx) {
            Ok(r) => {
                agg_span.attr("outcome", "ok");
                agg_span.end(span.tick());
                r
            }
            Err(e) => {
                agg_span.attr("outcome", "error");
                agg_span.end(span.tick());
                return Err(AgentError::StepFailed {
                    step: task.step.id,
                    role: "aggregator".into(),
                    cause: e.to_string(),
                });
            }
        };
        record(
            "aggregator",
            "user",
            MessageKind::Report,
            json!({"summary": final_report.summary, "content": final_report.content}),
        )?;

        Ok(TaskReport {
            conversation: conv,
            plan,
            step_results,
            final_report,
        })
    }
}

impl std::fmt::Debug for Orchestrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orchestrator")
            .field("llm", &self.llm)
            .field("roles", &self.roles())
            .field("archived", &self.archive.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Agent;
    use dbgpt_llm::catalog::builtin_model;

    const DEMO_GOAL: &str =
        "Build sales reports and analyze user orders from at least three distinct dimensions";

    fn orch() -> Orchestrator {
        Orchestrator::new(LlmClient::direct(builtin_model("sim-qwen").unwrap()))
    }

    #[test]
    fn demo_goal_runs_end_to_end() {
        let mut o = orch();
        let report = o.execute_goal(DEMO_GOAL, &Span::noop()).unwrap();
        assert_eq!(report.plan.len(), 4);
        assert_eq!(report.step_results.len(), 3);
        assert!(report.final_report.content["narrative"].is_string());
    }

    #[test]
    fn full_history_is_archived() {
        let mut o = orch();
        let report = o.execute_goal(DEMO_GOAL, &Span::noop()).unwrap();
        let msgs = o.archive().conversation(&report.conversation);
        // goal + plan + 3×(task+result) + report = 9
        assert_eq!(msgs.len(), 9);
        assert_eq!(msgs[0].kind, MessageKind::Goal);
        assert_eq!(msgs[1].kind, MessageKind::Plan);
        assert_eq!(msgs.last().unwrap().kind, MessageKind::Report);
        // Sequence numbers are dense and ordered.
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(m.seq, i as u64);
        }
    }

    #[test]
    fn conversations_are_isolated() {
        let mut o = orch();
        let a = o.execute_goal(DEMO_GOAL, &Span::noop()).unwrap();
        let b = o.execute_goal("collect the logs, email the summary", &Span::noop()).unwrap();
        assert_ne!(a.conversation, b.conversation);
        assert_eq!(o.archive().conversations().len(), 2);
    }

    #[test]
    fn custom_agent_receives_matching_steps() {
        struct ChartStub;
        impl Agent for ChartStub {
            fn name(&self) -> &str {
                "chart_stub"
            }
            fn role(&self) -> &str {
                "chart_generator"
            }
            fn handle(
                &self,
                task: &TaskRequest,
                _ctx: &AgentContext,
            ) -> Result<AgentReply, AgentError> {
                Ok(AgentReply::structured(
                    json!({"chart": task.step.chart}),
                    format!("chart for {}", task.step.dimension.clone().unwrap_or_default()),
                ))
            }
        }
        let mut o = orch();
        o.register_agent(Arc::new(ChartStub));
        let report = o.execute_goal(DEMO_GOAL, &Span::noop()).unwrap();
        // All three chart steps handled by the stub.
        let charts: Vec<&str> = report
            .step_results
            .iter()
            .filter_map(|r| r.content["chart"].as_str())
            .collect();
        assert_eq!(charts.len(), 3);
        assert!(charts.contains(&"donut"));
    }

    #[test]
    fn failing_agent_reports_step_and_archives_error() {
        struct Broken;
        impl Agent for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn role(&self) -> &str {
                "chart_generator"
            }
            fn handle(&self, _t: &TaskRequest, _c: &AgentContext) -> Result<AgentReply, AgentError> {
                Err(AgentError::Llm("synthetic failure".into()))
            }
        }
        let mut o = orch();
        o.register_agent(Arc::new(Broken));
        let e = o.execute_goal(DEMO_GOAL, &Span::noop()).unwrap_err();
        assert!(matches!(e, AgentError::StepFailed { step: 1, .. }));
        // The error made it into the archive.
        let all: Vec<_> = o.archive().by_agent("broken");
        assert!(all.iter().any(|m| m.kind == MessageKind::Error));
    }

    #[test]
    fn generic_goal_falls_back_to_worker() {
        let mut o = orch();
        let report = o.execute_goal("fetch the logs, parse the errors", &Span::noop()).unwrap();
        assert!(!report.step_results.is_empty());
        assert!(report.final_report.summary.contains("aggregated"));
    }

    #[test]
    fn prior_results_flow_to_later_steps() {
        struct Probe;
        impl Agent for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn role(&self) -> &str {
                "worker"
            }
            fn handle(&self, task: &TaskRequest, _c: &AgentContext) -> Result<AgentReply, AgentError> {
                Ok(AgentReply::structured(
                    json!({"saw_prior": task.prior_results.len()}),
                    "probed",
                ))
            }
        }
        let mut o = orch();
        o.register_agent(Arc::new(Probe));
        let report = o
            .execute_goal("first thing, second thing, third thing", &Span::noop())
            .unwrap();
        let counts: Vec<u64> = report
            .step_results
            .iter()
            .map(|r| r.content["saw_prior"].as_u64().unwrap())
            .collect();
        assert_eq!(counts, vec![0, 1, 2]);
    }

    #[test]
    fn roles_listing() {
        let o = orch();
        assert_eq!(o.roles(), vec!["aggregator".to_string(), "worker".to_string()]);
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;
    use crate::agent::Agent;
    use dbgpt_llm::catalog::builtin_model;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

    /// Fails on its first call, succeeds afterwards.
    struct FlakyOnce(AtomicUsize);
    impl Agent for FlakyOnce {
        fn name(&self) -> &str {
            "flaky_once"
        }
        fn role(&self) -> &str {
            "worker"
        }
        fn handle(&self, _t: &TaskRequest, _c: &AgentContext) -> Result<AgentReply, AgentError> {
            if self.0.fetch_add(1, AtomicOrdering::SeqCst) == 0 {
                Err(AgentError::Llm("transient".into()))
            } else {
                Ok(AgentReply::text("recovered"))
            }
        }
    }

    /// Always fails.
    struct AlwaysBroken;
    impl Agent for AlwaysBroken {
        fn name(&self) -> &str {
            "always_broken"
        }
        fn role(&self) -> &str {
            "worker"
        }
        fn handle(&self, _t: &TaskRequest, _c: &AgentContext) -> Result<AgentReply, AgentError> {
            Err(AgentError::Llm("permanent".into()))
        }
    }

    #[test]
    fn transient_failure_is_retried_and_recovered() {
        let mut o = Orchestrator::new(LlmClient::direct(builtin_model("sim-qwen").unwrap()));
        o.register_agent(Arc::new(FlakyOnce(AtomicUsize::new(0))));
        let report = o.execute_goal("do one flaky thing", &Span::noop()).unwrap();
        assert!(report
            .step_results
            .iter()
            .any(|r| r.summary == "recovered"));
        // The failed first attempt is in the archive.
        let errors: Vec<_> = o
            .archive()
            .conversation(&report.conversation)
            .into_iter()
            .filter(|m| m.kind == MessageKind::Error)
            .collect();
        assert_eq!(errors.len(), 1);
        assert!(errors[0].content.as_str().unwrap().contains("attempt 1"));
    }

    #[test]
    fn permanent_failure_still_fails_after_retry() {
        let mut o = Orchestrator::new(LlmClient::direct(builtin_model("sim-qwen").unwrap()));
        o.register_agent(Arc::new(AlwaysBroken));
        let e = o.execute_goal("do one broken thing", &Span::noop()).unwrap_err();
        assert!(matches!(e, AgentError::StepFailed { .. }));
        // Two error records: the failed attempt + the final failure.
        let conv = o.archive().conversations()[0].clone();
        let errors = o
            .archive()
            .conversation(&conv)
            .into_iter()
            .filter(|m| m.kind == MessageKind::Error)
            .count();
        assert_eq!(errors, 2);
    }
}
