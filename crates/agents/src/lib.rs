#![warn(missing_docs)]

//! # dbgpt-agents — the Multi-Agents framework
//!
//! Implements DB-GPT's Multi-Agents framework (paper §2.3): "Once users
//! have entered their final goals, the Multi-Agents framework can free
//! their hands, autonomously generate the planning of tasks and execute
//! particular tasks."
//!
//! The framework's differentiator versus MetaGPT/AutoGen is reproduced
//! faithfully: "DB-GPT's Multi-Agent framework archives the entire
//! communication history among its agents within a local storage system,
//! thereby significantly enhancing the reliability of the generated
//! content" — see [`memory::HistoryArchive`], an append-only JSONL store on
//! disk with replay and query.
//!
//! And versus LlamaIndex's "constrained behaviours", the framework "allows
//! users to custom-define agents tailored to their specific data
//! interaction tasks": anything implementing [`Agent`] can be registered
//! with the [`Orchestrator`] under any role — the application layer's chart
//! and SQL agents are exactly such custom agents.
//!
//! ## Flow (mirrors Fig. 3)
//!
//! ```text
//! goal ──▶ planner agent ──▶ [step₁ … stepₙ] ──▶ role-matched agents
//!                                         └──▶ aggregator ──▶ report
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use dbgpt_agents::{Orchestrator, LlmClient};
//! use dbgpt_llm::catalog::builtin_model;
//! use dbgpt_obs::Span;
//!
//! let client = LlmClient::direct(builtin_model("sim-qwen").unwrap());
//! let mut orch = Orchestrator::new(client);
//! let goal = "Build sales reports and analyze user orders \
//!             from at least three distinct dimensions";
//! let report = orch.execute_goal(goal, &Span::noop()).unwrap();
//! assert_eq!(report.plan.len(), 4);          // 3 charts + aggregate
//! assert!(report.step_results.len() >= 3);
//! ```

pub mod agent;
pub mod client;
pub mod error;
pub mod memory;
pub mod message;
pub mod orchestrator;
pub mod roles;

pub use agent::{Agent, AgentContext, AgentReply, SharedAgent, TaskRequest};
pub use client::LlmClient;
pub use error::AgentError;
pub use memory::HistoryArchive;
pub use message::{AgentMessage, MessageKind};
pub use orchestrator::{Orchestrator, TaskReport};
pub use roles::{AggregatorAgent, PlannerAgent, WorkerAgent};
