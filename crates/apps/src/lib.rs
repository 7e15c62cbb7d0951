#![warn(missing_docs)]

//! # dbgpt-apps — the application layer
//!
//! "The application layer encompasses the array of data interaction
//! functionalities supported by DB-GPT. These include, but are not limited
//! to, Text-to-SQL/SQL-to-Text, chat-to-database interactions (chat2db),
//! chat-to-data queries (chat2data), chat-to-Excel operations (chat2excel),
//! chat-to-visualization commands (chat2visualization), generative data
//! analysis, and question answering based on knowledge bases" (paper §2.1).
//!
//! Every functionality in that list is a module here:
//!
//! - [`chat2db`] — NL ⇄ SQL against a live database: generate, execute,
//!   explain ([`dbgpt_text2sql::sql_to_text()`]), render.
//! - [`chat2data`] — NL question → direct data answer in a sentence.
//! - [`chat2excel`] — CSV/spreadsheet ingestion + chat over the sheet.
//! - [`chat2viz`] — NL → SQL → [`dbgpt_vis::ChartSpec`] → SVG/ASCII.
//! - [`kbqa`] — knowledge-base QA over the RAG stack (retrieve → ICL →
//!   extractive answer).
//! - [`analysis`] — **generative data analysis**, the Fig. 3 demo: the
//!   multi-agent planner fans out to chart agents, an aggregator collects
//!   the report.
//! - [`forecast`] — time-series prediction (the paper's §4 future-work
//!   agent): history extraction, naive/moving-average/linear-trend
//!   forecasters, and a registrable [`ForecastAgent`].
//! - [`clean`] — automatic data preparation (§4's other future-work item):
//!   text standardisation, numeric recovery, imputation, deduplication.
//! - [`awel_bridge`] — "AWEL models each agent as a distinct operator"
//!   (§2.4): wrap agents as AWEL operators and compile plans into DAGs.
//! - [`pipeline`] — Chat2Data as a five-stage AWEL workflow whose
//!   operators join retrieval, Text-to-SQL, execution and narration spans
//!   into one end-to-end trace.
//! - [`intent`] — multilingual (en/zh) intent detection that routes a raw
//!   utterance to the right app.
//! - [`context`] — the shared resource bundle (model client, SQL engine,
//!   knowledge base, Text-to-SQL model) all apps draw from.
//! - [`handlers`] — [`dbgpt_server::AppHandler`] adapters exposing each
//!   app through the server layer.

pub mod analysis;
pub mod awel_bridge;
pub mod chat2data;
pub mod chat2db;
pub mod chat2excel;
pub mod chat2viz;
pub mod clean;
pub mod context;
pub mod error;
pub mod forecast;
pub mod handlers;
pub mod intent;
pub mod kbqa;
pub mod pipeline;

pub use analysis::{AnalysisReport, GenerativeAnalyzer};
pub use awel_bridge::{agent_operator, analysis_workflow};
pub use chat2data::Chat2Data;
pub use chat2db::Chat2Db;
pub use chat2excel::Chat2Excel;
pub use chat2viz::Chat2Viz;
pub use clean::{CleanAgent, CleanOptions, CleanReport, DataCleaner};
pub use context::AppContext;
pub use error::AppError;
pub use forecast::{ForecastAgent, Forecaster};
pub use intent::{detect_intent, Intent};
pub use kbqa::KnowledgeQa;
pub use pipeline::{Chat2DataPipeline, PipelineReply};

/// The observability crate every app entry point's `parent: &Span` and
/// [`AppContext::with_obs`] come from.
pub use dbgpt_obs as obs;
