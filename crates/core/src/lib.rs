#![warn(missing_docs)]

//! # dbgpt — a Rust reproduction of DB-GPT (VLDB 2024 demo)
//!
//! DB-GPT is a "next generation data interaction system empowered by large
//! language models": natural-language interfaces over databases,
//! spreadsheets and knowledge bases, orchestrated by a multi-agent
//! framework, expressed through the AWEL workflow language, and served by
//! the privacy-preserving SMMF model-management framework.
//!
//! This crate is the **top of the four-layer architecture** (paper Fig. 1):
//!
//! ```text
//! ┌─────────────────────────────────────────────────────┐
//! │ Application layer   chat2db · chat2data · chat2excel│
//! │                     chat2viz · KBQA · gen. analysis │
//! ├─────────────────────────────────────────────────────┤
//! │ Server layer        sessions · routing · framing    │
//! ├─────────────────────────────────────────────────────┤
//! │ Module layer        SMMF · RAG · Multi-Agents       │
//! ├─────────────────────────────────────────────────────┤
//! │ Protocol layer      AWEL (operators · DAG · DSL)    │
//! └─────────────────────────────────────────────────────┘
//! ```
//!
//! [`DbGpt`] wires all of it behind one handle; the sub-crates remain
//! available for direct use and are re-exported as modules
//! ([`llm`], [`sqlengine`], [`rag`], [`smmf`], [`agents`], [`awel`],
//! [`text2sql`], [`vis`], [`server`], [`apps`], [`baselines`]).
//!
//! ## Quickstart
//!
//! ```
//! use dbgpt::DbGpt;
//!
//! let mut db = DbGpt::builder().with_sales_demo().build().unwrap();
//! let out = db.chat("how many orders are there?").unwrap();
//! assert!(out.text.contains("The answer is 8."));
//! ```

pub mod architecture;
pub mod config;
pub mod facade;

pub use architecture::{architecture, LayerInfo};
pub use config::{DbGptBuilder, DbGptConfig};
pub use facade::{ChatOutcome, DbGpt};

pub use dbgpt_agents as agents;
pub use dbgpt_apps as apps;
pub use dbgpt_awel as awel;
pub use dbgpt_baselines as baselines;
pub use dbgpt_llm as llm;
pub use dbgpt_apps::obs;
pub use dbgpt_rag as rag;
pub use dbgpt_server as server;
pub use dbgpt_smmf as smmf;
pub use dbgpt_sqlengine as sqlengine;
pub use dbgpt_text2sql as text2sql;
pub use dbgpt_vis as vis;
