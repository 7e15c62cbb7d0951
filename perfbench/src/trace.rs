//! The traced pass: per-layer time, measured from outside the program.
//!
//! Reads go through `Server::handle_frame` in-process, on a server whose
//! handlers are wrapped to time the app call inside it. The benchmark then
//! replays the request's stages by calling each layer's public entry point
//! in path order, feeding each stage's output to the next:
//!
//! ```text
//! request = encode_frame + handle_frame + decode_frame      (server.codec_us)
//! handle_frame = route + app call                           (server.route_us)
//! app call = app self time + its stages                     (apps.self_us.<app>)
//!   stages: Text2SqlModel::generate_sql, sql_to_text, the ctx.engine lock,
//!   Engine::execute, the ctx.kb lock, KnowledgeBase::retrieve (hybrid;
//!   its fusion = hybrid − vector − keyword − graph at depth 2k),
//!   IclBuilder::build, LlmClient::complete, GenerativeAnalyzer::analyze,
//!   the vis renderers, Chat2DataPipeline::run (its scheduling = run − its
//!   five stages)
//! ```
//!
//! The app call is replayed too, right after the real one, so an app's
//! self time is its replayed call minus its replayed stages: both see the
//! same state. `unattributed` is the request's time minus the sum of all
//! self times: the gaps between the benchmark's timed calls, plus whatever
//! the real app call spent beyond its replay (work that depended on the
//! state before the request, such as a lock wait or a cache the request
//! filled). A self time is a difference of two timings and noise can push
//! it below zero.
//!
//! A write is not replayed: it runs once, as its stages (`sql_to_text`, the
//! lock, `Engine::execute`; or the kb lock and `KnowledgeQa::ingest`),
//! without the server, so it is applied exactly once.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use dbgpt_apps::chat2db::looks_like_sql;
use dbgpt_apps::chat2viz::extract_chart_type;
use dbgpt_apps::handlers::{
    AnalysisHandler, Chat2DataHandler, Chat2DbHandler, Chat2VizHandler, ForecastHandler,
    KbqaHandler,
};
use dbgpt_apps::{
    detect_intent, AppContext, Chat2Data, Chat2DataPipeline, Chat2Db, Chat2Viz, Forecaster,
    GenerativeAnalyzer, KnowledgeQa,
};
use dbgpt_llm::GenerationParams;
use dbgpt_rag::{IclBuilder, RetrievalStrategy, RetrievedChunk};
use dbgpt_server::{
    decode_frame, encode_frame, AppHandler, Request, Response, Server, ServerError, Session,
    SessionId, Status,
};
use dbgpt_sqlengine::{QueryResult, SqlError};
use dbgpt_text2sql::sql_to_text;
use dbgpt_vis::{ascii, chart::ChartType, spec_from_result, svg};
use parking_lot::Mutex;
use serde_json::Value;

use crate::drive::Exchange;
use crate::gen::{Class, Op};
use crate::oracle::{check, result_matches, Expect, Verdict};
use crate::stats::Layers;
use crate::system::extra_handlers;

thread_local! {
    /// Duration of the last app call a [`Timed`] handler made on this thread.
    static APP_US: Cell<f64> = const { Cell::new(0.0) };
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, us_since(t))
}

/// Times the app call inside `handle_frame`.
struct Timed(Arc<dyn AppHandler>);

impl AppHandler for Timed {
    fn app_name(&self) -> &str {
        self.0.app_name()
    }
    fn handle(
        &self,
        input: &str,
        params: &Value,
        session: &Session,
    ) -> Result<(Value, Option<String>), ServerError> {
        let (out, us) = timed(|| self.0.handle(input, params, session));
        APP_US.with(|c| c.set(us));
        out
    }
}

/// The app handlers `build_server` registers, plus the benchmark's own.
fn app_handlers(ctx: &AppContext) -> Vec<Arc<dyn AppHandler>> {
    let apps: [Arc<dyn AppHandler>; 6] = [
        Arc::new(Chat2DbHandler(Chat2Db::new(ctx.clone()))),
        Arc::new(Chat2DataHandler(Chat2Data::new(ctx.clone()))),
        Arc::new(Chat2VizHandler(Chat2Viz::new(ctx.clone()))),
        Arc::new(KbqaHandler(KnowledgeQa::new(ctx.clone()))),
        Arc::new(AnalysisHandler(Mutex::new(GenerativeAnalyzer::new(
            ctx.clone(),
        )))),
        Arc::new(ForecastHandler(Forecaster::new(ctx.clone()))),
    ];
    apps.into_iter().chain(extra_handlers(ctx)).collect()
}

/// The handlers of [`app_handlers`], each wrapped in [`Timed`], over `ctx`.
pub fn traced_server(ctx: &AppContext) -> Server {
    let mut server = Server::new();
    for h in app_handlers(ctx) {
        server.register(Arc::new(Timed(h)));
    }
    server
}

fn app_self_metric(app: &str) -> &'static str {
    match app {
        "chat2data" => "apps.self_us.chat2data",
        "chat2db" => "apps.self_us.chat2db",
        "chat2viz" => "apps.self_us.chat2viz",
        "kbqa" => "apps.self_us.kbqa",
        "analysis" => "apps.self_us.analysis",
        "forecast" => "apps.self_us.forecast",
        "pipeline" => "apps.self_us.pipeline",
        _ => unreachable!("no read requests for {app}"),
    }
}

fn sql_metric(class: Class) -> &'static str {
    match class {
        Class::Read => "sql.lookup_us",
        Class::Scan => "sql.scan_us",
        Class::Write => "sql.write_us",
    }
}

/// One connection of the traced pass.
pub struct Tracer<'a> {
    ctx: &'a AppContext,
    server: &'a Server,
    /// Handlers of its own, for replaying app calls.
    apps: Vec<Arc<dyn AppHandler>>,
    kbqa: KnowledgeQa,
    pipeline: Chat2DataPipeline,
    analyzer: GenerativeAnalyzer,
    layers: Layers,
}

impl<'a> Tracer<'a> {
    /// A tracer over the context and the traced server built on it.
    pub fn new(ctx: &'a AppContext, server: &'a Server) -> Self {
        Tracer {
            ctx,
            server,
            apps: app_handlers(ctx),
            kbqa: KnowledgeQa::new(ctx.clone()),
            pipeline: Chat2DataPipeline::new(ctx.clone()),
            analyzer: GenerativeAnalyzer::new(ctx.clone()),
            layers: Layers::default(),
        }
    }

    /// `Text2SqlModel::generate_sql` over the current schema.
    fn generate(&mut self, question: &str) -> (Option<String>, f64) {
        let ddl = self.ctx.schema_ddl();
        let (sql, t) = timed(|| self.ctx.t2s.generate_sql(&ddl, question));
        self.layers.add("t2s.generate_us", t);
        (sql.ok(), t)
    }

    /// Lock `ctx.engine` and run `Engine::execute`.
    fn execute(&mut self, sql: &str, class: Class) -> (Result<QueryResult, SqlError>, f64) {
        let t = Instant::now();
        let mut engine = self.ctx.engine.write();
        let wait = us_since(t);
        let (res, t) = timed(|| engine.execute(sql));
        drop(engine);
        self.layers.add("sql.lock_wait_us", wait);
        self.layers.add(sql_metric(class), t);
        if let Ok(r) = &res {
            self.layers.add("sql.rows_returned", r.rows.len() as f64);
        }
        (res, wait + t)
    }

    /// Execute generated SQL and score it against the oracle.
    fn execute_generated(&mut self, sql: &str, op: &Op) -> (Option<QueryResult>, f64) {
        let (res, t) = self.execute(sql, op.class);
        let res = res.ok();
        let matched = res.as_ref().and_then(|r| result_matches(&op.expect, r));
        self.layers
            .add("t2s.exec_match", f64::from(matched == Some(true)));
        (res, t)
    }

    /// Hybrid retrieval under the kb lock, then each single strategy at
    /// hybrid's depth of 2k.
    fn retrieve(&mut self, question: &str, k: usize) -> (Vec<RetrievedChunk>, f64) {
        let t = Instant::now();
        let kb = self.ctx.kb.read();
        let wait = us_since(t);
        let (hits, hybrid) = timed(|| kb.retrieve(question, k, RetrievalStrategy::Hybrid));
        let mut singles = 0.0;
        for (strategy, metric) in [
            (RetrievalStrategy::Vector, "rag.vector_us"),
            (RetrievalStrategy::Keyword, "rag.keyword_us"),
            (RetrievalStrategy::Graph, "rag.graph_us"),
        ] {
            let (_, t) = timed(|| kb.retrieve(question, 2 * k, strategy));
            self.layers.add(metric, t);
            singles += t;
        }
        drop(kb);
        self.layers.add("rag.lock_wait_us", wait);
        self.layers.add("rag.retrieve_us", hybrid);
        self.layers.add("rag.fuse_us", hybrid - singles);
        (hits, wait + hybrid)
    }

    fn complete(&mut self, prompt: &str) -> f64 {
        let (c, t) = timed(|| self.ctx.llm.complete(prompt, &GenerationParams::default()));
        self.layers.add("llm.complete_us", t);
        if let Ok(c) = c {
            self.layers
                .add("llm.prompt_tokens", c.usage.prompt_tokens as f64);
            self.layers
                .add("llm.completion_tokens", c.usage.completion_tokens as f64);
        }
        t
    }

    /// Replay a read's stages; returns the time of the app's direct
    /// children.
    fn replay(&mut self, op: &Op, resp: &Response) -> f64 {
        let input = op.input.trim();
        match op.app {
            "chat2data" => {
                let (sql, mut kids) = self.generate(input);
                if let Some(sql) = sql {
                    kids += self.execute_generated(&sql, op).1;
                }
                kids
            }
            "chat2db" => {
                let mut kids = 0.0;
                let sql = if looks_like_sql(input) {
                    Some(input.to_string())
                } else {
                    let (sql, t) = self.generate(input);
                    kids += t;
                    sql
                };
                let Some(sql) = sql else { return kids };
                let (_, t) = timed(|| sql_to_text(&sql));
                self.layers.add("t2s.explain_us", t);
                kids += t;
                kids += if looks_like_sql(input) {
                    self.execute(&sql, op.class).1
                } else {
                    self.execute_generated(&sql, op).1
                };
                kids
            }
            "chat2viz" => {
                let (chart, question) = extract_chart_type(input);
                let (sql, mut kids) = self.generate(&question);
                let Some(sql) = sql else { return kids };
                let (result, t) = self.execute_generated(&sql, op);
                kids += t;
                let Some(result) = result else { return kids };
                let (_, t) = timed(|| {
                    let chart = chart.unwrap_or(ChartType::Bar);
                    spec_from_result(&result, chart, input)
                        .map(|spec| (svg::render(&spec), ascii::render(&spec)))
                });
                self.layers.add("vis.render_us", t);
                kids + t
            }
            "kbqa" => {
                let (hits, mut kids) = self.retrieve(input, 4);
                if let Expect::Source(target) = &op.expect {
                    let hit = hits.iter().any(|h| &h.chunk.document_id == target);
                    self.layers.add("rag.hit_at_k", f64::from(hit));
                }
                let (prompt, t) = timed(|| IclBuilder::new(1024).build(input, &hits));
                self.layers.add("rag.icl_us", t);
                kids += t;
                if let Ok((prompt, _)) = prompt {
                    kids += self.complete(&prompt);
                }
                kids
            }
            "analysis" => {
                let (report, t) = timed(|| self.analyzer.analyze(input));
                self.layers.add("agents.analyze_us", t);
                let Ok(report) = report else { return t };
                let (_, render) =
                    timed(|| report.charts.iter().map(ascii::render).collect::<Vec<_>>());
                self.layers.add("vis.render_us", render);
                t + render
            }
            "forecast" => match resp.content["sql"].as_str() {
                Some(sql) => self.execute(sql, op.class).1,
                None => 0.0,
            },
            "pipeline" => {
                let (_, run) = timed(|| self.pipeline.run(input));
                // The five stages of the DAG, in order.
                let ((_, question), intent) = timed(|| detect_intent(input));
                let (hits, retrieve) = self.retrieve(&question, 2);
                let (sql, gen_sql) = self.generate(&question);
                let execute = sql.map_or(0.0, |sql| self.execute_generated(&sql, op).1);
                // The prompt the pipeline's narrate operator builds from the
                // retrieved context and the data answer.
                let mut prompt = String::from("Background:\n");
                for h in &hits {
                    prompt.push_str(&h.chunk.text);
                    prompt.push('\n');
                }
                let answer = resp.content["answer"].as_str().unwrap_or_default();
                prompt.push_str(&format!(
                    "\nQuestion: {question}\nData answer: {answer}\nSummarize the finding in one sentence."
                ));
                let narrate = self.complete(&prompt);
                self.layers.add(
                    "awel.schedule_us",
                    run - (intent + retrieve + gen_sql + execute + narrate),
                );
                // Intent detection is app code: it stays in the app's self time.
                run - intent
            }
            _ => unreachable!("no read requests for {}", op.app),
        }
    }

    /// A write, run once as its stages.
    fn write(&mut self, op: &Op) -> (Option<Verdict>, f64) {
        let good = |ok: bool| Some(if ok { Verdict::Ok } else { Verdict::Wrong });
        match (op.app, &op.expect) {
            ("chat2db", Expect::Affected(n)) => {
                let (_, explain) = timed(|| sql_to_text(&op.input));
                self.layers.add("t2s.explain_us", explain);
                let (res, t) = self.execute(&op.input, Class::Write);
                let verdict = match res {
                    Ok(r) => good(r.rows_affected as u64 == *n),
                    Err(_) => Some(Verdict::Error),
                };
                (verdict, explain + t)
            }
            ("ingest", Expect::Ingested(n)) => {
                let ((), wait) = timed(|| drop(self.ctx.kb.write()));
                self.layers.add("rag.lock_wait_us", wait);
                let id = op
                    .doc_id
                    .as_deref()
                    .expect("ingest ops carry a document id");
                let (chunks, t) = timed(|| self.kbqa.ingest(id, &op.input));
                self.layers.add("rag.ingest_us", t);
                (good(chunks as u64 == *n), wait + t)
            }
            _ => unreachable!("no staged write for {}", op.app),
        }
    }
}

impl Exchange for Tracer<'_> {
    fn exchange(&mut self, op: &Op, req: &Request) -> (Option<Verdict>, f64) {
        let start = Instant::now();
        if op.class == Class::Write {
            let (verdict, calls) = self.write(op);
            let whole = us_since(start);
            self.layers.add("unattributed", whole - calls);
            return (verdict, whole);
        }
        let (frame, enc) = timed(|| encode_frame(req));
        let (reply, hf) = timed(|| self.server.handle_frame(&frame));
        let app = APP_US.with(|c| c.replace(0.0));
        let (resp, dec) = timed(|| decode_frame::<Response>(&reply));
        let whole = us_since(start);
        self.layers.add("server.codec_us", enc + dec);
        self.layers.add("server.route_us", hf - app);
        self.layers.add("apps.reply_bytes", reply.len() as f64);
        if !req.session.is_empty() {
            if let Ok(s) = self.server.sessions().get(&req.session) {
                self.layers
                    .add("server.session_turns", s.user_turns() as f64);
            }
        }
        let Ok((resp, _)) = resp else {
            return (None, whole);
        };
        if resp.status == Status::Ok {
            // Replay the app call, then its stages, on the state the real
            // call left; the real call's extra time over its replay (work
            // that depended on earlier state, waits) stays unattributed.
            let handler = self
                .apps
                .iter()
                .find(|h| h.app_name() == op.app)
                .expect("app handler")
                .clone();
            let session = Session {
                id: SessionId("replay".into()),
                app: op.app.to_string(),
                history: Vec::new(),
            };
            let (_, app_replay) = timed(|| handler.handle(&req.input, &req.params, &session));
            let kids = self.replay(op, &resp);
            self.layers.add(app_self_metric(op.app), app_replay - kids);
            self.layers
                .add("unattributed", whole - (enc + dec + hf - app + app_replay));
        } else {
            self.layers.add("unattributed", whole - (enc + hf + dec));
        }
        (Some(check(&op.expect, &resp)), whole)
    }

    fn warm_done(&mut self) {
        self.layers = Layers::default();
    }

    fn finish(self) -> Layers {
        self.layers
    }
}
