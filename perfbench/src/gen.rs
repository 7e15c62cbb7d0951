//! Workloads: their inputs and the request stream of each connection.
//!
//! Every input comes from the `--seed` argument: the knowledge-base corpus
//! (`dbgpt_bench::synthetic_corpus`), the KBQA questions
//! (`dbgpt_bench::doc_queries`), the orders table
//! (`dbgpt_bench::orders_engine`) and the order, parameters and targets of
//! every request. Each connection draws from its own generator, so the
//! same seed yields the same requests on every run.
//!
//! Requests come in fixed blocks (one conversation, or a shuffled deck of
//! request kinds), so every run carries the same share of each request
//! class however many requests fit in it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use dbgpt_bench::{corpus_queries, doc_queries, synthetic_corpus, CorpusDoc};
use dbgpt_server::Request;
use dbgpt_sqlengine::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;

use crate::oracle::{row, Expect};

/// Client connections (one client thread each).
pub const CONNS: usize = 2;
/// Knowledge-base documents behind `demo_mix` (one chunk each).
pub const DEMO_DOCS: usize = 250;
/// Rows of the `sql_analytics` orders table.
pub const ORDERS: usize = 200_000;
/// Documents loaded into the `kb_qa` knowledge base at set-up.
pub const KB_DOCS: usize = 10_000;
/// Documents each `kb_qa` connection may ingest during a run.
const INGEST_POOL: usize = 8_000;
/// Turns of one `demo_mix` conversation.
pub const TURNS: usize = 16;
/// Rows each `sql_analytics` connection owns at set-up.
pub const OWN_ROWS: usize = 16;
/// KBQA questions drawn per connection (cycled if a run uses more).
const QUESTIONS: usize = 4096;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The sales demo plus a small knowledge base: layers above the data.
    DemoMix,
    /// A 2×10⁵-row orders table: the SQL engine.
    SqlAnalytics,
    /// KBQA over 10⁴ documents: retrieval.
    KbQa,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "demo_mix" => Some(Workload::DemoMix),
            "sql_analytics" => Some(Workload::SqlAnalytics),
            "kb_qa" => Some(Workload::KbQa),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DemoMix => "demo_mix",
            Workload::SqlAnalytics => "sql_analytics",
            Workload::KbQa => "kb_qa",
        }
    }
}

/// Request classes, reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Indexed point lookups, single-answer questions, KBQA questions.
    Read,
    /// Questions that aggregate over a whole table (or, in `kb_qa`, broad
    /// topic questions).
    Scan,
    /// Single-row writes and document ingest.
    Write,
}

impl Class {
    /// All classes, in report order.
    pub const ALL: [Class; 3] = [Class::Read, Class::Scan, Class::Write];

    /// The class's name.
    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Scan => "scan",
            Class::Write => "write",
        }
    }
}

/// One generated request with its expected reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Target app.
    pub app: &'static str,
    /// The utterance, SQL statement or document text.
    pub input: String,
    /// Document id, for ingest requests.
    pub doc_id: Option<String>,
    /// Request class.
    pub class: Class,
    /// The oracle's expected reply.
    pub expect: Expect,
    /// Position in its conversation (`demo_mix` only).
    pub turn: Option<usize>,
}

impl Op {
    /// The wire request.
    pub fn request(&self, id: u64, session: &str) -> Request {
        let mut req = Request::new(id, self.app, self.input.clone());
        req.session = session.to_string();
        if let Some(doc) = &self.doc_id {
            req.params = json!({ "id": doc.clone() });
        }
        req
    }
}

/// Inputs generated from the seed before set-up.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// Corpus documents: the first `base_docs` are loaded at set-up, the
    /// rest are ingested by requests.
    pub docs: Vec<CorpusDoc>,
    /// Documents loaded at set-up.
    pub base_docs: usize,
}

impl Inputs {
    /// Generate the inputs of a workload.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let (base_docs, total) = match workload {
            Workload::DemoMix => (DEMO_DOCS, DEMO_DOCS),
            Workload::SqlAnalytics => (0, 0),
            Workload::KbQa => (KB_DOCS, KB_DOCS + CONNS * INGEST_POOL),
        };
        Inputs {
            workload,
            seed,
            docs: synthetic_corpus(total, seed),
            base_docs,
        }
    }
}

/// Id of the `k`-th row owned by connection `conn`; row `k < OWN_ROWS`
/// exists from set-up on.
pub fn own_row_id(conn: usize, k: usize) -> i64 {
    1_000_000 * (conn as i64 + 1) + k as i64
}

/// The INSERT of an owned row (user `user`, amount 0.0, category `misc`,
/// month `dec`). Owned rows never change a scan question's answer: they
/// carry no amount and fall in groups of their own whose sum and average
/// stay 0.0.
pub fn own_row_insert(id: i64, user: i64) -> String {
    format!("INSERT INTO orders VALUES ({id}, {user}, 0.0, 'misc', 'dec')")
}

/// What the `sql_analytics` oracle knows about the seeded orders table.
pub struct Orders {
    /// Rows of the seeded table, indexed by id.
    rows: Vec<Vec<Value>>,
    /// Amounts of the seeded rows, ascending.
    amounts: Vec<f64>,
    /// The four group-by questions and their answers.
    grouped: Vec<(String, Expect)>,
}

fn cell(v: f64) -> String {
    Value::Float(v).to_string()
}

impl Orders {
    /// Build the oracle's view from the seeded rows (`id` = index).
    pub fn new(rows: Vec<Vec<Value>>) -> Orders {
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r[0].as_i64(),
                Some(i as i64),
                "orders ids are 0..n in order"
            );
        }
        let mut amounts: Vec<f64> = rows
            .iter()
            .map(|r| r[2].as_f64().expect("amount"))
            .collect();
        let mut grouped = Vec::new();
        for (col, idx, own) in [("category", 3, "misc"), ("month", 4, "dec")] {
            let mut groups: BTreeMap<String, (f64, usize)> = BTreeMap::new();
            for (r, a) in rows.iter().zip(&amounts) {
                let g = groups.entry(r[idx].to_string()).or_default();
                g.0 += a;
                g.1 += 1;
            }
            groups.insert(own.to_string(), (0.0, 1));
            for agg in ["sum", "avg"] {
                let data = groups
                    .iter()
                    .map(|(k, (s, n))| {
                        let v = if agg == "sum" { *s } else { s / *n as f64 };
                        row(&[(col, k), (agg, &cell(v))])
                    })
                    .collect();
                let what = if agg == "sum" { "total" } else { "average" };
                grouped.push((
                    format!("What is the {what} amount per {col} of orders?"),
                    Expect::Data(data),
                ));
            }
        }
        amounts.sort_by(f64::total_cmp);
        Orders {
            rows,
            amounts,
            grouped,
        }
    }
}

/// Everything the request streams draw from.
pub struct Plan {
    /// The generated inputs.
    pub inputs: Inputs,
    /// The seeded orders table (`sql_analytics`).
    orders: Option<Orders>,
    /// Per topic: the broad question and the ids of its documents.
    topics: Vec<(String, Arc<BTreeSet<String>>)>,
}

impl Plan {
    /// A plan over the inputs; `orders` is the seeded table as set-up
    /// loaded it (`sql_analytics` only).
    pub fn new(inputs: Inputs, orders: Option<Orders>) -> Plan {
        let topics = corpus_queries()
            .into_iter()
            .map(|(topic, q)| {
                let ids = inputs.docs.iter().filter(|d| d.topic == topic);
                (q, Arc::new(ids.map(|d| d.id.clone()).collect()))
            })
            .collect();
        Plan {
            inputs,
            orders,
            topics,
        }
    }

    /// The request stream of connection `conn`.
    pub fn stream(&self, conn: usize) -> Stream<'_> {
        let seed = self.inputs.seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let base = &self.inputs.docs[..self.inputs.base_docs];
        let questions = if base.is_empty() {
            Vec::new()
        } else {
            doc_queries(base, QUESTIONS, seed)
        };
        Stream {
            plan: self,
            conn,
            rng: StdRng::seed_from_u64(seed),
            pending: VecDeque::new(),
            blocks: 0,
            questions,
            asked: 0,
            live: (0..OWN_ROWS)
                .map(|k| (own_row_id(conn, k), k as i64))
                .collect(),
            gone: Vec::new(),
            next_own: OWN_ROWS,
            ingested: 0,
        }
    }
}

/// Result rows as (column, cell) pairs.
type Pairs = &'static [&'static [(&'static str, &'static str)]];
/// Result rows as cells.
type Cells = &'static [&'static [&'static str]];

/// The demo database's questions and their answers, worked out by hand
/// from `AppContext::with_sales_demo_data` (8 orders, 4 users, 4 products).
const DEMO_QUESTIONS: &[(&str, Pairs)] = &[
    ("how many orders are there?", &[&[("count", "8")]]),
    ("how many users are there?", &[&[("count", "4")]]),
    (
        "what is the total amount per category of orders?",
        &[
            &[("category", "tech"), ("sum", "4500.0")],
            &[("category", "books"), ("sum", "45.0")],
            &[("category", "food"), ("sum", "47.5")],
        ],
    ),
    (
        "what is the average price of products?",
        &[&[("avg", "381.125")]],
    ),
    (
        "how many orders per month?",
        &[
            &[("month", "jan"), ("count", "3")],
            &[("month", "feb"), ("count", "2")],
            &[("month", "mar"), ("count", "3")],
        ],
    ),
    (
        "which product has the highest price?",
        &[&[("name", "laptop")]],
    ),
    (
        "what is the total amount of orders?",
        &[&[("sum", "4592.5")]],
    ),
    (
        "show the name of users whose city is berlin",
        &[&[("name", "alice")], &[("name", "dave")]],
    ),
];

/// Chat2DB reads: (input, header, rows).
const DEMO_TABLES: &[(&str, &[&str], Cells)] = &[
    ("how many orders are there?", &["count"], &[&["8"]]),
    (
        "SELECT name FROM users WHERE city = 'berlin'",
        &["name"],
        &[&["alice"], &["dave"]],
    ),
    (
        "SELECT name, price FROM products WHERE stock > 100",
        &["name", "price"],
        &[&["novel", "15.0"], &["coffee", "9.5"]],
    ),
    (
        "SELECT COUNT(*) FROM orders WHERE category = 'tech'",
        &["count"],
        &[&["4"]],
    ),
    (
        "SELECT id, amount FROM orders WHERE month = 'feb'",
        &["id", "amount"],
        &[&["3", "19.0"], &["4", "2400.0"]],
    ),
];

/// Chat2DB writes: each re-saves a row's current value, so it affects one
/// row and leaves every other answer unchanged.
const DEMO_WRITES: &[&str] = &[
    "UPDATE users SET city = 'berlin' WHERE id = 1",
    "UPDATE users SET city = 'paris' WHERE id = 2",
    "UPDATE users SET city = 'tokyo' WHERE id = 3",
    "UPDATE users SET city = 'berlin' WHERE id = 4",
    "UPDATE products SET stock = 200 WHERE id = 2",
    "UPDATE products SET stock = 40 WHERE id = 4",
];

const BY_CATEGORY: &[(&str, f64)] = &[("tech", 4500.0), ("books", 45.0), ("food", 47.5)];
const BY_USER: &[(&str, f64)] = &[
    ("alice", 1819.0),
    ("bob", 330.0),
    ("carol", 2428.5),
    ("dave", 15.0),
];
const BY_MONTH: &[(&str, f64)] = &[("jan", 1830.0), ("feb", 2419.0), ("mar", 343.5)];
const ORDERS_BY_MONTH: &[(&str, f64)] = &[("jan", 3.0), ("feb", 2.0), ("mar", 3.0)];

const DEMO_CHARTS: &[(&str, &[(&str, f64)])] = &[
    (
        "pie chart of total amount per category of orders",
        BY_CATEGORY,
    ),
    ("bar chart of total amount per month of orders", BY_MONTH),
    ("line chart of how many orders per month", ORDERS_BY_MONTH),
];

const ANALYSIS_GOAL: &str =
    "Build sales reports and analyze user orders from at least three distinct dimensions";

/// One conversation: the app and class of each turn.
const CONVERSATION: [(&str, Class); TURNS] = [
    ("chat2data", Class::Read),
    ("chat2db", Class::Read),
    ("chat2viz", Class::Scan),
    ("kbqa", Class::Read),
    ("pipeline", Class::Read),
    ("chat2db", Class::Write),
    ("analysis", Class::Scan),
    ("chat2data", Class::Read),
    ("forecast", Class::Scan),
    ("kbqa", Class::Read),
    ("pipeline", Class::Read),
    ("chat2db", Class::Read),
    ("chat2viz", Class::Scan),
    ("chat2data", Class::Read),
    ("chat2db", Class::Write),
    ("forecast", Class::Scan),
];

fn points(p: &[(&str, f64)]) -> Vec<(String, f64)> {
    p.iter().map(|(l, v)| (l.to_string(), *v)).collect()
}

/// The forecast oracle: least-squares trend, trailing mean of three, or
/// last value, extrapolated `horizon` periods.
pub fn predict(history: &[f64], method: &str, horizon: usize) -> Vec<f64> {
    let mut series = history.to_vec();
    let n = history.len() as f64;
    let mean_x = (n - 1.0) / 2.0;
    let mean_y = history.iter().sum::<f64>() / n;
    let (mut num, mut den) = (0.0, 0.0);
    for (i, y) in history.iter().enumerate() {
        num += (i as f64 - mean_x) * (y - mean_y);
        den += (i as f64 - mean_x).powi(2);
    }
    let slope = num / den;
    for h in 0..horizon {
        let next = match method {
            "trend" => mean_y + slope * ((history.len() + h) as f64 - mean_x),
            "average" => series[series.len() - 3..].iter().sum::<f64>() / 3.0,
            _ => *history.last().expect("history"),
        };
        series.push(next);
    }
    series.split_off(history.len())
}

/// Request kinds of the shuffled decks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    LookupSql,
    LookupAsk,
    Scan,
    Insert,
    Update,
    Delete,
    Question,
    Topic,
    Ingest,
}

/// One `sql_analytics` block per connection: 32 lookups, 4 scans, 4
/// writes (the writes keep the connection's owned-row count constant).
const SQL_DECK: &[(Kind, usize)] = &[
    (Kind::LookupSql, 16),
    (Kind::LookupAsk, 16),
    (Kind::Scan, 4),
    (Kind::Insert, 1),
    (Kind::Update, 2),
    (Kind::Delete, 1),
];

/// One `kb_qa` block per connection: 16 document questions, 2 broad topic
/// questions, 2 ingests.
const KB_DECK: &[(Kind, usize)] = &[(Kind::Question, 16), (Kind::Topic, 2), (Kind::Ingest, 2)];

/// The request stream of one connection.
pub struct Stream<'a> {
    plan: &'a Plan,
    conn: usize,
    rng: StdRng,
    pending: VecDeque<Op>,
    blocks: usize,
    questions: Vec<(String, String)>,
    asked: usize,
    /// Owned rows that exist: (id, user_id).
    live: Vec<(i64, i64)>,
    /// Owned rows deleted so far (most recent last).
    gone: Vec<i64>,
    next_own: usize,
    ingested: usize,
}

impl Iterator for Stream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.pending.is_empty() {
            self.refill();
            self.blocks += 1;
        }
        self.pending.pop_front()
    }
}

impl<'a> Stream<'a> {
    fn refill(&mut self) {
        match self.plan.inputs.workload {
            Workload::DemoMix => {
                for (turn, (app, class)) in CONVERSATION.iter().enumerate() {
                    let mut op = self.demo_op(app, *class);
                    op.turn = Some(turn);
                    self.pending.push_back(op);
                }
            }
            Workload::SqlAnalytics => {
                let mut scans = 0;
                for kind in self.deck(SQL_DECK) {
                    let op = if kind == Kind::Scan {
                        scans += 1;
                        self.scan_op(4 * self.blocks + scans - 1)
                    } else {
                        self.sql_op(kind)
                    };
                    self.pending.push_back(op);
                }
            }
            Workload::KbQa => {
                for kind in self.deck(KB_DECK) {
                    let op = self.kb_op(kind);
                    self.pending.push_back(op);
                }
            }
        }
    }

    /// A deck's kinds in a seeded order (Fisher–Yates).
    fn deck(&mut self, deck: &[(Kind, usize)]) -> Vec<Kind> {
        let mut kinds: Vec<Kind> = deck
            .iter()
            .flat_map(|(k, n)| std::iter::repeat_n(*k, *n))
            .collect();
        for i in (1..kinds.len()).rev() {
            let j = self.rng.gen_range(0..i + 1);
            kinds.swap(i, j);
        }
        kinds
    }

    fn pick<'t, T>(&mut self, items: &'t [T]) -> &'t T {
        &items[self.rng.gen_range(0..items.len())]
    }

    fn op(app: &'static str, input: String, class: Class, expect: Expect) -> Op {
        Op {
            app,
            input,
            doc_id: None,
            class,
            expect,
            turn: None,
        }
    }

    fn question(&mut self) -> Op {
        let (target, q) = self.questions[self.asked % self.questions.len()].clone();
        self.asked += 1;
        Self::op("kbqa", q, Class::Read, Expect::Source(target))
    }

    fn demo_op(&mut self, app: &'static str, class: Class) -> Op {
        match (app, class) {
            ("chat2data" | "pipeline", _) => {
                let (q, rows) = *self.pick(DEMO_QUESTIONS);
                let data = rows.iter().map(|r| row(r)).collect();
                Self::op(app, q.into(), class, Expect::Data(data))
            }
            ("chat2db", Class::Write) => {
                let sql = *self.pick(DEMO_WRITES);
                Self::op(app, sql.into(), class, Expect::Affected(1))
            }
            ("chat2db", _) => {
                let (input, header, rows) = *self.pick(DEMO_TABLES);
                let expect = Expect::Table {
                    header: header.iter().map(|h| h.to_string()).collect(),
                    rows: rows
                        .iter()
                        .map(|r| r.iter().map(|c| c.to_string()).collect())
                        .collect(),
                };
                Self::op(app, input.into(), class, expect)
            }
            ("chat2viz", _) => {
                let (q, p) = *self.pick(DEMO_CHARTS);
                Self::op(app, q.into(), class, Expect::Chart(points(p)))
            }
            ("kbqa", _) => self.question(),
            ("analysis", _) => {
                let charts = vec![points(BY_CATEGORY), points(BY_USER), points(BY_MONTH)];
                Self::op(app, ANALYSIS_GOAL.into(), class, Expect::Charts(charts))
            }
            ("forecast", _) => {
                let horizon = self.rng.gen_range(1..5usize);
                let (method, phrase) = *self.pick(&[
                    ("trend", ""),
                    ("average", " using a moving average"),
                    ("naive", " with the naive method"),
                ]);
                let history = points(BY_MONTH);
                let values: Vec<f64> = history.iter().map(|(_, v)| *v).collect();
                let expect = Expect::Forecast {
                    predictions: predict(&values, method, horizon),
                    history,
                };
                let q = format!("forecast sales for the next {horizon} months{phrase}");
                Self::op(app, q, class, expect)
            }
            _ => unreachable!("no demo turn for {app}"),
        }
    }

    fn orders(&self) -> &'a Orders {
        self.plan
            .orders
            .as_ref()
            .expect("sql_analytics plan has the orders table")
    }

    fn scan_op(&mut self, nth: usize) -> Op {
        let orders = self.orders();
        let grouped = orders.grouped.len();
        let (q, expect) = if nth % (grouped + 1) < grouped {
            orders.grouped[nth % (grouped + 1)].clone()
        } else {
            let t = self.rng.gen_range(50..451i64);
            let amounts = &orders.amounts;
            let above = amounts.len() - amounts.partition_point(|a| *a <= t as f64);
            (
                format!("How many orders with amount greater than {t}?"),
                Expect::Data(vec![row(&[("count", &above.to_string())])]),
            )
        };
        Self::op("chat2data", q, Class::Scan, expect)
    }

    fn sql_op(&mut self, kind: Kind) -> Op {
        match kind {
            Kind::LookupSql | Kind::LookupAsk => {
                let sql = kind == Kind::LookupSql;
                let own = self.rng.gen_range(0..4) == 0;
                let (id, cells): (i64, Option<Vec<String>>) = if !own {
                    let id = self.rng.gen_range(0..ORDERS as i64);
                    let r = &self.orders().rows[id as usize];
                    (id, Some(r.iter().map(|v| v.to_string()).collect()))
                } else if !self.gone.is_empty() && self.rng.gen_range(0..3) == 0 {
                    let i = self.rng.gen_range(0..self.gone.len());
                    (self.gone[i], None)
                } else {
                    let i = self.rng.gen_range(0..self.live.len());
                    let (id, user) = self.live[i];
                    let cells = [
                        id.to_string(),
                        user.to_string(),
                        cell(0.0),
                        "misc".into(),
                        "dec".into(),
                    ];
                    (id, Some(cells.to_vec()))
                };
                if sql {
                    let header = ["id", "user_id", "amount", "category", "month"];
                    let expect = Expect::Table {
                        header: header.iter().map(|h| h.to_string()).collect(),
                        rows: cells.into_iter().collect(),
                    };
                    let q = format!("SELECT * FROM orders WHERE id = {id}");
                    Self::op("chat2db", q, Class::Read, expect)
                } else {
                    // Seeded rows answer with their amount, owned rows with
                    // their user (the column the writes change).
                    let (col, idx) = if own { ("user_id", 1) } else { ("amount", 2) };
                    let data = cells.map(|c| row(&[(col, &c[idx])])).into_iter().collect();
                    let q = format!("Show the {col} of orders whose id is {id}");
                    Self::op("chat2data", q, Class::Read, Expect::Data(data))
                }
            }
            Kind::Insert => {
                let id = own_row_id(self.conn, self.next_own);
                self.next_own += 1;
                let user = self.rng.gen_range(0..100i64);
                self.live.push((id, user));
                Self::op(
                    "chat2db",
                    own_row_insert(id, user),
                    Class::Write,
                    Expect::Affected(1),
                )
            }
            Kind::Update => {
                let i = self.rng.gen_range(0..self.live.len());
                let user = self.rng.gen_range(0..100i64);
                self.live[i].1 = user;
                let q = format!(
                    "UPDATE orders SET user_id = {user} WHERE id = {}",
                    self.live[i].0
                );
                Self::op("chat2db", q, Class::Write, Expect::Affected(1))
            }
            Kind::Delete => {
                let i = self.rng.gen_range(0..self.live.len());
                let (id, _) = self.live.swap_remove(i);
                self.gone.push(id);
                if self.gone.len() > 64 {
                    self.gone.remove(0);
                }
                let q = format!("DELETE FROM orders WHERE id = {id}");
                Self::op("chat2db", q, Class::Write, Expect::Affected(1))
            }
            _ => unreachable!("not a sql_analytics kind: {kind:?}"),
        }
    }

    fn kb_op(&mut self, kind: Kind) -> Op {
        match kind {
            Kind::Question => self.question(),
            Kind::Topic => {
                let plan = self.plan;
                let (q, docs) = self.pick(&plan.topics).clone();
                Self::op("kbqa", q, Class::Scan, Expect::AnySource(docs))
            }
            Kind::Ingest => {
                let inputs = &self.plan.inputs;
                let i = inputs.base_docs + self.ingested * CONNS + self.conn;
                let doc = inputs.docs.get(i).expect("ingest pool exhausted");
                self.ingested += 1;
                let mut op = Self::op(
                    "ingest",
                    doc.text.clone(),
                    Class::Write,
                    Expect::Ingested(1),
                );
                op.doc_id = Some(doc.id.clone());
                op
            }
            _ => unreachable!("not a kb_qa kind: {kind:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orders(n: i64) -> Orders {
        let cats = ["books", "tech"];
        let rows = (0..n)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 7),
                    Value::Float(10.0 + i as f64),
                    Value::Text(cats[i as usize % 2].into()),
                    Value::Text("jan".into()),
                ]
            })
            .collect();
        Orders::new(rows)
    }

    fn plan(workload: Workload, seed: u64) -> Plan {
        let mut inputs = Inputs {
            workload,
            seed,
            docs: synthetic_corpus(240, seed),
            base_docs: 40,
        };
        if workload == Workload::SqlAnalytics {
            inputs.docs.clear();
            inputs.base_docs = 0;
        }
        let orders = (workload == Workload::SqlAnalytics).then(|| orders(ORDERS as i64));
        Plan::new(inputs, orders)
    }

    fn first(plan: &Plan, conn: usize, n: usize) -> Vec<Op> {
        plan.stream(conn).take(n).collect()
    }

    #[test]
    fn same_seed_same_requests_other_seed_differs() {
        for w in [Workload::DemoMix, Workload::SqlAnalytics, Workload::KbQa] {
            let a = plan(w, 7);
            let b = plan(w, 7);
            let c = plan(w, 8);
            for conn in 0..CONNS {
                assert_eq!(first(&a, conn, 200), first(&b, conn, 200), "{w:?}");
                assert_ne!(first(&a, conn, 200), first(&c, conn, 200), "{w:?}");
            }
            assert_ne!(
                first(&a, 0, 200),
                first(&a, 1, 200),
                "{w:?} connections differ"
            );
        }
    }

    #[test]
    fn blocks_fix_the_class_shares() {
        let p = plan(Workload::SqlAnalytics, 3);
        let ops = first(&p, 0, 40 * 5);
        let count = |c: Class| ops.iter().filter(|o| o.class == c).count();
        assert_eq!(
            (count(Class::Read), count(Class::Scan), count(Class::Write)),
            (160, 20, 20)
        );
        // Scans rotate through the five scan questions.
        let scans: BTreeSet<&str> = ops
            .iter()
            .filter(|o| o.class == Class::Scan)
            .map(|o| o.input.split(" than ").next().unwrap())
            .collect();
        assert_eq!(scans.len(), 5);
        let p = plan(Workload::KbQa, 3);
        let ops = first(&p, 1, 20 * 5);
        let count = |c: Class| ops.iter().filter(|o| o.class == c).count();
        assert_eq!(
            (count(Class::Read), count(Class::Scan), count(Class::Write)),
            (80, 10, 10)
        );
        let p = plan(Workload::DemoMix, 3);
        let ops = first(&p, 0, TURNS * 2);
        assert_eq!(ops[TURNS].turn, Some(0));
        assert_eq!(ops[TURNS - 1].turn, Some(TURNS - 1));
    }

    #[test]
    fn owned_rows_track_writes() {
        let p = plan(Workload::SqlAnalytics, 5);
        let mut live: BTreeMap<i64, i64> = (0..OWN_ROWS)
            .map(|k| (own_row_id(1, k), k as i64))
            .collect();
        for op in p.stream(1).take(4000) {
            let words: Vec<&str> = op.input.split_whitespace().collect();
            let id = |w: &str| {
                w.trim_matches(|c: char| !c.is_ascii_digit())
                    .parse::<i64>()
                    .ok()
            };
            match words[0] {
                "INSERT" => {
                    let vals: Vec<i64> = op.input[op.input.find('(').unwrap() + 1..]
                        .split(',')
                        .take(2)
                        .map(|v| v.trim().parse().unwrap())
                        .collect();
                    assert!(live.insert(vals[0], vals[1]).is_none());
                    assert!(vals[0] >= own_row_id(1, 0) && vals[0] < own_row_id(2, 0));
                }
                "UPDATE" => {
                    let row = id(words[words.len() - 1]).unwrap();
                    *live.get_mut(&row).expect("updates a live row") = id(words[5]).unwrap();
                }
                "DELETE" => {
                    assert!(live.remove(&id(words[words.len() - 1]).unwrap()).is_some());
                }
                "Show" if words[1] == "the" && words[2] == "user_id" => {
                    let row = id(words[words.len() - 1]).unwrap();
                    let want = live
                        .get(&row)
                        .map(|u| vec![crate::oracle::row(&[("user_id", &u.to_string())])]);
                    assert_eq!(op.expect, Expect::Data(want.unwrap_or_default()));
                }
                _ => {}
            }
            assert!(live.len() >= OWN_ROWS - 3 && live.len() <= OWN_ROWS + 1);
        }
    }

    #[test]
    fn forecast_oracle_matches_hand_values() {
        let h = [1830.0, 2419.0, 343.5];
        let trend = predict(&h, "trend", 2);
        assert!(
            (trend[0] - 44.333333333333).abs() < 1e-9 && (trend[1] + 698.916666666667).abs() < 1e-9
        );
        let avg = predict(&h, "average", 2);
        assert!(
            (avg[0] - 1530.833333333333).abs() < 1e-9 && (avg[1] - 1431.111111111111).abs() < 1e-9
        );
        assert_eq!(predict(&h, "naive", 3), vec![343.5; 3]);
    }

    #[test]
    fn scan_answers_cover_owned_groups() {
        let o = orders(10);
        let (q, Expect::Data(rows)) = &o.grouped[0] else {
            panic!()
        };
        assert_eq!(q, "What is the total amount per category of orders?");
        // books: ids 0,2,4,6,8 → 10+12+14+16+18 = 70; tech: 11+13+15+17+19 = 75.
        assert_eq!(
            rows,
            &vec![
                row(&[("category", "books"), ("sum", "70.0")]),
                row(&[("category", "misc"), ("sum", "0.0")]),
                row(&[("category", "tech"), ("sum", "75.0")]),
            ]
        );
    }
}
