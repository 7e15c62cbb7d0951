//! End-to-end request benchmark: DB-GPT's apps behind `server::tcp` on
//! loopback, driven by a closed loop of two keep-alive connections.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <demo_mix|sql_analytics|kb_qa> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of the untraced TCP run;
//! `--trace 1` runs a TCP pass, an in-process pass and the traced pass
//! (see `trace.rs`) over the same requests and prints the per-layer
//! metrics. The last line of standard output is one JSON object. See
//! `README.md` for the workloads and metrics.

mod drive;
mod gen;
mod oracle;
mod stats;
mod system;
mod trace;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dbgpt_server::TcpServer;

use crate::drive::{Clock, InProcess, Pass, Tcp};
use crate::gen::{Class, Inputs, Orders, Plan, Workload, CONNS};
use crate::stats::{median, percentile, Tally};
use crate::system::System;

const USAGE: &str = "usage: dbgpt-perfbench --workload <demo_mix|sql_analytics|kb_qa> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Set-ups per run: at least `MIN_SETUPS`, more while they have taken
/// less than `SETUP_BUDGET` in all, at most `MAX_SETUPS`; `setup_s` is
/// their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 20;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// The per-layer metrics `--trace 1` reports, with their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("server.net_us", "us"),
    ("server.codec_us", "us"),
    ("server.route_us", "us"),
    ("server.session_turns", "turns"),
    ("apps.self_us.chat2data", "us"),
    ("apps.self_us.chat2db", "us"),
    ("apps.self_us.chat2viz", "us"),
    ("apps.self_us.kbqa", "us"),
    ("apps.self_us.analysis", "us"),
    ("apps.self_us.forecast", "us"),
    ("apps.self_us.pipeline", "us"),
    ("apps.reply_bytes", "bytes"),
    ("awel.schedule_us", "us"),
    ("t2s.generate_us", "us"),
    ("t2s.explain_us", "us"),
    ("t2s.exec_match", "ratio"),
    ("sql.lookup_us", "us"),
    ("sql.scan_us", "us"),
    ("sql.write_us", "us"),
    ("sql.lock_wait_us", "us"),
    ("sql.rows_returned", "rows"),
    ("rag.retrieve_us", "us"),
    ("rag.vector_us", "us"),
    ("rag.keyword_us", "us"),
    ("rag.graph_us", "us"),
    ("rag.fuse_us", "us"),
    ("rag.icl_us", "us"),
    ("rag.ingest_us", "us"),
    ("rag.lock_wait_us", "us"),
    ("rag.hit_at_k", "ratio"),
    ("llm.complete_us", "us"),
    ("llm.prompt_tokens", "tokens"),
    ("llm.completion_tokens", "tokens"),
    ("agents.analyze_us", "us"),
    ("vis.render_us", "us"),
    ("unattributed", "us"),
    ("trace_overhead", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0);
                seconds = Some(s.ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: u64,
}

/// Build the system several times; keep the last. Returns the set-up
/// times in seconds.
fn set_up(inputs: &Inputs) -> (System, Vec<f64>) {
    let mut system = None;
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < MIN_SETUPS || (times.len() < MAX_SETUPS && start.elapsed() < SETUP_BUDGET) {
        drop(system.take());
        let t = Instant::now();
        system = Some(System::build(inputs));
        times.push(t.elapsed().as_secs_f64());
    }
    (system.expect("at least one set-up"), times)
}

fn plan(inputs: Inputs, system: &System) -> Plan {
    let orders =
        (inputs.workload == Workload::SqlAnalytics).then(|| Orders::new(system.seeded_orders()));
    Plan::new(inputs, orders)
}

/// A TCP pass over a fresh loopback server.
fn tcp_pass(plan: &Plan, system: &System, clock: Clock) -> std::io::Result<Pass> {
    let tcp = TcpServer::bind("127.0.0.1:0", system.server.clone())?;
    let addr = tcp.local_addr();
    let pass = drive::run(plan, &system.server, || Tcp::new(addr), clock);
    tcp.shutdown();
    Ok(pass)
}

/// Untimed requests before each timed phase: long enough to leave the
/// state every later request sees (filled caches, the first writes).
fn warmup(args: &Args) -> Duration {
    Duration::from_secs_f64((args.seconds / 5.0).max(1.0))
}

fn ms(us: f64) -> f64 {
    us / 1000.0
}

/// Sorted latencies of the timed requests (of one class).
fn latencies(pass: &Pass, class: Option<Class>) -> Vec<f64> {
    let mut v: Vec<f64> = pass
        .samples
        .iter()
        .filter(|s| s.timed && class.is_none_or(|c| s.class == c))
        .map(|s| s.us)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `f(a, b)` over the requests timed in `a` that `b` also sent
/// (in its warm-up or timed phase), and how many there were; (0, 0) when
/// none.
fn paired(a: &Pass, b: &Pass, class: Option<Class>, f: impl Fn(f64, f64) -> f64) -> (f64, u64) {
    let b: HashMap<(usize, usize), f64> = b.samples.iter().map(|s| (s.key, s.us)).collect();
    let values: Vec<f64> = a
        .samples
        .iter()
        .filter(|s| s.timed && class.is_none_or(|c| s.class == c))
        .filter_map(|s| b.get(&s.key).map(|&other| f(s.us, other)))
        .collect();
    (median(&values).unwrap_or(0.0), values.len() as u64)
}

fn p(sorted: &[f64], q: f64, what: &str) -> Result<f64, String> {
    percentile(sorted, q).ok_or_else(|| format!("no samples for {what}"))
}

fn print_tally(phase: &str, t: &Tally) {
    println!(
        "phase {phase}: sent {} succeeded {} failed {} (error replies {}, refused {}, wrong {}) retrieval misses {} error_rate {:.4}",
        t.sent,
        t.ok,
        t.failed(),
        t.errors,
        t.refused,
        t.wrong,
        t.missed,
        t.error_rate()
    );
}

fn print_classes(pass: &Pass) {
    let total = pass.samples.iter().filter(|s| s.timed).count().max(1) as f64;
    for c in Class::ALL {
        let v = latencies(pass, Some(c));
        println!(
            "class {}: {} requests ({:.1}% of timed) p50 {:.4} ms",
            c.name(),
            v.len(),
            100.0 * v.len() as f64 / total,
            percentile(&v, 0.5).map_or(f64::NAN, ms),
        );
    }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn end_to_end(args: &Args, inputs: Inputs) -> Result<(Vec<Metric>, Tally, bool), String> {
    let (system, setups) = set_up(&inputs);
    println!("setup: {} set-ups {setups:.4?} s", setups.len());
    let plan = plan(inputs, &system);
    let clock = Clock::start(warmup(args), Duration::from_secs_f64(args.seconds));
    let pass = tcp_pass(&plan, &system, clock).map_err(|e| e.to_string())?;
    print_tally("warmup", &pass.warmup);
    print_tally("timed", &pass.timed);
    print_classes(&pass);
    let all = latencies(&pass, None);
    let n = all.len() as u64;
    let class_p50 = |c: Class| -> Result<(f64, u64), String> {
        let v = latencies(&pass, Some(c));
        Ok((ms(p(&v, 0.5, c.name())?), v.len() as u64))
    };
    let (read, n_read) = class_p50(Class::Read)?;
    let (scan, n_scan) = class_p50(Class::Scan)?;
    let (write, n_write) = class_p50(Class::Write)?;
    let t = pass.timed;
    let metric = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    let metrics = vec![
        metric("throughput_rps", t.ok as f64 / pass.seconds, "1/s", t.ok),
        metric("latency_p50_ms", ms(p(&all, 0.5, "all")?), "ms", n),
        metric("latency_p99_ms", ms(p(&all, 0.99, "all")?), "ms", n),
        metric("read_p50_ms", read, "ms", n_read),
        metric("scan_p50_ms", scan, "ms", n_scan),
        metric("write_p50_ms", write, "ms", n_write),
        metric("correct_rate", 1.0 - t.error_rate(), "ratio", t.sent),
        metric(
            "setup_s",
            median(&setups).expect("set-up times"),
            "s",
            setups.len() as u64,
        ),
        metric("peak_rss_mb", peak_rss_mb()?, "MB", 1),
    ];
    if n < 1000 {
        println!("note: {n} timed requests; latency_p99_ms has fewer than 10 samples above it");
    }
    // Gated as correct_rate: a gated metric must not read 0, and this one
    // does on the workloads without retrieval.
    println!(
        "metric error_rate = {} ratio ({} samples)",
        t.error_rate(),
        t.sent
    );
    let correct = pass.warmup.failed() == 0 && t.failed() == 0;
    Ok((metrics, t, correct))
}

fn per_layer(args: &Args, inputs: Inputs) -> Result<(Vec<Metric>, Tally, bool), String> {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let warmup = warmup(args);

    // Each pass starts from a fresh set-up, so all three see the same
    // requests on the same state.
    let system = System::build(&inputs);
    let plan = plan(inputs, &system);
    let tcp = tcp_pass(&plan, &system, Clock::start(warmup, half)).map_err(|e| e.to_string())?;
    drop(system);

    let system = System::build(&plan.inputs);
    let untraced = drive::run(
        &plan,
        &system.server,
        || InProcess(&system.server),
        Clock::start(warmup, half),
    );
    drop(system);

    let system = System::build(&plan.inputs);
    let server = trace::traced_server(&system.ctx);
    let traced = drive::run(
        &plan,
        &server,
        || trace::Tracer::new(&system.ctx, &server),
        Clock::start(warmup, half),
    );

    let mut total = Tally::default();
    let mut correct = true;
    for (name, pass) in [
        ("tcp", &tcp),
        ("in-process", &untraced),
        ("traced", &traced),
    ] {
        print_tally(&format!("{name} warmup"), &pass.warmup);
        print_tally(&format!("{name} timed"), &pass.timed);
        total.merge(&pass.timed);
        correct &= pass.warmup.failed() == 0 && pass.timed.failed() == 0;
    }
    print_classes(&traced);

    // The passes replay the same requests: compare each request with itself.
    let net = paired(&tcp, &untraced, Some(Class::Read), |a, b| a - b);
    let overhead = paired(&traced, &untraced, None, |a, b| a / b);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = match name {
                "server.net_us" => net,
                "trace_overhead" => overhead,
                _ => traced.layers.mean(name),
            };
            Metric {
                name,
                value,
                unit,
                samples,
            }
        })
        .collect();
    Ok((metrics, total, correct))
}

fn json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.sent,
        tally.failed(),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {}: {CONNS} keep-alive connections over loopback TCP, closed loop \
         (one client thread each), {} s timed, trace {}; available parallelism {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let inputs = Inputs::generate(args.workload, args.seed);
    let result = if args.trace {
        per_layer(&args, inputs)
    } else {
        end_to_end(&args, inputs)
    };
    let (metrics, tally, correct) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("error: {} is not a number", m.name);
        return ExitCode::FAILURE;
    }
    for m in &metrics {
        println!(
            "metric {} = {} {} ({} samples)",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", json(correct, &tally, &metrics));
    ExitCode::SUCCESS
}
