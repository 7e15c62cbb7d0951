//! Cross-crate integration: requests travelling the full four-layer stack —
//! binary frames through the server layer, sessions, SMMF-backed agents,
//! and every application.

use dbgpt::apps::{handlers::build_server, AppContext};
use dbgpt::server::{decode_frame, encode_frame, Request, Response, Status};
use dbgpt::smmf::{DeploymentMode, RoutingPolicy};
use dbgpt::obs::Span;
use dbgpt::DbGpt;

fn system() -> DbGpt {
    DbGpt::builder().with_sales_demo().build().expect("system builds")
}

#[test]
fn frame_in_frame_out_through_every_app() {
    let ctx = AppContext::local_default().with_sales_demo_data();
    let server = build_server(&ctx);
    let turns = [
        ("chat2db", "SELECT COUNT(*) FROM orders"),
        ("chat2data", "how many users are there?"),
        ("chat2viz", "bar chart of the total amount per month of orders"),
        ("kbqa", "anything indexed?"),
        (
            "analysis",
            "Build sales reports and analyze user orders from at least three distinct dimensions",
        ),
    ];
    for (i, (app, input)) in turns.iter().enumerate() {
        let frame = encode_frame(&Request::new(i as u64, *app, *input));
        let out = server.handle_frame(&frame);
        let (resp, consumed): (Response, usize) = decode_frame(&out).expect("response frame");
        assert_eq!(consumed, out.len());
        assert_eq!(resp.id, i as u64, "{app}");
        assert_eq!(resp.status, Status::Ok, "{app}: {:?}", resp.content);
    }
}

#[test]
fn multi_turn_session_keeps_history() {
    let ctx = AppContext::local_default().with_sales_demo_data();
    let server = build_server(&ctx);
    let sid = server.open_session("chat2data");
    for (i, q) in ["how many orders are there?", "how many users are there?"]
        .iter()
        .enumerate()
    {
        let mut req = Request::new(i as u64, "chat2data", *q);
        req.session = sid.clone();
        let resp = server.handle(&req, &Span::noop());
        assert_eq!(resp.status, Status::Ok);
    }
    let session = server.sessions().get(&sid).unwrap();
    assert_eq!(session.history.len(), 4);
    assert_eq!(session.user_turns(), 2);
}

#[test]
fn smmf_replicas_back_the_agents() {
    // 4 replicas, least-latency routing; the demo goal must still work and
    // spread load across workers.
    let mut db = DbGpt::builder()
        .replicas(4)
        .routing(RoutingPolicy::LeastLatency)
        .with_sales_demo()
        .build()
        .unwrap();
    let out = db
        .chat("Build sales reports and analyze user orders from at least three distinct dimensions")
        .unwrap();
    assert_eq!(out.payload["charts"].as_array().unwrap().len(), 3);
    let snapshot = db.smmf().controller().snapshot();
    assert_eq!(snapshot.len(), 4);
    // The planner and aggregator call the model; chart agents are
    // SQL-only. So at least 2 requests hit the SMMF deployment.
    let served: u64 = snapshot.iter().map(|(_, _, _, served, _)| served).sum();
    assert!(served >= 2, "planner + aggregator calls expected, got {served}");
}

#[test]
fn cloud_mode_serves_the_proxy_model() {
    let mut db = DbGpt::builder()
        .chat_model("proxy-gpt")
        .deployment_mode(DeploymentMode::Cloud)
        .with_sales_demo()
        .build()
        .unwrap();
    let out = db.chat("how many orders are there?").unwrap();
    assert!(out.text.contains('8'));
}

#[test]
fn durable_archive_survives_rebuild() {
    let path = std::env::temp_dir().join(format!("dbgpt-it-archive-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let mut db = DbGpt::builder()
            .with_sales_demo()
            .archive_path(&path)
            .build()
            .unwrap();
        db.chat("Build sales reports and analyze user orders from at least three distinct dimensions")
            .unwrap();
    }
    // A new system over the same archive sees the previous conversation.
    let db = DbGpt::builder()
        .with_sales_demo()
        .archive_path(&path)
        .build()
        .unwrap();
    let archive = db.analyzer().orchestrator().archive();
    assert!(archive.len() >= 9, "archive reloaded {} messages", archive.len());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mixed_language_conversation() {
    let mut db = system();
    let en = db.chat("how many orders are there?").unwrap();
    assert!(en.text.contains("The answer is 8."));
    let zh = db.chat("构建销售报表，从三个维度分析用户订单").unwrap();
    assert_eq!(zh.payload["charts"].as_array().unwrap().len(), 3);
}

#[test]
fn sheet_then_chart_round_trip() {
    let mut db = system();
    db.load_sheet("metrics", "service,errors\napi,12\nweb,3\nworker,7\n")
        .unwrap();
    let out = db
        .chat("draw a pie chart of the total errors per service of metrics")
        .unwrap();
    let svg = out.payload["svg"].as_str().unwrap();
    assert_eq!(svg.matches("<path").count(), 3);
}

#[test]
fn errors_propagate_cleanly_across_layers() {
    let ctx = AppContext::local_default(); // empty database
    let server = build_server(&ctx);
    let resp = server.handle(&Request::new(1, "chat2data", "how many rows?"), &Span::noop());
    assert_eq!(resp.status, Status::Error);
    let resp = server.handle(&Request::new(2, "nosuchapp", "x"), &Span::noop());
    assert_eq!(resp.status, Status::BadRequest);
}

#[test]
fn full_system_over_a_real_tcp_socket() {
    use dbgpt::server::tcp::{send_request, TcpServer};
    use std::net::TcpStream;
    use std::sync::Arc;

    let ctx = AppContext::local_default().with_sales_demo_data();
    let server = Arc::new(build_server(&ctx));
    let tcp = TcpServer::bind("127.0.0.1:0", server).expect("binds");
    let mut stream = TcpStream::connect(tcp.local_addr()).unwrap();

    let resp = send_request(
        &mut stream,
        &Request::new(1, "chat2data", "how many orders are there?"),
    )
    .unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.content["answer"], "The answer is 8.");

    // A heavier multi-agent request over the same connection.
    let resp = send_request(
        &mut stream,
        &Request::new(
            2,
            "analysis",
            "Build sales reports and analyze user orders from at least three distinct dimensions",
        ),
    )
    .unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.content["charts"].as_array().unwrap().len(), 3);
    tcp.shutdown();
}
