//! Property-based tests over cross-crate invariants.

use proptest::prelude::*;

use dbgpt::llm::Tokenizer;
use dbgpt::obs::Span;
use dbgpt::rag::{cosine_similarity, Embedder, HashEmbedder, PrivacyPolicy};
use dbgpt::server::{decode_frame, encode_frame, Request};
use dbgpt::sqlengine::{Engine, Value};

proptest! {
    /// The tokenizer's stream chunks always reassemble the input exactly.
    #[test]
    fn tokenizer_stream_roundtrip(text in ".{0,200}") {
        let tk = Tokenizer::new();
        let rebuilt: String = tk.stream_chunks(&text).concat();
        prop_assert_eq!(rebuilt, text);
    }

    /// Truncation never exceeds the budget and is a prefix of the input.
    #[test]
    fn tokenizer_truncate_budget(text in "[ -~]{0,200}", budget in 0usize..50) {
        let tk = Tokenizer::new();
        let (prefix, kept) = tk.truncate(&text, budget);
        prop_assert!(kept <= budget);
        prop_assert!(text.starts_with(&prefix));
        prop_assert_eq!(tk.count(&prefix), kept);
    }

    /// The SQL lexer never panics and either lexes or errors.
    #[test]
    fn lexer_total(text in ".{0,100}") {
        let _ = dbgpt::sqlengine::lexer::lex(&text);
    }

    /// The SQL parser never panics on arbitrary input.
    #[test]
    fn parser_total(text in ".{0,100}") {
        let _ = dbgpt::sqlengine::parser::parse(&text);
    }

    /// Inserted integers come back exactly through a filtered select.
    #[test]
    fn sql_insert_select_roundtrip(values in proptest::collection::vec(-1000i64..1000, 1..20)) {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (i INT, v INT)").unwrap();
        for (i, v) in values.iter().enumerate() {
            e.execute(&format!("INSERT INTO t VALUES ({i}, {v})")).unwrap();
        }
        let r = e.execute("SELECT v FROM t ORDER BY i").unwrap();
        let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        prop_assert_eq!(got, values);
    }

    /// SUM over the engine equals summation in Rust.
    #[test]
    fn sql_sum_agrees_with_rust(values in proptest::collection::vec(-100i64..100, 0..30)) {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (v INT)").unwrap();
        for v in &values {
            e.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let r = e.execute("SELECT SUM(v), COUNT(*) FROM t").unwrap();
        let expected: i64 = values.iter().sum();
        if values.is_empty() {
            prop_assert!(r.rows[0][0].is_null());
        } else {
            prop_assert_eq!(r.rows[0][0].as_i64(), Some(expected));
        }
        prop_assert_eq!(r.rows[0][1].as_i64(), Some(values.len() as i64));
    }

    /// total_cmp is a total order (antisymmetric + transitive on triples).
    #[test]
    fn value_total_order(a in any::<i64>(), b in any::<i64>(), c in any::<f64>()) {
        let va = Value::Int(a);
        let vb = Value::Int(b);
        let vc = if c.is_nan() { Value::Null } else { Value::Float(c) };
        let vals = [&va, &vb, &vc];
        for x in vals {
            prop_assert_eq!(x.total_cmp(x), std::cmp::Ordering::Equal);
            for y in vals {
                prop_assert_eq!(x.total_cmp(y), y.total_cmp(x).reverse());
            }
        }
    }

    /// Embeddings are always unit-norm (or zero) and self-similarity is 1.
    #[test]
    fn embedding_norm_invariant(text in "[a-z ]{1,80}") {
        let e = HashEmbedder::new();
        let v = e.embed(&text);
        let n = v.norm();
        prop_assert!(n == 0.0 || (n - 1.0).abs() < 1e-4);
        if n > 0.0 {
            prop_assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-4);
        }
    }

    /// Privacy redaction is idempotent.
    #[test]
    fn redaction_idempotent(text in ".{0,120}") {
        let p = PrivacyPolicy::strict();
        let once = p.redact(&text);
        let twice = p.redact(&once);
        prop_assert_eq!(once, twice);
    }

    /// Server frames roundtrip for arbitrary request content.
    #[test]
    fn frame_roundtrip(id in any::<u64>(), app in "[a-z]{1,12}", input in ".{0,100}") {
        let req = Request::new(id, app, input);
        let frame = encode_frame(&req);
        let (back, used): (Request, usize) = decode_frame(&frame).unwrap();
        prop_assert_eq!(back, req);
        prop_assert_eq!(used, frame.len());
    }

    /// LIKE matching agrees with a simple reference implementation for
    /// patterns without wildcards (equality) and pure-% patterns.
    #[test]
    fn like_degenerate_cases(s in "[a-z]{0,10}") {
        use dbgpt::sqlengine::expr::like_match;
        prop_assert!(like_match(&s, &s));
        prop_assert!(like_match(&s, "%"));
        let with_suffix = format!("{s}x");
        prop_assert!(!like_match(&with_suffix, &s));
    }

    /// CSV export/import is lossless for integer tables.
    #[test]
    fn csv_roundtrip(values in proptest::collection::vec(0i64..1000, 1..15)) {
        use dbgpt::sqlengine::csv::{export_csv, load_csv};
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (v INT)").unwrap();
        for v in &values {
            e.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let text = export_csv(e.database(), "t").unwrap();
        let mut e2 = Engine::new();
        load_csv(e2.database_mut(), "t2", &text).unwrap();
        let a = e.execute("SELECT v FROM t").unwrap();
        let b = e2.execute("SELECT v FROM t2").unwrap();
        prop_assert_eq!(a.rows, b.rows);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any non-empty prompt gets a completion from every builtin model.
    #[test]
    fn models_are_total_on_reasonable_prompts(words in proptest::collection::vec("[a-z]{1,8}", 1..12)) {
        use dbgpt::llm::{catalog, GenerationParams};
        let prompt = words.join(" ");
        for name in catalog::BUILTIN_MODELS {
            let m = catalog::builtin_model(name).unwrap();
            let out = m.generate(&prompt, &GenerationParams::default()).unwrap();
            prop_assert!(!out.text.is_empty(), "{name} returned empty");
            prop_assert!(out.usage.prompt_tokens > 0);
        }
    }

    /// AWEL: random fan-out widths execute identically in batch and async.
    #[test]
    fn awel_modes_agree(width in 1usize..12, trigger in -100i64..100) {
        use dbgpt::awel::{ops, DagBuilder, ExecutionMode, Scheduler};
        use serde_json::json;
        let mut b = DagBuilder::new("p")
            .node("src", ops::identity())
            .node("sink", ops::map_all(|vs| json!(vs.iter().map(|v| v.as_i64().unwrap()).sum::<i64>())));
        for i in 0..width {
            let n = format!("n{i}");
            b = b
                .node(n.clone(), ops::map(move |v| json!(v.as_i64().unwrap() + i as i64)))
                .edge("src", n.clone())
                .edge(n, "sink");
        }
        let dag = b.build().unwrap();
        let s = Scheduler::new();
        let batch = s.run(&dag, json!(trigger), ExecutionMode::Batch, &Span::noop()).unwrap();
        let parallel = s.run(&dag, json!(trigger), ExecutionMode::Async, &Span::noop()).unwrap();
        prop_assert_eq!(&batch.outputs, &parallel.outputs);
        let expected: i64 = (0..width as i64).map(|i| trigger + i).sum();
        prop_assert_eq!(&batch.outputs["sink"], &json!(expected));
    }
}
