//! Regression test (ISSUE 8 satellite): ANN index state is derived data.
//!
//! A replica that built an HNSW index over its knowledge-base shard and a
//! replica that never did must report the same state fingerprint after
//! applying the same op log — otherwise the cluster layer's convergence
//! checks (and failover repair) would flag healthy replicas as divergent
//! just because index build timing differed across nodes.

use dbgpt_cluster::state::{StateOp, TenantState};
use dbgpt_obs::Span;

fn op(seq: u64, tenant: &str) -> StateOp {
    StateOp {
        seq,
        tenant: tenant.to_string(),
        prompt: format!("how is shard {seq} of {tenant} doing?"),
        latency_us: 52_000 + seq * 7,
    }
}

/// Replay the same 80-op log (→ 10 KB documents) on three replicas: one
/// never indexes, one indexes mid-stream, one indexes at the end.
#[test]
fn replicas_converge_despite_divergent_ann_index_state() {
    let tenant = "tenant-007";
    let mut never = TenantState::new(tenant);
    let mut mid = TenantState::new(tenant);
    let mut late = TenantState::new(tenant);
    for seq in 0..80 {
        let o = op(seq, tenant);
        never.apply(&o, &Span::noop());
        mid.apply(&o, &Span::noop());
        late.apply(&o, &Span::noop());
        if seq == 40 {
            mid.build_ann_index();
        }
    }
    late.build_ann_index();

    assert!(mid.has_hnsw_index());
    assert!(late.has_hnsw_index());
    assert!(!never.has_hnsw_index());

    let f = never.fingerprint();
    assert_eq!(f, mid.fingerprint(), "mid-stream index build must not diverge");
    assert_eq!(f, late.fingerprint(), "post-hoc index build must not diverge");

    // Ingest continuing *after* the builds (incremental HNSW insert on
    // one replica, plain append on the other) still converges.
    for seq in 80..96 {
        let o = op(seq, tenant);
        never.apply(&o, &Span::noop());
        mid.apply(&o, &Span::noop());
    }
    assert_eq!(never.fingerprint(), mid.fingerprint());
    assert!(mid.has_hnsw_index(), "incremental ingest keeps the index");
}

/// The fingerprint still detects real divergence (different ops), so the
/// index-blindness above is not because the digest went inert.
#[test]
fn fingerprint_still_detects_real_divergence() {
    let mut a = TenantState::new("tenant-001");
    let mut b = TenantState::new("tenant-001");
    for seq in 0..16 {
        a.apply(&op(seq, "tenant-001"), &Span::noop());
        b.apply(&op(seq, "tenant-001"), &Span::noop());
    }
    a.build_ann_index();
    assert_eq!(a.fingerprint(), b.fingerprint());
    b.apply(&op(16, "tenant-001"), &Span::noop());
    assert_ne!(a.fingerprint(), b.fingerprint(), "an extra op must diverge");
}
