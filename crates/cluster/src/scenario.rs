//! Chaos-gated cluster scenarios: traffic × topology × fault schedule,
//! with SLO burn-rate alerting and optional flamegraph profiling.
//!
//! [`run_cluster_scenario`] replays an open-loop multi-tenant arrival
//! schedule against a [`Cluster`] while a [`NodeSchedule`] injects node
//! crashes, partitions, and slowdowns on the simulated clock. Periodic
//! metric snapshots feed an [`SloEngine`] with the classic multi-window
//! burn rules, so the run's alert history is part of the (byte-
//! reproducible) report.
//!
//! [`run_single_server_baseline`] drives the same arrivals through one
//! bare SMMF deployment — the pre-cluster code path. A healthy 1-node,
//! replication-disabled, unmetered cluster must match it outcome-for-
//! outcome; `tests/identity.rs` pins that.

use dbgpt_llm::GenerationParams;
use dbgpt_obs::{BurnRule, Obs, ObsConfig, Profile, SloDef, SloEngine, Span};
use dbgpt_smmf::chaos::PRIMARY_MODEL;
use dbgpt_smmf::NodeSchedule;

use crate::admission::AdmissionConfig;
use crate::cluster::{node_server, Cluster, ClusterConfig, Outcome, RequestOutcome};
use crate::traffic::{generate, TrafficConfig};

/// One experiment: who sends traffic, what cluster serves it, what
/// breaks, and how it is judged.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterScenario {
    /// Scenario name (report key).
    pub name: String,
    /// Traffic shape.
    pub traffic: TrafficConfig,
    /// Cluster topology and policy.
    pub cluster: ClusterConfig,
    /// Node fault schedule on the simulated clock.
    pub schedule: NodeSchedule,
    /// Push a metrics snapshot to the SLO engine every this many
    /// simulated µs (0 disables SLO evaluation).
    pub snapshot_every_us: u64,
    /// Latency objective for the p99 SLO (µs).
    pub slo_us: u64,
    /// Record flamegraph spans for the first N requests (0 = off).
    pub profile_requests: usize,
}

impl ClusterScenario {
    /// A healthy replicated baseline scenario.
    pub fn steady(requests: usize, tenants: usize, seed: u64) -> Self {
        ClusterScenario {
            name: "steady".into(),
            traffic: TrafficConfig::standard(requests, tenants, seed),
            cluster: ClusterConfig::replicated(4, 2, seed),
            schedule: NodeSchedule::healthy(),
            snapshot_every_us: 1_000_000,
            slo_us: 200_000,
            profile_requests: 0,
        }
    }
}

/// Everything a run produces: the aggregate report, per-request
/// outcomes (for identity and per-tenant analysis), and the folded
/// flamegraph text (empty when profiling was off).
pub struct RunResult {
    /// Aggregates + gate inputs, serializable byte-reproducibly.
    pub report: ClusterReport,
    /// Per-request fates in arrival order.
    pub outcomes: Vec<RequestOutcome>,
    /// `stack;path self_us` folded lines from the profiled prefix.
    pub folded: String,
}

/// Aggregate results of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Scenario name.
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Node count.
    pub nodes: usize,
    /// Replication factor.
    pub replication: usize,
    /// Failover enabled?
    pub failover: bool,
    /// Admission mode: `off`, `queueing-only`, or `metered`.
    pub admission: &'static str,
    /// Arrivals offered.
    pub requests: u64,
    /// Acknowledged.
    pub ok: u64,
    /// Failed (no primary / quorum lost / serve error).
    pub failed: u64,
    /// Shed by admission (policy, not failure).
    pub throttled: u64,
    /// `ok / (ok + failed)` — throttled requests are policy rejections
    /// and excluded from the availability denominator.
    pub availability: f64,
    /// Acked requests within `slo_us`.
    pub within_slo: u64,
    /// Latency stats over acked requests (µs).
    pub latency_mean_us: u64,
    /// p50.
    pub latency_p50_us: u64,
    /// p99.
    pub latency_p99_us: u64,
    /// Max.
    pub latency_max_us: u64,
    /// Tenant rank with the most arrivals.
    pub hot_tenant: usize,
    /// p99 of the hot tenant's acked requests.
    pub hot_p99_us: u64,
    /// p99 across all other tenants' acked requests.
    pub well_p99_us: u64,
    /// Primary changes.
    pub failovers: u64,
    /// Ops replayed by lagging replicas.
    pub catchup_ops: u64,
    /// Total acked ops.
    pub acked_ops: u64,
    /// Tenants with ≥1 acked op.
    pub tenants: u64,
    /// Tenants whose full log survived on a serving replica un-replayed.
    pub durable_tenants: u64,
    /// Replica fingerprint disagreements after catch-up.
    pub divergent_replicas: u64,
    /// XOR-fold of per-tenant converged fingerprints.
    pub state_fingerprint: u64,
    /// SLO alert fire transitions.
    pub alerts_fired: u64,
    /// SLO alert resolve transitions.
    pub alerts_resolved: u64,
    /// Rate-limit sheds.
    pub shed_rate_limited: u64,
    /// Queue-bound sheds.
    pub shed_queue_full: u64,
    /// Distinct folded flamegraph stacks (0 when profiling off).
    pub folded_stacks: u64,
    /// Hottest span by self time, `name:self_us` ("" when off).
    pub hotspot: String,
}

fn pct(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[(sorted.len() - 1) * p / 100]
    }
}

impl ClusterReport {
    /// Deterministic JSON (stable key order, fixed float formatting).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"name\":\"{}\",", self.name));
        s.push_str(&format!("\"seed\":{},", self.seed));
        s.push_str(&format!("\"nodes\":{},", self.nodes));
        s.push_str(&format!("\"replication\":{},", self.replication));
        s.push_str(&format!("\"failover\":{},", self.failover));
        s.push_str(&format!("\"admission\":\"{}\",", self.admission));
        s.push_str(&format!("\"requests\":{},", self.requests));
        s.push_str(&format!("\"ok\":{},", self.ok));
        s.push_str(&format!("\"failed\":{},", self.failed));
        s.push_str(&format!("\"throttled\":{},", self.throttled));
        s.push_str(&format!("\"availability\":{:.6},", self.availability));
        s.push_str(&format!("\"within_slo\":{},", self.within_slo));
        s.push_str(&format!("\"latency_mean_us\":{},", self.latency_mean_us));
        s.push_str(&format!("\"latency_p50_us\":{},", self.latency_p50_us));
        s.push_str(&format!("\"latency_p99_us\":{},", self.latency_p99_us));
        s.push_str(&format!("\"latency_max_us\":{},", self.latency_max_us));
        s.push_str(&format!("\"hot_tenant\":{},", self.hot_tenant));
        s.push_str(&format!("\"hot_p99_us\":{},", self.hot_p99_us));
        s.push_str(&format!("\"well_p99_us\":{},", self.well_p99_us));
        s.push_str(&format!("\"failovers\":{},", self.failovers));
        s.push_str(&format!("\"catchup_ops\":{},", self.catchup_ops));
        s.push_str(&format!("\"acked_ops\":{},", self.acked_ops));
        s.push_str(&format!("\"tenants\":{},", self.tenants));
        s.push_str(&format!("\"durable_tenants\":{},", self.durable_tenants));
        s.push_str(&format!(
            "\"divergent_replicas\":{},",
            self.divergent_replicas
        ));
        s.push_str(&format!(
            "\"state_fingerprint\":\"{:016x}\",",
            self.state_fingerprint
        ));
        s.push_str(&format!("\"alerts_fired\":{},", self.alerts_fired));
        s.push_str(&format!("\"alerts_resolved\":{},", self.alerts_resolved));
        s.push_str(&format!(
            "\"shed_rate_limited\":{},",
            self.shed_rate_limited
        ));
        s.push_str(&format!("\"shed_queue_full\":{},", self.shed_queue_full));
        s.push_str(&format!("\"folded_stacks\":{},", self.folded_stacks));
        s.push_str(&format!("\"hotspot\":\"{}\"", self.hotspot));
        s.push('}');
        s
    }
}

fn admission_label(a: &AdmissionConfig) -> &'static str {
    match (a.enabled, a.queueing) {
        (true, _) => "metered",
        (false, true) => "queueing-only",
        (false, false) => "off",
    }
}

/// Replay `scn` end to end. Deterministic in the scenario value.
pub fn run_cluster_scenario(scn: &ClusterScenario) -> RunResult {
    let arrivals = generate(&scn.traffic);
    let mut cluster = Cluster::new(scn.cluster.clone());

    let mut events = scn.schedule.events.clone();
    events.sort_by_key(|e| e.at_us);
    let mut next_event = 0usize;

    let mut slo = SloEngine::with_rules(
        vec![
            SloDef::latency("cluster-p99-latency", "cluster.latency_us", 0.99, scn.slo_us),
            SloDef::error_rate("cluster-availability", "cluster.failed", "cluster.requests", 0.001),
        ],
        BurnRule::classic(),
    );
    let mut next_snap_us = if scn.snapshot_every_us > 0 {
        scn.snapshot_every_us
    } else {
        u64::MAX
    };

    let obs = if scn.profile_requests > 0 {
        Obs::new(ObsConfig::enabled(scn.cluster.seed))
    } else {
        Obs::disabled()
    };

    let mut outcomes = Vec::with_capacity(arrivals.len());
    for a in &arrivals {
        while next_event < events.len() && events[next_event].at_us <= a.at_us {
            cluster.apply_node_fault(&events[next_event].fault);
            next_event += 1;
        }
        while next_snap_us <= a.at_us {
            slo.push_snapshot(next_snap_us, &cluster.metrics.snapshot());
            next_snap_us += scn.snapshot_every_us;
        }
        let root = if (a.seq as usize) < scn.profile_requests {
            let r = obs.span("cluster.request", a.at_us);
            r.attr("tenant", crate::traffic::tenant_key(a.tenant));
            Some(r)
        } else {
            None
        };
        let out = cluster.handle(a, root.as_ref());
        if let Some(root) = root {
            let end = match &out.outcome {
                Outcome::Ok { latency_us } => a.at_us + latency_us,
                _ => a.at_us,
            };
            root.attr("outcome", format!("{:?}", out.outcome));
            root.end(end);
        }
        outcomes.push(out);
    }
    let last_us = arrivals.last().map_or(0, |a| a.at_us);
    if scn.snapshot_every_us > 0 {
        slo.push_snapshot(last_us.max(next_snap_us), &cluster.metrics.snapshot());
    }

    let audit = cluster.verify_consistency();
    let (folded, folded_stacks, hotspot) = if scn.profile_requests > 0 {
        let profile = Profile::from_spans(&obs.finished_spans());
        let folded = profile.folded();
        let stacks = folded.lines().count() as u64;
        let hot = profile
            .hotspots()
            .first()
            .map(|h| format!("{}:{}", h.name, h.self_us))
            .unwrap_or_default();
        (folded, stacks, hot)
    } else {
        (String::new(), 0, String::new())
    };

    // Aggregate latencies, overall and per tenant class.
    let mut all = Vec::new();
    let mut per_tenant: std::collections::BTreeMap<usize, (u64, Vec<u64>)> =
        std::collections::BTreeMap::new();
    let (mut ok, mut failed, mut throttled, mut within) = (0u64, 0u64, 0u64, 0u64);
    for o in &outcomes {
        let slot = per_tenant.entry(o.tenant).or_default();
        slot.0 += 1;
        match &o.outcome {
            Outcome::Ok { latency_us } => {
                ok += 1;
                all.push(*latency_us);
                slot.1.push(*latency_us);
                if *latency_us <= scn.slo_us {
                    within += 1;
                }
            }
            Outcome::Throttled(_) => throttled += 1,
            Outcome::Unavailable(_) => failed += 1,
        }
    }
    let mut hot_tenant = 0usize;
    let mut hot_count = 0u64;
    for (t, (n, _)) in per_tenant.iter() {
        // Strictly-greater keeps the lowest rank on ties (BTreeMap order).
        if *n > hot_count {
            hot_count = *n;
            hot_tenant = *t;
        }
    }
    let mut hot: Vec<u64> = per_tenant.remove(&hot_tenant).map(|v| v.1).unwrap_or_default();
    let mut well: Vec<u64> = per_tenant.into_values().flat_map(|v| v.1).collect();
    hot.sort_unstable();
    well.sort_unstable();
    all.sort_unstable();

    let (shed_rate_limited, shed_queue_full) = cluster.admission_stats();
    let report = ClusterReport {
        name: scn.name.clone(),
        seed: scn.cluster.seed,
        nodes: scn.cluster.nodes,
        replication: scn.cluster.replication,
        failover: scn.cluster.failover,
        admission: admission_label(&scn.cluster.admission),
        requests: outcomes.len() as u64,
        ok,
        failed,
        throttled,
        availability: if ok + failed == 0 {
            1.0
        } else {
            ok as f64 / (ok + failed) as f64
        },
        within_slo: within,
        latency_mean_us: if all.is_empty() {
            0
        } else {
            all.iter().sum::<u64>() / all.len() as u64
        },
        latency_p50_us: pct(&all, 50),
        latency_p99_us: pct(&all, 99),
        latency_max_us: all.last().copied().unwrap_or(0),
        hot_tenant,
        hot_p99_us: pct(&hot, 99),
        well_p99_us: pct(&well, 99),
        failovers: cluster.failovers,
        catchup_ops: cluster.catchup_ops,
        acked_ops: cluster.acked_ops(),
        tenants: audit.tenants,
        durable_tenants: audit.durable,
        divergent_replicas: audit.divergent,
        state_fingerprint: audit.fingerprint,
        alerts_fired: slo.fired_count() as u64,
        alerts_resolved: slo.resolved_count() as u64,
        shed_rate_limited,
        shed_queue_full,
        folded_stacks,
        hotspot,
    };
    RunResult {
        report,
        outcomes,
        folded,
    }
}

/// Drive the same arrival schedule through one bare SMMF deployment —
/// the pre-cluster single-server code path, outcome-compatible with a
/// healthy `ClusterConfig::single_node` run.
pub fn run_single_server_baseline(traffic: &TrafficConfig, seed: u64) -> Vec<RequestOutcome> {
    let server = node_server(seed);
    let params = GenerationParams::default();
    let mut last_us = 0u64;
    let mut outcomes = Vec::with_capacity(traffic.requests);
    for a in &generate(traffic) {
        let delta = a.at_us.saturating_sub(last_us);
        if delta > 0 {
            server.advance_clock(delta);
            last_us = a.at_us;
        }
        let outcome = match server.chat(PRIMARY_MODEL, &a.prompt, &params, &Span::noop()) {
            Ok(c) => Outcome::Ok {
                latency_us: c.simulated_latency_us,
            },
            Err(_) => Outcome::Unavailable("serve-error"),
        };
        outcomes.push(RequestOutcome {
            seq: a.seq,
            at_us: a.at_us,
            tenant: a.tenant,
            node: Some(0),
            outcome,
        });
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_scenario_is_clean_and_deterministic() {
        let scn = ClusterScenario::steady(150, 6, 21);
        let a = run_cluster_scenario(&scn);
        let b = run_cluster_scenario(&scn);
        assert_eq!(a.report, b.report);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.report.to_json(), b.report.to_json());
        assert_eq!(a.report.ok, 150);
        assert_eq!(a.report.failed, 0);
        assert_eq!(a.report.availability, 1.0);
        assert_eq!(a.report.durable_tenants, a.report.tenants);
        assert_eq!(a.report.divergent_replicas, 0);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_cluster_scenario(&ClusterScenario::steady(100, 6, 1));
        let b = run_cluster_scenario(&ClusterScenario::steady(100, 6, 2));
        assert_ne!(a.report.state_fingerprint, b.report.state_fingerprint);
    }

    #[test]
    fn profiling_produces_folded_stacks() {
        let mut scn = ClusterScenario::steady(60, 4, 5);
        scn.profile_requests = 32;
        let r = run_cluster_scenario(&scn);
        assert!(r.report.folded_stacks > 0);
        assert!(r.folded.contains("cluster.request"));
        assert!(r.folded.contains("smmf.chat"), "folded: {}", r.folded);
        assert!(!r.report.hotspot.is_empty());
        // Profiling must not change results: same scenario unprofiled.
        let mut plain = scn.clone();
        plain.profile_requests = 0;
        let p = run_cluster_scenario(&plain);
        assert_eq!(p.outcomes, r.outcomes);
    }
}
