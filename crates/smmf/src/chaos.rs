//! Chaos scenario harness: scripted fault schedules against a live
//! [`ApiServer`].
//!
//! A [`Scenario`] is a request count plus a schedule of [`Fault`] events
//! keyed by request index — crash a replica, make the fleet flaky, spike
//! a replica's latency, take the whole tier down and bring it back.
//! [`run_scenario`] replays the schedule against a freshly built
//! deployment under a chosen routing policy and
//! [`ResilienceConfig`], and reports availability, goodput
//! (SLO-conforming successes), latency percentiles, and the resilience
//! counters. Everything is seeded and driven by the server's simulated
//! clock, so the same `(scenario, policy, config, seed)` tuple reproduces
//! byte-identical results — the property benchmark E2 asserts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use dbgpt_llm::latency::LatencyModel;
use dbgpt_llm::{GenerationParams, SharedModel, SimLlm, SimModelSpec};
use dbgpt_obs::Span;

use crate::privacy::{DeploymentMode, Locality};
use crate::resilience::{ResilienceConfig, ResilienceMetrics};
use crate::router::RoutingPolicy;
use crate::server::ApiServer;
use crate::worker::ModelWorker;

/// Model name of the primary serving tier built by [`run_scenario`].
pub const PRIMARY_MODEL: &str = "chaos-primary";
/// Model name of the fallback tier (always deployed; only used when the
/// config names it in [`ResilienceConfig::fallback_model`]).
pub const FALLBACK_MODEL: &str = "chaos-fallback";
/// Primary tier replica count.
pub const PRIMARY_REPLICAS: usize = 6;
/// Fallback tier replica count.
pub const FALLBACK_REPLICAS: usize = 2;
/// Primary per-request simulated latency, µs.
pub const PRIMARY_LATENCY_US: u64 = 40_000;
/// Fallback (smaller model) per-request simulated latency, µs.
pub const FALLBACK_LATENCY_US: u64 = 15_000;
/// Simulated gap between request arrivals, µs (breaker cool-downs and
/// hedge delays elapse against this clock).
pub const INTER_ARRIVAL_US: u64 = 50_000;

/// A constant-latency simulated model: every request costs exactly
/// `latency_us` regardless of token counts. Chaos scenarios use it so
/// latency shifts are attributable to injected faults alone.
pub fn const_model(name: &str, latency_us: u64) -> SharedModel {
    let mut spec = SimModelSpec::for_tests(name);
    spec.latency = LatencyModel {
        base_us: latency_us,
        prefill_us_per_token: 0,
        decode_us_per_token: 0,
    };
    Arc::new(SimLlm::with_default_skills(spec))
}

/// One injected fault. Worker indices address the primary tier's replicas
/// in id order (`w0`…).
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Hard-crash one replica (every request fails until restored).
    Crash {
        /// Primary-tier replica index.
        worker: usize,
    },
    /// Undo a crash.
    Restore {
        /// Primary-tier replica index.
        worker: usize,
    },
    /// Set one replica's injected failure rate.
    Flaky {
        /// Primary-tier replica index.
        worker: usize,
        /// Probability a request fails.
        rate: f64,
    },
    /// Set every primary replica's failure rate.
    FlakyAll {
        /// Probability a request fails.
        rate: f64,
    },
    /// Multiply one replica's simulated latency (`1.0` restores it).
    LatencySpike {
        /// Primary-tier replica index.
        worker: usize,
        /// Latency multiplier.
        factor: f64,
    },
    /// Crash the entire primary tier.
    MassOutage,
    /// Restore the entire primary tier.
    MassRecovery,
}

/// A fault scheduled at a request index.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Fire just before this request (0-based) is issued.
    pub at_request: usize,
    /// What happens.
    pub fault: Fault,
}

/// A scripted chaos scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (stable; used as the report key).
    pub name: &'static str,
    /// Requests to issue.
    pub requests: usize,
    /// Latency SLO for goodput accounting, simulated µs.
    pub slo_us: u64,
    /// The fault schedule (sorted by `at_request`).
    pub events: Vec<FaultEvent>,
}

impl Scenario {
    /// Steady state: no faults at all (sanity floor — every arm should be
    /// at 100%).
    pub fn steady(requests: usize) -> Self {
        Scenario {
            name: "steady",
            requests,
            slo_us: 200_000,
            events: Vec::new(),
        }
    }

    /// Every replica flaky at rate `p` from the first request on.
    pub fn flaky(requests: usize, p: f64) -> Self {
        Scenario {
            name: "flaky",
            requests,
            slo_us: 200_000,
            events: vec![FaultEvent {
                at_request: 0,
                fault: Fault::FlakyAll { rate: p },
            }],
        }
    }

    /// Two replicas crash early and come back much later.
    pub fn crash(requests: usize) -> Self {
        let down = requests / 10;
        let up = requests * 6 / 10;
        Scenario {
            name: "crash",
            requests,
            slo_us: 200_000,
            events: vec![
                FaultEvent { at_request: down, fault: Fault::Crash { worker: 0 } },
                FaultEvent { at_request: down, fault: Fault::Crash { worker: 1 } },
                FaultEvent { at_request: up, fault: Fault::Restore { worker: 0 } },
                FaultEvent { at_request: up, fault: Fault::Restore { worker: 1 } },
            ],
        }
    }

    /// One replica's latency degrades 50× for half the run.
    pub fn latency_spike(requests: usize) -> Self {
        let spike = requests * 2 / 10;
        let clear = requests * 7 / 10;
        Scenario {
            name: "latency-spike",
            requests,
            slo_us: 200_000,
            events: vec![
                FaultEvent {
                    at_request: spike,
                    fault: Fault::LatencySpike { worker: 0, factor: 50.0 },
                },
                FaultEvent {
                    at_request: clear,
                    fault: Fault::LatencySpike { worker: 0, factor: 1.0 },
                },
            ],
        }
    }

    /// The whole primary tier goes down, then recovers.
    pub fn outage_recovery(requests: usize) -> Self {
        Scenario {
            name: "outage-recovery",
            requests,
            slo_us: 200_000,
            events: vec![
                FaultEvent { at_request: requests * 2 / 10, fault: Fault::MassOutage },
                FaultEvent { at_request: requests * 4 / 10, fault: Fault::MassRecovery },
            ],
        }
    }

    /// The standard scenario suite benchmark E2 sweeps.
    pub fn suite(requests: usize) -> Vec<Scenario> {
        vec![
            Scenario::steady(requests),
            Scenario::flaky(requests, 0.3),
            Scenario::crash(requests),
            Scenario::latency_spike(requests),
            Scenario::outage_recovery(requests),
        ]
    }
}

/// [`ResilienceConfig::full`] plus the chaos fallback tier — the "full"
/// arm of the E2 sweep.
pub fn full_with_fallback() -> ResilienceConfig {
    let mut cfg = ResilienceConfig::full();
    cfg.fallback_model = Some(FALLBACK_MODEL.to_string());
    cfg
}

/// Outcome of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Routing policy name.
    pub policy: String,
    /// Resilience-config label (e.g. `disabled` / `full`).
    pub config: String,
    /// Seed the run used.
    pub seed: u64,
    /// Requests issued.
    pub requests: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Successes whose simulated latency met the scenario SLO.
    pub ok_within_slo: u64,
    /// Mean simulated latency over successes, µs.
    pub latency_mean_us: u64,
    /// Median simulated latency over successes, µs.
    pub latency_p50_us: u64,
    /// 99th-percentile simulated latency over successes, µs.
    pub latency_p99_us: u64,
    /// Worst simulated latency over successes, µs.
    pub latency_max_us: u64,
    /// Error counts by [`crate::SmmfError::kind`].
    pub errors: BTreeMap<&'static str, u64>,
    /// Server resilience counters at end of run.
    pub metrics: ResilienceMetrics,
}

impl ScenarioReport {
    /// Fraction of requests answered successfully.
    pub fn availability(&self) -> f64 {
        if self.requests == 0 {
            return 1.0;
        }
        self.ok as f64 / self.requests as f64
    }

    /// Fraction of requests answered successfully within the SLO.
    pub fn goodput(&self) -> f64 {
        if self.requests == 0 {
            return 1.0;
        }
        self.ok_within_slo as f64 / self.requests as f64
    }

    /// Deterministic JSON encoding (hand-rolled: stable key order, fixed
    /// float precision — byte-identical across runs with the same seed).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"scenario\":\"{}\",\"policy\":\"{}\",\"config\":\"{}\",\"seed\":{},\
             \"requests\":{},\"ok\":{},\"ok_within_slo\":{},\
             \"availability\":{:.6},\"goodput\":{:.6},\
             \"latency_us\":{{\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{}}},",
            self.scenario,
            self.policy,
            self.config,
            self.seed,
            self.requests,
            self.ok,
            self.ok_within_slo,
            self.availability(),
            self.goodput(),
            self.latency_mean_us,
            self.latency_p50_us,
            self.latency_p99_us,
            self.latency_max_us,
        );
        s.push_str("\"errors\":{");
        for (i, (kind, count)) in self.errors.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{kind}\":{count}");
        }
        s.push_str("},");
        let m = &self.metrics;
        let _ = write!(
            s,
            "\"metrics\":{{\"requests\":{},\"retries\":{},\"backoffs\":{},\
             \"backoff_us\":{},\"deadline_exceeded\":{},\"shed\":{},\
             \"hedges\":{},\"hedge_wins\":{},\"fallbacks\":{},\"breaker_opens\":{}}}}}",
            m.requests,
            m.retries,
            m.backoffs,
            m.backoff_us,
            m.deadline_exceeded,
            m.shed,
            m.hedges,
            m.hedge_wins,
            m.fallbacks,
            m.breaker_opens,
        );
        s
    }
}

/// Apply one worker-level fault to a tier's replicas. Public so higher
/// layers (the cluster simulation) can reuse the same fault vocabulary on
/// their per-node deployments.
pub fn apply_fault(fault: &Fault, workers: &[Arc<ModelWorker>]) {
    apply(fault, workers)
}

/// A node-level fault for multi-node cluster simulations. Worker-level
/// faults ([`Fault`]) degrade replicas *inside* one deployment; these
/// degrade whole nodes, which is the failure domain that replication and
/// failover exist to absorb.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeFault {
    /// Hard-crash a node: every shard primary on it needs failover, every
    /// request routed to it fails until restart.
    CrashNode {
        /// Cluster node index.
        node: usize,
    },
    /// Bring a crashed node back (it must catch up before serving).
    RestartNode {
        /// Cluster node index.
        node: usize,
    },
    /// Multiply a node's serving latency (`1.0` restores it) — the
    /// slow-node / gray-failure case.
    SlowNode {
        /// Cluster node index.
        node: usize,
        /// Latency multiplier.
        factor: f64,
    },
    /// Network partition: the listed nodes can only reach each other;
    /// everyone else forms the majority side.
    Partition {
        /// The minority side of the split.
        minority: Vec<usize>,
    },
    /// Heal any active partition.
    HealPartition,
}

/// A node fault scheduled at a simulated timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFaultEvent {
    /// Fire before the first request arriving at or after this time.
    pub at_us: u64,
    /// What happens.
    pub fault: NodeFault,
}

/// A scripted node-level chaos schedule for a cluster scenario.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeSchedule {
    /// Schedule name (stable; used in report keys).
    pub name: &'static str,
    /// Events sorted by `at_us`.
    pub events: Vec<NodeFaultEvent>,
}

impl NodeSchedule {
    /// No node faults at all.
    pub fn healthy() -> Self {
        NodeSchedule {
            name: "healthy",
            events: Vec::new(),
        }
    }

    /// Crash `node` at `at_us`, restart it at `restart_us`.
    pub fn crash_restart(node: usize, at_us: u64, restart_us: u64) -> Self {
        NodeSchedule {
            name: "crash_restart",
            events: vec![
                NodeFaultEvent {
                    at_us,
                    fault: NodeFault::CrashNode { node },
                },
                NodeFaultEvent {
                    at_us: restart_us,
                    fault: NodeFault::RestartNode { node },
                },
            ],
        }
    }

    /// Partition `minority` away from the rest between `at_us` and
    /// `heal_us`.
    pub fn partition(minority: Vec<usize>, at_us: u64, heal_us: u64) -> Self {
        NodeSchedule {
            name: "partition",
            events: vec![
                NodeFaultEvent {
                    at_us,
                    fault: NodeFault::Partition { minority },
                },
                NodeFaultEvent {
                    at_us: heal_us,
                    fault: NodeFault::HealPartition,
                },
            ],
        }
    }

    /// Slow `node` by `factor` between `at_us` and `restore_us`.
    pub fn slow_node(node: usize, factor: f64, at_us: u64, restore_us: u64) -> Self {
        NodeSchedule {
            name: "slow_node",
            events: vec![
                NodeFaultEvent {
                    at_us,
                    fault: NodeFault::SlowNode { node, factor },
                },
                NodeFaultEvent {
                    at_us: restore_us,
                    fault: NodeFault::SlowNode { node, factor: 1.0 },
                },
            ],
        }
    }

    /// Compound schedule: crash one node, partition another away, and slow
    /// a third — the full drill a resilient cluster should survive.
    pub fn combined(crash_node: usize, partition_node: usize, slow: usize, base_us: u64) -> Self {
        NodeSchedule {
            name: "combined",
            events: vec![
                NodeFaultEvent {
                    at_us: base_us,
                    fault: NodeFault::SlowNode { node: slow, factor: 4.0 },
                },
                NodeFaultEvent {
                    at_us: base_us * 2,
                    fault: NodeFault::CrashNode { node: crash_node },
                },
                NodeFaultEvent {
                    at_us: base_us * 3,
                    fault: NodeFault::Partition {
                        minority: vec![partition_node],
                    },
                },
                NodeFaultEvent {
                    at_us: base_us * 4,
                    fault: NodeFault::HealPartition,
                },
                NodeFaultEvent {
                    at_us: base_us * 5,
                    fault: NodeFault::RestartNode { node: crash_node },
                },
                NodeFaultEvent {
                    at_us: base_us * 5,
                    fault: NodeFault::SlowNode { node: slow, factor: 1.0 },
                },
            ],
        }
    }
}

fn apply(fault: &Fault, workers: &[Arc<ModelWorker>]) {
    match fault {
        Fault::Crash { worker } => workers[*worker].crash(),
        Fault::Restore { worker } => workers[*worker].restore(),
        Fault::Flaky { worker, rate } => workers[*worker].set_failure_rate(*rate),
        Fault::FlakyAll { rate } => {
            for w in workers {
                w.set_failure_rate(*rate);
            }
        }
        Fault::LatencySpike { worker, factor } => workers[*worker].set_latency_factor(*factor),
        Fault::MassOutage => {
            for w in workers {
                w.crash();
            }
        }
        Fault::MassRecovery => {
            for w in workers {
                w.restore();
            }
        }
    }
}

/// Build the standard chaos deployment: [`PRIMARY_REPLICAS`] replicas of
/// [`PRIMARY_MODEL`] plus [`FALLBACK_REPLICAS`] of [`FALLBACK_MODEL`].
pub fn build_deployment(
    policy: RoutingPolicy,
    config: &ResilienceConfig,
    seed: u64,
) -> ApiServer {
    let mut server =
        ApiServer::with_resilience(DeploymentMode::Local, policy, seed, config.clone());
    let primary = const_model(PRIMARY_MODEL, PRIMARY_LATENCY_US);
    for i in 0..PRIMARY_REPLICAS {
        let worker = ModelWorker::with_faults(
            format!("w{i}"),
            primary.clone(),
            Locality::Local,
            0.0,
            seed.wrapping_add(i as u64),
        );
        server.register_worker(worker).expect("register primary");
    }
    let fallback = const_model(FALLBACK_MODEL, FALLBACK_LATENCY_US);
    server.deploy_model(fallback, FALLBACK_REPLICAS).expect("register fallback");
    server
}

/// Replay a scenario against a fresh deployment; fully deterministic in
/// `(scenario, policy, config, seed)`.
pub fn run_scenario(
    scenario: &Scenario,
    policy: RoutingPolicy,
    config: &ResilienceConfig,
    config_label: &str,
    seed: u64,
) -> ScenarioReport {
    let server = build_deployment(policy, config, seed);
    let params = GenerationParams::default();
    let mut ok = 0u64;
    let mut ok_within_slo = 0u64;
    let mut latencies: Vec<u64> = Vec::with_capacity(scenario.requests);
    let mut errors: BTreeMap<&'static str, u64> = BTreeMap::new();
    for r in 0..scenario.requests {
        {
            let workers = server.controller().workers(PRIMARY_MODEL).expect("primary tier");
            for ev in scenario.events.iter().filter(|ev| ev.at_request == r) {
                apply(&ev.fault, workers);
            }
        }
        server.advance_clock(INTER_ARRIVAL_US);
        match server.chat(PRIMARY_MODEL, "chaos probe request", &params, &Span::noop()) {
            Ok(c) => {
                ok += 1;
                if c.simulated_latency_us <= scenario.slo_us {
                    ok_within_slo += 1;
                }
                latencies.push(c.simulated_latency_us);
            }
            Err(e) => {
                *errors.entry(e.kind()).or_insert(0) += 1;
            }
        }
    }
    latencies.sort_unstable();
    let pct = |p: usize| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[(latencies.len() - 1) * p / 100]
        }
    };
    let mean = if latencies.is_empty() {
        0
    } else {
        latencies.iter().sum::<u64>() / latencies.len() as u64
    };
    ScenarioReport {
        scenario: scenario.name.to_string(),
        policy: policy.name().to_string(),
        config: config_label.to_string(),
        seed,
        requests: scenario.requests as u64,
        ok,
        ok_within_slo,
        latency_mean_us: mean,
        latency_p50_us: pct(50),
        latency_p99_us: pct(99),
        latency_max_us: latencies.last().copied().unwrap_or(0),
        errors,
        metrics: server.metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_is_perfect_under_every_config() {
        let sc = Scenario::steady(30);
        for (cfg, label) in [
            (ResilienceConfig::disabled(), "disabled"),
            (full_with_fallback(), "full"),
        ] {
            let rep = run_scenario(&sc, RoutingPolicy::RoundRobin, &cfg, label, 42);
            assert_eq!(rep.ok, 30, "{label}: {:?}", rep.errors);
            assert_eq!(rep.ok_within_slo, 30, "{label}");
            assert_eq!(rep.latency_max_us, PRIMARY_LATENCY_US, "{label}");
        }
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let sc = Scenario::flaky(60, 0.3);
        let a = run_scenario(&sc, RoutingPolicy::Weighted, &full_with_fallback(), "full", 7);
        let b = run_scenario(&sc, RoutingPolicy::Weighted, &full_with_fallback(), "full", 7);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json(), "JSON must be byte-identical");
        let c = run_scenario(&sc, RoutingPolicy::Weighted, &full_with_fallback(), "full", 8);
        assert_ne!(a, c, "a different seed must change something");
    }

    #[test]
    fn full_config_beats_disabled_on_flaky_fleet() {
        let sc = Scenario::flaky(200, 0.3);
        let disabled = run_scenario(
            &sc,
            RoutingPolicy::RoundRobin,
            &ResilienceConfig::disabled(),
            "disabled",
            42,
        );
        let full =
            run_scenario(&sc, RoutingPolicy::RoundRobin, &full_with_fallback(), "full", 42);
        assert!(
            full.availability() >= disabled.availability(),
            "full {:.4} < disabled {:.4}",
            full.availability(),
            disabled.availability()
        );
        assert!(full.availability() >= 0.99, "full arm {:.4}", full.availability());
    }

    #[test]
    fn outage_recovery_fallback_keeps_answering() {
        let sc = Scenario::outage_recovery(100);
        let rep =
            run_scenario(&sc, RoutingPolicy::RoundRobin, &full_with_fallback(), "full", 42);
        // During the outage the fallback tier answers; after recovery the
        // primary tier comes back through half-open probes.
        assert!(rep.metrics.fallbacks > 0, "fallback tier never used");
        assert!(
            rep.availability() >= 0.95,
            "availability {:.4} with a fallback tier",
            rep.availability()
        );
    }

    #[test]
    fn latency_spike_is_hedged_around() {
        let sc = Scenario::latency_spike(100);
        let rep =
            run_scenario(&sc, RoutingPolicy::RoundRobin, &full_with_fallback(), "full", 42);
        assert!(rep.metrics.hedges > 0, "no hedges fired");
        assert!(rep.metrics.hedge_wins > 0, "hedges never won");
        // Every request that the spiked replica would have served at 2s is
        // rescued at hedge-delay + fallback-worker latency.
        assert!(
            rep.latency_max_us <= 50 * PRIMARY_LATENCY_US,
            "max {}µs",
            rep.latency_max_us
        );
        assert!(rep.availability() >= 0.99, "{:.4}", rep.availability());
    }

    #[test]
    fn report_json_shape() {
        let rep = run_scenario(
            &Scenario::steady(5),
            RoutingPolicy::Random,
            &ResilienceConfig::disabled(),
            "disabled",
            1,
        );
        let j = rep.to_json();
        for key in [
            "\"scenario\":\"steady\"",
            "\"policy\":\"random\"",
            "\"config\":\"disabled\"",
            "\"availability\":1.000000",
            "\"latency_us\"",
            "\"metrics\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn suite_covers_the_fault_menagerie() {
        let names: Vec<&str> = Scenario::suite(10).iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["steady", "flaky", "crash", "latency-spike", "outage-recovery"]
        );
    }
}
