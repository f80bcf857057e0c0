//! `fig2_mixed`: the paper's Fig. 2 set-up, the one workload with
//! contention. A unidirectional ring of 3 switches carries 1023 TS flows
//! plus one best-effort or rate-constrained background flow at 0, 300,
//! 600 or 900 Mbps (8 points), with Table I case-1 resources, gPTP sync
//! and 100 ms of traffic. Each point is planned (`CqfPlan::with_slot` +
//! `itp::plan`), built and run.
//!
//! The seed picks each point's background phase: the injection offset of
//! the background flow within one background frame time. Loads, flows
//! and resources are fixed, and the TS frames the RC points lose are
//! counted, not avoided.

use crate::sim::SimSummary;
use crate::trace::{Tracer, PASS};
use crate::{PassOut, Workload};
use std::sync::Arc;
use std::time::Instant;
use tsn_builder::cqf::{CqfPlan, PAPER_SLOT};
use tsn_builder::itp::{self, Strategy};
use tsn_builder::requirements::AppRequirements;
use tsn_builder::workloads;
use tsn_experiments::util::ring_with_analyzers;
use tsn_resource::{baseline, CostKey};
use tsn_sim::network::{NetworkTemplate, SimConfig, SyncSetup};
use tsn_topology::Topology;
use tsn_types::{
    BeFlowSpec, DataRate, FlowId, FlowSet, RcFlowSpec, SimDuration, SplitMix64, TrafficClass,
};

/// One sweep point's inputs.
struct Point {
    topology: Topology,
    flows: FlowSet,
    /// The background flow and its seed-drawn injection phase.
    background: Option<(FlowId, SimDuration)>,
}

/// The `fig2_mixed` workload.
pub struct Fig2 {
    seed: u64,
    ts_flows: u32,
    loads: Vec<(TrafficClass, u64)>,
    config: SimConfig,
}

impl Fig2 {
    /// The workload for `seed`; `smoke` shrinks it to two short points.
    #[must_use]
    pub fn new(seed: u64, smoke: bool) -> Self {
        let classes = [TrafficClass::BestEffort, TrafficClass::RateConstrained];
        let loads: Vec<(TrafficClass, u64)> = if smoke {
            vec![
                (TrafficClass::BestEffort, 300),
                (TrafficClass::RateConstrained, 600),
            ]
        } else {
            classes
                .iter()
                .flat_map(|&c| [0, 300, 600, 900].map(|mbps| (c, mbps)))
                .collect()
        };
        let mut config = SimConfig::paper_defaults();
        config.slot = PAPER_SLOT;
        config.resources = baseline::table1_case1();
        config.duration = SimDuration::from_millis(if smoke { 10 } else { 100 });
        config.sync = SyncSetup::default();
        Fig2 {
            seed,
            ts_flows: if smoke { 64 } else { 1023 },
            loads,
            config,
        }
    }

    /// The point inputs, a pure function of the seed.
    fn points(&self) -> Result<Vec<Point>, String> {
        let mut rng = SplitMix64::seed_from_u64(self.seed ^ 0xf162_0000_0000_0000);
        // One background frame time at 1 Gbps, preamble and gap included.
        let frame_ns = DataRate::gbps(1)
            .serialization_time(workloads::BACKGROUND_FRAME_BYTES + 20)
            .as_nanos();
        self.loads
            .iter()
            .map(|&(class, mbps)| {
                let phase = SimDuration::from_nanos(rng.gen_range(frame_ns));
                let (topology, tester, analyzers) =
                    ring_with_analyzers(3, &[2]).map_err(|e| format!("topology: {e}"))?;
                let analyzer = analyzers[0];
                let ts = workloads::ts_flows_fixed_path(
                    self.ts_flows,
                    tester,
                    analyzer,
                    64,
                    SimDuration::from_millis(8),
                )
                .map_err(|e| format!("TS flows: {e}"))?;
                let mut flows = ts;
                let id = FlowId::new(5000);
                let bytes = workloads::BACKGROUND_FRAME_BYTES;
                let rate = DataRate::mbps(mbps);
                let background = match (class, mbps) {
                    (_, 0) => None,
                    (TrafficClass::RateConstrained, _) => {
                        Some(RcFlowSpec::new(id, tester, analyzer, rate, bytes).map(Into::into))
                    }
                    _ => Some(BeFlowSpec::new(id, tester, analyzer, rate, bytes).map(Into::into)),
                };
                let background = match background {
                    Some(flow) => {
                        flows.push(flow.map_err(|e| format!("background flow: {e}"))?);
                        Some((id, phase))
                    }
                    None => None,
                };
                Ok(Point {
                    topology,
                    flows,
                    background,
                })
            })
            .collect()
    }
}

impl Workload for Fig2 {
    fn pass(&mut self, t: &Tracer, _check: bool) -> Result<PassOut, String> {
        let points = self.points()?;
        let config = &self.config;
        let mut out = PassOut::default();
        let mut summaries = Vec::with_capacity(points.len());
        t.span(PASS, || -> Result<(), String> {
            let start = Instant::now();
            for (i, p) in points.into_iter().enumerate() {
                let t0 = Instant::now();
                let offsets = t.span("builder.plan", || -> Result<_, String> {
                    let req = AppRequirements::new(
                        p.topology.clone(),
                        p.flows.clone(),
                        SimDuration::from_nanos(50),
                    )
                    .map_err(|e| format!("requirements: {e}"))?;
                    let cqf = CqfPlan::with_slot(&req, config.slot, DataRate::gbps(1))
                        .map_err(|e| format!("CQF plan: {e}"))?;
                    let mut offsets = itp::plan(&req, &cqf, Strategy::GreedyLeastLoaded)
                        .map_err(|e| format!("ITP plan: {e}"))?
                        .offsets;
                    if let Some((id, phase)) = p.background {
                        offsets.insert(id, phase);
                    }
                    Ok(offsets)
                })?;
                let template = t
                    .span("template.new", || {
                        NetworkTemplate::new(p.topology, p.flows, &offsets, config.clone())
                            .map(Arc::new)
                    })
                    .map_err(|e| format!("template: {e}"))?;
                let network = t
                    .span("install.instantiate", || template.instantiate())
                    .map_err(|e| format!("instantiate: {e}"))?;
                let ready = Instant::now();
                if i == 0 {
                    out.setup = ready - start;
                }
                let report = t.span("run", || network.run());
                out.run += ready.elapsed();
                summaries.push(t.span("report", || SimSummary::of(&report)));
                out.turnaround.push(t0.elapsed());
            }
            out.wall = start.elapsed();
            Ok(())
        })?;
        if let Some(i) = summaries.iter().position(|s| s.ts_injected() == 0) {
            return Err(format!("point {i} injected no TS frames"));
        }
        out.items = summaries.len() as u64;
        out.bram36 = CostKey::of(&config.resources).bram36_blocks as f64;
        out.events = summaries.iter().map(|s| s.events).sum();
        out.add_sims(&summaries);
        Ok(out)
    }
}
