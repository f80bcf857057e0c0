//! The two large-plant workloads.
//!
//! * `plant_100k`: `large_plant(100_000)` → template → instantiate → run
//!   → report, once per pass. The largest working set (~158 MiB).
//! * `plant_10k_reconfig`: `large_plant(10_000)` builds one template, then
//!   a fixed cycle of [`ConfigDelta`]s modelled on a design-space search
//!   is applied, each one `reconfigure` → run → report.
//!
//! Both are seed-independent by construction: `large_plant` generates its
//! flows arithmetically, uses perfect sync and needs no random draws.

use crate::micro;
use crate::sim::{report_digest, SimSummary};
use crate::trace::{Tracer, PASS};
use crate::{PassOut, Workload};
use std::sync::Arc;
use std::time::Instant;
use tsn_builder::plant::{large_plant, LargePlant};
use tsn_resource::{CostKey, ResourceConfig};
use tsn_sim::network::{ConfigDelta, Network, NetworkTemplate, SimConfig};
use tsn_types::SimDuration;

fn plant(flows: u32) -> Result<LargePlant, String> {
    large_plant(flows).map_err(|e| format!("large_plant({flows}): {e}"))
}

fn bram36(resources: &ResourceConfig) -> f64 {
    CostKey::of(resources).bram36_blocks as f64
}

/// Both plants must deliver every TS frame on time.
fn check_lossless(what: &str, s: &SimSummary) -> Result<(), String> {
    if s.ts_injected() == 0 || s.ts_failed() > 0 {
        return Err(format!(
            "{what}: {} TS frames injected, {} lost, {} late (a plant must lose none)",
            s.ts_injected(),
            s.classes[0].lost,
            s.ts_late
        ));
    }
    Ok(())
}

/// `plant_100k` (or a smaller plant in smoke mode).
pub struct Plant {
    flows: u32,
}

impl Plant {
    /// The workload at `flows` TS flows.
    #[must_use]
    pub fn new(flows: u32) -> Self {
        Plant { flows }
    }
}

impl Workload for Plant {
    fn pass(&mut self, t: &Tracer, _check: bool) -> Result<PassOut, String> {
        let flows = self.flows;
        let mut out = PassOut::default();
        let (summary, report, template) = t.span(PASS, || -> Result<_, String> {
            let start = Instant::now();
            let plant = t.span("builder.plan", || plant(flows))?;
            out.bram36 = bram36(&plant.config.resources);
            let LargePlant {
                topology,
                flows,
                offsets,
                config,
                ..
            } = plant;
            let template = t
                .span("template.new", || {
                    NetworkTemplate::new(topology, flows, &offsets, config).map(Arc::new)
                })
                .map_err(|e| format!("template: {e}"))?;
            let ready_from = Instant::now();
            let network = t
                .span("install.instantiate", || template.instantiate())
                .map_err(|e| format!("instantiate: {e}"))?;
            let ready = Instant::now();
            let report = t.span("run", || network.run());
            let ran = Instant::now();
            let summary = t.span("report", || SimSummary::of(&report));
            let end = Instant::now();
            out.wall = end - start;
            out.setup = ready - start;
            out.run = ran - ready;
            out.turnaround.push(end - ready_from);
            Ok((summary, report, template))
        })?;
        // Teardown is not part of the pass.
        drop(report);
        drop(template);
        out.events = summary.events;
        out.items = 1;
        check_lossless("plant", &summary)?;
        out.add_sims(&[summary]);
        Ok(out)
    }

    fn microcases(&mut self) -> Vec<(&'static str, Vec<f64>)> {
        plant(self.flows).map_or_else(|_| Vec::new(), |p| micro::plant_cases(&p))
    }
}

/// Which reconfiguration path a delta takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Resources-only, same queue layout: the capacity-patching fast path.
    Patch,
    /// Anything that changes what the install replay programs.
    Replay,
}

struct Delta {
    path: Path,
    delta: ConfigDelta,
}

/// `plant_10k_reconfig` (or a smaller plant in smoke mode).
pub struct Reconfig {
    flows: u32,
    deltas: Vec<Delta>,
}

impl Reconfig {
    /// The workload at `flows` TS flows with its fixed delta cycle.
    ///
    /// # Errors
    ///
    /// The plant or a delta's resources fail to generate.
    pub fn new(flows: u32) -> Result<Self, String> {
        let base = plant(flows)?.config.resources;
        let ports = base.port_num();
        let (depth, queues, buffers) = (base.queue_depth(), base.queue_num(), base.buffer_num());
        let resources = |depth: u32, buffers: u32| -> Result<ConfigDelta, String> {
            let mut r = base.clone();
            r.set_queues(depth, queues, ports)
                .and_then(|r| r.set_buffers(buffers, ports))
                .map_err(|e| format!("delta resources: {e}"))?;
            Ok(ConfigDelta::resources(r))
        };
        // The cycle a DSE walk produces: buffer-pool probes (patched in
        // place), queue-depth bisection steps (replayed) and one slot
        // change (replayed).
        let deltas = vec![
            Delta {
                path: Path::Patch,
                delta: resources(depth, buffers * 3 / 4)?,
            },
            Delta {
                path: Path::Replay,
                delta: resources(depth * 3 / 4, buffers)?,
            },
            Delta {
                path: Path::Patch,
                delta: resources(depth, buffers * 5 / 4)?,
            },
            Delta {
                path: Path::Replay,
                delta: resources(depth * 5 / 4, buffers)?,
            },
            Delta {
                path: Path::Patch,
                delta: resources(depth, buffers * 7 / 8)?,
            },
            Delta {
                path: Path::Replay,
                delta: resources(depth * 7 / 8, buffers)?,
            },
            Delta {
                path: Path::Replay,
                delta: ConfigDelta {
                    slot: Some(SimDuration::from_micros(50)),
                    ..ConfigDelta::default()
                },
            },
            Delta {
                path: Path::Patch,
                delta: resources(depth, buffers)?,
            },
        ];
        Ok(Reconfig { flows, deltas })
    }
}

/// The config a from-scratch build of `delta` uses.
fn effective(base: &SimConfig, delta: &ConfigDelta) -> SimConfig {
    let mut config = base.clone();
    if let Some(r) = &delta.resources {
        config.resources = r.clone();
    }
    if let Some(slot) = delta.slot {
        config.slot = slot;
    }
    config
}

impl Workload for Reconfig {
    fn pass(&mut self, t: &Tracer, check: bool) -> Result<PassOut, String> {
        let flows = self.flows;
        let deltas = &self.deltas;
        let mut out = PassOut::default();
        let mut summaries = Vec::with_capacity(deltas.len() + 1);
        let mut digests = Vec::new();
        let mut bram = 0.0;
        let (template, offsets) = t.span(PASS, || -> Result<_, String> {
            let start = Instant::now();
            let plant = t.span("builder.plan", || plant(flows))?;
            let LargePlant {
                topology,
                flows,
                offsets,
                config,
                ..
            } = plant;
            let template = t
                .span("template.new", || {
                    NetworkTemplate::new(topology, flows, &offsets, config).map(Arc::new)
                })
                .map_err(|e| format!("template: {e}"))?;
            let network = t
                .span("install.instantiate", || template.instantiate())
                .map_err(|e| format!("instantiate: {e}"))?;
            let ready = Instant::now();
            out.setup = ready - start;
            let report = t.span("run", || network.run());
            out.run += ready.elapsed();
            summaries.push(t.span("report", || SimSummary::of(&report)));
            if check {
                digests.push(report_digest(&report));
            }
            drop(report);
            for d in deltas {
                let t0 = Instant::now();
                let name = match d.path {
                    Path::Patch => "reconfig.patch",
                    Path::Replay => "reconfig.replay",
                };
                let network = t
                    .span(name, || template.reconfigure(&d.delta))
                    .map_err(|e| format!("reconfigure: {e}"))?;
                let t1 = Instant::now();
                let report = t.span("run", || network.run());
                out.run += t1.elapsed();
                summaries.push(t.span("report", || SimSummary::of(&report)));
                out.turnaround.push(t0.elapsed());
                bram += bram36(&effective(template.config(), &d.delta).resources);
                if check {
                    digests.push(report_digest(&report));
                }
                drop(report);
            }
            out.wall = start.elapsed();
            Ok((template, offsets))
        })?;
        out.items = deltas.len() as u64;
        out.bram36 = bram / deltas.len() as f64;
        for (i, s) in summaries.iter().enumerate() {
            check_lossless(&format!("reconfig step {i}"), s)?;
        }
        if check {
            // Every reconfigured report must equal a from-scratch build of
            // the same effective config, for both paths.
            let base = template.config().clone();
            let scratch = |config: SimConfig| -> Result<u64, String> {
                let network = Network::build(
                    template.topology().as_ref().clone(),
                    template.flows().as_ref().clone(),
                    &offsets,
                    config,
                )
                .map_err(|e| format!("from-scratch build: {e}"))?;
                Ok(report_digest(&network.run()))
            };
            if scratch(base.clone())? != digests[0] {
                return Err("the instantiated base differs from a from-scratch build".into());
            }
            for (i, d) in deltas.iter().enumerate() {
                if scratch(effective(&base, &d.delta))? != digests[i + 1] {
                    return Err(format!(
                        "delta {i} ({:?} path): reconfigured report differs from a from-scratch build",
                        d.path
                    ));
                }
            }
        }
        out.events = summaries.iter().map(|s| s.events).sum();
        out.add_sims(&summaries);
        Ok(out)
    }

    fn microcases(&mut self) -> Vec<(&'static str, Vec<f64>)> {
        plant(self.flows).map_or_else(|_| Vec::new(), |p| micro::plant_cases(&p))
    }
}
