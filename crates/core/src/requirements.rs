//! Application requirements: the *input* to TSN-Builder's Top-down flow.
//!
//! Section II.A: "the features in TSN-related domains are pre-determined
//! and simple" — a scenario is its topology, its flow set and the required
//! synchronization precision. Everything else (Table II parameters, GCLs,
//! injection offsets) is derived — from the flows' routes, which a
//! requirement set computes once and holds ([`AppRequirements::paths`]).

use tsn_topology::{PathTable, Route, Topology};
use tsn_types::{FlowSet, SimDuration, TsFlowSpec, TsnError, TsnResult};

/// One application scenario.
///
/// # Example
///
/// ```
/// use tsn_builder::requirements::AppRequirements;
/// use tsn_topology::presets;
/// use tsn_types::{FlowSet, TsFlowSpec, FlowId, SimDuration};
///
/// let topo = presets::ring(6, 3)?;
/// let hosts = topo.hosts();
/// let mut flows = FlowSet::new();
/// flows.push(TsFlowSpec::new(
///     FlowId::new(0), hosts[0], hosts[1],
///     SimDuration::from_millis(10), SimDuration::from_millis(2), 64,
/// )?.into());
/// let req = AppRequirements::new(topo, flows, SimDuration::from_nanos(50))?;
/// assert_eq!(req.flows().len(), 1);
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AppRequirements {
    topology: Topology,
    flows: FlowSet,
    sync_precision: SimDuration,
    paths: PathTable,
}

impl AppRequirements {
    /// Creates and validates a requirement set: every flow must run
    /// host-to-host over an existing route, and at least one TS flow must
    /// exist (otherwise there is nothing to customize for). The routes
    /// are kept for planning; this is the only place a requirement set
    /// is routed.
    ///
    /// # Errors
    ///
    /// * [`TsnError::InvalidParameter`] for an empty TS flow set, a zero
    ///   precision, or a flow endpoint that is not a host.
    /// * [`TsnError::UnknownNode`] for an endpoint that does not exist.
    /// * [`TsnError::NoRoute`] for an unreachable destination.
    pub fn new(topology: Topology, flows: FlowSet, sync_precision: SimDuration) -> TsnResult<Self> {
        if flows.ts_count() == 0 {
            return Err(TsnError::invalid_parameter(
                "flows",
                "a TSN scenario needs at least one time-sensitive flow",
            ));
        }
        if sync_precision.is_zero() {
            return Err(TsnError::invalid_parameter(
                "sync_precision",
                "must be non-zero",
            ));
        }
        let paths = PathTable::from_flows(&topology, &flows)?;
        Ok(AppRequirements {
            topology,
            flows,
            sync_precision,
            paths,
        })
    }

    /// The topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The flow set.
    #[must_use]
    pub fn flows(&self) -> &FlowSet {
        &self.flows
    }

    /// Required synchronization precision (the paper's prototype achieves
    /// < 50 ns).
    #[must_use]
    pub fn sync_precision(&self) -> SimDuration {
        self.sync_precision
    }

    /// The flows' routes, one per distinct (talker, listener) pair:
    /// [`PathTable::flow_routes`] pairs them with [`Self::flows`] in
    /// flow-set order, and [`PathTable::ts_routes`] gives the routes TS
    /// flows take. Every route is the one [`Topology::route`] returns.
    #[must_use]
    pub fn paths(&self) -> &PathTable {
        &self.paths
    }

    /// Each TS flow with its route, in flow-set order.
    pub(crate) fn ts_flow_routes(&self) -> impl Iterator<Item = (&TsFlowSpec, &Route)> {
        self.flows
            .iter()
            .zip(self.paths.flow_routes())
            .filter_map(|(flow, route)| Some((flow.as_ts()?, route)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_topology::presets;
    use tsn_types::{BeFlowSpec, DataRate, FlowId, NodeId, RcFlowSpec, TsFlowSpec};

    fn a_flow(topo: &Topology, id: u32) -> tsn_types::FlowSpec {
        let hosts = topo.hosts();
        TsFlowSpec::new(
            FlowId::new(id),
            hosts[0],
            hosts[1],
            SimDuration::from_millis(10),
            SimDuration::from_millis(2),
            64,
        )
        .expect("valid flow")
        .into()
    }

    #[test]
    fn accepts_a_valid_scenario() {
        let topo = presets::ring(4, 2).expect("builds");
        let mut flows = FlowSet::new();
        flows.push(a_flow(&topo, 0));
        let req =
            AppRequirements::new(topo, flows, SimDuration::from_nanos(50)).expect("valid scenario");
        assert_eq!(req.flows().len(), 1);
    }

    #[test]
    fn every_flow_reads_the_route_of_its_endpoints() {
        let topologies = [
            ("ring", presets::ring(6, 3).expect("builds")),
            ("linear", presets::linear(6, 4).expect("builds")),
            ("star", presets::star(3, 3).expect("builds")),
            ("multi_ring", presets::multi_ring(3, 4, 3).expect("builds")),
        ];
        for (name, topo) in topologies {
            // Every ordered host pair twice, in a different class each
            // time, so pairs repeat across TS, RC and BE flows.
            let hosts = topo.hosts();
            let pairs: Vec<_> = hosts
                .iter()
                .flat_map(|&a| hosts.iter().filter(move |&&b| b != a).map(move |&b| (a, b)))
                .collect();
            let mut flows = FlowSet::new();
            let mut id = 0;
            for round in 0..2 {
                for (k, &(a, b)) in pairs.iter().enumerate() {
                    let fid = FlowId::new(id);
                    flows.push(match (k + round) % 3 {
                        0 => TsFlowSpec::new(
                            fid,
                            a,
                            b,
                            SimDuration::from_millis(10),
                            SimDuration::from_millis(8),
                            64,
                        )
                        .expect("valid flow")
                        .into(),
                        1 => RcFlowSpec::new(fid, a, b, DataRate::mbps(10), 256)
                            .expect("valid flow")
                            .into(),
                        _ => BeFlowSpec::new(fid, a, b, DataRate::mbps(10), 1500)
                            .expect("valid flow")
                            .into(),
                    });
                    id += 1;
                }
            }
            let req = AppRequirements::new(topo, flows, SimDuration::from_nanos(50))
                .expect("valid scenario");
            let topo = req.topology();
            let routes: Vec<_> = req.paths().flow_routes().collect();
            assert_eq!(routes.len(), req.flows().len(), "{name}");
            for (flow, route) in req.flows().iter().zip(routes) {
                let direct = topo.route(flow.src(), flow.dst()).expect("routes");
                assert_eq!(route, &direct, "{name}: {}", flow.id());
            }
            let ts: Vec<_> = req.ts_flow_routes().collect();
            assert_eq!(ts.len(), req.flows().ts_count(), "{name}");
            for ((flow, route), want) in ts.into_iter().zip(req.flows().ts_flows()) {
                assert_eq!(flow.id(), want.id(), "{name}: TS flows in flow-set order");
                assert_eq!(route, &topo.route(flow.src(), flow.dst()).expect("routes"));
            }
        }
    }

    #[test]
    fn rejects_scenarios_without_ts_flows() {
        let topo = presets::ring(4, 2).expect("builds");
        assert!(AppRequirements::new(topo, FlowSet::new(), SimDuration::from_nanos(50)).is_err());
    }

    /// Routing fails here or nowhere: the planners read the stored
    /// routes and carry no routing errors.
    #[test]
    fn rejects_unroutable_endpoints() {
        let mut topo = presets::ring(4, 2).expect("builds");
        let isolated = topo.add_host("isolated");
        let (sw, host) = (topo.switches()[0], topo.hosts()[0]);
        let unknown = NodeId::new(999);
        for (dst, want) in [
            (sw, "flow0 endpoint"),
            (unknown, "unknown node"),
            (isolated, "no route"),
        ] {
            let mut flows = FlowSet::new();
            flows.push(
                TsFlowSpec::new(
                    FlowId::new(0),
                    host,
                    dst,
                    SimDuration::from_millis(10),
                    SimDuration::from_millis(2),
                    64,
                )
                .expect("spec itself is valid")
                .into(),
            );
            let e = AppRequirements::new(topo.clone(), flows, SimDuration::from_nanos(50))
                .expect_err("unroutable endpoint");
            let kind_matches = match &e {
                TsnError::InvalidParameter { name, .. } => dst == sw && name == "flow",
                TsnError::UnknownNode(n) => *n == unknown,
                TsnError::NoRoute { to, .. } => *to == isolated,
                _ => false,
            };
            assert!(kind_matches && e.to_string().contains(want), "{e}");
        }
    }

    #[test]
    fn rejects_zero_precision() {
        let topo = presets::ring(4, 2).expect("builds");
        let mut flows = FlowSet::new();
        flows.push(a_flow(&topo, 0));
        assert!(AppRequirements::new(topo, flows, SimDuration::ZERO).is_err());
    }
}
