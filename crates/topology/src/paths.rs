//! Pair-deduplicated routing: one route per distinct (talker, listener)
//! pair, shared by every flow between them.
//!
//! A route depends only on its endpoints, so the flows of one pair all
//! take the same path. A large plant has ~100 times more flows than
//! pairs, so everything that reads routes per flow (resource sizing,
//! enabled-port analysis, flow installation) reads this table instead
//! of routing each flow again.

use crate::graph::Topology;
use crate::route::Route;
use std::collections::HashMap;
use tsn_types::{FlowSet, NodeId, TsnError, TsnResult};

/// The routes of a flow set: one [`Route`] per distinct `(src, dst)`
/// pair in first-seen flow order, plus each flow's index into them.
///
/// Each pair is routed once with [`Topology::route`], so every flow's
/// route is exactly the one a per-flow `route(src, dst)` returns.
///
/// # Example
///
/// ```
/// use tsn_topology::{presets, PathTable};
/// use tsn_types::{FlowId, FlowSet, SimDuration, TsFlowSpec};
///
/// let topo = presets::ring(4, 2)?;
/// let (a, b) = (topo.hosts()[0], topo.hosts()[1]);
/// let mut flows = FlowSet::new();
/// for id in 0..3 {
///     flows.push(TsFlowSpec::new(
///         FlowId::new(id), a, b,
///         SimDuration::from_millis(10), SimDuration::from_millis(2), 64,
///     )?.into());
/// }
/// let paths = PathTable::from_flows(&topo, &flows)?;
/// assert_eq!(paths.routes().len(), 1); // three flows, one pair
/// assert_eq!(paths.flow_paths(), &[0, 0, 0]);
/// assert_eq!(paths.routes()[0], topo.route(a, b)?);
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PathTable {
    routes: Vec<Route>,
    /// Per route: whether at least one TS flow takes it.
    carries_ts: Vec<bool>,
    flow_paths: Vec<u32>,
}

impl PathTable {
    /// Routes every distinct `(src, dst)` pair of `flows` once, in
    /// flow order. The endpoints of a pair are checked the first time
    /// it is seen, and an error names that pair's first flow.
    ///
    /// # Errors
    ///
    /// * [`TsnError::UnknownNode`] if an endpoint does not exist.
    /// * [`TsnError::InvalidParameter`] if an endpoint is not a host.
    /// * [`TsnError::NoRoute`] if a destination is unreachable.
    pub fn from_flows(topology: &Topology, flows: &FlowSet) -> TsnResult<Self> {
        let mut index: HashMap<(NodeId, NodeId), u32> = HashMap::new();
        let mut table = PathTable {
            flow_paths: Vec::with_capacity(flows.len()),
            ..PathTable::default()
        };
        for flow in flows.iter() {
            let pair = (flow.src(), flow.dst());
            let path = match index.get(&pair) {
                Some(&path) => path,
                None => {
                    for node in [pair.0, pair.1] {
                        if !topology.node(node)?.is_host() {
                            return Err(TsnError::invalid_parameter(
                                "flow",
                                format!("{} endpoint {node} is not a host", flow.id()),
                            ));
                        }
                    }
                    // Pairs never outnumber flows, whose ids are `u32`.
                    let path = table.routes.len() as u32;
                    table.routes.push(topology.route(pair.0, pair.1)?);
                    table.carries_ts.push(false);
                    index.insert(pair, path);
                    path
                }
            };
            if flow.as_ts().is_some() {
                table.carries_ts[path as usize] = true;
            }
            table.flow_paths.push(path);
        }
        Ok(table)
    }

    /// One route per distinct pair, in first-seen flow order.
    #[must_use]
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// For each flow, in flow-set order, the index of its route in
    /// [`PathTable::routes`].
    #[must_use]
    pub fn flow_paths(&self) -> &[u32] {
        &self.flow_paths
    }

    /// The routes at least one TS flow takes — the input of
    /// [`crate::EnabledPorts::from_routes`].
    pub fn ts_routes(&self) -> impl Iterator<Item = &Route> {
        self.routes
            .iter()
            .zip(&self.carries_ts)
            .filter_map(|(route, &ts)| ts.then_some(route))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{presets, EnabledPorts};
    use tsn_types::{DataRate, FlowId, RcFlowSpec, SimDuration, TsFlowSpec};

    fn ts(id: u32, src: NodeId, dst: NodeId) -> tsn_types::FlowSpec {
        TsFlowSpec::new(
            FlowId::new(id),
            src,
            dst,
            SimDuration::from_millis(10),
            SimDuration::from_millis(8),
            64,
        )
        .expect("valid flow")
        .into()
    }

    fn rc(id: u32, src: NodeId, dst: NodeId) -> tsn_types::FlowSpec {
        RcFlowSpec::new(FlowId::new(id), src, dst, DataRate::mbps(10), 256)
            .expect("valid flow")
            .into()
    }

    /// Every ordered host pair, each repeated three times in a
    /// round-robin order (so pairs recur after other pairs), plus RC
    /// flows on the first host's pairs.
    fn repeating_flows(topology: &Topology) -> FlowSet {
        let hosts = topology.hosts();
        let mut flows = FlowSet::new();
        let mut id = 0;
        for _ in 0..3 {
            for &a in hosts {
                for &b in hosts {
                    if a != b {
                        flows.push(ts(id, a, b));
                        id += 1;
                    }
                }
            }
        }
        for &b in &hosts[1..] {
            flows.push(rc(id, b, hosts[0]));
            id += 1;
        }
        flows
    }

    fn presets() -> Vec<(&'static str, Topology)> {
        vec![
            ("ring", presets::ring(6, 3).expect("builds")),
            ("linear", presets::linear(6, 4).expect("builds")),
            ("star", presets::star(3, 3).expect("builds")),
            ("multi_ring", presets::multi_ring(3, 4, 3).expect("builds")),
        ]
    }

    #[test]
    fn every_flow_gets_the_route_of_its_pair() {
        for (name, topo) in presets() {
            let flows = repeating_flows(&topo);
            let paths = PathTable::from_flows(&topo, &flows).expect("routes");
            assert_eq!(paths.flow_paths().len(), flows.len(), "{name}");
            let hosts = topo.hosts().len();
            assert_eq!(paths.routes().len(), hosts * (hosts - 1), "{name}");
            for (flow, &path) in flows.iter().zip(paths.flow_paths()) {
                let direct = topo.route(flow.src(), flow.dst()).expect("routes");
                assert_eq!(
                    paths.routes()[path as usize],
                    direct,
                    "{name}: {}",
                    flow.id()
                );
            }
        }
    }

    #[test]
    fn pairs_are_numbered_in_first_seen_order() {
        let topo = presets::ring(4, 3).expect("builds");
        let h = topo.hosts();
        let mut flows = FlowSet::new();
        for (id, (a, b)) in [(0, 1), (1, 2), (0, 1), (2, 0), (1, 2)]
            .into_iter()
            .enumerate()
        {
            flows.push(ts(id as u32, h[a], h[b]));
        }
        let paths = PathTable::from_flows(&topo, &flows).expect("routes");
        assert_eq!(paths.flow_paths(), &[0, 1, 0, 2, 1]);
        let ends: Vec<_> = paths.routes().iter().map(|r| (r.src(), r.dst())).collect();
        assert_eq!(ends, [(h[0], h[1]), (h[1], h[2]), (h[2], h[0])]);
    }

    #[test]
    fn enabled_ports_from_the_table_match_the_per_flow_analysis() {
        for (name, topo) in presets() {
            let flows = repeating_flows(&topo);
            let paths = PathTable::from_flows(&topo, &flows).expect("routes");
            assert_eq!(
                EnabledPorts::from_routes(&topo, paths.ts_routes()),
                EnabledPorts::from_flows(&topo, &flows).expect("routes"),
                "{name}"
            );
        }
    }

    #[test]
    fn only_ts_pairs_enable_ports() {
        // An RC-only pair takes a route but enables nothing.
        let topo = presets::linear(3, 3).expect("builds");
        let h = topo.hosts();
        let mut flows = FlowSet::new();
        flows.push(rc(0, h[0], h[2]));
        let paths = PathTable::from_flows(&topo, &flows).expect("routes");
        assert_eq!(paths.routes().len(), 1);
        assert_eq!(paths.ts_routes().count(), 0);
        flows.push(ts(1, h[0], h[2]));
        let paths = PathTable::from_flows(&topo, &flows).expect("routes");
        assert_eq!(paths.routes().len(), 1, "the TS flow shares the RC pair");
        assert_eq!(paths.ts_routes().count(), 1);
        assert_eq!(
            EnabledPorts::from_routes(&topo, paths.ts_routes()).max_per_switch(),
            1
        );
    }

    #[test]
    fn an_unreachable_pair_is_no_route() {
        // Two hosts on a one-way link: the reverse pair has no route.
        let mut topo = Topology::new();
        let s = topo.add_switch("s");
        let a = topo.add_host("a");
        let b = topo.add_host("b");
        topo.connect(a, s, DataRate::gbps(1)).expect("link");
        topo.connect_with(
            s,
            b,
            DataRate::gbps(1),
            crate::graph::DEFAULT_PROPAGATION,
            crate::LinkDirection::AToB,
        )
        .expect("link");
        let mut flows = FlowSet::new();
        flows.push(ts(0, a, b));
        flows.push(ts(1, b, a));
        assert!(matches!(
            PathTable::from_flows(&topo, &flows),
            Err(TsnError::NoRoute { from, to }) if from == b && to == a
        ));
    }

    #[test]
    fn a_non_host_endpoint_is_an_invalid_parameter() {
        let topo = presets::ring(4, 2).expect("builds");
        let (sw, host) = (topo.switches()[0], topo.hosts()[0]);
        let mut flows = FlowSet::new();
        flows.push(ts(0, host, topo.hosts()[1]));
        flows.push(ts(7, host, sw));
        let e = PathTable::from_flows(&topo, &flows).expect_err("switch endpoint");
        assert!(
            matches!(&e, TsnError::InvalidParameter { .. }) && e.to_string().contains("flow7"),
            "{e}"
        );
        let mut flows = FlowSet::new();
        flows.push(ts(0, host, NodeId::new(999)));
        assert!(matches!(
            PathTable::from_flows(&topo, &flows),
            Err(TsnError::UnknownNode(n)) if n == NodeId::new(999)
        ));
    }

    #[test]
    fn an_empty_flow_set_routes_nothing() {
        let topo = presets::ring(3, 1).expect("builds");
        let paths = PathTable::from_flows(&topo, &FlowSet::new()).expect("nothing to route");
        assert!(paths.routes().is_empty() && paths.flow_paths().is_empty());
    }
}
