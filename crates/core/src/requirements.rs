//! Application requirements: the *input* to TSN-Builder's Top-down flow.
//!
//! Section II.A: "the features in TSN-related domains are pre-determined
//! and simple" — a scenario is its topology, its flow set and the required
//! synchronization precision. Everything else (Table II parameters, GCLs,
//! injection offsets) is derived.

use tsn_topology::{PathTable, Topology};
use tsn_types::{FlowSet, SimDuration, TsnError, TsnResult};

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
}

impl AppRequirements {
    /// Creates and validates a requirement set: every flow must run
    /// host-to-host over an existing route, and at least one TS flow must
    /// exist (otherwise there is nothing to customize for).
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
        // Validation only: planning re-routes from the stored topology.
        PathTable::from_flows(&topology, &flows)?;
        Ok(AppRequirements {
            topology,
            flows,
            sync_precision,
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

    /// Decomposes into its parts.
    #[must_use]
    pub fn into_parts(self) -> (Topology, FlowSet, SimDuration) {
        (self.topology, self.flows, self.sync_precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_topology::presets;
    use tsn_types::{FlowId, NodeId, TsFlowSpec};

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
    fn rejects_scenarios_without_ts_flows() {
        let topo = presets::ring(4, 2).expect("builds");
        assert!(AppRequirements::new(topo, FlowSet::new(), SimDuration::from_nanos(50)).is_err());
    }

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
