//! Cyclic Queuing and Forwarding planning (802.1Qch) — Eq. (1) and slot
//! sizing.
//!
//! The evaluation statically configures the gate control lists to run CQF:
//! two TS queues alternate, a packet received in slot *i* leaves in slot
//! *i+1*, and the end-to-end latency obeys
//!
//! ```text
//! L_max = (hop + 1) × slot        L_min = (hop − 1) × slot
//! ```
//!
//! This module picks a feasible slot for a scenario and exposes the
//! bounds.

use crate::requirements::AppRequirements;
use tsn_types::{DataRate, SimDuration, TsnError, TsnResult};

/// The paper's slot length (65 µs).
pub const PAPER_SLOT: SimDuration = SimDuration::from_micros(65);

/// Eq. (1): the CQF end-to-end latency bounds for a flow crossing `hop`
/// switches with slot length `slot`. `L_min` saturates at zero for
/// `hop = 0`.
///
/// # Example
///
/// ```
/// use tsn_builder::cqf::latency_bounds;
/// use tsn_types::SimDuration;
///
/// let slot = SimDuration::from_micros(65);
/// let (lo, hi) = latency_bounds(4, slot);
/// assert_eq!(lo, SimDuration::from_micros(195)); // (4-1)*65
/// assert_eq!(hi, SimDuration::from_micros(325)); // (4+1)*65
/// ```
#[must_use]
pub fn latency_bounds(hop: u64, slot: SimDuration) -> (SimDuration, SimDuration) {
    let lo = slot * hop.saturating_sub(1);
    let hi = slot * (hop + 1);
    (lo, hi)
}

/// A planned CQF configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CqfPlan {
    /// Slot length.
    pub slot: SimDuration,
    /// Number of slot phases in one hyperperiod (`scheduling cycle /
    /// slot`, rounded up when the cycle is not slot-aligned).
    pub phases: u64,
    /// The scheduling cycle (LCM of all TS periods).
    pub cycle: SimDuration,
    /// Gate-table entries needed (always 2 for CQF).
    pub gate_size: u32,
    /// Worst-case `L_max` over the scenario's TS flows.
    pub worst_latency: SimDuration,
}

impl CqfPlan {
    /// Plans CQF for a scenario with an explicitly chosen slot.
    ///
    /// Feasibility checks:
    /// * every TS flow must satisfy its deadline under `L_max`,
    /// * one slot must fit at least one largest frame at the given link
    ///   rate (otherwise a frame cannot cross a slot boundary cleanly).
    ///
    /// # Errors
    ///
    /// [`TsnError::InvalidParameter`] for a zero slot;
    /// [`TsnError::ScheduleInfeasible`] naming the violated constraint.
    pub fn with_slot(
        requirements: &AppRequirements,
        slot: SimDuration,
        link_rate: DataRate,
    ) -> TsnResult<Self> {
        if slot.is_zero() {
            return Err(TsnError::invalid_parameter("slot", "must be non-zero"));
        }
        let max_frame = requirements.flows().max_frame_bytes().unwrap_or(64);
        let frame_time = link_rate.serialization_time(max_frame + 20);
        if frame_time > slot {
            return Err(TsnError::ScheduleInfeasible(format!(
                "slot {slot} is shorter than one {max_frame}B frame ({frame_time})"
            )));
        }
        let mut worst = SimDuration::ZERO;
        for (flow, route) in requirements.ts_flow_routes() {
            let (_, l_max) = latency_bounds(route.switch_hops() as u64, slot);
            if l_max > flow.deadline() {
                return Err(TsnError::ScheduleInfeasible(format!(
                    "{}: L_max {} exceeds deadline {} at slot {}",
                    flow.id(),
                    l_max,
                    flow.deadline(),
                    slot
                )));
            }
            worst = worst.max(l_max);
        }
        let cycle = requirements
            .flows()
            .scheduling_cycle()
            .unwrap_or(SimDuration::from_millis(10));
        let phases = cycle.as_nanos().div_ceil(slot.as_nanos());
        Ok(CqfPlan {
            slot,
            phases: phases.max(1),
            cycle,
            gate_size: 2,
            worst_latency: worst,
        })
    }

    /// Plans CQF choosing the largest feasible slot: the biggest value
    /// (rounded down to whole microseconds) such that every flow meets
    /// its deadline under `L_max = (hop+1)·slot`.
    ///
    /// A larger slot means fewer gate events and more queueing slack per
    /// slot; the deadline is the binding constraint.
    ///
    /// # Errors
    ///
    /// [`TsnError::ScheduleInfeasible`] if even the smallest workable
    /// slot (one max-frame serialization time) misses a deadline.
    pub fn choose_slot(requirements: &AppRequirements, link_rate: DataRate) -> TsnResult<Self> {
        let mut tightest = SimDuration::from_secs(3600);
        for (flow, route) in requirements.ts_flow_routes() {
            let hop = route.switch_hops() as u64 + 1;
            tightest = tightest.min(flow.deadline() / hop);
        }
        // Round down to whole microseconds (hardware slot registers are
        // coarse); keep at least 1 µs.
        let micros = tightest.as_nanos() / 1_000;
        if micros == 0 {
            return Err(TsnError::ScheduleInfeasible(
                "deadlines are too tight for any microsecond-granular slot".to_owned(),
            ));
        }
        CqfPlan::with_slot(requirements, SimDuration::from_micros(micros), link_rate)
    }

    /// How many largest-frame transmissions fit into one slot at
    /// `link_rate` — the hard ceiling on per-port per-slot TS load.
    #[must_use]
    pub fn frames_per_slot(&self, frame_bytes: u32, link_rate: DataRate) -> u64 {
        let per_frame = link_rate.serialization_time(frame_bytes + 20);
        if per_frame.is_zero() {
            return u64::MAX;
        }
        self.slot.as_nanos() / per_frame.as_nanos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_topology::presets;
    use tsn_types::{FlowId, FlowSet, TsFlowSpec};

    fn scenario(deadline_ms: u64) -> AppRequirements {
        let topo = presets::ring(6, 3).expect("builds");
        let hosts = topo.hosts();
        let mut flows = FlowSet::new();
        for id in 0..4u32 {
            flows.push(
                TsFlowSpec::new(
                    FlowId::new(id),
                    hosts[0],
                    hosts[1],
                    SimDuration::from_millis(10),
                    SimDuration::from_millis(deadline_ms),
                    64,
                )
                .expect("valid flow")
                .into(),
            );
        }
        AppRequirements::new(topo, flows, SimDuration::from_nanos(50)).expect("valid scenario")
    }

    #[test]
    fn latency_bounds_match_eq1() {
        let slot = SimDuration::from_micros(65);
        assert_eq!(
            latency_bounds(1, slot),
            (SimDuration::ZERO, SimDuration::from_micros(130))
        );
        assert_eq!(
            latency_bounds(3, slot),
            (SimDuration::from_micros(130), SimDuration::from_micros(260))
        );
        let (lo, hi) = latency_bounds(0, slot);
        assert_eq!(lo, SimDuration::ZERO);
        assert_eq!(hi, slot);
    }

    #[test]
    fn paper_slot_is_feasible_for_the_paper_scenario() {
        let req = scenario(1);
        let plan =
            CqfPlan::with_slot(&req, PAPER_SLOT, DataRate::gbps(1)).expect("65us slot feasible");
        assert_eq!(plan.gate_size, 2);
        assert_eq!(plan.cycle, SimDuration::from_millis(10));
        // ceil(10ms / 65us) = 154.
        assert_eq!(plan.phases, 154);
    }

    #[test]
    fn tight_deadline_rejects_large_slots() {
        // hop = 2 here, deadline 1 ms: slot must be <= 333 us.
        let req = scenario(1);
        assert!(CqfPlan::with_slot(&req, SimDuration::from_millis(1), DataRate::gbps(1)).is_err());
    }

    #[test]
    fn slot_must_fit_a_frame() {
        let req = scenario(8);
        // 64+20 bytes at 1 Gbps = 672 ns; a 500 ns slot cannot carry it.
        assert!(CqfPlan::with_slot(&req, SimDuration::from_nanos(500), DataRate::gbps(1)).is_err());
    }

    #[test]
    fn choose_slot_takes_the_deadline_bound() {
        let req = scenario(1);
        let plan = CqfPlan::choose_slot(&req, DataRate::gbps(1)).expect("feasible");
        // hop = 2 -> slot = floor(1ms / 3) = 333 us.
        assert_eq!(plan.slot, SimDuration::from_micros(333));
        // And the worst L_max is within every deadline.
        assert!(plan.worst_latency <= SimDuration::from_millis(1));
    }

    #[test]
    fn frames_per_slot_counts_serializations() {
        let req = scenario(8);
        let plan = CqfPlan::with_slot(&req, PAPER_SLOT, DataRate::gbps(1)).expect("feasible");
        // 65 us / 672 ns = 96 minimum-size frames.
        assert_eq!(plan.frames_per_slot(64, DataRate::gbps(1)), 96);
        // 65 us / 12.352 us = 5 MTU frames.
        assert_eq!(plan.frames_per_slot(1522, DataRate::gbps(1)), 5);
    }
}
