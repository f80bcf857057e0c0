//! Injection Time Planning — the queue/buffer optimizer of reference
//! \[24\] ("Injection Time Planning: Making CQF Practical in Time-Sensitive
//! Networking"), in its greedy least-loaded form.
//!
//! Under CQF, all TS frames that arrive at a port within the same slot
//! occupy the same queue simultaneously, so the *peak per-slot occupancy*
//! is exactly the `queue_depth` the hardware must provision. ITP chooses
//! each flow's injection offset (which slot of its period it fires in) to
//! flatten that peak — this is what lets the paper shrink depth 16 → 12
//! and buffers 128 → 96 at equal QoS.

use crate::cqf::CqfPlan;
use crate::requirements::AppRequirements;
use std::collections::HashMap;
use tsn_types::{FlowMap, NodeId, PortId, SimDuration, TsnResult};

/// Offset-selection strategy (the ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The ITP greedy: each flow takes the offset that minimizes the
    /// worst occupancy along its own path.
    GreedyLeastLoaded,
    /// No planning: every flow injects at phase 0 (the worst case a
    /// naive deployment produces).
    AllZero,
    /// Round-robin phase spreading without load feedback.
    UniformSpread,
}

/// The planning result.
#[derive(Debug, Clone, PartialEq)]
pub struct ItpResult {
    /// Chosen injection offset per TS flow (dense `FlowId`-indexed).
    pub offsets: FlowMap<SimDuration>,
    /// Peak simultaneous TS frames in any (port, slot phase) cell — the
    /// minimum safe `queue_depth`.
    pub max_occupancy: u32,
    /// Number of distinct (port, phase) cells carrying load.
    pub loaded_cells: usize,
    /// The strategy that produced this plan.
    pub strategy: Strategy,
}

impl ItpResult {
    /// The queue depth to provision: the observed peak plus one slot of
    /// slack (guards against sub-slot arrival skew at slot boundaries).
    #[must_use]
    pub fn recommended_queue_depth(&self) -> u32 {
        self.max_occupancy + 1
    }
}

/// Plans injection offsets for every TS flow of `requirements` under the
/// CQF `plan`.
///
/// Occupancy lives in a dense table: one row of `hyper` slot counters per
/// egress port that carries TS load, where `hyper` is the LCM of the
/// flows' periods in slots (clamped to 2^22). The table therefore takes
/// loaded egress ports × `hyper` × 4 bytes — 16 MiB per loaded port at
/// the clamp. The greedy scan reads O(flows × phases × hops × repeats)
/// counters at worst, and stops early on a phase that cannot win.
///
/// # Errors
///
/// Propagates routing errors.
///
/// # Example
///
/// ```
/// use tsn_builder::{cqf::CqfPlan, itp, requirements::AppRequirements};
/// use tsn_topology::presets;
/// use tsn_types::{DataRate, FlowId, FlowSet, SimDuration, TsFlowSpec};
///
/// let topo = presets::ring(6, 3)?;
/// let hosts = topo.hosts();
/// let mut flows = FlowSet::new();
/// for id in 0..32 {
///     flows.push(TsFlowSpec::new(
///         FlowId::new(id), hosts[0], hosts[1],
///         SimDuration::from_millis(10), SimDuration::from_millis(8), 64,
///     )?.into());
/// }
/// let req = AppRequirements::new(topo, flows, SimDuration::from_nanos(50))?;
/// let plan = CqfPlan::with_slot(&req, SimDuration::from_micros(65), DataRate::gbps(1))?;
/// let greedy = itp::plan(&req, &plan, itp::Strategy::GreedyLeastLoaded)?;
/// let naive = itp::plan(&req, &plan, itp::Strategy::AllZero)?;
/// assert!(greedy.max_occupancy < naive.max_occupancy);
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
pub fn plan(
    requirements: &AppRequirements,
    plan: &CqfPlan,
    strategy: Strategy,
) -> TsnResult<ItpResult> {
    let slot_ns = plan.slot.as_nanos();

    // Slot-aligned talkers advance exactly ceil(period/slot) slots per
    // period (see `Generator::aligned_to`); the occupancy pattern repeats
    // with the LCM of those *effective* periods. Using the same
    // arithmetic here keeps the plan exact, not approximate.
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }
    let mut hyper: u64 = 1;
    for flow in requirements.flows().ts_flows() {
        let per = flow.period().as_nanos().div_ceil(slot_ns).max(1);
        hyper = (hyper / gcd(hyper, per)).saturating_mul(per);
        hyper = hyper.min(1 << 22); // bound pathological period mixes
    }

    // occupancy[row * hyper + phase] = TS frames resident in that slot at
    // the egress port the row stands for. A row is allocated the first
    // time a flow's path crosses its port, so the table holds only ports
    // that carry load.
    let hyper_len = hyper as usize; // at most 2^22
    let mut rows: HashMap<(NodeId, PortId), usize> = HashMap::new();
    let mut occupancy: Vec<u32> = Vec::new();
    let mut offsets = FlowMap::new();
    let mut spread_cursor: u64 = 0;
    // The egress cells of the current flow as (row start, hop index):
    // hop k is reached k slots after the injection phase.
    let mut cells: Vec<(usize, u64)> = Vec::new();

    // Deterministic order: flows sorted by id.
    let mut ts: Vec<_> = requirements.flows().ts_flows().collect();
    ts.sort_by_key(|f| f.id());

    // One BFS per distinct talker, shared across its flows — at 100k+
    // flows the per-flow BFS was the planner's real quadratic cost.
    let mut route_trees = tsn_topology::RouteTreeCache::new();
    for flow in ts {
        let route = route_trees.route(requirements.topology(), flow.src(), flow.dst())?;
        cells.clear();
        for (k, hop) in route.switch_hops_iter().enumerate() {
            let Some(egress) = hop.egress else { continue };
            let row = *rows.entry((hop.node, egress)).or_insert_with(|| {
                let start = occupancy.len();
                occupancy.resize(start + hyper_len, 0);
                start
            });
            cells.push((row, k as u64));
        }
        let per_slots = flow.period().as_nanos().div_ceil(slot_ns).max(1);
        let candidate_phases = per_slots;
        let repeats = (hyper / per_slots).max(1);

        // The table index of the cell `k` hops after base phase `base`.
        // `base + k` passes `hyper` only near the wrap (or when the
        // period outgrows a clamped `hyper`), so the division is rare.
        let index = |base: u64, row: usize, k: u64| -> usize {
            let mut phase = base + k;
            if phase >= hyper {
                phase %= hyper;
            }
            row + phase as usize
        };

        let chosen = match strategy {
            Strategy::AllZero => 0,
            Strategy::UniformSpread => {
                let o = spread_cursor % candidate_phases;
                spread_cursor += 1;
                o
            }
            Strategy::GreedyLeastLoaded => {
                // The smallest phase of least worst-case occupancy. A
                // phase is dropped as soon as its running worst reaches
                // the best so far (it could only tie, and ties go to the
                // smaller phase); a zero-cost phase cannot be beaten.
                let mut best = (u32::MAX, 0);
                'phases: for o in 0..candidate_phases {
                    let mut worst = 0;
                    for n in 0..repeats {
                        let base = o + n * per_slots;
                        for &(row, k) in &cells {
                            worst = worst.max(occupancy[index(base, row, k)]);
                            if worst >= best.0 {
                                continue 'phases;
                            }
                        }
                    }
                    best = (worst, o);
                    if worst == 0 {
                        break;
                    }
                }
                best.1
            }
        };

        for n in 0..repeats {
            let base = chosen + n * per_slots;
            for &(row, k) in &cells {
                occupancy[index(base, row, k)] += 1;
            }
        }
        offsets.insert(flow.id(), SimDuration::from_nanos(chosen * slot_ns));
    }

    let (max_occupancy, loaded_cells) = occupancy
        .iter()
        .filter(|&&count| count > 0)
        .fold((0, 0), |(max, cells), &count| (max.max(count), cells + 1));
    Ok(ItpResult {
        offsets,
        max_occupancy,
        loaded_cells,
        strategy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_topology::presets;
    use tsn_types::{DataRate, FlowId, FlowSet, TsFlowSpec};

    fn scenario(flow_count: u32) -> (AppRequirements, CqfPlan) {
        let topo = presets::ring(6, 3).expect("builds");
        let hosts = topo.hosts();
        let mut flows = FlowSet::new();
        for id in 0..flow_count {
            flows.push(
                TsFlowSpec::new(
                    FlowId::new(id),
                    hosts[(id as usize) % 2],
                    hosts[(id as usize) % 2 + 1],
                    SimDuration::from_millis(10),
                    SimDuration::from_millis(8),
                    64,
                )
                .expect("valid flow")
                .into(),
            );
        }
        let req =
            AppRequirements::new(topo, flows, SimDuration::from_nanos(50)).expect("valid scenario");
        let plan = CqfPlan::with_slot(&req, SimDuration::from_micros(65), DataRate::gbps(1))
            .expect("feasible");
        (req, plan)
    }

    #[test]
    fn greedy_flattens_the_peak() {
        let (req, cqf) = scenario(64);
        let naive = plan(&req, &cqf, Strategy::AllZero).expect("plans");
        let greedy = plan(&req, &cqf, Strategy::GreedyLeastLoaded).expect("plans");
        // All-zero stacks every flow into the same phase.
        assert!(naive.max_occupancy >= 32);
        assert!(
            greedy.max_occupancy <= 2,
            "64 flows over 153 phases should spread to ~1 per cell, got {}",
            greedy.max_occupancy
        );
        assert!(greedy.loaded_cells > naive.loaded_cells);
    }

    #[test]
    fn uniform_spread_sits_between() {
        let (req, cqf) = scenario(64);
        let naive = plan(&req, &cqf, Strategy::AllZero).expect("plans");
        let spread = plan(&req, &cqf, Strategy::UniformSpread).expect("plans");
        let greedy = plan(&req, &cqf, Strategy::GreedyLeastLoaded).expect("plans");
        assert!(spread.max_occupancy <= naive.max_occupancy);
        assert!(greedy.max_occupancy <= spread.max_occupancy);
    }

    #[test]
    fn offsets_are_within_the_period() {
        let (req, cqf) = scenario(32);
        let result = plan(&req, &cqf, Strategy::GreedyLeastLoaded).expect("plans");
        assert_eq!(result.offsets.len(), 32);
        for offset in result.offsets.values() {
            assert!(*offset < SimDuration::from_millis(10));
        }
    }

    #[test]
    fn recommended_depth_adds_slack() {
        let (req, cqf) = scenario(16);
        let result = plan(&req, &cqf, Strategy::GreedyLeastLoaded).expect("plans");
        assert_eq!(result.recommended_queue_depth(), result.max_occupancy + 1);
    }

    #[test]
    fn paper_scale_fits_depth_12() {
        // 1024 flows, 10 ms period, 65 us slot: the paper provisions
        // depth 12; greedy ITP must stay at or below that.
        let (req, cqf) = scenario(1024);
        let result = plan(&req, &cqf, Strategy::GreedyLeastLoaded).expect("plans");
        assert!(
            result.recommended_queue_depth() <= 12,
            "greedy ITP should meet the paper's depth budget, got {}",
            result.recommended_queue_depth()
        );
    }

    /// The planner as it was before the dense occupancy table: one hashed
    /// `(node, port, phase)` lookup per candidate phase, repeat and hop.
    /// Kept verbatim as the oracle the dense loop must reproduce.
    fn reference(
        requirements: &AppRequirements,
        plan: &CqfPlan,
        strategy: Strategy,
    ) -> TsnResult<ItpResult> {
        let slot_ns = plan.slot.as_nanos();

        fn gcd(mut a: u64, mut b: u64) -> u64 {
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        }
        let mut hyper: u64 = 1;
        for flow in requirements.flows().ts_flows() {
            let per = flow.period().as_nanos().div_ceil(slot_ns).max(1);
            hyper = (hyper / gcd(hyper, per)).saturating_mul(per);
            hyper = hyper.min(1 << 22); // bound pathological period mixes
        }

        // occupancy[(node, port, phase)] = TS frames resident in that slot.
        let mut occupancy: HashMap<(NodeId, PortId, u64), u32> = HashMap::new();
        let mut offsets = FlowMap::new();
        let mut spread_cursor: u64 = 0;

        // Deterministic order: flows sorted by id.
        let mut ts: Vec<_> = requirements.flows().ts_flows().collect();
        ts.sort_by_key(|f| f.id());

        let mut route_trees = tsn_topology::RouteTreeCache::new();
        for flow in ts {
            let route = route_trees.route(requirements.topology(), flow.src(), flow.dst())?;
            // The egress cells this flow occupies, relative to its injection
            // phase: hop k is reached k slots later.
            let cells: Vec<(NodeId, PortId, u64)> = route
                .switch_hops_iter()
                .enumerate()
                .filter_map(|(k, hop)| hop.egress.map(|e| (hop.node, e, k as u64)))
                .collect();
            let per_slots = flow.period().as_nanos().div_ceil(slot_ns).max(1);
            let candidate_phases = per_slots;
            let repeats = (hyper / per_slots).max(1);

            let phase_cost = |o: u64, occupancy: &HashMap<(NodeId, PortId, u64), u32>| -> u32 {
                let mut worst = 0;
                for n in 0..repeats {
                    let base_phase = o + n * per_slots;
                    for &(node, port, k) in &cells {
                        let phase = (base_phase + k) % hyper;
                        worst =
                            worst.max(occupancy.get(&(node, port, phase)).copied().unwrap_or(0));
                    }
                }
                worst
            };

            let chosen = match strategy {
                Strategy::AllZero => 0,
                Strategy::UniformSpread => {
                    let o = spread_cursor % candidate_phases;
                    spread_cursor += 1;
                    o
                }
                Strategy::GreedyLeastLoaded => (0..candidate_phases)
                    .min_by_key(|&o| (phase_cost(o, &occupancy), o))
                    .unwrap_or(0),
            };

            for n in 0..repeats {
                let base_phase = chosen + n * per_slots;
                for &(node, port, k) in &cells {
                    let phase = (base_phase + k) % hyper;
                    *occupancy.entry((node, port, phase)).or_insert(0) += 1;
                }
            }
            offsets.insert(flow.id(), SimDuration::from_nanos(chosen * slot_ns));
        }

        let max_occupancy = occupancy.values().copied().max().unwrap_or(0);
        Ok(ItpResult {
            offsets,
            max_occupancy,
            loaded_cells: occupancy.len(),
            strategy,
        })
    }

    const STRATEGIES: [Strategy; 3] = [
        Strategy::GreedyLeastLoaded,
        Strategy::AllZero,
        Strategy::UniformSpread,
    ];

    /// A seeded random scenario on `topo`: `flow_count` TS flows between
    /// random host pairs, at least two distinct talkers, periods drawn
    /// from a mix whose slot counts (5, 10, 11, 20, 50 at a 100 us slot)
    /// make the cycle an LCM of 1100 slots, so short-period flows repeat
    /// many times and late hops wrap past the cycle end.
    fn random_scenario(
        topo: tsn_topology::Topology,
        flow_count: u32,
        seed: u64,
    ) -> (AppRequirements, CqfPlan) {
        use tsn_types::SplitMix64;
        const PERIODS_US: [u64; 5] = [500, 1_000, 1_050, 2_000, 5_000];
        let hosts = topo.hosts();
        assert!(hosts.len() >= 2, "scenarios need two hosts");
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut flows = FlowSet::new();
        for id in 0..flow_count {
            // The first two flows come from different talkers.
            let src = if id < 2 {
                id as usize
            } else {
                rng.gen_range(hosts.len() as u64) as usize
            };
            let step = 1 + rng.gen_range(hosts.len() as u64 - 1) as usize;
            let dst = (src + step) % hosts.len();
            let period = PERIODS_US[rng.gen_range(PERIODS_US.len() as u64) as usize];
            flows.push(
                TsFlowSpec::new(
                    FlowId::new(id),
                    hosts[src],
                    hosts[dst],
                    SimDuration::from_micros(period),
                    SimDuration::from_millis(100),
                    64,
                )
                .expect("valid flow")
                .into(),
            );
        }
        let req =
            AppRequirements::new(topo, flows, SimDuration::from_nanos(50)).expect("valid scenario");
        let plan = CqfPlan::with_slot(&req, SimDuration::from_micros(100), DataRate::gbps(1))
            .expect("feasible");
        (req, plan)
    }

    fn assert_matches_reference(req: &AppRequirements, cqf: &CqfPlan, label: &str) {
        for strategy in STRATEGIES {
            let dense = plan(req, cqf, strategy).expect("plans");
            let oracle = reference(req, cqf, strategy).expect("plans");
            assert_eq!(dense, oracle, "{label}: {strategy:?} diverged");
        }
    }

    #[test]
    fn dense_planner_matches_the_hashed_reference() {
        let mut cases = 0;
        for seed in 0..6u64 {
            let topologies = [
                (
                    "ring",
                    presets::ring(3 + seed as usize % 4, 3).expect("builds"),
                ),
                ("star", presets::star(3, 3).expect("builds")),
                ("fat_tree", presets::fat_tree(4).expect("builds")),
            ];
            for (name, topo) in topologies {
                // From sparse (zero-cost exits) to crowded (ties and
                // early exits everywhere).
                let flow_count = 4 + (seed as u32 * 37) % 120;
                let (req, cqf) = random_scenario(topo, flow_count, seed);
                assert_matches_reference(&req, &cqf, &format!("{name} seed {seed}"));
                cases += 1;
            }
        }
        assert_eq!(cases, 18);
    }

    #[test]
    fn dense_planner_matches_the_reference_at_paper_scale() {
        let (req, cqf) = scenario(1023);
        assert_matches_reference(&req, &cqf, "ring(6, 3) x 1023");
    }

    #[test]
    fn clamped_cycle_plans_deterministically() {
        // Coprime periods at a 1 us slot: 1009, 1013 and 1019 slots have
        // an LCM of ~1.04e9, so the cycle is clamped to 2^22 slots and is
        // no multiple of any period. Two switches keep the dense table at
        // two rows (32 MiB).
        let topo = presets::linear(2, 2).expect("builds");
        let hosts = topo.hosts();
        let mut flows = FlowSet::new();
        for (id, period_us) in [1009u64, 1013, 1019].into_iter().enumerate() {
            flows.push(
                TsFlowSpec::new(
                    FlowId::new(id as u32),
                    hosts[0],
                    hosts[1],
                    SimDuration::from_micros(period_us),
                    SimDuration::from_millis(100),
                    64,
                )
                .expect("valid flow")
                .into(),
            );
        }
        let req =
            AppRequirements::new(topo, flows, SimDuration::from_nanos(50)).expect("valid scenario");
        let cqf = CqfPlan::with_slot(&req, SimDuration::from_micros(1), DataRate::gbps(1))
            .expect("feasible");
        let a = plan(&req, &cqf, Strategy::GreedyLeastLoaded).expect("plans");
        let b = plan(&req, &cqf, Strategy::GreedyLeastLoaded).expect("plans");
        assert_eq!(a, b);
        assert_eq!(a.offsets.len(), 3);
        for (id, offset) in a.offsets.iter() {
            let period = [1009u64, 1013, 1019][id.as_usize()];
            assert!(*offset < SimDuration::from_micros(period));
        }
        // Each flow repeats (2^22 / period) times over two egress ports.
        let repeats: usize = [1009usize, 1013, 1019].iter().map(|p| (1 << 22) / p).sum();
        assert!(a.loaded_cells <= 2 * repeats);
        assert!(a.loaded_cells > repeats);
        assert!(a.max_occupancy >= 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let (req, cqf) = scenario(64);
        let a = plan(&req, &cqf, Strategy::GreedyLeastLoaded).expect("plans");
        let b = plan(&req, &cqf, Strategy::GreedyLeastLoaded).expect("plans");
        assert_eq!(a, b);
    }
}
