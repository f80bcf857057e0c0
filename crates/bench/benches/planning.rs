//! Planning-pipeline benchmarks: CQF slot selection, the ITP strategies
//! (the §V ablation axis), and the full Section III.C derivation.

use std::hint::black_box;
use tsn_bench::Runner;
use tsn_builder::{cqf::CqfPlan, derive_parameters, itp, AppRequirements, DeriveOptions};
use tsn_topology::presets;
use tsn_types::{DataRate, SimDuration};

fn requirements(flow_count: u32) -> AppRequirements {
    let topo = presets::ring(6, 3).expect("topology builds");
    let flows =
        tsn_builder::workloads::iec60802_ts_flows(&topo, flow_count, 42).expect("workload builds");
    AppRequirements::new(topo, flows, SimDuration::from_nanos(50)).expect("valid requirements")
}

fn main() {
    let runner = Runner::from_env();

    let req = requirements(256);
    runner.bench("cqf/choose_slot", || {
        CqfPlan::choose_slot(black_box(&req), DataRate::gbps(1)).expect("feasible")
    });

    let plan = CqfPlan::with_slot(&req, tsn_builder::PAPER_SLOT, DataRate::gbps(1))
        .expect("slot feasible");
    for strategy in [
        itp::Strategy::AllZero,
        itp::Strategy::UniformSpread,
        itp::Strategy::GreedyLeastLoaded,
    ] {
        runner.bench(&format!("itp/{strategy:?}"), || {
            itp::plan(black_box(&req), &plan, strategy).expect("plans")
        });
    }

    for flows in [64u32, 256, 1024] {
        let req = requirements(flows);
        let plan = CqfPlan::with_slot(&req, tsn_builder::PAPER_SLOT, DataRate::gbps(1))
            .expect("slot feasible");
        runner.bench(&format!("itp_scaling/{flows}"), || {
            itp::plan(black_box(&req), &plan, itp::Strategy::GreedyLeastLoaded).expect("plans")
        });
    }

    {
        // The Fig. 2 shape: a 3-switch ring, 1023 TS flows on one 3-hop
        // path, the paper's slot — the plan every Fig. 2 point makes.
        let topo = presets::ring(3, 3).expect("topology builds");
        let hosts = topo.hosts();
        let flows = tsn_builder::workloads::ts_flows_fixed_path(
            1023,
            hosts[0],
            hosts[2],
            64,
            SimDuration::from_millis(8),
        )
        .expect("workload builds");
        let req = AppRequirements::new(topo, flows, SimDuration::from_nanos(50))
            .expect("valid requirements");
        let plan = CqfPlan::with_slot(&req, tsn_builder::PAPER_SLOT, DataRate::gbps(1))
            .expect("slot feasible");
        runner.bench("itp/fig2_ring_1023", || {
            itp::plan(black_box(&req), &plan, itp::Strategy::GreedyLeastLoaded).expect("plans")
        });
    }

    let options = DeriveOptions::paper();
    runner.bench("derive/full_pipeline_256_flows", || {
        derive_parameters(black_box(&req), &options).expect("derives")
    });

    {
        use tsn_builder::tas::TasSchedule;
        use tsn_switch::QueueLayout;
        let req = requirements(256);
        let plan = CqfPlan::with_slot(&req, tsn_builder::PAPER_SLOT, DataRate::gbps(1))
            .expect("slot feasible");
        let planned = itp::plan(&req, &plan, itp::Strategy::GreedyLeastLoaded).expect("itp plans");
        let layout = QueueLayout::standard8();
        runner.bench("tas/synthesize_256_flows", || {
            TasSchedule::synthesize(black_box(&req), &plan, &planned, &layout).expect("synthesizes")
        });
    }

    {
        use tsn_builder::PerSwitchConfig;
        let topo = presets::star(3, 3).expect("topology builds");
        let flows =
            tsn_builder::workloads::iec60802_ts_flows(&topo, 256, 42).expect("workload builds");
        let req = tsn_builder::AppRequirements::new(topo, flows, SimDuration::from_nanos(50))
            .expect("valid requirements");
        let options = DeriveOptions::paper();
        runner.bench("per_switch/derive_star_256_flows", || {
            PerSwitchConfig::derive(black_box(&req), &options).expect("derives")
        });
    }
}
