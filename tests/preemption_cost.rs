//! The cost of 802.3br frame preemption, counted in simulator events.
//!
//! With preemption on, every arriving frame kicks its egress port so an
//! express frame can interrupt the segment in flight. A kick that found
//! its port busy once re-armed itself for the end of the segment, so
//! kicks piled up behind every busy port and multiplied the event count
//! of a loaded ring about 47-fold. Today such a kick is dropped: the
//! segment's own completion services the backlog. Event counts are
//! deterministic, so this check gives the same verdict on any host.

use tsn_builder::{itp, workloads, AppRequirements, CqfPlan, Strategy, PAPER_SLOT};
use tsn_sim::network::{Network, SimConfig, SyncSetup};
use tsn_sim::report::SimReport;
use tsn_topology::presets;
use tsn_types::{DataRate, SimDuration, TsnError};

/// The loaded Fig. 2-style ring: 64 IEC 60802 TS flows under 300 Mbps of
/// RC and 300 Mbps of BE background, ITP-planned, 10 ms of traffic plus
/// a 5 ms drain, with preemption on or off.
fn loaded_ring(frame_preemption: bool) -> Result<SimReport, TsnError> {
    let topo = presets::ring(6, 3)?;
    let mut flows = workloads::iec60802_ts_flows(&topo, 64, 42)?;
    flows.extend(workloads::background_flows(
        &topo,
        DataRate::mbps(300),
        DataRate::mbps(300),
        10_000,
    )?);
    let req = AppRequirements::new(topo.clone(), flows.clone(), SimDuration::from_nanos(50))?;
    let plan = CqfPlan::with_slot(&req, PAPER_SLOT, DataRate::gbps(1))?;
    let offsets = itp::plan(&req, &plan, Strategy::GreedyLeastLoaded)?.offsets;
    let mut config = SimConfig::paper_defaults();
    config.duration = SimDuration::from_millis(10);
    config.drain = SimDuration::from_millis(5);
    config.sync = SyncSetup::Perfect;
    config.frame_preemption = frame_preemption;
    Ok(Network::build(topo, flows, &offsets, config)?.run())
}

#[test]
fn preemption_at_most_doubles_the_event_count() -> Result<(), TsnError> {
    let off = loaded_ring(false)?;
    let on = loaded_ring(true)?;
    assert!(on.preemptions > 0, "the background load must be preempted");
    assert_eq!(on.ts_lost(), 0);
    assert_eq!(off.ts_lost(), 0);
    assert!(
        on.events_processed <= 2 * off.events_processed,
        "preemption costs {} events against {} without it",
        on.events_processed,
        off.events_processed
    );
    Ok(())
}
