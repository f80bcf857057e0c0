//! Layer microcases, fed from the owning plant workload's own inputs.
//!
//! * The event queue under the plant's slot-burst injection pattern, for
//!   both [`EventQueueKind`]s; their ratio is an in-run ratio.
//! * The four switch pipeline stages and the whole core, populated with
//!   the entries of the busiest switch of the plant's first cell.
//! * `Analyzer::note_injected`/`note_delivered` at 10k and 100k flow
//!   capacity, in the order a slot burst delivers; their ratio is an
//!   in-run ratio too.

use crate::calib;
use std::hint::black_box;
use std::time::Instant;
use tsn_builder::plant::{large_plant, LargePlant};
use tsn_sim::analyzer::Analyzer;
use tsn_sim::event::{Event, EventQueue, EventQueueKind};
use tsn_sim::network::{mac_for, vlan_for};
use tsn_switch::{
    ClassEntry, ClassKey, EgressScheduler, GateControlList, GateCtrl, IngressFilter, PacketSwitch,
    PortKind, QueueLayout, SwitchSpec, TsnSwitchCore,
};
use tsn_topology::RouteTreeCache;
use tsn_types::{EthernetFrame, FlowId, NodeId, PortId, SimDuration, SimTime, TrafficClass};

/// Repetitions per microcase; the median is reported.
const REPS: usize = 5;
/// Minimum measured operations per repetition.
const MIN_OPS: u64 = 200_000;
/// Store-and-forward hops each event-queue token makes after injection.
const HOPS: usize = 4;
/// One 64-byte frame plus the 2 µs pipeline delay, per hop.
const HOP_NS: u64 = 672 + 2_000;

/// Times `op` (which returns how many operations it did) until at least
/// [`MIN_OPS`] operations ran; returns ns per operation.
fn ns_per_op(mut op: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut ops = 0;
    while ops < MIN_OPS {
        ops += op();
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// [`REPS`] samples of `case`, each scaled to the reference host by a
/// calibration run just before it.
fn reps(mut case: impl FnMut() -> f64) -> Vec<f64> {
    (0..REPS)
        .map(|_| {
            let speed = calib::REFERENCE_NS / calib::kernel_ns();
            case() * speed
        })
        .collect()
}

/// Every microcase for `plant`.
#[must_use]
pub fn plant_cases(plant: &LargePlant) -> Vec<(&'static str, Vec<f64>)> {
    let mut out = event_queue_cases(plant);
    out.extend(switch_cases(plant));
    out.extend(analyzer_cases(plant));
    out
}

/// Schedule/pop cost per operation under the slot-burst pattern: every
/// flow's first injection lands on one of the period's slot boundaries
/// (hundreds of equal timestamps each), then each token is re-scheduled
/// [`HOPS`] times one hop later, as frames crossing switches are.
fn event_queue_cases(plant: &LargePlant) -> Vec<(&'static str, Vec<f64>)> {
    let times: Vec<SimTime> = plant
        .offsets
        .values()
        .map(|&offset| SimTime::ZERO + offset)
        .collect();
    let case = |kind: EventQueueKind| {
        ns_per_op(|| {
            let mut queue = EventQueue::with_kind(kind);
            for (i, &at) in times.iter().enumerate() {
                queue.schedule(
                    at,
                    Event::Inject {
                        node: NodeId::new(i as u32),
                        generator: HOPS,
                    },
                );
            }
            let mut ops = times.len() as u64;
            while let Some((at, event)) = queue.pop() {
                ops += 1;
                if let Event::Inject { node, generator } = event {
                    if generator > 0 {
                        let next = Event::Inject {
                            node,
                            generator: generator - 1,
                        };
                        queue.schedule(at + SimDuration::from_nanos(HOP_NS), next);
                        ops += 1;
                    }
                }
            }
            black_box(queue.len());
            ops
        })
    };
    let calendar = reps(|| case(EventQueueKind::Calendar));
    let heap = reps(|| case(EventQueueKind::BinaryHeap));
    let ratio = heap.iter().zip(&calendar).map(|(h, c)| h / c).collect();
    vec![
        ("event_queue.calendar_ns_per_op", calendar),
        ("event_queue.heap_ns_per_op", heap),
        ("event_queue.heap_vs_calendar", ratio),
    ]
}

/// One routed flow through the chosen switch.
struct Entry {
    frame: EthernetFrame,
    egress: PortId,
}

/// The flows of the busiest switch of the plant's first cell ring.
fn busiest_switch_entries(plant: &LargePlant) -> Option<(NodeId, Vec<Entry>)> {
    let topo = &plant.topology;
    let cell_switches = &topo.switches()[..plant.dims.ring_size.min(topo.switches().len())];
    let mut cache = RouteTreeCache::new();
    let mut per_switch: Vec<Vec<Entry>> = cell_switches.iter().map(|_| Vec::new()).collect();
    for flow in plant.flows.iter() {
        let route = cache.route(topo, flow.src(), flow.dst()).ok()?;
        for hop in route.switch_hops_iter() {
            let Some(i) = cell_switches.iter().position(|&s| s == hop.node) else {
                continue;
            };
            let frame = EthernetFrame::builder()
                .src(mac_for(flow.src()))
                .dst(mac_for(flow.dst()))
                .vlan(vlan_for(flow.id()))
                .class(flow.class())
                .size_bytes(64)
                .flow(flow.id())
                .build()
                .ok()?;
            per_switch[i].push(Entry {
                frame,
                egress: hop.egress?,
            });
        }
    }
    let (i, entries) = per_switch
        .into_iter()
        .enumerate()
        .max_by_key(|(_, e)| e.len())?;
    Some((cell_switches[i], entries))
}

fn switch_cases(plant: &LargePlant) -> Vec<(&'static str, Vec<f64>)> {
    let Some((node, entries)) = busiest_switch_entries(plant) else {
        return Vec::new();
    };
    if entries.is_empty() {
        return Vec::new();
    }
    let res = &plant.config.resources;
    let layout = QueueLayout::standard8();
    let slot = plant.config.slot;
    let queue_of = |e: &Entry| {
        layout.spread_queue(
            TrafficClass::TimeSensitive,
            u64::from(e.frame.flow().index()),
        )
    };
    let frame_gap = SimDuration::from_nanos(672);
    let n = entries.len() as u64;

    // Packet Switch: aggregated unicast entries, as the plant installs.
    let mut ps = PacketSwitch::new(res.unicast_size() as usize, res.multicast_size() as usize);
    for e in &entries {
        let _ = ps.add_unicast_any_vlan(e.frame.dst(), e.egress);
    }
    let lookup = reps(|| {
        ns_per_op(|| {
            for e in &entries {
                black_box(ps.lookup(black_box(&e.frame)));
            }
            n
        })
    });

    // Ingress Filter: one per-stream classification entry per flow.
    let mut filter = IngressFilter::new(
        res.class_size() as usize,
        res.meter_size() as usize,
        layout.clone(),
    );
    for e in &entries {
        let _ = filter.add_class_entry(
            ClassKey::of(&e.frame),
            ClassEntry {
                queue: queue_of(e),
                meter: None,
            },
        );
    }
    let mut now = SimTime::ZERO;
    let ingress = reps(|| {
        ns_per_op(|| {
            for e in &entries {
                now += frame_gap;
                black_box(filter.classify(black_box(&e.frame), now));
            }
            n
        })
    });

    // Gate Ctrl: CQF enqueue into the frame's queue, then dequeue.
    let mut gates = match GateCtrl::cqf(layout.clone(), res.queue_depth() as usize, slot) {
        Ok(g) => g,
        Err(_) => return Vec::new(),
    };
    let mut now = SimTime::ZERO;
    let gate = reps(|| {
        ns_per_op(|| {
            for e in &entries {
                now += frame_gap;
                if let Ok(q) = gates.enqueue(queue_of(e), e.frame, now) {
                    black_box(gates.pop(q));
                }
            }
            n
        })
    });

    // Egress Sched: strict-priority selection over queues the switch's
    // frames fill, with always-open gates.
    let mut open = match GateCtrl::new(
        layout.clone(),
        res.queue_depth() as usize,
        GateControlList::always_open(slot),
        GateControlList::always_open(slot),
    ) {
        Ok(g) => g,
        Err(_) => return Vec::new(),
    };
    for e in &entries {
        let _ = open.enqueue(queue_of(e), e.frame, SimTime::ZERO);
    }
    let mut sched = EgressScheduler::new(
        layout.queue_num(),
        res.cbs_map_size() as usize,
        res.cbs_size() as usize,
    );
    let mut now = SimTime::ZERO;
    let egress = reps(|| {
        ns_per_op(|| {
            for _ in 0..n {
                now += frame_gap;
                black_box(sched.select(&open, now));
            }
            n
        })
    });

    // The whole core: receive (filter, lookup, enqueue) then dequeue.
    let topo = &plant.topology;
    let ports: Vec<PortKind> = (0..topo.port_count(node))
        .map(|p| {
            let peer_is_switch = topo
                .link_at(node, PortId::new(p as u16))
                .ok()
                .and_then(|l| l.peer_of(node))
                .and_then(|peer| topo.node(peer.node).ok())
                .is_some_and(tsn_topology::Node::is_switch);
            if peer_is_switch {
                PortKind::Tsn
            } else {
                PortKind::Edge
            }
        })
        .collect();
    let spec = SwitchSpec::new(res, ports, slot);
    let Ok(mut core) = TsnSwitchCore::new(&spec) else {
        return Vec::new();
    };
    for e in &entries {
        let _ = core.add_unicast_any_vlan(e.frame.dst(), e.egress);
        let _ = core.add_class_entry(
            ClassKey::of(&e.frame),
            ClassEntry {
                queue: queue_of(e),
                meter: None,
            },
        );
    }
    let mut out = Vec::with_capacity(4);
    let mut now = SimTime::ZERO;
    let whole = reps(|| {
        ns_per_op(|| {
            for e in &entries {
                now += frame_gap;
                out.clear();
                core.receive_into(e.frame, now, &mut out);
                // Drain one slot pair later, when CQF has opened the gate.
                black_box(core.dequeue(e.egress, now + slot + slot));
            }
            n
        })
    });
    vec![
        ("switch.lookup_ns", lookup),
        ("switch.ingress_filter_ns", ingress),
        ("switch.gate_ctrl_ns", gate),
        ("switch.egress_ns", egress),
        ("switch.core_ns", whole),
    ]
}

/// Flow ids in the order a slot burst delivers them: by injection
/// offset, then id — consecutive deliveries stride across cells.
fn burst_order(plant: &LargePlant) -> Vec<FlowId> {
    let mut order: Vec<(SimDuration, FlowId)> = plant
        .offsets
        .iter()
        .map(|(id, &offset)| (offset, id))
        .collect();
    order.sort_unstable();
    order.into_iter().map(|(_, id)| id).collect()
}

/// ns per `note_injected` + `note_delivered` pair at `plant`'s capacity.
fn analyzer_ns(plant: &LargePlant) -> Vec<f64> {
    let order = burst_order(plant);
    let capacity = order.len();
    let mut analyzer = Analyzer::with_flow_capacity(capacity);
    let mut round = 0u64;
    reps(|| {
        ns_per_op(|| {
            round += 1;
            let at = SimTime::ZERO + SimDuration::from_millis(10 * round);
            for (i, &flow) in order.iter().enumerate() {
                analyzer.note_injected(flow, TrafficClass::TimeSensitive);
                let latency = SimDuration::from_nanos(130_000 + (i as u64 % 64) * 256);
                analyzer.note_delivered(
                    flow,
                    TrafficClass::TimeSensitive,
                    at,
                    at + latency,
                    Some(SimDuration::from_millis(8)),
                );
            }
            black_box(analyzer.flow_count());
            capacity as u64
        })
    })
}

fn analyzer_cases(plant: &LargePlant) -> Vec<(&'static str, Vec<f64>)> {
    let own = analyzer_ns(plant);
    let at = |flows: u32| -> Option<Vec<f64>> {
        if plant.flows.len() == flows as usize {
            Some(own.clone())
        } else {
            large_plant(flows).ok().map(|p| analyzer_ns(&p))
        }
    };
    let (Some(small), Some(large)) = (at(10_000), at(100_000)) else {
        return vec![("analyzer.note_ns", own)];
    };
    let ratio = large.iter().zip(&small).map(|(l, s)| l / s).collect();
    vec![
        ("analyzer.note_ns", own),
        ("analyzer.note_100k_vs_10k", ratio),
    ]
}
