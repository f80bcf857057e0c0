//! The simulated statistics a pass reports and the checks compare.
//!
//! Every field is a deterministic count of the simulation, so two runs of
//! the same input must produce equal summaries. Latency is kept exact
//! (min, max, and the mean of the exact sum), never the analyzer's log2
//! histogram quantiles.

use std::fmt::Write as _;
use std::hash::Hasher as _;
use tsn_sim::SimReport;
use tsn_switch::stats::DropReason;
use tsn_types::TrafficClass;

/// Per-class frame counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassCounts {
    /// Frames the talkers injected.
    pub injected: u64,
    /// Frames lost end to end.
    pub lost: u64,
}

/// A simulation report reduced to the statistics the benchmark checks.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Events the loop processed.
    pub events: u64,
    /// `FrameArrive` events.
    pub frame_arrives: u64,
    /// `PortKick` events.
    pub port_kicks: u64,
    /// `HostKick` events.
    pub host_kicks: u64,
    /// `Inject` events.
    pub injects: u64,
    /// `TxComplete` events.
    pub tx_completes: u64,
    /// Kicks not scheduled because the port would wake anyway.
    pub kicks_suppressed: u64,
    /// Most events pending at once.
    pub queue_high_water: u64,
    /// TS, RC and BE counts, in that order.
    pub classes: [ClassCounts; 3],
    /// TS frames delivered after their deadline.
    pub ts_late: u64,
    /// TS frames delivered.
    pub ts_delivered: u64,
    /// Exact TS latency minimum, ns.
    pub ts_min_ns: u64,
    /// Exact TS latency maximum, ns.
    pub ts_max_ns: u64,
    /// Mean TS latency, ns.
    pub ts_mean_ns: f64,
    /// Frames the switches received.
    pub switch_received: u64,
    /// Switch drops per [`DropReason::ALL`] entry.
    pub drops: [u64; 8],
    /// Route-cache hits while the install program was computed.
    pub route_hits: u64,
    /// Route-cache misses while the install program was computed.
    pub route_misses: u64,
}

impl SimSummary {
    /// Reduces `report`.
    #[must_use]
    pub fn of(report: &SimReport) -> Self {
        let e = &report.events;
        let classes = [
            TrafficClass::TimeSensitive,
            TrafficClass::RateConstrained,
            TrafficClass::BestEffort,
        ]
        .map(|class| ClassCounts {
            injected: report.analyzer.class_injected(class),
            lost: report.analyzer.class_lost(class),
        });
        let ts = report.ts_latency();
        SimSummary {
            events: report.events_processed,
            frame_arrives: e.frame_arrives,
            port_kicks: e.port_kicks,
            host_kicks: e.host_kicks,
            injects: e.injects,
            tx_completes: e.tx_completes,
            kicks_suppressed: e.kicks_suppressed,
            queue_high_water: e.queue_high_water as u64,
            classes,
            ts_late: report.ts_deadline_misses(),
            ts_delivered: ts.count(),
            ts_min_ns: ts.min().map_or(0, |d| d.as_nanos()),
            ts_max_ns: ts.max().map_or(0, |d| d.as_nanos()),
            ts_mean_ns: ts.mean_ns(),
            switch_received: report.switch_stats.received,
            drops: DropReason::ALL.map(|r| report.switch_stats.drops(r)),
            route_hits: e.route_cache.hits,
            route_misses: e.route_cache.misses,
        }
    }

    /// TS frames injected.
    #[must_use]
    pub fn ts_injected(&self) -> u64 {
        self.classes[0].injected
    }

    /// TS frames lost or delivered late.
    #[must_use]
    pub fn ts_failed(&self) -> u64 {
        self.classes[0].lost + self.ts_late
    }
}

/// A 64-bit digest of the report's complete `Debug` rendering, streamed
/// through a fixed-key hasher: two reports digest equal iff they render
/// byte-identically, without holding the rendering in memory.
#[must_use]
pub fn report_digest(report: &SimReport) -> u64 {
    struct HashWriter(std::collections::hash_map::DefaultHasher);
    impl std::fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut sink = HashWriter(std::collections::hash_map::DefaultHasher::new());
    write!(sink, "{report:?}").expect("the digest sink never fails");
    sink.0.finish()
}
