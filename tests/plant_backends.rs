//! The determinism contract at plant scale: the 10k-flow large plant
//! reports byte-identically under the calendar event queue and the
//! reference binary heap, and runs losslessly within every deadline.
//!
//! Reports are compared by a streamed digest of their full `Debug`
//! rendering, so neither a second report nor its multi-megabyte
//! rendering is ever held.

use std::fmt::Write as _;
use std::hash::Hasher as _;
use tsn_builder::plant::large_plant;
use tsn_sim::{EventQueueKind, SimReport};

/// A 64-bit digest of the report's complete `Debug` rendering, streamed
/// through a fixed-key `DefaultHasher` (`SipHash-1-3` with zero keys —
/// stable across processes). Two reports digest equal iff they render
/// byte-identically.
fn report_digest(report: &SimReport) -> u64 {
    struct HashWriter(std::collections::hash_map::DefaultHasher);
    impl std::fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut sink = HashWriter(std::collections::hash_map::DefaultHasher::new());
    write!(sink, "{report:?}").expect("digest sink never fails");
    sink.0.finish()
}

#[test]
fn plant_reports_are_identical_across_event_queue_backends() {
    let calendar = large_plant(10_000).expect("plant builds");
    assert_eq!(calendar.config.event_queue, EventQueueKind::Calendar);
    let mut heap = calendar.clone();
    heap.config.event_queue = EventQueueKind::BinaryHeap;

    let report = calendar.into_network().expect("network builds").run();
    assert!(report.events_processed > 0, "the plant simulated nothing");
    assert_eq!(report.ts_lost(), 0, "the plant loses TS frames");
    assert_eq!(report.ts_deadline_misses(), 0, "the plant misses deadlines");
    let calendar_digest = report_digest(&report);
    drop(report);

    let report = heap.into_network().expect("network builds").run();
    assert_eq!(
        report_digest(&report),
        calendar_digest,
        "binary-heap event queue diverged from the calendar-queue report"
    );
}
