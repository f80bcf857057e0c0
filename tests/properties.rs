//! Property-style tests over the core data structures and invariants,
//! driven by the `tsn-verify` runner: each test replays its historical
//! seed family through the shrinking harness, so a failure is minimized
//! to a smallest counterexample and can be pinned into `verify/corpus/`
//! (where the same seed families are already committed as regression
//! entries replayed by `verify` and CI).
//!
//! The properties themselves live in `tsn_verify::props` — one oracle
//! per invariant, shared between these tests, the `verify` CLI and the
//! corpus replay. Only the exhaustive (non-randomized) checks stay
//! inline here.

use tsn_types::{Pcp, SplitMix64, VlanId};
use tsn_verify::props::property_by_name;
use tsn_verify::runner::Runner;

/// Runs one ported property over its full legacy seed family (the exact
/// seed and case count `tests/properties.rs` used before the port) and
/// panics with the shrunk counterexample on failure.
fn check(name: &str) {
    let prop = property_by_name(name).expect("property is registered");
    let runner = Runner::new(prop.legacy_cases, prop.legacy_seed);
    let report = runner.run(
        prop.name,
        &|rng: &mut SplitMix64| prop.spec.generate(rng),
        |case| (prop.oracle)(case),
    );
    if let Some(failure) = &report.failure {
        panic!(
            "{name}: {}\n  seed: 0x{:x}\n  original: {:?}\n  shrunk ({} steps): {:?}\n  \
             reproduce: cargo run -q --release -p tsn-verify --bin verify -- \
             --oracle {name} --seed 0x{:x} --cases 1",
            failure.shrunk.message,
            failure.seed,
            failure.original,
            failure.shrunk.steps,
            failure.shrunk.case,
            failure.seed,
        );
    }
    assert_eq!(report.executed, prop.legacy_cases);
    assert_eq!(
        report.discarded, 0,
        "{name}: config properties never discard"
    );
}

/// The exact-bits policy is a lower bound and BRAM36 an upper bound on
/// the paper's accounting, for every configuration.
#[test]
fn policy_ordering_holds() {
    check("policy-ordering");
}

/// Growing any single resource never shrinks the total (monotonicity of
/// the accounting).
#[test]
fn accounting_is_monotone_in_depth_and_buffers() {
    check("accounting-monotone");
}

/// Eq. (1): bounds are ordered, monotone in hops, and scale linearly with
/// the slot.
#[test]
fn latency_bounds_properties() {
    check("latency-bounds");
}

/// MAC addresses round-trip through text and integers.
#[test]
fn mac_roundtrips() {
    check("mac-roundtrip");
}

/// Slot arithmetic: `slot_index` is consistent with `next_slot_boundary`
/// and `align_up`.
#[test]
fn slot_arithmetic() {
    check("slot-arithmetic");
}

/// LCM of durations is divisible by both operands.
#[test]
fn duration_lcm_divisibility() {
    check("duration-lcm");
}

/// A capacity-limited table never holds more than its capacity, no matter
/// the insert/remove sequence.
#[test]
fn cap_table_never_overflows() {
    check("cap-table");
}

/// Token-bucket long-run throughput never exceeds rate × time + burst.
#[test]
fn meter_respects_its_rate() {
    check("meter-rate");
}

/// GCL state repeats with its cycle.
#[test]
fn gcl_is_periodic() {
    check("gcl-periodic");
}

/// Partitioned latency statistics merge to the same aggregate a single
/// pass records, in any merge order.
#[test]
fn latency_stats_merge_matches_single_pass() {
    check("latency-merge");
}

/// VLAN and PCP validation accept exactly their legal ranges. Exhaustive
/// over the full input space, so no randomized runner is involved.
#[test]
fn vlan_pcp_validation() {
    for vid in 0..u16::MAX {
        assert_eq!(VlanId::new(vid).is_ok(), (1..=4094).contains(&vid));
    }
    for pcp in 0..=255u8 {
        assert_eq!(Pcp::new(pcp).is_ok(), pcp <= 7);
    }
}
