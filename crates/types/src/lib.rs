//! Core domain types shared by every crate of the TSN-Builder reproduction.
//!
//! The types here mirror the vocabulary of the paper (DAC 2020,
//! *TSN-Builder: Enabling Rapid Customization of Resource-Efficient Switches
//! for Time-Sensitive Networking*):
//!
//! * [`time`] — nanosecond-resolution simulation time ([`SimTime`],
//!   [`SimDuration`]) and link rates ([`DataRate`]); Time-Sensitive
//!   Networking is all about time, so these are newtypes rather than bare
//!   integers.
//! * [`mac`] — Ethernet MAC addresses ([`MacAddr`]).
//! * [`vlan`] — 802.1Q VLAN identifiers ([`VlanId`]) and priority code
//!   points ([`Pcp`]).
//! * [`ids`] — opaque identifiers for nodes, ports, queues, flows, meters
//!   and multicast groups.
//! * [`frame`] — the Ethernet frame model carried through the simulated
//!   switches, together with [`TrafficClass`].
//! * [`flow`] — TS / RC / BE flow specifications with the parameters used
//!   in the paper's evaluation (period, deadline, frame size, path length).
//! * [`flowmap`] — a dense [`FlowId`]-indexed map ([`FlowMap`]) for the
//!   simulator's per-frame hot paths at 100k–1M-flow scale.
//! * [`error`] — the shared [`TsnError`] type.
//! * [`json`] — a minimal JSON value tree, printer and strict parser
//!   (the workspace builds offline, without serde).
//!
//! # Example
//!
//! ```
//! use tsn_types::{MacAddr, SimDuration, DataRate, TrafficClass};
//!
//! let rate = DataRate::gbps(1);
//! // Serializing a minimum-size (64 B) frame on 1 Gbps takes 512 ns.
//! assert_eq!(rate.serialization_time(64), SimDuration::from_nanos(512));
//! let mac = MacAddr::new([0x01, 0x00, 0x5e, 0, 0, 1]);
//! assert!(mac.is_multicast());
//! assert_eq!(TrafficClass::TimeSensitive.strict_priority(), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod flow;
pub mod flowmap;
pub mod frame;
pub mod ids;
pub mod json;
pub mod mac;
pub mod rng;
pub mod time;
pub mod vlan;

pub use error::{TsnError, TsnResult};
pub use flow::{BeFlowSpec, FlowSet, FlowSpec, RcFlowSpec, TsFlowSpec};
pub use flowmap::FlowMap;
pub use frame::{EthernetFrame, FrameBuilder, TrafficClass, ETHERNET_OVERHEAD_BYTES};
pub use ids::{FlowId, McId, MeterId, NodeId, PortId, QueueId};
pub use mac::MacAddr;
pub use rng::SplitMix64;
pub use time::{DataRate, SimDuration, SimTime};
pub use vlan::{Pcp, VlanId};
