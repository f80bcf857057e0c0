//! The **Gate Ctrl** template: gated queues driven by In/Out gate control
//! lists (Fig. 5).
//!
//! "The gate control is used to control the enqueue and dequeue time of
//! each packet with two Gate Control Lists (GCL) attached to the ingress
//! and egress of each queue … In each time slot, the queue stays in an open
//! or a close state." (Sections III.A/III.B)
//!
//! The evaluation configures the GCLs statically to implement **CQF**
//! (Cyclic Queuing and Forwarding, 802.1Qch): two time-sensitive queues
//! alternate — while one enqueues, the other dequeues — so a packet
//! received in slot *i* is transmitted in slot *i+1* and the per-hop delay
//! is bounded by the slot length.

use crate::layout::QueueLayout;
use std::collections::VecDeque;
use tsn_types::{EthernetFrame, QueueId, SimDuration, SimTime, TrafficClass, TsnError, TsnResult};

/// One gate-control-list entry: the set of queues whose gate is open
/// during one time slot (bit *q* = queue *q* open).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GateEntry {
    mask: u64,
}

impl GateEntry {
    /// An entry with every queue's gate open.
    #[must_use]
    pub const fn all_open() -> Self {
        GateEntry { mask: u64::MAX }
    }

    /// An entry with every gate closed.
    #[must_use]
    pub const fn all_closed() -> Self {
        GateEntry { mask: 0 }
    }

    /// Builds an entry from an iterator of open queues.
    #[must_use]
    pub fn open_for(queues: impl IntoIterator<Item = QueueId>) -> Self {
        let mut mask = 0u64;
        for q in queues {
            mask |= 1 << q.index();
        }
        GateEntry { mask }
    }

    /// Opens one more queue.
    #[must_use]
    pub const fn with_open(self, queue: QueueId) -> Self {
        GateEntry {
            mask: self.mask | 1 << queue.index(),
        }
    }

    /// Closes one queue.
    #[must_use]
    pub const fn with_closed(self, queue: QueueId) -> Self {
        GateEntry {
            mask: self.mask & !(1 << queue.index()),
        }
    }

    /// Whether `queue`'s gate is open in this entry.
    #[must_use]
    pub const fn is_open(self, queue: QueueId) -> bool {
        self.mask & (1 << queue.index()) != 0
    }

    /// The raw open-gate bitmask (bit *q* = queue *q* open).
    #[must_use]
    pub const fn bits(self) -> u64 {
        self.mask
    }
}

/// A gate control list: equally sized time slots, one [`GateEntry`] per
/// slot, repeating with period `len × slot`.
///
/// `gate_size` in the customization API (`set_gate_tbl`) is the number of
/// entries; CQF needs only 2.
///
/// # Example
///
/// ```
/// use tsn_switch::gate_ctrl::{GateControlList, GateEntry};
/// use tsn_types::{QueueId, SimDuration, SimTime};
///
/// let q6 = QueueId::new(6);
/// let q7 = QueueId::new(7);
/// let gcl = GateControlList::new(
///     vec![GateEntry::open_for([q6]), GateEntry::open_for([q7])],
///     SimDuration::from_micros(65),
/// )?;
/// assert!(gcl.is_open(q6, SimTime::ZERO));
/// assert!(!gcl.is_open(q7, SimTime::ZERO));
/// assert!(gcl.is_open(q7, SimTime::from_micros(65)));
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GateControlList {
    entries: Vec<GateEntry>,
    slot: SimDuration,
    /// All entries are identical, so the gate state never changes — true
    /// for every always-open list. Lets the hot path skip the
    /// `slot_index` division entirely.
    uniform: bool,
    /// OR of every entry: a queue absent here can never open.
    open_union: GateEntry,
    /// Transition table, `[entry_idx * 64 + queue]` → slots ahead until
    /// `queue`'s gate is next open (0 = open in that entry,
    /// [`NEVER_OPENS`] = the queue is closed in every entry). Empty for
    /// uniform lists (nothing to look up) and for lists longer than
    /// [`MAX_TABLE_ENTRIES`] (which fall back to scanning).
    next_open_tbl: Vec<u16>,
}

/// Sentinel in [`GateControlList::next_open_tbl`]: the queue never opens.
const NEVER_OPENS: u16 = u16::MAX;
/// Longest list the precomputed transition table covers; anything longer
/// (far beyond any real `gate_size`) scans entries on demand instead.
const MAX_TABLE_ENTRIES: usize = 4096;

impl GateControlList {
    /// Creates a GCL from its entries and slot length.
    ///
    /// # Errors
    ///
    /// Returns [`TsnError::InvalidParameter`] if `entries` is empty or
    /// `slot` is zero.
    pub fn new(entries: Vec<GateEntry>, slot: SimDuration) -> TsnResult<Self> {
        if entries.is_empty() {
            return Err(TsnError::invalid_parameter(
                "entries",
                "a gate control list needs at least one entry",
            ));
        }
        if slot.is_zero() {
            return Err(TsnError::invalid_parameter("slot", "must be non-zero"));
        }
        Ok(GateControlList::with_tables(entries, slot))
    }

    /// A degenerate single-entry list that keeps every gate open — what a
    /// non-TSN port effectively runs.
    #[must_use]
    pub fn always_open(slot: SimDuration) -> Self {
        GateControlList::with_tables(
            vec![GateEntry::all_open()],
            if slot.is_zero() {
                SimDuration::from_micros(1)
            } else {
                slot
            },
        )
    }

    /// Builds the list and precomputes its transition tables (done once
    /// per port at network-build time, so per-event lookups are O(1)).
    fn with_tables(entries: Vec<GateEntry>, slot: SimDuration) -> Self {
        let uniform = entries.windows(2).all(|w| w[0] == w[1]);
        let open_union = if entries.is_empty() {
            GateEntry::all_open()
        } else {
            entries
                .iter()
                .fold(GateEntry::all_closed(), |acc, e| GateEntry {
                    mask: acc.mask | e.mask,
                })
        };
        let len = entries.len();
        let next_open_tbl = if uniform || len > MAX_TABLE_ENTRIES {
            Vec::new()
        } else {
            let mut tbl = vec![NEVER_OPENS; len * 64];
            for q in 0..64u8 {
                let queue = QueueId::new(q);
                if !open_union.is_open(queue) {
                    continue;
                }
                // Two backward passes over the cycle fill the distance to
                // the next open slot (wrapping across the cycle end).
                let mut dist = NEVER_OPENS;
                for idx in (0..len * 2).rev() {
                    if entries[idx % len].is_open(queue) {
                        dist = 0;
                    } else if dist != NEVER_OPENS {
                        dist += 1;
                    }
                    if idx < len {
                        tbl[idx * 64 + q as usize] = dist;
                    }
                }
            }
            tbl
        };
        GateControlList {
            entries,
            slot,
            uniform,
            open_union,
            next_open_tbl,
        }
    }

    /// The entry in force at `now`.
    ///
    /// An entry-less list (impossible via [`GateControlList::new`], which
    /// rejects it, but conceivable through future construction paths)
    /// behaves as all-open instead of panicking on `% 0`.
    #[must_use]
    pub fn entry_at(&self, now: SimTime) -> GateEntry {
        if self.uniform {
            // Covers single-entry lists (the common always-open case) and
            // the defensive entry-less case without any division.
            return self
                .entries
                .first()
                .copied()
                .unwrap_or(GateEntry::all_open());
        }
        let idx = (now.slot_index(self.slot) as usize) % self.entries.len();
        self.entries[idx]
    }

    /// `true` when every entry is identical, i.e. the gate state never
    /// changes (always-open edge-port lists in particular).
    #[must_use]
    pub fn is_uniform(&self) -> bool {
        self.uniform
    }

    /// The union of every entry: queues that can ever be open.
    #[must_use]
    pub fn open_union(&self) -> GateEntry {
        self.open_union
    }

    /// The earliest instant `>= now` at which `queue`'s gate is open:
    /// `now` itself if it is open already, the start of the slot where it
    /// next opens otherwise, `None` if it is closed in every entry. A
    /// table lookup instead of a boundary-by-boundary scan.
    #[must_use]
    pub fn next_open(&self, queue: QueueId, now: SimTime) -> Option<SimTime> {
        if !self.open_union.is_open(queue) {
            return None;
        }
        if self.uniform {
            return Some(now); // open in every slot
        }
        let global = now.slot_index(self.slot);
        let len = self.entries.len();
        let idx = (global as usize) % len;
        let dist = if self.next_open_tbl.is_empty() {
            // Oversized list: scan the cycle once.
            (0..len)
                .find(|&d| self.entries[(idx + d) % len].is_open(queue))
                .unwrap_or(0) as u64
        } else {
            u64::from(self.next_open_tbl[idx * 64 + queue.as_usize()])
        };
        if dist == 0 {
            Some(now)
        } else {
            Some(SimTime::ZERO + self.slot * (global + dist))
        }
    }

    /// Whether `queue`'s gate is open at `now`.
    #[must_use]
    pub fn is_open(&self, queue: QueueId, now: SimTime) -> bool {
        self.entry_at(now).is_open(queue)
    }

    /// The instant of the next gate-state change (the next slot boundary).
    /// With a single entry the state never changes, but the boundary is
    /// still returned so callers can poll uniformly.
    #[must_use]
    pub fn next_change(&self, now: SimTime) -> SimTime {
        now.next_slot_boundary(self.slot)
    }

    /// Number of entries (`gate_size`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the list has no entries (never constructible via `new`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Slot length.
    #[must_use]
    pub fn slot(&self) -> SimDuration {
        self.slot
    }

    /// Full cycle length (`len × slot`). An entry-less list reports one
    /// slot rather than a zero-length cycle, so callers that step by
    /// `cycle()` can never loop in place.
    #[must_use]
    pub fn cycle(&self) -> SimDuration {
        self.slot * (self.entries.len() as u64).max(1)
    }
}

/// Why Gate Ctrl refused a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateDrop {
    /// No queue of the frame's class had an open ingress gate.
    GateClosed,
    /// The target queue had no free metadata slot (`queue_depth`
    /// exhausted) — the drop Table I's case study provokes when depth is
    /// under-provisioned.
    QueueOverflow,
    /// The target queue id does not exist on this port.
    UnknownQueue,
}

/// A metadata queue with a hardware depth limit.
///
/// The ring starts empty and grows only when the queue actually buffers
/// (bounded by `depth`): most of a large plant's queues never hold a
/// frame, so preallocating `depth` slots each would fault in memory the
/// run never touches.
#[derive(Debug, Clone, Default)]
struct GatedQueue {
    frames: VecDeque<EthernetFrame>,
    depth: usize,
    overflow_drops: u64,
    high_water: usize,
}

impl GatedQueue {
    fn new(depth: usize) -> Self {
        GatedQueue {
            frames: VecDeque::new(),
            depth,
            overflow_drops: 0,
            high_water: 0,
        }
    }

    fn push(&mut self, frame: EthernetFrame) -> Result<(), GateDrop> {
        if self.frames.len() >= self.depth {
            self.overflow_drops += 1;
            return Err(GateDrop::QueueOverflow);
        }
        self.frames.push_back(frame);
        self.high_water = self.high_water.max(self.frames.len());
        Ok(())
    }
}

/// Per-port gate control: the gated queues plus their In/Out GCLs.
///
/// The **ingress** GCL decides which queue an arriving frame may enter
/// (for CQF, which of the two TS queues is filling this slot); the
/// **egress** GCL decides which queues the scheduler may drain.
#[derive(Debug, Clone)]
pub struct GateCtrl {
    queues: Vec<GatedQueue>,
    in_gcl: GateControlList,
    out_gcl: GateControlList,
    layout: QueueLayout,
    gate_closed_drops: u64,
    /// Bit *q* set ⇔ queue *q* holds at least one frame. Lets the
    /// scheduler compute per-instant eligibility with one AND instead of
    /// per-queue length checks.
    occupied: u64,
    /// Total frames buffered across all queues (kept incrementally so
    /// buffer-pool checks are O(1)).
    buffered: usize,
    /// Bit mask of the layout's time-sensitive queues.
    ts_mask: u64,
}

impl GateCtrl {
    /// Creates the gate-control stage for one port.
    ///
    /// `queue_depth` is the per-queue metadata capacity (`set_queues`).
    ///
    /// # Errors
    ///
    /// Returns [`TsnError::InvalidParameter`] if `queue_depth` is zero.
    pub fn new(
        layout: QueueLayout,
        queue_depth: usize,
        in_gcl: GateControlList,
        out_gcl: GateControlList,
    ) -> TsnResult<Self> {
        if queue_depth == 0 {
            return Err(TsnError::invalid_parameter(
                "queue_depth",
                "must be non-zero",
            ));
        }
        let queues = (0..layout.queue_num())
            .map(|_| GatedQueue::new(queue_depth))
            .collect();
        let ts_mask = layout
            .ts_queues()
            .iter()
            .fold(0u64, |m, q| m | 1 << q.index());
        Ok(GateCtrl {
            queues,
            in_gcl,
            out_gcl,
            layout,
            gate_closed_drops: 0,
            occupied: 0,
            buffered: 0,
            ts_mask,
        })
    }

    /// Builds the static CQF configuration of the paper's evaluation:
    /// the TS pair alternates between the two GCL entries; all other
    /// queues stay open in both GCLs (they are shaped/prioritized by the
    /// egress scheduler instead).
    ///
    /// # Errors
    ///
    /// Propagates [`GateControlList::new`] validation errors.
    pub fn cqf(layout: QueueLayout, queue_depth: usize, slot: SimDuration) -> TsnResult<Self> {
        let (qa, qb) = layout.cqf_pair();
        let others_open = |entry: GateEntry| {
            // Open every non-TS-pair queue on top of the TS bit.
            let mut e = entry;
            for q in 0..layout.queue_num() {
                let q = QueueId::new(q as u8);
                if q != qa && q != qb {
                    e = e.with_open(q);
                }
            }
            e
        };
        // Slot parity 0: qa fills, qb drains. Slot parity 1: swapped.
        let in_gcl = GateControlList::new(
            vec![
                others_open(GateEntry::open_for([qa])),
                others_open(GateEntry::open_for([qb])),
            ],
            slot,
        )?;
        let out_gcl = GateControlList::new(
            vec![
                others_open(GateEntry::open_for([qb])),
                others_open(GateEntry::open_for([qa])),
            ],
            slot,
        )?;
        GateCtrl::new(layout, queue_depth, in_gcl, out_gcl)
    }

    /// Enqueues a frame.
    ///
    /// Time-sensitive frames are steered to whichever queue of the CQF
    /// pair has an open ingress gate at `now` (the `target` only conveys
    /// the class). Other frames go to `target` directly if its ingress
    /// gate is open.
    ///
    /// # Errors
    ///
    /// Returns the [`GateDrop`] cause on gate-closed, overflow, or an
    /// unknown queue id.
    pub fn enqueue(
        &mut self,
        target: QueueId,
        frame: EthernetFrame,
        now: SimTime,
    ) -> Result<QueueId, GateDrop> {
        let class = self.layout.class_of(target).ok_or(GateDrop::UnknownQueue)?;
        let queue = if class == TrafficClass::TimeSensitive {
            let entry = self.in_gcl.entry_at(now);
            match self
                .layout
                .ts_queues()
                .iter()
                .copied()
                .find(|&q| entry.is_open(q))
            {
                Some(q) => q,
                None => {
                    self.gate_closed_drops += 1;
                    return Err(GateDrop::GateClosed);
                }
            }
        } else {
            if !self.in_gcl.is_open(target, now) {
                self.gate_closed_drops += 1;
                return Err(GateDrop::GateClosed);
            }
            target
        };
        self.queues[queue.as_usize()].push(frame)?;
        self.occupied |= 1 << queue.index();
        self.buffered += 1;
        Ok(queue)
    }

    /// Whether `queue` may transmit at `now`: non-empty and egress gate
    /// open.
    #[must_use]
    pub fn eligible(&self, queue: QueueId, now: SimTime) -> bool {
        self.queues
            .get(queue.as_usize())
            .is_some_and(|q| !q.frames.is_empty())
            && self.out_gcl.is_open(queue, now)
    }

    /// Bitmask of queues that may transmit at `now` (non-empty AND egress
    /// gate open) — the scheduler's whole eligibility scan in one AND.
    #[must_use]
    pub fn eligible_mask(&self, now: SimTime) -> u64 {
        self.occupied & self.out_gcl.entry_at(now).bits()
    }

    /// Bitmask of non-empty queues.
    #[must_use]
    pub fn occupied_mask(&self) -> u64 {
        self.occupied
    }

    /// Bitmask of the layout's time-sensitive (express) queues.
    #[must_use]
    pub fn ts_mask(&self) -> u64 {
        self.ts_mask
    }

    /// The head frame of a queue without removing it.
    #[must_use]
    pub fn peek(&self, queue: QueueId) -> Option<&EthernetFrame> {
        self.queues.get(queue.as_usize())?.frames.front()
    }

    /// Removes and returns the head frame of a queue.
    pub fn pop(&mut self, queue: QueueId) -> Option<EthernetFrame> {
        let q = self.queues.get_mut(queue.as_usize())?;
        let frame = q.frames.pop_front()?;
        self.buffered -= 1;
        if q.frames.is_empty() {
            self.occupied &= !(1 << queue.index());
        }
        Some(frame)
    }

    /// Occupancy of one queue.
    #[must_use]
    pub fn queue_len(&self, queue: QueueId) -> usize {
        self.queues
            .get(queue.as_usize())
            .map_or(0, |q| q.frames.len())
    }

    /// Total frames buffered across all queues of the port (what the
    /// packet-buffer pool must hold).
    #[must_use]
    pub fn total_buffered(&self) -> usize {
        self.buffered
    }

    /// The highest simultaneous occupancy any queue has reached — the
    /// basis for right-sizing `queue_depth`.
    #[must_use]
    pub fn high_water(&self, queue: QueueId) -> usize {
        self.queues
            .get(queue.as_usize())
            .map_or(0, |q| q.high_water)
    }

    /// Frames dropped because the target queue was full.
    #[must_use]
    pub fn overflow_drops(&self) -> u64 {
        self.queues.iter().map(|q| q.overflow_drops).sum()
    }

    /// Frames dropped because no ingress gate was open.
    #[must_use]
    pub fn gate_closed_drops(&self) -> u64 {
        self.gate_closed_drops
    }

    /// The per-queue metadata capacity (`set_queues`), identical across
    /// the port's queues.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queues.first().map_or(0, |q| q.depth)
    }

    /// The ingress GCL.
    #[must_use]
    pub fn in_gcl(&self) -> &GateControlList {
        &self.in_gcl
    }

    /// The egress GCL.
    #[must_use]
    pub fn out_gcl(&self) -> &GateControlList {
        &self.out_gcl
    }

    /// The queue layout.
    #[must_use]
    pub fn layout(&self) -> &QueueLayout {
        &self.layout
    }

    /// The next instant at which any gate state changes.
    #[must_use]
    pub fn next_gate_change(&self, now: SimTime) -> SimTime {
        self.in_gcl
            .next_change(now)
            .min(self.out_gcl.next_change(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_types::{FlowId, MacAddr};

    const SLOT: SimDuration = SimDuration::from_micros(65);

    fn ts_frame(seq: u64) -> EthernetFrame {
        EthernetFrame::builder()
            .src(MacAddr::station(1))
            .dst(MacAddr::station(2))
            .class(TrafficClass::TimeSensitive)
            .size_bytes(64)
            .flow(FlowId::new(0))
            .sequence(seq)
            .build()
            .expect("valid frame")
    }

    fn be_frame() -> EthernetFrame {
        EthernetFrame::builder()
            .src(MacAddr::station(1))
            .dst(MacAddr::station(2))
            .class(TrafficClass::BestEffort)
            .size_bytes(64)
            .build()
            .expect("valid frame")
    }

    fn cqf_gate() -> GateCtrl {
        GateCtrl::cqf(QueueLayout::standard8(), 8, SLOT).expect("valid cqf config")
    }

    #[test]
    fn gate_entry_bit_operations() {
        let e = GateEntry::all_closed()
            .with_open(QueueId::new(3))
            .with_open(QueueId::new(7));
        assert!(e.is_open(QueueId::new(3)));
        assert!(e.is_open(QueueId::new(7)));
        assert!(!e.is_open(QueueId::new(0)));
        assert!(!e.with_closed(QueueId::new(3)).is_open(QueueId::new(3)));
        assert!(GateEntry::all_open().is_open(QueueId::new(63)));
    }

    #[test]
    fn gcl_cycles_through_entries() {
        let gcl = GateControlList::new(
            vec![
                GateEntry::open_for([QueueId::new(0)]),
                GateEntry::open_for([QueueId::new(1)]),
            ],
            SLOT,
        )
        .expect("valid gcl");
        assert_eq!(gcl.len(), 2);
        assert_eq!(gcl.cycle(), SLOT * 2);
        assert!(gcl.is_open(QueueId::new(0), SimTime::ZERO));
        assert!(gcl.is_open(QueueId::new(1), SimTime::ZERO + SLOT));
        // Period 2: slot 2 looks like slot 0 again.
        assert!(gcl.is_open(QueueId::new(0), SimTime::ZERO + SLOT * 2));
        assert_eq!(gcl.next_change(SimTime::ZERO), SimTime::ZERO + SLOT);
    }

    #[test]
    fn gcl_validation() {
        assert!(GateControlList::new(vec![], SLOT).is_err());
        assert!(GateControlList::new(vec![GateEntry::all_open()], SimDuration::ZERO).is_err());
    }

    #[test]
    fn cqf_steers_ts_frames_to_the_open_queue() {
        let mut gc = cqf_gate();
        let (qa, qb) = (QueueId::new(6), QueueId::new(7));
        // Slot 0: qa fills.
        let q0 = gc
            .enqueue(qa, ts_frame(0), SimTime::ZERO)
            .expect("gate open");
        assert_eq!(q0, qa);
        // Slot 1: qb fills, regardless of the nominal target.
        let q1 = gc
            .enqueue(qa, ts_frame(1), SimTime::ZERO + SLOT)
            .expect("gate open");
        assert_eq!(q1, qb);
    }

    #[test]
    fn cqf_output_gate_is_the_opposite_queue() {
        let mut gc = cqf_gate();
        let t0 = SimTime::ZERO;
        let q = gc.enqueue(QueueId::new(6), ts_frame(0), t0).expect("open");
        // While filling, the same queue must not be drainable.
        assert!(!gc.eligible(q, t0));
        // Next slot: it drains.
        assert!(gc.eligible(q, t0 + SLOT));
        assert_eq!(gc.pop(q).expect("frame queued").sequence(), 0);
        assert!(!gc.eligible(q, t0 + SLOT), "drained empty");
    }

    #[test]
    fn non_ts_queues_are_always_open_under_cqf() {
        let mut gc = cqf_gate();
        for slot in 0..4u64 {
            let now = SimTime::ZERO + SLOT * slot;
            let q = gc
                .enqueue(QueueId::new(0), be_frame(), now)
                .expect("BE gate always open");
            assert_eq!(q, QueueId::new(0));
            assert!(gc.eligible(QueueId::new(0), now));
            gc.pop(QueueId::new(0));
        }
    }

    #[test]
    fn queue_depth_overflow_drops_and_counts() {
        let mut gc = GateCtrl::cqf(QueueLayout::standard8(), 2, SLOT).expect("valid");
        let t0 = SimTime::ZERO;
        gc.enqueue(QueueId::new(6), ts_frame(0), t0).expect("fits");
        gc.enqueue(QueueId::new(6), ts_frame(1), t0).expect("fits");
        assert_eq!(
            gc.enqueue(QueueId::new(6), ts_frame(2), t0),
            Err(GateDrop::QueueOverflow)
        );
        assert_eq!(gc.overflow_drops(), 1);
        assert_eq!(gc.high_water(QueueId::new(6)), 2);
        assert_eq!(gc.total_buffered(), 2);
    }

    #[test]
    fn rings_grow_on_demand_up_to_the_depth() {
        let mut gc = GateCtrl::cqf(QueueLayout::standard8(), 32, SLOT).expect("valid");
        assert!(gc.queues.iter().all(|q| q.frames.capacity() == 0));
        let (q, t0) = (QueueId::new(0), SimTime::ZERO);
        for i in 0..32 {
            gc.enqueue(q, be_frame(), t0).expect("fits");
            assert_eq!(gc.high_water(q), i + 1);
            assert_eq!(gc.total_buffered(), i + 1);
        }
        assert_eq!(gc.enqueue(q, be_frame(), t0), Err(GateDrop::QueueOverflow));
        assert_eq!(gc.overflow_drops(), 1);
        assert_eq!(gc.queue_len(q), 32);
        assert_eq!(gc.high_water(q), 32);
        assert_eq!(gc.total_buffered(), 32);
        gc.pop(q).expect("buffered");
        assert_eq!((gc.high_water(q), gc.total_buffered()), (32, 31));
        assert!(gc.queues[1..].iter().all(|q| q.frames.capacity() == 0));
    }

    #[test]
    fn unknown_queue_is_rejected() {
        let mut gc = cqf_gate();
        assert_eq!(
            gc.enqueue(QueueId::new(99), be_frame(), SimTime::ZERO),
            Err(GateDrop::UnknownQueue)
        );
    }

    #[test]
    fn explicit_closed_gate_drops_non_ts() {
        // An out-of-spec GCL that closes BE queue 0 in every slot.
        let layout = QueueLayout::standard8();
        let closed_entry = GateEntry::all_open().with_closed(QueueId::new(0));
        let in_gcl = GateControlList::new(vec![closed_entry], SLOT).expect("valid");
        let out_gcl = GateControlList::always_open(SLOT);
        let mut gc = GateCtrl::new(layout, 8, in_gcl, out_gcl).expect("valid");
        assert_eq!(
            gc.enqueue(QueueId::new(0), be_frame(), SimTime::ZERO),
            Err(GateDrop::GateClosed)
        );
        assert_eq!(gc.gate_closed_drops(), 1);
    }

    #[test]
    fn cqf_in_and_out_gates_never_overlap_for_the_pair() {
        let gc = cqf_gate();
        let (qa, qb) = gc.layout().cqf_pair();
        for slot in 0..6u64 {
            let now = SimTime::ZERO + SLOT * slot + SimDuration::from_nanos(1);
            for q in [qa, qb] {
                let filling = gc.in_gcl().is_open(q, now);
                let draining = gc.out_gcl().is_open(q, now);
                assert!(
                    filling != draining,
                    "CQF invariant: a TS queue either fills or drains, never both (slot {slot}, {q})"
                );
            }
        }
    }

    #[test]
    fn next_gate_change_is_the_slot_boundary() {
        let gc = cqf_gate();
        let now = SimTime::from_micros(10);
        assert_eq!(gc.next_gate_change(now), SimTime::ZERO + SLOT);
    }

    #[test]
    fn next_open_matches_a_boundary_scan() {
        let gc = cqf_gate();
        let out = gc.out_gcl();
        for q in [QueueId::new(6), QueueId::new(7)] {
            for step in 0..8u64 {
                let now = SimTime::ZERO + SLOT * step + SimDuration::from_micros(3);
                let fast = out
                    .next_open(q, now)
                    .expect("cqf pair opens every other slot");
                // Reference: walk slot boundaries until the gate opens.
                let mut t = now;
                let slow = loop {
                    if out.is_open(q, t) {
                        break t;
                    }
                    t = out.next_change(t);
                };
                assert_eq!(fast, slow, "queue {q} at slot {step}");
            }
        }
    }

    #[test]
    fn always_open_lists_are_uniform_and_open_now() {
        let gcl = GateControlList::always_open(SLOT);
        assert!(gcl.is_uniform());
        let t = SimTime::from_micros(123);
        assert_eq!(gcl.next_open(QueueId::new(0), t), Some(t));
        assert!(!cqf_gate().out_gcl().is_uniform());
    }

    #[test]
    fn never_open_queue_has_no_next_open() {
        let e = GateEntry::all_open().with_closed(QueueId::new(5));
        let gcl =
            GateControlList::new(vec![e, e.with_closed(QueueId::new(4))], SLOT).expect("valid");
        assert_eq!(gcl.next_open(QueueId::new(5), SimTime::ZERO), None);
        assert!(!gcl.open_union().is_open(QueueId::new(5)));
        // q4 is closed only in entry 1: from an odd slot it opens at the
        // next boundary.
        let odd = SimTime::ZERO + SLOT + SimDuration::from_micros(1);
        assert_eq!(
            gcl.next_open(QueueId::new(4), odd),
            Some(SimTime::ZERO + SLOT * 2)
        );
    }

    #[test]
    fn occupancy_mask_tracks_push_and_pop() {
        let mut gc = cqf_gate();
        assert_eq!(gc.occupied_mask(), 0);
        gc.enqueue(QueueId::new(0), be_frame(), SimTime::ZERO)
            .expect("open");
        gc.enqueue(QueueId::new(0), be_frame(), SimTime::ZERO)
            .expect("open");
        assert_eq!(gc.occupied_mask(), 1);
        assert_eq!(gc.total_buffered(), 2);
        gc.pop(QueueId::new(0));
        assert_eq!(gc.occupied_mask(), 1, "one frame left");
        gc.pop(QueueId::new(0));
        assert_eq!(gc.occupied_mask(), 0);
        assert_eq!(gc.total_buffered(), 0);
    }

    #[test]
    fn eligible_mask_combines_occupancy_and_out_gates() {
        let mut gc = cqf_gate();
        let q = gc
            .enqueue(QueueId::new(6), ts_frame(0), SimTime::ZERO)
            .expect("open");
        // While filling, the out gate is closed: nothing eligible.
        assert_eq!(gc.eligible_mask(SimTime::ZERO), 0);
        // Next slot it drains.
        assert_eq!(gc.eligible_mask(SimTime::ZERO + SLOT), 1 << q.index());
        assert_eq!(gc.ts_mask(), (1 << 6) | (1 << 7));
    }
    #[test]
    fn gcl_rejects_empty_entries_and_zero_slot() {
        assert!(GateControlList::new(vec![], SLOT).is_err());
        assert!(GateControlList::new(vec![GateEntry::all_open()], SimDuration::ZERO).is_err());
    }

    #[test]
    fn entry_less_gcl_is_all_open_not_a_panic() {
        // The public constructors make this state unreachable; build it
        // directly to pin the defensive behavior of entry_at/cycle.
        let gcl = GateControlList::with_tables(vec![], SLOT);
        let entry = gcl.entry_at(SimTime::from_micros(500));
        for q in 0..8u8 {
            assert!(entry.is_open(QueueId::new(q)));
        }
        assert!(gcl.is_open(QueueId::new(0), SimTime::ZERO));
        assert_eq!(gcl.cycle(), SLOT);
    }
}
