//! The event-driven simulator engine: compiled models, the run state both
//! router loops share, and the ideal grant loop.
//!
//! [`SimCore`] is the "compile once, simulate many" half: built once per
//! [`Simulator`](crate::Simulator), it lowers the model into dense arrays —
//! a channel index, per-node input-slot ranges and output-channel lists,
//! every route as a sequence of channel indices — so the cycle loops never
//! touch a `BTreeMap` or re-derive a radix. One core serves every point of
//! a sweep and every phase of a phased run. Each technology's
//! per-node/per-channel energy constants compile into their own
//! [`EnergyTable`] beside it.
//!
//! **One copy of everything but arbitration.** The two grant loops, the
//! ideal one here ([`SimCore::run_ideal`]) and the credit pipeline
//! ([`run_credit`](crate::router::run_credit)), differ only in how a flit
//! wins an output and when it lands. [`SimCore::run`] loads the run and
//! records its counters for both, and both loops run on:
//!
//! * [`Net`]: the packet table, each node's pending queue and released
//!   front, the release heap and the ring slab of (channel, VC) input
//!   buffers. It also owns the release wake, the local-flit build and
//!   injection commit, the watchdog and stall checks, the idle jump to
//!   the next release, and the deadlock snapshot, to which credit runs
//!   add two credit fields;
//! * [`RunTotals`]: the clock, the progress stamp and the delivery
//!   accounting, which become every report field no energy constant
//!   reaches.
//!
//! [`SimState`] holds one [`Net`], the ideal loop's caches and active
//! sets, and the credit pipeline's [`CreditState`]. Each run resets what
//! it uses, so one state serves runs of either fidelity in any order
//! without reallocation.
//!
//! **Energy accumulator.** Both loops add energy through one type
//! parameter `A: EnergyAcc`: a call per ejected flit and per switch grant,
//! in the order those happen. [`Tally`] is one technology's sum, the
//! instantiation [`Simulator`](crate::Simulator) and one-model sweeps
//! run. A `Vec<Tally>` adds every technology's own constants at each of
//! those calls, so each technology's f64 sums see the same operands in
//! the same order as its single run, and one run reports every
//! technology bit for bit ([`SimCore::run_each`]). Routes, arbitration
//! and latency never read an energy constant.
//!
//! The ideal loop is the same three phases as the reference semantics
//! (see [`crate::reference`]), driven by two *active sets* instead of full
//! rescans:
//!
//! * `eject` — channels whose head-of-buffer flit has finished its route
//!   and will leave in phase 1;
//! * `outs` — output channels with at least one possible requester (a
//!   released local packet or a buffered head wanting that channel).
//!
//! **Active-set invariant:** a channel's bit is set whenever a *grant*
//! could be possible there, and is cleared when a phase-2 visit grants
//! nothing (no candidates, or all of them lock- or credit-blocked). A
//! grantless visit is a no-op in the reference loop too — the round-robin
//! pointer only advances on a grant — so skipping it cannot change any
//! grant, any energy accumulation order, or any error cycle. Bits are
//! (re)set at exactly the points where a grant can become possible:
//!
//! * a new candidate appears — a packet release, an arrival revealing a
//!   new buffer head, a pop revealing the next head, a tail injection
//!   revealing the next pending packet;
//! * a credit frees — any pop from the channel's own downstream buffers
//!   re-arms it (live bitset insertion gives the same same-cycle /
//!   next-cycle visibility the reference's ascending scan has);
//! * a lock changes — locks only transition during the channel's own
//!   grants, and the bit stays set after a granting visit.
//!
//! When both sets are empty nothing can move, and nothing can become
//! movable before the next pending release, so the loop consults a
//! next-release heap and jumps over the idle stretch in O(1) — unless the
//! reference loop would have declared deadlock or hit the watchdog first,
//! in which case the same error is produced at the same cycle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use noc_energy::{Energy, EnergyBreakdown, EnergyModel};
use noc_graph::NodeId;

use crate::router::CreditState;
use crate::{
    BlockedVc, NocModel, RoutePolicy, RouterFidelity, SimConfig, SimError, SimReport, TrafficEvent,
};

/// Sentinel "no route" entry in the pair tables.
const NO_ROUTE: u32 = u32::MAX;
/// Port code of the local injection port in candidates and lock words.
pub(crate) const LOCAL_PORT: u32 = u32::MAX;
/// Lock word for an unlocked (channel, VC).
pub(crate) const LOCK_NONE: u64 = u64::MAX;
/// `head_out` value of an empty (channel, VC) buffer.
pub(crate) const HEAD_NONE: u32 = u32::MAX;
/// Tail-flit marker carried in [`FlitSlot::idx`]'s top bit, so neither the
/// grant commit nor a non-final ejection has to consult the packet table.
pub(crate) const IDX_TAIL: u32 = 1 << 31;
/// Mask recovering the flit index from [`FlitSlot::idx`].
pub(crate) const IDX_MASK: u32 = IDX_TAIL - 1;
/// `head_out` value of a head flit that has finished its route.
pub(crate) const HEAD_EJECT: u32 = u32::MAX - 1;

/// A fixed-capacity bitset over channel (or node) indices supporting in-order
/// iteration with live insertion: bits set at positions not yet visited
/// during an ascending scan are picked up by the same scan, mirroring how
/// the reference loop sees state changed earlier in the same cycle.
#[derive(Debug, Default)]
pub(crate) struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    pub(crate) fn reset(&mut self, bits: usize) {
        refill(&mut self.words, bits.div_ceil(64), 0);
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    #[inline]
    pub(crate) fn clear(&mut self, i: usize) {
        self.words[i >> 6] &= !(1 << (i & 63));
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Lowest set bit at index `from` or above.
    #[inline]
    pub(crate) fn next_at_or_after(&self, from: usize) -> Option<usize> {
        let mut wi = from >> 6;
        if wi >= self.words.len() {
            return None;
        }
        let mut w = self.words[wi] & (!0u64 << (from & 63));
        loop {
            if w != 0 {
                return Some((wi << 6) + w.trailing_zeros() as usize);
            }
            wi += 1;
            if wi >= self.words.len() {
                return None;
            }
            w = self.words[wi];
        }
    }
}

/// One flit in a buffer slot or staged arrival. Kind is derived: the flit
/// is the head iff the index part of `idx` is zero and the tail iff its
/// [`IDX_TAIL`] bit is set (stamped once at emission), so the hot paths
/// never consult the packet table for non-final flits.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FlitSlot {
    /// Owning packet index.
    pub(crate) pkt: u32,
    /// Flit index within the packet (`& IDX_MASK`, 0 = head), with the
    /// tail marker in the top bit.
    pub(crate) idx: u32,
    /// Index into `SimCore::route_chan`/`route_vc` of the next hop to
    /// take (`route_off[route] + hop`) — resolving a head's requested
    /// channel is a single array load, with the end-of-route sentinel
    /// standing in for ejection.
    pub(crate) ri: u32,
}

/// Per-run packet bookkeeping (the compiled-route analogue of `Packet`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PacketRun {
    /// Compiled route id (index into `SimCore::route_off`).
    pub(crate) route: u32,
    /// Total flits (header + payload).
    pub(crate) flits: u32,
    /// Release cycle.
    pub(crate) release: u64,
    /// Injection cycle of the head flit (`u64::MAX` until injected).
    pub(crate) inject: u64,
}

/// A phase-2 grant candidate: input port and its head flit. The output
/// VC it requests is `route_vc[slot.ri]`.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// `LOCAL_PORT` or the flat `(in_channel, vc)` buffer index.
    port: u32,
    /// The flit that would move.
    slot: FlitSlot,
}

/// The compiled, immutable half of the simulator: everything derivable
/// from (model, config) alone, built once in
/// [`Simulator::new`](crate::Simulator::new).
#[derive(Debug)]
pub(crate) struct SimCore {
    pub(crate) name: String,
    pub(crate) config: SimConfig,
    pub(crate) n_nodes: usize,
    pub(crate) num_vcs: usize,
    /// Channels as `(src, dst)` node indices, in the model's link order.
    pub(crate) channels: Vec<(u32, u32)>,
    /// Buffer-slot layout, grouped by destination node: channel `c`'s VC
    /// buffers occupy slots `chan_slot[c] .. chan_slot[c] + num_vcs`, and
    /// node `v`'s input slots are the contiguous range
    /// `node_slot_off[v] .. node_slot_off[v + 1]` (in-channels ascending,
    /// VCs ascending) — so a phase-2 candidate scan is one linear walk.
    pub(crate) chan_slot: Vec<u32>,
    pub(crate) node_slot_off: Vec<u32>,
    /// Node → output channels, CSR with channels ascending: node `v`'s
    /// are `out_ch[out_off[v] .. out_off[v + 1]]`. Lets the credit
    /// pipeline's arbitration passes scan each node's inputs once instead
    /// of once per output.
    pub(crate) out_off: Vec<u32>,
    pub(crate) out_ch: Vec<u32>,
    /// Owning channel of each buffer slot.
    pub(crate) slot_channel: Vec<u32>,
    /// Bit index of each slot within its node's group, for the requester
    /// masks (valid only when `masks_ok`).
    slot_bit: Vec<u8>,
    /// Whether every node's input-slot group fits a 64-bit requester mask;
    /// when false, phase 2 falls back to scanning the slot range.
    masks_ok: bool,
    /// Per-node router radix (switch and end-of-run idle energy).
    pub(crate) radix: Vec<usize>,
    /// Compiled routes: route `r` covers channel ids
    /// `route_chan[route_off[r]..route_off[r + 1]]` with per-hop VCs in
    /// `route_vc` at the same indices.
    pub(crate) route_chan: Vec<u32>,
    pub(crate) route_vc: Vec<u32>,
    pub(crate) route_off: Vec<u32>,
    /// Dense `src * n + dst` tables of compiled route ids (`NO_ROUTE` when
    /// the pair is unroutable).
    pair_primary: Vec<u32>,
    pair_alt: Vec<u32>,
    policy: RoutePolicy,
    /// Whether the model has *any* alternate routes (the stochastic policy
    /// falls back to the primary table when it has none).
    has_alt: bool,
}

impl SimCore {
    /// Lowers `model` into flat tables. Panics (like the reference loop
    /// would lazily) if a route hop is not a channel.
    pub(crate) fn compile(model: &NocModel, config: SimConfig) -> SimCore {
        let pairs: Vec<(NodeId, NodeId)> = model.links().map(|(c, _)| c).collect();
        let channel_index: std::collections::BTreeMap<(NodeId, NodeId), u32> = pairs
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u32))
            .collect();
        let n = model.node_count();
        let num_vcs = model.num_vcs().max(1);

        let mut in_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut out_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, &(s, d)) in pairs.iter().enumerate() {
            in_lists[d.index()].push(i as u32);
            out_lists[s.index()].push(i as u32);
        }
        let mut out_off = vec![0u32];
        let mut out_ch = Vec::with_capacity(pairs.len());
        for l in &out_lists {
            out_ch.extend_from_slice(l);
            out_off.push(out_ch.len() as u32);
        }
        let mut chan_slot = vec![0u32; pairs.len()];
        let mut slot_channel = Vec::with_capacity(pairs.len() * num_vcs);
        let mut node_slot_off = Vec::with_capacity(n + 1);
        node_slot_off.push(0u32);
        for l in &in_lists {
            for &c in l {
                chan_slot[c as usize] = slot_channel.len() as u32;
                slot_channel.extend(std::iter::repeat_n(c, num_vcs));
            }
            node_slot_off.push(slot_channel.len() as u32);
        }
        let mut slot_bit = vec![0u8; slot_channel.len()];
        let mut masks_ok = true;
        for v in 0..n {
            let (lo, hi) = (node_slot_off[v] as usize, node_slot_off[v + 1] as usize);
            masks_ok &= hi - lo <= 64;
            for (b, sb) in slot_bit[lo..hi].iter_mut().enumerate() {
                *sb = (b & 63) as u8;
            }
        }

        let radix: Vec<usize> = (0..n).map(|v| model.node_radix(NodeId(v))).collect();

        let mut route_chan = Vec::new();
        let mut route_vc = Vec::new();
        let mut route_off = vec![0u32];
        let mut pair_primary = vec![NO_ROUTE; n * n];
        let mut pair_alt = vec![NO_ROUTE; n * n];
        let mut compile_route = |path: &[NodeId], vcs: &[usize]| -> u32 {
            debug_assert_eq!(path.len() - 1, vcs.len(), "one VC per hop");
            let id = route_off.len() as u32 - 1;
            for (w, &vc) in path.windows(2).zip(vcs) {
                route_chan.push(
                    *channel_index
                        .get(&(w[0], w[1]))
                        .expect("route hop is a channel"),
                );
                route_vc.push(vc as u32);
            }
            // End-of-route sentinel: a head whose route index reaches it
            // reads `HEAD_EJECT` as its "requested channel" directly.
            route_chan.push(HEAD_EJECT);
            route_vc.push(0);
            route_off.push(route_chan.len() as u32);
            id
        };
        for (&(s, d), path) in model.routes_map() {
            if let Some(vcs) = model.vcs_map().get(&(s, d)) {
                pair_primary[s.index() * n + d.index()] = compile_route(path, vcs);
            }
        }
        for (&(s, d), path) in model.alt_routes_map() {
            if let Some(vcs) = model.alt_vcs_map().get(&(s, d)) {
                pair_alt[s.index() * n + d.index()] = compile_route(path, vcs);
            }
        }

        SimCore {
            name: model.name().to_string(),
            config,
            n_nodes: n,
            num_vcs,
            channels: pairs
                .iter()
                .map(|&(a, b)| (a.index() as u32, b.index() as u32))
                .collect(),
            chan_slot,
            node_slot_off,
            out_off,
            out_ch,
            slot_channel,
            slot_bit,
            masks_ok,
            radix,
            route_chan,
            route_vc,
            route_off,
            pair_primary,
            pair_alt,
            policy: model.policy(),
            has_alt: !model.alt_routes_map().is_empty(),
        }
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Channel-id range of compiled route `r` (`links` excludes the
    /// end-of-route sentinel entry).
    #[inline]
    pub(crate) fn route_span(&self, r: u32) -> (usize, usize) {
        let off = self.route_off[r as usize] as usize;
        (off, self.route_off[r as usize + 1] as usize - off - 1)
    }

    /// Replicates `NocModel::route_for_packet`'s per-packet route choice on
    /// the compiled tables.
    pub(crate) fn route_id_for(&self, src: usize, dst: usize, packet_idx: usize) -> Option<u32> {
        let primary = self.pair_primary[src * self.n_nodes + dst];
        let pick_primary = match self.policy {
            RoutePolicy::Fixed => true,
            RoutePolicy::Stochastic { seed } => {
                let mut h = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(packet_idx as u64);
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
                h ^= h >> 33;
                h & 1 == 0 || !self.has_alt
            }
        };
        let id = if pick_primary {
            primary
        } else {
            self.pair_alt[src * self.n_nodes + dst]
        };
        (id != NO_ROUTE).then_some(id)
    }
}

/// One technology's energy constants, compiled against a core's nodes
/// and channels: what a run adds per ejected flit and per switch grant.
#[derive(Debug)]
pub(crate) struct EnergyTable {
    model: EnergyModel,
    /// Per-node switch traversal energy at `flit_bits`.
    switch: Vec<Energy>,
    /// Per-channel link traversal energy at `flit_bits`, in the core's
    /// channel order.
    link: Vec<Energy>,
}

impl EnergyTable {
    pub(crate) fn compile(core: &SimCore, model: &NocModel, energy: EnergyModel) -> Self {
        let bits = core.config.flit_bits as f64;
        EnergyTable {
            switch: core
                .radix
                .iter()
                .map(|&r| energy.switch_event_energy_radix(bits, r))
                .collect(),
            // `links()` is the order `SimCore::compile` numbers channels in.
            link: model
                .links()
                .map(|(_, length_mm)| energy.link_event_energy(bits, length_mm))
                .collect(),
            model: energy,
        }
    }

    pub(crate) fn model(&self) -> &EnergyModel {
        &self.model
    }
}

/// Where a run's flit energy goes: the loops call [`eject`](Self::eject)
/// once per ejected flit and [`grant`](Self::grant) once per switch
/// grant, in the order those happen (see the module docs).
pub(crate) trait EnergyAcc {
    /// A flit left the network at `node` (its final switch traversal).
    fn eject(&mut self, node: usize);
    /// A flit crossed `node`'s switch onto `channel`.
    fn grant(&mut self, node: usize, channel: usize);
}

/// One technology's running energy sum over one run.
pub(crate) struct Tally<'a> {
    model: &'a EnergyModel,
    switch: &'a [Energy],
    link: &'a [Energy],
    sum: EnergyBreakdown,
}

impl<'a> Tally<'a> {
    pub(crate) fn new(table: &'a EnergyTable) -> Self {
        Tally {
            model: &table.model,
            switch: &table.switch,
            link: &table.link,
            sum: EnergyBreakdown::default(),
        }
    }

    /// Adds the idle/clock energy of the whole run (zero for ASIC
    /// profiles; the same per-node call sequence as the reference loop)
    /// and assembles the report under this technology's clock.
    fn report(mut self, core: &SimCore, run: &RunTotals) -> SimReport {
        for &r in &core.radix {
            self.sum.idle += self.model.idle_energy(r, run.cycles);
        }
        SimReport::assemble(
            core.name.clone(),
            run.cycles,
            run.offered,
            run.delivered,
            run.payload_bits,
            run.latency_sum,
            run.network_latency_sum,
            run.flits_injected,
            run.flits_ejected,
            self.sum,
            self.model.profile().clock_hz(),
        )
    }
}

impl EnergyAcc for Tally<'_> {
    #[inline]
    fn eject(&mut self, node: usize) {
        self.sum.switch += self.switch[node];
    }

    #[inline]
    fn grant(&mut self, node: usize, channel: usize) {
        self.sum.switch += self.switch[node];
        self.sum.link += self.link[channel];
    }
}

impl EnergyAcc for Vec<Tally<'_>> {
    #[inline]
    fn eject(&mut self, node: usize) {
        for tally in self {
            tally.eject(node);
        }
    }

    #[inline]
    fn grant(&mut self, node: usize, channel: usize) {
        for tally in self {
            tally.grant(node, channel);
        }
    }
}

/// One run's clock and every [`SimReport`] field that no technology
/// constant reaches, kept up to date by both loops as the run goes.
#[derive(Default)]
pub(crate) struct RunTotals {
    /// The current cycle while running; the makespan once done.
    pub(crate) cycles: u64,
    pub(crate) offered: usize,
    pub(crate) delivered: usize,
    payload_bits: u64,
    latency_sum: u64,
    network_latency_sum: u64,
    flits_injected: u64,
    flits_ejected: u64,
    /// Latest cycle in which a flit moved: the stall detector's reference.
    last_progress: u64,
    /// Cycles the idle jump skipped.
    idle_skipped: u64,
}

impl RunTotals {
    /// A flit moved this cycle.
    #[inline]
    pub(crate) fn moved(&mut self) {
        self.last_progress = self.cycles;
    }

    /// Counts `flit` leaving the network this cycle; a tail delivers its
    /// packet. Returns whether `flit` is a tail.
    #[inline]
    pub(crate) fn eject(&mut self, pkts: &[PacketRun], flit: FlitSlot) -> bool {
        self.flits_ejected += 1;
        self.moved();
        let tail = flit.idx & IDX_TAIL != 0;
        if tail {
            let p = &pkts[flit.pkt as usize];
            self.delivered += 1;
            self.latency_sum += self.cycles - p.release;
            self.network_latency_sum += self.cycles - p.inject;
        }
        tail
    }
}

/// Clears `v` and refills it with `len` copies of `value`, keeping its
/// allocation.
pub(crate) fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

/// What both grant loops run on: the packet table, each node's pending
/// queue and released front, the release heap, and the ring slab of
/// (channel, VC) input buffers. [`load`](Self::load) resets it for a core
/// and a trace.
#[derive(Debug, Default)]
pub(crate) struct Net {
    /// Per-run packet table.
    pub(crate) pkts: Vec<PacketRun>,
    /// Per-node pending packet ids ordered by `(release, id)`; `cursor`
    /// marks the current front.
    pending: Vec<Vec<u32>>,
    cursor: Vec<u32>,
    /// Flits already emitted of each node's front packet.
    pub(crate) emit: Vec<u32>,
    /// First-hop channel requested by each node's *released* front packet
    /// ([`HEAD_NONE`] when the front is missing or not yet released),
    /// refreshed at release wakes and tail injections.
    pub(crate) local_out: Vec<u32>,
    /// First-hop route index, packet id and flit count of the released
    /// front (valid like `local_out`), caching the pending-queue and
    /// packet-table lookups out of the per-visit path.
    pub(crate) local_ri: Vec<u32>,
    pub(crate) local_pid: Vec<u32>,
    local_flits: Vec<u32>,
    /// Next-release heap of `(release_cycle, node)`: an entry per node
    /// whose next pending packet is not released yet.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Ring-buffer slab, indexed `slot * cap + k` with slots in the core's
    /// node-grouped layout (`SimCore::chan_slot`).
    buf: Vec<FlitSlot>,
    /// Ring head position per buffer slot.
    buf_head: Vec<u32>,
    /// Occupancy per buffer slot.
    pub(crate) buf_len: Vec<u32>,
    /// Buffer depth in flits.
    pub(crate) cap: u32,
    /// Channels with a route-complete front flit in some VC buffer.
    pub(crate) eject: ActiveSet,
}

impl Net {
    /// Resets the net for `core` and loads `events`: the packet table
    /// (route choice is per packet — O1TURN), the per-node pending queues
    /// ordered by `(release, id)`, and one heap entry per non-empty queue
    /// for release wakes. Returns the run's totals at cycle 0.
    pub(crate) fn load(
        &mut self,
        core: &SimCore,
        events: &[TrafficEvent],
    ) -> Result<RunTotals, SimError> {
        let (n, ncvc) = (core.n_nodes, core.channels.len() * core.num_vcs);
        self.cap = core.config.buffer_flits as u32;
        refill(&mut self.buf, ncvc * self.cap as usize, FlitSlot::default());
        refill(&mut self.buf_head, ncvc, 0);
        refill(&mut self.buf_len, ncvc, 0);
        self.eject.reset(core.channels.len());
        self.pending.resize(n, Vec::new());
        for q in &mut self.pending {
            q.clear();
        }
        refill(&mut self.cursor, n, 0);
        refill(&mut self.emit, n, 0);
        refill(&mut self.local_out, n, HEAD_NONE);
        refill(&mut self.local_ri, n, 0);
        refill(&mut self.local_pid, n, 0);
        refill(&mut self.local_flits, n, 0);
        self.heap.clear();
        self.pkts.clear();
        self.pkts.reserve(events.len());

        let mut payload_bits = 0u64;
        for (idx, ev) in events.iter().enumerate() {
            let route = core
                .route_id_for(ev.src.index(), ev.dst.index(), idx)
                .ok_or(SimError::NoRoute {
                    src: ev.src,
                    dst: ev.dst,
                })?;
            let payload_flits = ev.payload_bits.div_ceil(core.config.flit_bits) as usize;
            let flits = (core.config.header_flits + payload_flits) as u32;
            assert!(
                flits < IDX_TAIL,
                "packet flit count must leave the tail-marker bit free"
            );
            self.pkts.push(PacketRun {
                route,
                flits,
                release: ev.release_cycle,
                inject: u64::MAX,
            });
            payload_bits += ev.payload_bits;
            self.pending[ev.src.index()].push(idx as u32);
        }
        for (u, q) in self.pending.iter_mut().enumerate() {
            // Stable, so equal releases keep id order.
            q.sort_by_key(|&id| self.pkts[id as usize].release);
            if let Some(&first) = q.first() {
                self.heap
                    .push(Reverse((self.pkts[first as usize].release, u as u32)));
            }
        }
        Ok(RunTotals {
            offered: events.len(),
            payload_bits,
            ..RunTotals::default()
        })
    }

    /// The front flit of buffer `cvc` (caller guarantees non-empty).
    #[inline]
    pub(crate) fn front(&self, cvc: usize) -> FlitSlot {
        self.buf[cvc * self.cap as usize + self.buf_head[cvc] as usize]
    }

    /// Drops the front flit of buffer `cvc` (caller guarantees non-empty).
    #[inline]
    pub(crate) fn pop(&mut self, cvc: usize) {
        self.buf_head[cvc] += 1;
        if self.buf_head[cvc] == self.cap {
            self.buf_head[cvc] = 0;
        }
        self.buf_len[cvc] -= 1;
    }

    /// Appends `flit` to buffer `cvc` (caller guarantees a free slot) and
    /// returns the new occupancy.
    #[inline]
    pub(crate) fn push(&mut self, cvc: usize, flit: FlitSlot) -> u32 {
        let mut tail = self.buf_head[cvc] + self.buf_len[cvc];
        if tail >= self.cap {
            tail -= self.cap;
        }
        self.buf[cvc * self.cap as usize + tail as usize] = flit;
        self.buf_len[cvc] += 1;
        self.buf_len[cvc]
    }

    /// Pops the next node whose pending packet is released by `cycle` and
    /// makes that packet the node's front.
    #[inline]
    pub(crate) fn wake(&mut self, core: &SimCore, cycle: u64) -> Option<usize> {
        while let Some(&Reverse((r, u))) = self.heap.peek() {
            if r > cycle {
                break;
            }
            self.heap.pop();
            if self.next_front(core, u as usize, cycle) {
                return Some(u as usize);
            }
        }
        None
    }

    /// Makes node `u`'s next pending packet its front if it is released
    /// by `cycle`, or else schedules a wake for its release. Returns
    /// whether a front was set.
    fn next_front(&mut self, core: &SimCore, u: usize, cycle: u64) -> bool {
        let Some(&id) = self.pending[u].get(self.cursor[u] as usize) else {
            return false;
        };
        let p = self.pkts[id as usize];
        if p.release > cycle {
            self.heap.push(Reverse((p.release, u as u32)));
            return false;
        }
        let (off, _) = core.route_span(p.route);
        self.local_out[u] = core.route_chan[off];
        self.local_ri[u] = off as u32;
        self.local_pid[u] = id;
        self.local_flits[u] = p.flits;
        true
    }

    /// Node `u`'s next local flit: the `emit`-th flit of its front packet,
    /// tail-marked when it is the last.
    #[inline]
    pub(crate) fn local_flit(&self, u: usize) -> FlitSlot {
        let idx = self.emit[u];
        let tail = if idx + 1 == self.local_flits[u] {
            IDX_TAIL
        } else {
            0
        };
        FlitSlot {
            pkt: self.local_pid[u],
            idx: idx | tail,
            ri: self.local_ri[u],
        }
    }

    /// Commits node `u`'s [`local_flit`](Self::local_flit) `flit`, granted
    /// this cycle: a head stamps its packet's injection cycle, and a tail
    /// moves the node on to its next packet. Returns whether that packet
    /// is released already, i.e. a new front to arm.
    #[inline]
    pub(crate) fn inject(
        &mut self,
        core: &SimCore,
        run: &mut RunTotals,
        u: usize,
        flit: FlitSlot,
    ) -> bool {
        self.emit[u] += 1;
        if flit.idx & IDX_MASK == 0 {
            self.pkts[flit.pkt as usize].inject = run.cycles;
        }
        run.flits_injected += 1;
        if flit.idx & IDX_TAIL == 0 {
            return false;
        }
        self.cursor[u] += 1;
        self.emit[u] = 0;
        self.local_out[u] = HEAD_NONE;
        self.next_front(core, u, run.cycles)
    }

    /// The watchdog and the stall detector, at the top of each cycle.
    /// `credit` is the credit pipeline's state in credit runs.
    #[inline]
    pub(crate) fn check(
        &self,
        core: &SimCore,
        run: &RunTotals,
        credit: Option<&CreditState>,
    ) -> Result<(), SimError> {
        if run.cycles >= core.config.max_cycles {
            return Err(SimError::Watchdog {
                max_cycles: core.config.max_cycles,
            });
        }
        if run.cycles.saturating_sub(run.last_progress) > core.config.stall_cycles {
            return Err(self.deadlock(core, run.cycles, run.offered - run.delivered, credit));
        }
        Ok(())
    }

    /// Nothing can move before the next release: skips straight to it —
    /// unless the per-cycle loop's stall detector or watchdog would fire
    /// first, in which case returns the identical error at the identical
    /// cycle.
    pub(crate) fn idle_jump(
        &self,
        core: &SimCore,
        run: &mut RunTotals,
        credit: Option<&CreditState>,
    ) -> Result<(), SimError> {
        let fire = run
            .last_progress
            .saturating_add(core.config.stall_cycles)
            .saturating_add(1)
            .min(core.config.max_cycles);
        match self.heap.peek() {
            Some(&Reverse((r, _))) if r < fire => {
                run.idle_skipped += r - run.cycles;
                run.cycles = r;
                Ok(())
            }
            _ if fire >= core.config.max_cycles => Err(SimError::Watchdog {
                max_cycles: core.config.max_cycles,
            }),
            _ => Err(self.deadlock(core, fire, run.offered - run.delivered, credit)),
        }
    }

    /// The deadlock error at `cycle`, with its blocked-buffer snapshot:
    /// every occupied (channel, VC) input buffer, channels then VCs
    /// ascending. A credit run adds the credit state toward each
    /// forwarding head's requested next hop.
    #[cold]
    fn deadlock(
        &self,
        core: &SimCore,
        cycle: u64,
        undelivered: usize,
        credit: Option<&CreditState>,
    ) -> SimError {
        let mut blocked = Vec::new();
        for (c, &(a, b)) in core.channels.iter().enumerate() {
            for vc in 0..core.num_vcs {
                let cvc = core.chan_slot[c] as usize + vc;
                if self.buf_len[cvc] == 0 {
                    continue;
                }
                let head = self.front(cvc);
                let req = core.route_chan[head.ri as usize];
                let (credits_available, last_credit_return_cycle) = match credit {
                    Some(cr) if req != HEAD_EJECT => cr.toward(
                        core.chan_slot[req as usize] as usize
                            + core.route_vc[head.ri as usize] as usize,
                    ),
                    _ => (None, None),
                };
                blocked.push(BlockedVc {
                    channel: (NodeId(a as usize), NodeId(b as usize)),
                    vc,
                    packet: head.pkt as usize,
                    hop: (head.ri - core.route_off[self.pkts[head.pkt as usize].route as usize])
                        as usize,
                    occupancy: self.buf_len[cvc] as usize,
                    credits_available,
                    last_credit_return_cycle,
                });
            }
        }
        SimError::Deadlock {
            cycle,
            undelivered,
            blocked,
        }
    }
}

/// The mutable half of a simulation: the [`Net`] both loops run on, the
/// ideal loop's head caches, locks and active sets, and the credit
/// pipeline's state. Reusable across runs of either fidelity (and across
/// sweep points / phases) without reallocation; each run resets what it
/// uses.
#[derive(Debug, Default)]
pub(crate) struct SimState {
    net: Net,
    /// Cycle stamp of each slot's latest arrival. `buf_len` includes
    /// same-cycle arrivals (so it doubles as the credit count), and this
    /// stamp keeps an arrival from becoming a *visible* head before
    /// phase 3: a pop that leaves only a flit stamped with the current
    /// cycle defers the reveal.
    fresh: Vec<u64>,
    /// Wormhole locks per `(channel, vc)`: `(port << 32) | packet`.
    locks: Vec<u64>,
    /// Output channel the current head flit of each `(channel, vc)` buffer
    /// requests — a cache of `route_chan[off + hop]`, refreshed only when
    /// the head changes, so a phase-2 probe is one compare instead of a
    /// route-table walk. [`HEAD_NONE`] when empty, [`HEAD_EJECT`] when the
    /// head has finished its route.
    head_out: Vec<u32>,
    /// Copy of the current head flit per slot (valid when the slot is
    /// non-empty), so probes and pops skip the ring indexing.
    head_flit: Vec<FlitSlot>,
    /// Round-robin pointers per output channel.
    rr: Vec<u32>,
    /// Output channels with a possible requester.
    outs: ActiveSet,
    /// Per-output-channel bitmask of requesting input slots, with bit `b`
    /// standing for slot `node_slot_off[src(c)] + b`. Maintained by
    /// `refresh_head` so a phase-2 visit iterates exactly its requesters.
    req_mask: Vec<u64>,
    /// `(slot, requested channel)` of slots whose sole flit arrived this
    /// cycle — either stored into an empty slot at grant time, or stranded
    /// as the last remaining flit by a later pop. The flit, its occupancy
    /// and the `head_flit` cache land immediately; phase 3 only publishes
    /// `head_out` (what probes read), keeping the arrival invisible until
    /// then.
    arrivals: Vec<(u32, u32)>,
    /// Phase-2 scratch candidate list.
    cands: Vec<Candidate>,
    /// State of the credit-based router model — untouched (and empty) when
    /// the configured fidelity is [`RouterFidelity::Ideal`].
    credit: CreditState,
}

impl SimState {
    /// Resets the ideal loop's own state for `core`.
    fn reset(&mut self, core: &SimCore) {
        let nch = core.channels.len();
        let ncvc = nch * core.num_vcs;
        refill(&mut self.fresh, ncvc, u64::MAX);
        refill(&mut self.locks, ncvc, LOCK_NONE);
        refill(&mut self.head_out, ncvc, HEAD_NONE);
        refill(&mut self.head_flit, ncvc, FlitSlot::default());
        refill(&mut self.rr, nch, 0);
        self.outs.reset(nch);
        refill(&mut self.req_mask, nch, 0);
        self.arrivals.clear();
        self.cands.clear();
    }
}

impl SimCore {
    /// Recomputes the cached head request of buffer `cvc` after a pop. A
    /// sole remaining flit that arrived this `cycle` is not yet a head:
    /// its `head_flit` cache is filled here, but `head_out` stays
    /// [`HEAD_NONE`] and the slot re-enters `arrivals`, publishing in
    /// phase 3 instead.
    #[inline]
    fn refresh_head(&self, st: &mut SimState, cvc: usize, cycle: u64) {
        let old = st.head_out[cvc];
        let len = st.net.buf_len[cvc];
        if len == 0 || (len == 1 && st.fresh[cvc] == cycle) {
            st.head_out[cvc] = HEAD_NONE;
            if len == 1 {
                let head = st.net.front(cvc);
                st.head_flit[cvc] = head;
                st.arrivals
                    .push((cvc as u32, self.route_chan[head.ri as usize]));
            }
        } else {
            let head = st.net.front(cvc);
            st.head_flit[cvc] = head;
            st.head_out[cvc] = self.route_chan[head.ri as usize];
        }
        // Keep the requester masks in sync (channel ids are the only
        // `head_out` values below the sentinels).
        let new = st.head_out[cvc];
        if self.masks_ok && old != new {
            let bit = 1u64 << self.slot_bit[cvc];
            if old < HEAD_EJECT {
                st.req_mask[old as usize] &= !bit;
            }
            if new < HEAD_EJECT {
                st.req_mask[new as usize] |= bit;
            }
        }
    }

    /// Runs `events` once and reports it under `table`: a report
    /// bit-identical to [`crate::reference::run_reference`] with that
    /// table's energy model.
    pub(crate) fn run_one(
        &self,
        st: &mut SimState,
        events: &[TrafficEvent],
        table: &EnergyTable,
    ) -> Result<SimReport, SimError> {
        let (run, tally) = self.run(st, events, Tally::new(table))?;
        Ok(tally.report(self, &run))
    }

    /// Runs `events` once and reports it under every table, in order:
    /// each report equals [`run_one`](Self::run_one) on its table in
    /// every field. A single table takes the single-technology loop.
    pub(crate) fn run_each(
        &self,
        st: &mut SimState,
        events: &[TrafficEvent],
        tables: &[EnergyTable],
    ) -> Result<Vec<SimReport>, SimError> {
        if let [table] = tables {
            return Ok(vec![self.run_one(st, events, table)?]);
        }
        let tallies: Vec<Tally> = tables.iter().map(Tally::new).collect();
        let (run, tallies) = self.run(st, events, tallies)?;
        Ok(tallies.into_iter().map(|t| t.report(self, &run)).collect())
    }

    /// Runs `events` to completion on `state` under the configured router
    /// fidelity, adding flit energy to `energy`: loads the net, runs the
    /// fidelity's grant loop, and records the counters both loops keep.
    fn run<A: EnergyAcc>(
        &self,
        st: &mut SimState,
        events: &[TrafficEvent],
        energy: A,
    ) -> Result<(RunTotals, A), SimError> {
        let tel = noc_telemetry::active();
        let _span = tel.map(|t| {
            t.span("sim.run")
                .field("model", self.name.as_str())
                .field("packets", events.len())
        });
        assert!(
            events.len() < u32::MAX as usize,
            "packet count must fit the engine's 32-bit ids"
        );
        let run = st.net.load(self, events)?;
        let (run, energy) = match self.config.router {
            RouterFidelity::Ideal => self.run_ideal(st, run, energy)?,
            RouterFidelity::Credit(pipe) => crate::router::run_credit(
                self,
                pipe,
                &mut st.net,
                &mut st.credit,
                run,
                tel,
                energy,
            )?,
        };
        if let Some(t) = tel {
            t.add("sim.cycles", run.cycles);
            t.add("sim.flits", run.flits_ejected);
            t.add("sim.idle_cycles_skipped", run.idle_skipped);
        }
        Ok((run, energy))
    }

    /// The ideal grant loop over the loaded `st.net`: one cycle per hop,
    /// VC allocation folded into switch allocation, credits implicit in
    /// downstream occupancy (see the module docs).
    fn run_ideal<A: EnergyAcc>(
        &self,
        st: &mut SimState,
        mut run: RunTotals,
        mut energy: A,
    ) -> Result<(RunTotals, A), SimError> {
        st.reset(self);
        let vcs = self.num_vcs;
        let cap32 = st.net.cap;

        while run.delivered < run.offered {
            st.net.check(self, &run, None)?;
            while let Some(u) = st.net.wake(self, run.cycles) {
                st.outs.set(st.net.local_out[u] as usize);
            }
            // Both active sets empty ⇒ nothing can move before the next
            // release.
            if st.net.eject.is_empty() && st.outs.is_empty() {
                st.net.idle_jump(self, &mut run, None)?;
                continue;
            }
            let cycle = run.cycles;

            // Phase 1: ejection. Pop every head flit that finished its
            // route; reveal the next head's request when one remains.
            let mut pos = 0usize;
            while let Some(c) = st.net.eject.next_at_or_after(pos) {
                pos = c + 1;
                st.net.eject.clear(c);
                let dst = self.channels[c].1 as usize;
                let base = self.chan_slot[c] as usize;
                for cvc in base..base + vcs {
                    loop {
                        match st.head_out[cvc] {
                            HEAD_NONE => break,
                            HEAD_EJECT => {}
                            oc => {
                                // Still forwarding: it requests a channel.
                                st.outs.set(oc as usize);
                                break;
                            }
                        }
                        let slot = st.head_flit[cvc];
                        let was_full = st.net.buf_len[cvc] == cap32;
                        st.net.pop(cvc);
                        self.refresh_head(st, cvc, cycle);
                        // Re-arm the channel only when this pop freed its
                        // first credit: a requester can be waiting on the
                        // pop only if it was credit-blocked, which needs
                        // the VC full — lock-blocked requesters unblock
                        // solely through grants on this channel, which
                        // keep its bit set themselves.
                        if was_full {
                            st.outs.set(c);
                        }
                        energy.eject(dst);
                        run.eject(&st.net.pkts, slot);
                    }
                }
            }

            // Phase 2: switch allocation, one grant per active output
            // channel. Candidates are built local-port-first then input
            // channels ascending, VCs ascending — already the order the
            // reference loop's sort produces, so no sort is needed.
            let mut pos = 0usize;
            while let Some(out_c) = st.outs.next_at_or_after(pos) {
                pos = out_c + 1;
                let u = self.channels[out_c].0 as usize;
                st.cands.clear();

                let out_c32 = out_c as u32;
                if st.net.local_out[u] == out_c32 {
                    st.cands.push(Candidate {
                        port: LOCAL_PORT,
                        slot: st.net.local_flit(u),
                    });
                }
                let lo = self.node_slot_off[u] as usize;
                if self.masks_ok {
                    // Iterate exactly the requesting slots, lowest bit
                    // first — in-channels ascending then VCs ascending,
                    // the reference loop's sorted candidate order.
                    let mut m = st.req_mask[out_c];
                    while m != 0 {
                        let cvc = lo + m.trailing_zeros() as usize;
                        m &= m - 1;
                        st.cands.push(Candidate {
                            port: cvc as u32,
                            slot: st.head_flit[cvc],
                        });
                    }
                } else {
                    // Node group too wide for a mask: walk the contiguous
                    // slot range, comparing each cached head request (the
                    // sentinels never match). Same order as above.
                    for cvc in lo..self.node_slot_off[u + 1] as usize {
                        if st.head_out[cvc] != out_c32 {
                            continue;
                        }
                        st.cands.push(Candidate {
                            port: cvc as u32,
                            slot: st.head_flit[cvc],
                        });
                    }
                }
                if st.cands.is_empty() {
                    // No possible requester left: deactivate until one of
                    // the reveal points re-arms the channel.
                    st.outs.clear(out_c);
                    continue;
                }

                // Round-robin arbitration with the wormhole lock and
                // credit discipline of the reference loop. The wraparound
                // is compare-and-reset rather than `%` — same values, no
                // per-visit division.
                let nc = st.cands.len();
                let dbase = self.chan_slot[out_c] as usize;
                let mut idx = st.rr[out_c] as usize;
                if idx >= nc {
                    idx %= nc;
                }
                let mut granted: Option<(Candidate, usize)> = None;
                for _ in 0..nc {
                    let cand = st.cands[idx];
                    let mut next = idx + 1;
                    if next == nc {
                        next = 0;
                    }
                    let out_cvc = dbase + self.route_vc[cand.slot.ri as usize] as usize;
                    let lock = st.locks[out_cvc];
                    let eligible = if lock == LOCK_NONE {
                        cand.slot.idx & IDX_MASK == 0 // only heads may acquire
                    } else {
                        lock == ((cand.port as u64) << 32 | cand.slot.pkt as u64)
                    };
                    if eligible && st.net.buf_len[out_cvc] < cap32 {
                        granted = Some((cand, out_cvc));
                        st.rr[out_c] = next as u32;
                        break;
                    }
                    idx = next;
                }
                let Some((cand, out_cvc)) = granted else {
                    // Candidates exist but all are lock- or credit-blocked.
                    // `rr` does not advance on a grantless visit, so the
                    // visit has no effect at all — deactivate. A grant can
                    // only become possible through a credit-freeing pop on
                    // this channel (which re-arms it), a lock transition
                    // (which only happens on this channel's own grants,
                    // after which the bit is still set), or a new head /
                    // release (the reveal points).
                    st.outs.clear(out_c);
                    continue;
                };

                // Commit: consume from the source port, revealing whatever
                // becomes the new head there.
                if cand.port == LOCAL_PORT {
                    if st.net.inject(self, &mut run, u, cand.slot) {
                        st.outs.set(st.net.local_out[u] as usize);
                    }
                } else {
                    let cvc = cand.port as usize;
                    let was_full = st.net.buf_len[cvc] == cap32;
                    st.net.pop(cvc);
                    self.refresh_head(st, cvc, cycle);
                    // First credit freed on the popped channel: re-arm it
                    // for its credit-blocked requesters (see the phase-1
                    // pop for why not-full pops need no re-arm). Live
                    // bitset insertion gives the same visibility the
                    // reference scan has — a channel later in this cycle's
                    // scan order sees the credit now, an earlier one next
                    // cycle.
                    let in_c = self.slot_channel[cvc] as usize;
                    if was_full {
                        st.outs.set(in_c);
                    }
                    match st.head_out[cvc] {
                        HEAD_NONE => {}
                        HEAD_EJECT => st.net.eject.set(in_c),
                        oc => st.outs.set(oc as usize),
                    }
                }
                if cand.slot.idx & IDX_MASK == 0 {
                    st.locks[out_cvc] = (cand.port as u64) << 32 | cand.slot.pkt as u64;
                }
                if cand.slot.idx & IDX_TAIL != 0 {
                    st.locks[out_cvc] = LOCK_NONE;
                }
                energy.grant(u, out_c);
                run.moved();
                // Store the moved flit and count it into `buf_len` right
                // away — the occupancy sum the credit check needs is the
                // same either way, the stamp in `fresh` keeps the flit
                // from becoming a visible head before phase 3, and the
                // absolute position `head + len` is invariant under any
                // later same-cycle pop of this slot. This is the slot's
                // only arrival this cycle (one grant per output channel).
                let arrived = FlitSlot {
                    ri: cand.slot.ri + 1,
                    ..cand.slot
                };
                st.fresh[out_cvc] = cycle;
                if st.net.push(out_cvc, arrived) == 1 {
                    // Arrival into an empty slot: it is the head, but
                    // `head_out` (what probes read) publishes in phase 3
                    // — only the private caches fill in now (a pop that
                    // strands an arrival as the sole flit does the same
                    // from `refresh_head`).
                    st.head_flit[out_cvc] = arrived;
                    st.arrivals
                        .push((out_cvc as u32, self.route_chan[arrived.ri as usize]));
                }
            }

            // Phase 3: reveal the heads of slots whose sole flit arrived
            // this cycle (occupancy already landed at grant time). Slots
            // with an older head keep it; nothing else to do.
            for i in 0..st.arrivals.len() {
                let (cvc32, out) = st.arrivals[i];
                let cvc = cvc32 as usize;
                debug_assert_eq!(st.head_out[cvc], HEAD_NONE);
                debug_assert_eq!(st.net.buf_len[cvc], 1);
                st.head_out[cvc] = out;
                match out {
                    HEAD_EJECT => st.net.eject.set(self.slot_channel[cvc] as usize),
                    oc => {
                        if self.masks_ok {
                            st.req_mask[oc as usize] |= 1u64 << self.slot_bit[cvc];
                        }
                        st.outs.set(oc as usize);
                    }
                }
            }
            st.arrivals.clear();
            run.cycles += 1;
        }
        Ok((run, energy))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use noc_energy::{EnergyModel, TechnologyProfile};
    use noc_graph::{DiGraph, NodeId};

    use super::{EnergyTable, SimCore, SimState};
    use crate::{
        CreditConfig, NocModel, RouterFidelity, SimConfig, SimError, SimReport, TrafficEvent,
    };

    /// The report's f64 fields by bits.
    fn bits(r: &SimReport) -> [u64; 6] {
        [
            r.avg_packet_latency_cycles.to_bits(),
            r.avg_network_latency_cycles.to_bits(),
            r.energy.switch.joules().to_bits(),
            r.energy.link.joules().to_bits(),
            r.energy.idle.joules().to_bits(),
            r.clock_hz.to_bits(),
        ]
    }

    #[test]
    fn one_state_serves_alternating_ideal_and_credit_runs() {
        // The 4-node ring whose routes each take two hops: with 1-flit
        // buffers its four packets deadlock with every buffer full.
        let mut routes = BTreeMap::new();
        for s in 0..4usize {
            let d = (s + 2) % 4;
            routes.insert(
                (NodeId(s), NodeId(d)),
                vec![NodeId(s), NodeId((s + 1) % 4), NodeId(d)],
            );
        }
        let ring = NocModel::from_parts("ring", DiGraph::cycle(4), routes, BTreeMap::new(), 1.0);
        let ring_config = SimConfig {
            buffer_flits: 1,
            stall_cycles: 200,
            ..SimConfig::default()
        };
        let workloads = [
            (
                NocModel::mesh(4, 4, 2.0),
                SimConfig::default(),
                crate::traffic::uniform_random(16, 200, 128, 42),
            ),
            (
                NocModel::mesh(2, 1, 1.0),
                SimConfig::default(),
                vec![
                    TrafficEvent::new(0, NodeId(0), NodeId(1), 256),
                    TrafficEvent::new(3, NodeId(1), NodeId(0), 64),
                    TrafficEvent::new(40, NodeId(0), NodeId(1), 32),
                ],
            ),
            (
                ring,
                ring_config,
                (0..4)
                    .map(|s| TrafficEvent::new(0, NodeId(s), NodeId((s + 2) % 4), 256))
                    .collect(),
            ),
        ];
        let energy = EnergyModel::new(TechnologyProfile::cmos_180nm());
        // Consecutive runs switch fidelity and model, and every model runs
        // under both fidelities; each must match a run on a fresh state.
        let mut reused = SimState::default();
        for step in 0..7 {
            let (model, config, events) = &workloads[step % workloads.len()];
            let router = if step % 2 == 0 {
                RouterFidelity::Ideal
            } else {
                RouterFidelity::Credit(CreditConfig::default())
            };
            let config = SimConfig { router, ..*config };
            let core = SimCore::compile(model, config);
            let table = EnergyTable::compile(&core, model, energy.clone());
            let got = core.run_one(&mut reused, events, &table);
            let want = core.run_one(&mut SimState::default(), events, &table);
            let what = format!("step {step}: {} under {router:?}", model.name());
            assert_eq!(got, want, "{what}");
            if let (Ok(got), Ok(want)) = (&got, &want) {
                assert_eq!(bits(got), bits(want), "{what}");
            }
            if model.name() == "ring" {
                let Err(SimError::Deadlock { blocked, .. }) = &got else {
                    panic!("{what}: expected a deadlock, got {got:?}");
                };
                assert_eq!(blocked.len(), 4, "{what}");
                assert!(blocked.iter().all(|b| b.occupancy == 1), "{what}");
            } else {
                assert!(got.is_ok(), "{what}: {got:?}");
            }
        }
    }
}
