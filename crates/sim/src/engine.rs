//! The event-driven simulator engine: compiled models, active-channel
//! scheduling and flat buffers.
//!
//! [`SimCore`] is the "compile once, simulate many" half: built once per
//! [`Simulator`](crate::Simulator), it lowers the model into dense arrays —
//! a channel index, per-node input-channel lists, every route as a sequence
//! of channel indices — so the cycle loop never touches a `BTreeMap` or
//! re-derives a radix. One core serves every point of a sweep and every
//! phase of a phased run. Each technology's per-node/per-channel energy
//! constants compile into their own [`EnergyTable`] beside it.
//!
//! **Energy accumulator.** Both loops (this one and the credit loop in
//! [`crate::router`]) add energy through one type parameter
//! `A: EnergyAcc`: a call per ejected flit and per switch grant, in the
//! order those happen. [`Tally`] is one technology's sum, the
//! instantiation [`Simulator`](crate::Simulator) and one-model sweeps
//! run. A `Vec<Tally>` adds every technology's own constants at each of
//! those calls, so each technology's f64 sums see the same operands in
//! the same order as its single run, and one run reports every
//! technology bit for bit ([`SimCore::run_each`]). Routes, arbitration
//! and latency never read an energy constant.
//!
//! [`SimState`] is the mutable half: flat ring buffers in one slab,
//! staged-arrival counters, wormhole locks and round-robin pointers, all
//! reusable across runs without reallocation.
//!
//! The loop itself is the same three phases as the reference semantics
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
        self.words.clear();
        self.words.resize(bits.div_ceil(64), 0);
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
    /// Payload bits, for throughput accounting.
    pub(crate) payload_bits: u64,
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
        for (i, &(_, d)) in pairs.iter().enumerate() {
            in_lists[d.index()].push(i as u32);
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

/// What one run measured apart from energy: every [`SimReport`] field
/// that no technology constant reaches.
pub(crate) struct RunTotals {
    pub(crate) cycles: u64,
    pub(crate) offered: usize,
    pub(crate) delivered: usize,
    pub(crate) payload_bits: u64,
    pub(crate) latency_sum: u64,
    pub(crate) network_latency_sum: u64,
    pub(crate) flits_injected: u64,
    pub(crate) flits_ejected: u64,
}

/// The mutable half of a simulation: one flat slab of ring buffers plus
/// the scheduling state. Reusable across runs (and across sweep points /
/// phases) without reallocation; `SimCore::run` resets it first.
#[derive(Debug, Default)]
pub(crate) struct SimState {
    /// Ring-buffer slab, indexed `slot * buffer_flits + k` with slots in
    /// the core's node-grouped layout (`SimCore::chan_slot`).
    buf: Vec<FlitSlot>,
    /// Ring head position per buffer slot.
    buf_head: Vec<u32>,
    /// Occupancy per buffer slot.
    buf_len: Vec<u32>,
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
    /// Channels with an ejectable head flit.
    eject: ActiveSet,
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
    /// Per-node pending packet ids ordered by `(release, id)`; `cursor`
    /// marks the current front.
    pending: Vec<Vec<u32>>,
    cursor: Vec<u32>,
    /// First-hop channel requested by each node's *released* front packet
    /// ([`HEAD_NONE`] when the front is missing or not yet released) — the
    /// local-port analogue of `head_out`, refreshed at release wakes and
    /// tail injections.
    local_out: Vec<u32>,
    /// First-hop route index of the released front (valid like `local_vc`).
    local_ri: Vec<u32>,
    /// Packet id and flit count of the released front (valid like
    /// `local_vc`), caching the pending-queue and packet-table lookups out
    /// of the per-visit path.
    local_pid: Vec<u32>,
    local_flits: Vec<u32>,
    /// Flits already emitted of each node's front packet.
    emit: Vec<u32>,
    /// Next-release heap of `(release_cycle, node)` for idle skipping.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per-run packet table.
    pkts: Vec<PacketRun>,
    /// Scratch for the release-order sort.
    order: Vec<u32>,
    /// State of the credit-based router model — untouched (and empty) when
    /// the configured fidelity is [`RouterFidelity::Ideal`].
    credit: crate::router::CreditState,
}

impl SimState {
    fn reset(&mut self, core: &SimCore, packets: usize) {
        let ncvc = core.channels.len() * core.num_vcs;
        self.buf.clear();
        self.buf
            .resize(ncvc * core.config.buffer_flits, FlitSlot::default());
        self.buf_head.clear();
        self.buf_head.resize(ncvc, 0);
        self.buf_len.clear();
        self.buf_len.resize(ncvc, 0);
        self.fresh.clear();
        self.fresh.resize(ncvc, u64::MAX);
        self.locks.clear();
        self.locks.resize(ncvc, LOCK_NONE);
        self.head_out.clear();
        self.head_out.resize(ncvc, HEAD_NONE);
        self.head_flit.clear();
        self.head_flit.resize(ncvc, FlitSlot::default());
        self.rr.clear();
        self.rr.resize(core.channels.len(), 0);
        self.eject.reset(core.channels.len());
        self.outs.reset(core.channels.len());
        self.req_mask.clear();
        self.req_mask.resize(core.channels.len(), 0);
        self.arrivals.clear();
        self.cands.clear();
        self.pending.resize(core.n_nodes, Vec::new());
        for q in &mut self.pending {
            q.clear();
        }
        self.cursor.clear();
        self.cursor.resize(core.n_nodes, 0);
        self.local_out.clear();
        self.local_out.resize(core.n_nodes, HEAD_NONE);
        self.local_ri.clear();
        self.local_ri.resize(core.n_nodes, 0);
        self.local_pid.clear();
        self.local_pid.resize(core.n_nodes, 0);
        self.local_flits.clear();
        self.local_flits.resize(core.n_nodes, 0);
        self.emit.clear();
        self.emit.resize(core.n_nodes, 0);
        self.heap.clear();
        self.pkts.clear();
        self.pkts.reserve(packets);
        self.order.clear();
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
        let len = st.buf_len[cvc];
        if len == 0 || (len == 1 && st.fresh[cvc] == cycle) {
            st.head_out[cvc] = HEAD_NONE;
            if len == 1 {
                let head = st.buf[cvc * self.config.buffer_flits + st.buf_head[cvc] as usize];
                st.head_flit[cvc] = head;
                st.arrivals
                    .push((cvc as u32, self.route_chan[head.ri as usize]));
            }
        } else {
            let head = st.buf[cvc * self.config.buffer_flits + st.buf_head[cvc] as usize];
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
    /// fidelity, adding flit energy to `energy`.
    fn run<A: EnergyAcc>(
        &self,
        st: &mut SimState,
        events: &[TrafficEvent],
        mut energy: A,
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
        if let RouterFidelity::Credit(pipe) = self.config.router {
            return crate::router::run_credit(self, pipe, &mut st.credit, events, tel, energy);
        }
        st.reset(self, events.len());
        let vcs = self.num_vcs;
        let cap = self.config.buffer_flits;
        let cap32 = cap as u32;

        // Build the packet table (route choice is per packet — O1TURN).
        for (idx, ev) in events.iter().enumerate() {
            let route = self
                .route_id_for(ev.src.index(), ev.dst.index(), idx)
                .ok_or(SimError::NoRoute {
                    src: ev.src,
                    dst: ev.dst,
                })?;
            let payload_flits = ev.payload_bits.div_ceil(self.config.flit_bits) as usize;
            let flits = (self.config.header_flits + payload_flits) as u32;
            assert!(
                flits < IDX_TAIL,
                "packet flit count must leave the tail-marker bit free"
            );
            st.pkts.push(PacketRun {
                route,
                flits,
                release: ev.release_cycle,
                inject: u64::MAX,
                payload_bits: ev.payload_bits,
            });
        }

        // Per-node pending queues ordered by (release, id), then one heap
        // entry per non-empty queue for release wakeups.
        st.order.extend(0..events.len() as u32);
        st.order.sort_by_key(|&i| (st.pkts[i as usize].release, i));
        for i in 0..st.order.len() {
            let id = st.order[i];
            st.pending[events[id as usize].src.index()].push(id);
        }
        for (u, q) in st.pending.iter().enumerate() {
            if let Some(&first) = q.first() {
                st.heap
                    .push(Reverse((st.pkts[first as usize].release, u as u32)));
            }
        }

        let total = st.pkts.len();
        let mut delivered = 0usize;
        let mut flits_ejected: u64 = 0;
        let mut flits_injected: u64 = 0;
        let mut cycle: u64 = 0;
        let mut last_progress_cycle: u64 = 0;
        let mut latency_sum: u64 = 0;
        let mut network_latency_sum: u64 = 0;
        let mut idle_cycles_skipped: u64 = 0;

        while delivered < total {
            if cycle >= self.config.max_cycles {
                return Err(SimError::Watchdog {
                    max_cycles: self.config.max_cycles,
                });
            }
            if cycle.saturating_sub(last_progress_cycle) > self.config.stall_cycles {
                return Err(SimError::Deadlock {
                    cycle,
                    undelivered: total - delivered,
                    blocked: self.blocked_snapshot(st),
                });
            }

            // Wake nodes whose next pending packet has been released.
            while let Some(&Reverse((r, u))) = st.heap.peek() {
                if r > cycle {
                    break;
                }
                st.heap.pop();
                let u = u as usize;
                if let Some(&front) = st.pending[u].get(st.cursor[u] as usize) {
                    let rel = st.pkts[front as usize].release;
                    if rel <= cycle {
                        let (off, _) = self.route_span(st.pkts[front as usize].route);
                        st.local_out[u] = self.route_chan[off];
                        st.local_ri[u] = off as u32;
                        st.local_pid[u] = front;
                        st.local_flits[u] = st.pkts[front as usize].flits;
                        st.outs.set(self.route_chan[off] as usize);
                    } else {
                        st.heap.push(Reverse((rel, u as u32)));
                    }
                }
            }

            // Both active sets empty ⇒ the network is empty and no packet
            // is releasable: nothing can move before the next release, so
            // skip straight to it — unless the reference loop's stall
            // counter or watchdog would fire first, in which case produce
            // the identical error at the identical cycle.
            if st.eject.is_empty() && st.outs.is_empty() {
                let fire = last_progress_cycle
                    .saturating_add(self.config.stall_cycles)
                    .saturating_add(1)
                    .min(self.config.max_cycles);
                match st.heap.peek() {
                    Some(&Reverse((r, _))) if r < fire => {
                        idle_cycles_skipped += r - cycle;
                        cycle = r;
                        continue;
                    }
                    _ => {
                        return if fire >= self.config.max_cycles {
                            Err(SimError::Watchdog {
                                max_cycles: self.config.max_cycles,
                            })
                        } else {
                            Err(SimError::Deadlock {
                                cycle: fire,
                                undelivered: total - delivered,
                                blocked: self.blocked_snapshot(st),
                            })
                        };
                    }
                }
            }

            let mut moved = false;

            // Phase 1: ejection. Pop every head flit that finished its
            // route; reveal the next head's request when one remains.
            let mut pos = 0usize;
            while let Some(c) = st.eject.next_at_or_after(pos) {
                pos = c + 1;
                st.eject.clear(c);
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
                        let was_full = st.buf_len[cvc] == cap32;
                        st.buf_head[cvc] += 1;
                        if st.buf_head[cvc] == cap32 {
                            st.buf_head[cvc] = 0;
                        }
                        st.buf_len[cvc] -= 1;
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
                        flits_ejected += 1;
                        moved = true;
                        if slot.idx & IDX_TAIL != 0 {
                            let p = &st.pkts[slot.pkt as usize];
                            delivered += 1;
                            latency_sum += cycle - p.release;
                            network_latency_sum += cycle - p.inject;
                        }
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
                if st.local_out[u] == out_c32 {
                    let idx = st.emit[u];
                    let tail = if idx + 1 == st.local_flits[u] {
                        IDX_TAIL
                    } else {
                        0
                    };
                    st.cands.push(Candidate {
                        port: LOCAL_PORT,
                        slot: FlitSlot {
                            pkt: st.local_pid[u],
                            idx: idx | tail,
                            ri: st.local_ri[u],
                        },
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
                    if eligible && st.buf_len[out_cvc] < cap32 {
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
                let pkt_id = cand.slot.pkt as usize;
                let is_tail = cand.slot.idx & IDX_TAIL != 0;
                if cand.port == LOCAL_PORT {
                    st.emit[u] += 1;
                    if cand.slot.idx & IDX_MASK == 0 {
                        st.pkts[pkt_id].inject = cycle;
                    }
                    flits_injected += 1;
                    if is_tail {
                        st.cursor[u] += 1;
                        st.emit[u] = 0;
                        st.local_out[u] = HEAD_NONE;
                        if let Some(&next) = st.pending[u].get(st.cursor[u] as usize) {
                            let rel = st.pkts[next as usize].release;
                            if rel <= cycle {
                                let (off, _) = self.route_span(st.pkts[next as usize].route);
                                st.local_out[u] = self.route_chan[off];
                                st.local_ri[u] = off as u32;
                                st.local_pid[u] = next;
                                st.local_flits[u] = st.pkts[next as usize].flits;
                                st.outs.set(self.route_chan[off] as usize);
                            } else {
                                st.heap.push(Reverse((rel, u as u32)));
                            }
                        }
                    }
                } else {
                    let cvc = cand.port as usize;
                    let was_full = st.buf_len[cvc] == cap32;
                    st.buf_head[cvc] += 1;
                    if st.buf_head[cvc] == cap32 {
                        st.buf_head[cvc] = 0;
                    }
                    st.buf_len[cvc] -= 1;
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
                        HEAD_EJECT => st.eject.set(in_c),
                        oc => st.outs.set(oc as usize),
                    }
                }
                if cand.slot.idx & IDX_MASK == 0 {
                    st.locks[out_cvc] = (cand.port as u64) << 32 | cand.slot.pkt as u64;
                }
                if is_tail {
                    st.locks[out_cvc] = LOCK_NONE;
                }
                energy.grant(u, out_c);
                // Store the moved flit and count it into `buf_len` right
                // away — the occupancy sum the credit check needs is the
                // same either way, the stamp in `fresh` keeps the flit
                // from becoming a visible head before phase 3, and the
                // absolute position `head + len` is invariant under any
                // later same-cycle pop of this slot. This is the slot's
                // only arrival this cycle (one grant per output channel).
                let mut tail = st.buf_head[out_cvc] + st.buf_len[out_cvc];
                if tail >= cap32 {
                    tail -= cap32;
                }
                let arrived = FlitSlot {
                    pkt: cand.slot.pkt,
                    idx: cand.slot.idx,
                    ri: cand.slot.ri + 1,
                };
                st.buf[out_cvc * cap + tail as usize] = arrived;
                st.buf_len[out_cvc] += 1;
                st.fresh[out_cvc] = cycle;
                if st.buf_len[out_cvc] == 1 {
                    // Arrival into an empty slot: it is the head, but
                    // `head_out` (what probes read) publishes in phase 3
                    // — only the private caches fill in now (a pop that
                    // strands an arrival as the sole flit does the same
                    // from `refresh_head`).
                    st.head_flit[out_cvc] = arrived;
                    st.arrivals
                        .push((out_cvc as u32, self.route_chan[arrived.ri as usize]));
                }
                moved = true;
            }

            // Phase 3: reveal the heads of slots whose sole flit arrived
            // this cycle (occupancy already landed at grant time). Slots
            // with an older head keep it; nothing else to do.
            for i in 0..st.arrivals.len() {
                let (cvc32, out) = st.arrivals[i];
                let cvc = cvc32 as usize;
                debug_assert_eq!(st.head_out[cvc], HEAD_NONE);
                debug_assert_eq!(st.buf_len[cvc], 1);
                st.head_out[cvc] = out;
                match out {
                    HEAD_EJECT => st.eject.set(self.slot_channel[cvc] as usize),
                    oc => {
                        if self.masks_ok {
                            st.req_mask[oc as usize] |= 1u64 << self.slot_bit[cvc];
                        }
                        st.outs.set(oc as usize);
                    }
                }
            }
            st.arrivals.clear();
            if moved {
                last_progress_cycle = cycle;
            }
            cycle += 1;
        }

        if let Some(t) = tel {
            t.add("sim.cycles", cycle);
            t.add("sim.flits", flits_ejected);
            t.add("sim.idle_cycles_skipped", idle_cycles_skipped);
        }
        let run = RunTotals {
            cycles: cycle,
            offered: total,
            delivered,
            payload_bits: st.pkts.iter().map(|p| p.payload_bits).sum(),
            latency_sum,
            network_latency_sum,
            flits_injected,
            flits_ejected,
        };
        Ok((run, energy))
    }

    /// The blocked-buffer snapshot attached to deadlock errors: every
    /// occupied (channel, VC) input buffer, channels then VCs ascending.
    fn blocked_snapshot(&self, st: &SimState) -> Vec<BlockedVc> {
        let mut blocked = Vec::new();
        for (c, &(a, b)) in self.channels.iter().enumerate() {
            for vc in 0..self.num_vcs {
                let cvc = self.chan_slot[c] as usize + vc;
                if st.buf_len[cvc] == 0 {
                    continue;
                }
                let head = st.buf[cvc * self.config.buffer_flits + st.buf_head[cvc] as usize];
                blocked.push(BlockedVc {
                    channel: (NodeId(a as usize), NodeId(b as usize)),
                    vc,
                    packet: head.pkt as usize,
                    hop: (head.ri - self.route_off[st.pkts[head.pkt as usize].route as usize])
                        as usize,
                    occupancy: st.buf_len[cvc] as usize,
                    credits_available: None,
                    last_credit_return_cycle: None,
                });
            }
        }
        blocked
    }
}
