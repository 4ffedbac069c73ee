//! Credit-based virtual-channel router pipeline (RC → VA → SA → ST).
//!
//! This is the high-fidelity router model behind
//! [`RouterFidelity::Credit`](crate::RouterFidelity::Credit). Only its
//! grant loop, [`run_credit`], is its own. The packet table, injection
//! queues, input buffers, release wakes, injection commit, stall checks,
//! idle jump and deadlock snapshot are the ideal engine's ([`Net`]), and
//! so are the clock and delivery accounting ([`RunTotals`]) and the energy
//! accumulator ([`EnergyAcc`]); see the [`crate::engine`] docs.
//! [`CreditState`] holds what only the pipeline needs. The loop replaces
//! the one-cycle-per-hop grant with an explicit pipeline:
//!
//! * **RC (route computation)** — a newly revealed *head* flit dwells
//!   [`CreditConfig::rc_cycles`] cycles before it may arbitrate (routes
//!   are precompiled, so RC models latency only). Body and tail flits
//!   inherit the head's route and skip RC. RC at the source router is
//!   folded into packet release.
//! * **VA (virtual-channel allocation)** — a head must win its requested
//!   output (channel, VC) before competing for the switch: one grant per
//!   output VC per cycle, round-robin among the requesting input ports,
//!   held until the tail traverses the switch. This is the wormhole lock
//!   made an explicit, separately arbitrated resource — losers stall at
//!   their buffer front and head-of-line block everything behind them.
//! * **SA (switch allocation)** — one flit per output channel per cycle
//!   (link bandwidth), round-robin among the input ports whose front flit
//!   holds the output VC, is RC-complete, and has a credit available.
//! * **ST (switch + link traversal)** — a granted flit is in flight for
//!   [`CreditConfig::st_cycles`] cycles before landing downstream.
//!   Landings and credit returns apply at the top of a cycle, so a depth
//!   of 0 behaves exactly like 1 for ST and for the credit return.
//!
//! **Credits.** Each (channel, VC) input buffer hands its upstream router
//! `buffer_flits` credits. SA consumes one per grant; a downstream pop
//! (forwarding or ejection) returns one after
//! [`CreditConfig::credit_return_cycles`]. The conservation invariant —
//! per (channel, VC), per cycle:
//!
//! ```text
//! credits_available + buffer_occupancy + flits_in_flight + returns_in_flight
//!     == buffer_flits
//! ```
//!
//! is `debug_assert`ed every cycle of every run, so every debug-mode test
//! that touches credit mode checks it continuously.
//!
//! **Arming invariant for credit returns.** A return is scheduled at the
//! *pop*, never at the eventual grant it unblocks — so the return queue
//! length equals the number of outstanding pops and the invariant above
//! holds cycle-by-cycle with no terminal drain special-case. Returns,
//! landings and releases are the only time-keyed events; when the network
//! is completely empty the loop takes the shared idle jump to the next
//! release (or the identical stall/watchdog error at the identical cycle).
//!
//! **Event-driven, like the ideal engine.** Every report, error and
//! counter is what a loop that rescans everything every cycle produces;
//! the loop just skips work that would do nothing.
//!
//! * *FIFO pipeline queues.* In-flight flits and credit returns sit in
//!   `VecDeque`s, not priority queues. Within a run `st_cycles` and
//!   `credit_return_cycles` are constants and the cycle never decreases,
//!   so push order is due order. Flits landing in the same cycle go to
//!   distinct (channel, VC) buffers, because SA makes one grant per
//!   output channel per cycle, and returns due in the same cycle commute;
//!   so the order within a cycle changes nothing either.
//! * *Active sets* ([`ActiveSet`] bitsets). Each pass visits only its
//!   set, in ascending order, so every f64 energy sum keeps the full
//!   scan's order, and a visit the sets skip would have done nothing:
//!   - `eject` (the net's): channels with a route-complete front flit. A
//!     channel enters when such a flit lands in an empty buffer or an SA
//!     pop reveals one, and leaves after its visit, which drains them all.
//!   - `va_nodes`: nodes with an unheld head at an input front, ready or
//!     not, or an unheld released local front. A node enters at release
//!     wakes, tail injections, head landings into empty buffers and head
//!     reveals, and leaves when a visit leaves no such head. Heads still
//!     in RC or denied a VC stay, so conflicts count every cycle.
//!   - `sa_nodes`: nodes whose local port or an input holds an output VC.
//!     A node enters at a VA grant and leaves when a visit leaves no hold.
//!     Credit-blocked holders stay, so credit stalls count every cycle.
//!
//! Error semantics match the ideal engine: the stall detector raises
//! [`SimError::Deadlock`] after `stall_cycles` without movement, and the
//! snapshot additionally reports, per blocked head, the credits available
//! toward its requested next hop and the last credit-return cycle seen
//! there ([`CreditState::toward`]) — the two facts that distinguish a
//! credit-starvation stall from a protocol deadlock.

use std::collections::VecDeque;

use noc_telemetry::Telemetry;

use crate::engine::{
    refill, ActiveSet, EnergyAcc, FlitSlot, Net, RunTotals, SimCore, HEAD_EJECT, IDX_MASK,
    IDX_TAIL, LOCAL_PORT, LOCK_NONE,
};
use crate::{CreditConfig, SimError};

/// In-flight flit record: `(land_cycle, dest cvc, flit)`.
type Flight = (u64, u32, FlitSlot);

/// "No output VC held" sentinel for the per-port hold registers.
const HOLD_NONE: u32 = u32::MAX;
/// "Never" sentinel for the last-credit-return stamps.
const NEVER: u64 = u64::MAX;

/// The credit pipeline's own state, reusable across runs without
/// reallocation (the sweep and phased drivers carry it inside
/// [`SimState`](crate::engine::SimState) beside the shared [`Net`]).
#[derive(Debug, Default)]
pub(crate) struct CreditState {
    /// Output (channel, VC) slot held by each node's front head via VA.
    local_hold: Vec<u32>,
    /// Cycle at which the current head flit is RC-complete and may
    /// arbitrate (meaningful only while the buffer is non-empty).
    head_ready: Vec<u64>,
    /// Output (channel, VC) slot held by this input's resident packet.
    hold: Vec<u32>,

    // Per-(channel, VC) output-side allocation state.
    vc_lock: Vec<u64>,
    credits: Vec<u32>,
    last_return: Vec<u64>,
    rr_va: Vec<u32>,
    /// Per-output-channel switch-allocation round-robin pointer.
    rr_sa: Vec<u32>,

    // Time-keyed event queues, FIFO: every entry is due a constant delay
    // after the (non-decreasing) cycle that pushed it, so push order is
    // due order.
    /// Credit returns as `(apply_cycle, cvc)`.
    returns: VecDeque<(u64, u32)>,
    /// In-flight flits.
    flights: VecDeque<Flight>,

    // Conservation bookkeeping (the debug invariant and snapshots).
    in_flight: Vec<u32>,
    pending_ret: Vec<u32>,

    /// VA request buckets, one per output (channel, VC); filled and
    /// drained every cycle.
    va_req: Vec<Vec<u32>>,
    /// SA request buckets, one per output channel; filled and drained
    /// every cycle.
    sa_req: Vec<Vec<u32>>,

    // Active sets, walked ascending so the f64 energy sums keep the order
    // of a full scan.
    /// Nodes with an unheld head at an input-buffer front (RC-complete or
    /// not) or an unheld released local front: every VA requester.
    va_nodes: ActiveSet,
    /// Nodes whose local port or an input holds an output VC: every SA
    /// requester.
    sa_nodes: ActiveSet,
}

impl CreditState {
    fn reset(&mut self, core: &SimCore) {
        let nch = core.channels.len();
        let ncvc = nch * core.num_vcs;
        refill(&mut self.local_hold, core.n_nodes, HOLD_NONE);
        refill(&mut self.head_ready, ncvc, NEVER);
        refill(&mut self.hold, ncvc, HOLD_NONE);
        refill(&mut self.vc_lock, ncvc, LOCK_NONE);
        refill(&mut self.credits, ncvc, core.config.buffer_flits as u32);
        refill(&mut self.last_return, ncvc, NEVER);
        refill(&mut self.rr_va, ncvc, 0);
        refill(&mut self.rr_sa, nch, 0);
        self.returns.clear();
        self.flights.clear();
        refill(&mut self.in_flight, ncvc, 0);
        refill(&mut self.pending_ret, ncvc, 0);
        self.va_req.resize_with(ncvc, Vec::new);
        for q in &mut self.va_req {
            q.clear();
        }
        self.sa_req.resize_with(nch, Vec::new);
        for q in &mut self.sa_req {
            q.clear();
        }
        self.va_nodes.reset(core.n_nodes);
        self.sa_nodes.reset(core.n_nodes);
    }

    /// A new front flit in buffer `cvc`: a head starts its RC dwell, and
    /// the flit enters the active set of the pass that moves it next —
    /// ejection if its route is complete, VA at the buffer's node if it
    /// is a forwarding head. A forwarding body flit's node already holds
    /// its output VC, so it is in `sa_nodes`.
    #[inline]
    fn reveal(&mut self, core: &SimCore, net: &mut Net, rc_cycles: u64, cvc: usize, cycle: u64) {
        let front = net.front(cvc);
        let head = front.idx & IDX_MASK == 0;
        self.head_ready[cvc] = if head { cycle + rc_cycles } else { cycle };
        let c = core.slot_channel[cvc] as usize;
        if core.route_chan[front.ri as usize] == HEAD_EJECT {
            net.eject.set(c);
        } else if head {
            self.va_nodes.set(core.channels[c].1 as usize);
        }
    }

    /// The credit fields of a deadlock snapshot for a head requesting
    /// output (channel, VC) slot `out_cvc`: the credits available toward
    /// it and the last cycle a credit returned there.
    pub(crate) fn toward(&self, out_cvc: usize) -> (Option<usize>, Option<u64>) {
        let last = self.last_return[out_cvc];
        (
            Some(self.credits[out_cvc] as usize),
            (last != NEVER).then_some(last),
        )
    }
}

/// VC-lock key for `port` feeding `pkt` (the engine's lock encoding).
#[inline]
fn lock_key(port: u32, pkt: u32) -> u64 {
    (port as u64) << 32 | pkt as u64
}

/// The credit pipeline's grant loop over the loaded `net`, adding flit
/// energy to `energy`.
pub(crate) fn run_credit<A: EnergyAcc>(
    core: &SimCore,
    pipe: CreditConfig,
    net: &mut Net,
    st: &mut CreditState,
    mut run: RunTotals,
    tel: Option<&'static Telemetry>,
    mut energy: A,
) -> Result<(RunTotals, A), SimError> {
    st.reset(core);
    let vcs = core.num_vcs;
    let mut credit_stalls: u64 = 0;
    let mut vc_conflicts: u64 = 0;
    // Buffered flits network-wide and nodes with an active (released,
    // unfinished) front packet — the emptiness test for idle skipping.
    let mut occupied: usize = 0;
    let mut fronts_active: usize = 0;

    while run.delivered < run.offered {
        net.check(core, &run, Some(st))?;
        while let Some(u) = net.wake(core, run.cycles) {
            debug_assert_eq!(st.local_hold[u], HOLD_NONE);
            fronts_active += 1;
            st.va_nodes.set(u);
        }
        let cycle = run.cycles;

        // Apply credit returns due this cycle.
        while let Some(&(t, cvc)) = st.returns.front() {
            if t > cycle {
                break;
            }
            st.returns.pop_front();
            let cvc = cvc as usize;
            st.credits[cvc] += 1;
            st.pending_ret[cvc] -= 1;
            st.last_return[cvc] = t;
        }

        // Land in-flight flits due this cycle (ST complete).
        let mut landed = false;
        while let Some(&(t, cvc, flit)) = st.flights.front() {
            if t > cycle {
                break;
            }
            st.flights.pop_front();
            let cvc = cvc as usize;
            st.in_flight[cvc] -= 1;
            occupied += 1;
            landed = true;
            if net.push(cvc, flit) == 1 {
                st.reveal(core, net, pipe.rc_cycles, cvc, cycle);
            }
        }
        if landed {
            run.moved();
        } else if occupied == 0 && st.flights.is_empty() && fronts_active == 0 {
            // Network completely empty and no front releasable.
            net.idle_jump(core, &mut run, Some(st))?;
            continue;
        }

        // Ejection: unbounded sink bandwidth, no arbitration — pop every
        // route-complete front (including ones revealed by the pop) and
        // return its credit upstream. Only channels in `eject` have one,
        // and a visit leaves none.
        let mut pos = 0;
        while let Some(c) = net.eject.next_at_or_after(pos) {
            pos = c + 1;
            let dst = core.channels[c].1 as usize;
            let base = core.chan_slot[c] as usize;
            for cvc in base..base + vcs {
                while net.buf_len[cvc] > 0 {
                    let head = net.front(cvc);
                    if core.route_chan[head.ri as usize] != HEAD_EJECT {
                        break;
                    }
                    net.pop(cvc);
                    occupied -= 1;
                    st.pending_ret[cvc] += 1;
                    st.returns
                        .push_back((cycle + pipe.credit_return_cycles, cvc as u32));
                    energy.eject(dst);
                    if run.eject(&net.pkts, head) {
                        st.hold[cvc] = HOLD_NONE;
                    }
                    if net.buf_len[cvc] > 0 {
                        st.reveal(core, net, pipe.rc_cycles, cvc, cycle);
                    }
                }
            }
            net.eject.clear(c);
        }

        // VA: one grant per output (channel, VC) per cycle, round-robin
        // over the requesting ports (local injection first, then input
        // buffers ascending — the engine's candidate order). A head
        // requests once it is RC-complete; denied requests (VC busy, or
        // lost the arbitration) count as allocation conflicts. Each
        // requester names exactly one output (channel, VC), so the
        // requests are bucketed in a single pass over each node's inputs
        // and grants across outputs stay independent — same winners as
        // scanning the inputs once per output, at a fraction of the cost.
        // Only nodes in `va_nodes` have a requester; a node leaves the set
        // when its visit leaves no unheld head.
        let mut pos = 0;
        while let Some(u) = st.va_nodes.next_at_or_after(pos) {
            pos = u + 1;
            let mut unheld = 0u32;
            let mut any = false;
            if (net.local_out[u] as usize) < core.channels.len()
                && net.emit[u] == 0
                && st.local_hold[u] == HOLD_NONE
            {
                unheld += 1;
                let ri = net.local_ri[u] as usize;
                let out_cvc =
                    core.chan_slot[net.local_out[u] as usize] as usize + core.route_vc[ri] as usize;
                st.va_req[out_cvc].push(LOCAL_PORT);
                any = true;
            }
            let (lo, hi) = (
                core.node_slot_off[u] as usize,
                core.node_slot_off[u + 1] as usize,
            );
            for cvc in lo..hi {
                if net.buf_len[cvc] == 0 || st.hold[cvc] != HOLD_NONE {
                    continue;
                }
                let head = net.front(cvc);
                if head.idx & IDX_MASK != 0 {
                    continue;
                }
                unheld += 1;
                if st.head_ready[cvc] > cycle {
                    continue;
                }
                let rc = core.route_chan[head.ri as usize];
                debug_assert_ne!(rc, HEAD_EJECT, "eject heads drain in the ejection pass");
                let out_cvc =
                    core.chan_slot[rc as usize] as usize + core.route_vc[head.ri as usize] as usize;
                st.va_req[out_cvc].push(cvc as u32);
                any = true;
            }
            if any {
                let (olo, ohi) = (core.out_off[u] as usize, core.out_off[u + 1] as usize);
                for &c in &core.out_ch[olo..ohi] {
                    for v in 0..vcs {
                        let out_cvc = core.chan_slot[c as usize] as usize + v;
                        let n = st.va_req[out_cvc].len();
                        if n == 0 {
                            continue;
                        }
                        if st.vc_lock[out_cvc] != LOCK_NONE {
                            vc_conflicts += n as u64;
                            st.va_req[out_cvc].clear();
                            continue;
                        }
                        let winner = st.va_req[out_cvc][st.rr_va[out_cvc] as usize % n];
                        st.va_req[out_cvc].clear();
                        st.rr_va[out_cvc] = (st.rr_va[out_cvc] as usize % n + 1) as u32;
                        vc_conflicts += (n - 1) as u64;
                        if winner == LOCAL_PORT {
                            st.vc_lock[out_cvc] = lock_key(LOCAL_PORT, net.local_pid[u]);
                            st.local_hold[u] = out_cvc as u32;
                        } else {
                            let head = net.front(winner as usize);
                            st.vc_lock[out_cvc] = lock_key(winner, head.pkt);
                            st.hold[winner as usize] = out_cvc as u32;
                        }
                        unheld -= 1;
                        st.sa_nodes.set(u);
                    }
                }
            }
            if unheld == 0 {
                st.va_nodes.clear(u);
            }
        }

        // SA: one flit per output channel per cycle among the ports whose
        // front flit holds the output VC, is ready, and has a credit.
        // Credit-blocked holders are the credit-stall telemetry. Bucketed
        // exactly like VA: every holder competes for the one channel its
        // held VC lives on, and a grant never changes another channel's
        // candidate set within the cycle (pops land `st_cycles` later,
        // credits and locks are per-output), so build-then-grant picks
        // the same winners as the per-output scan. Only nodes in
        // `sa_nodes` hold an output VC; a node leaves the set when its
        // visit leaves no hold.
        let mut pos = 0;
        while let Some(u) = st.sa_nodes.next_at_or_after(pos) {
            pos = u + 1;
            let mut holds = 0u32;
            let mut any = false;
            if st.local_hold[u] != HOLD_NONE {
                holds += 1;
                let out_cvc = st.local_hold[u] as usize;
                if st.credits[out_cvc] > 0 {
                    st.sa_req[net.local_out[u] as usize].push(LOCAL_PORT);
                    any = true;
                } else {
                    credit_stalls += 1;
                }
            }
            let (lo, hi) = (
                core.node_slot_off[u] as usize,
                core.node_slot_off[u + 1] as usize,
            );
            for cvc in lo..hi {
                if st.hold[cvc] == HOLD_NONE {
                    continue;
                }
                holds += 1;
                if net.buf_len[cvc] == 0 || st.head_ready[cvc] > cycle {
                    continue;
                }
                let head = net.front(cvc);
                let out_cvc = st.hold[cvc] as usize;
                debug_assert_eq!(st.vc_lock[out_cvc], lock_key(cvc as u32, head.pkt));
                if st.credits[out_cvc] > 0 {
                    st.sa_req[core.route_chan[head.ri as usize] as usize].push(cvc as u32);
                    any = true;
                } else {
                    credit_stalls += 1;
                }
            }
            if any {
                let (olo, ohi) = (core.out_off[u] as usize, core.out_off[u + 1] as usize);
                for &c in &core.out_ch[olo..ohi] {
                    let c = c as usize;
                    let n = st.sa_req[c].len();
                    if n == 0 {
                        continue;
                    }
                    let winner = st.sa_req[c][st.rr_sa[c] as usize % n];
                    st.sa_req[c].clear();
                    st.rr_sa[c] = (st.rr_sa[c] as usize % n + 1) as u32;

                    let (flit, out_cvc) = if winner == LOCAL_PORT {
                        let flit = net.local_flit(u);
                        let out_cvc = st.local_hold[u] as usize;
                        if flit.idx & IDX_TAIL != 0 {
                            st.local_hold[u] = HOLD_NONE;
                            holds -= 1;
                            fronts_active -= 1;
                        }
                        if net.inject(core, &mut run, u, flit) {
                            fronts_active += 1;
                            st.va_nodes.set(u);
                        }
                        (flit, out_cvc)
                    } else {
                        let cvc = winner as usize;
                        let flit = net.front(cvc);
                        let out_cvc = st.hold[cvc] as usize;
                        net.pop(cvc);
                        occupied -= 1;
                        st.pending_ret[cvc] += 1;
                        st.returns
                            .push_back((cycle + pipe.credit_return_cycles, cvc as u32));
                        if flit.idx & IDX_TAIL != 0 {
                            st.hold[cvc] = HOLD_NONE;
                            holds -= 1;
                        }
                        if net.buf_len[cvc] > 0 {
                            st.reveal(core, net, pipe.rc_cycles, cvc, cycle);
                        }
                        (flit, out_cvc)
                    };
                    if flit.idx & IDX_TAIL != 0 {
                        st.vc_lock[out_cvc] = LOCK_NONE;
                    }
                    st.credits[out_cvc] -= 1;
                    st.in_flight[out_cvc] += 1;
                    let next_hop = FlitSlot {
                        ri: flit.ri + 1,
                        ..flit
                    };
                    st.flights
                        .push_back((cycle + pipe.st_cycles, out_cvc as u32, next_hop));
                    energy.grant(u, c);
                    run.moved();
                }
            }
            if holds == 0 {
                st.sa_nodes.clear(u);
            }
        }

        // Credit conservation, per (channel, VC), per cycle: what the
        // upstream allocator can spend plus everything already spent but
        // not yet returned is exactly the buffer depth.
        #[cfg(debug_assertions)]
        for cvc in 0..st.credits.len() {
            debug_assert_eq!(
                st.credits[cvc] + net.buf_len[cvc] + st.in_flight[cvc] + st.pending_ret[cvc],
                net.cap,
                "credit conservation violated at (channel, vc) slot {cvc}, cycle {cycle}"
            );
        }

        run.cycles += 1;
    }

    if let Some(t) = tel {
        t.add("sim.credit_stall_cycles", credit_stalls);
        t.add("sim.vc_alloc_conflicts", vc_conflicts);
    }
    Ok((run, energy))
}

#[cfg(test)]
mod tests {
    use noc_energy::{EnergyModel, TechnologyProfile};
    use noc_graph::{DiGraph, NodeId};

    use crate::{
        CreditConfig, NocModel, RouterFidelity, SimConfig, SimError, Simulator, TrafficEvent,
    };

    fn energy() -> EnergyModel {
        EnergyModel::new(TechnologyProfile::cmos_180nm())
    }

    fn credit_cfg() -> SimConfig {
        SimConfig {
            router: RouterFidelity::Credit(CreditConfig::default()),
            ..SimConfig::default()
        }
    }

    #[test]
    fn single_hop_latency_matches_ideal() {
        // One hop has no intermediate router, so the pipeline adds
        // nothing: head injects at 0, lands and ejects at 1, tail at 2.
        let m = NocModel::mesh(2, 1, 1.0);
        let report = Simulator::new(&m, credit_cfg(), energy())
            .run(vec![TrafficEvent::new(0, NodeId(0), NodeId(1), 32)])
            .unwrap();
        assert_eq!(report.packets_delivered, 1);
        assert_eq!(report.avg_packet_latency_cycles, 2.0);
        assert_eq!(report.flits_injected, 2);
        assert_eq!(report.flits_ejected, 2);
    }

    #[test]
    fn each_intermediate_router_adds_rc_cycles() {
        // On a line, every intermediate router charges the head RC before
        // it can arbitrate: latency = ideal + rc * (hops - 1).
        for rc in [1u64, 3] {
            let cfg = SimConfig {
                router: RouterFidelity::Credit(CreditConfig {
                    rc_cycles: rc,
                    ..CreditConfig::default()
                }),
                ..SimConfig::default()
            };
            let m = NocModel::mesh(4, 1, 1.0);
            let ideal = Simulator::new(&m, SimConfig::default(), energy())
                .run(vec![TrafficEvent::new(0, NodeId(0), NodeId(3), 32)])
                .unwrap();
            let credit = Simulator::new(&m, cfg, energy())
                .run(vec![TrafficEvent::new(0, NodeId(0), NodeId(3), 32)])
                .unwrap();
            assert_eq!(
                credit.avg_packet_latency_cycles,
                ideal.avg_packet_latency_cycles + (rc * 2) as f64,
                "rc={rc}"
            );
        }
    }

    #[test]
    fn st_depth_stretches_the_flight_time() {
        let slow = SimConfig {
            router: RouterFidelity::Credit(CreditConfig {
                st_cycles: 4,
                ..CreditConfig::default()
            }),
            ..SimConfig::default()
        };
        let m = NocModel::mesh(2, 1, 1.0);
        let fast = Simulator::new(&m, credit_cfg(), energy())
            .run(vec![TrafficEvent::new(0, NodeId(0), NodeId(1), 32)])
            .unwrap();
        let stretched = Simulator::new(&m, slow, energy())
            .run(vec![TrafficEvent::new(0, NodeId(0), NodeId(1), 32)])
            .unwrap();
        // Each flit's single hop takes 3 extra cycles in flight.
        assert_eq!(
            stretched.avg_packet_latency_cycles,
            fast.avg_packet_latency_cycles + 3.0
        );
    }

    #[test]
    fn zero_st_and_credit_return_depths_act_as_one_cycle() {
        // Landings and credit returns apply at the top of a cycle, so one
        // scheduled in the current cycle takes effect in the next: a depth
        // of 0 is a depth of 1. RC differs — a head revealed under
        // `rc_cycles: 0` may request in the cycle it is revealed.
        let m = NocModel::mesh(4, 4, 1.0);
        let events = crate::traffic::bernoulli(16, 300, 0.3, 64, 1);
        let run = |rc_cycles, st_cycles, credit_return_cycles| {
            let cfg = SimConfig {
                router: RouterFidelity::Credit(CreditConfig {
                    rc_cycles,
                    st_cycles,
                    credit_return_cycles,
                }),
                ..SimConfig::default()
            };
            Simulator::new(&m, cfg, energy())
                .run(events.clone())
                .unwrap()
        };
        let one = run(1, 1, 1);
        for (st, cr) in [(0, 0), (0, 1), (1, 0)] {
            let zero = run(1, st, cr);
            assert_eq!(zero, one, "st {st}, credit return {cr}");
            assert_eq!(
                zero.avg_packet_latency_cycles.to_bits(),
                one.avg_packet_latency_cycles.to_bits()
            );
        }
        assert_ne!(run(0, 1, 1).total_cycles, one.total_cycles);
    }

    #[test]
    fn credit_mode_is_deterministic_and_conserves_flits() {
        let m = NocModel::mesh(4, 4, 2.0);
        let events = crate::traffic::uniform_random(16, 200, 128, 42);
        let a = Simulator::new(&m, credit_cfg(), energy())
            .run(events.clone())
            .unwrap();
        let b = Simulator::new(&m, credit_cfg(), energy())
            .run(events)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.packets_delivered, 200);
        assert_eq!(a.flits_injected, a.flits_ejected);
    }

    #[test]
    fn contention_raises_credit_mode_latency_above_ideal() {
        let m = NocModel::mesh(4, 4, 2.0);
        let events = crate::traffic::uniform_random(16, 300, 128, 7);
        let ideal = Simulator::new(&m, SimConfig::default(), energy())
            .run(events.clone())
            .unwrap();
        let credit = Simulator::new(&m, credit_cfg(), energy())
            .run(events)
            .unwrap();
        assert_eq!(credit.packets_delivered, ideal.packets_delivered);
        assert!(credit.avg_packet_latency_cycles > ideal.avg_packet_latency_cycles);
    }

    #[test]
    fn head_of_line_blocking_delays_traffic_to_a_free_output() {
        // A fork: 0 -> 1, then 1 -> 2 and 1 -> 3. P0 (0->2) monopolizes
        // (1,2) long enough that P1 (0->3) queues behind it in the (0,1)
        // buffer even though its own output (1,3) is idle — the blocked
        // head must delay P1 beyond its uncontended latency.
        let topo = DiGraph::from_edges(4, [(0, 1), (1, 2), (1, 3)]).unwrap();
        let mut routes = std::collections::BTreeMap::new();
        routes.insert(
            (NodeId(0), NodeId(2)),
            vec![NodeId(0), NodeId(1), NodeId(2)],
        );
        routes.insert(
            (NodeId(0), NodeId(3)),
            vec![NodeId(0), NodeId(1), NodeId(3)],
        );
        let m = NocModel::from_parts("fork", topo, routes, std::collections::BTreeMap::new(), 1.0);
        let cfg = SimConfig {
            buffer_flits: 2,
            ..credit_cfg()
        };
        let alone = Simulator::new(&m, cfg, energy())
            .run(vec![TrafficEvent::new(0, NodeId(0), NodeId(3), 32)])
            .unwrap();
        let behind = Simulator::new(&m, cfg, energy())
            .run(vec![
                TrafficEvent::new(0, NodeId(0), NodeId(2), 512),
                TrafficEvent::new(0, NodeId(0), NodeId(3), 32),
            ])
            .unwrap();
        // Mean latency with the 17-flit P0 ahead far exceeds P1 alone.
        assert!(behind.avg_packet_latency_cycles > alone.avg_packet_latency_cycles);
        assert_eq!(behind.packets_delivered, 2);
    }

    #[test]
    fn forced_credit_exhaustion_reports_the_stall_reason() {
        // Two sources feed a shared link (2,3) with single-flit buffers
        // and a credit-return latency far beyond the stall budget. P0's
        // head takes the (2,3) VC and drains; P0's tail starves at the
        // source (its first-hop credit never returns), so P1's head sits
        // in the (1,2) buffer holding nothing, VC-blocked, with zero
        // credits visible toward (2,3) and no return ever seen.
        let topo = DiGraph::from_edges(4, [(0, 2), (1, 2), (2, 3)]).unwrap();
        let mut routes = std::collections::BTreeMap::new();
        routes.insert(
            (NodeId(0), NodeId(3)),
            vec![NodeId(0), NodeId(2), NodeId(3)],
        );
        routes.insert(
            (NodeId(1), NodeId(3)),
            vec![NodeId(1), NodeId(2), NodeId(3)],
        );
        let m = NocModel::from_parts(
            "shared-link",
            topo,
            routes,
            std::collections::BTreeMap::new(),
            1.0,
        );
        let cfg = SimConfig {
            buffer_flits: 1,
            stall_cycles: 50,
            router: RouterFidelity::Credit(CreditConfig {
                credit_return_cycles: 1_000_000,
                ..CreditConfig::default()
            }),
            ..SimConfig::default()
        };
        let err = Simulator::new(&m, cfg, energy())
            .run(vec![
                TrafficEvent::new(0, NodeId(0), NodeId(3), 32),
                TrafficEvent::new(0, NodeId(1), NodeId(3), 32),
            ])
            .unwrap_err();
        let SimError::Deadlock { blocked, .. } = err else {
            panic!("expected a credit-starvation deadlock, got {err:?}");
        };
        let stuck = blocked
            .iter()
            .find(|b| b.channel == (NodeId(1), NodeId(2)))
            .expect("P1's head is stuck in the (1,2) buffer");
        assert_eq!(stuck.occupancy, 1);
        assert_eq!(stuck.credits_available, Some(0));
        assert_eq!(stuck.last_credit_return_cycle, None);
    }

    #[test]
    fn ideal_mode_snapshots_carry_no_credit_fields() {
        // The ideal engine has no credit counters: its deadlock snapshots
        // must report `None` for both credit fields (and bit-match the
        // reference loop, which the equivalence suite enforces).
        let topo = DiGraph::cycle(4);
        let mut routes = std::collections::BTreeMap::new();
        for s in 0..4usize {
            let d = (s + 2) % 4;
            routes.insert(
                (NodeId(s), NodeId(d)),
                vec![NodeId(s), NodeId((s + 1) % 4), NodeId(d)],
            );
        }
        let m = NocModel::from_parts("ring", topo, routes, std::collections::BTreeMap::new(), 1.0);
        let cfg = SimConfig {
            buffer_flits: 1,
            stall_cycles: 200,
            ..SimConfig::default()
        };
        let events: Vec<_> = (0..4)
            .map(|s| TrafficEvent::new(0, NodeId(s), NodeId((s + 2) % 4), 256))
            .collect();
        let err = Simulator::new(&m, cfg, energy()).run(events).unwrap_err();
        let SimError::Deadlock { blocked, .. } = err else {
            panic!("expected deadlock, got {err:?}");
        };
        assert!(!blocked.is_empty());
        assert!(blocked
            .iter()
            .all(|b| b.credits_available.is_none() && b.last_credit_return_cycle.is_none()));
    }

    #[test]
    fn empty_traffic_and_release_gaps_behave_like_ideal() {
        let m = NocModel::mesh(2, 1, 1.0);
        let empty = Simulator::new(&m, credit_cfg(), energy())
            .run(Vec::new())
            .unwrap();
        assert_eq!(empty.total_cycles, 0);
        // A release gap longer than the stall budget raises the same
        // empty-snapshot deadlock at the same cycle as the ideal engine.
        let cfg = SimConfig {
            stall_cycles: 50,
            ..credit_cfg()
        };
        let err = Simulator::new(&m, cfg, energy())
            .run(vec![TrafficEvent::new(200, NodeId(0), NodeId(1), 32)])
            .unwrap_err();
        match err {
            SimError::Deadlock {
                cycle,
                undelivered,
                blocked,
            } => {
                assert_eq!(cycle, 51);
                assert_eq!(undelivered, 1);
                assert!(blocked.is_empty());
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_fires_in_credit_mode() {
        let m = NocModel::mesh(4, 4, 1.0);
        let cfg = SimConfig {
            max_cycles: 3,
            ..credit_cfg()
        };
        let events = crate::traffic::uniform_random(16, 50, 256, 1);
        let err = Simulator::new(&m, cfg, energy()).run(events).unwrap_err();
        assert_eq!(err, SimError::Watchdog { max_cycles: 3 });
    }
}
