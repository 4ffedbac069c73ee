//! The simulator facade: wormhole switching with credit flow control.
//!
//! Each cycle runs three phases:
//!
//! 1. **Ejection** — flits that finished their route leave the network
//!    (counted as the final switch traversal of Equation 1).
//! 2. **Switch allocation** — per output channel, a round-robin arbiter
//!    picks among the local injection port and the input buffers whose head
//!    flit requests that output. Wormhole semantics: a head flit locks the
//!    (channel, VC) for its packet until the tail passes; a flit only moves
//!    if the downstream buffer has a free slot (credit).
//! 3. **Arrival** — flits granted in phase 2 appear in the downstream
//!    buffer at the next cycle (one cycle per hop: router + link).
//!
//! Simplifications (documented in `DESIGN.md`): ejection bandwidth is
//! unbounded, and router pipeline depth is one cycle per hop; contention,
//! serialization and queueing — the effects the Section 5.2 comparison
//! hinges on — are modeled faithfully.
//!
//! The cycle loop itself lives in the event-driven [`crate::engine`];
//! [`Simulator::new`] compiles the model once into a [`SimCore`] that is
//! reused across runs, sweep points and phases. The original full-rescan
//! loop is preserved verbatim in [`crate::reference`] and the two are held
//! bit-identical by the equivalence test suite.

use noc_energy::EnergyModel;
use noc_graph::NodeId;

use crate::engine::{EnergyTable, SimCore, SimState};
use crate::{NocModel, SimReport, TrafficEvent};

/// Pipeline depths and latencies of the credit-based router model
/// ([`RouterFidelity::Credit`]). All fields are cycle counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CreditConfig {
    /// Route-computation (RC) depth: cycles a newly revealed *head* flit
    /// spends in a router before it may request VC allocation. Body and
    /// tail flits inherit the head's route and skip RC.
    pub rc_cycles: u64,
    /// Switch-traversal + link (ST) depth: cycles between a switch-
    /// allocation grant and the flit landing in the downstream buffer.
    /// Landings apply at the top of a cycle, so a flit lands the cycle
    /// after its grant at the earliest: `0` behaves exactly like `1`.
    pub st_cycles: u64,
    /// Credit-return latency: cycles between a downstream buffer pop and
    /// the freed credit becoming visible to the upstream allocator.
    /// Returns apply at the top of a cycle, so a credit is visible the
    /// cycle after its pop at the earliest: `0` behaves exactly like `1`.
    pub credit_return_cycles: u64,
}

impl Default for CreditConfig {
    /// A 3-stage-visible pipeline: 1-cycle RC, 1-cycle ST, 1-cycle credit
    /// return (VA and SA arbitrate within the grant cycle).
    fn default() -> Self {
        CreditConfig {
            rc_cycles: 1,
            st_cycles: 1,
            credit_return_cycles: 1,
        }
    }
}

/// Which router model the simulator runs.
///
/// `Ideal` is the seed-compatible model: one cycle per hop, VC allocation
/// folded into switch allocation, credits implicit in downstream occupancy.
/// Every report it produces is bit-identical to the preserved reference
/// loop (enforced by the equivalence suite). `Credit` is the explicit
/// RC → VA → SA → ST pipeline with per-(channel, VC) credit counters and
/// return latency — the `router` module's source docs describe the model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RouterFidelity {
    /// Idealized wormhole flow control (the seed semantics).
    #[default]
    Ideal,
    /// Credit-based virtual-channel router with explicit pipeline stages.
    Credit(CreditConfig),
}

impl RouterFidelity {
    /// Stable lowercase label ("ideal" / "credit") used by campaign
    /// reports and benchmark rows.
    pub fn label(&self) -> &'static str {
        match self {
            RouterFidelity::Ideal => "ideal",
            RouterFidelity::Credit(_) => "credit",
        }
    }
}

/// Simulator tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Flit width in bits (also the channel width).
    pub flit_bits: u64,
    /// Input buffer depth per (channel, VC), in flits.
    pub buffer_flits: usize,
    /// Header overhead per packet, in flits.
    pub header_flits: usize,
    /// Hard cycle cap (a watchdog against livelock).
    pub max_cycles: u64,
    /// Declare deadlock after this many cycles without any flit movement
    /// while traffic is still in flight.
    pub stall_cycles: u64,
    /// Router model fidelity (ideal wormhole vs. credit-based pipeline).
    pub router: RouterFidelity,
}

impl Default for SimConfig {
    /// 32-bit flits, 4-flit buffers, 1 header flit — a typical lightweight
    /// 2005-era NoC router configuration — under the ideal router model.
    fn default() -> Self {
        SimConfig {
            flit_bits: 32,
            buffer_flits: 4,
            header_flits: 1,
            max_cycles: 10_000_000,
            stall_cycles: 10_000,
            router: RouterFidelity::Ideal,
        }
    }
}

/// One stalled (channel, virtual channel) input buffer in a
/// [`SimError::Deadlock`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedVc {
    /// The channel whose input buffer holds the stalled flits.
    pub channel: (NodeId, NodeId),
    /// The virtual channel index within that buffer.
    pub vc: usize,
    /// Packet owning the buffer's head flit (the wormhole occupant).
    pub packet: usize,
    /// The head flit's next route hop index — which link it is waiting
    /// for.
    pub hop: usize,
    /// Flits occupying the buffer.
    pub occupancy: usize,
    /// Credits available toward the head's requested next-hop
    /// (channel, VC) at the declaring cycle. `None` under
    /// [`RouterFidelity::Ideal`] (where credits are implicit in downstream
    /// occupancy) and for heads waiting to eject.
    pub credits_available: Option<usize>,
    /// Cycle at which the last credit for that next-hop buffer was
    /// returned upstream — `None` in ideal mode, for ejecting heads, or
    /// when no credit was ever returned.
    pub last_credit_return_cycle: Option<u64>,
}

/// Why a simulation failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A traffic event's pair has no route in the model.
    NoRoute {
        /// Source of the unroutable event.
        src: NodeId,
        /// Destination of the unroutable event.
        dst: NodeId,
    },
    /// No flit moved for `stall_cycles` while packets were in flight.
    Deadlock {
        /// Cycle at which deadlock was declared.
        cycle: u64,
        /// Packets not yet delivered.
        undelivered: usize,
        /// Every occupied (channel, VC) buffer at the declaring cycle —
        /// the wait-for state a deadlock-freedom gate needs to explain
        /// *which* cyclic dependency stalled (empty when the stall is a
        /// release gap with nothing in flight).
        blocked: Vec<BlockedVc>,
    },
    /// The cycle cap was reached.
    Watchdog {
        /// The configured cap.
        max_cycles: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NoRoute { src, dst } => write!(f, "no route from {src} to {dst}"),
            SimError::Deadlock {
                cycle,
                undelivered,
                blocked,
            } => {
                write!(
                    f,
                    "deadlock at cycle {cycle} with {undelivered} packets undelivered \
                     ({} blocked buffers)",
                    blocked.len()
                )
            }
            SimError::Watchdog { max_cycles } => {
                write!(f, "simulation exceeded {max_cycles} cycles")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The cycle-accurate simulator. Construction compiles the model into a
/// reusable `SimCore` and the energy model into its per-node and
/// per-channel constants; one simulator serves many runs.
#[derive(Debug)]
pub struct Simulator<'a> {
    model: &'a NocModel,
    config: SimConfig,
    core: SimCore,
    energy: EnergyTable,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over `model` with per-event energy accounting
    /// through `energy_model`. Compiles the model's channels, routes and
    /// energy constants once, up front.
    pub fn new(model: &'a NocModel, config: SimConfig, energy_model: EnergyModel) -> Self {
        let core = SimCore::compile(model, config);
        let energy = EnergyTable::compile(&core, model, energy_model);
        Simulator {
            model,
            config,
            core,
            energy,
        }
    }

    /// The model under simulation.
    pub fn model(&self) -> &NocModel {
        self.model
    }

    /// The simulator configuration.
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// The energy model used for event accounting.
    pub fn energy_model(&self) -> &EnergyModel {
        self.energy.model()
    }

    pub(crate) fn model_name(&self) -> &str {
        self.core.name()
    }

    /// Runs the traffic to completion and reports.
    ///
    /// # Errors
    ///
    /// [`SimError::NoRoute`] if an event's pair is unroutable;
    /// [`SimError::Deadlock`] / [`SimError::Watchdog`] if the network stops
    /// making progress (cannot happen with the deadlock-free route/VC sets
    /// produced by the synthesis crate or the XY mesh).
    pub fn run(&self, events: Vec<TrafficEvent>) -> Result<SimReport, SimError> {
        let mut state = SimState::default();
        self.core.run_one(&mut state, &events, &self.energy)
    }

    /// Runs on a caller-provided state, reusing its allocations — the
    /// phased driver calls this across phases.
    pub(crate) fn run_in(
        &self,
        state: &mut SimState,
        events: &[TrafficEvent],
    ) -> Result<SimReport, SimError> {
        self.core.run_one(state, events, &self.energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_energy::TechnologyProfile;

    fn energy() -> EnergyModel {
        EnergyModel::new(TechnologyProfile::cmos_180nm())
    }

    fn single_hop_model() -> NocModel {
        NocModel::mesh(2, 1, 1.0)
    }

    #[test]
    fn single_packet_single_hop() {
        let m = single_hop_model();
        let events = vec![TrafficEvent::new(0, NodeId(0), NodeId(1), 32)];
        let report = Simulator::new(&m, SimConfig::default(), energy())
            .run(events)
            .unwrap();
        assert_eq!(report.packets_delivered, 1);
        // 2 flits (header + 1 payload), 1 hop each: head moves at cycle 0,
        // arrives cycle 1, ejects cycle 1; tail moves cycle 1, ejects cycle 2.
        assert_eq!(report.avg_packet_latency_cycles, 2.0);
        assert_eq!(report.flits_injected, 2);
        assert_eq!(report.flits_ejected, 2);
    }

    #[test]
    fn latency_grows_with_distance() {
        let m = NocModel::mesh(4, 1, 1.0);
        let near = Simulator::new(&m, SimConfig::default(), energy())
            .run(vec![TrafficEvent::new(0, NodeId(0), NodeId(1), 32)])
            .unwrap();
        let far = Simulator::new(&m, SimConfig::default(), energy())
            .run(vec![TrafficEvent::new(0, NodeId(0), NodeId(3), 32)])
            .unwrap();
        assert!(far.avg_packet_latency_cycles > near.avg_packet_latency_cycles);
    }

    #[test]
    fn larger_payload_serializes() {
        let m = single_hop_model();
        let small = Simulator::new(&m, SimConfig::default(), energy())
            .run(vec![TrafficEvent::new(0, NodeId(0), NodeId(1), 32)])
            .unwrap();
        let big = Simulator::new(&m, SimConfig::default(), energy())
            .run(vec![TrafficEvent::new(0, NodeId(0), NodeId(1), 256)])
            .unwrap();
        // 256 bits = 8 payload flits: 7 extra cycles of serialization.
        assert_eq!(
            big.avg_packet_latency_cycles,
            small.avg_packet_latency_cycles + 7.0
        );
    }

    #[test]
    fn contention_delays_one_packet() {
        // Two packets to the same destination from the same source: the
        // second serializes behind the first.
        let m = single_hop_model();
        let events = vec![
            TrafficEvent::new(0, NodeId(0), NodeId(1), 32),
            TrafficEvent::new(0, NodeId(0), NodeId(1), 32),
        ];
        let report = Simulator::new(&m, SimConfig::default(), energy())
            .run(events)
            .unwrap();
        assert_eq!(report.packets_delivered, 2);
        // First: latency 2; second: waits 2 cycles then 2 = 4. Mean 3.
        assert_eq!(report.avg_packet_latency_cycles, 3.0);
    }

    #[test]
    fn flit_conservation_on_mesh_random_traffic() {
        let m = NocModel::mesh(4, 4, 2.0);
        let events = crate::traffic::uniform_random(16, 200, 128, 42);
        let report = Simulator::new(&m, SimConfig::default(), energy())
            .run(events)
            .unwrap();
        assert_eq!(report.packets_delivered, 200);
        assert_eq!(report.flits_injected, report.flits_ejected);
        assert!(report.total_cycles > 0);
        assert!(report.energy.total().joules() > 0.0);
    }

    #[test]
    fn no_route_is_reported() {
        let topo = noc_graph::DiGraph::from_edges(2, [(0, 1)]).unwrap();
        let m = NocModel::from_parts(
            "one-way",
            topo,
            std::collections::BTreeMap::new(),
            std::collections::BTreeMap::new(),
            1.0,
        );
        let err = Simulator::new(&m, SimConfig::default(), energy())
            .run(vec![TrafficEvent::new(0, NodeId(0), NodeId(1), 8)])
            .unwrap_err();
        assert_eq!(
            err,
            SimError::NoRoute {
                src: NodeId(0),
                dst: NodeId(1)
            }
        );
        assert!(err.to_string().contains("no route"));
    }

    #[test]
    fn energy_matches_hand_count() {
        let m = single_hop_model();
        let cfg = SimConfig::default();
        let report = Simulator::new(&m, cfg, energy())
            .run(vec![TrafficEvent::new(0, NodeId(0), NodeId(1), 32)])
            .unwrap();
        // 2 flits x (2 switch traversals + 1 link of 1.0 mm) at 32 bits.
        let em = energy();
        let expect_switch = em.switch_event_energy(32.0) * 4.0;
        let expect_link = em.link_event_energy(32.0, 1.0) * 2.0;
        assert!((report.energy.switch.joules() - expect_switch.joules()).abs() < 1e-18);
        assert!((report.energy.link.joules() - expect_link.joules()).abs() < 1e-18);
    }

    #[test]
    fn release_time_is_respected() {
        let m = single_hop_model();
        let report = Simulator::new(&m, SimConfig::default(), energy())
            .run(vec![TrafficEvent::new(100, NodeId(0), NodeId(1), 32)])
            .unwrap();
        // Latency counts from release, so still 2; makespan covers the wait.
        assert_eq!(report.avg_packet_latency_cycles, 2.0);
        assert!(report.total_cycles >= 102);
    }

    #[test]
    fn empty_traffic_is_trivial() {
        let m = single_hop_model();
        let report = Simulator::new(&m, SimConfig::default(), energy())
            .run(Vec::new())
            .unwrap();
        assert_eq!(report.packets_delivered, 0);
        assert_eq!(report.total_cycles, 0);
        assert_eq!(report.avg_packet_latency_cycles, 0.0);
    }

    #[test]
    fn watchdog_fires_on_tiny_budget() {
        let m = NocModel::mesh(4, 4, 1.0);
        let cfg = SimConfig {
            max_cycles: 3,
            ..SimConfig::default()
        };
        let events = crate::traffic::uniform_random(16, 50, 256, 1);
        let err = Simulator::new(&m, cfg, energy()).run(events).unwrap_err();
        assert_eq!(err, SimError::Watchdog { max_cycles: 3 });
    }

    #[test]
    fn deterministic_runs() {
        let m = NocModel::mesh(3, 3, 1.0);
        let events = crate::traffic::uniform_random(9, 100, 64, 9);
        let a = Simulator::new(&m, SimConfig::default(), energy())
            .run(events.clone())
            .unwrap();
        let b = Simulator::new(&m, SimConfig::default(), energy())
            .run(events)
            .unwrap();
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.avg_packet_latency_cycles, b.avg_packet_latency_cycles);
    }

    #[test]
    fn one_simulator_serves_many_runs() {
        // The compiled core is reusable: repeated runs on one simulator
        // match fresh-simulator runs exactly.
        let m = NocModel::mesh(3, 3, 1.0);
        let sim = Simulator::new(&m, SimConfig::default(), energy());
        let events = crate::traffic::uniform_random(9, 80, 64, 5);
        let a = sim.run(events.clone()).unwrap();
        let b = sim.run(events.clone()).unwrap();
        let fresh = Simulator::new(&m, SimConfig::default(), energy())
            .run(events)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a, fresh);
    }

    #[test]
    fn release_gap_stall_reports_an_empty_snapshot() {
        // A release gap longer than `stall_cycles` trips the stall
        // detector with nothing in flight: the deadlock error fires at
        // the same cycle the rescan loop would reach, and its snapshot
        // is empty because no buffer holds a flit.
        let m = single_hop_model();
        let cfg = SimConfig {
            stall_cycles: 50,
            ..SimConfig::default()
        };
        let events = vec![TrafficEvent::new(200, NodeId(0), NodeId(1), 32)];
        let err = Simulator::new(&m, cfg, energy()).run(events).unwrap_err();
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
        // A genuinely blocked-buffer snapshot (cyclic routes) is covered
        // by the wormhole and equivalence suites.
    }
}
