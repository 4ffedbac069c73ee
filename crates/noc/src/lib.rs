//! Customized NoC communication architecture synthesis using a
//! decomposition approach.
//!
//! This is the facade crate of a full reproduction of *Ogras & Marculescu,
//! "Energy- and Performance-Driven NoC Communication Architecture Synthesis
//! Using a Decomposition Approach" (DATE 2005)*. It re-exports every layer
//! and adds two conveniences:
//!
//! * [`SynthesisFlow`] — the end-to-end pipeline: ACG → floorplan →
//!   branch-and-bound decomposition → glued architecture → simulation-ready
//!   model;
//! * [`AesPrototype`] — the paper's Section 5.2 experiment: the 16-node
//!   distributed AES engine executed on both a standard 4x4 mesh and the
//!   synthesized custom architecture, reporting cycles/block, throughput,
//!   latency, power and energy.
//!
//! # Layers
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`graph`] | `noc-graph` | digraphs, VF2, graph algorithms, ACG |
//! | [`primitives`] | `noc-primitives` | gossip/broadcast/loop/path library |
//! | [`energy`] | `noc-energy` | Equation-1 bit-energy model |
//! | [`floorplan`] | `noc-floorplan` | slicing-tree SA floorplanner |
//! | [`synthesis`] | `noc-synthesis` | decomposition B&B, constraints, gluing |
//! | [`sim`] | `noc-sim` | cycle-accurate wormhole simulator |
//! | [`verify`] | `noc-verify` | static deadlock verifier (extended CDG) |
//! | [`aes`] | `noc-aes` | AES-128 + 16-node distributed engine |
//! | [`workloads`] | `noc-workloads` | TGFF/Pajek benchmark generators |
//! | [`telemetry`] | `noc-telemetry` | structured spans, counters, event streams |
//!
//! One layer sits *above* this facade: the `noc-explore` crate runs
//! whole campaigns of [`SynthesisFlow`]s over a declarative scenario grid
//! and folds the results into a multi-objective Pareto front. (It depends
//! on this crate, so it cannot be re-exported from here — add
//! `noc-explore` directly.)
//!
//! # Quickstart
//!
//! ```
//! use noc::prelude::*;
//!
//! // An application whose communication is a gossip among 4 cores.
//! let acg = Acg::from_graph_uniform(DiGraph::complete(4), EdgeDemand::from_volume(64.0));
//! let result = SynthesisFlow::new(acg).seed(7).run().expect("synthesis succeeds");
//! assert_eq!(result.decomposition.matchings.len(), 1); // one MGG4
//! // The static verifier proves the routes deadlock-free under the
//! // architecture's own VC assignment (extended channel dependency graph).
//! let verdict = result.architecture.verify();
//! assert!(verdict.is_deadlock_free(), "{verdict}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aes_proto;
mod flow;

pub use noc_aes as aes;
pub use noc_energy as energy;
pub use noc_floorplan as floorplan;
pub use noc_graph as graph;
pub use noc_primitives as primitives;
pub use noc_sim as sim;
pub use noc_synthesis as synthesis;
pub use noc_telemetry as telemetry;
pub use noc_verify as verify;
pub use noc_workloads as workloads;

pub use aes_proto::{AesPrototype, PrototypeComparison};
pub use flow::{FlowError, FlowResult, SynthesisFlow};

/// The most common imports for working with the full pipeline.
pub mod prelude {
    pub use crate::aes_proto::{AesPrototype, PrototypeComparison};
    pub use crate::flow::{FlowError, FlowResult, SynthesisFlow};
    pub use noc_aes::{aes_acg, Aes128, DistributedAes};
    pub use noc_energy::{Energy, EnergyModel, TechnologyProfile};
    pub use noc_floorplan::{Core, Placement, SlicingFloorplanner};
    pub use noc_graph::{Acg, DiGraph, EdgeDemand, NodeId};
    pub use noc_primitives::{CommLibrary, Primitive};
    pub use noc_sim::{CreditConfig, NocModel, RouterFidelity, SimConfig, Simulator};
    pub use noc_synthesis::{
        Architecture, CostModel, Decomposer, DecomposerConfig, Decomposition, Objective,
        SharedMatchCache, SizeCacheStats,
    };
    pub use noc_verify::{RouteSet, RoutingSpec, Verdict};
    pub use noc_workloads::{tgff, TgffConfig};
}
