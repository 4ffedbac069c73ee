//! Energy- and performance-driven NoC communication architecture synthesis
//! using a decomposition approach — the core contribution of Ogras &
//! Marculescu (DATE 2005).
//!
//! Given an application characterization graph (ACG), a library of
//! communication primitives and a floorplan, the synthesizer:
//!
//! 1. **decomposes** the ACG into primitive instances with a depth-first
//!    branch-and-bound search over subgraph isomorphisms ([`Decomposer`],
//!    Sections 4.1–4.4 and Figure 3 of the paper);
//! 2. **costs** every matching with the bit-energy model of Equation 1/5
//!    ([`CostModel`]) and prunes branches whose optimistic completion cannot
//!    beat the best known decomposition;
//! 3. **checks** the design constraints of Section 4.2 — per-link bandwidth
//!    aggregation and bisection wiring budget ([`constraints`]);
//! 4. **glues** the optimal implementations of the chosen primitives into a
//!    customized topology with routing tables derived from the optimal
//!    gossip/broadcast schedules ([`Architecture`], Section 4.5), including
//!    channel-dependency-graph deadlock analysis and virtual-channel
//!    assignment.
//!
//! # Quickstart
//!
//! ```
//! use noc_graph::{Acg, EdgeDemand, DiGraph};
//! use noc_primitives::CommLibrary;
//! use noc_floorplan::Placement;
//! use noc_energy::{EnergyModel, TechnologyProfile};
//! use noc_synthesis::{CostModel, Decomposer, Objective};
//!
//! // A 4-core application whose pattern is exactly a gossip-of-4.
//! let acg = Acg::from_graph_uniform(DiGraph::complete(4), EdgeDemand::from_volume(8.0));
//! let placement = Placement::grid(2, 2, 2.0, 2.0);
//! let model = EnergyModel::new(TechnologyProfile::cmos_180nm());
//! let cost = CostModel::new(model, placement, Objective::Links);
//!
//! let library = CommLibrary::standard();
//! let result = Decomposer::new(&acg, &library, cost).run();
//! let best = result.best.expect("decomposition exists");
//! assert_eq!(best.matchings.len(), 1); // one MGG4 covers everything
//! assert!(best.remainder.is_edgeless());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod architecture;
pub mod constraints;
mod cost;
mod decompose;

pub use architecture::{Architecture, ArchitectureStats, LinkInfo};
pub use constraints::{ConstraintReport, ConstraintViolation};
pub use cost::{Cost, CostModel, Objective};
pub use decompose::{
    Decomposer, DecomposerConfig, Decomposition, DecompositionOutcome, Matching, SearchStats,
    SharedMatchCache, SizeCacheStats,
};
