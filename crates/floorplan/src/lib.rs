//! Area-driven floorplanning for NoC synthesis.
//!
//! The DATE'05 decomposition algorithm "assume\[s\] that an initial
//! floorplanning step has been performed and optimized for chip area.
//! Hence, the core coordinates are given as inputs to the algorithm"
//! (Section 4). This crate provides that step:
//!
//! * [`Core`] — a hard rectangular block with physical dimensions;
//! * [`Placement`] — core center coordinates plus distance queries
//!   (Manhattan by default, matching rectilinear on-chip routing);
//! * [`SlicingFloorplanner`] — a classic Wong–Liu slicing-tree simulated
//!   annealing floorplanner minimizing chip area (optionally with a
//!   wirelength term weighted by communication volume);
//! * [`Placement::grid`] — the regular tile placement used for mesh
//!   baselines;
//! * [`reference`](mod@reference) — the original clone-per-move
//!   annealer, kept as the bit-for-bit oracle the equivalence suite holds
//!   [`SlicingFloorplanner::run`] to.
//!
//! With a `noc-telemetry` handle installed, every run records a
//! `floorplan.run` span and the `floorplan.temperature_steps`,
//! `floorplan.moves_proposed`, `floorplan.moves_accepted`,
//! `floorplan.evaluations` (moves costed by a full evaluation),
//! `floorplan.cost_reuses` (moves proposed again in the same accepted
//! state, costed from a memo) and `floorplan.geometry_reuses` (moves
//! costed from slot geometry recorded in an earlier state of the same
//! shape) counters.
//!
//! # Example
//!
//! ```
//! use noc_floorplan::{Core, SlicingFloorplanner};
//!
//! let cores: Vec<Core> = (0..8).map(|i| Core::new(format!("c{i}"), 1.0, 1.0)).collect();
//! let plan = SlicingFloorplanner::new(cores).seed(7).run();
//! // 8 unit tiles must fit in their bounding box with zero overlap, so the
//! // chip area is at least 8 mm^2.
//! assert!(plan.chip_area_mm2() >= 8.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod placement;
pub mod reference;
mod slicing;

pub use placement::{Core, DistanceMetric, Placement};
pub use slicing::SlicingFloorplanner;
