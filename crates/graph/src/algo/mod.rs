//! Graph algorithms used by the synthesis flow.
//!
//! * [`paths`] — BFS hop counts, weighted shortest paths, all-pairs hop
//!   matrices and diameter (bounds the custom architecture's worst-case hop
//!   count, Section 4.3 of the paper).
//! * [`connectivity`] — weak connectivity, strongly connected components and
//!   directed cycle detection (deadlock analysis of routing tables).
//! * [`partition`] — Kernighan–Lin bipartitioning and bisection bandwidth
//!   (the wiring-resource constraint of Section 4.2).

pub mod connectivity;
pub mod partition;
pub mod paths;

pub use connectivity::{
    find_cycle, is_weakly_connected, strongly_connected_components, weak_components,
};
pub use partition::{
    bisection_bandwidth, kernighan_lin, Bipartition, BisectionWork, EXACT_BISECTION_MAX_NODES,
};
pub use paths::{bfs_distances, diameter, dijkstra, hop_matrix, shortest_path, PathResult};
