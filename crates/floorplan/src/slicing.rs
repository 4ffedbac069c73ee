//! Wong–Liu slicing-tree floorplanning by simulated annealing.
//!
//! The floorplan is a *normalized Polish expression*: a postfix string over
//! core indices and the cut operators `H` (horizontal cut: stack children
//! vertically) and `V` (vertical cut: children side by side), with no two
//! identical adjacent operators. Annealing perturbs the expression with the
//! three classic moves (operand swap, chain complement, operand/operator
//! swap) plus core rotation, minimizing chip bounding-box area with an
//! optional volume-weighted wirelength term.
//!
//! The annealing loop allocates nothing: each move is applied in place and
//! reverted on reject, and evaluation runs over scratch arrays allocated
//! once per run. Placements are bit-identical per seed to the original
//! clone-per-move annealer kept in [`crate::reference`] (DESIGN.md,
//! "Annealing floorplanner", says why).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Core, Placement};

/// Moves proposed per temperature step, per core.
const MOVES_PER_CORE: usize = 30;
/// Factor applied to the temperature after each step.
const COOLING: f64 = 0.92;

/// One symbol of a Polish expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Element {
    Operand(usize),
    H,
    V,
}

impl Element {
    fn is_operator(self) -> bool {
        !matches!(self, Element::Operand(_))
    }
}

/// Simulated-annealing slicing floorplanner; see the [crate docs](crate)
/// for an example.
#[derive(Debug, Clone)]
pub struct SlicingFloorplanner {
    pub(crate) cores: Vec<Core>,
    pub(crate) seed: u64,
    pub(crate) wire_weight: f64,
    pub(crate) connections: Vec<(usize, usize, f64)>,
}

impl SlicingFloorplanner {
    /// Creates a floorplanner for the given cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty.
    pub fn new(cores: Vec<Core>) -> Self {
        assert!(!cores.is_empty(), "cannot floorplan zero cores");
        SlicingFloorplanner {
            cores,
            seed: 1,
            wire_weight: 0.0,
            connections: Vec::new(),
        }
    }

    /// Sets the RNG seed (runs are deterministic per seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a wirelength objective: `weight * Σ volume * distance(src, dst)`
    /// over the given `(src, dst, volume)` connections is added to the area
    /// cost.
    ///
    /// # Panics
    ///
    /// Panics if `weight` or any volume is negative or not finite (the
    /// first cost, and so the starting temperature, would not be finite
    /// and the run would return its unannealed starting expression), or
    /// if any core index is out of range.
    #[must_use]
    pub fn wirelength(mut self, weight: f64, connections: Vec<(usize, usize, f64)>) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "wirelength weight must be finite and >= 0"
        );
        for &(s, d, volume) in &connections {
            assert!(
                s < self.cores.len() && d < self.cores.len(),
                "connection endpoint out of range"
            );
            assert!(
                volume.is_finite() && volume >= 0.0,
                "connection volume must be finite and >= 0"
            );
        }
        self.wire_weight = weight;
        self.connections = connections;
        self
    }

    /// Runs the annealer and extracts the best placement found.
    pub fn run(&self) -> Placement {
        let n = self.cores.len();
        let tel = noc_telemetry::active();
        let _span = tel.map(|t| {
            t.span("floorplan.run")
                .field("cores", n)
                .field("connections", self.connections.len())
        });
        if n == 1 {
            let c = &self.cores[0];
            return Placement::new(
                vec![(c.width_mm() / 2.0, c.height_mm() / 2.0)],
                c.width_mm(),
                c.height_mm(),
            );
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let dims: Vec<(f64, f64)> = self
            .cores
            .iter()
            .map(|c| (c.width_mm(), c.height_mm()))
            .collect();
        // Core dimensions are positive and finite, so `==` on them is
        // bit equality: the exact shortcuts below rely on that.
        let square: Vec<bool> = dims.iter().map(|&(w, h)| w == h).collect();

        // Initial expression: 0 1 V 2 H 3 V 4 H …, the cuts alternating
        // to seed some 2-D structure.
        let mut expr = Vec::with_capacity(2 * n - 1);
        expr.push(Element::Operand(0));
        for i in 1..n {
            expr.push(Element::Operand(i));
            expr.push(if i % 2 == 0 { Element::H } else { Element::V });
        }
        let mut rotated = vec![false; n];

        // The accepted state's cost, area and centres. The centres live
        // apart from the scratch arrays, which every full evaluation
        // overwrites, so an equal-footprint swap can be costed from them.
        let mut scratch = Scratch::new(n);
        let (w, h) = scratch.evaluate(&expr, &dims, &rotated);
        let mut cur_area = w * h;
        let mut cur_centers = scratch.centers.clone();
        let mut cur_cost = self.cost(cur_area, &cur_centers);
        let mut best_expr = expr.clone();
        let mut best_rot = rotated.clone();
        let mut best_cost = cur_cost;
        let mut candidates = Vec::with_capacity(expr.len());

        let (mut steps, mut proposed, mut accepted, mut evaluations) = (0u64, 0u64, 0u64, 0u64);
        let moves = MOVES_PER_CORE * n;
        let mut temperature = cur_cost * 0.3 + 1e-9;
        let t_end = temperature * 1e-4;

        while temperature > t_end {
            steps += 1;
            for _ in 0..moves {
                let undo = match rng.gen_range(0..4) {
                    0 => swap_operands(&mut expr, n, &mut rng),
                    1 => complement_chain(&mut expr, n, &mut rng),
                    2 => match swap_operand_operator(&mut expr, &mut candidates, &mut rng) {
                        Some(undo) => undo,
                        None => continue,
                    },
                    _ => {
                        let v = rng.gen_range(0..n);
                        rotated[v] = !rotated[v];
                        Undo::Rotate(v)
                    }
                };
                proposed += 1;
                let (costing, cand_cost) = match undo {
                    Undo::Rotate(v) if square[v] => (Costing::Unchanged, cur_cost),
                    Undo::SwapOperands(p, q)
                        if footprint(&dims, &rotated, operand(expr[p]))
                            == footprint(&dims, &rotated, operand(expr[q])) =>
                    {
                        let (a, b) = (operand(expr[p]), operand(expr[q]));
                        cur_centers.swap(a, b);
                        let cost = self.cost(cur_area, &cur_centers);
                        (Costing::SwappedCentres(a, b), cost)
                    }
                    _ => {
                        evaluations += 1;
                        let (w, h) = scratch.evaluate(&expr, &dims, &rotated);
                        let area = w * h;
                        (Costing::Evaluated(area), self.cost(area, &scratch.centers))
                    }
                };
                let delta = cand_cost - cur_cost;
                if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp() {
                    accepted += 1;
                    cur_cost = cand_cost;
                    if let Costing::Evaluated(area) = costing {
                        cur_area = area;
                        std::mem::swap(&mut cur_centers, &mut scratch.centers);
                    }
                    if cur_cost < best_cost {
                        best_cost = cur_cost;
                        best_expr.copy_from_slice(&expr);
                        best_rot.copy_from_slice(&rotated);
                    }
                } else {
                    if let Costing::SwappedCentres(a, b) = costing {
                        cur_centers.swap(a, b);
                    }
                    undo.revert(&mut expr, &mut rotated);
                }
            }
            temperature *= COOLING;
        }
        if let Some(t) = tel {
            t.add("floorplan.temperature_steps", steps);
            t.add("floorplan.moves_proposed", proposed);
            t.add("floorplan.moves_accepted", accepted);
            t.add("floorplan.evaluations", evaluations);
        }

        let (w, h) = scratch.evaluate(&best_expr, &dims, &best_rot);
        Placement::new(scratch.centers, w, h)
    }

    /// Chip area plus the weighted wirelength over `centers`: one full
    /// pass over the connections, in order, so the sum's f64 bits depend
    /// only on the centres.
    fn cost(&self, area: f64, centers: &[(f64, f64)]) -> f64 {
        if self.wire_weight == 0.0 {
            return area;
        }
        let wl: f64 = self
            .connections
            .iter()
            .map(|&(s, d, vol)| {
                let (sx, sy) = centers[s];
                let (dx, dy) = centers[d];
                vol * ((sx - dx).abs() + (sy - dy).abs())
            })
            .sum();
        area + self.wire_weight * wl
    }
}

/// What a proposed move changed in place, so a rejected move can be
/// reverted.
#[derive(Debug, Clone, Copy)]
enum Undo {
    /// M1: the operands at these two positions were swapped.
    SwapOperands(usize, usize),
    /// M2: the operator chain over this inclusive range was complemented.
    Complement(usize, usize),
    /// M3: the operand/operator pair at `i`, `i + 1` was swapped.
    SwapAdjacent(usize),
    /// The core's rotation bit was flipped.
    Rotate(usize),
}

impl Undo {
    fn revert(self, expr: &mut [Element], rotated: &mut [bool]) {
        match self {
            Undo::SwapOperands(p, q) => expr.swap(p, q),
            Undo::Complement(lo, hi) => complement(&mut expr[lo..=hi]),
            Undo::SwapAdjacent(i) => expr.swap(i, i + 1),
            Undo::Rotate(v) => rotated[v] = !rotated[v],
        }
    }
}

/// How a proposed move's cost was found. The first two are exact
/// shortcuts: they yield the bits a full evaluation would.
#[derive(Debug, Clone, Copy)]
enum Costing {
    /// A core with bit-equal width and height was rotated: no evaluated
    /// number changes.
    Unchanged,
    /// Two operands with bit-equal footprints were swapped: every size
    /// and offset is unchanged, and the two cores trade centres in the
    /// accepted state.
    SwappedCentres(usize, usize),
    /// A full evaluation into the scratch arrays, giving this chip area.
    Evaluated(f64),
}

/// One node of the slicing tree, stored at its expression position: its
/// size, its offset, and the position where its subtree starts.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    w: f64,
    h: f64,
    x: f64,
    y: f64,
    start: usize,
}

/// Scratch space for evaluating a Polish expression, allocated once per
/// run. Every parent comes after its children in postfix order, so sizes
/// fill bottom-up in one forward pass and offsets top-down in one
/// backward pass. An operator's right child sits just before it and its
/// left child just before the right subtree starts, so no stack is kept.
struct Scratch {
    nodes: Vec<Node>,
    /// Core centres of the last evaluated expression.
    centers: Vec<(f64, f64)>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            nodes: vec![Node::default(); 2 * n - 1],
            centers: vec![(0.0, 0.0); n],
        }
    }

    /// Evaluates `expr`: returns the chip width and height and leaves the
    /// core centres in `self.centers`.
    fn evaluate(&mut self, expr: &[Element], dims: &[(f64, f64)], rotated: &[bool]) -> (f64, f64) {
        let nodes = &mut self.nodes;
        for (p, &e) in expr.iter().enumerate() {
            let node = if let Element::Operand(i) = e {
                let (w, h) = footprint(dims, rotated, i);
                Node {
                    w,
                    h,
                    x: 0.0,
                    y: 0.0,
                    start: p,
                }
            } else {
                let r = nodes[p - 1];
                let l = nodes[r.start - 1];
                let (w, h) = if e == Element::V {
                    (l.w + r.w, l.h.max(r.h))
                } else {
                    (l.w.max(r.w), l.h + r.h)
                };
                Node {
                    w,
                    h,
                    x: 0.0,
                    y: 0.0,
                    start: l.start,
                }
            };
            nodes[p] = node;
        }
        // The root, at the last position, keeps the zero offset set above.
        for p in (0..expr.len()).rev() {
            let Node { w, h, x, y, .. } = nodes[p];
            match expr[p] {
                Element::Operand(i) => self.centers[i] = (x + w / 2.0, y + h / 2.0),
                op => {
                    let r = p - 1;
                    let l = nodes[r].start - 1;
                    (nodes[l].x, nodes[l].y) = (x, y);
                    (nodes[r].x, nodes[r].y) = if op == Element::V {
                        (x + nodes[l].w, y)
                    } else {
                        (x, y + nodes[l].h)
                    };
                }
            }
        }
        let root = nodes[expr.len() - 1];
        (root.w, root.h)
    }
}

/// Core `i`'s (width, height) under its rotation bit.
fn footprint(dims: &[(f64, f64)], rotated: &[bool], i: usize) -> (f64, f64) {
    let (w, h) = dims[i];
    if rotated[i] {
        (h, w)
    } else {
        (w, h)
    }
}

/// The core index of an operand.
fn operand(e: Element) -> usize {
    match e {
        Element::Operand(i) => i,
        _ => unreachable!("M1 swaps operands only"),
    }
}

/// Positions of the operands (`operators == false`) or operators in
/// `expr`, in order.
fn positions(expr: &[Element], operators: bool) -> impl Iterator<Item = usize> + '_ {
    expr.iter()
        .enumerate()
        .filter(move |(_, e)| e.is_operator() == operators)
        .map(|(p, _)| p)
}

fn complement(chain: &mut [Element]) {
    for e in chain {
        *e = match *e {
            Element::H => Element::V,
            Element::V => Element::H,
            Element::Operand(_) => unreachable!("chain contains only operators"),
        };
    }
}

/// M1: swap two operands adjacent in operand order. An expression over
/// `n` cores always has `n` operands, so the draw is over `n - 1` pairs.
fn swap_operands(expr: &mut [Element], n: usize, rng: &mut StdRng) -> Undo {
    let k = rng.gen_range(0..n - 1);
    let (p, q) = {
        let mut pair = positions(expr, false).skip(k);
        let p = pair.next().expect("operand k exists");
        (p, pair.next().expect("operand k + 1 exists"))
    };
    expr.swap(p, q);
    Undo::SwapOperands(p, q)
}

/// M2: complement the maximal operator chain around a random operator
/// (always `n - 1` of them).
fn complement_chain(expr: &mut [Element], n: usize, rng: &mut StdRng) -> Undo {
    let k = rng.gen_range(0..n - 1);
    let anchor = positions(expr, true).nth(k).expect("operator k exists");
    let mut lo = anchor;
    while lo > 0 && expr[lo - 1].is_operator() {
        lo -= 1;
    }
    let mut hi = anchor;
    while hi + 1 < expr.len() && expr[hi + 1].is_operator() {
        hi += 1;
    }
    complement(&mut expr[lo..=hi]);
    Undo::Complement(lo, hi)
}

/// M3: swap an adjacent operand/operator pair, trying up to four random
/// candidates and taking the first that keeps the expression normalized;
/// `None` when all four would break it. The candidate list is never
/// empty: an expression starts with an operand and ends with an operator.
fn swap_operand_operator(
    expr: &mut [Element],
    candidates: &mut Vec<usize>,
    rng: &mut StdRng,
) -> Option<Undo> {
    candidates.clear();
    candidates.extend(
        (0..expr.len() - 1).filter(|&i| expr[i].is_operator() != expr[i + 1].is_operator()),
    );
    for _ in 0..4 {
        let i = candidates[rng.gen_range(0..candidates.len())];
        if swap_keeps_normalized(expr, i) {
            expr.swap(i, i + 1);
            return Some(Undo::SwapAdjacent(i));
        }
    }
    None
}

/// Whether swapping the operand/operator pair at `i`, `i + 1` of a
/// normalized expression keeps it normalized. Only two things can break:
/// an operator moving left must leave more operands than operators in
/// the prefix it now ends (the balloting property), and an operator must
/// not land next to an equal one.
fn swap_keeps_normalized(expr: &[Element], i: usize) -> bool {
    let (a, b) = (expr[i], expr[i + 1]);
    if a.is_operator() {
        expr.get(i + 2) != Some(&a)
    } else {
        let operators = positions(&expr[..i], true).count();
        2 * operators + 2 <= i && (i == 0 || expr[i - 1] != b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use noc_graph::NodeId;

    fn unit_cores(n: usize) -> Vec<Core> {
        (0..n)
            .map(|i| Core::new(format!("c{i}"), 1.0, 1.0))
            .collect()
    }

    fn overlap(a: ((f64, f64), (f64, f64)), b: ((f64, f64), (f64, f64))) -> bool {
        let ((ax, ay), (aw, ah)) = a;
        let ((bx, by), (bw, bh)) = b;
        let eps = 1e-9;
        ax - aw / 2.0 + eps < bx + bw / 2.0
            && bx - bw / 2.0 + eps < ax + aw / 2.0
            && ay - ah / 2.0 + eps < by + bh / 2.0
            && by - bh / 2.0 + eps < ay + ah / 2.0
    }

    #[test]
    fn single_core_is_trivial() {
        let p = SlicingFloorplanner::new(vec![Core::new("solo", 3.0, 2.0)]).run();
        assert_eq!(p.core_count(), 1);
        assert_eq!(p.chip_area_mm2(), 6.0);
        assert_eq!(p.center(NodeId(0)), (1.5, 1.0));
    }

    #[test]
    fn placements_do_not_overlap() {
        let cores = vec![
            Core::new("a", 2.0, 1.0),
            Core::new("b", 1.0, 1.0),
            Core::new("c", 1.0, 2.0),
            Core::new("d", 1.5, 1.5),
            Core::new("e", 1.0, 1.0),
        ];
        let dims: Vec<f64> = cores
            .iter()
            .flat_map(|c| [c.width_mm(), c.height_mm()])
            .collect();
        let p = SlicingFloorplanner::new(cores.clone()).seed(3).run();
        for i in 0..cores.len() {
            for j in (i + 1)..cores.len() {
                // The annealer may rotate blocks; check both orientations.
                let rect = |k: usize| {
                    let (w, h) = (dims[2 * k], dims[2 * k + 1]);
                    let c = p.center(NodeId(k));
                    // Either orientation must avoid overlap with some
                    // orientation of the other; conservatively test the
                    // smaller footprint (min dims as square) which is
                    // contained in both orientations.
                    let s = w.min(h);
                    (c, (s, s))
                };
                assert!(!overlap(rect(i), rect(j)), "cores {i} and {j} overlap");
            }
        }
    }

    #[test]
    fn area_is_at_least_sum_of_core_areas() {
        for n in [4usize, 9, 16] {
            let p = SlicingFloorplanner::new(unit_cores(n)).seed(11).run();
            assert!(p.chip_area_mm2() >= n as f64 - 1e-9);
        }
    }

    #[test]
    fn annealing_finds_near_square_arrangement() {
        // 16 unit tiles: optimum is a 4x4 square of area 16; accept <= 20.
        let p = SlicingFloorplanner::new(unit_cores(16)).seed(5).run();
        assert!(
            p.chip_area_mm2() <= 20.0,
            "area {} too far from optimal 16",
            p.chip_area_mm2()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SlicingFloorplanner::new(unit_cores(8)).seed(42).run();
        let b = SlicingFloorplanner::new(unit_cores(8)).seed(42).run();
        assert_eq!(a, b);
    }

    #[test]
    fn wirelength_pulls_connected_cores_together() {
        // Heavily connect cores 0 and 7; with the wirelength term their
        // distance should not exceed the unweighted placement's worst case.
        let conns = vec![(0usize, 7usize, 100.0)];
        let with = SlicingFloorplanner::new(unit_cores(8))
            .seed(9)
            .wirelength(0.5, conns)
            .run();
        let d_with = with.distance_mm(NodeId(0), NodeId(7));
        // They should end up closer than the chip diameter.
        assert!(d_with < with.max_distance_mm() + 1e-9);
        assert!(d_with <= 4.0, "weighted distance {d_with} too large");
    }

    #[test]
    fn cores_inside_chip_bounds() {
        let p = SlicingFloorplanner::new(unit_cores(10)).seed(2).run();
        for v in 0..10 {
            let (x, y) = p.center(NodeId(v));
            assert!(x >= 0.0 && x <= p.chip_width_mm());
            assert!(y >= 0.0 && y <= p.chip_height_mm());
        }
    }

    #[test]
    fn validity_checker_accepts_initial_expression() {
        let expr = vec![
            Element::Operand(0),
            Element::Operand(1),
            Element::V,
            Element::Operand(2),
            Element::H,
        ];
        assert!(reference::is_valid_normalized(&expr));
        let bad = vec![Element::Operand(0), Element::H, Element::Operand(1)];
        assert!(!reference::is_valid_normalized(&bad));
    }

    #[test]
    fn local_swap_check_agrees_with_the_full_check() {
        // Every operand/operator pair of some normalized expressions:
        // the O(prefix) test must match swapping and rescanning.
        let (a, b, c, d) = (
            Element::Operand(0),
            Element::Operand(1),
            Element::Operand(2),
            Element::Operand(3),
        );
        let exprs = [
            vec![a, b, Element::V, c, Element::H, d, Element::V],
            vec![a, b, c, Element::V, Element::H, d, Element::V],
            vec![a, b, Element::H, c, d, Element::V, Element::H],
            vec![a, b, c, d, Element::H, Element::V, Element::H],
        ];
        let mut checked = 0;
        for expr in exprs {
            assert!(reference::is_valid_normalized(&expr));
            for i in 0..expr.len() - 1 {
                if expr[i].is_operator() == expr[i + 1].is_operator() {
                    continue;
                }
                let mut swapped = expr.clone();
                swapped.swap(i, i + 1);
                assert_eq!(
                    swap_keeps_normalized(&expr, i),
                    reference::is_valid_normalized(&swapped),
                    "{expr:?} at {i}"
                );
                checked += 1;
            }
        }
        assert!(checked >= 12);
    }

    #[test]
    #[should_panic(expected = "weight must be finite")]
    fn infinite_weight_panics() {
        let _ = SlicingFloorplanner::new(unit_cores(2)).wirelength(f64::INFINITY, vec![]);
    }

    #[test]
    #[should_panic(expected = "weight must be finite")]
    fn nan_weight_panics() {
        let _ = SlicingFloorplanner::new(unit_cores(2)).wirelength(f64::NAN, vec![]);
    }

    #[test]
    #[should_panic(expected = "volume must be finite and >= 0")]
    fn nan_volume_panics() {
        let _ = SlicingFloorplanner::new(unit_cores(2)).wirelength(0.1, vec![(0, 1, f64::NAN)]);
    }

    #[test]
    #[should_panic(expected = "volume must be finite and >= 0")]
    fn infinite_volume_panics() {
        let _ = SlicingFloorplanner::new(unit_cores(2))
            .wirelength(0.1, vec![(0, 1, 1.0), (1, 0, f64::INFINITY)]);
    }

    #[test]
    #[should_panic(expected = "volume must be finite and >= 0")]
    fn negative_volume_panics() {
        let _ = SlicingFloorplanner::new(unit_cores(2)).wirelength(0.1, vec![(0, 1, -1.0)]);
    }
}
