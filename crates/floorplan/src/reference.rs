//! The reference annealer: the original clone-per-move loop, kept
//! unchanged in behaviour as the golden oracle for
//! [`SlicingFloorplanner::run`].
//!
//! [`run`] is the floorplanner as first written: every proposed
//! move clones the Polish expression and the rotation vector, and every
//! cost evaluation builds a fresh slicing tree, clones its nodes on the
//! top-down pass and recomputes the full wirelength. It is deliberately
//! *not* optimized — its value is that the RNG draw sequence and every
//! f64 operation are manifest in straight-line code, so the equivalence
//! suite can hold the in-place annealer to "bit-identical to this" rather
//! than "close to this".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::slicing::Element;
use crate::{Core, Placement, SlicingFloorplanner};

/// Runs `planner`'s annealing schedule with the original clone-per-move
/// loop and extracts the best placement found.
///
/// Every centre, the chip width and the chip height are the baseline that
/// [`SlicingFloorplanner::run`] must reproduce bit for bit, per seed.
pub fn run(planner: &SlicingFloorplanner) -> Placement {
    let cores = &planner.cores;
    let n = cores.len();
    if n == 1 {
        let c = &cores[0];
        return Placement::new(
            vec![(c.width_mm() / 2.0, c.height_mm() / 2.0)],
            c.width_mm(),
            c.height_mm(),
        );
    }
    let mut rng = StdRng::seed_from_u64(planner.seed);

    // Initial expression: 0 1 V 2 V 3 V … (all blocks in a row),
    // alternating H/V to seed some 2-D structure.
    let mut expr: Vec<Element> = vec![Element::Operand(0)];
    for i in 1..n {
        expr.push(Element::Operand(i));
        expr.push(if i % 2 == 0 { Element::H } else { Element::V });
    }
    let mut rotated = vec![false; n];

    let cost_of = |expr: &[Element], rotated: &[bool]| -> f64 {
        let (w, h, centers) = evaluate(expr, cores, rotated);
        let area = w * h;
        if planner.wire_weight == 0.0 {
            return area;
        }
        let wl: f64 = planner
            .connections
            .iter()
            .map(|&(s, d, vol)| {
                let (sx, sy) = centers[s];
                let (dx, dy) = centers[d];
                vol * ((sx - dx).abs() + (sy - dy).abs())
            })
            .sum();
        area + planner.wire_weight * wl
    };

    let mut cur_cost = cost_of(&expr, &rotated);
    let mut best_expr = expr.clone();
    let mut best_rot = rotated.clone();
    let mut best_cost = cur_cost;

    let moves = 30 * n;
    let mut temperature = cur_cost * 0.3 + 1e-9;
    let t_end = temperature * 1e-4;

    while temperature > t_end {
        for _ in 0..moves {
            let mut cand = expr.clone();
            let mut cand_rot = rotated.clone();
            let applied = match rng.gen_range(0..4) {
                0 => move_swap_operands(&mut cand, &mut rng),
                1 => move_complement_chain(&mut cand, &mut rng),
                2 => move_swap_operand_operator(&mut cand, &mut rng),
                _ => {
                    let v = rng.gen_range(0..n);
                    cand_rot[v] = !cand_rot[v];
                    true
                }
            };
            if !applied {
                continue;
            }
            let cand_cost = cost_of(&cand, &cand_rot);
            let delta = cand_cost - cur_cost;
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp() {
                expr = cand;
                rotated = cand_rot;
                cur_cost = cand_cost;
                if cur_cost < best_cost {
                    best_cost = cur_cost;
                    best_expr = expr.clone();
                    best_rot = rotated.clone();
                }
            }
        }
        temperature *= 0.92;
    }

    let (w, h, centers) = evaluate(&best_expr, cores, &best_rot);
    Placement::new(centers, w, h)
}

/// Evaluates a Polish expression: returns (chip width, chip height, core
/// centers).
fn evaluate(expr: &[Element], cores: &[Core], rotated: &[bool]) -> (f64, f64, Vec<(f64, f64)>) {
    // Bottom-up sizes.
    #[derive(Clone)]
    struct Node {
        w: f64,
        h: f64,
        elem: Element,
        left: Option<usize>,
        right: Option<usize>,
    }
    let mut nodes: Vec<Node> = Vec::with_capacity(expr.len());
    let mut stack: Vec<usize> = Vec::new();
    for &e in expr {
        match e {
            Element::Operand(i) => {
                let (mut w, mut h) = (cores[i].width_mm(), cores[i].height_mm());
                if rotated[i] {
                    std::mem::swap(&mut w, &mut h);
                }
                nodes.push(Node {
                    w,
                    h,
                    elem: e,
                    left: None,
                    right: None,
                });
                stack.push(nodes.len() - 1);
            }
            Element::H | Element::V => {
                let r = stack.pop().expect("valid postfix");
                let l = stack.pop().expect("valid postfix");
                let (w, h) = if e == Element::V {
                    (nodes[l].w + nodes[r].w, nodes[l].h.max(nodes[r].h))
                } else {
                    (nodes[l].w.max(nodes[r].w), nodes[l].h + nodes[r].h)
                };
                nodes.push(Node {
                    w,
                    h,
                    elem: e,
                    left: Some(l),
                    right: Some(r),
                });
                stack.push(nodes.len() - 1);
            }
        }
    }
    let root = *stack.last().expect("non-empty expression");
    let (cw, ch) = (nodes[root].w, nodes[root].h);

    // Top-down coordinates.
    let mut centers = vec![(0.0, 0.0); cores.len()];
    let mut todo = vec![(root, 0.0_f64, 0.0_f64)];
    while let Some((id, x, y)) = todo.pop() {
        let node = nodes[id].clone();
        match node.elem {
            Element::Operand(i) => {
                centers[i] = (x + node.w / 2.0, y + node.h / 2.0);
            }
            Element::V => {
                let l = node.left.expect("internal node");
                let r = node.right.expect("internal node");
                todo.push((l, x, y));
                todo.push((r, x + nodes[l].w, y));
            }
            Element::H => {
                let l = node.left.expect("internal node");
                let r = node.right.expect("internal node");
                todo.push((l, x, y));
                todo.push((r, x, y + nodes[l].h));
            }
        }
    }
    (cw, ch, centers)
}

/// M1: swap two adjacent operands (adjacent in operand order).
fn move_swap_operands(expr: &mut [Element], rng: &mut StdRng) -> bool {
    let operand_positions: Vec<usize> = expr
        .iter()
        .enumerate()
        .filter_map(|(i, e)| matches!(e, Element::Operand(_)).then_some(i))
        .collect();
    if operand_positions.len() < 2 {
        return false;
    }
    let k = rng.gen_range(0..operand_positions.len() - 1);
    expr.swap(operand_positions[k], operand_positions[k + 1]);
    true
}

/// M2: complement a maximal chain of operators containing a random operator.
fn move_complement_chain(expr: &mut [Element], rng: &mut StdRng) -> bool {
    let op_positions: Vec<usize> = expr
        .iter()
        .enumerate()
        .filter_map(|(i, e)| matches!(e, Element::H | Element::V).then_some(i))
        .collect();
    if op_positions.is_empty() {
        return false;
    }
    let anchor = op_positions[rng.gen_range(0..op_positions.len())];
    // Expand to the maximal contiguous operator chain around the anchor.
    let mut lo = anchor;
    while lo > 0 && matches!(expr[lo - 1], Element::H | Element::V) {
        lo -= 1;
    }
    let mut hi = anchor;
    while hi + 1 < expr.len() && matches!(expr[hi + 1], Element::H | Element::V) {
        hi += 1;
    }
    for e in &mut expr[lo..=hi] {
        *e = match *e {
            Element::H => Element::V,
            Element::V => Element::H,
            Element::Operand(_) => unreachable!("chain contains only operators"),
        };
    }
    true
}

/// M3: swap an adjacent operand/operator pair, keeping the expression a
/// valid normalized Polish expression (balloting property).
fn move_swap_operand_operator(expr: &mut [Element], rng: &mut StdRng) -> bool {
    let candidates: Vec<usize> = (0..expr.len() - 1)
        .filter(|&i| {
            matches!(
                (expr[i], expr[i + 1]),
                (Element::Operand(_), Element::H | Element::V)
                    | (Element::H | Element::V, Element::Operand(_))
            )
        })
        .collect();
    if candidates.is_empty() {
        return false;
    }
    // Try a few random candidates; accept the first that stays valid.
    for _ in 0..4 {
        let i = candidates[rng.gen_range(0..candidates.len())];
        expr.swap(i, i + 1);
        if is_valid_normalized(expr) {
            return true;
        }
        expr.swap(i, i + 1); // revert
    }
    false
}

/// Balloting property (every prefix has more operands than operators) and
/// normalization (no two equal adjacent operators).
pub(crate) fn is_valid_normalized(expr: &[Element]) -> bool {
    let mut operands = 0usize;
    let mut operators = 0usize;
    let mut prev_op: Option<Element> = None;
    for &e in expr {
        match e {
            Element::Operand(_) => {
                operands += 1;
                prev_op = None;
            }
            Element::H | Element::V => {
                operators += 1;
                if operators + 1 > operands {
                    return false;
                }
                if prev_op == Some(e) {
                    return false;
                }
                prev_op = Some(e);
            }
        }
    }
    operators + 1 == operands
}
