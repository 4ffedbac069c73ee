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
//! The annealing loop allocates nothing: a move is applied in place only
//! when it must be costed or is accepted, a costed move that is rejected
//! is reverted, and evaluation runs over scratch arrays allocated once per
//! run. A bitset of operator positions finds the k-th operand or operator
//! and drives the evaluation's passes. Memos stamped with the accepted
//! state, or with its shape, resolve a repeated draw to its move and a
//! repeated move to its cost, and a candidate whose slot geometry is
//! already known is costed by one wirelength pass. Placements are
//! bit-identical per seed to the original clone-per-move annealer kept in
//! [`crate::reference`] (DESIGN.md, "Annealing floorplanner", says why).

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
    ///
    /// # Panics
    ///
    /// Panics if the starting cost overflows to infinity: finite but huge
    /// core sizes or a huge wirelength weight would make the temperature
    /// infinite, and the run would return its unannealed starting
    /// expression.
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
        // Core dimensions are positive and finite, so `==` on them is
        // bit equality: the exact shortcuts below rely on that.
        let dims: Vec<(f64, f64)> = self
            .cores
            .iter()
            .map(|c| (c.width_mm(), c.height_mm()))
            .collect();

        // Initial expression: 0 1 V 2 H 3 V 4 H …, the cuts alternating
        // to seed some 2-D structure.
        let mut elems = Vec::with_capacity(2 * n - 1);
        elems.push(Element::Operand(0));
        for i in 1..n {
            elems.push(Element::Operand(i));
            elems.push(if i % 2 == 0 { Element::H } else { Element::V });
        }
        let mut expr = Expr::new(elems);
        let mut rotated = vec![false; n];
        // Each core's rank, its index in operand order. Geometry is kept
        // per operand slot in rank order, and only an M1 swap moves ranks.
        let mut rank: Vec<usize> = (0..n).collect();

        // The accepted state's area, slot centres and tree nodes. They
        // live apart from the scratch arrays, which every full evaluation
        // overwrites, so a candidate of the same shape can be costed from
        // the slots and an evaluation can copy the unchanged subtrees.
        let mut scratch = Scratch::new(n);
        let (w, h) = scratch.evaluate(&expr, &dims, &rotated, 0, &[]);
        let mut cur_area = w * h;
        let mut cur_slots = scratch.slots.clone();
        let mut cur_nodes = scratch.nodes.clone();
        let mut cur_cost = self.cost(cur_area, &cur_slots, &rank);
        assert!(
            cur_cost.is_finite(),
            "floorplan starting cost overflowed to {cur_cost}: core sizes or the wirelength weight are too large"
        );
        let mut best_expr = expr.clone();
        let mut best_rot = rotated.clone();
        let mut best_cost = cur_cost;

        // `generation` names the accepted state and `shape` the inputs of
        // its geometry: the operators and each slot's footprint. Every
        // accept starts a new generation but a square core's rotation,
        // which changes no cost, and a new shape but a move that keeps it
        // (`Move::keeps_shape`).
        let mut memo = Memo::new(n);
        let (mut generation, mut shape) = (1u64, 1u64);

        let (mut steps, mut proposed, mut accepted) = (0u64, 0u64, 0u64);
        let (mut evaluations, mut reuses, mut geometry_reuses) = (0u64, 0u64, 0u64);
        let moves = MOVES_PER_CORE * n;
        let mut temperature = cur_cost * 0.3 + 1e-9;
        let t_end = temperature * 1e-4;

        while temperature > t_end {
            steps += 1;
            for _ in 0..moves {
                let mv = match rng.gen_range(0..4) {
                    0 => {
                        let k = rng.gen_range(0..n - 1);
                        memo.resolve(0, k, shape, || Some(swap_operands(&expr, k)))
                    }
                    1 => {
                        let k = rng.gen_range(0..n - 1);
                        memo.resolve(1, k, shape, || Some(complement_chain(&expr, k)))
                    }
                    2 => swap_operand_operator(&expr, &mut memo, shape, &mut rng),
                    _ => Some(Move::Rotate(rng.gen_range(0..n))),
                };
                let Some(mv) = mv else { continue };
                proposed += 1;
                // A square core's rotation changes no number, and a move
                // costed before in this state keeps its cost. Any other
                // move is applied and costed from known slot geometry (the
                // state's own, or a candidate's recorded in this shape) or
                // by a full evaluation.
                let key = mv.key(n);
                let square_rotation = matches!(mv, Move::Rotate(v) if dims[v].0 == dims[v].1);
                let (costing, cand_cost) = if square_rotation {
                    (Costing::Unchanged, cur_cost)
                } else if let Some(cost) = memo.cost(key, generation) {
                    reuses += 1;
                    (Costing::Reused, cost)
                } else {
                    mv.apply(&mut expr, &mut rotated, &mut rank);
                    let costed = if mv.keeps_shape(&expr, &dims, &rotated) {
                        (Costing::Slots, self.cost(cur_area, &cur_slots, &rank))
                    } else if let Some((area, slots)) = memo.geometry(key, shape) {
                        geometry_reuses += 1;
                        (Costing::Slots, self.cost(area, slots, &rank))
                    } else {
                        evaluations += 1;
                        let (w, h) =
                            scratch.evaluate(&expr, &dims, &rotated, mv.first(), &cur_nodes);
                        memo.record_geometry(key, shape, w * h, &scratch.slots);
                        (
                            Costing::Evaluated(w * h),
                            self.cost(w * h, &scratch.slots, &rank),
                        )
                    };
                    memo.record_cost(key, generation, costed.1);
                    costed
                };
                let delta = cand_cost - cur_cost;
                if delta <= 0.0 || rng.gen::<f64>() < memo.threshold(key, steps, delta, temperature)
                {
                    accepted += 1;
                    cur_cost = cand_cost;
                    if matches!(costing, Costing::Unchanged | Costing::Reused) {
                        mv.apply(&mut expr, &mut rotated, &mut rank);
                    }
                    // A new shape's geometry comes from the scratch arrays,
                    // evaluated again unless this proposal evaluated it.
                    if !mv.keeps_shape(&expr, &dims, &rotated) {
                        cur_area = match costing {
                            Costing::Evaluated(area) => area,
                            _ => {
                                let (w, h) = scratch.evaluate(
                                    &expr,
                                    &dims,
                                    &rotated,
                                    mv.first(),
                                    &cur_nodes,
                                );
                                w * h
                            }
                        };
                        std::mem::swap(&mut cur_slots, &mut scratch.slots);
                        std::mem::swap(&mut cur_nodes, &mut scratch.nodes);
                        shape += 1;
                    }
                    if !matches!(costing, Costing::Unchanged) {
                        generation += 1;
                    }
                    if cur_cost < best_cost {
                        best_cost = cur_cost;
                        best_expr.copy_from(&expr);
                        best_rot.copy_from_slice(&rotated);
                    }
                } else if matches!(costing, Costing::Slots | Costing::Evaluated(_)) {
                    // Every move is its own inverse.
                    mv.apply(&mut expr, &mut rotated, &mut rank);
                }
            }
            temperature *= COOLING;
        }
        if let Some(t) = tel {
            t.add("floorplan.temperature_steps", steps);
            t.add("floorplan.moves_proposed", proposed);
            t.add("floorplan.moves_accepted", accepted);
            t.add("floorplan.evaluations", evaluations);
            t.add("floorplan.cost_reuses", reuses);
            t.add("floorplan.geometry_reuses", geometry_reuses);
        }

        let (w, h) = scratch.evaluate(&best_expr, &dims, &best_rot, 0, &[]);
        let mut centers = vec![(0.0, 0.0); n];
        let mut slots = scratch.slots.into_iter();
        best_expr.for_each(0, false, |p| {
            centers[operand(best_expr.elems[p])] = slots.next().expect("one slot per operand");
        });
        Placement::new(centers, w, h)
    }

    /// Chip area plus the weighted wirelength, core `c` centred at
    /// `slots[rank[c]]`: one full pass over the connections, in order, so
    /// the sum's f64 bits depend only on the centres.
    fn cost(&self, area: f64, slots: &[(f64, f64)], rank: &[usize]) -> f64 {
        if self.wire_weight == 0.0 {
            return area;
        }
        let wl: f64 = self
            .connections
            .iter()
            .map(|&(s, d, vol)| {
                let (sx, sy) = slots[rank[s]];
                let (dx, dy) = slots[rank[d]];
                vol * ((sx - dx).abs() + (sy - dy).abs())
            })
            .sum();
        area + self.wire_weight * wl
    }
}

/// A move, named by what it changes. Applying a move twice restores the
/// state, so a rejected move is reverted by applying it again.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// M1: swap the operands at these two positions.
    SwapOperands(usize, usize),
    /// M2: complement the operator chain over this inclusive range.
    Complement(usize, usize),
    /// M3: swap the operand/operator pair at `i`, `i + 1`.
    SwapAdjacent(usize),
    /// Flip the core's rotation bit.
    Rotate(usize),
}

impl Move {
    /// Applies the move to the expression, the rotation bits and the
    /// cores' ranks.
    fn apply(self, expr: &mut Expr, rotated: &mut [bool], rank: &mut [usize]) {
        match self {
            Move::SwapOperands(p, q) => {
                rank.swap(operand(expr.elems[p]), operand(expr.elems[q]));
                expr.elems.swap(p, q);
            }
            Move::Complement(lo, hi) => complement(&mut expr.elems[lo..=hi]),
            Move::SwapAdjacent(i) => expr.swap_adjacent(i),
            Move::Rotate(v) => rotated[v] = !rotated[v],
        }
    }

    /// Whether the move keeps every size and offset: a square core's
    /// rotation, or an M1 swap of two bit-equal footprints. Either only
    /// changes which core sits in which operand slot. The answer is the
    /// same before and after the move is applied.
    fn keeps_shape(self, expr: &Expr, dims: &[(f64, f64)], rotated: &[bool]) -> bool {
        match self {
            Move::Rotate(v) => dims[v].0 == dims[v].1,
            Move::SwapOperands(p, q) => {
                footprint(dims, rotated, operand(expr.elems[p]))
                    == footprint(dims, rotated, operand(expr.elems[q]))
            }
            Move::Complement(..) | Move::SwapAdjacent(_) => false,
        }
    }

    /// The first position the move changes, so every subtree that ends
    /// before it is the accepted state's. A rotation gives 0: the rotated
    /// core may sit anywhere.
    fn first(self) -> usize {
        match self {
            Move::SwapOperands(p, _) | Move::Complement(p, _) | Move::SwapAdjacent(p) => p,
            Move::Rotate(_) => 0,
        }
    }

    /// The number of move keys in an expression over `n` cores.
    fn keys(n: usize) -> usize {
        3 * (2 * n - 1) + n
    }

    /// The move's memo key. Within one shape the key names the move: an
    /// M1 swap by its first operand's position (the second is the next
    /// operand), an M2 complement by its chain's start (every anchor in a
    /// chain complements the same chain), an M3 swap by its position and a
    /// rotation by its core. Rotation keys come last.
    fn key(self, n: usize) -> usize {
        let len = 2 * n - 1;
        match self {
            Move::SwapOperands(p, _) => p,
            Move::Complement(lo, _) => len + lo,
            Move::SwapAdjacent(i) => 2 * len + i,
            Move::Rotate(v) => 3 * len + v,
        }
    }
}

/// How a proposed move's cost was found. All but the last are exact
/// shortcuts: they yield the bits a full evaluation would.
#[derive(Debug, Clone, Copy)]
enum Costing {
    /// A core with bit-equal width and height is rotated: no evaluated
    /// number changes. Not applied yet.
    Unchanged,
    /// The same move was costed before in this accepted state. Not
    /// applied yet.
    Reused,
    /// Applied, and costed by one wirelength pass over known slot
    /// geometry: the accepted state's if the move keeps its shape, else
    /// the one recorded for the same key in the same shape.
    Slots,
    /// Applied and evaluated into the scratch arrays, giving this chip
    /// area.
    Evaluated(f64),
}

/// What the loop remembers of the states it has seen. Each entry is
/// stamped with the generation or shape it was found in, and is read only
/// while that generation or shape is current.
struct Memo {
    n: usize,
    /// Per move key: the candidate's cost, and the acceptance threshold
    /// last computed for it.
    costs: Vec<Cost>,
    /// Per drawn kind (M1, M2, M3) and draw (M1's and M2's `k`, M3's
    /// candidate `j`), stamped with the shape: the move the draw resolves
    /// to, or `None` for an M3 candidate that breaks normalization. The
    /// draws read only operator positions and kinds, which only a change
    /// of shape can change.
    draws: [Vec<(u64, Option<Move>)>; 3],
    /// M3's candidate count, stamped with the shape.
    candidates: (u64, usize),
    /// Per M1, M2 and M3 key, stamped with the shape: the candidate's
    /// area, and in `slots` its `n` slot centres in rank order. A
    /// rotation's key names a core, whose slot an accepted equal-footprint
    /// swap moves, so rotation keys, past the end, have no entry.
    areas: Vec<(u64, f64)>,
    slots: Vec<(f64, f64)>,
}

/// One move's cost, valid while `generation` is the accepted state's, and
/// its acceptance threshold, valid while `step` is the temperature step's
/// too.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    generation: u64,
    cost: f64,
    step: u64,
    threshold: f64,
}

impl Memo {
    fn new(n: usize) -> Self {
        let shaped = 3 * (2 * n - 1);
        Memo {
            n,
            costs: vec![Cost::default(); Move::keys(n)],
            draws: [n - 1, n - 1, 2 * n - 2].map(|len| vec![(0, None); len]),
            candidates: (0, 0),
            areas: vec![(0, 0.0); shaped],
            slots: vec![(0.0, 0.0); shaped * n],
        }
    }

    /// The move that draw `d` of `kind` resolves to in `shape`, found by
    /// `find` the first time.
    fn resolve(
        &mut self,
        kind: usize,
        d: usize,
        shape: u64,
        find: impl FnOnce() -> Option<Move>,
    ) -> Option<Move> {
        let slot = &mut self.draws[kind][d];
        if slot.0 != shape {
            *slot = (shape, find());
        }
        slot.1
    }

    /// M3's candidate count in `shape`, found by `count` the first time.
    fn candidates(&mut self, shape: u64, count: impl FnOnce() -> usize) -> usize {
        if self.candidates.0 != shape {
            self.candidates = (shape, count());
        }
        self.candidates.1
    }

    fn cost(&self, key: usize, generation: u64) -> Option<f64> {
        let c = self.costs[key];
        (c.generation == generation).then_some(c.cost)
    }

    fn record_cost(&mut self, key: usize, generation: u64, cost: f64) {
        self.costs[key] = Cost {
            generation,
            cost,
            ..Cost::default()
        };
    }

    /// `exp(-delta / temperature)` for the move at `key`, costed in the
    /// current generation, computed once per temperature `step`: within
    /// one generation the move's `delta` is fixed.
    fn threshold(&mut self, key: usize, step: u64, delta: f64, temperature: f64) -> f64 {
        let c = &mut self.costs[key];
        if c.step != step {
            c.step = step;
            c.threshold = (-delta / temperature).exp();
        }
        c.threshold
    }

    /// The area and slot centres recorded for `key` in `shape`.
    fn geometry(&self, key: usize, shape: u64) -> Option<(f64, &[(f64, f64)])> {
        match self.areas.get(key) {
            Some(&(stamp, area)) if stamp == shape => {
                Some((area, &self.slots[key * self.n..(key + 1) * self.n]))
            }
            _ => None,
        }
    }

    /// Records an evaluated candidate's geometry, unless `key` is a
    /// rotation's.
    fn record_geometry(&mut self, key: usize, shape: u64, area: f64, slots: &[(f64, f64)]) {
        if let Some(entry) = self.areas.get_mut(key) {
            *entry = (shape, area);
            self.slots[key * self.n..(key + 1) * self.n].copy_from_slice(slots);
        }
    }
}

/// A Polish expression with its operator positions indexed as a bitset:
/// bit `p % 64` of `ops[p / 64]` is set when `elems[p]` is `H` or `V`.
/// Selects find the k-th operand or operator and popcounts count
/// prefixes, so no move scans the expression.
#[derive(Debug, Clone)]
struct Expr {
    elems: Vec<Element>,
    ops: Vec<u64>,
}

impl Expr {
    fn new(elems: Vec<Element>) -> Self {
        let mut ops = vec![0; elems.len().div_ceil(64)];
        for (p, e) in elems.iter().enumerate() {
            if e.is_operator() {
                ops[p / 64] |= 1 << (p % 64);
            }
        }
        Expr { elems, ops }
    }

    fn copy_from(&mut self, other: &Expr) {
        self.elems.copy_from_slice(&other.elems);
        self.ops.copy_from_slice(&other.ops);
    }

    /// Word `w` of the operand bitset.
    fn operand_word(&self, w: usize) -> u64 {
        !self.ops[w] & below(self.elems.len(), w)
    }

    /// Word `w` of the bitset of positions `i` whose symbol differs in
    /// kind from the one at `i + 1`: M3's candidate pairs.
    fn boundary_word(&self, w: usize) -> u64 {
        let next = self.ops[w] >> 1 | self.ops.get(w + 1).map_or(0, |&x| x << 63);
        (self.ops[w] ^ next) & below(self.elems.len() - 1, w)
    }

    fn swap_adjacent(&mut self, i: usize) {
        self.elems.swap(i, i + 1);
        for p in [i, i + 1] {
            self.ops[p / 64] ^= 1 << (p % 64);
        }
    }

    /// Calls `f` with every operator position from `from` on if
    /// `operators`, else with every such operand position, in increasing
    /// order.
    fn for_each(&self, from: usize, operators: bool, mut f: impl FnMut(usize)) {
        for w in from / 64..self.ops.len() {
            let mut bits = if operators {
                self.ops[w]
            } else {
                self.operand_word(w)
            } & !below(from, w);
            while bits != 0 {
                f(64 * w + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Calls `f` with every operator position, in decreasing order.
    fn for_each_operator_rev(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.ops.iter().enumerate().rev() {
            let mut bits = word;
            while bits != 0 {
                let b = 63 - bits.leading_zeros() as usize;
                f(64 * w + b);
                bits ^= 1 << b;
            }
        }
    }

    /// Whether swapping the operand/operator pair at `i`, `i + 1` of a
    /// normalized expression keeps it normalized. Only two things can
    /// break: an operator moving left must leave more operands than
    /// operators in the prefix it now ends (the balloting property), and
    /// an operator must not land next to an equal one.
    fn swap_keeps_normalized(&self, i: usize) -> bool {
        let (a, b) = (self.elems[i], self.elems[i + 1]);
        if a.is_operator() {
            self.elems.get(i + 2) != Some(&a)
        } else {
            let operators: u32 = (0..=i / 64)
                .map(|w| (self.ops[w] & below(i, w)).count_ones())
                .sum();
            2 * operators as usize + 2 <= i && (i == 0 || self.elems[i - 1] != b)
        }
    }
}

/// The bits of word `w` that stand for positions below `end`.
fn below(end: usize, w: usize) -> u64 {
    match end.saturating_sub(64 * w) {
        0 => 0,
        k if k >= 64 => !0,
        k => (1 << k) - 1,
    }
}

/// The position of the `k`-th set bit, counting from 0, over the words
/// `word(0)`, `word(1)`, …; the caller guarantees it exists.
fn select(mut k: usize, word: impl Fn(usize) -> u64) -> usize {
    let mut w = 0;
    loop {
        let mut bits = word(w);
        let ones = bits.count_ones() as usize;
        if k < ones {
            for _ in 0..k {
                bits &= bits - 1;
            }
            return 64 * w + bits.trailing_zeros() as usize;
        }
        k -= ones;
        w += 1;
    }
}

/// One node of the slicing tree, stored at its expression position: its
/// size and offset as `[x, y]`, and the position where its subtree
/// starts.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    size: [f64; 2],
    off: [f64; 2],
    start: usize,
}

/// Scratch space for evaluating a Polish expression, allocated once per
/// run. Every parent comes after its children in postfix order, so sizes
/// fill bottom-up in forward passes and offsets top-down in a backward
/// pass. An operator's right child sits just before it and its left child
/// just before the right subtree starts, so no stack is kept.
struct Scratch {
    nodes: Vec<Node>,
    /// Operand slot centres of the last evaluated expression, in rank
    /// order.
    slots: Vec<(f64, f64)>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            nodes: vec![Node::default(); 2 * n - 1],
            slots: vec![(0.0, 0.0); n],
        }
    }

    /// Evaluates `expr`: returns the chip width and height and leaves the
    /// operand slot centres in `self.slots`. Operands and operators go in
    /// separate passes over the bitset, so no pass branches on a symbol's
    /// kind, and an operator picks its axis by index: a `V` adds widths
    /// (axis 0), an `H` heights (axis 1).
    ///
    /// Every subtree that ends before `from` must be the one in the
    /// accepted state whose nodes are `accepted`: their sizes are copied
    /// with the bits a recomputation would give. Offsets and centres are
    /// always recomputed, since a changed subtree can move every slot.
    fn evaluate(
        &mut self,
        expr: &Expr,
        dims: &[(f64, f64)],
        rotated: &[bool],
        from: usize,
        accepted: &[Node],
    ) -> (f64, f64) {
        let (nodes, slots) = (&mut self.nodes, &mut self.slots);
        nodes[..from].copy_from_slice(&accepted[..from]);
        let axis = |p: usize| usize::from(expr.elems[p] == Element::H);
        expr.for_each(from, false, |p| {
            let (w, h) = footprint(dims, rotated, operand(expr.elems[p]));
            nodes[p] = Node {
                size: [w, h],
                off: [0.0; 2],
                start: p,
            };
        });
        expr.for_each(from, true, |p| {
            let r = nodes[p - 1];
            let l = nodes[r.start - 1];
            let s = axis(p);
            let t = 1 - s;
            let mut size = [0.0; 2];
            size[s] = l.size[s] + r.size[s];
            size[t] = l.size[t].max(r.size[t]);
            nodes[p] = Node {
                size,
                off: [0.0; 2],
                start: l.start,
            };
        });
        // The root, at the last position, keeps the zero offset set above.
        expr.for_each_operator_rev(|p| {
            let off = nodes[p].off;
            let r = p - 1;
            let l = nodes[r].start - 1;
            let s = axis(p);
            nodes[l].off = off;
            nodes[r].off = off;
            nodes[r].off[s] = off[s] + nodes[l].size[s];
        });
        let mut rank = 0;
        expr.for_each(0, false, |p| {
            let Node { size, off, .. } = nodes[p];
            slots[rank] = (off[0] + size[0] / 2.0, off[1] + size[1] / 2.0);
            rank += 1;
        });
        let root = nodes[expr.elems.len() - 1];
        (root.size[0], root.size[1])
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
        _ => unreachable!("only operand positions hold cores"),
    }
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

/// M1: the operands of rank `k` and `k + 1`. An expression over `n`
/// cores always has `n` operands, so the draw is over `n - 1` pairs.
fn swap_operands(expr: &Expr, k: usize) -> Move {
    Move::SwapOperands(
        select(k, |w| expr.operand_word(w)),
        select(k + 1, |w| expr.operand_word(w)),
    )
}

/// M2: the maximal operator chain around the `k`-th operator (always
/// `n - 1` of them).
fn complement_chain(expr: &Expr, k: usize) -> Move {
    let anchor = select(k, |w| expr.ops[w]);
    let elems = &expr.elems;
    let mut lo = anchor;
    while lo > 0 && elems[lo - 1].is_operator() {
        lo -= 1;
    }
    let mut hi = anchor;
    while hi + 1 < elems.len() && elems[hi + 1].is_operator() {
        hi += 1;
    }
    Move::Complement(lo, hi)
}

/// M3: an adjacent operand/operator swap, trying up to four random
/// candidates and taking the first that keeps the expression normalized;
/// `None` when all four would break it. There is always a candidate: an
/// expression starts with an operand and ends with an operator. The
/// candidate count and each candidate's verdict are found once per shape.
fn swap_operand_operator(
    expr: &Expr,
    memo: &mut Memo,
    shape: u64,
    rng: &mut StdRng,
) -> Option<Move> {
    let candidates = memo.candidates(shape, || {
        (0..expr.ops.len())
            .map(|w| expr.boundary_word(w).count_ones() as usize)
            .sum()
    });
    for _ in 0..4 {
        let j = rng.gen_range(0..candidates);
        let mv = memo.resolve(2, j, shape, || {
            let i = select(j, |w| expr.boundary_word(w));
            expr.swap_keeps_normalized(i)
                .then_some(Move::SwapAdjacent(i))
        });
        if mv.is_some() {
            return mv;
        }
    }
    None
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
        // the local test, whose ballot is a popcount of the operator
        // bitset, must match swapping and rescanning.
        let (a, b, c, d) = (
            Element::Operand(0),
            Element::Operand(1),
            Element::Operand(2),
            Element::Operand(3),
        );
        let mut exprs = vec![
            vec![a, b, Element::V, c, Element::H, d, Element::V],
            vec![a, b, c, Element::V, Element::H, d, Element::V],
            vec![a, b, Element::H, c, d, Element::V, Element::H],
            vec![a, b, c, d, Element::H, Element::V, Element::H],
        ];
        // 40 cores in 79 positions, so the ballot counts across two words.
        let mut long = vec![Element::Operand(0)];
        let mut cuts = [Element::V, Element::H].into_iter().cycle();
        for i in 1..40 {
            long.push(Element::Operand(i));
            if i % 3 != 0 {
                long.extend(cuts.next());
            }
        }
        while long.len() < 79 {
            long.extend(cuts.next());
        }
        exprs.push(long);
        let mut checked = 0;
        for expr in exprs {
            assert!(reference::is_valid_normalized(&expr));
            let indexed = Expr::new(expr.clone());
            for i in 0..expr.len() - 1 {
                if expr[i].is_operator() == expr[i + 1].is_operator() {
                    continue;
                }
                let mut swapped = expr.clone();
                swapped.swap(i, i + 1);
                assert_eq!(
                    indexed.swap_keeps_normalized(i),
                    reference::is_valid_normalized(&swapped),
                    "{expr:?} at {i}"
                );
                checked += 1;
            }
        }
        assert!(checked >= 12 + 40);
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

    #[test]
    #[should_panic(expected = "starting cost overflowed")]
    fn overflowing_wirelength_panics() {
        // A finite weight whose product with the wirelength is infinite.
        let _ = SlicingFloorplanner::new(unit_cores(8))
            .seed(1)
            .wirelength(1e308, vec![(0, 7, 10.0)])
            .run();
    }

    #[test]
    #[should_panic(expected = "starting cost overflowed")]
    fn overflowing_chip_area_panics() {
        let huge = (0..8)
            .map(|i| Core::new(format!("c{i}"), 1e160, 1e160))
            .collect();
        let _ = SlicingFloorplanner::new(huge).seed(1).run();
    }
}
