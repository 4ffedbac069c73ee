//! Parallel driver: workers claim whole subtrees and expand them locally.
//!
//! The old design kept one mutex-guarded frontier that every worker hit on
//! every pop and push, plus a 5 ms condvar-timeout poll to detect
//! termination — so at small thread counts the lock and the wakeup churn
//! cost more than the parallelism won. This driver inverts it:
//!
//! * **Packets, not nodes.** The shared state is an *injector* — a short
//!   deque of [`PoppedNode`] packets. A worker claims one packet and
//!   expands the whole subtree under it on a *private* [`Frontier`],
//!   touching no shared structure on the hot path.
//! * **Donate only to the starving.** Every `SHARE_INTERVAL` pops a worker
//!   checks an idle counter; only if peers are actually parked does it
//!   donate a few nodes from the *bottom* of its DFS stack (the
//!   shallowest, largest subtrees) as new packets. A saturated pool never
//!   pays for balancing.
//! * **Exact termination, no polling.** `outstanding` counts unfinished
//!   packets (queued or claimed; a packet's descendants are covered by the
//!   claim until donated, which increments the count before the packet is
//!   visible). Idle workers park on the condvar with *no timeout*; the
//!   worker that retires the last packet takes the injector lock and
//!   notifies everyone. The count-then-lock-then-notify order makes the
//!   zero transition race-free against a worker between its empty-check
//!   and its park.
//!
//! All workers share the **incumbent** best cost through an atomic
//! ([`SharedSearch::best_cost`](super::SharedSearch)) — global pruning is
//! what keeps the parallel search work-efficient — plus the statistics
//! counters and the **match cache**. The admissible bound and strict
//! (`>=`) pruning guarantee every optimal leaf survives regardless of
//! interleaving, so sequential and parallel searches return identical best
//! costs; among *equal-cost* optima the first installer wins, which is the
//! only scheduling-dependent outcome.
//!
//! On timeout, the active worker salvages its current path as a leaf,
//! retires its packet and abandons its local frontier; parked peers are
//! woken by the retirement cascade and observe the sticky timeout flag.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use super::{consider_leaf, expand, EngineCtx, ExpandScratch, PhaseAcc, SharedSearch};
use crate::decompose::frontier::{Frontier, PoppedNode};

/// Pops between idle-counter checks: long enough that a healthy pool never
/// touches shared state, short enough to refill a starving one quickly.
const SHARE_INTERVAL: u64 = 16;
/// Packets donated per offload.
const MAX_OFFLOAD: usize = 4;
/// Nodes the calling thread expands *before any worker is spawned*: a
/// search that drains within the warmup never pays a single thread-spawn,
/// park, or wake — `threads > 1` on a trivial instance costs nothing.
const SPAWN_WARMUP_POPS: u64 = 64;
/// Minimum private frontier size before a worker donates. A thinner stack
/// means a narrow subtree: donating from it just bounces ownership (and,
/// oversubscribed, a context switch) for a few nodes of work.
const MIN_SHARE_STACK: usize = 8;

/// The shared injector plus signaling and termination bookkeeping.
struct WorkQueue {
    injector: Mutex<VecDeque<PoppedNode>>,
    /// Parked workers wait here; signaled when packets land and — under
    /// the injector lock — when the last packet retires.
    work_ready: Condvar,
    /// Unfinished packets: queued in the injector or claimed by a worker.
    outstanding: AtomicUsize,
    /// Workers currently parked — the donate-only-to-the-starving hint.
    idle: AtomicUsize,
}

/// Runs the search over `threads` workers (callers ensure `threads > 1`).
///
/// The calling thread first drains up to [`SPAWN_WARMUP_POPS`] nodes
/// sequentially; only a search that survives the warmup converts its
/// frontier into packets and spawns the worker pool.
pub(crate) fn run(ctx: &EngineCtx<'_>, shared: &SharedSearch, root: PoppedNode, threads: usize) {
    let mut local = Frontier::new(ctx.config.order, ctx.stride, ctx.live_stride);
    local.push_node(root);
    let mut node = PoppedNode::empty(ctx.stride, ctx.live_stride);
    let mut scratch = ExpandScratch::new(ctx);
    let mut phases = PhaseAcc::new(ctx.profile);
    let mut pops = 0u64;
    while pops < SPAWN_WARMUP_POPS {
        if !local.pop_into(&mut node) {
            phases.flush(shared);
            return; // Drained within the warmup — no thread ever spawned.
        }
        if ctx.config.use_lower_bound && node.bound >= shared.best_cost() {
            shared.branches_pruned.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        shared.nodes_visited.fetch_add(1, Ordering::Relaxed);
        if shared.out_of_time(ctx.deadline) {
            consider_leaf(ctx, shared, &node);
            phases.flush(shared);
            return;
        }
        let found_match = expand(ctx, shared, &node, &mut local, &mut scratch, &mut phases);
        if !found_match {
            consider_leaf(ctx, shared, &node);
        }
        pops += 1;
    }
    phases.flush(shared);
    let packets = local.steal(local.len());
    if packets.is_empty() {
        return;
    }
    let queue = WorkQueue {
        outstanding: AtomicUsize::new(packets.len()),
        injector: Mutex::new(VecDeque::from(packets)),
        work_ready: Condvar::new(),
        idle: AtomicUsize::new(0),
    };
    // `threads` is a cap, not a mandate: a CPU-bound search gains nothing
    // from more workers than hardware threads — oversubscription only buys
    // context switches and cache refills — so the pool is clamped. A
    // single-worker pool runs on the calling thread, spawn-free.
    let workers = threads.min(rayon::current_num_threads()).max(1);
    if workers == 1 {
        worker(ctx, shared, &queue);
    } else {
        rayon::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|_| worker(ctx, shared, &queue));
            }
        });
    }
}

fn worker(ctx: &EngineCtx<'_>, shared: &SharedSearch, queue: &WorkQueue) {
    let mut local = Frontier::new(ctx.config.order, ctx.stride, ctx.live_stride);
    let mut node = PoppedNode::empty(ctx.stride, ctx.live_stride);
    let mut scratch = ExpandScratch::new(ctx);
    let mut phases = PhaseAcc::new(ctx.profile);
    while let Some(packet) = next_packet(ctx, shared, queue) {
        local.push_node(packet);
        let mut pops_since_share = 0u64;
        // Drain the claimed subtree on the private frontier.
        loop {
            let t = phases.start();
            let popped = local.pop_into(&mut node);
            phases.frontier(t);
            if !popped {
                break;
            }
            // Re-test the bound at pop time: the incumbent may have
            // improved since this node was generated.
            if ctx.config.use_lower_bound && node.bound >= shared.best_cost() {
                shared.branches_pruned.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            shared.nodes_visited.fetch_add(1, Ordering::Relaxed);
            if shared.out_of_time(ctx.deadline) {
                // Salvage this worker's current path and abandon the rest
                // of its subtree; peers observe the sticky timeout flag.
                let t = phases.start();
                consider_leaf(ctx, shared, &node);
                phases.leaf(t);
                finish_packet(queue);
                phases.flush(shared);
                return;
            }
            let found_match = expand(ctx, shared, &node, &mut local, &mut scratch, &mut phases);
            if !found_match {
                let t = phases.start();
                consider_leaf(ctx, shared, &node);
                phases.leaf(t);
            }
            pops_since_share += 1;
            if pops_since_share >= SHARE_INTERVAL {
                pops_since_share = 0;
                // Donate only from a fat stack, and only to the starving.
                if local.len() >= MIN_SHARE_STACK && queue.idle.load(Ordering::Relaxed) > 0 {
                    offload(queue, &mut local);
                }
            }
        }
        finish_packet(queue);
    }
    phases.flush(shared);
}

/// Claims the next packet, parking (without timeout) while work is still
/// in flight elsewhere. Returns `None` on termination or timeout.
fn next_packet(
    ctx: &EngineCtx<'_>,
    shared: &SharedSearch,
    queue: &WorkQueue,
) -> Option<PoppedNode> {
    let mut injector = queue.injector.lock().expect("injector lock");
    loop {
        if let Some(packet) = injector.pop_front() {
            return Some(packet);
        }
        if queue.outstanding.load(Ordering::Acquire) == 0 || shared.out_of_time(ctx.deadline) {
            // Cascade the wakeup so every parked peer observes it too.
            queue.work_ready.notify_all();
            return None;
        }
        queue.idle.fetch_add(1, Ordering::Relaxed);
        injector = queue.work_ready.wait(injector).expect("injector lock");
        queue.idle.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Moves a few shallow nodes from `local` into the injector as packets.
fn offload(queue: &WorkQueue, local: &mut Frontier) {
    let donated = local.steal(MAX_OFFLOAD.min(local.len() - 1));
    if donated.is_empty() {
        return;
    }
    // Count the packets before they become visible, so `outstanding` never
    // transiently reads zero while work remains.
    queue.outstanding.fetch_add(donated.len(), Ordering::AcqRel);
    let mut injector = queue.injector.lock().expect("injector lock");
    injector.extend(donated);
    drop(injector);
    queue.work_ready.notify_all();
}

/// Retires a claimed packet. The last retirement notifies under the
/// injector lock: a worker that saw `outstanding > 0` either has not yet
/// parked (it holds the lock until `wait`, so the notify waits for it) or
/// is already parked and receives it — no lost-wakeup window.
fn finish_packet(queue: &WorkQueue) {
    if queue.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
        let _injector = queue.injector.lock().expect("injector lock");
        queue.work_ready.notify_all();
    }
}
