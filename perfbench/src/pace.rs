//! The reference kernel that `wall_s` is paced against.
//!
//! Other tenants of a shared host slow this benchmark's passes by up to
//! 1.8× for seconds to minutes at a time, with no steal or system time to
//! show for it: they compete for the core's execution resources, so code
//! with much instruction-level parallelism loses and a latency-bound loop
//! hardly notices. A fixed kernel made of the program's own kinds of work
//! (small allocations, sorts on `f64` keys, SipHash maps, `exp`/`ln`,
//! string formatting) slows down with the passes; a pass's time over the
//! kernel's time around it stays put, while a change to the program moves
//! it as much as it moves the pass. The kernel lives here, so no change to
//! the program can change it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, ms, at a quiet moment of the 2-vCPU Intel Xeon
/// virtual machine the benchmark was written on: the rate at which
/// `wall_s` converts kernel runs back into seconds.
pub const REFERENCE_MS: f64 = 0.33;
/// Kernel runs per sample; a sample is their median.
const RUNS: usize = 7;
/// Rounds per kernel run.
const ROUNDS: usize = 100;

/// One run of the kernel: `rounds` rounds of 64 random `f64` keys drawn,
/// sorted, folded into a map through `exp`/`ln`, and one formatted.
fn kernel(rounds: usize) -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0.0;
    let mut map: HashMap<u64, f64> = HashMap::new();
    for _ in 0..rounds {
        let mut keys: Vec<(u64, f64)> = (0..64)
            .map(|_| {
                let r = next();
                (r % 1000, (r >> 11) as f64 / (1u64 << 53) as f64)
            })
            .collect();
        keys.sort_by(|a, b| a.1.total_cmp(&b.1));
        for &(k, f) in &keys {
            let e = map.entry(k).or_insert(0.0);
            *e += (-3.0 * f).exp();
            if *e > 2.0 {
                acc += e.ln();
                *e = 0.0;
            }
        }
        acc += format!("{:.3}", keys[3].1).len() as f64;
    }
    acc + map.len() as f64
}

/// One pace sample: the median time, ms, of [`RUNS`] kernel runs.
pub fn sample() -> f64 {
    let mut ms: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(kernel(black_box(ROUNDS)));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::quantile(&mut ms, 0.5)
}
