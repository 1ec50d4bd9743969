//! Calibrated time. The host is a shared 2-core machine whose speed drifts
//! by tens of percent over seconds, so a raw wall-clock second is not a
//! stable unit. Every timed interval is bracketed by a fixed reference
//! kernel and reported in *reference seconds*:
//! `t × KERNEL_NOMINAL_S / mean(kernel before, kernel after)`.
//!
//! Bracketing removes the slow drift between one invocation and the next
//! (between-invocation spread of a median: 8.6 % raw, 1.5–3 % calibrated);
//! it cannot remove the fast jitter within a call, which only more calls
//! average out.
//!
//! The kernel uses no repo or vendor code, so optimising `rand_chacha` or
//! `digest-stats` cannot move the ruler. It is frozen: changing it
//! redefines every time metric.

use std::hint::black_box;
use std::time::Instant;

/// What one kernel run is declared to cost, in reference seconds: its
/// typical wall time on the 2-core host the first baseline was taken on, so
/// a reference second is about a second there.
pub const KERNEL_NOMINAL_S: f64 = 0.060;
const ALU_ITERATIONS: u64 = 3_000_000;
const CHASE_STEPS: usize = 180_000;
const CHASE_SLOTS: usize = 2_000_000;
const ALLOCATIONS: u64 = 110_000;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reference kernel: about half floating-point arithmetic, a quarter
/// dependent loads that miss the caches and a quarter small allocations,
/// because the workloads are that kind of mix (the estimators compute,
/// `db`/`net` chase pointers, `mux` and `audit` allocate). Measured on this
/// host, the blend tracks the workloads' slow phases better than the
/// arithmetic alone (per-call spread 7 % against 10 %).
pub struct Kernel {
    /// One random cycle through 8 MB of `u32` slots.
    chase: Vec<u32>,
}

impl Kernel {
    pub fn new() -> Self {
        // Sattolo's shuffle: a single cycle, so the chase never shortens.
        let mut chase: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut state = 0x00D1_6E57_u64;
        for i in (1..CHASE_SLOTS).rev() {
            let j = (splitmix64(&mut state) % i as u64) as usize;
            chase.swap(i, j);
        }
        Self { chase }
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn run(&self) -> f64 {
        let start = Instant::now();
        let mut state = black_box(0x00D1_6E57_u64);

        let mut acc = 0.0_f64;
        for _ in 0..ALU_ITERATIONS {
            // 53 random mantissa bits → (0, 1], then ln and sqrt.
            let u = ((splitmix64(&mut state) >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
            acc += (-u.ln()).sqrt();
        }
        black_box(acc);

        let mut slot = 0_u32;
        for _ in 0..CHASE_STEPS {
            slot = self.chase[slot as usize];
        }
        black_box(slot);

        let mut live: Vec<Vec<u64>> = Vec::with_capacity(64);
        for i in 0..ALLOCATIONS {
            let r = splitmix64(&mut state);
            let mut block = Vec::with_capacity(4 + (r >> 58) as usize * 8);
            block.push(i);
            if live.len() < 64 {
                live.push(block);
            } else {
                live[(r >> 20) as usize % 64] = block;
            }
        }
        black_box(&live);
        start.elapsed().as_secs_f64()
    }
}

/// One timed interval with the kernel readings that bracket it.
#[derive(Clone, Copy)]
pub struct Timed {
    pub raw_s: f64,
    pub kernel_before_s: f64,
    pub kernel_after_s: f64,
}

impl Timed {
    pub fn reference_s(&self) -> f64 {
        self.raw_s * KERNEL_NOMINAL_S / (0.5 * (self.kernel_before_s + self.kernel_after_s))
    }
}

/// Hands the last kernel reading from one timed interval to the next, so
/// each interval is bracketed by readings taken right beside it.
pub struct Ruler {
    kernel: Kernel,
    last_kernel_s: f64,
}

impl Ruler {
    pub fn new() -> Self {
        let kernel = Kernel::new();
        let last_kernel_s = kernel.run();
        Self {
            kernel,
            last_kernel_s,
        }
    }

    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (Timed, T) {
        let start = Instant::now();
        let out = work();
        let raw_s = start.elapsed().as_secs_f64();
        let after = self.kernel.run();
        let timed = Timed {
            raw_s,
            kernel_before_s: self.last_kernel_s,
            kernel_after_s: after,
        };
        self.last_kernel_s = after;
        (timed, out)
    }
}

/// Linear-interpolated quantile of unsorted `values` (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
