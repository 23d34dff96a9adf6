//! Host-speed calibration. The benchmark runs on shared hosts whose
//! single-thread speed drifts by tens of percent over minutes, longer than
//! one run, so raw wall-clock medians of identical code differ from run to
//! run by more than any bound worth gating on. Each run therefore also
//! times a fixed reference kernel — benchmark code that calls nothing in
//! the program — between the workload's operations and around its set-ups
//! and measured phase, and reports its wall-clock metrics at reference
//! speed: measured time × [`REF_MS`] / the kernel's time around it (the
//! kernel runs just before and after an operation where the workload is
//! single-threaded, the run's median elsewhere). A change to the program
//! moves the workload's times and not the kernel's, so it shows in full; a
//! slow period of the host moves both, and largely cancels.

use crate::stats::median;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on a host of reference speed, ms (about its
/// time on a 2.1 GHz Xeon vCPU with the host quiet).
pub const REF_MS: f64 = 25.0;

/// Elements of the kernel's buffer: 2 MiB, past the private caches, so the
/// kernel feels contention for the shared cache and memory as well as for
/// the core.
const LEN: usize = 1 << 18;

/// Rounds of the kernel per probe.
const ROUNDS: usize = 4;

thread_local! {
    /// The kernel's buffer, allocated by the first probe of a thread (the
    /// first probe of a phase runs before its peak-RSS mark is reset).
    static BUF: RefCell<Vec<u64>> = RefCell::new(vec![0; LEN]);
}

/// Times one run of the reference kernel, ms: [`ROUNDS`] times, fill the
/// buffer from a xorshift generator and sort it. Sorting mixes integer
/// work, data-dependent branches and cache-missing memory traffic, which
/// followed the host's slow periods on the link workloads more closely
/// than a pure integer loop did.
#[inline(never)]
pub fn probe_ms() -> f64 {
    BUF.with(|buf| {
        let mut v = buf.borrow_mut();
        let t = Instant::now();
        for _ in 0..ROUNDS {
            let mut x = 0x2545_F491_4F6C_DD1D_u64;
            for e in v.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *e = x;
            }
            v.sort_unstable();
            black_box(&mut *v);
        }
        t.elapsed().as_secs_f64() * 1e3
    })
}

/// `n` runs of the reference kernel, ms each.
pub fn probes(n: usize) -> Vec<f64> {
    (0..n).map(|_| probe_ms()).collect()
}

/// The factor that turns a time measured in a run into reference-speed
/// time: [`REF_MS`] over the median of the run's kernel times. `None`
/// without samples.
pub fn speed_factor(samples: &[f64]) -> Option<f64> {
    median(samples).map(|ms| REF_MS / ms.max(1e-9))
}
