//! Small numeric helpers: quantiles, geometric means, seeded shuffles, and
//! the process's peak resident memory.

use om_prng::StdRng;

/// The `q` quantile of `values` (linear interpolation between closest
/// ranks). `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The geometric mean of positive `values`. `None` for an empty slice.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// A seeded permutation of `0..n`. Seed 0 is the identity: the
/// generators' own order.
pub fn permutation(n: usize, seed: u64, stream: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if seed == 0 {
        return order;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// Hands the heap memory the allocator holds free back to the kernel
/// (glibc's `malloc_trim`), so that a peak measured next reflects live data
/// and the phase's own working set, not what set-up left cached in the
/// allocator's arenas.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes a plain size, only returns the
        // allocator's own free pages to the kernel, and may be called at
        // any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS by
/// writing `5` to `/proc/self/clear_refs`. False where the kernel does not
/// support it, in which case [`peak_rss_mb`] must not be reported.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(quantile(&[0.0, 10.0], 0.9), Some(9.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn seed_zero_keeps_order_and_others_permute() {
        assert_eq!(permutation(5, 0, 1), vec![0, 1, 2, 3, 4]);
        let p = permutation(50, 7, 1);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(p, sorted);
        assert_eq!(p, permutation(50, 7, 1));
        assert_ne!(p, permutation(50, 7, 2));
    }
}
