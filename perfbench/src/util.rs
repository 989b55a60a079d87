//! Small shared pieces: the run clock, seeded streams, digests,
//! percentiles and the process's peak resident memory.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Nanoseconds since one origin shared by every thread of a run, so driver,
/// writer and span timestamps compare directly.
#[derive(Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    pub fn start() -> Clock {
        Clock { origin: Instant::now() }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Wait until `ns`: sleep while more than `SPIN_NS` remains (a sleep
    /// can overshoot by tens of µs), then spin.
    pub fn sleep_until(&self, ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= ns {
                return;
            }
            if ns - now > SPIN_NS {
                std::thread::sleep(std::time::Duration::from_nanos(ns - now - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// How long a waiting load thread spins rather than sleeps.
pub const SPIN_NS: u64 = 200_000;

/// FNV-1a over bytes, chainable through `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// An independent generator for one named input stream of one seed.
pub fn stream(seed: u64, name: &str) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ fnv(FNV_OFFSET, name.as_bytes()))
}

/// Median of unsorted floats; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
