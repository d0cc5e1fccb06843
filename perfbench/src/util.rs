//! Small helpers: seed streams, CPU clocks, order statistics, and the
//! process's peak resident set.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The seed of one consumer of the workload seed (program generation,
/// edit choice, hover positions): the tag sits in the high half, so
/// consumers' streams stay apart for every small workload seed.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    seed ^ (tag << 32)
}

/// A generator for one consumer of the workload seed. Tags 1-6 and 100
/// seed the generated programs; 201 and up the clients and lookups.
pub fn stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, tag))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ms(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // the clock id is one of the constants the kernel defines.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
    } else {
        f64::NAN
    }
}

/// CPU time the calling thread has run, in ms. Unlike wall time it does
/// not grow while the hypervisor runs another guest on this CPU.
pub fn thread_cpu_ms() -> f64 {
    cpu_clock_ms(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time all of this process's threads have run, in ms.
pub fn process_cpu_ms() -> f64 {
    cpu_clock_ms(CLOCK_PROCESS_CPUTIME_ID)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How many samples lie strictly beyond the `q`-quantile — a tail
/// percentile is only reported as such with at least ten.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let cut = quantile(values, q);
    values.iter().filter(|v| **v > cut).count()
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
