//! What the benchmark reads off the host: core count, cache and memory
//! sizes, the process's peak resident set, and a STREAM-triad bandwidth
//! ceiling measured in the same run as the kernels it is compared with.

use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;
pub const GIB: f64 = 1024.0 * MIB;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// `"4096K"` / `"260M"` as sysfs prints cache sizes.
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, unit) = s.split_at(s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len()));
    let n: u64 = digits.parse().ok()?;
    match unit {
        "" => Some(n),
        "K" => Some(n << 10),
        "M" => Some(n << 20),
        "G" => Some(n << 30),
        _ => None,
    }
}

/// Size of the largest cache cpu0 reports, or `None` when sysfs says nothing.
pub fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("size")).ok())
        .filter_map(|s| parse_size(&s))
        .max()
}

/// The `kB` value of `key` in a `/proc` status-style file, in bytes.
fn proc_kb(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    let kb: u64 = line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb << 10)
}

pub fn mem_available_bytes() -> Option<u64> {
    proc_kb("/proc/meminfo", "MemAvailable:")
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn vm_hwm_mib() -> f64 {
    proc_kb("/proc/self/status", "VmHWM:").expect("VmHWM in /proc/self/status") as f64 / MIB
}

/// The size of each of the three triad arrays: four times the reported
/// last-level cache, at most a sixth of available memory (so the three
/// fill at most half of it).
pub fn triad_array_bytes(llc: u64, mem_available: u64) -> u64 {
    (4 * llc).min(mem_available / 6)
}

/// STREAM triad `a = b + s*c` over three arrays of `array_bytes` each,
/// once per entry of `thread_counts`: the arrays are split in contiguous
/// chunks over that many plain OS threads. Best of `passes` passes, in
/// GiB/s, counting the three arrays once per pass as STREAM does.
pub fn triad_gibs(thread_counts: &[usize], array_bytes: u64, passes: usize) -> Vec<f64> {
    let len = (array_bytes / 8) as usize;
    let (mut a, mut b, mut c) = (vec![0.0f64; len], vec![0.0f64; len], vec![0.0f64; len]);
    // First touch is the expensive part (fresh pages cost ~5 s per GiB
    // under this hypervisor), so every core shares it.
    let part = len.div_ceil(nproc());
    std::thread::scope(|s| {
        for ((a, b), c) in a.chunks_mut(part).zip(b.chunks_mut(part)).zip(c.chunks_mut(part)) {
            s.spawn(move || {
                a.fill(0.0);
                b.fill(1.0);
                c.fill(2.0);
            });
        }
    });
    let mut rate = |threads: usize| {
        let chunk = len.div_ceil(threads);
        let best = (0..passes)
            .map(|_| {
                let t0 = Instant::now();
                std::thread::scope(|s| {
                    for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk))
                    {
                        s.spawn(move || {
                            for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                                *a = *b + 3.0 * *c;
                            }
                        });
                    }
                });
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        std::hint::black_box(&a);
        3.0 * (len * 8) as f64 / best / GIB
    };
    thread_counts.iter().map(|&threads| rate(threads)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("4096K\n"), Some(4096 << 10));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("12Q"), None);
    }

    #[test]
    fn triad_arrays_are_four_llc_capped_by_memory() {
        assert_eq!(triad_array_bytes(32 << 20, 16 << 30), 128 << 20);
        assert_eq!(triad_array_bytes(260 << 20, 3 << 30), 512 << 20);
    }

    #[test]
    fn triad_reports_a_positive_rate() {
        assert!(triad_gibs(&[1, 2], 1 << 20, 2).iter().all(|&r| r > 0.0));
    }
}
