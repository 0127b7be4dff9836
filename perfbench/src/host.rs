//! Run metadata about the host: core count, CPU model and cache sizes.
//!
//! Everything comes from the standard library and the `cpuid` instruction,
//! so recording it reads no file.

/// What the benchmark records about the machine it ran on.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism()`; every parallel job runs this
    /// many threads.
    pub cores: usize,
    /// The CPU brand string, or `"unknown"`.
    pub cpu: String,
    /// Per-core L2 size in KiB (0 when unknown).
    pub l2_kib: u64,
    /// Shared L3 size in KiB (0 when unknown).
    pub l3_kib: u64,
}

impl Host {
    /// Probes the running host.
    pub fn probe() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (cpu, l2_kib, l3_kib) = cpu_info();
        Host {
            cores,
            cpu,
            l2_kib,
            l3_kib,
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_info() -> (String, u64, u64) {
    use std::arch::x86_64::{__cpuid, __cpuid_count};

    let brand = if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
        let mut bytes = Vec::with_capacity(48);
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            let r = __cpuid(leaf);
            for word in [r.eax, r.ebx, r.ecx, r.edx] {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
        }
        String::from_utf8_lossy(&bytes)
            .trim_matches(char::from(0))
            .trim()
            .to_string()
    } else {
        "unknown".to_string()
    };

    // Deterministic cache parameters (leaf 4): one sub-leaf per cache until
    // the type field reads 0.
    let (mut l2, mut l3) = (0, 0);
    if __cpuid(0).eax >= 4 {
        for sub in 0..16 {
            let r = __cpuid_count(4, sub);
            if r.eax & 0x1f == 0 {
                break;
            }
            let level = (r.eax >> 5) & 0x7;
            let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
            let partitions = u64::from((r.ebx >> 12) & 0x3ff) + 1;
            let line = u64::from(r.ebx & 0xfff) + 1;
            let sets = u64::from(r.ecx) + 1;
            let kib = ways * partitions * line * sets / 1024;
            match level {
                2 => l2 = kib,
                3 => l3 = kib,
                _ => {}
            }
        }
    }
    (brand, l2, l3)
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_info() -> (String, u64, u64) {
    ("unknown".to_string(), 0, 0)
}
