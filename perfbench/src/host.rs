//! The host fingerprint, the process's peak resident memory, and a counting
//! allocator for per-call heap bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps the system allocator with a monotonic allocated-bytes counter.
/// Frees are not subtracted, so the delta around a call is exactly the bytes
/// that call requested.
pub struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every operation is delegated verbatim to `System`; the counter is
// a relaxed atomic with no other side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes requested from the allocator so far, by every thread.
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Peak resident set size of this process in MB (10^6 bytes): the kernel's
/// high-water mark, the figure `/proc/self/status` shows as `VmHWM`.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
    // which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, correctly laid out `struct rusage`, and
    // RUSAGE_SELF (0) only writes into it.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss_kib as f64 * 1024.0 / 1e6
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    f64::NAN
}

/// CPU brand string from `cpuid`, or `unknown`.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Leaf 0x8000_0000 reports whether the brand-string leaves exist.
        let max = __cpuid(0x8000_0000).eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes);
            return s.trim_matches(char::from(0)).trim().to_string();
        }
    }
    "unknown".to_string()
}

fn simd_flags() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let f = |name: &str, on: bool| format!("{name} {}", if on { "yes" } else { "no" });
        [
            f("avx2", std::arch::is_x86_feature_detected!("avx2")),
            f("fma", std::arch::is_x86_feature_detected!("fma")),
            f("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ]
        .join(", ")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "non-x86".to_string()
    }
}

/// One line naming the host and the pinned thread counts of a run.
pub fn fingerprint(threads: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "host: nproc {nproc} | cpu {} | {} | threads {threads}",
        cpu_model(),
        simd_flags()
    )
}
