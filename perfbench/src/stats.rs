//! Order statistics, memory and environment probes shared by the
//! workloads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty sample.
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

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Bytes of heap currently allocated through the global allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`] since the sampler last reset it.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with live-byte accounting: two relaxed atomic
/// updates per allocation, no other change in behaviour.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// statistics that never influence an allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Records the peak of live heap bytes in each one-second window on a
/// background thread. Resident memory (`VmRSS`, `VmHWM`) creeps upward
/// through a run as allocator arenas retain freed pages, by tens of
/// percent between identical sharded runs; the heap the program holds
/// live does not.
pub struct HeapSampler {
    stop: mpsc::Sender<()>,
    handle: std::thread::JoinHandle<Vec<usize>>,
}

impl HeapSampler {
    pub fn start() -> Self {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
        let (stop, stopped) = mpsc::channel::<()>();
        // The allocator keeps the peak itself, so the thread wakes only
        // to close a window (or to stop).
        let handle = std::thread::spawn(move || {
            let mut windows = Vec::new();
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(Duration::from_secs(1))
            {
                windows.push(PEAK.swap(LIVE.load(Ordering::Relaxed), Ordering::Relaxed));
            }
            windows.push(PEAK.load(Ordering::Relaxed));
            windows
        });
        Self { stop, handle }
    }

    /// Stops sampling; returns the median window peak in MiB and the
    /// number of windows.
    pub fn finish(self) -> (f64, usize) {
        let mb = self.finish_windows();
        (median(&mb), mb.len())
    }

    /// Stops sampling; returns each window's peak in MiB.
    pub fn finish_windows(self) -> Vec<f64> {
        // A send error means the thread already ended; join reports why.
        let _ = self.stop.send(());
        let windows = self.handle.join().expect("heap sampler thread");
        windows
            .iter()
            .map(|&b| b as f64 / (1024.0 * 1024.0))
            .collect()
    }
}

/// The source revision the benchmark measures: `BENCH_GIT_REV` if set,
/// else `git rev-parse` when the working directory is a git checkout's
/// root, else `"unknown"` (an exported checkout has no git metadata).
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("BENCH_GIT_REV") {
        return rev;
    }
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
