//! The host-speed probe: a fixed FP-vector loop read every few milliseconds
//! on a thread of its own, to show how much of a run the host spent in its
//! slow mode. Its readings are printed next to the figures and never enter
//! them (see README.md for why dividing by it was rejected).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::quantile;

/// Pause between two readings.
const PERIOD: Duration = Duration::from_millis(20);
/// A reading this much slower than the fast reading counts as slow mode.
const SLOW_RATIO: f64 = 1.3;
/// f32 lanes the loop sweeps; 8 KiB per array stays in L1.
const LANES: usize = 2048;
/// Sweeps per reading (about 60 us on a 2020s Xeon in its fast mode).
const SWEEPS: usize = 400;

pub struct HostProbe {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<f64>>,
}

/// What the probe saw over a run.
pub struct ProbeSummary {
    /// The 10th percentile of the readings, in microseconds.
    pub fast_us: f64,
    /// Share of readings slower than `SLOW_RATIO` times the fast reading.
    pub slow_share: f64,
    pub readings: usize,
}

impl HostProbe {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("perfbench-probe".into())
            .spawn(move || {
                let mut a = vec![1.0f32; LANES];
                let b = vec![1e-3f32; LANES];
                // Room for a 180 s run up front: a reallocation here would
                // land in the per-call allocation counts of the inference
                // paths.
                let mut readings = Vec::with_capacity(16 * 1024);
                while !flag.load(Ordering::Relaxed) {
                    readings.push(reading_us(&mut a, &b));
                    std::thread::sleep(PERIOD);
                }
                readings
            })
            .expect("spawn probe thread");
        HostProbe { stop, handle }
    }

    /// Stops the probe thread, waits for it, and summarises its readings.
    pub fn finish(self) -> ProbeSummary {
        self.stop.store(true, Ordering::Relaxed);
        let readings = self.handle.join().expect("probe thread panicked");
        let fast_us = quantile(&readings, 0.1);
        let slow = readings
            .iter()
            .filter(|&&r| r > SLOW_RATIO * fast_us)
            .count();
        ProbeSummary {
            fast_us,
            slow_share: slow as f64 / readings.len() as f64,
            readings: readings.len(),
        }
    }
}

impl ProbeSummary {
    pub fn line(&self) -> String {
        format!(
            "probe: fast reading {:.2} us | slow share {:.3} (readings > {SLOW_RATIO}x fast) | {} readings",
            self.fast_us, self.slow_share, self.readings
        )
    }
}

/// Microseconds for `SWEEPS` fused multiply-add sweeps over `a`.
fn reading_us(a: &mut [f32], b: &[f32]) -> f64 {
    let t = Instant::now();
    sweep(a, b);
    std::hint::black_box(&*a);
    t.elapsed().as_secs_f64() * 1e6
}

fn sweep(a: &mut [f32], b: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the CPU supports AVX2 and FMA, checked just above.
            unsafe { sweep_avx2(a, b) };
            return;
        }
    }
    for _ in 0..SWEEPS {
        for (x, y) in a.iter_mut().zip(b) {
            *x = *x * 0.999 + *y;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sweep_avx2(a: &mut [f32], b: &[f32]) {
    for _ in 0..SWEEPS {
        for (x, y) in a.iter_mut().zip(b) {
            *x = x.mul_add(0.999, *y);
        }
    }
}
