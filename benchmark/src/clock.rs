//! Thread CPU time, the clock iterations are measured with.
//!
//! The workloads are single-threaded, so the CPU time of the calling
//! thread is the simulator's host cost. Unlike wall time it leaves out
//! the time the thread waits for a core while other processes run,
//! which on a shared host is most of the run-to-run noise. Where the
//! CPU clock is unavailable, [`Stopwatch`] falls back to wall time and
//! [`name`] says so (result files record it, and `--compare` refuses to
//! mix clocks).

use std::time::Instant;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
fn thread_cpu_ns() -> Option<u64> {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, linked by std on Linux;
    // `ts` is a live, writable `timespec` for the whole call and the
    // function writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return None;
    }
    let secs = u64::try_from(ts.tv_sec).ok()?;
    let nanos = u64::try_from(ts.tv_nsec).ok()?;
    Some(secs * 1_000_000_000 + nanos)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> Option<u64> {
    None
}

/// `thread-cpu` when iterations are timed in thread CPU time, `wall`
/// when the platform offers no CPU clock.
pub fn name() -> &'static str {
    if thread_cpu_ns().is_some() {
        "thread-cpu"
    } else {
        "wall"
    }
}

/// Measures one interval in thread CPU time and in wall time.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: Option<u64>,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Stopwatch {
            cpu_ns: thread_cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// Thread CPU milliseconds since [`Stopwatch::start`] (wall
    /// milliseconds without a CPU clock).
    pub fn cpu_ms(&self) -> f64 {
        match (self.cpu_ns, thread_cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e6,
            _ => self.wall_ms(),
        }
    }

    /// Wall milliseconds since [`Stopwatch::start`].
    pub fn wall_ms(&self) -> f64 {
        self.wall.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_not_with_sleep() {
        let sw = Stopwatch::start();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let busy = sw.cpu_ms();
        assert!(busy > 0.0);
        std::thread::sleep(std::time::Duration::from_millis(30));
        if name() == "thread-cpu" {
            assert!(sw.cpu_ms() - busy < 20.0, "sleeping burns no CPU time");
            assert!(sw.wall_ms() >= 30.0);
        }
    }
}
