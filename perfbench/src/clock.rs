//! The calling thread's CPU clock.
//!
//! `kernel-hot` and `stream-churn` run single-threaded sequential specs on
//! the calling thread, so its CPU time is their time to solution on an idle
//! CPU; `batch-cold` times the direct sequential runs that check its
//! pipelined outputs with it. Unlike wall time it leaves out time the hypervisor stole from the
//! virtual CPU (the kernel accounts steal separately) and time other
//! threads held it. On the shared 2-CPU host the benchmark was tuned on,
//! steal reached 16% of CPU time during some runs.
//!
//! The clock assumes all the work stays on the calling thread and never
//! blocks. [`Window`] checks both over a whole run: work on other threads,
//! or a caller off the CPU for more than half the run, makes it invalid.

use crate::Outcome;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time spent on other threads than the caller, as a share of the
/// caller's, above which the thread clock misses work: the run is invalid.
const OTHER_THREADS_LIMIT: f64 = 0.05;
/// Off-CPU share of wall time (steal, preemption, blocking) above which the
/// run is invalid.
const OFF_CPU_LIMIT: f64 = 0.5;

fn clock_secs(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux), and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU clocks are available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time the calling thread has used, in seconds.
pub fn thread_cpu_secs() -> f64 {
    clock_secs(CLOCK_THREAD_CPUTIME_ID)
}

/// Milliseconds of the calling thread's CPU time since `start` (a value of
/// [`thread_cpu_secs`]).
pub fn cpu_ms_since(start: f64) -> f64 {
    (thread_cpu_secs() - start) * 1e3
}

/// The wall, thread and process clocks at the start of a stretch timed with
/// the thread clock.
pub struct Window {
    wall: Instant,
    thread: f64,
    process: f64,
}

impl Window {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            thread: thread_cpu_secs(),
            process: clock_secs(CLOCK_PROCESS_CPUTIME_ID),
        }
    }

    /// Puts `clock.other_threads_frac` and `clock.offcpu_frac` in the
    /// report detail, and marks the run invalid when either is over its
    /// limit.
    pub fn finish(self, out: &mut Outcome) {
        let wall = self.wall.elapsed().as_secs_f64();
        let thread = thread_cpu_secs() - self.thread;
        let process = clock_secs(CLOCK_PROCESS_CPUTIME_ID) - self.process;
        let other = (process - thread).max(0.0) / thread.max(f64::MIN_POSITIVE);
        let off_cpu = (1.0 - thread / wall).max(0.0);
        out.detail.put("clock.other_threads_frac", other, "ratio");
        out.detail.put("clock.offcpu_frac", off_cpu, "ratio");
        if other > OTHER_THREADS_LIMIT {
            out.invalid.push(format!(
                "other threads used {:.0}% of the caller's CPU time, which the thread clock does not see",
                100.0 * other
            ));
        }
        if off_cpu > OFF_CPU_LIMIT {
            out.invalid.push(format!(
                "the caller was off the CPU for {:.0}% of the run",
                100.0 * off_cpu
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u128) {
        let wall = Instant::now();
        let mut x = 0u64;
        while wall.elapsed().as_millis() < ms {
            x = std::hint::black_box(x.wrapping_add(1));
        }
    }

    #[test]
    fn cpu_clock_counts_work_not_sleep() {
        let t = thread_cpu_secs();
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(cpu_ms_since(t) < 10.0);
        let t = thread_cpu_secs();
        spin(30);
        assert!(cpu_ms_since(t) > 15.0);
    }

    #[test]
    fn work_on_another_thread_or_blocking_makes_the_run_invalid() {
        // Tests run side by side, so only the positive cases are certain.
        let w = Window::start();
        spin(10);
        std::thread::spawn(|| spin(40)).join().unwrap();
        let mut out = Outcome::default();
        w.finish(&mut out);
        assert!(out.detail.get("clock.other_threads_frac").unwrap() > 1.0);
        assert!(!out.invalid.is_empty());

        let w = Window::start();
        spin(10);
        std::thread::sleep(std::time::Duration::from_millis(40));
        let mut out = Outcome::default();
        w.finish(&mut out);
        assert!(out.detail.get("clock.offcpu_frac").unwrap() > 0.5);
        assert!(!out.invalid.is_empty());
    }
}
