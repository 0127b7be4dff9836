//! CPU time of the whole benchmark process.
//!
//! The end-to-end metrics are CPU seconds, not wall seconds: on a virtual
//! machine whose host takes its virtual CPUs away for stretches of seconds
//! (steal time), the wall clock of the same job more than doubles from one
//! minute to the next, while the CPU time the kernel charges the process
//! leaves the stolen time out (Linux with paravirtual steal accounting).
//! Wall seconds are still recorded beside them.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the process CPU clock of 64-bit Linux");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux: CPU time of every thread of the
/// process, those that have exited included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// CPU seconds (user and system, all threads) the process has used so far.
pub fn process_cpu_s() -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `struct timespec`, and the clock
    // id is one Linux always supports.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// Wall and process CPU time since it started.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    wall: Instant,
    cpu_s: f64,
}

impl Clock {
    /// Starts both clocks.
    pub fn start() -> Self {
        Clock {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// Wall seconds since [`Clock::start`].
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Process CPU seconds since [`Clock::start`].
    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cpu_clock_counts_work() {
        // Other tests run in the same process, so only a lower bound holds.
        let clock = Clock::start();
        let mut x = 0u64;
        while clock.wall_s() < 0.1 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let worked = clock.cpu_s();
        assert!(worked > 0.02, "spinning for 0.1 s used {worked} s of CPU");
        assert!(clock.cpu_s() >= worked, "the clock went back");
    }
}
