//! The host clock every timing uses: CPU time of this process (all its
//! threads), from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. Time the
//! machine spends running something else (another tenant, a descheduled
//! vCPU) does not count, which keeps figures steady on shared hosts.
//! With the default single worker (`GBU_THREADS=1`) all work runs on the
//! calling thread, so this is the time the work takes on an idle core.

/// A point on the host clock.
#[derive(Debug, Clone, Copy)]
pub struct HostTime(u64);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

impl HostTime {
    pub fn now() -> Self {
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on the 64-bit Linux targets this benchmark builds for),
        // and the clock id is a constant the kernel accepts.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        Self(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }

    /// Seconds of host time since `self`.
    pub fn elapsed_s(self) -> f64 {
        Self::now().0.saturating_sub(self.0) as f64 / 1e9
    }
}
