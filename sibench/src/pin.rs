//! Pins the calling thread, and every thread and process it starts while
//! pinned, to one CPU.

/// Words of a `cpu_set_t`: room for 1024 CPUs.
const WORDS: usize = 16;
const MASK_BYTES: usize = WORDS * 8;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU affinity before it was pinned; dropping it
/// restores that affinity.
pub struct Pinned {
    saved: [u64; WORDS],
    pub cpu: usize,
}

impl Pinned {
    /// Pins the calling thread to the highest-numbered CPU it may run on.
    /// `None`, and nothing changed, when the affinity calls fail.
    pub fn last_cpu() -> Option<Pinned> {
        let mut saved = [0u64; WORDS];
        // SAFETY: `saved` is a writable buffer of `MASK_BYTES` bytes; pid 0
        // is the calling thread.
        if unsafe { sched_getaffinity(0, MASK_BYTES, saved.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..WORDS * 64)
            .rev()
            .find(|&c| saved[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of `MASK_BYTES` bytes.
        if unsafe { sched_setaffinity(0, MASK_BYTES, one.as_ptr()) } != 0 {
            return None;
        }
        Some(Pinned { saved, cpu })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: `saved` is a readable buffer of `MASK_BYTES` bytes,
        // filled by `sched_getaffinity`.
        unsafe { sched_setaffinity(0, MASK_BYTES, self.saved.as_ptr()) };
    }
}
