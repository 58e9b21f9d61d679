//! Pinning the process to one CPU.
//!
//! The `*_sync` workloads are chains of thread wake-ups: client → root →
//! server → root → client. On the two-vCPU virtual machines this
//! benchmark runs on, a wake-up that crosses CPUs costs an inter-processor
//! interrupt and a VM exit out of the idle CPU, several times what the
//! commit's own code costs, and whether the scheduler takes that path
//! changes every few seconds: the same binary reads 55 µs or 95 µs. That
//! is a property of the host, not of the code under test, so those
//! workloads (and the probes their cost model is built from) run on one
//! CPU, where every hand-off is a context switch of the same cost. The
//! two workloads that keep 16 transactions in flight are about
//! throughput and keep every CPU.
//!
//! The standard library can read the affinity mask but not set it, and
//! the build is offline (no `libc` crate), hence the two raw system
//! calls. On other targets pinning is skipped and reported as such.

/// Restores the affinity mask it replaced when dropped.
pub struct Pinned {
    restore: Option<imp::Mask>,
}

impl Pinned {
    /// Whether the process really runs on one CPU now.
    pub fn active(&self) -> bool {
        self.restore.is_some()
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(mask) = &self.restore {
            imp::set(mask);
        }
    }
}

/// Restricts this thread, and every thread it spawns from now on, to the
/// first CPU it is allowed on.
pub fn pin_to_one_cpu() -> Pinned {
    let restore = imp::get().filter(|all| imp::set(&imp::first_of(all)));
    Pinned { restore }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::arch::asm;

    /// Room for 1024 CPUs, the kernel's default `CONFIG_NR_CPUS` ceiling.
    pub type Mask = [u64; 16];

    #[cfg(target_arch = "x86_64")]
    const SCHED_SETAFFINITY: usize = 203;
    #[cfg(target_arch = "x86_64")]
    const SCHED_GETAFFINITY: usize = 204;
    #[cfg(target_arch = "aarch64")]
    const SCHED_SETAFFINITY: usize = 122;
    #[cfg(target_arch = "aarch64")]
    const SCHED_GETAFFINITY: usize = 123;

    /// `sched_{get,set}affinity(pid = 0, len, mask)`.
    ///
    /// # Safety
    /// `nr` must be one of the two affinity calls and `mask` must point
    /// to `len` bytes that stay valid (and, for the get call, writable)
    /// for the duration of the call.
    unsafe fn affinity_call(nr: usize, len: usize, mask: *mut u64) -> isize {
        let ret: isize;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Linux x86-64 system-call convention — number in
        // rax, arguments in rdi, rsi, rdx; the kernel clobbers rcx and
        // r11 and nothing else. The caller vouches for `mask`.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") 0usize,
                in("rsi") len,
                in("rdx") mask,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        #[cfg(target_arch = "aarch64")]
        // SAFETY: the Linux AArch64 system-call convention — number in
        // x8, arguments in x0..x2, result in x0. The caller vouches for
        // `mask`.
        unsafe {
            asm!(
                "svc 0",
                in("x8") nr,
                inlateout("x0") 0isize => ret,
                in("x1") len,
                in("x2") mask,
                options(nostack),
            );
        }
        ret
    }

    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live, writable local of exactly the length
        // passed.
        let ret = unsafe {
            affinity_call(
                SCHED_GETAFFINITY,
                std::mem::size_of::<Mask>(),
                mask.as_mut_ptr(),
            )
        };
        (ret > 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        let mut copy = *mask;
        // SAFETY: `copy` is a live local of exactly the length passed;
        // the set call only reads it.
        let ret = unsafe {
            affinity_call(
                SCHED_SETAFFINITY,
                std::mem::size_of::<Mask>(),
                copy.as_mut_ptr(),
            )
        };
        ret == 0
    }

    /// A mask holding only the lowest CPU of `all`.
    pub fn first_of(all: &Mask) -> Mask {
        let mut one: Mask = [0; 16];
        if let Some(word) = all.iter().position(|w| *w != 0) {
            one[word] = 1 << all[word].trailing_zeros();
        }
        one
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    pub type Mask = ();

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) -> bool {
        false
    }

    pub fn first_of(_: &Mask) -> Mask {}
}

#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;

    #[test]
    fn pins_then_restores() {
        let cpus = |m: &imp::Mask| m.iter().map(|w| w.count_ones()).sum::<u32>();
        let before = imp::get().expect("affinity readable");
        assert!(cpus(&before) >= 1);
        {
            let pinned = pin_to_one_cpu();
            assert!(pinned.active());
            assert_eq!(cpus(&imp::get().expect("readable")), 1);
            // A thread spawned while pinned inherits the mask.
            let inherited = std::thread::spawn(|| imp::get().expect("readable"))
                .join()
                .expect("thread");
            assert_eq!(cpus(&inherited), 1);
        }
        assert_eq!(imp::get().expect("readable"), before);
        let first = imp::first_of(&[0, 0b1100, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(first[1], 0b0100);
        assert_eq!(cpus(&first), 1);
    }
}
