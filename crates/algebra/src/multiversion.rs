//! Run-time CPU dispatch: the one place this workspace leaves safe Rust.
//!
//! The release build targets baseline x86-64, which has no 64-bit SIMD
//! compare, so a loop LLVM could vectorize for the CPU it runs on stays
//! scalar. A [`Kernel`] states such a loop twice: `wide`, written so that
//! it vectorizes when AVX2 may be assumed, and `portable`, the definition
//! every other CPU and architecture runs. [`dispatch`] instantiates `wide`
//! inside a `#[target_feature]` function — plain safe Rust compiled with
//! more instructions allowed, no intrinsics — and calls it only where the
//! CPU reports those instructions.
//!
//! That call is the exemption from `#![deny(unsafe_code)]`, and the only
//! one: a second multiversioned kernel implements [`Kernel`] and goes
//! through [`dispatch`]; it needs no `unsafe` of its own
//! (`scripts/ci.sh` counts).

#![allow(unsafe_code)]

/// One loop in two bodies with one result. Implement both with
/// `#[inline(always)]`: `wide` takes its instruction set from the function
/// it is inlined into.
pub(crate) trait Kernel {
    type Out;
    /// The body for a CPU with AVX2, BMI1/2, POPCNT and LZCNT.
    fn wide(self) -> Self::Out;
    /// The body for every CPU.
    fn portable(self) -> Self::Out;
}

/// Whether [`dispatch`] runs `wide` on this CPU: every feature
/// `run_wide` is compiled with, as the CPU reports them (`std` caches
/// the answer; asking costs a load and a test).
#[cfg(target_arch = "x86_64")]
pub(crate) fn has_wide() -> bool {
    is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("bmi1")
        && is_x86_feature_detected!("bmi2")
        && is_x86_feature_detected!("popcnt")
        && is_x86_feature_detected!("lzcnt")
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn has_wide() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,bmi1,bmi2,popcnt,lzcnt")]
fn run_wide<K: Kernel>(kernel: K) -> K::Out {
    kernel.wide()
}

/// Run `kernel`: its `wide` body where the CPU allows, else `portable`.
#[inline]
pub(crate) fn dispatch<K: Kernel>(kernel: K) -> K::Out {
    #[cfg(target_arch = "x86_64")]
    if has_wide() {
        // SAFETY: `run_wide` is safe code whose only requirement is that
        // the CPU executes the instruction sets named in its
        // `target_feature` attribute, and `has_wide` has just checked
        // every one of them on the CPU this is running on.
        return unsafe { run_wide(kernel) };
    }
    kernel.portable()
}
