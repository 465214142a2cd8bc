//! The one runtime dispatch between a kernel loop's compiled copies.
//!
//! The workspace builds for baseline x86-64, where a loop vectorizes two
//! `f64` lanes wide (SSE2). A loop that gains from wider vectors is written
//! once, as an `#[inline(always)]` body, and [`copies!`] compiles it three
//! times: for the baseline target, inside a `#[target_feature(enable =
//! "avx2")]` function, and inside a `#[target_feature(enable = "avx512f")]`
//! one. [`TABLE`] says which copy each loop runs, chosen by measurement, and
//! [`Isa::supported`] is the only feature test: a copy the CPU cannot run
//! falls back to the portable one. No build flag, `target-cpu`, feature or
//! env var selects a copy.
//!
//! Every copy is the same source. Rust never contracts a multiply and an
//! add into an FMA, so floating-point copies agree bit for bit; only the
//! lane count differs. Each kernel's tests pin its wide copy to its
//! portable one.

/// What a compiled copy of a loop is built for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// The baseline target: SSE2 on x86-64, whatever the target has
    /// elsewhere.
    Portable,
    /// x86-64 with AVX2: four `f64` lanes.
    Avx2,
    /// x86-64 with AVX-512F: eight `f64` lanes.
    Avx512f,
}

impl Isa {
    /// Whether this CPU can run the copy. `is_x86_feature_detected!`
    /// caches its answer, so this is one load per call.
    #[inline]
    pub fn supported(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => std::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Stable lowercase label: `"portable"`, `"avx2"` or `"avx512f"`.
    pub fn label(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
            Isa::Avx2 => "avx2",
            Isa::Avx512f => "avx512f",
        }
    }
}

/// The loops that have more than one compiled copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loop {
    /// Gaussian elimination's deferred panel flush (`gauss::eliminate_step`).
    GaussFlush,
    /// SOR's row update (`sor::update_row_into`).
    SorRow,
    /// Transitive closure's row OR (`bitmat::row_or`).
    BitRowOr,
}

impl Loop {
    /// Stable label, `kernel.loop`.
    pub fn label(self) -> &'static str {
        match self {
            Loop::GaussFlush => "gauss.flush",
            Loop::SorRow => "sor.row",
            Loop::BitRowOr => "bitmat.row_or",
        }
    }

    /// The copy [`TABLE`] gives this loop.
    pub const fn chosen(self) -> Isa {
        match self {
            Loop::GaussFlush => TABLE[0].1,
            Loop::SorRow => TABLE[1].1,
            Loop::BitRowOr => TABLE[2].1,
        }
    }

    /// The copy this loop runs on this CPU: its [`TABLE`] entry when the
    /// CPU supports it, the portable copy otherwise.
    pub fn running(self) -> Isa {
        let isa = self.chosen();
        if isa.supported() {
            isa
        } else {
            Isa::Portable
        }
    }
}

/// Which copy each loop runs when the CPU has its extension. Every entry
/// is a committed measurement on the 2-core AVX-512 host (DESIGN.md §3.4):
///
/// - `gauss.flush`: AVX-512F. Sequential n = 1024 solve 61.6–66.0 →
///   50.6–52.4 ms (`bench/runs/PR-28.md`).
/// - `sor.row`: AVX2. A sequential 64 × 64 phase runs faster on four
///   lanes than on eight, whose row is only eight vectors long
///   (`bench/runs/PR-34.md`).
/// - `bitmat.row_or`: AVX-512F. `kernels.tc_seq_ms` on the 4096-node
///   clique graph (`bench/runs/PR-34.md`).
pub const TABLE: [(Loop, Isa); 3] = [
    (Loop::GaussFlush, Isa::Avx512f),
    (Loop::SorRow, Isa::Avx2),
    (Loop::BitRowOr, Isa::Avx512f),
];

/// Defines `fn $name(isa, args…)`, which runs `$body(args…)` compiled for
/// `isa` when the CPU supports it ([`Isa::supported`]), and the portable
/// copy otherwise — so any `isa` is safe to pass. A kernel calls it with
/// its [`Loop::chosen`] entry; its tests call it with each [`Isa`].
/// `$body` must be `#[inline(always)]`, or the wide copies would call the
/// portable one.
macro_rules! copies {
    (
        $(#[$attr:meta])*
        fn $name:ident $(<$(const $k:ident: $kt:ty),*>)? ($($arg:ident: $ty:ty),* $(,)?) = $body:ident;
    ) => {
        $(#[$attr])*
        fn $name $(<$(const $k: $kt),*>)? (isa: $crate::simd::Isa, $($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                fn avx2 $(<$(const $k: $kt),*>)? ($($arg: $ty),*) {
                    $body $(::<$($k),*>)? ($($arg),*)
                }
                #[target_feature(enable = "avx512f")]
                fn avx512f $(<$(const $k: $kt),*>)? ($($arg: $ty),*) {
                    $body $(::<$($k),*>)? ($($arg),*)
                }
                if isa.supported() {
                    match isa {
                        // SAFETY: the CPU has AVX2 (`supported` above).
                        $crate::simd::Isa::Avx2 => return unsafe { avx2 $(::<$($k),*>)? ($($arg),*) },
                        // SAFETY: the CPU has AVX-512F (`supported` above).
                        $crate::simd::Isa::Avx512f => return unsafe { avx512f $(::<$($k),*>)? ($($arg),*) },
                        $crate::simd::Isa::Portable => {}
                    }
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = isa;
            $body $(::<$($k),*>)? ($($arg),*)
        }
    };
}
pub(crate) use copies;

/// Writes `test`'s note that the CPU lacks `isa`, so its wide copy was not
/// checked, straight to the stream (the test harness would swallow
/// `eprintln!`). Returns whether the CPU has `isa`.
#[cfg(test)]
pub(crate) fn check_or_say(isa: Isa, test: &str) -> bool {
    if isa.supported() {
        return true;
    }
    use std::io::Write;
    let _ = writeln!(
        std::io::stderr(),
        "{test}: this CPU lacks {}, the wide copy was NOT checked",
        isa.label()
    );
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lists_every_loop_once_and_chosen_reads_it() {
        let loops = [Loop::GaussFlush, Loop::SorRow, Loop::BitRowOr];
        for (i, l) in loops.into_iter().enumerate() {
            assert_eq!(TABLE[i].0, l, "TABLE order");
            assert_eq!(l.chosen(), TABLE[i].1);
            let running = l.running();
            assert!(running == l.chosen() || running == Isa::Portable);
            assert!(running.supported());
        }
        assert!(Isa::Portable.supported());
    }
}
