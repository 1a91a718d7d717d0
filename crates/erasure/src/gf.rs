//! Arithmetic in the finite field GF(2⁸).
//!
//! Elements are bytes; addition is XOR; multiplication is polynomial
//! multiplication modulo the primitive polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (`0x11d`), the polynomial conventionally used by
//! storage Reed-Solomon implementations. Multiplication and division are
//! table-driven: `EXP`/`LOG` tables are generated at compile time from the
//! generator element `2`, and a flat 64 KiB [`MUL`] product table (also
//! compile-time) backs the hot paths. The log/exp routines
//! ([`mul_logexp`], [`mul_acc_ref`]) are kept as the reference
//! implementation that the tables and property tests are checked against.
//!
//! The bulk [`mul_acc`] kernel additionally carries a split-nibble SIMD
//! path on x86-64 (the PSHUFB technique standard in storage Reed-Solomon
//! libraries): each byte's product is the XOR of two 16-entry table
//! lookups — one indexed by the low nibble, one by the high — and a
//! 16/32-wide byte shuffle performs all lookups of a register at once.
//! The nibble tables are compile-time constants; the scalar flat-table
//! loop remains both the portable fallback and the tail handler, and the
//! property tests pin every path to [`mul_acc_ref`] bit for bit.
//!
//! Every codec product — encode, decode, recovery — goes through one
//! matrix entry point, [`mat_mul`]. On x86-64 CPUs with GFNI and
//! AVX-512BW it runs a fused kernel: each 64-byte column block of every
//! source is loaded once, and each output row is written once as the XOR
//! of `GF2P8AFFINEQB` products, where multiplication by a scalar is an
//! 8×8 bit matrix taken from a compile-time table. Elsewhere (and for
//! products of more than 16 sources) it runs row at a time through
//! [`mul_acc`].

/// The primitive polynomial, with the x⁸ term included (`0x11d`).
pub const PRIMITIVE_POLY: u16 = 0x11d;

/// Order of the multiplicative group (number of non-zero elements).
pub const GROUP_ORDER: usize = 255;

/// `EXP[i] = 2^i` for `i` in `0..510`; doubled so that
/// `EXP[LOG[a] + LOG[b]]` never needs a modular reduction.
pub static EXP: [u8; 510] = build_exp();

/// `LOG[a]` is the discrete logarithm of `a` base `2`; `LOG[0]` is unused
/// (set to 0, never read because multiplication short-circuits on zero).
pub static LOG: [u8; 256] = build_log();

const fn build_exp() -> [u8; 510] {
    let mut table = [0u8; 510];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        table[i] = x as u8;
        table[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= PRIMITIVE_POLY;
        }
        i += 1;
    }
    table
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        table[exp[i] as usize] = i as u8;
        i += 1;
    }
    table
}

/// Flat 64 KiB multiplication table: `MUL[a][b] == a * b` in GF(2⁸).
///
/// `MUL[a]` is a contiguous 256-byte row, so the encode/decode inner loops
/// fetch one row per scalar and then index it per source byte — no
/// zero-checks, no log/exp double lookup, and the row stays resident in L1
/// for the whole slice.
pub static MUL: [[u8; 256]; 256] = build_mul();

const fn build_mul() -> [[u8; 256]; 256] {
    let exp = build_exp();
    let log = build_log();
    let mut table = [[0u8; 256]; 256];
    let mut a = 1usize;
    while a < 256 {
        let mut b = 1usize;
        while b < 256 {
            table[a][b] = exp[log[a] as usize + log[b] as usize];
            b += 1;
        }
        a += 1;
    }
    table
}

/// Split-nibble product tables for the SIMD kernel: for each scalar `s`,
/// `NIB_LO[s][x] == s * x` (products of the 16 possible low nibbles) and
/// `NIB_HI[s][x] == s * (x << 4)` (products of the 16 possible high
/// nibbles). Since GF(2⁸) multiplication distributes over XOR and any
/// byte is `(b & 0x0f) ^ (b & 0xf0)`, the full product is
/// `NIB_LO[s][b & 0x0f] ^ NIB_HI[s][b >> 4]` — two shuffle-sized lookups.
static NIB_LO: [[u8; 16]; 256] = build_nib(false);

/// High-nibble half of the split-product tables; see [`NIB_LO`].
static NIB_HI: [[u8; 16]; 256] = build_nib(true);

const fn build_nib(high: bool) -> [[u8; 16]; 256] {
    let mul = build_mul();
    let mut table = [[0u8; 16]; 256];
    let mut s = 0usize;
    while s < 256 {
        let mut x = 0usize;
        while x < 16 {
            table[s][x] = mul[s][if high { x << 4 } else { x }];
            x += 1;
        }
        s += 1;
    }
    table
}

/// Multiplication by each scalar as an 8×8 bit matrix over GF(2), in the
/// layout `GF2P8AFFINEQB` reads: output bit `i` of `s·x` is the parity of
/// `x` masked by byte `7 - i` of `AFFINE[s]`, so bit `j` of that byte is
/// bit `i` of `s·2ʲ`. Multiplication distributes over XOR, so the eight
/// columns `s·2ʲ` determine the product exactly — for this field's
/// polynomial, unlike the instruction set's own `GF2P8MULB` (which is
/// fixed to `0x11b`).
static AFFINE: [u64; 256] = build_affine();

const fn build_affine() -> [u64; 256] {
    let mul = build_mul();
    let mut table = [0u64; 256];
    let mut s = 0usize;
    while s < 256 {
        let mut m = 0u64;
        let mut i = 0;
        while i < 8 {
            let mut row = 0u64;
            let mut j = 0;
            while j < 8 {
                row |= (((mul[s][1 << j] >> i) & 1) as u64) << j;
                j += 1;
            }
            m |= row << (8 * (7 - i));
            i += 1;
        }
        table[s] = m;
        s += 1;
    }
    table
}

/// Most sources the fused [`mat_mul`] kernel combines in one pass; wider
/// products run row at a time through [`mul_acc`].
const FUSED_MAX_SOURCES: usize = 16;

/// Appends `coef.len() / k` rows of `len` bytes to `out`, where row `r`
/// is `Σ_c coef[r·k + c] · src(c)` over the `k` source rows. A source may
/// be shorter than `len`: it reads as zero past its end (the codec's
/// padded tail row). `coef` is row-major, `k` scalars per output row.
/// `out` grows only if its spare capacity is short; the codec sizes it
/// before the call, so the kernel itself allocates nothing.
///
/// Output bytes are written, not accumulated. On x86-64 CPUs with GFNI
/// and AVX-512BW, for up to 16 sources, a fused kernel writes each one
/// exactly once into `out`'s spare capacity, with no zero-fill first;
/// otherwise the rows are zeroed and accumulated with [`mul_acc`]. Both
/// tiers are exact, so their output is byte-identical.
///
/// # Panics
///
/// Panics if `k == 0`, if `coef.len()` is not a multiple of `k`, or if a
/// source is longer than `len`.
// lint:hot
pub fn mat_mul<'s>(
    out: &mut Vec<u8>,
    coef: &[u8],
    k: usize,
    len: usize,
    src: impl Fn(usize) -> &'s [u8],
) {
    assert!(
        k > 0 && coef.len().is_multiple_of(k),
        "mat_mul needs k > 0 scalars per output row"
    );
    #[cfg(target_arch = "x86_64")]
    if k <= FUSED_MAX_SOURCES && simd::mat_mul_fused(out, coef, k, len, &src) {
        return;
    }
    mat_mul_rows(out, coef, k, len, &src);
}

/// The portable tier of [`mat_mul`]: zero-extends `out` by the output
/// rows, then accumulates one (output row, source) pair at a time with
/// [`mul_acc`].
// lint:hot
fn mat_mul_rows<'s>(
    out: &mut Vec<u8>,
    coef: &[u8],
    k: usize,
    len: usize,
    src: &impl Fn(usize) -> &'s [u8],
) {
    let start = out.len();
    out.resize(start + coef.len() / k * len, 0);
    if len == 0 {
        return;
    }
    for (dst, scalars) in out[start..].chunks_exact_mut(len).zip(coef.chunks_exact(k)) {
        for (c, &s) in scalars.iter().enumerate() {
            let row = src(c);
            assert!(row.len() <= len, "mat_mul source longer than len");
            mul_acc(&mut dst[..row.len()], row, s);
        }
    }
}

/// Returns the 256-byte multiplication row for `scalar`:
/// `mul_row(s)[b] == s * b`.
///
/// Hot loops that apply one scalar to a whole slice should fetch the row
/// once and index it directly, as [`mul_acc`] does.
#[inline]
pub fn mul_row(scalar: u8) -> &'static [u8; 256] {
    &MUL[scalar as usize]
}

/// Adds two field elements. In GF(2⁸) addition and subtraction are both XOR.
#[inline]
pub const fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Subtracts `b` from `a`; identical to [`add`] in characteristic 2.
#[inline]
pub const fn sub(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplies two field elements (branch-free [`MUL`] table lookup).
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    MUL[a as usize][b as usize]
}

/// Multiplies two field elements via the log/exp tables.
///
/// Reference implementation for [`mul`]; kept for the property tests and
/// the recorded "before" benchmark baseline.
#[inline]
pub fn mul_logexp(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Divides `a` by `b`.
///
/// # Panics
///
/// Panics if `b == 0`; division by zero is undefined in a field.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(2^8)");
    if a == 0 {
        0
    } else {
        let diff = LOG[a as usize] as usize + GROUP_ORDER - LOG[b as usize] as usize;
        EXP[diff % GROUP_ORDER]
    }
}

/// Computes the multiplicative inverse of `a`.
///
/// # Panics
///
/// Panics if `a == 0`; zero has no inverse.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no multiplicative inverse in GF(2^8)");
    EXP[GROUP_ORDER - LOG[a as usize] as usize]
}

/// Raises `a` to the power `e` (with the convention `pow(0, 0) == 1`).
pub fn pow(a: u8, e: usize) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    // a = 2^LOG[a], so a^e = 2^(LOG[a]*e mod 255).
    let log = LOG[a as usize] as usize * (e % GROUP_ORDER);
    EXP[log % GROUP_ORDER]
}

/// Multiplies every byte of `src` by `scalar` and XORs the products into
/// `dst`: `dst[i] ^= scalar * src[i]`.
///
/// This is the inner loop of Reed-Solomon encoding and decoding.
/// `scalar == 1` degenerates to a word-wide XOR; on x86-64 with AVX2 or
/// SSSE3 the body runs the split-nibble shuffle kernel ([`NIB_LO`] /
/// [`NIB_HI`]), and everywhere else it fetches the 256-byte [`MUL`] row
/// for `scalar` once and runs a branch-free, 8-way-unrolled loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
// lint:hot
pub fn mul_acc(dst: &mut [u8], src: &[u8], scalar: u8) {
    assert_eq!(dst.len(), src.len(), "mul_acc slice length mismatch");
    if scalar == 0 {
        return;
    }
    if scalar == 1 {
        xor_slice(dst, src);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if simd::mul_acc_simd(dst, src, scalar) {
        return;
    }
    mul_acc_table(dst, src, scalar);
}

/// Whether [`mul_acc`] runs the split-nibble SIMD kernel on this CPU.
///
/// Callers that choose between loop structures (the codec's packed
/// gather versus [`mat_mul`]) use this to pick the layout that feeds the
/// faster kernel. Every CPU with the fused [`mat_mul`] kernel also has
/// the shuffle kernel, so `true` here covers both.
#[inline]
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2") || std::is_x86_feature_detected!("ssse3")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The portable flat-table body of [`mul_acc`] (non-trivial scalars);
/// also finishes the sub-register tail for the SIMD kernel.
// lint:hot
fn mul_acc_table(dst: &mut [u8], src: &[u8], scalar: u8) {
    let row = mul_row(scalar);
    let mut d_chunks = dst.chunks_exact_mut(8);
    let mut s_chunks = src.chunks_exact(8);
    for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
        // Gather the 8 products into one word so the accumulate is a
        // single load + XOR + store instead of 8 byte-wide read-modify-
        // writes.
        let products = u64::from_ne_bytes([
            row[s[0] as usize],
            row[s[1] as usize],
            row[s[2] as usize],
            row[s[3] as usize],
            row[s[4] as usize],
            row[s[5] as usize],
            row[s[6] as usize],
            row[s[7] as usize],
        ]);
        let dw = u64::from_ne_bytes(d.try_into().expect("chunk is 8 bytes"));
        d.copy_from_slice(&(dw ^ products).to_ne_bytes());
    }
    for (d, s) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        *d ^= row[*s as usize];
    }
}

/// XORs `src` into `dst` one machine word at a time (the `scalar == 1`
/// fast path of [`mul_acc`]; GF(2⁸) multiplication by 1 is the identity,
/// so the accumulate step is a plain XOR).
// lint:hot
fn xor_slice(dst: &mut [u8], src: &[u8]) {
    const W: usize = std::mem::size_of::<u64>();
    let mut d_chunks = dst.chunks_exact_mut(W);
    let mut s_chunks = src.chunks_exact(W);
    for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
        let dw = u64::from_ne_bytes(d.try_into().expect("chunk is W bytes"));
        let sw = u64::from_ne_bytes(s.try_into().expect("chunk is W bytes"));
        d.copy_from_slice(&(dw ^ sw).to_ne_bytes());
    }
    for (d, s) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        *d ^= *s;
    }
}

/// The x86-64 kernels: the split-nibble shuffle behind [`mul_acc`] and
/// the fused GFNI matrix product behind [`mat_mul`].
///
/// This module is the one place the crate steps outside safe Rust: both
/// techniques need the `std::arch` intrinsics, and the fused kernel
/// writes its output straight into a `Vec`'s spare capacity. The
/// unsafety is narrow and mechanical — unaligned or masked 16/32/64-byte
/// loads and stores inside bounds established by `chunks_exact` or by the
/// reserved capacity, plus `#[target_feature]` functions that are only
/// reached behind the matching runtime CPU feature check — and every
/// path is pinned bit-for-bit to [`mul_acc_ref`] by the property tests.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::{mul_acc_table, AFFINE, FUSED_MAX_SOURCES, NIB_HI, NIB_LO};
    use std::arch::x86_64::{
        __m128i, __m256i, __m512i, _mm256_and_si256, _mm256_broadcastsi128_si256,
        _mm256_loadu_si256, _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_srli_epi64,
        _mm256_storeu_si256, _mm256_xor_si256, _mm512_gf2p8affine_epi64_epi8, _mm512_loadu_si512,
        _mm512_mask_storeu_epi8, _mm512_maskz_loadu_epi8, _mm512_set1_epi64, _mm512_setzero_si512,
        _mm512_storeu_si512, _mm512_xor_si512, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi8,
        _mm_shuffle_epi8, _mm_srli_epi64, _mm_storeu_si128, _mm_xor_si128,
    };

    /// Affine matrices expanded per pass of the fused kernel: a pass
    /// covers `MATRICES / k` output rows (at least 8, as `k <= 16`), so
    /// every shape the codec runs on the paper's policies is one pass.
    const MATRICES: usize = 128;

    /// Whether this CPU runs the fused kernel. The feature checks are
    /// cached by the standard library: a few atomic loads per call.
    #[inline]
    pub fn fused_available() -> bool {
        std::is_x86_feature_detected!("gfni")
            && std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512bw")
    }

    /// Runs the fused GFNI tier of [`super::mat_mul`] when the CPU has
    /// it; returns `false` (leaving `out` untouched) otherwise so the
    /// caller falls back to the row-at-a-time tier.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or above [`FUSED_MAX_SOURCES`], if
    /// `coef.len()` is not a multiple of `k`, or if a source is longer
    /// than `len`.
    // lint:hot
    #[inline]
    pub fn mat_mul_fused<'s>(
        out: &mut Vec<u8>,
        coef: &[u8],
        k: usize,
        len: usize,
        src: &impl Fn(usize) -> &'s [u8],
    ) -> bool {
        if !fused_available() {
            return false;
        }
        assert!(
            (1..=FUSED_MAX_SOURCES).contains(&k) && coef.len().is_multiple_of(k),
            "fused mat_mul takes 1..=16 sources and whole coefficient rows"
        );
        let mut srcs: [&[u8]; FUSED_MAX_SOURCES] = [&[]; FUSED_MAX_SOURCES];
        for (c, s) in srcs.iter_mut().take(k).enumerate() {
            *s = src(c);
            assert!(s.len() <= len, "mat_mul source longer than len");
        }
        let total = (coef.len() / k)
            .checked_mul(len)
            .expect("mat_mul output size overflows usize");
        out.reserve(total);
        let base = out.len();
        macro_rules! dispatch {
            ($($k:literal)*) => {
                match k {
                    $(
                        // SAFETY: the features were verified above;
                        // `reserve` made `total` bytes of spare capacity
                        // start at `base`, which is exactly what the
                        // kernel writes (`coef.len() / k` rows of `len`
                        // bytes); each source is at most `len` bytes and
                        // the kernel reads no byte past its end.
                        $k => unsafe {
                            fused::<$k>(out.as_mut_ptr().add(base), &srcs, coef, len)
                        },
                    )*
                    _ => unreachable!("k checked against FUSED_MAX_SOURCES above"),
                }
            };
        }
        dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
        // SAFETY: the kernel initialized every byte of
        // `base..base + total`, which lies within the reserved capacity.
        unsafe { out.set_len(base + total) };
        true
    }

    /// Mask selecting the first `n` bytes of a 64-byte register.
    #[inline(always)]
    fn byte_mask(n: usize) -> u64 {
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    /// The fused product for `K` sources: for each 64-byte column block,
    /// loads the block of every source once, then writes each output row
    /// `r` at `dst + r·len` once, as the XOR of `K` affine products.
    ///
    /// Blocks are laid so that the first output row's stores are 64-byte
    /// aligned (a store split across cache lines costs about twice as
    /// much): a masked head block reaches the boundary, then whole blocks
    /// use plain loads and stores while every source covers them, and
    /// the rest use masked loads that read only each source's own bytes
    /// (zero beyond) and masked stores that stop at `len`.
    ///
    /// # Safety
    ///
    /// The CPU must support GFNI, AVX-512F and AVX-512BW; `dst` must be
    /// valid for writes of `coef.len() / K * len` bytes; `srcs[..K]` must
    /// each be at most `len` bytes; `coef.len()` must be a multiple of `K`.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    unsafe fn fused<const K: usize>(
        dst: *mut u8,
        srcs: &[&[u8]; FUSED_MAX_SOURCES],
        coef: &[u8],
        len: usize,
    ) {
        let covered = srcs[..K].iter().map(|s| s.len()).min().unwrap_or(0);
        let pass_rows = MATRICES / K;
        let mut mats = [0u64; MATRICES];
        for (pass, scalars) in coef.chunks(pass_rows * K).enumerate() {
            for (m, &s) in mats.iter_mut().zip(scalars) {
                *m = AFFINE[s as usize];
            }
            let mats = &mats[..scalars.len()];
            // SAFETY: this pass's rows start at row `pass · pass_rows`,
            // inside the caller's `coef.len() / K · len` bytes.
            let out = unsafe { dst.add(pass * pass_rows * len) };
            let mut x = [_mm512_setzero_si512(); K];
            // Peeling costs a block per row, so short rows skip it.
            let head = if len > 128 {
                (out as usize).wrapping_neg() % 64
            } else {
                0
            };
            let mut off = 0;
            if head > 0 {
                // SAFETY: `masked` stays within `off..len` of every row
                // and within each source's own bytes.
                unsafe { masked::<K>(&mut x, srcs, mats, out, len, 0, head) };
                off = head;
            }
            while off + 64 <= covered {
                for (xc, s) in x.iter_mut().zip(srcs) {
                    // SAFETY: `off + 64 <= covered <= s.len()`.
                    *xc = unsafe { _mm512_loadu_si512(s.as_ptr().add(off).cast()) };
                }
                // SAFETY: `off + 64 <= covered <= len`: the whole block of
                // every row of this pass is in bounds.
                unsafe { combine::<K>(&x, mats, out.add(off), len, u64::MAX) };
                off += 64;
            }
            while off < len {
                // SAFETY: as for the head block.
                unsafe { masked::<K>(&mut x, srcs, mats, out, len, off, 64) };
                off += 64;
            }
        }
    }

    /// One block of at most `width` bytes at `off`, through masks: each
    /// source contributes only its own bytes in `off..off + width` (zero
    /// beyond its end), and each row is written only in
    /// `off..min(off + width, len)`.
    ///
    /// # Safety
    ///
    /// As for [`fused`], with `out` the first row of the pass and `mats`
    /// holding `K` matrices per row of the pass; `off < len`.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    #[inline]
    unsafe fn masked<const K: usize>(
        x: &mut [__m512i; K],
        srcs: &[&[u8]; FUSED_MAX_SOURCES],
        mats: &[u64],
        out: *mut u8,
        len: usize,
        off: usize,
        width: usize,
    ) {
        for (xc, s) in x.iter_mut().zip(srcs) {
            // SAFETY: the mask enables only the bytes
            // `off..min(off + width, s.len())` of the source (none once
            // past its end); masked-off lanes are never accessed, so the
            // wrapped pointer is only dereferenced in bounds.
            *xc = unsafe {
                _mm512_maskz_loadu_epi8(
                    byte_mask(s.len().saturating_sub(off).min(width)),
                    s.as_ptr().wrapping_add(off).cast(),
                )
            };
        }
        // SAFETY: the store mask covers `off..min(off + width, len)` of
        // every row, inside the caller's buffer.
        unsafe {
            combine::<K>(
                x,
                mats,
                out.add(off),
                len,
                byte_mask((len - off).min(width)),
            )
        };
    }

    /// Writes one 64-byte block of each output row: row `r` gets
    /// `XOR_c affine(x[c], mats[r·K + c])` at `at + r·stride`, through
    /// `store` (all ones for a full block).
    ///
    /// # Safety
    ///
    /// The CPU must support GFNI, AVX-512F and AVX-512BW, and the bytes
    /// `store` selects at `at + r·stride` must be valid for writes for
    /// every row `r < mats.len() / K`.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    #[inline]
    unsafe fn combine<const K: usize>(
        x: &[__m512i; K],
        mats: &[u64],
        at: *mut u8,
        stride: usize,
        store: u64,
    ) {
        for (r, m) in mats.chunks_exact(K).enumerate() {
            let mut acc = _mm512_gf2p8affine_epi64_epi8::<0>(x[0], _mm512_set1_epi64(m[0] as i64));
            for c in 1..K {
                acc = _mm512_xor_si512(
                    acc,
                    _mm512_gf2p8affine_epi64_epi8::<0>(x[c], _mm512_set1_epi64(m[c] as i64)),
                );
            }
            // SAFETY: the caller guarantees the selected bytes of row `r`
            // are in bounds.
            unsafe {
                let p = at.add(r * stride);
                if store == u64::MAX {
                    _mm512_storeu_si512(p.cast(), acc);
                } else {
                    _mm512_mask_storeu_epi8(p.cast(), store, acc);
                }
            }
        }
    }

    /// Runs the widest available shuffle kernel; returns `false` when the
    /// CPU supports neither AVX2 nor SSSE3 so the caller falls back to
    /// the portable loop. The `is_x86_feature_detected!` result is
    /// cached by the standard library, so the per-call cost is one
    /// atomic load.
    // lint:hot
    #[inline]
    pub fn mul_acc_simd(dst: &mut [u8], src: &[u8], scalar: u8) -> bool {
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 feature was just verified at runtime.
            unsafe { mul_acc_avx2(dst, src, scalar) };
            return true;
        }
        if std::is_x86_feature_detected!("ssse3") {
            // SAFETY: the SSSE3 feature was just verified at runtime.
            unsafe { mul_acc_ssse3(dst, src, scalar) };
            return true;
        }
        false
    }

    /// A `mul_acc` tier: `(dst, src, scalar)`.
    #[cfg(test)]
    pub type MulAccTier = fn(&mut [u8], &[u8], u8);

    /// The shuffle tiers this CPU runs, behind safe wrappers, so tests can
    /// pin each one to the reference (dispatch only ever picks the widest).
    #[cfg(test)]
    pub fn mul_acc_tiers() -> Vec<(&'static str, MulAccTier)> {
        let mut tiers: Vec<(&'static str, MulAccTier)> = Vec::new();
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: listed only after AVX2 support was verified.
            tiers.push(("avx2", |d, s, c| unsafe { mul_acc_avx2(d, s, c) }));
        }
        if std::is_x86_feature_detected!("ssse3") {
            // SAFETY: listed only after SSSE3 support was verified.
            tiers.push(("ssse3", |d, s, c| unsafe { mul_acc_ssse3(d, s, c) }));
        }
        tiers
    }

    /// 32 bytes per iteration: both 16-entry nibble tables are broadcast
    /// to the two 128-bit lanes (PSHUFB shuffles within lanes), each
    /// source register is split into nibble indices, and the two
    /// shuffled product halves XOR together and into `dst`.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn mul_acc_avx2(dst: &mut [u8], src: &[u8], scalar: u8) {
        // SAFETY: the nibble tables are 16-byte rows, valid for an
        // unaligned 128-bit load.
        let (lo, hi) = unsafe {
            (
                _mm256_broadcastsi128_si256(_mm_loadu_si128(
                    NIB_LO[scalar as usize].as_ptr().cast::<__m128i>(),
                )),
                _mm256_broadcastsi128_si256(_mm_loadu_si128(
                    NIB_HI[scalar as usize].as_ptr().cast::<__m128i>(),
                )),
            )
        };
        let mask = _mm256_set1_epi8(0x0f);
        let mut d_chunks = dst.chunks_exact_mut(32);
        let mut s_chunks = src.chunks_exact(32);
        for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
            // SAFETY: `chunks_exact` guarantees `d` and `s` are exactly
            // 32 bytes, in bounds for unaligned 256-bit access.
            unsafe {
                let sv = _mm256_loadu_si256(s.as_ptr().cast::<__m256i>());
                let lo_idx = _mm256_and_si256(sv, mask);
                // The 64-bit lane shift drags bits across byte borders,
                // but the mask keeps only each byte's own high nibble.
                let hi_idx = _mm256_and_si256(_mm256_srli_epi64(sv, 4), mask);
                let prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo, lo_idx),
                    _mm256_shuffle_epi8(hi, hi_idx),
                );
                let dv = _mm256_loadu_si256(d.as_ptr().cast::<__m256i>());
                _mm256_storeu_si256(d.as_mut_ptr().cast::<__m256i>(), _mm256_xor_si256(dv, prod));
            }
        }
        mul_acc_table(d_chunks.into_remainder(), s_chunks.remainder(), scalar);
    }

    /// 16 bytes per iteration; the same kernel narrowed to SSE registers
    /// for pre-AVX2 hardware.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports SSSE3.
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_acc_ssse3(dst: &mut [u8], src: &[u8], scalar: u8) {
        // SAFETY: the nibble tables are 16-byte rows, valid for an
        // unaligned 128-bit load.
        let (lo, hi) = unsafe {
            (
                _mm_loadu_si128(NIB_LO[scalar as usize].as_ptr().cast::<__m128i>()),
                _mm_loadu_si128(NIB_HI[scalar as usize].as_ptr().cast::<__m128i>()),
            )
        };
        let mask = _mm_set1_epi8(0x0f);
        let mut d_chunks = dst.chunks_exact_mut(16);
        let mut s_chunks = src.chunks_exact(16);
        for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
            // SAFETY: `chunks_exact` guarantees `d` and `s` are exactly
            // 16 bytes, in bounds for unaligned 128-bit access.
            unsafe {
                let sv = _mm_loadu_si128(s.as_ptr().cast::<__m128i>());
                let lo_idx = _mm_and_si128(sv, mask);
                let hi_idx = _mm_and_si128(_mm_srli_epi64(sv, 4), mask);
                let prod =
                    _mm_xor_si128(_mm_shuffle_epi8(lo, lo_idx), _mm_shuffle_epi8(hi, hi_idx));
                let dv = _mm_loadu_si128(d.as_ptr().cast::<__m128i>());
                _mm_storeu_si128(d.as_mut_ptr().cast::<__m128i>(), _mm_xor_si128(dv, prod));
            }
        }
        mul_acc_table(d_chunks.into_remainder(), s_chunks.remainder(), scalar);
    }
}

/// Log/exp-table reference implementation of [`mul_acc`].
///
/// Byte-at-a-time with a zero check per source byte — exactly the loop the
/// codec shipped with before the flat-table rewrite. The property tests
/// assert `mul_acc` matches this for all scalars, and the benchmark
/// baseline records its throughput as the "before" number.
pub fn mul_acc_ref(dst: &mut [u8], src: &[u8], scalar: u8) {
    assert_eq!(dst.len(), src.len(), "mul_acc slice length mismatch");
    if scalar == 0 {
        return;
    }
    if scalar == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= *s;
        }
        return;
    }
    let log_s = LOG[scalar as usize] as usize;
    for (d, s) in dst.iter_mut().zip(src) {
        if *s != 0 {
            *d ^= EXP[log_s + LOG[*s as usize] as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_log_are_inverse_bijections() {
        for a in 1..=255u8 {
            assert_eq!(EXP[LOG[a as usize] as usize], a);
        }
        for i in 0..255usize {
            assert_eq!(LOG[EXP[i] as usize] as usize, i);
        }
    }

    #[test]
    fn exp_table_wraps_at_group_order() {
        for i in 0..255usize {
            assert_eq!(EXP[i], EXP[i + 255]);
        }
    }

    #[test]
    fn generator_has_full_order() {
        // 2 is primitive for 0x11d: powers 2^0..2^254 hit every non-zero
        // element exactly once.
        let mut seen = [false; 256];
        for i in 0..255usize {
            assert!(!seen[EXP[i] as usize], "2^{i} repeated");
            seen[EXP[i] as usize] = true;
        }
        assert!(!seen[0]);
    }

    #[test]
    fn mul_matches_schoolbook() {
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut p = 0u8;
            while b != 0 {
                if b & 1 != 0 {
                    p ^= a;
                }
                let carry = a & 0x80 != 0;
                a <<= 1;
                if carry {
                    a ^= (PRIMITIVE_POLY & 0xff) as u8;
                }
                b >>= 1;
            }
            p
        }
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), slow_mul(a, b), "mul({a},{b})");
            }
        }
    }

    #[test]
    fn mul_table_matches_logexp_reference() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul_logexp(a, b), "MUL[{a}][{b}]");
                assert_eq!(MUL[a as usize][b as usize], mul_logexp(a, b));
            }
        }
    }

    #[test]
    fn mul_row_is_table_row() {
        for s in 0..=255u8 {
            let row = mul_row(s);
            for b in 0..=255u8 {
                assert_eq!(row[b as usize], mul(s, b));
            }
        }
    }

    #[test]
    fn mul_acc_matches_reference_all_scalars() {
        // Lengths chosen to cross every kernel boundary: sub-register
        // (19), exactly one SSE/AVX register (16, 32), register chunks
        // plus an awkward tail (133), and a realistic row (1000) — each
        // with zeros sprinkled in.
        for len in [19usize, 16, 32, 133, 1000] {
            let src: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(37) % 251) as u8).collect();
            for scalar in 0..=255u8 {
                let mut fast = vec![0x5Au8; src.len()];
                let mut slow = fast.clone();
                mul_acc(&mut fast, &src, scalar);
                mul_acc_ref(&mut slow, &src, scalar);
                assert_eq!(fast, slow, "len={len} scalar={scalar}");
            }
        }
    }

    /// `mat_mul` spelled out with the log/exp reference: zero-extended
    /// sources, one `mul_acc_ref` per (output row, source) pair.
    fn mat_mul_reference(coef: &[u8], k: usize, len: usize, srcs: &[Vec<u8>]) -> Vec<u8> {
        let mut out = vec![0u8; coef.len() / k * len];
        for (r, scalars) in coef.chunks_exact(k).enumerate() {
            for (c, &s) in scalars.iter().enumerate() {
                let row = &srcs[c];
                mul_acc_ref(&mut out[r * len..r * len + row.len()], row, s);
            }
        }
        out
    }

    /// A `mat_mul` tier over owned source rows: `(out, coef, k, len, srcs)`.
    type Tier = fn(&mut Vec<u8>, &[u8], usize, usize, &[Vec<u8>]);

    /// Every `mat_mul` tier this CPU can run, by name; each appends to
    /// `out` like the entry point.
    fn mat_mul_tiers() -> Vec<(&'static str, Tier)> {
        let mut tiers: Vec<(&'static str, Tier)> = vec![
            ("entry", |out, coef, k, len, srcs| {
                mat_mul(out, coef, k, len, |c| &srcs[c])
            }),
            ("rows", |out, coef, k, len, srcs| {
                mat_mul_rows(out, coef, k, len, &|c| &srcs[c])
            }),
        ];
        #[cfg(target_arch = "x86_64")]
        if simd::fused_available() {
            tiers.push(("fused", |out, coef, k, len, srcs| {
                assert!(simd::mat_mul_fused(out, coef, k, len, &|c| &srcs[c]));
            }));
        }
        tiers
    }

    /// Checks every tier against the reference for one shape, appending
    /// behind a non-empty prefix that must survive untouched.
    fn check_mat_mul(coef: &[u8], k: usize, len: usize, srcs: &[Vec<u8>]) {
        let expect = mat_mul_reference(coef, k, len, srcs);
        for (name, tier) in mat_mul_tiers() {
            if name == "fused" && k > FUSED_MAX_SOURCES {
                continue;
            }
            let mut out = vec![0xA5u8; 3];
            tier(&mut out, coef, k, len, srcs);
            assert_eq!(&out[..3], &[0xA5; 3], "{name}: prefix kept");
            assert!(
                out[3..] == expect[..],
                "{name}: k={k} rows={} len={len}",
                coef.len() / k
            );
        }
    }

    fn pseudo_bytes(len: usize, seed: usize) -> Vec<u8> {
        (0..len)
            .map(|i| {
                (i.wrapping_mul(2654435761)
                    .wrapping_add(seed.wrapping_mul(97))
                    >> 7) as u8
            })
            .collect()
    }

    #[test]
    fn affine_matrices_multiply_exactly() {
        // Apply each matrix bit by bit, the way GF2P8AFFINEQB does.
        for s in 0..=255u8 {
            let m = AFFINE[s as usize];
            for x in 0..=255u8 {
                let mut y = 0u8;
                for i in 0..8 {
                    let row = (m >> (8 * (7 - i))) as u8;
                    y |= (((row & x).count_ones() & 1) as u8) << i;
                }
                assert_eq!(y, mul(s, x), "s={s} x={x}");
            }
        }
    }

    #[test]
    fn mat_mul_tiers_match_reference_across_lengths() {
        // Lengths straddle the 64-byte block: empty, one byte, one short
        // of a block, exactly one, one over, an odd multi-block length,
        // and a 100 KiB stripe row plus a ragged tail.
        for len in [0usize, 1, 63, 64, 65, 4097, 100 * 1024 + 3] {
            for (k, rows) in [(4usize, 8usize), (4, 4), (1, 1), (16, 3)] {
                let srcs: Vec<Vec<u8>> = (0..k).map(|c| pseudo_bytes(len, c)).collect();
                let coef: Vec<u8> = (0..k * rows).map(|i| (i * 29 + 3) as u8).collect();
                check_mat_mul(&coef, k, len, &srcs);
            }
        }
    }

    #[test]
    fn mat_mul_zero_extends_short_sources() {
        // Sources shorter than `len`, down to empty, read as zero past
        // their end — including inside a full block of the others.
        let len = 200;
        let srcs: Vec<Vec<u8>> = [200usize, 137, 64, 1, 0]
            .iter()
            .enumerate()
            .map(|(c, &l)| pseudo_bytes(l, c))
            .collect();
        let coef: Vec<u8> = (0..5 * 6).map(|i| (i * 53 + 7) as u8).collect();
        check_mat_mul(&coef, 5, len, &srcs);
    }

    #[test]
    fn mat_mul_falls_back_beyond_sixteen_sources() {
        let (k, len) = (17, 130);
        let srcs: Vec<Vec<u8>> = (0..k).map(|c| pseudo_bytes(len, c)).collect();
        let coef: Vec<u8> = (0..k * 3).map(|i| (i * 11 + 1) as u8).collect();
        check_mat_mul(&coef, k, len, &srcs);
    }

    #[test]
    #[should_panic(expected = "longer than len")]
    fn mat_mul_rejects_a_source_longer_than_len() {
        let src = [1u8; 10];
        mat_mul(&mut Vec::new(), &[3], 1, 9, |_| &src);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn mat_mul_tiers_match_reference(
            k in 1usize..=16,
            rows in 1usize..=16,
            len in 0usize..300,
            seed: u64,
        ) {
            let srcs: Vec<Vec<u8>> = (0..k).map(|c| pseudo_bytes(len, (seed as usize).wrapping_add(c))).collect();
            // Every coefficient matrix mixes in the special scalars 0 and 1.
            let coef: Vec<u8> = (0..k * rows)
                .map(|i| match (i as u64 ^ seed) % 5 {
                    0 => 0,
                    1 => 1,
                    _ => (seed >> (i % 56)) as u8 ^ i as u8,
                })
                .collect();
            check_mat_mul(&coef, k, len, &srcs);
        }
    }

    #[test]
    fn nib_tables_split_the_product() {
        // NIB_LO[s][b & 0x0f] ^ NIB_HI[s][b >> 4] must reassemble the
        // full MUL row for every scalar and byte.
        for s in 0..=255u8 {
            for b in 0..=255u8 {
                let split =
                    NIB_LO[s as usize][(b & 0x0f) as usize] ^ NIB_HI[s as usize][(b >> 4) as usize];
                assert_eq!(split, mul(s, b), "scalar={s} byte={b}");
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn mul_acc_shuffle_tiers_match_reference() {
        // Every shuffle width this CPU runs, not just the one dispatch
        // picks; 133 bytes leave a ragged tail for the table loop.
        let src: Vec<u8> = (0..133usize).map(|i| (i * 37 % 251) as u8).collect();
        for (name, tier) in simd::mul_acc_tiers() {
            for scalar in 0..=255u8 {
                let mut fast = vec![0x5Au8; src.len()];
                let mut slow = fast.clone();
                tier(&mut fast, &src, scalar);
                mul_acc_ref(&mut slow, &src, scalar);
                assert_eq!(fast, slow, "{name} scalar={scalar}");
            }
        }
    }

    #[test]
    fn mul_acc_table_fallback_matches_reference() {
        // The portable loop must stay correct on its own (it is the tail
        // handler and the non-x86 path), independent of SIMD dispatch.
        let src: Vec<u8> = (0..200usize).map(|i| (i * 7 % 253) as u8).collect();
        for scalar in [2u8, 29, 142, 255] {
            let mut fast = vec![0xC3u8; src.len()];
            let mut slow = fast.clone();
            mul_acc_table(&mut fast, &src, scalar);
            mul_acc_ref(&mut slow, &src, scalar);
            assert_eq!(fast, slow, "scalar={scalar}");
        }
    }

    #[test]
    fn xor_slice_handles_unaligned_lengths() {
        for len in 0..40usize {
            let src: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(13) ^ 0xA5).collect();
            let mut fast = vec![0x33u8; len];
            let expect: Vec<u8> = fast.iter().zip(&src).map(|(d, s)| d ^ s).collect();
            mul_acc(&mut fast, &src, 1);
            assert_eq!(fast, expect, "len={len}");
        }
    }

    #[test]
    fn div_inverts_mul() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                assert_eq!(div(mul(a, b), b), a, "({a}*{b})/{b}");
            }
        }
    }

    #[test]
    fn inv_is_multiplicative_inverse() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = div(7, 0);
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inv_of_zero_panics() {
        let _ = inv(0);
    }

    #[test]
    fn pow_basics() {
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
        assert_eq!(pow(1, 200), 1);
        for a in 1..=255u8 {
            assert_eq!(pow(a, 1), a);
            assert_eq!(pow(a, 2), mul(a, a));
            assert_eq!(pow(a, 255), 1, "Fermat: a^(q-1) = 1");
            assert_eq!(pow(a, 256), a, "a^q = a");
            assert_eq!(pow(a, 254), inv(a), "a^(q-2) = a^-1");
        }
    }

    #[test]
    fn mul_acc_accumulates() {
        let src = [1u8, 2, 3, 0, 255];
        let mut dst = [9u8, 9, 9, 9, 9];
        mul_acc(&mut dst, &src, 7);
        for i in 0..src.len() {
            assert_eq!(dst[i], 9 ^ mul(src[i], 7));
        }
    }

    #[test]
    fn mul_acc_scalar_zero_is_noop() {
        let src = [42u8; 8];
        let mut dst = [3u8; 8];
        mul_acc(&mut dst, &src, 0);
        assert_eq!(dst, [3u8; 8]);
    }

    #[test]
    fn mul_acc_scalar_one_is_xor() {
        let src = [0xAAu8; 4];
        let mut dst = [0xFFu8; 4];
        mul_acc(&mut dst, &src, 1);
        assert_eq!(dst, [0x55u8; 4]);
    }
}
