//! The SIMD-wide packed SIP datapath: 256 lanes per block, four plane words
//! wide.
//!
//! [`super::packed::BitplaneBlock`] holds one `u64` word per bit plane — at
//! the paper's 16-lane SIP geometry that leaves 48 of every 64 plane bits
//! idle. [`WideBitplaneBlock`] widens the block to [`WIDE_LANES`] (256) lanes
//! held as `[u64; 4]` plane words, so one AND + popcount evaluates sixteen
//! SIPs' worth of one-bit products at once. The arithmetic schedule is the
//! same weight-bit outer / activation-bit inner walk as
//! [`super::sip::serial_inner_product`], with the same two's-complement MSB
//! negations — only the order in which a plane pair's one-bit products are
//! summed changes, and integer addition is associative, so the result is
//! bit-identical to the serial model by construction (pinned by the property
//! suite in `tests/functional_equivalence.rs` across 1–256 lanes, ragged
//! tails, 1–16-bit precisions and all four signedness combinations).
//!
//! Five kernel tiers are dispatched at runtime on x86-64 (the fastest
//! detected tier is chosen once, into a process-wide [`KernelTier`]) and all
//! produce identical results:
//!
//! * **AVX-512 + `vpopcntdq`** — `_mm512_popcnt_epi64` counts a whole plane
//!   pair per instruction: two adjacent activation planes load with one
//!   512-bit read (the plane array is contiguous) and stay in registers for
//!   the whole product, each AND against the broadcast weight plane and
//!   popcounted per 64-bit lane into its own Horner accumulator;
//!   `_mm512_sllv_epi64` applies each half's plane shift once at the end.
//! * **AVX-512 (`avx512f` + `avx512bw`)** — the `vpshufb` nibble-lookup
//!   popcount at 512-bit width for parts without `vpopcntdq`: four
//!   activation planes fold into one `_mm512_sad_epu8` (two per load, byte
//!   counts combined as `c01 + 4·c23`), with per-half shifts applied by
//!   `_mm512_sllv_epi64`.
//! * **AVX2** — `_mm256_and_si256` + a `vpshufb` nibble-lookup popcount
//!   (`_mm256_sad_epu8` folds the byte counts into four lane sums that are
//!   shift-accumulated vector-wide, one horizontal reduction per weight bit).
//! * **`popcnt`** — four scalar `count_ones` per plane pair, compiled with
//!   the `popcnt` feature enabled.
//! * **portable** — the same loop on the baseline target, for non-x86 hosts.
//!
//! Packing is dispatched the same way, once per process: the AVX-512BW path
//! produces each 64-lane plane word with one `_mm512_test_epi8_mask`, the
//! AVX2 path transposes eight lanes per `_mm256_movemask_ps`, and the scalar
//! path goes bit by bit. All stop extracting planes at the block's magnitude
//! cutoff (every higher plane of a two's-complement value equals its sign,
//! so those planes are filled with the sign word directly) and record that
//! cutoff, which makes precision detection and the zero test O(1).

use loom_mem::compress::{CompressedPlanes, PlaneRef, PLANE_LANES, PLANE_WORDS};
use loom_model::fixed::{Precision, MAX_PRECISION};

/// Lanes per [`WideBitplaneBlock`]: four 64-bit plane words.
pub const WIDE_LANES: usize = 256;

/// Plane words per block (`WIDE_LANES / 64`).
pub const WIDE_WORDS: usize = WIDE_LANES / 64;

// The compressed format in loom-mem and the wide block here must agree on
// block geometry for the zero-copy plane handoff below.
const _: () = assert!(WIDE_LANES == PLANE_LANES && WIDE_WORDS == PLANE_WORDS);

/// Up to 256 lanes of operands, transposed into `[u64; 4]` words per bit
/// plane.
///
/// Bit `i % 64` of word `i / 64` of [`plane_words`](Self::plane_words)`(b)`
/// is bit `b` of lane `i`'s two's-complement encoding;
/// [`sign_words`](Self::sign_words) marks the negative lanes. Lanes beyond
/// [`lanes`](Self::lanes) pack as zeros and contribute nothing to any inner
/// product, which is how ragged tails (`lanes % 64 != 0`) are handled.
///
/// # Examples
///
/// ```
/// use loom_sim::loom::{wide_inner_product, WideBitplaneBlock};
/// use loom_sim::loom::reference_inner_product;
/// use loom_model::fixed::required_precision;
///
/// let weights: Vec<i32> = (0..200).map(|i| (i % 17) - 8).collect();
/// let activations: Vec<i32> = (0..200).map(|i| (i % 23) - 11).collect();
/// let w = WideBitplaneBlock::pack(&weights);
/// let a = WideBitplaneBlock::pack(&activations);
/// let dot = wide_inner_product(
///     &w,
///     &a,
///     required_precision(&weights),
///     required_precision(&activations),
///     true,
///     true,
/// );
/// assert_eq!(dot, reference_inner_product(&weights, &activations));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideBitplaneBlock {
    lanes: usize,
    planes: [[u64; WIDE_WORDS]; MAX_PRECISION as usize],
    signs: [u64; WIDE_WORDS],
    /// One past the highest non-empty magnitude plane (see
    /// [`magnitude_cutoff`]), recorded by the packer so detection and the
    /// zero test are O(1) instead of 16-plane scans.
    cutoff: u8,
}

impl WideBitplaneBlock {
    /// A block holding no lanes (all planes zero).
    pub const EMPTY: WideBitplaneBlock = WideBitplaneBlock {
        lanes: 0,
        planes: [[0; WIDE_WORDS]; MAX_PRECISION as usize],
        signs: [0; WIDE_WORDS],
        cutoff: 0,
    };

    /// Transposes `values` into wide bit-plane form.
    ///
    /// As with the narrow block, operands must be representable in 16-bit
    /// two's complement.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > 256`.
    pub fn pack(values: &[i32]) -> Self {
        let mut block = Self::EMPTY;
        block.pack_into(values);
        block
    }

    /// Re-packs the block in place from `values`, reusing the storage — the
    /// arena path the conv/FC pipelines use to avoid per-window allocation.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > 256`.
    pub fn pack_into(&mut self, values: &[i32]) {
        assert!(
            values.len() <= WIDE_LANES,
            "a WideBitplaneBlock holds at most {WIDE_LANES} lanes, got {}",
            values.len()
        );
        // SAFETY: `Packer::active` only selects packers detected on this CPU.
        unsafe { Packer::active().pack(self, values) }
    }

    /// Number of packed lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The four words holding bit `bit` of every lane.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 16`.
    pub fn plane_words(&self, bit: u8) -> &[u64; WIDE_WORDS] {
        &self.planes[usize::from(bit)]
    }

    /// The four words marking the negative lanes.
    pub fn sign_words(&self) -> &[u64; WIDE_WORDS] {
        &self.signs
    }

    /// The magnitude view of plane `bit` (bit differs from the lane's sign),
    /// as consumed by the precision detectors.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 16`.
    pub fn magnitude_words(&self, bit: u8) -> [u64; WIDE_WORDS] {
        let plane = &self.planes[usize::from(bit)];
        std::array::from_fn(|w| plane[w] ^ self.signs[w])
    }

    /// Whether every packed lane is zero (such a block contributes nothing to
    /// any inner product, so the engine skips it outright).
    pub fn is_zero(&self) -> bool {
        self.cutoff == 0 && self.signs == [0; WIDE_WORDS]
    }

    /// The smallest precision covering every packed lane: signed
    /// two's-complement width when `signed`, magnitude bits otherwise. Equals
    /// [`loom_model::fixed::required_precision`] /
    /// [`loom_model::fixed::required_unsigned_precision`] over the same
    /// values. The engine computes inner products at this width — every
    /// skipped higher plane is either all zeros or pure sign extension, and
    /// the narrower schedule is exactly what the serial model produces at the
    /// same precision.
    pub fn detected_precision(&self, signed: bool) -> Precision {
        precision_from_cutoff(self.cutoff, signed)
    }

    /// Reconstructs the packed values (inverse of [`pack`](Self::pack) for
    /// operands representable in 16-bit two's complement).
    pub fn unpack(&self) -> Vec<i32> {
        (0..self.lanes)
            .map(|lane| {
                let (word, bit) = (lane / 64, lane % 64);
                let mut v: u32 = 0;
                for plane in 0..MAX_PRECISION {
                    v |= ((self.planes[usize::from(plane)][word] >> bit & 1) as u32) << plane;
                }
                if self.signs[word] >> bit & 1 == 1 {
                    v |= !0u32 << MAX_PRECISION;
                }
                v as i32
            })
            .collect()
    }
}

/// Slot marker: the plane is all zeros (elided, contributes nothing).
const SLOT_ZERO: u8 = 0xff;
/// Slot marker: the plane equals the sign plane (pure sign extension).
const SLOT_SIGN: u8 = 0xfe;

/// A [`WideBitplaneBlock`] stored in the sparse compressed format of
/// [`loom_mem::compress`]: all-zero planes are elided, pure-sign-extension
/// planes resolve to the shared sign plane, and only the remaining planes are
/// materialised. The wide kernels consume this form directly — an elided
/// plane is skipped in the weight-bit loop (its contribution is exactly
/// zero), and a sign-extension plane reads the sign words, so every inner
/// product is bit-identical to the dense path on every kernel tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedWideBlock {
    inner: CompressedPlanes,
    /// Per-bit resolution LUT: [`SLOT_ZERO`], [`SLOT_SIGN`], or an index
    /// into the stored-plane array — one branchless lookup per weight bit.
    slots: [u8; MAX_PRECISION as usize],
    /// The dense block's magnitude cutoff, kept so detection stays O(1).
    cutoff: u8,
}

impl CompressedWideBlock {
    /// Compresses a dense block. Lossless: [`decompress`](Self::decompress)
    /// reproduces `block` exactly, including lanes and sign words.
    pub fn compress(block: &WideBitplaneBlock) -> Self {
        let inner = CompressedPlanes::from_dense(block.lanes, &block.planes, &block.signs);
        let mut slots = [SLOT_ZERO; MAX_PRECISION as usize];
        let mut next = 0u8;
        for (bit, slot) in slots.iter_mut().enumerate() {
            *slot = match inner.plane(bit as u8) {
                PlaneRef::Stored(_) => {
                    next += 1;
                    next - 1
                }
                PlaneRef::SignExtended => SLOT_SIGN,
                PlaneRef::Zero => SLOT_ZERO,
            };
        }
        CompressedWideBlock {
            inner,
            slots,
            cutoff: block.cutoff,
        }
    }

    /// Reconstructs the dense block, bit-identical to what
    /// [`compress`](Self::compress) consumed.
    pub fn decompress(&self) -> WideBitplaneBlock {
        let (planes, signs) = self.inner.to_dense();
        WideBitplaneBlock {
            lanes: self.inner.lanes(),
            planes,
            signs,
            cutoff: self.cutoff,
        }
    }

    /// Resolves weight plane `wb`: `None` when the plane is all zeros (the
    /// kernels skip it outright), otherwise the four plane words.
    #[inline(always)]
    fn plane(&self, wb: usize) -> Option<&[u64; WIDE_WORDS]> {
        match self.slots[wb] {
            SLOT_ZERO => None,
            SLOT_SIGN => Some(self.inner.signs()),
            index => Some(&self.inner.stored_planes()[usize::from(index)]),
        }
    }

    /// Number of packed lanes.
    pub fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    /// Whether every packed lane is zero (same contract as
    /// [`WideBitplaneBlock::is_zero`]).
    pub fn is_zero(&self) -> bool {
        self.cutoff == 0 && *self.inner.signs() == [0; WIDE_WORDS]
    }

    /// The smallest precision covering every packed lane — identical to
    /// [`WideBitplaneBlock::detected_precision`] on the dense block, read from
    /// the cutoff captured at compression time.
    pub fn detected_precision(&self, signed: bool) -> Precision {
        precision_from_cutoff(self.cutoff, signed)
    }

    /// The underlying compressed-plane storage (footprint accounting).
    pub fn planes(&self) -> &CompressedPlanes {
        &self.inner
    }

    /// Resident bytes of this block (headers + stored plane words).
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<CompressedPlanes>()
            + self.inner.resident_bytes()
    }
}

/// The weight operand of the wide kernels: either a dense block or a
/// compressed one. Both resolve per-bit plane words through
/// [`plane`](Self::plane); the dense arm always yields a plane, the
/// compressed arm yields `None` for elided all-zero planes so the kernels
/// skip them.
#[derive(Clone, Copy)]
enum WeightPlanes<'a> {
    Dense(&'a WideBitplaneBlock),
    Compressed(&'a CompressedWideBlock),
}

impl<'a> WeightPlanes<'a> {
    #[inline(always)]
    fn plane(self, wb: usize) -> Option<&'a [u64; WIDE_WORDS]> {
        match self {
            WeightPlanes::Dense(block) => Some(&block.planes[wb]),
            WeightPlanes::Compressed(block) => block.plane(wb),
        }
    }
}

/// Plane extraction cutoff: one past the highest plane (below 16) in which
/// some value differs from its own sign — the highest non-empty magnitude
/// plane — or 0 when every value reads 0 or −1 over 16 bits. Every plane at
/// or above the cutoff equals the sign plane, so packers fill those planes
/// from the sign words instead of extracting them, and the cutoff alone
/// decides the detected precision and the zero test.
#[inline(always)]
fn magnitude_cutoff(values: &[i32]) -> u8 {
    let mut fold: u32 = 0;
    for &v in values {
        fold |= (v ^ (v >> 31)) as u32;
    }
    (16 - (fold as u16).leading_zeros()) as u8
}

/// The precision a block with magnitude cutoff `cutoff` needs: the magnitude
/// bits plus the sign bit when `signed`, at least 1 and at most 16.
fn precision_from_cutoff(cutoff: u8, signed: bool) -> Precision {
    match cutoff {
        0 => Precision::saturating(1),
        bits => Precision::saturating(bits + u8::from(signed)),
    }
}

/// The transposers [`WideBitplaneBlock::pack_into`] dispatches across,
/// slowest to fastest. All produce identical blocks; the fastest detected
/// one is chosen once per process ([`Packer::active`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Packer {
    /// Bit by bit; always available.
    Scalar,
    /// Eight lanes per `_mm256_movemask_ps` — the fast path on AVX2-only
    /// hosts.
    Avx2,
    /// 64 lanes per `_mm512_test_epi8_mask` (`avx512f` + `avx512bw`).
    Avx512,
}

impl Packer {
    const ALL: [Packer; 3] = [Packer::Scalar, Packer::Avx2, Packer::Avx512];

    /// Whether the running CPU supports this packer.
    fn detected(self) -> bool {
        match self {
            Packer::Scalar => true,
            Packer::Avx2 => KernelTier::Avx2.detected(),
            Packer::Avx512 => KernelTier::Avx512.detected(),
        }
    }

    /// The fastest detected packer, chosen once per process.
    fn active() -> Packer {
        static PACKER: std::sync::OnceLock<Packer> = std::sync::OnceLock::new();
        *PACKER.get_or_init(|| {
            Packer::ALL
                .into_iter()
                .rev()
                .find(|packer| packer.detected())
                .unwrap_or(Packer::Scalar)
        })
    }

    /// Overwrites all of `block` with `values` transposed: each packer sets
    /// the lane count, the cutoff, the sign words and the planes below the
    /// cutoff, and every plane at or above the cutoff is the sign words.
    ///
    /// # Safety
    ///
    /// `self.detected()` must hold.
    unsafe fn pack(self, block: &mut WideBitplaneBlock, values: &[i32]) {
        match self {
            #[cfg(target_arch = "x86_64")]
            Packer::Avx512 => pack_avx512(block, values),
            #[cfg(target_arch = "x86_64")]
            Packer::Avx2 => pack_avx2(block, values),
            _ => pack_scalar(block, values),
        }
        for plane in usize::from(block.cutoff)..usize::from(MAX_PRECISION) {
            block.planes[plane] = block.signs;
        }
    }
}

/// Portable bit-by-bit transpose.
fn pack_scalar(block: &mut WideBitplaneBlock, values: &[i32]) {
    *block = WideBitplaneBlock {
        lanes: values.len(),
        cutoff: magnitude_cutoff(values),
        ..WideBitplaneBlock::EMPTY
    };
    for (lane, &v) in values.iter().enumerate() {
        let (word, bit) = (lane / 64, lane % 64);
        let u = v as u32;
        for plane in 0..usize::from(block.cutoff) {
            block.planes[plane][word] |= u64::from(u >> plane & 1) << bit;
        }
        block.signs[word] |= u64::from(v < 0) << bit;
    }
}

/// AVX2 transpose: eight lanes at a time via `_mm256_movemask_ps`, which
/// collects the sign bit of each 32-bit lane — shifting the target bit into
/// the sign position turns one movemask into eight transposed plane bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pack_avx2(block: &mut WideBitplaneBlock, values: &[i32]) {
    use std::arch::x86_64::*;
    *block = WideBitplaneBlock {
        lanes: values.len(),
        cutoff: magnitude_cutoff(values),
        ..WideBitplaneBlock::EMPTY
    };
    let cutoff = usize::from(block.cutoff);
    let mut chunk = 0usize;
    while chunk * 8 < values.len() {
        let base = chunk * 8;
        let v = if base + 8 <= values.len() {
            _mm256_loadu_si256(values.as_ptr().add(base).cast())
        } else {
            // Ragged tail: zero lanes pack as zeros, contributing nothing.
            let mut tail = [0i32; 8];
            tail[..values.len() - base].copy_from_slice(&values[base..]);
            _mm256_loadu_si256(tail.as_ptr().cast())
        };
        let (word, bit) = (base / 64, base % 64);
        block.signs[word] |= u64::from(_mm256_movemask_ps(_mm256_castsi256_ps(v)) as u32) << bit;
        for plane in 0..cutoff {
            let shifted = _mm256_sll_epi32(v, _mm_cvtsi32_si128((31 - plane) as i32));
            let bits = _mm256_movemask_ps(_mm256_castsi256_ps(shifted)) as u32;
            block.planes[plane][word] |= u64::from(bits) << bit;
        }
        chunk += 1;
    }
}

/// AVX-512BW transpose: one `_mm512_test_epi8_mask` per 64-lane plane word.
/// Each word's 64 lanes load as four registers of sixteen (the ragged tail
/// with `_mm512_maskz_loadu_epi32`, lanes past the end as zeros), give the
/// sign word through `_mm512_cmplt_epi32_mask`, and narrow to one register
/// of 64 low bytes ([`narrow_bytes_512`]) — and of 64 high bytes only when
/// the cutoff is above 8 — so testing it against `1 << b` yields that word of
/// plane `b`. Every word is written, so the block needs no clearing first.
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512bw`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn pack_avx512(block: &mut WideBitplaneBlock, values: &[i32]) {
    use std::arch::x86_64::*;
    block.lanes = values.len();
    block.cutoff = magnitude_cutoff(values);
    let cutoff = usize::from(block.cutoff);
    let zero = _mm512_setzero_si512();
    for word in 0..WIDE_WORDS {
        let base = word * 64;
        let lanes = [
            load_lanes_512(values, base),
            load_lanes_512(values, base + 16),
            load_lanes_512(values, base + 32),
            load_lanes_512(values, base + 48),
        ];
        let mut signs = 0u64;
        for (quarter, &v) in lanes.iter().enumerate() {
            signs |= u64::from(_mm512_cmplt_epi32_mask(v, zero)) << (quarter * 16);
        }
        block.signs[word] = signs;
        let low = narrow_bytes_512::<0>(&lanes);
        for plane in 0..cutoff.min(8) {
            block.planes[plane][word] = _mm512_test_epi8_mask(low, _mm512_set1_epi8(1 << plane));
        }
        if cutoff > 8 {
            let high = narrow_bytes_512::<8>(&lanes);
            for plane in 8..cutoff {
                block.planes[plane][word] =
                    _mm512_test_epi8_mask(high, _mm512_set1_epi8(1 << (plane - 8)));
            }
        }
    }
}

/// Loads lanes `base..base + 16` of `values`, zeros past the end.
///
/// # Safety
///
/// The CPU must support `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn load_lanes_512(values: &[i32], base: usize) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    match values.len().saturating_sub(base) {
        0 => _mm512_setzero_si512(),
        rest @ 1..=15 => _mm512_maskz_loadu_epi32((1 << rest) - 1, values.as_ptr().add(base)),
        _ => _mm512_loadu_si512(values.as_ptr().add(base).cast()),
    }
}

/// Byte `SHIFT / 8` of each of the 64 lanes in `lanes` (sixteen 32-bit lanes
/// per register), as 64 bytes in lane order. Two unsigned-saturating pack
/// steps narrow the masked bytes into one register, as four-lane groups
/// interleaved per 128-bit block, and one `vpermd` restores lane order —
/// four shuffles where four `_mm512_cvtepi32_epi8` and three inserts take
/// eleven shuffle-port micro-ops.
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512bw`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
unsafe fn narrow_bytes_512<const SHIFT: u32>(
    lanes: &[std::arch::x86_64::__m512i; 4],
) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    let byte = _mm512_set1_epi32(0xff);
    let mut masked = [_mm512_setzero_si512(); 4];
    for (masked, &v) in masked.iter_mut().zip(lanes) {
        *masked = _mm512_and_si512(_mm512_srli_epi32::<SHIFT>(v), byte);
    }
    let [a, b, c, d] = masked;
    let bytes = _mm512_packus_epi16(_mm512_packus_epi32(a, b), _mm512_packus_epi32(c, d));
    // Dword 4k + s now holds lanes 16s + 4k .. 16s + 4k + 4 of register s.
    let order = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
    _mm512_permutexvar_epi32(order, bytes)
}

/// The wide plane-pair loop shared by the portable and `popcnt` entry points:
/// the exact schedule of the narrow block's `product_core`, with each plane
/// pair evaluated as four AND + popcount word operations.
#[inline(always)]
fn wide_product_core(
    w: WeightPlanes<'_>,
    a: &WideBitplaneBlock,
    pw: usize,
    pa: usize,
    weights_signed: bool,
    activations_signed: bool,
) -> i64 {
    let pa_msb = pa - 1;
    let mut or_register = 0i64;
    for wb in 0..pw {
        // An elided all-zero weight plane contributes zero to every
        // accumulator (including the negated weight-MSB plane: -0 = 0), so
        // skipping it preserves bit-exactness at any precision pair.
        let Some(wp) = w.plane(wb) else { continue };
        let mut acc1 = 0i64;
        for (ab, ap) in a.planes[..pa].iter().enumerate() {
            let count = (wp[0] & ap[0]).count_ones()
                + (wp[1] & ap[1]).count_ones()
                + (wp[2] & ap[2]).count_ones()
                + (wp[3] & ap[3]).count_ones();
            acc1 += i64::from(count) << ab;
        }
        if activations_signed {
            let ap = &a.planes[pa_msb];
            let count = (wp[0] & ap[0]).count_ones()
                + (wp[1] & ap[1]).count_ones()
                + (wp[2] & ap[2]).count_ones()
                + (wp[3] & ap[3]).count_ones();
            acc1 -= i64::from(count) << (pa_msb + 1);
        }
        if weights_signed && wb == pw - 1 {
            acc1 = -acc1;
        }
        or_register += acc1 << wb;
    }
    or_register
}

/// [`wide_product_core`] compiled with the `popcnt` instruction enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn wide_product_popcnt(
    w: WeightPlanes<'_>,
    a: &WideBitplaneBlock,
    pw: usize,
    pa: usize,
    weights_signed: bool,
    activations_signed: bool,
) -> i64 {
    wide_product_core(w, a, pw, pa, weights_signed, activations_signed)
}

/// Sums the four `u64` lanes of an AVX2 register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn hsum_epi64(v: std::arch::x86_64::__m256i) -> i64 {
    use std::arch::x86_64::*;
    let lo = _mm256_castsi256_si128(v);
    let hi = _mm256_extracti128_si256::<1>(v);
    let sum = _mm_add_epi64(lo, hi);
    _mm_cvtsi128_si64(_mm_add_epi64(sum, _mm_unpackhi_epi64(sum, sum)))
}

/// AVX2 kernel: one 256-bit AND per plane pair, `vpshufb` nibble-lookup
/// popcount, and `_mm256_sad_epu8` byte folding. The four per-lane sums are
/// shift-accumulated vector-wide across activation planes *and* weight bits,
/// so a whole product pays only a handful of horizontal reductions at the
/// end (one per MSB-negation class).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn wide_product_avx2(
    w: WeightPlanes<'_>,
    a: &WideBitplaneBlock,
    pw: usize,
    pa: usize,
    weights_signed: bool,
    activations_signed: bool,
) -> i64 {
    use std::arch::x86_64::*;
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let zero = _mm256_setzero_si256();
    // Nibble-lookup popcount of `wp & ap` as per-byte counts (each ≤ 8). The
    // weight plane is pre-split into nibble halves once per weight bit
    // (`wp_lo` has high nibbles zeroed, so `wp_lo & ap` *is* the AND's low
    // nibbles), leaving one AND + shift + AND + two lookups per pair.
    macro_rules! pair_counts {
        ($wp_lo:expr, $wp_hi:expr, $ap:expr) => {{
            let ap = _mm256_loadu_si256($ap.as_ptr().cast());
            let lo = _mm256_and_si256($wp_lo, ap);
            let hi = _mm256_and_si256($wp_hi, _mm256_srli_epi32::<4>(ap));
            _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi))
        }};
    }
    let mut shifts = [_mm_setzero_si128(); MAX_PRECISION as usize];
    for (bit, shift) in shifts.iter_mut().enumerate() {
        *shift = _mm_cvtsi32_si128(bit as i32);
    }
    let pa_msb = pa - 1;
    // Everything accumulates in u64 vector lanes until one horizontal
    // reduction per accumulator at the very end; the weight-MSB plane (which
    // two's complement subtracts) and the activation-MSB corrections keep
    // their own accumulators so the negations apply after the reduction. The
    // bounds are comfortable: a lane's per-weight-bit sum is at most
    // 4 groups × 960 ≪ 2^13, shifted by ≤ 15 and summed over ≤ 16 weight
    // bits — under 2^42.
    let mut body = zero;
    let mut body_msb = zero;
    let mut wmsb = zero;
    let mut wmsb_msb = zero;
    let w_last = if weights_signed { pw - 1 } else { pw };
    for wb in 0..pw {
        // Elided all-zero weight planes contribute nothing to any
        // accumulator, so they are skipped before the load.
        let Some(plane) = w.plane(wb) else { continue };
        let wp = _mm256_loadu_si256(plane.as_ptr().cast());
        let wp_lo = _mm256_and_si256(wp, low_mask);
        let wp_hi = _mm256_and_si256(_mm256_srli_epi32::<4>(wp), low_mask);
        let mut acc = zero;
        let mut ab = 0usize;
        // Four activation planes share one `sad`: their byte counts combine
        // as c0 + 2·c1 + 4·c2 + 8·c3 (≤ 120, well inside a byte), so the
        // shift-accumulate collapses to one fold per four planes.
        while ab + 3 < pa {
            let c0 = pair_counts!(wp_lo, wp_hi, a.planes[ab]);
            let c1 = pair_counts!(wp_lo, wp_hi, a.planes[ab + 1]);
            let c2 = pair_counts!(wp_lo, wp_hi, a.planes[ab + 2]);
            let c3 = pair_counts!(wp_lo, wp_hi, a.planes[ab + 3]);
            let t = _mm256_add_epi8(_mm256_add_epi8(c3, c3), c2);
            let t = _mm256_add_epi8(_mm256_add_epi8(t, t), c1);
            let t = _mm256_add_epi8(_mm256_add_epi8(t, t), c0);
            let sums = _mm256_sad_epu8(t, zero);
            acc = _mm256_add_epi64(acc, _mm256_sll_epi64(sums, shifts[ab]));
            ab += 4;
        }
        while ab < pa {
            let sums = _mm256_sad_epu8(pair_counts!(wp_lo, wp_hi, a.planes[ab]), zero);
            acc = _mm256_add_epi64(acc, _mm256_sll_epi64(sums, shifts[ab]));
            ab += 1;
        }
        let acc = _mm256_sll_epi64(acc, shifts[wb]);
        if wb < w_last {
            body = _mm256_add_epi64(body, acc);
        } else {
            wmsb = _mm256_add_epi64(wmsb, acc);
        }
        if activations_signed {
            // The MSB activation plane is subtracted, not added: remove it
            // twice, exactly as the scalar cores do (recomputed here so the
            // hot loop stays branch-free).
            let msb = _mm256_sll_epi64(
                _mm256_sad_epu8(pair_counts!(wp_lo, wp_hi, a.planes[pa_msb]), zero),
                shifts[wb],
            );
            if wb < w_last {
                body_msb = _mm256_add_epi64(body_msb, msb);
            } else {
                wmsb_msb = _mm256_add_epi64(wmsb_msb, msb);
            }
        }
    }
    let mut positive = hsum_epi64(body);
    let mut negated = hsum_epi64(wmsb);
    if activations_signed {
        positive -= hsum_epi64(body_msb) << (pa_msb + 1);
        negated -= hsum_epi64(wmsb_msb) << (pa_msb + 1);
    }
    positive - negated
}

/// Broadcasts a 256-bit weight plane into both halves of a zmm register, so
/// one 512-bit AND pairs it against two adjacent activation planes at once.
/// (`_mm512_inserti64x4` needs only `avx512f`, unlike `_mm512_broadcast_i64x4`
/// which pulls in `avx512dq`.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn broadcast_plane_512(plane: &[u64; WIDE_WORDS]) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    let wp = _mm256_loadu_si256(plane.as_ptr().cast());
    _mm512_inserti64x4(_mm512_castsi256_si512(wp), wp, 1)
}

/// Loads activation planes `ab` and `ab + 1` with one 512-bit read. The
/// `planes` array is contiguous (`[[u64; 4]; 16]`), so adjacent planes are
/// adjacent in memory; the caller guarantees `ab + 1 < MAX_PRECISION`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn load_plane_pair_512(block: &WideBitplaneBlock, ab: usize) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    debug_assert!(ab + 1 < usize::from(MAX_PRECISION));
    _mm512_loadu_si512(
        block
            .planes
            .as_ptr()
            .cast::<u64>()
            .add(ab * WIDE_WORDS)
            .cast(),
    )
}

/// Loads activation plane `ab` into the low half of a zmm register, upper
/// half zeroed (odd-`pa` tails and the MSB correction plane).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn load_plane_single_512(
    block: &WideBitplaneBlock,
    ab: usize,
) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    _mm512_maskz_loadu_epi64(
        0x0f,
        block
            .planes
            .as_ptr()
            .cast::<u64>()
            .add(ab * WIDE_WORDS)
            .cast(),
    )
}

/// Per-pair shift vector for [`_mm512_sllv_epi64`]: lanes 0–3 shift by `ab`
/// (the first plane of the pair), lanes 4–7 by `ab + 1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn pair_shifts_512(ab: usize) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    let lo = ab as i64;
    _mm512_setr_epi64(lo, lo, lo, lo, lo + 1, lo + 1, lo + 1, lo + 1)
}

/// AVX-512 `vpshufb` kernel (`avx512f` + `avx512bw`): the AVX2 nibble-lookup
/// popcount at double width. Each 512-bit load covers two adjacent activation
/// planes; two loads (four planes) combine their byte counts as `c01 + 4·c23`
/// (≤ 40 per byte) before one `_mm512_sad_epu8`, and `_mm512_sllv_epi64`
/// applies each half's activation-plane shift so the accumulator structure —
/// `body` / `wmsb` plus the two activation-MSB correctors — matches
/// [`wide_product_avx2`] exactly.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn wide_product_avx512(
    w: WeightPlanes<'_>,
    a: &WideBitplaneBlock,
    pw: usize,
    pa: usize,
    weights_signed: bool,
    activations_signed: bool,
) -> i64 {
    use std::arch::x86_64::*;
    #[rustfmt::skip]
    let lut = _mm512_broadcast_i32x4(_mm_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    ));
    let low_mask = _mm512_set1_epi8(0x0f);
    let zero = _mm512_setzero_si512();
    // Byte-wise popcount of `wp & ap`, both nibble halves (same scheme as the
    // AVX2 kernel: `wp_lo` has high nibbles zeroed, so `wp_lo & ap` is the
    // AND's low nibbles).
    macro_rules! pair_counts {
        ($wp_lo:expr, $wp_hi:expr, $ap:expr) => {{
            let ap = $ap;
            let lo = _mm512_and_si512($wp_lo, ap);
            let hi = _mm512_and_si512($wp_hi, _mm512_srli_epi32::<4>(ap));
            _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo), _mm512_shuffle_epi8(lut, hi))
        }};
    }
    let mut wb_shifts = [_mm_setzero_si128(); MAX_PRECISION as usize];
    for (bit, shift) in wb_shifts.iter_mut().enumerate() {
        *shift = _mm_cvtsi32_si128(bit as i32);
    }
    let pa_msb = pa - 1;
    // Same overflow headroom argument as the AVX2 kernel: a sad lane sums
    // eight bytes of ≤ 40 (< 2^9), shifted by ≤ 15 and summed over ≤ 16
    // weight bits shifted by ≤ 15 — comfortably inside i64.
    let mut body = zero;
    let mut body_msb = zero;
    let mut wmsb = zero;
    let mut wmsb_msb = zero;
    let w_last = if weights_signed { pw - 1 } else { pw };
    for wb in 0..pw {
        // Elided all-zero weight planes are skipped before the broadcast.
        let Some(plane) = w.plane(wb) else { continue };
        let wz = broadcast_plane_512(plane);
        let wp_lo = _mm512_and_si512(wz, low_mask);
        let wp_hi = _mm512_and_si512(_mm512_srli_epi32::<4>(wz), low_mask);
        let mut acc = zero;
        let mut ab = 0usize;
        while ab + 3 < pa {
            let c01 = pair_counts!(wp_lo, wp_hi, load_plane_pair_512(a, ab));
            let c23 = pair_counts!(wp_lo, wp_hi, load_plane_pair_512(a, ab + 2));
            // c01 + 4·c23: half 0 carries planes ab and ab+2, half 1 carries
            // ab+1 and ab+3, each +2 plane folded in at byte level.
            let c23x2 = _mm512_add_epi8(c23, c23);
            let t = _mm512_add_epi8(c01, _mm512_add_epi8(c23x2, c23x2));
            let sums = _mm512_sad_epu8(t, zero);
            acc = _mm512_add_epi64(acc, _mm512_sllv_epi64(sums, pair_shifts_512(ab)));
            ab += 4;
        }
        while ab < pa {
            let (ap, step) = if ab + 1 < pa {
                (load_plane_pair_512(a, ab), 2)
            } else {
                (load_plane_single_512(a, ab), 1)
            };
            let sums = _mm512_sad_epu8(pair_counts!(wp_lo, wp_hi, ap), zero);
            acc = _mm512_add_epi64(acc, _mm512_sllv_epi64(sums, pair_shifts_512(ab)));
            ab += step;
        }
        let acc = _mm512_sll_epi64(acc, wb_shifts[wb]);
        if wb < w_last {
            body = _mm512_add_epi64(body, acc);
        } else {
            wmsb = _mm512_add_epi64(wmsb, acc);
        }
        if activations_signed {
            let msb = _mm512_sll_epi64(
                _mm512_sad_epu8(
                    pair_counts!(wp_lo, wp_hi, load_plane_single_512(a, pa_msb)),
                    zero,
                ),
                wb_shifts[wb],
            );
            if wb < w_last {
                body_msb = _mm512_add_epi64(body_msb, msb);
            } else {
                wmsb_msb = _mm512_add_epi64(wmsb_msb, msb);
            }
        }
    }
    let mut positive = _mm512_reduce_add_epi64(body);
    let mut negated = _mm512_reduce_add_epi64(wmsb);
    if activations_signed {
        positive -= _mm512_reduce_add_epi64(body_msb) << (pa_msb + 1);
        negated -= _mm512_reduce_add_epi64(wmsb_msb) << (pa_msb + 1);
    }
    positive - negated
}

/// AVX-512 `vpopcntdq` kernel: `_mm512_popcnt_epi64` counts each 64-bit lane
/// of the AND directly — no nibble lookup, no byte folding. The activation
/// planes stay in registers for the whole call: the ⌈pa/2⌉ adjacent plane
/// pairs load once (one 512-bit read each; an odd `pa`'s last pair is a
/// single plane with its upper half zero), and each weight bit costs one
/// broadcast plus, per pair, an AND, a popcount and a Horner step into that
/// pair's own accumulator (see [`vpopcnt_pass`]). The weight-MSB bit, which
/// two's complement subtracts, runs first as a pass of its own through the
/// same loop and seeds the body pass negated, so no weight bit branches on
/// its position. After the loop each pair's plane shifts ([`pair_shifts_512`])
/// apply once, and the activation-MSB plane, which two's complement also
/// subtracts, is negated in its half of the last pair. The passes are
/// monomorphised over the pair count (1..=8), which keeps up to eight
/// activation pairs and eight accumulators register-resident.
///
/// Overflow headroom: a lane's popcount is at most 64, so a pair
/// accumulator's lane stays below 64 · 2^16 = 2^22 in magnitude after ≤ 16
/// Horner steps; the pair shift (≤ 15) and the sum over ≤ 8 pairs and 8
/// lanes keep the total below 2^43 — comfortably inside i64.
///
/// Kept as a separate function (not a const-generic switch) so
/// `avx512vpopcntdq` codegen never reaches parts that only detect
/// `avx512f`/`avx512bw`.
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512vpopcntdq`, and `pw`, `pa`
/// must lie in 1..=16.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn wide_product_avx512_vpopcnt(
    w: WeightPlanes<'_>,
    a: &WideBitplaneBlock,
    pw: usize,
    pa: usize,
    weights_signed: bool,
    activations_signed: bool,
) -> i64 {
    macro_rules! pairs {
        ($($n:literal)*) => {
            match pa.div_ceil(2) {
                $($n => vpopcnt_product::<$n>(w, a, pw, pa, weights_signed, activations_signed),)*
                _ => unreachable!("activation precision {pa} outside 1..=16"),
            }
        };
    }
    pairs!(1 2 3 4 5 6 7 8)
}

/// [`wide_product_avx512_vpopcnt`] at a fixed pair count `PAIRS = ⌈pa/2⌉`.
///
/// # Safety
///
/// As for [`wide_product_avx512_vpopcnt`], with `PAIRS == pa.div_ceil(2)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
#[inline]
unsafe fn vpopcnt_product<const PAIRS: usize>(
    w: WeightPlanes<'_>,
    a: &WideBitplaneBlock,
    pw: usize,
    pa: usize,
    weights_signed: bool,
    activations_signed: bool,
) -> i64 {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_si512();
    let mut acts = [zero; PAIRS];
    for (pair, ap) in acts.iter_mut().enumerate() {
        *ap = if 2 * pair + 1 < pa {
            load_plane_pair_512(a, 2 * pair)
        } else {
            load_plane_single_512(a, 2 * pair)
        };
    }
    // The weight-MSB bit (which two's complement subtracts) runs first and
    // seeds the body pass negated; the body's Horner doublings then give it
    // its 2^(pw-1) weight.
    let w_last = if weights_signed { pw - 1 } else { pw };
    let mut acc = vpopcnt_pass(w, &acts, w_last..pw, [zero; PAIRS]);
    for acc in &mut acc {
        *acc = _mm512_sub_epi64(zero, *acc);
    }
    let acc = vpopcnt_pass(w, &acts, 0..w_last, acc);
    let mut total = zero;
    for (pair, acc) in acc.iter().enumerate() {
        let mut sum = _mm512_sllv_epi64(*acc, pair_shifts_512(2 * pair));
        if activations_signed && pair == PAIRS - 1 {
            // Plane pa − 1 sits in the low half of the last pair when pa is
            // odd, in the high half when it is even.
            let msb_half: __mmask8 = if pa % 2 == 1 { 0x0f } else { 0xf0 };
            sum = _mm512_mask_sub_epi64(sum, msb_half, zero, sum);
        }
        total = _mm512_add_epi64(total, sum);
    }
    _mm512_reduce_add_epi64(total)
}

/// One pass of [`vpopcnt_product`] over the weight bits `bits`, Horner
/// style from the highest bit down: each bit doubles every pair's
/// accumulator, then adds `popcount(w_wb & pair)` per 64-bit lane. The
/// result is `seed · 2^len + Σ popcount(w_wb & pair) · 2^(wb − start)` —
/// no per-bit shift at all.
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512vpopcntdq`, and every bit in
/// `bits` must be below 16.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
#[inline]
unsafe fn vpopcnt_pass<const PAIRS: usize>(
    w: WeightPlanes<'_>,
    acts: &[std::arch::x86_64::__m512i; PAIRS],
    bits: std::ops::Range<usize>,
    mut acc: [std::arch::x86_64::__m512i; PAIRS],
) -> [std::arch::x86_64::__m512i; PAIRS] {
    use std::arch::x86_64::*;
    for wb in bits.rev() {
        for acc in &mut acc {
            *acc = _mm512_add_epi64(*acc, *acc);
        }
        // An elided all-zero weight plane only doubles.
        let Some(plane) = w.plane(wb) else { continue };
        let wz = broadcast_plane_512(plane);
        for (acc, &ap) in acc.iter_mut().zip(acts) {
            *acc = _mm512_add_epi64(*acc, _mm512_popcnt_epi64(_mm512_and_si512(wz, ap)));
        }
    }
    acc
}

/// The kernel tiers [`wide_inner_product`] dispatches across, slowest to
/// fastest. All tiers compute bit-identical results; the fastest detected one
/// is selected once per process ([`active_kernel_tier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTier {
    /// The plain Rust plane-pair loop; always available.
    Portable,
    /// [`Portable`](Self::Portable) compiled with scalar `popcnt` enabled.
    Popcnt,
    /// 256-bit `vpshufb` nibble-lookup popcount.
    Avx2,
    /// 512-bit `vpshufb` nibble-lookup popcount (`avx512f` + `avx512bw`).
    Avx512,
    /// 512-bit `vpopcntdq` per-lane popcount (`avx512f` + `avx512vpopcntdq`).
    Avx512Vpopcnt,
}

/// Every tier, slowest to fastest (the order dispatch prefers, reversed).
pub const KERNEL_TIERS: [KernelTier; 5] = [
    KernelTier::Portable,
    KernelTier::Popcnt,
    KernelTier::Avx2,
    KernelTier::Avx512,
    KernelTier::Avx512Vpopcnt,
];

impl KernelTier {
    /// Stable lower-case name (used in bench JSON and logs).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Portable => "portable",
            KernelTier::Popcnt => "popcnt",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
            KernelTier::Avx512Vpopcnt => "avx512-vpopcnt",
        }
    }

    /// Whether the running CPU supports this tier.
    pub fn detected(self) -> bool {
        match self {
            KernelTier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Popcnt => std::arch::is_x86_feature_detected!("popcnt"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
            }
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512Vpopcnt => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// The tier [`wide_inner_product`] uses on this machine: the fastest detected
/// one, chosen once per process.
pub fn active_kernel_tier() -> KernelTier {
    static TIER: std::sync::OnceLock<KernelTier> = std::sync::OnceLock::new();
    *TIER.get_or_init(|| {
        KERNEL_TIERS
            .into_iter()
            .rev()
            .find(|tier| tier.detected())
            .unwrap_or(KernelTier::Portable)
    })
}

/// Runtime-detected CPU features relevant to the wide kernels, for bench
/// provenance reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct CpuFeatures {
    pub popcnt: bool,
    pub avx2: bool,
    pub avx512f: bool,
    pub avx512bw: bool,
    pub avx512vpopcntdq: bool,
}

/// Detects the wide-kernel CPU features on the running machine (all `false`
/// off x86-64).
pub fn cpu_features() -> CpuFeatures {
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            popcnt: std::arch::is_x86_feature_detected!("popcnt"),
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            avx512f: std::arch::is_x86_feature_detected!("avx512f"),
            avx512bw: std::arch::is_x86_feature_detected!("avx512bw"),
            avx512vpopcntdq: std::arch::is_x86_feature_detected!("avx512vpopcntdq"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        CpuFeatures {
            popcnt: false,
            avx2: false,
            avx512f: false,
            avx512bw: false,
            avx512vpopcntdq: false,
        }
    }
}

/// Computes the inner product of two wide blocks exactly the way
/// [`super::sip::serial_inner_product`] does — the same weight-bit outer /
/// activation-bit inner schedule, the same MSB negations — with each plane
/// pair evaluated 256 lanes at a time. Dispatches once per process to the
/// fastest detected [`KernelTier`] — AVX-512 (`vpopcntdq` or `vpshufb`),
/// AVX2, the `popcnt`-enabled scalar kernel, or the portable loop; all
/// tiers are bit-identical.
///
/// The blocks may have different lane counts: missing lanes pack as zero
/// planes and contribute nothing.
pub fn wide_inner_product(
    weights: &WideBitplaneBlock,
    activations: &WideBitplaneBlock,
    pw: Precision,
    pa: Precision,
    weights_signed: bool,
    activations_signed: bool,
) -> i64 {
    dispatch_product(
        WeightPlanes::Dense(weights),
        activations,
        pw,
        pa,
        weights_signed,
        activations_signed,
    )
}

/// [`wide_inner_product`] with the weight operand in compressed form: the
/// kernels read the stored planes in place (no re-densifying) and skip
/// elided all-zero planes in the weight-bit loop. Bit-identical to the dense
/// path on every kernel tier at any precision pair and signedness.
pub fn compressed_inner_product(
    weights: &CompressedWideBlock,
    activations: &WideBitplaneBlock,
    pw: Precision,
    pa: Precision,
    weights_signed: bool,
    activations_signed: bool,
) -> i64 {
    dispatch_product(
        WeightPlanes::Compressed(weights),
        activations,
        pw,
        pa,
        weights_signed,
        activations_signed,
    )
}

/// Dispatches one inner product to the fastest detected kernel tier.
fn dispatch_product(
    weights: WeightPlanes<'_>,
    activations: &WideBitplaneBlock,
    pw: Precision,
    pa: Precision,
    weights_signed: bool,
    activations_signed: bool,
) -> i64 {
    let (pw, pa) = (usize::from(pw.bits()), usize::from(pa.bits()));
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (each arm): `active_kernel_tier` only selects tiers whose
        // features were detected on this CPU.
        match active_kernel_tier() {
            KernelTier::Avx512Vpopcnt => {
                return unsafe {
                    wide_product_avx512_vpopcnt(
                        weights,
                        activations,
                        pw,
                        pa,
                        weights_signed,
                        activations_signed,
                    )
                };
            }
            KernelTier::Avx512 => {
                return unsafe {
                    wide_product_avx512(
                        weights,
                        activations,
                        pw,
                        pa,
                        weights_signed,
                        activations_signed,
                    )
                };
            }
            KernelTier::Avx2 => {
                return unsafe {
                    wide_product_avx2(
                        weights,
                        activations,
                        pw,
                        pa,
                        weights_signed,
                        activations_signed,
                    )
                };
            }
            KernelTier::Popcnt => {
                return unsafe {
                    wide_product_popcnt(
                        weights,
                        activations,
                        pw,
                        pa,
                        weights_signed,
                        activations_signed,
                    )
                };
            }
            KernelTier::Portable => {}
        }
    }
    wide_product_core(
        weights,
        activations,
        pw,
        pa,
        weights_signed,
        activations_signed,
    )
}

/// Convenience wrapper: packs both slices and takes their
/// [`wide_inner_product`]. Use the block form to amortise packing when an
/// operand is reused.
///
/// # Panics
///
/// Panics if the slices have different lengths or more than 256 lanes.
pub fn wide_inner_product_slices(
    weights: &[i32],
    activations: &[i32],
    pw: Precision,
    pa: Precision,
    weights_signed: bool,
    activations_signed: bool,
) -> i64 {
    assert_eq!(
        weights.len(),
        activations.len(),
        "weights and activations must pair up lane by lane"
    );
    wide_inner_product(
        &WideBitplaneBlock::pack(weights),
        &WideBitplaneBlock::pack(activations),
        pw,
        pa,
        weights_signed,
        activations_signed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loom::packed::BitplaneBlock;
    use crate::loom::sip::{reference_inner_product, serial_inner_product};
    use loom_model::fixed::{required_precision, required_unsigned_precision};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn ragged_values(n: usize) -> Vec<i32> {
        (0..n).map(|i| (i as i32 * 977) % 30000 - 15000).collect()
    }

    #[test]
    fn pack_roundtrips_across_word_boundaries() {
        for lanes in [0, 1, 63, 64, 65, 127, 128, 200, 255, 256] {
            let values = ragged_values(lanes);
            let block = WideBitplaneBlock::pack(&values);
            assert_eq!(block.lanes(), lanes);
            assert_eq!(block.unpack(), values, "{lanes} lanes");
        }
    }

    #[test]
    #[should_panic(expected = "at most 256 lanes")]
    fn pack_rejects_more_than_256_lanes() {
        WideBitplaneBlock::pack(&[0; 257]);
    }

    /// The highest-non-empty-magnitude-plane scan that the stored cutoff
    /// replaces in [`WideBitplaneBlock::detected_precision`].
    fn scanned_precision(block: &WideBitplaneBlock, signed: bool) -> Precision {
        let highest = (0..MAX_PRECISION)
            .rev()
            .find(|&bit| block.magnitude_words(bit) != [0; WIDE_WORDS]);
        match highest {
            None => Precision::saturating(1),
            Some(bit) => Precision::saturating(bit + if signed { 2 } else { 1 }),
        }
    }

    /// The all-planes scan the stored cutoff replaces in
    /// [`WideBitplaneBlock::is_zero`].
    fn scanned_is_zero(block: &WideBitplaneBlock) -> bool {
        block.signs == [0; WIDE_WORDS] && block.planes.iter().all(|p| *p == [0; WIDE_WORDS])
    }

    /// Asserts that the O(1) detection of `block` (and of its compressed
    /// form) equals the 16-plane scans.
    fn assert_detection_matches_scan(block: &WideBitplaneBlock, what: &str) {
        let compressed = CompressedWideBlock::compress(block);
        for signed in [true, false] {
            let scanned = scanned_precision(block, signed);
            assert_eq!(
                block.detected_precision(signed),
                scanned,
                "{what} signed={signed}"
            );
            assert_eq!(
                compressed.detected_precision(signed),
                scanned,
                "compressed {what} signed={signed}"
            );
        }
        assert_eq!(block.is_zero(), scanned_is_zero(block), "{what}");
        assert_eq!(
            compressed.is_zero(),
            scanned_is_zero(block),
            "compressed {what}"
        );
    }

    /// `lanes` operands of `bits`-bit signed or unsigned range in one of four
    /// shapes: uniform with the range's extreme planted in lane 0 (−32768 at
    /// 16-bit signed), all −1 (every plane pure sign extension), all the
    /// extreme, or magnitudes with a cutoff of exactly `edge` (the packers'
    /// low/high byte split sits between 8 and 9).
    fn packer_operands(
        rng: &mut StdRng,
        lanes: usize,
        bits: u8,
        signed: bool,
        shape: u8,
        edge: u8,
    ) -> Vec<i32> {
        let (lo, hi) = if signed {
            (-(1i32 << (bits - 1)), (1i32 << (bits - 1)) - 1)
        } else {
            (0, (1i32 << bits) - 1)
        };
        let extreme = if signed { lo } else { hi };
        match shape {
            0 => (0..lanes)
                .map(|i| {
                    if i == 0 {
                        extreme
                    } else {
                        rng.random_range(lo..=hi)
                    }
                })
                .collect(),
            1 => vec![-1; lanes],
            2 => vec![extreme; lanes],
            _ => {
                let top = 1i32 << edge;
                let low = if signed { -top } else { 0 };
                (0..lanes)
                    .map(|i| {
                        if i == 0 {
                            top / 2
                        } else {
                            rng.random_range(low..top)
                        }
                    })
                    .collect()
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every packer this CPU detects (scalar, AVX2, AVX-512BW) produces
        /// the block the dispatched pack does, over 0–256 lanes (ragged
        /// 16-lane tails included), signed and unsigned operands at every
        /// precision, and cutoffs on both sides of the byte split; the
        /// stored detection of packed, compressed, decompressed and empty
        /// blocks equals the 16-plane scans.
        #[test]
        fn scalar_pack_matches_dispatched_pack(
            lanes in 0usize..=256,
            bits in 1u8..=16,
            signed in any::<bool>(),
            shape in 0u8..4,
            edge in 8u8..=9,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let values = packer_operands(&mut rng, lanes, bits, signed, shape, edge);
            let dispatched = WideBitplaneBlock::pack(&values);
            prop_assert_eq!(dispatched.unpack(), values.clone());
            for packer in Packer::ALL.into_iter().filter(|p| p.detected()) {
                // Packing reuses arena storage, so start from a stale block.
                let mut block = WideBitplaneBlock::pack(&ragged_values(256));
                // SAFETY: the packer was detected on this CPU.
                unsafe { packer.pack(&mut block, &values) };
                assert_eq!(block, dispatched, "{packer:?} packer, values {values:?}");
            }
            if shape == 3 && lanes > 0 {
                prop_assert_eq!(dispatched.cutoff, edge);
            }
            assert_detection_matches_scan(&dispatched, "pack");
            let restored = CompressedWideBlock::compress(&dispatched).decompress();
            prop_assert_eq!(restored, dispatched);
            assert_detection_matches_scan(&restored, "decompress");
            assert_detection_matches_scan(&WideBitplaneBlock::EMPTY, "EMPTY");
        }
    }

    #[test]
    fn wide_planes_match_narrow_blocks() {
        let values = ragged_values(256);
        let wide = WideBitplaneBlock::pack(&values);
        for word in 0..WIDE_WORDS {
            let narrow = BitplaneBlock::pack(&values[word * 64..(word + 1) * 64]);
            for bit in 0..MAX_PRECISION {
                assert_eq!(wide.plane_words(bit)[word], narrow.plane(bit), "bit {bit}");
            }
            assert_eq!(wide.sign_words()[word], narrow.sign_mask());
        }
    }

    #[test]
    fn wide_product_matches_serial_and_reference_on_ragged_lanes() {
        for lanes in [1, 16, 63, 64, 65, 130, 256] {
            let weights: Vec<i32> = (0..lanes).map(|i| (i as i32 % 255) - 127).collect();
            let activations: Vec<i32> = (0..lanes).map(|i| (i as i32 * 7) % 256).collect();
            let pw = required_precision(&weights);
            let pa = required_unsigned_precision(&activations);
            let wide = wide_inner_product_slices(&weights, &activations, pw, pa, true, false);
            assert_eq!(
                wide,
                serial_inner_product(&weights, &activations, pw, pa, true, false),
                "{lanes} lanes"
            );
            assert_eq!(wide, reference_inner_product(&weights, &activations));
        }
    }

    #[test]
    fn kernel_tiers_agree_where_detected() {
        let weights = ragged_values(256);
        let activations: Vec<i32> = ragged_values(256).iter().map(|v| v / 3).collect();
        let w = WideBitplaneBlock::pack(&weights);
        let a = WideBitplaneBlock::pack(&activations);
        let (pw, pa) = (16usize, 16usize);
        let wd = WeightPlanes::Dense(&w);
        let portable = wide_product_core(wd, &a, pw, pa, true, true);
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("popcnt") {
                // SAFETY: feature detected above.
                assert_eq!(portable, unsafe {
                    wide_product_popcnt(wd, &a, pw, pa, true, true)
                });
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: feature detected above.
                assert_eq!(portable, unsafe {
                    wide_product_avx2(wd, &a, pw, pa, true, true)
                });
            }
            if KernelTier::Avx512.detected() {
                // SAFETY: tier features detected above.
                assert_eq!(portable, unsafe {
                    wide_product_avx512(wd, &a, pw, pa, true, true)
                });
            }
            if KernelTier::Avx512Vpopcnt.detected() {
                // SAFETY: tier features detected above.
                assert_eq!(portable, unsafe {
                    wide_product_avx512_vpopcnt(wd, &a, pw, pa, true, true)
                });
            }
        }
        assert_eq!(portable, reference_inner_product(&weights, &activations));
    }

    #[test]
    fn avx512_tiers_match_portable_across_precisions_and_signedness() {
        // Sweeps every (pw, pa) pair so both the plane-pair remainder (odd
        // pa) and the four-plane fast path of the AVX-512 kernels are hit —
        // and every pair-count arm (1..=8) of the `vpopcntdq` kernel — under
        // all four signedness combinations, with dense weights and with
        // compressed weights whose low planes are elided as all zero and
        // whose high planes resolve to the sign plane.
        #[cfg(target_arch = "x86_64")]
        for lanes in [1, 63, 130, 256] {
            let weights = ragged_values(lanes);
            let activations: Vec<i32> = ragged_values(lanes).iter().map(|v| v / 5).collect();
            let w = WideBitplaneBlock::pack(&weights);
            let a = WideBitplaneBlock::pack(&activations);
            // Multiples of 4 in −512..512: planes 0–1 are all zero, planes
            // 9–15 pure sign extension (every draw has a negative).
            let sparse: Vec<i32> = weights.iter().map(|v| (v % 512) & !3).collect();
            let c = CompressedWideBlock::compress(&WideBitplaneBlock::pack(&sparse));
            assert!((0..2).all(|bit| c.slots[bit] == SLOT_ZERO), "{lanes} lanes");
            assert!(
                (9..16).all(|bit| c.slots[bit] == SLOT_SIGN),
                "{lanes} lanes"
            );
            for pw in 1..=16usize {
                for pa in 1..=16usize {
                    for (ws, as_) in [(true, true), (true, false), (false, true), (false, false)] {
                        for wd in [WeightPlanes::Dense(&w), WeightPlanes::Compressed(&c)] {
                            let form = match wd {
                                WeightPlanes::Dense(_) => "dense",
                                WeightPlanes::Compressed(_) => "compressed",
                            };
                            let portable = wide_product_core(wd, &a, pw, pa, ws, as_);
                            if KernelTier::Avx512.detected() {
                                // SAFETY: tier features detected above.
                                let got = unsafe { wide_product_avx512(wd, &a, pw, pa, ws, as_) };
                                assert_eq!(
                                    portable, got,
                                    "avx512 {form} {lanes} lanes pw={pw} pa={pa} {ws}/{as_}"
                                );
                            }
                            if KernelTier::Avx512Vpopcnt.detected() {
                                // SAFETY: tier features detected above.
                                let got =
                                    unsafe { wide_product_avx512_vpopcnt(wd, &a, pw, pa, ws, as_) };
                                assert_eq!(
                                    portable, got,
                                    "vpopcnt {form} {lanes} lanes pw={pw} pa={pa} {ws}/{as_}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn active_tier_is_detected_and_fastest() {
        let active = active_kernel_tier();
        assert!(active.detected());
        for tier in KERNEL_TIERS {
            if tier > active {
                assert!(
                    !tier.detected(),
                    "{} beats active {}",
                    tier.name(),
                    active.name()
                );
            }
        }
        // The tier names are stable identifiers for the bench JSON.
        let names: Vec<_> = KERNEL_TIERS.iter().map(|t| t.name()).collect();
        assert_eq!(
            names,
            ["portable", "popcnt", "avx2", "avx512", "avx512-vpopcnt"]
        );
        let features = cpu_features();
        // The portable tier never depends on features; vector tiers imply
        // their feature bits.
        assert!(KernelTier::Portable.detected());
        assert_eq!(KernelTier::Avx2.detected(), features.avx2);
        assert_eq!(
            KernelTier::Avx512.detected(),
            features.avx512f && features.avx512bw
        );
        assert_eq!(
            KernelTier::Avx512Vpopcnt.detected(),
            features.avx512f && features.avx512vpopcntdq
        );
    }

    #[test]
    fn mismatched_lane_counts_treat_missing_lanes_as_zero() {
        let weights = WideBitplaneBlock::pack(&ragged_values(200));
        let activations = WideBitplaneBlock::pack(&ragged_values(70));
        let expected = reference_inner_product(&ragged_values(200)[..70], &ragged_values(70));
        assert_eq!(
            wide_inner_product(
                &weights,
                &activations,
                Precision::FULL,
                Precision::FULL,
                true,
                true
            ),
            expected
        );
    }

    #[test]
    fn detected_precision_matches_vec_detectors() {
        for lanes in [1, 5, 64, 77, 256] {
            let values = ragged_values(lanes);
            let block = WideBitplaneBlock::pack(&values);
            assert_eq!(block.detected_precision(true), required_precision(&values));
            let magnitudes: Vec<i32> = values.iter().map(|v| v.abs() & 0x7fff).collect();
            let block = WideBitplaneBlock::pack(&magnitudes);
            assert_eq!(
                block.detected_precision(false),
                required_unsigned_precision(&magnitudes)
            );
        }
    }

    #[test]
    fn zero_blocks_are_flagged() {
        assert!(WideBitplaneBlock::pack(&[0; 100]).is_zero());
        assert!(WideBitplaneBlock::EMPTY.is_zero());
        assert!(!WideBitplaneBlock::pack(&[0, 0, 1]).is_zero());
        assert!(!WideBitplaneBlock::pack(&[-1]).is_zero());
    }

    #[test]
    fn compressed_block_round_trips_exactly() {
        for lanes in [0, 1, 63, 64, 65, 130, 255, 256] {
            let values = ragged_values(lanes);
            let dense = WideBitplaneBlock::pack(&values);
            let compressed = CompressedWideBlock::compress(&dense);
            assert_eq!(compressed.decompress(), dense, "{lanes} lanes");
            assert_eq!(compressed.lanes(), lanes);
            assert_eq!(compressed.is_zero(), dense.is_zero());
            for signed in [true, false] {
                assert_eq!(
                    compressed.detected_precision(signed),
                    dense.detected_precision(signed),
                    "{lanes} lanes signed={signed}"
                );
            }
        }
    }

    #[test]
    fn compressed_block_elides_adversarial_planes() {
        // All-even weights: plane 0 is all zeros and must be elided.
        let evens: Vec<i32> = (0..256).map(|i| (i % 40) * 2 - 38).collect();
        let dense = WideBitplaneBlock::pack(&evens);
        let c = CompressedWideBlock::compress(&dense);
        assert_eq!(c.plane(0), None);
        assert_eq!(c.decompress(), dense);
        // All -1: every plane is pure sign extension — nothing is stored.
        let dense = WideBitplaneBlock::pack(&[-1; 256]);
        let c = CompressedWideBlock::compress(&dense);
        assert_eq!(c.planes().stored_planes().len(), 0);
        assert_eq!(c.decompress(), dense);
        // All zero: nothing stored, block flagged zero.
        let c = CompressedWideBlock::compress(&WideBitplaneBlock::pack(&[0; 100]));
        assert!(c.is_zero());
        assert_eq!(c.planes().stored_planes().len(), 0);
    }

    #[test]
    fn compressed_product_matches_dense_across_tiers_and_precisions() {
        // The compressed weight path must be bit-identical to the dense path
        // on every kernel, at every (pw, pa) pair (so both the elided-plane
        // skip and the sign-extension resolution are exercised below, at, and
        // above the detected width), under all four signedness combinations.
        for lanes in [1, 63, 130, 256] {
            let weights = ragged_values(lanes);
            let activations: Vec<i32> = ragged_values(lanes).iter().map(|v| v / 5).collect();
            let w = WideBitplaneBlock::pack(&weights);
            let c = CompressedWideBlock::compress(&w);
            let a = WideBitplaneBlock::pack(&activations);
            for pw in 1..=16usize {
                for pa in 1..=16usize {
                    for (ws, as_) in [(true, true), (true, false), (false, true), (false, false)] {
                        let dense = wide_product_core(WeightPlanes::Dense(&w), &a, pw, pa, ws, as_);
                        let compressed = WeightPlanes::Compressed(&c);
                        assert_eq!(
                            dense,
                            wide_product_core(compressed, &a, pw, pa, ws, as_),
                            "portable {lanes} lanes pw={pw} pa={pa}"
                        );
                        #[cfg(target_arch = "x86_64")]
                        {
                            if std::arch::is_x86_feature_detected!("popcnt") {
                                // SAFETY: feature detected above.
                                let got =
                                    unsafe { wide_product_popcnt(compressed, &a, pw, pa, ws, as_) };
                                assert_eq!(dense, got, "popcnt {lanes} lanes pw={pw} pa={pa}");
                            }
                            if std::arch::is_x86_feature_detected!("avx2") {
                                // SAFETY: feature detected above.
                                let got =
                                    unsafe { wide_product_avx2(compressed, &a, pw, pa, ws, as_) };
                                assert_eq!(dense, got, "avx2 {lanes} lanes pw={pw} pa={pa}");
                            }
                            if KernelTier::Avx512.detected() {
                                // SAFETY: tier features detected above.
                                let got =
                                    unsafe { wide_product_avx512(compressed, &a, pw, pa, ws, as_) };
                                assert_eq!(dense, got, "avx512 {lanes} lanes pw={pw} pa={pa}");
                            }
                            if KernelTier::Avx512Vpopcnt.detected() {
                                // SAFETY: tier features detected above.
                                let got = unsafe {
                                    wide_product_avx512_vpopcnt(compressed, &a, pw, pa, ws, as_)
                                };
                                assert_eq!(dense, got, "vpopcnt {lanes} lanes pw={pw} pa={pa}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn compressed_inner_product_matches_dispatched_dense() {
        let weights = ragged_values(256);
        let activations: Vec<i32> = ragged_values(256).iter().map(|v| v / 3).collect();
        let w = WideBitplaneBlock::pack(&weights);
        let c = CompressedWideBlock::compress(&w);
        let a = WideBitplaneBlock::pack(&activations);
        let pw = required_precision(&weights);
        let pa = required_precision(&activations);
        assert_eq!(
            compressed_inner_product(&c, &a, pw, pa, true, true),
            wide_inner_product(&w, &a, pw, pa, true, true),
        );
        assert_eq!(
            compressed_inner_product(&c, &a, pw, pa, true, true),
            reference_inner_product(&weights, &activations),
        );
    }

    #[test]
    fn magnitude_words_fold_like_the_narrow_detector() {
        let values = vec![3, -100, 0, 17, -1];
        let wide = WideBitplaneBlock::pack(&values);
        let narrow = BitplaneBlock::pack(&values);
        for bit in 0..MAX_PRECISION {
            assert_eq!(wide.magnitude_words(bit)[0], narrow.magnitude_plane(bit));
        }
    }
}
