//! Property tests of the `Wire` codec: encode/decode is the identity on
//! every payload shape the apps use, and *every* malformed frame —
//! truncations at arbitrary byte offsets, oversized length prefixes,
//! trailing garbage, bad discriminants — decodes to a typed
//! [`WireError`], never a panic and never an attacker-sized allocation.
//!
//! The sequence hooks get their own battery: a `Vec` of fixed-width
//! numbers is converted as a block, and the block must be byte-for-byte
//! and error-for-error the element-wise codec kept here as the
//! reference; golden frames captured before the block path existed pin
//! the format itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpistream::{ConsumerCheckpoint, StreamMsg, Wire, WireError, MAX_WIRE_ELEMS};
use proptest::prelude::*;

/// Round trip, and the length invariant every sender relies on:
/// `wire_len` counts exactly the bytes `encode` puts.
fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = v.to_frame();
    prop_assert_eq!(v.wire_len(), bytes.len(), "wire_len of {:?}", v);
    let back = T::from_frame(&bytes);
    prop_assert_eq!(back.as_ref().ok(), Some(v), "decode failed: {:?}", back.as_ref().err());
}

/// [`roundtrip`] for a `StreamMsg`, which has no `PartialEq`: the
/// decoded message must encode to the same bytes.
fn stream_msg_roundtrip<T: Wire>(m: &StreamMsg<T>) {
    let bytes = m.to_frame();
    prop_assert_eq!(m.wire_len(), bytes.len());
    let back = StreamMsg::<T>::from_frame(&bytes);
    prop_assert_eq!(back.map(|b| b.to_frame()), Ok(bytes));
}

/// Decoding any strict prefix of a valid frame must fail with a typed
/// error — `from_frame` additionally rejects strict *extensions*.
fn total_on_prefixes<T: Wire + std::fmt::Debug>(v: &T) {
    let bytes = v.to_frame();
    for cut in 0..bytes.len() {
        if let Ok(short) = T::from_frame(&bytes[..cut]) {
            // A prefix may decode (e.g. a tuple of units) only if the
            // full frame is empty too — otherwise it must error.
            prop_assert!(bytes.is_empty(), "prefix {cut} decoded: {short:?}");
        }
    }
    let mut extended = bytes.clone();
    extended.push(0);
    prop_assert!(
        matches!(T::from_frame(&extended), Err(WireError::TrailingBytes { .. })),
        "extended frame must report trailing bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn integers_round_trip(a in any::<u64>(), b in any::<i64>(), c in any::<u32>(), d in any::<u8>()) {
        roundtrip(&a);
        roundtrip(&b);
        roundtrip(&c);
        roundtrip(&d);
        roundtrip(&(a as usize));
        roundtrip(&(b as isize));
        total_on_prefixes(&a);
    }

    #[test]
    fn floats_round_trip_bit_exact(bits in any::<u64>(), f in any::<bool>()) {
        // Go through raw bits so NaN payloads and signed zeros are
        // covered; equality is on the bit pattern.
        let v = f64::from_bits(bits);
        let back = f64::from_frame(&v.to_frame()).unwrap();
        prop_assert_eq!(back.to_bits(), bits);
        roundtrip(&f);
    }

    #[test]
    fn collections_round_trip(
        v in prop::collection::vec(any::<u64>(), 0..64),
        pairs in prop::collection::vec((any::<u32>(), any::<u32>()), 0..32),
        raw in prop::collection::vec(any::<u8>(), 0..48),
        present in any::<bool>(),
    ) {
        roundtrip(&v);
        roundtrip(&pairs);                      // the mapreduce KvChunk shape
        let s = String::from_utf8_lossy(&raw).into_owned();
        roundtrip(&s);
        let opt = present.then(|| v.clone());
        roundtrip(&opt);
        total_on_prefixes(&pairs);
    }

    #[test]
    fn app_payload_shapes_round_trip(
        iter in any::<u64>(),
        dir in any::<i64>(),
        vals in prop::collection::vec(any::<u64>(), 0..16),
    ) {
        // The cg halo shape: (usize, isize, Vec<f64>) nested in a Vec.
        let values: Vec<f64> = vals.iter().map(|&b| f64::from_bits(b | 1)).collect();
        let faces = vec![(iter as usize, dir as isize, values)];
        roundtrip(&faces);
        // The particle shape: fixed-size f64 arrays in a tuple.
        let p = ([1.0f64, -2.5, 3.25], [0.5f64, 0.0, -0.125]);
        roundtrip(&p);
        total_on_prefixes(&faces);
    }

    #[test]
    fn stream_messages_round_trip(
        v in prop::collection::vec(any::<u64>(), 0..64),
        blobs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..12), 0..8),
        n in any::<u64>(),
    ) {
        stream_msg_roundtrip(&StreamMsg::Data(v));
        stream_msg_roundtrip(&StreamMsg::Data(blobs));
        stream_msg_roundtrip(&StreamMsg::<u32>::Term { sent: n });
        stream_msg_roundtrip(&StreamMsg::<f64>::Mark(n));
    }

    #[test]
    fn consumer_checkpoints_round_trip(
        cursors in prop::collection::vec((any::<u64>(), any::<u64>()), 0..8),
        claims in prop::collection::vec((any::<u64>(), any::<u64>()), 0..8),
        elements in any::<u64>(),
        batches in any::<u64>(),
        bytes in any::<u64>(),
    ) {
        roundtrip(&ConsumerCheckpoint { cursors, claims, elements, batches, bytes });
    }

    #[test]
    fn truncations_never_panic_and_always_error(
        v in prop::collection::vec((any::<u32>(), any::<u64>()), 1..16),
        cut_seed in any::<u64>(),
    ) {
        let bytes = v.to_frame();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let r = Vec::<(u32, u64)>::from_frame(&bytes[..cut]);
        prop_assert!(r.is_err(), "truncated frame decoded");
        prop_assert!(
            matches!(r, Err(WireError::Truncated { .. })),
            "truncation must be typed as Truncated, got {:?}", r.err()
        );
    }

    #[test]
    fn corrupted_length_prefixes_error_without_allocating(extra in any::<u64>()) {
        // Claim an element count above the cap: rejected before any
        // allocation proportional to the claim.
        let claimed = MAX_WIRE_ELEMS + 1 + (extra % 1024);
        let r = Vec::<u64>::from_frame(&claimed.to_frame());
        prop_assert!(matches!(r, Err(WireError::LengthOverflow { .. })));
        // Claim a count *below* the cap but far beyond the buffer: the
        // decode fails on the first missing element instead of reserving
        // for the claim.
        let under_cap = 1 + (extra % MAX_WIRE_ELEMS);
        let r = Vec::<u64>::from_frame(&under_cap.to_frame());
        prop_assert!(matches!(r, Err(WireError::Truncated { .. })));
    }
}

#[test]
fn zero_sized_elements_cannot_spin_the_decoder() {
    // `Vec<()>` elements consume zero bytes each, so only the element
    // cap bounds the decode loop — a huge claimed count must be
    // rejected up front, not iterated.
    let r = Vec::<()>::from_frame(&u64::MAX.to_frame());
    assert!(matches!(r, Err(WireError::LengthOverflow { .. })));
    // At or under the cap a Vec<()> is legal (if degenerate).
    let v = vec![(), (), ()];
    assert_eq!(Vec::<()>::from_frame(&v.to_frame()).unwrap(), v);
}

#[test]
fn discriminant_and_utf8_corruption_is_typed() {
    assert_eq!(bool::from_frame(&[7]), Err(WireError::BadDiscriminant { got: 7 }));
    assert_eq!(Option::<u64>::from_frame(&[2]), Err(WireError::BadDiscriminant { got: 2 }));
    let mut s = String::from("ok").to_frame();
    let last = s.len() - 1;
    s[last] = 0xFF;
    assert_eq!(String::from_frame(&s), Err(WireError::InvalidUtf8));
}

#[test]
fn wire_struct_macro_encodes_fields_in_order() {
    #[derive(PartialEq, Debug)]
    struct Update {
        rank: usize,
        step: usize,
        work: u64,
    }
    mpistream::wire_struct!(Update { rank, step, work });
    let v = Update { rank: 3, step: 9, work: 0xDEAD };
    let bytes = v.to_frame();
    // Field order is the declaration order: three LE u64 words.
    assert_eq!(bytes.len(), 24);
    assert_eq!(u64::from_le_bytes(bytes[0..8].try_into().unwrap()), 3);
    assert_eq!(u64::from_le_bytes(bytes[8..16].try_into().unwrap()), 9);
    assert_eq!(Update::from_frame(&bytes).unwrap(), v);
    // And the same totality guarantee as the built-ins.
    for cut in 0..bytes.len() {
        assert!(Update::from_frame(&bytes[..cut]).is_err());
    }
}

// ---------------------------------------------------------------------
// The block codec against the element-wise reference
// ---------------------------------------------------------------------

/// `Vec<T>` one element at a time: what `Vec<T>::encode` was before the
/// sequence hooks, built only from `T`'s scalar `encode`.
fn reference_encode<T: Wire>(items: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    (items.len() as u64).encode(&mut out);
    for v in items {
        v.encode(&mut out);
    }
    out
}

/// The matching decoder, built only from `T`'s scalar `decode`.
fn reference_decode<T: Wire>(mut input: &[u8]) -> Result<Vec<T>, WireError> {
    let len = u64::decode(&mut input)?;
    if len > MAX_WIRE_ELEMS {
        return Err(WireError::LengthOverflow { len });
    }
    let mut v = Vec::new();
    for _ in 0..len {
        v.push(T::decode(&mut input)?);
    }
    if input.is_empty() {
        Ok(v)
    } else {
        Err(WireError::TrailingBytes { remaining: input.len() })
    }
}

/// A number made from raw bits, so that floats cover NaN payloads,
/// infinities, subnormals and both zeros rather than `[0, 1)`.
trait FromBits: Wire {
    fn from_bits64(bits: u64) -> Self;
}

macro_rules! impl_from_bits {
    (int: $($t:ty),*) => {$(
        impl FromBits for $t {
            fn from_bits64(bits: u64) -> Self {
                bits as $t
            }
        }
    )*};
}
impl_from_bits!(int: u8, u16, u32, u64, i8, i16, i32, i64);

impl FromBits for f32 {
    fn from_bits64(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

impl FromBits for f64 {
    fn from_bits64(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

/// Block == reference on `bits` reinterpreted as `T`s: same bytes out,
/// same values back (compared as bytes: NaN != NaN), and on every strict
/// prefix and one-byte extension the same `WireError` variant.
fn block_matches_reference<T: FromBits>(bits: &[u64]) {
    let items: Vec<T> = bits.iter().map(|&b| T::from_bits64(b)).collect();
    let bytes = items.to_frame();
    let ty = std::any::type_name::<T>();
    assert_eq!(bytes, reference_encode(&items), "Vec<{ty}> block encoding differs");

    let back = Vec::<T>::from_frame(&bytes).unwrap_or_else(|e| panic!("Vec<{ty}> decode: {e}"));
    assert_eq!(back.len(), items.len());
    assert_eq!(reference_encode(&back), bytes, "Vec<{ty}> block decode changed a bit pattern");

    let mut extended = bytes.clone();
    extended.push(0);
    for malformed in (0..bytes.len()).map(|cut| &bytes[..cut]).chain([&extended[..]]) {
        let block = Vec::<T>::from_frame(malformed).map(|_| ()).unwrap_err();
        let reference = reference_decode::<T>(malformed).map(|_| ()).unwrap_err();
        assert_eq!(
            std::mem::discriminant(&block),
            std::mem::discriminant(&reference),
            "Vec<{ty}> of {} cut to {} of {} bytes: block {block:?}, reference {reference:?}",
            items.len(),
            malformed.len(),
            bytes.len(),
        );
    }
}

fn block_matches_reference_for_every_number(bits: &[u64]) {
    block_matches_reference::<u8>(bits);
    block_matches_reference::<u16>(bits);
    block_matches_reference::<u32>(bits);
    block_matches_reference::<u64>(bits);
    block_matches_reference::<i8>(bits);
    block_matches_reference::<i16>(bits);
    block_matches_reference::<i32>(bits);
    block_matches_reference::<i64>(bits);
    block_matches_reference::<f32>(bits);
    block_matches_reference::<f64>(bits);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn block_codec_equals_the_element_wise_codec(
        bits in prop::collection::vec(any::<u64>(), 0..24),
    ) {
        block_matches_reference_for_every_number(&bits);
    }

    #[test]
    fn non_primitive_sequences_still_take_the_element_wise_path(
        blobs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..12), 0..8),
        pairs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..8),
        units in 0usize..5,
    ) {
        let pairs: Vec<(u64, f64)> = pairs.into_iter().map(|(k, v)| (k, v as f64)).collect();
        roundtrip(&blobs);
        roundtrip(&pairs);
        roundtrip(&vec![(); units]);
        prop_assert_eq!(blobs.to_frame(), reference_encode(&blobs));
        prop_assert_eq!(pairs.to_frame(), reference_encode(&pairs));
        total_on_prefixes(&blobs);
        total_on_prefixes(&pairs);
    }
}

#[test]
fn block_codec_handles_the_awkward_values() {
    // Empty and one-element vectors, then every float the random bits
    // above are unlikely to hit: both zeros, infinities, a subnormal and
    // NaNs with quiet/signalling payloads, as f64 and (low half) f32 bits.
    block_matches_reference_for_every_number(&[]);
    block_matches_reference_for_every_number(&[u64::MAX]);
    block_matches_reference_for_every_number(&[
        0.0f64.to_bits(),
        (-0.0f64).to_bits(),
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        1, // smallest subnormal
        0x7FF8_0000_DEAD_BEEF,
        0xFFF0_0000_0000_0001,
        u64::from((-0.0f32).to_bits()),
        u64::from(f32::NAN.to_bits() | 0x1234),
        0xFFFF_FFFF_7F80_0001, // f32 signalling NaN under a busy high half
    ]);
    // Arrays route their elements through the same hook, unframed.
    let triple = [1.5f64, -0.0, f64::from_bits(0x7FF8_0000_0000_0001)];
    assert_eq!(triple.to_frame(), reference_encode(&triple)[8..]);
    let back = <[f64; 3]>::from_frame(&triple.to_frame()).unwrap();
    assert_eq!(back.map(f64::to_bits), triple.map(f64::to_bits));
}

// ---------------------------------------------------------------------
// Golden frames: the format, captured before the block path existed
// ---------------------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Expected bytes were printed by the *parent* commit's codec (element
/// by element, `f64` via `to_bits`), so this checks "byte-identical
/// format" instead of asserting it. `VsrMsg`'s golden frame sits with
/// its type, in `crates/replica/tests/wire_roundtrip.rs`.
#[test]
fn golden_frames_are_byte_identical_to_the_element_wise_format() {
    let data = StreamMsg::Data(vec![0x0123_4567_89AB_CDEFu64, 7]);
    assert_eq!(hex(&data.to_frame()), "000200000000000000efcdab89674523010700000000000000");

    let floats = vec![1.5f64, -0.0, f64::from_bits(0x7FF8_0000_DEAD_BEEF), f64::NEG_INFINITY];
    assert_eq!(
        hex(&floats.to_frame()),
        "0400000000000000000000000000f83f0000000000000080efbeadde0000f87f000000000000f0ff"
    );

    let ckpt = ConsumerCheckpoint {
        cursors: vec![(0, 5), (3, 9)],
        claims: vec![(3, 9)],
        elements: 14,
        batches: 4,
        bytes: 112,
    };
    assert_eq!(
        hex(&ckpt.to_frame()),
        "0200000000000000000000000000000005000000000000000300000000000000090000000000\
         0000010000000000000003000000000000000900000000000000\
         0e0000000000000004000000000000007000000000000000"
    );
    assert_eq!(ConsumerCheckpoint::from_frame(&ckpt.to_frame()).unwrap(), ckpt);

    // One frame through every remaining width, an array and a byte blob.
    let mixed = (vec![-2i16, 300], vec![1.0f32, -0.0], [7u32, 8, 9], vec![-1i64], vec![0xA5u8; 3]);
    assert_eq!(
        hex(&mixed.to_frame()),
        "0200000000000000feff2c0102000000000000000000803f00000080\
         070000000800000009000000\
         0100000000000000ffffffffffffffff0300000000000000a5a5a5"
    );
}

// ---------------------------------------------------------------------
// A corrupt count may not drive an allocation larger than its frame
// ---------------------------------------------------------------------

thread_local! {
    /// Largest single allocation this thread has requested since the
    /// last reset. Plain `Cell`, const-initialised and without a
    /// destructor, so the allocator may touch it at any time.
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each thread's largest request (the
/// default `alloc_zeroed` and `realloc` go through `alloc`, so every
/// request is seen).
struct NotingAllocator;

// SAFETY: both methods forward unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a thread-local
// `Cell<usize>` and never allocates.
unsafe impl GlobalAlloc for NotingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST_REQUEST.try_with(|c| c.set(c.get().max(layout.size())));
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: NotingAllocator = NotingAllocator;

#[test]
fn corrupt_count_reserves_no_more_than_the_frame_could_hold() {
    // A 1 MiB frame of 48-byte elements whose count claims the element
    // cap. Pre-sizing by `min(count, remaining bytes)` *elements* asked
    // for 48 MiB here (3 GiB at the frame cap) before noticing that the
    // elements are not there; the hint is bounded in bytes instead.
    let honest: Vec<[u64; 6]> = vec![[7; 6]; (1 << 20) / 48];
    let mut frame = honest.to_frame();
    frame[..8].copy_from_slice(&MAX_WIRE_ELEMS.to_le_bytes());

    LARGEST_REQUEST.with(|c| c.set(0));
    let got = Vec::<[u64; 6]>::from_frame(&frame);
    let largest = LARGEST_REQUEST.with(Cell::get);
    assert!(matches!(got, Err(WireError::Truncated { .. })), "got {:?}", got.map(|v| v.len()));
    assert!(
        largest <= 2 * frame.len(),
        "a {}-byte frame drove a single allocation of {largest} bytes",
        frame.len()
    );

    // The block path is exact rather than hinted: nothing is reserved
    // until `count * width` bytes are known to be there.
    let mut numbers = vec![1.0f64; 1 << 10].to_frame();
    numbers[..8].copy_from_slice(&MAX_WIRE_ELEMS.to_le_bytes());
    LARGEST_REQUEST.with(|c| c.set(0));
    let got = Vec::<f64>::from_frame(&numbers);
    assert!(matches!(got, Err(WireError::Truncated { .. })));
    assert_eq!(LARGEST_REQUEST.with(Cell::get), 0, "a failed block decode allocated");
}
