//! Deterministic hostile I/O for the frame layer (ROADMAP item 6c).
//!
//! `FrameReader`, `read_frame` and `write_frame` are driven through a
//! seeded `Read`/`Write` shim that hands over 1…k bytes per call, fails
//! calls with `Interrupted`, and ends the stream at a chosen byte. The
//! properties: chunking never changes what is decoded; a stream that
//! ends exactly between two frames is a clean end-of-stream and one that
//! ends anywhere else is an error — never a hang, a panic or a short
//! frame; a bad length prefix is rejected the moment its four bytes are
//! in, before anything is allocated for it; a non-blocking source that
//! pauses with `WouldBlock` anywhere — inside a frame larger than the
//! buffer included — loses nothing, because `FrameReader` resumes where
//! it stopped; and a short-writing, interrupted writer still emits
//! exactly the frame's bytes. The two decoding properties run through
//! `FrameReader::lend_frame` as well, whose frames that fit the buffer
//! are lent where they lie without a single allocation.
//!
//! A rank's links carry the same frame stream through a shared-memory
//! ring (`socket::ring`), so every property that decodes a stream also
//! runs it through a ring with a `FrameReader` over the reading end:
//! publishes of seeded size, a reader that sometimes drains the ring
//! (the writer then restarts at its front) and sometimes lets it wrap,
//! frames larger than the whole ring, and the writer's EOF at every cut.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;
use std::io::{self, Read, Write};

use mpistream::MAX_FRAME_BYTES;
use proptest::prelude::*;
use socket::frame::{self, FrameReader, Source, FRAME_OVERHEAD, LINK_BUF_BYTES};
use socket::ring::{self, RING_BYTES};

type Frame = (u64, u64, Vec<u8>);

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How a shim chops its calls up: at most `max_chunk` bytes each, and —
/// never twice in a row, so progress is guaranteed — every
/// `interrupt_one_in`-th call on average fails with `Interrupted`.
#[derive(Clone, Copy, Debug)]
struct Chop {
    seed: u64,
    max_chunk: usize,
    interrupt_one_in: u64,
}

impl Chop {
    /// Every call moves everything asked for; never interrupts.
    const GREEDY: Chop = Chop { seed: 0, max_chunk: usize::MAX, interrupt_one_in: u64::MAX };

    /// `Err(Interrupted)` or the byte count this call may move.
    fn next(&mut self, just_interrupted: &mut bool, wanted: usize) -> io::Result<usize> {
        let roll = splitmix(&mut self.seed);
        if !*just_interrupted && roll.is_multiple_of(self.interrupt_one_in) {
            *just_interrupted = true;
            return Err(io::ErrorKind::Interrupted.into());
        }
        *just_interrupted = false;
        let most = wanted.min(self.max_chunk);
        Ok(if most == 0 { 0 } else { 1 + (roll >> 8) as usize % most })
    }
}

/// Serves `data` hostilely, then EOF. A reader that keeps calling after
/// EOF is spinning: the shim turns that hang into a test failure.
struct HostileSource<'a> {
    data: &'a [u8],
    chop: Chop,
    interrupted: bool,
    reads_past_eof: u32,
}

impl<'a> HostileSource<'a> {
    fn new(data: &'a [u8], chop: Chop) -> Self {
        HostileSource { data, chop, interrupted: false, reads_past_eof: 0 }
    }
}

impl Read for HostileSource<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        assert!(!buf.is_empty(), "a read into an empty buffer reads as EOF");
        if self.data.is_empty() {
            self.reads_past_eof += 1;
            assert!(self.reads_past_eof <= 2, "reader keeps polling a closed stream");
            return Ok(0);
        }
        let n = self.chop.next(&mut self.interrupted, buf.len().min(self.data.len()))?;
        let (head, rest) = self.data.split_at(n);
        buf[..n].copy_from_slice(head);
        self.data = rest;
        Ok(n)
    }
}

impl Source for HostileSource<'_> {}

/// The same source, non-blocking: where the shim would fail a call with
/// `Interrupted`, it reports `WouldBlock`, which a frame reader does not
/// retry but hands back to its caller, like a socket with nothing queued.
struct NonBlocking<'a>(HostileSource<'a>);

impl Read for NonBlocking<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf).map_err(|e| match e.kind() {
            io::ErrorKind::Interrupted => io::ErrorKind::WouldBlock.into(),
            _ => e,
        })
    }
}

impl Source for NonBlocking<'_> {}

/// Accepts hostilely: short writes and `Interrupted`.
struct HostileSink {
    out: Vec<u8>,
    chop: Chop,
    interrupted: bool,
}

impl Write for HostileSink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let n = self.chop.next(&mut self.interrupted, data.len())?;
        self.out.extend_from_slice(&data[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn payload(rng: &mut u64, len: usize) -> Vec<u8> {
    (0..len).map(|_| splitmix(rng) as u8).collect()
}

/// Payload sizes around everything the reader branches on: empty, tiny,
/// a few KiB, exactly filling the link buffer and one byte more (the
/// first frame too large for it: lent from a ring, its own allocation
/// from any other source), over twice the buffer, and exactly filling a
/// ring (the largest frame a ring lends).
const LANDMARKS: [usize; 7] = [
    0,
    1,
    LINK_BUF_BYTES - FRAME_OVERHEAD - 1,
    LINK_BUF_BYTES - FRAME_OVERHEAD,
    LINK_BUF_BYTES - FRAME_OVERHEAD + 1,
    2 * LINK_BUF_BYTES + 123,
    RING_BYTES - FRAME_OVERHEAD,
];

/// A frame sequence from `seed`: every landmark size plus runs of small
/// and medium frames, in seeded order. With ~590 KiB per sequence any
/// chunking leaves partial frames in the buffer at most refills, and the
/// larger-than-buffer frames arrive with any amount already buffered.
fn frames_from(seed: u64) -> Vec<Frame> {
    let mut rng = seed;
    let mut sizes: Vec<usize> = LANDMARKS.to_vec();
    sizes.extend((0..40).map(|_| splitmix(&mut rng) as usize % 64));
    sizes.extend((0..12).map(|_| splitmix(&mut rng) as usize % 6000));
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, splitmix(&mut rng) as usize % (i + 1));
    }
    sizes
        .into_iter()
        .map(|len| (splitmix(&mut rng), splitmix(&mut rng), payload(&mut rng, len)))
        .collect()
}

/// The frames as a plain `Vec` writer receives them, and the offset just
/// past each frame (the clean cut points, with 0).
fn on_the_wire(frames: &[Frame]) -> (Vec<u8>, Vec<usize>) {
    let mut wire = Vec::new();
    let mut boundaries = vec![0];
    for (tag, bytes, payload) in frames {
        frame::write_frame(&mut wire, *tag, *bytes, payload).expect("write to memory");
        boundaries.push(wire.len());
    }
    (wire, boundaries)
}

/// Everything `next` yields up to end-of-stream or the first error.
fn drain(mut next: impl FnMut() -> io::Result<Option<Frame>>) -> (Vec<Frame>, io::Result<()>) {
    let mut got = Vec::new();
    loop {
        match next() {
            Ok(Some(f)) => got.push(f),
            Ok(None) => return (got, Ok(())),
            Err(e) => return (got, Err(e)),
        }
    }
}

/// `data` through a fresh shared-memory ring, the way a link carries it:
/// the writer publishes pieces of seeded size (at most `chop.max_chunk`
/// bytes each), and after each the reader takes a seeded number of
/// frames — none, one, two, or all it can. So the ring sometimes drains
/// and the writer restarts at its front, sometimes wraps round with
/// unread bytes in it, and a frame larger than the whole ring crosses
/// in pieces; a piece that finds the ring full waits for the reader.
/// Then the writer goes (the link's EOF) and the reader drains the rest.
fn drain_ring(data: &[u8], chop: Chop) -> (Vec<Frame>, io::Result<()>) {
    let (mut writer, ring) = ring::local_pair();
    let mut reader = FrameReader::new(ring);
    let mut rng = chop.seed;
    let mut rest = data;
    let mut got = Vec::new();
    while !rest.is_empty() {
        let piece = 1 + splitmix(&mut rng) as usize % chop.max_chunk.min(rest.len());
        let n = writer.publish(&rest[..piece]);
        rest = &rest[n..];
        let frames = match splitmix(&mut rng) % 4 {
            _ if n == 0 => usize::MAX,
            3 => usize::MAX,
            k => k as usize,
        };
        for _ in 0..frames {
            match reader.next_frame() {
                Ok(Some(frame)) => got.push(frame),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Ok(None) => panic!("end of stream before the writer closed"),
                Err(e) => return (got, Err(e)),
            }
        }
    }
    reader.get_mut().close();
    let (more, end) = drain(|| reader.next_frame());
    got.extend(more);
    (got, end)
}

fn drain_buffered(data: &[u8], chop: Chop) -> (Vec<Frame>, io::Result<()>) {
    let mut reader = FrameReader::new(HostileSource::new(data, chop));
    drain(|| reader.next_frame())
}

/// The lending API, call after call: each lent frame copied out before
/// the next call, which is as long as its bytes are valid.
fn lent(reader: &mut FrameReader<impl Source>) -> io::Result<Option<Frame>> {
    Ok(reader.lend_frame()?.map(|(tag, bytes, payload)| (tag, bytes, payload.into_owned())))
}

fn drain_lent(data: &[u8], chop: Chop) -> (Vec<Frame>, io::Result<()>) {
    let mut reader = FrameReader::new(HostileSource::new(data, chop));
    drain(|| lent(&mut reader))
}

/// `read_frame` call after call on one source: also proves it never
/// consumes a byte past the frame it returns.
fn drain_unbuffered(data: &[u8], chop: Chop) -> (Vec<Frame>, io::Result<()>) {
    let mut source = HostileSource::new(data, chop);
    drain(|| frame::read_frame(&mut source))
}

/// A stream cut at `cut` must yield exactly the frames that end at or
/// before the cut, then a clean end-of-stream if the cut is a frame
/// boundary and an `UnexpectedEof` error if it is not.
fn check_cut(wire: &[u8], boundaries: &[usize], frames: &[Frame], cut: usize, chop: Chop) {
    let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
    for (how, (got, end)) in [
        ("FrameReader", drain_buffered(&wire[..cut], chop)),
        ("read_frame", drain_unbuffered(&wire[..cut], chop)),
        ("ring", drain_ring(&wire[..cut], chop)),
    ] {
        assert_eq!(got.len(), whole, "{how}: frames before a cut at {cut}");
        assert!(got.iter().eq(&frames[..whole]), "{how}: frame contents before a cut at {cut}");
        if boundaries.contains(&cut) {
            assert!(end.is_ok(), "{how}: cut at boundary {cut} must be a clean EOF, got {end:?}");
        } else {
            let kind = end.as_ref().err().map(io::Error::kind);
            assert_eq!(
                kind,
                Some(io::ErrorKind::UnexpectedEof),
                "{how}: cut inside a frame at {cut}, got {end:?}"
            );
        }
    }
}

fn chop_strategy() -> impl Strategy<Value = Chop> {
    // Chunk caps from single bytes to more than the link buffer; every
    // second case on average also interrupts every third call.
    (any::<u64>(), 0u32..18, prop_oneof![Just(3u64), Just(u64::MAX)]).prop_map(
        |(seed, exp, interrupt_one_in)| Chop {
            seed,
            max_chunk: (1usize << exp) + (seed % 3) as usize,
            interrupt_one_in,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn chunking_never_changes_the_frames(seed in any::<u64>(), chop in chop_strategy()) {
        let frames = frames_from(seed);
        let (wire, _) = on_the_wire(&frames);
        for (how, (got, end)) in [
            ("FrameReader", drain_buffered(&wire, chop)),
            ("read_frame", drain_unbuffered(&wire, chop)),
            ("ring", drain_ring(&wire, chop)),
        ] {
            prop_assert!(end.is_ok(), "{how}: {end:?}");
            prop_assert!(got == frames, "{how}: decoded frames differ from the ones written");
        }
    }

    #[test]
    fn would_block_pauses_never_change_the_frames(seed in any::<u64>(), chop in chop_strategy()) {
        let frames = frames_from(seed);
        let (wire, _) = on_the_wire(&frames);
        let chop = Chop { interrupt_one_in: 3, ..chop };
        let mut reader = FrameReader::new(NonBlocking(HostileSource::new(&wire, chop)));
        let (got, end) = drain(|| loop {
            match reader.next_frame() {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                other => return other,
            }
        });
        prop_assert!(end.is_ok(), "{end:?}");
        prop_assert!(got == frames, "a WouldBlock pause changed the decoded frames");
    }

    #[test]
    fn chunking_never_changes_the_lent_frames(seed in any::<u64>(), chop in chop_strategy()) {
        let frames = frames_from(seed);
        let (wire, _) = on_the_wire(&frames);
        let (got, end) = drain_lent(&wire, chop);
        prop_assert!(end.is_ok(), "{end:?}");
        prop_assert!(got == frames, "lent frames differ from the ones written");
    }

    #[test]
    fn would_block_pauses_never_change_the_lent_frames(seed in any::<u64>(), chop in chop_strategy()) {
        let frames = frames_from(seed);
        let (wire, _) = on_the_wire(&frames);
        let chop = Chop { interrupt_one_in: 3, ..chop };
        let mut reader = FrameReader::new(NonBlocking(HostileSource::new(&wire, chop)));
        let (got, end) = drain(|| loop {
            match lent(&mut reader) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                other => return other,
            }
        });
        prop_assert!(end.is_ok(), "{end:?}");
        prop_assert!(got == frames, "a WouldBlock pause changed the lent frames");
    }

    #[test]
    fn every_cut_of_a_short_stream_is_clean_or_an_error(
        sizes in prop::collection::vec(0usize..40, 1..6),
        seed in any::<u64>(),
        chop in chop_strategy(),
    ) {
        let mut rng = seed;
        let frames: Vec<Frame> = sizes
            .iter()
            .map(|&len| (splitmix(&mut rng), splitmix(&mut rng), payload(&mut rng, len)))
            .collect();
        let (wire, boundaries) = on_the_wire(&frames);
        for cut in 0..=wire.len() {
            check_cut(&wire, &boundaries, &frames, cut, chop);
        }
    }

    #[test]
    fn cuts_around_refills_and_large_frames(seed in any::<u64>(), chop in chop_strategy()) {
        // Too long to cut at every byte: cut where the reader changes
        // state — around every frame boundary and prefix/header edge,
        // around every multiple of the link buffer — and at seeded
        // offsets in between.
        let frames = frames_from(seed);
        let (wire, boundaries) = on_the_wire(&frames);
        let mut rng = seed;
        let mut cuts: Vec<usize> = Vec::new();
        for &b in &boundaries {
            cuts.extend([b, b + 1, b + 3, b + 4, b + 5, b + FRAME_OVERHEAD - 1, b + FRAME_OVERHEAD]);
            cuts.extend([b + FRAME_OVERHEAD + 1, b.saturating_sub(1)]);
        }
        for refill in (LINK_BUF_BYTES..wire.len()).step_by(LINK_BUF_BYTES) {
            cuts.extend([refill - 1, refill, refill + 1]);
        }
        cuts.extend((0..16).map(|_| splitmix(&mut rng) as usize % wire.len()));
        cuts.retain(|&c| c <= wire.len());
        cuts.sort_unstable();
        cuts.dedup();
        // Small chunks on ~330 KiB per cut would dominate the suite;
        // the short-stream property above covers them at every byte.
        let chop = Chop { max_chunk: chop.max_chunk.max(1 << 12), ..chop };
        for cut in cuts {
            check_cut(&wire, &boundaries, &frames, cut, chop);
        }
    }

    #[test]
    fn frames_larger_than_the_ring_cross_it_in_pieces(seed in any::<u64>(), chop in chop_strategy()) {
        // `frames_from`'s sequence with frames one byte over, and twice
        // and a bit over, a whole ring spliced in; cut around every
        // multiple of the ring as well as at the end.
        let mut frames = frames_from(seed);
        let mut rng = seed;
        for len in [RING_BYTES - FRAME_OVERHEAD + 1, 2 * RING_BYTES + 77] {
            let at = splitmix(&mut rng) as usize % (frames.len() + 1);
            frames.insert(at, (splitmix(&mut rng), splitmix(&mut rng), payload(&mut rng, len)));
        }
        let (wire, boundaries) = on_the_wire(&frames);
        let chop = Chop { max_chunk: chop.max_chunk.max(1 << 12), ..chop };
        let (got, end) = drain_ring(&wire, chop);
        prop_assert!(end.is_ok(), "{end:?}");
        prop_assert!(got == frames, "the ring changed the decoded frames");
        for lap in (RING_BYTES..wire.len()).step_by(RING_BYTES) {
            for cut in [lap - 1, lap, lap + 1] {
                check_cut(&wire, &boundaries, &frames, cut, chop);
            }
        }
    }

    #[test]
    fn hostile_writer_receives_exactly_the_frame(
        seed in any::<u64>(),
        len in prop_oneof![0usize..64, 0usize..6000, Just(LINK_BUF_BYTES + 7)],
        chop in chop_strategy(),
    ) {
        let mut rng = seed;
        let (tag, bytes, payload) = (splitmix(&mut rng), splitmix(&mut rng), payload(&mut rng, len));
        let mut plain = Vec::new();
        frame::write_frame(&mut plain, tag, bytes, &payload).unwrap();
        let mut sink = HostileSink { out: Vec::new(), chop, interrupted: false };
        frame::write_frame(&mut sink, tag, bytes, &payload).unwrap();
        prop_assert!(sink.out == plain, "short writes / EINTR changed the bytes on the wire");
        prop_assert_eq!(plain.len(), FRAME_OVERHEAD + len);
    }
}

// ---------------------------------------------------------------------
// Bad length prefixes: rejected at once, with nothing allocated for them
// ---------------------------------------------------------------------

thread_local! {
    /// Largest single allocation this thread has requested since the
    /// last reset. Plain `Cell`, const-initialised and without a
    /// destructor, so the allocator may touch it at any time.
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each thread's largest request (the
/// default `realloc` goes through `alloc`, so every request is seen).
struct NotingAllocator;

fn note(layout: Layout) {
    let _ = LARGEST_REQUEST.try_with(|c| c.set(c.get().max(layout.size())));
}

// SAFETY: every method forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a thread-local
// `Cell<usize>` and never allocates.
unsafe impl GlobalAlloc for NotingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout);
        // SAFETY: as above. Forwarded so that a large zeroed request
        // stays lazily mapped instead of being written page by page.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: NotingAllocator = NotingAllocator;

/// Serves its bytes one at a time and then *blocks* — modelled as a
/// distinctive error, since a test cannot wait forever. A reader that
/// asks for more after a complete bad prefix would hang on a live link.
struct ThenSilence<'a>(&'a [u8]);

impl Read for ThenSilence<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some((first, rest)) = self.0.split_first() else {
            return Err(io::Error::other("the reader waited for bytes that never come"));
        };
        buf[0] = *first;
        self.0 = rest;
        Ok(1)
    }
}

impl Source for ThenSilence<'_> {}

#[test]
fn bad_length_prefixes_are_rejected_before_any_allocation() {
    let bad = (0..frame::HEADER_BYTES as u32).chain([MAX_FRAME_BYTES as u32 + 1, u32::MAX]);
    for len in bad {
        let prefix = len.to_le_bytes();
        let mut reader = FrameReader::new(ThenSilence(&prefix));
        let mut source = ThenSilence(&prefix);
        LARGEST_REQUEST.with(|c| c.set(0));
        let buffered = reader.next_frame();
        let unbuffered = frame::read_frame(&mut source);
        let largest = LARGEST_REQUEST.with(Cell::get);
        for (how, got) in [("FrameReader", buffered), ("read_frame", unbuffered)] {
            let kind = got.as_ref().err().map(io::Error::kind);
            assert_eq!(kind, Some(io::ErrorKind::InvalidData), "{how}: prefix {len}: {got:?}");
        }
        // The error's own message is all that may be allocated.
        assert!(largest < 512, "prefix {len} drove an allocation of {largest} bytes");
    }
}

#[test]
fn the_smallest_and_the_largest_legal_prefix_are_accepted() {
    // Guards the rejection test above against an off-by-one that
    // rejects everything: 16 (an empty payload) is a whole frame, and
    // MAX_FRAME_BYTES is legal — the stream here just ends before its
    // payload does, which is a different error.
    let mut empty = Vec::new();
    frame::write_frame(&mut empty, 7, 0, &[]).unwrap();
    assert_eq!(empty.len(), FRAME_OVERHEAD);
    assert_eq!(drain_buffered(&empty, Chop::GREEDY).0, vec![(7, 0, vec![])]);

    let mut max = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
    max.extend([0u8; 16]);
    let (got, end) = drain_buffered(&max, Chop::GREEDY);
    assert!(got.is_empty());
    assert_eq!(end.err().map(|e| e.kind()), Some(io::ErrorKind::UnexpectedEof));
}

/// A frame that fits the reader's buffer is lent where it lies: no
/// allocation at all, however many such frames a read brought in. One
/// larger than the buffer comes in the allocation it was read into.
#[test]
fn lending_a_frame_in_the_buffer_allocates_nothing() {
    let small: Vec<Frame> =
        (0..64u64).map(|i| (i, 8, vec![i as u8; (i as usize * 37) % 900])).collect();
    let large: Frame = (99, 8, vec![3; LINK_BUF_BYTES]);
    let (wire, _) = on_the_wire(&[&small[..], std::slice::from_ref(&large)].concat());
    let mut reader = FrameReader::new(&wire[..]);
    LARGEST_REQUEST.with(|c| c.set(0));
    for want in &small {
        let (tag, bytes, payload) = reader.lend_frame().unwrap().expect("a small frame");
        assert!(matches!(payload, Cow::Borrowed(_)), "frame {tag} was not lent in place");
        assert!((tag, bytes, &payload[..]) == (want.0, want.1, &want.2[..]));
    }
    assert_eq!(LARGEST_REQUEST.with(Cell::get), 0, "lending in-buffer frames allocated");
    let (tag, bytes, payload) = reader.lend_frame().unwrap().expect("the large frame");
    assert!(
        matches!(payload, Cow::Owned(_)),
        "a frame larger than the buffer has its own allocation"
    );
    assert!((tag, bytes, payload.into_owned()) == large);
    assert!(reader.lend_frame().unwrap().is_none());
}

// ---------------------------------------------------------------------
// Frames between the buffer and the ring: decoded where they lie
// ---------------------------------------------------------------------

/// Frame sizes (prefix and header included) from one byte over the
/// reader's buffer to the whole ring: every one is too large for the
/// buffer and fits the ring.
const BETWEEN: [usize; 5] =
    [LINK_BUF_BYTES + 1, LINK_BUF_BYTES + 21, 100_003, RING_BYTES / 2 + 9, RING_BYTES];

/// A frame of `len` bytes on the wire, its payload seeded.
fn frame_of(len: usize, seed: u64) -> Frame {
    let mut rng = seed;
    (splitmix(&mut rng), splitmix(&mut rng), payload(&mut rng, len - FRAME_OVERHEAD))
}

/// The next frame from a ring reader, which must be lent from the ring.
fn lent_from_ring(reader: &mut FrameReader<ring::RingReader>, want: &Frame) {
    let (tag, bytes, payload) = reader.lend_frame().expect("a whole frame").expect("not EOF");
    assert!(matches!(payload, Cow::Borrowed(_)), "a {}-byte payload was not lent", want.2.len());
    assert!((tag, bytes, &payload[..]) == (want.0, want.1, &want.2[..]), "lent frame differs");
}

/// A frame too large for the reader's buffer but not for the ring is lent
/// from the ring where it lies, with nothing allocated for it — also
/// where it straddles the end of the data area, at its length prefix, its
/// header or its payload. While it is not yet whole the reader waits for
/// it in the ring (`WouldBlock`), having released the frame before it, so
/// the writer has room for the rest.
#[test]
fn frames_between_the_buffer_and_the_ring_are_lent_where_they_lie() {
    // A lead frame, itself lent, puts the writer `lead` bytes into the
    // data area; the frame under test follows it and crosses the end
    // `RING_BYTES - lead` bytes in: in its prefix, in its header, and
    // half-way through.
    for (k, &len) in BETWEEN.iter().enumerate() {
        for (j, lead) in
            [RING_BYTES - 2, RING_BYTES - 9, RING_BYTES - len / 2].into_iter().enumerate()
        {
            let lead_frame = frame_of(lead, (k * 8 + j) as u64);
            let frame = frame_of(len, (k * 8 + j) as u64 + 100);
            let (wire, _) = on_the_wire(&[lead_frame.clone(), frame.clone()]);
            let (mut writer, ring) = ring::local_pair();
            let mut reader = FrameReader::new(ring);
            LARGEST_REQUEST.with(|c| c.set(0));
            let first = writer.publish(&wire);
            assert!(first < wire.len(), "the pair must not fit the ring at once");
            lent_from_ring(&mut reader, &lead_frame);
            let mut sent = first;
            while sent < wire.len() {
                let kind = reader.lend_frame().err().map(|e| e.kind());
                assert_eq!(kind, Some(io::ErrorKind::WouldBlock), "a partial frame is waited for");
                let n = writer.publish(&wire[sent..]);
                assert!(n > 0, "the reader released the lead frame: the rest fits");
                sent += n;
            }
            lent_from_ring(&mut reader, &frame);
            assert_eq!(LARGEST_REQUEST.with(Cell::get), 0, "lending from the ring allocated");
            let kind = reader.lend_frame().err().map(|e| e.kind());
            assert_eq!(kind, Some(io::ErrorKind::WouldBlock), "nothing more on a live ring");
            reader.get_mut().close();
            assert!(reader.lend_frame().unwrap().is_none(), "a drained closed ring is EOF");
        }
    }
}

/// A writer that dies inside such a frame: the reader gets exactly the
/// whole frames before the cut, then `UnexpectedEof` — never a
/// `WouldBlock` that would wait for bytes that cannot come.
#[test]
fn a_writer_closed_inside_a_frame_lent_from_the_ring_is_eof() {
    let frames: Vec<Frame> =
        BETWEEN.iter().enumerate().map(|(i, &len)| frame_of(len, i as u64)).collect();
    for (i, f) in frames.iter().enumerate() {
        let start = (RING_BYTES / 3) * (i % 3);
        let before = frame_of(start.max(LINK_BUF_BYTES + 1), i as u64 + 50);
        let (wire, boundaries) = on_the_wire(&[before.clone(), f.clone()]);
        let at = boundaries[1];
        for cut in [
            at + 1,
            at + 3,
            at + 4,
            at + FRAME_OVERHEAD - 1,
            at + FRAME_OVERHEAD + 1,
            wire.len() - 1,
        ] {
            let (mut writer, ring) = ring::local_pair();
            let mut reader = FrameReader::new(ring);
            let mut sent = 0;
            let mut got = Vec::new();
            let end = loop {
                sent += writer.publish(&wire[sent..cut]);
                if sent == cut {
                    reader.get_mut().close();
                }
                match lent(&mut reader) {
                    Ok(Some(frame)) => got.push(frame),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock && sent < cut => {}
                    other => break other,
                }
            };
            assert!(got == [before.clone()], "cut at {cut}: the whole frame before it");
            let kind = end.err().map(|e| e.kind());
            assert_eq!(kind, Some(io::ErrorKind::UnexpectedEof), "cut at {cut} of frame {i}");
        }
    }
}
