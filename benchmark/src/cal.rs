//! The reference kernels that slices are timed in units of.
//!
//! A shared host drifts between speeds tens of percent apart for seconds
//! at a time, so a slice's wall time says as much about the neighbours as
//! about the code. Immediately before and after every slice the timing
//! rank runs one of these kernels — std only, never calling repo code —
//! and the slice is reported as
//! `wall × NOMINAL / mean(cal_before, cal_after)`: its duration on a host
//! that runs the kernel in exactly `NOMINAL`. The kernels exercise what
//! the workloads spend their time in (small socket reads and writes; bulk
//! allocation and copying from beyond the private caches, and converting
//! doubles one at a time), because an ALU-only loop under-corrects
//! syscall- and memory-bound slices and a copy-only loop under-corrects
//! `socket_bulk` (README.md has the comparisons).
//!
//! FROZEN: the kernels, their round counts and `NOMINAL_NS` define the
//! unit of every reported time. Changing them changes every number; that
//! needs a benchmark issue of its own and a re-measured baseline.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;

use crate::host::mono_ns;

/// Which reference kernel a workload is timed against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Per-message work: small writes and reads through a socket pair.
    Msg,
    /// Per-byte work: 64 KiB buffers allocated, copied and piped, then
    /// 64 KiB of doubles converted to bytes and back one at a time.
    Bulk,
}

/// What one run of either kernel takes on the build host at its usual
/// speed, ns — so that calibrated time reads like wall time there.
pub const NOMINAL_NS: f64 = 2_500_000.0;

const MSG_ROUNDS: usize = 1_500;
const BULK_PIPE_ROUNDS: usize = 96;
const BULK_CODEC_ROUNDS: usize = 64;
const BULK_BYTES: usize = 64 << 10;
/// Source buffers the bulk kernel rotates through: 2 MiB, so that its
/// copies miss the private caches the way the workload's do and it slows
/// down with the workload when a neighbour thrashes the shared cache.
const BULK_POOL: usize = 32;

/// One kernel's working state, set up once per process so that a run
/// allocates nothing but what the kernel itself measures.
pub struct Calibrator {
    kernel: Kernel,
    a: UnixStream,
    b: UnixStream,
    /// `Msg`: one 4 KiB buffer; `Bulk`: the pool.
    sources: Vec<Vec<u8>>,
    next: usize,
    sink: Vec<u8>,
    /// `Bulk`: 64 KiB of doubles for the conversion rounds.
    doubles: Vec<f64>,
}

impl Calibrator {
    pub fn new(kernel: Kernel) -> Calibrator {
        let (a, b) = UnixStream::pair().expect("socket pair for the reference kernel");
        let (count, bytes) = match kernel {
            Kernel::Msg => (1, 4096),
            Kernel::Bulk => (BULK_POOL, BULK_BYTES),
        };
        let sources = (0..count as u32)
            .map(|p| (0..bytes as u32).map(|i| (i * 31 + p) as u8).collect())
            .collect();
        let doubles = match kernel {
            Kernel::Msg => Vec::new(),
            Kernel::Bulk => (0..BULK_BYTES / 8).map(|i| i as f64 * 1.5).collect(),
        };
        Calibrator { kernel, a, b, sources, next: 0, sink: vec![0u8; bytes], doubles }
    }

    /// Run the kernel once and return its wall time in ns.
    pub fn run(&mut self) -> u64 {
        let t0 = mono_ns();
        match self.kernel {
            Kernel::Msg => self.cal_msg(),
            Kernel::Bulk => self.cal_bulk(),
        }
        mono_ns() - t0
    }

    /// A frame's worth of small writes and reads, and a small allocation
    /// and copy, per round: the shape of one fine-grained stream element.
    fn cal_msg(&mut self) {
        let mut hdr = [0u8; 20];
        let mut body = [0u8; 24];
        for i in 0..MSG_ROUNDS {
            hdr[0] = i as u8;
            self.a.write_all(&hdr).expect("reference kernel write");
            self.a.write_all(&body).expect("reference kernel write");
            self.b.read_exact(&mut hdr).expect("reference kernel read");
            self.b.read_exact(&mut body).expect("reference kernel read");
            let copy = std::hint::black_box(self.sources[0].clone());
            body[1] = copy[i % copy.len()];
        }
        std::hint::black_box(&body);
    }

    /// The shape of one bulk stream element, in two halves of about
    /// equal time. Pipe rounds: a fresh 64 KiB allocation filled from the
    /// pool, written to the socket, read back and copied once more.
    /// Conversion rounds: 8,192 doubles appended one by one, as bytes, to
    /// a vector grown from empty, and collected back into doubles. When
    /// the host slows down, copying and syscalls slow down less than
    /// `socket_bulk` does and the element-wise loops slow down more; the
    /// two together follow it (README.md).
    fn cal_bulk(&mut self) {
        for i in 0..BULK_PIPE_ROUNDS {
            self.next = (self.next + 1) % self.sources.len();
            let mut copy = std::hint::black_box(self.sources[self.next].clone());
            copy[0] = i as u8;
            self.a.write_all(&copy).expect("reference kernel write");
            self.b.read_exact(&mut self.sink).expect("reference kernel read");
            copy.copy_from_slice(&self.sink);
            std::hint::black_box(&copy);
        }
        for i in 0..BULK_CODEC_ROUNDS {
            let mut bytes: Vec<u8> = Vec::new();
            for x in &self.doubles {
                bytes.extend_from_slice(&std::hint::black_box(*x).to_le_bytes());
            }
            bytes[0] = i as u8;
            let back: Vec<f64> = bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(std::hint::black_box(c).try_into().expect("8 bytes")))
                .collect();
            std::hint::black_box(back);
        }
    }
}

/// A slice's duration in reference-kernel time: `wall_ns` scaled by how
/// much slower (or faster) than nominal the kernel ran around it.
pub fn calibrated_ns(wall_ns: u64, cal_before: u64, cal_after: u64) -> f64 {
    let cal = (cal_before + cal_after) as f64 / 2.0;
    wall_ns as f64 * NOMINAL_NS / cal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_by_the_kernel_ratio() {
        // Host ran the kernel at exactly nominal speed: calibrated == raw.
        let n = NOMINAL_NS as u64;
        assert_eq!(calibrated_ns(50_000_000, n, n), 50_000_000.0);
        // Host 25 % slow (the kernel took 1.5x and 1.0x nominal, 1.25x on
        // average): the slice is credited 1/1.25 of its wall time.
        let got = calibrated_ns(50_000_000, n * 3 / 2, n);
        assert!((got - 40_000_000.0).abs() < 1.0, "{got}");
        // Host twice as fast as nominal: the slice counts double.
        assert_eq!(calibrated_ns(1_000, n / 2, n / 2), 2_000.0);
    }

    #[test]
    fn kernels_run_and_take_time() {
        assert!(Calibrator::new(Kernel::Msg).run() > 0);
        assert!(Calibrator::new(Kernel::Bulk).run() > 0);
    }
}
