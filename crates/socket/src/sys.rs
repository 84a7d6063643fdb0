//! The few Linux calls the socket backend needs that std does not wrap,
//! declared by hand: `memfd_create(2)` and `mmap(2)`/`munmap(2)` for the
//! rings (their data areas mapped twice, back to back) and the world page, and `sendmsg(2)`/`recvmsg(2)` to pass their
//! descriptors with a preamble or GO (`SCM_RIGHTS`). The struct layouts
//! are glibc's on Linux. The futex is `native::sync::futex`'s.

use std::ffi::{c_char, c_int, c_long, c_uint, c_void, CStr};
use std::io;
use std::os::fd::{AsRawFd, BorrowedFd, FromRawFd, OwnedFd};
use std::os::unix::net::UnixStream;
use std::ptr::{self, NonNull};

const MFD_CLOEXEC: c_uint = 0x1;
const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const MAP_SHARED: c_int = 0x1;
const MAP_FIXED: c_int = 0x10;
const SOL_SOCKET: c_int = 1;
const SCM_RIGHTS: c_int = 1;
const MSG_NOSIGNAL: c_int = 0x4000;
const MSG_CMSG_CLOEXEC: c_int = 0x4000_0000;

#[repr(C)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

#[repr(C)]
struct MsgHdr {
    name: *mut c_void,
    namelen: c_uint,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut c_void,
    controllen: usize,
    flags: c_int,
}

/// `struct cmsghdr`; the descriptors follow it, at `CMSG_DATA`.
#[repr(C)]
struct CmsgHdr {
    len: usize,
    level: c_int,
    ty: c_int,
}

const CMSG_HDR: usize = std::mem::size_of::<CmsgHdr>();

extern "C" {
    #[link_name = "memfd_create"]
    fn c_memfd_create(name: *const c_char, flags: c_uint) -> c_int;
    #[link_name = "mmap"]
    fn c_mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: c_long,
    ) -> *mut c_void;
    #[link_name = "munmap"]
    fn c_munmap(addr: *mut c_void, len: usize) -> c_int;
    #[link_name = "sendmsg"]
    fn c_sendmsg(fd: c_int, msg: *const MsgHdr, flags: c_int) -> isize;
    #[link_name = "recvmsg"]
    fn c_recvmsg(fd: c_int, msg: *mut MsgHdr, flags: c_int) -> isize;
}

/// An anonymous memory file (close-on-exec), empty until `set_len`.
pub fn memfd(name: &CStr) -> io::Result<OwnedFd> {
    // SAFETY: `name` is a valid NUL-terminated string for the call.
    let fd = unsafe { c_memfd_create(name.as_ptr(), MFD_CLOEXEC) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: the kernel just returned this descriptor, and nothing
    // else owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// Map the first `len` bytes of `fd` read-write and shared: stores
/// through the mapping are seen by every process that maps the file.
pub fn map_shared(fd: BorrowedFd<'_>, len: usize) -> io::Result<NonNull<u8>> {
    // SAFETY: a fresh mapping chosen by the kernel aliases no Rust
    // object; failure is `MAP_FAILED`, checked below.
    let at = unsafe {
        c_mmap(ptr::null_mut(), len, PROT_READ | PROT_WRITE, MAP_SHARED, fd.as_raw_fd(), 0)
    };
    if at as isize == -1 {
        return Err(io::Error::last_os_error());
    }
    NonNull::new(at.cast()).ok_or_else(|| io::Error::other("mmap returned null"))
}

/// Map `fd` like [`map_shared`], `len` bytes long, with its last
/// `mirror` bytes mapped a second time right behind them: the file's
/// `[len - mirror, len)` appears twice in a row, so any run of at most
/// `mirror` bytes that starts in the first copy is one slice. Both
/// `len` and `len - mirror` must be multiples of the page size. Undo
/// with [`unmap`] over `len + mirror` bytes.
pub fn map_mirrored(fd: BorrowedFd<'_>, len: usize, mirror: usize) -> io::Result<NonNull<u8>> {
    assert!(mirror <= len, "a mirror longer than the mapping");
    // One mapping of the whole length reserves the address range; its
    // last `mirror` bytes lie past the end of the file and are replaced
    // before anything can touch them.
    let at = map_shared(fd, len + mirror)?;
    // SAFETY: `MAP_FIXED` over the tail of the mapping just made, which
    // nothing refers into yet; failure is `MAP_FAILED`, checked below.
    let tail = unsafe {
        c_mmap(
            at.as_ptr().add(len).cast(),
            mirror,
            PROT_READ | PROT_WRITE,
            MAP_SHARED | MAP_FIXED,
            fd.as_raw_fd(),
            (len - mirror) as c_long,
        )
    };
    if tail as isize == -1 {
        let e = io::Error::last_os_error();
        // SAFETY: the mapping made above, not handed out.
        unsafe { unmap(at, len + mirror) };
        return Err(e);
    }
    Ok(at)
}

/// Undo [`map_shared`] or [`map_mirrored`].
///
/// # Safety
/// `at` and `len` are a live mapping from [`map_shared`] (or
/// [`map_mirrored`], with the mirror counted in `len`), and nothing
/// refers into it any more.
pub unsafe fn unmap(at: NonNull<u8>, len: usize) {
    // SAFETY: the caller's contract. A failure would leave the mapping
    // in place, which is a leak, not unsoundness.
    unsafe { c_munmap(at.as_ptr().cast(), len) };
}

/// Send `bytes` and the descriptor `fd` in one `sendmsg` on a blocking
/// stream socket. `bytes` must be small enough that the kernel takes
/// it whole (a connection preamble, GO): a short send is an error.
pub fn send_with_fd(sock: &UnixStream, bytes: &[u8], fd: BorrowedFd<'_>) -> io::Result<()> {
    let mut control = [0u64; 4];
    let cmsg_len = CMSG_HDR + std::mem::size_of::<c_int>();
    // SAFETY: `control` is 32 bytes, aligned for `CmsgHdr`, and holds
    // the header plus one descriptor (20 bytes).
    unsafe {
        let hdr = control.as_mut_ptr().cast::<CmsgHdr>();
        hdr.write(CmsgHdr { len: cmsg_len, level: SOL_SOCKET, ty: SCM_RIGHTS });
        hdr.cast::<u8>().add(CMSG_HDR).cast::<c_int>().write_unaligned(fd.as_raw_fd());
    }
    let mut iov = IoVec { base: bytes.as_ptr().cast_mut().cast(), len: bytes.len() };
    let msg = MsgHdr {
        name: ptr::null_mut(),
        namelen: 0,
        iov: &mut iov,
        iovlen: 1,
        control: control.as_mut_ptr().cast(),
        // CMSG_SPACE(sizeof(int)): the header and the descriptor,
        // padded to the alignment of `usize`.
        controllen: cmsg_len.next_multiple_of(std::mem::size_of::<usize>()),
        flags: 0,
    };
    loop {
        // SAFETY: `msg` points at live buffers for the whole call; the
        // kernel only reads them.
        let sent = unsafe { c_sendmsg(sock.as_raw_fd(), &msg, MSG_NOSIGNAL) };
        if sent >= 0 {
            return if sent as usize == bytes.len() {
                Ok(())
            } else {
                Err(io::Error::new(io::ErrorKind::WriteZero, "short preamble send"))
            };
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// `recvmsg` into `buf`, returning the byte count (0: EOF) and the
/// descriptor that rode with those bytes, if any. Any further
/// descriptors in the same message are closed.
pub fn recv_with_fd(sock: &UnixStream, buf: &mut [u8]) -> io::Result<(usize, Option<OwnedFd>)> {
    let mut control = [0u64; 8];
    let mut iov = IoVec { base: buf.as_mut_ptr().cast(), len: buf.len() };
    let mut msg = MsgHdr {
        name: ptr::null_mut(),
        namelen: 0,
        iov: &mut iov,
        iovlen: 1,
        control: control.as_mut_ptr().cast(),
        controllen: std::mem::size_of_val(&control),
        flags: 0,
    };
    let got = loop {
        // SAFETY: `msg` points at live, exclusively borrowed buffers of
        // the sizes it states for the whole call.
        let got = unsafe { c_recvmsg(sock.as_raw_fd(), &mut msg, MSG_CMSG_CLOEXEC) };
        if got >= 0 {
            break got as usize;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    };
    let mut fds = Vec::new();
    let mut at = 0;
    // The kernel wrote `controllen` bytes of whole, aligned cmsgs.
    while at + CMSG_HDR <= msg.controllen {
        // SAFETY: in bounds (checked above) and aligned: every cmsg
        // starts on a `usize` boundary of the `u64` buffer.
        let hdr = unsafe { control.as_ptr().cast::<u8>().add(at).cast::<CmsgHdr>().read() };
        if hdr.len < CMSG_HDR || at + hdr.len > msg.controllen {
            break;
        }
        if hdr.level == SOL_SOCKET && hdr.ty == SCM_RIGHTS {
            for i in 0..(hdr.len - CMSG_HDR) / std::mem::size_of::<c_int>() {
                // SAFETY: inside this cmsg's data, which the kernel
                // filled with descriptors it installed in this process.
                let fd = unsafe {
                    control
                        .as_ptr()
                        .cast::<u8>()
                        .add(at + CMSG_HDR + i * std::mem::size_of::<c_int>())
                        .cast::<c_int>()
                        .read_unaligned()
                };
                // SAFETY: a descriptor the kernel just gave this process.
                fds.push(unsafe { OwnedFd::from_raw_fd(fd) });
            }
        }
        at += hdr.len.next_multiple_of(std::mem::size_of::<usize>());
    }
    // Extra descriptors close as `fds` drops.
    let fd = (!fds.is_empty()).then(|| fds.swap_remove(0));
    Ok((got, fd))
}
