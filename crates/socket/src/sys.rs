//! The few Linux calls the socket backend needs that std does not wrap,
//! declared by hand: `memfd_create(2)` and `mmap(2)`/`munmap(2)` for the
//! world file (its front mapped once, each ring's data area twice, back
//! to back), and `sendmsg(2)`/`recvmsg(2)` to pass its descriptor with
//! GO (`SCM_RIGHTS`). The struct layouts are glibc's on Linux. The futex
//! is `native::sync::futex`'s.

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

/// Map `len` bytes of `fd` from `offset` on read-write and shared, at
/// `at` (`MAP_FIXED`) unless it is null, else where the kernel chooses:
/// stores through the mapping are seen by every process that maps the
/// file.
///
/// # Safety
/// A non-null `at` starts `len` bytes of a mapping the caller owns and
/// nothing refers into.
unsafe fn map(
    at: *mut c_void,
    fd: BorrowedFd<'_>,
    offset: usize,
    len: usize,
) -> io::Result<NonNull<u8>> {
    let flags = if at.is_null() { MAP_SHARED } else { MAP_SHARED | MAP_FIXED };
    let prot = PROT_READ | PROT_WRITE;
    // SAFETY: a fresh mapping chosen by the kernel aliases no Rust
    // object, and a fixed one replaces only what the caller owns (the
    // contract above); failure is `MAP_FAILED`, checked below.
    let at = unsafe { c_mmap(at, len, prot, flags, fd.as_raw_fd(), offset as c_long) };
    if at as isize == -1 {
        return Err(io::Error::last_os_error());
    }
    NonNull::new(at.cast()).ok_or_else(|| io::Error::other("mmap returned null"))
}

/// Map the first `len` bytes of `fd` read-write and shared.
pub fn map_shared(fd: BorrowedFd<'_>, len: usize) -> io::Result<NonNull<u8>> {
    // SAFETY: no address: the kernel chooses a fresh range.
    unsafe { map(ptr::null_mut(), fd, 0, len) }
}

/// Map the `len` bytes of `fd` from `offset` on twice, back to back: any
/// run of at most `len` bytes that starts in the first copy is one
/// slice. `offset` and `len` must be multiples of the page size. Undo
/// with [`unmap`] over `2 * len` bytes.
pub fn map_mirrored(fd: BorrowedFd<'_>, offset: usize, len: usize) -> io::Result<NonNull<u8>> {
    // One mapping of twice the length reserves the address range; its
    // second half is replaced before anything can touch it.
    // SAFETY: no address: the kernel chooses a fresh range.
    let at = unsafe { map(ptr::null_mut(), fd, offset, 2 * len)? };
    // SAFETY: the second half of the mapping just made, which is `len`
    // bytes long and not handed out.
    let mirrored = unsafe { map(at.as_ptr().add(len).cast(), fd, offset, len) };
    if let Err(e) = mirrored {
        // SAFETY: the mapping made above, not handed out.
        unsafe { unmap(at, 2 * len) };
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
/// it whole (GO): a short send is an error.
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
                Err(io::Error::new(io::ErrorKind::WriteZero, "short send"))
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
