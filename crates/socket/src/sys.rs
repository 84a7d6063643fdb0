//! The few Linux calls the socket backend needs that std does not wrap,
//! declared by hand: `memfd_create(2)` and `mmap(2)`/`munmap(2)` for the
//! world file (its front mapped once, each ring's data area twice, back
//! to back), and `fcntl(2)`'s `F_SETFD`, so that a rank process inherits
//! its two descriptors and nothing it spawns does. The futex is
//! `native::sync::futex`'s.

use std::ffi::{c_char, c_int, c_long, c_uint, c_void, CStr};
use std::io;
use std::os::fd::{AsRawFd, BorrowedFd, FromRawFd, OwnedFd, RawFd};
use std::ptr::{self, NonNull};

const MFD_CLOEXEC: c_uint = 0x1;
const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const MAP_SHARED: c_int = 0x1;
const MAP_FIXED: c_int = 0x10;
const F_SETFD: c_int = 2;
const FD_CLOEXEC: c_int = 1;

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
    #[link_name = "fcntl"]
    fn c_fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
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

/// Set or clear `fd`'s close-on-exec flag, its one descriptor flag.
pub fn cloexec(fd: RawFd, on: bool) -> io::Result<()> {
    // SAFETY: `F_SETFD` takes an int and touches no memory; a descriptor
    // that is not open is `EBADF`.
    if unsafe { c_fcntl(fd, F_SETFD, if on { FD_CLOEXEC } else { 0 }) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}
