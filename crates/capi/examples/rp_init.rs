//! `rp_init` called the way a C program calls it, for `tests/preload.rs`.
//!
//! Run under `LD_PRELOAD=librp.so`: it finds `rp_init` and `rp_close`
//! with `dlsym`, and (`#![no_main]`: no Rust runtime start-up) allocates
//! nothing before its mode says so.
//!
//! * `rp_init first <path>`: `rp_init(path, 0)` is the process's first
//!   allocating call; then `rp_close()`.
//! * `rp_init after <path>`: a `malloc` and `free` first, then
//!   `rp_init(path, 0)` and `rp_close()`.
//!
//! Exits 0 if `rp_init` returned 0, 1 if it returned -1, 2 on a usage
//! error or a missing symbol.

#![no_main]

use std::ffi::{c_char, c_int, c_void, CStr};

extern "C" {
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    fn malloc(size: usize) -> *mut c_void;
    fn free(p: *mut c_void);
}

/// glibc's `RTLD_DEFAULT`: search the global scope, preloads first.
const RTLD_DEFAULT: *mut c_void = std::ptr::null_mut();

type RpInit = unsafe extern "C" fn(*const c_char, usize) -> c_int;
type RpClose = extern "C" fn() -> c_int;

#[no_mangle]
extern "C" fn main(argc: c_int, argv: *const *const c_char) -> c_int {
    if argc != 3 {
        return 2;
    }
    // SAFETY: argv holds argc NUL-terminated strings.
    let (mode, path) = unsafe { (CStr::from_ptr(*argv.add(1)).to_bytes(), *argv.add(2)) };
    // SAFETY: NUL-terminated names; a non-null result is the function
    // librp.so exports under that name, with this signature.
    let (init, close) = unsafe {
        let init = dlsym(RTLD_DEFAULT, c"rp_init".as_ptr());
        let close = dlsym(RTLD_DEFAULT, c"rp_close".as_ptr());
        if init.is_null() || close.is_null() {
            return 2;
        }
        (std::mem::transmute::<*mut c_void, RpInit>(init), std::mem::transmute::<*mut c_void, RpClose>(close))
    };
    match mode {
        b"first" => {}
        // SAFETY: a fresh block, freed once; black_box keeps the
        // optimizer from deleting the pair.
        b"after" => unsafe { free(std::hint::black_box(malloc(64))) },
        _ => return 2,
    }
    // SAFETY: `path` is a NUL-terminated argument.
    let status = unsafe { init(path, 0) };
    close();
    c_int::from(status != 0)
}
