//! A corrupt `.lsim` header count must come back as a typed error before
//! the reader asks for any memory: a huge allocation request aborts the
//! process, which no caller can catch. A counting allocator records the
//! bytes this thread requests while `object::read` runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use liquid_simd_isa::{asm, object, IsaError};

struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a const-initialised thread-local, so counting never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes this thread asks for while `f` runs.
fn requested<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

#[test]
fn corrupt_counts_are_typed_errors_with_no_allocation_request() {
    let p = asm::assemble(".data\n.i32 A: 1, 2\n.text\nmain:\n    halt\n").unwrap();
    let good = object::write(&p).unwrap();
    let (ok, _) = requested(|| object::read(&good));
    assert!(ok.is_ok());
    // Header offsets of the four counts.
    for (offset, what) in [
        (16, "object file (code word count)"),
        (20, "object file (data byte count)"),
        (24, "object file (symbol count)"),
        (28, "object file (label count)"),
    ] {
        let mut bytes = good.clone();
        bytes[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (got, bytes_requested) = requested(|| object::read(&bytes));
        assert_eq!(
            got.unwrap_err(),
            IsaError::Decode {
                what,
                value: u32::MAX
            }
        );
        assert_eq!(bytes_requested, 0, "{what}");
    }
}
