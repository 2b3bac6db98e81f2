//! A frame header is untrusted: `Wire::read_msg` may only allocate for
//! body bytes that actually arrive, not for the length the header
//! announces. A counting global allocator measures the bytes one read
//! allocates on this thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use trigon_core::Error;
use trigon_serve::protocol::MAX_FRAME_BYTES;
use trigon_serve::Wire;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: delegates straight to the system allocator; the thread-local
// counter is const-initialized with a non-Drop type, so bumping it
// cannot recurse into the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + l.size() as u64));
        System.alloc(l)
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + l.size() as u64));
        System.alloc_zeroed(l)
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + new_size as u64));
        System.realloc(p, l, new_size)
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocated_on_this_thread() -> u64 {
    ALLOCATED.with(Cell::get)
}

#[test]
fn max_size_header_with_a_short_body_allocates_only_what_arrives() {
    let mut input = MAX_FRAME_BYTES.to_be_bytes().to_vec();
    input.extend_from_slice(&[b' '; 16]);
    let mut r = &input[..];

    let before = allocated_on_this_thread();
    let result = Wire::Framed.read_msg(&mut r);
    let allocated = allocated_on_this_thread() - before;

    let err = result.expect_err("a truncated frame must fail");
    assert!(matches!(err, Error::Io { .. }), "{err}");
    assert!(
        allocated < 1 << 20,
        "{allocated} bytes allocated for a 16-byte body"
    );
}
