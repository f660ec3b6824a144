//! `parse` stores names in arenas and sizes its tables from the deck, so
//! a deck costs a handful of heap allocations, not several per card.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use emgrid_spice::writer::write_string;
use emgrid_spice::{parse, GridSpec};

/// The system allocator, counting each allocation the calling thread
/// makes (a `realloc` counts as one).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so each carries the caller's guarantees to the system allocator
// unchanged; counting touches only a const-initialized thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged, as above.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged, as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged, as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged, as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn parsing_a_pg5_deck_makes_fewer_than_64_allocations() {
    let deck = write_string(&GridSpec::pg5().generate());
    let before = allocations();
    let netlist = parse(&deck).expect("generated deck parses");
    let made = allocations() - before;
    assert_eq!(netlist.elements().len(), deck.lines().count() - 1);
    assert!(made < 64, "{made} allocations");
}
