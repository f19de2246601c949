//! `perfbench` — see the library docs and `perfbench/README.md`.
//!
//! This binary root holds the counting global allocator (the only
//! `unsafe` in the benchmark); everything else lives in the library,
//! which forbids unsafe code.

#![deny(rust_2018_idioms)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to [`System`] and counts `alloc` and `realloc` calls.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the relaxed counter
// publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller's obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Re-executes the process once with address-space randomisation off.
///
/// Where the heap, stacks and mappings land changes cache behaviour
/// enough that run-to-run spread at a fixed seed was several times the
/// spread within a run; a fixed layout removes that noise. If the
/// kernel refuses, the run goes on with the randomised layout.
#[cfg(target_os = "linux")]
fn fix_address_layout() {
    use std::os::raw::{c_int, c_ulong};
    use std::os::unix::process::CommandExt;
    const ADDR_NO_RANDOMIZE: c_ulong = 0x0040000;
    const QUERY: c_ulong = 0xffff_ffff;
    extern "C" {
        fn personality(persona: c_ulong) -> c_int;
    }
    // SAFETY: `personality(0xffffffff)` only reads this process's
    // execution domain.
    let current = unsafe { personality(QUERY) };
    if current < 0 || (current as c_ulong) & ADDR_NO_RANDOMIZE != 0 {
        return;
    }
    // SAFETY: sets one flag on this process's execution domain; it
    // takes effect at the next exec and touches no memory.
    if unsafe { personality(current as c_ulong | ADDR_NO_RANDOMIZE) } < 0 {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let err = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .exec();
    eprintln!("perfbench: re-exec with a fixed address layout failed ({err}); continuing");
}

#[cfg(not(target_os = "linux"))]
fn fix_address_layout() {}

fn main() {
    fix_address_layout();
    // Re-exec'd socket workers enter worker mode here and never return.
    perfbench::service::worker_main_if_requested();
    let args = match perfbench::parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", perfbench::USAGE);
            std::process::exit(2);
        }
    };
    std::process::exit(perfbench::main_with(&args, alloc_calls));
}
