//! Steady-state allocation discipline of the streamed LeNet pipeline.
//!
//! The streaming path promises **zero per-image heap allocation** once its
//! scratch buffers reach steady state: drive assembly, im2col, pooling and
//! activation all reuse memory, and the per-call allocations (layer loads,
//! batched MVM outputs) are independent of how many images flow through.
//! A counting global allocator makes that claim testable: doubling the
//! batch size must not change the number of allocations.
//!
//! The counter is per thread: the test harness runs tests in parallel, and
//! a process-wide count would include the other tests' allocations. The
//! measured closures run under `with_thread_cap(1)`, so every allocation
//! they make happens on the counting thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gramc_core::{MacroConfig, NonidealityConfig};
use gramc_linalg::random::seeded_rng;
use gramc_nn::{GramcLenet, LeNet5, Precision, Tensor3};

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation if this thread is counting.
fn note_alloc() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCS.set(0);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (out, ALLOCS.get())
}

fn random_images(n: usize, seed: u64) -> Vec<Tensor3> {
    let mut rng = seeded_rng(seed);
    (0..n)
        .map(|_| {
            let data = (0..28 * 28)
                .map(|_| gramc_linalg::random::standard_normal(&mut rng).abs().min(1.0))
                .collect();
            Tensor3::from_vec(1, 28, 28, data)
        })
        .collect()
}

#[test]
fn streamed_allocation_count_does_not_scale_with_batch_size() {
    // Quantization-only non-idealities: no RNG draws, so both counted runs
    // execute the exact same code path.
    let config =
        MacroConfig { nonideal: NonidealityConfig::quantization_only(4), ..MacroConfig::default() };
    let model = LeNet5::new(&mut seeded_rng(7));
    let mut backend = GramcLenet::new(model, Precision::Int4, config, 16, 11).unwrap();
    let images = random_images(8, 13);

    // Warm-up sizes the grow-only scratch buffers for the largest batch.
    backend.logits_matrix(&images).unwrap();
    backend.logits_matrix(&images[..4]).unwrap();

    // Serial thread budget keeps the parallel fan-out from spawning (and
    // allocating for) worker threads on multi-core machines.
    let ((), c4) = counted(|| {
        gramc_linalg::parallel::with_thread_cap(1, || {
            backend.logits_matrix(&images[..4]).unwrap();
        })
    });
    let ((), c8) = counted(|| {
        gramc_linalg::parallel::with_thread_cap(1, || {
            backend.logits_matrix(&images).unwrap();
        })
    });

    assert!(c4 > 0, "sanity: the pipeline does allocate per call");
    // Twice the images may not cost more allocations (small slack covers
    // amortized growth of long-lived registries).
    assert!(
        c8 <= c4 + 16,
        "allocation count scales with batch size: {c4} allocs for 4 images, {c8} for 8"
    );
}

/// The hardware counters meter every analog event of the stream while
/// costing nothing on the hot path: two identical counted runs must
/// advance the counters by the same (nonzero) delta and spend exactly the
/// same number of heap allocations — relaxed atomic increments, no boxing,
/// no logging.
#[cfg(feature = "telemetry")]
#[test]
fn telemetry_meters_the_stream_without_allocating() {
    let config =
        MacroConfig { nonideal: NonidealityConfig::quantization_only(4), ..MacroConfig::default() };
    let model = LeNet5::new(&mut seeded_rng(7));
    let mut backend = GramcLenet::new(model, Precision::Int4, config, 16, 11).unwrap();
    let images = random_images(4, 29);
    backend.logits_matrix(&images).unwrap(); // steady-state the scratch

    let before = backend.hw_snapshot();
    let ((), c_a) = counted(|| {
        gramc_linalg::parallel::with_thread_cap(1, || {
            backend.logits_matrix(&images).unwrap();
        })
    });
    let mid = backend.hw_snapshot();
    let ((), c_b) = counted(|| {
        gramc_linalg::parallel::with_thread_cap(1, || {
            backend.logits_matrix(&images).unwrap();
        })
    });
    let after = backend.hw_snapshot();

    let (d1, d2) = (mid.since(&before), after.since(&mid));
    assert!(d1.dac_drives > 0 && d1.adc_conversions > 0, "the stream was metered");
    assert_eq!(d1, d2, "identical runs must meter identically");
    assert_eq!(c_a, c_b, "metering must not add a single allocation");
}
