//! Golden samples for the generated traces: every simulation result in
//! `results/` depends on these exact values, so lazily generated traces
//! must reproduce the samples of the eager generator bit for bit, in any
//! read order and from any thread.

use std::sync::Barrier;

use ehs_energy::trace::TRACE_INTERVAL;
use ehs_energy::{PowerTrace, TraceKind, DEFAULT_TRACE_LEN};
use ehs_model::SimTime;

/// The Table-I trace seed.
const SEED: u64 = 0xE45;
const CHUNK: usize = PowerTrace::CHUNK_LEN;
const INDICES: [usize; 5] = [0, CHUNK - 1, CHUNK, 1_234_567, DEFAULT_TRACE_LEN - 1];

/// Sample values (watts) at [`INDICES`] of each source's
/// `DEFAULT_TRACE_LEN` trace, recorded from the eager generator.
const GOLDEN: [(TraceKind, [f64; 5]); 3] = [
    (
        TraceKind::RfHome,
        [
            8.152862905896322e-6,
            0.0002286309573142491,
            0.0002327529724241461,
            8.311564604029191e-6,
            0.00025965866493259863,
        ],
    ),
    (
        TraceKind::Solar,
        [
            5.8660882991727476e-5,
            6.693138433234378e-5,
            6.481790646365522e-5,
            5.720167628983347e-5,
            4.5816238608512245e-5,
        ],
    ),
    (
        TraceKind::Thermal,
        [
            4.8637753606562654e-5,
            4.918451164504141e-5,
            5.118765873043935e-5,
            4.8520579557725585e-5,
            5.0243934608369774e-5,
        ],
    ),
];

/// The middle of window `idx`, clear of rounding at window edges.
fn at(idx: usize) -> SimTime {
    TRACE_INTERVAL * (idx as f64 + 0.5)
}

#[test]
fn generated_samples_match_the_eager_generator() {
    for (kind, golden) in GOLDEN {
        let trace = PowerTrace::generate(kind, SEED, DEFAULT_TRACE_LEN);
        // Read back to front, so the first read forces the whole trace
        // and the rest hit already published chunks.
        for (&idx, &want) in INDICES.iter().zip(&golden).rev() {
            let got = trace.power_at(at(idx)).watts();
            assert_eq!(got.to_bits(), want.to_bits(), "{kind} sample {idx}: {got:e} != {want:e}");
        }
        assert_eq!(trace.generated_len(), DEFAULT_TRACE_LEN);
    }
}

#[test]
fn reads_in_any_order_see_the_in_order_samples() {
    let len = 5 * CHUNK + 123;
    for kind in TraceKind::ALL {
        let in_order: Vec<f64> =
            PowerTrace::generate(kind, SEED, len).samples().map(|p| p.watts()).collect();
        let trace = PowerTrace::generate(kind, SEED, len);
        // A stride coprime with `len` and longer than a chunk visits every
        // index once, first touching chunks 3, 0, 3, 1, 4, 2.
        let mut idx = 0;
        for _ in 0..len {
            idx = (idx + 3 * CHUNK + 5) % len;
            assert_eq!(trace.power_at(at(idx)).watts().to_bits(), in_order[idx].to_bits());
        }
    }
}

#[test]
fn concurrent_readers_of_far_apart_chunks_agree() {
    let len = 40 * CHUNK;
    let reference = PowerTrace::generate(TraceKind::RfHome, SEED, len);
    let want: Vec<f64> = reference.samples().map(|p| p.watts()).collect();
    let trace = PowerTrace::generate(TraceKind::RfHome, SEED, len);
    let barrier = Barrier::new(2);
    let read = |chunk: usize| {
        barrier.wait();
        (chunk * CHUNK..(chunk + 1) * CHUNK)
            .map(|i| trace.power_at(at(i)).watts().to_bits())
            .collect::<Vec<u64>>()
    };
    let (late, early) = std::thread::scope(|s| {
        let late = s.spawn(|| read(38));
        let early = s.spawn(|| read(2));
        (late.join().unwrap(), early.join().unwrap())
    });
    for (chunk, got) in [(38, late), (2, early)] {
        let expect: Vec<u64> =
            want[chunk * CHUNK..(chunk + 1) * CHUNK].iter().map(|w| w.to_bits()).collect();
        assert_eq!(got, expect, "chunk {chunk}");
    }
}

#[test]
fn power_at_wraps_past_the_end() {
    let len = 2 * CHUNK + 10;
    let trace = PowerTrace::generate(TraceKind::Solar, SEED, len);
    let first_lap: Vec<u64> = trace.samples().map(|p| p.watts().to_bits()).collect();
    // In time order, as the simulator reads, through three laps of a trace
    // whose length is not a multiple of the chunk.
    for i in 0..3 * len {
        assert_eq!(trace.power_at(at(i)).watts().to_bits(), first_lap[i % len], "index {i}");
    }
    assert!((trace.duration().seconds() - (TRACE_INTERVAL * len as f64).seconds()).abs() < 1e-12);
}
