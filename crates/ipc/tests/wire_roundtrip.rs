//! Property tests for the wire format: generated submit/result/error frames
//! survive encode → decode bit-identically, and corrupted headers or
//! truncated buffers are rejected with typed errors rather than garbage
//! frames.

use gxplug_ipc::wire::{
    decode, encode, Frame, JobResultFrame, JobSpec, JobState, ParamValue, ServerError, StatsFrame,
    WireConfig, WireError, WireJobOptions, WirePipeline, HEADER_LEN, WIRE_VERSION,
};
use proptest::prelude::*;

/// Builds a submit frame from flat generated inputs; `fraction` present
/// means "attach a config override with that cache-capacity fraction".
fn submit_frame(
    algorithm_code: u32,
    sources: Vec<u32>,
    damping: f64,
    priority: u8,
    cache: u8,
    max_iterations: Option<u32>,
    fraction: Option<f64>,
) -> Frame {
    let algorithm = match algorithm_code % 3 {
        0 => "pagerank",
        1 => "sssp",
        _ => "wcc",
    };
    let spec = JobSpec::new(algorithm)
        .with_ids("sources", sources)
        .with_f64("damping", damping)
        .with_u64("budget", algorithm_code as u64);
    let config = fraction.map(|fraction| WireConfig {
        pipeline: match algorithm_code % 4 {
            0 => WirePipeline::Disabled,
            1 => WirePipeline::FixedBlockSize(algorithm_code + 1),
            2 => WirePipeline::FixedBlockCount(algorithm_code % 7 + 1),
            _ => WirePipeline::Optimal,
        },
        caching: algorithm_code.is_multiple_of(2),
        lazy_upload: algorithm_code.is_multiple_of(3),
        skipping: algorithm_code.is_multiple_of(5),
        cache_capacity_fraction: fraction,
        serial: !algorithm_code.is_multiple_of(2),
    });
    Frame::Submit {
        spec,
        options: WireJobOptions {
            priority,
            cache,
            max_iterations,
            config,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Submit frames round-trip exactly, whatever the parameter shapes.
    #[test]
    fn submit_frames_round_trip(
        algorithm_code in 0u32..1_000_000,
        sources in prop::collection::vec(0u32..100_000, 0..16),
        damping in 0.0f64..1.0,
        priority in 0u8..3,
        cache in 0u8..3,
        cap in 0u32..10_000,
        cap_present in any::<bool>(),
        with_config in any::<bool>(),
        fraction in 0.01f64..1.0,
    ) {
        let frame = submit_frame(
            algorithm_code,
            sources,
            damping,
            priority,
            cache,
            cap_present.then_some(cap),
            with_config.then_some(fraction),
        );
        let bytes = encode(&frame);
        let (decoded, consumed) = decode(&bytes).expect("well-formed frame");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded, frame);
    }

    /// Result frames carry every `f64` bit pattern through unchanged —
    /// the determinism invariant at the wire layer.
    #[test]
    fn result_values_travel_bit_identically(
        job in any::<u64>(),
        bits in prop::collection::vec(any::<u64>(), 0..64),
        iterations in 0u32..100_000,
        sim_time in any::<u64>(),
        converged in any::<bool>(),
    ) {
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let frame = Frame::Result(JobResultFrame {
            job,
            algorithm: "sssp".into(),
            converged,
            iterations,
            sim_time_us: sim_time,
            values,
        });
        let (decoded, _) = decode(&encode(&frame)).expect("well-formed frame");
        match decoded {
            Frame::Result(result) => {
                prop_assert_eq!(result.values.len(), bits.len());
                for (value, bit) in result.values.iter().zip(&bits) {
                    // Compare bit patterns, not values: NaN != NaN yet its
                    // payload must still cross the wire untouched.
                    prop_assert_eq!(value.to_bits(), *bit);
                }
            }
            other => panic!("expected a result frame, got {other:?}"),
        }
    }

    /// Error and stats frames round-trip exactly.
    #[test]
    fn error_and_stats_frames_round_trip(
        job in any::<u64>(),
        job_present in any::<bool>(),
        code in 0u32..6,
        in_flight in 0u32..1_000,
        counters in prop::collection::vec(any::<u64>(), 8),
        gauges in prop::collection::vec(0u32..10_000, 3),
        p50 in 0u64..1_000_000,
        p50_present in any::<bool>(),
    ) {
        let error = match code {
            0 => ServerError::Unauthorized,
            1 => ServerError::QuotaExceeded {
                tenant: format!("tenant-{in_flight}"),
                in_flight,
                limit: in_flight / 2,
            },
            2 => ServerError::QueueFull,
            3 => ServerError::BadRequest(format!("field {code} missing")),
            4 => ServerError::UnknownAlgorithm("triangle-count".into()),
            _ => ServerError::JobFailed("worker session lost".into()),
        };
        let frame = Frame::Error { job: job_present.then_some(job), error };
        let (decoded, _) = decode(&encode(&frame)).expect("well-formed frame");
        prop_assert_eq!(decoded, frame);

        let stats = Frame::Stats(StatsFrame {
            submitted: counters[0],
            completed: counters[1],
            failed: counters[2],
            cancelled: counters[3],
            panicked: counters[4],
            cache_hits: counters[5],
            cache_misses: counters[6],
            coalesced_jobs: counters[7],
            queued: gauges[0],
            running: gauges[1],
            worker_sessions: gauges[2],
            queue_wait_total_us: counters[0] ^ counters[1],
            queue_wait_max_us: counters[2] ^ counters[3],
            run_wall_total_us: counters[4] ^ counters[5],
            run_wall_max_us: counters[6] ^ counters[7],
            wait_p50_us: p50_present.then_some(p50),
            wait_p99_us: Some(p50 * 2),
            wall_p50_us: None,
            wall_p99_us: p50_present.then_some(p50 + 1),
        });
        let (decoded, _) = decode(&encode(&stats)).expect("well-formed frame");
        prop_assert_eq!(decoded, stats);
    }

    /// Every strict prefix of a valid frame decodes to `Truncated` — never a
    /// partial frame, never a panic.
    #[test]
    fn every_truncation_is_rejected(
        sources in prop::collection::vec(0u32..1_000, 1..8),
        cut_seed in any::<u64>(),
    ) {
        let frame = submit_frame(7, sources, 0.85, 1, 0, Some(50), Some(0.5));
        let bytes = encode(&frame);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert_eq!(decode(&bytes[..cut]), Err(WireError::Truncated));
    }

    /// A frame stamped with a foreign version is rejected with the typed
    /// mismatch error, from the whole frame and from its header alone.
    #[test]
    fn foreign_versions_are_rejected(
        job in any::<u64>(),
        version in 0u16..u16::MAX,
    ) {
        let other = if version == WIRE_VERSION { version + 1 } else { version };
        let mut bytes = encode(&Frame::Accepted { job });
        bytes[2..4].copy_from_slice(&other.to_le_bytes());
        let expected = WireError::VersionMismatch { got: other, expected: WIRE_VERSION };
        prop_assert_eq!(decode(&bytes), Err(expected.clone()));
        prop_assert_eq!(decode(&bytes[..HEADER_LEN]), Err(expected));
    }

    /// Single-byte corruption anywhere in the payload never panics the
    /// decoder: it either produces some valid frame or a typed error.
    #[test]
    fn corrupt_payload_bytes_never_panic(
        flip_at_seed in any::<u64>(),
        flip_to in any::<u64>(),
    ) {
        let frame = submit_frame(3, vec![1, 2, 3], 0.5, 0, 1, None, Some(0.75));
        let mut bytes = encode(&frame);
        let at = HEADER_LEN + (flip_at_seed as usize % (bytes.len() - HEADER_LEN));
        bytes[at] = flip_to as u8;
        let _ = decode(&bytes); // must return, Ok or Err — never panic
    }

    /// Terminal job states are exactly done/failed/cancelled, across the
    /// whole code space.
    #[test]
    fn job_state_codes_decode_consistently(code in 0u8..255) {
        match JobState::from_code(code) {
            Some(state) => {
                prop_assert_eq!(state.code(), code);
                prop_assert_eq!(
                    state.is_terminal(),
                    matches!(state, JobState::Done | JobState::Failed | JobState::Cancelled)
                );
            }
            None => prop_assert!(code > 4),
        }
    }
}

/// The stats frame's byte length is pinned together with the wire version:
/// adding or removing a `StatsFrame` field changes the length, and this test
/// then fails until `WIRE_VERSION` is bumped and both pins move with it, so
/// an old client never misparses a new frame.
#[test]
fn stats_frame_length_is_pinned_to_the_wire_version() {
    let frame = Frame::Stats(StatsFrame {
        wait_p50_us: Some(1),
        wait_p99_us: Some(2),
        wall_p50_us: Some(3),
        wall_p99_us: Some(4),
        ..StatsFrame::default()
    });
    // A 9-byte header, then 8 u64 counters, 3 u32 gauges, 4 u64 durations
    // and 4 present percentiles (a tag byte plus a u64 each).
    assert_eq!(
        encode(&frame).len(),
        9 + 8 * 8 + 3 * 4 + 4 * 8 + 4 * (1 + 8)
    );
    assert_eq!(WIRE_VERSION, 2);
}

#[test]
fn param_value_vocabulary_is_closed_under_roundtrip() {
    // A non-property anchor: one frame exercising every ParamValue variant,
    // checked byte-for-byte stable across a double encode.
    let frame = Frame::Submit {
        spec: JobSpec {
            algorithm: "mixed".into(),
            params: vec![
                gxplug_ipc::wire::Param {
                    name: "ids".into(),
                    value: ParamValue::IdList(vec![0, u32::MAX]),
                },
                gxplug_ipc::wire::Param {
                    name: "count".into(),
                    value: ParamValue::U64(u64::MAX),
                },
                gxplug_ipc::wire::Param {
                    name: "scale".into(),
                    value: ParamValue::F64(-0.0),
                },
            ],
        },
        options: WireJobOptions::default(),
    };
    let once = encode(&frame);
    let (decoded, _) = decode(&once).unwrap();
    assert_eq!(encode(&decoded), once);
}
