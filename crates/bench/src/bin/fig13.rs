//! Figure 13: runtime isolation.
//!
//! Compares the daemon-agent solution (device context initialised once, kept
//! alive across iterations) against the naive "raw call" integration (the
//! device environment is re-initialised on every iteration because the agent
//! lives and dies with each upper-system call).  The paper runs 11 iterations
//! and reports GPU init time, computation time and total time.

use gxplug_accel::{presets, SimDuration};
use gxplug_bench::{format_duration, print_table, scale_from_env, DEFAULT_SEED};
use gxplug_core::Daemon;
use gxplug_graph::datasets;
use gxplug_graph::types::Triplet;
use gxplug_ipc::blocks::triplet_block_views;
use gxplug_ipc::key::KeyGenerator;

use gxplug_algos::{PageRank, RankValue};
use gxplug_engine::template::GraphAlgorithm;

fn main() {
    let scale = scale_from_env();
    let iterations = 11; // as in the paper's Figure 13 experiment
    let dataset = datasets::find("Orkut").unwrap();
    let graph = dataset
        .build_graph(
            scale,
            DEFAULT_SEED,
            RankValue {
                rank: 1.0,
                out_degree: 0,
            },
        )
        .unwrap();
    let algorithm = PageRank::new(iterations);
    // One node's worth of triplets, viewed as blocks every iteration.
    let attr = |v| RankValue {
        rank: 1.0,
        out_degree: graph.out_degree(v) as u32,
    };
    let triplets: Vec<_> = graph
        .edges()
        .iter()
        .map(|e| Triplet::new(e.src, e.dst, attr(e.src), attr(e.dst), e.attr))
        .collect();
    let keys = KeyGenerator::new(13);

    // --- Daemon-agent solution: initialise once, compute 11 iterations. ---
    let mut daemon = Daemon::new("isolated", presets::gpu_v100("gpu"), keys.key_for(0, 0));
    let mut daemon_init = daemon.start();
    let mut daemon_compute = SimDuration::ZERO;
    for iteration in 0..iterations {
        for block in triplet_block_views(&triplets, 4_096) {
            let (_messages, timing) = daemon.execute_gen(&algorithm, block, iteration).unwrap();
            daemon_init += timing.init;
            daemon_compute += timing.call + timing.copy + timing.compute;
        }
    }

    // --- Raw call: the device context is torn down after every iteration. ---
    let mut raw = Daemon::new("raw-call", presets::gpu_v100("gpu"), keys.key_for(0, 1));
    let mut raw_init = SimDuration::ZERO;
    let mut raw_compute = SimDuration::ZERO;
    for iteration in 0..iterations {
        raw_init += raw.start();
        for block in triplet_block_views(&triplets, 4_096) {
            let (_messages, timing) = raw.execute_gen(&algorithm, block, iteration).unwrap();
            raw_init += timing.init;
            raw_compute += timing.call + timing.copy + timing.compute;
        }
        raw.shutdown();
    }

    let _ = algorithm.name();
    let rows = vec![
        vec![
            "Daemon".to_string(),
            format_duration(daemon_init),
            format_duration(daemon_compute),
            format_duration(daemon_init + daemon_compute),
        ],
        vec![
            "Raw call".to_string(),
            format_duration(raw_init),
            format_duration(raw_compute),
            format_duration(raw_init + raw_compute),
        ],
    ];
    print_table(
        &format!("Fig. 13: runtime isolation, {iterations} iterations ({scale:?})"),
        &["Solution", "GPU Init Time", "Comp Time", "Total Time"],
        &rows,
    );
}
