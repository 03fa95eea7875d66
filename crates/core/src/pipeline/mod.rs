//! Intra-iteration optimisation: pipeline shuffle (§III-A).
//!
//! The ordinary accelerated workflow has five steps — download from the upper
//! system, agent→daemon transfer, compute, daemon→agent transfer, upload — and
//! executing them back to back leaves the accelerator idle most of the time.
//! The paper's pipeline shuffle
//!
//! 1. collapses the five steps to three (download / compute / upload) by
//!    placing the data in a shared memory space both sides can address,
//! 2. runs the three steps as a three-layer pipeline over fixed-size blocks of
//!    edge triplets, and
//! 3. replaces inter-thread data copies with pointer rotation over three
//!    memory zones (`n` → `c` → `u` → `n`), handed between layers by the
//!    message protocol of Algorithms 1 and 2.
//!
//! Here the pipeline is **cost-modelled, not executed**: agent and daemon
//! share one address space and the daemon consumes borrowed triplet blocks in
//! place, so there are no zones to rotate and no protocol to speak.  What is
//! implemented is [`block_size`] — the analytical block-size selection of
//! Lemma 1 and the pipeline time estimate (`estimate_total`) that the agent's
//! `finish_iteration` charges for each share.

pub mod block_size;

pub use block_size::{BlockSizeChoice, LemmaCase, PipelineCoefficients};
