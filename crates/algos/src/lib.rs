//! # gxplug-algos
//!
//! Graph algorithms expressed against the GX-Plug algorithm template
//! (`MSGGen` / `MSGMerge` / `MSGApply`), plus sequential reference
//! implementations used to validate them:
//!
//! * [`MultiSourceSssp`] — the paper's SSSP-BF (4 simultaneous sources);
//! * [`PageRank`] — fixed-iteration message-driven PageRank;
//! * [`LabelPropagation`] — the paper's LP, capped at 15 iterations;
//! * [`ConnectedComponents`] — min-label propagation (Figure 1's CC);
//! * [`KCore`] — k-core membership (Figure 1's K-Core).
//!
//! Because the template is shared between the native engines and the
//! middleware daemons, each of these runs unmodified in four configurations:
//! GraphX-native, PowerGraph-native, GraphX+accelerator and
//! PowerGraph+accelerator.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod connected_components;
#[cfg(test)]
mod derived_via_contract;
#[cfg(test)]
mod destination_contract;
pub mod kcore;
pub mod label_propagation;
pub mod pagerank;
pub mod reference;
pub mod sssp;

pub use connected_components::ConnectedComponents;
pub use kcore::{CoreState, KCore};
pub use label_propagation::{LabelHistogram, LabelPropagation};
pub use pagerank::{PageRank, RankValue};
pub use sssp::{Distances, MultiSourceSssp, Relaxation};
