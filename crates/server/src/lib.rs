//! # gxplug-server — the network serving front end
//!
//! GX-Plug's `GraphService` (crate `gxplug-core`) schedules graph jobs over
//! accelerated worker sessions, but only for callers inside the process.
//! This crate puts a wire on it: a dependency-free HTTP/1.1 + WebSocket
//! server, hand-rolled on `std::net`, that lets remote tenants submit jobs,
//! poll or stream their progress, and scrape service health — while the
//! server enforces per-tenant authentication, quotas and priority ceilings
//! in front of the shared scheduler.
//!
//! ## Layers
//!
//! - [`auth`] — bearer-token tenants, quotas (in-flight cap + queue share)
//!   and priority ceilings.
//! - [`http`] — blocking HTTP/1.1 parsing/serialisation and the shared
//!   [`ServerError`](gxplug_ipc::wire::ServerError) → status mapping.
//! - [`ws`] — RFC 6455 frames plus the SHA-1/base64 pair the handshake
//!   needs.
//! - [`model`] — what a wire job spec *means*: the algorithm registry, the
//!   stock [`ServeVertex`] deployment, and the wire →
//!   core option mapping.
//! - [`metrics`] — Prometheus text exposition of the service snapshot and
//!   per-tenant counters.
//! - [`server`] — the handler pool (each handler accepts its own
//!   connections), routing, the job table and the WebSocket streaming loop.
//!
//! ## Endpoints
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /v1/jobs` | Submit (binary Submit frame or `algorithm=...&...` text form) → 202 with the job id |
//! | `GET /v1/jobs/{id}` | Poll: state, result, or the job's terminal error |
//! | `DELETE /v1/jobs/{id}` | Cancel |
//! | `GET /v1/stream` + Upgrade | WebSocket: submit/cancel, server pushes state transitions and final results |
//! | `GET /v1/stats` | The service snapshot as a binary Stats frame (the `/metrics` text with `Accept: text/plain`) |
//! | `GET /metrics` | Prometheus text exposition (unauthenticated) |
//!
//! Binary bodies use the versioned length-prefixed frames of
//! [`gxplug_ipc::wire`]; responses carry frames unless the client sends
//! `Accept: text/plain`.  Results preserve the repository's determinism
//! invariant end to end: `f64` payloads travel as exact bit patterns, so a
//! job's values read over the socket are bit-identical to the same job
//! submitted in-process.

pub mod auth;
pub mod http;
pub mod metrics;
pub mod model;
pub mod server;
pub mod ws;

pub use auth::{bearer_token, Tenant, TenantQuota, TenantRegistry};
pub use metrics::TenantCounters;
pub use model::{
    standard_registry, standard_service, AlgorithmRegistry, Prepared, ServeRank, ServeReach,
    ServeVertex,
};
pub use server::{Server, ServerConfig};
