//! RIPE-Atlas-style observation layer.
//!
//! The paper's primary dataset is the RIPE Atlas "IP echo" measurement
//! (Section 3.1): every probe performs an hourly HTTP GET against an echo
//! server that reports back the publicly visible client address in the
//! `X-Client-IP` header, for both address families. Probes also report their
//! locally configured `src_addr`.
//!
//! This crate turns the ground-truth [`SubscriberTimeline`]s produced by
//! `dynamips-netsim` into exactly that record stream, including the
//! deployment artifacts the paper's Appendix A.1 has to sanitize away:
//!
//! * the RIPE NCC test address `193.0.0.78` reported by freshly shipped
//!   probes,
//! * multihomed probes alternating between two upstreams,
//! * probes whose owner switched ISP mid-stream ("AS moves"),
//! * non-residential probes carrying tags like `datacentre`,
//! * atypical NAT setups (public `src_addr` in IPv4, mismatched
//!   `X-Client-IP`/`src_addr` in IPv6),
//! * short-lived probes and randomly missing measurements.
//!
//! [`SubscriberTimeline`]: dynamips_netsim::SubscriberTimeline

// Panic-freedom: shipping code degrades instead of panicking (tests are
// exempt via clippy.toml), and library code renders to strings instead
// of printing. The shared levels come from the workspace `[lints]` table.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod collect;
pub mod records;
pub mod series;

pub use collect::{AtlasCollector, AtlasConfig};
pub use records::{EchoV4, EchoV6, TEST_ADDRESS};
pub use series::{ProbeId, ProbeSeries};
