//! CDN Real-User-Monitoring observation layer.
//!
//! Section 4.1 of the paper: a Javascript RUM system occasionally observes
//! both addresses of a dual-stacked client in one transaction (the content
//! page is fetched over one protocol, the beacon reported over the other),
//! yielding instantaneous IPv4–IPv6 associations. The CDN aggregates them to
//! `(IPv4 /24, IPv6 /64, date)` tuples, tags both sides with origin ASNs
//! from its BGP feeds, discards mismatches (multihoming, WiFi/cellular
//! switches), and labels prefixes mobile or fixed.
//!
//! This crate reproduces that pipeline over simulated ground truth.

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
pub mod dataset;
pub mod devices;

pub use collect::{CdnCollector, CdnConfig};
pub use dataset::{Association, AssociationDataset};
