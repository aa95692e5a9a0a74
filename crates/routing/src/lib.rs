//! Routing substrate: BGP tables, origin-AS lookup and RIR delegations.
//!
//! The paper maps every observed address to its origin AS through BGP data
//! (Routeviews pfx2as for the Atlas analysis, the CDN's own BGP feeds for the
//! RUM analysis) and groups addresses "by their delegating Internet
//! registrar" for the geographic breakdowns (Figures 3 and 7). This crate
//! provides the same lookup machinery over synthetic announcements:
//!
//! * [`RoutingTable`] — longest-prefix-match origin lookup for IPv4 addresses
//!   and IPv6 addresses/prefixes, with a pfx2as-style text serialization.
//! * [`RirMap`] — address → regional Internet registry.
//! * [`AsRegistry`] — per-AS metadata (name, country, RIR, access type).

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

pub mod asn;
pub mod pfx2as;
pub mod rir;
pub mod table;

pub use asn::{AccessType, AsInfo, AsRegistry, Asn};
pub use rir::{Rir, RirMap};
pub use table::RoutingTable;
