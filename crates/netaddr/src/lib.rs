//! Address and prefix primitives for the DynamIPs reproduction.
//!
//! This crate provides the low-level building blocks every other crate in the
//! workspace relies on:
//!
//! * [`Ipv4Prefix`] and [`Ipv6Prefix`] — canonical CIDR prefixes backed by
//!   plain integers, with subnetting arithmetic, containment tests and
//!   string round-tripping.
//! * [`common_prefix_len`](cpl::common_prefix_len_v6) — the "CPL" metric the
//!   paper uses to measure spatial distance between successive IPv6
//!   assignments (Section 5.2).
//! * Trailing-zero analysis ([`zeros`]) — the basis of the paper's
//!   subscriber-boundary inference (Section 5.3).
//! * [`Ipv4Trie`]/[`Ipv6Trie`] — binary tries with longest-prefix-match
//!   lookup, used for pfx2as-style routing tables.
//! * [`pool`] — mapping between pool indices and subprefixes, used by the
//!   simulated DHCP/DHCPv6-PD servers.
//! * [`iid`] — EUI-64 and privacy interface identifiers (RFC 4941 / 7217
//!   behaviours referenced throughout the paper).
//!
//! Everything here is deterministic and allocation-light; the only heap use
//! is inside the tries.

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

pub mod cpl;
pub mod error;
pub mod iid;
pub mod pool;
pub mod trie;
pub mod v4;
pub mod v6;
pub mod zeros;

pub use cpl::{common_prefix_len_v4, common_prefix_len_v6};
pub use error::PrefixError;
pub use iid::{eui64_from_mac, privacy_iid, Iid};
pub use pool::{Ipv4Pool, Ipv6PrefixPool};
pub use trie::{Ipv4Trie, Ipv6Trie};
pub use v4::Ipv4Prefix;
pub use v6::Ipv6Prefix;
pub use zeros::{nibble_boundary_class, trailing_zero_bits_v6, NibbleBoundary};
