//! # DynamIPs — address-assignment dynamics, reproduced
//!
//! A full Rust reproduction of *"DynamIPs: Analyzing address assignment
//! practices in IPv4 and IPv6"* (Padmanabhan, Rula, Richter, Strowes,
//! Dainotti — CoNEXT 2020): the analysis pipeline the paper contributes,
//! plus simulations of every substrate it depends on, because the paper's
//! two datasets (RIPE Atlas "IP echo" and a CDN RUM feed) are proprietary.
//!
//! The crates compose bottom-up:
//!
//! | layer | crate | what it provides |
//! |---|---|---|
//! | primitives | [`netaddr`] | prefixes, CPL, trailing-zero math, tries, pools, IIDs |
//! | routing | [`routing`] | BGP tables, pfx2as lookup, RIR delegations |
//! | mechanisms | [`netsim`] | DHCP/RADIUS/DHCPv6-PD/CGNAT simulation, ISP profiles |
//! | observation | [`atlas`], [`cdn`] | IP-echo probe series, RUM association tuples |
//! | analysis | [`core`] | sanitization, durations, interplay, spatial structure |
//! | harness | [`experiments`] | regenerates every table and figure |
//!
//! ## Quickstart
//!
//! ```
//! use dynamips::netsim::profiles::{dtag, Era};
//! use dynamips::netsim::time::{SimTime, Window};
//! use dynamips::netsim::World;
//!
//! // Simulate 50 Deutsche-Telekom-like subscribers for 90 days.
//! let mut world = World::new(42);
//! world.add_isp(dtag(50, Era::Atlas)).expect("valid ISP profile");
//! let window = Window::new(SimTime(0), SimTime(90 * 24));
//! let result = world
//!     .run_one(dynamips::routing::Asn(3320), window)
//!     .expect("DTAG is in the world");
//!
//! // Ground truth: daily renumbering produces frequent /64 changes.
//! let changes: usize = result.timelines.iter().map(|t| t.v6_changes()).sum();
//! assert!(changes > 0);
//! ```
//!
//! See `examples/` for end-to-end scenarios (blocklist sizing, hitlist
//! scoping, anonymization auditing) and `crates/experiments` for the
//! paper-artifact harness (`cargo run --release -p dynamips-experiments --
//! all`).

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

pub use dynamips_atlas as atlas;
pub use dynamips_cdn as cdn;
pub use dynamips_core as core;
pub use dynamips_experiments as experiments;
pub use dynamips_netaddr as netaddr;
pub use dynamips_netsim as netsim;
pub use dynamips_routing as routing;
