//! Discrete-event simulation of ISP address-assignment machinery.
//!
//! The paper observes the *outputs* of operational assignment systems:
//! DHCP/RADIUS servers handing out IPv4 addresses, DHCPv6 servers delegating
//! IPv6 prefixes, CGNATs multiplexing subscribers, and CPE devices choosing
//! how to use their delegations. Since the underlying datasets are
//! proprietary, this crate implements those *mechanisms* directly; the
//! observation layers (`dynamips-atlas`, `dynamips-cdn`) sample the resulting
//! ground-truth timelines, and the analysis pipeline (`dynamips-core`) must
//! recover the configured behaviour.
//!
//! Layout:
//!
//! * [`time`] — the simulation clock (hour resolution, civil-date mapping).
//! * [`event`] — the discrete-event queue.
//! * [`rngutil`] — deterministic sampling helpers.
//! * [`alloc`] — pool index allocators (sticky / random strategies).
//! * [`dhcp`] — RFC 2131 lease and RFC 8415 prefix-delegation state
//!   machines (T1/T2 timers, preferred/valid lifetimes).
//! * [`churn`] — stateful DHCP clients (built on [`dhcp`]) that drive the
//!   live `dynamips-ipam` allocator under named churn profiles.
//! * [`config`] — per-ISP policy configuration: everything Section 2.2 of
//!   the paper lists as a cause of assignment changes is a knob here.
//! * [`plan`] — per-subscriber concrete policy instances sampled from a
//!   config.
//! * [`timeline`] — ground-truth assignment segments per subscriber.
//! * [`sim`] — the per-ISP discrete-event engine.
//! * [`profiles`] — configurations reproducing the paper's named ISPs plus
//!   per-RIR background populations and cellular operators.
//! * [`world`] — assembly of many ISPs into one synthetic Internet with BGP
//!   announcements and RIR delegations.

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

pub(crate) mod alloc;
pub mod churn;
pub mod config;
// lint:allow(dead-pub): doctest-facing; the dhcp doc examples import through
// this path.
pub mod dhcp;
pub(crate) mod event;
pub mod plan;
pub mod profiles;
pub mod rngutil;
pub mod sim;
pub mod time;
pub mod timeline;
pub mod world;

pub use config::IspConfig;
pub use sim::IspSimResult;
pub use time::{Date, SimTime, Window, DAY, WEEK, YEAR};
pub use timeline::{SubscriberId, SubscriberTimeline, V4Segment, V6Segment};
pub use world::World;
