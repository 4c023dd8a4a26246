//! `botmeterd`: the long-running incremental charting daemon.
//!
//! A batch [`BotMeter`](botmeter_core::BotMeter) chart answers "what does
//! the landscape look like over this trace" — once. An operations team
//! wants the question answered *continuously*, over an unbounded border
//! stream, without re-charting the world every time an epoch closes. This
//! crate keeps the Fig. 2 pipeline resident:
//!
//! * [`BotMeterDaemon`] ingests observed-lookup shards (the `botmeterd`
//!   binary feeds it JSON-Lines from stdin; tests pipe the simulator's
//!   shards into [`ingest`](BotMeterDaemon::ingest)), maintains
//!   per-server stream-health state across epoch boundaries with a
//!   bounded [`botmeter_matcher::QualityCursor`], and re-estimates only
//!   the cells whose matched traffic changed — the Theorem-1 segment-kernel
//!   cache lives inside one long-lived estimation context, so later epochs
//!   reuse earlier epochs' kernel work.
//! * Every publish produces a versioned snapshot in a [`LandscapeStore`]:
//!   monotonic [`botmeter_core::LandscapeVersion`]s, bounded retention,
//!   and exact [`botmeter_core::LandscapeDelta`]s between any two retained
//!   versions.
//!
//! The engine's contract is *incremental ≡ batch*: after any ingested
//! prefix, the published snapshot is bit-identical to
//! [`BotMeter::chart_with`](botmeter_core::BotMeter::chart_with) over the
//! same prefix (see [`BotMeterDaemon`] for the stale-traffic exception).
//! Memory stays bounded because epochs behind the
//! [`close lag`](DaemonOptions::close_lag) freeze: their raw estimates are
//! kept, their lookups dropped.
//!
//! On top of the engine sits the durability layer ([`DurableDaemon`]):
//! a checksummed write-ahead journal ([`wal`]), atomic periodic
//! checkpoints ([`checkpoint`]), and recovery that makes the published
//! snapshot sequence bit-identical whether or not the daemon was
//! `kill -9`ed along the way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod checkpoint;
mod durable;
mod engine;
pub mod storage;
mod store;
pub mod wal;

pub use checkpoint::{CheckpointError, CheckpointManager, EngineCheckpoint};
pub use durable::{
    DurabilityError, DurabilityOptions, DurabilityStats, DurableDaemon, RecoveryReport,
    MAX_SHARD_RECORDS,
};
pub use engine::{BotMeterDaemon, DaemonOptions, DaemonStats};
pub use storage::{DiskStorage, FailingStorage, MemStorage, Storage};
pub use store::{LandscapeStore, StoreError};
pub use wal::{Wal, WalCodecError};
