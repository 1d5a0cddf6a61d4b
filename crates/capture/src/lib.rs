#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # tamper-capture
//!
//! The server-side collection pipeline, reproducing the constraints of the
//! paper's deployment (§3.2): a deterministic 1-in-N connection sampler,
//! inbound-only logging, 10-packet truncation, one-second timestamp
//! quantization, and out-of-order logging — plus a classic libpcap
//! writer/reader so captures interoperate with standard tooling.

mod engine;
mod offline;
mod pcap;
mod pipeline;
mod record;
mod sampler;
mod source;

pub use engine::{run_source, EngineConfig, EngineStats};
pub use offline::{flows_from_pcap, ColumnarFlowTable, IngestStats, OfflineConfig};
pub use pcap::{PcapError, PcapWriter};
pub use pipeline::{collect, CollectorConfig};
pub use record::{
    EvictionCause, FlowBatch, FlowRecord, FlowRows, FlowTuple, PacketRecord, PacketRow,
};
pub use sampler::Sampler;
pub use source::{
    FlowSource, PcapMemItem, PcapMemSource, ShardStats, SimSource, SourceShard, DEFAULT_BATCH_FLOWS,
};
