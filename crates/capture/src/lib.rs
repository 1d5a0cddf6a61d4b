#![warn(missing_docs)]

//! # tamper-capture
//!
//! The server-side collection pipeline, reproducing the constraints of the
//! paper's deployment (§3.2): a deterministic 1-in-N connection sampler,
//! inbound-only logging, 10-packet truncation, one-second timestamp
//! quantization, and out-of-order logging — plus a classic libpcap
//! writer/reader so captures interoperate with standard tooling.

pub mod engine;
pub mod offline;
pub mod pcap;
pub mod pipeline;
pub mod record;
pub mod sampler;
pub mod source;

pub use engine::{run_source, EngineConfig, EngineStats};
pub use offline::{
    flows_from_pcap, ColumnarFlowTable, EvictionCause, FlowKeyHasher, IngestStats, OfflineConfig,
};
pub use pcap::{PcapError, PcapWriter};
pub use pipeline::{collect, CollectorConfig};
pub use record::{FlowBatch, FlowRecord, FlowRows, FlowSpan, FlowTuple, PacketRecord, PacketRow};
pub use sampler::Sampler;
pub use source::{
    FlowSource, PcapBatchShard, PcapMemItem, PcapMemSource, ShardStats, SimShard, SimSource,
    SourceShard, DEFAULT_BATCH_FLOWS,
};
