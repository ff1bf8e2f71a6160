// Wire protocol between ldmsd peers, mirroring the paper's Figure 2 flows:
// dir (set discovery), lookup (returns the metadata chunk and a set handle
// once), update (one batch frame per producer per interval pulls only the
// data chunks, by handle), plus an advertise control
// message supporting connection initiation from the sampler side
// ("mechanisms to enable initiation of a connection from either side",
// §IV-B).
//
// Frame layout: u32 payload_len | u8 type | u64 request_id | payload.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/wire.hpp"
#include "util/status.hpp"

namespace ldmsxx {

// Values are pinned: they are wire bytes. 5 and 6 belonged to the retired
// per-set update frames; a server drops them like any unknown type.
enum class MsgType : std::uint8_t {
  kDirReq = 1,
  kDirResp = 2,
  kLookupReq = 3,
  kLookupResp = 4,
  kAdvertise = 7,         // sampler -> aggregator: "connect back to me"
  kUpdateBatchReq = 8,    // aggregator -> producer: (handle, last_dgn) pairs
  kUpdateBatchResp = 9,   // producer -> aggregator: data/unchanged/delta/error
  kQueryReq = 10,   // aggregator -> leaf: run a tsdb predicate on your store
  kQueryResp = 11,  // leaf -> aggregator: bounded result page + scan counters
};

/// Protocol revision a server reports in every successful lookup response.
/// A client declares its own revision in the batch request's last byte:
/// kDeltaProtocolVersion lets the server answer with kDelta entries, 1 asks
/// for full chunks only (the `delta=0` escape hatch).
constexpr std::uint8_t kBatchProtocolVersion = 2;
/// Minimum declared client revision at which a server may answer kDelta.
constexpr std::uint8_t kDeltaProtocolVersion = 2;

/// "No handle assigned." Handles are compact u32 ids a producer assigns at
/// lookup time; they address the set in batch updates without re-sending the
/// instance name on every cycle.
constexpr std::uint32_t kInvalidSetHandle = 0xffffffffu;

/// Upper bound on a frame payload. Metric sets are tens of kB; anything
/// near this limit is a corrupt or hostile peer, and both ends of the sock
/// transport drop the connection rather than allocate unbounded buffers.
constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// Fixed part of every frame.
struct FrameHeader {
  std::uint32_t payload_len = 0;
  MsgType type = MsgType::kDirReq;
  std::uint64_t request_id = 0;
};
constexpr std::size_t kFrameHeaderSize = 4 + 1 + 8;

struct DirResponse {
  std::uint8_t code = 0;  // ErrorCode as u8
  std::vector<std::string> instances;
};

struct LookupRequest {
  std::string instance;
};

/// Wire form: u8 code | u32 len, metadata | u8 version | u32 handle. The
/// handle addresses the set in batch pulls; version and handle are required
/// (a response without them is malformed).
struct LookupResponse {
  std::uint8_t code = 0;
  std::vector<std::byte> metadata;
  std::uint8_t version = 0;
  std::uint32_t handle = kInvalidSetHandle;
};

/// One batched pull for every set on a producer. Wire form:
///   u32 count | count x (u32 handle, u64 last_dgn) | u8 version
/// The decoder rejects duplicate handles — response entries are keyed by
/// handle, so a duplicate would make the reply ambiguous. The required last
/// byte declares the client's protocol revision: it is what authorizes the
/// server to answer with kDelta entries.
struct UpdateBatchRequest {
  struct Entry {
    std::uint32_t handle = kInvalidSetHandle;
    std::uint64_t last_dgn = 0;
  };
  std::vector<Entry> entries;
  std::uint8_t version = kBatchProtocolVersion;
};

/// Per-entry result kind inside a batch response.
enum class BatchEntryKind : std::uint8_t {
  kUnchanged = 0,  // DGN has not advanced past last_dgn; no payload
  kData = 1,       // full data chunk follows
  kError = 2,      // per-set failure (unknown handle, torn snapshot, ...)
  kDelta = 3,      // changed-extents delta against the client's last_dgn
};

/// Batch response. Wire form:
///   u8 code | u32 count | count x entry
///   entry: u32 handle | u8 kind | (kData: u32 len, bytes)
///                                 (kDelta: u32 len, delta payload)
///                                 (kError: u8 code)
///                                 (kUnchanged: nothing)  -- exactly 5 bytes
/// A kDelta payload is the MetricSet delta format (see metric_set.hpp):
///   u32 meta_gn | u64 base_dgn | u64 new_dgn | u32 ts_sec | u32 ts_usec |
///   u16 extent_count | extents | packed values
/// and is structurally validated at decode time, so a malformed delta is a
/// framing error, never a half-applied mirror.
/// A non-zero top-level code means the whole request failed (e.g. malformed)
/// and count is 0.
struct UpdateBatchResponse {
  struct Entry {
    std::uint32_t handle = kInvalidSetHandle;
    BatchEntryKind kind = BatchEntryKind::kError;
    std::uint8_t code = 0;  // ErrorCode, kError entries only
    std::vector<std::byte> data;
  };
  std::uint8_t code = 0;
  std::vector<Entry> entries;
};

/// Tree-sharded query fan-out (ISSUE 10): the root aggregator forwards a
/// tsdb predicate to each leaf, which runs it against its local store and
/// answers with a bounded page of rows. Wire form:
///   str strgp | str table | u64 t0 | u64 t1 |
///   u32 nnodes | nnodes x u64 | u32 nmetrics | nmetrics x str |
///   u32 limit | [u8 version]
/// Old decoders stop at limit and ignore the trailing version byte; its
/// absence decodes as version 0.
struct QueryRequest {
  std::string strgp;  ///< storage policy name the store is registered under
  std::string table;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = ~std::uint64_t{0};
  std::vector<std::uint64_t> nodes;   ///< empty = all nodes
  std::vector<std::string> metrics;   ///< empty = all columns
  /// Row cap for the response page; 0 = the server's default cap. The server
  /// never exceeds its own kMaxQueryRespRows regardless.
  std::uint32_t limit = 0;
  std::uint8_t version = 0;
};

/// Hard server-side ceiling on rows in one kQueryResp page; a fan-out over
/// many leaves must stay bounded no matter what limit the client asked for.
constexpr std::uint32_t kMaxQueryRespRows = 65536;

/// Query answer: one page of rows plus the leaf's scan counters, so the
/// root can aggregate pruning/compression effectiveness across the tree.
/// Wire form:
///   u8 code | str error | u16 ncols | ncols x str |
///   u32 nrows | nrows x (u64 ts, u64 node, ncols x f64) |
///   u64 total_rows | u8 truncated |
///   u64 segments_considered | u64 segments_pruned | u64 segments_read |
///   u64 bytes_read | u64 bytes_decoded | [u8 version]
struct QueryResponse {
  struct Row {
    std::uint64_t ts = 0;
    std::uint64_t node = 0;
    std::vector<double> values;  ///< one per column
  };
  std::uint8_t code = 0;  // ErrorCode as u8; non-zero => rows empty
  std::string error;
  std::vector<std::string> columns;
  std::vector<Row> rows;
  /// Rows the predicate matched on this leaf (>= rows.size(); they differ
  /// exactly when truncated is set).
  std::uint64_t total_rows = 0;
  std::uint8_t truncated = 0;
  std::uint64_t segments_considered = 0;
  std::uint64_t segments_pruned = 0;
  std::uint64_t segments_read = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_decoded = 0;
  std::uint8_t version = 0;
};

struct AdvertiseMsg {
  std::string producer;
  std::string dialback_address;  // where the aggregator should connect
  std::string transport;         // transport plugin name for dialback
  /// Trailing extension (old decoders stop after the three strings and
  /// ignore these). announce
  /// upgrades a plain advertise to self-assembly: "place me in the
  /// aggregation tree" — the receiving seed aggregator consults its
  /// TreeManager, assigns a leaf, and persists the assignment. node_id is
  /// the announcing host's torus node id, the rendezvous placement input.
  bool announce = false;
  std::uint64_t node_id = 0;
};

/// Encode a complete frame (header + payload).
std::vector<std::byte> EncodeFrame(MsgType type, std::uint64_t request_id,
                                   std::span<const std::byte> payload);

/// Parse a frame header from exactly kFrameHeaderSize bytes.
FrameHeader DecodeFrameHeader(std::span<const std::byte> bytes);

// Payload encoders/decoders. Decoders return false on malformed input.
std::vector<std::byte> EncodeDirResponse(const DirResponse& msg);
bool DecodeDirResponse(std::span<const std::byte> payload, DirResponse* out);

std::vector<std::byte> EncodeLookupRequest(const LookupRequest& msg);
bool DecodeLookupRequest(std::span<const std::byte> payload, LookupRequest* out);

std::vector<std::byte> EncodeLookupResponse(const LookupResponse& msg);
bool DecodeLookupResponse(std::span<const std::byte> payload,
                          LookupResponse* out);

std::vector<std::byte> EncodeAdvertise(const AdvertiseMsg& msg);
bool DecodeAdvertise(std::span<const std::byte> payload, AdvertiseMsg* out);

std::vector<std::byte> EncodeUpdateBatchRequest(const UpdateBatchRequest& msg);
bool DecodeUpdateBatchRequest(std::span<const std::byte> payload,
                              UpdateBatchRequest* out);

std::vector<std::byte> EncodeUpdateBatchResponse(const UpdateBatchResponse& msg);
bool DecodeUpdateBatchResponse(std::span<const std::byte> payload,
                               UpdateBatchResponse* out);

std::vector<std::byte> EncodeQueryRequest(const QueryRequest& msg);
bool DecodeQueryRequest(std::span<const std::byte> payload, QueryRequest* out);

std::vector<std::byte> EncodeQueryResponse(const QueryResponse& msg);
bool DecodeQueryResponse(std::span<const std::byte> payload,
                         QueryResponse* out);

}  // namespace ldmsxx
