// Typed message exchange between SPMD ranks — the transport layer of the
// per-rank contact pipeline.
//
// The pre-refactor pipelines computed every phase globally and *accounted*
// traffic through VirtualCluster as a parallel bookkeeping path. Here the
// ranks actually move typed payloads (halo node coordinates, serialized
// descriptor trees, shipped surface faces, contact-point round-trips)
// through channels, and VirtualCluster sits underneath as the transport:
// the per-processor traffic matrices fall out of carrying the messages.
//
// Execution model: during a superstep every rank writes only its own
// outbox row of each channel (rank-private cells — no locks). Delivery is
// per destination: AsyncExecutor validates each (channel, src, dst) cell a
// consuming rank reads, then commits that rank's inbox column in ascending
// source order (the deterministic delivery order) and charges the phase
// clusters. The channels one phase reads form a group, and each group is
// one superstep.
//
// The transport does not trust the wire. Every cell is framed (message
// count) and checksummed (FNV-1a over the logical wire fields) at send
// time; validation checks both before anything reaches an inbox. Corrupt
// cells — whether injected by a seeded FaultInjector or caused by genuine
// memory corruption — are re-staged from the retained outbox and
// re-validated with bounded retries and exponential backoff; a cell still
// corrupt after the budget makes the run throw TransportError, which the
// pipelines catch to degrade the step to the centralized reference path.
// All detection and recovery activity is counted in PipelineHealth.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "geom/bbox.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/health.hpp"
#include "runtime/virtual_cluster.hpp"

namespace cpart {

// ---------------------------------------------------------------------------
// Message types. wire_bytes() is the size an MPI encoding of the message
// would put on the wire; it feeds the measured payload-byte reports.
// wire_hash() covers the same logical fields and feeds the per-cell
// delivery checksum. The fault_* overloads are the FaultInjector's
// customization points (found by ADL) for message-level corruption.
// ---------------------------------------------------------------------------

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over a trivially copyable value's bytes, chained onto `h`.
template <typename S>
std::uint64_t fnv1a_value(std::uint64_t h, const S& value) {
  static_assert(std::is_trivially_copyable_v<S>);
  const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
  for (std::size_t i = 0; i < sizeof(S); ++i) {
    h = (h ^ bytes[i]) * kFnvPrime;
  }
  return h;
}

/// FNV-1a mixing over a byte buffer, eight bytes per round (tail bytes
/// individually). Bulk payloads (the descriptor-tree broadcast is tens of
/// KB, checksummed at send AND at delivery validation) make the canonical
/// byte-at-a-time loop a measurable per-step cost; word mixing is ~8x
/// cheaper and detects every corruption class the transport injects: any
/// bit flip changes its word (xor then multiply-by-odd-prime is injective
/// mod 2^64), and truncation changes the size, which every caller hashes
/// ahead of the buffer.
inline std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data,
                                 std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= size; i += sizeof(std::uint64_t)) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, sizeof(word));
    h = (h ^ word) * kFnvPrime;
  }
  for (; i < size; ++i) {
    h = (h ^ bytes[i]) * kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv1a_vec3(std::uint64_t h, const Vec3& v) {
  h = fnv1a_value(h, v.x);
  h = fnv1a_value(h, v.y);
  return fnv1a_value(h, v.z);
}

/// Flips one bit of a trivially copyable field, chosen by `r`.
template <typename S>
void flip_bit_in(S& value, std::uint64_t r) {
  static_assert(std::is_trivially_copyable_v<S>);
  auto* bytes = reinterpret_cast<unsigned char*>(&value);
  const std::uint64_t bit = r % (sizeof(S) * 8);
  bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
}

/// FE halo exchange: one boundary node's current position.
struct HaloNodeMsg {
  idx_t node = kInvalidIndex;
  Vec3 position{};
};

inline wgt_t wire_bytes(const HaloNodeMsg&) {
  return static_cast<wgt_t>(sizeof(idx_t) + 3 * sizeof(real_t));
}

inline std::uint64_t wire_hash(const HaloNodeMsg& m) {
  std::uint64_t h = fnv1a_value(kFnvOffsetBasis, m.node);
  return fnv1a_vec3(h, m.position);
}

inline void fault_bitflip(HaloNodeMsg& m, std::uint64_t r) {
  switch (r % 4) {
    case 0: flip_bit_in(m.node, r / 4); break;
    case 1: flip_bit_in(m.position.x, r / 4); break;
    case 2: flip_bit_in(m.position.y, r / 4); break;
    default: flip_bit_in(m.position.z, r / 4); break;
  }
}

inline bool fault_truncate_payload(HaloNodeMsg&, std::uint64_t) {
  return false;  // fixed-layout message: truncation cuts the cell tail
}

/// Descriptor broadcast: the serialized descriptor tree (the tree_io binary
/// wire, exact double round-trip). The transport treats the payload as
/// opaque bytes; the per-cell frame and the byte-level fault hooks below
/// work on those bytes.
struct DescriptorTreeMsg {
  std::string wire;
};

inline wgt_t wire_bytes(const DescriptorTreeMsg& m) {
  return static_cast<wgt_t>(m.wire.size());
}

inline std::uint64_t wire_hash(const DescriptorTreeMsg& m) {
  std::uint64_t h = fnv1a_value(kFnvOffsetBasis, m.wire.size());
  return fnv1a_bytes(h, m.wire.data(), m.wire.size());
}

inline void fault_bitflip(DescriptorTreeMsg& m, std::uint64_t r) {
  if (m.wire.empty()) return;
  const std::size_t i = static_cast<std::size_t>(r % m.wire.size());
  m.wire[i] = static_cast<char>(m.wire[i] ^
                                static_cast<char>(1 << ((r / 7) % 8)));
}

inline bool fault_truncate_payload(DescriptorTreeMsg& m, std::uint64_t r) {
  if (m.wire.empty()) return false;
  m.wire.resize(static_cast<std::size_t>(r % m.wire.size()));
  return true;
}

/// Element shipping: one surface face with its node ids and coordinates.
struct FaceShipMsg {
  idx_t face = kInvalidIndex;     // global surface-face index
  idx_t element = kInvalidIndex;  // owning mesh element
  std::int32_t num_nodes = 0;
  std::array<idx_t, 4> nodes{kInvalidIndex, kInvalidIndex, kInvalidIndex,
                             kInvalidIndex};
  std::array<Vec3, 4> coords{};
};

inline wgt_t wire_bytes(const FaceShipMsg& m) {
  return static_cast<wgt_t>(2 * sizeof(idx_t) + sizeof(std::int32_t)) +
         static_cast<wgt_t>(m.num_nodes) *
             static_cast<wgt_t>(sizeof(idx_t) + 3 * sizeof(real_t));
}

inline std::uint64_t wire_hash(const FaceShipMsg& m) {
  std::uint64_t h = fnv1a_value(kFnvOffsetBasis, m.face);
  h = fnv1a_value(h, m.element);
  h = fnv1a_value(h, m.num_nodes);
  for (idx_t id : m.nodes) h = fnv1a_value(h, id);
  for (const Vec3& c : m.coords) h = fnv1a_vec3(h, c);
  return h;
}

inline void fault_bitflip(FaceShipMsg& m, std::uint64_t r) {
  switch (r % 4) {
    case 0: flip_bit_in(m.face, r / 4); break;
    case 1: flip_bit_in(m.element, r / 4); break;
    case 2: flip_bit_in(m.nodes[(r / 4) % 4], r / 16); break;
    default: flip_bit_in(m.coords[(r / 4) % 4].x, r / 16); break;
  }
}

inline bool fault_truncate_payload(FaceShipMsg&, std::uint64_t) {
  return false;
}

/// ML+RCB coupling: one contact point shipped between the FE and the RCB
/// decompositions (forward before the search, results back after).
struct ContactPointMsg {
  idx_t node = kInvalidIndex;
  Vec3 position{};
};

inline wgt_t wire_bytes(const ContactPointMsg&) {
  return static_cast<wgt_t>(sizeof(idx_t) + 3 * sizeof(real_t));
}

inline std::uint64_t wire_hash(const ContactPointMsg& m) {
  std::uint64_t h = fnv1a_value(kFnvOffsetBasis, m.node);
  return fnv1a_vec3(h, m.position);
}

inline void fault_bitflip(ContactPointMsg& m, std::uint64_t r) {
  if (r % 4 == 0) {
    flip_bit_in(m.node, r / 4);
  } else {
    flip_bit_in(m.position[static_cast<int>(r % 3)], r / 4);
  }
}

inline bool fault_truncate_payload(ContactPointMsg&, std::uint64_t) {
  return false;
}

/// ML+RCB subdomain-box allgather: one rank's RCB bounding box.
struct SubdomainBoxMsg {
  idx_t rank = kInvalidIndex;
  BBox box{};
};

inline wgt_t wire_bytes(const SubdomainBoxMsg&) {
  return static_cast<wgt_t>(sizeof(idx_t) + 6 * sizeof(real_t));
}

inline std::uint64_t wire_hash(const SubdomainBoxMsg& m) {
  std::uint64_t h = fnv1a_value(kFnvOffsetBasis, m.rank);
  h = fnv1a_vec3(h, m.box.lo);
  return fnv1a_vec3(h, m.box.hi);
}

inline void fault_bitflip(SubdomainBoxMsg& m, std::uint64_t r) {
  if (r % 7 == 0) {
    flip_bit_in(m.rank, r / 7);
  } else {
    Vec3& v = (r % 2 == 0) ? m.box.lo : m.box.hi;
    flip_bit_in(v[static_cast<int>(r % 3)], r / 7);
  }
}

inline bool fault_truncate_payload(SubdomainBoxMsg&, std::uint64_t) {
  return false;
}

/// Repartition label broadcast: the changed entries of the new labeling as
/// one delta-varint blob (see runtime/label_codec.hpp). Rank 0 broadcasts a
/// single batch; every rank decodes it into its pending label list and
/// splices the updates into its ownership replica at the commit superstep.
/// Batching replaced the old 16-byte-per-node LabelUpdateMsg stream: one
/// message per receiver, ~2-3 bytes per changed node on the wire.
struct LabelBatchMsg {
  std::string blob;
};

inline wgt_t wire_bytes(const LabelBatchMsg& m) {
  return static_cast<wgt_t>(m.blob.size());
}

inline std::uint64_t wire_hash(const LabelBatchMsg& m) {
  std::uint64_t h = fnv1a_value(kFnvOffsetBasis, m.blob.size());
  return fnv1a_bytes(h, m.blob.data(), m.blob.size());
}

inline void fault_bitflip(LabelBatchMsg& m, std::uint64_t r) {
  if (m.blob.empty()) return;
  const std::size_t i = static_cast<std::size_t>(r % m.blob.size());
  m.blob[i] = static_cast<char>(m.blob[i] ^
                                static_cast<char>(1 << ((r / 7) % 8)));
}

inline bool fault_truncate_payload(LabelBatchMsg& m, std::uint64_t r) {
  if (m.blob.empty()) return false;
  m.blob.resize(static_cast<std::size_t>(r % m.blob.size()));
  return true;
}

/// Node-state migration: the authoritative per-node state a rank ships to
/// the node's new owner after a repartition (position plus the accumulated
/// contact-hit counter — the receiver must splice both, or the ownership
/// oracle diverges).
struct NodeMigrateMsg {
  idx_t node = kInvalidIndex;
  Vec3 position{};
  wgt_t contact_hits = 0;
};

inline wgt_t wire_bytes(const NodeMigrateMsg&) {
  return static_cast<wgt_t>(sizeof(idx_t) + 3 * sizeof(real_t) +
                            sizeof(wgt_t));
}

inline std::uint64_t wire_hash(const NodeMigrateMsg& m) {
  std::uint64_t h = fnv1a_value(kFnvOffsetBasis, m.node);
  h = fnv1a_vec3(h, m.position);
  return fnv1a_value(h, m.contact_hits);
}

inline void fault_bitflip(NodeMigrateMsg& m, std::uint64_t r) {
  switch (r % 5) {
    case 0: flip_bit_in(m.node, r / 5); break;
    case 1: flip_bit_in(m.position.x, r / 5); break;
    case 2: flip_bit_in(m.position.y, r / 5); break;
    case 3: flip_bit_in(m.position.z, r / 5); break;
    default: flip_bit_in(m.contact_hits, r / 5); break;
  }
}

inline bool fault_truncate_payload(NodeMigrateMsg&, std::uint64_t) {
  return false;
}

/// Element-record migration: one element's connectivity record re-homed to
/// the new majority owner of its nodes. The receiver validates the record
/// against its immutable topology before splicing.
struct ElementMigrateMsg {
  idx_t element = kInvalidIndex;
  std::int32_t num_nodes = 0;
  std::array<idx_t, 8> nodes{kInvalidIndex, kInvalidIndex, kInvalidIndex,
                             kInvalidIndex, kInvalidIndex, kInvalidIndex,
                             kInvalidIndex, kInvalidIndex};
};

inline wgt_t wire_bytes(const ElementMigrateMsg& m) {
  return static_cast<wgt_t>(sizeof(idx_t) + sizeof(std::int32_t)) +
         static_cast<wgt_t>(m.num_nodes) * static_cast<wgt_t>(sizeof(idx_t));
}

inline std::uint64_t wire_hash(const ElementMigrateMsg& m) {
  std::uint64_t h = fnv1a_value(kFnvOffsetBasis, m.element);
  h = fnv1a_value(h, m.num_nodes);
  for (idx_t id : m.nodes) h = fnv1a_value(h, id);
  return h;
}

inline void fault_bitflip(ElementMigrateMsg& m, std::uint64_t r) {
  switch (r % 3) {
    case 0: flip_bit_in(m.element, r / 3); break;
    case 1: flip_bit_in(m.num_nodes, r / 3); break;
    default: flip_bit_in(m.nodes[(r / 3) % 8], r / 24); break;
  }
}

inline bool fault_truncate_payload(ElementMigrateMsg&, std::uint64_t) {
  return false;
}

// ---------------------------------------------------------------------------
// Errors and retry policy
// ---------------------------------------------------------------------------

/// Thrown by AsyncExecutor::run when a group still has corrupt cells after
/// the full retry budget. The pipelines catch it and complete the step
/// through the centralized reference path.
class TransportError : public std::runtime_error {
 public:
  TransportError(const std::string& msg, std::uint64_t superstep,
                 idx_t attempts, idx_t corrupt_cells)
      : std::runtime_error(msg),
        superstep_(superstep),
        attempts_(attempts),
        corrupt_cells_(corrupt_cells) {}

  std::uint64_t superstep() const { return superstep_; }
  idx_t attempts() const { return attempts_; }
  idx_t corrupt_cells() const { return corrupt_cells_; }

 private:
  std::uint64_t superstep_;
  idx_t attempts_;
  idx_t corrupt_cells_;
};

struct RetryPolicy {
  /// Total validation attempts per cell (first try + retries).
  idx_t max_attempts = 4;
  /// Exponential backoff base applied between attempts; always recorded in
  /// PipelineHealth::backoff_ms. Only the checkpoint store actually sleeps
  /// it, and only when sleep_on_backoff: the in-process exchange has no
  /// congestion to wait out, so it records the backoff without sleeping.
  double backoff_base_ms = 0.5;
  bool sleep_on_backoff = false;

  /// Doublings after which the backoff stops growing. 2^62 stays exactly
  /// representable as a double and inside std::uint64_t, so the shift is
  /// well-defined for every retry count instead of overflowing (shifting a
  /// 64-bit one by >= 64 is UB, and callers like the checkpoint store retry
  /// far past 64 attempts).
  static constexpr idx_t kBackoffSaturation = 62;

  /// Backoff before retry `retry` (0-based): base * 2^min(retry,
  /// saturation). Total so far grows linearly once saturated.
  double backoff_for(idx_t retry) const {
    const idx_t capped = retry < kBackoffSaturation ? retry : kBackoffSaturation;
    return backoff_base_ms *
           static_cast<double>(std::uint64_t{1} << capped);
  }
};

// ---------------------------------------------------------------------------
// TypedChannel
// ---------------------------------------------------------------------------

/// One contiguous run of a rank's inbox that arrived from a single source.
struct SourceRange {
  idx_t from = kInvalidIndex;
  idx_t begin = 0;  // [begin, end) into inbox(rank)
  idx_t end = 0;
};

/// A k-rank point-to-point channel for messages of type T.
///
/// send() may be called concurrently by different source ranks: the outbox
/// cells are indexed (from, to), and rank r only ever writes row r. Each
/// cell carries a frame (message count + running FNV-1a checksum) built at
/// send time. Delivery is two-phase and per destination:
/// attempt_deliver_cell() stages one pending cell onto the "wire"
/// (optionally corrupted by a FaultInjector) and validates it against the
/// frame — the outbox is retained until its cell validates, so corrupt
/// cells can be re-staged; commit_dst() then assembles one inbox from the
/// validated cells in ascending source order and charges the transport.
template <typename T>
class TypedChannel {
 public:
  TypedChannel() = default;

  void resize(idx_t k) {
    require(k >= 1, "TypedChannel: k must be >= 1");
    k_ = k;
    cells_.assign(static_cast<std::size_t>(k) * static_cast<std::size_t>(k),
                  Cell{});
    inboxes_.assign(static_cast<std::size_t>(k), {});
    sources_.assign(static_cast<std::size_t>(k), {});
  }

  idx_t num_ranks() const { return k_; }

  /// Posts `item` from rank `from` to rank `to`. Self-sends are local data
  /// and are dropped, matching VirtualCluster::send.
  void send(idx_t from, idx_t to, T item) {
    require(from >= 0 && from < k_ && to >= 0 && to < k_,
            "TypedChannel::send: rank out of range");
    if (from == to) return;
    const std::uint64_t item_hash = wire_hash(item);
    post(from, to, std::move(item), item_hash);
  }

  /// Posts `item` from `from` to every other rank. The frame checksum of
  /// the (identical) copies is computed once, not per destination — for a
  /// bulk payload like the descriptor tree the k-1 redundant hashes were a
  /// measurable per-step cost. Delivery validation still hashes each cell's
  /// wire copy independently.
  void broadcast(idx_t from, const T& item) {
    require(from >= 0 && from < k_, "TypedChannel::broadcast: rank out of range");
    const std::uint64_t item_hash = wire_hash(item);
    for (idx_t to = 0; to < k_; ++to) {
      if (to != from) post(from, to, item, item_hash);
    }
  }

  /// One validation attempt of the single (from, to) cell: stages it onto
  /// the wire (through `injector` when non-null — the wire copy may be
  /// corrupted, the outbox stays pristine), recomputes count + checksum, and
  /// marks the cell when it validates. The injector decision is keyed on
  /// (channel, superstep, attempt, from, to), so the fault schedule is a
  /// pure function of those five values. Returns true when the cell is
  /// staged OK (empty cells validate trivially and consume no decision).
  /// Safe to call concurrently for distinct cells; detection counters
  /// accumulate into `health`, whatever scratch the caller owns.
  bool attempt_deliver_cell(FaultInjector* injector, ChannelId id,
                            std::uint64_t superstep, idx_t attempt, idx_t from,
                            idx_t to, PipelineHealth& health) {
    Cell& cell = cells_[static_cast<std::size_t>(from) *
                            static_cast<std::size_t>(k_) +
                        static_cast<std::size_t>(to)];
    if (cell.staged_ok) return true;
    if (cell.count == 0) {
      cell.staged_ok = true;
      return true;
    }
    std::vector<T> wire;
    if (injector != nullptr) {
      wire = cell.items;  // outbox retained until the cell validates
      injector->maybe_corrupt(id, superstep, attempt, from, to, wire);
    } else {
      // Fast path: nothing between us and the inbox can corrupt the
      // data except genuine in-process memory corruption, which the
      // checksum below still detects (and which no retry could fix).
      wire = std::move(cell.items);
      cell.items.clear();
    }
    std::uint64_t h = kFnvOffsetBasis;
    for (const T& item : wire) h = (h ^ wire_hash(item)) * kFnvPrime;
    const bool count_ok = to_idx(wire.size()) == cell.count;
    const bool hash_ok = h == cell.hash;
    if (count_ok && hash_ok) {
      cell.staged = std::move(wire);
      cell.staged_ok = true;
      return true;
    }
    ChannelHealth& ch = health.channel(id);
    ++ch.corrupt_cells;
    ++health.corrupt_cells;
    if (!count_ok) {
      ++ch.count_mismatches;
      ++health.count_mismatches;
    } else {
      ++ch.checksum_failures;
      ++health.checksum_failures;
    }
    ch.redelivered_bytes += cell.bytes;
    health.redelivered_bytes += cell.bytes;
    return false;
  }

  /// Per-destination commit: assembles rank `to`'s inbox from its validated
  /// staged cells in ascending source order, charges `transport`, resets
  /// the column's cells, and returns the payload bytes moved. The caller
  /// guarantees every non-empty cell of the column is staged_ok. Concurrent
  /// calls for different `to` are safe: they touch disjoint cells, inboxes,
  /// source lists, and transport matrix entries (VirtualCluster::send
  /// writes only matrix[from * k + to]).
  wgt_t commit_dst(idx_t to, VirtualCluster* transport) {
    wgt_t bytes = 0;
    auto& inbox = inboxes_[static_cast<std::size_t>(to)];
    auto& sources = sources_[static_cast<std::size_t>(to)];
    inbox.clear();
    sources.clear();
    for (idx_t from = 0; from < k_; ++from) {
      Cell& cell = cells_[static_cast<std::size_t>(from) *
                              static_cast<std::size_t>(k_) +
                          static_cast<std::size_t>(to)];
      if (cell.count > 0) {
        const idx_t begin = to_idx(inbox.size());
        inbox.insert(inbox.end(),
                     std::make_move_iterator(cell.staged.begin()),
                     std::make_move_iterator(cell.staged.end()));
        sources.push_back({from, begin, to_idx(inbox.size())});
        if (transport != nullptr) {
          transport->send(from, to, cell.count);
        }
        bytes += cell.bytes;
      }
      cell.reset();
    }
    return bytes;
  }

  /// Drops all pending outboxes, staged data, and inboxes (degraded-mode
  /// cleanup after an exhausted group).
  void abort() {
    for (Cell& cell : cells_) cell.reset();
    for (auto& inbox : inboxes_) inbox.clear();
    for (auto& sources : sources_) sources.clear();
  }

  /// Messages delivered to `rank` last superstep, ascending source order.
  const std::vector<T>& inbox(idx_t rank) const {
    return inboxes_[static_cast<std::size_t>(rank)];
  }

  /// Per-source runs of inbox(rank) — lets a receiver answer each source.
  std::span<const SourceRange> inbox_sources(idx_t rank) const {
    return sources_[static_cast<std::size_t>(rank)];
  }

 private:
  /// Shared body of send()/broadcast(): folds a precomputed item hash into
  /// the cell's send-side frame and appends the item to the outbox.
  void post(idx_t from, idx_t to, T item, std::uint64_t item_hash) {
    Cell& cell = cells_[static_cast<std::size_t>(from) *
                            static_cast<std::size_t>(k_) +
                        static_cast<std::size_t>(to)];
    cell.bytes += wire_bytes(item);
    cell.hash = (cell.hash ^ item_hash) * kFnvPrime;
    ++cell.count;
    cell.items.push_back(std::move(item));
  }

  struct Cell {
    std::vector<T> items;   // outbox, retained until validated
    std::vector<T> staged;  // validated wire copy awaiting commit
    wgt_t bytes = 0;
    std::uint64_t hash = kFnvOffsetBasis;  // send-side frame checksum
    idx_t count = 0;                       // send-side frame message count
    bool staged_ok = false;

    void reset() {
      items.clear();
      staged.clear();
      bytes = 0;
      hash = kFnvOffsetBasis;
      count = 0;
      staged_ok = false;
    }
  };

  idx_t k_ = 0;
  std::vector<Cell> cells_;  // k*k, row = source rank
  std::vector<std::vector<T>> inboxes_;
  std::vector<std::vector<SourceRange>> sources_;
};

// ---------------------------------------------------------------------------
// Exchange
// ---------------------------------------------------------------------------

/// The channel bundle one pipeline step runs over, with the VirtualCluster
/// transports underneath. Three traffic groups mirror the report fields of
/// the centralized pipelines:
///   * halo            -> fe cluster        (units == fe_halo_traffic)
///   * faces           -> search cluster    (units == NRemote shipping)
///   * coupling fwd+ret -> one shared coupling cluster, finished once, so a
///     rank pair active in both directions counts like the centralized
///     m2m_traffic matrix (messages included);
///   * migrate_nodes + migrate_elements -> one shared migration cluster
///     (units == migrated records, the repartition redistribution volume);
/// descriptor, box, and label broadcasts move bytes but are charged to no
/// cluster — the centralized paths report them as byte counts, not
/// StepTraffic.
class Exchange {
 public:
  explicit Exchange(idx_t k);

  idx_t num_ranks() const { return k_; }

  TypedChannel<DescriptorTreeMsg>& descriptors() { return descriptors_; }
  TypedChannel<HaloNodeMsg>& halo() { return halo_; }
  TypedChannel<FaceShipMsg>& faces() { return faces_; }
  TypedChannel<ContactPointMsg>& coupling_forward() { return coupling_forward_; }
  TypedChannel<ContactPointMsg>& coupling_return() { return coupling_return_; }
  TypedChannel<SubdomainBoxMsg>& boxes() { return boxes_; }
  TypedChannel<LabelBatchMsg>& labels() { return labels_; }
  TypedChannel<NodeMigrateMsg>& migrate_nodes() { return migrate_nodes_; }
  TypedChannel<ElementMigrateMsg>& migrate_elements() {
    return migrate_elements_;
  }

  /// Arms (or disarms, with nullptr) fault injection on every channel.
  /// Non-owning; the injector must outlive the exchange's use of it.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  void set_retry_policy(const RetryPolicy& policy);
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Clears every channel, the phase clusters, and the byte accumulators —
  /// but not the health counters. Used by the degraded path so the next
  /// step starts from a clean transport.
  void abort_step();

  // -------------------------------------------------------------------------
  // Channel-granular delivery, driven by AsyncExecutor. A "group" is the
  // ChannelMask one consuming phase reads, and each group is one superstep.
  // The executor validates every cell of a destination's column with its
  // own retry loop, commits the column, and folds the group's accounting
  // here once the run ends.
  // -------------------------------------------------------------------------

  /// Superstep id the next group will key its fault decisions on. The
  /// groups of one run are numbered consecutively from this value in group
  /// order.
  std::uint64_t next_superstep() const { return superstep_; }

  /// Rewinds (or advances) the superstep cursor. Checkpoint recovery
  /// restores the cursor recorded at checkpoint time so a replayed step
  /// keys the exact fault schedule of the original run — the determinism
  /// that makes replay bit-identical under an armed injector.
  void set_next_superstep(std::uint64_t superstep) { superstep_ = superstep; }

  /// One validation attempt of the (from, to) cell of channel `id` at
  /// (superstep, attempt); see TypedChannel::attempt_deliver_cell.
  /// Detection counters accumulate into `health`, a caller-private scratch
  /// folded later by async_fold_group. Returns true when the cell staged OK.
  /// Thread-safe for distinct cells.
  bool async_validate_cell(ChannelId id, std::uint64_t superstep,
                           idx_t attempt, idx_t from, idx_t to,
                           PipelineHealth& health);

  /// Commits every staged cell addressed to `to` on channel `id` (ascending
  /// source order), charging the channel's phase cluster, and adds the
  /// payload bytes to `bytes` (caller-private scratch; async_fold_group
  /// moves them into the per-channel accumulators for counted groups only).
  /// Thread-safe for distinct `to`.
  void async_commit_dst(ChannelId id, idx_t to, wgt_t& bytes);

  /// Accounting of one completed (or exhausted) group: one delivery;
  /// `passes` validation passes, where passes = min(1 + the worst per-cell
  /// failure count, max_attempts); passes-1 retries, each adding its
  /// exponential backoff; the per-destination detection scratches merged in
  /// ascending rank order; and the per-destination payload bytes added to
  /// the per-channel accumulators. Advances the superstep counter by one.
  /// When `exhausted`, also counts the exhausted delivery — the caller then
  /// abort_step()s and throws exhausted_error().
  struct AsyncGroupAccounting {
    std::span<const PipelineHealth> dst_health;
    std::span<const std::array<wgt_t, kNumChannels>> dst_bytes;
    idx_t passes = 1;
    bool exhausted = false;
  };
  void async_fold_group(const AsyncGroupAccounting& acc);

  /// The TransportError a run throws when group `superstep` exhausts the
  /// retry budget with `corrupt_cells` cells still failing.
  static TransportError exhausted_error(std::uint64_t superstep,
                                        idx_t attempts, idx_t corrupt_cells);

  /// Health counters since the last take (reads reset them).
  PipelineHealth take_health() { return std::exchange(health_, {}); }
  const PipelineHealth& health() const { return health_; }

  /// Per-group traffic since the last take (finishing resets the cluster).
  StepTraffic take_fe_traffic() { return fe_cluster_.finish(); }
  StepTraffic take_search_traffic() { return search_cluster_.finish(); }
  StepTraffic take_coupling_traffic() { return coupling_cluster_.finish(); }
  StepTraffic take_migration_traffic() { return migration_cluster_.finish(); }

  /// Payload bytes accumulated since the last take (reads reset to 0).
  wgt_t take_descriptor_bytes() { return std::exchange(descriptor_bytes_, 0); }
  wgt_t take_halo_bytes() { return std::exchange(halo_bytes_, 0); }
  wgt_t take_face_bytes() { return std::exchange(face_bytes_, 0); }
  wgt_t take_coupling_bytes() { return std::exchange(coupling_bytes_, 0); }
  wgt_t take_box_bytes() { return std::exchange(box_bytes_, 0); }
  wgt_t take_label_bytes() { return std::exchange(label_bytes_, 0); }
  wgt_t take_migration_bytes() { return std::exchange(migration_bytes_, 0); }

 private:
  idx_t k_;
  TypedChannel<DescriptorTreeMsg> descriptors_;
  TypedChannel<HaloNodeMsg> halo_;
  TypedChannel<FaceShipMsg> faces_;
  TypedChannel<ContactPointMsg> coupling_forward_;
  TypedChannel<ContactPointMsg> coupling_return_;
  TypedChannel<SubdomainBoxMsg> boxes_;
  TypedChannel<LabelBatchMsg> labels_;
  TypedChannel<NodeMigrateMsg> migrate_nodes_;
  TypedChannel<ElementMigrateMsg> migrate_elements_;
  VirtualCluster fe_cluster_;
  VirtualCluster search_cluster_;
  VirtualCluster coupling_cluster_;
  VirtualCluster migration_cluster_;
  FaultInjector* injector_ = nullptr;
  RetryPolicy retry_{};
  PipelineHealth health_{};
  std::uint64_t superstep_ = 0;  // groups folded since construction
  wgt_t descriptor_bytes_ = 0;
  wgt_t halo_bytes_ = 0;
  wgt_t face_bytes_ = 0;
  wgt_t coupling_bytes_ = 0;
  wgt_t box_bytes_ = 0;
  wgt_t label_bytes_ = 0;
  wgt_t migration_bytes_ = 0;
};

}  // namespace cpart
