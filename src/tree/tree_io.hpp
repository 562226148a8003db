// Decision-tree serialization.
//
// In the parallel algorithm the descriptor tree is built once and
// "communicated to all the processors" (paper Section 4.1.1) — NTNodes
// measures exactly this cost. This module provides the wire format: a
// versioned binary codec with a round-trip guarantee, a human-readable text
// dump for debugging, and a structural-equality helper used by the tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "tree/decision_tree.hpp"
#include "util/common.hpp"

namespace cpart {

/// Structured scan-level parse failure: truncated stream, bad magic or
/// version, overlong varint, trailing garbage, implausible counts. Carries
/// the byte offset into the wire where scanning failed so a corrupt
/// broadcast can be localized. Structural failures after a clean scan (bad
/// child indices, cycles) still raise plain InputError from assemble_tree.
class TreeParseError : public InputError {
 public:
  TreeParseError(const std::string& msg, std::size_t byte_offset)
      : InputError(msg + " (at byte " + std::to_string(byte_offset) + ")"),
        byte_offset_(byte_offset) {}

  std::size_t byte_offset() const { return byte_offset_; }

 private:
  std::size_t byte_offset_;
};

/// Human-readable dump of every node record ("cparttree 1" header, one
/// decimal line per node) for debugging. There is no parser for it: the
/// wire format is the binary codec below.
void write_tree(std::ostream& os, const DecisionTree& tree);

/// Version byte of the binary codec. Bump on ANY layout change (field
/// widths, record order, varint placement); decoders reject every version
/// they do not know, so mixed-version ranks fail loudly at parse time
/// instead of mis-reading records.
inline constexpr std::uint8_t kTreeBinaryVersion = 1;

/// Binary wire layout (all integers little-endian):
///   magic "cptb" (4 bytes) | version u8 | varint node_count |
///   varint root+1 | node_count fixed 74-byte records
///     (axis i8, pure u8, cut f64, left i32, right i32, label i32,
///      count i32, bounds lo/hi 6 x f64) |
///   node_count minority lists (varint count, then that many varint labels)
/// No trailing bytes. Counts are bounded by the remaining input before any
/// allocation; truncation, bad magic/version, overlong varints and trailing
/// garbage raise TreeParseError with the byte offset. Structural damage
/// that survives a clean scan is caught by assemble_tree (InputError).
/// decode_tree never trusts the wire: it never asserts and never returns a
/// partial tree.
std::string tree_to_binary(const DecisionTree& tree);
DecisionTree decode_tree(const std::string& wire);

/// Deep structural equality (topology, cuts, labels, bounds).
bool trees_equal(const DecisionTree& a, const DecisionTree& b);

/// Assembles a tree from raw node records (also used by decode_tree).
/// Validates: root in range, children in range and acyclic, exactly the
/// leaf nodes have axis < 0, minority CSR sizes consistent.
DecisionTree assemble_tree(std::vector<TreeNode> nodes, idx_t root,
                           std::vector<idx_t> minority_offsets,
                           std::vector<idx_t> minority_labels);

}  // namespace cpart
