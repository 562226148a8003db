#include "tree/tree_io.hpp"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <limits>
#include <ostream>
#include <string_view>

#include "util/varint.hpp"

namespace cpart {

void write_tree(std::ostream& os, const DecisionTree& tree) {
  os << "cparttree 1\n";
  os << tree.num_nodes() << ' ' << (tree.empty() ? -1 : tree.root()) << '\n';
  os << std::setprecision(17);
  for (idx_t id = 0; id < tree.num_nodes(); ++id) {
    const TreeNode& nd = tree.node(id);
    os << nd.axis << ' ' << nd.cut << ' ' << nd.left << ' ' << nd.right << ' '
       << nd.label << ' ' << (nd.pure ? 1 : 0) << ' ' << nd.count;
    os << ' ' << nd.bounds.lo.x << ' ' << nd.bounds.lo.y << ' '
       << nd.bounds.lo.z << ' ' << nd.bounds.hi.x << ' ' << nd.bounds.hi.y
       << ' ' << nd.bounds.hi.z;
    const auto minorities = tree.minority_labels(id);
    os << ' ' << minorities.size();
    for (idx_t l : minorities) os << ' ' << l;
    os << '\n';
  }
}

namespace {

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

constexpr char kBinaryMagic[4] = {'c', 'p', 't', 'b'};
// axis i8 + pure u8 + cut f64 + (left,right,label,count) i32 + bounds 6*f64.
constexpr std::size_t kNodeRecordBytes = 1 + 1 + 8 + 4 * 4 + 6 * 8;

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void append_f64(std::string& out, double v) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

/// Bounded little-endian reader that never trusts the wire: every read
/// checks the remaining length first, and every failure raises
/// TreeParseError with the byte offset where decoding stopped. Fixed-width fields make truncation detection exact.
class BinaryScanner {
 public:
  explicit BinaryScanner(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8(const char* what) {
    need(1, what);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  std::int32_t i32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return static_cast<std::int32_t>(v);
  }

  double f64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return std::bit_cast<double>(v);
  }

  std::uint64_t varint(const char* what) {
    std::uint64_t v = 0;
    if (!read_varint(bytes_, pos_, v)) {
      fail(std::string("decode_tree: bad varint ") + what, pos_);
    }
    return v;
  }

  void expect_magic() {
    need(sizeof(kBinaryMagic), "magic");
    if (bytes_.compare(0, sizeof(kBinaryMagic), kBinaryMagic,
                       sizeof(kBinaryMagic)) != 0) {
      fail("decode_tree: not a cptb stream", 0);
    }
    pos_ += sizeof(kBinaryMagic);
  }

  void expect_end() const {
    if (pos_ < bytes_.size()) {
      fail("decode_tree: trailing bytes after tree", pos_);
    }
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t pos() const { return pos_; }

  [[noreturn]] static void fail(const std::string& msg, std::size_t offset) {
    throw TreeParseError(msg, offset);
  }

 private:
  void need(std::size_t n, const char* what) const {
    if (bytes_.size() - pos_ < n) {
      fail(std::string("decode_tree: unexpected end of input, expected ") +
               what,
           bytes_.size());
    }
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string tree_to_binary(const DecisionTree& tree) {
  std::string out;
  const idx_t count = tree.num_nodes();
  out.reserve(8 + static_cast<std::size_t>(count) * (kNodeRecordBytes + 1));
  out.append(kBinaryMagic, sizeof(kBinaryMagic));
  out.push_back(static_cast<char>(kTreeBinaryVersion));
  append_varint(out, static_cast<std::uint64_t>(count));
  append_varint(out,
                static_cast<std::uint64_t>(tree.empty() ? 0 : tree.root() + 1));
  for (idx_t id = 0; id < count; ++id) {
    const TreeNode& nd = tree.node(id);
    out.push_back(static_cast<char>(static_cast<std::int8_t>(nd.axis)));
    out.push_back(static_cast<char>(nd.pure ? 1 : 0));
    append_f64(out, nd.cut);
    append_u32(out, static_cast<std::uint32_t>(nd.left));
    append_u32(out, static_cast<std::uint32_t>(nd.right));
    append_u32(out, static_cast<std::uint32_t>(nd.label));
    append_u32(out, static_cast<std::uint32_t>(nd.count));
    append_f64(out, nd.bounds.lo.x);
    append_f64(out, nd.bounds.lo.y);
    append_f64(out, nd.bounds.lo.z);
    append_f64(out, nd.bounds.hi.x);
    append_f64(out, nd.bounds.hi.y);
    append_f64(out, nd.bounds.hi.z);
  }
  for (idx_t id = 0; id < count; ++id) {
    const auto minorities = tree.minority_labels(id);
    append_varint(out, minorities.size());
    for (idx_t l : minorities) {
      append_varint(out, static_cast<std::uint64_t>(l));
    }
  }
  return out;
}

DecisionTree decode_tree(const std::string& wire) {
  BinaryScanner sc(wire);
  if (wire.empty()) {
    BinaryScanner::fail("decode_tree: empty input", 0);
  }
  sc.expect_magic();
  const std::uint8_t version = sc.u8("version");
  if (version != kTreeBinaryVersion) {
    BinaryScanner::fail("decode_tree: unsupported cptb version " +
                            std::to_string(version),
                        sc.pos() - 1);
  }
  const std::uint64_t raw_count = sc.varint("node count");
  // Every node costs a fixed record plus at least one minority-count byte:
  // a count that cannot fit in the remaining input is garbage, rejected
  // before any allocation.
  if (raw_count > sc.remaining() / (kNodeRecordBytes + 1)) {
    BinaryScanner::fail("decode_tree: implausible node count " +
                            std::to_string(raw_count),
                        sc.pos());
  }
  const idx_t count = static_cast<idx_t>(raw_count);
  const std::uint64_t raw_root = sc.varint("root");
  if (raw_root > raw_count) {
    BinaryScanner::fail("decode_tree: root out of range", sc.pos());
  }
  const idx_t root = static_cast<idx_t>(raw_root) - 1;
  std::vector<TreeNode> nodes(static_cast<std::size_t>(count));
  for (idx_t id = 0; id < count; ++id) {
    TreeNode& nd = nodes[static_cast<std::size_t>(id)];
    nd.axis = static_cast<std::int8_t>(sc.u8("axis"));
    nd.pure = sc.u8("pure flag") != 0;
    nd.cut = sc.f64("cut");
    nd.left = sc.i32("left");
    nd.right = sc.i32("right");
    nd.label = sc.i32("label");
    nd.count = sc.i32("count");
    nd.bounds.lo.x = sc.f64("bounds");
    nd.bounds.lo.y = sc.f64("bounds");
    nd.bounds.lo.z = sc.f64("bounds");
    nd.bounds.hi.x = sc.f64("bounds");
    nd.bounds.hi.y = sc.f64("bounds");
    nd.bounds.hi.z = sc.f64("bounds");
  }
  std::vector<idx_t> offsets{0};
  std::vector<idx_t> labels;
  for (idx_t id = 0; id < count; ++id) {
    const std::uint64_t num_minorities = sc.varint("minority count");
    if (num_minorities > sc.remaining()) {
      BinaryScanner::fail("decode_tree: implausible minority count in node " +
                              std::to_string(id),
                          sc.pos());
    }
    for (std::uint64_t i = 0; i < num_minorities; ++i) {
      const std::uint64_t l = sc.varint("minority label");
      if (l > static_cast<std::uint64_t>(
                  std::numeric_limits<std::int32_t>::max())) {
        BinaryScanner::fail("decode_tree: minority label out of range",
                            sc.pos());
      }
      labels.push_back(static_cast<idx_t>(l));
    }
    offsets.push_back(to_idx(labels.size()));
  }
  sc.expect_end();
  return assemble_tree(std::move(nodes), root, std::move(offsets),
                       std::move(labels));
}

DecisionTree assemble_tree(std::vector<TreeNode> nodes, idx_t root,
                           std::vector<idx_t> minority_offsets,
                           std::vector<idx_t> minority_labels) {
  const idx_t count = to_idx(nodes.size());
  require((count == 0) == (root < 0),
          "assemble_tree: root/emptiness mismatch");
  require(count == 0 || (root >= 0 && root < count),
          "assemble_tree: root out of range");
  require(minority_offsets.size() ==
              (count == 0 ? std::size_t{1}
                          : static_cast<std::size_t>(count) + 1) ||
              (count == 0 && minority_offsets.empty()),
          "assemble_tree: minority offsets size mismatch");
  // Validate children and count leaves; detect cycles by checking each node
  // is referenced at most once and the root never is.
  idx_t leaves = 0;
  std::vector<char> referenced(static_cast<std::size_t>(count), 0);
  for (idx_t id = 0; id < count; ++id) {
    const TreeNode& nd = nodes[static_cast<std::size_t>(id)];
    if (nd.axis < 0) {
      ++leaves;
      continue;
    }
    require(nd.axis < 3, "assemble_tree: bad split axis");
    for (idx_t child : {nd.left, nd.right}) {
      require(child >= 0 && child < count,
              "assemble_tree: child index out of range");
      require(!referenced[static_cast<std::size_t>(child)],
              "assemble_tree: node referenced twice (not a tree)");
      referenced[static_cast<std::size_t>(child)] = 1;
    }
  }
  require(count == 0 || !referenced[static_cast<std::size_t>(root)],
          "assemble_tree: root has a parent");
  DecisionTree tree;
  tree.nodes_ = std::move(nodes);
  tree.root_ = count == 0 ? kInvalidIndex : root;
  tree.num_leaves_ = leaves;
  tree.minority_offsets_ = std::move(minority_offsets);
  tree.minority_labels_ = std::move(minority_labels);
  return tree;
}

bool trees_equal(const DecisionTree& a, const DecisionTree& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_leaves() != b.num_leaves()) {
    return false;
  }
  if (a.empty()) return b.empty();
  if (a.root() != b.root()) return false;
  for (idx_t id = 0; id < a.num_nodes(); ++id) {
    const TreeNode& x = a.node(id);
    const TreeNode& y = b.node(id);
    if (x.axis != y.axis || x.cut != y.cut || x.left != y.left ||
        x.right != y.right || x.label != y.label || x.pure != y.pure ||
        x.count != y.count) {
      return false;
    }
    if (!(x.bounds.lo == y.bounds.lo) || !(x.bounds.hi == y.bounds.hi)) {
      return false;
    }
    const auto ma = a.minority_labels(id);
    const auto mb = b.minority_labels(id);
    if (ma.size() != mb.size() ||
        !std::equal(ma.begin(), ma.end(), mb.begin())) {
      return false;
    }
  }
  return true;
}

}  // namespace cpart
