#include "simmpi/coll/pipeline.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/trace.hpp"

namespace mpicp::sim {

std::vector<std::uint32_t> even_chunks(std::size_t total, int nchunks) {
  MPICP_REQUIRE(nchunks >= 1, "need at least one chunk");
  std::vector<std::uint32_t> chunks(nchunks);
  const std::size_t base = total / static_cast<std::size_t>(nchunks);
  const std::size_t rem = total % static_cast<std::size_t>(nchunks);
  for (int c = 0; c < nchunks; ++c) {
    chunks[c] = static_cast<std::uint32_t>(
        base + (static_cast<std::size_t>(c) < rem ? 1 : 0));
  }
  return chunks;
}

std::uint64_t chunk_range_bytes(const std::vector<std::uint32_t>& chunks,
                                int begin, int end) {
  std::uint64_t sum = 0;
  for (int c = begin; c < end; ++c) sum += chunks[c];
  return sum;
}

int floor_pow2(int p) {
  MPICP_REQUIRE(p >= 1, "floor_pow2 of non-positive value");
  int v = 1;
  while (v * 2 <= p) v *= 2;
  return v;
}

int ceil_log2(int p) {
  MPICP_REQUIRE(p >= 1, "ceil_log2 of non-positive value");
  int l = 0;
  int v = 1;
  while (v < p) {
    v *= 2;
    ++l;
  }
  return l;
}

// Receive prefetch depth of the segmented pipelines. Two outstanding
// receives (double buffering) hide the rendezvous handshake of segment
// s+1 behind the transfer of segment s, as real pipelined
// implementations do.
constexpr std::uint32_t kPipelineWindow = 2;

namespace {

/// Number of leading segment steps of a windowed pipeline that differ
/// only in their block offsets: every step but the last w, which post no
/// further receive, and the last segment, which may be short.
std::uint32_t regular_steps(const Segmentation& seg, std::uint32_t w) {
  return seg.nseg > w + 1 ? seg.nseg - 1 - w : 0;
}

}  // namespace

void emit_pipeline_bcast_rank(ProgramSet& progs, const VrankMap& map,
                              const Tree& tree, int v,
                              const Segmentation& seg, std::uint16_t tag,
                              std::uint32_t block_base) {
  const std::uint32_t w = std::min(kPipelineWindow, seg.nseg);
  const int rank = map.rank_of(v);
  RankProg prog(progs[rank], rank, map.world);
  const TreeNode& node = tree[v];
  const int parent = node.parent >= 0 ? map.rank_of(node.parent) : -1;
  if (parent >= 0) {
    for (std::uint32_t s = 0; s < w; ++s) {
      prog.irecv(parent, tag, seg.bytes_of(s), block_base + s, 1);
    }
  }
  const auto step = [&](std::uint32_t s) {
    if (parent >= 0) {
      prog.waitone();  // completes segment s
      if (s + w < seg.nseg) {
        prog.irecv(parent, tag, seg.bytes_of(s + w), block_base + s + w, 1);
      }
    }
    for (const int c : node.children) {
      prog.isend(map.rank_of(c), tag, seg.bytes_of(s), block_base + s, 1);
    }
  };
  emit_segment_steps(prog, regular_steps(seg, w), seg.nseg, step);
  if (!node.children.empty()) prog.waitall();
}

void emit_tree_bcast(ProgramSet& progs, const VrankMap& map,
                     const Tree& tree, const Segmentation& seg,
                     std::uint16_t tag, std::uint32_t block_base) {
  MPICP_SPAN("sim.pipeline.tree_bcast");
  for (int v = 0; v < static_cast<int>(tree.size()); ++v) {
    emit_pipeline_bcast_rank(progs, map, tree, v, seg, tag, block_base);
  }
}

void emit_tree_reduce(ProgramSet& progs, const VrankMap& map,
                      const Tree& tree, const Segmentation& seg,
                      std::uint16_t tag, std::uint32_t block_base) {
  const int p = static_cast<int>(tree.size());
  const std::uint32_t w = std::min(kPipelineWindow, seg.nseg);
  for (int v = 0; v < p; ++v) {
    const int rank = map.rank_of(v);
    RankProg prog(progs[rank], rank, map.world);
    const TreeNode& node = tree[v];
    const std::size_t nc = node.children.size();
    // Prefetch the children's contributions for the first w segments.
    for (std::uint32_t s = 0; s < w && nc > 0; ++s) {
      for (const int c : node.children) {
        prog.irecv(map.rank_of(c), tag, seg.bytes_of(s), block_base + s, 1,
                   kCombine);
      }
    }
    const auto step = [&](std::uint32_t s) {
      const std::size_t bytes = seg.bytes_of(s);
      for (std::size_t i = 0; i < nc; ++i) {
        prog.waitone();  // one child's segment s
        prog.compute(bytes);
      }
      if (nc > 0 && s + w < seg.nseg) {
        for (const int c : node.children) {
          prog.irecv(map.rank_of(c), tag, seg.bytes_of(s + w),
                     block_base + s + w, 1, kCombine);
        }
      }
      if (node.parent >= 0) {
        prog.isend(map.rank_of(node.parent), tag, bytes, block_base + s, 1);
      }
    };
    emit_segment_steps(prog, regular_steps(seg, w), seg.nseg, step);
    if (node.parent >= 0) prog.waitall();
  }
}

void emit_binomial_scatter(ProgramSet& progs, const VrankMap& map,
                           const Tree& tree,
                           const std::vector<std::uint32_t>& chunk_bytes,
                           std::uint16_t tag, std::uint32_t block_base) {
  const int p = static_cast<int>(tree.size());
  MPICP_REQUIRE(static_cast<int>(chunk_bytes.size()) == p,
                "one chunk per vrank required");
  for (int v = 0; v < p; ++v) {
    const int rank = map.rank_of(v);
    RankProg prog(progs[rank], rank, map.world);
    const TreeNode& node = tree[v];
    if (node.parent >= 0) {
      prog.recv(map.rank_of(node.parent), tag,
                chunk_range_bytes(chunk_bytes, v, v + node.subtree_size),
                block_base + static_cast<std::uint32_t>(v),
                static_cast<std::uint32_t>(node.subtree_size));
    }
    bool sent = false;
    for (const int c : node.children) {
      // Subtrees of our tree constructions are contiguous vrank ranges.
      prog.isend(map.rank_of(c), tag,
                 chunk_range_bytes(chunk_bytes, c,
                                   c + tree[c].subtree_size),
                 block_base + static_cast<std::uint32_t>(c),
                 static_cast<std::uint32_t>(tree[c].subtree_size));
      sent = true;
    }
    if (sent) prog.waitall();
  }
}

void emit_ring_allgather(ProgramSet& progs, const VrankMap& map,
                         const std::vector<std::uint32_t>& chunk_bytes,
                         std::uint16_t tag, std::uint32_t block_base) {
  const int p = map.p;
  if (p == 1) return;
  for (int v = 0; v < p; ++v) {
    const int rank = map.rank_of(v);
    RankProg prog(progs[rank], rank, map.world);
    const int next = map.rank_of((v + 1) % p);
    const int prev = map.rank_of((v - 1 + p) % p);
    for (int k = 0; k < p - 1; ++k) {
      const int sc = (v - k + p) % p;
      const int rc = (v - k - 1 + p) % p;
      prog.isend(next, tag, chunk_bytes[sc],
                 block_base + static_cast<std::uint32_t>(sc), 1);
      prog.recv(prev, tag, chunk_bytes[rc],
                block_base + static_cast<std::uint32_t>(rc), 1);
      prog.waitall();
    }
  }
}

void emit_ring_reduce_scatter(ProgramSet& progs, const VrankMap& map,
                              const std::vector<std::uint32_t>& chunk_bytes,
                              std::uint16_t tag, std::uint32_t block_base) {
  const int p = map.p;
  if (p == 1) return;
  for (int v = 0; v < p; ++v) {
    const int rank = map.rank_of(v);
    RankProg prog(progs[rank], rank, map.world);
    const int next = map.rank_of((v + 1) % p);
    const int prev = map.rank_of((v - 1 + p) % p);
    for (int k = 0; k < p - 1; ++k) {
      const int sc = (v - k + p) % p;
      const int rc = (v - k - 1 + p) % p;
      prog.isend(next, tag, chunk_bytes[sc],
                 block_base + static_cast<std::uint32_t>(sc), 1);
      prog.recv(prev, tag, chunk_bytes[rc],
                block_base + static_cast<std::uint32_t>(rc), 1, kCombine);
      prog.compute(chunk_bytes[rc]);
      prog.waitall();
    }
  }
}

void emit_recdbl_allgather(ProgramSet& progs, const VrankMap& map,
                           const std::vector<std::uint32_t>& chunk_bytes,
                           std::uint16_t tag, std::uint32_t block_base) {
  const int p = map.p;
  if (p == 1) return;
  const int p2 = floor_pow2(p);
  const std::uint64_t total = chunk_range_bytes(chunk_bytes, 0, p);
  for (int v = 0; v < p; ++v) {
    const int rank = map.rank_of(v);
    RankProg prog(progs[rank], rank, map.world);
    if (v >= p2) {
      // Fold-in: ship our chunk to the partner, collect the full result.
      const int partner = map.rank_of(v - p2);
      prog.send(partner, tag, chunk_bytes[v],
                block_base + static_cast<std::uint32_t>(v), 1);
      prog.recv(partner, static_cast<std::uint16_t>(tag + 1), total,
                block_base, static_cast<std::uint32_t>(p));
      continue;
    }
    if (v + p2 < p) {
      prog.recv(map.rank_of(v + p2), tag, chunk_bytes[v + p2],
                block_base + static_cast<std::uint32_t>(v + p2), 1);
    }
    for (int d = 1; d < p2; d <<= 1) {
      const int pv = v ^ d;
      const int partner = map.rank_of(pv);
      const int a = v & ~(d - 1);   // my layer-0 base
      const int b = pv & ~(d - 1);  // partner's layer-0 base
      // Layer 0: chunks [base, base+d); layer 1: the fold-in shadow
      // [base+p2, min(base+d+p2, p)). Message order (layer 0 first) is
      // identical on both sides, so FIFO matching pairs them correctly.
      const int a1_end = std::min(a + d + p2, p);
      const int b1_end = std::min(b + d + p2, p);
      prog.irecv(partner, tag, chunk_range_bytes(chunk_bytes, b, b + d),
                 block_base + static_cast<std::uint32_t>(b),
                 static_cast<std::uint32_t>(d));
      if (b + p2 < b1_end) {
        prog.irecv(partner, tag,
                   chunk_range_bytes(chunk_bytes, b + p2, b1_end),
                   block_base + static_cast<std::uint32_t>(b + p2),
                   static_cast<std::uint32_t>(b1_end - b - p2));
      }
      prog.isend(partner, tag, chunk_range_bytes(chunk_bytes, a, a + d),
                 block_base + static_cast<std::uint32_t>(a),
                 static_cast<std::uint32_t>(d));
      if (a + p2 < a1_end) {
        prog.isend(partner, tag,
                   chunk_range_bytes(chunk_bytes, a + p2, a1_end),
                   block_base + static_cast<std::uint32_t>(a + p2),
                   static_cast<std::uint32_t>(a1_end - a - p2));
      }
      prog.waitall();
    }
    if (v + p2 < p) {
      prog.send(map.rank_of(v + p2), static_cast<std::uint16_t>(tag + 1),
                total, block_base, static_cast<std::uint32_t>(p));
    }
  }
}

}  // namespace mpicp::sim
