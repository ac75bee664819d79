#include "simmpi/executor.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <queue>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/trace.hpp"

namespace mpicp::sim {

namespace {

// Records and unexpected messages pile up by the ten thousand when a
// pipeline's sender runs ahead of its receiver, so both stay small
// plain values; data-tracking payloads live in side vectors indexed
// like their pools (Engine::rec_payload_, Engine::msg_payload_), which
// fast runs never grow.

/// Record of a pending nonblocking or rendezvous operation.
struct Rec {
  double post_us = 0.0;
  double complete_us = -1.0;  // < 0: pending
  std::int32_t owner = -1;
  std::int32_t slot = -1;  // index in the owner's outstanding list
  std::int32_t next = -1;  // intrusive link in a posted-receive FIFO
  std::uint32_t bytes = 0;
  std::uint32_t block_begin = 0;
  std::uint32_t block_count = 0;
  std::uint8_t flags = kNone;

  bool complete() const { return complete_us >= 0.0; }
};

/// A send announced at a receiver before the matching receive was posted.
struct UnexpectedMsg {
  double arrival_us = 0.0;     // eager only: wire arrival time
  std::int32_t send_rec = -1;  // rendezvous only: the sender's record
  std::int32_t next = -1;      // intrusive FIFO link
};
static_assert(sizeof(UnexpectedMsg) == 16, "UnexpectedMsg must stay small");

/// Intrusive FIFO of pool indices. Kept as a plain 8-byte value inside
/// the match maps so matching does no per-message node allocation.
struct Fifo {
  std::int32_t head = -1;
  std::int32_t tail = -1;
  bool empty() const { return head < 0; }
};

struct MatchQueues {
  // key = (src << 16) | tag
  std::unordered_map<std::uint32_t, Fifo> unexpected;
  std::unordered_map<std::uint32_t, Fifo> recvs;
};

struct RankState {
  std::size_t pc = 0;
  // Cursor of the kRepeat loop being replayed (loop_count == 0: none):
  // body ops [loop_begin, loop_end), iteration loop_iter of loop_count.
  std::size_t loop_begin = 0;
  std::size_t loop_end = 0;
  std::uint32_t loop_iter = 0;
  std::uint32_t loop_count = 0;
  double time = 0.0;
  // Outstanding nonblocking requests. Slots consumed early by kWaitOne
  // are tombstoned (-1) and compacted away once they are the majority;
  // kWaitAll sweeps and clears the list.
  std::vector<std::int32_t> outstanding;
  std::size_t tombstones = 0;
  // Outstanding receives in posting order, for kWaitOne.
  std::deque<std::int32_t> recv_order;
  int pending = 0;             // outstanding requests not yet complete
  double outstanding_max = 0;  // latest completion among outstanding
  std::int32_t blocked_rec = -1;
  bool in_waitall = false;
  bool finished = false;

  bool blocked() const { return blocked_rec >= 0 || in_waitall; }
};

std::uint32_t match_key(int src, std::uint16_t tag) {
  return (static_cast<std::uint32_t>(src) << 16) | tag;
}

class Engine {
 public:
  Engine(Network& net, const ProgramSet& programs, DataStore* store)
      : net_(net),
        programs_(programs),
        store_(store),
        ranks_(programs.size()),
        match_(programs.size()) {}

  ExecResult run() {
    for (int r = 0; r < num_ranks(); ++r) heap_.emplace(0.0, r);
    while (!heap_.empty()) {
      const auto [t, r] = heap_.top();
      heap_.pop();
      wake(r, t);
      advance(r, t + kHorizonUs);
    }
    ExecResult result;
    result.finish_us.resize(ranks_.size());
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      if (!ranks_[r].finished) report_deadlock();
      result.finish_us[r] = ranks_[r].time;
      result.makespan_us = std::max(result.makespan_us, ranks_[r].time);
    }
    result.num_messages = num_messages_;
    return result;
  }

 private:
  int num_ranks() const { return static_cast<int>(programs_.size()); }

  // ---- record pool -------------------------------------------------
  std::int32_t alloc_rec() {
    if (!free_recs_.empty()) {
      const std::int32_t idx = free_recs_.back();
      free_recs_.pop_back();
      recs_[idx] = Rec{};
      return idx;
    }
    recs_.emplace_back();
    if (store_ != nullptr) rec_payload_.emplace_back();
    return static_cast<std::int32_t>(recs_.size() - 1);
  }

  void free_rec(std::int32_t idx) {
    if (store_ != nullptr) rec_payload_[idx] = {};
    free_recs_.push_back(idx);
  }

  // ---- match FIFO plumbing -------------------------------------------
  std::int32_t alloc_unexpected() {
    if (!ufree_.empty()) {
      const std::int32_t idx = ufree_.back();
      ufree_.pop_back();
      return idx;
    }
    upool_.emplace_back();
    if (store_ != nullptr) msg_payload_.emplace_back();
    return static_cast<std::int32_t>(upool_.size() - 1);
  }

  void free_unexpected(std::int32_t idx) {
    if (store_ != nullptr) msg_payload_[idx] = {};
    upool_[idx] = UnexpectedMsg{};
    ufree_.push_back(idx);
  }

  void push_unexpected(Fifo& f, std::int32_t idx) {
    upool_[idx].next = -1;
    if (f.tail >= 0) {
      upool_[f.tail].next = idx;
    } else {
      f.head = idx;
    }
    f.tail = idx;
  }

  std::int32_t pop_unexpected(Fifo& f) {
    const std::int32_t idx = f.head;
    f.head = upool_[idx].next;
    if (f.head < 0) f.tail = -1;
    return idx;
  }

  void push_recv(Fifo& f, std::int32_t rec_idx) {
    recs_[rec_idx].next = -1;
    if (f.tail >= 0) {
      recs_[f.tail].next = rec_idx;
    } else {
      f.head = rec_idx;
    }
    f.tail = rec_idx;
  }

  std::int32_t pop_recv(Fifo& f) {
    const std::int32_t idx = f.head;
    f.head = recs_[idx].next;
    if (f.head < 0) f.tail = -1;
    return idx;
  }

  // ---- wake/blocking machinery --------------------------------------

  /// Register a freshly posted nonblocking request with its owner.
  void add_outstanding(RankState& st, std::int32_t rec_idx, bool is_recv) {
    Rec& rec = recs_[rec_idx];
    rec.slot = static_cast<std::int32_t>(st.outstanding.size());
    st.outstanding.push_back(rec_idx);
    if (is_recv) st.recv_order.push_back(rec_idx);
    if (rec.complete()) {
      st.outstanding_max = std::max(st.outstanding_max, rec.complete_us);
    } else {
      ++st.pending;
    }
  }

  /// Retire every remaining outstanding request (all complete).
  void consume_outstanding(RankState& st) {
    MPICP_ASSERT(st.pending == 0, "consuming pending requests");
    st.time = std::max(st.time, st.outstanding_max);
    for (const std::int32_t idx : st.outstanding) {
      if (idx >= 0) free_rec(idx);  // skip kWaitOne tombstones
    }
    st.outstanding.clear();
    st.tombstones = 0;
    st.recv_order.clear();
    st.outstanding_max = 0.0;
  }

  /// Tombstone the slot of a request kWaitOne consumed. A pipeline posts
  /// thousands of receives before its final waitall, so once tombstones
  /// are the majority the live requests are packed to the front.
  void drop_outstanding(RankState& st, std::int32_t slot) {
    st.outstanding[slot] = -1;
    if (++st.tombstones * 2 <= st.outstanding.size()) return;
    std::size_t live = 0;
    for (const std::int32_t idx : st.outstanding) {
      if (idx < 0) continue;
      recs_[idx].slot = static_cast<std::int32_t>(live);
      st.outstanding[live++] = idx;
    }
    st.outstanding.resize(live);
    st.tombstones = 0;
  }

  void wake(int r, double at) {
    RankState& st = ranks_[r];
    st.time = std::max(st.time, at);
    if (st.blocked_rec >= 0) {
      Rec& rec = recs_[st.blocked_rec];
      MPICP_ASSERT(rec.complete(), "woken rank's record still pending");
      st.time = std::max(st.time, rec.complete_us);
      if (rec.slot >= 0) {
        // kWaitOne target: drop it from the bookkeeping structures.
        MPICP_ASSERT(!st.recv_order.empty() &&
                         st.recv_order.front() == st.blocked_rec,
                     "waitone target is not the oldest receive");
        st.recv_order.pop_front();
        drop_outstanding(st, rec.slot);
      }
      free_rec(st.blocked_rec);
      st.blocked_rec = -1;
    }
    if (st.in_waitall) {
      consume_outstanding(st);
      st.in_waitall = false;
    }
  }

  /// A previously pending record just completed; resume the owner if
  /// this satisfies its blocking condition.
  void notify(std::int32_t rec_idx) {
    const Rec& rec = recs_[rec_idx];
    RankState& st = ranks_[rec.owner];
    if (rec.slot >= 0) {
      --st.pending;
      st.outstanding_max = std::max(st.outstanding_max, rec.complete_us);
    }
    if (st.blocked_rec == rec_idx) {
      heap_.emplace(rec.complete_us, rec.owner);
      return;
    }
    if (st.in_waitall && st.pending == 0) {
      heap_.emplace(std::max(st.time, st.outstanding_max), rec.owner);
    }
  }

  // ---- data tracking -------------------------------------------------
  std::vector<Block> snapshot(int rank, const Op& op) const {
    if (store_ == nullptr || op.block_count == 0) return {};
    return store_->snapshot(rank, op.block_begin, op.block_count);
  }

  /// Keep a send's snapshot in the side vector slot `idx` until its
  /// receive matches (tracking runs only).
  void keep_payload(std::vector<std::vector<Block>>& side, std::int32_t idx,
                    int rank, const Op& op) {
    if (store_ != nullptr) side[idx] = snapshot(rank, op);
  }

  const std::vector<Block>& kept(
      const std::vector<std::vector<Block>>& side, std::int32_t idx) const {
    static const std::vector<Block> kNothing;
    return store_ != nullptr ? side[idx] : kNothing;
  }

  void apply_payload(int rank, std::uint32_t block_begin,
                     std::uint32_t block_count, std::uint8_t flags,
                     const std::vector<Block>& payload) {
    if (store_ == nullptr || block_count == 0 || payload.empty()) return;
    MPICP_ASSERT(payload.size() == block_count,
                 "send/recv block count mismatch");
    store_->apply(rank, block_begin, payload, (flags & kCombine) != 0);
  }

  // ---- rendezvous ------------------------------------------------------
  /// Both sides of a rendezvous message are known; schedule the wire
  /// transfer, complete the send record, and return the receive
  /// completion time.
  double resolve_rendezvous(std::int32_t send_rec_idx, int dst,
                            double recv_post_us) {
    Rec& srec = recs_[send_rec_idx];
    const LinkParams& lk = net_.link(srec.owner, dst);
    const double ready = std::max(srec.post_us, recv_post_us) +
                         net_.machine().rendezvous_rtt_us;
    const Transfer t =
        net_.schedule_transfer(srec.owner, dst, srec.bytes, ready);
    ++num_messages_;
    srec.complete_us = t.arrival_us;
    notify(send_rec_idx);
    return t.arrival_us + lk.overhead_us;
  }

  // ---- op execution ----------------------------------------------------

  /// Conservative time window: a rank may only execute ops while its
  /// local clock stays within this horizon of the current global event
  /// time; beyond it the rank is re-queued. This keeps network resource
  /// reservations in near-global-time order — without it, a rank that
  /// never blocks (e.g. a root flooding eager sends) would book shared
  /// NIC rails arbitrarily far into the future before its peers get to
  /// schedule causally-earlier transfers.
  static constexpr double kHorizonUs = 0.5;

  /// The rank's next op in expanded order, advancing its cursor: enters
  /// a kRepeat loop at its header, offsets the blocks of loop body ops
  /// by the iteration index, and wraps at the end of the body.
  static Op next_op(RankState& st, const std::vector<Op>& prog) {
    if (prog[st.pc].kind == OpKind::kRepeat) {
      const Op& rep = prog[st.pc];
      MPICP_ASSERT(st.loop_count == 0, "nested repeat loop");
      MPICP_ASSERT(rep.bytes >= 1 && rep.block_count >= 1 &&
                       st.pc + 1 + rep.block_count <= prog.size(),
                   "malformed repeat loop");
      st.loop_begin = st.pc + 1;
      st.loop_end = st.loop_begin + rep.block_count;
      st.loop_iter = 0;
      st.loop_count = rep.bytes;
      st.pc = st.loop_begin;
    }
    Op op = prog[st.pc++];
    if (st.loop_count > 0) {
      if (op.block_count > 0) op.block_begin += st.loop_iter;
      if (st.pc == st.loop_end) {
        if (++st.loop_iter < st.loop_count) {
          st.pc = st.loop_begin;
        } else {
          st.loop_count = 0;
        }
      }
    }
    return op;
  }

  void advance(int r, double deadline) {
    RankState& st = ranks_[r];
    const std::vector<Op>& prog = programs_[r];
    while (!st.blocked() && st.pc < prog.size()) {
      if (st.time > deadline) {
        heap_.emplace(st.time, r);  // yield; resume at local time
        return;
      }
      const Op op = next_op(st, prog);
      switch (op.kind) {
        case OpKind::kSend:
        case OpKind::kISend:
          exec_send(r, op);
          break;
        case OpKind::kRecv:
        case OpKind::kIRecv:
          exec_recv(r, op);
          break;
        case OpKind::kWaitAll:
          exec_waitall(r);
          break;
        case OpKind::kWaitOne:
          exec_waitone(r);
          break;
        case OpKind::kCompute:
          st.time += static_cast<double>(op.bytes) *
                     net_.machine().reduce_us_per_byte;
          break;
        case OpKind::kCopy: {
          st.time += net_.machine().intra.occupancy_us(op.bytes);
          if (store_ != nullptr && op.block_count > 0) {
            const auto payload =
                store_->snapshot(r, op.block_begin, op.block_count);
            store_->apply(r, static_cast<std::uint32_t>(op.peer), payload,
                          (op.flags & kCombine) != 0);
          }
          break;
        }
        case OpKind::kRepeat:
          MPICP_RAISE_INTERNAL("repeat header executed as an op");
      }
    }
    if (st.pc >= prog.size() && !st.blocked()) {
      bool leftovers = st.pending > 0;
      for (const std::int32_t idx : st.outstanding) {
        leftovers = leftovers || idx >= 0;  // -1: consumed by kWaitOne
      }
      MPICP_ASSERT(!leftovers,
                   "rank finished with outstanding requests (missing "
                   "waitall in algorithm builder)");
      st.finished = true;
    }
  }

  void exec_send(int r, const Op& op) {
    RankState& st = ranks_[r];
    const bool blocking = op.kind == OpKind::kSend;
    const LinkParams& lk = net_.link(r, op.peer);
    st.time += lk.overhead_us;
    const bool eager = op.bytes <= net_.machine().eager_limit_bytes;
    const std::uint32_t key = match_key(r, op.tag);
    MatchQueues& mq = match_[op.peer];

    if (eager) {
      const Transfer t =
          net_.schedule_transfer(r, op.peer, op.bytes, st.time);
      ++num_messages_;
      auto rq = mq.recvs.find(key);
      if (rq != mq.recvs.end() && !rq->second.empty()) {
        const std::int32_t recv_rec = pop_recv(rq->second);
        Rec& rrec = recs_[recv_rec];
        rrec.complete_us =
            std::max(rrec.post_us, t.arrival_us) + lk.overhead_us;
        apply_payload(op.peer, rrec.block_begin, rrec.block_count,
                      rrec.flags, snapshot(r, op));
        notify(recv_rec);
      } else {
        const std::int32_t uidx = alloc_unexpected();
        UnexpectedMsg& msg = upool_[uidx];
        msg.arrival_us = t.arrival_us;
        keep_payload(msg_payload_, uidx, r, op);
        push_unexpected(mq.unexpected[key], uidx);
      }
      return;  // eager sends complete locally; nothing to wait for
    }

    // Rendezvous path: create a send record.
    const std::int32_t send_rec = alloc_rec();
    Rec& srec = recs_[send_rec];
    srec.owner = r;
    srec.post_us = st.time;
    srec.bytes = op.bytes;
    keep_payload(rec_payload_, send_rec, r, op);

    auto rq = mq.recvs.find(key);
    if (rq != mq.recvs.end() && !rq->second.empty()) {
      const std::int32_t recv_rec = pop_recv(rq->second);
      Rec& rrec = recs_[recv_rec];
      const double recv_complete =
          resolve_rendezvous(send_rec, op.peer, rrec.post_us);
      rrec.complete_us = recv_complete;
      apply_payload(op.peer, rrec.block_begin, rrec.block_count, rrec.flags,
                    kept(rec_payload_, send_rec));
      notify(recv_rec);
      if (blocking) {
        st.time = std::max(st.time, recs_[send_rec].complete_us);
        free_rec(send_rec);
      } else {
        add_outstanding(st, send_rec, /*is_recv=*/false);
      }
      return;
    }

    // No receive posted yet: announce (RTS) and wait for the match.
    const std::int32_t uidx = alloc_unexpected();
    UnexpectedMsg& msg = upool_[uidx];
    msg.send_rec = send_rec;
    push_unexpected(mq.unexpected[key], uidx);
    if (blocking) {
      st.blocked_rec = send_rec;
    } else {
      add_outstanding(st, send_rec, /*is_recv=*/false);
    }
  }

  void exec_recv(int r, const Op& op) {
    RankState& st = ranks_[r];
    const bool blocking = op.kind == OpKind::kRecv;
    const LinkParams& lk = net_.link(op.peer, r);
    const std::uint32_t key = match_key(op.peer, op.tag);
    MatchQueues& mq = match_[r];

    auto uq = mq.unexpected.find(key);
    if (uq != mq.unexpected.end() && !uq->second.empty()) {
      const std::int32_t uidx = pop_unexpected(uq->second);
      const UnexpectedMsg& msg = upool_[uidx];
      double complete_us;
      if (msg.send_rec < 0) {
        // Eager: data is already in flight (or buffered at the receiver).
        complete_us = std::max(st.time, msg.arrival_us) + lk.overhead_us;
        apply_payload(r, op.block_begin, op.block_count, op.flags,
                      kept(msg_payload_, uidx));
      } else {
        complete_us = resolve_rendezvous(msg.send_rec, r, st.time);
        apply_payload(r, op.block_begin, op.block_count, op.flags,
                      kept(rec_payload_, msg.send_rec));
      }
      free_unexpected(uidx);
      if (blocking) {
        st.time = std::max(st.time, complete_us);
      } else {
        const std::int32_t recv_rec = alloc_rec();
        Rec& rrec = recs_[recv_rec];
        rrec.owner = r;
        rrec.post_us = st.time;
        rrec.complete_us = complete_us;
        add_outstanding(st, recv_rec, /*is_recv=*/true);
      }
      return;
    }

    // Nothing matched: post the receive.
    const std::int32_t recv_rec = alloc_rec();
    Rec& rrec = recs_[recv_rec];
    rrec.owner = r;
    rrec.post_us = st.time;
    rrec.bytes = op.bytes;
    rrec.block_begin = op.block_begin;
    rrec.block_count = op.block_count;
    rrec.flags = op.flags;
    push_recv(mq.recvs[key], recv_rec);
    if (blocking) {
      st.blocked_rec = recv_rec;
    } else {
      add_outstanding(st, recv_rec, /*is_recv=*/true);
    }
  }

  void exec_waitall(int r) {
    RankState& st = ranks_[r];
    if (st.pending > 0) {
      st.in_waitall = true;
      return;
    }
    consume_outstanding(st);
  }

  void exec_waitone(int r) {
    RankState& st = ranks_[r];
    if (st.recv_order.empty()) {
      MPICP_RAISE_INTERNAL(
          "kWaitOne with no outstanding receive (algorithm builder bug)");
    }
    const std::int32_t idx = st.recv_order.front();
    Rec& rec = recs_[idx];
    if (rec.complete()) {
      st.time = std::max(st.time, rec.complete_us);
      st.recv_order.pop_front();
      drop_outstanding(st, rec.slot);
      free_rec(idx);
    } else {
      st.blocked_rec = idx;  // wake() drops it from the bookkeeping
    }
  }

  [[noreturn]] void report_deadlock() const {
    std::ostringstream os;
    os << "simulated collective deadlocked; stuck ranks:";
    int shown = 0;
    for (std::size_t r = 0; r < ranks_.size() && shown < 8; ++r) {
      if (ranks_[r].finished) continue;
      os << " [rank " << r << " pc=" << ranks_[r].pc << '/'
         << programs_[r].size()
         << (ranks_[r].in_waitall ? " in waitall" : "")
         << (ranks_[r].blocked_rec >= 0 ? " blocked on p2p" : "") << ']';
      ++shown;
    }
    MPICP_RAISE_INTERNAL(os.str());
  }

  Network& net_;
  const ProgramSet& programs_;
  DataStore* store_;

  std::vector<RankState> ranks_;
  std::vector<MatchQueues> match_;
  std::vector<Rec> recs_;
  std::vector<std::int32_t> free_recs_;
  std::vector<UnexpectedMsg> upool_;
  std::vector<std::int32_t> ufree_;
  // Tracking runs only: send snapshots, parallel to recs_ and upool_.
  std::vector<std::vector<Block>> rec_payload_;
  std::vector<std::vector<Block>> msg_payload_;
  std::uint64_t num_messages_ = 0;

  using HeapEntry = std::pair<double, int>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap_;
};

}  // namespace

ExecResult Executor::run(const ProgramSet& programs, DataStore* store) {
  MPICP_SPAN("sim.exec.run");
  MPICP_REQUIRE(static_cast<int>(programs.size()) == net_.num_ranks(),
                "program set size must equal the network's rank count");
  net_.reset();
  Engine engine(net_, programs, store);
  return engine.run();
}

}  // namespace mpicp::sim
