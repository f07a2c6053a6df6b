// §7: "the mechanisms described in this paper can be easily adopted for
// use by direct connection machines, such as the cosmic cube, where the
// processors themselves act like network switches and the local memories
// at each node are all viewed as part of a distributed, shared memory."
//
// A 2^d-node hypercube: every node hosts a processor, a memory module
// owning the addresses that hash to it, and a router. Requests travel by
// e-cube (dimension-order) routing — a unique, deterministic path, so the
// §4.1 assumptions (non-overtaking, reply retraces the path) hold exactly
// as in the indirect network. Each router output link carries a combining
// FIFO that calls the 2×2 switch's rule (net::Combiner: youngest match,
// combine policy, record-counted wait-buffer bound, decombination); the
// Theorem 4.2 checker applies unchanged.
//
// Engine layout (sim/engine.hpp): one shard per node. CONSUME ingests the
// node's staging slots (replies, then local memory, then requests, then
// the processor's injection) and routes into node-local queues; PRODUCE
// moves at most one packet per link per direction into the neighbor's
// empty staging slot. Each staging slot has exactly one producer (the
// neighbor across that dimension) and one consumer (the node itself), so
// shard order is immaterial and parallel runs are bit-identical to
// sequential ones.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/rmw.hpp"
#include "core/types.hpp"
#include "mem/module.hpp"
#include "net/combiner.hpp"
#include "net/packet.hpp"
#include "runtime/cacheline.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace krs::sim {

template <core::Rmw M>
struct HypercubeConfig {
  unsigned dimensions = 3;  ///< 2^d nodes
  mem::ModuleConfig mem_cfg{};
  typename M::value_type initial_value{};
  unsigned window = 4;
  std::size_t link_queue_capacity = 4;
  net::CombinePolicy policy = net::CombinePolicy::kUnlimited;
  std::size_t wait_buffer_capacity = 64;
};

template <core::Rmw M>
class HypercubeMachine : public MachineBase<HypercubeMachine<M>, M> {
  using Base = MachineBase<HypercubeMachine<M>, M>;
  friend Base;

 public:
  using typename Base::Sources;
  using Fwd = net::FwdPacket<M>;
  using Rev = net::RevPacket<M>;

  HypercubeMachine(HypercubeConfig<M> cfg, Sources sources)
      : Base(std::move(sources), checked_nodes(cfg.dimensions),
             checked_nodes(cfg.dimensions), cfg.mem_cfg, cfg.initial_value,
             cfg.window, /*processor_side=*/false,
             checked_nodes(cfg.dimensions)),
        cfg_(cfg),
        node_(nodes()) {
    for (auto& nd : node_) {
      nd.out_req.resize(cfg_.dimensions);
      nd.out_rep.resize(cfg_.dimensions);
      nd.in_req.resize(cfg_.dimensions);
      nd.in_rep.resize(cfg_.dimensions);
      nd.combiner = std::make_unique<net::Combiner<M>>(
          cfg_.policy, cfg_.wait_buffer_capacity);
    }
  }

  [[nodiscard]] std::uint32_t nodes() const noexcept {
    return 1u << cfg_.dimensions;
  }

  [[nodiscard]] std::uint32_t module_of(core::Addr addr) const noexcept {
    return static_cast<std::uint32_t>(addr & (nodes() - 1));
  }

 private:
  using typename Base::ShardLog;
  using Base::logs_;
  using Base::modules_;
  using Base::now_;
  using Base::procs_;

  struct alignas(runtime::kCacheLine) Node {
    /// Per-dimension outgoing FIFOs (request combining happens in
    /// out_req) and single-slot incoming staging, filled by the neighbor
    /// across that dimension during PRODUCE, drained here during CONSUME.
    std::vector<std::deque<Fwd>> out_req;
    std::vector<std::deque<Rev>> out_rep;
    std::vector<std::deque<Fwd>> in_req;
    std::vector<std::deque<Rev>> in_rep;
    /// Replies destined for the local processor, delivered next cycle.
    std::deque<Rev> local_rep;
    /// The local memory's replies due this cycle (reused scratch).
    std::vector<Rev> mem_out;
    /// The router's combining rule and its wait buffer.
    std::unique_ptr<net::Combiner<M>> combiner;
    /// Shard-local counters, summed by stats() — no shared cells.
    std::uint64_t combines = 0;
    std::uint64_t hops = 0;
  };

  static std::uint32_t checked_nodes(unsigned dimensions) {
    KRS_EXPECTS(dimensions >= 1 && dimensions <= 10);
    return 1u << dimensions;
  }

  [[nodiscard]] bool interconnect_drained() const {
    for (const auto& nd : node_) {
      if (!nd.combiner->empty() || !nd.local_rep.empty()) return false;
      for (const auto& q : nd.out_req) {
        if (!q.empty()) return false;
      }
      for (const auto& q : nd.out_rep) {
        if (!q.empty()) return false;
      }
      for (const auto& q : nd.in_req) {
        if (!q.empty()) return false;
      }
      for (const auto& q : nd.in_rep) {
        if (!q.empty()) return false;
      }
    }
    return true;
  }

  [[nodiscard]] MachineStats interconnect_stats() const {
    MachineStats s;
    for (const auto& nd : node_) {
      s.combines += nd.combines;
      s.request_messages += nd.hops;
    }
    return s;
  }

  /// e-cube: the dimension of the lowest differing bit (deterministic,
  /// unique path — the §4.1 assumptions hold).
  [[nodiscard]] static unsigned route_dim(std::uint32_t u, std::uint32_t v) {
    KRS_EXPECTS(u != v);
    const std::uint32_t diff = u ^ v;
    return util::log2_floor(diff & (~diff + 1u));
  }

  // Path header encoding: each hop stores the dimension it arrived on.
  // The reply leaves node u back along the last recorded dimension.

  // --- consume: ingest staging slots, shard `u` ----------------------------

  void consume(std::uint32_t u) {
    Node& nd = node_[u];
    ShardLog& log = logs_[u];
    // Replies that became local last cycle reach the processor.
    while (!nd.local_rep.empty()) {
      Rev rev = std::move(nd.local_rep.front());
      nd.local_rep.pop_front();
      KRS_ASSERT(rev.path.empty());
      procs_[u].deliver(std::move(rev), now_, &log.completed);
    }
    // One reply per incoming link: decombine and route onward.
    for (unsigned dim = 0; dim < cfg_.dimensions; ++dim) {
      if (nd.in_rep[dim].empty()) continue;
      Rev rev = std::move(nd.in_rep[dim].front());
      nd.in_rep[dim].pop_front();
      handle_reply(u, std::move(rev));
    }
    // Local memory services and emits due replies.
    nd.mem_out.clear();
    modules_[u].tick(now_, nd.mem_out);
    for (auto& rev : nd.mem_out) handle_reply(u, std::move(rev));
    // One request per incoming link; a refused head stays staged (the
    // neighbor's PRODUCE sees the slot busy — back-pressure).
    for (unsigned dim = 0; dim < cfg_.dimensions; ++dim) {
      if (nd.in_req[dim].empty()) continue;
      if (try_route(u, nd.in_req[dim].front(), static_cast<int>(dim), &log)) {
        nd.in_req[dim].pop_front();
      }
    }
    // Local injection.
    if (const Fwd* head = procs_[u].peek_outgoing(); head != nullptr) {
      Fwd copy = *head;
      if (try_route(u, copy, net::Combiner<M>::kNoHop, &log)) {
        procs_[u].pop_outgoing();
      }
    }
    procs_[u].tick(now_);
  }

  /// A reply present AT node u (after crossing a link or leaving memory):
  /// decombine against u's wait buffer, then route onward.
  void handle_reply(std::uint32_t u, Rev&& rev) {
    node_[u].combiner->decombine(
        rev, [&](Rev&& second) { route_reply(u, std::move(second)); });
    route_reply(u, std::move(rev));
  }

  void route_reply(std::uint32_t u, Rev&& rev) {
    Node& nd = node_[u];
    if (rev.path.empty()) {
      nd.local_rep.push_back(std::move(rev));
      return;
    }
    const unsigned dim = rev.path.back();
    rev.path.pop_back();
    KRS_ASSERT(dim < cfg_.dimensions);
    // Staged here; PRODUCE moves it across the link (one hop per cycle).
    nd.out_rep[dim].push_back(std::move(rev));
  }

  /// Route a request at node u into the local memory or the proper output
  /// FIFO, combining youngest-match. `head` is only consumed on success
  /// (return true); on refusal it is left untouched for retry next cycle.
  /// `arrival_dim` is recorded in the path header (−1: local injection).
  bool try_route(std::uint32_t u, Fwd& head, int arrival_dim, ShardLog* log) {
    Node& nd = node_[u];
    const auto take = [&] {
      Fwd pkt = std::move(head);
      if (arrival_dim >= 0) {
        pkt.path.push_back(static_cast<std::uint8_t>(arrival_dim));
      }
      return pkt;
    };
    const std::uint32_t dest = module_of(head.req.addr);
    if (dest == u) {
      if (!modules_[u].can_accept(head)) return false;
      modules_[u].accept(take(), &log->events);
      return true;
    }
    auto& q = nd.out_req[route_dim(u, dest)];
    if (nd.combiner->offer(q, head, arrival_dim, &log->events)) {
      ++nd.combines;
      return true;
    }
    if (q.size() >= cfg_.link_queue_capacity) return false;
    q.push_back(take());
    return true;
  }

  // --- produce: cross the links, shard `u` ---------------------------------

  void produce(std::uint32_t u) {
    Node& nd = node_[u];
    for (unsigned dim = 0; dim < cfg_.dimensions; ++dim) {
      Node& peer = node_[u ^ (1u << dim)];
      // This node is the UNIQUE producer of peer.in_req[dim] and
      // peer.in_rep[dim] (the link across `dim` has two fixed endpoints),
      // so concurrent produce shards never write the same slot.
      if (!nd.out_req[dim].empty() && peer.in_req[dim].empty()) {
        peer.in_req[dim].push_back(std::move(nd.out_req[dim].front()));
        nd.out_req[dim].pop_front();
        ++nd.hops;
      }
      if (!nd.out_rep[dim].empty() && peer.in_rep[dim].empty()) {
        peer.in_rep[dim].push_back(std::move(nd.out_rep[dim].front()));
        nd.out_rep[dim].pop_front();
      }
    }
  }

  HypercubeConfig<M> cfg_;
  std::vector<Node> node_;
};

}  // namespace krs::sim
