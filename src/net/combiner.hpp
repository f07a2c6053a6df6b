// §4.2's combine decision and its undo, in one place. The paper introduces
// combining in a 2×2 switch and notes (§7) that the same logic serves a
// bus machine's memory FIFO and a direct network's routers; the switch's
// output queues, a memory bank's input FIFO and a hypercube router's link
// queues all call this rule:
//
//  * forward: an arriving RMW combines only with the YOUNGEST queued RMW
//    for its address, when the policy and the wait-buffer bound admit one
//    more record under it. That request then carries f∘g, and the record
//    (id1, id2, f) is saved with the absorbed request's return path.
//  * reverse: the reply ⟨id1, val⟩ yields ⟨id2, f(val)⟩ for every record
//    saved under id1, in combine order.
//
// The combiner owns the wait buffer; the caller owns its queues and
// decides whether the representative's own reply leaves before or after
// the decombined ones.
#pragma once

#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/combining.hpp"
#include "core/rmw.hpp"
#include "core/types.hpp"
#include "net/packet.hpp"
#include "net/wait_table.hpp"

namespace krs::net {

enum class CombinePolicy : std::uint8_t {
  kNone,      ///< never combine (baseline network)
  kPairwise,  ///< a queued message combines at most once per switch
  kUnlimited  ///< unbounded fan-in per queued message
};

/// One combine event, reported to the machine-level log so the verifier can
/// expand combined messages into the request sequences they represent.
struct CombineEvent {
  core::ReqId representative;
  core::ReqId absorbed;
  core::Addr addr;
  /// §5.1 reversal: the absorbed request's effect logically PRECEDES the
  /// representative's (the verifier expands it first).
  bool reversed = false;
};

/// Why an arriving request found no partner.
enum class CombineDecline : std::uint8_t {
  kNoMatch,  ///< no queued RMW for its address
  kPolicy,   ///< pairwise: the youngest match already absorbed one here
  kBound,    ///< the wait buffer holds its bound of records
};

template <core::Rmw M>
class Combiner {
 public:
  using Fwd = FwdPacket<M>;
  using Rev = RevPacket<M>;
  using Record = typename WaitTable<M>::Record;

  static constexpr std::size_t kNoBound =
      std::numeric_limits<std::size_t>::max();
  /// `hop` value for an arrival that appends nothing to its return path.
  static constexpr int kNoHop = -1;

  Combiner(CombinePolicy policy, std::size_t record_bound)
      : policy_(policy),
        bound_(record_bound),
        wait_(record_bound == kNoBound ? 16 : record_bound) {}

  /// The queued request `pkt` may combine into: the youngest queued RMW for
  /// its address, if the policy and the record bound admit it; otherwise
  /// nullptr, with the reason in *why when asked. Combining with an older
  /// entry could sequence `pkt` ahead of an intervening request of the same
  /// processor to the same location (M2.3); with non-overtaking queues the
  /// youngest match keeps that order unconditionally.
  template <typename Queue>
  [[nodiscard]] auto partner(Queue& q, const Fwd& pkt,
                             CombineDecline* why = nullptr) const
      -> std::remove_reference_t<decltype(q[0])>* {
    CombineDecline reason = CombineDecline::kNoMatch;
    if (policy_ != CombinePolicy::kNone && pkt.kind == TxnKind::kRmw) {
      for (std::size_t i = q.size(); i-- > 0;) {
        auto& queued = q[i];
        if (queued.kind != TxnKind::kRmw || queued.req.addr != pkt.req.addr) {
          continue;
        }
        if (policy_ == CombinePolicy::kPairwise &&
            wait_.fan_in(queued.req.id) >= 1) {
          reason = CombineDecline::kPolicy;
        } else if (wait_.records() >= bound_) {
          reason = CombineDecline::kBound;
        } else {
          return &queued;
        }
        break;
      }
    }
    if (why != nullptr) *why = reason;
    return nullptr;
  }

  /// The whole forward step: find the partner, compose, save the record.
  /// True when `pkt` was absorbed; otherwise it is left untouched for the
  /// caller to enqueue or retry.
  template <typename Queue>
  bool offer(Queue& q, Fwd& pkt, int hop, std::vector<CombineEvent>* events) {
    Fwd* queued = partner(q, pkt);
    return queued != nullptr && combine(*queued, pkt, hop, events);
  }

  /// Absorb `pkt` into `queued` (which then forwards f∘g), saving the record
  /// (id1, id2, f) under id1 with `pkt`'s return path extended by `hop`.
  /// False, with nothing changed, when the family declines.
  bool combine(Fwd& queued, Fwd& pkt, int hop,
               std::vector<CombineEvent>* events) {
    auto rec = core::try_combine(queued.req, pkt.req);
    if (!rec) return false;
    save(queued, pkt, hop, Record{*rec, {}, false, M{}}, events);
    return true;
  }

  /// §5.1 reversed combine: `pkt`'s effect logically precedes `queued`'s,
  /// which forwards `forwarded` in place of its own mapping. On reply the
  /// absorbed request receives the value the representative read, and the
  /// representative receives pkt's mapping applied to it.
  void combine_reversed(Fwd& queued, Fwd& pkt, M forwarded, int hop,
                        std::vector<CombineEvent>* events) {
    Record r{{queued.req.id, pkt.req.id, M{}}, {}, true, pkt.req.f};
    queued.req.f = std::move(forwarded);
    save(queued, pkt, hop, std::move(r), events);
  }

  /// The reverse step: hand `emit` the reply ⟨id2, f(val)⟩ of every request
  /// absorbed under `rep`'s id, in combine order. A reversed record also
  /// rewrites `rep`'s own value, so emit `rep` only after this returns.
  template <typename Emit>
  void decombine(Rev& rep, Emit&& emit) {
    const auto val = rep.reply.value;
    wait_.consume(rep.reply.id, [&](Record& r) {
      Rev second;
      second.reply.id = r.rec.second;
      second.reply.value = r.reversed ? val : core::decombine(r.rec, val);
      second.reply.completed = rep.reply.completed;
      second.path = r.path;
      second.nack = rep.nack;
      if (r.reversed) rep.reply.value = r.absorbed_map.apply(val);
      emit(std::move(second));
    });
  }

  [[nodiscard]] std::size_t records() const noexcept { return wait_.records(); }
  [[nodiscard]] bool empty() const noexcept { return wait_.empty(); }

 private:
  void save(Fwd& queued, Fwd& pkt, int hop, Record&& r,
            std::vector<CombineEvent>* events) {
    queued.combined = true;
    if (hop != kNoHop) pkt.path.push_back(static_cast<std::uint8_t>(hop));
    r.path = pkt.path;
    if (events != nullptr) {
      events->push_back({queued.req.id, pkt.req.id, pkt.req.addr, r.reversed});
    }
    wait_.append(queued.req.id, std::move(r));
  }

  CombinePolicy policy_;
  std::size_t bound_;
  WaitTable<M> wait_;
};

}  // namespace krs::net
