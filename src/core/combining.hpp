// §4.2 — The combining mechanism, family-agnostic.
//
// A request message is ⟨id, addr, f⟩. When request ⟨id2, addr, g⟩ arrives at
// a switch already holding ⟨id1, addr, f⟩ for the same address, the switch
//   1. forwards ⟨id1, addr, f∘g⟩   (compose(f, g) in our convention), and
//   2. saves the record (id1, id2, f).
// When the reply ⟨id1, val⟩ returns, the switch forwards ⟨id1, val⟩ toward
// the first requester and ⟨id2, f(val)⟩ toward the second.
//
// These helpers implement exactly that algebra for any Rmw family;
// net::Combiner adds the wait buffer, and its callers queues and routing.
// Because a queued request that has already combined can combine again
// (k-way combining, and combining of already-combined requests), a record's
// `first_map` is the queued request's mapping *at the moment of this
// combine* — the decombined reply for the later request applies it to the
// reply value, reproducing the inductive structure of Lemma 4.1.
#pragma once

#include <optional>

#include "core/rmw.hpp"
#include "core/types.hpp"

namespace krs::core {

template <Rmw M>
struct Request {
  ReqId id;
  Addr addr = 0;
  M f{};
  Tick issued = 0;
};

template <Rmw M>
struct Reply {
  ReqId id;
  typename M::value_type value{};
  Tick completed = 0;
};

/// Wait-buffer record created by one combine event.
template <Rmw M>
struct CombineRecord {
  ReqId representative;  ///< id of the forwarded (combined) request
  ReqId second;          ///< id of the request absorbed by this combine
  M first_map{};         ///< mapping of the representative at combine time
};

/// Attempt to combine `arriving` into the queued request `queued` (same
/// switch output queue, same address). On success `queued` carries the
/// composed mapping and the returned record must be kept for decombination.
/// Declining (address mismatch, or the family declines composition) is
/// always correct — partial combining, §7.
template <Rmw M>
std::optional<CombineRecord<M>> try_combine(Request<M>& queued,
                                            const Request<M>& arriving) {
  if (queued.addr != arriving.addr) return std::nullopt;
  auto composed = try_compose(queued.f, arriving.f);
  if (!composed) return std::nullopt;
  CombineRecord<M> rec{queued.id, arriving.id, queued.f};
  queued.f = *std::move(composed);
  return rec;
}

/// The decombined reply value for the absorbed request: f(val).
template <Rmw M>
typename M::value_type decombine(const CombineRecord<M>& rec,
                                 const typename M::value_type& val) {
  return rec.first_map.apply(val);
}

}  // namespace krs::core
