// §7's second deployment of combining: "machines where multiple processors
// are connected to a shared memory by a bus. The shared memory is often
// heavily interleaved ... A FIFO buffer is often used to decouple memory
// from the shared bus. Combining in this queue will improve the memory
// throughput by reducing conflicting accesses to the same memory bank."
//
// This machine has no multistage network: one request crosses the bus per
// cycle (round-robin arbitration among processors), lands in its bank's
// FIFO (where it may combine), and one reply crosses back per cycle. Banks
// are slow relative to the bus (ModuleConfig::service_interval), which is
// exactly when the FIFO fills and queue combining pays.
//
// Reuses the memory module and processor models; the Theorem 4.2 checker
// works unchanged (combine events come from the module FIFO).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/rmw.hpp"
#include "core/types.hpp"
#include "mem/module.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"

namespace krs::sim {

template <core::Rmw M>
struct BusMachineConfig {
  std::uint32_t processors = 8;
  std::uint32_t banks = 4;
  mem::ModuleConfig bank_cfg{};
  typename M::value_type initial_value{};
  unsigned window = 4;
  /// Requests (and replies) crossing the bus per cycle.
  unsigned bus_width = 1;
};

template <core::Rmw M>
class BusMachine : public MachineBase<BusMachine<M>, M> {
  using Base = MachineBase<BusMachine<M>, M>;
  friend Base;

 public:
  using typename Base::Sources;
  using Fwd = net::FwdPacket<M>;
  using Rev = net::RevPacket<M>;

  BusMachine(BusMachineConfig<M> cfg, Sources sources)
      : Base(std::move(sources), cfg.processors, cfg.banks, cfg.bank_cfg,
             cfg.initial_value, cfg.window, /*processor_side=*/false,
             std::max(cfg.banks, cfg.processors)),
        cfg_(cfg),
        bank_out_(cfg.banks) {
    KRS_EXPECTS(cfg_.processors >= 1 && cfg_.banks >= 1);
  }

  [[nodiscard]] std::uint32_t module_of(core::Addr addr) const noexcept {
    return static_cast<std::uint32_t>(addr % cfg_.banks);
  }

  // --- engine concept (sim/engine.hpp) ------------------------------------

  /// The bus phases are inherently serial (one arbiter) and run on shard 0
  /// alone; bank service and processor issue are per-shard parallel, so
  /// run_parallel is bit-identical to run() at every worker count.
  [[nodiscard]] unsigned engine_subphases() const noexcept { return 4; }

  void engine_subphase(unsigned ph, std::uint32_t shard) {
    switch (ph) {
      case 0:  // reply bus: one arbiter, serial on shard 0
        if (shard == 0) step_reply_bus();
        break;
      case 1:  // bank service: independent per bank
        if (shard < cfg_.banks) modules_[shard].tick(now_, bank_out_[shard]);
        break;
      case 2:  // request bus: one arbiter, serial on shard 0
        if (shard == 0) step_request_bus();
        break;
      default:  // processor issue: independent per processor
        if (shard < cfg_.processors) procs_[shard].tick(now_);
        break;
    }
  }

 private:
  using Base::logs_;
  using Base::modules_;
  using Base::now_;
  using Base::procs_;

  [[nodiscard]] bool interconnect_drained() const {
    for (const auto& q : bank_out_) {
      if (!q.empty()) return false;
    }
    return true;
  }

  [[nodiscard]] MachineStats interconnect_stats() const {
    MachineStats s;
    for (const auto& b : modules_) s.combines += b.stats().queue_combines;
    s.request_messages = bus_transfers_;
    return s;
  }

  void step_reply_bus() {
    unsigned transferred = 0;
    for (std::uint32_t i = 0; i < cfg_.banks && transferred < cfg_.bus_width;
         ++i) {
      const std::uint32_t b =
          (static_cast<std::uint32_t>(now_) + i) % cfg_.banks;
      if (bank_out_[b].empty()) continue;
      Rev rev = std::move(bank_out_[b].front());
      bank_out_[b].erase(bank_out_[b].begin());
      procs_[rev.reply.id.proc].deliver(std::move(rev), now_,
                                        &logs_[0].completed);
      ++transferred;
    }
  }

  void step_request_bus() {
    unsigned transferred = 0;
    for (std::uint32_t i = 0;
         i < cfg_.processors && transferred < cfg_.bus_width; ++i) {
      const std::uint32_t p =
          (static_cast<std::uint32_t>(now_) + i) % cfg_.processors;
      const Fwd* head = procs_[p].peek_outgoing();
      if (head == nullptr) continue;
      auto& bank = modules_[module_of(head->req.addr)];
      if (!bank.can_accept(*head)) continue;  // bank FIFO full: retry later
      bank.accept(procs_[p].pop_outgoing(), &logs_[0].events);
      ++transferred;
      ++bus_transfers_;
    }
  }

  BusMachineConfig<M> cfg_;
  std::vector<std::vector<Rev>> bank_out_;
  std::uint64_t bus_transfers_ = 0;
};

}  // namespace krs::sim
