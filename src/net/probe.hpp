// Convergence probe: turns perturbations into time-to-converge samples.
//
// The paper's scalability claims are about how long the system takes to
// settle after something changes — a domain joins, a link fails, an
// address-range claim collides. The probe measures that directly: arm() it
// at the instant of the perturbation, and it watches network activity
// (message sends/deliveries) until none has occurred for a configurable
// quiet window, then records `last_activity − arm_time` into a histogram.
// Each arm() produces exactly one sample; re-arming before convergence
// restarts the measurement (the newer perturbation supersedes).
//
// This lives in net/ rather than obs/ because it schedules events on the
// EventQueue (a net .cpp symbol); obs deliberately has no link dependency
// on net.
#pragma once

#include <cstdint>
#include <string>

#include "net/event.hpp"
#include "net/network.hpp"
#include "net/time.hpp"
#include "obs/histogram.hpp"

namespace net {

class ConvergenceProbe {
 public:
  /// The probe registers an activity listener on `network`; both the
  /// network and the histogram must outlive it.
  ConvergenceProbe(Network& network, obs::Histogram& histogram,
                   SimTime quiet_window = SimTime::seconds(5));

  ConvergenceProbe(const ConvergenceProbe&) = delete;
  ConvergenceProbe& operator=(const ConvergenceProbe&) = delete;

  /// Starts (or restarts) a measurement at now(). `label` only decorates
  /// the convergence trace line.
  void arm(std::string label = {});

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] SimTime quiet_window() const { return quiet_window_; }
  /// Completed measurements (== histogram samples recorded by this probe).
  [[nodiscard]] std::uint64_t samples_recorded() const { return samples_; }

 private:
  void on_activity();
  void check();
  void schedule_check(SimTime at);
  void record_marker(obs::Record::Kind kind, SimTime at);

  Network& network_;
  EventQueue& events_;
  obs::Histogram* histogram_;
  SimTime quiet_window_;

  bool armed_ = false;
  std::string label_;
  SimTime armed_at_;
  SimTime last_activity_;
  bool check_scheduled_ = false;
  EventId check_id_{};
  std::uint64_t samples_ = 0;
};

}  // namespace net
