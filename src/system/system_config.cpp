#include "system/system_config.h"

#include <array>
#include <cstring>
#include <set>
#include <utility>

#include "accel/capability.h"
#include "accel/catalog.h"
#include "util/error.h"
#include "util/str.h"

namespace h2h {
namespace {

constexpr std::array<BandwidthSetting, 5> kAllSettings{
    BandwidthSetting::LowMinus, BandwidthSetting::Low,
    BandwidthSetting::MidMinus, BandwidthSetting::Mid, BandwidthSetting::High};

}  // namespace

double bandwidth_value(BandwidthSetting setting) noexcept {
  switch (setting) {
    case BandwidthSetting::LowMinus: return gbps(0.125);
    case BandwidthSetting::Low: return gbps(0.15);
    case BandwidthSetting::MidMinus: return gbps(0.25);
    case BandwidthSetting::Mid: return gbps(0.5);
    case BandwidthSetting::High: return gbps(1.25);
  }
  return gbps(0.5);
}

std::string_view to_string(BandwidthSetting setting) noexcept {
  switch (setting) {
    case BandwidthSetting::LowMinus: return "Low-";
    case BandwidthSetting::Low: return "Low";
    case BandwidthSetting::MidMinus: return "Mid-";
    case BandwidthSetting::Mid: return "Mid";
    case BandwidthSetting::High: return "High";
  }
  return "?";
}

std::span<const BandwidthSetting> all_bandwidth_settings() noexcept {
  return kAllSettings;
}

void SystemConfig::validate_accelerators() const {
  if (accs_.empty()) throw ConfigError("system has no accelerators");
  if (host_.static_power_w < 0) throw ConfigError("static power must be >= 0");
  std::set<std::string> names;
  for (const AcceleratorPtr& a : accs_) {
    H2H_EXPECTS(a != nullptr);
    a->spec().validate();
    if (!names.insert(a->spec().name).second)
      throw ConfigError(strformat("duplicate accelerator name '%s'",
                                  a->spec().name.c_str()));
  }
}

SystemConfig::SystemConfig(std::vector<AcceleratorPtr> accelerators,
                           HostParams host)
    : accs_(std::move(accelerators)),
      host_(host),
      links_(Interconnect::uniform(host.bw_acc)) {
  validate_accelerators();
  links_.bind(accs_.size());
  cache_capabilities();
}

SystemConfig::SystemConfig(std::vector<AcceleratorPtr> accelerators,
                           Interconnect links, HostParams host)
    : accs_(std::move(accelerators)),
      host_(host),
      links_(std::move(links)) {
  // One source of truth for the scalar view: the topology's base bandwidth.
  host_.bw_acc = links_.base_bw();
  validate_accelerators();
  links_.bind(accs_.size());
  cache_capabilities();
}

void SystemConfig::cache_capabilities() {
  caps_.reserve(accs_.size());
  for (const AcceleratorPtr& a : accs_)
    caps_.push_back(spec_capabilities(a->spec()));
}

SystemConfig SystemConfig::standard(double bw_acc) {
  HostParams host;
  host.bw_acc = bw_acc;
  return SystemConfig(build_standard_accelerators(), host);
}

SystemConfig SystemConfig::standard(Interconnect links) {
  return SystemConfig(build_standard_accelerators(), std::move(links));
}

SystemConfig SystemConfig::scaled(std::size_t count, Interconnect links) {
  return SystemConfig(build_scaled_accelerators(count), std::move(links));
}

std::vector<AccId> SystemConfig::all_accelerators() const {
  std::vector<AccId> out;
  out.reserve(accs_.size());
  for (std::uint32_t i = 0; i < accs_.size(); ++i) out.push_back(AccId{i});
  return out;
}

std::vector<AccId> SystemConfig::supporting(LayerKind kind) const {
  std::vector<AccId> out;
  for (std::uint32_t i = 0; i < accs_.size(); ++i)
    if (accs_[i]->supports(kind) && available(AccId{i})) out.push_back(AccId{i});
  return out;
}

void SystemConfig::set_available(AccId id, bool available) {
  H2H_EXPECTS(contains(id));
  if (avail_.empty()) avail_.assign(accs_.size(), 1);
  avail_[id.value] = available ? 1 : 0;
  refresh_derate_fingerprint();
}

std::size_t SystemConfig::available_count() const noexcept {
  if (avail_.empty()) return accs_.size();
  std::size_t n = 0;
  for (const std::uint8_t a : avail_) n += a;
  return n;
}

void SystemConfig::set_compute_derate(AccId id, double scale) {
  H2H_EXPECTS(contains(id));
  if (!(scale > 0) || scale > 1)
    throw ConfigError(strformat("compute derate for acc %u must be in (0, 1]",
                                id.value));
  if (derate_.empty()) derate_.assign(accs_.size(), 1.0);
  derate_[id.value] = scale;
  refresh_derate_fingerprint();
}

void SystemConfig::refresh_derate_fingerprint() {
  // FNV over the availability bits and derate factors; stays 0 until the
  // first fault hook fires (both vectors empty), so pre-repair CostTable
  // freshness checks compare 0 == 0 exactly as before this field existed.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  for (const std::uint8_t a : avail_) mix(a);
  for (const double d : derate_) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  }
  derate_fp_ = h;
}

}  // namespace h2h
