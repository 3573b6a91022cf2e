// The benchmark's own tests: the generator is a pure function of the seed,
// the checker catches tampered responses, and the fault mirror respects its
// bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "checker.h"
#include "replay.h"
#include "serve/json.h"
#include "workload.h"

namespace servebench {
namespace {

constexpr WorkloadId kAll[] = {WorkloadId::ZooReplan, WorkloadId::KeyChurn,
                               WorkloadId::FaultRepair,
                               WorkloadId::TenantComap};

std::vector<std::string> lines(WorkloadId w, std::uint64_t seed,
                               std::size_t timed) {
  Generator gen(w, seed);
  std::vector<std::string> out;
  for (const Request& r : gen.warmup()) out.push_back(r.line);
  for (std::size_t i = 0; i < timed; ++i) out.push_back(gen.next().line);
  return out;
}

TEST(Generator, SameSeedSameLinesOtherSeedOtherLines) {
  for (const WorkloadId w : kAll) {
    SCOPED_TRACE(std::string(to_string(w)));
    const std::vector<std::string> a = lines(w, 7, 300);
    EXPECT_EQ(a, lines(w, 7, 300));
    EXPECT_NE(a, lines(w, 8, 300));
  }
}

TEST(Generator, KeyChurnNeverRepeatsABandwidthAndRejectsOneLineInEight) {
  Generator gen(WorkloadId::KeyChurn, 3);
  std::set<double> seen;
  std::size_t invalid = 0;
  constexpr std::size_t kLines = 800;
  for (std::size_t i = 0; i < kLines; ++i) {
    const Request r = gen.next();
    if (!r.expect_error.empty()) {
      ++invalid;
      continue;
    }
    EXPECT_TRUE(seen.insert(r.bw_gbps).second) << r.line;
  }
  EXPECT_EQ(invalid, kLines / 8);
}

TEST(FaultMirror, NeverLosesMoreThanThreeAccelerators) {
  Generator gen(WorkloadId::FaultRepair, 11);
  std::size_t max_lost = 0;
  for (int i = 0; i < 3000; ++i) {
    const Request r = gen.next();
    ASSERT_TRUE(r.event.has_value());
    for (std::size_t s = 0; s < gen.sessions(); ++s) {
      const std::size_t lost = gen.mirror(s).lost_count();
      ASSERT_LE(lost, FaultMirror::kMaxLost);
      max_lost = std::max(max_lost, lost);
    }
  }
  EXPECT_EQ(max_lost, FaultMirror::kMaxLost);  // the bound is reached
}

// Genuine responses from the in-process replay, to tamper with.
struct Replayed {
  std::vector<Request> requests;
  std::vector<std::string> responses;
};

Replayed replayed(WorkloadId w, std::size_t timed) {
  Generator gen(w, 5);
  Replayed out;
  out.requests = gen.warmup();
  for (std::size_t i = 0; i < timed; ++i) out.requests.push_back(gen.next());
  out.responses = replay(out.requests, nullptr).responses;
  return out;
}

std::size_t failures(const Replayed& r) {
  Checker checker(r.requests.size());
  for (std::size_t i = 0; i < r.requests.size(); ++i)
    (void)checker.check(r.requests[i], r.responses[i]);
  return checker.failed();
}

std::size_t first_plan(const Replayed& r) {
  for (std::size_t i = 0; i < r.requests.size(); ++i)
    if (r.requests[i].kind == Kind::Plan && r.requests[i].expect_error.empty())
      return i;
  return r.requests.size();
}

TEST(Checker, AcceptsGenuineResponses) {
  for (const WorkloadId w : kAll) {
    SCOPED_TRACE(std::string(to_string(w)));
    EXPECT_EQ(failures(replayed(w, w == WorkloadId::TenantComap ? 10 : 60)),
              0u);
  }
}

TEST(Checker, CatchesASwappedAccelerator) {
  Replayed r = replayed(WorkloadId::ZooReplan, 0);
  const std::size_t i = first_plan(r);
  std::string& resp = r.responses[i];
  // Move the first mapped layer to another accelerator of the catalog.
  const std::size_t at = resp.find("\"acc\":\"") + 7;
  const std::size_t end = resp.find('"', at);
  const std::string acc = resp.substr(at, end - at);
  resp.replace(at, end - at, acc == "B.L" ? "J.Z" : "B.L");
  EXPECT_EQ(failures(r), 1u);
}

TEST(Checker, CatchesAPerturbedLatency) {
  Replayed r = replayed(WorkloadId::ZooReplan, 0);
  const std::size_t i = first_plan(r);
  auto parsed = h2h::json::parse(r.responses[i]);
  ASSERT_TRUE(parsed.value);
  h2h::json::Object o = parsed.value->as_object();
  const double latency = o.find("latency_s")->as_number();
  o.set("latency_s", std::nextafter(latency, 1.0));
  r.responses[i] = h2h::json::dump(h2h::json::Value(std::move(o)));
  EXPECT_EQ(failures(r), 1u);
}

TEST(Checker, CatchesAWrongErrorCode) {
  Replayed r = replayed(WorkloadId::KeyChurn, 40);
  std::size_t tampered = 0;
  for (std::size_t i = 0; i < r.requests.size(); ++i) {
    const std::string& code = r.requests[i].expect_error;
    if (code.empty()) continue;
    const std::size_t at = r.responses[i].find("\"" + code + "\"");
    ASSERT_NE(at, std::string::npos) << r.responses[i];
    r.responses[i].replace(at + 1, code.size(),
                           code == "bad_field" ? "unknown_field" : "bad_field");
    ++tampered;
  }
  ASSERT_GT(tampered, 0u);
  EXPECT_EQ(failures(r), tampered);
}

}  // namespace
}  // namespace servebench
