#include "core/comp_prioritized.h"

#include <algorithm>
#include <limits>

#include "graph/algorithms.h"
#include "util/error.h"
#include "util/str.h"

namespace h2h {
namespace {

/// Colexicographic comparison of two equal-length choice vectors: the
/// largest differing index decides (the LAST chunk position is the most
/// significant digit). A mixed-radix loop varying choice[0] fastest
/// enumerates in exactly colex-ascending order, so "colex-smaller" means
/// "enumerated first" — the tie-break the tests pin against such a loop.
/// Returns true when `a` precedes `b`.
[[nodiscard]] bool colex_less(const std::uint32_t* a, const std::uint32_t* b,
                              std::size_t len) {
  for (std::size_t i = len; i-- > 0;)
    if (a[i] != b[i]) return a[i] < b[i];
  return false;
}

}  // namespace

Mapping computation_prioritized_mapping(const Simulator& sim,
                                        const CompPrioritizedOptions& options) {
  const ModelGraph& model = sim.model();
  const SystemConfig& sys = sim.sys();
  const CostTable& costs = sim.costs();
  H2H_EXPECTS(options.max_candidates > 0);
  H2H_EXPECTS(options.preferred == nullptr ||
              options.preferred->size() >= model.layer_count());
  if (!is_dag(model.graph()))
    throw ConfigError(strformat("model '%s' has a dependency cycle",
                                model.name().c_str()));

  Mapping mapping(model);
  std::vector<double> finish(model.layer_count(), 0.0);
  CompPrioritizedStats* const stats = options.stats;

  // Indegree-counting worklist: completing a wave pushes exactly the nodes
  // that become ready, so the traversal is O(V + E) total instead of an
  // O(V + E) frontier() rescan per wave. Input layers are host-resident and
  // complete immediately.
  FrontierWorklist work(model.graph());
  for (const LayerId id : model.all_layers())
    if (model.layer(id).kind == LayerKind::Input) work.complete(id);

  std::vector<double> acc_tail(sys.accelerator_count(), 0.0);
  double makespan = 0.0;

  // Per-wave scratch, reused across waves. Candidate accelerators are spans
  // into the cost table's per-kind lists (or into the preference vector);
  // durations are gathered from each layer's contiguous cost-table row in
  // one pass.
  std::vector<LayerId> front;
  std::vector<std::span<const AccId>> cand;
  std::vector<std::uint32_t> dur_offset;
  std::vector<double> durations;
  std::vector<double> node_ready;
  std::vector<double> suffix_lb;

  // Per-chunk DFS state, reused. `tails` is the live per-accelerator
  // last-finish vector of the current partial assignment; backtracking
  // restores the single cell a placement overwrote.
  std::vector<std::uint32_t> choice;
  std::vector<std::uint32_t> best_choice;
  std::vector<AccId> placed_acc;
  std::vector<double> saved_tail;
  std::vector<double> path_mk;
  std::vector<double> path_sum;
  std::vector<double> tails(sys.accelerator_count(), 0.0);

  while (work.take_wave(front)) {
    if (stats) ++stats->waves;
    cand.clear();
    dur_offset.clear();
    durations.clear();
    node_ready.clear();

    for (const LayerId id : front) {
      const Layer& layer = model.layer(id);
      std::span<const AccId> accs;
      // Placement preference: if it names an accelerator that supports the
      // layer, that is the only candidate (host names none).
      if (options.preferred != nullptr) {
        const AccId& pref = (*options.preferred)[id.value];
        if (sys.contains(pref) && costs.supported(id, pref)) accs = {&pref, 1};
      }
      if (accs.empty()) {
        accs = costs.candidates(id, layer.kind);
        if (accs.empty()) {
          if (!costs.supporting(layer.kind).empty())
            throw CapabilityError(strformat(
                "layer '%s' (%s): required capabilities exclude every "
                "supporting accelerator",
                layer.name.c_str(),
                std::string(to_string(layer.kind)).c_str()));
          throw ConfigError(strformat(
              "no accelerator in the system supports layer '%s' (%s)",
              layer.name.c_str(), std::string(to_string(layer.kind)).c_str()));
        }
      }
      cand.push_back(accs);
      dur_offset.push_back(static_cast<std::uint32_t>(durations.size()));
      const std::span<const double> row = costs.unlocalized_row(id);
      for (const AccId a : accs) durations.push_back(row[a.value]);
      double ready = 0.0;
      for (const LayerId p : model.graph().preds(id))
        ready = std::max(ready, finish[p.value]);
      node_ready.push_back(ready);
    }

    // Split into chunks whose assignment product stays enumerable.
    std::size_t begin = 0;
    while (begin < front.size()) {
      std::size_t end = begin;
      std::uint64_t product = 1;
      while (end < front.size()) {
        const std::uint64_t next = product * cand[end].size();
        if (end > begin && next > options.max_candidates) break;
        product = next;
        ++end;
      }
      const std::size_t k = end - begin;
      if (stats) ++stats->chunks;

      // The search is a lex-order DFS (position 0 outermost) with
      // incremental tails, tracking the best assignment by (makespan, sum
      // of finishes, colex rank of the choice vector) — the explicit colex
      // leg reproduces a mixed-radix enumeration's first-enumerated-wins
      // tie-break exactly (pinned by test_comp_prioritized.cpp against a
      // literal one), since that order is colex ascending. A subtree is cut
      // as soon as its running makespan joined with the suffix lower bound
      // strictly exceeds the incumbent: every completion then loses on the
      // makespan criterion outright (ties are never cut).
      //
      // Placement-independent lower bound on the finish of nodes i..k-1:
      // node j cannot finish before ready_j + its cheapest duration.
      suffix_lb.assign(k + 1, 0.0);
      for (std::size_t i = k; i-- > 0;) {
        const std::size_t n = begin + i;
        double min_dur = std::numeric_limits<double>::infinity();
        for (std::size_t c = 0; c < cand[n].size(); ++c)
          min_dur = std::min(min_dur, durations[dur_offset[n] + c]);
        suffix_lb[i] = std::max(suffix_lb[i + 1], node_ready[n] + min_dur);
      }

      // Live tails start from the committed accelerator state.
      for (std::size_t i = 0; i < k; ++i)
        for (const AccId a : cand[begin + i]) tails[a.value] = acc_tail[a.value];

      choice.assign(k, 0);
      placed_acc.assign(k, AccId{});
      saved_tail.assign(k, 0.0);
      path_mk.assign(k, 0.0);
      path_sum.assign(k, 0.0);
      best_choice.clear();
      double best_mk = std::numeric_limits<double>::infinity();
      double best_sum = std::numeric_limits<double>::infinity();

      std::size_t i = 0;
      while (true) {
        const std::size_t n = begin + i;
        const std::span<const AccId> cs = cand[n];
        const double pm = i == 0 ? makespan : path_mk[i - 1];
        const double ps = i == 0 ? 0.0 : path_sum[i - 1];

        if (i + 1 < k && choice[i] < cs.size()) {
          // Internal node: place choice[i] and descend, unless the bound
          // proves every completion loses.
          const AccId a = cs[choice[i]];
          const double fin = std::max(node_ready[n], tails[a.value]) +
                             durations[dur_offset[n] + choice[i]];
          const double mk = std::max(pm, fin);
          if (std::max(mk, suffix_lb[i + 1]) > best_mk) {
            if (stats) ++stats->bound_pruned;
            ++choice[i];
            continue;
          }
          placed_acc[i] = a;
          saved_tail[i] = tails[a.value];
          tails[a.value] = fin;
          path_mk[i] = mk;
          path_sum[i] = ps + fin;
          ++i;
          choice[i] = 0;
          continue;
        }

        if (i + 1 == k) {
          // Leaf: one sweep over the last position's contiguous duration
          // row scores every completion of the current prefix.
          const double ready = node_ready[n];
          const double* dur = durations.data() + dur_offset[n];
          for (std::size_t c = 0; c < cs.size(); ++c) {
            const double fin = std::max(ready, tails[cs[c].value]) + dur[c];
            const double mk = std::max(pm, fin);
            if (mk > best_mk) continue;
            const double sum = ps + fin;
            if (stats) ++stats->evaluated;
            bool better = mk < best_mk;
            if (!better && sum < best_sum) {
              better = true;
            } else if (!better && sum == best_sum) {
              const auto cc = static_cast<std::uint32_t>(c);
              better = cc != best_choice[k - 1]
                           ? cc < best_choice[k - 1]
                           : colex_less(choice.data(), best_choice.data(),
                                        k - 1);
            }
            if (better) {
              best_mk = mk;
              best_sum = sum;
              best_choice.assign(choice.begin(), choice.end());
              best_choice[k - 1] = static_cast<std::uint32_t>(c);
            }
          }
        }

        // Position i is exhausted: backtrack.
        if (i == 0) break;
        --i;
        tails[placed_acc[i].value] = saved_tail[i];  // undo the placement
        ++choice[i];
      }

      // Commit the chunk in frontier order.
      H2H_ASSERT(best_choice.size() == k);
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t n = begin + i;
        const LayerId node = front[n];
        const AccId a = cand[n][best_choice[i]];
        mapping.assign(node, a);
        const double start = std::max(node_ready[n], acc_tail[a.value]);
        const double fin = start + durations[dur_offset[n] + best_choice[i]];
        acc_tail[a.value] = fin;
        finish[node.value] = fin;
        makespan = std::max(makespan, fin);
        work.complete(node);
      }
      begin = end;
    }
  }

  H2H_ENSURES(mapping.complete());
  return mapping;
}

}  // namespace h2h
