#include "cts/buflib.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/evaluate.h"
#include "util/units.h"

namespace contango {

bool dominates(const CompositeElectrical& a, const CompositeElectrical& b) {
  const bool no_worse = a.output_res <= b.output_res &&
                        a.input_cap <= b.input_cap &&
                        a.output_cap <= b.output_cap;
  const bool better = a.output_res < b.output_res || a.input_cap < b.input_cap ||
                      a.output_cap < b.output_cap;
  return no_worse && better;
}

std::vector<CompositeBuffer> nondominated_composites(const Technology& tech,
                                                     int max_count) {
  std::vector<CompositeBuffer> front;
  for (int type = 0; type < static_cast<int>(tech.inverters.size()); ++type) {
    for (int count = 1; count <= max_count; ++count) {
      const CompositeBuffer candidate{type, count};
      const CompositeElectrical ce = tech.electrical(candidate);
      bool dominated = false;
      for (const CompositeBuffer& kept : front) {
        if (dominates(tech.electrical(kept), ce)) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      // Remove members the new candidate dominates.
      front.erase(std::remove_if(front.begin(), front.end(),
                                 [&](const CompositeBuffer& kept) {
                                   return dominates(ce, tech.electrical(kept));
                                 }),
                  front.end());
      front.push_back(candidate);
    }
  }
  std::sort(front.begin(), front.end(),
            [&](const CompositeBuffer& a, const CompositeBuffer& b) {
              return tech.electrical(a).output_res > tech.electrical(b).output_res;
            });
  return front;
}

CompositeBuffer best_unit_composite(const Technology& tech, int max_count) {
  KOhm strongest_single = tech.inverters.front().output_res;
  for (const InverterType& inv : tech.inverters) {
    strongest_single = std::min(strongest_single, inv.output_res);
  }
  bool found = false;
  CompositeBuffer best{0, 1};
  Ff best_cost = 0.0;
  for (int type = 0; type < static_cast<int>(tech.inverters.size()); ++type) {
    for (int count = 1; count <= max_count; ++count) {
      const CompositeBuffer candidate{type, count};
      const CompositeElectrical ce = tech.electrical(candidate);
      if (ce.output_res > strongest_single) continue;
      const Ff cost = ce.input_cap + ce.output_cap;
      if (!found || cost < best_cost) {
        found = true;
        best = candidate;
        best_cost = cost;
      }
      break;  // larger counts of this type only cost more
    }
  }
  if (!found) throw std::logic_error("best_unit_composite: empty library");
  return best;
}

CompositeBuffer smallest_inverter(const Technology& tech) {
  int best = 0;
  for (int i = 1; i < static_cast<int>(tech.inverters.size()); ++i) {
    if (tech.inverters[static_cast<std::size_t>(i)].input_cap <
        tech.inverters[static_cast<std::size_t>(best)].input_cap) {
      best = i;
    }
  }
  return CompositeBuffer{best, 1};
}

Ff slew_free_cap(const Technology& tech, const CompositeBuffer& buffer,
                 double margin) {
  const CompositeElectrical ce = tech.electrical(buffer);
  Volt worst_vdd = tech.vdd_nom;
  for (Volt v : tech.corners) worst_vdd = std::min(worst_vdd, v);
  const KOhm r_eff = effective_driver_res(ce.output_res, tech, worst_vdd, Transition::kRise);
  const Ff cap = margin * tech.slew_limit / (kLn9 * r_eff);
  return std::max(cap - ce.output_cap, 0.0);
}

}  // namespace contango
