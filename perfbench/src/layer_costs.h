#ifndef GAMMA_PERFBENCH_LAYER_COSTS_H_
#define GAMMA_PERFBENCH_LAYER_COSTS_H_

// Host cost of each layer, measured by calling its public API directly at
// the workloads' page size (4 KB) and tuple width (208 bytes). Each figure
// is the median of five trials.

#include <map>
#include <string>

namespace gammadb::perfbench {

/// Metric name -> value, in the unit its name states (ns/op unless the name
/// ends in _per_s or _us).
using LayerCosts = std::map<std::string, double>;

LayerCosts MeasureLayerCosts();

}  // namespace gammadb::perfbench

#endif  // GAMMA_PERFBENCH_LAYER_COSTS_H_
