#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "reference.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

/// The traced run: pairs of untraced and traced rounds until `seconds`
/// have passed (the traced ones record spans around every engine call
/// class), then standalone timings of each layer's public calls on the
/// workload's own inputs. Writes `<out_prefix>.trace.json` (Chrome trace)
/// and `<out_prefix>.layers.txt` (self time and count per span name), and
/// returns every per-layer metric.
std::vector<Metric> TracedRun(const Workload& w, const Reference& ref,
                              double seconds, const std::string& out_prefix,
                              uint32_t trace_id, Tally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
