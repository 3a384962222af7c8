#include "monitor/topic.hpp"

namespace antarex::monitor {

const char* metric_name(Metric m) {
  switch (m) {
    case Metric::PowerW: return "power_w";
    case Metric::TempC: return "temp_c";
    case Metric::Utilization: return "util";
    default: return "progress_ups";
  }
}

}  // namespace antarex::monitor
