// Forwarding header kept for perfbench/driver.cpp, which names
// serve::JsonValue and serve::parse_json and changes only together with
// the benchmark. The codec lives in support/json.hpp; new code includes
// that.
#pragma once

#include "support/json.hpp"

namespace tvnep::serve {
using tvnep::JsonValue;
using tvnep::parse_json;
}  // namespace tvnep::serve
