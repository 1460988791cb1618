// Fixture: R3 (layering). A src/core/ header reaching up the DAG into sim/
// and runtime/. Downward and same-layer includes are the negative controls.
#pragma once

#include "sim/engine.hpp"       // line 5: core (4) -> sim (5): violation
#include "runtime/peer.hpp"     // line 6: core (4) -> runtime (5): violation
#include "host/agent.hpp"       // core (4) -> host (3): fine
#include "stats/sketch.hpp"     // core (4) -> stats (1): fine
#include "core/estimate.hpp"    // core (4) -> core (4): fine
#include <vector>               // system include: never a layering edge
