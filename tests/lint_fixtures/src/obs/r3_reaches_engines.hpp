// Fixture: R3 (layering) for the observability layer. src/obs/ sits beside
// host/ (rank 3): engines above record *into* it, so an obs/ file including
// sim/ or runtime/ inverts the dependency. Downward includes are the
// negative controls.
#pragma once

#include "sim/engine.hpp"       // line 7: obs (3) -> sim (5): violation
#include "runtime/cluster.hpp"  // line 8: obs (3) -> runtime (5): violation
#include "host/types.hpp"       // obs (3) -> host (3): same rank, fine
#include "stats/sketch.hpp"     // obs (3) -> stats (1): fine
#include <vector>               // system include: never a layering edge
