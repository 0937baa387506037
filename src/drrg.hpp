#pragma once
// Umbrella header: the whole public surface of the drrg library.
//
//   #include "drrg.hpp"
//   auto out = drrg::drr_gossip_ave(n, values, seed);
//
// or, through the uniform runner facade (any algorithm, any aggregate):
//
//   drrg::api::RunSpec spec{.n = n, .aggregate = drrg::api::Aggregate::kAve};
//   auto report = drrg::api::run("drr", spec);
//
// Fine-grained headers remain available for users who want a single
// subsystem (e.g. only the simulator or only the Chord overlay).

#include "aggregate/derived.hpp"       // Any/All, leader election, histogram
#include "aggregate/drr_gossip.hpp"    // Algorithms 7-8: the headline API
#include "aggregate/extrema.hpp"       // loss-robust Count/Sum extension
#include "aggregate/quantile.hpp"      // quantile/median via Rank
#include "aggregate/sparse.hpp"        // §4: Local-DRR + routed gossip on Chord
#include "api/api.hpp"                 // uniform RunSpec/RunReport vocabulary
#include "api/registry.hpp"            // algorithm registry + run/run_trials/run_matrix
#include "baselines/chord_uniform.hpp"
#include "baselines/efficient_gossip.hpp"
#include "baselines/pairwise_averaging.hpp"
#include "baselines/uniform_gossip.hpp"
#include "chord/chord.hpp"
#include "drr/drr.hpp"
#include "drr/local_drr.hpp"
#include "forest/forest.hpp"
#include "rootgossip/gossip_ave.hpp"
#include "rootgossip/gossip_max.hpp"
#include "rootgossip/ordered_key.hpp"
#include "sim/engine.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "topology/builders.hpp"
#include "topology/graph.hpp"
#include "trees/broadcast.hpp"
#include "trees/convergecast.hpp"
