// antarex::search — model-seeded evolutionary design-space exploration.
//
// The two-stage exploration flow of the Odyssey/AutoSA lineage, grown onto
// the grey-box autotuner of paper Sec. IV: the tuner's RLS surrogate, over
// linear + interaction terms of normalized knob encodings, is fit from the
// measured probes and seeds half the starting population of a genetic
// engine (tournament selection, knob-aware crossover/mutation, elitism,
// duplicate suppression). The SearchStrategy adapter plugs the whole thing
// into tuner::Strategy, so Autotuner next_batch()/report_batch() evaluates
// generations in parallel on an exec::ThreadPool with bit-identical
// trajectories at any worker count.
// See DESIGN.md subsystem #17 and README "Design-space search".
#pragma once

#include "search/genetic.hpp"
#include "search/strategy.hpp"
