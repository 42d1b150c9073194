// The four workloads and the self-tests of the checks. Each workload runs
// for Args::seconds of measurement and returns its Outcome; main.cpp turns
// that into the printed report and the JSON result line.
#pragma once

#include "common.hpp"

namespace perfbench {

Outcome run_embed(const Args& args, bool dense);
Outcome run_stream(const Args& args);
Outcome run_serve(const Args& args);

/// Hand-checkable reference values on data/karate.txt, and proof that
/// every check rejects a perturbed output. Returns the failures.
std::vector<std::string> self_test();

}  // namespace perfbench
