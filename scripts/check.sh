#!/usr/bin/env bash
# Resilience gate: build every preset and run the deterministic
# chaos/overload suites under it. The default preset additionally runs the
# full tier-1 test list. Usage: scripts/check.sh [preset...]
#   scripts/check.sh              # default + tsan + asan
#   scripts/check.sh tsan         # just one preset
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default tsan asan)
fi

for preset in "${presets[@]}"; do
  echo "==> [$preset] configure + build"
  cmake --preset "$preset" >/dev/null
  cmake --build --preset "$preset" -j "$(nproc)"
  if [ "$preset" = default ]; then
    echo "==> [$preset] full test suite"
    ctest --preset "$preset" --output-on-failure
    # perfbench/ is a frozen harness compiled against src/; build it (without
    # running it) so an interface change that breaks it fails here.
    echo "==> [$preset] perfbench build"
    cmake -S perfbench -B build/perfbench >/dev/null
    cmake --build build/perfbench --target perfbench -j "$(nproc)"
    echo "==> [$preset] bench smoke (crash check + JSON artifacts)"
    scripts/bench_smoke.sh build build/bench-artifacts
    echo "==> [$preset] bench regression gate (scale-free metrics vs baseline)"
    for artifact in BENCH_fanin.json BENCH_store_overload.json \
                    BENCH_tree.json BENCH_restart.json BENCH_query.json; do
      scripts/bench_compare.py "bench/baselines/$artifact" \
        "build/bench-artifacts/$artifact"
    done
  else
    # Sanitizer presets focus on the concurrency-heavy fault suites, the
    # wire codecs and the control socket (the preset's own filter applies on
    # top of the labels).
    echo "==> [$preset] chaos + overload + codec + tree + persist + query + control suites"
    ctest --preset "$preset" --output-on-failure \
      -L 'chaos|overload|codec|tree|persist|query|control'
  fi
done
echo "==> all presets green"
