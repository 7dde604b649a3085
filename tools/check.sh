#!/usr/bin/env bash
# Tier-1 correctness gate: determinism lint, then build + full ctest under
# the AddressSanitizer and UndefinedBehaviorSanitizer presets. Run it from
# anywhere inside the repo before sending a PR:
#
#   tools/check.sh            # lint + asan + ubsan (the CI gate)
#   tools/check.sh tsan       # additionally build + test the tsan preset
#   tools/check.sh all        # asan + ubsan + tsan + werror
#
# Every preset writes to its own build-<preset>/ directory, so repeated
# runs are incremental.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

jobs="$(nproc 2>/dev/null || echo 4)"

presets=(asan ubsan)
case "${1:-}" in
  "") ;;
  tsan) presets+=(tsan) ;;
  all) presets+=(tsan werror) ;;
  *)
    echo "usage: tools/check.sh [tsan|all]" >&2
    exit 2
    ;;
esac

# 1. Static analysis: all seventeen passes (layering, unchecked errors,
# determinism/hygiene, and the sema passes up through the
# interprocedural thread-confinement / untrusted-input /
# ordering-discipline checks). Built tiny and standalone so the gate
# fails fast before any full preset build. Each run is cold (well under
# a second); --stats prints the per-pass timing.
lint_build="$repo/build-lint"
cmake -S "$repo" -B "$lint_build" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$lint_build" --target firehose_analyze -j "$jobs" >/dev/null
echo "== firehose_analyze src/ tools/ tests/"
"$lint_build/tools/firehose_analyze" --root="$repo" --stats src tools tests

# 1b. clang-tidy over compile_commands.json, when installed. Optional:
# the build exports compile_commands.json either way, and CI treats a
# missing clang-tidy the same as a clean run.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy src/"
  mapfile -t tidy_sources < <(find "$repo/src" -name '*.cc' | sort)
  clang-tidy -p "$lint_build" --quiet "${tidy_sources[@]}"
else
  echo "== clang-tidy not installed; skipping (analyzer gate above still ran)"
fi

# 2. Sanitized builds + tests.
for preset in "${presets[@]}"; do
  echo "== preset $preset: configure + build"
  cmake --preset "$preset" >/dev/null
  cmake --build --preset "$preset" -j "$jobs"
  echo "== preset $preset: ctest"
  ctest --preset "$preset"
done

echo "check.sh: all gates passed (${presets[*]})"
