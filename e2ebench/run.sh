#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload:
#
#   bash e2ebench/run.sh --workload nd-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under the build directory ($CARGO_TARGET_DIR, default .bench_build),
# including the Go build cache.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command's config and telemetry files, and GOPATH, stay in the
# build directory too.
export XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

commit=none
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
fi

(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -root "$root" -work "$build" -commit "$commit" "$@"
