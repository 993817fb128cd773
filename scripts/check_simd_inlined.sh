#!/bin/bash
# Fails when a release binary still defines an out-of-line AVX-512 intrinsic.
#
# The workspace builds for baseline x86-64, so a `core::arch` AVX-512
# intrinsic inlines only into code compiled inside `Simd::vectorize`. A
# vector kernel that calls the backend outside that seam, or through a
# generic helper that is not `#[inline(always)]`, leaves the intrinsic as a
# function of its own, and every vector op becomes a call. This check reads
# symbols only, so it holds on machines without AVX-512.
#
#   cargo build --release --workspace
#   scripts/check_simd_inlined.sh [target/release]
set -euo pipefail

DIR=${1:-target/release}
PATTERN='core::core_arch::x86::avx512'

[ -d "$DIR" ] || { echo "FAIL: no directory $DIR" >&2; exit 1; }

checked=0
bad=0
for bin in "$DIR"/*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  checked=$((checked + 1))
  all=$(nm -C --defined-only "$bin") || { echo "FAIL: nm cannot read $bin" >&2; exit 1; }
  syms=$(printf '%s\n' "$all" | grep -F "$PATTERN" | awk '{$1=$2=""; print substr($0, 3)}' | sort -u || true)
  if [ -n "$syms" ]; then
    bad=$((bad + 1))
    while IFS= read -r sym; do
      echo "FAIL: $(basename "$bin") defines $sym" >&2
    done <<< "$syms"
  fi
done

[ "$checked" -gt 0 ] || { echo "FAIL: no executables under $DIR" >&2; exit 1; }
if [ "$bad" -gt 0 ]; then
  echo "$bad of $checked binaries keep out-of-line AVX-512 intrinsics" >&2
  exit 1
fi
echo "ok: no out-of-line AVX-512 intrinsics in $checked binaries under $DIR"
