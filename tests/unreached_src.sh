#!/usr/bin/env bash
# Reachability gate for src/: every function libopal defines must be linked
# into some program the repository ships (a bench/, an examples/ target or
# servebench), or be named in tests/unreached_allowlist.txt with its reason.
#
#   tests/unreached_src.sh [build-dir]     (default: build-unreached/)
#
# How: build the library, every bench/*.cpp and examples/*.cpp target, and
# servebench (configured from servebench/CMakeLists.txt as it stands) at -O0
# with one section per function, linking with --gc-sections, so a binary
# keeps exactly the functions its entry point can reach. A symbol is
# unreached if `nm --defined-only` lists it (T or W) in libopal.a but in no
# binary. Names are demangled without parameters, so overloads share one
# name, and only names under opal:: count (std:: instantiations over opal
# types are dropped).
#
# Exits nonzero if an unreached name is not on the allowlist, if an
# allowlist name is reached or no longer defined, or if a bench/ or
# examples/ source has no linked binary (a target CMake skipped).
#
# Blind spot: this sees reachability at link time only. A function a
# binary links but never runs passes, and a header-inline function that
# only tests call is never compiled into libopal.a, so it is invisible.
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-"$root/build-unreached"}
allowlist="$root/tests/unreached_allowlist.txt"
jobs=${JOBS:-$(nproc)}
flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

cmake -S "$root" -B "$out/opal" "${flags[@]}" > /dev/null
cmake -S "$root/servebench" -B "$out/servebench" "${flags[@]}" > /dev/null

fail=0
binaries=()
targets=()
# Every target of the last configure, one CMakeFiles/<name>.dir per line.
configured="$out/opal/CMakeFiles/TargetDirectories.txt"
for src in "$root"/bench/*.cpp "$root"/examples/*.cpp; do
  name=$(basename "$src" .cpp)
  if grep -q "/CMakeFiles/$name\.dir\$" "$configured"; then
    targets+=("$name")
    binaries+=("$out/opal/$name")
  else
    echo "no linked binary: ${src#"$root"/} has no CMake target" >&2
    fail=1
  fi
done
cmake --build "$out/opal" -j "$jobs" --target opal "${targets[@]}" > /dev/null
cmake --build "$out/servebench" -j "$jobs" --target servebench > /dev/null
binaries+=("$out/servebench/servebench")

# Mangled T/W symbols, one per line.
defined() {
  nm --defined-only "$@" 2>/dev/null | awk '$2 ~ /^[TW]$/ {print $3}'
}

unreached=$(comm -23 <(defined "$out/opal/libopal.a" | sort -u) \
                     <(defined "${binaries[@]}" | sort -u) |
            c++filt -p | grep '^opal::' | sort -u || true)
library=$(defined "$out/opal/libopal.a" | c++filt -p | grep '^opal::' |
          sort -u || true)
allowed=$(sed -e 's/#.*//' -e 's/[[:space:]]*$//' "$allowlist" |
          grep -v '^$' | sort -u || true)

report() {  # report <message> <names>
  [[ -z "$2" ]] && return 0
  echo "$1" >&2
  sed 's/^/  /' <<< "$2" >&2
  fail=1
}
report "unreached from every binary and not on the allowlist:" \
  "$(comm -23 <(echo "$unreached") <(echo "$allowed") | grep -v '^$' || true)"
report "on the allowlist but no longer defined in libopal.a:" \
  "$(comm -23 <(echo "$allowed") <(echo "$library") | grep -v '^$' || true)"
report "on the allowlist but reached by a binary (drop the entry):" \
  "$(comm -12 <(echo "$allowed") <(echo "$library") |
     comm -23 - <(echo "$unreached") | grep -v '^$' || true)"

if [[ $fail -eq 0 ]]; then
  echo "unreached_src: every src/ function is reached or allowlisted" \
       "($(grep -c . <<< "$allowed") allowlisted names)"
fi
exit $fail
