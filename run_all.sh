#!/bin/sh
# Build everything, run the test suite, and regenerate every paper table and
# figure. CSV/HTML series land in ./bench_out/; console output is saved to
# test_output.txt and bench_output.txt.
set -e

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

mkdir -p bench_out
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  "$b"
done 2>&1 | tee bench_output.txt
