#!/usr/bin/env bash
# Run every builtin scenario of one source tree, with one BLAS thread.
#
#   bash .github/run-builtins.sh LIST_TREE RUN_TREE OUT
#
# Lists the builtin names from LIST_TREE/src and runs each one from
# RUN_TREE/src.  Each run writes OUT/<name>.result.json and
# OUT/<name>.table.csv, its stderr to OUT/<name>.stderr, and appends
# "<name> <exit code>" to OUT/exit-codes.txt, which it empties first, so a
# rerun into the same OUT gives the same file.  Two trees run with the same
# LIST_TREE give the same file names, to compare one by one with cmp.
# bash's time keyword prints each run's wall time, for information only.
set -e
list_tree=$1
run_tree=$2
out=$3
export OPENBLAS_NUM_THREADS=1
names=$(PYTHONPATH="$list_tree/src" python -m rieszlab.cli list-scenarios | cut -d: -f1)
mkdir -p "$out"
: > "$out/exit-codes.txt"
for name in $names; do
  TIMEFORMAT="time ${out##*/} $name: %R s"
  code=0
  time PYTHONPATH="$run_tree/src" python -m rieszlab.cli run "$name" --out "$out/$name" 2> "$out/$name.stderr" || code=$?
  echo "$name $code" >> "$out/exit-codes.txt"
done
