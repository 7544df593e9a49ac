#!/bin/sh
# Cross-hash-seed determinism: run each command twice under
# OCAMLRUNPARAM=R (randomized Hashtbl hashing, a fresh seed per process)
# on one fixed synthetic graph and require byte-identical output. Each
# engine's whole event log (explain --limit=-1) is diffed, then the
# metrics directory of a stream with the flight recorder in
# deterministic mode (clock-derived series dropped).
#
#   sh trace_determinism.sh path/to/incgraph.exe
set -eu
inc=$1

"$inc" generate -p synthetic -s 0.05 --seed 7 -o det.graph

explain() {
  name=$1
  shift
  for i in 1 2; do
    OCAMLRUNPARAM=R "$inc" explain --limit=-1 -g det.graph --batches 2 \
      --size 40 --seed 11 "$@" > "det_${name}_$i.explain"
  done
  diff -u "det_${name}_1.explain" "det_${name}_2.explain"
}

explain scc scc
explain kws kws -b 2 l1 l2
explain rpq rpq 'l1 . l2* . l3'
explain iso iso l1 l2 0-1
explain sim sim l1 l2 0-1

# Each run holds one metrics.jsonl; a hash-order iteration anywhere in
# the registry walk or the snapshot writer diverges here.
for i in 1 2; do
  rm -rf "met_det_$i"
  OCAMLRUNPARAM=R "$inc" stream -g det.graph --batches 2 --size 40 \
    --seed 11 --metrics-out "met_det_$i" --deterministic-metrics \
    --snapshot-every 16 scc
done
diff -r -u met_det_1 met_det_2
