#!/bin/sh
# CLI byte-identity transcript: drive every query class through query,
# stream (plain and with the deterministic flight recorder, read back by
# top), stats, explain and a journal/replay/undo crash session on one
# fixed synthetic graph, writing each transcript (stdout and stderr, plus
# exit codes) and each metrics directory into OUTDIR. Wall-clock columns
# are stripped; everything else is deterministic for a fixed graph and
# seed.
#
#   sh golden.sh path/to/incgraph.exe OUTDIR
set -u
inc=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
out=$2
rm -rf "$out"
mkdir -p "$out"
cd "$out" || exit 1

# One command, echoed, with its exit code. Drops the "in 0.123s" of
# `query`, the "(0.123s)" column of `stream` and the span seconds of
# `stats`.
run() {
  echo "\$ incgraph $*"
  "$inc" "$@" > run.log 2>&1
  rc=$?
  sed -e 's/ in [0-9.]*s$//' -e 's/  ([0-9.]*s)$//' \
    -e 's/ calls *[0-9.]*s$/ calls/' run.log
  echo "[exit $rc]"
  rm -f run.log
}

run generate -p synthetic -s 0.05 --seed 7 -o g.graph > generate.out

session() {
  cls=$1
  shift
  {
    run query -g g.graph "$cls" "$@"
    run stream -g g.graph --batches 3 --size 40 --seed 11 "$cls" "$@"
    run stream -g g.graph --batches 2 --size 40 --seed 11 \
      --metrics-out "metrics_$cls" --deterministic-metrics "$cls" "$@"
    run top "metrics_$cls"
    run stats -g g.graph --batches 2 --size 40 --seed 11 "$cls" "$@"
    run explain -g g.graph --batches 2 --size 40 --seed 11 "$cls" "$@"
    d=journal_$cls.dir
    run journal "$d" "$cls" --init -g g.graph "$@" --apply +0-1 --apply +1-0 \
      --apply +2-0,-0-1
    run snapshot "$d"
    run journal "$d" --apply +1-2
    run journal "$d" --chop 5
    run journal "$d"
    run replay "$d" --check
    run undo "$d" -k 1
    run replay "$d" --as-of 1
    rm -rf "$d"
  } > "$cls.out"
}

session kws -b 2 l1 l2
session rpq 'l1 . l2* . l3'
session scc
session iso l1 l2 l3 0-1 1-2
session sim l1 l2 0-1

# 1,600 updates are enough to compact the CSR a few times, so this
# registry keeps a histogram (csr_compact_bytes) after the deterministic
# filter, and top prints a histogram row with its p50/p99 cells.
{
  run stream -g g.graph --batches 4 --size 400 --seed 11 \
    --metrics-out metrics_compaction --deterministic-metrics scc
  run top metrics_compaction
} > compaction.out

run explain --gadget 4 > gadget.out
rm -f g.graph
