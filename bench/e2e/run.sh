#!/bin/sh
# Full end-to-end pass: builds the driver, runs all four workloads (each in
# its own process, traced repetition included) and writes one
# hpcgraph-e2e-v1 document.  Arguments go to run.py, e.g.
#   bench/e2e/run.sh --seed 1 [--seconds 15] [--out FILE]
exec python3 "$(dirname "$0")/run.py" "$@"
