#!/bin/sh
# Run every workload end to end and then traced, printing every metric by name
# and unit. Run from the repository root; extra arguments (--seed N, --seconds S)
# are passed to each run.
set -e
for workload in verify_all evaluate_large evaluate_matrix search; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --trace "$trace" "$@"
    done
done
