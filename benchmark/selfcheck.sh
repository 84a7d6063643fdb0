#!/usr/bin/env bash
# The A/A harness: two interleaved sets of full runs of the same build.
# Prints, per workload and metric, each set's median and quartiles next to
# the raw (uncalibrated) spread, and fails if any pair of set medians
# differs by more than half that metric's bound. See README.md.
#
#   selfcheck.sh [--runs <n per set, default 5>] [--seconds <n>] [--workload <name>]
set -euo pipefail
exec "$(dirname "$0")/run.sh" selfcheck "$@"
