#!/bin/sh
# Every command of CI's artifact rerun loop, each writing its artifacts under "$1".
# "$2" is the events.jsonl that `render --input` reads (default: "$1/run/events.jsonl");
# passes that are compared with `diff -r` share one, since config.json echoes the path.
# Run it from the root of a checkout, with that checkout's src on PYTHONPATH:
#     PYTHONPATH=src sh .github/artifacts.sh OUT [EVENTS]
# A command that exits non-zero or writes anything to stderr (a warning, or finalization
# noise such as "Exception ignored in ...", which exits 0) stops the script, naming it.
set -e
d=$1
events=${2:-$d/run/events.jsonl}
err=$(mktemp)
trap 'rm -f "$err"' EXIT
chl() {
    status=0
    python -m chl.cli "$@" 2>"$err" || status=$?
    cat "$err" >&2
    if [ "$status" != 0 ] || [ -s "$err" ]; then
        echo "artifacts.sh: 'chl $*' exited with $status and wrote $(wc -c <"$err") bytes to stderr" >&2
        exit 1
    fi
}
chl simulate --n 10 --lambda 1 --t 3 --seed 7 --out "$d/run"
chl simulate --n 10 --t 3 --seed 7 --probe 0+1i --trajectory --out "$d/traj"
chl simulate --n 10 --t 3 --seed 7 --probe 0.5+0i --probe 3 --trajectory --out "$d/traj-axis"
chl verify --out "$d/report-all"
chl verify --only quad_mean_shift --tol 1e-12 --out "$d/report"
chl verify --only quad_squared_shift --tol 1e-12 --out "$d/report-sq"
chl verify --only quad_squared_deriv --tol 1e-12 --out "$d/report-dv"
chl verify --only second_deriv_decay --out "$d/report-sd"
chl verify --only second_deriv_decay --tol 1e-12 --out "$d/report-sd-12"
chl verify --only coupling_decay --out "$d/report-cd"
chl converge --n-list 4,8 --replicas 64 --out "$d/conv"
chl converge --n-list 4,8,16,32,64,128 --replicas 200 --out "$d/conv-128"
chl converge --n-list 4,8,16 --replicas 200 --window 2 --out "$d/conv-window"
chl converge --n-list 4,8,16 --replicas 200 --probe 0.5+0i --out "$d/conv-boundary"
chl converge --n-list 4,8,16,32 --replicas 5000 --t 0.5 --out "$d/conv-5000"
chl render --n 10 --lambda 1 --t 3 --seed 1234 --out "$d/fig"
chl render --n 1 --lambda 1 --t 3 --seed 5 --out "$d/fig-n1"
chl render --input "$events" --forward --out "$d/fig-fwd"
chl render --n 0.1 --lambda 1 --t 200 --seed 1 --out "$d/fig-tall"
