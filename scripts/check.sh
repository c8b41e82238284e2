#!/bin/sh
# Pre-commit gate for the Clio reproduction: the clio-lint invariant
# analyzer, the tier-1 test suite, and (when installed) mypy --strict over
# the typed packages.  Run from the repository root:  ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== clio lint src/repro =="
PYTHONPATH=src python -m repro lint src/repro

echo "== concurrency gate + report byte-determinism =="
PYTHONPATH=src python -m repro lint src/repro \
    --concurrency-report /tmp/clio_concurrency_a.json --concurrency-gate \
    > /dev/null
PYTHONPATH=src python -m repro lint src/repro \
    --concurrency-report /tmp/clio_concurrency_b.json > /dev/null
cmp /tmp/clio_concurrency_a.json /tmp/clio_concurrency_b.json
echo "concurrency ok: gate clean, report deterministic"

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q

echo "== benchmark self-check (layer boundaries resolve, counts reproduce) =="
python3 clio_bench/run.py --self-check

echo "== trace determinism =="
PYTHONPATH=src python scripts/trace_determinism.py

echo "== fault campaign (silent-miss gate + artifact determinism) =="
PYTHONPATH=src python -m repro campaign run --menu small --check-determinism \
    --out /tmp/clio_campaign_small.json > /dev/null
echo "campaign ok: no silent misses, artifact deterministic"

echo "== workload smoke (long-horizon replay + under-load campaign + determinism) =="
PYTHONPATH=src python -m repro workload run --profile smoke \
    --campaign small --check-determinism \
    --out /tmp/clio_workload_smoke.json > /dev/null
PYTHONPATH=src python -m repro workload index benchmarks/runs --verify \
    > /dev/null
echo "workload ok: gates pass, artifact deterministic, catalog verified"

echo "== perf smoke (sim-count harness + determinism + baseline gate) =="
PYTHONPATH=src python -m repro perf run --profile smoke \
    --check-determinism --out /tmp/clio_perf_smoke.json > /dev/null
PYTHONPATH=src python -m repro perf run --profile smoke \
    --out /tmp/clio_perf_smoke_b.json > /dev/null
cmp /tmp/clio_perf_smoke.json /tmp/clio_perf_smoke_b.json
PYTHONPATH=src python -m repro perf compare /tmp/clio_perf_smoke.json \
    --baseline benchmarks/baselines/wallclock_baseline.json

if python -c "import mypy" >/dev/null 2>&1; then
    echo "== mypy --strict (worm + vsystem + obs + workloads + annotated core) =="
    PYTHONPATH=src python -m mypy --strict \
        src/repro/worm src/repro/vsystem src/repro/obs \
        src/repro/workloads \
        src/repro/core/ids.py src/repro/core/naming.py \
        src/repro/core/entry.py src/repro/core/block.py \
        src/repro/core/catalog.py src/repro/core/sublog.py \
        src/repro/core/timeindex.py src/repro/core/recovery.py
else
    echo "== mypy not installed; skipping type check =="
fi

echo "All checks passed."
