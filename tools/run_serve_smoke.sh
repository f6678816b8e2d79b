#!/bin/sh
# Serve smoke test: replay a short seeded multi-user workload through
# `clear-cli serve`, validate the metrics snapshot against the checked-in
# schema (tools/metrics_schema.json), check the serve-specific counters /
# histograms / spans are recorded, and assert the per-request predictions
# are bit-identical to the golden file (tools/serve_golden.txt), unchanged
# with metrics on or off, and unchanged at --threads 1 vs 8.
#
# An optional fourth argument points at a clear-cli from a -DCLEAR_OBS=OFF
# build (instrumentation compiled out, not just disabled): its predictions
# must hit the same golden. tools/run_sanitizer_tests.sh's `obsoff` leg
# builds that binary and invokes this script with it.
# Usage: run_serve_smoke.sh <clear-cli> <schema> <golden> [obs-off-cli]
set -eu

CLI="$1"
SCHEMA="$2"
GOLDEN="$3"
OBS_OFF_CLI="${4:-}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

SLICE="--volunteers=6 --trials=4 --epochs=1 --ft-epochs=1 \
--data-seed=42 --users=12 --requests=16 --seed=7"

# 1. Metrics on, single thread: the reference run.
"$CLI" serve $SLICE --threads=1 --metrics-out=metrics.json \
  >on.txt 2>on.err
test -s metrics.json

# 2. The snapshot must not be vacuously valid: an empty registry (e.g. a
#    CLEAR_OBS=OFF binary handed the metrics-on role, or instrumentation
#    silently broken) satisfies the schema, so require substance before
#    validating shape.
jq -e '(.counters | length) > 0' metrics.json >/dev/null ||
  { echo "metrics snapshot has no counters — obs recorded nothing" >&2
    exit 1; }
jq -e '(.histograms | length) > 0' metrics.json >/dev/null ||
  { echo "metrics snapshot has no histograms — obs recorded nothing" >&2
    exit 1; }
jq -e '(.traceEvents | length) > 0' metrics.json >/dev/null ||
  { echo "metrics snapshot has no trace events — obs recorded nothing" >&2
    exit 1; }

# 3. The snapshot must satisfy the schema.
python3 - "$SCHEMA" metrics.json <<'EOF'
import json, sys
import jsonschema
with open(sys.argv[1]) as f:
    schema = json.load(f)
with open(sys.argv[2]) as f:
    snapshot = json.load(f)
jsonschema.validate(snapshot, schema)
EOF

# 4. The serving layer's own signals must be recorded: request/batch
#    counters, queue/batch/time-to-first-prediction histograms, and the
#    assignment + batch-execution spans.
for c in serve.requests serve.batches serve.rows serve.assignments \
         serve.cache.misses; do
  jq -e --arg c "$c" '.counters[$c] > 0' metrics.json >/dev/null ||
    { echo "missing serve counter: $c" >&2; exit 1; }
done
for h in serve.batch_size serve.queue_wait_virt_us serve.ttfp_virt_us; do
  jq -e --arg h "$h" '.histograms[$h].count > 0' metrics.json >/dev/null ||
    { echo "missing serve histogram: $h" >&2; exit 1; }
done
for s in serve.assign serve.batch; do
  jq -e --arg s "$s" \
    '[.traceEvents[] | select(.name == $s)] | length > 0' metrics.json \
    >/dev/null || { echo "missing serve span: $s" >&2; exit 1; }
done
jq -e '.droppedTraceEvents == 0' metrics.json >/dev/null

# 5. Metrics off: stdout must be byte-identical (observability never
#    changes a prediction).
"$CLI" serve $SLICE --threads=1 --no-metrics >off.txt 2>off.err
cmp on.txt off.txt

# 6. Thread count must not change a single byte either.
"$CLI" serve $SLICE --threads=8 --no-metrics >t8.txt 2>t8.err
cmp off.txt t8.txt

# 7. Per-request predictions must match the checked-in golden exactly —
#    any drift in the serving pipeline's numerics shows up here.
grep '^user=' on.txt >predictions.txt
cmp predictions.txt "$GOLDEN" || {
  echo "predictions diverge from $GOLDEN" >&2
  diff "$GOLDEN" predictions.txt | head -20 >&2
  exit 1
}

# 8. Compiled-out observability (-DCLEAR_OBS=OFF) must hit the same golden:
#    the macros expand to nothing in that build, so this is the only check
#    that the *absence* of instrumentation code paths changes no byte.
if [ -n "$OBS_OFF_CLI" ]; then
  "$OBS_OFF_CLI" serve $SLICE --threads=1 --no-metrics \
    >obsoff.txt 2>obsoff.err
  grep '^user=' obsoff.txt >obsoff_predictions.txt
  cmp obsoff_predictions.txt "$GOLDEN" || {
    echo "obs-off build predictions diverge from $GOLDEN" >&2
    diff "$GOLDEN" obsoff_predictions.txt | head -20 >&2
    exit 1
  }
  echo "serve smoke OK (incl. obs-off golden)"
else
  echo "serve smoke OK (obs-off leg skipped: no -DCLEAR_OBS=OFF binary given)"
fi
