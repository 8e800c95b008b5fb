#!/usr/bin/env bash
# v2-only smoke: boot the server and prove that
#
#   1. the removed v1 routes answer 404 — nothing is served outside
#      /api/v2;
#   2. the complete publish → deploy → run → stats flow works over
#      /api/v2 alone;
#   3. the multi-tenant QoS surface rides the same v2-only server:
#      `dlhub tenant set-quota` / `tenant ls` round-trip a quota
#      through PUT /api/v2/tenants/{id}/quota, a tenant flooding past
#      max_in_flight is rejected with the quota_exceeded error code,
#      and /api/v2/stats reports the per-tenant counters.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/smoke-lib.sh

HTTP=127.0.0.1:18084
QUEUE=127.0.0.1:17004
BASE=http://$HTTP

build_bins dlhub-server dlhub-taskmanager dlhub

"$SMOKE_BIN/dlhub-server" -http "$HTTP" -queue "$QUEUE" &
wait_for_healthy "$BASE"
"$SMOKE_BIN/dlhub-taskmanager" -queue "$QUEUE" -id v2only-tm-1 -nodes 2 -heartbeat 300ms &
wait_for_ready "$BASE"
wait_for_tm "$BASE" v2only-tm-1

echo "== removed v1 routes answer 404 =="
for route in "GET /api/servables" "POST /api/search" "GET /api/tms" "GET /api/cache/stats"; do
  method=${route%% *}
  path=${route##* }
  code=$(curl -s -o /dev/null -w '%{http_code}' -X "$method" "$BASE$path")
  if [ "$code" != "404" ]; then
    echo "v2only: $route -> $code, want 404" >&2
    exit 1
  fi
done
echo "v2only: v1 surface is gone (404)"

echo "== the full flow works over /api/v2 alone =="
export DLHUB_SERVER=$BASE
cd "$SMOKE_WORK"
"$SMOKE_BIN/dlhub" init -name v2only -title "v2-only smoke" -author "CI" \
  -type python_function -entry test:sleep
"$SMOKE_BIN/dlhub" publish
curl -fsS -X POST -d '{"replicas":1,"tm":"v2only-tm-1"}' \
  "$BASE/api/v2/servables/anonymous/v2only/deploy" >/dev/null
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d '{"input":"ping","no_memo":true}' \
  "$BASE/api/v2/servables/anonymous/v2only/run")
[ "$code" = "200" ] || { echo "v2only: v2 run failed ($code)"; exit 1; }

echo "== tenant quota CLI + route on the v2-only server =="
"$SMOKE_BIN/dlhub" tenant set-quota -max-in-flight 1 -rate 1 -priority low acme
"$SMOKE_BIN/dlhub" tenant ls | grep -Eq '^acme\s+low' || { echo "v2only: tenant ls missing acme"; exit 1; }
# Flood past the quota from the acme tenant (auth is off, so the
# X-DLHub-Tenant header carries the tenant tag): with max_in_flight=1
# and rate 1/s, a burst of 8 must trip quota_exceeded at least once.
saw_quota=0
for i in $(seq 1 8); do
  body=$(curl -s -X POST -H 'X-DLHub-Tenant: acme' \
    -d "{\"input\":\"q$i\",\"no_memo\":true}" \
    "$BASE/api/v2/servables/anonymous/v2only/run")
  if echo "$body" | grep -q 'quota_exceeded'; then saw_quota=1; fi
done
[ "$saw_quota" = "1" ] || { echo "v2only: flood never hit quota_exceeded"; exit 1; }
stats=$(curl -fsS "$BASE/api/v2/stats")
echo "$stats" | grep -q '"tenants"' || { echo "v2only: stats missing tenants block"; exit 1; }
echo "$stats" | grep -q '"acme"' || { echo "v2only: stats missing acme tenant"; exit 1; }
echo "v2only: quota enforced and reported for tenant acme"

echo "smoke-v2only: OK"
