#!/usr/bin/env bash
# dlnoded takes every numeric flag as one whole non-negative decimal token:
# garbage, a sign, or trailing text gets the usage text and exit 2 before
# anything binds. A well-formed command line must get past parsing.
# Nothing here binds a port: the config's ports are never used.
#
# Usage: tests/dlnoded_flags_test.sh path/to/dlnoded
set -u
DLNODED="$1"
WORK=$(mktemp -d /tmp/dl_flags_test.XXXXXX)
trap 'rm -rf "$WORK"' EXIT
cat > "$WORK/cluster.toml" <<'TOML'
[cluster]
n = 4
f = 1

[[node]]
id = 0
host = "127.0.0.1"
port = 1
TOML
for i in 1 2 3; do
  printf '\n[[node]]\nid = %d\nhost = "127.0.0.1"\nport = %d\n' "$i" $((i + 1)) >> "$WORK/cluster.toml"
done

fail=0
# Runs dlnoded with the base flags plus "$@"; prints its exit code.
run() {
  "$DLNODED" --config "$WORK/cluster.toml" --quiet --target-epochs 0 \
    --max-seconds 0.2 --linger-seconds 0 "$@" > /dev/null 2> "$WORK/err"
  echo $?
}
reject() {
  local code
  code=$(run "$@")
  if [ "$code" != 2 ] || ! grep -q '^usage:' "$WORK/err"; then
    echo "FAIL: '$*' exited $code, want 2 with usage text" >&2
    fail=1
  fi
}

reject --id x
reject --id -1
reject --id " 1"
reject --id 1x
reject --id ""
reject --id 0 --target-epochs -1
reject --id 0 --target-epochs 5e
reject --id 0 --admin-port -2
reject --id 0 --tx-bytes +1
reject --id 0 --propose-size 99999999999999999999
# Threading flags that no longer exist: a replica is one thread.
reject --id 0 --net-loops 2
reject --id 0 --loops 2
reject --id 0 --workers 1
reject --id 0 --tx-interval-ms -5
reject --id 0 --max-seconds nan
reject --id 0 --linger-seconds inf
reject --id 0 --admin-port 70000

# Well-formed flags pass parsing and reach the config check, which rejects
# the out-of-range id without the usage text.
code=$(run --id 7 --tx-bytes 16 --tx-interval-ms 2.5 --max-seconds 1e1)
if [ "$code" != 2 ] || ! grep -q 'out of range' "$WORK/err"; then
  echo "FAIL: well-formed flags exited $code without the range error" >&2
  cat "$WORK/err" >&2
  fail=1
fi

[ "$fail" = 0 ] && echo "dlnoded flag parsing: all cases pass"
exit "$fail"
