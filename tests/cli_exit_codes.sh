#!/bin/sh
# red_cli exit-code contract: every subcommand rejects a bad flag value with
# the documented code — ConfigError = 4, MismatchError = 5, IoError = 6,
# interrupted = 7, usage = 1, other failures (contract violations) = 2 — and
# prints a one-line diagnostic on stderr. Driven by ctest:
# cli_exit_codes.sh <red_cli> <scratch-dir>.
set -u

CLI="$1"
SCRATCH="${2:-.}"
FAILED=0

# expect <code> <args...> — run the CLI, compare the exit code, demand a
# non-empty one-line stderr diagnostic for every failing invocation.
expect() {
  want="$1"
  shift
  err="$("$CLI" "$@" 2>&1 >/dev/null)"
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: red_cli $* -> exit $got, want $want" >&2
    FAILED=1
  elif [ "$want" -ge 2 ] && [ -z "$err" ]; then
    # Usage errors (1) print help on stdout; every real failure must leave a
    # diagnostic on stderr.
    echo "FAIL: red_cli $* -> exit $got but no stderr diagnostic" >&2
    FAILED=1
  fi
}

# Usage errors: no command / unknown command.
expect 1
expect 1 no-such-command

# ConfigError (4): every subcommand with a bad flag value.
expect 4 layer --layer bogus_layer_name
expect 4 compare --layer bogus_layer_name
expect 4 network --net bogus_net
expect 4 throughput --images 0
expect 4 sweep --folds 1,notanumber
expect 4 optimize --net bogus_net
expect 4 optimize --spare-lines 0,notanumber
expect 4 optimize --shard notaspec
expect 4 optimize --shard 2/2
expect 4 optimize --strategy anneal --shard 0/2
expect 4 merge-checkpoints
expect 4 verify --layer bogus_layer_name
expect 4 trace --layer bogus_layer_name
expect 4 export --format bogus
expect 4 faults --rates 0,2
expect 4 faults --trials 0
# Padding-free has no programmed layer to hold a fault mask.
expect 4 faults --design pf

expect 4 conv --ih 0
expect 4 layer --ih notanumber

# IoError (6): the flags are fine, the filesystem is not — distinct from 4
# so wrappers can tell "fix your invocation" from "fix your disk".
expect 6 plan --out /nonexistent-dir/plan.json
expect 6 optimize --folds 1 --muxes 8 --store /nonexistent-dir/store.bin
expect 6 optimize --folds 1 --muxes 8 --checkpoint /nonexistent-dir/ckpt.json

# Contract violations (library invariants, not flag values) keep the generic
# code 2: each stuck-at rate is a legal [0,1] value but their sum is not.
expect 2 faults --sa0 0.6 --sa1 0.6

# MismatchError (5): a tampered optimizer checkpoint must be refused, not
# silently re-searched. First produce a real checkpoint, then corrupt its
# fingerprint and resume.
CKPT="$SCRATCH/cli_exit_codes_ckpt.json"
rm -f "$CKPT"
"$CLI" optimize --folds 1 --muxes 8 --checkpoint "$CKPT" >/dev/null 2>&1
if [ ! -f "$CKPT" ]; then
  echo "FAIL: optimize --checkpoint did not write $CKPT" >&2
  FAILED=1
else
  sed 's/"fingerprint": "[0-9a-f]*"/"fingerprint": "0000000000000000"/' \
      "$CKPT" > "$CKPT.tampered" && mv "$CKPT.tampered" "$CKPT"
  expect 5 optimize --folds 1 --muxes 8 --checkpoint "$CKPT"
  rm -f "$CKPT"
fi

# Interrupted (7): a --timeout that expires before the first batch stops the
# search at the boundary, writes a (valid, resumable) checkpoint, and exits
# with the distinct "rerun me to continue" code.
TCKPT="$SCRATCH/cli_exit_codes_timeout.json"
rm -f "$TCKPT"
"$CLI" optimize --folds 1,2,4,8 --muxes 4,8,16 --timeout 0.000001 \
    --checkpoint "$TCKPT" >/dev/null 2>&1
got=$?
if [ "$got" -ne 7 ]; then
  echo "FAIL: optimize --timeout -> exit $got, want 7" >&2
  FAILED=1
elif [ ! -f "$TCKPT" ]; then
  echo "FAIL: interrupted optimize did not write its checkpoint" >&2
  FAILED=1
else
  expect 0 optimize --folds 1,2,4,8 --muxes 4,8,16 --checkpoint "$TCKPT"
fi
rm -f "$TCKPT"

# Sanity: a good invocation still exits 0.
expect 0 layer --ih 4 --c 4 --m 4

if [ "$FAILED" -ne 0 ]; then
  echo "cli_exit_codes: FAILED" >&2
  exit 1
fi
echo "cli_exit_codes: all exit codes as documented"
exit 0
