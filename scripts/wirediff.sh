#!/usr/bin/env bash
# Diff the wire bytes two fvtool builds answer a fixed set of lines with.
#
#   scripts/wirediff.sh <fvtool-a> <fvtool-b>
#
# Boots each binary under `--shards 2` and under `--shard-procs 2`, plays
# the same lines at it in lockstep over one raw TCP connection (requests
# answered with every response kind, exports to paths with spaces among
# them; every control verb, `migrate` with its ok and err answers — to another
# shard and back beside a twin session over the same content, so an
# install served a shared clustering is compared too; to the shard the
# session already lives on, an unknown session, an out-of-range shard,
# and a session whose PCL was rewritten on disk; a `close` of a session
# living away from its hash shard, and its name used again at once),
# plus one pipelined burst whose failing request answers the ones behind
# it `skipped` and one burst of lines the grammar refuses (wrong arity,
# unknown verbs, bad numbers, lists, targets and keywords, missing
# paths, bad session names, grids, acks and modes), keeps the boot
# banner and every reply byte, masks what legitimately
# differs between two runs
# (pids, latency buckets, balancer ticks, the address, the temp dir,
# mtimes) and ends in `diff -r`: no output and exit 0 mean the two builds
# are wire-identical on this set.
# Each backend plays a second time with `--state-dir` on a fresh
# directory, and that wire must equal the in-memory play's byte for byte
# (the banner's `recovered` line masked): durability changes no reply.
# A refactor that promises "no wire change" runs it parent against change.
set -euo pipefail

[ $# -eq 2 ] || { echo "usage: $0 <fvtool-a> <fvtool-b>" >&2; exit 2; }
WORK=$(mktemp -d)
SERVER_PID=
trap '[ -z "$SERVER_PID" ] || kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# Print the next reply frame on the open connection: `ok <n>` + n body
# lines, or one `err` line.
reply() {
  local head line n
  IFS= read -r head <&3 || { echo "wirediff: the server hung up" >&2; return 1; }
  printf '%s\n' "$head"
  [[ $head == ok\ * ]] || return 0
  for ((n = ${head#ok }; n > 0; n--)); do
    IFS= read -r line <&3
    printf '%s\n' "$line"
  done
}

# Send each line and print its reply before sending the next: in lockstep
# every request is a run of its own, so the run counters in `stats` do
# not depend on how the lines happened to be batched.
ask() {
  local line
  for line in "$@"; do
    printf '%s\n' "$line" >&3
    reply
  done
}

# Send the lines in one write, then print one reply per line: the server
# runs the requests as one pipelined run.
burst() {
  local lines n
  printf -v lines '%s\n' "$@"
  printf '%s' "$lines" >&3
  for ((n = $#; n > 0; n--)); do reply; done
}

# The shard `list-sessions` (in $1) places session $2 on.
shard_of() { sed -n "s/^  session $2 shard=\([0-9]*\).*/\1/p" <<<"$1"; }

# play <fvtool> <out-dir> <serve flag> [serve option…]
play() {
  local fv=$1 out=$2 flag=$3 data=$WORK/data addr listed home fhome w2home
  local probes=("use wd2" "session_info" "render 320 240" "use wd" "session_info" "render 320 240")
  rm -rf "$data" && mkdir -p "$out"
  "$fv" demo "$data" >/dev/null
  "$fv" serve --addr 127.0.0.1:0 "$flag" 2 "${@:4}" >"$out/banner" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*serving on \([0-9.]*:[0-9]*\).*/\1/p' "$out/banner")
    [ -z "$addr" ] || break
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "wirediff: $fv did not boot" >&2; cat "$out/banner" >&2; return 1; }
  exec 3<>"/dev/tcp/${addr%:*}/${addr#*:}"
  {
    ask "use wd" "scenario 60 7" "cluster_all" "search_select stress" "scroll 2" \
      "session_info" "use wd2" "scenario 60 7" "cluster_all" \
      "use wdfile" "load $data/gasch_stress.pcl" "list_datasets"
    # Every response kind, names and paths with spaces included.
    ask "use wdkinds" "scenario 60 7" "ontology 40 7" \
      "search stress" "search_select stress" "enrich 5 selection" \
      "spell 5 YFL021W,YGR028C,YNL054C" "impute 0 2" "normalize all zscore" \
      "cluster_arrays 0" "cluster_all" "export_selection gene_list" \
      "export_cdt 0 $data/a b" "export_pcl 0 $data/a b.pcl" "load $data/a b.pcl" \
      "render 320 240 $data/a b.ppm" "list_datasets" "session_info"
    listed=$(ask "list-sessions")
    printf '%s\n' "$listed"
    home=$(shard_of "$listed" wd)
    fhome=$(shard_of "$listed" wdfile)
    w2home=$(shard_of "$listed" wd2)
    ask "stats" "balance" \
      "migrate wd $home" "migrate wd $((1 - home))" "list-sessions" \
      "${probes[@]}" "list_datasets" \
      "migrate wd $home" "list-sessions" "${probes[@]}" \
      "migrate nobody 0" "migrate wd 9" "migrate wd" "impute 9 3" "warble"
    burst "session_info" "impute 99 3" "session_info" "session_info"
    # The same path, different bytes: no other shard may rebuild the
    # session from it any more.
    printf 'TAMPERED\t0\t0\t1.0\n' >>"$data/gasch_stress.pcl"
    ask "migrate wdfile $((1 - fhome))" "list-sessions" \
      "use wdfile" "session_info" "list_datasets" \
      "balance auto" "balance off" "balance" "close" "close wd" "list-sessions" "stats"
    ask "migrate wd2 $((1 - w2home))" "close wd2" "use wd2" "session_info" "list-sessions"
    # Refused lines, one burst: every parse-error reply byte.
    burst "select_region 0 0.5" "cluster_all now" "scenario 60" "ack 1 2" "balance auto now" \
      "warble 7" "ping x" "unsubscribe now" "use" "select_region 0 x 0.5" \
      "set_contrast all bright" "select_genes" "select_genes a,,b" "order_by_relevance 1,x" \
      "spell 5 a,,b" "spell x a,b" "spell 5" "enrich 5" "normalize seven zscore" \
      "set_contrast none 2.0" "load" "render 320" "render 320  240" "export_cdt" "export_pcl 0" \
      "set_linkage weird" "set_metric weird" "normalize 0 sideways" "export_selection weird" \
      "scroll 1.5" "impute -1 3" "use a b" "close a b" "subscribe wd" "subscribe wd 0x2" \
      "subscribe wd 4by2" "subscribe wd ax2" "ack x" "balance sideways" "migrate wd" "migrate wd x"
    ask "shutdown"
  } >"$out/wire"
  exec 3<&-
  wait "$SERVER_PID" || true
  SERVER_PID=
  sed -i -E \
    -e "s#$data#<DIR>#g" \
    -e "s#${addr%:*}:[0-9]+#<ADDR>#g" \
    -e 's/pid=[0-9]+/pid=<N>/g' \
    -e 's/lat_us=[^ ]*/lat_us=<H>/g' \
    -e 's/lat_max_us=[0-9]+/lat_max_us=<N>/g' \
    -e 's/ticks=[0-9]+/ticks=<N>/g' \
    -e 's/mtime=[^ ]*/mtime=<T>/g' \
    -e '/^fvtool: recovered [0-9]+ session/d' \
    "$out/banner" "$out/wire"
}

side=a
for fv in "$1" "$2"; do
  for backend in threads:--shards procs:--shard-procs; do
    play "$fv" "$WORK/$side/${backend%:*}" "${backend#*:}"
    rm -rf "$WORK/state"
    play "$fv" "$WORK/$side/${backend%:*}-durable" "${backend#*:}" --state-dir "$WORK/state"
    diff -r "$WORK/$side/${backend%:*}" "$WORK/$side/${backend%:*}-durable"
  done
  side=b
done
(cd "$WORK" && diff -r a b)
