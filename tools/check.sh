#!/bin/sh
# Tier-1 gate: build, run the unit tests, then require the tcore32
# generator to come out of the lint registry with no errors, the
# abstract interpreter to analyse the SBST suite cleanly (including
# the cross-check against the memory map), and the software-aware and
# invariant-aware lint passes to stay error-free on every core.
#
# Each gate is timed so slow ones are visible: `gate <name> <cmd...>`
# prints the wall seconds after the command finishes (and still fails
# the whole script on a non-zero exit, via set -e).
set -e
cd "$(dirname "$0")/.."

gate() {
  _name="$1"; shift
  _t0=$(date +%s)
  "$@"
  echo "[gate ${_name}: $(( $(date +%s) - _t0 )) s]"
}

# Source lint: cheap grep-level hygiene over lib/ before anything is
# built.  Three classes, each waivable by putting the token
# `source-lint-ok` in a comment on the same line:
#   - Obj.magic in any lib/ implementation (type-safety escape hatch);
#   - polymorphic Stdlib.compare / Stdlib.(=) spelled out in the hot
#     engine paths (fsim/atpg/safety/invar/slice) where a monomorphic
#     compare belongs (bare `compare` is fine — that is usually the
#     module's own);
#   - leftover Printf.printf debugging in lib/ (libraries report
#     through Format/Fmt or return data; Printf.sprintf and
#     Format.printf are not matched).
source_lint() {
  _fail=0
  _hits=$(grep -rn 'Obj\.magic' lib --include='*.ml' \
    | grep -v 'source-lint-ok' || true)
  if [ -n "$_hits" ]; then
    echo "source-lint: Obj.magic in lib/:"; echo "$_hits"; _fail=1
  fi
  _hits=$(grep -rn 'Stdlib\.compare\|Stdlib\.( *= *)' \
    lib/fsim lib/atpg lib/safety lib/invar lib/slice --include='*.ml' \
    | grep -v 'source-lint-ok' || true)
  if [ -n "$_hits" ]; then
    echo "source-lint: polymorphic Stdlib compare/= in hot paths:"
    echo "$_hits"; _fail=1
  fi
  _hits=$(grep -rn 'Printf\.printf' lib --include='*.ml' \
    | grep -v 'source-lint-ok' || true)
  if [ -n "$_hits" ]; then
    echo "source-lint: Printf.printf left in lib/:"; echo "$_hits"; _fail=1
  fi
  return $_fail
}
gate source-lint source_lint

gate build dune build
gate runtest dune runtest

# Verdict-identity gate: the facts benchmark/expect.json pins (coverage,
# invariant, safety, slice and analyze verdicts per core), recomputed by
# the code as it is now, must match byte for byte.  A verdict drift then
# fails here without running the timed benchmark.
gate pins sh -c "dune exec --root . --display quiet benchmark/olfu_bench.exe \
  -- pins | cmp - benchmark/expect.json"

gate absint dune exec bin/olfu_cli.exe -- absint -c tcore32 --suite

for core in tcore32 tcore32_dft tcore16; do
  gate "lint-$core" dune exec bin/olfu_cli.exe -- lint -c "$core" --fail-on error
  gate "lint-sw-$core" dune exec bin/olfu_cli.exe -- lint -c "$core" --software --fail-on error
  gate "lint-inv-$core" dune exec bin/olfu_cli.exe -- lint -c "$core" --invariants --fail-on error
done

# Lint-cost gate: the registry's finding codes on every core must match
# their pins; records the best-of-five Lint.run and Scoap.run seconds and
# allocated MB per core; refreshes BENCH_lint.json.
gate lint-bench dune exec bench/main.exe -- lint

OBS_TMP=$(mktemp -d)
trap 'rm -rf "$OBS_TMP"' EXIT

# Bad-input gate: a malformed netlist (an unknown cell) given to each
# subcommand that reads a Verilog file must exit 2 with one
# `olfu <cmd>: <message>` line on stderr that names the file, never an
# uncaught exception.
# It runs before the slow bench gates so a noisy one cannot hide it.
bad_input() {
  printf 'module bad (a, o);\n  input a; output o;\n  FOO u1 (.Y(o), .A(a));\nendmodule\n' \
    > "$OBS_TMP/bad.v"
  for _cmd in "analyze -f" "tdf -f" "categories -f" "trace-scan -f" \
    "equiv $OBS_TMP/bad.v"; do
    _sub=${_cmd%% *}
    _rc=0
    # word splitting of $_cmd is intended: a subcommand and its flag
    _build/default/bin/olfu_cli.exe $_cmd "$OBS_TMP/bad.v" \
      > /dev/null 2> "$OBS_TMP/bad.err" || _rc=$?
    [ "$_rc" -eq 2 ] || {
      echo "bad-input: $_sub exit $_rc, want 2"; cat "$OBS_TMP/bad.err"; return 1; }
    if grep -q 'uncaught exception' "$OBS_TMP/bad.err" \
      || [ "$(wc -l < "$OBS_TMP/bad.err")" -ne 1 ] \
      || ! grep -q "^olfu $_sub: " "$OBS_TMP/bad.err" \
      || ! grep -qF "$OBS_TMP/bad.v" "$OBS_TMP/bad.err"; then
      echo "bad-input: $_sub stderr is not one 'olfu $_sub:' line naming the file:"
      cat "$OBS_TMP/bad.err"; return 1
    fi
  done
}
gate bad-input bad_input

# Fault-simulation smoke gate: the cone-limited engine at --jobs 2 must
# reproduce the sequential full-settle statuses exactly on tcore32, its
# seconds must not grow across jobs 1 -> 2 -> 4 (tolerance 1.10), and a
# recording sink's cost, bounded by the jobs-1 run's counted trace events
# times the dearest event kind's measured cost, must stay under 2% of
# that run; the bench exits non-zero on any and refreshes BENCH_fsim.json.
gate fsim dune exec bench/main.exe -- fsim

# Implication-engine gate: the flow with the conflict engine must classify
# strictly more faults than UT+UB alone, stay jobs-invariant and monotone,
# survive the BMC oracle spot-check, and not slow down across jobs
# 1 -> 2 -> 4 (tolerance 1.10); refreshes BENCH_implic.json.
gate implic dune exec bench/main.exe -- implic

# Observability gate: the analyze flow must emit a schema-valid run
# manifest and a Chrome-loadable trace, with per-engine and per-step
# seconds each summing to within 5% of the recorded wall time, counters
# identical across --jobs 1/2/4, and the same counted sink bound as the
# fsim gate on the jobs-1 flow; refreshes BENCH_obs.json.
gate analyze-obs sh -c "dune exec bin/olfu_cli.exe -- analyze -c tcore32 \
  --trace '$OBS_TMP/trace.json' --manifest '$OBS_TMP/manifest.json' \
  > /dev/null"
gate obs dune exec bench/main.exe -- obs "$OBS_TMP/manifest.json" "$OBS_TMP/trace.json"

# Safety-taxonomy gate: the classifier must stay consistent on every
# core (partition, untouched structural/conflict populations), prove
# software-safe faults and unmasked flops on tcore32, stay jobs-invariant,
# and survive the BMC + replay oracles; refreshes BENCH_safety.json.
gate safety dune exec bench/main.exe -- safety

# Invariant-engine gate: mine/filter/prove must stay jobs-invariant
# (unique greatest inductive subset), prove a non-constant class on
# tcore32, survive the bounded reachability oracle, and close >= 1
# conflict fault the plain analysis leaves open (UC-delta); refreshes
# BENCH_invar.json.
gate invar dune exec bench/main.exe -- invar

# Slicing gate: the constant-severed cone-of-influence engine must
# reproduce each core's pinned graph (s/h/m edge counts, mission SCC
# count, the three slice-size distributions), keep the invariant proved
# set bit-identical to the full machine on tcore16 and shrink the mean
# slice against the structural cone, and the every-flop window-3 SEU
# sweeps of tcore16 and tcore32 must reproduce their pinned verdict
# counts; refreshes BENCH_slice.json.
gate slice dune exec bench/main.exe -- slice

# Send request $1 to the daemon twice, into $OBS_TMP/$2-cold.raw and
# $2-warm.raw: the first must miss the cache, the repeat must hit it
# with the same bytes, envelope aside.  The wall clocks before, between
# and after the two calls are left in _w0, _w1 and _w2 (`gate` keeps
# its own integer start time in _t0).
cold_warm() {
  _w0=$(date +%s.%N 2>/dev/null || date +%s)
  "$_CLI" client --socket "$_sock" --raw "$1" > "$OBS_TMP/$2-cold.raw"
  _w1=$(date +%s.%N 2>/dev/null || date +%s)
  "$_CLI" client --socket "$_sock" --raw "$1" > "$OBS_TMP/$2-warm.raw"
  _w2=$(date +%s.%N 2>/dev/null || date +%s)

  grep -q '"cache_hit":false' "$OBS_TMP/$2-cold.raw" || {
    echo "serve: cold $2 request unexpectedly hit the cache"; return 1; }
  grep -q '"cache_hit":true' "$OBS_TMP/$2-warm.raw" || {
    echo "serve: warm $2 repeat was not a cache hit"; return 1; }

  # identity modulo the envelope: neutralize the wall-clock and
  # cache-hit fields of the raw one-line responses before comparing —
  # everything else, including the full rendered output, must match
  _strip='s/"seconds":[0-9.eE+-]*/"seconds":0/; s/"cache_hit":[a-z]*/"cache_hit":x/'
  sed "$_strip" "$OBS_TMP/$2-cold.raw" > "$OBS_TMP/$2-cold.strip"
  sed "$_strip" "$OBS_TMP/$2-warm.raw" > "$OBS_TMP/$2-warm.strip"
  cmp -s "$OBS_TMP/$2-cold.strip" "$OBS_TMP/$2-warm.strip" || {
    echo "serve: warm $2 bytes differ from cold bytes"; return 1; }
}

# Daemon gate, the only one: it drives the real binary.  Start
# `olfu serve` in the background, then require
#   - a warm repeat of the same analyze request to be a cache hit,
#   - in < 0.5x the cold wall time,
#   - with the same bytes as the cold response (envelope aside),
#   - analyze and lint (text and JSON) through the daemon to match the
#     one-shot CLI,
#   - a warm repeat of a lint JSON request to be a cache hit with the
#     cold response's bytes (envelope aside),
#   - an engine exception to be answered with status 2, and the same
#     connection to answer a ping after it,
#   - a clean shutdown (the daemon exits 0 and removes its socket).
# Warm-request throughput is measured by benchmark/ (daemon_warm).
serve_gate() {
  # the build gate has already run: use the binary directly so the
  # backgrounded daemon and the clients never race dune's build lock
  _CLI=_build/default/bin/olfu_cli.exe
  _sock="$OBS_TMP/olfu.sock"
  "$_CLI" serve --socket "$_sock" --workers 2 \
    > "$OBS_TMP/serve.log" 2>&1 &
  _srv=$!
  "$_CLI" client --socket "$_sock" --wait 10 --ping \
    > /dev/null

  _req='{"op": "analyze", "target": {"config": "tcore32"}, "jobs": 2, "format": "json"}'
  cold_warm "$_req" analyze
  "$_CLI" analyze -c tcore32 -j 2 --format json \
    --connect "$_sock" > "$OBS_TMP/daemon.json"
  "$_CLI" analyze -c tcore32 -j 2 --format json \
    > "$OBS_TMP/oneshot.json"
  cmp -s "$OBS_TMP/daemon.json" "$OBS_TMP/oneshot.json" || {
    echo "serve: daemon and one-shot CLI output differ"; return 1; }

  # the warm round-trip must beat half the cold wall time (the cold
  # request carries generate + flow; sub-second timers only on busybox
  # date fall back to whole seconds, where 0 < 0.5*cold still holds)
  awk -v c="$_w1" -v a="$_w0" -v w="$_w2" '
    BEGIN {
      cold = c - a; warm = w - c
      if (cold > 0 && warm >= 0.5 * cold) {
        printf "serve: warm %.3fs not < 0.5x cold %.3fs\n", warm, cold
        exit 1
      }
    }' || return 1

  "$_CLI" lint -c tcore16 --connect "$_sock" \
    > "$OBS_TMP/lint-daemon.txt"
  "$_CLI" lint -c tcore16 \
    > "$OBS_TMP/lint-oneshot.txt"
  cmp -s "$OBS_TMP/lint-daemon.txt" "$OBS_TMP/lint-oneshot.txt" || {
    echo "serve: daemon and one-shot lint output differ"; return 1; }
  "$_CLI" lint -c tcore16 --format json --connect "$_sock" \
    > "$OBS_TMP/lint-daemon.json"
  "$_CLI" lint -c tcore16 --format json \
    > "$OBS_TMP/lint-oneshot.json"
  cmp -s "$OBS_TMP/lint-daemon.json" "$OBS_TMP/lint-oneshot.json" || {
    echo "serve: daemon and one-shot lint JSON differ"; return 1; }

  # the SARIF answer, the largest a warm daemon serves
  cold_warm '{"op": "lint", "target": {"config": "tcore32"}, "format": "json"}' lint

  # invar on a netlist whose scan_en is a wire raises inside the engine
  # (the on-line machine cannot tie it); the daemon must answer it and
  # keep the connection (a hang shows as timeout's exit 124)
  cat > "$OBS_TMP/scanwire.v" <<'VERILOG'
module scanwire (a, b, o);
  input a; input b; output o; wire scan_en;
  AND2 u1 (.Y(scan_en), .A(a), .B(b));
  BUF u2 (.Y(o), .A(scan_en));
endmodule
VERILOG
  _rc=0
  timeout 60 "$_CLI" client --socket "$_sock" --raw \
    "{\"op\":\"invar\",\"target\":{\"file\":\"$OBS_TMP/scanwire.v\"}}" \
    '{"op":"ping"}' \
    > "$OBS_TMP/exc.raw" || _rc=$?
  [ "$_rc" -eq 2 ] || {
    echo "serve: engine exception: client exit $_rc, want 2"; return 1; }
  sed -n 1p "$OBS_TMP/exc.raw" | grep -q '"status":2' || {
    echo "serve: engine exception not answered with status 2"; return 1; }
  sed -n 1p "$OBS_TMP/exc.raw" | grep -q '"error":"internal error: ' || {
    echo "serve: engine exception not an internal error"; return 1; }
  sed -n 2p "$OBS_TMP/exc.raw" | grep -q '"output":"pong\\n"' || {
    echo "serve: no ping answer after the engine exception"; return 1; }

  "$_CLI" client --socket "$_sock" --shutdown \
    > /dev/null
  wait $_srv || { echo "serve: daemon exited non-zero"; return 1; }
  [ ! -S "$_sock" ] || { echo "serve: socket left behind"; return 1; }
}
gate serve serve_gate

# Tracked size, informational (no threshold): source lines of
# lib/ + bin/ + bench/.
echo "[lines lib+bin+bench (.ml/.mli): $(find lib bin bench \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l)]"

# Uncalled exports, informational (no threshold): `val`s in a lib/
# interface whose name no file outside that module mentions in code,
# searching lib/, bin/, bench/, benchmark/, examples/ and test/.
# `code_words` blanks out nested (* *) comments, "..." strings and
# {id|...|id} quoted strings (inside comments too, as OCaml lexes them;
# a char literal such as '"' opens nothing), then prints
# `W <file without extension> <word>` for each word left.
code_words() {
  find lib bin bench benchmark examples test -name '*.ml' -o -name '*.mli' \
    | LC_ALL=C xargs awk '
    FNR == 1 { st = "code"; depth = 0; mod = FILENAME; sub(/\.mli?$/, "", mod) }
    {
      n = length($0); out = ""; i = 1
      while (i <= n) {
        c = substr($0, i, 1); w = 1  # w: the characters consumed
        if (st == "str") {
          if (c == "\\") w = 2
          else if (c == "\"") st = ret
        } else if (st == "quoted") {
          if (substr($0, i, qlen) == qend) { st = ret; w = qlen }
        } else if (substr($0, i, 2) == "(*") { depth++; st = "comment"; w = 2 }
        else if (st == "comment" && substr($0, i, 2) == "*)") {
          if (--depth == 0) st = "code"
          w = 2
        } else if (c == "\"") { ret = st; st = "str" }
        else if (c == "{" && match(substr($0, i), /^\{[a-z_]*\|/)) {
          ret = st; st = "quoted"; w = RLENGTH
          qend = "|" substr($0, i + 1, RLENGTH - 2) "}"; qlen = length(qend)
        }
        # char literals: an escape up to its closing quote, or one character
        else if (c == "\047" && substr($0, i + 1, 1) == "\\" \
                 && (j = index(substr($0, i + 3), "\047")) > 0) w = 3 + j
        else if (c == "\047" && substr($0, i + 2, 1) == "\047") w = 3
        else if (st == "code") { out = out c; i++; continue }
        out = out " "; i += w
      }
      while (match(out, /[A-Za-z0-9_\047]+/)) {
        w = substr(out, RSTART, RLENGTH)
        if (w ~ /^[A-Za-z_]/) print "W", mod, w
        out = substr(out, RSTART + RLENGTH)
      }
    }'
}
uncalled_exports() {
  {
    find lib -name '*.mli' -exec grep -H '^ *val ' {} + \
      | sed -n "s/^\(.*\)\.mli: *val \([a-z_][A-Za-z0-9_']*\).*/V \1 \2/p"
    code_words | sort -u
  } | awk '
    $1 == "V" { vmod[++nv] = $2; vname[nv] = $3; next }
    # word -> the one module naming it, or "*" once two modules do
    !($3 in by) { by[$3] = $2; next }
    by[$3] != $2 { by[$3] = "*" }
    END {
      for (i = 1; i <= nv; i++)
        if (!(vname[i] in by) || by[vname[i]] == vmod[i]) n++
      print n + 0
    }'
}
echo "[uncalled exports in lib/ interfaces: $(uncalled_exports)]"
