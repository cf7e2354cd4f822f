#!/bin/sh
# Pre-merge gate: build, tests, the smoke and perf gates below, and (when
# ocamlformat is available) the formatting check.  Run from the repository
# root.  Every gate runs even after an earlier one fails; the script ends
# with one table listing each gate as PASS, FAIL or SKIPPED (with the
# reason) and exits non-zero if any gate failed.
set -u

summary=""
failed=0

# record NAME RESULT — append one row to the summary table.
record() {
  summary="$summary$(printf '  %-24s %s' "$1" "$2")
"
}

# gate NAME CMD [ARGS...] — run one gate command and record its verdict.
gate() {
  name=$1
  shift
  echo "check.sh: == $name"
  if "$@"; then
    record "$name" PASS
  else
    record "$name" FAIL
    failed=1
  fi
}

# ratio_gate NAME UNARMED CMD [ARGS...] — [gate] for a domains gate whose
# ratio check arms only on >= 2 hardware threads.  The command's stdout
# goes to $out; UNARMED is a function that reads the gate's own output and
# prints the hardware-thread count when that output says the ratio check
# did not arm.  Such a pass is recorded as "PASS (ratio unarmed: N hardware
# thread)", so a one-core run never reads as a full pass.
ratio_gate() {
  name=$1
  unarmed=$2
  shift 2
  echo "check.sh: == $name"
  out="/tmp/smrbench.ci.$name.out"
  "$@" > "$out"
  rc=$?
  cat "$out"
  if [ "$rc" -ne 0 ]; then
    record "$name" FAIL
    failed=1
  else
    n="$($unarmed)"
    if [ -n "$n" ]; then
      record "$name" "PASS (ratio unarmed: $n hardware thread)"
    else
      record "$name" PASS
    fi
  fi
}

# skip NAME REASON — record a gate that cannot run here.
skip() {
  echo "check.sh: skipping $1: $2"
  record "$1" "SKIPPED ($2)"
}

gate build dune build
gate runtest dune runtest

# Examples gate: the four programs under examples/ are the quickstart and
# tours the README points to, with runtime asserts of their own; each
# prebuilt binary must exit 0 (about 5 s together).
examples() {
  for e in quickstart olap_scan kv_workload brcu_tour; do
    echo "check.sh: examples/$e.exe"
    if ! "_build/default/examples/$e.exe"; then
      echo "check.sh: examples/$e.exe failed" >&2
      return 1
    fi
  done
}
gate examples examples

# CLI usage gate: a malformed value of a choice flag, or a --repro file
# that does not exist, is a usage error (cmdliner's exit 124, listing the
# valid choices), rejected before any workload starts; a malformed repro
# or trace file is an input error (exit 1, one line naming the file and
# the bad line).  Neither is ever an uncaught exception (exit 125).
cli_usage() {
  dir="$(mktemp -d)" || return 1
  printf '# smrbench-repro v1\nscheme HP\nseed x\n' > "$dir/bad-int.repro"
  printf '# smrbench-repro v1\nscheme NOPE\nseed 1\n' > "$dir/bad-scheme.repro"
  printf 'garbage line\n' > "$dir/bad.trace"
  ok=0
  for args in "chaos --mode foo" "chaos --plan nope" "chaos --scheme NOPE" \
    "trace --ds NOPE" "hunt --strategy bogus" "hunt --scheme NOPE" \
    "bench-domains --threads 1,x" "hunt --repro $dir/missing.repro"; do
    # $args is split into words on purpose.
    _build/default/bin/smrbench.exe $args > /dev/null 2>&1
    rc=$?
    if [ "$rc" -ne 124 ]; then
      echo "check.sh: smrbench $args exited $rc, expected 124" >&2
      ok=1
    fi
  done
  for args in "hunt --repro $dir/bad-int.repro" \
    "hunt --repro $dir/bad-scheme.repro" "analyze $dir/bad.trace"; do
    _build/default/bin/smrbench.exe $args > /dev/null 2> "$dir/err"
    rc=$?
    if [ "$rc" -ne 1 ] || grep -q "internal error" "$dir/err"; then
      echo "check.sh: smrbench $args exited $rc, expected 1 with no internal error" >&2
      ok=1
    fi
  done
  rm -rf "$dir"
  return $ok
}
gate cli-usage cli_usage

# No-opaque gate (DESIGN.md §9): dune-workspace selects the release
# profile, because the dev profile compiles every library module with
# -opaque, which hides its .cmx from callers and stops cross-module
# inlining of the per-node read path.  The rule that compiles HP-BRCU
# must exist and must not carry -opaque.
no_opaque() {
  rules="$(dune rules \
    _build/default/lib/schemes/.hpbrcu_schemes.objs/native/hpbrcu_schemes__Hp_brcu.cmx)" ||
    return 1
  if ! printf '%s\n' "$rules" | grep -q 'lib/schemes/hp_brcu\.ml'; then
    echo "check.sh: no compile rule for hp_brcu.ml" >&2
    return 1
  fi
  if printf '%s\n' "$rules" | grep -q -- '-opaque'; then
    echo "check.sh: hp_brcu.ml is compiled with -opaque" >&2
    return 1
  fi
}
gate no-opaque no_opaque

# Read-inline gate (DESIGN.md §9): a per-node mediation is one inlined
# load, so in the release objects of NR, EBR and HP-BRCU the read and
# deref functions must not call Sched.yield or Sched.check_deadline out
# of line (a call to Sched.yield_slow, taken only while a hook is armed,
# is allowed).  Each module must have both functions, so a rename cannot
# pass vacuously.
read_inline() {
  objs=_build/default/lib/schemes/.hpbrcu_schemes.objs/native
  ok=0
  for m in Nr Ebr Hp_brcu; do
    o="$objs/hpbrcu_schemes__$m.o"
    if ! objdump -dr "$o" | awk -v m="$m" '
      /^[0-9a-f]+ <.*\.(read|deref)_[0-9]+>:$/ { inside = 1; found++; fn = $2; next }
      /^[0-9a-f]+ </ { inside = 0 }
      inside && /Sched[._]+(yield|check_deadline)_[0-9]+/ {
        print "check.sh: " m " " fn " calls " $NF > "/dev/stderr"; bad = 1
      }
      END {
        if (found != 2) print "check.sh: " m ": expected read and deref, found " found > "/dev/stderr"
        exit (bad || found != 2)
      }'; then
      ok=1
    fi
  done
  return $ok
}
if command -v objdump >/dev/null 2>&1; then
  gate read-inline read_inline
else
  skip read-inline "objdump not installed"
fi

# Real-core benchmark smoke gate: one short hpbench run per workload
# must give correct map answers with no failed operation (its own
# census and teardown checks included), on the inlined build.  Each run
# is capped at 300 s: run.py's own `dune build` can hang holding
# _build/.lock, and a hang must end as a FAIL, not a stuck gate.
hpbench_smoke() {
  for w in list hash tree; do
    res="$(timeout 300 python3 hpbench/run.py --workload "$w" --seed 1 --seconds 1 | tail -n 1)"
    [ -n "$res" ] || res="no output (run.py failed or hit the 300 s cap)"
    if ! printf '%s\n' "$res" | python3 -c '
import json, sys
r = json.load(sys.stdin)
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'; then
      echo "check.sh: hpbench $w: $res" >&2
      return 1
    fi
  done
}
gate hpbench-smoke hpbench_smoke

# Fiber-golden gate: fiber runs are pure functions of the seed, so the
# HP-BRCU event traces of one seed on HList, HHSList, HMList, HashMap,
# NMTree and SkipList must match the committed goldens under repros/golden/
# byte for byte.  A read-path or node-layout change that moves a yield, a
# checkpoint or a block id fails here.
fiber_golden() {
  for ds in HList HHSList HMList HashMap NMTree SkipList; do
    golden="repros/golden/trace-hp-brcu-$(printf '%s' "$ds" | tr 'A-Z' 'a-z')-seed1.txt"
    out="/tmp/smrbench.ci.golden.$ds.txt"
    dune exec bin/smrbench.exe -- trace --scheme HP-BRCU --ds "$ds" \
      --ops 50 --seed 1 > "$out" || return 1
    if ! cmp -s "$out" "$golden"; then
      echo "check.sh: trace --ds $ds differs from $golden" >&2
      return 1
    fi
  done
}
gate fiber-golden fiber_golden

# Field-0 and header-prefix audit gate (DESIGN.md §9).  A "%identity"
# external views a record as another type, so it is memory-safe only
# while the two layouts agree.  Two kinds are allowlisted.  A list node's
# next_cell views the node as an Atomic.t, whose primitives act on field
# 0: the sorted list's node (list_node.ml, shared by HList/HHSList and
# HMList) and the lazy list's must declare `mutable next_ : node Link.t;`
# first.  Every structure's blk views its node as a Block.t: the node's
# fields 1 to 7 must be Block.t's, in order, with the same names, types
# and mutability (the header-prefix rule), and Block.t's field 1 must be
# word, the field Block.cas_word CASes by index.  Any other "%identity"
# under lib/, a missing or extra view, or a reordered record fails,
# naming the file.
record_fields() {
  # record_fields FILE TYPE: the field declarations of record TYPE, one a
  # line, comments dropped
  awk -v ty="$2" '
    $0 ~ "^ *type " ty " = [{] *$" { inrec = 1; next }
    inrec && /^ *[}]/ { exit }
    inrec && /^ *(mutable +)?[a-z_][A-Za-z0-9_]* : [^;]*;/ {
      l = $0; sub(/^ */, "", l); sub(/;.*/, ";", l); print l }' "$1"
}
header_view() {
  # header_view FILE FIRST-FIELD VIEWS: FILE's node record starts with
  # FIRST-FIELD then Block.t's header, and VIEWS are its only views
  views="$(grep -F '"%identity"' "$1" | sed 's/^ *//')"
  if [ "$views" != "$3" ]; then
    echo "check.sh: $1: expected exactly these \"%identity\" views: $3" >&2
    return 1
  fi
  fields="$(record_fields "$1" node)"
  if [ "$(printf '%s\n' "$fields" | head -n 1)" != "$2" ]; then
    echo "check.sh: $1: type node must declare '$2' as its first field" >&2
    return 1
  fi
  if [ "$(printf '%s\n' "$fields" | sed -n 2,8p)" != "$header" ]; then
    echo "check.sh: $1: type node's fields 1-7 must be Block.t's:" $header >&2
    return 1
  fi
}
field0_audit() {
  ok=0
  header="$(record_fields lib/alloc/block.ml t | sed -n 2,8p)"
  if [ "$(printf '%s\n' "$header" | wc -l)" -ne 7 ] ||
    [ "$(printf '%s\n' "$header" | head -n 1)" != 'mutable word : int;' ]; then
    echo "check.sh: lib/alloc/block.ml: Block.t must declare 7 header fields" \
      "after field 0, 'mutable word : int;' first (Block.word_field = 1)" >&2
    return 1
  fi
  lists="lib/ds/list_node.ml lib/ds/lazy_list.ml"
  trees="lib/ds/skiplist.ml lib/ds/nmtree.ml lib/ds/efrb_bst.ml"
  for f in $(grep -rlF '"%identity"' lib --include='*.ml'); do
    case " $lists $trees " in
      *" $f "*) ;;
      *)
        echo "check.sh: $f: \"%identity\" outside the allowlist" >&2
        ok=1
        ;;
    esac
  done
  blk='external blk : node -> Block.t = "%identity"'
  for f in $lists; do
    header_view "$f" 'mutable next_ : node Link.t;' \
      "$(printf '%s\n%s' \
        'external next_cell : node -> node Link.cell = "%identity"' "$blk")" \
      || ok=1
  done
  header_view lib/ds/skiplist.ml 'next : node Link.cell array;' "$blk" || ok=1
  header_view lib/ds/nmtree.ml 'left : node Link.cell;' "$blk" || ok=1
  header_view lib/ds/efrb_bst.ml 'left : node Link.cell;' "$blk" || ok=1
  return $ok
}
gate field0-audit field0_audit

# Chaos smoke gate: the full scheme matrix under every fault plan, three
# seeds, with the traced determinism probes.  Exits non-zero on any
# invariant violation (non-termination, use-after-free, bound overshoot,
# missing EBR collapse, replay mismatch).  The run is a pure function of
# its seeds, so its stdout must also match the committed golden byte for
# byte: a change that moves any cell's ops, peak or fault counts fails.
chaos_fibers() {
  golden=repros/golden/chaos-quick-seeds3.txt
  out=/tmp/smrbench.ci.chaos-fibers.out
  dune exec bin/smrbench.exe -- chaos --seeds 3 --quick > "$out"
  rc=$?
  cat "$out"
  [ "$rc" -eq 0 ] || return 1
  if ! cmp -s "$out" "$golden"; then
    echo "check.sh: chaos --seeds 3 --quick differs from $golden" >&2
    return 1
  fi
}
gate chaos-fibers chaos_fibers

# Steady-state allocation gate (DESIGN.md §9): every gated reclamation
# kernel (retire under HP, HP++, HE and IBR, scan, pin/unpin, HP-BRCU crit enter/exit around a
# prebuilt body (brcu-crit), failed advance, disabled trace emit,
# and the traverse-walk words per traversed node of an HHSList get under
# NR, RCU, HP-RCU and HP-BRCU) must stay at zero minor-heap words per
# cycle (threshold 0.05 words/op absorbs probe calibration noise),
# RCU's and PEBR's retire at 1 word/op (a defer queues the block itself;
# ~0.2 and ~0.3 read, a record per defer read ~5.2; HP-RCU's and
# HP-BRCU's two-step retire, ~9.2 and ~10.9, and NBR's are reported),
# node-alloc at one node per structure's constructor call (12 words for
# HHSList and HMList, 13 for an NMTree or EFRB leaf and for a LazyList
# node, 15 for a height-1 skip-list node), and domain-create
# (one domain created, given an 8-shield session and destroyed) at
# 8192 + 512 x Counter.lanes words of either heap per cycle for HP-BRCU
# (~4.8k on 2 lanes) and 640 + 64 x Counter.lanes for RCU and IBR (~470
# and ~450 on 2 lanes; the HP row is reported, not gated), and
# traverse-get (a 128-node HHSList get's per-get constant: its live
# cursor, 4 words, plus 4 per checkpoint slot it fills) at 4 words under
# NR and RCU, 8 under HP-RCU and 12 under HP-BRCU (three cursor records
# and two closures per get read 24.9), and insert-present and
# remove-absent (an HHSList insert of a present key and remove of an
# absent one: the live cursor, plus HP-BRCU's checkpoint slot) at 4
# words under NR and 8 under HP-BRCU (a node built before the search
# and per-call closures read 48 and 35); the disabled emit additionally
# must stay single-digit ns.
gate bench-reclaim dune exec bin/smrbench.exe -- bench-reclaim --gate --quick \
  --out /tmp/BENCH_reclaim.ci.json

# Analyze smoke gate (DESIGN.md §10): trace a small fiber longrun cell,
# run the trace analyzer over it, and require non-empty time-to-reclaim
# percentiles plus a loadable Perfetto export.  An empty join here means
# the correlation ids or the trace store's fiber path broke.
analyze_smoke() {
  dune exec bin/smrbench.exe -- longrun --scheme HP-BRCU --trace-out /tmp/smrbench.ci.trace &&
  dune exec bin/smrbench.exe -- analyze --require-ttr --outdir /tmp/smrbench.ci.results \
    --perfetto /tmp/smrbench.ci.perfetto.json /tmp/smrbench.ci.trace
}
gate analyze-smoke analyze_smoke

# Shard-isolation gate (DESIGN.md §12): the payoff discriminator of the
# first-class-domain redesign, run as a pair of chaos crashed-reader
# cells.  A reader crashed inside one shard's epoch must leave the other
# shards' per-domain unreclaimed watermarks flat in the
# one-domain-per-shard build, while the identical map over a single
# shared domain balloons — the shared/isolated peak ratio must clear the
# threshold, and both builds must pass every chaos invariant (exactly
# one crash, zero UAFs, a clean census).
gate shards-fibers dune exec bin/smrbench.exe -- shards --quick

# Domains gate (DESIGN.md §14): the real-parallelism substrate.  The
# full scheme matrix runs short ops-limited cells on Domain.spawn
# workers (thread counts clamped to the hardware) — every cell must be
# UAF-free with an exact allocator census, the gated reclamation
# kernels must stay allocation-free inside a domain worker, and the
# single-domain ns/op of the stable overhead pairs must stay within
# 1.5x of the identical fiber-substrate cell (measured against a
# parked-companion baseline so both sides pay real fenced atomics).
# Scalability-ratio gates arm themselves only on >= 2 cores.
bench_domains_unarmed() {
  python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
if not d["ratio_gates_active"]:
    print(d["hardware_threads"])' /tmp/BENCH_domains.ci.json
}
ratio_gate bench-domains bench_domains_unarmed \
  dune exec bin/smrbench.exe -- bench-domains --quick --gate \
  --out /tmp/BENCH_domains.ci.json

# Flight-recorder smoke gate (DESIGN.md §15): a domains-mode chaos cell
# (HP-BRCU, stalled reader) recorded with the trace armed must produce a
# merged ns trace that the analyzer can turn into a well-formed Perfetto
# timeline with per-domain worker tracks AND the Runtime_events GC
# track, with a nonzero event count.  The census identity (merged +
# dropped = emitted) is part of the cell's own census; --require-gc-track
# makes the exporter validate the JSON it wrote.
flight_smoke() {
  dune exec bin/smrbench.exe -- chaos --mode domains --scheme HP-BRCU \
    --plan stall-reader --trace-out /tmp/smrbench.ci.flight.trace &&
  dune exec bin/smrbench.exe -- analyze --outdir /tmp/smrbench.ci.flight.results \
    --perfetto /tmp/smrbench.ci.flight.perfetto.json --require-gc-track \
    /tmp/smrbench.ci.flight.trace
}
gate flight-smoke flight_smoke

# The shard-isolation discriminator again, on real domains: the same
# fault plan crashes the victim at its 800th yield, where it parks
# pinned inside one shard's critical section (Fault.crash_park) while
# the survivors, held until it is parked, drain their budgets; the
# shared/isolated ratio must still clear the (schedule-aware)
# domain-mode threshold.  Unlike bench-domains and chaos-domains, this
# ratio check is armed on any core count, so it is a plain [gate].
gate shards-domains dune exec bin/smrbench.exe -- shards --quick --mode domains

# Stalled reader on real cores (DESIGN.md §15): reader 0 parks for
# 10 ms inside a critical section, then resumes.  Both cells must pass
# every chaos invariant: termination, zero UAFs, an exact census, the
# declared bound and no crash.  `chaos --trace-out` under --mode domains
# records the same cell's garbage-over-time curve for `analyze`.
gate chaos-stall-domains dune exec bin/smrbench.exe -- chaos --mode domains \
  --scheme RCU,HP-BRCU --plan stall-reader --seeds 1

# Chaos on real cores (DESIGN.md §16): the RCU / HP-BRCU smoke corner of
# the fault matrix on Domain.spawn workers — a crashed reader is a real
# domain parked forever inside its critical section.  Every cell must
# finish inside its wall budget with zero UAFs, an exact post-join
# census, per-scheme caps honoured, and exactly the planned number of
# crashes.  The RCU-vs-HP-BRCU crashed-reader peak-ratio discriminator
# arms itself on >= 2 hardware threads; on one core it is reported but
# not gated (never faked).
chaos_domains_unarmed() {
  sed -n 's/.*ratio gate skipped (\([0-9]*\) core).*/\1/p' "$out"
}
ratio_gate chaos-domains chaos_domains_unarmed \
  dune exec bin/smrbench.exe -- chaos --mode domains --smoke --seeds 1

# Atomics audit gate (DESIGN.md §16): the fault/chaos crash paths run on
# real domains, so their modules must not grow new top-level 'ref'
# cells — cross-domain state is Atomic.t (or single-writer arrays
# documented as such).  sched.ml keeps its fiber-internal last-run ref
# and is deliberately out of scope.
atomics_audit() {
  if grep -nE '^let [a-z_0-9]+( *: *[^=]*)? *= *ref ' \
    lib/runtime/fault.ml lib/runtime/signal.ml lib/workload/chaos.ml ; then
    echo "check.sh: top-level ref in a domains-crossed module (use Atomic.t)" >&2
    return 1
  fi
}
gate atomics-audit atomics_audit

# Hunt smoke gate (DESIGN.md §11): the mutation test for the checker
# itself.  Both planted mutants (HP-BRCU!nomask, HP-BRCU!nodb) must be
# convicted within the budget — each by whichever of the rand/pct
# strategies suits its bug shape — shrunk, and their repros replayed
# byte-identically; the same budget over every real scheme must stay
# silent.
gate hunt-smoke dune exec bin/smrbench.exe -- hunt --smoke --seed 1

if command -v ocamlformat >/dev/null 2>&1; then
  gate fmt dune build @fmt
else
  skip fmt "ocamlformat not installed"
fi

# Non-blank lines of the .ml and .mli files under each directory: a
# recorded figure, not a gate.
nonblank() {
  find "$1" \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + |
    grep -cv '^[[:space:]]*$'
}
record lines "lib $(nonblank lib), bin $(nonblank bin), lib/ds $(nonblank lib/ds)"

echo "check.sh: summary"
printf '%s' "$summary"
if [ "$failed" -ne 0 ]; then
  echo "check.sh: FAILED"
  exit 1
fi
echo "check.sh: all checks passed"
