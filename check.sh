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

# Field-0 audit gate (DESIGN.md §9): a "%identity" external that views a
# record as an Atomic.t reads, stores and CASes the record's field 0, so
# it is memory-safe only while field 0 is the field the view's type
# names.  The allowlist is Block.cell (a header's word) and the next_cell
# of the three list nodes, and each of their records must declare the
# viewed field first.  Any other "%identity" under lib/, a missing or
# extra view, or a reordered record fails, naming the file.
field0_view() {
  # field0_view FILE TYPE FIRST-FIELD VIEW
  views="$(grep -F '"%identity"' "$1" | sed 's/^ *//')"
  if [ "$views" != "$4" ]; then
    echo "check.sh: $1: expected exactly one \"%identity\" view: $4" >&2
    return 1
  fi
  if ! awk -v ty="$2" -v field="$3" '
    $0 ~ "^ *type " ty " = [{] *$" { getline; sub(/^ */, ""); n++; bad += ($0 != field) }
    END { exit !(n == 1 && bad == 0) }' "$1"; then
    echo "check.sh: $1: type $2 must declare '$3' as its first field" >&2
    return 1
  fi
}
field0_audit() {
  ok=0
  for f in $(grep -rlF '"%identity"' lib --include='*.ml'); do
    case $f in
      lib/alloc/block.ml | lib/ds/harris_list.ml | lib/ds/hm_list.ml | lib/ds/lazy_list.ml) ;;
      *)
        echo "check.sh: $f: \"%identity\" outside the field-0 allowlist" >&2
        ok=1
        ;;
    esac
  done
  field0_view lib/alloc/block.ml t 'mutable word : int;' \
    'external cell : t -> int Atomic.t = "%identity"' || ok=1
  for f in lib/ds/harris_list.ml lib/ds/hm_list.ml lib/ds/lazy_list.ml; do
    field0_view "$f" node 'mutable next_ : node Link.t;' \
      'external next_cell : node -> node Link.cell = "%identity"' || ok=1
  done
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
# kernel (retire, scan, pin/unpin, HP-BRCU crit enter/exit around a
# prebuilt body (brcu-crit), failed advance, disabled trace emit,
# and the traverse-walk words per traversed node of an HHSList get under
# NR, RCU, HP-RCU and HP-BRCU) must stay at zero minor-heap words per
# cycle (threshold 0.05 words/op absorbs probe calibration noise), and
# block-alloc at one 8-word header per Alloc.block (); the disabled emit
# additionally must stay single-digit ns.
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

echo "check.sh: summary"
printf '%s' "$summary"
if [ "$failed" -ne 0 ]; then
  echo "check.sh: FAILED"
  exit 1
fi
echo "check.sh: all checks passed"
