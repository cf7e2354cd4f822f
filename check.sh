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

# Real-core benchmark smoke gate: one short hpbench run per workload
# must give correct map answers with no failed operation (its own
# census and teardown checks included), on the inlined build.
hpbench_smoke() {
  for w in list hash tree; do
    res="$(python3 hpbench/run.py --workload "$w" --seed 1 --seconds 1 | tail -n 1)"
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
# HP-BRCU event traces of one seed on HHSList and NMTree must match the
# committed goldens under repros/golden/ byte for byte.  A read-path
# change that moves a yield, a checkpoint or a block id fails here.
fiber_golden() {
  for ds in HHSList NMTree; do
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

# Chaos smoke gate: the full scheme matrix under every fault plan, three
# seeds, with the traced determinism probes.  Exits non-zero on any
# invariant violation (non-termination, use-after-free, bound overshoot,
# missing EBR collapse, replay mismatch).
gate chaos-fibers dune exec bin/smrbench.exe -- chaos --seeds 3 --quick

# Steady-state allocation gate (DESIGN.md §9): every gated reclamation
# kernel (retire, scan, pin/unpin, failed advance, disabled trace emit,
# and the traverse-walk words per traversed node of an HHSList get under
# NR, RCU, HP-RCU and HP-BRCU) must stay at zero minor-heap words per
# cycle (threshold 0.05 words/op absorbs probe calibration noise), and
# block-alloc at one 8-word header per Alloc.block (); the disabled emit
# additionally must stay single-digit ns.
gate bench-reclaim dune exec bin/smrbench.exe -- bench-reclaim --gate --quick \
  --out /tmp/BENCH_reclaim.ci.json

# Analyze smoke gate (DESIGN.md §10): spool a small traced longrun cell,
# run the trace analyzer over it, and require non-empty time-to-reclaim
# percentiles plus a loadable Perfetto export.  An empty join here means
# the correlation ids or the spool sink broke.
analyze_smoke() {
  dune exec bin/smrbench.exe -- longrun --scheme HP-BRCU --trace-out /tmp/smrbench.ci.trace &&
  dune exec bin/smrbench.exe -- analyze --require-ttr --outdir /tmp/smrbench.ci.results \
    --perfetto /tmp/smrbench.ci.perfetto.json /tmp/smrbench.ci.trace
}
gate analyze-smoke analyze_smoke

# Shard-isolation gate (DESIGN.md §12): the payoff discriminator of the
# first-class-domain redesign.  A reader crashed inside shard 0's epoch
# must leave the other shards' per-domain unreclaimed watermarks flat in
# the one-domain-per-shard build, while the identical map over a single
# shared domain balloons — the shared/isolated peak ratio must clear the
# threshold, with exactly one crash and zero UAFs in both builds.
gate shards-fibers dune exec bin/smrbench.exe -- shards --quick

# Self-healing gate (DESIGN.md §13): the KV service under a reader
# crashed mid-section.  With the watchdog on, the escalation ladder
# (nudge -> re-signal -> quarantine -> domain recycle) must keep the
# peak retired-but-unreclaimed watermark within the budget with at least
# one recycle in the trace; with it off, the same seed's peak must
# exceed the supervised peak by >= 5x; both runs must be UAF-free and
# the supervised run must replay byte-identically.
gate serve-compare dune exec bin/smrbench.exe -- serve --scheme RCU \
  --faults crash-reader --compare --quick

# Domains gate (DESIGN.md §14): the real-parallelism substrate.  The
# full scheme matrix runs short ops-limited cells on Domain.spawn
# workers (thread counts clamped to the hardware) — every cell must be
# UAF-free with an exact allocator census, the gated reclamation
# kernels must stay allocation-free inside a domain worker, and the
# single-domain ns/op of the stable overhead pairs must stay within
# 1.5x of the identical fiber-substrate cell (measured against a
# parked-companion baseline so both sides pay real fenced atomics).
# Scalability-ratio gates arm themselves only on >= 2 cores.
gate bench-domains dune exec bin/smrbench.exe -- bench-domains --quick --gate \
  --out /tmp/BENCH_domains.ci.json

# Flight-recorder smoke gate (DESIGN.md §15): a domains-mode service
# run with the trace armed must produce a merged ns trace that the
# analyzer can turn into a well-formed Perfetto timeline with per-domain
# worker tracks AND the Runtime_events GC track, with a nonzero event
# count.  The census identity (merged + dropped = emitted) is asserted
# inside the run itself; --require-gc-track makes the exporter validate
# the JSON it wrote.
flight_smoke() {
  dune exec bin/smrbench.exe -- serve --mode domains --quick \
    --trace-out /tmp/smrbench.ci.flight.trace &&
  dune exec bin/smrbench.exe -- analyze --outdir /tmp/smrbench.ci.flight.results \
    --perfetto /tmp/smrbench.ci.flight.perfetto.json --require-gc-track \
    /tmp/smrbench.ci.flight.trace
}
gate flight-smoke flight_smoke

# The shard-isolation discriminator again, on real domains: the same
# fault plan crashes the victim at its crash_at-th yield, where it parks
# pinned inside shard 0's critical section (Fault.crash_park) while the
# survivors, held until it is parked, drain their budgets; the
# shared/isolated ratio must still clear the (schedule-aware)
# domain-mode threshold.
gate shards-domains dune exec bin/smrbench.exe -- shards --quick --mode domains

# Live-sampling smoke gate (DESIGN.md §15): a short balloon/heal run of
# the long-running-read body on real domains with the observer sampling
# it; the exit status is the run's use-after-free verdict.
gate sample dune exec bin/smrbench.exe -- sample --duration 0.3 \
  --stall-at 0.1 --heal-at 0.2 --out /tmp/smrbench.ci.sample.csv

# Chaos on real cores (DESIGN.md §16): the RCU / HP-BRCU smoke corner of
# the fault matrix on Domain.spawn workers — a crashed reader is a real
# domain parked forever inside its critical section.  Every cell must
# finish inside its wall budget with zero UAFs, an exact post-join
# census, per-scheme caps honoured, and exactly the planned number of
# crashes.  The RCU-vs-HP-BRCU crashed-reader peak-ratio discriminator
# arms itself on >= 2 hardware threads; on one core it is reported but
# not gated (never faked).
gate chaos-domains dune exec bin/smrbench.exe -- chaos --mode domains --smoke --seeds 1

# Self-healing on real cores (DESIGN.md §16): the watchdog payoff cell
# on the Domains backend.  The gate needs real parallelism for the
# off-run to balloon convincingly (the full request budget, not --quick:
# the post-crash window must dominate), so it runs only on >= 2 cores —
# skipped, not faked, on one.
cores="$( (nproc || getconf _NPROCESSORS_ONLN) 2>/dev/null | head -n1 )"
if [ "${cores:-1}" -ge 2 ]; then
  gate serve-compare-domains dune exec bin/smrbench.exe -- serve --mode domains \
    --scheme RCU --faults crash-reader --compare
else
  skip serve-compare-domains "1 hardware thread"
fi

# Atomics audit gate (DESIGN.md §16): the fault/watchdog/chaos/service
# crash paths run on real domains now, so their modules must not grow
# new top-level 'ref' cells — cross-domain state is Atomic.t (or
# single-writer arrays documented as such).  sched.ml keeps its
# fiber-internal profiling refs and is deliberately out of scope.
atomics_audit() {
  if grep -nE '^let [a-z_0-9]+( *: *[^=]*)? *= *ref ' \
    lib/runtime/fault.ml lib/runtime/signal.ml lib/runtime/watchdog.ml \
    lib/workload/chaos.ml lib/workload/kvservice.ml ; then
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
