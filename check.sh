#!/bin/sh
# Pre-merge gate: build, tests, and (when ocamlformat is available) the
# formatting check.  Run from the repository root.
set -eu

dune build
dune runtest

# Chaos smoke gate: the full scheme matrix under every fault plan, three
# seeds, with the traced determinism probes.  Exits non-zero on any
# invariant violation (non-termination, use-after-free, bound overshoot,
# missing EBR collapse, replay mismatch).
dune exec bin/smrbench.exe -- chaos --seeds 3 --quick

# Steady-state allocation gate (DESIGN.md §9): every gated reclamation
# kernel (retire, scan, pin/unpin, failed advance, disabled trace emit)
# must stay at zero minor-heap words per cycle (threshold 0.05 words/op
# absorbs probe calibration noise); the disabled emit additionally must
# stay single-digit ns.
dune exec bin/smrbench.exe -- bench-reclaim --gate --quick --out /tmp/BENCH_reclaim.ci.json

# Analyze smoke gate (DESIGN.md §10): spool a small traced longrun cell,
# run the trace analyzer over it, and require non-empty time-to-reclaim
# percentiles plus a loadable Perfetto export.  An empty join here means
# the correlation ids or the spool sink broke.
dune exec bin/smrbench.exe -- longrun --scheme HP-BRCU --trace-out /tmp/smrbench.ci.trace
dune exec bin/smrbench.exe -- analyze --require-ttr --outdir /tmp/smrbench.ci.results \
  --perfetto /tmp/smrbench.ci.perfetto.json /tmp/smrbench.ci.trace

# Shard-isolation gate (DESIGN.md §12): the payoff discriminator of the
# first-class-domain redesign.  A reader crashed inside shard 0's epoch
# must leave the other shards' per-domain unreclaimed watermarks flat in
# the one-domain-per-shard build, while the identical map over a single
# shared domain balloons — the shared/isolated peak ratio must clear the
# threshold, with exactly one crash and zero UAFs in both builds.
dune exec bin/smrbench.exe -- shards --quick --gate

# Self-healing gate (DESIGN.md §13): the KV service under a reader
# crashed mid-section.  With the watchdog on, the escalation ladder
# (nudge -> re-signal -> quarantine -> domain recycle) must keep the
# peak retired-but-unreclaimed watermark within the budget with at least
# one recycle in the trace; with it off, the same seed's peak must
# exceed the supervised peak by >= 5x; both runs must be UAF-free and
# the supervised run must replay byte-identically.
dune exec bin/smrbench.exe -- serve --scheme RCU --faults crash-reader --compare --quick

# Domains gate (DESIGN.md §14): the real-parallelism substrate.  The
# full scheme matrix runs short ops-limited cells on Domain.spawn
# workers (thread counts clamped to the hardware) — every cell must be
# UAF-free with an exact allocator census, the gated reclamation
# kernels must stay allocation-free inside a domain worker, and the
# single-domain ns/op of the stable overhead pairs must stay within
# 1.5x of the identical fiber-substrate cell (measured against a
# parked-companion baseline so both sides pay real fenced atomics).
# Scalability-ratio gates arm themselves only on >= 2 cores.
dune exec bin/smrbench.exe -- bench-domains --quick --gate --out /tmp/BENCH_domains.ci.json

# Flight-recorder smoke gate (DESIGN.md §15): a domains-mode service
# run with the trace armed must produce a merged ns trace that the
# analyzer can turn into a well-formed Perfetto timeline with per-domain
# worker tracks AND the Runtime_events GC track, with a nonzero event
# count.  The census identity (merged + dropped = emitted) is asserted
# inside the run itself; --require-gc-track makes the exporter validate
# the JSON it wrote.
dune exec bin/smrbench.exe -- serve --mode domains --quick --trace-out /tmp/smrbench.ci.flight.trace
dune exec bin/smrbench.exe -- analyze --outdir /tmp/smrbench.ci.flight.results \
  --perfetto /tmp/smrbench.ci.flight.perfetto.json --require-gc-track \
  /tmp/smrbench.ci.flight.trace

# The shard-isolation discriminator again, on real domains: the victim
# emulates the crash by parking pinned inside shard 0's critical
# section while the writers drain, and the shared/isolated ratio must
# still clear the (schedule-aware) domain-mode threshold.
dune exec bin/smrbench.exe -- shards --quick --gate --mode domains

# Chaos on real cores (DESIGN.md §16): the RCU / HP-BRCU smoke corner of
# the fault matrix on Domain.spawn workers — a crashed reader is a real
# domain parked forever inside its critical section.  Every cell must
# finish inside its wall budget with zero UAFs, an exact post-join
# census, per-scheme caps honoured, and exactly the planned number of
# crashes.  The RCU-vs-HP-BRCU crashed-reader peak-ratio discriminator
# arms itself on >= 2 hardware threads; on one core it is reported but
# not gated (never faked).
dune exec bin/smrbench.exe -- chaos --mode domains --smoke --seeds 1

# Self-healing on real cores (DESIGN.md §16): the watchdog payoff cell
# on the Domains backend.  The gate needs real parallelism for the
# off-run to balloon convincingly (the full request budget, not --quick:
# the post-crash window must dominate), so it runs only on >= 2 cores —
# skipped, not faked, on one.
cores="$( (nproc || getconf _NPROCESSORS_ONLN) 2>/dev/null | head -n1 )"
if [ "${cores:-1}" -ge 2 ]; then
  dune exec bin/smrbench.exe -- serve --mode domains --scheme RCU \
    --faults crash-reader --compare
else
  echo "check.sh: 1 hardware thread; skipping serve --mode domains --compare gate"
fi

# Atomics audit gate (DESIGN.md §16): the fault/watchdog/chaos/service
# crash paths run on real domains now, so their modules must not grow
# new top-level 'ref' cells — cross-domain state is Atomic.t (or
# single-writer arrays documented as such).  sched.ml keeps its
# fiber-internal profiling refs and is deliberately out of scope.
if grep -nE '^let [a-z_0-9]+( *: *[^=]*)? *= *ref ' \
  lib/runtime/fault.ml lib/runtime/signal.ml lib/runtime/watchdog.ml \
  lib/workload/chaos.ml lib/workload/kvservice.ml ; then
  echo "check.sh: top-level ref in a domains-crossed module (use Atomic.t)" >&2
  exit 1
fi

# Hunt smoke gate (DESIGN.md §11): the mutation test for the checker
# itself.  Both planted mutants (HP-BRCU!nomask, HP-BRCU!nodb) must be
# convicted within the budget — each by whichever of the rand/pct
# strategies suits its bug shape — shrunk, and their repros replayed
# byte-identically; the same budget over every real scheme must stay
# silent.
dune exec bin/smrbench.exe -- hunt --smoke --seed 1

if command -v ocamlformat >/dev/null 2>&1; then
  dune build @fmt
else
  echo "check.sh: ocamlformat not installed; skipping dune build @fmt"
fi

echo "check.sh: all checks passed"
