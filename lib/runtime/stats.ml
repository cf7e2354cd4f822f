(** Typed observability primitives (DESIGN.md §7): per-domain sharded
    counters, log-bucketed latency histograms, and the {!snapshot} record
    that replaces the old stringly association-list stats API.

    Design constraints, in order:

    - {b Hot-path cost.}  Schemes bump counters on every rollback, signal,
      scan and traversal step.  A single global [Atomic.t] per counter puts
      a contended cache line on every such event; {!Counter} instead keeps
      one padded cell per domain lane, by the same lane rule as
      {!Hpbrcu_runtime.Counter} (OCaml domain id, masked), so a bump is an
      uncontended RMW on a cell only its domain writes.  Sums are
      computed lazily at {!Counter.value} (snapshot) time — the classic
      "statistical counter" trade (exact totals, cheap increments).
    - {b Typed access.}  Schemes report through the {!snapshot} record, so
      harness and bench code read counters as fields
      ([(S.stats S.it).Stats.rollbacks]), never by string key.  The only
      string-keyed view is {!to_fields}, the serializer boundary used by
      the JSON/CSV emitters and pretty-printers.
    - {b Determinism.}  In fiber mode all increments are scheduled by the
      seeded simulator, so two runs with the same seed produce equal
      snapshots (asserted by the determinism test).

    This module must not depend on {!Sched} (the scheduler itself bumps
    counters); a lane is a property of the running domain, so it needs no
    thread id. *)

(* ------------------------------------------------------------------ *)
(* Sharded counters                                                    *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  (* One lane per [Counter.lanes] of the runtime's {!Counter} module (one
     per recommended domain, rounded to a power of two), indexed by its
     [lane_ix]: one lane rule for every sharded counter in the runtime,
     each cell followed by a {!Layout.spacer} so two domains' cells never
     share a cache line.  A counter is ~22 words per lane, so the ~13 a
     domain owns stay cheap to create.  The fiber simulator runs on one
     domain and bumps lane 0 only. *)
  type lane = { n : int Atomic.t; _pad : int array }
  type t = lane array

  let make () : t =
    Array.init Counter.lanes (fun _ ->
        { n = Atomic.make 0; _pad = Layout.spacer () })

  let[@inline] incr (t : t) = Atomic.incr t.(Counter.lane_ix ()).n

  let[@inline] add (t : t) n =
    ignore (Atomic.fetch_and_add t.(Counter.lane_ix ()).n n)

  (** Sum over all lanes.  Exact once writers are quiescent; during a run
      it is a linearizable-enough statistical read, like any per-CPU
      counter sum. *)
  let value (t : t) = Array.fold_left (fun acc l -> acc + Atomic.get l.n) 0 t

  let reset (t : t) = Array.iter (fun l -> Atomic.set l.n 0) t
end

(* ------------------------------------------------------------------ *)
(* Min/max gauges                                                      *)
(* ------------------------------------------------------------------ *)

module Gauge = struct
  (* Watermark tracker for quantities that are sampled, not summed: peak
     unreclaimed blocks, worst epoch lag, most signals in flight.  CAS
     races only towards the true extremum, so concurrent observers never
     lose a watermark.  Unobserved gauges read as 0 on both ends (the
     "nothing happened" value snapshots expect), which the sentinel
     initializers make cheap to test. *)
  type t = { mx : int Atomic.t; mn : int Atomic.t }

  let make () = { mx = Atomic.make min_int; mn = Atomic.make max_int }

  let rec raise_to cell v =
    let c = Atomic.get cell in
    if v > c && not (Atomic.compare_and_set cell c v) then raise_to cell v

  let rec lower_to cell v =
    let c = Atomic.get cell in
    if v < c && not (Atomic.compare_and_set cell c v) then lower_to cell v

  (** Fold one sample into both watermarks. *)
  let observe t v =
    raise_to t.mx v;
    lower_to t.mn v

  let maximum t = match Atomic.get t.mx with v when v = min_int -> 0 | v -> v
  let minimum t = match Atomic.get t.mn with v when v = max_int -> 0 | v -> v
  let observed t = Atomic.get t.mx <> min_int

  let reset t =
    Atomic.set t.mx min_int;
    Atomic.set t.mn max_int
end

(* ------------------------------------------------------------------ *)
(* Log-bucketed histograms                                             *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* HdrHistogram-style layout: exact unit buckets below [sub]; above it,
     each octave [2^k, 2^(k+1)) splits into [sub/2] equal sub-buckets, so
     the relative error is bounded by 2/sub (12.5% worst case here).
     Values are unit-agnostic non-negative ints (the harness records
     nanoseconds in domain mode and virtual ticks in fiber mode). *)

  let sub = 16
  let sub_bits = 4 (* log2 sub *)
  let half = sub / 2

  (* OCaml ints are 63-bit: the top octave is k = 61. *)
  let octaves = 58
  let nbuckets = sub + (octaves * half)

  (** [bucket_of v] — index of the bucket covering [v] (clamped to [0,
      max_int]).  Total order: monotone in [v]. *)
  let bucket_of v =
    if v < sub then if v < 0 then 0 else v
    else begin
      (* k = position of the highest set bit of v; v >= 16 so k >= 4. *)
      let k = ref 0 and x = ref v in
      while !x > 1 do
        x := !x lsr 1;
        incr k
      done;
      let k = !k in
      let idx = sub + ((k - sub_bits) * half) + ((v - (1 lsl k)) lsr (k - sub_bits + 1)) in
      if idx >= nbuckets then nbuckets - 1 else idx
    end

  (** [lower_bound i] — smallest value that maps to bucket [i] (the
      inverse of {!bucket_of} on bucket boundaries). *)
  let lower_bound i =
    if i < sub then i
    else
      let o = (i - sub) / half and s = (i - sub) mod half in
      let k = o + sub_bits in
      (1 lsl k) + (s lsl (k - sub_bits + 1))

  type t = {
    buckets : int Atomic.t array;
    sum : int Atomic.t;
    max : int Atomic.t;
  }

  let make () =
    {
      buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
      sum = Atomic.make 0;
      max = Atomic.make 0;
    }

  let rec bump_max t v =
    let m = Atomic.get t.max in
    if v > m && not (Atomic.compare_and_set t.max m v) then bump_max t v

  (** Lock-free record: one RMW on the bucket cell plus sum/max updates.
      Negative values clamp to 0. *)
  let record t v =
    let v = if v < 0 then 0 else v in
    Atomic.incr t.buckets.(bucket_of v);
    ignore (Atomic.fetch_and_add t.sum v);
    bump_max t v

  let reset t =
    Array.iter (fun c -> Atomic.set c 0) t.buckets;
    Atomic.set t.sum 0;
    Atomic.set t.max 0

  type summary = {
    count : int;
    sum : int;
    p50 : int;
    p90 : int;
    p99 : int;
    p999 : int;
    max : int;  (** exact, tracked out of band *)
  }

  let empty_summary =
    { count = 0; sum = 0; p50 = 0; p90 = 0; p99 = 0; p999 = 0; max = 0 }

  (* Percentile over a frozen bucket array: the smallest bucket whose
     cumulative count reaches rank ceil(q·total); reported as the bucket's
     lower bound, so values below [sub] come back exact. *)
  let percentile_of counts total q =
    if total = 0 then 0
    else begin
      let rank =
        let r = int_of_float (ceil (q *. float_of_int total)) in
        if r < 1 then 1 else if r > total then total else r
      in
      let cum = ref 0 and i = ref 0 and res = ref 0 in
      (try
         while !i < Array.length counts do
           cum := !cum + counts.(!i);
           if !cum >= rank then begin
             res := lower_bound !i;
             raise Exit
           end;
           incr i
         done
       with Exit -> ());
      !res
    end

  let summary t : summary =
    let counts = Array.map Atomic.get t.buckets in
    let count = Array.fold_left ( + ) 0 counts in
    {
      count;
      sum = Atomic.get t.sum;
      p50 = percentile_of counts count 0.50;
      p90 = percentile_of counts count 0.90;
      p99 = percentile_of counts count 0.99;
      p999 = percentile_of counts count 0.999;
      max = Atomic.get t.max;
    }

  let mean (s : summary) =
    if s.count = 0 then 0.0 else float_of_int s.sum /. float_of_int s.count
end

(* ------------------------------------------------------------------ *)
(* The scheme-counter snapshot                                         *)
(* ------------------------------------------------------------------ *)

(** Everything a reclamation scheme can report, as one flat typed record.
    A scheme fills the fields it owns and leaves the rest at zero, so
    composite schemes (HP-RCU = epochs + hazard pointers) combine their
    halves with {!add}.  Field groups:

    - epoch/era machinery: [epoch], [era], [advances], [advance_failures],
      [forced_advances];
    - signal machinery: [signals], [neutralizations], [rollbacks],
      [ejections], [restarts];
    - graceful degradation under faults (DESIGN.md §8): [signal_timeouts],
      [quarantines], [leaked];
    - hazard-pointer machinery: [scans], [scan_reclaimed];
    - the Traverse combinator: [traverses], [traverse_steps],
      [traverse_resumes], [validate_failures];
    - watermark gauges (merged with [max], not [+], by {!add}):
      [max_epoch_lag], [max_signals_inflight].  (The third gauge of the
      family, peak unreclaimed blocks, lives in {!Alloc} because it is a
      property of the run, not of one scheme.) *)
type snapshot = {
  domain_id : int;
      (** owner slot of the reclamation domain this snapshot describes
          ({!Hpbrcu_alloc.Alloc.Owner} id); 0 = whole-process / no domain *)
  domain_label : string;
      (** human label of that domain (e.g. ["RCU#3:shard2"]); [""] = none *)
  epoch : int;  (** current global epoch (epoch-family schemes) *)
  era : int;  (** current global era (VBR/HE/IBR) *)
  advances : int;  (** successful epoch advances *)
  advance_failures : int;  (** advance attempts blocked by lagging readers *)
  forced_advances : int;  (** advances that required signaling (BRCU) *)
  signals : int;  (** neutralization signals sent *)
  neutralizations : int;  (** signal-everyone rounds (NBR) *)
  rollbacks : int;  (** critical sections rolled back to a checkpoint *)
  ejections : int;  (** readers ejected from the epoch (PEBR) *)
  restarts : int;  (** whole operations restarted from scratch *)
  signal_timeouts : int;
      (** bounded signal waits that expired without an ack ([No_ack]) *)
  quarantines : int;  (** crashed participants removed from registries *)
  leaked : int;
      (** blocks parked on the leaked-but-bounded quarantine list: retired
          under an epoch a crashed reader still pins, never reclaimed *)
  scans : int;  (** shield-table reclamation scans *)
  scan_reclaimed : int;  (** blocks reclaimed by those scans *)
  traverses : int;  (** Traverse combinator invocations *)
  traverse_steps : int;  (** total traversal steps *)
  traverse_resumes : int;  (** critical-section (re-)entries in Traverse *)
  validate_failures : int;  (** checkpoint revalidation failures (R1) *)
  max_epoch_lag : int;
      (** worst observed (global epoch - lagging announcement) at a failed
          or forced advance; bounded for BRCU, unbounded for plain EBR *)
  max_signals_inflight : int;
      (** peak concurrent {!Signal.send}s posted but not yet resolved *)
  trace_dropped : int;
      (** trace events lost to flight-ring wraparound (domains-mode
          recorder, DESIGN.md §15), folded from the per-domain [dropped]
          lanes after the workers join; 0 whenever the recorder is off or
          nothing wrapped.  Part of the census identity
          [merged + trace_dropped = emitted] asserted per cell *)
}

let empty =
  {
    domain_id = 0;
    domain_label = "";
    epoch = 0;
    era = 0;
    advances = 0;
    advance_failures = 0;
    forced_advances = 0;
    signals = 0;
    neutralizations = 0;
    rollbacks = 0;
    ejections = 0;
    restarts = 0;
    signal_timeouts = 0;
    quarantines = 0;
    leaked = 0;
    scans = 0;
    scan_reclaimed = 0;
    traverses = 0;
    traverse_steps = 0;
    traverse_resumes = 0;
    validate_failures = 0;
    max_epoch_lag = 0;
    max_signals_inflight = 0;
    trace_dropped = 0;
  }

(** Pointwise merge; composite schemes combine their halves with this
    (each half leaves the other's fields at zero).  Counters sum; gauges
    take the max, because a watermark of the whole is the worst watermark
    of its parts, not their total. *)
let add a b =
  {
    (* Identification merges (composite halves describe one domain): the
       first non-empty side wins; counters below sum as usual. *)
    domain_id = (if a.domain_id <> 0 then a.domain_id else b.domain_id);
    domain_label =
      (if a.domain_label <> "" then a.domain_label else b.domain_label);
    epoch = a.epoch + b.epoch;
    era = a.era + b.era;
    advances = a.advances + b.advances;
    advance_failures = a.advance_failures + b.advance_failures;
    forced_advances = a.forced_advances + b.forced_advances;
    signals = a.signals + b.signals;
    neutralizations = a.neutralizations + b.neutralizations;
    rollbacks = a.rollbacks + b.rollbacks;
    ejections = a.ejections + b.ejections;
    restarts = a.restarts + b.restarts;
    signal_timeouts = a.signal_timeouts + b.signal_timeouts;
    quarantines = a.quarantines + b.quarantines;
    leaked = a.leaked + b.leaked;
    scans = a.scans + b.scans;
    scan_reclaimed = a.scan_reclaimed + b.scan_reclaimed;
    traverses = a.traverses + b.traverses;
    traverse_steps = a.traverse_steps + b.traverse_steps;
    traverse_resumes = a.traverse_resumes + b.traverse_resumes;
    validate_failures = a.validate_failures + b.validate_failures;
    max_epoch_lag = max a.max_epoch_lag b.max_epoch_lag;
    max_signals_inflight = max a.max_signals_inflight b.max_signals_inflight;
    trace_dropped = a.trace_dropped + b.trace_dropped;
  }

(** The serializer boundary: the one place a snapshot becomes string-keyed
    pairs, for JSON/CSV emitters and pretty-printers.  [keep_zeros:false]
    (default) drops untouched fields, which is what humans want to read;
    the JSON emitter passes [keep_zeros:true] for a stable schema. *)
let to_fields ?(keep_zeros = false) s =
  let all =
    [
      ("domain", s.domain_id);
      ("epoch", s.epoch);
      ("era", s.era);
      ("advances", s.advances);
      ("advance_failures", s.advance_failures);
      ("forced_advances", s.forced_advances);
      ("signals", s.signals);
      ("neutralizations", s.neutralizations);
      ("rollbacks", s.rollbacks);
      ("ejections", s.ejections);
      ("restarts", s.restarts);
      ("signal_timeouts", s.signal_timeouts);
      ("quarantines", s.quarantines);
      ("leaked", s.leaked);
      ("scans", s.scans);
      ("scan_reclaimed", s.scan_reclaimed);
      ("traverses", s.traverses);
      ("traverse_steps", s.traverse_steps);
      ("traverse_resumes", s.traverse_resumes);
      ("validate_failures", s.validate_failures);
      ("max_epoch_lag", s.max_epoch_lag);
      ("max_signals_inflight", s.max_signals_inflight);
      ("trace_dropped", s.trace_dropped);
    ]
  in
  if keep_zeros then all else List.filter (fun (_, v) -> v <> 0) all

let pp ppf s =
  match to_fields s with
  | [] -> Fmt.string ppf "(no counters)"
  | fields ->
      Fmt.pf ppf "%a"
        Fmt.(list ~sep:comma (pair ~sep:(any "=") string int))
        fields
