(** Domains-mode flight recorder (DESIGN.md §15): per-domain lossy-but-
    counted trace rings, merged post-run into the {!Trace} record stream.

    The fiber tracer ({!Trace}'s [Spool] sink) is single-domain by
    construction: all fibers multiplex on the caller, so a plain mutable
    sink and the virtual tick clock are sound and byte-deterministic.
    Neither property survives [Domain.spawn].  This module is the
    substrate-appropriate replacement: one private fixed-capacity ring per
    worker domain, written only by its owner (SPSC — the single consumer
    is the post-join merge), padded so two domains never share a cache
    line of ring-header state, and stamped with a monotonic hardware tick
    counter calibrated to the {!Clock.now_ns} [CLOCK_MONOTONIC] timebase.

    Contracts, in gate order:

    - {b Lock-free, allocation-free hot path.}  An armed emit is a tick
      read plus four int stores into the owner's preallocated ring — no
      CAS, no lock, no allocation (rings for the announced domain count
      are allocated at {!arm}; late registrants fall back to one
      allocation on their first emit).  The [flight-emit] bench kernel
      gates this at ≤ 25 ns and 0 minor words per event, which is why
      records are stamped with {!Clock.raw_ticks} (~5–15 ns) rather than
      [clock_gettime] (~35 ns — over budget on its own) and converted to
      ns once, at merge time, through a two-point calibration.
    - {b Overflow drops-and-counts.}  A full ring wraps, keeping the LAST
      [capacity] events; [n] counts everything ever emitted, so
      [dropped = n - kept] per domain is exact even under concurrent
      overflow — each [n] has a single writer, and the post-join read is
      ordered by the join.  The census identity [merged + dropped =
      emitted] is asserted after every domains-mode cell.
    - {b GC correlation.}  {!arm} starts OCaml 5 [Runtime_events];
      {!gc_collected} polls the runtime's own ring and returns
      major/minor slice begin/end pairs in [CLOCK_MONOTONIC] ns — the
      same timebase the calibrated record timestamps land in, so a
      reclamation stall and the GC pause that caused it line up on one
      Perfetto time axis.

    Like {!Stats} and {!Trace}, this module sits below the scheduler:
    {!Trace} routes its [Flight]-sink emits here and owns all decoding;
    this module never sees an {!Trace.event}, only raw int codes. *)

(* ------------------------------------------------------------------ *)
(* Rings                                                               *)
(* ------------------------------------------------------------------ *)

(* One slot per logical tid + 1 (slot 0 = code outside any worker),
   mirroring Trace's sink indexing.  [buf] holds [rec_ints * capacity]
   ints; [n] counts events ever emitted by the owner.  [_pad] keeps two
   ring headers allocated back-to-back from sharing a cache line
   (Layout.spacer is GC-live filler), so one domain's [n] bump never
   invalidates a neighbour's header line. *)
type ring = { buf : int array; mutable n : int; _pad : int array }

let rec_ints = 4 (* ticks, code, arg, arg2 *)
let max_slots = Stats.max_shards
let rings : ring option array = Array.make max_slots None

(* Capacity is rounded up to a power of two so the wraparound index is a
   mask, not a division, on the hot path. *)
let default_capacity = 1 lsl 16
let cap = ref default_capacity
let mask = ref (default_capacity - 1)
let armed_flag = ref false

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let new_ring () =
  { buf = Array.make (rec_ints * !cap) 0; n = 0; _pad = Layout.spacer () }

(* ------------------------------------------------------------------ *)
(* Timebase                                                            *)
(* ------------------------------------------------------------------ *)

(* Records are stamped with rebased hardware ticks (the high bits of
   {!Clock.ticks_and_slot}, zeroed at arm time by [Clock.flight_rebase]
   so the packed representation cannot overflow); [calibrate] fits the
   affine map ticks -> CLOCK_MONOTONIC ns through two (ns, ticks)
   samples taken at arm time and at merge time.  Tests inject a scripted
   tick source with [set_tick_source_for_tests], which also switches the
   map to the identity so scripted "timestamps" survive the merge
   verbatim. *)
let ticks () = Clock.ticks_and_slot () asr 9
let tick_source = ref ticks
let identity_timebase = ref false
let cal_ns0 = ref 0
let cal_t0 = ref 0
let cal_scale = ref 1.0

(* Notifies {!Trace} that the hardware-tick fast path must be bypassed:
   its armed-flight dispatch checks one flag per event, so the scripted
   tick source can't be consulted there — instead this hook drops the
   flag and emits take the [tick_source]-honouring slow path.  (Flight
   sits below Trace, so the dependency points through a hook.) *)
let tick_source_override_hook : (unit -> unit) ref = ref (fun () -> ())

let set_tick_source_for_tests f =
  tick_source := f;
  identity_timebase := true;
  !tick_source_override_hook ()

let calibrate () =
  if !identity_timebase then cal_scale := 1.0
  else begin
    let ns1 = Clock.now_ns () and t1 = ticks () in
    cal_scale :=
      (if t1 = !cal_t0 then 1.0
       else float_of_int (ns1 - !cal_ns0) /. float_of_int (t1 - !cal_t0))
  end

let ns_of_ticks t =
  if !identity_timebase then t
  else !cal_ns0 + int_of_float (float_of_int (t - !cal_t0) *. !cal_scale)

(* ------------------------------------------------------------------ *)
(* GC events via Runtime_events                                        *)
(* ------------------------------------------------------------------ *)

(* kind codes shared with Trace's Gc_begin/Gc_end arg. *)
let gc_kind_minor = 0
let gc_kind_major = 1

(* (ns, kind, is_begin, runtime ring/domain id), newest first. *)
let gc_buf : (int * int * bool * int) list ref = ref []
let cursor : Runtime_events.cursor option ref = ref None

let gc_push dom ts phase is_begin =
  let kind =
    match phase with
    | Runtime_events.EV_MINOR -> gc_kind_minor
    | Runtime_events.EV_MAJOR -> gc_kind_major
    | _ -> -1
  in
  if kind >= 0 then
    let ns = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
    gc_buf := (ns, kind, is_begin, dom) :: !gc_buf

let callbacks =
  lazy
    (Runtime_events.Callbacks.create
       ~runtime_begin:(fun dom ts phase -> gc_push dom ts phase true)
       ~runtime_end:(fun dom ts phase -> gc_push dom ts phase false)
       ())

let poll_gc () =
  match !cursor with
  | None -> ()
  | Some c -> ignore (Runtime_events.read_poll c (Lazy.force callbacks) None)

(** Drain the runtime's event ring and return every major/minor GC slice
    edge collected since {!arm}, oldest first, as
    [(ns, kind, is_begin, runtime_domain)] with [kind] 0 = minor,
    1 = major.  Timestamps are [CLOCK_MONOTONIC] ns — the calibrated
    record timebase. *)
let gc_collected () =
  poll_gc ();
  List.rev !gc_buf

(* ------------------------------------------------------------------ *)
(* Arm / emit / drain                                                  *)
(* ------------------------------------------------------------------ *)

(** [arm ?capacity ?ndomains ?gc ()] clears previous flight data and
    starts recording: rings of [capacity] events (rounded up to a power
    of two, default {!default_capacity}) are preallocated for worker
    tids [0..ndomains-1] plus the outside-any-worker slot; domains
    beyond [ndomains] get a ring lazily on first emit.  With [gc] (the
    default) it also starts [Runtime_events] and opens a self cursor for
    the GC track. *)
let arm ?capacity ?(ndomains = 0) ?(gc = true) () =
  cap := pow2_at_least (max 1 (Option.value capacity ~default:default_capacity)) 1;
  mask := !cap - 1;
  Array.fill rings 0 max_slots None;
  for slot = 0 to min ndomains (max_slots - 1) do
    rings.(slot) <- Some (new_ring ())
  done;
  gc_buf := [];
  tick_source := ticks;
  identity_timebase := false;
  Clock.flight_rebase !mask;
  cal_ns0 := Clock.now_ns ();
  cal_t0 := ticks ();
  cal_scale := 1.0;
  if gc then begin
    (try Runtime_events.start () with Failure _ -> ());
    match !cursor with
    | Some _ -> ()
    | None -> (
        try cursor := Some (Runtime_events.create_cursor None)
        with Failure _ -> cursor := None)
  end;
  armed_flag := true

(** Stop recording (rings and collected GC events stay readable until
    the next {!arm}). *)
let disarm () =
  if !armed_flag then begin
    poll_gc ();
    calibrate ();
    armed_flag := false
  end

let armed () = !armed_flag

(** [emit ~slot ~code ~arg ~arg2] — the armed hot path: stamp the
    owner's ring with the raw tick counter and four int stores.  [slot]
    is [tid + 1] (slot 0 = outside any worker), matching {!Trace}'s sink
    indexing; out-of-range slots are dropped silently like the fiber
    sinks do. *)
(* Shared ring-store tail of both emit paths.  [at + 3 <= 4*cap - 1 =
   Array.length buf - 1] by construction: every live ring was allocated
   under the current [cap] ([arm] clears the slots before changing it),
   so the masked index never escapes [buf] and the stores can skip the
   bounds checks. *)
let[@inline] store slot t code arg arg2 =
  let r =
    match Array.unsafe_get rings slot with
    | Some r -> r
    | None ->
        let r = new_ring () in
        rings.(slot) <- Some r;
        r
  in
  let at = r.n land !mask * rec_ints in
  let buf = r.buf in
  Array.unsafe_set buf at t;
  Array.unsafe_set buf (at + 1) code;
  Array.unsafe_set buf (at + 2) arg;
  Array.unsafe_set buf (at + 3) arg2;
  r.n <- r.n + 1

let emit ~slot ~code ~arg ~arg2 =
  if slot >= 0 && slot < max_slots then
    store slot (!tick_source ()) code arg arg2

(** [emit_self ~code ~arg ~arg2] — the production hot path ({!Trace}'s
    [Flight] branch): one fused {!Clock.ticks_and_slot} call yields both
    the tick stamp and the caller's slot (mirrored into a C thread-local
    by the Domains backend), skipping the ~6 ns [Domain.DLS] tid lookup
    that would otherwise eat a quarter of the 25 ns/event budget.  Tests
    with an injected tick source still get their scripted stamps. *)
external emit_stub : ring option array -> int -> int -> int -> bool
  = "hpbrcu_flight_emit"
  [@@noalloc]
(* The fused C emit (slot + tick + stores + count in one call; see
   clock_stubs.c — the mask travels there at arm time via
   [Clock.flight_rebase]).  Field order in the C stub matches the
   [ring] declaration: Field 0 = buf, Field 1 = n.  [false] means the
   slot has no ring yet — take the allocating slow path below.
   {!Trace}'s armed-flight dispatch calls this directly to spare a call
   frame; everything else should go through {!emit_self}. *)

(** Slow paths of the armed emit: a late registrant without a
    preallocated ring (allocate one via [store]), or a test-scripted
    tick source whose stamps must come from [tick_source], not the
    hardware counter. *)
let emit_grow ~code ~arg ~arg2 =
  let slot = Clock.ticks_and_slot () land 511 in
  if slot < max_slots then store slot (!tick_source ()) code arg arg2

let emit_self ~code ~arg ~arg2 =
  if !identity_timebase || not (emit_stub rings code arg arg2) then
    emit_grow ~code ~arg ~arg2

(* ------------------------------------------------------------------ *)
(* Drop accounting                                                     *)
(* ------------------------------------------------------------------ *)

let fold_rings f init =
  let acc = ref init in
  Array.iteri
    (fun slot r -> match r with None -> () | Some r -> acc := f !acc slot r)
    rings;
  !acc

(** Events ever emitted, over all domains. *)
let emitted () = fold_rings (fun acc _ r -> acc + r.n) 0

(** Events still resident in the rings (≤ capacity per domain). *)
let kept () = fold_rings (fun acc _ r -> acc + min r.n !cap) 0

(** Events lost to ring wraparound, over all domains.  Exact: each
    ring's [n] has one writer, and [dropped = n - min n capacity] is
    computed from a single read of it. *)
let dropped () = fold_rings (fun acc _ r -> acc + max 0 (r.n - !cap)) 0

(* ------------------------------------------------------------------ *)
(* Merge-side iteration                                                *)
(* ------------------------------------------------------------------ *)

(** [iter_kept f] calls [f slot seq ns code arg arg2] for every resident
    record, oldest first within each slot; [seq] is the owner's
    emission index (so the first surviving record of a wrapped ring has
    [seq = dropped]).  Calibrates the tick->ns map first; call after
    the workers have joined. *)
let iter_kept f =
  calibrate ();
  fold_rings
    (fun () slot r ->
      let kept = min r.n !cap in
      for j = 0 to kept - 1 do
        let seq = r.n - kept + j in
        let at = seq land !mask * rec_ints in
        f slot seq
          (ns_of_ticks r.buf.(at))
          r.buf.(at + 1)
          r.buf.(at + 2)
          r.buf.(at + 3)
      done)
    ()
