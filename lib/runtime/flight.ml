(** The one trace store (DESIGN.md §7, §15): per-slot lossy-but-counted
    rings, merged post-run into the {!Trace} record stream.  {!Trace}'s
    sink picks only where a record's stamp and slot come from:

    - {b [Spool]} (fibers): the simulator's virtual tick and logical tid,
      injected into {!Trace}, stored through {!store} and read back
      verbatim (identity timebase, no GC track, no rebase), so a fiber
      trace stays a pure function of the seed.
    - {b [Flight]} (domains): a monotonic hardware tick counter and the
      caller's slot from a C thread-local, calibrated to the
      {!Clock.now_ns} [CLOCK_MONOTONIC] timebase at merge time.

    Each slot's ring is written only by its owner (SPSC — the single
    consumer is the post-join merge) and padded so two domains never
    share a cache line of ring-header state.

    Contracts, in gate order:

    - {b Lock-free, allocation-free hot path.}  An armed domains emit is
      a tick read plus four int stores into the owner's preallocated ring
      — no CAS, no lock, no allocation (rings for the announced domain
      count are allocated at {!arm}; late registrants and every fiber
      start small and double inside {!store} up to the capacity).  The
      [flight-emit] bench kernel gates this at ≤ 25 ns and 0 minor words
      per event, which is why records are stamped with
      {!Clock.raw_ticks} (~5–15 ns) rather than [clock_gettime] (~35 ns
      — over budget on its own) and converted to ns once, at merge time,
      through a two-point calibration.
    - {b Overflow drops-and-counts.}  A full ring wraps, keeping the LAST
      [capacity] events; [n] counts everything ever emitted, so
      [dropped = n - kept] per slot is exact even under concurrent
      overflow — each [n] has a single writer, and the post-join read is
      ordered by the join.  The census identity [merged + dropped =
      emitted] is asserted after every traced cell.
    - {b GC correlation.}  {!arm} starts OCaml 5 [Runtime_events];
      {!gc_collected} polls the runtime's own ring and returns
      major/minor slice begin/end pairs in [CLOCK_MONOTONIC] ns — the
      same timebase the calibrated record timestamps land in, so a
      reclamation stall and the GC pause that caused it line up on one
      Perfetto time axis.

    Like {!Stats} and {!Trace}, this module sits below the scheduler:
    {!Trace} routes its emits here and owns all decoding; this module
    never sees an {!Trace.event}, only raw int codes. *)

(* ------------------------------------------------------------------ *)
(* Rings                                                               *)
(* ------------------------------------------------------------------ *)

(* One slot per logical tid + 1 (slot 0 = code outside any worker).
   [buf] holds [rec_ints] ints per record — at most [capacity] records,
   fewer while a growing ring fills; [n] counts events ever emitted by
   the owner.  [_pad] keeps two ring headers allocated back-to-back from
   sharing a cache line (Layout.spacer is GC-live filler), so one
   domain's [n] bump never invalidates a neighbour's header line. *)
type ring = { mutable buf : int array; mutable n : int; _pad : int array }

let rec_ints = 4 (* stamp, code, arg, arg2 *)
let max_slots = 257 (* tids -1..255 *)
let rings : ring option array = Array.make max_slots None

(* Capacity is rounded up to a power of two so the wraparound index is a
   mask, not a division, on the hot path. *)
let default_capacity = 1 lsl 16
let cap = ref default_capacity
let mask = ref (default_capacity - 1)
let armed_flag = ref false

(* Records a ring that was not preallocated starts with; it doubles in
   [store] until it holds [capacity]. *)
let initial_records = 4096

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

(* A ring buffer of [n] words the major GC never scans: a flat float
   array (one word per element on 64-bit, Double_array_tag) viewed as an
   int array.  It only ever holds tagged ints, so skipping it is sound.
   A growing ring allocates twice its final size, and every major cycle
   that allocation triggers would otherwise walk every live ring field
   by field: with scanned rings a traced fiber emit cost ~45 ns against
   ~20 ns here.  Reads, writes, [Array.length] and [Array.blit] on the
   view see plain words; the C emit's [Field]/[Wosize_val] do too. *)
let unscanned n : int array = Obj.magic (Array.make n 0.0)

let new_ring records =
  { buf = unscanned (rec_ints * records); n = 0; _pad = Layout.spacer () }

(* ------------------------------------------------------------------ *)
(* Timebase                                                            *)
(* ------------------------------------------------------------------ *)

(* Hardware records are stamped with rebased ticks (the high bits of
   {!Clock.ticks_and_slot}, zeroed at arm time by [Clock.flight_rebase]
   so the packed representation cannot overflow); [calibrate] fits the
   affine map ticks -> CLOCK_MONOTONIC ns through two (ns, ticks)
   samples taken at arm time and at merge time.  Virtual-clock stamps
   ({!reset} without {!arm}) use the identity map. *)
let ticks () = Clock.ticks_and_slot () asr 9
let identity_timebase = ref true
let cal_ns0 = ref 0
let cal_t0 = ref 0
let cal_scale = ref 1.0

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
(* Reset / arm / emit                                                  *)
(* ------------------------------------------------------------------ *)

(** [reset ~capacity] drops every ring and sets the per-slot record
    bound to [capacity] rounded up to a power of two.  Rings then grow
    on first use; stamps are kept verbatim (identity timebase) until
    {!arm} switches to the hardware clock. *)
let reset ~capacity =
  cap := pow2_at_least (max 1 capacity) 1;
  mask := !cap - 1;
  Array.fill rings 0 max_slots None;
  gc_buf := [];
  identity_timebase := true

(** [arm ?capacity ?ndomains ?gc ()] resets the store for hardware
    stamps: rings of [capacity] events (default {!default_capacity}) are
    preallocated for worker tids [0..ndomains-1] plus the
    outside-any-worker slot; domains beyond [ndomains] get a growing
    ring on first emit.  With [gc] (the default) it also starts
    [Runtime_events] and opens a self cursor for the GC track. *)
let arm ?(capacity = default_capacity) ?(ndomains = 0) ?(gc = true) () =
  reset ~capacity;
  for slot = 0 to min ndomains (max_slots - 1) do
    rings.(slot) <- Some (new_ring !cap)
  done;
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

(* A ring below capacity is full exactly when [n] reaches its length:
   double it (capacity and [initial_records] are powers of two, so the
   doubled ring never overshoots [capacity]). *)
let grow r =
  let len = Array.length r.buf in
  let buf = unscanned (2 * len) in
  Array.blit r.buf 0 buf 0 len;
  r.buf <- buf

(** [store slot stamp code arg arg2] appends one record to [slot]'s
    ring (allocating or growing it first if needed), wrapping over the
    oldest record once the ring holds [capacity].  [slot] is [tid + 1]
    and must lie in [0, max_slots). *)
let store slot t code arg arg2 =
  let r =
    match rings.(slot) with
    | Some r -> r
    | None ->
        let r = new_ring (min !cap initial_records) in
        rings.(slot) <- Some r;
        r
  in
  if r.n * rec_ints = Array.length r.buf && r.n < !cap then grow r;
  (* [at + 3 < Array.length buf]: below capacity [n] is under the
     ring's length and [n land mask = n]; at capacity the mask keeps
     [at] inside the [rec_ints * capacity] buffer. *)
  let at = r.n land !mask * rec_ints in
  let buf = r.buf in
  Array.unsafe_set buf at t;
  Array.unsafe_set buf (at + 1) code;
  Array.unsafe_set buf (at + 2) arg;
  Array.unsafe_set buf (at + 3) arg2;
  r.n <- r.n + 1

external emit_stub : ring option array -> int -> int -> int -> bool
  = "hpbrcu_flight_emit"
  [@@noalloc]
(* The fused C emit of the hardware path: one call reads the caller's
   slot from the C thread-local the Domains backend mirrors it into,
   stamps the tick counter, does the four stores and bumps the count
   (see clock_stubs.c — the mask travels there at arm time via
   [Clock.flight_rebase]), skipping the ~6 ns [Domain.DLS] tid lookup
   that would otherwise eat a quarter of the 25 ns/event budget.  Field
   order in the C stub matches the [ring] declaration: Field 0 = buf,
   Field 1 = n.  [false] means the slot's ring is missing or still
   growing — take {!emit_grow}.  {!Trace}'s armed dispatch calls this
   directly to spare a call frame. *)

(** Slow path of the hardware emit: a slot without a full-size ring
    (allocate or grow it via {!store}). *)
let emit_grow ~code ~arg ~arg2 =
  let ts = Clock.ticks_and_slot () in
  let slot = ts land 511 in
  if slot < max_slots then store slot (ts asr 9) code arg arg2

(* ------------------------------------------------------------------ *)
(* Drop accounting                                                     *)
(* ------------------------------------------------------------------ *)

let fold_rings f init =
  let acc = ref init in
  Array.iteri
    (fun slot r -> match r with None -> () | Some r -> acc := f !acc slot r)
    rings;
  !acc

(** Events ever emitted, over all slots. *)
let emitted () = fold_rings (fun acc _ r -> acc + r.n) 0

(** Events still resident in the rings (≤ capacity per slot). *)
let kept () = fold_rings (fun acc _ r -> acc + min r.n !cap) 0

(** Events lost to ring wraparound, over all slots.  Exact: each
    ring's [n] has one writer, and [dropped = n - min n capacity] is
    computed from a single read of it. *)
let dropped () = fold_rings (fun acc _ r -> acc + max 0 (r.n - !cap)) 0

(* ------------------------------------------------------------------ *)
(* Merge-side iteration                                                *)
(* ------------------------------------------------------------------ *)

(** [iter_kept f] calls [f slot seq ns code arg arg2] for every resident
    record, oldest first within each slot; [seq] is the owner's
    emission index (so the first surviving record of a wrapped ring has
    [seq = dropped]).  Calibrates the tick->ns map first (virtual stamps
    pass through unchanged); call after the workers have joined. *)
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
