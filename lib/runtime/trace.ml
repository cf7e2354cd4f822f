(** Deterministic per-thread event tracer (DESIGN.md §7, §10).

    When enabled, every interesting runtime event — epoch advances, signals,
    rollbacks, checkpoints, retirements, reclamations, stalls, deadline
    aborts, context switches, fiber wake-ups — is appended to a per-thread
    ring as four unboxed ints (timestamp, event code, argument, correlation
    argument).  The {b disabled} fast path is a single ref read and branch
    and allocates nothing, so tracing can stay compiled into every scheme
    hot path (asserted by the [trace-emit-off] bench-reclaim kernel); the
    {b enabled} path allocates only when a thread's ring grows.

    {b Causality} (DESIGN.md §10).  Events carry a second argument so a
    post-hoc analyzer can join the two ends of a lifecycle edge:

    - [Retire]/[Reclaim] carry the block id, joining each block's
      retirement to its reclamation (time-to-reclaim);
    - [Signal_sent]/[Rollback]/[Signal_dropped] carry a global
      send-sequence id ({!Signal.next_seq}), joining a neutralization to
      the rollback it caused (signal→rollback latency);
    - begin/end span pairs ([Cs_begin]/[Cs_end], [Scan_begin]/[Scan_end],
      [Flush_begin]/[Flush_end], [Checkpoint_begin]/[Checkpoint],
      [Op_begin]/[Op_end]) bracket phases so durations and abort rates fall
      out of the trace alone.

    {b Sinks.}  Both sinks write the one store, {!Flight}'s per-slot
    rings, and differ only in where a record's stamp and slot come from:
    the default {!Spool} sink (fibers) takes the injected virtual clock
    and thread id, the {!Flight} sink (domains) the hardware tick counter
    and a C thread-local slot.  Rings grow on fibers up to a per-thread
    record bound (non-lossy below it, which is what `smrbench analyze`
    and the Perfetto export consume); past it both keep the last records
    and count what they drop.

    Fiber timestamps come from the scheduler's virtual clock
    ({!Sched.tick}), so in fiber mode a trace is a pure function of the
    simulator seed: the same seed and [switch_every] produce a
    byte-identical event log ({!write_channel} output included), which is
    what makes traces {e replayable} — re-run the seed, get the same
    story, add printf only where the trace says to look.

    Like {!Stats}, this module must not depend on {!Sched} (the scheduler
    emits events); {!Sched} injects the clock and thread-id providers at
    init. *)

type event =
  | Epoch_advance  (** arg = new epoch/era *)
  | Signal_sent  (** arg = receiver thread id, arg2 = send-sequence id *)
  | Rollback  (** arg = 0, arg2 = send-sequence id consumed (0 = none) *)
  | Checkpoint
      (** checkpoint span end; arg = traversal buffer index flipped to *)
  | Retire  (** arg = unreclaimed blocks after the retire, arg2 = block id *)
  | Reclaim  (** arg = unreclaimed blocks after the reclaim, arg2 = block id *)
  | Stall  (** arg = stall length in virtual ticks *)
  | Deadline_abort  (** arg = 0 *)
  | Context_switch  (** arg = resumed thread id, arg2 = preempted thread id *)
  | Wake  (** arg = wake latency in virtual ticks, arg2 = scheduled wake tick *)
  | Fault_stall  (** arg = injected stall length in virtual ticks *)
  | Fault_crash  (** arg = crashed thread id *)
  | Signal_dropped  (** arg = receiver thread id, arg2 = send-sequence id *)
  | Participant_quarantined  (** arg = quarantined thread id *)
  | Cs_begin  (** arg = epoch announced on entry (-1/0 if none) *)
  | Cs_end  (** arg = outcome: 0 completed, 1 rolled back, 2 other exception *)
  | Checkpoint_begin  (** arg = traversal buffer index being written *)
  | Scan_begin  (** arg = retired-batch length at scan entry *)
  | Scan_end  (** arg = blocks reclaimed by the scan *)
  | Flush_begin  (** arg = global epoch at flush entry *)
  | Flush_end  (** arg = outcome: 0 advanced, 1 gave up/vetoed *)
  | Op_begin  (** arg = op kind: 0 get, 1 insert, 2 remove *)
  | Op_end  (** arg = op kind (matches the [Op_begin]) *)
  | Owner_retire
      (** arg = owning domain id, arg2 = block id: the intrusive ownership
          stamp taken at retire time, joining each block — and so each
          [Retire]/[Reclaim] pair — to its reclamation domain, which is
          what lets the analyzer group lifecycle metrics per domain *)
  | Gc_begin
      (** arg = collection kind (0 minor, 1 major slice), arg2 = runtime
          domain id; merged into domains-mode traces from [Runtime_events]
          on the {!gc_tid} pseudo-track, never emitted by schemes *)
  | Gc_end  (** arg/arg2 as [Gc_begin]; closes the matching slice *)

let event_code = function
  | Epoch_advance -> 0
  | Signal_sent -> 1
  | Rollback -> 2
  | Checkpoint -> 3
  | Retire -> 4
  | Reclaim -> 5
  | Stall -> 6
  | Deadline_abort -> 7
  | Context_switch -> 8
  | Wake -> 9
  | Fault_stall -> 10
  | Fault_crash -> 11
  | Signal_dropped -> 12
  | Participant_quarantined -> 13
  | Cs_begin -> 14
  | Cs_end -> 15
  | Checkpoint_begin -> 16
  | Scan_begin -> 17
  | Scan_end -> 18
  | Flush_begin -> 19
  | Flush_end -> 20
  | Op_begin -> 21
  | Op_end -> 22
  | Owner_retire -> 23
  | Gc_begin -> 24
  | Gc_end -> 25

(* The code table above is the identity on the runtime representation:
   every [event] constructor is constant, so its immediate value is its
   declaration index — which is exactly the code the table assigns.  The
   armed flight emit uses the representation directly, saving the
   jump-table dispatch of [event_code] (~2 ns of a 25 ns/event budget);
   the explicit table stays as the readable on-disk spec and the
   [all_events] roundtrip test asserts the two agree for every
   constructor, so a reordered declaration fails loudly. *)
let[@inline] event_code_unsafe (ev : event) : int = Obj.magic ev

let event_of_code = function
  | 0 -> Epoch_advance
  | 1 -> Signal_sent
  | 2 -> Rollback
  | 3 -> Checkpoint
  | 4 -> Retire
  | 5 -> Reclaim
  | 6 -> Stall
  | 7 -> Deadline_abort
  | 8 -> Context_switch
  | 9 -> Wake
  | 10 -> Fault_stall
  | 11 -> Fault_crash
  | 12 -> Signal_dropped
  | 13 -> Participant_quarantined
  | 14 -> Cs_begin
  | 15 -> Cs_end
  | 16 -> Checkpoint_begin
  | 17 -> Scan_begin
  | 18 -> Scan_end
  | 19 -> Flush_begin
  | 20 -> Flush_end
  | 21 -> Op_begin
  | 22 -> Op_end
  | 23 -> Owner_retire
  | 24 -> Gc_begin
  | 25 -> Gc_end
  | _ -> invalid_arg "Trace.event_of_code"

(** Number of event codes; codes are contiguous in [0, n_event_codes).
    The roundtrip test iterates this range against {!all_events}. *)
let n_event_codes = 26

(** Every constructor, in code order. *)
let all_events =
  [
    Epoch_advance;
    Signal_sent;
    Rollback;
    Checkpoint;
    Retire;
    Reclaim;
    Stall;
    Deadline_abort;
    Context_switch;
    Wake;
    Fault_stall;
    Fault_crash;
    Signal_dropped;
    Participant_quarantined;
    Cs_begin;
    Cs_end;
    Checkpoint_begin;
    Scan_begin;
    Scan_end;
    Flush_begin;
    Flush_end;
    Op_begin;
    Op_end;
    Owner_retire;
    Gc_begin;
    Gc_end;
  ]

let event_name = function
  | Epoch_advance -> "epoch-advance"
  | Signal_sent -> "signal-sent"
  | Rollback -> "rollback"
  | Checkpoint -> "checkpoint-end"
  | Retire -> "retire"
  | Reclaim -> "reclaim"
  | Stall -> "stall"
  | Deadline_abort -> "deadline-abort"
  | Context_switch -> "context-switch"
  | Wake -> "wake"
  | Fault_stall -> "fault-stall"
  | Fault_crash -> "fault-crash"
  | Signal_dropped -> "signal-dropped"
  | Participant_quarantined -> "quarantined"
  | Cs_begin -> "cs-begin"
  | Cs_end -> "cs-end"
  | Checkpoint_begin -> "checkpoint-begin"
  | Scan_begin -> "scan-begin"
  | Scan_end -> "scan-end"
  | Flush_begin -> "flush-begin"
  | Flush_end -> "flush-end"
  | Op_begin -> "op-begin"
  | Op_end -> "op-end"
  | Owner_retire -> "owner-retire"
  | Gc_begin -> "gc-begin"
  | Gc_end -> "gc-end"

(* ------------------------------------------------------------------ *)
(* Providers (installed by Sched at init)                              *)
(* ------------------------------------------------------------------ *)

let clock : (unit -> int) ref = ref (fun () -> 0)
let tid_provider : (unit -> int) ref = ref (fun () -> -1)

let set_clock f = clock := f
let set_tid_provider f = tid_provider := f

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

(* A sink is a stamp and slot source for the one store ({!Flight}'s
   rings, DESIGN.md §15).  [Spool] stamps with the injected [clock] and
   slots by [tid_provider] — byte-deterministic on fibers.  [Flight]
   stamps with calibrated hardware ticks and slots by the C
   thread-local: the injected clock is the fiber simulator's virtual
   tick, which reads 0 under the Domains backend, and the DLS tid lookup
   is too slow for the 25 ns/event gate. *)
type sink = Spool | Flight

let spool_default_capacity = 1 lsl 20
let on = ref false

(* [true] iff enabled with the {!Flight} sink.  Checked first in
   {!emit}/{!emit2} so the domains-mode hot path is one ref load, one
   branch and the fused C stub — no sink match, no extra call frame —
   because the flight-emit kernel gates the whole chain at 25 ns/event
   and on this class of machine the tick read alone costs ~17 of
   them. *)
let flight_on = ref false

(* Bound once: a cross-module [Flight.rings] access is two dependent
   loads (module block, then field) on every event. *)
let flight_rings = Flight.rings

let enabled () = !on

(** [enable ?capacity ?sink ?ndomains ?gc ()] clears previous traces and
    starts recording.  [capacity] is the per-thread record bound,
    rounded up to a power of two: by default {!spool_default_capacity}
    with the (default) {!Spool} sink, whose rings grow up to it, and
    {!Flight.default_capacity} with {!Flight}, whose rings are
    preallocated per announced worker; [ndomains] and [gc] (GC track,
    on by default) are forwarded to {!Flight.arm}. *)
let enable ?capacity ?(sink = Spool) ?(ndomains = 0) ?(gc = true) () =
  (match sink with
  | Spool ->
      Flight.reset
        ~capacity:(Option.value capacity ~default:spool_default_capacity)
  | Flight -> Flight.arm ?capacity ~ndomains ~gc ());
  flight_on := sink = Flight;
  on := true

let disable () =
  if !flight_on then Flight.disarm ();
  flight_on := false;
  on := false

(* Enabled [Spool] body, out of line so the disabled path in emit/emit2
   is a ref read and a branch with no call. *)
let emit_enabled ev arg arg2 =
  let slot = !tid_provider () + 1 in
  if slot >= 0 && slot < Flight.max_slots then
    Flight.store slot (!clock ()) (event_code_unsafe ev) arg arg2

(** Record one event.  Zero-allocation no-op when disabled; when enabled,
    four int stores into the calling thread's ring. *)
let emit ev arg =
  if !flight_on then begin
    if not (Flight.emit_stub flight_rings (event_code_unsafe ev) arg 0) then
      Flight.emit_grow ~code:(event_code_unsafe ev) ~arg ~arg2:0
  end
  else if !on then emit_enabled ev arg 0

(** Like {!emit} with a correlation argument (block id, send-sequence id,
    preempted tid, …). *)
let emit2 ev arg arg2 =
  if !flight_on then begin
    if not (Flight.emit_stub flight_rings (event_code_unsafe ev) arg arg2)
    then Flight.emit_grow ~code:(event_code_unsafe ev) ~arg ~arg2
  end
  else if !on then emit_enabled ev arg arg2

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

type record = {
  tick : int;
  tid : int;
  seq : int;
  event : event;
  arg : int;
  arg2 : int;
}

(** Events dropped past the per-thread record bound, summed over
    threads. *)
let dropped () = Flight.dropped ()

let chronological acc =
  List.stable_sort
    (fun a b ->
      match compare a.tick b.tick with
      | 0 -> ( match compare a.tid b.tid with 0 -> compare a.seq b.seq | c -> c)
      | c -> c)
    acc

(** Pseudo thread id carrying the merged GC track of a flight trace.
    Outside the real tid range (rings cover tids -1..max_slots-2), so it
    can never collide with a worker; the Perfetto export names it "gc". *)
let gc_tid = 4096

(* The Runtime_events GC slice edges of a flight trace, on {!gc_tid}. *)
let gc_records () =
  List.mapi
    (fun seq (ns, kind, is_begin, dom) ->
      {
        tick = ns;
        tid = gc_tid;
        seq;
        event = (if is_begin then Gc_begin else Gc_end);
        arg = kind;
        arg2 = dom;
      })
    (Flight.gc_collected ())

(** [dump ()] decodes the store into a single chronological log, ordered
    by (tick, tid, per-thread sequence): a stable sort, so equal stamps
    across threads order deterministically by tid and a thread's own
    records never reorder.  Deterministic in fiber mode.  A {!Flight}
    trace is in calibrated CLOCK_MONOTONIC ns, joined by the GC track
    and rebased so the earliest record sits at t = 0 — absolute
    CLOCK_MONOTONIC values are boot-relative noise nobody wants in a
    trace file. *)
let dump () : record list =
  let acc = ref [] in
  Flight.iter_kept (fun slot seq t code arg arg2 ->
      acc :=
        { tick = t; tid = slot - 1; seq; event = event_of_code code; arg; arg2 }
        :: !acc);
  let records =
    if !Flight.identity_timebase then !acc
    else
      let records = List.rev_append (gc_records ()) !acc in
      let base = List.fold_left (fun m r -> min m r.tick) max_int records in
      List.map (fun r -> { r with tick = r.tick - base }) records
  in
  chronological records

(** Census identity of the trace store (asserted after every traced
    cell): the records the decode pass yields plus the counted drops
    must equal the events ever emitted.  Catches decode bugs and
    lane-fold races alike.  Returns [(ok, msg)] with a diagnostic
    message on failure, ["" ] otherwise. *)
let flight_census () =
  let merged = ref 0 in
  Flight.iter_kept (fun _ _ _ _ _ _ -> incr merged);
  let merged = !merged in
  let emitted = Flight.emitted ()
  and kept = Flight.kept ()
  and dropped = Flight.dropped () in
  if merged = kept && kept + dropped = emitted then (true, "")
  else
    ( false,
      Printf.sprintf
        "flight census: merged=%d kept=%d dropped=%d emitted=%d (want \
         merged=kept and kept+dropped=emitted)"
        merged kept dropped emitted )

(** [flight_checked ~who snap] — the end-of-cell step of every harness:
    when tracing is on, fail with [who]'s prefix unless {!flight_census}
    holds, and fold the per-thread drop counts into [snap]'s
    [trace_dropped].  [snap] unchanged otherwise. *)
let flight_checked ~who (snap : Stats.snapshot) =
  if not !on then snap
  else begin
    let ok, msg = flight_census () in
    if not ok then failwith (who ^ ": " ^ msg);
    { snap with Stats.trace_dropped = dropped () }
  end

let record_to_string r =
  Printf.sprintf "%8d  t%-3d  %-16s %d %d" r.tick r.tid (event_name r.event)
    r.arg r.arg2

(* ------------------------------------------------------------------ *)
(* Persistence (the on-disk form)                                      *)
(* ------------------------------------------------------------------ *)

(* One line per record, stable integer fields only, so the same seed
   yields byte-identical files — the determinism tests compare these
   bytes.  Codes (not names) keep the format append-only: new events
   never reflow old lines. *)
let file_magic = "# smrbench-trace v2: tick tid seq code arg arg2"

(* Flight traces tag their timebase with an extra header comment so the
   analyzer can label percentiles in ns instead of ticks.  Fiber traces
   write no tag (and [read_unit] defaults to "tick"), keeping their
   on-disk bytes identical to the pre-flight format. *)
let unit_header u = "# unit: " ^ u

let write_channel ?(unit_ = "tick") oc records =
  output_string oc file_magic;
  output_char oc '\n';
  if unit_ <> "tick" then begin
    output_string oc (unit_header unit_);
    output_char oc '\n'
  end;
  List.iter
    (fun r ->
      Printf.fprintf oc "%d %d %d %d %d %d\n" r.tick r.tid r.seq
        (event_code r.event) r.arg r.arg2)
    records

(** [to_file ?unit_ path records] writes a chronological log (usually
    {!dump}'s result) in the line format {!read_file} parses, tagged with
    the timestamp unit when it is not the default virtual tick. *)
let to_file ?unit_ path records =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      write_channel ?unit_ oc records)

(** Timestamp unit recorded in a trace file's header: ["ns"] for merged
    flight traces, ["tick"] otherwise. *)
let read_unit path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let u = ref "tick" in
      (try
         let continue = ref true in
         while !continue do
           let line = input_line ic in
           if line = "" || line.[0] = '#' then begin
             let prefix = "# unit: " in
             let pl = String.length prefix in
             if String.length line > pl && String.sub line 0 pl = prefix then begin
               u := String.sub line pl (String.length line - pl);
               continue := false
             end
           end
           else continue := false
         done
       with End_of_file -> ());
      !u)

(** [read_file path] parses a file written by {!to_file}.  Raises
    [Failure] on malformed input. *)
let read_file path : record list =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let acc = ref [] in
      (try
         while true do
           let line = input_line ic in
           if line <> "" && line.[0] <> '#' then
             Scanf.sscanf line "%d %d %d %d %d %d"
               (fun tick tid seq code arg arg2 ->
                 acc :=
                   { tick; tid; seq; event = event_of_code code; arg; arg2 }
                   :: !acc)
         done
       with End_of_file -> ());
      List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Perfetto export                                                     *)
(* ------------------------------------------------------------------ *)

(* Span classification for the Chrome trace-event JSON ("B"/"E" pairs per
   thread track; everything else becomes a thread-scoped instant).  The
   "E" name is taken from the matching "B" by the viewer, so ends only
   need ph/ts/tid. *)
type phase = B of string | E | I of string

let phase_of = function
  | Cs_begin -> B "critical-section"
  | Cs_end -> E
  | Checkpoint_begin -> B "checkpoint"
  | Checkpoint -> E
  | Scan_begin -> B "scan"
  | Scan_end -> E
  | Flush_begin -> B "flush"
  | Flush_end -> E
  | Op_begin -> B "op"
  | Op_end -> E
  | Gc_begin -> B "gc"
  | Gc_end -> E
  | ev -> I (event_name ev)

(** [export_perfetto oc records] writes Chrome trace-event JSON (loadable
    at ui.perfetto.dev): one track per thread id, ts = {!Sched.tick}
    (displayed as µs), begin/end spans for the bracketed phases and
    thread-scoped instants for point events, with [arg]/[arg2] preserved
    under "args".  A crashed or deadline-aborted fiber can leave a span
    open; viewers render it to end-of-trace. *)
let export_perfetto oc records =
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  output_string oc
    "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"args\":{\"name\":\"smrbench\"}}";
  let tids = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace tids r.tid ()) records;
  Hashtbl.iter
    (fun tid () ->
      let name =
        if tid < 0 then "main"
        else if tid = gc_tid then "gc"
        else Printf.sprintf "worker-%d" tid
      in
      Printf.fprintf oc
        ",\n\
         {\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
        (tid + 1) name)
    tids;
  List.iter
    (fun r ->
      let tid = r.tid + 1 in
      match phase_of r.event with
      | B name ->
          (* The GC span's display name carries the collection kind. *)
          let name =
            match r.event with
            | Gc_begin -> if r.arg = 1 then "major-gc" else "minor-gc"
            | _ -> name
          in
          Printf.fprintf oc
            ",\n\
             {\"ph\":\"B\",\"name\":\"%s\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"args\":{\"arg\":%d,\"arg2\":%d}}"
            name tid r.tick r.arg r.arg2
      | E ->
          Printf.fprintf oc
            ",\n\
             {\"ph\":\"E\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"args\":{\"arg\":%d,\"arg2\":%d}}"
            tid r.tick r.arg r.arg2
      | I name ->
          Printf.fprintf oc
            ",\n\
             {\"ph\":\"i\",\"s\":\"t\",\"name\":\"%s\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"args\":{\"arg\":%d,\"arg2\":%d}}"
            name tid r.tick r.arg r.arg2)
    records;
  output_string oc "\n]}\n"

let perfetto_to_file path records =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      export_perfetto oc records)
