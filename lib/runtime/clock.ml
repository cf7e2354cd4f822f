(** Wall-clock and duration helpers for the measurement harness. *)

(** Monotonic-enough time in seconds.  [Unix.gettimeofday] is sufficient for
    the 0.1–10 s windows the harness measures; per-op latencies use
    {!now_ns}. *)
let now = Unix.gettimeofday

external now_ns : unit -> int = "hpbrcu_clock_monotonic_ns" [@@noalloc]
(** [now_ns ()] — [CLOCK_MONOTONIC] in integer nanoseconds (C stub).  The
    latency clock of the Domains backend: unlike [int_of_float (now () *.
    1e9)] it cannot step backwards under NTP and never round-trips through
    a float, so histogram samples are monotone and allocation-free.  The
    epoch is arbitrary (boot time on Linux); only differences mean
    anything. *)

external raw_ticks : unit -> int = "hpbrcu_clock_raw_ticks" [@@noalloc]
(** [raw_ticks ()] — the hardware cycle counter (TSC / CNTVCT_EL0), in
    unscaled ticks of an arbitrary constant rate; falls back to
    {!now_ns} on ISAs without one.  Reads in ~5–15 ns where {!now_ns}
    costs ~35 ns, which is what keeps an armed flight-recorder emit under
    its per-event gate.  Only useful through a calibration against
    {!now_ns} (see {!Flight}): the epoch and the unit are both
    meaningless on their own. *)

external flight_set_slot : int -> unit = "hpbrcu_flight_set_slot" [@@noalloc]
(** [flight_set_slot s] mirrors the caller's worker slot (tid + 1; 0 =
    outside any worker) into a C thread-local so {!ticks_and_slot} can
    return it without a [Domain.DLS] lookup.  Set by the Domains backend
    at worker start/end; fibers never need it (the flight recorder is a
    Domains-only sink). *)

external flight_rebase : int -> unit = "hpbrcu_flight_rebase" [@@noalloc]
(** [flight_rebase mask] captures the current tick counter as the zero
    of {!ticks_and_slot}'s rebased timebase and stores [mask] (the
    flight-ring capacity minus one) for the fused C emit.  Call once at
    arm time, before workers spawn: the rebased ticks must fit in 54
    bits so the packed representation never overflows. *)

external ticks_and_slot : unit -> int = "hpbrcu_flight_ticks_slot"
  [@@noalloc]
(** [ticks_and_slot ()] — one fused call for the armed emit hot path:
    [(ticks_since_rebase lsl 9) lor slot].  Decode with [asr 9] /
    [land 511]. *)

(** [sleep_ns ns] — park the calling thread for at least [ns] nanoseconds
    (best effort; the OS rounds short sleeps up to its timer slack).  The
    wall-clock dual of a simulator [Sched.stall]: domains-mode fault
    stalls and watchdog probe pacing go through here so the denominations
    stay in one place. *)
let sleep_ns ns = if ns > 0 then Unix.sleepf (float_of_int ns *. 1e-9)

(** [time f] runs [f ()] and returns [(result, elapsed_seconds)]. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** Pretty-print a duration. *)
let pp_span ppf s =
  if s < 1e-6 then Fmt.pf ppf "%.0fns" (s *. 1e9)
  else if s < 1e-3 then Fmt.pf ppf "%.1fus" (s *. 1e6)
  else if s < 1.0 then Fmt.pf ppf "%.1fms" (s *. 1e3)
  else Fmt.pf ppf "%.2fs" s
