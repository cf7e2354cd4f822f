(** Type-stable free pool (VBR's custom allocator).

    VBR reclaims blocks {e immediately} into a per-type pool and relies on
    version numbers to detect readers that raced with reuse.  The paper
    notes VBR "benefits significantly from its customized memory allocator,
    which does not return memory blocks to the operating system"; this pool
    plays that role.  It is a Treiber stack over immutable list cells —
    lock-free, and the cells themselves are ordinary GC'd values.

    CAS failures back off with bounded randomized delays (a jittered,
    capped exponential) instead of a bare yield: under a chaos-mode
    contention storm every contender retrying at the same cadence can
    livelock each other for a long time, while jitter decorrelates them.
    Retries are counted in a {!Stats.Counter} so the harness can see
    contention.  In fiber mode CAS failures cannot happen at all (fibers
    switch only at yields, never between a load and its CAS), so the
    backoff RNG never perturbs deterministic runs. *)

module Sched = Hpbrcu_runtime.Sched
module Stats = Hpbrcu_runtime.Stats
module Fault = Hpbrcu_runtime.Fault

type 'a t = { free : 'a list Atomic.t; recycled : int Atomic.t; fresh : int Atomic.t }

let create () = { free = Atomic.make []; recycled = Atomic.make 0; fresh = Atomic.make 0 }

(* Global across pools: contention is a property of the run, not of one
   type's free list. *)
let retries = Stats.Counter.make ()

let cas_retries () = Stats.Counter.value retries
let reset_stats () = Stats.Counter.reset retries

(* Cheap xorshift for backoff jitter only; racy updates are harmless (any
   value is a fine jitter source) and it is never consulted in fiber mode. *)
let jitter_state = Atomic.make 0x2545F4914F6CDD1D

let backoff attempt =
  Stats.Counter.incr retries;
  let s = Atomic.get jitter_state in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  Atomic.set jitter_state s;
  (* 1 .. 2^min(attempt,6) yields: bounded, exponentially growing cap. *)
  let cap = 1 lsl min attempt 6 in
  let n = 1 + (s land max_int) mod cap in
  for _ = 1 to n do
    Sched.yield ();
    (* [yield] does not pause on domains; a backoff must. *)
    if not (Sched.fiber_mode ()) then Domain.cpu_relax ()
  done

let push t x =
  let rec go attempt =
    let old = Atomic.get t.free in
    if not (Atomic.compare_and_set t.free old (x :: old)) then begin
      backoff attempt;
      go (attempt + 1)
    end
  in
  go 0

let pop t =
  let rec go attempt =
    match Atomic.get t.free with
    | [] -> None
    | x :: rest as old ->
        if Atomic.compare_and_set t.free old rest then Some x
        else begin
          backoff attempt;
          go (attempt + 1)
        end
  in
  go 0

(** [acquire t] returns a recycled node if one is available ([None] means
    the caller must allocate fresh).  The caller is responsible for
    reanimating the embedded {!Block.t} (the VBR scheme does this so the
    era/version bookkeeping stays in one place).  An injected
    [Exhaust_pool] fault makes this miss even when the free list is
    non-empty, exercising the fresh-allocation path under reuse
    pressure. *)
let acquire t =
  if Fault.active () && Fault.on_pool_acquire ~tid:(Sched.self ()) then begin
    Atomic.incr t.fresh;
    None
  end
  else
    match pop t with
    | Some x ->
        Atomic.incr t.recycled;
        Some x
    | None ->
        Atomic.incr t.fresh;
        None

(** [release t x] returns [x] to the pool for reuse. *)
let release t x = push t x

(** [free_hook ~recycles t x] — the [free] callback to retire [x] with:
    return it to [t] after reclamation under a recycling scheme, and no
    callback at all otherwise, so non-recycling retires allocate no
    closure. *)
let free_hook ~recycles t x =
  if recycles then Some (fun () -> release t x) else None

let recycled t = Atomic.get t.recycled
let fresh_allocs t = Atomic.get t.fresh
let size t = List.length (Atomic.get t.free)
