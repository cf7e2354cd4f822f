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
    In fiber mode CAS failures cannot happen at all (fibers
    switch only at yields, never between a load and its CAS), so the
    backoff RNG never perturbs deterministic runs. *)

module Sched = Hpbrcu_runtime.Sched
module Fault = Hpbrcu_runtime.Fault

type 'a t = { free : 'a list Atomic.t; recycled : int Atomic.t }

let create () = { free = Atomic.make []; recycled = Atomic.make 0 }

(* Cheap xorshift for backoff jitter only; racy updates are harmless (any
   value is a fine jitter source) and it is never consulted in fiber mode. *)
let jitter_state = Atomic.make 0x2545F4914F6CDD1D

let backoff attempt =
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
    the caller must allocate fresh); {!reuse} reanimates its block.  An
    injected [Exhaust_pool] fault makes this miss even when the free list
    is non-empty, exercising the fresh-allocation path under reuse
    pressure. *)
let acquire t =
  if Fault.active () && Fault.on_pool_acquire ~tid:(Sched.self ()) then None
  else
    match pop t with
    | Some x ->
        Atomic.incr t.recycled;
        Some x
    | None -> None

(** [release t x] returns [x] to the pool for reuse. *)
let release t x = push t x

(* The life cycle of a node a structure may draw from a pool: VBR's
   reuse-or-allocate decision, written once.  [recycles] is the scheme's
   [recycles] flag (a scheme that does not recycle never touches a pool)
   and [blk] projects a node's block. *)

(** [reuse ~recycles t ~blk ~era] returns a pooled node reanimated at
    [era], or [None] when the caller must build a node born at [era] (IBR
    and VBR compare lifetimes by its birth era).  Reuse is cross-era only
    (see VBR's module comment): the block must have been retired before
    [era].  The caller reads [era] before the pop, so on
    domains another thread may advance the era and retire (and recycle)
    a node after that read; such a node, retired at or after [era], goes
    back to the pool.  A reused node is thus always born strictly after
    its retirement.  The caller resets the node's fields. *)
let reuse ~recycles t ~blk ~era =
  if not recycles then None
  else
    match acquire t with
    | Some n when Block.retire_era (blk n) < era ->
        Alloc.reanimate (blk n) ~era;
        Some n
    | Some n ->
        release t n;
        None
    | None -> None

(** [discard ~recycles t ~blk n] gives back a node that was allocated but
    never published: to the pool under a recycling scheme, otherwise to
    the allocator as abandoned, or the leak-at-quiescence oracle
    (DESIGN.md §11) would count it as stranded by a lost retirement. *)
let discard ~recycles t ~blk n =
  if recycles then release t n else Alloc.abandon (blk n)

(** [recycle ~recycles t n] returns a node the structure has just
    retired to [t] under a recycling scheme, and does nothing otherwise.
    The structure calls it right after the scheme's [retire], which under
    a recycling scheme has already reclaimed the block (the [recycles]
    contract of the scheme interface). *)
let recycle ~recycles t n = if recycles then release t n

let recycled t = Atomic.get t.recycled
let size t = List.length (Atomic.get t.free)
