(** The unified safe-memory-reclamation interface.

    A scheme is a set of operations over an explicit reclamation domain:

    - {!SCHEME} is the scheme itself.  Its [domain] is a {e value}
      ({!SCHEME.create} / {!SCHEME.destroy}), in the style of P0484's
      [rcu_domain] and Hyaline's per-structure contexts: registries,
      epochs, retired queues, signal routing and statistics all hang off
      the domain, so one process can run any number of independent
      instances of the same scheme (the sharded map in
      [lib/ds/sharded_hashmap.ml] depends on exactly this).
    - {!S} is {!SCHEME} plus one caller-owned domain [it] ({!Bind}): the
      surface every data structure in [lib/ds] is a functor over.  The
      caller creates the domain, binds it, and destroys it when done;
      [Hpbrcu_schemes.Schemes.with_domain] packages that lifecycle.

    The phase discipline underneath is unchanged and is what the paper
    compares:

    - {!SCHEME.op} wraps a whole operation.  RCU pins an epoch for its entire
      extent and IBR opens its reservation interval; VBR and PEBR put
      their announce-and-restart loop here, around a private exception
      that only their own [read]/[deref] raise.  Every other scheme runs
      the body directly: no retry frame, no closure.
    - {!SCHEME.read} mediates every traversal link load.  HP-family schemes run
      the ProtectFrom protect/fence/revalidate loop (Algorithm 1) here,
      into a ring of {!hop_ring} shields the handle owns — the "per-node
      overhead" of Table 2; coarse schemes do a plain load (plus signal
      poll and use-after-free check).  The data structure passes no
      shield: per-hop protection is the scheme's business.
    - {!SCHEME.traverse} is the paper's Traverse combinator (Algorithm 7): the
      data structure supplies a budgeted {!walker}, and each scheme
      instantiates its phase structure by the budgets and checkpoints it
      drives the walker with: a single unbounded critical
      section (RCU), per-[checkpoint_steps] alternation (HP-RCU, Algorithm
      3's MaxSteps), rollback-and-resume with double-buffered checkpoints
      every [checkpoint_steps] (HP-BRCU, Algorithm 7's BackupPeriod), or
      restart-from-entry (NBR) — which is precisely the difference that
      produces the paper's long-running-operation results.
    - {!SCHEME.crit} / {!SCHEME.mask} expose critical sections and abort-masked
      regions (Algorithms 5–6) for code written directly against a scheme.
    - {!SCHEME.retire} hands a block to the scheme; HP-(B)RCU implements it as
      the two-step defer-then-hp-retire (Algorithm 4).  Retirement is
      {e intrusive}: the deferred work is recorded as a
      {!Hpbrcu_alloc.Block.t} plus an epoch stamp in a preallocated entry
      (P0484's [rcu_obj_base] header, not a per-retire closure), and the
      block header carries the owning domain's id so the allocator debits
      the right domain's unreclaimed watermark at reclaim time.

    Concurrency/rollback contract: a scheme's [Rollback] (scheme-internal)
    unwinds to the nearest {!SCHEME.crit}, and VBR's and PEBR's restart unwinds
    to their own {!SCHEME.op}; neither escapes the scheme.  Data-structure code
    must therefore be abort-rollback-safe inside critical sections (paper
    R3), and inside a whole operation under VBR and PEBR: shared-memory
    writes that cannot be repeated go inside {!SCHEME.mask}. *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc

(** A data structure's traversal, handed to {!SCHEME.traverse} (paper
    Algorithm 7's cursor and step, turned inside out so that the scheme
    drives budgets instead of single steps).  Every structure gets its
    walker from the session skeleton ([lib/ds/session.ml],
    [Session.Make]), the one implementation of [init]'s installing,
    [save], [restore] and [protect] below: one walker per session,
    reused for every traversal.  The {e live cursor} and the answer live
    in the session, and each field below acts on them:

    - [init ()] loads the entry-point cursor into the session, in one
      record it allocates afresh: the live cursor, which the walk writes
      back to when it stops.  The rule is to write only into cursor
      records born in the running traversal: a young record keeps those
      writes on the write barrier's fast path, while writing them into
      the session's long-lived records read [hash] [op_p50_ns] +11.6%
      over 10 pairs (EXPERIMENTS.md, "Fresh cursor records");
    - [walk n] advances at most [n] steps and returns {!walk_more} (the
      budget is used up), {!walk_done} (reached the destination) or
      {!walk_fail} (the cursor was invalidated; the operation restarts).
      Inside [walk] the cursor travels as arguments of a tail-recursive
      loop and is written back to the session only when the walk stops,
      so an ordinary step allocates nothing and stores no pointer into
      the heap;
      [walk n] is observably [n] calls of [walk 1].  It must be
      abort-rollback-safe except inside {!SCHEME.mask};
    - [save i] / [restore i] copy the live cursor into checkpoint slot
      [i] (0 or 1) or back from it; [restore] then revalidates the
      cursor (paper R1, §3.3) and returns whether it may be resumed.
      A traversal's first [save i] allocates slot [i] and later ones
      copy into it, so a walk that never checkpoints (most [get]s)
      allocates no slot and a walk of any length at most two; a scheme
      calls [restore i] only after a [save i] of the same traversal;
    - [protect sh] publishes the live cursor into the shield array [sh]
      (a scheme's checkpoint: hops between checkpoints are protected, if
      at all, by {!SCHEME.read}'s own ring).  A scheme calls it only for a
      cursor that outlives the critical section it was read in: one it
      resumes from in a later section, or, under [~hold:true], the
      destination the caller keeps using;
    - [resumable] is [false] when [restore] can never answer [true] (the
      cursor cannot be revalidated, as in EFRB).  A scheme that ends its
      critical sections voluntarily (HP-RCU) must then walk to the
      destination inside one section: every resume would restart the
      walk, and a walk longer than one section would never finish;
    - [steps] is bumped once per step attempted, before the step's first
      read, so a count taken across a rollback that lands mid-walk stays
      exact. *)
type 'sh walker = {
  init : unit -> unit;
  walk : int -> int;
  save : int -> unit;
  restore : int -> bool;
  protect : 'sh array -> unit;
  resumable : bool;
  mutable steps : int;
}

(** K of the HP paper: how many hop shields a handle of a scheme whose
    {!SCHEME.read} publishes protection (HP, HP++, PEBR, HE) rotates through.
    The most any structure's cursor holds across a hop (NMTree, EFRB). *)
let hop_ring = 5

(** [walk]'s answers. *)
let walk_more = 0

let walk_done = 1
let walk_fail = 2

(** A walker that fails at once: the placeholder a scheme handle holds
    until its first traversal. *)
let idle_walker () =
  {
    init = ignore;
    walk = (fun _ -> walk_fail);
    save = ignore;
    restore = (fun _ -> false);
    protect = ignore;
    resumable = true;
    steps = 0;
  }

(* ------------------------------------------------------------------ *)
(* Domain identity                                                     *)
(* ------------------------------------------------------------------ *)

(** The scheme-independent core of a reclamation domain: identity, config,
    the {!Hpbrcu_alloc.Alloc.Owner} watermark slot, handle census and the
    destroy protocol.  Scheme [domain] records embed one of these
    ({!SCHEME.dom} projects it); composite schemes (HP-RCU = epochs +
    hazard pointers) share a single [Dom.t] between their two halves so
    the pair reads as one domain to the allocator and the signal fence. *)
module Dom = struct
  type t = {
    id : int;
        (** {!Alloc.Owner} slot; doubles as the {!Hpbrcu_runtime.Signal}
            routing id, so a neutralization storm in one domain cannot
            page another domain's readers *)
    label : string;  (** human-readable, e.g. ["RCU#3:shard2"] *)
    scheme : string;  (** base scheme name *)
    config : Config.t;
    live_handles : int Atomic.t;
    destroyed : bool Atomic.t;
    leaked_at_destroy : int Atomic.t;
        (** leak census taken by {!finish_destroy}: blocks the domain
            retired but could not reclaim even at teardown (quarantined
            batches of crashed readers); valid once destroyed *)
  }

  (** Raised by operations on a destroyed domain (register after destroy,
      double destroy in strict callers). *)
  exception
    Destroyed of { scheme : string; id : int; label : string }

  (** Raised by {!SCHEME.destroy} (without [~force]) when handles are
      still registered: tearing the domain down under them would leak
      their deferred batches silently.  The typed error carries the census
      so the caller can report who is still alive. *)
  exception
    Domain_active of { scheme : string; id : int; label : string; live : int }

  let seq = Atomic.make 0

  let make ~scheme ?label config =
    let n = Atomic.fetch_and_add seq 1 + 1 in
    let label =
      match label with Some l -> l | None -> Printf.sprintf "%s#%d" scheme n
    in
    {
      id = Alloc.Owner.fresh ~label;
      label;
      scheme;
      config;
      live_handles = Atomic.make 0;
      destroyed = Atomic.make false;
      leaked_at_destroy = Atomic.make 0;
    }

  let id t = t.id
  let label t = t.label
  let config t = t.config
  let destroyed t = Atomic.get t.destroyed
  let live_handles t = Atomic.get t.live_handles

  let check_alive t =
    if Atomic.get t.destroyed then
      raise (Destroyed { scheme = t.scheme; id = t.id; label = t.label })

  (** Handle census, called by the schemes' register/unregister. *)
  let on_register t =
    check_alive t;
    Atomic.incr t.live_handles

  let on_unregister t = ignore (Atomic.fetch_and_add t.live_handles (-1))

  (** [tag_retire t b] — intrusive ownership stamp: record in the block
      header that [t] is responsible for reclaiming [b], and credit [t]'s
      unreclaimed watermark.  Called {e after} the Live→Retired transition
      so strict-mode double-retire raises before any accounting. *)
  let[@inline] tag_retire t (b : Block.t) =
    Block.set_owner b t.id;
    Alloc.Owner.on_retire t.id;
    Hpbrcu_runtime.Trace.emit2 Hpbrcu_runtime.Trace.Owner_retire t.id
      (Block.id b)

  (** Leak census: blocks this domain retired and has not reclaimed. *)
  let unreclaimed t = Alloc.Owner.unreclaimed t.id

  let peak_unreclaimed t = Alloc.Owner.peak t.id

  (** First half of the destroy protocol: flip the destroyed flag exactly
      once.  Raises {!Destroyed} when the domain was already destroyed
      (double-destroy is a lifecycle error, uniformly across schemes — use
      {!destroyed} to probe first when teardown paths may overlap) and
      {!Domain_active} when handles are live and [force] is off.  The flip
      is a CAS so racing destroyers get exactly one winner; losers see the
      same typed {!Destroyed} error. *)
  let begin_destroy ?(force = false) t =
    let already () =
      raise (Destroyed { scheme = t.scheme; id = t.id; label = t.label })
    in
    if Atomic.get t.destroyed then already ();
    let live = Atomic.get t.live_handles in
    if live > 0 && not force then
      raise
        (Domain_active { scheme = t.scheme; id = t.id; label = t.label; live });
    if not (Atomic.compare_and_set t.destroyed false true) then already ()

  (** Second half, after the scheme has drained its queues: take the leak
      census, then release the watermark slot back to the allocator's free
      pool. *)
  let finish_destroy t =
    Atomic.set t.leaked_at_destroy (Alloc.Owner.unreclaimed t.id);
    Alloc.Owner.release t.id

  (** Blocks this domain could not reclaim even at teardown (only valid
      after destroy). *)
  let leak_census t = Atomic.get t.leaked_at_destroy

  (** Identification fields for a scheme's {!Stats.snapshot}. *)
  let stamp_stats t (s : Hpbrcu_runtime.Stats.snapshot) =
    { s with Hpbrcu_runtime.Stats.domain_id = t.id; domain_label = t.label }
end

(* ------------------------------------------------------------------ *)
(* The scheme interface                                                *)
(* ------------------------------------------------------------------ *)

module type SCHEME = sig
  val scheme : string
  (** Base scheme name ("HP-BRCU"); config-dependent display names (NBR vs
      NBR-Large) come from [caps config]. *)

  val caps : Config.t -> Caps.t
  (** Robustness/applicability metadata (Tables 1 and 2) for a domain
      running under [config]; a bound scheme's are {!val-caps} of it. *)

  (** {1 Domain lifecycle} *)

  type domain
  (** One independent reclamation universe: registry, epochs/eras, retired
      queues, signal routing and counters.  Domains of the same scheme
      never share mutable state. *)

  val create : ?label:string -> Config.t -> domain

  val destroy : ?force:bool -> domain -> unit
  (** Tear the domain down: drain what can be drained, release registry
      and watermark slots.  Raises {!Dom.Domain_active} if handles are
      still registered and [force] is false ([force] is for crash/chaos
      harnesses that know readers are dead), and {!Dom.Destroyed} on a
      domain that was already destroyed — double-destroy is a lifecycle
      error, uniform across all schemes; probe {!Dom.destroyed} first when
      teardown paths may legitimately overlap.  After destroy,
      {!Dom.leak_census} of the domain's {!dom} is the leak census:
      blocks stranded by crashed readers. *)

  val dom : domain -> Dom.t

  (** {1 Thread lifecycle} *)

  type handle
  (** Per-thread participant state, bound to the domain that registered
      it. *)

  val register : domain -> handle
  (** Raises {!Dom.Destroyed} on a destroyed domain. *)

  val unregister : handle -> unit
  (** Drain the handle's deferred work (best effort) and release its
      slots. *)

  val flush : handle -> unit
  (** Force-drain this handle's retired/deferred batches so that, once all
      handles have flushed and unregistered, every retired block can be
      reclaimed.  Harness calls it at the end of a measurement window. *)

  (** {1 Shields (hazard-pointer slots)} *)

  type shield

  val new_shield : handle -> shield

  val protect : shield -> Block.t -> unit
  (** Publish protection of a block (no validation; paper R2 situations);
      {!Hpbrcu_alloc.Block.none} empties the slot.  No-op in schemes
      without per-node protection. *)

  val clear : shield -> unit

  (** {1 Phases} *)

  val op : handle -> (unit -> 'a) -> 'a
  (** Wrap one data-structure operation (the unit of linearization).  VBR
      and PEBR re-run the body from scratch when a [read]/[deref] inside
      it finds the operation invalidated; every other scheme runs it
      once. *)

  val crit : handle -> (unit -> 'a) -> 'a
  (** Critical section.  For rollback-capable schemes the body may run many
      times (it is the [sigsetjmp] checkpoint); it must be
      abort-rollback-safe (paper §4.1). *)

  val mask : handle -> (unit -> 'a) -> 'a
  (** Abort-masked region (Algorithm 6): within [crit], delays a concurrent
      neutralization to the region's exit so the body's writes are never
      torn.  Identity for schemes without signals. *)

  (** {1 Mediated memory accesses} *)

  val read :
    handle -> src:Block.t -> hdr:('n -> Block.t) -> 'n Link.cell -> 'n Link.t
  (** [read h ~src ~hdr cell] loads a link during traversal.
      [src] is the block of the node owning [cell] (checked against
      use-after-free), or {!Hpbrcu_alloc.Block.none} for a cell owned by
      no managed node; [hdr] projects the target node's block for
      protection.  HP, HP++ and PEBR: ProtectFrom loop into the next
      shield of the handle's own ring of {!hop_ring}; HE likewise
      reserves the era in its ring.  The target therefore stays protected
      across the handle's next [hop_ring - 1] reads; a cursor that holds
      more nodes than that across hops keeps the rest in lasting shields
      of its own.  BRCU-family: plain load, after polling for
      neutralization.  VBR: plain load, then era validation (may restart
      the enclosing {!op}). *)

  val deref : handle -> Block.t -> unit
  (** Declare an access to a node's fields other than its links (key,
      value).  Checks use-after-free, polls signals, validates eras.  Load
      the fields first, then call it: the validation after the load is
      what covers it (under VBR the node may be recycled in between).
      A structure needs it only for a node that no later [read ~src] of
      the same node checks: a walk that loads a node's key just before
      [read]ing that node's link is covered by the read, so list hops
      make none (DESIGN.md §9).  The node a walk stops at without
      reading its link (the lazy list's last node, NMTree's leaf) and a
      node met outside a walk (HList's cleanup sweep) still do. *)

  (** {1 Retirement and allocation} *)

  val retire : handle -> ?patch:Block.t list -> ?claimed:bool -> Block.t -> unit
  (** Hand an unlinked node to the scheme; the block itself is the unit
      of deferred work, queued until the scheme reclaims it.  [patch]
      lists the node's current successors: HP++ keeps them protected on the
      retirer's behalf until this block is reclaimed, which is what makes
      optimistic traversal safe under HP++ (its extra per-node cost);
      other schemes ignore it.  [claimed] means the caller already won the
      Live→Retired transition via {!Hpbrcu_alloc.Alloc.try_retire} (used
      when several threads race to detach one region). *)

  val recycles : bool
  (** True for schemes (VBR) that reclaim into a type-stable pool; data
      structures then allocate via their pool and mark blocks recyclable.
      The contract: a recycling scheme has reclaimed the block by the time
      {!retire} returns, so the structure hands the node straight back to
      its pool ({!Hpbrcu_alloc.Pool.recycle}). *)

  val patches : bool
  (** True for schemes (HP++) whose {!retire} consumes [patch]: a
      structure builds a node's patch list only under such a scheme. *)

  val current_era : domain -> int
  (** The domain's global era for birth-stamping recycled nodes (VBR);
      [0] elsewhere. *)

  (** {1 Traversal} *)

  val traverse :
    handle ->
    hold:bool ->
    prot:shield array ->
    backup:shield array ->
    shield walker ->
    bool
  (** The Traverse combinator (Algorithm 7): drive the walker [w] from its
      entry point to its destination, choosing the budgets and the
      checkpoints ({!walker}).  [prot] and [backup] are two equal-length
      shield arrays owned by the caller.  On [true] the walker's live
      cursor is the destination and its answer is in the session.
      [hold] says whether the caller uses that cursor after [traverse]
      returns: with [~hold:true] (an update's write phase) one of [prot] /
      [backup] holds a complete protection of it until the next
      [traverse] or [clear]; with [~hold:false] (a lookup whose answer
      was computed during the walk) the scheme publishes only what it
      resumes from, so a walk that ends inside its first critical section
      stores no shield at all, and the caller must not dereference the
      cursor.  A pointer a section guards needs a hazard only if it
      outlives that section.  [false] means a walk failed or a resumed
      cursor could not be revalidated; the caller retries the
      operation. *)

  (** {1 Introspection} *)

  val stats : domain -> Hpbrcu_runtime.Stats.snapshot
  (** This domain's counters (epochs advanced, signals sent, restarts,
      ejections …) as a typed snapshot for tests and experiment reports,
      identified by [domain_id]/[domain_label].  Fields the scheme does
      not own stay at {!Hpbrcu_runtime.Stats.empty}'s zero; composite
      schemes merge their halves with {!Hpbrcu_runtime.Stats.add}. *)
end

(* ------------------------------------------------------------------ *)
(* A scheme bound to a domain                                          *)
(* ------------------------------------------------------------------ *)

(** A scheme together with one caller-owned domain: the surface every data
    structure in [lib/ds] is a functor over.  A structure registers with
    [S.register S.it] and reads its caps and name through {!val-caps}. *)
module type S = sig
  include SCHEME

  val it : domain
end

(** [caps (module S)] — the capabilities of [S] under its domain's config,
    [name] (the display name, NBR-Large included) among them. *)
let caps (module S : S) = S.caps (Dom.config (S.dom S.it))

(** [Bind (X) (D)] — view a caller-owned domain through {!S}, so the
    data-structure functors run inside an explicit domain — each shard of
    the sharded hashmap binds its own.  The domain's lifetime belongs to
    the caller. *)
module Bind (X : SCHEME) (D : sig
  val it : X.domain
end) : S = struct
  include X

  let it = D.it
end
