(** The unified safe-memory-reclamation interface.

    A scheme is a set of operations over an explicit reclamation domain:

    - {!SCHEME} is the scheme itself.  Its [domain] is a {e value}
      ({!SCHEME.create} / {!SCHEME.destroy}), in the style of P0484's
      [rcu_domain] and Hyaline's per-structure contexts: registries,
      epochs, retired queues, signal routing and statistics all hang off
      the domain, so one process can run any number of independent
      instances of the same scheme (the sharded-service architecture in
      [lib/ds/sharded_hashmap.ml] depends on exactly this).
    - {!S} is a scheme bound to one caller-owned domain ({!Bind}): the
      surface every data structure in [lib/ds] is a functor over.  The
      caller creates the domain, binds it, and destroys it when done;
      [Hpbrcu_schemes.Schemes.with_domain] packages that lifecycle.

    The phase discipline underneath is unchanged and is what the paper
    compares:

    - {!S.op} wraps a whole operation.  EBR pins an epoch for its entire
      extent; VBR/PEBR put their announce-and-retry loop here; others are
      transparent retry-on-{!S.Restart} loops.
    - {!S.read} mediates every traversal link load.  HP-family schemes run
      the ProtectFrom protect/fence/revalidate loop (Algorithm 1) here —
      the "per-node overhead" of Table 2; coarse schemes do a plain load
      (plus signal poll and use-after-free check).
    - {!S.traverse} is the paper's Traverse combinator (Algorithm 7): the
      data structure supplies a budgeted {!walker}, and each scheme
      instantiates its phase structure by the budgets and checkpoints it
      drives the walker with: a single unbounded critical
      section (RCU), per-[max_steps] alternation (HP-RCU, Algorithm 3),
      rollback-and-resume with double-buffered checkpoints (HP-BRCU), or
      restart-from-entry (NBR) — which is precisely the difference that
      produces the paper's long-running-operation results.
    - {!S.crit} / {!S.mask} expose critical sections and abort-masked
      regions (Algorithms 5–6) for code written directly against a scheme.
    - {!S.retire} hands a block to the scheme; HP-(B)RCU implements it as
      the two-step defer-then-hp-retire (Algorithm 4).  Retirement is
      {e intrusive}: the deferred work is recorded as a
      {!Hpbrcu_alloc.Block.t} plus an epoch stamp in a preallocated entry
      (P0484's [rcu_obj_base] header, not a per-retire closure), and the
      block header carries the owning domain's id so the allocator debits
      the right domain's unreclaimed watermark at reclaim time.

    Concurrency/rollback contract: scheme methods may raise two exceptions.
    [Rollback] (scheme-internal) unwinds to the nearest {!S.crit}; {!S.Restart}
    unwinds to {!S.op}.  Data-structure code must therefore be
    abort-rollback-safe inside critical sections (paper R3): shared-memory
    writes that cannot be repeated go inside {!S.mask}. *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc

(** A data structure's traversal, handed to {!S.traverse} (paper
    Algorithm 7's cursor and step, turned inside out so that the scheme
    drives budgets instead of single steps).  The structure builds one
    walker per session and reuses it for every traversal; the {e live
    cursor} and the answer live in the session, and each field below
    acts on them:

    - [init ()] loads the entry-point cursor into the session, into
      cursor records it allocates afresh: young records keep the few
      cursor writes a traversal makes (write-backs, slot copies) on the
      write barrier's fast path, where rewriting long-lived session
      records would cost a slow [caml_modify] each;
    - [walk n] advances at most [n] steps and returns {!walk_more} (the
      budget is used up), {!walk_done} (reached the destination) or
      {!walk_fail} (the cursor was invalidated; the operation restarts).
      Inside [walk] the cursor travels as arguments of a tail-recursive
      loop and is written back to the session only when the walk stops,
      so an ordinary step allocates nothing and stores no pointer into
      the heap;
      [walk n] is observably [n] calls of [walk 1].  It must be
      abort-rollback-safe except inside {!S.mask};
    - [save i] / [restore i] copy the live cursor into checkpoint slot
      [i] (0 or 1) or back from it; [restore] then revalidates the
      cursor (paper R1, §3.3) and returns whether it may be resumed;
    - [protect sh] publishes the live cursor into the shield array [sh];
    - [steps] is bumped once per step attempted, before the step's first
      read, so a count taken across a rollback that lands mid-walk stays
      exact. *)
type 'sh walker = {
  init : unit -> unit;
  walk : int -> int;
  save : int -> unit;
  restore : int -> bool;
  protect : 'sh array -> unit;
  mutable steps : int;
}

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
(* The primary, domain-valued scheme interface                         *)
(* ------------------------------------------------------------------ *)

module type SCHEME = sig
  val scheme : string
  (** Base scheme name ("HP-BRCU"); config-dependent display names (NBR vs
      NBR-Large) come from [caps config]. *)

  val caps : Config.t -> Caps.t
  (** Robustness/applicability metadata (Tables 1 and 2) for a domain
      running under [config]. *)

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

  val flush : handle -> unit

  val expedite : handle -> unit
  (** Supervision entry ({!Supervise}'s nudge rung): like {!flush}, but
      additionally pushes any stranded domain-global deferred work
      through immediately — for the BRCU family a forced advance that
      re-signals laggards past the force threshold even when this
      handle's own batch is empty.  Schemes with no global deferred queue
      alias it to {!flush}.  Never called by unsupervised paths, so
      schedules without a watchdog are byte-identical to pre-supervision
      runs. *)

  (** {1 Shields (hazard-pointer slots)} *)

  type shield

  val new_shield : handle -> shield
  val protect : shield -> Block.t -> unit
  val clear : shield -> unit

  (** {1 Phases} *)

  exception Restart

  val op : handle -> (unit -> 'a) -> 'a
  val crit : handle -> (unit -> 'a) -> 'a
  val mask : handle -> (unit -> 'a) -> 'a

  (** {1 Mediated memory accesses} *)

  val read :
    handle -> shield -> src:Block.t -> hdr:('n -> Block.t) -> 'n Link.cell -> 'n Link.t

  val deref : handle -> Block.t -> unit

  (** {1 Retirement and allocation} *)

  val retire :
    handle ->
    ?free:(unit -> unit) ->
    ?patch:Block.t list ->
    ?claimed:bool ->
    Block.t ->
    unit

  val recycles : bool

  val current_era : domain -> int

  (** {1 Traversal} *)

  val traverse :
    handle -> prot:shield array -> backup:shield array -> shield walker -> bool

  (** {1 Introspection} *)

  val stats : domain -> Hpbrcu_runtime.Stats.snapshot
  (** Typed counters for this domain only, identified by
      [domain_id]/[domain_label]. *)
end

(* ------------------------------------------------------------------ *)
(* A scheme bound to a domain                                          *)
(* ------------------------------------------------------------------ *)

module type S = sig
  val name : string

  val caps : Caps.t
  (** Robustness/applicability metadata (Tables 1 and 2). *)

  (** {1 Thread lifecycle} *)

  type handle
  (** Per-thread participant state. *)

  val register : unit -> handle
  val unregister : handle -> unit
  (** [unregister] drains the handle's deferred work (best effort) and
      releases its slots. *)

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

  exception Restart
  (** Coarse-grained operation restart: raised by [read]/[deref] in schemes
      that recover by re-running the whole operation (VBR, PEBR).  {!op}
      catches it. *)

  val op : handle -> (unit -> 'a) -> 'a
  (** Wrap one data-structure operation (the unit of linearization). *)

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
    handle -> shield -> src:Block.t -> hdr:('n -> Block.t) -> 'n Link.cell -> 'n Link.t
  (** [read h s ~src ~hdr cell] loads a link during traversal.
      [src] is the block of the node owning [cell] (checked against
      use-after-free), or {!Hpbrcu_alloc.Block.none} for a cell owned by
      no managed node; [hdr] projects the target node's block for
      protection.  HP-family: ProtectFrom loop into [s].  BRCU-family:
      plain load, after polling for neutralization.  VBR: plain load, then
      era validation (may raise {!Restart}). *)

  val deref : handle -> Block.t -> unit
  (** Declare an access to a node's immutable fields (key, value).  Checks
      use-after-free, polls signals, validates eras.  Call before touching
      fields of a node not just returned by [read]. *)

  (** {1 Retirement and allocation} *)

  val retire :
    handle ->
    ?free:(unit -> unit) ->
    ?patch:Block.t list ->
    ?claimed:bool ->
    Block.t ->
    unit
  (** Hand an unlinked node to the scheme.  [free] runs after the block is
      reclaimed (used by pooling schemes to recycle the node).  [patch]
      lists the node's current successors: HP++ keeps them protected on the
      retirer's behalf until this block is reclaimed, which is what makes
      optimistic traversal safe under HP++ (its extra per-node cost);
      other schemes ignore it.  [claimed] means the caller already won the
      Live→Retired transition via {!Hpbrcu_alloc.Alloc.try_retire} (used
      when several threads race to detach one region). *)

  val recycles : bool
  (** True for schemes (VBR) that reclaim into a type-stable pool; data
      structures then allocate via their pool and mark blocks recyclable. *)

  val current_era : unit -> int
  (** The global era for birth-stamping recycled nodes (VBR); [0]
      elsewhere. *)

  (** {1 Traversal} *)

  val traverse :
    handle -> prot:shield array -> backup:shield array -> shield walker -> bool
  (** The Traverse combinator (Algorithm 7): drive the walker [w] from its
      entry point to its destination, choosing the budgets and the
      checkpoints ({!walker}).  [prot] and [backup] are two equal-length
      shield arrays owned by the caller.  On [true] the walker's live
      cursor is the destination, its answer is in the session, and one of
      [prot] / [backup] holds a complete protection of that cursor until
      the next [traverse] or [clear].  [false] means a walk failed or a
      resumed cursor could not be revalidated; the caller retries the
      operation. *)

  (** {1 Introspection} *)

  val stats : unit -> Hpbrcu_runtime.Stats.snapshot
  (** Scheme counters (epochs advanced, signals sent, restarts, ejections …)
      as a typed snapshot for tests and experiment reports.  Fields the
      scheme does not own stay at {!Hpbrcu_runtime.Stats.empty}'s zero;
      composite schemes merge their halves with
      {!Hpbrcu_runtime.Stats.add}. *)
end

(* ------------------------------------------------------------------ *)
(* Binding a domain                                                    *)
(* ------------------------------------------------------------------ *)

(** [Bind (X) (D)] — view a caller-owned domain through {!S}, so the
    data-structure functors (which are written over {!S}) run inside an
    explicit domain — each shard of the sharded hashmap binds its own.
    The domain's lifetime belongs to the caller. *)
module Bind (X : SCHEME) (D : sig
  val it : X.domain
end) : S = struct
  let caps = X.caps (Dom.config (X.dom D.it))
  let name = caps.Caps.name

  type handle = X.handle

  let register () = X.register D.it
  let unregister = X.unregister
  let flush = X.flush

  type shield = X.shield

  let new_shield = X.new_shield
  let protect = X.protect
  let clear = X.clear

  exception Restart = X.Restart

  let op = X.op
  let crit = X.crit
  let mask = X.mask
  let read = X.read
  let deref = X.deref
  let retire = X.retire
  let recycles = X.recycles
  let current_era () = X.current_era D.it
  let traverse = X.traverse
  let stats () = X.stats D.it
end

(* ------------------------------------------------------------------ *)
(* P0484-style scoped guards                                           *)
(* ------------------------------------------------------------------ *)

(** Scoped-guard combinators over a domain-valued scheme, mirroring
    P0484's RAII types ([rcu_reader] ≈ {!with_session}+{!with_crit};
    [rcu_domain::retire] ≈ the intrusive {!SCHEME.retire}).  The phase
    guards are direct aliases of the scheme's own combinators — zero
    additional allocation per guarded region, which check.sh's allocation
    gate enforces — while {!with_session} pairs register/unregister
    exception-safely on the cold path. *)
module Scoped (X : SCHEME) = struct
  (** [with_session d f] — register a participant for the extent of [f].
      Cold path (slot allocation); don't wrap per-operation code in it. *)
  let with_session d f =
    let h = X.register d in
    Fun.protect ~finally:(fun () -> X.unregister h) (fun () -> f h)

  let with_op = X.op
  let with_crit = X.crit
  let with_mask = X.mask

  (** [with_flush h f] — run [f] and flush the handle's deferred batches
      on the way out, even on exceptions. *)
  let with_flush h f = Fun.protect ~finally:(fun () -> X.flush h) (fun () -> f h)
end

(* ------------------------------------------------------------------ *)
(* Watchdog wiring                                                     *)
(* ------------------------------------------------------------------ *)

(** [Supervise (X)] builds {!Hpbrcu_runtime.Watchdog} subjects over a
    scheme's domains — the glue between the generic escalation-ladder
    engine (which lives in the runtime and cannot see scheme types) and
    {!SCHEME}.  The domain is passed as an accessor [current] rather than
    a value because the recycle rung replaces the domain out from under
    the supervisor: after a recycle, the next probe must read the fresh
    domain, not the corpse. *)
module Supervise (X : SCHEME) = struct
  module W = Hpbrcu_runtime.Watchdog
  module Stats = Hpbrcu_runtime.Stats

  let dead_probe = { W.unreclaimed = 0; lag = 0; no_acks = 0 }

  (** Health sample: per-domain unreclaimed watermark from the allocator,
      worst epoch lag and cumulative [No_ack]s from the scheme's own
      counters.

      Blocks parked on a scheme's leaked-but-bounded quarantine list are
      subtracted from the watermark: they are the scheme's {e declared}
      residue of an already-handled crash (BRCU quarantines the dead
      reader and strands only the batches it pinned — the paper's
      bounded-leak claim), and no ladder rung short of a recycle could
      ever free them.  Counting them would escalate every crash to a
      recycle; skipping them is what separates bounded schemes (heal at
      the nudge rung) from unbounded ones (watermark keeps climbing, so
      the ladder rightly escalates). *)
  let probe current () =
    let d = current () in
    let meta = X.dom d in
    if Dom.destroyed meta then dead_probe
    else
      let s = X.stats d in
      {
        W.unreclaimed = max 0 (Dom.unreclaimed meta - s.Stats.leaked);
        lag = s.Stats.max_epoch_lag;
        no_acks = s.Stats.signal_timeouts;
      }

  (** Rung 1: register a transient participant and expedite — for epoch
      schemes a forced advance-and-collect, for HP-family a scan, for
      BRCU-family a forced advance that re-signals laggards past
      [force_threshold] even though the transient handle's own batch is
      empty. *)
  let nudge current () =
    let d = current () in
    if not (Dom.destroyed (X.dom d)) then begin
      let h = X.register d in
      Fun.protect ~finally:(fun () -> X.unregister h) (fun () -> X.expedite h)
    end

  (** Rung 2: same mechanism, but report whether it moved the watermark so
      the engine can reset its backoff on progress. *)
  let resend current () =
    let d = current () in
    let meta = X.dom d in
    if Dom.destroyed meta then true
    else begin
      let before = Dom.unreclaimed meta in
      nudge current ();
      Dom.unreclaimed meta < before
    end

  (** [subject ~id ~current ()] — a watchdog subject over [current ()].
      [id] is a stable identity for trace events (shard index, or the
      initial domain id); it must not change across recycles.  [recycle]
      and [quarantine] come from the embedding: only it knows how to
      rebind users to a fresh domain or which participants are safe to
      evict. *)
  let subject ?recycle ?(quarantine = fun () -> 0) ~id ~label ~current () =
    {
      W.label;
      id;
      probe = probe current;
      nudge = nudge current;
      resend = resend current;
      quarantine;
      recycle;
    }
end
