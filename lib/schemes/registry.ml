(** Shared registries used by the scheme implementations:

    - {!Shields}: the global hazard-pointer slot table an HP-family
      reclaimer scans (Algorithm 1 line 14), which HE reuses as its era
      reservation table;
    - {!Participants}: the list of per-thread records an epoch-family
      reclaimer walks to compute the minimum announced epoch (Algorithm 5's
      [LOCALS]).

    Both are fixed-capacity tables with a high-water mark and a free list:
    grow-only scans are what real implementations do, and bounded capacity
    keeps scans cheap and allocation-free.  The shield table builds its
    slots in chunks, as [hwm] reaches them (see {!Shields}). *)

module Block = Hpbrcu_alloc.Block

exception Exhausted of string
(** A fixed-capacity slot table ran out ({!Shields.alloc} or
    {!Participants.add}).  Typed — unlike the [Failure]
    it replaces — so harnesses that drive fuzzed schedules (lib/check) can
    catch exactly this condition at the worker and report a typed
    "registry exhausted" outcome instead of letting an anonymous failure
    escape through the fiber effect handler.  The [try_]-variants return
    [None] instead of raising. *)

(* ------------------------------------------------------------------ *)

module Shields = struct
  (* A slot holds the protected block's id, -1 when empty; under HE it
     holds a reserved era instead, and HE stores into [slot] directly.  A
     protect is then an int store (no GC write barrier on a pointer), and
     a scan reads ints instead of dereferencing one [Block.t] per slot.
     Scans always compared retired blocks to the protected set by id, so
     which blocks a slot protects is unchanged.

     The table's [max_shields] slots live in [chunk_slots]-slot chunks
     behind a fixed spine, and a chunk is built only when [hwm] first
     reaches it: a domain whose sessions register a few dozen shields
     builds one chunk, not the whole table (an HP-BRCU create, 8-shield
     session and destroy allocates ~6k words; all 16384 slots cost ~62k).
     A chunk is published in the spine {e before} [hwm] passes into it,
     so a scanner that reads [hwm] finds every chunk below it. *)
  type t = {
    spine : int Atomic.t array Atomic.t array;
        (* [no_chunk] until built; then [chunk_slots] cells, -1 = empty *)
    hwm : int Atomic.t;  (* slots 0 .. hwm-1 have been handed out *)
    free : int list Atomic.t;
  }

  let empty = -1
  let max_shields = 1 lsl 14
  let chunk_bits = 10
  let chunk_slots = 1 lsl chunk_bits
  let chunk_mask = chunk_slots - 1
  let no_chunk : int Atomic.t array = [||]

  let create () =
    {
      spine =
        Array.init (max_shields / chunk_slots) (fun _ -> Atomic.make no_chunk);
      hwm = Atomic.make 0;
      free = Atomic.make [];
    }

  (* Slots are handed out in index order (hwm bump), so under the Domains
     backend thread [k] and thread [k+1] own adjacent indices — with a
     plainly-initialised array their hot [Atomic.t] cells are also
     adjacent in memory and false-share a cache line on every protect.
     [strided_init] transposes the allocation order so index-neighbours
     land ~a cache line apart (the OCaml analogue of the CLPAD padding in
     C++ hazard-pointer tables); the scanner's sequential read of a chunk
     degrades into a few interleaved streams, which prefetch fine.

     The chunk size matters for that separation to survive promotion.  A
     1024-slot pointer array exceeds [Max_young_wosize] (256 words), so it
     is born in the major heap, and its young cells reach the major heap
     through the remembered set in allocation order: the stride holds, as
     it did for the one 16384-slot table.  A 64-slot chunk is a young
     array, and a minor GC promotes its cells in index order, packing
     index neighbours onto one line again: against 1024-slot chunks it
     cost hpbench [list] +6.3% [op_p50_ns] and +4.1% [cpu_ns_per_op]
     (won 1 of 6 pairs in each). *)
  let build_chunk () =
    Hpbrcu_runtime.Layout.strided_init chunk_slots (fun _ -> Atomic.make empty)

  (* Publish chunk [c] unless it is there already.  Racing builders CAS
     from [no_chunk]; a loser drops its copy and uses the winner's. *)
  let ensure_chunk t c =
    let cell = t.spine.(c) in
    if Atomic.get cell == no_chunk then
      ignore (Atomic.compare_and_set cell no_chunk (build_chunk ()) : bool)

  let[@inline] cell t idx =
    (Atomic.get t.spine.(idx lsr chunk_bits)).(idx land chunk_mask)

  type shield = { slot : int Atomic.t; idx : int; owner : t }

  let rec alloc t =
    match Atomic.get t.free with
    | idx :: rest as old ->
        if Atomic.compare_and_set t.free old rest then
          { slot = cell t idx; idx; owner = t }
        else begin
          Hpbrcu_runtime.Sched.yield ();
          alloc t
        end
    | [] ->
        (* Claim a fresh slot with a bounded CAS: a plain fetch_and_add
           would keep growing [hwm] past capacity on every failed alloc,
           and the clamps in [snapshot]/[reset] would then mask the
           overflow. Exhaustion must leave [hwm] untouched. *)
        let idx = Atomic.get t.hwm in
        if idx >= max_shields then
          raise (Exhausted "Shields.alloc: registry exhausted");
        ensure_chunk t (idx lsr chunk_bits);
        if Atomic.compare_and_set t.hwm idx (idx + 1) then
          { slot = cell t idx; idx; owner = t }
        else begin
          Hpbrcu_runtime.Sched.yield ();
          alloc t
        end

  (** Non-raising variant of {!alloc}: [None] on exhaustion. *)
  let try_alloc t = try Some (alloc t) with Exhausted _ -> None

  let release (s : shield) =
    (* Clear once, outside the retry loop: the store is not part of the
       free-list CAS and re-running it on contention is wasted work. *)
    Atomic.set s.slot empty;
    let rec give () =
      let old = Atomic.get s.owner.free in
      if not (Atomic.compare_and_set s.owner.free old (s.idx :: old)) then begin
        Hpbrcu_runtime.Sched.yield ();
        give ()
      end
    in
    give ()

  (* Atomic.set is an SC store in OCaml: the publication fence of
     Algorithm 1 line 7 is built in.  [Block.none]'s id is -1, so
     protecting it empties the slot. *)
  let protect (s : shield) (b : Block.t) = Atomic.set s.slot (Block.id b)
  let clear (s : shield) = Atomic.set s.slot empty

  (* The number of chunks holding slots [0, n).  Each of them is
     published: a chunk enters the spine before [hwm] passes into it.
     [snapshot] and [reset] spell their loops out rather than take a
     closure, so a scan allocates nothing. *)
  let[@inline] chunks_below n = (n + chunk_mask) lsr chunk_bits

  (** Snapshot the ids of all currently protected blocks into the caller's
      reusable scratch set (cleared first; caller sorts).  The scan of
      Algorithm 1 line 14; the caller's preceding SC operation plays the
      [fence(SC)] of line 13. *)
  let snapshot t (ids : Hpbrcu_core.Idset.t) =
    Hpbrcu_core.Idset.clear ids;
    let n = min (Atomic.get t.hwm) max_shields in
    for c = 0 to chunks_below n - 1 do
      let chunk = Atomic.get t.spine.(c) in
      for i = 0 to min chunk_slots (n - (c lsl chunk_bits)) - 1 do
        let id = Atomic.get chunk.(i) in
        if id <> empty then Hpbrcu_core.Idset.add ids id
      done
    done

  (* Built chunks stay in the spine: a reused table does not rebuild them. *)
  let reset t =
    let n = min (Atomic.get t.hwm) max_shields in
    for c = 0 to chunks_below n - 1 do
      let chunk = Atomic.get t.spine.(c) in
      for i = 0 to min chunk_slots (n - (c lsl chunk_bits)) - 1 do
        Atomic.set chunk.(i) empty
      done
    done;
    Atomic.set t.hwm 0;
    Atomic.set t.free []
end

(* ------------------------------------------------------------------ *)

module Participants = struct
  type 'l t = {
    slots : 'l option Atomic.t array;
    hwm : int Atomic.t;
    free : int list Atomic.t;
  }

  let capacity = Hpbrcu_runtime.Sched.max_threads * 2

  (* Same index-stride trick as [Shields.create]: participant slots are
     claimed in hwm order, one per registering thread, and the epoch
     reclaimers write through them on every pin — neighbours must not
     share a cache line. *)
  let create () =
    {
      slots =
        Hpbrcu_runtime.Layout.strided_init capacity (fun _ ->
            Atomic.make None);
      hwm = Atomic.make 0;
      free = Atomic.make [];
    }

  let rec add t l =
    match Atomic.get t.free with
    | idx :: rest as old ->
        if Atomic.compare_and_set t.free old rest then begin
          Atomic.set t.slots.(idx) (Some l);
          idx
        end
        else begin
          Hpbrcu_runtime.Sched.yield ();
          add t l
        end
    | [] ->
        (* Same bounded-CAS claim as [Shields.alloc]: never bump [hwm]
           past capacity on exhaustion. *)
        let idx = Atomic.get t.hwm in
        if idx >= capacity then
          raise (Exhausted "Participants.add: registry exhausted");
        if Atomic.compare_and_set t.hwm idx (idx + 1) then begin
          Atomic.set t.slots.(idx) (Some l);
          idx
        end
        else begin
          Hpbrcu_runtime.Sched.yield ();
          add t l
        end

  (** Non-raising variant of {!add}: [None] on exhaustion. *)
  let try_add t l = try Some (add t l) with Exhausted _ -> None

  let remove t idx =
    (* As in [Shields.release]: the slot clear happens once, only the
       free-list push retries. *)
    Atomic.set t.slots.(idx) None;
    let rec give () =
      let old = Atomic.get t.free in
      if not (Atomic.compare_and_set t.free old (idx :: old)) then begin
        Hpbrcu_runtime.Sched.yield ();
        give ()
      end
    in
    give ()

  let iter t f =
    let n = min (Atomic.get t.hwm) capacity in
    for i = 0 to n - 1 do
      match Atomic.get t.slots.(i) with None -> () | Some l -> f l
    done

  (** [remove_where t pred] clears every slot whose participant satisfies
      [pred] — the teardown path for {e crashed} tids, which can never call
      [unregister] themselves — and returns whether this call cleared
      one.  Each clear is a CAS from the [Some] it read, so when several
      ejectors race for one corpse exactly one of them gets [true].
      Unlike {!remove}, the index is {e not} recycled: the dead thread's
      handle still holds it, and handing it to a new participant would
      let a stale [remove idx] evict the wrong record.  Burned slots are
      reclaimed by {!reset} between runs, so the leak is bounded by the
      number of crashes per run. *)
  let remove_where t pred =
    let n = min (Atomic.get t.hwm) capacity in
    let cleared = ref false in
    for i = 0 to n - 1 do
      match Atomic.get t.slots.(i) with
      | Some l as v when pred l ->
          if Atomic.compare_and_set t.slots.(i) v None then cleared := true
      | _ -> ()
    done;
    !cleared

  let reset t =
    let n = min (Atomic.get t.hwm) capacity in
    for i = 0 to n - 1 do
      Atomic.set t.slots.(i) None
    done;
    Atomic.set t.hwm 0;
    Atomic.set t.free []
end
