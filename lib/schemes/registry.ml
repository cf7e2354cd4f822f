(** Shared registries used by the scheme implementations:

    - {!Shields}: the global hazard-pointer slot table an HP-family
      reclaimer scans (Algorithm 1 line 14), which HE reuses as its era
      reservation table;
    - {!Participants}: the list of per-thread records an epoch-family
      reclaimer walks to compute the minimum announced epoch (Algorithm 5's
      [LOCALS]).

    Both are views over one {!Table}: a fixed-capacity array of atomic
    cells with a high-water mark and a free list, built in chunks as
    [hwm] reaches them.  Grow-only scans are what real implementations do,
    and bounded capacity keeps scans cheap and allocation-free.  The views
    differ only in geometry.  A shield cell is stored to on every protect,
    so shields come in big strided chunks that keep index neighbours a
    cache line apart; a participant cell changes only when a thread joins
    or leaves, so participants come in small plain chunks. *)

module Block = Hpbrcu_alloc.Block
module Sched = Hpbrcu_runtime.Sched

exception Exhausted of string
(** A fixed-capacity slot table ran out ({!Shields.alloc} or
    {!Participants.add}).  Typed — unlike the [Failure]
    it replaces — so harnesses that drive fuzzed schedules (lib/check) can
    catch exactly this condition at the worker and report a typed
    "registry exhausted" outcome instead of letting an anonymous failure
    escape through the fiber effect handler.  The [try_]-variants return
    [None] instead of raising. *)

(* ------------------------------------------------------------------ *)

module Table = struct
  (* [capacity] cells live in [1 lsl chunk_bits]-cell chunks behind a
     fixed spine, and a chunk is built only when [hwm] first reaches it: a
     domain whose sessions claim a few dozen slots builds one chunk, not
     the whole table.  A chunk is published in the spine {e before} [hwm]
     passes into it, so a walker that reads [hwm] finds every chunk below
     it. *)
  type 'v t = {
    spine : 'v Atomic.t array Atomic.t array;  (* [no_chunk] until built *)
    hwm : int Atomic.t;  (* slots 0 .. hwm-1 have been handed out *)
    free : int list Atomic.t;
    empty : 'v;  (* the value of an unclaimed or released cell *)
    capacity : int;
    chunk_bits : int;
    strided : bool;  (* build chunks with {!Hpbrcu_runtime.Layout.strided_init} *)
    exhausted : string;  (* the message of this table's [Exhausted] *)
  }

  let no_chunk = [||]

  let create ~capacity ~chunk_bits ~strided ~exhausted empty =
    {
      spine =
        Array.init (capacity lsr chunk_bits) (fun _ -> Atomic.make no_chunk);
      hwm = Atomic.make 0;
      free = Atomic.make [];
      empty;
      capacity;
      chunk_bits;
      strided;
      exhausted;
    }

  let build_chunk t =
    let make _ = Atomic.make t.empty in
    if t.strided then
      Hpbrcu_runtime.Layout.strided_init (1 lsl t.chunk_bits) make
    else Array.init (1 lsl t.chunk_bits) make

  (* Publish chunk [c] unless it is there already.  Racing builders CAS
     from [no_chunk]; a loser drops its copy and uses the winner's. *)
  let ensure_chunk t c =
    let cell = t.spine.(c) in
    if Atomic.get cell == no_chunk then
      ignore (Atomic.compare_and_set cell no_chunk (build_chunk t) : bool)

  let[@inline] cell t idx =
    let chunk = Atomic.get t.spine.(idx lsr t.chunk_bits) in
    chunk.(idx land ((1 lsl t.chunk_bits) - 1))

  (* Claim a slot: a recycled one from the free list, else a fresh one by
     a bounded CAS on [hwm].  A plain fetch_and_add would keep growing
     [hwm] past capacity on every failed claim, and the clamps of the
     walkers would then mask the overflow: exhaustion must leave [hwm]
     untouched. *)
  let rec claim t =
    match Atomic.get t.free with
    | idx :: rest as old ->
        if Atomic.compare_and_set t.free old rest then idx
        else begin
          Sched.yield ();
          claim t
        end
    | [] ->
        let idx = Atomic.get t.hwm in
        if idx >= t.capacity then raise (Exhausted t.exhausted);
        ensure_chunk t (idx lsr t.chunk_bits);
        if Atomic.compare_and_set t.hwm idx (idx + 1) then idx
        else begin
          Sched.yield ();
          claim t
        end

  (* Empty the cell once, outside the retry loop: the store is not part
     of the free-list CAS and re-running it on contention is wasted
     work. *)
  let release t idx =
    Atomic.set (cell t idx) t.empty;
    let rec give () =
      let old = Atomic.get t.free in
      if not (Atomic.compare_and_set t.free old (idx :: old)) then begin
        Sched.yield ();
        give ()
      end
    in
    give ()

  (* Slots [0, bound t) have been handed out; each of the
     [chunks_below t n] chunks holding slots [0, n) is published, and
     chunk [c] holds [chunk_len t c n] of them. *)
  let[@inline] bound t = min (Atomic.get t.hwm) t.capacity
  let[@inline] chunks_below t n = (n + (1 lsl t.chunk_bits) - 1) lsr t.chunk_bits

  let[@inline] chunk_len t c n =
    min (1 lsl t.chunk_bits) (n - (c lsl t.chunk_bits))

  (* [iter t f x] calls [f x cell] on every handed-out cell.  [x] rides
     apart from [f] so that a caller passing a closed [f] allocates
     nothing. *)
  let iter t f x =
    let n = bound t in
    for c = 0 to chunks_below t n - 1 do
      let chunk = Atomic.get t.spine.(c) in
      for i = 0 to chunk_len t c n - 1 do
        f x chunk.(i)
      done
    done

  let clear_cell t cell = Atomic.set cell t.empty

  (* Built chunks stay in the spine: a reused table does not rebuild them. *)
  let reset t =
    iter t clear_cell t;
    Atomic.set t.hwm 0;
    Atomic.set t.free []
end

(* ------------------------------------------------------------------ *)

module Shields = struct
  (* A slot holds the protected block's id, -1 when empty; under HE it
     holds a reserved era instead, and HE stores into [slot] directly.  A
     protect is then an int store (no GC write barrier on a pointer), and
     a scan reads ints instead of dereferencing one [Block.t] per slot.
     Scans always compared retired blocks to the protected set by id, so
     which blocks a slot protects is unchanged.

     An HP-BRCU create, 8-shield session and destroy builds one chunk and
     allocates ~4.8k words; all 16384 slots cost ~62k. *)
  type t = int Table.t

  let empty = -1
  let max_shields = 1 lsl 14
  let chunk_bits = 10
  let chunk_slots = 1 lsl chunk_bits

  (* Slots are handed out in index order (hwm bump), so under the Domains
     backend thread [k] and thread [k+1] own adjacent indices — with a
     plainly-initialised array their hot [Atomic.t] cells are also
     adjacent in memory and false-share a cache line on every protect.
     Strided chunks transpose the allocation order so index-neighbours
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
  let create () : t =
    Table.create ~capacity:max_shields ~chunk_bits ~strided:true
      ~exhausted:"Shields.alloc: registry exhausted" empty

  type shield = { slot : int Atomic.t; idx : int; owner : t }

  let alloc t =
    let idx = Table.claim t in
    { slot = Table.cell t idx; idx; owner = t }

  (** Non-raising variant of {!alloc}: [None] on exhaustion. *)
  let try_alloc t = try Some (alloc t) with Exhausted _ -> None

  let release (s : shield) = Table.release s.owner s.idx

  (* Atomic.set is an SC store in OCaml: the publication fence of
     Algorithm 1 line 7 is built in.  [Block.none]'s id is -1, so
     protecting it empties the slot. *)
  let protect (s : shield) (b : Block.t) = Atomic.set s.slot (Block.id b)
  let clear (s : shield) = Atomic.set s.slot empty

  (** Snapshot the ids of all currently protected blocks into the caller's
      reusable scratch set (cleared first; caller sorts).  The scan of
      Algorithm 1 line 14; the caller's preceding SC operation plays the
      [fence(SC)] of line 13.  The loop is spelled out rather than given
      to {!Table.iter}, so a scan allocates nothing and makes no call per
      slot. *)
  let snapshot (t : t) (ids : Hpbrcu_core.Idset.t) =
    Hpbrcu_core.Idset.clear ids;
    let n = Table.bound t in
    for c = 0 to Table.chunks_below t n - 1 do
      let chunk = Atomic.get t.spine.(c) in
      for i = 0 to Table.chunk_len t c n - 1 do
        let id = Atomic.get chunk.(i) in
        if id <> empty then Hpbrcu_core.Idset.add ids id
      done
    done

  let reset = Table.reset
end

(* ------------------------------------------------------------------ *)

module Participants = struct
  (* A slot points to a participant's record, [None] when free.  The slot
     cell itself is written only by [add], [remove] and [remove_where];
     every hot announcement (a pin, an epoch, a status, an era pair) is a
     field of the padded record it points to, which its owner allocates
     with a {!Hpbrcu_runtime.Layout.spacer}.  So neighbouring slots may
     share a cache line: their chunks need no stride, and at 64 slots a
     domain whose threads register a few participants builds 64 cells, not
     all [capacity]. *)
  type 'l t = 'l option Table.t

  let capacity = Sched.max_threads * 2

  let create () : _ t =
    Table.create ~capacity ~chunk_bits:6 ~strided:false
      ~exhausted:"Participants.add: registry exhausted" None

  let add t l =
    let idx = Table.claim t in
    Atomic.set (Table.cell t idx) (Some l);
    idx

  (** Non-raising variant of {!add}: [None] on exhaustion. *)
  let try_add t l = try Some (add t l) with Exhausted _ -> None

  let remove = Table.release
  let visit f cell = match Atomic.get cell with None -> () | Some l -> f l
  let iter t f = Table.iter t visit f

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
    let cleared = ref false in
    Table.iter t
      (fun pred cell ->
        match Atomic.get cell with
        | Some l as v when pred l ->
            if Atomic.compare_and_set cell v None then cleared := true
        | _ -> ())
      pred;
    !cleared

  let reset = Table.reset
end
