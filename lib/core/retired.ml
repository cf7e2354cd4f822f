(** Per-thread batches of retired blocks.

    Every scheme accumulates retirements thread-locally and acts (scans
    shields, advances epochs, signals) once a batch fills — the paper's
    per-128-retirement trigger.  This module is that shared buffer.

    Representation (DESIGN.md §9): a growable array of the retired blocks
    themselves — a block is its own deferral, so a push stores one
    pointer and allocates nothing in steady state.  HP++'s patch lists
    ride in a parallel array, [[]] for every other scheme.
    [reclaim_where] compacts survivors in place: a survivor moves only
    when it passes a reclaimed slot, and the vacated tail is cleared once.

    The compaction visits blocks in push (FIFO) order — a deterministic
    order, so traced replays of the same seed still agree byte-for-byte
    (the list representation reclaimed in LIFO order; either is fine, what
    matters is that the order is a pure function of the push sequence). *)

module Block = Hpbrcu_alloc.Block

type t = {
  mutable blks : Block.t array;  (* blks.(0 .. count-1) are live *)
  mutable patches : Block.t list array;
      (* blocks protected on the retirer's behalf while the block at the
         same index is pending (HP++'s protect-on-retire) *)
  mutable count : int;
  mutable npatches : int;  (* total patch-list length over live blocks *)
}

let create () =
  { blks = Array.make 8 Block.none; patches = Array.make 8 []; count = 0; npatches = 0 }

let length t = t.count
let is_empty t = t.count = 0

(** Number of patch blocks held by pending blocks; scans use it to skip
    the patch pass entirely when nothing is patched. *)
let npatches t = t.npatches

(** The [i]th pending block in push order, and its patch list;
    [i < length t]. *)
let get t i = t.blks.(i)

let patches t i = t.patches.(i)

let grow t =
  let n = Array.length t.blks in
  let blks = Array.make (2 * n) Block.none and patches = Array.make (2 * n) [] in
  Array.blit t.blks 0 blks 0 n;
  Array.blit t.patches 0 patches 0 n;
  t.blks <- blks;
  t.patches <- patches

(** [push_patched t ps blk] queues [blk] with its patch list [ps]. *)
let push_patched t ps blk =
  if t.count = Array.length t.blks then grow t;
  t.blks.(t.count) <- blk;
  (match ps with
  | [] -> ()
  | ps ->
      t.patches.(t.count) <- ps;
      t.npatches <- t.npatches + List.length ps);
  t.count <- t.count + 1

let push t blk = push_patched t [] blk

(* Empty slots [from, count) and set the length to [from]. *)
let truncate t from =
  for i = from to t.count - 1 do
    t.blks.(i) <- Block.none;
    t.patches.(i) <- []
  done;
  t.count <- from

(** Remove all blocks, as a fresh array (for handing ownership to a
    segment).  Their patch lists are dropped: an orphaned block stays
    protected only by its retirer's published patch set, which HP++
    freezes at unregister until the domain is destroyed. *)
let drain_array t =
  let a = Array.sub t.blks 0 t.count in
  truncate t 0;
  t.npatches <- 0;
  a

(* Tail-recursive compaction.  Invariant: slots [0, kept) hold the
   survivors seen so far, in order; a survivor at [i] moves down only when
   something before it was reclaimed ([kept < i]), so a batch that keeps
   everything writes nothing.  Plain loop state (no refs, no closures
   beyond the caller's [pred]). *)
let rec compact t pred i kept =
  if i >= t.count then kept
  else begin
    let b = t.blks.(i) in
    if pred b then begin
      (match t.patches.(i) with
      | [] -> ()
      | ps -> t.npatches <- t.npatches - List.length ps);
      Hpbrcu_alloc.Alloc.reclaim b;
      compact t pred (i + 1) kept
    end
    else begin
      if kept < i then begin
        t.blks.(kept) <- b;
        t.patches.(kept) <- t.patches.(i)
      end;
      compact t pred (i + 1) (kept + 1)
    end
  end

(** Reclaim the blocks satisfying [pred], keeping the rest (in order).
    Returns the number reclaimed.  Callers on hot paths keep [pred] cached
    in their handle so the scan itself allocates nothing. *)
let reclaim_where t pred =
  let n = t.count in
  let kept = compact t pred 0 0 in
  truncate t kept;
  n - kept

(** Move every block of [t] (with its patches) into [into], emptying
    [t]. *)
let transfer t ~into =
  for i = 0 to t.count - 1 do
    push_patched into t.patches.(i) t.blks.(i)
  done;
  truncate t 0;
  t.npatches <- 0
