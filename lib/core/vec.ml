(** Minimal growable vector with reusable storage.

    Replaces the cons-per-push task lists of the epoch schemes: pushes
    write into a preallocated slot, and draining resets the length while
    keeping the array, so steady-state defer/collect cycles stop churning
    the minor heap (DESIGN.md §9).  [dummy] fills vacated slots so the
    vector never pins dead values for the GC. *)

type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

let create ?(capacity = 8) dummy =
  { a = Array.make (max 1 capacity) dummy; n = 0; dummy }

let length t = t.n
let is_empty t = t.n = 0
let get t i = t.a.(i)

let push t x =
  if t.n = Array.length t.a then begin
    let a = Array.make (2 * t.n) t.dummy in
    Array.blit t.a 0 a 0 t.n;
    t.a <- a
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let clear t =
  for i = 0 to t.n - 1 do
    t.a.(i) <- t.dummy
  done;
  t.n <- 0

let iter t f =
  for i = 0 to t.n - 1 do
    f t.a.(i)
  done

(** Fresh array of the live prefix (for handing ownership to a segment). *)
let to_array t = Array.sub t.a 0 t.n

(** Move every element satisfying [pred] into [dst] (appended, in order);
    compact the rest in place, preserving order.  One traversal — the
    in-place replacement for [List.partition] + recount. *)
let partition_into t pred dst =
  let k = ref 0 in
  for i = 0 to t.n - 1 do
    let x = t.a.(i) in
    if pred x then push dst x
    else begin
      t.a.(!k) <- x;
      incr k
    end
  done;
  for i = !k to t.n - 1 do
    t.a.(i) <- t.dummy
  done;
  t.n <- !k
