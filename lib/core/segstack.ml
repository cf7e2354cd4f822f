(** Lock-free segment stacks: the shared orphan/task lists.

    The previous representation was a Treiber list of single items (or of
    [(tag, list)] batches) whose push re-ran [List.rev_append] inside every
    CAS retry and whose consumers re-counted with [List.length].  Here the
    unit of exchange is a {e segment} — an array of items built once, with
    its count and an optional stamp — and contention only re-links the
    segment's [next] pointer before re-CASing the head (DESIGN.md §9).

    Ownership discipline: a chain returned by {!take_all} belongs to the
    caller, who may traverse it, destructively {!split} it, and hand parts
    back with {!push_chain} (a single CAS, not one per segment).  Every
    retry loop keeps the scheduler yield of the list it replaces, so fiber
    interleavings — and with them trace replay — stay deterministic. *)

type 'a seg = {
  items : 'a array;
  count : int;  (** = [Array.length items]; chains carry their counts *)
  stamp : int;  (** scheme tag, e.g. the epoch a batch was pushed at *)
  mutable next : 'a seg option;
}

type 'a t = 'a seg option Atomic.t

let create () : 'a t = Atomic.make None

let rec push_seg (t : 'a t) seg =
  let old = Atomic.get t in
  seg.next <- old;
  if not (Atomic.compare_and_set t old (Some seg)) then begin
    Hpbrcu_runtime.Sched.yield ();
    push_seg t seg
  end

(** Push an owned array as one segment (no-op when empty). *)
let push_arr (t : 'a t) ?(stamp = 0) items =
  if Array.length items > 0 then
    push_seg t { items; count = Array.length items; stamp; next = None }

let push_one (t : 'a t) ?(stamp = 0) x =
  push_seg t { items = [| x |]; count = 1; stamp; next = None }

(** Detach the whole chain; [None] when empty. *)
let rec take_all (t : 'a t) =
  match Atomic.get t with
  | None -> None
  | Some _ as old ->
      if Atomic.compare_and_set t old None then old
      else begin
        Hpbrcu_runtime.Sched.yield ();
        take_all t
      end

let iter_seg seg f =
  for i = 0 to seg.count - 1 do
    f seg.items.(i)
  done

let rec iter chain f =
  match chain with
  | None -> ()
  | Some s ->
      iter_seg s f;
      iter s.next f

(** Total item count of an owned chain — read off the segment counts, no
    per-item traversal. *)
let rec total = function None -> 0 | Some s -> s.count + total s.next

let rec last s = match s.next with None -> s | Some n -> last n

(** Re-attach an owned chain with a single CAS; on retry only the tail's
    [next] is re-linked. *)
let push_chain (t : 'a t) chain =
  match chain with
  | None -> ()
  | Some head ->
      let tl = last head in
      let rec go () =
        let old = Atomic.get t in
        tl.next <- old;
        if not (Atomic.compare_and_set t old chain) then begin
          Hpbrcu_runtime.Sched.yield ();
          go ()
        end
      in
      go ()

(** Destructively split an owned chain by a predicate on segment stamps;
    returns [(matching, rest)], both preserving segment order. *)
let split chain pred =
  let yes_h = ref None and yes_t = ref None in
  let no_h = ref None and no_t = ref None in
  let rec go = function
    | None -> ()
    | Some s ->
        let nxt = s.next in
        s.next <- None;
        let h, t = if pred s.stamp then (yes_h, yes_t) else (no_h, no_t) in
        (match !t with None -> h := Some s | Some p -> p.next <- Some s);
        t := Some s;
        go nxt
  in
  go chain;
  (!yes_h, !no_h)
