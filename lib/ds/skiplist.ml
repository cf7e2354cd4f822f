(** Lock-free skip list (Herlihy & Shavit, ch. 14; the paper's SkipList).

    Towers of forward links with per-level logical deletion: a node is
    removed by marking its links top-down, finishing with level 0 (the
    linearization point); traversals unlink marked nodes at every level
    they visit.  [get] comes in two flavours, as in the paper: the
    wait-free no-helping search (all schemes but HP — demoted to lock-free
    by schemes that can abort readers) and the helping search (HP).

    Protection is the expensive part for HP-family schemes — a cursor
    carries up to [2 × max_level + 2] pointers — which is exactly why the
    paper's Figure 7d shows HP/HP++/PEBR degraded on SkipList while
    HP-BRCU protects only at checkpoints.

    Retirement ownership: the remover that wins the level-0 mark calls the
    helping search until the victim is fully unlinked, then retires it —
    helpers never retire, so no double-retire races exist. *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Pool = Hpbrcu_alloc.Pool
module Link = Hpbrcu_core.Link
module Caps = Hpbrcu_core.Caps
open Hpbrcu_core.Smr_intf

let max_level = 12

(* A node is its own block (DESIGN.md §9, "objects per hop"): [Block.t]'s
   fields follow field 0 (the header-prefix rule), read and CAS'd only
   through {!blk}. *)
type node = {
  next : node Link.cell array;  (* length = tower height *)
  mutable word : int;
  id : int;
  recyclable : bool;
  mutable birth_era : int;
  mutable retire_era : int;
  mutable poison : int;
  mutable owner : int;
  mutable key : int;
  mutable value : int;
}

external blk : node -> Block.t = "%identity"

(** A fresh node, [Live] and born at [era], with a tower of [height]
    null links.  Every level starts at the shared {!Link.null}, as a
    recycled tower does: every skip-list CAS takes its expected value from
    the cell it CASes, and [insert] overwrites every level before it
    publishes the node, so no CAS can meet the shared null as a stale
    expectation. *)
let mk_node ~recyclable ~era ~height key value =
  {
    next = Array.init height (fun _ -> Link.cell Link.null);
    word = Block.live; id = Alloc.fresh_id (); recyclable;
    birth_era = era; retire_era = -1; poison = 0; owner = 0;
    key;
    value;
  }

module Make (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP = struct
  let caps = caps (module S)
  let name = "SkipList(" ^ caps.Caps.name ^ ")"

  let link_blk = function Link.Null _ -> Block.none | Link.Ptr p -> blk p.target
  let height n = Array.length n.next

  type t = {
    head : node;  (* sentinel tower of max_level, key = min_int *)
    pools : node Pool.t array;  (* per-height pools (VBR) *)
    level_seed : int Atomic.t;
  }

  (* A completed level of the search: predecessor and the loaded link used
     as CAS expected value, whose target is the successor observed. *)
  type level_rec = { lpred : node; llink : node Link.t }

  (* Search cursor: current level walk state plus the completed levels
     above (head of [levels] = most recently completed = lowest finished
     level). *)
  type cursor = {
    mutable lvl : int;
    mutable pred : node;
    mutable plink : node Link.t;  (* loaded pred.next.(lvl) *)
    mutable levels : level_rec list;  (* levels (lvl+1 .. max-1), lowest first *)
  }

  (* Checkpoint protection: every node the cursor can still reach. *)
  let rec protect_levels (sh : S.shield array) i = function
    | [] -> ()
    | lr :: rest ->
        if (2 * i) + 3 < Array.length sh then begin
          S.protect sh.((2 * i) + 2) (blk lr.lpred);
          S.protect sh.((2 * i) + 3) (link_blk lr.llink)
        end;
        protect_levels sh (i + 1) rest

  module Sk =
    Session.Make
      (S)
      (struct
        type shield = S.shield
        type t = cursor

        let clone c =
          { lvl = c.lvl; pred = c.pred; plink = c.plink; levels = c.levels }

        let copy ~src ~dst =
          dst.lvl <- src.lvl;
          dst.pred <- src.pred;
          dst.plink <- src.plink;
          dst.levels <- src.levels

        (* Revalidation: resuming follows pred.next.(lvl); pred must not
           be deleted at that level (mark check suffices, §3.3). *)
        let validate c =
          Alloc.check_access (blk c.pred);
          not (Link.is_marked (Link.get c.pred.next.(c.lvl)))

        let protect (sh : S.shield array) c =
          S.protect sh.(0) (blk c.pred);
          S.protect sh.(1) (link_blk c.plink);
          protect_levels sh 0 c.levels
      end)

  (* A session's own fields: [lasting] holds, under {!hop_shields} only
     (empty otherwise), the current pred across steps at 0, then each
     completed level's pred and link; [rng] draws tower heights. *)
  type ext = { lasting : S.shield array; rng : Hpbrcu_runtime.Rng.t }
  type session = (t, ext) Sk.session

  let create () =
    {
      head =
        mk_node ~recyclable:false ~era:0 ~height:max_level min_int 0;
      pools = Array.init (max_level + 1) (fun _ -> Pool.create ());
      level_seed = Atomic.make 1;
    }

  let random_height (s : session) =
    let lvl = ref 1 in
    while !lvl < max_level && Hpbrcu_runtime.Rng.bool s.x.rng do
      incr lvl
    done;
    !lvl

  let alloc_node t ~height:h key value =
    let era = S.current_era S.it in
    match Pool.reuse ~recycles:S.recycles t.pools.(h) ~blk ~era with
    | Some n ->
        n.key <- key;
        n.value <- value;
        Array.iter (fun c -> Link.set c Link.null) n.next;
        n
    | None -> mk_node ~recyclable:S.recycles ~era ~height:h key value

  let discard t n =
    Pool.discard ~recycles:S.recycles t.pools.(height n) ~blk n

  (* Under a [NoOverhead] scheme a hop stores no shield: [traverse]
     publishes the whole cursor (every level's pred and link) with the
     cursor's [protect] inside the section.  Otherwise [read]'s ring
     holds the hops, and [lasting] what the search keeps longer than
     that. *)
  let hop_shields = Caps.hop_shields caps

  let init (s : session) =
    let lvl = max_level - 1 in
    let head = s.ds.head in
    if hop_shields then S.protect s.x.lasting.(0) (blk head);
    let plink = S.read s.h ~src:Block.none ~hdr:blk head.next.(lvl) in
    { lvl; pred = head; plink; levels = [] }

  (* The walk stops: write the cursor back to the session. *)
  let stop (s : session) lvl pred plink levels r =
    let c = s.live in
    c.lvl <- lvl;
    c.pred <- pred;
    c.plink <- plink;
    c.levels <- levels;
    r

  (* The search, at most [n] steps of it, with the cursor in the
     arguments.  [help] unlinks marked nodes (never retires — the remover
     does).  Completing a level records (pred, link, succ), protects them
     durably, and descends (or finishes at level 0). *)
  let rec walk_from (s : session) key help n lvl pred plink levels =
    if n = 0 then stop s lvl pred plink levels walk_more
    else begin
      s.w.steps <- s.w.steps + 1;
      match plink with
      | Link.Ptr { target = curr; _ } ->
          (* Key before read: the read's access check (and VBR's
             validation) of [curr] follows the load and covers it. *)
          let k = curr.key in
          let succ = S.read s.h ~src:(blk curr) ~hdr:blk curr.next.(lvl) in
          if Link.is_marked succ then
            if help then begin
              (* Unlink curr.  The expected value must be unmarked: CASing
                 over a marked link would resurrect a deleted level. *)
              if Link.is_marked plink then walk_fail
              else
                let desired = Link.with_tag succ 0 in
                if Link.cas pred.next.(lvl) ~expected:plink ~desired then
                  walk_from s key help (n - 1) lvl pred desired levels
                else walk_fail
            end
            else
              walk_from s key help (n - 1) lvl pred (Link.with_tag succ 0)
                levels
          else if k < key then begin
            if hop_shields then S.protect s.x.lasting.(0) (blk curr);
            walk_from s key help (n - 1) lvl curr succ levels
          end
          else complete_level s key help n lvl pred plink levels (k = key)
      | Link.Null _ -> complete_level s key help n lvl pred plink levels false
    end

  (* [hit]: [plink]'s target holds the key.  A level completes in the
     step that read its target (or found none), so at level 0 [hit] is
     the answer, from a key load that step's read checked: no [deref]. *)
  and complete_level (s : session) key help n lvl pred plink levels hit =
    (* The recorded link becomes a CAS expected value in the write phase;
       a marked link there would let the CAS *unmark* the predecessor
       (HS's CASes expect the unmarked flag).  Restart instead.  The
       read-only search has no write phase and may pass. *)
    if help && Link.is_marked plink then walk_fail
    else begin
      let i = max_level - 1 - lvl in
      if hop_shields then begin
        S.protect s.x.lasting.((2 * i) + 1) (blk pred);
        S.protect s.x.lasting.((2 * i) + 2) (link_blk plink)
      end;
      let levels = { lpred = pred; llink = plink } :: levels in
      if lvl = 0 then begin
        s.found <- hit;
        stop s lvl pred plink levels walk_done
      end
      else
        let lvl = lvl - 1 in
        walk_from s key help (n - 1) lvl pred
          (S.read s.h ~src:Block.none ~hdr:blk pred.next.(lvl))
          levels
    end

  (* HP must help (it cannot traverse past marked nodes safely); everyone
     else's [get] takes the read-only search.  An update's search always
     helps.  The completed level records stay in [s.live.levels] (head =
     level 0), and whether the key was found at level 0 in [s.found]. *)
  let helping_get = caps.Caps.per_node = Caps.ProtectAndValidate

  let walk (s : session) n =
    let c = s.live in
    walk_from s s.key (s.holds || helping_get) n c.lvl c.pred c.plink c.levels

  (* ---------------- operations ---------------- *)

  (* Prepare [n]'s tower: level [l] and up point at the successors
     [levels] observed. *)
  let rec set_tower n l = function
    | lr :: rest when l < height n ->
        Link.set n.next.(l) (Link.with_tag lr.llink 0);
        set_tower n (l + 1) rest
    | _ -> ()

  (* The node is built only once the search has missed.  Its height is
     drawn before the search, so the session's sequence of heights does
     not depend on which inserts find their key. *)
  let rec insert_op (s : session) =
    let height = random_height s in
    (not (Sk.search s)) && link_node s (alloc_node s.ds ~height s.key s.value)

  (* Link [n] at level 0 (the linearization point) at the cursor of a
     search that missed, then above; a lost level-0 CAS searches again
     with the same node. *)
  and link_node (s : session) n =
    let levels = s.live.levels in
    set_tower n 0 levels;
    let l0 = List.hd levels in
    if Link.cas l0.lpred.next.(0) ~expected:l0.llink ~desired:(Link.ptr n)
    then begin
      link_upper s n 1;
      true
    end
    else if Sk.search s then begin
      discard s.ds n;
      false
    end
    else link_node s n

  (* Link level [l] and above of the linked [n], refreshing the search on
     a stale predecessor, until [n]'s tower is in or [n] got deleted. *)
  and link_upper (s : session) n l =
    if l < height n then begin
      let lr = List.nth s.live.levels l in
      (* Point n's level-l link at the current successor unless n got
         deleted meanwhile. *)
      let mine = Link.get n.next.(l) in
      if not (Link.is_marked mine) then begin
        if not (Link.tag mine = 0 && Link.same_target mine lr.llink) then
          ignore
            (Link.cas n.next.(l) ~expected:mine
               ~desired:(Link.with_tag lr.llink 0)
              : bool);
        if not (Link.is_marked (Link.get n.next.(l))) then
          if Link.cas lr.lpred.next.(l) ~expected:lr.llink ~desired:(Link.ptr n)
          then link_upper s n (l + 1)
          else begin
            (* Stale pred at this level: re-search. *)
            ignore (Sk.search s : bool);
            link_upper s n l
          end
      end
    end

  (* Mark [victim]'s level [l], unless some remover already did. *)
  let rec mark_level victim l =
    let lk = Link.get victim.next.(l) in
    if
      (not (Link.is_marked lk))
      && not
           (Link.cas victim.next.(l) ~expected:lk
              ~desired:(Link.with_tag lk 1))
    then mark_level victim l

  (* Mark level 0: [true] for the one remover whose CAS marks it. *)
  let rec mark0 victim =
    let lk = Link.get victim.next.(0) in
    (not (Link.is_marked lk))
    && (Link.cas victim.next.(0) ~expected:lk ~desired:(Link.with_tag lk 1)
       || mark0 victim)

  let remove_op (s : session) =
    Sk.search s
    &&
    let victim = Link.target_exn (List.hd s.live.levels).llink in
    let vh = height victim in
    (* Mark the upper levels top-down. *)
    for l = vh - 1 downto 1 do
      mark_level victim l
    done;
    (* Level 0: the winner owns the removal; a concurrent remover that
       won it answers for the key. *)
    mark0 victim
    && begin
         (* Unlink everywhere via the helping search, then retire. *)
         ignore (Sk.search s : bool);
         S.retire s.h (blk victim);
         Pool.recycle ~recycles:S.recycles s.ds.pools.(vh) victim;
         true
       end

  let session t =
    let ext h =
      let lasting =
        Array.init
          (if hop_shields then 1 + (2 * max_level) else 0)
          (fun _ -> S.new_shield h)
      in
      let rng =
        Hpbrcu_runtime.Rng.create
          ~seed:(Atomic.fetch_and_add t.level_seed 0x9E3779B9)
      in
      { lasting; rng }
    in
    Sk.create ~shields:((2 * max_level) + 2)
      ~idle:{ lvl = 0; pred = t.head; plink = Link.null; levels = [] }
      ~ext ~init ~walk ~insert:insert_op ~remove:remove_op t

  let close_session = Sk.close_session
  let get = Sk.get
  let insert = Sk.insert
  let remove = Sk.remove

  let cleanup t (s : session) =
    s.ds <- t;
    s.key <- max_int;
    ignore (S.op s.h (fun () -> Sk.search s) : bool)
end
