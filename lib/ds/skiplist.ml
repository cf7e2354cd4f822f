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
open Hpbrcu_core.Smr_intf

let max_level = 12

module Make (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP = struct
  let name = "SkipList(" ^ S.name ^ ")"

  type node = {
    blk : Block.t;
    mutable key : int;
    mutable value : int;
    next : node Link.cell array;  (* length = tower height *)
  }

  let blk n = n.blk
  let link_blk = function Link.Null _ -> Block.none | Link.Ptr p -> p.target.blk
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
     level).  A session keeps the live cursor and the walker's two
     checkpoint slots in records like this. *)
  type cursor = {
    mutable lvl : int;
    mutable pred : node;
    mutable plink : node Link.t;  (* loaded pred.next.(lvl) *)
    mutable levels : level_rec list;  (* levels (lvl+1 .. max-1), lowest first *)
  }

  type session = {
    h : S.handle;
    prot : S.shield array;  (* 2*max_level + 2 *)
    backup : S.shield array;
    scratch : S.shield array;
    mutable rot : int;
    pred_sh : S.shield;  (* keeps the current pred protected across steps *)
    level_sh : S.shield array;  (* lasting protection of completed levels *)
    rng : Hpbrcu_runtime.Rng.t;
    mutable key : int;  (* the running search's key ... *)
    mutable help : bool;  (* ... whether it unlinks marked nodes ... *)
    mutable found : bool;  (* ... and its answer *)
    mutable ds : t;  (* the structure the running search walks *)
    mutable live : cursor;
    slots : cursor array;  (* checkpoint slots 0 and 1 *)
    w : S.shield walker;
  }

  let create () =
    {
      head =
        {
          blk = Alloc.block ();
          key = min_int;
          value = 0;
          next = Array.init max_level (fun _ -> Link.null_cell ());
        };
      pools = Array.init (max_level + 1) (fun _ -> Pool.create ());
      level_seed = Atomic.make 1;
    }

  let close_session s =
    S.flush s.h;
    S.unregister s.h

  let random_height s =
    let lvl = ref 1 in
    while !lvl < max_level && Hpbrcu_runtime.Rng.bool s.rng do
      incr lvl
    done;
    !lvl

  let alloc_node t s key value =
    let h = random_height s in
    let reuse =
      if not S.recycles then None
      else
        match Pool.acquire t.pools.(h) with
        | Some n when Block.retire_era n.blk <> S.current_era () ->
            Block.reanimate n.blk ~era:(S.current_era ());
            n.key <- key;
            n.value <- value;
            Array.iter (fun c -> Link.set c Link.null) n.next;
            Some n
        | Some n ->
            Pool.release t.pools.(h) n;
            None
        | None -> None
    in
    match reuse with
    | Some n -> n
    | None ->
        let b = Alloc.block ~recyclable:S.recycles () in
        Block.set_birth_era b ~era:(S.current_era ());
        { blk = b; key; value; next = Array.init h (fun _ -> Link.null_cell ()) }

  (* Unpublished node: back to the pool, or booked as abandoned so the
     leak-at-quiescence accounting stays exact (DESIGN.md §11). *)
  let discard t n =
    if S.recycles then Pool.release t.pools.(height n) n
    else Alloc.abandon n.blk

  let scratch_read s ~src cell =
    let sh = s.scratch.(s.rot) in
    s.rot <- (s.rot + 1) mod Array.length s.scratch;
    S.read s.h sh ~src ~hdr:blk cell

  let key_of s (n : node) =
    let k = n.key in
    S.deref s.h n.blk;
    k

  (* Checkpoint protection: every node the cursor can still reach. *)
  let protect_cursor s (sh : S.shield array) =
    let c = s.live in
    S.protect sh.(0) c.pred.blk;
    S.protect sh.(1) (link_blk c.plink);
    let rec levels i = function
      | [] -> ()
      | lr :: rest ->
          if (2 * i) + 3 < Array.length sh then begin
            S.protect sh.((2 * i) + 2) lr.lpred.blk;
            S.protect sh.((2 * i) + 3) (link_blk lr.llink)
          end;
          levels (i + 1) rest
    in
    levels 0 c.levels

  (* Revalidation: resuming follows pred.next.(lvl); pred must not be
     deleted at that level (mark check suffices, §3.3). *)
  let validate_cursor c =
    Alloc.check_access c.pred.blk;
    not (Link.is_marked (Link.get c.pred.next.(c.lvl)))

  let copy_cursor ~src ~dst =
    dst.lvl <- src.lvl;
    dst.pred <- src.pred;
    dst.plink <- src.plink;
    dst.levels <- src.levels

  let init_cursor t s =
    let lvl = max_level - 1 in
    S.protect s.pred_sh t.head.blk;
    let plink = scratch_read s ~src:Block.none t.head.next.(lvl) in
    let cursor () = { lvl; pred = t.head; plink; levels = [] } in
    s.live <- cursor ();
    s.slots.(0) <- cursor ();
    s.slots.(1) <- cursor ()

  (* The walk stops: write the cursor back to the session. *)
  let stop s lvl pred plink levels r =
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
  let rec walk s key help n lvl pred plink levels =
    if n = 0 then stop s lvl pred plink levels walk_more
    else begin
      s.w.steps <- s.w.steps + 1;
      match plink with
      | Link.Ptr { target = curr; _ } ->
          let succ = scratch_read s ~src:curr.blk curr.next.(lvl) in
          if Link.is_marked succ then
            if help then begin
              (* Unlink curr.  The expected value must be unmarked: CASing
                 over a marked link would resurrect a deleted level. *)
              if Link.is_marked plink then walk_fail
              else
                let desired = Link.with_tag succ 0 in
                if Link.cas pred.next.(lvl) ~expected:plink ~desired then
                  walk s key help (n - 1) lvl pred desired levels
                else walk_fail
            end
            else
              walk s key help (n - 1) lvl pred (Link.with_tag succ 0) levels
          else
            let k = key_of s curr in
            if k < key then begin
              S.protect s.pred_sh curr.blk;
              walk s key help (n - 1) lvl curr succ levels
            end
            else complete_level s key help n lvl pred plink levels
      | Link.Null _ -> complete_level s key help n lvl pred plink levels
    end

  and complete_level s key help n lvl pred plink levels =
    (* The recorded link becomes a CAS expected value in the write phase;
       a marked link there would let the CAS *unmark* the predecessor
       (HS's CASes expect the unmarked flag).  Restart instead.  The
       read-only search has no write phase and may pass. *)
    if help && Link.is_marked plink then walk_fail
    else begin
      let i = max_level - 1 - lvl in
      if 2 * i < Array.length s.level_sh then begin
        S.protect s.level_sh.(2 * i) pred.blk;
        S.protect s.level_sh.((2 * i) + 1) (link_blk plink)
      end;
      let levels = { lpred = pred; llink = plink } :: levels in
      if lvl = 0 then begin
        s.found <-
          (match plink with
          | Link.Ptr { target = n; _ } -> key_of s n = key
          | Link.Null _ -> false);
        stop s lvl pred plink levels walk_done
      end
      else
        let lvl = lvl - 1 in
        walk s key help (n - 1) lvl pred
          (scratch_read s ~src:Block.none pred.next.(lvl))
          levels
    end

  let session t =
    let h = S.register () in
    let shields n = Array.init n (fun _ -> S.new_shield h) in
    let prot = shields ((2 * max_level) + 2) in
    let backup = shields ((2 * max_level) + 2) in
    let scratch = shields 4 in
    let pred_sh = S.new_shield h in
    let level_sh = shields (2 * max_level) in
    let rng =
      Hpbrcu_runtime.Rng.create
        ~seed:(Atomic.fetch_and_add t.level_seed 0x9E3779B9)
    in
    let cursor () = { lvl = 0; pred = t.head; plink = Link.null; levels = [] } in
    let rec s =
      {
        h;
        prot;
        backup;
        scratch;
        rot = 0;
        pred_sh;
        level_sh;
        rng;
        key = 0;
        help = false;
        found = false;
        ds = t;
        live = cursor ();
        slots = [| cursor (); cursor () |];
        w =
          {
            init = (fun () -> init_cursor s.ds s);
            walk =
              (fun n ->
                let c = s.live in
                walk s s.key s.help n c.lvl c.pred c.plink c.levels);
            save = (fun i -> copy_cursor ~src:s.live ~dst:s.slots.(i));
            restore =
              (fun i ->
                copy_cursor ~src:s.slots.(i) ~dst:s.live;
                validate_cursor s.live);
            protect = (fun sh -> protect_cursor s sh);
            steps = 0;
          };
      }
    in
    s

  (* Full search: returns the completed level records (index 0 = level 0);
     whether the key was found at level 0 stays in [s.found]. *)
  let rec search t s key ~help =
    s.ds <- t;
    s.key <- key;
    s.help <- help;
    if S.traverse s.h ~prot:s.prot ~backup:s.backup s.w then
      Array.of_list s.live.levels
    else search t s key ~help

  (* ---------------- operations ---------------- *)

  (* HP must help (it cannot traverse past marked nodes safely); everyone
     else gets the read-only search. *)
  let helping_get = S.caps.Hpbrcu_core.Caps.per_node = Hpbrcu_core.Caps.ProtectAndValidate

  let get t s key =
    S.op s.h (fun () ->
        ignore (search t s key ~help:helping_get : level_rec array);
        s.found)

  let insert t s key value =
    S.op s.h (fun () ->
        let n = alloc_node t s key value in
        let h = height n in
        let rec attempt () =
          let levels = search t s key ~help:true in
          if s.found then begin
            discard t n;
            false
          end
          else begin
            (* Prepare the tower: level l points at the observed succ. *)
            for l = 0 to h - 1 do
              Link.set n.next.(l) (Link.with_tag levels.(l).llink 0)
            done;
            (* Link level 0 (the linearization point). *)
            let l0 = levels.(0) in
            if not (Link.cas l0.lpred.next.(0) ~expected:l0.llink ~desired:(Link.ptr n))
            then attempt ()
            else begin
              (* Link the upper levels, refreshing the search on failure. *)
              let l = ref 1 in
              let give_up = ref false in
              let lv = ref levels in
              while !l < h && not !give_up do
                let cur_levels = !lv in
                let lr = cur_levels.(!l) in
                (* Point n's level-l link at the current successor unless n
                   got deleted meanwhile. *)
                let mine = Link.get n.next.(!l) in
                if Link.is_marked mine then give_up := true
                else begin
                  if not (Link.tag mine = 0 && Link.same_target mine lr.llink)
                  then
                    ignore
                      (Link.cas n.next.(!l) ~expected:mine
                         ~desired:(Link.with_tag lr.llink 0)
                        : bool);
                  if Link.is_marked (Link.get n.next.(!l)) then give_up := true
                  else if
                    Link.cas lr.lpred.next.(!l) ~expected:lr.llink
                      ~desired:(Link.ptr n)
                  then incr l
                  else begin
                    (* Stale pred at this level: re-search. *)
                    lv := search t s key ~help:true
                  end
                end
              done;
              true
            end
          end
        in
        attempt ())

  let remove t s key =
    S.op s.h (fun () ->
        let attempt () =
          let levels = search t s key ~help:true in
          if not s.found then false
          else
            let victim = Link.target_exn levels.(0).llink in
            let vh = height victim in
            (* Mark the upper levels top-down. *)
            for l = vh - 1 downto 1 do
              let rec mark () =
                let lk = Link.get victim.next.(l) in
                if not (Link.is_marked lk) then
                  if not (Link.cas victim.next.(l) ~expected:lk ~desired:(Link.with_tag lk 1))
                  then mark ()
              in
              mark ()
            done;
            (* Level 0: the winner owns the removal. *)
            let rec mark0 () =
              let lk = Link.get victim.next.(0) in
              if Link.is_marked lk then `Lost
              else if Link.cas victim.next.(0) ~expected:lk ~desired:(Link.with_tag lk 1)
              then `Won
              else mark0 ()
            in
            match mark0 () with
            | `Lost -> false  (* a concurrent remover won the level-0 mark *)
            | `Won ->
                (* Unlink everywhere via the helping search, then retire. *)
                ignore (search t s key ~help:true : level_rec array);
                S.retire s.h victim.blk
                  ?free:(Pool.free_hook ~recycles:S.recycles t.pools.(vh) victim);
                true
        in
        attempt ())

  let cleanup t s =
    ignore (S.op s.h (fun () -> search t s max_int ~help:true) : level_rec array)
end
