(** IBR — interval-based reclamation (Wen et al., PPoPP 2018), the 2GE
    ("two global epochs") tagged variant, simplified.

    Epoch-based, but instead of HP-style per-pointer work each thread
    reserves an {e interval} of eras [lower, upper]: [lower] is set when
    the operation starts, [upper] is bumped to the current era at every
    read.  A block whose [birth, retire] lifetime is disjoint from every
    reservation is reclaimable.  Per-node cost is a conditional store
    (Table 2: "usually validation only"); robustness against {e stalls} is
    retained (a stalled thread pins only the eras it reserved), but a
    {e long-running} operation keeps widening its interval and eventually
    pins everything — the ✗ in Table 2's long-running row, and the reason
    the paper's Figure 1 family would show IBR's footprint growing.

    The era clock, participant registry and orphan list are per-domain. *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Retired = Hpbrcu_core.Retired
module Sched = Hpbrcu_runtime.Sched
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
open Hpbrcu_core
module Dom = Smr_intf.Dom

(* Reusable snapshot of the (lower, upper) reservation pairs, queried per
   retired block.  Sorted by lower with prefix-maxed uppers, an interval
   query becomes one binary search: some reservation [lw, up] intersects
   [lo, hi] iff among the pairs with lw ≤ hi the largest upper is ≥ lo.
   Helpers are module-level and tail-recursive so a scan allocates nothing
   (DESIGN.md §9). *)
type scratch = {
  mutable lo : int array;
  mutable up : int array;
  mutable n : int;
}

let push_pair sc lw u =
  if sc.n = Array.length sc.lo then begin
    let cap = 2 * sc.n in
    let nlo = Array.make cap 0 in
    let nup = Array.make cap 0 in
    Array.blit sc.lo 0 nlo 0 sc.n;
    Array.blit sc.up 0 nup 0 sc.n;
    sc.lo <- nlo;
    sc.up <- nup
  end;
  sc.lo.(sc.n) <- lw;
  sc.up.(sc.n) <- u;
  sc.n <- sc.n + 1

(* Insertion sort of the parallel arrays by [lo]; n is registry-bounded
   and snapshots are nearly sorted run-to-run, so this stays cheap. *)
let rec shift_down lo up j kl ku =
  if j > 0 && lo.(j - 1) > kl then begin
    lo.(j) <- lo.(j - 1);
    up.(j) <- up.(j - 1);
    shift_down lo up (j - 1) kl ku
  end
  else begin
    lo.(j) <- kl;
    up.(j) <- ku
  end

let sort_pairs lo up n =
  for i = 1 to n - 1 do
    shift_down lo up i lo.(i) up.(i)
  done

let prefix_max up n =
  for i = 1 to n - 1 do
    if up.(i) < up.(i - 1) then up.(i) <- up.(i - 1)
  done

(* Number of elements of a.(0 .. h-1) that are ≤ key (a sorted). *)
let rec last_le a key l h =
  if l < h then begin
    let m = (l + h) lsr 1 in
    if a.(m) <= key then last_le a key (m + 1) h else last_le a key l m
  end
  else l

(* Does any snapshotted reservation intersect [lo, hi]?  Requires
   [sort_pairs] + [prefix_max]. *)
let covered sc lo hi =
  let k = last_le sc.lo hi 0 sc.n in
  k > 0 && sc.up.(k - 1) >= lo

module Impl : Smr_intf.SCHEME = struct
  let scheme = "IBR"

  let caps (cfg : Config.t) : Caps.t =
    {
      name = "IBR";
      robust_stalled = true;
      robust_longrun = false;
      per_node = ValidationOnly;
      starvation = Fine;
      supports = Caps.supports_hp;
      (* Interval reservations: a stalled reader pins only blocks born
         before its reserved upper era, so the leak per crash is bounded
         by what was live at crash time — batch-plus-reservations slack,
         like HE. *)
      bound = (fun ~nthreads -> Some (nthreads * (cfg.Config.batch + 64) * 3));
    }

  type local = {
    lower : int Atomic.t;
    upper : int Atomic.t;  (* -1 = inactive *)
    _pad : int array;  (* live inter-record spacer; see Hpbrcu_runtime.Layout *)
  }

  type domain = {
    meta : Dom.t;
    era : int Atomic.t;
    scans : Stats.Counter.t;
    participants : local Registry.Participants.t;
    orphans : Block.t Segstack.t;
    batch_n : int;
  }

  let create ?label config =
    {
      meta = Dom.make ~scheme ?label config;
      era = Atomic.make 1;
      scans = Stats.Counter.make ();
      participants = Registry.Participants.create ();
      orphans = Segstack.create ();
      batch_n = config.Config.batch;
    }

  let dom d = d.meta

  let destroy ?force d =
    Dom.begin_destroy ?force d.meta;
    begin
      (match Segstack.take_all d.orphans with
      | None -> ()
      | Some _ as chain -> Segstack.iter chain Alloc.reclaim);
      Registry.Participants.reset d.participants;
      Atomic.set d.era 1;
      Stats.Counter.reset d.scans;
      Dom.finish_destroy d.meta
    end

  type handle = {
    d : domain;
    l : local;
    idx : int;
    batch : Retired.t;
    mutable nest : int;
    sc : scratch;  (* reservation snapshot, rebuilt per scan *)
    snap : local -> unit;  (* built once; appends into [sc] *)
    pred : Block.t -> bool;  (* built once; queries [sc] *)
  }

  let register d =
    Dom.on_register d.meta;
    let l =
      {
        lower = Atomic.make (-1);
        upper = Atomic.make (-1);
        _pad = Hpbrcu_runtime.Layout.spacer ();
      }
    in
    let idx = Registry.Participants.add d.participants l in
    (* Room for a few participants; [push_pair] doubles it on demand, so a
       session costs no more than the census its scans meet. *)
    let sc = { lo = Array.make 8 0; up = Array.make 8 0; n = 0 } in
    {
      d;
      l;
      idx;
      batch = Retired.create ();
      nest = 0;
      sc;
      snap =
        (fun l ->
          let lw = Atomic.get l.lower and up = Atomic.get l.upper in
          if lw <> -1 then push_pair sc lw up);
      pred =
        (fun b -> not (covered sc (Block.birth_era b) (Block.retire_era b)));
    }

  type shield = unit

  let new_shield _ = ()
  let protect () _ = ()
  let clear () = ()

  (* Operations and critical sections delimit the reservation interval;
     nested ones share the outermost interval. *)
  let start_op h =
    if h.nest = 0 then begin
      let e = Atomic.get h.d.era in
      Atomic.set h.l.lower e;
      Atomic.set h.l.upper e
    end;
    h.nest <- h.nest + 1

  let end_op h =
    h.nest <- h.nest - 1;
    if h.nest = 0 then begin
      Atomic.set h.l.lower (-1);
      Atomic.set h.l.upper (-1)
    end

  let op h body =
    start_op h;
    match body () with
    | r ->
        end_op h;
        r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        end_op h;
        Printexc.raise_with_backtrace e bt

  let crit = op
  let mask _ body = body ()

  (* Each read widens the reservation to the current era before the load —
     the per-read "tag check" of 2GEIBR. *)
  let read h ~src ~hdr:_ cell =
    Sched.yield ();
    Alloc.check_access src;
    let e = Atomic.get h.d.era in
    if Atomic.get h.l.upper < e then Atomic.set h.l.upper e;
    Link.get cell

  let deref _ blk = Alloc.check_access blk

  (* Reclaim blocks whose lifetime intersects no reservation. *)
  let scan h =
    Stats.Counter.incr h.d.scans;
    (match Segstack.take_all h.d.orphans with
    | None -> ()
    | Some _ as chain ->
        Segstack.iter chain (Retired.push h.batch));
    h.sc.n <- 0;
    Registry.Participants.iter h.d.participants h.snap;
    sort_pairs h.sc.lo h.sc.up h.sc.n;
    prefix_max h.sc.up h.sc.n;
    ignore (Retired.reclaim_where h.batch h.pred : int)

  let retire h ?patch:_ ?(claimed = false) blk =
    if not claimed then Alloc.retire blk;
    Dom.tag_retire h.d.meta blk;
    Block.mark_retire_era blk ~era:(Atomic.get h.d.era);
    Retired.push h.batch blk;
    if Retired.length h.batch >= h.d.batch_n then begin
      Atomic.incr h.d.era;
      Trace.emit Trace.Epoch_advance (Atomic.get h.d.era);
      scan h
    end

  let recycles = false
  let patches = false
  let current_era d = Atomic.get d.era

  let flush h =
    Atomic.incr h.d.era;
    scan h

  let unregister h =
    assert (h.nest = 0);
    flush h;
    Segstack.push_arr h.d.orphans (Retired.drain_array h.batch);
    Registry.Participants.remove h.d.participants h.idx;
    Dom.on_unregister h.d.meta

  let traverse _ ~hold ~prot ~backup:_ w =
    Scheme_common.plain_traverse ~hold ~prot w

  let stats d =
    Dom.stamp_stats d.meta
      {
        Stats.empty with
        era = Atomic.get d.era;
        scans = Stats.Counter.value d.scans;
      }
end
