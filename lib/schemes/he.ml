(** HE — hazard eras (Ramalhete & Correia, SPAA 2017).

    Hazard pointers with the protection currency changed from pointers to
    {e eras}: a global era clock advances per retirement batch; every block
    records its birth and retire eras; a shield reserves an era instead of
    a pointer.  Reads validate by checking that the global era did not
    move past the reservation — typically one load instead of HP's
    store+fence+reload (Table 2 scores HE "validation only").  A retired
    block is reclaimable when no reserved era intersects its
    [birth, retire] lifetime.

    Like HP, HE cannot traverse optimistically (Table 1 groups HP/HE/IBR):
    an era reservation made while standing on an already-retired node
    proves nothing about its successors.

    The era clock, the reservation-slot table and the orphan list are all
    per-domain; a shield closes over its domain so [protect] can read the
    domain's era clock. *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Retired = Hpbrcu_core.Retired
module Sched = Hpbrcu_runtime.Sched
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
open Hpbrcu_core
module Dom = Smr_intf.Dom

(* Era reservation slots, scanned like HP's shield table — one table per
   domain. *)
module Slots = struct
  let max_slots = 1 lsl 14

  type t = {
    slots : int Atomic.t array;
    hwm : int Atomic.t;
    free : int list Atomic.t;
  }

  (* Index-strided like [Registry.Shields]: era slots are claimed in hwm
     order, so adjacent threads own adjacent indices — the stride keeps
     their reservation cells off each other's cache lines. *)
  let create () =
    {
      slots =
        Hpbrcu_runtime.Layout.strided_init max_slots (fun _ ->
            Atomic.make (-1));
      hwm = Atomic.make 0;
      free = Atomic.make [];
    }

  let rec alloc t =
    match Atomic.get t.free with
    | i :: rest as old ->
        if Atomic.compare_and_set t.free old rest then i
        else begin
          Sched.yield ();
          alloc t
        end
    | [] ->
        (* Bounded CAS, as in [Registry.Shields.alloc]: a fetch_and_add
           would grow [hwm] past capacity on every failed alloc and the
           clamps below would mask the overflow. *)
        let i = Atomic.get t.hwm in
        if i >= max_slots then
          raise (Registry.Exhausted "HE: era slots exhausted");
        if Atomic.compare_and_set t.hwm i (i + 1) then i
        else begin
          Sched.yield ();
          alloc t
        end

  let release t i =
    Atomic.set t.slots.(i) (-1);
    let rec give () =
      let old = Atomic.get t.free in
      if not (Atomic.compare_and_set t.free old (i :: old)) then begin
        Sched.yield ();
        give ()
      end
    in
    give ()

  (* Snapshot all active reservations into the caller's scratch set. *)
  let snapshot t (ids : Idset.t) =
    Idset.clear ids;
    let n = min (Atomic.get t.hwm) max_slots in
    for i = 0 to n - 1 do
      let e = Atomic.get t.slots.(i) in
      if e <> -1 then Idset.add ids e
    done

  let reset t =
    let n = min (Atomic.get t.hwm) max_slots in
    for i = 0 to n - 1 do
      Atomic.set t.slots.(i) (-1)
    done;
    Atomic.set t.hwm 0;
    Atomic.set t.free []
end

module Impl : Smr_intf.SCHEME = struct
  let scheme = "HE"

  let caps (cfg : Config.t) : Caps.t =
    {
      name = "HE";
      robust_stalled = true;
      robust_longrun = true;
      per_node = ValidationOnly;
      starvation = Fine;
      supports = Caps.supports_hp;
      (* Hazard-era reservations pin only blocks whose lifetime overlaps
         the reserved interval — per-thread batch plus reservations, like
         HP with era-granularity slack. *)
      bound = (fun ~nthreads -> Some (nthreads * (cfg.Config.batch + 64) * 3));
    }

  type domain = {
    meta : Dom.t;
    era : int Atomic.t;
    scans : Stats.Counter.t;
    slots : Slots.t;
    orphans : Retired.entry Segstack.t;
        (* batches of departed threads, adopted by later scanners *)
    batch_n : int;
  }

  let create ?label config =
    {
      meta = Dom.make ~scheme ?label config;
      era = Atomic.make 1;
      scans = Stats.Counter.make ();
      slots = Slots.create ();
      orphans = Segstack.create ();
      batch_n = config.Config.batch;
    }

  let dom d = d.meta

  let destroy ?force d =
    Dom.begin_destroy ?force d.meta;
    begin
      Slots.reset d.slots;
      (match Segstack.take_all d.orphans with
      | None -> ()
      | Some _ as chain -> Segstack.iter chain Retired.reclaim_entry);
      Atomic.set d.era 1;
      Stats.Counter.reset d.scans;
      Dom.finish_destroy d.meta
    end

  type handle = {
    d : domain;
    batch : Retired.t;
    mutable my_slots : int list;
    eras : Idset.t;  (* scratch: reserved eras, rebuilt per scan *)
    scan_pred : Retired.entry -> bool;  (* built once; reads [eras] *)
  }

  let register d =
    Dom.on_register d.meta;
    let eras = Idset.create () in
    {
      d;
      batch = Retired.create ();
      my_slots = [];
      eras;
      scan_pred =
        (fun e ->
          let b = e.Retired.blk in
          (* Reclaimable iff no reserved era falls in [birth, retire]. *)
          not (Idset.mem_range eras (Block.birth_era b) (Block.retire_era b)));
    }

  (* The slot index plus its domain: [protect] must read the owning
     domain's era clock, not a global one. *)
  type shield = { sd : domain; slot : int }

  let new_shield h =
    let i = Slots.alloc h.d.slots in
    h.my_slots <- i :: h.my_slots;
    { sd = h.d; slot = i }

  (* Pointer-protection API mapped onto eras: protecting any block reserves
     the current era (it covers every block alive now). *)
  let protect s = function
    | Some _ -> Atomic.set s.sd.slots.Slots.slots.(s.slot) (Atomic.get s.sd.era)
    | None -> Atomic.set s.sd.slots.Slots.slots.(s.slot) (-1)

  let clear s = Atomic.set s.sd.slots.Slots.slots.(s.slot) (-1)

  exception Restart

  let op _ body =
    let rec go () = try body () with Restart -> go () in
    go ()

  let crit _ body = body ()
  let mask _ body = body ()

  (* Era-validated read: reserve the era, load, and retry until the era is
     stable across the load (then everything reachable at the reservation
     is covered by it). *)
  let read _h s ?src ~hdr:_ cell =
    Sched.yield ();
    Option.iter Alloc.check_access src;
    let slot = s.sd.slots.Slots.slots.(s.slot) in
    let rec loop reserved =
      let l = Link.get cell in
      let e = Atomic.get s.sd.era in
      if e = reserved then l
      else begin
        Atomic.set slot e;
        (* SC store acts as the fence before re-validation. *)
        loop e
      end
    in
    let e0 = Atomic.get s.sd.era in
    Atomic.set slot e0;
    loop e0

  let deref _ blk = Alloc.check_access blk

  let scan h =
    Stats.Counter.incr h.d.scans;
    (match Segstack.take_all h.d.orphans with
    | None -> ()
    | Some _ as chain ->
        Segstack.iter chain (fun e -> Retired.push_entry h.batch e));
    Slots.snapshot h.d.slots h.eras;
    Idset.sort h.eras;
    ignore (Retired.reclaim_where h.batch h.scan_pred : int)

  let retire h ?free ?patch:_ ?(claimed = false) blk =
    if not claimed then Alloc.retire blk;
    Dom.tag_retire h.d.meta blk;
    Block.mark_retire_era blk ~era:(Atomic.get h.d.era);
    Retired.push h.batch ?free blk;
    if Retired.length h.batch >= h.d.batch_n then begin
      Atomic.incr h.d.era;
      Trace.emit Trace.Epoch_advance (Atomic.get h.d.era);
      scan h
    end

  let recycles = false

  (* Blocks must be born with the current era for interval checks. *)
  let current_era d = Atomic.get d.era

  let flush h =
    Atomic.incr h.d.era;
    scan h

  let expedite = flush

  let unregister h =
    flush h;
    (* Leftovers may still be covered by other threads' reservations:
       orphan them for adoption by later scans. *)
    Segstack.push_arr h.d.orphans (Retired.drain_array h.batch);
    List.iter (Slots.release h.d.slots) h.my_slots;
    h.my_slots <- [];
    Dom.on_unregister h.d.meta

  let traverse _h ~prot ~backup:_ ~protect:protect_cursor ~validate:_ ~init
      ~step =
    Scheme_common.plain_traverse ~prot ~protect:protect_cursor ~init ~step

  let stats d =
    Dom.stamp_stats d.meta
      {
        Stats.empty with
        era = Atomic.get d.era;
        scans = Stats.Counter.value d.scans;
      }
end
