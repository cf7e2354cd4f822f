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

    The era clock, the reservation table and the orphan list are all
    per-domain.  Reservations live in a {!Registry.Shields} table, the one
    HP scans: a slot holds a reserved era instead of a block id.  A shield
    closes over its domain so [protect] can read the domain's era clock. *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Retired = Hpbrcu_core.Retired
module Sched = Hpbrcu_runtime.Sched
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
open Hpbrcu_core
module Dom = Smr_intf.Dom

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
    slots : Registry.Shields.t;  (* each slot holds a reserved era, -1 = none *)
    orphans : Block.t Segstack.t;
        (* batches of departed threads, adopted by later scanners *)
    batch_n : int;
  }

  let create ?label config =
    {
      meta = Dom.make ~scheme ?label config;
      era = Atomic.make 1;
      scans = Stats.Counter.make ();
      slots = Registry.Shields.create ();
      orphans = Segstack.create ();
      batch_n = config.Config.batch;
    }

  let dom d = d.meta

  let destroy ?force d =
    Dom.begin_destroy ?force d.meta;
    begin
      Registry.Shields.reset d.slots;
      (match Segstack.take_all d.orphans with
      | None -> ()
      | Some _ as chain -> Segstack.iter chain Alloc.reclaim);
      Atomic.set d.era 1;
      Stats.Counter.reset d.scans;
      Dom.finish_destroy d.meta
    end

  type handle = {
    d : domain;
    batch : Retired.t;
    mutable my_slots : Registry.Shields.shield list;
    hops : Registry.Shields.shield array;
        (* the per-hop ring of era slots [read] rotates *)
    mutable hop : int;
    eras : Idset.t;  (* scratch: reserved eras, rebuilt per scan *)
    scan_pred : Block.t -> bool;  (* built once; reads [eras] *)
  }

  let register d =
    Dom.on_register d.meta;
    let eras = Idset.create () in
    let hops =
      Array.init Smr_intf.hop_ring (fun _ -> Registry.Shields.alloc d.slots)
    in
    {
      d;
      batch = Retired.create ();
      my_slots = Array.to_list hops;
      hops;
      hop = 0;
      eras;
      scan_pred =
        (fun b ->
          (* Reclaimable iff no reserved era falls in [birth, retire]. *)
          not (Idset.mem_range eras (Block.birth_era b) (Block.retire_era b)));
    }

  (* The reservation slot plus its domain: [protect] must read the owning
     domain's era clock, not a global one. *)
  type shield = { sd : domain; sh : Registry.Shields.shield }

  let new_shield h =
    let sh = Registry.Shields.alloc h.d.slots in
    h.my_slots <- sh :: h.my_slots;
    { sd = h.d; sh }

  (* Pointer-protection API mapped onto eras: protecting any block reserves
     the current era (it covers every block alive now). *)
  let protect s b =
    if b == Block.none then Registry.Shields.clear s.sh
    else Atomic.set s.sh.slot (Atomic.get s.sd.era)

  let clear s = Registry.Shields.clear s.sh

  let op _ body = body ()

  let crit _ body = body ()
  let mask _ body = body ()

  (* Era-validated read: reserve the era, load, and retry until the era is
     stable across the load (then everything reachable at the reservation
     is covered by it).  A module-level loop, so a hop builds no
     closure. *)
  let rec load_reserved era slot cell reserved =
    let l = Link.get cell in
    let e = Atomic.get era in
    if e = reserved then l
    else begin
      Atomic.set slot e;
      (* SC store acts as the fence before re-validation. *)
      load_reserved era slot cell e
    end

  (* The reservation goes into the next slot of the handle's ring. *)
  let read h ~src ~hdr:_ cell =
    Sched.yield ();
    Alloc.check_access src;
    let i = h.hop in
    h.hop <- (if i + 1 = Smr_intf.hop_ring then 0 else i + 1);
    let slot = h.hops.(i).Registry.Shields.slot in
    let e0 = Atomic.get h.d.era in
    Atomic.set slot e0;
    load_reserved h.d.era slot cell e0

  let deref _ blk = Alloc.check_access blk

  let scan h =
    Stats.Counter.incr h.d.scans;
    (match Segstack.take_all h.d.orphans with
    | None -> ()
    | Some _ as chain ->
        Segstack.iter chain (Retired.push h.batch));
    Registry.Shields.snapshot h.d.slots h.eras;
    Idset.sort h.eras;
    ignore (Retired.reclaim_where h.batch h.scan_pred : int)

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

  (* Blocks must be born with the current era for interval checks. *)
  let current_era d = Atomic.get d.era

  let flush h =
    Atomic.incr h.d.era;
    scan h

  let unregister h =
    flush h;
    (* Leftovers may still be covered by other threads' reservations:
       orphan them for adoption by later scans. *)
    Segstack.push_arr h.d.orphans (Retired.drain_array h.batch);
    List.iter Registry.Shields.release h.my_slots;
    h.my_slots <- [];
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
