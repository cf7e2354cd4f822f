(** Hazard-pointer machinery shared by HP, HP++, and the HP side of HP-RCU /
    HP-BRCU (the paper reuses "the original implementations of HP's Shield
    and Reclaim without modifications", §3.2).

    Since the first-class-domain redesign this is not a functor any more:
    all formerly module-level state (shield table, orphan list, scan
    counters, published patch sets, the deferred-retire trigger) lives in a
    {!domain} record, so any number of independent HP universes coexist in
    one process.  Composite schemes (HP-RCU, HP-BRCU, NBR, PEBR) embed one
    of these in their own domain, sharing the {!Smr_intf.Dom.t} identity.

    Retired blocks live in per-thread {!Hpbrcu_core.Retired} batches of
    the blocks themselves; when a batch reaches the configured threshold
    the owner scans the shield table and reclaims the unprotected blocks
    (Algorithm 1, Retire/Reclaim).  A per-domain orphan list of blocks
    holds (a) batches of threads that unregistered and (b) blocks retired
    by {e deferred} tasks of the epoch schemes, which may execute on any
    thread ({!retire_deferred}).

    Hot-path discipline (DESIGN.md §9): the scan snapshots every protected
    id into a per-handle scratch {!Hpbrcu_core.Idset}, sorts it once, and
    binary-searches it per retired block through a predicate closure built
    at [register] time — so a steady-state retire/scan cycle allocates
    nothing. *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Dom = Hpbrcu_core.Smr_intf.Dom
module Retired = Hpbrcu_core.Retired
module Idset = Hpbrcu_core.Idset
module Segstack = Hpbrcu_core.Segstack
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace

(* Allocation-free folds over patch lists; toplevel so the scan loop
   doesn't close over anything. *)
let rec add_patch_ids ids = function
  | [] -> ()
  | b :: tl ->
      Idset.add ids (Block.id b);
      add_patch_ids ids tl

let rec add_published ids = function
  | [] -> ()
  | slot :: tl ->
      add_patch_ids ids (Atomic.get slot);
      add_published ids tl

type domain = {
  meta : Dom.t;
  shields : Registry.Shields.t;
  orphans : Block.t Segstack.t;
      (* blocks whose reclamation nobody currently owns: still subject to
         the shield scan *)
  scans : Stats.Counter.t;
  reclaimed_by_scan : Stats.Counter.t;
  published_patches : Block.t list Atomic.t list Atomic.t;
      (* HP++: patch protections of other threads' pending blocks must
         also defer reclamation.  Batches are thread-local, so each thread
         publishes its live patch set here for reclaimers to read. *)
  orphan_count : int Atomic.t;
      (* deferred-retire scan trigger (HP-RCU / HP-BRCU): how many blocks
         deferred tasks have pushed to [orphans] since the last scan *)
  batch_n : int;  (* scan threshold, denormalized from [meta]'s config *)
}

let create meta =
  {
    meta;
    batch_n = (Dom.config meta).Hpbrcu_core.Config.batch;
    shields = Registry.Shields.create ();
    orphans = Segstack.create ();
    scans = Stats.Counter.make ();
    reclaimed_by_scan = Stats.Counter.make ();
    published_patches = Atomic.make [];
    orphan_count = Atomic.make 0;
  }

type handle = {
  d : domain;
  batch : Retired.t;
  mutable my_shields : Registry.Shields.shield list;
  hops : Registry.Shields.shield array;
      (* the per-hop ring {!next_hop} rotates through; empty unless the
         embedding scheme's [read] protects (HP, HP++, PEBR) *)
  mutable hop : int;
  mutable patch_slot : Block.t list Atomic.t option;
      (* present only under HP++: the handle's published patch set *)
  scan_ids : Idset.t;  (* scratch: protected ids, rebuilt per scan *)
  scan_pred : Block.t -> bool;
      (* built once; reads [scan_ids], so allocates nothing per scan *)
}

(* Handle census is the embedding scheme's job (composite schemes register
   both halves under one Dom.t); this layer only builds the record.
   [hop_ring] registers the ring of {!Smr_intf.hop_ring} hop shields; the
   section-protected schemes (HP-RCU, HP-BRCU, NBR) read without one. *)
let register ~hop_ring d =
  let scan_ids = Idset.create () in
  let hops =
    if hop_ring then
      Array.init Hpbrcu_core.Smr_intf.hop_ring (fun _ ->
          Registry.Shields.alloc d.shields)
    else [||]
  in
  {
    d;
    batch = Retired.create ();
    my_shields = Array.to_list hops;
    hops;
    hop = 0;
    patch_slot = None;
    scan_ids;
    scan_pred = (fun b -> not (Idset.mem scan_ids (Block.id b)));
  }

type shield = Registry.Shields.shield

let new_shield h =
  let s = Registry.Shields.alloc h.d.shields in
  h.my_shields <- s :: h.my_shields;
  s

let protect = Registry.Shields.protect
let clear = Registry.Shields.clear

(** The ring's next shield: a [read]'s target stays protected across the
    handle's next [hop_ring - 1] reads. *)
let[@inline] next_hop h =
  let i = h.hop in
  h.hop <- (if i + 1 = Array.length h.hops then 0 else i + 1);
  h.hops.(i)

let rec publish_patch_slot d slot =
  let old = Atomic.get d.published_patches in
  if not (Atomic.compare_and_set d.published_patches old (slot :: old)) then begin
    Hpbrcu_runtime.Sched.yield ();
    publish_patch_slot d slot
  end

(** One reclamation pass: scan shields (line 13's SC fence is implied by
    the SC atomic reads) plus the patch protections of every pending
    block, then reclaim every unprotected retired block from the handle's
    batch and the orphan list, keeping the rest. *)
let scan h =
  Stats.Counter.incr h.d.scans;
  Trace.emit Trace.Scan_begin (Retired.length h.batch);
  Registry.Shields.snapshot h.d.shields h.scan_ids;
  (* Patches of blocks pending anywhere count as protected until their
     patron block is reclaimed. *)
  (match Atomic.get h.d.published_patches with
  | [] -> ()
  | slots -> add_published h.scan_ids slots);
  (match Segstack.take_all h.d.orphans with
  | None -> ()
  | Some _ as chain ->
      Segstack.iter chain (Retired.push h.batch));
  if Retired.npatches h.batch > 0 then
    for i = 0 to Retired.length h.batch - 1 do
      add_patch_ids h.scan_ids (Retired.patches h.batch i)
    done;
  Idset.sort h.scan_ids;
  let n = Retired.reclaim_where h.batch h.scan_pred in
  Stats.Counter.add h.d.reclaimed_by_scan n;
  Trace.emit Trace.Scan_end n

(** Enable HP++-style patch publication for this handle. *)
let enable_patches h =
  let slot = Atomic.make [] in
  h.patch_slot <- Some slot;
  publish_patch_slot h.d slot

(* Re-publish this handle's current patch set after batch changes.  When
   no pending block holds patches the published set collapses to [] with
   a single conditional store — the common case under HP++ is that most
   retirements carry no patches. *)
let republish h =
  match h.patch_slot with
  | None -> ()
  | Some slot ->
      if Retired.npatches h.batch = 0 then begin
        if Atomic.get slot != [] then Atomic.set slot []
      end
      else begin
        let acc = ref [] in
        for i = 0 to Retired.length h.batch - 1 do
          acc := List.rev_append (Retired.patches h.batch i) !acc
        done;
        Atomic.set slot !acc
      end

(** HP-Retire: batch locally; scan when the batch fills.  [patches] and
    [claimed] are plain labelled arguments — optional-with-default would
    make every call box a [Some], putting words on this hot path.  This is
    an S-level entry point (HP, HP++): the block is stamped with the
    domain's owner id here.  The deferred/counted variants below are
    second steps of two-step retirement and must NOT re-stamp. *)
let retire h ~patches ~claimed blk =
  if not claimed then Alloc.retire blk;
  Dom.tag_retire h.d.meta blk;
  Retired.push_patched h.batch patches blk;
  (match h.patch_slot with None -> () | Some _ -> republish h);
  if Retired.length h.batch >= h.d.batch_n
  then begin
    scan h;
    republish h
  end

(* -------- deferred retirement (the HP side of HP-RCU / HP-BRCU) ------ *)

(** The deferred half of two-step retirement (Algorithm 4): the epoch
    scheme's expired-task executor, possibly on any thread.  The epoch
    side drains its expired blocks straight into this domain's orphan
    list, no per-block closure anywhere on the path. *)
let retire_deferred d blk =
  Segstack.push_one d.orphans blk;
  Atomic.incr d.orphan_count

(** Scan if deferred retirements have piled up past the batch size. *)
let maybe_scan h =
  if Atomic.get h.d.orphan_count >= h.d.batch_n
  then begin
    Atomic.set h.d.orphan_count 0;
    scan h
  end

let flush h = scan h

let unregister h =
  (* Whatever the final scan could not reclaim becomes orphaned.  The
     patch set is frozen *before* draining, which drops the batch's own
     patch lists: the frozen set keeps orphaned blocks' patches visible
     (conservatively, until destroy) while they await adoption. *)
  scan h;
  republish h;
  Segstack.push_arr h.d.orphans (Retired.drain_array h.batch);
  List.iter Registry.Shields.release h.my_shields;
  h.my_shields <- []

(** Reclaim everything unconditionally (domain teardown; no readers). *)
let drain d =
  Registry.Shields.reset d.shields;
  (match Segstack.take_all d.orphans with
  | None -> ()
  | Some _ as chain -> Segstack.iter chain Alloc.reclaim);
  (* The deferred-retire scan trigger must not carry residue into a reused
     domain: a leftover count shifts when the first scans fire, which
     would make re-runs of the same seed diverge. *)
  Atomic.set d.orphan_count 0;
  List.iter (fun slot -> Atomic.set slot []) (Atomic.get d.published_patches);
  Atomic.set d.published_patches [];
  Stats.Counter.reset d.scans;
  Stats.Counter.reset d.reclaimed_by_scan

let stats d =
  {
    Stats.empty with
    scans = Stats.Counter.value d.scans;
    scan_reclaimed = Stats.Counter.value d.reclaimed_by_scan;
  }
