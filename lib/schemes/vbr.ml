(** VBR — version-based reclamation (Sheffi, Herlihy, Petrank, SPAA 2021),
    simplified (see DESIGN.md §2.4).

    VBR never defers: a retired block is immediately recycled through a
    type-stable pool ({!Hpbrcu_alloc.Pool}), so its footprint is near zero
    (the flat lines of Figures 7 and 9).  Safety comes from versioning
    instead of quiescence: every block carries a version bumped on reuse
    and birth/retire era stamps; an operation records the global era when
    it starts, and any read that reaches a block recycled {e after} the
    operation began raises {!Impl.Restart} — a coarse-grained restart from
    scratch, which is why VBR (like NBR and PEBR) starves on long-running
    operations (Figures 1, 6).

    Substitutions vs. the real VBR: the 128-bit versioned pointers become
    OCaml link records (whose CAS compares physical identity, so a stale
    CAS fails exactly as a version-mismatch CAS would), and reuse is
    restricted to be cross-era (the pool refuses blocks retired in the
    current era), which together with the birth-era check gives the same
    guarantee the version arithmetic gives: an operation can never observe
    a reincarnation of a block through links obtained before the
    reincarnation.

    The global era and restart counter are per-domain: two VBR domains
    advance their eras independently, so one domain's retire storm never
    forces restarts in another. *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
open Hpbrcu_core
module Dom = Smr_intf.Dom

module Impl : Smr_intf.SCHEME = struct
  let scheme = "VBR"

  let caps (cfg : Config.t) : Caps.t =
    {
      name = "VBR";
      robust_stalled = true;
      robust_longrun = true;
      per_node = ValidationOnly;
      starvation = Coarse;
      supports = Caps.supports_optimistic;
      (* VBR returns blocks to its type-stable pool immediately at retire;
         versions, not quiescence, protect readers.  Unreclaimed blocks
         are only the per-thread retire batches in flight. *)
      bound = (fun ~nthreads -> Some (nthreads * (cfg.Config.batch + 64) * 2));
    }

  type domain = {
    meta : Dom.t;
    era : int Atomic.t;
    restarts : Stats.Counter.t;
    batch_n : int;
  }

  let create ?label config =
    {
      meta = Dom.make ~scheme ?label config;
      era = Atomic.make 1;
      restarts = Stats.Counter.make ();
      batch_n = config.Config.batch;
    }

  let dom d = d.meta

  let destroy ?force d =
    Dom.begin_destroy ?force d.meta;
    begin
      (* Nothing deferred to drain: VBR reclaims at retire. *)
      Atomic.set d.era 1;
      Stats.Counter.reset d.restarts;
      Dom.finish_destroy d.meta
    end

  type handle = {
    d : domain;
    mutable start_era : int;
    mutable retire_count : int;
  }

  let register d =
    Dom.on_register d.meta;
    { d; start_era = 0; retire_count = 0 }

  let unregister h = Dom.on_unregister h.d.meta
  let flush _ = ()
  let expedite = flush

  type shield = unit

  let new_shield _ = ()
  let protect () _ = ()
  let clear () = ()

  exception Restart

  let op h body =
    let rec go () =
      h.start_era <- Atomic.get h.d.era;
      try body ()
      with Restart ->
        Stats.Counter.incr h.d.restarts;
        Trace.emit Trace.Rollback 0;
        Sched.yield ();
        go ()
    in
    go ()

  let crit _ body = body ()
  let mask _ body = body ()

  (* The per-read validation: a recycled block born after this operation
     started may be a reincarnation reached through a stale link. *)
  let validate_block h b =
    if Block.version b > 0 && Block.birth_era b > h.start_era then raise Restart

  let read h () ?src ~hdr cell =
    Sched.yield ();
    (match src with
    | None -> ()
    | Some b ->
        Alloc.check_access b;
        validate_block h b);
    let l = Link.get cell in
    (match Link.target l with Some n -> validate_block h (hdr n) | None -> ());
    l

  let deref h blk =
    Alloc.check_access blk;
    validate_block h blk

  (* Immediate reclamation: stamp the retire era, advance the era every
     [batch] retirements, reclaim, and let [free] return the node to its
     pool. *)
  let retire h ?free ?patch:_ ?(claimed = false) blk =
    Block.mark_retire_era blk ~era:(Atomic.get h.d.era);
    if not claimed then Alloc.retire blk;
    Dom.tag_retire h.d.meta blk;
    Alloc.reclaim blk;
    (match free with None -> () | Some f -> f ());
    h.retire_count <- h.retire_count + 1;
    if h.retire_count >= h.d.batch_n then begin
      h.retire_count <- 0;
      Atomic.incr h.d.era;
      Trace.emit Trace.Epoch_advance (Atomic.get h.d.era)
    end

  let recycles = true
  let current_era d = Atomic.get d.era

  let traverse _h ~prot ~backup:_ ~protect ~validate:_ ~init ~step =
    Scheme_common.plain_traverse ~prot ~protect ~init ~step

  let stats d =
    Dom.stamp_stats d.meta
      {
        Stats.empty with
        era = Atomic.get d.era;
        restarts = Stats.Counter.value d.restarts;
      }
end
