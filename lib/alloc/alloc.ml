(** The simulated allocator: counters, lifecycle enforcement, UAF detection.

    This module is the measurement substrate for the paper's memory metric
    ("peak number of retired yet unreclaimed blocks") and the executable
    form of its safety theorems ("no use-after-free").  All reclamation
    schemes route retirement and reclamation through here. *)

exception Use_after_free of Block.t
exception Double_retire of Block.t
exception Double_reclaim of Block.t

type stats = {
  allocated : int;  (** blocks ever allocated *)
  retired : int;  (** blocks ever retired *)
  reclaimed : int;  (** blocks ever reclaimed *)
  abandoned : int;  (** allocated-but-never-published blocks given back *)
  unreclaimed : int;  (** currently retired-but-not-reclaimed *)
  peak_unreclaimed : int;  (** high-water mark of [unreclaimed] *)
  uaf : int;  (** lifecycle violations detected, all kinds (counting mode) *)
  poisoned_reads : int;  (** accesses that hit a poison stamp *)
  double_retires : int;  (** retire of a non-Live block *)
  double_reclaims : int;  (** reclaim of a non-Retired block *)
}

let pp_stats ppf s =
  Fmt.pf ppf
    "alloc=%d retired=%d reclaimed=%d abandoned=%d unreclaimed=%d peak=%d \
     uaf=%d poisoned=%d dretire=%d dreclaim=%d"
    s.allocated s.retired s.reclaimed s.abandoned s.unreclaimed
    s.peak_unreclaimed s.uaf s.poisoned_reads s.double_retires
    s.double_reclaims

(* Global registry.  Experiments call [reset ()] between cells. *)
let allocated = Atomic.make 0
let retired = Atomic.make 0
let reclaimed = Atomic.make 0
let abandoned = Atomic.make 0
let unreclaimed = Hpbrcu_runtime.Counter.make ()
let uaf = Atomic.make 0
let poisoned_reads = Atomic.make 0
let double_retires = Atomic.make 0
let double_reclaims = Atomic.make 0

(* In strict mode (the default; tests) violations raise; in counting mode
   (benches) they only bump counters so a buggy configuration can still be
   measured and reported. *)
let strict = Atomic.make true

let set_strict b = Atomic.set strict b

(* Poisoning mode (lib/check's UAF oracle): [reclaim] stamps the block's
   poison word, so a later access is classified as a read of freed memory
   of a specific incarnation rather than a generic state anomaly.  Off by
   default — benches should not pay the extra store. *)
let poisoning = Atomic.make false

let set_poisoning b = Atomic.set poisoning b

(** Per-reclamation-domain unreclaimed watermarks.

    Each live {!Hpbrcu_core.Smr_intf.Dom.t} holds a slot here; the scheme
    stamps the slot id into the block header at retire time
    ({!Block.set_owner}) and {!reclaim} debits the slot, so every domain
    gets its own retired-but-unreclaimed counter with a peak — the
    measurement the shard-isolation experiment is about.  Slot 0 is the
    "no owner" slot (blocks retired outside any domain) and is never
    handed out.  Slots are recycled through a free bitmap at domain destroy, so
    thousands of short-lived cells cannot exhaust the table. *)
module Owner = struct
  let max_owners = 512

  exception Exhausted

  let counters =
    Array.init max_owners (fun _ -> Hpbrcu_runtime.Counter.make ())

  let labels = Array.make max_owners ""
  let in_use = Array.init max_owners (fun _ -> Atomic.make false)

  (** [fresh ~label] claims a free slot (1-based; raises {!Exhausted} when
      all [max_owners - 1] slots are live at once). *)
  let fresh ~label =
    let rec scan i =
      if i >= max_owners then raise Exhausted
      else if
        (not (Atomic.get in_use.(i)))
        && Atomic.compare_and_set in_use.(i) false true
      then begin
        Hpbrcu_runtime.Counter.reset counters.(i);
        labels.(i) <- label;
        i
      end
      else scan (i + 1)
    in
    scan 1

  (** [release i] returns a slot to the free pool (domain destroy). *)
  let release i =
    if i > 0 && i < max_owners then begin
      Hpbrcu_runtime.Counter.reset counters.(i);
      labels.(i) <- "";
      Atomic.set in_use.(i) false
    end

  let[@inline] valid i = i > 0 && i < max_owners
  let[@inline] on_retire i = if valid i then Hpbrcu_runtime.Counter.incr counters.(i)
  let[@inline] on_reclaim i = if valid i then Hpbrcu_runtime.Counter.decr counters.(i)

  let unreclaimed i = if valid i then Hpbrcu_runtime.Counter.get counters.(i) else 0
  let peak i = if valid i then Hpbrcu_runtime.Counter.peak counters.(i) else 0
  let label i = if valid i then labels.(i) else ""
  let reset_peak i = if valid i then Hpbrcu_runtime.Counter.reset_peak counters.(i)

  (** Live slots as [(slot, label, unreclaimed, peak)], for reports. *)
  let snapshot () =
    let acc = ref [] in
    for i = max_owners - 1 downto 1 do
      if Atomic.get in_use.(i) then
        acc :=
          (i, labels.(i), Hpbrcu_runtime.Counter.get counters.(i),
           Hpbrcu_runtime.Counter.peak counters.(i))
          :: !acc
    done;
    !acc

  let reset_all () =
    for i = 1 to max_owners - 1 do
      Hpbrcu_runtime.Counter.reset counters.(i);
      labels.(i) <- "";
      Atomic.set in_use.(i) false
    done
end

let stats () =
  {
    allocated = Atomic.get allocated;
    retired = Atomic.get retired;
    reclaimed = Atomic.get reclaimed;
    abandoned = Atomic.get abandoned;
    unreclaimed = Hpbrcu_runtime.Counter.get unreclaimed;
    peak_unreclaimed = Hpbrcu_runtime.Counter.peak unreclaimed;
    uaf = Atomic.get uaf;
    poisoned_reads = Atomic.get poisoned_reads;
    double_retires = Atomic.get double_retires;
    double_reclaims = Atomic.get double_reclaims;
  }

(** [census ()] — the allocator's books after a cell: no use-after-free,
    no double retire or reclaim, [unreclaimed = retired - reclaimed]
    exactly (an end-to-end check of the sharded counter's lane fold) and
    [allocated >= retired + abandoned].  Read right after the cell: the
    counters restart only at {!reset}, so they are still its own.
    Returns [(ok, problems)], [problems = ""] when clean. *)
let census () =
  let st = stats () in
  let problems = ref [] in
  let check cond msg = if not cond then problems := msg :: !problems in
  check (st.uaf = 0) (Printf.sprintf "uaf=%d" st.uaf);
  check (st.double_retires = 0)
    (Printf.sprintf "double_retires=%d" st.double_retires);
  check (st.double_reclaims = 0)
    (Printf.sprintf "double_reclaims=%d" st.double_reclaims);
  check
    (st.unreclaimed = st.retired - st.reclaimed)
    (Printf.sprintf "unreclaimed=%d <> retired-reclaimed=%d" st.unreclaimed
       (st.retired - st.reclaimed));
  check
    (st.allocated >= st.retired + st.abandoned)
    (Printf.sprintf "allocated=%d < retired+abandoned=%d" st.allocated
       (st.retired + st.abandoned));
  (!problems = [], String.concat "; " (List.rev !problems))

let reset () =
  Atomic.set allocated 0;
  Atomic.set retired 0;
  Atomic.set reclaimed 0;
  Atomic.set abandoned 0;
  Hpbrcu_runtime.Counter.reset unreclaimed;
  Atomic.set uaf 0;
  Atomic.set poisoned_reads 0;
  Atomic.set double_retires 0;
  Atomic.set double_reclaims 0;
  (* Block ids and signal send-sequence ids restart with the cell so that
     trace correlation arguments are deterministic per seed. *)
  Block.reset_ids ();
  Hpbrcu_runtime.Signal.reset_telemetry ();
  (* Per-domain watermarks restart with the cell too, but the slots stay
     claimed: a domain that outlives a cell keeps its slot. *)
  Array.iteri
    (fun i used ->
      if i > 0 && Atomic.get used then
        Hpbrcu_runtime.Counter.reset Owner.counters.(i))
    Owner.in_use

(** Zero every per-domain watermark slot {e without} freeing the slots:
    cells re-measure inside long-lived domains.  Full slot release happens
    at domain destroy; {!Owner.reset_all} is for whole-process resets. *)
let reset_owner_peaks () =
  List.iter (fun (i, _, _, _) -> Owner.reset_peak i) (Owner.snapshot ())

(** Re-arm only the peak tracker (measure the peak of a window). *)
let reset_peak () = Hpbrcu_runtime.Counter.reset_peak unreclaimed

(** [fresh_id ()] counts one allocation and returns its block id: a
    structure calls it as it builds a node, whose record starts with the
    header's fields (DESIGN.md §9, "the header-prefix rule"). *)
let fresh_id () =
  Atomic.incr allocated;
  Block.fresh_id ()

(** [block ()] allocates a standalone lifecycle header, counted as an
    allocation like a node. *)
let block ?recyclable () =
  Atomic.incr allocated;
  Block.make ?recyclable ()

(** [reanimate b ~era] — a recycling pool hands [b] out again
    ({!Block.reanimate}).  The new incarnation counts as an allocation,
    so the census identity [allocated >= retired + abandoned] still holds
    when one header is retired once per incarnation. *)
let reanimate b ~era =
  Atomic.incr allocated;
  Block.reanimate b ~era

(** [retire b] marks [b] retired: it has been unlinked and its reclamation
    is now the scheme's responsibility.  Counted as "unreclaimed" until
    {!reclaim}. *)
let retire b =
  if Block.transition b ~from:Live ~to_:Retired then begin
    Atomic.incr retired;
    Hpbrcu_runtime.Counter.incr unreclaimed;
    (* arg = unreclaimed count (the watermark curve), arg2 = block id (the
       retire→reclaim correlation edge).  Ids are replay-safe because
       [reset] restarts them per cell.  The [enabled] guard keeps the
       lane fold in [Counter.get] off the tracing-off hot path: [emit2]
       checks the flag internally, but its arguments evaluate eagerly. *)
    if Hpbrcu_runtime.Trace.enabled () then
      Hpbrcu_runtime.Trace.emit2 Hpbrcu_runtime.Trace.Retire
        (Hpbrcu_runtime.Counter.get unreclaimed)
        (Block.id b)
  end
  else begin
    Atomic.incr double_retires;
    if Atomic.get strict then raise (Double_retire b) else Atomic.incr uaf
  end

(** [try_retire b] claims the retirement of [b]: returns [true] iff the
    caller won the Live→Retired transition (and must now hand [b] to a
    scheme with [~claimed:true]).  Used where several threads race to
    detach the same region (e.g. NMTree chain pruning). *)
let try_retire b =
  if Block.transition b ~from:Block.Live ~to_:Block.Retired then begin
    Atomic.incr retired;
    Hpbrcu_runtime.Counter.incr unreclaimed;
    if Hpbrcu_runtime.Trace.enabled () then
      Hpbrcu_runtime.Trace.emit2 Hpbrcu_runtime.Trace.Retire
        (Hpbrcu_runtime.Counter.get unreclaimed)
        (Block.id b);
    true
  end
  else false

(** [reclaim b] frees [b] in the simulation: any later access is a
    use-after-free. *)
let reclaim b =
  if Block.transition b ~from:Retired ~to_:Reclaimed then begin
    if Atomic.get poisoning then Block.poison b;
    Atomic.incr reclaimed;
    Hpbrcu_runtime.Counter.decr unreclaimed;
    Owner.on_reclaim (Block.owner b);
    if Hpbrcu_runtime.Trace.enabled () then
      Hpbrcu_runtime.Trace.emit2 Hpbrcu_runtime.Trace.Reclaim
        (Hpbrcu_runtime.Counter.get unreclaimed)
        (Block.id b)
  end
  else begin
    Atomic.incr double_reclaims;
    if Atomic.get strict then raise (Double_reclaim b) else Atomic.incr uaf
  end

(** [abandon b] — give back a Live block that was allocated but never
    published (e.g. an insert that found its key present).  Non-recycling
    schemes have no pool to return it to, and without this the block would
    be indistinguishable from one stranded by a lost retirement — the
    leak-at-quiescence oracle's accounting (DESIGN.md §11) needs the two
    told apart. *)
let abandon b =
  if Block.transition b ~from:Live ~to_:Reclaimed then begin
    if Atomic.get poisoning then Block.poison b;
    Atomic.incr abandoned
  end

(* [check_access]'s slow path: [b] is reclaimed. *)
let check_access_slow b =
  if not (Block.recyclable b) then begin
    if Block.is_poisoned b then Atomic.incr poisoned_reads;
    if Atomic.get strict then raise (Use_after_free b) else Atomic.incr uaf
  end

(** [check_access b] — called by scheme-mediated reads before a node's
    fields may be used.  Detects access to reclaimed memory.  Blocks from a
    recycling pool are exempt: VBR legitimately lets readers race with
    reuse and catches staleness by version instead.  Under poisoning mode
    the violation is additionally classified: a set poison stamp proves the
    read hit freed memory of a specific incarnation (the stamp encodes the
    version at free time and is cleared on reanimation).  Every mediated
    read runs it, so it inlines to one load and compare; everything else is
    out of line in [check_access_slow]. *)
let[@inline] check_access b = if Block.is_reclaimed b then check_access_slow b

(** Raw counter for harness-side assertions. *)
let current_unreclaimed () = Hpbrcu_runtime.Counter.get unreclaimed
let peak_unreclaimed () = Hpbrcu_runtime.Counter.peak unreclaimed
let uaf_count () = Atomic.get uaf
