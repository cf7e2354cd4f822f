(* Scheme semantics, scheme by scheme: protection really defers
   reclamation, epochs advance correctly, retire eventually reclaims,
   two-step retirement orders correctly. *)

module Alloc = Hpbrcu_alloc.Alloc
module Block = Hpbrcu_alloc.Block
module Sched = Hpbrcu_runtime.Sched
module Fault = Hpbrcu_runtime.Fault
module Schemes = Hpbrcu_schemes.Schemes
module Link = Hpbrcu_core.Link

let with_scheme = Test_util.with_scheme

(* Retire enough blocks through a scheme (with no readers) and check they
   all get reclaimed after flush + a second flush round. *)
module Drain (S : Hpbrcu_core.Smr_intf.S) = struct
  let run () =
    let h = S.register S.it in
    let n = 1000 in
    for _ = 1 to n do
      S.retire h (Alloc.block ())
    done;
    S.flush h;
    S.flush h;
    S.flush h;
    S.unregister h;
    let st = Alloc.stats () in
    Alcotest.(check int) "retired" n st.Alloc.retired;
    if S.scheme <> "NR" then
      Alcotest.(check int) "all reclaimed" n st.Alloc.reclaimed
    else Alcotest.(check int) "NR reclaims nothing" 0 st.Alloc.reclaimed
end

let drain_case name =
  Alcotest.test_case ("drain/" ^ name) `Quick (fun () ->
      with_scheme name (fun (module S) ->
          let module D = Drain (S) in
          D.run ()))

(* HP: a protected block survives scans; clearing the shield releases it.
   Shields publish block ids, so the scan withholds exactly that block: an
   unprotected sibling retired alongside it, and a shield on [Block.none],
   withhold nothing. *)
let test_hp_protection_defers () =
  with_scheme "HP" @@ fun (module S) ->
  let h = S.register S.it in
  let sh = S.new_shield h and empty = S.new_shield h in
  let b = Alloc.block () and c = Alloc.block () in
  S.protect sh b;
  S.protect empty Block.none;
  S.retire h b;
  S.retire h c;
  S.flush h;
  Alcotest.(check bool) "protected survives" true (Block.is_retired b);
  Alcotest.(check bool) "unprotected reclaimed" true (Block.is_reclaimed c);
  S.clear sh;
  S.flush h;
  Alcotest.(check bool) "reclaimed after clear" true (Block.is_reclaimed b);
  S.unregister h

(* HP and HE: [read] protects its target in the next shield of a ring of
   [hop_ring] the handle owns, so after [hop_ring + 1] reads a scan
   withholds exactly the last [hop_ring] targets and reclaims the first.
   Each target lives in an era of its own (a flush advances HE's clock),
   so an era reservation covers one target only. *)
let hop_ring_case name =
  Alcotest.test_case ("hop-ring/" ^ name) `Quick (fun () ->
      with_scheme name @@ fun (module S) ->
      let k = Hpbrcu_core.Smr_intf.hop_ring in
      let h = S.register S.it in
      let targets =
        Array.init (k + 1) (fun _ ->
            S.flush h;
            let b = Alloc.block () in
            Block.set_birth_era b ~era:(S.current_era S.it);
            let cell = Link.cell (Link.ptr b) in
            ignore (S.read h ~src:Block.none ~hdr:Fun.id cell : Block.t Link.t);
            S.retire h b;
            b)
      in
      S.flush h;
      Alcotest.(check bool) "first target reclaimed" true
        (Block.is_reclaimed targets.(0));
      for i = 1 to k do
        Alcotest.(check bool)
          (Printf.sprintf "target %d withheld" i)
          true
          (Block.is_retired targets.(i))
      done;
      S.unregister h)

(* Shield slots hold block ids: a snapshot is exactly the ids of the
   protected blocks — nothing for a cleared or released slot, nothing for
   [Block.none]. *)
let test_shields_snapshot_ids () =
  Alloc.reset ();
  let module Shields = Hpbrcu_schemes.Registry.Shields in
  let module Idset = Hpbrcu_core.Idset in
  let t = Shields.create () in
  let ids = Idset.create () in
  let snapshot () =
    Shields.snapshot t ids;
    Idset.sort ids;
    (* Every id made here is below 64; anything else, -1 included, is a
       stray that the length check catches. *)
    let found = List.filter (Idset.mem ids) (List.init 64 Fun.id) in
    Alcotest.(check int) "no stray ids" (List.length found) (Idset.length ids);
    found
  in
  let sh = Array.init 4 (fun _ -> Shields.alloc t) in
  let bs = Array.init 4 (fun _ -> Alloc.block ()) in
  Alcotest.(check (list int)) "empty" [] (snapshot ());
  Array.iteri (fun i s -> Shields.protect s bs.(i)) sh;
  let id i = Block.id bs.(i) in
  Alcotest.(check (list int)) "all protected"
    (List.sort compare [ id 0; id 1; id 2; id 3 ])
    (snapshot ());
  Shields.protect sh.(0) Block.none;
  Shields.clear sh.(1);
  Shields.release sh.(2);
  Alcotest.(check (list int)) "none, clear, release" [ id 3 ] (snapshot ());
  Shields.clear sh.(3);
  Alcotest.(check (list int)) "all clear" [] (snapshot ())

(* EBR: a pinned reader blocks reclamation; unpinning unblocks it. *)
let test_ebr_pin_blocks () =
  with_scheme "RCU" (fun (module S) ->
      Sched.run (Sched.Fibers { seed = 1; switch_every = 1 }) ~nthreads:2
        (fun tid ->
          if tid = 0 then begin
            (* Reader pins across many scheduler quanta. *)
            let h = S.register S.it in
            S.crit h (fun () ->
                for _ = 1 to 400 do
                  Sched.yield ()
                done;
                (* While we are pinned, the writer's retirements (stamped at
                   our epoch or later) must not all be reclaimed. *)
                let st = Alloc.stats () in
                if st.Alloc.retired > 300 then
                  Alcotest.(check bool) "reclamation lags behind retirement" true
                    (st.Alloc.reclaimed < st.Alloc.retired));
            S.unregister h
          end
          else begin
            let h = S.register S.it in
            for _ = 1 to 600 do
              S.retire h (Alloc.block ());
              Sched.yield ()
            done;
            S.flush h;
            S.unregister h
          end));
  (* After everyone is gone the domain's teardown drains the leftovers. *)
  let st = Alloc.stats () in
  Alcotest.(check int) "eventually all reclaimed" st.Alloc.retired st.Alloc.reclaimed

(* Two-step retirement (HP-RCU/HP-BRCU): a block protected by a shield
   inside a critical section survives even after the critical section ends
   and epochs advance (Figure 4's timeline). *)
module Two_step (S : Hpbrcu_core.Smr_intf.S) = struct
  let shared : Block.t option ref = ref None

  let run () =
    Sched.run (Sched.Fibers { seed = 2; switch_every = 1 }) ~nthreads:2 (fun tid ->
        if tid = 0 then begin
          let h = S.register S.it in
          let sh = S.new_shield h in
          let b = Alloc.block () in
          (* Publish b so the writer can retire it. *)
          shared := Some b;
          S.crit h (fun () -> S.protect sh b);
          (* Critical section over; the shield must still defer. *)
          for _ = 1 to 2000 do
            Sched.yield ()
          done;
          Alcotest.(check bool)
            (S.scheme ^ ": shielded block not reclaimed")
            false (Block.is_reclaimed b);
          S.clear sh;
          S.flush h;
          S.unregister h
        end
        else begin
          let h = S.register S.it in
          (* Wait for the block, retire it, then churn to force epochs. *)
          while !shared = None do
            Sched.yield ()
          done;
          (match !shared with Some b -> S.retire h b | None -> ());
          for _ = 1 to 1500 do
            S.retire h (Alloc.block ());
            Sched.yield ()
          done;
          S.flush h;
          S.unregister h
        end)
end

let two_step_case name =
  Alcotest.test_case ("two-step/" ^ name) `Quick (fun () ->
      with_scheme name (fun (module S) ->
          let module T = Two_step (S) in
          T.run ()))

module SI = Hpbrcu_core.Smr_intf
module Dom = SI.Dom
module Config = Hpbrcu_core.Config
module Stats = Hpbrcu_runtime.Stats

(* Two domains of the same scheme are fully independent: distinct
   identities, private handle censuses, private watermarks, private
   counters — and the destroy protocol enforces the handle census. *)
let two_domains_case (name, impl) =
  Alcotest.test_case ("independent/" ^ name) `Quick (fun () ->
      Alloc.reset ();
      Alloc.set_strict false;
      let module X = (val impl : SI.SCHEME) in
      let d1 = X.create ~label:(name ^ "-a") Config.default in
      let d2 = X.create ~label:(name ^ "-b") Config.default in
      Alcotest.(check bool)
        "distinct watermark slots" true
        (Dom.id (X.dom d1) <> Dom.id (X.dom d2));
      Alcotest.(check bool)
        "stats carry distinct domain ids" true
        ((X.stats d1).Stats.domain_id <> (X.stats d2).Stats.domain_id);
      let h1 = X.register d1 in
      Alcotest.(check int) "d1 handle census" 1 (Dom.live_handles (X.dom d1));
      Alcotest.(check int) "d2 handle census untouched" 0
        (Dom.live_handles (X.dom d2));
      let n = 200 in
      for _ = 1 to n do
        X.retire h1 (Alloc.block ())
      done;
      X.flush h1;
      X.flush h1;
      (* Every retirement was debited to d1's watermark; d2 never moved. *)
      Alcotest.(check bool)
        "d1 watermark saw the traffic" true
        (Dom.peak_unreclaimed (X.dom d1) > 0);
      Alcotest.(check int) "d2 watermark flat" 0
        (Dom.peak_unreclaimed (X.dom d2));
      Alcotest.(check int) "d2 nothing unreclaimed" 0
        (Dom.unreclaimed (X.dom d2));
      (* Destroy under a live handle is a typed refusal, not a leak. *)
      (match X.destroy d1 with
      | () -> Alcotest.fail "destroy under a live handle must raise"
      | exception Dom.Domain_active { live; _ } ->
          Alcotest.(check int) "census in the error" 1 live);
      X.unregister h1;
      X.destroy d1;
      (* Double-destroy is a typed lifecycle error, and registration is
         refused after the fact. *)
      (match X.destroy d1 with
      | () -> Alcotest.fail "double destroy must raise"
      | exception Dom.Destroyed _ -> ());
      (match X.register d1 with
      | _ -> Alcotest.fail "register on a destroyed domain must raise"
      | exception Dom.Destroyed _ -> ());
      X.destroy d2)

(* The leak census at destroy: NR never reclaims, so everything it
   retired is, by definition, leaked at teardown — the census must say
   exactly that.  (For every real scheme the same census is the crashed-
   reader stranding measure the shards experiment reads.) *)
let test_leak_census () =
  Alloc.reset ();
  Alloc.set_strict false;
  let module X = (val (Option.get (Schemes.find_impl "NR")) : SI.SCHEME) in
  let d = X.create ~label:"census" Config.default in
  let h = X.register d in
  let n = 123 in
  for _ = 1 to n do
    X.retire h (Alloc.block ())
  done;
  X.unregister h;
  X.destroy d;
  Alcotest.(check int) "leak census counts the stranded blocks" n
    (Dom.leak_census (X.dom d))

(* Epoch independence: churning one RCU domain advances its epoch only. *)
let test_epochs_independent () =
  Alloc.reset ();
  Alloc.set_strict false;
  let module X = (val (Option.get (Schemes.find_impl "RCU")) : SI.SCHEME) in
  let d1 = X.create ~label:"busy" Config.default in
  let d2 = X.create ~label:"idle" Config.default in
  let h = X.register d1 in
  let h2 = X.register d2 in
  let e1_before = (X.stats d1).Stats.epoch
  and e2_before = (X.stats d2).Stats.epoch in
  for _ = 1 to 1000 do
    X.retire h (Alloc.block ())
  done;
  X.flush h;
  X.flush h;
  let e1 = (X.stats d1).Stats.epoch and e2 = (X.stats d2).Stats.epoch in
  Alcotest.(check bool) "busy domain advanced" true (e1 > e1_before);
  Alcotest.(check int) "idle domain did not" e2_before e2;
  X.unregister h;
  X.unregister h2;
  X.destroy d1;
  X.destroy d2

(* An operation frame is free: 1000 [op]s around a prebuilt body allocate
   no minor word under any scheme. *)
let op_frame_case (name, (module X : SI.SCHEME)) =
  Alcotest.test_case ("op-frame/" ^ name) `Quick (fun () ->
      Alloc.reset ();
      let d = X.create ~label:"op-frame" Config.default in
      let h = X.register d in
      let body () = () in
      let ops () =
        for _ = 1 to 1000 do
          X.op h body
        done
      in
      ops ();
      let w0 = Gc.minor_words () in
      ops ();
      let words = Gc.minor_words () -. w0 in
      X.unregister h;
      X.destroy d;
      Alcotest.(check (float 0.)) "minor words" 0. words)

(* The bound view [with_domain] hands over is the scheme plus its
   domain: caps read through [SI.caps] are the scheme's under the
   domain's config (so NBR-Large keeps its display name), and
   [register D.it] / [unregister] move that domain's handle census. *)
let bound_view_case name =
  Alcotest.test_case ("bound-view/" ^ name) `Quick (fun () ->
      let ((module X : SI.SCHEME), config) as impl = Schemes.find name in
      Schemes.with_domain impl @@ fun (module D) ->
      let view (c : Hpbrcu_core.Caps.t) =
        ( (c.name, c.robust_stalled, c.robust_longrun, c.per_node),
          (c.starvation, List.map c.supports Hpbrcu_core.Caps.all_ds),
          c.bound ~nthreads:4 )
      in
      Alcotest.(check bool) "caps are the scheme's" true
        (view (SI.caps (module D)) = view (X.caps config));
      let live () = Dom.live_handles (D.dom D.it) in
      let before = live () in
      let h = D.register D.it in
      Alcotest.(check int) "register counts" (before + 1) (live ());
      D.unregister h;
      Alcotest.(check int) "unregister uncounts" before (live ()))

(* Each structure's [name], read through the bound view: the strings
   reports and figures key on. *)
let structure_names_case scheme =
  Alcotest.test_case ("structure-names/" ^ scheme) `Quick (fun () ->
      Schemes.with_domain (Schemes.find scheme) @@ fun (module D) ->
      let name (_, (module M : Test_util.MAKE)) =
        let module L = M (D) in
        L.name
      in
      let maps : (string * (module Test_util.MAKE)) list =
        Hpbrcu_ds.Hashmap.[ ("HashMap", (module Make)); ("HashMap", (module Make_hm)) ]
      in
      Alcotest.(check (list string)) "names"
        (List.map
           (fun fmt -> Printf.sprintf fmt scheme)
           [
             "HList(%s)"; "HHSList(%s)"; "HMList(%s)"; "LazyList(%s)";
             "SkipList(%s)"; "NMTree(%s)"; "EFRB-BST(%s)";
             "HashMap[HHSList(%s)]"; "HashMap[HMList(%s)]";
           ])
        (List.map name (Test_util.structures @ maps)))

(* What one IBR session costs: register + unregister, averaged over 200
   cycles, in words of either heap (minor, plus blocks born in the major
   heap, less what was promoted).  Snapshot arrays sized to the registry's
   capacity read ~1.1k words a cycle; sized to a few participants, ~130. *)
let ibr_session_words = 256.

let test_ibr_session_cost () =
  Alloc.reset ();
  let module X = (val (Option.get (Schemes.find_impl "IBR")) : SI.SCHEME) in
  let d = X.create ~label:"ibr-session" Config.default in
  let cycle () = X.unregister (X.register d) in
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  for _ = 1 to 16 do
    cycle ()
  done;
  let n = 200 in
  let w0 = allocated () in
  for _ = 1 to n do
    cycle ()
  done;
  let words = (allocated () -. w0) /. float_of_int n in
  X.destroy d;
  if words > ibr_session_words then
    Alcotest.failf "an IBR session costs %.1f words (bound %.0f)" words
      ibr_session_words

(* A fiber that crashes inside a session never reaches its [unregister],
   so the handle must stay VISIBLE in the live census (a typed
   Domain_active on destroy), never a silent pin that force-destroy's
   leak accounting then loses. *)
let test_session_crash_mid_section () =
  Alloc.reset ();
  Alloc.set_strict false;
  let module X = (val (Option.get (Schemes.find_impl "RCU")) : SI.SCHEME) in
  let d = X.create ~label:"session-crash" Config.default in
  Fault.install
    {
      Fault.label = "crash-in-session";
      rules =
        [ { Fault.site = Yield; tid = 0; start = 10; period = 0; action = Crash } ];
    };
  Sched.run
    (Sched.Fibers { seed = 5; switch_every = 1 })
    ~nthreads:2
    (fun tid ->
      let h = X.register d in
      if tid = 0 then
        X.op h (fun () ->
            X.crit h (fun () ->
                for _ = 1 to 100 do
                  X.retire h (Alloc.block ());
                  (* The mediated switch point — where Yield-site faults
                     (the crash) are consulted. *)
                  Sched.yield ()
                done))
      else
        for _ = 1 to 20 do
          X.retire h (Alloc.block ());
          Sched.yield ()
        done;
      X.unregister h);
  Fault.clear ();
  Alcotest.(check int) "one fiber crashed" 1 (Sched.crashed_count ());
  (* The survivor unregistered; the victim could not and must be counted,
     not dropped. *)
  Alcotest.(check int) "crashed session still in the census" 1
    (Dom.live_handles (X.dom d));
  (match X.destroy d with
  | () -> Alcotest.fail "destroy under a crashed session must raise"
  | exception Dom.Domain_active { live; _ } ->
      Alcotest.(check int) "census names the pin" 1 live);
  (* Teardown under dead readers is the documented force path. *)
  X.destroy ~force:true d;
  (match X.register d with
  | _ -> Alcotest.fail "register after force-destroy must raise"
  | exception Dom.Destroyed _ -> ())

(* Two ejectors reach one crashed reader: both see [Dead_receiver], but
   only the one whose CAS removes the participant counts the
   quarantine. *)
let test_quarantine_once () =
  let module SC = Hpbrcu_schemes.Scheme_common in
  let module Signal = Hpbrcu_runtime.Signal in
  let n = SC.neutralizer (Dom.make ~scheme:"PEBR" Config.default) in
  let participants = Hpbrcu_schemes.Registry.Participants.create () in
  let corpse = ref 0 in
  ignore (Hpbrcu_schemes.Registry.Participants.add participants corpse : int);
  let box = Signal.make () in
  let verdicts = ref [] in
  Fault.install
    {
      Fault.label = "crash-t0";
      rules =
        [ { Fault.site = Yield; tid = 0; start = 5; period = 0; action = Crash } ];
    };
  Sched.run
    (Sched.Fibers { seed = 13; switch_every = 1 })
    ~nthreads:3
    (fun tid ->
      if tid = 0 then begin
        Signal.attach box;
        for _ = 1 to 1000 do
          Sched.yield ()
        done
      end
      else begin
        for _ = 1 to 50 do
          Sched.yield_now ()
        done;
        verdicts :=
          SC.neutralize n participants corpse box ~is_out:(fun () -> false)
          :: !verdicts
      end);
  Fault.clear ();
  Alcotest.(check int) "one crash" 1 (Sched.crashed_count ());
  Alcotest.(check (list bool)) "both ejectors pass the corpse" [ true; true ]
    !verdicts;
  Alcotest.(check int) "quarantined once" 1
    (Stats.Counter.value n.SC.quarantines);
  Alcotest.(check int) "participant removed" 0
    (let k = ref 0 in
     Hpbrcu_schemes.Registry.Participants.iter participants (fun _ -> incr k);
     !k)

(* VBR reclaims immediately: the unreclaimed count never exceeds ~0. *)
let test_vbr_immediate () =
  with_scheme "VBR" @@ fun (module S) ->
  let h = S.register S.it in
  for _ = 1 to 500 do
    S.retire h (Alloc.block ~recyclable:true ())
  done;
  let st = Alloc.stats () in
  Alcotest.(check int) "nothing pending" 0 st.Alloc.unreclaimed;
  Alcotest.(check bool) "peak at most 1" true (st.Alloc.peak_unreclaimed <= 1);
  S.unregister h

(* VBR era advances with retirement volume. *)
let test_vbr_era_advances () =
  with_scheme "VBR" @@ fun (module S) ->
  let h = S.register S.it in
  let e0 = S.current_era S.it in
  for _ = 1 to 1000 do
    S.retire h (Alloc.block ~recyclable:true ())
  done;
  Alcotest.(check bool) "era advanced" true (S.current_era S.it > e0);
  S.unregister h

(* The contract the structures' [Pool.recycle] relies on: a recycling
   scheme has reclaimed the block by the time [retire] returns.  Under
   the others a retired block is never live again at that point. *)
let recycles_reclaims_case name =
  Alcotest.test_case ("recycles-reclaims/" ^ name) `Quick (fun () ->
      with_scheme name @@ fun (module S) ->
      let h = S.register S.it in
      for _ = 1 to 300 do
        let b = Alloc.block ~recyclable:S.recycles () in
        S.retire h b;
        if S.recycles then
          Alcotest.(check bool) "reclaimed when retire returns" true
            (Block.is_reclaimed b)
        else Alcotest.(check bool) "not live" false (Block.is_live b)
      done;
      S.flush h;
      S.unregister h)

let () =
  let all = Test_util.all_schemes in
  let two_step_schemes =
    List.filter (fun n -> List.mem n [ "HP"; "HP++"; "HP-RCU"; "HP-BRCU" ]) all
  in
  Alcotest.run "schemes"
    [
      ("drain", List.map drain_case all);
      ( "hp",
        [
          Alcotest.test_case "protection-defers" `Quick test_hp_protection_defers;
          Alcotest.test_case "shields-snapshot-ids" `Quick test_shields_snapshot_ids;
          hop_ring_case "HP";
          hop_ring_case "HE";
        ] );
      ("ebr", [ Alcotest.test_case "pin-blocks" `Quick test_ebr_pin_blocks ]);
      ("two-step", List.map two_step_case two_step_schemes);
      ( "domains",
        List.map two_domains_case Schemes.impls
        @ [
            Alcotest.test_case "leak-census" `Quick test_leak_census;
            Alcotest.test_case "epochs-independent" `Quick
              test_epochs_independent;
            Alcotest.test_case "ibr-session-cost" `Quick test_ibr_session_cost;
          ] );
      ( "bound-view",
        List.map bound_view_case Schemes.names
        @ List.map structure_names_case [ "NR"; "HP"; "NBR-Large" ] );
      ("op-frame", List.map op_frame_case Schemes.impls);
      ("recycles", List.map recycles_reclaims_case Schemes.names);
      ( "vbr",
        [
          Alcotest.test_case "immediate-reclaim" `Quick test_vbr_immediate;
          Alcotest.test_case "era-advances" `Quick test_vbr_era_advances;
        ] );
      ( "session",
        [
          Alcotest.test_case "crash-mid-section" `Quick
            test_session_crash_mid_section;
        ] );
      ( "neutralize",
        [ Alcotest.test_case "quarantine-once" `Quick test_quarantine_once ] );
    ]
