(* Quickstart: a concurrent ordered set protected by HP-BRCU.

   Run with:  dune exec examples/quickstart.exe

   The pattern is always the same:
     1. look a scheme up by name (here the paper's full solution, HP-BRCU)
        and open a fresh reclamation domain of it;
     2. instantiate a data structure functor with the scheme bound to
        that domain;
     3. per thread: open a session, run operations, close the session;
     4. the allocator's counters show retirement/reclamation behaviour.
   The domain is destroyed when the scope exits. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Schemes = Hpbrcu_schemes.Schemes

let () =
  Schemes.with_domain (Schemes.find "HP-BRCU") @@ fun (module D) ->
  let module List_set = Hpbrcu_ds.Harris_list.Make_hhs (D.S) in
  let set = List_set.create () in

  (* Single-threaded taste. *)
  let s = List_set.session set in
  assert (List_set.insert set s 1 100);
  assert (List_set.insert set s 2 200);
  assert (not (List_set.insert set s 1 111));
  assert (List_set.get set s 2);
  assert (List_set.remove set s 1);
  assert (not (List_set.get set s 1));
  List_set.close_session s;

  (* Four concurrent workers hammer a small key space.  HP-BRCU keeps the
     number of unreclaimed blocks bounded no matter how the threads
     interleave or stall. *)
  Sched.run Sched.Domains ~nthreads:4 (fun tid ->
      let s = List_set.session set in
      let rng = Hpbrcu_runtime.Rng.create ~seed:(tid + 1) in
      for _ = 1 to 20_000 do
        let k = Hpbrcu_runtime.Rng.int rng 128 in
        match Hpbrcu_runtime.Rng.int rng 3 with
        | 0 -> ignore (List_set.insert set s k tid : bool)
        | 1 -> ignore (List_set.remove set s k : bool)
        | _ -> ignore (List_set.get set s k : bool)
      done;
      List_set.close_session s);

  let st = Alloc.stats () in
  Fmt.pr "allocator: %a@." Alloc.pp_stats st;
  Fmt.pr "scheme:    %a@." Hpbrcu_runtime.Stats.pp (D.S.stats ());
  assert (st.Alloc.uaf = 0);
  Fmt.pr "quickstart OK: no use-after-free, %d blocks reclaimed@."
    st.Alloc.reclaimed
