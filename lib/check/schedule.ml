(** Controlled scheduling for the hunt (DESIGN.md §11).

    The deterministic scheduler exposes one degree of freedom per
    scheduling step: which runnable fiber runs next.  This module takes
    that choice over via {!Hpbrcu_runtime.Sched.set_chooser} and turns it
    into an exploration surface:

    - {!Rand} — uniform over the runnable set: the fuzzing baseline.
    - {!Pct} — PCT-style randomized priority scheduling (Burckhardt et
      al., ASPLOS 2010): each fiber gets a random priority, the
      highest-priority runnable fiber runs, and random change points
      demote the running fiber to the bottom.  Finds bugs that need long
      stretches of one thread running uninterrupted — exactly the shape of
      an epoch advancing while a victim sits mid-traversal.
    - {!Replay} — an explicit decision prefix (from a recording), with a
      seeded random tail beyond it.  Replaying a recording of a run under
      the same seed reproduces it {e exactly}; this is also the substrate
      for bounded-DFS (the odometer advances the prefix) and for the
      shrinker (which edits the prefix).

    Only {e branching} decisions (≥ 2 runnable fibers) are recorded and
    replayed; forced steps cost nothing and would bloat every artifact.
    All strategies consume randomness from a private RNG seeded from the
    case seed, never from the scheduler's own stream, so a hunt case is a
    pure function of [(spec, seed, plan, params)]. *)

module Sched = Hpbrcu_runtime.Sched
module Rng = Hpbrcu_runtime.Rng

type decision = { choice : int;  (** position in the runnable list *)
                  arity : int   (** number of runnable fibers *) }

type recording = {
  decisions : decision array;  (** the branching decisions, in order *)
  overflowed : bool;  (** recording hit {!max_recorded}; schedule-level
                          shrinking is skipped for such runs *)
}

(* A branching decision is one cons cell; the cap bounds artifact size,
   not run length — forced steps are free.  Hunt-sized runs produce on
   the order of 10^5 branching decisions. *)
let max_recorded = 1 lsl 18

type spec =
  | Rand
  | Pct of { change_period : int }
      (** expected scheduling steps between priority change points *)
  | Replay of int array

(* The chooser close over mutable recording state; [with_spec] installs it
   around [f] and returns what was recorded. *)
let with_spec ~seed spec f =
  let rng = Rng.create ~seed:(seed lxor 0x5ced) in
  let rev = ref [] and count = ref 0 in
  let choose =
    match spec with
    | Rand -> fun _runnable n -> Rng.int rng n
    | Pct { change_period } ->
        let prio = Array.init Sched.max_threads (fun _ -> 2 + Rng.int rng 1_000_000) in
        let floor = ref 0 in
        fun runnable n ->
          (* An epsilon of uniform choice keeps every fiber live in
             expectation: a pure priority order can pin a spin-waiter
             above the fiber it waits for until the tick deadline. *)
          if Rng.int rng 64 = 0 then Rng.int rng n
          else begin
            let best = ref 0 and best_p = ref min_int in
            List.iteri
              (fun i tid ->
                let p = if tid < Array.length prio then prio.(tid) else 1 in
                if p > !best_p then begin
                  best_p := p;
                  best := i
                end)
              runnable;
            (* Change point: demote the fiber about to run below every
               priority handed out so far (strictly decreasing floor). *)
            if Rng.int rng change_period = 0 then begin
              let tid = List.nth runnable !best in
              decr floor;
              if tid < Array.length prio then prio.(tid) <- !floor
            end;
            !best
          end
    | Replay prefix ->
        let i = ref 0 in
        fun _runnable n ->
          let k = !i in
          incr i;
          if k < Array.length prefix then min prefix.(k) (n - 1)
          else Rng.int rng n
  in
  let chooser runnable =
    match runnable with
    | [ _ ] | [] -> 0 (* forced: no decision, no randomness, no record *)
    | _ ->
        let n = List.length runnable in
        let pos = choose runnable n in
        let pos = if pos < 0 || pos >= n then 0 else pos in
        if !count < max_recorded then
          rev := { choice = pos; arity = n } :: !rev;
        incr count;
        pos
  in
  Sched.set_chooser chooser;
  let finish () =
    Sched.clear_chooser ();
    {
      decisions = Array.of_list (List.rev !rev);
      overflowed = !count > max_recorded;
    }
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
      ignore (finish () : recording);
      raise e

let prefix_of (r : recording) = Array.map (fun d -> d.choice) r.decisions

(* ------------------------------------------------------------------ *)
(* Bounded-DFS odometer                                                *)
(* ------------------------------------------------------------------ *)

(** [next_dfs_prefix ~depth recording prefix] — the next schedule prefix
    of a bounded exhaustive walk: the deepest decision within [depth] that
    still has an unexplored sibling is advanced and everything after it is
    dropped (the random tail regrows it).  [None] when the subtree under
    [depth] is exhausted.  Decisions beyond the current prefix came from
    the random tail; treating them as explorable makes the walk an
    iterative deepening of whatever the tail uncovered. *)
let next_dfs_prefix ~depth (r : recording) (prefix : int array) :
    int array option =
  let n = min depth (Array.length r.decisions) in
  let rec scan i =
    if i < 0 then None
    else
      let d = r.decisions.(i) in
      (* Below the committed prefix a decision must also match what the
         prefix forced, or its "siblings" were never actually pinned. *)
      let pinned =
        i >= Array.length prefix || min prefix.(i) (d.arity - 1) = d.choice
      in
      if pinned && d.choice + 1 < d.arity then begin
        let next = Array.make (i + 1) 0 in
        for j = 0 to i - 1 do
          next.(j) <- r.decisions.(j).choice
        done;
        next.(i) <- d.choice + 1;
        Some next
      end
      else scan (i - 1)
  in
  scan (n - 1)
