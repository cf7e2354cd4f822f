(** Delta-debugging a failing hunt case down to a minimal repro
    (DESIGN.md §11).

    A shrink candidate {e still fails} when re-running it produces at
    least one finding of the same kind as the original (magnitudes may
    move; the invariant convicted must not).  The passes are deterministic
    and run in a fixed order until a whole round makes no progress or the
    run budget is spent, so shrinking the same case twice yields the same
    minimum:

    + pin the schedule — replace the generator strategy by a replay of
      the decisions the failing run actually made (skipped when the
      recording overflowed);
    + drop fault rules one at a time;
    + halve rule numerics (start, period, stall/delay durations) toward
      zero;
    + truncate the schedule prefix — empty first (the seed's random tail
      often suffices), then binary chops off the end, then halving
      excisions from the middle;
    + halve the workload (writer and reader op budgets) and the tick
      budget.

    Every candidate execution costs one full run, so the budget is a cap
    on {e runs}, not candidates considered. *)

module Fault = Hpbrcu_runtime.Fault
module Chaos = Hpbrcu_workload.Chaos
module Oracle = Hpbrcu_workload.Oracle

type result = {
  case : Runner.case;  (** the minimal still-failing case *)
  outcome : Runner.outcome;  (** its findings *)
  runs : int;  (** executions spent shrinking *)
}

(* ------------------------------------------------------------------ *)
(* Candidate generators (all deterministic)                            *)
(* ------------------------------------------------------------------ *)

let drop_nth n l = List.filteri (fun i _ -> i <> n) l

let halve n = n / 2

let shrink_action = function
  | Fault.Stall n when n > 1 -> Some (Fault.Stall (halve n))
  | Fault.Delay_signal n when n > 1 -> Some (Fault.Delay_signal (halve n))
  | _ -> None

(* Candidate plans: first each rule dropped, then each rule with one
   numeric field halved. *)
let plan_candidates (pl : Fault.plan) : Fault.plan list =
  let rules = pl.Fault.rules in
  let with_rules rs = { pl with Fault.rules = rs } in
  let drops = List.mapi (fun i _ -> with_rules (drop_nth i rules)) rules in
  let tweaks =
    List.concat
      (List.mapi
         (fun i r ->
           let subst r' = with_rules (List.mapi (fun j x -> if j = i then r' else x) rules) in
           let t = ref [] in
           (match shrink_action r.Fault.action with
           | Some a -> t := subst { r with Fault.action = a } :: !t
           | None -> ());
           if r.Fault.start > 0 then
             t := subst { r with Fault.start = halve r.Fault.start } :: !t;
           if r.Fault.period > 1 then
             t := subst { r with Fault.period = halve r.Fault.period } :: !t;
           List.rev !t)
         rules)
  in
  drops @ tweaks

(* Candidate prefixes: empty, then chop the tail by halves, then excise a
   halving-width window from the middle (classic ddmin granularity walk,
   bounded to keep per-round candidate counts small). *)
let prefix_candidates (prefix : int array) : int array list =
  let n = Array.length prefix in
  if n = 0 then []
  else begin
    let take k = Array.sub prefix 0 k in
    let excise lo w =
      Array.append (Array.sub prefix 0 lo)
        (Array.sub prefix (lo + w) (n - lo - w))
    in
    let cands = ref [ [||] ] in
    let k = ref (n / 2) in
    while !k >= 1 do
      cands := take !k :: !cands;
      k := !k / 2
    done;
    let w = ref (n / 2) in
    while !w >= max 1 (n / 16) do
      let step = max 1 !w in
      let lo = ref 0 in
      while !lo + !w <= n do
        if !lo > 0 then cands := excise !lo !w :: !cands;
        lo := !lo + step
      done;
      w := !w / 2
    done;
    List.rev !cands
  end

(* Candidate parameter reductions: halve op budgets and the tick budget
   (floored so the run can still exercise the scheme at all). *)
let params_candidates (p : Chaos.params) : Chaos.params list =
  let c = ref [] in
  if p.Chaos.writer_ops > 8 then
    c := { p with Chaos.writer_ops = halve p.Chaos.writer_ops } :: !c;
  if p.Chaos.reader_ops > 2 then
    c := { p with Chaos.reader_ops = halve p.Chaos.reader_ops } :: !c;
  if p.Chaos.key_range > 16 then
    c :=
      {
        p with
        Chaos.key_range = halve p.Chaos.key_range;
        hot_width = max 2 (halve p.Chaos.hot_width);
      }
      :: !c;
  List.rev !c

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)
(* ------------------------------------------------------------------ *)

(** [shrink ~budget case outcome] — minimize [case], whose run produced
    [outcome] (which must contain at least one finding). *)
let shrink ?(budget = 200) (case : Runner.case) (outcome : Runner.outcome) :
    result =
  assert (outcome.Runner.findings <> []);
  let target = List.map Oracle.tag outcome.Runner.findings in
  let runs = ref 0 in
  let still_fails c =
    if !runs >= budget then None
    else begin
      incr runs;
      let o, _ = Runner.run c in
      if
        List.exists (fun f -> List.mem (Oracle.tag f) target) o.Runner.findings
      then Some o
      else None
    end
  in
  (* Pin the schedule so prefix shrinking has a prefix to work on. *)
  let best = ref (Runner.pin case outcome) and best_o = ref outcome in
  (match still_fails !best with
  | Some o -> best_o := o
  | None ->
      (* Pinning must preserve the failure (determinism); if the recording
         overflowed mid-branch the tail diverges — fall back to the
         original spec and skip schedule-level shrinking. *)
      best := case);
  let try_candidates mk_case candidates =
    List.exists
      (fun cand ->
        let c = mk_case cand in
        match still_fails c with
        | Some o ->
            (* Keep the candidate exactly as verified — re-pinning would
               re-freeze the random tail and undo a prefix truncation. *)
            best := c;
            best_o := o;
            true
        | None -> false)
      candidates
  in
  let progress = ref true in
  while !progress && !runs < budget do
    progress := false;
    (* Fault rules. *)
    if try_candidates (fun pl -> { !best with Runner.plan = pl })
         (plan_candidates !best.Runner.plan)
    then progress := true;
    (* Schedule prefix. *)
    (match !best.Runner.spec with
    | Schedule.Replay prefix ->
        if
          try_candidates
            (fun pf -> { !best with Runner.spec = Schedule.Replay pf })
            (prefix_candidates prefix)
        then progress := true
    | _ -> ());
    (* Workload size. *)
    if try_candidates (fun p -> { !best with Runner.p = p })
         (params_candidates !best.Runner.p)
    then progress := true
  done;
  { case = !best; outcome = !best_o; runs = !runs }
