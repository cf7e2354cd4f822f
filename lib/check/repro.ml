(** Replayable repro artifacts (DESIGN.md §11).

    A finding that cannot be re-run is a rumor.  This module serializes a
    failing {!Runner.case} — scheme, seed, workload parameters, fault
    plan, schedule — plus the finding it convicts into a small text file:

    {v
    # smrbench-repro v1
    scheme HP-BRCU!nomask
    seed 7
    params 64 8 1 2 20 250 2000000
    spec replay
    finding leak 2
    label fuzz-3
    rule yield -1 400 701 stall 3000
    schedule 0 1 2 0 1
    v}

    [params] is [key_range hot_width readers writers reader_ops
    writer_ops tick_budget]; [rule] lines share {!Fault}'s plan format;
    [schedule] lists the branching-decision prefix (positions into the
    runnable list), absent when the spec carries no prefix.

    {!replay} runs the artifact {e twice} with the tracer on and demands
    (a) a finding of the recorded kind recurs and (b) the two decoded
    event logs are identical — the byte-identical-replay bar the chaos
    harness sets, applied to counterexamples.  Checked-in repros under
    [repros/] run as regression tests. *)

module Fault = Hpbrcu_runtime.Fault
module Chaos = Hpbrcu_workload.Chaos
module Matrix = Hpbrcu_workload.Matrix
module Oracle = Hpbrcu_workload.Oracle

type t = { case : Runner.case; finding : Oracle.finding }

let magic = "# smrbench-repro v1"

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let spec_to_lines = function
  | Schedule.Rand -> [ "spec rand" ]
  | Schedule.Pct { change_period } ->
      [ Printf.sprintf "spec pct %d" change_period ]
  | Schedule.Replay prefix ->
      "spec replay"
      ::
      (if Array.length prefix = 0 then []
       else
         [
           "schedule "
           ^ String.concat " "
               (Array.to_list (Array.map string_of_int prefix));
         ])

let to_string (r : t) =
  let p = r.case.Runner.p in
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s" magic;
  line "scheme %s" r.case.Runner.scheme;
  line "seed %d" r.case.Runner.seed;
  line "params %d %d %d %d %d %d %d" p.Chaos.key_range p.Chaos.hot_width
    p.Chaos.readers p.Chaos.writers p.Chaos.reader_ops p.Chaos.writer_ops
    p.Chaos.tick_budget;
  List.iter (fun l -> line "%s" l) (spec_to_lines r.case.Runner.spec);
  line "finding %s" (Oracle.to_string r.finding);
  line "label %s" r.case.Runner.plan.Fault.label;
  List.iter
    (fun rule -> line "%s" (Fault.rule_to_line rule))
    r.case.Runner.plan.Fault.rules;
  Buffer.contents b

(** [of_string s] parses an artifact.  Raises [Invalid_argument] naming
    the first malformed line (a bad number, an unknown hunt scheme, rule
    or finding), or the missing one. *)
let of_string s : t =
  let fail why = invalid_arg ("Repro.of_string: " ^ why) in
  let int = int_of_string in
  let scheme = ref None
  and seed = ref None
  and params = ref None
  and spec = ref Schedule.Rand
  and prefix = ref [||]
  and finding = ref None
  and label = ref "none"
  and rules = ref [] in
  let parse l =
    match String.split_on_char ' ' l with
    | "scheme" :: rest ->
        let name = String.concat " " rest in
        ignore (Matrix.find_hunt_impl name);
        scheme := Some name
    | [ "seed"; n ] -> seed := Some (int n)
    | [ "params"; kr; hw; r; w; ro; wo; tb ] ->
        params :=
          Some
            {
              Chaos.key_range = int kr;
              hot_width = int hw;
              readers = int r;
              writers = int w;
              reader_ops = int ro;
              writer_ops = int wo;
              tick_budget = int tb;
            }
    | [ "spec"; "rand" ] -> spec := Schedule.Rand
    | [ "spec"; "pct"; cp ] -> spec := Schedule.Pct { change_period = int cp }
    | [ "spec"; "replay" ] -> spec := Schedule.Replay [||]
    | "schedule" :: ds ->
        prefix := Array.of_list (List.map int ds)
    | "finding" :: rest ->
        finding := Some (Oracle.of_string (String.concat " " rest))
    | "label" :: rest -> label := String.concat " " rest
    | "rule" :: _ -> rules := Fault.rule_of_line l :: !rules
    | _ -> raise Exit
  in
  List.iter
    (fun raw ->
      let l = String.trim raw in
      if l <> "" && l.[0] <> '#' then
        try parse l
        with Exit | Failure _ | Invalid_argument _ -> fail ("bad line: " ^ l))
    (String.split_on_char '\n' s);
  let spec =
    match !spec with
    | Schedule.Replay _ -> Schedule.Replay !prefix
    | s -> s
  in
  match (!scheme, !seed, !params, !finding) with
  | Some scheme, Some seed, Some p, Some finding ->
      {
        case =
          {
            Runner.scheme;
            seed;
            p;
            plan = { Fault.label = !label; rules = List.rev !rules };
            spec;
          };
        finding;
      }
  | _ -> fail "missing scheme/seed/params/finding line"

let to_file path (r : t) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string r))

let of_file path : t =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

type verdict = {
  reproduced : bool;  (** a finding of the recorded kind recurred *)
  deterministic : bool;  (** the two traced runs decoded identically *)
  outcome : Runner.outcome;  (** the first run's outcome *)
  divergence : string option;  (** first trace difference, when any *)
}

(** [replay r] — run the artifact twice, traced, and render both verdicts
    (kind recurrence and byte-identical logs). *)
let replay (r : t) : verdict =
  let o1, l1 = Runner.run ~traced:true r.case in
  let o2, l2 = Runner.run ~traced:true r.case in
  let reproduced =
    List.exists (fun f -> Oracle.same_kind f r.finding) o1.Runner.findings
  in
  let divergence = Chaos.first_divergence l1 l2 in
  {
    reproduced;
    deterministic = divergence = None && o1.Runner.findings = o2.Runner.findings;
    outcome = o1;
    divergence;
  }

let pp_verdict ppf v =
  Fmt.pf ppf "%s, %s (%a)%a"
    (if v.reproduced then "reproduced" else "NOT REPRODUCED")
    (if v.deterministic then "deterministic" else "NON-DETERMINISTIC")
    Runner.pp_outcome v.outcome
    (fun ppf -> function
      | None -> ()
      | Some d -> Fmt.pf ppf " divergence: %s" d)
    v.divergence
