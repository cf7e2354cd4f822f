(** Trace analysis: reclamation-latency distributions from a spooled event
    log alone (DESIGN.md §10).

    The paper's robustness claim (§4, Fig. 6) is a latency claim — BRCU
    bounds how long a lagging reader can delay reclamation — so the
    analyzer turns a causally-annotated trace ({!Hpbrcu_runtime.Trace})
    into the corresponding distributions:

    - {b time-to-reclaim}: [Retire]→[Reclaim] joined on the block id
      carried in [arg2];
    - {b grace-period latency}: each retire to the first epoch advance
      that {e covers} it (advance to ≥ retire-epoch + 2, Fraser's safety
      margin — the moment the block {e could} first be reclaimed);
    - {b signal→rollback latency}: [Signal_sent]→[Rollback] joined on the
      send-sequence id, with drops and never-matched sends accounted;
    - {b abort rate vs critical-section length}: [Cs_begin]/[Cs_end]
      spans, bucketed by power-of-two section length;
    - {b unreclaimed watermark over time}: the [Retire]/[Reclaim]
      unreclaimed counts, downsampled to a bounded curve (the shape of
      Fig. 6, reproduced from the trace instead of end-of-run peaks);
    - {b per-domain slices}: [Owner_retire] stamps each block with its
      reclamation domain, so time-to-reclaim and the watermark curve are
      additionally grouped per domain id — the multi-domain topologies
      (sharded maps) read their isolation story straight off the trace.

    All latencies are in virtual ticks (fiber mode); the whole summary is
    a pure function of the record list, so the determinism test can assert
    analyze-output equality across same-seed runs. *)

module Trace = Hpbrcu_runtime.Trace
module Stats = Hpbrcu_runtime.Stats
module Histogram = Stats.Histogram

(** Per-reclamation-domain slice of the lifecycle metrics, keyed by the
    domain id carried on [Owner_retire] (the {!Hpbrcu_alloc.Alloc.Owner}
    slot).  Traces recorded before the first-class-domain redesign carry
    no [Owner_retire] events and yield an empty list. *)
type domain_summary = {
  dom : int;  (** domain id (watermark slot) *)
  retired : int;  (** blocks this domain retired in-trace *)
  ttr_d : Histogram.summary;  (** per-domain time-to-reclaim, ticks *)
  never_reclaimed_d : int;
  watermark_d : (int * int) list;
      (** per-domain (tick, max unreclaimed in window) curve *)
}

type summary = {
  source : string;
  unit_ : string;
      (** timestamp unit of every latency figure below: ["tick"] for fiber
          traces, ["ns"] for merged domains-mode flight traces (read from
          the trace file's [# unit: ns] header) *)
  events : int;
  ttr : Histogram.summary;  (** time-to-reclaim, ticks *)
  never_reclaimed : int;  (** retired in-trace, not reclaimed in-trace *)
  grace : Histogram.summary;  (** retire → covering epoch advance, ticks *)
  uncovered : int;  (** retires no in-trace advance ever covered *)
  sig_rb : Histogram.summary;  (** signal → correlated rollback, ticks *)
  signals_sent : int;
  signals_dropped : int;
  signals_unmatched : int;  (** sent, neither rolled back nor dropped *)
  cs : Histogram.summary;  (** critical-section lengths, ticks *)
  cs_aborted : int;  (** sections ending in a rollback *)
  abort_by_len : (int * int * int) list;
      (** (length-bucket lower bound, sections, aborted) per 2^k bucket *)
  watermark : (int * int) list;
      (** (tick, max unreclaimed in window), ≤ {!watermark_points} points *)
  by_domain : domain_summary list;
      (** per-domain slices, ascending domain id; [] without
          [Owner_retire] events *)
}

let watermark_points = 256

(* Downsample a newest-first (tick, value) series to a ≤
   [watermark_points] max-per-window curve. *)
let downsample marks =
  let marks = List.rev marks in
  match marks with
  | [] -> []
  | (t0, _) :: _ ->
      let tn = List.fold_left (fun _ (t, _) -> t) t0 marks in
      let span = max 1 (tn - t0 + 1) in
      let w = max 1 ((span + watermark_points - 1) / watermark_points) in
      let acc = ref [] in
      List.iter
        (fun (t, v) ->
          let win = t0 + ((t - t0) / w * w) in
          match !acc with
          | (pw, pv) :: rest when pw = win -> acc := (pw, max pv v) :: rest
          | _ -> acc := (win, v) :: !acc)
        marks;
      List.rev !acc

(* Running per-domain state while scanning the stream. *)
type dstate = {
  ttr_h_d : Histogram.t;
  retired_at_d : (int, int) Hashtbl.t;  (* block id -> owner-retire tick *)
  mutable unrec_d : int;
  mutable retired_d : int;
  mutable marks_d : (int * int) list;  (* newest first *)
}

(* Power-of-two bucketing for the abort-rate curve: bucket k holds lengths
   in [2^(k-1), 2^k) with bucket 0 holding length 0. *)
let len_bucket len =
  let k = ref 0 and v = ref len in
  while !v > 0 do
    incr k;
    v := !v lsr 1
  done;
  !k

let len_bucket_floor k = if k = 0 then 0 else 1 lsl (k - 1)

let of_records ?(source = "trace") ?(unit_ = "tick")
    (records : Trace.record list) : summary =
  let events = List.length records in
  (* --- retire→reclaim and the watermark curve --- *)
  let ttr_h = Histogram.make () in
  let retired_at : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let marks = ref [] (* (tick, unreclaimed), newest first *) in
  (* --- epoch advances, normalized monotone for the grace-period join --- *)
  let advances = ref [] (* (tick, epoch), newest first *) in
  let max_epoch = ref min_int in
  (* --- retires pending a covering advance: (tick, needed epoch) --- *)
  let retires = ref [] in
  (* --- signal→rollback --- *)
  let sig_h = Histogram.make () in
  let sent_at : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let signals_sent = ref 0 and signals_dropped = ref 0 in
  (* --- critical sections, keyed per thread --- *)
  let cs_h = Histogram.make () in
  let cs_open : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let cs_aborted = ref 0 in
  let abort_buckets = Array.make 64 (0, 0) in
  (* --- per-domain slices, joined through Owner_retire's block->domain map --- *)
  let doms : (int, dstate) Hashtbl.t = Hashtbl.create 8 in
  let dom_of_block : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let dstate did =
    match Hashtbl.find_opt doms did with
    | Some d -> d
    | None ->
        let d =
          {
            ttr_h_d = Histogram.make ();
            retired_at_d = Hashtbl.create 64;
            unrec_d = 0;
            retired_d = 0;
            marks_d = [];
          }
        in
        Hashtbl.add doms did d;
        d
  in
  List.iter
    (fun (r : Trace.record) ->
      match r.event with
      | Trace.Retire ->
          Hashtbl.replace retired_at r.arg2 r.tick;
          marks := (r.tick, r.arg) :: !marks;
          retires := (r.tick, max 2 !max_epoch + 2) :: !retires
      | Trace.Owner_retire ->
          let d = dstate r.arg in
          Hashtbl.replace dom_of_block r.arg2 r.arg;
          Hashtbl.replace d.retired_at_d r.arg2 r.tick;
          d.retired_d <- d.retired_d + 1;
          d.unrec_d <- d.unrec_d + 1;
          d.marks_d <- (r.tick, d.unrec_d) :: d.marks_d
      | Trace.Reclaim ->
          (match Hashtbl.find_opt retired_at r.arg2 with
          | Some t0 ->
              Histogram.record ttr_h (r.tick - t0);
              Hashtbl.remove retired_at r.arg2
          | None -> ());
          (match Hashtbl.find_opt dom_of_block r.arg2 with
          | Some did ->
              let d = dstate did in
              d.unrec_d <- d.unrec_d - 1;
              d.marks_d <- (r.tick, d.unrec_d) :: d.marks_d;
              (match Hashtbl.find_opt d.retired_at_d r.arg2 with
              | Some t0 ->
                  Histogram.record d.ttr_h_d (r.tick - t0);
                  Hashtbl.remove d.retired_at_d r.arg2
              | None -> ());
              Hashtbl.remove dom_of_block r.arg2
          | None -> ());
          marks := (r.tick, r.arg) :: !marks
      | Trace.Epoch_advance ->
          if r.arg > !max_epoch then begin
            max_epoch := r.arg;
            advances := (r.tick, r.arg) :: !advances
          end
      | Trace.Signal_sent ->
          incr signals_sent;
          if r.arg2 > 0 then Hashtbl.replace sent_at r.arg2 r.tick
      | Trace.Signal_dropped ->
          incr signals_dropped;
          if r.arg2 > 0 then Hashtbl.remove sent_at r.arg2
      | Trace.Rollback ->
          if r.arg2 > 0 then (
            match Hashtbl.find_opt sent_at r.arg2 with
            | Some t0 ->
                Histogram.record sig_h (r.tick - t0);
                Hashtbl.remove sent_at r.arg2
            | None -> ())
      | Trace.Cs_begin -> Hashtbl.replace cs_open r.tid r.tick
      | Trace.Cs_end -> (
          match Hashtbl.find_opt cs_open r.tid with
          | Some t0 ->
              Hashtbl.remove cs_open r.tid;
              let len = r.tick - t0 in
              Histogram.record cs_h len;
              let aborted = r.arg = 1 in
              if aborted then incr cs_aborted;
              let b = len_bucket len in
              let n, a = abort_buckets.(b) in
              abort_buckets.(b) <- (n + 1, if aborted then a + 1 else a)
          | None -> ())
      | _ -> ())
    records;
  (* Grace-period join.  The retire at epoch e needed "the epoch at retire
     time was e" — but the stream above only knows the max advance seen so
     far, which IS the epoch at that point of the trace (schemes start at
     epoch 2 and every later value is announced by an advance event), so
     the needed target e+2 was computed inline.  Both the advance ticks
     and their epochs are monotone, so for each retire the covering
     advance is the first one at (tick ≥ retire tick) ∧ (epoch ≥ target):
     the max of two lower bounds found by binary search. *)
  let adv = Array.of_list (List.rev !advances) in
  let nadv = Array.length adv in
  let first_ge proj v =
    (* smallest index i with proj adv.(i) >= v, or nadv *)
    let lo = ref 0 and hi = ref nadv in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if proj adv.(mid) >= v then hi := mid else lo := mid + 1
    done;
    !lo
  in
  let grace_h = Histogram.make () in
  let uncovered = ref 0 in
  List.iter
    (fun (t, target) ->
      let i = max (first_ge fst t) (first_ge snd target) in
      if i < nadv then Histogram.record grace_h (fst adv.(i) - t)
      else incr uncovered)
    !retires;
  (* Watermark curves: max unreclaimed per fixed-width tick window. *)
  let watermark = downsample !marks in
  let by_domain =
    Hashtbl.fold
      (fun did (d : dstate) acc ->
        {
          dom = did;
          retired = d.retired_d;
          ttr_d = Histogram.summary d.ttr_h_d;
          never_reclaimed_d = Hashtbl.length d.retired_at_d;
          watermark_d = downsample d.marks_d;
        }
        :: acc)
      doms []
    |> List.sort (fun a b -> compare a.dom b.dom)
  in
  let abort_by_len =
    let rows = ref [] in
    for b = Array.length abort_buckets - 1 downto 0 do
      let n, a = abort_buckets.(b) in
      if n > 0 then rows := (len_bucket_floor b, n, a) :: !rows
    done;
    !rows
  in
  {
    source;
    unit_;
    events;
    ttr = Histogram.summary ttr_h;
    never_reclaimed = Hashtbl.length retired_at;
    grace = Histogram.summary grace_h;
    uncovered = !uncovered;
    sig_rb = Histogram.summary sig_h;
    signals_sent = !signals_sent;
    signals_dropped = !signals_dropped;
    signals_unmatched = Hashtbl.length sent_at;
    cs = Histogram.summary cs_h;
    cs_aborted = !cs_aborted;
    abort_by_len;
    watermark;
    by_domain;
  }

(** [of_file path] — {!of_records} over a trace file.  A record line
    that is not six integers with a known event code raises [Failure]
    naming the file and the line, where {!Trace.read_file} would raise
    the scanner's own exception, or stop early at a short line. *)
let of_file path =
  let check i line =
    if line <> "" && line.[0] <> '#' then
      try
        Scanf.sscanf line "%d %d %d %d %d %d" (fun _ _ _ code _ _ ->
            ignore (Trace.event_of_code code))
      with _ ->
        failwith
          (Printf.sprintf "%s: line %d: bad trace record: %s" path (i + 1) line)
  in
  List.iteri check (In_channel.with_open_text path In_channel.input_lines);
  of_records
    ~source:(Filename.remove_extension (Filename.basename path))
    ~unit_:(Trace.read_unit path) (Trace.read_file path)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let hsum (s : Histogram.summary) =
  [ Report.i s.count; Report.i s.p50; Report.i s.p90; Report.i s.p99; Report.i s.max ]

(** Render the cross-source comparison tables to [sinks] and the
    per-source curves (watermark, abort-vs-length) as CSVs under
    [Report.outdir].  Table titles carry the timestamp unit of the
    analyzed traces: "ticks" for fiber spools, "ns" for merged
    domains-mode flight traces, "mixed" when the sources disagree. *)
let report ?(sinks = [ Report.Table ]) (summaries : summary list) =
  let unit_label =
    match summaries with
    | [] -> "ticks"
    | s :: rest ->
        if List.for_all (fun x -> x.unit_ = s.unit_) rest then
          match s.unit_ with "ns" -> "ns" | _ -> "ticks"
        else "mixed"
  in
  let titled fmt = Printf.sprintf fmt unit_label in
  Report.emit ~sinks
    {
      Report.title = titled "analyze: reclamation latency (%s)";
      header =
        [
          "source"; "events"; "ttr_n"; "ttr_p50"; "ttr_p90"; "ttr_p99";
          "ttr_max"; "unreclaimed"; "grace_n"; "grace_p50"; "grace_p90";
          "grace_p99"; "grace_max"; "uncovered";
        ];
      rows =
        List.map
          (fun s ->
            (s.source :: Report.i s.events :: hsum s.ttr)
            @ (Report.i s.never_reclaimed :: hsum s.grace)
            @ [ Report.i s.uncovered ])
          summaries;
    };
  Report.emit ~sinks
    {
      Report.title = titled "analyze: signal -> rollback (%s)";
      header =
        [
          "source"; "sent"; "dropped"; "unmatched"; "rb_n"; "rb_p50";
          "rb_p90"; "rb_p99"; "rb_max";
        ];
      rows =
        List.map
          (fun s ->
            [
              s.source; Report.i s.signals_sent; Report.i s.signals_dropped;
              Report.i s.signals_unmatched;
            ]
            @ hsum s.sig_rb)
          summaries;
    };
  Report.emit ~sinks
    {
      Report.title = titled "analyze: critical sections (%s)";
      header =
        [
          "source"; "cs_n"; "cs_p50"; "cs_p90"; "cs_p99"; "cs_max";
          "aborted"; "abort_rate";
        ];
      rows =
        List.map
          (fun s ->
            (s.source :: hsum s.cs)
            @ [
                Report.i s.cs_aborted;
                (if s.cs.count = 0 then "0.000"
                 else
                   Report.f3
                     (float_of_int s.cs_aborted /. float_of_int s.cs.count));
              ])
          summaries;
    };
  (* Per-domain table, only when some trace carried Owner_retire events. *)
  if List.exists (fun s -> s.by_domain <> []) summaries then
    Report.emit ~sinks
      {
        Report.title = titled "analyze: per-domain reclamation (%s)";
        header =
          [
            "source"; "domain"; "retired"; "ttr_n"; "ttr_p50"; "ttr_p90";
            "ttr_p99"; "ttr_max"; "unreclaimed";
          ];
        rows =
          List.concat_map
            (fun s ->
              List.map
                (fun d ->
                  (s.source :: Report.i d.dom :: Report.i d.retired
                 :: hsum d.ttr_d)
                  @ [ Report.i d.never_reclaimed_d ])
                s.by_domain)
            summaries;
      };
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          Report.emit
            ~sinks:
              [
                Report.Csv
                  (Printf.sprintf "analyze_%s_dom%d_watermark.csv" s.source
                     d.dom);
              ]
            {
              Report.title =
                Printf.sprintf "watermark %s domain %d" s.source d.dom;
              header = [ "tick"; "unreclaimed_max" ];
              rows =
                List.map
                  (fun (t, v) -> [ Report.i t; Report.i v ])
                  d.watermark_d;
            })
        s.by_domain;
      Report.emit ~sinks:[ Report.Csv ("analyze_" ^ s.source ^ "_watermark.csv") ]
        {
          Report.title = "watermark " ^ s.source;
          header = [ "tick"; "unreclaimed_max" ];
          rows = List.map (fun (t, v) -> [ Report.i t; Report.i v ]) s.watermark;
        };
      Report.emit
        ~sinks:[ Report.Csv ("analyze_" ^ s.source ^ "_abort_vs_cslen.csv") ]
        {
          Report.title = "abort-vs-cslen " ^ s.source;
          header = [ "cs_len_ge"; "sections"; "aborted"; "abort_rate" ];
          rows =
            List.map
              (fun (lb, n, a) ->
                [
                  Report.i lb; Report.i n; Report.i a;
                  Report.f3 (float_of_int a /. float_of_int n);
                ])
              s.abort_by_len;
        })
    summaries

(* ------------------------------------------------------------------ *)
(* Perfetto export validation (the check.sh domains-trace gate)        *)
(* ------------------------------------------------------------------ *)

(** Structural validation of an exported Chrome trace-event JSON file:
    parse it with a real (if minimal) JSON reader — so truncation or an
    unbalanced brace fails loudly — then recover the thread tracks from
    the [thread_name] metadata and count the non-metadata events.  The
    domains-trace smoke gate requires the per-domain worker tracks plus
    the [Runtime_events]-fed "gc" track and a nonzero event count. *)
module Perfetto_check = struct
  type json =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of json list
    | Obj of (string * json) list

  (* Recursive-descent parser over the whole file; covers the JSON we
     emit (and any well-formed document without \u escapes). *)
  let parse (s : string) : json =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = failwith (Printf.sprintf "perfetto json: %s at byte %d" msg !pos) in
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let string_lit () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (match peek () with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | c -> Buffer.add_char b c);
            advance ();
            go ()
        | '\000' -> fail "unterminated string"
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      let num_char c =
        (c >= '0' && c <= '9')
        || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while num_char (peek ()) do
        advance ()
      done;
      if !pos = start then fail "expected number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = string_lit () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | '}' ->
                  advance ();
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
          end
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elements acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  elements (v :: acc)
              | ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
          end
      | '"' -> Str (string_lit ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> Num (number ())
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  type t = {
    pf_events : int;  (** non-metadata trace events *)
    pf_tracks : string list;  (** thread_name metadata, document order *)
  }

  let field k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

  (** [validate path] — parse the export and return its event count and
      thread tracks; raises [Failure] on malformed JSON or a document
      that is not a trace-event file. *)
  let validate path : t =
    let ic = open_in_bin path in
    let raw =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let doc = parse raw in
    match field "traceEvents" doc with
    | Some (Arr events) ->
        let pf_events = ref 0 and tracks = ref [] in
        List.iter
          (fun ev ->
            match field "ph" ev with
            | Some (Str "M") -> (
                match (field "name" ev, field "args" ev) with
                | Some (Str "thread_name"), Some args -> (
                    match field "name" args with
                    | Some (Str track) -> tracks := track :: !tracks
                    | _ -> ())
                | _ -> ())
            | Some (Str _) -> incr pf_events
            | _ -> failwith "perfetto json: event without ph")
          events;
        { pf_events = !pf_events; pf_tracks = List.rev !tracks }
    | _ -> failwith "perfetto json: no traceEvents array"
end
