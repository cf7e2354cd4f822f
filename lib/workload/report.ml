(** Result reporting behind one sink-driven emitter.

    A figure driver describes its rows {e once} as a {!row_spec}; {!emit}
    renders the same spec to every requested sink: an aligned text table on
    stdout, a CSV under [results/], or a JSON file of header-keyed row
    objects.  The old [table]/[csv] entry points are gone, so cell
    formatting can no longer drift between sinks.

    Separately, {!record_cell} accumulates one machine-readable JSON object
    per experiment cell (throughput, peak, op-latency summaries, typed
    scheme counters) for [smrbench --stats-json FILE]; see
    {!set_stats_json} / {!write_stats_json}. *)

module Stats = Hpbrcu_runtime.Stats

let outdir = ref "results"

let ensure_outdir () =
  if not (Sys.file_exists !outdir) then Unix.mkdir !outdir 0o755

(* ------------------------------------------------------------------ *)
(* Minimal JSON                                                        *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type value =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of value list
    | Obj of (string * value) list

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int n -> Buffer.add_string b (string_of_int n)
    | Float f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string b (Printf.sprintf "%.1f" f)
        else Buffer.add_string b (Printf.sprintf "%.6g" f)
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | List vs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            write b v)
          vs;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            write b (Str k);
            Buffer.add_char b ':';
            write b v)
          fields;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 256 in
    write b v;
    Buffer.contents b

  let to_file path v =
    let oc = open_out path in
    output_string oc (to_string v);
    output_char oc '\n';
    close_out oc
end

(** Histogram summary → JSON (always the same schema). *)
let json_of_summary (s : Stats.Histogram.summary) =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("sum", Json.Int s.sum);
      ("p50", Json.Int s.p50);
      ("p90", Json.Int s.p90);
      ("p99", Json.Int s.p99);
      ("max", Json.Int s.max);
    ]

(** Typed scheme snapshot → JSON, via the one sanctioned string-keyed
    serializer ({!Stats.to_fields}); zeros are kept for a stable schema.
    The domain label rides along as the one string field so multi-domain
    runs can tell their counters apart by name, not just slot id. *)
let json_of_snapshot (s : Stats.snapshot) =
  Json.Obj
    (("domain_label", Json.Str s.Stats.domain_label)
    :: List.map
         (fun (k, v) -> (k, Json.Int v))
         (Stats.to_fields ~keep_zeros:true s))

(* ------------------------------------------------------------------ *)
(* The emitter                                                         *)
(* ------------------------------------------------------------------ *)

type row_spec = { title : string; header : string list; rows : string list list }

type sink =
  | Table  (** aligned text table on stdout *)
  | Csv of string  (** CSV file under [!outdir] *)
  | Json_rows of string  (** JSON array of header-keyed row objects *)

let render_table ~title ~header rows =
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i c -> if i < ncols then widths.(i) <- max widths.(i) (String.length c))
      row
  in
  measure header;
  List.iter measure rows;
  Printf.printf "\n== %s ==\n" title;
  let print_row row =
    List.iteri (fun i c -> if i < ncols then Printf.printf "%-*s  " widths.(i) c) row;
    print_newline ()
  in
  print_row header;
  print_row (List.mapi (fun i _ -> String.make widths.(i) '-') header);
  List.iter print_row rows;
  flush stdout

let render_csv ~file ~header rows =
  ensure_outdir ();
  let oc = open_out (Filename.concat !outdir file) in
  let line cells = output_string oc (String.concat "," cells ^ "\n") in
  line header;
  List.iter line rows;
  close_out oc

let render_json_rows ~file ~header rows =
  ensure_outdir ();
  let obj_of_row row =
    Json.Obj (List.map2 (fun k v -> (k, Json.Str v)) header row)
  in
  Json.to_file (Filename.concat !outdir file) (Json.List (List.map obj_of_row rows))

(** [emit ~sinks spec] renders [spec] once per sink. *)
let emit ~sinks { title; header; rows } =
  List.iter
    (function
      | Table -> render_table ~title ~header rows
      | Csv file -> render_csv ~file ~header rows
      | Json_rows file -> render_json_rows ~file ~header rows)
    sinks

(* ------------------------------------------------------------------ *)
(* Per-cell stats accumulator (--stats-json)                           *)
(* ------------------------------------------------------------------ *)

let stats_json_path : string option ref = ref None
let recorded : Json.value list ref = ref []

(** Arm the accumulator; every subsequent {!record_cell} is kept.  Probes
    the path for writability immediately — a typo'd directory must fail
    before the benchmark runs, not after. *)
let set_stats_json path =
  let oc = open_out path in
  close_out oc;
  stats_json_path := Some path;
  recorded := []

let stats_json_enabled () = !stats_json_path <> None

(** [record_cell fields] appends one cell object; no-op unless armed. *)
let record_cell fields =
  if stats_json_enabled () then recorded := Json.Obj fields :: !recorded

(** Write all recorded cells (in run order) to the armed path. *)
let write_stats_json () =
  match !stats_json_path with
  | None -> ()
  | Some path ->
      Json.to_file path (Json.List (List.rev !recorded));
      Printf.printf "wrote %d cell records to %s\n%!" (List.length !recorded) path

let f3 x = Printf.sprintf "%.3f" x
let i = string_of_int
