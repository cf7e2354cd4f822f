(** End-to-end benchmark of HP-BRCU on two worker domains.

    Usage: [main.exe --workload NAME --seed N --seconds S --trace 0|1];
    [run.py] builds it and passes these through.  The last line of
    standard output is the JSON result; progress goes to standard error.

    {b Rounds.}  A run repeats independent rounds of one workload until
    [--seconds] have passed.  A round
    - sets up: draws both workers' operation lists and their expected
      answers from the seed and the round number, creates a fresh
      reclamation domain and map, and prefills the map (timed: [setup_s]);
    - measures: two [Domain.spawn] workers run their lists, each operation
      timed;
    - checks: every answer, the final membership of every key, the
      allocator census, and that tearing the domain down reclaims every
      retired block.
    Round 0 warms the caches and the heap and is not reported.  Timings
    are medians over the reported rounds, so a round that loses its core
    to another process cannot move them.  [cpu_ns_per_op] is the process's
    processor time per operation: unlike the wall-clock figures it does
    not count time a worker spent descheduled.

    {b Checkable answers.}  Worker [w] only touches keys with
    [key mod 2 = w], so each answer follows from its own list alone, while
    both workers still share every node and bucket: their traversals,
    unlinks, retirements and reclamation interleave for real.

    {b Per-layer run.}  [--trace 1] reports the per-layer metrics instead.
    Each round then runs four times on the same inputs: HP-BRCU untraced,
    HP-BRCU with the flight recorder armed, NR (no reclamation: the
    baseline of the reclamation overhead) and RCU (the speed the paper
    says HP-BRCU should come close to).  The traced run's worker time is
    charged to the innermost open span: the operation spans this file
    emits, and the library's critical-section, checkpoint, flush and scan
    spans.  Scheme, allocator and GC counters come from the untraced run.

    {b What should move what.}
    - [crit_self_ns] and [checkpoint_ns] are the traversal under BRCU: they
      set [op_p50_ns] and [throughput_mops] on [list], where an operation
      walks about a hundred nodes, and barely register on [tree].
    - [flush_ns], [scan_ns] and [minor_words_per_op] are the retire and
      reclaim path: they set the same metrics on [hash], where operations
      are short and half of them retire a node.  A flush that neutralizes
      the other worker ([signals_per_kop], [rollbacks_per_kop]) stalls one
      operation, so it shows in [op_p99_ns] first.
    - [peak_unreclaimed] follows [advances_per_kop] and
      [flush_advanced_pct]: garbage waits for the epoch to advance. *)

module Rt = Hpbrcu_runtime
module Clock = Rt.Clock
module Rng = Rt.Rng
module Sched = Rt.Sched
module Stats = Rt.Stats
module Trace = Rt.Trace
module Flight = Rt.Flight
module Alloc = Hpbrcu_alloc.Alloc
module Config = Hpbrcu_core.Config
module SI = Hpbrcu_core.Smr_intf
module Ds = Hpbrcu_ds

let nworkers = 2

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type structure = List | Hash | Tree

type workload = {
  name : string;
  structure : structure;
  key_range : int;
  read_pct : int;  (** the rest splits evenly between insert and remove *)
  ops_per_worker : int;  (** per round; 0.2-0.4 s of work on two cores *)
}

(* BENCHMARK.json records why each workload is in the set. *)
let workloads =
  [
    {
      name = "list";
      structure = List;
      key_range = 512;
      read_pct = 50;
      ops_per_worker = 10_000;
    };
    {
      name = "hash";
      structure = Hash;
      key_range = 1 lsl 16;
      read_pct = 0;
      ops_per_worker = 80_000;
    };
    {
      name = "tree";
      structure = Tree;
      key_range = 1 lsl 14;
      read_pct = 50;
      ops_per_worker = 25_000;
    };
  ]

(* A traced round must keep all of its events in the flight rings: at
   most [traced_ops] operations per worker against [trace_capacity] events
   per ring leaves room for 20 events an operation. *)
let traced_ops = 12_000
let trace_capacity = 1 lsl 18

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type plan = {
  kinds : Bytes.t;  (** per operation: 0 get, 1 insert, 2 remove *)
  keys : int array;
  expect : bool array;  (** the answer each operation must return *)
}

type inputs = {
  prefill : int array;  (** half of the keys, in insertion order *)
  plans : plan array;  (** one per worker *)
  final : bool array;  (** every key's membership after both plans *)
}

(** [gen_inputs w ~seed ~ops] draws a round's inputs and replays each
    worker's plan on its own keys to fix the expected answers. *)
let gen_inputs w ~seed ~ops =
  let rng = Rng.create ~seed in
  let order = Array.init w.key_range Fun.id in
  for i = w.key_range - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let prefill = Array.sub order 0 (w.key_range / 2) in
  let present = Array.make w.key_range false in
  Array.iter (fun k -> present.(k) <- true) prefill;
  let inserts_below = w.read_pct + ((100 - w.read_pct) / 2) in
  let plan tid =
    let kinds = Bytes.create ops
    and keys = Array.make ops 0
    and expect = Array.make ops false in
    for i = 0 to ops - 1 do
      let k = tid + (nworkers * Rng.int rng (w.key_range / nworkers)) in
      let p = Rng.int rng 100 and here = present.(k) in
      keys.(i) <- k;
      if p < w.read_pct then begin
        Bytes.set kinds i '\000';
        expect.(i) <- here
      end
      else if p < inserts_below then begin
        Bytes.set kinds i '\001';
        expect.(i) <- not here;
        present.(k) <- true
      end
      else begin
        Bytes.set kinds i '\002';
        expect.(i) <- here;
        present.(k) <- false
      end
    done;
    { kinds; keys; expect }
  in
  let plans = Array.init nworkers plan in
  { prefill; plans; final = present }

(* ------------------------------------------------------------------ *)
(* Structures                                                          *)
(* ------------------------------------------------------------------ *)

let map_of w (module S : SI.S) : (module Ds.Ds_intf.MAP) =
  match w.structure with
  | List -> (module Ds.Harris_list.Make_hhs (S))
  | Tree -> (module Ds.Nmtree.Make (S))
  | Hash ->
      let module H = Ds.Hashmap.Make_gen (Ds.Harris_list.Make_hhs) (S) in
      (module struct
        type t = H.t
        type session = H.session

        let name = H.name

        (* Two nodes a bucket at the prefill's half occupancy. *)
        let create () = H.create_sized (w.key_range / 4)
        let session = H.session
        let close_session = H.close_session
        let get = H.get
        let insert = H.insert
        let remove = H.remove
        let cleanup = H.cleanup
      end)

(* ------------------------------------------------------------------ *)
(* Per-layer attribution from the flight recorder                      *)
(* ------------------------------------------------------------------ *)

module Layers = struct
  (* Span kinds.  A worker's time between two of its events is charged to
     its innermost open span, or to [loop] (this file's own loop: latency
     stamps and answer checks) when none is open. *)
  let loop = 0
  let op = 1
  let crit = 2
  let checkpoint = 3
  let flush = 4
  let scan = 5

  type t = {
    self_ns : int array;  (** time charged, by kind *)
    spans : int array;  (** spans opened, by kind *)
    mutable crit_completed : int;  (** critical sections not rolled back *)
    mutable flush_advanced : int;  (** flushes that advanced the epoch *)
    mutable events : int;
    mutable dropped : int;  (** events lost to ring wraparound *)
  }

  let create () =
    {
      self_ns = Array.make 6 0;
      spans = Array.make 6 0;
      crit_completed = 0;
      flush_advanced = 0;
      events = 0;
      dropped = 0;
    }

  let opens : Trace.event -> int option = function
    | Trace.Op_begin -> Some op
    | Trace.Cs_begin -> Some crit
    | Trace.Checkpoint_begin -> Some checkpoint
    | Trace.Flush_begin -> Some flush
    | Trace.Scan_begin -> Some scan
    | _ -> None

  let closes : Trace.event -> int option = function
    | Trace.Op_end -> Some op
    | Trace.Cs_end -> Some crit
    | Trace.Checkpoint -> Some checkpoint
    | Trace.Flush_end -> Some flush
    | Trace.Scan_end -> Some scan
    | _ -> None

  (* A rollback can abandon an inner span (a checkpoint cut short); the
     enclosing span's end closes it. *)
  let rec close_to k = function
    | [] -> []
    | k' :: rest -> if k' = k then rest else close_to k rest

  (** [tally acc] folds the flight rings of the round just joined into
      [acc]. *)
  let tally acc =
    let slot = ref (-1) and open_ = ref [] and last = ref 0 in
    let charge now =
      let k = match !open_ with k :: _ -> k | [] -> loop in
      acc.self_ns.(k) <- acc.self_ns.(k) + (now - !last);
      last := now
    in
    Flight.iter_kept (fun sl _seq ns code arg _arg2 ->
        if sl <> !slot then begin
          slot := sl;
          open_ := [];
          last := ns
        end;
        acc.events <- acc.events + 1;
        let ev = Trace.event_of_code code in
        match (opens ev, closes ev) with
        | Some k, _ ->
            charge ns;
            open_ := k :: !open_;
            acc.spans.(k) <- acc.spans.(k) + 1
        | None, Some k ->
            if List.mem k !open_ then begin
              charge ns;
              open_ := close_to k !open_
            end;
            if arg = 0 && k = crit then
              acc.crit_completed <- acc.crit_completed + 1;
            if arg = 0 && k = flush then
              acc.flush_advanced <- acc.flush_advanced + 1
        | None, None -> ());
    acc.dropped <- acc.dropped + Flight.dropped ()
end

(* ------------------------------------------------------------------ *)
(* One round                                                           *)
(* ------------------------------------------------------------------ *)

type outcome = {
  setup_ns : int;
  wall_ns : int;  (** first worker start to last worker finish *)
  cpu_s : float;  (** processor time of the whole measured phase *)
  total_ops : int;
  p50_ns : int;
  p99_ns : int;
  peak : int;  (** most retired-but-unreclaimed blocks at once *)
  failed : int;  (** wrong answers and wrong final memberships *)
  problems : string list;  (** census and teardown violations *)
  before : Stats.snapshot;  (** scheme counters after the prefill *)
  after : Stats.snapshot;  (** and after the measured phase *)
  retired : int;
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
}

(** [round scheme w ~seed ~ops ~trace] — one set-up, measure and check
    cycle.  With [trace = Some acc] the flight recorder is armed for the
    measured phase and its spans are folded into [acc]. *)
let round (module X : SI.SCHEME) w ~seed ~ops ~trace =
  let t0 = Clock.now_ns () in
  Alloc.reset ();
  let inp = gen_inputs w ~seed ~ops in
  let d = X.create ~label:"hpbench" Config.default in
  let module S = SI.Bind (X) (struct let it = d end) in
  let (module M : Ds.Ds_intf.MAP) = map_of w (module S) in
  let m = M.create () in
  let s = M.session m in
  Array.iter (fun k -> ignore (M.insert m s k k : bool)) inp.prefill;
  M.close_session s;
  let setup_ns = Clock.now_ns () - t0 in
  let before = X.stats d in
  Alloc.reset_peak ();
  let lat = Array.make (nworkers * ops) 0 in
  let starts = Array.make nworkers 0 and ends = Array.make nworkers 0 in
  let wrong = Array.make nworkers 0 and words = Array.make nworkers 0. in
  if Option.is_some trace then
    Trace.enable ~sink:Trace.Flight ~ndomains:nworkers ~capacity:trace_capacity
      ~gc:false ();
  let gc0 = Gc.quick_stat () and cpu0 = Sys.time () in
  Sched.run Sched.Domains ~nthreads:nworkers (fun tid ->
      let p = inp.plans.(tid) and base = tid * ops in
      let s = M.session m in
      let bad = ref 0 in
      let w0 = Gc.minor_words () in
      starts.(tid) <- Clock.now_ns ();
      for i = 0 to ops - 1 do
        let k = p.keys.(i) and kind = Char.code (Bytes.get p.kinds i) in
        let t = Clock.now_ns () in
        (* Operation spans (arg: 0 get, 1 insert, 2 remove), as the
           library's own cell runner emits them. *)
        Trace.emit Trace.Op_begin kind;
        let got =
          match kind with
          | 0 -> M.get m s k
          | 1 -> M.insert m s k k
          | _ -> M.remove m s k
        in
        Trace.emit Trace.Op_end kind;
        lat.(base + i) <- Clock.now_ns () - t;
        if got <> p.expect.(i) then incr bad
      done;
      ends.(tid) <- Clock.now_ns ();
      words.(tid) <- Gc.minor_words () -. w0;
      wrong.(tid) <- !bad;
      M.close_session s);
  let cpu_s = Sys.time () -. cpu0 and gc1 = Gc.quick_stat () in
  let peak = Alloc.peak_unreclaimed () and after = X.stats d in
  let retired = (Alloc.stats ()).Alloc.retired in
  Option.iter
    (fun acc ->
      Layers.tally acc;
      Trace.disable ())
    trace;
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun msg -> problems := msg :: !problems) fmt
  in
  let s = M.session m in
  let wrong_final = ref 0 in
  Array.iteri
    (fun k want -> if M.get m s k <> want then incr wrong_final)
    inp.final;
  M.cleanup m s;
  M.close_session s;
  let c = Alloc.stats () in
  if c.Alloc.uaf <> 0 then problem "%d use-after-free accesses" c.Alloc.uaf;
  if c.Alloc.double_retires + c.Alloc.double_reclaims <> 0 then
    problem "%d double retires, %d double reclaims" c.Alloc.double_retires
      c.Alloc.double_reclaims;
  if c.Alloc.unreclaimed <> c.Alloc.retired - c.Alloc.reclaimed then
    problem "census: unreclaimed %d <> retired %d - reclaimed %d"
      c.Alloc.unreclaimed c.Alloc.retired c.Alloc.reclaimed;
  X.destroy d;
  (* NR never reclaims; every other scheme frees everything at teardown. *)
  if X.scheme <> "NR" && Alloc.current_unreclaimed () <> 0 then
    problem "%s: %d retired blocks survive teardown" X.scheme
      (Alloc.current_unreclaimed ());
  Array.sort Int.compare lat;
  let pct q =
    lat.(min (Array.length lat - 1)
           (int_of_float (q *. float_of_int (Array.length lat))))
  in
  {
    setup_ns;
    wall_ns =
      Array.fold_left max min_int ends - Array.fold_left min max_int starts;
    cpu_s;
    total_ops = nworkers * ops;
    p50_ns = pct 0.5;
    p99_ns = pct 0.99;
    peak;
    failed = Array.fold_left ( + ) !wrong_final wrong;
    problems = List.rev !problems;
    before;
    after;
    retired;
    minor_words = Array.fold_left ( +. ) 0. words;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let hp_brcu : (module SI.SCHEME) = (module Hpbrcu_schemes.Hp_brcu.Impl)
let nr : (module SI.SCHEME) = (module Hpbrcu_schemes.Nr.Impl)
let rcu : (module SI.SCHEME) = (module Hpbrcu_schemes.Ebr.Impl)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let sum f os = float_of_int (List.fold_left (fun acc o -> acc + f o) 0 os)

(* Worker time per operation: both workers are busy for a round's whole
   wall interval. *)
let ns_per_op o =
  ratio (float_of_int (nworkers * o.wall_ns)) (float_of_int o.total_ops)

let end_to_end rounds =
  let med f = median (List.map f rounds) in
  [
    ( "throughput_mops",
      "Mop/s",
      med (fun o ->
          ratio (1e3 *. float_of_int o.total_ops) (float_of_int o.wall_ns)) );
    ("op_p50_ns", "ns", med (fun o -> float_of_int o.p50_ns));
    ( "cpu_ns_per_op",
      "ns/op",
      med (fun o -> 1e9 *. o.cpu_s /. float_of_int o.total_ops) );
    ("op_p99_ns", "ns", med (fun o -> float_of_int o.p99_ns));
    (* A mean, not a median: per-round peaks cluster at a few batch
       multiples, and a median jumps between them. *)
    ( "peak_unreclaimed",
      "count",
      sum (fun o -> o.peak) rounds /. float_of_int (List.length rounds) );
    ("setup_s", "s", med (fun o -> 1e-9 *. float_of_int o.setup_ns));
  ]

let per_layer ~untraced ~traced ~nrs ~rcus (acc : Layers.t) =
  let base = median (List.map ns_per_op untraced)
  and traced_ns = median (List.map ns_per_op traced)
  and nr_ns = median (List.map ns_per_op nrs)
  and rcu_ns = median (List.map ns_per_op rcus) in
  let ops = sum (fun o -> o.total_ops) untraced in
  let per_op f = ratio (sum f untraced) ops in
  let per_kop f = 1e3 *. per_op f in
  let counter f o = f o.after - f o.before in
  (* Span figures are per operation whose spans the rings kept. *)
  let seen = float_of_int acc.Layers.spans.(Layers.op) in
  let spans k = float_of_int acc.Layers.spans.(k) in
  let self k = ratio (float_of_int acc.Layers.self_ns.(k)) seen in
  let busy = sum (fun o -> nworkers * o.wall_ns) traced in
  let charged = float_of_int (Array.fold_left ( + ) 0 acc.Layers.self_ns) in
  [
    ("untraced_ns_per_op", "ns/op", base);
    ("traced_ns_per_op", "ns/op", traced_ns);
    ("trace_overhead_pct", "%", 100. *. ratio (traced_ns -. base) base);
    ("nr_ns_per_op", "ns/op", nr_ns);
    ("reclamation_overhead_pct", "%", 100. *. ratio (base -. nr_ns) nr_ns);
    ("rcu_ns_per_op", "ns/op", rcu_ns);
    ("rcu_gap_pct", "%", 100. *. ratio (base -. rcu_ns) rcu_ns);
    ("op_self_ns", "ns/op", self Layers.op);
    ("crit_self_ns", "ns/op", self Layers.crit);
    ("checkpoint_ns", "ns/op", self Layers.checkpoint);
    ("flush_ns", "ns/op", self Layers.flush);
    ("scan_ns", "ns/op", self Layers.scan);
    ("loop_ns", "ns/op", self Layers.loop);
    ("unattributed_pct", "%", 100. *. ratio (busy -. charged) busy);
    ("crit_per_op", "count/op", ratio (spans Layers.crit) seen);
    ( "crit_completed_pct",
      "%",
      100.
      *. ratio (float_of_int acc.Layers.crit_completed) (spans Layers.crit) );
    ("checkpoints_per_op", "count/op", ratio (spans Layers.checkpoint) seen);
    ("flushes_per_kop", "count/kop", 1e3 *. ratio (spans Layers.flush) seen);
    ( "flush_advanced_pct",
      "%",
      100.
      *. ratio (float_of_int acc.Layers.flush_advanced) (spans Layers.flush) );
    ( "traverse_steps_per_op",
      "count/op",
      per_op (counter (fun s -> s.Stats.traverse_steps)) );
    ( "rollbacks_per_kop",
      "count/kop",
      per_kop (counter (fun s -> s.Stats.rollbacks)) );
    ("signals_per_kop", "count/kop", per_kop (counter (fun s -> s.Stats.signals)));
    ( "advances_per_kop",
      "count/kop",
      per_kop (counter (fun s -> s.Stats.advances)) );
    ("scans_per_kop", "count/kop", per_kop (counter (fun s -> s.Stats.scans)));
    ( "reclaimed_per_scan",
      "count",
      ratio
        (sum (counter (fun s -> s.Stats.scan_reclaimed)) untraced)
        (sum (counter (fun s -> s.Stats.scans)) untraced) );
    ("retires_per_op", "count/op", per_op (fun o -> o.retired));
    ( "minor_words_per_op",
      "words/op",
      ratio (List.fold_left (fun a o -> a +. o.minor_words) 0. untraced) ops );
    ("minor_gcs_per_kop", "count/kop", per_kop (fun o -> o.minor_gcs));
    ("major_gcs_per_kop", "count/kop", per_kop (fun o -> o.major_gcs));
    ( "trace_events_per_op",
      "count/op",
      ratio (float_of_int acc.Layers.events) seen );
    ("trace_dropped", "count", float_of_int acc.Layers.dropped);
  ]

let print_result ~correct ~attempted ~failed metrics =
  let metric (name, unit_, v) =
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
      (if Float.is_finite v then v else 0.)
      unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

(* Rounds reported even when [--seconds] runs out first. *)
let min_rounds = 5

let run w ~seed ~seconds ~traced =
  let t_start = Clock.now_ns () in
  let budget = int_of_float (seconds *. 1e9) in
  let ops =
    if traced then min w.ops_per_worker traced_ops else w.ops_per_worker
  in
  let acc = Layers.create () in
  let untraced = ref [] and traced_rounds = ref [] in
  let nrs = ref [] and rcus = ref [] in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let checked o =
    attempted := !attempted + o.total_ops;
    failed := !failed + o.failed;
    problems := !problems @ o.problems;
    o
  in
  let i = ref 0 in
  while !i <= min_rounds || Clock.now_ns () - t_start < budget do
    let seed = (seed * 1_000_003) + !i and keep = !i > 0 in
    let o = checked (round hp_brcu w ~seed ~ops ~trace:None) in
    Printf.eprintf
      "round %d: %.0f ns/op  p50 %d ns  p99 %d ns  peak %d  setup %.4f s\n%!"
      !i (ns_per_op o) o.p50_ns o.p99_ns o.peak
      (1e-9 *. float_of_int o.setup_ns);
    if keep then untraced := o :: !untraced;
    if traced then begin
      (* Round 0 warms the traced path too, into a discarded tally. *)
      let into = if keep then acc else Layers.create () in
      let t = checked (round hp_brcu w ~seed ~ops ~trace:(Some into)) in
      let n = checked (round nr w ~seed ~ops ~trace:None) in
      let r = checked (round rcu w ~seed ~ops ~trace:None) in
      if keep then begin
        traced_rounds := t :: !traced_rounds;
        nrs := n :: !nrs;
        rcus := r :: !rcus
      end
    end;
    incr i
  done;
  let metrics =
    if traced then
      per_layer ~untraced:!untraced ~traced:!traced_rounds ~nrs:!nrs
        ~rcus:!rcus acc
    else end_to_end !untraced
  in
  List.iter (fun p -> Printf.eprintf "problem: %s\n%!" p) !problems;
  print_result
    ~correct:(!failed = 0 && !problems = [])
    ~attempted:!attempted ~failed:!failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 in
  let names = String.concat " | " (List.map (fun w -> w.name) workloads) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ names);
      ("--seed", Arg.Set_int seed, "N  seed of the generated inputs");
      ( "--seconds",
        Arg.Set_float seconds,
        "S  how long to keep starting rounds" );
      ( "--trace",
        Arg.Set_int trace,
        "0|1  end-to-end (0) or per-layer (1) metrics" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | Some w when !trace = 0 || !trace = 1 ->
      (* Counting mode: a use-after-free inside a worker is reported as a
         problem instead of raising out of the domain. *)
      Alloc.set_strict false;
      run w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
  | _ ->
      prerr_endline ("hpbench: need --workload " ^ names ^ " and --trace 0|1");
      exit 2
