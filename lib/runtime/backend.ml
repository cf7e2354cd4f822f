(** Execution-substrate backends (DESIGN.md §14).

    The repository runs every workload on one of two substrates, chosen by
    {!Sched.run}'s mode:

    - the {b Domains} backend below: one OS thread per worker via
      [Domain.spawn], hardware-bound wall-clock execution — the substrate
      the paper's thread sweeps mean;
    - the {b fiber} backend ({!Sched}'s deterministic simulator): all
      workers multiplexed on the calling domain, every interleaving a
      pure function of the seed — the verification/chaos/hunt substrate.

    The fiber implementation lives in {!Sched} (it owns the effect
    handlers, virtual clock and chooser hook); this module holds what both
    substrates share — the worker-identity key — and the Domains spawn,
    which must not depend on any fiber machinery.

    Invariant split (what each backend guarantees):
    - Domains: genuine parallelism, monotone wall-clock time
      ({!Clock.now_ns}), no determinism — two runs of the same seed
      differ.  Signals are delivered by atomic mailbox polling at the
      schemes' yield points; senders always wait for an acknowledgement
      with bounded backoff ({!Signal}).
    - Fibers: no parallelism, virtual tick time, full determinism —
      traces, hunt repros and chaos replays are byte-identical per seed. *)

(** Logical worker id of the calling thread; [-1] outside any run.  One
    key serves both substrates: the fiber scheduler sets it around every
    resumption, the Domains backend once per spawned worker. *)
let tid_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let self () = Domain.DLS.get tid_key

(** How many workers the hardware can actually run in parallel.  Thread
    sweeps clamp to this: oversubscribing domains on a small box measures
    the OS scheduler, not the reclamation scheme. *)
let hardware_threads () = Domain.recommended_domain_count ()

(** [with_parked_domain f] — run [f] while one extra domain exists,
    parked on a condition variable (zero CPU).

    The OCaml runtime serves [Atomic] operations through a fenceless
    fast path while a single domain is running; the first spawn switches
    them to real fenced instructions, which costs atomic-heavy kernels
    1.5–2x on their own.  Baselines that will be compared against work
    done {e inside} spawned workers (which always pay the multi-domain
    paths) must therefore be measured under this wrapper, or the
    comparison gates on runtime physics instead of backend overhead. *)
let with_parked_domain f =
  let m = Mutex.create () in
  let cv = Condition.create () in
  let release = ref false in
  let parked =
    Domain.spawn (fun () ->
        Mutex.lock m;
        while not !release do
          Condition.wait cv m
        done;
        Mutex.unlock m)
  in
  let finally () =
    Mutex.lock m;
    release := true;
    Condition.broadcast cv;
    Mutex.unlock m;
    Domain.join parked
  in
  Fun.protect ~finally f

(** [spawn_domains ~nthreads body] runs [body 0 .. body (nthreads-1)] to
    completion, one [Domain.spawn] worker each, and returns when all have
    finished; re-raises the first worker failure after joining all. *)
let spawn_domains ~nthreads body =
  let worker i () =
    Domain.DLS.set tid_key i;
    (* Mirror the slot into the C thread-local the armed flight emit
       reads fused with its tick stamp (Clock.ticks_and_slot). *)
    Clock.flight_set_slot (i + 1);
    Fun.protect
      ~finally:(fun () ->
        Clock.flight_set_slot 0;
        Domain.DLS.set tid_key (-1))
      (fun () -> body i)
  in
  let domains = List.init nthreads (fun i -> Domain.spawn (worker i)) in
  (* Join all even if one raised, then re-raise the first failure. *)
  let results =
    List.map (fun d -> try Ok (Domain.join d) with e -> Error e) domains
  in
  List.iter (function Error e -> raise e | Ok () -> ()) results
