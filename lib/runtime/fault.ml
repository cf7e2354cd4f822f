(** Seeded, deterministic fault injection (DESIGN.md §8).

    The paper's robustness claims are about what happens when the world
    misbehaves: readers preempted mid critical-section for unbounded time
    (Figure 1), readers that die without ever acknowledging a signal,
    deliveries that are lost or arrive late.  This module turns those
    adversaries into {e data}: a {!plan} is a list of {!rule}s, each of
    which fires a fault {!action} at deterministic occurrence counts of an
    instrumented {!site}.  In fiber mode no wall clock and no extra RNG
    are involved — the n-th yield of thread 3 is the n-th yield of
    thread 3 under any replay of the same simulator seed — so a chaos run
    is exactly as reproducible as a fault-free one.

    Sites and who consults them:

    - {!Yield} — every {!Sched.yield}; actions [Stall]/[Crash].
    - {!Signal_send} — every {!Signal.send}, matched against the
      {e receiver}'s tid; actions [Drop_signal]/[Delay_signal].
    - {!Pool_acquire} — every {!Pool.acquire}; action [Exhaust_pool]
      (pretend the free list is empty, forcing a fresh allocation).

    Layering: this module sits below {!Sched} (which consults {!on_yield})
    and must therefore not depend on it; it reports through {!Trace} and
    its own occurrence counters only.

    Both substrates consult the same rules at the same sites.  On the
    deterministic fiber simulator an occurrence count is a schedule
    position and durations are virtual ticks.  On the Domains backend the
    same plan injects against real parallelism: occurrence counters
    advance per worker domain (so "thread 0's 800th yield" still means
    thread 0's own 800th yield, just no longer at a reproducible schedule
    point), a [Stall n] becomes a timed park of [n * tick_ns] wall-clock
    nanoseconds ({!ns_of_ticks}), a [Delay_signal n] becomes a
    deliverable-after floor on the {!Clock.now_ns} axis, and a [Crash] is
    a worker domain that parks {e forever} — pinned in whatever critical
    section it occupied — via {!crash_park}, releasing only once every
    surviving worker has finished (the {!set_crash_release} latch, armed
    by the Domains backend) so join-time census stays exact.  Domains-mode
    invariants are therefore statistical, never byte-replay. *)

type action =
  | Stall of int
      (** suspend the thread for [n] virtual ticks (fibers) or
          [n * tick_ns] wall-clock ns (domains) *)
  | Crash
      (** the thread never runs again; no unwinding, so whatever it
          published (pinned epoch, in-CS status, protected shields) stays
          frozen — the model of a seg-faulted thread.  Fibers: the
          continuation is abandoned.  Domains: the worker parks in
          {!crash_park} until the release latch opens at join time. *)
  | Drop_signal  (** the pending flag is never posted *)
  | Delay_signal of int
      (** the pending flag is posted but not deliverable for [n] ticks *)
  | Exhaust_pool  (** this [Pool.acquire] misses, forcing a fresh block *)

type site = Yield | Signal_send | Pool_acquire

type rule = {
  site : site;
  tid : int;  (** thread the rule applies to; [-1] = any.  For
                  {!Signal_send} this is the {e receiver}'s tid. *)
  start : int;  (** 0-based occurrence index at which the rule first fires *)
  period : int;  (** [0] = fire exactly once (at [start]); [k > 0] = fire
                     at [start], [start+k], [start+2k], … *)
  action : action;
}

type plan = { label : string; rules : rule list }

let no_faults = { label = "none"; rules = [] }

(* ------------------------------------------------------------------ *)
(* Installed plan + per-rule occurrence counters                       *)
(* ------------------------------------------------------------------ *)

(* Occurrence counters are per (rule, tid) so that "crash thread 0 at its
   800th yield" means thread 0's own 800th yield, not the 800th yield of
   whoever happens to run — that is what makes a rule deterministic under
   the seeded scheduler.  [-1]-tid (any) rules also count in the calling
   thread's slot, so "every k-th occurrence" is per thread; either way the
   firing pattern is schedule-independent given the seed. *)
let counter_width = 257 (* tids -1..255, one slot per tid as in Flight *)

(* All of this state is read from worker domains in domains mode, so none
   of it may live in a bare ref: the plan and its hooks bit are published by
   [install] on the spawning domain, and the occurrence counters are
   advanced concurrently by every worker (each in its own tid slot, so
   the RMW below never contends in practice — it exists for the tid=-1
   "any" rules and for the memory model). *)
let plan_ref = Atomic.make no_faults
let counters : int Atomic.t array array Atomic.t = Atomic.make [||]

(* Injected-fault tallies, reset by [install]. *)
let n_stalls = Atomic.make 0
let n_crashes = Atomic.make 0
let n_drops = Atomic.make 0
let n_delays = Atomic.make 0
let n_pool = Atomic.make 0

type injected = {
  stalls : int;
  crashes : int;
  drops : int;
  delays : int;
  pool_misses : int;
}

let injected () =
  {
    stalls = Atomic.get n_stalls;
    crashes = Atomic.get n_crashes;
    drops = Atomic.get n_drops;
    delays = Atomic.get n_delays;
    pool_misses = Atomic.get n_pool;
  }

(* ------------------------------------------------------------------ *)
(* The hooks word                                                      *)
(* ------------------------------------------------------------------ *)

(* {!Sched.yield} runs on every mediated read, so on real cores its
   unarmed path must be one inlined load.  [hooks] has one bit per hook
   that makes a yield do anything, set exactly while that hook is armed:
   a fiber scheduler is running ({!Sched.run_fibers}), a wall deadline is
   armed ({!Sched.set_deadline}), or a plan with rules is installed
   ({!install}).  Tick deadlines act only under fibers, so they need no
   bit.  The word lives here, in the lowest module that arms a hook. *)
let hooks = Atomic.make 0

let hook_fibers = 1
let hook_deadline = 2
let hook_fault = 4

(** [set_hook bit armed] sets or clears [bit] in {!hooks}.  A CAS loop, so
    two domains arming different hooks at once cannot lose a bit. *)
let rec set_hook bit armed =
  let h = Atomic.get hooks in
  let h' = if armed then h lor bit else h land lnot bit in
  if h' <> h && not (Atomic.compare_and_set hooks h h') then set_hook bit armed

(** [active ()] — cheap gate for the hot paths: one atomic load. *)
let[@inline] active () = Atomic.get hooks land hook_fault <> 0

(* ------------------------------------------------------------------ *)
(* Wall-clock fault clock (Domains backend)                            *)
(* ------------------------------------------------------------------ *)

(* Rule durations (stall lengths, delay floors) are authored in simulator
   ticks so the same plan text drives both substrates; [tick_ns] is the
   exchange rate: one virtual tick is one microsecond, matching
   [Sched.stall]'s domains-mode fallback. *)
let tick_ns = 1_000

(** [ns_of_ticks n] — a tick-denominated duration on the wall-clock axis. *)
let[@inline] ns_of_ticks n = n * tick_ns

(* ------------------------------------------------------------------ *)
(* Crash parking (Domains backend)                                     *)
(* ------------------------------------------------------------------ *)

(* A fiber crash abandons the continuation; a domain cannot be killed
   from the outside, so a domains-mode crash is a worker that marks
   itself crashed and then parks here — still registered, still pinned —
   until the release predicate says every surviving worker has finished.
   The predicate is installed by the Domains backend wrapper in [Sched]
   (this module sits below [Sched] and [Backend], so it can only hold the
   closure, not compute it).  The park is capped so a mis-armed latch
   degrades to a slow test, never a hung one. *)
let crash_release : (unit -> bool) Atomic.t = Atomic.make (fun () -> true)
let n_parked = Atomic.make 0

let set_crash_release f = Atomic.set crash_release f
let clear_crash_release () = Atomic.set crash_release (fun () -> true)

(** [parked_count ()] — workers that have crash-parked since [install];
    cumulative, never decremented, so "victim is pinned" handshakes can
    wait on it without racing the release. *)
let parked_count () = Atomic.get n_parked

let park_cap_s = 60.

(** [crash_park ()] — called by a domains-mode worker that just injected
    a [Crash] on itself: park until the release latch opens (or the
    fail-safe cap expires), keeping every published protection frozen. *)
let crash_park () =
  Atomic.incr n_parked;
  let t0 = Unix.gettimeofday () in
  while
    (not ((Atomic.get crash_release) ()))
    && Unix.gettimeofday () -. t0 < park_cap_s
  do
    Unix.sleepf 50e-6
  done

(** [crash_tids p] — the tids with a [Crash] rule (tid=-1 "any" crash
    rules are excluded: a handshake cannot wait for an anonymous victim).
    The chaos harness uses this to hold non-victims until every
    victim is parked, so the stranding window covers the full retirement
    volume regardless of OS scheduling. *)
let crash_tids p =
  List.filter_map
    (fun r -> if r.action = Crash && r.tid >= 0 then Some r.tid else None)
    p.rules

let install p =
  Atomic.set plan_ref p;
  Atomic.set counters
    (Array.init (List.length p.rules) (fun _ ->
         Array.init counter_width (fun _ -> Atomic.make 0)));
  Atomic.set n_stalls 0;
  Atomic.set n_crashes 0;
  Atomic.set n_drops 0;
  Atomic.set n_delays 0;
  Atomic.set n_pool 0;
  Atomic.set n_parked 0;
  set_hook hook_fault (p.rules <> [])

let clear () = install no_faults
let current () = Atomic.get plan_ref

(* [fire site ~tid] — advance the occurrence counter of every rule matching
   (site, tid) and return the action of the first rule whose schedule hits
   this occurrence.  Counters advance even when no rule fires, so a rule's
   [start] indexes real site occurrences, not previous faults. *)
let fire site ~tid =
  let rules = (Atomic.get plan_ref).rules in
  let cnts = Atomic.get counters in
  let slot = tid + 1 in
  let slot = if slot < 0 || slot >= counter_width then 0 else slot in
  let result = ref None in
  List.iteri
    (fun i r ->
      if r.site = site && (r.tid = -1 || r.tid = tid) then begin
        let row = cnts.(i) in
        let c = Atomic.fetch_and_add row.(slot) 1 in
        if !result = None then begin
          let hit =
            if c < r.start then false
            else if r.period <= 0 then c = r.start
            else (c - r.start) mod r.period = 0
          in
          if hit then result := Some r.action
        end
      end)
    rules;
  !result

(* ------------------------------------------------------------------ *)
(* Site hooks                                                          *)
(* ------------------------------------------------------------------ *)

(** Consulted by {!Sched.yield} for the current worker (fiber or domain).
    Returns the stall or crash to inject, if any. *)
let on_yield ~tid =
  if not (active ()) then None
  else
    match fire Yield ~tid with
    | Some (Stall n) when n > 0 ->
        Atomic.incr n_stalls;
        Trace.emit Trace.Fault_stall n;
        Some (`Stall n)
    | Some Crash ->
        Atomic.incr n_crashes;
        (* Fault_crash is emitted by the scheduler, which knows the fiber. *)
        Some `Crash
    | _ -> None

(** Consulted by {!Signal.send}; [tid] is the {e receiver}. *)
let on_send ~tid =
  if not (active ()) then None
  else
    match fire Signal_send ~tid with
    | Some Drop_signal ->
        Atomic.incr n_drops;
        (* Signal_dropped is emitted by {!Signal.send}, which knows the
           send-sequence id the drop orphans. *)
        Some `Drop
    | Some (Delay_signal n) when n > 0 ->
        Atomic.incr n_delays;
        Some (`Delay n)
    | _ -> None

(** Consulted by {!Pool.acquire}; [true] = pretend the pool is empty. *)
let on_pool_acquire ~tid =
  active ()
  &&
  match fire Pool_acquire ~tid with
  | Some Exhaust_pool ->
      Atomic.incr n_pool;
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Plan serialization                                                  *)
(* ------------------------------------------------------------------ *)

(* One text format shared by the hand-written chaos plans, the fuzzer's
   mutated plans and the repro artifacts (DESIGN.md §11):

   {v
   # smrbench-fault-plan v1
   label stall-storm
   rule yield -1 400 701 stall 3000
   rule send -1 2 5 drop
   v}

   A [rule] line is "rule <site> <tid> <start> <period> <action> [n]". *)

let magic = "# smrbench-fault-plan v1"

let rule_to_line r =
  let site =
    match r.site with
    | Yield -> "yield"
    | Signal_send -> "send"
    | Pool_acquire -> "pool"
  in
  let action =
    match r.action with
    | Stall n -> Printf.sprintf "stall %d" n
    | Crash -> "crash"
    | Drop_signal -> "drop"
    | Delay_signal n -> Printf.sprintf "delay %d" n
    | Exhaust_pool -> "exhaust"
  in
  Printf.sprintf "rule %s %d %d %d %s" site r.tid r.start r.period action

let rule_of_line line =
  let fail () = invalid_arg ("Fault.rule_of_line: bad rule: " ^ line) in
  let int s = match int_of_string_opt s with Some n -> n | None -> fail () in
  match String.split_on_char ' ' (String.trim line) with
  | "rule" :: site :: tid :: start :: period :: action ->
      let site =
        match site with
        | "yield" -> Yield
        | "send" -> Signal_send
        | "pool" -> Pool_acquire
        | _ -> fail ()
      in
      let action =
        match action with
        | [ "stall"; n ] -> Stall (int n)
        | [ "crash" ] -> Crash
        | [ "drop" ] -> Drop_signal
        | [ "delay"; n ] -> Delay_signal (int n)
        | [ "exhaust" ] -> Exhaust_pool
        | _ -> fail ()
      in
      { site; tid = int tid; start = int start; period = int period; action }
  | _ -> fail ()

let to_string p =
  let b = Buffer.create 256 in
  Buffer.add_string b magic;
  Buffer.add_char b '\n';
  Buffer.add_string b ("label " ^ p.label ^ "\n");
  List.iter
    (fun r ->
      Buffer.add_string b (rule_to_line r);
      Buffer.add_char b '\n')
    p.rules;
  Buffer.contents b

let of_string s =
  let label = ref "none" and rules = ref [] in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else if String.length line > 6 && String.sub line 0 6 = "label " then
        label := String.sub line 6 (String.length line - 6)
      else rules := rule_of_line line :: !rules)
    (String.split_on_char '\n' s);
  { label = !label; rules = List.rev !rules }

let to_file path p =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string p))

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))
