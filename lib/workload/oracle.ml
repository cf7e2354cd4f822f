(** Safety oracles (DESIGN.md §11): the typed verdicts a long-running-read
    cell ({!Longrun.cell}) can be convicted of.  {!judge} is the one
    memory-safety verdict of a cell's books, shared by the chaos harness
    and the hunt; a new oracle plugs in there.

    Each finding is backed by a counter or an accounting identity that is
    exact under the stated gate, so the hunt never reports a "maybe":

    - {!Uaf} — the allocator observed reads of reclaimed blocks
      ({!Hpbrcu_alloc.Alloc.check_access} in counting mode); [poisoned]
      counts those that additionally hit a poison stamp, proving the read
      landed on a specific freed incarnation.
    - {!Double_retire} / {!Double_reclaim} — lifecycle CAS losses.
    - {!Bound_exceeded} — one domain's peak retired-but-unreclaimed
      blocks above the scheme's declared {!Hpbrcu_core.Caps.t.bound}: the
      paper's robustness theorem, violated.  The bound is per domain, so
      a sharded map is judged shard by shard.
    - {!Leak} (the hunt adds it) — blocks stranded Live-but-unreachable
      at quiescence.  Only emitted for clean terminating runs of
      non-recycling schemes, where [allocated = abandoned + reclaimed +
      present] must hold exactly after a census and a full drain; the
      slack is precisely the nodes an aborted deletion unlinked but never
      retired.
    - {!Lost_signal} (the hunt adds it) — a posted neutralization that a
      live receiver never consumed, with no drop/delay faults to excuse
      it: a stuck rollback.

    Deadlines, crashes and registry exhaustion are {e outcomes}, not
    findings — under an adversarial scheduler or a crash-injecting plan
    each has innocent explanations, and the oracles that would misfire
    under them are gated off (see lib/check's runner). *)

module Alloc = Hpbrcu_alloc.Alloc

type finding =
  | Uaf of { count : int; poisoned : int }
  | Double_retire of int
  | Double_reclaim of int
  | Bound_exceeded of { domain : int; peak : int; bound : int }
  | Leak of { lost : int }
  | Lost_signal of { pending : int }

(** Stable tags, used by repro files and test assertions. *)
let tag = function
  | Uaf _ -> "uaf"
  | Double_retire _ -> "double-retire"
  | Double_reclaim _ -> "double-reclaim"
  | Bound_exceeded _ -> "bound-exceeded"
  | Leak _ -> "leak"
  | Lost_signal _ -> "lost-signal"

let to_string = function
  | Uaf { count; poisoned } ->
      Printf.sprintf "uaf %d %d" count poisoned
  | Double_retire n -> Printf.sprintf "double-retire %d" n
  | Double_reclaim n -> Printf.sprintf "double-reclaim %d" n
  | Bound_exceeded { domain; peak; bound } ->
      Printf.sprintf "bound-exceeded %d %d domain %d" peak bound domain
  | Leak { lost } -> Printf.sprintf "leak %d" lost
  | Lost_signal { pending } -> Printf.sprintf "lost-signal %d" pending

let of_string s =
  let fail () = invalid_arg ("Oracle.of_string: bad finding: " ^ s) in
  let int x = match int_of_string_opt x with Some n -> n | None -> fail () in
  match String.split_on_char ' ' (String.trim s) with
  | [ "uaf"; c; p ] -> Uaf { count = int c; poisoned = int p }
  | [ "double-retire"; n ] -> Double_retire (int n)
  | [ "double-reclaim"; n ] -> Double_reclaim (int n)
  | [ "bound-exceeded"; p; b; "domain"; d ] ->
      Bound_exceeded { domain = int d; peak = int p; bound = int b }
  | [ "leak"; n ] -> Leak { lost = int n }
  | [ "lost-signal"; n ] -> Lost_signal { pending = int n }
  | _ -> fail ()

let pp ppf f = Fmt.string ppf (to_string f)

(** Two findings agree when they convict the same invariant — magnitudes
    (how many blocks leaked, how many reads were poisoned) legitimately
    move as the shrinker trims the run. *)
let same_kind a b = tag a = tag b

(** [judge ~bound b] — the memory-safety findings of a cell's books, in
    this order: use-after-free, double retire, double reclaim, then each
    domain whose peak exceeds [bound] ([None]: the scheme declares no
    bound), named by its index in [b.dom_peaks]. *)
let judge ~bound (b : Longrun.books) =
  let st = b.alloc in
  let count n f = if n > 0 then [ f n ] else [] in
  List.concat
    [
      count st.Alloc.uaf (fun count ->
          Uaf { count; poisoned = st.Alloc.poisoned_reads });
      count st.Alloc.double_retires (fun n -> Double_retire n);
      count st.Alloc.double_reclaims (fun n -> Double_reclaim n);
      (match bound with
      | None -> []
      | Some bound ->
          List.filter_map Fun.id
            (List.mapi
               (fun domain peak ->
                 if peak <= bound then None
                 else Some (Bound_exceeded { domain; peak; bound }))
               (Array.to_list b.dom_peaks)));
    ]
