(** Helpers shared by scheme implementations. *)

open Hpbrcu_core.Smr_intf

(** The degenerate Traverse of schemes without phase alternation: one
    unbounded walk; under [~hold:true] the final cursor is published into
    [prot] (for HP-family callers this merely copies protection already
    held by the handle's hop ring, so no validation is needed).  A
    [~hold:false] caller is done with the cursor when the walk ends, so
    nothing is published. *)
let plain_traverse ~hold ~prot w =
  w.init ();
  if w.walk max_int = walk_done then begin
    if hold then w.protect prot;
    true
  end
  else false

(* ---------------------- neutralization (BRCU, NBR, PEBR) ------------- *)

module Signal = Hpbrcu_runtime.Signal
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace

(** What one domain's neutralization path counts, plus the domain id every
    one of its sends is stamped with (Signal's routing fence). *)
type neutralizer = {
  domain : int;
  sent : Stats.Counter.t;  (** signals sent (PEBR: ejections) *)
  timeouts : Stats.Counter.t;  (** sends that ended [No_ack] *)
  quarantines : Stats.Counter.t;  (** participants quarantined *)
}

let neutralizer meta =
  {
    domain = Dom.id meta;
    sent = Stats.Counter.make ();
    timeouts = Stats.Counter.make ();
    quarantines = Stats.Counter.make ();
  }

let reset_neutralizer n =
  Stats.Counter.reset n.sent;
  Stats.Counter.reset n.timeouts;
  Stats.Counter.reset n.quarantines

(** One neutralization send to [box]: count it, draw the send-sequence id,
    emit [Signal_sent], send, and count a [No_ack].  Returns the outcome;
    what [Dead_receiver] and [No_ack] mean for reclamation is the
    caller's to decide. *)
let signal n box ~is_out =
  Stats.Counter.incr n.sent;
  let seq = Signal.next_seq () in
  Trace.emit2 Trace.Signal_sent box.Signal.owner_tid seq;
  let outcome = Signal.send ~seq ~domain:n.domain box ~is_out in
  if outcome = Signal.No_ack then Stats.Counter.incr n.timeouts;
  outcome

(** Quarantine the participant [l] whose box [box] answered
    [Dead_receiver]: a confirmed crash never reads again, so its record
    leaves the registry and its frozen announcement stops blocking.  Only
    the crash registry's verdict, never a timeout, may reach this path:
    quarantining a live reader would be a use-after-free.  Of several
    ejectors that reach one corpse, only the one that removes it counts
    the quarantine and emits [Participant_quarantined]. *)
let quarantine n participants l box =
  if Registry.Participants.remove_where participants (fun l' -> l' == l) then begin
    Stats.Counter.incr n.quarantines;
    Trace.emit Trace.Participant_quarantined box.Signal.owner_tid
  end

(** [signal] plus the common verdict: [Delivered] and a quarantined
    [Dead_receiver] are [true]; [No_ack] is [false], a live reader that
    may still be reading, so reclamation must not proceed past it. *)
let neutralize n participants l box ~is_out =
  match signal n box ~is_out with
  | Signal.Delivered -> true
  | Signal.Dead_receiver ->
      quarantine n participants l box;
      true
  | Signal.No_ack -> false
