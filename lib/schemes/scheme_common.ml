(** Helpers shared by scheme implementations. *)

open Hpbrcu_core.Smr_intf

(** The degenerate Traverse of schemes without phase alternation: one
    unbounded walk; the final cursor is published into [prot] (for
    HP-family callers this merely copies protection already held by the
    traversal's scratch shields, so no validation is needed). *)
let plain_traverse ~prot w =
  w.init ();
  if w.walk max_int = walk_done then begin
    w.protect prot;
    true
  end
  else false
