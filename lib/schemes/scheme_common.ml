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
