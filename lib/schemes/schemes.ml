(** The reclamation schemes by name, and the one way to run one.

    {!impls} packs the domain-valued implementations
    ({!Hpbrcu_core.Smr_intf.SCHEME}) under their base names.  {!find}
    resolves a scheme's display name (NBR-Large included) under a tuning to
    an [(impl, config)] pair, with the paper's parameters
    ({!Hpbrcu_core.Config.default}: 128-retirement batches, force threshold
    2; NBR-Large: 8192) or the small-batch {!small} ones.  {!with_domain}
    creates a fresh domain of such a pair, hands the body the scheme bound
    to it, and force-destroys the domain on the way out. *)

module Config = Hpbrcu_core.Config
module SI = Hpbrcu_core.Smr_intf
module Caps = Hpbrcu_core.Caps

(** Small-batch tuning for the scaled long-running-operation experiments:
    the paper's key ranges (2^18-2^29) shrink by ~2^10 in this
    reproduction, so the 128-retirement batch shrinks proportionally —
    with the paper's batch, every scheme's footprint would be dominated by
    the batch floor and the growth the experiment demonstrates would be
    invisible. *)
let small =
  { Config.default with batch = 32; max_local_tasks = 16; backup_period = 32; max_steps = 32 }

(** Hunt tuning (lib/check): tiny batches and a hair-trigger force
    threshold so the interesting reclamation machinery — flushes, forced
    epoch advances, neutralization signals — fires every few operations
    instead of every few thousand, maximizing what a short fuzzed schedule
    can reach.  Each hunt case creates a fresh domain under this config
    and destroys it at census time — no cross-case state survives by
    construction. *)
let hunt =
  {
    Config.default with
    batch = 16;
    max_local_tasks = 4;
    backup_period = 16;
    max_steps = 16;
    force_threshold = 1;
  }

(* Planted bugs for mutation-testing the hunt itself (never part of any
   benchmark suite).  [hunt_nomask] drops BRCU's Mask (Algorithm 6) so a
   self-neutralization can abort a physical-deletion region mid-chain;
   [hunt_nodb] drops §4.3's double buffering so rollbacks can tear
   Traverse checkpoints. *)
let hunt_nomask = { hunt with abort_masking = false }
let hunt_nodb = { hunt with double_buffering = false }

(** First-class scheme implementations, keyed by base scheme name. *)
let impls : (string * (module SI.SCHEME)) list =
  [
    ("NR", (module Nr.Impl));
    ("RCU", (module Ebr.Impl));
    ("HP", (module Hp.Impl));
    ("HP++", (module Hppp.Impl));
    ("PEBR", (module Pebr.Impl));
    ("NBR", (module Nbr.Impl));
    ("VBR", (module Vbr.Impl));
    ("HP-RCU", (module Hp_rcu.Impl));
    ("HP-BRCU", (module Hp_brcu.Impl));
    ("HE", (module He.Impl));
    ("IBR", (module Ibr.Impl));
  ]

let find_impl name = List.assoc_opt name impls

(* Display name -> base implementation, [`Default] config, [`Small]
   config.  NR has nothing to tune; HE and IBR (Table 2's remaining
   columns, beyond the paper's §6 suite) and NBR-Large keep their
   configs under both tunings. *)
let table =
  let row ?(small = small) name base default = (name, (base, default, small)) in
  let fixed name base config = row ~small:config name base config in
  [
    fixed "NR" "NR" Config.default;
    row "RCU" "RCU" Config.default;
    row "HP" "HP" Config.default;
    row "HP++" "HP++" Config.default;
    row "PEBR" "PEBR" Config.default;
    row "NBR" "NBR" Config.default;
    fixed "NBR-Large" "NBR" Config.large_batch;
    row "VBR" "VBR" Config.default;
    row "HP-RCU" "HP-RCU" Config.default;
    row "HP-BRCU" "HP-BRCU" Config.default;
    fixed "HE" "HE" Config.default;
    fixed "IBR" "IBR" Config.default;
  ]

(** Every addressable display name, in the paper's legend order. *)
let names = List.map fst table

(** [find ?tuning name] — the [(impl, config)] pair behind a display name.
    Raises [Invalid_argument] on an unknown name. *)
let find ?(tuning = `Default) name : (module SI.SCHEME) * Config.t =
  match List.assoc_opt name table with
  | Some (base, default, small) ->
      (Option.get (find_impl base), match tuning with `Default -> default | `Small -> small)
  | None -> invalid_arg ("unknown scheme: " ^ name)

(** A fresh domain of one scheme: the scheme [X], the domain [it], and [S],
    the scheme bound to [it] — the surface the data-structure functors
    take. *)
module type DOMAIN = sig
  module X : SI.SCHEME

  val it : X.domain

  module S : SI.S

  val teardown : unit -> unit
  (** Force-destroy [it] now, to close a census's books before reading
      them; a no-op once [it] is destroyed. *)
end

(** [with_domain (impl, config) f] — create a domain of [impl] under
    [config] (labelled, by default, with the scheme's display name, so
    reports stay the same from run to run), run [f] on it, and tear it
    down ([~force:true]: crash and chaos bodies leave dead readers
    registered) when [f] returns or raises. *)
let with_domain ?label ((module X : SI.SCHEME), config) f =
  let label = Option.value label ~default:(X.caps config).Caps.name in
  let module D = struct
    module X = X

    let it = X.create ~label config

    module S = SI.Bind (X) (struct let it = it end)

    let teardown () =
      if not (SI.Dom.destroyed (X.dom it)) then X.destroy ~force:true it
  end in
  Fun.protect ~finally:D.teardown (fun () -> f (module D : DOMAIN))
