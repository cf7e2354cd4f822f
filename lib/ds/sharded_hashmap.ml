(** Sharded hash map: N independent hash maps, each owning its {e own}
    reclamation domain — the payoff scenario of the first-class-domain
    redesign (cf. P0484's per-[rcu_domain] partitioning and Hyaline's
    per-structure contexts).

    Keys route to shards by a Fibonacci multiplicative hash; each shard is
    a {!Hashmap.Make_gen} instance whose scheme surface is a
    {!Hpbrcu_core.Smr_intf.Bind} view of a private {!SCHEME} domain, so a
    stalled or crashed reader pinned inside shard [i]'s epoch strands only
    shard [i]'s retirements — every other shard's unreclaimed watermark
    stays flat.  [smrbench shards] measures exactly that against the
    {!create_shared} baseline, where the same structure binds all shards
    to one domain and a single crashed reader balloons the whole map's
    footprint.

    A {!session} registers the calling thread with {e every} shard's
    domain (one handle + shield set per shard, built once, cold path);
    per-operation routing then indexes the premade per-shard session, so
    the hot path adds one multiply-shift over a flat hash map. *)

module Smr_intf = Hpbrcu_core.Smr_intf
module Dom = Smr_intf.Dom
module Config = Hpbrcu_core.Config

module type PARAMS = sig
  val config : Config.t
  val shards : int
  val buckets_per_shard : int
  val label : string
end

module Make_gen (B : Hashmap.BUCKETS) (X : Smr_intf.SCHEME) = struct
  (* Per-shard view of one thread: the shard's own scheme handle and
     shields, closed over the shard's bound surface. *)
  type shard_session = {
    s_get : int -> bool;
    s_insert : int -> int -> bool;
    s_remove : int -> bool;
    s_cleanup : unit -> unit;
    s_close : unit -> unit;
  }

  type shard = { sdom : X.domain; open_session : unit -> shard_session }
  type t = { shards : shard array; mask : int }
  type session = shard_session array

  let pow2_ge n =
    let size = ref 1 in
    while !size < n do
      size := !size * 2
    done;
    !size

  (* One shard: a hash map instantiated over the scheme bound to [d].  The
     inner map's identity is hidden in the session closures — all the
     caller holds is the domain, for watermark accounting and destroy. *)
  let shard_in d ~buckets =
    let module S = Smr_intf.Bind (X) (struct let it = d end) in
    let module M = Hashmap.Make_gen (B) (S) in
    let m = M.create_sized buckets in
    let open_session () =
      let s = M.session m in
      {
        s_get = (fun k -> M.get m s k);
        s_insert = (fun k v -> M.insert m s k v);
        s_remove = (fun k -> M.remove m s k);
        s_cleanup = (fun () -> M.cleanup m s);
        s_close = (fun () -> M.close_session s);
      }
    in
    { sdom = d; open_session }

  (** [create config] — [shards] independent domains (count rounded up to
      a power of two), labelled ["<label>0" … "<label>N-1"]. *)
  let create ?(label = "shard") ?(shards = 8) ?(buckets_per_shard = 64)
      config =
    let n = pow2_ge (max 1 shards) in
    {
      shards =
        Array.init n (fun i ->
            shard_in
              (X.create ~label:(Printf.sprintf "%s%d" label i) config)
              ~buckets:buckets_per_shard);
      mask = n - 1;
    }

  (** [create_shared config] — the control build: the same sharded
      structure, but every shard bound to {e one} domain.  Routing and
      bucket layout are identical to {!create}; only the reclamation
      topology differs, so any footprint difference between the two under
      the same fault is attributable to domain isolation alone. *)
  let create_shared ?(label = "shared") ?(shards = 8)
      ?(buckets_per_shard = 64) config =
    let n = pow2_ge (max 1 shards) in
    let d = X.create ~label config in
    {
      shards = Array.init n (fun _ -> shard_in d ~buckets:buckets_per_shard);
      mask = n - 1;
    }

  (* Shard routing uses the hash's top bits; the inner maps' bucket choice
     uses bits 17+, so the two splits stay independent. *)
  let shard_index t key =
    let h = key * 0x2545F4914F6CDD1D in
    (h lsr 48) land t.mask

  (** The distinct domains, in shard order — one per shard under
      {!create}, the single shared one under {!create_shared} — for
      per-domain watermark accounting ({!Dom.peak_unreclaimed}) and
      stats. *)
  let domains t =
    Array.of_list
      (Array.fold_right
         (fun s acc -> if List.memq s.sdom acc then acc else s.sdom :: acc)
         t.shards [])

  let session t = Array.map (fun s -> s.open_session ()) t.shards
  let close_session ss = Array.iter (fun s -> s.s_close ()) ss

  let get t ss key = ss.(shard_index t key).s_get key
  let insert t ss key value = ss.(shard_index t key).s_insert key value
  let remove t ss key = ss.(shard_index t key).s_remove key
  let cleanup _t ss = Array.iter (fun s -> s.s_cleanup ()) ss

  (** Destroy every shard's domain.  Double-destroy now raises the typed
      {!Dom.Destroyed}, so already-dead domains are skipped here — the
      shared build hits its one domain once per shard, and harnesses may
      call destroy again at teardown.  Raises {!Dom.Domain_active} on
      live handles unless [force] — crash harnesses tear down under dead
      readers' registrations. *)
  let destroy ?force t =
    Array.iter
      (fun s ->
        if not (Dom.destroyed (X.dom s.sdom)) then X.destroy ?force s.sdom)
      t.shards
end

(** Sharded map over HHSList-bucketed shards (all schemes but HP). *)
module Make (X : Smr_intf.SCHEME) = Make_gen (Harris_list.Make_hhs) (X)

(** The sharded map as a plain {!Ds_intf.MAP} (parameters fixed by [P]),
    for harnesses written against the common interface — the hunt corpus
    drives its multi-domain smoke case through this.  Instances created
    through [create] own their domains; {!destroy_created} force-destroys
    every domain this functor application has created (idempotent), which
    is the hook the hunt's census/teardown uses. *)
module As_map (X : Smr_intf.SCHEME) (P : PARAMS) : sig
  include Ds_intf.MAP

  val sentinels : int
  (** List-head blocks allocated per instance, for leak accounting. *)

  val destroy_created : unit -> unit
end = struct
  module Sh = Make (X)

  let name = "ShardedHashMap[" ^ X.scheme ^ "]"
  let sentinels = Sh.pow2_ge (max 1 P.shards) * P.buckets_per_shard

  type t = Sh.t
  type session = Sh.session

  let created : t list ref = ref []

  let create () =
    let t =
      Sh.create ~label:P.label ~shards:P.shards
        ~buckets_per_shard:P.buckets_per_shard P.config
    in
    created := t :: !created;
    t

  let destroy_created () = List.iter (Sh.destroy ~force:true) !created
  let session = Sh.session
  let close_session = Sh.close_session
  let get = Sh.get
  let insert = Sh.insert
  let remove = Sh.remove
  let cleanup = Sh.cleanup
end
