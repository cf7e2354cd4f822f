(** Sharded hash map: N independent hash maps, each bound to its {e own}
    reclamation domain — the payoff scenario of the first-class-domain
    redesign (cf. P0484's per-[rcu_domain] partitioning and Hyaline's
    per-structure contexts).

    Keys route to shards by a Fibonacci multiplicative hash; each shard is
    a {!Hashmap.Make_gen} instance whose scheme surface is a
    {!Hpbrcu_core.Smr_intf.Bind} view of a private {!SCHEME} domain, so a
    stalled or crashed reader pinned inside shard [i]'s epoch strands only
    shard [i]'s retirements — every other shard's unreclaimed watermark
    stays flat.  [smrbench shards] measures exactly that against the
    control build, where the same structure binds all shards to one
    domain and a single crashed reader balloons the whole map's
    footprint.

    A {!session} registers the calling thread with {e every} shard's
    domain (one handle + shield set per shard, built once, cold path);
    per-operation routing then indexes the premade per-shard session, so
    the hot path adds one multiply-shift over a flat hash map. *)

module Smr_intf = Hpbrcu_core.Smr_intf

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

  type t = { shards : (unit -> shard_session) array; mask : int }
  type session = shard_session array

  let pow2_ge n =
    let size = ref 1 in
    while !size < n do
      size := !size * 2
    done;
    !size

  (* One shard: a hash map instantiated over the scheme bound to [d].  The
     inner map's identity is hidden in the session closures. *)
  let shard_in d ~buckets =
    let module S = Smr_intf.Bind (X) (struct let it = d end) in
    let module M = Hashmap.Make_gen (B) (S) in
    let m = M.create_sized buckets in
    fun () ->
      let s = M.session m in
      {
        s_get = (fun k -> M.get m s k);
        s_insert = (fun k v -> M.insert m s k v);
        s_remove = (fun k -> M.remove m s k);
        s_cleanup = (fun () -> M.cleanup m s);
        s_close = (fun () -> M.close_session s);
      }

  (** [create ~shards ~buckets_per_shard doms] — [shards] hash maps
      (count rounded up to a power of two), shard [i] bound to
      [doms.(i mod n)] for [n] domains: one domain per shard isolates
      them, one domain for all is the control build, whose routing and
      bucket layout are identical, so any footprint difference between
      the two under the same fault is domain isolation alone.  The caller
      owns the domains. *)
  let create ~shards ~buckets_per_shard doms =
    let n = pow2_ge (max 1 shards) in
    {
      shards =
        Array.init n (fun i ->
            shard_in doms.(i mod Array.length doms) ~buckets:buckets_per_shard);
      mask = n - 1;
    }

  (* Shard routing uses the hash's top bits; the inner maps' bucket choice
     uses bits 17+, so the two splits stay independent. *)
  let shard_index t key =
    let h = key * 0x2545F4914F6CDD1D in
    (h lsr 48) land t.mask

  let session t = Array.map (fun open_session -> open_session ()) t.shards
  let close_session ss = Array.iter (fun s -> s.s_close ()) ss

  let get t ss key = ss.(shard_index t key).s_get key
  let insert t ss key value = ss.(shard_index t key).s_insert key value
  let remove t ss key = ss.(shard_index t key).s_remove key
  let cleanup _t ss = Array.iter (fun s -> s.s_cleanup ()) ss
end
