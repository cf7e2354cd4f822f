(** Chaining hash table (§6): an array of lock-free list buckets.

    The paper's HashMap uses HMList buckets under HP (which cannot run the
    optimistic Harris traversal) and HHSList buckets under every other
    scheme; {!Make_hm} and {!Make} mirror that split, and the workload
    harness picks per scheme.

    Buckets are chosen by a Fibonacci multiplicative hash; the bucket count
    is fixed at creation ([create ~buckets]) so that the expected chain
    length matches the paper's (~1.7 for the 100K-key configuration). *)

module type BUCKETS = functor (S : Hpbrcu_core.Smr_intf.S) -> Ds_intf.MAP

module Make_gen (B : BUCKETS) (S : Hpbrcu_core.Smr_intf.S) = struct
  module L = B (S)

  let name = "HashMap[" ^ L.name ^ "]"

  (* Both bucket lists are their own head sentinel, so a slot holds the
     head node itself: picking a bucket is one load, with no list record
     between the slot and the chain. *)
  type t = { buckets : L.t array; mask : int }
  type session = L.session

  let default_buckets = 1024

  (* Power-of-two bucket count ≥ requested. *)
  let create_sized n =
    let n = max 4 n in
    let size = ref 4 in
    while !size < n do
      size := !size * 2
    done;
    { buckets = Array.init !size (fun _ -> L.create ()); mask = !size - 1 }

  let create () = create_sized default_buckets

  (* Fibonacci hashing spreads consecutive keys across buckets. *)
  let bucket t key =
    let h = key * 0x2545F4914F6CDD1D in
    t.buckets.((h lsr 17) land t.mask)

  (* All buckets share one scheme handle/shield set: a thread runs one
     bucket operation at a time. *)
  let session t = L.session t.buckets.(0)
  let close_session = L.close_session

  let get t s key = L.get (bucket t key) s key
  let insert t s key value = L.insert (bucket t key) s key value
  let remove t s key = L.remove (bucket t key) s key
  let cleanup t s = Array.iter (fun b -> L.cleanup b s) t.buckets
end

(** HashMap over HHSList buckets (all schemes except HP). *)
module Make (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP =
  Make_gen (Harris_list.Make_hhs) (S)

(** HashMap over HMList buckets (for HP, as in the paper). *)
module Make_hm (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP = Make_gen (Hm_list.Make) (S)
