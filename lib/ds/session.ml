(** The session skeleton every structure in [lib/ds] is built on: the
    one implementation of the paper's double-buffered Traverse contract
    (§4.3, Algorithms 7-8) on the structure's side.

    A structure supplies its cursor ({!CURSOR}): how to build a copy of
    one, copy one into another, revalidate one and publish one into a
    shield array.  {!Make} then owns the rest of a session:

    - the fields every operation reads: the structure it acts on ([ds]),
      its key and value, the answer of its search ([found]), the live
      cursor, the two checkpoint slots and which of them the running
      traversal has built ([saved]), plus the structure's own fields
      ([x]);
    - the {!Hpbrcu_core.Smr_intf.walker}, and with it the walker rule:
      [init] installs the fresh live cursor the structure's [init]
      builds, a traversal's first [save] into a slot builds the slot and
      later saves copy into it, and [restore] copies back, then
      revalidates.  A walk writes back only into records born in the
      running traversal, so its writes stay on the write barrier's fast
      path (EXPERIMENTS.md, "Fresh cursor records");
    - the traversal itself, in its two forms: {!lookup}, which keeps no
      cursor past the section ([~hold:false]), and {!search}, whose
      destination stays protected for the caller's write phase
      ([~hold:true]).  No structure passes [~hold] itself;
    - [get], [insert] and [remove], which store their arguments in the
      session and hand [S.op] a body built once per session, so an
      operation allocates only its live cursor and the slots it
      checkpoints into (DESIGN.md §9). *)

module type CURSOR = sig
  type shield
  type t

  val clone : t -> t
  (** A fresh record holding the same cursor. *)

  val copy : src:t -> dst:t -> unit

  val validate : t -> bool
  (** Whether a restored cursor may be resumed (paper R1, §3.3). *)

  val protect : shield array -> t -> unit
  (** Publish every node the cursor can still reach. *)
end

module Make
    (S : Hpbrcu_core.Smr_intf.S)
    (C : CURSOR with type shield = S.shield) =
struct
  open Hpbrcu_core.Smr_intf

  type ('ds, 'x) session = {
    h : S.handle;
    prot : S.shield array;
    backup : S.shield array;  (* [prot]'s double-buffer twin *)
    mutable ds : 'ds;  (* the structure the running operation acts on ... *)
    mutable key : int;  (* ... its key ... *)
    mutable value : int;  (* ... the value an insert publishes ... *)
    mutable holds : bool;  (* ... whether its traversal is a [search] ... *)
    mutable found : bool;  (* ... and the traversal's answer *)
    mutable live : C.t;
    slots : C.t array;  (* checkpoint slots 0 and 1 ... *)
    mutable saved : int;  (* ... bit [i] set once this traversal built [i] *)
    w : S.shield walker;
    x : 'x;  (* the structure's own fields *)
    get_body : unit -> bool;
    insert_body : unit -> bool;
    remove_body : unit -> bool;
  }

  let save s i =
    if s.saved land (1 lsl i) <> 0 then C.copy ~src:s.live ~dst:s.slots.(i)
    else begin
      s.slots.(i) <- C.clone s.live;
      s.saved <- s.saved lor (1 lsl i)
    end

  let restore s i =
    C.copy ~src:s.slots.(i) ~dst:s.live;
    C.validate s.live

  (* Traverse [s.ds] toward [s.key], retried from the entry point when a
     walk fails or a resumed cursor does not revalidate.  Both answer
     [s.found]; only after a [search] may the caller use [s.live], which
     one of [prot] / [backup] protects until the next traversal. *)
  let rec lookup s =
    s.holds <- false;
    if S.traverse s.h ~hold:false ~prot:s.prot ~backup:s.backup s.w then
      s.found
    else lookup s

  let rec search s =
    s.holds <- true;
    if S.traverse s.h ~hold:true ~prot:s.prot ~backup:s.backup s.w then
      s.found
    else search s

  (** [create ds ~shields ~idle ~ext ~init ~walk ~insert ~remove] — a
      session of the calling thread on [ds]: [shields] is the length of
      [prot] and [backup]; [idle] the placeholder cursor the live cursor
      and both slots hold until the first traversal replaces them; [ext]
      builds the structure's own fields from the handle, after [prot]
      and [backup]; [init s] loads the entry-point cursor into a fresh
      record; [walk s n] takes at most [n] steps from [s.live] and
      writes the cursor back into it; [insert s] and [remove s] are the
      operation bodies.  [resumable] is the walker's. *)
  let create ?(resumable = true) ~shields ~idle ~ext ~init ~walk ~insert
      ~remove ds =
    let h = S.register S.it in
    let alloc n = Array.init n (fun _ -> S.new_shield h) in
    let prot = alloc shields in
    let backup = alloc shields in
    let x = ext h in
    let rec s =
      {
        h;
        prot;
        backup;
        ds;
        key = 0;
        value = 0;
        holds = false;
        found = false;
        live = idle;
        slots = [| idle; idle |];
        saved = 0;
        w =
          {
            init =
              (fun () ->
                let c = init s in
                s.saved <- 0;
                s.live <- c);
            walk = (fun n -> walk s n);
            save = (fun i -> save s i);
            restore = (fun i -> restore s i);
            protect = (fun sh -> C.protect sh s.live);
            resumable;
            steps = 0;
          };
        x;
        get_body = (fun () -> lookup s);
        insert_body = (fun () -> insert s);
        remove_body = (fun () -> remove s);
      }
    in
    s

  let close_session s =
    S.flush s.h;
    S.unregister s.h

  let get ds s key =
    s.ds <- ds;
    s.key <- key;
    S.op s.h s.get_body

  let insert ds s key value =
    s.ds <- ds;
    s.key <- key;
    s.value <- value;
    S.op s.h s.insert_body

  let remove ds s key =
    s.ds <- ds;
    s.key <- key;
    S.op s.h s.remove_body
end
