(** Best-effort cache-line layout control — the OCaml analogue of CLPAD.

    C implementations pad every per-thread hot cell to a cache line
    ([CLPAD = 128/sizeof(std::atomic<T*>)] in the classic HP sources) so
    that two threads hammering adjacent slots never share a line.  OCaml
    gives no direct control over object placement, but it does give one
    strong, exploitable property: the minor heap is a bump allocator, so
    {e consecutive allocations are adjacent in memory}, and promotion to
    the major heap preserves allocation order per collection.  Both tools
    below turn that property into spatial separation of hot atomics:

    - {!strided_init} builds an [n]-slot array whose cells are {e
      allocated} in a transposed order, so cells at adjacent {e indices}
      are ~[groups] allocations (≥ one cache line) apart in memory while
      cells adjacent in memory are [n/groups] apart in index.  Zero memory
      overhead — the right tool for big slot tables (a 1024-slot chunk of
      the hazard-pointer registry) where per-slot spacers would cost more
      than the table.  The table must be bigger than [Max_young_wosize]
      (256 words) so that it is born in the major heap: its young cells
      then reach the major heap through the remembered set in allocation
      order, and the stride survives promotion.  A young table promotes
      its cells in index order instead, packing index neighbours onto one
      line again (a 64-slot chunk measured slower per op for exactly
      this).

    - {!spacer} is a 128-byte GC-live filler block.  Storing one in a
      record field between two hot allocations keeps at least a cache
      line of live data between them across minor collections (a dead
      filler would be compacted away, re-packing the hot cells).  The
      right tool for small fixed sets of cells: per-domain counter lanes,
      per-participant epoch/status records.

    This is best-effort, not a guarantee: a compacting major GC may
    reorder blocks allocated in different collections.  In practice the
    hot cells here are allocated together at [create]/[register] time and
    live (or die) together, so the separation survives.  The fiber
    simulator is single-domain and indifferent to layout; only the
    Domains backend's wall-clock numbers depend on it, and only as a
    throughput effect — never correctness. *)

(** One cache line (128 B on the big cores we target), in words. *)
let cache_line_words = 16

(** A GC-live filler block spanning at least one cache line.  Keep the
    returned value reachable (a record field next to the cells it
    separates); an unreachable spacer is collected and the separation
    collapses at the next minor GC. *)
let spacer () = Array.make cache_line_words 0

(** [strided_init n f] is [Array.init n f] with a transposed allocation
    order: cell [i] and cell [i+1] are allocated ~[groups] allocations
    apart, so boxed cells at adjacent indices do not share a cache line
    even though the array of pointers itself is dense.  [f] is called
    exactly once per index, and must not return a float.  Scans that walk
    the array in index order degrade into [groups] interleaved sequential
    streams — hardware prefetchers handle that shape well. *)
let strided_init ?(groups = 8) n f =
  if n <= 2 * groups || groups <= 1 then Array.init n f
  else begin
    let g = groups in
    let cols = (n + g - 1) / g in
    (* Seeded with the immediate 0, not with a first result of [f]: an
       array over [Max_young_wosize] is born in the major heap, and
       [Array.make] empties the minor heap before it stores a young seed
       into one.  The placeholder never escapes, as every index is
       overwritten below before the array is returned; and since [f]
       returns no float, the array is an ordinary block array, as
       [Array.init] would have made it. *)
    let arr = Array.make n (Obj.magic 0) in
    (* Allocation proceeds down the columns of a [g × cols] grid whose
       rows are index-contiguous: consecutive allocations are [cols]
       apart in index, consecutive indices are [g] allocations apart in
       memory. *)
    for c = 0 to cols - 1 do
      for r = 0 to g - 1 do
        let i = (r * cols) + c in
        if i < n then arr.(i) <- f i
      done
    done;
    arr
  end
