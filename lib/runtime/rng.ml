(** Deterministic pseudo-random number generation.

    Every randomized component in this repository (the fiber scheduler, the
    workload generators, the skip-list level generator, property tests'
    auxiliary streams) draws from an explicit, seedable generator so that a
    run is reproducible from its seed alone.  We use SplitMix64 for seeding
    and as the main stream: it is tiny, passes BigCrush, and — unlike
    [Stdlib.Random] pre-5.0 — has no hidden global state. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 step: state += gamma; z = mix(state). *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [next t] returns a non-negative 62-bit integer. *)
let next t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

(** [int t bound] returns a uniform integer in [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bound is tiny relative to 2^62 and
     the induced bias (< 2^-40 for benchmark-scale bounds) is irrelevant to
     workload generation. *)
  next t mod bound

(** [bool t] returns a uniform boolean. *)
let bool t = Int64.logand (next_int64 t) 1L = 1L

(** [permutation t n] returns [0 .. n-1] in a uniform random order
    (Fisher-Yates, drawing [int t (i + 1)] for [i = n-1] down to [1]). *)
let permutation t n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(** [below t ~percent] is true with probability [percent]/100. *)
let below t ~percent = int t 100 < percent

(** [split t] derives an independent child generator; used to give each
    worker thread its own stream from one experiment seed. *)
let split t = { state = next_int64 t }
