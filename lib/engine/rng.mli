(** Deterministic splittable pseudo-random numbers (splitmix64).

    The simulator never touches the global [Random] state or the wall
    clock; every stochastic component owns an [Rng.t] derived from the
    experiment seed, so runs are exactly reproducible. *)

type t

val create : int -> t
(** Seed a new generator. *)

val split : t -> t
(** Derive an independent generator; the parent advances. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  [n] must be positive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential with the given mean;
    used for Poisson arrival processes. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)
