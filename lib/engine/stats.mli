(** Online statistics used by the measurement harness. *)

(** Welford's online mean/variance. *)
module Welford : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  val min : t -> float
  val max : t -> float
  val total : t -> float
end

(** Fixed-width bucketed histogram with an overflow bucket. *)
module Hist : sig
  type t

  val create : bucket_width:float -> buckets:int -> t
  val add : t -> float -> unit
  val count : t -> int
  val quantile : t -> float -> float
  (** [quantile t 0.5] is an upper bound on the median (bucket boundary).
      Raises [Invalid_argument] on an empty histogram or q outside [0,1]. *)

  val to_list : t -> (float * int) list
  (** [(bucket_upper_bound, count)] pairs, overflow last with bound
      [infinity]. *)
end

(** Append-only (time, value) traces, e.g. the Graph 7 RTT/RTO trace or
    a metrics sampler's per-series points. *)
module Timeseries : sig
  type t

  val create : ?name:string -> unit -> t
  val name : t -> string
  val add : t -> float -> float -> unit
  val length : t -> int
  val to_list : t -> (float * float) list

  val delta : (float * float) list -> (float * float) list
  (** Successive value differences, stamped at the later point's time:
      n points yield n-1; empty and single-point inputs yield []. *)

  val rate : (float * float) list -> (float * float) list
  (** Successive per-second rates ([delta] / time step), for
      counter-valued series.  Pairs with a nonpositive time step are
      skipped; empty and single-point inputs yield []. *)
end

(** Named integer counters, e.g. per-RPC-type counts. *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : ?by:int -> t -> string -> unit
  val get : t -> string -> int
  val total : t -> int
  val to_list : t -> (string * int) list
  (** Sorted by key. *)

  val reset : t -> unit
end
