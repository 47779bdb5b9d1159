(** Wall-clock performance of the simulator itself.

    Every other gate in this library checks *simulated* latencies; this
    one measures how fast the engine turns real CPU time into simulated
    events.  {!run} executes a fixed cell set — the graph5 full sweep
    (6 loads x 3 transports over the 56K WAN world, the timer-heaviest
    standard experiment) with no trace or metrics sinks attached, so it
    times the detached fast path — and reports aggregate events/s and
    RPCs/s of wall clock.

    [nfsbench perf] runs it; [make perf-baseline] commits the result as
    [BENCH_perf.json]; [make perf-gate] fails when either rate drops
    more than the tolerance below the baseline (wide, because container
    wall clocks are noisy — see {!diff}), when any event or RPC count
    differs from it, or when the profiled pass allocates more than 1%
    more minor words per event. *)

type cell = {
  c_label : string;
  c_wall_s : float;  (** real seconds this cell took *)
  c_events : int;  (** simulator events processed *)
  c_rpcs : int;  (** NFS RPCs the server completed *)
}

type t = {
  cells : cell list;
  wall_s : float;  (** sum over cells *)
  events : int;
  rpcs : int;
  events_per_s : float;
  rpcs_per_s : float;
  p_profile : Renofs_profile.Profile.snapshot option;
      (** per-subsystem attribution from the profiled second pass *)
}

val run :
  ?progress:(string -> unit) -> ?profile:bool -> unit -> (t, string) result
(** Execute the fixed cell set serially (wall-clock measurement wants
    the machine to itself; there is no [?jobs]) through
    {!Experiments.graph5_runs}, three times.  Each cell's [c_wall_s] is
    its best pass; passes whose event or RPC counts disagree are an
    [Error] — the simulation is deterministic, so that is a bug, not
    noise.  [progress] is called with each cell's label as it starts.
    With [~profile:true] one more pass runs the same cells with the
    self-profiler attached and stores the attribution snapshot in
    [p_profile]; the gate rates always come from the detached
    passes. *)

(** {2 renofs-perf/1 JSON} *)

val emit : t -> string
(** A {!Renofs_json.Json.document} with a deterministic field order;
    [p_profile] is embedded as {!Renofs_profile.Profile.to_json}.  (The
    wall-clock values themselves are of course not reproducible.) *)

val write_file : path:string -> t -> unit
val read_file : string -> (t, string) result

(** {2 The gate} *)

type verdict = {
  regressions : string list;
      (** a rate fell more than [tolerance] below the baseline, an
          event or RPC count — aggregate or per cell — differs from it
          (count drift means the simulation changed and the baseline
          wants a deliberate [make perf-baseline]), the cell set
          changed, or — when both sides carry a self-profile — minor
          words per event rose more than 1% *)
  notes : string list;
      (** informational: rate movement within tolerance, per-cell rate
          moves beyond it (a single cell's wall clock is too noisy to
          gate on), and subsystem-share shifts when both files carry a
          self-profile *)
}

val diff : tolerance:float -> baseline:t -> current:t -> verdict
(** [tolerance] is a fraction of the baseline rate, e.g. [0.30]. *)
