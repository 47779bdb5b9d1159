(** One experiment spec per paper artifact (Graphs 1-9, Tables 1-5, the
    Section 3 NIC tuning numbers, and the lease/scaling extensions).

    An experiment is declared as a list of {!cell}s — one self-contained
    measurement per (transport x load x topology x profile) point, each
    building its own fresh world — plus an assembly function that turns
    the typed per-cell results into rows.  {!run_spec} executes the
    cells, serially or across domains via {!Sweep}, and returns typed
    {!results}; {!render} turns those into the printable string
    {!table}.  No runner formats measurement strings itself.

    [Quick] scale keeps every experiment in seconds of wall time for
    tests; [Full] runs longer sweeps for the bench harness. *)

type scale = Quick | Full

(** {2 Typed measurement values} *)

type unit_of_measure = Ms | Sec | Per_sec | Percent | Bytes | Count

type value =
  | Text of string  (** row labels and placeholders *)
  | Int of int * unit_of_measure
  | Float of float * unit_of_measure * int
      (** value already in its display unit, with rendering precision *)

val unit_name : unit_of_measure -> string
(** Stable lowercase names ("ms", "s", "per_s", "percent", "bytes",
    "count") used by the JSON export. *)

val render_value : value -> string
(** The single place measurement values become strings: fixed-precision
    decimal, a ["%"] suffix for {!Percent}. *)

val float_of_value : value -> float
(** The numeric payload (parses {!Text}; raises [Failure] when it is
    not numeric). *)

(** {2 Rendered tables} *)

type table = {
  id : string;
  title : string;
  header : string list;
  rows : string list list;
}

val print_table : Format.formatter -> table -> unit

(** {2 Cells, specs and execution} *)

type ctx = {
  trace : Renofs_trace.Trace.t option;
  faults : Renofs_fault.Fault.schedule option;
  metrics : Renofs_metrics.Metrics.t option;
  profile : Renofs_profile.Profile.t option;
  cell_label : string;
}
(** Everything a cell receives from the runner: its observer bundle
    (trace, metrics and profile sinks, each private to the cell — see
    {!run_spec}), the fault schedule {!install_faults} puts on every
    world the cell builds, and [cell_label], which labels the cell's
    metrics runs. *)

type cell = {
  cell_label : string;  (** e.g. ["graph1/load10/udp-dyn"], for diagnostics *)
  cell_run : ctx -> value list;  (** builds its own world(s) and measures *)
}

type spec = {
  sp_id : string;
  sp_title : string;
  sp_header : string list;
  sp_cells : cell list;
  sp_assemble : value list list -> value list list;
      (** per-cell outputs, in cell order, to table rows *)
}

type results = {
  r_id : string;
  r_title : string;
  r_header : string list;
  r_rows : value list list;
}

val specs : (string * (scale -> spec)) list
(** Every experiment, keyed by id ("graph1" ... "table5", "section3",
    plus the extensions "leases", "scaling" and "fleet").  Building a
    spec is cheap — no simulation runs until {!run_spec}. *)

val spec : ?scale:scale -> string -> spec option
(** Look up and build one spec ([Quick] by default).  The extra id
    "fleet-quick" resolves to the fleet family pinned at [Quick]
    regardless of [scale] — the stable target of the make-check smoke
    stage. *)

val chaos_spec : ?seed:int -> scale -> spec
(** The registry's "chaos" spec, with an explicit world seed.  [seed]
    defaults to the historical fixed world (bit-for-bit identical to
    [spec "chaos"]); any other value re-seeds the topology RNG so
    repeated chaos runs explore different timing interleavings. *)

val fuzz_profiles : string list
(** The wire-mangling profiles {!fuzz_spec} cycles through: corrupt,
    truncate, duplicate, reorder, storm. *)

val fuzz_spec : ?seeds:int -> ?base_seed:int -> ?checksum:bool -> scale -> spec
(** Seeded wire-corruption fuzzing, deliberately absent from {!specs}
    (it is a robustness gate, not a paper artifact).  Cell [i] runs the
    chaos-style write/read workload on a hard mount under mangling
    driven by seed [base_seed + i], cycling profile and mount — the
    three transports plus the v3 UNSTABLE+COMMIT profile — so any
    [seeds >= 20] covers the full matrix.  Each row reports
    retransmissions, garbled replies, checksum drops, and the
    {!Renofs_fault.Fault.Check} verdicts including the end-to-end
    {!Renofs_fault.Fault.Check.data_integrity} check against the
    client-side ledger; a stuck driver or uncaught exception becomes a
    ["FAIL:..."] verdict instead of killing the sweep.  [checksum:false]
    disables UDP checksums — the Sun configuration whose silent
    corruption the paper recounts — and under the corrupt profile is
    expected to produce data-integrity violations. *)

val run_spec :
  ?jobs:int ->
  ?trace:Renofs_trace.Trace.t ->
  ?faults:Renofs_fault.Fault.schedule ->
  ?metrics:Renofs_metrics.Metrics.t ->
  ?profile:Renofs_profile.Profile.t ->
  ?flight:Renofs_profile.Flight.t ->
  spec ->
  results
(** Execute a spec's cells across [jobs] domains (default
    {!Sweep.default_jobs}) and assemble the typed rows.  Results are
    reassembled by cell index, never completion order, so output is
    identical for every [jobs].

    Observers: the given [trace], [metrics] and [profile] sinks form
    one bundle.  Before the sweep each cell gets a fork of it — a
    private trace sink of the same capacity, a metrics sink of the same
    interval, a fresh profile — which {!attach_observers} puts on every
    world the cell builds (one mark-delimited trace segment and one
    labelled metrics run per world, a [Sim] probe for the profile).
    After the sweep the forks are joined into the given sinks in cell
    order, so the trace stream and the exported metrics series are
    identical to a serial run's at any [jobs], and so are the profile's
    enter/fire counts (its wall-clock attribution is real time and is
    not).

    Faults: with [faults], the schedule is installed on every world the
    cells build, so any experiment can run under any schedule (the
    [nfsbench run ID --faults FILE] path).

    Flight recorder: with [flight], a private trace sink and profile
    are forced on every cell, and a cell that raises {!Driver_stuck} or
    returns a row with a ["FAIL"]-prefixed value (invariant or SLO
    verdicts) dumps a post-mortem bundle before the sweep re-raises. *)

val run_specs :
  ?jobs:int ->
  ?trace:Renofs_trace.Trace.t ->
  ?faults:Renofs_fault.Fault.schedule ->
  ?metrics:Renofs_metrics.Metrics.t ->
  ?profile:Renofs_profile.Profile.t ->
  ?flight:Renofs_profile.Flight.t ->
  spec list ->
  results list
(** As {!run_spec} over several specs, pooling all their cells into one
    sweep so short experiments overlap long ones. *)

val render : results -> table
(** Pure rendering of typed results via {!render_value}. *)

exception Driver_stuck of string
(** An experiment driver failed to finish; the message carries the run
    label, sim time, pending event count and events processed. *)

(** {2 World lifecycle}

    Every cell builds, observes, faults and drives its worlds through
    these functions: {!make_world} (or {!make_fleet_world}) builds a
    world and calls {!attach_observers}, the cell's fault schedule goes
    on through {!install_faults}, and {!drive} / {!run_until} advance
    the simulator until the cell's drivers finish. *)

type world = {
  sim : Renofs_engine.Sim.t;
  topo : Renofs_net.Topology.t;
  server : Renofs_core.Nfs_server.t;
  clients : (Renofs_transport.Udp.stack * Renofs_transport.Tcp.stack) list;
      (** one UDP and one TCP stack per client host, [topo]'s order *)
}
(** A single-server world. *)

val attach_observers :
  ctx -> Renofs_engine.Sim.t -> Renofs_net.Topology.t -> string -> unit
(** Put the cell's observer bundle on every node of a fresh world: the
    profile probe, a trace mark named by the label (each world has its
    own clock and xid space, so a report must not join across worlds),
    a metrics run labelled by [cell_label], and a per-world mbuf pool. *)

val install_faults :
  ctx ->
  Renofs_engine.Sim.t ->
  Renofs_net.Topology.t ->
  Renofs_core.Nfs_server.t list ->
  unit
(** Install [ctx.faults], if any, on the world's nodes and servers,
    recording into [ctx.trace].  Action times are relative to now. *)

val checked_trace : capacity:int -> ctx -> Renofs_trace.Trace.t * ctx
(** The sink a checker reads its run back from: the cell's own trace,
    or a fresh one of [capacity] put into the returned [ctx] when the
    runner attached none.  Checkers read the whole ring, so each caller
    sizes it for its run. *)

val make_world :
  ?params:Renofs_net.Topology.params ->
  ?server_profile:Renofs_core.Nfs_server.profile ->
  ?defer_faults:bool ->
  ?udp_checksum:bool ->
  ?clients:int ->
  ?run_label:string ->
  ctx:ctx ->
  topology:string ->
  unit ->
  world
(** Build a {!Renofs_net.Topology.build} world of the named shape
    (["lan"], ["campus"], ["wan"], ["star"]) with [clients] hosts
    (default 1), attach observers (trace mark [run_label], default the
    topology name), and start an NFS server on UDP and TCP.  The fault
    schedule is installed at once unless [defer_faults], in which case
    the caller installs it when its measured phase starts. *)

val run_until :
  label:string -> window:float -> Renofs_engine.Sim.t -> (unit -> bool) -> unit
(** Advance the simulator [window] sim-seconds at a time until
    [finished ()] — cross traffic and metrics ticks never drain the
    queue — raising {!Driver_stuck} after 100,000 windows. *)

val drive : ?label:string -> world -> (unit -> 'a) -> 'a
(** Run the body as a process on the world and {!run_until} it
    returns, in 100 s windows. *)

val make_fleet_world :
  ?defer_faults:bool ->
  ctx:ctx ->
  label:string ->
  graph:Renofs_net.Topology.graph_spec ->
  fileset:Fileset.t ->
  client:(int -> Renofs_core.Nfs_client.t -> unit) ->
  Renofs_engine.Sim.t ->
  Renofs_net.Topology.t * Renofs_fleet.Fleet.t * unit Renofs_engine.Proc.Ivar.t
(** Build a sharded fleet world on the given simulator: the
    {!Renofs_net.Topology.build_graph} graph, its observers, one
    hash-placed shard ["/home<i>"] per client, provisioned and
    preloaded with [fileset]; the returned ivar fills when that is
    done.  Each client [i] then mounts its shard (staggered by 3 ms, as
    rc.local would) and runs [client i mount] in its own process.  The
    fault schedule, with the fleet's servers as targets, starts when
    the ivar fills unless [defer_faults]. *)

val graph5_runs : scale -> (string * (ctx -> world * Nhfsstone.result)) list
(** Graph 5's cells as runs that hand back their world: label (e.g.
    ["graph5/load4/udp-fixed"]) and the warmed-up Nhfsstone run on a
    fresh WAN world.  {!Perf} times the [Full] set. *)


