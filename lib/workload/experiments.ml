module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Cpu = Renofs_engine.Cpu
module Stats = Renofs_engine.Stats
module Net = Renofs_net
module Node = Renofs_net.Node
module Nic = Renofs_net.Nic
module Topology = Renofs_net.Topology
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module Fs = Renofs_vfs.Fs
module Disk = Renofs_vfs.Disk
module Nfs_server = Renofs_core.Nfs_server
module Nfs_client = Renofs_core.Nfs_client
module Client_transport = Renofs_core.Client_transport
module Trace = Renofs_trace.Trace
module Fault = Renofs_fault.Fault
module Metrics = Renofs_metrics.Metrics
module Fleet = Renofs_fleet.Fleet
module Profile = Renofs_profile.Profile
module Flight = Renofs_profile.Flight

type scale = Quick | Full

(* ------------------------------------------------------------------ *)
(* Typed measurement values                                           *)
(* ------------------------------------------------------------------ *)

type unit_of_measure = Ms | Sec | Per_sec | Percent | Bytes | Count

type value =
  | Text of string
  | Int of int * unit_of_measure
  | Float of float * unit_of_measure * int

let unit_name = function
  | Ms -> "ms"
  | Sec -> "s"
  | Per_sec -> "per_s"
  | Percent -> "percent"
  | Bytes -> "bytes"
  | Count -> "count"

let render_value = function
  | Text s -> s
  | Int (v, _) -> string_of_int v
  | Float (v, Percent, prec) -> Printf.sprintf "%.*f%%" prec v
  | Float (v, _, prec) -> Printf.sprintf "%.*f" prec v

(* Constructors: the float is stored in its display unit, so rendering
   never rescales (and serial/parallel runs can be compared bit for
   bit). *)
let ms v = Float (v *. 1000.0, Ms, 1) (* measured in seconds *)
let msr v = Float (v, Ms, 1) (* already in milliseconds *)
let sec1 v = Float (v, Sec, 1)
let sec2 v = Float (v, Sec, 2)
let rate1 v = Float (v, Per_sec, 1)
let rate2 v = Float (v, Per_sec, 2)
let pct0 v = Float (v *. 100.0, Percent, 0) (* measured as a fraction *)
let pct_raw v = Float (v, Percent, 0) (* already in percent *)
let count n = Int (n, Count)
let byte_count n = Int (n, Bytes)
let txt s = Text s

let float_of_value = function
  | Float (v, _, _) -> v
  | Int (v, _) -> float_of_int v
  | Text s -> float_of_string s

(* ------------------------------------------------------------------ *)
(* Rendered tables                                                    *)
(* ------------------------------------------------------------------ *)

type table = {
  id : string;
  title : string;
  header : string list;
  rows : string list list;
}

let print_table fmt t =
  let widths =
    List.fold_left
      (fun acc row ->
        List.mapi (fun i cell -> max (List.nth acc i) (String.length cell)) row)
      (List.map String.length t.header)
      t.rows
  in
  let print_row row =
    Format.fprintf fmt "| %s |@."
      (String.concat " | "
         (List.mapi
            (fun i cell -> cell ^ String.make (List.nth widths i - String.length cell) ' ')
            row))
  in
  Format.fprintf fmt "== %s: %s ==@." t.id t.title;
  print_row t.header;
  Format.fprintf fmt "|%s|@."
    (String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter print_row t.rows;
  Format.fprintf fmt "@."

(* ------------------------------------------------------------------ *)
(* Cells and specs                                                    *)
(* ------------------------------------------------------------------ *)

type ctx = {
  trace : Trace.t option;
  faults : Fault.schedule option;
  metrics : Metrics.t option;
  profile : Profile.t option;
  cell_label : string;
}

exception Driver_stuck of string

type cell = { cell_label : string; cell_run : ctx -> value list }

type spec = {
  sp_id : string;
  sp_title : string;
  sp_header : string list;
  sp_cells : cell list;
  sp_assemble : value list list -> value list list;
}

type results = {
  r_id : string;
  r_title : string;
  r_header : string list;
  r_rows : value list list;
}

let render r =
  {
    id = r.r_id;
    title = r.r_title;
    header = r.r_header;
    rows = List.map (List.map render_value) r.r_rows;
  }

(* [chunk n xs] splits [xs] into consecutive groups of [n]. *)
let chunk n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = 1 then go (List.rev (x :: cur) :: acc) [] n rest
        else go acc (x :: cur) (k - 1) rest
  in
  if n <= 0 then invalid_arg "chunk" else go [] [] n xs

(* A cell that failed, in its own verdict: any row value that is a
   FAIL-prefixed text — chaos/fuzz invariant verdicts, the fuzzer's
   FAIL:stuck / FAIL:exn rows, a scenario's SLO-breach verdict. *)
let fail_value out =
  List.find_map
    (function
      | Text s when String.length s >= 4 && String.sub s 0 4 = "FAIL" -> Some s
      | _ -> None)
    out

(* The per-cell observer bundle is the cell's [ctx].  [fork] gives a
   cell private sinks shaped like the runner's (same trace capacity and
   metrics interval); [join] merges them back.  Joining in cell order
   after the sweep makes the combined streams identical to a serial
   run's: trace segments stay mark-delimited, metrics runs keep start
   order, profile counters commute.

   An armed flight recorder forces a private trace sink and profile on
   every cell even when the caller asked for neither, so a failing cell
   always has a tail and a snapshot to dump. *)
let fork ~flight (main : ctx) cell_label =
  {
    main with
    trace =
      (match (main.trace, flight) with
      | Some tr, _ -> Some (Trace.create ~capacity:(Trace.capacity tr) ())
      | None, Some _ -> Some (Trace.create ~capacity:(1 lsl 18) ())
      | None, None -> None);
    metrics =
      Option.map
        (fun mt -> Metrics.create ~interval:(Metrics.interval mt) ())
        main.metrics;
    profile =
      (if main.profile <> None || flight <> None then Some (Profile.create ())
       else None);
    cell_label;
  }

let join ~(into : ctx) (cell : ctx) =
  let merge f main sink =
    match (main, sink) with Some m, Some s -> f ~into:m s | _ -> ()
  in
  merge Trace.merge into.trace cell.trace;
  merge Metrics.merge into.metrics cell.metrics;
  merge Profile.merge into.profile cell.profile

(* Flight dumps happen inside the cell body — in the worker domain,
   before [Sweep.run] re-raises — so a [Driver_stuck] on one cell
   cannot lose another cell's bundle. *)
let run_cells ?jobs ?flight main cells =
  let run_one c ctx =
    (match ctx.profile with Some p -> Profile.start p | None -> ());
    let finish () =
      match ctx.profile with Some p -> Profile.stop p | None -> ()
    in
    let dump reason =
      match flight with
      | None -> ()
      | Some f ->
          ignore
            (Flight.dump f ~label:c.cell_label ~reason ?trace:ctx.trace
               ?metrics:ctx.metrics ?profile:ctx.profile ())
    in
    match c.cell_run ctx with
    | out ->
        finish ();
        (match fail_value out with Some reason -> dump reason | None -> ());
        out
    | exception e ->
        finish ();
        (match e with Driver_stuck msg -> dump msg | _ -> ());
        raise e
  in
  let ctxs = List.map (fun c -> fork ~flight main c.cell_label) cells in
  let outs =
    Sweep.run ?jobs
      (List.map2
         (fun c ctx ->
           Sweep.cell ~label:c.cell_label (fun () -> run_one c ctx))
         cells ctxs)
  in
  List.iter (join ~into:main) ctxs;
  outs

let run_specs ?jobs ?trace ?faults ?metrics ?profile ?flight specs =
  (* One shared pool across every spec: single-cell experiments overlap
     with their neighbours instead of serialising the tail. *)
  let main = { trace; faults; metrics; profile; cell_label = "" } in
  let outs =
    run_cells ?jobs ?flight main (List.concat_map (fun s -> s.sp_cells) specs)
  in
  let rec split specs outs =
    match specs with
    | [] -> []
    | s :: rest ->
        let k = List.length s.sp_cells in
        let mine = List.filteri (fun i _ -> i < k) outs in
        let theirs = List.filteri (fun i _ -> i >= k) outs in
        {
          r_id = s.sp_id;
          r_title = s.sp_title;
          r_header = s.sp_header;
          r_rows = s.sp_assemble mine;
        }
        :: split rest theirs
  in
  split specs outs

let run_spec ?jobs ?trace ?faults ?metrics ?profile ?flight spec =
  List.hd (run_specs ?jobs ?trace ?faults ?metrics ?profile ?flight [ spec ])

(* ------------------------------------------------------------------ *)
(* World plumbing                                                     *)
(* ------------------------------------------------------------------ *)

type world = {
  sim : Sim.t;
  topo : Topology.t;
  server : Nfs_server.t;
  clients : (Udp.stack * Tcp.stack) list;
}

(* Attach one observers record to every node in this world: the cell's
   trace sink (opening a new mark-delimited segment — each world has its
   own sim clock and xid space, so the report must not join across
   worlds), a metrics run when sampling was requested (labelled by the
   cell; must run on worlds drained with [Sim.run ~until] windows — i.e.
   everything driven through [run_until] — because the sampling tick
   keeps the event queue non-empty forever), and a fresh per-world mbuf
   pool so the transports recycle buffer storage across calls. *)
let attach_observers ctx sim topo label =
  (* Probe first, so the metrics tick and everything scheduled from
     here on carries a slot tag. *)
  (match ctx.profile with
  | None -> ()
  | Some p ->
      let probe = Some (Profile.probe p) in
      Sim.set_probe sim probe;
      (match ctx.trace with Some tr -> Trace.set_probe tr probe | None -> ()));
  (match ctx.trace with
  | None -> ()
  | Some tr -> Trace.mark tr ~time:(Sim.now sim) label);
  let run =
    match ctx.metrics with
    | None -> None
    | Some mt -> Some (Metrics.start_run mt ~sim ~label:ctx.cell_label)
  in
  let obs =
    {
      Node.trace = ctx.trace;
      metrics = run;
      pool = Some (Renofs_mbuf.Mbuf.Pool.create ());
    }
  in
  List.iter (fun n -> Node.attach n obs) topo.Topology.all

let install_faults ctx sim topo servers =
  match ctx.faults with
  | None -> ()
  | Some sched ->
      Fault.install
        { Fault.sim; nodes = topo.Topology.all; servers; trace = ctx.trace }
        sched

let checked_trace ~capacity ctx =
  match ctx.trace with
  | Some tr -> (tr, ctx)
  | None ->
      let tr = Trace.create ~capacity () in
      (tr, { ctx with trace = Some tr })

(* [defer_faults] leaves the schedule uninstalled so runners with a
   warmup phase can install it (via {!install_faults}) when the
   measured run starts — schedule times are relative to installation. *)
let make_world ?(params = Topology.default_params)
    ?(server_profile = Nfs_server.reno_profile) ?(defer_faults = false)
    ?(udp_checksum = true) ?(clients = 1) ?run_label ~ctx ~topology () =
  let sim = Sim.create () in
  let topo =
    Topology.build sim
      { Topology.shape = Topology.shape_of_name topology; clients; params }
  in
  attach_observers ctx sim topo (Option.value run_label ~default:topology);
  let sudp = Udp.install ~checksum:udp_checksum topo.Topology.server in
  let stcp = Tcp.install topo.Topology.server in
  let server =
    Nfs_server.create topo.Topology.server ~profile:server_profile ~udp:sudp
      ~tcp:stcp ()
  in
  Nfs_server.start server;
  let clients =
    List.map
      (fun c ->
        let udp = Udp.install ~checksum:udp_checksum c in
        (udp, Tcp.install c))
      topo.Topology.clients
  in
  if not defer_faults then install_faults ctx sim topo [ server ];
  { sim; topo; server; clients }

let run_until ~label ~window sim finished =
  let windows = ref 0 in
  while not (finished ()) do
    incr windows;
    if !windows > 100_000 then
      raise
        (Driver_stuck
           (Printf.sprintf
              "%s: driver never finished after %d advance windows (sim time \
               %.1f s, %d events pending, %d processed)"
              label !windows (Sim.now sim) (Sim.pending_events sim)
              (Sim.events_processed sim)));
    Sim.run ~until:(Sim.now sim +. window) sim
  done

(* Run [body] as a driver process; keep the simulator moving (cross
   traffic never drains the event queue) until the driver finishes. *)
let drive ?(label = "experiment") world body =
  let result = ref None in
  Proc.spawn world.sim (fun () -> result := Some (body ()));
  run_until ~label ~window:100.0 world.sim (fun () -> !result <> None);
  Option.get !result

let make_fleet_world ?(defer_faults = false) ~ctx ~label ~graph ~fileset
    ~client sim =
  let topo = Topology.build_graph sim graph in
  attach_observers ctx sim topo label;
  let fleet =
    Fleet.create ~policy:Fleet.Hash ~shards:graph.Topology.g_clients
      topo.Topology.servers
  in
  let ready = Proc.Ivar.create sim in
  Proc.spawn sim (fun () ->
      Fleet.provision fleet;
      Fleet.iter_shards fleet (fun ~shard ~server ->
          Fileset.preload_under server ~path:shard fileset);
      if not defer_faults then
        install_faults ctx sim topo (Fleet.servers fleet);
      Proc.Ivar.fill ready ());
  List.iteri
    (fun i node ->
      let udp = Udp.install node in
      Proc.spawn sim (fun () ->
          Proc.Ivar.read ready;
          (* Stagger the mount storm a little, as rc.local would.  A
             storm can outlast the mount daemon's retries; that client
             then runs no load rather than aborting the world. *)
          Proc.sleep sim (float_of_int i *. 0.003);
          client i
            (try
               Some
                 (Fleet.mount_shard fleet ~udp
                    ~shard:(Printf.sprintf "/home%d" i)
                    Nfs_client.reno_mount)
             with Nfs_client.Mount_failed _ -> None)))
    topo.Topology.clients;
  (topo, fleet, ready)

let mss_for topology = if topology = "lan" then 1460 else 512

let mount_opts_for ~transport ~topology =
  let base =
    match transport with
    | `Udp_fixed -> Nfs_client.reno_mount
    | `Udp_dynamic -> Nfs_client.reno_dynamic_mount
    | `Tcp -> Nfs_client.reno_tcp_mount
  in
  { base with Nfs_client.mss = mss_for topology }

let mount_in ?(client = 0) world opts =
  let udp, tcp = List.nth world.clients client in
  Nfs_client.mount ~udp ~tcp
    ~server:(Topology.server_id world.topo)
    ~root:(Nfs_server.root_fhandle world.server)
    opts

let transports = [ ("udp-fixed", `Udp_fixed); ("udp-dyn", `Udp_dynamic); ("tcp", `Tcp) ]

(* The robustness matrices (chaos, fuzz) add a fourth column to the
   transport sweep: the v3 profile, whose UNSTABLE writes may legally
   die with a crashed server — the write-behind ledger and COMMIT
   verifier check are what keep the durability invariants green. *)
let robustness_mounts ~topology =
  List.map
    (fun (name, transport) -> (name, mount_opts_for ~transport ~topology))
    transports
  @ [ ("v3", { Nfs_client.v3_mount with Nfs_client.mss = mss_for topology }) ]

let standard_fileset =
  Fileset.generate ~dirs:20 ~files_per_dir:20 ~file_size:16384 ~long_names:true

(* ------------------------------------------------------------------ *)
(* Nhfsstone sweeps (Graphs 1-5, 8, 9; Tables 1; Graph 6)             *)
(* ------------------------------------------------------------------ *)

let sweep_loads = function Quick -> [ 5.0; 10.0; 20.0; 30.0 ] | Full -> [ 5.0; 10.0; 15.0; 20.0; 25.0; 30.0; 40.0 ]
let sweep_duration = function Quick -> 20.0 | Full -> 120.0

let one_nhfsstone_run ?(server_profile = Nfs_server.reno_profile)
    ?(params = Topology.default_params) ?(warmup = 8.0) ?(children = 4) ?label
    ~ctx ~topology ~mount_opts ~mix ~rate ~duration ~seed () =
  let world =
    make_world ~params ~server_profile ~defer_faults:true ?run_label:label ~ctx
      ~topology ()
  in
  drive ?label world (fun () ->
      (* Preload and warmup are not part of the measured run: gate the
         sink so the report sees steady state only, and hold the fault
         schedule back so it perturbs the measured run, not the warmup. *)
      (match ctx.trace with Some tr -> Trace.set_enabled tr false | None -> ());
      (match ctx.metrics with Some m -> Metrics.set_enabled m false | None -> ());
      Fileset.preload_server world.server standard_fileset;
      let m = mount_in world mount_opts in
      if warmup > 0.0 then
        ignore
          (Nhfsstone.run m standard_fileset
             { Nhfsstone.rate; duration = warmup; children; mix; seed = seed + 1 });
      (match ctx.trace with Some tr -> Trace.set_enabled tr true | None -> ());
      (match ctx.metrics with Some m -> Metrics.set_enabled m true | None -> ());
      install_faults ctx world.sim world.topo [ world.server ];
      ( world,
        Nhfsstone.run m standard_fileset
          { Nhfsstone.rate; duration; children; mix; seed } ))

(* One measured run per (load x transport) point, labelled
   [id/load<L>/<transport>], load-major. *)
let sweep_runs ~id ~topology ~mix ~loads ~duration =
  List.concat_map
    (fun load ->
      List.map
        (fun (name, transport) ->
          ( Printf.sprintf "%s/load%g/%s" id load name,
            fun ctx ->
              one_nhfsstone_run ~ctx ~label:name ~topology
                ~mount_opts:(mount_opts_for ~transport ~topology)
                ~mix ~rate:load ~duration ~seed:42 () ))
        transports)
    loads

(* One cell per sweep run; rows are reassembled from the flat cell
   list, one transport group per load. *)
let transport_sweep ~id ~title ~topology ~mix ?loads ~scale () =
  let loads = match loads with Some l -> l | None -> sweep_loads scale in
  let runs =
    sweep_runs ~id ~topology ~mix ~loads ~duration:(sweep_duration scale)
  in
  {
    sp_id = id;
    sp_title = title;
    sp_header = "load(rpc/s)" :: List.map (fun (n, _) -> n ^ " RTT(ms)") transports;
    sp_cells =
      List.map
        (fun (cell_label, run) ->
          {
            cell_label;
            cell_run =
              (fun ctx -> [ ms (snd (run ctx)).Nhfsstone.mean_op_latency ]);
          })
        runs;
    sp_assemble =
      (fun outs ->
        List.map2
          (fun load per_transport -> rate1 load :: List.concat per_transport)
          loads
          (chunk (List.length transports) outs));
  }

let graph1_spec scale =
  transport_sweep ~id:"graph1" ~title:"Ave RTT vs load, lookup mix, same LAN"
    ~topology:"lan" ~mix:Nhfsstone.lookup_mix ~scale ()

let graph2_spec scale =
  transport_sweep ~id:"graph2" ~title:"Ave RTT vs load, 50/50 read/lookup, same LAN"
    ~topology:"lan" ~mix:Nhfsstone.read_lookup_mix ~scale ()

let graph3_spec scale =
  transport_sweep ~id:"graph3"
    ~title:"Ave RTT vs load, lookup mix, token ring + 2 routers" ~topology:"campus"
    ~mix:Nhfsstone.lookup_mix ~scale ()

let graph4_spec scale =
  transport_sweep ~id:"graph4"
    ~title:"Ave RTT vs load, read/lookup mix, token ring + 2 routers"
    ~topology:"campus" ~mix:Nhfsstone.read_lookup_mix ~scale ()

(* The 56K line saturates near 18 lookup/s; the interesting region is
   the approach to it. *)
let graph5_loads = function
  | Quick -> [ 4.0; 10.0; 18.0 ]
  | Full -> [ 4.0; 8.0; 12.0; 14.0; 16.0; 18.0 ]

let graph5_spec scale =
  transport_sweep ~id:"graph5"
    ~title:"Ave RTT vs load, lookup mix, 56Kbps link + 3 routers" ~topology:"wan"
    ~mix:Nhfsstone.lookup_mix ~loads:(graph5_loads scale) ~scale ()

let graph5_runs scale =
  sweep_runs ~id:"graph5" ~topology:"wan" ~mix:Nhfsstone.lookup_mix
    ~loads:(graph5_loads scale) ~duration:(sweep_duration scale)

let table1_spec scale =
  (* The fixed-RTO pathology on the 56K line builds up over repeated
     backoff cycles, so even Quick scale needs a couple of minutes of
     virtual time per cell. *)
  let duration = match scale with Quick -> 120.0 | Full -> 180.0 in
  let configs =
    (* The 56K row runs enough closed-loop children to saturate the
       line, as offered load did in the paper. *)
    [
      ("same LAN", "lan", 24.0, 4);
      ("token ring", "campus", 20.0, 4);
      ("56Kbps", "wan", 8.0, 8);
    ]
  in
  let cells =
    List.concat_map
      (fun (row_label, topology, rate, children) ->
        List.map
          (fun (name, transport) ->
            {
              cell_label = Printf.sprintf "table1/%s/%s" row_label name;
              cell_run =
                (fun ctx ->
                  let _, r =
                    one_nhfsstone_run ~ctx ~label:name ~topology ~children
                      ~mount_opts:(mount_opts_for ~transport ~topology)
                      ~mix:Nhfsstone.read_lookup_mix ~rate ~duration ~seed:97 ()
                  in
                  [ rate2 r.Nhfsstone.read_rate ]);
            })
          transports)
      configs
  in
  {
    sp_id = "table1";
    sp_title = "Achieved read rate (reads/sec) by transport and interconnect";
    sp_header = "interconnect" :: List.map (fun (n, _) -> n) transports;
    sp_cells = cells;
    sp_assemble =
      (fun outs ->
        List.map2
          (fun (row_label, _, _, _) per_transport ->
            txt row_label :: List.concat per_transport)
          configs
          (chunk (List.length transports) outs));
  }

let graph6_spec scale =
  let loads = sweep_loads scale and duration = sweep_duration scale in
  let cpu_cell name transport load =
    {
      cell_label = Printf.sprintf "graph6/load%g/%s" load name;
      cell_run =
        (fun ctx ->
          let world = make_world ~ctx ~topology:"lan" () in
          let per_rpc =
            drive ~label:(Printf.sprintf "graph6/%s" name) world (fun () ->
                Fileset.preload_server world.server standard_fileset;
                let m = mount_in world (mount_opts_for ~transport ~topology:"lan") in
                let cpu = Node.cpu world.topo.Topology.server in
                let busy0 = Cpu.busy_time cpu
                and served0 = Nfs_server.rpcs_served world.server in
                let _ =
                  Nhfsstone.run m standard_fileset
                    {
                      Nhfsstone.rate = load;
                      duration;
                      children = 4;
                      mix = Nhfsstone.read_lookup_mix;
                      seed = 13;
                    }
                in
                let served = Nfs_server.rpcs_served world.server - served0 in
                if served = 0 then 0.0
                else (Cpu.busy_time cpu -. busy0) /. float_of_int served)
          in
          [ ms per_rpc ]);
    }
  in
  {
    sp_id = "graph6";
    sp_title = "Server CPU overhead per RPC, UDP vs TCP, read mix";
    sp_header = [ "load(rpc/s)"; "udp CPU(ms/rpc)"; "tcp CPU(ms/rpc)" ];
    sp_cells =
      List.concat_map
        (fun load -> [ cpu_cell "udp" `Udp_fixed load; cpu_cell "tcp" `Tcp load ])
        loads;
    sp_assemble =
      (fun outs ->
        List.map2
          (fun load pair -> rate1 load :: List.concat pair)
          loads (chunk 2 outs));
  }

let graph7_spec scale =
  let duration = match scale with Quick -> 60.0 | Full -> 300.0 in
  let cell =
    {
      cell_label = "graph7/trace";
      cell_run =
        (fun ctx ->
          let world = make_world ~ctx ~topology:"campus" () in
          let rtts, rtos =
            drive ~label:"graph7" world (fun () ->
                Fileset.preload_server world.server standard_fileset;
                let m =
                  mount_in world (mount_opts_for ~transport:`Udp_dynamic ~topology:"campus")
                in
                Client_transport.enable_read_trace (Nfs_client.transport m);
                let _ =
                  Nhfsstone.run m standard_fileset
                    {
                      Nhfsstone.rate = 12.0;
                      duration;
                      children = 4;
                      mix = Nhfsstone.read_lookup_mix;
                      seed = 7;
                    }
                in
                let x = Nfs_client.transport m in
                (Client_transport.read_rtt_trace x, Client_transport.read_rto_trace x))
          in
          let keep_every n l = List.filteri (fun i _ -> i mod n = 0) l in
          let stride = max 1 (List.length rtts / 60) in
          List.concat
            (List.map2
               (fun (t, rtt) (_, rto) -> [ sec2 t; ms rtt; ms rto ])
               (keep_every stride rtts) (keep_every stride rtos)));
    }
  in
  {
    sp_id = "graph7";
    sp_title = "Trace of read RPC RTT and dynamic RTO = A+4D";
    sp_header = [ "time(s)"; "rtt(ms)"; "rto(ms)" ];
    sp_cells = [ cell ];
    sp_assemble = (fun outs -> chunk 3 (List.concat outs));
  }

let server_comparison ~id ~title ~mix ~scale =
  let loads = sweep_loads scale and duration = sweep_duration scale in
  let profiles =
    [
      ("reno", Nfs_server.reno_profile);
      ( "reno-nonc",
        {
          Nfs_server.reno_profile with
          Nfs_server.fs_config =
            { Fs.reno_config with Fs.name_cache = false };
        } );
      ("ultrix", Nfs_server.reference_port_profile);
    ]
  in
  let cells =
    List.concat_map
      (fun load ->
        List.map
          (fun (name, profile) ->
            {
              cell_label = Printf.sprintf "%s/load%g/%s" id load name;
              cell_run =
                (fun ctx ->
                  let _, r =
                    one_nhfsstone_run ~ctx ~label:name ~server_profile:profile
                      ~topology:"lan"
                      ~mount_opts:(mount_opts_for ~transport:`Udp_fixed ~topology:"lan")
                      ~mix ~rate:load ~duration ~seed:23 ()
                  in
                  [ ms r.Nhfsstone.mean_op_latency ]);
            })
          profiles)
      loads
  in
  {
    sp_id = id;
    sp_title = title;
    sp_header = "load(rpc/s)" :: List.map (fun (n, _) -> n ^ " RTT(ms)") profiles;
    sp_cells = cells;
    sp_assemble =
      (fun outs ->
        List.map2
          (fun load per_profile -> rate1 load :: List.concat per_profile)
          loads
          (chunk (List.length profiles) outs));
  }

let graph8_spec scale =
  server_comparison ~id:"graph8"
    ~title:"Lookup mix: Reno vs Reno-without-server-name-cache vs reference port"
    ~mix:Nhfsstone.lookup_mix ~scale

let graph9_spec scale =
  server_comparison ~id:"graph9"
    ~title:"Read/lookup mix: Reno vs Reno-without-server-name-cache vs reference port"
    ~mix:Nhfsstone.read_lookup_mix ~scale

(* ------------------------------------------------------------------ *)
(* Modified Andrew Benchmark (Tables 2-4)                             *)
(* ------------------------------------------------------------------ *)

let andrew_config = function
  | Quick ->
      {
        Andrew.default_config with
        Andrew.source_files = 20;
        header_files = 8;
        compile_instructions_per_byte = 400.0;
      }
  | Full -> Andrew.default_config

let run_andrew ~ctx ~label ~scale ~client_opts ~server_profile ~client_mips
    ~client_nic () =
  let params =
    { Topology.default_params with Topology.client_mips; client_nic }
  in
  let world = make_world ~params ~server_profile ~run_label:label ~ctx ~topology:"lan" () in
  drive ~label world (fun () ->
      let m = mount_in world client_opts in
      Andrew.run m ~config:(andrew_config scale) ())

let table2_spec scale =
  let runs =
    [
      ("Reno", Nfs_client.reno_mount, Nfs_server.reno_profile);
      ("Reno-TCP", { Nfs_client.reno_tcp_mount with Nfs_client.mss = 1460 }, Nfs_server.reno_profile);
      ("Reno-nopush", Nfs_client.reno_nopush_mount, Nfs_server.reno_profile);
      ("Reno-v3", Nfs_client.v3_mount, Nfs_server.reno_profile);
      ("Ultrix2.2", Nfs_client.ultrix_mount, Nfs_server.reference_port_profile);
    ]
  in
  {
    sp_id = "table2";
    sp_title = "Modified Andrew Benchmark, MicroVAXII client (seconds)";
    sp_header = [ "OS/Phase"; "I-IV"; "V" ];
    sp_cells =
      List.map
        (fun (name, opts, profile) ->
          {
            cell_label = "table2/" ^ name;
            cell_run =
              (fun ctx ->
                let r =
                  run_andrew ~ctx ~label:name ~scale ~client_opts:opts
                    ~server_profile:profile ~client_mips:0.9
                    ~client_nic:Nic.deqna_tuned ()
                in
                [ sec1 r.Andrew.time_i_iv; sec1 r.Andrew.time_v ]);
          })
        runs;
    sp_assemble =
      (fun outs ->
        List.map2 (fun (name, _, _) out -> txt name :: out) runs outs);
  }

let table3_spec scale =
  let runs =
    [
      ("Reno", Nfs_client.reno_mount, Nfs_server.reno_profile);
      ("Reno-noconsist", Nfs_client.noconsist_mount, Nfs_server.reno_profile);
      ("Reno-v3", Nfs_client.v3_mount, Nfs_server.reno_profile);
      ("Ultrix2.2", Nfs_client.ultrix_mount, Nfs_server.reference_port_profile);
    ]
  in
  let interesting =
    [ "getattr"; "setattr"; "read"; "write"; "write3"; "commit"; "lookup"; "readdir" ]
  in
  (* Each cell reduces its Andrew run to the per-procedure counts the
     table needs; assembly transposes runs into rows. *)
  let cells =
    List.map
      (fun (name, opts, profile) ->
        {
          cell_label = "table3/" ^ name;
          cell_run =
            (fun ctx ->
              let r =
                run_andrew ~ctx ~label:name ~scale ~client_opts:opts
                  ~server_profile:profile ~client_mips:0.9
                  ~client_nic:Nic.deqna_tuned ()
              in
              let c proc =
                try List.assoc proc r.Andrew.rpc_counts with Not_found -> 0
              in
              let other =
                List.fold_left
                  (fun acc (n, k) -> if List.mem n interesting then acc else acc + k)
                  0 r.Andrew.rpc_counts
              in
              List.map (fun proc -> count (c proc)) interesting
              @ [ count other; count r.Andrew.total_rpcs ]);
        })
      runs
  in
  let row_labels =
    List.map String.capitalize_ascii interesting @ [ "Other"; "Total" ]
  in
  {
    sp_id = "table3";
    sp_title = "Modified Andrew Benchmark RPC counts, MicroVAXII client";
    sp_header = "RPC" :: List.map (fun (n, _, _) -> n) runs;
    sp_cells = cells;
    sp_assemble =
      (fun outs ->
        List.mapi
          (fun i label -> txt label :: List.map (fun col -> List.nth col i) outs)
          row_labels);
  }

let table4_spec scale =
  let runs =
    [
      ("Reno", Nfs_client.reno_mount, Nfs_server.reno_profile);
      ("Reno-v3", Nfs_client.v3_mount, Nfs_server.reno_profile);
      ("Ultrix2.2", Nfs_client.ultrix_mount, Nfs_server.reference_port_profile);
    ]
  in
  {
    sp_id = "table4";
    sp_title = "Modified Andrew Benchmark, DS3100 client (seconds)";
    sp_header = [ "OS/Phase"; "I-IV"; "V" ];
    sp_cells =
      List.map
        (fun (name, opts, profile) ->
          {
            cell_label = "table4/" ^ name;
            cell_run =
              (fun ctx ->
                let r =
                  run_andrew ~ctx ~label:name ~scale ~client_opts:opts
                    ~server_profile:profile ~client_mips:14.0
                    ~client_nic:Nic.fast_station ()
                in
                [ sec1 r.Andrew.time_i_iv; sec1 r.Andrew.time_v ]);
          })
        runs;
    sp_assemble =
      (fun outs ->
        List.map2 (fun (name, _, _) out -> txt name :: out) runs outs);
  }

(* ------------------------------------------------------------------ *)
(* Create-Delete (Table 5)                                            *)
(* ------------------------------------------------------------------ *)

let table5_spec scale =
  let iterations = match scale with Quick -> 5 | Full -> 20 in
  let sizes = [ ("No data", 0); ("10Kbytes", 10240); ("100Kbytes", 102400) ] in
  let local_cell bytes =
    (* Purely local: no network, nothing to trace. *)
    let sim = Sim.create () in
    let cpu = Cpu.create sim ~mips:0.9 in
    let disk = Disk.create sim () in
    let fs = Fs.create sim cpu disk Fs.local_config in
    let result = ref None in
    Proc.spawn sim (fun () ->
        result :=
          Some
            (Create_delete.run_local sim cpu fs
               { Create_delete.data_bytes = bytes; iterations }));
    Sim.run sim;
    Option.get !result
  in
  let nfs_cell ctx label opts bytes =
    let world = make_world ~run_label:label ~ctx ~topology:"lan" () in
    drive ~label world (fun () ->
        let m = mount_in world opts in
        Create_delete.run_nfs m { Create_delete.data_bytes = bytes; iterations })
  in
  let configs =
    [
      ("Local", `Local);
      ("write thru", `Nfs { Nfs_client.reno_mount with Nfs_client.write_policy = Nfs_client.Write_through });
      ("async,4biod", `Nfs { Nfs_client.reno_mount with Nfs_client.write_policy = Nfs_client.Async; num_biods = 4 });
      ("async,16biod", `Nfs { Nfs_client.reno_mount with Nfs_client.write_policy = Nfs_client.Async; num_biods = 16 });
      ("delay wrt.", `Nfs Nfs_client.reno_mount);
      ("no consist", `Nfs Nfs_client.noconsist_mount);
      ("v3 commit", `Nfs Nfs_client.v3_mount);
    ]
  in
  let cells =
    List.concat_map
      (fun (row_label, kind) ->
        List.map
          (fun (size_label, bytes) ->
            let label = Printf.sprintf "table5/%s/%s" row_label size_label in
            {
              cell_label = label;
              cell_run =
                (fun ctx ->
                  [
                    msr
                      (match kind with
                      | `Local -> local_cell bytes
                      | `Nfs opts -> nfs_cell ctx label opts bytes);
                  ]);
            })
          sizes)
      configs
  in
  {
    sp_id = "table5";
    sp_title = "Create-Delete benchmark (msec per iteration), MicroVAXII";
    sp_header = "Config" :: List.map fst sizes;
    sp_cells = cells;
    sp_assemble =
      (fun outs ->
        List.map2
          (fun (row_label, _) per_size -> txt row_label :: List.concat per_size)
          configs
          (chunk (List.length sizes) outs));
  }

(* ------------------------------------------------------------------ *)
(* Section 3: NIC tuning                                              *)
(* ------------------------------------------------------------------ *)

let section3_spec scale =
  let duration = sweep_duration scale *. 2.0 in
  let nic_cell name nic =
    {
      cell_label = "section3/" ^ name;
      cell_run =
        (fun ctx ->
          let params = { Topology.default_params with Topology.server_nic = nic } in
          let world = make_world ~params ~run_label:name ~ctx ~topology:"lan" () in
          let cpu_per_rpc, copied_per_rpc =
            drive ~label:("section3/" ^ name) world (fun () ->
                Fileset.preload_server world.server standard_fileset;
                let m = mount_in world (mount_opts_for ~transport:`Udp_fixed ~topology:"lan") in
                let cpu = Node.cpu world.topo.Topology.server in
                let ctr = Node.copy_counters world.topo.Topology.server in
                let busy0 = Cpu.busy_time cpu
                and served0 = Nfs_server.rpcs_served world.server
                and copied0 = ctr.Renofs_mbuf.Mbuf.Counters.bytes_copied in
                let _ =
                  Nhfsstone.run m standard_fileset
                    {
                      Nhfsstone.rate = 20.0;
                      duration;
                      children = 4;
                      mix = Nhfsstone.read_lookup_mix;
                      seed = 5;
                    }
                in
                let served = Nfs_server.rpcs_served world.server - served0 in
                let busy = Cpu.busy_time cpu -. busy0 in
                let copied = ctr.Renofs_mbuf.Mbuf.Counters.bytes_copied - copied0 in
                ( (if served = 0 then 0.0 else busy /. float_of_int served),
                  if served = 0 then 0 else copied / served ))
          in
          [ ms cpu_per_rpc; byte_count copied_per_rpc ]);
    }
  in
  {
    sp_id = "section3";
    sp_title = "Server CPU with stock vs tuned network interface handling";
    sp_header = [ "driver"; "CPU(ms/rpc)"; "bytes copied/rpc" ];
    sp_cells = [ nic_cell "stock" Nic.deqna_stock; nic_cell "tuned" Nic.deqna_tuned ];
    sp_assemble =
      (fun outs ->
        match outs with
        | [ ([ stock_cpu; _ ] as stock); ([ tuned_cpu; _ ] as tuned) ] ->
            let sc = float_of_value stock_cpu and tc = float_of_value tuned_cpu in
            let reduction = if sc > 0.0 then (sc -. tc) /. sc *. 100.0 else 0.0 in
            [
              txt "stock (copy + tx intr)" :: stock;
              txt "tuned (map, no tx intr)" :: tuned;
              [ txt "reduction"; pct_raw reduction; txt "-" ];
            ]
        | _ -> invalid_arg "section3: unexpected cell shape");
  }

(* ------------------------------------------------------------------ *)
(* Extension ablation: the lease consistency protocol                 *)
(* ------------------------------------------------------------------ *)

let leases_spec scale =
  (* The paper's conclusion — "a cache consistency protocol would reduce
     the number of write RPCs by at least half" — checked against the
     NQNFS-style lease extension: MAB RPC economy plus Create-Delete
     latency, with noconsist as the unsafe optimistic bound. *)
  let cfg = andrew_config scale in
  let iterations = match scale with Quick -> 5 | Full -> 15 in
  let runs =
    [
      ("Reno (push-on-close)", Nfs_client.reno_mount);
      ("Leases (consistent)", Nfs_client.lease_mount);
      ("noconsist (unsafe bound)", Nfs_client.noconsist_mount);
    ]
  in
  let cells =
    List.map
      (fun (name, opts) ->
        {
          cell_label = "leases/" ^ name;
          cell_run =
            (fun ctx ->
              let world = make_world ~run_label:name ~ctx ~topology:"lan" () in
              let mab =
                drive ~label:name world (fun () ->
                    let m = mount_in world opts in
                    Andrew.run m ~config:cfg ())
              in
              let cd =
                let world = make_world ~run_label:name ~ctx ~topology:"lan" () in
                drive ~label:name world (fun () ->
                    let m = mount_in world opts in
                    Create_delete.run_nfs m
                      { Create_delete.data_bytes = 102400; iterations })
              in
              let c n = try List.assoc n mab.Andrew.rpc_counts with Not_found -> 0 in
              [
                count (c "write");
                count (c "read");
                count (c "getattr" + c "getlease");
                msr cd;
              ]);
        })
      runs
  in
  {
    sp_id = "leases";
    sp_title = "Lease consistency ablation: MAB RPCs and Create-Delete 100K";
    sp_header = [ "client"; "MAB writes"; "MAB reads"; "MAB getattr+lease"; "CD-100K (ms)" ];
    sp_cells = cells;
    sp_assemble =
      (fun outs -> List.map2 (fun (name, _) out -> txt name :: out) runs outs);
  }

(* ------------------------------------------------------------------ *)
(* Extension: server characterization under many clients [Keith90]    *)
(* ------------------------------------------------------------------ *)

let scaling_spec scale =
  let duration = match scale with Quick -> 25.0 | Full -> 120.0 in
  let per_client_rate = 12.0 in
  let counts = match scale with Quick -> [ 1; 2; 4 ] | Full -> [ 1; 2; 4; 6; 8 ] in
  let client_cell n =
    let label = Printf.sprintf "scaling-%d" n in
    {
      cell_label = label;
      cell_run =
        (fun ctx ->
          let world =
            make_world ~clients:n ~defer_faults:true ~run_label:label ~ctx
              ~topology:"star" ()
          in
          let sim = world.sim in
          let finished = ref 0 in
          let achieved = ref 0.0 and latency = ref 0.0 in
          let ready = Proc.Ivar.create sim in
          let iostat = ref None in
          Proc.spawn sim (fun () ->
              Fileset.preload_server world.server standard_fileset;
              (* Measure server CPU only over the loaded phase, which
                 is also when a fault schedule starts. *)
              iostat :=
                Some
                  (Renofs_engine.Iostat.start sim
                     (Node.cpu world.topo.Topology.server)
                     ());
              install_faults ctx sim world.topo [ world.server ];
              Proc.Ivar.fill ready ());
          List.iteri
            (fun i _ ->
              Proc.spawn sim (fun () ->
                  Proc.Ivar.read ready;
                  let m = mount_in ~client:i world Nfs_client.reno_mount in
                  let r =
                    Nhfsstone.run m standard_fileset
                      {
                        Nhfsstone.rate = per_client_rate;
                        duration;
                        children = 3;
                        mix = Nhfsstone.read_lookup_mix;
                        seed = 31 + i;
                      }
                  in
                  achieved := !achieved +. r.Nhfsstone.achieved;
                  latency := !latency +. r.Nhfsstone.mean_op_latency;
                  incr finished))
            world.clients;
          run_until ~label ~window:50.0 sim (fun () -> !finished = n);
          let util =
            match !iostat with
            | Some io ->
                Renofs_engine.Iostat.stop io;
                Renofs_engine.Iostat.mean_utilization io
            | None -> 0.0
          in
          [
            rate1 (float_of_int n *. per_client_rate);
            rate1 !achieved;
            ms (!latency /. float_of_int n);
            pct0 util;
          ]);
    }
  in
  {
    sp_id = "scaling";
    sp_title = "Server characterization: aggregate throughput vs client count";
    sp_header = [ "clients"; "offered (op/s)"; "achieved (op/s)"; "mean latency (ms)"; "server CPU" ];
    sp_cells = List.map client_cell counts;
    sp_assemble =
      (fun outs -> List.map2 (fun n out -> count n :: out) counts outs);
  }

(* ------------------------------------------------------------------ *)
(* Fleet: sharded multi-server scaling                                *)
(* ------------------------------------------------------------------ *)

(* Tiny per-shard subtree: a fleet world preloads one per mount point,
   so at 100 clients the world still holds 400 files. *)
let fleet_fileset =
  Fileset.generate ~dirs:2 ~files_per_dir:2 ~file_size:8192 ~long_names:false

(* A single backbone router carries small fleets; 8 servers and up get
   a 2x4 fat tree so the fabric is not the first thing to saturate. *)
let fleet_tier n_servers =
  if n_servers >= 8 then Topology.Fat_tree { spines = 2; leaves = 4 }
  else Topology.Backbone 1

let ratio2 v = Float (v, Count, 2)

let fleet_cell ~clients:n ~servers:n_srv ~duration ~per_client_rate =
  let label = Printf.sprintf "fleet-%dc-%ds" n n_srv in
  {
    cell_label = label;
    cell_run =
      (fun ctx ->
        let sim = Sim.create () in
        (* 5ms buckets to 10s: congestion collapse on the 1-server cell
           pushes p95 into whole seconds of RTO backoff. *)
        let hist = Stats.Hist.create ~bucket_width:5.0 ~buckets:2000 in
        let finished = ref 0 in
        let achieved = ref 0.0 in
        let _, fleet, _ =
          make_fleet_world ~ctx ~label ~fileset:fleet_fileset sim
            ~graph:
              {
                Topology.g_servers = n_srv;
                g_clients = n;
                g_tier = fleet_tier n_srv;
                g_wan_fraction = 0.0;
                g_params = Topology.default_params;
              }
            ~client:(fun i m ->
              Option.iter
                (fun m ->
                  let r =
                    Nhfsstone.run ~latency_hist:hist m fleet_fileset
                      {
                        Nhfsstone.rate = per_client_rate;
                        duration;
                        children = 1;
                        mix = Nhfsstone.read_lookup_mix;
                        seed = 31 + i;
                      }
                  in
                  achieved := !achieved +. r.Nhfsstone.achieved)
                m;
              incr finished)
        in
        run_until ~label ~window:50.0 sim (fun () -> !finished = n);
        let p95 =
          if Stats.Hist.count hist = 0 then 0.0
          else
            (* Clip at the histogram ceiling so a collapsed cell reports
               the 10s cap, not an unprintable infinity. *)
            Float.min (Stats.Hist.quantile hist 0.95) 10_000.0
        in
        [
          rate1 (float_of_int n *. per_client_rate);
          rate1 !achieved;
          msr p95;
          ratio2 (Fleet.balance fleet);
        ]);
  }

let fleet_matrix scale =
  let client_counts =
    match scale with Quick -> [ 100 ] | Full -> [ 100; 1_000; 10_000 ]
  in
  List.concat_map
    (fun c -> List.map (fun s -> (c, s)) [ 1; 4; 16 ])
    client_counts

let fleet_spec scale =
  let duration = match scale with Quick -> 6.0 | Full -> 30.0 in
  let per_client_rate = 6.0 in
  let matrix = fleet_matrix scale in
  {
    sp_id = "fleet";
    sp_title = "Sharded fleet: aggregate throughput vs server count";
    sp_header =
      [
        "clients";
        "servers";
        "offered (op/s)";
        "achieved (op/s)";
        "p95 latency (ms)";
        "balance (max/mean)";
      ];
    sp_cells =
      List.map
        (fun (c, s) -> fleet_cell ~clients:c ~servers:s ~duration ~per_client_rate)
        matrix;
    sp_assemble =
      (fun outs ->
        List.map2 (fun (c, s) out -> count c :: count s :: out) matrix outs);
  }

(* ------------------------------------------------------------------ *)
(* Chaos: fault schedules under load, with invariant verdicts         *)
(* ------------------------------------------------------------------ *)

(* Content is a function of (file, offset, round) so overwrites change
   the bytes and the durability check compares real data, not zeros. *)
let chaos_payload ~file ~off ~round ~len =
  Bytes.init len (fun i -> Char.chr ((file * 131 + off * 7 + round * 13 + i) land 0xff))

(* Steady write/read mix over four files ["<prefix>0"] .. ["<prefix>3"].
   Nothing is ever unlinked, so every acknowledged write must still be
   readable from the server afterwards — the workload half of the
   durability invariant.  Returns the ledger of extents the client
   believes it wrote, the expected side of the end-to-end
   data-integrity check, which server-side digests cannot provide. *)
let ledger_drive ~prefix world m ~duration =
  let sim = world.sim in
  let t0 = Sim.now sim in
  let fds =
    Array.init 4 (fun i -> Nfs_client.create m (Printf.sprintf "%s%d" prefix i))
  in
  let block = 1024 in
  let ledger : (int * int, bytes) Hashtbl.t = Hashtbl.create 64 in
  let round = ref 0 in
  while Sim.now sim -. t0 < duration do
    let k = !round mod Array.length fds in
    let off = (!round / Array.length fds) mod 8 * block in
    let data = chaos_payload ~file:k ~off ~round:!round ~len:block in
    Nfs_client.write m fds.(k) ~off data;
    Hashtbl.replace ledger (k, off) data;
    if !round mod 3 = 0 then ignore (Nfs_client.read m fds.(k) ~off ~len:block);
    if !round mod 5 = 4 then Nfs_client.fsync m fds.(k);
    Proc.sleep sim 0.25;
    incr round
  done;
  Nfs_client.flush_all m;
  Array.iter (fun fd -> Nfs_client.close m fd) fds;
  Hashtbl.fold (fun (file, off) data acc -> (file, off, data) :: acc) ledger []
  |> List.sort compare

(* One chaos or fuzz run: a LAN world under [schedule] running the
   ledger workload on one mount.  [report] gets the world, the mount,
   the trace records (the invariant checker needs them even when the
   caller asked for no trace), a [read_back] keyed by server inode as
   {!Fault.Check.check_all} wants, the ledger and the elapsed time. *)
let robustness_run ?udp_checksum ~ctx ~label ~schedule ~params ~opts ~prefix
    ~duration report =
  let sink, ctx = checked_trace ~capacity:65536 ctx in
  let ctx = { ctx with faults = Some schedule } in
  let world =
    make_world ~params ?udp_checksum ~run_label:label ~ctx ~topology:"lan" ()
  in
  let start = Sim.now world.sim in
  drive ~label world (fun () ->
      let m = mount_in world opts in
      let expected = ledger_drive ~prefix world m ~duration in
      let elapsed = Sim.now world.sim -. start in
      let fs = Nfs_server.fs world.server in
      let read_back ~file ~off ~len =
        try Some (Fs.read fs (Fs.vnode_by_ino fs file) ~off ~len)
        with _ -> None
      in
      report world m ~records:(Trace.to_list sink) ~read_back ~expected
        ~elapsed)

let chaos_cell ?(seed = 0) ~schedule ~tname ~opts ~duration () =
  let label = Printf.sprintf "chaos/%s/%s" schedule.Fault.name tname in
  {
    cell_label = label;
    cell_run =
      (fun ctx ->
        (* seed 0 = the historical default world, bit-for-bit. *)
        let params =
          if seed = 0 then Topology.default_params
          else { Topology.default_params with Topology.seed = seed }
        in
        robustness_run ~ctx ~label ~schedule ~params ~opts ~prefix:"chaos"
          ~duration (fun _ m ~records ~read_back ~expected:_ ~elapsed ->
            let retrans = Client_transport.retransmits (Nfs_client.transport m) in
            let recovery = Fault.Check.recovery_time records in
            [
              txt schedule.Fault.name;
              txt tname;
              sec2 elapsed;
              count retrans;
              ms recovery;
              txt (Fault.Check.summary (Fault.Check.check_all ~read_back records));
            ]));
  }

let chaos_spec ?seed scale =
  let duration = match scale with Quick -> 10.0 | Full -> 14.0 in
  let schedules =
    match scale with
    | Quick -> List.filter_map Fault.find_builtin [ "crash"; "flaky"; "partition" ]
    | Full -> Fault.builtins
  in
  {
    sp_id = "chaos";
    sp_title = "Fault schedules under load: recovery cost and invariant verdicts";
    sp_header =
      [ "schedule"; "transport"; "elapsed(s)"; "retrans"; "recovery(ms)"; "invariants" ];
    sp_cells =
      List.concat_map
        (fun schedule ->
          List.map
            (fun (tname, opts) ->
              chaos_cell ?seed ~schedule ~tname ~opts ~duration ())
            (robustness_mounts ~topology:"lan"))
        schedules;
    sp_assemble = (fun outs -> outs);
  }

(* ------------------------------------------------------------------ *)
(* Fuzz: seeded wire-mangling sweeps                                   *)
(* ------------------------------------------------------------------ *)

(* Each profile maps a seed to a schedule of wire-mangling actions over
   every link.  Rates are high enough that a few sim-seconds of traffic
   sees dozens of damaged packets, low enough that hard-mount
   retransmission always gets a clean copy through eventually. *)
let fuzz_profile_actions =
  let m ~rate seed = { Fault.at = 1.0; duration = 4.0; link = "*"; rate; seed } in
  [
    ("corrupt", fun seed -> [ Fault.Corrupt (m ~rate:0.08 seed) ]);
    ("truncate", fun seed -> [ Fault.Truncate (m ~rate:0.08 seed) ]);
    ("duplicate", fun seed -> [ Fault.Duplicate (m ~rate:0.15 seed) ]);
    ("reorder", fun seed -> [ Fault.Reorder (m ~rate:0.15 seed) ]);
    ( "storm",
      fun seed ->
        [
          Fault.Corrupt (m ~rate:0.04 seed);
          Fault.Truncate (m ~rate:0.04 (seed + 1));
          Fault.Duplicate (m ~rate:0.08 (seed + 2));
          Fault.Reorder (m ~rate:0.08 (seed + 3));
        ] );
  ]

let fuzz_profiles = List.map fst fuzz_profile_actions

let fuzz_cell ~seed ~profile ~mk_actions ~tname ~opts ~checksum ~duration =
  let label = Printf.sprintf "fuzz/%d/%s/%s" seed profile tname in
  let row verdict ~retrans ~garbled ~ckdrops =
    [
      count seed;
      txt profile;
      txt tname;
      count retrans;
      count garbled;
      count ckdrops;
      txt verdict;
    ]
  in
  {
    cell_label = label;
    cell_run =
      (fun ctx ->
        let schedule =
          {
            Fault.name = "fuzz-" ^ profile;
            description = "seeded wire mangling";
            actions = mk_actions seed;
          }
        in
        let params = { Topology.default_params with Topology.seed = seed + 1 } in
        match
          robustness_run ~udp_checksum:checksum ~ctx ~label ~schedule ~params
            ~opts ~prefix:"fuzz" ~duration
            (fun world m ~records ~read_back ~expected ~elapsed:_ ->
              (* [check_all] keys files by server inode (from the trace);
                 the client ledger keys them by workload index, resolved
                 through the server namespace at check time. *)
              let fs = Nfs_server.fs world.server in
              let read_back_idx ~file ~off ~len =
                try
                  let vn =
                    Fs.lookup fs (Fs.root fs) (Printf.sprintf "fuzz%d" file)
                  in
                  Some (Fs.read fs vn ~off ~len)
                with _ -> None
              in
              let verdicts =
                Fault.Check.check_all ~read_back records
                @ [
                    Fault.Check.data_integrity ~expected
                      ~read_back:read_back_idx;
                  ]
              in
              let tr = Nfs_client.transport m in
              let cudp, ctcp = List.hd world.clients in
              let ckdrops =
                Udp.checksum_drops cudp
                + Udp.checksum_drops (Nfs_server.udp_stack world.server)
                + Tcp.checksum_drops ctcp
                + (match Nfs_server.tcp_stack world.server with
                  | Some s -> Tcp.checksum_drops s
                  | None -> 0)
              in
              row
                (Fault.Check.summary verdicts)
                ~retrans:(Client_transport.retransmits tr)
                ~garbled:(Client_transport.garbled tr)
                ~ckdrops)
        with
        | r -> r
        | exception Driver_stuck _ ->
            row "FAIL:stuck" ~retrans:0 ~garbled:0 ~ckdrops:0
        | exception e ->
            row
              ("FAIL:exn:" ^ Printexc.to_string e)
              ~retrans:0 ~garbled:0 ~ckdrops:0);
  }

(* Seed [base_seed + i] drives cell [i]; profile and mount cycle so any
   [seeds >= 20] covers the full profile x (transport + v3) matrix.
   Kept out of the [specs] registry: fuzzing is a robustness gate, not
   a paper artifact. *)
let fuzz_spec ?(seeds = 20) ?(base_seed = 0) ?(checksum = true) scale =
  let duration = match scale with Quick -> 6.0 | Full -> 10.0 in
  let nprofiles = List.length fuzz_profile_actions in
  let mounts = robustness_mounts ~topology:"lan" in
  {
    sp_id = "fuzz";
    sp_title =
      Printf.sprintf
        "Seeded wire-corruption fuzzing (base seed %d, checksums %s)" base_seed
        (if checksum then "on" else "off");
    sp_header =
      [ "seed"; "profile"; "transport"; "retrans"; "garbled"; "ckdrops"; "invariants" ];
    sp_cells =
      List.init seeds (fun i ->
          let profile, mk_actions =
            List.nth fuzz_profile_actions (i mod nprofiles)
          in
          let tname, opts =
            List.nth mounts (i / nprofiles mod List.length mounts)
          in
          fuzz_cell ~seed:(base_seed + i) ~profile ~mk_actions ~tname ~opts
            ~checksum ~duration);
    sp_assemble = (fun outs -> outs);
  }

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

let specs =
  [
    ("graph1", graph1_spec);
    ("graph2", graph2_spec);
    ("graph3", graph3_spec);
    ("graph4", graph4_spec);
    ("graph5", graph5_spec);
    ("graph6", graph6_spec);
    ("graph7", graph7_spec);
    ("graph8", graph8_spec);
    ("graph9", graph9_spec);
    ("table1", table1_spec);
    ("table2", table2_spec);
    ("table3", table3_spec);
    ("table4", table4_spec);
    ("table5", table5_spec);
    ("section3", section3_spec);
    ("leases", leases_spec);
    ("scaling", scaling_spec);
    ("fleet", fleet_spec);
    ("chaos", fun scale -> chaos_spec scale);
  ]

let spec ?(scale = Quick) id =
  (* "fleet-quick" pins the fleet family to Quick regardless of the
     requested scale: the make-check smoke stage and quick regression
     baselines address it by that name. *)
  if id = "fleet-quick" then Some (fleet_spec Quick)
  else Option.map (fun mk -> mk scale) (List.assoc_opt id specs)

