(* Day-in-the-life scenarios: declarative world + load + faults + SLO,
   compiled onto the deterministic experiment runner. *)

module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Node = Renofs_net.Node
module Topology = Renofs_net.Topology
module Fs = Renofs_vfs.Fs
module Nfs_server = Renofs_core.Nfs_server
module Trace = Renofs_trace.Trace
module Json = Renofs_json.Json
module Fault = Renofs_fault.Fault
module Fleet = Renofs_fleet.Fleet
module E = Renofs_workload.Experiments
module R = Renofs_workload.Run_spec
module Nhfsstone = Renofs_workload.Nhfsstone
module Fileset = Renofs_workload.Fileset

type world = {
  w_servers : int;
  w_clients : int;
  w_tier : Topology.tier;
  w_wan_fraction : float;
  w_seed : int;
}

let default_world =
  {
    w_servers = 2;
    w_clients = 6;
    w_tier = Topology.Backbone 1;
    w_wan_fraction = 0.0;
    w_seed = 0;
  }

type slo = {
  slo_p99_ms : (string * float) list;
  slo_availability : float;
  slo_window : float;
  slo_max_recovery_s : float option;
  slo_integrity : bool;
}

let default_slo =
  {
    slo_p99_ms = [];
    slo_availability = 0.0;
    slo_window = 1.0;
    slo_max_recovery_s = None;
    slo_integrity = true;
  }

type t = {
  sc_name : string;
  sc_description : string;
  sc_world : world;
  sc_load : Nhfsstone.segment list;
  sc_faults : Fault.action list;
  sc_slo : slo;
  sc_run : R.t;
}

(* ------------------------------------------------------------------ *)
(* SLO evaluation                                                      *)
(* ------------------------------------------------------------------ *)

module Slo = struct
  type breach = { b_slo : string; b_detail : string }

  type outcome = {
    o_p99_ms : float;
    o_availability : float;
    o_recovery : float;
    o_breaches : breach list;
  }

  let p99 samples =
    let samples = List.filter (fun v -> not (Float.is_nan v)) samples in
    match List.sort Float.compare samples with
    | [] -> 0.0
    | sorted ->
        let n = List.length sorted in
        let rank = int_of_float (Float.ceil (0.99 *. float_of_int n)) - 1 in
        List.nth sorted (max 0 (min (n - 1) rank))

  let availability ~window records =
    let relevant =
      List.filter_map
        (fun r ->
          match r.Trace.ev with
          | Trace.Rpc_send _ | Trace.Rpc_retransmit _ ->
              Some (r.Trace.time, `Send)
          | Trace.Rpc_reply _ -> Some (r.Trace.time, `Reply)
          | _ -> None)
        records
    in
    match relevant with
    | [] -> 1.0
    | (first, _) :: _ ->
        let t0 =
          List.fold_left (fun acc (t, _) -> Float.min acc t) first relevant
        in
        let sends = Hashtbl.create 64 and replies = Hashtbl.create 64 in
        List.iter
          (fun (t, kind) ->
            let w = int_of_float ((t -. t0) /. window) in
            match kind with
            | `Send -> Hashtbl.replace sends w ()
            | `Reply -> Hashtbl.replace replies w ())
          relevant;
        let judged = Hashtbl.length sends in
        if judged = 0 then 1.0
        else
          let available =
            Hashtbl.fold
              (fun w () acc -> if Hashtbl.mem replies w then acc + 1 else acc)
              sends 0
          in
          float_of_int available /. float_of_int judged

  let class_name cls = if cls = "*" then "all" else cls

  let evaluate slo ~server_nodes ~read_back records =
    let breaches = ref [] in
    let breach b_slo b_detail =
      (* One breach per SLO name: a two-server durability failure is
         one violated SLO, not two rows of noise. *)
      if not (List.exists (fun b -> b.b_slo = b_slo) !breaches) then
        breaches := { b_slo; b_detail } :: !breaches
    in
    let spans = Trace.Report.spans records in
    let totals_ms cls =
      List.filter_map
        (fun sp ->
          if cls = "*" || Trace.proc_name sp.Trace.Report.sp_proc = cls then
            Some (sp.Trace.Report.sp_total *. 1000.0)
          else None)
        spans
    in
    let overall = p99 (totals_ms "*") in
    List.iter
      (fun (cls, ceiling) ->
        match totals_ms cls with
        | [] -> ()
        | samples ->
            let q = p99 samples in
            if q > ceiling then
              breach
                ("p99-" ^ class_name cls)
                (Printf.sprintf "p99 %.1f ms > ceiling %.1f ms over %d calls" q
                   ceiling (List.length samples)))
      slo.slo_p99_ms;
    let avail = availability ~window:slo.slo_window records in
    if avail < slo.slo_availability then
      breach "availability"
        (Printf.sprintf "%.1f%% of %.1fs windows available < floor %.1f%%"
           (avail *. 100.0) slo.slo_window (slo.slo_availability *. 100.0));
    let at_node node = List.filter (fun r -> r.Trace.node = node) records in
    let recovery =
      List.fold_left
        (fun acc node -> Float.max acc (Fault.Check.recovery_time (at_node node)))
        0.0 server_nodes
    in
    (match slo.slo_max_recovery_s with
    | Some ceiling when recovery > ceiling ->
        breach "recovery"
          (Printf.sprintf "worst crash-to-service gap %.2f s > ceiling %.2f s"
             recovery ceiling)
    | _ -> ());
    if slo.slo_integrity then begin
      let check v =
        if not v.Fault.Check.v_ok then
          breach ("integrity:" ^ v.Fault.Check.v_name) v.Fault.Check.v_detail
      in
      List.iter
        (fun node ->
          let recs = at_node node in
          check (Fault.Check.durable_writes ~read_back:(read_back ~node) recs);
          check (Fault.Check.no_double_effect recs))
        server_nodes;
      check (Fault.Check.hard_mount_errors records);
      check (Fault.Check.no_stale_lease_reads records)
    end;
    {
      o_p99_ms = overall;
      o_availability = avail;
      o_recovery = recovery;
      o_breaches = List.rev !breaches;
    }
end

(* ------------------------------------------------------------------ *)
(* JSON decoding                                                       *)
(* ------------------------------------------------------------------ *)

let bad fmt = Printf.ksprintf (fun msg -> raise (Json.Bad msg)) fmt

let reject_unknown ~ctx known fields =
  List.iter
    (fun (k, _) ->
      if not (List.mem k known) then bad "%s: unknown field %S" ctx k)
    fields

let num_field ~ctx fields name default =
  match Json.member_opt name fields with
  | None -> default
  | Some j -> Json.num ~ctx:(ctx ^ "." ^ name) j

let int_field ~ctx fields name default =
  int_of_float (num_field ~ctx fields name (float_of_int default))

let tier_of_string ~ctx s =
  let fail () = bad "%s: bad tier %S (want \"backbone:N\" or \"fat-tree:SxL\")" ctx s in
  match String.split_on_char ':' s with
  | [ "backbone"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Topology.Backbone n
      | _ -> fail ())
  | [ "fat-tree"; sl ] -> (
      match String.split_on_char 'x' sl with
      | [ sp; lv ] -> (
          match (int_of_string_opt sp, int_of_string_opt lv) with
          | Some spines, Some leaves when spines >= 1 && leaves >= 1 ->
              Topology.Fat_tree { spines; leaves }
          | _ -> fail ())
      | _ -> fail ())
  | _ -> fail ()

let world_of_json ~ctx j =
  let fields = Json.obj ~ctx j in
  reject_unknown ~ctx [ "servers"; "clients"; "tier"; "wan_fraction"; "seed" ]
    fields;
  let w =
    {
      w_servers = int_field ~ctx fields "servers" default_world.w_servers;
      w_clients = int_field ~ctx fields "clients" default_world.w_clients;
      w_tier =
        (match Json.member_opt "tier" fields with
        | None -> default_world.w_tier
        | Some j ->
            let c = ctx ^ ".tier" in
            tier_of_string ~ctx:c (Json.str ~ctx:c j));
      w_wan_fraction = num_field ~ctx fields "wan_fraction" 0.0;
      w_seed = int_field ~ctx fields "seed" 0;
    }
  in
  if w.w_servers < 1 || w.w_servers > 90 then
    bad "%s.servers: want 1..90 (got %d)" ctx w.w_servers;
  if w.w_clients < 1 then bad "%s.clients: want at least 1" ctx;
  if w.w_wan_fraction < 0.0 || w.w_wan_fraction > 1.0 then
    bad "%s.wan_fraction: want within [0,1]" ctx;
  w

let segment_of_json ~ctx i j =
  let ctx = Printf.sprintf "%s[%d]" ctx i in
  let fields = Json.obj ~ctx j in
  reject_unknown ~ctx [ "label"; "duration"; "rate"; "rate_end"; "mix" ] fields;
  let duration = num_field ~ctx fields "duration" nan in
  if Float.is_nan duration then bad "%s: missing field duration" ctx;
  if duration <= 0.0 then bad "%s.duration: want > 0" ctx;
  let rate = num_field ~ctx fields "rate" nan in
  if Float.is_nan rate then bad "%s: missing field rate" ctx;
  if rate < 0.0 then bad "%s.rate: want >= 0" ctx;
  let mix_name =
    match Json.member_opt "mix" fields with
    | None -> "default"
    | Some j -> Json.str ~ctx:(ctx ^ ".mix") j
  in
  let mix =
    match Nhfsstone.mix_of_name mix_name with
    | Some m -> m
    | None ->
        bad "%s.mix: unknown mix %S (one of %s)" ctx mix_name
          (String.concat ", " Nhfsstone.mix_names)
  in
  {
    Nhfsstone.sg_label =
      (match Json.member_opt "label" fields with
      | None -> Printf.sprintf "seg%d" i
      | Some j -> Json.str ~ctx:(ctx ^ ".label") j);
    sg_duration = duration;
    sg_rate = rate;
    sg_rate_end =
      (match Json.member_opt "rate_end" fields with
      | None -> None
      | Some j -> Some (Json.num ~ctx:(ctx ^ ".rate_end") j));
    sg_mix = mix;
  }

let slo_of_json ~ctx j =
  let fields = Json.obj ~ctx j in
  reject_unknown ~ctx
    [ "p99_ms"; "availability"; "window"; "max_recovery_s"; "integrity" ]
    fields;
  let s =
    {
      slo_p99_ms =
        (match Json.member_opt "p99_ms" fields with
        | None -> []
        | Some j ->
            let c = ctx ^ ".p99_ms" in
            List.map
              (fun (cls, v) -> (cls, Json.num ~ctx:(c ^ "." ^ cls) v))
              (Json.obj ~ctx:c j));
      slo_availability = num_field ~ctx fields "availability" 0.0;
      slo_window = num_field ~ctx fields "window" default_slo.slo_window;
      slo_max_recovery_s =
        (match Json.member_opt "max_recovery_s" fields with
        | None -> None
        | Some j -> Some (Json.num ~ctx:(ctx ^ ".max_recovery_s") j));
      slo_integrity =
        (match Json.member_opt "integrity" fields with
        | None -> default_slo.slo_integrity
        | Some (Json.Bool b) -> b
        | Some _ -> bad "%s.integrity: expected true or false" ctx);
    }
  in
  if s.slo_availability < 0.0 || s.slo_availability > 1.0 then
    bad "%s.availability: want within [0,1]" ctx;
  if s.slo_window <= 0.0 then bad "%s.window: want > 0" ctx;
  List.iter
    (fun (_, v) -> if v < 0.0 then bad "%s.p99_ms: ceilings must be >= 0" ctx)
    s.slo_p99_ms;
  s

let of_json_exn doc =
  let ctx = "scenario" in
  let fields = Json.obj ~ctx doc in
  reject_unknown ~ctx
    [ "schema"; "name"; "description"; "world"; "load"; "faults"; "slo"; "run" ]
    fields;
  (match Json.member ~ctx "schema" fields with
  | Json.Str "renofs-scenario/1" -> ()
  | Json.Str other ->
      bad "unsupported schema %S (want \"renofs-scenario/1\")" other
  | _ -> bad "%s.schema: expected a string" ctx);
  let load_ctx = ctx ^ ".load" in
  let load =
    List.mapi
      (segment_of_json ~ctx:load_ctx)
      (Json.arr ~ctx:load_ctx (Json.member ~ctx "load" fields))
  in
  if load = [] then bad "%s.load: want at least one segment" ctx;
  {
    sc_name = Json.str ~ctx:(ctx ^ ".name") (Json.member ~ctx "name" fields);
    sc_description =
      (match Json.member_opt "description" fields with
      | None -> ""
      | Some j -> Json.str ~ctx:(ctx ^ ".description") j);
    sc_world =
      (match Json.member_opt "world" fields with
      | None -> default_world
      | Some j -> world_of_json ~ctx:(ctx ^ ".world") j);
    sc_load = load;
    sc_faults =
      (match Json.member_opt "faults" fields with
      | None -> []
      | Some j ->
          List.map Fault.action_of_json (Json.arr ~ctx:(ctx ^ ".faults") j));
    sc_slo =
      (match Json.member_opt "slo" fields with
      | None -> default_slo
      | Some j -> slo_of_json ~ctx:(ctx ^ ".slo") j);
    sc_run =
      (match Json.member_opt "run" fields with
      | None -> R.empty
      | Some j -> R.of_json ~ctx:(ctx ^ ".run") (Json.obj ~ctx:(ctx ^ ".run") j));
  }

let of_json doc = try Ok (of_json_exn doc) with Json.Bad msg -> Error msg

let parse text =
  match Json.parse text with Error _ as e -> e | Ok doc -> of_json doc

let load_file path = Json.decode_file path of_json_exn

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

let seg ?rate_end ?(mix = Nhfsstone.default_mix) label duration rate =
  {
    Nhfsstone.sg_label = label;
    sg_duration = duration;
    sg_rate = rate;
    sg_rate_end = rate_end;
    sg_mix = mix;
  }

let diurnal =
  {
    sc_name = "diurnal";
    sc_description =
      "overnight quiet, morning ramp, daytime plateau, evening bulk backup";
    sc_world = default_world;
    sc_load =
      [
        seg "night" 6.0 2.0 ~mix:Nhfsstone.read_lookup_mix;
        seg "morning" 6.0 2.0 ~rate_end:8.0;
        seg "day" 8.0 8.0;
        seg "evening" 6.0 8.0 ~rate_end:2.0 ~mix:Nhfsstone.read_lookup_mix;
        seg "backup" 6.0 4.0 ~mix:Nhfsstone.bulk_mix;
      ];
    sc_faults = [];
    sc_slo =
      {
        default_slo with
        slo_p99_ms = [ ("*", 200.0); ("lookup", 150.0) ];
        slo_availability = 0.99;
      };
    sc_run = R.empty;
  }

let flash_crowd =
  {
    sc_name = "flash-crowd";
    sc_description = "8x request spike rising in seconds, then decaying";
    sc_world = default_world;
    sc_load =
      [
        seg "baseline" 6.0 3.0 ~mix:Nhfsstone.read_lookup_mix;
        seg "spike" 2.0 3.0 ~rate_end:24.0 ~mix:Nhfsstone.lookup_mix;
        seg "sustained" 6.0 24.0 ~mix:Nhfsstone.lookup_mix;
        seg "decay" 4.0 24.0 ~rate_end:3.0 ~mix:Nhfsstone.read_lookup_mix;
        seg "tail" 4.0 3.0 ~mix:Nhfsstone.read_lookup_mix;
      ];
    sc_faults = [];
    sc_slo =
      {
        default_slo with
        slo_p99_ms = [ ("*", 500.0) ];
        slo_availability = 0.97;
      };
    sc_run = R.empty;
  }

let crash_at_peak =
  {
    sc_name = "crash-at-peak";
    sc_description = "server0 crashes at the daily peak and reboots 3s later";
    sc_world = default_world;
    sc_load =
      [
        seg "warm" 6.0 3.0;
        seg "climb" 4.0 3.0 ~rate_end:9.0;
        seg "peak" 10.0 9.0;
        seg "cool" 6.0 9.0 ~rate_end:3.0 ~mix:Nhfsstone.read_lookup_mix;
      ];
    sc_faults =
      [ Fault.Server_crash { at = 12.0; downtime = 3.0; server = "server0" } ];
    sc_slo =
      {
        default_slo with
        slo_p99_ms = [ ("*", 2000.0) ];
        slo_availability = 0.8;
        slo_max_recovery_s = Some 10.0;
      };
    sc_run = R.empty;
  }

let flapping_wan =
  {
    sc_name = "flapping-wan";
    sc_description = "half the clients on 56K lines that flap during the day";
    sc_world = { default_world with w_wan_fraction = 0.5 };
    sc_load =
      [
        seg "steady" 10.0 3.0 ~mix:Nhfsstone.lookup_mix;
        seg "afternoon" 8.0 3.0 ~mix:Nhfsstone.read_lookup_mix;
        seg "winddown" 6.0 3.0 ~rate_end:1.0 ~mix:Nhfsstone.lookup_mix;
      ];
    sc_faults =
      [
        Fault.Link_down { at = 4.0; duration = 1.5; link = "cl1" };
        Fault.Link_down { at = 9.0; duration = 1.5; link = "cl3" };
        Fault.Link_down { at = 14.0; duration = 1.5; link = "cl5" };
        Fault.Link_down { at = 18.0; duration = 1.0; link = "cl1" };
      ];
    sc_slo =
      {
        default_slo with
        slo_p99_ms = [ ("*", 4000.0) ];
        slo_availability = 0.9;
      };
    sc_run = R.empty;
  }

let background_corruption =
  {
    sc_name = "background-corruption";
    sc_description =
      "2% wire corruption all day; checksums + retransmission absorb it";
    sc_world = default_world;
    sc_load =
      [
        seg "steady" 10.0 5.0;
        seg "bulk" 6.0 4.0 ~mix:Nhfsstone.bulk_mix;
        seg "tail" 4.0 3.0 ~mix:Nhfsstone.read_lookup_mix;
      ];
    sc_faults =
      [
        Fault.Corrupt
          { at = 0.5; duration = 18.0; link = "*"; rate = 0.02; seed = 11 };
      ];
    sc_slo =
      {
        default_slo with
        slo_p99_ms = [ ("*", 2500.0) ];
        slo_availability = 0.95;
      };
    sc_run = R.empty;
  }

let builtins =
  [ diurnal; flash_crowd; crash_at_peak; flapping_wan; background_corruption ]

let builtin_names = List.map (fun sc -> sc.sc_name) builtins
let find_builtin name = List.find_opt (fun sc -> sc.sc_name = name) builtins

let resolve name =
  match find_builtin name with
  | Some sc -> Ok sc
  | None when Sys.file_exists name -> load_file name
  | None ->
      Error
        (Printf.sprintf "%s: not a builtin scenario or a file (builtins: %s)"
           name
           (String.concat ", " builtin_names))

(* ------------------------------------------------------------------ *)
(* The runner cell                                                     *)
(* ------------------------------------------------------------------ *)

let txt s = E.Text s
let sec2 v = E.Float (v, E.Sec, 2)
let count n = E.Int (n, E.Count)
let rate1 v = E.Float (v, E.Per_sec, 1)
let ms1 v = E.Float (v, E.Ms, 1)
let pct1 v = E.Float (v *. 100.0, E.Percent, 1)

(* Small per-shard tree: every client preloads its own copy, so the
   fileset is sized for clients x shards, not one mount. *)
let scenario_fileset =
  Fileset.generate ~dirs:3 ~files_per_dir:4 ~file_size:8192 ~long_names:false

let cell sc =
  let label = "slo/" ^ sc.sc_name in
  {
    E.cell_label = label;
    cell_run =
      (fun ctx ->
        (* The SLO evaluator needs the event stream even when the
           caller did not ask for a trace. *)
        let sink, ctx = E.checked_trace ~capacity:(1 lsl 18) ctx in
        (* The scenario's own fault timeline, when it has one, takes
           the place of a runner schedule. *)
        let ctx =
          if sc.sc_faults = [] then ctx
          else
            {
              ctx with
              E.faults =
                Some
                  {
                    Fault.name = sc.sc_name;
                    description = sc.sc_description;
                    actions = sc.sc_faults;
                  };
            }
        in
        let w = sc.sc_world in
        let sim = Sim.create () in
        let params =
          if w.w_seed = 0 then Topology.default_params
          else { Topology.default_params with Topology.seed = w.w_seed }
        in
        let mounted = ref 0 in
        let go = Proc.Ivar.create sim in
        let results = Array.make w.w_clients None in
        let topo, fleet, ready =
          E.make_fleet_world ~defer_faults:true ~ctx ~label
            ~fileset:scenario_fileset sim
            ~graph:
              {
                Topology.g_servers = w.w_servers;
                g_clients = w.w_clients;
                g_tier = w.w_tier;
                g_wan_fraction = w.w_wan_fraction;
                g_params = params;
              }
            ~client:(fun i m ->
              incr mounted;
              Proc.Ivar.read go;
              (* A client whose mount failed completes nothing. *)
              let ops, achieved =
                match m with
                | None -> (0, 0.0)
                | Some m ->
                    let r =
                      Nhfsstone.run_program m scenario_fileset
                        {
                          Nhfsstone.pg_segments = sc.sc_load;
                          pg_children = 1;
                          pg_seed = (w.w_seed * 8191) + 31 + (i * 7919);
                        }
                    in
                    (r.Nhfsstone.ops_completed, r.Nhfsstone.achieved)
              in
              results.(i) <- Some (ops, achieved, Sim.now sim))
        in
        (* Provisioning and the mount storm are setup, not the day:
           keep the sink quiet until the load program starts, so the
           SLO windows and the durability ledger cover the scenario
           only.  The world's Run_mark predates the gate. *)
        Trace.set_enabled sink false;
        (* The day starts when every client is mounted: open the trace
           gate, arm the fault timeline (action times are relative to
           load start) and release the clients together. *)
        let t_start = ref 0.0 in
        Proc.spawn sim (fun () ->
            Proc.Ivar.read ready;
            while !mounted < w.w_clients do
              Proc.sleep sim 0.05
            done;
            Trace.set_enabled sink true;
            t_start := Sim.now sim;
            E.install_faults ctx sim topo (Fleet.servers fleet);
            Proc.Ivar.fill go ());
        E.run_until ~label ~window:50.0 sim (fun () ->
            Array.for_all Option.is_some results);
        (* The day's elapsed time is load start to the last client's
           finish — the drive loop overshoots by up to one window. *)
        let results = Array.map Option.get results in
        let elapsed =
          Array.fold_left
            (fun acc (_, _, t) -> Float.max acc (t -. !t_start))
            0.0 results
        in
        let ops = Array.fold_left (fun acc (n, _, _) -> acc + n) 0 results in
        let achieved =
          Array.fold_left (fun acc (_, a, _) -> acc +. a) 0.0 results
        in
        let fss =
          List.map
            (fun srv -> (Node.id (Nfs_server.node srv), Nfs_server.fs srv))
            (Fleet.servers fleet)
        in
        let read_back ~node ~file ~off ~len =
          match List.assoc_opt node fss with
          | None -> None
          | Some fs -> (
              try Some (Fs.read fs (Fs.vnode_by_ino fs file) ~off ~len)
              with _ -> None)
        in
        let records = Trace.to_list sink in
        let o =
          Slo.evaluate sc.sc_slo ~server_nodes:(List.map fst fss) ~read_back
            records
        in
        let verdict =
          match o.Slo.o_breaches with
          | [] -> "PASS"
          | bs ->
              "FAIL:"
              ^ String.concat "," (List.map (fun b -> b.Slo.b_slo) bs)
        in
        [
          txt sc.sc_name;
          sec2 elapsed;
          count ops;
          rate1 achieved;
          ms1 o.Slo.o_p99_ms;
          pct1 o.Slo.o_availability;
          ms1 (o.Slo.o_recovery *. 1000.0);
          txt verdict;
        ]);
  }

let suite_spec scenarios =
  {
    E.sp_id = "slo";
    sp_title = "Day-in-the-life scenarios: SLO verdicts";
    sp_header =
      [
        "scenario";
        "elapsed(s)";
        "ops";
        "achieved(op/s)";
        "p99(ms)";
        "avail(%)";
        "recovery(ms)";
        "verdict";
      ];
    sp_cells = List.map cell scenarios;
    sp_assemble = (fun outs -> outs);
  }

let failures (results : E.results) =
  List.filter_map
    (fun row ->
      match (List.nth_opt row 0, List.rev row) with
      | Some (E.Text name), E.Text verdict :: _
        when String.length verdict >= 4 && String.sub verdict 0 4 = "FAIL" ->
          Some (name ^ ": " ^ verdict)
      | _ -> None)
    results.E.r_rows
