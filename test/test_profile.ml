(* Self-profiler suite: attribution semantics on a fake clock, the
   deterministic counts contract across --jobs, the renofs-profile/1
   JSON (including the attribution-sum check), the Perfetto exporter's
   span pairing, the trace-export metadata header, and the flight
   recorder's trigger paths (stuck driver, invariant FAIL, SLO
   breach). *)

module Probe = Renofs_engine.Probe
module Profile = Renofs_profile.Profile
module Perfetto = Renofs_profile.Perfetto
module Flight = Renofs_profile.Flight
module Trace = Renofs_trace.Trace
module Json = Renofs_json.Json
module Fault = Renofs_fault.Fault
module E = Renofs_workload.Experiments
module R = Renofs_workload.Run_spec
module Perf = Renofs_workload.Perf
module Scenario = Renofs_scenario.Scenario

let slot s name =
  match
    List.find_opt (fun ss -> ss.Profile.ss_name = name) s.Profile.p_slots
  with
  | Some ss -> ss
  | None -> Alcotest.failf "no slot %S in snapshot" name

let self_sum s =
  List.fold_left (fun a ss -> a +. ss.Profile.ss_self_s) 0.0 s.Profile.p_slots

let tmppath prefix suffix =
  let f = Filename.temp_file prefix suffix in
  Sys.remove f;
  f

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let read_all path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Attribution on a fake clock                                         *)
(* ------------------------------------------------------------------ *)

let test_scoped_attribution () =
  let now = ref 0.0 in
  let p = Profile.create ~clock:(fun () -> !now) () in
  let pr = Profile.probe p in
  Profile.start p;
  now := 1.0;
  let d = pr.Probe.enter Probe.cpu in
  now := 3.0;
  pr.Probe.leave d;
  now := 3.5;
  Profile.stop p;
  let s = Profile.snapshot p in
  Alcotest.(check (float 1e-9)) "wall" 3.5 s.Profile.p_wall_s;
  Alcotest.(check (float 1e-9))
    "harness self" 1.5 (slot s "harness").Profile.ss_self_s;
  Alcotest.(check (float 1e-9)) "cpu self" 2.0 (slot s "cpu").Profile.ss_self_s;
  Alcotest.(check (float 1e-9)) "conserved" s.Profile.p_wall_s (self_sum s);
  Alcotest.(check int) "cpu enters" 1 (slot s "cpu").Profile.ss_enters

(* leave is a truncation: one token unwinds nested frames, and a stale
   token from a resumed fiber is a no-op. *)
let test_leave_truncates () =
  let now = ref 0.0 in
  let p = Profile.create ~clock:(fun () -> !now) () in
  let pr = Profile.probe p in
  Profile.start p;
  now := 1.0;
  let d0 = pr.Probe.enter Probe.link in
  now := 2.0;
  let d1 = pr.Probe.enter Probe.transport in
  now := 3.0;
  pr.Probe.leave d0;
  Alcotest.(check int) "back to harness" Probe.harness (pr.Probe.current ());
  now := 4.0;
  pr.Probe.leave d1 (* stale: deeper than the current stack *);
  Profile.stop p;
  let s = Profile.snapshot p in
  Alcotest.(check (float 1e-9))
    "link self" 1.0 (slot s "link").Profile.ss_self_s;
  Alcotest.(check (float 1e-9))
    "transport self" 1.0 (slot s "transport").Profile.ss_self_s;
  Alcotest.(check (float 1e-9))
    "harness absorbs the rest" 2.0 (slot s "harness").Profile.ss_self_s;
  Alcotest.(check (float 1e-9)) "conserved" 4.0 (self_sum s)

let test_fire_counts_and_durations () =
  let now = ref 0.0 in
  let p = Profile.create ~clock:(fun () -> !now) () in
  let pr = Profile.probe p in
  Profile.start p;
  now := 1.0;
  let d = pr.Probe.fire_enter Probe.link in
  now := 1.5;
  pr.Probe.fire_leave d;
  Profile.stop p;
  let s = Profile.snapshot p in
  Alcotest.(check int) "one probed event" 1 s.Profile.p_events;
  let link = slot s "link" in
  Alcotest.(check int) "link fires" 1 link.Profile.ss_fires;
  Alcotest.(check (float 1e-9))
    "fire duration summed" 0.5 link.Profile.ss_fire_s;
  Alcotest.(check int) "one histogram entry" 1
    (Array.fold_left ( + ) 0 link.Profile.ss_hist)

(* ------------------------------------------------------------------ *)
(* A real profiled run: determinism and conservation                   *)
(* ------------------------------------------------------------------ *)

let profiled_run jobs =
  let p = Profile.create () in
  ignore (E.run_spec ~jobs ~profile:p ((List.assoc "graph1" E.specs) E.Quick));
  p

let p_serial = lazy (profiled_run 1)

let test_counts_deterministic_across_jobs () =
  Alcotest.(check string)
    "enter/fire counts identical at --jobs 1 and 4"
    (Profile.counts (Lazy.force p_serial))
    (Profile.counts (profiled_run 4))

let test_real_run_attribution () =
  let s = Profile.snapshot (Lazy.force p_serial) in
  Alcotest.(check bool) "wall measured" true (s.Profile.p_wall_s > 0.0);
  Alcotest.(check bool) "events probed" true (s.Profile.p_events > 0);
  Alcotest.(check bool) "scheduler entered" true
    ((slot s "scheduler").Profile.ss_enters > 0);
  Alcotest.(check bool) "link events fired" true
    ((slot s "link").Profile.ss_fires > 0);
  Alcotest.(check bool) "server time attributed" true
    ((slot s "server").Profile.ss_self_s > 0.0);
  let err = abs_float (self_sum s -. s.Profile.p_wall_s) in
  Alcotest.(check bool) "self times sum to wall (10%)" true
    (err <= 0.10 *. s.Profile.p_wall_s)

let test_profile_json_roundtrip () =
  let p = Lazy.force p_serial in
  let path = tmppath "renofs_profile" ".json" in
  Profile.write_file ~path p;
  match Profile.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
      Alcotest.(check bool) "snapshot read back exactly" true
        (s = Profile.snapshot p)

(* Measured wall times need all 17 digits to read back exactly. *)
let test_perf_json_roundtrip () =
  let cell label wall_s =
    { Perf.c_label = label; c_wall_s = wall_s; c_events = 272472; c_rpcs = 548 }
  in
  let r =
    {
      Perf.cells =
        [ cell "graph5/load4/udp-fixed" 0.1234567890123456; cell "graph5/load4/tcp" (1.0 /. 3.0) ];
      wall_s = 0.1234567890123456 +. (1.0 /. 3.0);
      events = 544944;
      rpcs = 1096;
      events_per_s = 544944.0 /. (0.1234567890123456 +. (1.0 /. 3.0));
      rpcs_per_s = 1096.0 /. (0.1234567890123456 +. (1.0 /. 3.0));
      p_profile = Some (Profile.snapshot (Lazy.force p_serial));
    }
  in
  let path = tmppath "renofs_perf" ".json" in
  Perf.write_file ~path r;
  match Perf.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok back -> Alcotest.(check bool) "perf read back exactly" true (back = r)

(* The perf cell set, pinned: graph5-full through the shared world
   lifecycle reproduces every per-cell event and RPC count recorded in
   BENCH_perf.json, and [Perf.run]'s three passes agree on them. *)
let perf_counts =
  [
    ("graph5/load4/udp-fixed", 272472, 548);
    ("graph5/load4/udp-dyn", 280245, 550);
    ("graph5/load4/tcp", 273674, 530);
    ("graph5/load8/udp-fixed", 278144, 934);
    ("graph5/load8/udp-dyn", 277454, 932);
    ("graph5/load8/tcp", 310121, 923);
    ("graph5/load12/udp-fixed", 323757, 1289);
    ("graph5/load12/udp-dyn", 316349, 1303);
    ("graph5/load12/tcp", 317672, 1281);
    ("graph5/load14/udp-fixed", 315856, 1460);
    ("graph5/load14/udp-dyn", 316591, 1473);
    ("graph5/load14/tcp", 317414, 1430);
    ("graph5/load16/udp-fixed", 320718, 1616);
    ("graph5/load16/udp-dyn", 331511, 1621);
    ("graph5/load16/tcp", 345186, 1581);
    ("graph5/load18/udp-fixed", 335048, 1784);
    ("graph5/load18/udp-dyn", 336622, 1791);
    ("graph5/load18/tcp", 359108, 1726);
  ]

let test_perf_cell_set_pinned () =
  match Perf.run () with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      Alcotest.(check (list (triple string int int)))
        "per-cell events and RPCs" perf_counts
        (List.map
           (fun c -> (c.Perf.c_label, c.Perf.c_events, c.Perf.c_rpcs))
           r.Perf.cells);
      Alcotest.(check (pair int int)) "totals" (5627942, 22772)
        (r.Perf.events, r.Perf.rpcs)

(* Counts gate exactly, aggregate and per cell; wall-clock rates gate
   only beyond the tolerance; allocation per event beyond 1%. *)
let test_perf_diff_gates_counts () =
  let cell (label, events, rpcs) =
    { Perf.c_label = label; c_wall_s = 0.1; c_events = events; c_rpcs = rpcs }
  in
  let mk cells =
    let events = List.fold_left (fun a c -> a + c.Perf.c_events) 0 cells
    and rpcs = List.fold_left (fun a c -> a + c.Perf.c_rpcs) 0 cells in
    let wall_s = 0.1 *. float_of_int (List.length cells) in
    {
      Perf.cells;
      wall_s;
      events;
      rpcs;
      events_per_s = float_of_int events /. wall_s;
      rpcs_per_s = float_of_int rpcs /. wall_s;
      p_profile = None;
    }
  in
  let baseline = mk (List.map cell perf_counts) in
  let regressions current =
    (Perf.diff ~tolerance:0.3 ~baseline ~current).Perf.regressions
  in
  Alcotest.(check (list string)) "identical: clean" [] (regressions baseline);
  let moved =
    List.map
      (fun ((l, e, r) as c) ->
        if l = "graph5/load8/tcp" then cell (l, e, r + 1) else cell c)
      perf_counts
  in
  Alcotest.(check int) "one RPC drift: aggregate and cell" 2
    (List.length (regressions (mk moved)));
  let swapped =
    List.map
      (fun ((l, e, r) as c) ->
        if l = "graph5/load4/tcp" then cell (l, e + 5, r)
        else if l = "graph5/load8/tcp" then cell (l, e - 5, r)
        else cell c)
      perf_counts
  in
  Alcotest.(check int) "cell event drift with equal totals" 2
    (List.length (regressions (mk swapped)));
  (* Minor words per event gate at +1% when both sides are profiled. *)
  let profiled words =
    {
      baseline with
      Perf.p_profile =
        Some
          {
            Profile.p_wall_s = 1.0;
            p_slots = [];
            p_events = 1000;
            p_minor_words = words;
            p_promoted_words = 0.0;
            p_minor_collections = 0;
            p_major_collections = 0;
          };
    }
  in
  let words_regressions words =
    (Perf.diff ~tolerance:0.3 ~baseline:(profiled 40_000.0)
       ~current:(profiled words))
      .Perf.regressions
  in
  Alcotest.(check int) "words within 1%" 0
    (List.length (words_regressions 40_350.0));
  Alcotest.(check int) "words fall" 0 (List.length (words_regressions 30_000.0));
  Alcotest.(check int) "words up 1.5%" 1
    (List.length (words_regressions 40_600.0));
  Alcotest.(check int) "unprofiled side not gated" 0
    (List.length
       (Perf.diff ~tolerance:0.3 ~baseline:(profiled 40_000.0)
          ~current:baseline)
         .Perf.regressions)

(* The validator is also the accountant: a profile whose self-times do
   not sum to its wall time is rejected. *)
let test_profile_json_rejects_bad_attribution () =
  let now = ref 0.0 in
  let p = Profile.create ~clock:(fun () -> !now) () in
  Profile.start p;
  now := 2.0;
  Profile.stop p;
  let js = Profile.emit (Profile.snapshot p) in
  (* Inflate the recorded wall so the slot sum can no longer match. *)
  let sub = "\"wall_s\":2" and by = "\"wall_s\":20" in
  let rec replace s =
    let n = String.length sub in
    let rec find i =
      if i + n > String.length s then None
      else if String.sub s i n = sub then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> s
    | Some i ->
        String.sub s 0 i ^ by
        ^ replace (String.sub s (i + n) (String.length s - i - n))
  in
  let tampered = replace js in
  Alcotest.(check bool) "tamper applied" true (tampered <> js);
  let path = tmppath "renofs_profile_bad" ".json" in
  let oc = open_out path in
  output_string oc tampered;
  close_out oc;
  match Profile.read_file path with
  | Ok _ -> Alcotest.fail "mismatched attribution accepted"
  | Error msg -> Alcotest.(check bool) "names the sum" true (contains "sum" msg)

(* ------------------------------------------------------------------ *)
(* Perfetto export                                                     *)
(* ------------------------------------------------------------------ *)

let rec_ ?(node = 0) time ev = { Trace.time; node; ev }

let synthetic_records =
  [
    rec_ 0.0 (Trace.Run_mark { label = "cellA" });
    rec_ 1.0 (Trace.Rpc_send { xid = 1l; proc = 4 });
    (* second RPC overlaps the first: async pairs must not collide *)
    rec_ 1.2 (Trace.Rpc_send { xid = 2l; proc = 6 });
    rec_ ~node:1 1.8 (Trace.Srv_service { xid = 1l; proc = 4; service = 0.2 });
    rec_ 2.0 (Trace.Rpc_reply { xid = 1l; proc = 4; rtt = 1.0 });
    rec_ 2.5 (Trace.Rpc_reply { xid = 2l; proc = 6; rtt = 1.3 });
    rec_ 2.6 (Trace.Rpc_retransmit { xid = 3l; proc = 4; retry = 1; rto = 0.5 });
  ]

let load_events path =
  match Json.load_file path with
  | Error msg -> Alcotest.fail msg
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Json.Arr evs) ->
          List.map
            (function
              | Json.Obj o -> o | _ -> Alcotest.fail "event not an object")
            evs
      | _ -> Alcotest.fail "no traceEvents array")
  | Ok _ -> Alcotest.fail "top level is not an object"

let sfield o name =
  match List.assoc_opt name o with Some (Json.Str s) -> s | _ -> ""

let nfield o name =
  match List.assoc_opt name o with Some (Json.Num n) -> n | _ -> Float.nan

let test_perfetto_export () =
  let now = ref 0.0 in
  let p = Profile.create ~clock:(fun () -> !now) () in
  let pr = Profile.probe p in
  Profile.start p;
  now := 1.0;
  let d = pr.Probe.enter Probe.cpu in
  now := 2.0;
  pr.Probe.leave d;
  Profile.stop p;
  let path = tmppath "renofs_perfetto" ".json" in
  let n =
    Perfetto.export ~path ~profile:(Profile.snapshot p) synthetic_records
  in
  let events = load_events path in
  let non_meta = List.filter (fun o -> sfield o "ph" <> "M") events in
  Alcotest.(check int) "returned count matches the file" n
    (List.length non_meta);
  let bs = List.filter (fun o -> sfield o "ph" = "b") events in
  let es = List.filter (fun o -> sfield o "ph" = "e") events in
  Alcotest.(check int) "two async begins" 2 (List.length bs);
  Alcotest.(check int) "two async ends" 2 (List.length es);
  List.iter
    (fun b ->
      let id = nfield b "id" in
      match List.filter (fun e -> nfield e "id" = id) es with
      | [ e ] ->
          Alcotest.(check bool) "end after begin" true
            (nfield e "ts" >= nfield b "ts")
      | other -> Alcotest.failf "begin id %g has %d ends" id (List.length other))
    bs;
  Alcotest.(check bool) "service slice present" true
    (List.exists
       (fun o -> sfield o "ph" = "X" && sfield o "cat" = "service")
       events);
  Alcotest.(check bool) "retransmit instant present" true
    (List.exists (fun o -> sfield o "cat" = "retransmit") events);
  Alcotest.(check bool) "profiler slices present" true
    (List.exists (fun o -> sfield o "cat" = "profile") events)

(* ------------------------------------------------------------------ *)
(* Trace export metadata header                                        *)
(* ------------------------------------------------------------------ *)

let test_trace_export_header () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.record tr ~time:(float_of_int i) ~node:0 Trace.Srv_crash
  done;
  let path = tmppath "renofs_trace" ".jsonl" in
  Trace.export_jsonl tr path;
  let header =
    match String.split_on_char '\n' (read_all path) with
    | h :: _ -> h
    | [] -> Alcotest.fail "empty export"
  in
  Alcotest.(check bool) "schema named" true (contains "renofs-trace/1" header);
  Alcotest.(check bool) "held" true (contains "\"held\":4" header);
  Alcotest.(check bool) "total" true (contains "\"total\":6" header);
  Alcotest.(check bool) "overwritten" true (contains "\"overwritten\":2" header);
  let back =
    match Trace.import_jsonl path with Ok l -> l | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "header skipped on import" 4 (List.length back);
  match back with
  | { Trace.time; _ } :: _ ->
      Alcotest.(check (float 0.0)) "oldest survivor" 3.0 time
  | [] -> Alcotest.fail "no records back"

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let member bundle name = Sys.file_exists (Filename.concat bundle name)

let check_bundle bundle =
  List.iter
    (fun m -> Alcotest.(check bool) m true (member bundle m))
    [
      "MANIFEST.json"; "reason.txt"; "run_spec.json"; "trace_tail.jsonl";
      "profile.json";
    ]

let one_cell_spec ~id run =
  {
    E.sp_id = id;
    sp_title = id;
    sp_header = [ "result" ];
    sp_cells = [ { E.cell_label = id ^ "/one"; cell_run = run } ];
    sp_assemble = (fun rows -> rows);
  }

let test_flight_on_driver_stuck () =
  let dir = tmppath "renofs_flight_stuck" "" in
  let flight = Flight.arm ~dir ~spec:(Json.Obj []) ~seed:7 in
  let spec =
    one_cell_spec ~id:"stuck" (fun _ ->
        raise (E.Driver_stuck "stuck/one: synthetic"))
  in
  Alcotest.check_raises "driver stuck still propagates"
    (E.Driver_stuck "stuck/one: synthetic") (fun () ->
      ignore (E.run_spec ~jobs:1 ~flight spec));
  let bundle = Filename.concat dir "stuck_one" in
  check_bundle bundle;
  Alcotest.(check bool) "reason names the stuck driver" true
    (contains "stuck" (read_all (Filename.concat bundle "reason.txt")))

let test_flight_on_fail_value () =
  let dir = tmppath "renofs_flight_fail" "" in
  let flight = Flight.arm ~dir ~spec:(Json.Obj []) ~seed:0 in
  let spec =
    one_cell_spec ~id:"failcell" (fun _ -> [ E.Text "FAIL: synthetic" ])
  in
  let results = E.run_spec ~jobs:1 ~flight spec in
  Alcotest.(check int) "run completes" 1 (List.length results.E.r_rows);
  let bundle = Filename.concat dir "failcell_one" in
  check_bundle bundle;
  Alcotest.(check bool) "reason carries the verdict" true
    (contains "FAIL: synthetic"
       (read_all (Filename.concat bundle "reason.txt")))

let load_obj path =
  match Json.decode_file path (Json.obj ~ctx:path) with
  | Ok o -> o
  | Error msg -> Alcotest.fail msg

(* A faults path and a flight directory holding a UTF-8 byte pair, a
   tab and quotes reach the bundle's run_spec.json as valid JSON and
   read back unchanged. *)
let test_flight_run_spec_strings () =
  let odd = "caf\xc3\xa9\t\"q\"" in
  let root = tmppath "renofs_flight_odd" "" in
  Sys.mkdir root 0o755;
  let faults = Filename.concat root (odd ^ ".json") in
  let oc = open_out faults in
  output_string oc
    {|{"schema":"renofs-fault/1","name":"odd","actions":[{"kind":"server_crash","at":4.0,"downtime":3.0}]}|};
  close_out oc;
  let dir = Filename.concat root odd in
  let rs =
    { R.empty with R.rs_jobs = Some 1; rs_faults = Some faults; rs_flight = Some dir }
  in
  (match R.execute rs (one_cell_spec ~id:"failcell" (fun _ -> [ E.Text "FAIL: synthetic" ])) with
  | Error msg -> Alcotest.fail msg
  | Ok _ -> ());
  let spec = load_obj (Filename.concat (Filename.concat dir "failcell_one") "run_spec.json") in
  let str k = Json.str ~ctx:k (Json.member ~ctx:k k spec) in
  Alcotest.(check string) "faults" faults (str "faults");
  Alcotest.(check string) "flight" dir (str "flight")

(* The full CLI path: an SLO-breaching scenario under Run_spec with
   rs_flight set leaves a bundle, exactly what
   [nfsbench slo ... --flight DIR] does. *)
let test_flight_on_slo_breach () =
  match Scenario.find_builtin "crash-at-peak" with
  | None -> Alcotest.fail "crash-at-peak builtin missing"
  | Some sc ->
      let sc =
        {
          sc with
          Scenario.sc_name = "crash-noreboot";
          sc_faults =
            [
              Fault.Server_crash
                { at = 12.0; downtime = 9999.0; server = "server0" };
            ];
        }
      in
      let dir = tmppath "renofs_flight_slo" "" in
      let rs = { R.empty with R.rs_jobs = Some 1; rs_flight = Some dir } in
      (match R.execute rs (Scenario.suite_spec [ sc ]) with
      | Error msg -> Alcotest.fail msg
      | Ok results ->
          Alcotest.(check int) "the SLO breach is reported" 1
            (List.length (Scenario.failures results)));
      let bundles =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun d ->
               Sys.is_directory (Filename.concat dir d)
               && member (Filename.concat dir d) "MANIFEST.json")
      in
      (match bundles with
      | [ b ] ->
          let bundle = Filename.concat dir b in
          check_bundle bundle;
          let manifest = load_obj (Filename.concat bundle "MANIFEST.json") in
          let mstr k = Json.str ~ctx:k (Json.member ~ctx:k k manifest) in
          Alcotest.(check string) "manifest schema" "renofs-flight/1" (mstr "schema");
          Alcotest.(check string) "manifest reason"
            (read_all (Filename.concat bundle "reason.txt"))
            (mstr "reason" ^ "\n");
          Alcotest.(check (float 0.0)) "manifest seed" 0.0
            (Json.num ~ctx:"seed" (Json.member ~ctx:"seed" "seed" manifest));
          Alcotest.(check (list string)) "manifest members"
            [ "reason.txt"; "run_spec.json"; "trace_tail.jsonl"; "profile.json" ]
            (List.map (Json.str ~ctx:"members")
               (Json.arr ~ctx:"members" (Json.member ~ctx:"members" "members" manifest)));
          let spec = load_obj (Filename.concat bundle "run_spec.json") in
          Alcotest.(check string) "run spec schema" "renofs-runspec/1"
            (Json.str ~ctx:"schema" (Json.member ~ctx:"schema" "schema" spec));
          let back = R.of_json ~ctx:"run_spec" (List.remove_assoc "schema" spec) in
          Alcotest.(check bool) "run spec replays the run" true
            (back = { rs with R.rs_scale = Some E.Quick; rs_seed = Some 0 })
      | other ->
          Alcotest.failf "expected one bundle, found %d" (List.length other))

let () =
  Alcotest.run "profile"
    [
      ( "attribution",
        [
          Alcotest.test_case "scoped self-time" `Quick test_scoped_attribution;
          Alcotest.test_case "leave truncates" `Quick test_leave_truncates;
          Alcotest.test_case "fire counts" `Quick test_fire_counts_and_durations;
        ] );
      ( "real run",
        [
          Alcotest.test_case "counts deterministic across jobs" `Quick
            test_counts_deterministic_across_jobs;
          Alcotest.test_case "attribution sums to wall" `Quick
            test_real_run_attribution;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_profile_json_roundtrip;
          Alcotest.test_case "perf roundtrip" `Quick test_perf_json_roundtrip;
          Alcotest.test_case "rejects bad attribution" `Quick
            test_profile_json_rejects_bad_attribution;
        ] );
      ( "perf",
        [
          Alcotest.test_case "cell set pinned" `Quick test_perf_cell_set_pinned;
          Alcotest.test_case "diff gates counts" `Quick
            test_perf_diff_gates_counts;
        ] );
      ( "perfetto",
        [ Alcotest.test_case "export pairs spans" `Quick test_perfetto_export ]
      );
      ( "trace header",
        [ Alcotest.test_case "export metadata" `Quick test_trace_export_header ]
      );
      ( "flight",
        [
          Alcotest.test_case "driver stuck" `Quick test_flight_on_driver_stuck;
          Alcotest.test_case "invariant FAIL" `Quick test_flight_on_fail_value;
          Alcotest.test_case "slo breach via run spec" `Quick
            test_flight_on_slo_breach;
          Alcotest.test_case "run spec strings" `Quick
            test_flight_run_spec_strings;
        ] );
    ]
