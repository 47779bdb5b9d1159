module Sim = Renofs_engine.Sim
module Stats = Renofs_engine.Stats
module Metrics = Renofs_metrics.Metrics

let check_points = Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))

(* Drive a sim in [~until] windows the way the experiment drivers do;
   the sampler tick reschedules itself forever, so a bare [Sim.run]
   would never return. *)
let drive sim until = Sim.run ~until sim

let test_sampling_tick () =
  let sim = Sim.create () in
  let t = Metrics.create ~interval:1.0 () in
  let run = Metrics.start_run t ~sim ~label:"cell" in
  let level = ref 0.0 in
  Metrics.register run ~name:"level" ~unit_:"count" ~kind:Metrics.Gauge (fun () -> !level);
  Sim.at sim 1.5 (fun () -> level := 4.0);
  drive sim 3.2;
  match Metrics.series t with
  | [ s ] ->
      Alcotest.(check string) "run label" "cell" s.Metrics.e_run;
      Alcotest.(check string) "name" "level" s.Metrics.e_name;
      Alcotest.(check string) "unit" "count" s.Metrics.e_unit;
      (* ticks at 1,2,3 (the tick starting the run fires one interval in) *)
      check_points "sampled on the grid"
        [ (1.0, 0.0); (2.0, 4.0); (3.0, 4.0) ]
        s.Metrics.e_points
  | l -> Alcotest.failf "expected 1 series, got %d" (List.length l)

let test_nonfinite_skipped () =
  let sim = Sim.create () in
  let t = Metrics.create ~interval:1.0 () in
  let run = Metrics.start_run t ~sim ~label:"cell" in
  let v = ref Float.nan in
  Metrics.register run ~name:"srtt" ~unit_:"ms" ~kind:Metrics.Gauge (fun () -> !v);
  Sim.at sim 1.5 (fun () -> v := 7.0);
  drive sim 3.2;
  let s = List.hd (Metrics.series t) in
  check_points "nan before first estimate skipped" [ (2.0, 7.0); (3.0, 7.0) ]
    s.Metrics.e_points

let test_enable_gate () =
  let sim = Sim.create () in
  let t = Metrics.create ~interval:1.0 () in
  let run = Metrics.start_run t ~sim ~label:"cell" in
  Metrics.register run ~name:"g" ~unit_:"count" ~kind:Metrics.Gauge (fun () -> 1.0);
  Metrics.set_enabled t false;
  drive sim 2.5;
  Metrics.set_enabled t true;
  drive sim 4.5;
  let s = List.hd (Metrics.series t) in
  check_points "warmup excluded" [ (3.0, 1.0); (4.0, 1.0) ] s.Metrics.e_points

let test_histogram_quantiles () =
  let sim = Sim.create () in
  let t = Metrics.create ~interval:1.0 () in
  let run = Metrics.start_run t ~sim ~label:"cell" in
  let h = Stats.Hist.create ~bucket_width:1.0 ~buckets:100 in
  Metrics.register_hist run ~name:"svc" ~unit_:"ms" h;
  Sim.at sim 0.5 (fun () ->
      for i = 1 to 100 do
        Stats.Hist.add h (float_of_int i)
      done);
  drive sim 1.5;
  let names = List.map (fun s -> s.Metrics.e_name) (Metrics.series t) in
  Alcotest.(check (list string)) "p50/p95 series" [ "svc/p50"; "svc/p95" ] names;
  let p50 = List.hd (Metrics.series t) in
  Alcotest.(check int) "empty hist at t=0 contributes nothing, one point after" 1
    (List.length p50.Metrics.e_points)

let test_label_uniquified () =
  let sim = Sim.create () in
  let t = Metrics.create () in
  let r1 = Metrics.start_run t ~sim ~label:"cell" in
  let r2 = Metrics.start_run t ~sim ~label:"cell" in
  Metrics.register r1 ~name:"a" ~unit_:"count" ~kind:Metrics.Gauge (fun () -> 0.0);
  Metrics.register r2 ~name:"a" ~unit_:"count" ~kind:Metrics.Gauge (fun () -> 0.0);
  match Metrics.series t with
  | [ s1; s2 ] ->
      Alcotest.(check string) "first keeps label" "cell" s1.Metrics.e_run;
      Alcotest.(check string) "second suffixed" "cell#2" s2.Metrics.e_run
  | l -> Alcotest.failf "expected 2 series, got %d" (List.length l)

let test_merge_order () =
  let mk label =
    let sim = Sim.create () in
    let t = Metrics.create ~interval:1.0 () in
    let run = Metrics.start_run t ~sim ~label in
    Metrics.register run ~name:"g" ~unit_:"count" ~kind:Metrics.Gauge (fun () -> 1.0);
    drive sim 1.5;
    t
  in
  let a = mk "cell-a" and b = mk "cell-b" in
  let into = Metrics.create ~interval:1.0 () in
  Metrics.merge ~into a;
  Metrics.merge ~into b;
  let runs = List.map (fun s -> s.Metrics.e_run) (Metrics.series into) in
  Alcotest.(check (list string)) "cell order preserved" [ "cell-a"; "cell-b" ] runs;
  Alcotest.(check int) "sources drained" 0 (List.length (Metrics.series a))

let with_temp f =
  let path = Filename.temp_file "renofs_metrics" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_series_labels () =
  let sim = Sim.create () in
  let t = Metrics.create ~interval:0.5 () in
  let run = Metrics.start_run t ~sim ~label:"cell" in
  Metrics.register ~labels:[ ("server", "server1") ] run ~name:"srv.served"
    ~unit_:"count" ~kind:Metrics.Counter (fun () -> 1.0);
  Metrics.register run ~name:"plain" ~unit_:"count" ~kind:Metrics.Gauge
    (fun () -> 2.0);
  drive sim 1.2;
  with_temp (fun path ->
      Metrics.export_jsonl t path;
      let labelled, plain =
        match List.filter (contains ~sub:"srv.served") (read_lines path) with
        | [ l ] -> (l, List.hd (List.filter (contains ~sub:"plain") (read_lines path)))
        | l -> Alcotest.failf "expected 1 labelled line, got %d" (List.length l)
      in
      Alcotest.(check bool) "labels member present" true
        (contains ~sub:{|"labels":{"server":"server1"}|} labelled);
      (* Unlabelled series keep the pre-label wire format. *)
      Alcotest.(check bool) "no labels member when empty" false
        (contains ~sub:"labels" plain);
      match Metrics.import_jsonl path with
      | Error e -> Alcotest.fail e
      | Ok imported ->
          let find name =
            List.find (fun s -> s.Metrics.e_name = name) imported
          in
          Alcotest.(check (list (pair string string))) "labels round-trip"
            [ ("server", "server1") ]
            (find "srv.served").Metrics.e_labels;
          Alcotest.(check (list (pair string string))) "empty labels round-trip"
            [] (find "plain").Metrics.e_labels)

let test_jsonl_roundtrip () =
  let sim = Sim.create () in
  let t = Metrics.create ~interval:0.5 () in
  let run = Metrics.start_run t ~sim ~label:"quick/udp \"caf\xc3\xa9\"\t" in
  let n = ref 0.0 in
  Metrics.register run ~name:"xport.calls" ~unit_:"count" ~kind:Metrics.Counter
    (fun () ->
      n := !n +. (1.0 /. 3.0);
      !n);
  Metrics.register ~labels:[ ("k\\", "v\n") ] run ~name:"tiny" ~unit_:"s"
    ~kind:Metrics.Gauge (fun () -> 1e-300);
  drive sim 2.2;
  with_temp (fun path ->
      Metrics.export_jsonl t path;
      match Metrics.import_jsonl path with
      | Error e -> Alcotest.fail e
      | Ok imported ->
          Alcotest.(check int) "two series" 2 (List.length imported);
          let s = List.hd imported and orig = List.hd (Metrics.series t) in
          Alcotest.(check string) "run" orig.Metrics.e_run s.Metrics.e_run;
          Alcotest.(check string) "name" orig.Metrics.e_name s.Metrics.e_name;
          Alcotest.(check bool) "kind" true (s.Metrics.e_kind = Metrics.Counter);
          Alcotest.(check bool) "series round-trip exactly" true
            (imported = Metrics.series t))

let test_import_error_location () =
  with_temp (fun path ->
      let oc = open_out path in
      output_string oc
        "{\"schema\":\"renofs-metrics/1\",\"interval\":0.5,\"series\":1}\n{broken\n";
      close_out oc;
      match Metrics.import_jsonl path with
      | Ok _ -> Alcotest.fail "malformed input accepted"
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "error %S carries path:line" e)
            true
            (String.length e > String.length path
            && String.sub e 0 (String.length path) = path))

let test_import_rejects_other_schema () =
  with_temp (fun path ->
      let oc = open_out path in
      output_string oc "{\"schema\":\"renofs-bench/1\"}\n";
      close_out oc;
      match Metrics.import_jsonl path with
      | Ok _ -> Alcotest.fail "wrong schema accepted"
      | Error _ -> ())

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "sampling tick" `Quick test_sampling_tick;
          Alcotest.test_case "non-finite skipped" `Quick test_nonfinite_skipped;
          Alcotest.test_case "enable gate" `Quick test_enable_gate;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "label uniquified" `Quick test_label_uniquified;
          Alcotest.test_case "merge order" `Quick test_merge_order;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "series labels" `Quick test_series_labels;
          Alcotest.test_case "error location" `Quick test_import_error_location;
          Alcotest.test_case "schema check" `Quick test_import_rejects_other_schema;
        ] );
    ]
