(* The parallel sweep runner and the typed experiment-cell API.

   The contract under test: any --jobs value produces byte-identical
   rendered tables, JSON documents and trace streams, because results
   are reassembled by cell index and every cell runs in its own world
   with a private trace sink. *)

open Renofs_workload
module E = Experiments
module Trace = Renofs_trace.Trace
module Json = Renofs_json.Json
module Metrics = Renofs_metrics.Metrics
module Profile = Renofs_profile.Profile

(* ------------------------------------------------------------------ *)
(* Sweep: the domain pool itself                                      *)
(* ------------------------------------------------------------------ *)

let test_sweep_order () =
  let cells = List.init 17 (fun i -> Sweep.cell (fun () -> i * 10)) in
  let expect = List.init 17 (fun i -> i * 10) in
  Alcotest.(check (list int)) "jobs 1" expect (Sweep.run ~jobs:1 cells);
  Alcotest.(check (list int)) "jobs 4" expect (Sweep.run ~jobs:4 cells)

let test_sweep_empty () =
  Alcotest.(check (list int)) "no cells" [] (Sweep.run ~jobs:4 [])

let test_sweep_oversubscription () =
  (* More domains than cells: jobs is clamped, results still ordered. *)
  let cells = List.init 3 (fun i -> Sweep.cell (fun () -> i)) in
  Alcotest.(check (list int)) "jobs 64" [ 0; 1; 2 ] (Sweep.run ~jobs:64 cells)

let test_sweep_uneven_cells () =
  (* Long cells must not displace short ones in the result order. *)
  let work n =
    let acc = ref 0 in
    for i = 1 to n do
      acc := (!acc * 31) + i
    done;
    !acc
  in
  let sizes = [ 500_000; 10; 200_000; 10; 10; 300_000; 10; 10 ] in
  let cells = List.map (fun n -> Sweep.cell (fun () -> work n)) sizes in
  let expect = List.map work sizes in
  Alcotest.(check (list int)) "by index" expect (Sweep.run ~jobs:4 cells)

exception Boom of int

let test_sweep_exn_lowest_index () =
  (* Cells 1 and 3 both fail; run must re-raise cell 1's exception. *)
  let cells =
    List.init 5 (fun i ->
        Sweep.cell (fun () -> if i = 1 || i = 3 then raise (Boom i) else i))
  in
  List.iter
    (fun jobs ->
      match Sweep.run ~jobs cells with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
          Alcotest.(check int) (Printf.sprintf "jobs %d" jobs) 1 i)
    [ 1; 2; 5 ]

let test_default_jobs_positive () =
  Alcotest.(check bool) "at least one" true (Sweep.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* Determinism: serial and parallel runs are byte-identical           *)
(* ------------------------------------------------------------------ *)

let render_string results =
  Format.asprintf "%a" E.print_table (E.render results)

let spec_exn id =
  match E.spec ~scale:E.Quick id with
  | Some s -> s
  | None -> Alcotest.fail ("unknown spec " ^ id)

let test_determinism id () =
  let serial = E.run_spec ~jobs:1 (spec_exn id) in
  let parallel = E.run_spec ~jobs:4 (spec_exn id) in
  Alcotest.(check string)
    "rendered table" (render_string serial) (render_string parallel);
  (* Same ~jobs in the emission so the comparison covers the typed
     results, not the run metadata. *)
  Alcotest.(check string)
    "json document"
    (Bench_json.emit ~scale:E.Quick ~jobs:1 [ serial ])
    (Bench_json.emit ~scale:E.Quick ~jobs:1 [ parallel ])

let test_trace_merge_equivalence () =
  (* Parallel cells record into private sinks, merged in cell order:
     the combined stream must equal a serial run's, line for line. *)
  let run jobs =
    let tr = Trace.create ~capacity:(1 lsl 18) () in
    ignore (E.run_spec ~jobs ~trace:tr (spec_exn "graph1"));
    tr
  in
  let serial = run 1 and parallel = run 4 in
  Alcotest.(check int) "dropped" (Trace.dropped serial) (Trace.dropped parallel);
  Alcotest.(check (list string))
    "event stream"
    (List.map (fun r -> Json.compact (Trace.to_json r)) (Trace.to_list serial))
    (List.map (fun r -> Json.compact (Trace.to_json r)) (Trace.to_list parallel))

(* All three sinks at once through the runner: each cell's fork of the
   observer bundle is joined back in cell order, so trace records, the
   metrics export and the profile's enter/fire counts match a serial
   run's. *)
let test_observer_fork_join () =
  let run jobs =
    let tr = Trace.create ~capacity:(1 lsl 18) () in
    let mt = Metrics.create () in
    let p = Profile.create () in
    ignore (E.run_spec ~jobs ~trace:tr ~metrics:mt ~profile:p (spec_exn "graph1"));
    let path = Filename.temp_file "renofs_metrics" ".jsonl" in
    Metrics.export_jsonl mt path;
    let exported = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    (Trace.to_list tr, exported, Profile.counts p)
  in
  let tr1, mt1, pc1 = run 1 and tr3, mt3, pc3 = run 3 in
  Alcotest.(check bool) "trace recorded" true (tr1 <> []);
  Alcotest.(check bool) "trace records equal" true (tr1 = tr3);
  Alcotest.(check bool) "metrics exported" true (String.length mt1 > 0);
  Alcotest.(check string) "metrics JSONL byte-equal" mt1 mt3;
  Alcotest.(check string) "profile enter/fire counts equal" pc1 pc3

(* ------------------------------------------------------------------ *)
(* Registry: every spec has metadata and renders a well-formed table  *)
(* ------------------------------------------------------------------ *)

let test_registry_lookup_covers_specs () =
  List.iter
    (fun (id, _) ->
      match E.spec id with
      | Some s -> Alcotest.(check string) (id ^ " resolves") id s.E.sp_id
      | None -> Alcotest.failf "spec %S not resolvable by id" id)
    E.specs

let test_registry_metadata () =
  List.iter
    (fun (id, mk) ->
      let s = mk E.Quick in
      Alcotest.(check string) (id ^ " id") id s.E.sp_id;
      Alcotest.(check bool) (id ^ " has title") true (s.E.sp_title <> "");
      Alcotest.(check bool) (id ^ " has cells") true (List.length s.E.sp_cells > 0);
      List.iter
        (fun c -> Alcotest.(check bool) (id ^ " cell label") true (c.E.cell_label <> ""))
        s.E.sp_cells)
    E.specs

let test_registry_tables_well_formed () =
  List.iter
    (fun (id, mk) ->
      let t = E.render (E.run_spec ~jobs:2 (mk E.Quick)) in
      let cols = List.length t.E.header in
      Alcotest.(check bool) (id ^ " has columns") true (cols > 0);
      Alcotest.(check bool) (id ^ " has rows") true (t.E.rows <> []);
      List.iteri
        (fun i row ->
          Alcotest.(check int)
            (Printf.sprintf "%s row %d width" id i)
            cols (List.length row))
        t.E.rows)
    E.specs

(* ------------------------------------------------------------------ *)
(* JSON: emission validates, garbage does not                         *)
(* ------------------------------------------------------------------ *)

let test_json_emitted_validates () =
  let results = List.map (fun id -> E.run_spec ~jobs:2 (spec_exn id)) [ "table5" ] in
  match Bench_json.validate (Bench_json.emit ~scale:E.Quick ~jobs:2 results) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("emitted document rejected: " ^ msg)

let check_invalid name doc =
  match Bench_json.validate doc with
  | Ok () -> Alcotest.fail (name ^ ": accepted")
  | Error _ -> ()

let test_json_rejects_bad_documents () =
  check_invalid "garbage" "not json at all";
  check_invalid "wrong schema"
    {|{"schema":"other/9","scale":"quick","jobs":1,"experiments":[]}|};
  check_invalid "empty experiments"
    {|{"schema":"renofs-bench/1","scale":"quick","jobs":1,"experiments":[]}|};
  check_invalid "bad scale"
    {|{"schema":"renofs-bench/1","scale":"medium","jobs":1,"experiments":[]}|};
  check_invalid "ragged row"
    {|{"schema":"renofs-bench/1","scale":"quick","jobs":1,"experiments":[
       {"id":"x","title":"t","header":["a","b"],
        "rows":[[{"type":"text","value":"only one"}]]}]}|};
  check_invalid "unknown unit"
    {|{"schema":"renofs-bench/1","scale":"quick","jobs":1,"experiments":[
       {"id":"x","title":"t","header":["a"],
        "rows":[[{"type":"int","value":3,"unit":"furlongs"}]]}]}|}

(* Written results come back through the diff reader cell for cell,
   floats exact, including strings that need escaping. *)
let test_json_file_roundtrip () =
  let odd =
    {
      E.r_id = "odd\xc3\xa9";
      r_title = "tab\there \"quoted\"\r\n";
      r_header = [ "a\\b"; "n"; "f" ];
      r_rows =
        [
          [ E.Text "caf\xc3\xa9\x01"; E.Int (42, E.Count); E.Float (0.1234567890123456, E.Ms, 1) ];
          [ E.Text ""; E.Int (-7, E.Bytes); E.Float (1e-300, E.Per_sec, 3) ];
        ];
    }
  in
  let results = [ E.run_spec ~jobs:2 (spec_exn "table5"); odd ] in
  let cell = function
    | E.Text s -> Bench_json.Dtext s
    | E.Int (v, u) -> Bench_json.Dnum (float_of_int v, E.unit_name u)
    | E.Float (v, u, _) -> Bench_json.Dnum (v, E.unit_name u)
  in
  let expected =
    List.map
      (fun (r : E.results) ->
        (r.E.r_id, (r.E.r_header, List.map (List.map cell) r.E.r_rows)))
      results
  in
  let path = Filename.temp_file "renofs_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bench_json.write_file ~scale:E.Quick ~jobs:2 ~path results;
      (match Bench_json.validate_file path with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      match Bench_json.load_for_diff path with
      | Error msg -> Alcotest.fail msg
      | Ok back -> Alcotest.(check bool) "cells read back exactly" true (back = expected))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sweep"
    [
      ( "pool",
        [
          Alcotest.test_case "cell-index order" `Quick test_sweep_order;
          Alcotest.test_case "empty" `Quick test_sweep_empty;
          Alcotest.test_case "oversubscription" `Quick test_sweep_oversubscription;
          Alcotest.test_case "uneven cells" `Quick test_sweep_uneven_cells;
          Alcotest.test_case "lowest-index exception" `Quick
            test_sweep_exn_lowest_index;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "graph1 serial = parallel" `Quick
            (test_determinism "graph1");
          Alcotest.test_case "table5 serial = parallel" `Quick
            (test_determinism "table5");
          Alcotest.test_case "trace merge" `Quick test_trace_merge_equivalence;
          Alcotest.test_case "observer fork/join" `Quick test_observer_fork_join;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lookup covers specs" `Quick
            test_registry_lookup_covers_specs;
          Alcotest.test_case "metadata" `Quick test_registry_metadata;
          Alcotest.test_case "tables well-formed" `Quick
            test_registry_tables_well_formed;
        ] );
      ( "json",
        [
          Alcotest.test_case "emitted validates" `Quick test_json_emitted_validates;
          Alcotest.test_case "rejects bad documents" `Quick
            test_json_rejects_bad_documents;
          Alcotest.test_case "file roundtrip" `Quick test_json_file_roundtrip;
        ] );
    ]
