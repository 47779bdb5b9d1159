(* The benchmark's own checks, on shortened workloads: passes repeat
   exactly for a seed, seeds change the inputs, and the traced pass
   keeps its accounting rules. *)

module W = Renofs_perfbench.Workload
module Traced = Renofs_perfbench.Traced
module Profile = Renofs_profile.Profile

let short = function
  | W.Wan_lookup -> { W.warmup = 5.0; duration = 40.0; rate = 16.0 }
  | W.Lan_read -> { W.warmup = 5.0; duration = 30.0; rate = 25.0 }
  | W.Lan_write -> { W.warmup = 5.0; duration = 60.0; rate = 0.0 }

let inputs name seed = W.generate ~cfg:(short name) name ~seed

let same_seed_repeats name () =
  let inp = inputs name 11 in
  let a = W.run_pass inp and b = W.run_pass inp in
  Alcotest.(check bool) "some ops measured" true (a.W.p_ops > 0);
  Alcotest.(check int) "no failed ops" 0 a.W.p_failed;
  Alcotest.(check bool) "identical simulated-clock fingerprint" true
    (W.fingerprint a = W.fingerprint b);
  Alcotest.(check (float 0.0)) "identical event count" (W.counter a "events") (W.counter b "events");
  Alcotest.(check (float 0.0)) "identical RPC count" (W.counter a "server_rpcs")
    (W.counter b "server_rpcs")

let dues inp = Array.map (fun a -> a.W.due) inp.W.arrivals

let seed_changes_schedule () =
  List.iter
    (fun name ->
      Alcotest.(check bool) "same seed, same arrivals" true
        (dues (inputs name 1) = dues (inputs name 1));
      Alcotest.(check bool) "other seed, other arrivals" false
        (dues (inputs name 1) = dues (inputs name 2)))
    [ W.Wan_lookup; W.Lan_read ];
  let thinks inp = Array.map (Array.map (fun it -> it.W.think)) inp.W.iterations in
  Alcotest.(check bool) "other seed, other closed-loop schedule" false
    (thinks (inputs W.Lan_write 1) = thinks (inputs W.Lan_write 2))

let mismatch_detected () =
  let expect = Bytes.of_string "abcdefgh" in
  Alcotest.(check bool) "equal slice" true (W.same_bytes ~expect ~off:2 (Bytes.of_string "cdef"));
  Alcotest.(check bool) "one byte off" false (W.same_bytes ~expect ~off:2 (Bytes.of_string "cdeg"));
  Alcotest.(check bool) "past the end" false (W.same_bytes ~expect ~off:6 (Bytes.of_string "ghi"))

let traced_pass_rules name () =
  let t = Traced.run (inputs name 5) in
  Alcotest.(check bool) "RPC spans recorded" true (t.Traced.rpcs <> []);
  Alcotest.(check int) "trace ring kept every record" 0 t.Traced.trace_dropped;
  Alcotest.(check int) "synchronous RPCs inside an op span" 0 t.Traced.unenclosed;
  Alcotest.(check bool) "self-times sum to profiled wall" true
    (Traced.profile_conserved t.Traced.profile);
  List.iter
    (fun r -> Alcotest.(check bool) "RPC parts within its span" true (Traced.wire r >= 0.0))
    t.Traced.rpcs

let per_workload f =
  List.map (fun (s, name) -> Alcotest.test_case s `Quick (f name)) W.names

let () =
  Alcotest.run "perfbench"
    [
      ("determinism", per_workload same_seed_repeats);
      ( "inputs",
        [
          Alcotest.test_case "seed changes the schedule" `Quick seed_changes_schedule;
          Alcotest.test_case "content mismatch detected" `Quick mismatch_detected;
        ] );
      ("traced", per_workload traced_pass_rules);
    ]
