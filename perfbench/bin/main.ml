(* renofs benchmark program.

     main.exe --workload wan-lookup|lan-read|lan-write --seed N
              --seconds S --trace 0|1 [--spans FILE]

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
   metrics of a separate traced run.  The last line of standard output
   is one JSON object; the exit code is non-zero when any output was
   wrong. *)

module W = Renofs_perfbench.Workload
module Bench = Renofs_perfbench.Bench

(* failed_op_ratio is printed but left out of the JSON result, whose
   metrics must never read 0: failures are in its "failed" count. *)
let e2e_json m = m.Bench.name <> "failed_op_ratio"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " wan-lookup | lan-read | lan-write");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " host seconds to measure");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--spans", Arg.Set_string spans, " with --trace 1, write op and RPC spans here (JSONL)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  match W.of_string !workload with
  | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  | Some name ->
      let inp = W.generate name ~seed:!seed in
      let o, keep =
        if !trace = 0 then (Bench.end_to_end ~seconds:!seconds inp, e2e_json)
        else
          ( Bench.per_layer
              ?spans_out:(if !spans = "" then None else Some !spans)
              ~seconds:!seconds inp,
            fun _ -> true )
      in
      Bench.print ~keep o;
      if o.Bench.problems <> [] then exit 1
