(* Wall-clock performance harness: how fast does the simulator itself
   run?  Everything else in this library gates *simulated* latencies;
   this module measures and gates events-per-second and RPCs-per-second
   of real time over a fixed cell set (the graph5 full sweep — the
   timer-heavy 56K WAN world whose RTO churn exercises the scheduler
   hardest), so engine speedups are earned once and then kept by
   `make perf-gate`. *)

module Sim = Renofs_engine.Sim
module Nfs_server = Renofs_core.Nfs_server
module Json = Renofs_json.Json
module Profile = Renofs_profile.Profile
module E = Experiments

type cell = {
  c_label : string;
  c_wall_s : float;
  c_events : int;
  c_rpcs : int;
}

type t = {
  cells : cell list;
  wall_s : float;
  events : int;
  rpcs : int;
  events_per_s : float;
  rpcs_per_s : float;
  p_profile : Profile.snapshot option;
}

(* The graph5 full matrix: 6 loads x 3 transports over the 56K WAN
   topology, 120 sim-seconds per cell after an 8 s warmup — the cells
   `nfsbench run graph5 -f` measures, with no trace or metrics sink so
   the gate times the detached fast path. *)
let measure ?profile (label, run) =
  let ctx =
    { E.trace = None; faults = None; metrics = None; profile; cell_label = label }
  in
  let t0 = Unix.gettimeofday () in
  let world, _ = run ctx in
  {
    c_label = label;
    c_wall_s = Unix.gettimeofday () -. t0;
    c_events = Sim.events_processed world.E.sim;
    c_rpcs = Nfs_server.rpcs_served world.E.server;
  }

(* Each cell's wall time is its best pass: noise only ever adds time.
   Counts are deterministic, so passes that disagree are an error. *)
let best_of passes =
  let first = List.hd passes in
  let differs (a, b) = (a.c_events, a.c_rpcs) <> (b.c_events, b.c_rpcs) in
  match
    List.concat_map (fun p -> List.filter differs (List.combine first p)) passes
  with
  | (a, b) :: _ ->
      Error
        (Printf.sprintf
           "%s: passes disagree (%d events, %d RPCs vs %d, %d): the simulation \
            is not deterministic"
           a.c_label a.c_events a.c_rpcs b.c_events b.c_rpcs)
  | [] ->
      let best i =
        List.fold_left (fun w p -> Float.min w (List.nth p i).c_wall_s) infinity passes
      in
      Ok (List.mapi (fun i c -> { c with c_wall_s = best i }) first)

(* Each cell's wall time is the best of this many passes. *)
let repeats = 3

let run ?(progress = ignore) ?(profile = false) () =
  let runs = E.graph5_runs E.Full in
  let pass i =
    List.map
      (fun ((label, _) as r) ->
        progress (Printf.sprintf "%s (pass %d/%d)" label i repeats);
        measure r)
      runs
  in
  match best_of (List.init repeats (fun i -> pass (i + 1))) with
  | Error _ as e -> e
  | Ok cells ->
      (* The gate timings above run detached.  Attribution comes from a
         second, probed pass over the same cells — it never pollutes
         the rates the baseline compares. *)
      let p_profile =
        if not profile then None
        else begin
          let p = Profile.create () in
          List.iter
            (fun (label, run) ->
              progress (label ^ "+prof");
              Profile.start p;
              ignore (measure ~profile:p (label, run));
              Profile.stop p)
            runs;
          Some (Profile.snapshot p)
        end
      in
      let wall_s = List.fold_left (fun a c -> a +. c.c_wall_s) 0.0 cells in
      let events = List.fold_left (fun a c -> a + c.c_events) 0 cells in
      let rpcs = List.fold_left (fun a c -> a + c.c_rpcs) 0 cells in
      let per_s n = if wall_s > 0.0 then float_of_int n /. wall_s else 0.0 in
      Ok
        {
          cells;
          wall_s;
          events;
          rpcs;
          events_per_s = per_s events;
          rpcs_per_s = per_s rpcs;
          p_profile;
        }

(* ------------------------------------------------------------------ *)
(* renofs-perf/1 JSON                                                 *)
(* ------------------------------------------------------------------ *)

let to_json r =
  let int n = Json.Num (float_of_int n) in
  let cell c =
    Json.Obj
      [
        ("label", Str c.c_label);
        ("wall_s", Num c.c_wall_s);
        ("events", int c.c_events);
        ("rpcs", int c.c_rpcs);
      ]
  in
  Json.Obj
    ([
       ("schema", Json.Str "renofs-perf/1");
       ("wall_s", Num r.wall_s);
       ("events", int r.events);
       ("rpcs", int r.rpcs);
       ("events_per_s", Num r.events_per_s);
       ("rpcs_per_s", Num r.rpcs_per_s);
       ("cells", Arr (List.map cell r.cells));
     ]
    @ match r.p_profile with Some s -> [ ("profile", Profile.to_json s) ] | None -> [])

let emit r = Json.document (to_json r)

let write_file ~path r =
  let oc = open_out path in
  output_string oc (emit r);
  close_out oc

let of_json ~ctx j =
  let o = Json.obj ~ctx j in
  (match Json.str ~ctx (Json.member ~ctx "schema" o) with
  | "renofs-perf/1" -> ()
  | s -> raise (Json.Bad (Printf.sprintf "%s: unsupported schema %S" ctx s)));
  let num name = Json.num ~ctx (Json.member ~ctx name o) in
  let cells =
    List.map
      (fun cj ->
        let co = Json.obj ~ctx cj in
        let cnum name = Json.num ~ctx (Json.member ~ctx name co) in
        {
          c_label = Json.str ~ctx (Json.member ~ctx "label" co);
          c_wall_s = cnum "wall_s";
          c_events = int_of_float (cnum "events");
          c_rpcs = int_of_float (cnum "rpcs");
        })
      (Json.arr ~ctx (Json.member ~ctx "cells" o))
  in
  let p_profile =
    Option.map
      (Profile.of_json ~ctx:(ctx ^ ".profile"))
      (Json.member_opt "profile" o)
  in
  {
    cells;
    wall_s = num "wall_s";
    events = int_of_float (num "events");
    rpcs = int_of_float (num "rpcs");
    events_per_s = num "events_per_s";
    rpcs_per_s = num "rpcs_per_s";
    p_profile;
  }

let read_file path = Json.decode_file path (of_json ~ctx:path)

(* The gate: wall-clock throughput may wobble with container noise, so
   only a large drop (default 30%) in either rate counts as a
   regression.  Simulated-event and RPC counts are deterministic and
   gated exactly, aggregate and per cell: a count drift means the
   workload changed and the baseline needs a deliberate refresh. *)
type verdict = {
  regressions : string list;
  notes : string list;
}

let words_tolerance = 0.01

let diff ~tolerance ~baseline ~current =
  let regressions = ref [] and notes = ref [] in
  let add r fmt = Printf.ksprintf (fun s -> r := s :: !r) fmt in
  let rate name old_v new_v =
    if old_v > 0.0 then begin
      let change = (new_v -. old_v) /. old_v *. 100.0 in
      if new_v < old_v *. (1.0 -. tolerance) then
        add regressions "%s: %.0f -> %.0f (%+.1f%%, beyond -%.0f%%)" name old_v
          new_v change (tolerance *. 100.0)
      else add notes "%s: %.0f -> %.0f (%+.1f%%)" name old_v new_v change
    end
  in
  let count what old_n new_n =
    if old_n <> new_n then
      add regressions
        "%s changed: %d -> %d (simulation behavior changed; refresh the \
         baseline deliberately)"
        what old_n new_n
  in
  rate "events/s" baseline.events_per_s current.events_per_s;
  rate "rpcs/s" baseline.rpcs_per_s current.rpcs_per_s;
  count "event count" baseline.events current.events;
  count "rpc count" baseline.rpcs current.rpcs;
  (* Per-cell localization: which cell moved?  Cells are matched by
     label.  A single cell's wall clock is noisier than the aggregate,
     so its rate moves are notes; its counts are gated like the
     aggregate's. *)
  List.iter
    (fun bc ->
      match List.find_opt (fun c -> c.c_label = bc.c_label) current.cells with
      | None -> add regressions "cell %s: gone" bc.c_label
      | Some cc ->
          count ("cell " ^ bc.c_label ^ " event count") bc.c_events cc.c_events;
          count ("cell " ^ bc.c_label ^ " rpc count") bc.c_rpcs cc.c_rpcs;
          let per_s c =
            if c.c_wall_s > 0.0 then float_of_int c.c_events /. c.c_wall_s
            else 0.0
          in
          let b_rate = per_s bc and c_rate = per_s cc in
          if b_rate > 0.0 && c_rate < b_rate *. (1.0 -. tolerance) then
            add notes "cell %s: events/s %.0f -> %.0f (%+.1f%%)" bc.c_label
              b_rate c_rate
              ((c_rate -. b_rate) /. b_rate *. 100.0))
    baseline.cells;
  List.iter
    (fun (cc : cell) ->
      if not (List.exists (fun bc -> bc.c_label = cc.c_label) baseline.cells)
      then add regressions "cell %s: new" cc.c_label)
    current.cells;
  (* Allocation per event repeats to about 0.1% from run to run, so it
     gates almost as tightly as the counts: a rise of more than 1% is a
     regression. *)
  (match (baseline.p_profile, current.p_profile) with
  | Some bp, Some cp ->
      let old_w = Profile.minor_words_per_event bp
      and new_w = Profile.minor_words_per_event cp in
      let change = (new_w -. old_w) /. old_w *. 100.0 in
      if new_w > old_w *. (1.0 +. words_tolerance) then
        add regressions "minor words/event: %.1f -> %.1f (%+.1f%%, beyond +%.0f%%)"
          old_w new_w change (words_tolerance *. 100.0)
      else add notes "minor words/event: %.1f -> %.1f (%+.2f%%)" old_w new_w change
  | _ -> ());
  (* When both sides carry a self-profile, report subsystem-share
     shifts: "events/s fell and the server slot's share doubled" is a
     lead, not just a number that moved. *)
  (match (baseline.p_profile, current.p_profile) with
  | Some bp, Some cp when bp.Profile.p_wall_s > 0.0 && cp.Profile.p_wall_s > 0.0
    ->
      List.iter
        (fun (bs : Profile.slot_stat) ->
          match
            List.find_opt
              (fun (cs : Profile.slot_stat) ->
                cs.Profile.ss_name = bs.Profile.ss_name)
              cp.Profile.p_slots
          with
          | None -> ()
          | Some cs ->
              let b_share = bs.Profile.ss_self_s /. bp.Profile.p_wall_s
              and c_share = cs.Profile.ss_self_s /. cp.Profile.p_wall_s in
              if abs_float (c_share -. b_share) > 0.05 then
                add notes "profile: %s share %.1f%% -> %.1f%%"
                  bs.Profile.ss_name (b_share *. 100.0) (c_share *. 100.0))
        bp.Profile.p_slots
  | _ -> ());
  { regressions = List.rev !regressions; notes = List.rev !notes }
