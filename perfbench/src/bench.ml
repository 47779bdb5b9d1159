(* One benchmark run: repeated passes of one workload for a host-time
   budget, then either the end-to-end metrics (untraced) or the
   per-layer metrics (one more pass, traced, plus the layer replays). *)

module W = Workload
module Profile = Renofs_profile.Profile

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name value unit_ = { name; value; unit_; note }

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b > 0.0 then a /. b else 0.0

type outcome = {
  workload : W.name;
  metrics : metric list;
  attempted : int;
  failed : int;
  problems : string list;  (** correctness failures; empty when correct *)
  info : string list;  (** notes printed beside the metrics *)
}

(* A warm-up pass, then passes until [budget] host seconds are spent,
   at least [min_passes] of them.  The warm-up pass gives the simulated-
   clock metrics and the peak heap; the timed passes give host times.
   The reference workload runs before the first timed pass and after
   every one; each timed pass is scaled by the two reference times
   around it. *)
type timed = { pass : W.pass; scale : float }

let passes ~budget ~min_passes inp =
  let t0 = Unix.gettimeofday () in
  let first = W.run_pass inp in
  let rec go acc before =
    if List.length acc >= min_passes && Unix.gettimeofday () -. t0 >= budget then List.rev acc
    else begin
      let pass = W.run_pass inp in
      let after = Reference.run () in
      go ({ pass; scale = Reference.scale ~before ~after } :: acc) after
    end
  in
  (first, go [] (Reference.run ()))

(* Every pass of a seed must reproduce the first on the simulated clock. *)
let determinism_problems = function
  | [] -> []
  | first :: rest ->
      if List.for_all (fun p -> W.fingerprint p = W.fingerprint first) rest then []
      else [ "passes with the same seed disagree on simulated-clock metrics or counts" ]

let correctness_problems ps =
  List.concat_map
    (fun p ->
      if p.W.p_mismatches > 0 then
        [ Printf.sprintf "%d reads returned bytes other than those stored" p.W.p_mismatches ]
      else [])
    ps
  |> List.sort_uniq compare

(* Set-up is timed on [setup_samples] builds of their own, after the
   passes, with the reference workload run before and after them; the
   median is reported at nominal host speed. *)
let setup_samples = 21

let setup_time inp =
  let before = Reference.run () in
  let times =
    List.init setup_samples (fun _ ->
        Gc.compact ();
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (W.build inp.W.name));
        Unix.gettimeofday () -. t0)
  in
  let measured = median times in
  (measured *. Reference.scale ~before ~after:(Reference.run ()), measured)

let utilization_note (p : W.pass) =
  let win = p.W.p_window in
  match p.W.p_name with
  | W.Wan_lookup ->
      Printf.sprintf "56K line busy %.1f%% of the measured interval"
        (100.0 *. ratio (W.counter p "bottleneck_busy") win)
  | W.Lan_read | W.Lan_write ->
      Printf.sprintf "server CPU busy %.1f%%, disk busy %.1f%% of the measured interval"
        (100.0 *. ratio (W.counter p "cpu_server") win)
        (100.0 *. ratio (W.counter p "disk_busy") win)

let loop_note inp =
  match inp.W.name with
  | W.Wan_lookup | W.Lan_read ->
      Printf.sprintf
        "open loop, Poisson %.0f ops/s for %.0f sim-s after a %.0f sim-s warm-up; latency from each op's due time (the generator is never late: arrivals fire at their due events)"
        inp.W.cfg.W.rate inp.W.cfg.W.duration inp.W.cfg.W.warmup
  | W.Lan_write ->
      Printf.sprintf
        "closed loop, %d clients, iterations started in %.0f sim-s after a %.0f sim-s warm-up; latency from iteration start"
        (W.clients inp.W.name) inp.W.cfg.W.duration inp.W.cfg.W.warmup

(* ------------------------------------------------------------------ *)
(* End-to-end                                                          *)
(* ------------------------------------------------------------------ *)

let end_to_end ~seconds inp =
  let p, ts = passes ~budget:seconds ~min_passes:3 inp in
  let ps = p :: List.map (fun t -> t.pass) ts in
  let n = p.W.p_ops in
  let events p = W.counter p "events" in
  (* Host times at nominal host speed, one per pass. *)
  let walls = List.map (fun t -> t.pass.W.p_wall_s *. t.scale) ts in
  let per_pass f = median (List.map2 (fun t wall -> f t.pass wall) ts walls) in
  let setup, setup_measured = setup_time inp in
  let ops_note = Printf.sprintf "n=%d ops" n in
  let metrics =
    [
      metric "setup_s" setup "s"
        ~note:(Printf.sprintf "median of %d builds, %.4f s as measured" setup_samples setup_measured);
      metric "host_wall_s" (median walls) "s"
        ~note:
          (Printf.sprintf "median of %d passes, %.4f s as measured" (List.length ts)
             (median (List.map (fun t -> t.pass.W.p_wall_s) ts)));
      metric "events_per_s" (per_pass (fun p wall -> events p /. wall)) "1/s"
        ~note:(Printf.sprintf "%.0f events a pass" (events p));
      metric "rpcs_per_s" (per_pass (fun p wall -> W.counter p "server_rpcs" /. wall)) "1/s"
        ~note:(Printf.sprintf "%.0f RPCs served a pass" (W.counter p "server_rpcs"));
      metric "minor_words_per_event" (median (List.map (fun p -> p.W.p_minor_words /. events p) ps)) "words";
      (* Read before the reference workload first runs. *)
      metric "peak_heap_mb" p.W.p_peak_heap_mb "MB";
      metric "sim_op_p50_ms" (W.quantile p.W.p_latency_ms 0.5) "ms" ~note:ops_note;
      metric "sim_op_p99_ms" (W.quantile p.W.p_latency_ms 0.99) "ms" ~note:ops_note;
      metric "sim_ops_per_s" (ratio (float_of_int n) p.W.p_window) "1/s"
        ~note:(Printf.sprintf "over %.1f sim-s" p.W.p_window);
      metric "rpcs_per_op" (ratio (W.counter p "client_rpcs") (float_of_int n)) "count";
      metric "failed_op_ratio" (ratio (float_of_int p.W.p_failed) (float_of_int n)) "ratio"
        ~note:ops_note;
    ]
  in
  {
    workload = inp.W.name;
    metrics;
    attempted = List.fold_left (fun a p -> a + p.W.p_ops) 0 ps;
    failed = List.fold_left (fun a p -> a + p.W.p_failed) 0 ps;
    problems = correctness_problems ps @ determinism_problems ps;
    info = [ loop_note inp; utilization_note p ];
  }

(* ------------------------------------------------------------------ *)
(* Per layer                                                           *)
(* ------------------------------------------------------------------ *)

let counter_metrics (p : W.pass) =
  let c = W.counter p in
  let ops = float_of_int p.W.p_ops in
  let win = p.W.p_window in
  let per_op k = ratio (c k) ops in
  let hit h m = ratio (c h) (c h +. c m) in
  let m = metric in
  [
    m "engine.events_per_op" (per_op "events") "count";
    m "cpu.server_busy_frac" (ratio (c "cpu_server") win) "ratio";
    m "cpu.client_busy_frac"
      (ratio (c "cpu_clients") (win *. float_of_int (W.clients p.W.p_name)))
      "ratio";
    m "mbuf.bytes_copied_per_op" (per_op "bytes_copied") "bytes";
    m "mbuf.pool_hit_ratio" (ratio (c "pool_hits") (c "mbufs_allocated")) "ratio";
    m "link.packets_per_op" (per_op "link_packets") "count";
    m "link.bytes_per_op" (per_op "link_bytes") "bytes";
    m "link.queue_drops" (c "queue_drops") "count";
    m "link.bottleneck_busy_frac" (ratio (c "bottleneck_busy") win) "ratio";
    m "ipfrag.fragmented_share" (1.0 -. ratio (c "host_datagrams") (c "host_packets")) "ratio";
    m "ipfrag.reassembly_timeouts" (c "reassembly_timeouts") "count";
    m "rpc.retransmit_ratio" (ratio (c "retransmits") (c "calls")) "ratio";
    m "rpc.garbled" (c "garbled") "count";
    m "udp.checksum_drops" (c "udp_checksum_drops") "count";
    m "rpc.mean_rtt_ms" (1000.0 *. ratio (c "rtt_sum") (c "calls")) "ms";
    m "attrcache.hit_ratio" (hit "attr_hits" "attr_misses") "ratio";
    m "client_namecache.hit_ratio" (hit "cnc_hits" "cnc_misses") "ratio";
    m "nfs_server.duplicates_dropped" (c "duplicates_dropped") "count";
    m "bcache.hit_ratio" (hit "bcache_hits" "bcache_misses") "ratio";
    m "server_namecache.hit_ratio" (hit "snc_hits" "snc_misses") "ratio";
    m "disk.reads_per_op" (per_op "disk_reads") "count";
    m "disk.writes_per_op" (per_op "disk_writes") "count";
    m "disk.busy_frac" (ratio (c "disk_busy") win) "ratio";
  ]
  @ List.map (fun proc -> m ("nfs_client.rpcs_per_op." ^ proc) (per_op ("issued." ^ proc)) "count") W.procs
  @ List.map
      (fun proc ->
        m ("nfs_server.service_ms." ^ proc)
          (1000.0 *. ratio (c ("svc_sum." ^ proc)) (c ("svc_n." ^ proc)))
          "ms")
      W.procs

(* Replay times are scaled to nominal host speed like the passes, by
   the reference workload run before and after the whole set. *)
let replay_metrics inp (p : W.pass) =
  let before = Reference.run () in
  let sched = Replay.sim_schedule_fire p and cancel = Replay.sim_timer_cancel p in
  let of_bytes = Replay.mbuf_of_bytes inp and checksum = Replay.mbuf_checksum inp in
  let mix = Replay.call_mix inp p in
  let call = Replay.xdr_call mix and reply = Replay.xdr_reply mix in
  let frag = Replay.fragment_reassemble inp and bcache = Replay.bcache_lookup_insert inp in
  let lookup, read, write = Replay.fs_ops inp in
  let scale = Reference.scale ~before ~after:(Reference.run ()) in
  let ns name (r : Replay.cost) = metric name (r.Replay.ns *. scale) "ns" in
  let cost prefix (r : Replay.cost) =
    [ ns (prefix ^ "_ns") r; metric (prefix ^ "_words") r.Replay.words "words" ]
  in
  cost "sim.schedule_fire" sched
  @ cost "sim.timer_cancel" cancel
  @ [
      ns "mbuf.of_bytes_8k_ns" of_bytes;
      metric "mbuf.words_per_8k_chain" of_bytes.Replay.words "words";
    ]
  @ cost "mbuf.checksum_8k" checksum
  @ [
      ns "xdr.call_roundtrip_ns" call;
      ns "xdr.reply_roundtrip_ns" reply;
      metric "xdr.words_per_msg" ((call.Replay.words +. reply.Replay.words) /. 2.0) "words";
    ]
  @ cost "ipfrag.fragment_reassemble_8k" frag
  @ cost "bcache.lookup_insert" bcache
  @ cost "fs.lookup" lookup @ cost "fs.read_8k" read @ cost "fs.write_8k" write

let slots = [ "harness"; "scheduler"; "cpu"; "link"; "transport"; "server"; "vfs"; "observer" ]

let traced_metrics (t : Traced.result) ~traced_wall ~untraced_wall =
  let rpcs = t.Traced.rpcs in
  let n = float_of_int (List.length rpcs) in
  let mean f = 1000.0 *. ratio (List.fold_left (fun a r -> a +. f r) 0.0 rpcs) n in
  let s = t.Traced.profile in
  let self name =
    match List.find_opt (fun sl -> sl.Profile.ss_name = name) s.Profile.p_slots with
    | Some sl -> sl.Profile.ss_self_s
    | None -> 0.0
  in
  [
    metric "rpc.wire_ms" (mean Traced.wire) "ms";
    metric "server.queue_wait_ms" (mean (fun r -> r.Traced.r_srv_wait)) "ms";
    metric "server.service_ms" (mean (fun r -> r.Traced.r_service)) "ms";
    metric "rpc.rtx_wait_ms" (mean (fun r -> r.Traced.r_rtx_wait)) "ms";
    metric "trace.async_rpcs" (float_of_int t.Traced.async_rpcs) "count";
    metric "trace.overhead" (ratio traced_wall untraced_wall) "x";
    metric "profile.wall_s" s.Profile.p_wall_s "s";
  ]
  @ List.map (fun sl -> metric ("host_self_s." ^ sl) (self sl) "s") slots
  @ [ metric "host_self_share.scheduler" (ratio (self "scheduler") s.Profile.p_wall_s) "ratio" ]

let traced_problems (t : Traced.result) =
  List.filter_map
    (fun (bad, msg) -> if bad then Some msg else None)
    [
      (not (Traced.profile_conserved t.Traced.profile), "profile self-times do not sum to profiled wall");
      ( t.Traced.unenclosed > 0,
        Printf.sprintf "%d synchronous RPC spans lie outside every op span of their node"
          t.Traced.unenclosed );
      (t.Traced.trace_dropped > 0, Printf.sprintf "trace ring overwrote %d records" t.Traced.trace_dropped);
      (t.Traced.rpcs = [], "traced pass recorded no RPC spans");
    ]

let per_layer ?spans_out ~seconds inp =
  let p, ts = passes ~budget:(seconds /. 2.0) ~min_passes:2 inp in
  let ps = p :: List.map (fun t -> t.pass) ts in
  let untraced_wall = median (List.map (fun t -> t.pass.W.p_wall_s *. t.scale) ts) in
  let before = Reference.run () in
  let t = Traced.run inp in
  let traced_wall =
    t.Traced.pass.W.p_wall_s *. Reference.scale ~before ~after:(Reference.run ())
  in
  Option.iter (fun path -> Traced.write_spans path t) spans_out;
  let all = ps @ [ t.Traced.pass ] in
  {
    workload = inp.W.name;
    metrics = counter_metrics p @ replay_metrics inp p @ traced_metrics t ~traced_wall ~untraced_wall;
    attempted = List.fold_left (fun a p -> a + p.W.p_ops) 0 all;
    failed = List.fold_left (fun a p -> a + p.W.p_failed) 0 all;
    problems = correctness_problems all @ determinism_problems all @ traced_problems t;
    info =
      [
        loop_note inp;
        utilization_note p;
        Printf.sprintf
          "traced pass: %d op spans, %d RPC spans, %d unanswered, %d biod RPCs outside every op span"
          (Array.length t.Traced.pass.W.p_spans) (List.length t.Traced.rpcs) t.Traced.incomplete
          t.Traced.async_rpcs;
        Printf.sprintf
          "tracing overhead %.2fx (traced %.3f s over untraced median %.3f s, at nominal host speed)"
          (ratio traced_wall untraced_wall) traced_wall untraced_wall;
      ];
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

(* [keep] names the metrics the JSON result carries. *)
let print ?(keep = fun _ -> true) o =
  Printf.printf "workload %s\n" (W.to_string o.workload);
  List.iter (fun s -> Printf.printf "  # %s\n" s) o.info;
  List.iter
    (fun m ->
      Printf.printf "  %-36s %14.6g %-6s %s\n" m.name m.value m.unit_
        (if m.note = "" then "" else "(" ^ m.note ^ ")"))
    o.metrics;
  List.iter (fun s -> Printf.printf "  ERROR: %s\n" s) o.problems;
  let body =
    List.filter keep o.metrics
    |> List.map (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value) m.unit_)
    |> String.concat ", "
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.problems = []) o.attempted o.failed body
