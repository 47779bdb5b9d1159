(* The traced pass: the benchmark's own op spans, the existing [Trace]
   sink on every host, and the [Profile] probe on the sim.  Spans are
   kept in memory and written out when the pass ends. *)

module W = Workload
module Sim = Renofs_engine.Sim
module Trace = Renofs_trace.Trace
module Profile = Renofs_profile.Profile

(* One RPC, joined from its client-side and server-side records. *)
type rpc_span = {
  r_node : int;
  r_xid : int32;
  r_proc : int;
  r_start : float;  (** first transmission *)
  r_end : float;  (** reply *)
  r_rtx_wait : float;  (** first to last transmission, capped at the total *)
  r_srv_wait : float;
  r_service : float;
}

type partial = {
  pt_node : int;
  pt_proc : int;
  pt_first : float;
  mutable pt_last : float;
  mutable pt_wait : float;
  mutable pt_service : float;
}

(* [Trace.Report.spans] joins records by xid alone, but every
   [Client_transport] numbers its calls from 1, so in a world with
   several clients two outstanding RPCs can share an xid.  This join
   keys client records by (node, xid) and gives a server record to the
   client whose latest transmission of that xid came last before the
   request reached the server (server record time minus queue wait). *)
let rpc_spans records =
  let pending : (int * int32, partial) Hashtbl.t = Hashtbl.create 1024 in
  let by_xid : (int32, int list) Hashtbl.t = Hashtbl.create 1024 in
  let nodes_of xid = Option.value (Hashtbl.find_opt by_xid xid) ~default:[] in
  let owner xid arrived =
    List.fold_left
      (fun best n ->
        match Hashtbl.find_opt pending (n, xid) with
        | Some p when p.pt_last <= arrived -> (
            match best with Some b when b.pt_last >= p.pt_last -> best | _ -> Some p)
        | _ -> best)
      None (nodes_of xid)
  in
  let out = ref [] and incomplete = ref 0 in
  List.iter
    (fun (r : Trace.record_) ->
      match r.Trace.ev with
      | Trace.Rpc_send { xid; proc } ->
          if Hashtbl.mem pending (r.node, xid) then incr incomplete
          else Hashtbl.replace by_xid xid (r.node :: nodes_of xid);
          Hashtbl.replace pending (r.node, xid)
            { pt_node = r.node; pt_proc = proc; pt_first = r.time; pt_last = r.time; pt_wait = 0.0; pt_service = 0.0 }
      | Trace.Rpc_retransmit { xid; _ } -> (
          match Hashtbl.find_opt pending (r.node, xid) with
          | Some p -> p.pt_last <- r.time
          | None -> ())
      | Trace.Srv_queue { xid; wait; _ } -> (
          match owner xid (r.time -. wait) with Some p -> p.pt_wait <- wait | None -> ())
      | Trace.Srv_service { xid; service; _ } -> (
          match owner xid (r.time -. service) with Some p -> p.pt_service <- service | None -> ())
      | Trace.Rpc_reply { xid; _ } -> (
          match Hashtbl.find_opt pending (r.node, xid) with
          | Some p ->
              Hashtbl.remove pending (r.node, xid);
              Hashtbl.replace by_xid xid (List.filter (( <> ) r.node) (nodes_of xid));
              let total = r.time -. p.pt_first in
              out :=
                {
                  r_node = p.pt_node;
                  r_xid = xid;
                  r_proc = p.pt_proc;
                  r_start = p.pt_first;
                  r_end = r.time;
                  r_rtx_wait = Float.min total (p.pt_last -. p.pt_first);
                  r_srv_wait = p.pt_wait;
                  r_service = p.pt_service;
                }
                :: !out
          | None -> ())
      | _ -> ())
    records;
  (List.rev !out, !incomplete + Hashtbl.length pending)

let wire r =
  Float.max 0.0 (r.r_end -. r.r_start -. r.r_rtx_wait -. r.r_srv_wait -. r.r_service)

(* Parentage of RPC spans under op spans on the same client node.  An
   RPC is enclosed when some op of its node was open for its whole span.
   Only reads and writes may escape: biods issue read-ahead and
   write-behind after the op that asked for them has returned.  Every
   other procedure is called synchronously by the op itself, so an
   unenclosed one breaks the span hierarchy. *)
let async_procs = [ 6 (* read *); 8 (* write *); 20 (* write3 *) ]

let parentage (ops : W.op_span array) rpcs =
  let by_node = Hashtbl.create 8 in
  Array.iter
    (fun (o : W.op_span) ->
      Hashtbl.replace by_node o.W.o_node
        (o :: Option.value (Hashtbl.find_opt by_node o.W.o_node) ~default:[]))
    ops;
  (* Per node: op starts sorted, with the running maximum of their ends. *)
  let index =
    Hashtbl.fold
      (fun node l acc ->
        let a = Array.of_list l in
        Array.sort (fun (x : W.op_span) y -> Float.compare x.W.o_start y.W.o_start) a;
        let starts = Array.map (fun (o : W.op_span) -> o.W.o_start) a in
        let maxend = Array.make (Array.length a) neg_infinity in
        Array.iteri
          (fun i (o : W.op_span) ->
            maxend.(i) <- Float.max o.W.o_end (if i = 0 then neg_infinity else maxend.(i - 1)))
          a;
        (node, (starts, maxend)) :: acc)
      by_node []
  in
  (* The latest end among ops of [node] started at or before [t]. *)
  let reach node t =
    match List.assoc_opt node index with
    | None -> neg_infinity
    | Some (starts, maxend) ->
        let lo = ref 0 and hi = ref (Array.length starts) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if starts.(mid) <= t then lo := mid + 1 else hi := mid
        done;
        if !lo = 0 then neg_infinity else maxend.(!lo - 1)
  in
  List.fold_left
    (fun (broken, async) r ->
      if reach r.r_node r.r_start >= r.r_end then (broken, async)
      else if List.mem r.r_proc async_procs then (broken, async + 1)
      else (broken + 1, async))
    (0, 0) rpcs

type result = {
  pass : W.pass;
  rpcs : rpc_span list;
  incomplete : int;
  unenclosed : int;  (** synchronous RPCs outside every op span: must be 0 *)
  async_rpcs : int;  (** biod reads and writes outside every op span *)
  trace_dropped : int;
  profile : Profile.snapshot;
}

let trace_capacity = 1 lsl 20

let run inp =
  let tr = Trace.create ~capacity:trace_capacity () in
  Trace.set_enabled tr false;
  (* Set-up runs under a throwaway profile, so events queued then carry
     slot tags; measurement swaps in a fresh one, whose self-times then
     cover exactly its start/stop window. *)
  let setup_probe = Profile.probe (Profile.create ()) in
  Trace.set_probe tr (Some setup_probe);
  let prof = Profile.create () in
  let probe = Profile.probe prof in
  let pass =
    W.run_pass ~probe:setup_probe ~trace:tr
      ~on_measure:(fun w ->
        Profile.start prof;
        Sim.set_probe w.W.sim (Some probe);
        Trace.set_probe tr (Some probe);
        Trace.set_enabled tr true;
        Trace.mark tr ~time:(Sim.now w.W.sim) (W.to_string inp.W.name))
      ~on_end:(fun _ ->
        Profile.stop prof;
        Trace.set_enabled tr false)
      inp
  in
  let rpcs, incomplete = rpc_spans (Trace.to_list tr) in
  let unenclosed, async_rpcs = parentage pass.W.p_spans rpcs in
  {
    pass;
    rpcs;
    incomplete;
    unenclosed;
    async_rpcs;
    trace_dropped = Trace.dropped tr;
    profile = Profile.snapshot prof;
  }

(* Self-times must sum to the profiled wall: the accounting rule. *)
let profile_conserved s =
  let sum = List.fold_left (fun a sl -> a +. sl.Profile.ss_self_s) 0.0 s.Profile.p_slots in
  Float.abs (sum -. s.Profile.p_wall_s) <= (1e-6 *. s.Profile.p_wall_s) +. 1e-9

(* Op spans and their RPC children, one JSON object a line. *)
let write_spans path res =
  let oc = open_out path in
  Array.iteri
    (fun i (o : W.op_span) ->
      Printf.fprintf oc
        "{\"span\":\"op\",\"op\":%d,\"node\":%d,\"start\":%.9g,\"end\":%.9g,\"ok\":%b,\"measured\":%b}\n"
        i o.W.o_node o.W.o_start o.W.o_end o.W.o_ok o.W.o_measured)
    res.pass.W.p_spans;
  List.iter
    (fun r ->
      Printf.fprintf oc
        "{\"span\":\"rpc\",\"node\":%d,\"xid\":%ld,\"proc\":%S,\"start\":%.9g,\"end\":%.9g,\"wire\":%.9g,\"queue\":%.9g,\"service\":%.9g,\"rtx_wait\":%.9g}\n"
        r.r_node r.r_xid (Trace.proc_name r.r_proc) r.r_start r.r_end (wire r) r.r_srv_wait
        r.r_service r.r_rtx_wait)
    res.rpcs;
  close_out oc
