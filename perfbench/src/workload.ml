(* The three benchmark workloads: seeded inputs, the world each runs in,
   and one measured pass over it.

   Every input comes from the seed: arrival times, op mix, file picks,
   read offsets and write payloads.  The program under test receives
   only [Nfs_client] calls on worlds built with [Topology.build],
   [Nfs_server.create] and [Nfs_client.mount].  The benchmark calls
   [Nfs_client] directly rather than through [Nhfsstone.run], because
   Nhfsstone swallows [Nfs_error] and [Rpc_error] and counts them as
   completed ops; here every failure and every content mismatch is
   counted against the ops attempted. *)

module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Rng = Renofs_engine.Rng
module Cpu = Renofs_engine.Cpu
module Stats = Renofs_engine.Stats
module Mbuf = Renofs_mbuf.Mbuf
module Node = Renofs_net.Node
module Link = Renofs_net.Link
module Topology = Renofs_net.Topology
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module Fs = Renofs_vfs.Fs
module Bcache = Renofs_vfs.Bcache
module Namecache = Renofs_vfs.Namecache
module Disk = Renofs_vfs.Disk
module Nfs_client = Renofs_core.Nfs_client
module Nfs_server = Renofs_core.Nfs_server
module Client_transport = Renofs_core.Client_transport
module Fileset = Renofs_workload.Fileset

type name = Wan_lookup | Lan_read | Lan_write

let names = [ ("wan-lookup", Wan_lookup); ("lan-read", Lan_read); ("lan-write", Lan_write) ]
let to_string n = fst (List.find (fun (_, m) -> m = n) names)
let of_string s = List.assoc_opt s names

type config = {
  warmup : float;  (** simulated seconds run before measurement starts *)
  duration : float;  (** simulated seconds of arrivals (or iterations) measured *)
  rate : float;  (** open-loop offered ops per simulated second; unused when closed *)
}

let default_config = function
  | Wan_lookup -> { warmup = 20.0; duration = 1600.0; rate = 16.0 }
  | Lan_read -> { warmup = 10.0; duration = 600.0; rate = 20.0 }
  | Lan_write -> { warmup = 10.0; duration = 3400.0; rate = 0.0 }

let block = 8192

(* The paper's Create-Delete file size: 12 full 8K blocks and a 4K tail. *)
let write_file_size = 100 * 1024
let write_blocks = (write_file_size + block - 1) / block
let block_len b = min block (write_file_size - (b * block))
let clients = function Wan_lookup -> 1 | Lan_read | Lan_write -> 4

let fileset = function
  | Wan_lookup ->
      (* Names longer than 31 characters defeat both name caches. *)
      Fileset.generate ~dirs:20 ~files_per_dir:20 ~file_size:16384 ~long_names:true
  | Lan_read ->
      (* 400 x 16K = 800 8K blocks against the server's 256-block cache. *)
      Fileset.generate ~dirs:20 ~files_per_dir:20 ~file_size:16384 ~long_names:false
  | Lan_write -> Fileset.generate ~dirs:1 ~files_per_dir:1 ~file_size:8192 ~long_names:false

let mount_opts name client =
  match name with
  | Wan_lookup -> { Nfs_client.reno_tcp_mount with Nfs_client.mss = 512 }
  | Lan_read -> Nfs_client.reno_dynamic_mount
  | Lan_write -> if client < 2 then Nfs_client.reno_mount else Nfs_client.v3_mount

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type op = Lookup | Read of int  (** block index *)

type arrival = { due : float; client : int; file : int; op : op }

type iteration = {
  payload : int array;  (** per block, an index into the payload pool *)
  readback : int;  (** the block read back and compared after close *)
  think : float;  (** simulated seconds the client waits before starting it *)
}

type inputs = {
  name : name;
  cfg : config;
  files : string array;
  file_size : int;
  contents : bytes array;  (** expected bytes of every file (lan-read) *)
  arrivals : arrival array;  (** open loop, sorted by [due] *)
  pool_full : bytes array;  (** write payloads, one 8K block each *)
  pool_tail : bytes array;  (** write payloads for the 4K tail block *)
  iterations : iteration array array;  (** closed loop, per client *)
}

let pool_size = 32

(* Think time between a closed-loop client's iterations, uniform in
   [5 s, 15 s).  Back to back, four clients' 100 KB creates keep the
   server disk over 90% busy and put half-minute retransmission stalls
   into the tail.  At 3-9 s about 1% of iterations still stalled for
   ~9 s, right at the 99th percentile, which then jumped between 6 s
   and 9 s from seed to seed. *)
let think_min = 5.0
let think_max = 15.0

(* Closed-loop clients never get near this many iterations per run; the
   schedule wraps if one ever does. *)
let iterations_per_client = 2048

let random_bytes rng n = Bytes.init n (fun _ -> Char.chr (Rng.int rng 256))

let generate ?cfg name ~seed =
  let cfg = Option.value cfg ~default:(default_config name) in

  let rng = Rng.create seed in
  let fs = fileset name in
  let files = Array.of_list fs.Fileset.files in
  let nfiles = Array.length files in
  let file_size = fs.Fileset.file_size in
  let blocks_per_file = max 1 (file_size / block) in
  let arrivals =
    if cfg.rate <= 0.0 then [||]
    else begin
      let stream = Rng.split rng in
      let acc = ref [] and t = ref (Rng.exponential stream (1.0 /. cfg.rate)) in
      let horizon = cfg.warmup +. cfg.duration in
      (* The read/lookup mix is exactly 50/50: each consecutive pair of
         arrivals holds one of each, in seeded order.  A coin per op would
         let the mix drift by a fraction of a percent per seed, and the
         median sits on the seam between the lookup and read latency
         populations, where that drift moves it by tens of percent. *)
      let read_first = ref false and k = ref 0 in
      while !t < horizon do
        let client = Rng.int stream (clients name) in
        let file = Rng.int stream nfiles in
        if !k mod 2 = 0 then read_first := Rng.bool stream;
        let is_read = if !k mod 2 = 0 then !read_first else not !read_first in
        incr k;
        let op =
          match name with
          | Lan_read when is_read -> Read (Rng.int stream blocks_per_file)
          | _ -> Lookup
        in
        acc := { due = !t; client; file; op } :: !acc;
        t := !t +. Rng.exponential stream (1.0 /. cfg.rate)
      done;
      Array.of_list (List.rev !acc)
    end
  in
  let contents =
    match name with
    | Lan_read -> Array.map (fun path -> Fileset.content ~path ~size:file_size) files
    | _ -> [||]
  in
  let pool_full, pool_tail, iterations =
    match name with
    | Lan_write ->
        let prng = Rng.split rng in
        let full = Array.init pool_size (fun _ -> random_bytes prng block) in
        let tail =
          Array.init pool_size (fun _ -> random_bytes prng (block_len (write_blocks - 1)))
        in
        let iters =
          Array.init (clients name) (fun _ ->
              let crng = Rng.split rng in
              Array.init iterations_per_client (fun _ ->
                  {
                    payload = Array.init write_blocks (fun _ -> Rng.int crng pool_size);
                    readback = Rng.int crng write_blocks;
                    think = Rng.uniform crng think_min think_max;
                  }))
        in
        (full, tail, iters)
    | _ -> ([||], [||], [||])
  in
  { name; cfg; files; file_size; contents; arrivals; pool_full; pool_tail; iterations }

let payload_bytes inp it b =
  if b = write_blocks - 1 then inp.pool_tail.(it.payload.(b)) else inp.pool_full.(it.payload.(b))

(* ------------------------------------------------------------------ *)
(* Worlds                                                              *)
(* ------------------------------------------------------------------ *)

type world = {
  sim : Sim.t;
  topo : Topology.t;
  server : Nfs_server.t;
  server_udp : Udp.stack;
  client_udps : Udp.stack array;
  mounts : Nfs_client.t array;
}

(* Drive the sim in short windows until [cond] holds.  Cross traffic
   never drains the event queue, so a plain [Sim.run] would not stop. *)
let run_until_cond sim cond =
  let guard = ref 0 in
  while not (cond ()) do
    incr guard;
    if !guard > 10_000_000 then failwith "perfbench: simulation never finished";
    Sim.run ~until:(Sim.now sim +. 0.05) sim
  done

(* World build, preload and mount: the set-up the benchmark times.
   [trace] is attached to the hosts only (routers would record every
   forwarded packet, and the RPC spans need only the end hosts). *)
let build ?probe ?trace name =
  let sim = Sim.create () in
  Option.iter (fun p -> Sim.set_probe sim (Some p)) probe;
  let shape = match name with Wan_lookup -> Topology.Wide_area | _ -> Topology.Star in
  let topo =
    Topology.build sim
      { Topology.shape; clients = clients name; params = Topology.default_params }
  in
  let pool = Some (Mbuf.Pool.create ()) in
  let hosts = topo.Topology.servers @ topo.Topology.clients in
  List.iter
    (fun n ->
      let trace = if List.memq n hosts then trace else None in
      Node.attach n { Node.detached with pool; trace })
    topo.Topology.all;
  let server_udp = Udp.install topo.Topology.server in
  let stcp = Tcp.install topo.Topology.server in
  let server =
    Nfs_server.create topo.Topology.server ~profile:Nfs_server.reno_profile
      ~udp:server_udp ~tcp:stcp ()
  in
  Nfs_server.start server;
  let cnodes = Array.of_list topo.Topology.clients in
  let client_udps = Array.map Udp.install cnodes in
  let client_tcps = Array.map Tcp.install cnodes in
  let mounts = ref [||] in
  Proc.spawn sim (fun () ->
      Fileset.preload_server server (fileset name);
      let ms =
        Array.mapi
          (fun i _ ->
            Nfs_client.mount ~udp:client_udps.(i) ~tcp:client_tcps.(i)
              ~server:(Topology.server_id topo)
              ~root:(Nfs_server.root_fhandle server)
              (mount_opts name i))
          cnodes
      in
      if name = Lan_write then
        Array.iteri (fun i m -> Nfs_client.mkdir m (Printf.sprintf "w%d" i)) ms;
      mounts := ms);
  run_until_cond sim (fun () -> Array.length !mounts > 0);
  { sim; topo; server; server_udp; client_udps; mounts = !mounts }

(* ------------------------------------------------------------------ *)
(* Layer counters                                                      *)
(* ------------------------------------------------------------------ *)

(* Procedures broken out per op and per service time. *)
let procs = [ "getattr"; "lookup"; "read"; "write"; "create"; "remove"; "write3"; "commit" ]

(* Every cumulative simulated-time counter the per-layer metrics need,
   read through public accessors.  Deltas of two snapshots give the
   measured phase. *)
let counters w =
  let fsum f l = List.fold_left (fun a x -> a +. f x) 0.0 l in
  let asum f a = Array.fold_left (fun acc x -> acc +. f x) 0.0 a in
  let fi = float_of_int in
  let nodes = w.topo.Topology.all in
  let hosts = w.topo.Topology.servers @ w.topo.Topology.clients in
  let links = List.concat_map Node.links nodes in
  let host_links = List.concat_map Node.links hosts in
  let xports = Array.map Nfs_client.transport w.mounts in
  let fs = Nfs_server.fs w.server in
  let bc = Bcache.stats (Fs.bcache fs) in
  let disk = Fs.disk fs in
  let snc = Option.map Namecache.stats (Fs.namecache fs) in
  let cnc =
    Array.fold_left
      (fun (h, m) mt ->
        match Nfs_client.name_cache_stats mt with
        | Some (a, b) -> (h + a, m + b)
        | None -> (h, m))
      (0, 0) w.mounts
  in
  let ac =
    Array.fold_left
      (fun (h, m) mt ->
        let a, b = Nfs_client.attr_cache_stats mt in
        (h + a, m + b))
      (0, 0) w.mounts
  in
  let copy f = fsum (fun n -> fi (f (Node.copy_counters n))) nodes in
  let summaries = Array.map Client_transport.summary xports in
  let bottleneck =
    match w.topo.Topology.bottleneck with
    | Some l -> Link.busy_time l
    | None ->
        (* Star worlds have no congesting link: take the server's busiest drop. *)
        List.fold_left (fun a l -> Float.max a (Link.busy_time l)) 0.0
          (Node.links w.topo.Topology.server)
  in
  let svc = Nfs_server.service_times w.server in
  let per_proc =
    List.concat_map
      (fun p ->
        let issued = asum (fun m -> fi (Stats.Counter.get (Nfs_client.rpc_counters m) p)) w.mounts in
        let sum, n =
          match List.find_opt (fun (q, _, _) -> q = p) svc with
          | Some (_, mean, n) -> (mean *. fi n, fi n)
          | None -> (0.0, 0.0)
        in
        [ ("issued." ^ p, issued); ("svc_sum." ^ p, sum); ("svc_n." ^ p, n) ])
      procs
  in
  [
    ("events", fi (Sim.events_processed w.sim));
    ("server_rpcs", fi (Nfs_server.rpcs_served w.server));
    ("client_rpcs", asum (fun m -> fi (Stats.Counter.total (Nfs_client.rpc_counters m))) w.mounts);
    ("calls", asum (fun s -> fi s.Client_transport.calls) summaries);
    ("rtt_sum", asum (fun s -> s.Client_transport.mean_rtt *. fi s.Client_transport.calls) summaries);
    ("retransmits", asum (fun x -> fi (Client_transport.retransmits x)) xports);
    ("garbled", asum (fun x -> fi (Client_transport.garbled x)) xports);
    ("cpu_server", Cpu.busy_time (Node.cpu w.topo.Topology.server));
    ("cpu_clients", fsum (fun n -> Cpu.busy_time (Node.cpu n)) w.topo.Topology.clients);
    ("bytes_copied", copy (fun c -> c.Mbuf.Counters.bytes_copied));
    ("mbufs_allocated", copy (fun c -> c.smalls_allocated + c.clusters_allocated));
    ("pool_hits", copy (fun c -> c.pool_hits));
    ("link_packets", fsum (fun l -> fi (Link.stats l).packets_sent) links);
    ("link_bytes", fsum (fun l -> fi (Link.stats l).bytes_sent) links);
    ("queue_drops", fsum (fun l -> fi (Link.stats l).queue_drops) links);
    ("bottleneck_busy", bottleneck);
    ("host_packets", fsum (fun l -> fi (Link.stats l).packets_sent) host_links);
    ("host_datagrams", fsum (fun n -> fi (Node.stats n).datagrams_sent) hosts);
    ("reassembly_timeouts", fsum (fun n -> fi (Node.reassembly_timeouts n)) nodes);
    ( "udp_checksum_drops",
      fi (Udp.checksum_drops w.server_udp) +. asum (fun u -> fi (Udp.checksum_drops u)) w.client_udps );
    ("attr_hits", fi (fst ac));
    ("attr_misses", fi (snd ac));
    ("cnc_hits", fi (fst cnc));
    ("cnc_misses", fi (snd cnc));
    ("duplicates_dropped", fi (Nfs_server.duplicates_dropped w.server));
    ("bcache_hits", fi bc.Bcache.hits);
    ("bcache_misses", fi bc.Bcache.misses);
    ("disk_reads", fi (Disk.reads disk));
    ("disk_writes", fi (Disk.writes disk));
    ("disk_busy", Disk.busy_time disk);
    ("snc_hits", match snc with Some s -> fi s.Namecache.hits | None -> 0.0);
    ("snc_misses", match snc with Some s -> fi s.Namecache.misses | None -> 0.0);
  ]
  @ per_proc

let delta a b = List.map2 (fun (k, x) (_, y) -> (k, y -. x)) a b

(* ------------------------------------------------------------------ *)
(* One pass                                                            *)
(* ------------------------------------------------------------------ *)

(* One op as the benchmark saw it: its span, and how it ended. *)
type op_span = {
  mutable o_node : int;
  mutable o_start : float;
      (** due time (open loop) or start (closed loop); arrivals fire at
          their due time, so for the open loop the two coincide *)
  mutable o_end : float;
  mutable o_ok : bool;
  mutable o_measured : bool;
}

type pass = {
  p_name : name;
  p_wall_s : float;  (** host seconds of the measured phase *)
  p_minor_words : float;
  p_ops : int;  (** measured ops attempted *)
  p_failed : int;  (** measured ops that raised or read wrong bytes *)
  p_mismatches : int;  (** reads whose bytes differ from what should be there *)
  p_latency_ms : float array;  (** measured ops, sorted, due (or start) to end *)
  p_window : float;  (** simulated seconds from measurement start to last measured end *)
  p_counters : (string * float) list;  (** deltas over the measured phase *)
  p_spans : op_span array;  (** every op, warm-up included *)
  p_pending : int;  (** events queued when measurement began *)
  p_peak_heap_mb : float;  (** the process's peak major heap when the pass ended *)
}

exception Mismatch

let same_bytes ~expect ~off got =
  let n = Bytes.length got in
  if off + n > Bytes.length expect then false
  else begin
    let ok = ref true and i = ref 0 in
    while !ok && !i < n do
      if Bytes.unsafe_get got !i <> Bytes.unsafe_get expect (off + !i) then ok := false;
      incr i
    done;
    !ok
  end

(* Run one op body; [true] when it completed and read the right bytes. *)
let guarded mismatches f =
  try
    f ();
    true
  with
  | Mismatch ->
      incr mismatches;
      false
  | Nfs_client.Nfs_error _ | Client_transport.Rpc_error _ | Client_transport.Rpc_timed_out _ ->
      false

let new_span () =
  { o_node = 0; o_start = 0.0; o_end = 0.0; o_ok = false; o_measured = false }

(* Open loop: one process spawned per arrival at its due time. *)
let start_open_loop w inp ~t0 ~t_meas mismatches =
  let sim = w.sim in
  let n = Array.length inp.arrivals in
  let spans = Array.init n (fun _ -> new_span ()) in
  let done_ = ref 0 in
  let fds = Array.map (fun _ -> Hashtbl.create 64) w.mounts in
  let fd_of c file =
    match Hashtbl.find_opt fds.(c) file with
    | Some fd -> fd
    | None ->
        let fd = Nfs_client.open_ w.mounts.(c) inp.files.(file) in
        Hashtbl.replace fds.(c) file fd;
        fd
  in
  let run_op i =
    let a = inp.arrivals.(i) in
    let m = w.mounts.(a.client) in
    let sp = spans.(i) in
    sp.o_node <- Node.id (Nfs_client.node m);
    sp.o_start <- t0 +. a.due;
    sp.o_measured <- sp.o_start >= t_meas;
    sp.o_ok <-
      guarded mismatches (fun () ->
          match a.op with
          | Lookup -> ignore (Nfs_client.stat m inp.files.(a.file))
          | Read b ->
              let off = b * block in
              let got = Nfs_client.read m (fd_of a.client a.file) ~off ~len:block in
              if not (same_bytes ~expect:inp.contents.(a.file) ~off got) then raise Mismatch);
    sp.o_end <- Sim.now sim;
    incr done_
  in
  let rec arm i =
    if i < n then
      Sim.at sim (t0 +. inp.arrivals.(i).due) (fun () ->
          arm (i + 1);
          Proc.run (fun () -> run_op i))
  in
  arm 0;
  (spans, fun () -> !done_ = n)

(* Closed loop: each client thinks, then creates a file, writes it in
   8K blocks, closes it, reads one block back and compares it, and
   unlinks it — and starts over until the measured interval is over. *)
let start_closed_loop w inp ~t_meas ~t_end mismatches =
  let sim = w.sim in
  let spans = ref [] in
  let running = ref (Array.length w.mounts) in
  Array.iteri
    (fun c m ->
      Proc.spawn sim (fun () ->
          let k = ref 0 in
          let node = Node.id (Nfs_client.node m) in
          let next () = inp.iterations.(c).(!k mod iterations_per_client) in
          Proc.sleep sim (next ()).think;
          while Sim.now sim < t_end do
            let it = next () in
            let path = Printf.sprintf "w%d/f%d" c !k in
            let sp = new_span () in
            sp.o_node <- node;
            sp.o_start <- Sim.now sim;
            sp.o_measured <- sp.o_start >= t_meas;
            sp.o_ok <-
              guarded mismatches (fun () ->
                  let fd = Nfs_client.create m path in
                  for b = 0 to write_blocks - 1 do
                    Nfs_client.write m fd ~off:(b * block) (payload_bytes inp it b)
                  done;
                  Nfs_client.close m fd;
                  let fd = Nfs_client.open_ m path in
                  let b = it.readback in
                  let got = Nfs_client.read m fd ~off:(b * block) ~len:(block_len b) in
                  Nfs_client.close m fd;
                  if not (Bytes.equal got (payload_bytes inp it b)) then raise Mismatch;
                  Nfs_client.unlink m path);
            sp.o_end <- Sim.now sim;
            spans := sp :: !spans;
            incr k;
            Proc.sleep sim (next ()).think
          done;
          decr running))
    w.mounts;
  (spans, fun () -> !running = 0)

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let i = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    sorted.(max 0 (min (n - 1) i))

let word_bytes = float_of_int (Sys.word_size / 8)
let heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes /. 1048576.0

(* [on_measure] runs at the start of the measured phase (trace enable,
   profile start); [on_end] right after it. *)
let run_pass ?probe ?trace ?(on_measure = ignore) ?(on_end = ignore) inp =
  Gc.compact ();
  let w = build ?probe ?trace inp.name in
  let sim = w.sim in
  let cfg = inp.cfg in
  let t0 = Sim.now sim in
  let t_meas = t0 +. cfg.warmup in
  let t_end = t_meas +. cfg.duration in
  let mismatches = ref 0 in
  let get_spans, finished =
    match inp.name with
    | Lan_write ->
        let l, fin = start_closed_loop w inp ~t_meas ~t_end mismatches in
        ((fun () -> Array.of_list (List.rev !l)), fin)
    | Wan_lookup | Lan_read ->
        let a, fin = start_open_loop w inp ~t0 ~t_meas mismatches in
        ((fun () -> a), fin)
  in
  Sim.run ~until:t_meas sim;
  let k0 = counters w in
  let pending = Sim.pending_events sim in
  on_measure w;
  let mw0 = Gc.minor_words () in
  let h0 = Unix.gettimeofday () in
  Sim.run ~until:t_end sim;
  run_until_cond sim finished;
  let wall = Unix.gettimeofday () -. h0 in
  let mw = Gc.minor_words () -. mw0 in
  on_end w;
  let k1 = counters w in
  let spans = get_spans () in
  let measured = List.filter (fun s -> s.o_measured) (Array.to_list spans) in
  let lat =
    Array.of_list (List.map (fun s -> (s.o_end -. s.o_start) *. 1000.0) measured)
  in
  Array.sort Float.compare lat;
  let last = List.fold_left (fun a s -> Float.max a s.o_end) t_meas measured in
  {
    p_name = inp.name;
    p_wall_s = wall;
    p_minor_words = mw;
    p_ops = List.length measured;
    p_failed = List.length (List.filter (fun s -> not s.o_ok) measured);
    p_mismatches = !mismatches;
    p_latency_ms = lat;
    p_window = last -. t_meas;
    p_counters = delta k0 k1;
    p_spans = spans;
    p_pending = pending;
    p_peak_heap_mb = heap_mb ();
  }

(* The simulated-clock fingerprint of a pass: everything that must
   repeat exactly for the same seed. *)
let fingerprint p = (p.p_ops, p.p_failed, p.p_latency_ms, p.p_window, p.p_counters)

let counter p k = List.assoc k p.p_counters

