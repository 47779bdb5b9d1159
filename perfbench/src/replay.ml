(* Layer replays: host nanoseconds and minor words per operation of each
   layer's public functions, on inputs drawn from a workload pass —
   its event spacing and standing queue, its payload bytes, its RPC
   call mix and its file and block picks. *)

module W = Workload
module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Rng = Renofs_engine.Rng
module Cpu = Renofs_engine.Cpu
module Mbuf = Renofs_mbuf.Mbuf
module Xdr = Renofs_xdr.Xdr
module Rpc_msg = Renofs_rpc.Rpc_msg
module Packet = Renofs_net.Packet
module Ipfrag = Renofs_net.Ipfrag
module Fs = Renofs_vfs.Fs
module Bcache = Renofs_vfs.Bcache
module Disk = Renofs_vfs.Disk
module P = Renofs_core.Nfs_proto
module Fileset = Renofs_workload.Fileset

type cost = { ns : float; words : float }

(* Median over 7 batches.  [run] does one round and returns the
   number of operations it performed; a batch repeats rounds until it
   has taken at least [batch_s] host seconds. *)
let batch_s = 0.03

let measure run =
  ignore (run ());
  let batch () =
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let n = ref 0 and dt = ref 0.0 in
    while !dt < batch_s do
      n := !n + run ();
      dt := Unix.gettimeofday () -. t0
    done;
    let words = Gc.minor_words () -. w0 in
    (!dt *. 1e9 /. float_of_int !n, words /. float_of_int !n)
  in
  let samples = List.init 7 (fun _ -> batch ()) in
  let med l =
    let a = Array.of_list l in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  { ns = med (List.map fst samples); words = med (List.map snd samples) }

(* ------------------------------------------------------------------ *)
(* Inputs drawn from the pass                                          *)
(* ------------------------------------------------------------------ *)

(* One 8K block of the bytes the workload actually moves: file content
   for the read and lookup workloads, a write payload for lan-write. *)
let payload (inp : W.inputs) =
  match inp.W.name with
  | W.Lan_write -> inp.W.pool_full.(0)
  | W.Lan_read -> Bytes.sub inp.W.contents.(0) 0 W.block
  | W.Wan_lookup ->
      Bytes.sub (Fileset.content ~path:inp.W.files.(0) ~size:inp.W.file_size) 0 W.block

(* The (file, block) picks the workload made, in order. *)
let picks (inp : W.inputs) =
  match inp.W.name with
  | W.Lan_write ->
      (* Each iteration writes a fresh file block by block. *)
      Array.concat
        (List.init (Array.length inp.W.iterations) (fun c ->
             Array.init (64 * W.write_blocks) (fun k ->
                 ((c * 64) + (k / W.write_blocks), k mod W.write_blocks))))
  | W.Wan_lookup | W.Lan_read ->
      Array.map
        (fun a -> (a.W.file, match a.W.op with W.Read b -> b | W.Lookup -> 0))
        inp.W.arrivals

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let gaps (p : W.pass) n =
  let events = W.counter p "events" in
  let mean = if events > 0.0 then p.W.p_window /. events else 1e-3 in
  let rng = Rng.create 7 in
  Array.init n (fun _ -> Rng.exponential rng mean)

(* Schedule and fire a batch with the workload's mean event spacing,
   behind a standing queue as deep as the workload's. *)
let sim_schedule_fire (p : W.pass) =
  let n = 10_000 in
  let gap = gaps p n in
  let sim = Sim.create () in
  for _ = 1 to p.W.p_pending do
    Sim.at sim 1e12 ignore
  done;
  measure (fun () ->
      let t = Sim.now sim in
      let horizon = ref t in
      for i = 0 to n - 1 do
        let at = t +. gap.(i) in
        if at > !horizon then horizon := at;
        Sim.at sim at ignore
      done;
      Sim.run ~until:!horizon sim;
      n)

let sim_timer_cancel (p : W.pass) =
  let n = 10_000 in
  let gap = gaps p n in
  let sim = Sim.create () in
  for _ = 1 to p.W.p_pending do
    Sim.at sim 1e12 ignore
  done;
  measure (fun () ->
      let horizon = ref (Sim.now sim) in
      for i = 0 to n - 1 do
        let tm = Sim.timer_after sim gap.(i) ignore in
        Sim.cancel tm;
        horizon := Float.max !horizon (Sim.now sim +. gap.(i))
      done;
      Sim.run ~until:!horizon sim;
      n)

(* ------------------------------------------------------------------ *)
(* mbuf, checksum, fragmentation                                       *)
(* ------------------------------------------------------------------ *)

let mbuf_of_bytes inp =
  let data = payload inp in
  measure (fun () ->
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (Mbuf.of_bytes data))
      done;
      1000)

let mbuf_checksum inp =
  let chain = Mbuf.of_bytes (payload inp) in
  measure (fun () ->
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (Mbuf.checksum chain))
      done;
      1000)

(* Fragment a fresh 8K datagram for Ethernet and reassemble it. *)
let fragment_reassemble inp =
  let data = payload inp in
  let sim = Sim.create () in
  let reasm = Ipfrag.create sim () in
  let id = ref 0 in
  measure (fun () ->
      for _ = 1 to 200 do
        incr id;
        let d =
          Packet.make_datagram ~proto:Packet.Udp ~src:1 ~dst:2 ~src_port:1023
            ~dst_port:P.port ~ip_id:!id (Mbuf.of_bytes data)
        in
        List.iter
          (fun f -> ignore (Sys.opaque_identity (Ipfrag.insert reasm f)))
          (Packet.fragment d ~mtu:1500)
      done;
      Sim.run ~until:(Sim.now sim +. 1.0) sim;
      200)

(* ------------------------------------------------------------------ *)
(* XDR / RPC over the workload's call mix                              *)
(* ------------------------------------------------------------------ *)

let fattr =
  let t = { P.seconds = 673_000_000; useconds = 0 } in
  {
    P.ftype = P.NFREG;
    mode = 0o644;
    nlink = 1;
    uid = 100;
    gid = 10;
    size = 16384;
    blocksize = 8192;
    rdev = 0;
    blocks = 32;
    fsid = 1;
    fileid = 42;
    atime = t;
    mtime = t;
    ctime = t;
  }

let basename s = match String.rindex_opt s '/' with Some i -> String.sub s (i + 1) (String.length s - i - 1) | None -> s

(* The call and reply the workload sent for procedure [proc]. *)
let message inp data proc =
  let name = basename inp.W.files.(0) in
  let fh = 7 in
  let dirop = { P.dir = fh; name } in
  match proc with
  | "getattr" -> Some (P.Getattr fh, P.Rattr (Ok fattr))
  | "lookup" -> Some (P.Lookup dirop, P.Rdirop (Ok (fh, fattr)))
  | "read" ->
      Some (P.Read { read_file = fh; offset = 0; count = W.block }, P.Rread (Ok (fattr, data)))
  | "write" ->
      Some (P.Write { write_file = fh; write_offset = 0; data }, P.Rattr (Ok fattr))
  | "create" -> Some (P.Create { where = dirop; attributes = P.sattr_none }, P.Rdirop (Ok (fh, fattr)))
  | "remove" -> Some (P.Remove dirop, P.Rstat P.NFS_OK)
  | "write3" ->
      Some
        ( P.Write3 { w3_file = fh; w3_offset = 0; w3_stable = P.Unstable; w3_data = data },
          P.Rwrite3 (Ok { w3_attr = fattr; w3_count = W.block; w3_committed = P.Unstable; w3_verf = 1 }) )
  | "commit" ->
      Some (P.Commit { cm_file = fh; cm_offset = 0; cm_count = 0 }, P.Rcommit (Ok { cmo_attr = fattr; cmo_verf = 1 }))
  | _ -> None

(* 64 messages in the proportions the pass issued them. *)
let call_mix inp (p : W.pass) =
  let data = payload inp in
  let weights = List.map (fun proc -> (proc, W.counter p ("issued." ^ proc))) W.procs in
  let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 weights in
  let mix =
    List.concat_map
      (fun (proc, w) ->
        let k = if w > 0.0 then max 1 (int_of_float (Float.round (64.0 *. w /. total))) else 0 in
        match message inp data proc with
        | Some (c, r) -> List.init k (fun _ -> (P.proc_of_call c, c, r))
        | None -> [])
      weights
  in
  Array.of_list mix

let cred = Rpc_msg.Auth_unix { stamp = 0; machine = "renofs-client"; uid = 100; gid = 10 }

let xdr_call mix =
  let pool = Mbuf.Pool.create () in
  measure (fun () ->
      Array.iteri
        (fun i (proc, call, _) ->
          let enc =
            Rpc_msg.encode_call ~pool
              { Rpc_msg.xid = Int32.of_int i; prog = P.program; vers = P.version; proc; cred }
          in
          P.encode_call enc call;
          let chain = Xdr.Enc.chain enc in
          let hdr, dec = Rpc_msg.decode_call chain in
          ignore (Sys.opaque_identity (P.decode_call ~proc:hdr.Rpc_msg.proc dec));
          Mbuf.release ~pool chain)
        mix;
      Array.length mix)

let xdr_reply mix =
  let pool = Mbuf.Pool.create () in
  measure (fun () ->
      Array.iteri
        (fun i (proc, _, reply) ->
          let enc = Rpc_msg.encode_reply ~pool ~xid:(Int32.of_int i) (Rpc_msg.Accepted Rpc_msg.Success) in
          P.encode_reply enc reply;
          let chain = Xdr.Enc.chain enc in
          let _, _, dec = Rpc_msg.decode_reply chain in
          ignore (Sys.opaque_identity (P.decode_reply ~proc dec));
          Mbuf.release ~pool chain)
        mix;
      Array.length mix)

(* ------------------------------------------------------------------ *)
(* vfs                                                                 *)
(* ------------------------------------------------------------------ *)

(* Run [body] as a process on [sim] and drain it. *)
let in_process sim body =
  Proc.spawn sim body;
  Sim.run sim

let bcache_lookup_insert inp =
  let keys = picks inp in
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:0.9 in
  let bc = Bcache.create sim cpu ~blocks:256 ~search:Bcache.Vnode_chained () in
  let n = min 2000 (Array.length keys) in
  measure (fun () ->
      in_process sim (fun () ->
          for i = 0 to n - 1 do
            let ino, blk = keys.(i) in
            if not (Bcache.lookup bc ~ino ~blk) then Bcache.insert bc ~ino ~blk
          done);
      n)

(* A server filesystem holding the workload's fileset, as preloaded. *)
let make_fs inp =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:0.9 in
  let fs = Fs.create sim cpu (Disk.create sim ()) Fs.reno_config in
  let set = W.fileset inp.W.name in
  let vnodes = Hashtbl.create 512 in
  in_process sim (fun () ->
      let root = Fs.root fs in
      List.iter
        (fun d -> Hashtbl.replace vnodes d (Fs.mkdir fs ~dir:root d ~mode:0o755 ()))
        set.Fileset.dirs;
      List.iter
        (fun path ->
          let i = String.index path '/' in
          let dir = Hashtbl.find vnodes (String.sub path 0 i) in
          let v =
            Fs.create_file fs ~dir (String.sub path (i + 1) (String.length path - i - 1)) ~mode:0o644 ()
          in
          Fs.write fs v ~off:0 (Fileset.content ~path ~size:set.Fileset.file_size);
          Hashtbl.replace vnodes path v)
        set.Fileset.files);
  let files = Array.of_list set.Fileset.files in
  let dir_of path = Hashtbl.find vnodes (String.sub path 0 (String.index path '/')) in
  (sim, fs, files, dir_of, Hashtbl.find vnodes)

let fs_ops inp =
  let keys = picks inp in
  let sim, fs, files, dir_of, vnode = make_fs inp in
  let nf = Array.length files in
  let n = min 500 (Array.length keys) in
  let key i = let f, b = keys.(i) in (files.(f mod nf), b) in
  let data = payload inp in
  let lookup =
    measure (fun () ->
        in_process sim (fun () ->
            for i = 0 to n - 1 do
              let path, _ = key i in
              ignore (Fs.lookup fs (dir_of path) (basename path))
            done);
        n)
  in
  let write =
    measure (fun () ->
        let m = min n 100 in
        in_process sim (fun () ->
            for i = 0 to m - 1 do
              let path, b = key i in
              Fs.write fs (vnode path) ~off:(b * W.block) data
            done);
        m)
  in
  let read =
    measure (fun () ->
        in_process sim (fun () ->
            for i = 0 to n - 1 do
              let path, b = key i in
              ignore (Fs.read fs (vnode path) ~off:(b * W.block) ~len:W.block)
            done);
        n)
  in
  (lookup, read, write)
