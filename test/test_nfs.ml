open Renofs_core
module Net = Renofs_net
module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Stats = Renofs_engine.Stats
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module P = Nfs_proto

let quiet =
  { Net.Topology.default_params with cross_traffic = false; link_loss = 0.0 }

type world = {
  sim : Sim.t;
  topo : Net.Topology.t;
  server : Nfs_server.t;
  client_udp : Udp.stack;
  client_tcp : Tcp.stack;
}

let make_world ?(params = quiet) ?(profile = Nfs_server.reno_profile)
    ?(shape = Net.Topology.Lan) () =
  let sim = Sim.create () in
  let topo =
    Net.Topology.build sim { Net.Topology.shape; clients = 1; params }
  in
  let server_udp = Udp.install topo.Net.Topology.server in
  let server_tcp = Tcp.install topo.Net.Topology.server in
  let server =
    Nfs_server.create topo.Net.Topology.server ~profile ~udp:server_udp
      ~tcp:server_tcp ()
  in
  Nfs_server.start server;
  let client_udp = Udp.install topo.Net.Topology.client in
  let client_tcp = Tcp.install topo.Net.Topology.client in
  { sim; topo; server; client_udp; client_tcp }

let run_client w body =
  let result = ref None in
  Proc.spawn w.sim (fun () -> result := Some (body ()));
  Sim.run ~until:3600.0 w.sim;
  match !result with Some r -> r | None -> Alcotest.fail "client never finished"

let mount_in w opts =
  Nfs_client.mount ~udp:w.client_udp ~tcp:w.client_tcp
    ~server:(Net.Topology.server_id w.topo)
    ~root:(Nfs_server.root_fhandle w.server)
    opts

let pattern n = Bytes.init n (fun i -> Char.chr ((i * 13) mod 256))

(* ------------------------------------------------------------------ *)
(* Basic file operations                                              *)
(* ------------------------------------------------------------------ *)

let test_create_write_read_roundtrip () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "hello.txt" in
      let body = pattern 20000 in
      Nfs_client.write m fd ~off:0 body;
      Nfs_client.close m fd;
      let fd2 = Nfs_client.open_ m "hello.txt" in
      let back = Nfs_client.read m fd2 ~off:0 ~len:30000 in
      Alcotest.(check int) "length" 20000 (Bytes.length back);
      Alcotest.(check bytes) "content" body back;
      let a = Nfs_client.stat m "hello.txt" in
      Alcotest.(check int) "size" 20000 a.P.size)

let test_server_sees_data () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "server-visible");
      Nfs_client.close m fd;
      (* Check the backing store directly. *)
      let fs = Nfs_server.fs w.server in
      let v = Renofs_vfs.Fs.lookup fs (Renofs_vfs.Fs.root fs) "f" in
      let data = Renofs_vfs.Fs.read fs v ~off:0 ~len:100 in
      Alcotest.(check string) "on server" "server-visible" (Bytes.to_string data))

let test_directories_and_paths () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      Nfs_client.mkdir m "a";
      Nfs_client.mkdir m "a/b";
      let fd = Nfs_client.create m "a/b/deep.txt" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "deep");
      Nfs_client.close m fd;
      let names = Nfs_client.readdir m "a/b" in
      Alcotest.(check (list string)) "listing" [ "deep.txt" ] names;
      Alcotest.(check string) "read back" "deep"
        (Bytes.to_string
           (Nfs_client.read m (Nfs_client.open_ m "a/b/deep.txt") ~off:0 ~len:10)))

let test_unlink_rmdir () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      Nfs_client.mkdir m "d";
      let fd = Nfs_client.create m "d/f" in
      Nfs_client.close m fd;
      Nfs_client.unlink m "d/f";
      (match Nfs_client.stat m "d/f" with
      | exception Nfs_client.Nfs_error P.NFSERR_NOENT -> ()
      | _ -> Alcotest.fail "unlinked file still visible");
      Nfs_client.rmdir m "d";
      match Nfs_client.readdir m "d" with
      | exception Nfs_client.Nfs_error P.NFSERR_NOENT -> ()
      | exception Nfs_client.Nfs_error P.NFSERR_STALE -> ()
      | _ -> Alcotest.fail "removed dir still listable")

let test_rename_link_symlink () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "old" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "move me");
      Nfs_client.close m fd;
      Nfs_client.rename m "old" "new";
      Alcotest.(check string) "renamed" "move me"
        (Bytes.to_string (Nfs_client.read m (Nfs_client.open_ m "new") ~off:0 ~len:10));
      Nfs_client.link m ~existing:"new" "alias";
      Alcotest.(check int) "nlink" 2 (Nfs_client.stat m "alias").P.nlink;
      Nfs_client.symlink m "ln" ~target:"new";
      Alcotest.(check string) "readlink" "new" (Nfs_client.readlink m "ln"))

let test_statfs () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let s = Nfs_client.statfs m in
      Alcotest.(check int) "tsize" 8192 s.P.tsize;
      Alcotest.(check bool) "free sane" true (s.P.blocks_free > 0))

let test_open_missing_file () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      match Nfs_client.open_ m "nope" with
      | exception Nfs_client.Nfs_error P.NFSERR_NOENT -> ()
      | _ -> Alcotest.fail "expected NOENT")

let test_sparse_write () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "sparse" in
      Nfs_client.write m fd ~off:20000 (Bytes.of_string "tail");
      Nfs_client.close m fd;
      let fd2 = Nfs_client.open_ m "sparse" in
      let back = Nfs_client.read m fd2 ~off:19998 ~len:6 in
      Alcotest.(check string) "hole boundary" "\000\000tail" (Bytes.to_string back))

let test_small_block_size_roundtrip () =
  (* One block size governs both directions: writes cut at 4K must land
     at their 4K offsets, with no hole or overlap on the server. *)
  let bs = 4096 in
  let body = pattern ((3 * bs) + 100) in
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w { Nfs_client.reno_mount with Nfs_client.biosize = bs } in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 body;
      Nfs_client.close m fd;
      let fs = Nfs_server.fs w.server in
      let v = Renofs_vfs.Fs.lookup fs (Renofs_vfs.Fs.root fs) "f" in
      Alcotest.(check int) "server size" (Bytes.length body)
        (Renofs_vfs.Fs.getattr fs v).Renofs_vfs.Fs.size;
      Alcotest.(check bytes) "server bytes" body
        (Renofs_vfs.Fs.read fs v ~off:0 ~len:(4 * bs));
      let fd = Nfs_client.open_ m "f" in
      Alcotest.(check bytes) "client read-back" body
        (Nfs_client.read m fd ~off:0 ~len:(4 * bs)))

(* ------------------------------------------------------------------ *)
(* RPC counting and cache semantics                                   *)
(* ------------------------------------------------------------------ *)

let count m proc = Stats.Counter.get (Nfs_client.rpc_counters m) proc

let test_attr_cache_suppresses_getattr () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.close m fd;
      let before = count m "getattr" in
      for _ = 1 to 10 do
        ignore (Nfs_client.stat m "f")
      done;
      (* All ten stats inside the 5 s window: at most one fresh getattr. *)
      Alcotest.(check bool) "getattr suppressed" true (count m "getattr" - before <= 1))

let test_name_cache_halves_lookups () =
  let lookups opts =
    let w = make_world () in
    run_client w (fun () ->
        let m = mount_in w opts in
        let fd = Nfs_client.create m "target" in
        Nfs_client.close m fd;
        for _ = 1 to 20 do
          ignore (Nfs_client.stat m "target")
        done;
        count m "lookup")
  in
  let reno = lookups Nfs_client.reno_mount in
  let ultrix = lookups Nfs_client.ultrix_mount in
  Alcotest.(check bool) "reno needs few lookups" true (reno <= 2);
  Alcotest.(check bool) "ultrix looks up repeatedly" true (ultrix >= 10)

let test_push_on_close_blocks () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "partial");
      (* Delayed policy, partial block: nothing pushed yet. *)
      Alcotest.(check int) "no writes yet" 0 (count m "write");
      Nfs_client.close m fd;
      Alcotest.(check int) "write pushed at close" 1 (count m "write");
      Alcotest.(check int) "nothing dirty" 0 (Nfs_client.dirty_blocks m))

let test_nopush_defers_writes () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_nopush_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "partial");
      Nfs_client.close m fd;
      Alcotest.(check int) "close pushed nothing" 0 (count m "write");
      Alcotest.(check int) "still dirty" 1 (Nfs_client.dirty_blocks m);
      Nfs_client.flush_all m;
      Alcotest.(check int) "flushed eventually" 1 (count m "write"))

let test_noconsist_discards_on_unlink () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.noconsist_mount in
      let fd = Nfs_client.create m "temp" in
      Nfs_client.write m fd ~off:0 (pattern 50000);
      Nfs_client.close m fd;
      Nfs_client.unlink m "temp";
      (* The data never went to the server. *)
      Alcotest.(check int) "no write RPCs" 0 (count m "write"))

let check_cache m =
  match Nfs_client.check_cache m with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("cache bookkeeping: " ^ e)

let test_eviction_order_v3 () =
  (* Four 8K slots on a v3 mount.  Consistency is off so that nothing
     but eviction ever drops a block; read-ahead is off so that every
     READ is one the test asked for. *)
  let bs = 8192 in
  let w = make_world () in
  run_client w (fun () ->
      let m =
        mount_in w
          {
            Nfs_client.v3_mount with
            biosize = bs;
            cache_blocks = 4;
            read_ahead = 0;
            consistency = Noconsist;
          }
      in
      let settle () = Proc.sleep w.sim 1.0 in
      let read fd blk = Nfs_client.read m fd ~off:(blk * bs) ~len:bs in
      let expect what ~reads ~commits =
        check_cache m;
        Alcotest.(check (pair int int)) what (reads, commits)
          (count m "read", count m "commit")
      in
      (* w0, w1: acknowledged UNSTABLE, so in the write-behind ledger. *)
      let wf = Nfs_client.create m "w" in
      Nfs_client.write m wf ~off:0 (pattern (2 * bs));
      settle ();
      (* c0, c1: committed by the fsync, so clean.  Cold to warm:
         w0 w1 c0 c1. *)
      let cf = Nfs_client.create m "c" in
      Nfs_client.write m cf ~off:0 (pattern (2 * bs));
      Nfs_client.fsync m cf;
      expect "setup" ~reads:0 ~commits:1;
      (* w2 and w3 each need a slot: the colder ledger blocks are passed
         over and the clean c0, then c1, go without a COMMIT. *)
      Nfs_client.write m wf ~off:(2 * bs) (pattern bs);
      settle ();
      Nfs_client.write m wf ~off:(3 * bs) (pattern bs);
      settle ();
      expect "clean blocks evicted first" ~reads:0 ~commits:1;
      Alcotest.(check int) "cache full" 4 (Nfs_client.cached_blocks m);
      (* Every cached block is now uncommitted: reading c0 back (a miss,
         so it was evicted) commits the coldest, w0, then evicts it.
         Cold to warm: w1 w2 w3 c0, all clean. *)
      ignore (read cf 0);
      expect "all uncommitted: coldest committed" ~reads:1 ~commits:2;
      (* Touching w1 (a hit) makes it the warmest: w2 w3 c0 w1. *)
      ignore (read wf 1);
      expect "touch is a hit" ~reads:1 ~commits:2;
      (* c1 was evicted earlier; fetching it evicts w2, not w1. *)
      ignore (read cf 1);
      expect "c1 had been evicted" ~reads:2 ~commits:2;
      ignore (read wf 1);
      expect "touched block survives" ~reads:2 ~commits:2;
      Alcotest.(check bytes) "w2 refetched intact" (pattern bs) (read wf 2);
      expect "colder block went" ~reads:3 ~commits:2;
      ignore (read wf 0);
      expect "committed block went" ~reads:4 ~commits:2)

let test_eviction_races_file_removal () =
  (* One process evicts a dirty block and suspends in its WRITE; a
     second removes the block's file meanwhile.  The server is down
     for the first WRITE, so the push lasts until the retransmission,
     well after the removal.  The block must leave the count once, or
     the cache quietly grows past [cache_blocks]. *)
  let bs = 8192 in
  let w = make_world () in
  let removed_during_push = ref false in
  run_client w (fun () ->
      let m =
        mount_in w { Nfs_client.noconsist_mount with cache_blocks = 2; read_ahead = 0 }
      in
      let f1 = Nfs_client.create m "f1" in
      Nfs_client.write m f1 ~off:0 (pattern (2 * bs));
      (* noconsist: both dirty blocks stay cached after close. *)
      Nfs_client.close m f1;
      let pushed = ref false in
      Proc.spawn w.sim (fun () ->
          while Nfs_client.dirty_blocks m = 2 do
            Proc.sleep w.sim 1e-4
          done;
          Nfs_server.crash w.server;
          Proc.sleep w.sim 0.1;
          Nfs_server.reboot w.server;
          Nfs_client.unlink m "f1";
          removed_during_push := not !pushed);
      let f2 = Nfs_client.create m "f2" in
      (* Needs a slot: evicts f1's first block, pushing it first. *)
      Nfs_client.write m f2 ~off:0 (pattern bs);
      pushed := true;
      check_cache m;
      Alcotest.(check int) "one block cached" 1 (Nfs_client.cached_blocks m);
      Nfs_client.write m f2 ~off:bs (pattern (3 * bs));
      check_cache m;
      Alcotest.(check int) "bounded" 2 (Nfs_client.cached_blocks m));
  Alcotest.(check bool) "file removed while the push was in flight" true
    !removed_during_push

let test_concurrent_misses_share_a_block () =
  (* Two processes miss on the same block while the only slot holds a
     dirty block.  The first suspends pushing it; the second, finding
     the push under way, takes the slot and fetches.  The first must
     then find that block rather than install a duplicate and fetch it
     again, as a BSD getblk rescans after sleeping. *)
  let bs = 8192 in
  let w = make_world () in
  run_client w (fun () ->
      let m =
        mount_in w { Nfs_client.noconsist_mount with cache_blocks = 1; read_ahead = 0 }
      in
      let r = Nfs_client.create m "r" in
      Nfs_client.write m r ~off:0 (pattern bs);
      Nfs_client.fsync m r;
      (* The delayed write of d takes the one slot and stays dirty. *)
      let d = Nfs_client.create m "d" in
      Nfs_client.write m d ~off:0 (pattern bs);
      let reads = count m "read" in
      let other = ref Bytes.empty in
      Proc.spawn w.sim (fun () -> other := Nfs_client.read m r ~off:0 ~len:bs);
      let mine = Nfs_client.read m r ~off:0 ~len:bs in
      Proc.sleep w.sim 1.0;
      Alcotest.(check bytes) "first reader" (pattern bs) mine;
      Alcotest.(check bytes) "second reader" (pattern bs) !other;
      Alcotest.(check int) "one READ between them" (reads + 1) (count m "read");
      check_cache m;
      Alcotest.(check int) "one block cached" 1 (Nfs_client.cached_blocks m))

let test_reno_rereads_after_own_write () =
  (* The +50% read RPCs of Table 3: Reno invalidates its cache after its
     own writes; the Ultrix profile trusts them. *)
  let reads opts =
    let w = make_world () in
    run_client w (fun () ->
        let m = mount_in w opts in
        let fd = Nfs_client.create m "f" in
        Nfs_client.write m fd ~off:0 (pattern 8192);
        Nfs_client.close m fd;
        let fd = Nfs_client.open_ m "f" in
        ignore (Nfs_client.read m fd ~off:0 ~len:8192);
        Nfs_client.close m fd;
        count m "read")
  in
  let reno = reads Nfs_client.reno_mount in
  let ultrix = reads Nfs_client.ultrix_mount in
  Alcotest.(check bool) "reno re-reads" true (reno >= 1);
  Alcotest.(check int) "ultrix serves from cache" 0 ultrix

let test_write_policies_rpc_behavior () =
  (* Write RPCs (v2 WRITE plus WRITE3) before and after close, and the
     COMMITs close sent, for two full blocks plus a partial one. *)
  let rpcs_around_close opts =
    let bs = opts.Nfs_client.biosize in
    let w = make_world () in
    run_client w (fun () ->
        let m = mount_in w opts in
        let writes () = count m "write" + count m "write3" in
        let fd = Nfs_client.create m "f" in
        Nfs_client.write m fd ~off:0 (pattern (2 * bs));
        Nfs_client.write m fd ~off:(2 * bs) (pattern 100);
        let before_close = writes () in
        Nfs_client.close m fd;
        (before_close, writes (), count m "commit"))
  in
  let with_policy write_policy = { Nfs_client.reno_mount with Nfs_client.write_policy } in
  List.iter
    (fun (label, opts, expected) ->
      Alcotest.(check (triple int int int)) label expected (rpcs_around_close opts))
    [
      ("write-through: all pushed inline", with_policy Nfs_client.Write_through, (3, 3, 0));
      ("async: partial block still queued for a biod", with_policy Nfs_client.Async, (2, 3, 0));
      ("delayed: full blocks async, partial at close", Nfs_client.reno_mount, (2, 3, 0));
      ("nopush: partial stays dirty", Nfs_client.reno_nopush_mount, (2, 2, 0));
      ("ultrix: async", Nfs_client.ultrix_mount, (2, 3, 0));
      ("noconsist: everything delayed", Nfs_client.noconsist_mount, (0, 0, 0));
      ("leases: everything delayed", Nfs_client.lease_mount, (0, 0, 0));
      ("v3: full blocks early, one COMMIT at close", Nfs_client.v3_mount, (2, 3, 1));
      ( "v3 without consistency: no push or COMMIT at close",
        { Nfs_client.v3_mount with Nfs_client.consistency = Noconsist },
        (2, 2, 0) );
    ]

let test_dirty_region_no_preread () =
  (* Writing a few bytes into a fresh block must not read the block. *)
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:100 (Bytes.of_string "mid-block");
      Alcotest.(check int) "no preread" 0 (count m "read");
      Nfs_client.close m fd)

let test_fsync () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_nopush_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "x");
      Nfs_client.fsync m fd;
      Alcotest.(check int) "pushed" 1 (count m "write");
      Alcotest.(check int) "clean" 0 (Nfs_client.dirty_blocks m))

let test_readahead_prefetches () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w { Nfs_client.reno_mount with Nfs_client.read_ahead = 2 } in
      let fd = Nfs_client.create m "big" in
      Nfs_client.write m fd ~off:0 (pattern (8 * 8192));
      Nfs_client.close m fd;
      let fd = Nfs_client.open_ m "big" in
      (* Sequential read: every block must be correct despite read-ahead. *)
      let whole = Buffer.create (8 * 8192) in
      for blk = 0 to 7 do
        Buffer.add_bytes whole (Nfs_client.read m fd ~off:(blk * 8192) ~len:8192)
      done;
      Alcotest.(check bytes) "sequential content" (pattern (8 * 8192))
        (Buffer.to_bytes whole))

let test_readdirlook_prefetch () =
  let rpcs use_it =
    let w = make_world () in
    run_client w (fun () ->
        (* Populate through one mount; list through a second, cold one,
           so the creator's caches don't mask the effect. *)
        let writer = mount_in w Nfs_client.reno_mount in
        Nfs_client.mkdir writer "dir";
        for i = 0 to 9 do
          Nfs_client.close writer (Nfs_client.create writer (Printf.sprintf "dir/f%d" i))
        done;
        let m =
          mount_in w { Nfs_client.reno_mount with Nfs_client.use_readdirlook = use_it }
        in
        (* ls -l pattern: readdir then stat every entry. *)
        let names = Nfs_client.readdir m "dir" in
        List.iter (fun n -> ignore (Nfs_client.stat m ("dir/" ^ n))) names;
        count m "lookup" + count m "getattr")
  in
  let classic = rpcs false and bulk = rpcs true in
  Alcotest.(check bool) "bulk lookup saves RPCs" true (bulk < classic / 2)

(* ------------------------------------------------------------------ *)
(* Transports end-to-end                                              *)
(* ------------------------------------------------------------------ *)

let transport_roundtrip opts shape params =
  let w = make_world ~params ~shape () in
  run_client w (fun () ->
      let m = mount_in w opts in
      let fd = Nfs_client.create m "file" in
      let body = pattern 30000 in
      Nfs_client.write m fd ~off:0 body;
      Nfs_client.close m fd;
      let back = Nfs_client.read m (Nfs_client.open_ m "file") ~off:0 ~len:30000 in
      Alcotest.(check bytes) "content across transport" body back;
      m)

let test_tcp_transport_roundtrip () =
  ignore (transport_roundtrip Nfs_client.reno_tcp_mount Net.Topology.Lan quiet)

let test_dynamic_transport_roundtrip () =
  ignore (transport_roundtrip Nfs_client.reno_dynamic_mount Net.Topology.Lan quiet)

let test_transports_survive_lossy_wan () =
  let lossy = { quiet with Net.Topology.link_loss = 0.02 } in
  List.iter
    (fun opts ->
      let m = transport_roundtrip opts Net.Topology.Campus lossy in
      ignore (Client_transport.summary (Nfs_client.transport m)))
    [
      Nfs_client.reno_mount;
      Nfs_client.reno_dynamic_mount;
      Nfs_client.reno_tcp_mount;
    ]

let test_dynamic_window_reacts_to_loss () =
  let lossy = { quiet with Net.Topology.link_loss = 0.05 } in
  let w = make_world ~params:lossy ~shape:Net.Topology.Campus () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_dynamic_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (pattern (16 * 8192));
      Nfs_client.close m fd;
      for _ = 1 to 6 do
        ignore (Nfs_client.read m (Nfs_client.open_ m "f") ~off:0 ~len:(16 * 8192))
      done;
      let x = Nfs_client.transport m in
      Alcotest.(check bool) "retransmissions happened" true
        (Client_transport.retransmits x > 0);
      Alcotest.(check bool) "window stayed bounded" true
        (Client_transport.congestion_window x <= 12.0))

let test_duplicate_cache_protects_nonidempotent () =
  (* An absurdly low timeo forces retransmission of every RPC; the
     duplicate request cache must absorb the repeats of non-idempotent
     calls without re-executing them. *)
  let w = make_world () in
  run_client w (fun () ->
      let m =
        mount_in w { Nfs_client.reno_mount with Nfs_client.timeo = 0.003 }
      in
      for i = 0 to 4 do
        let fd = Nfs_client.create m (Printf.sprintf "f%d" i) in
        Nfs_client.write m fd ~off:0 (Bytes.of_string "data");
        Nfs_client.close m fd;
        Nfs_client.unlink m (Printf.sprintf "f%d" i)
      done;
      Alcotest.(check bool) "client retransmitted" true
        (Client_transport.retransmits (Nfs_client.transport m) > 0);
      Alcotest.(check bool) "server dropped duplicates" true
        (Nfs_server.duplicates_dropped w.server > 0))

let test_rtt_stats_populated () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_dynamic_mount in
      Client_transport.enable_read_trace (Nfs_client.transport m);
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (pattern (4 * 8192));
      Nfs_client.close m fd;
      ignore (Nfs_client.read m (Nfs_client.open_ m "f") ~off:0 ~len:(4 * 8192));
      let x = Nfs_client.transport m in
      let by_proc = Client_transport.rtt_by_proc x in
      Alcotest.(check bool) "read rtts recorded" true
        (List.mem_assoc "read" by_proc);
      Alcotest.(check bool) "trace recorded" true
        (List.length (Client_transport.read_rtt_trace x) > 0);
      let s = Client_transport.summary x in
      Alcotest.(check bool) "mean rtt positive" true (s.Client_transport.mean_rtt > 0.0))

let test_symlink_following () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      Nfs_client.mkdir m "real";
      let fd = Nfs_client.create m "real/data.txt" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "through the link");
      Nfs_client.close m fd;
      (* A directory symlink in the middle of a path. *)
      Nfs_client.symlink m "alias" ~target:"real";
      Alcotest.(check string) "walk through dir link" "through the link"
        (Bytes.to_string
           (Nfs_client.read m (Nfs_client.open_ m "alias/data.txt") ~off:0 ~len:100));
      (* A file symlink as the final component: open follows it. *)
      Nfs_client.symlink m "shortcut" ~target:"real/data.txt";
      Alcotest.(check string) "open follows final link" "through the link"
        (Bytes.to_string (Nfs_client.read m (Nfs_client.open_ m "shortcut") ~off:0 ~len:100));
      (* readlink reads the link itself, not the target. *)
      Alcotest.(check string) "readlink literal" "real/data.txt"
        (Nfs_client.readlink m "shortcut");
      (* Absolute targets resolve from the mount root. *)
      Nfs_client.symlink m "real/abs" ~target:"/real/data.txt";
      Alcotest.(check string) "absolute target" "through the link"
        (Bytes.to_string (Nfs_client.read m (Nfs_client.open_ m "real/abs") ~off:0 ~len:100)))

let test_symlink_loop_detected () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      Nfs_client.symlink m "a" ~target:"b";
      Nfs_client.symlink m "b" ~target:"a";
      match Nfs_client.open_ m "a" with
      | exception Nfs_client.Nfs_error P.NFSERR_IO -> ()
      | _ -> Alcotest.fail "symlink loop not detected")

let test_silly_rename () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "doomed" in
      Nfs_client.write m fd ~off:0 (Bytes.make 20000 's');
      Nfs_client.close m fd;
      (* Re-open, then unlink while the descriptor is live. *)
      let fd = Nfs_client.open_ m "doomed" in
      Nfs_client.unlink m "doomed";
      (match Nfs_client.stat m "doomed" with
      | exception Nfs_client.Nfs_error P.NFSERR_NOENT -> ()
      | _ -> Alcotest.fail "name still visible after unlink");
      (* The open descriptor still reads everything — including blocks
         that were never cached, which a naive client would lose to
         ESTALE on the stateless server. *)
      let back = Nfs_client.read m fd ~off:16384 ~len:100 in
      Alcotest.(check bytes) "tail readable after unlink" (Bytes.make 100 's') back;
      (* The server-side evidence: a .nfs file exists while open... *)
      let names = Nfs_client.readdir m "/" in
      Alcotest.(check bool) "silly name present" true
        (List.exists (fun n -> String.length n > 4 && String.sub n 0 4 = ".nfs") names);
      (* ...and disappears at the last close. *)
      Nfs_client.close m fd;
      let names = Nfs_client.readdir m "/" in
      Alcotest.(check bool) "silly name removed" false
        (List.exists (fun n -> String.length n > 4 && String.sub n 0 4 = ".nfs") names))

let test_server_service_times () =
  let w = make_world () in
  run_client w (fun () ->
      let m = mount_in w Nfs_client.reno_mount in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (pattern (2 * 8192));
      Nfs_client.close m fd;
      ignore (Nfs_client.read m (Nfs_client.open_ m "f") ~off:0 ~len:8192));
  let times = Nfs_server.service_times w.server in
  Alcotest.(check bool) "several procs recorded" true (List.length times >= 3);
  List.iter
    (fun (name, mean, count) ->
      Alcotest.(check bool) (name ^ " count positive") true (count > 0);
      Alcotest.(check bool) (name ^ " mean sane") true (mean >= 0.0 && mean < 1.0))
    times;
  (* A synchronous write (disk) must cost more service time than a
     getattr. *)
  let mean_of n = match List.find_opt (fun (x, _, _) -> x = n) times with
    | Some (_, m, _) -> m
    | None -> 0.0
  in
  Alcotest.(check bool) "write dearer than getattr" true
    (mean_of "write" > mean_of "getattr")

let test_ultrix_server_slower_lookups () =
  (* Graph 8's mechanism: the reference-port server burns more CPU per
     lookup (global buffer search + RPC layering). *)
  let busy profile =
    let w = make_world ~profile () in
    run_client w (fun () ->
        let m = mount_in w Nfs_client.ultrix_mount in
        for i = 0 to 49 do
          Nfs_client.close m (Nfs_client.create m (Printf.sprintf "f%02d" i))
        done;
        for _ = 1 to 3 do
          for i = 0 to 49 do
            ignore (Nfs_client.stat m (Printf.sprintf "f%02d" i))
          done
        done);
    Renofs_engine.Cpu.busy_time (Net.Node.cpu w.topo.Net.Topology.server)
  in
  let reno = busy Nfs_server.reno_profile in
  let ultrix = busy Nfs_server.reference_port_profile in
  Alcotest.(check bool) "reference port costs more" true (ultrix > reno *. 1.2)

(* Property: arbitrary write/read offset sequences through the full
   stack match a flat-array model. *)
let prop_nfs_io_model =
  QCheck.Test.make ~name:"nfs io matches flat-array model" ~count:25
    QCheck.(
      list_of_size Gen.(int_range 1 12)
        (pair (int_range 0 40000) (int_range 1 5000)))
    (fun ops ->
      let w = make_world () in
      run_client w (fun () ->
          let m = mount_in w Nfs_client.reno_mount in
          let fd = Nfs_client.create m "model" in
          let model = Bytes.make 50000 '\000' in
          let model_len = ref 0 in
          List.iteri
            (fun i (off, len) ->
              let data = Bytes.make len (Char.chr (97 + (i mod 26))) in
              Nfs_client.write m fd ~off data;
              Bytes.blit data 0 model off len;
              if off + len > !model_len then model_len := off + len)
            ops;
          Nfs_client.close m fd;
          let fd2 = Nfs_client.open_ m "model" in
          let actual = Nfs_client.read m fd2 ~off:0 ~len:!model_len in
          Bytes.equal actual (Bytes.sub model 0 !model_len)))

let () =
  Alcotest.run "nfs"
    [
      ( "fileops",
        [
          Alcotest.test_case "create/write/read" `Quick test_create_write_read_roundtrip;
          Alcotest.test_case "server sees data" `Quick test_server_sees_data;
          Alcotest.test_case "directories" `Quick test_directories_and_paths;
          Alcotest.test_case "unlink/rmdir" `Quick test_unlink_rmdir;
          Alcotest.test_case "rename/link/symlink" `Quick test_rename_link_symlink;
          Alcotest.test_case "statfs" `Quick test_statfs;
          Alcotest.test_case "open missing" `Quick test_open_missing_file;
          Alcotest.test_case "sparse write" `Quick test_sparse_write;
          Alcotest.test_case "4K block size roundtrip" `Quick test_small_block_size_roundtrip;
        ] );
      ( "caching",
        [
          Alcotest.test_case "attr cache" `Quick test_attr_cache_suppresses_getattr;
          Alcotest.test_case "name cache vs ultrix" `Quick test_name_cache_halves_lookups;
          Alcotest.test_case "push on close" `Quick test_push_on_close_blocks;
          Alcotest.test_case "nopush defers" `Quick test_nopush_defers_writes;
          Alcotest.test_case "noconsist discard on unlink" `Quick
            test_noconsist_discards_on_unlink;
          Alcotest.test_case "reno re-reads after write" `Quick
            test_reno_rereads_after_own_write;
          Alcotest.test_case "write policies" `Quick test_write_policies_rpc_behavior;
          Alcotest.test_case "dirty region no preread" `Quick test_dirty_region_no_preread;
          Alcotest.test_case "fsync" `Quick test_fsync;
          Alcotest.test_case "readahead" `Quick test_readahead_prefetches;
          Alcotest.test_case "readdirlook prefetch" `Quick test_readdirlook_prefetch;
          Alcotest.test_case "v3 eviction order" `Quick test_eviction_order_v3;
          Alcotest.test_case "eviction races removal" `Quick
            test_eviction_races_file_removal;
          Alcotest.test_case "concurrent misses share a block" `Quick
            test_concurrent_misses_share_a_block;
        ] );
      ( "transport",
        [
          Alcotest.test_case "tcp mount" `Quick test_tcp_transport_roundtrip;
          Alcotest.test_case "dynamic mount" `Quick test_dynamic_transport_roundtrip;
          Alcotest.test_case "lossy wan all transports" `Quick
            test_transports_survive_lossy_wan;
          Alcotest.test_case "dynamic window reacts" `Quick test_dynamic_window_reacts_to_loss;
          Alcotest.test_case "duplicate cache" `Quick
            test_duplicate_cache_protects_nonidempotent;
          Alcotest.test_case "rtt stats" `Quick test_rtt_stats_populated;
          Alcotest.test_case "reference-port server dearer" `Quick
            test_ultrix_server_slower_lookups;
          Alcotest.test_case "service times" `Quick test_server_service_times;
        ] );
      ( "unix-semantics",
        [
          Alcotest.test_case "symlink following" `Quick test_symlink_following;
          Alcotest.test_case "symlink loop" `Quick test_symlink_loop_detected;
          Alcotest.test_case "silly rename" `Quick test_silly_rename;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_nfs_io_model ]);
    ]
