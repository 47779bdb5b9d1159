(* Tests for the tuning extensions: soft mounts (bounded retries) and
   the adaptive read/write transfer size of Section 4's future work. *)

open Renofs_core
module Net = Renofs_net
module Sim = Renofs_engine.Sim
module Proc = Renofs_engine.Proc
module Udp = Renofs_transport.Udp
module Tcp = Renofs_transport.Tcp
module P = Nfs_proto

let quiet =
  { Net.Topology.default_params with Net.Topology.cross_traffic = false; link_loss = 0.0 }

let make_world ?(params = quiet) ?(shape = Net.Topology.Lan) ?(serve = true) () =
  let sim = Sim.create () in
  let topo =
    Net.Topology.build sim { Net.Topology.shape; clients = 1; params }
  in
  let sudp = Udp.install topo.Net.Topology.server in
  let stcp = Tcp.install topo.Net.Topology.server in
  let server = Nfs_server.create topo.Net.Topology.server ~udp:sudp ~tcp:stcp () in
  if serve then Nfs_server.start server;
  let cudp = Udp.install topo.Net.Topology.client in
  let ctcp = Tcp.install topo.Net.Topology.client in
  (sim, topo, server, cudp, ctcp)

let pattern n = Bytes.init n (fun i -> Char.chr ((i * 11) mod 256))

(* ------------------------------------------------------------------ *)
(* Soft mounts                                                        *)
(* ------------------------------------------------------------------ *)

let test_soft_mount_fails_fast_on_dead_server () =
  (* The server is not started: nothing listens on port 2049. *)
  let sim, topo, server, cudp, ctcp = make_world ~serve:false () in
  let outcome = ref "" and t_fail = ref 0.0 in
  Proc.spawn sim (fun () ->
      match
        Nfs_client.mount ~udp:cudp ~tcp:ctcp
          ~server:(Net.Topology.server_id topo)
          ~root:(Nfs_server.root_fhandle server)
          { Nfs_client.reno_mount with Nfs_client.recovery = Soft { retrans = 3 } }
      with
      | _ -> outcome := "mounted"
      | exception Nfs_client.Nfs_error P.NFSERR_IO ->
          outcome := "eio";
          t_fail := Sim.now sim);
  Sim.run ~until:600.0 sim;
  Alcotest.(check string) "soft mount errors out" "eio" !outcome;
  (* timeo 1s with 3 retries: 1+2+4+8 = within ~20 s, not forever. *)
  Alcotest.(check bool) "bounded time" true (!t_fail < 30.0)

let test_hard_mount_keeps_retrying () =
  let sim, topo, server, cudp, ctcp = make_world ~serve:false () in
  let outcome = ref "pending" in
  Proc.spawn sim (fun () ->
      match
        Nfs_client.mount ~udp:cudp ~tcp:ctcp
          ~server:(Net.Topology.server_id topo)
          ~root:(Nfs_server.root_fhandle server)
          Nfs_client.reno_mount
      with
      | _ -> outcome := "mounted"
      | exception _ -> outcome := "error");
  Sim.run ~until:300.0 sim;
  Alcotest.(check string) "hard mount still waiting" "pending" !outcome

let test_soft_mount_survives_when_server_up () =
  let sim, topo, server, cudp, ctcp = make_world () in
  let ok = ref false in
  Proc.spawn sim (fun () ->
      let m =
        Nfs_client.mount ~udp:cudp ~tcp:ctcp
          ~server:(Net.Topology.server_id topo)
          ~root:(Nfs_server.root_fhandle server)
          { Nfs_client.reno_mount with Nfs_client.recovery = Soft { retrans = 3 } }
      in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (Bytes.of_string "soft but fine");
      Nfs_client.close m fd;
      let back = Nfs_client.read m (Nfs_client.open_ m "f") ~off:0 ~len:100 in
      ok := Bytes.to_string back = "soft but fine");
  Sim.run ~until:600.0 sim;
  Alcotest.(check bool) "normal operation unaffected" true !ok

(* ------------------------------------------------------------------ *)
(* Adaptive transfer size                                             *)
(* ------------------------------------------------------------------ *)

let test_adaptive_shrinks_under_loss () =
  let params =
    { Net.Topology.default_params with cross_traffic = false; link_loss = 0.03 }
  in
  let sim, topo, server, cudp, ctcp = make_world ~params ~shape:Net.Topology.Campus () in
  let final_size = ref 0 and data_ok = ref false in
  Proc.spawn sim (fun () ->
      let m =
        Nfs_client.mount ~udp:cudp ~tcp:ctcp
          ~server:(Net.Topology.server_id topo)
          ~root:(Nfs_server.root_fhandle server)
          { Nfs_client.reno_mount with Nfs_client.adaptive_transfer = true }
      in
      let body = pattern (16 * 8192) in
      let fd = Nfs_client.create m "big" in
      Nfs_client.write m fd ~off:0 body;
      Nfs_client.close m fd;
      (* Re-read across the lossy path: Reno's own-write invalidation
         guarantees the data comes back over the wire, not the cache. *)
      let fd = Nfs_client.open_ m "big" in
      let back = Nfs_client.read m fd ~off:0 ~len:(16 * 8192) in
      data_ok := Bytes.equal back body;
      final_size := Nfs_client.current_transfer_size m);
  (try Sim.run ~until:3_000.0 sim with _ -> ());
  Alcotest.(check bool) "data integrity preserved" true !data_ok;
  Alcotest.(check bool) "transfer size shrank below 8K" true
    (!final_size < 8192 && !final_size >= 1024)

let test_adaptive_stays_at_rsize_on_clean_lan () =
  let sim, topo, server, cudp, ctcp = make_world () in
  let final_size = ref 0 in
  Proc.spawn sim (fun () ->
      let m =
        Nfs_client.mount ~udp:cudp ~tcp:ctcp
          ~server:(Net.Topology.server_id topo)
          ~root:(Nfs_server.root_fhandle server)
          { Nfs_client.reno_mount with Nfs_client.adaptive_transfer = true }
      in
      let fd = Nfs_client.create m "f" in
      Nfs_client.write m fd ~off:0 (pattern (8 * 8192));
      Nfs_client.close m fd;
      ignore (Nfs_client.read m (Nfs_client.open_ m "f") ~off:0 ~len:(8 * 8192));
      final_size := Nfs_client.current_transfer_size m);
  Sim.run ~until:600.0 sim;
  Alcotest.(check int) "no shrink without loss" 8192 !final_size

let test_sub_block_transfers_preserve_data () =
  (* Force a small transfer size via a tiny rsize-equivalent: adaptive
     off, but verify multi-RPC block assembly directly by shrinking the
     transfer by hand through loss is flaky — instead run with loss high
     enough that shrink certainly occurs, then verify bytes. *)
  let params =
    { Net.Topology.default_params with cross_traffic = false; link_loss = 0.08 }
  in
  let sim, topo, server, cudp, ctcp = make_world ~params ~shape:Net.Topology.Campus () in
  let ok = ref false in
  Proc.spawn sim (fun () ->
      let m =
        Nfs_client.mount ~udp:cudp ~tcp:ctcp
          ~server:(Net.Topology.server_id topo)
          ~root:(Nfs_server.root_fhandle server)
          { Nfs_client.reno_mount with Nfs_client.adaptive_transfer = true }
      in
      let body = pattern 50_000 in
      let fd = Nfs_client.create m "mid" in
      Nfs_client.write m fd ~off:0 body;
      Nfs_client.close m fd;
      let back = Nfs_client.read m (Nfs_client.open_ m "mid") ~off:0 ~len:50_000 in
      ok := Bytes.equal back body);
  (try Sim.run ~until:3_000.0 sim with _ -> ());
  Alcotest.(check bool) "bytes intact through sub-block RPCs" true !ok

let () =
  Alcotest.run "tuning"
    [
      ( "soft-mounts",
        [
          Alcotest.test_case "fails fast on dead server" `Quick
            test_soft_mount_fails_fast_on_dead_server;
          Alcotest.test_case "hard mount retries forever" `Quick
            test_hard_mount_keeps_retrying;
          Alcotest.test_case "normal ops unaffected" `Quick
            test_soft_mount_survives_when_server_up;
        ] );
      ( "adaptive-transfer",
        [
          Alcotest.test_case "shrinks under loss" `Quick test_adaptive_shrinks_under_loss;
          Alcotest.test_case "stays at rsize when clean" `Quick
            test_adaptive_stays_at_rsize_on_clean_lan;
          Alcotest.test_case "sub-block integrity" `Quick
            test_sub_block_transfers_preserve_data;
        ] );
    ]
