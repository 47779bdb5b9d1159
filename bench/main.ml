(* Bechamel microbenchmarks of the substrate hot paths: mbuf chains,
   the Internet checksum, trace digests, XDR encode, IP fragmentation
   and the event loop.  The paper's tables and figures are regenerated
   by `nfsbench all` (see README.md).

     dune exec bench/main.exe *)

open Bechamel
open Toolkit
module Mbuf = Renofs_mbuf.Mbuf
module Xdr = Renofs_xdr.Xdr
module Packet = Renofs_net.Packet
module Sim = Renofs_engine.Sim
module Trace = Renofs_trace.Trace

let micro_tests =
  let payload = Bytes.create 8192 in
  [
    Test.make ~name:"mbuf-chain-8K"
      (Staged.stage (fun () -> ignore (Mbuf.of_bytes payload)));
    Test.make ~name:"checksum-8K"
      (let chain = Mbuf.of_bytes payload in
       Staged.stage (fun () -> ignore (Mbuf.checksum chain)));
    Test.make ~name:"checksum-8K-odd"
      (* A 1-byte mbuf first: every later mbuf starts at an odd offset. *)
      (let chain = Mbuf.of_bytes (Bytes.create 1) in
       Mbuf.append_chain chain (Mbuf.of_bytes payload);
       Staged.stage (fun () -> ignore (Mbuf.checksum chain)));
    Test.make ~name:"digest-8K"
      (Staged.stage (fun () -> ignore (Trace.digest payload)));
    Test.make ~name:"xdr-encode-write-rpc"
      (Staged.stage (fun () ->
           let enc = Xdr.Enc.create () in
           Xdr.Enc.int enc 8192;
           Xdr.Enc.string enc "somefile";
           Xdr.Enc.opaque enc payload;
           ignore (Xdr.Enc.chain enc)));
    Test.make ~name:"fragment-8K-ethernet"
      (Staged.stage (fun () ->
           let p =
             Packet.make_datagram ~proto:Packet.Udp ~src:1 ~dst:2 ~src_port:1
               ~dst_port:2049 ~ip_id:1 (Mbuf.of_bytes payload)
           in
           ignore (Packet.fragment p ~mtu:1500)));
    Test.make ~name:"sim-10k-events"
      (Staged.stage (fun () ->
           let sim = Sim.create () in
           for i = 1 to 10_000 do
             Sim.at sim (float_of_int i) ignore
           done;
           Sim.run sim));
  ]

let run_bechamel tests =
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let raw =
    Benchmark.all cfg
      Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"renofs" tests)
  in
  let ols =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) ols []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, result) ->
      let short =
        match String.index_opt name '/' with
        | Some i -> String.sub name (i + 1) (String.length name - i - 1)
        | None -> name
      in
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.printf "  %-28s %14.0f ns/run@." short est
      | _ -> Format.printf "  %-28s (no estimate)@." short)
    rows

let () =
  Format.printf "=== Bechamel: substrate microbenchmarks ===@.";
  run_bechamel micro_tests
