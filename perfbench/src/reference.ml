(* A fixed reference workload that shares no code with renofs: a small
   discrete-event loop over an ordered map of pending events, a hash
   table of in-flight requests, short-lived allocation, 8K block copies
   and random reads and writes across a 6 MB table — the mix of work
   the simulator does.  Timed between passes, it measures how fast the
   host is running at that moment, so host times can be scaled to a
   nominal host speed: on a shared virtual machine that speed drifts by
   tens of percent over minutes. *)

module Q = Map.Make (struct
  type t = float * int

  let compare (a, i) (b, j) = match Float.compare a b with 0 -> Int.compare i j | c -> c
end)

type cell = { mutable hits : int; mutable last : float }

let table = lazy (Array.init (1 lsl 18) (fun _ -> { hits = 0; last = 0.0 }))

let blocks_len = 1 lsl 20
let blocks = lazy (Bytes.make blocks_len 'b')

let events = 100_000

(* [run ()]'s time on the machine the benchmark was defined on: a
   2-vCPU 2.1 GHz Xeon virtual machine, OCaml 5.1. *)
let nominal_s = 0.15

(* Host seconds for one run of the fixed workload. *)
let run () =
  let table = Lazy.force table in
  let mask = Array.length table - 1 in
  let blocks = Lazy.force blocks and block = Bytes.create 8192 in
  let rng = Random.State.make [| 42 |] in
  let t0 = Unix.gettimeofday () in
  let q = ref Q.empty and seq = ref 0 and inflight = Hashtbl.create 1024 in
  let push at f =
    incr seq;
    q := Q.add (at, !seq) f !q
  in
  for i = 0 to 999 do
    push (Random.State.float rng 1.0) (fun now -> Hashtbl.replace inflight i now)
  done;
  for _ = 1 to events do
    let (now, id), f = Q.min_binding !q in
    q := Q.remove (now, id) !q;
    f now;
    let c = table.(Random.State.bits rng land mask) in
    c.hits <- c.hits + 1;
    c.last <- now;
    let req = id land 1023 in
    (match Hashtbl.find_opt inflight req with
    | Some sent -> table.(int_of_float (sent *. 1e6) land mask).last <- now -. sent
    | None -> ());
    let delay = -.log (1.0 -. Random.State.float rng 1.0) in
    if id land 7 = 0 then Bytes.blit blocks (Random.State.bits rng land (blocks_len - 8192)) block 0 8192;
    let payload = Bytes.make 48 'x' in
    push (now +. delay) (fun t -> Hashtbl.replace inflight req (t +. float_of_int (Bytes.length payload)))
  done;
  Unix.gettimeofday () -. t0

(* The factor taking a host time measured between reference runs of
   [before] and [after] seconds to nominal host speed. *)
let scale ~before ~after = nominal_s /. ((before +. after) /. 2.0)
