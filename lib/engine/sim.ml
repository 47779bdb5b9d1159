(* The event queue is an indexed binary min-heap over struct-of-arrays
   slots.  A slot holds one pending event: its time (unboxed in a
   [float array]), sequence number, probe tag and callback, each in
   its own array, plus a generation that is bumped whenever the slot
   is released so a stale [timer] handle can tell it no longer owns
   it.  [heap.(0 .. size-1)] is the heap of live slots, with [pos]
   mapping each slot back to its heap index for cancellation;
   [heap.(size ..)] is the stack of free slots.  Ordering is exactly
   (time, seq), so ties fire in scheduling order.  Schedule, fire and
   cancel are O(log n), allocate nothing in steady state, and are
   insensitive to how event times are spread. *)

type clock = { mutable now : float }
(* an all-float record stores its field unboxed: advancing the clock
   allocates nothing *)

type t = {
  mutable times : float array;  (* by slot *)
  mutable seqs : int array;
  mutable tags : int array;
      (* the probe slot active when the event was scheduled; 0 when no
         probe is attached.  Lets the profiler attribute each fire to
         the subsystem that requested it. *)
  mutable gens : int array;
  mutable pos : int array;  (* slot -> heap index while live *)
  mutable fns : (unit -> unit) array;
  mutable heap : int array;  (* live slots in heap order, then free slots *)
  mutable size : int;
  clock : clock;
  mutable next_seq : int;
  mutable processed : int;
  mutable probe : Probe.t option;
}

type timer = { sim : t; slot : int; gen : int }

let create () =
  {
    times = [||];
    seqs = [||];
    tags = [||];
    gens = [||];
    pos = [||];
    fns = [||];
    heap = [||];
    size = 0;
    clock = { now = 0.0 };
    next_seq = 0;
    processed = 0;
    probe = None;
  }

let now t = t.clock.now
let set_probe t p = t.probe <- p
let probe t = t.probe

(* Double every slot array (starting at 64 slots); the new slots are
   all free. *)
let grow t =
  let n = Array.length t.heap in
  let n' = max 64 (2 * n) in
  let extend a fill =
    let b = Array.make n' fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  t.tags <- extend t.tags 0;
  t.gens <- extend t.gens 0;
  t.pos <- extend t.pos 0;
  t.fns <- extend t.fns ignore;
  t.heap <- Array.init n' (fun i -> if i < n then t.heap.(i) else i)

(* The sift loops index [heap] only below [size] and the per-slot
   arrays only with slots read from it, all within the arrays' common
   length, so these accessors skip the bounds check. *)
let[@inline] slot t i = Array.unsafe_get t.heap i

(* Slot [a] fires before slot [b]. *)
let[@inline] before t a b =
  let ta = Array.unsafe_get t.times a and tb = Array.unsafe_get t.times b in
  ta < tb || (ta = tb && Array.unsafe_get t.seqs a < Array.unsafe_get t.seqs b)

let[@inline] place t i s =
  Array.unsafe_set t.heap i s;
  Array.unsafe_set t.pos s i

(* Move slot [s] from index [i] towards the root until its parent
   fires first.  The hole technique writes each displaced slot once. *)
let sift_up t i s =
  let i = ref i in
  while !i > 0 && before t s (slot t ((!i - 1) / 2)) do
    let p = (!i - 1) / 2 in
    place t !i (slot t p);
    i := p
  done;
  place t !i s

(* Fill the hole at [i] by moving the earlier child up, level by
   level, down to a leaf, and return the leaf's index.  A removal then
   drops the heap's last slot into that leaf and sifts it up: the last
   slot nearly always belongs near the bottom, so this takes about half
   the comparisons of sifting it down from [i]. *)
let hole_to_leaf t i =
  let i = ref i and l = ref ((2 * i) + 1) in
  while !l < t.size do
    let c =
      if !l + 1 < t.size && before t (slot t (!l + 1)) (slot t !l) then !l + 1
      else !l
    in
    place t !i (slot t c);
    i := c;
    l := (2 * c) + 1
  done;
  !i

(* Take the live slot at heap index [i] out of the heap and push it on
   the free stack, invalidating its timer handles. *)
let remove t i =
  let s = t.heap.(i) in
  let last = t.size - 1 in
  t.size <- last;
  if i < last then sift_up t (hole_to_leaf t i) t.heap.(last);
  t.heap.(last) <- s;
  t.gens.(s) <- t.gens.(s) + 1;
  t.fns.(s) <- ignore

let reject t time =
  invalid_arg
    (if Float.is_nan time then "Sim.at: time is NaN"
     else Printf.sprintf "Sim.at: time %g is before now %g" time t.clock.now)

(* The top of the free stack.  Callers store the new event's time
   straight into the unboxed [times] array before [schedule] checks
   it, so no float is boxed to cross a call. *)
let take_slot t =
  if t.size = Array.length t.heap then grow t;
  t.heap.(t.size)

let schedule t s fn =
  let time = t.times.(s) in
  if not (time >= t.clock.now) then reject t time;
  t.seqs.(s) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.tags.(s) <- (match t.probe with None -> 0 | Some p -> p.Probe.current ());
  t.fns.(s) <- fn;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) s

let at t time fn =
  let s = take_slot t in
  t.times.(s) <- time;
  schedule t s fn

let after t delay fn =
  let s = take_slot t in
  t.times.(s) <- t.clock.now +. delay;
  schedule t s fn

let timer_after t delay fn =
  let s = take_slot t in
  t.times.(s) <- t.clock.now +. delay;
  schedule t s fn;
  { sim = t; slot = s; gen = t.gens.(s) }

let cancel tm =
  let t = tm.sim in
  if t.gens.(tm.slot) = tm.gen then remove t t.pos.(tm.slot)

let pending tm = tm.sim.gens.(tm.slot) = tm.gen

(* One branch when detached; when probed, the fire is bracketed so the
   profiler can charge the event's wall time to the slot that scheduled
   it (the event [tag]) and histogram its duration. *)
let fire t tag fn =
  match t.probe with
  | None -> fn ()
  | Some p ->
      let d = p.Probe.fire_enter tag in
      (try fn () with e -> p.Probe.fire_leave d; raise e);
      p.Probe.fire_leave d

(* Pop the root and run it.  The slot is released first, so the
   callback sees its own timer as no longer pending and may reuse the
   slot. *)
let fire_root t =
  let s = t.heap.(0) in
  let fn = t.fns.(s) and tag = t.tags.(s) in
  t.clock.now <- t.times.(s);
  remove t 0;
  t.processed <- t.processed + 1;
  fire t tag fn

let step t =
  if t.size = 0 then false
  else begin
    fire_root t;
    true
  end

let run ?until t =
  let body () =
    match until with
    | None -> while step t do () done
    | Some limit ->
        while t.size > 0 && t.times.(t.heap.(0)) <= limit do
          fire_root t
        done;
        if t.clock.now < limit then t.clock.now <- limit
  in
  (* The run loop itself is the "scheduler" slot: heap maintenance and
     clock advances between fires are charged to it, while each fire's
     body is charged to its own tag by [fire]. *)
  match t.probe with
  | None -> body ()
  | Some p ->
      let d = p.Probe.enter Probe.scheduler in
      (try body () with e -> p.Probe.leave d; raise e);
      p.Probe.leave d

let events_processed t = t.processed
let pending_events t = t.size
