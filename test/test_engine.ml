open Renofs_engine

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Sim                                                                *)
(* ------------------------------------------------------------------ *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim 3.0 (fun () -> log := "c" :: !log);
  Sim.at sim 1.0 (fun () -> log := "a" :: !log);
  Sim.at sim 2.0 (fun () -> log := "b" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 3.0 (Sim.now sim)

let test_sim_fifo_same_time () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.at sim 1.0 (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo within a timestamp" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_past_raises () =
  let sim = Sim.create () in
  Sim.at sim 5.0 (fun () -> ());
  Sim.run sim;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Sim.at: time 1 is before now 5") (fun () ->
      Sim.at sim 1.0 ignore)

(* NaN compares false against everything, so it would slip past the
   before-now check and break the heap order. *)
let test_sim_nan_raises () =
  let sim = Sim.create () in
  Sim.at sim 1.0 ignore;
  Alcotest.check_raises "NaN time rejected"
    (Invalid_argument "Sim.at: time is NaN") (fun () ->
      Sim.at sim Float.nan ignore);
  Alcotest.check_raises "NaN delay rejected"
    (Invalid_argument "Sim.at: time is NaN") (fun () ->
      ignore (Sim.timer_after sim Float.nan ignore));
  Alcotest.(check int) "nothing queued" 1 (Sim.pending_events sim);
  Sim.run sim;
  check_float "clock stays a number" 1.0 (Sim.now sim)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let hits = ref 0 in
  Sim.at sim 1.0 (fun () ->
      Sim.after sim 0.5 (fun () ->
          incr hits;
          check_float "nested time" 1.5 (Sim.now sim)));
  Sim.run sim;
  Alcotest.(check int) "nested ran" 1 !hits

let test_sim_until () =
  let sim = Sim.create () in
  let hits = ref 0 in
  Sim.at sim 1.0 (fun () -> incr hits);
  Sim.at sim 10.0 (fun () -> incr hits);
  Sim.run ~until:5.0 sim;
  Alcotest.(check int) "only early event" 1 !hits;
  check_float "clock moved to until" 5.0 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "late event still queued" 2 !hits

let test_timer_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let tm = Sim.timer_after sim 2.0 (fun () -> fired := true) in
  Alcotest.(check bool) "pending before" true (Sim.pending tm);
  Sim.cancel tm;
  Sim.run sim;
  Alcotest.(check bool) "cancelled timer silent" false !fired;
  Alcotest.(check bool) "not pending after" false (Sim.pending tm)

(* A handle outlives its event: once the timer fired or was cancelled,
   its storage may carry a new event, which the old handle must not
   see or cancel. *)
let test_timer_stale_handle () =
  let sim = Sim.create () in
  let log = ref [] in
  let stale = Sim.timer_after sim 1.0 (fun () -> log := "stale" :: !log) in
  Sim.cancel stale;
  let fresh = Sim.timer_after sim 2.0 (fun () -> log := "fresh" :: !log) in
  Sim.cancel stale;
  Alcotest.(check bool) "cancelled handle not pending" false (Sim.pending stale);
  Alcotest.(check bool) "new occupant pending" true (Sim.pending fresh);
  Alcotest.(check int) "new occupant queued" 1 (Sim.pending_events sim);
  let fired = Sim.timer_after sim 0.5 (fun () -> log := "fired" :: !log) in
  Sim.run ~until:1.0 sim;
  let next = Sim.timer_after sim 0.5 (fun () -> log := "next" :: !log) in
  Sim.cancel fired;
  Alcotest.(check bool) "fired handle not pending" false (Sim.pending fired);
  Alcotest.(check bool) "its successor pending" true (Sim.pending next);
  Sim.run sim;
  Alcotest.(check (list string)) "both occupants fired"
    [ "fired"; "next"; "fresh" ] (List.rev !log)

let test_timer_not_pending_in_callback () =
  let sim = Sim.create () in
  let seen = ref None in
  let tm = ref None in
  tm := Some (Sim.timer_after sim 1.0 (fun () ->
      seen := Some (Sim.pending (Option.get !tm))));
  Sim.run sim;
  Alcotest.(check (option bool)) "not pending while firing" (Some false) !seen

let test_events_processed () =
  let sim = Sim.create () in
  for i = 1 to 10 do
    Sim.at sim (float_of_int i) ignore
  done;
  Sim.run sim;
  Alcotest.(check int) "count" 10 (Sim.events_processed sim)

(* Oracle check of the event heap against the (time, seq) contract:
   a randomized script of nested schedules and cancels — thousands of
   events across many slot-array growths, with same-time ties,
   near-instant churn and far-future jumps — must fire in exactly
   sorted (time, insertion order).  The local [id] counter advances in
   lockstep with Sim's internal sequence number because every schedule
   in this simulator goes through [spawn]. *)
let test_sim_oracle_order () =
  let rng = Rng.create 97 in
  let sim = Sim.create () in
  let next_id = ref 0 in
  let fired = ref [] in
  let live = Hashtbl.create 64 in (* id -> timer *)
  let cancelled = ref 0 in
  let cancel_youngest () =
    let victim = Hashtbl.fold (fun id _ acc -> max id acc) live (-1) in
    match Hashtbl.find_opt live victim with
    | None -> ()
    | Some tm ->
        Sim.cancel tm;
        Hashtbl.remove live victim;
        incr cancelled
  in
  let rec spawn depth =
    let id = !next_id in
    incr next_id;
    let delay =
      match Rng.int rng 4 with
      | 0 -> Rng.float rng 1e-4 (* near-instant churn *)
      | 1 -> Rng.float rng 2.0
      | 2 -> Rng.float rng 80.0 (* far ahead *)
      | _ -> 0.0 (* same instant: seq tie-break *)
    in
    let time = Sim.now sim +. delay in
    let tm =
      Sim.timer_after sim delay (fun () ->
          Hashtbl.remove live id;
          fired := (time, id) :: !fired;
          if depth < 3 then
            for _ = 1 to Rng.int rng 3 do
              spawn (depth + 1)
            done;
          if Rng.int rng 8 = 0 then cancel_youngest ())
    in
    Hashtbl.replace live id tm
  in
  for _ = 1 to 400 do
    spawn 0
  done;
  Sim.run sim;
  let order = List.rev !fired in
  Alcotest.(check int) "every event fired or was cancelled"
    !next_id
    (List.length order + !cancelled);
  Alcotest.(check bool) "a real population ran" true (!next_id > 1000);
  Alcotest.(check bool) "some cancels happened" true (!cancelled > 10);
  Alcotest.(check
               (list (pair (float 0.0) int)))
    "fired in (time, seq) order" (List.sort compare order) order

(* The deep-queue oracle: 100,000 standing timers spread over 100 s
   under a stream of 0.5 ms hops, each hop cancelling a random standing
   timer (mostly from the middle of the heap) and re-arming a
   replacement.  With one event fired at a time, the queue fires in
   reference order iff each fire's (time, id) exceeds the previous one
   and every event not cancelled fires exactly once. *)
let test_sim_oracle_deep () =
  let n = 100_000 in
  let rng = Rng.create 1991 in
  let sim = Sim.create () in
  let next_id = ref 0 and last = ref (neg_infinity, -1) in
  let out_of_order = ref 0 and fired = ref 0 and cancelled = ref 0 in
  let peak = ref 0 in
  (* Every schedule goes through [arm], so [id] is Sim's sequence. *)
  let arm delay k =
    let id = !next_id and time = Sim.now sim +. delay in
    incr next_id;
    Sim.timer_after sim delay (fun () ->
        if compare (time, id) !last <= 0 then incr out_of_order;
        last := (time, id);
        incr fired;
        k ())
  in
  let standing = Array.init n (fun _ -> arm (Rng.float rng 100.0) ignore) in
  let rec hop k () =
    let i = Rng.int rng n in
    if Sim.pending standing.(i) then begin
      Sim.cancel standing.(i);
      incr cancelled
    end;
    standing.(i) <- arm (Rng.float rng 100.0) ignore;
    if k > 0 then ignore (arm 0.0005 (hop (k - 1)));
    peak := max !peak (Sim.pending_events sim)
  in
  ignore (arm 0.0005 (hop 200_000));
  peak := Sim.pending_events sim;
  Sim.run sim;
  Alcotest.(check bool) "a deep queue ran" true (!peak >= n);
  Alcotest.(check bool) "many middle cancels" true (!cancelled > n);
  Alcotest.(check int) "fired in (time, seq) order" 0 !out_of_order;
  Alcotest.(check int) "every event fired or was cancelled" !next_id
    (!fired + !cancelled)

(* ------------------------------------------------------------------ *)
(* Proc                                                               *)
(* ------------------------------------------------------------------ *)

let test_proc_sleep () =
  let sim = Sim.create () in
  let log = ref [] in
  Proc.spawn sim (fun () ->
      Proc.sleep sim 1.0;
      log := ("p1", Sim.now sim) :: !log;
      Proc.sleep sim 2.0;
      log := ("p1b", Sim.now sim) :: !log);
  Proc.spawn sim (fun () ->
      Proc.sleep sim 1.5;
      log := ("p2", Sim.now sim) :: !log);
  Sim.run sim;
  Alcotest.(check (list (pair string (float 1e-9))))
    "interleaving"
    [ ("p1", 1.0); ("p2", 1.5); ("p1b", 3.0) ]
    (List.rev !log)

let test_ivar () =
  let sim = Sim.create () in
  let iv = Proc.Ivar.create sim in
  let got = ref [] in
  for i = 1 to 3 do
    Proc.spawn sim (fun () ->
        let v = Proc.Ivar.read iv in
        got := (i, v, Sim.now sim) :: !got)
  done;
  Proc.spawn sim (fun () ->
      Proc.sleep sim 2.0;
      Proc.Ivar.fill iv 42);
  Sim.run sim;
  Alcotest.(check int) "all woke" 3 (List.length !got);
  List.iter
    (fun (_, v, t) ->
      Alcotest.(check int) "value" 42 v;
      check_float "wake time" 2.0 t)
    !got;
  Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already full")
    (fun () -> Proc.Ivar.fill iv 0)

let test_ivar_read_after_fill () =
  let sim = Sim.create () in
  let iv = Proc.Ivar.create sim in
  Proc.Ivar.fill iv "x";
  let got = ref "" in
  Proc.spawn sim (fun () -> got := Proc.Ivar.read iv);
  Sim.run sim;
  Alcotest.(check string) "immediate read" "x" !got;
  Alcotest.(check (option string)) "peek" (Some "x") (Proc.Ivar.peek iv)

let test_mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Proc.Mailbox.create sim in
  let got = ref [] in
  Proc.spawn sim (fun () ->
      for _ = 1 to 4 do
        got := Proc.Mailbox.recv mb :: !got
      done);
  Proc.spawn sim (fun () ->
      Proc.Mailbox.send mb 1;
      Proc.Mailbox.send mb 2;
      Proc.sleep sim 1.0;
      Proc.Mailbox.send mb 3;
      Proc.Mailbox.send mb 4);
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4 ] (List.rev !got)

let test_mailbox_try_recv () =
  let sim = Sim.create () in
  let mb = Proc.Mailbox.create sim in
  Alcotest.(check (option int)) "empty" None (Proc.Mailbox.try_recv mb);
  Proc.Mailbox.send mb 7;
  Alcotest.(check int) "length" 1 (Proc.Mailbox.length mb);
  Alcotest.(check (option int)) "pop" (Some 7) (Proc.Mailbox.try_recv mb)

let test_semaphore_limits_concurrency () =
  let sim = Sim.create () in
  let sem = Proc.Semaphore.create sim 2 in
  let active = ref 0 and peak = ref 0 in
  for _ = 1 to 6 do
    Proc.spawn sim (fun () ->
        Proc.Semaphore.acquire sem;
        incr active;
        if !active > !peak then peak := !active;
        Proc.sleep sim 1.0;
        decr active;
        Proc.Semaphore.release sem)
  done;
  Sim.run sim;
  Alcotest.(check int) "peak concurrency" 2 !peak;
  Alcotest.(check int) "all released" 2 (Proc.Semaphore.available sem)

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let c = Rng.split a in
  let x = Rng.bits64 a and y = Rng.bits64 c in
  Alcotest.(check bool) "streams differ" true (x <> y)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done

let test_rng_float_mean () =
  let rng = Rng.create 9 in
  let w = Stats.Welford.create () in
  for _ = 1 to 10_000 do
    Stats.Welford.add w (Rng.float rng 1.0)
  done;
  let m = Stats.Welford.mean w in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (m -. 0.5) < 0.02)

let test_rng_exponential_mean () =
  let rng = Rng.create 11 in
  let w = Stats.Welford.create () in
  for _ = 1 to 20_000 do
    Stats.Welford.add w (Rng.exponential rng 3.0)
  done;
  let m = Stats.Welford.mean w in
  Alcotest.(check bool) "mean near 3" true (abs_float (m -. 3.0) < 0.15)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_welford_known () =
  let w = Stats.Welford.create () in
  List.iter (Stats.Welford.add w) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Stats.Welford.count w);
  check_float "mean" 5.0 (Stats.Welford.mean w);
  check_float "sample variance" (32.0 /. 7.0) (Stats.Welford.variance w);
  check_float "min" 2.0 (Stats.Welford.min w);
  check_float "max" 9.0 (Stats.Welford.max w);
  check_float "total" 40.0 (Stats.Welford.total w)

let test_hist_quantile () =
  let h = Stats.Hist.create ~bucket_width:10.0 ~buckets:10 in
  for i = 0 to 99 do
    Stats.Hist.add h (float_of_int i)
  done;
  (* values 0..99: each bucket of width 10 holds exactly 10 values *)
  Alcotest.(check int) "count" 100 (Stats.Hist.count h);
  check_float "median bound" 50.0 (Stats.Hist.quantile h 0.5);
  check_float "p90 bound" 90.0 (Stats.Hist.quantile h 0.9)

let test_hist_overflow () =
  let h = Stats.Hist.create ~bucket_width:1.0 ~buckets:2 in
  Stats.Hist.add h 100.0;
  check_float "overflow quantile" infinity (Stats.Hist.quantile h 1.0)

let test_hist_quantile_bounds () =
  let h = Stats.Hist.create ~bucket_width:10.0 ~buckets:10 in
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Hist.quantile: empty") (fun () ->
      ignore (Stats.Hist.quantile h 0.5));
  (* One sample in the fourth bucket: every quantile is its bound. *)
  Stats.Hist.add h 35.0;
  check_float "q=0 on one sample" 40.0 (Stats.Hist.quantile h 0.0);
  check_float "q=1 on one sample" 40.0 (Stats.Hist.quantile h 1.0);
  for i = 0 to 99 do
    Stats.Hist.add h (float_of_int i)
  done;
  check_float "q=0 is the first nonempty bound" 10.0 (Stats.Hist.quantile h 0.0);
  check_float "q=1 is the last nonempty bound" 100.0 (Stats.Hist.quantile h 1.0);
  Alcotest.check_raises "q below range rejected"
    (Invalid_argument "Hist.quantile: q outside [0,1]") (fun () ->
      ignore (Stats.Hist.quantile h (-0.01)));
  Alcotest.check_raises "q above range rejected"
    (Invalid_argument "Hist.quantile: q outside [0,1]") (fun () ->
      ignore (Stats.Hist.quantile h 1.01));
  (* A sample past the covered range keeps finite quantiles for the
     covered mass but reports the tail as unbounded. *)
  Stats.Hist.add h 1e9;
  check_float "median still finite" 50.0 (Stats.Hist.quantile h 0.5);
  check_float "overflowed tail" infinity (Stats.Hist.quantile h 1.0)

let test_series () =
  let s = Stats.Timeseries.create ~name:"rtt" () in
  Stats.Timeseries.add s 1.0 0.1;
  Stats.Timeseries.add s 2.0 0.2;
  Alcotest.(check int) "length" 2 (Stats.Timeseries.length s);
  Alcotest.(check string) "name" "rtt" (Stats.Timeseries.name s);
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "order" [ (1.0, 0.1); (2.0, 0.2) ] (Stats.Timeseries.to_list s)

let check_points = Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))

let test_timeseries_delta () =
  check_points "empty" [] (Stats.Timeseries.delta []);
  check_points "single point" [] (Stats.Timeseries.delta [ (1.0, 5.0) ]);
  check_points "differences stamped at later time"
    [ (2.0, 3.0); (3.0, -1.0) ]
    (Stats.Timeseries.delta [ (1.0, 10.0); (2.0, 13.0); (3.0, 12.0) ])

let test_timeseries_rate () =
  check_points "empty" [] (Stats.Timeseries.rate []);
  check_points "single point" [] (Stats.Timeseries.rate [ (1.0, 5.0) ]);
  check_points "delta over dt"
    [ (2.0, 3.0); (4.0, 2.0) ]
    (Stats.Timeseries.rate [ (1.0, 10.0); (2.0, 13.0); (4.0, 17.0) ]);
  (* A repeated timestamp has no defined rate; the pair is skipped
     rather than emitting an infinity. *)
  check_points "zero dt skipped" [ (3.0, 1.0) ]
    (Stats.Timeseries.rate [ (1.0, 5.0); (1.0, 9.0); (3.0, 11.0) ])

let test_counter () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c "read";
  Stats.Counter.incr c "read";
  Stats.Counter.incr ~by:3 c "lookup";
  Alcotest.(check int) "read" 2 (Stats.Counter.get c "read");
  Alcotest.(check int) "lookup" 3 (Stats.Counter.get c "lookup");
  Alcotest.(check int) "absent" 0 (Stats.Counter.get c "write");
  Alcotest.(check int) "total" 5 (Stats.Counter.total c);
  Alcotest.(check (list (pair string int)))
    "sorted" [ ("lookup", 3); ("read", 2) ] (Stats.Counter.to_list c)

let test_counter_reset () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c "read";
  Stats.Counter.incr ~by:7 c "write";
  Stats.Counter.reset c;
  Alcotest.(check int) "total cleared" 0 (Stats.Counter.total c);
  Alcotest.(check int) "key cleared" 0 (Stats.Counter.get c "read");
  Alcotest.(check (list (pair string int))) "empty" [] (Stats.Counter.to_list c);
  (* Usable again after a reset. *)
  Stats.Counter.incr c "read";
  Alcotest.(check int) "recounts" 1 (Stats.Counter.get c "read")

(* ------------------------------------------------------------------ *)
(* Rtt                                                                *)
(* ------------------------------------------------------------------ *)

let test_rtt_first_sample () =
  let r = Rtt.create ~k:4.0 () in
  Alcotest.(check bool) "not inited" false (Rtt.initialized r);
  check_float "default rto" 1.0 (Rtt.rto r ~default:1.0);
  Rtt.observe r 0.2;
  check_float "srtt = sample" 0.2 (Rtt.srtt r);
  check_float "D = sample/2" 0.1 (Rtt.deviation r);
  check_float "rto = A + 4D" 0.6 (Rtt.rto r ~default:1.0)

let test_rtt_converges () =
  let r = Rtt.create ~k:4.0 () in
  for _ = 1 to 200 do
    Rtt.observe r 0.05
  done;
  Alcotest.(check bool) "srtt converged" true (abs_float (Rtt.srtt r -. 0.05) < 0.001);
  Alcotest.(check bool) "deviation shrinks" true (Rtt.deviation r < 0.002)

let test_rtt_clamping () =
  let r = Rtt.create ~k:4.0 ~min_rto:0.5 ~max_rto:2.0 () in
  Rtt.observe r 0.01;
  check_float "min clamp" 0.5 (Rtt.rto r ~default:1.0);
  for _ = 1 to 50 do
    Rtt.observe r 10.0
  done;
  check_float "max clamp" 2.0 (Rtt.rto r ~default:1.0)

let test_rtt_k_matters () =
  let r2 = Rtt.create ~k:2.0 () and r4 = Rtt.create ~k:4.0 () in
  List.iter
    (fun s ->
      Rtt.observe r2 s;
      Rtt.observe r4 s)
    [ 0.1; 0.3; 0.1; 0.5; 0.2 ];
  Alcotest.(check bool) "A+4D > A+2D" true
    (Rtt.rto r4 ~default:1.0 > Rtt.rto r2 ~default:1.0)

(* ------------------------------------------------------------------ *)
(* Cpu                                                                *)
(* ------------------------------------------------------------------ *)

let test_cpu_serializes () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:1.0 in
  let log = ref [] in
  Proc.spawn sim (fun () ->
      Cpu.consume cpu 1.0;
      log := ("a", Sim.now sim) :: !log);
  Proc.spawn sim (fun () ->
      Cpu.consume cpu 2.0;
      log := ("b", Sim.now sim) :: !log);
  Sim.run sim;
  Alcotest.(check (list (pair string (float 1e-9))))
    "fifo service" [ ("a", 1.0); ("b", 3.0) ] (List.rev !log);
  check_float "busy time" 3.0 (Cpu.busy_time cpu)

let test_cpu_interrupt_priority () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:1.0 in
  let log = ref [] in
  Proc.spawn sim (fun () ->
      Cpu.consume cpu 1.0;
      log := "normal1" :: !log);
  Proc.spawn sim (fun () ->
      Cpu.consume cpu 1.0;
      log := "normal2" :: !log);
  Proc.spawn sim (fun () ->
      (* Arrives while normal1 is in service; jumps the normal queue. *)
      Proc.sleep sim 0.5;
      Cpu.consume ~priority:Cpu.Interrupt cpu 0.25;
      log := "intr" :: !log);
  Sim.run sim;
  Alcotest.(check (list string))
    "interrupt served before queued normal work"
    [ "normal1"; "intr"; "normal2" ]
    (List.rev !log)

let test_cpu_charge_async () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:1.0 in
  Cpu.charge cpu 2.0;
  Sim.run sim;
  check_float "charged busy" 2.0 (Cpu.busy_time cpu)

let test_cpu_utilization () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:1.0 in
  Proc.spawn sim (fun () -> Cpu.consume cpu 2.0);
  Sim.at sim 4.0 ignore;
  Sim.run sim;
  check_float "50%% busy over 4s" 0.5 (Cpu.utilization cpu ~since_time:0.0 ~since_busy:0.0)

let test_iostat_sampling () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:1.0 in
  let io = Iostat.start sim cpu ~interval:1.0 () in
  (* 50% duty cycle: 0.5 s of work at the start of each second. *)
  Proc.spawn sim (fun () ->
      for _ = 1 to 10 do
        Cpu.consume cpu 0.5;
        Proc.sleep sim 0.5
      done);
  Sim.run ~until:10.5 sim;
  Iostat.stop io;
  Alcotest.(check bool) "several samples" true (List.length (Iostat.samples io) >= 9);
  let mean = Iostat.mean_utilization io in
  Alcotest.(check bool) "mean near 50%" true (mean > 0.4 && mean < 0.6);
  Alcotest.(check bool) "peak at least mean" true (Iostat.peak_utilization io >= mean)

let test_iostat_idle () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:1.0 in
  let io = Iostat.start sim cpu () in
  Sim.run ~until:5.0 sim;
  Iostat.stop io;
  Alcotest.(check (float 1e-9)) "idle cpu" 0.0 (Iostat.mean_utilization io)

let test_cpu_instructions () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~mips:0.9 in
  check_float "0.9 MIPS" (1.0 /. 0.9e6) (Cpu.seconds_of_instructions cpu 1.0)

let () =
  Alcotest.run "engine"
    [
      ( "sim",
        [
          Alcotest.test_case "event ordering" `Quick test_sim_ordering;
          Alcotest.test_case "fifo at same time" `Quick test_sim_fifo_same_time;
          Alcotest.test_case "past raises" `Quick test_sim_past_raises;
          Alcotest.test_case "nested schedule" `Quick test_sim_nested_schedule;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
          Alcotest.test_case "events processed" `Quick test_events_processed;
          Alcotest.test_case "oracle order under churn" `Quick
            test_sim_oracle_order;
          Alcotest.test_case "nan raises" `Quick test_sim_nan_raises;
          Alcotest.test_case "stale timer handle" `Quick test_timer_stale_handle;
          Alcotest.test_case "not pending in own callback" `Quick
            test_timer_not_pending_in_callback;
          Alcotest.test_case "deep-queue oracle" `Quick test_sim_oracle_deep;
        ] );
      ( "proc",
        [
          Alcotest.test_case "sleep interleaves" `Quick test_proc_sleep;
          Alcotest.test_case "ivar wakes all" `Quick test_ivar;
          Alcotest.test_case "ivar read after fill" `Quick test_ivar_read_after_fill;
          Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "mailbox try_recv" `Quick test_mailbox_try_recv;
          Alcotest.test_case "semaphore bounds" `Quick test_semaphore_limits_concurrency;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        ] );
      ( "stats",
        [
          Alcotest.test_case "welford known values" `Quick test_welford_known;
          Alcotest.test_case "hist quantile" `Quick test_hist_quantile;
          Alcotest.test_case "hist overflow" `Quick test_hist_overflow;
          Alcotest.test_case "hist quantile bounds" `Quick test_hist_quantile_bounds;
          Alcotest.test_case "series" `Quick test_series;
          Alcotest.test_case "timeseries delta" `Quick test_timeseries_delta;
          Alcotest.test_case "timeseries rate" `Quick test_timeseries_rate;
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "counter reset" `Quick test_counter_reset;
        ] );
      ( "rtt",
        [
          Alcotest.test_case "first sample" `Quick test_rtt_first_sample;
          Alcotest.test_case "converges" `Quick test_rtt_converges;
          Alcotest.test_case "clamping" `Quick test_rtt_clamping;
          Alcotest.test_case "A+4D above A+2D" `Quick test_rtt_k_matters;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "serializes work" `Quick test_cpu_serializes;
          Alcotest.test_case "interrupt priority" `Quick test_cpu_interrupt_priority;
          Alcotest.test_case "async charge" `Quick test_cpu_charge_async;
          Alcotest.test_case "utilization" `Quick test_cpu_utilization;
          Alcotest.test_case "instruction conversion" `Quick test_cpu_instructions;
        ] );
      ( "iostat",
        [
          Alcotest.test_case "duty-cycle sampling" `Quick test_iostat_sampling;
          Alcotest.test_case "idle" `Quick test_iostat_idle;
        ] );
    ]
